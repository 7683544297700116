//! Energy-supply scenarios and their hourly operational carbon intensity
//! (paper §3.2 and Figure 6).
//!
//! Three ways a datacenter can relate to the grid:
//!
//! - **Grid mix** — consume whatever the grid serves; intensity is the
//!   grid's hourly generation-weighted intensity;
//! - **Net Zero** — invest in renewables and match *annually* with
//!   credits; physically, deficit hours still consume grid-mix energy, so
//!   the hourly intensity spikes whenever renewables fall short even
//!   though the annual paper accounting reads zero;
//! - **24/7 carbon-free** — cover every hour with renewables plus storage
//!   and scheduling; hourly intensity is (near) zero.

use ce_grid::GridDataset;
use ce_timeseries::{HourlySeries, TimeSeriesError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A datacenter energy-supply scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Consume the grid's generation mix directly.
    GridMix,
    /// Renewable investments with annual credit matching (the state of the
    /// art for hyperscalers).
    NetZero,
    /// Hourly matching via renewables + storage + scheduling.
    CarbonFree247,
}

impl Scenario {
    /// All scenarios in Figure 6's order.
    pub const ALL: [Scenario; 3] = [
        Scenario::GridMix,
        Scenario::NetZero,
        Scenario::CarbonFree247,
    ];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::GridMix => "Grid Mix",
            Scenario::NetZero => "Net Zero",
            Scenario::CarbonFree247 => "24/7 Carbon Free",
        }
    }

    /// The stable, machine-readable identifier of this scenario.
    ///
    /// This is the wire name used by serialization layers (`ce-serve`'s
    /// JSON schema and any cache keyed on scenarios): unlike [`Scenario::label`]
    /// it is guaranteed never to change spelling, so hashes derived from it
    /// stay valid across releases.
    pub fn canonical_key(&self) -> &'static str {
        match self {
            Scenario::GridMix => "grid_mix",
            Scenario::NetZero => "net_zero",
            Scenario::CarbonFree247 => "carbon_free_247",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The hourly operational carbon intensity (t/MWh) of the energy a
/// datacenter *consumes* under a scenario (paper Figure 6).
///
/// - `GridMix`: the grid's intensity for every hour;
/// - `NetZero`: zero in hours where `supply >= demand` (the PPA delivers
///   attributable carbon-free energy), the grid's intensity on the
///   deficit share otherwise;
/// - `CarbonFree247`: zero for hours covered after mitigation (given by
///   `unmet_after_mitigation`), grid intensity on residual unmet energy.
///
/// # Errors
///
/// Returns an alignment error if any series is misaligned with `demand`.
pub fn hourly_intensity(
    scenario: Scenario,
    demand: &HourlySeries,
    renewable_supply: &HourlySeries,
    grid: &GridDataset,
    unmet_after_mitigation: Option<&HourlySeries>,
) -> Result<HourlySeries, TimeSeriesError> {
    let grid_intensity = grid.carbon_intensity();
    demand.check_aligned(&grid_intensity)?;
    match scenario {
        Scenario::GridMix => Ok(grid_intensity),
        Scenario::NetZero => {
            demand.check_aligned(renewable_supply)?;
            Ok(HourlySeries::from_fn(demand.start(), demand.len(), |h| {
                let d = demand[h];
                if d <= 0.0 {
                    return 0.0;
                }
                let deficit = (d - renewable_supply[h]).max(0.0);
                grid_intensity[h] * deficit / d
            }))
        }
        Scenario::CarbonFree247 => {
            let unmet = unmet_after_mitigation.unwrap_or(renewable_supply);
            demand.check_aligned(unmet)?;
            Ok(HourlySeries::from_fn(demand.start(), demand.len(), |h| {
                let d = demand[h];
                if d <= 0.0 {
                    return 0.0;
                }
                grid_intensity[h] * (unmet[h].max(0.0) / d).min(1.0)
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_grid::BalancingAuthority;
    use ce_timeseries::Timestamp;

    fn grid() -> GridDataset {
        GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7)
    }

    fn flat_demand(mw: f64) -> HourlySeries {
        let g = grid();
        HourlySeries::constant(Timestamp::start_of_year(2020), g.demand().len(), mw)
    }

    #[test]
    fn grid_mix_intensity_is_the_grid_intensity() {
        let g = grid();
        let demand = flat_demand(20.0);
        let supply = flat_demand(0.0);
        let intensity = hourly_intensity(Scenario::GridMix, &demand, &supply, &g, None).unwrap();
        assert_eq!(intensity, g.carbon_intensity());
    }

    #[test]
    fn net_zero_is_zero_in_surplus_hours_only() {
        let g = grid();
        let demand = flat_demand(20.0);
        // Supply covers even hours (with surplus to spare), odd hours not
        // at all — annual generation (45/2 = 22.5 MW mean) exceeds the
        // 20 MW demand, so credits add up to Net Zero.
        let supply = HourlySeries::from_fn(demand.start(), demand.len(), |h| {
            if h % 2 == 0 {
                45.0
            } else {
                0.0
            }
        });
        let intensity = hourly_intensity(Scenario::NetZero, &demand, &supply, &g, None).unwrap();
        assert_eq!(intensity[0], 0.0);
        assert!(intensity[1] > 0.0);
        assert_eq!(intensity[1], g.carbon_intensity()[1]);
        // Annual accounting nevertheless reads Net Zero.
        assert!(supply.sum() >= demand.sum());
    }

    #[test]
    fn carbon_free_247_with_zero_unmet_is_zero_everywhere() {
        let g = grid();
        let demand = flat_demand(20.0);
        let supply = flat_demand(25.0);
        let unmet = flat_demand(0.0);
        let intensity =
            hourly_intensity(Scenario::CarbonFree247, &demand, &supply, &g, Some(&unmet)).unwrap();
        assert_eq!(intensity.max().unwrap(), 0.0);
    }

    #[test]
    fn residual_unmet_energy_carries_grid_intensity() {
        let g = grid();
        let demand = flat_demand(20.0);
        let supply = flat_demand(0.0);
        let unmet = flat_demand(10.0); // half of demand unmet
        let intensity =
            hourly_intensity(Scenario::CarbonFree247, &demand, &supply, &g, Some(&unmet)).unwrap();
        let grid_intensity = g.carbon_intensity();
        for h in (0..intensity.len()).step_by(371) {
            assert!((intensity[h] - grid_intensity[h] * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn scenario_mean_intensities_are_ordered() {
        // Fig 6's message: grid mix ≥ net zero ≥ 24/7.
        let g = grid();
        let demand = flat_demand(20.0);
        let supply = g.scaled_renewables(400.0, 200.0);
        let unmet = demand.zip_with(&supply, |d, s| (d - s).max(0.0)).unwrap();
        let mix = hourly_intensity(Scenario::GridMix, &demand, &supply, &g, None)
            .unwrap()
            .mean();
        let net_zero = hourly_intensity(Scenario::NetZero, &demand, &supply, &g, None)
            .unwrap()
            .mean();
        // 24/7 with a big battery: assume unmet is halved by mitigation.
        let mitigated = unmet.scale(0.2);
        let cf = hourly_intensity(
            Scenario::CarbonFree247,
            &demand,
            &supply,
            &g,
            Some(&mitigated),
        )
        .unwrap()
        .mean();
        assert!(mix > net_zero, "{mix} vs {net_zero}");
        assert!(net_zero > cf, "{net_zero} vs {cf}");
    }

    #[test]
    fn labels() {
        assert_eq!(Scenario::NetZero.to_string(), "Net Zero");
        assert_eq!(Scenario::ALL.len(), 3);
    }
}
