//! Year-long battery dispatch against a demand/supply pair (paper §4.2):
//! charge on renewable surplus, discharge on renewable deficit.

use crate::api::BatteryModel;
use ce_timeseries::kernels::COVERED_EPSILON_MWH;
use ce_timeseries::stats::Histogram;
use ce_timeseries::{DeficitStats, HourlySeries, TimeSeriesError};
use std::iter;

/// The outcome of dispatching a battery over a demand/supply pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchResult {
    /// Demand not covered by renewables or battery (MW per hour) — this is
    /// what must come from the (carbon-intensive) grid.
    pub unmet: HourlySeries,
    /// Power served from the battery each hour, MW.
    pub battery_supplied: HourlySeries,
    /// Renewable surplus left over after charging, MW (curtailed).
    pub curtailed: HourlySeries,
    /// Battery state of charge at the *end* of each hour, MWh.
    pub soc: HourlySeries,
    /// Total energy delivered by the battery over the run, MWh.
    pub total_discharged_mwh: f64,
    /// Equivalent full cycles performed (energy discharged ÷ usable
    /// capacity); 0 for a zero-capacity battery.
    pub equivalent_cycles: f64,
}

impl DispatchResult {
    /// Distribution of the battery's state of charge (as a fraction of
    /// nameplate capacity) across the run — the paper's Figure 16.
    ///
    /// # Errors
    ///
    /// Returns an error if `bins` is zero.
    pub fn charge_level_histogram(
        &self,
        capacity_mwh: f64,
        bins: usize,
    ) -> Result<Histogram, TimeSeriesError> {
        let fractions: Vec<f64> = if capacity_mwh > 0.0 {
            self.soc
                .values()
                .iter()
                .map(|&s| s / capacity_mwh)
                .collect()
        } else {
            vec![0.0; self.soc.len()]
        };
        Histogram::new(&fractions, 0.0, 1.0 + 1e-9, bins)
    }
}

/// One hour of the greedy dispatch, as [`dispatch_hours`] hands it to a
/// sink: grid draw, battery output and curtailed surplus (MW), and the
/// state of charge at the end of the hour (MWh).
#[derive(Clone, Copy)]
struct DispatchHour {
    unmet: f64,
    supplied: f64,
    curtailed: f64,
    soc: f64,
}

/// Run-level totals of one dispatch.
struct DispatchTotals {
    discharged_mwh: f64,
    equivalent_cycles: f64,
}

/// The greedy dispatch policy, written once for [`simulate_dispatch`] and
/// [`simulate_dispatch_stats`]: resets `battery` to full, steps it through
/// every hour of `demand`/`supply` (surplus charges, deficit discharges)
/// and hands each hour, with that hour's item of `tags`, to `sink` in hour
/// order. The two wrappers differ only in their sink, so the traced
/// series and the streamed aggregates come from the same float operations.
/// `tags` carries per-hour data only one sink needs (the stats fold's
/// weight), zipped in so that sink indexes nothing.
///
/// Forced inline so each wrapper compiles the loop with its own sink in
/// place and the stats path keeps none of the trace's per-hour work.
// ce:hot
#[inline(always)]
fn dispatch_hours<B: BatteryModel + ?Sized, T>(
    battery: &mut B,
    demand: &[f64],
    supply: &[f64],
    tags: impl IntoIterator<Item = T>,
    mut sink: impl FnMut(DispatchHour, T),
) -> DispatchTotals {
    battery.reset(1.0);
    let mut discharged_mwh = 0.0;
    for ((&d, &s), tag) in demand.iter().zip(supply).zip(tags) {
        let (unmet, supplied, curtailed) = if s >= d {
            // Surplus: charge with the excess, curtail the rest.
            let surplus = s - d;
            let accepted = battery.charge(surplus);
            (0.0, 0.0, surplus - accepted)
        } else {
            // Deficit: discharge to cover as much as possible.
            let deficit = d - s;
            let delivered = battery.discharge(deficit);
            discharged_mwh += delivered;
            (deficit - delivered, delivered, 0.0)
        };
        let soc = battery.soc_mwh();
        sink(
            DispatchHour {
                unmet,
                supplied,
                curtailed,
                soc,
            },
            tag,
        );
    }
    let usable = battery.usable_capacity_mwh();
    DispatchTotals {
        discharged_mwh,
        equivalent_cycles: if usable > 0.0 {
            discharged_mwh / usable
        } else {
            0.0
        },
    }
}

/// Simulates hour-by-hour dispatch of `battery` against a datacenter
/// `demand` and renewable `supply` (both MW): surplus hours charge the
/// battery, deficit hours discharge it.
///
/// The battery is reset to full before the run, modeling a commissioning
/// charge; the paper's dispatch "maximizes the battery usage to avoid
/// carbon-intensive energy", which this greedy policy implements exactly.
///
/// # Errors
///
/// Returns an alignment error if `demand` and `supply` are misaligned.
pub fn simulate_dispatch(
    battery: &mut dyn BatteryModel,
    demand: &HourlySeries,
    supply: &HourlySeries,
) -> Result<DispatchResult, TimeSeriesError> {
    demand.check_aligned(supply)?;
    let len = demand.len();
    let mut unmet = Vec::with_capacity(len);
    let mut supplied = Vec::with_capacity(len);
    let mut curtailed = Vec::with_capacity(len);
    let mut soc = Vec::with_capacity(len);
    let totals = dispatch_hours(
        battery,
        demand.values(),
        supply.values(),
        iter::repeat(()),
        |hour, ()| {
            unmet.push(hour.unmet);
            supplied.push(hour.supplied);
            curtailed.push(hour.curtailed);
            soc.push(hour.soc);
        },
    );
    let start = demand.start();
    Ok(DispatchResult {
        unmet: HourlySeries::from_values(start, unmet),
        battery_supplied: HourlySeries::from_values(start, supplied),
        curtailed: HourlySeries::from_values(start, curtailed),
        soc: HourlySeries::from_values(start, soc),
        total_discharged_mwh: totals.discharged_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    })
}

/// The sweep-relevant aggregates of a battery dispatch run, produced
/// without materializing any per-hour series.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct DispatchStats {
    /// Unmet energy and fully-covered hour count of the dispatch's grid
    /// draw (`u ≤ ce_timeseries::kernels::COVERED_EPSILON_MWH` counts as
    /// covered).
    pub deficit: DeficitStats,
    /// Weighted grid draw `Σ unmet[h] · weight[h]` — operational carbon in
    /// tons when `weight` is the hourly grid carbon intensity (t/MWh).
    pub unmet_dot: f64,
    /// Total energy delivered by the battery over the run, MWh.
    pub total_discharged_mwh: f64,
    /// Equivalent full cycles performed (energy discharged ÷ usable
    /// capacity); 0 for a zero-capacity battery.
    pub equivalent_cycles: f64,
}

/// [`simulate_dispatch`] folded into [`DispatchStats`] hour by hour
/// instead of materialized into four year-long series. Both run the same
/// kernel, so `deficit.unmet_mwh` and `unmet_dot` are the in-order
/// reductions of [`simulate_dispatch`]'s `unmet` series, bit for bit, and
/// the cycle accounting matches field for field. This is the
/// design-sweep hot path — it performs **zero heap allocations**.
///
/// The function is generic so concrete battery models are monomorphized
/// (no virtual dispatch in the inner loop); `&mut dyn BatteryModel` still
/// works for callers that need dynamic dispatch.
///
/// # Errors
///
/// Returns an alignment error if `demand`, `supply`, and `weight` are not
/// mutually aligned.
// ce:hot
pub fn simulate_dispatch_stats<B: BatteryModel + ?Sized>(
    battery: &mut B,
    demand: &HourlySeries,
    supply: &HourlySeries,
    weight: &HourlySeries,
) -> Result<DispatchStats, TimeSeriesError> {
    demand.check_aligned(supply)?;
    demand.check_aligned(weight)?;
    let mut unmet_mwh = 0.0;
    let mut covered_hours = 0usize;
    let mut unmet_dot = 0.0;
    let totals = dispatch_hours(
        battery,
        demand.values(),
        supply.values(),
        weight.values(),
        |hour, &wh| {
            let u = hour.unmet;
            unmet_mwh += u;
            if u <= COVERED_EPSILON_MWH {
                covered_hours += 1;
            }
            unmet_dot += u * wh;
        },
    );
    Ok(DispatchStats {
        deficit: DeficitStats {
            unmet_mwh,
            covered_hours,
        },
        unmet_dot,
        total_discharged_mwh: totals.discharged_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IdealBattery;
    use crate::clc::ClcBattery;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn surplus_charges_deficit_discharges() {
        let demand = HourlySeries::constant(start(), 4, 10.0);
        let supply = HourlySeries::from_values(start(), vec![20.0, 0.0, 20.0, 0.0]);
        // simulate_dispatch resets to full; use a small battery to see flow.
        let mut battery = IdealBattery::new(5.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        // Hour 0: surplus 10, battery already full (reset) → all curtailed.
        assert_eq!(r.curtailed[0], 10.0);
        // Hour 1: deficit 10, battery supplies its 5 MWh.
        assert_eq!(r.battery_supplied[1], 5.0);
        assert_eq!(r.unmet[1], 5.0);
        // Hour 2: surplus recharges the empty battery.
        assert_eq!(r.curtailed[2], 5.0);
        // Hour 3: full battery again covers half the deficit.
        assert_eq!(r.unmet[3], 5.0);
        assert_eq!(r.total_discharged_mwh, 10.0);
        assert_eq!(r.equivalent_cycles, 2.0);
    }

    #[test]
    fn zero_capacity_battery_passes_deficit_through() {
        let demand = HourlySeries::constant(start(), 3, 10.0);
        let supply = HourlySeries::from_values(start(), vec![4.0, 12.0, 0.0]);
        let mut battery = IdealBattery::new(0.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        assert_eq!(r.unmet.values(), &[6.0, 0.0, 10.0]);
        assert_eq!(r.curtailed.values(), &[0.0, 2.0, 0.0]);
        assert_eq!(r.equivalent_cycles, 0.0);
    }

    #[test]
    fn energy_conservation_with_ideal_battery() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = HourlySeries::from_fn(start(), 24, |h| if h % 2 == 0 { 22.0 } else { 0.0 });
        let mut battery = IdealBattery::new(6.0);
        battery.reset(0.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        // supply + battery start + grid(unmet) == demand + curtailed + battery end.
        let lhs = supply.sum() + 6.0 /* reset(1.0) start */ + r.unmet.sum();
        let rhs = demand.sum() + r.curtailed.sum() + r.soc[23];
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn clc_losses_reduce_delivered_energy() {
        let demand = HourlySeries::from_fn(start(), 48, |h| if h % 2 == 1 { 10.0 } else { 0.0 });
        let supply = HourlySeries::from_fn(start(), 48, |h| if h % 2 == 0 { 10.0 } else { 0.0 });
        let mut ideal = IdealBattery::new(10.0);
        let mut lossy = ClcBattery::lfp(10.0, 1.0);
        let r_ideal = simulate_dispatch(&mut ideal, &demand, &supply).unwrap();
        let r_lossy = simulate_dispatch(&mut lossy, &demand, &supply).unwrap();
        assert!(r_lossy.unmet.sum() > r_ideal.unmet.sum());
    }

    #[test]
    fn dod_floor_limits_usable_energy() {
        let demand = HourlySeries::constant(start(), 2, 100.0);
        let supply = HourlySeries::zeros(start(), 2);
        let mut shallow = ClcBattery::lfp(100.0, 0.5);
        let r = simulate_dispatch(&mut shallow, &demand, &supply).unwrap();
        // Only ~50 MWh usable (times efficiency).
        assert!((r.total_discharged_mwh - 50.0 * 0.977).abs() < 1e-9);
    }

    #[test]
    fn histogram_is_bimodal_under_full_cycling() {
        // Alternate surplus/deficit big enough to fully swing the battery:
        // Fig 16's "often fully charged or fully discharged".
        let demand = HourlySeries::from_fn(start(), 200, |h| if h % 2 == 1 { 50.0 } else { 0.0 });
        let supply = HourlySeries::from_fn(start(), 200, |h| if h % 2 == 0 { 60.0 } else { 0.0 });
        let mut battery = IdealBattery::new(20.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        let hist = r.charge_level_histogram(20.0, 10).unwrap();
        let counts = hist.counts();
        let edges = counts[0] + counts[9];
        let middle: usize = counts[1..9].iter().sum();
        assert!(
            edges > middle,
            "SoC distribution should be bimodal: {counts:?}"
        );
    }

    #[test]
    fn misaligned_series_error() {
        let demand = HourlySeries::zeros(start(), 3);
        let supply = HourlySeries::zeros(start(), 4);
        let mut battery = IdealBattery::new(1.0);
        assert!(simulate_dispatch(&mut battery, &demand, &supply).is_err());
        let weight = HourlySeries::zeros(start(), 3);
        assert!(simulate_dispatch_stats(&mut battery, &demand, &supply, &weight).is_err());
        let short_weight = HourlySeries::zeros(start(), 2);
        let supply = HourlySeries::zeros(start(), 3);
        assert!(simulate_dispatch_stats(&mut battery, &demand, &supply, &short_weight).is_err());
    }

    /// An irregular year-like fixture that swings the battery through
    /// charge, discharge, clamping, and idle regimes.
    fn stats_fixture() -> (HourlySeries, HourlySeries, HourlySeries) {
        let n = 500;
        let demand = HourlySeries::from_fn(start(), n, |h| {
            10.0 + (h as f64 * 0.7).sin() * 9.0 + (h % 13) as f64 * 0.01
        });
        let supply = HourlySeries::from_fn(start(), n, |h| {
            (h as f64 * 0.31).cos().abs() * 25.0 * ((h % 7) as f64 / 6.0)
        });
        let weight = HourlySeries::from_fn(start(), n, |h| 0.1 + (h % 24) as f64 * 0.03);
        (demand, supply, weight)
    }

    #[test]
    fn dispatch_stats_match_materialized_reductions_bitwise() {
        // The year-like fixture, and a single deficit hour that is both
        // the first and the last hour of its run.
        let fixtures = [
            stats_fixture(),
            (
                HourlySeries::constant(start(), 1, 50.0),
                HourlySeries::constant(start(), 1, 4.0),
                HourlySeries::constant(start(), 1, 0.7),
            ),
        ];
        for (demand, supply, weight) in &fixtures {
            // Ideal and CLC batteries, including zero-capacity and DoD
            // floors.
            let batteries: Vec<Box<dyn BatteryModel>> = vec![
                Box::new(IdealBattery::new(30.0)),
                Box::new(IdealBattery::new(0.0)),
                Box::new(ClcBattery::lfp(30.0, 1.0)),
                Box::new(ClcBattery::lfp(30.0, 0.6)),
                Box::new(ClcBattery::sodium_ion(15.0, 0.8)),
            ];
            for mut battery in batteries {
                let full = simulate_dispatch(battery.as_mut(), demand, supply).unwrap();
                let stats =
                    simulate_dispatch_stats(battery.as_mut(), demand, supply, weight).unwrap();
                assert_eq!(
                    stats.deficit.unmet_mwh.to_bits(),
                    full.unmet.sum().to_bits(),
                    "unmet energy diverged"
                );
                assert_eq!(
                    stats.deficit.covered_hours,
                    full.unmet.count_where(|u| u <= COVERED_EPSILON_MWH),
                    "covered hours diverged"
                );
                // The streaming fold accumulates u·w hour by hour, so the
                // oracle is a sequential in-order sum (HourlySeries::dot
                // uses the lane-chunked reduction order and would diverge
                // bitwise).
                let sequential_dot: f64 = full
                    .unmet
                    .zip_with(weight, |u, w| u * w)
                    .unwrap()
                    .values()
                    .iter()
                    .sum();
                assert_eq!(
                    stats.unmet_dot.to_bits(),
                    sequential_dot.to_bits(),
                    "weighted grid draw diverged"
                );
                assert_eq!(
                    stats.total_discharged_mwh.to_bits(),
                    full.total_discharged_mwh.to_bits()
                );
                assert_eq!(
                    stats.equivalent_cycles.to_bits(),
                    full.equivalent_cycles.to_bits()
                );
            }
        }
    }

    #[test]
    fn dispatch_stats_zero_capacity_passthrough() {
        let (demand, supply, weight) = stats_fixture();
        let mut battery = IdealBattery::new(0.0);
        let stats = simulate_dispatch_stats(&mut battery, &demand, &supply, &weight).unwrap();
        // The dispatch fold accumulates hour by hour, so compare against a
        // sequential in-order sum of the clamped deficit (the deficit
        // kernels' lane-chunked reduction order intentionally differs).
        let sequential: f64 = demand
            .zip_with(&supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .values()
            .iter()
            .sum();
        assert_eq!(stats.deficit.unmet_mwh.to_bits(), sequential.to_bits());
        assert_eq!(stats.equivalent_cycles, 0.0);
        assert_eq!(stats.total_discharged_mwh, 0.0);
    }

    #[test]
    fn soc_trace_is_within_bounds() {
        let demand = HourlySeries::from_fn(start(), 100, |h| (h % 7) as f64);
        let supply = HourlySeries::from_fn(start(), 100, |h| (h % 5) as f64);
        let mut battery = ClcBattery::lfp(10.0, 0.8);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        for s in r.soc.values() {
            assert!((2.0 - 1e-9..=10.0 + 1e-9).contains(s));
        }
    }
}
