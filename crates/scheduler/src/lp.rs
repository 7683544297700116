//! LP-optimal day scheduling: the baseline that bounds the greedy
//! algorithm from below.
//!
//! Per day, the placement of flexible load that minimizes the renewable
//! deficit is a small linear program:
//!
//! ```text
//! minimize    Σ_h u_h                          (total unmet energy)
//! subject to  Σ_h f_h = F                      (flexible energy conserved)
//!             f_h + base_h ≤ P_DC_MAX          (capacity cap)
//!             u_h ≥ base_h + f_h − supply_h    (deficit definition)
//!             f_h, u_h ≥ 0
//! ```
//!
//! with `base_h` the inflexible load and `F` the day's flexible energy.

use crate::greedy::CasConfig;
use ce_lp::{LinearProgram, LpError, Relation};
use ce_timeseries::time::HOURS_PER_DAY;
use ce_timeseries::{HourlySeries, TimeSeriesError};

/// Errors from LP-based scheduling.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpScheduleError {
    /// The underlying series were misaligned.
    Series(TimeSeriesError),
    /// The per-day LP failed (should not happen for well-formed inputs).
    Solver(LpError),
}

impl std::fmt::Display for LpScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Series(e) => write!(f, "series error: {e}"),
            Self::Solver(e) => write!(f, "lp solver error: {e}"),
        }
    }
}

impl std::error::Error for LpScheduleError {}

impl From<TimeSeriesError> for LpScheduleError {
    fn from(e: TimeSeriesError) -> Self {
        Self::Series(e)
    }
}

impl From<LpError> for LpScheduleError {
    fn from(e: LpError) -> Self {
        Self::Solver(e)
    }
}

/// Optimally re-places flexible load within each full day to minimize the
/// renewable deficit, subject to the capacity cap. Returns the scheduled
/// demand series (partial trailing days are left untouched).
///
/// # Errors
///
/// Returns [`LpScheduleError::Series`] for misaligned inputs or
/// [`LpScheduleError::Solver`] if a day's LP fails.
///
/// # Panics
///
/// Panics if `config.flexible_ratio` is outside `[0, 1]`.
pub fn lp_schedule(
    demand: &HourlySeries,
    supply: &HourlySeries,
    config: CasConfig,
) -> Result<HourlySeries, LpScheduleError> {
    assert!(
        (0.0..=1.0).contains(&config.flexible_ratio),
        "flexible ratio must be in [0, 1]"
    );
    demand.check_aligned(supply)?;
    let mut out = demand.values().to_vec();
    let full_days = demand.len() / HOURS_PER_DAY;
    for day in 0..full_days {
        let base_idx = day * HOURS_PER_DAY;
        let d = &demand.values()[base_idx..base_idx + HOURS_PER_DAY];
        let s = &supply.values()[base_idx..base_idx + HOURS_PER_DAY];
        let scheduled = schedule_one_day(d, s, config)?;
        out[base_idx..base_idx + HOURS_PER_DAY].copy_from_slice(&scheduled);
    }
    Ok(HourlySeries::from_values(demand.start(), out))
}

fn schedule_one_day(
    demand: &[f64],
    supply: &[f64],
    config: CasConfig,
) -> Result<Vec<f64>, LpScheduleError> {
    let n = demand.len();
    let base: Vec<f64> = demand
        .iter()
        .map(|&d| d * (1.0 - config.flexible_ratio))
        .collect();
    let flexible_total: f64 = demand.iter().map(|&d| d * config.flexible_ratio).sum();
    if flexible_total <= 1e-12 {
        return Ok(demand.to_vec());
    }

    // Variables: f_0..f_{n-1}, u_0..u_{n-1}. Minimize Σ u_h.
    let mut objective = vec![0.0; 2 * n];
    for u in &mut objective[n..] {
        *u = 1.0;
    }
    let mut lp = LinearProgram::minimize(objective);

    // Σ f_h = flexible_total.
    let mut conserve = vec![0.0; 2 * n];
    for f in conserve[..n].iter_mut() {
        *f = 1.0;
    }
    lp.add_constraint(conserve, Relation::Eq, flexible_total);

    for h in 0..n {
        // f_h ≤ cap − base_h (capacity).
        let mut cap_row = vec![0.0; 2 * n];
        cap_row[h] = 1.0;
        lp.add_constraint(
            cap_row,
            Relation::Le,
            (config.max_capacity_mw - base[h]).max(0.0),
        );
        // u_h − f_h ≥ base_h − supply_h  ⇔  u_h ≥ base_h + f_h − supply_h.
        let mut deficit_row = vec![0.0; 2 * n];
        deficit_row[n + h] = 1.0;
        deficit_row[h] = -1.0;
        lp.add_constraint(deficit_row, Relation::Ge, base[h] - supply[h]);
    }

    let solution = lp.solve()?;
    Ok((0..n).map(|h| base[h] + solution.value(h)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyScheduler;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn deficit(demand: &HourlySeries, supply: &HourlySeries) -> f64 {
        demand
            .zip_with(supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .sum()
    }

    fn solar_supply(len: usize) -> HourlySeries {
        HourlySeries::from_fn(start(), len, |h| {
            if (7..17).contains(&(h % 24)) {
                30.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn lp_conserves_energy_and_respects_cap() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = solar_supply(24);
        let config = CasConfig {
            max_capacity_mw: 22.0,
            flexible_ratio: 0.6,
        };
        let scheduled = lp_schedule(&demand, &supply, config).unwrap();
        assert!((scheduled.sum() - demand.sum()).abs() < 1e-6);
        for &v in scheduled.values() {
            assert!(v <= 22.0 + 1e-6);
        }
    }

    #[test]
    fn lp_is_at_least_as_good_as_greedy() {
        for (cap, fwr) in [(15.0, 0.2), (20.0, 0.4), (30.0, 1.0), (12.0, 0.8)] {
            let demand = HourlySeries::from_fn(start(), 48, |h| 8.0 + ((h * 3) % 5) as f64);
            let supply = solar_supply(48);
            let config = CasConfig {
                max_capacity_mw: cap,
                flexible_ratio: fwr,
            };
            let lp = lp_schedule(&demand, &supply, config).unwrap();
            let greedy = GreedyScheduler::new(config)
                .schedule(&demand, &supply)
                .unwrap()
                .shifted_demand;
            assert!(
                deficit(&lp, &supply) <= deficit(&greedy, &supply) + 1e-6,
                "cap {cap} fwr {fwr}: lp {} > greedy {}",
                deficit(&lp, &supply),
                deficit(&greedy, &supply)
            );
        }
    }

    #[test]
    fn greedy_is_near_optimal_on_paper_like_inputs() {
        // The paper uses the greedy algorithm; confirm it is within a few
        // percent of the LP optimum on a realistic solar-day shape.
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = solar_supply(24);
        let config = CasConfig {
            max_capacity_mw: 25.0,
            flexible_ratio: 0.4,
        };
        let lp = lp_schedule(&demand, &supply, config).unwrap();
        let greedy = GreedyScheduler::new(config)
            .schedule(&demand, &supply)
            .unwrap()
            .shifted_demand;
        let lp_def = deficit(&lp, &supply);
        let greedy_def = deficit(&greedy, &supply);
        assert!(
            greedy_def <= lp_def * 1.05 + 1e-6,
            "greedy {greedy_def} vs lp {lp_def}"
        );
    }

    #[test]
    fn zero_flexibility_is_identity() {
        let demand = HourlySeries::from_fn(start(), 24, |h| h as f64);
        let supply = HourlySeries::zeros(start(), 24);
        let config = CasConfig {
            max_capacity_mw: 100.0,
            flexible_ratio: 0.0,
        };
        assert_eq!(lp_schedule(&demand, &supply, config).unwrap(), demand);
    }

    #[test]
    fn misalignment_is_an_error() {
        let demand = HourlySeries::zeros(start(), 24);
        let supply = HourlySeries::zeros(start(), 23);
        let config = CasConfig {
            max_capacity_mw: 1.0,
            flexible_ratio: 0.4,
        };
        assert!(matches!(
            lp_schedule(&demand, &supply, config),
            Err(LpScheduleError::Series(_))
        ));
    }
}
