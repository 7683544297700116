//! Additional server capacity required by demand response (paper Fig. 12).
//!
//! Deferring work to renewable-rich hours piles computation into those
//! hours, raising the peak power the facility must support. The paper
//! measures this as extra capacity relative to the datacenter's existing
//! capacity and finds 19% to >100% extra is needed to reach 24/7 with CAS
//! alone, and 6-76% at the carbon-optimal points.

use crate::greedy::{CasConfig, GreedyScheduler};
use ce_timeseries::{HourlySeries, TimeSeriesError};

/// Extra capacity implied by a scheduled demand series, as a fraction of
/// the original peak: `(new_peak - original_peak) / original_peak`.
///
/// Returns 0.0 when the schedule fits under the original peak or for empty
/// series.
pub fn additional_capacity_fraction(original: &HourlySeries, scheduled: &HourlySeries) -> f64 {
    let (Some(orig_peak), Some(new_peak)) = (original.max(), scheduled.max()) else {
        return 0.0;
    };
    if orig_peak <= 0.0 {
        return 0.0;
    }
    ((new_peak - orig_peak) / orig_peak).max(0.0)
}

/// Finds the minimum capacity cap (MW) at which greedy scheduling with
/// flexibility `flexible_ratio` eliminates the renewable deficit entirely
/// (24/7 coverage), or `None` if no finite capacity achieves it (for
/// example, a day whose renewable energy is simply insufficient).
///
/// The search is a bisection over the capacity cap, seeded by a feasibility
/// check at an effectively unlimited cap.
///
/// # Errors
///
/// Returns an alignment error if the series are misaligned.
pub fn required_capacity_for_full_coverage(
    demand: &HourlySeries,
    supply: &HourlySeries,
    flexible_ratio: f64,
) -> Result<Option<f64>, TimeSeriesError> {
    demand.check_aligned(supply)?;
    let deficit_at = |cap: f64| -> f64 {
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: cap,
            flexible_ratio,
        });
        let result = sched
            .schedule(demand, supply)
            .expect("alignment already checked");
        result
            .shifted_demand
            .zip_with(supply, |d, s| (d - s).max(0.0))
            .expect("aligned")
            .sum()
    };

    // Quick necessary condition: every full day needs enough renewable
    // energy to cover (a) its inflexible load hour-by-hour and (b) its
    // total load in aggregate. Without it, no capacity suffices.
    let huge = demand.max().unwrap_or(0.0) * 1e3 + supply.max().unwrap_or(0.0) + 1.0;
    if deficit_at(huge) > 1e-6 {
        return Ok(None);
    }

    let mut lo = demand.max().unwrap_or(0.0); // can't go below existing peak
    let mut hi = huge;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if deficit_at(mid) > 1e-6 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn capacity_fraction_basics() {
        let orig = HourlySeries::from_values(start(), vec![10.0, 8.0]);
        let bigger = HourlySeries::from_values(start(), vec![15.0, 3.0]);
        assert!((additional_capacity_fraction(&orig, &bigger) - 0.5).abs() < 1e-12);
        let smaller = HourlySeries::from_values(start(), vec![9.0, 9.0]);
        assert_eq!(additional_capacity_fraction(&orig, &smaller), 0.0);
        let empty = HourlySeries::zeros(start(), 0);
        assert_eq!(additional_capacity_fraction(&empty, &empty), 0.0);
    }

    #[test]
    fn solar_day_with_enough_energy_has_finite_requirement() {
        // 240 MWh/day demand; solar provides 600 MWh across 12 hours.
        let demand = HourlySeries::constant(start(), 48, 10.0);
        let supply = HourlySeries::from_fn(start(), 48, |h| {
            if (6..18).contains(&(h % 24)) {
                50.0
            } else {
                0.0
            }
        });
        let cap = required_capacity_for_full_coverage(&demand, &supply, 1.0)
            .unwrap()
            .expect("feasible with full flexibility");
        // All 240 MWh must run in 12 surplus hours → ≥ 20 MW.
        assert!(cap >= 20.0 - 1e-6, "cap {cap}");
        assert!(cap <= 50.0, "cap {cap}");
    }

    #[test]
    fn infeasible_when_flexibility_is_too_low() {
        // Night hours have inflexible load but zero supply → never 24/7.
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply =
            HourlySeries::from_fn(
                start(),
                24,
                |h| {
                    if (6..18).contains(&h) {
                        100.0
                    } else {
                        0.0
                    }
                },
            );
        let result = required_capacity_for_full_coverage(&demand, &supply, 0.4).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn infeasible_when_energy_is_insufficient() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = HourlySeries::constant(start(), 24, 5.0);
        assert!(required_capacity_for_full_coverage(&demand, &supply, 1.0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn already_covered_requires_no_extra_capacity() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = HourlySeries::constant(start(), 24, 12.0);
        let cap = required_capacity_for_full_coverage(&demand, &supply, 0.1)
            .unwrap()
            .expect("trivially feasible");
        assert!(cap <= 10.0 + 1e-6);
    }
}
