//! Seasonal decomposition of renewable coverage.
//!
//! Annual coverage numbers hide *when* a datacenter falls back to grid
//! energy. The paper's supply characterization (Figure 5) shows strong
//! seasonality — solar peaks in summer, wind in winter — so the binding
//! constraint on a design is usually one season's supply valley. This
//! module breaks coverage and residual emissions down by calendar month,
//! identifying the worst month a design must be provisioned for.

use crate::coverage::Coverage;
use ce_timeseries::{kernels, HourlySeries, TimeSeriesError};
use serde::{Deserialize, Serialize};

/// Coverage statistics for one calendar month.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonthlyCoverage {
    /// Calendar month, 1-12.
    pub month: u8,
    /// Energy-weighted coverage fraction for the month.
    pub coverage: f64,
    /// Unmet (grid) energy in the month, MWh.
    pub unmet_mwh: f64,
}

/// Per-month coverage of `demand` by `supply` (no storage/scheduling),
/// in calendar order. Months absent from the series are omitted.
///
/// # Errors
///
/// Returns an alignment error if the series are misaligned.
pub fn monthly_coverage(
    demand: &HourlySeries,
    supply: &HourlySeries,
) -> Result<Vec<MonthlyCoverage>, TimeSeriesError> {
    demand.check_aligned(supply)?;
    if demand.is_empty() {
        return Ok(Vec::new());
    }
    // Month boundaries first (cheap calendar scan), then the per-month
    // reductions fan out over slices of the original series — no window
    // copies, no intermediate unmet series.
    let mut segments: Vec<(usize, usize, u8)> = Vec::new();
    let mut month_start = 0usize;
    let mut current_month = demand.timestamp(0).date().month();
    for h in 1..demand.len() {
        let month = demand.timestamp(h).date().month();
        if month != current_month {
            segments.push((month_start, h, current_month));
            month_start = h;
            current_month = month;
        }
    }
    segments.push((month_start, demand.len(), current_month));
    Ok(ce_parallel::par_map(&segments, |&(start, end, month)| {
        let d = &demand.values()[start..end];
        let s = &supply.values()[start..end];
        let stats = kernels::deficit_stats_slices(d, s);
        let demand_mwh: f64 = d.iter().sum();
        let coverage =
            Coverage::from_sums(demand_mwh, stats.unmet_mwh, stats.covered_hours, d.len());
        MonthlyCoverage {
            month,
            coverage: coverage.fraction(),
            unmet_mwh: coverage.unmet_mwh(),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn splits_on_calendar_month_boundaries() {
        // Two months: Jan (31 days) + Feb (29 days, 2020).
        let len = 24 * (31 + 29);
        let demand = HourlySeries::constant(start(), len, 10.0);
        // Full coverage in January, none in February.
        let supply = HourlySeries::from_fn(start(), len, |h| if h < 24 * 31 { 10.0 } else { 0.0 });
        let months = monthly_coverage(&demand, &supply).unwrap();
        assert_eq!(months.len(), 2);
        assert_eq!(months[0].month, 1);
        assert_eq!(months[0].coverage, 1.0);
        assert_eq!(months[1].month, 2);
        assert_eq!(months[1].coverage, 0.0);
        assert_eq!(months[1].unmet_mwh, 24.0 * 29.0 * 10.0);
    }

    #[test]
    fn partial_months_are_reported() {
        let demand = HourlySeries::constant(start(), 10, 5.0);
        let supply = HourlySeries::constant(start(), 10, 5.0);
        let months = monthly_coverage(&demand, &supply).unwrap();
        assert_eq!(months.len(), 1);
        assert_eq!(months[0].coverage, 1.0);
    }

    #[test]
    fn empty_series_yield_empty_report() {
        let empty = HourlySeries::zeros(start(), 0);
        assert!(monthly_coverage(&empty, &empty).unwrap().is_empty());
    }

    #[test]
    fn monthly_unmet_sums_to_annual() {
        let len = 24 * 366;
        let demand = HourlySeries::from_fn(start(), len, |h| 10.0 + (h % 7) as f64);
        let supply = HourlySeries::from_fn(start(), len, |h| ((h * 13) % 29) as f64);
        let months = monthly_coverage(&demand, &supply).unwrap();
        assert_eq!(months.len(), 12);
        let monthly_total: f64 = months.iter().map(|m| m.unmet_mwh).sum();
        let annual = demand
            .zip_with(&supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .sum();
        assert!((monthly_total - annual).abs() < 1e-6);
    }

    #[test]
    fn misaligned_series_error() {
        let a = HourlySeries::zeros(start(), 2);
        let b = HourlySeries::zeros(start(), 3);
        assert!(monthly_coverage(&a, &b).is_err());
    }
}
