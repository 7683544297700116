//! Renewable-energy-credit accounting at different matching granularities.
//!
//! The paper (§3.2) contrasts Net Zero — "at the end of the month (or end
//! of the year), the total amount of energy generated and credits issued
//! is equal or greater than the total amount of energy consumed" — with
//! true 24/7 hourly matching. This module generalizes both: credits are
//! matched against consumption within periods of a chosen granularity,
//! and the *residual* (unmatched) consumption is charged at the grid's
//! carbon intensity. Hourly matching recovers the paper's coverage
//! metric; annual matching recovers Net Zero.

use ce_timeseries::{HourlySeries, TimeSeriesError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The period within which generated credits may offset consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchingGranularity {
    /// Every hour stands alone — the 24/7 Carbon-Free Energy Compact.
    Hourly,
    /// Credits net out within each calendar day.
    Daily,
    /// Credits net out within each calendar month.
    Monthly,
    /// Credits net out across the whole series — classic Net Zero.
    Annual,
}

impl MatchingGranularity {
    /// All granularities, finest first.
    pub const ALL: [MatchingGranularity; 4] = [
        MatchingGranularity::Hourly,
        MatchingGranularity::Daily,
        MatchingGranularity::Monthly,
        MatchingGranularity::Annual,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MatchingGranularity::Hourly => "hourly (24/7)",
            MatchingGranularity::Daily => "daily",
            MatchingGranularity::Monthly => "monthly",
            MatchingGranularity::Annual => "annual (Net Zero)",
        }
    }
}

impl fmt::Display for MatchingGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of matching credits against consumption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchingReport {
    /// The granularity used.
    pub granularity: MatchingGranularity,
    /// Total energy consumed, MWh.
    pub consumed_mwh: f64,
    /// Consumption offset by credits within its period, MWh.
    pub matched_mwh: f64,
    /// Emissions attributed to unmatched consumption, tons CO2
    /// (unmatched hourly consumption × that hour's grid intensity).
    pub residual_emissions_tons: f64,
}

impl MatchingReport {
    /// Fraction of consumption covered by period-matched credits.
    pub fn matched_fraction(&self) -> f64 {
        if self.consumed_mwh > 0.0 {
            self.matched_mwh / self.consumed_mwh
        } else {
            1.0
        }
    }
}

/// Matches renewable `generation` credits against `demand` within periods
/// of the given granularity, attributing residual consumption to the grid
/// at `grid_intensity` (t/MWh, hourly).
///
/// Within a period, total credits offset total consumption; the unmatched
/// remainder is distributed over the period's *deficit hours*
/// proportionally to their hourly deficit, which is where grid energy is
/// physically drawn.
///
/// # Errors
///
/// Returns an alignment error if the series are misaligned.
pub fn match_credits(
    demand: &HourlySeries,
    generation: &HourlySeries,
    grid_intensity: &HourlySeries,
    granularity: MatchingGranularity,
) -> Result<MatchingReport, TimeSeriesError> {
    demand.check_aligned(generation)?;
    demand.check_aligned(grid_intensity)?;

    let consumed = demand.sum();
    let mut matched = 0.0;
    let mut residual_emissions = 0.0;

    for (start, end) in period_ranges(demand, granularity) {
        let period_demand: f64 = demand.values()[start..end].iter().sum();
        let period_gen: f64 = generation.values()[start..end].iter().sum();
        let period_matched = period_demand.min(period_gen);
        matched += period_matched;
        let unmatched = period_demand - period_matched;
        if unmatched <= 0.0 {
            continue;
        }
        // Distribute the unmatched energy over the period's deficit hours.
        let deficits: Vec<f64> = (start..end)
            .map(|h| (demand[h] - generation[h]).max(0.0))
            .collect();
        let total_deficit: f64 = deficits.iter().sum();
        if total_deficit <= 0.0 {
            // Degenerate (can only happen with zero-demand periods).
            continue;
        }
        for (offset, deficit) in deficits.iter().enumerate() {
            let share = unmatched * deficit / total_deficit;
            residual_emissions += share * grid_intensity[start + offset];
        }
    }

    Ok(MatchingReport {
        granularity,
        consumed_mwh: consumed,
        matched_mwh: matched,
        residual_emissions_tons: residual_emissions,
    })
}

/// Half-open index ranges of the matching periods covering the series.
fn period_ranges(series: &HourlySeries, granularity: MatchingGranularity) -> Vec<(usize, usize)> {
    let len = series.len();
    match granularity {
        MatchingGranularity::Hourly => (0..len).map(|h| (h, h + 1)).collect(),
        MatchingGranularity::Annual => {
            if len == 0 {
                Vec::new()
            } else {
                vec![(0, len)]
            }
        }
        MatchingGranularity::Daily => boundaries(series, |t| {
            (t.date().year(), t.date().month(), t.date().day())
        }),
        MatchingGranularity::Monthly => {
            boundaries(series, |t| (t.date().year(), t.date().month(), 0))
        }
    }
}

/// Groups consecutive hours whose key is equal.
fn boundaries<K: PartialEq>(
    series: &HourlySeries,
    key: impl Fn(ce_timeseries::Timestamp) -> K,
) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for h in 1..series.len() {
        if key(series.timestamp(h)) != key(series.timestamp(start)) {
            ranges.push((start, h));
            start = h;
        }
    }
    if !series.is_empty() {
        ranges.push((start, series.len()));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn flat_intensity(len: usize) -> HourlySeries {
        HourlySeries::constant(start(), len, 0.5)
    }

    #[test]
    fn hourly_matching_equals_coverage_semantics() {
        let demand = HourlySeries::constant(start(), 2, 10.0);
        let gen = HourlySeries::from_values(start(), vec![20.0, 0.0]);
        let report = match_credits(
            &demand,
            &gen,
            &flat_intensity(2),
            MatchingGranularity::Hourly,
        )
        .unwrap();
        assert_eq!(report.matched_mwh, 10.0);
        assert_eq!(report.matched_fraction(), 0.5);
        assert!((report.residual_emissions_tons - 5.0).abs() < 1e-12);
    }

    #[test]
    fn annual_matching_declares_net_zero_despite_hourly_deficits() {
        let demand = HourlySeries::constant(start(), 2, 10.0);
        let gen = HourlySeries::from_values(start(), vec![20.0, 0.0]);
        let report = match_credits(
            &demand,
            &gen,
            &flat_intensity(2),
            MatchingGranularity::Annual,
        )
        .unwrap();
        assert_eq!(report.matched_fraction(), 1.0);
        assert_eq!(report.residual_emissions_tons, 0.0);
    }

    #[test]
    fn granularity_refines_monotonically() {
        // Finer matching can only match less (the paper's whole point).
        let len = 24 * 62; // two months
        let demand = HourlySeries::constant(start(), len, 10.0);
        // Generation concentrated in the first month's daytime hours, with
        // annual total exceeding demand.
        let gen = HourlySeries::from_fn(start(), len, |h| {
            if h < 24 * 31 && (8..18).contains(&(h % 24)) {
                60.0
            } else {
                0.0
            }
        });
        let intensity = flat_intensity(len);
        // Coarser periods can only match more: ALL is ordered finest first.
        let mut previous = -1.0;
        for granularity in MatchingGranularity::ALL {
            let report = match_credits(&demand, &gen, &intensity, granularity).unwrap();
            assert!(
                report.matched_fraction() >= previous - 1e-12,
                "{granularity} matched less than a finer granularity"
            );
            previous = report.matched_fraction();
        }
    }

    #[test]
    fn monthly_periods_follow_the_calendar() {
        // 2020 Jan has 31 days, Feb has 29.
        let len = 24 * (31 + 29);
        let demand = HourlySeries::constant(start(), len, 1.0);
        // Generate only in January, exactly January's demand.
        let jan_hours = 24 * 31;
        let gen = HourlySeries::from_fn(start(), len, |h| if h < jan_hours { 1.0 } else { 0.0 });
        let report = match_credits(
            &demand,
            &gen,
            &flat_intensity(len),
            MatchingGranularity::Monthly,
        )
        .unwrap();
        // January fully matched, February fully unmatched.
        assert!((report.matched_mwh - jan_hours as f64).abs() < 1e-9);
    }

    #[test]
    fn daily_matching_moves_solar_within_the_day() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let gen = HourlySeries::from_fn(
            start(),
            24,
            |h| if (8..16).contains(&h) { 30.0 } else { 0.0 },
        );
        let hourly = match_credits(
            &demand,
            &gen,
            &flat_intensity(24),
            MatchingGranularity::Hourly,
        )
        .unwrap();
        let daily = match_credits(
            &demand,
            &gen,
            &flat_intensity(24),
            MatchingGranularity::Daily,
        )
        .unwrap();
        assert!(daily.matched_fraction() > hourly.matched_fraction());
        assert_eq!(daily.matched_mwh, daily.consumed_mwh); // 240 generated = 240 consumed
    }

    #[test]
    fn residual_uses_hourly_intensity() {
        let demand = HourlySeries::constant(start(), 2, 10.0);
        let gen = HourlySeries::from_values(start(), vec![10.0, 0.0]);
        let intensity = HourlySeries::from_values(start(), vec![0.1, 0.9]);
        let report = match_credits(&demand, &gen, &intensity, MatchingGranularity::Hourly).unwrap();
        // The deficit hour carries 0.9 t/MWh.
        assert!((report.residual_emissions_tons - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_fully_matched() {
        let empty = HourlySeries::zeros(start(), 0);
        let report = match_credits(&empty, &empty, &empty, MatchingGranularity::Annual).unwrap();
        assert_eq!(report.matched_fraction(), 1.0);
    }

    #[test]
    fn misaligned_inputs_error() {
        let demand = HourlySeries::zeros(start(), 2);
        let gen = HourlySeries::zeros(start(), 3);
        assert!(match_credits(&demand, &gen, &demand, MatchingGranularity::Hourly).is_err());
    }
}
