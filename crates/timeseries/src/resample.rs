//! Resampling between hourly, daily, and hour-of-day granularities.
//!
//! The paper's supply characterization (Figure 5) needs two reductions of a
//! year-long hourly series: the *average day* (mean generation at each hour
//! of the day across the year) and the *daily totals* whose histogram shows
//! day-to-day fluctuation. Both live here, alongside day splitting and
//! profile tiling.

use crate::series::HourlySeries;
use crate::time::HOURS_PER_DAY;

/// Sums each full day (24-hour chunk); a trailing partial day is dropped.
///
/// The result is indexed by day, not by hour, so it is returned as a plain
/// `Vec` rather than an [`HourlySeries`].
///
/// ```
/// use ce_timeseries::{HourlySeries, Timestamp};
/// use ce_timeseries::resample::daily_totals;
/// let s = HourlySeries::constant(Timestamp::start_of_year(2020), 48, 2.0);
/// assert_eq!(daily_totals(&s), vec![48.0, 48.0]);
/// ```
pub fn daily_totals(series: &HourlySeries) -> Vec<f64> {
    series
        .values()
        .chunks_exact(HOURS_PER_DAY)
        .map(|day| day.iter().sum())
        .collect()
}

/// The "average day": for each hour-of-day `h` (0..24), the mean of all
/// samples that fall on hour `h`, assuming the series starts at midnight.
///
/// Returns an array of 24 means. Hours with no samples are 0.0.
pub fn average_day_profile(series: &HourlySeries) -> [f64; HOURS_PER_DAY] {
    debug_assert_eq!(
        series.start().hour(),
        0,
        "average_day_profile assumes a midnight-aligned series"
    );
    let mut sums = [0.0; HOURS_PER_DAY];
    let mut counts = [0usize; HOURS_PER_DAY];
    for (i, &v) in series.values().iter().enumerate() {
        let h = i % HOURS_PER_DAY;
        sums[h] += v;
        counts[h] += 1;
    }
    let mut out = [0.0; HOURS_PER_DAY];
    for h in 0..HOURS_PER_DAY {
        if counts[h] > 0 {
            out[h] = sums[h] / counts[h] as f64;
        }
    }
    out
}

/// Repeats a 24-hour profile across `days` days, producing an hourly series.
pub fn tile_day_profile(
    start: crate::time::Timestamp,
    profile: &[f64; HOURS_PER_DAY],
    days: usize,
) -> HourlySeries {
    HourlySeries::from_fn(start, days * HOURS_PER_DAY, |h| profile[h % HOURS_PER_DAY])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn daily_totals_drops_partial_day() {
        let s = HourlySeries::constant(start(), 50, 1.0);
        assert_eq!(daily_totals(&s), vec![24.0, 24.0]);
    }

    #[test]
    fn average_day_profile_averages_across_days() {
        // Day 1: hour index, day 2: hour index + 24 → average = index + 12.
        let s = HourlySeries::from_fn(start(), 48, |h| h as f64);
        let profile = average_day_profile(&s);
        for (h, &v) in profile.iter().enumerate() {
            assert!((v - (h as f64 + 12.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn average_day_profile_handles_partial_final_day() {
        // 25 hours: hour 0 appears twice (values 0 and 24), others once.
        let s = HourlySeries::from_fn(start(), 25, |h| h as f64);
        let profile = average_day_profile(&s);
        assert_eq!(profile[0], 12.0);
        assert_eq!(profile[1], 1.0);
    }

    #[test]
    fn tile_day_profile_repeats() {
        let mut profile = [0.0; HOURS_PER_DAY];
        profile[6] = 3.0;
        let s = tile_day_profile(start(), &profile, 2);
        assert_eq!(s.len(), 48);
        assert_eq!(s[6], 3.0);
        assert_eq!(s[30], 3.0);
        assert_eq!(s[7], 0.0);
    }
}
