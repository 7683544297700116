//! Simple time-series forecasting for renewable supply and demand.
//!
//! The paper's discussion section notes that "time-series analysis
//! accurately forecasts renewable supplies and datacenter demands for
//! energy. Forecasts permit optimizing schedules of flexible jobs in
//! response to energy supply." Carbon Explorer's offline analyses use
//! oracle (actual) data; this module supplies the forecasting baselines a
//! deployed scheduler would use instead: [`seasonal_naive`], whose value
//! at `t` is the value at `t − 24 h` (it carries the diurnal shape, the
//! standard solar baseline).

use crate::series::HourlySeries;
use crate::time::HOURS_PER_DAY;
use crate::TimeSeriesError;

/// Seasonal-naive forecast: hour `t` of the forecast equals the observed
/// value 24 hours before it (recursively for horizons beyond one day).
///
/// # Errors
///
/// Returns [`TimeSeriesError::Empty`] if `history` is shorter than one day.
pub fn seasonal_naive(
    history: &HourlySeries,
    horizon: usize,
) -> Result<HourlySeries, TimeSeriesError> {
    if history.len() < HOURS_PER_DAY {
        return Err(TimeSeriesError::Empty);
    }
    // The final 24 observed hours end exactly one day before the forecast
    // origin, so forecast hour `h` repeats `last_day[h % 24]` — the value
    // observed 24 (or 48, 72, ...) hours earlier at the same hour of day.
    let last_day = &history.values()[history.len() - HOURS_PER_DAY..];
    Ok(HourlySeries::from_fn(
        history.start().plus_hours(history.len()),
        horizon,
        |h| last_day[h % HOURS_PER_DAY],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn diurnal(days: usize) -> HourlySeries {
        HourlySeries::from_fn(start(), days * 24, |h| {
            10.0 + 5.0 * ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
        })
    }

    #[test]
    fn seasonal_naive_repeats_yesterday() {
        let history = diurnal(3);
        let forecast = seasonal_naive(&history, 24).unwrap();
        // A perfectly periodic signal is forecast exactly.
        let actual = HourlySeries::from_fn(start().plus_hours(72), 24, |h| {
            10.0 + 5.0 * (((h + 72) % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
        });
        assert_eq!(forecast, actual);
        assert!(seasonal_naive(&HourlySeries::zeros(start(), 10), 4).is_err());
    }

    #[test]
    fn seasonal_naive_handles_partial_day_history() {
        // 30 hours of history: the forecast phase must stay aligned.
        let history = HourlySeries::from_fn(start(), 30, |h| (h % 24) as f64);
        let forecast = seasonal_naive(&history, 24).unwrap();
        // Forecast hour 0 corresponds to hour-of-day 6.
        assert_eq!(forecast[0], 6.0);
        assert_eq!(forecast[17], 23.0);
        assert_eq!(forecast[18], 0.0);
    }

    #[test]
    fn seasonal_beats_persistence_on_diurnal_signals() {
        let full = diurnal(4);
        let history = full.window(0, 72).unwrap();
        let actual = full.window(72, 24).unwrap();
        let seasonal = seasonal_naive(&history, 24).unwrap();
        // Persistence: every hour repeats the last observed value.
        let last = history[history.len() - 1];
        let seasonal_error: f64 = (0..24).map(|h| (seasonal[h] - actual[h]).abs()).sum();
        let flat_error: f64 = (0..24).map(|h| (last - actual[h]).abs()).sum();
        assert!(seasonal_error < flat_error);
    }
}
