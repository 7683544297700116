//! A minimal proleptic-Gregorian calendar with hourly resolution.
//!
//! Carbon Explorer only ever needs wall-clock arithmetic at hour granularity
//! within a handful of years, so this module implements exactly that: dates,
//! timestamps (date + hour), day-of-year / hour-of-year conversions and leap
//! years. No time zones — all grid data and traces are treated as local
//! standard time, matching the EIA hourly grid monitor convention.

use crate::TimeSeriesError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hours in a civil day.
pub const HOURS_PER_DAY: usize = 24;

/// Returns `true` if `year` is a Gregorian leap year.
///
/// ```
/// assert!(ce_timeseries::time::is_leap_year(2020));
/// assert!(!ce_timeseries::time::is_leap_year(2100));
/// assert!(ce_timeseries::time::is_leap_year(2000));
/// ```
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `year` (365 or 366).
pub fn days_in_year(year: i32) -> u32 {
    if is_leap_year(year) {
        366
    } else {
        365
    }
}

/// Number of hours in `year` (8760 or 8784).
pub fn hours_in_year(year: i32) -> usize {
    // ce:allow(cast, reason = "u32 day count widening into usize; every supported target is at least 32-bit")
    days_in_year(year) as usize * HOURS_PER_DAY // ce:allow(arith, reason = "at most 366 * 24 = 8784, far below usize::MAX")
}

/// Number of days in `month` (1-based) of `year`.
///
/// # Panics
///
/// Panics if `month` is not in `1..=12`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    assert!((1..=12).contains(&month), "month must be 1..=12");
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        _ => 28,
    }
}

/// A calendar date (year, month, day).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating the month and day.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidDate`] if `month` is outside
    /// `1..=12` or `day` is outside the month's range.
    ///
    /// ```
    /// use ce_timeseries::Date;
    /// # fn main() -> Result<(), ce_timeseries::TimeSeriesError> {
    /// let d = Date::new(2020, 2, 29)?;
    /// assert_eq!(d.day_of_year(), 60);
    /// assert!(Date::new(2021, 2, 29).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, TimeSeriesError> {
        if !(1..=12).contains(&month) {
            return Err(TimeSeriesError::InvalidDate {
                what: "month must be 1..=12",
            });
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(TimeSeriesError::InvalidDate {
                what: "day out of range for month",
            });
        }
        Ok(Self { year, month, day })
    }

    /// January 1 of `year`.
    pub fn start_of_year(year: i32) -> Self {
        Self {
            year,
            month: 1,
            day: 1,
        }
    }

    /// The year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The month component (1-based).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day-of-month component (1-based).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// 1-based ordinal day within the year (Jan 1 = 1, Dec 31 = 365/366).
    pub fn day_of_year(&self) -> u32 {
        let mut doy = 0u32;
        for m in 1..self.month {
            // ce:allow(arith, reason = "at most 11 summed month lengths, total below 366")
            doy += u32::from(days_in_month(self.year, m));
        }
        // ce:allow(arith, reason = "month prefix plus day-of-month stays at or below 366")
        doy + u32::from(self.day)
    }

    /// Builds a date from a 1-based ordinal day of the year: walks the
    /// months, clamping out-of-range inputs to Jan 1 / Dec 31 instead of
    /// failing. Callers guarantee `1 <= doy <= days_in_year(year)`.
    fn from_day_of_year_clamped(year: i32, doy: u32) -> Self {
        let mut remaining = doy.max(1);
        let mut month = 1u8;
        while month < 12 {
            let dim = u32::from(days_in_month(year, month));
            if remaining <= dim {
                break;
            }
            remaining -= dim;
            month += 1;
        }
        let dim = u32::from(days_in_month(year, month));
        Self {
            year,
            month,
            day: remaining.min(dim) as u8,
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A timestamp with hourly resolution: a [`Date`] plus an hour in `0..=23`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp {
    date: Date,
    hour: u8,
}

impl Timestamp {
    /// Creates a timestamp, validating all components.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidDate`] if the date is invalid or
    /// `hour` is not in `0..=23`.
    pub fn new(year: i32, month: u8, day: u8, hour: u8) -> Result<Self, TimeSeriesError> {
        if hour >= 24 {
            return Err(TimeSeriesError::InvalidDate {
                what: "hour must be 0..=23",
            });
        }
        Ok(Self {
            date: Date::new(year, month, day)?,
            hour,
        })
    }

    /// Midnight on January 1 of `year`.
    ///
    /// ```
    /// use ce_timeseries::Timestamp;
    /// let t = Timestamp::start_of_year(2020);
    /// assert_eq!(t.hour_of_year(), 0);
    /// ```
    pub fn start_of_year(year: i32) -> Self {
        Self {
            date: Date::start_of_year(year),
            hour: 0,
        }
    }

    /// The date component.
    pub fn date(&self) -> Date {
        self.date
    }

    /// The hour-of-day component (`0..=23`).
    pub fn hour(&self) -> u8 {
        self.hour
    }

    /// Zero-based hour within the year (`0..hours_in_year(year)`).
    pub fn hour_of_year(&self) -> usize {
        // ce:allow(cast, reason = "u32 day ordinal widening into usize; every supported target is at least 32-bit")
        (self.date.day_of_year() as usize - 1) * HOURS_PER_DAY // ce:allow(arith, reason = "day ordinal is 1..=366, so the zero-based product plus hour tops out at 8783")
            + usize::from(self.hour)
    }

    /// Builds a timestamp from a zero-based hour of the year, rolling into
    /// subsequent years if `hour_of_year` exceeds the year's length.
    pub fn from_hour_of_year(mut year: i32, mut hour_of_year: usize) -> Self {
        while hour_of_year >= hours_in_year(year) {
            hour_of_year -= hours_in_year(year);
            year = year.saturating_add(1);
        }
        // ce:allow(cast, reason = "the loop above normalizes hour_of_year below 8784, so the day ordinal fits u32")
        let doy = (hour_of_year / HOURS_PER_DAY) as u32 + 1; // ce:allow(arith, reason = "a normalized day ordinal is below 366, so the 1-based form fits u32")
                                                             // ce:allow(cast, reason = "a residue modulo 24 always fits u8")
        let hour = (hour_of_year % HOURS_PER_DAY) as u8;
        Self {
            date: Date::from_day_of_year_clamped(year, doy),
            hour,
        }
    }

    /// The timestamp `hours` hours later.
    pub fn plus_hours(&self, hours: usize) -> Self {
        Self::from_hour_of_year(self.date.year(), self.hour_of_year().saturating_add(hours))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:02}:00", self.date, self.hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2020));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2021));
        assert_eq!(days_in_year(2020), 366);
        assert_eq!(days_in_year(2021), 365);
        assert_eq!(hours_in_year(2020), 8784);
        assert_eq!(hours_in_year(2021), 8760);
    }

    #[test]
    fn month_lengths() {
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2021, 12), 31);
        assert_eq!(days_in_month(2021, 4), 30);
    }

    #[test]
    #[should_panic(expected = "month must be 1..=12")]
    fn days_in_month_rejects_month_zero() {
        days_in_month(2021, 0);
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2021, 2, 29).is_err());
        assert!(Date::new(2021, 13, 1).is_err());
        assert!(Date::new(2021, 0, 1).is_err());
        assert!(Date::new(2021, 6, 0).is_err());
        assert!(Date::new(2020, 2, 29).is_ok());
    }

    #[test]
    fn day_of_year_roundtrip_whole_year() {
        for year in [2020, 2021] {
            for doy in 1..=days_in_year(year) {
                let date = Date::from_day_of_year_clamped(year, doy);
                assert_eq!(date.day_of_year(), doy);
            }
        }
    }

    #[test]
    fn hour_of_year_roundtrip() {
        for year in [2020, 2021] {
            for hoy in (0..hours_in_year(year)).step_by(7) {
                let ts = Timestamp::from_hour_of_year(year, hoy);
                assert_eq!(ts.hour_of_year(), hoy);
            }
        }
    }

    #[test]
    fn from_hour_of_year_rolls_into_next_year() {
        let ts = Timestamp::from_hour_of_year(2020, hours_in_year(2020) + 5);
        assert_eq!(ts.date().year(), 2021);
        assert_eq!(ts.hour_of_year(), 5);
    }

    #[test]
    fn plus_hours_advances() {
        let ts = Timestamp::new(2020, 12, 31, 23).unwrap();
        let next = ts.plus_hours(1);
        assert_eq!(next, Timestamp::start_of_year(2021));
        assert_eq!(ts.plus_hours(0), ts);
    }

    #[test]
    fn timestamp_rejects_bad_hour() {
        assert!(Timestamp::new(2020, 1, 1, 24).is_err());
        assert!(Timestamp::new(2020, 1, 1, 23).is_ok());
    }

    #[test]
    fn display_formats() {
        let ts = Timestamp::new(2020, 3, 7, 5).unwrap();
        assert_eq!(ts.to_string(), "2020-03-07 05:00");
        assert_eq!(ts.date().to_string(), "2020-03-07");
    }

    #[test]
    fn ordering_follows_time() {
        let a = Timestamp::new(2020, 1, 1, 5).unwrap();
        let b = Timestamp::new(2020, 1, 2, 0).unwrap();
        assert!(a < b);
    }
}
