//! Hourly time-series substrate for Carbon Explorer.
//!
//! Carbon Explorer consumes and produces *hourly* time series: datacenter
//! power demand, renewable generation per balancing authority, grid carbon
//! intensity, battery state of charge, and so on. The reference
//! implementation leans on pandas for this; this crate provides the small,
//! focused subset of that functionality the framework needs:
//!
//! - a simple calendar ([`time`]) with leap-year handling and hour-of-year
//!   indexing,
//! - the [`HourlySeries`] container ([`series`]) with elementwise arithmetic,
//!   zipping and mapping,
//! - summary statistics ([`stats`]): histograms, quantiles, correlation,
//! - resampling ([`resample`]): daily totals, average-day (hour-of-day)
//!   profiles, windowed slices.
//!
//! # Example
//!
//! ```
//! use ce_timeseries::{HourlySeries, Timestamp};
//!
//! // A flat 10 MW demand for the first day of 2020.
//! let demand = HourlySeries::constant(Timestamp::start_of_year(2020), 24, 10.0);
//! assert_eq!(demand.sum(), 240.0); // 240 MWh over the day
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod forecast;
pub mod kernels;
pub mod resample;
pub mod series;
pub mod stats;
pub mod time;

pub use error::TimeSeriesError;
pub use kernels::DeficitStats;
pub use series::HourlySeries;
pub use time::{Date, Timestamp, HOURS_PER_DAY};
