//! Carbon-aware scheduling (CAS): shifting delay-tolerant computation from
//! carbon-intensive hours to carbon-free hours (paper §4.3 and §5.2).
//!
//! Three schedulers are provided:
//!
//! - [`GreedyScheduler`] — the paper's algorithm: per day, flexible load is
//!   moved from the hours with the highest carbon cost to the hours with
//!   the lowest, until the flexible budget or the capacity cap
//!   (`P_DC_MAX`) is exhausted;
//! - [`lp_schedule`] — an LP-optimal per-day placement
//!   (using the `ce-lp` simplex solver) that lower-bounds what any
//!   scheduler could achieve, used as a baseline for the greedy algorithm;
//! - [`combined`] — the paper's battery + CAS heuristic: on deficit,
//!   battery energy is used first and workloads shift only if the battery
//!   is insufficient; on surplus, deferred work runs first and the battery
//!   charges with the remainder.
//!
//! # Example
//!
//! ```
//! use ce_scheduler::{CasConfig, GreedyScheduler};
//! use ce_timeseries::{HourlySeries, Timestamp};
//!
//! let start = Timestamp::start_of_year(2020);
//! let demand = HourlySeries::constant(start, 24, 10.0);
//! // Renewables only in hours 6..18 (a solar day).
//! let supply = HourlySeries::from_fn(start, 24, |h| if (6..18).contains(&(h % 24)) { 20.0 } else { 0.0 });
//! let scheduler = GreedyScheduler::new(CasConfig { max_capacity_mw: 17.6, flexible_ratio: 0.4 });
//! let result = scheduler.schedule(&demand, &supply).unwrap();
//! // Load moved into the solar hours; total energy conserved.
//! assert!((result.shifted_demand.sum() - demand.sum()).abs() < 1e-9);
//! assert!(result.energy_shifted_mwh > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod combined;
pub mod greedy;
pub mod lp;
pub mod online;
pub mod spatial;
pub mod tiered;

pub use capacity::{additional_capacity_fraction, required_capacity_for_full_coverage};
pub use combined::{
    combined_dispatch, combined_dispatch_stats, CombinedConfig, CombinedResult, CombinedScratch,
    CombinedStats,
};
pub use greedy::{CasConfig, CostOrder, GreedyScheduler, ScheduleResult, ScheduleScratch};
pub use lp::lp_schedule;
pub use online::{online_schedule, OnlineResult};
pub use spatial::{migrate_load, MigrationConfig, MigrationResult, SpatialSite};
pub use tiered::{TierSpec, TieredScheduler};
