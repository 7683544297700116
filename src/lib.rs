//! # Carbon Explorer
//!
//! A holistic framework for designing carbon-aware datacenters — a Rust
//! reproduction of *Carbon Explorer* (Acun et al., ASPLOS 2023).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! - [`timeseries`] — hourly time-series substrate,
//! - [`lp`] — dense simplex LP solver,
//! - [`grid`] — power-grid synthesis (solar, wind, fuel mixes, curtailment),
//! - [`datacenter`] — datacenter sites, utilization, power, workloads,
//! - [`battery`] — C/L/C lithium-ion battery model and dispatch,
//! - [`scheduler`] — carbon-aware workload scheduling,
//! - [`embodied`] — embodied-carbon models,
//! - [`core`] — coverage, scenarios, design-space exploration, Pareto
//!   analysis (the paper's contribution),
//! - [`parallel`] — the deterministic fork-join primitives behind the
//!   parallel sweep engine (`CE_THREADS` controls the worker count),
//! - [`serve`] — a dependency-free HTTP query service over the engine
//!   (bounded worker pool, scenario caching, request coalescing),
//! - [`manifest`] — provenance manifests: streaming SHA-256, canonical
//!   serialization, and content-addressed, verifiable lineage records.
//!
//! # Quickstart
//!
//! ```
//! use carbon_explorer::prelude::*;
//!
//! // Synthesize a year of grid data and a datacenter demand trace, then ask
//! // what renewable coverage Meta's Utah investments achieve.
//! let grid = GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7);
//! let site = Fleet::meta_us().site("UT").expect("UT site exists").clone();
//! let demand = site.demand_trace(2020, 7);
//! let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());
//! let coverage = renewable_coverage(&demand, &supply).expect("aligned series");
//! assert!(coverage.fraction() > 0.0 && coverage.fraction() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ce_battery as battery;
pub use ce_core as core;
pub use ce_datacenter as datacenter;
pub use ce_embodied as embodied;
pub use ce_grid as grid;
pub use ce_lp as lp;
pub use ce_manifest as manifest;
pub use ce_parallel as parallel;
pub use ce_scheduler as scheduler;
pub use ce_serve as serve;
pub use ce_timeseries as timeseries;

/// Convenient glob-import surface covering the most common types.
pub mod prelude {
    pub use ce_battery::{BatteryModel, ClcBattery, ClcParams, DispatchResult, IdealBattery};
    pub use ce_core::{
        match_credits, renewable_coverage, CarbonExplorer, Coverage, DesignPoint, DesignSpace,
        EvaluatedDesign, MatchingGranularity, ParetoFrontier, Scenario, StrategyKind,
    };
    pub use ce_datacenter::{DataCenterSite, Fleet, PowerModel, UtilizationModel, WorkloadMix};
    pub use ce_embodied::EmbodiedParams;
    pub use ce_grid::{BalancingAuthority, FuelType, GridDataset};
    pub use ce_scheduler::{CasConfig, CombinedConfig, GreedyScheduler, TieredScheduler};
    pub use ce_timeseries::{HourlySeries, Timestamp};
}
