//! Datacenter demand substrate: Meta's US fleet (paper Table 1), diurnal
//! CPU-utilization modeling, energy-proportional power modeling, workload
//! SLO tiers (paper Figure 10), and synthetic hourly demand traces.
//!
//! The paper's demand-side inputs are production Meta traces, which are not
//! shippable. This crate substitutes a parameterized generator that
//! preserves the three demand-side facts the paper's analysis actually
//! uses (see `DESIGN.md`):
//!
//! 1. CPU utilization swings ~20% diurnally (Meta) / ~15% (Google, Borg);
//! 2. power correlates linearly with utilization, but at datacenter scale
//!    the max-min *power* swing is only ~4% — demand is nearly flat
//!    relative to renewable-supply swings;
//! 3. roughly 40% of workloads are flexible enough (24-hour SLOs) for
//!    carbon-aware scheduling.
//!
//! # Example
//!
//! ```
//! use ce_datacenter::Fleet;
//!
//! let fleet = Fleet::meta_us();
//! assert_eq!(fleet.sites().len(), 13);
//! let utah = fleet.site("UT").expect("Utah site exists");
//! let demand = utah.demand_trace(2020, 7);
//! // Demand is nearly flat: the paper reports ~4% max-min swing.
//! let swing = (demand.max().unwrap() - demand.min().unwrap()) / demand.mean();
//! assert!(swing < 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod power;
pub mod site;
pub mod trace;
pub mod utilization;
pub mod workload;

pub use fleet::Fleet;
pub use power::PowerModel;
pub use site::DataCenterSite;
pub use trace::TraceGenerator;
pub use utilization::UtilizationModel;
pub use workload::{SloTier, WorkloadMix};
