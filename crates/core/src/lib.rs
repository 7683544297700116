//! Carbon Explorer core: renewable coverage, energy-supply scenarios,
//! holistic design-space exploration, and Pareto analysis.
//!
//! This crate is the paper's primary contribution. Given a datacenter
//! demand trace and a grid dataset (from `ce-datacenter` and `ce-grid`),
//! it evaluates *design points* — a (solar, wind) investment, a battery
//! capacity, and extra server capacity for demand response — under four
//! strategies (paper §5.2):
//!
//! 1. renewables only,
//! 2. renewables + battery,
//! 3. renewables + carbon-aware scheduling (CAS),
//! 4. renewables + battery + CAS,
//!
//! scoring each by **operational carbon** (grid energy consumed × hourly
//! grid carbon intensity) plus **embodied carbon** (amortized
//! manufacturing footprints from `ce-embodied`), and searching the space
//! exhaustively for the carbon-optimal configuration.
//!
//! # Example
//!
//! ```
//! use ce_core::{CarbonExplorer, DesignPoint, StrategyKind};
//! use ce_datacenter::Fleet;
//! use ce_grid::GridDataset;
//!
//! let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
//! let grid = GridDataset::synthesize(site.ba(), 2020, 7);
//! let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
//!
//! let design = DesignPoint {
//!     solar_mw: site.solar_mw(),
//!     wind_mw: site.wind_mw(),
//!     battery_mwh: 100.0,
//!     extra_capacity_fraction: 0.0,
//! };
//! let eval = explorer.evaluate(StrategyKind::RenewablesBattery, &design);
//! assert!(eval.coverage.fraction() > 0.5);
//! assert!(eval.total_tons() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod coverage;
pub mod design;
pub mod ensemble;
pub mod explore;
pub mod pareto;
pub mod provenance;
pub mod report;
pub mod scenario;
pub mod seasonal;
pub mod sensitivity;

pub use accounting::{match_credits, MatchingGranularity, MatchingReport};
pub use coverage::{renewable_coverage, Coverage};
pub use design::{DesignPoint, DesignSpace, StrategyKind};
pub use ensemble::{EnsembleResult, EnsembleSpec, Spread};
pub use explore::{CarbonExplorer, EvalScratch, EvaluatedDesign};
pub use pareto::ParetoFrontier;
pub use scenario::Scenario;
pub use seasonal::{monthly_coverage, MonthlyCoverage};
pub use sensitivity::{tornado, Parameter, SensitivityRow};
