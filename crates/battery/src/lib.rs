//! The C/L/C lithium-ion battery model and year-long dispatch simulation.
//!
//! Carbon Explorer models on-site energy storage with the C/L/C model of
//! Kazhamiaka, Rosenberg & Keshav (Energy Informatics 2019): explicit
//! energy-content limits, charge/discharge efficiency losses, power limits
//! linear in battery capacity (C-rates), and a depth-of-discharge (DoD)
//! control. Parameters here are tuned to Lithium Iron Phosphate (LFP)
//! cells, the chemistry common in large stationary storage, exactly as the
//! paper does (§4.2).
//!
//! The paper stresses that the framework "is designed to include a modular
//! battery model that supports different storage technologies to be added
//! through a simple API" — that API is the [`BatteryModel`] trait;
//! [`ClcBattery`] (LFP and sodium-ion presets) and the lossless
//! [`IdealBattery`] baseline implement it.
//!
//! # Example
//!
//! ```
//! use ce_battery::{BatteryModel, ClcBattery};
//!
//! // A 40 MWh LFP battery at 100% DoD ("2 hours" for a 20 MW datacenter).
//! let mut battery = ClcBattery::lfp(40.0, 1.0);
//! let accepted = battery.charge(30.0);    // charge with 30 MW for 1 h
//! assert!(accepted > 0.0);
//! let delivered = battery.discharge(10.0); // cover a 10 MW deficit
//! assert!(delivered <= 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clc;
pub mod degradation;
pub mod lifetime;
pub mod policy;
pub mod simulate;

pub use api::{BatteryModel, IdealBattery};
pub use clc::{ClcBattery, ClcParams};
pub use degradation::{simulate_fleet_aging, DegradationState};
pub use lifetime::{cycle_life, lifetime_years, lifetime_years_capped};
pub use policy::{
    dispatch_with_policy, DispatchPolicy, GreedyPolicy, PeakShavingPolicy, ThresholdPolicy,
};
pub use simulate::{
    simulate_dispatch, simulate_dispatch_stats, simulate_dispatch_stats_until, DispatchResult,
    DispatchStats,
};
