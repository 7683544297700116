//! Battery capacity fade over multi-year operation.
//!
//! The paper sizes batteries for a single representative year; over a
//! deployment's life, lithium-ion cells fade — industry convention
//! retires a cell at 80% of nameplate ("end of life"), which is exactly
//! what the cycle-life ratings in [`crate::lifetime`] count down to.
//! This module models the fade trajectory so multi-year studies can ask:
//! *how much coverage does year 8 lose to a faded battery?*

use crate::clc::{ClcBattery, ClcParams};
use serde::{Deserialize, Serialize};

/// Fraction of nameplate capacity remaining at end of life.
pub const END_OF_LIFE_FRACTION: f64 = 0.8;

/// A battery's aging state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationState {
    /// Equivalent full cycles performed so far.
    pub cycles_done: f64,
    /// Depth-of-discharge policy (drives the rated cycle life).
    pub dod: f64,
}

impl DegradationState {
    /// A fresh battery.
    ///
    /// # Panics
    ///
    /// Panics if `dod` is outside `(0, 1]`.
    pub fn fresh(dod: f64) -> Self {
        assert!(dod > 0.0 && dod <= 1.0, "DoD must be in (0, 1]");
        Self {
            cycles_done: 0.0,
            dod,
        }
    }

    /// Rated cycle life at this DoD.
    pub fn rated_cycles(&self) -> f64 {
        crate::lifetime::cycle_life(self.dod)
    }

    /// Remaining capacity as a fraction of nameplate: linear fade from
    /// 1.0 (fresh) to [`END_OF_LIFE_FRACTION`] at the rated cycle count,
    /// continuing linearly (floored at 50%) if operated past end of life.
    pub fn capacity_fraction(&self) -> f64 {
        let wear = self.cycles_done / self.rated_cycles();
        (1.0 - wear * (1.0 - END_OF_LIFE_FRACTION)).max(0.5)
    }

    /// Records additional equivalent full cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is negative.
    pub fn record_cycles(&mut self, cycles: f64) {
        assert!(cycles >= 0.0, "cycle count must be non-negative");
        self.cycles_done += cycles;
    }

    /// Builds the C/L/C battery this aged cell behaves as: same
    /// efficiencies and C-rates, faded capacity.
    pub fn aged_battery(&self, nameplate_mwh: f64) -> ClcBattery {
        let params = ClcParams::lfp(nameplate_mwh * self.capacity_fraction(), self.dod);
        ClcBattery::new(params)
    }
}

/// Simulates `years` of annual dispatch with capacity fade applied
/// between years: each year runs [`crate::simulate_dispatch`] on a
/// battery faded by the cycles of all previous years, against the same
/// demand/supply year (the paper's representative-year convention).
///
/// Returns per-year `(capacity_fraction, unmet_mwh, cycles)` tuples.
///
/// # Errors
///
/// Returns an alignment error if the series are misaligned.
pub fn simulate_fleet_aging(
    nameplate_mwh: f64,
    dod: f64,
    demand: &ce_timeseries::HourlySeries,
    supply: &ce_timeseries::HourlySeries,
    years: usize,
) -> Result<Vec<(f64, f64, f64)>, ce_timeseries::TimeSeriesError> {
    let mut state = DegradationState::fresh(dod);
    let mut results = Vec::with_capacity(years);
    for _ in 0..years {
        let mut battery = state.aged_battery(nameplate_mwh);
        let dispatch = crate::simulate::simulate_dispatch(&mut battery, demand, supply)?;
        results.push((
            state.capacity_fraction(),
            dispatch.unmet.sum(),
            dispatch.equivalent_cycles,
        ));
        state.record_cycles(dispatch.equivalent_cycles);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::{HourlySeries, Timestamp};

    #[test]
    fn fresh_battery_is_full_capacity() {
        let state = DegradationState::fresh(1.0);
        assert_eq!(state.capacity_fraction(), 1.0);
    }

    #[test]
    fn fade_reaches_eighty_percent_at_rated_cycles() {
        let mut state = DegradationState::fresh(1.0);
        state.record_cycles(3000.0);
        assert!((state.capacity_fraction() - 0.8).abs() < 1e-12);
        // Halfway there: 90%.
        let mut half = DegradationState::fresh(1.0);
        half.record_cycles(1500.0);
        assert!((half.capacity_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn shallow_dod_fades_slower_per_cycle() {
        let mut deep = DegradationState::fresh(1.0);
        let mut shallow = DegradationState::fresh(0.8);
        deep.record_cycles(1000.0);
        shallow.record_cycles(1000.0);
        assert!(shallow.capacity_fraction() > deep.capacity_fraction());
    }

    #[test]
    fn fade_floors_at_half_capacity() {
        let mut state = DegradationState::fresh(1.0);
        state.record_cycles(100_000.0);
        assert_eq!(state.capacity_fraction(), 0.5);
    }

    #[test]
    fn aged_battery_has_faded_capacity() {
        use crate::api::BatteryModel as _;
        let mut state = DegradationState::fresh(1.0);
        state.record_cycles(3000.0);
        let battery = state.aged_battery(100.0);
        assert!((battery.capacity_mwh() - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_cycles() {
        DegradationState::fresh(1.0).record_cycles(-1.0);
    }

    #[test]
    fn multi_year_simulation_degrades_service() {
        // Daily full cycling: supply surplus by day, deficit by night.
        let start = Timestamp::start_of_year(2020);
        let demand = HourlySeries::constant(start, 8784, 10.0);
        let supply = HourlySeries::from_fn(start, 8784, |h| {
            if (6..18).contains(&(h % 24)) {
                25.0
            } else {
                0.0
            }
        });
        let years = simulate_fleet_aging(130.0, 1.0, &demand, &supply, 10).unwrap();
        assert_eq!(years.len(), 10);
        // Capacity monotonically fades...
        for pair in years.windows(2) {
            assert!(pair[1].0 <= pair[0].0 + 1e-12);
        }
        // ...and unmet energy can only grow as the battery shrinks.
        assert!(years.last().unwrap().1 >= years.first().unwrap().1 - 1e-6);
        // With ~300 cycles/year, year 10 is meaningfully faded.
        assert!(years.last().unwrap().0 < 0.95);
    }
}
