//! Embodied carbon of lithium-ion batteries (paper §5.1).
//!
//! The manufacturing footprint of 74-134 kgCO2 per kWh of capacity splits
//! into three steps the paper enumerates: upstream battery materials
//! (59 kg/kWh, 44-80% of total), cell production and assembly (0-60 kg/kWh
//! depending on renewable energy use during production), and end-of-life
//! processing/recycling (15 kg/kWh).

use serde::{Deserialize, Serialize};

/// Battery manufacturing-carbon coefficients, kgCO2 per kWh of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryEmbodied {
    /// Upstream materials production (paper: 59 kg/kWh).
    pub materials_kg_per_kwh: f64,
    /// Cell production and assembly (paper: 0-60 kg/kWh).
    pub assembly_kg_per_kwh: f64,
    /// End-of-life processing and recycling (paper: 15 kg/kWh).
    pub end_of_life_kg_per_kwh: f64,
    /// Calendar-aging cap on lifetime, years, applied on top of the
    /// cycle-life model (see `ce_battery::lifetime`).
    pub calendar_life_cap_years: f64,
}

impl BatteryEmbodied {
    /// Paper defaults: 59 + 30 + 15 = 104 kg/kWh (assembly at the midpoint
    /// of its 0-60 range). The calendar cap is 20 years: the paper
    /// computes lifetime from discharge cycles (up to 27 years at 60%
    /// DoD) but notes "other degradation factors would come in to play"
    /// first.
    pub fn paper_defaults() -> Self {
        Self {
            materials_kg_per_kwh: 59.0,
            assembly_kg_per_kwh: 30.0,
            end_of_life_kg_per_kwh: 15.0,
            calendar_life_cap_years: 20.0,
        }
    }

    /// Total manufacturing footprint, kgCO2 per kWh of capacity.
    pub fn total_kg_per_kwh(&self) -> f64 {
        self.materials_kg_per_kwh + self.assembly_kg_per_kwh + self.end_of_life_kg_per_kwh
    }

    /// Full (unamortized) manufacturing footprint of a battery, tons CO2.
    pub fn manufacturing_tons(&self, capacity_mwh: f64) -> f64 {
        // capacity MWh → kWh (×1000), kg → tons (÷1000): they cancel.
        capacity_mwh * self.total_kg_per_kwh()
    }

    /// Embodied carbon attributable to one year of operating a battery of
    /// `capacity_mwh` at depth-of-discharge `dod`, performing
    /// `cycles_per_year` equivalent full cycles: the manufacturing
    /// footprint divided by the (cycle-limited, calendar-capped) lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `dod` is outside `(0, 1]` or `cycles_per_year` is
    /// negative (propagated from `ce_battery::lifetime`).
    pub fn amortized_tons_per_year(
        &self,
        capacity_mwh: f64,
        dod: f64,
        cycles_per_year: f64,
    ) -> f64 {
        if capacity_mwh <= 0.0 {
            return 0.0;
        }
        let years =
            ce_battery::lifetime_years_capped(dod, cycles_per_year, self.calendar_life_cap_years);
        self.manufacturing_tons(capacity_mwh) / years
    }
}

impl Default for BatteryEmbodied {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper defaults with assembly at `kg` per kWh: 0 when powered
    /// entirely by renewables, 60 when fully carbon-intensive.
    fn with_assembly(kg: f64) -> BatteryEmbodied {
        BatteryEmbodied {
            assembly_kg_per_kwh: kg,
            ..BatteryEmbodied::paper_defaults()
        }
    }

    #[test]
    fn total_is_within_published_range() {
        assert_eq!(with_assembly(0.0).total_kg_per_kwh(), 74.0);
        assert_eq!(with_assembly(60.0).total_kg_per_kwh(), 134.0);
        let default = BatteryEmbodied::paper_defaults().total_kg_per_kwh();
        assert!((74.0..=134.0).contains(&default));
    }

    #[test]
    fn materials_share_is_within_range() {
        // Paper: materials are 44-80% of total.
        for params in [
            BatteryEmbodied::paper_defaults(),
            with_assembly(0.0),
            with_assembly(60.0),
        ] {
            let share = params.materials_kg_per_kwh / params.total_kg_per_kwh();
            assert!((0.44..=0.80).contains(&share), "materials share {share}");
        }
    }

    #[test]
    fn manufacturing_tons_scale() {
        let b = BatteryEmbodied::paper_defaults();
        // 1 MWh = 1000 kWh at 104 kg/kWh = 104 tons.
        assert!((b.manufacturing_tons(1.0) - 104.0).abs() < 1e-9);
        // A 1200 MWh Moss Landing-scale battery ≈ 125 kt.
        let moss = b.manufacturing_tons(1200.0);
        assert!((100_000.0..150_000.0).contains(&moss));
    }

    #[test]
    fn amortization_divides_by_lifetime() {
        let b = BatteryEmbodied::paper_defaults();
        // Daily full cycles at 100% DoD → ~8.2-year life.
        let yearly = b.amortized_tons_per_year(100.0, 1.0, 365.0);
        let expected = b.manufacturing_tons(100.0) / (3000.0 / 365.0);
        assert!((yearly - expected).abs() < 1e-9);
    }

    #[test]
    fn idle_battery_amortizes_over_calendar_cap() {
        let b = BatteryEmbodied::paper_defaults();
        let yearly = b.amortized_tons_per_year(100.0, 1.0, 0.0);
        assert!((yearly - b.manufacturing_tons(100.0) / 20.0).abs() < 1e-9);
    }

    #[test]
    fn lower_dod_spreads_carbon_over_more_cycles() {
        let b = BatteryEmbodied::paper_defaults();
        let deep = b.amortized_tons_per_year(100.0, 1.0, 365.0);
        let shallow = b.amortized_tons_per_year(100.0, 0.8, 365.0);
        assert!(shallow < deep);
    }

    #[test]
    fn zero_capacity_is_free() {
        let b = BatteryEmbodied::paper_defaults();
        assert_eq!(b.amortized_tons_per_year(0.0, 1.0, 100.0), 0.0);
    }
}
