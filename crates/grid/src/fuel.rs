//! Energy sources and their lifecycle carbon intensities (paper Table 2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An electricity-generating fuel/source type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FuelType {
    /// Onshore wind turbines.
    Wind,
    /// Photovoltaic solar.
    Solar,
    /// Hydroelectric ("Water" in the paper's Table 2).
    Water,
    /// Nuclear fission.
    Nuclear,
    /// Natural-gas turbines.
    NaturalGas,
    /// Coal-fired steam plants.
    Coal,
    /// Petroleum.
    Oil,
    /// Biofuels and other miscellaneous sources.
    Other,
}

impl FuelType {
    /// All fuel types, in Table 2 order.
    pub const ALL: [FuelType; 8] = [
        FuelType::Wind,
        FuelType::Solar,
        FuelType::Water,
        FuelType::Nuclear,
        FuelType::NaturalGas,
        FuelType::Coal,
        FuelType::Oil,
        FuelType::Other,
    ];

    /// Lifecycle carbon intensity in gCO2eq/kWh (paper Table 2).
    ///
    /// ```
    /// use ce_grid::FuelType;
    /// assert_eq!(FuelType::Wind.carbon_intensity_g_per_kwh(), 11.0);
    /// assert_eq!(FuelType::Coal.carbon_intensity_g_per_kwh(), 820.0);
    /// ```
    pub fn carbon_intensity_g_per_kwh(&self) -> f64 {
        match self {
            FuelType::Wind => 11.0,
            FuelType::Solar => 41.0,
            FuelType::Water => 24.0,
            FuelType::Nuclear => 12.0,
            FuelType::NaturalGas => 490.0,
            FuelType::Coal => 820.0,
            FuelType::Oil => 650.0,
            FuelType::Other => 230.0,
        }
    }

    /// Same intensity expressed in metric tons of CO2eq per MWh.
    pub fn carbon_intensity_t_per_mwh(&self) -> f64 {
        // g/kWh == kg/MWh; divide by 1000 for tons/MWh.
        self.carbon_intensity_g_per_kwh() / 1000.0
    }

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            FuelType::Wind => "Wind",
            FuelType::Solar => "Solar",
            FuelType::Water => "Water",
            FuelType::Nuclear => "Nuclear",
            FuelType::NaturalGas => "Natural Gas",
            FuelType::Coal => "Coal",
            FuelType::Oil => "Oil",
            FuelType::Other => "Other (Biofuels etc.)",
        }
    }
}

impl fmt::Display for FuelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_paper() {
        let expected = [
            (FuelType::Wind, 11.0),
            (FuelType::Solar, 41.0),
            (FuelType::Water, 24.0),
            (FuelType::Nuclear, 12.0),
            (FuelType::NaturalGas, 490.0),
            (FuelType::Coal, 820.0),
            (FuelType::Oil, 650.0),
            (FuelType::Other, 230.0),
        ];
        for (fuel, intensity) in expected {
            assert_eq!(fuel.carbon_intensity_g_per_kwh(), intensity);
        }
    }

    #[test]
    fn unit_conversion() {
        assert!((FuelType::Coal.carbon_intensity_t_per_mwh() - 0.82).abs() < 1e-12);
    }

    #[test]
    fn all_covers_every_variant_once() {
        let mut names: Vec<&str> = FuelType::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn carbon_free_sources_are_low_intensity() {
        // The 24/7 Carbon-Free Energy Compact's carbon-free sources.
        for fuel in FuelType::ALL {
            let carbon_free = matches!(
                fuel,
                FuelType::Wind | FuelType::Solar | FuelType::Water | FuelType::Nuclear
            );
            if carbon_free {
                assert!(fuel.carbon_intensity_g_per_kwh() < 50.0);
            } else {
                assert!(fuel.carbon_intensity_g_per_kwh() >= 230.0);
            }
        }
    }
}
