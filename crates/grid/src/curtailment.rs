//! Renewable curtailment: the historical California trend behind the
//! paper's Figure 4.

use serde::{Deserialize, Serialize};

/// One year of the historical California curtailment record (Figure 4):
/// curtailed energy as a fraction of total renewable generation, split by
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurtailmentRecord {
    /// Calendar year.
    pub year: i32,
    /// Solar curtailment / total renewable generation.
    pub solar_fraction: f64,
    /// Wind curtailment / total renewable generation.
    pub wind_fraction: f64,
}

impl CurtailmentRecord {
    /// Combined curtailment fraction.
    pub fn total_fraction(&self) -> f64 {
        self.solar_fraction + self.wind_fraction
    }
}

/// The modeled historical California curtailment trend for 2015–2021
/// (paper Figure 4): curtailment grows superlinearly with deployed
/// renewables, reaching ~6% of renewable generation by 2021, dominated by
/// solar (midday oversupply — the duck curve).
pub fn historical_ca_curtailment() -> Vec<CurtailmentRecord> {
    (2015..=2021)
        .map(|year| {
            let t = (year - 2014) as f64;
            // Calibrated so 2015 ≈ 0.6% and 2021 ≈ 6%, growth accelerating
            // with installed capacity, as the CAISO record shows.
            let total = 0.006 * t.powf(1.18);
            CurtailmentRecord {
                year,
                solar_fraction: total * 0.87,
                wind_fraction: total * 0.13,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historical_trend_is_monotonic_and_reaches_six_percent() {
        let records = historical_ca_curtailment();
        assert_eq!(records.len(), 7);
        assert_eq!(records[0].year, 2015);
        assert_eq!(records[6].year, 2021);
        for pair in records.windows(2) {
            assert!(pair[1].total_fraction() > pair[0].total_fraction());
        }
        let final_total = records[6].total_fraction();
        assert!(
            (0.05..0.07).contains(&final_total),
            "2021 curtailment {final_total}"
        );
        // Fig 4: solar dominates the curtailment record.
        for r in &records {
            assert!(r.solar_fraction > 3.0 * r.wind_fraction);
        }
    }

    #[test]
    fn early_years_are_under_one_percent() {
        let records = historical_ca_curtailment();
        assert!(records[0].total_fraction() < 0.01);
    }
}
