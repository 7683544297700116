//! Energy-proportional power modeling (paper Figure 3, right).
//!
//! Server power is accurately modeled as a linear function of utilization
//! with the y-intercept at idle power (Barroso & Hölzle). At *datacenter*
//! scale the effective idle fraction is high — cooling, networking,
//! storage, and power-conversion overheads are largely load-independent —
//! which is why a ~20% utilization swing becomes only a ~4% power swing.

use ce_timeseries::HourlySeries;
use serde::{Deserialize, Serialize};

/// Idle fraction that reproduces the paper's ~4% facility power swing for
/// a ~20% utilization swing (plus event peaks) around a 0.6 mean.
pub const FACILITY_IDLE_FRACTION: f64 = 0.86;

/// Linear utilization→power model for a whole datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Facility power at 100% utilization, MW (includes PUE overhead).
    pub peak_power_mw: f64,
    /// Fraction of peak power drawn at zero utilization.
    ///
    /// The default facility-level value [`FACILITY_IDLE_FRACTION`]
    /// reproduces the paper's ~4% max-min power swing for a ~20%
    /// utilization swing around a 0.6 mean.
    pub idle_fraction: f64,
}

impl PowerModel {
    /// Instantaneous power (MW) at CPU utilization `util` in `[0, 1]`.
    ///
    /// ```
    /// use ce_datacenter::power::{PowerModel, FACILITY_IDLE_FRACTION};
    /// let m = PowerModel { peak_power_mw: 100.0, idle_fraction: FACILITY_IDLE_FRACTION };
    /// assert!(m.power_at(1.0) > m.power_at(0.0));
    /// assert_eq!(m.power_at(1.0), 100.0);
    /// ```
    pub fn power_at(&self, util: f64) -> f64 {
        let util = util.clamp(0.0, 1.0);
        self.peak_power_mw * (self.idle_fraction + (1.0 - self.idle_fraction) * util)
    }

    /// Maps an hourly utilization series to an hourly power series.
    pub fn power_series(&self, utilization: &HourlySeries) -> HourlySeries {
        utilization.map(|u| self.power_at(u))
    }

    /// Chooses `peak_power_mw` such that the *average* power over
    /// `utilization` equals `avg_power_mw`, then returns the power series.
    /// This is how site traces are calibrated to Table 1's "AVG DC Power"
    /// figures.
    pub fn calibrated_series(
        idle_fraction: f64,
        avg_power_mw: f64,
        utilization: &HourlySeries,
    ) -> (Self, HourlySeries) {
        let mean_util = utilization.mean();
        let mean_fraction = idle_fraction + (1.0 - idle_fraction) * mean_util;
        let peak = if mean_fraction > 0.0 {
            avg_power_mw / mean_fraction
        } else {
            avg_power_mw
        };
        let model = Self {
            peak_power_mw: peak,
            idle_fraction,
        };
        let series = model.power_series(utilization);
        (model, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utilization::UtilizationModel;
    use ce_timeseries::stats::pearson;
    use ce_timeseries::Timestamp;

    fn facility(peak_power_mw: f64) -> PowerModel {
        PowerModel {
            peak_power_mw,
            idle_fraction: FACILITY_IDLE_FRACTION,
        }
    }

    #[test]
    fn linearity_endpoints() {
        let m = facility(50.0);
        assert_eq!(m.power_at(0.0), 50.0 * FACILITY_IDLE_FRACTION);
        assert_eq!(m.power_at(1.0), 50.0);
        assert_eq!(m.power_at(2.0), 50.0); // clamped
        let mid = m.power_at(0.5);
        assert!(
            (mid - 50.0 * (FACILITY_IDLE_FRACTION + (1.0 - FACILITY_IDLE_FRACTION) * 0.5)).abs()
                < 1e-12
        );
    }

    #[test]
    fn utilization_and_power_are_perfectly_correlated() {
        // Fig 3 (right): at DC scale power tracks CPU utilization linearly.
        let util = UtilizationModel::meta().generate(2020, 1);
        let m = facility(100.0);
        let power = m.power_series(&util);
        let corr = pearson(util.values(), power.values()).unwrap();
        assert!(corr > 0.999, "correlation {corr}");
    }

    #[test]
    fn facility_swing_is_about_four_percent() {
        // The headline demand-side fact from §3.1.
        let util = UtilizationModel::meta().generate(2020, 1);
        let m = facility(100.0);
        let power = m.power_series(&util);
        let swing = (power.max().unwrap() - power.min().unwrap()) / power.mean();
        assert!(
            (0.02..0.06).contains(&swing),
            "facility power swing {swing:.4}"
        );
    }

    #[test]
    fn calibrated_series_hits_requested_average() {
        let util = UtilizationModel::meta().generate(2020, 2);
        let (model, series) = PowerModel::calibrated_series(FACILITY_IDLE_FRACTION, 19.0, &util);
        assert!((series.mean() - 19.0).abs() < 1e-6);
        assert!(model.peak_power_mw > 19.0);
    }

    #[test]
    fn degenerate_idle_fraction_one() {
        let m = PowerModel {
            peak_power_mw: 10.0,
            idle_fraction: 1.0,
        };
        let flat = m.power_series(&HourlySeries::from_values(
            Timestamp::start_of_year(2020),
            vec![0.0, 0.5, 1.0],
        ));
        assert_eq!(flat.values(), &[10.0, 10.0, 10.0]);
    }
}
