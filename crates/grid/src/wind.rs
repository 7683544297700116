//! Synthetic wind generation: a two-timescale AR(1) wind-speed process
//! through a standard turbine power curve.
//!
//! The slow (synoptic, ~3-day) component models weather fronts and is what
//! produces the multi-day near-zero "supply valleys" the paper highlights
//! for Oregon/BPAT; the fast (~6-hour) component adds hourly texture. The
//! cubic region of the power curve amplifies speed variance into the heavy
//! day-to-day generation variance visible in Figure 5's histograms.

use ce_timeseries::time::hours_in_year;
use ce_timeseries::{HourlySeries, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Geographic-diversity floor: a balancing authority aggregates farms
/// spread over hundreds of kilometres, so BA-level generation almost never
/// reaches exactly zero even when the regional average speed is becalmed —
/// somewhere, some turbines are spinning. This floor (0.2% of nameplate)
/// is what makes very high coverage targets *expensively finite* rather
/// than impossible, matching the long-but-finite tail of the paper's
/// Figure 8.
pub const DIVERSITY_FLOOR: f64 = 0.002;

/// Turbine cut-in speed, m/s: below this the rotor does not turn.
pub const CUT_IN_SPEED: f64 = 3.0;
/// Rated speed, m/s: output saturates at nameplate above this.
pub const RATED_SPEED: f64 = 12.0;
/// Cut-out speed, m/s: turbines feather and stop to protect themselves.
pub const CUT_OUT_SPEED: f64 = 25.0;

/// Synthetic wind-farm model.
#[derive(Debug, Clone, PartialEq)]
pub struct WindModel {
    /// Nameplate capacity, MW.
    pub capacity_mw: f64,
    /// Long-run mean wind speed at hub height, m/s.
    pub mean_speed: f64,
    /// Relative amplitude of the synoptic (multi-day) speed component.
    /// At 0.85 (BPAT) the speed regularly collapses below cut-in for whole
    /// days; at 0.45 (ERCO) valleys are shallow.
    pub synoptic_amplitude: f64,
}

/// Fraction of nameplate output at wind speed `v` (standard power curve).
///
/// ```
/// use ce_grid::wind::power_curve_fraction;
/// assert_eq!(power_curve_fraction(2.0), 0.0);   // below cut-in
/// assert_eq!(power_curve_fraction(12.0), 1.0);  // rated
/// assert_eq!(power_curve_fraction(30.0), 0.0);  // cut-out
/// ```
pub fn power_curve_fraction(v: f64) -> f64 {
    if !(CUT_IN_SPEED..CUT_OUT_SPEED).contains(&v) {
        0.0
    } else if v >= RATED_SPEED {
        1.0
    } else {
        let num = v.powi(3) - CUT_IN_SPEED.powi(3);
        let den = RATED_SPEED.powi(3) - CUT_IN_SPEED.powi(3);
        num / den
    }
}

impl WindModel {
    /// Synthesizes a full year of hourly generation (MW), deterministically
    /// for a given `seed`.
    pub fn generate(&self, year: i32, seed: u64) -> HourlySeries {
        let hours = hours_in_year(year);
        let mut rng = StdRng::seed_from_u64(seed);

        // Two AR(1) components with unit stationary variance.
        let phi_slow = (-1.0f64 / 48.0).exp(); // ~2-day correlation time
        let phi_fast = (-1.0f64 / 6.0).exp(); // ~6-hour correlation time
        let norm_slow = (1.0 - phi_slow * phi_slow).sqrt();
        let norm_fast = (1.0 - phi_fast * phi_fast).sqrt();
        let mut slow = 0.0f64;
        let mut fast = 0.0f64;

        let mut speeds = Vec::with_capacity(hours);
        for h in 0..hours {
            let eps_s: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            let eps_f: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            slow = phi_slow * slow + norm_slow * eps_s * 1.2;
            fast = phi_fast * fast + norm_fast * eps_f * 1.2;
            // Mild seasonal boost (winter windier than summer in the US).
            let season = 0.12 * (2.0 * std::f64::consts::PI * h as f64 / hours as f64).cos();
            // The synoptic component is multiplicative (lognormal-like):
            // regional wind speed distributions are right-skewed, with a
            // compressed low tail — whole becalmed days are rare events,
            // not a fat fraction of the year.
            let speed = self.mean_speed
                * (self.synoptic_amplitude * 0.7 * slow).exp()
                * (1.0 + 0.15 * fast + season);
            speeds.push(speed.max(0.0));
        }

        HourlySeries::from_fn(Timestamp::start_of_year(year), hours, |h| {
            let frac = DIVERSITY_FLOOR + (1.0 - DIVERSITY_FLOOR) * power_curve_fraction(speeds[h]);
            self.capacity_mw * frac
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::resample::daily_totals;

    fn bpat_like() -> WindModel {
        WindModel {
            capacity_mw: 100.0,
            mean_speed: 7.0,
            synoptic_amplitude: 0.85,
        }
    }

    fn swpp_like() -> WindModel {
        WindModel {
            capacity_mw: 100.0,
            mean_speed: 8.5,
            synoptic_amplitude: 0.50,
        }
    }

    #[test]
    fn power_curve_shape() {
        assert_eq!(power_curve_fraction(0.0), 0.0);
        assert_eq!(power_curve_fraction(2.9), 0.0);
        assert!(power_curve_fraction(6.0) > 0.0);
        assert!(power_curve_fraction(6.0) < power_curve_fraction(9.0));
        assert_eq!(power_curve_fraction(15.0), 1.0);
        assert_eq!(power_curve_fraction(24.9), 1.0);
        assert_eq!(power_curve_fraction(25.0), 0.0);
    }

    #[test]
    fn power_curve_is_monotone_below_rated() {
        let mut prev = 0.0;
        let mut v = CUT_IN_SPEED;
        while v <= RATED_SPEED {
            let p = power_curve_fraction(v);
            assert!(p >= prev);
            prev = p;
            v += 0.1;
        }
    }

    #[test]
    fn generation_respects_nameplate() {
        let series = bpat_like().generate(2020, 1);
        assert_eq!(series.len(), 8784);
        assert!(series.min().unwrap() >= 0.0);
        assert!(series.max().unwrap() <= 100.0 + 1e-9);
    }

    #[test]
    fn capacity_factor_is_realistic() {
        let cf = swpp_like().generate(2020, 2).mean() / 100.0;
        assert!((0.25..0.60).contains(&cf), "capacity factor {cf}");
    }

    #[test]
    fn high_synoptic_amplitude_creates_near_zero_days() {
        let series = bpat_like().generate(2020, 3);
        // A daily mean under 2 MW is a daily total under 48 MWh.
        let daily = daily_totals(&series);
        let calm_days = daily.iter().filter(|&&d| d < 48.0).count();
        assert!(
            calm_days >= 5,
            "expected whole near-zero days in a BPAT-like year, found {calm_days}"
        );
    }

    #[test]
    fn valleys_are_shallower_in_steady_wind_regions() {
        // Compare day-to-day variability of BPAT-like vs SWPP-like regions.
        // Coefficient of variation (population std dev / mean) of the
        // daily totals.
        let cv = |daily: Vec<f64>| {
            let n = daily.len() as f64;
            let mean = daily.iter().sum::<f64>() / n;
            let var = daily.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
            var.sqrt() / mean
        };
        let cv_volatile = cv(daily_totals(&bpat_like().generate(2020, 4)));
        let cv_steady = cv(daily_totals(&swpp_like().generate(2020, 4)));
        assert!(
            cv_volatile > cv_steady,
            "volatile {cv_volatile:.3} should exceed steady {cv_steady:.3}"
        );
    }

    #[test]
    fn wind_blows_at_night() {
        // Unlike solar, a meaningful share of wind energy arrives at night —
        // this is what lets wind regions exceed ~50% coverage.
        let series = swpp_like().generate(2020, 5);
        let night_energy: f64 = series
            .values()
            .iter()
            .enumerate()
            .filter(|(h, _)| matches!(h % 24, 0..=5 | 22..=23))
            .map(|(_, &v)| v)
            .sum();
        assert!(night_energy > 0.2 * series.sum());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = bpat_like().generate(2020, 42);
        let b = bpat_like().generate(2020, 42);
        assert_eq!(a, b);
        assert_ne!(a, bpat_like().generate(2020, 43));
    }
}
