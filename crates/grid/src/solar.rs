//! Physically-motivated synthetic solar generation.
//!
//! Output is driven by solar geometry — declination, hour angle, solar
//! elevation — so the synthesized series has the two properties the paper's
//! analysis needs with no tuning: generation is exactly zero at night
//! (capping solar-only 24/7 coverage near 50%) and summer days out-produce
//! winter days at US latitudes. An AR(1) cloud-attenuation process adds
//! realistic day-to-day variability.

use ce_timeseries::time::{days_in_year, hours_in_year, HOURS_PER_DAY};
use ce_timeseries::{HourlySeries, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic photovoltaic plant model.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarModel {
    /// Nameplate capacity, MW.
    pub capacity_mw: f64,
    /// Site latitude, degrees north.
    pub latitude_deg: f64,
    /// Mean cloud attenuation in `[0, 1)`: 0 is permanently clear sky.
    pub cloudiness: f64,
}

/// Solar declination (radians) for a 1-based day of year (Cooper's formula).
pub fn declination_rad(day_of_year: u32) -> f64 {
    (23.45f64).to_radians()
        * (360.0 / 365.0 * (284.0 + day_of_year as f64))
            .to_radians()
            .sin()
}

/// Clear-sky output fraction of nameplate capacity (0..1) given the sine of
/// the solar elevation. Includes a simple air-mass attenuation so output
/// rises steeply after sunrise, as real PV does.
pub fn clear_sky_fraction(sin_elev: f64) -> f64 {
    if sin_elev <= 0.0 {
        return 0.0;
    }
    // Kasten-Young-flavoured attenuation: transmission ~ 0.7^(AM^0.678).
    let air_mass = 1.0 / (sin_elev + 0.05);
    sin_elev * 0.7f64.powf(air_mass.powf(0.678)) / 0.7
}

impl SolarModel {
    /// Synthesizes a full year of hourly generation (MW), deterministically
    /// for a given `seed`.
    ///
    /// The sine of the solar elevation is
    /// `sin(lat)·sin(decl) + cos(lat)·cos(decl)·cos(hour angle)`. Each
    /// factor is computed where it varies: the latitude's once per call,
    /// the declination's once per day and the hour angle's once per hour
    /// of day, so an hour costs only the clear-sky attenuation.
    pub fn generate(&self, year: i32, seed: u64) -> HourlySeries {
        let mut rng = StdRng::seed_from_u64(seed);

        // Daily cloud state: AR(1) across days, so overcast spells span
        // consecutive days the way weather fronts do.
        let phi_day: f64 = 0.6;
        let norm = (1.0 - phi_day * phi_day).sqrt();
        // Map state to attenuation centered on `cloudiness`. The
        // worst-case attenuation scales with the climate: a high-desert
        // site (low cloudiness) never loses a whole day to overcast the
        // way the Pacific Northwest does — this is what lets sunny hybrid
        // regions reach 100% coverage with a night-sized battery, as the
        // paper finds for NM/TX.
        let worst = (0.25 + 2.2 * self.cloudiness).min(0.95);
        let mut cloud_state = 0.0f64;

        let lat = self.latitude_deg.to_radians();
        let (lat_sin, lat_cos) = (lat.sin(), lat.cos());
        // Cosine of the hour angle at each mid-hour sun position.
        let hour_angle_cos: [f64; HOURS_PER_DAY] = std::array::from_fn(|hod| {
            let hour = hod as f64 + 0.5;
            (15.0 * (hour - 12.0)).to_radians().cos()
        });

        let mut mw = Vec::with_capacity(hours_in_year(year));
        for doy in 1..=days_in_year(year) {
            let eps: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0); // ~triangular
            cloud_state = phi_day * cloud_state + norm * eps * 0.5;
            let atten = (self.cloudiness + 0.5 * cloud_state).clamp(0.0, worst);
            let decl = declination_rad(doy);
            let (sin_term, cos_term) = (lat_sin * decl.sin(), lat_cos * decl.cos());
            mw.extend(hour_angle_cos.iter().map(|hour_cos| {
                let clear = clear_sky_fraction(sin_term + cos_term * hour_cos);
                self.capacity_mw * clear * (1.0 - atten)
            }));
        }
        HourlySeries::from_values(Timestamp::start_of_year(year), mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BalancingAuthority;
    use ce_timeseries::resample::{average_day_profile, daily_totals};

    /// Sine of the solar elevation angle at `hour` (0-23, solar time) on
    /// `day_of_year` at `latitude_deg`. Negative values mean the sun is
    /// below the horizon.
    fn sin_elevation(latitude_deg: f64, day_of_year: u32, hour: f64) -> f64 {
        let lat = latitude_deg.to_radians();
        let decl = declination_rad(day_of_year);
        let hour_angle = (15.0 * (hour - 12.0)).to_radians();
        lat.sin() * decl.sin() + lat.cos() * decl.cos() * hour_angle.cos()
    }

    /// [`SolarModel::generate`] with the whole solar geometry evaluated
    /// every hour: the reference its hoisted terms must match bit for bit.
    fn generate_per_hour(model: &SolarModel, year: i32, seed: u64) -> HourlySeries {
        let hours = hours_in_year(year);
        let mut rng = StdRng::seed_from_u64(seed);
        let days = days_in_year(year);

        let phi_day: f64 = 0.6;
        let norm = (1.0 - phi_day * phi_day).sqrt();
        let mut cloud_state = 0.0f64;
        let mut daily_cloud = Vec::with_capacity(days as usize);
        for _ in 0..days {
            let eps: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            cloud_state = phi_day * cloud_state + norm * eps * 0.5;
            let worst = (0.25 + 2.2 * model.cloudiness).min(0.95);
            let atten = (model.cloudiness + 0.5 * cloud_state).clamp(0.0, worst);
            daily_cloud.push(atten);
        }

        HourlySeries::from_fn(Timestamp::start_of_year(year), hours, |h| {
            let doy = (h / HOURS_PER_DAY) as u32 + 1;
            let hour = (h % HOURS_PER_DAY) as f64 + 0.5;
            let clear = clear_sky_fraction(sin_elevation(model.latitude_deg, doy, hour));
            let atten = daily_cloud[(doy - 1) as usize];
            model.capacity_mw * clear * (1.0 - atten)
        })
    }

    /// Every balancing authority's plant, in a common year, a leap year
    /// (8,784 hours) and the year after, over three seeds.
    #[test]
    fn generate_matches_the_per_hour_reference_bit_for_bit() {
        let bits = |s: &HourlySeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ba in BalancingAuthority::ALL {
            let profile = ba.profile();
            let model = SolarModel {
                capacity_mw: profile.solar_capacity_mw,
                latitude_deg: profile.latitude_deg,
                cloudiness: profile.cloudiness,
            };
            for year in [2019, 2020, 2021] {
                for seed in [1, 7, 99] {
                    let hoisted = model.generate(year, seed);
                    let reference = generate_per_hour(&model, year, seed);
                    assert_eq!(hoisted.start(), reference.start());
                    assert_eq!(
                        bits(&hoisted),
                        bits(&reference),
                        "{ba:?} {year} seed {seed}"
                    );
                }
            }
        }
    }

    fn model() -> SolarModel {
        SolarModel {
            capacity_mw: 100.0,
            latitude_deg: 40.0,
            cloudiness: 0.2,
        }
    }

    #[test]
    fn declination_extremes_at_solstices() {
        // Summer solstice (~day 172) near +23.45°, winter (~day 355) near -23.45°.
        let summer = declination_rad(172).to_degrees();
        let winter = declination_rad(355).to_degrees();
        assert!((summer - 23.45).abs() < 0.5, "summer {summer}");
        assert!((winter + 23.45).abs() < 0.5, "winter {winter}");
    }

    #[test]
    fn sun_below_horizon_at_night() {
        assert!(sin_elevation(40.0, 172, 0.0) < 0.0);
        assert!(sin_elevation(40.0, 172, 12.0) > 0.8);
        assert_eq!(clear_sky_fraction(-0.5), 0.0);
    }

    #[test]
    fn generation_is_zero_at_night_and_positive_at_noon() {
        let series = model().generate(2020, 1);
        assert_eq!(series.len(), 8784);
        // Midnight on day 10 (hour 216) must be dark; noon (228) bright.
        assert_eq!(series[216], 0.0);
        let summer_noon = 171 * 24 + 12;
        assert!(series[summer_noon] > 20.0);
        // Never exceeds nameplate.
        assert!(series.max().unwrap() <= 100.0 + 1e-9);
        assert!(series.min().unwrap() >= 0.0);
    }

    #[test]
    fn summer_outproduces_winter() {
        let series = model().generate(2020, 1);
        let daily = daily_totals(&series);
        let june: f64 = daily[152..182].iter().sum();
        let december: f64 = daily[335..365].iter().sum();
        assert!(
            june > 1.5 * december,
            "june {june:.0} should far exceed december {december:.0}"
        );
    }

    #[test]
    fn average_day_is_bell_shaped_around_noon() {
        let series = model().generate(2020, 2);
        let profile = average_day_profile(&series);
        let noon = profile[12];
        assert!(noon > profile[8]);
        assert!(noon > profile[16]);
        assert_eq!(profile[0], 0.0);
        assert_eq!(profile[23], 0.0);
    }

    #[test]
    fn capacity_factor_is_realistic() {
        let series = model().generate(2020, 3);
        let cf = series.mean() / 100.0;
        assert!((0.08..0.35).contains(&cf), "capacity factor {cf}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = model().generate(2020, 42);
        let b = model().generate(2020, 42);
        assert_eq!(a, b);
        let c = model().generate(2020, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn cloudier_sites_produce_less() {
        let clear = SolarModel {
            cloudiness: 0.05,
            ..model()
        }
        .generate(2020, 7);
        let cloudy = SolarModel {
            cloudiness: 0.6,
            ..model()
        }
        .generate(2020, 7);
        assert!(clear.sum() > cloudy.sum());
    }

    #[test]
    fn day_to_day_totals_vary_with_clouds() {
        let series = model().generate(2020, 5);
        let daily = daily_totals(&series);
        let max = daily.iter().copied().fold(f64::MIN, f64::max);
        let min = daily.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 1.3 * min.max(1.0), "daily variation too small");
    }
}
