//! Diurnal CPU-utilization modeling (paper Figure 3, left).

use ce_timeseries::time::{hours_in_year, HOURS_PER_DAY};
use ce_timeseries::{HourlySeries, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parameterized diurnal CPU-utilization model.
///
/// Utilization follows user activity: low in the small hours, peaking in
/// the evening, with a weekend dip, mild noise, and occasional
/// special-event peaks (holidays, major events) — the features the paper
/// calls out for Meta's hyperscale fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationModel {
    /// Long-run mean utilization (0..1).
    pub mean: f64,
    /// Max-min diurnal swing in absolute utilization (the paper: ~0.20 for
    /// Meta, ~0.15 for Google).
    pub diurnal_swing: f64,
    /// Hour of day (0-23) at which utilization peaks.
    pub peak_hour: f64,
    /// Weekend utilization dip in absolute terms.
    pub weekend_dip: f64,
    /// Half-width of the hour-to-hour noise: each hour adds
    /// `noise × (u1 + u2 − 1)` for two uniforms on `[0, 1]`, a triangular
    /// term on `[−noise, noise]` whose standard deviation is
    /// `noise / √6 ≈ 0.41 × noise`.
    pub noise: f64,
    /// Number of special-event days per year with elevated load.
    pub event_days: usize,
}

impl UtilizationModel {
    /// Meta-like profile: ~20% diurnal swing, evening peak.
    pub fn meta() -> Self {
        Self {
            mean: 0.60,
            diurnal_swing: 0.20,
            peak_hour: 20.0,
            weekend_dip: 0.03,
            noise: 0.01,
            event_days: 6,
        }
    }

    /// Google/Borg-like profile: ~15% diurnal swing (paper §3.1).
    pub fn google() -> Self {
        Self {
            mean: 0.55,
            diurnal_swing: 0.15,
            peak_hour: 19.0,
            weekend_dip: 0.02,
            noise: 0.01,
            event_days: 4,
        }
    }

    /// Generates a year of hourly utilization in `[0, 1]`, deterministic in
    /// `seed`.
    pub fn generate(&self, year: i32, seed: u64) -> HourlySeries {
        let hours = hours_in_year(year);
        let mut rng = StdRng::seed_from_u64(seed);

        // Pick the special-event days up front.
        let days = hours / 24;
        let mut event = vec![0.0f64; days];
        for _ in 0..self.event_days {
            let d = rng.gen_range(0..days);
            event[d] = rng.gen_range(0.05..0.12);
        }

        // The diurnal cosine depends only on the hour of day, so it is
        // computed for one day and walked once per day.
        let amplitude = self.diurnal_swing / 2.0;
        let diurnal: [f64; HOURS_PER_DAY] = std::array::from_fn(|hod| {
            let phase = (hod as f64 - self.peak_hour) / 24.0 * std::f64::consts::TAU;
            amplitude * phase.cos()
        });
        let mut util = Vec::with_capacity(hours);
        for (day, event) in (0u64..).zip(&event) {
            // Day 0 of the synthetic year is a Wednesday-like weekday;
            // days 3 and 4 of each week are the weekend.
            let weekday = day % 7;
            let weekend = if weekday == 3 || weekday == 4 {
                -self.weekend_dip
            } else {
                0.0
            };
            for diurnal in &diurnal {
                let hour_of_year = util.len() as u64;
                let noise = self.noise * (rand_normal_like(day, hour_of_year, seed));
                util.push((self.mean + diurnal + weekend + event + noise).clamp(0.0, 1.0));
            }
        }
        HourlySeries::from_values(Timestamp::start_of_year(year), util)
    }
}

/// Cheap deterministic noise in roughly [-1, 1] derived from hashing the
/// indices, so an hour's noise depends only on its day, its hour of the
/// year and the seed.
fn rand_normal_like(a: u64, b: u64, seed: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(seed);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    // Sum of two uniforms, centered: triangular-ish in [-1, 1].
    let u1 = (x & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
    let u2 = (x >> 32) as f64 / u32::MAX as f64;
    u1 + u2 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::resample::average_day_profile;

    /// [`UtilizationModel::generate`] with the diurnal cosine evaluated
    /// every hour: the reference its per-hour-of-day table must match bit
    /// for bit.
    fn generate_per_hour(model: &UtilizationModel, year: i32, seed: u64) -> HourlySeries {
        let hours = hours_in_year(year);
        let mut rng = StdRng::seed_from_u64(seed);

        let days = hours / 24;
        let mut event = vec![0.0f64; days];
        for _ in 0..model.event_days {
            let d = rng.gen_range(0..days);
            event[d] = rng.gen_range(0.05..0.12);
        }

        let amplitude = model.diurnal_swing / 2.0;
        HourlySeries::from_fn(Timestamp::start_of_year(year), hours, |h| {
            let hod = (h % 24) as f64;
            let day = h / 24;
            let phase = (hod - model.peak_hour) / 24.0 * std::f64::consts::TAU;
            let diurnal = amplitude * phase.cos();
            let weekday = day % 7;
            let weekend = if weekday == 3 || weekday == 4 {
                -model.weekend_dip
            } else {
                0.0
            };
            let noise = model.noise * (rand_normal_like(day as u64, h as u64, seed));
            (model.mean + diurnal + weekend + event[day.min(days - 1)] + noise).clamp(0.0, 1.0)
        })
    }

    /// Both fleet profiles, in a common year, a leap year (8,784 hours)
    /// and the year after, over three seeds.
    #[test]
    fn generate_matches_the_per_hour_reference_bit_for_bit() {
        let bits = |s: &HourlySeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, model) in [
            ("meta", UtilizationModel::meta()),
            ("google", UtilizationModel::google()),
        ] {
            for year in [2019, 2020, 2021] {
                for seed in [1, 7, 99] {
                    let hoisted = model.generate(year, seed);
                    let reference = generate_per_hour(&model, year, seed);
                    assert_eq!(hoisted.start(), reference.start());
                    assert_eq!(
                        bits(&hoisted),
                        bits(&reference),
                        "{name} {year} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn meta_profile_swings_about_twenty_percent() {
        let util = UtilizationModel::meta().generate(2020, 1);
        let profile = average_day_profile(&util);
        let max = profile.iter().copied().fold(f64::MIN, f64::max);
        let min = profile.iter().copied().fold(f64::MAX, f64::min);
        let swing = max - min;
        assert!(
            (0.15..0.26).contains(&swing),
            "meta diurnal swing {swing:.3}"
        );
    }

    #[test]
    fn google_profile_swings_about_fifteen_percent() {
        let util = UtilizationModel::google().generate(2020, 1);
        let profile = average_day_profile(&util);
        let max = profile.iter().copied().fold(f64::MIN, f64::max);
        let min = profile.iter().copied().fold(f64::MAX, f64::min);
        let swing = max - min;
        assert!(
            (0.10..0.20).contains(&swing),
            "google diurnal swing {swing:.3}"
        );
        // And it is smaller than Meta's, as the paper reports.
        let meta = UtilizationModel::meta().generate(2020, 1);
        let meta_profile = average_day_profile(&meta);
        let meta_swing = meta_profile.iter().copied().fold(f64::MIN, f64::max)
            - meta_profile.iter().copied().fold(f64::MAX, f64::min);
        assert!(meta_swing > swing);
    }

    #[test]
    fn utilization_stays_in_unit_interval() {
        let util = UtilizationModel::meta().generate(2020, 2);
        assert!(util.min().unwrap() >= 0.0);
        assert!(util.max().unwrap() <= 1.0);
    }

    #[test]
    fn peak_lands_near_configured_hour() {
        let util = UtilizationModel::meta().generate(2020, 3);
        let profile = average_day_profile(&util);
        let peak_hour = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (18..=22).contains(&peak_hour),
            "peak at hour {peak_hour}, expected evening"
        );
    }

    #[test]
    fn weekends_dip() {
        let model = UtilizationModel {
            noise: 0.0,
            event_days: 0,
            ..UtilizationModel::meta()
        };
        let util = model.generate(2021, 4);
        // Compare the same hour on a weekday (day 0) vs weekend (day 3).
        assert!(util[3 * 24 + 12] < util[12]);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = UtilizationModel::meta().generate(2020, 42);
        let b = UtilizationModel::meta().generate(2020, 42);
        assert_eq!(a, b);
        assert_ne!(a, UtilizationModel::meta().generate(2020, 43));
    }

    #[test]
    fn event_days_create_peaks() {
        let calm = UtilizationModel {
            event_days: 0,
            noise: 0.0,
            ..UtilizationModel::meta()
        };
        let busy = UtilizationModel {
            event_days: 20,
            noise: 0.0,
            ..UtilizationModel::meta()
        };
        let calm_max = calm.generate(2020, 9).max().unwrap();
        let busy_max = busy.generate(2020, 9).max().unwrap();
        assert!(busy_max > calm_max);
    }
}
