//! Assembling a full synthetic grid year: renewables plus the conventional
//! fuel stack, per balancing authority.

use crate::balancing_authority::BalancingAuthority;
use crate::carbon_intensity::carbon_intensity_series;
use crate::fuel::FuelType;
use crate::solar::SolarModel;
use crate::wind::WindModel;
use ce_timeseries::time::hours_in_year;
use ce_timeseries::{kernels, HourlySeries, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One year of synthetic hourly grid operating data for a balancing
/// authority — the stand-in for the EIA Hourly Grid Monitor feed.
///
/// Holds per-fuel generation series; renewables can be rescaled to
/// arbitrary investment levels with [`GridDataset::scaled_wind`] /
/// [`GridDataset::scaled_solar`], implementing the paper's methodology:
/// "It takes the maximum generated solar and wind power throughout the year
/// as the maximum capacity of the local grid. Then, the hourly generation
/// data is linearly scaled to the desired renewable investment capacity."
#[derive(Debug, Clone, PartialEq)]
pub struct GridDataset {
    ba: BalancingAuthority,
    year: i32,
    seed: u64,
    fuels: Vec<(FuelType, HourlySeries)>,
    demand: HourlySeries,
    /// Observed maxima of the solar and wind series — the grid capacities
    /// every investment is scaled against. The series never change after
    /// synthesis, so each is scanned once here instead of per supply build.
    solar_max_mw: f64,
    wind_max_mw: f64,
}

impl GridDataset {
    /// Synthesizes a year of grid data for `ba`, deterministically in
    /// `seed`.
    pub fn synthesize(ba: BalancingAuthority, year: i32, seed: u64) -> Self {
        let profile = ba.profile();
        let hours = hours_in_year(year);
        let start = Timestamp::start_of_year(year);

        // Derive independent streams per component so changing one model
        // does not perturb the others.
        let base = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ba.code().bytes().map(u64::from).sum::<u64>());

        let solar = SolarModel {
            capacity_mw: profile.solar_capacity_mw,
            latitude_deg: profile.latitude_deg,
            cloudiness: profile.cloudiness,
        }
        .generate(year, base ^ SOLAR_STREAM);

        let wind = WindModel {
            capacity_mw: profile.wind_capacity_mw,
            mean_speed: profile.mean_wind_speed,
            synoptic_amplitude: profile.synoptic_amplitude,
        }
        .generate(year, base ^ WIND_STREAM);

        // Grid demand: diurnal double-peak plus noise.
        let mut rng = StdRng::seed_from_u64(base ^ 0xDE44);
        let demand = HourlySeries::from_fn(start, hours, |h| {
            let hod = (h % 24) as f64;
            let diurnal = 0.08 * ((hod - 18.0) / 24.0 * std::f64::consts::TAU).cos()
                + 0.04 * ((hod - 8.0) / 12.0 * std::f64::consts::TAU).cos();
            let noise: f64 = rng.gen_range(-0.02..0.02);
            profile.grid_demand_mw * (1.0 + diurnal + noise)
        });

        // Conventional stack fills demand net of renewables.
        let baseload_total = &demand * profile.baseload_fraction;
        let water = &baseload_total * 0.5;
        let nuclear = &baseload_total * 0.5;
        let renewables = (&wind + &solar).clamp_min(0.0);
        // All three series share the demand clock, so zip the raw values
        // directly instead of round-tripping through fallible alignment.
        let residual = HourlySeries::from_values(
            demand.start(),
            demand
                .values()
                .iter()
                .zip(baseload_total.values())
                .zip(renewables.values())
                .map(|((d, b), g)| (d - b - g).max(0.0))
                .collect(),
        );
        let coal = &residual * profile.coal_share;
        let gas = &residual * ((1.0 - profile.coal_share) * 0.92);
        let other = &residual * ((1.0 - profile.coal_share) * 0.08);

        let solar_max_mw = solar.max().unwrap_or(0.0);
        let wind_max_mw = wind.max().unwrap_or(0.0);
        let fuels = vec![
            (FuelType::Wind, wind),
            (FuelType::Solar, solar),
            (FuelType::Water, water),
            (FuelType::Nuclear, nuclear),
            (FuelType::NaturalGas, gas),
            (FuelType::Coal, coal),
            (FuelType::Other, other),
        ];
        Self {
            ba,
            year,
            seed,
            fuels,
            demand,
            solar_max_mw,
            wind_max_mw,
        }
    }

    /// The balancing authority this dataset describes.
    pub fn ba(&self) -> BalancingAuthority {
        self.ba
    }

    /// The calendar year synthesized.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The seed of the synthetic weather streams. Together with
    /// [`GridDataset::ba`] and [`GridDataset::year`] it reconstructs this
    /// dataset exactly — one seed is one synthetic weather year.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The dataset's canonical lineage spelling,
    /// `ba=<code>;year=<year>;seed=<seed>;` — the input-key fragment
    /// provenance manifests hash to identify the grid a result came from.
    pub fn lineage_key(&self) -> String {
        format!(
            "ba={};year={};seed={};",
            self.ba.code(),
            self.year,
            self.seed
        )
    }

    /// Hourly generation for one fuel, if present on this grid.
    pub fn generation(&self, fuel: FuelType) -> Option<&HourlySeries> {
        self.fuels.iter().find(|(f, _)| *f == fuel).map(|(_, s)| s)
    }

    /// Hourly grid wind generation at installed capacity.
    ///
    /// # Panics
    ///
    /// Never panics: every synthesized dataset contains a wind series
    /// (possibly all-zero).
    pub fn wind(&self) -> &HourlySeries {
        self.generation(FuelType::Wind)
            .expect("wind always present")
    }

    /// Hourly grid solar generation at installed capacity.
    pub fn solar(&self) -> &HourlySeries {
        self.generation(FuelType::Solar)
            .expect("solar always present")
    }

    /// Hourly grid demand, MW.
    pub fn demand(&self) -> &HourlySeries {
        &self.demand
    }

    /// All per-fuel generation series.
    pub fn fuels(&self) -> &[(FuelType, HourlySeries)] {
        &self.fuels
    }

    /// Hourly carbon intensity of the grid mix, tons CO2eq per MWh.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's fuel series are misaligned — impossible
    /// for synthesized datasets, which build every fuel on one clock.
    pub fn carbon_intensity(&self) -> HourlySeries {
        carbon_intensity_series(&self.fuels).expect("fuel series aligned by construction")
    }

    /// Wind generation linearly rescaled to an investment of
    /// `investment_mw`, per the paper's methodology (max observed grid
    /// generation ≙ installed grid capacity). Returns zeros if this grid
    /// has no wind.
    pub fn scaled_wind(&self, investment_mw: f64) -> HourlySeries {
        scale_series(self.wind(), scale_factor(self.wind_max_mw, investment_mw))
    }

    /// Solar generation linearly rescaled to an investment of
    /// `investment_mw`. Returns zeros if this grid has no solar.
    pub fn scaled_solar(&self, investment_mw: f64) -> HourlySeries {
        scale_series(self.solar(), scale_factor(self.solar_max_mw, investment_mw))
    }

    /// Combined renewable supply for a (solar, wind) investment pair.
    pub fn scaled_renewables(&self, solar_mw: f64, wind_mw: f64) -> HourlySeries {
        let mut out = HourlySeries::zeros(self.solar().start(), self.solar().len());
        self.scaled_renewables_into(solar_mw, wind_mw, &mut out);
        out
    }

    /// The per-series multipliers a (solar, wind) investment pair implies:
    /// `investment / max_observed_generation`, or `0.0` when the
    /// investment is non-positive or the grid lacks that source. Scaling
    /// by these factors is exactly [`GridDataset::scaled_renewables`].
    pub fn renewable_scale_factors(&self, solar_mw: f64, wind_mw: f64) -> (f64, f64) {
        (
            scale_factor(self.solar_max_mw, solar_mw).unwrap_or(0.0),
            scale_factor(self.wind_max_mw, wind_mw).unwrap_or(0.0),
        )
    }

    /// Writes the combined renewable supply for a (solar, wind) investment
    /// pair into `out`, reusing its allocation, in one pass over the two
    /// source series. `out` is re-created only if it is misaligned with
    /// this grid's series (e.g. freshly constructed), so sweep loops that
    /// reuse one buffer per thread pay zero allocations per design point.
    pub fn scaled_renewables_into(&self, solar_mw: f64, wind_mw: f64, out: &mut HourlySeries) {
        let solar = self.solar();
        if out.check_aligned(solar).is_err() {
            // ce:allow(hot-path-transitive-alloc, reason = "scratch realignment: allocates only when the caller's buffer is misshapen, never in steady state")
            *out = HourlySeries::zeros(solar.start(), solar.len());
        }
        let (fs, fw) = self.renewable_scale_factors(solar_mw, wind_mw);
        kernels::scaled_sum_into(
            solar.values(),
            fs,
            self.wind().values(),
            fw,
            out.values_mut(),
        );
    }
}

/// The multiplier that rescales a source whose observed maximum is
/// `max_mw` so that maximum equals `investment_mw`: `investment / max`, or
/// `None` for a non-positive investment or an all-zero source.
fn scale_factor(max_mw: f64, investment_mw: f64) -> Option<f64> {
    if max_mw <= 0.0 || investment_mw <= 0.0 {
        None
    } else {
        Some(investment_mw / max_mw)
    }
}

/// `series` multiplied by `factor`, or all zeros without one.
fn scale_series(series: &HourlySeries, factor: Option<f64>) -> HourlySeries {
    match factor {
        Some(factor) => series.scale(factor),
        None => HourlySeries::zeros(series.start(), series.len()),
    }
}

/// Seed-stream tag for the solar component.
const SOLAR_STREAM: u64 = 0x501A;
/// Seed-stream tag for the wind component.
const WIND_STREAM: u64 = 0x714D;

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::resample::average_day_profile;

    fn pace() -> GridDataset {
        GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = GridDataset::synthesize(BalancingAuthority::BPAT, 2020, 7);
        let b = GridDataset::synthesize(BalancingAuthority::BPAT, 2020, 7);
        assert_eq!(a, b);
        let c = GridDataset::synthesize(BalancingAuthority::BPAT, 2020, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn solar_only_regions_have_zero_wind() {
        let duk = GridDataset::synthesize(BalancingAuthority::DUK, 2020, 7);
        assert_eq!(duk.wind().sum(), 0.0);
        assert!(duk.solar().sum() > 0.0);
    }

    #[test]
    fn wind_regions_are_wind_dominated() {
        let bpat = GridDataset::synthesize(BalancingAuthority::BPAT, 2020, 7);
        assert!(bpat.wind().sum() > 10.0 * bpat.solar().sum());
    }

    #[test]
    fn hybrid_regions_have_both() {
        let g = pace();
        assert!(g.wind().sum() > 0.0);
        assert!(g.solar().sum() > 0.0);
        let ratio = g.wind().sum() / g.solar().sum();
        assert!((0.2..5.0).contains(&ratio), "hybrid ratio {ratio}");
    }

    #[test]
    fn total_generation_serves_demand_net_of_surplus() {
        let g = pace();
        // Generation ≈ demand except in surplus-renewable hours where it
        // can exceed demand (curtailment handled downstream).
        for i in (0..g.demand().len()).step_by(97) {
            let total: f64 = g.fuels().iter().map(|(_, series)| series[i]).sum();
            assert!(
                total >= g.demand()[i] * 0.9 - 1e-6,
                "hour {i}: generation {total} far below demand {}",
                g.demand()[i]
            );
        }
    }

    #[test]
    fn scaling_hits_requested_investment() {
        let g = pace();
        let scaled = g.scaled_wind(250.0);
        let max = scaled.max().unwrap();
        assert!((max - 250.0).abs() < 1e-9, "max {max}");
        // Zero investment yields a zero series.
        assert_eq!(g.scaled_wind(0.0).sum(), 0.0);
        // Scaling preserves shape: correlation with the original is 1.
        let corr = ce_timeseries::stats::pearson(g.wind().values(), scaled.values()).unwrap();
        assert!((corr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_a_zero_series_is_zero() {
        let duk = GridDataset::synthesize(BalancingAuthority::DUK, 2020, 7);
        assert_eq!(duk.scaled_wind(500.0).sum(), 0.0);
    }

    #[test]
    fn carbon_intensity_is_bounded_by_fuel_extremes() {
        let g = pace();
        let intensity = g.carbon_intensity();
        assert!(intensity.min().unwrap() >= 0.0);
        assert!(intensity.max().unwrap() <= FuelType::Coal.carbon_intensity_t_per_mwh() + 1e-9);
        assert!(intensity.mean() > 0.0);
    }

    #[test]
    fn carbon_intensity_drops_when_renewables_peak() {
        let g = GridDataset::synthesize(BalancingAuthority::CISO, 2020, 7);
        let intensity_profile = average_day_profile(&g.carbon_intensity());
        // Solar-rich CISO: midday intensity below midnight intensity.
        assert!(intensity_profile[13] < intensity_profile[0]);
    }

    #[test]
    fn demand_has_diurnal_structure() {
        let g = pace();
        let profile = average_day_profile(g.demand());
        let max = profile.iter().copied().fold(f64::MIN, f64::max);
        let min = profile.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > min);
        assert!((max - min) / max < 0.35, "grid demand swing plausible");
    }

    /// Every supply entry point, pinned bit for bit against the paper's
    /// recipe applied to the raw series: the observed maximum, then
    /// `investment / max`, then `x·fs + y·fw`. DUK's all-zero wind and the
    /// non-positive investments take the zero-factor branch.
    #[test]
    fn scaled_renewables_combines_sources() {
        fn factor(series: &HourlySeries, investment_mw: f64) -> Option<f64> {
            let max = series.max().unwrap_or(0.0);
            (max > 0.0 && investment_mw > 0.0).then(|| investment_mw / max)
        }
        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }
        fn scaled_bits(series: &HourlySeries, factor: Option<f64>) -> Vec<u64> {
            match factor {
                Some(f) => series.values().iter().map(|x| (x * f).to_bits()).collect(),
                None => vec![0.0f64.to_bits(); series.len()],
            }
        }

        let investments = [-1.0, 0.0, 1e-9, 1.0, 250.0, 1e5];
        for ba in BalancingAuthority::ALL {
            let g = GridDataset::synthesize(ba, 2020, 7);
            let (solar, wind) = (g.solar(), g.wind());
            // Starts misaligned, so the first call also covers realignment.
            let mut out = HourlySeries::zeros(solar.start(), 1);
            for mw in investments {
                assert_eq!(
                    bits(g.scaled_solar(mw).values()),
                    scaled_bits(solar, factor(solar, mw)),
                    "{ba:?} solar {mw}"
                );
                assert_eq!(
                    bits(g.scaled_wind(mw).values()),
                    scaled_bits(wind, factor(wind, mw)),
                    "{ba:?} wind {mw}"
                );
            }
            for solar_mw in investments {
                for wind_mw in investments {
                    let fs = factor(solar, solar_mw).unwrap_or(0.0);
                    let fw = factor(wind, wind_mw).unwrap_or(0.0);
                    let (gs, gw) = g.renewable_scale_factors(solar_mw, wind_mw);
                    assert_eq!(
                        (gs.to_bits(), gw.to_bits()),
                        (fs.to_bits(), fw.to_bits()),
                        "{ba:?} factors ({solar_mw}, {wind_mw})"
                    );
                    let expected: Vec<u64> = solar
                        .values()
                        .iter()
                        .zip(wind.values())
                        .map(|(x, y)| (x * fs + y * fw).to_bits())
                        .collect();
                    g.scaled_renewables_into(solar_mw, wind_mw, &mut out);
                    assert_eq!(
                        bits(out.values()),
                        expected,
                        "{ba:?} into ({solar_mw}, {wind_mw})"
                    );
                    let combined = g.scaled_renewables(solar_mw, wind_mw);
                    assert_eq!(
                        bits(combined.values()),
                        expected,
                        "{ba:?} ({solar_mw}, {wind_mw})"
                    );
                    let apart = &g.scaled_solar(solar_mw) + &g.scaled_wind(wind_mw);
                    assert_eq!(combined, apart);
                }
            }
        }
    }
}
