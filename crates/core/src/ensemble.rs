//! Seeded multi-year weather ensembles.
//!
//! A single synthetic weather year can mislead: the Fig. 15 reproduction
//! caps optima at 98–99% coverage purely because one seed's joint
//! (calm + overcast) tails happen to run fat. An *ensemble* evaluates the
//! same design under N independently seeded weather years — each seed
//! drives `GridDataset::synthesize` and the demand trace to an
//! independent synthetic year — and reports the per-year coverages plus
//! their min/mean/max [`Spread`], so "optimal" can be read as "robust
//! across weather years" instead of "optimal for one draw".
//!
//! Evaluation fans out over [`ce_parallel::par_map_with`] and inherits
//! its contract: results return in seed order, bitwise identical to the
//! serial loop, for any `CE_THREADS` setting.

use crate::design::{DesignPoint, StrategyKind};
use crate::explore::{CarbonExplorer, EvalScratch, EvaluatedDesign};
use serde::{Deserialize, Serialize};

/// Which seeded weather years an ensemble evaluates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnsembleSpec {
    /// Calendar year every member synthesizes (fixes trace length and
    /// leap-year shape; the *weather* varies by seed).
    pub year: i32,
    /// One seed per ensemble member. Order is significant: results are
    /// reported in this order.
    pub seeds: Vec<u64>,
}

impl EnsembleSpec {
    /// An ensemble of `count` consecutive seeds starting at `base_seed` —
    /// the conventional spelling for "N independent weather years".
    pub fn consecutive(year: i32, base_seed: u64, count: usize) -> Self {
        EnsembleSpec {
            year,
            seeds: (0..count)
                .map(|i| base_seed.wrapping_add(u64::try_from(i).unwrap_or(u64::MAX)))
                .collect(),
        }
    }

    /// Scores `design` under `strategy` across every seeded year.
    ///
    /// `build` constructs the evaluation engine for one seed (typically
    /// `|seed| CarbonExplorer::new(site.demand_trace(year, seed),
    /// GridDataset::synthesize(ba, year, seed))`). Members evaluate in
    /// parallel via [`ce_parallel::par_map_with`]; the result vector is in
    /// seed order and bitwise identical to a serial per-seed loop.
    #[must_use]
    pub fn evaluate<F>(
        &self,
        strategy: StrategyKind,
        design: &DesignPoint,
        build: F,
    ) -> EnsembleResult
    where
        F: Fn(u64) -> CarbonExplorer + Sync,
    {
        let evaluations =
            ce_parallel::par_map_with(&self.seeds, EvalScratch::default, |scratch, &seed| {
                build(seed).evaluate_with(strategy, design, scratch)
            });
        self.result(strategy, design, evaluations)
    }

    fn result(
        &self,
        strategy: StrategyKind,
        design: &DesignPoint,
        evaluations: Vec<EvaluatedDesign>,
    ) -> EnsembleResult {
        EnsembleResult {
            year: self.year,
            seeds: self.seeds.clone(),
            strategy,
            design: *design,
            evaluations,
        }
    }
}

/// Min/mean/max of a metric across ensemble members.
///
/// The mean is summed in member (seed) order, so a spread over the same
/// evaluations is itself bitwise deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Smallest member value.
    pub min: f64,
    /// Arithmetic mean, accumulated in member order.
    pub mean: f64,
    /// Largest member value.
    pub max: f64,
}

impl Spread {
    /// The spread of `values`, or `None` for an empty iterator.
    pub fn over(values: impl IntoIterator<Item = f64>) -> Option<Spread> {
        let mut iter = values.into_iter();
        let first = iter.next()?;
        let mut spread = Spread {
            min: first,
            mean: first,
            max: first,
        };
        let mut sum = first;
        let mut count = 1.0;
        for v in iter {
            spread.min = spread.min.min(v);
            spread.max = spread.max.max(v);
            sum += v;
            count += 1.0;
        }
        spread.mean = sum / count;
        Some(spread)
    }
}

/// The outcome of evaluating one design across an ensemble of seeded
/// weather years.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleResult {
    /// Calendar year of every member.
    pub year: i32,
    /// Member seeds, in evaluation order.
    pub seeds: Vec<u64>,
    /// Strategy evaluated.
    pub strategy: StrategyKind,
    /// Design evaluated.
    pub design: DesignPoint,
    /// One full evaluation per seed, in seed order.
    pub evaluations: Vec<EvaluatedDesign>,
}

impl EnsembleResult {
    /// Spread of any per-member metric, in member order.
    pub fn spread_of(&self, metric: impl FnMut(&EvaluatedDesign) -> f64) -> Option<Spread> {
        Spread::over(self.evaluations.iter().map(metric))
    }

    /// Spread of renewable coverage fraction — the ensemble's headline
    /// answer to "how robust is this design across weather years?".
    pub fn coverage_spread(&self) -> Option<Spread> {
        self.spread_of(|e| e.coverage.fraction())
    }

    /// Spread of total (operational + embodied) carbon, tons/year.
    pub fn total_tons_spread(&self) -> Option<Spread> {
        self.spread_of(|e| e.total_tons())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datacenter::Fleet;
    use ce_grid::GridDataset;

    fn build_ut(year: i32) -> impl Fn(u64) -> CarbonExplorer + Sync {
        let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
        move |seed| {
            let grid = GridDataset::synthesize(site.ba(), year, seed);
            CarbonExplorer::new(site.demand_trace(year, seed), grid)
        }
    }

    fn design() -> DesignPoint {
        DesignPoint {
            solar_mw: 150.0,
            wind_mw: 100.0,
            battery_mwh: 40.0,
            extra_capacity_fraction: 0.0,
        }
    }

    #[test]
    fn consecutive_seeds() {
        let spec = EnsembleSpec::consecutive(2020, 7, 3);
        assert_eq!(spec.seeds, vec![7, 8, 9]);
        assert_eq!(spec.year, 2020);
    }

    #[test]
    fn members_match_individual_evaluations_bitwise() {
        let spec = EnsembleSpec::consecutive(2020, 7, 3);
        let build = build_ut(2020);
        let result = spec.evaluate(StrategyKind::RenewablesBattery, &design(), &build);
        assert_eq!(result.evaluations.len(), 3);
        for (&seed, member) in spec.seeds.iter().zip(&result.evaluations) {
            let solo = build(seed).evaluate(StrategyKind::RenewablesBattery, &design());
            for ((name, a), (_, b)) in member
                .canonical_fields()
                .iter()
                .zip(solo.canonical_fields())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, field {name}");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_weather_years() {
        let spec = EnsembleSpec::consecutive(2020, 7, 4);
        let result = spec.evaluate(StrategyKind::RenewablesOnly, &design(), build_ut(2020));
        let coverages: Vec<f64> = result
            .evaluations
            .iter()
            .map(|e| e.coverage.fraction())
            .collect();
        let spread = result.coverage_spread().expect("non-empty ensemble");
        assert!(
            spread.max > spread.min,
            "independent weather years should not produce identical coverage: {coverages:?}"
        );
        assert!(spread.min <= spread.mean && spread.mean <= spread.max);
        for c in coverages {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn spread_over_fixed_values() {
        let s = Spread::over([0.5, 0.25, 1.0]).expect("non-empty");
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.mean, (0.5 + 0.25 + 1.0) / 3.0);
        assert_eq!(Spread::over([]), None);
    }

    #[test]
    fn empty_ensemble_has_no_spread() {
        let spec = EnsembleSpec {
            year: 2020,
            seeds: Vec::new(),
        };
        let result = spec.evaluate(StrategyKind::RenewablesOnly, &design(), build_ut(2020));
        assert!(result.evaluations.is_empty());
        assert_eq!(result.coverage_spread(), None);
    }
}
