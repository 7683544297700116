//! Exhaustive design-space exploration minimizing operational + embodied
//! carbon (paper §5, Figure 13).

use crate::coverage::Coverage;
use crate::design::{axis_values, DesignPoint, DesignSpace, StrategyKind};
use ce_battery::{simulate_dispatch_stats, ClcBattery};
use ce_datacenter::WorkloadMix;
use ce_embodied::EmbodiedParams;
use ce_grid::GridDataset;
use ce_scheduler::{
    combined_dispatch_stats, CasConfig, CombinedConfig, CombinedScratch, CostOrder,
    GreedyScheduler, ScheduleScratch,
};
use ce_timeseries::{kernels, HourlySeries};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully scored design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedDesign {
    /// The strategy evaluated.
    pub strategy: StrategyKind,
    /// The configuration evaluated.
    pub design: DesignPoint,
    /// Renewable (plus battery/CAS) coverage achieved.
    pub coverage: Coverage,
    /// Operational carbon: grid energy consumed × hourly grid intensity,
    /// tons CO2 per year.
    pub operational_tons: f64,
    /// Embodied carbon of the wind/solar farms, tons CO2 per year.
    pub embodied_renewables_tons: f64,
    /// Embodied carbon of the battery, tons CO2 per year.
    pub embodied_battery_tons: f64,
    /// Embodied carbon of the extra servers, tons CO2 per year.
    pub embodied_servers_tons: f64,
    /// Equivalent full battery cycles performed over the year.
    pub battery_cycles: f64,
}

impl EvaluatedDesign {
    /// Total embodied carbon, tons CO2 per year.
    pub fn embodied_tons(&self) -> f64 {
        self.embodied_renewables_tons + self.embodied_battery_tons + self.embodied_servers_tons
    }

    /// Total (operational + embodied) carbon, tons CO2 per year.
    pub fn total_tons(&self) -> f64 {
        self.operational_tons + self.embodied_tons()
    }

    /// The evaluation's numeric fields as stable `(name, value)` pairs, in
    /// a fixed wire order.
    ///
    /// This is the *pure* serialization surface consumed by response
    /// encoders (`ce-serve` renders exactly these pairs as JSON): no I/O,
    /// no formatting — the caller decides how to print each `f64`, so a
    /// byte-identical encoder applied to a bitwise-equal evaluation always
    /// produces byte-identical output. Derived totals are included so
    /// clients never re-derive (and potentially re-round) them.
    #[must_use]
    pub fn canonical_fields(&self) -> [(&'static str, f64); 11] {
        [
            ("coverage_fraction", self.coverage.fraction()),
            ("coverage_hour_fraction", self.coverage.hour_fraction()),
            ("unmet_mwh", self.coverage.unmet_mwh()),
            ("demand_mwh", self.coverage.demand_mwh()),
            ("operational_tons", self.operational_tons),
            ("embodied_renewables_tons", self.embodied_renewables_tons),
            ("embodied_battery_tons", self.embodied_battery_tons),
            ("embodied_servers_tons", self.embodied_servers_tons),
            ("embodied_tons", self.embodied_tons()),
            ("total_tons", self.total_tons()),
            ("battery_cycles", self.battery_cycles),
        ]
    }
}

impl fmt::Display for EvaluatedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} → coverage {}, op {:.0} t, embodied {:.0} t, total {:.0} t",
            self.strategy,
            self.design,
            self.coverage,
            self.operational_tons,
            self.embodied_tons(),
            self.total_tons()
        )
    }
}

/// Reusable per-thread evaluation buffers.
///
/// [`CarbonExplorer::evaluate_with`] fills the supply buffer in place
/// instead of allocating a fresh 8760-sample series per design point, and
/// the scheduler arms run through scratch-owned shift/backlog buffers;
/// sweep loops hand each worker thread one scratch for its whole chunk or
/// lane, after which every strategy's evaluation path performs zero heap
/// allocation per design point. The scratch also owns a [`CostOrder`]:
/// the per-day cost-sorted hour permutations the CAS scheduler consumes,
/// rebuilt once per renewable supply (once per (solar, wind) group in the
/// factorized sweep) instead of once per design point. A
/// default-constructed scratch is sized lazily on first use.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    supply: Option<HourlySeries>,
    schedule: ScheduleScratch,
    combined: CombinedScratch,
    cost_order: CostOrder,
}

/// The design-space exploration engine (paper Figure 13).
///
/// Holds the operational inputs — an hourly demand trace and a grid
/// dataset — plus the embodied-carbon parameters, workload flexibility,
/// and battery depth-of-discharge policy, and a set of invariants
/// precomputed at construction (peak demand, annual demand energy,
/// per-MW renewable energy yields, the hourly carbon-intensity series) so
/// the per-design-point hot path never recomputes them. See the
/// [crate documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct CarbonExplorer {
    demand: HourlySeries,
    grid: GridDataset,
    grid_intensity: HourlySeries,
    embodied: EmbodiedParams,
    workload: WorkloadMix,
    dod: f64,
    /// Largest demand sample, MW (0.0 for an empty trace).
    peak_demand_mw: f64,
    /// Annual demand energy, MWh.
    demand_mwh: f64,
    /// Annual energy of a 1 MW solar investment on this grid, MWh — so a
    /// design's solar energy is `unit_solar_mwh × solar_mw` with no
    /// scaled-series materialization.
    unit_solar_mwh: f64,
    /// Annual energy of a 1 MW wind investment on this grid, MWh.
    unit_wind_mwh: f64,
    /// Every grid-intensity sample is `>= 0`, so operational carbon is
    /// too: one of the two preconditions of the optimum search's
    /// embodied-carbon bound (see [`CarbonExplorer::embodied_terms`]).
    intensity_nonnegative: bool,
}

impl CarbonExplorer {
    /// Creates an explorer with the paper's defaults: 40% flexible
    /// workloads, 100% depth of discharge, published embodied
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `demand` and the grid's series are misaligned.
    pub fn new(demand: HourlySeries, grid: GridDataset) -> Self {
        let grid_intensity = grid.carbon_intensity();
        demand
            .check_aligned(&grid_intensity)
            .expect("demand trace must cover the same year as the grid dataset");
        let peak_demand_mw = demand.max().unwrap_or(0.0);
        let demand_mwh = demand.sum();
        let unit_solar_mwh = grid.scaled_solar(1.0).sum();
        let unit_wind_mwh = grid.scaled_wind(1.0).sum();
        let intensity_nonnegative = grid_intensity.values().iter().all(|&w| w >= 0.0);
        Self {
            demand,
            grid,
            grid_intensity,
            embodied: EmbodiedParams::paper_defaults(),
            workload: WorkloadMix::borg_default(),
            dod: 1.0,
            peak_demand_mw,
            demand_mwh,
            unit_solar_mwh,
            unit_wind_mwh,
            intensity_nonnegative,
        }
    }

    /// Replaces the embodied-carbon parameters.
    pub fn with_embodied(mut self, embodied: EmbodiedParams) -> Self {
        self.embodied = embodied;
        self
    }

    /// Sets the battery depth-of-discharge policy.
    ///
    /// # Panics
    ///
    /// Panics if `dod` is outside `(0, 1]`.
    pub fn with_dod(mut self, dod: f64) -> Self {
        assert!(dod > 0.0 && dod <= 1.0, "DoD must be in (0, 1]");
        self.dod = dod;
        self
    }

    /// The demand trace.
    pub fn demand(&self) -> &HourlySeries {
        &self.demand
    }

    /// The grid dataset.
    pub fn grid(&self) -> &GridDataset {
        &self.grid
    }

    /// The hourly grid carbon intensity (t/MWh).
    pub fn grid_intensity(&self) -> &HourlySeries {
        &self.grid_intensity
    }

    /// The workload mix in force.
    pub fn workload(&self) -> &WorkloadMix {
        &self.workload
    }

    /// Scores one design point under one strategy.
    ///
    /// Convenience wrapper over [`CarbonExplorer::evaluate_with`] using a
    /// throwaway scratch; sweep loops should reuse a scratch instead.
    ///
    /// # Panics
    ///
    /// Panics on non-finite design parameters.
    #[must_use]
    pub fn evaluate(&self, strategy: StrategyKind, design: &DesignPoint) -> EvaluatedDesign {
        self.evaluate_with(strategy, design, &mut EvalScratch::default())
    }

    /// Scores one design point under one strategy, reusing `scratch`'s
    /// buffers. This is the sweep engine's hot path: the renewable supply
    /// is written into the scratch in place, and every reduction (unmet
    /// energy, covered hours, operational carbon) runs through the fused
    /// `ce-timeseries` kernels, so the renewables-only path performs no
    /// heap allocation at all after the scratch warms up.
    ///
    /// # Panics
    ///
    /// Panics on non-finite design parameters.
    #[must_use]
    // ce:hot
    pub fn evaluate_with(
        &self,
        strategy: StrategyKind,
        design: &DesignPoint,
        scratch: &mut EvalScratch,
    ) -> EvaluatedDesign {
        self.walk_group(strategy, design.solar_mw, design.wind_mw, scratch)
            .score(design)
    }

    /// Starts the walk of one (solar, wind) supply group over `scratch`.
    /// This is the one place a sweep builds a supply: every path that
    /// scores points (`evaluate_with`, `explore`, `explore_groups`,
    /// `optimal`) goes through it.
    fn walk_group<'a>(
        &'a self,
        strategy: StrategyKind,
        solar_mw: f64,
        wind_mw: f64,
        scratch: &'a mut EvalScratch,
    ) -> GroupWalk<'a> {
        GroupWalk {
            explorer: self,
            strategy,
            solar_mw,
            wind_mw,
            scratch,
            built: false,
        }
    }

    /// Scores one design point against an already-materialized renewable
    /// supply. This is the factorized sweep's inner loop: the supply is
    /// invariant along the battery/extra-capacity axes, so
    /// [`CarbonExplorer::explore`] fills it once per (solar, wind) group
    /// and calls this for each sub-point. `cost_order` must hold the
    /// per-day cost permutations for `(demand, supply)` whenever
    /// `strategy` is [`StrategyKind::RenewablesCas`] — callers rebuild it
    /// alongside the supply, so the per-day cost sort is likewise hoisted
    /// out of the sub-grid loop. Every strategy arm folds its dispatch to
    /// (unmet stats, operational tons, cycles) through the streaming
    /// kernels without materializing any per-hour series.
    // ce:hot
    fn score_with_supply(
        &self,
        strategy: StrategyKind,
        design: &DesignPoint,
        supply: &HourlySeries,
        schedule: &mut ScheduleScratch,
        combined: &mut CombinedScratch,
        cost_order: &CostOrder,
    ) -> EvaluatedDesign {
        assert!(
            design.solar_mw.is_finite()
                && design.wind_mw.is_finite()
                && design.battery_mwh.is_finite()
                && design.extra_capacity_fraction.is_finite(),
            "design parameters must be finite"
        );
        let (battery_mwh, extra_fraction) = strategy_axes(strategy, design);
        let capacity_cap = self.peak_demand_mw * (1.0 + extra_fraction);

        // Each arm reduces to (unmet energy, covered hours, operational
        // tons, cycles) hour by hour, with no per-hour series
        // materialized anywhere.
        let (stats, operational_tons, cycles) = match strategy {
            StrategyKind::RenewablesOnly => {
                // Alignment is a constructor invariant (and the supply is
                // written into a demand-shaped buffer), so this goes
                // straight to the infallible slice kernel.
                let (stats, operational) = kernels::deficit_stats_dot_slices(
                    self.demand.values(),
                    supply.values(),
                    self.grid_intensity.values(),
                );
                (stats, operational, 0.0)
            }
            StrategyKind::RenewablesBattery => {
                let mut battery = ClcBattery::lfp(battery_mwh, self.dod);
                let result = simulate_dispatch_stats(
                    &mut battery,
                    &self.demand,
                    supply,
                    &self.grid_intensity,
                )
                .expect("aligned");
                (result.deficit, result.unmet_dot, result.equivalent_cycles)
            }
            StrategyKind::RenewablesCas => {
                let scheduler = GreedyScheduler::new(CasConfig {
                    max_capacity_mw: capacity_cap,
                    flexible_ratio: self.workload.flexible_fraction(),
                });
                scheduler
                    .schedule_with_order(&self.demand, supply, cost_order, schedule)
                    .expect("aligned");
                let (stats, operational) = kernels::deficit_stats_dot_slices(
                    schedule.shifted(),
                    supply.values(),
                    self.grid_intensity.values(),
                );
                (stats, operational, 0.0)
            }
            StrategyKind::RenewablesBatteryCas => {
                let mut battery = ClcBattery::lfp(battery_mwh, self.dod);
                let result = combined_dispatch_stats(
                    &mut battery,
                    &self.demand,
                    supply,
                    &self.grid_intensity,
                    CombinedConfig {
                        max_capacity_mw: capacity_cap,
                        flexible_ratio: self.workload.flexible_fraction(),
                        window_hours: 24,
                    },
                    combined,
                )
                .expect("aligned");
                (result.deficit, result.unmet_dot, result.equivalent_cycles)
            }
        };

        let coverage = Coverage::from_sums(
            self.demand_mwh,
            stats.unmet_mwh,
            stats.covered_hours,
            self.demand.len(),
        );

        let (embodied_renewables_tons, embodied_battery_tons, embodied_servers_tons) =
            self.embodied_terms(strategy, design, cycles);

        EvaluatedDesign {
            strategy,
            design: *design,
            coverage,
            operational_tons,
            embodied_renewables_tons,
            embodied_battery_tons,
            embodied_servers_tons,
            battery_cycles: cycles,
        }
    }

    /// The embodied carbon of `design` under `strategy`, tons CO2 per
    /// year, as (renewables, battery, servers), with the battery amortized
    /// over `cycles` equivalent full cycles per year. Scoring calls it with
    /// the dispatch's cycle count; the optimum search calls it with zero
    /// cycles for a lower bound on the point's total,
    /// `(renewables + battery) + servers`, the association
    /// [`EvaluatedDesign::embodied_tons`] uses. The bound is sound:
    ///
    /// - The renewables and servers terms do not depend on the dispatch,
    ///   so the bound's are exact.
    /// - At zero cycles the battery term is `manufacturing / cap` (the
    ///   calendar cap). The scored term divides the same numerator by
    ///   `min(life / cycles, cap) <= cap`, so it is no smaller whenever
    ///   the numerator is `>= 0`, that is, whenever the battery's
    ///   `total_kg_per_kwh` is.
    /// - f64 addition and division are monotone, so the rounded sums keep
    ///   these inequalities: embodied `>=` bound.
    /// - In every strategy arm the operational term is a sum of unmet
    ///   energy, each hour clamped at `>= 0`, times grid intensity. When
    ///   every intensity sample is `>= 0` it is `>= 0`, so
    ///   total `>=` embodied `>=` bound.
    ///
    /// Both preconditions are checked, not assumed: intensity once in
    /// [`CarbonExplorer::new`], the battery coefficient on every search
    /// (`with_embodied` accepts any value). When either fails the search
    /// skips nothing.
    fn embodied_terms(
        &self,
        strategy: StrategyKind,
        design: &DesignPoint,
        cycles: f64,
    ) -> (f64, f64, f64) {
        let (battery_mwh, extra_fraction) = strategy_axes(strategy, design);
        // `unit_sum × investment` replaces materializing (and summing) a
        // scaled generation series per design point.
        let solar_energy = if design.solar_mw > 0.0 {
            self.unit_solar_mwh * design.solar_mw
        } else {
            0.0
        };
        let wind_energy = if design.wind_mw > 0.0 {
            self.unit_wind_mwh * design.wind_mw
        } else {
            0.0
        };
        let embodied = &self.embodied;
        (
            embodied.renewables.total_tons(solar_energy, wind_energy),
            embodied
                .battery
                .amortized_tons_per_year(battery_mwh, self.dod, cycles),
            embodied
                .server
                .amortized_tons_per_year(self.peak_demand_mw * extra_fraction),
        )
    }

    /// Materializes the renewable supply for one (solar, wind) group and
    /// scores the whole battery × extra-capacity sub-grid against it.
    /// Group outputs are contiguous blocks of `DesignSpace::iter` order
    /// (solar and wind are the two outermost axes), so concatenating them
    /// reproduces the flat sweep order exactly.
    fn evaluate_group(
        &self,
        strategy: StrategyKind,
        solar_mw: f64,
        wind_mw: f64,
        sub: &[(f64, f64)],
        scratch: &mut EvalScratch,
    ) -> Vec<EvaluatedDesign> {
        let mut walk = self.walk_group(strategy, solar_mw, wind_mw, scratch);
        sub.iter()
            .map(|&axes| {
                let design = walk.design(axes);
                walk.score(&design)
            })
            .collect()
    }

    /// Scores every point of `space` (restricted to the axes `strategy`
    /// uses) in parallel and returns the evaluations in iteration order —
    /// the same order, and bitwise-identical values, as
    /// [`CarbonExplorer::explore_serial`].
    ///
    /// The traversal is **supply-major factorized**: the scaled renewable
    /// supply depends only on the (solar, wind) coordinates, so the grid
    /// is grouped by those two axes, each group's supply is written into
    /// the worker's scratch once, and the battery × extra-capacity
    /// sub-grid is swept against the cached series. On a `B × E`
    /// sub-grid this divides the supply-synthesis work (two scaled
    /// year-long series plus their sum) by `B × E` relative to the
    /// point-per-point path, without changing a single float operation in
    /// any evaluation: the cached supply is bitwise what
    /// [`CarbonExplorer::evaluate_with`] would have recomputed. For the
    /// CAS strategy the per-day cost sort is hoisted the same way: the
    /// group's [`CostOrder`] is rebuilt once alongside its supply and
    /// every sub-point schedules through the cached permutations, the
    /// same ones [`GreedyScheduler::schedule`] ranks per call.
    #[must_use]
    pub fn explore(&self, strategy: StrategyKind, space: &DesignSpace) -> Vec<EvaluatedDesign> {
        let space = space.restricted_to(strategy);
        let (groups, sub) = factor_space(&space);
        let blocks = ce_parallel::par_map_with(
            &groups,
            EvalScratch::default,
            |scratch, &(solar_mw, wind_mw)| {
                self.evaluate_group(strategy, solar_mw, wind_mw, &sub, scratch)
            },
        );
        blocks.into_iter().flatten().collect()
    }

    /// Streams the sweep of `space` one supply group at a time: `visit`
    /// is called once per (solar, wind) group, in sweep order, with that
    /// group's contiguous block of evaluations. Concatenating the blocks
    /// reproduces [`CarbonExplorer::explore`] exactly — same order, same
    /// bits — because groups are contiguous prefixes of the
    /// `DesignSpace::iter` order (see [`CarbonExplorer::explore`]'s
    /// factorization notes). The traversal is serial by construction;
    /// callers that want parallelism use `explore`, callers that want
    /// incremental output (e.g. `ce-serve`'s chunked `/explore`
    /// responses) use this.
    pub fn explore_groups(
        &self,
        strategy: StrategyKind,
        space: &DesignSpace,
        mut visit: impl FnMut(&[EvaluatedDesign]),
    ) {
        let space = space.restricted_to(strategy);
        let (groups, sub) = factor_space(&space);
        let mut scratch = EvalScratch::default();
        for &(solar_mw, wind_mw) in &groups {
            let block = self.evaluate_group(strategy, solar_mw, wind_mw, &sub, &mut scratch);
            visit(&block);
        }
    }

    /// The serial reference implementation of [`CarbonExplorer::explore`]:
    /// identical results on one thread. Kept public for determinism tests
    /// and serial-vs-parallel benchmarking.
    #[must_use]
    pub fn explore_serial(
        &self,
        strategy: StrategyKind,
        space: &DesignSpace,
    ) -> Vec<EvaluatedDesign> {
        let mut scratch = EvalScratch::default();
        space
            .restricted_to(strategy)
            .iter()
            .map(|design| self.evaluate_with(strategy, &design, &mut scratch))
            .collect()
    }

    /// The carbon-optimal design in `space` for `strategy` (minimum total
    /// carbon), or `None` for an empty space. It is the *first* minimum in
    /// sweep order, bitwise what `explore(..).into_iter().min_by(..)`
    /// returns, found without scoring every point.
    ///
    /// The search runs the factorized traversal of
    /// [`CarbonExplorer::explore`] over strided lanes
    /// ([`ce_parallel::par_fold_strided_with`]): lane `l` of `T` walks
    /// groups `l, l + T, …` and keeps its first minimum with its
    /// (group, sub-point) index pair. Before scoring a point the lane
    /// computes a lower bound on its total carbon, its embodied carbon at
    /// zero battery cycles (the private `embodied_terms` helper documents
    /// why it is sound), and skips the point when the bound is already `>=`
    /// the lane incumbent's total: the incumbent comes earlier in sweep
    /// order, so it would win even a tie. A group's supply is built only
    /// when one of its points survives. Lanes combine by lower total,
    /// then by lower index pair, which is exactly the first minimum in
    /// sweep order whatever the lane count.
    pub fn optimal(&self, strategy: StrategyKind, space: &DesignSpace) -> Option<EvaluatedDesign> {
        self.search(strategy, space, None)
    }

    /// [`CarbonExplorer::optimal`] followed by `rounds` of local
    /// refinement: each round re-sweeps a space of the same step count
    /// centered on the incumbent with half the span per axis, halving the
    /// grid spacing around the optimum. This is how the harness resolves
    /// near-100%-coverage optima that a coarse grid would miss.
    ///
    /// A refined optimum replaces the incumbent only when its total is
    /// strictly lower, so each round's search also skips every point whose
    /// bound is `>=` the incumbent's total.
    pub fn optimal_refined(
        &self,
        strategy: StrategyKind,
        space: &DesignSpace,
        rounds: usize,
    ) -> Option<EvaluatedDesign> {
        let mut best = self.optimal(strategy, space)?;
        let mut current = space.clone();
        for _ in 0..rounds {
            current = zoom_axis_space(&current, space, &best.design);
            if let Some(refined) = self.search(strategy, &current, Some(best.total_tons())) {
                if refined.total_tons() < best.total_tons() {
                    best = refined;
                }
            }
        }
        Some(best)
    }

    /// The search behind [`CarbonExplorer::optimal`]. With a `ceiling` it
    /// also skips every point whose bound is `>=` the ceiling. The result
    /// is then the first minimum when that minimum's total is below the
    /// ceiling, and otherwise a point whose total is not (or `None`), so a
    /// caller that keeps only a strictly lower total gets what the full
    /// search would give it.
    fn search(
        &self,
        strategy: StrategyKind,
        space: &DesignSpace,
        ceiling: Option<f64>,
    ) -> Option<EvaluatedDesign> {
        let space = space.restricted_to(strategy);
        let (groups, sub) = factor_space(&space);
        if sub.is_empty() {
            return None;
        }
        let bounded = self.intensity_nonnegative && self.embodied.battery.total_kg_per_kwh() >= 0.0;
        ce_parallel::par_fold_strided_with(
            &groups,
            EvalScratch::default,
            |scratch, lane| {
                let mut best: Option<Candidate> = None;
                for (g, &(solar_mw, wind_mw)) in lane {
                    let mut walk = self.walk_group(strategy, solar_mw, wind_mw, scratch);
                    for (s, &axes) in sub.iter().enumerate() {
                        let design = walk.design(axes);
                        if bounded {
                            let (renewables, battery, servers) =
                                self.embodied_terms(strategy, &design, 0.0);
                            let bound = renewables + battery + servers;
                            let beaten = best.as_ref().is_some_and(|b| bound >= b.total)
                                || ceiling.is_some_and(|c| bound >= c);
                            if beaten {
                                continue;
                            }
                        }
                        let eval = walk.score(&design);
                        let candidate = Candidate {
                            index: (g, s),
                            total: eval.total_tons(),
                            eval,
                        };
                        if best.as_ref().is_none_or(|b| candidate.displaces(b)) {
                            best = Some(candidate);
                        }
                    }
                }
                best
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(if b.displaces(&a) { b } else { a }),
                (a, None) => a,
                (None, b) => b,
            },
        )
        .flatten()
        .map(|best| best.eval)
    }
}

/// One (solar, wind) supply group being scored. The group's supply, and
/// for CAS its [`CostOrder`], are built into the scratch on the first
/// [`GroupWalk::score`], so a walk that skips all of its points builds
/// neither.
struct GroupWalk<'a> {
    explorer: &'a CarbonExplorer,
    strategy: StrategyKind,
    solar_mw: f64,
    wind_mw: f64,
    scratch: &'a mut EvalScratch,
    built: bool,
}

impl GroupWalk<'_> {
    /// The group's design point at sub-grid coordinates
    /// `(battery_mwh, extra_capacity_fraction)`.
    fn design(&self, (battery_mwh, extra_capacity_fraction): (f64, f64)) -> DesignPoint {
        DesignPoint {
            solar_mw: self.solar_mw,
            wind_mw: self.wind_mw,
            battery_mwh,
            extra_capacity_fraction,
        }
    }

    /// Scores `design`, whose solar and wind are the group's.
    fn score(&mut self, design: &DesignPoint) -> EvaluatedDesign {
        let explorer = self.explorer;
        let demand = &explorer.demand;
        let EvalScratch {
            supply,
            schedule,
            combined,
            cost_order,
        } = &mut *self.scratch;
        let supply = supply
            // ce:allow(hot-path-transitive-alloc, reason = "scratch warm-up: zeros runs once, before the steady state the rule guards")
            .get_or_insert_with(|| HourlySeries::zeros(demand.start(), demand.len()));
        if !self.built {
            explorer
                .grid
                .scaled_renewables_into(self.solar_mw, self.wind_mw, supply);
            if matches!(self.strategy, StrategyKind::RenewablesCas) {
                cost_order.rebuild_from_deficit_slices(demand.values(), supply.values());
            }
            self.built = true;
        }
        explorer.score_with_supply(
            self.strategy,
            design,
            supply,
            schedule,
            combined,
            cost_order,
        )
    }
}

/// A lane's best point so far, with its (group, sub-point) index pair in
/// sweep order and its total carbon.
struct Candidate {
    index: (usize, usize),
    total: f64,
    eval: EvaluatedDesign,
}

impl Candidate {
    /// Whether `self` replaces `incumbent` as the first minimum in sweep
    /// order: a strictly lower total, or an equal one at an earlier index
    /// pair. Totals can be +∞ (a battery calendar cap of 0 years); equal
    /// infinities tie like any other total. A NaN total (0/0: all-zero
    /// battery coefficients with a calendar cap of 0 years) compares false
    /// both ways, as in the serial strictly-less fold.
    fn displaces(&self, incumbent: &Candidate) -> bool {
        self.total < incumbent.total
            || (self.total == incumbent.total && self.index < incumbent.index)
    }
}

/// A flattened two-axis grid: the cross product of two axes in nesting
/// order (first axis outermost).
type AxisPairs = Vec<(f64, f64)>;

/// Splits a design space into its supply-determining (solar, wind) groups
/// and the (battery, extra-capacity) sub-grid swept inside each group.
/// Both lists are in `DesignSpace::iter` nesting order (solar outermost,
/// extra capacity innermost), so iterating `groups × sub` reproduces the
/// flat iteration order exactly.
fn factor_space(space: &DesignSpace) -> (AxisPairs, AxisPairs) {
    let solar = axis_values(space.solar);
    let wind = axis_values(space.wind);
    let battery = axis_values(space.battery);
    let extra = axis_values(space.extra_capacity);
    let mut groups = Vec::with_capacity(solar.len() * wind.len());
    for &s in &solar {
        for &w in &wind {
            groups.push((s, w));
        }
    }
    let mut sub = Vec::with_capacity(battery.len() * extra.len());
    for &b in &battery {
        for &e in &extra {
            sub.push((b, e));
        }
    }
    (groups, sub)
}

/// `design`'s battery size and extra capacity as `strategy` uses them:
/// an axis the strategy does not use reads 0.
fn strategy_axes(strategy: StrategyKind, design: &DesignPoint) -> (f64, f64) {
    let battery_mwh = if strategy.uses_battery() {
        design.battery_mwh
    } else {
        0.0
    };
    let extra_fraction = if strategy.uses_cas() {
        design.extra_capacity_fraction
    } else {
        0.0
    };
    (battery_mwh, extra_fraction)
}

/// Shrinks each axis of `current` to half its span, centered on `around`,
/// clamped to the `original` bounds.
fn zoom_axis_space(
    current: &DesignSpace,
    original: &DesignSpace,
    around: &DesignPoint,
) -> DesignSpace {
    let zoom = |(cur_min, cur_max, steps): (f64, f64, usize),
                (orig_min, orig_max, _): (f64, f64, usize),
                center: f64| {
        if steps <= 1 {
            return (cur_min, cur_max, steps);
        }
        let half = (cur_max - cur_min) / 4.0;
        let lo = (center - half).max(orig_min);
        let hi = (center + half).min(orig_max);
        (lo, hi, steps)
    };
    DesignSpace {
        solar: zoom(current.solar, original.solar, around.solar_mw),
        wind: zoom(current.wind, original.wind, around.wind_mw),
        battery: zoom(current.battery, original.battery, around.battery_mwh),
        extra_capacity: zoom(
            current.extra_capacity,
            original.extra_capacity,
            around.extra_capacity_fraction,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datacenter::Fleet;
    use ce_grid::BalancingAuthority;

    fn utah_explorer() -> CarbonExplorer {
        let site = Fleet::meta_us().site("UT").unwrap().clone();
        let grid = GridDataset::synthesize(site.ba(), 2020, 7);
        CarbonExplorer::new(site.demand_trace(2020, 7), grid)
    }

    #[test]
    fn no_investment_means_all_grid_energy() {
        let explorer = utah_explorer();
        let eval = explorer.evaluate(
            StrategyKind::RenewablesOnly,
            &DesignPoint::renewables(0.0, 0.0),
        );
        assert_eq!(eval.coverage.percent(), 0.0);
        assert!(eval.operational_tons > 0.0);
        assert_eq!(eval.embodied_tons(), 0.0);
    }

    #[test]
    fn more_renewables_increase_coverage_and_embodied() {
        let explorer = utah_explorer();
        let small = explorer.evaluate(
            StrategyKind::RenewablesOnly,
            &DesignPoint::renewables(50.0, 50.0),
        );
        let large = explorer.evaluate(
            StrategyKind::RenewablesOnly,
            &DesignPoint::renewables(500.0, 500.0),
        );
        assert!(large.coverage.fraction() > small.coverage.fraction());
        assert!(large.embodied_renewables_tons > small.embodied_renewables_tons);
        assert!(large.operational_tons < small.operational_tons);
    }

    #[test]
    fn battery_improves_on_renewables_only() {
        let explorer = utah_explorer();
        let design = DesignPoint {
            solar_mw: 300.0,
            wind_mw: 150.0,
            battery_mwh: 200.0,
            extra_capacity_fraction: 0.0,
        };
        let plain = explorer.evaluate(StrategyKind::RenewablesOnly, &design);
        let battery = explorer.evaluate(StrategyKind::RenewablesBattery, &design);
        assert!(battery.coverage.fraction() > plain.coverage.fraction());
        assert!(battery.operational_tons < plain.operational_tons);
        assert!(battery.embodied_battery_tons > 0.0);
        assert!(battery.battery_cycles > 0.0);
    }

    #[test]
    fn cas_improves_on_renewables_only() {
        let explorer = utah_explorer();
        let design = DesignPoint {
            solar_mw: 300.0,
            wind_mw: 150.0,
            battery_mwh: 0.0,
            extra_capacity_fraction: 0.5,
        };
        let plain = explorer.evaluate(StrategyKind::RenewablesOnly, &design);
        let cas = explorer.evaluate(StrategyKind::RenewablesCas, &design);
        assert!(cas.coverage.fraction() > plain.coverage.fraction());
        assert!(cas.embodied_servers_tons > 0.0);
    }

    #[test]
    fn combined_is_at_least_as_good_as_either_alone() {
        let explorer = utah_explorer();
        let design = DesignPoint {
            solar_mw: 300.0,
            wind_mw: 150.0,
            battery_mwh: 100.0,
            extra_capacity_fraction: 0.3,
        };
        let battery = explorer.evaluate(StrategyKind::RenewablesBattery, &design);
        let cas = explorer.evaluate(StrategyKind::RenewablesCas, &design);
        let both = explorer.evaluate(StrategyKind::RenewablesBatteryCas, &design);
        assert!(both.coverage.fraction() >= battery.coverage.fraction() - 1e-9);
        assert!(both.coverage.fraction() >= cas.coverage.fraction() - 1e-9);
    }

    #[test]
    fn inert_axes_do_not_change_strategy_results() {
        let explorer = utah_explorer();
        let with_battery_axis = DesignPoint {
            solar_mw: 200.0,
            wind_mw: 100.0,
            battery_mwh: 500.0,
            extra_capacity_fraction: 0.8,
        };
        let without = DesignPoint::renewables(200.0, 100.0);
        let a = explorer.evaluate(StrategyKind::RenewablesOnly, &with_battery_axis);
        let b = explorer.evaluate(StrategyKind::RenewablesOnly, &without);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.operational_tons, b.operational_tons);
        assert_eq!(a.embodied_battery_tons, 0.0);
        assert_eq!(a.embodied_servers_tons, 0.0);
    }

    #[test]
    fn optimal_never_exceeds_any_explored_point() {
        let explorer = utah_explorer();
        let space = DesignSpace {
            solar: (0.0, 400.0, 3),
            wind: (0.0, 400.0, 3),
            battery: (0.0, 200.0, 2),
            extra_capacity: (0.0, 0.5, 2),
        };
        for strategy in StrategyKind::ALL {
            let all = explorer.explore(strategy, &space);
            let best = explorer.optimal(strategy, &space).unwrap();
            for eval in &all {
                assert!(best.total_tons() <= eval.total_tons() + 1e-9);
            }
        }
    }

    #[test]
    fn solar_only_region_coverage_caps_near_half() {
        // North Carolina (DUK): no wind on the grid, so even huge
        // investments cannot push renewables-only coverage much past ~50%.
        let fleet = Fleet::meta_us();
        let site = fleet.site("NC").unwrap().clone();
        let grid = GridDataset::synthesize(BalancingAuthority::DUK, 2020, 7);
        let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
        let eval = explorer.evaluate(
            StrategyKind::RenewablesOnly,
            &DesignPoint::renewables(50_000.0, 50_000.0),
        );
        assert!(
            eval.coverage.fraction() < 0.62,
            "solar-only coverage {} should cap near 50%",
            eval.coverage
        );
    }

    #[test]
    fn refinement_never_worsens_the_optimum() {
        let explorer = utah_explorer();
        let space = DesignSpace {
            solar: (0.0, 500.0, 3),
            wind: (0.0, 500.0, 3),
            battery: (0.0, 300.0, 3),
            extra_capacity: (0.0, 0.0, 1),
        };
        let coarse = explorer
            .optimal(StrategyKind::RenewablesBattery, &space)
            .unwrap();
        let refined = explorer
            .optimal_refined(StrategyKind::RenewablesBattery, &space, 2)
            .unwrap();
        assert!(refined.total_tons() <= coarse.total_tons() + 1e-9);
    }

    #[test]
    fn canonical_fields_match_accessors() {
        let explorer = utah_explorer();
        let eval = explorer.evaluate(
            StrategyKind::RenewablesBattery,
            &DesignPoint {
                solar_mw: 300.0,
                wind_mw: 150.0,
                battery_mwh: 200.0,
                extra_capacity_fraction: 0.0,
            },
        );
        let fields = eval.canonical_fields();
        let get = |name: &str| -> f64 {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("total_tons").to_bits(), eval.total_tons().to_bits());
        assert_eq!(
            get("embodied_tons").to_bits(),
            eval.embodied_tons().to_bits()
        );
        assert_eq!(
            get("coverage_fraction").to_bits(),
            eval.coverage.fraction().to_bits()
        );
        assert_eq!(
            get("operational_tons").to_bits(),
            eval.operational_tons.to_bits()
        );
        // Names are unique and the order is fixed.
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert_eq!(names[0], "coverage_fraction");
        assert_eq!(names[10], "battery_cycles");
    }

    #[test]
    fn explore_groups_concatenation_is_bitwise_identical() {
        let explorer = utah_explorer();
        let space = DesignSpace {
            solar: (0.0, 300.0, 3),
            wind: (0.0, 200.0, 2),
            battery: (0.0, 100.0, 4),
            extra_capacity: (0.0, 0.5, 2),
        };
        let strategy = StrategyKind::RenewablesBatteryCas;
        let reference = explorer.explore(strategy, &space);

        let mut blocks = 0usize;
        let mut streamed = Vec::new();
        explorer.explore_groups(strategy, &space, |block| {
            blocks += 1;
            streamed.extend_from_slice(block);
        });

        // One visit per (solar, wind) supply group, covering the whole sweep.
        assert_eq!(blocks, 3 * 2);
        assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(&reference) {
            assert_eq!(a.design, b.design);
            for ((name_a, va), (name_b, vb)) in
                a.canonical_fields().iter().zip(b.canonical_fields())
            {
                assert_eq!(name_a, &name_b);
                assert_eq!(va.to_bits(), vb.to_bits(), "{name_a} differs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_design() {
        let explorer = utah_explorer();
        let _ = explorer.evaluate(
            StrategyKind::RenewablesOnly,
            &DesignPoint::renewables(f64::NAN, 0.0),
        );
    }

    #[test]
    #[should_panic(expected = "DoD")]
    fn rejects_bad_dod() {
        let _ = utah_explorer().with_dod(0.0);
    }
}
