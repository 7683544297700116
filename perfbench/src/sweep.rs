//! The `sweep` phase: the paper's two studies run in-process through
//! `CarbonExplorer::explore` and `optimal_refined`, plus the traced
//! replay that re-issues phase (a)'s grids through each layer's public
//! functions.

use crate::trace::Tracer;
use crate::util::{Report, Rng};
use ce_battery::{simulate_dispatch_stats, ClcBattery};
use ce_core::{
    provenance, CarbonExplorer, Coverage, DesignPoint, DesignSpace, EvaluatedDesign, StrategyKind,
};
use ce_datacenter::{DataCenterSite, Fleet};
use ce_embodied::EmbodiedParams;
use ce_grid::GridDataset;
use ce_scheduler::{
    combined_dispatch_stats, CasConfig, CombinedConfig, CombinedScratch, CostOrder,
    GreedyScheduler, ScheduleScratch,
};
use ce_timeseries::{kernels, HourlySeries};
use std::time::Instant;

/// Data year and synthesis seed of every explorer: the paper's canonical
/// inputs. The benchmark seed varies the design-space grids and request
/// streams, never the weather, so per-point work stays comparable.
pub const YEAR: i32 = 2020;
pub const SYNTH_SEED: u64 = 7;

/// The 13 Table-1 sites of the Fig. 15 study.
pub const STUDY_SITES: [&str; 13] = [
    "NE", "OR", "UT", "NM", "TX", "IL", "VA", "OH", "NC", "IA", "GA", "TN", "AL",
];

/// The wind-heavy, solar-only and hybrid regimes of the `explore` study.
pub const EXPLORE_SITES: [&str; 3] = ["OR", "NC", "UT"];

/// Largest relative change the seed makes to a sweep axis bound.
const JITTER: f64 = 0.02;

/// Refinement rounds of the Fig. 15 search.
pub const REFINE_ROUNDS: usize = 2;

/// Short strategy tags used in metric names.
pub fn tag(strategy: StrategyKind) -> &'static str {
    match strategy {
        StrategyKind::RenewablesOnly => "ro",
        StrategyKind::RenewablesBattery => "bat",
        StrategyKind::RenewablesCas => "cas",
        StrategyKind::RenewablesBatteryCas => "batcas",
    }
}

pub fn index(strategy: StrategyKind) -> usize {
    strategy as usize
}

/// A study site with its explorer.
pub struct Site {
    pub state: &'static str,
    pub site: DataCenterSite,
    pub explorer: CarbonExplorer,
}

/// Builds the explorer of every study site: the `sweep` set-up.
pub fn build_sites(tr: &mut Tracer) -> Vec<Site> {
    let fleet = Fleet::meta_us();
    STUDY_SITES
        .iter()
        .map(|&state| {
            let site = fleet.site(state).expect("Table 1 site").clone();
            let grid = tr.time("grid.synthesize", || {
                GridDataset::synthesize(site.ba(), YEAR, SYNTH_SEED)
            });
            let demand = tr.time("datacenter.demand_trace", || {
                site.demand_trace(YEAR, SYNTH_SEED)
            });
            let explorer = tr.time("core.explorer_new", || CarbonExplorer::new(demand, grid));
            Site {
                state,
                site,
                explorer,
            }
        })
        .collect()
}

pub fn site_index(sites: &[Site], state: &str) -> usize {
    sites
        .iter()
        .position(|s| s.state == state)
        .expect("study site present")
}

/// One `explore` call of phase (a).
pub struct ExploreCase {
    pub site: usize,
    pub strategy: StrategyKind,
    pub space: DesignSpace,
}

/// Phase (a) grids, shaped per strategy so the supply layer is used
/// differently: renewables-only groups are single points; battery and
/// CAS sweep a dense axis inside few groups; battery+CAS crosses both.
/// The grouped strategies have 4 groups each, an even split over the
/// engine's threads on a 2-core host.
/// The seed jitters every axis bound by up to ±2%: new inputs, about the
/// same work (dispatch and scheduling work depends on the values).
pub fn explore_cases(sites: &[Site], seed: u64) -> Vec<ExploreCase> {
    let mut rng = Rng::new(seed, 1);
    let mut cases = Vec::new();
    for strategy in StrategyKind::ALL {
        for state in EXPLORE_SITES {
            let site = site_index(sites, state);
            let avg = sites[site].site.avg_power_mw();
            let mut axis = |max: f64, steps: usize| (0.0, max * rng.jitter(JITTER), steps);
            let pinned = (0.0, 0.0, 1);
            let space = match strategy {
                StrategyKind::RenewablesOnly => DesignSpace {
                    solar: axis(30.0 * avg, 40),
                    wind: axis(30.0 * avg, 40),
                    battery: pinned,
                    extra_capacity: pinned,
                },
                StrategyKind::RenewablesBattery => DesignSpace {
                    solar: axis(30.0 * avg, 2),
                    wind: axis(30.0 * avg, 2),
                    battery: axis(24.0 * avg, 160),
                    extra_capacity: pinned,
                },
                StrategyKind::RenewablesCas => DesignSpace {
                    solar: axis(30.0 * avg, 2),
                    wind: axis(30.0 * avg, 2),
                    battery: pinned,
                    extra_capacity: axis(1.0, 160),
                },
                StrategyKind::RenewablesBatteryCas => DesignSpace {
                    solar: axis(30.0 * avg, 2),
                    wind: axis(30.0 * avg, 2),
                    battery: axis(24.0 * avg, 8),
                    extra_capacity: axis(1.0, 12),
                },
            };
            cases.push(ExploreCase {
                site,
                strategy,
                space,
            });
        }
    }
    cases
}

/// One `optimal_refined` call of phase (b), the Fig. 15 search.
pub struct StudyCase {
    pub site: usize,
    pub strategy: StrategyKind,
    pub space: DesignSpace,
}

/// Phase (b): every Table-1 site × every strategy on the full-fidelity
/// 7/7/7/4 grid, the seed jittering each axis bound by up to ±2%.
pub fn study_cases(sites: &[Site], seed: u64) -> Vec<StudyCase> {
    let mut rng = Rng::new(seed, 2);
    let mut cases = Vec::new();
    for (site, s) in sites.iter().enumerate() {
        let avg = s.site.avg_power_mw();
        let space = DesignSpace {
            solar: (0.0, 30.0 * avg * rng.jitter(JITTER), 7),
            wind: (0.0, 30.0 * avg * rng.jitter(JITTER), 7),
            battery: (0.0, 24.0 * avg * rng.jitter(JITTER), 7),
            extra_capacity: (0.0, rng.jitter(JITTER), 4),
        };
        for strategy in StrategyKind::ALL {
            cases.push(StudyCase {
                site,
                strategy,
                space: space.clone(),
            });
        }
    }
    cases
}

/// Points `optimal_refined` evaluates for one case (every round sweeps a
/// space of the same step counts).
pub fn study_points(case: &StudyCase) -> usize {
    (1 + REFINE_ROUNDS) * case.space.restricted_to(case.strategy).len()
}

/// Bitwise equality of two evaluations: strategy, design coordinates and
/// every canonical field by IEEE-754 bit pattern.
pub fn same_eval(a: &EvaluatedDesign, b: &EvaluatedDesign) -> bool {
    let design = |d: &DesignPoint| {
        [
            d.solar_mw.to_bits(),
            d.wind_mw.to_bits(),
            d.battery_mwh.to_bits(),
            d.extra_capacity_fraction.to_bits(),
        ]
    };
    a.strategy == b.strategy
        && design(&a.design) == design(&b.design)
        && a.canonical_fields()
            .iter()
            .zip(b.canonical_fields())
            .all(|((_, x), (_, y))| x.to_bits() == y.to_bits())
}

pub fn same_evals(a: &[EvaluatedDesign], b: &[EvaluatedDesign]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_eval(x, y))
}

/// What phase (a) measured.
pub struct ExploreRun {
    /// µs per point per timed repetition, by strategy index.
    pub us_per_pt: [Vec<f64>; 4],
    /// Points per repetition, by strategy index.
    pub points: [usize; 4],
    /// The first (untimed) repetition's output per case: the reference
    /// every later repetition and the traced replay must match.
    pub reference: Vec<Vec<EvaluatedDesign>>,
}

impl ExploreRun {
    /// Phase (a)'s reference pass: every case once, checked bit for bit
    /// against `explore_serial`.
    pub fn new(sites: &[Site], cases: &[ExploreCase], report: &mut Report) -> ExploreRun {
        let mut points = [0usize; 4];
        let mut reference = Vec::with_capacity(cases.len());
        let mut hasher = provenance::ResultHasher::new();
        for case in cases {
            let explorer = &sites[case.site].explorer;
            let out = explorer.explore(case.strategy, &case.space);
            let serial = explorer.explore_serial(case.strategy, &case.space);
            if same_evals(&out, &serial) {
                report.ops(1, 0);
            } else {
                report.ops(0, 1);
                report.problem(format!(
                    "explore != explore_serial for {} {}",
                    sites[case.site].state,
                    tag(case.strategy)
                ));
            }
            points[index(case.strategy)] += out.len();
            hasher.absorb(&out);
            reference.push(out);
        }
        report.note(format!(
            "sweep phase (a) result_hash {}",
            hasher.finish_hex()
        ));
        ExploreRun {
            us_per_pt: Default::default(),
            points,
            reference,
        }
    }

    /// Timed repetitions of every case until `window_s` has passed (at
    /// least one), each output checked against the reference.
    pub fn repeat(
        &mut self,
        sites: &[Site],
        cases: &[ExploreCase],
        window_s: f64,
        report: &mut Report,
    ) {
        let started = Instant::now();
        loop {
            let mut wall = [0.0f64; 4];
            for (case, expected) in cases.iter().zip(&self.reference) {
                let explorer = &sites[case.site].explorer;
                let t = Instant::now();
                let out = std::hint::black_box(explorer.explore(case.strategy, &case.space));
                wall[index(case.strategy)] += t.elapsed().as_secs_f64();
                if same_evals(&out, expected) {
                    report.ops(1, 0);
                } else {
                    report.ops(0, 1);
                    report.problem("explore output changed between repetitions");
                }
            }
            for (i, w) in wall.iter().enumerate() {
                self.us_per_pt[i].push(w * 1e6 / self.points[i] as f64);
            }
            if started.elapsed().as_secs_f64() >= window_s {
                break;
            }
        }
    }
}

/// Phase (b) across its passes: each case's fastest wall time and the
/// first pass's optima, which later passes must reproduce.
#[derive(Default)]
pub struct Study {
    pub fastest: Vec<f64>,
    pub optima: Vec<EvaluatedDesign>,
    /// A later pass found a different optimum.
    pub changed: bool,
}

impl Study {
    /// One pass of the whole Fig. 15 search with the engine's default
    /// parallelism.
    pub fn pass(&mut self, sites: &[Site], cases: &[StudyCase]) {
        let first = self.optima.is_empty();
        self.fastest.resize(cases.len(), f64::INFINITY);
        for (i, case) in cases.iter().enumerate() {
            let t = Instant::now();
            let best = sites[case.site]
                .explorer
                .optimal_refined(case.strategy, &case.space, REFINE_ROUNDS)
                .expect("study spaces are non-empty");
            self.fastest[i] = self.fastest[i].min(t.elapsed().as_secs_f64());
            if first {
                self.optima.push(best);
            } else {
                self.changed |= !same_eval(&best, &self.optima[i]);
            }
        }
    }

    /// The search's wall time: the sum over cases of each case's fastest
    /// pass.
    pub fn seconds(&self) -> f64 {
        self.fastest.iter().sum()
    }
}

/// Checks each optimum against the point path (`evaluate` of its design
/// must reproduce it bit for bit) and, for the cases in `serial`, against
/// a serial `optimal_refined`.
pub fn check_study(
    sites: &[Site],
    cases: &[StudyCase],
    optima: &[EvaluatedDesign],
    serial: &[usize],
    report: &mut Report,
) {
    for (case, best) in cases.iter().zip(optima) {
        let again = sites[case.site]
            .explorer
            .evaluate(case.strategy, &best.design);
        if same_eval(&again, best) {
            report.ops(1, 0);
        } else {
            report.ops(0, 1);
            report.problem(format!(
                "optimum of {} {} differs from evaluate() of its design",
                sites[case.site].state,
                tag(case.strategy)
            ));
        }
    }
    for &i in serial {
        let case = &cases[i];
        let best = ce_parallel::run_serial(|| {
            sites[case.site]
                .explorer
                .optimal_refined(case.strategy, &case.space, REFINE_ROUNDS)
        });
        if best.is_some_and(|b| same_eval(&b, &optima[i])) {
            report.ops(1, 0);
        } else {
            report.ops(0, 1);
            report.problem(format!(
                "serial optimum of {} {} differs from the parallel one",
                sites[case.site].state,
                tag(case.strategy)
            ));
        }
    }
}

/// Reusable buffers of the replay, mirroring `ce_core::EvalScratch`.
#[derive(Default)]
pub struct ReplayScratch {
    supply: Option<HourlySeries>,
    schedule: ScheduleScratch,
    combined: CombinedScratch,
    cost_order: CostOrder,
}

/// The values `DesignSpace` sweeps on one `(min, max, steps)` axis, in
/// the order `CarbonExplorer::explore` visits them.
fn axis_values((min, max, steps): (f64, f64, usize)) -> Vec<f64> {
    match steps {
        0 => Vec::new(),
        1 => vec![min],
        _ => (0..steps)
            .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
            .collect(),
    }
}

/// Re-issues one `explore` case through the layers' public functions,
/// grouped exactly as the engine groups it: one supply build (and, for
/// CAS, one `CostOrder` rebuild) per (solar, wind) group, then one
/// dispatch/schedule/kernel call per point. One span per call.
pub fn replay_case(
    site: &Site,
    case: &ExploreCase,
    tr: &mut Tracer,
    scratch: &mut ReplayScratch,
) -> Vec<EvaluatedDesign> {
    let explorer = &site.explorer;
    let strategy = case.strategy;
    let space = case.space.restricted_to(strategy);
    let demand = explorer.demand();
    let grid = explorer.grid();
    let intensity = explorer.grid_intensity();
    // Invariants `CarbonExplorer::new` precomputes (same expressions).
    let peak = demand.max().unwrap_or(0.0);
    let demand_mwh = demand.sum();
    let unit_solar_mwh = grid.scaled_solar(1.0).sum();
    let unit_wind_mwh = grid.scaled_wind(1.0).sum();
    let embodied = EmbodiedParams::paper_defaults();
    let flexible = explorer.workload().flexible_fraction();
    let dod = 1.0;

    let ReplayScratch {
        supply,
        schedule,
        combined,
        cost_order,
    } = scratch;
    let supply = supply.get_or_insert_with(|| HourlySeries::zeros(demand.start(), demand.len()));
    let battery_axis = axis_values(space.battery);
    let extra_axis = axis_values(space.extra_capacity);
    let mut out = Vec::with_capacity(space.len());
    tr.begin("core.explore");
    for solar_mw in axis_values(space.solar) {
        for wind_mw in axis_values(space.wind) {
            tr.time("grid.supply", || {
                grid.scaled_renewables_into(solar_mw, wind_mw, supply)
            });
            if strategy == StrategyKind::RenewablesCas {
                tr.time("scheduler.cost_order_rebuild", || {
                    cost_order.rebuild_from_deficit_slices(demand.values(), supply.values())
                });
            }
            for &battery_in in &battery_axis {
                for &extra_in in &extra_axis {
                    let design = DesignPoint {
                        solar_mw,
                        wind_mw,
                        battery_mwh: battery_in,
                        extra_capacity_fraction: extra_in,
                    };
                    let battery_mwh = if strategy.uses_battery() {
                        battery_in
                    } else {
                        0.0
                    };
                    let extra = if strategy.uses_cas() { extra_in } else { 0.0 };
                    let capacity_cap = peak * (1.0 + extra);
                    let (stats, operational_tons, cycles) = match strategy {
                        StrategyKind::RenewablesOnly => {
                            let (stats, op) = tr.time("timeseries.deficit_stats_dot", || {
                                kernels::deficit_stats_dot_slices(
                                    demand.values(),
                                    supply.values(),
                                    intensity.values(),
                                )
                            });
                            (stats, op, 0.0)
                        }
                        StrategyKind::RenewablesBattery => {
                            let mut battery = ClcBattery::lfp(battery_mwh, dod);
                            let r = tr
                                .time("battery.dispatch", || {
                                    simulate_dispatch_stats(&mut battery, demand, supply, intensity)
                                })
                                .expect("aligned");
                            (r.deficit, r.unmet_dot, r.equivalent_cycles)
                        }
                        StrategyKind::RenewablesCas => {
                            let scheduler = GreedyScheduler::new(CasConfig {
                                max_capacity_mw: capacity_cap,
                                flexible_ratio: flexible,
                            });
                            tr.time("scheduler.schedule", || {
                                scheduler.schedule_with_order(demand, supply, cost_order, schedule)
                            })
                            .expect("aligned");
                            let (stats, op) = tr.time("timeseries.deficit_stats_dot", || {
                                kernels::deficit_stats_dot_slices(
                                    schedule.shifted(),
                                    supply.values(),
                                    intensity.values(),
                                )
                            });
                            (stats, op, 0.0)
                        }
                        StrategyKind::RenewablesBatteryCas => {
                            let mut battery = ClcBattery::lfp(battery_mwh, dod);
                            let config = CombinedConfig {
                                max_capacity_mw: capacity_cap,
                                flexible_ratio: flexible,
                                window_hours: 24,
                            };
                            let r = tr
                                .time("scheduler.combined_dispatch", || {
                                    combined_dispatch_stats(
                                        &mut battery,
                                        demand,
                                        supply,
                                        intensity,
                                        config,
                                        combined,
                                    )
                                })
                                .expect("aligned");
                            (r.deficit, r.unmet_dot, r.equivalent_cycles)
                        }
                    };
                    let coverage = Coverage::from_sums(
                        demand_mwh,
                        stats.unmet_mwh,
                        stats.covered_hours,
                        demand.len(),
                    );
                    let solar_energy = if solar_mw > 0.0 {
                        unit_solar_mwh * solar_mw
                    } else {
                        0.0
                    };
                    let wind_energy = if wind_mw > 0.0 {
                        unit_wind_mwh * wind_mw
                    } else {
                        0.0
                    };
                    out.push(EvaluatedDesign {
                        strategy,
                        design,
                        coverage,
                        operational_tons,
                        embodied_renewables_tons: embodied
                            .renewables
                            .total_tons(solar_energy, wind_energy),
                        embodied_battery_tons: embodied.battery.amortized_tons_per_year(
                            battery_mwh,
                            dod,
                            cycles,
                        ),
                        embodied_servers_tons: embodied
                            .server
                            .amortized_tons_per_year(peak * extra),
                        battery_cycles: cycles,
                    });
                }
            }
        }
    }
    tr.end();
    out
}
