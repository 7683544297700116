//! The repository benchmark. One run measures every end-to-end metric:
//! the paper's sweeps in-process (`sweep`), an open loop of distinct
//! compute requests against the `ce-serve` binary (`serve_cold`), and a
//! closed loop of cached replays (`serve_hot`). The workload names the
//! phase measured over the full `--seconds` window; the other two run
//! shorter windows. With `--trace 1` the traced build also replays each
//! phase's inputs through the layers' public functions, one span per
//! call, and reports the per-layer metrics instead. See `README.md`.

pub mod cold;
pub mod hot;
pub mod sweep;
pub mod trace;
pub mod util;
pub mod wire;

use ce_core::provenance;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{allocations, Totals, Tracer};
use util::{mean, median, quantile, quantile_sorted, ratio, sorted, Report};
use wire::{Counters, TICKS_PER_SEC};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "explore_ro_us_per_pt",
    "explore_bat_us_per_pt",
    "optimal_study_s",
    "cold_cpu_us_per_req",
    "hot_p50_us",
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [&str; 82] = [
    "explore_cas_us_per_pt",
    "explore_batcas_us_per_pt",
    "hot_cpu_us_per_req",
    "evaluate_p50_us",
    "sweep_req_p50_ms",
    "hot_rps",
    "evaluate_p99_us",
    "sweep_req_p95_ms",
    "hot_p99_us",
    "grid.synthesize_ms",
    "datacenter.demand_trace_ms",
    "core.explorer_new_ms",
    "grid.supply_calls_per_pt",
    "grid.supply_us",
    "timeseries.deficit_stats_dot_us",
    "timeseries.deficit_stats_dot_bytes",
    "battery.dispatch_us",
    "scheduler.cost_order_rebuilds_per_pt",
    "scheduler.cost_order_rebuild_us",
    "scheduler.schedule_us",
    "scheduler.combined_dispatch_us",
    "core.explore_self_us_per_pt.ro",
    "core.explore_self_us_per_pt.bat",
    "core.explore_self_us_per_pt.cas",
    "core.explore_self_us_per_pt.batcas",
    "core.explore_serial_us_per_pt.ro",
    "core.explore_serial_us_per_pt.bat",
    "core.explore_serial_us_per_pt.cas",
    "core.explore_serial_us_per_pt.batcas",
    "core.explore_allocs_per_pt",
    "core.evaluate_with_allocs",
    "core.evaluate_with_us.ro",
    "core.evaluate_with_us.bat",
    "core.evaluate_with_us.cas",
    "core.evaluate_with_us.batcas",
    "core.optimal_points",
    "core.optimal_us_per_pt",
    "parallel.threads",
    "parallel.efficiency",
    "manifest.request_manifest_us",
    "serve.parse_head_us",
    "serve.json_parse_us",
    "serve.request_parse_us",
    "serve.canonical_key_us",
    "serve.explorer_get_us",
    "serve.explorer_hit_ratio",
    "serve.encode_us_per_kb",
    "serve.service_us.evaluate",
    "serve.service_us.explore",
    "serve.service_us.optimal",
    "serve.wait_share.evaluate",
    "serve.wait_share.explore",
    "serve.wait_share.optimal",
    "serve.memo_hash_us",
    "serve.memo_get_us",
    "serve.cache_get_us",
    "serve.write_response_us",
    "serve.polls_per_req.cold",
    "serve.polls_per_req.hot",
    "serve.short_writes_per_req.cold",
    "serve.short_writes_per_req.hot",
    "serve.partial_reads_per_req.cold",
    "serve.partial_reads_per_req.hot",
    "serve.wakeups_per_computed",
    "serve.cache_hit_ratio.cold",
    "serve.cache_hit_ratio.hot",
    "serve.coalesced.cold",
    "serve.coalesced.hot",
    "serve.shed.cold",
    "serve.shed.hot",
    "serve.streamed.cold",
    "serve.streamed.hot",
    "client.send_lag_p50_us",
    "client.send_lag_p99_us",
    "client.backlog_start",
    "client.backlog_end",
    "trace.overhead.sweep",
    "trace.overhead.serve_cold",
    "trace.overhead.serve_hot",
    "trace.spans",
    "trace.cold_replayed",
    "trace.hot_replayed",
];

/// Interleaved rounds: each round runs a slice of every phase, so a slow
/// spell of the host lands in some rounds of each phase, not all of one.
/// The Fig. 15 search runs in the first round, and again in the last when
/// it is the workload's own phase.
const ROUNDS: usize = 3;

/// Set-up repetitions per phase; `setup_s` is their median.
const SWEEP_SETUP_REPS: usize = 11;
const SERVE_SETUP_REPS: usize = 5;

/// Hot requests re-issued by the traced replay.
const HOT_REPLAY_REQUESTS: usize = 50_000;

/// Cold requests replayed both untraced and traced for the overhead.
const COLD_OVERHEAD_PREFIX: usize = 1500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    ServeCold,
    ServeHot,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep" => Some(Workload::Sweep),
            "serve_cold" => Some(Workload::ServeCold),
            "serve_hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ce-serve` binary.
    pub server: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Measure the cold mix's saturation throughput instead of running.
    pub calibrate: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep|serve_cold|serve_hot --seed N --seconds S \
--trace 0|1 --server PATH/TO/ce-serve [--out-dir DIR] [--calibrate]";

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: Workload::Sweep,
            seed: 1,
            seconds: 10.0,
            trace: false,
            server: PathBuf::new(),
            out_dir: PathBuf::from("."),
            calibrate: false,
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            if flag == "--calibrate" {
                parsed.calibrate = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => parsed.workload = Workload::parse(&value).ok_or_else(bad)?,
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                }
                "--server" => parsed.server = PathBuf::from(value),
                "--out-dir" => parsed.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        if parsed.server.as_os_str().is_empty() {
            return Err(format!("--server is required\n{USAGE}"));
        }
        Ok(parsed)
    }
}

/// Measurement windows (seconds) of the three phases, and how many times
/// the Fig. 15 search runs.
struct Plan {
    explore_s: f64,
    cold_s: f64,
    hot_s: f64,
    study_passes: usize,
}

/// The workload's own phase gets the full window; the others run at
/// probe length. The traced run uses probe lengths throughout: it needs
/// the phases' outputs, not their timings.
fn plan(workload: Workload, seconds: f64, trace: bool) -> Plan {
    let probe = Plan {
        explore_s: (seconds * 0.3).max(1.0),
        cold_s: (seconds * 0.5).max(1.0),
        hot_s: (seconds * 0.3).max(1.0),
        study_passes: 1,
    };
    if trace {
        return probe;
    }
    match workload {
        Workload::Sweep => Plan {
            explore_s: seconds * 0.5,
            study_passes: 2,
            ..probe
        },
        Workload::ServeCold => Plan {
            cold_s: seconds,
            ..probe
        },
        Workload::ServeHot => Plan {
            hot_s: seconds,
            ..probe
        },
    }
}

/// Entry point of both binaries; `traced_build` is true in the one whose
/// global allocator counts allocations.
pub fn main_with(traced_build: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.trace && !traced_build {
        eprintln!("perfbench: --trace 1 needs the perfbench-traced binary");
        return ExitCode::from(2);
    }
    let outcome = if args.calibrate {
        calibrate(&args).map(|line| line + "\n")
    } else {
        run(&args).map(|report| {
            let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
            report.render(names)
        })
    };
    match outcome {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `/evaluate` per site context: the serve phases' readiness probe.
fn context_warmups() -> Vec<Vec<u8>> {
    cold::CONTEXT_SITES
        .iter()
        .map(|site| {
            wire::post(
                "/evaluate",
                &format!(
                    "{{\"site\":\"{site}\",\"strategy\":\"renewables_only\",\"design\":{{\"solar_mw\":0}}}}"
                ),
            )
        })
        .collect()
}

fn cpu_us(server: &wire::Server, from: Option<u64>) -> Option<f64> {
    Some((server.cpu_ticks()? - from?) as f64 / TICKS_PER_SEC * 1e6)
}

/// The cold phase: one server, the generated stream, and what each
/// round's segment of it produced.
struct ColdPhase {
    server: Option<wire::Server>,
    conns: Option<[wire::Conn; 2]>,
    before: Counters,
    cpu_before: Option<u64>,
    reqs: Vec<cold::ColdRequest>,
    outcomes: Vec<cold::Outcome>,
    /// Index ranges of `reqs` run in each round.
    segments: Vec<std::ops::Range<usize>>,
    counters: Counters,
    cpu_us: Option<f64>,
    setup_s: Vec<f64>,
}

impl ColdPhase {
    /// Set-up (median of repeated spawns), connection placement, and the
    /// seeded stream for `window_s`, cut into `ROUNDS` segments.
    fn start(args: &Args, window_s: f64, report: &mut Report) -> io::Result<ColdPhase> {
        let warm = context_warmups();
        let mut setup_s = Vec::new();
        let mut ready = None;
        for _ in 0..SERVE_SETUP_REPS {
            // One server at a time: stop the previous repetition's first.
            drop(ready.take());
            let (server, probe, secs) = wire::start_ready(&args.server, &warm)?;
            setup_s.push(secs);
            ready = Some((server, probe));
        }
        let (server, probe) = ready.ok_or_else(|| io::Error::other("no server"))?;
        let (mut a, b) = wire::placed_pair(server.addr, probe, false)?;
        let stats = a.stats()?;
        report.note(format!(
            "serve: binary flags {:?} (all else default: workers 2, queue 64, cache 256, shards 0 = one per core); shards {}; cold client threads 2 (sender, receiver), connections 2 (one per shard); hot client threads 1, connections 2 (one shard), pipeline depth {}",
            wire::SERVER_FLAGS.join(" "),
            wire::shard_connections(&stats).len(),
            hot::PIPELINE_DEPTH
        ));
        let reqs = cold::generate(args.seed, window_s, cold::OFFERED_RATE);
        report.note(cold::mix_note(&reqs));
        let segments = (0..ROUNDS)
            .map(|r| {
                let from = window_s * r as f64 / ROUNDS as f64;
                let to = window_s * (r + 1) as f64 / ROUNDS as f64;
                reqs.partition_point(|q| q.due_s < from)..reqs.partition_point(|q| q.due_s < to)
            })
            .collect();
        Ok(ColdPhase {
            before: Counters::from_stats(&stats),
            cpu_before: server.cpu_ticks(),
            server: Some(server),
            conns: Some([a, b]),
            outcomes: reqs.iter().map(|_| cold::Outcome::default()).collect(),
            reqs,
            segments,
            counters: Counters::default(),
            cpu_us: None,
            setup_s,
        })
    }

    /// Runs round `r`'s segment of the stream.
    fn segment(&mut self, r: usize) -> io::Result<()> {
        let range = self.segments[r].clone();
        let conns = self
            .conns
            .take()
            .ok_or_else(|| io::Error::other("no connections"))?;
        let (conns, outcomes) = cold::open_loop(conns, &self.reqs[range.clone()], usize::MAX)?;
        for (slot, outcome) in self.outcomes[range].iter_mut().zip(outcomes) {
            *slot = outcome;
        }
        self.conns = Some(conns);
        Ok(())
    }

    /// Reads the server's counters, stops it, and checks every response.
    fn finish(&mut self, window_s: f64, report: &mut Report) -> io::Result<()> {
        if let (Some(server), Some([a, _])) = (&self.server, &mut self.conns) {
            self.cpu_us = cpu_us(server, self.cpu_before);
            self.counters = Counters::from_stats(&a.stats()?).since(&self.before);
        }
        self.conns = None;
        self.server = None;
        cold::verify(&self.reqs, &self.outcomes, report);
        let c = &self.counters;
        if c.cache_hits != 0.0 || c.coalesced != 0.0 {
            report.problem(format!(
                "cold /stats deltas show {} cache hits and {} coalesced requests",
                c.cache_hits, c.coalesced
            ));
        }
        if c.shed != 0.0 || c.errors != 0.0 {
            report.problem(format!(
                "cold /stats deltas show {} shed and {} errors",
                c.shed, c.errors
            ));
        }
        let (start, end) = cold::backlog(&self.reqs, &self.outcomes, window_s);
        if end > 2.0 * start + 10.0 {
            report.problem(format!(
                "open-loop backlog grew from {start:.1} to {end:.1}: offered load above capacity, run invalid"
            ));
        }
        Ok(())
    }

    /// The `q`-quantile latency of `kinds` in each segment.
    fn per_segment(&self, kinds: &[cold::Kind], q: f64) -> Vec<f64> {
        self.segments
            .iter()
            .map(|range| {
                let range = range.clone();
                quantile(
                    &cold::latencies_us(&self.reqs[range.clone()], &self.outcomes[range], kinds),
                    q,
                )
            })
            .collect()
    }
}

/// The hot phase: one warmed server and each round's closed-loop run.
struct HotPhase {
    server: Option<wire::Server>,
    conns: Option<[wire::Conn; 2]>,
    before: Counters,
    cpu_before: Option<u64>,
    items: Vec<hot::Item>,
    stream: Vec<usize>,
    runs: Vec<hot::HotRun>,
    counters: Counters,
    cpu_us: Option<f64>,
    setup_s: Vec<f64>,
}

impl HotPhase {
    /// Set-up (median of repeated spawns, each warmed on both
    /// connections of one shard).
    fn start(args: &Args) -> io::Result<HotPhase> {
        let items = hot::working_set(args.seed);
        let stream = hot::stream(&items, args.seed);
        let warm = context_warmups();
        let mut setup_s = Vec::new();
        let mut ready = None;
        for _ in 0..SERVE_SETUP_REPS {
            // One server at a time: stop the previous repetition's first.
            drop(ready.take());
            let (server, probe, ready_s) = wire::start_ready(&args.server, &warm)?;
            let (mut a, mut b) = wire::placed_pair(server.addr, probe, true)?;
            let t = Instant::now();
            hot::warm(&mut a, &items)?;
            hot::warm(&mut b, &items)?;
            setup_s.push(ready_s + t.elapsed().as_secs_f64());
            ready = Some((server, a, b));
        }
        let (server, mut a, b) = ready.ok_or_else(|| io::Error::other("no server"))?;
        Ok(HotPhase {
            before: Counters::from_stats(&a.stats()?),
            cpu_before: server.cpu_ticks(),
            server: Some(server),
            conns: Some([a, b]),
            items,
            stream,
            runs: Vec::new(),
            counters: Counters::default(),
            cpu_us: None,
            setup_s,
        })
    }

    fn segment(&mut self, window_s: f64) {
        if let Some(conns) = &mut self.conns {
            self.runs
                .push(hot::closed_loop(conns, &self.items, &self.stream, window_s));
        }
    }

    /// Reads the server's counters, stops it, and checks the runs.
    fn finish(&mut self, report: &mut Report) -> io::Result<()> {
        if let (Some(server), Some([a, _])) = (&self.server, &mut self.conns) {
            self.cpu_us = cpu_us(server, self.cpu_before);
            self.counters = Counters::from_stats(&a.stats()?).since(&self.before);
        }
        self.conns = None;
        self.server = None;
        for run in &self.runs {
            report.ops(run.completed, run.failed);
            if let Some(e) = &run.error {
                report.ops(0, 1);
                report.problem(format!("hot loop: {e}"));
            }
            if run.failed > 0 {
                report.problem(format!("{} hot responses failed verification", run.failed));
            }
        }
        let c = &self.counters;
        let lookups = c.cache_hits + c.cache_misses;
        if lookups == 0.0 || c.cache_hits != lookups {
            report.problem(format!(
                "hot cache hit ratio {} over {lookups} lookups, expected 1.0",
                ratio(c.cache_hits, lookups)
            ));
        }
        Ok(())
    }

    fn completed(&self) -> u64 {
        self.runs.iter().map(|r| r.completed).sum()
    }
}

fn run(args: &Args) -> io::Result<Report> {
    let mut report = Report::default();
    let plan = plan(args.workload, args.seconds, args.trace);
    report.note(format!(
        "perfbench workload={} seed={} seconds={} trace={} windows: explore {}s, cold {}s, hot {}s, each in {ROUNDS} interleaved rounds",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.explore_s,
        plan.cold_s,
        plan.hot_s
    ));
    report.note(format!(
        "host: nproc {}, ce_parallel::max_threads {} (sweep engine threads), arch {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ce_parallel::max_threads(),
        std::env::consts::ARCH
    ));

    // Set-ups, then the rounds.
    let mut setup_tr = Tracer::new(args.trace);
    let mut sweep_setup = Vec::new();
    let mut sites = Vec::new();
    for _ in 0..SWEEP_SETUP_REPS {
        let t = Instant::now();
        sites = sweep::build_sites(&mut setup_tr);
        sweep_setup.push(t.elapsed().as_secs_f64());
    }
    let cases = sweep::explore_cases(&sites, args.seed);
    let mut explore = sweep::ExploreRun::new(&sites, &cases, &mut report);
    let study_cases = sweep::study_cases(&sites, args.seed);
    let mut study = sweep::Study::default();
    let mut cold = ColdPhase::start(args, plan.cold_s, &mut report)?;
    let mut hot = HotPhase::start(args)?;
    for r in 0..ROUNDS {
        explore.repeat(&sites, &cases, plan.explore_s / ROUNDS as f64, &mut report);
        if r == 0 || (plan.study_passes > 1 && r == ROUNDS - 1) {
            study.pass(&sites, &study_cases);
            report.ops(study_cases.len() as u64, 0);
        }
        cold.segment(r)?;
        hot.segment(plan.hot_s / ROUNDS as f64);
    }
    cold.finish(plan.cold_s, &mut report)?;
    hot.finish(&mut report)?;
    if study.changed {
        report.problem("a later pass of the Fig. 15 search changed an optimum");
    }
    let serial_sample: Vec<usize> = if args.trace {
        Vec::new()
    } else {
        let mut rng = util::Rng::new(args.seed, 6);
        (0..4).map(|_| rng.int(0, study_cases.len() - 1)).collect()
    };
    sweep::check_study(
        &sites,
        &study_cases,
        &study.optima,
        &serial_sample,
        &mut report,
    );
    report.note(format!(
        "sweep phase (b) result_hash {}",
        provenance::results_digest_hex(&study.optima)
    ));

    // End-to-end metrics. Contention from other tenants of the host only
    // ever slows a measurement down, so repeated measurements report
    // their best round (or, for the many explore repetitions, the lower
    // quartile).
    let setup = match args.workload {
        Workload::Sweep => &sweep_setup,
        Workload::ServeCold => &cold.setup_s,
        Workload::ServeHot => &hot.setup_s,
    };
    report.quantile("setup_s", "s", 0.5, &sorted(setup));
    report.note(format!(
        "set-up medians: sweep {:.4}s, serve_cold {:.4}s, serve_hot {:.4}s",
        median(&sweep_setup),
        median(&cold.setup_s),
        median(&hot.setup_s)
    ));
    for strategy in ce_core::StrategyKind::ALL {
        let samples = sorted(&explore.us_per_pt[sweep::index(strategy)]);
        let name = format!("explore_{}_us_per_pt", sweep::tag(strategy));
        report.quantile(&name, "us", 0.25, &samples);
    }
    report.scalar("optimal_study_s", "s", study.seconds());
    let evaluate_p50 = sorted(&cold.per_segment(&[cold::Kind::Evaluate], 0.5));
    report.quantile("evaluate_p50_us", "us", 0.0, &evaluate_p50);
    let sweep_kinds = [cold::Kind::Explore, cold::Kind::Optimal];
    let sweep_p50_ms: Vec<f64> = cold
        .per_segment(&sweep_kinds, 0.5)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    report.quantile("sweep_req_p50_ms", "ms", 0.0, &sorted(&sweep_p50_ms));
    let hot_rps: Vec<f64> = hot
        .runs
        .iter()
        .map(|r| r.completed as f64 / r.elapsed_s)
        .collect();
    report.quantile("hot_rps", "req/s", 1.0, &sorted(&hot_rps));
    let hot_p50: Vec<f64> = hot
        .runs
        .iter()
        .map(|r| quantile(&r.latencies_us, 0.5))
        .collect();
    report.quantile("hot_p50_us", "us", 0.0, &sorted(&hot_p50));
    // Server CPU per request: the serve phases' cost, which a slow spell
    // of the host's scheduling stretches far less than their wall times.
    report.scalar(
        "cold_cpu_us_per_req",
        "us",
        ratio(cold.cpu_us.unwrap_or(0.0), cold.reqs.len() as f64),
    );
    report.scalar(
        "hot_cpu_us_per_req",
        "us",
        ratio(hot.cpu_us.unwrap_or(0.0), hot.completed() as f64),
    );

    // Tails, over every sample of the window.
    let evaluate = sorted(&cold::latencies_us(
        &cold.reqs,
        &cold.outcomes,
        &[cold::Kind::Evaluate],
    ));
    report.quantile("evaluate_p99_us", "us", 0.99, &evaluate);
    let sweeps_ms: Vec<f64> = cold::latencies_us(&cold.reqs, &cold.outcomes, &sweep_kinds)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let sweeps_ms = sorted(&sweeps_ms);
    report.quantile("sweep_req_p95_ms", "ms", 0.95, &sweeps_ms);
    let hot_latencies: Vec<f64> = hot
        .runs
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let hot_latencies = sorted(&hot_latencies);
    report.quantile("hot_p99_us", "us", 0.99, &hot_latencies);
    report.note(format!(
        "tails (per-layer, no bound): evaluate_p99_us {:.1}, sweep_req_p95_ms {:.3}, hot_p99_us {:.1}",
        quantile_sorted(&evaluate, 0.99),
        quantile_sorted(&sweeps_ms, 0.95),
        quantile_sorted(&hot_latencies, 0.99)
    ));
    let lag = cold::send_lag_us(&cold.reqs, &cold.outcomes);
    let (backlog_start, backlog_end) = cold::backlog(&cold.reqs, &cold.outcomes, plan.cold_s);
    report.note(format!(
        "cold validity: send lag p50 {:.1}us p99 {:.1}us; backlog start {backlog_start:.2} end {backlog_end:.2}; /stats deltas {:?}",
        quantile(&lag, 0.5),
        quantile(&lag, 0.99),
        cold.counters
    ));
    report.note(format!(
        "hot: {} verified responses; /stats deltas {:?}",
        hot.completed(),
        hot.counters
    ));

    if args.trace {
        traced(
            args,
            &mut report,
            &TraceInputs {
                sites: &sites,
                cases: &cases,
                explore: &explore,
                study: &study_cases,
                optima: &study.optima,
                study_s: study.seconds(),
                cold: &cold,
                hot: &hot,
                setup_tr: &setup_tr,
                lag: &lag,
                backlog: (backlog_start, backlog_end),
            },
        )?;
    }
    Ok(report)
}

struct TraceInputs<'a> {
    sites: &'a [sweep::Site],
    cases: &'a [sweep::ExploreCase],
    explore: &'a sweep::ExploreRun,
    study: &'a [sweep::StudyCase],
    optima: &'a [ce_core::EvaluatedDesign],
    study_s: f64,
    cold: &'a ColdPhase,
    hot: &'a HotPhase,
    setup_tr: &'a Tracer,
    lag: &'a [f64],
    backlog: (f64, f64),
}

fn total(totals: &BTreeMap<&'static str, Totals>, name: &str) -> Totals {
    totals.get(name).copied().unwrap_or_default()
}

fn add_totals(into: &mut BTreeMap<&'static str, Totals>, from: &BTreeMap<&'static str, Totals>) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.calls += t.calls;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
}

/// The traced run: replays every phase's inputs through the layers'
/// public functions and records the per-layer metrics.
fn traced(args: &Args, report: &mut Report, inp: &TraceInputs<'_>) -> io::Result<()> {
    use ce_core::StrategyKind;
    use sweep::{index, tag};

    // Set-up spans.
    let setup = inp.setup_tr.totals();
    report.scalar(
        "grid.synthesize_ms",
        "ms",
        total(&setup, "grid.synthesize").mean_us() / 1e3,
    );
    report.scalar(
        "datacenter.demand_trace_ms",
        "ms",
        total(&setup, "datacenter.demand_trace").mean_us() / 1e3,
    );
    report.scalar(
        "core.explorer_new_ms",
        "ms",
        total(&setup, "core.explorer_new").mean_us() / 1e3,
    );

    // Sweep replay. Per case, three interleaved rounds of the serial
    // `explore`, the untraced replay and the traced replay (medians of
    // each), so slow spells of the host hit all three alike. Every
    // traced round's output is checked bit for bit against `explore`;
    // the median round's spans are kept.
    let mut scratch = sweep::ReplayScratch::default();
    let mut plain = Tracer::new(false);
    let mut serial_s = [0.0f64; 4];
    let mut replay_s = [0.0f64; 4];
    let mut traced_s = [0.0f64; 4];
    let mut case_tracers: Vec<(String, usize, Tracer)> = Vec::new();
    for (case, expected) in inp.cases.iter().zip(&inp.explore.reference) {
        let site = &inp.sites[case.site];
        let i = index(case.strategy);
        let (mut serial, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        let mut rounds: Vec<(f64, Tracer)> = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(ce_parallel::run_serial(|| {
                site.explorer.explore(case.strategy, &case.space)
            }));
            serial.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            std::hint::black_box(sweep::replay_case(site, case, &mut plain, &mut scratch));
            untraced.push(t.elapsed().as_secs_f64());
            let mut tr = Tracer::new(true);
            let t = Instant::now();
            let out = sweep::replay_case(site, case, &mut tr, &mut scratch);
            let wall = t.elapsed().as_secs_f64();
            traced.push(wall);
            rounds.push((wall, tr));
            if !sweep::same_evals(&out, expected) {
                report.problem(format!(
                    "sweep replay of {} {} differs from explore()",
                    site.state,
                    tag(case.strategy)
                ));
            }
        }
        serial_s[i] += median(&serial);
        replay_s[i] += median(&untraced);
        traced_s[i] += median(&traced);
        // Keep the spans of the median traced round.
        rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kept = rounds.swap_remove(1).1;
        case_tracers.push((
            format!("explore.{}.{}", tag(case.strategy), site.state),
            i,
            kept,
        ));
    }
    let untraced_total: f64 = replay_s.iter().sum();
    let traced_total: f64 = traced_s.iter().sum();
    report.scalar(
        "trace.overhead.sweep",
        "ratio",
        (traced_total - untraced_total) / untraced_total,
    );
    const STAGES: [&str; 6] = [
        "grid.supply",
        "scheduler.cost_order_rebuild",
        "timeseries.deficit_stats_dot",
        "battery.dispatch",
        "scheduler.schedule",
        "scheduler.combined_dispatch",
    ];
    let mut merged: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut additivity = Vec::new();
    for strategy in StrategyKind::ALL {
        let i = index(strategy);
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (_, _, tr) in case_tracers.iter().filter(|(_, s, _)| *s == i) {
            add_totals(&mut totals, &tr.totals());
        }
        // The traced round splits its wall into stage self-times and the
        // explorer's own remainder; the serial `explore` wall is divided
        // in the same shares, so stages plus self add up to it.
        let stage_us: f64 = STAGES.iter().map(|s| total(&totals, s).self_us()).sum();
        let root = total(&totals, "core.explore");
        let self_share = ratio(root.self_us(), root.total_ns as f64 / 1e3);
        let points = inp.explore.points[i] as f64;
        let serial_us = serial_s[i] * 1e6;
        let self_per_pt = serial_us / points * self_share;
        report.scalar(
            &format!("core.explore_self_us_per_pt.{}", tag(strategy)),
            "us",
            self_per_pt,
        );
        report.scalar(
            &format!("core.explore_serial_us_per_pt.{}", tag(strategy)),
            "us",
            serial_us / points,
        );
        // The replay mirrors the engine (its untraced time matches the
        // serial engine's), and the stage times fit inside the serial wall.
        let mirror = replay_s[i] / serial_s[i];
        additivity.push(format!(
            "{}: stages {:.2}us/pt + self {:.2}us/pt = serial {:.2}us/pt (traced round: stages {:.2} of {:.2}us/pt); replay/serial {:.3}",
            tag(strategy),
            serial_us / points - self_per_pt,
            self_per_pt,
            serial_us / points,
            stage_us / points,
            root.total_ns as f64 / 1e3 / points,
            mirror
        ));
        if !(0.75..=1.25).contains(&mirror) || stage_us > root.total_ns as f64 / 1e3 {
            report.problem(format!(
                "sweep additivity violated for {}: replay/serial {mirror:.3}, self {self_per_pt:.3}us/pt",
                tag(strategy)
            ));
        }
        add_totals(&mut merged, &totals);
    }
    report.note(format!("sweep additivity: {}", additivity.join("; ")));
    let all_points: f64 = inp.explore.points.iter().sum::<usize>() as f64;
    let supply = total(&merged, "grid.supply");
    report.scalar(
        "grid.supply_calls_per_pt",
        "count",
        supply.calls as f64 / all_points,
    );
    report.scalar("grid.supply_us", "us", supply.mean_us());
    report.scalar(
        "timeseries.deficit_stats_dot_us",
        "us",
        total(&merged, "timeseries.deficit_stats_dot").mean_us(),
    );
    let hours = inp.sites[0].explorer.demand().len();
    report.scalar(
        "timeseries.deficit_stats_dot_bytes",
        "bytes",
        (3 * hours * std::mem::size_of::<f64>()) as f64,
    );
    report.scalar(
        "battery.dispatch_us",
        "us",
        total(&merged, "battery.dispatch").mean_us(),
    );
    let rebuild = total(&merged, "scheduler.cost_order_rebuild");
    report.scalar(
        "scheduler.cost_order_rebuilds_per_pt",
        "count",
        rebuild.calls as f64 / inp.explore.points[index(StrategyKind::RenewablesCas)] as f64,
    );
    report.scalar("scheduler.cost_order_rebuild_us", "us", rebuild.mean_us());
    report.scalar(
        "scheduler.schedule_us",
        "us",
        total(&merged, "scheduler.schedule").mean_us(),
    );
    report.scalar(
        "scheduler.combined_dispatch_us",
        "us",
        total(&merged, "scheduler.combined_dispatch").mean_us(),
    );
    // Allocations inside the parallel `explore` calls of one repetition.
    let before = allocations();
    for case in inp.cases {
        std::hint::black_box(
            inp.sites[case.site]
                .explorer
                .explore(case.strategy, &case.space),
        );
    }
    report.scalar(
        "core.explore_allocs_per_pt",
        "count",
        (allocations() - before) as f64 / all_points,
    );

    // Fig. 15 search, serially, one span per `optimal_refined`.
    let mut study_tr = Tracer::new(true);
    let t = Instant::now();
    let serial_optima: Vec<Option<ce_core::EvaluatedDesign>> = ce_parallel::run_serial(|| {
        inp.study
            .iter()
            .map(|case| {
                study_tr.time("core.optimal_refined", || {
                    inp.sites[case.site].explorer.optimal_refined(
                        case.strategy,
                        &case.space,
                        sweep::REFINE_ROUNDS,
                    )
                })
            })
            .collect()
    });
    let serial_study_s = t.elapsed().as_secs_f64();
    for (serial, parallel) in serial_optima.iter().zip(inp.optima) {
        if serial
            .as_ref()
            .is_some_and(|s| sweep::same_eval(s, parallel))
        {
            report.ops(1, 0);
        } else {
            report.ops(0, 1);
            report.problem("a serial Fig. 15 optimum differs from the parallel one");
        }
    }
    let study_points: usize = inp.study.iter().map(sweep::study_points).sum();
    let threads = ce_parallel::max_threads() as f64;
    report.scalar("core.optimal_points", "count", study_points as f64);
    report.scalar(
        "core.optimal_us_per_pt",
        "us",
        serial_study_s * 1e6 / study_points as f64,
    );
    report.scalar("parallel.threads", "count", threads);
    report.scalar(
        "parallel.efficiency",
        "ratio",
        serial_study_s / (inp.study_s * threads),
    );

    // Cold replay: a prefix untraced, then the whole stream traced.
    let reqs = &inp.cold.reqs;
    let outcomes = &inp.cold.outcomes;
    let prefix = COLD_OVERHEAD_PREFIX.min(reqs.len());
    let base = cold::replay(reqs, outcomes, prefix, prefix, &mut Tracer::new(false));
    let mut cold_tr = Tracer::new(true);
    let replay = cold::replay(reqs, outcomes, reqs.len(), prefix, &mut cold_tr);
    report.scalar(
        "trace.overhead.serve_cold",
        "ratio",
        (replay.prefix_s - base.prefix_s) / base.prefix_s,
    );
    report.scalar("trace.cold_replayed", "count", replay.replayed as f64);
    report.ops(replay.replayed - replay.mismatches, replay.mismatches);
    if replay.mismatches > 0 {
        report.problem(format!(
            "{} replayed cold bodies differ from the served bodies",
            replay.mismatches
        ));
    }
    let ct = cold_tr.totals();
    for (metric, span) in [
        ("serve.parse_head_us", "serve.parse_head"),
        ("serve.json_parse_us", "serve.json_parse"),
        ("serve.request_parse_us", "serve.request_parse"),
        ("serve.canonical_key_us", "serve.canonical_key"),
        ("serve.explorer_get_us", "serve.explorer_get"),
        ("manifest.request_manifest_us", "manifest.request_manifest"),
    ] {
        report.scalar(metric, "us", total(&ct, span).mean_us());
    }
    for strategy in StrategyKind::ALL {
        report.scalar(
            &format!("core.evaluate_with_us.{}", tag(strategy)),
            "us",
            total(&ct, &format!("core.evaluate_with.{}", tag(strategy))).mean_us(),
        );
    }
    report.scalar("core.evaluate_with_allocs", "count", replay.evaluate_allocs);
    report.scalar(
        "serve.explorer_hit_ratio",
        "ratio",
        ratio(replay.explorer_hits as f64, replay.explorer_calls as f64),
    );
    report.scalar(
        "serve.encode_us_per_kb",
        "us/KiB",
        ratio(
            total(&ct, "serve.encode").total_ns as f64 / 1e3,
            replay.encoded_bytes as f64 / 1024.0,
        ),
    );
    for kind in cold::Kind::ALL {
        let service = replay.service_us.get(&kind).copied().unwrap_or(0.0);
        let wire = mean(&cold::latencies_us(reqs, outcomes, &[kind]));
        report.scalar(&format!("serve.service_us.{}", kind.name()), "us", service);
        report.scalar(
            &format!("serve.wait_share.{}", kind.name()),
            "ratio",
            1.0 - ratio(service, wire),
        );
    }

    // Hot replay.
    let (plain_s, _) = hot::replay(
        &inp.hot.items,
        &inp.hot.stream,
        HOT_REPLAY_REQUESTS,
        &mut Tracer::new(false),
    );
    let mut hot_tr = Tracer::new(true);
    let (hot_s, mismatches) = hot::replay(
        &inp.hot.items,
        &inp.hot.stream,
        HOT_REPLAY_REQUESTS,
        &mut hot_tr,
    );
    report.scalar(
        "trace.overhead.serve_hot",
        "ratio",
        (hot_s - plain_s) / plain_s,
    );
    report.scalar("trace.hot_replayed", "count", HOT_REPLAY_REQUESTS as f64);
    if mismatches > 0 {
        report.problem(format!("{mismatches} hot replays wrote an unexpected body"));
    }
    let ht = hot_tr.totals();
    for (metric, span) in [
        ("serve.memo_hash_us", "serve.memo_hash"),
        ("serve.memo_get_us", "serve.memo_get"),
        ("serve.cache_get_us", "serve.cache_get"),
        ("serve.write_response_us", "serve.write_response"),
    ] {
        report.scalar(metric, "us", total(&ht, span).mean_us());
    }

    // Server-side counters of the two serve phases.
    let cold_reqs = reqs.len() as f64;
    let hot_reqs = inp.hot.completed() as f64;
    for (phase, c, n) in [
        ("cold", &inp.cold.counters, cold_reqs),
        ("hot", &inp.hot.counters, hot_reqs),
    ] {
        report.scalar(
            &format!("serve.polls_per_req.{phase}"),
            "count",
            ratio(c.polls, n),
        );
        report.scalar(
            &format!("serve.short_writes_per_req.{phase}"),
            "count",
            ratio(c.short_writes, n),
        );
        report.scalar(
            &format!("serve.partial_reads_per_req.{phase}"),
            "count",
            ratio(c.partial_reads, n),
        );
        report.scalar(
            &format!("serve.cache_hit_ratio.{phase}"),
            "ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        );
        report.scalar(&format!("serve.coalesced.{phase}"), "count", c.coalesced);
        report.scalar(&format!("serve.shed.{phase}"), "count", c.shed);
        report.scalar(&format!("serve.streamed.{phase}"), "count", c.streamed);
    }
    report.scalar(
        "serve.wakeups_per_computed",
        "count",
        ratio(inp.cold.counters.wakeups, inp.cold.counters.computed),
    );
    report.scalar("client.send_lag_p50_us", "us", quantile(inp.lag, 0.5));
    report.scalar("client.send_lag_p99_us", "us", quantile(inp.lag, 0.99));
    report.scalar("client.backlog_start", "count", inp.backlog.0);
    report.scalar("client.backlog_end", "count", inp.backlog.1);

    // Spans, written once at the end.
    let mut phases: Vec<(&str, &Tracer)> = vec![("setup", inp.setup_tr)];
    for (name, _, tr) in &case_tracers {
        phases.push((name, tr));
    }
    phases.push(("study", &study_tr));
    phases.push(("cold", &cold_tr));
    phases.push(("hot", &hot_tr));
    let spans: usize = phases.iter().map(|(_, t)| t.spans().len()).sum();
    report.scalar("trace.spans", "count", spans as f64);
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!(
        "perfbench-spans-{}-{}.tsv",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans(&path, &phases)?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}

/// Saturation throughput of the cold mix: the same stream sent as fast
/// as the server answers (4 outstanding per connection).
fn calibrate(args: &Args) -> io::Result<String> {
    let (server, probe, _) = wire::start_ready(&args.server, &context_warmups())?;
    let (a, b) = wire::placed_pair(server.addr, probe, false)?;
    let mut reqs = cold::generate(args.seed, args.seconds, 1500.0);
    for r in &mut reqs {
        r.due_s = 0.0;
    }
    let (_, outcomes) = cold::open_loop([a, b], &reqs, 4)?;
    let done = outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max);
    let failed = outcomes.iter().filter(|o| o.head.is_none()).count();
    Ok(format!(
        "calibrate: {} requests in {done:.3}s = {:.1} req/s saturation ({failed} failed); 60% = {:.1} req/s",
        reqs.len(),
        reqs.len() as f64 / done,
        0.6 * reqs.len() as f64 / done
    ))
}
