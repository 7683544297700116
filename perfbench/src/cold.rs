//! The `serve_cold` phase: a seeded open loop of distinct compute
//! requests against the `ce-serve` binary, its byte-for-byte check
//! against the library, and the traced in-process replay of the stream.

use crate::trace::{allocations, Tracer};
use crate::util::{mean, Report, Rng};
use crate::wire::{Conn, Head};
use ce_core::{EvalScratch, StrategyKind};
use ce_datacenter::Fleet;
use ce_grid::BalancingAuthority;
use ce_serve::sys::{self, PollFd, POLLIN};
use ce_serve::{
    evaluation_json, execute_with_manifest, http, manifest_json, request_manifest, ComputeKind,
    ComputeRequest, ExplorerCache, Json, Limits,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second: about 20% of the
/// 1510–1550 req/s saturation `perfbench --calibrate` measured for this
/// mix (2 keep-alive connections, one per shard) on a 2-core x86-64 VM.
/// At 60% the queueing amplified the host's run-to-run speed changes
/// into latency spreads far beyond any regression bound.
pub const OFFERED_RATE: f64 = 300.0;

/// Solar and wind steps of a streamed `/explore`: 46 × 46 = 2116 points,
/// above the server's default `stream_threshold_points` (2048).
pub const STREAMED_STEPS: usize = 46;

/// The site contexts of both serve phases.
pub const CONTEXT_SITES: [&str; 3] = ["OR", "NC", "UT"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Evaluate,
    Explore,
    Optimal,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Evaluate, Kind::Explore, Kind::Optimal];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Evaluate => "evaluate",
            Kind::Explore => "explore",
            Kind::Optimal => "optimal",
        }
    }

    pub fn compute(self) -> ComputeKind {
        match self {
            Kind::Evaluate => ComputeKind::Evaluate,
            Kind::Explore => ComputeKind::Explore,
            Kind::Optimal => ComputeKind::Optimal,
        }
    }
}

/// One generated request of the cold stream.
pub struct ColdRequest {
    pub kind: Kind,
    pub strategy: StrategyKind,
    pub body: String,
    pub wire: Vec<u8>,
    /// When it is due, seconds after the loop starts.
    pub due_s: f64,
    pub manifest: bool,
    pub fresh: bool,
    pub streamed: bool,
    /// Byte-compared against the library after the run.
    pub check: bool,
}

/// `n` flags with exactly `k` set, in seeded random order.
fn pick(rng: &mut Rng, n: usize, k: usize) -> Vec<bool> {
    let mut flags: Vec<bool> = (0..n).map(|i| i < k.min(n)).collect();
    rng.shuffle(&mut flags);
    flags
}

fn share(n: usize, fraction: f64) -> usize {
    (n as f64 * fraction).round() as usize
}

/// `n` strategies in exact quarters, in seeded random order.
fn strategies(rng: &mut Rng, n: usize) -> Vec<StrategyKind> {
    let mut out: Vec<StrategyKind> = (0..n).map(|i| StrategyKind::ALL[i % 4]).collect();
    rng.shuffle(&mut out);
    out
}

/// (solar, wind, battery, extra-capacity) steps of a small `/explore`,
/// sized so every strategy's sweep costs about the same (1.5–2 ms on a
/// 2-vCPU VM): the sweeps' latency distribution then has one mode, and
/// its median does not jump between strategies' modes from run to run.
fn explore_steps(strategy: StrategyKind) -> [usize; 4] {
    match strategy {
        StrategyKind::RenewablesOnly => [8, 9, 1, 1],
        StrategyKind::RenewablesBattery => [2, 2, 8, 1],
        StrategyKind::RenewablesCas => [2, 2, 1, 6],
        StrategyKind::RenewablesBatteryCas => [2, 2, 3, 2],
    }
}

/// An axis `[0, max·U(0.5, 1), steps]` as JSON.
fn axis(rng: &mut Rng, max: f64, steps: usize) -> String {
    format!("[0,{},{steps}]", max * rng.range(0.5, 1.0))
}

/// The cold stream for `seed`: seeded Poisson arrivals at `rate` over
/// `window_s` seconds, with exact shares of 80% `/evaluate`, 15%
/// `/explore` (one of them streamed), 5% `/optimal`
/// (`refine_rounds` 0–2), 10% `"manifest": true` on `/evaluate` and
/// `/explore`, and 1% fresh `{"ba","demand_mw"}` contexts on
/// `/evaluate`. Every body is distinct.
pub fn generate(seed: u64, window_s: f64, rate: f64) -> Vec<ColdRequest> {
    let mut rng = Rng::new(seed, 3);
    let mut dues = Vec::new();
    let mut t = rng.exp(rate);
    while t < window_s {
        dues.push(t);
        t += rng.exp(rate);
    }
    let n = dues.len();
    let n_optimal = share(n, 0.05);
    let n_explore = share(n, 0.15);
    let n_evaluate = n - n_optimal - n_explore;
    let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Evaluate, n_evaluate)
        .chain(std::iter::repeat_n(Kind::Explore, n_explore))
        .chain(std::iter::repeat_n(Kind::Optimal, n_optimal))
        .collect();
    rng.shuffle(&mut kinds);
    let strategy_of = [
        strategies(&mut rng, n_evaluate),
        strategies(&mut rng, n_explore),
        strategies(&mut rng, n_optimal),
    ];
    // The streamed sweep comes from the first four fifths of the explores
    // so that later arrivals follow it on its connection: `ce-serve`
    // parses a connection's pipelined requests again only on its next
    // read event once a response over 256 KiB has been flushed.
    let n_streamed = 1.min(n_explore);
    let mut streamed = pick(&mut rng, n_explore * 4 / 5, n_streamed);
    streamed.resize(n_explore, false);
    let evaluate_manifest = pick(&mut rng, n_evaluate, share(n_evaluate, 0.10));
    let explore_manifest = pick(&mut rng, n_explore, share(n_explore, 0.10));
    let fresh = pick(&mut rng, n_evaluate, share(n, 0.01));
    let n_sweeps = n_explore + n_optimal;
    let sweep_check = pick(&mut rng, n_sweeps, share(n_sweeps, 0.10));
    let mut sites: Vec<&str> = (0..n).map(|i| CONTEXT_SITES[i % 3]).collect();
    rng.shuffle(&mut sites);

    let fleet = Fleet::meta_us();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut position = [0usize; 3];
    for (i, (&kind, &due_s)) in kinds.iter().zip(&dues).enumerate() {
        let j = position[kind as usize];
        position[kind as usize] += 1;
        let strategy = strategy_of[kind as usize][j];
        let (is_fresh, manifest, is_streamed, check) = match kind {
            Kind::Evaluate => (fresh[j], evaluate_manifest[j], false, true),
            Kind::Explore => (
                false,
                explore_manifest[j],
                streamed[j],
                sweep_check[j] || streamed[j],
            ),
            Kind::Optimal => (false, false, false, sweep_check[n_explore + j]),
        };
        let strategy = if is_streamed {
            StrategyKind::RenewablesOnly
        } else {
            strategy
        };
        loop {
            let (context, avg) = if is_fresh {
                let ba = BalancingAuthority::ALL[rng.int(0, BalancingAuthority::ALL.len() - 1)];
                let mw = rng.range(5.0, 60.0);
                (format!("\"ba\":\"{}\",\"demand_mw\":{mw}", ba.code()), mw)
            } else {
                let site = fleet.site(sites[i]).expect("context site");
                (format!("\"site\":\"{}\"", sites[i]), site.avg_power_mw())
            };
            let head = format!("{{{context},\"strategy\":\"{}\"", strategy.canonical_key());
            let tail = if manifest { ",\"manifest\":true}" } else { "}" };
            let body = match kind {
                Kind::Evaluate => format!(
                    "{head},\"design\":{{\"solar_mw\":{},\"wind_mw\":{},\"battery_mwh\":{},\"extra_capacity_fraction\":{}}}{tail}",
                    rng.range(0.0, 30.0 * avg),
                    rng.range(0.0, 30.0 * avg),
                    rng.range(0.0, 24.0 * avg),
                    rng.unit()
                ),
                Kind::Explore if is_streamed => format!(
                    "{head},\"space\":{{\"solar\":{},\"wind\":{}}}{tail}",
                    axis(&mut rng, 30.0 * avg, STREAMED_STEPS),
                    axis(&mut rng, 30.0 * avg, STREAMED_STEPS)
                ),
                Kind::Explore => {
                    let steps = explore_steps(strategy);
                    format!(
                        "{head},\"space\":{{\"solar\":{},\"wind\":{},\"battery\":{},\"extra_capacity\":{}}}{tail}",
                        axis(&mut rng, 30.0 * avg, steps[0]),
                        axis(&mut rng, 30.0 * avg, steps[1]),
                        axis(&mut rng, 24.0 * avg, steps[2]),
                        axis(&mut rng, 1.0, steps[3])
                    )
                }
                Kind::Optimal => format!(
                    "{head},\"space\":{{\"solar\":{},\"wind\":{},\"battery\":{},\"extra_capacity\":{}}},\"refine_rounds\":{}}}",
                    axis(&mut rng, 30.0 * avg, 2),
                    axis(&mut rng, 30.0 * avg, 2),
                    axis(&mut rng, 24.0 * avg, 2),
                    axis(&mut rng, 1.0, 2),
                    rng.int(0, 2)
                ),
            };
            if seen.insert(body.clone()) {
                let path = format!("/{}", kind.name());
                out.push(ColdRequest {
                    kind,
                    strategy,
                    wire: crate::wire::post(&path, &body),
                    body,
                    due_s,
                    manifest,
                    fresh: is_fresh,
                    streamed: is_streamed,
                    check,
                });
                break;
            }
        }
    }
    out
}

/// What happened to one request on the wire (times in seconds since the
/// loop started).
#[derive(Debug, Default)]
pub struct Outcome {
    pub sent_s: f64,
    pub done_s: f64,
    pub head: Option<Head>,
    pub body: Vec<u8>,
    pub error: Option<String>,
}

/// Writes each request at its due time, alternating between the two
/// connections (with `max_outstanding`, never more than that many
/// unanswered on one connection). Returns each request's send time, or
/// the error that stopped sending.
fn send_all(
    mut writers: [TcpStream; 2],
    reqs: &[ColdRequest],
    received: &[AtomicUsize; 2],
    abort: &AtomicBool,
    t0: Instant,
    max_outstanding: usize,
) -> (Vec<f64>, Option<String>) {
    let offset = reqs.first().map_or(0.0, |r| r.due_s);
    let mut sent_s = vec![0.0; reqs.len()];
    let mut sent = [0usize; 2];
    for (i, req) in reqs.iter().enumerate() {
        let c = i % 2;
        while sent[c] - received[c].load(Ordering::Acquire) >= max_outstanding {
            if abort.load(Ordering::Acquire) {
                return (sent_s, Some("receiver stopped".into()));
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        let wait = req.due_s - offset - t0.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        if abort.load(Ordering::Acquire) {
            return (sent_s, Some("receiver stopped".into()));
        }
        if let Err(e) = writers[c].write_all(&req.wire) {
            abort.store(true, Ordering::Release);
            return (sent_s, Some(format!("send: {e}")));
        }
        sent_s[i] = t0.elapsed().as_secs_f64();
        sent[c] += 1;
    }
    (sent_s, None)
}

/// Reads both connections as responses arrive (woken by `poll(2)`
/// readiness, so arrival times are not rounded to a timer tick) and
/// matches them in order to the requests sent on each. Returns the
/// connections, `(done_s, head, body)` per answered request, and the
/// error that stopped reading, if any.
#[allow(clippy::type_complexity)]
fn receive_all(
    mut conns: [Conn; 2],
    reqs: &[ColdRequest],
    received: &[AtomicUsize; 2],
    abort: &AtomicBool,
    t0: Instant,
) -> ([Conn; 2], Vec<Option<(f64, Head, Vec<u8>)>>, Option<String>) {
    let span_s = reqs.last().map_or(0.0, |r| r.due_s) - reqs.first().map_or(0.0, |r| r.due_s);
    let deadline_s = span_s + 60.0;
    let lane_len = [reqs.len().div_ceil(2), reqs.len() / 2];
    let mut next = [0usize; 2];
    let mut out: Vec<Option<(f64, Head, Vec<u8>)>> = reqs.iter().map(|_| None).collect();
    let mut body = Vec::new();
    let fail = |e: String, conns: [Conn; 2], out| {
        abort.store(true, Ordering::Release);
        (conns, out, Some(e))
    };
    while next[0] < lane_len[0] || next[1] < lane_len[1] {
        if t0.elapsed().as_secs_f64() > deadline_s {
            return fail("timed out waiting for responses".into(), conns, out);
        }
        if abort.load(Ordering::Acquire) {
            return fail("sender stopped".into(), conns, out);
        }
        let waiting: Vec<usize> = (0..2).filter(|&c| next[c] < lane_len[c]).collect();
        let mut fds: Vec<PollFd> = waiting
            .iter()
            .map(|&c| PollFd::new(conns[c].stream.as_raw_fd(), POLLIN))
            .collect();
        if let Err(e) = sys::poll(&mut fds, 100) {
            if e.kind() != std::io::ErrorKind::Interrupted {
                return fail(format!("poll: {e}"), conns, out);
            }
            continue;
        }
        for (fd, &c) in fds.iter().zip(&waiting) {
            if !fd.returned(POLLIN) && !fd.failed() {
                continue;
            }
            if let Err(e) = conns[c].fill() {
                return fail(format!("read: {e}"), conns, out);
            }
            loop {
                match conns[c].try_parse(&mut body) {
                    Ok(Some(head)) => {
                        let i = 2 * next[c] + c;
                        if i >= reqs.len() {
                            return fail("unsolicited response".into(), conns, out);
                        }
                        out[i] =
                            Some((t0.elapsed().as_secs_f64(), head, std::mem::take(&mut body)));
                        next[c] += 1;
                        received[c].fetch_add(1, Ordering::Release);
                    }
                    Ok(None) => break,
                    Err(e) => return fail(format!("framing: {e}"), conns, out),
                }
            }
        }
    }
    (conns, out, None)
}

/// Runs a contiguous slice of the stream over two connections, requests
/// alternating between them: one client thread writes each request at
/// its due time (counted from the slice's first), the other reads
/// responses. Returns the connections and one outcome per request, with
/// times on the stream's clock.
pub fn open_loop(
    conns: [Conn; 2],
    reqs: &[ColdRequest],
    max_outstanding: usize,
) -> std::io::Result<([Conn; 2], Vec<Outcome>)> {
    let writers = [conns[0].stream.try_clone()?, conns[1].stream.try_clone()?];
    let received = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let abort = AtomicBool::new(false);
    let t0 = Instant::now();
    let ((sent_s, send_error), (conns, answers, receive_error)) = std::thread::scope(|s| {
        let sender = s.spawn(|| send_all(writers, reqs, &received, &abort, t0, max_outstanding));
        let receiver = s.spawn(|| receive_all(conns, reqs, &received, &abort, t0));
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let error = receive_error.or(send_error);
    let offset = reqs.first().map_or(0.0, |r| r.due_s);
    let outcomes = answers
        .into_iter()
        .zip(sent_s)
        .map(|(answer, sent_s)| match answer {
            Some((done_s, head, body)) => Outcome {
                sent_s: sent_s + offset,
                done_s: done_s + offset,
                head: Some(head),
                body,
                error: None,
            },
            None => Outcome {
                sent_s: sent_s + offset,
                error: Some(error.clone().unwrap_or_else(|| "no response".into())),
                ..Outcome::default()
            },
        })
        .collect();
    Ok((conns, outcomes))
}

/// Checks every response's status and framing, that none came from the
/// cache or a coalesced computation, and byte-compares every checked body
/// against `execute_with_manifest(..).0.encode()` in-process.
pub fn verify(reqs: &[ColdRequest], outcomes: &[Outcome], report: &mut Report) {
    let limits = Limits::default();
    let explorers = ExplorerCache::new(64);
    let check: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].check).collect();
    let matches = ce_parallel::par_map_with(&check, EvalScratch::default, |scratch, &i| {
        let req = &reqs[i];
        let json = Json::parse(&req.body).expect("generated bodies are JSON");
        let parsed = ComputeRequest::parse(req.kind.compute(), &json, &limits)
            .expect("generated bodies are valid requests");
        let explorer = explorers
            .get_or_build(parsed.context())
            .expect("generated contexts build");
        let expected = execute_with_manifest(&parsed, &explorer, scratch)
            .0
            .encode();
        outcomes[i].body == expected.as_bytes()
    });
    let mut matched = vec![true; reqs.len()];
    for (&i, ok) in check.iter().zip(matches) {
        matched[i] = ok;
    }
    let mut first_problem: Option<String> = None;
    for (i, (req, o)) in reqs.iter().zip(outcomes).enumerate() {
        let problem = match (&o.error, o.head) {
            (Some(e), _) => Some(e.clone()),
            (None, None) => Some("no response".to_string()),
            (None, Some(h)) if h.status != 200 => Some(format!("status {}", h.status)),
            (None, Some(h)) if h.cache_hit != Some(false) || h.coalesced => {
                Some("answered from the cache or coalesced".to_string())
            }
            (None, Some(h)) if h.chunked != req.streamed => Some(format!(
                "chunked framing {} for streamed={}",
                h.chunked, req.streamed
            )),
            _ if !matched[i] => Some("body differs from the library encoding".to_string()),
            _ => None,
        };
        match problem {
            None => report.ops(1, 0),
            Some(p) => {
                report.ops(0, 1);
                first_problem.get_or_insert(format!("cold /{} request {i}: {p}", req.kind.name()));
            }
        }
    }
    if let Some(p) = first_problem {
        report.problem(p);
    }
}

/// Latencies (µs, from due time to the whole response) of the requests
/// of the given kinds that succeeded.
pub fn latencies_us(reqs: &[ColdRequest], outcomes: &[Outcome], kinds: &[Kind]) -> Vec<f64> {
    reqs.iter()
        .zip(outcomes)
        .filter(|(r, o)| kinds.contains(&r.kind) && o.error.is_none() && o.head.is_some())
        .map(|(r, o)| (o.done_s - r.due_s) * 1e6)
        .collect()
}

/// Send lateness (µs) of every request against its schedule.
pub fn send_lag_us(reqs: &[ColdRequest], outcomes: &[Outcome]) -> Vec<f64> {
    reqs.iter()
        .zip(outcomes)
        .filter(|(_, o)| o.error.is_none())
        .map(|(r, o)| ((o.sent_s - r.due_s) * 1e6).max(0.0))
        .collect()
}

/// Mean in-flight backlog (due but not yet answered) over the first and
/// the last tenth of the window, sampled every millisecond.
pub fn backlog(reqs: &[ColdRequest], outcomes: &[Outcome], window_s: f64) -> (f64, f64) {
    let mut due: Vec<f64> = reqs.iter().map(|r| r.due_s).collect();
    let mut done: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.head.is_some() {
                o.done_s
            } else {
                f64::INFINITY
            }
        })
        .collect();
    due.sort_by(f64::total_cmp);
    done.sort_by(f64::total_cmp);
    let at = |t: f64| {
        let d = due.partition_point(|&x| x <= t) as f64;
        let c = done.partition_point(|&x| x <= t) as f64;
        d - c
    };
    let avg = |from: f64, to: f64| {
        let samples: Vec<f64> = (0..)
            .map(|k| from + k as f64 * 1e-3)
            .take_while(|&t| t < to)
            .map(at)
            .collect();
        mean(&samples)
    };
    (avg(0.0, 0.1 * window_s), avg(0.9 * window_s, window_s))
}

/// Shares of the realized mix, for the result notes.
pub fn mix_note(reqs: &[ColdRequest]) -> String {
    let n = reqs.len().max(1) as f64;
    let count = |f: &dyn Fn(&ColdRequest) -> bool| reqs.iter().filter(|r| f(r)).count() as f64 / n;
    let mut line = format!("cold mix: {} requests;", reqs.len());
    for kind in Kind::ALL {
        line.push_str(&format!(
            " {}={:.4}",
            kind.name(),
            count(&|r| r.kind == kind)
        ));
    }
    for strategy in StrategyKind::ALL {
        line.push_str(&format!(
            " {}={:.4}",
            crate::sweep::tag(strategy),
            count(&|r| r.strategy == strategy)
        ));
    }
    line.push_str(&format!(
        " manifest={:.4} fresh_context={:.4} streamed={:.4} byte_checked={:.4}",
        count(&|r| r.manifest),
        count(&|r| r.fresh),
        count(&|r| r.streamed),
        count(&|r| r.check)
    ));
    line
}

/// Totals of one in-process replay of the cold stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of the first `prefix` requests, seconds.
    pub prefix_s: f64,
    /// Mean in-process service time per kind, µs.
    pub service_us: BTreeMap<Kind, f64>,
    pub explorer_hits: u64,
    pub explorer_calls: u64,
    pub encoded_bytes: u64,
    /// Allocations per warmed `evaluate_with` call.
    pub evaluate_allocs: f64,
    pub mismatches: u64,
    pub replayed: u64,
}

fn evaluate_span(strategy: StrategyKind) -> &'static str {
    match strategy {
        StrategyKind::RenewablesOnly => "core.evaluate_with.ro",
        StrategyKind::RenewablesBattery => "core.evaluate_with.bat",
        StrategyKind::RenewablesCas => "core.evaluate_with.cas",
        StrategyKind::RenewablesBatteryCas => "core.evaluate_with.batcas",
    }
}

/// Re-issues the first `limit` requests of the cold stream in-process
/// through the serve path's public functions — head parse, JSON parse,
/// request validation, canonical key, explorer cache, compute, JSON
/// building, manifest, encode — mirroring `execute_with_manifest`, one
/// span per call, on one thread as the server's workers run. Each
/// replayed body must equal the body that was served.
pub fn replay(
    reqs: &[ColdRequest],
    outcomes: &[Outcome],
    limit: usize,
    prefix: usize,
    tr: &mut Tracer,
) -> Replay {
    let limits = Limits::default();
    let cache = ExplorerCache::new(4);
    let mut last: BTreeMap<String, Arc<ce_core::CarbonExplorer>> = BTreeMap::new();
    let mut scratch = EvalScratch::default();
    let mut result = Replay::default();
    let mut service: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut warm_evaluates = 0u64;
    let mut evaluate_allocs = 0u64;
    let mut counted_evaluates = 0u64;
    let started = Instant::now();
    ce_parallel::run_serial(|| {
        for (i, (req, outcome)) in reqs.iter().zip(outcomes).enumerate().take(limit) {
            if i == prefix {
                result.prefix_s = started.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            tr.begin("serve.request");
            let head_bytes = &req.wire[..req.wire.len() - req.body.len()];
            tr.time("serve.parse_head", || http::parse_head(head_bytes))
                .expect("generated heads parse");
            let json = tr
                .time("serve.json_parse", || Json::parse(&req.body))
                .expect("generated bodies are JSON");
            let parsed = tr
                .time("serve.request_parse", || {
                    ComputeRequest::parse(req.kind.compute(), &json, &limits)
                })
                .expect("generated bodies are valid requests");
            let _key = tr.time("serve.canonical_key", || parsed.canonical_key());
            let explorer = tr
                .time("serve.explorer_get", || {
                    cache.get_or_build(parsed.context())
                })
                .expect("generated contexts build");
            let ctx_key = parsed.context().canonical_key();
            result.explorer_calls += 1;
            if last
                .get(&ctx_key)
                .is_some_and(|e| Arc::ptr_eq(e, &explorer))
            {
                result.explorer_hits += 1;
            }
            last.insert(ctx_key, Arc::clone(&explorer));
            let json = match &parsed {
                ComputeRequest::Evaluate {
                    strategy,
                    design,
                    manifest,
                    ..
                } => {
                    let before = allocations();
                    let eval = tr.time(evaluate_span(*strategy), || {
                        explorer.evaluate_with(*strategy, design, &mut scratch)
                    });
                    warm_evaluates += 1;
                    if warm_evaluates > 16 {
                        evaluate_allocs += allocations() - before;
                        counted_evaluates += 1;
                    }
                    let mut json = tr.time("serve.to_json", || evaluation_json(&eval));
                    if *manifest {
                        let m = tr.time("manifest.request_manifest", || {
                            request_manifest(&parsed, std::slice::from_ref(&eval))
                        });
                        if let Json::Obj(fields) = &mut json {
                            fields.push(("manifest".to_string(), manifest_json(&m)));
                        }
                    }
                    json
                }
                ComputeRequest::Explore {
                    strategy,
                    space,
                    manifest,
                    ..
                } => {
                    let results = tr.time("core.explore", || explorer.explore(*strategy, space));
                    let built = manifest.then(|| {
                        tr.time("manifest.request_manifest", || {
                            request_manifest(&parsed, &results)
                        })
                    });
                    tr.time("serve.to_json", || {
                        let mut fields = vec![
                            ("strategy", Json::string(strategy.canonical_key())),
                            ("count", Json::Num(results.len() as f64)),
                            (
                                "results",
                                Json::Arr(results.iter().map(evaluation_json).collect()),
                            ),
                        ];
                        if let Some(m) = &built {
                            fields.push(("manifest", manifest_json(m)));
                        }
                        Json::obj(fields)
                    })
                }
                ComputeRequest::Optimal {
                    strategy,
                    space,
                    refine_rounds,
                    ..
                } => {
                    let best = tr.time("core.optimal", || {
                        if *refine_rounds > 0 {
                            explorer.optimal_refined(*strategy, space, *refine_rounds)
                        } else {
                            explorer.optimal(*strategy, space)
                        }
                    });
                    tr.time("serve.to_json", || match best {
                        Some(best) => Json::obj(vec![
                            ("strategy", Json::string(strategy.canonical_key())),
                            ("found", Json::Bool(true)),
                            ("best", evaluation_json(&best)),
                        ]),
                        None => Json::obj(vec![
                            ("strategy", Json::string(strategy.canonical_key())),
                            ("found", Json::Bool(false)),
                        ]),
                    })
                }
            };
            let body = tr.time("serve.encode", || json.encode());
            tr.end();
            service
                .entry(req.kind)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e6);
            result.encoded_bytes += body.len() as u64;
            result.replayed += 1;
            if outcome.head.is_some() && outcome.body != body.as_bytes() {
                result.mismatches += 1;
            }
        }
    });
    if result.prefix_s == 0.0 {
        result.prefix_s = started.elapsed().as_secs_f64();
    }
    result.service_us = service.iter().map(|(k, v)| (*k, mean(v))).collect();
    result.evaluate_allocs = if counted_evaluates == 0 {
        0.0
    } else {
        evaluate_allocs as f64 / counted_evaluates as f64
    };
    result
}
