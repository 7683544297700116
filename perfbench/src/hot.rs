//! The `serve_hot` phase: a closed loop of pipelined replays of a warmed
//! working set, and the traced in-process replay of the hot path through
//! the raw-bytes memo, the response cache and the response writer.

use crate::cold::CONTEXT_SITES;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::wire::{self, Conn};
use ce_core::{DesignSpace, StrategyKind};
use ce_datacenter::Fleet;
use ce_serve::cache::{CachedBody, RawMemo, ShardCache};
use ce_serve::hash::hash_bytes;
use ce_serve::request::{explore_group_fragment, explore_prefix, EXPLORE_SUFFIX};
use ce_serve::{
    execute_with_manifest, http, manifest_json, ComputeKind, ComputeRequest, ExplorerCache, Json,
    Limits,
};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Requests per burst on each connection.
pub const PIPELINE_DEPTH: usize = 16;

/// Length of the seeded request sequence the connections cycle through.
pub const STREAM_LEN: usize = 4096;

/// Per-shard response-cache capacity of the default server (256 entries
/// over 2 shards); the working set stays well inside it.
pub const SHARD_CACHE: usize = 128;

/// One working-set request with the exact body it must be answered with.
pub struct Item {
    pub wire: Vec<u8>,
    /// The request body (empty for `GET /manifest/<hash>`).
    pub body: String,
    /// The compute endpoint, `None` for a manifest read.
    pub kind: Option<ComputeKind>,
    pub expected: Vec<u8>,
    /// Fragments of a streamed `/explore` body, in wire order.
    pub fragments: Vec<String>,
}

/// The working set for `seed`: 40 `/evaluate` (8 with a manifest), 3
/// small `/explore`, 1 streamed `/explore`, and a `GET /manifest/<hash>`
/// for every manifest; expected bodies computed in-process.
pub fn working_set(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed, 4);
    let fleet = Fleet::meta_us();
    let limits = Limits::default();
    let explorers = ExplorerCache::new(8);
    let mut scratch = ce_core::EvalScratch::default();
    let mut bodies: Vec<(ComputeKind, String)> = Vec::new();
    for i in 0..40 {
        let site = CONTEXT_SITES[i % 3];
        let avg = fleet.site(site).expect("context site").avg_power_mw();
        let manifest = if i % 5 == 0 { ",\"manifest\":true" } else { "" };
        bodies.push((
            ComputeKind::Evaluate,
            format!(
                "{{\"site\":\"{site}\",\"strategy\":\"{}\",\"design\":{{\"solar_mw\":{},\"wind_mw\":{},\"battery_mwh\":{},\"extra_capacity_fraction\":{}}}{manifest}}}",
                StrategyKind::ALL[i % 4].canonical_key(),
                rng.range(0.0, 30.0 * avg),
                rng.range(0.0, 30.0 * avg),
                rng.range(0.0, 24.0 * avg),
                rng.unit()
            ),
        ));
    }
    for (i, site) in CONTEXT_SITES.into_iter().enumerate() {
        let avg = fleet.site(site).expect("context site").avg_power_mw();
        bodies.push((
            ComputeKind::Explore,
            format!(
                "{{\"site\":\"{site}\",\"strategy\":\"{}\",\"space\":{{\"solar\":[0,{},3],\"wind\":[0,{},3],\"battery\":[0,{},2],\"extra_capacity\":[0,1,2]}}}}",
                StrategyKind::ALL[i + 1].canonical_key(),
                30.0 * avg * rng.range(0.5, 1.0),
                30.0 * avg * rng.range(0.5, 1.0),
                24.0 * avg * rng.range(0.5, 1.0)
            ),
        ));
    }
    let avg = fleet.site("UT").expect("context site").avg_power_mw();
    let steps = crate::cold::STREAMED_STEPS;
    bodies.push((
        ComputeKind::Explore,
        format!(
            "{{\"site\":\"UT\",\"strategy\":\"renewables_only\",\"space\":{{\"solar\":[0,{},{steps}],\"wind\":[0,{},{steps}]}}}}",
            30.0 * avg * rng.range(0.5, 1.0),
            30.0 * avg * rng.range(0.5, 1.0)
        ),
    ));

    let mut items = Vec::new();
    let mut reads = Vec::new();
    for (kind, body) in bodies {
        let json = Json::parse(&body).expect("generated bodies are JSON");
        let request = ComputeRequest::parse(kind, &json, &limits).expect("valid request");
        let explorer = explorers
            .get_or_build(request.context())
            .expect("context builds");
        let (json, manifest) = execute_with_manifest(&request, &explorer, &mut scratch);
        let expected = json.encode();
        let mut fragments = Vec::new();
        if let ComputeRequest::Explore {
            strategy, space, ..
        } = &request
        {
            if request.explore_points().unwrap_or(0) >= 2048 {
                fragments = streamed_fragments(&explorer, *strategy, space);
            }
        }
        if let Some(m) = manifest {
            reads.push(Item {
                wire: wire::get(&format!("/manifest/{}", m.address())),
                body: String::new(),
                kind: None,
                expected: manifest_json(&m).encode().into_bytes(),
                fragments: Vec::new(),
            });
        }
        let path = match kind {
            ComputeKind::Evaluate => "/evaluate",
            ComputeKind::Explore => "/explore",
            ComputeKind::Optimal => "/optimal",
        };
        items.push(Item {
            wire: wire::post(path, &body),
            body,
            kind: Some(kind),
            expected: expected.into_bytes(),
            fragments,
        });
    }
    items.extend(reads);
    items
}

/// The fragments a worker streams for a chunked `/explore`: prefix, one
/// per supply group, suffix.
fn streamed_fragments(
    explorer: &ce_core::CarbonExplorer,
    strategy: StrategyKind,
    space: &DesignSpace,
) -> Vec<String> {
    let points = space.restricted_to(strategy).len();
    let mut fragments = vec![explore_prefix(strategy, points)];
    let mut first = true;
    explorer.explore_groups(strategy, space, |group| {
        fragments.push(explore_group_fragment(group, first));
        first = false;
    });
    fragments.push(EXPLORE_SUFFIX.to_string());
    fragments
}

/// The seeded request sequence: ~4% manifest reads, ~3% small `/explore`
/// replays, 2 streamed `/explore` replays, the rest `/evaluate` replays.
pub fn stream(items: &[Item], seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 5);
    let reads: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].kind.is_none())
        .collect();
    let streamed: Vec<usize> = (0..items.len())
        .filter(|&i| !items[i].fragments.is_empty())
        .collect();
    let explores: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].kind == Some(ComputeKind::Explore) && items[i].fragments.is_empty())
        .collect();
    let evaluates: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].kind == Some(ComputeKind::Evaluate))
        .collect();
    let n_reads = STREAM_LEN * 4 / 100;
    let n_explores = STREAM_LEN * 3 / 100;
    let n_streamed = 2;
    let mut out = Vec::with_capacity(STREAM_LEN);
    let mut take = |from: &[usize], n: usize, rng: &mut Rng| {
        for _ in 0..n {
            out.push(from[rng.int(0, from.len() - 1)]);
        }
    };
    take(&reads, n_reads, &mut rng);
    take(&explores, n_explores, &mut rng);
    take(&streamed, n_streamed, &mut rng);
    take(
        &evaluates,
        STREAM_LEN - n_reads - n_explores - n_streamed,
        &mut rng,
    );
    rng.shuffle(&mut out);
    out
}

/// Sends every working-set request once on `conn` (compute requests
/// first, so the manifests exist before they are read) and checks each
/// answer's status and bytes.
pub fn warm(conn: &mut Conn, items: &[Item]) -> io::Result<()> {
    let mut body = Vec::new();
    for item in items {
        let head = conn.call(&item.wire, &mut body)?;
        if head.status != 200 || body != item.expected {
            return Err(io::Error::other(format!(
                "warm-up answered {} with {} bytes, expected {}",
                head.status,
                body.len(),
                item.expected.len()
            )));
        }
    }
    Ok(())
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct HotRun {
    pub completed: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub latencies_us: Vec<f64>,
    pub error: Option<String>,
}

/// The closed loop: one client thread keeps a burst of `PIPELINE_DEPTH`
/// requests in flight on each of the two connections, reading one
/// connection's burst while the server works on the other's. Latency is
/// measured from the burst write to each verified response.
pub fn closed_loop(
    conns: &mut [Conn; 2],
    items: &[Item],
    stream: &[usize],
    window_s: f64,
) -> HotRun {
    let mut run = HotRun::default();
    let mut cursor = [0, STREAM_LEN / 2];
    let mut inflight: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut written = [Instant::now(); 2];
    let mut burst = Vec::new();
    let mut body = Vec::new();
    let t0 = Instant::now();
    let mut send = |c: usize,
                    conns: &mut [Conn; 2],
                    inflight: &mut [Vec<usize>; 2],
                    written: &mut [Instant; 2]|
     -> io::Result<()> {
        burst.clear();
        inflight[c].clear();
        for _ in 0..PIPELINE_DEPTH {
            let idx = stream[cursor[c] % stream.len()];
            cursor[c] += 1;
            burst.extend_from_slice(&items[idx].wire);
            inflight[c].push(idx);
            // A streamed body ends its burst: `ce-serve` stops parsing a
            // connection's pipelined requests while more than 256 KiB of
            // output is pending, and if one flush then drains it all, the
            // requests already buffered behind it wait for the next read
            // event — which a closed-loop client never sends.
            if !items[idx].fragments.is_empty() {
                break;
            }
        }
        written[c] = Instant::now();
        conns[c].send(&burst)
    };
    let outcome = (|| -> io::Result<()> {
        send(0, conns, &mut inflight, &mut written)?;
        send(1, conns, &mut inflight, &mut written)?;
        let mut active = [true, true];
        while active[0] || active[1] {
            for c in 0..2 {
                if !active[c] {
                    continue;
                }
                for &idx in &inflight[c] {
                    let head = conns[c].recv(&mut body)?;
                    let item = &items[idx];
                    let ok = head.status == 200
                        && (item.kind.is_none() || head.cache_hit == Some(true))
                        && body == item.expected;
                    run.latencies_us
                        .push(written[c].elapsed().as_secs_f64() * 1e6);
                    if ok {
                        run.completed += 1;
                    } else {
                        run.failed += 1;
                    }
                }
                if t0.elapsed().as_secs_f64() >= window_s {
                    active[c] = false;
                } else {
                    send(c, conns, &mut inflight, &mut written)?;
                }
            }
        }
        Ok(())
    })();
    run.elapsed_s = t0.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        run.error = Some(e.to_string());
    }
    run
}

/// The server's memo key: the raw body hash, separated per endpoint
/// (mirrors `ce-serve`'s private `memo_hash`).
fn memo_hash(kind: ComputeKind, body: &[u8]) -> u64 {
    hash_bytes(body) ^ (kind as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Re-issues `requests` hot requests in-process through the calls one
/// event-loop shard makes for a cached repeat — head parse, memo hash,
/// `RawMemo::get`, `ShardCache::get`, response writing — one span per
/// call. Returns the wall time and how many written responses did not
/// carry the expected body.
pub fn replay(items: &[Item], stream: &[usize], requests: usize, tr: &mut Tracer) -> (f64, u64) {
    let limits = Limits::default();
    let mut memo = RawMemo::new(SHARD_CACHE.max(64));
    let mut cache = ShardCache::new(SHARD_CACHE);
    for item in items {
        let Some(kind) = item.kind else { continue };
        let json = Json::parse(&item.body).expect("working-set bodies are JSON");
        let request = ComputeRequest::parse(kind, &json, &limits).expect("valid request");
        let key: Arc<str> = Arc::from(request.canonical_key().as_str());
        let expected = std::str::from_utf8(&item.expected).expect("UTF-8 body");
        let cached = if item.fragments.is_empty() {
            CachedBody::Full(Arc::from(expected))
        } else {
            CachedBody::Chunked(
                item.fragments
                    .iter()
                    .map(|f| Arc::from(f.as_str()))
                    .collect(),
            )
        };
        cache.insert(&key, cached);
        memo.insert(
            memo_hash(kind, item.body.as_bytes()),
            item.body.as_bytes().to_vec(),
            key,
            request,
        );
    }
    let mut out = Vec::with_capacity(1 << 20);
    let mut mismatches = 0u64;
    let started = Instant::now();
    for r in 0..requests {
        let item = &items[stream[r % stream.len()]];
        let head_bytes = &item.wire[..item.wire.len() - item.body.len()];
        tr.begin("serve.hot_request");
        let head = tr.time("serve.parse_head", || http::parse_head(head_bytes));
        out.clear();
        if let (Some(kind), Ok(_)) = (item.kind, head) {
            let body = item.body.as_bytes();
            let hash = tr.time("serve.memo_hash", || memo_hash(kind, body));
            let key = tr.time("serve.memo_get", || {
                memo.get(hash, kind, body).map(|(key, _)| Arc::clone(key))
            });
            let cached = key.and_then(|key| tr.time("serve.cache_get", || cache.get(&key)));
            match cached {
                Some(CachedBody::Full(b)) => {
                    tr.time("serve.write_response", || {
                        http::write_response(&mut out, 200, &[("x-ce-cache", "hit")], &b)
                    });
                    if !out.ends_with(&item.expected) {
                        mismatches += 1;
                    }
                }
                Some(CachedBody::Chunked(fragments)) => {
                    tr.time("serve.write_response", || {
                        http::write_chunked_head(&mut out, 200, &[("x-ce-cache", "hit")]);
                        for fragment in fragments.iter() {
                            http::write_chunk(&mut out, fragment);
                        }
                        http::write_last_chunk(&mut out);
                    });
                }
                None => mismatches += 1,
            }
        }
        tr.end();
    }
    (started.elapsed().as_secs_f64(), mismatches)
}
