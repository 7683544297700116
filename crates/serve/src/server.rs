//! Server configuration, shard/worker wiring, and lifecycle management.
//!
//! # Architecture
//!
//! ```text
//!            nonblocking TcpListener, polled by shard 0 alone
//!                       │ connection k → shard k mod N (others
//!                       ▼ handed over through their completion queue)
//!            shard 0 event loop   shard 1 …    shard N-1   (one thread
//!            ┌─────────────────────────────┐               each; see
//!            │ poll(2) readiness loop      │               [`crate::event`])
//!            │ conn slab · incremental     │
//!            │ HTTP parse · raw-bytes memo │──sync──► GET endpoints,
//!            │ LRU cache shard · inflight  │          cache hits, errors
//!            └──────────┬──────────────────┘
//!               bounded │ queue (per shard)       completions ▲ + waker
//!                       ▼                                     │
//!            shard-pinned workers (own EvalScratch) ──────────┘
//!            buffered results, or chunk-by-chunk streamed /explore
//! ```
//!
//! Each shard's event loop exclusively owns its connections, response
//! cache, raw-request memo, and in-flight map — the hot path takes no
//! locks. Shard 0 alone accepts: it places the `k`-th admitted connection
//! on shard `k mod N`, handing the others over through their completion
//! queues, so which shard (and which cache) serves a connection follows
//! accept order. Workers are pinned to shards (at least one each) and hand
//! results back through the shard's completion queue plus waker socket.
//!
//! # Determinism
//!
//! Compute responses are bitwise identical whether served fresh, from the
//! response cache, or by coalescing — the body is encoded once by the
//! worker and shared as `Arc<str>`. Streamed `/explore` responses carry
//! the same bytes: the fragment sequence (prefix, one fragment per supply
//! group, suffix) concatenates to exactly the buffered encoding, and the
//! fragment boundaries are cached so a replay frames identical HTTP
//! chunks. Cache disposition is reported in the `x-ce-cache` header
//! (`miss` / `hit` / `coalesced`), never in the body. Workers run the
//! engine through [`ce_parallel::run_serial`], trading intra-request
//! parallelism for across-request parallelism without oversubscribing.

use crate::event::{event_loop, Completion, Waker};
use crate::json::Json;
use crate::metrics::{Metrics, ShardStats};
use crate::queue::BoundedQueue;
use crate::request::{
    execute_with_manifest, explore_group_fragment, explore_prefix, explore_suffix_with_manifest,
    manifest_json, scenarios_json, streamed_explore_manifest, ComputeRequest, ExplorerCache,
    Limits, ManifestStore, RequestError,
};
use ce_core::EvalScratch;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs. `Default` suits tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Compute worker threads (minimum 1; raised to the shard count so
    /// every shard has at least one pinned worker).
    pub workers: usize,
    /// Bounded job-queue capacity *per shard*; beyond it requests are
    /// shed with 429.
    pub queue_capacity: usize,
    /// Total response-cache capacity (entries), divided across shards.
    pub cache_capacity: usize,
    /// Event-loop shards. `0` means one per available core; the default
    /// is 1, which keeps single-process behavior fully deterministic
    /// (every connection shares one cache and coalescing domain).
    pub event_shards: usize,
    /// How many built [`ce_core::CarbonExplorer`]s to keep.
    pub explorer_cache_capacity: usize,
    /// Largest accepted request body, bytes (larger ⇒ 413 at the header,
    /// before any body byte is buffered).
    pub max_body_bytes: usize,
    /// Concurrent connections beyond which new ones get 503.
    pub max_connections: usize,
    /// Design-space validation limits.
    pub limits: Limits,
    /// How long a connection may stall mid-request (head or body started
    /// but unfinished) before it is closed with 408 — the slow-loris
    /// guard. Also bounds write-stalled peers.
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection (no request in progress)
    /// may sit before being closed.
    pub idle_timeout: Duration,
    /// How long a request waits for its computation before giving up
    /// with 504.
    pub compute_timeout: Duration,
    /// `/explore` sweeps with at least this many design points stream as
    /// `transfer-encoding: chunked`, one fragment per supply group,
    /// instead of buffering the whole body first.
    pub stream_threshold_points: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            event_shards: 1,
            explorer_cache_capacity: 4,
            max_body_bytes: 64 * 1024,
            max_connections: 64,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            compute_timeout: Duration::from_secs(120),
            stream_threshold_points: 2048,
        }
    }
}

/// A queued computation, owned by one shard's worker feed.
pub(crate) struct Job {
    /// Canonical scenario key (the coalescing/caching identity).
    pub(crate) key: Arc<str>,
    /// The validated request.
    pub(crate) request: ComputeRequest,
    /// Stream the result as chunked fragments instead of one body.
    pub(crate) stream: bool,
}

/// Cross-thread state for one shard: its worker feed, its completion
/// mailbox, and the gauges its event loop publishes for `/stats`.
pub(crate) struct ShardShared {
    /// Worker feed for this shard.
    pub(crate) queue: BoundedQueue<Job>,
    /// Results (and stream fragments) headed back to the event loop.
    pub(crate) completions: Mutex<VecDeque<Completion>>,
    /// Wakes the event loop when a completion lands.
    pub(crate) waker: Waker,
    /// Event-loop counters for `/stats`.
    pub(crate) stats: ShardStats,
    /// Connections currently owned by this shard.
    pub(crate) connections: AtomicU64,
    /// In-flight computation keys (published by the event loop).
    pub(crate) inflight_keys: AtomicU64,
    /// Response-cache entries (published by the event loop).
    pub(crate) cache_entries: AtomicU64,
}

impl ShardShared {
    /// Enqueues a completion and wakes the shard's event loop.
    pub(crate) fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(completion);
        self.waker.wake();
    }
}

/// State shared by every shard and worker.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Metrics,
    pub(crate) explorers: ExplorerCache,
    pub(crate) shards: Vec<Arc<ShardShared>>,
    pub(crate) shutdown: AtomicBool,
    /// Connections across all shards (the 503 admission gauge).
    pub(crate) connections: AtomicU64,
    pub(crate) busy_workers: AtomicU64,
    /// `GET /scenarios` body, encoded once at startup.
    pub(crate) scenarios: Arc<str>,
    /// Served provenance manifests, content-addressed by result hash
    /// (`GET /manifest/<hash>`).
    pub(crate) manifests: ManifestStore,
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::shutdown`] to do it explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

fn shard_count(config: &ServerConfig) -> usize {
    if config.event_shards == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.event_shards
    }
}

/// Binds, spawns the event-loop shards and their pinned workers, and
/// returns a handle.
///
/// # Errors
///
/// I/O errors from binding the listener address or building the per-shard
/// waker socket pairs.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shards = shard_count(&config);
    let queue_capacity = config.queue_capacity;
    let mut shard_shared = Vec::with_capacity(shards);
    let mut waker_rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        // A loopback socket pair is the waker: dependency-free, pollable
        // alongside the listener and connections.
        let pair = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(pair.local_addr()?)?;
        let (rx, _) = pair.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        waker_rxs.push(rx);
        shard_shared.push(Arc::new(ShardShared {
            queue: BoundedQueue::new(queue_capacity),
            completions: Mutex::new(VecDeque::new()),
            waker: Waker::new(tx),
            stats: ShardStats::default(),
            connections: AtomicU64::new(0),
            inflight_keys: AtomicU64::new(0),
            cache_entries: AtomicU64::new(0),
        }));
    }
    let shared = Arc::new(Shared {
        metrics: Metrics::new(),
        explorers: ExplorerCache::new(config.explorer_cache_capacity),
        shards: shard_shared,
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        busy_workers: AtomicU64::new(0),
        scenarios: scenarios_json().encode_arc(),
        manifests: ManifestStore::new(config.cache_capacity.max(64)),
        config,
    });
    // Every shard gets at least one pinned worker; extras round-robin.
    let workers = shared.config.workers.max(1).max(shards);
    let worker_threads = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, i % shards))
        })
        .collect();
    // Shard 0 alone polls the listener and places every connection.
    let mut listener = Some(listener);
    let event_threads = waker_rxs
        .into_iter()
        .enumerate()
        .map(|(index, rx)| {
            let shared = Arc::clone(&shared);
            let listener = listener.take();
            std::thread::spawn(move || event_loop(shared, index, listener, rx))
        })
        .collect();
    Ok(ServerHandle {
        addr,
        shared,
        event_threads,
        worker_threads,
    })
}

impl ServerHandle {
    /// The bound address (the actual port when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let workers drain every job
    /// already queued (waiters get their responses), flush what the event
    /// loops still owe, then join every server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // ce:ordering(acquire pairs with the loops' flag reads; release publishes pre-shutdown writes; no total order needed)
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Refuse new jobs but let workers drain accepted ones.
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for shard in &self.shared.shards {
            shard.waker.wake();
        }
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
        // Workers are done; every completion is queued. Wake the loops a
        // final time so none sleeps through the flag.
        for shard in &self.shared.shards {
            shard.waker.wake();
        }
        for handle in self.event_threads.drain(..) {
            let _ = handle.join();
        }
        // A connection handed to a shard that had already stopped is
        // still in its mailbox: dropping it closes it.
        for shard in &self.shared.shards {
            shard
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runs one shard-pinned compute worker until its queue closes and
/// drains.
// ce:entry
pub(crate) fn worker_loop(shared: &Arc<Shared>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut scratch = EvalScratch::default();
    while let Some(job) = shard.queue.pop() {
        // ce:ordering(busy-worker gauge feeds /stats only; no synchronization hangs off it)
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        let endpoint = job.request.endpoint();
        let streamed_any = Cell::new(false);
        // Catch panics so coalesced waiters always get an outcome; the
        // scratch buffers are plain reusable vectors, safe to keep using.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let explorer = shared.explorers.get_or_build(job.request.context())?;
            if job.stream {
                if let ComputeRequest::Explore {
                    strategy,
                    space,
                    manifest,
                    ..
                } = &job.request
                {
                    let points = job.request.explore_points().unwrap_or(0);
                    let push_fragment = |fragment: String| {
                        streamed_any.set(true);
                        shard.push_completion(Completion::Chunk {
                            key: Arc::clone(&job.key),
                            fragment: Arc::from(fragment.as_str()),
                        });
                    };
                    push_fragment(explore_prefix(*strategy, points));
                    // A manifest-bearing sweep hashes each group as it
                    // streams; the digest matches the buffered path's
                    // one-shot hash because absorption order is identical.
                    let mut hasher = manifest.then(ce_core::provenance::ResultHasher::new);
                    // Serial engine inside each worker: parallelism comes
                    // from the pool itself, and nesting thread scopes per
                    // request would oversubscribe the host.
                    ce_parallel::run_serial(|| {
                        let mut first = true;
                        explorer.explore_groups(*strategy, space, |group| {
                            if let Some(h) = hasher.as_mut() {
                                h.absorb(group);
                            }
                            push_fragment(explore_group_fragment(group, first));
                            first = false;
                        });
                    });
                    match hasher {
                        Some(hasher) => {
                            let manifest =
                                streamed_explore_manifest(&job.request, hasher.finish_hex());
                            shared
                                .manifests
                                .insert(manifest.address(), manifest_json(&manifest).encode_arc());
                            push_fragment(explore_suffix_with_manifest(&manifest));
                        }
                        None => push_fragment(crate::request::EXPLORE_SUFFIX.to_string()),
                    }
                    return Ok(None);
                }
            }
            let (json, manifest) = ce_parallel::run_serial(|| {
                execute_with_manifest(&job.request, &explorer, &mut scratch)
            });
            if let Some(manifest) = &manifest {
                shared
                    .manifests
                    .insert(manifest.address(), manifest_json(manifest).encode_arc());
            }
            Ok(Some(json.encode_arc()))
        }));
        let completion = match result {
            Ok(Ok(None)) => Completion::Done {
                key: Arc::clone(&job.key),
                status: 200,
                body: None,
                streamed: true,
            },
            Ok(Ok(Some(body))) => Completion::Done {
                key: Arc::clone(&job.key),
                status: 200,
                body: Some(body),
                streamed: false,
            },
            Ok(Err(RequestError { status, message })) => Completion::Done {
                key: Arc::clone(&job.key),
                status,
                body: Some(Json::obj(vec![("error", Json::string(message))]).encode_arc()),
                streamed: streamed_any.get(),
            },
            Err(_panic) => Completion::Done {
                key: Arc::clone(&job.key),
                status: 500,
                body: Some(Arc::from("{\"error\":\"internal computation failure\"}")),
                streamed: streamed_any.get(),
            },
        };
        shared
            .metrics
            .endpoint(endpoint)
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            .computed
            .fetch_add(1, Ordering::Relaxed);
        shard.push_completion(completion);
        // ce:ordering(busy-worker gauge feeds /stats only; no synchronization hangs off it)
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Renders the `/stats` body: per-endpoint counters, whole-service
/// gauges, and one object per shard with its event-loop counters.
pub(crate) fn stats_json(shared: &Shared) -> Json {
    let queue_depth: usize = shared.shards.iter().map(|s| s.queue.depth()).sum();
    let inflight: u64 = shared
        .shards
        .iter()
        // ce:ordering(stats gauge snapshot; cross-shard skew is acceptable)
        .map(|s| s.inflight_keys.load(Ordering::Relaxed))
        .sum();
    let cache_entries: u64 = shared
        .shards
        .iter()
        // ce:ordering(stats gauge snapshot; cross-shard skew is acceptable)
        .map(|s| s.cache_entries.load(Ordering::Relaxed))
        .sum();
    let mut json = shared.metrics.to_json(&[
        ("queue_depth", queue_depth as f64),
        (
            "busy_workers",
            // ce:ordering(stats gauge read; staleness is acceptable)
            shared.busy_workers.load(Ordering::Relaxed) as f64,
        ),
        (
            "connections",
            // ce:ordering(stats gauge read; staleness is acceptable)
            shared.connections.load(Ordering::Relaxed) as f64,
        ),
        ("inflight_keys", inflight as f64),
        ("response_cache_entries", cache_entries as f64),
        (
            "explorer_cache_entries",
            shared.explorers.entry_count() as f64,
        ),
        ("manifest_entries", shared.manifests.entry_count() as f64),
    ]);
    let shards = shared
        .shards
        .iter()
        .map(|s| {
            s.stats.to_json(&[
                // ce:ordering(per-shard stats gauge reads; staleness is acceptable)
                ("connections", s.connections.load(Ordering::Relaxed) as f64),
                ("queue_depth", s.queue.depth() as f64),
                (
                    // ce:ordering(stats gauge read; staleness is acceptable)
                    "inflight_keys",
                    s.inflight_keys.load(Ordering::Relaxed) as f64,
                ),
                (
                    // ce:ordering(stats gauge read; staleness is acceptable)
                    "cache_entries",
                    s.cache_entries.load(Ordering::Relaxed) as f64,
                ),
            ])
        })
        .collect();
    if let Json::Obj(fields) = &mut json {
        fields.push(("shards".to_string(), Json::Arr(shards)));
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_single_shard() {
        let config = ServerConfig::default();
        assert_eq!(config.event_shards, 1);
        assert_eq!(shard_count(&config), 1);
        assert_eq!(config.stream_threshold_points, 2048);
        assert!(config.idle_timeout > config.read_timeout);
    }

    #[test]
    fn zero_shards_means_auto() {
        let config = ServerConfig {
            event_shards: 0,
            ..ServerConfig::default()
        };
        assert!(shard_count(&config) >= 1);
    }

    #[test]
    fn stats_json_reports_one_object_per_shard() {
        let config = ServerConfig {
            event_shards: 3,
            ..ServerConfig::default()
        };
        let shards = (0..3)
            .map(|_| {
                let pair = TcpListener::bind("127.0.0.1:0").expect("bind");
                let tx = TcpStream::connect(pair.local_addr().expect("addr")).expect("connect");
                Arc::new(ShardShared {
                    queue: BoundedQueue::new(4),
                    completions: Mutex::new(VecDeque::new()),
                    waker: Waker::new(tx),
                    stats: ShardStats::default(),
                    connections: AtomicU64::new(2),
                    inflight_keys: AtomicU64::new(1),
                    cache_entries: AtomicU64::new(5),
                })
            })
            .collect();
        let shared = Shared {
            metrics: Metrics::new(),
            explorers: ExplorerCache::new(1),
            shards,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(6),
            busy_workers: AtomicU64::new(0),
            scenarios: scenarios_json().encode_arc(),
            manifests: ManifestStore::new(4),
            config,
        };
        let json = stats_json(&shared);
        assert_eq!(
            json.get("manifest_entries").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(json.get("inflight_keys").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            json.get("response_cache_entries").and_then(Json::as_f64),
            Some(15.0)
        );
        let shards = json.get("shards").expect("shards array");
        let Json::Arr(items) = shards else {
            panic!("shards must be an array");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0].get("cache_entries").and_then(Json::as_f64),
            Some(5.0)
        );
        assert!(items[0].get("wakeups").is_some());
    }
}
