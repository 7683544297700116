//! The per-shard readiness loop: nonblocking accept, incremental HTTP
//! parsing over partial reads, write buffering with backpressure, and
//! streamed completion delivery from the worker pool.
//!
//! One OS thread runs [`event_loop`] per shard. The thread exclusively
//! owns everything hot — the connection slab, the shard's response cache
//! and raw-bytes memo, and the in-flight coalescing map — so the request
//! path takes **no locks**: sharding is the synchronization. Workers hand
//! results back through a `Mutex<VecDeque>` of [`Completion`]s plus a
//! loopback-socket [`Waker`], the only cross-thread traffic.
//!
//! Shard 0 alone polls the listener. It places the `k`-th admitted
//! connection on shard `k mod N`: its own it registers at once, any other
//! shard's it hands over as a [`Completion::Accepted`] through that
//! shard's mailbox and waker. Placement is a function of accept order,
//! never of which thread wakes first.
//!
//! # Connection state machine
//!
//! ```text
//!            ┌───────── reading ─────────┐
//!   POLLIN → │ buf grows; find_head_end  │→ head → body complete →
//!            │ resumes its scan offset   │        dispatch
//!            └───────────────────────────┘          │
//!   GET endpoints / cache hits: answered inline ────┤
//!   cache miss: waiter attached, conn → awaiting ───┤
//!                                                   ▼
//!            ┌───────── writing ─────────┐   responses append to `out`
//!   POLLOUT→ │ flush out[out_pos..]      │ ← (batched across pipelined
//!            └───────────────────────────┘    requests; short writes
//!                                             counted, never lost)
//! ```
//!
//! HTTP/1.1 responses are in-order, so a connection with an outstanding
//! computation (`awaiting`) stops parsing until the result lands; a
//! connection whose output backlog passes the high-water mark stops
//! *reading* (backpressure) until the peer drains it. A deadline sweep
//! closes connections stalled mid-request (slow-loris, `408`), idle
//! keep-alive sockets past `idle_timeout`, and write-stalled peers.

use crate::cache::{CachedBody, RawMemo, ShardCache};
use crate::hash::hash_bytes;
use crate::http::{self, Head, Target};
use crate::json::Json;
use crate::metrics::Endpoint;
use crate::request::{ComputeKind, ComputeRequest, RequestError};
use crate::server::{stats_json, Job, ShardShared, Shared};
use crate::sys::{self, PollFd, POLLHUP, POLLIN, POLLOUT};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Output backlog (bytes) beyond which a connection stops being read.
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Flushed-prefix length beyond which the output buffer is compacted.
const OUT_COMPACT: usize = 64 * 1024;
/// Size of the shared read scratch buffer.
const READ_CHUNK: usize = 64 * 1024;
/// Poll timeout, which also paces the deadline sweep.
const SWEEP_MS: i32 = 250;

/// Wakes a shard's event loop from a worker thread. One byte travels over
/// a loopback socket pair; the `pending` flag coalesces bursts so a busy
/// worker never blocks on a full pipe.
pub(crate) struct Waker {
    tx: Mutex<TcpStream>,
    pending: std::sync::atomic::AtomicBool,
}

impl Waker {
    /// Wraps the write half of the shard's loopback pair.
    pub(crate) fn new(tx: TcpStream) -> Self {
        Self {
            tx: Mutex::new(tx),
            pending: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Signals the event loop; a no-op if a wake is already pending.
    /// Callers must enqueue their [`Completion`] *before* waking.
    pub(crate) fn wake(&self) {
        // ce:ordering(acquire pairs with rearm's release; release orders the completion enqueue before the byte; no total order needed)
        if !self.pending.swap(true, Ordering::AcqRel) {
            let mut tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = tx.write(&[1]);
        }
    }

    /// Re-arms the waker. The event loop calls this after draining the
    /// pipe and before draining the completion queue: any producer that
    /// skipped its byte (saw `pending`) enqueued before our drain, and
    /// any producer arriving after re-arm writes a fresh byte.
    pub(crate) fn rearm(&self) {
        // ce:ordering(release pairs with wake's acquire swap; late producers write a fresh pipe byte)
        self.pending.store(false, Ordering::Release);
    }
}

/// A worker's message back to its shard's event loop.
pub(crate) enum Completion {
    /// One fragment of a streamed `/explore` body, in order.
    Chunk {
        /// Canonical key of the computation this fragment belongs to.
        key: Arc<str>,
        /// The fragment (one HTTP chunk on the wire).
        fragment: Arc<str>,
    },
    /// The computation finished.
    Done {
        /// Canonical key of the finished computation.
        key: Arc<str>,
        /// HTTP status of the outcome.
        status: u16,
        /// Encoded body for `content-length` responses (and for errors);
        /// `None` when the body already went out as chunks.
        body: Option<Arc<str>>,
        /// Whether fragments were streamed before this completion — if
        /// so, an error can only be reported by truncating the stream.
        streamed: bool,
    },
    /// A connection the listening shard placed on this one.
    Accepted(TcpStream),
}

/// One connection's state.
struct Conn {
    stream: TcpStream,
    generation: u64,
    /// Unparsed input; `pos..` is live, `..pos` is consumed (compacted
    /// once per event, not per request — pipelined bursts stay `O(n)`).
    buf: Vec<u8>,
    pos: usize,
    /// Absolute resume offset of the head-terminator scan.
    scan: usize,
    /// Parsed head whose body has not fully arrived yet.
    head: Option<Head>,
    /// Buffered output; `out_pos..` is unflushed.
    out: Vec<u8>,
    out_pos: usize,
    /// Canonical key of the in-flight computation this connection waits
    /// on (parsing pauses while set — HTTP/1.1 responses are in-order).
    awaiting: Option<Arc<str>>,
    /// `keep-alive` disposition of the request currently being answered.
    req_keep_alive: bool,
    close_after_flush: bool,
    read_eof: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, now: Instant) -> Self {
        Self {
            stream,
            generation,
            buf: Vec::new(),
            pos: 0,
            scan: 0,
            head: None,
            out: Vec::new(),
            out_pos: 0,
            awaiting: None,
            req_keep_alive: true,
            close_after_flush: false,
            read_eof: false,
            last_activity: now,
        }
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn wants_read(&self) -> bool {
        !self.read_eof
            && !self.close_after_flush
            && self.awaiting.is_none()
            && self.out.len() - self.out_pos < OUT_HIGH_WATER
    }

    /// `true` while a request head or body is partially buffered.
    fn mid_request(&self) -> bool {
        self.head.is_some() || self.buf.len() > self.pos
    }
}

/// Generation-checked connection storage with slot reuse.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream, now: Instant) -> usize {
        self.next_generation += 1;
        let conn = Conn::new(stream, self.next_generation, now);
        // ce:allow(blocking, reason = "Vec::pop on the free list; only shares a name with the parking queue pop")
        if let Some(slot) = self.free.pop() {
            if let Some(entry) = self.slots.get_mut(slot) {
                *entry = Some(conn);
                return slot;
            }
        }
        self.slots.push(Some(conn));
        self.slots.len() - 1
    }

    /// The connection in `slot`, if it is still the one from when the
    /// caller recorded `generation` (a freed-and-reused slot is `None`).
    fn get_mut(&mut self, slot: usize, generation: u64) -> Option<&mut Conn> {
        self.slots
            .get_mut(slot)?
            .as_mut()
            .filter(|c| c.generation == generation)
    }

    fn slot_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot)?.as_mut()
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take();
        if conn.is_some() {
            self.free.push(slot);
        }
        conn
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &Conn)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// One coalesced waiter on an in-flight computation.
struct Waiter {
    slot: usize,
    generation: u64,
    started: Instant,
    /// `x-ce-cache` note this waiter will be answered with.
    note: &'static str,
    /// Fragments already framed into this waiter's output.
    sent_chunks: usize,
    /// Whether the chunked response head went out (after which an error
    /// can only be a truncated stream).
    header_written: bool,
}

/// One in-flight computation and everyone waiting on it.
struct Inflight {
    endpoint: Endpoint,
    started: Instant,
    /// Streamed fragments delivered so far (late waiters catch up from
    /// here; the finished list becomes the cached chunked body).
    chunks: Vec<Arc<str>>,
    waiters: Vec<Waiter>,
}

fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::string(message))]).encode()
}

/// Salts the body hash with the endpoint so byte-identical bodies posted
/// to different compute endpoints never share a memo entry.
fn memo_hash(kind: ComputeKind, body: &[u8]) -> u64 {
    hash_bytes(body) ^ (kind as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn kind_endpoint(target: Target) -> Option<(ComputeKind, Endpoint)> {
    match target {
        Target::Evaluate => Some((ComputeKind::Evaluate, Endpoint::Evaluate)),
        Target::Explore => Some((ComputeKind::Explore, Endpoint::Explore)),
        Target::Optimal => Some((ComputeKind::Optimal, Endpoint::Optimal)),
        _ => None,
    }
}

/// Runs one shard's readiness loop until shutdown completes.
// ce:entry
pub(crate) fn event_loop(
    shared: Arc<Shared>,
    shard_index: usize,
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
) {
    let Some(shard) = shared.shards.get(shard_index).map(Arc::clone) else {
        return; // misconfigured spawn; nothing this thread can serve
    };
    let shard_count = shared.shards.len().max(1);
    let cache_capacity = shared.config.cache_capacity.div_ceil(shard_count).max(1);
    let mut lp = Loop {
        shared,
        shard,
        index: shard_index,
        next_shard: 0,
        listener,
        waker_rx,
        slab: Slab::new(),
        inflight: BTreeMap::new(),
        cache: ShardCache::new(cache_capacity),
        memo: RawMemo::new(cache_capacity.max(64)),
        read_buf: vec![0; READ_CHUNK],
        body: Vec::new(),
        dirty: Vec::new(),
        shutdown_deadline: None,
    };
    lp.run();
}

struct Loop {
    shared: Arc<Shared>,
    shard: Arc<ShardShared>,
    /// This shard's index in `shared.shards`.
    index: usize,
    /// Where the listening shard places its next connection.
    next_shard: usize,
    /// The listener, on the one shard that polls it.
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
    slab: Slab,
    inflight: BTreeMap<Arc<str>, Inflight>,
    cache: ShardCache,
    memo: RawMemo,
    read_buf: Vec<u8>,
    /// Scratch copy of the current request body (so the connection buffer
    /// can be mutably borrowed while the body is inspected).
    body: Vec<u8>,
    /// Slots touched by completion delivery, to resume and flush after.
    dirty: Vec<usize>,
    shutdown_deadline: Option<Instant>,
}

impl Loop {
    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_slots: Vec<(usize, u64)> = Vec::new();
        loop {
            let now = Instant::now();
            // ce:ordering(acquire pairs with stop's release swap, making pre-shutdown writes visible)
            let shutting_down = self.shared.shutdown.load(Ordering::Acquire);
            if shutting_down {
                // Stop accepting (dropping the listener releases the
                // port) and drain what remains.
                self.listener = None;
                let deadline = *self
                    .shutdown_deadline
                    .get_or_insert(now + Duration::from_secs(10));
                self.close_drained_for_shutdown();
                if (self.inflight.is_empty() && self.slab.occupied() == 0) || now >= deadline {
                    break;
                }
            }

            fds.clear();
            fd_slots.clear();
            fds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
            let listener_idx = self.listener.as_ref().map(|l| {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                fds.len() - 1
            });
            let conn_base = fds.len();
            for (slot, conn) in self.slab.iter() {
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.out_pending() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_slots.push((slot, conn.generation));
            }

            let timeout = if shutting_down { 10 } else { SWEEP_MS };
            if sys::poll(&mut fds, timeout).is_err() {
                // EINVAL/ENOMEM would spin; back off rather than burn CPU.
                std::thread::sleep(Duration::from_millis(10));
            }
            self.tick(&fds, listener_idx, &fd_slots, conn_base);
        }
    }

    /// One reactor step after `poll` returns: drain the waker, deliver
    /// completions, accept, service ready connections, sweep deadlines.
    /// Everything here runs on the shard's only thread; the analyzer
    /// verifies transitively that nothing in it can block.
    // ce:nonblocking
    fn tick(
        &mut self,
        fds: &[PollFd],
        listener_idx: Option<usize>,
        fd_slots: &[(usize, u64)],
        conn_base: usize,
    ) {
        // ce:ordering(monotone telemetry counter; readers tolerate skew)
        self.shard.stats.polls.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();

        if fds.first().is_some_and(|f| f.returned(POLLIN)) {
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            self.shard.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            self.drain_waker_pipe();
        }
        self.deliver_completions(now);
        if let Some(i) = listener_idx {
            if fds.get(i).is_some_and(|f| f.returned(POLLIN)) {
                self.accept_ready(now);
            }
        }
        for (i, &(slot, generation)) in fd_slots.iter().enumerate() {
            let Some(&pfd) = fds.get(conn_base + i) else {
                break;
            };
            if self.slab.get_mut(slot, generation).is_none() {
                continue; // closed (or reused) during this iteration
            }
            if pfd.failed() {
                self.close_conn(slot);
                continue;
            }
            if pfd.returned(POLLIN) {
                self.handle_readable(slot, now);
            } else if pfd.returned(POLLHUP) {
                self.close_conn(slot);
                continue;
            }
            if pfd.returned(POLLOUT) && self.slab.get_mut(slot, generation).is_some() {
                self.try_flush(slot, now);
                self.process_conn(slot, now);
            }
        }
        self.sweep(now);
    }

    fn drain_waker_pipe(&mut self) {
        loop {
            // ce:allow(blocking, reason = "nonblocking loopback socket: reads return WouldBlock, never park")
            match self.waker_rx.read(&mut self.read_buf) {
                Ok(0) => break, // worker side gone (shutdown)
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.shard.waker.rearm();
    }

    /// Drains the completion mailbox and resumes the touched connections.
    // ce:nonblocking
    fn deliver_completions(&mut self, now: Instant) {
        loop {
            let next = self
                .shard
                .completions
                // ce:allow(blocking, reason = "completion mailbox critical section is a single pop_front; workers hold it for one push")
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(completion) = next else { break };
            match completion {
                Completion::Chunk { key, fragment } => self.on_chunk(&key, fragment, now),
                Completion::Done {
                    key,
                    status,
                    body,
                    streamed,
                } => self.on_done(&key, status, body, streamed, now),
                Completion::Accepted(stream) => self.register(stream, now),
            }
        }
        // Resume parsing (pipelined requests may be buffered behind the
        // answered one) and flush every connection a completion touched.
        let dirty = std::mem::take(&mut self.dirty);
        for slot in dirty {
            self.process_conn(slot, now);
        }
    }

    fn on_chunk(&mut self, key: &Arc<str>, fragment: Arc<str>, now: Instant) {
        let Some(entry) = self.inflight.get_mut(key) else {
            return;
        };
        entry.chunks.push(fragment);
        // NB: inline (not a method call) so the `entry` borrow of
        // `self.inflight` can coexist with the `self.slab` borrow.
        for waiter in &mut entry.waiters {
            let Some(conn) = self.slab.get_mut(waiter.slot, waiter.generation) else {
                continue;
            };
            if !waiter.header_written {
                http::write_chunked_head(&mut conn.out, 200, &[("x-ce-cache", waiter.note)]);
                waiter.header_written = true;
                // ce:ordering(monotone telemetry counter; readers tolerate skew)
                self.shard.stats.streamed.fetch_add(1, Ordering::Relaxed);
            }
            for fragment in entry.chunks.iter().skip(waiter.sent_chunks) {
                http::write_chunk(&mut conn.out, fragment);
            }
            waiter.sent_chunks = entry.chunks.len();
            conn.last_activity = now;
            self.dirty.push(waiter.slot);
        }
    }

    fn on_done(
        &mut self,
        key: &Arc<str>,
        status: u16,
        body: Option<Arc<str>>,
        streamed: bool,
        now: Instant,
    ) {
        let Some(entry) = self.inflight.remove(key) else {
            return;
        };
        self.publish_inflight_gauge();
        if status == 200 {
            let cached = if streamed {
                CachedBody::Chunked(entry.chunks.clone().into())
            } else {
                match &body {
                    Some(b) => CachedBody::Full(Arc::clone(b)),
                    None => return, // worker bug; nothing to serve or cache
                }
            };
            let evicted = self.cache.insert(key, cached);
            if evicted > 0 {
                self.shard
                    // ce:ordering(monotone telemetry counter; readers tolerate skew)
                    .stats
                    .cache_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
            }
            self.publish_cache_gauge();
        }
        let shared = Arc::clone(&self.shared);
        let metrics = shared.metrics.endpoint(entry.endpoint);
        for waiter in entry.waiters {
            let Some(conn) = self.slab.get_mut(waiter.slot, waiter.generation) else {
                continue;
            };
            conn.awaiting = None;
            conn.last_activity = now;
            if status == 200 {
                if streamed {
                    if !waiter.header_written {
                        http::write_chunked_head(
                            &mut conn.out,
                            200,
                            &[("x-ce-cache", waiter.note)],
                        );
                        // ce:ordering(monotone telemetry counter; readers tolerate skew)
                        self.shard.stats.streamed.fetch_add(1, Ordering::Relaxed);
                    }
                    for fragment in entry.chunks.iter().skip(waiter.sent_chunks) {
                        http::write_chunk(&mut conn.out, fragment);
                    }
                    http::write_last_chunk(&mut conn.out);
                } else if let Some(b) = &body {
                    http::write_response(&mut conn.out, 200, &[("x-ce-cache", waiter.note)], b);
                }
            } else {
                // ce:ordering(monotone telemetry counter; readers tolerate skew)
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                if waiter.header_written {
                    // The 200 chunked head already went out; the only
                    // honest signal left is a truncated stream.
                    self.close_conn(waiter.slot);
                    continue;
                }
                let fallback = error_body("internal computation failure");
                let b = body.as_deref().unwrap_or(fallback.as_str());
                http::write_response(&mut conn.out, status, &[("x-ce-cache", waiter.note)], b);
            }
            let micros =
                u64::try_from(now.duration_since(waiter.started).as_micros()).unwrap_or(u64::MAX);
            metrics.record_latency_micros(micros);
            if let Some(conn) = self.slab.get_mut(waiter.slot, waiter.generation) {
                if !conn.req_keep_alive {
                    conn.close_after_flush = true;
                }
            }
            self.dirty.push(waiter.slot);
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            // ce:allow(blocking, reason = "listener is in nonblocking mode; accept returns WouldBlock instead of parking")
            match listener.accept() {
                Ok((stream, _)) => {
                    // ce:ordering(best-effort admission cap; the counter publishes no memory, only a count)
                    let previous = self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    if previous >= self.shared.config.max_connections as u64 {
                        // ce:ordering(undo of the optimistic increment above; same counter discipline)
                        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
                        let mut refusal = Vec::new();
                        http::write_response(
                            &mut refusal,
                            503,
                            &[("connection", "close")],
                            "{\"error\":\"connection limit reached\"}",
                        );
                        let mut stream = stream;
                        let _ = stream.write_all(&refusal);
                        // ce:allow(blocking, reason = "TcpStream::shutdown, not ServerHandle::shutdown; a plain close syscall")
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.place(stream, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Places an admitted connection on the next shard in turn: this
    /// shard registers its own, and hands any other shard's over through
    /// that shard's mailbox, pushed before its waker fires.
    fn place(&mut self, stream: TcpStream, now: Instant) {
        let target = self.next_shard;
        self.next_shard = (target + 1) % self.shared.shards.len().max(1);
        match self.shared.shards.get(target) {
            Some(shard) if target != self.index => {
                // ce:allow(blocking, reason = "one push_back under a mailbox lock its owner holds for one pop_front, then one byte to a nonblocking waker socket")
                shard.push_completion(Completion::Accepted(stream));
            }
            _ => self.register(stream, now),
        }
    }

    /// Takes ownership of a connection placed on this shard.
    fn register(&mut self, stream: TcpStream, now: Instant) {
        self.slab.insert(stream, now);
        // ce:ordering(monotone telemetry counter; readers tolerate skew)
        self.shard.stats.accepts.fetch_add(1, Ordering::Relaxed);
        // ce:ordering(per-shard stats gauge; staleness is acceptable)
        self.shard
            .connections
            .store(self.slab.occupied() as u64, Ordering::Relaxed);
    }

    fn handle_readable(&mut self, slot: usize, now: Instant) {
        let Some(conn) = self.slab.slot_mut(slot) else {
            return;
        };
        // ce:allow(blocking, reason = "accepted streams are set nonblocking; reads return WouldBlock, never park")
        match conn.stream.read(&mut self.read_buf) {
            Ok(0) => conn.read_eof = true,
            Ok(n) => {
                conn.buf
                    .extend_from_slice(self.read_buf.get(..n).unwrap_or_default());
                conn.last_activity = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                self.close_conn(slot);
                return;
            }
        }
        let incomplete = self.process_conn(slot, now);
        if incomplete {
            self.shard
                // ce:ordering(monotone telemetry counter; readers tolerate skew)
                .stats
                .partial_reads
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parses and dispatches every complete request buffered on `slot`,
    /// then compacts the input buffer and flushes output. Returns whether
    /// a partial request remains buffered.
    // ce:nonblocking
    fn process_conn(&mut self, slot: usize, now: Instant) -> bool {
        let mut incomplete = false;
        let mut flushed = false;
        loop {
            let Some(conn) = self.slab.slot_mut(slot) else {
                return false;
            };
            if conn.awaiting.is_some() || conn.close_after_flush {
                break;
            }
            if conn.out.len() - conn.out_pos > OUT_HIGH_WATER {
                // Backpressure: stop producing until the peer drains. A
                // flush that takes the backlog arms no POLLOUT, so requests
                // still buffered would wait for a read event that may never
                // come: flush now, and keep parsing if the peer took it.
                self.try_flush(slot, now);
                match self.slab.slot_mut(slot) {
                    Some(conn) if conn.out.len() - conn.out_pos <= OUT_HIGH_WATER => continue,
                    _ => {
                        flushed = true;
                        break;
                    }
                }
            }
            if conn.head.is_none() {
                match http::find_head_end(&conn.buf, &mut conn.scan) {
                    Some(end) => {
                        let head_bytes = conn.buf.get(conn.pos..end).unwrap_or_default();
                        let head = match http::parse_head(head_bytes) {
                            Ok(head) => head,
                            Err((status, message)) => {
                                self.reject_and_close(slot, status, message);
                                break;
                            }
                        };
                        if head.content_length > self.shared.config.max_body_bytes {
                            // 413 at head-parse time: the oversized body
                            // is never buffered, the connection closes.
                            self.reject_and_close(slot, 413, "request body too large");
                            break;
                        }
                        let Some(conn) = self.slab.slot_mut(slot) else {
                            return false;
                        };
                        conn.head = Some(head);
                    }
                    None => {
                        if conn.buf.len() - conn.pos > http::MAX_HEAD_BYTES {
                            self.reject_and_close(slot, 400, "request head too large");
                            break;
                        }
                        incomplete = conn.buf.len() > conn.pos;
                        break;
                    }
                }
                continue;
            }
            let Some((head_len, content_length)) = conn
                .head
                .as_ref()
                .map(|head| (head.head_len, head.content_length))
            else {
                break; // unreachable: the arm above just set it
            };
            let body_start = conn.pos + head_len;
            let body_end = body_start + content_length;
            if conn.buf.len() < body_end {
                incomplete = true;
                break;
            }
            let Some(head) = conn.head.take() else {
                break;
            };
            conn.req_keep_alive = head.keep_alive;
            self.body.clear();
            self.body
                .extend_from_slice(conn.buf.get(body_start..body_end).unwrap_or_default());
            conn.pos = body_end;
            conn.scan = body_end;
            let keep_alive = head.keep_alive;
            self.dispatch(slot, &head, now);
            if !keep_alive {
                if let Some(conn) = self.slab.slot_mut(slot) {
                    conn.close_after_flush = true;
                }
                break;
            }
        }
        if let Some(conn) = self.slab.slot_mut(slot) {
            if conn.pos > 0 {
                // One compaction per event, however many pipelined
                // requests were consumed above.
                conn.buf.copy_within(conn.pos.., 0);
                let live = conn.buf.len() - conn.pos;
                conn.buf.truncate(live);
                conn.scan -= conn.pos;
                conn.pos = 0;
            }
        }
        if !flushed {
            self.try_flush(slot, now);
        }
        if let Some(conn) = self.slab.slot_mut(slot) {
            if conn.read_eof && conn.awaiting.is_none() {
                if conn.out_pending() {
                    conn.close_after_flush = true;
                } else {
                    self.close_conn(slot);
                }
            }
        }
        incomplete
    }

    /// Routes one complete request. `self.body` holds its body bytes.
    fn dispatch(&mut self, slot: usize, head: &Head, now: Instant) {
        let Some(target) = head.target else {
            self.respond_error(slot, None, 404, "no such endpoint", now);
            return;
        };
        if head.method != target.method() {
            self.respond_error(slot, None, 405, "method not allowed", now);
            return;
        }
        match target {
            Target::Healthz => {
                self.respond_ok(slot, Endpoint::Healthz, "{\"status\":\"ok\"}", now);
            }
            Target::Stats => {
                let body = stats_json(&self.shared).encode();
                self.respond_ok(slot, Endpoint::Stats, &body, now);
            }
            Target::Scenarios => {
                let body = Arc::clone(&self.shared.scenarios);
                self.respond_ok(slot, Endpoint::Scenarios, &body, now);
            }
            Target::Manifest => {
                self.shared
                    .metrics
                    // ce:ordering(monotone telemetry counter; readers tolerate skew)
                    .endpoint(Endpoint::Manifest)
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                let found = head
                    .manifest_hash
                    .as_deref()
                    .and_then(|hash| self.shared.manifests.get(hash));
                match found {
                    Some(body) => {
                        self.respond_with(slot, Some(Endpoint::Manifest), 200, &[], &body, now);
                    }
                    None => self.respond_status(
                        slot,
                        Endpoint::Manifest,
                        404,
                        "no manifest registered under that result hash",
                        now,
                    ),
                }
            }
            Target::Evaluate | Target::Explore | Target::Optimal => {
                if let Some((kind, endpoint)) = kind_endpoint(target) {
                    self.compute(slot, kind, endpoint, now);
                }
            }
        }
    }

    /// The compute path: raw-bytes memo → response cache → coalesce →
    /// enqueue. The memo makes the hot repeat-request path parse-free.
    fn compute(&mut self, slot: usize, kind: ComputeKind, endpoint: Endpoint, now: Instant) {
        let shared = Arc::clone(&self.shared);
        let metrics = shared.metrics.endpoint(endpoint);
        // ce:ordering(monotone telemetry counter; readers tolerate skew)
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let hash = memo_hash(kind, &self.body);
        let key: Arc<str> = match self.memo.get(hash, kind, &self.body) {
            Some((key, _)) => Arc::clone(key),
            None => {
                let parsed = {
                    let Ok(text) = std::str::from_utf8(&self.body) else {
                        self.respond_status(slot, endpoint, 400, "body must be UTF-8", now);
                        return;
                    };
                    let json = match Json::parse(text) {
                        Ok(json) => json,
                        Err(e) => {
                            let message = format!("invalid JSON: {e}");
                            self.respond_status(slot, endpoint, 400, &message, now);
                            return;
                        }
                    };
                    match ComputeRequest::parse(kind, &json, &self.shared.config.limits) {
                        Ok(parsed) => parsed,
                        Err(RequestError { status, message }) => {
                            self.respond_status(slot, endpoint, status, &message, now);
                            return;
                        }
                    }
                };
                let key: Arc<str> = Arc::from(parsed.canonical_key().as_str());
                self.memo
                    .insert(hash, self.body.clone(), Arc::clone(&key), parsed);
                key
            }
        };

        if let Some(cached) = self.cache.get(&key) {
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            self.shard.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            let Some(conn) = self.slab.slot_mut(slot) else {
                return;
            };
            match &cached {
                CachedBody::Full(body) => {
                    http::write_response(&mut conn.out, 200, &[("x-ce-cache", "hit")], body);
                }
                CachedBody::Chunked(fragments) => {
                    // Replay with the original fragment boundaries: the
                    // wire bytes match the fresh streamed response.
                    http::write_chunked_head(&mut conn.out, 200, &[("x-ce-cache", "hit")]);
                    for fragment in fragments.iter() {
                        http::write_chunk(&mut conn.out, fragment);
                    }
                    http::write_last_chunk(&mut conn.out);
                    // ce:ordering(monotone telemetry counter; readers tolerate skew)
                    self.shard.stats.streamed.fetch_add(1, Ordering::Relaxed);
                }
            }
            let micros = u64::try_from(now.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.record_latency_micros(micros);
            return;
        }
        self.shard
            .stats
            .cache_misses
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            .fetch_add(1, Ordering::Relaxed);

        if let Some(entry) = self.inflight.get_mut(&key) {
            // ce:ordering(monotone telemetry counter; readers tolerate skew)
            metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            let Some(conn) = self.slab.slot_mut(slot) else {
                return;
            };
            entry.waiters.push(Waiter {
                slot,
                generation: conn.generation,
                started: now,
                note: "coalesced",
                sent_chunks: 0,
                header_written: false,
            });
            conn.awaiting = Some(key);
            return;
        }

        // Re-fetch rather than clone eagerly: the memo entry was inserted
        // (or matched) above, so this only misses if eviction raced it —
        // impossible single-threaded, but degrade to a 500, not a panic.
        let Some(request) = self
            .memo
            .get(hash, kind, &self.body)
            .map(|(_, r)| r.clone())
        else {
            self.respond_status(
                slot,
                endpoint,
                500,
                "request memo evicted mid-dispatch",
                now,
            );
            return;
        };
        let stream = request
            .explore_points()
            .is_some_and(|points| points >= self.shared.config.stream_threshold_points);
        // ce:allow(blocking, reason = "try_push never waits; its queue critical section is a bounded len check + push_back")
        match self.shard.queue.try_push(Job {
            key: Arc::clone(&key),
            request,
            stream,
        }) {
            Ok(()) => {
                let generation = match self.slab.slot_mut(slot) {
                    Some(conn) => {
                        conn.awaiting = Some(Arc::clone(&key));
                        conn.generation
                    }
                    None => return,
                };
                self.inflight.insert(
                    key,
                    Inflight {
                        endpoint,
                        started: now,
                        chunks: Vec::new(),
                        waiters: vec![Waiter {
                            slot,
                            generation,
                            started: now,
                            note: "miss",
                            sent_chunks: 0,
                            header_written: false,
                        }],
                    },
                );
                self.publish_inflight_gauge();
            }
            Err(crate::queue::PushError::Full) => {
                // ce:ordering(monotone telemetry counter; readers tolerate skew)
                metrics.shed.fetch_add(1, Ordering::Relaxed);
                self.respond_with(
                    slot,
                    Some(endpoint),
                    429,
                    &[("retry-after", "1")],
                    &error_body("compute queue full; retry shortly"),
                    now,
                );
            }
            Err(crate::queue::PushError::Closed) => {
                self.respond_status(slot, endpoint, 503, "server is shutting down", now);
            }
        }
    }

    fn respond_ok(&mut self, slot: usize, endpoint: Endpoint, body: &str, now: Instant) {
        let metrics = self.shared.metrics.endpoint(endpoint);
        // ce:ordering(monotone telemetry counter; readers tolerate skew)
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.respond_with(slot, Some(endpoint), 200, &[], body, now);
    }

    /// An error on a known compute endpoint (requests already counted).
    fn respond_status(
        &mut self,
        slot: usize,
        endpoint: Endpoint,
        status: u16,
        message: &str,
        now: Instant,
    ) {
        let body = error_body(message);
        self.respond_with(slot, Some(endpoint), status, &[], &body, now);
    }

    /// An error outside any endpoint's metrics (404/405, like the
    /// thread-per-connection server before it).
    fn respond_error(
        &mut self,
        slot: usize,
        endpoint: Option<Endpoint>,
        status: u16,
        message: &str,
        now: Instant,
    ) {
        let body = error_body(message);
        self.respond_with(slot, endpoint, status, &[], &body, now);
    }

    fn respond_with(
        &mut self,
        slot: usize,
        endpoint: Option<Endpoint>,
        status: u16,
        extra_headers: &[(&str, &str)],
        body: &str,
        now: Instant,
    ) {
        if let Some(endpoint) = endpoint {
            let metrics = self.shared.metrics.endpoint(endpoint);
            if status >= 400 {
                // ce:ordering(monotone telemetry counter; readers tolerate skew)
                metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
            let micros = u64::try_from(now.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.record_latency_micros(micros);
        }
        let Some(conn) = self.slab.slot_mut(slot) else {
            return;
        };
        http::write_response(&mut conn.out, status, extra_headers, body);
    }

    /// A protocol-level rejection: answer and close (the input stream is
    /// no longer trustworthy or wanted).
    fn reject_and_close(&mut self, slot: usize, status: u16, message: &str) {
        let Some(conn) = self.slab.slot_mut(slot) else {
            return;
        };
        let body = error_body(message);
        http::write_response(&mut conn.out, status, &[("connection", "close")], &body);
        conn.close_after_flush = true;
    }

    fn try_flush(&mut self, slot: usize, now: Instant) {
        let mut close = false;
        {
            let Some(conn) = self.slab.slot_mut(slot) else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                let pending = conn.out.get(conn.out_pos..).unwrap_or_default();
                match conn.stream.write(pending) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.shard
                            .stats
                            .short_writes
                            // ce:ordering(monotone telemetry counter; readers tolerate skew)
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close {
                if conn.out_pos == conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    // A `connection: close` request may still be awaiting
                    // its computation with nothing buffered yet; only an
                    // answered-and-drained connection actually closes.
                    close = conn.close_after_flush && conn.awaiting.is_none();
                } else if conn.out_pos > OUT_COMPACT {
                    conn.out.copy_within(conn.out_pos.., 0);
                    let live = conn.out.len() - conn.out_pos;
                    conn.out.truncate(live);
                    conn.out_pos = 0;
                }
            }
        }
        if close {
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.slab.remove(slot) else {
            return;
        };
        if let Some(key) = &conn.awaiting {
            if let Some(entry) = self.inflight.get_mut(key) {
                entry
                    .waiters
                    .retain(|w| w.slot != slot || w.generation != conn.generation);
            }
        }
        // ce:allow(blocking, reason = "TcpStream::shutdown, not ServerHandle::shutdown; a plain close syscall")
        let _ = conn.stream.shutdown(Shutdown::Both);
        // ce:ordering(admission counter decrement; publishes no memory, only a count)
        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
        // ce:ordering(per-shard stats gauge; staleness is acceptable)
        self.shard
            .connections
            .store(self.slab.occupied() as u64, Ordering::Relaxed);
    }

    /// The deadline sweep: slow-loris 408s, idle keep-alive closes,
    /// write-stall closes, and compute-timeout 504s.
    // ce:nonblocking
    fn sweep(&mut self, now: Instant) {
        let read_timeout = self.shared.config.read_timeout;
        let idle_timeout = self.shared.config.idle_timeout;
        let compute_timeout = self.shared.config.compute_timeout;

        let mut stalled: Vec<usize> = Vec::new();
        let mut idle: Vec<usize> = Vec::new();
        for (slot, conn) in self.slab.iter() {
            if conn.awaiting.is_some() {
                continue; // the compute-timeout pass below covers these
            }
            let quiet = now.duration_since(conn.last_activity);
            if conn.out_pending() {
                if quiet >= read_timeout {
                    idle.push(slot); // write-stalled peer: close
                }
            } else if conn.mid_request() && !conn.close_after_flush {
                if quiet >= read_timeout {
                    stalled.push(slot); // slow-loris: 408 and close
                }
            } else if quiet >= idle_timeout {
                idle.push(slot);
            }
        }
        for slot in stalled {
            self.reject_and_close(slot, 408, "request read timed out");
            self.try_flush(slot, now);
        }
        for slot in idle {
            self.close_conn(slot);
        }

        let mut expired: Vec<(Endpoint, Vec<Waiter>)> = Vec::new();
        for entry in self.inflight.values_mut() {
            if !entry.waiters.is_empty() && now.duration_since(entry.started) >= compute_timeout {
                // The computation may still finish (and fill the cache);
                // only the waiters give up.
                expired.push((entry.endpoint, std::mem::take(&mut entry.waiters)));
            }
        }
        for (endpoint, waiters) in expired {
            for waiter in waiters {
                let Some(conn) = self.slab.get_mut(waiter.slot, waiter.generation) else {
                    continue;
                };
                conn.awaiting = None;
                if waiter.header_written {
                    self.close_conn(waiter.slot);
                    continue;
                }
                self.respond_status(waiter.slot, endpoint, 504, "computation timed out", now);
                if let Some(conn) = self.slab.get_mut(waiter.slot, waiter.generation) {
                    if !conn.req_keep_alive {
                        conn.close_after_flush = true;
                    }
                }
                self.process_conn(waiter.slot, now);
            }
        }
    }

    /// During shutdown: close connections with nothing left to deliver.
    fn close_drained_for_shutdown(&mut self) {
        let drained: Vec<usize> = self
            .slab
            .iter()
            .filter(|(_, conn)| conn.awaiting.is_none() && !conn.out_pending())
            .map(|(slot, _)| slot)
            .collect();
        for slot in drained {
            self.close_conn(slot);
        }
        let flushing: Vec<usize> = self
            .slab
            .iter()
            .filter(|(_, conn)| conn.out_pending())
            .map(|(slot, _)| slot)
            .collect();
        for slot in flushing {
            let now = Instant::now();
            self.try_flush(slot, now);
        }
    }

    fn publish_inflight_gauge(&self) {
        // ce:ordering(stats gauge shadow of loop-local state; staleness is acceptable)
        self.shard
            .inflight_keys
            .store(self.inflight.len() as u64, Ordering::Relaxed);
    }

    fn publish_cache_gauge(&self) {
        // ce:ordering(stats gauge shadow of loop-local state; staleness is acceptable)
        self.shard
            .cache_entries
            .store(self.cache.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let tx = TcpStream::connect(addr).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        (tx, rx)
    }

    #[test]
    fn waker_coalesces_until_rearmed() {
        let (tx, mut rx) = loopback_pair();
        rx.set_nonblocking(true).expect("nonblocking");
        let waker = Waker::new(tx);
        waker.wake();
        waker.wake();
        waker.wake();
        let mut buf = [0u8; 16];
        let n = rx.read(&mut buf).expect("one byte");
        assert_eq!(n, 1, "coalesced to a single byte");
        waker.rearm();
        waker.wake();
        let n = rx.read(&mut buf).expect("fresh byte after rearm");
        assert_eq!(n, 1);
    }

    #[test]
    fn slab_generations_invalidate_reused_slots() {
        let mut slab = Slab::new();
        let now = Instant::now();
        let (a, _keep_a) = loopback_pair();
        let (b, _keep_b) = loopback_pair();
        let slot = slab.insert(a, now);
        let generation = slab.slot_mut(slot).expect("present").generation;
        assert!(slab.get_mut(slot, generation).is_some());
        slab.remove(slot);
        assert!(slab.get_mut(slot, generation).is_none());
        let reused = slab.insert(b, now);
        assert_eq!(reused, slot, "slot reused");
        assert!(
            slab.get_mut(slot, generation).is_none(),
            "stale generation rejected"
        );
        assert_eq!(slab.occupied(), 1);
    }

    #[test]
    fn memo_hash_separates_kinds() {
        let body = br#"{"site":"UT"}"#;
        let a = memo_hash(ComputeKind::Evaluate, body);
        let b = memo_hash(ComputeKind::Explore, body);
        let c = memo_hash(ComputeKind::Optimal, body);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, memo_hash(ComputeKind::Evaluate, body));
    }
}
