//! `ce-serve`: a dependency-free HTTP query service over the Carbon
//! Explorer exploration engine.
//!
//! The crate turns the library's design-space exploration into a network
//! service using nothing but `std` and one `poll(2)` declaration
//! ([`sys`]): per-core event-loop shards running a nonblocking readiness
//! loop with incremental HTTP/1.1 parsing ([`http`], [`server`]), a
//! hand-rolled JSON layer ([`json`]), bounded per-shard job queues
//! feeding shard-pinned workers ([`queue`]), request coalescing plus a
//! shard-owned LRU response cache and a raw-bytes request memo keyed by
//! canonical scenario keys ([`request`], [`cache`], [`hash`]), streamed
//! `transfer-encoding: chunked` bodies for large `/explore` sweeps, and
//! per-endpoint and per-shard metrics ([`metrics`]).
//!
//! # Endpoints
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `POST /evaluate` | context + `strategy` + `design` | one [`ce_core::EvaluatedDesign`] |
//! | `POST /explore` | context + `strategy` + `space` | every evaluation in the space |
//! | `POST /optimal` | context + `strategy` + `space` (+ `refine_rounds`) | the carbon-optimal design |
//! | `GET /healthz` | — | liveness (never queued) |
//! | `GET /stats` | — | counters, gauges, latency quantiles |
//! | `GET /scenarios` | — | scenario + strategy wire keys |
//! | `GET /manifest/<hash>` | — | the provenance manifest registered under a result hash |
//!
//! A *context* is `{"site": "UT"}` or `{"ba": "PACE", "demand_mw": 25}`,
//! plus optional `year` (default 2020) and `seed` (default 7). Integer
//! fields (`year`, `seed`, `refine_rounds`, axis steps) accept only exact
//! integers up to 2^53 − 1, so two different numbers never map to one
//! value.
//! `/evaluate` and `/explore` accept an optional `"manifest": true`,
//! which appends a [`ce_manifest::Manifest`] block to the response —
//! seed, year, balancing authority, strategy, code fingerprint, and the
//! canonical input/result hashes — and registers it for content-addressed
//! lookup at `GET /manifest/<result_hash>`.
//!
//! # Determinism contract
//!
//! Compute responses are **bitwise identical** to direct library calls —
//! whether computed fresh, replayed from the response cache, or shared
//! via coalescing — because bodies are encoded exactly once
//! ([`Json::encode`] is byte-deterministic) and cached/shared as
//! immutable `Arc<str>`. Streamed `/explore` bodies keep the contract:
//! the chunked fragments concatenate to exactly the buffered encoding,
//! and the fragment boundaries are cached so replays are byte-identical
//! *on the wire* too. Cache disposition travels in the `x-ce-cache`
//! header (`miss`/`hit`/`coalesced`), never in the body. The server's
//! *operational* behavior (timings, `/stats`, which requests coalesce) is
//! of course scheduling-dependent; `ce-serve` therefore holds an explicit
//! nondeterminism allowance for sockets, threads, wall-clock reads, and
//! raw fds in the workspace analyzer, mirroring `ce-bench`'s.
//!
//! # Quickstart
//!
//! ```
//! use ce_serve::{start, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let handle = start(ServerConfig::default()).expect("bind");
//! let mut conn = std::net::TcpStream::connect(handle.addr()).expect("connect");
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
//!     .expect("request");
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).expect("response");
//! assert!(reply.starts_with("HTTP/1.1 200"));
//! assert!(reply.ends_with("{\"status\":\"ok\"}"));
//! handle.shutdown();
//! ```

// `deny` rather than `forbid`: the two narrowly scoped
// `#[allow(unsafe_code)]` blocks in [`sys`] (the `poll(2)` declaration
// and its call site) are the crate's entire unsafe surface.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod event;
pub mod hash;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod server;
pub mod sys;

pub use json::{Json, JsonError};
pub use request::{
    build_explorer, evaluation_json, execute_with_manifest, manifest_json, request_manifest,
    scenarios_json, ComputeKind, ComputeRequest, Context, DemandSource, ExplorerCache, Limits,
    ManifestStore, RequestError,
};
pub use server::{start, ServerConfig, ServerHandle};
