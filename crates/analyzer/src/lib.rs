//! `ce-analyzer`: the workspace invariant linter.
//!
//! Carbon Explorer's exploration engine rests on three promises that the
//! compiler cannot check: parallel sweeps are **bitwise-identical** to
//! serial runs, the streaming dispatch kernels are **allocation-free**
//! after scratch warm-up, and fused float reductions preserve **exact
//! operation order**. A stray `HashMap` iteration, an `Instant::now`, or a
//! `vec![]` in the wrong function silently invalidates the paper's
//! Figure 13–15 reproduction while every test still passes.
//!
//! This crate is the missing correctness-tooling layer: a dependency-free
//! static-analysis pass (the workspace builds offline, so no `syn`) with a
//! [hand-rolled lexer](lexer) and a **three-pass** architecture. Pass 1
//! lexes every library file in parallel, runs the file-local
//! [rules], and [extracts](items) each file's items — functions,
//! impl owners, visibility, `ce:` markers, call sites, and per-function
//! alloc/panic/nondeterminism/blocking/unsafe/cast/`SeqCst` facts. Pass 2
//! is a conservative intraprocedural [dataflow] walk over each
//! function body, tracking integer constants, `len()`-derived bounds,
//! `min`/`clamp` range facts, and guard conditions, and classifying every
//! unchecked arithmetic and bracket-index site as *proven in-range* or
//! not. Pass 3 [resolves](resolve) the call sites into a conservative
//! workspace-wide [call graph](callgraph) and runs the graph rules.
//!
//! File-local rules:
//!
//! 1. `nondeterminism` — no hash-ordered collections or ambient state in
//!    deterministic crates (narrow allowances: `CE_THREADS` in
//!    `ce-parallel`, wall-clock/sockets in `ce-serve`);
//! 2. `hot-path-alloc` — functions marked `// ce:hot` must not allocate;
//! 3. `float-eq` — float `==`/`!=` outside tests needs an explicit
//!    `// ce:allow(float-eq, reason = "…")` marker;
//! 4. `panic-in-lib` — panic sites ratchet downward against the committed
//!    [`lint-baseline.json`](baseline);
//! 5. `crate-hygiene` — crate roots carry `#![forbid(unsafe_code)]` and
//!    `#![warn(missing_docs)]`;
//! 6. `must-use` — pure stats/result returns carry `#[must_use]`;
//! 7. `unsafe-boundary` — unsafe scopes only in the allowlisted
//!    `crates/serve/src/sys.rs`, each justified by `// ce:safety(…)`,
//!    counted and ratcheted;
//! 8. `cast-truncation` — lossy `as` casts in deterministic crates need
//!    `try_from`, explicit rounding, or `ce:allow(cast, …)`, ratcheted.
//!
//! Dataflow rules (pass 2):
//!
//! 9. `int-overflow` — unchecked `+ - * <<` on integer operands in
//!    deterministic crates must be proven in-range by dataflow, rewritten
//!    as `checked_*`/`saturating_*`, or carry `ce:allow(arith, …)`;
//!    unproven sites ratchet per file in `lint-baseline.json`;
//! 10. `slice-index` — postfix bracket indexing outside tests must be
//!     proven bounded by dataflow (guard, range loop, or `min`/`clamp`
//!     against `len() - 1`); unproven sites ratchet per file;
//! 11. `atomic-ordering` — every `Ordering::*` at an atomic call site
//!     needs a `// ce:ordering(reason)` within 3 lines.
//!
//! Graph rules (pass 3):
//!
//! 12. `hot-path-transitive-alloc` — a `// ce:hot` fn must not *reach* an
//!     allocating fn through any call chain;
//! 13. `panic-reachability` — every panic/unwrap/expect/indexing site
//!     reachable from a `// ce:hot` fn or `// ce:entry` handler, with a
//!     shortest witness call path, ratcheted by `reach-baseline.json`
//!     (dataflow-proven index sites are not panic facts, so proofs burn
//!     this baseline down);
//! 14. `dead-pub-api` — `pub` items with no real caller: no reference
//!     from non-test library or binary code, the facade, examples or
//!     `perfbench/src` (tests, `pub use` re-exports and a type's own
//!     impls do not count; same ratchet file);
//! 15. `determinism-taint` — deterministic crates must not call into
//!     functions that reach a wall-clock or socket use;
//! 16. `blocking-in-event-loop` — a `// ce:nonblocking` fn (the serve
//!     reactor tick and its helpers) must not *reach* a blocking call,
//!     with a shortest witness path; `ce:allow(blocking, …)` on a call
//!     site cuts exactly that edge. `atomic-ordering` also has a graph
//!     half: a `SeqCst` site reachable from a hot/nonblocking root is a
//!     violation unless justified by `ce:allow(seqcst, …)`.
//!
//! Resolution is conservative: method calls resolve to every same-named
//! workspace method in the caller's dependency closure, so the graph
//! rules over-approximate and cannot miss a real violation.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run --release -p ce-analyzer            # human diagnostics
//! cargo run --release -p ce-analyzer -- --format json     # CI report
//! cargo run --release -p ce-analyzer -- --format github   # CI annotations
//! cargo run --release -p ce-analyzer -- --write-baseline  # refresh both ratchets
//! cargo run --release -p ce-analyzer -- --list-rules      # rule/tier table
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 analyzer error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod driver;
pub mod items;
pub mod lexer;
pub mod resolve;
pub mod rules;

pub use baseline::{Baseline, ReachBaseline};
pub use config::Config;
pub use driver::{
    analyze_workspace, parse_args, run, scan_workspace, Format, Options, Outcome, WorkspaceAnalysis,
};
pub use resolve::CrateGraph;
pub use rules::{analyze_file, analyze_graph, FileAnalysis, GraphAnalysis, Violation};
