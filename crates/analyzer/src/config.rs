//! Workspace policy: which rules run where, and the per-crate allowances.
//!
//! The analyzer is a *workspace* linter, not a general-purpose one, so its
//! policy is code, reviewed like any other invariant. Three decisions live
//! here:
//!
//! 1. which crates are **deterministic** (subject to the `nondeterminism`
//!    rule) — everything except the escape hatches below;
//! 2. the narrow per-crate **allowances** the workspace's edges need:
//!    `ce-parallel` may read the `CE_THREADS` environment variable (worker
//!    count, which by construction cannot change results — that is the
//!    crate's whole determinism contract) and spawn threads; `ce-bench`
//!    may call `Instant::now`/`SystemTime::now` (benchmarking *is*
//!    timing), open sockets, and spawn load-generator threads; `ce-serve`
//!    may open sockets, spawn its worker pool, and read the clock, because
//!    a network service is operationally nondeterministic by nature — its
//!    *response bodies* stay bitwise-deterministic, which is exactly why
//!    the allowance never extends to the compute crates it calls into;
//! 3. the **pure result types** whose bare returns must be `#[must_use]`.

/// Names of all sixteen rules, in reporting order. The first six are
/// file-local; the next four run over the workspace call graph built by
/// [`resolve`](crate::resolve) and [`callgraph`](crate::callgraph); three
/// form the resource-discipline tier (blocking reachability, the unsafe
/// boundary audit, and lossy-cast tracking); and the last three sit on
/// the intraprocedural [`dataflow`](crate::dataflow) pass (overflow
/// audit, slice-index discipline, and atomics-ordering justification).
pub const RULE_NAMES: &[&str] = &[
    "nondeterminism",
    "hot-path-alloc",
    "float-eq",
    "panic-in-lib",
    "crate-hygiene",
    "must-use",
    "hot-path-transitive-alloc",
    "panic-reachability",
    "dead-pub-api",
    "determinism-taint",
    "blocking-in-event-loop",
    "unsafe-boundary",
    "cast-truncation",
    "int-overflow",
    "slice-index",
    "atomic-ordering",
];

/// One row of `--list-rules`: rule name, tier, and a one-line summary.
/// Kept next to [`RULE_NAMES`] (and pinned equal by a test) so the CLI,
/// the docs, and the registry cannot drift apart.
pub const RULE_INFO: &[(&str, &str, &str)] = &[
    (
        "nondeterminism",
        "file-local",
        "no clocks, RNGs, env reads, sockets, threads, or raw fds outside per-crate allowances",
    ),
    (
        "hot-path-alloc",
        "file-local",
        "no allocating calls or macros directly inside `// ce:hot` functions",
    ),
    (
        "float-eq",
        "file-local",
        "no `==`/`!=` on float expressions; compare against tolerances",
    ),
    (
        "panic-in-lib",
        "file-local (ratcheted)",
        "unwrap/expect/panic!/unreachable! sites per file may only shrink vs lint-baseline.json",
    ),
    (
        "crate-hygiene",
        "file-local",
        "crate roots carry #![forbid(unsafe_code)] (serve: deny) and the standard lint set",
    ),
    (
        "must-use",
        "file-local",
        "pub fns returning bare stats/result types must be #[must_use]",
    ),
    (
        "hot-path-transitive-alloc",
        "call-graph",
        "`// ce:hot` functions must not transitively reach an allocating function",
    ),
    (
        "panic-reachability",
        "call-graph (ratcheted)",
        "panic sites reachable from hot/entry roots may only shrink vs reach-baseline.json",
    ),
    (
        "dead-pub-api",
        "call-graph (ratcheted)",
        "pub items referenced nowhere in the workspace, tests, benches, or examples",
    ),
    (
        "determinism-taint",
        "call-graph",
        "deterministic crates must not transitively call nondeterminism behind an allowance",
    ),
    (
        "blocking-in-event-loop",
        "resource-discipline (call-graph)",
        "`// ce:nonblocking` functions must not transitively reach a blocking call",
    ),
    (
        "unsafe-boundary",
        "resource-discipline (ratcheted)",
        "unsafe only in the allowlisted FFI module, each site // ce:safety-justified and counted",
    ),
    (
        "cast-truncation",
        "resource-discipline (ratcheted)",
        "lossy `as` casts in deterministic crates need try_from, explicit rounding, or ce:allow(cast)",
    ),
    (
        "int-overflow",
        "dataflow (ratcheted)",
        "unchecked + - * << on ints in deterministic crates: prove in-range, checked_*/saturating_*, or ce:allow(arith)",
    ),
    (
        "slice-index",
        "dataflow (ratcheted)",
        "bracket indexing outside tests must be dataflow-proven bounded; unproven sites ratchet per file",
    ),
    (
        "atomic-ordering",
        "dataflow (call-graph)",
        "every Ordering::* needs // ce:ordering(reason) within 3 lines; SeqCst on hot/nonblocking paths needs ce:allow(seqcst)",
    ),
];

/// `ce:allow(...)` kinds that are not rule names: `blocking` suppresses a
/// blocking fact or cuts one call edge for `blocking-in-event-loop`;
/// `cast` suppresses one lossy-cast site for `cast-truncation`; `arith`
/// suppresses one unproven arithmetic site for `int-overflow`; `index`
/// suppresses one unproven bracket-index site for `slice-index`; `seqcst`
/// justifies one `SeqCst` site on a hot/nonblocking-reachable path for
/// `atomic-ordering`.
pub const ALLOW_KINDS: &[&str] = &["blocking", "cast", "arith", "index", "seqcst"];

/// Whether `kind` is valid inside `ce:allow(kind, reason = "…")` — either
/// a rule name or one of the site-kind shorthands in [`ALLOW_KINDS`].
pub fn is_allow_kind(kind: &str) -> bool {
    RULE_NAMES.contains(&kind) || ALLOW_KINDS.contains(&kind)
}

/// The rule that owns diagnostics about an allow kind (e.g. a missing
/// reason): shorthands map to their rule, rule names map to themselves.
pub fn rule_for_allow_kind(kind: &str) -> &str {
    match kind {
        "blocking" => "blocking-in-event-loop",
        "cast" => "cast-truncation",
        "arith" => "int-overflow",
        "index" => "slice-index",
        "seqcst" => "atomic-ordering",
        other => other,
    }
}

/// Files allowed to contain unsafe code at all. The `poll(2)` FFI shim is
/// the workspace's entire unsafe surface; `unsafe-boundary` rejects any
/// unsafe fact elsewhere outright (no baseline entry can admit it).
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/serve/src/sys.rs"];

/// Whether `rel_path` may contain `unsafe` / `#[allow(unsafe_code)]`.
pub fn unsafe_allowlisted(rel_path: &str) -> bool {
    UNSAFE_ALLOWLIST.contains(&rel_path)
}

/// Whether `rel_path` belongs to a deterministic crate — no wall-clock or
/// socket allowance — and is therefore subject to `cast-truncation`.
/// The operational front ends (`ce-serve`, `ce-bench`) deal in fd counts,
/// byte lengths, and latency buckets where narrowing is routine and
/// outside the bitwise-determinism contract.
pub fn is_deterministic(rel_path: &str) -> bool {
    let a = allowances_for(rel_path);
    !a.wall_clock && !a.sockets
}

/// Per-crate escape hatches for the `nondeterminism` rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateAllowances {
    /// `std::env::var` is permitted, but only with a `"CE_THREADS"`
    /// literal argument.
    pub env_var_ce_threads: bool,
    /// `Instant::now` / `SystemTime::now` are permitted (timing harness).
    pub wall_clock: bool,
    /// `TcpListener` / `TcpStream` / `UdpSocket` are permitted (network
    /// front ends and their load generators).
    pub sockets: bool,
    /// `thread::spawn` / `thread::scope` are permitted (worker pools).
    pub threads: bool,
    /// Raw file-descriptor APIs (`AsRawFd`, `as_raw_fd`, `RawFd`,
    /// `from_raw_fd`, …) are permitted. Only the event-loop front end
    /// needs them, to hand sockets to `poll(2)`; everywhere else a raw fd
    /// is a sign of I/O sneaking into deterministic code.
    pub raw_fds: bool,
}

/// The analyzer's compiled-in policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Result types whose bare (non-`Result`/`Option`) returns from `pub`
    /// functions must carry `#[must_use]`.
    pub must_use_types: Vec<&'static str>,
    /// Method names forbidden inside `// ce:hot` functions (matched as
    /// `.name`).
    pub hot_forbidden_methods: Vec<&'static str>,
    /// Path patterns forbidden inside `// ce:hot` functions (matched as
    /// `A::b`).
    pub hot_forbidden_paths: Vec<(&'static str, &'static str)>,
    /// Macro names forbidden inside `// ce:hot` functions (matched as
    /// `name!`).
    pub hot_forbidden_macros: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            must_use_types: vec![
                "DispatchStats",
                "CombinedStats",
                "DeficitStats",
                "QueueStats",
                "EvaluatedDesign",
            ],
            hot_forbidden_methods: vec![
                "collect",
                "to_vec",
                "clone",
                "to_string",
                "to_owned",
                "cloned",
            ],
            hot_forbidden_paths: vec![
                ("Vec", "new"),
                ("Vec", "with_capacity"),
                ("Box", "new"),
                ("String", "from"),
                ("String", "new"),
                ("String", "with_capacity"),
                ("VecDeque", "new"),
                ("VecDeque", "with_capacity"),
                ("BTreeMap", "new"),
                ("HashMap", "new"),
            ],
            hot_forbidden_macros: vec!["vec", "format"],
        }
    }
}

/// The allowances for the crate owning `rel_path` (a path relative to the
/// workspace root, e.g. `crates/parallel/src/lib.rs`).
pub fn allowances_for(rel_path: &str) -> CrateAllowances {
    match crate_dir(rel_path) {
        Some("parallel") => CrateAllowances {
            env_var_ce_threads: true,
            threads: true,
            ..CrateAllowances::default()
        },
        Some("bench") => CrateAllowances {
            wall_clock: true,
            sockets: true,
            threads: true,
            ..CrateAllowances::default()
        },
        Some("serve") => CrateAllowances {
            wall_clock: true,
            sockets: true,
            threads: true,
            raw_fds: true,
            ..CrateAllowances::default()
        },
        _ => CrateAllowances::default(),
    }
}

/// Whether `rel_path`'s crate root may use `#![deny(unsafe_code)]` in
/// place of `#![forbid(unsafe_code)]`. Only `ce-serve` qualifies: its
/// `sys` module holds the workspace's single `poll(2)` FFI declaration
/// behind scoped `#[allow(unsafe_code)]` blocks, which `forbid` would
/// reject outright. `deny` still makes any *new* unsafe a hard error
/// unless it carries an explicit, reviewable `allow`.
pub fn may_deny_unsafe(rel_path: &str) -> bool {
    crate_dir(rel_path) == Some("serve")
}

/// The `crates/<dir>` component of a workspace-relative path, if any.
/// The facade crate (`src/lib.rs` at the root) returns `None`.
pub fn crate_dir(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// The crate key of a workspace-relative path: the `crates/<dir>` name,
/// or `"facade"` for the root `src/` crate. Keys are what the call graph
/// and dependency closure are indexed by.
pub fn crate_key(rel_path: &str) -> String {
    crate_dir(rel_path).unwrap_or("facade").to_string()
}

/// Whether `rel_path` is a crate root (`lib.rs` directly under a `src/`
/// directory) and therefore subject to the `crate-hygiene` rule.
pub fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(crate_dir("crates/parallel/src/lib.rs"), Some("parallel"));
        assert_eq!(crate_dir("crates/bench/src/bin/repro.rs"), Some("bench"));
        assert_eq!(crate_dir("src/lib.rs"), None);
    }

    #[test]
    fn allowances() {
        let parallel = allowances_for("crates/parallel/src/lib.rs");
        assert!(parallel.env_var_ce_threads && parallel.threads);
        assert!(!parallel.wall_clock && !parallel.sockets);
        let bench = allowances_for("crates/bench/src/bin/repro.rs");
        assert!(bench.wall_clock && bench.sockets && bench.threads);
        assert!(!bench.env_var_ce_threads);
        let serve = allowances_for("crates/serve/src/server.rs");
        assert!(serve.wall_clock && serve.sockets && serve.threads && serve.raw_fds);
        assert!(!serve.env_var_ce_threads);
        let bench = allowances_for("crates/bench/src/context.rs");
        assert!(!bench.raw_fds, "only the event loop handles raw fds");
        assert_eq!(
            allowances_for("crates/core/src/explore.rs"),
            CrateAllowances::default()
        );
    }

    #[test]
    fn deny_unsafe_exception_is_serve_only() {
        assert!(may_deny_unsafe("crates/serve/src/lib.rs"));
        assert!(!may_deny_unsafe("crates/core/src/lib.rs"));
        assert!(!may_deny_unsafe("crates/bench/src/bin/repro.rs"));
        assert!(!may_deny_unsafe("src/lib.rs"));
    }

    #[test]
    fn rule_info_matches_rule_names() {
        assert_eq!(RULE_INFO.len(), RULE_NAMES.len());
        for ((info_name, _, _), name) in RULE_INFO.iter().zip(RULE_NAMES) {
            assert_eq!(info_name, name, "RULE_INFO order drifted from RULE_NAMES");
        }
    }

    #[test]
    fn allow_kinds() {
        assert!(is_allow_kind("blocking"));
        assert!(is_allow_kind("cast"));
        assert!(is_allow_kind("arith"));
        assert!(is_allow_kind("index"));
        assert!(is_allow_kind("seqcst"));
        assert!(is_allow_kind("hot-path-alloc"));
        assert!(!is_allow_kind("frobnicate"));
        assert_eq!(rule_for_allow_kind("blocking"), "blocking-in-event-loop");
        assert_eq!(rule_for_allow_kind("cast"), "cast-truncation");
        assert_eq!(rule_for_allow_kind("arith"), "int-overflow");
        assert_eq!(rule_for_allow_kind("index"), "slice-index");
        assert_eq!(rule_for_allow_kind("seqcst"), "atomic-ordering");
        assert_eq!(rule_for_allow_kind("float-eq"), "float-eq");
    }

    #[test]
    fn sixteen_rules_with_the_dataflow_tier_last() {
        assert_eq!(RULE_NAMES.len(), 16);
        assert_eq!(
            &RULE_NAMES[13..],
            &["int-overflow", "slice-index", "atomic-ordering"]
        );
    }

    #[test]
    fn unsafe_allowlist_is_sys_only() {
        assert!(unsafe_allowlisted("crates/serve/src/sys.rs"));
        assert!(!unsafe_allowlisted("crates/serve/src/event.rs"));
        assert!(!unsafe_allowlisted("crates/core/src/explore.rs"));
    }

    #[test]
    fn deterministic_crates_exclude_operational_front_ends() {
        assert!(is_deterministic("crates/core/src/explore.rs"));
        assert!(is_deterministic("crates/parallel/src/lib.rs"));
        assert!(is_deterministic("src/lib.rs"));
        // Provenance records attest determinism, so the crate that mints
        // them must itself be free of clocks, RNGs, and env reads.
        assert!(is_deterministic("crates/manifest/src/manifest.rs"));
        assert!(is_deterministic("crates/manifest/src/sha256.rs"));
        assert!(!is_deterministic("crates/serve/src/event.rs"));
        assert!(!is_deterministic("crates/bench/src/context.rs"));
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/explore.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/repro.rs"));
    }
}
