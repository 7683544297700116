//! Golden-file diagnostics tests.
//!
//! Every rule has a **positive** fixture whose rendered diagnostics must
//! match the committed `.expected` file byte-for-byte, and a **negative**
//! fixture — the same constructs carrying `ce:allow` markers or living in
//! an allowlisted crate/test region — that must analyze clean. A final
//! self-check runs the full driver against the live workspace and demands
//! a clean exit, so the linter can never drift from the code it guards.
//!
//! To regenerate the goldens after an intentional diagnostics change:
//! `CE_BLESS=1 cargo test -p ce-analyzer --test golden`, then review the
//! diff.

use ce_analyzer::config::Config;
use ce_analyzer::rules::analyze_file;
use ce_analyzer::{
    analyze_workspace, run, scan_workspace, CrateGraph, Format, Options, Outcome, WorkspaceAnalysis,
};
use std::fs;
use std::path::{Path, PathBuf};

/// A fixture analyzed under a synthetic workspace-relative path (the path
/// decides which crate allowances and root-only rules apply).
struct Case {
    /// File stem under `tests/fixtures/`, without `.rs`.
    stem: &'static str,
    /// The path the analyzer is told the fixture lives at.
    rel_path: &'static str,
    /// Whether the fixture must produce diagnostics (golden-compared) or
    /// analyze completely clean.
    dirty: bool,
}

const CASES: &[Case] = &[
    Case {
        stem: "nondeterminism_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "nondeterminism_ok",
        rel_path: "crates/parallel/src/workers.rs",
        dirty: false,
    },
    Case {
        stem: "serving_nondeterminism_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "serving_nondeterminism_ok",
        rel_path: "crates/serve/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "serve_allowance_narrow_bad",
        rel_path: "crates/serve/src/fixture.rs",
        dirty: true,
    },
    Case {
        // Provenance records must not carry wall-clock stamps: the
        // manifest crate is deterministic, so a `SystemTime::now`
        // creation timestamp is rejected, not baselined.
        stem: "manifest_wallclock_bad",
        rel_path: "crates/manifest/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "raw_fd_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "raw_fd_ok",
        rel_path: "crates/serve/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "hot_path_alloc_bad",
        rel_path: "crates/timeseries/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "hot_path_alloc_ok",
        rel_path: "crates/timeseries/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "float_eq_bad",
        rel_path: "crates/timeseries/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "float_eq_ok",
        rel_path: "crates/timeseries/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "panic_in_lib_bad",
        rel_path: "crates/grid/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "panic_in_lib_ok",
        rel_path: "crates/grid/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "crate_hygiene_bad",
        rel_path: "crates/grid/src/lib.rs",
        dirty: true,
    },
    Case {
        stem: "crate_hygiene_ok",
        rel_path: "crates/grid/src/lib.rs",
        dirty: false,
    },
    Case {
        stem: "deny_unsafe_hygiene_bad",
        rel_path: "crates/grid/src/lib.rs",
        dirty: true,
    },
    Case {
        stem: "deny_unsafe_hygiene_ok",
        rel_path: "crates/serve/src/lib.rs",
        dirty: false,
    },
    Case {
        stem: "must_use_bad",
        rel_path: "crates/battery/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "must_use_ok",
        rel_path: "crates/battery/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "marker_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "cast_truncation_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "cast_truncation_ok",
        rel_path: "crates/core/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "unsafe_boundary_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        // The allowlisted path: justified unsafe is *counted*, not
        // flagged — dirty so the golden pins the two `unsafe-site` lines
        // (and, by matching exactly, the absence of any violation).
        stem: "unsafe_boundary_ok",
        rel_path: "crates/serve/src/sys.rs",
        dirty: true,
    },
    Case {
        stem: "int_overflow_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "int_overflow_ok",
        rel_path: "crates/core/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "slice_index_bad",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "slice_index_ok",
        rel_path: "crates/core/src/fixture.rs",
        dirty: false,
    },
    Case {
        stem: "atomic_ordering_bad",
        rel_path: "crates/serve/src/fixture.rs",
        dirty: true,
    },
    Case {
        stem: "atomic_ordering_ok",
        rel_path: "crates/serve/src/fixture.rs",
        dirty: false,
    },
    Case {
        // Both directions of the dataflow classifier in one file: the
        // guarded twins are accepted (absent from the golden), the
        // unguarded twins are rejected at their exact site lines.
        stem: "dataflow_precision",
        rel_path: "crates/core/src/fixture.rs",
        dirty: true,
    },
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Renders one fixture's analysis the way `print_human` renders the
/// workspace scan, with ratchet inputs appended so the panic-site counter
/// is golden-tested too.
fn render(case: &Case, config: &Config) -> String {
    let source = fs::read_to_string(fixtures_dir().join(format!("{}.rs", case.stem)))
        .expect("fixture exists");
    let analysis = analyze_file(case.rel_path, &source, config);
    let mut out = String::new();
    for v in &analysis.violations {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            v.file, v.line, v.col, v.rule, v.message
        ));
    }
    for line in &analysis.panic_sites {
        out.push_str(&format!("panic-site {}:{}\n", case.rel_path, line));
    }
    for line in &analysis.cast_sites {
        out.push_str(&format!("cast-site {}:{}\n", case.rel_path, line));
    }
    for line in &analysis.unsafe_sites {
        out.push_str(&format!("unsafe-site {}:{}\n", case.rel_path, line));
    }
    for line in &analysis.arith_sites {
        out.push_str(&format!("arith-site {}:{}\n", case.rel_path, line));
    }
    for line in &analysis.index_sites {
        out.push_str(&format!("index-site {}:{}\n", case.rel_path, line));
    }
    out
}

#[test]
fn fixtures_match_goldens() {
    let config = Config::default();
    let bless = std::env::var_os("CE_BLESS").is_some();
    let mut failures = Vec::new();
    for case in CASES {
        let rendered = render(case, &config);
        if !case.dirty {
            if !rendered.is_empty() {
                failures.push(format!(
                    "{}: expected a clean analysis, got:\n{rendered}",
                    case.stem
                ));
            }
            continue;
        }
        let golden_path = fixtures_dir().join(format!("{}.expected", case.stem));
        if bless {
            fs::write(&golden_path, &rendered).expect("write golden");
            continue;
        }
        let golden = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: missing golden ({e}); run CE_BLESS=1", case.stem));
        if rendered != golden {
            failures.push(format!(
                "{}: diagnostics drifted from golden.\n--- expected ---\n{golden}\
                 --- actual ---\n{rendered}",
                case.stem
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A multi-file fixture: a mini-workspace directory under
/// `tests/fixtures/graph/<name>/` with `crates/*/Cargo.toml` manifests,
/// analyzed end to end through both passes. Dirty cases golden-compare
/// their graph-rule output against the committed `expected.txt` in the
/// case directory; clean cases must produce no graph findings at all.
struct GraphCase {
    name: &'static str,
    dirty: bool,
}

const GRAPH_CASES: &[GraphCase] = &[
    GraphCase {
        name: "transitive_alloc_bad",
        dirty: true,
    },
    GraphCase {
        name: "transitive_alloc_ok",
        dirty: false,
    },
    GraphCase {
        name: "panic_reach_bad",
        dirty: true,
    },
    GraphCase {
        name: "panic_reach_ok",
        dirty: false,
    },
    GraphCase {
        name: "dead_pub_bad",
        dirty: true,
    },
    GraphCase {
        name: "dead_pub_ok",
        dirty: false,
    },
    GraphCase {
        name: "determinism_taint_bad",
        dirty: true,
    },
    GraphCase {
        name: "determinism_taint_ok",
        dirty: false,
    },
    // Conservatism proof: `kernel` calls `.compute()` on a `Cheap`
    // receiver, but method resolution is name-based, so the allocating
    // `Costly::compute` candidate keeps the violation alive — the rule
    // over-approximates rather than miss a real reach.
    GraphCase {
        name: "ambiguous_method",
        dirty: true,
    },
    GraphCase {
        name: "nonblocking_bad",
        dirty: true,
    },
    GraphCase {
        name: "nonblocking_allowed",
        dirty: false,
    },
    GraphCase {
        name: "seqcst_hot_bad",
        dirty: true,
    },
    GraphCase {
        name: "seqcst_allowed",
        dirty: false,
    },
];

fn graph_case_dir(name: &str) -> PathBuf {
    fixtures_dir().join("graph").join(name)
}

/// Runs both analysis passes over one graph case, with the driver's own
/// scan sets (so a case's `tests/` files are not callers, while its
/// `examples/` and `perfbench/src` are).
fn analyze_graph_case(case: &GraphCase) -> WorkspaceAnalysis {
    let dir = graph_case_dir(case.name);
    let crates = CrateGraph::from_root(&dir).expect("fixture manifests parse");
    let (lib, refs) = scan_workspace(&dir).expect("fixture scans");
    analyze_workspace(&lib, &refs, crates, &Config::default())
}

/// Renders a graph case's *graph-rule* output (file-local rules are
/// covered by the single-file goldens and ignored here).
fn render_graph(analysis: &WorkspaceAnalysis) -> String {
    const GRAPH_RULES: &[&str] = &[
        "hot-path-transitive-alloc",
        "determinism-taint",
        "blocking-in-event-loop",
        "atomic-ordering",
    ];
    let mut out = String::new();
    for v in &analysis.violations {
        if GRAPH_RULES.contains(&v.rule.as_str()) {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                v.file, v.line, v.col, v.rule, v.message
            ));
        }
    }
    for f in &analysis.panic_reach {
        out.push_str(&format!(
            "reach {}:{}:{}: {} in `{}` via {}\n",
            f.file, f.line, f.col, f.what, f.in_fn, f.witness
        ));
    }
    for d in &analysis.dead_api {
        out.push_str(&format!(
            "dead {}:{}: pub {} `{}`\n",
            d.file, d.line, d.kind, d.name
        ));
    }
    out
}

#[test]
fn graph_fixtures_match_goldens() {
    let bless = std::env::var_os("CE_BLESS").is_some();
    let mut failures = Vec::new();
    for case in GRAPH_CASES {
        let rendered = render_graph(&analyze_graph_case(case));
        if !case.dirty {
            if !rendered.is_empty() {
                failures.push(format!(
                    "{}: expected no graph findings, got:\n{rendered}",
                    case.name
                ));
            }
            continue;
        }
        let golden_path = graph_case_dir(case.name).join("expected.txt");
        if bless {
            fs::write(&golden_path, &rendered).expect("write golden");
            continue;
        }
        let golden = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: missing golden ({e}); run CE_BLESS=1", case.name));
        if rendered != golden {
            failures.push(format!(
                "{}: graph diagnostics drifted from golden.\n--- expected ---\n{golden}\
                 --- actual ---\n{rendered}",
                case.name
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_reachability_finding_carries_a_witness_path() {
    // The rule's contract: no finding without a concrete call path.
    for case in GRAPH_CASES.iter().filter(|c| c.dirty) {
        for f in &analyze_graph_case(case).panic_reach {
            assert!(
                !f.witness.is_empty(),
                "{}: finding at {}:{} has no witness",
                case.name,
                f.file,
                f.line
            );
        }
    }
}

#[test]
fn dirty_fixtures_exercise_every_rule() {
    // The positive fixtures, between them, must cover every rule name —
    // otherwise a rule could silently stop firing without any golden
    // noticing. File-local rules come from the single-file cases, graph
    // rules from the mini-workspace cases. The counting rules
    // (`panic-in-lib`, `cast-truncation`, `unsafe-boundary`,
    // `int-overflow`, `slice-index`) surface as ratcheted site counts
    // rather than direct violations, so their coverage is synthesized
    // from the extracted sites.
    let config = Config::default();
    let mut seen: Vec<String> = Vec::new();
    for case in CASES.iter().filter(|c| c.dirty) {
        let source = fs::read_to_string(fixtures_dir().join(format!("{}.rs", case.stem)))
            .expect("fixture exists");
        let analysis = analyze_file(case.rel_path, &source, &config);
        for v in &analysis.violations {
            seen.push(v.rule.clone());
        }
        if !analysis.panic_sites.is_empty() {
            seen.push("panic-in-lib".to_string());
        }
        if !analysis.cast_sites.is_empty() {
            seen.push("cast-truncation".to_string());
        }
        if !analysis.arith_sites.is_empty() {
            seen.push("int-overflow".to_string());
        }
        if !analysis.index_sites.is_empty() {
            seen.push("slice-index".to_string());
        }
    }
    for case in GRAPH_CASES.iter().filter(|c| c.dirty) {
        let analysis = analyze_graph_case(case);
        for v in &analysis.violations {
            seen.push(v.rule.clone());
        }
        if !analysis.panic_reach.is_empty() {
            seen.push("panic-reachability".to_string());
        }
        if !analysis.dead_api.is_empty() {
            seen.push("dead-pub-api".to_string());
        }
    }
    for rule in ce_analyzer::config::RULE_NAMES {
        assert!(
            seen.iter().any(|s| s == rule),
            "no positive fixture triggers `{rule}`"
        );
    }
}

#[test]
fn serial_and_parallel_analysis_are_identical() {
    // The two-pass scan fans out per file over `ce_parallel::par_map`;
    // its input-order result contract must make the full analysis —
    // violations, findings, witnesses, stats — byte-identical to a
    // serial run on the live workspace.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root resolves");
    let (lib, refs) = scan_workspace(&root).expect("workspace scans");
    let parallel = analyze_workspace(
        &lib,
        &refs,
        CrateGraph::from_root(&root).expect("crate graph builds"),
        &Config::default(),
    );
    let serial = ce_parallel::run_serial(|| {
        analyze_workspace(
            &lib,
            &refs,
            CrateGraph::from_root(&root).expect("crate graph builds"),
            &Config::default(),
        )
    });
    assert_eq!(parallel, serial);
}

#[test]
fn live_workspace_is_clean() {
    // The self-check: the analyzer must pass on the workspace that ships
    // it, with the committed baseline. A regression here means either new
    // code broke an invariant or a rule change needs the codebase (or the
    // baseline) brought along in the same commit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root resolves");
    let opts = Options {
        baseline_path: root.join("lint-baseline.json"),
        reach_baseline_path: root.join("reach-baseline.json"),
        root,
        format: Format::Json,
        write_baseline: false,
        list_rules: false,
    };
    assert_eq!(
        run(&opts),
        Outcome::Clean,
        "ce-analyzer found violations in the live workspace; run \
         `cargo run -p ce-analyzer` for diagnostics"
    );
}

#[test]
fn live_serve_reactor_is_verified_nonblocking() {
    // Pins the serve crate's resource-discipline posture: the event loop's
    // reactor tick (and its helpers) must stay `ce:nonblocking` so the
    // blocking-reachability rule keeps guarding them, and the crate's
    // entire unsafe surface must remain the two justified scopes in
    // `sys.rs`. If either marker set is deleted, the graph rule would pass
    // vacuously — this test fails instead.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root resolves");
    let event_loop = fs::read_to_string(root.join("crates/serve/src/event.rs")).expect("event.rs");
    let roots = event_loop
        .lines()
        .filter(|l| l.trim() == "// ce:nonblocking")
        .count();
    assert!(
        roots >= 4,
        "expected the reactor tick, completion drain, connection \
         state-machine and deadline sweep to stay ce:nonblocking, found \
         {roots} markers"
    );

    let (lib, refs) = scan_workspace(&root).expect("workspace scans");
    let analysis = analyze_workspace(
        &lib,
        &refs,
        CrateGraph::from_root(&root).expect("crate graph builds"),
        &Config::default(),
    );
    let blocking: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "blocking-in-event-loop")
        .collect();
    assert!(
        blocking.is_empty(),
        "the live event loop reaches a blocking call: {blocking:#?}"
    );
    let unsafe_files: Vec<_> = analysis.unsafe_counts.keys().collect();
    assert_eq!(
        unsafe_files,
        vec!["crates/serve/src/sys.rs"],
        "justified unsafe must stay confined to the poll(2) shim"
    );
    assert_eq!(
        analysis.unsafe_counts["crates/serve/src/sys.rs"].len(),
        2,
        "sys.rs must hold exactly its two audited unsafe scopes \
         (declaration + call site)"
    );
}
