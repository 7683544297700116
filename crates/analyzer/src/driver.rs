//! The CLI driver: walks the workspace, runs all three analysis passes,
//! applies the baseline ratchets, and renders diagnostics.
//!
//! Scan set: `crates/*/src/**/*.rs` plus the facade crate's `src/**/*.rs`,
//! in sorted path order so output (and the JSON report) is deterministic —
//! the analyzer holds itself to the invariants it enforces. `vendor/` and
//! `target/` are out of scope. Examples and `perfbench/src` (the
//! repository benchmark, built outside the workspace against its crates)
//! are scanned as *reference* files only: their identifiers feed the
//! `dead-pub-api` liveness index, but no rules run on them. Tests are not
//! callers, so `tests/` directories are not scanned at all.
//!
//! File reading is sequential; the per-file work (lexing, file-local
//! rules, item extraction) fans out over `ce_parallel::par_map`, whose
//! input-order result guarantee keeps diagnostics byte-identical to a
//! serial run (pinned by the serial-vs-parallel equality test).

use crate::baseline::{Baseline, ReachBaseline};
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::items::extract;
use crate::resolve::{resolve, CrateGraph, Workspace};
use crate::rules::{analyze_file, analyze_graph, DeadFinding, ReachFinding, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Output format for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `path:line:col: [rule] message`, one per line, plus a summary.
    Human,
    /// A single JSON object (for CI artifacts).
    Json,
    /// GitHub Actions workflow commands (`::error file=…,line=…::…`),
    /// one per violation, plus a plain summary line.
    Github,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (defaults to searching upward from cwd).
    pub root: PathBuf,
    /// Output format.
    pub format: Format,
    /// Rewrite both baselines from the current counts.
    pub write_baseline: bool,
    /// Print the rule table (name, tier, description) and exit.
    pub list_rules: bool,
    /// Path of the panic-site baseline (default: `<root>/lint-baseline.json`).
    pub baseline_path: PathBuf,
    /// Path of the reachability/dead-API baseline (default:
    /// `<root>/reach-baseline.json`).
    pub reach_baseline_path: PathBuf,
}

/// The exit status the process should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All rules clean; exit 0.
    Clean,
    /// One or more violations; exit 1.
    Violations,
    /// The analyzer itself could not run; exit 2.
    Error,
}

impl Outcome {
    /// The process exit code for this outcome.
    pub fn code(self) -> i32 {
        match self {
            Outcome::Clean => 0,
            Outcome::Violations => 1,
            Outcome::Error => 2,
        }
    }
}

/// Parses CLI arguments (everything after the program name).
///
/// # Errors
///
/// Returns a usage message on unknown flags or missing values.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut write_baseline = false;
    let mut list_rules = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut reach_baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("github") => Format::Github,
                    other => {
                        return Err(format!(
                            "--format must be `human`, `json`, or `github`, got {other:?}"
                        ))
                    }
                };
            }
            "--write-baseline" => write_baseline = true,
            "--list-rules" => list_rules = true,
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    it.next().ok_or("--baseline needs a file path")?,
                ));
            }
            "--reach-baseline" => {
                reach_baseline_path = Some(PathBuf::from(
                    it.next().ok_or("--reach-baseline needs a file path")?,
                ));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        // --list-rules never touches the workspace; don't demand one.
        None if list_rules => PathBuf::from("."),
        None => find_workspace_root()?,
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));
    let reach_baseline_path =
        reach_baseline_path.unwrap_or_else(|| root.join("reach-baseline.json"));
    Ok(Options {
        root,
        format,
        write_baseline,
        list_rules,
        baseline_path,
        reach_baseline_path,
    })
}

const USAGE: &str = "usage: ce-analyzer [--root DIR] [--format human|json|github] \
[--baseline FILE] [--reach-baseline FILE] [--write-baseline] [--list-rules]";

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

/// The complete result of both analysis passes — pure data, independent
/// of baselines and output format, so tests can compare serial and
/// parallel runs for equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkspaceAnalysis {
    /// File-local violations plus graph-rule hard violations, unsorted
    /// (the driver sorts after ratcheting).
    pub violations: Vec<Violation>,
    /// Per-file panic-site lines, for the `panic-in-lib` ratchet.
    pub panic_counts: BTreeMap<String, Vec<u32>>,
    /// Per-file lossy-cast lines, for the `cast-truncation` ratchet.
    pub cast_counts: BTreeMap<String, Vec<u32>>,
    /// Per-file justified-unsafe lines, for the `unsafe-boundary` ratchet.
    pub unsafe_counts: BTreeMap<String, Vec<u32>>,
    /// Per-file unproven-arithmetic lines, for the `int-overflow` ratchet.
    pub arith_counts: BTreeMap<String, Vec<u32>>,
    /// Per-file unproven-index lines, for the `slice-index` ratchet.
    pub index_counts: BTreeMap<String, Vec<u32>>,
    /// `panic-reachability` findings with witnesses.
    pub panic_reach: Vec<ReachFinding>,
    /// `dead-pub-api` findings.
    pub dead_api: Vec<DeadFinding>,
    /// Library files scanned.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub fn_count: usize,
    /// Resolved call edges.
    pub edge_count: usize,
}

/// Runs both passes over in-memory sources. `lib_sources` are
/// `(workspace-relative path, contents)` pairs for library files (rules +
/// extraction); `ref_sources` are examples and the benchmark (reference
/// index only). Pure: same inputs, same output, parallel or serial.
pub fn analyze_workspace(
    lib_sources: &[(String, String)],
    ref_sources: &[(String, String)],
    crates: CrateGraph,
    config: &Config,
) -> WorkspaceAnalysis {
    // Pass 1, fanned out per file. par_map returns results in input
    // order, so everything downstream is deterministic.
    let per_file = ce_parallel::par_map(lib_sources, |(rel, src)| {
        (analyze_file(rel, src, config), extract(rel, src))
    });
    let ref_items = ce_parallel::par_map(ref_sources, |(rel, src)| extract(rel, src));

    let mut violations = Vec::new();
    let mut panic_counts = BTreeMap::new();
    let mut cast_counts = BTreeMap::new();
    let mut unsafe_counts = BTreeMap::new();
    let mut arith_counts = BTreeMap::new();
    let mut index_counts = BTreeMap::new();
    let mut lib_items = Vec::with_capacity(per_file.len());
    for ((analysis, items), (rel, _)) in per_file.into_iter().zip(lib_sources) {
        violations.extend(analysis.violations);
        if !analysis.panic_sites.is_empty() {
            panic_counts.insert(rel.clone(), analysis.panic_sites);
        }
        if !analysis.cast_sites.is_empty() {
            cast_counts.insert(rel.clone(), analysis.cast_sites);
        }
        if !analysis.unsafe_sites.is_empty() {
            unsafe_counts.insert(rel.clone(), analysis.unsafe_sites);
        }
        if !analysis.arith_sites.is_empty() {
            arith_counts.insert(rel.clone(), analysis.arith_sites);
        }
        if !analysis.index_sites.is_empty() {
            index_counts.insert(rel.clone(), analysis.index_sites);
        }
        lib_items.push(items);
    }

    // Pass 3: merge, resolve, run the graph rules.
    let ws = Workspace::build(lib_items, ref_items, crates);
    let graph = CallGraph::new(resolve(&ws));
    let ga = analyze_graph(&ws, &graph);
    violations.extend(ga.violations);

    WorkspaceAnalysis {
        violations,
        panic_counts,
        cast_counts,
        unsafe_counts,
        arith_counts,
        index_counts,
        panic_reach: ga.panic_reach,
        dead_api: ga.dead_api,
        files_scanned: lib_sources.len(),
        fn_count: ws.fns.len(),
        edge_count: graph.edge_count(),
    }
}

/// Sorted `(workspace-relative path, contents)` pairs for one scan set.
pub type SourceSet = Vec<(String, String)>;

/// Reads both scan sets from disk: library sources (rules + extraction)
/// and reference sources (examples and `perfbench/src`, liveness index
/// only), each as sorted `(workspace-relative path, contents)` pairs.
///
/// # Errors
///
/// Returns a message if a directory or file cannot be read.
pub fn scan_workspace(root: &Path) -> Result<(SourceSet, SourceSet), String> {
    let read_all = |files: Vec<String>| -> Result<Vec<(String, String)>, String> {
        files
            .into_iter()
            .map(|rel| {
                let path = root.join(&rel);
                fs::read_to_string(&path)
                    .map(|src| (rel, src))
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
            })
            .collect()
    };
    Ok((read_all(scan_set(root)?)?, read_all(ref_scan_set(root)?)?))
}

/// Runs the analyzer with `opts`, printing diagnostics to stdout.
/// This is the whole program; `main` only parses arguments.
pub fn run(opts: &Options) -> Outcome {
    if opts.list_rules {
        print!("{}", render_rule_table());
        return Outcome::Clean;
    }
    let (lib_sources, ref_sources) = match scan_workspace(&opts.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ce-analyzer: {e}");
            return Outcome::Error;
        }
    };
    let crates = match CrateGraph::from_root(&opts.root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ce-analyzer: {e}");
            return Outcome::Error;
        }
    };

    let config = Config::default();
    let analysis = analyze_workspace(&lib_sources, &ref_sources, crates, &config);
    let mut violations = analysis.violations.clone();

    if opts.write_baseline {
        if let Err(e) = write_baselines(opts, &analysis) {
            eprintln!("ce-analyzer: {e}");
            return Outcome::Error;
        }
    } else {
        let scanned: std::collections::BTreeSet<&str> =
            lib_sources.iter().map(|(rel, _)| rel.as_str()).collect();
        apply_ratchet(opts, &analysis, &scanned, &mut violations);
        apply_reach_ratchet(opts, &analysis, &scanned, &mut violations);
    }

    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));

    let stats = ReportStats {
        files_scanned: analysis.files_scanned,
        panic_sites: analysis.panic_counts.values().map(Vec::len).sum(),
        lossy_casts: analysis.cast_counts.values().map(Vec::len).sum(),
        unsafe_sites: analysis.unsafe_counts.values().map(Vec::len).sum(),
        arith_sites: analysis.arith_counts.values().map(Vec::len).sum(),
        index_sites: analysis.index_counts.values().map(Vec::len).sum(),
        fns: analysis.fn_count,
        call_edges: analysis.edge_count,
        reachable_findings: analysis.panic_reach.len(),
        dead_pub_items: analysis.dead_api.len(),
    };
    match opts.format {
        Format::Human => print_human(&violations, &stats),
        Format::Json => println!("{}", render_json(&violations, &stats)),
        Format::Github => print_github(&violations, &stats),
    }
    if violations.is_empty() {
        Outcome::Clean
    } else {
        Outcome::Violations
    }
}

/// Writes both baselines from the current analysis.
fn write_baselines(opts: &Options, analysis: &WorkspaceAnalysis) -> Result<(), String> {
    let count = |m: &BTreeMap<String, Vec<u32>>| -> BTreeMap<String, usize> {
        m.iter()
            .map(|(p, sites)| (p.clone(), sites.len()))
            .collect()
    };
    let baseline = Baseline {
        files: count(&analysis.panic_counts),
        casts: count(&analysis.cast_counts),
        unsafe_sites: count(&analysis.unsafe_counts),
        arith: count(&analysis.arith_counts),
        indexes: count(&analysis.index_counts),
    };
    fs::write(&opts.baseline_path, baseline.render())
        .map_err(|e| format!("cannot write {}: {e}", opts.baseline_path.display()))?;
    eprintln!(
        "ce-analyzer: wrote baseline ({} panic sites, {} lossy casts, {} unsafe sites, \
         {} unproven arith, {} unproven indexes) to {}",
        baseline.files.values().sum::<usize>(),
        baseline.casts.values().sum::<usize>(),
        baseline.unsafe_sites.values().sum::<usize>(),
        baseline.arith.values().sum::<usize>(),
        baseline.indexes.values().sum::<usize>(),
        opts.baseline_path.display()
    );
    let mut reach = ReachBaseline::default();
    for f in &analysis.panic_reach {
        *reach.panic_reach.entry(f.file.clone()).or_insert(0) += 1;
    }
    for d in &analysis.dead_api {
        *reach.dead_api.entry(d.file.clone()).or_insert(0) += 1;
    }
    fs::write(&opts.reach_baseline_path, reach.render())
        .map_err(|e| format!("cannot write {}: {e}", opts.reach_baseline_path.display()))?;
    eprintln!(
        "ce-analyzer: wrote reach baseline ({} reachable panic sites, {} dead pub items) to {}",
        reach.panic_reach.values().sum::<usize>(),
        reach.dead_api.values().sum::<usize>(),
        opts.reach_baseline_path.display()
    );
    Ok(())
}

/// Compares current file-local site counts (panic, lossy-cast, unsafe)
/// to the baseline, producing violations for growth and for stale entries
/// (a baselined file that left the scan set), and stderr notes for
/// shrinkage.
fn apply_ratchet(
    opts: &Options,
    analysis: &WorkspaceAnalysis,
    scanned: &std::collections::BTreeSet<&str>,
    violations: &mut Vec<Violation>,
) {
    let baseline = match fs::read_to_string(&opts.baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                violations.push(Violation {
                    rule: "panic-in-lib".to_string(),
                    file: "lint-baseline.json".to_string(),
                    line: 1,
                    col: 1,
                    message: format!("baseline is unreadable: {e}"),
                });
                return;
            }
        },
        Err(_) => {
            violations.push(Violation {
                rule: "panic-in-lib".to_string(),
                file: "lint-baseline.json".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "no baseline at {}; run `ce-analyzer --write-baseline` and commit it",
                    opts.baseline_path.display()
                ),
            });
            return;
        }
    };
    /// One ratcheted section: (rule, human label, live counts, allowances).
    type Section<'a> = (
        &'a str,
        &'a str,
        &'a BTreeMap<String, Vec<u32>>,
        &'a BTreeMap<String, usize>,
    );
    let sections: [Section<'_>; 5] = [
        (
            "panic-in-lib",
            "panic sites (unwrap/expect/panic!/unreachable!)",
            &analysis.panic_counts,
            &baseline.files,
        ),
        (
            "cast-truncation",
            "lossy `as` casts",
            &analysis.cast_counts,
            &baseline.casts,
        ),
        (
            "unsafe-boundary",
            "unsafe sites",
            &analysis.unsafe_counts,
            &baseline.unsafe_sites,
        ),
        (
            "int-overflow",
            "unproven arithmetic sites",
            &analysis.arith_counts,
            &baseline.arith,
        ),
        (
            "slice-index",
            "unproven bracket-index sites",
            &analysis.index_counts,
            &baseline.indexes,
        ),
    ];
    let mut shrunk = 0usize;
    for (rule, what, counts, allowed_files) in sections {
        for (file, sites) in counts {
            let allowed = allowed_files.get(file).copied().unwrap_or(0);
            if sites.len() > allowed {
                // Point at the last site: appended code is the likely culprit.
                let line = sites.last().copied().unwrap_or(1);
                violations.push(Violation {
                    rule: rule.to_string(),
                    file: file.clone(),
                    line,
                    col: 1,
                    message: format!(
                        "{} {what} but the baseline ratchet allows {allowed}; fix the new \
                         site, or shrink another and rerun --write-baseline",
                        sites.len()
                    ),
                });
            } else if sites.len() < allowed {
                shrunk += allowed - sites.len();
            }
        }
        for (file, &allowed) in allowed_files {
            if counts.contains_key(file) {
                continue;
            }
            if scanned.contains(file.as_str()) {
                // Still scanned, now clean: shrinkage to lock in.
                shrunk += allowed;
            } else {
                // The file itself is gone: a dead allowance, not shrinkage.
                violations.push(stale_entry_violation(rule, file, "lint-baseline.json"));
            }
        }
    }
    if shrunk > 0 {
        eprintln!(
            "ce-analyzer: note: {shrunk} baselined lint sites below baseline — run \
             `ce-analyzer --write-baseline` to ratchet down"
        );
    }
}

/// A hard violation for a baseline entry whose file has left the scan set.
fn stale_entry_violation(rule: &str, file: &str, baseline_file: &str) -> Violation {
    Violation {
        rule: rule.to_string(),
        file: baseline_file.to_string(),
        line: 1,
        col: 1,
        message: format!(
            "stale baseline entry: `{file}` is no longer in the scan set; \
             rerun `ce-analyzer --write-baseline` to prune it"
        ),
    }
}

/// Compares graph-rule finding counts to `reach-baseline.json`. A file
/// whose count rises fails with one violation **per finding** in that
/// file, each carrying its witness path, so the culprit is identifiable
/// without rerunning anything.
fn apply_reach_ratchet(
    opts: &Options,
    analysis: &WorkspaceAnalysis,
    scanned: &std::collections::BTreeSet<&str>,
    violations: &mut Vec<Violation>,
) {
    let baseline = match fs::read_to_string(&opts.reach_baseline_path) {
        Ok(text) => match ReachBaseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                violations.push(Violation {
                    rule: "panic-reachability".to_string(),
                    file: "reach-baseline.json".to_string(),
                    line: 1,
                    col: 1,
                    message: format!("reach baseline is unreadable: {e}"),
                });
                return;
            }
        },
        Err(_) => {
            violations.push(Violation {
                rule: "panic-reachability".to_string(),
                file: "reach-baseline.json".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "no reach baseline at {}; run `ce-analyzer --write-baseline` and commit it",
                    opts.reach_baseline_path.display()
                ),
            });
            return;
        }
    };

    let mut reach_by_file: BTreeMap<&str, Vec<&ReachFinding>> = BTreeMap::new();
    for f in &analysis.panic_reach {
        reach_by_file.entry(f.file.as_str()).or_default().push(f);
    }
    let mut shrunk = 0usize;
    for (file, findings) in &reach_by_file {
        let allowed = baseline.allowed_reach(file);
        if findings.len() > allowed {
            for f in findings {
                violations.push(Violation {
                    rule: "panic-reachability".to_string(),
                    file: f.file.clone(),
                    line: f.line,
                    col: f.col,
                    message: format!(
                        "{} in `{}` is reachable from a hot/entry root via {} — {} \
                         reachable panic sites in this file vs baseline {allowed}",
                        f.what,
                        f.in_fn,
                        f.witness,
                        findings.len()
                    ),
                });
            }
        } else if findings.len() < allowed {
            shrunk += allowed - findings.len();
        }
    }
    for (file, &allowed) in &baseline.panic_reach {
        if reach_by_file.contains_key(file.as_str()) {
            continue;
        }
        if scanned.contains(file.as_str()) {
            shrunk += allowed;
        } else {
            violations.push(stale_entry_violation(
                "panic-reachability",
                file,
                "reach-baseline.json",
            ));
        }
    }

    let mut dead_by_file: BTreeMap<&str, Vec<&DeadFinding>> = BTreeMap::new();
    for d in &analysis.dead_api {
        dead_by_file.entry(d.file.as_str()).or_default().push(d);
    }
    for (file, findings) in &dead_by_file {
        let allowed = baseline.allowed_dead(file);
        if findings.len() > allowed {
            for d in findings {
                violations.push(Violation {
                    rule: "dead-pub-api".to_string(),
                    file: d.file.clone(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "pub {} `{}` has no caller in library, binary, example or benchmark \
                         code (tests, `pub use` re-exports and the type's own impls do not \
                         count) — {} dead pub items in this file vs baseline {allowed}",
                        d.kind,
                        d.name,
                        findings.len()
                    ),
                });
            }
        } else if findings.len() < allowed {
            shrunk += allowed - findings.len();
        }
    }
    for (file, &allowed) in &baseline.dead_api {
        if dead_by_file.contains_key(file.as_str()) {
            continue;
        }
        if scanned.contains(file.as_str()) {
            shrunk += allowed;
        } else {
            violations.push(stale_entry_violation(
                "dead-pub-api",
                file,
                "reach-baseline.json",
            ));
        }
    }
    if shrunk > 0 {
        eprintln!(
            "ce-analyzer: note: {shrunk} reachability/dead-API findings below baseline — \
             run `ce-analyzer --write-baseline` to ratchet down"
        );
    }
}

/// Collects the workspace-relative library scan set, sorted.
fn scan_set(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, root, &mut files)?;
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        walk_rs(&facade_src, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Collects the reference scan set — every crate's and the root's
/// `examples/`, plus `perfbench/src` — sorted. These are callers that no
/// rule runs on; they feed the `dead-pub-api` liveness index only.
fn ref_scan_set(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path().join("examples"))
        .collect();
    dirs.push(root.join("examples"));
    dirs.push(root.join("perfbench").join("src"));
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        walk_rs(dir, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| "scan path escaped the workspace root".to_string())?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Summary counters for the report footers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportStats {
    /// Library files scanned.
    pub files_scanned: usize,
    /// Total baselined panic sites.
    pub panic_sites: usize,
    /// Total baselined lossy-cast sites.
    pub lossy_casts: usize,
    /// Total baselined (justified, allowlisted) unsafe sites.
    pub unsafe_sites: usize,
    /// Total baselined dataflow-unproven arithmetic sites.
    pub arith_sites: usize,
    /// Total baselined dataflow-unproven bracket-index sites.
    pub index_sites: usize,
    /// Functions in the call graph.
    pub fns: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Panic sites reachable from hot/entry roots.
    pub reachable_findings: usize,
    /// Unreferenced pub items.
    pub dead_pub_items: usize,
}

/// Renders the `--list-rules` table from [`crate::config::RULE_INFO`] —
/// the single source of truth, so the docs and the binary can't drift.
pub fn render_rule_table() -> String {
    let info = crate::config::RULE_INFO;
    let name_w = info.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    let tier_w = info.iter().map(|(_, t, _)| t.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, tier, desc) in info {
        let _ = writeln!(out, "{name:name_w$}  {tier:tier_w$}  {desc}");
    }
    out
}

fn print_human(violations: &[Violation], stats: &ReportStats) {
    for v in violations {
        println!(
            "{}:{}:{}: [{}] {}",
            v.file, v.line, v.col, v.rule, v.message
        );
    }
    if violations.is_empty() {
        println!(
            "ce-analyzer: clean — {} files, {} rules, {} fns / {} call edges, \
             {} baselined panic sites, {} lossy casts + {} unsafe sites baselined, \
             {} unproven arith + {} unproven index sites baselined, \
             {} reachable + {} dead-API findings baselined",
            stats.files_scanned,
            crate::config::RULE_NAMES.len(),
            stats.fns,
            stats.call_edges,
            stats.panic_sites,
            stats.lossy_casts,
            stats.unsafe_sites,
            stats.arith_sites,
            stats.index_sites,
            stats.reachable_findings,
            stats.dead_pub_items
        );
    } else {
        println!(
            "ce-analyzer: {} violation(s) in {} files",
            violations.len(),
            stats.files_scanned
        );
    }
}

/// Prints GitHub Actions `::error` workflow commands, one per violation.
fn print_github(violations: &[Violation], stats: &ReportStats) {
    for v in violations {
        println!(
            "::error file={},line={},col={},title=ce-analyzer {}::{}",
            github_escape_property(&v.file),
            v.line,
            v.col,
            github_escape_property(&v.rule),
            github_escape_message(&v.message)
        );
    }
    if violations.is_empty() {
        println!(
            "ce-analyzer: clean — {} files, {} fns / {} call edges",
            stats.files_scanned, stats.fns, stats.call_edges
        );
    } else {
        println!(
            "ce-analyzer: {} violation(s) in {} files",
            violations.len(),
            stats.files_scanned
        );
    }
}

/// Escapes a workflow-command message (`%`, CR, LF).
fn github_escape_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property (message escapes plus `:` and `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_message(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Renders the machine-readable report (stable field and entry order).
pub fn render_json(violations: &[Violation], stats: &ReportStats) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"ok\": {},", violations.is_empty());
    let _ = writeln!(out, "  \"files_scanned\": {},", stats.files_scanned);
    let _ = writeln!(out, "  \"panic_sites\": {},", stats.panic_sites);
    let _ = writeln!(out, "  \"lossy_casts\": {},", stats.lossy_casts);
    let _ = writeln!(out, "  \"unsafe_sites\": {},", stats.unsafe_sites);
    let _ = writeln!(out, "  \"arith_sites\": {},", stats.arith_sites);
    let _ = writeln!(out, "  \"index_sites\": {},", stats.index_sites);
    let _ = writeln!(out, "  \"fns\": {},", stats.fns);
    let _ = writeln!(out, "  \"call_edges\": {},", stats.call_edges);
    let _ = writeln!(
        out,
        "  \"reachable_findings\": {},",
        stats.reachable_findings
    );
    let _ = writeln!(out, "  \"dead_pub_items\": {},", stats.dead_pub_items);
    out.push_str("  \"violations\": [\n");
    let n = violations.len();
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\"}}{comma}",
            json_escape(&v.rule),
            json_escape(&v.file),
            v.line,
            v.col,
            json_escape(&v.message)
        );
    }
    out.push_str("  ]\n}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults() {
        let opts = parse_args(&["--root".to_string(), "/tmp/ws".to_string()]).unwrap();
        assert_eq!(opts.root, PathBuf::from("/tmp/ws"));
        assert_eq!(opts.format, Format::Human);
        assert!(!opts.write_baseline);
        assert_eq!(
            opts.baseline_path,
            PathBuf::from("/tmp/ws/lint-baseline.json")
        );
        assert_eq!(
            opts.reach_baseline_path,
            PathBuf::from("/tmp/ws/reach-baseline.json")
        );
    }

    #[test]
    fn args_json_and_baseline() {
        let opts = parse_args(&[
            "--root".to_string(),
            "/ws".to_string(),
            "--format".to_string(),
            "json".to_string(),
            "--write-baseline".to_string(),
            "--baseline".to_string(),
            "/elsewhere/b.json".to_string(),
            "--reach-baseline".to_string(),
            "/elsewhere/r.json".to_string(),
        ])
        .unwrap();
        assert_eq!(opts.format, Format::Json);
        assert!(opts.write_baseline);
        assert_eq!(opts.baseline_path, PathBuf::from("/elsewhere/b.json"));
        assert_eq!(opts.reach_baseline_path, PathBuf::from("/elsewhere/r.json"));
    }

    #[test]
    fn args_github_format() {
        let opts = parse_args(&[
            "--root".to_string(),
            "/ws".to_string(),
            "--format".to_string(),
            "github".to_string(),
        ])
        .unwrap();
        assert_eq!(opts.format, Format::Github);
    }

    #[test]
    fn args_rejects_unknown() {
        assert!(parse_args(&["--frobnicate".to_string()]).is_err());
        assert!(parse_args(&["--format".to_string(), "xml".to_string()]).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn github_escaping() {
        assert_eq!(github_escape_message("50% a\nb"), "50%25 a%0Ab");
        assert_eq!(github_escape_property("a:b,c"), "a%3Ab%2Cc");
    }

    fn sample_stats() -> ReportStats {
        ReportStats {
            files_scanned: 10,
            panic_sites: 42,
            lossy_casts: 5,
            unsafe_sites: 2,
            arith_sites: 9,
            index_sites: 6,
            fns: 100,
            call_edges: 250,
            reachable_findings: 7,
            dead_pub_items: 2,
        }
    }

    #[test]
    fn json_report_shape() {
        let v = Violation {
            rule: "float-eq".to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 7,
            message: "msg".to_string(),
        };
        let json = render_json(&[v], &sample_stats());
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"files_scanned\": 10"));
        assert!(json.contains("\"panic_sites\": 42"));
        assert!(json.contains("\"lossy_casts\": 5"));
        assert!(json.contains("\"unsafe_sites\": 2"));
        assert!(json.contains("\"arith_sites\": 9"));
        assert!(json.contains("\"index_sites\": 6"));
        assert!(json.contains("\"fns\": 100"));
        assert!(json.contains("\"call_edges\": 250"));
        assert!(json.contains("\"reachable_findings\": 7"));
        assert!(json.contains("\"dead_pub_items\": 2"));
        assert!(json.contains("\"line\": 3"));
        let clean = render_json(&[], &sample_stats());
        assert!(clean.contains("\"ok\": true"));
    }

    #[test]
    fn args_list_rules_needs_no_workspace() {
        let opts = parse_args(&["--list-rules".to_string()]).unwrap();
        assert!(opts.list_rules);
    }

    #[test]
    fn rule_table_lists_every_rule() {
        let table = render_rule_table();
        for rule in crate::config::RULE_NAMES {
            assert!(table.contains(rule), "missing {rule} in rule table");
        }
        assert_eq!(table.lines().count(), crate::config::RULE_NAMES.len());
    }
}
