//! Conservative workspace-wide name resolution.
//!
//! Pass 1 ([`items`](crate::items)) leaves call sites as raw names; this
//! module turns them into call-graph edges. Resolution is *conservative by
//! construction*: whenever the tokens do not pin down a unique callee, the
//! call resolves to **every** plausible workspace function, so the graph
//! rules built on top over-approximate reachability and can miss nothing.
//! The precision levers that keep the over-approximation useful are both
//! sound:
//!
//! 1. **Dependency closure.** A call in crate `a` can only land in a crate
//!    `a` (transitively) depends on — Cargo would reject anything else —
//!    so candidates are filtered to the dependency closure parsed from the
//!    workspace manifests.
//! 2. **Import-directed free calls.** `use ce_x::helper;` pins a free call
//!    `helper()` to crate `x`; without an import the call stays in the
//!    calling crate (plus any glob-imported workspace crates).
//!
//! Method calls (`recv.name(...)`) resolve to *all* same-named workspace
//! methods in the closure — receiver types are unknowable without type
//! inference. Paths rooted in `std`/`core`/`alloc` or a vendored stand-in
//! are leaves: their behavior is the rules' vocabulary (alloc/panic
//! facts), not graph edges.

use crate::items::{Call, FileItems, FnItem, PubItem};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// Path roots that terminate resolution: the standard library and the
/// vendored offline stand-ins. Facts *inside* such calls are modeled by
/// the lexical alloc/panic vocabulary instead of graph edges.
const STD_ROOTS: &[&str] = &["std", "core", "alloc", "rand", "serde", "proptest"];

/// The workspace crate dependency graph, parsed from `Cargo.toml`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateGraph {
    /// Code identifier (`ce_timeseries`) → crate key (`timeseries`).
    pub ident_to_key: BTreeMap<String, String>,
    /// Crate key → transitive dependency closure, **including itself**.
    pub closure: BTreeMap<String, BTreeSet<String>>,
}

impl CrateGraph {
    /// Parses `crates/*/Cargo.toml` plus the root (facade) manifest.
    ///
    /// # Errors
    ///
    /// Returns a message when the workspace layout cannot be read.
    pub fn from_root(root: &Path) -> Result<Self, String> {
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut ident_to_key = BTreeMap::new();
        let crates_dir = root.join("crates");
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        let mut dirs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let key = dir
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            let manifest = fs::read_to_string(dir.join("Cargo.toml"))
                .map_err(|e| format!("cannot read {}/Cargo.toml: {e}", dir.display()))?;
            let (name, deps) = parse_manifest(&manifest);
            ident_to_key.insert(name.replace('-', "_"), key.clone());
            direct.insert(key, deps);
        }
        // The facade package lives in the workspace root manifest.
        let root_manifest = fs::read_to_string(root.join("Cargo.toml"))
            .map_err(|e| format!("cannot read root Cargo.toml: {e}"))?;
        let (name, deps) = parse_manifest(&root_manifest);
        ident_to_key.insert(name.replace('-', "_"), "facade".to_string());
        direct.insert("facade".to_string(), deps);
        Ok(Self::from_direct(ident_to_key, direct))
    }

    /// Builds a graph from explicit `(crate, deps)` edges — test harness
    /// entry point; keys double as code identifiers.
    pub fn from_edges(edges: &[(&str, &[&str])]) -> Self {
        let mut direct = BTreeMap::new();
        let mut ident_to_key = BTreeMap::new();
        for (key, deps) in edges {
            // Register both the bare key and the real-world code ident
            // (`ce_timeseries` for the `timeseries` crate dir).
            ident_to_key.insert((*key).to_string(), (*key).to_string());
            ident_to_key.insert(format!("ce_{key}"), (*key).to_string());
            direct.insert(
                (*key).to_string(),
                deps.iter().map(|d| (*d).to_string()).collect(),
            );
        }
        Self::from_direct(ident_to_key, direct)
    }

    fn from_direct(
        ident_to_key: BTreeMap<String, String>,
        direct: BTreeMap<String, BTreeSet<String>>,
    ) -> Self {
        // Direct deps are package names (`ce-x`); normalize to keys via
        // the ident table, dropping anything outside the workspace.
        let pkg_to_key: BTreeMap<String, String> = ident_to_key
            .iter()
            .map(|(ident, key)| (ident.replace('_', "-"), key.clone()))
            .collect();
        let normalized: BTreeMap<String, BTreeSet<String>> = direct
            .iter()
            .map(|(key, deps)| {
                let deps = deps
                    .iter()
                    .filter_map(|d| pkg_to_key.get(d).or(ident_to_key.get(d)))
                    .cloned()
                    .collect();
                (key.clone(), deps)
            })
            .collect();
        // Transitive closure (the graph is a DAG of ~a dozen crates;
        // fixpoint iteration is plenty).
        let mut closure: BTreeMap<String, BTreeSet<String>> = normalized
            .iter()
            .map(|(key, deps)| {
                let mut c = deps.clone();
                c.insert(key.clone());
                (key.clone(), c)
            })
            .collect();
        loop {
            let mut changed = false;
            let keys: Vec<String> = closure.keys().cloned().collect();
            for key in &keys {
                let reach: Vec<String> = closure
                    .get(key)
                    .map(|c| c.iter().cloned().collect())
                    .unwrap_or_default();
                let mut add = BTreeSet::new();
                for dep in &reach {
                    if let Some(dd) = closure.get(dep) {
                        for d in dd {
                            add.insert(d.clone());
                        }
                    }
                }
                if let Some(c) = closure.get_mut(key) {
                    let before = c.len();
                    c.extend(add);
                    changed |= c.len() != before;
                }
            }
            if !changed {
                break;
            }
        }
        Self {
            ident_to_key,
            closure,
        }
    }

    /// The crate key a code identifier (`ce_grid`) refers to, if it is a
    /// workspace crate.
    pub fn key_of_ident(&self, ident: &str) -> Option<&str> {
        self.ident_to_key.get(ident).map(String::as_str)
    }

    /// Whether crate `from` can call into crate `to` (including itself).
    pub fn in_closure(&self, from: &str, to: &str) -> bool {
        self.closure.get(from).is_some_and(|c| c.contains(to))
    }
}

/// Extracts the package name and `ce-*` dependency package names from one
/// manifest, looking only at the `[dependencies]` section (dev-deps do not
/// affect `src/` resolution).
fn parse_manifest(text: &str) -> (String, BTreeSet<String>) {
    let mut name = String::new();
    let mut deps = BTreeSet::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" && name.is_empty() {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().trim_start_matches('=').trim();
                name = rest.trim_matches('"').to_string();
            }
        } else if section == "dependencies" && !line.is_empty() && !line.starts_with('#') {
            let dep: String = line
                .chars()
                .take_while(|c| !matches!(c, ' ' | '.' | '='))
                .collect();
            if dep.starts_with("ce-") {
                deps.insert(dep);
            }
        }
    }
    (name, deps)
}

/// A file's imports, split out of [`FileItems`] for the resolver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileImports {
    /// Local name → full path segments.
    pub named: Vec<(String, Vec<String>)>,
    /// Glob import path prefixes.
    pub globs: Vec<Vec<String>>,
}

/// The merged pass-1 view of the whole workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Workspace {
    /// Every non-test `fn` in library files, in sorted-file order.
    pub fns: Vec<FnItem>,
    /// Every `pub` item eligible for dead-API detection.
    pub pub_items: Vec<PubItem>,
    /// Imports per library file.
    pub imports: BTreeMap<String, FileImports>,
    /// Global identifier reference counts over library files **and**
    /// reference files (tests/benches/examples) — the liveness index.
    pub refs: BTreeMap<String, usize>,
    /// The crate dependency graph.
    pub crates: CrateGraph,
}

impl Workspace {
    /// Merges per-file extractions. `lib` files contribute functions,
    /// pub items, imports, and references; `refs_only` files (tests,
    /// benches, examples) contribute references alone.
    pub fn build(lib: Vec<FileItems>, refs_only: Vec<FileItems>, crates: CrateGraph) -> Self {
        let mut ws = Workspace {
            crates,
            ..Workspace::default()
        };
        for fi in lib {
            ws.imports.insert(
                fi.file.clone(),
                FileImports {
                    named: fi.imports,
                    globs: fi.globs,
                },
            );
            ws.fns.extend(fi.fns);
            ws.pub_items.extend(fi.pub_items);
            for (name, n) in fi.refs {
                *ws.refs.entry(name).or_insert(0) += n;
            }
        }
        for fi in refs_only {
            for (name, n) in fi.refs {
                *ws.refs.entry(name).or_insert(0) += n;
            }
        }
        ws
    }

    /// Total references to `name` across the workspace.
    pub fn refs_to(&self, name: &str) -> usize {
        self.refs.get(name).copied().unwrap_or(0)
    }
}

/// One resolved call-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee index into [`Workspace::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// Resolves every call site to edges. `adj[i]` lists the distinct callees
/// of `fns[i]` (first call line wins), in callee-index order.
pub fn resolve(ws: &Workspace) -> Vec<Vec<Edge>> {
    // Lookup tables over the fn list.
    let mut free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        match &f.owner {
            None => free
                .entry((f.crate_key.as_str(), f.name.as_str()))
                .or_default()
                .push(i),
            Some(owner) => {
                methods.entry(f.name.as_str()).or_default().push(i);
                assoc
                    .entry((owner.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }
    }
    let empty_imports = FileImports::default();

    let mut adj: Vec<Vec<Edge>> = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        let imports = ws.imports.get(&f.file).unwrap_or(&empty_imports);
        let own = f.crate_key.as_str();
        let mut edges: BTreeMap<usize, u32> = BTreeMap::new();
        let mut add = |cands: &[usize], line: u32| {
            for &c in cands {
                if ws.crates.in_closure(own, ws.fns[c].crate_key.as_str()) {
                    edges.entry(c).or_insert(line);
                }
            }
        };
        for call in &f.calls {
            match call {
                Call::Method { name, line } => {
                    add(
                        methods.get(name.as_str()).map_or(&[][..], |v| v.as_slice()),
                        *line,
                    );
                }
                Call::Free { name, line } => {
                    let target = imports
                        .named
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, path)| classify_root(ws, own, path));
                    match target {
                        Some(RootKind::Crate(key)) => {
                            add(
                                free.get(&(key, name.as_str()))
                                    .map_or(&[][..], |v| v.as_slice()),
                                *line,
                            );
                        }
                        Some(RootKind::Std) => {}
                        None => {
                            // Unimported: own crate, plus glob-imported
                            // workspace crates.
                            add(
                                free.get(&(own, name.as_str()))
                                    .map_or(&[][..], |v| v.as_slice()),
                                *line,
                            );
                            for glob in &imports.globs {
                                if let RootKind::Crate(key) = classify_root(ws, own, glob) {
                                    if key != own {
                                        add(
                                            free.get(&(key, name.as_str()))
                                                .map_or(&[][..], |v| v.as_slice()),
                                            *line,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Call::Path { segs, line } => {
                    let name = segs.last().map(String::as_str).unwrap_or("");
                    let qual = segs
                        .get(segs.len().wrapping_sub(2))
                        .map(String::as_str)
                        .unwrap_or("");
                    let qual_is_type = qual.starts_with(char::is_uppercase);
                    if qual_is_type || qual == "Self" {
                        let owner = if qual == "Self" {
                            match &f.owner {
                                Some(o) => o.as_str(),
                                None => continue,
                            }
                        } else {
                            // The qualifier may itself be imported under an
                            // alias; resolution is name-based regardless.
                            qual
                        };
                        add(
                            assoc.get(&(owner, name)).map_or(&[][..], |v| v.as_slice()),
                            *line,
                        );
                    } else {
                        match classify_root(ws, own, segs) {
                            RootKind::Std => {}
                            RootKind::Crate(key) => {
                                add(
                                    free.get(&(key, name)).map_or(&[][..], |v| v.as_slice()),
                                    *line,
                                );
                            }
                        }
                    }
                }
            }
        }
        adj.push(
            edges
                .into_iter()
                .map(|(callee, line)| Edge { callee, line })
                .collect(),
        );
    }
    adj
}

/// Where a path's root segment leads.
enum RootKind<'a> {
    /// A workspace crate (or a path inside the calling crate).
    Crate(&'a str),
    /// The standard library or a vendored stand-in: a resolution leaf.
    Std,
}

/// Classifies a path by its first segment, mapping any import alias for
/// the segment through the file's crate table.
fn classify_root<'a>(ws: &'a Workspace, own: &'a str, path: &[String]) -> RootKind<'a> {
    let Some(first) = path.first() else {
        return RootKind::Crate(own);
    };
    if STD_ROOTS.contains(&first.as_str()) {
        return RootKind::Std;
    }
    if let Some(key) = ws.crates.key_of_ident(first) {
        return RootKind::Crate(key);
    }
    // `crate::`, `self::`, `super::`, or a local module path: stays in
    // the calling crate (conservative: `super` cannot escape a crate).
    RootKind::Crate(own)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;

    fn two_crate_ws() -> Workspace {
        let kernels = extract(
            "crates/timeseries/src/kernels.rs",
            "pub fn dot(xs: &[f64]) -> f64 { helper(xs) }\nfn helper(xs: &[f64]) -> f64 { xs[0] }",
        );
        let core = extract(
            "crates/core/src/explore.rs",
            "use ce_timeseries::dot;\npub fn evaluate() -> f64 { dot(&[1.0]) }\npub fn local() { evaluate(); }",
        );
        let crates = CrateGraph::from_edges(&[("timeseries", &[]), ("core", &["timeseries"])]);
        Workspace::build(vec![kernels, core], vec![], crates)
    }

    fn fn_idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).expect(name)
    }

    #[test]
    fn closure_is_transitive_and_reflexive() {
        let g = CrateGraph::from_edges(&[("a", &["b"]), ("b", &["c"]), ("c", &[])]);
        assert!(g.in_closure("a", "a"));
        assert!(g.in_closure("a", "c"));
        assert!(!g.in_closure("c", "a"));
    }

    #[test]
    fn imported_free_call_resolves_cross_crate() {
        let ws = two_crate_ws();
        let adj = resolve(&ws);
        let evaluate = fn_idx(&ws, "evaluate");
        let dot = fn_idx(&ws, "dot");
        assert!(adj[evaluate].iter().any(|e| e.callee == dot));
    }

    #[test]
    fn unimported_free_call_stays_in_crate() {
        let ws = two_crate_ws();
        let adj = resolve(&ws);
        let dot = fn_idx(&ws, "dot");
        let helper = fn_idx(&ws, "helper");
        let local = fn_idx(&ws, "local");
        assert!(adj[dot].iter().any(|e| e.callee == helper));
        // `local` calls `evaluate` unqualified in its own crate.
        assert!(adj[local]
            .iter()
            .any(|e| e.callee == fn_idx(&ws, "evaluate")));
    }

    #[test]
    fn dependency_closure_filters_reverse_edges() {
        // timeseries cannot call into core, even for a same-named fn.
        let kernels = extract(
            "crates/timeseries/src/kernels.rs",
            "pub fn dot() { evaluate(); }",
        );
        let core = extract("crates/core/src/explore.rs", "pub fn evaluate() {}");
        let crates = CrateGraph::from_edges(&[("timeseries", &[]), ("core", &["timeseries"])]);
        let ws = Workspace::build(vec![kernels, core], vec![], crates);
        let adj = resolve(&ws);
        assert!(adj[fn_idx(&ws, "dot")].is_empty());
    }

    #[test]
    fn method_calls_resolve_to_all_candidates_in_closure() {
        let a = extract(
            "crates/timeseries/src/series.rs",
            "pub struct A;\nimpl A { pub fn shift(&self) {} }",
        );
        let b = extract(
            "crates/grid/src/model.rs",
            "pub struct B;\nimpl B { pub fn shift(&self) {} }",
        );
        let user = extract(
            "crates/core/src/explore.rs",
            "pub fn go(x: &Thing) { x.shift(); }",
        );
        let crates = CrateGraph::from_edges(&[
            ("timeseries", &[]),
            ("grid", &["timeseries"]),
            ("core", &["timeseries", "grid"]),
        ]);
        let ws = Workspace::build(vec![a, b, user], vec![], crates);
        let adj = resolve(&ws);
        let go = fn_idx(&ws, "go");
        assert_eq!(adj[go].len(), 2, "ambiguous method resolves to both");
    }

    #[test]
    fn assoc_path_calls_resolve_by_type_name() {
        let a = extract(
            "crates/timeseries/src/series.rs",
            "pub struct Series;\nimpl Series { pub fn with_capacity(n: usize) -> Self { Series } }",
        );
        let user = extract(
            "crates/core/src/explore.rs",
            "pub fn go() { let _s = Series::with_capacity(4); std::mem::drop(1); }",
        );
        let crates = CrateGraph::from_edges(&[("timeseries", &[]), ("core", &["timeseries"])]);
        let ws = Workspace::build(vec![a, user], vec![], crates);
        let adj = resolve(&ws);
        let go = fn_idx(&ws, "go");
        let target = fn_idx(&ws, "with_capacity");
        assert_eq!(adj[go].len(), 1, "std paths are leaves");
        assert_eq!(adj[go][0].callee, target);
    }

    #[test]
    fn self_paths_resolve_to_enclosing_impl() {
        let src = "pub struct S;\nimpl S {\n  pub fn a(&self) { Self::b(); }\n  fn b() {}\n}";
        let fi = extract("crates/core/src/x.rs", src);
        let crates = CrateGraph::from_edges(&[("core", &[])]);
        let ws = Workspace::build(vec![fi], vec![], crates);
        let adj = resolve(&ws);
        let a = fn_idx(&ws, "a");
        let b = fn_idx(&ws, "b");
        assert!(adj[a].iter().any(|e| e.callee == b));
    }

    #[test]
    fn manifest_parsing() {
        let text = "[package]\nname = \"ce-serve\"\nversion.workspace = true\n\n[dependencies]\nce-core.workspace = true\nce-grid = { path = \"../grid\" }\nserde.workspace = true\n\n[dev-dependencies]\nce-bench.workspace = true\n";
        let (name, deps) = parse_manifest(text);
        assert_eq!(name, "ce-serve");
        let deps: Vec<&str> = deps.iter().map(String::as_str).collect();
        assert_eq!(deps, ["ce-core", "ce-grid"]);
    }

    #[test]
    fn refs_merge_lib_and_ref_files() {
        let lib = extract("crates/core/src/x.rs", "pub fn solo() {}");
        let test = extract("crates/core/tests/t.rs", "fn t() { solo(); }");
        let crates = CrateGraph::from_edges(&[("core", &[])]);
        let ws = Workspace::build(vec![lib], vec![test], crates);
        assert_eq!(ws.refs_to("solo"), 2);
    }
}
