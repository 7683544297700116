//! Pass 1 of the three-pass analyzer: per-file item extraction.
//!
//! The file-local rules in [`rules`](crate::rules) see one file at a time;
//! the graph rules need a workspace-wide view. This module recovers that
//! view from the token stream of each file: every `fn` item (with its
//! visibility, owning `impl` type, `ce:` markers, and body extent), every
//! call site inside a body (free calls, path calls, method calls), the
//! per-function *facts* the graph rules reason about (allocation sites,
//! panic sites including slice indexing, nondeterminism-allowance uses),
//! every `pub` item eligible for dead-API detection, the file's `use`
//! imports, and a count of every identifier that a real caller mentions
//! (the reference index liveness is judged against; tests, `pub use`
//! re-exports and a type's own `impl` blocks are left out).
//!
//! Extraction is purely syntactic and deliberately over-approximate in
//! the same direction everywhere: when the tokens are ambiguous, we record
//! *more* (an extra call edge, an extra fact) rather than less, so the
//! graph rules built on top can miss nothing that the lexer saw.

use crate::config::crate_key;
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{fn_prefix_info, item_end, matching_brace, matching_paren, test_region_mask};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// One fact location inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found there (e.g. `` `.unwrap()` `` or `` `vec!` ``).
    pub what: String,
}

/// A call site inside a function body, as lexed (resolution happens in
/// [`resolve`](crate::resolve)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// An unqualified call `name(...)`.
    Free {
        /// Callee identifier.
        name: String,
        /// 1-based line of the callee token.
        line: u32,
    },
    /// A path-qualified call `a::b::name(...)`.
    Path {
        /// All path segments, last one being the callee name.
        segs: Vec<String>,
        /// 1-based line of the callee token.
        line: u32,
    },
    /// A method call `recv.name(...)`.
    Method {
        /// Method identifier.
        name: String,
        /// 1-based line of the callee token.
        line: u32,
    },
}

impl Call {
    /// The callee identifier (last path segment for path calls).
    pub fn name(&self) -> &str {
        match self {
            Call::Free { name, .. } | Call::Method { name, .. } => name,
            Call::Path { segs, .. } => segs.last().map(String::as_str).unwrap_or(""),
        }
    }

    /// The 1-based source line of the callee token.
    pub fn line(&self) -> u32 {
        match self {
            Call::Free { line, .. } | Call::Path { line, .. } | Call::Method { line, .. } => *line,
        }
    }
}

/// One `fn` item with everything the graph rules need to know about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate key (see [`crate_key`]).
    pub crate_key: String,
    /// Function name.
    pub name: String,
    /// The `impl` type this is a method of, if any.
    pub owner: Option<String>,
    /// Whether the surrounding impl is a trait impl (`impl T for U`) —
    /// such methods are reachable through the trait and never "dead".
    pub trait_impl: bool,
    /// Plain `pub` visibility (`pub(crate)`/`pub(super)` count as private).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Annotated `// ce:hot`.
    pub hot: bool,
    /// Annotated `// ce:entry` (request-handler root).
    pub entry: bool,
    /// Annotated `// ce:nonblocking` (event-loop tick, state-machine
    /// advance, …) — must not transitively reach a blocking fact.
    pub nonblocking: bool,
    /// Rules suppressed at this function by `ce:allow` markers bound to it.
    pub allows: Vec<String>,
    /// `(line, rule)` of every `ce:allow` marker *inside* the body —
    /// call-site-level suppression (the marker's line or the line below).
    pub allow_sites: Vec<(u32, String)>,
    /// Call sites inside the body (excluding nested `fn` bodies).
    pub calls: Vec<Call>,
    /// Allocation facts inside the body.
    pub allocs: Vec<Site>,
    /// Panic facts inside the body (unwrap/expect/panic-family macros and
    /// slice/array indexing).
    pub panics: Vec<Site>,
    /// Nondeterminism-allowance uses (wall clock, sockets) inside the
    /// body — the facts `determinism-taint` propagates.
    pub taints: Vec<Site>,
    /// Blocking facts inside the body (mutex/condvar waits, thread
    /// sleeps/joins, channel receives, blocking socket reads/accepts) —
    /// the facts `blocking-in-event-loop` propagates.
    pub blocking: Vec<Site>,
    /// `Ordering::SeqCst` sites inside the body — the facts the
    /// reachability half of `atomic-ordering` propagates.
    pub seqcst: Vec<Site>,
}

impl FnItem {
    /// Display name for witness paths: `Owner::name` or `name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `pub` item eligible for `dead-pub-api` (free fn, inherent method,
/// struct, or enum in a library file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate key.
    pub crate_key: String,
    /// `"fn"`, `"struct"`, or `"enum"`.
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// How many identifier tokens equal to `name` lie inside the item's
    /// own definition (at least 1: the name itself). Liveness requires
    /// more references than this across the whole workspace.
    pub own_refs: usize,
    /// Rules suppressed at this item by `ce:allow` markers bound to it.
    pub allows: Vec<String>,
}

/// Everything pass 1 extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// Workspace-relative file path.
    pub file: String,
    /// Non-test `fn` items.
    pub fns: Vec<FnItem>,
    /// `pub` items eligible for dead-API detection.
    pub pub_items: Vec<PubItem>,
    /// `use` imports: local name → full path segments.
    pub imports: Vec<(String, Vec<String>)>,
    /// Glob imports (`use a::b::*`): the path prefix segments.
    pub globs: Vec<Vec<String>>,
    /// Identifier reference counts over the file's code tokens, leaving
    /// out test regions, `pub use` re-exports and a type's own `impl`
    /// blocks: only real callers keep a pub item live.
    pub refs: Vec<(String, usize)>,
}

/// Iterator-adapter method names that, when invoked on the *result of
/// another call in the same chain*, are taken to be `std` iterator/slice
/// adapters rather than workspace methods. This is the one deliberate
/// precision carve-out in method resolution: `xs.iter().zip(ys).map(f)`
/// would otherwise resolve `.map` to every workspace method named `map`.
/// A direct `receiver.map(f)` on a named receiver still resolves
/// conservatively to all same-named workspace methods.
pub const ITER_CHAIN_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "chars",
    "bytes",
    "lines",
    "split",
    "split_whitespace",
    "splitn",
    "windows",
    "chunks",
    "chunks_exact",
    "enumerate",
    "zip",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "rev",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "chain",
    "copied",
    "cloned",
    "peekable",
    "by_ref",
    "values",
    "keys",
    // Consumers: legal as the *end* of a chain (their receiver is an
    // adapter's output); a direct `recv.sum()` still stays ambiguous.
    "sum",
    "product",
    "fold",
    "count",
    "any",
    "all",
    "find",
    "position",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "last",
    "nth",
    "for_each",
    "unzip",
    "partition",
];

/// How many lines above a `fn`/`pub` item a `ce:allow` marker may sit and
/// still bind to that item (room for the `// ce:hot` marker and one
/// attribute line in between).
const ITEM_MARKER_REACH: u32 = 3;

/// Extracts every item, call, and fact from one file.
///
/// `rel_path` is workspace-relative with `/` separators; it decides the
/// crate key and whether the file is a binary root (whose `pub` items are
/// exempt from dead-API detection).
pub fn extract(rel_path: &str, source: &str) -> FileItems {
    let tokens = lex(source);
    let mut hot_lines: Vec<u32> = Vec::new();
    let mut entry_lines: Vec<u32> = Vec::new();
    let mut nonblocking_lines: Vec<u32> = Vec::new();
    let mut allow_markers: Vec<(u32, String)> = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        if body == "ce:hot" || body.starts_with("ce:hot ") {
            hot_lines.push(t.line);
        } else if body == "ce:entry" || body.starts_with("ce:entry ") {
            entry_lines.push(t.line);
        } else if body == "ce:nonblocking" || body.starts_with("ce:nonblocking ") {
            nonblocking_lines.push(t.line);
        } else if let Some(rest) = body.strip_prefix("ce:allow(") {
            let inner = rest.split(')').next().unwrap_or("");
            let rule = inner.split(',').next().unwrap_or("").trim().to_string();
            if !rule.is_empty() {
                allow_markers.push((t.line, rule));
            }
        }
    }

    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    // Index sites pass 2 proves bounded never become panic facts, so every
    // new dataflow proof burns the `panic-reachability` ratchet down.
    let proven_indexes = crate::dataflow::proven_index_sites(&code);
    let test_mask = test_region_mask(&code);
    let impls = impl_spans(&code);
    let raw_fns = fn_spans(&code);
    let counted = reference_mask(&code, &test_mask, &impls);

    let key = crate_key(rel_path);
    let is_bin = rel_path.ends_with("/main.rs") || rel_path.contains("/src/bin/");

    let mut fns = Vec::new();
    for raw in &raw_fns {
        if test_mask.get(raw.fn_idx).copied().unwrap_or(false) {
            continue;
        }
        let Some((open, close)) = raw.body else {
            continue; // trait method declaration without a body
        };
        let fn_line = code[raw.fn_idx].line;
        let (owner, trait_impl) = innermost_impl(&impls, raw.fn_idx)
            .map(|im| (Some(im.owner.clone()), im.trait_impl))
            .unwrap_or((None, false));
        let (is_pub, _) = fn_prefix_info(&code, raw.fn_idx);
        let nested: Vec<(usize, usize)> = raw_fns
            .iter()
            .filter_map(|other| other.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let mut item = FnItem {
            file: rel_path.to_string(),
            crate_key: key.clone(),
            name: raw.name.clone(),
            owner,
            trait_impl,
            is_pub,
            line: fn_line,
            hot: bound_marker(&hot_lines, fn_line, &raw_fns, &code),
            entry: bound_marker(&entry_lines, fn_line, &raw_fns, &code),
            nonblocking: bound_marker(&nonblocking_lines, fn_line, &raw_fns, &code),
            allows: bound_allows(&allow_markers, fn_line),
            allow_sites: {
                let (body_start, body_end) = (code[open].line, code[close].line);
                allow_markers
                    .iter()
                    .filter(|(l, _)| *l >= body_start && *l <= body_end)
                    .cloned()
                    .collect()
            },
            calls: Vec::new(),
            allocs: Vec::new(),
            panics: Vec::new(),
            taints: Vec::new(),
            blocking: Vec::new(),
            seqcst: Vec::new(),
        };
        collect_body_facts(
            &code,
            open,
            close,
            &nested,
            &allow_markers,
            &proven_indexes,
            &mut item,
        );
        fns.push(item);
    }

    let mut pub_items = Vec::new();
    if !is_bin {
        collect_pub_items(
            &code,
            &test_mask,
            &counted,
            rel_path,
            &key,
            &allow_markers,
            &fns,
            &raw_fns,
            &mut pub_items,
        );
    }

    let (imports, globs) = collect_imports(&code);
    let mut ref_counts: std::collections::BTreeMap<String, usize> = Default::default();
    for (t, _) in code.iter().zip(&counted).filter(|(_, &c)| c) {
        *ref_counts.entry(t.text.clone()).or_insert(0) += 1;
    }

    FileItems {
        file: rel_path.to_string(),
        fns,
        pub_items,
        imports,
        globs,
        refs: ref_counts.into_iter().collect(),
    }
}

/// An `impl` block span with its subject type.
struct ImplSpan {
    /// Index of the `impl` keyword.
    start: usize,
    open: usize,
    close: usize,
    owner: String,
    trait_impl: bool,
}

/// Finds every `impl` block: its brace span, the implemented-on type name,
/// and whether it is a trait impl.
fn impl_spans(code: &[&Token]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Header runs to the opening brace (skip generic params; `<`/`>`
        // only nest as generics in this position).
        let mut j = i + 1;
        let mut open = None;
        let mut saw_for = false;
        let mut owner: Option<String> = None;
        let mut depth = 0i32;
        while j < code.len() {
            let t = code[j];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(">>") {
                depth -= 2;
            } else if depth == 0 {
                if t.is_punct("{") {
                    open = Some(j);
                    break;
                }
                if t.is_ident("for") {
                    saw_for = true;
                    owner = None;
                } else if t.kind == TokenKind::Ident
                    && owner.is_none()
                    && !t.is_ident("dyn")
                    && !t.is_ident("mut")
                {
                    owner = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        let close = matching_brace(code, open);
        spans.push(ImplSpan {
            start: i,
            open,
            close,
            owner: owner.unwrap_or_default(),
            trait_impl: saw_for,
        });
        // Continue scanning *inside* the impl too (nested impls are rare
        // but legal); the outer loop just advances past the keyword.
        i += 1;
    }
    spans
}

/// The innermost impl span containing code index `idx`.
fn innermost_impl(impls: &[ImplSpan], idx: usize) -> Option<&ImplSpan> {
    impls
        .iter()
        .filter(|im| im.open < idx && idx < im.close)
        .min_by_key(|im| im.close - im.open)
}

/// A raw `fn` definition: keyword index, name, and body brace span
/// (`None` for bodiless trait declarations).
struct RawFn {
    fn_idx: usize,
    name: String,
    body: Option<(usize, usize)>,
}

/// Finds every `fn` definition and its body span.
fn fn_spans(code: &[&Token]) -> Vec<RawFn> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("fn") || !code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.clone();
        // Find the parameter list: the first `(` outside generic params.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut params_open = None;
        while j < code.len() {
            let t = code[j];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(">>") {
                angle -= 2;
            } else if t.is_punct("(") && angle <= 0 {
                params_open = Some(j);
                break;
            } else if t.is_punct("{") || t.is_punct(";") {
                break; // malformed; bail on this candidate
            }
            j += 1;
        }
        let Some(params_open) = params_open else {
            i += 2;
            continue;
        };
        let params_close = matching_paren(code, params_open);
        // Find the body `{` (or `;` for a bodiless declaration), skipping
        // the return type and where clause.
        let mut k = params_close + 1;
        let mut body = None;
        let mut depth = 0i32;
        while k < code.len() {
            let t = code[k];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 {
                if t.is_punct("{") {
                    body = Some((k, matching_brace(code, k)));
                    break;
                }
                if t.is_punct(";") {
                    break;
                }
            }
            k += 1;
        }
        fns.push(RawFn {
            fn_idx: i,
            name,
            body,
        });
        i += 2;
    }
    fns
}

/// Whether any marker line binds to the fn starting at `fn_line` — the
/// marker's next `fn` in the file must be this one (same binding rule as
/// the file-local `ce:hot` handling).
fn bound_marker(marker_lines: &[u32], fn_line: u32, fns: &[RawFn], code: &[&Token]) -> bool {
    marker_lines.iter().any(|&ml| {
        ml < fn_line
            && fns
                .iter()
                .filter(|f| code[f.fn_idx].line > ml)
                .map(|f| code[f.fn_idx].line)
                .min()
                == Some(fn_line)
    })
}

/// `ce:allow` rules bound to an item on `item_line`: markers at most
/// [`ITEM_MARKER_REACH`] lines above it (or on the same line).
fn bound_allows(markers: &[(u32, String)], item_line: u32) -> Vec<String> {
    markers
        .iter()
        .filter(|(ml, _)| *ml <= item_line && item_line - *ml <= ITEM_MARKER_REACH)
        .map(|(_, rule)| rule.clone())
        .collect()
}

/// Collects calls, allocation facts, panic facts, and taint facts from one
/// fn body (skipping nested fn bodies, which own their tokens).
fn collect_body_facts(
    code: &[&Token],
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
    allow_markers: &[(u32, String)],
    proven_indexes: &BTreeSet<(u32, u32)>,
    item: &mut FnItem,
) {
    let allow = crate::config::allowances_for(&item.file);
    let cfg = crate::config::Config::default();
    // An alloc fact carrying a site-level allow marker for either alloc
    // rule is deliberate and does not taint callers transitively.
    let alloc_allowed = |line: u32| {
        allow_markers.iter().any(|(ml, rule)| {
            (*ml == line || ml + 1 == line)
                && (rule == "hot-path-alloc" || rule == "hot-path-transitive-alloc")
        })
    };
    // A blocking fact under a site-level `ce:allow(blocking, …)` is a
    // reviewed, bounded wait (or a nonblocking-mode fd call that merely
    // shares a blocking API's name) and is not propagated to callers.
    let blocking_allowed = |line: u32| {
        allow_markers
            .iter()
            .any(|(ml, rule)| (*ml == line || ml + 1 == line) && rule == "blocking")
    };
    let mut i = open;
    while i <= close.min(code.len().saturating_sub(1)) {
        if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
            i = nc + 1;
            continue;
        }
        let t = code[i];

        // Indexing: `[` in postfix position after an expression.
        if t.is_punct("[") && i > open {
            let prev = code[i - 1];
            let postfix = prev.kind == TokenKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(")")
                || prev.is_punct("]");
            if postfix && !proven_indexes.contains(&(t.line, t.col)) {
                item.panics.push(Site {
                    line: t.line,
                    col: t.col,
                    what: "slice/array indexing".to_string(),
                });
            }
            i += 1;
            continue;
        }

        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let prev_dot = i > 0 && code[i - 1].is_punct(".");
        let prev_colons = i > 0 && code[i - 1].is_punct("::");
        let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct("("));
        let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct("!"));
        let next_colons = code.get(i + 1).is_some_and(|n| n.is_punct("::"));

        // Panic facts.
        let panic_what = if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            Some(format!("`.{}()`", t.text))
        } else if next_bang
            && matches!(
                t.text.as_str(),
                "panic"
                    | "unreachable"
                    | "todo"
                    | "unimplemented"
                    | "assert"
                    | "assert_eq"
                    | "assert_ne"
            )
        {
            Some(format!("`{}!`", t.text))
        } else {
            None
        };
        if let Some(what) = panic_what {
            item.panics.push(Site {
                line: t.line,
                col: t.col,
                what,
            });
        }

        // `Ordering::SeqCst` facts — the graph half of `atomic-ordering`
        // flags these when they are reachable from a hot/nonblocking root.
        if t.text == "Ordering"
            && next_colons
            && code.get(i + 2).is_some_and(|n| n.is_ident("SeqCst"))
        {
            item.seqcst.push(Site {
                line: t.line,
                col: t.col,
                what: "`Ordering::SeqCst`".to_string(),
            });
        }

        // Allocation facts (same vocabulary as the file-local
        // `hot-path-alloc` rule).
        if !alloc_allowed(t.line) {
            if prev_dot
                && (next_paren || next_colons)
                && cfg.hot_forbidden_methods.contains(&t.text.as_str())
            {
                item.allocs.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`.{}()`", t.text),
                });
            } else if next_bang && cfg.hot_forbidden_macros.contains(&t.text.as_str()) {
                item.allocs.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`{}!`", t.text),
                });
            } else if next_colons
                && code.get(i + 2).is_some()
                && cfg
                    .hot_forbidden_paths
                    .iter()
                    .any(|(ty, m)| t.text == *ty && code[i + 2].is_ident(m))
            {
                item.allocs.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`{}::{}`", t.text, code[i + 2].text),
                });
            }
        }

        // Taint facts: wall-clock and socket uses (legal here only under
        // a crate allowance; the taint rule stops deterministic crates
        // from *reaching* them).
        if (t.text == "Instant" || t.text == "SystemTime")
            && next_colons
            && code.get(i + 2).is_some_and(|n| n.is_ident("now"))
            && allow.wall_clock
        {
            item.taints.push(Site {
                line: t.line,
                col: t.col,
                what: format!("`{}::now` (wall clock)", t.text),
            });
        } else if matches!(t.text.as_str(), "TcpListener" | "TcpStream" | "UdpSocket")
            && allow.sockets
        {
            item.taints.push(Site {
                line: t.line,
                col: t.col,
                what: format!("`{}` (socket)", t.text),
            });
        } else if matches!(
            t.text.as_str(),
            "AsRawFd" | "RawFd" | "as_raw_fd" | "from_raw_fd" | "into_raw_fd"
        ) && allow.raw_fds
        {
            // Raw-fd surface is a taint fact like sockets: legal only in
            // the event loop, and deterministic crates must not reach it.
            item.taints.push(Site {
                line: t.line,
                col: t.col,
                what: format!("`{}` (raw fd)", t.text),
            });
        }

        // Blocking facts: calls that can park the thread. Name-based and
        // over-approximate like everything else here — a lock-free method
        // that shares a blocking API's name either gets renamed (the
        // honest fix) or a justified site-level `ce:allow(blocking)`.
        if !blocking_allowed(t.line) {
            let blocking_what = if prev_dot && next_paren {
                match t.text.as_str() {
                    "lock" | "try_lock_until" => Some(format!("`.{}()` (mutex)", t.text)),
                    "wait" | "wait_timeout" | "wait_while" => {
                        Some(format!("`.{}()` (condvar)", t.text))
                    }
                    "recv" | "recv_timeout" | "recv_deadline" => {
                        Some(format!("`.{}()` (channel receive)", t.text))
                    }
                    "read" | "read_exact" | "read_to_end" | "read_to_string" => {
                        Some(format!("`.{}()` (blocking read)", t.text))
                    }
                    "accept" => Some("`.accept()` (blocking accept)".to_string()),
                    // Only the no-argument form is a thread join;
                    // `slice.join(", ")` is string concatenation.
                    "join" if code.get(i + 2).is_some_and(|n| n.is_punct(")")) => {
                        Some("`.join()` (thread join)".to_string())
                    }
                    _ => None,
                }
            } else if t.text == "sleep"
                && next_paren
                && prev_colons
                && i >= 2
                && code[i - 2].is_ident("thread")
            {
                Some("`thread::sleep`".to_string())
            } else {
                None
            };
            if let Some(what) = blocking_what {
                item.blocking.push(Site {
                    line: t.line,
                    col: t.col,
                    what,
                });
            }
        }

        // Call sites.
        if next_paren && !next_bang {
            if prev_dot {
                if !is_std_chain_link(code, i) {
                    item.calls.push(Call::Method {
                        name: t.text.clone(),
                        line: t.line,
                    });
                }
            } else if prev_colons {
                let segs = path_segments_ending_at(code, i);
                if segs.len() > 1 {
                    item.calls.push(Call::Path { segs, line: t.line });
                }
            } else if !is_keyword(&t.text) && (i == 0 || !code[i - 1].is_ident("fn")) {
                item.calls.push(Call::Free {
                    name: t.text.clone(),
                    line: t.line,
                });
            }
        } else if prev_dot && next_colons && !is_std_chain_link(code, i) {
            // Turbofish method call `.collect::<Vec<_>>()`.
            item.calls.push(Call::Method {
                name: t.text.clone(),
                line: t.line,
            });
        }
        i += 1;
    }
}

/// Is the method call at code index `i` (an ident preceded by `.`) a link
/// in a `std` iterator chain? True when its receiver is the result of a
/// previous `.adapter(...)` call whose name is in [`ITER_CHAIN_METHODS`].
fn is_std_chain_link(code: &[&Token], i: usize) -> bool {
    if !ITER_CHAIN_METHODS.contains(&code[i].text.as_str()) {
        return false;
    }
    // Receiver must be `)` closing a previous call...
    if i < 2 || !code[i - 2].is_punct(")") {
        return false;
    }
    // ...whose matching `(` is preceded by `.name` with name in the set.
    let close = i - 2;
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if code[j].is_punct(")") {
            depth += 1;
        } else if code[j].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    j >= 2
        && code[j - 1].kind == TokenKind::Ident
        && ITER_CHAIN_METHODS.contains(&code[j - 1].text.as_str())
        && code[j - 2].is_punct(".")
}

/// Walks back from the callee ident at `i` (preceded by `::`) collecting
/// the full `a::b::name` segment chain, skipping turbofish generics.
fn path_segments_ending_at(code: &[&Token], i: usize) -> Vec<String> {
    let mut segs = vec![code[i].text.clone()];
    let mut j = i;
    while j >= 2 && code[j - 1].is_punct("::") {
        let prev = code[j - 2];
        if prev.is_punct(">") || prev.is_punct(">>") {
            // Turbofish in the middle (`Vec::<u8>::new`): skip the generic
            // group back to its `<`.
            let mut depth: i32 = if prev.is_punct(">>") { 2 } else { 1 };
            let mut k = j - 2;
            while k > 0 && depth > 0 {
                k -= 1;
                if code[k].is_punct(">") {
                    depth += 1;
                } else if code[k].is_punct(">>") {
                    depth += 2;
                } else if code[k].is_punct("<") {
                    depth -= 1;
                }
            }
            // Expression turbofish (`Vec::<u8>::new`) puts `::` between
            // the segment ident and its `<`; type position omits it.
            let seg_idx =
                if k >= 2 && code[k - 1].is_punct("::") && code[k - 2].kind == TokenKind::Ident {
                    k - 2
                } else if k >= 1 && code[k - 1].kind == TokenKind::Ident {
                    k - 1
                } else {
                    break;
                };
            segs.push(code[seg_idx].text.clone());
            j = seg_idx;
        } else if prev.kind == TokenKind::Ident {
            segs.push(prev.text.clone());
            j -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Rust keywords and primitives that look like calls but are not
/// (`if (x)`, `return (y)`, `matches!`-free forms, tuple-struct-like
/// primitive casts).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "impl"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "const"
            | "static"
            | "type"
            | "trait"
            | "struct"
            | "enum"
            | "extern"
            | "box"
    )
}

/// Collects `pub` free fns, inherent methods, structs, and enums for
/// dead-API detection.
#[allow(clippy::too_many_arguments)]
fn collect_pub_items(
    code: &[&Token],
    test_mask: &[bool],
    counted: &[bool],
    rel_path: &str,
    key: &str,
    allow_markers: &[(u32, String)],
    fns: &[FnItem],
    raw_fns: &[RawFn],
    out: &mut Vec<PubItem>,
) {
    // Structs and enums.
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        let kind = if t.is_ident("struct") {
            Some("struct")
        } else if t.is_ident("enum") {
            Some("enum")
        } else {
            None
        };
        if let Some(kind) = kind {
            if !test_mask.get(i).copied().unwrap_or(false)
                && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let (is_pub, _) = fn_prefix_info(code, i);
                if is_pub {
                    let name = code[i + 1].text.clone();
                    let end = item_end(code, i);
                    let own_refs = own_ref_count(code, counted, i..=end, &name);
                    out.push(PubItem {
                        file: rel_path.to_string(),
                        crate_key: key.to_string(),
                        kind,
                        name,
                        line: t.line,
                        own_refs,
                        allows: bound_allows(allow_markers, t.line),
                    });
                }
            }
        }
        i += 1;
    }
    // Functions: reuse the extracted FnItems (non-test, with bodies) plus
    // their spans from raw_fns for own-reference counting.
    for f in fns {
        if !f.is_pub || f.trait_impl || f.name == "main" {
            continue;
        }
        // A pub method on a private type is reachable only where the type
        // is; keep it in scope anyway — the reference index decides.
        let span = raw_fns
            .iter()
            .find(|r| code[r.fn_idx].line == f.line && r.name == f.name)
            .and_then(|r| r.body.map(|(_, c)| (r.fn_idx, c)));
        let own_refs = match span {
            Some((start, end)) => own_ref_count(code, counted, start..=end, &f.name),
            None => 1,
        };
        out.push(PubItem {
            file: rel_path.to_string(),
            crate_key: key.to_string(),
            kind: "fn",
            name: f.name.clone(),
            line: f.line,
            own_refs,
            allows: f.allows.clone(),
        });
    }
}

/// Counted references to `name` inside the definition spanning code
/// indexes `span`.
fn own_ref_count(
    code: &[&Token],
    counted: &[bool],
    span: RangeInclusive<usize>,
    name: &str,
) -> usize {
    code.iter()
        .zip(counted)
        .enumerate()
        .filter(|(k, (t, &c))| c && span.contains(k) && t.is_ident(name))
        .count()
}

/// Which code tokens count as references for `dead-pub-api`: identifiers
/// outside test regions, outside `pub use` re-exports, and outside the
/// `impl` blocks (trait impls included) of the type they name. A type's
/// own impls, a re-export and a test are not callers.
fn reference_mask(code: &[&Token], test_mask: &[bool], impls: &[ImplSpan]) -> Vec<bool> {
    let mut counted: Vec<bool> = code
        .iter()
        .zip(test_mask)
        .map(|(t, &test)| t.kind == TokenKind::Ident && !test)
        .collect();
    let mut in_reexport = false;
    for (i, (t, c)) in code.iter().zip(counted.iter_mut()).enumerate() {
        if t.is_ident("use") && fn_prefix_info(code, i).0 {
            in_reexport = true;
        }
        let own_impl = impls
            .iter()
            .any(|im| im.owner == t.text && (im.start..=im.close).contains(&i));
        if in_reexport || own_impl {
            *c = false;
        }
        if t.is_punct(";") {
            in_reexport = false;
        }
    }
    counted
}

/// Parses every `use` declaration into (local name → path segments) plus
/// glob prefixes.
#[allow(clippy::type_complexity)]
fn collect_imports(code: &[&Token]) -> (Vec<(String, Vec<String>)>, Vec<Vec<String>>) {
    let mut imports = Vec::new();
    let mut globs = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("use") && !(i > 0 && code[i - 1].is_punct(".")) {
            let end = code
                .iter()
                .enumerate()
                .skip(i)
                .find(|(_, t)| t.is_punct(";"))
                .map(|(k, _)| k)
                .unwrap_or(code.len());
            parse_use_tree(&code[i + 1..end], &[], &mut imports, &mut globs);
            i = end + 1;
            continue;
        }
        i += 1;
    }
    (imports, globs)
}

/// Recursive-descent parse of a use tree (`a::b::{c, d as e, f::*}`).
fn parse_use_tree(
    toks: &[&Token],
    prefix: &[String],
    imports: &mut Vec<(String, Vec<String>)>,
    globs: &mut Vec<Vec<String>>,
) {
    let mut segs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            segs.push(t.text.clone());
            i += 1;
        } else if t.is_punct("::") {
            i += 1;
        } else if t.is_punct("*") {
            let mut full = prefix.to_vec();
            full.extend(segs.iter().cloned());
            globs.push(full);
            return;
        } else if t.is_punct("{") {
            let close = brace_end(toks, i);
            let mut full = prefix.to_vec();
            full.extend(segs.iter().cloned());
            // Split the group on top-level commas.
            let inner = &toks[i + 1..close];
            let mut start = 0;
            let mut depth = 0i32;
            for (k, it) in inner.iter().enumerate() {
                if it.is_punct("{") {
                    depth += 1;
                } else if it.is_punct("}") {
                    depth -= 1;
                } else if it.is_punct(",") && depth == 0 {
                    parse_use_tree(&inner[start..k], &full, imports, globs);
                    start = k + 1;
                }
            }
            if start < inner.len() {
                parse_use_tree(&inner[start..], &full, imports, globs);
            }
            return;
        } else if t.is_ident("as") {
            // `path as alias`
            if let Some(alias) = toks.get(i + 1) {
                let mut full = prefix.to_vec();
                full.extend(segs.iter().cloned());
                imports.push((alias.text.clone(), full));
            }
            return;
        } else {
            i += 1;
        }
    }
    if let Some(last) = segs.last().cloned() {
        let mut full = prefix.to_vec();
        full.extend(segs);
        imports.push((last, full));
    }
}

/// Index of the `}` matching the `{` at `open` within a token slice.
fn brace_end(toks: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_fn<'a>(items: &'a FileItems, name: &str) -> &'a FnItem {
        items
            .fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` extracted: {:?}", items.fns))
    }

    #[test]
    fn extracts_fn_with_owner_and_visibility() {
        let src =
            "struct S;\nimpl S {\n  pub fn m(&self) {}\n  fn p(&self) {}\n}\npub fn free() {}";
        let items = extract("crates/core/src/x.rs", src);
        let m = first_fn(&items, "m");
        assert_eq!(m.owner.as_deref(), Some("S"));
        assert!(m.is_pub && !m.trait_impl);
        let p = first_fn(&items, "p");
        assert!(!p.is_pub);
        let free = first_fn(&items, "free");
        assert!(free.owner.is_none() && free.is_pub);
    }

    #[test]
    fn trait_impl_methods_marked() {
        let src = "impl std::fmt::Display for S {\n  fn fmt(&self) {}\n}";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "fmt");
        assert_eq!(f.owner.as_deref(), Some("S"));
        assert!(f.trait_impl);
    }

    #[test]
    fn call_kinds_extracted() {
        let src =
            "fn f() {\n  helper();\n  a::b::qualified();\n  recv.method();\n  Vec::<u8>::new();\n}";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"qualified"));
        assert!(names.contains(&"method"));
        assert!(names.contains(&"new"));
        let path = f
            .calls
            .iter()
            .find_map(|c| match c {
                Call::Path { segs, .. } if segs.last().is_some_and(|s| s == "qualified") => {
                    Some(segs.clone())
                }
                _ => None,
            })
            .expect("path call");
        assert_eq!(path, ["a", "b", "qualified"]);
    }

    #[test]
    fn iterator_chain_methods_are_not_calls() {
        let src = "fn f(xs: &[f64]) -> f64 {\n  xs.iter().zip(xs).map(|(a, b)| a * b).sum()\n}";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        // `.iter` is ambiguous (named receiver) but `.zip`/`.map`/`.sum`
        // ride the chain; `.sum` follows `.map(...)` so it is std too.
        let names: Vec<&str> = f.calls.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["iter"], "{:?}", f.calls);
    }

    #[test]
    fn direct_receiver_method_stays_ambiguous() {
        let src = "fn f(s: &Series) -> Series { s.map(|v| v + 1.0) }";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name(), "map");
    }

    #[test]
    fn panic_and_alloc_facts() {
        let src = "fn f(o: Option<u32>, xs: &[u32]) -> u32 {\n  let v = vec![1];\n  let _ = v.to_vec();\n  panic!();\n  xs[0] + o.unwrap()\n}";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        let panics: Vec<&str> = f.panics.iter().map(|s| s.what.as_str()).collect();
        assert!(panics.contains(&"`panic!`"));
        assert!(panics.contains(&"`.unwrap()`"));
        assert!(panics.contains(&"slice/array indexing"));
        let allocs: Vec<&str> = f.allocs.iter().map(|s| s.what.as_str()).collect();
        assert!(allocs.contains(&"`vec!`"));
        assert!(allocs.contains(&"`.to_vec()`"));
    }

    #[test]
    fn attribute_and_type_brackets_are_not_indexing() {
        let src = "#[derive(Debug)]\nfn f(a: [u8; 4], b: &[f64]) -> Vec<[u8; 2]> { let _ = (a, b); Vec::new() }";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        assert!(f.panics.is_empty(), "{:?}", f.panics);
    }

    #[test]
    fn test_fns_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn helper(o: Option<u32>) -> u32 { o.unwrap() }\n}\nfn live() {}";
        let items = extract("crates/core/src/x.rs", src);
        assert!(items.fns.iter().all(|f| f.name != "helper"));
        assert!(items.fns.iter().any(|f| f.name == "live"));
    }

    #[test]
    fn markers_bind_to_next_fn() {
        let src = "// ce:hot\nfn hot() {}\n// ce:entry\nfn entry() {}\nfn neither() {}";
        let items = extract("crates/core/src/x.rs", src);
        assert!(first_fn(&items, "hot").hot);
        assert!(!first_fn(&items, "hot").entry);
        assert!(first_fn(&items, "entry").entry);
        assert!(!first_fn(&items, "neither").hot && !first_fn(&items, "neither").entry);
    }

    #[test]
    fn allow_markers_bind_within_reach() {
        let src = "// ce:allow(panic-reachability, reason = \"checked\")\n// ce:hot\nfn close() {}\n\n\n\n// ce:allow(dead-pub-api, reason = \"far\")\n\n\n\nfn far() {}";
        let items = extract("crates/core/src/x.rs", src);
        assert_eq!(first_fn(&items, "close").allows, ["panic-reachability"]);
        assert!(first_fn(&items, "far").allows.is_empty());
    }

    #[test]
    fn pub_items_and_own_refs() {
        let src = "pub struct Lonely { x: u32 }\npub fn solo() { solo_helper(); }\nfn solo_helper() {}\npub(crate) fn internal() {}";
        let items = extract("crates/core/src/x.rs", src);
        let kinds: Vec<(&str, &str)> = items
            .pub_items
            .iter()
            .map(|p| (p.kind, p.name.as_str()))
            .collect();
        assert!(kinds.contains(&("struct", "Lonely")));
        assert!(kinds.contains(&("fn", "solo")));
        assert!(!kinds.iter().any(|(_, n)| *n == "internal"));
        let lonely = items.pub_items.iter().find(|p| p.name == "Lonely").unwrap();
        assert_eq!(lonely.own_refs, 1);
    }

    #[test]
    fn bin_files_have_no_pub_items() {
        let src = "pub fn helper() {}\nfn main() { helper(); }";
        let items = extract("crates/bench/src/bin/tool.rs", src);
        assert!(items.pub_items.is_empty());
        let items = extract("crates/serve/src/main.rs", src);
        assert!(items.pub_items.is_empty());
    }

    #[test]
    fn imports_parsed_with_groups_aliases_and_globs() {
        let src = "use std::collections::BTreeMap;\nuse ce_timeseries::{HourlySeries, kernels::dot_slices};\nuse a::b as c;\nuse ce_grid::prelude::*;";
        let items = extract("crates/core/src/x.rs", src);
        let get = |name: &str| {
            items
                .imports
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.clone())
        };
        assert_eq!(get("BTreeMap").unwrap(), ["std", "collections", "BTreeMap"]);
        assert_eq!(
            get("HourlySeries").unwrap(),
            ["ce_timeseries", "HourlySeries"]
        );
        assert_eq!(
            get("dot_slices").unwrap(),
            ["ce_timeseries", "kernels", "dot_slices"]
        );
        assert_eq!(get("c").unwrap(), ["a", "b"]);
        assert_eq!(items.globs, vec![vec!["ce_grid", "prelude"]]);
    }

    #[test]
    fn refs_count_only_real_callers() {
        let src = "pub use inner::{f, Shape};\n\
                   pub struct Shape;\n\
                   impl Shape { pub fn new() -> Shape { Shape } }\n\
                   impl Default for Shape { fn default() -> Self { Shape::new() } }\n\
                   fn f() { g(); }\n\
                   fn h() -> Shape { Shape::new() }\n\
                   #[test]\nfn direct() { f(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { super::f(); super::g(); } }";
        let items = extract("crates/core/src/x.rs", src);
        let count = |n: &str| {
            items
                .refs
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        // `f`: its definition only — not the re-export, not the tests.
        assert_eq!(count("f"), 1);
        assert_eq!(count("g"), 1);
        // `Shape`: its definition and `h`'s two mentions — not the
        // re-export and none of the five inside its own impls.
        assert_eq!(count("Shape"), 3);
        assert_eq!(count("new"), 3);
        let shape = items.pub_items.iter().find(|p| p.name == "Shape").unwrap();
        assert_eq!(shape.own_refs, 1);
    }

    #[test]
    fn nonblocking_marker_binds_to_next_fn() {
        let src = "// ce:nonblocking\nfn tick() {}\nfn other() {}";
        let items = extract("crates/serve/src/x.rs", src);
        assert!(first_fn(&items, "tick").nonblocking);
        assert!(!first_fn(&items, "other").nonblocking);
    }

    #[test]
    fn blocking_facts_extracted() {
        let src = "fn f(m: &std::sync::Mutex<u32>, h: std::thread::JoinHandle<()>) {\n  let _ = m.lock();\n  std::thread::sleep(std::time::Duration::from_millis(1));\n  let _ = h.join();\n  let _ = rx.recv();\n}";
        let items = extract("crates/core/src/x.rs", src);
        let f = first_fn(&items, "f");
        let whats: Vec<&str> = f.blocking.iter().map(|s| s.what.as_str()).collect();
        assert!(whats.contains(&"`.lock()` (mutex)"), "{whats:?}");
        assert!(whats.contains(&"`thread::sleep`"), "{whats:?}");
        assert!(whats.contains(&"`.join()` (thread join)"), "{whats:?}");
        assert!(whats.contains(&"`.recv()` (channel receive)"), "{whats:?}");
    }

    #[test]
    fn string_join_is_not_a_blocking_fact() {
        let src = "fn f(parts: &[&str]) -> String { parts.join(\", \") }";
        let items = extract("crates/core/src/x.rs", src);
        assert!(first_fn(&items, "f").blocking.is_empty());
    }

    #[test]
    fn allow_blocking_suppresses_the_fact() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n  // ce:allow(blocking, reason = \"bounded critical section\")\n  let _ = m.lock();\n}";
        let items = extract("crates/serve/src/x.rs", src);
        assert!(first_fn(&items, "f").blocking.is_empty());
    }

    #[test]
    fn taint_facts_only_in_allowance_crates() {
        let src = "fn f() { let _ = std::time::Instant::now(); \
                   let _l: Option<TcpListener> = None; \
                   let _fd = listener.as_raw_fd(); }";
        let serve = extract("crates/serve/src/x.rs", src);
        let taints: Vec<&str> = serve.fns[0]
            .taints
            .iter()
            .map(|s| s.what.as_str())
            .collect();
        assert_eq!(taints.len(), 3, "{taints:?}");
        assert!(taints.iter().any(|t| t.contains("raw fd")), "{taints:?}");
        let core = extract("crates/core/src/x.rs", src);
        assert!(core.fns[0].taints.is_empty());
    }
}
