//! The file-local rules (pass 1), evaluated over a lexed file, plus the
//! graph rules (pass 2) further down.
//!
//! Each file-local rule is lexical: it matches token patterns, comment
//! markers, and coarse structure (test modules, `fn` bodies) recovered by
//! brace matching. The file-local rules and their rationale:
//!
//! | rule | enforces |
//! |---|---|
//! | `nondeterminism` | no `HashMap`/`HashSet`, `Instant::now`, `SystemTime::now`, `thread::current`, `env::var` in deterministic crates |
//! | `hot-path-alloc` | no allocating calls inside `// ce:hot` functions |
//! | `float-eq` | `==`/`!=` against float operands needs `// ce:allow(float-eq, …)` |
//! | `panic-in-lib` | `unwrap`/`expect`/`panic!`/`unreachable!` counted against the baseline ratchet |
//! | `crate-hygiene` | crate roots carry `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` |
//! | `must-use` | `pub fn` returning a bare stats/result struct carries `#[must_use]` |
//! | `unsafe-boundary` | unsafe only in the allowlisted FFI module, each site `// ce:safety`-justified and ratcheted |
//! | `cast-truncation` | lossy `as` casts in deterministic crates counted against the baseline ratchet |
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt from
//! `nondeterminism`, `float-eq`, `panic-in-lib`, `must-use`, and
//! `cast-truncation` — the invariants protect the sweep engine's
//! production paths, and the bitwise-identity *tests* are precisely where
//! float equality is correct. `unsafe-boundary` has no test exemption:
//! the unsafe surface is audited wherever it appears.
//!
//! # Marker grammar
//!
//! - `// ce:hot` — the next `fn` in the file is a streaming hot path; the
//!   `hot-path-alloc` rule patrols its body.
//! - `// ce:entry` — the next `fn` is a request-handler root for
//!   `panic-reachability`.
//! - `// ce:nonblocking` — the next `fn` is an event-loop step; the
//!   `blocking-in-event-loop` graph rule patrols its closure.
//! - `// ce:safety(<justification>)` — justifies the unsafe fact within
//!   the next three lines; `unsafe-boundary` requires one per site.
//! - `// ce:allow(<kind>, reason = "…")` — suppresses `<kind>` violations
//!   on the same line and the line immediately below. `<kind>` is a rule
//!   name or one of the site-kind shorthands (`blocking`, `cast`). The
//!   reason is mandatory; a marker without one is itself a violation.

use crate::config::{
    allowances_for, is_allow_kind, is_crate_root, is_deterministic, rule_for_allow_kind,
    unsafe_allowlisted, Config,
};
use crate::lexer::{lex, Token, TokenKind};

/// One diagnostic: a rule violated at a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule violated (one of [`crate::config::RULE_NAMES`]).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// The analysis of one file: direct violations plus the per-file site
/// counts the driver compares against the baseline ratchets.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Violations that fail the build outright.
    pub violations: Vec<Violation>,
    /// Non-test `unwrap()`/`expect()`/`panic!`/`unreachable!` sites
    /// (line numbers), for the `panic-in-lib` ratchet.
    pub panic_sites: Vec<u32>,
    /// Lossy `as` cast sites (line numbers) in deterministic crates,
    /// for the `cast-truncation` ratchet.
    pub cast_sites: Vec<u32>,
    /// Justified, allowlisted unsafe sites (line numbers), for the
    /// `unsafe-boundary` ratchet. Unjustified or out-of-allowlist unsafe
    /// is a violation instead.
    pub unsafe_sites: Vec<u32>,
    /// Unproven integer-arithmetic sites (line numbers) in deterministic
    /// crates, for the `int-overflow` ratchet. Dataflow-proven sites are
    /// accepted silently.
    pub arith_sites: Vec<u32>,
    /// Unproven bracket-index sites (line numbers) outside tests, for the
    /// `slice-index` ratchet. Dataflow-proven sites are accepted silently.
    pub index_sites: Vec<u32>,
}

/// A parsed `// ce:allow(rule, reason = "…")` marker.
#[derive(Debug, Clone)]
struct AllowMarker {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// Analyzes one file; `rel_path` is workspace-relative with `/` separators.
pub fn analyze_file(rel_path: &str, source: &str, config: &Config) -> FileAnalysis {
    let tokens = lex(source);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    let mut markers = Vec::new();
    let mut hot_lines = Vec::new();
    let mut safety_lines = Vec::new();
    let mut ordering_lines = Vec::new();
    let mut violations = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        collect_marker(
            t,
            &mut markers,
            &mut hot_lines,
            &mut safety_lines,
            &mut ordering_lines,
            &mut violations,
            rel_path,
        );
    }

    let test_mask = test_region_mask(&code);
    let hot_ranges = hot_fn_ranges(&code, &hot_lines);

    let ctx = RuleCtx {
        rel_path,
        code: &code,
        test_mask: &test_mask,
        markers: &markers,
        config,
    };

    rule_nondeterminism(&ctx, &mut violations);
    rule_hot_path_alloc(&ctx, &hot_ranges, &mut violations);
    rule_float_eq(&ctx, &mut violations);
    rule_crate_hygiene(&ctx, &mut violations);
    rule_must_use(&ctx, &mut violations);
    let panic_sites = panic_sites(&ctx);
    let cast_sites = cast_sites(&ctx);
    let unsafe_sites = rule_unsafe_boundary(&ctx, &safety_lines, &mut violations);
    let df = crate::dataflow::analyze_source(&code);
    let arith_sites = arith_sites(&ctx, &df);
    let index_sites = index_sites(&ctx, &df);
    rule_atomic_ordering(&ctx, &ordering_lines, &mut violations);

    violations.sort_by_key(|v| (v.line, v.col, v.rule.clone()));
    FileAnalysis {
        violations,
        panic_sites,
        cast_sites,
        unsafe_sites,
        arith_sites,
        index_sites,
    }
}

struct RuleCtx<'a> {
    rel_path: &'a str,
    code: &'a [&'a Token],
    /// `test_mask[i]` — is code token `i` inside a test item?
    test_mask: &'a [bool],
    markers: &'a [AllowMarker],
    config: &'a Config,
}

impl RuleCtx<'_> {
    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.markers
            .iter()
            .any(|m| m.rule == rule && m.has_reason && (m.line == line || m.line + 1 == line))
    }

    fn violation(&self, rule: &str, tok: &Token, message: String) -> Option<Violation> {
        if self.allowed(rule, tok.line) {
            return None;
        }
        Some(Violation {
            rule: rule.to_string(),
            file: self.rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        })
    }
}

/// Parses `ce:hot` / `ce:safety` / `ce:allow` markers out of one comment
/// token. (`ce:entry` and `ce:nonblocking` bind to `fn` items and are
/// consumed by the fact extractor in `items.rs`, not here.)
fn collect_marker(
    tok: &Token,
    markers: &mut Vec<AllowMarker>,
    hot_lines: &mut Vec<u32>,
    safety_lines: &mut Vec<u32>,
    ordering_lines: &mut Vec<u32>,
    violations: &mut Vec<Violation>,
    rel_path: &str,
) {
    let body = tok
        .text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim();
    if body == "ce:hot" || body.starts_with("ce:hot ") {
        hot_lines.push(tok.line);
        return;
    }
    if let Some(rest) = body.strip_prefix("ce:safety(") {
        let inner = rest.rsplit_once(')').map_or(rest, |(a, _)| a).trim();
        if inner.is_empty() {
            violations.push(Violation {
                rule: "unsafe-boundary".to_string(),
                file: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                message: "ce:safety(…) marker carries no justification text".to_string(),
            });
        } else {
            safety_lines.push(tok.line);
        }
        return;
    }
    if let Some(rest) = body.strip_prefix("ce:ordering(") {
        let inner = rest.rsplit_once(')').map_or(rest, |(a, _)| a).trim();
        if inner.is_empty() {
            violations.push(Violation {
                rule: "atomic-ordering".to_string(),
                file: rel_path.to_string(),
                line: tok.line,
                col: tok.col,
                message: "ce:ordering(…) marker carries no justification text".to_string(),
            });
        } else {
            ordering_lines.push(tok.line);
        }
        return;
    }
    let Some(rest) = body.strip_prefix("ce:allow(") else {
        return;
    };
    let inner = rest.split(')').next().unwrap_or("");
    let mut parts = inner.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    let reason_part = parts.next().unwrap_or("").trim();
    let has_reason = reason_part
        .strip_prefix("reason")
        .map(|r| r.trim_start().starts_with('='))
        .unwrap_or(false);
    if !is_allow_kind(&rule) {
        violations.push(Violation {
            rule: "marker".to_string(),
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!("ce:allow names unknown rule `{rule}`"),
        });
        return;
    }
    if !has_reason {
        let owner = rule_for_allow_kind(&rule);
        violations.push(Violation {
            rule: owner.to_string(),
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!("ce:allow({rule}) marker is missing its mandatory `reason = \"…\"`"),
        });
        return;
    }
    markers.push(AllowMarker {
        line: tok.line,
        rule,
        has_reason,
    });
}

/// Index of the `}` matching the `{` at `open` (counting braces only);
/// falls back to the last token on unbalanced input.
pub(crate) fn matching_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Marks every code token covered by a `#[cfg(test)]` or `#[test]` item.
pub(crate) fn test_region_mask(code: &[&Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct("#") && i + 1 < code.len() && code[i + 1].is_punct("[") {
            let close = matching_bracket(code, i + 1);
            let idents: Vec<&str> = code[i + 2..close]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = match idents.first() {
                Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
                Some(&"test") => idents.len() == 1,
                _ => false,
            };
            if is_test_attr {
                let end = item_end(code, close + 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `open`.
pub(crate) fn matching_bracket(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// The index where the item starting at `from` ends: the `;` closing a
/// declaration, or the `}` closing the first top-level brace block.
/// Skips over any further attributes.
pub(crate) fn item_end(code: &[&Token], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < code.len() {
        let t = code[i];
        if depth == 0 {
            if t.is_punct("#") && i + 1 < code.len() && code[i + 1].is_punct("[") {
                i = matching_bracket(code, i + 1) + 1;
                continue;
            }
            if t.is_punct("{") {
                return matching_brace(code, i);
            }
            if t.is_punct(";") {
                return i;
            }
        }
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// A `// ce:hot`-annotated function: its name and body token range.
#[derive(Debug)]
struct HotRange {
    name: String,
    body: (usize, usize),
}

/// Resolves each `// ce:hot` marker to the body of the next `fn`.
fn hot_fn_ranges(code: &[&Token], hot_lines: &[u32]) -> Vec<HotRange> {
    let mut ranges = Vec::new();
    for &line in hot_lines {
        let Some(fn_idx) = code.iter().position(|t| t.line > line && t.is_ident("fn")) else {
            continue;
        };
        let name = code
            .get(fn_idx + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let Some(open) = code
            .iter()
            .skip(fn_idx)
            .position(|t| t.is_punct("{"))
            .map(|p| p + fn_idx)
        else {
            continue;
        };
        let close = matching_brace(code, open);
        ranges.push(HotRange {
            name,
            body: (open, close),
        });
    }
    ranges
}

fn rule_nondeterminism(ctx: &RuleCtx<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "nondeterminism";
    let allow = allowances_for(ctx.rel_path);
    let code = ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let path_call = |seg: &str| -> bool {
            t.text == seg
                && i + 2 < code.len()
                && code[i + 1].is_punct("::")
                && ctx.test_mask.get(i + 2) == Some(&false)
        };
        let v = match t.text.as_str() {
            "HashMap" | "HashSet" => ctx.violation(
                RULE,
                t,
                format!(
                    "`{}` iteration order is nondeterministic; use the BTree equivalent \
                     or a ce:allow marker with justification",
                    t.text
                ),
            ),
            "Instant" if path_call("Instant") && code[i + 2].is_ident("now") && !allow.wall_clock => {
                ctx.violation(
                    RULE,
                    t,
                    "`Instant::now` makes results wall-clock dependent; timing belongs in ce-bench"
                        .to_string(),
                )
            }
            "SystemTime"
                if path_call("SystemTime") && code[i + 2].is_ident("now") && !allow.wall_clock =>
            {
                ctx.violation(
                    RULE,
                    t,
                    "`SystemTime::now` makes results wall-clock dependent; timing belongs in ce-bench"
                        .to_string(),
                )
            }
            "thread" if path_call("thread") && code[i + 2].is_ident("current") => ctx.violation(
                RULE,
                t,
                "`thread::current` is scheduler-dependent and breaks deterministic replay"
                    .to_string(),
            ),
            "thread"
                if path_call("thread")
                    && (code[i + 2].is_ident("spawn") || code[i + 2].is_ident("scope"))
                    && !allow.threads =>
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`thread::{}` introduces scheduling nondeterminism; thread pools \
                         belong in ce-parallel or ce-serve",
                        code[i + 2].text
                    ),
                )
            }
            "TcpListener" | "TcpStream" | "UdpSocket" if !allow.sockets => ctx.violation(
                RULE,
                t,
                format!(
                    "`{}` brings network timing into results; sockets belong in \
                     ce-serve or ce-bench",
                    t.text
                ),
            ),
            // Raw fd surface: the traits, the `RawFd` type, and the
            // conversion methods. Only the event-loop front end (which
            // must hand fds to `poll(2)`) holds the allowance — a raw fd
            // anywhere else is I/O smuggled past the socket rule.
            "AsRawFd" | "RawFd" | "AsFd" | "BorrowedFd" | "OwnedFd" | "FromRawFd" | "IntoRawFd"
                if !allow.raw_fds =>
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`{}` exposes raw file descriptors; only ce-serve's event loop \
                         may touch fds (to drive poll(2))",
                        t.text
                    ),
                )
            }
            "as_raw_fd" | "from_raw_fd" | "into_raw_fd" | "as_fd"
                if !allow.raw_fds
                    && i > 0
                    && (code[i - 1].is_punct(".") || code[i - 1].is_punct("::")) =>
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`{}` exposes raw file descriptors; only ce-serve's event loop \
                         may touch fds (to drive poll(2))",
                        t.text
                    ),
                )
            }
            "env" if path_call("env") && code[i + 2].is_ident("var") => {
                let ce_threads_arg = code[i + 3..code.len().min(i + 8)]
                    .iter()
                    .any(|t| t.kind == TokenKind::Str && t.text.contains("CE_THREADS"));
                if allow.env_var_ce_threads && ce_threads_arg {
                    None
                } else {
                    ctx.violation(
                        RULE,
                        t,
                        "`env::var` injects ambient state; only ce-parallel may read CE_THREADS"
                            .to_string(),
                    )
                }
            }
            _ => None,
        };
        out.extend(v);
    }
}

fn rule_hot_path_alloc(ctx: &RuleCtx<'_>, hot: &[HotRange], out: &mut Vec<Violation>) {
    const RULE: &str = "hot-path-alloc";
    let code = ctx.code;
    let cfg = ctx.config;
    for range in hot {
        let (open, close) = range.body;
        for i in open..=close.min(code.len().saturating_sub(1)) {
            let t = code[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let prev_is_dot = i > 0 && code[i - 1].is_punct(".");
            let next = code.get(i + 1);
            let next_calls = next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
            let v = if prev_is_dot
                && next_calls
                && cfg.hot_forbidden_methods.contains(&t.text.as_str())
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`.{}()` allocates inside hot fn `{}` (marked // ce:hot)",
                        t.text, range.name
                    ),
                )
            } else if next.is_some_and(|n| n.is_punct("!"))
                && cfg.hot_forbidden_macros.contains(&t.text.as_str())
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`{}!` allocates inside hot fn `{}` (marked // ce:hot)",
                        t.text, range.name
                    ),
                )
            } else if next.is_some_and(|n| n.is_punct("::"))
                && code.get(i + 2).is_some()
                && cfg
                    .hot_forbidden_paths
                    .iter()
                    .any(|(ty, m)| t.text == *ty && code[i + 2].is_ident(m))
            {
                ctx.violation(
                    RULE,
                    t,
                    format!(
                        "`{}::{}` allocates inside hot fn `{}` (marked // ce:hot)",
                        t.text,
                        code[i + 2].text,
                        range.name
                    ),
                )
            } else {
                None
            };
            out.extend(v);
        }
    }
}

fn rule_float_eq(ctx: &RuleCtx<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "float-eq";
    let code = ctx.code;
    let is_float_operand = |t: &Token| -> bool {
        t.kind == TokenKind::Float || t.is_ident("f64") || t.is_ident("f32")
    };
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = code[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let floaty = (i > 0 && is_float_operand(code[i - 1]))
            || code.get(i + 1).is_some_and(|n| is_float_operand(n));
        if floaty {
            out.extend(ctx.violation(
                RULE,
                t,
                format!(
                    "float `{}` comparison outside tests; restructure (epsilon/`total_cmp`/\
                     `to_bits`) or mark `// ce:allow(float-eq, reason = \"…\")`",
                    t.text
                ),
            ));
        }
    }
}

/// Non-test panic sites, for the ratchet. Not marker-suppressible: the
/// baseline is the escape hatch, and it only ratchets down.
fn panic_sites(ctx: &RuleCtx<'_>) -> Vec<u32> {
    let code = ctx.code;
    let mut sites = Vec::new();
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev_is_dot = i > 0 && code[i - 1].is_punct(".");
        let next_is_paren = code.get(i + 1).is_some_and(|n| n.is_punct("("));
        let next_is_bang = code.get(i + 1).is_some_and(|n| n.is_punct("!"));
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => prev_is_dot && next_is_paren,
            "panic" | "unreachable" => next_is_bang,
            _ => false,
        };
        if hit {
            sites.push(t.line);
        }
    }
    sites
}

/// Targets of an `as` cast that can truncate or lose precision. `f64` is
/// deliberately absent: the integers this workspace lifts to `f64` fit in
/// its 53-bit mantissa, and flagging them would bury the real hazards.
const LOSSY_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Non-test lossy `as` casts in deterministic crates, for the
/// `cast-truncation` ratchet. `ce:allow(cast, reason = "…")` suppresses a
/// site; casts whose operand ends in an explicit rounding or clamping
/// call (`.round()`, `.floor()`, `.ceil()`, `.trunc()`, `.clamp(…)`,
/// `.min(…)`, `.max(…)`) already state their precision intent and are
/// exempt.
fn cast_sites(ctx: &RuleCtx<'_>) -> Vec<u32> {
    if !is_deterministic(ctx.rel_path) {
        return Vec::new();
    }
    let code = ctx.code;
    let mut sites = Vec::new();
    for i in 0..code.len() {
        if ctx.test_mask[i] || !code[i].is_ident("as") {
            continue;
        }
        let lossy = code.get(i + 1).is_some_and(|n| {
            n.kind == TokenKind::Ident && LOSSY_CAST_TARGETS.contains(&n.text.as_str())
        });
        if lossy && !ctx.allowed("cast", code[i].line) && !rounding_exempt(code, i) {
            sites.push(code[i].line);
        }
    }
    sites
}

/// Is the operand of the `as` at `idx` a call to an explicit rounding or
/// clamping method? Matches `….round() as u32`-style forms by walking
/// back from the closing paren to the method name.
fn rounding_exempt(code: &[&Token], idx: usize) -> bool {
    const EXPLICIT: &[&str] = &["round", "floor", "ceil", "trunc", "clamp", "min", "max"];
    if idx == 0 || !code[idx - 1].is_punct(")") {
        return false;
    }
    let mut depth = 0i32;
    let mut i = idx - 1;
    loop {
        if code[i].is_punct(")") {
            depth += 1;
        } else if code[i].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if i == 0 {
            return false;
        }
        i -= 1;
    }
    i >= 2
        && code[i - 1].kind == TokenKind::Ident
        && EXPLICIT.contains(&code[i - 1].text.as_str())
        && code[i - 2].is_punct(".")
}

/// A `(line, col) → test?` lookup for dataflow sites, which carry
/// positions rather than token indices.
fn test_position_set(ctx: &RuleCtx<'_>) -> std::collections::BTreeSet<(u32, u32)> {
    ctx.code
        .iter()
        .enumerate()
        .filter(|(i, _)| ctx.test_mask[*i])
        .map(|(_, t)| (t.line, t.col))
        .collect()
}

/// Non-test, dataflow-unproven integer-arithmetic sites in deterministic
/// crates, for the `int-overflow` ratchet. A site is accepted when
/// dataflow proves the result in-range, when the operator is already a
/// `checked_*`/`saturating_*` method (those never lex as bare operators),
/// or when it carries `ce:allow(arith, reason = "…")` (the rule name
/// spelling works too). The operational front ends (`ce-serve`,
/// `ce-bench`) deal in latency buckets and byte counts outside the
/// bitwise-determinism contract and are exempt, exactly like
/// `cast-truncation`.
fn arith_sites(ctx: &RuleCtx<'_>, df: &crate::dataflow::FileDataflow) -> Vec<u32> {
    if !is_deterministic(ctx.rel_path) {
        return Vec::new();
    }
    let in_test = test_position_set(ctx);
    df.arith
        .iter()
        .filter(|s| !s.proven)
        .filter(|s| !in_test.contains(&(s.line, s.col)))
        .filter(|s| !ctx.allowed("arith", s.line) && !ctx.allowed("int-overflow", s.line))
        .map(|s| s.line)
        .collect()
}

/// Non-test, dataflow-unproven bracket-index sites, for the `slice-index`
/// ratchet. Unlike `int-overflow` this runs in every crate: an
/// out-of-bounds panic in the serve path is as fatal as one in the sweep
/// engine. A site is accepted when dataflow proves the index bounded (a
/// dominating guard, an exclusive range loop, or a `min`/`clamp` against
/// `len() - 1`) or when it carries `ce:allow(index, reason = "…")`.
fn index_sites(ctx: &RuleCtx<'_>, df: &crate::dataflow::FileDataflow) -> Vec<u32> {
    let in_test = test_position_set(ctx);
    df.indexes
        .iter()
        .filter(|s| !s.proven)
        .filter(|s| !in_test.contains(&(s.line, s.col)))
        .filter(|s| !ctx.allowed("index", s.line) && !ctx.allowed("slice-index", s.line))
        .map(|s| s.line)
        .collect()
}

/// Memory-ordering names that appear as `Ordering::<variant>` at atomic
/// call sites. Disjoint from `cmp::Ordering`'s `Less`/`Equal`/`Greater`,
/// so comparison code never trips the rule.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The file-local half of `atomic-ordering`: every `Ordering::*` use at
/// an atomic call site must have a `// ce:ordering(reason)` marker within
/// the three lines above it (or on the same line). The marker documents
/// *why* that ordering is sufficient — and the reachability half of the
/// rule holds `SeqCst` on hot/nonblocking paths to a harder standard.
fn rule_atomic_ordering(ctx: &RuleCtx<'_>, ordering_lines: &[u32], out: &mut Vec<Violation>) {
    const RULE: &str = "atomic-ordering";
    const REACH: u32 = 3;
    let code = ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] || !code[i].is_ident("Ordering") {
            continue;
        }
        let is_variant = code.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && code
                .get(i + 2)
                .is_some_and(|t| ATOMIC_ORDERINGS.contains(&t.text.as_str()));
        if !is_variant {
            continue;
        }
        let line = code[i].line;
        let justified = ordering_lines
            .iter()
            .any(|l| *l <= line && line - *l <= REACH);
        if !justified {
            let variant = &code[i + 2].text;
            out.extend(ctx.violation(
                RULE,
                code[i],
                format!(
                    "`Ordering::{variant}` has no `// ce:ordering(reason)` within {REACH} lines; \
                     state why this ordering is sufficient"
                ),
            ));
        }
    }
}

/// The `unsafe-boundary` audit. Facts are `#[allow(unsafe_code)]`
/// attribute scopes and any bare `unsafe` token outside such a scope.
/// Every fact must live in an allowlisted file AND carry a
/// `// ce:safety(…)` justification within the three lines above it;
/// surviving sites are returned for the ratchet. No test exemption: the
/// unsafe surface is audited wherever it appears.
fn rule_unsafe_boundary(
    ctx: &RuleCtx<'_>,
    safety_lines: &[u32],
    out: &mut Vec<Violation>,
) -> Vec<u32> {
    const RULE: &str = "unsafe-boundary";
    let code = ctx.code;
    let mut facts: Vec<(u32, u32, &'static str)> = Vec::new();
    let mut covered: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct("#") && code.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = matching_bracket(code, i + 1);
            let is_allow_unsafe = {
                let mut idents = code[i + 2..close]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.as_str());
                idents.next() == Some("allow")
                    && idents.next() == Some("unsafe_code")
                    && idents.next().is_none()
            };
            if is_allow_unsafe {
                facts.push((code[i].line, code[i].col, "#[allow(unsafe_code)] scope"));
                covered.push((i, item_end(code, close + 1)));
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    for (j, t) in code.iter().enumerate() {
        if t.is_ident("unsafe") && !covered.iter().any(|&(s, e)| (s..=e).contains(&j)) {
            facts.push((t.line, t.col, "`unsafe` scope"));
        }
    }
    facts.sort_unstable();
    let mut sites = Vec::new();
    for (line, col, what) in facts {
        if !unsafe_allowlisted(ctx.rel_path) {
            out.push(Violation {
                rule: RULE.to_string(),
                file: ctx.rel_path.to_string(),
                line,
                col,
                message: format!(
                    "{what} outside the unsafe allowlist (only {} may hold unsafe code)",
                    crate::config::UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        } else if !safety_lines.iter().any(|&s| s <= line && line - s <= 3) {
            out.push(Violation {
                rule: RULE.to_string(),
                file: ctx.rel_path.to_string(),
                line,
                col,
                message: format!(
                    "{what} has no `// ce:safety(…)` justification within the three lines above"
                ),
            });
        } else {
            sites.push(line);
        }
    }
    sites
}

fn rule_crate_hygiene(ctx: &RuleCtx<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "crate-hygiene";
    if !is_crate_root(ctx.rel_path) {
        return;
    }
    let code = ctx.code;
    let has_inner_attr = |outer: &str, inner: &str| -> bool {
        (0..code.len()).any(|i| {
            code[i].is_punct("#")
                && code.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && code.get(i + 2).is_some_and(|t| t.is_punct("["))
                && code.get(i + 3).is_some_and(|t| t.is_ident(outer))
                && code.get(i + 4).is_some_and(|t| t.is_punct("("))
                && code.get(i + 5).is_some_and(|t| t.is_ident(inner))
        })
    };
    let anchor = Token {
        kind: TokenKind::Punct,
        text: String::new(),
        line: 1,
        col: 1,
    };
    // `ce-serve` alone may hold `#![deny(unsafe_code)]` instead: its
    // `sys` module needs two scoped `#[allow(unsafe_code)]` blocks for
    // the `poll(2)` FFI, which `forbid` cannot coexist with. `deny`
    // still hard-errors on unsanctioned unsafe.
    let unsafe_fenced = has_inner_attr("forbid", "unsafe_code")
        || (crate::config::may_deny_unsafe(ctx.rel_path) && has_inner_attr("deny", "unsafe_code"));
    if !unsafe_fenced {
        out.extend(ctx.violation(
            RULE,
            &anchor,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !has_inner_attr("warn", "missing_docs") {
        out.extend(ctx.violation(
            RULE,
            &anchor,
            "crate root is missing `#![warn(missing_docs)]`".to_string(),
        ));
    }
}

fn rule_must_use(ctx: &RuleCtx<'_>, out: &mut Vec<Violation>) {
    const RULE: &str = "must-use";
    let code = ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] || !code[i].is_ident("fn") {
            continue;
        }
        let (is_pub, has_must_use) = fn_prefix_info(code, i);
        if !is_pub || has_must_use {
            continue;
        }
        // Parameter list → return type tokens.
        let Some(params_open) = code
            .iter()
            .skip(i)
            .position(|t| t.is_punct("("))
            .map(|p| p + i)
        else {
            continue;
        };
        let params_close = matching_paren(code, params_open);
        if !code.get(params_close + 1).is_some_and(|t| t.is_punct("->")) {
            continue;
        }
        let mut ret = Vec::new();
        let mut j = params_close + 2;
        while j < code.len() {
            let t = code[j];
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
                break;
            }
            ret.push(t);
            j += 1;
        }
        let wrapped = ret
            .iter()
            .any(|t| t.is_ident("Result") || t.is_ident("Option"));
        let bare_type = ctx
            .config
            .must_use_types
            .iter()
            .find(|ty| ret.iter().any(|t| t.is_ident(ty)));
        if let Some(ty) = bare_type {
            if !wrapped {
                let fn_name = code.get(i + 1).map(|t| t.text.as_str()).unwrap_or("<anon>");
                out.extend(ctx.violation(
                    RULE,
                    code[i],
                    format!(
                        "pub fn `{fn_name}` returns bare `{ty}`; annotate it #[must_use] \
                         (dropping a pure result is always a bug)"
                    ),
                ));
            }
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
pub(crate) fn matching_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Looks backwards from a `fn` keyword for plain-`pub` visibility and a
/// `#[must_use]` attribute, stopping at the previous item's boundary.
/// `pub(crate)`/`pub(super)` items are internal API and are not flagged.
pub(crate) fn fn_prefix_info(code: &[&Token], fn_idx: usize) -> (bool, bool) {
    let mut is_pub = false;
    let mut has_must_use = false;
    let mut i = fn_idx;
    let mut steps = 0;
    while i > 0 && steps < 40 {
        i -= 1;
        steps += 1;
        let t = code[i];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(",") {
            break;
        }
        if t.is_punct("]") {
            // Walk the attribute group and scan it for must_use.
            let mut depth = 1usize;
            let close = i;
            while i > 0 && depth > 0 {
                i -= 1;
                steps += 1;
                if code[i].is_punct("]") {
                    depth += 1;
                } else if code[i].is_punct("[") {
                    depth -= 1;
                }
            }
            if code[i + 1..close].iter().any(|t| t.is_ident("must_use")) {
                has_must_use = true;
            }
            continue;
        }
        if t.is_ident("pub") {
            // `pub(crate)` / `pub(super)` → restricted, not public API.
            is_pub = !code.get(i + 1).is_some_and(|n| n.is_punct("("));
        }
    }
    (is_pub, has_must_use)
}

// ---------------------------------------------------------------------------
// Graph rules (pass 2)
//
// The four rules below run over the workspace call graph instead of a
// single token stream. They consume the facts pass 1 attached to each
// function (alloc/panic/taint sites) and the conservative edges built by
// `resolve`, so every finding is an over-approximation with an audit
// trail: the shortest witness call path from the root that makes the
// function relevant.
// ---------------------------------------------------------------------------

use crate::callgraph::{path_to, render_witness, CallGraph};
use crate::resolve::Workspace;

/// One panic site reachable from a hot fn or request handler, with its
/// witness. Ratcheted per file by the driver against `reach-baseline.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachFinding {
    /// File containing the panic site.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// What panics there (`` `.unwrap()` ``, `slice/array indexing`, …).
    pub what: String,
    /// Display name of the containing function.
    pub in_fn: String,
    /// Shortest call path from a root to the containing function.
    pub witness: String,
}

/// One `pub` item never referenced anywhere in the workspace. Ratcheted
/// per file by the driver against `reach-baseline.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadFinding {
    /// File defining the item.
    pub file: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// `"fn"`, `"struct"`, or `"enum"`.
    pub kind: &'static str,
    /// Item name.
    pub name: String,
}

/// Everything pass 2 produces: hard violations plus the two ratcheted
/// finding sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphAnalysis {
    /// `hot-path-transitive-alloc`, `blocking-in-event-loop`, and
    /// `determinism-taint` violations (fail the build outright;
    /// `ce:allow` markers are the escape hatch).
    pub violations: Vec<Violation>,
    /// `panic-reachability` findings, in deterministic scan order.
    pub panic_reach: Vec<ReachFinding>,
    /// `dead-pub-api` findings, in deterministic scan order.
    pub dead_api: Vec<DeadFinding>,
}

/// Runs all five graph rules over the resolved workspace.
pub fn analyze_graph(ws: &Workspace, graph: &CallGraph) -> GraphAnalysis {
    let mut out = GraphAnalysis::default();
    rule_hot_transitive_alloc(ws, graph, &mut out.violations);
    rule_blocking_in_event_loop(ws, graph, &mut out.violations);
    rule_panic_reachability(ws, graph, &mut out.panic_reach);
    rule_dead_pub_api(ws, &mut out.dead_api);
    rule_determinism_taint(ws, graph, &mut out.violations);
    rule_seqcst_on_hot_paths(ws, graph, &mut out.violations);
    out
}

/// True when `f` carries a call-site `ce:allow(rule)` marker covering
/// `line` (the marker's own line, trailing a call, or the line above it).
fn site_allowed(f: &crate::items::FnItem, rule: &str, line: u32) -> bool {
    f.allow_sites
        .iter()
        .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
}

/// BFS from `root` that skips call edges suppressed by a call-site
/// `ce:allow(rule)` marker in the caller's body.
fn reach_filtered(
    ws: &Workspace,
    graph: &CallGraph,
    root: usize,
    rule: &str,
) -> Vec<Option<crate::callgraph::Parent>> {
    let mut parents: Vec<Option<crate::callgraph::Parent>> = vec![None; ws.fns.len()];
    parents[root] = Some(crate::callgraph::Parent {
        caller: root,
        line: 0,
    });
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for e in &graph.adj[u] {
            if site_allowed(&ws.fns[u], rule, e.line) {
                continue;
            }
            if parents[e.callee].is_none() {
                parents[e.callee] = Some(crate::callgraph::Parent {
                    caller: u,
                    line: e.line,
                });
                queue.push_back(e.callee);
            }
        }
    }
    parents
}

/// `hot-path-transitive-alloc`: a `// ce:hot` fn must not *reach* an
/// allocating fn through any call chain. The direct-site case is the
/// file-local `hot-path-alloc` rule; this closes the helper loophole.
/// A call-site `ce:allow` marker cuts exactly that edge (for deliberate
/// warm-up allocations) without blinding the whole function.
fn rule_hot_transitive_alloc(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    const RULE: &str = "hot-path-transitive-alloc";
    for (i, f) in ws.fns.iter().enumerate() {
        if !f.hot || f.allows.iter().any(|r| r == RULE) {
            continue;
        }
        let parents = reach_filtered(ws, graph, i, RULE);
        for (j, p) in parents.iter().enumerate() {
            if j == i || p.is_none() {
                continue;
            }
            let g = &ws.fns[j];
            let Some(site) = g.allocs.first() else {
                continue;
            };
            if g.allows.iter().any(|r| r == RULE) {
                continue;
            }
            let witness = render_witness(&ws.fns, &path_to(&parents, j));
            out.push(Violation {
                rule: RULE.to_string(),
                file: f.file.clone(),
                line: f.line,
                col: 1,
                message: format!(
                    "hot fn `{}` reaches allocating fn `{}` ({}:{}: {}) via {witness}",
                    f.display(),
                    g.display(),
                    g.file,
                    site.line,
                    site.what
                ),
            });
        }
    }
}

/// `blocking-in-event-loop`: a `// ce:nonblocking` fn (event-loop tick,
/// state-machine advance, deadline sweep, completion drain) must not
/// reach a blocking call — mutex locks, condvar waits, sleeps, joins,
/// channel receives, blocking reads/accepts — through any call chain,
/// including its own body. A call-site `ce:allow(blocking, reason = "…")`
/// marker cuts exactly that edge (for a deliberately short critical
/// section or a nonblocking fd) without blinding the whole function.
fn rule_blocking_in_event_loop(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    const RULE: &str = "blocking-in-event-loop";
    const KIND: &str = "blocking";
    for (i, f) in ws.fns.iter().enumerate() {
        if !f.nonblocking || f.allows.iter().any(|r| r == KIND) {
            continue;
        }
        let parents = reach_filtered(ws, graph, i, KIND);
        for (j, p) in parents.iter().enumerate() {
            if p.is_none() {
                continue;
            }
            let g = &ws.fns[j];
            let Some(site) = g.blocking.first() else {
                continue;
            };
            if j != i && g.allows.iter().any(|r| r == KIND) {
                continue;
            }
            let witness = render_witness(&ws.fns, &path_to(&parents, j));
            out.push(Violation {
                rule: RULE.to_string(),
                file: f.file.clone(),
                line: f.line,
                col: 1,
                message: format!(
                    "nonblocking fn `{}` reaches blocking call {} in `{}` ({}:{}) via {witness}",
                    f.display(),
                    site.what,
                    g.display(),
                    g.file,
                    site.line
                ),
            });
        }
    }
}

/// The reachability half of `atomic-ordering`: a `SeqCst` site in any fn
/// reachable from a `// ce:hot` or `// ce:nonblocking` root is a hard
/// violation unless the site carries `ce:allow(seqcst, reason = "…")`.
/// `SeqCst` imposes a global total order — a full fence on some
/// architectures — which is exactly the latency cliff the reactor's
/// lock-free fast path exists to avoid; gauges and counters on those
/// paths want `Relaxed`, handoffs want `Acquire`/`Release`.
fn rule_seqcst_on_hot_paths(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    const RULE: &str = "atomic-ordering";
    const KIND: &str = "seqcst";
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.hot || f.nonblocking)
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach(&roots);
    for (j, p) in parents.iter().enumerate() {
        if p.is_none() {
            continue;
        }
        let g = &ws.fns[j];
        for site in &g.seqcst {
            if site_allowed(g, KIND, site.line) || g.allows.iter().any(|r| r == KIND) {
                continue;
            }
            let witness = render_witness(&ws.fns, &path_to(&parents, j));
            out.push(Violation {
                rule: RULE.to_string(),
                file: g.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`Ordering::SeqCst` in `{}` is reachable from a hot/nonblocking root via \
                     {witness}; use Relaxed/Acquire/Release or justify with ce:allow(seqcst, …)",
                    g.display()
                ),
            });
        }
    }
}

/// `panic-reachability`: every panic site reachable from a `// ce:hot` fn
/// or a `// ce:entry` request handler, each with its shortest witness.
/// Not marker-suppressible — the `reach-baseline.json` ratchet is the
/// escape hatch, and it only goes down.
fn rule_panic_reachability(ws: &Workspace, graph: &CallGraph, out: &mut Vec<ReachFinding>) {
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.hot || f.entry)
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach(&roots);
    for (j, p) in parents.iter().enumerate() {
        if p.is_none() {
            continue;
        }
        let g = &ws.fns[j];
        if g.panics.is_empty() {
            continue;
        }
        let witness = render_witness(&ws.fns, &path_to(&parents, j));
        for site in &g.panics {
            out.push(ReachFinding {
                file: g.file.clone(),
                line: site.line,
                col: site.col,
                what: site.what.clone(),
                in_fn: g.display(),
                witness: witness.clone(),
            });
        }
    }
}

/// `dead-pub-api`: a `pub` item in a library crate that no identifier
/// anywhere in the workspace (src, tests, benches, examples) refers to
/// beyond its own definition. Name-based and therefore conservative in
/// the safe direction: a name collision keeps an item alive, never the
/// reverse.
fn rule_dead_pub_api(ws: &Workspace, out: &mut Vec<DeadFinding>) {
    const RULE: &str = "dead-pub-api";
    for p in &ws.pub_items {
        if p.allows.iter().any(|r| r == RULE) {
            continue;
        }
        if ws.refs_to(&p.name) > p.own_refs {
            continue;
        }
        out.push(DeadFinding {
            file: p.file.clone(),
            line: p.line,
            kind: p.kind,
            name: p.name.clone(),
        });
    }
}

/// `determinism-taint`: flags every call edge that crosses from a fully
/// deterministic crate into an allowance crate (wall clock or sockets)
/// whose target reaches an actual nondeterminism use. Thread-pool
/// allowances (`ce-parallel`) do not taint: determinism under threading
/// is that crate's proven contract.
fn rule_determinism_taint(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Violation>) {
    const RULE: &str = "determinism-taint";
    let tainted: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.taints.is_empty())
        .map(|(i, _)| i)
        .collect();
    if tainted.is_empty() {
        return;
    }
    let reversed = graph.reversed();
    let reaches_taint = reversed.reach(&tainted);
    for (i, f) in ws.fns.iter().enumerate() {
        let f_allow = allowances_for(&f.file);
        if f_allow.wall_clock || f_allow.sockets || f.allows.iter().any(|r| r == RULE) {
            continue;
        }
        for e in &graph.adj[i] {
            let g = &ws.fns[e.callee];
            let g_allow = allowances_for(&g.file);
            if !(g_allow.wall_clock || g_allow.sockets) {
                continue; // crossing edge only; deeper hops report there
            }
            if reaches_taint[e.callee].is_none() || g.allows.iter().any(|r| r == RULE) {
                continue;
            }
            // Witness from g down to the taint: the reversed-BFS path
            // runs taint → … → g; flip it.
            let mut down = path_to(&reaches_taint, e.callee);
            down.reverse();
            let taint_fn = &ws.fns[*down.last().unwrap_or(&e.callee)];
            let site = taint_fn.taints.first();
            let witness = render_witness(&ws.fns, &down);
            out.push(Violation {
                rule: RULE.to_string(),
                file: f.file.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "fn `{}` (deterministic crate `{}`) calls `{}` (crate `{}`), which \
                     reaches {} at {}:{} via {witness}",
                    f.display(),
                    f.crate_key,
                    g.display(),
                    g.crate_key,
                    site.map(|s| s.what.clone()).unwrap_or_default(),
                    taint_fn.file,
                    site.map(|s| s.line).unwrap_or(0),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(rel_path: &str, src: &str) -> FileAnalysis {
        analyze_file(rel_path, src, &Config::default())
    }

    fn rules_of(fa: &FileAnalysis) -> Vec<&str> {
        fa.violations.iter().map(|v| v.rule.as_str()).collect()
    }

    #[test]
    fn hashmap_flagged_in_deterministic_crate() {
        let fa = analyze(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(rules_of(&fa), ["nondeterminism"; 3]);
    }

    #[test]
    fn hashmap_fine_in_tests() {
        let fa = analyze(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn f() { let _ = HashMap::<u32, u32>::new(); }\n}",
        );
        assert!(fa.violations.is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let fa = analyze(
            "crates/core/src/x.rs",
            "#[cfg(not(test))]\nmod real {\n  use std::collections::HashSet;\n}",
        );
        assert_eq!(rules_of(&fa), ["nondeterminism"]);
    }

    #[test]
    fn instant_allowed_only_in_bench() {
        let src = "fn f() { let _t = std::time::Instant::now(); }";
        assert_eq!(
            rules_of(&analyze("crates/core/src/x.rs", src)),
            ["nondeterminism"]
        );
        assert!(analyze("crates/bench/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn sockets_allowed_only_in_serve_and_bench() {
        let src = "fn f() { let _l = std::net::TcpListener::bind(\"127.0.0.1:0\"); }";
        assert_eq!(
            rules_of(&analyze("crates/core/src/x.rs", src)),
            ["nondeterminism"]
        );
        assert!(analyze("crates/serve/src/server.rs", src)
            .violations
            .is_empty());
        assert!(analyze("crates/bench/src/bin/repro.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn thread_spawn_allowed_only_in_pool_crates() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }";
        let scope = "fn f() { std::thread::scope(|_s| {}); }";
        for src in [spawn, scope] {
            assert_eq!(
                rules_of(&analyze("crates/core/src/x.rs", src)),
                ["nondeterminism"],
                "{src}"
            );
            assert!(analyze("crates/parallel/src/x.rs", src)
                .violations
                .is_empty());
            assert!(analyze("crates/serve/src/x.rs", src).violations.is_empty());
        }
        // `thread::current` stays forbidden even where spawning is allowed.
        let current = "fn f() { let _ = std::thread::current(); }";
        assert_eq!(
            rules_of(&analyze("crates/parallel/src/x.rs", current)),
            ["nondeterminism"]
        );
    }

    #[test]
    fn serve_allowance_is_narrow() {
        // The serve allowance covers sockets/threads/clock — a HashMap in
        // ce-serve is still a determinism violation.
        let fa = analyze(
            "crates/serve/src/cache.rs",
            "use std::collections::HashMap;\nfn f() { let _m = HashMap::<u32, u32>::new(); }",
        );
        assert_eq!(rules_of(&fa), ["nondeterminism"; 2]);
    }

    #[test]
    fn env_var_allowed_only_for_ce_threads_in_parallel() {
        let ok = r#"fn f() { let _ = std::env::var("CE_THREADS"); }"#;
        let bad = r#"fn f() { let _ = std::env::var("HOME"); }"#;
        assert!(analyze("crates/parallel/src/workers.rs", ok)
            .violations
            .is_empty());
        assert_eq!(
            rules_of(&analyze("crates/parallel/src/workers.rs", bad)),
            ["nondeterminism"]
        );
        assert_eq!(
            rules_of(&analyze("crates/core/src/x.rs", ok)),
            ["nondeterminism"]
        );
    }

    #[test]
    fn hot_fn_alloc_flagged() {
        let src = "// ce:hot\nfn kernel(xs: &[f64]) -> Vec<f64> {\n  let v = Vec::new();\n  let _ = xs.to_vec();\n  let s = format!(\"x\");\n  v\n}";
        let fa = analyze("crates/timeseries/src/x.rs", src);
        assert_eq!(rules_of(&fa), ["hot-path-alloc"; 3]);
    }

    #[test]
    fn unannotated_fn_may_allocate() {
        let src = "fn cold() -> Vec<f64> { vec![0.0] }";
        assert!(analyze("crates/timeseries/src/x.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn hot_marker_binds_to_next_fn_only() {
        let src = "// ce:hot\nfn hot() { let _ = 1; }\nfn cold() { let _ = vec![1]; }";
        assert!(analyze("crates/core/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn float_eq_flagged_and_allowed() {
        let bad = "fn f(x: f64) -> bool { x == 0.0 }";
        let fa = analyze("crates/core/src/x.rs", bad);
        assert_eq!(rules_of(&fa), ["float-eq"]);
        let ok = "fn f(x: f64) -> bool {\n  // ce:allow(float-eq, reason = \"exact zero guard\")\n  x == 0.0\n}";
        assert!(analyze("crates/core/src/x.rs", ok).violations.is_empty());
    }

    #[test]
    fn float_eq_ignores_integers_and_tests() {
        let src = "fn f(n: usize) -> bool { n == 0 }\n#[cfg(test)]\nmod tests { fn g(x: f64) -> bool { x == 1.5 } }";
        assert!(analyze("crates/core/src/x.rs", src).violations.is_empty());
    }

    #[test]
    fn as_f64_cast_comparison_is_flagged() {
        let src = "fn f(n: usize, y: f64) -> bool { n as f64 == y }";
        assert_eq!(
            rules_of(&analyze("crates/core/src/x.rs", src)),
            ["float-eq"]
        );
    }

    #[test]
    fn allow_marker_requires_reason() {
        let src = "// ce:allow(float-eq)\nfn f(x: f64) -> bool { x == 0.0 }";
        let fa = analyze("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&fa), ["float-eq", "float-eq"]);
    }

    #[test]
    fn allow_marker_unknown_rule() {
        let src = "// ce:allow(made-up, reason = \"x\")\nfn f() {}";
        let fa = analyze("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&fa), ["marker"]);
    }

    #[test]
    fn panic_sites_counted_outside_tests_only() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\nfn g() { panic!(\"boom\"); }\n#[cfg(test)]\nmod tests { fn t(o: Option<u32>) { o.unwrap(); } }";
        let fa = analyze("crates/core/src/x.rs", src);
        assert_eq!(fa.panic_sites, vec![1, 2]);
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }";
        assert!(analyze("crates/core/src/x.rs", src).panic_sites.is_empty());
    }

    #[test]
    fn doc_comment_examples_are_not_panic_sites() {
        let src = "/// ```\n/// x.unwrap();\n/// panic!();\n/// ```\nfn f() {}";
        assert!(analyze("crates/core/src/x.rs", src).panic_sites.is_empty());
    }

    #[test]
    fn crate_hygiene_on_roots_only() {
        let bare = "pub fn f() {}";
        let fa = analyze("crates/core/src/lib.rs", bare);
        assert_eq!(rules_of(&fa), ["crate-hygiene", "crate-hygiene"]);
        assert!(analyze("crates/core/src/other.rs", bare)
            .violations
            .is_empty());
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(analyze("crates/core/src/lib.rs", good)
            .violations
            .is_empty());
    }

    #[test]
    fn must_use_on_bare_stats_returns() {
        let bad = "pub fn stats() -> DispatchStats { todo() }";
        assert_eq!(
            rules_of(&analyze("crates/battery/src/x.rs", bad)),
            ["must-use"]
        );
        let annotated = "#[must_use]\npub fn stats() -> DispatchStats { todo() }";
        assert!(analyze("crates/battery/src/x.rs", annotated)
            .violations
            .is_empty());
        let wrapped = "pub fn stats() -> Result<DispatchStats, E> { todo() }";
        assert!(analyze("crates/battery/src/x.rs", wrapped)
            .violations
            .is_empty());
        let private = "fn stats() -> DispatchStats { todo() }";
        assert!(analyze("crates/battery/src/x.rs", private)
            .violations
            .is_empty());
        let restricted = "pub(crate) fn stats() -> DispatchStats { todo() }";
        assert!(analyze("crates/battery/src/x.rs", restricted)
            .violations
            .is_empty());
    }

    #[test]
    fn patterns_in_strings_do_not_fire() {
        let src = r#"fn f() -> &'static str { "HashMap Instant::now unwrap() == 0.0 vec![]" }"#;
        let fa = analyze("crates/core/src/x.rs", src);
        assert!(fa.violations.is_empty());
        assert!(fa.panic_sites.is_empty());
    }

    #[test]
    fn lossy_casts_counted_in_deterministic_crates_only() {
        let src = "fn f(x: f64, n: usize) -> u32 { let _ = x as u32; n as u32 }";
        let fa = analyze("crates/core/src/x.rs", src);
        assert!(fa.violations.is_empty());
        assert_eq!(fa.cast_sites, [1, 1]);
        assert!(analyze("crates/serve/src/x.rs", src).cast_sites.is_empty());
    }

    #[test]
    fn rounded_and_allowed_casts_are_exempt() {
        let src = "fn f(x: f64) -> u32 {\n  let a = x.round() as u32;\n  let b = x.clamp(0.0, 10.0) as u32;\n  // ce:allow(cast, reason = \"low 32 bits wanted\")\n  let c = (a as u64 * 3) as u32;\n  a + b + c\n}";
        let fa = analyze("crates/core/src/x.rs", src);
        assert!(fa.violations.is_empty());
        assert!(fa.cast_sites.is_empty(), "{:?}", fa.cast_sites);
    }

    #[test]
    fn widening_f64_and_test_casts_are_not_counted() {
        let src = "fn f(x: u32) -> f64 { x as f64 }\n#[cfg(test)]\nmod tests {\n  fn g(x: f64) -> u8 { x as u8 }\n}";
        let fa = analyze("crates/core/src/x.rs", src);
        assert!(fa.cast_sites.is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_is_a_violation() {
        let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }";
        let fa = analyze("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&fa), ["unsafe-boundary"]);
        assert!(fa.unsafe_sites.is_empty());
    }

    #[test]
    fn allowlisted_unsafe_requires_a_safety_justification() {
        let unjustified = "fn f(p: *const u32) -> u32 { unsafe { *p } }";
        let fa = analyze("crates/serve/src/sys.rs", unjustified);
        assert_eq!(rules_of(&fa), ["unsafe-boundary"]);

        let justified = "// ce:safety(p is valid for reads by contract)\nfn f(p: *const u32) -> u32 { unsafe { *p } }";
        let fa = analyze("crates/serve/src/sys.rs", justified);
        assert!(fa.violations.is_empty());
        assert_eq!(fa.unsafe_sites, [2]);
    }

    #[test]
    fn allow_unsafe_code_attr_scope_is_one_fact() {
        let src = "// ce:safety(ffi declaration only; call sites carry the obligation)\n#[allow(unsafe_code)]\nmod ffi {\n  extern \"C\" {\n    pub fn poll() -> i32;\n  }\n}";
        let fa = analyze("crates/serve/src/sys.rs", src);
        assert!(fa.violations.is_empty());
        assert_eq!(fa.unsafe_sites, [2]);
    }

    #[test]
    fn empty_safety_marker_is_a_violation() {
        let src = "// ce:safety()\nfn f(p: *const u32) -> u32 { unsafe { *p } }";
        let fa = analyze("crates/serve/src/sys.rs", src);
        assert_eq!(rules_of(&fa), ["unsafe-boundary", "unsafe-boundary"]);
    }

    #[test]
    fn allow_blocking_and_cast_kinds_are_known() {
        let src = "// ce:allow(blocking, reason = \"short critical section\")\nfn f() {}\n// ce:allow(cast, reason = \"bounded\")\nfn g() {}";
        let fa = analyze("crates/core/src/x.rs", src);
        assert!(fa.violations.is_empty());
    }

    #[test]
    fn allow_blocking_without_reason_reports_under_owning_rule() {
        let src = "// ce:allow(blocking)\nfn f() {}";
        let fa = analyze("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&fa), ["blocking-in-event-loop"]);
    }
}
