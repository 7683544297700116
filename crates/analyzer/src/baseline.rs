//! The file-local lint ratchets: a committed `lint-baseline.json` holding
//! the per-file counts of accepted panic sites (`panic-in-lib`), lossy
//! casts (`cast-truncation`), justified unsafe sites (`unsafe-boundary`),
//! unproven arithmetic (`int-overflow`), and unproven bracket indexing
//! (`slice-index`).
//!
//! The workspace predates the analyzer, so it carries a few hundred
//! `unwrap`/`expect` sites. Failing the build on all of them would force a
//! big-bang rewrite; ignoring them would let the count grow. The ratchet
//! does neither: every file's current count is recorded, any file whose
//! count *rises* fails the build, and shrinking a file's count is
//! celebrated by re-running `ce-analyzer --write-baseline` to lock in the
//! lower number. The baseline may only ever decrease, and an entry whose
//! file has left the scan set is itself a hard error — dead allowances
//! don't accumulate.
//!
//! The file is plain JSON with sorted keys so diffs are stable and
//! reviewable. Parsing and rendering are hand-rolled (the workspace
//! builds offline; the vendored `serde` stand-in has no JSON support) and
//! accept exactly the subset this file uses.

use std::collections::BTreeMap;

/// Accepted per-file site counts for the five file-local ratchets, keyed
/// by workspace-relative path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `panic-in-lib`: path → accepted panic-site count. (The section is
    /// named `files` in the JSON for continuity with the single-rule era.)
    pub files: BTreeMap<String, usize>,
    /// `cast-truncation`: path → accepted lossy-cast count.
    pub casts: BTreeMap<String, usize>,
    /// `unsafe-boundary`: path → accepted justified-unsafe-site count.
    pub unsafe_sites: BTreeMap<String, usize>,
    /// `int-overflow`: path → accepted unproven-arithmetic-site count.
    pub arith: BTreeMap<String, usize>,
    /// `slice-index`: path → accepted unproven-index-site count.
    pub indexes: BTreeMap<String, usize>,
}

impl Baseline {
    /// Sum of all sections' per-file counts.
    pub fn total(&self) -> usize {
        self.files.values().sum::<usize>()
            + self.casts.values().sum::<usize>()
            + self.unsafe_sites.values().sum::<usize>()
            + self.arith.values().sum::<usize>()
            + self.indexes.values().sum::<usize>()
    }

    /// Renders the committed JSON form: sorted keys, one file per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"rule\": \"lint\",\n");
        out.push_str(&format!("  \"total\": {},\n", self.total()));
        for (i, (section, files)) in [
            ("files", &self.files),
            ("cast-truncation", &self.casts),
            ("unsafe-boundary", &self.unsafe_sites),
            ("int-overflow", &self.arith),
            ("slice-index", &self.indexes),
        ]
        .iter()
        .enumerate()
        {
            out.push_str(&format!("  \"{section}\": {{\n"));
            let n = files.len();
            for (j, (path, count)) in files.iter().enumerate() {
                let comma = if j + 1 == n { "" } else { "," };
                out.push_str(&format!("    \"{path}\": {count}{comma}\n"));
            }
            let comma = if i == 4 { "" } else { "," };
            out.push_str(&format!("  }}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses the committed JSON form. Accepts the legacy single-section
    /// form (`"rule": "panic-in-lib"` with only `files`) so a pre-split
    /// baseline still loads.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.eat(b'{')?;
        let mut baseline = Baseline::default();
        let mut declared_total: Option<usize> = None;
        loop {
            p.skip_ws();
            if p.try_eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            match key.as_str() {
                "rule" => {
                    let rule = p.string()?;
                    if rule != "lint" && rule != "panic-in-lib" {
                        return Err(format!("baseline is for rule `{rule}`, not lint"));
                    }
                }
                "total" => declared_total = Some(p.number()?),
                "files" | "cast-truncation" | "unsafe-boundary" | "int-overflow"
                | "slice-index" => {
                    p.eat(b'{')?;
                    let files = match key.as_str() {
                        "files" => &mut baseline.files,
                        "cast-truncation" => &mut baseline.casts,
                        "unsafe-boundary" => &mut baseline.unsafe_sites,
                        "int-overflow" => &mut baseline.arith,
                        _ => &mut baseline.indexes,
                    };
                    loop {
                        p.skip_ws();
                        if p.try_eat(b'}') {
                            break;
                        }
                        let path = p.string()?;
                        p.skip_ws();
                        p.eat(b':')?;
                        p.skip_ws();
                        let count = p.number()?;
                        files.insert(path, count);
                        p.skip_ws();
                        p.try_eat(b',');
                    }
                }
                other => return Err(format!("unexpected baseline key `{other}`")),
            }
            p.skip_ws();
            p.try_eat(b',');
        }
        if let Some(total) = declared_total {
            if total != baseline.total() {
                return Err(format!(
                    "baseline declares total {total} but per-file counts sum to {}",
                    baseline.total()
                ));
            }
        }
        Ok(baseline)
    }
}

/// The graph-rule ratchet: a committed `reach-baseline.json` holding two
/// per-file finding counts — panic sites reachable from hot fns/handlers
/// (`panic-reachability`) and unreferenced pub items (`dead-pub-api`).
///
/// Same contract as [`Baseline`]: counts may only fall. The two rules
/// share one file because they ratchet together — both are properties of
/// the workspace call graph, refreshed by the same `--write-baseline` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachBaseline {
    /// `panic-reachability`: path → accepted reachable-panic-site count.
    pub panic_reach: BTreeMap<String, usize>,
    /// `dead-pub-api`: path → accepted dead-pub-item count.
    pub dead_api: BTreeMap<String, usize>,
}

impl ReachBaseline {
    /// Sum of both sections' counts.
    pub fn total(&self) -> usize {
        self.panic_reach.values().sum::<usize>() + self.dead_api.values().sum::<usize>()
    }

    /// The accepted `panic-reachability` count for `path` (0 when absent).
    pub fn allowed_reach(&self, path: &str) -> usize {
        self.panic_reach.get(path).copied().unwrap_or(0)
    }

    /// The accepted `dead-pub-api` count for `path` (0 when absent).
    pub fn allowed_dead(&self, path: &str) -> usize {
        self.dead_api.get(path).copied().unwrap_or(0)
    }

    /// Renders the committed JSON form: sorted keys, one file per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"rule\": \"reachability\",\n");
        out.push_str(&format!("  \"total\": {},\n", self.total()));
        for (i, (section, files)) in [
            ("panic-reachability", &self.panic_reach),
            ("dead-pub-api", &self.dead_api),
        ]
        .iter()
        .enumerate()
        {
            out.push_str(&format!("  \"{section}\": {{\n"));
            let n = files.len();
            for (j, (path, count)) in files.iter().enumerate() {
                let comma = if j + 1 == n { "" } else { "," };
                out.push_str(&format!("    \"{path}\": {count}{comma}\n"));
            }
            let comma = if i == 0 { "," } else { "" };
            out.push_str(&format!("  }}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses the committed JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.eat(b'{')?;
        let mut baseline = ReachBaseline::default();
        let mut declared_total: Option<usize> = None;
        loop {
            p.skip_ws();
            if p.try_eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            match key.as_str() {
                "rule" => {
                    let rule = p.string()?;
                    if rule != "reachability" {
                        return Err(format!(
                            "reach baseline is for rule `{rule}`, not reachability"
                        ));
                    }
                }
                "total" => declared_total = Some(p.number()?),
                "panic-reachability" | "dead-pub-api" => {
                    p.eat(b'{')?;
                    let files = if key == "panic-reachability" {
                        &mut baseline.panic_reach
                    } else {
                        &mut baseline.dead_api
                    };
                    loop {
                        p.skip_ws();
                        if p.try_eat(b'}') {
                            break;
                        }
                        let path = p.string()?;
                        p.skip_ws();
                        p.eat(b':')?;
                        p.skip_ws();
                        let count = p.number()?;
                        files.insert(path, count);
                        p.skip_ws();
                        p.try_eat(b',');
                    }
                }
                other => return Err(format!("unexpected reach-baseline key `{other}`")),
            }
            p.skip_ws();
            p.try_eat(b',');
        }
        if let Some(total) = declared_total {
            if total != baseline.total() {
                return Err(format!(
                    "reach baseline declares total {total} but per-file counts sum to {}",
                    baseline.total()
                ));
            }
        }
        Ok(baseline)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.try_eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} of baseline",
                b as char, self.pos
            ))
        }
    }

    fn try_eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in baseline string".to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err("escape sequences are not used in baseline paths".to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string in baseline".to_string())
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start} of baseline"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "unparseable number in baseline".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::default();
        b.files.insert("crates/a/src/lib.rs".to_string(), 3);
        b.files.insert("crates/b/src/x.rs".to_string(), 1);
        b.casts.insert("crates/a/src/lib.rs".to_string(), 2);
        b.unsafe_sites.insert("crates/c/src/sys.rs".to_string(), 2);
        b.arith.insert("crates/a/src/lib.rs".to_string(), 5);
        b.indexes.insert("crates/b/src/x.rs".to_string(), 4);
        b
    }

    #[test]
    fn round_trip() {
        let b = sample();
        let rendered = b.render();
        assert_eq!(Baseline::parse(&rendered).unwrap(), b);
        assert_eq!(b.total(), 17);
    }

    #[test]
    fn legacy_single_section_form_parses() {
        let text = "{ \"rule\": \"panic-in-lib\", \"total\": 2, \"files\": { \"a.rs\": 2 } }";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.files.get("a.rs"), Some(&2));
        assert!(b.casts.is_empty());
        assert!(b.unsafe_sites.is_empty());
        assert!(b.arith.is_empty());
        assert!(b.indexes.is_empty());
    }

    #[test]
    fn sections_are_independent() {
        let b = sample();
        let count =
            |section: &BTreeMap<String, usize>, path: &str| section.get(path).copied().unwrap_or(0);
        assert_eq!(count(&b.files, "crates/a/src/lib.rs"), 3);
        assert_eq!(count(&b.casts, "crates/a/src/lib.rs"), 2);
        assert_eq!(count(&b.unsafe_sites, "crates/a/src/lib.rs"), 0);
        assert_eq!(count(&b.unsafe_sites, "crates/c/src/sys.rs"), 2);
        assert_eq!(count(&b.arith, "crates/a/src/lib.rs"), 5);
        assert_eq!(count(&b.arith, "crates/b/src/x.rs"), 0);
        assert_eq!(count(&b.indexes, "crates/b/src/x.rs"), 4);
        assert_eq!(count(&b.indexes, "crates/a/src/lib.rs"), 0);
    }

    #[test]
    fn rendered_form_is_stable_and_sorted() {
        let rendered = sample().render();
        let a = rendered.find("crates/a").unwrap();
        let b = rendered.find("crates/b").unwrap();
        assert!(a < b);
        assert!(rendered.contains("\"total\": 17"));
        assert!(rendered.contains("\"cast-truncation\""));
        assert!(rendered.contains("\"unsafe-boundary\""));
        assert!(rendered.contains("\"int-overflow\""));
        assert!(rendered.contains("\"slice-index\""));
    }

    #[test]
    fn mismatched_total_rejected() {
        let text = "{ \"rule\": \"panic-in-lib\", \"total\": 9, \"files\": { \"a.rs\": 1 } }";
        assert!(Baseline::parse(text).is_err());
    }

    #[test]
    fn wrong_rule_rejected() {
        let text = "{ \"rule\": \"other\", \"total\": 0, \"files\": {} }";
        assert!(Baseline::parse(text).is_err());
    }

    #[test]
    fn empty_baseline_parses() {
        let b = Baseline::parse("{ \"rule\": \"panic-in-lib\", \"files\": {} }").unwrap();
        assert_eq!(b.total(), 0);
    }

    fn reach_sample() -> ReachBaseline {
        let mut b = ReachBaseline::default();
        b.panic_reach.insert("crates/a/src/lib.rs".to_string(), 4);
        b.panic_reach.insert("crates/b/src/x.rs".to_string(), 2);
        b.dead_api.insert("crates/a/src/lib.rs".to_string(), 1);
        b
    }

    #[test]
    fn reach_round_trip() {
        let b = reach_sample();
        let rendered = b.render();
        assert_eq!(ReachBaseline::parse(&rendered).unwrap(), b);
        assert_eq!(b.total(), 7);
        assert!(rendered.contains("\"total\": 7"));
    }

    #[test]
    fn reach_sections_independent() {
        let b = reach_sample();
        assert_eq!(b.allowed_reach("crates/a/src/lib.rs"), 4);
        assert_eq!(b.allowed_dead("crates/a/src/lib.rs"), 1);
        assert_eq!(b.allowed_reach("nope.rs"), 0);
        assert_eq!(b.allowed_dead("crates/b/src/x.rs"), 0);
    }

    #[test]
    fn reach_wrong_rule_rejected() {
        assert!(ReachBaseline::parse("{ \"rule\": \"panic-in-lib\" }").is_err());
    }

    #[test]
    fn reach_mismatched_total_rejected() {
        let text = "{ \"rule\": \"reachability\", \"total\": 9, \
                    \"panic-reachability\": { \"a.rs\": 1 }, \"dead-pub-api\": {} }";
        assert!(ReachBaseline::parse(text).is_err());
    }

    #[test]
    fn reach_empty_parses() {
        let b = ReachBaseline::parse(
            "{ \"rule\": \"reachability\", \"panic-reachability\": {}, \"dead-pub-api\": {} }",
        )
        .unwrap();
        assert_eq!(b.total(), 0);
    }
}
