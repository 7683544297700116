//! The [`Manifest`] lineage record and the [`verify`] oracle.
//!
//! A manifest attests one deterministic computation: *these inputs*
//! (seed, year, balancing authority, strategy — hashed canonically into
//! `input_hash`) *under this code* (`code_fingerprint`, the build-time
//! digest of every workspace source file) *produced exactly these
//! numbers* (`result_hash`, over the canonical bytes of the results).
//! Because every evaluation in this workspace is bitwise deterministic,
//! anyone holding the manifest can re-run the computation and check the
//! result hash bit-for-bit — [`verify`] is that check.

use crate::canonical::CanonicalHasher;
use std::fmt;
use std::fmt::Write as _;

/// The manifest schema version; bumped only when the canonical
/// serialization or the field set changes meaning.
pub const SCHEMA_VERSION: u32 = 1;

/// Domain tag for hashes over scenario inputs.
pub const INPUT_DOMAIN: &str = "ce-manifest/v1/input";
/// Domain tag for hashes over canonical result bytes.
pub const RESULT_DOMAIN: &str = "ce-manifest/v1/result";

/// A provenance record for one deterministic computation.
///
/// `years` and `seeds` are parallel in spirit but not in shape: a single
/// evaluation carries one of each, while an ensemble carries one year and
/// N seeds (each seed synthesizes an independent weather year).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Schema version — [`SCHEMA_VERSION`] for records written by this
    /// code.
    pub schema: u32,
    /// What was computed: `"evaluate"`, `"explore"`, `"ensemble"`,
    /// `"sweep"`, or `"serve"`.
    pub kind: String,
    /// Balancing-authority code of the grid (e.g. `"PACE"`).
    pub ba: String,
    /// Strategy canonical key (e.g. `"renewables_battery"`), or `"all"`
    /// for artifacts spanning every strategy.
    pub strategy: String,
    /// Calendar year(s) the demand/weather synthesis targeted.
    pub years: Vec<i32>,
    /// Seed(s) of the synthetic weather stream(s).
    pub seeds: Vec<u64>,
    /// Build-time digest of every workspace source file (see
    /// `ce_manifest::CODE_FINGERPRINT`). Informational in [`verify`]: a
    /// checkout that changed any source legitimately re-fingerprints.
    pub code_fingerprint: String,
    /// Canonical hash of the scenario inputs, under [`INPUT_DOMAIN`].
    pub input_hash: String,
    /// Canonical hash of the results, under [`RESULT_DOMAIN`]. This is
    /// the record's content address.
    pub result_hash: String,
}

/// A structurally invalid manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The schema version is not one this code understands.
    SchemaVersion(u32),
    /// A required field is empty.
    EmptyField(&'static str),
    /// A hash field is not 64 lowercase hex digits.
    MalformedHash(&'static str),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::SchemaVersion(found) => {
                write!(f, "unsupported manifest schema version {found}")
            }
            ManifestError::EmptyField(field) => write!(f, "manifest field `{field}` is empty"),
            ManifestError::MalformedHash(field) => {
                write!(f, "manifest field `{field}` is not 64 lowercase hex digits")
            }
        }
    }
}

/// Why [`verify`] rejected a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The record itself is malformed.
    Invalid(ManifestError),
    /// Recomputing the inputs' canonical hash gave a different digest —
    /// the manifest does not describe the computation it claims to.
    InputHashMismatch {
        /// Hash recorded in the manifest.
        recorded: String,
        /// Hash the recomputation produced.
        recomputed: String,
    },
    /// Recomputing the results gave different bytes — the attested
    /// numbers are not reproducible from the recorded inputs.
    ResultHashMismatch {
        /// Hash recorded in the manifest.
        recorded: String,
        /// Hash the recomputation produced.
        recomputed: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Invalid(e) => write!(f, "invalid manifest: {e}"),
            VerifyError::InputHashMismatch {
                recorded,
                recomputed,
            } => write!(
                f,
                "input hash mismatch: manifest records {recorded}, recomputation gives {recomputed}"
            ),
            VerifyError::ResultHashMismatch {
                recorded,
                recomputed,
            } => write!(
                f,
                "result hash mismatch: manifest records {recorded}, recomputation gives \
                 {recomputed} — the committed numbers are stale"
            ),
        }
    }
}

/// The hashes a verifier re-derived by re-running the computation a
/// manifest describes. Produced by the `recompute` callback of [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recomputed {
    /// Canonical input hash, recomputed under [`INPUT_DOMAIN`].
    pub input_hash: String,
    /// Canonical result hash, recomputed under [`RESULT_DOMAIN`].
    pub result_hash: String,
}

/// The core provenance oracle: structurally validates `manifest`, asks
/// `recompute` to re-derive both hashes from the manifest's recorded
/// scenario parameters, and demands bit-identity.
///
/// The code fingerprint is deliberately *not* compared: a verifier on a
/// different (or newer) checkout legitimately carries a different
/// fingerprint, and the result hash already catches any code change that
/// altered the numbers. What cannot drift silently is the data.
///
/// # Errors
///
/// [`VerifyError::Invalid`] for a malformed record, otherwise the first
/// hash mismatch (inputs before results).
pub fn verify<F>(manifest: &Manifest, recompute: F) -> Result<(), VerifyError>
where
    F: FnOnce(&Manifest) -> Recomputed,
{
    manifest.validate().map_err(VerifyError::Invalid)?;
    let got = recompute(manifest);
    if got.input_hash != manifest.input_hash {
        return Err(VerifyError::InputHashMismatch {
            recorded: manifest.input_hash.clone(),
            recomputed: got.input_hash,
        });
    }
    if got.result_hash != manifest.result_hash {
        return Err(VerifyError::ResultHashMismatch {
            recorded: manifest.result_hash.clone(),
            recomputed: got.result_hash,
        });
    }
    Ok(())
}

/// Is `s` exactly 64 lowercase hex digits (the wire form of a digest)?
fn is_hex64(s: &str) -> bool {
    s.len() == 64
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

impl Manifest {
    /// The record's content address: its result hash. `GET
    /// /manifest/<hash>` and the bench `--check` modes look records up by
    /// this string.
    pub fn address(&self) -> &str {
        &self.result_hash
    }

    /// Structural validation: schema version, non-empty identity fields,
    /// and well-formed hex digests.
    ///
    /// # Errors
    ///
    /// The first failed check, in field order.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.schema != SCHEMA_VERSION {
            return Err(ManifestError::SchemaVersion(self.schema));
        }
        for (field, value) in [
            ("kind", &self.kind),
            ("ba", &self.ba),
            ("strategy", &self.strategy),
        ] {
            if value.is_empty() {
                return Err(ManifestError::EmptyField(field));
            }
        }
        if self.years.is_empty() {
            return Err(ManifestError::EmptyField("years"));
        }
        if self.seeds.is_empty() {
            return Err(ManifestError::EmptyField("seeds"));
        }
        for (field, value) in [
            ("code_fingerprint", &self.code_fingerprint),
            ("input_hash", &self.input_hash),
            ("result_hash", &self.result_hash),
        ] {
            if !is_hex64(value) {
                return Err(ManifestError::MalformedHash(field));
            }
        }
        Ok(())
    }

    /// Canonical digest of the record itself (all fields, pinned order) —
    /// a fingerprint of the *manifest*, distinct from the hashes it
    /// carries.
    pub fn digest_hex(&self) -> String {
        let mut h = CanonicalHasher::new("ce-manifest/v1/record");
        h.field_u64("schema", u64::from(self.schema));
        h.field_str("kind", &self.kind);
        h.field_str("ba", &self.ba);
        h.field_str("strategy", &self.strategy);
        for &year in &self.years {
            h.field_i32("year", year);
        }
        for &seed in &self.seeds {
            h.field_u64("seed", seed);
        }
        h.field_str("code_fingerprint", &self.code_fingerprint);
        h.field_str("input_hash", &self.input_hash);
        h.field_str("result_hash", &self.result_hash);
        h.finish().to_hex()
    }

    /// Deterministic JSON rendering: fixed field order, no whitespace,
    /// minimal string escaping. Embedded verbatim in served responses, so
    /// the spelling is part of the byte-determinism contract.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(384);
        out.push('{');
        let _ = write!(out, "\"schema\":{}", self.schema);
        out.push_str(",\"kind\":");
        push_json_str(&mut out, &self.kind);
        out.push_str(",\"ba\":");
        push_json_str(&mut out, &self.ba);
        out.push_str(",\"strategy\":");
        push_json_str(&mut out, &self.strategy);
        out.push_str(",\"years\":[");
        for (i, year) in self.years.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{year}");
        }
        out.push_str("],\"seeds\":[");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{seed}");
        }
        out.push_str("],\"code_fingerprint\":");
        push_json_str(&mut out, &self.code_fingerprint);
        out.push_str(",\"input_hash\":");
        push_json_str(&mut out, &self.input_hash);
        out.push_str(",\"result_hash\":");
        push_json_str(&mut out, &self.result_hash);
        out.push('}');
        out
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes,
/// and control characters.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex64(fill: char) -> String {
        std::iter::repeat_n(fill, 64).collect()
    }

    fn sample() -> Manifest {
        Manifest {
            schema: SCHEMA_VERSION,
            kind: "evaluate".to_string(),
            ba: "PACE".to_string(),
            strategy: "renewables_battery".to_string(),
            years: vec![2020],
            seeds: vec![7],
            code_fingerprint: hex64('0'),
            input_hash: hex64('a'),
            result_hash: hex64('b'),
        }
    }

    fn echo(m: &Manifest) -> Recomputed {
        Recomputed {
            input_hash: m.input_hash.clone(),
            result_hash: m.result_hash.clone(),
        }
    }

    #[test]
    fn verify_accepts_a_faithful_recomputation() {
        assert_eq!(verify(&sample(), echo), Ok(()));
    }

    #[test]
    fn verify_rejects_input_drift_first() {
        let m = sample();
        let err = verify(&m, |m| Recomputed {
            input_hash: hex64('c'),
            result_hash: m.result_hash.clone(),
        })
        .unwrap_err();
        assert!(
            matches!(err, VerifyError::InputHashMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn verify_rejects_result_drift() {
        let m = sample();
        let err = verify(&m, |m| Recomputed {
            input_hash: m.input_hash.clone(),
            result_hash: hex64('c'),
        })
        .unwrap_err();
        assert!(
            matches!(err, VerifyError::ResultHashMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("stale"));
    }

    #[test]
    fn verify_ignores_code_fingerprint_drift() {
        // A verifier on a newer checkout has a different fingerprint;
        // only the data hashes are load-bearing.
        let mut m = sample();
        m.code_fingerprint = hex64('f');
        assert_eq!(verify(&m, echo), Ok(()));
    }

    #[test]
    fn validation_catches_each_defect() {
        let mut m = sample();
        m.schema = 2;
        assert_eq!(m.validate(), Err(ManifestError::SchemaVersion(2)));

        let mut m = sample();
        m.kind.clear();
        assert_eq!(m.validate(), Err(ManifestError::EmptyField("kind")));

        let mut m = sample();
        m.seeds.clear();
        assert_eq!(m.validate(), Err(ManifestError::EmptyField("seeds")));

        let mut m = sample();
        m.result_hash = "ABC".to_string();
        assert_eq!(
            m.validate(),
            Err(ManifestError::MalformedHash("result_hash"))
        );

        let mut m = sample();
        m.input_hash = hex64('A'); // uppercase is not canonical
        assert_eq!(
            m.validate(),
            Err(ManifestError::MalformedHash("input_hash"))
        );
    }

    #[test]
    fn json_spelling_is_pinned() {
        let m = sample();
        let json = m.to_json();
        assert_eq!(
            json,
            format!(
                "{{\"schema\":1,\"kind\":\"evaluate\",\"ba\":\"PACE\",\
                 \"strategy\":\"renewables_battery\",\"years\":[2020],\"seeds\":[7],\
                 \"code_fingerprint\":\"{}\",\"input_hash\":\"{}\",\"result_hash\":\"{}\"}}",
                hex64('0'),
                hex64('a'),
                hex64('b'),
            )
        );
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let mut m = sample();
        m.kind = "a\"b\\c\nd\u{1}".to_string();
        assert!(m.to_json().contains("\"kind\":\"a\\\"b\\\\c\\nd\\u0001\""));
    }

    #[test]
    fn address_is_the_result_hash() {
        let m = sample();
        assert_eq!(m.address(), m.result_hash);
    }

    #[test]
    fn record_digest_covers_every_field() {
        let base = sample().digest_hex();
        let mut m = sample();
        m.seeds.push(8);
        assert_ne!(m.digest_hex(), base);
        let mut m = sample();
        m.strategy = "renewables_only".to_string();
        assert_ne!(m.digest_hex(), base);
    }
}
