//! Provenance manifests for Carbon Explorer: content-addressed,
//! verifiable lineage for every published number.
//!
//! Everything this workspace computes is bitwise deterministic; this
//! crate turns that invariant into a portable artifact. A [`Manifest`]
//! records *what* was computed (seed, year, balancing authority,
//! strategy), *by which code* (a build-time fingerprint of every
//! workspace source), and *what came out* (canonical hashes of the
//! inputs and results). [`verify`] is the oracle: re-run the
//! computation, re-derive the hashes, and demand bit-identity.
//!
//! The crate is dependency-free and `forbid(unsafe_code)`: the trust
//! anchor must be auditable in isolation. Hashing is a hand-rolled,
//! FIPS 180-4 test-vector-pinned [`sha256`] with an allocation-free
//! streaming API; serialization is the canonical-byte discipline of
//! [`canonical`] (floats by IEEE-754 bit pattern, pinned field order,
//! domain-separated hashes).
//!
//! # Example
//!
//! ```
//! use ce_manifest::{verify, CanonicalHasher, Manifest, Recomputed};
//!
//! let mut inputs = CanonicalHasher::new(ce_manifest::INPUT_DOMAIN);
//! inputs.field_str("site", "UT");
//! inputs.field_str("seed", "7");
//! let mut results = CanonicalHasher::new(ce_manifest::RESULT_DOMAIN);
//! results.field_f64("coverage_fraction", 0.83);
//!
//! let manifest = Manifest {
//!     schema: ce_manifest::SCHEMA_VERSION,
//!     kind: "evaluate".to_string(),
//!     ba: "PACE".to_string(),
//!     strategy: "renewables_battery".to_string(),
//!     years: vec![2020],
//!     seeds: vec![7],
//!     code_fingerprint: ce_manifest::CODE_FINGERPRINT.to_string(),
//!     input_hash: inputs.finish().to_hex(),
//!     result_hash: results.finish().to_hex(),
//! };
//!
//! // A faithful re-computation reproduces both hashes bit-for-bit.
//! let ok = verify(&manifest, |m| {
//!     let mut inputs = CanonicalHasher::new(ce_manifest::INPUT_DOMAIN);
//!     inputs.field_str("site", "UT");
//!     inputs.field_str("seed", &m.seeds[0].to_string());
//!     let mut results = CanonicalHasher::new(ce_manifest::RESULT_DOMAIN);
//!     results.field_f64("coverage_fraction", 0.83);
//!     Recomputed {
//!         input_hash: inputs.finish().to_hex(),
//!         result_hash: results.finish().to_hex(),
//!     }
//! });
//! assert!(ok.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod manifest;
/// SHA-256 (FIPS 180-4): a hand-rolled streaming hasher, pinned against
/// the NIST test vectors in `tests/sha256_vectors.rs`. Self-contained so
/// `build.rs` can `include!` it to compute the code fingerprint.
pub mod sha256;

pub use canonical::CanonicalHasher;
pub use manifest::{
    verify, Manifest, ManifestError, Recomputed, VerifyError, INPUT_DOMAIN, RESULT_DOMAIN,
    SCHEMA_VERSION,
};
pub use sha256::{Digest, Sha256};

include!(concat!(env!("OUT_DIR"), "/fingerprint.rs"));

#[cfg(test)]
mod tests {
    #[test]
    fn code_fingerprint_is_a_digest() {
        assert_eq!(crate::CODE_FINGERPRINT.len(), 64);
        assert!(crate::CODE_FINGERPRINT
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    }
}
