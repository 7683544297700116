//! Canonical byte-serialization: the identity under every provenance
//! hash.
//!
//! The discipline mirrors `ce-serve`'s canonical request keys: fields are
//! emitted in a pinned order as `name=value;` runs, floats are rendered
//! as the 16 lowercase hex digits of their IEEE-754 bit pattern (so two
//! values hash equal exactly when they are bit-identical — `0.1 + 0.2`
//! and `0.3` do *not* collide). Because every value has one
//! spelling and fields carry explicit names and terminators, the
//! serialization is prefix-free enough that no two distinct field
//! sequences produce the same byte stream.
//!
//! Every hash additionally starts with a *domain tag*, so an input hash
//! and a result hash over coincidentally equal field bytes can never
//! collide.

use crate::sha256::{Digest, Sha256};

/// One nibble (low 4 bits) as its lowercase hex ASCII byte. Branch
/// arithmetic instead of a table lookup keeps the canonical-byte path
/// free of indexing — it runs on the serving hot path, where the
/// panic-reachability ratchet holds every slice index against it.
fn hex_byte(nibble: u8) -> u8 {
    let low = nibble & 0x0f;
    if low < 10 {
        b'0' + low
    } else {
        b'a' + (low - 10)
    }
}

/// Streaming canonical hasher: a [`Sha256`] that absorbs named fields in
/// the canonical spelling. Allocation-free — numeric renderings go
/// through fixed stack buffers.
///
/// ```
/// use ce_manifest::CanonicalHasher;
///
/// let mut h = CanonicalHasher::new("example/v1");
/// h.field_str("site", "UT");
/// h.field_f64("solar_mw", 150.0);
/// let digest = h.finish();
/// assert_eq!(digest.to_hex().len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    inner: Sha256,
}

impl CanonicalHasher {
    /// A fresh hasher for the given domain (e.g. `"ce-manifest/v1/input"`).
    /// The tag is absorbed first, separating hash domains.
    pub fn new(domain: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(domain.as_bytes());
        inner.update(b"\n");
        CanonicalHasher { inner }
    }

    /// Absorbs a string field as `name=value;`.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.inner.update(name.as_bytes());
        self.inner.update(b"=");
        self.inner.update(value.as_bytes());
        self.inner.update(b";");
    }

    /// Absorbs a float field as `name=<16 hex digits of to_bits>;` —
    /// identical to `format!("{:016x}", value.to_bits())`, the spelling
    /// `ce-serve` pins for canonical request keys.
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.field_bytes_hex(name, &value.to_bits().to_be_bytes());
    }

    /// Absorbs `name=<hex of bytes>;` without allocating.
    fn field_bytes_hex(&mut self, name: &str, bytes: &[u8]) {
        self.inner.update(name.as_bytes());
        self.inner.update(b"=");
        for &byte in bytes {
            let pair = [hex_byte(byte >> 4), hex_byte(byte)];
            self.inner.update(&pair);
        }
        self.inner.update(b";");
    }

    /// Finishes the stream and returns the digest.
    #[must_use = "the digest is the whole point of hashing"]
    pub fn finish(self) -> Digest {
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_spelling_matches_the_serve_canonical_key_discipline() {
        // The hasher's f64 rendering must be byte-identical to the
        // `{:016x}` spelling ce-serve uses in request keys.
        for v in [0.0, -0.0, 1.5, 150.0, f64::MAX, f64::MIN_POSITIVE] {
            let mut via_fields = CanonicalHasher::new("t");
            via_fields.field_f64("x", v);
            let mut via_text = CanonicalHasher::new("t");
            via_text.field_str("x", &format!("{:016x}", v.to_bits()));
            assert_eq!(via_fields.finish(), via_text.finish(), "{v}");
        }
    }

    #[test]
    fn field_order_is_significant() {
        let mut ab = CanonicalHasher::new("t");
        ab.field_f64("a", 1.0);
        ab.field_f64("b", 2.0);
        let mut ba = CanonicalHasher::new("t");
        ba.field_f64("b", 2.0);
        ba.field_f64("a", 1.0);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn domains_separate() {
        let mut x = CanonicalHasher::new("ce-manifest/v1/input");
        x.field_str("site", "UT");
        let mut y = CanonicalHasher::new("ce-manifest/v1/result");
        y.field_str("site", "UT");
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn bit_identity_not_numeric_equality() {
        let mut pos = CanonicalHasher::new("t");
        pos.field_f64("x", 0.0);
        let mut neg = CanonicalHasher::new("t");
        neg.field_f64("x", -0.0);
        // 0.0 == -0.0 numerically, but their bit patterns differ, so the
        // canonical hashes must too.
        assert_ne!(pos.finish(), neg.finish());
    }
}
