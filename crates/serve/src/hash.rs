//! A hand-rolled FxHash-style string hasher.
//!
//! Canonical scenario keys (see [`crate::request`]) are hashed to pick a
//! cache shard. The hasher is a fixed, seedless multiply-rotate mix — the
//! same family rustc uses internally — so the shard assignment of a key is
//! identical on every run and every platform. The hash is **not** the
//! cache's identity (the canonical string is; collisions merely co-locate
//! two keys in one shard), so its only requirements are determinism and a
//! reasonable spread.

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Hashes a byte slice. Deterministic across runs, processes, and
/// platforms (bytes are folded little-endian in 8-byte words).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        hash = mix(hash, u64::from_le_bytes(word));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash = mix(hash, u64::from_le_bytes(word));
    }
    // Fold the length in so prefixes of zero bytes don't collide.
    mix(hash, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(
            hash_bytes(b"evaluate;site=UT"),
            hash_bytes(b"evaluate;site=UT")
        );
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0"), hash_bytes(b"\0\0"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
    }

    #[test]
    fn spreads_across_high_bits() {
        // Shard selection uses the high bits; check that near-identical
        // keys do not all land in one shard.
        let mut shards = std::collections::BTreeSet::new();
        for i in 0..64 {
            let h = hash_bytes(format!("evaluate;site=UT;seed={i}").as_bytes());
            shards.insert(h >> 60);
        }
        assert!(shards.len() > 4, "only {} distinct shards", shards.len());
    }

    #[test]
    fn empty_input_hashes_stably() {
        assert_eq!(hash_bytes(&[]), hash_bytes(&[]));
    }
}
