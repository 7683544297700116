//! Pins the hand-rolled SHA-256 against the NIST FIPS 180-4 test
//! vectors (and the derived ones NIST publishes alongside the standard),
//! plus incremental-vs-one-shot equality across adversarial split sizes.
//! Everything downstream — input hashes, result hashes, the code
//! fingerprint — inherits its correctness from these pins.

use ce_manifest::sha256::{Digest, Sha256};

/// One-shot digest over the streaming API.
fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// FIPS 180-4 §5.3.3 appendix vector: the empty message.
#[test]
fn empty_message() {
    assert_eq!(
        digest(b"").to_hex(),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

/// FIPS 180-4 "abc", the one-block example worked in the standard.
#[test]
fn one_block_abc() {
    assert_eq!(
        digest(b"abc").to_hex(),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

/// The standard's two-block message (56 bytes, so the padding spills
/// into a second block).
#[test]
fn two_block_message() {
    assert_eq!(
        digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

/// The long-message vector: one million repetitions of 'a', streamed in
/// deliberately awkward chunk sizes so the block-buffer carry logic is
/// exercised, never just whole blocks.
#[test]
fn one_million_a_streaming() {
    const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    let chunk_sizes = [1usize, 3, 55, 56, 63, 64, 65, 127, 991];
    let mut hasher = Sha256::new();
    let mut remaining = 1_000_000usize;
    let buf = [b'a'; 991];
    let mut turn = 0usize;
    while remaining > 0 {
        let take = chunk_sizes[turn % chunk_sizes.len()].min(remaining);
        hasher.update(&buf[..take]);
        remaining -= take;
        turn += 1;
    }
    assert_eq!(hasher.finalize().to_hex(), EXPECTED);
    // And as a single update call.
    let mut oneshot = Sha256::new();
    let million = vec![b'a'; 1_000_000];
    oneshot.update(&million);
    assert_eq!(oneshot.finalize().to_hex(), EXPECTED);
}

/// Incremental hashing must equal one-shot hashing for every split point
/// of a message spanning the block boundary.
#[test]
fn incremental_equals_one_shot_at_every_split() {
    let message: Vec<u8> = (0u32..150).map(|i| (i % 251) as u8).collect();
    let reference = digest(&message);
    for split in 0..=message.len() {
        let (head, tail) = message.split_at(split);
        let mut h = Sha256::new();
        h.update(head);
        h.update(tail);
        assert_eq!(h.finalize(), reference, "split at {split}");
    }
}

/// Exact block-boundary lengths (55/56/64 bytes) hit the three padding
/// regimes; pin them against digests cross-checked with coreutils
/// `sha256sum`.
#[test]
fn padding_boundary_lengths() {
    let cases: [(usize, &str); 3] = [
        (
            55,
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            64,
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
    ];
    for (len, expected) in cases {
        let msg = vec![b'a'; len];
        assert_eq!(digest(&msg).to_hex(), expected, "length {len}");
    }
}

/// The digest type itself: hex spelling is 64 lowercase chars and
/// round-trips the raw bytes faithfully.
#[test]
fn hex_rendering() {
    let d = digest(b"abc");
    let hex = d.to_hex();
    assert_eq!(hex.len(), 64);
    assert!(hex
        .bytes()
        .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    assert_eq!(&hex[..8], "ba7816bf");
    assert_eq!(d.0[0], 0xba);
}
