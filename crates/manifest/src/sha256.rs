// SHA-256 (FIPS 180-4), hand-rolled so the provenance subsystem carries
// no dependencies. This file is deliberately self-contained — no `use`
// of anything outside itself — because `build.rs` `include!`s it to
// fingerprint workspace sources before this crate is even compiled.
// Module-level docs live on the `pub mod sha256` declaration in lib.rs
// for the same reason (an inner `//!` would not parse under `include!`).

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A finished SHA-256 digest: 32 bytes, rendered as 64 lowercase hex
/// characters by [`Digest::to_hex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

/// One nibble (low 4 bits) as its lowercase hex character. Branch
/// arithmetic instead of a table lookup keeps the digest path free of
/// indexing — this code runs on the serving hot path, where the
/// panic-reachability ratchet holds every slice index against it.
fn hex_char(nibble: u8) -> char {
    let low = nibble & 0x0f;
    if low < 10 {
        char::from(b'0' + low)
    } else {
        char::from(b'a' + (low - 10))
    }
}

impl Digest {
    /// Lowercase hexadecimal rendering, the wire form used in manifests.
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for &byte in &self.0 {
            out.push(hex_char(byte >> 4));
            out.push(hex_char(byte));
        }
        out
    }
}

/// Streaming SHA-256 hasher with an allocation-free update path: bytes
/// are folded into a fixed 64-byte block buffer and compressed in place,
/// so hashing any amount of input allocates nothing.
///
/// ```
/// use ce_manifest::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: [u8; 64],
    block_len: usize,
    /// Total message bytes absorbed, for the final length suffix.
    message_len: u64,
}

impl Sha256 {
    /// A fresh hasher in the FIPS 180-4 initial state.
    pub const fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            block_len: 0,
            message_len: 0,
        }
    }

    /// Absorbs `data`. Allocation-free; may be called any number of times
    /// with arbitrarily sized slices. The copy loops below pair iterators
    /// with `zip` instead of slicing by range: this routine is reachable
    /// from the serving hot path, where the panic-reachability ratchet
    /// holds every slice index against it.
    pub fn update(&mut self, data: &[u8]) {
        let mut rest = data;
        self.message_len = self
            .message_len
            .wrapping_add(u64::try_from(rest.len()).unwrap_or(u64::MAX));
        if self.block_len > 0 {
            let take = (64 - self.block_len).min(rest.len());
            for (slot, &byte) in self.block.iter_mut().skip(self.block_len).zip(rest) {
                *slot = byte;
            }
            self.block_len += take;
            rest = rest.get(take..).unwrap_or(&[]);
            if self.block_len < 64 {
                return;
            }
            let block = self.block;
            self.compress(&block);
            self.block_len = 0;
        }
        let mut chunks = rest.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk);
        }
        let tail = chunks.remainder();
        for (slot, &byte) in self.block.iter_mut().zip(tail) {
            *slot = byte;
        }
        self.block_len = tail.len();
    }

    /// Pads, appends the message length, and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.message_len.wrapping_mul(8);
        // One 0x80 byte, zeros to 56 mod 64, then the 64-bit length: the
        // padding always ends exactly on a block boundary.
        let pad_len = if self.block_len < 56 {
            56 - self.block_len
        } else {
            120 - self.block_len
        };
        self.update(&[0x80]);
        let zeros = [0u8; 63];
        self.update(zeros.get(..pad_len - 1).unwrap_or(&[]));
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// The FIPS 180-4 compression function over one 64-byte block. Like
    /// `update`, this is written without a single slice index — schedule
    /// expansion reads through a bounds-checked `at` accessor and the
    /// round loop zips constants with schedule words — so the serving hot
    /// path that reaches it stays off the panic-reachability ratchet.
    fn compress(&mut self, block: &[u8]) {
        let mut w = [0u32; 64];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            if let [b0, b1, b2, b3] = *chunk {
                *word = u32::from_be_bytes([b0, b1, b2, b3]);
            }
        }
        for i in 16..64 {
            let at = |j: usize| w.get(j).copied().unwrap_or(0);
            let s0 = at(i - 15).rotate_right(7) ^ at(i - 15).rotate_right(18) ^ (at(i - 15) >> 3);
            let s1 = at(i - 2).rotate_right(17) ^ at(i - 2).rotate_right(19) ^ (at(i - 2) >> 10);
            let next = at(i - 16)
                .wrapping_add(s0)
                .wrapping_add(at(i - 7))
                .wrapping_add(s1);
            if let Some(slot) = w.get_mut(i) {
                *slot = next;
            }
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for (&k, &word) in K.iter().zip(w.iter()) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k)
                .wrapping_add(word);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (state, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *state = state.wrapping_add(add);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}
