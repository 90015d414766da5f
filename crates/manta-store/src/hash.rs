//! Deterministic, platform-independent hashing.
//!
//! Everything keyed on disk must hash identically across runs, platforms
//! and Rust versions, so `std::hash` (randomized, unspecified) is out.
//! [`Fingerprint`] is the hash behind every store key and entry
//! checksum. It reads its input a word at a time: each step folds two
//! little-endian 64-bit words into the state with one 64×64→128-bit
//! multiply whose halves are XORed together (the folded multiply of the
//! wyhash family), and [`Fingerprint::finish`] applies the splitmix64
//! finalizer. One step covers 16 bytes, where FNV-1a needed a multiply
//! per byte. It uses no `unsafe` and no dependency, and reads words
//! explicitly little-endian, so every platform computes the same keys.
//!
//! [`hash_bytes`] and [`hash_str`] are a different function:
//! byte-serial 64-bit FNV-1a with the same finalizer. No key or checksum
//! uses them. They stay only because bench_e2e's stored output digests
//! (`bench_e2e/digests/*.txt`) were recorded with them, so their values
//! must never change.
//!
//! Content addressing assumes that distinct inputs never share a 64-bit
//! hash. An entry's checksum catches a damaged payload, not two inputs
//! that hash alike: if two canonical module texts (the `infer` key) or
//! two request texts (the `src` alias key) collided under one config
//! hash, the second would be served the first one's result. The same
//! holds for the summary cache's per-function input fingerprints: a
//! collision there replays a chunk that was computed from other inputs.
//! At 64 bits that takes on the order of 2³² distinct inputs per config
//! (or per function) before it becomes likely; nothing here detects it.
//! The hash is not cryptographic, so the assumption holds for honest
//! inputs, not for inputs crafted to collide.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The initial state of a [`Fingerprint`] (the fraction of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd constants whitening the two factors of each mixing step (the
/// wyhash primes).
const K0: u64 = 0xa076_1d64_78bd_642f;
const K1: u64 = 0xe703_7ed1_a0b4_28db;

/// The splitmix64 mixing step — also the canonical seed scrambler shared
/// by the workload generator and the ISA property tests (one copy, here).
#[inline]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The splitmix64 sequence as a stream: `SplitMix64(seed)` yields
/// `splitmix64(seed)`, `splitmix64(seed + γ)`, … — the standard
/// generator, shared by the workload RNG key expansion and the ISA
/// property tests.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value in the stream. Deliberately not `Iterator`: the
    /// stream is infinite and callers want `u64`, not `Option<u64>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let v = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        v
    }
}

/// The 128-bit product of `a` and `b`, its halves XORed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// One mixing step: folds the words `a` and `b` into `state`. The state
/// enters both factors, so no fixed input word zeroes the product, and
/// it is XORed into the output, so no input word can wipe it.
#[inline]
fn mix(state: u64, a: u64, b: u64) -> u64 {
    folded_multiply(a ^ state ^ K0, b ^ state ^ K1) ^ state
}

/// The little-endian word in `bytes[..8]`.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// A streaming deterministic 64-bit hasher: a word-at-a-time folded
/// multiply with a splitmix64 finalizer. Not cryptographic; see the
/// module docs for why that is acceptable here.
///
/// Every call is one field. [`Fingerprint::write`] folds in its slice's
/// length, so `write(b"ab")` then `write(b"c")` differs from
/// `write(b"a")` then `write(b"bc")`, and `write` is not chunk-invariant:
/// hashing a text in two writes gives another value than in one. No
/// caller needs chunk invariance. Fields carry no type tag (`write(b"abc")`
/// equals `write_u64(3)` then `write_u64(0x63_6261)`), so every caller
/// hashes a fixed sequence of fields, length-prefixing any variable part.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// Starts a fresh hash.
    #[must_use]
    pub fn new() -> Fingerprint {
        Fingerprint { state: SEED }
    }

    /// Folds one byte-slice field into the hash: its length, then each
    /// 16-byte block as two little-endian words, then the zero-padded
    /// tail.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        let mut state = mix(self.state, bytes.len() as u64, 0);
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            state = mix(state, le_word(&block[..8]), le_word(&block[8..]));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 16];
            padded[..tail.len()].copy_from_slice(tail);
            state = mix(state, le_word(&padded[..8]), le_word(&padded[8..]));
        }
        self.state = state;
        self
    }

    /// Folds a string field (its UTF-8 bytes, length included, so
    /// `("ab","c")` and `("a","bc")` hash differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes())
    }

    /// Folds a `u64` in one mixing step.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.state = mix(self.state, v, 0);
        self
    }

    /// Folds a `usize` as `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// The finalized hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// One-shot 64-bit FNV-1a of a byte slice, with the splitmix64
/// finalizer. Not [`Fingerprint`]: no store key or checksum uses it. It
/// is kept byte for byte because bench_e2e's stored output digests were
/// recorded with it.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    splitmix64(state)
}

/// [`hash_bytes`] of a string's UTF-8 bytes; an output digest, like it.
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(bytes: &[u8]) -> u64 {
        Fingerprint::new().write(bytes).finish()
    }

    /// A deterministic, non-repeating byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        let mut rng = SplitMix64(0x5eed);
        (0..len).map(|_| rng.next() as u8).collect()
    }

    #[test]
    fn hashing_is_stable_across_calls() {
        assert_eq!(hash_bytes(b"manta"), hash_bytes(b"manta"));
        assert_ne!(hash_bytes(b"manta"), hash_bytes(b"Manta"));
        // Pinned value: bench_e2e's stored digests depend on this function
        // never changing.
        assert_eq!(hash_bytes(b""), splitmix64(FNV_OFFSET));
    }

    #[test]
    fn fingerprint_outputs_are_pinned() {
        // Pinned values: every store key and entry checksum is this
        // function, so a change must come with a FORMAT_VERSION and
        // SOURCE_VERSION bump.
        let pinned: [(usize, u64); 11] = [
            (0, 0x7a25_8c54_7696_8ff0),
            (1, 0x1cee_7b1e_b503_0106),
            (7, 0xeb8c_6a63_677b_fe95),
            (8, 0x2d11_67f1_1a1c_828f),
            (15, 0xdf91_ced8_2efc_89f7),
            (16, 0x1718_5c5b_821c_4d7a),
            (17, 0x83a0_d5dd_60d8_09b1),
            (31, 0x914a_9d75_6c5a_96b4),
            (32, 0x2ab8_9e53_e104_44be),
            (33, 0xff7e_8e6d_37d6_057a),
            (1000, 0x4995_1c09_c0ce_1c5b),
        ];
        for (len, want) in pinned {
            assert_eq!(fingerprint(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let mut buf = pattern(4096);
        let base = fingerprint(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fingerprint(&buf), base, "bit {bit}");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn short_inputs_hash_to_distinct_values() {
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(fingerprint(b"")));
        for a in 0..=255u8 {
            assert!(seen.insert(fingerprint(&[a])), "[{a}]");
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert!(seen.insert(fingerprint(&[a, b])), "[{a}, {b}]");
            }
        }
    }

    #[test]
    fn word_sequences_differing_in_one_word_differ() {
        let words: Vec<u64> = {
            let mut rng = SplitMix64(7);
            (0..64).map(|_| rng.next()).collect()
        };
        let hash = |ws: &[u64]| {
            let mut h = Fingerprint::new();
            for &w in ws {
                h.write_u64(w);
            }
            h.finish()
        };
        let base = hash(&words);
        for i in 0..words.len() {
            for delta in [1, 1 << 63, words[i], !0] {
                let mut changed = words.clone();
                changed[i] ^= delta;
                assert_ne!(hash(&changed), base, "word {i} ^ {delta:#x}");
            }
        }
        // A zero word still counts: appending one changes the hash.
        let mut longer = words.clone();
        longer.push(0);
        assert_ne!(hash(&longer), base);
    }

    #[test]
    fn string_boundaries_matter() {
        let mut a = Fingerprint::new();
        a.write_str("ab").write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn padding_and_empty_fields_count() {
        // Zero padding cannot alias a shorter input.
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abc\0"));
        assert_ne!(fingerprint(&[0; 16]), fingerprint(&[0; 32]));
        // An empty field is still a field.
        let mut c = Fingerprint::new();
        c.write(b"");
        assert_ne!(c.finish(), Fingerprint::new().finish());
    }

    #[test]
    fn splitmix_scrambles() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
