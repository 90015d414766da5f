//! Deterministic, platform-independent hashing.
//!
//! Everything keyed on disk must hash identically across runs, platforms
//! and Rust versions, so `std::hash` (randomized, unspecified) is out.
//! The store uses 64-bit FNV-1a with a splitmix64 finalizer: simple,
//! dependency-free and stable by construction.
//!
//! Content addressing assumes that distinct inputs never share a 64-bit
//! key. An entry's checksum catches a damaged payload, not two inputs
//! that hash alike: if two canonical module texts (the `infer` key) or
//! two request texts (the `src` alias key) collided under one config
//! hash, the second would be served the first one's result. At 64 bits
//! that takes on the order of 2³² distinct inputs per config before it
//! becomes likely; nothing here detects it. The hash is not
//! cryptographic, so the assumption holds for honest inputs, not for
//! inputs crafted to collide.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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

/// A streaming deterministic 64-bit hasher (FNV-1a with a splitmix64
/// finalizer). Not cryptographic; see the module docs for why that is
/// acceptable here.
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
        Fingerprint { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string (length-prefixed, so `("ab","c")` and `("a","bc")`
    /// hash differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
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

/// One-shot hash of a byte slice.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    Fingerprint::new().write(bytes).finish()
}

/// One-shot hash of a string (equivalent to hashing its bytes).
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Order-dependent combination of two hashes (`combine(a, b) !=
/// combine(b, a)`), for folding component hashes into one key.
#[must_use]
pub fn combine(a: u64, b: u64) -> u64 {
    Fingerprint::new().write_u64(a).write_u64(b).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_across_calls() {
        assert_eq!(hash_bytes(b"manta"), hash_bytes(b"manta"));
        assert_ne!(hash_bytes(b"manta"), hash_bytes(b"Manta"));
        // Pinned value: the on-disk format depends on this function never
        // changing silently.
        assert_eq!(hash_bytes(b""), splitmix64(FNV_OFFSET));
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
    fn combine_is_order_dependent() {
        let (a, b) = (hash_str("x"), hash_str("y"));
        assert_ne!(combine(a, b), combine(b, a));
    }

    #[test]
    fn splitmix_scrambles() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
