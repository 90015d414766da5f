//! A multiply-rotate hasher for the inference stages' integer keys (FS
//! alias answers by root set and DDG node, interned root sets by their
//! slice hash, FI's object pairs). The FS walks probe their alias memo
//! once per step, so the hash is on their hot path, and std's SipHash
//! buys protection against crafted collisions that these keys do not
//! need: they are ids the program assigns densely, not values read from
//! input.
//! Nothing iterates a map keyed this way, so the hash never reaches an
//! output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's word step: rotate, xor the next word in, multiply.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by small trusted ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of small trusted ids.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;
