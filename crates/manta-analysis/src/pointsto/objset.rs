//! Hybrid sorted-vec / bitset object sets — the delta solver's points-to
//! set representation.

/// An object set: a sorted `Vec<u32>` while small, switching to a bitset
/// once it crosses [`ObjSet::SPILL`] elements. Iteration is ascending in
/// both representations, so exporting to `BTreeSet` is order-stable.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjSet {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Sorted(Vec<u32>),
    Bits { words: Vec<u64>, len: usize },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Sorted(Vec::new())
    }
}

impl ObjSet {
    /// Elements at which a sorted vec spills into a bitset.
    pub(crate) const SPILL: usize = 128;

    pub(crate) fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(v) => v.len(),
            Repr::Bits { len, .. } => *len,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn contains(&self, x: u32) -> bool {
        match &self.repr {
            Repr::Sorted(v) => v.binary_search(&x).is_ok(),
            Repr::Bits { words, .. } => {
                let (w, b) = ((x / 64) as usize, x % 64);
                words.get(w).is_some_and(|word| word & (1 << b) != 0)
            }
        }
    }

    /// Inserts `x`; true when newly added. Spills to bitset when large.
    pub(crate) fn insert(&mut self, x: u32) -> bool {
        match &mut self.repr {
            Repr::Sorted(v) => match v.binary_search(&x) {
                Ok(_) => false,
                Err(at) => {
                    v.insert(at, x);
                    if v.len() > Self::SPILL {
                        self.spill();
                    }
                    true
                }
            },
            Repr::Bits { words, len } => {
                let (w, b) = ((x / 64) as usize, x % 64);
                if words.len() <= w {
                    words.resize(w + 1, 0);
                }
                let newly = words[w] & (1 << b) == 0;
                if newly {
                    words[w] |= 1 << b;
                    *len += 1;
                }
                newly
            }
        }
    }

    fn spill(&mut self) {
        if let Repr::Sorted(v) = &self.repr {
            let max = v.last().copied().unwrap_or(0);
            let mut words = vec![0u64; max as usize / 64 + 1];
            for &x in v {
                words[(x / 64) as usize] |= 1 << (x % 64);
            }
            self.repr = Repr::Bits {
                words,
                len: v.len(),
            };
        }
    }

    /// Ascending iteration over elements.
    pub(crate) fn iter(&self) -> ObjSetIter<'_> {
        match &self.repr {
            Repr::Sorted(v) => ObjSetIter::Sorted(v.iter()),
            Repr::Bits { words, .. } => ObjSetIter::Bits {
                words,
                word: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Appends `self \ other` to `out` (ascending).
    pub(crate) fn diff_into(&self, other: &ObjSet, out: &mut Vec<u32>) {
        out.extend(self.iter().filter(|&x| !other.contains(x)));
    }
}

pub(crate) enum ObjSetIter<'a> {
    Sorted(std::slice::Iter<'a, u32>),
    Bits {
        words: &'a [u64],
        word: usize,
        cur: u64,
    },
}

impl Iterator for ObjSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            ObjSetIter::Sorted(it) => it.next().copied(),
            ObjSetIter::Bits { words, word, cur } => loop {
                if *cur != 0 {
                    let bit = cur.trailing_zeros();
                    *cur &= *cur - 1;
                    return Some(*word as u32 * 64 + bit);
                }
                *word += 1;
                if *word >= words.len() {
                    return None;
                }
                *cur = words[*word];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn objset_hybrid_representation_round_trips() {
        let mut set = ObjSet::default();
        // Insert enough to force the bitset spill, out of order.
        let items: Vec<u32> = (0..400).map(|i| (i * 37) % 1009).collect();
        let mut expect = BTreeSet::new();
        for &x in &items {
            assert_eq!(set.insert(x), expect.insert(x), "insert {x}");
        }
        assert_eq!(set.len(), expect.len());
        assert!(matches!(set.repr, Repr::Bits { .. }), "must have spilled");
        let got: Vec<u32> = set.iter().collect();
        let want: Vec<u32> = expect.iter().copied().collect();
        assert_eq!(got, want, "ascending iteration across the spill");
        for x in 0..1100 {
            assert_eq!(set.contains(x), expect.contains(&x));
        }
        let mut other = ObjSet::default();
        other.insert(items[0]);
        let mut diff = Vec::new();
        set.diff_into(&other, &mut diff);
        assert_eq!(diff.len(), set.len() - 1);
    }
}
