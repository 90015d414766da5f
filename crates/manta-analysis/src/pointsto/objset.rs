//! The delta solver's per-node storage: object sets, short lists that
//! stay inline, and the pending deltas of every node in one shared pool.

/// A list that keeps up to `N` elements inline and moves to the heap
/// past that. Most of the solver's per-node lists (copy successors and
/// sets) hold one or two elements, so a solve allocates for the few
/// that grow, not for every node.
#[derive(Clone, Debug)]
pub(crate) enum InlineVec<T: Copy + Default, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heap vector, moving the inline elements there first.
    fn spill(&mut self) -> &mut Vec<T> {
        if let InlineVec::Inline { len, buf } = self {
            let mut v = Vec::with_capacity(2 * N);
            v.extend_from_slice(&buf[..*len as usize]);
            *self = InlineVec::Heap(v);
        }
        match self {
            InlineVec::Heap(v) => v,
            InlineVec::Inline { .. } => unreachable!("spilled above"),
        }
    }

    fn insert(&mut self, at: usize, x: T) {
        match self {
            InlineVec::Inline { len, buf } if (*len as usize) < N => {
                let n = *len as usize;
                buf.copy_within(at..n, at + 1);
                buf[at] = x;
                *len += 1;
            }
            _ => self.spill().insert(at, x),
        }
    }
}

impl<T: Copy + Default + Ord, const N: usize> InlineVec<T, N> {
    /// Inserts `x` into this ascending list unless present; true when
    /// newly added.
    pub(crate) fn insert_sorted(&mut self, x: T) -> bool {
        match self.as_slice().binary_search(&x) {
            Ok(_) => false,
            Err(at) => {
                self.insert(at, x);
                true
            }
        }
    }
}

/// Elements an [`ObjSet`] holds without a heap allocation.
const INLINE: usize = 4;

/// An object set: an ascending list while small (inline up to
/// [`INLINE`] elements), switching to a bitset once it crosses
/// [`ObjSet::SPILL`] elements. Iteration is ascending in both
/// representations, so the exported slices are sorted.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjSet {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Sorted(InlineVec<u32, INLINE>),
    Bits { words: Vec<u64>, len: usize },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Sorted(InlineVec::default())
    }
}

impl ObjSet {
    /// Elements at which a sorted list spills into a bitset.
    pub(crate) const SPILL: usize = 128;

    pub(crate) fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(v) => v.len(),
            Repr::Bits { len, .. } => *len,
        }
    }

    pub(crate) fn contains(&self, x: u32) -> bool {
        match &self.repr {
            Repr::Sorted(v) => v.as_slice().binary_search(&x).is_ok(),
            Repr::Bits { words, .. } => {
                let (w, b) = ((x / 64) as usize, x % 64);
                words.get(w).is_some_and(|word| word & (1 << b) != 0)
            }
        }
    }

    /// Inserts `x`; true when newly added. Spills to bitset when large.
    pub(crate) fn insert(&mut self, x: u32) -> bool {
        match &mut self.repr {
            Repr::Sorted(v) => {
                let newly = v.insert_sorted(x);
                if v.len() > Self::SPILL {
                    self.spill();
                }
                newly
            }
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
            let v = v.as_slice();
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
            Repr::Sorted(v) => ObjSetIter::Sorted(v.as_slice().iter()),
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

/// End of a cell chain.
const NIL: u32 = u32::MAX;

/// Every node's pending delta (the objects added since its last visit)
/// as a chain of cells in one shared pool. A visit drains its node's
/// chain onto the free list, so the pool grows to the most objects ever
/// pending at once rather than allocating a buffer per node or visit.
/// A chain holds the delta in no particular order, with duplicates only
/// where a merge re-adds; the visit sorts and deduplicates.
#[derive(Debug)]
pub(crate) struct Deltas {
    head: Vec<u32>,
    /// `(object, next cell)`.
    cells: Vec<(u32, u32)>,
    free: u32,
}

impl Deltas {
    pub(crate) fn new() -> Deltas {
        Deltas {
            head: Vec::new(),
            cells: Vec::new(),
            free: NIL,
        }
    }

    pub(crate) fn grow_to(&mut self, nodes: usize) {
        self.head.resize(nodes, NIL);
    }

    pub(crate) fn is_empty(&self, n: u32) -> bool {
        self.head[n as usize] == NIL
    }

    pub(crate) fn push(&mut self, n: u32, o: u32) {
        let next = self.head[n as usize];
        let cell = if self.free == NIL {
            self.cells.push((o, next));
            (self.cells.len() - 1) as u32
        } else {
            let c = self.free;
            self.free = self.cells[c as usize].1;
            self.cells[c as usize] = (o, next);
            c
        };
        self.head[n as usize] = cell;
    }

    /// Appends `n`'s pending objects to `out` and empties its chain.
    pub(crate) fn drain_into(&mut self, n: u32, out: &mut Vec<u32>) {
        let mut c = std::mem::replace(&mut self.head[n as usize], NIL);
        while c != NIL {
            let (o, next) = self.cells[c as usize];
            out.push(o);
            self.cells[c as usize].1 = self.free;
            self.free = c;
            c = next;
        }
    }

    /// Moves `from`'s pending objects onto `to`'s chain.
    pub(crate) fn move_all(&mut self, from: u32, to: u32) {
        let mut c = std::mem::replace(&mut self.head[from as usize], NIL);
        while c != NIL {
            let next = self.cells[c as usize].1;
            self.cells[c as usize].1 = self.head[to as usize];
            self.head[to as usize] = c;
            c = next;
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
            let got: Vec<u32> = set.iter().collect();
            let want: Vec<u32> = expect.iter().copied().collect();
            assert_eq!(
                got, want,
                "ascending across the inline, heap and bitset forms"
            );
        }
        assert_eq!(set.len(), expect.len());
        assert!(matches!(set.repr, Repr::Bits { .. }), "must have spilled");
        for x in 0..1100 {
            assert_eq!(set.contains(x), expect.contains(&x));
        }
        let mut other = ObjSet::default();
        other.insert(items[0]);
        let mut diff = Vec::new();
        set.diff_into(&other, &mut diff);
        assert_eq!(diff.len(), set.len() - 1);
    }

    #[test]
    fn inline_vec_spills_and_keeps_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::default();
        assert!(v.is_empty());
        for x in [5, 1, 9, 3, 1] {
            v.insert_sorted(x);
        }
        assert_eq!(v.as_slice(), &[1, 3, 5, 9]);
        assert!(matches!(v, InlineVec::Heap(_)));
    }

    #[test]
    fn deltas_drain_move_and_reuse_cells() {
        let mut d = Deltas::new();
        d.grow_to(3);
        for o in [4, 2, 4] {
            d.push(0, o);
        }
        d.push(1, 8);
        d.move_all(1, 0);
        assert!(d.is_empty(1));
        let mut out = Vec::new();
        d.drain_into(0, &mut out);
        out.sort_unstable();
        assert_eq!(out, [2, 4, 4, 8]);
        assert!(d.is_empty(0));
        let cells = d.cells.len();
        for o in 0..4 {
            d.push(2, o);
        }
        assert_eq!(d.cells.len(), cells, "drained cells are reused");
        out.clear();
        d.drain_into(2, &mut out);
        out.sort_unstable();
        assert_eq!(out, [0, 1, 2, 3]);
    }
}
