//! Union-find with per-class type intervals, the engine of the
//! flow-insensitive unification stage.

use crate::interval::TypeInterval;
use manta_ir::Type;

/// Disjoint sets over dense indices `0..n`, each class carrying a
/// [`TypeInterval`] merged on union.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    interval: Vec<TypeInterval>,
}

impl UnionFind {
    /// `n` singleton classes, all unknown.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            interval: vec![TypeInterval::unknown(); n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The class representative of `x`, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Unions the classes of `a` and `b`, merging their intervals
    /// (`UnifyVarType`). Returns `true` if the classes were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        static OPS: manta_telemetry::Counter = manta_telemetry::Counter::new("unify.ops");
        OPS.incr();
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (keep, drop) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        if self.rank[keep] == self.rank[drop] {
            self.rank[keep] += 1;
        }
        self.parent[drop] = keep as u32;
        let dropped = std::mem::take(&mut self.interval[drop]);
        self.interval[keep].merge(&dropped);
        true
    }

    /// Absorbs a type hint into `x`'s class (rule ④).
    pub fn absorb(&mut self, x: usize, t: &Type) {
        let r = self.find(x);
        self.interval[r].absorb(t);
    }

    /// Moves the interval of `x`'s class out, leaving the class unknown.
    pub fn take_interval(&mut self, x: usize) -> TypeInterval {
        let r = self.find(x);
        std::mem::take(&mut self.interval[r])
    }

    /// The interval of `x`'s class.
    pub fn interval(&mut self, x: usize) -> &TypeInterval {
        let r = self.find(x);
        &self.interval[r]
    }

    /// Whether `a` and `b` are in the same class.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Resolution;
    use manta_ir::Width;

    #[test]
    fn union_merges_intervals() {
        let mut uf = UnionFind::new(4);
        uf.absorb(0, &Type::Int(Width::W64));
        uf.absorb(1, &Type::byte_ptr());
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert_eq!(uf.interval(0).resolution(), Resolution::Over);
        assert_eq!(uf.interval(1).resolution(), Resolution::Over);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
    }

    #[test]
    fn absorb_after_union_is_shared() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 2);
        uf.absorb(2, &Type::Float);
        assert_eq!(
            uf.interval(0).resolution(),
            Resolution::Precise(Type::Float)
        );
        assert_eq!(uf.interval(1).resolution(), Resolution::Unknown);
    }

    #[test]
    fn transitive_unions() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(uf.same(0, 2));
        assert!(!uf.same(2, 3));
        uf.union(2, 3);
        assert!(uf.same(0, 4));
    }

    #[test]
    fn unknown_class_merge_keeps_information() {
        let mut uf = UnionFind::new(2);
        uf.absorb(0, &Type::Int(Width::W32));
        uf.union(0, 1); // 1 is unknown: must not widen 0
        assert_eq!(
            uf.interval(0).resolution(),
            Resolution::Precise(Type::Int(Width::W32))
        );
    }
}
