//! Field-sensitive inclusion-based points-to analysis over the block memory
//! model (paper §3, "Points-to Analysis").
//!
//! Global and stack memory is partitioned into disjoint abstract objects;
//! heap objects use allocation-site abstraction; `gep` materializes *field*
//! objects beneath their parent (the block memory model). The analysis
//! reproduces the paper's well-identified unsound choices:
//!
//! * function pointers are **not** modeled (no objects flow through
//!   indirect calls);
//! * symbolic indexing (`ptr + variable`) collapses an array/object into a
//!   monolithic object — the result aliases the base;
//! * calls whose call-graph edge was broken (recursion) are opaque;
//! * unmodeled externals have no effect;
//! * parameters of a function are assumed not to alias each other.
//!
//! ## Solving
//!
//! The production solver (`DeltaSolver`) is a delta-propagation worklist
//! solver in the difference-propagation tradition: nodes live in a dense
//! `u32` arena (per-function variable bases, then object nodes), points-to
//! sets are hybrid sorted-vec/bitset `ObjSet`s with a `diff`/`union`
//! API, and each node carries a *delta* — the objects added since the node
//! was last visited — so the copy/load/store/gep rules only ever process
//! new objects. Copy edges are deduplicated at insertion, and copy-SCCs
//! are collapsed online into a union-find representative so cyclic copy
//! chains cannot ping-pong.
//!
//! The historical whole-set fixpoint solver is kept behind
//! `#[cfg(any(test, feature = "reference-solver"))]` as
//! [`PointsTo::solve_reference`] for differential testing: both solvers
//! consume the same `Constraints` and must agree on every points-to
//! relation (object *numbering* of field objects may differ — fields
//! materialize in solver-visit order — so comparisons go through
//! [`ObjectKind`] chains, not raw ids).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use manta_ir::{FuncId, GlobalId, InstId};

use crate::callgraph::CallGraph;
use crate::preprocess::Preprocessed;
use crate::VarRef;

mod constraints;
mod objset;
mod solver;

use solver::DeltaSolver;

/// Identifies an abstract memory object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// What an abstract object abstracts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ObjectKind {
    /// A stack slot (`alloca` site).
    Stack {
        /// Function containing the slot.
        func: FuncId,
        /// The `alloca` instruction.
        site: InstId,
        /// Slot size in bytes.
        size: u64,
    },
    /// A heap allocation site (`malloc`/`calloc` call).
    Heap {
        /// Function containing the allocation.
        func: FuncId,
        /// The call instruction.
        site: InstId,
    },
    /// A module global.
    Global(GlobalId),
    /// A field at a constant offset inside another object (block memory
    /// model).
    Field {
        /// The enclosing object.
        parent: ObjectId,
        /// Byte offset of the field.
        offset: u64,
    },
    /// A buffer returned by a modeled external (e.g. `nvram_get`).
    ExternBuf {
        /// Function containing the call.
        func: FuncId,
        /// The call instruction.
        site: InstId,
    },
}

/// Internal propagation-graph node: a variable or an object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum Node {
    Var(VarRef),
    Obj(ObjectId),
}

/// Per-visit delta cardinality: the work-shape of the delta solver (a
/// heavy tail means a few nodes re-propagate huge sets).
pub(crate) static DELTA_SIZES: manta_telemetry::Histogram =
    manta_telemetry::Histogram::new("pointsto.delta_size");
/// Largest points-to set cardinality seen at any fixpoint this run.
pub(crate) static PEAK_PTS: manta_telemetry::Counter =
    manta_telemetry::Counter::new("pointsto.peak_pts");

/// Why a points-to fact `n ∋ o` first appeared (first derivation wins —
/// later re-derivations of the same fact are not recorded).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PtsSource {
    /// An address-of seed (`alloca`, heap/extern allocation site,
    /// global address constant).
    Seed,
    /// Propagated along a copy edge from a variable.
    CopiedFromVar(VarRef),
    /// Propagated along a copy edge from an object's contents (the
    /// load/store rules materialize these edges).
    CopiedFromObj(ObjectId),
    /// A field object materialized by `gep` beneath this parent.
    FieldOf(ObjectId),
}

/// First-derivation provenance of the points-to relation, recorded by
/// [`PointsTo::derivations`]. Facts whose node was merged into a
/// copy-SCC representative are recorded under the representative's
/// variable/object.
#[derive(Clone, Debug, Default)]
pub struct PointsToProvenance {
    /// `(v, o)` → how `v ∋ o` was first derived.
    pub var_origins: HashMap<(VarRef, ObjectId), PtsSource>,
    /// `(container, o)` → how `container ∋ o` was first derived.
    pub obj_origins: HashMap<(ObjectId, ObjectId), PtsSource>,
}

/// Points-to results: the map `ℙ : 𝕍 ∪ 𝕆 → 2^𝕆` of Figure 5.
#[derive(Debug)]
pub struct PointsTo {
    pub(crate) objects: Vec<ObjectKind>,
    pub(crate) field_intern: HashMap<(ObjectId, u64), ObjectId>,
    pub(crate) pts: HashMap<Node, BTreeSet<ObjectId>>,
    /// Number of solver worklist visits (reported by scalability figures).
    pub iterations: usize,
    /// Dense propagation-graph node count at fixpoint (variables plus
    /// objects, including materialized fields). 0 for the reference
    /// solver, which has no dense arena.
    pub constraint_nodes: usize,
    /// Copy edges inserted over the whole solve (deduplicated at
    /// insertion; includes edges the load/store rules added online).
    pub constraint_edges: usize,
    /// Copy-SCC collapse merges performed by the delta solver.
    pub scc_merges: usize,
    /// Largest points-to set cardinality at fixpoint.
    pub peak_pts: usize,
}

static EMPTY: BTreeSet<ObjectId> = BTreeSet::new();

impl PointsTo {
    /// Solves points-to constraints for the preprocessed module with the
    /// delta-propagation solver.
    pub fn solve(pre: &Preprocessed, _cg: &CallGraph) -> PointsTo {
        let unlimited = manta_resilience::Budget::unlimited();
        match DeltaSolver::new(pre).run(&unlimited) {
            Ok(p) => p,
            // A fresh unlimited budget never trips.
            Err(_) => unreachable!("unlimited budget tripped"),
        }
    }

    /// Solves points-to constraints under a cooperative budget. Fuel is
    /// charged per worklist visit and per delta element propagated, so
    /// runaway fixpoints are cut off mid-flight.
    ///
    /// # Errors
    ///
    /// Returns [`manta_resilience::BudgetExceeded`] when `budget` trips;
    /// partial solver state is discarded (points-to results are only
    /// meaningful at fixpoint).
    pub fn solve_budgeted(
        pre: &Preprocessed,
        _cg: &CallGraph,
        budget: &manta_resilience::Budget,
    ) -> Result<PointsTo, manta_resilience::BudgetExceeded> {
        DeltaSolver::new(pre).run(budget)
    }

    /// Re-solves the preprocessed module's constraints, recording how
    /// each fact of the points-to map [`PointsTo::solve`] returns was
    /// first derived. It runs on an unlimited budget with no fault site,
    /// so it charges no caller's fuel; only provenance recording needs
    /// it.
    pub fn derivations(pre: &Preprocessed) -> PointsToProvenance {
        DeltaSolver::new(pre).derivations()
    }

    /// Solves with the historical whole-set fixpoint solver. Kept only as
    /// the differential-testing oracle for the delta solver.
    #[cfg(any(test, feature = "reference-solver"))]
    pub fn solve_reference(pre: &Preprocessed, _cg: &CallGraph) -> PointsTo {
        let unlimited = manta_resilience::Budget::unlimited();
        match solver::reference::Solver::new(pre).run(&unlimited) {
            Ok(p) => p,
            // A fresh unlimited budget never trips.
            Err(_) => unreachable!("unlimited budget tripped"),
        }
    }

    /// Points-to set of variable `v`.
    pub fn pts_var(&self, v: VarRef) -> &BTreeSet<ObjectId> {
        self.pts.get(&Node::Var(v)).unwrap_or(&EMPTY)
    }

    /// Points-to set of the contents of object `o`.
    pub fn pts_obj(&self, o: ObjectId) -> &BTreeSet<ObjectId> {
        self.pts.get(&Node::Obj(o)).unwrap_or(&EMPTY)
    }

    /// The kind of object `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not an object of this analysis.
    pub fn object_kind(&self, o: ObjectId) -> ObjectKind {
        self.objects[o.index()]
    }

    /// Iterates over all objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, ObjectKind)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, &k)| (ObjectId(i as u32), k))
    }

    /// Number of abstract objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The largest points-to set cardinality over all variables and
    /// objects (the "peak" reported by the benchmark harness).
    pub fn max_pts_len(&self) -> usize {
        self.pts.values().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// The field object `(parent, offset)` if it was materialized.
    pub fn field_of(&self, parent: ObjectId, offset: u64) -> Option<ObjectId> {
        self.field_intern.get(&(parent, offset)).copied()
    }

    /// Whether two variables may point to a common object.
    pub fn may_alias(&self, a: VarRef, b: VarRef) -> bool {
        let (pa, pb) = (self.pts_var(a), self.pts_var(b));
        if pa.len() <= pb.len() {
            pa.iter().any(|o| pb.contains(o))
        } else {
            pb.iter().any(|o| pa.contains(o))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use manta_ir::{BinOp, ModuleBuilder, Width};

    fn analyze(m: manta_ir::Module) -> (Preprocessed, PointsTo) {
        let pre = preprocess(m, PreprocessConfig::default());
        let cg = CallGraph::build(&pre);
        let pts = PointsTo::solve(&pre, &cg);
        (pre, pts)
    }

    #[test]
    fn alloca_and_copy() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[], None);
        let a = fb.alloca(8);
        let b = fb.copy(a);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        let va = VarRef::new(fid, a);
        let vb = VarRef::new(fid, b);
        assert_eq!(pts.pts_var(va).len(), 1);
        assert_eq!(pts.pts_var(va), pts.pts_var(vb));
        assert!(pts.may_alias(va, vb));
    }

    #[test]
    fn store_load_through_object() {
        // q = alloca; *q = p(heap); r = *q  ⇒  r points to the heap object.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[], None);
        let sz = fb.const_int(16, Width::W64);
        let p = fb.call_extern(malloc, &[sz], Some(Width::W64)).unwrap();
        let q = fb.alloca(8);
        fb.store(q, p);
        let r = fb.load(q, Width::W64);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        let heap: Vec<_> = pts.pts_var(VarRef::new(fid, p)).iter().copied().collect();
        assert_eq!(heap.len(), 1);
        assert!(matches!(pts.object_kind(heap[0]), ObjectKind::Heap { .. }));
        assert_eq!(
            pts.pts_var(VarRef::new(fid, r)),
            pts.pts_var(VarRef::new(fid, p))
        );
    }

    #[test]
    fn gep_materializes_fields() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[], None);
        let s = fb.alloca(16);
        let f0 = fb.gep(s, 0);
        let f8 = fb.gep(s, 8);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        let base = *pts.pts_var(VarRef::new(fid, s)).iter().next().unwrap();
        let o0 = *pts.pts_var(VarRef::new(fid, f0)).iter().next().unwrap();
        let o8 = *pts.pts_var(VarRef::new(fid, f8)).iter().next().unwrap();
        assert_ne!(o0, o8, "distinct offsets are distinct field objects");
        assert_eq!(pts.field_of(base, 0), Some(o0));
        assert_eq!(pts.field_of(base, 8), Some(o8));
        assert!(!pts.may_alias(VarRef::new(fid, f0), VarRef::new(fid, f8)));
    }

    #[test]
    fn symbolic_indexing_collapses() {
        // r = base + i  ⇒  r aliases base (monolithic collapse).
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], None);
        let i = fb.param(0);
        let base = fb.alloca(64);
        let r = fb.binop(BinOp::Add, base, i, Width::W64);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        assert!(pts.may_alias(VarRef::new(fid, base), VarRef::new(fid, r)));
    }

    #[test]
    fn interprocedural_param_and_return_binding() {
        // id(x) { return x; }  caller: y = id(stack_addr)
        let mut mb = ModuleBuilder::new("m");
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (caller, mut cb) = mb.function("caller", &[], None);
        let s = cb.alloca(8);
        let y = cb.call(id_f, &[s], Some(Width::W64)).unwrap();
        cb.ret(None);
        mb.finish_function(cb);
        let (pre, pts) = analyze(mb.finish());
        let id_f = pre.module.function_by_name("id").unwrap().id();
        let xp = pre.module.function(id_f).params()[0];
        assert_eq!(pts.pts_var(VarRef::new(id_f, xp)).len(), 1);
        assert_eq!(
            pts.pts_var(VarRef::new(caller, y)),
            pts.pts_var(VarRef::new(caller, s))
        );
    }

    #[test]
    fn globals_are_objects() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("cfg", 32);
        let (fid, mut fb) = mb.function("f", &[], None);
        let ga = fb.global_addr(g);
        let v = fb.load(ga, Width::W64);
        let _ = v;
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        let set = pts.pts_var(VarRef::new(fid, ga));
        assert_eq!(set.len(), 1);
        assert!(matches!(
            pts.object_kind(*set.iter().next().unwrap()),
            ObjectKind::Global(_)
        ));
    }

    #[test]
    fn indirect_calls_are_opaque() {
        let mut mb = ModuleBuilder::new("m");
        let (target, mut tb) = mb.function("target", &[Width::W64], None);
        tb.ret(None);
        mb.finish_function(tb);
        mb.mark_address_taken(target);
        let (fid, mut fb) = mb.function("f", &[], None);
        let fp = fb.func_addr(target);
        let s = fb.alloca(8);
        fb.call_indirect(fp, &[s], None);
        fb.ret(None);
        mb.finish_function(fb);
        let (pre, pts) = analyze(mb.finish());
        let target = pre.module.function_by_name("target").unwrap().id();
        let p = pre.module.function(target).params()[0];
        // Function pointers unmodeled ⇒ nothing flows into the target param.
        assert!(pts.pts_var(VarRef::new(target, p)).is_empty());
        let _ = fid;
    }

    #[test]
    fn copy_cycles_equalize_and_collapse() {
        // a → b → c → a plus a seed in a: everyone sees the seed, and
        // fields derived from any member match.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[], None);
        let s = fb.alloca(8);
        let a = fb.copy(s);
        let b = fb.copy(a);
        let c = fb.copy(b);
        // Close the cycle with a phi so `a` also depends on `c`.
        // (copy-only cycles need a phi or call to appear in SSA.)
        let bb = fb.current_block();
        let p = fb.phi(&[(bb, a), (bb, c)], Width::W64);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        for v in [a, b, c, p] {
            assert_eq!(
                pts.pts_var(VarRef::new(fid, v)),
                pts.pts_var(VarRef::new(fid, s)),
                "cycle member must carry the seed"
            );
        }
    }

    #[test]
    fn duplicate_copy_constraints_are_deduplicated() {
        // Two identical copy chains must not duplicate propagation: the
        // phi re-states `s → d` twice.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[], None);
        let s = fb.alloca(8);
        let bb = fb.current_block();
        let d = fb.phi(&[(bb, s), (bb, s)], Width::W64);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        assert_eq!(
            pts.pts_var(VarRef::new(fid, d)),
            pts.pts_var(VarRef::new(fid, s))
        );
    }

    #[test]
    fn zero_fuel_budget_trips_solver() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], None);
        fb.ret(None);
        mb.finish_function(fb);
        let pre = preprocess(mb.finish(), PreprocessConfig::default());
        let cg = CallGraph::build(&pre);
        let b = manta_resilience::Budget::with_fuel(0);
        assert!(PointsTo::solve_budgeted(&pre, &cg, &b).is_err());
    }
}
