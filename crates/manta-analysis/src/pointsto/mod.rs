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
//! sets are hybrid sorted-list/bitset `ObjSet`s that hold up to four
//! objects inline, and each node carries a *delta* — the objects added
//! since the node was last visited — so the copy/load/store/gep rules only
//! ever process new objects. Deltas are chains in one shared cell pool,
//! load/store/gep rules sit in tables fixed at setup, and short successor
//! lists stay inline, so the fixpoint allocates for the few nodes whose
//! lists grow, not per visit. Copy edges are deduplicated
//! at insertion, and copy-SCCs are collapsed online into a union-find
//! representative so cyclic copy chains cannot ping-pong.
//!
//! ## The result
//!
//! [`PointsTo`] keeps the solver's numbering: each node's ascending set
//! is a span of one arena, found by index, and the members of a collapsed
//! copy-SCC share their representative's span. Each object lists its
//! materialized fields in id order. Ids outside the module read empty.
//!
//! The historical whole-set fixpoint solver is kept behind
//! `#[cfg(any(test, feature = "reference-solver"))]` as
//! [`PointsTo::solve_reference`] for differential testing: both solvers
//! consume the same `Constraints` and must agree on every points-to
//! relation (object *numbering* of field objects may differ — fields
//! materialize in solver-visit order — so comparisons go through
//! [`ObjectKind`] chains, not raw ids).

use std::collections::HashMap;
use std::fmt;

use manta_ir::{FuncId, GlobalId, InstId};

use crate::callgraph::CallGraph;
use crate::preprocess::Preprocessed;
use crate::{Csr, VarRef};

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

/// Points-to results: the map `ℙ : 𝕍 ∪ 𝕆 → 2^𝕆` of Figure 5, as a table
/// on the solver's dense numbering. Function `f`'s values are nodes
/// `var_base[f]..var_base[f + 1]` (the DDG's numbering) and object `o`
/// is node `nv + o`, where `nv` is `var_base`'s last entry. Each node's
/// set is an ascending span of one arena.
#[derive(Debug)]
pub struct PointsTo {
    objects: Vec<ObjectKind>,
    var_base: Vec<u32>,
    /// Each node's `(start, end)` span of `arena`. The members of a
    /// collapsed copy-SCC share their representative's span.
    spans: Vec<(u32, u32)>,
    arena: Vec<ObjectId>,
    /// Each object's materialized fields, as `(offset, field)` in id
    /// order.
    fields: Csr<(u64, ObjectId)>,
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

/// Each function's first dense node in module order, then one past the
/// last variable node: the DDG's numbering with a closing sentinel.
pub(crate) fn var_bases(module: &manta_ir::Module) -> Vec<u32> {
    let mut bases = Vec::with_capacity(module.function_count() + 1);
    let mut next = 0u32;
    for f in module.functions() {
        bases.push(next);
        next += f.value_count() as u32;
    }
    bases.push(next);
    bases
}

/// `v`'s dense node, if `v` is a value of the module `var_base` numbers:
/// the index is checked against the next function's base, so a value id
/// past its function's count names no neighbour's node.
pub(crate) fn var_index(var_base: &[u32], v: VarRef) -> Option<u32> {
    let f = v.func.index();
    let (&base, &next) = (var_base.get(f)?, var_base.get(f.checked_add(1)?)?);
    (v.value.0 < next - base).then(|| base + v.value.0)
}

/// Lays a solved relation out as a [`PointsTo`]: both solvers export
/// through it.
struct Table {
    var_base: Vec<u32>,
    spans: Vec<(u32, u32)>,
    arena: Vec<ObjectId>,
    peak: usize,
}

impl Table {
    /// An empty table over `nodes` dense nodes on `var_base`'s numbering,
    /// with room for `len` objects over all stored sets.
    fn new(var_base: Vec<u32>, nodes: usize, len: usize) -> Table {
        Table {
            var_base,
            spans: vec![(0, 0); nodes],
            arena: Vec::with_capacity(len),
            peak: 0,
        }
    }

    /// Stores node `n`'s set, given in ascending order.
    fn set(&mut self, n: u32, objs: impl Iterator<Item = ObjectId>) {
        let start = self.arena.len();
        self.arena.extend(objs);
        self.peak = self.peak.max(self.arena.len() - start);
        self.spans[n as usize] = (start as u32, self.arena.len() as u32);
    }

    /// Makes node `n` share node `rep`'s stored set.
    fn share(&mut self, n: u32, rep: u32) {
        self.spans[n as usize] = self.spans[rep as usize];
    }

    /// The result over `objects`, with each object's fields listed under
    /// it. Its counters other than `peak_pts` read zero.
    fn finish(self, objects: Vec<ObjectKind>) -> PointsTo {
        // Fields by parent in id order: the object table's ids ascend.
        let fields = Csr::new(
            objects.len(),
            objects
                .iter()
                .enumerate()
                .filter_map(|(i, kind)| match *kind {
                    ObjectKind::Field { parent, offset } => {
                        Some((parent.index(), (offset, ObjectId(i as u32))))
                    }
                    _ => None,
                }),
        );
        PointsTo {
            objects,
            var_base: self.var_base,
            spans: self.spans,
            arena: self.arena,
            fields,
            iterations: 0,
            constraint_nodes: 0,
            constraint_edges: 0,
            scc_merges: 0,
            peak_pts: self.peak,
        }
    }
}

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

    /// Points-to set of variable `v`, ascending. A `v` outside the
    /// module (a function id past it, or a value id past its function's
    /// count) reads empty.
    pub fn pts_var(&self, v: VarRef) -> &[ObjectId] {
        var_index(&self.var_base, v).map_or(&[], |n| self.set(n as usize))
    }

    /// Points-to set of the contents of object `o`, ascending. An `o`
    /// past the object table reads empty.
    pub fn pts_obj(&self, o: ObjectId) -> &[ObjectId] {
        if o.index() < self.objects.len() {
            self.set(self.nv() + o.index())
        } else {
            &[]
        }
    }

    /// The number of variable nodes, where object nodes begin.
    fn nv(&self) -> usize {
        self.var_base.last().copied().unwrap_or(0) as usize
    }

    fn set(&self, node: usize) -> &[ObjectId] {
        let (start, end) = self.spans[node];
        &self.arena[start as usize..end as usize]
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
        self.peak_pts
    }

    /// The fields materialized under `parent`, as `(offset, field)` in
    /// field id order. A `parent` past the object table reads empty.
    pub fn fields(&self, parent: ObjectId) -> &[(u64, ObjectId)] {
        self.fields.get(parent.index())
    }

    /// The field object `(parent, offset)` if it was materialized.
    pub fn field_of(&self, parent: ObjectId, offset: u64) -> Option<ObjectId> {
        self.fields(parent)
            .iter()
            .find(|&&(off, _)| off == offset)
            .map(|&(_, f)| f)
    }

    /// Whether two variables may point to a common object.
    pub fn may_alias(&self, a: VarRef, b: VarRef) -> bool {
        let (pa, pb) = (self.pts_var(a), self.pts_var(b));
        let (small, large) = if pa.len() <= pb.len() {
            (pa, pb)
        } else {
            (pb, pa)
        };
        small.iter().any(|o| large.binary_search(o).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use manta_ir::{BinOp, ModuleBuilder, ValueId, Width};

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
        let heap = pts.pts_var(VarRef::new(fid, p)).to_vec();
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
        // A copy chain a → b → c → p plus a seed in s, and a true copy
        // cycle: `id(x) { return x; }` called as t = id(s); u = id(t)
        // binds x → t → x context-insensitively.
        let mut mb = ModuleBuilder::new("m");
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (fid, mut fb) = mb.function("f", &[], None);
        let s = fb.alloca(8);
        let a = fb.copy(s);
        let b = fb.copy(a);
        let c = fb.copy(b);
        let bb = fb.current_block();
        let p = fb.phi(&[(bb, a), (bb, c)], Width::W64);
        let t = fb.call(id_f, &[s], Some(Width::W64)).unwrap();
        let u = fb.call(id_f, &[t], Some(Width::W64)).unwrap();
        fb.ret(None);
        mb.finish_function(fb);
        let (pre, pts) = analyze(mb.finish());
        let id_f = pre.module.function_by_name("id").unwrap().id();
        let xp = VarRef::new(id_f, pre.module.function(id_f).params()[0]);
        let seed = pts.pts_var(VarRef::new(fid, s));
        assert_eq!(seed.len(), 1);
        for v in [a, b, c, p, t, u] {
            assert_eq!(
                pts.pts_var(VarRef::new(fid, v)),
                seed,
                "chain and cycle members must carry the seed"
            );
        }
        assert_eq!(pts.scc_merges, 1, "x and t collapse");
        // The cycle's members share one stored set.
        assert!(std::ptr::eq(
            pts.pts_var(xp),
            pts.pts_var(VarRef::new(fid, t))
        ));
    }

    #[test]
    fn ids_outside_the_module_read_empty() {
        // f's values precede g's in the dense numbering and g's precede
        // the objects', so an index unchecked against the next base
        // would read a neighbour's set.
        let mut mb = ModuleBuilder::new("m");
        let (f, mut fb) = mb.function("f", &[], None);
        let cell = fb.alloca(8);
        let target = fb.alloca(8);
        fb.store(cell, target);
        fb.ret(None);
        mb.finish_function(fb);
        let (g, mut gb) = mb.function("g", &[], None);
        let b = gb.alloca(8);
        gb.ret(None);
        mb.finish_function(gb);
        let (pre, pts) = analyze(mb.finish());
        let count = |fid: FuncId| pre.module.function(fid).value_count() as u32;
        assert_eq!(b, ValueId(0), "g's first value is its alloca");
        assert!(!pts.pts_var(VarRef::new(g, b)).is_empty());
        let first_obj = pts.pts_var(VarRef::new(f, cell))[0];
        assert!(!pts.pts_obj(first_obj).is_empty());
        assert_eq!(first_obj, ObjectId(0), "objects follow g's values");
        // A value id past its function's count.
        assert!(pts.pts_var(VarRef::new(f, ValueId(count(f)))).is_empty());
        assert!(pts.pts_var(VarRef::new(g, ValueId(count(g)))).is_empty());
        assert!(pts.pts_var(VarRef::new(g, ValueId(u32::MAX))).is_empty());
        // A function id past the module.
        assert!(pts.pts_var(VarRef::new(FuncId(2), ValueId(0))).is_empty());
        assert!(pts
            .pts_var(VarRef::new(FuncId(u32::MAX), ValueId(0)))
            .is_empty());
        // An object id past the object table.
        let past = ObjectId(pts.object_count() as u32);
        for o in [past, ObjectId(u32::MAX)] {
            assert!(pts.pts_obj(o).is_empty());
            assert!(pts.fields(o).is_empty());
            assert_eq!(pts.field_of(o, 0), None);
        }
    }

    #[test]
    fn fields_list_each_parents_fields_in_id_order() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], None);
        let s = fb.alloca(32);
        let f8 = fb.gep(s, 8);
        fb.gep(s, 0);
        fb.gep(f8, 4);
        fb.gep(s, 16);
        let t = fb.alloca(16);
        fb.gep(t, 8);
        fb.ret(None);
        mb.finish_function(fb);
        let (_, pts) = analyze(mb.finish());
        let mut listed = 0;
        for (o, _) in pts.objects() {
            let want: Vec<(u64, ObjectId)> = pts
                .objects()
                .filter_map(|(id, k)| match k {
                    ObjectKind::Field { parent, offset } if parent == o => Some((offset, id)),
                    _ => None,
                })
                .collect();
            assert_eq!(pts.fields(o), want.as_slice(), "fields of {o}");
            for &(offset, field) in &want {
                assert_eq!(pts.field_of(o, offset), Some(field));
            }
            assert_eq!(pts.field_of(o, 3), None);
            listed += want.len();
        }
        assert_eq!(listed, 5, "every field is listed under its parent");
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
