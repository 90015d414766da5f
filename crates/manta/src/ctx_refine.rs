//! Stage 2: context-sensitive type refinement (paper §4.2.1, Algorithm 1).
//!
//! For each over-approximated variable `v`, a *backward* DDG traversal under
//! CFL-reachability finds the alias **roots** of `v` — the origins of the
//! value `v` carries in valid calling contexts. A *forward* CFL-valid
//! traversal from each root then collects only the type hints reachable in
//! matching contexts; the hint set replaces `v`'s interval (`F↑ = LUB`,
//! `F↓ = GLB`).
//!
//! Two ingredients give the precision gain over stage 1:
//!
//! * call edges act as parentheses, so hints flowing through a polymorphic
//!   function from *other* call sites are CFL-unreachable and ignored;
//! * only DDG-alias paths are searched, so hints of non-aliased variables
//!   that stage 1 unified through shared code are never collected.
//!
//! At `add`/`sub` instructions the traversal "turns to resolve the type of
//! operands first and performs feasibility checking to determine the
//! correct searching direction": an operand already precisely known to be
//! numeric cannot be the alias source of a pointer-valued result, and vice
//! versa.

use std::hash::Hasher;

use manta_analysis::cfl::{ctx_op, CtxStack, Direction};
use manta_analysis::{DepKind, ModuleAnalysis, NodeId, VarRef};
use manta_ir::FuncId;
use manta_resilience::{Budget, BudgetExceeded};
use manta_telemetry::Counter;

use crate::flow_refine::FsScratch;
use crate::idhash::{IdHasher, IdMap};
use crate::interval::{FirstLayer, TypeInterval};
use crate::reveal::RevealMap;
use crate::{InferenceResult, MantaConfig, Stage};

/// Runs Algorithm 1 over the current `V_O` set, narrowing intervals in
/// place and appending a [`Stage::ContextRefine`] classification: the
/// engine's chunked refinement step, committed, on an unlimited budget.
pub fn refine(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &mut InferenceResult,
) {
    crate::engine::refine_in_place(Stage::ContextRefine, analysis, reveals, config, result);
}

/// Records which functions' data a refinement walk read. The summary
/// cache replays a cached chunk only when every function in its recorded
/// footprint has an unchanged input fingerprint, so the footprint must
/// cover *everything* the walk's outcome depends on: every DDG node
/// visited (its owner's edges and reveals), every variable whose interval
/// fed an arithmetic feasibility check, and every function whose CFG
/// blocks or caller list the flow-sensitive walker consulted. Recording
/// is off (`None`, a branch per touch) on the ordinary full-solve path.
/// The recorder is a dense bitset over function indices: a touch per
/// visited node is on every walk's hot path, so it has to be a couple
/// of instructions, not a tree insert.
#[derive(Default, Debug)]
pub(crate) struct Footprint {
    bits: Option<Vec<u64>>,
}

impl Footprint {
    /// A disabled recorder: `touch` is a no-op.
    pub(crate) fn off() -> Footprint {
        Footprint { bits: None }
    }

    /// An enabled recorder over a module with `n_funcs` functions.
    pub(crate) fn on(n_funcs: usize) -> Footprint {
        Footprint {
            bits: Some(vec![0; n_funcs.div_ceil(64)]),
        }
    }

    /// Records that the walk read function `f`'s data.
    #[inline]
    pub(crate) fn touch(&mut self, f: FuncId) {
        if let Some(bits) = &mut self.bits {
            bits[f.index() >> 6] |= 1 << (f.index() & 63);
        }
    }

    /// Forgets every touch, keeping the recorder on or off.
    pub(crate) fn reset(&mut self) {
        if let Some(bits) = &mut self.bits {
            bits.fill(0);
        }
    }

    /// The recorded function set in index order (empty when recording
    /// is off).
    pub(crate) fn funcs(&self) -> Vec<FuncId> {
        let mut out = Vec::new();
        for (w, &word) in self.bits.iter().flatten().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                out.push(FuncId((w << 6 | b) as u32));
                word &= word - 1;
            }
        }
        out
    }
}

/// Splits an already function-ordered candidate list into runs sharing a
/// function — the unit of work the refinement stages hand to the pool.
pub(crate) fn partition_by_func(over: &[VarRef]) -> Vec<&[VarRef]> {
    over.chunk_by(|a, b| a.func == b.func).collect()
}

/// One pool worker's refinement scratch, reused for every CS and FS
/// partition the worker runs in a stage (`manta_parallel::par_map_with`
/// makes one per worker). Each partition resets the memos it uses before
/// its first candidate, so a partition's updates, fuel and footprint
/// never depend on what ran before it on the same worker; only their
/// storage outlives it. The FS function views are pure functions of the
/// module and the reveals, and live as long as the scratch.
pub(crate) struct Scratch<'a> {
    pub(crate) analysis: &'a ModuleAnalysis,
    pub(crate) reveals: &'a RevealMap,
    pub(crate) config: &'a MantaConfig,
    pub(crate) roots: RootsMemo,
    /// CS: each root set's forward walk, this partition.
    walks: Vec<Option<ForwardWalk>>,
    /// CS: the nodes the current forward walk visited.
    visited: NodeStamps<()>,
    pub(crate) fs: FsScratch<'a>,
}

impl<'a> Scratch<'a> {
    /// An empty scratch for refining `analysis` under `config`.
    pub(crate) fn new(
        analysis: &'a ModuleAnalysis,
        reveals: &'a RevealMap,
        config: &'a MantaConfig,
    ) -> Scratch<'a> {
        Scratch {
            analysis,
            reveals,
            config,
            roots: RootsMemo::new(analysis, config),
            walks: Vec::new(),
            visited: NodeStamps::new(analysis.ddg.node_count()),
            fs: FsScratch::new(analysis, reveals, config),
        }
    }
}

/// A map from DDG nodes to `V` that empties in O(1): an entry counts only
/// while its stamp is the current generation. With `V = ()` it is a set.
struct NodeStamps<V> {
    slots: Vec<(u32, V)>,
    generation: u32,
    len: usize,
}

impl<V: Copy + Default> NodeStamps<V> {
    /// An empty map over `n` nodes.
    fn new(n: usize) -> NodeStamps<V> {
        NodeStamps {
            slots: vec![(0, V::default()); n],
            generation: 1,
            len: 0,
        }
    }

    /// Removes every entry.
    fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A stamp 2^32 generations old would read as current.
            self.slots.fill((0, V::default()));
            self.generation = 1;
        }
    }

    /// `n`'s value, if it has one.
    fn get(&self, n: NodeId) -> Option<V> {
        let (stamp, v) = self.slots[n.index()];
        (stamp == self.generation).then_some(v)
    }

    /// Maps `n` to `v`; whether `n` had no value before.
    fn insert(&mut self, n: NodeId, v: V) -> bool {
        let slot = &mut self.slots[n.index()];
        let fresh = slot.0 != self.generation;
        self.len += usize::from(fresh);
        *slot = (self.generation, v);
        fresh
    }

    /// How many nodes have a value.
    fn len(&self) -> usize {
        self.len
    }
}

/// Identifies one interned root set of a [`RootsMemo`].
pub(crate) type RootSet = usize;

/// Ends a [`RootsMemo`] hash chain.
const NO_SET: u32 = u32::MAX;

/// One partition's `FIND_ROOTS` memo. Root sets are interned, so the
/// candidates whose roots coincide share one [`RootSet`] id: the key CS
/// replays forward walks by and FS memoizes alias answers by. A worker
/// keeps one and [`reset`](RootsMemo::reset)s it per partition.
pub(crate) struct RootsMemo {
    /// Each start node's root set, this partition.
    of_node: NodeStamps<u32>,
    /// The interned root sets, each sorted ascending: set `i` is
    /// `arena[spans[i].0..spans[i].1]`.
    arena: Vec<NodeId>,
    spans: Vec<(u32, u32)>,
    /// The last set interned with each slice hash; `same_hash[i]` is the
    /// set interned before `i` with `i`'s hash, or [`NO_SET`].
    by_hash: IdMap<u64, u32>,
    same_hash: Vec<u32>,
    /// Scratch reused by every backward walk.
    visited: NodeStamps<()>,
    found: Vec<NodeId>,
    ctx: CtxStack,
}

impl RootsMemo {
    /// An empty memo for `analysis`'s nodes under `config`'s caps.
    pub(crate) fn new(analysis: &ModuleAnalysis, config: &MantaConfig) -> RootsMemo {
        let n = analysis.ddg.node_count();
        RootsMemo {
            of_node: NodeStamps::new(n),
            arena: Vec::new(),
            spans: Vec::new(),
            by_hash: IdMap::default(),
            same_hash: Vec::new(),
            visited: NodeStamps::new(n),
            found: Vec::new(),
            ctx: CtxStack::new(config.max_ctx_depth),
        }
    }

    /// Forgets every root set: the start of a partition.
    pub(crate) fn reset(&mut self) {
        self.of_node.clear();
        self.arena.clear();
        self.spans.clear();
        self.by_hash.clear();
        self.same_hash.clear();
    }

    /// The roots of set `id`, ascending.
    pub(crate) fn set(&self, id: RootSet) -> &[NodeId] {
        let (lo, hi) = self.spans[id];
        &self.arena[lo as usize..hi as usize]
    }

    /// Whether sets `a` and `b` share a root (the alias check of
    /// Algorithm 2, line 14).
    pub(crate) fn intersect(&self, a: RootSet, b: RootSet) -> bool {
        a == b
            || self
                .set(a)
                .iter()
                .any(|r| self.set(b).binary_search(r).is_ok())
    }

    /// How many distinct root sets the memo holds.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The roots of set `id` beside the context stack, for a walk from
    /// each of them.
    fn walk_from(&mut self, id: RootSet) -> (&[NodeId], &mut CtxStack) {
        let (lo, hi) = self.spans[id];
        (&self.arena[lo as usize..hi as usize], &mut self.ctx)
    }

    /// The id of the set in `found` (sorted), interning it if new.
    fn intern_found(&mut self) -> RootSet {
        let mut h = IdHasher::default();
        for n in &self.found {
            h.write_u32(n.0);
        }
        let hash = h.finish();
        let head = self.by_hash.get(&hash).copied().unwrap_or(NO_SET);
        let mut at = head;
        while at != NO_SET {
            if self.set(at as RootSet) == self.found.as_slice() {
                return at as RootSet;
            }
            at = self.same_hash[at as usize];
        }
        let id = self.spans.len();
        let lo = self.arena.len() as u32;
        self.arena.extend_from_slice(&self.found);
        self.spans.push((lo, self.arena.len() as u32));
        self.same_hash.push(head);
        self.by_hash.insert(hash, id as u32);
        id
    }
}

/// Variable-level interval updates produced by one partition, plus what
/// its forward walks did.
pub(crate) type CsChunkOut = (Vec<(VarRef, TypeInterval)>, CsWalks);

/// Forward walks of a stage: run, or replayed from a candidate with the
/// same root set. `run + reused` is the candidate count.
#[derive(Default, Clone, Copy, Debug)]
pub(crate) struct CsWalks {
    run: u64,
    reused: u64,
}

impl CsWalks {
    #[cfg(test)]
    fn add(&mut self, other: CsWalks) {
        self.run += other.run;
        self.reused += other.reused;
    }

    /// Adds one partition's walks to the `cs.walks_*` counters.
    pub(crate) fn emit(self) {
        static RUN: Counter = Counter::new("cs.walks_run");
        static REUSED: Counter = Counter::new("cs.walks_reused");
        RUN.add(self.run);
        REUSED.add(self.reused);
    }
}

/// The outcome of the forward walk from one root set: the interval its
/// collected hints absorb into (`None` when it collected none) and the
/// number of nodes it visited, which is the fuel every candidate with
/// this root set is charged.
struct ForwardWalk {
    interval: Option<TypeInterval>,
    visits: u64,
}

/// Refines one per-function candidate partition through a worker's
/// `scratch`. Fuel is charged exactly as the historical serial loop: one
/// unit per candidate plus the size of its forward walk. With an enabled
/// `fp`, records every function whose data the walks read (the summary
/// cache's reuse precondition).
///
/// The forward walk of Algorithm 1 starts from every root of a candidate
/// on an empty context stack with an empty visited set, so its outcome,
/// caps included, is a function of the root set alone: candidates whose
/// roots coincide replay the first one's walk. A replay needs no footprint
/// touch, because the walk that filled the entry touched this partition's
/// footprint already.
pub(crate) fn refine_chunk(
    scratch: &mut Scratch<'_>,
    result: &InferenceResult,
    budget: &Budget,
    chunk: &[VarRef],
    fp: &mut Footprint,
) -> Result<CsChunkOut, BudgetExceeded> {
    let Scratch {
        analysis,
        reveals,
        config,
        roots,
        walks: memo,
        visited,
        ..
    } = scratch;
    let (analysis, reveals, config) = (*analysis, *reveals, *config);
    roots.reset();
    memo.clear();
    let mut walks = CsWalks::default();
    let mut updates: Vec<(VarRef, TypeInterval)> = Vec::new();
    for &v in chunk {
        budget.tick()?;
        fp.touch(v.func);
        let set = find_roots_traced(analysis, result, config, v, roots, fp);
        memo.resize_with(roots.len(), || None);
        if memo[set].is_some() {
            walks.reused += 1;
        } else {
            walks.run += 1;
            visited.clear();
            let mut interval = None;
            let (set_roots, ctx) = roots.walk_from(set);
            for &root in set_roots {
                collect_types(
                    analysis,
                    reveals,
                    result,
                    config,
                    root,
                    ctx,
                    visited,
                    &mut interval,
                    fp,
                );
            }
            memo[set] = Some(ForwardWalk {
                interval,
                visits: visited.len() as u64,
            });
        }
        let walk = memo[set].as_ref().expect("walk memoized above");
        // Charge the actual walk size so fuel reflects work done, not
        // just candidate count.
        budget.consume(walk.visits)?;
        if let Some(interval) = &walk.interval {
            updates.push((v, interval.clone()));
        }
    }
    Ok((updates, walks))
}

/// `FIND_ROOTS(v)`: backward CFL-valid traversal to the origins of `v`
/// (Algorithm 1, lines 11–20). Results are memoized in `cache`.
#[cfg(test)]
pub(crate) fn find_roots(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    config: &MantaConfig,
    v: VarRef,
    cache: &mut RootsMemo,
) -> std::collections::BTreeSet<NodeId> {
    let id = find_roots_traced(analysis, result, config, v, cache, &mut Footprint::off());
    cache.set(id).iter().copied().collect()
}

/// [`find_roots`] with footprint recording, returning the interned set.
/// The memo's entries live in one partition, and so does the footprint:
/// the walk that seeded an entry touched `fp` when it ran, so a hit, and
/// every walk the other candidates of a root set replay from it, needs no
/// touch of its own. The entries must never outlive the partition whose
/// footprint recorded them, so every partition starts with
/// [`RootsMemo::reset`].
pub(crate) fn find_roots_traced(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    config: &MantaConfig,
    v: VarRef,
    memo: &mut RootsMemo,
    fp: &mut Footprint,
) -> RootSet {
    let start = analysis.ddg.node(v);
    if let Some(id) = memo.of_node.get(start) {
        return id as RootSet;
    }
    memo.visited.clear();
    memo.found.clear();
    let mut budget = config.max_visits;
    walk_roots(
        analysis,
        result,
        start,
        &mut memo.ctx,
        &mut memo.visited,
        &mut memo.found,
        &mut budget,
        fp,
    );
    if memo.found.is_empty() {
        memo.found.push(start);
    }
    // Each root is found once: the visited set guards the walk.
    memo.found.sort_unstable();
    let id = memo.intern_found();
    memo.of_node.insert(start, id as u32);
    id
}

#[allow(clippy::too_many_arguments)]
fn walk_roots(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    node: NodeId,
    ctx: &mut CtxStack,
    visited: &mut NodeStamps<()>,
    roots: &mut Vec<NodeId>,
    budget: &mut usize,
    fp: &mut Footprint,
) {
    if !visited.insert(node, ()) || *budget == 0 {
        return;
    }
    *budget -= 1;
    fp.touch(analysis.ddg.var(node).func);
    let mut advanced = false;
    for &(parent, kind) in analysis.ddg.parents(node) {
        if !edge_carries_type(kind) {
            continue;
        }
        if let DepKind::Arith { .. } = kind {
            // The feasibility decision consumed the parent's interval even
            // when it rejects the edge, so the parent's owner is part of
            // the footprint either way.
            fp.touch(analysis.ddg.var(parent).func);
            if !arith_feasible(result, analysis.ddg.var(parent), analysis.ddg.var(node)) {
                continue;
            }
        }
        let op = ctx_op(kind, Direction::Backward);
        if ctx.enter(op) {
            advanced = true;
            walk_roots(analysis, result, parent, ctx, visited, roots, budget, fp);
            ctx.leave(op);
        }
    }
    if !advanced {
        roots.push(node);
    }
}

/// `COLLECT_TYPES(root)`: forward CFL-valid traversal gathering type
/// annotations (Algorithm 1, lines 21–28), absorbed into `out` in
/// collection order (`None` until the first hint).
#[allow(clippy::too_many_arguments)]
fn collect_types(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    result: &InferenceResult,
    config: &MantaConfig,
    node: NodeId,
    ctx: &mut CtxStack,
    visited: &mut NodeStamps<()>,
    out: &mut Option<TypeInterval>,
    fp: &mut Footprint,
) {
    if !visited.insert(node, ()) || visited.len() > config.max_visits {
        return;
    }
    let v = analysis.ddg.var(node);
    fp.touch(v.func);
    for r in reveals.of_var(v) {
        out.get_or_insert_with(TypeInterval::unknown).absorb(&r.ty);
    }
    for &(child, kind) in analysis.ddg.children(node) {
        if !edge_carries_type(kind) {
            continue;
        }
        if let DepKind::Arith { .. } = kind {
            fp.touch(analysis.ddg.var(child).func);
            if !arith_feasible(result, v, analysis.ddg.var(child)) {
                continue;
            }
        }
        let op = ctx_op(kind, Direction::Forward);
        if ctx.enter(op) {
            collect_types(
                analysis, reveals, result, config, child, ctx, visited, out, fp,
            );
            ctx.leave(op);
        }
    }
}

/// Whether an edge transports the *same* value (and hence the same type).
/// `Field` derives an interior pointer, `ExternFlow` may change the type
/// (`atoi`), `Cmp` produces a boolean — none carry the type across.
fn edge_carries_type(kind: DepKind) -> bool {
    matches!(
        kind,
        DepKind::Direct
            | DepKind::Memory(_)
            | DepKind::CallParam(_)
            | DepKind::CallReturn(_)
            | DepKind::Arith { .. }
    )
}

/// Feasibility check at `add`/`sub` edges: the operand and the result can
/// only alias when their currently-known types are compatible.
fn arith_feasible(result: &InferenceResult, operand: VarRef, res: VarRef) -> bool {
    let layer_of = |v: VarRef| -> Option<FirstLayer> {
        result.interval(v)?.representative().map(FirstLayer::of)
    };
    let may_be_ptr = |v: VarRef| match result.interval(v) {
        None => true,
        Some(i) => {
            i.is_any()
                || i.is_unknown()
                || matches!(
                    FirstLayer::of(&i.upper),
                    FirstLayer::Ptr | FirstLayer::Reg(manta_ir::Width::W64) | FirstLayer::Top
                )
        }
    };
    match (layer_of(operand), layer_of(res)) {
        // Both precisely known: they alias only if the first layers agree.
        (Some(a), Some(b)) => a == b,
        // A precisely numeric operand cannot be the alias source of a
        // possibly-pointer result (it is the offset, not the base).
        (Some(a), None) if a != FirstLayer::Ptr && a.is_concrete() => !may_be_ptr(res),
        _ => true,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classify;
    use crate::interval::Resolution;
    use crate::{Manta, MantaConfig, Sensitivity, VarClass};
    use manta_ir::{BinOp, ModuleBuilder, Width};

    /// The polymorphic-identity scenario: FI over-approximates the result
    /// of `id` in each caller; CS refinement must split the contexts.
    pub(crate) fn polymorphic_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);

        // Caller 1: passes a numeric value, prints the result as %ld.
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = cb1.binop(BinOp::Mul, n, n, Width::W64);
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let fmt = cb1.alloca(8);
        cb1.call_extern(pd, &[fmt, r1], Some(Width::W32));
        cb1.ret(None);
        mb.finish_function(cb1);

        // Caller 2: passes a heap pointer, prints the result as %s.
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let fmt = cb2.alloca(8);
        cb2.call_extern(ps, &[fmt, r2], Some(Width::W32));
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn fi_over_approximates_polymorphic_results() {
        let analysis = manta_analysis::ModuleAnalysis::build(polymorphic_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        let m = analysis.module();
        let c1 = m.function_by_name("use_int").unwrap();
        // r1 = id(n2) — the direct call result (first call inst in c1).
        let r1 = c1
            .insts()
            .find_map(|i| match &i.kind {
                manta_ir::InstKind::Call {
                    dst,
                    callee: manta_ir::Callee::Direct(_),
                    ..
                } => *dst,
                _ => None,
            })
            .unwrap();
        assert_eq!(r.class_of(VarRef::new(c1.id(), r1)), VarClass::Over);
    }

    #[test]
    fn cs_refinement_splits_contexts() {
        let analysis = manta_analysis::ModuleAnalysis::build(polymorphic_module());
        let reveals = RevealMap::collect(&analysis);
        let config = MantaConfig::with_sensitivity(Sensitivity::FiCsFs);
        let mut result = crate::flow_insensitive::run(&analysis, &reveals, config);
        refine(&analysis, &reveals, &config, &mut result);

        let m = analysis.module();
        let c1 = m.function_by_name("use_int").unwrap();
        let c2 = m.function_by_name("use_ptr").unwrap();
        let call_dst = |f: &manta_ir::Function| {
            f.insts()
                .find_map(|i| match &i.kind {
                    manta_ir::InstKind::Call {
                        dst,
                        callee: manta_ir::Callee::Direct(_),
                        ..
                    } => *dst,
                    _ => None,
                })
                .unwrap()
        };
        let r1 = VarRef::new(c1.id(), call_dst(c1));
        let r2 = VarRef::new(c2.id(), call_dst(c2));
        // After context-sensitive refinement, the two call results are
        // precisely typed per their own contexts.
        let t1 = result.interval(r1).unwrap().resolution();
        let t2 = result.interval(r2).unwrap().resolution();
        assert!(
            t1.is_precise(),
            "use_int result should be precise, got {t1:?}"
        );
        assert!(
            t2.is_precise(),
            "use_ptr result should be precise, got {t2:?}"
        );
        let Resolution::Precise(t1) = t1 else {
            unreachable!()
        };
        let Resolution::Precise(t2) = t2 else {
            unreachable!()
        };
        assert!(t1.is_numeric(), "int context inferred {t1}");
        assert!(t2.is_pointer(), "ptr context inferred {t2}");
    }

    /// `f(p)` copies `p` to `a` and `a` to `b`, then prints `a` as an
    /// integer and `b` as a string: FI over-approximates all three, and
    /// all three trace back to the one root `p`.
    fn shared_root_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let (_, mut fb) = mb.function("f", &[Width::W64], None);
        let p = fb.param(0);
        let a = fb.copy(p);
        let b = fb.copy(a);
        let fmt = fb.alloca(8);
        fb.call_extern(pd, &[fmt, a], Some(Width::W32));
        fb.call_extern(ps, &[fmt, b], Some(Width::W32));
        fb.ret(None);
        mb.finish_function(fb);
        mb.finish()
    }

    #[test]
    fn candidates_sharing_roots_reuse_one_forward_walk() {
        let analysis = manta_analysis::ModuleAnalysis::build(shared_root_module());
        let reveals = RevealMap::collect(&analysis);
        let config = MantaConfig::full();
        let result = crate::flow_insensitive::run(&analysis, &reveals, config);
        let over = classify::over_approximated(&result);
        let mut walks = CsWalks::default();
        let mut scratch = Scratch::new(&analysis, &reveals, &config);
        for chunk in partition_by_func(&over) {
            let (_, chunk_walks) = refine_chunk(
                &mut scratch,
                &result,
                &Budget::unlimited(),
                chunk,
                &mut Footprint::off(),
            )
            .expect("unlimited budget");
            walks.add(chunk_walks);
        }
        assert!(walks.reused > 0, "no candidate reused a walk: {walks:?}");
        assert_eq!(walks.run + walks.reused, over.len() as u64);
    }

    /// Clearing empties the map in O(1), including when the generation
    /// wraps, where a stamp left from 2^32 generations ago must not read
    /// as current.
    #[test]
    fn node_stamps_clear_across_generation_wrap() {
        let mut stamps: NodeStamps<u32> = NodeStamps::new(3);
        assert!(stamps.insert(NodeId(0), 7));
        assert!(!stamps.insert(NodeId(0), 8));
        assert_eq!((stamps.get(NodeId(0)), stamps.len()), (Some(8), 1));
        stamps.clear();
        assert_eq!((stamps.get(NodeId(0)), stamps.len()), (None, 0));
        stamps.generation = u32::MAX;
        stamps.insert(NodeId(1), 5);
        stamps.clear();
        assert_eq!(stamps.generation, 1);
        assert_eq!(stamps.get(NodeId(1)), None);
        assert!(stamps.insert(NodeId(1), 6));
        assert_eq!((stamps.get(NodeId(1)), stamps.len()), (Some(6), 1));
    }

    #[test]
    fn numeric_operand_of_pointer_add_is_not_a_root_path() {
        // r = base + off where off is precisely numeric: backward traversal
        // from r must not cross into off.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let off = fb.binop(BinOp::Mul, n, n, Width::W64); // precise numeric
        let k = fb.const_int(64, Width::W64);
        let base = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r = fb.binop(BinOp::Add, base, off, Width::W64);
        let x = fb.load(r, Width::W64); // r revealed ptr
        let _ = x;
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let reveals = RevealMap::collect(&analysis);
        let config = MantaConfig::full();
        let result = crate::flow_insensitive::run(&analysis, &reveals, config);
        let mut cache = RootsMemo::new(&analysis, &config);
        let roots = find_roots(&analysis, &result, &config, VarRef::new(fid, r), &mut cache);
        let off_node = analysis.ddg.node(VarRef::new(fid, off));
        assert!(
            !roots.contains(&off_node),
            "numeric offset must not be an alias root"
        );
        let base_roots = find_roots(
            &analysis,
            &result,
            &config,
            VarRef::new(fid, base),
            &mut cache,
        );
        assert!(
            roots.iter().any(|r| base_roots.contains(r)),
            "pointer base must stay on the root path"
        );
    }
}
