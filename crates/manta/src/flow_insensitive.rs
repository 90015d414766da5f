//! Stage 1: global flow-insensitive type inference (paper §4.1, Table 1).
//!
//! A unification-based algorithm over all variables and memory objects:
//!
//! | rule | statement | action |
//! |------|-----------|--------|
//! | ① | `p = q` (copy/phi/call binding) | `UnifyVarType(p,q)`; `UnifyObjType` over `ℙ(p) ∪ ℙ(q)` |
//! | ② | `p = *q` | `∀o ∈ ℙ(q): UnifyVarType(p, o)` |
//! | ③ | `*p = q` | `∀o ∈ ℙ(p): UnifyVarType(o, q)` |
//! | ④ | type-revealing site | absorb the revealed type |
//!
//! `cmp` contributes a pure unification of its operands — the "two compared
//! variables have the same type" indirect hint of §6.4.

use manta_analysis::{ModuleAnalysis, ObjectId, VarRef};
use manta_ir::{Callee, FuncId, InstKind, Module, Terminator, ValueId};
use manta_resilience::{Budget, BudgetExceeded};

use crate::classify;
use crate::idhash::IdSet;
use crate::interval::TypeInterval;
use crate::reveal::RevealMap;
use crate::unify::UnionFind;
use crate::{InferenceResult, MantaConfig, Stage, NONE};

/// Maximum recursion when unifying object field trees.
const MAX_OBJ_UNIFY_DEPTH: usize = 4;

/// Dense index space: DDG nodes first, then objects.
struct Keys<'a> {
    analysis: &'a ModuleAnalysis,
    var_count: usize,
}

impl<'a> Keys<'a> {
    fn new(analysis: &'a ModuleAnalysis) -> Keys<'a> {
        Keys {
            analysis,
            var_count: analysis.ddg.node_count(),
        }
    }

    fn total(&self) -> usize {
        self.var_count + self.analysis.pointsto.object_count()
    }

    fn var(&self, v: VarRef) -> usize {
        self.analysis.ddg.node(v).index()
    }

    fn obj(&self, o: ObjectId) -> usize {
        self.var_count + o.index()
    }
}

/// Every function's returned values (`ret v` terminators, in block
/// order), found once per run rather than once per call.
struct Returns {
    /// `values[at[f]..at[f + 1]]` are function `f`'s.
    at: Vec<u32>,
    values: Vec<ValueId>,
}

impl Returns {
    fn of(module: &Module) -> Returns {
        let mut at = Vec::with_capacity(module.function_count() + 1);
        at.push(0);
        let mut values = Vec::new();
        for func in module.functions() {
            for b in func.blocks() {
                if let Terminator::Ret(Some(r)) = b.term {
                    values.push(r);
                }
            }
            at.push(values.len() as u32);
        }
        Returns { at, values }
    }

    fn of_func(&self, f: FuncId) -> &[ValueId] {
        &self.values[self.at[f.index()] as usize..self.at[f.index() + 1] as usize]
    }
}

/// Runs the global flow-insensitive inference and classifies every
/// variable.
pub fn run(analysis: &ModuleAnalysis, reveals: &RevealMap, config: MantaConfig) -> InferenceResult {
    match run_budgeted(analysis, reveals, config, &Budget::unlimited()) {
        Ok(r) => r,
        Err(_) => unreachable!("unlimited budget tripped"),
    }
}

/// [`run`] under a cooperative budget: one fuel unit per visited
/// instruction, reveal, and materialized variable, so a blown budget
/// surfaces within one statement's worth of work.
///
/// # Errors
///
/// Returns the tripped limit; no partial result is produced (the caller
/// falls back to the previous tier — for this base stage, to nothing).
pub fn run_budgeted(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: MantaConfig,
    budget: &Budget,
) -> Result<InferenceResult, BudgetExceeded> {
    let keys = Keys::new(analysis);
    let module = analysis.module();
    let returns = Returns::of(module);

    // The unification ops an instruction emits depend only on the
    // (immutable) points-to relation, never on union-find state, so the
    // per-function op lists are collected across the pool and replayed in
    // function order — exactly the serial op sequence.
    let func_ids: Vec<FuncId> = module.functions().map(|f| f.id()).collect();
    let per_func: Vec<Result<Vec<(usize, usize)>, BudgetExceeded>> =
        manta_parallel::par_map(func_ids, |fid| {
            collect_fi_ops(analysis, &keys, &returns, fid, budget)
        });

    let mut uf = UnionFind::new(keys.total());
    for ops in per_func {
        for (a, b) in ops? {
            uf.union(a, b);
        }
    }

    // Rule ④: absorb reveals.
    for func in module.functions() {
        for r in reveals.in_func(func.id()) {
            budget.tick()?;
            uf.absorb(keys.var(VarRef::new(func.id(), r.value)), &r.ty);
        }
    }

    // Materialize: each class's interval moves out of the union-find into
    // one table entry, which the slot of every member names. The result's
    // slots are the DDG node numbering the union-find's variable half uses.
    let mut result = InferenceResult::over(analysis, config);
    debug_assert_eq!(result.slot.len(), keys.var_count);
    let mut entry = vec![NONE; keys.total()];
    for node in 0..keys.var_count {
        budget.tick()?;
        result.slot[node] = share(&mut uf, node, &mut entry, &mut result.intervals);
    }
    for o in 0..result.obj.len() {
        result.obj[o] = share(
            &mut uf,
            keys.var_count + o,
            &mut entry,
            &mut result.intervals,
        );
    }

    let counts = classify::classify(analysis, &mut result);
    result.stage_counts.push((Stage::FlowInsensitive, counts));
    Ok(result)
}

/// The table entry of `x`'s class: the first member to ask moves the
/// class's interval out of `uf` into `table`. A class no hint reached
/// gets none ([`NONE`]).
fn share(uf: &mut UnionFind, x: usize, entry: &mut [u32], table: &mut Vec<TypeInterval>) -> u32 {
    let root = uf.find(x);
    if entry[root] == NONE {
        let interval = uf.take_interval(root);
        if !interval.is_unknown() {
            entry[root] = table.len() as u32;
            table.push(interval);
        }
    }
    entry[root]
}

/// Collects the union ops of one function's instructions (Table 1 rules
/// ①–③ plus the `cmp` hint). Fuel is charged per instruction exactly as
/// the historical serial pass.
fn collect_fi_ops(
    analysis: &ModuleAnalysis,
    keys: &Keys<'_>,
    returns: &Returns,
    fid: FuncId,
    budget: &Budget,
) -> Result<Vec<(usize, usize)>, BudgetExceeded> {
    let module = analysis.module();
    let pts = &analysis.pointsto;
    let func = module.function(fid);
    let var = |v: ValueId| VarRef::new(fid, v);
    let mut ops: Vec<(usize, usize)> = Vec::new();
    let mut seen = IdSet::default();
    for inst in func.insts() {
        budget.tick()?;
        match &inst.kind {
            // Rule ①: value copies.
            InstKind::Copy { dst, src } => {
                ops.push((keys.var(var(*dst)), keys.var(var(*src))));
                unify_pointees(&mut ops, keys, var(*dst), var(*src), &mut seen);
            }
            InstKind::Phi { dst, incomings } => {
                for (_, v) in incomings {
                    ops.push((keys.var(var(*dst)), keys.var(var(*v))));
                    unify_pointees(&mut ops, keys, var(*dst), var(*v), &mut seen);
                }
            }
            // Rule ② LOAD.
            InstKind::Load { dst, addr, .. } => {
                for &o in pts.pts_var(var(*addr)) {
                    ops.push((keys.var(var(*dst)), keys.obj(o)));
                }
            }
            // Rule ③ STORE.
            InstKind::Store { addr, val } => {
                for &o in pts.pts_var(var(*addr)) {
                    ops.push((keys.obj(o), keys.var(var(*val))));
                }
            }
            // Indirect hint: compared values share a type.
            InstKind::Cmp { lhs, rhs, .. } => {
                ops.push((keys.var(var(*lhs)), keys.var(var(*rhs))));
            }
            // Rule ① for calls: argument/parameter and return bindings
            // (context-insensitive).
            InstKind::Call {
                dst,
                callee: Callee::Direct(target),
                args,
            } => {
                if analysis.pre.is_broken_call(fid, inst.id) {
                    continue;
                }
                let tf = module.function(*target);
                for (i, &a) in args.iter().enumerate() {
                    if let Some(&p) = tf.params().get(i) {
                        let param = VarRef::new(*target, p);
                        ops.push((keys.var(var(a)), keys.var(param)));
                        unify_pointees(&mut ops, keys, var(a), param, &mut seen);
                    }
                }
                if let Some(d) = dst {
                    for &r in returns.of_func(*target) {
                        ops.push((keys.var(var(*d)), keys.var(VarRef::new(*target, r))));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(ops)
}

/// Rule ①'s `UnifyObjType` over the pointees of two unified pointers:
/// the first pointee with each other one, `seen` cleared per pair.
fn unify_pointees(
    ops: &mut Vec<(usize, usize)>,
    keys: &Keys<'_>,
    p: VarRef,
    q: VarRef,
    seen: &mut IdSet<(ObjectId, ObjectId)>,
) {
    let pts = &keys.analysis.pointsto;
    let mut all = pts.pts_var(p).iter().chain(pts.pts_var(q)).copied();
    let Some(first) = all.next() else {
        return;
    };
    for o in all {
        seen.clear();
        unify_obj_types(ops, keys, first, o, MAX_OBJ_UNIFY_DEPTH, seen);
    }
}

/// `UnifyObjType(o1, o2)`: unify the contents of two objects and,
/// recursively, fields sharing an offset.
fn unify_obj_types(
    ops: &mut Vec<(usize, usize)>,
    keys: &Keys<'_>,
    a: ObjectId,
    b: ObjectId,
    depth: usize,
    seen: &mut IdSet<(ObjectId, ObjectId)>,
) {
    if a == b || depth == 0 || !seen.insert((a.min(b), a.max(b))) {
        return;
    }
    ops.push((keys.obj(a), keys.obj(b)));
    // Unify fields at matching offsets, walking both parents' fields in
    // id order. A matched offset comes up once per parent; the second
    // visit finds the pair seen.
    let pts = &keys.analysis.pointsto;
    let (fa, fb) = (pts.fields(a), pts.fields(b));
    if fa.is_empty() || fb.is_empty() {
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < fa.len() || j < fb.len() {
        let off = if j == fb.len() || (i < fa.len() && fa[i].1 < fb[j].1) {
            i += 1;
            fa[i - 1].0
        } else {
            j += 1;
            fb[j - 1].0
        };
        if let (Some(x), Some(y)) = (pts.field_of(a, off), pts.field_of(b, off)) {
            unify_obj_types(ops, keys, x, y, depth - 1, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Resolution;
    use crate::{Manta, MantaConfig, Sensitivity, VarClass};
    use manta_ir::{BinOp, CmpPred, ModuleBuilder, Type, Width};

    fn infer_fi(m: manta_ir::Module) -> (ModuleAnalysis, InferenceResult) {
        let analysis = ModuleAnalysis::build(m);
        let result = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        (analysis, result)
    }

    #[test]
    fn copy_chain_propagates_hint() {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let a = fb.copy(n);
        let b = fb.copy(a);
        let buf = fb.call_extern(malloc, &[b], Some(Width::W64)).unwrap();
        fb.ret(Some(buf));
        mb.finish_function(fb);
        let (_, r) = infer_fi(mb.finish());
        // n ~ a ~ b, b revealed int64 by malloc's parameter type.
        let v = VarRef::new(fid, n);
        assert_eq!(
            r.interval(v).unwrap().resolution(),
            Resolution::Precise(Type::Int(Width::W64))
        );
        assert_eq!(r.class_of(v), VarClass::Precise);
    }

    #[test]
    fn conflicting_branches_over_approximate() {
        // The Figure 3 shape: one slot stores an int-revealed value on one
        // branch and a pointer-revealed value on the other.
        let mut mb = ModuleBuilder::new("m");
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64, Width::W64, Width::W1], None);
        let x = fb.param(0);
        let y = fb.param(1);
        let c = fb.param(2);
        let slot = fb.alloca(8);
        let bb_i = fb.new_block();
        let bb_p = fb.new_block();
        let bb_j = fb.new_block();
        fb.cond_br(c, bb_i, bb_p);
        fb.switch_to(bb_i);
        fb.store(slot, x);
        let fmt1 = fb.alloca(8);
        fb.call_extern(pd, &[fmt1, x], Some(Width::W32));
        fb.br(bb_j);
        fb.switch_to(bb_p);
        fb.store(slot, y);
        let fmt2 = fb.alloca(8);
        fb.call_extern(ps, &[fmt2, y], Some(Width::W32));
        fb.br(bb_j);
        fb.switch_to(bb_j);
        let merged = fb.load(slot, Width::W64);
        let _ = merged;
        fb.ret(None);
        mb.finish_function(fb);
        let (_, r) = infer_fi(mb.finish());
        // x is revealed int64, y is revealed ptr; both are stored into the
        // same slot, so the slot contents — and the loaded value — merge.
        assert_eq!(r.class_of(VarRef::new(fid, merged)), VarClass::Over);
        assert_eq!(r.class_of(VarRef::new(fid, x)), VarClass::Over);
        let i = r.interval(VarRef::new(fid, merged)).unwrap();
        assert_eq!(i.upper, Type::Reg(Width::W64));
    }

    #[test]
    fn untouched_variable_is_unknown_and_widened() {
        let mut mb = ModuleBuilder::new("m");
        let opaque = mb.extern_fn("vendor_blob", &[Width::W64], Some(Width::W64));
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let r = fb.call_extern(opaque, &[p], Some(Width::W64)).unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let (_, res) = infer_fi(mb.finish());
        let v = VarRef::new(fid, p);
        assert_eq!(res.class_of(v), VarClass::Unknown);
        // The accessors expose the §4.1 any-type widening.
        assert_eq!(res.upper(v), Type::Top);
        assert_eq!(res.lower(v), Type::Bottom);
    }

    #[test]
    fn cmp_with_error_constant_corrupts_pointer() {
        // p is loaded through (ptr reveal) but also compared with -1: the
        // §6.4 recall-loss idiom must produce an over-approximated type.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W1));
        let p = fb.param(0);
        let _x = fb.load(p, Width::W64);
        let neg = fb.const_int(-1, Width::W64);
        let c = fb.cmp(CmpPred::Eq, p, neg);
        fb.ret(Some(c));
        mb.finish_function(fb);
        let (_, r) = infer_fi(mb.finish());
        assert_eq!(r.class_of(VarRef::new(fid, p)), VarClass::Over);
    }

    #[test]
    fn polymorphic_function_merges_caller_types() {
        // id(x) called with an int-revealed and a ptr-revealed argument:
        // context-insensitive unification over-approximates the parameter.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (_c1, mut cb1) = mb.function("c1", &[], None);
        let n = cb1.const_int(9, Width::W64);
        let sz = cb1.binop(BinOp::Mul, n, n, Width::W64); // numeric reveal
        cb1.call(id_f, &[sz], Some(Width::W64));
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_c2, mut cb2) = mb.function("c2", &[], None);
        let k = cb2.const_int(8, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        cb2.call(id_f, &[buf], Some(Width::W64));
        cb2.ret(None);
        mb.finish_function(cb2);
        let (an, r) = infer_fi(mb.finish());
        let id_f = an.module().function_by_name("id").unwrap().id();
        let xp = an.module().function(id_f).params()[0];
        assert_eq!(r.class_of(VarRef::new(id_f, xp)), VarClass::Over);
    }

    #[test]
    fn stage_counts_recorded() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        fb.ret(Some(p));
        mb.finish_function(fb);
        let (_, r) = infer_fi(mb.finish());
        assert_eq!(r.stage_counts.len(), 1);
        assert_eq!(r.stage_counts[0].0, Stage::FlowInsensitive);
        assert!(r.stage_counts[0].1.total() > 0);
    }
}
