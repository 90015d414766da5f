//! Infeasible data-dependency pruning (paper §5.2, Table 2).
//!
//! | opcode | rule | pruned dependency |
//! |--------|------|-------------------|
//! | `R = ADD OP1, OP2` | `TY(R)=ptr ∧ TY(OP1)=num` | `OP1 → R` |
//! | `R = ADD OP1, OP2` | `TY(R)=ptr ∧ TY(OP2)=num` | `OP2 → R` |
//! | `R = SUB OP1, OP2` | `TY(R)=num ∧ TY(OP1)=ptr` | `OP1 → R` |
//! | `R = SUB OP1, OP2` | `TY(R)=num ∧ TY(OP2)=ptr` | `OP2 → R` |
//! | `R = SUB OP1, OP2` | `TY(R)=ptr` | `OP2 → R` |
//!
//! `TY(v) = ty` abbreviates `F↑(v) = F↓(v) = ty` — the pruning fires only
//! on *precisely resolved* types, so imprecise inference prunes less (the
//! mechanism behind the paper's Figure 12 spread).

use manta::{FirstLayer, TypeQuery};
use manta_analysis::{Ddg, DepKind, ModuleAnalysis, VarRef};
use manta_ir::{BinOp, InstKind, ValueId};

/// Counters from a pruning pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PruneStats {
    /// Arithmetic instructions examined.
    pub examined: usize,
    /// Dependency edges removed.
    pub removed: usize,
}

/// The precisely-resolved first layer of `v` at site `s`, if any.
fn ty_at(inference: &dyn TypeQuery, v: VarRef, s: manta_ir::InstId) -> Option<FirstLayer> {
    inference.precise_at(v, s).map(|t| FirstLayer::of(&t))
}

fn is_num(l: Option<FirstLayer>) -> bool {
    matches!(
        l,
        Some(FirstLayer::Int(_))
            | Some(FirstLayer::Float)
            | Some(FirstLayer::Double)
            | Some(FirstLayer::Num(_))
    )
}

fn is_ptr(l: Option<FirstLayer>) -> bool {
    matches!(l, Some(FirstLayer::Ptr))
}

/// Applies Table 2 to every `add`/`sub` instruction, removing infeasible
/// operand→result edges from `ddg` in place.
pub fn prune_infeasible_deps(
    analysis: &ModuleAnalysis,
    inference: &dyn TypeQuery,
    ddg: &mut Ddg,
) -> PruneStats {
    let mut stats = PruneStats::default();
    for func in analysis.module().functions() {
        let fid = func.id();
        for inst in func.insts() {
            let InstKind::BinOp { op, dst, lhs, rhs } = &inst.kind else {
                continue;
            };
            if !matches!(op, BinOp::Add | BinOp::Sub) {
                continue;
            }
            stats.examined += 1;
            let s = inst.id;
            let r_ty = ty_at(inference, VarRef::new(fid, *dst), s);
            let op1_ty = ty_at(inference, VarRef::new(fid, *lhs), s);
            let op2_ty = ty_at(inference, VarRef::new(fid, *rhs), s);
            let mut prune = |operand: ValueId, which: u8| {
                let from = ddg.node(VarRef::new(fid, operand));
                let to = ddg.node(VarRef::new(fid, *dst));
                stats.removed += ddg.remove_edges(
                    from,
                    to,
                    |k| matches!(k, DepKind::Arith { operand, .. } if operand == which),
                );
            };
            match op {
                BinOp::Add => {
                    // Pointer arithmetic: the numeric offset is not an
                    // alias of the resulting pointer.
                    if is_ptr(r_ty) {
                        if is_num(op1_ty) {
                            prune(*lhs, 0);
                        }
                        if is_num(op2_ty) {
                            prune(*rhs, 1);
                        }
                    }
                }
                BinOp::Sub => {
                    // Pointer difference: the numeric result no longer
                    // aliases the pointer operands.
                    if is_num(r_ty) {
                        if is_ptr(op1_ty) {
                            prune(*lhs, 0);
                        }
                        if is_ptr(op2_ty) {
                            prune(*rhs, 1);
                        }
                    }
                    // `ptr = ptr - offset`: the subtrahend is not an alias.
                    if is_ptr(r_ty) {
                        prune(*rhs, 1);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    stats
}

/// Convenience: clones the analysis DDG and prunes the clone, returning it
/// with the stats. (The original analysis stays untouched for ablations.)
pub fn pruned_ddg(analysis: &ModuleAnalysis, inference: &dyn TypeQuery) -> (Ddg, PruneStats) {
    let mut ddg = analysis.ddg.clone();
    let stats = prune_infeasible_deps(analysis, inference, &mut ddg);
    (ddg, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta::{Manta, MantaConfig};
    use manta_ir::{ModuleBuilder, Width};

    /// `r = base + off` with `base` a malloc pointer and `off` revealed
    /// numeric; the paper's Figure 4 pruning case.
    #[test]
    fn prunes_numeric_offset_into_pointer_add() {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let off = fb.binop(BinOp::Mul, n, n, Width::W64);
        let k = fb.const_int(64, Width::W64);
        let base = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r = fb.binop(BinOp::Add, base, off, Width::W64);
        let x = fb.load(r, Width::W64);
        let _ = x;
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let (ddg, stats) = pruned_ddg(&analysis, &inference);
        assert_eq!(stats.removed, 1, "exactly the off→r edge");
        let n_off = ddg.node(VarRef::new(fid, off));
        let n_r = ddg.node(VarRef::new(fid, r));
        let n_base = ddg.node(VarRef::new(fid, base));
        assert!(!ddg.children(n_off).iter().any(|&(t, _)| t == n_r));
        assert!(
            ddg.children(n_base).iter().any(|&(t, _)| t == n_r),
            "base edge survives"
        );
    }

    #[test]
    fn sub_pointer_difference_pruned() {
        // d = p - q with both pointers and d used numerically.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[], Some(Width::W64));
        let k = fb.const_int(64, Width::W64);
        let p = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let q = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let d = fb.binop(BinOp::Sub, p, q, Width::W64);
        let two = fb.const_int(2, Width::W64);
        let half = fb.binop(BinOp::Div, d, two, Width::W64); // reveals d numeric
        fb.ret(Some(half));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let (ddg, stats) = pruned_ddg(&analysis, &inference);
        assert_eq!(
            stats.removed, 2,
            "both ptr operands pruned from numeric result"
        );
        let nd = ddg.node(VarRef::new(fid, d));
        assert!(ddg
            .parents(nd)
            .iter()
            .all(|&(_, k)| !matches!(k, DepKind::Arith { .. })));
    }

    #[test]
    fn imprecise_types_prune_nothing() {
        // Without reveals the operands stay untyped: no pruning.
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64, Width::W64], Some(Width::W64));
        let a = fb.param(0);
        let b = fb.param(1);
        let r = fb.binop(BinOp::Add, a, b, Width::W64);
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let (_, stats) = pruned_ddg(&analysis, &inference);
        assert_eq!(stats.examined, 1);
        assert_eq!(stats.removed, 0);
    }
}
