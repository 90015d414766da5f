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
use manta_analysis::{DepKind, ModuleAnalysis, NodeId, VarRef};
use manta_ir::{BinOp, InstKind};

/// Counters from a pruning pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PruneStats {
    /// Arithmetic instructions examined.
    pub examined: usize,
    /// Dependency edges cut.
    pub removed: usize,
}

/// Table 2's infeasible dependencies, as a cut over the substrate's DDG,
/// which stays as built: for each `add`/`sub` result node, one byte whose
/// bit `i` cuts the edge from operand `i`. The default cuts nothing.
#[derive(Clone, Debug, Default)]
pub struct CutSet {
    operands: Vec<u8>,
}

impl CutSet {
    /// Whether a slice follows the edge of kind `kind` into `to`: value
    /// flow that the cut leaves in place.
    pub fn flows(&self, to: NodeId, kind: DepKind) -> bool {
        let cut = match kind {
            DepKind::Arith { operand, .. } => self
                .operands
                .get(to.index())
                .is_some_and(|&bits| bits >> operand & 1 == 1),
            _ => false,
        };
        kind.is_value_flow() && !cut
    }
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

/// Applies Table 2 to every `add`/`sub` instruction: the operand→result
/// edges of `analysis.ddg` it finds infeasible, with the pass's counters.
pub fn infeasible_deps(
    analysis: &ModuleAnalysis,
    inference: &dyn TypeQuery,
) -> (CutSet, PruneStats) {
    let mut operands = vec![0u8; analysis.ddg.node_count()];
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
            // Bit 0 cuts the lhs edge, bit 1 the rhs edge.
            let cut = match op {
                // Pointer arithmetic: the numeric offset is not an alias
                // of the resulting pointer.
                BinOp::Add if is_ptr(r_ty) => {
                    u8::from(is_num(op1_ty)) | u8::from(is_num(op2_ty)) << 1
                }
                // Pointer difference: the numeric result no longer aliases
                // the pointer operands.
                BinOp::Sub if is_num(r_ty) => {
                    u8::from(is_ptr(op1_ty)) | u8::from(is_ptr(op2_ty)) << 1
                }
                // `ptr = ptr - offset`: the subtrahend is not an alias.
                BinOp::Sub if is_ptr(r_ty) => 0b10,
                _ => 0,
            };
            stats.removed += cut.count_ones() as usize;
            operands[analysis.ddg.node(VarRef::new(fid, *dst)).index()] = cut;
        }
    }
    (CutSet { operands }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicing::{Slicer, SlicerConfig};
    use crate::{detect_bugs, BugKind, CheckerConfig};
    use manta::{Manta, MantaConfig};
    use manta_ir::{ModuleBuilder, Width};
    use std::collections::HashMap;

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
        let (cut, stats) = infeasible_deps(&analysis, &inference);
        assert_eq!(stats.removed, 1, "exactly the off→r edge");
        let ddg = &analysis.ddg;
        let n_off = ddg.node(VarRef::new(fid, off));
        let n_r = ddg.node(VarRef::new(fid, r));
        let n_base = ddg.node(VarRef::new(fid, base));
        assert!(!ddg
            .children(n_off)
            .iter()
            .any(|&(t, k)| t == n_r && cut.flows(t, k)));
        assert!(
            ddg.children(n_base)
                .iter()
                .any(|&(t, k)| t == n_r && cut.flows(t, k)),
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
        let (cut, stats) = infeasible_deps(&analysis, &inference);
        assert_eq!(
            stats.removed, 2,
            "both ptr operands pruned from numeric result"
        );
        let nd = analysis.ddg.node(VarRef::new(fid, d));
        assert!(analysis
            .ddg
            .parents(nd)
            .iter()
            .all(|&(_, k)| !matches!(k, DepKind::Arith { .. }) || !cut.flows(nd, k)));
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
        let (_, stats) = infeasible_deps(&analysis, &inference);
        assert_eq!(stats.examined, 1);
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn a_cut_names_one_operand_of_a_repeated_value() {
        // `r = q - q` with both pointers: only the subtrahend's edge is
        // infeasible, and the minuend's still carries `q` into `r`.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[], Some(Width::W64));
        let k = fb.const_int(64, Width::W64);
        let q = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r = fb.binop(BinOp::Sub, q, q, Width::W64);
        let v = fb.load(r, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let (cut, stats) = infeasible_deps(&analysis, &inference);
        assert_eq!(stats.removed, 1);
        let ddg = &analysis.ddg;
        let (nq, nr) = (ddg.node(VarRef::new(fid, q)), ddg.node(VarRef::new(fid, r)));
        let edges: Vec<bool> = ddg
            .children(nq)
            .iter()
            .filter(|&&(t, _)| t == nr)
            .map(|&(t, k)| cut.flows(t, k))
            .collect();
        assert_eq!(edges, [true, false], "lhs kept, rhs cut");
        let sinks = HashMap::from([(nr, ())]);
        let mut slicer = Slicer::new(ddg, &cut, SlicerConfig::default());
        assert_eq!(slicer.slice(&[nq], &sinks, |_| true).len(), 1);
    }

    #[test]
    fn a_null_whose_only_flow_is_cut_starts_no_slice() {
        // `r = p - null` with `r` dereferenced: the subtrahend's edge is
        // the null's only value-flow child, and Table 2 cuts it.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_, mut fb) = mb.function("f", &[], Some(Width::W64));
        let k = fb.const_int(64, Width::W64);
        let p = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let null = fb.const_null();
        let r = fb.binop(BinOp::Sub, p, null, Width::W64);
        let v = fb.load(r, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let npd = [BugKind::Npd];
        let typed = detect_bugs(&analysis, Some(&inference), &npd, CheckerConfig::default());
        assert_eq!((typed.0.len(), typed.1), (0, 0), "{typed:?}");
        let untyped = detect_bugs(&analysis, None, &npd, CheckerConfig::default());
        assert_eq!(
            untyped.0.len(),
            1,
            "without types the null flows: {untyped:?}"
        );
    }
}
