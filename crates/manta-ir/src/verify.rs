//! Structural IR verification.
//!
//! [`verify_module`] checks the invariants every analysis in the workspace
//! relies on: ids are in range, each instruction-defined value points back
//! at its unique defining instruction, phi incomings name actual
//! predecessors, and call operands match callee arity where known.

use std::fmt;

use crate::function::{Function, Terminator};
use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use crate::value::ValueKind;

/// A verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// The offending function.
    pub func: FuncId,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed in {}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of `module`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for func in module.functions() {
        verify_function(module, func)?;
    }
    Ok(())
}

/// Verifies a single function.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let err = |message: String| VerifyError {
        func: func.id(),
        message,
    };
    let check_value = |v: ValueId| -> Result<(), VerifyError> {
        if v.index() >= func.value_count() {
            return Err(err(format!("value {v} out of range")));
        }
        Ok(())
    };
    let check_block = |b: BlockId| -> Result<(), VerifyError> {
        if b.index() >= func.block_count() {
            return Err(err(format!("block {b} out of range")));
        }
        Ok(())
    };

    // Entry exists.
    check_block(func.entry())?;

    // Each instruction-defined value refers back to a unique def site.
    let mut def_counts = vec![0usize; func.value_count()];
    for inst in func.insts() {
        if let Some(d) = inst.kind.def() {
            check_value(d)?;
            def_counts[d.index()] += 1;
            match func.value(d).kind {
                ValueKind::Inst { def } if def == inst.id => {}
                other => {
                    return Err(err(format!(
                        "value {d} defined by {} but its kind is {other:?}",
                        inst.id
                    )))
                }
            }
        }
        for u in inst.kind.operands() {
            check_value(u)?;
        }
    }
    for (i, &count) in def_counts.iter().enumerate() {
        let v = ValueId::from_index(i);
        match func.value(v).kind {
            ValueKind::Inst { def } => {
                if count != 1 {
                    return Err(err(format!("inst value {v} has {count} defs")));
                }
                if def.index() >= func.inst_count() {
                    return Err(err(format!("value {v} claims out-of-range def {def}")));
                }
            }
            _ => {
                if count != 0 {
                    return Err(err(format!(
                        "non-inst value {v} is defined by an instruction"
                    )));
                }
            }
        }
    }

    // Terminator targets must be validated before building the CFG:
    // Cfg::new indexes successor blocks and would panic on an
    // out-of-range target (reachable through hand-built or lifted
    // modules that bypass the parser's pass-1 checks).
    for block in func.blocks() {
        for s in block.term.successors() {
            check_block(s)?;
        }
    }

    // Blocks own their instructions; terminator targets exist.
    let cfg = crate::cfg::Cfg::new(func);
    for block in func.blocks() {
        for &i in &block.insts {
            if i.index() >= func.inst_count() {
                return Err(err(format!(
                    "block {} lists out-of-range inst {i}",
                    block.id
                )));
            }
            let inst = func.inst(i);
            if inst.block != block.id {
                return Err(err(format!(
                    "inst {i} listed in block {} but tagged {}",
                    block.id, inst.block
                )));
            }
        }
        for u in block.term.uses() {
            check_value(u)?;
        }
        if let Terminator::Ret(Some(_)) = block.term {
            if func.ret_width().is_none() {
                return Err(err(format!(
                    "block {} returns a value from a void function",
                    block.id
                )));
            }
        }
    }

    // Phi incomings come from actual predecessors.
    for inst in func.insts() {
        if let InstKind::Phi { incomings, dst } = &inst.kind {
            if incomings.is_empty() {
                return Err(err(format!("phi {dst} has no incomings")));
            }
            if cfg.is_reachable(inst.block) {
                for (pred, _) in incomings {
                    check_block(*pred)?;
                    if !cfg.preds(inst.block).contains(pred) {
                        return Err(err(format!(
                            "phi {dst} names non-predecessor {pred} of block {}",
                            inst.block
                        )));
                    }
                }
            }
        }
        if let InstKind::Call { callee, args, dst } = &inst.kind {
            match callee {
                Callee::Direct(f) => {
                    if f.index() >= module.function_count() {
                        return Err(err(format!("call to out-of-range function {f}")));
                    }
                    let target = module.function(*f);
                    if args.len() != target.params().len() {
                        return Err(err(format!(
                            "call to {} passes {} args, expects {}",
                            target.name(),
                            args.len(),
                            target.params().len()
                        )));
                    }
                    if dst.is_some() && target.ret_width().is_none() {
                        return Err(err(format!(
                            "call to void function {} expects a result",
                            target.name()
                        )));
                    }
                }
                Callee::Extern(e) => {
                    if e.index() >= module.externs().count() {
                        return Err(err(format!("call to out-of-range extern {e}")));
                    }
                }
                Callee::Indirect(_) => {}
            }
        }
    }
    Ok(())
}

/// Panics with the verifier message if `module` is malformed. Convenient in
/// tests and generators.
///
/// # Panics
///
/// Panics when verification fails.
pub fn assert_valid(module: &Module) {
    if let Err(e) = verify_module(module) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Width;

    #[test]
    fn valid_module_passes() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let c = fb.copy(p);
        fb.ret(Some(c));
        mb.finish_function(fb);
        verify_module(&mb.finish()).unwrap();
    }

    #[test]
    fn rejects_bad_arity_direct_call() {
        let mut mb = ModuleBuilder::new("m");
        let (callee, mut cb) = mb.function("callee", &[Width::W64], None);
        cb.ret(None);
        mb.finish_function(cb);
        let (_, mut fb) = mb.function("caller", &[], None);
        fb.call(callee, &[], None); // missing the argument
        fb.ret(None);
        mb.finish_function(fb);
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.message.contains("passes 0 args"), "{e}");
    }

    #[test]
    fn rejects_ret_value_from_void_function() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], None);
        let p = fb.param(0);
        fb.ret(Some(p));
        mb.finish_function(fb);
        assert!(verify_module(&mb.finish()).is_err());
    }

    #[test]
    fn rejects_out_of_range_successor_without_panicking() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], None);
        fb.br(crate::ids::BlockId(99));
        mb.finish_function(fb);
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_phi_from_non_predecessor() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let other = fb.new_block();
        let next = fb.new_block();
        fb.br(next);
        fb.switch_to(next);
        // `other` is not a predecessor of `next`.
        let ph = fb.phi(&[(other, p)], Width::W64);
        fb.ret(Some(ph));
        mb.finish_function(fb);
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.message.contains("non-predecessor"), "{e}");
    }
}
