//! Lifting SB-ISA machine code to `manta-ir` SSA.
//!
//! This is the reproduction's counterpart of the paper's RetDec stage:
//! "we utilize binary lifter to translate binary code to LLVM IR, in which
//! binary registers and arguments are translated to SSA value\[s\]" (§3).
//!
//! The lifting skeleton ([`manta_ir::lift`]) recovers the blocks, renames
//! registers and assembles the module; this module supplies SB-ISA's
//! semantics: where `jmp`, `brz` and `ret` send control, and what every
//! other instruction computes. `salloc` reserves a stack slot, and `brz`
//! falls through when its register is non-zero. No type information
//! exists at this level; every lifted value carries only its machine
//! width.

use manta_ir::lift::{Body, CallTarget, Flow, Isa, ModuleLifter, MAX_REG_ARGS};
use manta_ir::{CmpPred, Frontend, FrontendError, InstKind, Module, ValueId, Width};

pub use manta_ir::lift::LiftError;

use crate::image::{Image, ImageError};
use crate::inst::{MachInst, Reg};

impl From<ImageError> for LiftError {
    fn from(e: ImageError) -> LiftError {
        LiftError::new(e.message)
    }
}

/// Lifts a decoded image to an IR module.
///
/// # Errors
///
/// Returns [`LiftError`] when the machine code is structurally invalid
/// (out-of-range targets or indexes, too many register arguments).
pub fn lift(image: &Image) -> Result<Module, LiftError> {
    let mut lifter = ModuleLifter::new(
        &image.name,
        image
            .externs
            .iter()
            .map(|e| (e.name.as_str(), e.nparams, e.has_ret)),
        image.globals.iter().map(|g| (g.name.as_str(), g.size)),
        image
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.nparams, f.has_ret)),
    )?;
    for (i, f) in image.functions.iter().enumerate() {
        lifter.lift_function(i, &mut Code(&f.code))?;
    }
    manta_telemetry::counter("lift.insts_decoded", image.total_insts() as u64);
    lifter.finish()
}

/// One function's SB-ISA code.
struct Code<'a>(&'a [MachInst]);

impl Isa for Code<'_> {
    type Reg = Reg;
    const ARGS: [Reg; MAX_REG_ARGS] = [Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6)];
    const RET: Reg = Reg::RET;

    fn inst_count(&self) -> usize {
        self.0.len()
    }

    fn flow(&self, i: usize) -> Result<Flow, LiftError> {
        Ok(match self.0[i] {
            MachInst::Jmp { target } => Flow::Jump(target as usize),
            MachInst::Brz { target, .. } => Flow::Branch(target as usize),
            MachInst::Ret => Flow::Return,
            _ => Flow::Next,
        })
    }

    fn translate(
        &mut self,
        body: &mut Body<'_, Reg>,
        i: usize,
    ) -> Result<Option<ValueId>, LiftError> {
        match self.0[i] {
            MachInst::Mov { rd, rs } => {
                let src = body.read(rs);
                let v = body.emit(body.width(src), |dst| InstKind::Copy { dst, src });
                body.write(rd, v);
            }
            MachInst::MovImm { rd, imm } => {
                let v = body.const_int(imm, Width::W64);
                body.write(rd, v);
            }
            MachInst::MovFloat { rd, imm } => {
                let v = body.const_float(imm);
                body.write(rd, v);
            }
            MachInst::Bin { op, rd, rs, rt } => {
                let lhs = body.read(rs);
                let rhs = body.read(rt);
                let v = body.emit(Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                body.write(rd, v);
            }
            MachInst::Cmp { pred, rd, rs, rt } => {
                let lhs = body.read(rs);
                let rhs = body.read(rt);
                let v = body.emit(Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred,
                    lhs,
                    rhs,
                });
                body.write(rd, v);
            }
            MachInst::Load { width, rd, rs, off } => {
                let addr = offset_addr(body, rs, off);
                let v = body.emit(width, |dst| InstKind::Load { dst, addr, width });
                body.write(rd, v);
            }
            MachInst::Store { rd, off, rs, .. } => {
                let addr = offset_addr(body, rd, off);
                let val = body.read(rs);
                body.append(InstKind::Store { addr, val });
            }
            MachInst::Salloc { rd, size } => {
                let v = body.emit(Width::W64, |dst| InstKind::Alloca {
                    dst,
                    size: size as u64,
                });
                body.write(rd, v);
            }
            MachInst::LeaGlobal { rd, index } => {
                let v = body.global_addr(index as usize)?;
                body.write(rd, v);
            }
            MachInst::LeaFunc { rd, index } => {
                let v = body.func_addr(index as usize)?;
                body.write(rd, v);
            }
            MachInst::Call { index, nargs } => {
                body.call(CallTarget::Function(index as usize), nargs.into())?;
            }
            MachInst::ECall { index, nargs } => {
                body.call(CallTarget::Extern(index as usize), nargs.into())?;
            }
            MachInst::ICall { rs, nargs, ret } => {
                let fp = body.read(rs);
                let ret = ret.then_some(Width::W64);
                body.call(CallTarget::Indirect(fp, ret), nargs.into())?;
            }
            MachInst::Brz { rs, .. } => {
                // The branch falls through when `rs` is non-zero; a wider
                // register becomes the i1 `rs != 0`.
                let cond = body.read(rs);
                let width = body.width(cond);
                if width == Width::W1 {
                    return Ok(Some(cond));
                }
                let zero = body.const_int(0, width);
                return Ok(Some(body.emit(Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred: CmpPred::Ne,
                    lhs: cond,
                    rhs: zero,
                })));
            }
            MachInst::Jmp { .. } | MachInst::Ret => {}
        }
        Ok(None)
    }
}

/// The address `[base + off]`: the register itself, or a `gep` off it.
fn offset_addr(body: &mut Body<'_, Reg>, base: Reg, off: u32) -> ValueId {
    let base = body.read(base);
    if off == 0 {
        return base;
    }
    body.emit(Width::W64, |dst| InstKind::Gep {
        dst,
        base,
        offset: off as u64,
    })
}

/// The SB-ISA frontend plugin: recognizes SBF images by their `SBF1`
/// magic and lifts them via [`lift`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SbFrontend;

impl Frontend for SbFrontend {
    fn name(&self) -> &'static str {
        "sb"
    }

    fn describe(&self) -> &'static str {
        "SB-ISA synthetic register machine (SBF container, magic \"SBF1\")"
    }

    fn detects(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(crate::image::MAGIC)
    }

    fn lift_bytes(&self, bytes: &[u8]) -> Result<Module, FrontendError> {
        let image = crate::image::decode(bytes).map_err(|e| FrontendError::new(e.to_string()))?;
        lift(&image).map_err(|e| FrontendError::new(e.message))
    }
}

#[cfg(test)]
mod tests {
    use manta_ir::{Callee, ConstKind, Terminator, ValueKind};

    use super::*;
    use crate::asm::assemble;

    fn lift_text(text: &str) -> Module {
        lift(&assemble(text).unwrap()).unwrap()
    }

    #[test]
    fn lifts_straightline_function() {
        let m = lift_text(
            "module m\nextern malloc, 1, ret\nfunc f(1) -> ret {\n    mov r2, r1\n    ecall malloc, 1\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(f.params().len(), 1);
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Call { .. })));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::Ret(Some(_)))));
    }

    #[test]
    fn lifts_branch_with_phi() {
        // r2 = 1 on one path, 2 on the other; returned after the join.
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    brz r1, zero\n    movi r2, 1\n    jmp done\nzero:\n    movi r2, 2\ndone:\n    mov r0, r2\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let phis = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
            .count();
        assert_eq!(phis, 1, "one phi for r2 at the join");
    }

    #[test]
    fn lifts_loop_with_phi() {
        let m = lift_text(
            "module m\nfunc count(1) -> ret {\nhead:\n    brz r1, done\n    movi r2, 1\n    sub r1, r1, r2\n    jmp head\ndone:\n    mov r0, r1\n    ret\n}\n",
        );
        let f = m.function_by_name("count").unwrap();
        assert!(
            f.insts().any(|i| matches!(i.kind, InstKind::Phi { .. })),
            "loop-carried r1 needs a phi"
        );
        manta_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn undefined_register_reads_become_undef() {
        let m = lift_text("module m\nfunc f(0) -> ret {\n    mov r0, r9\n    ret\n}\n");
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::Const(ConstKind::Undef))));
    }

    #[test]
    fn lea_f_marks_address_taken() {
        let m = lift_text(
            "module m\nfunc helper(0) -> void {\n    ret\n}\nfunc f(0) -> void {\n    lea.f r1, helper\n    icall r1, 0\n    ret\n}\n",
        );
        assert!(m.function_by_name("helper").unwrap().is_address_taken());
        assert!(!m.function_by_name("f").unwrap().is_address_taken());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let text = "module m\nfunc g(2) -> void {\n    ret\n}\nfunc f(0) -> void {\n    call g, 1\n    ret\n}\n";
        let e = lift(&assemble(text).unwrap()).unwrap_err();
        assert!(e.message.contains("passes 1 args"), "{e}");
    }

    #[test]
    fn repeated_extern_names_share_one_declaration() {
        let m = lift_text(
            "module m\nextern alpha, 1\nextern alpha, 1\nextern beta, 1, ret\nfunc main(0) -> ret {\n    movi r1, 3\n    ecall beta, 1\n    ret\n}\n",
        );
        assert_eq!(m.externs().count(), 2);
        let main = m.function_by_name("main").unwrap();
        let callee = main
            .insts()
            .find_map(|i| match i.kind {
                InstKind::Call {
                    callee: Callee::Extern(e),
                    ..
                } => Some(e),
                _ => None,
            })
            .expect("ecall lifted");
        assert_eq!(m.extern_decl(callee).name, "beta");
    }

    #[test]
    fn calls_with_seven_register_arguments_are_rejected() {
        for call in ["ecall wide, 7", "lea.f r8, main\n    icall r8, 7"] {
            let text = format!(
                "module m\nextern wide, 7\nfunc main(0) -> void {{\n    {call}\n    ret\n}}\n"
            );
            let e = lift(&assemble(&text).unwrap()).unwrap_err();
            assert!(e.message.contains("at most 6"), "{call}: {e}");
        }
    }

    #[test]
    fn memory_offsets_lift_to_gep() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    ld.w32 r0, [r1+12]\n    st.w64 [r1+8], r0\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let geps = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Gep { .. }))
            .count();
        assert_eq!(geps, 2);
        // The load destination carries the access width.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Load {
                width: Width::W32,
                ..
            }
        )));
    }
}
