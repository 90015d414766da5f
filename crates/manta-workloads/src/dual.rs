//! Dual-encoding emission: one typed spec, two machine encodings.
//!
//! The generator produces stripped [`manta_ir::Module`]s directly. This
//! module *lowers* such a module to machine code for **both** frontends —
//! SB-ISA (`manta-isa`) and the x86-64 subset (`manta-x86`) — from a single
//! shared register-allocation and layout decision sequence, so that lifting
//! either image reconstructs the *same* IR, instruction for instruction and
//! value for value. That is the property the differential frontend tests
//! pin: identical lifted IR makes the (deterministic) inference engine
//! produce bit-identical types from either encoding.
//!
//! The lowering is a classic linear-scan pipeline shared between backends:
//!
//! 1. **Fusion analysis.** `gep`s whose every use is a memory-access
//!    address fold into load/store displacements; the `cmp` feeding each
//!    `condbr` fuses into the branch (SB `cmp.Q` + `brz`, x86 `cmp` +
//!    `jcc`). Standalone compares are outside both subsets and rejected.
//! 2. **Liveness + linear scan.** Values are assigned *abstract* locations:
//!    one of five callee-saved homes, or a spill slot. The abstract
//!    assignment is target-independent; each backend maps homes to its own
//!    registers (SB `r8..r12`, x86 `rbx/r12..r15`) and spill slots to its
//!    own frame (SB a `salloc`'d area addressed off `r7`, x86 direct
//!    `[rbp-off]` accesses below the `lea`-rooted slots — exactly the
//!    layout the x86 lifter re-derives as its *residual* alloca).
//! 3. **Emission.** Block layout, copy placement, staging through the two
//!    scratch registers and immediate materialization are decided once by
//!    the driver; the `Backend` trait renders each decision as SB-ISA or
//!    x86 instructions with identical lifted-IR shape.
//!
//! Frame-layout parity is the delicate part: IR allocas become SB `salloc`s
//! in program order and x86 `lea`-rooted slots laid out so the j-th alloca
//! sits at `-(size_j + size_{j+1} + …)` — the x86 lifter's gap-sizing then
//! recovers each slot with its exact source size. Spill slot `i` lives at
//! SB `[r7 + 8i]` and x86 `[rbp - (S + 8(n-i))]`, which both lift to
//! `gep(residual, 8i)`.

use std::collections::{HashMap, HashSet};
use std::fmt;

use manta_ir::{
    BinOp, BlockId, Callee, CmpPred, ConstKind, Function, InstId, InstKind, Module, Terminator,
    ValueId, ValueKind, Width,
};
use manta_isa::image as sb_image;
use manta_isa::inst::{MachInst, Reg};
use manta_x86::{Alu, Cc, Gpr, ImageBuilder, Inst as XInst, Mem, OpWidth, Rm, Shift, SymInst};

/// Lowering failure: the module uses a construct outside the common
/// machine subset (e.g. `div`, a standalone `cmp`, a float constant).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmitError {
    /// Description.
    pub message: String,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "emit error: {}", self.message)
    }
}

impl std::error::Error for EmitError {}

fn err<T>(message: impl Into<String>) -> Result<T, EmitError> {
    Err(EmitError {
        message: message.into(),
    })
}

/// Both machine encodings of one module.
#[derive(Debug)]
pub struct DualEncoding {
    /// The SB-ISA image.
    pub sb: sb_image::Image,
    /// The x86-64-subset (XLF) image.
    pub x86: manta_x86::Image,
}

impl DualEncoding {
    /// Serialized SBF container bytes.
    pub fn sb_bytes(&self) -> Vec<u8> {
        sb_image::encode(&self.sb)
    }

    /// Serialized XLF container bytes.
    pub fn x86_bytes(&self) -> Vec<u8> {
        manta_x86::encode_image(&self.x86)
    }
}

// ---------------------------------------------------------------------------
// Abstract machine model shared by both backends.
// ---------------------------------------------------------------------------

/// Number of allocatable home registers (the backends' common minimum).
const N_HOMES: u8 = 5;

/// An abstract register, mapped per-backend to a physical one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AReg {
    /// Callee-saved home `0..N_HOMES`.
    Home(u8),
    /// Primary scratch (address staging, sunk results).
    S0,
    /// Secondary scratch (operand staging, copy-cycle buffer).
    S1,
    /// Argument register `0..6` in ABI order.
    Arg(u8),
    /// Return-value register.
    Ret,
}

/// Where a value lives between its definition and last use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    Home(u8),
    Spill(u32),
}

/// The right operand of a fused compare.
#[derive(Clone, Copy)]
enum CondRhs {
    Reg(AReg),
    Imm(i64),
}

/// Per-function frame layout, decided by the driver.
#[derive(Clone, Debug, Default)]
struct FrameInfo {
    /// IR alloca sizes in program order.
    alloca_sizes: Vec<u64>,
    /// Spill-slot count.
    n_spills: u32,
}

impl FrameInfo {
    fn total(&self) -> u64 {
        self.alloca_sizes.iter().sum::<u64>() + 8 * u64::from(self.n_spills)
    }
}

/// One backend's instruction selection. Every method renders exactly the
/// IR shape documented on it, so the two implementations stay lift-parallel.
trait Backend {
    fn begin_function(&mut self, frame: &FrameInfo);
    /// Binds `b`'s label to the next instruction.
    fn label(&mut self, b: BlockId);
    /// Register move; lifts to `copy`.
    fn copy(&mut self, dst: AReg, src: AReg);
    /// Immediate materialization; lifts to a bound constant (no inst).
    fn imm(&mut self, dst: AReg, v: i64);
    /// Memory read; lifts to `[gep +] load.<w>`.
    fn load(&mut self, w: Width, dst: AReg, base: AReg, off: u32);
    /// 64-bit memory write; lifts to `[gep +] store`.
    fn store(&mut self, base: AReg, off: u32, src: AReg);
    /// Read of spill slot `slot`; lifts to `[gep +] load.w64` off the
    /// residual alloca.
    fn spill_load(&mut self, dst: AReg, slot: u32);
    /// Write of spill slot `slot`; lifts to `[gep +] store`.
    fn spill_store(&mut self, slot: u32, src: AReg);
    /// Materializes IR alloca `index`; lifts to `alloca`.
    fn alloca(&mut self, dst: AReg, index: usize);
    /// Two-address `dst = dst op src`; lifts to `binop`.
    fn binop(&mut self, op: BinOp, dst: AReg, src: AReg);
    /// `dst = dst op imm`; lifts to a bound constant + `binop`.
    fn binop_imm(&mut self, op: BinOp, dst: AReg, imm: i64);
    /// In-place sign extension of the low `bits` of `dst`; lifts to the
    /// shift-up/shift-down pair (two bound constants + two `binop`s).
    /// x86 renders this as a single `movsx`; SB as two shift ops.
    fn sext(&mut self, dst: AReg, bits: u8);
    /// Global address; lifts to a bound `global` value (no inst).
    fn lea_global(&mut self, dst: AReg, index: u32, name: &str);
    /// Function address; lifts to a bound `func` value (no inst).
    fn lea_func(&mut self, dst: AReg, index: u32, name: &str);
    fn call_direct(&mut self, index: u32, name: &str, nargs: u8);
    fn call_extern(&mut self, index: u32, name: &str, nargs: u8);
    fn call_indirect(&mut self, fp: AReg, nargs: u8);
    /// Fused compare-and-branch; lifts to `cmp.<pred>` + `condbr` whose
    /// then-edge is the following `jmp then_bb` trampoline.
    fn cond_branch(
        &mut self,
        pred: CmpPred,
        lhs: AReg,
        rhs: CondRhs,
        else_bb: BlockId,
        then_bb: BlockId,
    );
    fn jmp(&mut self, target: BlockId);
    fn ret(&mut self);
    fn end_function(&mut self, name: &str, nparams: u8, has_ret: bool);
}

// ---------------------------------------------------------------------------
// SB-ISA backend.
// ---------------------------------------------------------------------------

/// Register plan: `r0` return, `r1..r6` args, `r7` spill base, `r8..r12`
/// homes, `r13`/`r14` scratch, `r15` immediate staging.
fn sb_reg(a: AReg) -> Reg {
    match a {
        AReg::Ret => Reg::RET,
        AReg::Arg(i) => Reg::arg(i as usize),
        AReg::Home(h) => Reg(8 + h),
        AReg::S0 => Reg(13),
        AReg::S1 => Reg(14),
    }
}

const SB_IMM: Reg = Reg(15);
const SB_SPILL_BASE: Reg = Reg(7);

struct SbBackend {
    image: sb_image::Image,
    code: Vec<MachInst>,
    labels: HashMap<BlockId, u32>,
    fixups: Vec<(usize, BlockId)>,
    frame: FrameInfo,
}

impl SbBackend {
    fn new(name: &str) -> SbBackend {
        SbBackend {
            image: sb_image::Image {
                name: name.to_string(),
                ..Default::default()
            },
            code: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            frame: FrameInfo::default(),
        }
    }
}

impl Backend for SbBackend {
    fn begin_function(&mut self, frame: &FrameInfo) {
        self.code.clear();
        self.labels.clear();
        self.fixups.clear();
        self.frame = frame.clone();
        if frame.n_spills > 0 {
            // The spill area is the first instruction, where the x86
            // lifter emits its residual alloca.
            self.code.push(MachInst::Salloc {
                rd: SB_SPILL_BASE,
                size: 8 * frame.n_spills,
            });
        }
    }

    fn label(&mut self, b: BlockId) {
        self.labels.insert(b, self.code.len() as u32);
    }

    fn copy(&mut self, dst: AReg, src: AReg) {
        self.code.push(MachInst::Mov {
            rd: sb_reg(dst),
            rs: sb_reg(src),
        });
    }

    fn imm(&mut self, dst: AReg, v: i64) {
        self.code.push(MachInst::MovImm {
            rd: sb_reg(dst),
            imm: v,
        });
    }

    fn load(&mut self, w: Width, dst: AReg, base: AReg, off: u32) {
        self.code.push(MachInst::Load {
            width: w,
            rd: sb_reg(dst),
            rs: sb_reg(base),
            off,
        });
    }

    fn store(&mut self, base: AReg, off: u32, src: AReg) {
        self.code.push(MachInst::Store {
            width: Width::W64,
            rd: sb_reg(base),
            off,
            rs: sb_reg(src),
        });
    }

    fn spill_load(&mut self, dst: AReg, slot: u32) {
        self.code.push(MachInst::Load {
            width: Width::W64,
            rd: sb_reg(dst),
            rs: SB_SPILL_BASE,
            off: 8 * slot,
        });
    }

    fn spill_store(&mut self, slot: u32, src: AReg) {
        self.code.push(MachInst::Store {
            width: Width::W64,
            rd: SB_SPILL_BASE,
            off: 8 * slot,
            rs: sb_reg(src),
        });
    }

    fn alloca(&mut self, dst: AReg, index: usize) {
        self.code.push(MachInst::Salloc {
            rd: sb_reg(dst),
            size: self.frame.alloca_sizes[index] as u32,
        });
    }

    fn binop(&mut self, op: BinOp, dst: AReg, src: AReg) {
        self.code.push(MachInst::Bin {
            op,
            rd: sb_reg(dst),
            rs: sb_reg(dst),
            rt: sb_reg(src),
        });
    }

    fn binop_imm(&mut self, op: BinOp, dst: AReg, imm: i64) {
        self.code.push(MachInst::MovImm { rd: SB_IMM, imm });
        self.code.push(MachInst::Bin {
            op,
            rd: sb_reg(dst),
            rs: sb_reg(dst),
            rt: SB_IMM,
        });
    }

    fn sext(&mut self, dst: AReg, bits: u8) {
        // No sign-extending move in SB-ISA: stage the canonical
        // shift-up/shift-down pair, which lifts exactly like the x86
        // side's `movsx`.
        self.binop_imm(BinOp::Shl, dst, i64::from(64 - bits));
        self.binop_imm(BinOp::Shr, dst, i64::from(64 - bits));
    }

    fn lea_global(&mut self, dst: AReg, index: u32, _name: &str) {
        self.code.push(MachInst::LeaGlobal {
            rd: sb_reg(dst),
            index,
        });
    }

    fn lea_func(&mut self, dst: AReg, index: u32, _name: &str) {
        self.code.push(MachInst::LeaFunc {
            rd: sb_reg(dst),
            index,
        });
    }

    fn call_direct(&mut self, index: u32, _name: &str, nargs: u8) {
        self.code.push(MachInst::Call { index, nargs });
    }

    fn call_extern(&mut self, index: u32, _name: &str, nargs: u8) {
        self.code.push(MachInst::ECall { index, nargs });
    }

    fn call_indirect(&mut self, fp: AReg, nargs: u8) {
        // `ret: true` always: the x86 side cannot express "no return" (its
        // lifter conservatively assumes indirect callees return), so both
        // encodings must agree.
        self.code.push(MachInst::ICall {
            rs: sb_reg(fp),
            nargs,
            ret: true,
        });
    }

    fn cond_branch(
        &mut self,
        pred: CmpPred,
        lhs: AReg,
        rhs: CondRhs,
        else_bb: BlockId,
        then_bb: BlockId,
    ) {
        let rt = match rhs {
            CondRhs::Imm(c) => {
                self.code.push(MachInst::MovImm { rd: SB_IMM, imm: c });
                SB_IMM
            }
            CondRhs::Reg(r) => sb_reg(r),
        };
        self.code.push(MachInst::Cmp {
            pred,
            rd: sb_reg(AReg::S0),
            rs: sb_reg(lhs),
            rt,
        });
        self.fixups.push((self.code.len(), else_bb));
        self.code.push(MachInst::Brz {
            rs: sb_reg(AReg::S0),
            target: 0,
        });
        self.fixups.push((self.code.len(), then_bb));
        self.code.push(MachInst::Jmp { target: 0 });
    }

    fn jmp(&mut self, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.code.push(MachInst::Jmp { target: 0 });
    }

    fn ret(&mut self) {
        self.code.push(MachInst::Ret);
    }

    fn end_function(&mut self, name: &str, nparams: u8, has_ret: bool) {
        for &(pos, b) in &self.fixups {
            let t = self.labels[&b];
            match &mut self.code[pos] {
                MachInst::Jmp { target } | MachInst::Brz { target, .. } => *target = t,
                _ => unreachable!("fixup points at a branch"),
            }
        }
        self.image.functions.push(sb_image::ImageFunction {
            name: name.to_string(),
            nparams,
            has_ret,
            code: std::mem::take(&mut self.code),
        });
    }
}

// ---------------------------------------------------------------------------
// x86-64 backend.
// ---------------------------------------------------------------------------

/// Register plan: `rax` return, SysV args, `rbx/r12..r15` homes,
/// `r10`/`r11` scratch (`r11` doubles as immediate staging), `rbp`/`rsp`
/// reserved for the frame.
fn x_reg(a: AReg) -> Gpr {
    match a {
        AReg::Ret => Gpr::RAX,
        AReg::Arg(i) => Gpr::arg(i as usize),
        AReg::Home(h) => [Gpr::RBX, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15][h as usize],
        AReg::S0 => Gpr::R10,
        AReg::S1 => Gpr::R11,
    }
}

fn cc_for(pred: CmpPred) -> Cc {
    match pred {
        CmpPred::Eq => Cc::E,
        CmpPred::Ne => Cc::Ne,
        CmpPred::Lt => Cc::L,
        CmpPred::Le => Cc::Le,
        CmpPred::Gt => Cc::G,
        CmpPred::Ge => Cc::Ge,
    }
}

struct X86Backend {
    builder: ImageBuilder,
    body: Vec<SymInst>,
    /// Per-alloca `rbp` displacements (negative), program order.
    alloca_disp: Vec<i32>,
    /// `rbp` displacement of spill slot 0 (slot `i` is `8i` above it).
    spill_disp: i32,
    has_frame: bool,
}

impl X86Backend {
    fn new(name: &str) -> X86Backend {
        X86Backend {
            builder: ImageBuilder::new(name),
            body: Vec::new(),
            alloca_disp: Vec::new(),
            spill_disp: 0,
            has_frame: false,
        }
    }

    fn push(&mut self, inst: XInst) {
        self.body.push(SymInst::Real(inst));
    }

    fn spill_mem(&mut self, slot: u32) -> Mem {
        Mem::Base {
            base: Gpr::RBP,
            disp: self.spill_disp + 8 * slot as i32,
        }
    }
}

impl Backend for X86Backend {
    fn begin_function(&mut self, frame: &FrameInfo) {
        self.body.clear();
        let s: u64 = frame.alloca_sizes.iter().sum();
        let total = frame.total();
        // Alloca j sits at -(size_j + ... + size_last): the first alloca is
        // the deepest, so sorted lea offsets recover program order and the
        // gap to the next slot (or 0) is exactly the alloca's size.
        self.alloca_disp.clear();
        let mut below: u64 = s;
        for &sz in &frame.alloca_sizes {
            self.alloca_disp.push(-(below as i32));
            below -= sz;
        }
        // Spill slot i at -(S + 8(n-i)): slot 0 is the frame's lowest
        // address, so the lifter's residual area starts there and
        // `gep(residual, 8i)` matches SB's `[r7 + 8i]`.
        self.spill_disp = -((s + 8 * u64::from(frame.n_spills)) as i32);
        self.has_frame = total > 0;
        if self.has_frame {
            self.push(XInst::Push { reg: Gpr::RBP });
            self.push(XInst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RBP,
                src: Gpr::RSP,
            });
            self.push(XInst::AluRI {
                op: Alu::Sub,
                dst: Gpr::RSP,
                imm: total as i32,
            });
        }
    }

    fn label(&mut self, b: BlockId) {
        self.body.push(SymInst::Label(format!("b{}", b.0)));
    }

    fn copy(&mut self, dst: AReg, src: AReg) {
        self.push(XInst::MovRR {
            w: OpWidth::B64,
            dst: x_reg(dst),
            src: x_reg(src),
        });
    }

    fn imm(&mut self, dst: AReg, v: i64) {
        self.push(XInst::MovRI {
            dst: x_reg(dst),
            imm: v,
        });
    }

    fn load(&mut self, w: Width, dst: AReg, base: AReg, off: u32) {
        let mem = Mem::Base {
            base: x_reg(base),
            disp: off as i32,
        };
        match w {
            Width::W64 | Width::W32 => self.push(XInst::MovLoad {
                w: if w == Width::W64 {
                    OpWidth::B64
                } else {
                    OpWidth::B32
                },
                dst: x_reg(dst),
                mem,
            }),
            Width::W16 | Width::W8 => self.push(XInst::MovZx {
                from: if w == Width::W16 {
                    OpWidth::B16
                } else {
                    OpWidth::B8
                },
                dst: x_reg(dst),
                src: Rm::Mem(mem),
            }),
            Width::W1 => unreachable!("driver rejects W1 loads"),
        }
    }

    fn store(&mut self, base: AReg, off: u32, src: AReg) {
        self.push(XInst::MovStore {
            w: OpWidth::B64,
            mem: Mem::Base {
                base: x_reg(base),
                disp: off as i32,
            },
            src: x_reg(src),
        });
    }

    fn spill_load(&mut self, dst: AReg, slot: u32) {
        let mem = self.spill_mem(slot);
        self.push(XInst::MovLoad {
            w: OpWidth::B64,
            dst: x_reg(dst),
            mem,
        });
    }

    fn spill_store(&mut self, slot: u32, src: AReg) {
        let mem = self.spill_mem(slot);
        self.push(XInst::MovStore {
            w: OpWidth::B64,
            mem,
            src: x_reg(src),
        });
    }

    fn alloca(&mut self, dst: AReg, index: usize) {
        let disp = self.alloca_disp[index];
        self.push(XInst::Lea {
            dst: x_reg(dst),
            mem: Mem::Base {
                base: Gpr::RBP,
                disp,
            },
        });
    }

    fn binop(&mut self, op: BinOp, dst: AReg, src: AReg) {
        let alu = match op {
            BinOp::Add => Alu::Add,
            BinOp::Sub => Alu::Sub,
            BinOp::Mul => Alu::Mul,
            BinOp::And => Alu::And,
            BinOp::Or => Alu::Or,
            BinOp::Xor => Alu::Xor,
            BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr => {
                unreachable!("driver stages these away from the register form")
            }
        };
        self.push(XInst::AluRR {
            op: alu,
            dst: x_reg(dst),
            src: x_reg(src),
        });
    }

    fn binop_imm(&mut self, op: BinOp, dst: AReg, imm: i64) {
        match op {
            BinOp::Shl | BinOp::Shr => self.push(XInst::ShiftRI {
                sh: if op == BinOp::Shl {
                    Shift::Shl
                } else {
                    Shift::Shr
                },
                dst: x_reg(dst),
                amt: imm as u8,
            }),
            _ => {
                if i32::try_from(imm).is_ok() {
                    let alu = match op {
                        BinOp::Add => Alu::Add,
                        BinOp::Sub => Alu::Sub,
                        BinOp::Mul => Alu::Mul,
                        BinOp::And => Alu::And,
                        BinOp::Or => Alu::Or,
                        BinOp::Xor => Alu::Xor,
                        _ => unreachable!(),
                    };
                    self.push(XInst::AluRI {
                        op: alu,
                        dst: x_reg(dst),
                        imm: imm as i32,
                    });
                } else {
                    // Same lifted IR (bound constant + binop), staged
                    // through `r11` because the immediate form is 32-bit.
                    self.imm(AReg::S1, imm);
                    self.binop(op, dst, AReg::S1);
                }
            }
        }
    }

    fn sext(&mut self, dst: AReg, bits: u8) {
        let from = match bits {
            8 => OpWidth::B8,
            16 => OpWidth::B16,
            32 => OpWidth::B32,
            _ => unreachable!("driver only fuses 8/16/32-bit sign extensions"),
        };
        self.push(XInst::MovSx {
            from,
            dst: x_reg(dst),
            src: Rm::Reg(x_reg(dst)),
        });
    }

    fn lea_global(&mut self, dst: AReg, _index: u32, name: &str) {
        self.body
            .push(SymInst::LeaGlobal(x_reg(dst), name.to_string()));
    }

    fn lea_func(&mut self, dst: AReg, _index: u32, name: &str) {
        self.body
            .push(SymInst::LeaFunc(x_reg(dst), name.to_string()));
    }

    fn call_direct(&mut self, _index: u32, name: &str, _nargs: u8) {
        self.body.push(SymInst::CallFunc(name.to_string()));
    }

    fn call_extern(&mut self, _index: u32, name: &str, _nargs: u8) {
        self.body.push(SymInst::CallExtern(name.to_string()));
    }

    fn call_indirect(&mut self, fp: AReg, _nargs: u8) {
        self.push(XInst::CallInd { reg: x_reg(fp) });
    }

    fn cond_branch(
        &mut self,
        pred: CmpPred,
        lhs: AReg,
        rhs: CondRhs,
        else_bb: BlockId,
        then_bb: BlockId,
    ) {
        match rhs {
            CondRhs::Imm(c) => {
                if let Ok(imm) = i32::try_from(c) {
                    self.push(XInst::AluRI {
                        op: Alu::Cmp,
                        dst: x_reg(lhs),
                        imm,
                    });
                } else {
                    self.imm(AReg::S1, c);
                    self.push(XInst::AluRR {
                        op: Alu::Cmp,
                        dst: x_reg(lhs),
                        src: x_reg(AReg::S1),
                    });
                }
            }
            CondRhs::Reg(r) => self.push(XInst::AluRR {
                op: Alu::Cmp,
                dst: x_reg(lhs),
                src: x_reg(r),
            }),
        }
        // `j<!pred> else`: the fallthrough (then-edge) is taken exactly
        // when `pred` holds, and the lifter materializes
        // `cmp.<!cc.pred()> = cmp.<pred>` — matching SB's `cmp.Q` + `brz`.
        self.body.push(SymInst::JccLabel(
            cc_for(pred).negate(),
            format!("b{}", else_bb.0),
        ));
        self.body.push(SymInst::JmpLabel(format!("b{}", then_bb.0)));
    }

    fn jmp(&mut self, target: BlockId) {
        self.body.push(SymInst::JmpLabel(format!("b{}", target.0)));
    }

    fn ret(&mut self) {
        if self.has_frame {
            self.push(XInst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RSP,
                src: Gpr::RBP,
            });
            self.push(XInst::Pop { reg: Gpr::RBP });
        }
        self.push(XInst::Ret);
    }

    fn end_function(&mut self, name: &str, nparams: u8, has_ret: bool) {
        self.builder
            .function(name, nparams, has_ret, std::mem::take(&mut self.body));
    }
}

// ---------------------------------------------------------------------------
// The shared lowering driver.
// ---------------------------------------------------------------------------

/// Where a value's bits come from at a use site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VSrc {
    Loc(Loc),
    Const(i64),
    Global(u32),
    Func(u32),
}

/// One pending phi move at a predecessor's end.
struct PhiCopy {
    dst: Loc,
    src: CopySrc,
}

#[derive(Clone, Copy)]
enum CopySrc {
    Val(ValueId),
    /// Rewritten to the cycle buffer.
    Reg(AReg),
}

struct Lowering<'a> {
    module: &'a Module,
    func: &'a Function,
    fnames: &'a [String],
    gnames: &'a [String],
    enames: &'a [String],
    /// Fused `gep` value → (base, offset).
    fused_gep: HashMap<ValueId, (ValueId, u64)>,
    /// Instructions that emit no code of their own (phis, fused geps and
    /// compares, dead geps).
    skip: HashSet<InstId>,
    /// Fused compare per conditional block.
    fused_cmp: HashMap<BlockId, (CmpPred, ValueId, ValueId)>,
    /// Fused sign-extension idiom, keyed by the `shr` instruction:
    /// (value being extended, source bit width).
    fused_sext: HashMap<InstId, (ValueId, u8)>,
    loc: HashMap<ValueId, Loc>,
    alloca_of: HashMap<InstId, usize>,
    frame: FrameInfo,
}

impl<'a> Lowering<'a> {
    fn build(
        module: &'a Module,
        func: &'a Function,
        fnames: &'a [String],
        gnames: &'a [String],
        enames: &'a [String],
    ) -> Result<Lowering<'a>, EmitError> {
        let mut low = Lowering {
            module,
            func,
            fnames,
            gnames,
            enames,
            fused_gep: HashMap::new(),
            skip: HashSet::new(),
            fused_cmp: HashMap::new(),
            fused_sext: HashMap::new(),
            loc: HashMap::new(),
            alloca_of: HashMap::new(),
            frame: FrameInfo::default(),
        };
        if func.params().len() > 6 {
            return err(format!(
                "{}: more than 6 parameters is outside both ABIs",
                func.name()
            ));
        }
        low.analyze_fusion()?;
        low.allocate()?;
        low.plan_frame()?;
        Ok(low)
    }

    // -- Phase 1: use counting and fusion. ---------------------------------

    fn analyze_fusion(&mut self) -> Result<(), EmitError> {
        let func = self.func;
        // Count uses, distinguishing memory-address positions.
        let mut addr_uses: HashMap<ValueId, u32> = HashMap::new();
        let mut other_uses: HashMap<ValueId, u32> = HashMap::new();
        let bump = |m: &mut HashMap<ValueId, u32>, v: ValueId| *m.entry(v).or_insert(0) += 1;
        for inst in func.insts() {
            match &inst.kind {
                InstKind::Copy { src, .. } => bump(&mut other_uses, *src),
                InstKind::Phi { incomings, .. } => {
                    for &(_, v) in incomings {
                        bump(&mut other_uses, v);
                    }
                }
                InstKind::Load { addr, .. } => bump(&mut addr_uses, *addr),
                InstKind::Store { addr, val } => {
                    bump(&mut addr_uses, *addr);
                    bump(&mut other_uses, *val);
                }
                InstKind::Alloca { .. } => {}
                InstKind::Gep { base, .. } => bump(&mut other_uses, *base),
                InstKind::BinOp { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                    bump(&mut other_uses, *lhs);
                    bump(&mut other_uses, *rhs);
                }
                InstKind::Call { callee, args, .. } => {
                    if let Callee::Indirect(fp) = callee {
                        bump(&mut other_uses, *fp);
                    }
                    for &a in args {
                        bump(&mut other_uses, a);
                    }
                }
            }
        }
        for block in func.blocks() {
            match &block.term {
                Terminator::CondBr { cond, .. } => bump(&mut other_uses, *cond),
                Terminator::Ret(Some(v)) => bump(&mut other_uses, *v),
                _ => {}
            }
        }
        // Geps whose every use is an address fold into the access; geps
        // with no uses at all vanish.
        for inst in func.insts() {
            if let InstKind::Gep { dst, base, offset } = inst.kind {
                let others = other_uses.get(&dst).copied().unwrap_or(0);
                if others == 0 && offset <= u64::from(u32::MAX) && offset <= i32::MAX as u64 {
                    self.skip.insert(inst.id);
                    if addr_uses.get(&dst).copied().unwrap_or(0) > 0 {
                        self.fused_gep.insert(dst, (base, offset));
                    }
                }
            }
        }
        // The sign-extension idiom `t = v << (64-n); d = t >> (64-n)` with
        // n ∈ {8, 16, 32} and `t` used only by the `shr` fuses into one
        // backend sign-extension step: x86 renders a single `movsx`, SB
        // keeps the two shifts — both lift back to this exact pair.
        let const_of = |v: ValueId| match func.value(v).kind {
            ValueKind::Const(ConstKind::Int(c)) => Some(c),
            _ => None,
        };
        for inst in func.insts() {
            let (shr_lhs, shr_rhs) = match inst.kind {
                InstKind::BinOp {
                    op: BinOp::Shr,
                    lhs,
                    rhs,
                    ..
                } => (lhs, rhs),
                _ => continue,
            };
            let amt = match const_of(shr_rhs) {
                Some(a @ (32 | 48 | 56)) => a,
                _ => continue,
            };
            let shl_def = match func.value(shr_lhs).kind {
                ValueKind::Inst { def } => def,
                _ => continue,
            };
            let (src, shl_rhs) = match func.inst(shl_def).kind {
                InstKind::BinOp {
                    op: BinOp::Shl,
                    lhs,
                    rhs,
                    ..
                } => (lhs, rhs),
                _ => continue,
            };
            if const_of(shl_rhs) != Some(amt) || self.skip.contains(&shl_def) {
                continue;
            }
            let t_uses = other_uses.get(&shr_lhs).copied().unwrap_or(0)
                + addr_uses.get(&shr_lhs).copied().unwrap_or(0);
            if t_uses != 1 {
                continue;
            }
            self.skip.insert(shl_def);
            self.fused_sext.insert(inst.id, (src, (64 - amt) as u8));
        }
        // Compares must feed their block's condbr directly (both ISAs fuse
        // compare-and-branch); phis lower to predecessor copies.
        for block in func.blocks() {
            if let Terminator::CondBr { cond, .. } = block.term {
                let def = match func.value(cond).kind {
                    ValueKind::Inst { def } => def,
                    _ => {
                        return err(format!(
                            "{}: condbr condition is not a compare result",
                            func.name()
                        ))
                    }
                };
                let data = func.inst(def);
                let last = block.insts.last().copied();
                let uses = other_uses.get(&cond).copied().unwrap_or(0)
                    + addr_uses.get(&cond).copied().unwrap_or(0);
                match data.kind {
                    InstKind::Cmp { pred, lhs, rhs, .. }
                        if data.block == block.id && last == Some(def) && uses == 1 =>
                    {
                        self.skip.insert(def);
                        self.fused_cmp.insert(block.id, (pred, lhs, rhs));
                    }
                    _ => {
                        return err(format!(
                            "{}: condbr condition must be the block's final cmp \
                             with no other use",
                            func.name()
                        ))
                    }
                }
            }
        }
        for inst in func.insts() {
            match inst.kind {
                InstKind::Cmp { .. } if !self.skip.contains(&inst.id) => {
                    return err(format!(
                        "{}: standalone cmp (not feeding a condbr) is outside \
                         both machine subsets",
                        func.name()
                    ));
                }
                InstKind::Phi { .. } => {
                    self.skip.insert(inst.id);
                }
                _ => {}
            }
        }
        // Values needing a location: every param or (non-fused) def with at
        // least one use.
        for &p in func.params() {
            let n =
                addr_uses.get(&p).copied().unwrap_or(0) + other_uses.get(&p).copied().unwrap_or(0);
            if n > 0 {
                self.loc.insert(p, Loc::Home(0)); // placeholder; fixed in allocate()
            }
        }
        for inst in func.insts() {
            let phi = matches!(inst.kind, InstKind::Phi { .. });
            if self.skip.contains(&inst.id) && !phi {
                continue;
            }
            if let Some(d) = inst.kind.def() {
                let n = addr_uses.get(&d).copied().unwrap_or(0)
                    + other_uses.get(&d).copied().unwrap_or(0);
                if n > 0 {
                    self.loc.insert(d, Loc::Home(0));
                }
            }
        }
        Ok(())
    }

    // -- Phase 2: liveness and linear-scan location assignment. ------------

    fn allocate(&mut self) -> Result<(), EmitError> {
        let func = self.func;
        // Deterministic vreg numbering: params, then defs in program order.
        let mut vids: Vec<ValueId> = Vec::new();
        let mut vidx: HashMap<ValueId, usize> = HashMap::new();
        let note = |v: ValueId, vids: &mut Vec<ValueId>, vidx: &mut HashMap<ValueId, usize>| {
            if let std::collections::hash_map::Entry::Vacant(e) = vidx.entry(v) {
                e.insert(vids.len());
                vids.push(v);
            }
        };
        for &p in func.params() {
            if self.loc.contains_key(&p) {
                note(p, &mut vids, &mut vidx);
            }
        }
        for block in func.blocks() {
            for &iid in &block.insts {
                if let Some(d) = func.inst(iid).kind.def() {
                    if self.loc.contains_key(&d) {
                        note(d, &mut vids, &mut vidx);
                    }
                }
            }
        }
        let nv = vids.len();
        // Linear positions: params first, then instructions and block
        // terminators in layout order.
        let mut pos = func.params().len();
        let mut inst_pos: HashMap<InstId, usize> = HashMap::new();
        let mut term_pos: HashMap<BlockId, usize> = HashMap::new();
        for block in func.blocks() {
            for &iid in &block.insts {
                if self.skip.contains(&iid) {
                    continue;
                }
                inst_pos.insert(iid, pos);
                pos += 1;
            }
            term_pos.insert(block.id, pos);
            pos += 1;
        }
        // Per-step use/def events, per block, in forward order.
        struct Step {
            pos: usize,
            uses: Vec<usize>,
            defs: Vec<usize>,
        }
        let vreg = |this: &Lowering, v: ValueId| -> Option<usize> {
            if this.loc.contains_key(&v) {
                vidx.get(&v).copied()
            } else {
                None
            }
        };
        // An address operand uses the fused gep's base instead.
        let addr_base = |this: &Lowering, v: ValueId| -> ValueId {
            this.fused_gep.get(&v).map_or(v, |&(b, _)| b)
        };
        let mut steps: HashMap<BlockId, Vec<Step>> = HashMap::new();
        let uses_of = |this: &Lowering, kind: &InstKind| -> Vec<ValueId> {
            match kind {
                InstKind::Copy { src, .. } => vec![*src],
                InstKind::Load { addr, .. } => vec![addr_base(this, *addr)],
                InstKind::Store { addr, val } => vec![addr_base(this, *addr), *val],
                InstKind::Alloca { .. } => vec![],
                InstKind::Gep { base, .. } => vec![*base],
                InstKind::BinOp { lhs, rhs, .. } => vec![*lhs, *rhs],
                InstKind::Call { callee, args, .. } => {
                    let mut u = args.clone();
                    if let Callee::Indirect(fp) = callee {
                        u.push(*fp);
                    }
                    u
                }
                InstKind::Phi { .. } | InstKind::Cmp { .. } => vec![],
            }
        };
        for block in func.blocks() {
            let mut list: Vec<Step> = Vec::new();
            if block.id == func.entry() {
                for (i, &p) in func.params().iter().enumerate() {
                    list.push(Step {
                        pos: i,
                        uses: vec![],
                        defs: vreg(self, p).into_iter().collect(),
                    });
                }
            }
            for &iid in &block.insts {
                if self.skip.contains(&iid) {
                    continue;
                }
                let data = func.inst(iid);
                let uses = uses_of(self, &data.kind)
                    .into_iter()
                    .filter_map(|v| vreg(self, v))
                    .collect();
                let defs = data
                    .kind
                    .def()
                    .and_then(|d| vreg(self, d))
                    .into_iter()
                    .collect();
                list.push(Step {
                    pos: inst_pos[&iid],
                    uses,
                    defs,
                });
            }
            // Terminator step: fused-cmp / ret uses plus phi-copy moves.
            let tpos = term_pos[&block.id];
            let mut uses: Vec<usize> = Vec::new();
            let mut defs: Vec<usize> = Vec::new();
            match &block.term {
                Terminator::CondBr { .. } => {
                    let (_, lhs, rhs) = self.fused_cmp[&block.id];
                    uses.extend(vreg(self, lhs));
                    uses.extend(vreg(self, rhs));
                }
                Terminator::Ret(Some(v)) => uses.extend(vreg(self, *v)),
                _ => {}
            }
            for (dst, src) in self.phi_moves(block.id) {
                if let CopySrc::Val(v) = src {
                    uses.extend(vreg(self, v));
                }
                defs.extend(vidx.get(&dst).copied());
            }
            list.push(Step {
                pos: tpos,
                uses,
                defs,
            });
            steps.insert(block.id, list);
        }
        // Backward liveness fixpoint over bitsets.
        let words = nv.div_ceil(64);
        let mut live_in: HashMap<BlockId, Vec<u64>> = HashMap::new();
        let mut live_out: HashMap<BlockId, Vec<u64>> = HashMap::new();
        for block in func.blocks() {
            live_in.insert(block.id, vec![0; words]);
            live_out.insert(block.id, vec![0; words]);
        }
        let order: Vec<BlockId> = func.blocks().map(|b| b.id).collect();
        loop {
            let mut changed = false;
            for &b in order.iter().rev() {
                let mut out = vec![0u64; words];
                for s in self.func.block(b).term.successors() {
                    for (w, v) in out.iter_mut().zip(&live_in[&s]) {
                        *w |= v;
                    }
                }
                let mut live = out.clone();
                for step in steps[&b].iter().rev() {
                    for &d in &step.defs {
                        live[d / 64] &= !(1u64 << (d % 64));
                    }
                    for &u in &step.uses {
                        live[u / 64] |= 1u64 << (u % 64);
                    }
                }
                if live_out[&b] != out {
                    live_out.insert(b, out);
                    changed = true;
                }
                if live_in[&b] != live {
                    live_in.insert(b, live);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Intervals: [first def, last point live].
        let mut start = vec![usize::MAX; nv];
        let mut end = vec![0usize; nv];
        for block in func.blocks() {
            for step in &steps[&block.id] {
                for &d in &step.defs {
                    start[d] = start[d].min(step.pos);
                    end[d] = end[d].max(step.pos);
                }
                for &u in &step.uses {
                    end[u] = end[u].max(step.pos);
                }
            }
            let tpos = term_pos[&block.id];
            let out = &live_out[&block.id];
            for (v, s) in start.iter_mut().enumerate().take(nv) {
                if out[v / 64] & (1u64 << (v % 64)) != 0 {
                    end[v] = end[v].max(tpos);
                    // A value live-out of a block it wasn't defined in is a
                    // phi defined by this block's copies; keep start sane.
                    let _ = s;
                }
            }
        }
        // Greedy linear scan over (start, vreg) order; no eviction — over
        // pressure goes to a fresh spill slot.
        let mut by_start: Vec<usize> = (0..nv).collect();
        by_start.sort_by_key(|&v| (start[v], v));
        let mut active: Vec<(usize, u8, usize)> = Vec::new(); // (end, home, vreg)
        let mut n_spills = 0u32;
        for &v in &by_start {
            debug_assert!(start[v] != usize::MAX, "vreg without a definition");
            active.retain(|&(e, _, _)| e >= start[v]);
            let used: HashSet<u8> = active.iter().map(|&(_, h, _)| h).collect();
            let free = (0..N_HOMES).find(|h| !used.contains(h));
            let l = match free {
                Some(h) => {
                    active.push((end[v], h, v));
                    Loc::Home(h)
                }
                None => {
                    let s = n_spills;
                    n_spills += 1;
                    Loc::Spill(s)
                }
            };
            self.loc.insert(vids[v], l);
        }
        self.frame.n_spills = n_spills;
        Ok(())
    }

    // -- Phase 3: frame layout. --------------------------------------------

    fn plan_frame(&mut self) -> Result<(), EmitError> {
        for block in self.func.blocks() {
            for &iid in &block.insts {
                if let InstKind::Alloca { size, .. } = self.func.inst(iid).kind {
                    if size == 0 || size > u64::from(u32::MAX) {
                        return err(format!(
                            "{}: alloca of {size} bytes is outside both subsets",
                            self.func.name()
                        ));
                    }
                    self.alloca_of.insert(iid, self.frame.alloca_sizes.len());
                    self.frame.alloca_sizes.push(size);
                }
            }
        }
        if self.frame.total() > i32::MAX as u64 {
            return err(format!("{}: frame too large", self.func.name()));
        }
        Ok(())
    }

    // -- Shared emission helpers. ------------------------------------------

    fn classify(&self, v: ValueId) -> Result<VSrc, EmitError> {
        match self.func.value(v).kind {
            ValueKind::Const(ConstKind::Int(c)) => Ok(VSrc::Const(c)),
            ValueKind::Const(_) => err(format!(
                "{}: float/null/undef constants are outside the dual subset",
                self.func.name()
            )),
            ValueKind::GlobalAddr(g) => Ok(VSrc::Global(g.0)),
            ValueKind::FuncAddr(f) => Ok(VSrc::Func(f.0)),
            _ => match self.loc.get(&v) {
                Some(&l) => Ok(VSrc::Loc(l)),
                None => err(format!(
                    "{}: internal: used value has no location",
                    self.func.name()
                )),
            },
        }
    }

    /// Puts `v` into the exact register `dst`.
    fn put<B: Backend>(&self, be: &mut B, dst: AReg, v: ValueId) -> Result<(), EmitError> {
        match self.classify(v)? {
            VSrc::Loc(Loc::Home(h)) => {
                if AReg::Home(h) != dst {
                    be.copy(dst, AReg::Home(h));
                }
            }
            VSrc::Loc(Loc::Spill(s)) => be.spill_load(dst, s),
            VSrc::Const(c) => be.imm(dst, c),
            VSrc::Global(g) => be.lea_global(dst, g, &self.gnames[g as usize]),
            VSrc::Func(f) => be.lea_func(dst, f, &self.fnames[f as usize]),
        }
        Ok(())
    }

    /// Stages `v` into a register, preferring its home and falling back to
    /// `scratch`.
    fn stage<B: Backend>(&self, be: &mut B, scratch: AReg, v: ValueId) -> Result<AReg, EmitError> {
        match self.classify(v)? {
            VSrc::Loc(Loc::Home(h)) => Ok(AReg::Home(h)),
            _ => {
                self.put(be, scratch, v)?;
                Ok(scratch)
            }
        }
    }

    /// Resolves an address operand: fused geps become a displacement.
    fn addr_of(&self, addr: ValueId) -> (ValueId, u32) {
        match self.fused_gep.get(&addr) {
            Some(&(base, off)) => (base, off as u32),
            None => (addr, 0),
        }
    }

    /// Phi moves this block owes its successors' phis.
    fn phi_moves(&self, b: BlockId) -> Vec<(ValueId, CopySrc)> {
        let mut succs: Vec<BlockId> = Vec::new();
        for s in self.func.block(b).term.successors() {
            if !succs.contains(&s) {
                succs.push(s);
            }
        }
        let mut moves = Vec::new();
        for s in succs {
            for &iid in &self.func.block(s).insts {
                if let InstKind::Phi { dst, incomings } = &self.func.inst(iid).kind {
                    if !self.loc.contains_key(dst) {
                        continue; // dead phi: no copies anywhere
                    }
                    if let Some(&(_, v)) = incomings.iter().find(|&&(pb, _)| pb == b) {
                        moves.push((*dst, CopySrc::Val(v)));
                    }
                }
            }
        }
        moves
    }

    // -- Phase 4: emission. ------------------------------------------------

    fn emit<B: Backend>(&self, be: &mut B) -> Result<(), EmitError> {
        let func = self.func;
        be.begin_function(&self.frame);
        for (i, &p) in func.params().iter().enumerate() {
            match self.loc.get(&p) {
                Some(&Loc::Home(h)) => be.copy(AReg::Home(h), AReg::Arg(i as u8)),
                Some(&Loc::Spill(s)) => be.spill_store(s, AReg::Arg(i as u8)),
                None => {}
            }
        }
        for block in func.blocks() {
            be.label(block.id);
            for &iid in &block.insts {
                if self.skip.contains(&iid) {
                    continue;
                }
                self.emit_inst(be, iid)?;
            }
            self.emit_term(be, block.id)?;
        }
        be.end_function(
            func.name(),
            func.params().len() as u8,
            func.ret_width().is_some(),
        );
        Ok(())
    }

    /// The register an instruction result is computed in: its home, or the
    /// scratch sink for spilled/unused results.
    fn result_target(&self, d: ValueId) -> (AReg, Option<u32>) {
        match self.loc.get(&d) {
            Some(&Loc::Home(h)) => (AReg::Home(h), None),
            Some(&Loc::Spill(s)) => (AReg::S0, Some(s)),
            None => (AReg::S0, None),
        }
    }

    fn emit_inst<B: Backend>(&self, be: &mut B, iid: InstId) -> Result<(), EmitError> {
        let func = self.func;
        match &func.inst(iid).kind {
            InstKind::Copy { dst, src } => {
                let (t, spill) = self.result_target(*dst);
                self.put(be, t, *src)?;
                if let Some(s) = spill {
                    be.spill_store(s, t);
                }
            }
            InstKind::Load { dst, addr, width } => {
                if *width == Width::W1 {
                    return err(format!("{}: 1-bit load is not encodable", func.name()));
                }
                let (base_v, off) = self.addr_of(*addr);
                let base = self.stage_addr(be, base_v)?;
                let (t, spill) = self.result_target(*dst);
                be.load(*width, t, base, off);
                if let Some(s) = spill {
                    be.spill_store(s, t);
                }
            }
            InstKind::Store { addr, val } => {
                let (base_v, off) = self.addr_of(*addr);
                let base = self.stage_addr(be, base_v)?;
                let v = self.stage(be, AReg::S1, *val)?;
                be.store(base, off, v);
            }
            InstKind::Alloca { dst, .. } => {
                let (t, spill) = self.result_target(*dst);
                be.alloca(t, self.alloca_of[&iid]);
                if let Some(s) = spill {
                    be.spill_store(s, t);
                }
            }
            InstKind::Gep { dst, base, offset } => {
                // Unfused gep: materialize as base + offset arithmetic.
                if *offset > i64::MAX as u64 {
                    return err(format!("{}: gep offset too large", func.name()));
                }
                let (t, spill) = self.result_target(*dst);
                self.put(be, t, *base)?;
                be.binop_imm(BinOp::Add, t, *offset as i64);
                if let Some(s) = spill {
                    be.spill_store(s, t);
                }
            }
            InstKind::BinOp { op, dst, lhs, rhs } => {
                if let Some(&(src, bits)) = self.fused_sext.get(&iid) {
                    let (t, spill) = self.result_target(*dst);
                    self.put(be, t, src)?;
                    be.sext(t, bits);
                    if let Some(s) = spill {
                        be.spill_store(s, t);
                    }
                } else {
                    self.emit_binop(be, *op, *dst, *lhs, *rhs)?;
                }
            }
            InstKind::Call { dst, callee, args } => {
                self.emit_call(be, *dst, *callee, args)?;
            }
            InstKind::Phi { .. } | InstKind::Cmp { .. } => {
                unreachable!("phis and fused cmps are in the skip set")
            }
        }
        Ok(())
    }

    /// Stages an address base (fused-gep bases included) into a register.
    fn stage_addr<B: Backend>(&self, be: &mut B, base: ValueId) -> Result<AReg, EmitError> {
        match self.classify(base)? {
            VSrc::Func(_) => err(format!(
                "{}: memory access through a function address",
                self.func.name()
            )),
            VSrc::Loc(Loc::Home(h)) => Ok(AReg::Home(h)),
            _ => {
                self.put(be, AReg::S0, base)?;
                Ok(AReg::S0)
            }
        }
    }

    fn emit_binop<B: Backend>(
        &self,
        be: &mut B,
        op: BinOp,
        dst: ValueId,
        lhs: ValueId,
        rhs: ValueId,
    ) -> Result<(), EmitError> {
        if matches!(op, BinOp::Div | BinOp::Rem) {
            return err(format!(
                "{}: div/rem are outside the x86 subset",
                self.func.name()
            ));
        }
        let (t, spill) = self.result_target(dst);
        let rhs_src = self.classify(rhs)?;
        if matches!(op, BinOp::Shl | BinOp::Shr) {
            let amt = match rhs_src {
                VSrc::Const(c) if (0..=63).contains(&c) => c,
                _ => {
                    return err(format!(
                        "{}: shifts must be by a constant 0..=63",
                        self.func.name()
                    ))
                }
            };
            self.put(be, t, lhs)?;
            be.binop_imm(op, t, amt);
        } else {
            match rhs_src {
                VSrc::Const(c) => {
                    self.put(be, t, lhs)?;
                    be.binop_imm(op, t, c);
                }
                VSrc::Loc(Loc::Home(h)) if AReg::Home(h) == t => {
                    // Staging lhs into t would clobber rhs: park rhs first.
                    be.copy(AReg::S1, AReg::Home(h));
                    self.put(be, t, lhs)?;
                    be.binop(op, t, AReg::S1);
                }
                VSrc::Loc(Loc::Home(h)) => {
                    self.put(be, t, lhs)?;
                    be.binop(op, t, AReg::Home(h));
                }
                _ => {
                    self.put(be, AReg::S1, rhs)?;
                    self.put(be, t, lhs)?;
                    be.binop(op, t, AReg::S1);
                }
            }
        }
        if let Some(s) = spill {
            be.spill_store(s, t);
        }
        Ok(())
    }

    fn emit_call<B: Backend>(
        &self,
        be: &mut B,
        dst: Option<ValueId>,
        callee: Callee,
        args: &[ValueId],
    ) -> Result<(), EmitError> {
        if args.len() > 6 {
            return err(format!(
                "{}: call with more than 6 arguments",
                self.func.name()
            ));
        }
        for (j, &a) in args.iter().enumerate() {
            self.put(be, AReg::Arg(j as u8), a)?;
        }
        let n = args.len() as u8;
        match callee {
            Callee::Direct(f) => {
                let target = self
                    .module
                    .functions()
                    .nth(f.0 as usize)
                    .expect("verified module");
                if target.params().len() != args.len() {
                    return err(format!(
                        "{}: call to {} passes {} args, expects {}",
                        self.func.name(),
                        target.name(),
                        args.len(),
                        target.params().len()
                    ));
                }
                be.call_direct(f.0, &self.fnames[f.0 as usize], n);
            }
            Callee::Extern(e) => {
                let decl = self.module.extern_decl(e);
                if decl.param_widths.len() != args.len() {
                    // The x86 side recovers extern arity from the PLT
                    // declaration, so per-site arity must match it.
                    return err(format!(
                        "{}: call to extern {} passes {} args, declared {}",
                        self.func.name(),
                        decl.name,
                        args.len(),
                        decl.param_widths.len()
                    ));
                }
                be.call_extern(e.0, &self.enames[e.0 as usize], n);
            }
            Callee::Indirect(fp) => {
                let r = self.stage(be, AReg::S0, fp)?;
                be.call_indirect(r, n);
            }
        }
        if let Some(d) = dst {
            match self.loc.get(&d) {
                Some(&Loc::Home(h)) => be.copy(AReg::Home(h), AReg::Ret),
                Some(&Loc::Spill(s)) => be.spill_store(s, AReg::Ret),
                None => {}
            }
        }
        Ok(())
    }

    fn emit_term<B: Backend>(&self, be: &mut B, b: BlockId) -> Result<(), EmitError> {
        // Phi moves first (they lift before the fused compare on both
        // sides: SB's `cmp` writes a register after them, x86's `mov`s
        // preserve the not-yet-set flags).
        let moves: Vec<(ValueId, CopySrc)> = self.phi_moves(b);
        let mut pending: Vec<PhiCopy> = Vec::new();
        for (dst, src) in moves {
            pending.push(PhiCopy {
                dst: self.loc[&dst],
                src,
            });
        }
        self.emit_parallel_copies(be, pending)?;
        match &self.func.block(b).term {
            Terminator::Br(t) => be.jmp(*t),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                let (pred, lhs, rhs) = self.fused_cmp[&b];
                let lhs_r = self.stage(be, AReg::S0, lhs)?;
                let rhs_op = match self.classify(rhs)? {
                    VSrc::Const(c) => CondRhs::Imm(c),
                    VSrc::Loc(Loc::Home(h)) => CondRhs::Reg(AReg::Home(h)),
                    _ => {
                        self.put(be, AReg::S1, rhs)?;
                        CondRhs::Reg(AReg::S1)
                    }
                };
                be.cond_branch(pred, lhs_r, rhs_op, *else_bb, *then_bb);
            }
            Terminator::Ret(Some(v)) => {
                self.put(be, AReg::Ret, *v)?;
                be.ret();
            }
            Terminator::Ret(None) => be.ret(),
            Terminator::Unreachable => {
                return err(format!(
                    "{}: unreachable terminator cannot be encoded",
                    self.func.name()
                ))
            }
        }
        Ok(())
    }

    /// Emits the phi moves of one edge bundle in a clobber-safe order,
    /// breaking cycles through the `S1` buffer.
    fn emit_parallel_copies<B: Backend>(
        &self,
        be: &mut B,
        mut pending: Vec<PhiCopy>,
    ) -> Result<(), EmitError> {
        let src_loc = |this: &Lowering, c: &PhiCopy| -> Option<Loc> {
            match c.src {
                CopySrc::Val(v) => match this.classify(v) {
                    Ok(VSrc::Loc(l)) => Some(l),
                    _ => None,
                },
                CopySrc::Reg(_) => None,
            }
        };
        while !pending.is_empty() {
            let safe = pending.iter().position(|c| {
                !pending
                    .iter()
                    .any(|other| src_loc(self, other) == Some(c.dst))
            });
            match safe {
                Some(i) => {
                    let c = pending.remove(i);
                    self.emit_one_copy(be, &c)?;
                }
                None => {
                    // Cycle: park the first destination's current value in
                    // S1 and retarget its readers.
                    let blocked = pending[0].dst;
                    match blocked {
                        Loc::Home(h) => be.copy(AReg::S1, AReg::Home(h)),
                        Loc::Spill(s) => be.spill_load(AReg::S1, s),
                    }
                    for c in &mut pending {
                        if src_loc(self, c) == Some(blocked) {
                            c.src = CopySrc::Reg(AReg::S1);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn emit_one_copy<B: Backend>(&self, be: &mut B, c: &PhiCopy) -> Result<(), EmitError> {
        match (c.dst, c.src) {
            (dst, CopySrc::Val(v)) => {
                if self.classify(v)? == VSrc::Loc(dst) {
                    return Ok(()); // self-move (e.g. loop phi of itself)
                }
                match dst {
                    Loc::Home(h) => self.put(be, AReg::Home(h), v)?,
                    Loc::Spill(s) => match self.classify(v)? {
                        VSrc::Loc(Loc::Home(h)) => be.spill_store(s, AReg::Home(h)),
                        _ => {
                            self.put(be, AReg::S0, v)?;
                            be.spill_store(s, AReg::S0);
                        }
                    },
                }
            }
            (Loc::Home(h), CopySrc::Reg(r)) => be.copy(AReg::Home(h), r),
            (Loc::Spill(s), CopySrc::Reg(r)) => be.spill_store(s, r),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Lowers `module` to both machine encodings.
///
/// The two images are built from one shared decision sequence: lifting
/// either reconstructs the *same* IR, so every downstream analysis result
/// is bit-identical between them.
///
/// # Errors
///
/// Returns [`EmitError`] if the module uses constructs outside the common
/// machine subset (floating constants, `div`/`rem`, standalone compares,
/// more than six arguments, oversized frames).
pub fn emit_dual(module: &Module) -> Result<DualEncoding, EmitError> {
    let fnames: Vec<String> = module.functions().map(|f| f.name().to_string()).collect();
    let gnames: Vec<String> = module.globals().map(|g| g.name.clone()).collect();
    let enames: Vec<String> = module.externs().map(|e| e.name.clone()).collect();
    let mut sbb = SbBackend::new(module.name());
    let mut xb = X86Backend::new(module.name());
    for e in module.externs() {
        let nparams = e.param_widths.len() as u8;
        let has_ret = e.ret_width.is_some();
        sbb.image.externs.push(sb_image::ImageExtern {
            name: e.name.clone(),
            nparams,
            has_ret,
        });
        xb.builder.declare_extern(&e.name, nparams, has_ret);
    }
    for g in module.globals() {
        sbb.image.globals.push(sb_image::ImageGlobal {
            name: g.name.clone(),
            size: g.size,
        });
        xb.builder.declare_global(&g.name, g.size);
    }
    for f in module.functions() {
        let low = Lowering::build(module, f, &fnames, &gnames, &enames)?;
        low.emit(&mut sbb)?;
        low.emit(&mut xb)?;
    }
    let x86 = xb.builder.build().map_err(|e| EmitError {
        message: format!("x86 layout: {}", e.message),
    })?;
    Ok(DualEncoding { sb: sbb.image, x86 })
}

/// Lowers `module` and serializes both containers (SBF, XLF).
///
/// # Errors
///
/// Propagates [`emit_dual`]'s errors.
pub fn emit_dual_bytes(module: &Module) -> Result<(Vec<u8>, Vec<u8>), EmitError> {
    let dual = emit_dual(module)?;
    Ok((dual.sb_bytes(), dual.x86_bytes()))
}

impl crate::GeneratedProgram {
    /// Encodes this generated program in both machine encodings.
    ///
    /// # Errors
    ///
    /// Propagates [`emit_dual`]'s errors; generated modules always stay
    /// within the dual subset.
    pub fn encode_dual(&self) -> Result<DualEncoding, EmitError> {
        emit_dual(&self.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenSpec};
    use crate::mix::PhenomenonMix;
    use manta_ir::printer::print_module;

    fn spec(functions: usize, seed: u64) -> GenSpec {
        GenSpec {
            name: format!("dual_{seed}"),
            functions,
            mix: PhenomenonMix::balanced(),
            seed,
        }
    }

    fn assert_parity(module: &Module) {
        let dual = emit_dual(module).expect("lowering stays in the subset");
        let sb_lifted = manta_isa::lift::lift(&dual.sb).expect("sb lift");
        let x86_lifted = manta_x86::lift(&dual.x86).expect("x86 lift");
        let a = print_module(&sb_lifted);
        let b = print_module(&x86_lifted);
        assert_eq!(a, b, "lifted IR must match between encodings");
    }

    #[test]
    fn generated_programs_lift_identically_from_both_encodings() {
        for seed in [1, 2, 3, 7, 11, 42] {
            let prog = generate(&spec(10, seed));
            assert_parity(&prog.module);
        }
    }

    #[test]
    fn encoded_containers_round_trip_through_the_frontends() {
        use manta_ir::Frontend;
        let prog = generate(&spec(6, 5));
        let (sb_bytes, x86_bytes) = emit_dual_bytes(&prog.module).unwrap();
        let sb_fe = manta_isa::lift::SbFrontend;
        let x86_fe = manta_x86::lift::X86Frontend;
        assert!(sb_fe.detects(&sb_bytes) && !sb_fe.detects(&x86_bytes));
        assert!(x86_fe.detects(&x86_bytes) && !x86_fe.detects(&sb_bytes));
        let m1 = sb_fe.lift_bytes(&sb_bytes).unwrap();
        let m2 = x86_fe.lift_bytes(&x86_bytes).unwrap();
        assert_eq!(print_module(&m1), print_module(&m2));
    }

    #[test]
    fn register_pressure_spills_stay_in_parity() {
        // Hand-build a function with more than N_HOMES simultaneously-live
        // values to force spill slots on both sides.
        let mut mb = manta_ir::ModuleBuilder::new("pressure");
        let (_, mut fb) = mb.function("crowd", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let mut vals = Vec::new();
        for i in 0..9i64 {
            let c = fb.const_int(i + 3, Width::W64);
            vals.push(fb.binop(BinOp::Mul, p, c, Width::W64));
        }
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = fb.binop(BinOp::Add, acc, v, Width::W64);
        }
        fb.ret(Some(acc));
        mb.finish_function(fb);
        let module = mb.finish();
        let dual = emit_dual(&module).expect("pressure module lowers");
        assert!(
            dual.sb.functions[0]
                .code
                .iter()
                .any(|i| matches!(i, MachInst::Salloc { rd, .. } if *rd == SB_SPILL_BASE)),
            "expected a spill area under pressure"
        );
        assert_parity(&module);
    }

    #[test]
    fn sign_extension_idiom_fuses_to_movsx_and_stays_in_parity() {
        // `(p << 56) >> 56` feeding arithmetic: the driver fuses the pair
        // into Backend::sext, so x86 carries a genuine `movsx` while SB
        // keeps the two shifts — and both must lift to the identical
        // shift-pair IR.
        let mut mb = manta_ir::ModuleBuilder::new("sext");
        let (_, mut fb) = mb.function("widen", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let c = fb.const_int(56, Width::W64);
        let hi = fb.binop(BinOp::Shl, p, c, Width::W64);
        let lo = fb.binop(BinOp::Shr, hi, c, Width::W64);
        // The extended value feeds arithmetic, not just a load.
        let sum = fb.binop(BinOp::Add, lo, p, Width::W64);
        fb.ret(Some(sum));
        mb.finish_function(fb);
        let module = mb.finish();
        let dual = emit_dual(&module).expect("sext module lowers");
        let f = &dual.x86.functions[0];
        let body = &dual.x86.text[f.offset as usize..(f.offset + f.len) as usize];
        let decoded = manta_x86::decode_all(body).expect("decodes");
        assert!(
            decoded
                .iter()
                .any(|(i, _, _)| matches!(i, XInst::MovSx { .. })),
            "x86 encoding should carry a movsx for the fused idiom"
        );
        let sb_code = &dual.sb.functions[0].code;
        assert!(
            sb_code
                .iter()
                .any(|i| matches!(i, MachInst::Bin { op: BinOp::Shl, .. }))
                && sb_code
                    .iter()
                    .any(|i| matches!(i, MachInst::Bin { op: BinOp::Shr, .. })),
            "SB encoding stages the extension as a shift pair"
        );
        assert_parity(&module);
    }

    #[test]
    fn unfused_shifts_still_lower_and_match() {
        // A shr whose shl operand has a second consumer must NOT fuse —
        // both encodings keep the raw shift pair and still agree.
        let mut mb = manta_ir::ModuleBuilder::new("noextfuse");
        let (_, mut fb) = mb.function("keep", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let c = fb.const_int(48, Width::W64);
        let hi = fb.binop(BinOp::Shl, p, c, Width::W64);
        let lo = fb.binop(BinOp::Shr, hi, c, Width::W64);
        // Second use of the shl result blocks fusion.
        let keep = fb.binop(BinOp::Xor, hi, lo, Width::W64);
        fb.ret(Some(keep));
        mb.finish_function(fb);
        let module = mb.finish();
        let dual = emit_dual(&module).expect("module lowers");
        let f = &dual.x86.functions[0];
        let body = &dual.x86.text[f.offset as usize..(f.offset + f.len) as usize];
        let decoded = manta_x86::decode_all(body).expect("decodes");
        assert!(
            !decoded
                .iter()
                .any(|(i, _, _)| matches!(i, XInst::MovSx { .. })),
            "multi-use shl must not fuse into movsx"
        );
        assert_parity(&module);
    }

    #[test]
    fn rejects_constructs_outside_the_common_subset() {
        let mut mb = manta_ir::ModuleBuilder::new("bad");
        let (_, mut fb) = mb.function("divides", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let c = fb.const_int(3, Width::W64);
        let d = fb.binop(BinOp::Div, p, c, Width::W64);
        fb.ret(Some(d));
        mb.finish_function(fb);
        let module = mb.finish();
        let e = emit_dual(&module).unwrap_err();
        assert!(e.message.contains("div"), "{e}");
    }
}
