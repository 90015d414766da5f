//! Lifting x86-64 machine code to `manta-ir` SSA.
//!
//! The x86 counterpart of `manta_isa::lift` — and deliberately shaped so
//! that code compiled from the same source produces the *same* IR from
//! either frontend (the differential tests pin inferred types to be
//! bit-identical). Three x86-specific recovery problems are handled here:
//!
//! * **eflags.** x86 splits a conditional branch into a flag-setting
//!   `cmp`/`test` and a flag-consuming `jcc`. The lifter records the last
//!   flag definition per block symbolically and materializes it as an SSA
//!   boolean ([`manta_ir::InstKind::Cmp`]) at the consuming `jcc` — so the
//!   IR carries `cmp.Q` + `condbr` exactly like the SB-ISA lift, with no
//!   flags register in sight. Non-compare ALU writes clobber the recorded
//!   flags; a `jcc` with no live `cmp`/`test` in its block is an error.
//! * **Sub-registers.** `eax`/`ax`/`al` are masked views of `rax`: a
//!   32-bit register move and the register forms of `movzx`/`movsx` lift
//!   to an `and` with the width mask at the narrow width, giving the type
//!   substrate the same width evidence a narrow load would.
//! * **The stack frame.** `rsp`/`rbp` never become SSA values. A frame
//!   (`push rbp; mov rbp, rsp`) is recognized and `rbp`-relative offsets
//!   are partitioned into *slots*: each distinct `lea r, [rbp-off]` starts
//!   a slot (one [`manta_ir::InstKind::Alloca`], sized by the gap to the
//!   next slot), and any offsets below the lowest `lea` form one residual
//!   alloca at function entry — the mirror image of SB-ISA's `salloc`
//!   spill area. Direct `[rbp-off]` accesses become `gep`s into the
//!   owning slot.
//!
//! Calls follow the SysV ABI: `rdi`/`rsi`/`rdx`/`rcx`/`r8`/`r9` carry
//! parameters, `rax` carries the return value. Direct call targets resolve
//! through the image's function table or PLT; indirect calls recover their
//! arity from the argument registers written since the last call (a
//! RetDec-style heuristic) and are assumed to return a value.

use std::collections::BTreeSet;

use manta_ir::lift::{Body, CallTarget, Flow, Isa, ModuleLifter, MAX_REG_ARGS};
use manta_ir::{BinOp, Frontend, FrontendError, InstKind, Module, ValueId, Width};

pub use manta_ir::lift::LiftError;

use crate::decode::decode_all;
use crate::image::{rip_target, Addresses, Image, ImageError, ImageFunction};
use crate::inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm, Shift};

impl From<ImageError> for LiftError {
    fn from(e: ImageError) -> LiftError {
        LiftError::new(e.message)
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError::new(message))
}

/// Lifts a decoded image to an IR module.
///
/// # Errors
///
/// Returns [`LiftError`] when the machine code does not decode, branches
/// outside its function, manipulates `rsp`/`rbp` outside the recognized
/// frame idioms, or consumes flags no `cmp`/`test` defined.
pub fn lift(image: &Image) -> Result<Module, LiftError> {
    let addrs = image
        .addresses()
        .map_err(|e| LiftError::new(e.to_string()))?;
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
    // Decode every body up front; direct calls may reference any function.
    let mut decoded: Vec<Vec<(Inst, usize, usize)>> = Vec::with_capacity(image.functions.len());
    for f in &image.functions {
        let body = &image.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(body)
            .map_err(|e| LiftError::new(format!("in function {}: {}", f.name, e.message)))?;
        decoded.push(insts);
    }
    let (mut flags_materialized, mut frame_slots, mut total_insts) = (0, 0, 0);
    for (i, (f, insts)) in image.functions.iter().zip(&decoded).enumerate() {
        let mut code = Lifter::new(image, &addrs, i, f, insts)?;
        lifter.lift_function(i, &mut code)?;
        flags_materialized += code.flags_materialized;
        frame_slots += code.frame_slots;
        total_insts += insts.len() as u64;
    }
    manta_telemetry::counter("lift.insts_decoded", total_insts);
    manta_telemetry::counter("lift.flags_materialized", flags_materialized);
    manta_telemetry::counter("lift.frame_slots", frame_slots);
    lifter.finish()
}

/// The last flag-defining instruction seen in the current block, held
/// symbolically until a `jcc` consumes it.
#[derive(Clone, Copy)]
enum FlagSrc {
    /// No live flag definition (block start, or clobbered by an ALU write
    /// or a call).
    None,
    /// `cmp lhs, rhs`.
    Cmp { lhs: ValueId, rhs: ValueId },
    /// `test a, b`.
    Test { a: ValueId, b: ValueId },
}

/// One `lea`-rooted frame slot: `[off, off + size)` below the frame base.
struct LeaSlot {
    off: i32,
    size: u64,
    value: Option<ValueId>,
}

/// The spill area below the lowest `lea`-rooted slot, lifted as one alloca
/// at function entry (the mirror of SB-ISA's `salloc`).
struct Residual {
    min_off: i32,
    size: u64,
    value: Option<ValueId>,
}

/// One function's decoded x86 code, with the state its idioms carry
/// between instructions.
struct Lifter<'a> {
    image: &'a Image,
    addrs: &'a Addresses,
    func_index: usize,
    src: &'a ImageFunction,
    /// Decoded instructions with their byte offsets and lengths.
    insts: &'a [(Inst, usize, usize)],
    lea_slots: Vec<LeaSlot>,
    residual: Option<Residual>,
    flags: FlagSrc,
    /// SysV argument registers written since the last call, for the
    /// indirect-call arity heuristic.
    args_written: [bool; 6],
    /// Index of the instruction being translated (RIP resolution).
    cur_idx: usize,
    flags_materialized: u64,
    frame_slots: u64,
}

impl<'a> Lifter<'a> {
    fn new(
        image: &'a Image,
        addrs: &'a Addresses,
        func_index: usize,
        src: &'a ImageFunction,
        insts: &'a [(Inst, usize, usize)],
    ) -> Result<Lifter<'a>, LiftError> {
        let mut lifter = Lifter {
            image,
            addrs,
            func_index,
            src,
            insts,
            lea_slots: Vec::new(),
            residual: None,
            flags: FlagSrc::None,
            args_written: [false; 6],
            cur_idx: 0,
            flags_materialized: 0,
            frame_slots: 0,
        };
        lifter.scan_frame()?;
        Ok(lifter)
    }

    /// Instruction index a branch at `(off, len, rel)` lands on.
    fn branch_target(&self, off: usize, len: usize, rel: i32) -> Result<usize, LiftError> {
        let target = off as i64 + len as i64 + rel as i64;
        usize::try_from(target)
            .ok()
            .and_then(|t| self.insts.binary_search_by_key(&t, |&(_, o, _)| o).ok())
            .ok_or_else(|| {
                LiftError::new(format!(
                    "branch at offset {off} in {} targets {target:#x}, not an \
                     instruction boundary in the same function",
                    self.src.name
                ))
            })
    }

    /// Recognizes the frame prologue and partitions every `rbp`-relative
    /// offset into `lea`-rooted slots plus a residual spill area.
    fn scan_frame(&mut self) -> Result<(), LiftError> {
        let has_frame = matches!(
            self.insts.first(),
            Some(&(Inst::Push { reg: Gpr::RBP }, ..))
        ) && matches!(
            self.insts.get(1),
            Some(&(
                Inst::MovRR {
                    w: OpWidth::B64,
                    dst: Gpr::RBP,
                    src: Gpr::RSP,
                },
                ..
            ))
        );
        let mut lea_offs: BTreeSet<i32> = BTreeSet::new();
        let mut direct_offs: BTreeSet<i32> = BTreeSet::new();
        let mut note = |mem: &Mem, is_lea: bool| -> Result<(), LiftError> {
            if let Mem::Base {
                base: Gpr::RBP,
                disp,
            } = *mem
            {
                if disp >= 0 {
                    return err(format!(
                        "{}: [rbp+{disp}] accesses at or above the frame base",
                        self.src.name
                    ));
                }
                if is_lea {
                    lea_offs.insert(disp);
                } else {
                    direct_offs.insert(disp);
                }
            }
            Ok(())
        };
        for &(inst, ..) in self.insts {
            match inst {
                Inst::Lea { mem, .. } => note(&mem, true)?,
                Inst::MovLoad { mem, .. }
                | Inst::MovStore { mem, .. }
                | Inst::MovStoreImm { mem, .. }
                | Inst::AluRM { mem, .. }
                | Inst::MovZx {
                    src: Rm::Mem(mem), ..
                }
                | Inst::MovSx {
                    src: Rm::Mem(mem), ..
                } => note(&mem, false)?,
                _ => {}
            }
        }
        if lea_offs.is_empty() && direct_offs.is_empty() {
            return Ok(());
        }
        if !has_frame {
            return err(format!(
                "{}: rbp-relative access without a `push rbp; mov rbp, rsp` prologue",
                self.src.name
            ));
        }
        // Slot `i` spans from its lea offset up to the next one (or 0).
        // Sizes are differences of `i32`s, taken in `i64`: `[rbp-2^31]`
        // spans 2^31 bytes.
        let leas: Vec<i32> = lea_offs.iter().copied().collect();
        for (i, &off) in leas.iter().enumerate() {
            let end = leas.get(i + 1).copied().unwrap_or(0);
            self.lea_slots.push(LeaSlot {
                off,
                size: (i64::from(end) - i64::from(off)) as u64,
                value: None,
            });
        }
        let floor = leas.first().copied().unwrap_or(0);
        if let Some(&min_direct) = direct_offs.first() {
            if min_direct < floor {
                self.residual = Some(Residual {
                    min_off: min_direct,
                    size: (i64::from(floor) - i64::from(min_direct)) as u64,
                    value: None,
                });
            }
        }
        Ok(())
    }

    /// The address of frame offset `off`, creating the owning slot's
    /// alloca at first touch.
    fn frame_addr(&mut self, body: &mut Body<'_, Gpr>, off: i32) -> Result<ValueId, LiftError> {
        if let Some(i) = self
            .lea_slots
            .iter()
            .position(|s| s.off <= off && (off as i64) < s.off as i64 + s.size as i64)
        {
            let base = match self.lea_slots[i].value {
                Some(v) => v,
                None => {
                    let size = self.lea_slots[i].size;
                    let v = body.emit(Width::W64, |dst| InstKind::Alloca { dst, size });
                    self.lea_slots[i].value = Some(v);
                    self.frame_slots += 1;
                    v
                }
            };
            let inner = (off - self.lea_slots[i].off) as u64;
            if inner == 0 {
                return Ok(base);
            }
            return Ok(body.emit(Width::W64, |dst| InstKind::Gep {
                dst,
                base,
                offset: inner,
            }));
        }
        if let Some(res) = &self.residual {
            if off >= res.min_off {
                let base = res.value.expect("residual alloca emitted at entry");
                let inner = (off - res.min_off) as u64;
                if inner == 0 {
                    return Ok(base);
                }
                return Ok(body.emit(Width::W64, |dst| InstKind::Gep {
                    dst,
                    base,
                    offset: inner,
                }));
            }
        }
        err(format!(
            "{}: [rbp{off}] is outside every recovered frame slot",
            self.src.name
        ))
    }

    fn read_reg(&self, body: &mut Body<'_, Gpr>, r: Gpr) -> Result<ValueId, LiftError> {
        if r == Gpr::RSP || r == Gpr::RBP {
            return err(format!(
                "{}: {} read outside the frame idioms",
                self.src.name, r
            ));
        }
        Ok(body.read(r))
    }

    fn write_reg(&mut self, body: &mut Body<'_, Gpr>, r: Gpr, v: ValueId) -> Result<(), LiftError> {
        if r == Gpr::RSP || r == Gpr::RBP {
            return err(format!(
                "{}: {} written outside the frame idioms",
                self.src.name, r
            ));
        }
        if let Some(pos) = Gpr::SYSV_ARGS.iter().position(|&a| a == r) {
            self.args_written[pos] = true;
        }
        body.write(r, v);
        Ok(())
    }

    /// The address an operand like `[base + index*scale + disp]` denotes,
    /// as an SSA value. `rbp` bases route through the frame slots;
    /// `[rip+d]` resolves to globals.
    fn lift_addr(&mut self, body: &mut Body<'_, Gpr>, mem: &Mem) -> Result<ValueId, LiftError> {
        match *mem {
            Mem::Base { base: Gpr::RSP, .. } => err(format!(
                "{}: rsp-relative memory access (only rbp frames are lifted)",
                self.src.name
            )),
            Mem::Base {
                base: Gpr::RBP,
                disp,
            } => self.frame_addr(body, disp),
            Mem::Base { base, disp } => {
                let base = self.read_reg(body, base)?;
                if disp == 0 {
                    Ok(base)
                } else if disp > 0 {
                    Ok(body.emit(Width::W64, |dst| InstKind::Gep {
                        dst,
                        base,
                        offset: disp as u64,
                    }))
                } else {
                    err(format!(
                        "{}: negative displacement {disp} off a non-frame base",
                        self.src.name
                    ))
                }
            }
            Mem::BaseIndex {
                base,
                index,
                scale,
                disp,
            } => {
                if base == Gpr::RSP || base == Gpr::RBP {
                    return err(format!(
                        "{}: indexed addressing off {base} is not lifted",
                        self.src.name
                    ));
                }
                let base_v = self.read_reg(body, base)?;
                let mut idx = self.read_reg(body, index)?;
                if scale > 1 {
                    let amt = body.const_int(i64::from(scale.trailing_zeros()), Width::W64);
                    idx = body.emit(Width::W64, |dst| InstKind::BinOp {
                        op: BinOp::Shl,
                        dst,
                        lhs: idx,
                        rhs: amt,
                    });
                }
                let sum = body.emit(Width::W64, |dst| InstKind::BinOp {
                    op: BinOp::Add,
                    dst,
                    lhs: base_v,
                    rhs: idx,
                });
                if disp == 0 {
                    Ok(sum)
                } else if disp > 0 {
                    Ok(body.emit(Width::W64, |dst| InstKind::Gep {
                        dst,
                        base: sum,
                        offset: disp as u64,
                    }))
                } else {
                    err(format!(
                        "{}: negative displacement {disp} in indexed addressing",
                        self.src.name
                    ))
                }
            }
            Mem::Rip { disp } => match self.rip_addr(disp)? {
                RipTarget::Global(g, inner) => global_addr(body, g, inner),
                RipTarget::Func(_) => err(format!(
                    "{}: memory access through a function address",
                    self.src.name
                )),
            },
        }
    }

    /// Resolves a `[rip+disp]` reference at the current instruction.
    fn rip_addr(&self, disp: i32) -> Result<RipTarget, LiftError> {
        let (_, off, len) = self.insts[self.cur_idx];
        let addr = rip_target(self.image, self.func_index, (off + len) as u64, disp);
        if let Some((gi, inner)) = self.addrs.global_at(addr) {
            return Ok(RipTarget::Global(gi, inner));
        }
        if let Some(ti) = self.addrs.func_at(addr) {
            return Ok(RipTarget::Func(ti));
        }
        err(format!(
            "{}: [rip{disp:+}] resolves to {addr:#x}, neither a global nor a \
             function entry",
            self.src.name
        ))
    }

    /// Reads the flag source at a `jcc` and materializes the SSA boolean.
    fn materialize_flags(
        &mut self,
        body: &mut Body<'_, Gpr>,
        cc: Cc,
    ) -> Result<ValueId, LiftError> {
        // The IR compare carries the *negated* condition: `jcc target` falls
        // through (then-edge) exactly when `!cc` holds — matching the SB
        // lift of `cmp.Q` + `brz`.
        let pred = cc.negate().pred();
        let v = match self.flags {
            FlagSrc::None => {
                return err(format!(
                    "{}: j{} without a live cmp/test in the same block",
                    self.src.name,
                    cc.mnemonic()
                ))
            }
            FlagSrc::Cmp { lhs, rhs } => body.emit(Width::W1, |dst| InstKind::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            }),
            FlagSrc::Test { a, b: tb } => {
                if !matches!(cc, Cc::E | Cc::Ne) {
                    return err(format!(
                        "{}: j{} after test is outside the lifted subset (only \
                         je/jne)",
                        self.src.name,
                        cc.mnemonic()
                    ));
                }
                let operand = if a == tb {
                    a
                } else {
                    body.emit(Width::W64, |dst| InstKind::BinOp {
                        op: BinOp::And,
                        dst,
                        lhs: a,
                        rhs: tb,
                    })
                };
                let zero = body.const_int(0, Width::W64);
                body.emit(Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred,
                    lhs: operand,
                    rhs: zero,
                })
            }
        };
        self.flags_materialized += 1;
        Ok(v)
    }

    fn alu_binop(op: Alu) -> BinOp {
        match op {
            Alu::Add => BinOp::Add,
            Alu::Sub => BinOp::Sub,
            Alu::And => BinOp::And,
            Alu::Or => BinOp::Or,
            Alu::Xor => BinOp::Xor,
            Alu::Mul => BinOp::Mul,
            Alu::Cmp => unreachable!("cmp is handled by the flag machinery"),
        }
    }

    /// Reads register `r` through a sub-register mask of `width`.
    fn masked_read(
        &self,
        body: &mut Body<'_, Gpr>,
        r: Gpr,
        width: OpWidth,
    ) -> Result<ValueId, LiftError> {
        let full = self.read_reg(body, r)?;
        let mask = if width.bits() >= 64 {
            return Ok(full);
        } else {
            (1i64 << width.bits()) - 1
        };
        let mask_v = body.const_int(mask, Width::W64);
        Ok(body.emit(width.ir(), |dst| InstKind::BinOp {
            op: BinOp::And,
            dst,
            lhs: full,
            rhs: mask_v,
        }))
    }

    /// Calls `target`; a call clobbers both the flags and the arity
    /// heuristic's window.
    fn call(
        &mut self,
        body: &mut Body<'_, Gpr>,
        target: CallTarget,
        nargs: usize,
    ) -> Result<(), LiftError> {
        body.call(target, nargs)?;
        self.flags = FlagSrc::None;
        self.args_written = [false; 6];
        Ok(())
    }
}

/// The address `inner` bytes into global `g`.
fn global_addr(body: &mut Body<'_, Gpr>, g: usize, inner: u64) -> Result<ValueId, LiftError> {
    let base = body.global_addr(g)?;
    if inner == 0 {
        return Ok(base);
    }
    Ok(body.emit(Width::W64, |dst| InstKind::Gep {
        dst,
        base,
        offset: inner,
    }))
}

impl Isa for Lifter<'_> {
    type Reg = Gpr;
    const ARGS: [Gpr; MAX_REG_ARGS] = Gpr::SYSV_ARGS;
    const RET: Gpr = Gpr::RAX;

    fn inst_count(&self) -> usize {
        self.insts.len()
    }

    fn flow(&self, i: usize) -> Result<Flow, LiftError> {
        let (inst, off, len) = self.insts[i];
        Ok(match inst {
            Inst::Jmp { rel } => Flow::Jump(self.branch_target(off, len, rel)?),
            Inst::Jcc { rel, .. } => Flow::Branch(self.branch_target(off, len, rel)?),
            Inst::Ret => Flow::Return,
            _ => Flow::Next,
        })
    }

    fn begin_block(&mut self, body: &mut Body<'_, Gpr>, entry: bool) {
        // Flags and the arity heuristic never cross block boundaries.
        self.flags = FlagSrc::None;
        self.args_written = [false; 6];
        if entry {
            if let Some(residual) = &mut self.residual {
                // The residual spill area is allocated up front, exactly
                // where SB-ISA's `salloc` sits.
                let size = residual.size;
                residual.value = Some(body.emit(Width::W64, |dst| InstKind::Alloca { dst, size }));
                self.frame_slots += 1;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn translate(
        &mut self,
        body: &mut Body<'_, Gpr>,
        i: usize,
    ) -> Result<Option<ValueId>, LiftError> {
        self.cur_idx = i;
        let (inst, off, len) = self.insts[i];
        match inst {
            // --- Frame idioms: no IR. ---------------------------------
            Inst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RBP,
                src: Gpr::RSP,
            }
            | Inst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RSP,
                src: Gpr::RBP,
            }
            | Inst::Push { reg: Gpr::RBP }
            | Inst::Pop { reg: Gpr::RBP }
            | Inst::AluRI {
                op: Alu::Add | Alu::Sub,
                dst: Gpr::RSP,
                ..
            } => {}
            Inst::Push { reg } | Inst::Pop { reg } => {
                // Callee-save spills bracket the body and restore what they
                // pushed; modelling them as no-ops keeps values flowing.
                let callee_saved =
                    matches!(reg, Gpr::RBX | Gpr::R12 | Gpr::R13 | Gpr::R14 | Gpr::R15);
                if !callee_saved {
                    return err(format!(
                        "{}: push/pop of caller-saved {reg} is outside the \
                         lifted subset",
                        self.src.name
                    ));
                }
            }
            // --- Data movement. ---------------------------------------
            Inst::MovRR { w, dst, src } => {
                let v = match w {
                    OpWidth::B64 => {
                        let s = self.read_reg(body, src)?;
                        body.emit(body.width(s), |dst| InstKind::Copy { dst, src: s })
                    }
                    // A 32-bit register move zero-extends: lift as a masked
                    // view so the 32-bit width reaches the substrate.
                    _ => self.masked_read(body, src, w)?,
                };
                self.write_reg(body, dst, v)?;
            }
            Inst::MovRI { dst, imm } => {
                let v = body.const_int(imm, Width::W64);
                self.write_reg(body, dst, v)?;
            }
            Inst::MovLoad { w, dst, mem } => {
                let addr = self.lift_addr(body, &mem)?;
                let width = w.ir();
                let v = body.emit(width, |dst| InstKind::Load { dst, addr, width });
                self.write_reg(body, dst, v)?;
            }
            Inst::MovStore { w: _, mem, src } => {
                let addr = self.lift_addr(body, &mem)?;
                let val = self.read_reg(body, src)?;
                body.append(InstKind::Store { addr, val });
            }
            Inst::MovStoreImm { w: _, mem, imm } => {
                let addr = self.lift_addr(body, &mem)?;
                let val = body.const_int(i64::from(imm), Width::W64);
                body.append(InstKind::Store { addr, val });
            }
            Inst::MovZx { from, dst, src } => {
                // The register form is a masked view of the wide register.
                let v = match src {
                    Rm::Reg(r) => self.masked_read(body, r, from)?,
                    Rm::Mem(mem) => {
                        let addr = self.lift_addr(body, &mem)?;
                        let width = from.ir();
                        body.emit(width, |dst| InstKind::Load { dst, addr, width })
                    }
                };
                self.write_reg(body, dst, v)?;
            }
            Inst::MovSx { from, dst, src } => {
                let v = match src {
                    Rm::Reg(r) => {
                        // Sign extension is NOT a mask (the high bits are
                        // copies of bit `from-1`), so the register form
                        // lifts as the shift-up/shift-down pair — the same
                        // staging SB-ISA encodes with two shift
                        // instructions, so both frontends produce
                        // bit-identical IR. The constant binds before the
                        // register read to match SB's `movi` staging order.
                        let amt = i64::from(64 - from.bits());
                        let c1 = body.const_int(amt, Width::W64);
                        let lhs = self.read_reg(body, r)?;
                        let hi = body.emit(Width::W64, |dst| InstKind::BinOp {
                            op: BinOp::Shl,
                            dst,
                            lhs,
                            rhs: c1,
                        });
                        let c2 = body.const_int(amt, Width::W64);
                        body.emit(Width::W64, |dst| InstKind::BinOp {
                            op: BinOp::Shr,
                            dst,
                            lhs: hi,
                            rhs: c2,
                        })
                    }
                    // Memory forms stay plain narrow loads: the access
                    // width is the type evidence, as with `movzx`.
                    Rm::Mem(mem) => {
                        let addr = self.lift_addr(body, &mem)?;
                        let width = from.ir();
                        body.emit(width, |dst| InstKind::Load { dst, addr, width })
                    }
                };
                self.write_reg(body, dst, v)?;
            }
            Inst::Lea { dst, mem } => match mem {
                Mem::Base {
                    base: Gpr::RBP,
                    disp,
                } => {
                    let v = self.frame_addr(body, disp)?;
                    self.write_reg(body, dst, v)?;
                }
                Mem::Rip { disp } => {
                    let v = match self.rip_addr(disp)? {
                        RipTarget::Global(g, inner) => global_addr(body, g, inner)?,
                        RipTarget::Func(f) => body.func_addr(f)?,
                    };
                    self.write_reg(body, dst, v)?;
                }
                _ => {
                    let v = self.lift_addr(body, &mem)?;
                    self.write_reg(body, dst, v)?;
                }
            },
            // --- ALU and flags. ---------------------------------------
            Inst::AluRR {
                op: Alu::Cmp,
                dst,
                src,
            } => {
                let lhs = self.read_reg(body, dst)?;
                let rhs = self.read_reg(body, src)?;
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRI {
                op: Alu::Cmp,
                dst,
                imm,
            } => {
                // Immediate before the register read: the read may create a
                // phi, and SB's `movi` staging binds its constant first, so
                // value creation order must match that sequence.
                let rhs = body.const_int(i64::from(imm), Width::W64);
                let lhs = self.read_reg(body, dst)?;
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRM {
                op: Alu::Cmp,
                dst,
                mem,
            } => {
                let lhs = self.read_reg(body, dst)?;
                let addr = self.lift_addr(body, &mem)?;
                let rhs = body.emit(Width::W64, |dst| InstKind::Load {
                    dst,
                    addr,
                    width: Width::W64,
                });
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRR { op, dst, src } => {
                let lhs = self.read_reg(body, dst)?;
                let rhs = self.read_reg(body, src)?;
                let op = Self::alu_binop(op);
                let v = body.emit(Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(body, dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::AluRI { op, dst, imm } => {
                // Immediate first, as in the compare arm above.
                let rhs = body.const_int(i64::from(imm), Width::W64);
                let lhs = self.read_reg(body, dst)?;
                let op = Self::alu_binop(op);
                let v = body.emit(Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(body, dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::AluRM { op, dst, mem } => {
                let lhs = self.read_reg(body, dst)?;
                let addr = self.lift_addr(body, &mem)?;
                let rhs = body.emit(Width::W64, |dst| InstKind::Load {
                    dst,
                    addr,
                    width: Width::W64,
                });
                let op = Self::alu_binop(op);
                let v = body.emit(Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(body, dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::TestRR { a, b: tb } => {
                let av = self.read_reg(body, a)?;
                let bv = self.read_reg(body, tb)?;
                self.flags = FlagSrc::Test { a: av, b: bv };
            }
            Inst::ShiftRI { sh, dst, amt } => {
                // Immediate first, as in the compare arm above.
                let rhs = body.const_int(i64::from(amt), Width::W64);
                let lhs = self.read_reg(body, dst)?;
                let op = match sh {
                    Shift::Shl => BinOp::Shl,
                    Shift::Shr => BinOp::Shr,
                };
                let v = body.emit(Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(body, dst, v)?;
                self.flags = FlagSrc::None;
            }
            // --- Control flow. ----------------------------------------
            Inst::Jcc { cc, .. } => return Ok(Some(self.materialize_flags(body, cc)?)),
            Inst::Jmp { .. } | Inst::Ret => {}
            Inst::Call { rel } => {
                let addr = rip_target(self.image, self.func_index, (off + len) as u64, rel);
                if let Some(ti) = self.addrs.func_at(addr) {
                    let nargs = self.image.functions[ti].nparams.into();
                    self.call(body, CallTarget::Function(ti), nargs)?;
                } else if let Some(ei) = self.image.plt_at_addr(addr) {
                    let nargs = self.image.externs[ei].nparams.into();
                    self.call(body, CallTarget::Extern(ei), nargs)?;
                } else {
                    return err(format!(
                        "{}: call targets {addr:#x}, neither a function entry \
                         nor a PLT stub",
                        self.src.name
                    ));
                }
            }
            Inst::CallInd { reg } => {
                let fp = self.read_reg(body, reg)?;
                // Arity heuristic: the contiguous run of SysV argument
                // registers written since the last call. An indirect callee
                // is assumed to return a value (the conservative RetDec
                // choice — `rax` may or may not be read afterwards).
                let nargs = self.args_written.iter().take_while(|&&w| w).count();
                self.call(body, CallTarget::Indirect(fp, Some(Width::W64)), nargs)?;
            }
        }
        Ok(None)
    }
}

/// What a `[rip+disp]` reference resolves to.
enum RipTarget {
    /// Global index plus byte offset into the region.
    Global(usize, u64),
    /// The entry of the function at this index.
    Func(usize),
}
/// The x86-64 frontend plugin: recognizes XLF images by their ELF magic
/// and lifts them via [`lift`].
#[derive(Clone, Copy, Debug, Default)]
pub struct X86Frontend;

impl Frontend for X86Frontend {
    fn name(&self) -> &'static str {
        "x86"
    }

    fn describe(&self) -> &'static str {
        "x86-64 subset (XLF ELF-subset container, magic \"\\x7fELF\")"
    }

    fn detects(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(crate::image::MAGIC)
    }

    fn lift_bytes(&self, bytes: &[u8]) -> Result<Module, FrontendError> {
        let image =
            crate::image::decode_image(bytes).map_err(|e| FrontendError::new(e.to_string()))?;
        lift(&image).map_err(|e| FrontendError::new(e.message))
    }
}

#[cfg(test)]
mod tests {
    use manta_ir::{Callee, CmpPred, ConstKind, Terminator, ValueKind};

    use super::*;
    use crate::asm::assemble;

    fn lift_text(text: &str) -> Module {
        lift(&assemble(text).unwrap()).unwrap()
    }

    fn lift_err(text: &str) -> LiftError {
        lift(&assemble(text).unwrap()).unwrap_err()
    }

    #[test]
    fn lifts_straightline_function_with_call() {
        let m = lift_text(
            "module m\nextern malloc, 1, ret\nfunc f(1) -> ret {\n    mov rdi, rdi\n    call malloc\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(f.params().len(), 1);
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Call { .. })));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::Ret(Some(_)))));
    }

    #[test]
    fn jcc_materializes_cmp_and_condbr() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    cmp rdi, 0\n    je zero\n    mov rax, 1\n    ret\nzero:\n    mov rax, 2\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // `je` lifts as the negated predicate: fallthrough iff `rdi != 0`.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Cmp {
                pred: CmpPred::Ne,
                ..
            }
        )));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::CondBr { .. })));
    }

    #[test]
    fn branch_join_builds_phi() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    cmp rdi, 0\n    je zero\n    mov rcx, 1\n    jmp done\nzero:\n    mov rcx, 2\ndone:\n    mov rax, rcx\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let phis = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
            .count();
        assert_eq!(phis, 1, "one phi for rcx at the join");
    }

    #[test]
    fn loop_carried_value_builds_phi() {
        let m = lift_text(
            "module m\nfunc count(1) -> ret {\nhead:\n    cmp rdi, 0\n    je done\n    sub rdi, 1\n    jmp head\ndone:\n    mov rax, rdi\n    ret\n}\n",
        );
        let f = m.function_by_name("count").unwrap();
        assert!(
            f.insts().any(|i| matches!(i.kind, InstKind::Phi { .. })),
            "loop-carried rdi needs a phi"
        );
    }

    #[test]
    fn test_jne_lifts_like_brz() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    test rdi, rdi\n    je out\n    mov rax, 1\n    ret\nout:\n    mov rax, 0\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // `test r, r; je` is a zero test: cmp (rdi != 0) like SB's brz.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Cmp {
                pred: CmpPred::Ne,
                ..
            }
        )));
    }

    #[test]
    fn sub_registers_lift_as_masked_views() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    movzx rax, dil\n    mov ecx, eax\n    mov rax, rcx\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // movzx rax, dil → and(rdi, 0xff) at W8; mov ecx, eax → and at W32.
        let masks: Vec<Width> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp {
                    op: BinOp::And,
                    dst,
                    ..
                } => Some(f.value(dst).width),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![Width::W8, Width::W32]);
    }

    #[test]
    fn movsx_register_form_lifts_as_a_shift_pair() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    movsx rax, dil\n    add rax, rdi\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // movsx rax, dil → (rdi << 56) >> 56, never an And mask — the
        // extension feeds the add directly.
        let ops: Vec<BinOp> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec![BinOp::Shl, BinOp::Shr, BinOp::Add]);
        let amounts: Vec<i64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp {
                    op: BinOp::Shl | BinOp::Shr,
                    rhs,
                    ..
                } => match f.value(rhs).kind {
                    ValueKind::Const(manta_ir::ConstKind::Int(c)) => Some(c),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(amounts, vec![56, 56]);
    }

    #[test]
    fn movsx_memory_form_stays_a_narrow_load() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    sub rsp, 8\n    mov qword [rbp-8], rdi\n    movsx rax, dword [rbp-8]\n    mov rsp, rbp\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Load {
                width: Width::W32,
                ..
            }
        )));
        assert!(!f
            .insts()
            .any(|i| matches!(i.kind, InstKind::BinOp { op: BinOp::Shl, .. })));
    }

    #[test]
    fn rbp_locals_become_frame_allocas() {
        let m = lift_text(
            "module m\nextern observe, 1, void\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    sub rsp, 32\n    lea rax, [rbp-16]\n    mov qword [rbp-16], rdi\n    mov qword [rbp-24], rdi\n    mov rdi, rax\n    call observe\n    mov rax, qword [rbp-24]\n    mov rsp, rbp\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // One lea-rooted slot ([rbp-16), 16 bytes) + one residual spill
        // area covering [rbp-24, rbp-16).
        let sizes: Vec<u64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::Alloca { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![8, 16], "residual spill first, then the slot");
        // The store at [rbp-16] goes straight to the slot alloca (no gep);
        // the [rbp-24] access hits the residual area.
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Store { .. })));
    }

    #[test]
    fn direct_only_rbp_frame_is_one_residual_alloca() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    mov qword [rbp-8], rdi\n    mov rax, qword [rbp-8]\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let allocas: Vec<u64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::Alloca { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(allocas, vec![8]);
    }

    #[test]
    fn lea_func_marks_address_taken_and_icall_recovers_arity() {
        let m = lift_text(
            "module m\nfunc helper(1) -> ret {\n    mov rax, rdi\n    ret\n}\nfunc f(0) -> ret {\n    lea rcx, func helper\n    mov rdi, 7\n    call rcx\n    ret\n}\n",
        );
        assert!(m.function_by_name("helper").unwrap().is_address_taken());
        let f = m.function_by_name("f").unwrap();
        let icall_args = f
            .insts()
            .find_map(|i| match &i.kind {
                InstKind::Call {
                    callee: Callee::Indirect(_),
                    args,
                    ..
                } => Some(args.len()),
                _ => None,
            })
            .expect("indirect call lifted");
        assert_eq!(icall_args, 1, "mov rdi, 7 before `call rcx` means 1 arg");
    }

    #[test]
    fn global_lea_and_interior_access() {
        let m = lift_text(
            "module m\nglobal table, 64\nfunc f(0) -> ret {\n    lea rax, global table\n    mov rcx, qword [rax+8]\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::GlobalAddr(_))));
        assert!(f
            .insts()
            .any(|i| matches!(i.kind, InstKind::Gep { offset: 8, .. })));
    }

    #[test]
    fn jcc_without_flags_is_rejected() {
        let e = lift_err(
            "module m\nfunc f(1) -> ret {\n    mov rax, rdi\n    je out\nout:\n    ret\n}\n",
        );
        assert!(e.message.contains("without a live cmp/test"), "{e}");
    }

    #[test]
    fn rsp_access_is_rejected() {
        let e = lift_err("module m\nfunc f(1) -> ret {\n    mov rax, qword [rsp+8]\n    ret\n}\n");
        assert!(e.message.contains("rsp"), "{e}");
    }

    #[test]
    fn rbp_access_without_prologue_is_rejected() {
        let e = lift_err("module m\nfunc f(1) -> ret {\n    mov qword [rbp-8], rdi\n    ret\n}\n");
        assert!(e.message.contains("prologue"), "{e}");
    }

    #[test]
    fn undefined_register_reads_become_undef() {
        let m = lift_text("module m\nfunc f(0) -> ret {\n    mov rax, r9\n    ret\n}\n");
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::Const(ConstKind::Undef))));
    }

    #[test]
    fn repeated_extern_names_share_one_declaration() {
        let m = lift_text(
            "module m\nextern alpha, 1\nextern alpha, 1\nextern beta, 1, ret\nfunc main(0) -> ret {\n    mov rdi, 3\n    call beta\n    ret\n}\n",
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
            .expect("extern call lifted");
        assert_eq!(m.extern_decl(callee).name, "beta");
    }

    #[test]
    fn an_extern_with_seven_parameters_lifts_until_called() {
        let decl = "module m\nextern wide, 7\n";
        lift_text(&format!("{decl}func main(0) -> void {{\n    ret\n}}\n"));
        let e = lift_err(&format!(
            "{decl}func main(0) -> void {{\n    call wide\n    ret\n}}\n"
        ));
        assert!(e.message.contains("at most 6"), "{e}");
    }

    #[test]
    fn the_lowest_frame_offset_sizes_its_slot_without_overflow() {
        for access in [
            "lea rax, [rbp-2147483648]",
            "mov rax, qword [rbp-2147483648]",
        ] {
            let m = lift_text(&format!(
                "module m\nfunc f(0) -> ret {{\n    push rbp\n    mov rbp, rsp\n    {access}\n    pop rbp\n    ret\n}}\n"
            ));
            let f = m.function_by_name("f").unwrap();
            assert!(
                f.insts().any(|i| matches!(
                    i.kind,
                    InstKind::Alloca {
                        size: 0x8000_0000,
                        ..
                    }
                )),
                "{access}"
            );
        }
    }

    #[test]
    fn frontend_detects_and_lifts() {
        let img = assemble("module m\nfunc f(0) -> void {\n    ret\n}\n").unwrap();
        let bytes = crate::image::encode_image(&img);
        let fe = X86Frontend;
        assert!(fe.detects(&bytes));
        assert!(!fe.detects(b"SBF1"));
        let m = fe.lift_bytes(&bytes).unwrap();
        assert!(m.function_by_name("f").is_some());
    }
}
