//! # manta-x86
//!
//! An x86-64-subset frontend: byte-level disassembler, line-oriented
//! assembler, ELF-subset image container, and a lifter into `manta-ir` SSA.
//! This is the second [`manta_ir::Frontend`] next to SB-ISA (`manta-isa`)
//! and is differentially tested against it: the workloads generator emits
//! every program in both encodings and the engine must infer bit-identical
//! types from either.
//!
//! * [`inst`] — the instruction subset (mov/movzx/movsx/lea, the classic
//!   ALU group, cmp/test + jcc, push/pop, call/ret; rel32 control flow).
//! * [`encode`](mod@encode)/[`decode`] — canonical byte codec with REX, ModRM/SIB and
//!   RIP-relative addressing; `decode(bytes)` re-encodes byte-identically.
//! * [`image`] — the XLF ELF-subset container: text blob + function table +
//!   PLT stubs + globals, plus the [`image::ImageBuilder`] linker layer.
//! * [`asm`] — a line-oriented Intel-syntax assembler with labels.
//! * [`lift`](mod@lift) — x86 semantics for the lifting skeleton
//!   ([`manta_ir::lift`]) that builds a [`manta_ir::Module`]: eflags
//!   materialize as SSA booleans at their consuming `jcc`, sub-registers
//!   become masked views, `rbp`-relative slots become frame allocas, and
//!   the SysV ABI maps registers to parameters and returns.

#![warn(missing_docs)]

pub mod asm;
pub mod decode;
pub mod encode;
pub mod image;
pub mod inst;
pub mod lift;

pub use asm::{assemble, AsmError};
pub use decode::{decode_all, decode_one, DecodeError};
pub use encode::{encode, encode_to_vec, encoded_len};
pub use image::{
    decode_image, encode_image, Image, ImageBuilder, ImageError, ImageExtern, ImageFunction,
    ImageGlobal, SymInst,
};
pub use inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm, Shift};
pub use lift::{lift, LiftError, X86Frontend};
