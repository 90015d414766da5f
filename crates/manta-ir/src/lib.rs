//! # manta-ir
//!
//! An LLVM-like typed SSA intermediate representation used as the analysis
//! substrate of the Manta reproduction (ASPLOS 2024, *Manta: Hybrid-Sensitive
//! Type Inference Toward Type-Assisted Bug Detection for Stripped Binaries*).
//!
//! The paper lifts stripped binaries to LLVM IR with RetDec and performs all
//! analyses on the lifted IR. This crate plays the role of that IR: binary
//! registers become SSA values ([`Value`]), the machine instruction set maps
//! onto a small instruction vocabulary ([`InstKind`]), and stack/global/heap
//! memory is later partitioned into abstract objects by `manta-analysis`.
//!
//! Crucially, values in a [`Module`] carry only a machine *width* — never a
//! source type — mirroring what survives compilation to a stripped binary.
//! Recovering the types is the job of the `manta` crate.
//!
//! ## Example
//!
//! ```
//! use manta_ir::{ModuleBuilder, Width, BinOp};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let (fid, mut fb) = mb.function("sum", &[Width::W64, Width::W64], Some(Width::W64));
//! let a = fb.param(0);
//! let b = fb.param(1);
//! let s = fb.binop(BinOp::Add, a, b, Width::W64);
//! fb.ret(Some(s));
//! mb.finish_function(fb);
//! let module = mb.finish();
//! assert_eq!(module.function(fid).name(), "sum");
//! manta_ir::verify::verify_module(&module).unwrap();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
pub mod cfg;
pub mod dom;
mod externs;
mod frontend;
mod function;
mod ids;
mod inst;
pub mod lift;
mod module;
pub mod parser;
pub mod printer;
pub mod types;
mod value;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use externs::{ExternDecl, ExternEffect, ExternRegistry};
pub use frontend::{Frontend, FrontendError};
pub use function::{Block, Function, Terminator, UseIndex};
pub use ids::{BlockId, ExternId, FuncId, GlobalId, InstId, ValueId};
pub use inst::{BinOp, Callee, CmpPred, InstData, InstKind};
pub use module::{Global, Module};
pub use types::{FuncSig, Type, Width};
pub use value::{ConstKind, Value, ValueKind};
