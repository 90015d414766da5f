//! The lifting skeleton both machine frontends share.
//!
//! The paper lifts stripped binaries to one IR before any analysis runs
//! (§3, its RetDec stage). Every ISA lifts the same way: declare the
//! image's externs, globals and function shells; split each body into
//! basic blocks at branch targets and after terminators; rename machine
//! registers to SSA values; emit the terminators; verify the module.
//! [`ModuleLifter`] does all of that once, the way Macaw shares one
//! discovery pass across architectures. An ISA plugs in only what is its
//! own through [`Isa`]: where each instruction sends control, and what the
//! rest of it computes.
//!
//! Registers are renamed with the sealed-block construction of Braun et
//! al. (every predecessor is known before translation starts): a read
//! without a definition earlier in its block becomes a start-of-block
//! value, resolved into a phi, or a copy of `undef`, once every block is
//! translated. No type information exists at this level; every value
//! carries only its machine width.
//!
//! A malformed image fails with a [`LiftError`], never a panic. Every
//! index an image names (branch target, callee, extern, global, function
//! address) is range-checked where its value is made, a call passes at
//! most [`MAX_REG_ARGS`] register arguments, and each function's id is
//! its position in the image.

use std::fmt;
use std::hash::Hash;

use crate::builder::SsaBuilder;
use crate::function::{Function, Terminator};
use crate::ids::{BlockId, ExternId, FuncId, GlobalId, InstId, ValueId};
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use crate::types::Width;
use crate::value::{ConstKind, Value, ValueKind};

/// The most arguments a function takes, or a call passes, in registers.
pub const MAX_REG_ARGS: usize = 6;

/// Fallback parameter widths for declarations: an image says only how many.
const W64S: [Width; u8::MAX as usize] = [Width::W64; u8::MAX as usize];

/// Lifting failure: the image is malformed, or its code lies outside the
/// lifted subset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LiftError {
    /// Description.
    pub message: String,
}

impl LiftError {
    /// A failure described by `message`.
    pub fn new(message: impl Into<String>) -> LiftError {
        LiftError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lift error: {}", self.message)
    }
}

impl std::error::Error for LiftError {}

fn err<T>(message: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError::new(message))
}

/// Where an instruction sends control, by instruction index within its
/// function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// On to the next instruction.
    Next,
    /// To the instruction at this index.
    Jump(usize),
    /// To the next instruction when the condition [`Isa::translate`]
    /// returns holds, else to the instruction at this index.
    Branch(usize),
    /// Out of the function.
    Return,
}

/// One function's machine code, as the skeleton sees it: an ISA's
/// decoding and per-instruction semantics.
pub trait Isa {
    /// The machine register the SSA renamer tracks.
    type Reg: Copy + Eq + Hash;
    /// The registers that carry arguments, in order.
    const ARGS: [Self::Reg; MAX_REG_ARGS];
    /// The register that carries the return value.
    const RET: Self::Reg;

    /// Number of instructions in the body.
    fn inst_count(&self) -> usize;

    /// Where instruction `i` sends control.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] for a branch that lands on no instruction.
    fn flow(&self, i: usize) -> Result<Flow, LiftError>;

    /// Runs at the start of each block, before its first instruction is
    /// translated; `entry` is true for the function's entry block.
    fn begin_block(&mut self, _body: &mut Body<'_, Self::Reg>, _entry: bool) {}

    /// Translates instruction `i` into the current block. The skeleton
    /// emits every terminator; for a [`Flow::Branch`] this returns the
    /// condition under which control falls through, and `None` for any
    /// other instruction.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] for code outside the lifted subset.
    fn translate(
        &mut self,
        body: &mut Body<'_, Self::Reg>,
        i: usize,
    ) -> Result<Option<ValueId>, LiftError>;
}

/// What a call calls.
#[derive(Clone, Copy, Debug)]
pub enum CallTarget {
    /// The image's function at this index.
    Function(usize),
    /// The image's extern at this index.
    Extern(usize),
    /// The function whose address the value holds, returning a value of
    /// the given width, if any.
    Indirect(ValueId, Option<Width>),
}

/// The function being lifted, as [`Isa`] hooks see it: its current block,
/// the register renamer, and the module's declarations.
pub struct Body<'a, R> {
    module: &'a mut Module,
    func: FuncId,
    /// The module's id for each image extern.
    externs: &'a [ExternId],
    block: BlockId,
    ssa: SsaBuilder<R>,
    args: [R; MAX_REG_ARGS],
    ret: R,
}

impl<R: Copy + Eq + Hash> Body<'_, R> {
    /// Reads register `r` in the current block.
    pub fn read(&mut self, r: R) -> ValueId {
        let func = self.module.function_mut(self.func);
        self.ssa.read(func, self.block, r)
    }

    /// Binds register `r` to `v` in the current block.
    pub fn write(&mut self, r: R, v: ValueId) {
        self.ssa.write(r, v);
    }

    /// The width of value `v`.
    pub fn width(&self, v: ValueId) -> Width {
        self.module.function(self.func).value(v).width
    }

    /// An integer constant.
    pub fn const_int(&mut self, v: i64, width: Width) -> ValueId {
        self.value(ValueKind::Const(ConstKind::Int(v)), width)
    }

    /// A 64-bit floating constant.
    pub fn const_float(&mut self, v: f64) -> ValueId {
        self.value(ValueKind::Const(ConstKind::Float(v)), Width::W64)
    }

    /// The address of the image's global `index`.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] when the image has no such global.
    pub fn global_addr(&mut self, index: usize) -> Result<ValueId, LiftError> {
        if index >= self.module.globals().count() {
            return err(format!("global index {index} out of range"));
        }
        Ok(self.value(
            ValueKind::GlobalAddr(GlobalId::from_index(index)),
            Width::W64,
        ))
    }

    /// The address of the image's function `index`, which becomes
    /// address-taken.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] when the image has no such function.
    pub fn func_addr(&mut self, index: usize) -> Result<ValueId, LiftError> {
        if index >= self.module.function_count() {
            return err(format!("function address index {index} out of range"));
        }
        let f = FuncId::from_index(index);
        self.module.function_mut(f).set_address_taken(true);
        Ok(self.value(ValueKind::FuncAddr(f), Width::W64))
    }

    /// Appends the instruction `f` builds around a fresh `width`-wide
    /// result, and returns the result.
    pub fn emit(&mut self, width: Width, f: impl FnOnce(ValueId) -> InstKind) -> ValueId {
        let func = self.module.function_mut(self.func);
        let def = InstId::from_index(func.inst_count());
        let v = func.add_value(Value {
            kind: ValueKind::Inst { def },
            width,
        });
        let got = func.append_inst(self.block, f(v));
        debug_assert_eq!(got, def);
        v
    }

    /// Appends an instruction that defines no value.
    pub fn append(&mut self, kind: InstKind) {
        self.module
            .function_mut(self.func)
            .append_inst(self.block, kind);
    }

    /// Calls `target` with the first `nargs` argument registers, and binds
    /// the result, if the callee returns one, to the return register.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] when `target` names no function or extern of
    /// the image, when a direct call's `nargs` is not its callee's
    /// parameter count, or when `nargs` exceeds [`MAX_REG_ARGS`].
    pub fn call(&mut self, target: CallTarget, nargs: usize) -> Result<(), LiftError> {
        let (callee, ret) = match target {
            CallTarget::Function(index) => {
                if index >= self.module.function_count() {
                    return err(format!("call index {index} out of range"));
                }
                let f = self.module.function(FuncId::from_index(index));
                if nargs != f.params().len() {
                    return err(format!(
                        "call to {} passes {nargs} args, expects {}",
                        f.name(),
                        f.params().len()
                    ));
                }
                (Callee::Direct(f.id()), f.ret_width())
            }
            CallTarget::Extern(index) => {
                let Some(&e) = self.externs.get(index) else {
                    return err(format!("extern index {index} out of range"));
                };
                (Callee::Extern(e), self.module.extern_decl(e).ret_width)
            }
            CallTarget::Indirect(fp, ret) => (Callee::Indirect(fp), ret),
        };
        let regs = self.args;
        let Some(regs) = regs.get(..nargs) else {
            return err(format!(
                "a call passes {nargs} register arguments; at most {MAX_REG_ARGS} fit"
            ));
        };
        let args: Vec<ValueId> = regs.iter().map(|&r| self.read(r)).collect();
        match ret {
            Some(width) => {
                let v = self.emit(width, |dst| InstKind::Call {
                    dst: Some(dst),
                    callee,
                    args,
                });
                self.write(self.ret, v);
            }
            None => self.append(InstKind::Call {
                dst: None,
                callee,
                args,
            }),
        }
        Ok(())
    }

    fn value(&mut self, kind: ValueKind, width: Width) -> ValueId {
        self.module
            .function_mut(self.func)
            .add_value(Value { kind, width })
    }
}

/// Assembles one module from an image: the declarations first, then each
/// function body, then verification.
#[derive(Debug)]
pub struct ModuleLifter {
    module: Module,
    /// The module's id for each image extern, in image order. The module
    /// declares a repeated name once, so two entries may share an id.
    externs: Vec<ExternId>,
}

impl ModuleLifter {
    /// Declares an image's externs, globals and function shells, each in
    /// image order. An extern or function is `(name, parameter count,
    /// returns a value)`; every parameter and return value is 64 bits
    /// wide, and the image's `i`-th function gets id `i`.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] when a function takes more than
    /// [`MAX_REG_ARGS`] parameters.
    pub fn new<'s>(
        name: &str,
        externs: impl IntoIterator<Item = (&'s str, u8, bool)>,
        globals: impl IntoIterator<Item = (&'s str, u64)>,
        functions: impl IntoIterator<Item = (&'s str, u8, bool)>,
    ) -> Result<ModuleLifter, LiftError> {
        let mut module = Module::new(name);
        let externs = externs
            .into_iter()
            .map(|(name, nparams, has_ret)| {
                let params = &W64S[..usize::from(nparams)];
                module.declare_extern(name, params, has_ret.then_some(Width::W64))
            })
            .collect();
        for (name, size) in globals {
            module.push_global(name.to_string(), size);
        }
        for (i, (name, nparams, has_ret)) in functions.into_iter().enumerate() {
            let Some(params) = W64S[..MAX_REG_ARGS].get(..usize::from(nparams)) else {
                return err(format!(
                    "function {name} has {nparams} parameters; at most {MAX_REG_ARGS} fit in registers"
                ));
            };
            let ret = has_ret.then_some(Width::W64);
            let func = Function::new(FuncId::from_index(i), name.to_string(), params, ret);
            module.push_function(func);
        }
        Ok(ModuleLifter { module, externs })
    }

    /// Lifts the body of the image's function `index` into its shell.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] for a branch outside the body, and passes on
    /// any error of `isa` or of a [`Body`] helper.
    ///
    /// # Panics
    ///
    /// Panics if `index` names no declared function.
    pub fn lift_function<I: Isa>(&mut self, index: usize, isa: &mut I) -> Result<(), LiftError> {
        let id = FuncId::from_index(index);
        let n = isa.inst_count();
        if n == 0 {
            // An empty body keeps the shell's `unreachable` entry.
            return Ok(());
        }
        // Leaders: the first instruction, every branch target, and every
        // instruction after a terminator.
        let mut flows = Vec::with_capacity(n);
        let mut leader = vec![false; n];
        leader[0] = true;
        for i in 0..n {
            let flow = isa.flow(i)?;
            if let Flow::Jump(t) | Flow::Branch(t) = flow {
                if t >= n {
                    let name = self.module.function(id).name();
                    return err(format!("branch target {t} out of range in {name}"));
                }
                leader[t] = true;
            }
            if flow != Flow::Next && i + 1 < n {
                leader[i + 1] = true;
            }
            flows.push(flow);
        }
        // Blocks in leader order; the first is the shell's entry block.
        let func = self.module.function_mut(id);
        let entry = func.entry();
        let mut block_of = Vec::with_capacity(n);
        let mut current = entry;
        for (i, &starts) in leader.iter().enumerate() {
            if starts && i != 0 {
                current = func.add_block();
            }
            block_of.push(current);
        }
        // Machine-CFG predecessors, for phi placement. A branch lists its
        // target before its fallthrough.
        let mut preds = vec![Vec::new(); func.block_count()];
        let mut edge = |from: usize, to: usize| preds[block_of[to].index()].push(block_of[from]);
        for (i, &flow) in flows.iter().enumerate() {
            match flow {
                Flow::Jump(t) => edge(i, t),
                Flow::Branch(t) => {
                    edge(i, t);
                    if i + 1 < n {
                        edge(i, i + 1);
                    }
                }
                Flow::Next if i + 1 < n && leader[i + 1] => edge(i, i + 1),
                Flow::Next | Flow::Return => {}
            }
        }
        // Translate block by block, in machine order.
        let mut body = Body {
            module: &mut self.module,
            func: id,
            externs: &self.externs,
            block: entry,
            ssa: SsaBuilder::new(preds),
            args: I::ARGS,
            ret: I::RET,
        };
        let mut i = 0;
        while i < n {
            let b = block_of[i];
            body.block = b;
            if b == entry {
                let params = body.module.function(id).params();
                body.ssa
                    .begin_block(I::ARGS.into_iter().zip(params.iter().copied()));
            } else {
                body.ssa.begin_block([]);
            }
            isa.begin_block(&mut body, b == entry);
            loop {
                let cond = isa.translate(&mut body, i)?;
                let term = match flows[i] {
                    Flow::Next => None,
                    Flow::Jump(t) => Some(Terminator::Br(block_of[t])),
                    Flow::Branch(t) => {
                        let Some(cond) = cond else {
                            return err("a branch was translated without its condition");
                        };
                        // A branch at the very end has no fallthrough:
                        // both arms go to the target.
                        let else_bb = block_of[t];
                        let then_bb = block_of.get(i + 1).copied().unwrap_or(else_bb);
                        Some(Terminator::CondBr {
                            cond,
                            then_bb,
                            else_bb,
                        })
                    }
                    Flow::Return => {
                        let returns = body.module.function(id).ret_width().is_some();
                        Some(Terminator::Ret(returns.then(|| body.read(I::RET))))
                    }
                };
                i += 1;
                let term = match term {
                    Some(term) => term,
                    None if i == n => Terminator::Unreachable,
                    None if block_of[i] != b => Terminator::Br(block_of[i]),
                    None => continue,
                };
                body.module.function_mut(id).replace_terminator(b, term);
                break;
            }
            body.ssa.end_block(b);
        }
        let Body {
            module, mut ssa, ..
        } = body;
        ssa.finish(module.function_mut(id));
        Ok(())
    }

    /// Verifies the assembled module and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`LiftError`] when the module fails
    /// [`verify_module`](crate::verify::verify_module).
    pub fn finish(self) -> Result<Module, LiftError> {
        crate::verify::verify_module(&self.module)
            .map_err(|e| LiftError::new(format!("lifted module failed verification: {e}")))?;
        Ok(self.module)
    }
}
