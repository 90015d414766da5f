//! Fluent construction of modules and functions.
//!
//! [`ModuleBuilder`] owns a module under construction; [`FunctionBuilder`]
//! appends SSA instructions to one function with a current-block cursor,
//! mirroring LLVM's `IRBuilder`.
//!
//! ```
//! use manta_ir::{ModuleBuilder, Width, BinOp, ConstKind};
//!
//! let mut mb = ModuleBuilder::new("m");
//! let malloc = mb.extern_fn("malloc", &[], None);
//! let (_f, mut fb) = mb.function("grab", &[Width::W64], Some(Width::W64));
//! let n = fb.param(0);
//! let eight = fb.const_int(8, Width::W64);
//! let sz = fb.binop(BinOp::Mul, n, eight, Width::W64);
//! let buf = fb.call_extern(malloc, &[sz], Some(Width::W64));
//! fb.ret(buf);
//! mb.finish_function(fb);
//! let m = mb.finish();
//! manta_ir::verify::verify_module(&m).unwrap();
//! ```

use std::collections::HashMap;
use std::hash::Hash;

use crate::function::{Function, Terminator};
use crate::ids::{BlockId, ExternId, FuncId, GlobalId, InstId, ValueId};
use crate::inst::{BinOp, Callee, CmpPred, InstKind};
use crate::module::Module;
use crate::types::Width;
use crate::value::{ConstKind, Value, ValueKind};

/// Builds a [`Module`] incrementally.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Starts a new module named `name`.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Starts a new function; returns its id and a builder positioned at the
    /// entry block. Every started function must later be passed to
    /// [`finish_function`](Self::finish_function).
    pub fn function(
        &mut self,
        name: &str,
        param_widths: &[Width],
        ret_width: Option<Width>,
    ) -> (FuncId, FunctionBuilder) {
        let id = self.module.next_func_id();
        let func = Function::new(id, name.to_string(), param_widths, ret_width);
        // Reserve the slot so sibling functions allocated before this one is
        // finished still receive distinct ids.
        let placeholder = Function::new(id, name.to_string(), param_widths, ret_width);
        self.module.push_function(placeholder);
        let entry = func.entry();
        (
            id,
            FunctionBuilder {
                func,
                cursor: entry,
            },
        )
    }

    /// Installs a finished function body.
    pub fn finish_function(&mut self, fb: FunctionBuilder) {
        let id = fb.func.id();
        *self.module.function_mut(id) = fb.func;
    }

    /// Declares a global region of `size` bytes.
    pub fn global(&mut self, name: &str, size: u64) -> GlobalId {
        self.module.push_global(name.to_string(), size)
    }

    /// Declares an external function. Well-known names get their modeled
    /// signature and effect from [`ExternRegistry`](crate::ExternRegistry);
    /// unknown names fall back to the given widths with no signature.
    pub fn extern_fn(
        &mut self,
        name: &str,
        fallback_params: &[Width],
        fallback_ret: Option<Width>,
    ) -> ExternId {
        self.module
            .declare_extern(name, fallback_params, fallback_ret)
    }

    /// Finishes the module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Read access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Marks `f` address-taken (its address escapes into data).
    pub fn mark_address_taken(&mut self, f: FuncId) {
        self.module.function_mut(f).set_address_taken(true);
    }
}

/// Builds one function body with a current-block cursor.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cursor: BlockId,
}

impl FunctionBuilder {
    /// The id of the function being built.
    pub fn func_id(&self) -> FuncId {
        self.func.id()
    }

    /// The `index`-th parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> ValueId {
        self.func.params()[index]
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> BlockId {
        self.cursor
    }

    /// Creates a new (empty, unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Moves the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cursor = block;
    }

    fn def_value(&mut self, width: Width) -> ValueId {
        // The def instruction id is the one about to be pushed.
        let next_inst = crate::ids::InstId::from_index(self.func.inst_count());
        self.func.add_value(Value {
            kind: ValueKind::Inst { def: next_inst },
            width,
        })
    }

    /// An integer constant value.
    pub fn const_int(&mut self, v: i64, width: Width) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::Const(ConstKind::Int(v)),
            width,
        })
    }

    /// A floating constant value.
    pub fn const_float(&mut self, v: f64, width: Width) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::Const(ConstKind::Float(v)),
            width,
        })
    }

    /// The null-pointer constant.
    pub fn const_null(&mut self) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::Const(ConstKind::Null),
            width: Width::W64,
        })
    }

    /// The address of global `g`.
    pub fn global_addr(&mut self, g: GlobalId) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::GlobalAddr(g),
            width: Width::W64,
        })
    }

    /// The address of function `f` (an address-taken constant).
    pub fn func_addr(&mut self, f: FuncId) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::FuncAddr(f),
            width: Width::W64,
        })
    }

    /// `dst = copy src`.
    pub fn copy(&mut self, src: ValueId) -> ValueId {
        let width = self.func.value(src).width;
        let dst = self.def_value(width);
        self.func
            .append_inst(self.cursor, InstKind::Copy { dst, src });
        dst
    }

    /// `dst = phi [(block, value), …]`.
    pub fn phi(&mut self, incomings: &[(BlockId, ValueId)], width: Width) -> ValueId {
        let dst = self.def_value(width);
        self.func.append_inst(
            self.cursor,
            InstKind::Phi {
                dst,
                incomings: incomings.to_vec(),
            },
        );
        dst
    }

    /// `dst = load addr` of the given width.
    pub fn load(&mut self, addr: ValueId, width: Width) -> ValueId {
        let dst = self.def_value(width);
        self.func
            .append_inst(self.cursor, InstKind::Load { dst, addr, width });
        dst
    }

    /// `store addr, val`.
    pub fn store(&mut self, addr: ValueId, val: ValueId) {
        self.func
            .append_inst(self.cursor, InstKind::Store { addr, val });
    }

    /// `dst = alloca size` — a stack slot address.
    pub fn alloca(&mut self, size: u64) -> ValueId {
        let dst = self.def_value(Width::W64);
        self.func
            .append_inst(self.cursor, InstKind::Alloca { dst, size });
        dst
    }

    /// `dst = gep base, offset` — a field address.
    pub fn gep(&mut self, base: ValueId, offset: u64) -> ValueId {
        let dst = self.def_value(Width::W64);
        self.func
            .append_inst(self.cursor, InstKind::Gep { dst, base, offset });
        dst
    }

    /// `dst = op lhs, rhs`.
    pub fn binop(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId, width: Width) -> ValueId {
        let dst = self.def_value(width);
        self.func
            .append_inst(self.cursor, InstKind::BinOp { op, dst, lhs, rhs });
        dst
    }

    /// `dst = cmp.pred lhs, rhs` (result width `W1`).
    pub fn cmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        let dst = self.def_value(Width::W1);
        self.func.append_inst(
            self.cursor,
            InstKind::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            },
        );
        dst
    }

    /// Direct call to module function `f`.
    pub fn call(&mut self, f: FuncId, args: &[ValueId], ret: Option<Width>) -> Option<ValueId> {
        let dst = ret.map(|w| self.def_value(w));
        self.func.append_inst(
            self.cursor,
            InstKind::Call {
                dst,
                callee: Callee::Direct(f),
                args: args.to_vec(),
            },
        );
        dst
    }

    /// Call to external `e`; returns the result value if `ret` is given.
    pub fn call_extern(
        &mut self,
        e: ExternId,
        args: &[ValueId],
        ret: Option<Width>,
    ) -> Option<ValueId> {
        let dst = ret.map(|w| self.def_value(w));
        self.func.append_inst(
            self.cursor,
            InstKind::Call {
                dst,
                callee: Callee::Extern(e),
                args: args.to_vec(),
            },
        );
        dst
    }

    /// Indirect call through function-pointer value `fp`.
    pub fn call_indirect(
        &mut self,
        fp: ValueId,
        args: &[ValueId],
        ret: Option<Width>,
    ) -> Option<ValueId> {
        let dst = ret.map(|w| self.def_value(w));
        self.func.append_inst(
            self.cursor,
            InstKind::Call {
                dst,
                callee: Callee::Indirect(fp),
                args: args.to_vec(),
            },
        );
        dst
    }

    /// Terminates the current block with `br target`.
    pub fn br(&mut self, target: BlockId) {
        self.func
            .replace_terminator(self.cursor, Terminator::Br(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        self.func.replace_terminator(
            self.cursor,
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            },
        );
    }

    /// Terminates the current block with `ret`.
    pub fn ret(&mut self, val: Option<ValueId>) {
        self.func
            .replace_terminator(self.cursor, Terminator::Ret(val));
    }

    /// Terminates the current block with `unreachable`.
    pub fn unreachable(&mut self) {
        self.func
            .replace_terminator(self.cursor, Terminator::Unreachable);
    }

    /// Read access to the function under construction.
    pub fn function(&self) -> &Function {
        &self.func
    }
}

/// Sealed-block SSA construction over an abstract machine-register file
/// (Braun et al., *Simple and Efficient Construction of Static Single
/// Assignment Form*, CC 2013).
///
/// The lifting skeleton ([`crate::lift`]) drives it for every ISA: the
/// register key `R` is whatever a frontend renames (SB-ISA registers,
/// x86-64 GPRs, …). The protocol per function:
///
/// 1. construct with the machine-CFG predecessors of every block, indexed
///    by block (all blocks are known up front, so every block is
///    *sealed*);
/// 2. for each block in layout order: [`begin_block`](Self::begin_block)
///    (seeding the entry with parameter bindings), translate instructions
///    using [`read`](Self::read)/[`write`](Self::write), then
///    [`end_block`](Self::end_block);
/// 3. [`finish`](Self::finish) once all blocks are translated — pending
///    start-of-block phis created by cross-block reads are resolved against
///    the sealed end-of-block states (two-phase, because loop back edges
///    flow from blocks translated later).
///
/// Reads of never-written registers yield a single shared `undef` constant.
/// Phi placeholder values are created with a dummy defining instruction and
/// re-pointed via [`Function::fix_value_def`] when the phi is prepended.
#[derive(Debug)]
pub(crate) struct SsaBuilder<R> {
    /// Machine-CFG predecessors, indexed by block.
    preds: Vec<Vec<BlockId>>,
    /// Register state of the block currently being translated.
    cur: HashMap<R, ValueId>,
    /// Start-of-block pending phi values, created on demand.
    start_defs: HashMap<(BlockId, R), ValueId>,
    /// Pending phis awaiting operand resolution: (block, reg, phi value).
    pending: Vec<(BlockId, R, ValueId)>,
    /// End-of-block register state (definitions visible to successors).
    sealed_out: HashMap<BlockId, HashMap<R, ValueId>>,
    /// The shared undef value, created lazily.
    undef: Option<ValueId>,
}

impl<R: Copy + Eq + Hash> SsaBuilder<R> {
    /// Starts SSA construction with the machine CFG's predecessors,
    /// indexed by block.
    pub fn new(preds: Vec<Vec<BlockId>>) -> SsaBuilder<R> {
        SsaBuilder {
            preds,
            cur: HashMap::new(),
            start_defs: HashMap::new(),
            pending: Vec::new(),
            sealed_out: HashMap::new(),
            undef: None,
        }
    }

    /// Begins translating `block`, seeding its register state (used for
    /// parameter registers at the entry block).
    pub fn begin_block(&mut self, seed: impl IntoIterator<Item = (R, ValueId)>) {
        self.cur.clear();
        for (r, v) in seed {
            self.cur.insert(r, v);
        }
    }

    /// Binds register `r` to `v` in the block being translated.
    pub fn write(&mut self, r: R, v: ValueId) {
        self.cur.insert(r, v);
    }

    /// Reads `r` in block `b` (the block being translated): the most recent
    /// block-local binding, or a memoized start-of-block pending phi, or
    /// `undef` when `b` has no predecessors.
    pub fn read(&mut self, func: &mut Function, b: BlockId, r: R) -> ValueId {
        if let Some(&v) = self.cur.get(&r) {
            return v;
        }
        let v = self.start_value(func, b, r);
        self.cur.insert(r, v);
        v
    }

    /// Seals the register state of `b` (call after translating its last
    /// instruction).
    pub fn end_block(&mut self, b: BlockId) {
        let out = std::mem::take(&mut self.cur);
        self.sealed_out.insert(b, out);
    }

    /// The value of `r` at the end of block `p` (creating a pending
    /// start-of-block phi at `p` when `p` never writes `r`).
    fn end_value(&mut self, func: &mut Function, p: BlockId, r: R) -> ValueId {
        if let Some(&v) = self.sealed_out.get(&p).and_then(|m| m.get(&r)) {
            return v;
        }
        self.start_value(func, p, r)
    }

    /// The value of `r` at the start of block `b`: a pending phi
    /// (memoized), or `undef` when `b` has no predecessors.
    fn start_value(&mut self, func: &mut Function, b: BlockId, r: R) -> ValueId {
        if let Some(&v) = self.start_defs.get(&(b, r)) {
            return v;
        }
        let v = if self.preds.get(b.index()).is_none_or(Vec::is_empty) {
            self.undef_value(func)
        } else {
            let phi_val = func.add_value(Value {
                kind: ValueKind::Inst { def: InstId(0) }, // fixed at resolution
                width: Width::W64,
            });
            self.pending.push((b, r, phi_val));
            phi_val
        };
        self.start_defs.insert((b, r), v);
        v
    }

    /// The function's shared `undef` constant, created on first use.
    fn undef_value(&mut self, func: &mut Function) -> ValueId {
        if let Some(v) = self.undef {
            return v;
        }
        let v = func.add_value(Value {
            kind: ValueKind::Const(ConstKind::Undef),
            width: Width::W64,
        });
        self.undef = Some(v);
        v
    }

    /// Resolves all pending start-of-block phis against the sealed
    /// end-of-block states. Call exactly once, after every block has been
    /// translated and sealed.
    pub fn finish(&mut self, func: &mut Function) {
        while let Some((b, r, phi_val)) = self.pending.pop() {
            let preds = self.preds.get(b.index()).cloned().unwrap_or_default();
            if preds.is_empty() {
                // Unreachable or entry: the register was never defined.
                let undef = self.undef_value(func);
                let inst = func.prepend_inst(
                    b,
                    InstKind::Copy {
                        dst: phi_val,
                        src: undef,
                    },
                );
                func.fix_value_def(phi_val, inst);
                continue;
            }
            let mut incomings = Vec::new();
            for p in preds {
                let v = self.end_value(func, p, r);
                incomings.push((p, v));
            }
            let inst = func.prepend_inst(
                b,
                InstKind::Phi {
                    dst: phi_val,
                    incomings,
                },
            );
            func.fix_value_def(phi_val, inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    #[test]
    fn builds_branchy_function() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let zero = fb.const_int(0, Width::W64);
        let c = fb.cmp(CmpPred::Eq, p, zero);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let one = fb.const_int(1, Width::W64);
        fb.br(j);
        fb.switch_to(e);
        let two = fb.const_int(2, Width::W64);
        fb.br(j);
        fb.switch_to(j);
        let m = fb.phi(&[(t, one), (e, two)], Width::W64);
        fb.ret(Some(m));
        mb.finish_function(fb);
        let module = mb.finish();
        verify_module(&module).unwrap();
        let f = module.function_by_name("f").unwrap();
        assert_eq!(f.block_count(), 4);
        assert_eq!(f.inst_count(), 2); // cmp + phi
    }

    #[test]
    fn sibling_functions_get_distinct_ids() {
        let mut mb = ModuleBuilder::new("m");
        let (f1, fb1) = mb.function("a", &[], None);
        let (f2, fb2) = mb.function("b", &[], None);
        assert_ne!(f1, f2);
        mb.finish_function(fb2);
        mb.finish_function(fb1);
        let m = mb.finish();
        assert_eq!(m.function(f1).name(), "a");
        assert_eq!(m.function(f2).name(), "b");
    }

    #[test]
    fn extern_dedup_by_name() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.extern_fn("malloc", &[], None);
        let b = mb.extern_fn("malloc", &[], None);
        assert_eq!(a, b);
    }

    #[test]
    fn ssa_builder_places_phi_at_join() {
        // Hand-drive the builder over a diamond where both arms write the
        // same abstract register and the join reads it.
        let mut f = Function::new(FuncId(0), "f".into(), &[], Some(Width::W64));
        let entry = f.entry();
        let t = f.add_block();
        let e = f.add_block();
        let j = f.add_block();
        let preds = vec![vec![], vec![entry], vec![entry], vec![t, e]];
        let mut ssa: SsaBuilder<u8> = SsaBuilder::new(preds);

        ssa.begin_block([]);
        f.replace_terminator(entry, Terminator::Br(t)); // CFG shape only
        ssa.end_block(entry);

        for (b, k, succ) in [(t, 1i64, j), (e, 2, j)] {
            ssa.begin_block([]);
            let c = f.add_value(Value {
                kind: ValueKind::Const(ConstKind::Int(k)),
                width: Width::W64,
            });
            ssa.write(0u8, c);
            f.replace_terminator(b, Terminator::Br(succ));
            ssa.end_block(b);
        }

        ssa.begin_block([]);
        let merged = ssa.read(&mut f, j, 0u8);
        f.replace_terminator(j, Terminator::Ret(Some(merged)));
        ssa.end_block(j);
        ssa.finish(&mut f);

        let phis: Vec<_> = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
            .collect();
        assert_eq!(phis.len(), 1, "one phi for the joined register");
        let InstKind::Phi { dst, ref incomings } = phis[0].kind else {
            unreachable!()
        };
        assert_eq!(dst, merged);
        assert_eq!(incomings.len(), 2);
    }

    #[test]
    fn ssa_builder_reads_of_unwritten_registers_are_undef() {
        let mut f = Function::new(FuncId(0), "f".into(), &[], Some(Width::W64));
        let entry = f.entry();
        let mut ssa: SsaBuilder<u8> = SsaBuilder::new(Vec::new());
        ssa.begin_block([]);
        let v = ssa.read(&mut f, entry, 9u8);
        assert!(matches!(
            f.value(v).kind,
            ValueKind::Const(ConstKind::Undef)
        ));
        // Reads are memoized: same undef value each time.
        let v2 = ssa.read(&mut f, entry, 3u8);
        assert_eq!(v, v2);
    }
}
