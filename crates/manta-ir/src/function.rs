//! Functions, basic blocks and terminators.

use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{InstData, InstKind};
use crate::types::Width;
use crate::value::{Value, ValueKind};

/// A basic-block terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on an `i1` value: `(cond, then, else)`.
    CondBr {
        /// Branch condition.
        cond: ValueId,
        /// Target when the condition is true.
        then_bb: BlockId,
        /// Target when the condition is false.
        else_bb: BlockId,
    },
    /// Function return with an optional value.
    Ret(Option<ValueId>),
    /// Control never reaches past this point (e.g. `exit()` tail).
    Unreachable,
}

impl Terminator {
    /// Successor blocks, in order: at most two, both arms of a
    /// `condbr` even when they name one block.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let targets = match *self {
            Terminator::Br(b) => [Some(b), None],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => [Some(then_bb), Some(else_bb)],
            Terminator::Ret(_) | Terminator::Unreachable => [None, None],
        };
        targets.into_iter().flatten()
    }

    /// The value read by this terminator, if any.
    pub fn uses(&self) -> impl Iterator<Item = ValueId> {
        match *self {
            Terminator::CondBr { cond, .. } => Some(cond),
            Terminator::Ret(v) => v,
            Terminator::Br(_) | Terminator::Unreachable => None,
        }
        .into_iter()
    }
}

/// A basic block: a straight-line instruction sequence plus a terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Instructions in program order.
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub term: Terminator,
}

/// A function: parameter values, an SSA value arena, an instruction arena,
/// and a CFG of basic blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    id: FuncId,
    name: String,
    params: Vec<ValueId>,
    ret_width: Option<Width>,
    values: Vec<Value>,
    insts: Vec<InstData>,
    blocks: Vec<Block>,
    entry: BlockId,
    address_taken: bool,
}

impl Function {
    /// Creates an empty function shell: parameters materialized, one empty
    /// entry block terminated by `unreachable`. Most users should prefer
    /// [`crate::FunctionBuilder`]; this low-level constructor exists for
    /// parsers and CFG transforms that rebuild functions wholesale.
    pub fn new(
        id: FuncId,
        name: String,
        param_widths: &[Width],
        ret_width: Option<Width>,
    ) -> Function {
        let mut values = Vec::new();
        let mut params = Vec::new();
        for (i, w) in param_widths.iter().enumerate() {
            let vid = ValueId::from_index(values.len());
            values.push(Value {
                kind: ValueKind::Param { index: i as u32 },
                width: *w,
            });
            params.push(vid);
        }
        Function {
            id,
            name,
            params,
            ret_width,
            values,
            insts: Vec::new(),
            blocks: vec![Block {
                id: BlockId(0),
                insts: Vec::new(),
                term: Terminator::Unreachable,
            }],
            entry: BlockId(0),
            address_taken: false,
        }
    }

    /// Assembles a function from arenas its caller sized once: `values`
    /// starts with the `param_count` parameters, and block 0 is the
    /// entry. Used by the parser, which knows every size before it
    /// builds the function.
    pub(crate) fn from_parts(
        id: FuncId,
        name: String,
        param_count: usize,
        ret_width: Option<Width>,
        values: Vec<Value>,
        insts: Vec<InstData>,
        blocks: Vec<Block>,
    ) -> Function {
        debug_assert!(values[..param_count]
            .iter()
            .all(|v| matches!(v.kind, ValueKind::Param { .. })));
        Function {
            id,
            name,
            params: (0..param_count).map(ValueId::from_index).collect(),
            ret_width,
            values,
            insts,
            blocks,
            entry: BlockId(0),
            address_taken: false,
        }
    }

    /// This function's id within its module.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The (stripped, synthetic) symbol name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter values, in order.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// Width of the return value, or `None` for void.
    pub fn ret_width(&self) -> Option<Width> {
        self.ret_width
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Whether the function's address escapes (it can be an indirect-call
    /// target).
    pub fn is_address_taken(&self) -> bool {
        self.address_taken
    }

    /// Marks the function address-taken.
    pub fn set_address_taken(&mut self, taken: bool) {
        self.address_taken = taken;
    }

    /// The value data for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a value of this function.
    pub fn value(&self, v: ValueId) -> &Value {
        &self.values[v.index()]
    }

    /// The instruction data for `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an instruction of this function.
    pub fn inst(&self, i: InstId) -> &InstData {
        &self.insts[i.index()]
    }

    /// The block data for `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a block of this function.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId::from_index(i), v))
    }

    /// Iterates over all instructions in arena order.
    pub fn insts(&self) -> impl Iterator<Item = &InstData> {
        self.insts.iter()
    }

    /// Iterates over all blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Number of values.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of instructions.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The instruction defining `v`, if `v` is an instruction result.
    pub fn def_inst(&self, v: ValueId) -> Option<InstId> {
        match self.value(v).kind {
            ValueKind::Inst { def } => Some(def),
            _ => None,
        }
    }

    // ---- mutation (used by the builder and by preprocessing) ----

    pub(crate) fn push_value(&mut self, value: Value) -> ValueId {
        let id = ValueId::from_index(self.values.len());
        self.values.push(value);
        id
    }

    pub(crate) fn push_inst(&mut self, block: BlockId, kind: InstKind) -> InstId {
        let id = InstId::from_index(self.insts.len());
        self.insts.push(InstData { id, block, kind });
        self.blocks[block.index()].insts.push(id);
        id
    }

    pub(crate) fn push_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block {
            id,
            insts: Vec::new(),
            term: Terminator::Unreachable,
        });
        id
    }

    pub(crate) fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].term = term;
    }

    /// Replaces the terminator of `block` (public for CFG transforms).
    pub fn replace_terminator(&mut self, block: BlockId, term: Terminator) {
        self.set_term(block, term);
    }

    /// Rewrites the defining kind of instruction `i` (public for CFG
    /// transforms such as loop unrolling; callers must preserve SSA form).
    pub fn replace_inst_kind(&mut self, i: InstId, kind: InstKind) {
        self.insts[i.index()].kind = kind;
    }

    /// Appends a fresh block and returns its id (public for CFG transforms).
    pub fn add_block(&mut self) -> BlockId {
        self.push_block()
    }

    /// Appends a fresh value and returns its id (public for CFG transforms).
    pub fn add_value(&mut self, value: Value) -> ValueId {
        self.push_value(value)
    }

    /// Appends an instruction to `block` (public for CFG transforms).
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind) -> InstId {
        self.push_inst(block, kind)
    }

    /// Re-points an instruction-defined value at its actual defining
    /// instruction. SSA constructors create phi placeholder values before
    /// the phi instruction exists; this closes the loop.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an instruction-defined value.
    pub fn fix_value_def(&mut self, v: ValueId, def: InstId) {
        match &mut self.values[v.index()].kind {
            ValueKind::Inst { def: slot } => *slot = def,
            other => panic!("fix_value_def on non-inst value {v}: {other:?}"),
        }
    }

    /// Inserts an instruction at the *front* of `block` — used by SSA
    /// construction to place phis before the block body. Arena order is
    /// unaffected; only the block's program order changes.
    pub fn prepend_inst(&mut self, block: BlockId, kind: InstKind) -> InstId {
        let id = InstId::from_index(self.insts.len());
        self.insts.push(InstData { id, block, kind });
        self.blocks[block.index()].insts.insert(0, id);
        id
    }
}

/// Every value's users in one function (paper: `get_users`), built in a
/// single pass so a walk that needs the users of many values pays for the
/// function once rather than once per value.
#[derive(Clone, Debug)]
pub struct UseIndex {
    /// `users[start[v]..start[v + 1]]` are the users of value `v`.
    start: Vec<u32>,
    users: Vec<InstId>,
}

impl UseIndex {
    /// Indexes the users of every value of `func`.
    pub fn new(func: &Function) -> UseIndex {
        // An instruction naming `u` twice is one user.
        fn distinct(kind: &InstKind) -> impl Iterator<Item = ValueId> + '_ {
            kind.operands()
                .enumerate()
                .filter(move |&(i, u)| !kind.operands().take(i).any(|w| w == u))
                .map(|(_, u)| u)
        }
        let n = func.value_count();
        let mut start = vec![0u32; n + 1];
        for inst in &func.insts {
            for u in distinct(&inst.kind) {
                start[u.index() + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        // Fill each value's run in arena order from its start; `start[v]`
        // ends at `v + 1`'s start, so one shift restores the starts.
        let mut users = vec![InstId(0); start[n] as usize];
        for inst in &func.insts {
            for u in distinct(&inst.kind) {
                users[start[u.index()] as usize] = inst.id;
                start[u.index()] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        UseIndex { start, users }
    }

    /// All instructions that use `v`, in arena order.
    pub fn users(&self, v: ValueId) -> &[InstId] {
        &self.users[self.start[v.index()] as usize..self.start[v.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_function_has_params_and_entry() {
        let f = Function::new(
            FuncId(0),
            "f".into(),
            &[Width::W64, Width::W32],
            Some(Width::W64),
        );
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.value(f.params()[0]).width, Width::W64);
        assert_eq!(f.value(f.params()[1]).width, Width::W32);
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.block_count(), 1);
        assert!(!f.is_address_taken());
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: &Terminator| t.successors().collect::<Vec<_>>();
        let uses = |t: &Terminator| t.uses().collect::<Vec<_>>();
        assert_eq!(succs(&Terminator::Br(BlockId(3))), vec![BlockId(3)]);
        let cb = Terminator::CondBr {
            cond: ValueId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(succs(&cb), vec![BlockId(1), BlockId(2)]);
        assert_eq!(uses(&cb), vec![ValueId(0)]);
        let same = Terminator::CondBr {
            cond: ValueId(0),
            then_bb: BlockId(4),
            else_bb: BlockId(4),
        };
        assert_eq!(succs(&same), vec![BlockId(4), BlockId(4)]);
        assert!(succs(&Terminator::Ret(None)).is_empty());
        assert!(uses(&Terminator::Ret(None)).is_empty());
        assert!(uses(&Terminator::Br(BlockId(3))).is_empty());
        assert_eq!(uses(&Terminator::Ret(Some(ValueId(5)))), vec![ValueId(5)]);
        assert!(succs(&Terminator::Unreachable).is_empty());
    }

    #[test]
    fn users_finds_all_uses() {
        let mut f = Function::new(FuncId(0), "f".into(), &[Width::W64], Some(Width::W64));
        let p = f.params()[0];
        let d1 = f.push_value(Value {
            kind: ValueKind::Inst { def: InstId(0) },
            width: Width::W64,
        });
        f.push_inst(BlockId(0), InstKind::Copy { dst: d1, src: p });
        let d2 = f.push_value(Value {
            kind: ValueKind::Inst { def: InstId(1) },
            width: Width::W64,
        });
        f.push_inst(
            BlockId(0),
            InstKind::BinOp {
                op: crate::BinOp::Add,
                dst: d2,
                lhs: p,
                rhs: d1,
            },
        );
        let index = UseIndex::new(&f);
        assert_eq!(index.users(p), [InstId(0), InstId(1)]);
        assert_eq!(index.users(d1), [InstId(1)]);
        assert!(index.users(d2).is_empty());
        assert_eq!(f.def_inst(d2), Some(InstId(1)));
        assert_eq!(f.def_inst(p), None);
    }

    #[test]
    fn use_index_lists_an_instruction_once_per_value() {
        let mut f = Function::new(FuncId(0), "f".into(), &[Width::W64], Some(Width::W64));
        let p = f.params()[0];
        let sq = f.push_value(Value {
            kind: ValueKind::Inst { def: InstId(0) },
            width: Width::W64,
        });
        f.push_inst(
            BlockId(0),
            InstKind::BinOp {
                op: crate::BinOp::Mul,
                dst: sq,
                lhs: p,
                rhs: p,
            },
        );
        f.push_inst(BlockId(0), InstKind::Store { addr: sq, val: p });
        let index = UseIndex::new(&f);
        assert_eq!(index.users(p), [InstId(0), InstId(1)]);
        assert_eq!(index.users(sq), [InstId(1)]);
    }
}
