//! IR instructions.
//!
//! The vocabulary matches the instruction classes the paper's typing rules
//! dispatch on (Table 1 and Table 2): value copies (`copy`/`phi`/`call`),
//! memory accesses (`load`/`store`), arithmetic (`add`/`sub`/…), address
//! computation (`alloca`/`gep`), comparisons and calls.

use crate::ids::{BlockId, ExternId, FuncId, InstId, ValueId};
use crate::types::Width;

/// Binary arithmetic / bitwise operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition — may be integer arithmetic *or* pointer arithmetic; Table 2
    /// of the paper prunes data dependencies through it based on types.
    Add,
    /// Subtraction — may compute a pointer difference.
    Sub,
    /// Multiplication (always numeric).
    Mul,
    /// Division (always numeric).
    Div,
    /// Remainder (always numeric).
    Rem,
    /// Bitwise and (numeric; also appears in pointer-alignment idioms).
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
}

impl BinOp {
    /// Operators that are *always* numeric type hints. `Add`/`Sub` are
    /// excluded because they participate in pointer arithmetic; `And` is
    /// excluded because of pointer-alignment masking idioms (§6.4).
    pub fn is_numeric_only(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::And)
    }

    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Parses a mnemonic back to an operator.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            _ => return None,
        })
    }
}

/// Comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpPred {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }

    /// Parses a mnemonic back to a predicate.
    pub fn from_mnemonic(s: &str) -> Option<CmpPred> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => return None,
        })
    }

    /// The predicate holding exactly when `self` does not.
    pub fn negate(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Lt => CmpPred::Ge,
            CmpPred::Le => CmpPred::Gt,
            CmpPred::Gt => CmpPred::Le,
            CmpPred::Ge => CmpPred::Lt,
        }
    }
}

/// The target of a call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// A direct call to a module function.
    Direct(FuncId),
    /// A call to a declared external function (libc, firmware SDK, …).
    Extern(ExternId),
    /// An indirect call through a function pointer value.
    Indirect(ValueId),
}

/// Instruction payloads.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum InstKind {
    /// `dst = copy src` — register move / bitcast (a value copy, rule ① of
    /// Table 1).
    Copy {
        /// Result value.
        dst: ValueId,
        /// Copied value.
        src: ValueId,
    },
    /// `dst = phi [bb_i: v_i]` — SSA merge (also rule ①).
    Phi {
        /// Result value.
        dst: ValueId,
        /// Incoming `(predecessor block, value)` pairs.
        incomings: Vec<(BlockId, ValueId)>,
    },
    /// `dst = load addr` — memory read (rule ②).
    Load {
        /// Loaded value.
        dst: ValueId,
        /// Address operand.
        addr: ValueId,
        /// Access width.
        width: Width,
    },
    /// `store addr, val` — memory write (rule ③).
    Store {
        /// Address operand.
        addr: ValueId,
        /// Stored value.
        val: ValueId,
    },
    /// `dst = alloca size` — a stack slot of `size` bytes; `dst` is its
    /// address. Stack slots may be *recycled* for variables of different
    /// types by the compiler (§2.1).
    Alloca {
        /// Address of the slot.
        dst: ValueId,
        /// Slot size in bytes.
        size: u64,
    },
    /// `dst = gep base, offset` — address of the field at a constant byte
    /// `offset` from `base` (field-sensitive object access).
    Gep {
        /// Resulting field address.
        dst: ValueId,
        /// Base address.
        base: ValueId,
        /// Constant byte offset.
        offset: u64,
    },
    /// `dst = <op> lhs, rhs` — binary arithmetic.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Result value.
        dst: ValueId,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `dst = cmp.<pred> lhs, rhs` — comparison producing an `i1`.
    ///
    /// A `cmp` is an *indirect* type hint: it reveals only that the two
    /// operands have the same type (§6.4), which is the source of the
    /// pointer-compared-with-`-1` recall loss the paper discusses.
    Cmp {
        /// Result value (width `W1`).
        dst: ValueId,
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `dst = call callee(args…)` — direct, external, or indirect call.
    Call {
        /// Result value, if the callee returns one.
        dst: Option<ValueId>,
        /// Call target.
        callee: Callee,
        /// Actual arguments.
        args: Vec<ValueId>,
    },
}

/// An instruction together with its id and owning block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstData {
    /// This instruction's id.
    pub id: InstId,
    /// The block the instruction belongs to.
    pub block: BlockId,
    /// The operation.
    pub kind: InstKind,
}

impl InstKind {
    /// The value defined by this instruction, if any.
    pub fn def(&self) -> Option<ValueId> {
        match self {
            InstKind::Copy { dst, .. }
            | InstKind::Phi { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Alloca { dst, .. }
            | InstKind::Gep { dst, .. }
            | InstKind::BinOp { dst, .. }
            | InstKind::Cmp { dst, .. } => Some(*dst),
            InstKind::Call { dst, .. } => *dst,
            InstKind::Store { .. } => None,
        }
    }

    /// All values used (read) by this instruction, in operand order: the
    /// callee value of an indirect call comes before its arguments. Never
    /// allocates, so walks may call it once per scanned instruction.
    pub fn operands(&self) -> impl Iterator<Item = ValueId> + '_ {
        let (fixed, args): ([Option<ValueId>; 2], &[ValueId]) = match self {
            InstKind::Copy { src, .. } => ([Some(*src), None], &[]),
            InstKind::Load { addr, .. } => ([Some(*addr), None], &[]),
            InstKind::Store { addr, val } => ([Some(*addr), Some(*val)], &[]),
            InstKind::Phi { .. } | InstKind::Alloca { .. } => ([None, None], &[]),
            InstKind::Gep { base, .. } => ([Some(*base), None], &[]),
            InstKind::BinOp { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                ([Some(*lhs), Some(*rhs)], &[])
            }
            InstKind::Call { callee, args, .. } => match callee {
                Callee::Indirect(v) => ([Some(*v), None], args),
                _ => ([None, None], args),
            },
        };
        let incomings = match self {
            InstKind::Phi { incomings, .. } => incomings.as_slice(),
            _ => &[],
        };
        fixed
            .into_iter()
            .flatten()
            .chain(args.iter().copied())
            .chain(incomings.iter().map(|&(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let k = InstKind::BinOp {
            op: BinOp::Add,
            dst: ValueId(3),
            lhs: ValueId(1),
            rhs: ValueId(2),
        };
        assert_eq!(k.def(), Some(ValueId(3)));
        assert_eq!(
            k.operands().collect::<Vec<_>>(),
            vec![ValueId(1), ValueId(2)]
        );

        let s = InstKind::Store {
            addr: ValueId(0),
            val: ValueId(1),
        };
        assert_eq!(s.def(), None);
        assert_eq!(
            s.operands().collect::<Vec<_>>(),
            vec![ValueId(0), ValueId(1)]
        );

        let p = InstKind::Phi {
            dst: ValueId(7),
            incomings: vec![(BlockId(1), ValueId(2)), (BlockId(2), ValueId(3))],
        };
        assert_eq!(
            p.operands().collect::<Vec<_>>(),
            vec![ValueId(2), ValueId(3)]
        );
    }

    #[test]
    fn indirect_call_uses_callee_value_first() {
        let c = InstKind::Call {
            dst: Some(ValueId(9)),
            callee: Callee::Indirect(ValueId(4)),
            args: vec![ValueId(5), ValueId(6)],
        };
        assert_eq!(
            c.operands().collect::<Vec<_>>(),
            vec![ValueId(4), ValueId(5), ValueId(6)]
        );
        assert_eq!(c.def(), Some(ValueId(9)));
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ] {
            assert_eq!(CmpPred::from_mnemonic(p.mnemonic()), Some(p));
            assert_eq!(p.negate().negate(), p);
        }
    }

    #[test]
    fn numeric_only_excludes_pointer_arith_ops() {
        assert!(!BinOp::Add.is_numeric_only());
        assert!(!BinOp::Sub.is_numeric_only());
        assert!(!BinOp::And.is_numeric_only());
        assert!(BinOp::Mul.is_numeric_only());
        assert!(BinOp::Xor.is_numeric_only());
    }
}
