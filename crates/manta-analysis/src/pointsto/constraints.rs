//! Constraint collection: the whole-module inclusion-constraint system
//! consumed by the delta solver and the reference solver. Call bindings
//! are direct variable-to-variable copy edges.

use std::collections::HashMap;

use manta_ir::{BinOp, Callee, ExternEffect, GlobalId, InstKind, Terminator, ValueId};

use super::{Node, ObjectId, ObjectKind};
use crate::preprocess::Preprocessed;
use crate::VarRef;

/// The inclusion constraints of one module, in deterministic module order.
/// `objects` holds the pre-solve objects (globals, allocas, heap and extern
/// sites); field objects materialize during solving.
pub(crate) struct Constraints {
    pub(crate) objects: Vec<ObjectKind>,
    /// Address-of seeds `o ∈ pts(n)`.
    pub(crate) seeds: Vec<(Node, ObjectId)>,
    /// Simple inclusion edges `pts(src) ⊆ pts(dst)`. Includes the
    /// symbolic-indexing collapses, whose transfer function is identical.
    pub(crate) copies: Vec<(Node, Node)>,
    pub(crate) loads: Vec<(VarRef, VarRef)>,  // (addr, dst)
    pub(crate) stores: Vec<(VarRef, VarRef)>, // (addr, val)
    pub(crate) geps: Vec<(VarRef, VarRef, u64)>, // (base, dst, offset)
}

impl Constraints {
    pub(crate) fn collect(pre: &Preprocessed) -> Constraints {
        let module = &pre.module;
        let mut c = Constraints {
            objects: Vec::new(),
            seeds: Vec::new(),
            copies: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            geps: Vec::new(),
        };
        let new_object = |objects: &mut Vec<ObjectKind>, kind: ObjectKind| {
            let id = ObjectId(objects.len() as u32);
            objects.push(kind);
            id
        };
        // Global objects exist once per global.
        let mut global_objs: HashMap<GlobalId, ObjectId> = HashMap::new();
        for g in module.globals() {
            let o = new_object(&mut c.objects, ObjectKind::Global(g.id));
            global_objs.insert(g.id, o);
        }

        for func in module.functions() {
            let fid = func.id();
            let var = |v: ValueId| Node::Var(VarRef::new(fid, v));
            // Address-of constraints for global-address constants.
            for (v, data) in func.values() {
                if let manta_ir::ValueKind::GlobalAddr(g) = data.kind {
                    c.seeds.push((var(v), global_objs[&g]));
                }
            }
            for inst in func.insts() {
                match &inst.kind {
                    InstKind::Copy { dst, src } => c.copies.push((var(*src), var(*dst))),
                    InstKind::Phi { dst, incomings } => {
                        for (_, v) in incomings {
                            c.copies.push((var(*v), var(*dst)));
                        }
                    }
                    InstKind::Alloca { dst, size } => {
                        let o = new_object(
                            &mut c.objects,
                            ObjectKind::Stack {
                                func: fid,
                                site: inst.id,
                                size: *size,
                            },
                        );
                        c.seeds.push((var(*dst), o));
                    }
                    InstKind::Gep { dst, base, offset } => {
                        c.geps
                            .push((VarRef::new(fid, *base), VarRef::new(fid, *dst), *offset));
                    }
                    InstKind::Load { dst, addr, .. } => {
                        c.loads
                            .push((VarRef::new(fid, *addr), VarRef::new(fid, *dst)));
                    }
                    InstKind::Store { addr, val } => {
                        c.stores
                            .push((VarRef::new(fid, *addr), VarRef::new(fid, *val)));
                    }
                    InstKind::BinOp {
                        op: BinOp::Add | BinOp::Sub,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        // Pointer arithmetic with a non-constant offset:
                        // collapse to the base objects (both operands are
                        // candidates; non-pointers contribute nothing).
                        // `pts(operand) ⊆ pts(dst)` is exactly a copy edge.
                        c.copies.push((var(*lhs), var(*dst)));
                        c.copies.push((var(*rhs), var(*dst)));
                    }
                    InstKind::BinOp { .. } | InstKind::Cmp { .. } => {}
                    InstKind::Call { dst, callee, args } => match callee {
                        Callee::Direct(target) => {
                            if pre.is_broken_call(fid, inst.id) {
                                continue;
                            }
                            let tf = module.function(*target);
                            for (i, &a) in args.iter().enumerate() {
                                if let Some(&p) = tf.params().get(i) {
                                    c.copies.push((var(a), Node::Var(VarRef::new(*target, p))));
                                }
                            }
                            if let Some(d) = dst {
                                // Bind all return values of the callee.
                                for b in tf.blocks() {
                                    if let Terminator::Ret(Some(r)) = b.term {
                                        c.copies
                                            .push((Node::Var(VarRef::new(*target, r)), var(*d)));
                                    }
                                }
                            }
                        }
                        Callee::Extern(e) => {
                            let decl = module.extern_decl(*e);
                            match decl.effect {
                                ExternEffect::AllocHeap => {
                                    if let Some(d) = dst {
                                        let o = new_object(
                                            &mut c.objects,
                                            ObjectKind::Heap {
                                                func: fid,
                                                site: inst.id,
                                            },
                                        );
                                        c.seeds.push((var(*d), o));
                                    }
                                }
                                ExternEffect::TaintSource => {
                                    if let Some(d) = dst {
                                        let o = new_object(
                                            &mut c.objects,
                                            ObjectKind::ExternBuf {
                                                func: fid,
                                                site: inst.id,
                                            },
                                        );
                                        c.seeds.push((var(*d), o));
                                    }
                                }
                                ExternEffect::StrCopy => {
                                    // strcpy returns its destination.
                                    if let (Some(d), Some(&a0)) = (dst, args.first()) {
                                        c.copies.push((var(a0), var(*d)));
                                    }
                                }
                                _ => {}
                            }
                        }
                        // Function pointers are not modeled (paper §3).
                        Callee::Indirect(_) => {}
                    },
                }
            }
        }
        c
    }
}
