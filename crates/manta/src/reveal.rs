//! Type-revealing instruction extraction (Table 1, rule ④).
//!
//! A *reveal* is a `(value, site, type)` triple: at instruction `site`,
//! `value` is used in a way that exposes (part of) its type. The paper's
//! examples — "type-known external functions such as `malloc()`, arithmetic
//! calculations, or pointer dereference" — map to:
//!
//! * arguments to / results of modeled external functions, typed by the
//!   extern's known signature;
//! * address operands of `load`/`store`/`gep` and `alloca`/`gep` results:
//!   `ptr(⊥)` (a pointer to something);
//! * operands/results of numeric-only arithmetic (`mul`, `div`, `xor`, …):
//!   `num<w>`. `add`/`sub`/`and` reveal nothing — they participate in
//!   pointer arithmetic and alignment idioms (§6.4);
//! * non-zero integer and float constants: `int<w>` / `float` / `double`.
//!   Zero constants reveal nothing, because deciding whether a zero is an
//!   integer or a null pointer is precisely the inference's job;
//! * the callee operand of an indirect call: `ptr(⊥)`.
//!
//! `cmp` is an *indirect* hint: it only says its operands share a type, so
//! it contributes a unification edge (handled in
//! [`crate::flow_insensitive`]) rather than a reveal. Combined with
//! constant reveals this reproduces the paper's documented recall loss:
//! `if (p == (void*)-1)` unifies a pointer with a revealed `int64`.

use std::collections::HashMap;

use manta_analysis::{ModuleAnalysis, VarRef};
use manta_ir::{
    Callee, ConstKind, ExternEffect, FuncId, InstId, InstKind, Type, ValueId, ValueKind, Width,
};

/// One type-revealing event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reveal {
    /// The revealed value.
    pub value: ValueId,
    /// The instruction at which the type is revealed.
    pub site: InstId,
    /// The revealed type.
    pub ty: Type,
}

/// All reveals of a module, indexed by function and by variable.
#[derive(Clone, Debug, Default)]
pub struct RevealMap {
    per_func: HashMap<FuncId, Vec<Reveal>>,
    by_var: HashMap<VarRef, Vec<(InstId, Type)>>,
}

impl RevealMap {
    /// Extracts every reveal in the analyzed module.
    pub fn collect(analysis: &ModuleAnalysis) -> RevealMap {
        let module = analysis.module();
        let mut map = RevealMap::default();
        for func in module.functions() {
            let fid = func.id();
            let mut out: Vec<Reveal> = Vec::new();
            let mut push = |value: ValueId, site: InstId, ty: Type| {
                out.push(Reveal { value, site, ty });
            };
            for inst in func.insts() {
                let s = inst.id;
                // Constant operands reveal at each use site.
                for u in inst.kind.operands() {
                    if let ValueKind::Const(c) = func.value(u).kind {
                        match c {
                            ConstKind::Int(v) if v != 0 => {
                                push(u, s, Type::Int(func.value(u).width));
                            }
                            ConstKind::Float(_) => {
                                let t = if func.value(u).width == Width::W32 {
                                    Type::Float
                                } else {
                                    Type::Double
                                };
                                push(u, s, t);
                            }
                            _ => {}
                        }
                    }
                }
                match &inst.kind {
                    InstKind::Load { addr, .. } => push(*addr, s, Type::ptr(Type::Bottom)),
                    InstKind::Store { addr, .. } => push(*addr, s, Type::ptr(Type::Bottom)),
                    InstKind::Alloca { dst, .. } => push(*dst, s, Type::ptr(Type::Bottom)),
                    InstKind::Gep { dst, base, .. } => {
                        push(*base, s, Type::ptr(Type::Bottom));
                        push(*dst, s, Type::ptr(Type::Bottom));
                    }
                    InstKind::BinOp { op, dst, lhs, rhs } if op.is_numeric_only() => {
                        let w = func.value(*dst).width;
                        push(*dst, s, Type::Num(w));
                        push(*lhs, s, Type::Num(func.value(*lhs).width));
                        push(*rhs, s, Type::Num(func.value(*rhs).width));
                    }
                    InstKind::Call { dst, callee, args } => match callee {
                        Callee::Extern(e) => {
                            let decl = module.extern_decl(*e);
                            if let Some(sig) = &decl.sig {
                                for (i, &a) in args.iter().enumerate() {
                                    if let Some(t) = sig.params.get(i) {
                                        push(a, s, t.clone());
                                    }
                                }
                                if let (Some(d), false) = (dst, *sig.ret == Type::Bottom) {
                                    push(*d, s, (*sig.ret).clone());
                                }
                            } else if decl.effect == ExternEffect::Unknown {
                                // Unmodeled external: no hints (§6.4 recall
                                // loss source).
                            }
                        }
                        Callee::Indirect(fp) => push(*fp, s, Type::ptr(Type::Bottom)),
                        Callee::Direct(_) => {}
                    },
                    _ => {}
                }
            }
            for r in &out {
                map.by_var
                    .entry(VarRef::new(fid, r.value))
                    .or_default()
                    .push((r.site, r.ty.clone()));
            }
            map.per_func.insert(fid, out);
        }
        map
    }

    /// Reveals inside function `f`, in instruction order.
    pub fn in_func(&self, f: FuncId) -> &[Reveal] {
        self.per_func.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The reveals of a specific variable (`type_annotations(v)` in
    /// Algorithm 1).
    pub fn of_var(&self, v: VarRef) -> &[(InstId, Type)] {
        self.by_var.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The reveal of `v` at exactly site `s` (`type_annotation(v@s)` in
    /// Algorithm 2), if any.
    pub fn at_site(&self, v: VarRef, s: InstId) -> Option<&Type> {
        self.by_var
            .get(&v)?
            .iter()
            .find(|(site, _)| *site == s)
            .map(|(_, t)| t)
    }

    /// Total number of reveals.
    pub fn len(&self) -> usize {
        self.per_func.values().map(Vec::len).sum()
    }

    /// Whether no reveal exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta_analysis::ModuleAnalysis;
    use manta_ir::{BinOp, ModuleBuilder};

    fn collect(m: manta_ir::Module) -> (ModuleAnalysis, RevealMap) {
        let a = ModuleAnalysis::build(m);
        let r = RevealMap::collect(&a);
        (a, r)
    }

    #[test]
    fn malloc_reveals_arg_and_ret() {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let buf = fb.call_extern(malloc, &[n], Some(Width::W64)).unwrap();
        fb.ret(Some(buf));
        mb.finish_function(fb);
        let (_, r) = collect(mb.finish());
        let n_hints = r.of_var(VarRef::new(fid, n));
        assert!(n_hints.iter().any(|(_, t)| *t == Type::Int(Width::W64)));
        let b_hints = r.of_var(VarRef::new(fid, buf));
        assert!(b_hints.iter().any(|(_, t)| t.is_pointer()));
    }

    #[test]
    fn load_reveals_pointer_address() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let v = fb.load(p, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let (_, r) = collect(mb.finish());
        let hints = r.of_var(VarRef::new(fid, p));
        assert_eq!(hints.len(), 1);
        assert!(hints[0].1.is_pointer());
        // The loaded value itself reveals nothing.
        assert!(r.of_var(VarRef::new(fid, v)).is_empty());
    }

    #[test]
    fn add_reveals_nothing_but_mul_reveals_numeric() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64, Width::W64], Some(Width::W64));
        let a = fb.param(0);
        let b = fb.param(1);
        let s = fb.binop(BinOp::Add, a, b, Width::W64);
        let m = fb.binop(BinOp::Mul, s, b, Width::W64);
        fb.ret(Some(m));
        mb.finish_function(fb);
        let (_, r) = collect(mb.finish());
        assert!(
            r.of_var(VarRef::new(fid, a)).is_empty(),
            "add must not reveal"
        );
        // `s` is revealed numeric by its use in mul, not by add itself.
        assert!(r
            .of_var(VarRef::new(fid, s))
            .iter()
            .any(|(_, t)| matches!(t, Type::Num(_))));
        assert!(r
            .of_var(VarRef::new(fid, b))
            .iter()
            .any(|(_, t)| matches!(t, Type::Num(_))));
    }

    #[test]
    fn zero_constants_reveal_nothing() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W1));
        let p = fb.param(0);
        let z = fb.const_int(0, Width::W64);
        let neg = fb.const_int(-1, Width::W64);
        let c1 = fb.cmp(manta_ir::CmpPred::Eq, p, z);
        let c2 = fb.cmp(manta_ir::CmpPred::Eq, p, neg);
        let _ = c1;
        fb.ret(Some(c2));
        mb.finish_function(fb);
        let (_, r) = collect(mb.finish());
        assert!(
            r.of_var(VarRef::new(fid, z)).is_empty(),
            "zero is ambiguous"
        );
        assert!(
            r.of_var(VarRef::new(fid, neg))
                .iter()
                .any(|(_, t)| *t == Type::Int(Width::W64)),
            "-1 reveals int64 (the error-code idiom)"
        );
    }

    #[test]
    fn at_site_distinguishes_sites() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let a = fb.load(p, Width::W64); // site i0: reveals p ptr
        let b = fb.load(p, Width::W64); // site i1: reveals p ptr
        let _ = (a, b);
        fb.ret(Some(p));
        mb.finish_function(fb);
        let (an, r) = collect(mb.finish());
        let f = an.module().function(fid);
        let sites: Vec<InstId> = f.insts().map(|i| i.id).collect();
        let v = VarRef::new(fid, p);
        assert!(r.at_site(v, sites[0]).is_some());
        assert!(r.at_site(v, sites[1]).is_some());
        assert_eq!(r.of_var(v).len(), 2);
    }
}
