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

use manta_analysis::{ModuleAnalysis, VarRef};
use manta_ir::{
    Callee, ConstKind, ExternEffect, FuncId, InstId, InstKind, Type, ValueId, ValueKind, Width,
};

use crate::VarIndex;

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
///
/// Each reveal is stored once, in one table: function by function, and
/// within a function in instruction order, which is site order. The
/// by-variable index holds positions into that table, grouped by the
/// per-function value numbering [`crate::InferenceResult`] uses, so
/// [`RevealMap::of_var`] copies no type.
#[derive(Clone, Debug, Default)]
pub struct RevealMap {
    reveals: Vec<Reveal>,
    /// `reveals[func_at[f]..func_at[f + 1]]` are function `f`'s.
    func_at: Vec<u32>,
    vars: VarIndex,
    /// `by_var[var_at[s]..var_at[s + 1]]` are the positions of slot
    /// `s`'s reveals, in instruction order.
    var_at: Vec<u32>,
    by_var: Vec<u32>,
}

impl RevealMap {
    /// Extracts every reveal in the analyzed module.
    pub fn collect(analysis: &ModuleAnalysis) -> RevealMap {
        let module = analysis.module();
        let vars = VarIndex::of_module(module);
        let mut reveals: Vec<Reveal> = Vec::new();
        let mut func_at = Vec::with_capacity(module.function_count() + 1);
        func_at.push(0);
        // Every load, store, gep, alloca and indirect callee reveals a
        // pointer to something: one shared type, cloned by reference.
        let ptr_bottom = Type::ptr(Type::Bottom);
        for func in module.functions() {
            let mut push = |value: ValueId, site: InstId, ty: Type| {
                reveals.push(Reveal { value, site, ty });
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
                    InstKind::Load { addr, .. } => push(*addr, s, ptr_bottom.clone()),
                    InstKind::Store { addr, .. } => push(*addr, s, ptr_bottom.clone()),
                    InstKind::Alloca { dst, .. } => push(*dst, s, ptr_bottom.clone()),
                    InstKind::Gep { dst, base, .. } => {
                        push(*base, s, ptr_bottom.clone());
                        push(*dst, s, ptr_bottom.clone());
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
                        Callee::Indirect(fp) => push(*fp, s, ptr_bottom.clone()),
                        Callee::Direct(_) => {}
                    },
                    _ => {}
                }
            }
            func_at.push(reveals.len() as u32);
        }

        // The by-variable index, a counting sort of reveal positions by
        // slot: stable, so each variable's stay in instruction order.
        let mut var_at = vec![0u32; vars.len() + 1];
        let mut slots = Vec::with_capacity(reveals.len());
        for ((_, slots_of_f), run) in vars.functions().zip(func_at.windows(2)) {
            let base = slots_of_f.start;
            for r in &reveals[run[0] as usize..run[1] as usize] {
                let s = base + r.value.index();
                var_at[s + 1] += 1;
                slots.push(s);
            }
        }
        for s in 0..vars.len() {
            var_at[s + 1] += var_at[s];
        }
        let mut next = var_at.clone();
        let mut by_var = vec![0u32; reveals.len()];
        for (at, s) in slots.into_iter().enumerate() {
            by_var[next[s] as usize] = at as u32;
            next[s] += 1;
        }
        RevealMap {
            reveals,
            func_at,
            vars,
            var_at,
            by_var,
        }
    }

    /// Reveals inside function `f`, in instruction order.
    pub fn in_func(&self, f: FuncId) -> &[Reveal] {
        match (self.func_at.get(f.index()), self.func_at.get(f.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.reveals[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The reveals of a specific variable (`type_annotations(v)` in
    /// Algorithm 1), in instruction order.
    pub fn of_var(&self, v: VarRef) -> impl ExactSizeIterator<Item = &Reveal> + '_ {
        let positions = match self.vars.slot(v) {
            Some(s) => &self.by_var[self.var_at[s] as usize..self.var_at[s + 1] as usize],
            None => &[],
        };
        positions.iter().map(|&at| &self.reveals[at as usize])
    }

    /// Total number of reveals.
    pub fn len(&self) -> usize {
        self.reveals.len()
    }

    /// Whether no reveal exists.
    pub fn is_empty(&self) -> bool {
        self.reveals.is_empty()
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
        let mut n_hints = r.of_var(VarRef::new(fid, n));
        assert!(n_hints.any(|h| h.ty == Type::Int(Width::W64)));
        let mut b_hints = r.of_var(VarRef::new(fid, buf));
        assert!(b_hints.any(|h| h.ty.is_pointer()));
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
        let hints: Vec<&Reveal> = r.of_var(VarRef::new(fid, p)).collect();
        assert_eq!(hints.len(), 1);
        assert!(hints[0].ty.is_pointer());
        // The loaded value itself reveals nothing.
        assert_eq!(r.of_var(VarRef::new(fid, v)).len(), 0);
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
        assert_eq!(
            r.of_var(VarRef::new(fid, a)).len(),
            0,
            "add must not reveal"
        );
        // `s` is revealed numeric by its use in mul, not by add itself.
        assert!(r
            .of_var(VarRef::new(fid, s))
            .any(|h| matches!(h.ty, Type::Num(_))));
        assert!(r
            .of_var(VarRef::new(fid, b))
            .any(|h| matches!(h.ty, Type::Num(_))));
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
        assert_eq!(r.of_var(VarRef::new(fid, z)).len(), 0, "zero is ambiguous");
        assert!(
            r.of_var(VarRef::new(fid, neg))
                .any(|h| h.ty == Type::Int(Width::W64)),
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
        let at: Vec<InstId> = r.of_var(v).map(|h| h.site).collect();
        assert_eq!(at, sites[..2]);
    }
}
