//! Textual IR printer.
//!
//! The printed form is *canonical*: instruction results are renumbered
//! sequentially, and constants/addresses are printed inline at their use
//! sites. Consequently `print(parse(print(m))) == print(m)`, which the
//! property tests rely on. See [`crate::parser`] for the grammar.
//!
//! The canonical text is also what the analysis cache hashes for its
//! keys, so the printer writes every token straight into one output
//! `String` rather than formatting operands separately.

use std::fmt::Write as _;

use crate::function::{Function, Terminator};
use crate::ids::ValueId;
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use crate::types::Width;
use crate::value::{ConstKind, ValueKind};

fn width_token(w: Width) -> &'static str {
    match w {
        Width::W1 => "w1",
        Width::W8 => "w8",
        Width::W16 => "w16",
        Width::W32 => "w32",
        Width::W64 => "w64",
    }
}

/// Writes `widths` as a comma-separated token list.
fn write_widths(out: &mut String, widths: impl Iterator<Item = Width>) {
    for (i, w) in widths.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(width_token(w));
    }
}

/// Renders `module` in the canonical textual format.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module {}", module.name());
    for e in module.externs() {
        let _ = write!(out, "extern {}(", e.name);
        write_widths(&mut out, e.param_widths.iter().copied());
        out.push_str(") -> ");
        out.push_str(e.ret_width.map_or("void", width_token));
        out.push('\n');
    }
    for g in module.globals() {
        let _ = writeln!(out, "global {} {}", g.name, g.size);
    }
    for f in module.functions() {
        out.push('\n');
        write_function_canonical(module, f, &mut out);
    }
    out
}

/// Renders one function in the canonical textual format — the same text
/// [`print_module`] emits for it. Callers (e.g. the analysis cache) use
/// this as a per-function content fingerprint source: two functions with
/// identical canonical text are behaviorally identical to every
/// analysis.
pub fn print_function_canonical(module: &Module, func: &Function) -> String {
    let mut out = String::new();
    write_function_canonical(module, func, &mut out);
    out
}

/// Appends [`print_function_canonical`]'s text for `func` to `out`, so a
/// caller printing many functions can reuse one buffer.
pub fn write_function_canonical(module: &Module, func: &Function, out: &mut String) {
    // Renumber instruction results sequentially in block-traversal order.
    let mut names = vec![UNNUMBERED; func.value_count()];
    let mut next = 0;
    for block in func.blocks() {
        for &i in &block.insts {
            if let Some(d) = func.inst(i).kind.def() {
                names[d.index()] = next;
                next += 1;
            }
        }
    }
    FunctionPrinter {
        module,
        func,
        names,
        out,
    }
    .function();
}

/// The `names` slot of a value no instruction in a block defines.
const UNNUMBERED: u32 = u32::MAX;

/// Prints one function into `out`, numbering instruction results through
/// `names` (indexed by [`ValueId`]).
struct FunctionPrinter<'a> {
    module: &'a Module,
    func: &'a Function,
    names: Vec<u32>,
    out: &'a mut String,
}

impl FunctionPrinter<'_> {
    fn function(&mut self) {
        let func = self.func;
        let _ = write!(self.out, "func {}(", func.name());
        write_widths(self.out, func.params().iter().map(|&p| func.value(p).width));
        self.out.push_str(") -> ");
        self.out
            .push_str(func.ret_width().map_or("void", width_token));
        if func.is_address_taken() {
            self.out.push_str(" addrtaken");
        }
        self.out.push_str(" {\n");
        for block in func.blocks() {
            let _ = writeln!(self.out, "{}:", block.id);
            for &i in &block.insts {
                self.out.push_str("  ");
                self.inst(&func.inst(i).kind);
                self.out.push('\n');
            }
            self.out.push_str("  ");
            self.terminator(&block.term);
            self.out.push('\n');
        }
        self.out.push_str("}\n");
    }

    fn inst(&mut self, kind: &InstKind) {
        let func = self.func;
        match kind {
            InstKind::Copy { dst, src } => {
                self.def(*dst, "copy");
                self.suffixed_width(func.value(*dst).width);
                self.out.push(' ');
                self.operand(*src);
            }
            InstKind::Phi { dst, incomings } => {
                self.def(*dst, "phi");
                self.suffixed_width(func.value(*dst).width);
                self.out.push_str(" [");
                for (i, (b, v)) in incomings.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    let _ = write!(self.out, "{b}: ");
                    self.operand(*v);
                }
                self.out.push(']');
            }
            InstKind::Load { dst, addr, width } => {
                self.def(*dst, "load");
                self.suffixed_width(*width);
                self.out.push(' ');
                self.operand(*addr);
            }
            InstKind::Store { addr, val } => {
                self.out.push_str("store ");
                self.operand(*addr);
                self.out.push_str(", ");
                self.operand(*val);
            }
            InstKind::Alloca { dst, size } => {
                self.def(*dst, "alloca");
                let _ = write!(self.out, " {size}");
            }
            InstKind::Gep { dst, base, offset } => {
                self.def(*dst, "gep");
                self.out.push(' ');
                self.operand(*base);
                let _ = write!(self.out, ", {offset}");
            }
            InstKind::BinOp { op, dst, lhs, rhs } => {
                self.def(*dst, op.mnemonic());
                self.suffixed_width(func.value(*dst).width);
                self.out.push(' ');
                self.operands(&[*lhs, *rhs]);
            }
            InstKind::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                self.def(*dst, "cmp.");
                self.out.push_str(pred.mnemonic());
                self.out.push(' ');
                self.operands(&[*lhs, *rhs]);
            }
            InstKind::Call { dst, callee, args } => {
                let mnemonic = if matches!(callee, Callee::Indirect(_)) {
                    "icall"
                } else {
                    "call"
                };
                match dst {
                    Some(d) => {
                        self.def(*d, mnemonic);
                        self.suffixed_width(func.value(*d).width);
                    }
                    None => self.out.push_str(mnemonic),
                }
                self.out.push(' ');
                match callee {
                    Callee::Direct(f) => {
                        self.out.push('@');
                        self.out.push_str(self.module.function(*f).name());
                    }
                    Callee::Extern(e) => {
                        self.out.push('!');
                        self.out.push_str(&self.module.extern_decl(*e).name);
                    }
                    Callee::Indirect(v) => self.operand(*v),
                }
                self.out.push('(');
                self.operands(args);
                self.out.push(')');
            }
        }
    }

    fn terminator(&mut self, term: &Terminator) {
        match term {
            Terminator::Br(b) => {
                let _ = write!(self.out, "br {b}");
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                self.out.push_str("condbr ");
                self.operand(*cond);
                let _ = write!(self.out, ", {then_bb}, {else_bb}");
            }
            Terminator::Ret(Some(v)) => {
                self.out.push_str("ret ");
                self.operand(*v);
            }
            Terminator::Ret(None) => self.out.push_str("ret"),
            Terminator::Unreachable => self.out.push_str("unreachable"),
        }
    }

    /// Writes `v<n> = <mnemonic>` for the result `dst`.
    fn def(&mut self, dst: ValueId, mnemonic: &str) {
        self.name(dst);
        self.out.push_str(" = ");
        self.out.push_str(mnemonic);
    }

    /// Writes `.<width>`.
    fn suffixed_width(&mut self, w: Width) {
        self.out.push('.');
        self.out.push_str(width_token(w));
    }

    /// Writes the canonical name of the instruction result `v`.
    ///
    /// # Panics
    ///
    /// Panics if no instruction in a block defines `v`.
    fn name(&mut self, v: ValueId) {
        let n = self.names[v.index()];
        assert!(
            n != UNNUMBERED,
            "{v} is defined by no instruction in a block"
        );
        let _ = write!(self.out, "v{n}");
    }

    fn operands(&mut self, vs: &[ValueId]) {
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.operand(v);
        }
    }

    fn operand(&mut self, v: ValueId) {
        let val = self.func.value(v);
        let bits = val.width.bits();
        match val.kind {
            ValueKind::Param { index } => {
                let _ = write!(self.out, "p{index}");
            }
            ValueKind::Inst { .. } => self.name(v),
            ValueKind::Const(ConstKind::Int(k)) => {
                let _ = write!(self.out, "{k}:i{bits}");
            }
            ValueKind::Const(ConstKind::Float(x)) => {
                let _ = write!(self.out, "{x:?}:f{bits}");
            }
            ValueKind::Const(ConstKind::Null) => self.out.push_str("null"),
            ValueKind::Const(ConstKind::Undef) => self.out.push_str("undef"),
            ValueKind::GlobalAddr(g) => {
                self.out.push_str("g.");
                self.out.push_str(&self.module.global(g).name);
            }
            ValueKind::FuncAddr(f) => {
                self.out.push_str("fn.");
                self.out.push_str(self.module.function(f).name());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, CmpPred};

    #[test]
    fn prints_phi_and_special_constants() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W1], Some(Width::W64));
        let c = fb.param(0);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let n = fb.const_null();
        fb.br(j);
        fb.switch_to(e);
        let x = fb.const_float(2.5, Width::W64);
        fb.br(j);
        fb.switch_to(j);
        let m = fb.phi(&[(t, n), (e, x)], Width::W64);
        fb.ret(Some(m));
        mb.finish_function(fb);
        let text = print_module(&mb.finish());
        assert!(
            text.contains("v0 = phi.w64 [bb1: null, bb2: 2.5:f64]"),
            "{text}"
        );
        assert!(text.contains("condbr p0, bb1, bb2"), "{text}");
    }

    /// Every instruction kind, terminator and constant kind, with the
    /// expected text written out in full.
    #[test]
    fn prints_every_kind_exactly() {
        use crate::inst::InstKind;
        use crate::value::Value;

        let mut mb = ModuleBuilder::new("all");
        let source = mb.extern_fn("source", &[], Some(Width::W64));
        let sink = mb.extern_fn("sink", &[Width::W64, Width::W32], None);
        let table = mb.global("table", 32);

        let (callee, mut fb) = mb.function("callee", &[Width::W64], None);
        fb.ret(None);
        mb.finish_function(fb);
        mb.mark_address_taken(callee);

        let (helper, mut fb) = mb.function("helper", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        fb.ret(Some(p));
        mb.finish_function(fb);

        let (main, mut fb) = mb.function("main", &[Width::W1, Width::W64], Some(Width::W64));
        let (c, n) = (fb.param(0), fb.param(1));
        let slot = fb.alloca(16);
        let field = fb.gep(slot, 8);
        let neg_zero = fb.const_float(-0.0, Width::W64);
        fb.store(field, neg_zero);
        let nan = fb.const_float(f64::NAN, Width::W64);
        fb.store(slot, nan);
        let half = fb.const_float(1.5, Width::W32);
        fb.store(slot, half);
        let loaded = fb.load(field, Width::W64);
        let copied = fb.copy(loaded);
        let seven = fb.const_int(7, Width::W64);
        let sum = fb.binop(BinOp::Add, copied, seven, Width::W64);
        let minus_one = fb.const_int(-1, Width::W8);
        let masked = fb.binop(BinOp::And, sum, minus_one, Width::W64);
        let less = fb.cmp(CmpPred::Lt, masked, n);
        let src = fb.call_extern(source, &[], Some(Width::W64)).unwrap();
        let three = fb.const_int(3, Width::W32);
        fb.call_extern(sink, &[src, three], None);
        let helped = fb.call(helper, &[n], Some(Width::W64)).unwrap();
        fb.call(callee, &[helped], None);
        let target = fb.func_addr(callee);
        let table_addr = fb.global_addr(table);
        fb.call_indirect(target, &[table_addr], None);
        let null = fb.const_null();
        let via = fb.call_indirect(src, &[null], Some(Width::W64)).unwrap();
        let (b1, b2, b3, b4, b5) = (
            fb.new_block(),
            fb.new_block(),
            fb.new_block(),
            fb.new_block(),
            fb.new_block(),
        );
        fb.cond_br(c, b1, b2);
        fb.switch_to(b1);
        fb.cond_br(less, b3, b4);
        fb.switch_to(b2);
        fb.br(b3);
        fb.switch_to(b3);
        let five = fb.const_int(5, Width::W64);
        let merged = fb.phi(&[(b1, via), (b2, null), (b4, five)], Width::W64);
        fb.ret(Some(merged));
        fb.switch_to(b4);
        fb.br(b3);
        fb.switch_to(b5);
        fb.unreachable();
        mb.finish_function(fb);

        // The builder makes no `undef`; add one the way SSA repair does.
        let mut module = mb.finish();
        let f = module.function_mut(main);
        let undef = f.add_value(Value {
            kind: ValueKind::Const(ConstKind::Undef),
            width: Width::W64,
        });
        f.append_inst(
            b1,
            InstKind::Store {
                addr: table_addr,
                val: undef,
            },
        );

        let expected = "\
module all
extern source() -> w64
extern sink(w64, w32) -> void
global table 32

func callee(w64) -> void addrtaken {
bb0:
  ret
}

func helper(w64) -> w64 {
bb0:
  ret p0
}

func main(w1, w64) -> w64 {
bb0:
  v0 = alloca 16
  v1 = gep v0, 8
  store v1, -0.0:f64
  store v0, NaN:f64
  store v0, 1.5:f32
  v2 = load.w64 v1
  v3 = copy.w64 v2
  v4 = add.w64 v3, 7:i64
  v5 = and.w64 v4, -1:i8
  v6 = cmp.lt v5, p1
  v7 = call.w64 !source()
  call !sink(v7, 3:i32)
  v8 = call.w64 @helper(p1)
  call @callee(v8)
  icall fn.callee(g.table)
  v9 = icall.w64 v7(null)
  condbr p0, bb1, bb2
bb1:
  store g.table, undef
  condbr v6, bb3, bb4
bb2:
  br bb3
bb3:
  v10 = phi.w64 [bb1: v9, bb2: null, bb4: 5:i64]
  ret v10
bb4:
  br bb3
bb5:
  unreachable
}
";
        assert_eq!(print_module(&module), expected);
        let main_text = print_function_canonical(&module, module.function(main));
        assert!(expected.ends_with(&main_text), "{main_text}");
    }

    #[test]
    fn prints_representative_module() {
        let mut mb = ModuleBuilder::new("demo");
        let malloc = mb.extern_fn("malloc", &[], None);
        let g = mb.global("table", 32);
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let buf = fb.call_extern(malloc, &[p], Some(Width::W64)).unwrap();
        let ga = fb.global_addr(g);
        fb.store(ga, buf);
        let eight = fb.const_int(8, Width::W64);
        let end = fb.binop(BinOp::Add, buf, eight, Width::W64);
        let c = fb.cmp(CmpPred::Ne, end, buf);
        let done = fb.new_block();
        fb.cond_br(c, done, done);
        fb.switch_to(done);
        fb.ret(Some(end));
        mb.finish_function(fb);
        let text = print_module(&mb.finish());
        assert!(text.contains("module demo"));
        assert!(text.contains("extern malloc(w64) -> w64"));
        assert!(text.contains("global table 32"));
        assert!(text.contains("v0 = call.w64 !malloc(p0)"));
        assert!(text.contains("store g.table, v0"));
        assert!(text.contains("v1 = add.w64 v0, 8:i64"));
        assert!(text.contains("v2 = cmp.ne v1, v0"));
        assert!(text.contains("condbr v2, bb1, bb1"));
        assert!(text.contains("ret v1"));
    }
}
