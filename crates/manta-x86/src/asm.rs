//! A line-oriented Intel-syntax assembler and disassembler for the subset.
//!
//! Grammar (mirrors the SB-ISA assembler's shape):
//!
//! ```text
//! module <name>
//! extern <name>, <nparams>[, ret]
//! global <name>, <size>
//! func <name>(<nparams>) -> ret|void {
//! <label>:
//!     push rbp            mov rbp, rsp       sub rsp, 32
//!     mov rax, rbx        mov eax, ebx       mov rax, 42
//!     mov rax, qword [rbp-8]                 mov dword [rbp-8], eax
//!     mov qword [rax+8], 7
//!     movzx rax, byte [rdi]                  movzx rax, cl
//!     movsx rax, dword [rdi]                 lea rax, [rbp-16]
//!     lea rax, func <name>                   lea rax, global <name>
//!     add rax, rbx        cmp rax, 0         imul rax, qword [rbp-8]
//!     test rax, rax       shl rax, 3
//!     je <label>          jmp <label>
//!     call <func|extern>  call rax           ret
//! }
//! ```
//!
//! Labels bind to the next instruction. `call` resolves function names
//! first, then externs (through their PLT stub), then registers.
//! [`disassemble`] renders an image back to text that [`assemble`] parses
//! to an identical image.

use std::fmt;
use std::fmt::Write as _;

use crate::decode::decode_all;
use crate::image::{rip_target, Image, ImageBuilder, ImageError, SymInst, TEXT_BASE};
use crate::inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm, Shift};

/// Assembly failure with its 1-based line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number (0 for link-stage errors).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assembly error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

type Result<T> = std::result::Result<T, AsmError>;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// Parses a register name at any width.
fn parse_reg(tok: &str) -> Option<(Gpr, OpWidth)> {
    for i in 0..16u8 {
        let g = Gpr(i);
        if tok == g.name64() {
            return Some((g, OpWidth::B64));
        }
        if tok == g.name32() {
            return Some((g, OpWidth::B32));
        }
        if tok == g.name16() {
            return Some((g, OpWidth::B16));
        }
        if tok == g.name8() {
            return Some((g, OpWidth::B8));
        }
    }
    None
}

fn parse_imm(tok: &str) -> Option<i64> {
    let tok = tok.trim();
    if let Some(hex) = tok.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok();
    }
    if let Some(hex) = tok.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| -v);
    }
    tok.parse().ok()
}

fn parse_size_keyword(tok: &str) -> Option<OpWidth> {
    match tok {
        "byte" => Some(OpWidth::B8),
        "word" => Some(OpWidth::B16),
        "dword" => Some(OpWidth::B32),
        "qword" => Some(OpWidth::B64),
        _ => None,
    }
}

/// A parsed operand.
enum Operand {
    Reg(Gpr, OpWidth),
    Imm(i64),
    Mem(Option<OpWidth>, Mem),
}

/// Parses `[base]`, `[base+disp]`, `[base-disp]`, `[base+index*scale+disp]`,
/// `[rip+disp]`, with an optional size keyword in front.
fn parse_operand(ln: usize, tok: &str) -> Result<Operand> {
    let tok = tok.trim();
    // Optional `qword [...]` size prefix.
    if let Some((kw, rest)) = tok.split_once(char::is_whitespace) {
        if let Some(w) = parse_size_keyword(kw) {
            let Operand::Mem(None, mem) = parse_operand(ln, rest.trim())? else {
                return err(ln, format!("size keyword `{kw}` must precede `[...]`"));
            };
            return Ok(Operand::Mem(Some(w), mem));
        }
    }
    if let Some((r, w)) = parse_reg(tok) {
        return Ok(Operand::Reg(r, w));
    }
    if let Some(v) = parse_imm(tok) {
        return Ok(Operand::Imm(v));
    }
    let Some(inner) = tok.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return err(ln, format!("bad operand `{tok}`"));
    };
    // Split `a+b-c` into signed terms.
    let mut terms: Vec<(bool, String)> = Vec::new();
    let mut cur = String::new();
    let mut neg = false;
    for ch in inner.chars() {
        match ch {
            '+' | '-' if !cur.trim().is_empty() => {
                terms.push((neg, cur.trim().to_string()));
                cur = String::new();
                neg = ch == '-';
            }
            '-' if cur.trim().is_empty() => neg = true,
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        terms.push((neg, cur.trim().to_string()));
    }

    let mut base: Option<Gpr> = None;
    let mut rip = false;
    let mut index: Option<(Gpr, u8)> = None;
    let mut disp: i64 = 0;
    for (neg, term) in terms {
        if let Some((r_tok, s_tok)) = term.split_once('*') {
            let Some((r, OpWidth::B64)) = parse_reg(r_tok.trim()) else {
                return err(ln, format!("bad index register `{r_tok}`"));
            };
            let Some(scale) = s_tok
                .trim()
                .parse::<u8>()
                .ok()
                .filter(|s| matches!(s, 1 | 2 | 4 | 8))
            else {
                return err(ln, format!("bad scale `{s_tok}` (want 1, 2, 4 or 8)"));
            };
            if neg || index.is_some() {
                return err(ln, "at most one positive scaled index allowed");
            }
            index = Some((r, scale));
        } else if term == "rip" {
            if neg || rip || base.is_some() {
                return err(ln, "rip must be the sole (positive) base");
            }
            rip = true;
        } else if let Some((r, OpWidth::B64)) = parse_reg(&term) {
            if neg {
                return err(ln, "registers cannot be subtracted");
            }
            if base.is_none() {
                base = Some(r);
            } else if index.is_none() {
                index = Some((r, 1));
            } else {
                return err(ln, "too many registers in memory operand");
            }
        } else if let Some(v) = parse_imm(&term) {
            disp += if neg { -v } else { v };
        } else {
            return err(ln, format!("bad memory term `{term}`"));
        }
    }
    let disp = i32::try_from(disp).map_err(|_| AsmError {
        line: ln,
        message: "displacement overflows i32".into(),
    })?;
    let mem = match (rip, base, index) {
        (true, None, None) => Mem::Rip { disp },
        (false, Some(base), None) => Mem::Base { base, disp },
        (false, Some(base), Some((index, scale))) => {
            if index == Gpr::RSP {
                return err(ln, "rsp cannot be an index register");
            }
            Mem::BaseIndex {
                base,
                index,
                scale,
                disp,
            }
        }
        _ => return err(ln, format!("unsupported memory operand `[{inner}]`")),
    };
    Ok(Operand::Mem(None, mem))
}

fn alu_of(mn: &str) -> Option<Alu> {
    match mn {
        "add" => Some(Alu::Add),
        "sub" => Some(Alu::Sub),
        "and" => Some(Alu::And),
        "or" => Some(Alu::Or),
        "xor" => Some(Alu::Xor),
        "cmp" => Some(Alu::Cmp),
        "imul" => Some(Alu::Mul),
        _ => None,
    }
}

fn cc_of(mn: &str) -> Option<Cc> {
    match mn {
        "je" => Some(Cc::E),
        "jne" => Some(Cc::Ne),
        "jl" => Some(Cc::L),
        "jle" => Some(Cc::Le),
        "jg" => Some(Cc::G),
        "jge" => Some(Cc::Ge),
        "jb" => Some(Cc::B),
        "jbe" => Some(Cc::Be),
        "ja" => Some(Cc::A),
        "jae" => Some(Cc::Ae),
        _ => None,
    }
}

/// Assembles a whole program into a linked [`Image`].
///
/// # Errors
///
/// Returns [`AsmError`] pointing at the offending line; link-stage failures
/// (undefined labels/functions) report line 0.
pub fn assemble(text: &str) -> Result<Image> {
    // Pre-scan names so `call` can distinguish functions from externs and
    // forward references work.
    let mut func_names: Vec<String> = Vec::new();
    let mut extern_names: Vec<String> = Vec::new();
    for line in text.lines() {
        let line = line.split(';').next().unwrap_or("").trim();
        if let Some(rest) = line.strip_prefix("func ") {
            func_names.push(rest.split('(').next().unwrap_or("").trim().to_string());
        } else if let Some(rest) = line.strip_prefix("extern ") {
            let name = rest.split(',').next().unwrap_or("").trim();
            extern_names.push(name.to_string());
        }
    }

    let mut builder = ImageBuilder::new("");
    let mut module_name = String::new();
    // An open function: (name, nparams, has_ret, body).
    let mut current: Option<(String, u8, bool, Vec<SymInst>)> = None;

    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((_, _, _, ref mut body)) = current {
            if line == "}" {
                let (name, nparams, has_ret, body) = current.take().unwrap();
                builder.function(name, nparams, has_ret, body);
                continue;
            }
            if let Some(label) = line.strip_suffix(':') {
                body.push(SymInst::Label(label.trim().to_string()));
                continue;
            }
            let inst = parse_inst(ln, line, &func_names, &extern_names)?;
            body.push(inst);
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            module_name = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("extern ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() < 2 {
                return err(ln, "extern expects `name, nparams[, ret]`");
            }
            let nparams: u8 = parts[1].parse().map_err(|_| AsmError {
                line: ln,
                message: format!("bad nparams `{}`", parts[1]),
            })?;
            builder.declare_extern(parts[0], nparams, parts.get(2) == Some(&"ret"));
        } else if let Some(rest) = line.strip_prefix("global ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return err(ln, "global expects `name, size`");
            }
            let size: u64 = parts[1].parse().map_err(|_| AsmError {
                line: ln,
                message: format!("bad size `{}`", parts[1]),
            })?;
            builder.declare_global(parts[0], size);
        } else if let Some(rest) = line.strip_prefix("func ") {
            let rest = rest
                .strip_suffix('{')
                .ok_or(AsmError {
                    line: ln,
                    message: "expected `{`".into(),
                })?
                .trim();
            let open = rest.find('(').ok_or(AsmError {
                line: ln,
                message: "expected `(`".into(),
            })?;
            let close = rest.rfind(')').ok_or(AsmError {
                line: ln,
                message: "expected `)`".into(),
            })?;
            let name = rest[..open].trim().to_string();
            let nparams: u8 = rest[open + 1..close].trim().parse().map_err(|_| AsmError {
                line: ln,
                message: "func expects `(nparams)`".into(),
            })?;
            let has_ret = rest[close..].contains("->") && !rest[close..].contains("void");
            current = Some((name, nparams, has_ret, Vec::new()));
        } else {
            return err(ln, format!("unexpected top-level line `{line}`"));
        }
    }
    if current.is_some() {
        return err(usize::MAX, "unterminated function body");
    }

    let mut image = builder.build().map_err(|e: ImageError| AsmError {
        line: 0,
        message: e.message,
    })?;
    image.name = module_name;
    Ok(image)
}

fn parse_inst(
    ln: usize,
    line: &str,
    func_names: &[String],
    extern_names: &[String],
) -> Result<SymInst> {
    let (mn, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let parts: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        split_operands(rest)
    };
    let need = |n: usize| -> Result<()> {
        if parts.len() == n {
            Ok(())
        } else {
            err(
                ln,
                format!("`{mn}` expects {n} operands, got {}", parts.len()),
            )
        }
    };

    if let Some(cc) = cc_of(mn) {
        need(1)?;
        return Ok(SymInst::JccLabel(cc, parts[0].to_string()));
    }

    Ok(match mn {
        "mov" => {
            need(2)?;
            let dst = parse_operand(ln, parts[0])?;
            let src = parse_operand(ln, parts[1])?;
            match (dst, src) {
                (Operand::Reg(d, wd), Operand::Reg(s, ws)) => {
                    if wd != ws {
                        return err(ln, "mov operand widths differ");
                    }
                    if !matches!(wd, OpWidth::B32 | OpWidth::B64) {
                        return err(ln, "narrow reg-reg mov: use movzx/movsx");
                    }
                    SymInst::Real(Inst::MovRR {
                        w: wd,
                        dst: d,
                        src: s,
                    })
                }
                (Operand::Reg(d, OpWidth::B64), Operand::Imm(imm)) => {
                    SymInst::Real(Inst::MovRI { dst: d, imm })
                }
                (Operand::Reg(d, w), Operand::Mem(kw, mem)) => {
                    if let Some(kw) = kw {
                        if kw != w {
                            return err(ln, "size keyword disagrees with register width");
                        }
                    }
                    if !matches!(w, OpWidth::B32 | OpWidth::B64) {
                        return err(ln, "narrow loads: use movzx/movsx");
                    }
                    SymInst::Real(Inst::MovLoad { w, dst: d, mem })
                }
                (Operand::Mem(kw, mem), Operand::Reg(s, w)) => {
                    if let Some(kw) = kw {
                        if kw != w {
                            return err(ln, "size keyword disagrees with register width");
                        }
                    }
                    SymInst::Real(Inst::MovStore { w, mem, src: s })
                }
                (Operand::Mem(Some(w), mem), Operand::Imm(imm)) => {
                    let imm = i32::try_from(imm).map_err(|_| AsmError {
                        line: ln,
                        message: "store immediate overflows i32".into(),
                    })?;
                    SymInst::Real(Inst::MovStoreImm { w, mem, imm })
                }
                (Operand::Mem(None, _), Operand::Imm(_)) => {
                    return err(ln, "store of immediate needs a size keyword")
                }
                _ => return err(ln, "unsupported mov operand combination"),
            }
        }
        "movzx" | "movsx" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(ln, parts[0])? else {
                return err(ln, format!("{mn} destination must be a 64-bit register"));
            };
            let (from, src) = match parse_operand(ln, parts[1])? {
                Operand::Reg(r, w) => (w, Rm::Reg(r)),
                Operand::Mem(Some(w), mem) => (w, Rm::Mem(mem)),
                Operand::Mem(None, _) => {
                    return err(ln, format!("{mn} memory source needs a size keyword"))
                }
                Operand::Imm(_) => return err(ln, format!("{mn} source cannot be immediate")),
            };
            let ok = matches!(
                (mn, from),
                ("movzx", OpWidth::B8 | OpWidth::B16)
                    | ("movsx", OpWidth::B8 | OpWidth::B16 | OpWidth::B32)
            );
            if !ok {
                return err(ln, format!("{mn} cannot widen from {} bits", from.bits()));
            }
            if mn == "movzx" {
                SymInst::Real(Inst::MovZx { from, dst, src })
            } else {
                SymInst::Real(Inst::MovSx { from, dst, src })
            }
        }
        "lea" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(ln, parts[0])? else {
                return err(ln, "lea destination must be a 64-bit register");
            };
            if let Some(name) = parts[1].strip_prefix("func ") {
                SymInst::LeaFunc(dst, name.trim().to_string())
            } else if let Some(name) = parts[1].strip_prefix("global ") {
                SymInst::LeaGlobal(dst, name.trim().to_string())
            } else {
                let Operand::Mem(_, mem) = parse_operand(ln, parts[1])? else {
                    return err(ln, "lea source must be a memory operand");
                };
                SymInst::Real(Inst::Lea { dst, mem })
            }
        }
        _ if alu_of(mn).is_some() => {
            let op = alu_of(mn).unwrap();
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(ln, parts[0])? else {
                return err(ln, format!("{mn} destination must be a 64-bit register"));
            };
            match parse_operand(ln, parts[1])? {
                Operand::Reg(src, OpWidth::B64) => SymInst::Real(Inst::AluRR { op, dst, src }),
                Operand::Reg(..) => return err(ln, format!("{mn} source must be 64-bit")),
                Operand::Imm(imm) => {
                    let imm = i32::try_from(imm).map_err(|_| AsmError {
                        line: ln,
                        message: "ALU immediate overflows i32".into(),
                    })?;
                    SymInst::Real(Inst::AluRI { op, dst, imm })
                }
                Operand::Mem(kw, mem) => {
                    if matches!(kw, Some(w) if w != OpWidth::B64) {
                        return err(ln, format!("{mn} memory source must be qword"));
                    }
                    SymInst::Real(Inst::AluRM { op, dst, mem })
                }
            }
        }
        "test" => {
            need(2)?;
            let (Operand::Reg(a, OpWidth::B64), Operand::Reg(b, OpWidth::B64)) =
                (parse_operand(ln, parts[0])?, parse_operand(ln, parts[1])?)
            else {
                return err(ln, "test expects two 64-bit registers");
            };
            SymInst::Real(Inst::TestRR { a, b })
        }
        "shl" | "shr" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(ln, parts[0])? else {
                return err(ln, format!("{mn} destination must be a 64-bit register"));
            };
            let Operand::Imm(amt) = parse_operand(ln, parts[1])? else {
                return err(ln, format!("{mn} amount must be immediate"));
            };
            let amt = u8::try_from(amt).ok().filter(|a| *a < 64).ok_or(AsmError {
                line: ln,
                message: "shift amount must be 0-63".into(),
            })?;
            let sh = if mn == "shl" { Shift::Shl } else { Shift::Shr };
            SymInst::Real(Inst::ShiftRI { sh, dst, amt })
        }
        "push" | "pop" => {
            need(1)?;
            let Operand::Reg(reg, OpWidth::B64) = parse_operand(ln, parts[0])? else {
                return err(ln, format!("{mn} expects a 64-bit register"));
            };
            if mn == "push" {
                SymInst::Real(Inst::Push { reg })
            } else {
                SymInst::Real(Inst::Pop { reg })
            }
        }
        "jmp" => {
            need(1)?;
            SymInst::JmpLabel(parts[0].to_string())
        }
        "call" => {
            need(1)?;
            let target = parts[0];
            if func_names.iter().any(|n| n == target) {
                SymInst::CallFunc(target.to_string())
            } else if extern_names.iter().any(|n| n == target) {
                SymInst::CallExtern(target.to_string())
            } else if let Some((reg, OpWidth::B64)) = parse_reg(target) {
                SymInst::Real(Inst::CallInd { reg })
            } else {
                return err(ln, format!("unknown call target `{target}`"));
            }
        }
        "ret" => {
            need(0)?;
            SymInst::Real(Inst::Ret)
        }
        other => return err(ln, format!("unknown mnemonic `{other}`")),
    })
}

/// Splits operands on top-level commas (commas inside `[...]` don't occur in
/// this syntax, but keep the split simple and explicit).
fn split_operands(rest: &str) -> Vec<&str> {
    rest.split(',').map(str::trim).collect()
}

/// Renders an image back to assembly text that [`assemble`] parses to an
/// identical image.
///
/// # Errors
///
/// Returns [`ImageError`] when the text bytes don't decode, when a call
/// or RIP reference points at no known function, extern or global, or
/// when the globals overflow the address space.
pub fn disassemble(image: &Image) -> std::result::Result<String, ImageError> {
    let addrs = image.addresses()?;
    let mut out = String::new();
    let _ = writeln!(out, "module {}", image.name);
    for e in &image.externs {
        let ret = if e.has_ret { ", ret" } else { "" };
        let _ = writeln!(out, "extern {}, {}{}", e.name, e.nparams, ret);
    }
    for g in &image.globals {
        let _ = writeln!(out, "global {}, {}", g.name, g.size);
    }
    for (fi, f) in image.functions.iter().enumerate() {
        let ret = if f.has_ret { "ret" } else { "void" };
        let _ = writeln!(out, "\nfunc {}({}) -> {} {{", f.name, f.nparams, ret);
        let code = &image.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(code).map_err(|e| ImageError {
            message: format!("function `{}`: {}", f.name, e.message),
        })?;
        // Collect branch-target offsets for labels.
        let mut targets: Vec<u64> = Vec::new();
        for (inst, off, len) in &insts {
            let next = *off as u64 + *len as u64;
            match inst {
                Inst::Jmp { rel } | Inst::Jcc { rel, .. } => {
                    targets.push(next.wrapping_add(*rel as i64 as u64));
                }
                _ => {}
            }
        }
        targets.sort_unstable();
        targets.dedup();

        for (inst, off, len) in &insts {
            if targets.contains(&(*off as u64)) {
                let _ = writeln!(out, "L{off}:");
            }
            let next_off = *off as u64 + *len as u64;
            match inst {
                Inst::Jmp { rel } => {
                    let t = next_off.wrapping_add(*rel as i64 as u64);
                    let _ = writeln!(out, "    jmp L{t}");
                }
                Inst::Jcc { cc, rel } => {
                    let t = next_off.wrapping_add(*rel as i64 as u64);
                    let _ = writeln!(out, "    j{} L{t}", cc.mnemonic());
                }
                Inst::Call { rel } => {
                    let addr =
                        (TEXT_BASE + f.offset as u64 + next_off).wrapping_add(*rel as i64 as u64);
                    if let Some(ti) = addrs.func_at(addr) {
                        let _ = writeln!(out, "    call {}", image.functions[ti].name);
                    } else if let Some(ei) = image.plt_at_addr(addr) {
                        let _ = writeln!(out, "    call {}", image.externs[ei].name);
                    } else {
                        return Err(ImageError {
                            message: format!("call target {addr:#x} matches no symbol"),
                        });
                    }
                }
                Inst::Lea {
                    dst,
                    mem: Mem::Rip { disp },
                } => {
                    let addr = rip_target(image, fi, next_off, *disp);
                    if let Some(ti) = addrs.func_at(addr) {
                        let _ = writeln!(out, "    lea {dst}, func {}", image.functions[ti].name);
                    } else if let Some((gi, 0)) = addrs.global_at(addr) {
                        let _ = writeln!(out, "    lea {dst}, global {}", image.globals[gi].name);
                    } else {
                        return Err(ImageError {
                            message: format!("rip reference {addr:#x} matches no symbol"),
                        });
                    }
                }
                other => {
                    let _ = writeln!(out, "    {other}");
                }
            }
        }
        out.push_str("}\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
module demo
extern malloc, 1, ret
global table, 64

func helper(1) -> ret {
    mov rax, rdi
    add rax, 1
    ret
}

func main(0) -> ret {
    push rbp
    mov rbp, rsp
    sub rsp, 16
    mov rdi, 16
    call malloc
    mov qword [rbp-8], rax
    mov rax, qword [rbp-8]
    test rax, rax
    je out
    mov rdi, rax
    call helper
out:
    lea rsi, global table
    lea rdx, func helper
    mov rsp, rbp
    pop rbp
    ret
}
"#;

    #[test]
    fn assembles_sample() {
        let img = assemble(SAMPLE).unwrap();
        assert_eq!(img.name, "demo");
        assert_eq!(img.externs.len(), 1);
        assert_eq!(img.globals.len(), 1);
        assert_eq!(img.functions.len(), 2);
        // Every function body decodes cleanly.
        for f in &img.functions {
            let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
            decode_all(code).unwrap();
        }
    }

    #[test]
    fn disassemble_roundtrip() {
        let img = assemble(SAMPLE).unwrap();
        let text = disassemble(&img).unwrap();
        let img2 = assemble(&text).unwrap();
        assert_eq!(img, img2);
    }

    #[test]
    fn memory_operand_forms() {
        let text = "module m\nfunc f(0) -> void {\n    mov rax, qword [rbx+rcx*8+16]\n    mov rdx, qword [rsp+8]\n    mov ecx, dword [rbp-4]\n    ret\n}\n";
        let img = assemble(text).unwrap();
        let f = &img.functions[0];
        let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(code).unwrap();
        assert!(matches!(
            insts[0].0,
            Inst::MovLoad {
                mem: Mem::BaseIndex { scale: 8, .. },
                ..
            }
        ));
    }

    #[test]
    fn unknown_call_target_reports_line() {
        let bad = "module m\nfunc f(0) -> void {\n    call ghost\n}\n";
        let e = assemble(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn sub_register_mnemonics() {
        let text = "module m\nfunc f(1) -> ret {\n    movzx rax, dil\n    movsx rcx, eax\n    mov eax, ecx\n    ret\n}\n";
        let img = assemble(text).unwrap();
        let f = &img.functions[0];
        let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(code).unwrap();
        assert!(matches!(
            insts[0].0,
            Inst::MovZx {
                from: OpWidth::B8,
                src: Rm::Reg(Gpr::RDI),
                ..
            }
        ));
        assert!(matches!(
            insts[2].0,
            Inst::MovRR {
                w: OpWidth::B32,
                ..
            }
        ));
    }
}
