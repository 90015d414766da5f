//! The x86-64 subset decoder.
//!
//! `decode_one` never panics on arbitrary bytes: every malformed, truncated
//! or out-of-subset sequence is a [`DecodeError`]. The decoder also enforces
//! *canonical form* — after structurally decoding an instruction it
//! re-encodes it and rejects the input unless the bytes match exactly. This
//! single check rules out redundant REX prefixes, oversized displacements
//! and immediates, and alias encodings (e.g. `8B` with mod=11 where the
//! canonical reg-reg mov is `89`), and it makes the fuzz round-trip property
//! `encode(decode(bytes)) == bytes` hold by construction.

use std::fmt;

use crate::encode::encode_to_vec;
use crate::inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm};

/// A decode failure at a byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Description of what went wrong.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over the input bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| DecodeError::new("truncated instruction"))?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let mut buf = [0u8; 4];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(i32::from_le_bytes(buf))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        let mut buf = [0u8; 8];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(i64::from_le_bytes(buf))
    }

    fn i16(&mut self) -> Result<i16, DecodeError> {
        let mut buf = [0u8; 2];
        for b in &mut buf {
            *b = self.u8()?;
        }
        Ok(i16::from_le_bytes(buf))
    }
}

/// Decoded ModRM: the reg field plus a register-or-memory r/m operand.
struct ModRm {
    reg: u8,
    rm: Rm,
}

/// Parses ModRM (+ SIB + displacement) using the REX `R`/`X`/`B` bits.
fn parse_modrm(r: &mut Reader<'_>, rex: u8) -> Result<ModRm, DecodeError> {
    let rex_r = (rex >> 2) & 1;
    let rex_x = (rex >> 1) & 1;
    let rex_b = rex & 1;
    let modrm = r.u8()?;
    let mod_bits = modrm >> 6;
    let reg = (modrm >> 3) & 7 | rex_r << 3;
    let rm_bits = modrm & 7;

    if mod_bits == 0b11 {
        return Ok(ModRm {
            reg,
            rm: Rm::Reg(Gpr(rm_bits | rex_b << 3)),
        });
    }

    if mod_bits == 0b00 && rm_bits == 0b101 {
        // RIP-relative.
        let disp = r.i32()?;
        return Ok(ModRm {
            reg,
            rm: Rm::Mem(Mem::Rip { disp }),
        });
    }

    let mem = if rm_bits == 0b100 {
        // SIB byte follows.
        let sib = r.u8()?;
        let ss = sib >> 6;
        let index_bits = (sib >> 3) & 7;
        let base_bits = sib & 7;
        if mod_bits == 0b00 && base_bits == 0b101 {
            return Err(DecodeError::new(
                "SIB with no base register is outside the subset",
            ));
        }
        let base = Gpr(base_bits | rex_b << 3);
        let disp = read_disp(r, mod_bits)?;
        if index_bits == 0b100 && rex_x == 0 {
            // No index: this is how rsp/r12 bases are addressed.
            Mem::Base { base, disp }
        } else {
            Mem::BaseIndex {
                base,
                index: Gpr(index_bits | rex_x << 3),
                scale: 1 << ss,
                disp,
            }
        }
    } else {
        let base = Gpr(rm_bits | rex_b << 3);
        let disp = read_disp(r, mod_bits)?;
        Mem::Base { base, disp }
    };
    Ok(ModRm {
        reg,
        rm: Rm::Mem(mem),
    })
}

fn read_disp(r: &mut Reader<'_>, mod_bits: u8) -> Result<i32, DecodeError> {
    match mod_bits {
        0b00 => Ok(0),
        0b01 => Ok(r.u8()? as i8 as i32),
        0b10 => r.i32(),
        _ => unreachable!("mod=11 handled by caller"),
    }
}

fn expect_reg(rm: Rm, what: &str) -> Result<Gpr, DecodeError> {
    match rm {
        Rm::Reg(r) => Ok(r),
        Rm::Mem(_) => Err(DecodeError::new(format!(
            "{what} requires a register operand"
        ))),
    }
}

fn expect_mem(rm: Rm, what: &str) -> Result<Mem, DecodeError> {
    match rm {
        Rm::Mem(m) => Ok(m),
        Rm::Reg(_) => Err(DecodeError::new(format!(
            "{what} requires a memory operand"
        ))),
    }
}

/// The `83`/`81` immediate group and `01..39` MR group share operation order.
fn alu_from_ext(ext: u8) -> Result<Alu, DecodeError> {
    match ext {
        0 => Ok(Alu::Add),
        1 => Ok(Alu::Or),
        4 => Ok(Alu::And),
        5 => Ok(Alu::Sub),
        6 => Ok(Alu::Xor),
        7 => Ok(Alu::Cmp),
        _ => Err(DecodeError::new(format!(
            "ALU opcode extension /{ext} is outside the subset"
        ))),
    }
}

fn alu_from_mr_opcode(op: u8) -> Option<Alu> {
    match op {
        0x01 => Some(Alu::Add),
        0x09 => Some(Alu::Or),
        0x21 => Some(Alu::And),
        0x29 => Some(Alu::Sub),
        0x31 => Some(Alu::Xor),
        0x39 => Some(Alu::Cmp),
        _ => None,
    }
}

fn alu_from_rm_opcode(op: u8) -> Option<Alu> {
    match op {
        0x03 => Some(Alu::Add),
        0x0b => Some(Alu::Or),
        0x23 => Some(Alu::And),
        0x2b => Some(Alu::Sub),
        0x33 => Some(Alu::Xor),
        0x3b => Some(Alu::Cmp),
        _ => None,
    }
}

fn cc_from_number(n: u8) -> Result<Cc, DecodeError> {
    match n {
        0x2 => Ok(Cc::B),
        0x3 => Ok(Cc::Ae),
        0x4 => Ok(Cc::E),
        0x5 => Ok(Cc::Ne),
        0x6 => Ok(Cc::Be),
        0x7 => Ok(Cc::A),
        0xc => Ok(Cc::L),
        0xd => Ok(Cc::Ge),
        0xe => Ok(Cc::Le),
        0xf => Ok(Cc::G),
        _ => Err(DecodeError::new(format!(
            "condition code {n:#x} is outside the subset"
        ))),
    }
}

/// Decodes one instruction from the front of `bytes`.
///
/// On success returns the instruction and the number of bytes it occupied.
///
/// # Errors
///
/// Returns [`DecodeError`] for truncated input, opcodes outside the subset,
/// and structurally valid but non-canonical encodings (see module docs).
pub fn decode_one(bytes: &[u8]) -> Result<(Inst, usize), DecodeError> {
    let mut r = Reader { bytes, pos: 0 };

    let mut prefix66 = false;
    if r.peek() == Some(0x66) {
        prefix66 = true;
        r.pos += 1;
    }
    let mut rex = 0u8;
    let mut has_rex = false;
    if let Some(b) = r.peek() {
        if b & 0xf0 == 0x40 {
            rex = b & 0x0f;
            has_rex = true;
            r.pos += 1;
        }
    }
    let rex_w = rex & 0x8 != 0;
    let rex_b = rex & 0x1;

    let opcode = r.u8()?;
    let inst = match opcode {
        0x88 => {
            let m = parse_modrm(&mut r, rex)?;
            let mem = expect_mem(m.rm, "byte store")?;
            Inst::MovStore {
                w: OpWidth::B8,
                mem,
                src: Gpr(m.reg),
            }
        }
        0x89 => {
            let m = parse_modrm(&mut r, rex)?;
            if prefix66 {
                let mem = expect_mem(m.rm, "16-bit mov")?;
                Inst::MovStore {
                    w: OpWidth::B16,
                    mem,
                    src: Gpr(m.reg),
                }
            } else {
                let w = if rex_w { OpWidth::B64 } else { OpWidth::B32 };
                match m.rm {
                    Rm::Reg(dst) => Inst::MovRR {
                        w,
                        dst,
                        src: Gpr(m.reg),
                    },
                    Rm::Mem(mem) => Inst::MovStore {
                        w,
                        mem,
                        src: Gpr(m.reg),
                    },
                }
            }
        }
        0x8b => {
            let m = parse_modrm(&mut r, rex)?;
            let mem = expect_mem(m.rm, "mov load (canonical reg-reg mov is 89)")?;
            let w = if rex_w { OpWidth::B64 } else { OpWidth::B32 };
            Inst::MovLoad {
                w,
                dst: Gpr(m.reg),
                mem,
            }
        }
        0x8d => {
            if !rex_w {
                return Err(DecodeError::new("lea without REX.W is outside the subset"));
            }
            let m = parse_modrm(&mut r, rex)?;
            let mem = expect_mem(m.rm, "lea")?;
            Inst::Lea {
                dst: Gpr(m.reg),
                mem,
            }
        }
        0xc6 => {
            let m = parse_modrm(&mut r, rex)?;
            if m.reg & 7 != 0 {
                return Err(DecodeError::new("C6 requires opcode extension /0"));
            }
            let mem = expect_mem(m.rm, "byte store-immediate")?;
            let imm = r.u8()? as i8 as i32;
            Inst::MovStoreImm {
                w: OpWidth::B8,
                mem,
                imm,
            }
        }
        0xc7 => {
            let m = parse_modrm(&mut r, rex)?;
            if m.reg & 7 != 0 {
                return Err(DecodeError::new("C7 requires opcode extension /0"));
            }
            match m.rm {
                Rm::Reg(dst) => {
                    if !rex_w {
                        return Err(DecodeError::new(
                            "32-bit mov-immediate to register is outside the subset",
                        ));
                    }
                    let imm = r.i32()? as i64;
                    Inst::MovRI { dst, imm }
                }
                Rm::Mem(mem) => {
                    if prefix66 {
                        let imm = r.i16()? as i32;
                        Inst::MovStoreImm {
                            w: OpWidth::B16,
                            mem,
                            imm,
                        }
                    } else {
                        let w = if rex_w { OpWidth::B64 } else { OpWidth::B32 };
                        let imm = r.i32()?;
                        Inst::MovStoreImm { w, mem, imm }
                    }
                }
            }
        }
        0xb8..=0xbf => {
            if !rex_w {
                return Err(DecodeError::new(
                    "B8+r without REX.W (32-bit mov-immediate) is outside the subset",
                ));
            }
            let dst = Gpr((opcode - 0xb8) | rex_b << 3);
            let imm = r.i64()?;
            Inst::MovRI { dst, imm }
        }
        0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 => {
            if !rex_w {
                return Err(DecodeError::new("32-bit ALU forms are outside the subset"));
            }
            let op = alu_from_mr_opcode(opcode).unwrap_or(Alu::Add);
            let m = parse_modrm(&mut r, rex)?;
            let dst = expect_reg(m.rm, "register-register ALU")?;
            Inst::AluRR {
                op,
                dst,
                src: Gpr(m.reg),
            }
        }
        0x03 | 0x0b | 0x23 | 0x2b | 0x33 | 0x3b => {
            if !rex_w {
                return Err(DecodeError::new("32-bit ALU forms are outside the subset"));
            }
            let op = alu_from_rm_opcode(opcode).unwrap_or(Alu::Add);
            let m = parse_modrm(&mut r, rex)?;
            let mem = expect_mem(m.rm, "memory-source ALU (canonical reg-reg is MR form)")?;
            Inst::AluRM {
                op,
                dst: Gpr(m.reg),
                mem,
            }
        }
        0x83 | 0x81 => {
            if !rex_w {
                return Err(DecodeError::new("32-bit ALU forms are outside the subset"));
            }
            let m = parse_modrm(&mut r, rex)?;
            let op = alu_from_ext(m.reg & 7)?;
            let dst = expect_reg(m.rm, "immediate ALU")?;
            let imm = if opcode == 0x83 {
                r.u8()? as i8 as i32
            } else {
                r.i32()?
            };
            Inst::AluRI { op, dst, imm }
        }
        0x69 => {
            if !rex_w {
                return Err(DecodeError::new("32-bit imul is outside the subset"));
            }
            let m = parse_modrm(&mut r, rex)?;
            let src = expect_reg(m.rm, "imul-immediate")?;
            if src != Gpr(m.reg) {
                return Err(DecodeError::new(
                    "three-operand imul with distinct registers is outside the subset",
                ));
            }
            let imm = r.i32()?;
            Inst::AluRI {
                op: Alu::Mul,
                dst: src,
                imm,
            }
        }
        0x85 => {
            if !rex_w {
                return Err(DecodeError::new("32-bit test is outside the subset"));
            }
            let m = parse_modrm(&mut r, rex)?;
            let a = expect_reg(m.rm, "test")?;
            Inst::TestRR { a, b: Gpr(m.reg) }
        }
        0xc1 => {
            if !rex_w {
                return Err(DecodeError::new("32-bit shifts are outside the subset"));
            }
            let m = parse_modrm(&mut r, rex)?;
            let sh = match m.reg & 7 {
                4 => crate::inst::Shift::Shl,
                5 => crate::inst::Shift::Shr,
                ext => {
                    return Err(DecodeError::new(format!(
                        "shift opcode extension /{ext} is outside the subset"
                    )))
                }
            };
            let dst = expect_reg(m.rm, "shift")?;
            let amt = r.u8()?;
            if amt >= 64 {
                return Err(DecodeError::new("shift amount must be 0-63"));
            }
            Inst::ShiftRI { sh, dst, amt }
        }
        0x50..=0x57 => Inst::Push {
            reg: Gpr((opcode - 0x50) | rex_b << 3),
        },
        0x58..=0x5f => Inst::Pop {
            reg: Gpr((opcode - 0x58) | rex_b << 3),
        },
        0xe8 => Inst::Call { rel: r.i32()? },
        0xe9 => Inst::Jmp { rel: r.i32()? },
        0xeb => {
            return Err(DecodeError::new(
                "rel8 jmp is outside the subset; use rel32 (E9)",
            ))
        }
        0x70..=0x7f => {
            return Err(DecodeError::new(
                "rel8 jcc is outside the subset; use rel32 (0F 8x)",
            ))
        }
        0xff => {
            let m = parse_modrm(&mut r, rex)?;
            if m.reg & 7 != 2 {
                return Err(DecodeError::new(
                    "FF group: only /2 (call r/m) is supported",
                ));
            }
            let reg = expect_reg(m.rm, "indirect call")?;
            Inst::CallInd { reg }
        }
        0xc3 => Inst::Ret,
        0x63 => {
            if !rex_w {
                return Err(DecodeError::new(
                    "movsxd without REX.W is outside the subset",
                ));
            }
            let m = parse_modrm(&mut r, rex)?;
            Inst::MovSx {
                from: OpWidth::B32,
                dst: Gpr(m.reg),
                src: m.rm,
            }
        }
        0x0f => {
            let second = r.u8()?;
            match second {
                0xaf => {
                    if !rex_w {
                        return Err(DecodeError::new("32-bit imul is outside the subset"));
                    }
                    let m = parse_modrm(&mut r, rex)?;
                    match m.rm {
                        Rm::Reg(src) => Inst::AluRR {
                            op: Alu::Mul,
                            dst: Gpr(m.reg),
                            src,
                        },
                        Rm::Mem(mem) => Inst::AluRM {
                            op: Alu::Mul,
                            dst: Gpr(m.reg),
                            mem,
                        },
                    }
                }
                0xb6 | 0xb7 => {
                    if !rex_w {
                        return Err(DecodeError::new(
                            "movzx without REX.W is outside the subset",
                        ));
                    }
                    let m = parse_modrm(&mut r, rex)?;
                    Inst::MovZx {
                        from: if second == 0xb6 {
                            OpWidth::B8
                        } else {
                            OpWidth::B16
                        },
                        dst: Gpr(m.reg),
                        src: m.rm,
                    }
                }
                0xbe | 0xbf => {
                    if !rex_w {
                        return Err(DecodeError::new(
                            "movsx without REX.W is outside the subset",
                        ));
                    }
                    let m = parse_modrm(&mut r, rex)?;
                    Inst::MovSx {
                        from: if second == 0xbe {
                            OpWidth::B8
                        } else {
                            OpWidth::B16
                        },
                        dst: Gpr(m.reg),
                        src: m.rm,
                    }
                }
                0x80..=0x8f => {
                    let cc = cc_from_number(second & 0x0f)?;
                    Inst::Jcc { cc, rel: r.i32()? }
                }
                _ => {
                    return Err(DecodeError::new(format!(
                        "opcode 0F {second:02X} is outside the subset"
                    )))
                }
            }
        }
        _ => {
            return Err(DecodeError::new(format!(
                "opcode {opcode:02X} is outside the subset"
            )))
        }
    };

    let len = r.pos;
    // Canonical-form check: the bytes must be exactly what we would emit.
    let canonical = encode_to_vec(&inst);
    if canonical != bytes[..len] {
        return Err(DecodeError::new(format!(
            "non-canonical encoding of `{inst}`"
        )));
    }
    // A REX prefix that survived the byte comparison is canonical by
    // definition; `has_rex` exists so truncation can't hide a dangling REX.
    let _ = has_rex;
    Ok((inst, len))
}

/// Decodes a complete instruction stream; `start` offsets errors for
/// reporting.
///
/// # Errors
///
/// Returns the first [`DecodeError`] with its byte offset prepended.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<(Inst, usize, usize)>, DecodeError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (inst, len) = decode_one(&bytes[pos..])
            .map_err(|e| DecodeError::new(format!("at byte {pos}: {}", e.message)))?;
        out.push((inst, pos, len));
        pos += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_to_vec;
    use crate::inst::Shift;

    fn roundtrip(inst: Inst) {
        let bytes = encode_to_vec(&inst);
        let (decoded, len) = decode_one(&bytes).unwrap_or_else(|e| panic!("{inst}: {e}"));
        assert_eq!(len, bytes.len(), "{inst}");
        assert_eq!(decoded, inst, "{inst}");
    }

    #[test]
    fn encode_decode_roundtrip_across_forms() {
        let mems = [
            Mem::Base {
                base: Gpr::RAX,
                disp: 0,
            },
            Mem::Base {
                base: Gpr::RBP,
                disp: -24,
            },
            Mem::Base {
                base: Gpr::RSP,
                disp: 8,
            },
            Mem::Base {
                base: Gpr::R13,
                disp: 0,
            },
            Mem::Base {
                base: Gpr::R12,
                disp: 400,
            },
            Mem::BaseIndex {
                base: Gpr::RBX,
                index: Gpr::RCX,
                scale: 8,
                disp: 16,
            },
            Mem::BaseIndex {
                base: Gpr::R9,
                index: Gpr::R12,
                scale: 4,
                disp: -4,
            },
            Mem::Rip { disp: 0x1234 },
        ];
        for mem in mems {
            roundtrip(Inst::MovLoad {
                w: OpWidth::B64,
                dst: Gpr::RDX,
                mem,
            });
            roundtrip(Inst::MovStore {
                w: OpWidth::B8,
                mem,
                src: Gpr::RSI,
            });
            roundtrip(Inst::MovStoreImm {
                w: OpWidth::B32,
                mem,
                imm: -7,
            });
            roundtrip(Inst::Lea { dst: Gpr::R15, mem });
            roundtrip(Inst::AluRM {
                op: Alu::Mul,
                dst: Gpr::RAX,
                mem,
            });
            roundtrip(Inst::MovZx {
                from: OpWidth::B16,
                dst: Gpr::RCX,
                src: Rm::Mem(mem),
            });
        }
        for op in [
            Alu::Add,
            Alu::Sub,
            Alu::And,
            Alu::Or,
            Alu::Xor,
            Alu::Cmp,
            Alu::Mul,
        ] {
            roundtrip(Inst::AluRR {
                op,
                dst: Gpr::R11,
                src: Gpr::RDI,
            });
            roundtrip(Inst::AluRI {
                op,
                dst: Gpr::RBX,
                imm: 1000,
            });
            roundtrip(Inst::AluRI {
                op,
                dst: Gpr::RBX,
                imm: -1,
            });
        }
        roundtrip(Inst::MovRI {
            dst: Gpr::R8,
            imm: i64::MAX,
        });
        roundtrip(Inst::MovRI {
            dst: Gpr::R8,
            imm: -1,
        });
        roundtrip(Inst::TestRR {
            a: Gpr::RAX,
            b: Gpr::RAX,
        });
        roundtrip(Inst::ShiftRI {
            sh: Shift::Shl,
            dst: Gpr::RSI,
            amt: 3,
        });
        roundtrip(Inst::ShiftRI {
            sh: Shift::Shr,
            dst: Gpr::R14,
            amt: 63,
        });
        roundtrip(Inst::Push { reg: Gpr::RBP });
        roundtrip(Inst::Pop { reg: Gpr::R15 });
        roundtrip(Inst::Jcc {
            cc: Cc::Le,
            rel: -128,
        });
        roundtrip(Inst::Jmp { rel: 5 });
        roundtrip(Inst::Call { rel: -1000 });
        roundtrip(Inst::CallInd { reg: Gpr::R10 });
        roundtrip(Inst::Ret);
        roundtrip(Inst::MovSx {
            from: OpWidth::B32,
            dst: Gpr::RAX,
            src: Rm::Reg(Gpr::RDI),
        });
        roundtrip(Inst::MovZx {
            from: OpWidth::B8,
            dst: Gpr::RAX,
            src: Rm::Reg(Gpr::RSI),
        });
    }

    #[test]
    fn non_canonical_encodings_are_rejected() {
        // 8B with mod=11 (mov rax, rbx via RM form) — canonical is 89.
        assert!(decode_one(&[0x48, 0x8b, 0xc3]).is_err());
        // Redundant REX (0x40) on a plain ret-adjacent op: 40 89 D8.
        assert!(decode_one(&[0x40, 0x89, 0xd8]).is_err());
        // disp32 where disp8 fits: mov rax, [rbx+1] with mod=10.
        assert!(decode_one(&[0x48, 0x8b, 0x83, 0x01, 0x00, 0x00, 0x00]).is_err());
        // 81 /0 with an imm that fits i8 — canonical is 83.
        assert!(decode_one(&[0x48, 0x81, 0xc0, 0x01, 0x00, 0x00, 0x00]).is_err());
        // B8+r imm64 holding a value that fits i32 — canonical is C7.
        let mut b = vec![0x48, 0xb8];
        b.extend_from_slice(&1i64.to_le_bytes());
        assert!(decode_one(&b).is_err());
    }

    #[test]
    fn out_of_subset_opcodes_error() {
        assert!(decode_one(&[0x90]).is_err()); // nop
        assert!(decode_one(&[0xeb, 0x02]).is_err()); // rel8 jmp
        assert!(decode_one(&[0x74, 0x02]).is_err()); // rel8 je
        assert!(decode_one(&[0x0f, 0x05]).is_err()); // syscall
        assert!(decode_one(&[]).is_err()); // empty
        assert!(decode_one(&[0x48]).is_err()); // dangling REX
        assert!(decode_one(&[0x48, 0x8b]).is_err()); // truncated modrm
    }

    #[test]
    fn every_truncation_of_a_valid_encoding_fails() {
        let insts = [
            Inst::MovRI {
                dst: Gpr::RAX,
                imm: 123456789,
            },
            Inst::MovLoad {
                w: OpWidth::B64,
                dst: Gpr::RAX,
                mem: Mem::Base {
                    base: Gpr::RSP,
                    disp: 1000,
                },
            },
            Inst::Jcc {
                cc: Cc::Ne,
                rel: 77,
            },
        ];
        for inst in insts {
            let bytes = encode_to_vec(&inst);
            for cut in 0..bytes.len() {
                assert!(decode_one(&bytes[..cut]).is_err(), "{inst} cut at {cut}");
            }
        }
    }
}
