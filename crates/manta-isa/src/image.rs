//! The SBF ("simulated binary format") container.
//!
//! An [`Image`] is the in-memory form of a whole program: external
//! declarations, global regions, and functions with their machine code.
//! [`encode`]/[`decode`] serialize it to/from bytes — the artifact a
//! "stripped binary" is in this reproduction. Function and global *names*
//! are carried for evaluation bookkeeping (the ground-truth oracle keys on
//! them), mirroring the paper keeping `.debug_line` only to score results;
//! the lifter and analyses never consume types from the image because the
//! format has none.

use std::fmt;

use manta_ir::{BinOp, CmpPred, Width};

use crate::inst::{MachInst, Reg};

/// Magic bytes identifying an SBF image.
pub const MAGIC: &[u8; 4] = b"SBF1";

/// An external declaration in an image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageExtern {
    /// Symbol name.
    pub name: String,
    /// Parameter count (ABI-visible).
    pub nparams: u8,
    /// Whether a value is returned.
    pub has_ret: bool,
}

/// A global region in an image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageGlobal {
    /// Symbol name.
    pub name: String,
    /// Region size in bytes.
    pub size: u64,
}

/// A function in an image.
#[derive(Clone, PartialEq, Debug)]
pub struct ImageFunction {
    /// Symbol name.
    pub name: String,
    /// Number of register parameters (`r1..`).
    pub nparams: u8,
    /// Whether the function returns a value in `r0`.
    pub has_ret: bool,
    /// Machine code.
    pub code: Vec<MachInst>,
}

/// A whole SB-ISA program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Image {
    /// Program name.
    pub name: String,
    /// External declarations.
    pub externs: Vec<ImageExtern>,
    /// Globals.
    pub globals: Vec<ImageGlobal>,
    /// Functions.
    pub functions: Vec<ImageFunction>,
}

impl Image {
    /// Total instruction count.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

/// Decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SBF image: {}", self.message)
    }
}

impl std::error::Error for ImageError {}

fn err<T>(message: impl Into<String>) -> Result<T, ImageError> {
    Err(ImageError {
        message: message.into(),
    })
}

/// Serializes `image` to bytes.
pub fn encode(image: &Image) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    put_str(&mut buf, &image.name);
    buf.put_u32_le(image.externs.len() as u32);
    for e in &image.externs {
        put_str(&mut buf, &e.name);
        buf.put_u8(e.nparams);
        buf.put_u8(e.has_ret as u8);
    }
    buf.put_u32_le(image.globals.len() as u32);
    for g in &image.globals {
        put_str(&mut buf, &g.name);
        buf.put_u64_le(g.size);
    }
    buf.put_u32_le(image.functions.len() as u32);
    for f in &image.functions {
        put_str(&mut buf, &f.name);
        buf.put_u8(f.nparams);
        buf.put_u8(f.has_ret as u8);
        buf.put_u32_le(f.code.len() as u32);
        for inst in &f.code {
            encode_inst(&mut buf, inst);
        }
    }
    buf
}

/// The little subset of `bytes::BufMut` the encoder needs, implemented on
/// `Vec<u8>` so the format needs no external crate.
trait PutLe {
    fn put_slice(&mut self, s: &[u8]);
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    fn put_f64_le(&mut self, v: f64);
}

impl PutLe for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Deserializes an image from bytes.
///
/// # Errors
///
/// Returns [`ImageError`] for truncated or malformed input.
pub fn decode(mut bytes: &[u8]) -> Result<Image, ImageError> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return err("bad magic");
    }
    bytes = &bytes[4..];
    let name = get_str(&mut bytes)?;
    let mut image = Image {
        name,
        ..Default::default()
    };
    let n_ext = get_u32(&mut bytes)? as usize;
    for _ in 0..n_ext {
        let name = get_str(&mut bytes)?;
        let nparams = get_u8(&mut bytes)?;
        let has_ret = get_u8(&mut bytes)? != 0;
        image.externs.push(ImageExtern {
            name,
            nparams,
            has_ret,
        });
    }
    let n_glob = get_u32(&mut bytes)? as usize;
    for _ in 0..n_glob {
        let name = get_str(&mut bytes)?;
        let size = get_u64(&mut bytes)?;
        image.globals.push(ImageGlobal { name, size });
    }
    let n_fn = get_u32(&mut bytes)? as usize;
    for _ in 0..n_fn {
        let name = get_str(&mut bytes)?;
        let nparams = get_u8(&mut bytes)?;
        let has_ret = get_u8(&mut bytes)? != 0;
        let n_code = get_u32(&mut bytes)? as usize;
        // The count is untrusted; every instruction takes at least a byte.
        let mut code = Vec::with_capacity(n_code.min(bytes.len()));
        for _ in 0..n_code {
            code.push(decode_inst(&mut bytes)?);
        }
        image.functions.push(ImageFunction {
            name,
            nparams,
            has_ret,
            code,
        });
    }
    Ok(image)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(bytes: &mut &[u8]) -> Result<String, ImageError> {
    let len = get_u16(bytes)? as usize;
    if bytes.len() < len {
        return err("truncated string");
    }
    let s = String::from_utf8(bytes[..len].to_vec()).map_err(|_| ImageError {
        message: "non-utf8 string".into(),
    })?;
    *bytes = &bytes[len..];
    Ok(s)
}

macro_rules! getter {
    ($name:ident, $ty:ty, $size:expr) => {
        fn $name(bytes: &mut &[u8]) -> Result<$ty, ImageError> {
            let Some((head, rest)) = bytes.split_first_chunk::<$size>() else {
                return err("truncated input");
            };
            let v = <$ty>::from_le_bytes(*head);
            *bytes = rest;
            Ok(v)
        }
    };
}
getter!(get_u8, u8, 1);
getter!(get_u16, u16, 2);
getter!(get_u32, u32, 4);
getter!(get_u64, u64, 8);

fn width_code(w: Width) -> u8 {
    match w {
        Width::W1 => 0,
        Width::W8 => 1,
        Width::W16 => 2,
        Width::W32 => 3,
        Width::W64 => 4,
    }
}

fn width_from(code: u8) -> Result<Width, ImageError> {
    Ok(match code {
        0 => Width::W1,
        1 => Width::W8,
        2 => Width::W16,
        3 => Width::W32,
        4 => Width::W64,
        other => return err(format!("bad width code {other}")),
    })
}

fn binop_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
    }
}

fn binop_from(code: u8) -> Result<BinOp, ImageError> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        other => return err(format!("bad binop code {other}")),
    })
}

fn pred_code(p: CmpPred) -> u8 {
    match p {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::Lt => 2,
        CmpPred::Le => 3,
        CmpPred::Gt => 4,
        CmpPred::Ge => 5,
    }
}

fn pred_from(code: u8) -> Result<CmpPred, ImageError> {
    Ok(match code {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::Lt,
        3 => CmpPred::Le,
        4 => CmpPred::Gt,
        5 => CmpPred::Ge,
        other => return err(format!("bad predicate code {other}")),
    })
}

fn encode_inst(buf: &mut Vec<u8>, inst: &MachInst) {
    match inst {
        MachInst::Mov { rd, rs } => {
            buf.put_u8(0);
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
        }
        MachInst::MovImm { rd, imm } => {
            buf.put_u8(1);
            buf.put_u8(rd.0);
            buf.put_i64_le(*imm);
        }
        MachInst::MovFloat { rd, imm } => {
            buf.put_u8(2);
            buf.put_u8(rd.0);
            buf.put_f64_le(*imm);
        }
        MachInst::Bin { op, rd, rs, rt } => {
            buf.put_u8(3);
            buf.put_u8(binop_code(*op));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u8(rt.0);
        }
        MachInst::Cmp { pred, rd, rs, rt } => {
            buf.put_u8(4);
            buf.put_u8(pred_code(*pred));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u8(rt.0);
        }
        MachInst::Load { width, rd, rs, off } => {
            buf.put_u8(5);
            buf.put_u8(width_code(*width));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u32_le(*off);
        }
        MachInst::Store { width, rd, off, rs } => {
            buf.put_u8(6);
            buf.put_u8(width_code(*width));
            buf.put_u8(rd.0);
            buf.put_u32_le(*off);
            buf.put_u8(rs.0);
        }
        MachInst::Salloc { rd, size } => {
            buf.put_u8(7);
            buf.put_u8(rd.0);
            buf.put_u32_le(*size);
        }
        MachInst::LeaGlobal { rd, index } => {
            buf.put_u8(8);
            buf.put_u8(rd.0);
            buf.put_u32_le(*index);
        }
        MachInst::LeaFunc { rd, index } => {
            buf.put_u8(9);
            buf.put_u8(rd.0);
            buf.put_u32_le(*index);
        }
        MachInst::Call { index, nargs } => {
            buf.put_u8(10);
            buf.put_u32_le(*index);
            buf.put_u8(*nargs);
        }
        MachInst::ECall { index, nargs } => {
            buf.put_u8(11);
            buf.put_u32_le(*index);
            buf.put_u8(*nargs);
        }
        MachInst::ICall { rs, nargs, ret } => {
            buf.put_u8(12);
            buf.put_u8(rs.0);
            buf.put_u8(*nargs);
            buf.put_u8(*ret as u8);
        }
        MachInst::Jmp { target } => {
            buf.put_u8(13);
            buf.put_u32_le(*target);
        }
        MachInst::Brz { rs, target } => {
            buf.put_u8(14);
            buf.put_u8(rs.0);
            buf.put_u32_le(*target);
        }
        MachInst::Ret => buf.put_u8(15),
    }
}

fn decode_inst(bytes: &mut &[u8]) -> Result<MachInst, ImageError> {
    let opcode = get_u8(bytes)?;
    Ok(match opcode {
        0 => MachInst::Mov {
            rd: reg(get_u8(bytes)?)?,
            rs: reg(get_u8(bytes)?)?,
        },
        1 => MachInst::MovImm {
            rd: reg(get_u8(bytes)?)?,
            imm: get_u64(bytes)? as i64,
        },
        2 => MachInst::MovFloat {
            rd: reg(get_u8(bytes)?)?,
            imm: f64::from_bits(get_u64(bytes)?),
        },
        3 => MachInst::Bin {
            op: binop_from(get_u8(bytes)?)?,
            rd: reg(get_u8(bytes)?)?,
            rs: reg(get_u8(bytes)?)?,
            rt: reg(get_u8(bytes)?)?,
        },
        4 => MachInst::Cmp {
            pred: pred_from(get_u8(bytes)?)?,
            rd: reg(get_u8(bytes)?)?,
            rs: reg(get_u8(bytes)?)?,
            rt: reg(get_u8(bytes)?)?,
        },
        5 => MachInst::Load {
            width: width_from(get_u8(bytes)?)?,
            rd: reg(get_u8(bytes)?)?,
            rs: reg(get_u8(bytes)?)?,
            off: get_u32(bytes)?,
        },
        6 => MachInst::Store {
            width: width_from(get_u8(bytes)?)?,
            rd: reg(get_u8(bytes)?)?,
            off: get_u32(bytes)?,
            rs: reg(get_u8(bytes)?)?,
        },
        7 => MachInst::Salloc {
            rd: reg(get_u8(bytes)?)?,
            size: get_u32(bytes)?,
        },
        8 => MachInst::LeaGlobal {
            rd: reg(get_u8(bytes)?)?,
            index: get_u32(bytes)?,
        },
        9 => MachInst::LeaFunc {
            rd: reg(get_u8(bytes)?)?,
            index: get_u32(bytes)?,
        },
        10 => MachInst::Call {
            index: get_u32(bytes)?,
            nargs: get_u8(bytes)?,
        },
        11 => MachInst::ECall {
            index: get_u32(bytes)?,
            nargs: get_u8(bytes)?,
        },
        12 => MachInst::ICall {
            rs: reg(get_u8(bytes)?)?,
            nargs: get_u8(bytes)?,
            ret: get_u8(bytes)? != 0,
        },
        13 => MachInst::Jmp {
            target: get_u32(bytes)?,
        },
        14 => MachInst::Brz {
            rs: reg(get_u8(bytes)?)?,
            target: get_u32(bytes)?,
        },
        15 => MachInst::Ret,
        other => return err(format!("bad opcode {other}")),
    })
}

fn reg(code: u8) -> Result<Reg, ImageError> {
    if (code as usize) < Reg::COUNT {
        Ok(Reg(code))
    } else {
        err(format!("bad register r{code}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        Image {
            name: "sample".into(),
            externs: vec![ImageExtern {
                name: "malloc".into(),
                nparams: 1,
                has_ret: true,
            }],
            globals: vec![ImageGlobal {
                name: "tbl".into(),
                size: 64,
            }],
            functions: vec![ImageFunction {
                name: "f".into(),
                nparams: 1,
                has_ret: true,
                code: vec![
                    MachInst::MovImm {
                        rd: Reg(2),
                        imm: -5,
                    },
                    MachInst::Bin {
                        op: BinOp::Add,
                        rd: Reg(0),
                        rs: Reg(1),
                        rt: Reg(2),
                    },
                    MachInst::MovFloat {
                        rd: Reg(3),
                        imm: 1.5,
                    },
                    MachInst::Load {
                        width: Width::W32,
                        rd: Reg(4),
                        rs: Reg(0),
                        off: 12,
                    },
                    MachInst::Store {
                        width: Width::W64,
                        rd: Reg(0),
                        off: 4,
                        rs: Reg(4),
                    },
                    MachInst::Brz {
                        rs: Reg(4),
                        target: 7,
                    },
                    MachInst::Call { index: 0, nargs: 1 },
                    MachInst::Ret,
                ],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = encode(&img);
        let back = decode(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let e = decode(b"XXXX").unwrap_err();
        assert!(e.message.contains("magic"));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_an_instruction_count_past_the_input() {
        // A 31-byte header claiming 2^32 - 1 instructions must fail as
        // truncated, without reserving room for them.
        let mut bytes = Vec::new();
        bytes.put_slice(MAGIC);
        put_str(&mut bytes, "huge");
        bytes.put_u32_le(0); // externs
        bytes.put_u32_le(0); // globals
        bytes.put_u32_le(1); // one function
        put_str(&mut bytes, "f");
        bytes.put_u8(0);
        bytes.put_u8(0);
        bytes.put_u32_le(u32::MAX);
        assert_eq!(bytes.len(), 31);
        let e = decode(&bytes).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    #[test]
    fn rejects_bad_register() {
        let mut bytes = Vec::new();
        bytes.put_slice(MAGIC);
        put_str(&mut bytes, "m");
        bytes.put_u32_le(0); // externs
        bytes.put_u32_le(0); // globals
        bytes.put_u32_le(1); // one function
        put_str(&mut bytes, "f");
        bytes.put_u8(0);
        bytes.put_u8(0);
        bytes.put_u32_le(1);
        bytes.put_u8(0); // mov
        bytes.put_u8(99); // bad register
        bytes.put_u8(0);
        let e = decode(&bytes).unwrap_err();
        assert!(e.message.contains("register"));
    }
}
