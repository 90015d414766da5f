//! The XLF ("x86 linked format") container — an ELF-subset image.
//!
//! An [`Image`] holds a whole x86-64 program the way a stripped ELF binary
//! would: a raw `.text` byte blob, a function table (symbol, entry offset,
//! length), PLT stubs for external calls, and a data segment of globals.
//! Function and global *names* are carried for evaluation bookkeeping only
//! (the ground-truth oracle keys on them); the lifter never consumes types
//! from the image because the format has none.
//!
//! The address-space layout is fixed, mirroring a small non-PIE executable:
//!
//! | segment | base           | contents                          |
//! |---------|----------------|-----------------------------------|
//! | PLT     | `0x40_0000`    | one 16-byte stub slot per extern  |
//! | text    | `0x40_1000`    | function bodies, 16-byte aligned  |
//! | data    | `0x60_0000`    | globals, 8-byte aligned           |
//!
//! [`ImageBuilder`] is the linker layer: it lays out functions, resolves
//! labels and inter-function/extern/global references in [`SymInst`] streams
//! to rel32 displacements, and produces the final byte image. Both the
//! line-oriented assembler (`asm`) and the workloads emitter sit on top of
//! it.

use std::collections::HashMap;
use std::fmt;

use crate::encode::{encode, encoded_len};
use crate::inst::{Cc, Gpr, Inst, Mem};

/// Magic bytes identifying an XLF image (the ELF ident prefix).
pub const MAGIC: &[u8; 4] = b"\x7fELF";
/// ELF ident continuation: 64-bit, little-endian, version 1, SysV ABI.
const IDENT_TAIL: [u8; 4] = [2, 1, 1, 0];
/// `e_machine` for x86-64.
const EM_X86_64: u16 = 0x3e;

/// Base virtual address of the PLT; stub `i` sits at `PLT_BASE + 16 * i`.
pub const PLT_BASE: u64 = 0x40_0000;
/// Size of one PLT stub slot.
pub const PLT_STUB_SIZE: u64 = 16;
/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x40_1000;
/// Base virtual address of the data segment (globals).
pub const DATA_BASE: u64 = 0x60_0000;

/// An external declaration — one PLT stub.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageExtern {
    /// Symbol name.
    pub name: String,
    /// Parameter count (ABI-visible).
    pub nparams: u8,
    /// Whether a value is returned in `rax`.
    pub has_ret: bool,
}

/// A global region in the data segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageGlobal {
    /// Symbol name.
    pub name: String,
    /// Region size in bytes.
    pub size: u64,
}

/// A function table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageFunction {
    /// Symbol name.
    pub name: String,
    /// Number of SysV register parameters (`rdi`, `rsi`, ...).
    pub nparams: u8,
    /// Whether the function returns a value in `rax`.
    pub has_ret: bool,
    /// Entry offset into the text blob.
    pub offset: u32,
    /// Body length in bytes.
    pub len: u32,
}

/// A whole x86-64 program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Image {
    /// Program name.
    pub name: String,
    /// External declarations, in PLT order.
    pub externs: Vec<ImageExtern>,
    /// Globals, in data-segment order.
    pub globals: Vec<ImageGlobal>,
    /// Function table.
    pub functions: Vec<ImageFunction>,
    /// The text segment bytes (functions plus `0xCC` alignment padding).
    pub text: Vec<u8>,
}

impl Image {
    /// Virtual address of function `i`'s entry.
    pub fn func_addr(&self, i: usize) -> u64 {
        TEXT_BASE + self.functions[i].offset as u64
    }

    /// Virtual address of extern `i`'s PLT stub.
    pub fn plt_addr(&self, i: usize) -> u64 {
        PLT_BASE + PLT_STUB_SIZE * i as u64
    }

    /// The image's address lookups: its function entries and its data
    /// layout (globals 8-byte aligned from [`DATA_BASE`]).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] when the globals' sizes overflow the 64-bit
    /// address space; the sizes come from the image, so they are
    /// untrusted.
    pub(crate) fn addresses(&self) -> Result<Addresses, ImageError> {
        let mut entries: Vec<(u64, usize)> = (0..self.functions.len())
            .map(|i| (self.func_addr(i), i))
            .collect();
        entries.sort_unstable();
        let overflow = || ImageError {
            message: "global data overflows the 64-bit address space".into(),
        };
        let mut globals = Vec::with_capacity(self.globals.len());
        let mut base = DATA_BASE;
        for g in &self.globals {
            // A zero-size global still spans the byte at its base.
            let end = base.checked_add(g.size.max(1)).ok_or_else(overflow)?;
            globals.push((base, end));
            let aligned = g.size.checked_add(7).ok_or_else(overflow)? & !7;
            base = base.checked_add(aligned).ok_or_else(overflow)?;
        }
        Ok(Addresses { entries, globals })
    }

    /// Extern index whose PLT stub starts at `addr`, if any.
    pub fn plt_at_addr(&self, addr: u64) -> Option<usize> {
        if addr < PLT_BASE || !addr.is_multiple_of(PLT_STUB_SIZE) {
            return None;
        }
        let i = ((addr - PLT_BASE) / PLT_STUB_SIZE) as usize;
        (i < self.externs.len()).then_some(i)
    }

    /// Total text size in bytes.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }
}

/// An image's function entries and data layout, computed once
/// ([`Image::addresses`]) so that resolving a call or a RIP reference is
/// a binary search. Where several symbols claim an address — functions
/// whose entry offsets repeat, zero-size globals sharing a base — the
/// first in image order wins.
#[derive(Clone, Debug)]
pub(crate) struct Addresses {
    /// `(entry address, function index)`, ascending.
    entries: Vec<(u64, usize)>,
    /// Each global's `[base, end)`, in data-segment order. Bases never
    /// decrease, and only globals sharing a base overlap: every global
    /// but the last at a base has size zero and spans just its base.
    globals: Vec<(u64, u64)>,
}

impl Addresses {
    /// Function index whose *entry* is at `addr`, if any.
    pub(crate) fn func_at(&self, addr: u64) -> Option<usize> {
        let k = self.entries.partition_point(|&(a, _)| a < addr);
        self.entries
            .get(k)
            .filter(|&&(a, _)| a == addr)
            .map(|&(_, i)| i)
    }

    /// Virtual address of global `i`.
    pub(crate) fn global_addr(&self, i: usize) -> u64 {
        self.globals[i].0
    }

    /// Global index containing `addr`, with the offset into the region.
    pub(crate) fn global_at(&self, addr: u64) -> Option<(usize, u64)> {
        let last = self
            .globals
            .partition_point(|&(base, _)| base <= addr)
            .checked_sub(1)?;
        let (base, end) = self.globals[last];
        if addr == base {
            // Every global at this base spans it; the first wins.
            let first = self.globals.partition_point(|&(b, _)| b < base);
            return Some((first, 0));
        }
        (addr < end).then_some((last, addr - base))
    }
}

/// Image encoding/decoding or linking failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XLF image: {}", self.message)
    }
}

impl std::error::Error for ImageError {}

fn err<T>(message: impl Into<String>) -> Result<T, ImageError> {
    Err(ImageError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Serializes `image` to bytes.
pub fn encode_image(image: &Image) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&IDENT_TAIL);
    buf.extend_from_slice(&EM_X86_64.to_le_bytes());
    put_str(&mut buf, &image.name);
    buf.extend_from_slice(&(image.externs.len() as u32).to_le_bytes());
    for e in &image.externs {
        put_str(&mut buf, &e.name);
        buf.push(e.nparams);
        buf.push(e.has_ret as u8);
    }
    buf.extend_from_slice(&(image.globals.len() as u32).to_le_bytes());
    for g in &image.globals {
        put_str(&mut buf, &g.name);
        buf.extend_from_slice(&g.size.to_le_bytes());
    }
    buf.extend_from_slice(&(image.functions.len() as u32).to_le_bytes());
    for f in &image.functions {
        put_str(&mut buf, &f.name);
        buf.push(f.nparams);
        buf.push(f.has_ret as u8);
        buf.extend_from_slice(&f.offset.to_le_bytes());
        buf.extend_from_slice(&f.len.to_le_bytes());
    }
    buf.extend_from_slice(&(image.text.len() as u32).to_le_bytes());
    buf.extend_from_slice(&image.text);
    buf
}

/// Deserializes an image from bytes.
///
/// # Errors
///
/// Returns [`ImageError`] for truncated or malformed input, including
/// function table entries that point outside the text blob.
pub fn decode_image(mut bytes: &[u8]) -> Result<Image, ImageError> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return err("bad magic");
    }
    bytes = &bytes[4..];
    let Some((ident, rest)) = bytes.split_first_chunk::<4>() else {
        return err("truncated ident");
    };
    if *ident != IDENT_TAIL {
        return err("unsupported ELF class/data/version");
    }
    bytes = rest;
    if get_u16(&mut bytes)? != EM_X86_64 {
        return err("unsupported machine (want x86-64)");
    }
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
        let offset = get_u32(&mut bytes)?;
        let len = get_u32(&mut bytes)?;
        image.functions.push(ImageFunction {
            name,
            nparams,
            has_ret,
            offset,
            len,
        });
    }
    let text_len = get_u32(&mut bytes)? as usize;
    if bytes.len() < text_len {
        return err("truncated text segment");
    }
    image.text = bytes[..text_len].to_vec();
    for f in &image.functions {
        let end = f.offset as u64 + f.len as u64;
        if end > image.text.len() as u64 {
            return err(format!(
                "function `{}` extends past the text segment",
                f.name
            ));
        }
    }
    Ok(image)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
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

// ---------------------------------------------------------------------------
// Linker layer
// ---------------------------------------------------------------------------

/// An instruction with possibly-symbolic operands, resolved by
/// [`ImageBuilder::build`]. All symbolic control-flow forms lower to fixed
/// rel32 encodings, so layout is single-pass.
#[derive(Clone, PartialEq, Debug)]
pub enum SymInst {
    /// A fully concrete instruction.
    Real(Inst),
    /// A label binding to the next instruction's address. Emits nothing.
    Label(String),
    /// `jmp <label>` within the function.
    JmpLabel(String),
    /// `j<cc> <label>` within the function.
    JccLabel(Cc, String),
    /// `call <function>` by name.
    CallFunc(String),
    /// `call <extern>` through its PLT stub.
    CallExtern(String),
    /// `lea <reg>, [rip + <function>]` — takes a function's address.
    LeaFunc(Gpr, String),
    /// `lea <reg>, [rip + <global>]` — takes a global's address.
    LeaGlobal(Gpr, String),
}

impl SymInst {
    /// Encoded length in bytes (labels are zero-sized).
    fn len(&self) -> usize {
        match self {
            SymInst::Real(inst) => encoded_len(inst),
            SymInst::Label(_) => 0,
            SymInst::JmpLabel(_) => 5,                          // E9 rel32
            SymInst::JccLabel(..) => 6,                         // 0F 8x rel32
            SymInst::CallFunc(_) | SymInst::CallExtern(_) => 5, // E8 rel32
            SymInst::LeaFunc(..) | SymInst::LeaGlobal(..) => 7, // REX.W 8D rip rel32
        }
    }
}

/// A function body awaiting layout.
struct PendingFunction {
    name: String,
    nparams: u8,
    has_ret: bool,
    body: Vec<SymInst>,
}

/// Builds an [`Image`] from symbolic function bodies, resolving labels and
/// cross-references to concrete rel32 displacements.
#[derive(Default)]
pub struct ImageBuilder {
    name: String,
    externs: Vec<ImageExtern>,
    globals: Vec<ImageGlobal>,
    funcs: Vec<PendingFunction>,
}

impl ImageBuilder {
    /// Starts a builder for a program called `name`.
    pub fn new(name: impl Into<String>) -> ImageBuilder {
        ImageBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an external symbol; allocates the next PLT stub.
    pub fn declare_extern(&mut self, name: impl Into<String>, nparams: u8, has_ret: bool) {
        self.externs.push(ImageExtern {
            name: name.into(),
            nparams,
            has_ret,
        });
    }

    /// Declares a global region in the data segment.
    pub fn declare_global(&mut self, name: impl Into<String>, size: u64) {
        self.globals.push(ImageGlobal {
            name: name.into(),
            size,
        });
    }

    /// Adds a function body.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        nparams: u8,
        has_ret: bool,
        body: Vec<SymInst>,
    ) {
        self.funcs.push(PendingFunction {
            name: name.into(),
            nparams,
            has_ret,
            body,
        });
    }

    /// Lays out the text segment and resolves every symbolic reference.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] for undefined labels, functions, externs or
    /// globals, duplicate labels within a function, and globals whose
    /// sizes overflow the address space.
    pub fn build(self) -> Result<Image, ImageError> {
        // Pass 1: function entry offsets (16-byte aligned) and body lengths.
        let mut offsets = Vec::with_capacity(self.funcs.len());
        let mut cursor: u32 = 0;
        for f in &self.funcs {
            cursor = (cursor + 15) & !15;
            offsets.push(cursor);
            let len: usize = f.body.iter().map(SymInst::len).sum();
            cursor += len as u32;
        }

        let func_index: HashMap<&str, usize> = self
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        let extern_index: HashMap<&str, usize> = self
            .externs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.as_str(), i))
            .collect();

        let data = Image {
            globals: self.globals.clone(),
            ..Image::default()
        }
        .addresses()?;
        let global_index: HashMap<&str, usize> = self
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.as_str(), i))
            .collect();

        // Pass 2: emit bytes with every reference resolved.
        let mut text: Vec<u8> = Vec::with_capacity(cursor as usize);
        let mut functions = Vec::with_capacity(self.funcs.len());
        for (fi, f) in self.funcs.iter().enumerate() {
            while text.len() < offsets[fi] as usize {
                text.push(0xcc); // int3 padding between functions
            }
            let func_base = TEXT_BASE + offsets[fi] as u64;

            // Local label offsets within the function body.
            let mut labels: HashMap<&str, u64> = HashMap::new();
            let mut local: u64 = 0;
            for si in &f.body {
                if let SymInst::Label(l) = si {
                    if labels.insert(l.as_str(), local).is_some() {
                        return err(format!("duplicate label `{l}` in function `{}`", f.name));
                    }
                } else {
                    local += si.len() as u64;
                }
            }
            let body_len = local;

            let rel32 = |target: u64, next_addr: u64| -> Result<i32, ImageError> {
                let delta = target as i64 - next_addr as i64;
                i32::try_from(delta).map_err(|_| ImageError {
                    message: format!("rel32 overflow reaching {target:#x}"),
                })
            };

            local = 0;
            for si in &f.body {
                let next_addr = func_base + local + si.len() as u64;
                match si {
                    SymInst::Real(inst) => encode(inst, &mut text),
                    SymInst::Label(_) => {}
                    SymInst::JmpLabel(l) | SymInst::JccLabel(_, l) => {
                        let target = func_base
                            + *labels.get(l.as_str()).ok_or_else(|| ImageError {
                                message: format!("undefined label `{l}` in function `{}`", f.name),
                            })?;
                        let rel = rel32(target, next_addr)?;
                        let inst = match si {
                            SymInst::JmpLabel(_) => Inst::Jmp { rel },
                            SymInst::JccLabel(cc, _) => Inst::Jcc { cc: *cc, rel },
                            _ => unreachable!(),
                        };
                        encode(&inst, &mut text);
                    }
                    SymInst::CallFunc(name) => {
                        let ti = *func_index.get(name.as_str()).ok_or_else(|| ImageError {
                            message: format!("call to undefined function `{name}`"),
                        })?;
                        let rel = rel32(TEXT_BASE + offsets[ti] as u64, next_addr)?;
                        encode(&Inst::Call { rel }, &mut text);
                    }
                    SymInst::CallExtern(name) => {
                        let ei = *extern_index.get(name.as_str()).ok_or_else(|| ImageError {
                            message: format!("call to undeclared extern `{name}`"),
                        })?;
                        let rel = rel32(PLT_BASE + PLT_STUB_SIZE * ei as u64, next_addr)?;
                        encode(&Inst::Call { rel }, &mut text);
                    }
                    SymInst::LeaFunc(dst, name) => {
                        let ti = *func_index.get(name.as_str()).ok_or_else(|| ImageError {
                            message: format!("lea of undefined function `{name}`"),
                        })?;
                        let disp = rel32(TEXT_BASE + offsets[ti] as u64, next_addr)?;
                        encode(
                            &Inst::Lea {
                                dst: *dst,
                                mem: Mem::Rip { disp },
                            },
                            &mut text,
                        );
                    }
                    SymInst::LeaGlobal(dst, name) => {
                        let gi = *global_index.get(name.as_str()).ok_or_else(|| ImageError {
                            message: format!("lea of undeclared global `{name}`"),
                        })?;
                        let disp = rel32(data.global_addr(gi), next_addr)?;
                        encode(
                            &Inst::Lea {
                                dst: *dst,
                                mem: Mem::Rip { disp },
                            },
                            &mut text,
                        );
                    }
                }
                local += si.len() as u64;
            }
            debug_assert_eq!(
                text.len(),
                offsets[fi] as usize + body_len as usize,
                "layout length drifted in `{}`",
                f.name
            );
            functions.push(ImageFunction {
                name: f.name.clone(),
                nparams: f.nparams,
                has_ret: f.has_ret,
                offset: offsets[fi],
                len: body_len as u32,
            });
        }

        Ok(Image {
            name: self.name,
            externs: self.externs,
            globals: self.globals,
            functions,
            text,
        })
    }
}

/// Resolves a RIP-relative displacement: `inst_end_offset` is the offset of
/// the byte after the instruction within function `func_index`.
pub fn rip_target(image: &Image, func_index: usize, inst_end_offset: u64, disp: i32) -> u64 {
    (TEXT_BASE + image.functions[func_index].offset as u64 + inst_end_offset)
        .wrapping_add(disp as i64 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::OpWidth;

    fn sample() -> Image {
        let mut b = ImageBuilder::new("sample");
        b.declare_extern("malloc", 1, true);
        b.declare_global("table", 64);
        b.function(
            "helper",
            1,
            true,
            vec![
                SymInst::Real(Inst::MovRR {
                    w: OpWidth::B64,
                    dst: Gpr::RAX,
                    src: Gpr::RDI,
                }),
                SymInst::Real(Inst::Ret),
            ],
        );
        b.function(
            "main",
            0,
            true,
            vec![
                SymInst::Real(Inst::MovRI {
                    dst: Gpr::RDI,
                    imm: 16,
                }),
                SymInst::CallExtern("malloc".into()),
                SymInst::Real(Inst::TestRR {
                    a: Gpr::RAX,
                    b: Gpr::RAX,
                }),
                SymInst::JccLabel(Cc::E, "out".into()),
                SymInst::Real(Inst::MovRR {
                    w: OpWidth::B64,
                    dst: Gpr::RDI,
                    src: Gpr::RAX,
                }),
                SymInst::CallFunc("helper".into()),
                SymInst::Label("out".into()),
                SymInst::LeaGlobal(Gpr::RSI, "table".into()),
                SymInst::Real(Inst::Ret),
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn codec_roundtrip() {
        let img = sample();
        let bytes = encode_image(&img);
        assert!(bytes.starts_with(MAGIC));
        let back = decode_image(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_image(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_image(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn functions_are_16_aligned_and_within_text() {
        let img = sample();
        for f in &img.functions {
            assert_eq!(f.offset % 16, 0, "{}", f.name);
            assert!((f.offset + f.len) as usize <= img.text.len());
        }
    }

    #[test]
    fn call_rel32_reaches_function_entry() {
        let img = sample();
        let main = &img.functions[1];
        let code = &img.text[main.offset as usize..(main.offset + main.len) as usize];
        // Find the second E8 (call helper; the first is call malloc@plt).
        let mut calls = Vec::new();
        let mut pos = 0;
        while pos < code.len() {
            let (inst, len) = crate::decode::decode_one(&code[pos..]).unwrap();
            if let Inst::Call { rel } = inst {
                let target = (TEXT_BASE + main.offset as u64 + pos as u64 + len as u64)
                    .wrapping_add(rel as i64 as u64);
                calls.push(target);
            }
            pos += len;
        }
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0], img.plt_addr(0));
        assert_eq!(calls[1], img.func_addr(0));
    }

    #[test]
    fn undefined_references_error() {
        let mut b = ImageBuilder::new("bad");
        b.function("f", 0, false, vec![SymInst::JmpLabel("nowhere".into())]);
        assert!(b.build().unwrap_err().message.contains("nowhere"));

        let mut b = ImageBuilder::new("bad2");
        b.function("f", 0, false, vec![SymInst::CallFunc("ghost".into())]);
        assert!(b.build().unwrap_err().message.contains("ghost"));
    }

    #[test]
    fn global_layout_is_8_aligned() {
        let mut b = ImageBuilder::new("g");
        b.declare_global("a", 3);
        b.declare_global("b", 16);
        b.function("f", 0, false, vec![SymInst::Real(Inst::Ret)]);
        let img = b.build().unwrap();
        let addrs = img.addresses().unwrap();
        assert_eq!(addrs.global_addr(0), DATA_BASE);
        assert_eq!(addrs.global_addr(1), DATA_BASE + 8);
        assert_eq!(addrs.global_at(DATA_BASE + 9), Some((1, 1)));
        // The padding after `a` belongs to no global.
        assert_eq!(addrs.global_at(DATA_BASE + 3), None);
    }

    /// The linear scans the lookups replace, on the unchecked layout.
    fn scanned(img: &Image, addr: u64) -> (Option<usize>, Option<(usize, u64)>) {
        let func = (0..img.functions.len()).find(|&i| img.func_addr(i) == addr);
        let mut base = DATA_BASE;
        let mut global = None;
        for (i, g) in img.globals.iter().enumerate() {
            if global.is_none() && addr >= base && addr < base + g.size.max(1) {
                global = Some((i, addr - base));
            }
            base += (g.size + 7) & !7;
        }
        (func, global)
    }

    #[test]
    fn lookups_match_a_scan_where_symbols_share_an_address() {
        let mut img = Image::default();
        for (name, size) in [("a", 0), ("b", 0), ("c", 5), ("d", 0), ("e", 16), ("f", 0)] {
            img.globals.push(ImageGlobal {
                name: name.into(),
                size,
            });
        }
        for (name, offset) in [("f0", 32), ("f1", 0), ("f2", 32), ("f3", 16), ("f4", 0)] {
            img.functions.push(ImageFunction {
                name: name.into(),
                nparams: 0,
                has_ret: false,
                offset,
                len: 0,
            });
        }
        let addrs = img.addresses().unwrap();
        for addr in (TEXT_BASE - 1..TEXT_BASE + 40).chain(DATA_BASE - 1..DATA_BASE + 40) {
            let (func, global) = scanned(&img, addr);
            assert_eq!(addrs.func_at(addr), func, "{addr:#x}");
            assert_eq!(addrs.global_at(addr), global, "{addr:#x}");
        }
    }

    #[test]
    fn globals_past_the_address_space_are_rejected() {
        let mut img = Image::default();
        for size in [1 << 63, 1 << 63, 8] {
            img.globals.push(ImageGlobal {
                name: "g".into(),
                size,
            });
        }
        let e = img
            .addresses()
            .expect_err("the third global's base overflows");
        assert!(e.message.contains("overflows"), "{e}");
        img.globals.pop();
        let e = img
            .addresses()
            .expect_err("the second global's end overflows");
        assert!(e.message.contains("overflows"), "{e}");
    }
}
