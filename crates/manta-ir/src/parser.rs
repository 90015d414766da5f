//! Textual IR parser — the inverse of [`crate::printer`].
//!
//! The grammar is line-oriented:
//!
//! ```text
//! module <name>
//! extern <name>(<w>, …) -> <w|void>
//! global <name> <size>
//! func <name>(<w>, …) -> <w|void> [addrtaken] {
//! bb<N>:
//!   v<K> = copy.<w> <opnd>
//!   v<K> = phi.<w> [bb<N>: <opnd>, …]
//!   v<K> = load.<w> <opnd>
//!   store <opnd>, <opnd>
//!   v<K> = alloca <size>
//!   v<K> = gep <opnd>, <offset>
//!   v<K> = <binop>.<w> <opnd>, <opnd>
//!   v<K> = cmp.<pred> <opnd>, <opnd>
//!   [v<K> =] call[.<w>] @<func>|!<extern>(<opnd>, …)
//!   [v<K> =] icall[.<w>] <opnd>(<opnd>, …)
//!   br bb<N> | condbr <opnd>, bb<N>, bb<N> | ret [<opnd>] | unreachable
//! }
//! ```
//!
//! Operands: `p<N>` (parameter), `v<K>` (instruction result), `<int>:i<w>`,
//! `<float>:f<w>`, `null`, `undef`, `g.<global>`, `fn.<function>`.
//!
//! **One pass over borrowed text.** The text is read line by line once.
//! Top-level lines declare externs, globals and function headers, and
//! index every name, borrowed from the text, in one map. A body's lines
//! are kept as borrowed slices until every name is known. Each body is
//! then scanned once: the scan splits every line into its label,
//! terminator or def number, mnemonic and operand text, checks the def
//! numbering and sizes the function. Emission reads the scan, not the
//! text. The scan, the def table and the constant map are scratch that a
//! module's bodies share.
//!
//! **Numbering and names.** A function's values are its parameters, then
//! its defs by number (`v0` first, wherever it is written), then its
//! constants and addresses in first-use order, one per distinct token
//! (`1:i64` and `01:i64` are two values). Operands are read left to
//! right, except that an `icall` reads its arguments before its target.
//! `@f` and `fn.f` name the last function `f`, `!e` the last extern `e`,
//! and `g.x` the first global `x`.
//!
//! **Bounds.** A body's block and def numbers are bounded by its line
//! count. A `bb<N>` whose `N` is at least that count, as a label, a
//! terminator token or a phi incoming, is an error at its line. A def
//! `v<K>` with `K` that large leaves a gap in the numbering, reported as
//! any gap is. So no text reserves more blocks or values than it has
//! lines.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::externs::ExternRegistry;
use crate::function::{Block, Function, Terminator};
use crate::ids::{BlockId, ExternId, FuncId, GlobalId, InstId, ValueId};
use crate::inst::{BinOp, Callee, CmpPred, InstData, InstKind};
use crate::module::Module;
use crate::types::Width;
use crate::value::{ConstKind, Value, ValueKind};

/// A parse failure with its 1-based source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token, or 0 when unknown.
    pub col: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    /// An error at `line` with no column information.
    pub fn new(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            col: 0,
            message: message.into(),
        }
    }

    /// Fills in `col` by locating the first backtick-quoted token of the
    /// message inside the source line it points at. Central position
    /// recovery keeps token-level plumbing out of the grammar productions.
    fn locate(mut self, text: &str) -> ParseError {
        if self.col != 0 || self.line == 0 {
            return self;
        }
        let Some(src_line) = text.lines().nth(self.line - 1) else {
            return self;
        };
        let mut quoted = self.message.split('`');
        if let Some(tok) = quoted.nth(1) {
            if !tok.is_empty() {
                if let Some(byte) = src_line.find(tok) {
                    self.col = src_line[..byte].chars().count() + 1;
                }
            }
        }
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "parse error at line {}, col {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T> {
    Err(ParseError::new(line, message))
}

fn parse_width(line: usize, tok: &str) -> Result<Width> {
    let bits: u32 = tok
        .strip_prefix('w')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::new(line, format!("bad width `{tok}`")))?;
    Width::from_bits(bits).ok_or_else(|| ParseError::new(line, format!("bad width `{tok}`")))
}

fn parse_ret(line: usize, tok: &str) -> Result<Option<Width>> {
    if tok == "void" {
        Ok(None)
    } else {
        parse_width(line, tok).map(Some)
    }
}

/// The lines of `text` as [`str::lines`] splits them, numbered from 1
/// and trimmed (the trim also takes the `\r` of a `\r\n` ending).
fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut rest = text;
    let mut ln = 0;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (line, tail) = match rest.bytes().position(|b| b == b'\n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        rest = tail;
        ln += 1;
        Some((ln, line.trim()))
    })
}

/// Splits `s` at its first whitespace: the word before it, and the rest
/// trimmed. Whitespace is [`char::is_whitespace`]; ASCII is checked a
/// byte at a time, and a non-ASCII byte hands over to the char search.
fn split_word(s: &str) -> (&str, &str) {
    let at = s.bytes().enumerate().find_map(|(i, b)| match b {
        b' ' | b'\t'..=b'\r' => Some(Some(i)),
        0x80.. => Some(s[i..].find(char::is_whitespace).map(|j| i + j)),
        _ => None,
    });
    match at.flatten() {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

/// `s.split_once(sep)` for an ASCII `sep`, one byte at a time.
fn split_at_byte(s: &str, sep: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|b| b == sep)?;
    Some((&s[..i], &s[i + 1..]))
}

/// An instruction's operation, named by its mnemonic before any `.`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Copy,
    Phi,
    Load,
    Store,
    Alloca,
    Gep,
    Cmp,
    Call,
    ICall,
    Bin(BinOp),
    Unknown,
}

impl Op {
    fn from_name(name: &str) -> Op {
        match name {
            "copy" => Op::Copy,
            "phi" => Op::Phi,
            "load" => Op::Load,
            "store" => Op::Store,
            "alloca" => Op::Alloca,
            "gep" => Op::Gep,
            "cmp" => Op::Cmp,
            "call" => Op::Call,
            "icall" => Op::ICall,
            other => BinOp::from_mnemonic(other).map_or(Op::Unknown, Op::Bin),
        }
    }
}

/// A mnemonic's operation name and its `.` suffix, if any.
fn split_mnemonic(mnemonic: &str) -> (&str, Option<&str>) {
    match split_at_byte(mnemonic, b'.') {
        Some((name, suffix)) => (name, Some(suffix)),
        None => (mnemonic, None),
    }
}

/// The number `N` of a `bb<N>` token.
fn block_number(tok: &str) -> Option<usize> {
    tok.strip_prefix("bb").and_then(|s| s.parse().ok())
}

/// What one name means in each namespace: the function `@name` and
/// `fn.name` call, the extern `!name` calls and the global `g.name`
/// addresses.
#[derive(Clone, Copy, Default)]
struct Names {
    func: Option<FuncId>,
    ext: Option<ExternId>,
    global: Option<GlobalId>,
}

/// A function header and where its body starts in [`Decls::body`].
struct Header<'a> {
    ln: usize,
    name: &'a str,
    /// Its parameter widths, in [`Decls::widths`].
    params: (usize, usize),
    ret: Option<Width>,
    addrtaken: bool,
    body_start: usize,
}

/// Everything the top-level pass collects before any body is parsed.
struct Decls<'a> {
    headers: Vec<Header<'a>>,
    widths: Vec<Width>,
    /// Every body line, numbered and trimmed; function `i`'s lines run
    /// from its `body_start` to the next header's.
    body: Vec<(usize, &'a str)>,
    names: HashMap<&'a str, Names>,
}

impl<'a> Decls<'a> {
    fn body_lines(&self, i: usize) -> &[(usize, &'a str)] {
        let end = self
            .headers
            .get(i + 1)
            .map_or(self.body.len(), |h| h.body_start);
        &self.body[self.headers[i].body_start..end]
    }

    /// Handles one top-level line; returns whether it opened a function
    /// body.
    fn top_level(&mut self, module: &mut Module, ln: usize, line: &'a str) -> Result<bool> {
        if let Some(rest) = line.strip_prefix("extern ") {
            let start = self.widths.len();
            let sig = parse_sig(ln, rest.trim_end(), &mut self.widths);
            let params = self.widths.split_off(start);
            let (name, ret) = sig?;
            let id = module.next_extern_id();
            module.push_extern(ExternRegistry::declare(id, name, &params, ret));
            self.names.entry(name).or_default().ext = Some(id);
        } else if let Some(rest) = line.strip_prefix("global ") {
            let mut it = rest.split_whitespace();
            let gname = it
                .next()
                .ok_or_else(|| ParseError::new(ln, "global name"))?;
            let size: u64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseError::new(ln, "global size"))?;
            let id = module.push_global(gname.to_string(), size);
            self.names
                .entry(gname)
                .or_default()
                .global
                .get_or_insert(id);
        } else if let Some(rest) = line.strip_prefix("func ") {
            let rest = rest
                .strip_suffix('{')
                .ok_or_else(|| ParseError::new(ln, "expected `{` ending func header"))?
                .trim_end();
            let (rest, addrtaken) = match rest.strip_suffix("addrtaken") {
                Some(r) => (r.trim_end(), true),
                None => (rest, false),
            };
            let start = self.widths.len();
            let (name, ret) = parse_sig(ln, rest, &mut self.widths).inspect_err(|_| {
                self.widths.truncate(start);
            })?;
            self.names.entry(name).or_default().func = Some(FuncId::from_index(self.headers.len()));
            self.headers.push(Header {
                ln,
                name,
                params: (start, self.widths.len()),
                ret,
                addrtaken,
                body_start: self.body.len(),
            });
            return Ok(true);
        } else {
            return err(ln, format!("unexpected top-level line `{line}`"));
        }
        Ok(false)
    }
}

/// Parses the canonical textual format into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line (and column,
/// when the offending token could be located).
pub fn parse_module(text: &str) -> Result<Module> {
    let mut errors = Vec::new();
    let module = parse_module_impl(text, false, &mut errors);
    match errors.into_iter().next() {
        None => Ok(module),
        Some(e) => Err(e),
    }
}

/// Parses with per-function error recovery: a function whose body fails
/// to parse is replaced by a *stub* — its declared signature with a
/// single `unreachable` entry block — and the diagnostic is recorded.
/// Malformed top-level lines are skipped the same way. Function ids and
/// call-site arities therefore stay consistent with the declared
/// headers, so the partial module still verifies and analyzes.
///
/// Returns the (possibly partial) module together with every diagnostic:
/// the top-level ones in source order, then each body's in function
/// order. An empty diagnostics vector means the parse was clean.
pub fn parse_module_recovering(text: &str) -> (Module, Vec<ParseError>) {
    let mut errors = Vec::new();
    let module = parse_module_impl(text, true, &mut errors);
    (module, errors)
}

fn parse_module_impl(text: &str, recover: bool, errors: &mut Vec<ParseError>) -> Module {
    let mut last_ln = 0usize;
    let mut lines = numbered_lines(text)
        .inspect(|&(i, _)| last_ln = i)
        .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'));

    let module_name = match lines.next() {
        None => {
            errors.push(ParseError::new(0, "empty input"));
            return Module::new("invalid");
        }
        Some((ln, first)) => match first.strip_prefix("module ") {
            Some(name) => name.trim(),
            None => {
                errors.push(ParseError::new(ln, "expected `module <name>`").locate(text));
                if !recover {
                    return Module::new("invalid");
                }
                "invalid"
            }
        },
    };
    let mut module = Module::new(module_name);

    let mut decls = Decls {
        headers: Vec::new(),
        widths: Vec::new(),
        body: Vec::new(),
        names: HashMap::new(),
    };
    let mut in_func = false;
    for (ln, line) in lines {
        if in_func {
            if line == "}" {
                in_func = false;
            } else {
                decls.body.push((ln, line));
            }
            continue;
        }
        match decls.top_level(&mut module, ln, line) {
            Ok(entered) => in_func = entered,
            Err(e) => {
                errors.push(e.locate(text));
                if !recover {
                    return module;
                }
            }
        }
    }
    if in_func {
        errors.push(ParseError::new(last_ln, "unterminated function body"));
        if !recover {
            return module;
        }
    }

    let mut scratch = Scratch::default();
    for (i, header) in decls.headers.iter().enumerate() {
        let id = FuncId::from_index(i);
        let (start, end) = header.params;
        let params = &decls.widths[start..end];
        let mut func = match scratch.function(&decls, id, params) {
            Ok(func) => func,
            Err(e) => {
                errors.push(e.locate(text));
                if !recover {
                    return module;
                }
                // Recovery: keep the declared signature, drop the body. A
                // fresh function is one `unreachable` entry block, which is
                // exactly the stub we want.
                Function::new(id, header.name.to_string(), params, header.ret)
            }
        };
        func.set_address_taken(header.addrtaken);
        module.push_function(func);
    }
    module
}

/// Parses `name(w64, w32) -> w64`, appending the parameter widths to
/// `widths`.
fn parse_sig<'a>(
    ln: usize,
    s: &'a str,
    widths: &mut Vec<Width>,
) -> Result<(&'a str, Option<Width>)> {
    let open = s
        .find('(')
        .ok_or_else(|| ParseError::new(ln, "expected `(`"))?;
    let close = s[open..]
        .rfind(')')
        .map(|c| open + c)
        .ok_or_else(|| ParseError::new(ln, "expected `)`"))?;
    let name = s[..open].trim();
    let params_s = &s[open + 1..close];
    if !params_s.trim().is_empty() {
        for t in params_s.split(',') {
            widths.push(parse_width(ln, t.trim())?);
        }
    }
    let arrow = s.as_bytes()[close..]
        .windows(2)
        .position(|w| w == b"->")
        .ok_or_else(|| ParseError::new(ln, "expected `->`"))?;
    let ret = parse_ret(ln, s[close + arrow + 2..].trim())?;
    Ok((name, ret))
}

/// One body line as the scan leaves it: its number and what it is.
#[derive(Clone, Copy)]
struct Scanned<'a> {
    ln: usize,
    line: Line<'a>,
}

/// A body line split once. Terminators keep the text after their
/// keyword; an instruction keeps its def number, its operation, its
/// mnemonic and the operand text after it.
#[derive(Clone, Copy)]
enum Line<'a> {
    Label(usize),
    Br(&'a str),
    CondBr(&'a str),
    Ret(&'a str),
    Unreachable,
    Inst {
        def: Option<usize>,
        op: Op,
        mnemonic: &'a str,
        rest: &'a str,
    },
}

/// A def's width and the instruction that defines it.
#[derive(Clone, Copy)]
struct Def {
    width: Width,
    inst: u32,
}

/// Per-body state, reused across a module's functions.
#[derive(Default)]
struct Scratch<'a> {
    scan: Vec<Scanned<'a>>,
    /// The def table by number; it covers numbers below the body's line
    /// count, and `far_defs` holds any others, for duplicate checks.
    defs: Vec<Option<Def>>,
    far_defs: HashSet<usize>,
    /// Instructions per block number.
    block_insts: Vec<u32>,
    /// Each constant token's value, and the constants in creation order.
    consts: HashMap<&'a str, ValueId>,
    const_values: Vec<Value>,
}

impl<'a> Scratch<'a> {
    /// Parses function `id`'s body: one scan, then emission from it.
    fn function(&mut self, decls: &Decls<'a>, id: FuncId, params: &[Width]) -> Result<Function> {
        let header = &decls.headers[id.index()];
        let lines = decls.body_lines(id.index());
        let blocks = self.scan_body(lines)?;
        let defs = self.dense_defs(header.ln)?;

        self.consts.clear();
        self.const_values.clear();
        let insts_len = self.block_insts[..blocks].iter().map(|&n| n as usize).sum();
        let mut body = Emitter {
            names: &decls.names,
            params: params.len(),
            defs: &self.defs[..defs],
            consts: &mut self.consts,
            const_values: &mut self.const_values,
            insts: Vec::with_capacity(insts_len),
            blocks: self.block_insts[..blocks]
                .iter()
                .enumerate()
                .map(|(b, &n)| Block {
                    id: BlockId::from_index(b),
                    insts: Vec::with_capacity(n as usize),
                    term: Terminator::Unreachable,
                })
                .collect(),
        };
        let mut current = BlockId(0);
        for s in &self.scan {
            body.line(s.ln, s.line, &mut current)?;
        }

        let (insts, blocks) = (body.insts, body.blocks);
        let mut values = Vec::with_capacity(params.len() + defs + self.const_values.len());
        values.extend(params.iter().enumerate().map(|(i, &width)| Value {
            kind: ValueKind::Param { index: i as u32 },
            width,
        }));
        values.extend(self.defs[..defs].iter().flatten().map(|d| Value {
            kind: ValueKind::Inst {
                def: InstId(d.inst),
            },
            width: d.width,
        }));
        values.extend_from_slice(&self.const_values);
        Ok(Function::from_parts(
            id,
            header.name.to_string(),
            params.len(),
            header.ret,
            values,
            insts,
            blocks,
        ))
    }

    /// Splits every body line once into [`Scanned`], filling the def
    /// table and the per-block instruction counts. Returns the number of
    /// blocks.
    fn scan_body(&mut self, lines: &[(usize, &'a str)]) -> Result<usize> {
        let bound = lines.len();
        self.scan.clear();
        self.defs.clear();
        self.defs.resize(bound, None);
        self.far_defs.clear();
        self.block_insts.clear();
        self.block_insts.resize(bound.max(1), 0);
        let mut max_block = 0usize;
        let mut current = 0usize;
        let mut insts = 0u32;
        let mut block = |ln: usize, tok: &str, n: usize| -> Result<()> {
            if n >= bound {
                return err(
                    ln,
                    format!("block `{tok}` is past the end of a {bound}-line body"),
                );
            }
            max_block = max_block.max(n);
            Ok(())
        };
        for &(ln, text) in lines {
            if let Some(label) = text.strip_suffix(':') {
                let n = block_number(label)
                    .ok_or_else(|| ParseError::new(ln, format!("bad block label `{text}`")))?;
                block(ln, label, n)?;
                current = n;
                self.scan.push(Scanned {
                    ln,
                    line: Line::Label(n),
                });
                continue;
            }
            let (word, rest) = split_word(text);
            let line = match word {
                "br" | "condbr" | "ret" | "unreachable" => {
                    // Terminators may name blocks forward.
                    for tok in text.split(|c: char| c == ',' || c.is_whitespace()) {
                        if let Some(n) = block_number(tok) {
                            block(ln, tok, n)?;
                        }
                    }
                    match word {
                        "br" => Line::Br(rest),
                        "condbr" => Line::CondBr(rest),
                        "ret" => Line::Ret(rest),
                        _ => Line::Unreachable,
                    }
                }
                _ => {
                    let (def, rhs) = match split_at_byte(text, b'=') {
                        Some((lhs, rhs)) => {
                            let lhs = lhs.trim();
                            let k: usize = lhs
                                .strip_prefix('v')
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| ParseError::new(ln, format!("bad def `{lhs}`")))?;
                            (Some(k), rhs.trim())
                        }
                        None => (None, text),
                    };
                    let (mnemonic, rest) = split_word(rhs);
                    let (name, suffix) = split_mnemonic(mnemonic);
                    let op = Op::from_name(name);
                    if let Some(k) = def {
                        let duplicate = match self.defs.get(k) {
                            Some(slot) => slot.is_some(),
                            None => !self.far_defs.insert(k),
                        };
                        if duplicate {
                            return err(ln, format!("duplicate definition of v{k}"));
                        }
                        let width = def_width(ln, op, name, suffix)?;
                        if let Some(slot) = self.defs.get_mut(k) {
                            *slot = Some(Def { width, inst: insts });
                        }
                    }
                    if op == Op::Phi {
                        // Phi incomings may name blocks forward too.
                        if let Some(inner) =
                            rest.strip_prefix('[').and_then(|s| s.strip_suffix(']'))
                        {
                            for pair in inner.split(',') {
                                if let Some((bb, _)) = pair.split_once(':') {
                                    let bb = bb.trim();
                                    if let Some(n) = block_number(bb) {
                                        block(ln, bb, n)?;
                                    }
                                }
                            }
                        }
                    }
                    self.block_insts[current] += 1;
                    insts += 1;
                    Line::Inst {
                        def,
                        op,
                        mnemonic,
                        rest,
                    }
                }
            };
            self.scan.push(Scanned { ln, line });
        }
        Ok(max_block + 1)
    }

    /// Checks that the defs are numbered `v0` to `v<D-1>` with no gap, and
    /// returns `D`. A gap is reported at the function's header line.
    fn dense_defs(&self, header_ln: usize) -> Result<usize> {
        let table_max = self.defs.iter().rposition(Option::is_some);
        let far_max = self.far_defs.iter().copied().max();
        let Some(max) = table_max.max(far_max) else {
            return Ok(0);
        };
        // A def numbered at or past the line count has fewer lines than
        // numbers below it, so its gap lies inside the table.
        let gap = self.defs[..=max.min(self.defs.len() - 1)]
            .iter()
            .position(Option::is_none)
            .or_else(|| (max >= self.defs.len()).then_some(self.defs.len()));
        match gap {
            Some(k) => err(header_ln, format!("v{k} referenced but never defined")),
            None => Ok(max + 1),
        }
    }
}

/// Determines the width of the value a def line defines, from its
/// operation `op` (named `name`) and its mnemonic's `suffix`.
fn def_width(ln: usize, op: Op, name: &str, suffix: Option<&str>) -> Result<Width> {
    match op {
        Op::Alloca | Op::Gep => Ok(Width::W64),
        Op::Cmp => Ok(Width::W1),
        _ => {
            let s = suffix
                .ok_or_else(|| ParseError::new(ln, format!("`{name}` needs a width suffix")))?;
            parse_width(ln, s)
        }
    }
}

/// The width a constant's type `ty` names; `bits` is `ty` after its
/// `i` or `f`.
fn const_width(ln: usize, ty: &str, bits: &str) -> Result<Width> {
    let bits = bits
        .parse()
        .map_err(|_| ParseError::new(ln, format!("bad const type `{ty}`")))?;
    Width::from_bits(bits).ok_or_else(|| ParseError::new(ln, format!("bad const width `{ty}`")))
}

fn parse_block_ref(ln: usize, tok: &str) -> Result<BlockId> {
    block_number(tok)
        .map(BlockId::from_index)
        .ok_or_else(|| ParseError::new(ln, format!("bad block ref `{tok}`")))
}

/// Emits one function from its scan. Values are numbered before any is
/// made: parameter `i` is value `i`, def `k` is value `params + k`, and
/// the `j`-th constant is value `params + defs + j`.
struct Emitter<'s, 'a> {
    names: &'s HashMap<&'a str, Names>,
    params: usize,
    defs: &'s [Option<Def>],
    consts: &'s mut HashMap<&'a str, ValueId>,
    const_values: &'s mut Vec<Value>,
    insts: Vec<InstData>,
    blocks: Vec<Block>,
}

impl<'a> Emitter<'_, 'a> {
    fn line(&mut self, ln: usize, line: Line<'a>, current: &mut BlockId) -> Result<()> {
        let term = match line {
            Line::Label(n) => {
                *current = BlockId::from_index(n);
                return Ok(());
            }
            Line::Br(rest) => Terminator::Br(parse_block_ref(ln, rest)?),
            Line::CondBr(rest) => {
                let mut parts = rest.split(',').map(str::trim);
                let (Some(cond), Some(then_bb), Some(else_bb), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return err(ln, "condbr expects 3 operands");
                };
                Terminator::CondBr {
                    cond: self.operand(ln, cond)?,
                    then_bb: parse_block_ref(ln, then_bb)?,
                    else_bb: parse_block_ref(ln, else_bb)?,
                }
            }
            Line::Ret(rest) => Terminator::Ret(if rest.is_empty() {
                None
            } else {
                Some(self.operand(ln, rest)?)
            }),
            Line::Unreachable => Terminator::Unreachable,
            Line::Inst {
                def,
                op,
                mnemonic,
                rest,
            } => {
                let kind = self.inst(ln, def, op, mnemonic, rest)?;
                let id = InstId::from_index(self.insts.len());
                self.insts.push(InstData {
                    id,
                    block: *current,
                    kind,
                });
                self.blocks[current.index()].insts.push(id);
                return Ok(());
            }
        };
        self.blocks[current.index()].term = term;
        Ok(())
    }

    fn inst(
        &mut self,
        ln: usize,
        def: Option<usize>,
        op: Op,
        mnemonic: &'a str,
        rest: &'a str,
    ) -> Result<InstKind> {
        let params = self.params;
        let dst = |what: &str| {
            def.map(|k| ValueId::from_index(params + k))
                .ok_or_else(|| ParseError::new(ln, format!("{what} needs a def")))
        };
        let kind = match op {
            Op::Copy => {
                let dst = dst("copy")?;
                InstKind::Copy {
                    dst,
                    src: self.operand(ln, rest)?,
                }
            }
            Op::Phi => {
                let dst = dst("phi")?;
                let inner = rest
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| ParseError::new(ln, "phi expects `[...]`"))?;
                let mut incomings = Vec::with_capacity(inner.matches(',').count() + 1);
                for pair in inner.split(',') {
                    let (bb, val) = pair
                        .split_once(':')
                        .ok_or_else(|| ParseError::new(ln, "phi incoming `bb: v`"))?;
                    let b = parse_block_ref(ln, bb.trim())?;
                    incomings.push((b, self.operand(ln, val)?));
                }
                InstKind::Phi { dst, incomings }
            }
            Op::Load => {
                let dst = dst("load")?;
                let width = self.defs[dst.index() - params].map_or(Width::W64, |d| d.width);
                InstKind::Load {
                    dst,
                    addr: self.operand(ln, rest)?,
                    width,
                }
            }
            Op::Store => {
                let (a, v) = split_at_byte(rest, b',')
                    .ok_or_else(|| ParseError::new(ln, "store expects 2 operands"))?;
                InstKind::Store {
                    addr: self.operand(ln, a)?,
                    val: self.operand(ln, v)?,
                }
            }
            Op::Alloca => {
                let dst = dst("alloca")?;
                let size = rest
                    .parse()
                    .map_err(|_| ParseError::new(ln, format!("bad alloca size `{rest}`")))?;
                InstKind::Alloca { dst, size }
            }
            Op::Gep => {
                let dst = dst("gep")?;
                let (b, o) = split_at_byte(rest, b',')
                    .ok_or_else(|| ParseError::new(ln, "gep expects 2 operands"))?;
                let base = self.operand(ln, b)?;
                let offset = o
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::new(ln, format!("bad gep offset `{o}`")))?;
                InstKind::Gep { dst, base, offset }
            }
            Op::Cmp => {
                let dst = dst("cmp")?;
                let pred = mnemonic
                    .split_once('.')
                    .and_then(|(_, p)| CmpPred::from_mnemonic(p))
                    .ok_or_else(|| ParseError::new(ln, format!("bad cmp `{mnemonic}`")))?;
                let (l, r) = split_at_byte(rest, b',')
                    .ok_or_else(|| ParseError::new(ln, "cmp expects 2 operands"))?;
                InstKind::Cmp {
                    dst,
                    pred,
                    lhs: self.operand(ln, l)?,
                    rhs: self.operand(ln, r)?,
                }
            }
            Op::Call | Op::ICall => {
                let dst = def.map(|k| ValueId::from_index(params + k));
                let open = rest
                    .find('(')
                    .ok_or_else(|| ParseError::new(ln, "call expects `(`"))?;
                let close = rest[open..]
                    .rfind(')')
                    .map(|c| open + c)
                    .ok_or_else(|| ParseError::new(ln, "call expects `)`"))?;
                let target = rest[..open].trim();
                let args_s = &rest[open + 1..close];
                let mut args = Vec::new();
                if !args_s.trim().is_empty() {
                    args.reserve_exact(args_s.matches(',').count() + 1);
                    for a in args_s.split(',') {
                        args.push(self.operand(ln, a)?);
                    }
                }
                let callee =
                    if op == Op::ICall {
                        Callee::Indirect(self.operand(ln, target)?)
                    } else if let Some(fname) = target.strip_prefix('@') {
                        Callee::Direct(self.name(fname, |n| n.func).ok_or_else(|| {
                            ParseError::new(ln, format!("unknown function `{fname}`"))
                        })?)
                    } else if let Some(ename) = target.strip_prefix('!') {
                        Callee::Extern(self.name(ename, |n| n.ext).ok_or_else(|| {
                            ParseError::new(ln, format!("unknown extern `{ename}`"))
                        })?)
                    } else {
                        return err(ln, format!("bad call target `{target}`"));
                    };
                InstKind::Call { dst, callee, args }
            }
            Op::Unknown => {
                let (name, _) = split_mnemonic(mnemonic);
                return err(ln, format!("unknown instruction `{name}`"));
            }
            Op::Bin(binop) => {
                let dst = dst("binop")?;
                let (l, r) = split_at_byte(rest, b',')
                    .ok_or_else(|| ParseError::new(ln, "binop expects 2 operands"))?;
                InstKind::BinOp {
                    op: binop,
                    dst,
                    lhs: self.operand(ln, l)?,
                    rhs: self.operand(ln, r)?,
                }
            }
        };
        Ok(kind)
    }

    /// Looks `name` up in one namespace.
    fn name<T>(&self, name: &str, slot: impl Fn(&Names) -> Option<T>) -> Option<T> {
        self.names.get(name).and_then(slot)
    }

    fn operand(&mut self, ln: usize, tok: &'a str) -> Result<ValueId> {
        let tok = tok.trim();
        if let Some(n) = tok.strip_prefix('p').and_then(|s| s.parse::<usize>().ok()) {
            return if n < self.params {
                Ok(ValueId::from_index(n))
            } else {
                err(ln, format!("no parameter p{n}"))
            };
        }
        if let Some(k) = tok.strip_prefix('v').and_then(|s| s.parse::<usize>().ok()) {
            return if k < self.defs.len() {
                Ok(ValueId::from_index(self.params + k))
            } else {
                err(ln, format!("undefined value v{k}"))
            };
        }
        if let Some(&v) = self.consts.get(tok) {
            return Ok(v);
        }
        let value = if tok == "null" {
            Value {
                kind: ValueKind::Const(ConstKind::Null),
                width: Width::W64,
            }
        } else if tok == "undef" {
            Value {
                kind: ValueKind::Const(ConstKind::Undef),
                width: Width::W64,
            }
        } else if let Some(gname) = tok.strip_prefix("g.") {
            let g = self
                .name(gname, |n| n.global)
                .ok_or_else(|| ParseError::new(ln, format!("unknown global `{gname}`")))?;
            Value {
                kind: ValueKind::GlobalAddr(g),
                width: Width::W64,
            }
        } else if let Some(fname) = tok.strip_prefix("fn.") {
            let f = self
                .name(fname, |n| n.func)
                .ok_or_else(|| ParseError::new(ln, format!("unknown function `{fname}`")))?;
            Value {
                kind: ValueKind::FuncAddr(f),
                width: Width::W64,
            }
        } else if let Some((lit, ty)) = tok.rsplit_once(':') {
            let (kind, width) = if let Some(bits) = ty.strip_prefix('i') {
                let width = const_width(ln, ty, bits)?;
                let v = lit
                    .parse()
                    .map_err(|_| ParseError::new(ln, format!("bad int `{lit}`")))?;
                (ConstKind::Int(v), width)
            } else if let Some(bits) = ty.strip_prefix('f') {
                let width = const_width(ln, ty, bits)?;
                let v = lit
                    .parse()
                    .map_err(|_| ParseError::new(ln, format!("bad float `{lit}`")))?;
                (ConstKind::Float(v), width)
            } else {
                return err(ln, format!("bad operand `{tok}`"));
            };
            Value {
                kind: ValueKind::Const(kind),
                width,
            }
        } else {
            return err(ln, format!("bad operand `{tok}`"));
        };
        let id = ValueId::from_index(self.params + self.defs.len() + self.const_values.len());
        self.const_values.push(value);
        self.consts.insert(tok, id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::verify::verify_module;

    const SAMPLE: &str = r#"
module demo
extern malloc(w64) -> w64
extern unknowable(w64, w64) -> w64
global table 32

func helper(w64) -> w64 addrtaken {
bb0:
  v0 = add.w64 p0, 1:i64
  ret v0
}

func main(w64) -> w64 {
bb0:
  v0 = call.w64 !malloc(p0)
  store g.table, v0
  v1 = cmp.eq v0, null
  condbr v1, bb1, bb2
bb1:
  ret 0:i64
bb2:
  v2 = call.w64 @helper(p0)
  v3 = icall.w64 fn.helper(v2)
  ret v3
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(m.function_count(), 2);
        assert!(m.function_by_name("helper").unwrap().is_address_taken());
        assert_eq!(m.extern_by_name("malloc").map(|e| e.index()), Some(0));
        assert_eq!(m.globals().count(), 1);
    }

    #[test]
    fn print_parse_print_is_fixpoint() {
        let m = parse_module(SAMPLE).unwrap();
        let p1 = print_module(&m);
        let m2 = parse_module(&p1).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
        verify_module(&m2).unwrap();
    }

    #[test]
    fn parses_loop_with_forward_phi() {
        let text = r#"
module looped
func f(w64) -> w64 {
bb0:
  br bb1
bb1:
  v0 = phi.w64 [bb0: p0, bb2: v1]
  v2 = cmp.gt v0, 0:i64
  condbr v2, bb2, bb3
bb2:
  v1 = sub.w64 v0, 1:i64
  br bb1
bb3:
  ret v0
}
"#;
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        let p1 = print_module(&m);
        let m2 = parse_module(&p1).unwrap();
        assert_eq!(p1, print_module(&m2));
    }

    #[test]
    fn reports_line_numbers() {
        let text = "module m\nfunc f() -> void {\nbb0:\n  v0 = frobnicate.w64 p0\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_sparse_def_numbering() {
        let text = "module m\nfunc f() -> void {\nbb0:\n  v5 = alloca 8\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("never defined"), "{e}");
        // A gap belongs to no one line; it is reported at the header.
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn reports_columns_for_located_tokens() {
        let text = "module m\nfunc f() -> void {\nbb0:\n  v0 = frobnicate.w64 p0\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4);
        // `frobnicate` starts at column 8 of "  v0 = frobnicate.w64 p0".
        assert_eq!(e.col, 8);
        assert!(e.to_string().contains("col 8"), "{e}");
    }

    #[test]
    fn truncated_input_reports_last_line() {
        let text = "module m\nfunc f() -> void {\nbb0:\n  v0 = alloca 8";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("unterminated"), "{e}");
    }

    #[test]
    fn recovery_stubs_broken_function_and_keeps_the_rest() {
        let text = "module m\n\
            func broken(w64) -> w64 {\n\
            bb0:\n\
            \x20 v0 = frobnicate.w64 p0\n\
            \x20 ret v0\n\
            }\n\
            func fine(w64) -> w64 {\n\
            bb0:\n\
            \x20 v0 = add.w64 p0, 1:i64\n\
            \x20 ret v0\n\
            }\n\
            func caller(w64) -> w64 {\n\
            bb0:\n\
            \x20 v0 = call.w64 @broken(p0)\n\
            \x20 v1 = call.w64 @fine(v0)\n\
            \x20 ret v1\n\
            }\n";
        let (m, errs) = parse_module_recovering(text);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].line, 4);
        // All three functions survive with their declared signatures, so
        // the caller's arity checks still pass.
        assert_eq!(m.function_count(), 3);
        verify_module(&m).unwrap();
        let broken = m.function_by_name("broken").unwrap();
        assert_eq!(broken.params().len(), 1);
        assert_eq!(broken.inst_count(), 0, "stub body");
        let fine = m.function_by_name("fine").unwrap();
        assert!(fine.inst_count() > 0, "healthy body kept");
    }

    #[test]
    fn recovery_on_clean_input_matches_strict_parse() {
        let (m, errs) = parse_module_recovering(SAMPLE);
        assert!(errs.is_empty());
        let strict = parse_module(SAMPLE).unwrap();
        assert_eq!(print_module(&m), print_module(&strict));
    }

    #[test]
    fn recovery_never_returns_errors_silently() {
        let (_, errs) = parse_module_recovering("garbage");
        assert!(!errs.is_empty());
        let (m, errs) = parse_module_recovering("");
        assert!(!errs.is_empty());
        assert_eq!(m.function_count(), 0);
    }

    /// Two short texts once made the parser reserve memory by a number
    /// they name: blocks up to `bb4000000000`, and a def table of 10^12
    /// slots. Both are errors now, found without reserving either.
    #[test]
    fn oversized_block_and_def_numbers_are_errors() {
        let block = "module m\nfunc f() -> void {\nbb0:\n  br bb4000000000\n}\n";
        let e = parse_module(block).unwrap_err();
        assert_eq!((e.line, e.col), (4, 6), "{e}");
        assert_eq!(
            e.message,
            "block `bb4000000000` is past the end of a 2-line body"
        );
        let def = "module m\nfunc f() -> void {\nbb0:\n  v1000000000000 = alloca 8\n  ret\n}\n";
        let e = parse_module(def).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "v0 referenced but never defined")
        );
    }

    /// Every place a body names a block is held to its line count: a
    /// label, a terminator token and a phi incoming.
    #[test]
    fn block_numbers_are_bounded_by_the_body() {
        let body = |lines: &str| format!("module m\nfunc f(w64) -> void {{\n{lines}\n}}\n");
        for (lines, line, tok) in [
            ("bb0:\n  ret\nbb4:\n  ret", 5, "bb4"),
            ("bb0:\n  condbr p0, bb1, bb4", 4, "bb4"),
            ("bb0:\n  unreachable bb9", 4, "bb9"),
            ("bb0:\n  v0 = phi.w64 [bb0: p0, bb7: p0]\n  ret", 4, "bb7"),
        ] {
            let e = parse_module(&body(lines)).unwrap_err();
            assert_eq!(e.line, line, "{lines:?}: {e}");
            assert!(e.message.contains(&format!("`{tok}`")), "{lines:?}: {e}");
        }
        // The last block a body could hold still parses.
        let last = body("  br bb1\nbb1:\n  ret");
        assert_eq!(
            parse_module(&last)
                .unwrap()
                .function(FuncId(0))
                .block_count(),
            2
        );
    }

    /// A def numbered past the table is still held to one definition,
    /// and its gap is the lowest number missing.
    #[test]
    fn defs_past_the_line_count_keep_their_errors() {
        let body =
            |lines: &str| format!("module m\nfunc f() -> void {{\nbb0:\n{lines}\n  ret\n}}\n");
        let e = parse_module(&body("  v90 = alloca 8\n  v90 = alloca 8")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (5, "duplicate definition of v90")
        );
        let e = parse_module(&body("  v0 = alloca 8\n  v90 = alloca 8")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "v1 referenced but never defined")
        );
    }

    #[test]
    fn rejects_duplicate_defs() {
        let text =
            "module m\nfunc f() -> void {\nbb0:\n  v0 = alloca 8\n  v0 = alloca 8\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    /// The declarations every [`MALFORMED_BODIES`] row is parsed under:
    /// `f` takes `p0`, and its body starts at line 6.
    const HEAD: &str = "module m\nextern e(w64) -> w64\nglobal g 8\nfunc f(w64) -> w64 {\nbb0:\n";

    /// Module texts the parser rejects, with the `(line, col, message)`
    /// it reports.
    const MALFORMED_MODULES: &[(&str, usize, usize, &str)] = &[
        ("", 0, 0, "empty input"),
        ("\n; only a comment\n\n", 0, 0, "empty input"),
        ("modul m\n", 1, 0, "expected `module <name>`"),
        (
            "module m\nfunc f() -> void {\nbb0:\n  ret\n",
            4,
            0,
            "unterminated function body",
        ),
        ("module m\nglobal x\n", 2, 0, "global size"),
        ("module m\nglobal x big\n", 2, 0, "global size"),
        (
            "module m\nglobal\n",
            2,
            1,
            "unexpected top-level line `global`",
        ),
        (
            "module m\nfunc f() -> void\nbb0:\n  ret\n}\n",
            2,
            0,
            "expected `{` ending func header",
        ),
        (
            "module m\nbogus line\n",
            2,
            1,
            "unexpected top-level line `bogus line`",
        ),
        ("module m\nextern e -> w64\n", 2, 0, "expected `(`"),
        ("module m\nextern e(w64 -> w64\n", 2, 0, "expected `)`"),
        ("module m\nextern e(w64) w64\n", 2, 0, "expected `->`"),
        ("module m\nextern e(w65) -> w64\n", 2, 10, "bad width `w65`"),
        ("module m\nextern e(i64) -> w64\n", 2, 10, "bad width `i64`"),
        ("module m\nextern e(w64) -> int\n", 2, 18, "bad width `int`"),
        (
            "module m\nfunc f(w64, w8 -> void {\nbb0:\n  ret\n}\n",
            2,
            0,
            "expected `)`",
        ),
        (
            "module m\nfunc f(w64) -> w64 addrtaken\n",
            2,
            0,
            "expected `{` ending func header",
        ),
    ];

    /// Function bodies the parser rejects inside [`HEAD`], with the
    /// `(line, col, message)` it reports. With [`MALFORMED_MODULES`] they
    /// reach every message the parser can report, and they pin which
    /// error wins when a body has two: a def-line error on any line
    /// before an operand error on an earlier one, call arguments before
    /// an `icall` target, a `condbr` condition before its blocks.
    const MALFORMED_BODIES: &[(&str, usize, usize, &str)] = &[
        ("bb:\n  ret p0", 6, 1, "bad block label `bb:`"),
        ("  ret p0\nx1:", 7, 1, "bad block label `x1:`"),
        ("  vx = alloca 8\n  ret p0", 6, 3, "bad def `vx`"),
        (
            "  v0 = alloca 8\n  v0 = alloca 8\n  ret p0",
            7,
            0,
            "duplicate definition of v0",
        ),
        (
            "  v0 = add p0, p0\n  ret v0",
            6,
            8,
            "`add` needs a width suffix",
        ),
        ("  v0 = add.w12 p0, p0\n  ret v0", 6, 12, "bad width `w12`"),
        ("  v0 = load.x64 p0\n  ret v0", 6, 13, "bad width `x64`"),
        (
            "  v1 = alloca 8\n  ret p0",
            4,
            0,
            "v0 referenced but never defined",
        ),
        (
            "  v0 = add.w64 p0, p0\n  br bb1\nbb1:\n  v2 = alloca 8\n  ret v0",
            4,
            0,
            "v1 referenced but never defined",
        ),
        ("  br bbx", 6, 6, "bad block ref `bbx`"),
        ("  br 1", 6, 6, "bad block ref `1`"),
        ("  condbr p0, bb0", 6, 0, "condbr expects 3 operands"),
        ("  condbr qq, bbx, bb0", 6, 10, "bad operand `qq`"),
        ("  condbr p0, bb0, bbz", 6, 19, "bad block ref `bbz`"),
        ("  ret p1", 6, 0, "no parameter p1"),
        ("  ret v3", 6, 0, "undefined value v3"),
        ("  ret g.nope", 6, 9, "unknown global `nope`"),
        ("  ret fn.nope", 6, 10, "unknown function `nope`"),
        ("  ret 1:x64", 6, 7, "bad operand `1:x64`"),
        ("  ret 1:iq", 6, 9, "bad const type `iq`"),
        ("  ret 1:i7", 6, 9, "bad const width `i7`"),
        ("  ret 1:fq", 6, 9, "bad const type `fq`"),
        ("  ret 1:f7", 6, 9, "bad const width `f7`"),
        ("  ret x:i64", 6, 7, "bad int `x`"),
        ("  ret x:f64", 6, 7, "bad float `x`"),
        (
            "  ret 99999999999999999999:i64",
            6,
            7,
            "bad int `99999999999999999999`",
        ),
        ("  ret bogus", 6, 7, "bad operand `bogus`"),
        ("  ret p0 p0", 6, 7, "bad operand `p0 p0`"),
        ("  copy.w64 p0\n  ret p0", 6, 0, "copy needs a def"),
        ("  phi.w64 [bb0: p0]\n  ret p0", 6, 0, "phi needs a def"),
        ("  load.w64 p0\n  ret p0", 6, 0, "load needs a def"),
        ("  alloca 8\n  ret p0", 6, 0, "alloca needs a def"),
        ("  gep p0, 8\n  ret p0", 6, 0, "gep needs a def"),
        ("  cmp.eq p0, p0\n  ret p0", 6, 0, "cmp needs a def"),
        ("  add.w64 p0, p0\n  ret p0", 6, 0, "binop needs a def"),
        (
            "  v0 = phi.w64 bb0: p0\n  ret v0",
            6,
            0,
            "phi expects `[...]`",
        ),
        (
            "  v0 = phi.w64 [bb0 p0]\n  ret v0",
            6,
            0,
            "phi incoming `bb: v`",
        ),
        ("  v0 = phi.w64 []\n  ret v0", 6, 0, "phi incoming `bb: v`"),
        (
            "  v0 = phi.w64 [bbx: p0]\n  ret v0",
            6,
            17,
            "bad block ref `bbx`",
        ),
        ("  store p0\n  ret p0", 6, 0, "store expects 2 operands"),
        ("  store p0, p0, p0\n  ret p0", 6, 9, "bad operand `p0, p0`"),
        (
            "  v0 = alloca big\n  ret p0",
            6,
            15,
            "bad alloca size `big`",
        ),
        ("  v0 = alloca -8\n  ret p0", 6, 15, "bad alloca size `-8`"),
        ("  v0 = gep p0\n  ret v0", 6, 0, "gep expects 2 operands"),
        ("  v0 = gep p0, x\n  ret v0", 6, 15, "bad gep offset ` x`"),
        ("  v0 = cmp.zz p0, p0\n  ret p0", 6, 8, "bad cmp `cmp.zz`"),
        ("  v0 = cmp p0, p0\n  ret p0", 6, 8, "bad cmp `cmp`"),
        ("  v0 = cmp.eq p0\n  ret p0", 6, 0, "cmp expects 2 operands"),
        ("  call @f\n  ret p0", 6, 0, "call expects `(`"),
        ("  call @f(\n  ret p0", 6, 0, "call expects `)`"),
        ("  call @nope()\n  ret p0", 6, 9, "unknown function `nope`"),
        ("  call !nope()\n  ret p0", 6, 9, "unknown extern `nope`"),
        ("  call f()\n  ret p0", 6, 8, "bad call target `f`"),
        (
            "  v0 = call @f(p0)\n  ret v0",
            6,
            8,
            "`call` needs a width suffix",
        ),
        (
            "  v0 = icall.w64 bogus(qq)\n  ret v0",
            6,
            24,
            "bad operand `qq`",
        ),
        (
            "  v0 = icall.w64 bogus(p0)\n  ret v0",
            6,
            18,
            "bad operand `bogus`",
        ),
        (
            "  v0 = frob.w64 p0\n  ret v0",
            6,
            8,
            "unknown instruction `frob`",
        ),
        (
            "  v0 = add.w64 p0\n  ret v0",
            6,
            0,
            "binop expects 2 operands",
        ),
        ("  ret bogus\n  vx = alloca 8", 7, 3, "bad def `vx`"),
        (
            "  v0 = add.w64 p0, zz\n  v1 = sub p0, p0\n  ret v0",
            7,
            8,
            "`sub` needs a width suffix",
        ),
        (
            "  v0 = store.w64 p0, p0\n  v0 = copy.w64 p0\n  ret p0",
            7,
            0,
            "duplicate definition of v0",
        ),
    ];

    #[test]
    fn malformed_texts_report_their_pinned_errors() {
        let body_texts = MALFORMED_BODIES
            .iter()
            .map(|&(body, line, col, message)| (format!("{HEAD}{body}\n}}\n"), line, col, message));
        let module_texts = MALFORMED_MODULES
            .iter()
            .map(|&(text, line, col, message)| (text.to_string(), line, col, message));
        for (text, line, col, message) in module_texts.chain(body_texts) {
            let e = parse_module(&text).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (line, col, message),
                "{text:?}"
            );
            let (_, diagnostics) = parse_module_recovering(&text);
            assert_eq!(diagnostics.first(), Some(&e), "{text:?}");
        }
    }

    /// Texts with two faults each: the recovering parser's diagnostics,
    /// in the order it reports them, and the module it keeps, printed.
    #[allow(clippy::type_complexity)]
    const RECOVERED: &[(&str, &[(usize, usize, &str)], &str)] = &[
        (
            "module m\nbogus\nglobal x 8\nfunc a(w64) -> w64 {\nbb0:\n  ret qq\n}\nfunc b(w64) -> w64 addrtaken {\nbb0:\n  v0 = call.w64 @a(p0)\n  ret v0\n}\n",
            &[(2, 1, "unexpected top-level line `bogus`"), (6, 7, "bad operand `qq`")],
            "module m\nglobal x 8\n\nfunc a(w64) -> w64 {\nbb0:\n  unreachable\n}\n\nfunc b(w64) -> w64 addrtaken {\nbb0:\n  v0 = call.w64 @a(p0)\n  ret v0\n}\n",
        ),
        (
            "modul m\nfunc f(w8) -> void {\nbb0:\n  v0 = alloca 8\n  ret\n",
            &[(1, 0, "expected `module <name>`"), (5, 0, "unterminated function body")],
            "module invalid\n\nfunc f(w8) -> void {\nbb0:\n  v0 = alloca 8\n  ret\n}\n",
        ),
        (
            "module m\nextern e(w64 -> w64\nfunc f() -> void {\nbb0:\n  v1 = alloca 8\n  ret\n}\nfunc g() -> w64 {\nbb0:\n  v0 = icall.w64 fn.f()\n  ret v0\n}\n",
            &[(2, 0, "expected `)`"), (3, 0, "v0 referenced but never defined")],
            "module m\n\nfunc f() -> void {\nbb0:\n  unreachable\n}\n\nfunc g() -> w64 {\nbb0:\n  v0 = icall.w64 fn.f()\n  ret v0\n}\n",
        ),
    ];

    #[test]
    fn recovering_parse_reports_and_stubs_as_pinned() {
        for &(text, want, printed) in RECOVERED {
            let (m, diagnostics) = parse_module_recovering(text);
            let got: Vec<_> = diagnostics
                .iter()
                .map(|e| (e.line, e.col, e.message.as_str()))
                .collect();
            assert_eq!(got, want, "{text:?}");
            assert_eq!(print_module(&m), printed, "{text:?}");
            verify_module(&m).unwrap();
        }
    }
}
