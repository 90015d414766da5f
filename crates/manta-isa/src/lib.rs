//! # manta-isa
//!
//! SB-ISA — a small synthetic register machine standing in for the real
//! binaries the Manta paper analyzes. It provides the *zero-knowledge*
//! entry point of the pipeline: programs exist as encoded bytes in an SBF
//! image (no types, no variable names — only code), and the [`lift`]
//! module translates those bytes into `manta-ir` SSA exactly the way
//! RetDec lifts x86 to LLVM IR in the paper (§3: "binary registers and
//! arguments are translated to SSA values").
//!
//! * [`inst`] — the machine instruction set (16 GP registers, loads and
//!   stores with byte offsets, arithmetic, compares, calls, branches).
//! * [`asm`] — a line-oriented assembler with labels.
//! * [`image`] — the SBF container: encode/decode whole programs to bytes.
//! * [`lift`] — SB-ISA semantics for the lifting skeleton
//!   ([`manta_ir::lift`]), which recovers blocks and builds SSA (Braun et
//!   al.) into a [`manta_ir::Module`].
//!
//! ```
//! use manta_isa::{asm, image, lift};
//!
//! let program = r#"
//! module demo
//! extern malloc(w64) -> w64
//! func grab(1) -> ret {
//!     mov r7, r1
//!     ecall malloc, 1
//!     ret
//! }
//! "#;
//! let img = asm::assemble(program)?;
//! let bytes = image::encode(&img);
//! let decoded = image::decode(&bytes)?;
//! let module = lift::lift(&decoded)?;
//! assert_eq!(module.function_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod image;
pub mod inst;
pub mod lift;

pub use asm::{assemble, AsmError};
pub use image::{decode, encode, Image, ImageError, ImageExtern, ImageFunction, ImageGlobal};
pub use inst::{MachInst, Reg};

use manta_ir::{FrontendError, Module};

/// Parses module source text in either textual format, told apart by
/// the function headers: textual IR declares parameter widths
/// (`func name(w64, …)`) or none (`func name()`), SB assembly a
/// parameter count (`func name(2)`). IR goes to the IR parser; anything
/// else is assembled and lifted.
///
/// # Errors
///
/// Returns a [`FrontendError`] carrying the parser's, assembler's or
/// lifter's message.
pub fn parse_source(text: &str) -> Result<Module, FrontendError> {
    let is_ir = text.lines().any(|l| {
        let l = l.trim_start();
        l.starts_with("func ") && (l.contains("(w") || l.contains("()"))
    });
    if is_ir {
        return manta_ir::parser::parse_module(text).map_err(|e| FrontendError::new(e.to_string()));
    }
    let image = assemble(text).map_err(|e| FrontendError::new(e.to_string()))?;
    lift::lift(&image).map_err(|e| FrontendError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_source_tells_ir_from_assembly() {
        // `alloca` parses only as IR and `mov` only as assembly, so each
        // success proves the header sniff picked the right parser.
        let ir_params = "module m\nfunc f(w64) -> w64 {\nbb0:\n  ret p0\n}\n";
        let ir_empty = "module m\nfunc f() -> void {\nbb0:\n  v0 = alloca 8\n  ret\n}\n";
        let asm = "module m\nfunc f(1) -> ret {\n    mov r0, r1\n    ret\n}\n";
        for (text, params) in [(ir_params, 1), (ir_empty, 0), (asm, 1)] {
            let module = parse_source(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let f = module.function_by_name("f").expect("f parsed");
            assert_eq!(f.params().len(), params, "{text}");
        }
        // A malformed body fails with the selected parser's message.
        let bad_ir = "module m\nfunc f() -> void {\nbb0:\n  bogus\n}\n";
        let err = parse_source(bad_ir).expect_err("malformed IR");
        let direct = manta_ir::parser::parse_module(bad_ir).expect_err("malformed IR");
        assert_eq!(err.message, direct.to_string());
        let bad_asm = "module m\nfunc f(1) -> ret {\n    bogus\n}\n";
        let err = parse_source(bad_asm).expect_err("malformed assembly");
        let direct = assemble(bad_asm).expect_err("malformed assembly");
        assert_eq!(err.message, direct.to_string());
    }
}
