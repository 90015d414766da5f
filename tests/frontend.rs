//! Differential tests of the x86-64 frontend against SB-ISA.
//!
//! The dual emitter ([`manta_workloads::emit_dual`]) lowers one generated
//! IR module to *both* machine encodings from a single decision sequence.
//! These tests pin the property that makes the x86 frontend trustworthy:
//! lifting either encoding reconstructs bit-identical IR, and therefore
//! the whole engine — every sensitivity tier, at every thread count —
//! produces bit-identical inferred types from either binary.
//!
//! Because the SB-vs-x86 differential compares the two lifters with each
//! other, a change to the lifting skeleton they share moves both sides at
//! once; `LIFTED_HASHES` pins what both encodings lift to.
//!
//! Alongside the differential sweep: a seeded decoder fuzz (arbitrary
//! bytes must never panic the decoder, and everything that decodes from
//! real code must re-encode to the same bytes), a bit-flip lift fuzz
//! (damaged images fail with an error, never a panic), and hand-written
//! x86 assembly exercising the three lifter-specific idioms — eflags
//! materialization at `jcc`, sub-register masking, and `rbp` frame-slot
//! recognition.
//!
//! Textual IR is the third way a module arrives: `PARSED_HASHES` pins
//! what the IR parser builds, value for value, from generated, firmware
//! and hand-written texts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

use manta::cache::results_identical;
use manta::{Engine, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_ir::parser::{parse_module, parse_module_recovering};
use manta_ir::printer::print_module;
use manta_ir::verify::verify_module;
use manta_ir::{Frontend, Module};
use manta_store::Fingerprint;
use manta_workloads::generator::GenSpec;
use manta_workloads::rng::ChaCha8Rng;
use manta_workloads::{generate, PhenomenonMix};

const SENSITIVITIES: [Sensitivity; 5] = [
    Sensitivity::Fi,
    Sensitivity::Fs,
    Sensitivity::FiFs,
    Sensitivity::FiCsFs,
    Sensitivity::FiFsCs,
];

fn spec(functions: usize, seed: u64) -> GenSpec {
    GenSpec {
        name: format!("fe_{seed}"),
        functions,
        mix: PhenomenonMix::balanced(),
        seed,
    }
}

/// Encodes a generated module both ways and lifts each container back
/// through its registered frontend (bytes in, module out — the same path
/// the CLI takes).
fn lift_both(module: &Module) -> (Module, Module) {
    let dual = manta_workloads::emit_dual(module).expect("generated module lowers");
    let sb_bytes = dual.sb_bytes();
    let x86_bytes = dual.x86_bytes();
    let sb_fe = manta_isa::lift::SbFrontend;
    let x86_fe = manta_x86::X86Frontend;
    assert!(sb_fe.detects(&sb_bytes) && !sb_fe.detects(&x86_bytes));
    assert!(x86_fe.detects(&x86_bytes) && !x86_fe.detects(&sb_bytes));
    (
        sb_fe.lift_bytes(&sb_bytes).expect("sb lift"),
        x86_fe.lift_bytes(&x86_bytes).expect("x86 lift"),
    )
}

// ---------------------------------------------------------------------------
// Decoder fuzz.
// ---------------------------------------------------------------------------

/// 500 seeded buffers of arbitrary bytes: the decoder must reject or
/// accept, never panic, and whatever `decode_all` accepts must re-encode
/// to exactly the input bytes.
#[test]
fn decoder_never_panics_on_500_seeds_of_garbage() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED_FACE);
    for _ in 0..500 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let _ = manta_x86::decode_one(&bytes);
        if let Ok(insts) = manta_x86::decode_all(&bytes) {
            let mut re = Vec::with_capacity(bytes.len());
            for (inst, _, _) in &insts {
                manta_x86::encode(inst, &mut re);
            }
            assert_eq!(re, bytes, "accepted bytes must re-encode identically");
        }
    }
}

/// Valid machine code (every function body the dual emitter produces
/// across many seeds) decodes, and re-encodes byte-identically.
#[test]
fn real_code_decodes_and_reencodes_byte_identically() {
    for seed in 0..40 {
        let prog = generate(&spec(4, 1000 + seed));
        let dual = prog.encode_dual().expect("generated module lowers");
        for f in &dual.x86.functions {
            let code = &dual.x86.text[f.offset as usize..(f.offset + f.len) as usize];
            let insts = manta_x86::decode_all(code).expect("emitted code decodes");
            let mut re = Vec::with_capacity(code.len());
            for (inst, _, _) in &insts {
                manta_x86::encode(inst, &mut re);
            }
            assert_eq!(re, code, "fn {}: decode/encode must round-trip", f.name);
        }
    }
}

/// Bit flips in real images: 24 generated programs, each encoding
/// mutated 128 times with 1–3 flipped bits. Every mutant must fail with
/// an error or lift to a module that passes `verify_module`; none may
/// panic.
#[test]
fn bit_flipped_images_error_or_lift_cleanly() {
    let frontends: [&dyn Frontend; 2] = [&manta_isa::lift::SbFrontend, &manta_x86::X86Frontend];
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_F11B);
    let mut panics = Vec::new();
    for seed in 0..24u64 {
        let prog = generate(&spec(2 + seed as usize % 6, 0xF1B0 + seed));
        let dual = manta_workloads::emit_dual(&prog.module).expect("generated module lowers");
        for (fe, image) in frontends.iter().zip([dual.sb_bytes(), dual.x86_bytes()]) {
            for _ in 0..128 {
                let mut bytes = image.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let bit = rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                match catch_unwind(AssertUnwindSafe(|| fe.lift_bytes(&bytes))) {
                    Ok(Ok(module)) => {
                        if let Err(e) = verify_module(&module) {
                            panic!("seed {seed}, {}: lifted an invalid module: {e}", fe.name());
                        }
                    }
                    Ok(Err(_)) => {}
                    Err(_) => panics.push((seed, fe.name())),
                }
            }
        }
    }
    assert!(panics.is_empty(), "lifting panicked on {panics:?}");
}

/// The data layout sums untrusted 64-bit global sizes. An image whose
/// first two of three globals claim 2^63 bytes each puts the third past
/// the address space, so its one RIP reference cannot be resolved: the
/// lift fails with an error, where an unchecked sum panics (debug) or
/// wraps to a wrong address (release).
#[test]
fn globals_past_the_address_space_fail_to_lift() {
    use manta_x86::{Gpr, ImageBuilder, ImageGlobal, Inst, SymInst};
    let mut b = ImageBuilder::new("huge");
    b.function(
        "f",
        0,
        true,
        vec![
            SymInst::LeaFunc(Gpr::RAX, "f".into()),
            SymInst::Real(Inst::Ret),
        ],
    );
    let mut image = b.build().expect("a function reference needs no data");
    image.globals = [1 << 63, 1 << 63, 8]
        .into_iter()
        .enumerate()
        .map(|(i, size)| ImageGlobal {
            name: format!("g{i}"),
            size,
        })
        .collect();
    let bytes = manta_x86::encode_image(&image);
    let lifts = [
        manta_x86::lift(&image).map_err(|e| e.to_string()),
        manta_x86::X86Frontend
            .lift_bytes(&bytes)
            .map_err(|e| e.to_string()),
    ];
    for lifted in lifts {
        let e = lifted.expect_err("the globals overflow");
        assert!(e.contains("overflows the 64-bit address space"), "{e}");
    }
}

// ---------------------------------------------------------------------------
// Differential lift + inference.
// ---------------------------------------------------------------------------

/// The core differential sweep: 220 seeded programs, each emitted in both
/// encodings, must lift to bit-identical IR text.
#[test]
fn lifted_ir_is_bit_identical_across_220_seeds() {
    for seed in 0..220u64 {
        let prog = generate(&spec(4, seed));
        let (sb, x86) = lift_both(&prog.module);
        assert_eq!(
            print_module(&sb),
            print_module(&x86),
            "seed {seed}: lifted IR diverges between encodings"
        );
    }
}

/// [`module_hash`] of each generated program's lifted module, one per
/// program: both encodings must lift to it.
const LIFTED_HASHES: [u64; 24] = [
    0x7b5d_8215_8467_c175,
    0xa386_fbf7_ab73_6b04,
    0x8d63_d73c_5333_42e9,
    0x6ec6_c60c_0a16_c5fb,
    0x253a_d3cc_74ee_0bdf,
    0x34d7_184e_8906_30f3,
    0x6984_2051_23f9_5aaf,
    0x0422_cd78_b05e_cc10,
    0x4ca0_86ef_bbaa_341d,
    0x42c8_84f3_20b1_4bc1,
    0xe5c3_4c3e_957f_3b45,
    0x5f0f_fc4e_7689_8f83,
    0x91cc_9dd8_839d_e752,
    0x22d2_e509_fcb3_9440,
    0x5e7e_cebc_0268_3436,
    0x50dd_aebb_115c_e3e8,
    0x699f_e9ff_e549_d608,
    0x0b14_e388_60f4_ab85,
    0x2f3f_86ec_a2db_f5c8,
    0x5386_0496_17f5_fc61,
    0xdbd4_f0e1_6f06_98cb,
    0x1a60_76ef_a0f1_3251,
    0xed18_18f3_eebe_48e1,
    0x2d19_ebff_d2bc_d21a,
];

/// `Fingerprint` of a module's printed text and of every function's
/// `Debug` form. The printer renumbers values canonically and prints
/// constants inline, so it hides a change in creation order; `Debug`
/// lists the value and instruction arenas in id order and shows it.
/// (`Module`'s own `Debug` holds a `HashMap`, so it is not hashed.)
fn module_hash(module: &Module) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(&print_module(module));
    for f in module.functions() {
        fp.write_str(&format!("{f:?}"));
    }
    fp.finish()
}

/// The lifted bytes of 24 generated programs stay what they were, from
/// both encodings.
#[test]
fn lifted_modules_match_their_pinned_hashes() {
    for (i, want) in LIFTED_HASHES.iter().enumerate() {
        let prog = generate(&spec(2 + i % 7, 0x11F7 + i as u64));
        let (sb, x86) = lift_both(&prog.module);
        assert_eq!(module_hash(&sb), *want, "program {i}: SB lift moved");
        assert_eq!(module_hash(&x86), *want, "program {i}: x86 lift moved");
    }
}

/// 200 seeds through the full-sensitivity engine: the inference results
/// (canonical encoding, including degradation records) must be
/// bit-identical between the SB-lifted and x86-lifted module.
#[test]
fn inferred_types_are_bit_identical_across_200_seeds() {
    let engine = Engine::new(MantaConfig::full());
    for seed in 0..200u64 {
        let prog = generate(&spec(3, 7000 + seed));
        let (sb, x86) = lift_both(&prog.module);
        let a = engine.analyze(&ModuleAnalysis::build(sb)).unwrap();
        let b = engine.analyze(&ModuleAnalysis::build(x86)).unwrap();
        assert!(
            results_identical(&a, &b),
            "seed {seed}: inferred types diverge between encodings"
        );
    }
}

/// Functions are numbered by image position, even when two share a
/// name: an SB program whose first two functions are both `f` lifts with
/// ids 0, 1 and 2, and infers exactly what its twin with the second `f`
/// renamed does. (The assembler resolves `f` to the last function of that
/// name, so `main` calls the second one in both.)
#[test]
fn repeated_function_names_keep_their_image_positions() {
    let program = |second: &str| {
        format!(
            "module twin\nfunc f(1) -> ret {{\n    ld.w64 r0, [r1+0]\n    ret\n}}\nfunc {second}(0) -> ret {{\n    salloc r0, 8\n    ret\n}}\nfunc main(0) -> ret {{\n    call {second}, 0\n    ld.w64 r0, [r0+0]\n    ret\n}}\n"
        )
    };
    let twin = manta_isa::parse_source(&program("f")).expect("two-f program lifts");
    let renamed = manta_isa::parse_source(&program("g")).expect("renamed program lifts");
    for (i, f) in twin.functions().enumerate() {
        assert_eq!(f.id().index(), i, "{}", f.name());
    }
    let engine = Engine::new(MantaConfig::full());
    let a = engine.analyze(&ModuleAnalysis::build(twin)).unwrap();
    let b = engine.analyze(&ModuleAnalysis::build(renamed)).unwrap();
    assert!(
        results_identical(&a, &b),
        "a repeated name changed inference"
    );
}

/// A smaller sweep through every sensitivity tier, including the
/// reversed-cascade ablation.
#[test]
fn every_sensitivity_tier_agrees_between_encodings() {
    for seed in [3, 17, 40, 77, 123, 180, 501, 999] {
        let prog = generate(&spec(4, seed));
        let (sb, x86) = lift_both(&prog.module);
        let sb = ModuleAnalysis::build(sb);
        let x86 = ModuleAnalysis::build(x86);
        for sens in SENSITIVITIES {
            let engine = Engine::new(MantaConfig::with_sensitivity(sens));
            let a = engine.analyze(&sb).unwrap();
            let b = engine.analyze(&x86).unwrap();
            assert!(
                results_identical(&a, &b),
                "seed {seed}, {sens:?}: inferred types diverge"
            );
        }
    }
}

/// Serializes tests that flip the process-global pool size.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the auto thread count even when an assertion panics.
struct ThreadGuard;

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        manta_parallel::set_threads(0);
    }
}

/// Thread-count invariance composed with encoding invariance: one result
/// per (encoding, thread count) cell, all six bit-identical.
#[test]
fn encodings_agree_at_every_thread_count() {
    let _l = lock();
    let _restore = ThreadGuard;
    let engine = Engine::new(MantaConfig::full());
    for seed in [11, 222, 3333] {
        let prog = generate(&spec(4, seed));
        let (sb, x86) = lift_both(&prog.module);
        let sb = ModuleAnalysis::build(sb);
        let x86 = ModuleAnalysis::build(x86);
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            manta_parallel::set_threads(threads);
            results.push((threads, engine.analyze(&sb).unwrap()));
            results.push((threads, engine.analyze(&x86).unwrap()));
        }
        let (_, first) = &results[0];
        for (threads, r) in &results[1..] {
            assert!(
                results_identical(first, r),
                "seed {seed}: divergence at {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-written x86 idioms.
// ---------------------------------------------------------------------------

/// eflags at `jcc`: the compare only materializes as an SSA boolean at
/// the consuming branch, with the fallthrough-inverted predicate.
#[test]
fn jcc_materializes_the_compare_at_the_branch() {
    let asm = "\
module handjcc
func max(2) -> ret {
    mov rax, rdi
    cmp rdi, rsi
    jge done
    mov rax, rsi
done:
    ret
}
";
    let img = manta_x86::assemble(asm).unwrap();
    let module = manta_x86::lift(&img).unwrap();
    let text = print_module(&module);
    // `jge done` falls through when rdi < rsi: the materialized compare
    // carries the fallthrough predicate and feeds the condbr directly.
    assert!(text.contains("cmp.lt"), "{text}");
    assert!(text.contains("condbr"), "{text}");
    // The typed engine still sees an ordinary two-parameter function.
    let analysis = ModuleAnalysis::build(module);
    let r = Engine::new(MantaConfig::full()).analyze(&analysis).unwrap();
    assert_eq!(r.degradations.len(), 0);
}

/// Sub-register writes (`mov eax, edi`, `dword` loads) become explicit
/// width masks in the IR rather than silently widening.
#[test]
fn sub_register_moves_mask_explicitly() {
    let asm = "\
module handsub
func trunc(1) -> ret {
    push rbp
    mov rbp, rsp
    sub rsp, 8
    mov dword [rbp-8], edi
    mov eax, edi
    mov ecx, dword [rbp-8]
    add rax, rcx
    mov rsp, rbp
    pop rbp
    ret
}
";
    let img = manta_x86::assemble(asm).unwrap();
    let module = manta_x86::lift(&img).unwrap();
    let text = print_module(&module);
    assert!(text.contains("and"), "32-bit mov must mask: {text}");
    assert!(text.contains("load.w32"), "dword load keeps width: {text}");
}

/// `rbp`-relative locals: prologue/epilogue disappear, each distinct slot
/// becomes its own alloca sized by its neighbors.
#[test]
fn rbp_locals_become_sized_allocas() {
    let asm = "\
module handframe
func locals(1) -> ret {
    push rbp
    mov rbp, rsp
    sub rsp, 24
    lea rax, [rbp-8]
    mov qword [rax], rdi
    lea rcx, [rbp-24]
    mov qword [rcx+8], rdi
    mov rax, qword [rbp-8]
    mov rsp, rbp
    pop rbp
    ret
}
";
    let img = manta_x86::assemble(asm).unwrap();
    let module = manta_x86::lift(&img).unwrap();
    let text = print_module(&module);
    // Two lea roots -> two slots: 8 bytes at rbp-8, 16 bytes at rbp-24.
    assert!(text.contains("alloca 8"), "{text}");
    assert!(text.contains("alloca 16"), "{text}");
    // No rsp/rbp traffic survives into the IR.
    assert!(!text.contains("rsp") && !text.contains("rbp"), "{text}");
}

/// `movsx` feeding arithmetic (not just a load): the register form lifts
/// as the shift-up/shift-down pair, never a mask — sign extension is not
/// `and` — and the extended value reaches the `add` as an operand.
#[test]
fn movsx_feeding_arithmetic_lifts_as_a_shift_pair() {
    let asm = "\
module handsext
func widen(2) -> ret {
    movsx rax, dil
    add rax, rsi
    ret
}
";
    let img = manta_x86::assemble(asm).unwrap();
    let module = manta_x86::lift(&img).unwrap();
    let text = print_module(&module);
    assert!(text.contains("shl"), "movsx must shift up: {text}");
    assert!(text.contains("shr"), "movsx must shift back down: {text}");
    assert!(
        !text.contains("and."),
        "sign extension must not lift as a mask: {text}"
    );
    // The lifted module still analyzes cleanly end to end.
    let analysis = ModuleAnalysis::build(module);
    let r = Engine::new(MantaConfig::full()).analyze(&analysis).unwrap();
    assert_eq!(r.degradations.len(), 0);
}

/// Dual-emitter coverage for the same idiom: an IR module carrying
/// `(p << 56) >> 56` into arithmetic lowers to `movsx` on x86 and a
/// shift pair on SB, and both encodings lift to bit-identical IR — so
/// every sensitivity tier infers bit-identical types from either binary.
#[test]
fn sign_extension_idiom_agrees_between_encodings() {
    use manta_ir::{BinOp, ModuleBuilder, Width};
    let mut mb = ModuleBuilder::new("sextdual");
    let (_, mut fb) = mb.function("widen", &[Width::W64, Width::W64], Some(Width::W64));
    let p = fb.param(0);
    let q = fb.param(1);
    let c = fb.const_int(56, Width::W64);
    let hi = fb.binop(BinOp::Shl, p, c, Width::W64);
    let lo = fb.binop(BinOp::Shr, hi, c, Width::W64);
    let sum = fb.binop(BinOp::Add, lo, q, Width::W64);
    fb.ret(Some(sum));
    mb.finish_function(fb);
    let module = mb.finish();
    let (sb, x86) = lift_both(&module);
    assert_eq!(print_module(&sb), print_module(&x86));
    let sb = ModuleAnalysis::build(sb);
    let x86 = ModuleAnalysis::build(x86);
    for sens in SENSITIVITIES {
        let engine = Engine::new(MantaConfig::with_sensitivity(sens));
        let a = engine.analyze(&sb).unwrap();
        let b = engine.analyze(&x86).unwrap();
        assert!(
            results_identical(&a, &b),
            "{sens:?}: sext idiom diverges between encodings"
        );
    }
}

// ---------------------------------------------------------------------------
// Textual IR: what the parser builds.
// ---------------------------------------------------------------------------

/// Hand-written IR texts for [`PARSED_HASHES`]. Between them: forward
/// phis, defs written out of number order, float and `undef` constants,
/// one constant token used twice and the integer 1 spelled two ways
/// (`1:i64` and `01:i64` are two constants), `g.` globals, `icall fn.f(..)` with
/// arguments (read before the target), repeated function, extern and
/// global names (`@f` and `fn.f` name the last `f`, `!e` the last `e`,
/// `g.x` the first `x`), CRLF line ends, tabs, comments and blank lines,
/// a body with no label, an empty body, labels out of order and a label
/// given twice.
const HAND_TEXTS: [&str; 3] = [
    "module hand_phis
func f(w64, w32) -> w64 {
bb0:
  br bb1
bb1:
  v0 = phi.w64 [bb0: p0, bb2: v1]
  v3 = phi.w64 [bb0: 1:i64, bb2: v0]
  v2 = cmp.gt v0, 0:i64
  condbr v2, bb2, bb3
bb2:
  v1 = sub.w64 v0, 1:i64
  v4 = copy.w64 2.5:f64
  v5 = copy.w32 undef
  br bb1
bb3:
  ret v3
}
func order(w64) -> w64 {
bb0:
  v1 = add.w64 p0, 3:i64
  v0 = mul.w64 v1, 2:i64
  v2 = copy.w64 -0.0:f32
  ret v0
}
",
    "module hand_names
extern e(w64) -> w64
extern malloc(w64) -> w64
extern e(w64, w64) -> w64
global x 8
global y 16
global x 32
func f(w64) -> w64 addrtaken {
bb0:
  ret p0
}
func g(w64) -> w64 {
bb0:
  v0 = add.w64 p0, 1:i64
  v1 = add.w64 v0, 01:i64
  v2 = mul.w64 v1, 1:i64
  store g.x, v2
  store g.y, g.x
  v3 = call.w64 !e(v2, 1:i64)
  v4 = icall.w64 fn.f(v3, 7:i64)
  v5 = call.w64 @f(v4)
  ret v5
}
func f(w64) -> w64 {
bb0:
  v0 = call.w64 !malloc(8:i64)
  v1 = gep v0, 8
  v2 = load.w32 v1
  v3 = alloca 16
  v4 = cmp.ne v0, null
  call @g(fn.g)
  call !e()
  ret v0
}
",
    "module hand_blocks\r
; a comment\r
func h(w1) -> void {\r
bb0:\r
\tcondbr p0, bb2, bb1\r
\r
bb2:\r
  ; a comment inside a body\r
  v0 = alloca 8\r
  store v0, -3:i8\r
  unreachable\r
bb1:\r
  ret\r
}\r
func nolabel(w64) -> w64 {\r
  ret p0\r
}\r
func empty() -> void {\r
}\r
func twice(w64) -> void {\r
bb0:\r
  v0 = add.w64 p0, p0\r
  br bb1\r
bb1:\r
  ret\r
bb0:\r
  store v0, p0\r
  br bb1\r
}\r
",
];

/// A module of the edit workload's shape at three clusters: each a chain
/// of identity relays (`add.w64 p0, p0` then a call of the next link) fed
/// by users passing integers (`mul.w64 7:i64, p0`) and heap pointers
/// (`call.w64 !malloc(16:i64)`).
fn cluster_module(clusters: usize, depth: usize) -> Module {
    use manta_ir::{BinOp, ModuleBuilder, Width};
    let mut mb = ModuleBuilder::new("clusters");
    let malloc = mb.extern_fn("malloc", &[], None);
    for k in 0..clusters {
        let mut callee = None;
        for i in (0..depth).rev() {
            let (f, mut fb) = mb.function(&format!("w{k}_{i}"), &[Width::W64], Some(Width::W64));
            let x = fb.param(0);
            fb.binop(BinOp::Add, x, x, Width::W64);
            let out = match callee {
                Some(next) => fb.call(next, &[x], Some(Width::W64)).unwrap(),
                None => x,
            };
            fb.ret(Some(out));
            mb.finish_function(fb);
            callee = Some(f);
        }
        let head = callee.unwrap();
        for u in 0..4 {
            let (_, mut ub) = mb.function(&format!("u{k}_{u}"), &[Width::W64], None);
            let arg = if u % 2 == 0 {
                let n = ub.const_int(7, Width::W64);
                let p = ub.param(0);
                ub.binop(BinOp::Mul, n, p, Width::W64)
            } else {
                let bytes = ub.const_int(16, Width::W64);
                ub.call_extern(malloc, &[bytes], Some(Width::W64)).unwrap()
            };
            let r = ub.call(head, &[arg], Some(Width::W64)).unwrap();
            if u % 2 == 0 {
                let slot = ub.alloca(8);
                ub.store(slot, r);
            } else {
                ub.load(r, Width::W64);
            }
            ub.ret(None);
            mb.finish_function(ub);
        }
    }
    mb.finish()
}

/// The texts [`PARSED_HASHES`] pins, in order: generated modules of four
/// sizes in the balanced mix and two skewed mixes, three firmware images,
/// a module of the edit workload's shape, then [`HAND_TEXTS`].
fn parser_inputs() -> Vec<String> {
    let balanced = PhenomenonMix::balanced();
    let loops = PhenomenonMix {
        loop_rate: 0.9,
        icall_rate: 0.6,
        ..balanced
    };
    let unions = PhenomenonMix {
        union_rate: 0.9,
        stack_recycle_rate: 0.8,
        struct_ptr_rate: 0.9,
        ..balanced
    };
    let mut texts = Vec::new();
    for (i, (functions, mix)) in [
        (2, balanced),
        (9, balanced),
        (40, balanced),
        (150, balanced),
        (30, loops),
        (30, unions),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = GenSpec {
            name: format!("parse_{i}"),
            functions,
            mix,
            seed: 0x9A45 + i as u64,
        };
        texts.push(print_module(&generate(&spec).module));
    }
    for (i, noise) in [0, 30, 120].into_iter().enumerate() {
        let image = manta_workloads::generate_firmware(&manta_workloads::FirmwareSpec {
            name: format!("fw_{i}"),
            real_bugs_per_class: 1 + noise / 20,
            decoys_per_class: 1 + noise / 14,
            noise_functions: noise,
            seed: 0xF1 + i as u64,
        });
        texts.push(print_module(&image.module));
    }
    texts.push(print_module(&cluster_module(3, 40)));
    texts.extend(HAND_TEXTS.iter().map(|t| t.to_string()));
    texts
}

/// [`module_hash`] of each [`parser_inputs`] text's parse, one per
/// text: the value and instruction arenas the parser builds, in order.
const PARSED_HASHES: [u64; 13] = [
    0xca83_5518_c3f3_5949,
    0xb9ef_e589_9b57_eb5f,
    0x3064_8622_3c4b_162a,
    0x04a5_40f8_87d2_d133,
    0xe6a4_89db_c3aa_e18c,
    0x80f3_61e1_54ad_7a0c,
    0x9c61_90a9_4211_6501,
    0x971a_6db7_6714_6628,
    0x9a32_94bc_3c68_8ae4,
    0x3349_fc5f_a4ff_6b3f,
    0x7393_f8a4_756d_a86c,
    0x028d_3300_126b_f56c,
    0x1916_c154_1a85_2c8d,
];

/// The parser builds the same modules, value for value: params, then
/// defs by number, then constants in first-use order.
#[test]
fn parsed_modules_match_their_pinned_hashes() {
    let inputs = parser_inputs();
    assert_eq!(inputs.len(), PARSED_HASHES.len());
    for (i, (text, want)) in inputs.iter().zip(PARSED_HASHES).enumerate() {
        let module = parse_module(text).unwrap_or_else(|e| panic!("text {i}: {e}"));
        assert_eq!(module_hash(&module), want, "text {i}: the parse moved");
        let (recovered, diagnostics) = parse_module_recovering(text);
        assert!(diagnostics.is_empty(), "text {i}: {diagnostics:?}");
        assert_eq!(
            module_hash(&recovered),
            want,
            "text {i}: the recovering parse moved"
        );
    }
}
