//! Property-based tests spanning crates: text/bytes roundtrips on
//! generated programs, lattice laws exercised through the inference, and
//! metric identities.
//!
//! `proptest` is unavailable offline; the same properties run over a
//! deterministic seeded type/program stream instead (the workload RNG,
//! so every failure reproduces from its printed seed).

use manta::{Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_ir::{parser::parse_module, printer::print_module, Type, Width};
use manta_store::{hash_str, Fingerprint};
use manta_workloads::rng::ChaCha8Rng;
use manta_workloads::{generator, PhenomenonMix};

/// An arbitrary type of bounded depth, mirroring the old proptest
/// strategy: leaves plus recursive pointer/array/object constructors.
fn arb_type(rng: &mut ChaCha8Rng, depth: usize) -> Type {
    let leaves = [
        Type::Top,
        Type::Bottom,
        Type::Int(Width::W8),
        Type::Int(Width::W32),
        Type::Int(Width::W64),
        Type::Float,
        Type::Double,
        Type::Num(Width::W32),
        Type::Num(Width::W64),
        Type::Reg(Width::W64),
    ];
    if depth == 0 || rng.gen_bool(0.4) {
        return leaves[rng.gen_range(0..leaves.len())].clone();
    }
    match rng.gen_range(0..3) {
        0 => Type::ptr(arb_type(rng, depth - 1)),
        1 => Type::array(arb_type(rng, depth - 1), rng.gen_range(1..8u64)),
        _ => {
            let n = rng.gen_range(0..3usize);
            Type::object(
                (0..n)
                    .map(|_| (rng.gen_range(0..4u64) * 8, arb_type(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Lattice laws: join/meet are commutative, idempotent, bounded, and
/// consistent with subtyping.
#[test]
fn lattice_laws() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1a77);
    for case in 0..256 {
        let a = arb_type(&mut rng, 3);
        let b = arb_type(&mut rng, 3);
        assert_eq!(a.join(&b), b.join(&a), "case {case}");
        assert_eq!(a.meet(&b), b.meet(&a), "case {case}");
        assert_eq!(a.join(&a), a.clone(), "case {case}");
        assert_eq!(a.meet(&a), a.clone(), "case {case}");
        assert_eq!(a.join(&Type::Bottom), a.clone(), "case {case}");
        assert_eq!(a.meet(&Type::Top), a.clone(), "case {case}");
        assert_eq!(a.join(&Type::Top), Type::Top, "case {case}");
        assert_eq!(a.meet(&Type::Bottom), Type::Bottom, "case {case}");
        // join is an upper bound, meet a lower bound.
        let j = a.join(&b);
        assert!(a.is_subtype_of(&j), "case {case}: a {} !<: join {}", a, j);
        assert!(b.is_subtype_of(&j), "case {case}: b {} !<: join {}", b, j);
        let m = a.meet(&b);
        assert!(m.is_subtype_of(&a), "case {case}: meet {} !<: a {}", m, a);
        assert!(m.is_subtype_of(&b), "case {case}: meet {} !<: b {}", m, b);
    }
}

/// Subtyping is reflexive and transitive through join.
#[test]
fn subtyping_partial_order() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x2b88);
    for case in 0..256 {
        let a = arb_type(&mut rng, 3);
        let b = arb_type(&mut rng, 3);
        let c = arb_type(&mut rng, 3);
        assert!(a.is_subtype_of(&a), "case {case}");
        if a.is_subtype_of(&b) && b.is_subtype_of(&c) {
            assert!(
                a.is_subtype_of(&c),
                "case {case}: transitivity: {} <: {} <: {}",
                a,
                b,
                c
            );
        }
    }
}

/// `hash_str` of each seed's printed module. Cache keys hash the
/// canonical text, so its bytes must not drift.
const PRINTED_MODULE_HASHES: [u64; 32] = [
    0xd2ba_7a7b_865b_290f,
    0x9045_ad3c_7abc_9117,
    0xbe80_c706_50c2_ea5f,
    0xe966_6575_8926_81f0,
    0x160e_6616_8168_e210,
    0x5c08_f4bd_09b7_cfe6,
    0x26ef_8b3b_22a5_8910,
    0x4909_f7f2_81ba_9fdd,
    0x305b_4d6c_d663_0ace,
    0xca53_0765_d0bb_ec05,
    0xaf76_3e1d_977d_27c8,
    0x68d5_2f23_395d_9b26,
    0xceb1_c6e6_17f2_42ab,
    0x3d9d_8266_08ab_bae0,
    0xbbd5_0cee_934e_dc62,
    0x48ad_4f3c_65d1_4ab9,
    0xea9d_719a_0dcb_9336,
    0x901e_01ed_bb09_a2ea,
    0x626b_ca11_0f56_d0a0,
    0x74d5_e5a6_d7a8_56c0,
    0x0eca_1eab_4c9a_59e1,
    0xfe8b_47b2_7fdc_297a,
    0x038d_e53a_1562_125f,
    0x07bf_b9a4_5c7a_dcd8,
    0xa1b5_0631_f8db_144f,
    0x8899_b3a6_f505_b0ff,
    0xdd96_7d17_c570_c847,
    0x778b_1aae_00e5_c9be,
    0x9bad_5e59_940c_02f1,
    0x7cee_5fb1_d5bf_5796,
    0xe2ff_0605_d707_c0e8,
    0xbd1f_66a1_07e5_a46a,
];

/// Generated programs survive a textual print → parse → print fixpoint,
/// stay verifier-clean, and print byte-identically to the pinned texts.
#[test]
fn generated_ir_text_roundtrip() {
    for seed in 0..32u64 {
        let g = generator::generate(&generator::GenSpec {
            name: "prop".into(),
            functions: 2 + (seed as usize % 8),
            mix: PhenomenonMix::balanced(),
            seed,
        });
        let p1 = print_module(&g.module);
        let parsed = parse_module(&p1).expect("printer output parses");
        manta_ir::verify::verify_module(&parsed).expect("parsed module verifies");
        assert_eq!(p1, print_module(&parsed), "seed {seed}");
        assert_eq!(
            hash_str(&p1),
            PRINTED_MODULE_HASHES[seed as usize],
            "seed {seed}"
        );
    }
}

/// The store's hasher keeps 200 distinct generated module texts apart.
/// (`manta-store` sits below the generator, so this lives here rather
/// than beside the hasher's own tests.)
#[test]
fn generated_module_texts_fingerprint_distinctly() {
    let mut seen: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for seed in 0..200u64 {
        let g = generator::generate(&generator::GenSpec {
            name: "prop".into(),
            functions: 2 + (seed as usize % 8),
            mix: PhenomenonMix::balanced(),
            seed,
        });
        let text = print_module(&g.module);
        let fp = Fingerprint::new().write_str(&text).finish();
        if let Some(earlier) = seen.insert(fp, text.clone()) {
            assert_eq!(earlier, text, "seed {seed}: distinct texts collide");
        }
    }
    assert!(seen.len() > 190, "the generator repeats itself");
}

/// Inference is deterministic and classification counts are consistent
/// with the variable population for every sensitivity.
#[test]
fn inference_deterministic_and_counts_consistent() {
    for seed in 0..16u64 {
        let build = || {
            let g = generator::generate(&generator::GenSpec {
                name: "prop".into(),
                functions: 6,
                mix: PhenomenonMix::balanced(),
                seed,
            });
            ModuleAnalysis::build(g.module)
        };
        let (a1, a2) = (build(), build());
        for s in Sensitivity::ALL {
            let r1 = Manta::new(MantaConfig::with_sensitivity(s)).infer(&a1);
            let r2 = Manta::new(MantaConfig::with_sensitivity(s)).infer(&a2);
            assert_eq!(r1.final_counts(), r2.final_counts(), "seed {seed} {s:?}");
            let non_const: usize = a1
                .module()
                .functions()
                .map(|f| {
                    f.values()
                        .filter(|(_, d)| !matches!(d.kind, manta_ir::ValueKind::Const(_)))
                        .count()
                })
                .sum();
            assert_eq!(r1.final_counts().total(), non_const, "seed {seed} {s:?}");
        }
    }
}

/// The hybrid cascade never classifies fewer variables precisely than
/// plain flow-insensitive inference on the same program.
#[test]
fn cascade_never_loses_precise_count_overall() {
    for seed in 0..16u64 {
        let g = generator::generate(&generator::GenSpec {
            name: "prop".into(),
            functions: 8,
            mix: PhenomenonMix::balanced(),
            seed,
        });
        let analysis = ModuleAnalysis::build(g.module);
        let fi = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        let full = Manta::new(MantaConfig::full()).infer(&analysis);
        assert!(
            full.final_counts().precise >= fi.final_counts().precise,
            "seed {seed}: {:?} < {:?}",
            full.final_counts(),
            fi.final_counts()
        );
    }
}

/// SBF images roundtrip through bytes for arbitrary generated programs
/// expressed in SB-ISA (via the assembler sample corpus).
#[test]
fn sbf_bytes_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for case in 0..24 {
        let nfn = rng.gen_range(1..4usize);
        let imm = rng.gen_range(-1000..1000i64);
        let mut text = String::from("module prop\nextern malloc, 1, ret\n");
        for i in 0..nfn {
            text.push_str(&format!(
                "func f{i}(1) -> ret {{\n    movi r2, {imm}\n    add r0, r1, r2\n    brz r0, out\n    mul r0, r0, r2\nout:\n    ret\n}}\n"
            ));
        }
        let img = manta_isa::assemble(&text).expect("assembles");
        let bytes = manta_isa::encode(&img);
        let back = manta_isa::decode(&bytes).expect("decodes");
        assert_eq!(&img, &back, "case {case}");
        let lifted = manta_isa::lift::lift(&back).expect("lifts");
        manta_ir::verify::verify_module(&lifted).expect("verifies");
    }
}
