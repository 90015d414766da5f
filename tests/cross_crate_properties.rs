//! Property-based tests spanning crates: text/bytes roundtrips on
//! generated programs, lattice laws exercised through the inference, and
//! metric identities.
//!
//! `proptest` is unavailable offline; the same properties run over a
//! deterministic seeded type/program stream instead (the workload RNG,
//! so every failure reproduces from its printed seed).

use manta::cache::{decode_result, encode_result};
use manta::{Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_ir::{parser::parse_module, printer::print_module, Type, Width};
use manta_store::{hash_bytes, hash_str, Fingerprint};
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

/// The generated modules [`RESULT_HASHES`] pins, by seed.
fn result_module(seed: u64) -> ModuleAnalysis {
    let g = generator::generate(&generator::GenSpec {
        name: "bytes".into(),
        functions: 4 + (seed as usize % 8),
        mix: PhenomenonMix::balanced(),
        seed,
    });
    ModuleAnalysis::build(g.module)
}

/// `hash_bytes` of each seed's encoded inference result, one per
/// sensitivity in `Sensitivity::WITH_REVERSED` order. Cached results,
/// the daemon's answers and the summary state all carry these bytes, so
/// the result encoding must not drift.
const RESULT_HASHES: [[u64; 5]; 20] = [
    [
        0x2fa5_2a16_6ca8_b1ca,
        0xcdf8_5f05_7be7_0c8d,
        0x05a4_f93b_c75f_9ffa,
        0x2f9f_8943_c349_76d0,
        0xd0ec_43e7_3dce_f6b0,
    ],
    [
        0x6a0d_2d5b_d24d_5b3a,
        0xa213_2631_43c3_067b,
        0x5677_5aaf_6ca2_a334,
        0x7051_ee0d_d8cc_50b1,
        0x3d62_52a5_ac90_878e,
    ],
    [
        0xcbd9_2958_7bb1_d609,
        0x4d17_8396_b04a_4cc1,
        0x1d89_cdee_459c_2468,
        0xfc50_5064_a1bf_e458,
        0x112b_54ed_fb86_04b8,
    ],
    [
        0x4d80_88fb_9191_bfe9,
        0x4bd1_c584_fad6_42a2,
        0x4da3_1f11_6000_c670,
        0x6a0e_a917_c3b2_c642,
        0xe248_8cac_be14_4f57,
    ],
    [
        0xa9df_1af1_7b49_1d58,
        0xe671_eb6d_d801_6944,
        0x5f58_72c3_f187_3e68,
        0x7762_2155_b875_e22e,
        0x9f12_a2af_9dd4_f084,
    ],
    [
        0xa429_ae3f_20f2_afbd,
        0x7512_ac2e_853d_74d6,
        0xef8c_2446_ec87_1f9d,
        0xba8e_5f70_8b73_1058,
        0xbb0c_a5ca_2c87_1d69,
    ],
    [
        0x2264_b63e_2207_40ef,
        0xa6ff_981d_94e5_da73,
        0x705a_a713_3bcf_91fb,
        0x0132_d98b_c488_e9b8,
        0xe33d_e5f9_267e_c3c2,
    ],
    [
        0x8641_a3fd_dd89_cf5a,
        0x8035_2fc6_103b_0e56,
        0x6cda_7be2_8c71_d75c,
        0xd4c2_d6ea_47b6_4920,
        0x55da_3b51_8bd8_9e69,
    ],
    [
        0xb943_dfd7_1348_7ee6,
        0x1bba_c207_a1b9_9963,
        0x6a38_7069_9e5d_53bd,
        0x5f02_aa99_daeb_0d99,
        0x3e73_b25c_1fd0_31ba,
    ],
    [
        0xf4f5_72d4_dc6a_d93d,
        0x1e11_ce52_1eea_4370,
        0x7bbe_de23_2698_0693,
        0xc1ce_eeff_e38e_b1ca,
        0x1d07_7ab0_2da7_2bfd,
    ],
    [
        0x1872_588e_3cfe_09dc,
        0xe66f_cf1b_42bc_23ce,
        0x3859_e3c8_1738_5deb,
        0x3dd5_0092_2433_e8b6,
        0x3061_acb1_fda6_b7f7,
    ],
    [
        0x5eeb_8892_f9b3_8d40,
        0x704f_75ff_6b3b_9de8,
        0xfcf7_4d83_53af_5d2b,
        0xcfbe_c81e_f70a_3b29,
        0x8a22_fa12_9ecd_151e,
    ],
    [
        0x6124_b7a4_99a5_a58a,
        0xe873_d49a_517f_7ef5,
        0x0603_c8a2_934f_27db,
        0x82ce_3c40_6259_2265,
        0xa286_09a1_b416_e97a,
    ],
    [
        0xf5b2_7852_9cf0_ed8e,
        0x0c59_ce94_fbbb_7c25,
        0x73ad_7f9b_1c09_e9a1,
        0xbf91_7a62_4de4_0d2b,
        0x28c3_e47d_c4ab_5472,
    ],
    [
        0xfd7a_d651_3626_ba5b,
        0x7c78_bacf_1256_92af,
        0x5bbb_cf15_647e_ca7d,
        0x8c38_de7d_50cc_ac12,
        0x9c71_ad7f_3634_0ea2,
    ],
    [
        0x7309_ccf1_d7bd_3c0b,
        0x7073_2a56_11a8_011a,
        0x70d4_0669_144b_4316,
        0x3cf3_b338_7c0b_49a5,
        0x62b3_a55b_2ddf_acf9,
    ],
    [
        0xba2d_37e2_b683_7e10,
        0x0737_6f7f_39d0_11cd,
        0x9ef0_50ab_df06_c1f0,
        0x4ffc_5819_8342_7506,
        0xb3dd_99ce_aeeb_c37f,
    ],
    [
        0x9afd_8724_7c1a_4e8c,
        0x78ea_2b1f_7c5c_e401,
        0xbe20_a3a2_be07_2ecc,
        0xc9a4_312e_2b15_b32b,
        0x4bbf_5d47_7eb2_e34b,
    ],
    [
        0x4c7f_e080_eb8f_556d,
        0x4aad_bd91_fe3a_c09f,
        0x65fa_32f1_84b0_2b0f,
        0xa704_e155_8fd1_92aa,
        0x3c73_ff6a_956e_20bd,
    ],
    [
        0xbc7a_37e0_a794_5100,
        0xf456_bf22_e411_a779,
        0x50e1_6452_1a68_d974,
        0x5428_99d2_fbb9_d3c3,
        0x1475_3a86_570d_6f8b,
    ],
];

/// Every sensitivity's result encodes to the pinned bytes on generated
/// modules, and decoding then re-encoding reproduces them exactly.
#[test]
fn result_bytes_are_pinned_and_survive_a_decode() {
    for seed in 0..20u64 {
        let analysis = result_module(seed);
        for (k, s) in Sensitivity::WITH_REVERSED.into_iter().enumerate() {
            let result = Manta::new(MantaConfig::with_sensitivity(s)).infer(&analysis);
            let bytes = encode_result(&result);
            assert_eq!(
                hash_bytes(&bytes),
                RESULT_HASHES[seed as usize][k],
                "seed {seed} {s:?}"
            );
            let back = decode_result(&bytes).expect("an encoded result decodes");
            assert!(
                encode_result(&back) == bytes,
                "seed {seed} {s:?}: re-encode"
            );
        }
    }
}
