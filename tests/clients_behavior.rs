//! Cross-crate behavioral invariants of the §5 clients.

use std::sync::{Mutex, MutexGuard, PoisonError};

use manta::{Manta, MantaConfig, Sensitivity, TypeQuery};
use manta_analysis::ModuleAnalysis;
use manta_clients::{
    ddg_prune, detect_bugs, BugKind, CheckerConfig, CustomChecker, SinkSpec, SlicerConfig,
    SourceSpec,
};
use manta_ir::{ModuleBuilder, Width};
use manta_workloads::{generate_firmware, generator, FirmwareSpec, PhenomenonMix};

fn workload(seed: u64) -> ModuleAnalysis {
    let g = generator::generate(&generator::GenSpec {
        name: format!("inv{seed}"),
        functions: 30,
        mix: PhenomenonMix::balanced(),
        seed,
    });
    ModuleAnalysis::build(g.module)
}

#[test]
fn more_precise_types_prune_at_least_as_many_dependencies() {
    // Table 2 pruning fires only on precisely-resolved types, so a more
    // precise inference can never prune fewer edges.
    for seed in [1u64, 2, 3] {
        let analysis = workload(seed);
        let fi = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        let full = Manta::new(MantaConfig::full()).infer(&analysis);
        let (_, s_fi) = ddg_prune::infeasible_deps(&analysis, &fi);
        let (_, s_full) = ddg_prune::infeasible_deps(&analysis, &full);
        assert!(
            s_full.removed >= s_fi.removed,
            "seed {seed}: full pruned {} < FI {}",
            s_full.removed,
            s_fi.removed
        );
        assert_eq!(s_full.examined, s_fi.examined);
    }
}

#[test]
fn typed_detection_reports_a_subset_of_untyped_reports() {
    // Type guards and DDG pruning only *remove* candidate flows; every
    // typed report must also exist untyped (at (kind, sink) granularity).
    let g = generate_firmware(&FirmwareSpec {
        name: "subset_fw".into(),
        real_bugs_per_class: 2,
        decoys_per_class: 3,
        noise_functions: 15,
        seed: 77,
    });
    let analysis = ModuleAnalysis::build(g.module);
    let inference = Manta::new(MantaConfig::full()).infer(&analysis);
    let (typed, _) = detect_bugs(
        &analysis,
        Some(&inference as &dyn TypeQuery),
        &BugKind::ALL,
        CheckerConfig::default(),
    );
    let (untyped, _) = detect_bugs(&analysis, None, &BugKind::ALL, CheckerConfig::default());
    let untyped_keys: std::collections::BTreeSet<(BugKind, manta_ir::FuncId)> =
        untyped.iter().map(|r| (r.kind, r.func)).collect();
    for r in &typed {
        assert!(
            untyped_keys.contains(&(r.kind, r.func)),
            "typed-only report {:?} in {:?}",
            r.kind,
            r.func
        );
    }
    assert!(
        typed.len() < untyped.len(),
        "types must remove some reports"
    );
}

#[test]
fn typed_slicing_visits_fewer_ddg_nodes() {
    // The paper's timing observation: inferred types stop slicing on
    // incorrect paths, so the typed detector does less traversal work.
    let g = generate_firmware(&FirmwareSpec {
        name: "work_fw".into(),
        real_bugs_per_class: 3,
        decoys_per_class: 3,
        noise_functions: 25,
        seed: 13,
    });
    let analysis = ModuleAnalysis::build(g.module);
    let inference = Manta::new(MantaConfig::full()).infer(&analysis);
    let (_, typed_visits) = detect_bugs(
        &analysis,
        Some(&inference as &dyn TypeQuery),
        &BugKind::ALL,
        CheckerConfig::default(),
    );
    let (_, untyped_visits) = detect_bugs(&analysis, None, &BugKind::ALL, CheckerConfig::default());
    assert!(
        typed_visits < untyped_visits,
        "typed {typed_visits} vs untyped {untyped_visits}"
    );
}

#[test]
fn custom_checker_composes_with_generated_firmware() {
    // A user-defined "taint reaches strcpy destination" checker runs over
    // the same images as the built-ins.
    let g = generate_firmware(&FirmwareSpec {
        name: "custom_fw".into(),
        real_bugs_per_class: 2,
        decoys_per_class: 1,
        noise_functions: 8,
        seed: 5,
    });
    let analysis = ModuleAnalysis::build(g.module);
    let inference = Manta::new(MantaConfig::full()).infer(&analysis);
    let checker = CustomChecker {
        name: "TAINT->STRCPY".into(),
        sources: SourceSpec::ExternReturn("nvram_get".into()),
        sinks: SinkSpec::ExternArg {
            name: "strcpy".into(),
            index: 1,
        },
        numeric_guard: true,
    };
    let reports = checker.detect(
        &analysis,
        Some(&inference as &dyn TypeQuery),
        SlicerConfig::default(),
    );
    // Both real BOFs reach strcpy's source argument.
    let funcs: std::collections::BTreeSet<&str> = reports
        .iter()
        .map(|r| analysis.module().function(r.func).name())
        .collect();
    assert!(funcs.contains("bof_real0"), "{funcs:?}");
    assert!(funcs.contains("bof_real1"), "{funcs:?}");
    // The atol-sanitized decoy is type-pruned.
    assert!(!funcs.contains("bof_decoy0"), "{funcs:?}");
}

#[test]
fn detection_is_deterministic() {
    let run = || {
        let g = generate_firmware(&FirmwareSpec {
            name: "det_fw".into(),
            real_bugs_per_class: 2,
            decoys_per_class: 2,
            noise_functions: 10,
            seed: 21,
        });
        let analysis = ModuleAnalysis::build(g.module);
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let (reports, _) = detect_bugs(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            &BugKind::ALL,
            CheckerConfig::default(),
        );
        reports
            .into_iter()
            .map(|r| {
                (
                    r.kind,
                    analysis.module().function(r.func).name().to_string(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn builtin_specs_run_as_custom_checkers_report_what_detect_bugs_does() {
    // The slicing checkers are specs on the custom-checker driver, so the
    // public path reports exactly what `detect_bugs` does, typed and
    // untyped, on firmware images and on a suite project.
    let mut modules: Vec<manta_ir::Module> = [3u64, 11, 29]
        .into_iter()
        .map(|seed| {
            generate_firmware(&FirmwareSpec {
                name: format!("spec_fw{seed}"),
                real_bugs_per_class: 2,
                decoys_per_class: 2,
                noise_functions: 10,
                seed,
            })
            .module
        })
        .collect();
    modules.push(manta_workloads::project_suite()[2].generate().module);
    let mut compared = 0;
    for module in modules {
        let analysis = ModuleAnalysis::build(module);
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        for types in [Some(&inference as &dyn TypeQuery), None] {
            for kind in BugKind::ALL {
                let Some(spec) = kind.spec() else { continue };
                let (builtin, _) = detect_bugs(&analysis, types, &[kind], CheckerConfig::default());
                let custom = spec.detect(&analysis, types, SlicerConfig::default());
                let mut custom: Vec<_> = custom
                    .iter()
                    .map(|r| (r.func, r.sink_site, r.source, r.sink))
                    .collect();
                let mut builtin: Vec<_> = builtin
                    .iter()
                    .map(|r| (r.func, r.sink_site, r.source, r.sink))
                    .collect();
                custom.sort();
                builtin.sort();
                assert_eq!(custom, builtin, "{kind:?}, typed: {}", types.is_some());
                compared += builtin.len();
            }
        }
    }
    assert!(compared > 0, "the corpus must raise some reports");
}

/// Serializes the tests that read the process-global telemetry registry.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The checkers' refutations on the path an audit runs: a callee that
/// returns its caller's stack buffer is no escape (RSA's same-frame
/// rule), beside one true RSA and one true CMI bug. The sink guard has
/// no case here: every built-in sink's own dereference or call reveals
/// a pointer at its site, so no built-in sink is numeric there.
#[test]
fn refuted_alarms_are_pruned_on_the_audit_path() {
    let mut mb = ModuleBuilder::new("refutations");
    let nvram = mb.extern_fn("nvram_get", &[], None);
    let system = mb.extern_fn("system", &[], None);
    // fill(p) { return p; } handed its caller's alloca: legal.
    let (fill, mut cb) = mb.function("fill", &[Width::W64], Some(Width::W64));
    let p = cb.param(0);
    cb.ret(Some(p));
    mb.finish_function(cb);
    let (_, mut fb) = mb.function("caller", &[], None);
    let local = fb.alloca(16);
    fb.call(fill, &[local], Some(Width::W64));
    fb.ret(None);
    mb.finish_function(fb);
    // escape() { return alloca; }: a true RSA.
    let (_, mut eb) = mb.function("escape", &[], Some(Width::W64));
    let slot = eb.alloca(32);
    eb.ret(Some(slot));
    mb.finish_function(eb);
    // direct(): system(nvram_get(k)), a true CMI.
    let (_, mut db) = mb.function("direct", &[], None);
    let key = db.alloca(8);
    let taint = db.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
    db.call_extern(system, &[taint], Some(Width::W32));
    db.ret(None);
    mb.finish_function(db);

    let analysis = ModuleAnalysis::build(mb.finish());
    let inference = Manta::new(MantaConfig::full()).infer(&analysis);
    let _l = lock();
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let (reports, _) = detect_bugs(
        &analysis,
        Some(&inference as &dyn TypeQuery),
        &BugKind::ALL,
        CheckerConfig::default(),
    );
    let counters = manta_telemetry::report().counters;
    manta_telemetry::set_enabled(false);
    let module = analysis.module();
    let got: Vec<(BugKind, &str)> = reports
        .iter()
        .map(|r| (r.kind, module.function(r.func).name()))
        .collect();
    assert_eq!(
        got,
        [(BugKind::Rsa, "escape"), (BugKind::Cmi, "direct")],
        "{reports:?}"
    );
    // Other tests of this file may add to the global counter meanwhile,
    // never take from it.
    let pruned = counters.get("checker.alarms_pruned").copied().unwrap_or(0);
    assert!(pruned >= 1, "the same-frame rule refutes fill's return");
}
