//! Bit-identity across the ways of running the staged [`Engine`].
//!
//! `Manta::infer`, an attached cache (cold, warm and fuel-budgeted),
//! batch and whole-module scheduling, `infer_module` with its early
//! cache probe, and provenance recording must all
//! produce exactly the bytes a plain engine produces for the same
//! configuration: same variable/object/site maps, same stage counts,
//! same degradation records. Identity is checked through
//! [`manta::cache::results_identical`], i.e. over the full canonical
//! encoding (which includes degradations), across sensitivities, thread
//! counts, and warm/cold caches.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use manta::cache::{encode_result, results_identical};
use manta::{AnalysisCache, Engine, InferenceResult, Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_resilience::{BudgetSpec, MantaError};
use manta_store::TempDir;
use manta_workloads::generator::{generate, GenSpec};
use manta_workloads::{PhenomenonMix, ProjectSpec};

const SENSITIVITIES: [Sensitivity; 5] = [
    Sensitivity::Fi,
    Sensitivity::Fs,
    Sensitivity::FiFs,
    Sensitivity::FiCsFs,
    Sensitivity::FiFsCs,
];

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

/// A unique temp dir (removed when the guard drops) and its path.
fn temp_dir(tag: &str) -> (TempDir, PathBuf) {
    let tmp = TempDir::new(&format!("parity-it-{tag}"));
    let dir = tmp.path().to_path_buf();
    (tmp, dir)
}

/// A small multi-project suite: phenomenon-diverse generated programs,
/// prepared through the checked loader the eval harness uses.
fn suite() -> Vec<ModuleAnalysis> {
    let specs: Vec<ProjectSpec> = ["nacre", "opal", "pyrite", "quartz"]
        .iter()
        .enumerate()
        .map(|(i, name)| ProjectSpec {
            name: (*name).to_string(),
            kloc: 1.0,
            functions: 5,
            mix: PhenomenonMix::balanced(),
            seed: 7000 + i as u64,
        })
        .collect();
    let load = manta_eval::load_specs_checked(specs, BudgetSpec::default());
    assert!(load.failures.is_empty(), "suite must build cleanly");
    load.projects.into_iter().map(|p| p.analysis).collect()
}

/// `Manta::infer` agrees with the engine for every sensitivity over the
/// whole suite.
#[test]
fn plain_infer_matches_the_engine() {
    for analysis in &suite() {
        for sens in SENSITIVITIES {
            let config = MantaConfig::with_sensitivity(sens);
            let via_engine = Engine::new(config)
                .analyze(analysis)
                .expect("non-strict cannot fail");
            assert!(
                results_identical(&Manta::new(config).infer(analysis), &via_engine),
                "{sens:?}: infer != Engine::analyze"
            );
        }
    }
}

/// A cached engine's cold and warm runs match the uncached engine bit
/// for bit, and a fuel-budgeted cached run matches its uncached twin.
#[test]
fn cached_paths_match_cold_and_warm() {
    let analysis = &suite()[1];
    let (_tmp, dir) = temp_dir("cached");
    let cache = std::sync::Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache.clone())
        .build()
        .expect("prebuilt cache cannot fail to attach");
    let uncached = Engine::new(MantaConfig::full())
        .analyze(analysis)
        .expect("non-strict cannot fail");

    let cold = engine.analyze(analysis).expect("non-strict cannot fail");
    assert!(
        results_identical(&uncached, &cold),
        "cold: cached Engine::analyze != uncached"
    );
    let warm = engine.analyze(analysis).expect("non-strict cannot fail");
    assert!(results_identical(&cold, &warm), "warm == cold");

    // Fuel is part of the key, so this computes a fresh entry.
    let spec = BudgetSpec {
        fuel: Some(10_000_000),
        deadline_ms: None,
    };
    let fueled_engine = |cache: Option<std::sync::Arc<AnalysisCache>>| {
        let mut builder = Engine::builder().config(MantaConfig::full()).budget(spec);
        if let Some(cache) = cache {
            builder = builder.cache(cache);
        }
        builder.build().expect("engine build cannot fail")
    };
    let fueled_uncached = fueled_engine(None)
        .analyze(analysis)
        .expect("non-strict cannot fail");
    let fueled_cached = fueled_engine(Some(cache))
        .analyze(analysis)
        .expect("non-strict cannot fail");
    assert!(
        results_identical(&fueled_uncached, &fueled_cached),
        "fueled: cached Engine::analyze != uncached"
    );
}

/// Engine results are invariant under the pool size, matching the
/// `Manta::infer` results computed at the default thread count.
#[test]
fn engine_results_are_thread_count_invariant() {
    let _l = lock();
    let _restore = ThreadGuard;
    let suite = suite();
    let engine = Engine::new(MantaConfig::full());
    let manta = Manta::new(MantaConfig::full());
    let baselines: Vec<_> = suite.iter().map(|a| manta.infer(a)).collect();
    for threads in [1usize, 2, 8] {
        manta_parallel::set_threads(threads);
        for (analysis, baseline) in suite.iter().zip(&baselines) {
            let r = engine.analyze(analysis).expect("non-strict cannot fail");
            assert!(
                results_identical(&r, baseline),
                "threads={threads}: engine result diverges from the baseline"
            );
        }
    }
}

/// `analyze_batch` is element-wise identical to sequential `analyze`,
/// and `analyze_module` equals substrate build + analyze.
#[test]
fn batch_and_module_entrypoints_match_their_composites() {
    let _l = lock();
    let _restore = ThreadGuard;
    let suite = suite();
    let engine = Engine::new(MantaConfig::full());
    for threads in [1usize, 8] {
        manta_parallel::set_threads(threads);
        let batch = engine.analyze_batch(&suite);
        assert_eq!(batch.len(), suite.len());
        for (analysis, batched) in suite.iter().zip(batch) {
            let single = engine.analyze(analysis).expect("non-strict cannot fail");
            let batched = batched.expect("non-strict cannot fail");
            assert!(
                results_identical(&single, &batched),
                "threads={threads}: batch result diverges from single analyze"
            );
        }
    }

    let module = suite[0].module().clone();
    let (analysis, result) = engine
        .analyze_module(module)
        .expect("non-strict cannot fail");
    let direct = engine.analyze(&analysis).expect("non-strict cannot fail");
    assert!(
        results_identical(&result, &direct),
        "analyze_module != build_substrate + analyze"
    );
}

/// Provenance recording must be a pure observer: results from a
/// provenance-enabled engine are bit-identical to the plain engine's,
/// cold and warm through the cache, and the persisted graph round-trips
/// byte-for-byte.
#[test]
fn provenance_recording_never_perturbs_results() {
    let _l = lock();
    for (i, analysis) in suite().iter().enumerate() {
        let base = Engine::new(MantaConfig::full())
            .analyze(analysis)
            .expect("non-strict cannot fail");
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .provenance(true)
            .build()
            .expect("cacheless engine cannot fail to build");
        let (observed, graph) = engine
            .analyze_explained(analysis)
            .expect("non-strict cannot fail");
        assert!(
            results_identical(&base, &observed),
            "project {i}: provenance recording changed the result bytes"
        );
        let graph = graph.expect("provenance-enabled engine returns a graph");
        assert!(!graph.is_empty(), "project {i}: graph must record facts");
    }

    // Cached: the graph persists next to the result; a warm hit serves
    // byte-identical payloads for both.
    let (_tmp, dir) = temp_dir("prov");
    let cache = std::sync::Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .cache(cache)
        .build()
        .expect("prebuilt cache cannot fail to attach");
    let analysis = &suite()[0];
    let (cold_res, cold_graph) = engine
        .analyze_explained(analysis)
        .expect("non-strict cannot fail");
    let (warm_res, warm_graph) = engine
        .analyze_explained(analysis)
        .expect("non-strict cannot fail");
    assert!(results_identical(&cold_res, &warm_res));
    assert_eq!(
        cold_graph.expect("cold graph").encode(),
        warm_graph.expect("warm graph").encode(),
        "warm graph must be byte-identical to the cold one"
    );
    let plain = Engine::new(MantaConfig::full())
        .analyze(analysis)
        .expect("non-strict cannot fail");
    assert!(
        results_identical(&plain, &cold_res),
        "cached provenance run must match the plain engine"
    );
}

/// A raw (not yet preprocessed) generated module.
fn raw_module(name: &str, functions: usize, seed: u64) -> manta_ir::Module {
    generate(&GenSpec {
        name: name.to_string(),
        functions,
        mix: PhenomenonMix::balanced(),
        seed,
    })
    .module
}

/// `infer_module` — the entry that probes the cache right after
/// preprocessing — returns `analyze_module`'s bytes for every
/// sensitivity, on the miss that fills the cache and on the hit, with
/// one lookup per call.
#[test]
fn infer_module_matches_analyze_module_cold_and_warm() {
    let module = raw_module("infer_module", 6, 41);
    let (_tmp, dir) = temp_dir("infer-module");
    let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    for sens in SENSITIVITIES {
        let config = MantaConfig::with_sensitivity(sens);
        let (_, want) = Engine::new(config)
            .analyze_module(module.clone())
            .expect("non-strict cannot fail");
        let engine = Engine::builder()
            .config(config)
            .cache(Arc::clone(&cache))
            .build()
            .expect("prebuilt cache cannot fail to attach");
        for pass in ["cold", "warm"] {
            let (_, got) = engine
                .infer_module(module.clone())
                .expect("non-strict cannot fail");
            assert_eq!(
                encode_result(&got),
                encode_result(&want),
                "{sens:?} ({pass}): infer_module != analyze_module"
            );
        }
    }
    let s = cache.store().stats().snapshot();
    assert_eq!((s.hits, s.misses), (5, 5), "one lookup per call");
}

/// A fuel-limited cached analyze charges the caller's running budget:
/// `analyze_module` shares one budget between the substrate and the
/// analyze, so the cache must key by the fuel left at lookup and run a
/// miss on that budget. Cached and uncached runs then agree — results
/// and errors alike — at every fuel value, cold and warm.
#[test]
fn fueled_analyze_module_matches_uncached_at_every_fuel() {
    // Eight functions: the substrate takes 72 fuel and the full cascade
    // 237, so the sweep crosses substrate errors, degraded tiers and
    // complete results.
    let module = raw_module("fuel_sweep", 2, 7);
    let (_tmp, dir) = temp_dir("fuel-sweep");
    let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    let bytes = |out: Result<(ModuleAnalysis, InferenceResult), MantaError>| {
        out.map(|(_, result)| (encode_result(&result), result.is_degraded()))
    };
    let mut seen = [false; 3];
    for fuel in 1..400u64 {
        let spec = BudgetSpec {
            fuel: Some(fuel),
            deadline_ms: None,
        };
        let plain = Engine::builder()
            .config(MantaConfig::full())
            .budget(spec)
            .build()
            .expect("cacheless build cannot fail");
        let cached = Engine::builder()
            .config(MantaConfig::full())
            .budget(spec)
            .cache(Arc::clone(&cache))
            .build()
            .expect("prebuilt cache cannot fail to attach");
        let want = bytes(plain.analyze_module(module.clone()));
        seen[match &want {
            Err(_) => 0,
            Ok((_, true)) => 1,
            Ok((_, false)) => 2,
        }] = true;
        for pass in ["cold", "warm"] {
            assert_eq!(
                bytes(cached.analyze_module(module.clone())),
                want,
                "fuel {fuel} ({pass}): cached analyze_module != uncached"
            );
        }
    }
    assert_eq!(seen, [true; 3], "errors, degraded and complete results");
}
