//! Bit-identity of the compositional summary path against whole-module
//! solves, and precision of its invalidation.
//!
//! A summary-mode engine must be a pure performance feature: for every
//! sensitivity (including the ineligible standalone-FS, which falls
//! through to the full pipeline), every fuel budget (which bypasses the
//! summary path entirely), and every pool size, its results must be
//! byte-for-byte the results of a fresh whole-module solve. On top of
//! identity, the edit storm pins *precision*: across 200 seeded
//! single-function edits, only the chunks whose recorded footprints
//! actually cover a changed input may recompute — everything else
//! replays.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use manta::cache::results_identical;
use manta::{summaries, AnalysisCache, Engine, Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_ir::{BinOp, ModuleBuilder, Width};
use manta_resilience::{Budget, BudgetSpec};
use manta_store::TempDir;

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
    let tmp = TempDir::new(&format!("summ-it-{tag}"));
    let dir = tmp.path().to_path_buf();
    (tmp, dir)
}

/// The same workload shape the summary benchmark uses, small: `CLUSTERS`
/// independent call clusters, each a `DEPTH`-deep relay chain fed by
/// `USERS` polymorphic callers. Cluster membership is the function-name
/// prefix, which is what lets every test predict the exact summary-dirty
/// set of an edit: perturbing the constant in `u{k}_0` dirties cluster
/// `k` and nothing else.
const CLUSTERS: usize = 8;
const DEPTH: usize = 6;
const USERS: usize = 2;

fn module(edit: Option<(usize, u64)>) -> manta_ir::Module {
    let mut mb = ModuleBuilder::new("summparity");
    let malloc = mb.extern_fn("malloc", &[], None);
    for k in 0..CLUSTERS {
        let mut next = None;
        for i in (0..DEPTH).rev() {
            let (f, mut fb) = mb.function(&format!("w{k}_{i}"), &[Width::W64], Some(Width::W64));
            let x = fb.param(0);
            let _ = fb.binop(BinOp::Add, x, x, Width::W64);
            let out = match next {
                Some(callee) => fb.call(callee, &[x], Some(Width::W64)).unwrap(),
                None => x,
            };
            fb.ret(Some(out));
            mb.finish_function(fb);
            next = Some(f);
        }
        let head = next.expect("DEPTH > 0");
        for u in 0..USERS {
            let (_, mut ub) = mb.function(&format!("u{k}_{u}"), &[Width::W64], None);
            if u % 2 == 0 {
                let c = match edit {
                    Some((ek, v)) if ek == k => 7 + v,
                    _ => 7,
                };
                let n = ub.const_int(c as i64, Width::W64);
                let p = ub.param(0);
                let n2 = ub.binop(BinOp::Mul, n, p, Width::W64);
                let r = ub.call(head, &[n2], Some(Width::W64)).unwrap();
                let s = ub.alloca(8);
                ub.store(s, r);
            } else {
                let sz = ub.const_int(16, Width::W64);
                let buf = ub.call_extern(malloc, &[sz], Some(Width::W64)).unwrap();
                let r = ub.call(head, &[buf], Some(Width::W64)).unwrap();
                let _ = ub.load(r, Width::W64);
            }
            ub.ret(None);
            mb.finish_function(ub);
        }
    }
    mb.finish()
}

fn analysis(edit: Option<(usize, u64)>) -> ModuleAnalysis {
    ModuleAnalysis::build(module(edit))
}

fn summary_engine(config: MantaConfig, dir: &PathBuf) -> Engine {
    let cache = Arc::new(AnalysisCache::open(dir).expect("open cache"));
    Engine::builder()
        .config(config)
        .cache(cache)
        .summaries(true)
        .build()
        .expect("prebuilt cache cannot fail to attach")
}

/// Cold run, then two successive edits, for every sensitivity — each
/// result must be byte-identical to a fresh whole-module solve. The
/// standalone-FS row exercises the ineligibility fall-through (its
/// global alias classes cannot be chunked), not the summary codec.
#[test]
fn summary_engine_matches_plain_solve_across_sensitivities() {
    for sens in SENSITIVITIES {
        let config = MantaConfig::with_sensitivity(sens);
        let (_tmp, dir) = temp_dir(&format!("sens-{sens:?}"));
        let engine = summary_engine(config, &dir);
        let manta = Manta::new(config);
        for edit in [None, Some((0, 3)), Some((5, 9))] {
            let a = analysis(edit);
            let via_summary = engine.analyze(&a).expect("non-strict cannot fail");
            assert!(
                results_identical(&via_summary, &manta.infer(&a)),
                "{sens:?} edit {edit:?}: summary engine diverged from Manta::infer"
            );
        }
    }
}

/// Fuel-limited budgets must bypass the summary path (a blown budget
/// has to trip exactly where the full pipeline would) while staying
/// byte-identical to the legacy resilient solve — cold and warm, across
/// exhaustion regimes from trivially blown to effectively unlimited.
#[test]
fn fuel_budgets_bypass_summaries_but_stay_correct() {
    let a = analysis(None);
    let plain = Engine::new(MantaConfig::full());
    for fuel in [0u64, 500, 50_000, u64::MAX] {
        let (_tmp, dir) = temp_dir(&format!("fuel-{fuel}"));
        let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .budget(BudgetSpec {
                fuel: Some(fuel),
                deadline_ms: None,
            })
            .cache(cache)
            .summaries(true)
            .build()
            .expect("prebuilt cache cannot fail to attach");
        let legacy = plain
            .analyze_with_budget(&a, &Budget::with_fuel(fuel))
            .expect("non-strict cannot fail");
        for round in ["cold", "warm"] {
            let r = engine.analyze(&a).expect("non-strict cannot fail");
            assert!(
                results_identical(&r, &legacy),
                "fuel {fuel} ({round}): fueled summary engine diverged"
            );
        }
    }
}

/// One summary engine carried across pool sizes: dirty chunks
/// dispatched over 1, 2 and 8 threads must replay and recompute to the
/// same bytes a fresh single-path solve produces.
#[test]
fn summary_results_are_thread_count_invariant() {
    let _l = lock();
    let _restore = ThreadGuard;
    let config = MantaConfig::full();
    let (_tmp, dir) = temp_dir("threads");
    let engine = summary_engine(config, &dir);
    let manta = Manta::new(config);
    let base = analysis(None);
    engine.analyze(&base).expect("non-strict cannot fail");
    for (i, threads) in [1usize, 2, 8].into_iter().enumerate() {
        manta_parallel::set_threads(threads);
        let a = analysis(Some((i % CLUSTERS, 20 + i as u64)));
        let r = engine.analyze(&a).expect("non-strict cannot fail");
        assert!(
            results_identical(&r, &manta.infer(&a)),
            "threads={threads}: summary engine diverged after an edit"
        );
    }
}

/// The edit storm: 200 seeded single-function edits chained through one
/// evolving summary state, like an editing session. Moving from the
/// previous edit (cluster `j`) to the next (cluster `k`) changes two
/// functions' text — `u{j}_0` reverts, `u{k}_0` retunes — so the
/// summary-dirty set is exactly clusters `j` and `k`. Every seed
/// asserts the recompute set stays inside that bound, that the edited
/// function itself recomputed, that every other cluster replayed, and
/// that the result matches a fresh whole-module solve byte for byte.
#[test]
fn edit_storm_recomputes_only_the_dirty_clusters() {
    let config = MantaConfig::full();
    let manta = Manta::new(config);
    let (_, mut state, _) = summaries::solve(&analysis(None), &config, None);
    let mut prev_cluster: Option<usize> = None;
    for seed in 0..200u64 {
        // A multiplicative stride walks the clusters in a scrambled
        // order so consecutive seeds exercise both near and far
        // cluster pairs.
        let cluster = ((seed * 5 + 3) % CLUSTERS as u64) as usize;
        let a = analysis(Some((cluster, seed + 1)));
        let (result, new_state, report) = summaries::solve(&a, &config, Some(&state));

        assert!(
            !report.reused.is_empty(),
            "seed {seed}: clean clusters must replay"
        );
        let dirty_ok = |name: &str| {
            let in_cluster = |k: usize| {
                name.starts_with(&format!("w{k}_")) || name.starts_with(&format!("u{k}_"))
            };
            in_cluster(cluster) || prev_cluster.is_some_and(in_cluster)
        };
        for name in &report.recomputed {
            assert!(
                dirty_ok(name),
                "seed {seed}: recompute leaked outside the dirty clusters \
                 ({cluster} and {prev_cluster:?}): {name}"
            );
        }
        assert!(
            report
                .recomputed
                .iter()
                .any(|n| n == &format!("u{cluster}_0")),
            "seed {seed}: the edited function must recompute: {report:?}"
        );
        for name in &report.reused {
            assert!(
                !name.starts_with(&format!("w{cluster}_")),
                "seed {seed}: a chain link of the edited cluster replayed stale data: {name}"
            );
        }
        assert!(
            results_identical(&result, &manta.infer(&a)),
            "seed {seed}: summary solve diverged from the whole-module solve"
        );
        // Replayed chunks and reused footprint lists carry over as bytes;
        // lists no chunk cites any more must not pile up.
        let (_, cold, _) = summaries::solve(&a, &config, None);
        assert!(
            new_state.len() * 4 <= cold.len() * 5,
            "seed {seed}: the evolved state is {} bytes, a cold one {}",
            new_state.len(),
            cold.len()
        );

        state = new_state;
        prev_cluster = Some(cluster);
    }
}

/// A summary-mode edit reads its state once: the cold miss finds no
/// `fsum` entry, and the edit's miss reads the one the cold run wrote.
#[test]
fn a_summary_edit_reads_its_state_once() {
    let (_tmp, dir) = temp_dir("one-read");
    let engine = summary_engine(MantaConfig::full(), &dir);
    for edit in [None, Some((2, 5))] {
        engine
            .analyze(&analysis(edit))
            .expect("non-strict cannot fail");
    }
    let cache = engine.cache().expect("attached");
    assert_eq!(
        cache.store().kind_traffic(),
        [("fsum", 1, 1), ("infer", 0, 2)],
        "one state read per miss"
    );
}

/// A state written by the previous codec (version 4; here its empty
/// form) is not a v5 state: it counts as corrupt, replays nothing, and
/// the solve is the whole-module one. Through the engine it is also
/// discarded as store corruption.
#[test]
fn a_version_4_state_reads_as_corrupt_and_recomputes() {
    let config = MantaConfig::full();
    let a = analysis(Some((1, 4)));
    let want = Manta::new(config).infer(&a);
    let mut v4 = 4u32.to_le_bytes().to_vec();
    v4.extend_from_slice(&0u64.to_le_bytes()); // no footprint lists
    v4.extend_from_slice(&0u64.to_le_bytes()); // no stages

    let corrupt = || manta_telemetry::report().counter("summary.state_corrupt");
    manta_telemetry::set_enabled(true);
    let before = corrupt();
    let (result, _, report) = summaries::solve(&a, &config, Some(&v4));
    let counted = corrupt() - before;
    manta_telemetry::set_enabled(false);
    assert_eq!(counted, 1, "summary.state_corrupt");
    assert!(report.reused.is_empty(), "{report:?}");
    assert!(results_identical(&result, &want));

    let (_tmp, dir) = temp_dir("v4");
    let engine = summary_engine(config, &dir);
    let cache = engine.cache().expect("attached");
    let key = summaries::state_key(a.module().name(), &config);
    cache.store().put(&key, &v4).expect("checksum-valid put");
    let r = engine.analyze(&a).expect("non-strict cannot fail");
    assert!(results_identical(&r, &want));
    let degradations = cache.take_degradations();
    assert_eq!(degradations.len(), 1, "{degradations:?}");
    assert_eq!(cache.store().stats().snapshot().invalidations, 1);
}
