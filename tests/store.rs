//! Robustness contracts of the persistent analysis cache.
//!
//! The store may *never* change an answer or take down a run: any
//! corruption — truncation, bit flips, wrong magic, future versions,
//! a vandalized manifest — must degrade to a recompute that yields the
//! exact result an uncached run produces. These tests drive a 500-seed
//! corruption fuzz over real entry files, round-trip the inference
//! codec across every sensitivity, and pin warm-equals-cold equality
//! across thread counts and fuel budgets.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use manta::cache::{config_hash, decode_result, encode_result};
use manta::{AnalysisCache, Engine, Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_resilience::BudgetSpec;
use manta_store::hash::SplitMix64;
use manta_store::TempDir;
use manta_workloads::generator::{generate, GenSpec};
use manta_workloads::{PhenomenonMix, ProjectSpec};

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
    let tmp = TempDir::new(&format!("store-it-{tag}"));
    let dir = tmp.path().to_path_buf();
    (tmp, dir)
}

fn analysis(seed: u64, functions: usize) -> ModuleAnalysis {
    ModuleAnalysis::build(
        generate(&GenSpec {
            name: format!("store_it_{seed}"),
            functions,
            mix: PhenomenonMix::balanced(),
            seed,
        })
        .module,
    )
}

/// Three tiny generated programs, analyzed once.
fn tiny_programs() -> Vec<ModuleAnalysis> {
    ["ash", "birch", "cedar"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = ProjectSpec {
                name: (*name).to_string(),
                kloc: 1.0,
                functions: 4,
                mix: PhenomenonMix::balanced(),
                seed: 400 + i as u64,
            };
            ModuleAnalysis::build(spec.generate().module)
        })
        .collect()
}

/// Analyzes every program through `engine`, returning each result's
/// canonical encoding and the store hits and misses the calls caused.
fn analyze_all(engine: &Engine, programs: &[ModuleAnalysis]) -> (Vec<Vec<u8>>, u64, u64) {
    let store = engine.cache().expect("cache attached").store();
    let stats = || {
        let s = store.stats().snapshot();
        (s.hits, s.misses)
    };
    let (hits, misses) = stats();
    let encoded = programs
        .iter()
        .map(|a| encode_result(&engine.analyze(a).expect("non-strict analyze cannot fail")))
        .collect();
    let (hits_after, misses_after) = stats();
    (encoded, hits_after - hits, misses_after - misses)
}

/// 500 seeds of file-level vandalism: truncation, single-bit flips,
/// wrong magic, future format versions, and manifest corruption — in
/// every case the cache must silently recompute the exact uncached
/// answer and never panic or serve stale bytes.
#[test]
fn corrupt_file_fuzz_always_recomputes_the_clean_answer() {
    let a = analysis(0xF422, 6);
    let clean = encode_result(
        &Engine::new(MantaConfig::full())
            .analyze(&a)
            .expect("non-strict analyze cannot fail"),
    );
    // Every open is a fresh process-like view of the store.
    let open_engine = |dir: &PathBuf| {
        Engine::builder()
            .config(MantaConfig::full())
            .cache_dir(dir)
            .build()
            .expect("open survives corruption")
    };

    let (_tmp, dir) = temp_dir("fuzz");
    let mut rng = SplitMix64(0x5EED_F00D);
    for round in 0..500 {
        // (Re)populate: open fresh, compute once so the entry exists.
        {
            let r = open_engine(&dir)
                .analyze(&a)
                .expect("non-strict analyze cannot fail");
            assert_eq!(encode_result(&r), clean, "round {round}: populate");
        }

        // Pick any file in the store — entries or the manifest alike.
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("store dir exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        assert!(!files.is_empty(), "round {round}: store must have files");
        let target = &files[(rng.next() % files.len() as u64) as usize];
        let mut bytes = std::fs::read(target).expect("read target");

        match rng.next() % 4 {
            // Truncate at a random offset (possibly to zero).
            0 => bytes.truncate((rng.next() as usize) % (bytes.len() + 1)),
            // Flip one random bit.
            1 => {
                if !bytes.is_empty() {
                    let i = (rng.next() as usize) % bytes.len();
                    bytes[i] ^= 1 << (rng.next() % 8);
                }
            }
            // Stomp the magic.
            2 => {
                for (i, b) in b"BADMAGIC".iter().enumerate() {
                    if i < bytes.len() {
                        bytes[i] = *b;
                    }
                }
            }
            // Claim a future format/codec version.
            _ => {
                if bytes.len() >= 12 {
                    bytes[8] = 0xFF;
                    bytes[11] = 0x7F;
                }
            }
        }
        std::fs::write(target, &bytes).expect("write corruption");

        // Reopen and query: the only acceptable outcome is the clean
        // answer (served from an intact entry or recomputed).
        let r = open_engine(&dir)
            .analyze(&a)
            .expect("non-strict analyze cannot fail");
        assert_eq!(
            encode_result(&r),
            clean,
            "round {round}: corrupting {} must not change the answer",
            target.display()
        );
    }
}

/// The inference-result codec round-trips bit-identically for every
/// sensitivity over a spread of generated programs.
#[test]
fn inference_payload_roundtrips_for_every_sensitivity() {
    for seed in [1u64, 77, 4242] {
        let a = analysis(seed, 5);
        for sens in [
            Sensitivity::Fi,
            Sensitivity::Fs,
            Sensitivity::FiFs,
            Sensitivity::FiCsFs,
            Sensitivity::FiFsCs,
        ] {
            let r = Manta::new(MantaConfig::with_sensitivity(sens)).infer(&a);
            let bytes = encode_result(&r);
            let back = decode_result(&bytes)
                .unwrap_or_else(|e| panic!("seed {seed} {sens:?}: decode failed: {e}"));
            assert_eq!(
                encode_result(&back),
                bytes,
                "seed {seed} {sens:?}: re-encode must be bit-identical"
            );
        }
    }
}

/// A warm cached analyze is bit-identical to the cold run that
/// populated the cache, at 1, 2 and 8 pool threads, and every warm call
/// is served from the store.
#[test]
fn warm_eval_is_bit_identical_to_cold_at_every_thread_count() {
    let _l = lock();
    let _restore = ThreadGuard;
    let (_tmp, dir) = temp_dir("threads");
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache_dir(&dir)
        .build()
        .expect("open cache");
    let programs = tiny_programs();
    let (cold, _, cold_misses) = analyze_all(&engine, &programs);
    assert_eq!(cold_misses, 3, "a cold store misses every program");
    for threads in [1usize, 2, 8] {
        manta_parallel::set_threads(threads);
        let (warm, hits, misses) = analyze_all(&engine, &programs);
        assert_eq!(
            (hits, misses),
            (3, 0),
            "threads={threads}: every program must be served warm"
        );
        assert_eq!(
            warm, cold,
            "threads={threads}: warm results must match cold bit for bit"
        );
    }
}

/// Fuel budgets key separately from unbudgeted runs (a fuel-limited
/// result may legitimately differ), and a generous fuel budget warms to
/// exactly its own cold result.
#[test]
fn fuel_budgets_key_separately_and_warm_to_their_own_cold_result() {
    let (_tmp, dir) = temp_dir("fuel");
    let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    let plenty = BudgetSpec {
        fuel: Some(100_000_000),
        deadline_ms: None,
    };
    let engine_for = |budget: BudgetSpec| {
        Engine::builder()
            .config(MantaConfig::full())
            .budget(budget)
            .cache(cache.clone())
            .build()
            .expect("prebuilt cache cannot fail to attach")
    };
    let programs = tiny_programs();

    let (cold_unbudgeted, _, _) = analyze_all(&engine_for(BudgetSpec::default()), &programs);
    // A different fuel budget is a different key: nothing is served warm.
    let (cold_fueled, hits, misses) = analyze_all(&engine_for(plenty), &programs);
    assert_eq!(
        (hits, misses),
        (0, 3),
        "a fuel budget must not reuse unbudgeted entries"
    );
    // But each key warms to its own cold result.
    let (warm_fueled, hits, misses) = analyze_all(&engine_for(plenty), &programs);
    assert_eq!((hits, misses), (3, 0), "the fueled entries must serve warm");
    assert_eq!(warm_fueled, cold_fueled);
    // Generous fuel completes the full cascade, so the results agree
    // with the unbudgeted ones even though they were computed separately.
    assert_eq!(warm_fueled, cold_unbudgeted);
}

/// The config hash must not see the pool size: results are
/// thread-invariant, so cache keys have to be too — otherwise test or
/// CI ordering (MANTA_THREADS, a leaked `--threads`) would silently
/// fork the cache into per-thread-count universes.
#[test]
fn config_hash_is_invariant_under_thread_count() {
    let _l = lock();
    let _restore = ThreadGuard;
    let config = MantaConfig::full();
    manta_parallel::set_threads(1);
    let at_1 = config_hash(&config, None);
    manta_parallel::set_threads(8);
    assert_eq!(config_hash(&config, None), at_1);
    // Fuel, by contrast, is part of the key.
    assert_ne!(config_hash(&config, Some(7)), at_1);
}

/// An edited module misses the entries of its previous version, and the
/// next cached inference matches a from-scratch computation.
#[test]
fn module_edit_recomputes_exactly_the_fresh_answer() {
    let (_tmp, dir) = temp_dir("edit");
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache_dir(&dir)
        .build()
        .expect("open cache");
    let cache = engine.cache().expect("cache attached");

    let before = analysis(0xED17, 6);
    let _ = engine.analyze(&before);

    // A different seed regenerates every function body: the edited
    // module's content key must miss, and the cached path must agree
    // with a fresh, cache-free inference of the edited module.
    let after = analysis(0xED18, 6);
    let misses = cache.store().stats().snapshot().misses;
    let via_cache = engine
        .analyze(&after)
        .expect("non-strict analyze cannot fail");
    assert_eq!(
        cache.store().stats().snapshot().misses,
        misses + 1,
        "the regenerated module must be detected as changed"
    );
    let fresh = Engine::new(MantaConfig::full())
        .analyze(&after)
        .expect("non-strict analyze cannot fail");
    assert_eq!(
        encode_result(&via_cache),
        encode_result(&fresh),
        "cached inference after an edit must equal the uncached result"
    );
}

/// Satellite contract for the serve work: N sessions hammering one
/// shared `Arc<AnalysisCache>` concurrently must leave the store in a
/// state where every module's warm answer is bit-identical to a
/// sequential warm run — no torn entries, no cross-talk between
/// sessions, no lock-file corruption.
#[test]
fn concurrent_sessions_share_one_cache_without_cross_talk() {
    let _guard = lock();
    manta_parallel::set_threads(1);
    let _restore = ThreadGuard;

    let modules: Vec<ModuleAnalysis> = (0..6).map(|i| analysis(0xC0C0 + i, 4)).collect();
    let config = MantaConfig::full();

    // Ground truth: a sequential engine with its own store.
    let (_seq_dir_tmp, seq_dir) = temp_dir("concurrent-seq");
    let expected: Vec<Vec<u8>> = {
        let cache = Arc::new(AnalysisCache::open(&seq_dir).expect("open sequential cache"));
        let engine = Engine::builder()
            .config(config)
            .cache(Arc::clone(&cache))
            .build()
            .expect("engine build with open cache");
        modules
            .iter()
            .map(|m| {
                let cold = engine.analyze(m).expect("cold analyze");
                let warm = engine.analyze(m).expect("warm analyze");
                assert_eq!(
                    encode_result(&cold),
                    encode_result(&warm),
                    "sequential warm must equal its own cold"
                );
                encode_result(&warm)
            })
            .collect()
    };

    // Contended run: one cache, one engine, N OS threads analyzing all
    // modules each (every entry is raced by every session).
    let (_tmp, dir) = temp_dir("concurrent");
    let cache = Arc::new(AnalysisCache::open(&dir).expect("open shared cache"));
    let engine = Arc::new(
        Engine::builder()
            .config(config)
            .cache(Arc::clone(&cache))
            .build()
            .expect("engine build with open cache"),
    );
    let modules = Arc::new(modules);
    let handles: Vec<_> = (0..4)
        .map(|session| {
            let engine = Arc::clone(&engine);
            let modules = Arc::clone(&modules);
            std::thread::spawn(move || {
                let mut encoded = Vec::new();
                // Stagger the per-session order so sessions race
                // different entries, not the same one in lockstep.
                for k in 0..modules.len() {
                    let i = (k + session) % modules.len();
                    let r = engine.analyze(&modules[i]).expect("contended analyze");
                    encoded.push((i, encode_result(&r)));
                }
                encoded
            })
        })
        .collect();
    for handle in handles {
        for (i, bytes) in handle.join().expect("session thread panicked") {
            assert_eq!(
                bytes, expected[i],
                "session result for module {i} must match the sequential run"
            );
        }
    }

    // And the store the melee left behind serves the same bytes warm.
    for (i, m) in modules.iter().enumerate() {
        let r = engine.analyze(m).expect("post-melee warm analyze");
        assert_eq!(
            encode_result(&r),
            expected[i],
            "post-contention warm result for module {i}"
        );
    }
}
