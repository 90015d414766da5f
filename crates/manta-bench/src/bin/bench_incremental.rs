//! Incremental-recomputation benchmark: cold vs warm vs one-spec-edit
//! evaluation wall time through the persistent analysis cache.
//!
//! ```text
//! bench_incremental                 measure, write BENCH_incremental.json
//!                                   into the CWD
//! bench_incremental --out <dir>     write the JSON elsewhere
//! bench_incremental --projects <n>  limit to the first n suite projects
//! bench_incremental --check <incremental.json>
//!                                   measure fresh and fail (exit 1) when
//!                                   the warm speedup regressed against
//!                                   the committed baseline or fell below
//!                                   the 2x acceptance floor
//! ```
//!
//! The warm leg also asserts correctness, not just speed: warm rows must
//! be byte-identical to cold rows (at two different pool sizes), every
//! warm project must be served from the cache, and an edited spec must
//! rebuild exactly itself while the rest stay cached. A run that is fast
//! but wrong aborts here rather than producing a green number.

use std::sync::Arc;
use std::time::Instant;

use manta::{AnalysisCache, Engine, MantaConfig};
use manta_bench::harness::median;
use manta_eval::run_suite;
use manta_store::json::{parse, JsonValue, JsonWriter};
use manta_workloads::project_suite;

/// The acceptance contract: a fully warm suite evaluation must be at
/// least this much faster than the cold run that populated the cache.
const WARM_FLOOR: f64 = 2.0;

/// Pool sizes the warm leg sweeps (0 = `available_parallelism`); the
/// recorded warm time is the median over the sweep.
const WARM_THREADS: [usize; 3] = [1, 2, 0];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut limit: Option<usize> = None;
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--projects" => {
                limit = Some(
                    it.next()
                        .and_then(|n| n.parse().ok())
                        .expect("--projects requires a number"),
                )
            }
            "--check" => check = Some(it.next().expect("--check requires a baseline path").clone()),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let bench = bench_incremental(limit);

    match check {
        None => {
            let path = format!("{out_dir}/BENCH_incremental.json");
            std::fs::write(&path, render(&bench)).expect("write BENCH_incremental.json");
            println!("wrote {path}");
        }
        Some(baseline) => {
            if !check_regression(&bench, &baseline) {
                std::process::exit(1);
            }
            println!(
                "bench check passed (warm speedup {:.2}x >= {WARM_FLOOR}x floor)",
                bench.warm_speedup
            );
        }
    }
}

struct IncrementalBench {
    projects: usize,
    cold_ms: f64,
    warm_ms: f64,
    edit_ms: f64,
    warm_speedup: f64,
    edit_speedup: f64,
}

fn suite(limit: Option<usize>) -> Vec<manta_workloads::ProjectSpec> {
    let mut specs = project_suite();
    if let Some(n) = limit {
        specs.truncate(n.max(2));
    }
    specs
}

fn bench_incremental(limit: Option<usize>) -> IncrementalBench {
    let dir = manta_store::TempDir::new("bench-incr");
    let cache = Arc::new(AnalysisCache::open(dir.path()).expect("open cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache)
        .build()
        .expect("prebuilt cache cannot fail to attach");
    let specs = suite(limit);
    let n = specs.len();

    // Cold: empty cache, every project generates, analyzes, infers.
    let start = Instant::now();
    let cold = run_suite(specs.clone(), &engine);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(cold.failures.is_empty(), "suite must build");
    assert_eq!(cold.skipped_builds, 0, "cold run must not hit the cache");
    let cold_rows = cold.render_rows();

    // Warm: every project served from the cache, rows byte-identical.
    // Sweep two pool sizes to prove thread count cannot leak into
    // cached results.
    let mut warms = Vec::new();
    for &threads in &WARM_THREADS {
        manta_parallel::set_threads(threads);
        let start = Instant::now();
        let warm = run_suite(specs.clone(), &engine);
        warms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(warm.skipped_builds, n, "warm run must skip every build");
        assert_eq!(
            warm.render_rows(),
            cold_rows,
            "warm rows must be byte-identical to cold rows (threads={threads})"
        );
    }
    manta_parallel::set_threads(0);
    let warm_ms = median(&mut warms);

    // Edit: one spec's seed changes; exactly that project rebuilds.
    let mut edited = specs.clone();
    edited[0].seed ^= 0x5eed;
    let start = Instant::now();
    let edit = run_suite(edited, &engine);
    let edit_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        edit.skipped_builds,
        n - 1,
        "an edit must rebuild exactly the edited project"
    );
    assert_eq!(edit.rows.len(), n);

    let warm_speedup = cold_ms / warm_ms.max(1e-6);
    let edit_speedup = cold_ms / edit_ms.max(1e-6);
    println!(
        "incremental: cold {cold_ms:9.2} ms  warm {warm_ms:9.2} ms ({warm_speedup:6.2}x)  \
         1-edit {edit_ms:9.2} ms ({edit_speedup:6.2}x)  [{n} projects]"
    );
    IncrementalBench {
        projects: n,
        cold_ms,
        warm_ms,
        edit_ms,
        warm_speedup,
        edit_speedup,
    }
}

fn render(b: &IncrementalBench) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("manta-bench/incremental/v1");
    manta_bench::host::write_host(&mut w, &manta_bench::host::host_meta());
    w.key("projects");
    w.uint(b.projects as u64);
    w.key("cold_ms");
    w.float(b.cold_ms);
    w.key("warm_ms");
    w.float(b.warm_ms);
    w.key("edit_ms");
    w.float(b.edit_ms);
    w.key("warm_speedup");
    w.float(b.warm_speedup);
    w.key("edit_speedup");
    w.float(b.edit_speedup);
    w.end_object();
    w.finish()
}

/// The warm speedup must clear the absolute [`WARM_FLOOR`] — that is
/// the feature's acceptance contract, independent of host. On top of
/// that, a drop below 90% of the committed baseline is flagged, but
/// only fails when it also loses the floor: warm runs are mostly fixed
/// I/O cost, so a high baseline ratio from a fast-cold host can shrink
/// on another machine while the cache demonstrably still works.
fn check_regression(bench: &IncrementalBench, baseline_path: &str) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let base =
        parse(&text).unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
    let base_warm = base
        .get("warm_speedup")
        .and_then(JsonValue::as_f64)
        .expect("baseline warm_speedup");
    if bench.warm_speedup < WARM_FLOOR {
        eprintln!(
            "REGRESSION: warm speedup fell to {:.2}x, below the {WARM_FLOOR}x acceptance floor \
             (baseline {base_warm:.2}x)",
            bench.warm_speedup
        );
        return false;
    }
    if bench.warm_speedup < 0.9 * base_warm {
        println!(
            "warm speedup {:.2}x is below 90% of the {base_warm:.2}x baseline but above the \
             {WARM_FLOOR}x floor — treating as noise",
            bench.warm_speedup
        );
    }
    true
}
