//! Performance trajectory benchmark: delta vs reference points-to solver,
//! and end-to-end pipeline wall time across pool sizes.
//!
//! ```text
//! bench_perf                       measure, write BENCH_pointsto.json +
//!                                  BENCH_pipeline.json into the CWD
//! bench_perf --out <dir>           write the JSONs elsewhere
//! bench_perf --projects <n>        limit to the first n suite projects
//!                                  (the largest is always kept)
//! bench_perf --check <pointsto.json> <pipeline.json>
//!                                  measure fresh and fail (exit 1) when a
//!                                  speedup ratio regressed >10% against
//!                                  the committed baseline
//! ```
//!
//! Speedup *ratios* — not absolute times — are what the `--check` guard
//! compares, so a baseline recorded on one machine remains meaningful on
//! another. Each ratio is a median over interleaved reference/delta rep
//! pairs, and the pointsto guard keeps an absolute floor escape
//! ([`SPEEDUP_FLOOR`]) so host noise around a high baseline cannot fail
//! the check while the optimization demonstrably holds. On single-core
//! hosts the pool inlines and the pipeline ratio is ~1.0; thread-scaling
//! ratios are only guarded when the host has >1 core.

use std::time::Instant;

use manta::{Engine, MantaConfig};
use manta_analysis::{CallGraph, PointsTo, PreprocessConfig};
use manta_bench::harness::median;
use manta_ir::{ModuleBuilder, Width};
use manta_store::json::{parse, JsonValue, JsonWriter};
use manta_workloads::project_suite;

/// Pool sizes the pipeline leg sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut limit: Option<usize> = None;
    let mut check: Option<(String, String)> = None;
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
            "--check" => {
                let p = it.next().expect("--check requires two baseline paths");
                let q = it.next().expect("--check requires two baseline paths");
                check = Some((p.clone(), q.clone()));
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    manta_telemetry::set_enabled(true);
    let pointsto = bench_pointsto(limit);
    let pipeline = bench_pipeline(limit);
    manta_telemetry::set_enabled(false);

    match check {
        None => {
            let p1 = format!("{out_dir}/BENCH_pointsto.json");
            let p2 = format!("{out_dir}/BENCH_pipeline.json");
            std::fs::write(&p1, render_pointsto(&pointsto)).expect("write BENCH_pointsto.json");
            std::fs::write(&p2, render_pipeline(&pipeline)).expect("write BENCH_pipeline.json");
            println!("wrote {p1} and {p2}");
        }
        Some((base_pts, base_pipe)) => {
            let ok = check_regressions(&pointsto, &pipeline, &base_pts, &base_pipe);
            if !ok {
                std::process::exit(1);
            }
            println!("bench check passed (no speedup regressed >10% vs baseline)");
        }
    }
}

/// One project's solver measurement.
struct PointstoRow {
    name: String,
    functions: usize,
    reference_ms: f64,
    delta_ms: f64,
    speedup: f64,
    peak_pts: usize,
    worklist_iters: u64,
}

struct PointstoBench {
    rows: Vec<PointstoRow>,
    /// Name and speedup of the project with the most functions.
    largest: (String, f64),
}

struct PipelineBench {
    cores: usize,
    /// `(threads, wall_ms)` per sweep point.
    walls: Vec<(usize, f64)>,
    speedup_at_2: f64,
    speedup_at_4: f64,
    batch: BatchBench,
}

/// Whole-module batch scheduling: `Engine::analyze_batch` over the
/// prepared suite vs an element-wise sequential loop.
struct BatchBench {
    threads: usize,
    sequential_ms: f64,
    parallel_ms: f64,
    speedup: f64,
}

/// Paired repetitions per solver measurement. Reference and delta runs
/// interleave rep by rep so bursty machine noise hits both solvers
/// alike, and the recorded time is the per-solver median — the ratio of
/// medians is what `--check` guards, so stability across runs matters
/// more than the fastest single sample.
const REPS: usize = 5;

fn counter(name: &str) -> u64 {
    manta_telemetry::report()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn suite(limit: Option<usize>) -> Vec<manta_workloads::ProjectSpec> {
    let mut specs = project_suite();
    if let Some(n) = limit {
        // Keep the largest project (by function count) in reduced runs —
        // it anchors the headline speedup.
        let largest = specs
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.functions)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let keep_largest = largest >= n;
        let tail = specs.split_off(n.min(specs.len()));
        if keep_largest {
            if let Some(l) = tail.into_iter().max_by_key(|s| s.functions) {
                specs.push(l);
            }
        }
    }
    specs
}

/// Pointer-intensive stress project. Each function threads the addresses
/// of `fan` stack slots through a `chain`-deep store/load relay: the
/// whole-set reference solver advances one relay link per outer round and
/// re-derives every complex constraint in every round, so its cost is
/// `rounds × constraints × set-size`, while the delta solver visits each
/// `(edge, object)` pair once. This is the shape that motivated the delta
/// rewrite; the suite projects above have near-singleton points-to sets
/// and shallow chains, so they understate the gap.
fn stress_module(functions: usize, fan: usize, chain: usize) -> manta_ir::Module {
    let mut mb = ModuleBuilder::new("pointsto_stress");
    for i in 0..functions {
        let (_, mut fb) = mb.function(&format!("chain_{i}"), &[], None);
        let slots: Vec<_> = (0..fan).map(|_| fb.alloca(8)).collect();
        let cells: Vec<_> = (0..chain).map(|_| fb.alloca(8)).collect();
        for &s in &slots {
            fb.store(cells[0], s);
        }
        let mut v = fb.load(cells[0], Width::W64);
        for &cell in &cells[1..] {
            fb.store(cell, v);
            v = fb.load(cell, Width::W64);
        }
        fb.ret(None);
        mb.finish_function(fb);
    }
    mb.finish()
}

fn measure_pointsto(name: &str, functions: usize, module: manta_ir::Module) -> PointstoRow {
    let pre = manta_analysis::preprocess(module, PreprocessConfig::default());
    let cg = CallGraph::build(&pre);
    let mut refs = Vec::new();
    let mut deltas = Vec::new();
    let mut pts = None;
    let iters_before = counter("pointsto.worklist_iters");
    let begun = Instant::now();
    while refs.len() < REPS {
        let t = Instant::now();
        let _ = PointsTo::solve_reference(&pre, &cg);
        refs.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        pts = Some(PointsTo::solve(&pre, &cg));
        deltas.push(t.elapsed().as_secs_f64() * 1e3);
        // Two paired reps are enough once a slow reference solver has
        // already eaten the time budget for this row.
        if refs.len() >= 2 && begun.elapsed().as_secs_f64() > 6.0 {
            break;
        }
    }
    // The solve is deterministic, so the counter delta divides evenly
    // across the reps.
    let worklist_iters = (counter("pointsto.worklist_iters") - iters_before) / deltas.len() as u64;
    let pts = pts.expect("at least one rep ran");
    // Median of per-rep ratios, not ratio of medians: each ratio pairs
    // two adjacent-in-time runs, so slow spells on a noisy host inflate
    // numerator and denominator together and mostly cancel.
    let mut ratios: Vec<f64> = refs
        .iter()
        .zip(&deltas)
        .map(|(r, d)| r / d.max(1e-6))
        .collect();
    let speedup = median(&mut ratios);
    let reference_ms = median(&mut refs);
    let delta_ms = median(&mut deltas);
    println!(
        "pointsto {name:<16} ref {reference_ms:9.2} ms  delta {delta_ms:9.2} ms  {speedup:6.2}x  peak {:5}  iters {worklist_iters}",
        pts.max_pts_len(),
    );
    PointstoRow {
        name: name.to_string(),
        functions,
        reference_ms,
        delta_ms,
        speedup,
        peak_pts: pts.max_pts_len(),
        worklist_iters,
    }
}

fn bench_pointsto(limit: Option<usize>) -> PointstoBench {
    let mut rows = Vec::new();
    for spec in suite(limit) {
        let generated = spec.generate();
        rows.push(measure_pointsto(
            &spec.name,
            spec.functions,
            generated.module,
        ));
    }
    // The stress project is deliberately the largest (by function count):
    // it anchors the headline delta-vs-reference speedup.
    rows.push(measure_pointsto(
        "synthetic_stress",
        320,
        stress_module(320, 12, 24),
    ));
    let largest = rows
        .iter()
        .max_by_key(|r| r.functions)
        .map(|r| (r.name.clone(), r.speedup))
        .unwrap_or_default();
    println!("largest project {} speedup {:.2}x", largest.0, largest.1);
    PointstoBench { rows, largest }
}

fn bench_pipeline(limit: Option<usize>) -> PipelineBench {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let specs = suite(limit);
    let engine = Engine::new(MantaConfig::full());
    let mut walls = Vec::new();
    for &t in &THREADS {
        manta_parallel::set_threads(t);
        let start = Instant::now();
        let load = manta_eval::runner::load_specs_checked(
            specs.clone(),
            manta_resilience::BudgetSpec::default(),
        );
        assert!(load.is_clean(), "suite must build: {:?}", load.failures);
        for p in &load.projects {
            let _ = engine.analyze(&p.analysis);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "pipeline threads={t} {wall_ms:9.2} ms ({} projects)",
            load.projects.len()
        );
        walls.push((t, wall_ms));
    }
    manta_parallel::set_threads(0);
    let wall_at = |t: usize| {
        walls
            .iter()
            .find(|&&(n, _)| n == t)
            .map(|&(_, ms)| ms)
            .unwrap_or(f64::NAN)
    };
    let speedup_at_2 = wall_at(1) / wall_at(2).max(1e-6);
    let speedup_at_4 = wall_at(1) / wall_at(4).max(1e-6);
    println!("pipeline speedup: {speedup_at_2:.2}x @2, {speedup_at_4:.2}x @4 ({cores} cores)");
    let batch = bench_batch(&engine, &specs, cores);
    PipelineBench {
        cores,
        walls,
        speedup_at_2,
        speedup_at_4,
        batch,
    }
}

/// Pool size the batch leg schedules whole-module jobs across.
const BATCH_THREADS: usize = 8;

/// Measures whole-module batch scheduling: the suite's prepared
/// analyses run element-wise on one thread, then as one
/// [`Engine::analyze_batch`] across the pool. Substrate building is
/// excluded — this isolates the scheduling win of module-level jobs.
fn bench_batch(
    engine: &Engine,
    specs: &[manta_workloads::ProjectSpec],
    cores: usize,
) -> BatchBench {
    let load = manta_eval::runner::load_specs_checked(
        specs.to_vec(),
        manta_resilience::BudgetSpec::default(),
    );
    assert!(load.is_clean(), "suite must build: {:?}", load.failures);
    let analyses: Vec<_> = load.projects.into_iter().map(|p| p.analysis).collect();

    manta_parallel::set_threads(1);
    let start = Instant::now();
    for a in &analyses {
        let _ = engine.analyze(a);
    }
    let sequential_ms = start.elapsed().as_secs_f64() * 1e3;

    manta_parallel::set_threads(BATCH_THREADS);
    let start = Instant::now();
    let results = engine.analyze_batch(&analyses);
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(results.len(), analyses.len());
    manta_parallel::set_threads(0);

    let speedup = sequential_ms / parallel_ms.max(1e-6);
    println!(
        "batch    threads={BATCH_THREADS} sequential {sequential_ms:9.2} ms  \
         batch {parallel_ms:9.2} ms  {speedup:6.2}x ({cores} cores)"
    );
    BatchBench {
        threads: BATCH_THREADS,
        sequential_ms,
        parallel_ms,
        speedup,
    }
}

fn render_pointsto(b: &PointstoBench) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("manta-bench/pointsto/v2");
    manta_bench::host::write_host(&mut w, &manta_bench::host::host_meta());
    w.key("projects");
    w.begin_array();
    for r in &b.rows {
        w.begin_object();
        w.key("name");
        w.string(&r.name);
        w.key("functions");
        w.uint(r.functions as u64);
        w.key("reference_ms");
        w.float(r.reference_ms);
        w.key("delta_ms");
        w.float(r.delta_ms);
        w.key("speedup");
        w.float(r.speedup);
        w.key("peak_pts");
        w.uint(r.peak_pts as u64);
        w.key("worklist_iters");
        w.uint(r.worklist_iters);
        w.end_object();
    }
    w.end_array();
    w.key("largest");
    w.begin_object();
    w.key("name");
    w.string(&b.largest.0);
    w.key("speedup");
    w.float(b.largest.1);
    w.end_object();
    w.end_object();
    w.finish()
}

fn render_pipeline(b: &PipelineBench) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("manta-bench/pipeline/v1");
    manta_bench::host::write_host(&mut w, &manta_bench::host::host_meta());
    w.key("cores");
    w.uint(b.cores as u64);
    w.key("runs");
    w.begin_array();
    for &(t, ms) in &b.walls {
        w.begin_object();
        w.key("threads");
        w.uint(t as u64);
        w.key("wall_ms");
        w.float(ms);
        w.end_object();
    }
    w.end_array();
    w.key("speedup_at_2");
    w.float(b.speedup_at_2);
    w.key("speedup_at_4");
    w.float(b.speedup_at_4);
    w.key("batch");
    w.begin_object();
    w.key("threads");
    w.uint(b.batch.threads as u64);
    w.key("sequential_ms");
    w.float(b.batch.sequential_ms);
    w.key("parallel_ms");
    w.float(b.batch.parallel_ms);
    w.key("speedup");
    w.float(b.batch.speedup);
    w.end_object();
    w.end_object();
    w.finish()
}

fn read_json(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"))
}

/// Floor under which the delta solver's headline speedup is a failure
/// no matter what the baseline recorded — the solver rewrite's
/// acceptance contract on the largest project.
const SPEEDUP_FLOOR: f64 = 3.0;

/// `fresh >= 0.9 * baseline` for every guarded speedup ratio. The
/// pointsto ratio additionally passes whenever it clears
/// [`SPEEDUP_FLOOR`]: run-to-run noise on a loaded host can move an
/// 8x measurement by more than 10%, but a genuine solver regression
/// collapses it toward 1x, which both clauses catch.
fn check_regressions(
    pointsto: &PointstoBench,
    pipeline: &PipelineBench,
    base_pts_path: &str,
    base_pipe_path: &str,
) -> bool {
    let mut ok = true;
    let base_pts = read_json(base_pts_path);
    let base_largest = base_pts
        .get("largest")
        .and_then(|l| l.get("speedup"))
        .and_then(JsonValue::as_f64)
        .expect("baseline pointsto largest.speedup");
    if pointsto.largest.1 < 0.9 * base_largest && pointsto.largest.1 < SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: pointsto speedup on {} fell to {:.2}x \
             (baseline {:.2}x, floor {SPEEDUP_FLOOR}x)",
            pointsto.largest.0, pointsto.largest.1, base_largest
        );
        ok = false;
    } else if pointsto.largest.1 < 0.9 * base_largest {
        println!(
            "pointsto speedup on {} is {:.2}x, below 90% of the {:.2}x \
             baseline but above the {SPEEDUP_FLOOR}x floor — treating as noise",
            pointsto.largest.0, pointsto.largest.1, base_largest
        );
    }
    // Thread-scaling ratios are only meaningful with real parallel
    // hardware on both sides of the comparison.
    let base_pipe = read_json(base_pipe_path);
    let base_cores = base_pipe
        .get("cores")
        .and_then(JsonValue::as_f64)
        .unwrap_or(1.0);
    if pipeline.cores > 1 && base_cores > 1.0 {
        let base_s4 = base_pipe
            .get("speedup_at_4")
            .and_then(JsonValue::as_f64)
            .expect("baseline pipeline speedup_at_4");
        if pipeline.speedup_at_4 < 0.9 * base_s4 {
            eprintln!(
                "REGRESSION: pipeline speedup@4 fell to {:.2}x (baseline {:.2}x)",
                pipeline.speedup_at_4, base_s4
            );
            ok = false;
        }
    } else {
        println!("skipping thread-scaling guard (single-core host or baseline)");
    }
    // The batch-scheduling guard: whole-module jobs across the pool
    // must beat the sequential loop by BATCH_SPEEDUP_FLOOR on real
    // parallel hardware. Baselines recorded before the batch leg
    // existed are tolerated (no `batch` object → skip).
    let base_batch = base_pipe
        .get("batch")
        .and_then(|b| b.get("speedup"))
        .and_then(JsonValue::as_f64);
    if pipeline.cores < 4 {
        // A skipped guard must be impossible to miss in a green CI log:
        // the >= 1.5x batch-speedup contract was NOT checked on this
        // host. `::warning::` renders as an annotation on GitHub
        // runners; the stderr banner covers every other harness.
        println!(
            "::warning title=batch guard skipped::host has {} cores; \
             the >= {BATCH_SPEEDUP_FLOOR}x analyze_batch speedup guard needs 4",
            pipeline.cores
        );
        eprintln!(
            "##############################################################\n\
             # BATCH GUARD SKIPPED: host has {} cores (needs >= 4).       \n\
             # The >= {BATCH_SPEEDUP_FLOOR}x analyze_batch speedup contract was NOT verified. \n\
             ##############################################################",
            pipeline.cores
        );
    } else if base_batch.is_none() {
        println!("skipping batch baseline comparison (baseline has no batch leg)");
        if pipeline.batch.speedup < BATCH_SPEEDUP_FLOOR {
            eprintln!(
                "REGRESSION: batch speedup@{} is {:.2}x, below the {BATCH_SPEEDUP_FLOOR}x floor",
                pipeline.batch.threads, pipeline.batch.speedup
            );
            ok = false;
        }
    } else if pipeline.batch.speedup < BATCH_SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: batch speedup@{} fell to {:.2}x (baseline {:.2}x, floor {BATCH_SPEEDUP_FLOOR}x)",
            pipeline.batch.threads,
            pipeline.batch.speedup,
            base_batch.unwrap_or(f64::NAN)
        );
        ok = false;
    }
    ok
}

/// Minimum acceptable `analyze_batch` speedup over the sequential loop
/// at [`BATCH_THREADS`] threads on a multi-core (>= 4) host.
const BATCH_SPEEDUP_FLOOR: f64 = 1.5;
