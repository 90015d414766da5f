//! Summary-mode benchmark: one-function-edit re-analysis through the
//! compositional per-function summary cache vs the full (non-summary)
//! pipeline.
//!
//! ```text
//! bench_summaries                 measure, write BENCH_summaries.json
//!                                 into the CWD
//! bench_summaries --out <dir>     write the JSON elsewhere
//! bench_summaries --clusters <n>  scale the workload (default 48)
//! bench_summaries --check <summaries.json>
//!                                 measure fresh and fail (exit 1) when
//!                                 the edit speedup regressed against
//!                                 the committed baseline or fell below
//!                                 the 3x acceptance floor
//! bench_summaries --probe         print state size and per-stage spans
//!                                 for one edit solve, and an engine
//!                                 miss's bookkeeping against its
//!                                 recompute (diagnostics, no gate)
//! ```
//!
//! The summary leg asserts correctness in-bench, not just speed: every
//! edited module's summary-mode result is compared bit-for-bit against
//! a fresh whole-module solve, and a `SolveReport` probe proves the
//! recompute set stays inside the edited function's footprint cluster
//! while every other cluster replays. A run that is fast but wrong (or
//! fast because it silently recomputed everything) aborts here rather
//! than producing a green number.

use std::sync::Arc;
use std::time::Instant;

use manta::cache::results_identical;
use manta::{summaries, AnalysisCache, Engine, Manta, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_bench::harness::median;
use manta_ir::{BinOp, ModuleBuilder, Width};
use manta_store::json::{parse, JsonValue, JsonWriter};
use manta_telemetry::SpanReport;

/// The acceptance contract: re-analyzing after a one-function edit in
/// summary mode must be at least this much faster than the non-summary
/// edit path (a full pipeline run on the edited module).
const EDIT_FLOOR: f64 = 3.0;

/// Distinct one-function edits per timed leg; the recorded time is the
/// median across them.
const EDITS: usize = 15;

/// Call-chain depth per cluster. Per-candidate walk cost is capped by
/// the walk budget, so depth scales total walk volume linearly — deep
/// enough that refinement dominates the global passes, which is the
/// regime whole-program binaries live in.
const DEPTH: usize = 40;

/// Polymorphic users per cluster (half int callers, half pointer
/// callers) — the fan-in every context-sensitive walk must cross.
const USERS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut clusters = 48usize;
    let mut check: Option<String> = None;
    let mut probe_mode = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--clusters" => {
                clusters = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--clusters requires a number");
                clusters = clusters.max(2);
            }
            "--probe" => probe_mode = true,
            "--check" => check = Some(it.next().expect("--check requires a baseline path").clone()),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if probe_mode {
        probe(clusters);
        return;
    }

    let bench = bench_summaries(clusters);

    match check {
        None => {
            let path = format!("{out_dir}/BENCH_summaries.json");
            std::fs::write(&path, render(&bench)).expect("write BENCH_summaries.json");
            println!("wrote {path}");
        }
        Some(baseline) => {
            if !check_regression(&bench, &baseline) {
                std::process::exit(1);
            }
            println!(
                "bench check passed (edit speedup {:.2}x >= {EDIT_FLOOR}x floor)",
                bench.edit_speedup
            );
        }
    }
}

struct SummaryBench {
    functions: usize,
    clusters: usize,
    cold_ms: f64,
    full_edit_ms: f64,
    summary_edit_ms: f64,
    edit_speedup: f64,
    replayed: usize,
    recomputed: usize,
}

/// A module of `clusters` independent polymorphic call clusters. Each
/// cluster is a `DEPTH`-deep identity-relay chain fed by `USERS` callers
/// that alternate int and heap-pointer arguments, so every chain
/// parameter becomes a context-sensitivity candidate whose CFL walk
/// spans the whole cluster — and nothing outside it. `edit` perturbs
/// one arithmetic constant inside cluster 0's first user: a ~1%
/// single-function text change whose summary-dirty set is exactly
/// cluster 0.
fn build_module(clusters: usize, edit: Option<u64>) -> manta_ir::Module {
    let mut mb = ModuleBuilder::new("summbench");
    let malloc = mb.extern_fn("malloc", &[], None);
    for k in 0..clusters {
        // Chain, built bottom-up so each link can call the next.
        let mut next = None;
        for i in (0..DEPTH).rev() {
            let (f, mut fb) = mb.function(&format!("w{k}_{i}"), &[Width::W64], Some(Width::W64));
            let x = fb.param(0);
            let y = fb.binop(BinOp::Add, x, x, Width::W64);
            let _ = y;
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
                // Int caller; the edit retunes user 0 of cluster 0 only.
                let c = if k == 0 && u == 0 {
                    7 + edit.unwrap_or(0)
                } else {
                    7
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
                let v = ub.load(r, Width::W64);
                let _ = v;
            }
            ub.ret(None);
            mb.finish_function(ub);
        }
    }
    mb.finish()
}

fn analysis(clusters: usize, edit: Option<u64>) -> ModuleAnalysis {
    ModuleAnalysis::build(build_module(clusters, edit))
}

fn bench_summaries(clusters: usize) -> SummaryBench {
    let config = MantaConfig::full();
    let dir = manta_store::TempDir::new("bench-summ");
    let cache = Arc::new(AnalysisCache::open(dir.path()).expect("open cache"));
    let summary_engine = Engine::builder()
        .config(config)
        .cache(cache)
        .summaries(true)
        .build()
        .expect("prebuilt cache cannot fail to attach");
    // The non-summary edit path: a cacheless engine, so leg A pays no
    // store I/O at all — the comparison is conservative in its favor.
    let plain_engine = Engine::new(config);

    let base = analysis(clusters, None);
    let functions = base.module().function_count();

    // Cold: populate the summary state (every chunk computes).
    let start = Instant::now();
    let cold = summary_engine
        .analyze(&base)
        .expect("non-strict cannot fail");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(cold.degradations.is_empty(), "{:?}", cold.degradations);

    // Precision probe through the driver directly: a one-function edit
    // must recompute only cluster 0's chunks while every other cluster
    // replays. This is the same invalidation logic the engine leg uses;
    // probing here keeps the timed loops free of report bookkeeping.
    let (_, state, _) = summaries::solve(&base, &config, None);
    let probe = analysis(clusters, Some(1));
    let (probe_result, _, report) = summaries::solve(&probe, &config, Some(&state));
    let probe_full = Manta::new(config).infer(&probe);
    assert!(
        results_identical(&probe_result, &probe_full),
        "summary-mode solve diverged from the whole-module solve"
    );
    assert!(!report.reused.is_empty(), "clean clusters must replay");
    for name in &report.recomputed {
        let in_cluster0 = name.starts_with("w0_") || name.starts_with("u0_");
        assert!(
            in_cluster0,
            "recompute leaked outside the edited cluster: {name} ({report:?})"
        );
    }
    assert!(
        report.recomputed.iter().any(|n| n == "u0_0"),
        "the edited function itself must recompute: {report:?}"
    );
    let replayed = report.reused.len();
    let recomputed = report.recomputed.len();

    // The two legs alternate per edit, so host drift and the caches the
    // untimed identity check evicts fall on both alike. Each edit's
    // module is built untimed, just before its leg runs.
    let mut full_times = Vec::new();
    let mut summ_times = Vec::new();
    for i in 0..EDITS as u64 {
        // Leg A — the full pipeline on an edited module (what a
        // non-summary engine does on any edit: the module fingerprint
        // changed, so the result cache misses and the whole cascade
        // re-runs).
        let a = analysis(clusters, Some(10 + i));
        let start = Instant::now();
        let r = plain_engine.analyze(&a).expect("non-strict cannot fail");
        full_times.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(r.degradations.is_empty());
        drop(a);

        // Leg B — the same class of edit through the summary engine. It
        // validates footprints, replays every clean cluster, and
        // recomputes only the dirty one. Bit-identity vs a fresh
        // whole-module solve is asserted per edit, outside the timer.
        let b = analysis(clusters, Some(100 + i));
        let start = Instant::now();
        let r = summary_engine.analyze(&b).expect("non-strict cannot fail");
        summ_times.push(start.elapsed().as_secs_f64() * 1e3);
        let full = Manta::new(config).infer(&b);
        assert!(
            results_identical(&r, &full),
            "summary-mode engine result diverged after an edit"
        );
    }
    let full_edit_ms = median(&mut full_times);
    let summary_edit_ms = median(&mut summ_times);

    let edit_speedup = full_edit_ms / summary_edit_ms.max(1e-6);
    println!(
        "summaries: cold {cold_ms:9.2} ms  full-edit {full_edit_ms:9.2} ms  \
         summary-edit {summary_edit_ms:9.2} ms ({edit_speedup:6.2}x)  \
         [{functions} funcs, {replayed} replayed / {recomputed} recomputed chunks]"
    );
    SummaryBench {
        functions,
        clusters,
        cold_ms,
        full_edit_ms,
        summary_edit_ms,
        edit_speedup,
        replayed,
        recomputed,
    }
}

fn render(b: &SummaryBench) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("manta-bench/summaries/v1");
    manta_bench::host::write_host(&mut w, &manta_bench::host::host_meta());
    w.key("functions");
    w.uint(b.functions as u64);
    w.key("clusters");
    w.uint(b.clusters as u64);
    w.key("cold_ms");
    w.float(b.cold_ms);
    w.key("full_edit_ms");
    w.float(b.full_edit_ms);
    w.key("summary_edit_ms");
    w.float(b.summary_edit_ms);
    w.key("edit_speedup");
    w.float(b.edit_speedup);
    w.key("replayed_chunks");
    w.uint(b.replayed as u64);
    w.key("recomputed_chunks");
    w.uint(b.recomputed as u64);
    w.end_object();
    w.finish()
}

/// The edit speedup must clear the absolute [`EDIT_FLOOR`] — the
/// feature's acceptance contract, independent of host. A drop below
/// 90% of the committed baseline above the floor is reported as noise:
/// the summary leg is mostly fixed fingerprint/global-pass cost, so the
/// ratio legitimately varies with the host's per-walk cost.
fn check_regression(bench: &SummaryBench, baseline_path: &str) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let base =
        parse(&text).unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
    let base_speedup = base
        .get("edit_speedup")
        .and_then(JsonValue::as_f64)
        .expect("baseline edit_speedup");
    if bench.edit_speedup < EDIT_FLOOR {
        eprintln!(
            "REGRESSION: summary edit speedup fell to {:.2}x, below the {EDIT_FLOOR}x \
             acceptance floor (baseline {base_speedup:.2}x)",
            bench.edit_speedup
        );
        return false;
    }
    if bench.edit_speedup < 0.9 * base_speedup {
        println!(
            "edit speedup {:.2}x is below 90% of the {base_speedup:.2}x baseline but above \
             the {EDIT_FLOOR}x floor — treating as noise",
            bench.edit_speedup
        );
    }
    true
}

/// `--probe`: where does a summary-mode edit solve spend its time?
/// Prints the persisted state size and the telemetry span tree for one
/// bare summary solve, one full solve, and one engine-level summary
/// analyze — the tool for deciding whether a speedup regression is walk
/// cost, fingerprint cost, or store overhead.
fn probe(clusters: usize) {
    let config = MantaConfig::full();
    let base = analysis(clusters, None);
    let (_, state, _) = summaries::solve(&base, &config, None);
    println!("state size: {} bytes", state.len());
    let edited = analysis(clusters, Some(5));
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let t = Instant::now();
    let _ = summaries::solve(&edited, &config, Some(&state));
    println!("summary solve: {:.2} ms", t.elapsed().as_secs_f64() * 1e3);
    print!("{}", manta_telemetry::report().render_text());
    manta_telemetry::reset();
    let t = Instant::now();
    let _ = Manta::new(config).infer(&edited);
    println!("full solve: {:.2} ms", t.elapsed().as_secs_f64() * 1e3);
    print!("{}", manta_telemetry::report().render_text());

    // Engine-level timing: what the cached summary path adds on top of
    // the bare solve (store get/put, result encode).
    let dir = manta_store::TempDir::new("bench-summ-probe");
    let cache = Arc::new(AnalysisCache::open(dir.path()).expect("open cache"));
    let engine = Engine::builder()
        .config(config)
        .cache(cache)
        .summaries(true)
        .build()
        .unwrap();
    let _ = engine.analyze(&base);
    let e2 = analysis(clusters, Some(6));
    manta_telemetry::reset();
    let t = Instant::now();
    let _ = engine.analyze(&e2);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("engine summary analyze: {wall_ms:.2} ms");
    let report = manta_telemetry::report();
    print!("{}", report.render_text());
    let (bookkeeping, recompute) = split_miss(&report, wall_ms);
    println!(
        "engine summary miss: bookkeeping {bookkeeping:.2} ms against recompute \
         {recompute:.2} ms ({:.1}x)",
        bookkeeping / recompute.max(1e-6)
    );
}

/// Splits an engine summary-mode miss that took `wall_ms` into its
/// bookkeeping and its recompute (`summary.recompute` under CS and FS).
/// Bookkeeping is everything except the module key
/// (`cache.fingerprint`), reveal, FI, the recompute, the CS and FS
/// commits (their `classify`), and the result's encode and write (the
/// top-level `cache.encode` and `store.put`; the state's write sits
/// under `summary.encode`).
fn split_miss(report: &manta_telemetry::Report, wall_ms: f64) -> (f64, f64) {
    let ms = |span: Option<&SpanReport>| span.map_or(0.0, SpanReport::total_ms);
    let infer = report.span("infer");
    let in_infer = |name| ms(infer.and_then(|s| s.child(name)));
    let in_stages = |name| {
        ["cs", "fs"]
            .into_iter()
            .map(|stage| ms(infer.and_then(|s| s.child(stage)?.child(name))))
            .sum::<f64>()
    };
    let recompute = in_stages("summary.recompute");
    let excluded = ms(report.span("cache.fingerprint"))
        + in_infer("reveal")
        + in_infer("fi")
        + recompute
        + in_stages("classify")
        + ms(report.span("cache.encode"))
        + ms(report.span("store.put"));
    (wall_ms - excluded, recompute)
}
