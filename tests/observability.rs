//! Observability integration: telemetry aggregation under the
//! work-stealing pool, Json-sink integrity at every pool size, and the
//! type-provenance graph's derivation chains across inference tiers.

use std::sync::{Mutex, MutexGuard, PoisonError};

use manta::provenance::{ExplainNode, ProvenanceGraph, TIER_REVEAL};
use manta::{Engine, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_telemetry::{JsonSink, SpanReport, TelemetrySink};
use manta_workloads::{PhenomenonMix, ProjectSpec};

/// Serializes tests that flip process-global switches (pool size,
/// telemetry collection).
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

fn workload_analysis() -> ModuleAnalysis {
    let spec = ProjectSpec {
        name: "observability".to_string(),
        kloc: 1.0,
        functions: 6,
        mix: PhenomenonMix::balanced(),
        seed: 99,
    };
    ModuleAnalysis::build(spec.generate().module)
}

fn count_span(spans: &[SpanReport], name: &str) -> u64 {
    spans
        .iter()
        .map(|s| {
            let own = if s.name == name { s.count } else { 0 };
            own + count_span(&s.children, name)
        })
        .sum()
}

/// Spans and counters recorded from `par_map` workers aggregate to the
/// same deterministic totals at 1, 2 and 8 threads, and the Json sink
/// emits a parseable document every time — worker interleaving must
/// never corrupt the report.
#[test]
fn pool_telemetry_aggregates_deterministically_across_thread_counts() {
    let _l = lock();
    let _restore = ThreadGuard;
    let mut baseline: Option<(u64, u64)> = None;
    for threads in [1usize, 2, 8] {
        manta_parallel::set_threads(threads);
        manta_telemetry::set_enabled(true);
        manta_telemetry::reset();

        let items: Vec<u64> = (0..64).collect();
        let doubled = manta_parallel::par_map(items, |i| {
            manta_telemetry::span!("obs.item");
            manta_telemetry::counter("obs.items", 1);
            i * 2
        });
        assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<u64>>());

        // A real pipeline on top, so workers also record nested spans.
        let analysis = workload_analysis();
        let _ = Engine::new(MantaConfig::full())
            .analyze(&analysis)
            .expect("non-strict cannot fail");

        let report = manta_telemetry::report();
        manta_telemetry::set_enabled(false);

        let obs_items = report.counters.get("obs.items").copied().unwrap_or(0);
        assert_eq!(obs_items, 64, "threads={threads}");
        assert_eq!(
            count_span(&report.spans, "obs.item"),
            64,
            "threads={threads}: worker spans must aggregate without loss"
        );

        // The Json sink must emit one well-formed document regardless of
        // how many workers contributed.
        let mut buf = Vec::new();
        JsonSink(&mut buf).emit(&report).expect("sink write");
        let text = String::from_utf8(buf).expect("utf-8");
        let v = manta_store::json::parse(&text).expect("valid JSON at any pool size");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("obs.items"))
                .and_then(manta_store::json::JsonValue::as_f64),
            Some(64.0),
            "threads={threads}"
        );

        // Deterministic pipeline counters must not depend on the pool.
        let unify = report.counters.get("unify.ops").copied().unwrap_or(0);
        assert!(unify > 0, "pipeline must record unify work");
        match baseline {
            None => baseline = Some((obs_items, unify)),
            Some((bi, bu)) => {
                assert_eq!(bi, obs_items, "threads={threads}");
                assert_eq!(
                    bu, unify,
                    "threads={threads}: unify.ops must be thread-count invariant"
                );
            }
        }
    }
}

/// The checkers slice the substrate's DDG minus Table 2's cut set:
/// detecting bugs with inference builds no second graph, so it adds
/// nothing to the `ddg.*` counters the substrate's build recorded.
#[test]
fn bug_detection_builds_no_second_ddg() {
    let _l = lock();
    let analysis = workload_analysis();
    let result = Engine::new(MantaConfig::full())
        .analyze(&analysis)
        .expect("non-strict cannot fail");
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let _ = manta_clients::detect_bugs(
        &analysis,
        Some(&result as &dyn manta::TypeQuery),
        &manta_clients::BugKind::ALL,
        manta_clients::CheckerConfig::default(),
    );
    let report = manta_telemetry::report();
    manta_telemetry::set_enabled(false);
    assert_eq!(
        count_span(&report.spans, "ddg_prune"),
        1,
        "the checkers pruned"
    );
    // `reset` zeroes counters but keeps their names, so a test that ran
    // earlier in this process may have left them registered at 0.
    for counter in ["ddg.nodes", "ddg.edges"] {
        assert_eq!(report.counter(counter), 0, "{counter}");
    }
}

/// The walk-reuse counters account for every CS candidate: each either
/// runs its root set's forward walk or reuses it, and a suite module has
/// candidates whose roots coincide.
#[test]
fn walk_reuse_counters_account_for_every_candidate() {
    let _l = lock();
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let analysis = workload_analysis();
    let _ = Engine::new(MantaConfig::full())
        .analyze(&analysis)
        .expect("non-strict cannot fail");
    let report = manta_telemetry::report();
    manta_telemetry::set_enabled(false);

    let (run, reused) = (
        report.counter("cs.walks_run"),
        report.counter("cs.walks_reused"),
    );
    assert_eq!(run + reused, report.counter("cs.candidates"));
    assert!(reused > 0, "no CS candidate shared a root set");
}

/// Figure-3-style union juggling (FS site refinement) plus a
/// polymorphic helper called from an int and a pointer context (CS
/// refinement): the provenance graph must hold facts from every tier.
const EXPLAIN_ASM: &str = "\
module explainit
extern printf_d, 2, ret
extern printf_s, 2, ret
extern malloc, 1, ret
func poly(1) -> ret {
    salloc r7, 8
    st.w64 [r7+0], r1
    ld.w64 r0, [r7+0]
    ret
}
func driver(0) -> ret {
    movi r1, 7
    call poly, 1
    movi r1, 32
    ecall malloc, 1
    mov r1, r0
    call poly, 1
    ret
}
func branches(2) -> ret {
    salloc r7, 8
    brz r2, elsebr
    movi r3, 41
    st.w64 [r7+0], r3
    ld.w64 r4, [r7+0]
    mov r1, r4
    salloc r2, 8
    ecall printf_d, 2
    jmp done
elsebr:
    movi r1, 24
    ecall malloc, 1
    st.w64 [r7+0], r0
    ld.w64 r4, [r7+0]
    mov r2, r4
    salloc r1, 8
    ecall printf_s, 2
done:
    ret
}
";

fn explain_analysis() -> ModuleAnalysis {
    let image = manta_isa::assemble(EXPLAIN_ASM).expect("assembles");
    let module = manta_isa::lift::lift(&image).expect("lifts");
    ModuleAnalysis::build(module)
}

/// Collects the tier sets of every root→leaf path of an explain tree.
fn paths(graph: &ProvenanceGraph, node: &ExplainNode, acc: &mut Vec<Vec<String>>) {
    fn walk(
        graph: &ProvenanceGraph,
        node: &ExplainNode,
        prefix: &mut Vec<String>,
        acc: &mut Vec<Vec<String>>,
    ) {
        prefix.push(graph.facts()[node.fact as usize].tier.clone());
        if node.children.is_empty() {
            acc.push(prefix.clone());
        } else {
            for c in &node.children {
                walk(graph, c, prefix, acc);
            }
        }
        prefix.pop();
    }
    walk(graph, node, &mut Vec::new(), acc);
}

/// The golden provenance assertion: the recorded graph spans every
/// cascade tier, and at least one backward derivation chain crosses
/// three distinct tiers on its way down to a reveal leaf.
#[test]
fn derivation_chains_cross_the_cascade_tiers() {
    let _l = lock();
    let analysis = explain_analysis();
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .build()
        .expect("cacheless engine cannot fail to build");
    let (result, graph) = engine
        .analyze_explained(&analysis)
        .expect("non-strict cannot fail");
    assert!(result.degradations.is_empty(), "{:?}", result.degradations);
    let graph = graph.expect("provenance-enabled engine returns a graph");

    let tiers = graph.tier_counts();
    for tier in [TIER_REVEAL, "FI", "+CS", "+FS"] {
        assert!(
            tiers.contains_key(tier),
            "tier `{tier}` missing from the graph: {tiers:?}"
        );
    }

    // The substrate was built before the engine, and the points-to
    // derivations are in the graph all the same.
    assert!(
        !graph.pts_derivations().is_empty(),
        "the graph must hold points-to derivations"
    );
    let module = analysis.module();
    let malloc = manta::provenance::resolve_var(module, "driver", "v1").expect("malloc result");
    let tree = graph
        .render_explain(module, malloc, None)
        .expect("the malloc result must explain");
    assert!(
        tree.lines()
            .any(|l| l.starts_with("points-to obj") && l.ends_with("seeded at its allocation site")),
        "the malloc result must point at its allocation site: {tree}"
    );

    // Search every variable's explain tree for the deepest tier chain.
    let vars: std::collections::BTreeSet<_> = graph.facts().iter().map(|f| f.var).collect();
    let mut best: Vec<String> = Vec::new();
    let mut reveal_rooted = 0usize;
    for &v in &vars {
        let Some(root) = graph.explain(v) else {
            continue;
        };
        let mut all = Vec::new();
        paths(&graph, &root, &mut all);
        for p in all {
            if p.last().map(String::as_str) == Some(TIER_REVEAL) {
                reveal_rooted += 1;
                let distinct: std::collections::BTreeSet<&String> = p.iter().collect();
                if distinct.len() > best.iter().collect::<std::collections::BTreeSet<_>>().len() {
                    best = p.clone();
                }
            }
        }
    }
    assert!(reveal_rooted > 0, "chains must bottom out at reveal leaves");
    let distinct: std::collections::BTreeSet<&String> = best.iter().collect();
    assert!(
        distinct.len() >= 3,
        "some chain must cross three tiers (e.g. FS site fact -> CS/FI var \
         fact -> reveal), best was {best:?}"
    );
}

/// A two-version module for the summary-telemetry test: `v2` changes
/// one constant inside `branches` only, so `poly`'s context-sensitive
/// chunk (whose walk footprint spans `poly` and its caller `driver`,
/// never `branches`) must replay from the summary state.
fn summary_asm(constant: u32) -> String {
    EXPLAIN_ASM.replace("movi r3, 41", &format!("movi r3, {constant}"))
}

/// Summary-mode engines must surface their replay/recompute traffic
/// through the `summary.*` counters: a cold run records recomputes; an
/// edited re-run records replays (`hits`) for untouched chunks
/// alongside recomputes for the dirty ones.
#[test]
fn summary_counters_record_replays_and_recomputes() {
    let _l = lock();
    let dir = manta_store::TempDir::new("obs-summ");
    let cache =
        std::sync::Arc::new(manta::cache::AnalysisCache::open(dir.path()).expect("open cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache)
        .summaries(true)
        .build()
        .expect("prebuilt cache cannot fail to attach");

    let build = |constant: u32| {
        let image = manta_isa::assemble(&summary_asm(constant)).expect("assembles");
        ModuleAnalysis::build(manta_isa::lift::lift(&image).expect("lifts"))
    };

    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let _ = engine.analyze(&build(41)).expect("non-strict cannot fail");
    let cold = manta_telemetry::report();
    let get = |r: &manta_telemetry::Report, n: &str| r.counters.get(n).copied().unwrap_or(0);
    assert!(
        get(&cold, "summary.recomputes") > 0,
        "cold run computes every chunk: {:?}",
        cold.counters
    );
    assert_eq!(get(&cold, "summary.hits"), 0, "no state to replay yet");

    manta_telemetry::reset();
    let _ = engine.analyze(&build(43)).expect("non-strict cannot fail");
    let warm = manta_telemetry::report();
    manta_telemetry::set_enabled(false);
    assert!(
        get(&warm, "summary.hits") > 0,
        "untouched chunks must replay after a one-function edit: {:?}",
        warm.counters
    );
    assert!(
        get(&warm, "summary.recomputes") > 0,
        "the edited function's chunks must recompute: {:?}",
        warm.counters
    );
}

/// Provenance is explainable per *site* too: the union loads in
/// `branches` carry flow-sensitive site facts whose rendered trees name
/// the tier and interval.
#[test]
fn site_level_explanations_render() {
    let _l = lock();
    let analysis = explain_analysis();
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .build()
        .expect("cacheless engine cannot fail to build");
    let (_, graph) = engine
        .analyze_explained(&analysis)
        .expect("non-strict cannot fail");
    let graph = graph.expect("graph");
    let module = analysis.module();
    let mut rendered = 0usize;
    for f in graph.facts() {
        if f.tier == "+FS" && f.site.is_some() {
            let tree = graph
                .render_explain(module, f.var, f.site)
                .expect("site fact must explain");
            assert!(tree.contains("+FS"), "{tree}");
            assert!(tree.contains('@'), "site facts render their site: {tree}");
            rendered += 1;
        }
    }
    assert!(rendered > 0, "the fixture must produce FS site facts");
}

/// The frontends report their decode/lift work through `lift.*`
/// counters: instruction counts from both lifters, plus the x86 lifter's
/// eflags materializations and recovered frame slots.
#[test]
fn lift_counters_record_frontend_work() {
    let _l = lock();
    let spec = ProjectSpec {
        name: "frontend_obs".to_string(),
        kloc: 1.0,
        functions: 6,
        mix: PhenomenonMix::balanced(),
        seed: 4242,
    };
    let module = spec.generate().module;
    let dual = manta_workloads::emit_dual(&module).expect("generated module lowers");

    let get = |r: &manta_telemetry::Report, n: &str| r.counters.get(n).copied().unwrap_or(0);

    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    manta_isa::lift::lift(&dual.sb).expect("sb lift");
    let sb_report = manta_telemetry::report();

    manta_telemetry::reset();
    manta_x86::lift(&dual.x86).expect("x86 lift");
    let x86_report = manta_telemetry::report();
    manta_telemetry::set_enabled(false);

    assert!(
        get(&sb_report, "lift.insts_decoded") > 0,
        "{:?}",
        sb_report.counters
    );
    assert!(
        get(&x86_report, "lift.insts_decoded") > 0,
        "{:?}",
        x86_report.counters
    );
    // The generated programs branch (eflags at jcc) and hold stack
    // locals (rbp slots), so the x86-only counters must both trip.
    assert!(
        get(&x86_report, "lift.flags_materialized") > 0,
        "{:?}",
        x86_report.counters
    );
    assert!(
        get(&x86_report, "lift.frame_slots") > 0,
        "{:?}",
        x86_report.counters
    );
    // SB lifting never touches the x86-only counters.
    assert_eq!(get(&sb_report, "lift.flags_materialized"), 0);
    assert_eq!(get(&sb_report, "lift.frame_slots"), 0);
}
