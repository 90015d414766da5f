//! The product calls every workload makes, each timed as one layer span,
//! and — in the traced run — the constituent calls a composite is
//! followed by, along the path the composite took.
//!
//! Every wrapper returns `Err` with a description on an error, a degraded
//! result, or a replay whose output differs from the composite's; the
//! workload counts that op as failed.

use std::time::Instant;

use manta::cache::{
    config_hash, decode_result, encode_result, function_fingerprints, module_fingerprint,
    results_identical,
};
use manta::{ctx_refine, flow_insensitive, flow_refine, summaries};
use manta::{AnalysisCache, Engine, InferenceResult, MantaConfig, RevealMap, Sensitivity};
use manta_analysis::{preprocess, CallGraph, Ddg, ModuleAnalysis, PointsTo, PreprocessConfig};
use manta_ir::{Frontend, Module};
use manta_resilience::Budget;
use manta_store::{hash_str, Key};

use crate::trace::{replay, replay_net, Layer, Op, SpanId};

/// Summary-mode chunk counts observed by traced replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chunks {
    pub replayed: u64,
    pub total: u64,
}

/// Detects the image's frontend and lifts it, or parses it as textual IR
/// when no frontend claims it — what `manta bugs`/`manta icall` do.
pub fn load(op: &mut Op, bytes: &[u8]) -> Result<Module, String> {
    let frontends: [&dyn Frontend; 2] = [&manta_isa::lift::SbFrontend, &manta_x86::X86Frontend];
    match frontends.iter().find(|fe| fe.detects(bytes)) {
        Some(fe) => {
            let layer = if fe.name() == "x86" {
                Layer::LiftX86
            } else {
                Layer::LiftSb
            };
            op.call(layer, || fe.lift_bytes(bytes))
                .0
                .map_err(|e| format!("lift: {e}"))
        }
        None => {
            let text = std::str::from_utf8(bytes).map_err(|e| format!("image is not text: {e}"))?;
            parse(op, text)
        }
    }
}

/// `manta_ir::parser::parse_module`.
pub fn parse(op: &mut Op, text: &str) -> Result<Module, String> {
    op.call(Layer::IrParse, || manta_ir::parser::parse_module(text))
        .0
        .map_err(|e| format!("parse: {e}"))
}

/// `Engine::build_substrate`; traced ops replay preprocess, call graph,
/// points-to and DDG on a copy of the module.
pub fn build(
    op: &mut Op,
    engine: &Engine,
    module: Module,
    budget: &Budget,
) -> Result<ModuleAnalysis, String> {
    let copy = op.traced().then(|| op.aside(|_| module.clone()));
    let (built, span) = op.call(Layer::AnalysisBuild, || {
        engine.build_substrate(module, budget)
    });
    let analysis = built.map_err(|e| format!("substrate: {e}"))?;
    if let (Some(module), Some(span)) = (copy, span) {
        op.aside(|id| replay_substrate(id, span, module, &analysis))?;
    }
    Ok(analysis)
}

/// The substrate's constituents under `parent`, checked against `built`.
pub fn replay_substrate(
    op: u64,
    parent: SpanId,
    module: Module,
    built: &ModuleAnalysis,
) -> Result<(), String> {
    let (pre, _) = replay(op, Layer::AnalysisPreprocess, parent, || {
        preprocess(module, PreprocessConfig::default())
    });
    let (callgraph, _) = replay(op, Layer::AnalysisCallgraph, parent, || {
        CallGraph::build(&pre)
    });
    let (pointsto, _) = replay(op, Layer::AnalysisPointsto, parent, || {
        PointsTo::solve(&pre, &callgraph)
    });
    let (ddg, _) = replay(op, Layer::AnalysisDdg, parent, || {
        Ddg::build(&pre, &pointsto)
    });
    let rebuilt = ModuleAnalysis {
        pre,
        callgraph,
        pointsto,
        ddg,
    };
    if substrate_digest(&rebuilt) == substrate_digest(built) {
        Ok(())
    } else {
        Err("substrate constituents diverged from Engine::build_substrate".to_string())
    }
}

/// A structural digest of a substrate: canonical module text, call
/// edges, points-to and DDG shape.
pub fn substrate_digest(a: &ModuleAnalysis) -> u64 {
    let shape = format!(
        "{:?}|{}|{}|{}|{}",
        a.callgraph.edges(),
        a.pointsto.object_count(),
        a.pointsto.max_pts_len(),
        a.ddg.node_count(),
        a.ddg.edge_count()
    );
    hash_str(&manta_ir::printer::print_module(a.module())) ^ hash_str(&shape).rotate_left(1)
}

/// Which cache path an analyze took, decided from the store's own
/// traffic counters around the call.
pub enum Path {
    /// No cache attached: the staged pipeline ran.
    Uncached,
    /// The result was served from the store.
    Hit,
    /// The staged pipeline ran and its result was stored.
    Miss,
    /// The summary solve ran from the previous state (captured before
    /// the call) and stored the result and the new state.
    SummaryMiss(Option<Vec<u8>>),
}

fn infer_lookups(cache: &AnalysisCache) -> (u64, u64) {
    cache
        .store()
        .kind_traffic()
        .into_iter()
        .find(|(kind, _, _)| *kind == "infer")
        .map_or((0, 0), |(_, h, m)| (h, m))
}

/// `Engine::analyze_with_budget`. Traced ops replay the constituents of
/// the path the call took; `lookups` counts cache lookups and hits.
pub fn analyze(
    op: &mut Op,
    engine: &Engine,
    summaries_on: bool,
    analysis: &ModuleAnalysis,
    budget: &Budget,
    lookups: &mut (u64, u64),
    chunks: &mut Chunks,
) -> Result<InferenceResult, String> {
    // A summary miss's replay re-solves from the state the call saw,
    // so a traced op captures it before the call.
    let traced = op.traced();
    let before = op.aside(|_| {
        let cache = engine.cache()?;
        let prev = (traced && summaries_on)
            .then(|| {
                cache.store().get(&summaries::state_key(
                    analysis.module().name(),
                    engine.config(),
                ))
            })
            .flatten();
        Some((infer_lookups(cache), prev))
    });
    let (out, span) = op.call(Layer::EngineAnalyze, || {
        engine.analyze_with_budget(analysis, budget)
    });
    let result = checked(out.map_err(|e| e.to_string()))?;
    let path = op.aside(|_| match (engine.cache(), before) {
        (Some(cache), Some(((h0, m0), prev))) => {
            let (h1, m1) = infer_lookups(cache);
            lookups.0 += (h1 - h0) + (m1 - m0);
            lookups.1 += h1 - h0;
            if h1 > h0 {
                Path::Hit
            } else if summaries_on {
                Path::SummaryMiss(prev)
            } else {
                Path::Miss
            }
        }
        _ => Path::Uncached,
    });
    if let (true, Some(span)) = (traced, span) {
        op.aside(|id| {
            replay_analyze(
                id,
                span,
                engine.config(),
                engine.cache(),
                path,
                analysis,
                &result,
                chunks,
            )
        })?;
    }
    Ok(result)
}

/// Rejects errors and degraded results.
pub fn checked(out: Result<InferenceResult, String>) -> Result<InferenceResult, String> {
    let result = out.map_err(|e| format!("analyze: {e}"))?;
    if result.is_degraded() {
        return Err(format!("degraded result: {:?}", result.degradations));
    }
    Ok(result)
}

/// An analyze composite's constituents under `parent`, along `path`,
/// checked against the composite's `result`.
#[allow(clippy::too_many_arguments)]
pub fn replay_analyze(
    op: u64,
    parent: SpanId,
    config: &MantaConfig,
    cache: Option<&AnalysisCache>,
    path: Path,
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    chunks: &mut Chunks,
) -> Result<(), String> {
    let module = analysis.module();
    let cfg = config_hash(config, None);
    // `(module fingerprint, time spent on the per-function ones)`.
    let fingerprint = |parent| {
        replay(op, Layer::CacheFingerprint, parent, || {
            let t = Instant::now();
            std::hint::black_box(function_fingerprints(module));
            let fps_ns = t.elapsed().as_nanos() as u64;
            (module_fingerprint(module), fps_ns)
        })
        .0
    };
    let replayed = match (path, cache) {
        (Path::Uncached, _) => replay_pipeline(op, parent, config, analysis),
        (Path::Hit, Some(cache)) => {
            let (module_fp, _) = fingerprint(parent);
            let key = Key::new("infer", module_fp, cfg);
            let (payload, _) = replay(op, Layer::StoreGet, parent, || cache.store().get(&key));
            let payload = payload.ok_or("replayed store lookup missed an entry the call hit")?;
            replay(op, Layer::CacheDecode, parent, || decode_result(&payload))
                .0
                .map_err(|e| format!("decode: {e}"))?
        }
        (Path::Miss, Some(cache)) => {
            let (module_fp, _) = fingerprint(parent);
            let fresh = replay_pipeline(op, parent, config, analysis);
            let (bytes, _) = replay(op, Layer::CacheEncode, parent, || encode_result(&fresh));
            let key = Key::new("infer", module_fp, cfg);
            replay(op, Layer::StorePut, parent, || {
                cache.store().put(&key, &bytes)
            })
            .0
            .map_err(|e| e.to_string())?;
            fresh
        }
        (Path::SummaryMiss(prev), Some(cache)) => {
            let (module_fp, fps_ns) = fingerprint(parent);
            let state_key = summaries::state_key(module.name(), config);
            let _ = replay(op, Layer::StoreGet, parent, || {
                cache.store().get(&state_key)
            });
            // `summaries::solve` re-hashes every function before solving;
            // that hashing is already in the fingerprint span above.
            let ((fresh, state, report), _) =
                replay_net(op, Layer::SummariesSolve, parent, fps_ns, || {
                    summaries::solve(analysis, config, prev.as_deref())
                });
            chunks.replayed += report.reused.len() as u64;
            chunks.total += (report.reused.len() + report.recomputed.len()) as u64;
            let (bytes, _) = replay(op, Layer::CacheEncode, parent, || encode_result(&fresh));
            let key = Key::new("infer", module_fp, cfg);
            let (put, _) = replay(op, Layer::StorePut, parent, || {
                cache
                    .store()
                    .put(&key, &bytes)
                    .and_then(|()| cache.store().put(&state_key, &state))
            });
            put.map_err(|e| e.to_string())?;
            fresh
        }
        (_, None) => return Err("cached path without a cache".to_string()),
    };
    if results_identical(&replayed, result) {
        Ok(())
    } else {
        Err("analyze constituents diverged from Engine::analyze".to_string())
    }
}

/// Reveal, FI, CS and FS — the full-sensitivity cascade.
fn replay_pipeline(
    op: u64,
    parent: SpanId,
    config: &MantaConfig,
    analysis: &ModuleAnalysis,
) -> InferenceResult {
    assert_eq!(
        config.sensitivity,
        Sensitivity::FiCsFs,
        "the workloads run the full cascade"
    );
    let (reveals, _) = replay(op, Layer::InferReveal, parent, || {
        RevealMap::collect(analysis)
    });
    let (mut result, _) = replay(op, Layer::InferFi, parent, || {
        flow_insensitive::run(analysis, &reveals, *config)
    });
    result.config = *config;
    replay(op, Layer::InferCs, parent, || {
        ctx_refine::refine(analysis, &reveals, config, &mut result)
    });
    replay(op, Layer::InferFs, parent, || {
        flow_refine::refine(analysis, &reveals, config, &mut result)
    });
    result
}
