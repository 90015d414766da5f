//! The staged inference engine: one orchestration path for every way of
//! running Manta.
//!
//! Four cross-cutting features (telemetry, resilience, parallelism,
//! caching) each used to add its own `infer_*` entrypoint, leaving the
//! driver logic — spans, budgets, panic isolation, cache keying,
//! degradation records — re-implemented per variant. This module folds
//! the matrix back into two pieces:
//!
//! * The stages — reveal collection, then the tier stages of
//!   [`crate::Stage`] (FI or standalone FS, then CS and FS refinement).
//!   Each reads the frozen context and returns a delta: the reveal map,
//!   a base-tier result, or a refinement's variable and site updates.
//!   Stages know *what* to compute, nothing about budgets, spans,
//!   faults, or caching.
//! * [`Engine`] — the driver. Built once via [`EngineBuilder`] from a
//!   [`MantaConfig`], a [`BudgetSpec`], a strictness flag, the
//!   provenance and summary switches, and an optional [`AnalysisCache`],
//!   all held on the engine, it applies every cross-cutting concern
//!   exactly once, in one loop, for every stage, and commits a stage's
//!   delta only after the stage has returned.
//!
//! CS and FS are one chunked step: the driver partitions `V_O` by
//! function, refines each partition on the pool and commits the merged
//! updates. Summary mode ([`crate::summaries`]) runs the same loop with
//! a chunk memo around that step, so full and summary solves share
//! every span, fault site, isolation boundary and degradation record.
//!
//! [`Engine::analyze`] is the one way to run the cascade — plain,
//! budgeted, strict or cached; [`Engine::analyze_batch`] adds
//! whole-module scheduling across the work-stealing pool on top,
//! [`Engine::infer_module`] is the form of [`Engine::analyze_module`]
//! that probes the cache before building the rest of the substrate, and
//! [`Engine::infer_source`] answers a source text, from a text-keyed
//! alias when it can. [`crate::Manta::infer`] stays as one-shot sugar
//! over [`Engine::analyze`].

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use manta_analysis::{ModuleAnalysis, PointsTo, PreprocessConfig, VarRef};
use manta_ir::{InstId, Module};
use manta_resilience::{
    fault_point_budgeted, isolate, plan_active, Budget, BudgetExceeded, BudgetSpec, Degradation,
    DegradationKind, MantaError,
};
use manta_store::{Key, StoreError};

use crate::cache::{
    config_hash, encode_alias, encode_result, fingerprints, source_fingerprint, AnalysisCache,
};
use crate::ctx_refine::{Footprint, Scratch};
use crate::interval::TypeInterval;
use crate::provenance::ProvenanceGraph;
use crate::reveal::RevealMap;
use crate::summaries::{self, Memo};
use crate::{
    classify, ctx_refine, flow_insensitive, flow_refine, ClassCounts, InferenceResult, MantaConfig,
    Sensitivity, Stage,
};

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// What one stage hands the driver. A stage reads the frozen context —
/// the substrate, the reveal map and the result of the tiers before it
/// — and writes nothing; the driver commits the delta only once the
/// stage has returned `Ok`, so a stage cut short leaves nothing behind.
enum Delta {
    /// The type-revealing instructions (paper §4.1, Table 1 sources).
    Reveals(RevealMap),
    /// A base tier's whole result: FI or standalone FS.
    Base(InferenceResult),
    /// A refinement stage's updates (CS or FS).
    Refine(Stage, Refinement),
}

/// A refinement stage's delta: the variable and `v@s` site intervals its
/// partitions produced, merged in function order.
#[derive(Default)]
pub(crate) struct Refinement {
    pub(crate) vars: Vec<(VarRef, TypeInterval)>,
    pub(crate) sites: Vec<((VarRef, InstId), TypeInterval)>,
}

/// The tier stages of one sensitivity, in execution order; reveal
/// collection runs before them.
///
/// [`Sensitivity::FiFsCs`] lists FS before CS — §6.4's reversed-order
/// ablation, the aggressive stage first.
fn cascade(sensitivity: Sensitivity) -> &'static [Stage] {
    match sensitivity {
        Sensitivity::Fi => &[Stage::FlowInsensitive],
        Sensitivity::Fs => &[Stage::StandaloneFs],
        Sensitivity::FiFs => &[Stage::FlowInsensitive, Stage::FlowRefine],
        Sensitivity::FiCsFs => &[
            Stage::FlowInsensitive,
            Stage::ContextRefine,
            Stage::FlowRefine,
        ],
        Sensitivity::FiFsCs => &[
            Stage::FlowInsensitive,
            Stage::FlowRefine,
            Stage::ContextRefine,
        ],
    }
}

/// A step's span name under `infer`, its fault/isolation site (also the
/// `stage` of any [`Degradation`] it causes) and the completed-tier
/// label it contributes: reveal collection (`None`) none, base tiers
/// `"FI"` / `"FS"`, refinements `"+CS"` / `"+FS"`.
fn labels(step: Option<Stage>) -> (&'static str, &'static str, Option<&'static str>) {
    match step {
        None => ("reveal", "infer.reveal", None),
        Some(Stage::FlowInsensitive) => ("fi", "infer.fi", Some("FI")),
        Some(Stage::StandaloneFs) => ("fs", "infer.fs", Some("FS")),
        Some(Stage::ContextRefine) => ("cs", "infer.cs", Some("+CS")),
        Some(Stage::FlowRefine) => ("fs", "infer.fs", Some("+FS")),
    }
}

/// Runs one step against the frozen context. Budget exhaustion surfaces
/// as the error; panics are caught by the driver.
fn run_step(
    step: Option<Stage>,
    config: &MantaConfig,
    analysis: &ModuleAnalysis,
    reveals: Option<&RevealMap>,
    result: &InferenceResult,
    budget: &Budget,
    memo: Option<&mut Memo>,
) -> Result<Delta, BudgetExceeded> {
    let Some(stage) = step else {
        return Ok(Delta::Reveals(RevealMap::collect(analysis)));
    };
    let reveals = reveals.expect("reveal collection runs first");
    match stage {
        Stage::FlowInsensitive => {
            flow_insensitive::run_budgeted(analysis, reveals, *config, budget).map(Delta::Base)
        }
        Stage::StandaloneFs => {
            flow_refine::standalone_fs_budgeted(analysis, reveals, config, budget).map(Delta::Base)
        }
        Stage::ContextRefine | Stage::FlowRefine => {
            let delta = refine(stage, analysis, reveals, config, result, budget, memo)?;
            Ok(Delta::Refine(stage, delta))
        }
    }
}

/// The CS / FS step (Algorithms 1 and 2): partitions `V_O` by function
/// and refines each partition against the frozen `result` on the pool,
/// each worker through one [`Scratch`] it reuses for every partition it
/// runs. What a partition memoizes (roots, root-set walks and alias
/// answers) is a pure function of the frozen inputs and is reset at the
/// partition's start, and the function views a worker keeps for the
/// stage are pure functions of the module and the reveals, so no answer
/// depends on which worker or partition computed it, and the updates
/// merge back in partition (= function) order. With a `memo`, clean
/// partitions replay from the summary state and only the dirty ones run
/// (see [`Memo::refine`]), merged in the same order.
///
/// # Errors
///
/// The first partition's (in function order) tripped limit.
fn refine(
    stage: Stage,
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &InferenceResult,
    budget: &Budget,
    memo: Option<&mut Memo>,
) -> Result<Refinement, BudgetExceeded> {
    let cs = stage == Stage::ContextRefine;
    let over = classify::over_approximated(result);
    let candidates = if cs { "cs.candidates" } else { "fs.candidates" };
    manta_telemetry::counter(candidates, over.len() as u64);
    let chunks = ctx_refine::partition_by_func(&over);
    let init = || Scratch::new(analysis, reveals, config);
    let run = |scratch: &mut Scratch<'_>, chunk: &[VarRef], fp: &mut Footprint| {
        if !cs {
            return flow_refine::refine_chunk(scratch, result, budget, chunk, fp);
        }
        let (vars, walks) = ctx_refine::refine_chunk(scratch, result, budget, chunk, fp)?;
        walks.emit();
        Ok(Refinement {
            vars,
            sites: Vec::new(),
        })
    };
    if let Some(memo) = memo {
        return memo.refine(stage, analysis, result, chunks, init, run);
    }
    let outs = manta_parallel::par_map_with(chunks, init, |scratch, chunk| {
        run(scratch, chunk, &mut Footprint::off())
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut delta = Refinement {
        vars: Vec::with_capacity(outs.iter().map(|o| o.vars.len()).sum()),
        sites: Vec::with_capacity(outs.iter().map(|o| o.sites.len()).sum()),
    };
    for out in outs {
        delta.vars.extend(out.vars);
        delta.sites.extend(out.sites);
    }
    Ok(delta)
}

/// Commits a refinement delta: the site intervals, then the variable
/// intervals, re-classifying only the updated variables, and the stage's
/// classification counts.
pub(crate) fn commit(
    stage: Stage,
    analysis: &ModuleAnalysis,
    result: &mut InferenceResult,
    delta: Refinement,
) {
    if stage == Stage::ContextRefine {
        manta_telemetry::counter("cs.refined", delta.vars.len() as u64);
    } else {
        manta_telemetry::counter("fs.site_types", delta.sites.len() as u64);
    }
    result.add_sites(delta.sites);
    let counts = classify::commit(analysis, result, delta.vars);
    result.stage_counts.push((stage, counts));
}

/// Runs and commits one refinement stage in place, on an unlimited
/// budget and without a memo: [`ctx_refine::refine`] and
/// [`flow_refine::refine`].
pub(crate) fn refine_in_place(
    stage: Stage,
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &mut InferenceResult,
) {
    match refine(
        stage,
        analysis,
        reveals,
        config,
        result,
        &Budget::unlimited(),
        None,
    ) {
        Ok(delta) => commit(stage, analysis, result, delta),
        Err(_) => unreachable!("unlimited budget tripped"),
    }
}

/// Converts a blown per-stage budget into a [`MantaError`], bumping the
/// `resilience.budget_exhausted` counter exactly once.
fn budget_error(site: &'static str, e: BudgetExceeded) -> MantaError {
    manta_resilience::budget_exhausted(site);
    MantaError::Budget {
        stage: site.to_string(),
        kind: e.kind,
    }
}

/// [`Engine::infer_source`]'s answer: the result as a client receives
/// it, and what a summary line of it needs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceAnswer {
    /// [`encode_result`] of the inference result, byte for byte.
    pub bytes: Vec<u8>,
    /// The result's [`InferenceResult::final_counts`].
    pub counts: ClassCounts,
    /// How many degradations the result records.
    pub degradations: usize,
}

/// A computed cache miss: the result, its provenance graph when one is
/// recorded, and the result's encoding as stored under its key (`None`
/// for a degraded result, which is never stored).
type Miss = (InferenceResult, Option<ProvenanceGraph>, Option<Vec<u8>>);

/// What [`Engine::infer_module`] computes, with the encoding a source
/// alias forwards.
struct Inferred {
    /// The preprocessed module the result describes.
    module: Module,
    result: InferenceResult,
    /// Where the early probe ran and the result is stored: the module
    /// fingerprint and the result's stored encoding, read on a hit or
    /// written on a non-degraded miss.
    stored: Option<(u64, Vec<u8>)>,
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Composes the inference config, budget, strictness, provenance
/// recording, summary mode and cache into an [`Engine`]. Every setting
/// lands on the engine; building one writes no process-global state.
/// The pool size and telemetry collection are process-wide settings of
/// `manta-parallel` and `manta-telemetry`, which the caller makes.
///
/// ```
/// use manta::engine::EngineBuilder;
/// use manta::Sensitivity;
/// use manta_resilience::BudgetSpec;
///
/// let engine = EngineBuilder::new()
///     .sensitivity(Sensitivity::FiCsFs)
///     .budget(BudgetSpec {
///         fuel: Some(1_000_000),
///         deadline_ms: None,
///     })
///     .build()
///     .unwrap();
/// # let _ = engine;
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    config: MantaConfig,
    budget: BudgetSpec,
    strict: bool,
    provenance: bool,
    summaries: bool,
    cache_dir: Option<PathBuf>,
    cache: Option<Arc<AnalysisCache>>,
}

impl EngineBuilder {
    /// Starts from the default configuration ([`MantaConfig::full`]), an
    /// unlimited budget, graceful degradation and no cache.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the whole inference configuration.
    #[must_use]
    pub fn config(mut self, config: MantaConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets only the sensitivity, keeping the other config knobs.
    #[must_use]
    pub fn sensitivity(mut self, sensitivity: Sensitivity) -> Self {
        self.config.sensitivity = sensitivity;
        self
    }

    /// Sets the budget specification (fuel and/or deadline).
    #[must_use]
    pub fn budget(mut self, spec: BudgetSpec) -> Self {
        self.budget = spec;
        self
    }

    /// Propagate the first stage failure as an error instead of
    /// degrading gracefully (the CLI's `--strict`).
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Enables or disables type-provenance recording for this engine's
    /// runs: each analysis builds a [`ProvenanceGraph`] (retrieved
    /// through [`Engine::analyze_explained`]) that also holds the
    /// points-to derivations, however and whenever the substrate was
    /// built. Off — the default — records nothing and leaves results
    /// bit-identical; on, results stay bit-identical too.
    #[must_use]
    pub fn provenance(mut self, enabled: bool) -> Self {
        self.provenance = enabled;
        self
    }

    /// Enables compositional per-function summaries: with a cache
    /// attached, a module-fingerprint miss re-solves incrementally —
    /// reveal/FI/classification fresh, refinement chunks replayed from
    /// the persisted summary state wherever their recorded input
    /// footprints still validate (see [`crate::summaries`]). Results
    /// stay bit-identical to the full pipeline. Ignored without a
    /// cache; bypassed (full pipeline) under fuel limits, deadlines,
    /// strict mode, fault plans, provenance recording, and the
    /// standalone-FS sensitivity.
    #[must_use]
    pub fn summaries(mut self, enabled: bool) -> Self {
        self.summaries = enabled;
        self
    }

    /// Opens (or initializes) a persistent [`AnalysisCache`] in `dir`
    /// at build time.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attaches an already-open cache (shared via [`Arc`]). Takes
    /// precedence over [`EngineBuilder::cache_dir`].
    #[must_use]
    pub fn cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the engine, opening the cache directory if one was given.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] only when a cache directory was
    /// requested and cannot be opened; cacheless builds are infallible.
    pub fn build(self) -> Result<Engine, StoreError> {
        let cache = match (self.cache, self.cache_dir) {
            (Some(cache), _) => Some(cache),
            (None, Some(dir)) => Some(Arc::new(AnalysisCache::open(dir)?)),
            (None, None) => None,
        };
        Ok(Engine {
            config: self.config,
            budget: self.budget,
            strict: self.strict,
            provenance: self.provenance,
            summaries: self.summaries,
            cache,
        })
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The single orchestration path: every analysis — plain, budgeted,
/// strict, cached, batched, CLI- or eval-driven — runs through
/// [`Engine::analyze`]'s driver loop.
#[derive(Clone)]
pub struct Engine {
    pub(crate) config: MantaConfig,
    pub(crate) budget: BudgetSpec,
    pub(crate) strict: bool,
    pub(crate) provenance: bool,
    pub(crate) summaries: bool,
    pub(crate) cache: Option<Arc<AnalysisCache>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("strict", &self.strict)
            .field("provenance", &self.provenance)
            .field("summaries", &self.summaries)
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl Engine {
    /// An engine with the given config and everything else default:
    /// unlimited budget, graceful degradation, no cache.
    pub fn new(config: MantaConfig) -> Engine {
        Engine {
            config,
            budget: BudgetSpec::default(),
            strict: false,
            provenance: false,
            summaries: false,
            cache: None,
        }
    }

    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The inference configuration.
    pub fn config(&self) -> &MantaConfig {
        &self.config
    }

    /// The budget specification new analyses start from.
    pub fn budget(&self) -> &BudgetSpec {
        &self.budget
    }

    /// Whether stage failures propagate as errors.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Whether this engine records a type-provenance graph per analysis.
    pub fn provenance(&self) -> bool {
        self.provenance
    }

    /// The attached persistent cache, if any.
    pub fn cache(&self) -> Option<&AnalysisCache> {
        self.cache.as_deref()
    }

    /// The attached cache as a shareable handle, for callers that hold
    /// the cache beyond one engine's lifetime (a daemon publishing
    /// store stats after its sessions end).
    pub fn cache_handle(&self) -> Option<Arc<AnalysisCache>> {
        self.cache.clone()
    }

    /// Analyzes one prepared module under a fresh budget: cache lookup
    /// (when attached and eligible), then the staged cascade.
    ///
    /// # Errors
    ///
    /// Non-strict engines never error — failures degrade and are
    /// recorded on [`InferenceResult::degradations`]. Strict engines
    /// propagate the first stage failure.
    pub fn analyze(&self, analysis: &ModuleAnalysis) -> Result<InferenceResult, MantaError> {
        self.analyze_inner(analysis, None).map(|(r, _)| r)
    }

    /// Like [`Engine::analyze`] but also returning the type-provenance
    /// graph when the engine was built with
    /// [`EngineBuilder::provenance`]`(true)`. The graph is `Some` iff
    /// provenance is on; a cache hit restores the persisted graph (and
    /// recomputes when the cached entry predates provenance recording).
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze`].
    pub fn analyze_explained(
        &self,
        analysis: &ModuleAnalysis,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        self.analyze_inner(analysis, None)
    }

    /// Like [`Engine::analyze`] but charging work to an external,
    /// possibly shared, running budget (the CLI shares one budget
    /// across a whole command). A cache-served result consumes no
    /// budget; a fuel-limited result is keyed by the fuel left on
    /// `budget` at lookup and computed on `budget`, so it equals what
    /// the same call without a cache returns.
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze`].
    pub fn analyze_with_budget(
        &self,
        analysis: &ModuleAnalysis,
        budget: &Budget,
    ) -> Result<InferenceResult, MantaError> {
        self.analyze_inner(analysis, Some(budget)).map(|(r, _)| r)
    }

    /// Builds the analysis substrate and runs the cascade, sharing one
    /// budget across both.
    ///
    /// # Errors
    ///
    /// Substrate failures always propagate (there is nothing to degrade
    /// to without points-to and DDG); inference failures follow
    /// [`Engine::analyze`] semantics.
    pub fn analyze_module(
        &self,
        module: Module,
    ) -> Result<(ModuleAnalysis, InferenceResult), MantaError> {
        let budget = self.budget.start();
        let analysis = self.build_substrate(module, &budget)?;
        let result = self.analyze_with_budget(&analysis, &budget)?;
        Ok((analysis, result))
    }

    /// [`Engine::analyze_module`] for a caller that needs only the
    /// result and the preprocessed module it describes (the CLI's
    /// `infer`), with the same bytes. Where the cache policy applies and
    /// the budget is unlimited, the cache is probed right after
    /// preprocessing — the fingerprint needs only the preprocessed
    /// module — so a hit never builds the call graph, points-to or DDG,
    /// and a miss goes on without a second lookup. Strict engines, armed
    /// fault plans, deadlines, fuel limits and provenance take
    /// [`Engine::analyze_module`]'s path.
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze_module`].
    pub fn infer_module(&self, module: Module) -> Result<(Module, InferenceResult), MantaError> {
        let inferred = self.infer_probed(module, self.early_probe())?;
        Ok((inferred.module, inferred.result))
    }

    /// [`Engine::infer_module`] for a module given as source text (the
    /// daemon), answered as the encoded result. Under the same
    /// conditions as its early probe, a `"src"` alias keyed by the text
    /// ([`source_fingerprint`]) and the config hash names the module
    /// fingerprint and final counts of an earlier answer; while that
    /// answer's `"infer"` entry exists, its stored bytes are the answer
    /// and `parse` never runs. Anything else — no alias, a malformed
    /// one, an alias whose entry is gone, or a request the probe skips —
    /// parses the text and takes [`Engine::infer_module`]'s path, which
    /// writes the alias beside every result it finds or stores.
    ///
    /// `parse` must be the text → module mapping that
    /// [`crate::cache::SOURCE_VERSION`] stands for.
    ///
    /// # Errors
    ///
    /// `parse`'s error, or as for [`Engine::analyze_module`].
    pub fn infer_source(
        &self,
        text: &str,
        parse: impl FnOnce(&str) -> Result<Module, MantaError>,
    ) -> Result<SourceAnswer, MantaError> {
        let probe = self.early_probe();
        let alias = probe.map(|(cache, cfg)| {
            let key = Key::new("src", source_fingerprint(text), cfg);
            (cache, cfg, key)
        });
        if let Some((cache, cfg, key)) = &alias {
            if let Some((fingerprint, counts)) = cache.get_alias(key) {
                if let Some(bytes) = cache.store().get(&Key::new("infer", fingerprint, *cfg)) {
                    // Only non-degraded results are ever stored.
                    return Ok(SourceAnswer {
                        bytes,
                        counts,
                        degradations: 0,
                    });
                }
            }
        }
        let inferred = self.infer_probed(parse(text)?, probe)?;
        let counts = inferred.result.final_counts();
        let bytes = match (alias, inferred.stored) {
            (Some((cache, _, key)), Some((fingerprint, bytes))) => {
                cache.put(&key, &encode_alias(fingerprint, counts));
                bytes
            }
            _ => encode_result(&inferred.result),
        };
        Ok(SourceAnswer {
            bytes,
            counts,
            degradations: inferred.result.degradations.len(),
        })
    }

    /// The cache and config hash [`Engine::infer_module`] probes right
    /// after preprocessing: the cache policy's, where the budget is
    /// unlimited and provenance is off.
    fn early_probe(&self) -> Option<(&AnalysisCache, u64)> {
        if !self.budget.is_unlimited() || self.provenance {
            return None;
        }
        self.cache_policy(&Budget::unlimited())
    }

    /// [`Engine::infer_module`]'s body, probing `probe` (its
    /// [`Engine::early_probe`]) between preprocessing and the rest of
    /// the substrate.
    fn infer_probed(
        &self,
        module: Module,
        probe: Option<(&AnalysisCache, u64)>,
    ) -> Result<Inferred, MantaError> {
        let budget = self.budget.start();
        let Some((cache, cfg)) = probe else {
            let analysis = self.build_substrate(module, &budget)?;
            let result = self.analyze_with_budget(&analysis, &budget)?;
            return Ok(Inferred {
                module: analysis.pre.module,
                result,
                stored: None,
            });
        };
        let (analysis, (fingerprint, functions)) = {
            manta_telemetry::span!("analysis.build");
            let pre =
                ModuleAnalysis::preprocess_budgeted(module, PreprocessConfig::default(), &budget)?;
            let (fingerprint, functions) = fingerprints(&pre.module);
            if let Some((result, bytes)) = cache.get_result(&Key::new("infer", fingerprint, cfg)) {
                return Ok(Inferred {
                    module: pre.module,
                    result,
                    stored: Some((fingerprint, bytes)),
                });
            }
            let analysis = ModuleAnalysis::finish_budgeted(pre, &budget)?;
            (analysis, (fingerprint, functions))
        };
        let (result, _, encoded) =
            self.analyze_miss(&analysis, cache, (fingerprint, &functions), cfg, &budget)?;
        Ok(Inferred {
            module: analysis.pre.module,
            result,
            stored: encoded.map(|bytes| (fingerprint, bytes)),
        })
    }

    /// Builds the analysis substrate (preprocess → call graph →
    /// points-to → DDG) on `budget`. The build instruments and guards
    /// itself: one `analysis.build` span with a child per pass, and a
    /// fault site per pass (`analysis.preprocess` … `analysis.ddg`).
    ///
    /// # Errors
    ///
    /// Returns the first pass failure: budget exhaustion at an
    /// `analysis.*` site or a caught panic.
    pub fn build_substrate(
        &self,
        module: Module,
        budget: &Budget,
    ) -> Result<ModuleAnalysis, MantaError> {
        ModuleAnalysis::build_budgeted(module, PreprocessConfig::default(), budget)
    }

    /// Schedules whole-module analyses across the work-stealing pool,
    /// one job per module; within a job the nested stage-level
    /// parallelism runs inline on the worker.
    ///
    /// Results come back in input order, each exactly what
    /// [`Engine::analyze`] returns for that module.
    pub fn analyze_batch(
        &self,
        analyses: &[ModuleAnalysis],
    ) -> Vec<Result<InferenceResult, MantaError>> {
        manta_parallel::par_map(analyses.iter().collect(), |a| self.analyze(a))
    }

    fn analyze_inner(
        &self,
        analysis: &ModuleAnalysis,
        external: Option<&Budget>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        let fresh;
        let budget = match external {
            Some(budget) => budget,
            None => {
                fresh = self.budget.start();
                &fresh
            }
        };
        let Some((cache, cfg)) = self.cache_policy(budget) else {
            return self.run_pipeline(analysis, budget, None);
        };
        let (fingerprint, functions) = fingerprints(analysis.module());
        if let Some(hit) = self.lookup(cache, fingerprint, cfg) {
            return Ok(hit);
        }
        self.analyze_miss(analysis, cache, (fingerprint, &functions), cfg, budget)
            .map(|(result, prov, _)| (result, prov))
    }

    /// The cache policy, in one place for every analyze and for
    /// [`Engine::infer_module`]'s early probe: the cache and the config
    /// hash that results charged to `budget` are keyed by, or `None`
    /// when the cache must be bypassed — no cache attached, a strict
    /// engine, an armed fault plan, or a wall-clock deadline (faults and
    /// deadlines make results nondeterministic). A fuel-limited key
    /// hashes the fuel left on `budget` at lookup, which is what the run
    /// can still spend; for a fresh budget that is the spec's fuel.
    fn cache_policy(&self, budget: &Budget) -> Option<(&AnalysisCache, u64)> {
        let cache = self.cache.as_deref()?;
        if self.strict || plan_active() || self.budget.deadline_ms.is_some() {
            return None;
        }
        let fuel = (!budget.is_unlimited()).then(|| budget.fuel_left());
        Some((cache, config_hash(&self.config, fuel)))
    }

    /// One store lookup under the module fingerprint and config hash. A
    /// provenance-recording engine also reads the graph persisted beside
    /// the result under a `"prov"` key; a missing graph (the result was
    /// written by a provenance-off engine) reads as a miss, and so does
    /// an undecodable one, which is invalidated and recorded as store
    /// corruption; either way both are recomputed.
    fn lookup(
        &self,
        cache: &AnalysisCache,
        fingerprint: u64,
        cfg: u64,
    ) -> Option<(InferenceResult, Option<ProvenanceGraph>)> {
        let (hit, _) = cache.get_result(&Key::new("infer", fingerprint, cfg))?;
        if !self.provenance {
            return Some((hit, None));
        }
        let (graph, _) =
            cache.get_decoded(&Key::new("prov", fingerprint, cfg), ProvenanceGraph::decode)?;
        Some((hit, Some(graph)))
    }

    /// A cache miss on the module key `fingerprint`, folded from the
    /// per-function fingerprints `functions`: computes on `budget` and
    /// persists only non-degraded results. The graph of a
    /// provenance-recording engine lands beside the result, and a
    /// summary-mode engine's next summary state replaces the previous
    /// one; the result payload stays bit-identical to a provenance-off,
    /// summary-off run.
    fn analyze_miss(
        &self,
        analysis: &ModuleAnalysis,
        cache: &AnalysisCache,
        (fingerprint, functions): (u64, &[u64]),
        cfg: u64,
        budget: &Budget,
    ) -> Result<Miss, MantaError> {
        let key = Key::new("infer", fingerprint, cfg);
        // Summary mode: refinement chunks replay from the persisted
        // per-function summary state. Limited budgets run without it (a
        // blown budget must trip exactly where the full pipeline would),
        // as do provenance engines and ineligible sensitivities.
        let state_key = (self.summaries
            && !self.provenance
            && budget.is_unlimited()
            && summaries::eligible(self.config.sensitivity))
        .then(|| summaries::state_key(analysis.module().name(), &self.config));
        let mut memo = state_key
            .as_ref()
            .map(|k| Memo::new(analysis, summaries::load(cache, k), functions));
        let (result, prov) = self.run_pipeline(analysis, budget, memo.as_mut())?;
        // A degraded result is never persisted, nor is the summary state
        // it leaves behind.
        let encoded = (!result.is_degraded()).then(|| {
            let bytes = encode_result(&result);
            cache.put(&key, &bytes);
            if let Some(graph) = &prov {
                cache.put(&Key::new("prov", fingerprint, cfg), &graph.encode());
            }
            if let (Some(state_key), Some(memo)) = (&state_key, memo) {
                manta_telemetry::span!("summary.encode");
                cache.put(state_key, &memo.finish());
            }
            bytes
        });
        Ok((result, prov, encoded))
    }

    /// The driver loop: every cross-cutting concern — span, fault
    /// point, budget attribution, panic isolation, delta commit,
    /// degradation record — applied once per stage. A stage's delta is
    /// committed only after the stage returns `Ok`, so a failed stage
    /// leaves the last completed tier as it was. With a `memo` (summary
    /// mode), the refinement step replays and records chunks through it.
    pub(crate) fn run_pipeline(
        &self,
        analysis: &ModuleAnalysis,
        budget: &Budget,
        mut memo: Option<&mut Memo>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        manta_telemetry::span!("infer");
        let config = self.config;
        let mut prov = self.provenance.then(|| {
            // The substrate's solve recorded nothing; re-solve with
            // recording on, outside the run's budget and fault sites, so
            // a provenance run trips exactly where a plain one does.
            manta_telemetry::span!("provenance.pointsto");
            let mut graph = ProvenanceGraph::new();
            graph.record_pointsto(&PointsTo::derivations(&analysis.pre));
            graph
        });
        let mut reveals = None;
        let mut result = InferenceResult::empty(config);
        let mut completed = String::from("none");
        let tiers = cascade(config.sensitivity).iter().copied().map(Some);
        for step in std::iter::once(None).chain(tiers) {
            let (name, site, tier) = labels(step);
            let _span = manta_telemetry::span(name);
            let ran = isolate(site, || {
                fault_point_budgeted(site, budget);
                let memo = memo.as_deref_mut();
                run_step(
                    step,
                    &config,
                    analysis,
                    reveals.as_ref(),
                    &result,
                    budget,
                    memo,
                )
                .map_err(|e| budget_error(site, e))
            });
            let delta = match ran.and_then(|delta| delta) {
                Ok(delta) => delta,
                Err(e) if self.strict => return Err(e),
                Err(e) => {
                    let kind = DegradationKind::from_error(&e);
                    let record = Degradation::record(site, completed, kind, e.to_string());
                    result.degradations.push(record);
                    break;
                }
            };
            // Provenance reads the stage's facts from the delta, against
            // the result it is about to be committed to.
            if let Some(graph) = prov.as_mut() {
                let tier = tier.unwrap_or_default();
                match &delta {
                    Delta::Reveals(map) => graph.record_reveals(map, analysis.module()),
                    Delta::Base(base) => {
                        graph.record_stage(tier, &result, base.var_entries(), base.site_entries());
                    }
                    Delta::Refine(_, delta) => {
                        let vars = delta.vars.iter().map(|(v, i)| (*v, i));
                        let sites = delta.sites.iter().map(|(k, i)| (*k, i));
                        graph.record_stage(tier, &result, vars, sites);
                    }
                }
            }
            match delta {
                Delta::Reveals(map) => reveals = Some(map),
                Delta::Base(base) => result = base,
                Delta::Refine(stage, delta) => commit(stage, analysis, &mut result, delta),
            }
            if let Some(tier) = tier {
                if completed == "none" {
                    completed = tier.trim_start_matches('+').to_string();
                } else {
                    completed.push_str(tier);
                }
            }
        }
        result.config = config;
        Ok((result, prov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::results_identical;
    use manta_ir::{ModuleBuilder, Width};
    use manta_resilience::DegradationKind;

    fn module(tag: &str) -> Module {
        let mut mb = ModuleBuilder::new(tag);
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_f, mut fb) = mb.function("grab", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let buf = fb.call_extern(malloc, &[n], Some(Width::W64));
        fb.ret(buf);
        mb.finish_function(fb);
        mb.finish()
    }

    #[test]
    fn builder_defaults_are_unlimited_and_graceful() {
        let engine = Engine::builder().build().expect("cacheless build");
        assert!(engine.budget().is_unlimited());
        assert!(!engine.strict());
        assert!(engine.cache().is_none());
    }

    #[test]
    fn analyze_module_builds_and_infers() {
        let engine = Engine::new(MantaConfig::full());
        let (analysis, result) = engine.analyze_module(module("m")).expect("analyze");
        assert_eq!(analysis.module().name(), "m");
        assert!(!result.is_degraded());
        assert!(result.var_entries().next().is_some());
    }

    #[test]
    fn batch_results_match_individual_analyzes_in_order() {
        let engine = Engine::new(MantaConfig::full());
        let analyses: Vec<ModuleAnalysis> = ["a", "b", "c"]
            .iter()
            .map(|tag| ModuleAnalysis::build(module(tag)))
            .collect();
        let batch = engine.analyze_batch(&analyses);
        assert_eq!(batch.len(), analyses.len());
        for (a, b) in analyses.iter().zip(&batch) {
            let solo = engine.analyze(a).expect("non-strict never errors");
            let b = b.as_ref().expect("non-strict never errors");
            assert!(results_identical(&solo, b));
        }
    }

    #[test]
    fn every_sensitivity_has_a_base_tier_first() {
        for s in [
            Sensitivity::Fi,
            Sensitivity::Fs,
            Sensitivity::FiFs,
            Sensitivity::FiCsFs,
            Sensitivity::FiFsCs,
        ] {
            // Reveal collection runs before every cascade and completes
            // no tier.
            assert_eq!(labels(None), ("reveal", "infer.reveal", None));
            let cascade = cascade(s);
            let first_tier = labels(Some(cascade[0])).2.expect("base tier first");
            assert!(!first_tier.starts_with('+'), "base tier must not append");
            for &stage in &cascade[1..] {
                let tier = labels(Some(stage)).2.expect("refinement tier");
                assert!(tier.starts_with('+'));
            }
        }
    }

    #[test]
    fn analyze_explained_builds_a_graph_only_when_enabled() {
        let analysis = ModuleAnalysis::build(module("prov"));
        let off = Engine::new(MantaConfig::full());
        let (r_off, g_off) = off.analyze_explained(&analysis).expect("analyze");
        assert!(g_off.is_none(), "provenance off yields no graph");

        let on = Engine::builder()
            .config(MantaConfig::full())
            .provenance(true)
            .build()
            .expect("cacheless build");
        let (r_on, g_on) = on.analyze_explained(&analysis).expect("analyze");
        let graph = g_on.expect("provenance on yields a graph");
        assert!(
            results_identical(&r_off, &r_on),
            "recording must not change results"
        );
        let tiers = graph.tier_counts();
        assert!(tiers.contains_key(crate::provenance::TIER_REVEAL));
        assert!(tiers.contains_key("FI"));
        // Every FI fact chains back to reveal leaves or is hint-free.
        let (malloc_ret, _) = r_on.var_entries().next().expect("typed vars");
        assert!(graph.explain(malloc_ret).is_some());
    }

    /// Every span name in a captured forest, depth first.
    fn span_names(spans: &[manta_telemetry::SpanReport], out: &mut Vec<String>) {
        for s in spans {
            out.push(s.name.clone());
            span_names(&s.children, out);
        }
    }

    #[test]
    fn infer_module_hit_builds_no_call_graph_pointsto_or_ddg() {
        let tmp = manta_store::TempDir::new("engine-early-probe");
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .cache_dir(tmp.path())
            .build()
            .expect("cache dir opens");
        // `scoped` captures this thread's spans only, even with global
        // collection off, so no other test's telemetry can interleave.
        let run = || {
            let (inferred, spans) =
                manta_telemetry::scoped(|| engine.infer_module(module("probe")));
            let mut names = Vec::new();
            span_names(&spans, &mut names);
            (inferred.expect("non-strict never errors").1, names)
        };
        let (cold, cold_spans) = run();
        let (warm, warm_spans) = run();
        assert!(results_identical(&cold, &warm));
        let ran = |spans: &[String], pass: &str| spans.iter().any(|s| s == pass);
        for pass in ["callgraph", "pointsto", "ddg", "infer"] {
            assert!(ran(&cold_spans, pass), "a miss runs {pass}");
            assert!(!ran(&warm_spans, pass), "a hit skips {pass}");
        }
        assert!(ran(&warm_spans, "preprocess"), "the fingerprint needs it");
        let s = engine.cache().expect("attached").store().stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1), "one lookup per call");
    }

    /// A generated module's text, large enough that the sensitivities
    /// disagree on its class counts.
    fn source_text(seed: u64) -> String {
        use manta_workloads::generator::{generate, GenSpec};
        let project = generate(&GenSpec {
            name: format!("alias_{seed}"),
            functions: 6,
            mix: manta_workloads::PhenomenonMix::balanced(),
            seed,
        });
        manta_ir::printer::print_module(&project.module)
    }

    fn parse(text: &str) -> Result<Module, MantaError> {
        manta_ir::parser::parse_module(text).map_err(|e| MantaError::Parse {
            line: 0,
            col: 0,
            message: e.to_string(),
        })
    }

    /// What `infer_source` must answer: a cacheless analysis, encoded.
    fn cacheless(text: &str, sensitivity: Sensitivity) -> SourceAnswer {
        let engine = Engine::new(MantaConfig::with_sensitivity(sensitivity));
        let module = parse(text).expect("generated text parses");
        let (_, result) = engine.analyze_module(module).expect("non-strict");
        SourceAnswer {
            bytes: encode_result(&result),
            counts: result.final_counts(),
            degradations: result.degradations.len(),
        }
    }

    fn cached(cache: &Arc<AnalysisCache>, sensitivity: Sensitivity) -> Engine {
        Engine::builder()
            .sensitivity(sensitivity)
            .cache(Arc::clone(cache))
            .build()
            .expect("prebuilt cache attaches")
    }

    /// One `infer_source` call: its answer, how often it parsed, and the
    /// spans it recorded on this thread.
    fn answer(engine: &Engine, text: &str) -> (SourceAnswer, usize, Vec<String>) {
        let parses = std::cell::Cell::new(0);
        let (answer, spans) = manta_telemetry::scoped(|| {
            engine.infer_source(text, |t| {
                parses.set(parses.get() + 1);
                parse(t)
            })
        });
        let mut names = Vec::new();
        span_names(&spans, &mut names);
        (
            answer.expect("non-strict never errors"),
            parses.get(),
            names,
        )
    }

    /// The one `{kind}-*.entry` file in the store.
    fn entry_file(cache: &AnalysisCache, kind: &str) -> std::path::PathBuf {
        let mut files: Vec<_> = std::fs::read_dir(cache.store().dir())
            .expect("store dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&format!("{kind}-")) && n.ends_with(".entry"))
            })
            .collect();
        assert_eq!(files.len(), 1, "one {kind} entry");
        files.pop().expect("one entry")
    }

    fn open_cache(tag: &str) -> (manta_store::TempDir, Arc<AnalysisCache>) {
        let tmp = manta_store::TempDir::new(tag);
        let cache = Arc::new(AnalysisCache::open(tmp.path()).expect("cache dir opens"));
        (tmp, cache)
    }

    #[test]
    fn infer_source_answers_repeats_from_the_alias_without_parsing() {
        let (_tmp, cache) = open_cache("alias-repeat");
        let engine = cached(&cache, Sensitivity::FiCsFs);
        let text = source_text(3);
        let want = cacheless(&text, Sensitivity::FiCsFs);
        let (cold, parses, spans) = answer(&engine, &text);
        assert_eq!(cold, want, "cold");
        assert_eq!(parses, 1);
        assert!(
            spans.iter().any(|s| s == "preprocess"),
            "a miss preprocesses"
        );
        for pass in ["warm", "third"] {
            let (got, parses, spans) = answer(&engine, &text);
            assert_eq!(got, want, "{pass}");
            assert_eq!(parses, 0, "{pass}: an alias hit never parses");
            assert!(
                spans.is_empty(),
                "{pass}: an alias hit runs no pass: {spans:?}"
            );
        }
        assert_eq!(
            cache.store().kind_traffic(),
            [("infer", 2, 1), ("src", 2, 1)],
            "a hit is one src and one infer read"
        );
    }

    #[test]
    fn a_corrupt_alias_reads_as_a_miss_and_is_rewritten() {
        let (_tmp, cache) = open_cache("alias-corrupt");
        let engine = cached(&cache, Sensitivity::FiCsFs);
        let text = source_text(5);
        let want = cacheless(&text, Sensitivity::FiCsFs);
        assert_eq!(answer(&engine, &text).0, want);
        let alias = entry_file(&cache, "src");
        let mut raw = std::fs::read(&alias).expect("alias file");
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&alias, raw).expect("flip a byte");
        let (got, parses, _) = answer(&engine, &text);
        assert_eq!((got, parses), (want.clone(), 1), "a corrupt alias misses");
        assert_eq!(cache.store().stats().snapshot().corrupt, 1);
        assert!(alias.exists(), "the answer rewrites the alias");
        assert_eq!(answer(&engine, &text), (want, 0, Vec::new()));
    }

    #[test]
    fn an_alias_whose_result_is_gone_takes_the_full_path() {
        let (_tmp, cache) = open_cache("alias-orphan");
        let engine = cached(&cache, Sensitivity::FiCsFs);
        let text = source_text(7);
        let want = cacheless(&text, Sensitivity::FiCsFs);
        assert_eq!(answer(&engine, &text).0, want);
        std::fs::remove_file(entry_file(&cache, "infer")).expect("delete the result");
        let (got, parses, spans) = answer(&engine, &text);
        assert_eq!((got, parses), (want.clone(), 1));
        for pass in ["preprocess", "pointsto", "infer"] {
            assert!(spans.iter().any(|s| s == pass), "the full path runs {pass}");
        }
        assert_eq!(answer(&engine, &text), (want, 0, Vec::new()));
    }

    #[test]
    fn a_wrong_length_alias_is_invalidated() {
        let (_tmp, cache) = open_cache("alias-short");
        let engine = cached(&cache, Sensitivity::FiCsFs);
        let text = source_text(9);
        let want = cacheless(&text, Sensitivity::FiCsFs);
        assert_eq!(answer(&engine, &text).0, want);
        let cfg = config_hash(engine.config(), None);
        let key = Key::new("src", source_fingerprint(&text), cfg);
        cache
            .store()
            .put(&key, &[0xab; 7])
            .expect("checksum-valid put");
        let (got, parses, _) = answer(&engine, &text);
        assert_eq!((got, parses), (want.clone(), 1), "a short alias misses");
        assert_eq!(cache.store().stats().snapshot().invalidations, 1);
        let degs = cache.take_degradations();
        assert_eq!(degs.len(), 1);
        assert_eq!(degs[0].kind, DegradationKind::StoreCorruption);
        assert_eq!(answer(&engine, &text), (want, 0, Vec::new()));
    }

    #[test]
    fn each_sensitivity_answers_from_its_own_alias() {
        let (_tmp, cache) = open_cache("alias-sensitivity");
        let text = source_text(11);
        let sens = [Sensitivity::FiCsFs, Sensitivity::Fi];
        let want = sens.map(|s| cacheless(&text, s));
        assert_ne!(
            want[0].counts, want[1].counts,
            "the counts must tell them apart"
        );
        for pass in ["cold", "warm"] {
            for (s, want) in sens.iter().zip(&want) {
                let (got, _, _) = answer(&cached(&cache, *s), &text);
                assert_eq!(&got, want, "{s:?} ({pass})");
            }
        }
    }

    #[test]
    fn strict_zero_fuel_propagates_a_budget_error() {
        let analysis = ModuleAnalysis::build(module("strict"));
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .budget(BudgetSpec {
                fuel: Some(0),
                deadline_ms: None,
            })
            .strict(true)
            .build()
            .expect("cacheless build");
        let err = engine.analyze(&analysis).expect_err("zero fuel must trip");
        assert!(matches!(err, MantaError::Budget { .. }), "got {err:?}");
    }
}
