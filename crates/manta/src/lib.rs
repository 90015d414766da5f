//! # manta
//!
//! The hybrid-sensitive type inference of *Manta: Hybrid-Sensitive Type
//! Inference Toward Type-Assisted Bug Detection for Stripped Binaries*
//! (ASPLOS 2024), reproduced in Rust.
//!
//! The inference runs in up to three stages of increasing precision
//! (paper §4, Figure 1):
//!
//! 1. **Global flow-insensitive inference** ([`flow_insensitive`]) — a
//!    unification-based analysis applying Table 1's rules, maintaining an
//!    upper-bound type map `F↑` (joins) and a lower-bound map `F↓` (meets)
//!    for every variable and memory object. Variables are then classified
//!    as *precise* (`V_P`), *over-approximated* (`V_O`) or *unknown*
//!    (`V_U`).
//! 2. **Context-sensitive refinement** ([`ctx_refine`], Algorithm 1) — for
//!    each `v ∈ V_O`, a backward DDG traversal finds the alias roots of
//!    `v` under CFL-reachability, then a forward traversal collects only
//!    the type hints in CFL-valid contexts, shrinking the interval.
//! 3. **Flow-sensitive refinement** ([`flow_refine`], Algorithm 2) — for
//!    variables still over-approximated, type hints are collected per
//!    def/use site by backward CFG search with strong updates, producing
//!    `v@s` types.
//!
//! The [`Manta`] driver runs any prefix combination of the stages
//! ([`Sensitivity`]), which is exactly the ablation axis of the paper's
//! evaluation (Manta-FI, Manta-FS, Manta-FI+FS, Manta-FI+CS+FS).
//!
//! ```
//! use manta_ir::{ModuleBuilder, Width};
//! use manta_analysis::ModuleAnalysis;
//! use manta::{Manta, MantaConfig, Sensitivity};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let malloc = mb.extern_fn("malloc", &[], None);
//! let (_f, mut fb) = mb.function("grab", &[Width::W64], Some(Width::W64));
//! let n = fb.param(0);
//! let buf = fb.call_extern(malloc, &[n], Some(Width::W64));
//! fb.ret(buf);
//! mb.finish_function(fb);
//!
//! let analysis = ModuleAnalysis::build(mb.finish());
//! let result = Manta::new(MantaConfig::with_sensitivity(Sensitivity::FiCsFs))
//!     .infer(&analysis);
//! // `n` flows into malloc's size parameter: revealed as int64.
//! let f = analysis.module().function_by_name("grab").unwrap();
//! let p0 = manta_analysis::VarRef::new(f.id(), f.params()[0]);
//! assert!(result.interval(p0).unwrap().resolution().is_precise());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod classify;
pub mod ctx_refine;
pub mod engine;
pub mod flow_insensitive;
pub mod flow_refine;
mod idhash;
pub mod interval;
pub mod provenance;
pub mod reveal;
pub mod summaries;
mod unify;

use std::collections::HashMap;
use std::ops::Range;

use manta_analysis::{ModuleAnalysis, ObjectId, VarRef};
use manta_ir::{FuncId, InstId, Type, ValueId};

pub use cache::AnalysisCache;
pub use classify::VarClass;
pub use engine::{Engine, EngineBuilder};
pub use interval::{FirstLayer, Resolution, TypeInterval};
pub use provenance::{ExplainNode, Fact, ProvenanceGraph, PtsDerivation, PtsTarget};
pub use reveal::{Reveal, RevealMap};
pub use unify::UnionFind;

/// Which stages of the hybrid cascade to run — the paper's ablation axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sensitivity {
    /// Global flow-insensitive inference only (Manta-FI).
    Fi,
    /// Standalone flow-sensitive inference only (Manta-FS): per-use-site
    /// backward hint collection with strong updates and no global
    /// unification.
    Fs,
    /// FI followed directly by flow-sensitive refinement (Manta-FI+FS).
    FiFs,
    /// The full cascade: FI, then context-sensitive, then flow-sensitive
    /// refinement (Manta-FI+CS+FS).
    FiCsFs,
    /// The *reversed* refinement order (FI, then flow-sensitive, then
    /// context-sensitive) — the §6.4 "Type Refinement Order" ablation. The
    /// aggressive flow-sensitive stage runs first and loses types that the
    /// context-sensitive stage could have resolved, so this configuration
    /// is strictly weaker than [`Sensitivity::FiCsFs`].
    FiFsCs,
}

impl Sensitivity {
    /// All ablation configurations, in the paper's column order.
    pub const ALL: [Sensitivity; 4] = [
        Sensitivity::Fi,
        Sensitivity::Fs,
        Sensitivity::FiFs,
        Sensitivity::FiCsFs,
    ];

    /// The ablation columns plus the reversed-order configuration of §6.4.
    pub const WITH_REVERSED: [Sensitivity; 5] = [
        Sensitivity::Fi,
        Sensitivity::Fs,
        Sensitivity::FiFs,
        Sensitivity::FiCsFs,
        Sensitivity::FiFsCs,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Sensitivity::Fi => "FI",
            Sensitivity::Fs => "FS",
            Sensitivity::FiFs => "FI+FS",
            Sensitivity::FiCsFs => "FI+CS+FS",
            Sensitivity::FiFsCs => "FI+FS+CS",
        }
    }
}

/// Tuning parameters of the inference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MantaConfig {
    /// The stage combination to run.
    pub sensitivity: Sensitivity,
    /// Maximum calling-context stack depth during CFL traversals.
    pub max_ctx_depth: usize,
    /// Node-visit budget per refined variable (scalability guard).
    pub max_visits: usize,
}

impl MantaConfig {
    /// The paper's default: full hybrid cascade.
    pub fn full() -> MantaConfig {
        Self::with_sensitivity(Sensitivity::FiCsFs)
    }

    /// Defaults with an explicit sensitivity.
    pub fn with_sensitivity(sensitivity: Sensitivity) -> MantaConfig {
        MantaConfig {
            sensitivity,
            max_ctx_depth: 32,
            max_visits: 4096,
        }
    }
}

impl Default for MantaConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Per-stage classification counts (drives the paper's Figure 9).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClassCounts {
    /// `|V_P|` — precisely resolved.
    pub precise: usize,
    /// `|V_O|` — over-approximated.
    pub over: usize,
    /// `|V_U|` — unknown.
    pub unknown: usize,
}

impl ClassCounts {
    /// Total classified variables.
    pub fn total(&self) -> usize {
        self.precise + self.over + self.unknown
    }
}

/// A stage label used in [`InferenceResult::stage_counts`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// After global flow-insensitive inference.
    FlowInsensitive,
    /// After context-sensitive refinement.
    ContextRefine,
    /// After flow-sensitive refinement.
    FlowRefine,
    /// After standalone flow-sensitive inference.
    StandaloneFs,
}

/// "No entry" in [`InferenceResult`]'s slot tables: a variable or object
/// that no hint reached.
pub(crate) const NONE: u32 = u32::MAX;

/// A per-function value-offset numbering: function `funcs[k]` owns the
/// slots `base[k]..base[k + 1]`, one per value, in value order, with
/// `funcs` ascending. Built from a module it lists every function, so the
/// slots are the DDG's node numbering ([`manta_analysis::Ddg::node`]) and
/// `funcs[f.index()] == f` makes a lookup one index. A decoded result
/// lists only the functions its payload names, and a lookup falls back to
/// a binary search.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarIndex {
    funcs: Vec<FuncId>,
    base: Vec<u32>,
}

impl VarIndex {
    /// The numbering of every value of every function of `module`.
    pub(crate) fn of_module(module: &manta_ir::Module) -> VarIndex {
        VarIndex::from_counts(module.functions().map(|f| (f.id(), f.value_count())))
    }

    /// The numbering of `(function, value count)` runs, functions
    /// ascending.
    pub(crate) fn from_counts(counts: impl Iterator<Item = (FuncId, usize)>) -> VarIndex {
        let mut index = VarIndex {
            funcs: Vec::with_capacity(counts.size_hint().0),
            base: vec![0],
        };
        let mut next = 0u32;
        for (f, n) in counts {
            next += n as u32;
            index.funcs.push(f);
            index.base.push(next);
        }
        index
    }

    /// Total slots.
    pub(crate) fn len(&self) -> usize {
        self.base.last().map_or(0, |&n| n as usize)
    }

    /// The slots of function `f` (empty when it owns none).
    pub(crate) fn slots(&self, f: FuncId) -> Range<usize> {
        let k = match self.funcs.get(f.index()) {
            Some(&g) if g == f => f.index(),
            _ => match self.funcs.binary_search(&f) {
                Ok(k) => k,
                Err(_) => return 0..0,
            },
        };
        self.base[k] as usize..self.base[k + 1] as usize
    }

    /// The slot of variable `v`, if the numbering covers it.
    pub(crate) fn slot(&self, v: VarRef) -> Option<usize> {
        let slots = self.slots(v.func);
        let s = slots.start + v.value.index();
        (s < slots.end).then_some(s)
    }

    /// Every function with its slots, ascending.
    pub(crate) fn functions(&self) -> impl Iterator<Item = (FuncId, Range<usize>)> + '_ {
        self.funcs
            .iter()
            .zip(self.base.windows(2))
            .map(|(&f, w)| (f, w[0] as usize..w[1] as usize))
    }

    /// Every slot with its variable, in [`VarRef`] order.
    pub(crate) fn vars(&self) -> impl Iterator<Item = (usize, VarRef)> + '_ {
        self.functions().flat_map(|(f, slots)| {
            let base = slots.start;
            slots.map(move |s| (s, VarRef::new(f, ValueId((s - base) as u32))))
        })
    }
}

/// The output of the inference: interval type maps for variables, objects
/// and use sites, plus per-stage statistics.
///
/// The state lives on the per-function value-offset numbering that the
/// DDG ([`manta_analysis::Ddg::node`]) and the points-to solver use: one
/// interval slot and one class byte per variable, with the intervals in
/// one shared table. Every member of a flow-insensitive class names its
/// class's one interval, and a refinement writes a fresh entry for each
/// slot it updates. Objects are indexed by [`ObjectId`], and `v@s` site
/// intervals sit in one table sorted by `(v, s)`. The accessors below are
/// the whole read surface. The result codec ([`cache::encode_result`])
/// walks the layout in [`VarRef`] order.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    pub(crate) vars: VarIndex,
    /// Per variable slot, its interval's index in `intervals`, or
    /// [`NONE`].
    pub(crate) slot: Vec<u32>,
    /// Per variable slot, its class after the last stage; `None` for
    /// constants and for a result no stage classified.
    pub(crate) class: Vec<Option<VarClass>>,
    /// Per object, its interval's index in `intervals`, or [`NONE`].
    pub(crate) obj: Vec<u32>,
    pub(crate) intervals: Vec<TypeInterval>,
    /// `v@s` intervals, ascending by `(v, s)`.
    pub(crate) sites: Vec<((VarRef, InstId), TypeInterval)>,
    /// Classification after each executed stage, in execution order.
    pub stage_counts: Vec<(Stage, ClassCounts)>,
    /// The configuration that produced this result.
    pub config: MantaConfig,
    /// Stages that were cut short (budget, panic, injected fault) and the
    /// sensitivity tier the maps actually reflect. Empty for a run that
    /// completed at full configured sensitivity.
    pub degradations: Vec<manta_resilience::Degradation>,
}

impl InferenceResult {
    /// A result with no entries and no layout: what a run whose base
    /// stage fails keeps.
    pub(crate) fn empty(config: MantaConfig) -> InferenceResult {
        InferenceResult::with_layout(VarIndex::default(), 0, config)
    }

    /// A result with no entries, laid out over `analysis`'s variables and
    /// objects.
    pub(crate) fn over(analysis: &ModuleAnalysis, config: MantaConfig) -> InferenceResult {
        let vars = VarIndex::of_module(analysis.module());
        InferenceResult::with_layout(vars, analysis.pointsto.object_count(), config)
    }

    /// A result with no entries, laid out over the variables `vars`
    /// numbers and `objects` objects.
    pub(crate) fn with_layout(
        vars: VarIndex,
        objects: usize,
        config: MantaConfig,
    ) -> InferenceResult {
        InferenceResult {
            slot: vec![NONE; vars.len()],
            class: vec![None; vars.len()],
            vars,
            obj: vec![NONE; objects],
            intervals: Vec::new(),
            sites: Vec::new(),
            stage_counts: Vec::new(),
            config,
            degradations: Vec::new(),
        }
    }

    /// The interval a slot-table entry names.
    fn entry(&self, index: u32) -> Option<&TypeInterval> {
        (index != NONE).then(|| &self.intervals[index as usize])
    }

    /// Points `v`'s slot at `interval`, as a new table entry; returns the
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover `v`.
    pub(crate) fn set_var(&mut self, v: VarRef, interval: TypeInterval) -> usize {
        let s = self.vars.slot(v).expect("the layout covers every variable");
        self.slot[s] = self.intervals.len() as u32;
        self.intervals.push(interval);
        s
    }

    /// Adds `v@s` intervals, a later one for a site replacing an earlier.
    /// A refinement's delta arrives sorted, and the first one to write
    /// sites becomes the table as it is.
    pub(crate) fn add_sites(&mut self, mut sites: Vec<((VarRef, InstId), TypeInterval)>) {
        if sites.is_empty() {
            return;
        }
        // Stable sorts: each run of equal keys keeps its write order.
        if !sites.is_sorted_by_key(|(k, _)| *k) {
            sites.sort_by_key(|(k, _)| *k);
        }
        if self.sites.is_empty() {
            self.sites = sites;
        } else {
            self.sites.append(&mut sites);
            self.sites.sort_by_key(|(k, _)| *k);
        }
        // The last write of each run wins, in the run's first slot.
        self.sites.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
    }

    /// Every variable that has an interval, in [`VarRef`] order.
    pub(crate) fn var_entries(&self) -> impl Iterator<Item = (VarRef, &TypeInterval)> + '_ {
        self.vars
            .vars()
            .filter_map(|(s, v)| Some((v, self.entry(self.slot[s])?)))
    }

    /// Every classified variable, in [`VarRef`] order.
    pub(crate) fn class_entries(&self) -> impl Iterator<Item = (VarRef, VarClass)> + '_ {
        self.vars
            .vars()
            .filter_map(|(s, v)| Some((v, self.class[s]?)))
    }

    /// Every object that has an interval, in id order.
    pub(crate) fn obj_entries(&self) -> impl Iterator<Item = (ObjectId, &TypeInterval)> + '_ {
        self.obj
            .iter()
            .enumerate()
            .filter_map(|(o, &i)| Some((ObjectId(o as u32), self.entry(i)?)))
    }

    /// Every `v@s` interval, in `(v, s)` order.
    pub(crate) fn site_entries(
        &self,
    ) -> impl Iterator<Item = ((VarRef, InstId), &TypeInterval)> + '_ {
        self.sites.iter().map(|(k, i)| (*k, i))
    }

    /// The interval recorded for exactly `v@s`, with no fallback.
    pub(crate) fn site(&self, v: VarRef, s: InstId) -> Option<&TypeInterval> {
        let at = self.sites.binary_search_by_key(&(v, s), |(k, _)| *k).ok()?;
        Some(&self.sites[at].1)
    }

    /// Whether the run completed at its full configured sensitivity.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// The inferred interval for variable `v`, if any hint reached it.
    pub fn interval(&self, v: VarRef) -> Option<&TypeInterval> {
        self.entry(self.slot[self.vars.slot(v)?])
    }

    /// The inferred interval for object `o`.
    pub fn obj_interval(&self, o: ObjectId) -> Option<&TypeInterval> {
        self.entry(*self.obj.get(o.index())?)
    }

    /// The inferred interval for `v` at site `s` (`v@s`). Falls back to the
    /// variable-level interval: per §4.2.2, `F(v@s) = F(v)` for variables
    /// that needed no flow-sensitive refinement.
    pub fn interval_at(&self, v: VarRef, s: InstId) -> Option<&TypeInterval> {
        self.site(v, s).or_else(|| self.interval(v))
    }

    /// Upper-bound type `F↑(v)`. Unknown variables read as `⊤` — the
    /// conservative any-type widening of §4.1.
    pub fn upper(&self, v: VarRef) -> Type {
        match self.interval(v) {
            Some(i) if !i.is_unknown() => i.upper.clone(),
            _ => Type::Top,
        }
    }

    /// Lower-bound type `F↓(v)`. Unknown variables read as `⊥` — the
    /// conservative any-type widening of §4.1.
    pub fn lower(&self, v: VarRef) -> Type {
        match self.interval(v) {
            Some(i) if !i.is_unknown() => i.lower.clone(),
            _ => Type::Bottom,
        }
    }

    /// The classification of `v` after the final executed stage.
    pub fn class_of(&self, v: VarRef) -> VarClass {
        self.vars
            .slot(v)
            .and_then(|s| self.class[s])
            .unwrap_or(VarClass::Unknown)
    }

    /// Classification counts after the final stage.
    pub fn final_counts(&self) -> ClassCounts {
        self.stage_counts
            .last()
            .map(|&(_, c)| c)
            .unwrap_or_default()
    }

    /// The resolved singleton type of `v`, if precise.
    pub fn precise_type(&self, v: VarRef) -> Option<Type> {
        match self.interval(v)?.resolution() {
            Resolution::Precise(t) => Some(t),
            _ => None,
        }
    }
}

/// Read-only access to inferred type intervals — the interface the §5
/// clients (indirect-call pruning, DDG pruning, bug checkers) consume.
///
/// [`InferenceResult`] implements it with full `v@s` site granularity;
/// baseline tools implement it through [`MapTypes`] at variable
/// granularity, which lets the evaluation feed *any* tool's types into the
/// same clients (the paper's Figure 12 setup).
pub trait TypeQuery {
    /// The interval for variable `v`, if known.
    fn var_interval(&self, v: VarRef) -> Option<&TypeInterval>;

    /// The interval for `v` at site `s`; defaults to the variable-level
    /// interval.
    fn site_interval(&self, v: VarRef, s: InstId) -> Option<&TypeInterval> {
        let _ = s;
        self.var_interval(v)
    }

    /// `F↑(v)` with the §4.1 any-type widening for unknowns.
    fn upper_of(&self, v: VarRef) -> Type {
        match self.var_interval(v) {
            Some(i) if !i.is_unknown() => i.upper.clone(),
            _ => Type::Top,
        }
    }

    /// `F↓(v)` with the §4.1 any-type widening for unknowns.
    fn lower_of(&self, v: VarRef) -> Type {
        match self.var_interval(v) {
            Some(i) if !i.is_unknown() => i.lower.clone(),
            _ => Type::Bottom,
        }
    }

    /// `F↑(v@s)` with the widening.
    fn upper_at(&self, v: VarRef, s: InstId) -> Type {
        match self.site_interval(v, s) {
            Some(i) if !i.is_unknown() => i.upper.clone(),
            _ => Type::Top,
        }
    }

    /// The precisely-resolved type of `v` at `s`, if any.
    fn precise_at(&self, v: VarRef, s: InstId) -> Option<Type> {
        match self.site_interval(v, s)?.resolution() {
            Resolution::Precise(t) => Some(t),
            _ => None,
        }
    }

    /// The precisely-resolved type of `v`, if any.
    fn precise_of(&self, v: VarRef) -> Option<Type> {
        match self.var_interval(v)?.resolution() {
            Resolution::Precise(t) => Some(t),
            _ => None,
        }
    }
}

impl TypeQuery for InferenceResult {
    fn var_interval(&self, v: VarRef) -> Option<&TypeInterval> {
        self.interval(v)
    }

    fn site_interval(&self, v: VarRef, s: InstId) -> Option<&TypeInterval> {
        self.interval_at(v, s)
    }
}

/// A plain variable-to-interval map implementing [`TypeQuery`] — the
/// adapter for baseline tools that produce flat type assignments.
#[derive(Clone, Debug, Default)]
pub struct MapTypes(pub HashMap<VarRef, TypeInterval>);

impl TypeQuery for MapTypes {
    fn var_interval(&self, v: VarRef) -> Option<&TypeInterval> {
        self.0.get(&v)
    }
}

/// The hybrid-sensitive type-inference driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct Manta {
    config: MantaConfig,
}

impl Manta {
    /// Creates a driver with the given configuration.
    pub fn new(config: MantaConfig) -> Manta {
        Manta { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MantaConfig {
        &self.config
    }

    /// Runs the configured stage cascade over a prepared [`ModuleAnalysis`]
    /// — one-shot sugar over [`Engine::analyze`] with an unlimited budget
    /// and no cache.
    pub fn infer(&self, analysis: &ModuleAnalysis) -> InferenceResult {
        match Engine::new(self.config).analyze(analysis) {
            Ok(r) => r,
            Err(_) => unreachable!("non-strict engines convert failures to degradations"),
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use manta_ir::{BinOp, ModuleBuilder, Width};
    use manta_resilience::Budget;

    /// A module where FI over-approximates and CS genuinely refines: the
    /// polymorphic identity called from an int and a ptr context.
    fn polymorphic_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = cb1.binop(BinOp::Mul, n, n, Width::W64);
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let fmt = cb1.alloca(8);
        cb1.call_extern(pd, &[fmt, r1], Some(Width::W32));
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let fmt = cb2.alloca(8);
        cb2.call_extern(ps, &[fmt, r2], Some(Width::W32));
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    /// A degrading (non-strict) engine's run under an external budget.
    fn run(config: MantaConfig, analysis: &ModuleAnalysis, budget: &Budget) -> InferenceResult {
        Engine::new(config)
            .analyze_with_budget(analysis, budget)
            .expect("non-strict engines convert failures to degradations")
    }

    #[test]
    fn resilient_with_unlimited_budget_matches_plain_infer() {
        let analysis = ModuleAnalysis::build(polymorphic_module());
        for s in Sensitivity::WITH_REVERSED {
            let m = Manta::new(MantaConfig::with_sensitivity(s));
            let plain = m.infer(&analysis);
            let resilient = run(*m.config(), &analysis, &Budget::unlimited());
            assert!(resilient.degradations.is_empty(), "{s:?} degraded");
            assert_eq!(plain.final_counts(), resilient.final_counts(), "{s:?}");
            assert_eq!(plain.stage_counts, resilient.stage_counts, "{s:?}");
        }
    }

    #[test]
    fn zero_fuel_degrades_base_stage_to_empty() {
        let analysis = ModuleAnalysis::build(polymorphic_module());
        let r = run(MantaConfig::full(), &analysis, &Budget::with_fuel(0));
        assert!(r.is_degraded());
        assert_eq!(r.degradations.len(), 1);
        assert_eq!(r.degradations[0].stage, "infer.fi");
        assert_eq!(r.degradations[0].completed, "none");
        assert_eq!(r.final_counts().total(), 0);
    }

    #[test]
    fn fuel_cut_after_base_keeps_the_fi_tier() {
        let analysis = ModuleAnalysis::build(polymorphic_module());
        // Measure the base stage's exact fuel use, then allow one unit
        // more: FI completes, CS trips on its first real work.
        let probe = Budget::with_fuel(1_000_000);
        let fi = MantaConfig::with_sensitivity(Sensitivity::Fi);
        let fi_result = run(fi, &analysis, &probe);
        assert!(fi_result.degradations.is_empty());
        let fi_cost = 1_000_000 - probe.fuel_left();
        let r = run(
            MantaConfig::full(),
            &analysis,
            &Budget::with_fuel(fi_cost + 1),
        );
        assert_eq!(r.degradations.len(), 1, "{:?}", r.degradations);
        assert_eq!(r.degradations[0].stage, "infer.cs");
        assert_eq!(r.degradations[0].completed, "FI");
        // The kept maps are the flow-insensitive tier, bit for bit.
        assert_eq!(r.stage_counts, fi_result.stage_counts);
        assert_eq!(r.final_counts(), fi_result.final_counts());
    }

    #[test]
    fn strict_mode_propagates_the_budget_error() {
        let analysis = ModuleAnalysis::build(polymorphic_module());
        let strict = Engine::builder()
            .config(MantaConfig::full())
            .strict(true)
            .build()
            .expect("cacheless build");
        let e = strict
            .analyze_with_budget(&analysis, &Budget::with_fuel(0))
            .unwrap_err();
        match e {
            manta_resilience::MantaError::Budget { stage, .. } => {
                assert_eq!(stage, "infer.fi");
            }
            other => panic!("expected budget error, got {other}"),
        }
        // And succeeds outright when unconstrained.
        let r = strict
            .analyze_with_budget(&analysis, &Budget::unlimited())
            .unwrap();
        assert!(r.degradations.is_empty());
    }
}
