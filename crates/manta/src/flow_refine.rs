//! Stage 3: flow-sensitive type refinement (paper §4.2.2, Algorithm 2) and
//! the standalone Manta-FS ablation.
//!
//! For each still-over-approximated variable `v`, the def site and every
//! use site `s` is treated as a distinct variable `v@s`. A backward search
//! on the CFG collects type annotations on *aliases* of `v` that reach `s`
//! in control-flow order; the search stops at the first annotation along a
//! path (a strong update). The collected set becomes `F↑(v@s)`/`F↓(v@s)`.
//!
//! This is the paper's "more aggressive" stage: when **no** hint is
//! CFG-reachable for any site of `v`, the refinement loses the type
//! entirely (`v` becomes unknown) — the phenomenon that makes FI+FS weaker
//! than FI+CS+FS (§6.1, Ablation Analysis; §6.4, Type Refinement Order).

use manta_analysis::cfl::{CtxOp, CtxStack};
use manta_analysis::{CallSite, DepKind, ModuleAnalysis, NodeId, VarRef};
use manta_ir::cfg::Cfg;
use manta_ir::{BlockId, FuncId, InstId, Type, UseIndex, ValueKind};
use manta_resilience::{Budget, BudgetExceeded};

use crate::classify;
use crate::ctx_refine::{find_roots_traced, Footprint, RootsMemo};
use crate::engine::Refinement;
use crate::idhash::{IdMap, IdSet};
use crate::interval::TypeInterval;
use crate::reveal::{Reveal, RevealMap};
use crate::{InferenceResult, MantaConfig, Stage};

/// Runs Algorithm 2 over the current `V_O` set and appends a
/// [`Stage::FlowRefine`] classification: the engine's chunked
/// refinement step, committed, on an unlimited budget.
pub fn refine(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &mut InferenceResult,
) {
    crate::engine::refine_in_place(Stage::FlowRefine, analysis, reveals, config, result);
}

/// Runs Algorithm 2 over one per-function candidate partition. Fuel is
/// charged exactly as the historical serial loop: one unit per candidate
/// plus one per inspected def/use site. With an enabled `fp`, records
/// every function whose data the walks read.
///
/// Every site walk runs on its own, with a fresh whole-block memo and
/// the full `max_visits` budget. What the walks of candidates with one
/// root set share is the alias check of line 14, a function of the set,
/// so its answers are memoized per set.
pub(crate) fn refine_chunk(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &InferenceResult,
    budget: &Budget,
    chunk: &[VarRef],
    fp: &mut Footprint,
) -> Result<Refinement, BudgetExceeded> {
    let mut out = Refinement::default();
    let Some(first) = chunk.first() else {
        return Ok(out);
    };
    let func = analysis.module().function(first.func);
    let uses = UseIndex::new(func);
    let mut roots = RootsMemo::default();
    // The alias answers against each root set, by queried node.
    let mut answers: Vec<IdMap<NodeId, bool>> = Vec::new();
    let mut walker = SiteWalker::new(analysis, reveals, config, true);
    for &v in chunk {
        budget.tick()?;
        fp.touch(v.func);
        let set = find_roots_traced(analysis, result, config, v, &mut roots, fp);
        answers.resize_with(roots.len(), IdMap::default);
        // Def site plus each use site (Algorithm 2 line 7).
        let def_site = func.def_inst(v.value);
        let first_site = out.sites.len();
        let mut site_intervals: Vec<(Option<InstId>, TypeInterval)> = Vec::new();
        for site in sites(def_site, uses.users(v.value)) {
            budget.tick()?;
            // The walker records into its own footprint (the alias check
            // borrows `fp`), folded back in after the walk.
            let mut walk_fp = Footprint::like(fp);
            let answers = &mut answers[set];
            let interval = walker.walk(v.func, site, &mut walk_fp, &mut |u| {
                // The alias check of line 14: FIND_ROOTS(u) ∩ roots ≠ ∅.
                let n = analysis.ddg.node(u);
                if let Some(&b) = answers.get(&n) {
                    return b;
                }
                let ur = find_roots_traced(analysis, result, config, u, &mut roots, fp);
                let b = roots.intersect(ur, set);
                answers.insert(n, b);
                b
            });
            fp.absorb(walk_fp);
            let Some(interval) = interval else {
                continue;
            };
            if let Some(s) = site {
                out.sites.push(((v, s), interval.clone()));
            }
            site_intervals.push((site, interval));
        }
        // In site order, so the stage's delta comes out sorted.
        out.sites[first_site..].sort_by_key(|(k, _)| *k);
        // Variable-level: prefer the def-site result; otherwise merge all
        // site results; with no reachable hint anywhere the type is lost.
        let def_result = site_intervals
            .iter()
            .find(|(s, _)| *s == def_site)
            .map(|(_, i)| i.clone());
        let var_interval = def_result.unwrap_or_else(|| {
            let mut merged = TypeInterval::unknown();
            for (_, i) in &site_intervals {
                merged.merge(i);
            }
            merged
        });
        // When no hint is CFG-reachable at any site the type is lost: the
        // variable drops back to the unknown sentinel (the aggressive
        // behavior §6.4 attributes to flow-sensitive refinement).
        out.vars.push((v, var_interval));
    }
    Ok(out)
}

/// The sites of a variable: its def site (`None` for a parameter, whose
/// definition is the function entry) and then each user, in arena order.
fn sites(def_site: Option<InstId>, users: &[InstId]) -> impl Iterator<Item = Option<InstId>> + '_ {
    // The def site is not walked twice when it is also the first user.
    let users = match users.split_first() {
        Some((&u, rest)) if Some(u) == def_site => rest,
        _ => users,
    };
    std::iter::once(def_site).chain(users.iter().map(|&u| Some(u)))
}

/// The interval `types` absorb into, in order; `None` when empty.
fn absorb_all(types: &[&Type]) -> Option<TypeInterval> {
    if types.is_empty() {
        return None;
    }
    let mut interval = TypeInterval::unknown();
    for t in types {
        interval.absorb(t);
    }
    Some(interval)
}

/// The standalone Manta-FS ablation: flow-sensitive hint collection with
/// strong updates for *every* variable, no global unification, and —
/// matching classic flow-sensitive binary type recovery — no crossing of
/// function boundaries. Aliasing is the intraprocedural copy/memory
/// closure. It runs under a cooperative budget: one fuel unit per DDG
/// node during alias-class construction and one per inspected variable
/// site.
///
/// # Errors
///
/// Returns the tripped limit; no partial result is produced.
pub fn standalone_fs_budgeted(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    budget: &Budget,
) -> Result<InferenceResult, BudgetExceeded> {
    let ddg = &analysis.ddg;
    // Intraprocedural alias classes, by DDG node: values connected by
    // copy/phi or by same-function memory dependencies.
    let alias_class: Vec<usize> = {
        let n = ddg.node_count();
        let mut uf = crate::unify::UnionFind::new(n);
        for idx in 0..n {
            budget.tick()?;
            let node = NodeId(idx as u32);
            let from = ddg.var(node);
            for &(to, kind) in ddg.children(node) {
                let tv = ddg.var(to);
                if tv.func != from.func {
                    continue;
                }
                if matches!(kind, DepKind::Direct | DepKind::Memory(_)) {
                    uf.union(idx, to.index());
                }
            }
        }
        (0..n).map(|idx| uf.find(idx)).collect()
    };

    // Each function's variables consult only the (frozen) alias classes and
    // the reveal map, so the per-function site walks fan out across the
    // pool; updates merge back in function order.
    let func_ids: Vec<FuncId> = analysis.module().functions().map(|f| f.id()).collect();
    let alias_of = |v: VarRef| alias_class[ddg.node(v).index()];
    let per_func: Vec<Result<Refinement, BudgetExceeded>> =
        manta_parallel::par_map(func_ids, |fid| {
            let func = analysis.module().function(fid);
            let uses = UseIndex::new(func);
            let mut walker = SiteWalker::new(analysis, reveals, config, false);
            let mut out = Refinement::default();
            for (value, data) in func.values() {
                if matches!(data.kind, ValueKind::Const(_)) {
                    continue;
                }
                let v = VarRef::new(fid, value);
                let class = alias_of(v);
                let def_site = func.def_inst(value);
                let first_site = out.sites.len();
                let mut var_interval: Option<TypeInterval> = None;
                for site in sites(def_site, uses.users(value)) {
                    budget.tick()?;
                    let Some(interval) = walker.walk(fid, site, &mut Footprint::off(), &mut |u| {
                        alias_of(u) == class
                    }) else {
                        continue;
                    };
                    if let Some(s) = site {
                        out.sites.push(((v, s), interval.clone()));
                    }
                    match (&mut var_interval, site == def_site) {
                        (_, true) => var_interval = Some(interval),
                        (Some(existing), false) => existing.merge(&interval),
                        (None, false) => var_interval = Some(interval),
                    }
                }
                out.sites[first_site..].sort_by_key(|(k, _)| *k);
                if let Some(i) = var_interval {
                    out.vars.push((v, i));
                }
            }
            Ok(out)
        });
    let per_func = per_func.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut result = InferenceResult::over(analysis, *config);
    result
        .intervals
        .reserve(per_func.iter().map(|c| c.vars.len()).sum());
    let mut sites = Vec::with_capacity(per_func.iter().map(|c| c.sites.len()).sum());
    for chunk in per_func {
        for (v, i) in chunk.vars {
            result.set_var(v, i);
        }
        sites.extend(chunk.sites);
    }
    result.add_sites(sites);
    let counts = classify::classify(analysis, &mut result);
    result.stage_counts.push((Stage::StandaloneFs, counts));
    Ok(result)
}

/// One function's CFG, instruction positions and reveals by site, built
/// the first time a partition's walks enter the function.
struct FuncView<'a> {
    cfg: Cfg,
    /// Instruction index → (block, index in block).
    position: Vec<(BlockId, usize)>,
    /// `revealed[at[i]..at[i + 1]]` are the reveals at instruction `i`,
    /// in [`RevealMap`] order, so the first one naming a value is that
    /// value's first reveal at the instruction (`type_annotation(v@s)`).
    at: Vec<u32>,
    revealed: &'a [Reveal],
}

impl<'a> FuncView<'a> {
    fn new(analysis: &ModuleAnalysis, reveals: &'a RevealMap, f: FuncId) -> FuncView<'a> {
        let func = analysis.module().function(f);
        let n = func.inst_count();
        let mut position = vec![(BlockId(u32::MAX), 0); n];
        for b in func.blocks() {
            for (i, &inst) in b.insts.iter().enumerate() {
                position[inst.index()] = (b.id, i);
            }
        }
        // A function's reveals are in instruction order, which is site
        // order: each site's run is contiguous.
        let revealed = reveals.in_func(f);
        debug_assert!(revealed.windows(2).all(|w| w[0].site <= w[1].site));
        let mut at = vec![0u32; n + 1];
        for r in revealed {
            at[r.site.index() + 1] += 1;
        }
        for i in 0..n {
            at[i + 1] += at[i];
        }
        FuncView {
            cfg: Cfg::new(func),
            position,
            at,
            revealed,
        }
    }

    fn revealed_at(&self, inst: InstId) -> &'a [Reveal] {
        &self.revealed[self.at[inst.index()] as usize..self.at[inst.index() + 1] as usize]
    }
}

/// `REACHABLE_TYPES(s, roots)` (Algorithm 2, lines 12–23): the backward
/// CFG walks of one partition, with the function views and scratch they
/// reuse.
struct SiteWalker<'a> {
    analysis: &'a ModuleAnalysis,
    reveals: &'a RevealMap,
    config: &'a MantaConfig,
    cross_callers: bool,
    view_of: IdMap<FuncId, usize>,
    views: Vec<FuncView<'a>>,
    /// The types the current walk reached, in order.
    out: Vec<&'a Type>,
    /// The current walk's whole-block memo: the range of `out` a scan of
    /// the block appended, replayed by copying that range.
    blocks: IdMap<(FuncId, BlockId), (usize, usize)>,
    /// Block scans left to the current walk.
    budget: usize,
    /// Blocks on the recursion stack (cycle guard; empty between walks).
    active: IdSet<(FuncId, BlockId)>,
}

impl<'a> SiteWalker<'a> {
    fn new(
        analysis: &'a ModuleAnalysis,
        reveals: &'a RevealMap,
        config: &'a MantaConfig,
        cross_callers: bool,
    ) -> SiteWalker<'a> {
        SiteWalker {
            analysis,
            reveals,
            config,
            cross_callers,
            view_of: IdMap::default(),
            views: Vec::new(),
            out: Vec::new(),
            blocks: IdMap::default(),
            budget: 0,
            active: IdSet::default(),
        }
    }

    /// Walks backward from `site` (or, for `None`, the def site of a
    /// parameter, from the function entry) with a fresh memo and the full
    /// `max_visits` budget. Returns the interval the types it reaches
    /// absorb into.
    fn walk(
        &mut self,
        func: FuncId,
        site: Option<InstId>,
        fp: &mut Footprint,
        alias: &mut impl FnMut(VarRef) -> bool,
    ) -> Option<TypeInterval> {
        self.out.clear();
        self.blocks.clear();
        self.budget = self.config.max_visits;
        let mut walk = Walk {
            ctx: CtxStack::new(self.config.max_ctx_depth),
            fp,
        };
        match site {
            Some(s) => {
                let (block, idx) = self.position(func, s);
                self.scan_block(&mut walk, func, block, Some(idx), alias);
            }
            None => self.cross_to_callers(&mut walk, func, alias),
        }
        absorb_all(&self.out)
    }

    /// The index of `f`'s view, building it on first use.
    fn view_index(&mut self, f: FuncId) -> usize {
        if let Some(&i) = self.view_of.get(&f) {
            return i;
        }
        self.views
            .push(FuncView::new(self.analysis, self.reveals, f));
        self.view_of.insert(f, self.views.len() - 1);
        self.views.len() - 1
    }

    /// The block of instruction `inst` of `f` and its index there.
    fn position(&mut self, f: FuncId, inst: InstId) -> (BlockId, usize) {
        let i = self.view_index(f);
        self.views[i].position[inst.index()]
    }

    /// Collects the first reveals along every backward path from the
    /// given position (the block's end for `from_idx == None`). Whole-block
    /// scans are memoized per `(func, block)`.
    fn scan_block(
        &mut self,
        walk: &mut Walk<'_>,
        func: FuncId,
        block: BlockId,
        from_idx: Option<usize>,
        alias: &mut impl FnMut(VarRef) -> bool,
    ) {
        let whole = from_idx.is_none();
        if whole {
            if let Some(&(lo, hi)) = self.blocks.get(&(func, block)) {
                self.out.extend_from_within(lo..hi);
                return;
            }
        }
        if self.budget == 0 || (whole && !self.active.insert((func, block))) {
            return;
        }
        self.budget -= 1;
        walk.fp.touch(func);
        let view = self.view_index(func);
        let analysis = self.analysis;
        let f = analysis.module().function(func);
        let insts = &f.block(block).insts;
        let start = self.out.len();
        let end = from_idx.map_or(insts.len(), |i| i + 1);
        let mut found = false;
        for pos in (0..end).rev() {
            let inst = f.inst(insts[pos]);
            let here = self.views[view].revealed_at(inst.id);
            if here.is_empty() {
                continue;
            }
            // Line 13: operands of s plus s's own definition, a value
            // repeated back to back counted once.
            let before = self.out.len();
            let mut prev = None;
            for u in inst.kind.operands().chain(inst.kind.def()) {
                if prev.replace(u) == Some(u) {
                    continue;
                }
                if let Some(r) = here.iter().find(|r| r.value == u) {
                    if alias(VarRef::new(func, u)) {
                        self.out.push(&r.ty);
                    }
                }
            }
            if self.out.len() > before {
                found = true;
                // Strong update at instruction granularity: annotations
                // here kill older hints along this path (lines 15-16);
                // all aliases annotated at the *same* instruction
                // contribute.
                break;
            }
        }
        if !found {
            self.continue_upward(walk, func, block, view, alias);
        }
        if whole {
            self.active.remove(&(func, block));
            self.blocks.insert((func, block), (start, self.out.len()));
        }
    }

    fn continue_upward(
        &mut self,
        walk: &mut Walk<'_>,
        func: FuncId,
        block: BlockId,
        view: usize,
        alias: &mut impl FnMut(VarRef) -> bool,
    ) {
        let cfg = &self.views[view].cfg;
        if cfg.preds(block).is_empty() {
            if block == cfg.entry() && self.cross_callers {
                self.cross_to_callers(walk, func, alias);
            }
            return;
        }
        for k in 0..self.views[view].cfg.preds(block).len() {
            let p = self.views[view].cfg.preds(block)[k];
            self.scan_block(walk, func, p, None, alias);
        }
    }

    /// Crossing a function entry backward lands just above each call site
    /// (line 18's `CFG.parents` at entry), popping the context.
    fn cross_to_callers(
        &mut self,
        walk: &mut Walk<'_>,
        func: FuncId,
        alias: &mut impl FnMut(VarRef) -> bool,
    ) {
        // The caller list is part of `func`'s call-graph adjacency, which
        // its input fingerprint covers — so consulting it (even when
        // empty) makes `func` part of the footprint.
        walk.fp.touch(func);
        let analysis = self.analysis;
        for edge in analysis.callgraph.callers(func) {
            let op = CtxOp::Pop(CallSite {
                caller: edge.caller,
                site: edge.site,
            });
            if walk.ctx.enter(op) {
                let (block, idx) = self.position(edge.caller, edge.site);
                self.scan_block(walk, edge.caller, block, Some(idx), alias);
                walk.ctx.leave(op);
            }
        }
    }
}

/// The state of one walk in progress.
struct Walk<'w> {
    ctx: CtxStack,
    /// Functions whose blocks or caller lists this walk consulted.
    fp: &'w mut Footprint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Resolution;
    use crate::{Manta, MantaConfig, Sensitivity, VarClass};
    use manta_ir::{ModuleBuilder, Width};

    /// The Figure 3 union scenario: one stack slot holds an int on one
    /// branch and a char* on the other; each branch reveals the type it
    /// instantiates.
    fn union_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_, mut fb) = mb.function("f", &[Width::W64, Width::W1], None);
        let x = fb.param(0);
        let c = fb.param(1);
        let slot = fb.alloca(8);
        let bb_i = fb.new_block();
        let bb_p = fb.new_block();
        let bb_j = fb.new_block();
        fb.cond_br(c, bb_i, bb_p);
        // Int branch: store x, reload, print as %ld.
        fb.switch_to(bb_i);
        fb.store(slot, x);
        let vi = fb.load(slot, Width::W64);
        let fmt1 = fb.alloca(8);
        fb.call_extern(pd, &[fmt1, vi], Some(Width::W32));
        fb.br(bb_j);
        // Ptr branch: store a heap pointer, reload, print as %s.
        fb.switch_to(bb_p);
        let k = fb.const_int(32, Width::W64);
        let buf = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        fb.store(slot, buf);
        let vp = fb.load(slot, Width::W64);
        let fmt2 = fb.alloca(8);
        fb.call_extern(ps, &[fmt2, vp], Some(Width::W32));
        fb.br(bb_j);
        fb.switch_to(bb_j);
        fb.ret(None);
        mb.finish_function(fb);
        mb.finish()
    }

    /// `p` is printed as an integer and `q` dereferenced as a pointer; a
    /// copy of `p` has the roots `{p}`, and a slot that holds `p` on one
    /// branch and `q` on the other loads a value with the roots `{p, q}`.
    /// FI merges all four, and the two root sets share their first root
    /// but not their forward walks.
    fn overlapping_roots_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let pd = mb.extern_fn("printf_d", &[], None);
        let (_, mut fb) = mb.function("f", &[Width::W64, Width::W64, Width::W1], None);
        let p = fb.param(0);
        let q = fb.param(1);
        let c = fb.param(2);
        let slot = fb.alloca(8);
        fb.copy(p);
        let fmt = fb.alloca(8);
        fb.call_extern(pd, &[fmt, p], Some(Width::W32));
        fb.load(q, Width::W64);
        let bb_p = fb.new_block();
        let bb_q = fb.new_block();
        let bb_j = fb.new_block();
        fb.cond_br(c, bb_p, bb_q);
        fb.switch_to(bb_p);
        fb.store(slot, p);
        fb.br(bb_j);
        fb.switch_to(bb_q);
        fb.store(slot, q);
        fb.br(bb_j);
        fb.switch_to(bb_j);
        fb.load(slot, Width::W64);
        fb.ret(None);
        mb.finish_function(fb);
        mb.finish()
    }

    fn loaded_values(analysis: &manta_analysis::ModuleAnalysis) -> Vec<(VarRef, InstId)> {
        let f = analysis.module().function_by_name("f").unwrap();
        f.insts()
            .filter_map(|i| match i.kind {
                manta_ir::InstKind::Load { dst, .. } => Some((VarRef::new(f.id(), dst), i.id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fi_merges_union_branches() {
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        for (v, _) in loaded_values(&analysis) {
            assert_eq!(r.class_of(v), VarClass::Over, "{v} should merge int+ptr");
        }
    }

    #[test]
    fn flow_refinement_recovers_per_branch_types() {
        // The full cascade must type the int-branch load as numeric and the
        // ptr-branch load as a pointer (Example 4.2).
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::FiCsFs)).infer(&analysis);
        let loads = loaded_values(&analysis);
        assert_eq!(loads.len(), 2);
        let (vi, _si) = loads[0];
        let (vp, _sp) = loads[1];
        let ti = r.interval(vi).unwrap().resolution();
        let tp = r.interval(vp).unwrap().resolution();
        let Resolution::Precise(ti) = ti else {
            panic!("int-branch load not precise: {ti:?}")
        };
        let Resolution::Precise(tp) = tp else {
            panic!("ptr-branch load not precise: {tp:?}")
        };
        assert!(ti.is_numeric(), "int branch inferred {ti}");
        assert!(tp.is_pointer(), "ptr branch inferred {tp}");
    }

    #[test]
    fn standalone_fs_leaves_unhinted_vars_unknown() {
        // A parameter whose only hint lives in its caller is invisible to
        // the intraprocedural standalone FS.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (callee, mut cb) = mb.function("sink2", &[Width::W64], None);
        let p = cb.param(0);
        let q = cb.copy(p); // uses exist, but reveal nothing
        let _ = q;
        cb.ret(None);
        mb.finish_function(cb);
        let (_caller, mut fb) = mb.function("caller", &[], None);
        let k = fb.const_int(8, Width::W64);
        let buf = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        fb.call(callee, &[buf], None);
        fb.ret(None);
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let fs = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fs)).infer(&analysis);
        let callee = analysis.module().function_by_name("sink2").unwrap();
        let pv = VarRef::new(callee.id(), callee.params()[0]);
        assert_eq!(fs.class_of(pv), VarClass::Unknown);
        // FI sees the interprocedural unification and types it.
        let fi = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        assert_eq!(fi.class_of(pv), VarClass::Precise);
    }

    #[test]
    fn standalone_fs_types_locally_revealed_vars() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let v = fb.load(p, Width::W64); // p revealed ptr at its use
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let fs = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fs)).infer(&analysis);
        let pv = VarRef::new(fid, p);
        assert_eq!(fs.class_of(pv), VarClass::Precise);
        assert!(matches!(fs.precise_type(pv), Some(t) if t.is_pointer()));
    }

    /// Runs reveal, FI and then `order`'s refinement stages, each stage
    /// either as the engine does or, with `per_candidate`, as the
    /// reference: every candidate refined in a partition of its own, so
    /// no walk or alias answer is reused for another, and the whole
    /// module re-classified.
    fn cascade(
        analysis: &manta_analysis::ModuleAnalysis,
        config: &MantaConfig,
        order: &[Stage],
        per_candidate: bool,
    ) -> InferenceResult {
        let reveals = RevealMap::collect(analysis);
        let mut result = crate::flow_insensitive::run(analysis, &reveals, *config);
        for &stage in order {
            if !per_candidate {
                match stage {
                    Stage::ContextRefine => {
                        crate::ctx_refine::refine(analysis, &reveals, config, &mut result)
                    }
                    _ => refine(analysis, &reveals, config, &mut result),
                }
                continue;
            }
            let (budget, fp) = (&Budget::unlimited(), &mut Footprint::off());
            let mut vars = Vec::new();
            let mut sites = Vec::new();
            for v in classify::over_approximated(&result) {
                let chunk = &[v][..];
                let out = match stage {
                    Stage::ContextRefine => crate::ctx_refine::refine_chunk(
                        analysis, &reveals, config, &result, budget, chunk, fp,
                    )
                    .map(|(vars, _)| Refinement {
                        vars,
                        sites: Vec::new(),
                    }),
                    _ => refine_chunk(analysis, &reveals, config, &result, budget, chunk, fp),
                };
                let out = out.expect("unlimited budget");
                vars.extend(out.vars);
                sites.extend(out.sites);
            }
            for (v, i) in vars {
                result.set_var(v, i);
            }
            result.add_sites(sites);
            let counts = classify::classify(analysis, &mut result);
            result.stage_counts.push((stage, counts));
        }
        result
    }

    /// Reusing a root set's CS forward walk and FS alias answers across
    /// its candidates, and re-classifying only the updated variables,
    /// must be invisible at every cap: near `max_visits` the walks are
    /// cut by their visit budget, and at small `max_ctx_depth` by
    /// context depth.
    #[test]
    fn walk_reuse_matches_per_candidate_walks_at_every_cap() {
        let suite = manta_workloads::project_suite()[2].generate().module;
        let modules = [
            ("overlapping", overlapping_roots_module()),
            ("union", union_module()),
            (
                "polymorphic",
                crate::ctx_refine::tests::polymorphic_module(),
            ),
            ("suite", suite),
        ];
        let orders: [&[Stage]; 2] = [
            &[Stage::ContextRefine, Stage::FlowRefine],
            &[Stage::FlowRefine, Stage::ContextRefine],
        ];
        for (name, module) in modules {
            let analysis = manta_analysis::ModuleAnalysis::build(module);
            for max_ctx_depth in [1, 2, 32] {
                for max_visits in 1..=64 {
                    let config = MantaConfig {
                        max_ctx_depth,
                        max_visits,
                        ..MantaConfig::full()
                    };
                    for order in orders {
                        let engine = cascade(&analysis, &config, order, false);
                        let reference = cascade(&analysis, &config, order, true);
                        let at = format!(
                            "{name}: max_visits={max_visits} max_ctx_depth={max_ctx_depth} \
                             order={order:?}"
                        );
                        assert_eq!(engine.stage_counts, reference.stage_counts, "{at}");
                        assert!(
                            crate::cache::encode_result(&engine)
                                == crate::cache::encode_result(&reference),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn site_types_differ_across_branches() {
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::FiCsFs)).infer(&analysis);
        // The two printf call sites see the same stack slot with different
        // per-site types via interval_at.
        let loads = loaded_values(&analysis);
        let (vi, si) = loads[0];
        let (vp, sp) = loads[1];
        let at_i = r.interval_at(vi, si).unwrap().clone();
        let at_p = r.interval_at(vp, sp).unwrap().clone();
        assert_ne!(at_i, at_p);
    }
}
