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
use crate::ctx_refine::{find_roots_traced, Footprint, RootSet, Scratch};
use crate::engine::Refinement;
use crate::idhash::IdMap;
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

/// What FS keeps in a worker's [`Scratch`]: the partition's alias
/// answers and site intervals, and the site walker with its stage-long
/// function views.
pub(crate) struct FsScratch<'a> {
    /// The alias answers of this partition, by root set and queried node.
    answers: IdMap<(RootSet, NodeId), bool>,
    /// The current candidate's site intervals, in site order.
    site_intervals: Vec<(Option<InstId>, TypeInterval)>,
    walker: SiteWalker<'a>,
}

impl<'a> FsScratch<'a> {
    pub(crate) fn new(
        analysis: &'a ModuleAnalysis,
        reveals: &'a RevealMap,
        config: &'a MantaConfig,
    ) -> FsScratch<'a> {
        FsScratch {
            answers: IdMap::default(),
            site_intervals: Vec::new(),
            walker: SiteWalker::new(analysis, reveals, config, true),
        }
    }
}

/// Runs Algorithm 2 over one per-function candidate partition through a
/// worker's `scratch`. Fuel is charged exactly as the historical serial
/// loop: one unit per candidate plus one per inspected def/use site. With
/// an enabled `fp`, records every function whose data the walks read.
///
/// Every site walk runs on its own, with a fresh whole-block memo and
/// the full `max_visits` budget. What the walks of candidates with one
/// root set share is the alias check of line 14, a function of the set,
/// so its answers are memoized per set.
pub(crate) fn refine_chunk(
    scratch: &mut Scratch<'_>,
    result: &InferenceResult,
    budget: &Budget,
    chunk: &[VarRef],
    fp: &mut Footprint,
) -> Result<Refinement, BudgetExceeded> {
    let mut out = Refinement::default();
    let Some(first) = chunk.first() else {
        return Ok(out);
    };
    let Scratch {
        analysis,
        config,
        roots,
        fs:
            FsScratch {
                answers,
                site_intervals,
                walker,
            },
        ..
    } = scratch;
    let (analysis, config) = (*analysis, *config);
    roots.reset();
    answers.clear();
    let func = analysis.module().function(first.func);
    let uses = UseIndex::new(func);
    for &v in chunk {
        budget.tick()?;
        fp.touch(v.func);
        let set = find_roots_traced(analysis, result, config, v, roots, fp);
        // Def site plus each use site (Algorithm 2 line 7).
        let def_site = func.def_inst(v.value);
        site_intervals.clear();
        for site in sites(def_site, uses.users(v.value)) {
            budget.tick()?;
            let interval = walker.walk(v.func, site, fp, &mut |u, fp| {
                // The alias check of line 14: FIND_ROOTS(u) ∩ roots ≠ ∅.
                let n = analysis.ddg.node(u);
                if let Some(&b) = answers.get(&(set, n)) {
                    return b;
                }
                let ur = find_roots_traced(analysis, result, config, u, roots, fp);
                let b = roots.intersect(ur, set);
                answers.insert((set, n), b);
                b
            });
            if let Some(interval) = interval {
                site_intervals.push((site, interval));
            }
        }
        // Variable-level: prefer the def-site result; otherwise merge all
        // site results; with no reachable hint anywhere the type is lost.
        let var_interval = match site_intervals.iter().find(|(s, _)| *s == def_site) {
            Some((_, i)) => i.clone(),
            None => {
                let mut merged = TypeInterval::unknown();
                for (_, i) in site_intervals.iter() {
                    merged.merge(i);
                }
                merged
            }
        };
        // The `v@s` results, in site order so the stage's delta comes out
        // sorted (a parameter's entry site is not one).
        let first_site = out.sites.len();
        out.sites.extend(
            site_intervals
                .drain(..)
                .filter_map(|(site, i)| Some(((v, site?), i))),
        );
        out.sites[first_site..].sort_by_key(|(k, _)| *k);
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
    // pool, one walker per worker; updates merge back in function order.
    let func_ids: Vec<FuncId> = analysis.module().functions().map(|f| f.id()).collect();
    let alias_of = |v: VarRef| alias_class[ddg.node(v).index()];
    let per_func: Vec<Result<Refinement, BudgetExceeded>> = manta_parallel::par_map_with(
        func_ids,
        || SiteWalker::new(analysis, reveals, config, false),
        |walker, fid| {
            let func = analysis.module().function(fid);
            let uses = UseIndex::new(func);
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
                    let Some(interval) =
                        walker.walk(fid, site, &mut Footprint::off(), &mut |u, _| {
                            alias_of(u) == class
                        })
                    else {
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
        },
    );
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
/// the first time a worker's walks enter the function and kept for the
/// rest of the stage (they depend only on the module and the reveals),
/// plus the per-block state of the walk in progress.
struct FuncView<'a> {
    cfg: Cfg,
    /// Instruction index → (block, index in block).
    position: Vec<(BlockId, u32)>,
    /// `revealed[at[i]..at[i + 1]]` are the reveals at instruction `i`,
    /// in [`RevealMap`] order, so the first one naming a value is that
    /// value's first reveal at the instruction (`type_annotation(v@s)`).
    at: Vec<u32>,
    revealed: &'a [Reveal],
    /// Per block, stamped with the walk they belong to.
    blocks: Vec<BlockMemo>,
}

/// One block's state in a walk: a field counts only while its stamp is
/// the current walk's.
#[derive(Clone, Copy, Default)]
struct BlockMemo {
    /// The walk that scanned the whole block, appending `out[lo..hi]`.
    scanned: u32,
    lo: u32,
    hi: u32,
    /// The walk on whose recursion stack the block is (the cycle guard).
    active: u32,
}

impl<'a> FuncView<'a> {
    fn new(analysis: &ModuleAnalysis, reveals: &'a RevealMap, f: FuncId) -> FuncView<'a> {
        let func = analysis.module().function(f);
        let n = func.inst_count();
        let mut position = vec![(BlockId(u32::MAX), 0); n];
        for b in func.blocks() {
            for (i, &inst) in b.insts.iter().enumerate() {
                position[inst.index()] = (b.id, i as u32);
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
            blocks: vec![BlockMemo::default(); func.block_count()],
        }
    }

    fn revealed_at(&self, inst: InstId) -> &'a [Reveal] {
        &self.revealed[self.at[inst.index()] as usize..self.at[inst.index() + 1] as usize]
    }
}

/// Marks a function without a view in [`SiteWalker::view_of`].
const NO_VIEW: u32 = u32::MAX;

/// `REACHABLE_TYPES(s, roots)` (Algorithm 2, lines 12–23): the backward
/// CFG walks of one worker, with the function views and scratch they
/// reuse.
struct SiteWalker<'a> {
    analysis: &'a ModuleAnalysis,
    reveals: &'a RevealMap,
    config: &'a MantaConfig,
    cross_callers: bool,
    /// Each function's index in `views`, or [`NO_VIEW`].
    view_of: Vec<u32>,
    views: Vec<FuncView<'a>>,
    /// The types the current walk reached, in order.
    out: Vec<&'a Type>,
    /// Block scans left to the current walk.
    budget: usize,
    /// The current walk's stamp on [`BlockMemo`]s; 0 is no walk's.
    walk: u32,
    ctx: CtxStack,
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
            view_of: vec![NO_VIEW; analysis.module().function_count()],
            views: Vec::new(),
            out: Vec::new(),
            budget: 0,
            walk: 0,
            ctx: CtxStack::new(config.max_ctx_depth),
        }
    }

    /// Walks backward from `site` (or, for `None`, the def site of a
    /// parameter, from the function entry) with a fresh memo and the full
    /// `max_visits` budget. Returns the interval the types it reaches
    /// absorb into. `alias` answers line 14's check and may record into
    /// the walk's footprint `fp`.
    fn walk(
        &mut self,
        func: FuncId,
        site: Option<InstId>,
        fp: &mut Footprint,
        alias: &mut impl FnMut(VarRef, &mut Footprint) -> bool,
    ) -> Option<TypeInterval> {
        self.out.clear();
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            // A stamp 2^32 walks old would read as current.
            for view in &mut self.views {
                view.blocks.fill(BlockMemo::default());
            }
            self.walk = 1;
        }
        self.budget = self.config.max_visits;
        match site {
            Some(s) => {
                let view = self.view_index(func);
                let (block, idx) = self.views[view].position[s.index()];
                self.scan_block(fp, func, block, Some(idx as usize), alias);
            }
            None => self.cross_to_callers(fp, func, alias),
        }
        absorb_all(&self.out)
    }

    /// The index of `f`'s view, building it on first use.
    fn view_index(&mut self, f: FuncId) -> usize {
        let slot = &mut self.view_of[f.index()];
        if *slot == NO_VIEW {
            *slot = self.views.len() as u32;
            self.views
                .push(FuncView::new(self.analysis, self.reveals, f));
        }
        *slot as usize
    }

    /// Collects the first reveals along every backward path from the
    /// given position (the block's end for `from_idx == None`). Whole-block
    /// scans are memoized per block for the rest of the walk.
    fn scan_block(
        &mut self,
        fp: &mut Footprint,
        func: FuncId,
        block: BlockId,
        from_idx: Option<usize>,
        alias: &mut impl FnMut(VarRef, &mut Footprint) -> bool,
    ) {
        let view = self.view_index(func);
        let whole = from_idx.is_none();
        let memo = self.views[view].blocks[block.index()];
        if whole && memo.scanned == self.walk {
            self.out
                .extend_from_within(memo.lo as usize..memo.hi as usize);
            return;
        }
        if self.budget == 0 || (whole && memo.active == self.walk) {
            return;
        }
        if whole {
            self.views[view].blocks[block.index()].active = self.walk;
        }
        self.budget -= 1;
        fp.touch(func);
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
                    if alias(VarRef::new(func, u), fp) {
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
            self.continue_upward(fp, func, block, view, alias);
        }
        if whole {
            self.views[view].blocks[block.index()] = BlockMemo {
                scanned: self.walk,
                lo: start as u32,
                hi: self.out.len() as u32,
                active: 0,
            };
        }
    }

    fn continue_upward(
        &mut self,
        fp: &mut Footprint,
        func: FuncId,
        block: BlockId,
        view: usize,
        alias: &mut impl FnMut(VarRef, &mut Footprint) -> bool,
    ) {
        let cfg = &self.views[view].cfg;
        if cfg.preds(block).is_empty() {
            if block == cfg.entry() && self.cross_callers {
                self.cross_to_callers(fp, func, alias);
            }
            return;
        }
        for k in 0..self.views[view].cfg.preds(block).len() {
            let p = self.views[view].cfg.preds(block)[k];
            self.scan_block(fp, func, p, None, alias);
        }
    }

    /// Crossing a function entry backward lands just above each call site
    /// (line 18's `CFG.parents` at entry), popping the context.
    fn cross_to_callers(
        &mut self,
        fp: &mut Footprint,
        func: FuncId,
        alias: &mut impl FnMut(VarRef, &mut Footprint) -> bool,
    ) {
        // The caller list is part of `func`'s call-graph adjacency, which
        // its input fingerprint covers — so consulting it (even when
        // empty) makes `func` part of the footprint.
        fp.touch(func);
        let analysis = self.analysis;
        for edge in analysis.callgraph.callers(func) {
            let op = CtxOp::Pop(CallSite {
                caller: edge.caller,
                site: edge.site,
            });
            if self.ctx.enter(op) {
                let view = self.view_index(edge.caller);
                let (block, idx) = self.views[view].position[edge.site.index()];
                self.scan_block(fp, edge.caller, block, Some(idx as usize), alias);
                self.ctx.leave(op);
            }
        }
    }
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

    /// Runs reveal, FI and then `order`'s refinement stages. The engine
    /// side refines every partition of every stage through one reused
    /// scratch, as a pool worker does, and commits each stage as the
    /// engine does; the reference, with `per_candidate`, refines every
    /// candidate in a partition of its own through a fresh scratch, so
    /// no walk, alias answer or view is reused for another, and
    /// re-classifies the whole module.
    fn cascade(
        analysis: &manta_analysis::ModuleAnalysis,
        config: &MantaConfig,
        order: &[Stage],
        per_candidate: bool,
    ) -> InferenceResult {
        let reveals = RevealMap::collect(analysis);
        let mut result = crate::flow_insensitive::run(analysis, &reveals, *config);
        let mut shared = Scratch::new(analysis, &reveals, config);
        for &stage in order {
            let (budget, fp) = (&Budget::unlimited(), &mut Footprint::off());
            let over = classify::over_approximated(&result);
            let partitions = match per_candidate {
                true => over.chunks(1).collect(),
                false => crate::ctx_refine::partition_by_func(&over),
            };
            let mut delta = Refinement::default();
            for chunk in partitions {
                let mut fresh;
                let scratch = match per_candidate {
                    true => {
                        fresh = Scratch::new(analysis, &reveals, config);
                        &mut fresh
                    }
                    false => &mut shared,
                };
                let out = match stage {
                    Stage::ContextRefine => crate::ctx_refine::refine_chunk(
                        scratch, &result, budget, chunk, fp,
                    )
                    .map(|(vars, _)| Refinement {
                        vars,
                        sites: Vec::new(),
                    }),
                    _ => refine_chunk(scratch, &result, budget, chunk, fp),
                };
                let out = out.expect("unlimited budget");
                delta.vars.extend(out.vars);
                delta.sites.extend(out.sites);
            }
            if !per_candidate {
                crate::engine::commit(stage, analysis, &mut result, delta);
                continue;
            }
            for (v, i) in delta.vars {
                result.set_var(v, i);
            }
            result.add_sites(delta.sites);
            let counts = classify::classify(analysis, &mut result);
            result.stage_counts.push((stage, counts));
        }
        result
    }

    /// Reusing a root set's CS forward walk and FS alias answers across
    /// its candidates, one worker scratch across partitions and stages,
    /// and re-classifying only the updated variables, must be invisible
    /// at every cap: near `max_visits` the walks are cut by their visit
    /// budget, and at small `max_ctx_depth` by context depth.
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
