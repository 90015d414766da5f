//! Source–sink DDG traversal (paper §5.3).
//!
//! Bug detection is program slicing over the DDG minus a [`CutSet`] (the
//! Table 2 pruning, or nothing): a forward traversal from each source,
//! constrained by CFL-context validity and an optional per-node *type
//! guard*, reporting every sink reached.

use std::collections::HashMap;

use manta_analysis::cfl::{ctx_op, CtxOp, CtxStack, Direction};
use manta_analysis::{Ddg, NodeId};

use crate::ddg_prune::CutSet;

/// Tuning for the slicer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlicerConfig {
    /// Context-stack depth bound.
    pub max_ctx_depth: usize,
    /// Node-visit budget per source.
    pub max_visits: usize,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            max_ctx_depth: 32,
            max_visits: 200_000,
        }
    }
}

/// A source–sink reachability fact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SourceSinkPair {
    /// The slice origin.
    pub source: NodeId,
    /// The sink reached.
    pub sink: NodeId,
}

/// Forward slicer over a DDG minus a cut.
#[derive(Debug)]
pub struct Slicer<'a> {
    ddg: &'a Ddg,
    cut: &'a CutSet,
    config: SlicerConfig,
    /// Total nodes visited across all queries — the work metric reported
    /// in the Table 5 time comparison.
    pub visits: usize,
}

impl<'a> Slicer<'a> {
    /// Creates a slicer over `ddg` that follows no edge `cut` cuts.
    pub fn new(ddg: &'a Ddg, cut: &'a CutSet, config: SlicerConfig) -> Slicer<'a> {
        Slicer {
            ddg,
            cut,
            config,
            visits: 0,
        }
    }

    /// Slices forward from every source; returns each `(source, sink)` pair
    /// with a CFL-valid value-flow path whose every intermediate node
    /// passes `guard`. A node is a sink if it is a key of `sinks`.
    ///
    /// Each source's walk is a depth-first preorder on an explicit path,
    /// so a long flow cannot exhaust the thread's stack.
    pub fn slice<S>(
        &mut self,
        sources: &[NodeId],
        sinks: &HashMap<NodeId, S>,
        mut guard: impl FnMut(NodeId) -> bool,
    ) -> Vec<SourceSinkPair> {
        let (ddg, cut) = (self.ddg, self.cut);
        let mut out = Vec::new();
        // `seen[n] == round`: node `n` was visited from the current source.
        let mut seen = vec![0u32; ddg.node_count()];
        let mut ctx = CtxStack::new(self.config.max_ctx_depth);
        // Each node on the walk's path, its next child, and the context
        // operation that entered it.
        let mut path: Vec<(NodeId, usize, CtxOp)> = Vec::new();
        for (round, &src) in (1..).zip(sources) {
            let mut budget = self.config.max_visits;
            // Visits `node`; whether the walk goes on to its children.
            let mut visit = |node: NodeId| {
                if budget == 0 || seen[node.index()] == round {
                    return false;
                }
                seen[node.index()] = round;
                budget -= 1;
                self.visits += 1;
                if node != src && !guard(node) {
                    // Type guard: the flow cannot continue through this node.
                    return false;
                }
                if sinks.contains_key(&node) {
                    out.push(SourceSinkPair {
                        source: src,
                        sink: node,
                    });
                }
                true
            };
            if visit(src) {
                path.push((src, 0, CtxOp::None));
            }
            while let Some((node, next, _)) = path.last_mut() {
                let mut entered = None;
                while let Some(&(child, kind)) = ddg.children(*node).get(*next) {
                    *next += 1;
                    if !cut.flows(child, kind) {
                        continue;
                    }
                    let op = ctx_op(kind, Direction::Forward);
                    if ctx.enter(op) {
                        if visit(child) {
                            entered = Some((child, 0, op));
                            break;
                        }
                        ctx.leave(op);
                    }
                }
                match entered {
                    Some(frame) => path.push(frame),
                    None => {
                        if let Some((_, _, op)) = path.pop() {
                            ctx.leave(op);
                        }
                    }
                }
            }
        }
        out.sort_by_key(|p| (p.source, p.sink));
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta_analysis::{ModuleAnalysis, VarRef};
    use manta_ir::{ModuleBuilder, Width};

    #[test]
    fn finds_simple_flow_and_respects_guard() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let a = fb.copy(p);
        let b = fb.copy(a);
        fb.ret(Some(b));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let (ddg, uncut) = (&analysis.ddg, CutSet::default());
        let np = ddg.node(VarRef::new(fid, p));
        let na = ddg.node(VarRef::new(fid, a));
        let nb = ddg.node(VarRef::new(fid, b));
        let sinks = HashMap::from([(nb, ())]);

        let mut slicer = Slicer::new(ddg, &uncut, SlicerConfig::default());
        let pairs = slicer.slice(&[np], &sinks, |_| true);
        assert_eq!(
            pairs,
            vec![SourceSinkPair {
                source: np,
                sink: nb
            }]
        );
        assert!(slicer.visits >= 3);

        // Guard that blocks the midpoint kills the path.
        let mut slicer = Slicer::new(ddg, &uncut, SlicerConfig::default());
        let pairs = slicer.slice(&[np], &sinks, |n| n != na);
        assert!(pairs.is_empty());
    }

    #[test]
    fn cfl_blocks_cross_context_flow() {
        // id() called from two sites: source in caller1 must not reach the
        // sink bound to caller2's result.
        let mut mb = ModuleBuilder::new("m");
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (c1, mut b1) = mb.function("c1", &[Width::W64], Some(Width::W64));
        let p1 = b1.param(0);
        let r1 = b1.call(id_f, &[p1], Some(Width::W64)).unwrap();
        b1.ret(Some(r1));
        mb.finish_function(b1);
        let (c2, mut b2) = mb.function("c2", &[Width::W64], Some(Width::W64));
        let p2 = b2.param(0);
        let r2 = b2.call(id_f, &[p2], Some(Width::W64)).unwrap();
        b2.ret(Some(r2));
        mb.finish_function(b2);
        let analysis = ModuleAnalysis::build(mb.finish());
        let (ddg, uncut) = (&analysis.ddg, CutSet::default());
        let src = ddg.node(VarRef::new(c1, p1));
        let good_sink = ddg.node(VarRef::new(c1, r1));
        let bad_sink = ddg.node(VarRef::new(c2, r2));
        let sinks = HashMap::from([(good_sink, ()), (bad_sink, ())]);
        let mut slicer = Slicer::new(ddg, &uncut, SlicerConfig::default());
        let pairs = slicer.slice(&[src], &sinks, |_| true);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].sink, good_sink, "CFL must reject the c2 return");
    }
}
