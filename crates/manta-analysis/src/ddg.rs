//! The data-dependence graph (paper Definition 1).
//!
//! Vertices are SSA values (`v@s` collapses to `v` since values are in SSA
//! form — a value has one def site; the *use*-site granularity the
//! flow-sensitive refinement needs is recovered on the CFG). Edges carry a
//! [`DepKind`]:
//!
//! * intra-procedural value flow (`copy`/`phi`), arithmetic operand flow
//!   (the edges Table 2 prunes), field derivation (`gep`);
//! * memory dependencies `⟨p@*a=p, q@q=*b⟩` constructed iff a stored value
//!   and a loaded value share a points-to object;
//! * interprocedural parameter/return bindings labeled with their call
//!   site, which act as the open/close parentheses of CFL-reachability for
//!   the context-sensitive refinement (Algorithm 1).

use manta_ir::{BinOp, Callee, ExternEffect, FuncId, InstId, InstKind, Terminator, ValueId};

use crate::pointsto::{var_bases, var_index, ObjectId, PointsTo};
use crate::preprocess::Preprocessed;
use crate::{Csr, VarRef};

/// A call site: caller function plus the call instruction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallSite {
    /// Calling function.
    pub caller: FuncId,
    /// Call instruction within the caller.
    pub site: InstId,
}

/// Dense DDG node id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a data dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Value copy (`copy`, `phi`).
    Direct,
    /// Operand of a binary arithmetic instruction flowing into its result.
    /// `operand` is 0 (lhs) or 1 (rhs). These are the candidates for
    /// Table 2's infeasible-dependency pruning.
    Arith {
        /// The arithmetic operator.
        op: BinOp,
        /// Which operand (0 = lhs, 1 = rhs).
        operand: u8,
    },
    /// Operand of a comparison flowing into its boolean result. Not a value
    /// flow; excluded from slicing traversals.
    Cmp,
    /// Base address flowing into a `gep` field address.
    Field,
    /// A stored value reaching a load through abstract object `o`.
    Memory(ObjectId),
    /// Actual argument flowing into a formal parameter at a call site
    /// (CFL open parenthesis).
    CallParam(CallSite),
    /// Callee return value flowing into the call result (CFL close
    /// parenthesis).
    CallReturn(CallSite),
    /// Flow through a modeled external function (`strcpy`, `atoi`, …).
    ExternFlow,
}

impl DepKind {
    /// Whether slicing treats this edge as value flow.
    pub fn is_value_flow(self) -> bool {
        !matches!(self, DepKind::Cmp)
    }
}

/// An edge as the scans emit it: source node, target node, kind.
type Edge = (NodeId, NodeId, DepKind);

/// The data-dependence graph of a module. It is built once and never
/// edited: each direction's adjacency is one table grouped by node, and
/// nodes are numbered as points-to numbers variables.
#[derive(Debug)]
pub struct Ddg {
    node_base: Vec<u32>,
    vars: Vec<VarRef>,
    fwd: Csr<(NodeId, DepKind)>,
    bwd: Csr<(NodeId, DepKind)>,
}

impl Ddg {
    /// Builds the DDG of a preprocessed module given points-to results.
    pub fn build(pre: &Preprocessed, pts: &PointsTo) -> Ddg {
        let unlimited = manta_resilience::Budget::unlimited();
        match Self::build_budgeted(pre, pts, &unlimited) {
            Ok(d) => d,
            // A fresh unlimited budget never trips.
            Err(_) => unreachable!("unlimited budget tripped"),
        }
    }

    /// Builds the DDG under a cooperative budget; fuel is charged per
    /// instruction scanned and per memory-dependency pairing.
    ///
    /// # Errors
    ///
    /// Returns [`manta_resilience::BudgetExceeded`] when `budget` trips;
    /// the partially built graph is discarded.
    pub fn build_budgeted(
        pre: &Preprocessed,
        pts: &PointsTo,
        budget: &manta_resilience::Budget,
    ) -> Result<Ddg, manta_resilience::BudgetExceeded> {
        let module = &pre.module;
        let node_base = var_bases(module);
        let vars: Vec<VarRef> = module
            .functions()
            .flat_map(|f| f.values().map(move |(v, _)| VarRef::new(f.id(), v)))
            .collect();

        // Per-function scans are independent: every edge an instruction
        // emits is discovered while scanning exactly one function, so the
        // scans fan out across the pool, a contiguous range of functions
        // per item (about four per worker, as the pool batches), and
        // their lists are read in range order — the same order a serial
        // pass produces. Write/read records borrow the points-to sets
        // instead of cloning them (they are only consulted during pairing
        // below).
        let n_funcs = module.function_count();
        let per_range = n_funcs
            .div_ceil(manta_parallel::effective_threads() * 4)
            .max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..n_funcs)
            .step_by(per_range)
            .map(|lo| lo..n_funcs.min(lo + per_range))
            .collect();
        let scans = manta_parallel::par_map(ranges, |range| {
            let mut scan = FuncScan::default();
            for f in range {
                scan_function(pre, pts, &node_base, FuncId(f as u32), budget, &mut scan)?;
            }
            Ok(scan)
        })
        .into_iter()
        .collect::<Result<Vec<FuncScan<'_>>, _>>()?;

        // Memory dependencies: a write (a store, or an extern's copy
        // effect) reaches a read iff they share an object. The writers of
        // each object, in write order.
        let writers = Csr::new(
            pts.object_count(),
            scans
                .iter()
                .flat_map(|s| &s.writes)
                .flat_map(|&(val, objs)| objs.iter().map(move |o| (o.index(), val))),
        );
        let mut memory: Vec<Edge> = Vec::new();
        for &(dst, objs) in scans.iter().flat_map(|s| &s.reads) {
            budget.tick()?;
            for &o in objs {
                for &w in writers.get(o.index()) {
                    memory.push((w, dst, DepKind::Memory(o)));
                }
            }
        }
        // Each node's edges in discovery order: the scans' in function
        // order, then the memory edges. The grouping is a stable sort.
        let edges = || {
            let scanned = scans.iter().flat_map(|s| s.edges.iter().copied());
            scanned.chain(memory.iter().copied())
        };
        let n = vars.len();
        let ddg = Ddg {
            node_base,
            vars,
            fwd: Csr::new(n, edges().map(|(from, to, k)| (from.index(), (to, k)))),
            bwd: Csr::new(n, edges().map(|(from, to, k)| (to.index(), (from, k)))),
        };
        manta_telemetry::counter("ddg.nodes", ddg.node_count() as u64);
        manta_telemetry::counter("ddg.edges", ddg.edge_count() as u64);
        Ok(ddg)
    }

    /// The node for variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the analyzed module, including a
    /// value id past its function's values.
    pub fn node(&self, v: VarRef) -> NodeId {
        node_of(&self.node_base, v)
    }

    /// The variable of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn var(&self, n: NodeId) -> VarRef {
        self.vars[n.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of (directed) edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.len()
    }

    /// Forward (def → use) adjacency of `n` (paper: `DDG.childs`).
    pub fn children(&self, n: NodeId) -> &[(NodeId, DepKind)] {
        self.fwd.get(n.index())
    }

    /// Backward (use → def) adjacency of `n` (paper: `DDG.parents`).
    pub fn parents(&self, n: NodeId) -> &[(NodeId, DepKind)] {
        self.bwd.get(n.index())
    }
}

/// `v`'s node on `node_base`'s numbering; panics naming `v` if it has none.
fn node_of(node_base: &[u32], v: VarRef) -> NodeId {
    match var_index(node_base, v) {
        Some(n) => NodeId(n),
        None => panic!("{v} is not a variable of the analyzed module"),
    }
}

/// Everything the instruction scans of a range of functions contribute
/// to the graph, in function order. Write/read records keep borrows into
/// the points-to relation; only the pairing pass consumes them.
#[derive(Default)]
struct FuncScan<'a> {
    edges: Vec<Edge>,
    writes: Vec<(NodeId, &'a [ObjectId])>,
    reads: Vec<(NodeId, &'a [ObjectId])>,
}

/// Scans one function for DDG edges and memory write/read records,
/// appending them to `scan`. Fuel is charged exactly as the historical
/// serial pass: one unit per function plus one per instruction.
fn scan_function<'a>(
    pre: &Preprocessed,
    pts: &'a PointsTo,
    node_base: &[u32],
    fid: FuncId,
    budget: &manta_resilience::Budget,
    scan: &mut FuncScan<'a>,
) -> Result<(), manta_resilience::BudgetExceeded> {
    let module = &pre.module;
    let func = module.function(fid);
    let var = |v: ValueId| VarRef::new(fid, v);
    let node = |v: ValueId| node_of(node_base, var(v));
    budget.tick()?;
    for inst in func.insts() {
        budget.tick()?;
        match &inst.kind {
            InstKind::Copy { dst, src } => {
                scan.edges.push((node(*src), node(*dst), DepKind::Direct));
            }
            InstKind::Phi { dst, incomings } => {
                for (_, v) in incomings {
                    scan.edges.push((node(*v), node(*dst), DepKind::Direct));
                }
            }
            InstKind::BinOp { op, dst, lhs, rhs } => {
                for (operand, v) in [*lhs, *rhs].into_iter().enumerate() {
                    let kind = DepKind::Arith {
                        op: *op,
                        operand: operand as u8,
                    };
                    scan.edges.push((node(v), node(*dst), kind));
                }
            }
            InstKind::Cmp { dst, lhs, rhs, .. } => {
                scan.edges.push((node(*lhs), node(*dst), DepKind::Cmp));
                scan.edges.push((node(*rhs), node(*dst), DepKind::Cmp));
            }
            InstKind::Gep { dst, base, .. } => {
                scan.edges.push((node(*base), node(*dst), DepKind::Field));
            }
            InstKind::Alloca { .. } => {}
            InstKind::Store { addr, val } => {
                let objs = pts.pts_var(var(*addr));
                if !objs.is_empty() {
                    scan.writes.push((node(*val), objs));
                }
            }
            InstKind::Load { dst, addr, .. } => {
                let objs = pts.pts_var(var(*addr));
                if !objs.is_empty() {
                    scan.reads.push((node(*dst), objs));
                }
            }
            InstKind::Call { dst, callee, args } => match callee {
                Callee::Direct(target) => {
                    if pre.is_broken_call(fid, inst.id) {
                        continue;
                    }
                    let cs = CallSite {
                        caller: fid,
                        site: inst.id,
                    };
                    let tf = module.function(*target);
                    let callee_node = |v: ValueId| node_of(node_base, VarRef::new(*target, v));
                    for (i, &a) in args.iter().enumerate() {
                        if let Some(&p) = tf.params().get(i) {
                            scan.edges
                                .push((node(a), callee_node(p), DepKind::CallParam(cs)));
                        }
                    }
                    if let Some(d) = dst {
                        for b in tf.blocks() {
                            if let Terminator::Ret(Some(r)) = b.term {
                                scan.edges.push((
                                    callee_node(r),
                                    node(*d),
                                    DepKind::CallReturn(cs),
                                ));
                            }
                        }
                    }
                }
                Callee::Extern(e) => {
                    let decl = module.extern_decl(*e);
                    match decl.effect {
                        ExternEffect::StrCopy => {
                            // dst buffer contents and return value both
                            // carry the source string.
                            if let Some(&src) = args.get(1) {
                                if let Some(d) = dst {
                                    scan.edges.push((node(src), node(*d), DepKind::ExternFlow));
                                }
                                if let Some(&dbuf) = args.first() {
                                    let objs = pts.pts_var(var(dbuf));
                                    if !objs.is_empty() {
                                        scan.writes.push((node(src), objs));
                                    }
                                }
                            }
                        }
                        ExternEffect::IntParse | ExternEffect::Pure => {
                            if let (Some(d), Some(&a0)) = (dst, args.first()) {
                                scan.edges.push((node(a0), node(*d), DepKind::ExternFlow));
                            }
                        }
                        _ => {}
                    }
                }
                Callee::Indirect(_) => {
                    // Unresolved before the §5.1 client runs; no edges
                    // (function pointers unmodeled).
                }
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use manta_ir::{ModuleBuilder, Width};

    fn build(m: manta_ir::Module) -> (Preprocessed, Ddg) {
        let pre = preprocess(m, PreprocessConfig::default());
        let cg = CallGraph::build(&pre);
        let pts = PointsTo::solve(&pre, &cg);
        let ddg = Ddg::build(&pre, &pts);
        (pre, ddg)
    }

    #[test]
    fn copy_and_arith_edges() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let c = fb.copy(p);
        let one = fb.const_int(1, Width::W64);
        let s = fb.binop(BinOp::Add, c, one, Width::W64);
        fb.ret(Some(s));
        mb.finish_function(fb);
        let (_, ddg) = build(mb.finish());
        let np = ddg.node(VarRef::new(fid, p));
        let nc = ddg.node(VarRef::new(fid, c));
        let ns = ddg.node(VarRef::new(fid, s));
        assert!(ddg
            .children(np)
            .iter()
            .any(|&(t, k)| t == nc && k == DepKind::Direct));
        assert!(ddg.children(nc).iter().any(|&(t, k)| t == ns
            && matches!(
                k,
                DepKind::Arith {
                    op: BinOp::Add,
                    operand: 0
                }
            )));
        assert!(ddg.parents(ns).len() >= 2);
    }

    #[test]
    fn memory_edge_requires_shared_object() {
        // Two disjoint slots: store into one, load from the other ⇒ no edge.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let a = fb.alloca(8);
        let b = fb.alloca(8);
        fb.store(a, p);
        let l = fb.load(b, Width::W64);
        fb.ret(Some(l));
        mb.finish_function(fb);
        let (_, ddg) = build(mb.finish());
        let np = ddg.node(VarRef::new(fid, p));
        let nl = ddg.node(VarRef::new(fid, l));
        assert!(!ddg.children(np).iter().any(|&(t, _)| t == nl));

        // Same slot ⇒ edge.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let a = fb.alloca(8);
        fb.store(a, p);
        let l = fb.load(a, Width::W64);
        fb.ret(Some(l));
        mb.finish_function(fb);
        let (_, ddg) = build(mb.finish());
        let np = ddg.node(VarRef::new(fid, p));
        let nl = ddg.node(VarRef::new(fid, l));
        assert!(ddg
            .children(np)
            .iter()
            .any(|&(t, k)| t == nl && matches!(k, DepKind::Memory(_))));
    }

    #[test]
    fn call_edges_carry_call_sites() {
        let mut mb = ModuleBuilder::new("m");
        let (callee, mut cb) = mb.function("callee", &[Width::W64], Some(Width::W64));
        let x = cb.param(0);
        cb.ret(Some(x));
        mb.finish_function(cb);
        let (caller, mut fb) = mb.function("caller", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let r = fb.call(callee, &[p], Some(Width::W64)).unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let (pre, ddg) = build(mb.finish());
        let callee = pre.module.function_by_name("callee").unwrap().id();
        let x = pre.module.function(callee).params()[0];
        let np = ddg.node(VarRef::new(caller, p));
        let nx = ddg.node(VarRef::new(callee, x));
        let param_edge = ddg
            .children(np)
            .iter()
            .find(|&&(t, k)| t == nx && matches!(k, DepKind::CallParam(_)))
            .expect("param binding edge");
        let DepKind::CallParam(cs) = param_edge.1 else {
            unreachable!()
        };
        assert_eq!(cs.caller, caller);
        // Return edge closes with the same call site.
        let nr = ddg.node(VarRef::new(caller, r));
        assert!(ddg
            .parents(nr)
            .iter()
            .any(|&(s, k)| s == nx && k == DepKind::CallReturn(cs)));
    }

    #[test]
    #[should_panic(expected = "is not a variable of the analyzed module")]
    fn a_value_past_its_function_names_no_node() {
        // One past the first function's values would be the second's first
        // node if the id were not checked.
        let mut mb = ModuleBuilder::new("m");
        let (first, mut fb) = mb.function("first", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        fb.ret(Some(p));
        mb.finish_function(fb);
        let (_, mut gb) = mb.function("second", &[Width::W64], Some(Width::W64));
        let q = gb.param(0);
        gb.ret(Some(q));
        mb.finish_function(gb);
        let (pre, ddg) = build(mb.finish());
        let past = ValueId(pre.module.function(first).value_count() as u32);
        ddg.node(VarRef::new(first, past));
    }

    #[test]
    fn strcpy_propagates_through_buffer() {
        let mut mb = ModuleBuilder::new("m");
        let strcpy = mb.extern_fn("strcpy", &[], None);
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let (fid, mut fb) = mb.function("f", &[], Some(Width::W64));
        let key = fb.alloca(8);
        let taint = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let buf = fb.alloca(64);
        fb.call_extern(strcpy, &[buf, taint], Some(Width::W64));
        let out = fb.load(buf, Width::W64);
        fb.ret(Some(out));
        mb.finish_function(fb);
        let (_, ddg) = build(mb.finish());
        let nt = ddg.node(VarRef::new(fid, taint));
        let no = ddg.node(VarRef::new(fid, out));
        assert!(ddg
            .children(nt)
            .iter()
            .any(|&(t, k)| t == no && matches!(k, DepKind::Memory(_))));
    }
}
