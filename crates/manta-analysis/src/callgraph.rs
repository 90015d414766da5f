//! The direct call graph and its bottom-up ordering.
//!
//! Indirect calls are *not* edges here: the paper resolves them only through
//! the type-based client (§5.1), and function pointers are deliberately not
//! modeled by the points-to analysis (§3). Calls whose edge was broken by
//! [`crate::preprocess`](mod@crate::preprocess) are likewise excluded, so
//! the graph is acyclic.

use std::collections::HashMap;

use manta_ir::{Callee, FuncId, InstId, InstKind};

use crate::preprocess::Preprocessed;

/// A call edge: caller, call-site instruction, callee.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallEdge {
    /// Calling function.
    pub caller: FuncId,
    /// The call instruction inside the caller.
    pub site: InstId,
    /// Called function.
    pub callee: FuncId,
}

/// The acyclic direct call graph of a preprocessed module.
#[derive(Clone, Debug)]
pub struct CallGraph {
    edges: Vec<CallEdge>,
    callees_of: HashMap<FuncId, Vec<CallEdge>>,
    callers_of: HashMap<FuncId, Vec<CallEdge>>,
    bottom_up: Vec<FuncId>,
}

impl CallGraph {
    /// Builds the call graph of `pre.module`, excluding broken edges.
    pub fn build(pre: &Preprocessed) -> CallGraph {
        let module = &pre.module;
        let mut edges = Vec::new();
        for f in module.functions() {
            for inst in f.insts() {
                if let InstKind::Call {
                    callee: Callee::Direct(target),
                    ..
                } = &inst.kind
                {
                    if pre.is_broken_call(f.id(), inst.id) {
                        continue;
                    }
                    edges.push(CallEdge {
                        caller: f.id(),
                        site: inst.id,
                        callee: *target,
                    });
                }
            }
        }
        let mut callees_of: HashMap<FuncId, Vec<CallEdge>> = HashMap::new();
        let mut callers_of: HashMap<FuncId, Vec<CallEdge>> = HashMap::new();
        for &e in &edges {
            callees_of.entry(e.caller).or_default().push(e);
            callers_of.entry(e.callee).or_default().push(e);
        }

        // Bottom-up (callees before callers) topological order via DFS
        // post-order. The graph is acyclic after preprocessing.
        let n = module.function_count();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for root in module.functions().map(|f| f.id()) {
            if visited[root.index()] {
                continue;
            }
            let mut stack: Vec<(FuncId, usize)> = vec![(root, 0)];
            visited[root.index()] = true;
            while let Some(&mut (f, ref mut next)) = stack.last_mut() {
                let cs = callees_of.get(&f).map(Vec::as_slice).unwrap_or(&[]);
                if *next < cs.len() {
                    let child = cs[*next].callee;
                    *next += 1;
                    if !visited[child.index()] {
                        visited[child.index()] = true;
                        stack.push((child, 0));
                    }
                } else {
                    order.push(f);
                    stack.pop();
                }
            }
        }
        CallGraph {
            edges,
            callees_of,
            callers_of,
            bottom_up: order,
        }
    }

    /// All call edges.
    pub fn edges(&self) -> &[CallEdge] {
        &self.edges
    }

    /// Outgoing edges of `f` (its call sites with direct targets).
    pub fn callees(&self, f: FuncId) -> &[CallEdge] {
        self.callees_of.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming edges of `f` (who calls it, and from where).
    pub fn callers(&self, f: FuncId) -> &[CallEdge] {
        self.callers_of.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Functions in bottom-up order: every callee precedes its callers.
    /// This is the processing order of the compositional analyses (§3).
    pub fn bottom_up(&self) -> &[FuncId] {
        &self.bottom_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use manta_ir::{ModuleBuilder, Width};

    fn chain_module() -> Preprocessed {
        // main -> mid -> leaf
        let mut mb = ModuleBuilder::new("m");
        let (leaf, mut lb) = mb.function("leaf", &[Width::W64], Some(Width::W64));
        let p = lb.param(0);
        lb.ret(Some(p));
        mb.finish_function(lb);
        let (mid, mut mbf) = mb.function("mid", &[Width::W64], Some(Width::W64));
        let p = mbf.param(0);
        let r = mbf.call(leaf, &[p], Some(Width::W64)).unwrap();
        mbf.ret(Some(r));
        mb.finish_function(mbf);
        let (_main, mut mf) = mb.function("main", &[], Some(Width::W64));
        let k = mf.const_int(7, Width::W64);
        let r = mf.call(mid, &[k], Some(Width::W64)).unwrap();
        mf.ret(Some(r));
        mb.finish_function(mf);
        preprocess(mb.finish(), PreprocessConfig::default())
    }

    #[test]
    fn edges_and_adjacency() {
        let pre = chain_module();
        let cg = CallGraph::build(&pre);
        assert_eq!(cg.edges().len(), 2);
        let main = pre.module.function_by_name("main").unwrap().id();
        let mid = pre.module.function_by_name("mid").unwrap().id();
        let leaf = pre.module.function_by_name("leaf").unwrap().id();
        assert_eq!(cg.callees(main).len(), 1);
        assert_eq!(cg.callees(main)[0].callee, mid);
        assert_eq!(cg.callers(leaf).len(), 1);
        assert_eq!(cg.callers(leaf)[0].caller, mid);
        assert!(cg.callees(leaf).is_empty());
    }

    #[test]
    fn bottom_up_orders_callees_first() {
        let pre = chain_module();
        let cg = CallGraph::build(&pre);
        let pos = |name: &str| {
            let id = pre.module.function_by_name(name).unwrap().id();
            cg.bottom_up().iter().position(|&f| f == id).unwrap()
        };
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("main"));
        assert_eq!(cg.bottom_up().len(), 3);
    }

    #[test]
    fn broken_edges_are_excluded() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("rec", &[], None);
        fb.call(fid, &[], None);
        fb.ret(None);
        mb.finish_function(fb);
        let pre = preprocess(mb.finish(), PreprocessConfig::default());
        let cg = CallGraph::build(&pre);
        assert!(cg.edges().is_empty());
        assert_eq!(cg.bottom_up().len(), 1);
    }
}
