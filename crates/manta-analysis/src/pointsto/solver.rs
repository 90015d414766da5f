//! The delta-propagation solver and the historical whole-set reference
//! solver (the differential-testing oracle).

use std::collections::{HashMap, VecDeque};

use manta_ir::{FuncId, ValueId};

use super::constraints::Constraints;
use super::objset::{Deltas, InlineVec, ObjSet};
use super::{
    var_bases, Node, ObjectId, ObjectKind, PointsTo, PointsToProvenance, PtsSource, Table,
    DELTA_SIZES, PEAK_PTS,
};
use crate::preprocess::Preprocessed;
use crate::Csr;
use crate::VarRef;

/// Solver-internal derivation reason over raw dense node ids; resolved
/// to [`PtsSource`] at export.
#[derive(Clone, Copy, Debug)]
enum Origin {
    Seed,
    Copy(u32),
    Field(u32),
}

/// The load, store and gep rules each variable node triggers, fixed at
/// setup from the constraint system: `dst ⊇ *n`, `*n ⊇ val` and
/// `dst ∋ field(o, offset)` for each `o ∈ pts(n)`.
struct Rules {
    geps: Csr<(u32, u64)>,
    loads: Csr<u32>,
    stores: Csr<u32>,
}

/// The rules a representative took over from the members merged into
/// it; they run after its own.
#[derive(Default)]
struct Inherited {
    geps: Vec<(u32, u64)>,
    loads: Vec<u32>,
    stores: Vec<u32>,
}

/// Delta-propagation worklist solver over a dense node arena.
///
/// Node numbering: per-function variable bases first (the same scheme the
/// DDG uses), then one node per abstract object (`nv + object index`,
/// growing as field objects materialize). Copy-SCCs are collapsed into a
/// union-find representative; per-node arrays always hold the live state
/// at the representative.
pub(super) struct DeltaSolver<'a> {
    pre: &'a Preprocessed,
    /// Function `f`'s variables are nodes `var_base[f]..var_base[f + 1]`.
    var_base: Vec<u32>,
    nv: usize,
    objects: Vec<ObjectKind>,
    field_intern: HashMap<(ObjectId, u64), ObjectId>,
    // Per dense node:
    parent: Vec<u32>,
    pts: Vec<ObjSet>,
    deltas: Deltas,
    /// Copy successors, sorted and deduplicated at insertion.
    succ: Vec<InlineVec<u32, 4>>,
    on_list: Vec<bool>,
    /// Rules inherited by representatives, only ever from merges.
    inherited: HashMap<u32, Inherited>,
    list: VecDeque<u32>,
    /// [`DeltaSolver::add_edge`]'s scratch for the objects a new edge
    /// carries.
    diff: Vec<u32>,
    iterations: usize,
    edges_since_scc: usize,
    total_edges: usize,
    scc_merges: u64,
    /// `(node, obj)` → first derivation; allocated only by
    /// [`DeltaSolver::derivations`], so [`DeltaSolver::run`] costs one
    /// `Option` check per newly inserted fact.
    prov: Option<HashMap<(u32, u32), Origin>>,
}

impl Inherited {
    fn is_empty(&self) -> bool {
        self.geps.is_empty() && self.loads.is_empty() && self.stores.is_empty()
    }
}

impl<'a> DeltaSolver<'a> {
    pub(super) fn new(pre: &'a Preprocessed) -> Self {
        let var_base = var_bases(&pre.module);
        let nv = var_base.last().copied().unwrap_or(0) as usize;
        DeltaSolver {
            pre,
            var_base,
            nv,
            objects: Vec::new(),
            field_intern: HashMap::new(),
            parent: Vec::new(),
            pts: Vec::new(),
            deltas: Deltas::new(),
            succ: Vec::new(),
            on_list: Vec::new(),
            inherited: HashMap::new(),
            list: VecDeque::new(),
            diff: Vec::new(),
            iterations: 0,
            edges_since_scc: 0,
            total_edges: 0,
            scc_merges: 0,
            prov: None,
        }
    }

    fn var_node(&self, v: VarRef) -> u32 {
        self.var_base[v.func.index()] + v.value.0
    }

    fn obj_node(&self, o: ObjectId) -> u32 {
        (self.nv + o.index()) as u32
    }

    fn grow_to(&mut self, n: usize) {
        self.parent.extend(self.parent.len() as u32..n as u32);
        self.pts.resize_with(n, ObjSet::default);
        self.deltas.grow_to(n);
        self.succ.resize_with(n, InlineVec::default);
        self.on_list.resize(n, false);
    }

    fn new_object(&mut self, kind: ObjectKind) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(kind);
        self.grow_to(self.nv + self.objects.len());
        id
    }

    /// Union-find lookup with path halving.
    fn find(&mut self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            let gp = self.parent[self.parent[n as usize] as usize];
            self.parent[n as usize] = gp;
            n = gp;
        }
        n
    }

    fn enqueue(&mut self, n: u32) {
        if !self.on_list[n as usize] {
            self.on_list[n as usize] = true;
            self.list.push_back(n);
        }
    }

    /// Adds `objs` (deduplicated, any order) to `pts(n)`, extending the
    /// delta with the newly present ones. `origin` is recorded for each
    /// newly inserted fact when derivations are being recorded.
    fn add_objs(&mut self, n: u32, objs: &[u32], origin: Origin) {
        let n = self.find(n);
        let mut any = false;
        for &o in objs {
            if self.pts[n as usize].insert(o) {
                self.deltas.push(n, o);
                any = true;
                if let Some(prov) = &mut self.prov {
                    prov.entry((n, o)).or_insert(origin);
                }
            }
        }
        if any {
            self.enqueue(n);
        }
    }

    /// Adds the copy edge `a → b`, deduplicating at insertion; a new edge
    /// immediately propagates `pts(a) \ pts(b)`.
    fn add_edge(&mut self, a: u32, b: u32) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b || !self.succ[a as usize].insert_sorted(b) {
            return; // a self-loop or a duplicate copy constraint
        }
        self.edges_since_scc += 1;
        self.total_edges += 1;
        let mut diff = std::mem::take(&mut self.diff);
        self.pts[a as usize].diff_into(&self.pts[b as usize], &mut diff);
        if !diff.is_empty() {
            self.add_objs(b, &diff, Origin::Copy(a));
        }
        diff.clear();
        self.diff = diff;
    }

    /// Merges node `b` into representative `a` (cycle collapse): points-to
    /// sets union, constraint lists concatenate, and the combined delta
    /// covers the symmetric difference plus both pending deltas so every
    /// inherited edge and constraint sees what its side was missing.
    fn merge(&mut self, a: u32, b: u32, rules: &Rules) {
        debug_assert_ne!(a, b);
        self.scc_merges += 1;
        self.parent[b as usize] = a;
        let b_pts = std::mem::take(&mut self.pts[b as usize]);
        let mut b_only = Vec::new();
        b_pts.diff_into(&self.pts[a as usize], &mut b_only);
        let mut a_only = Vec::new();
        self.pts[a as usize].diff_into(&b_pts, &mut a_only);
        for &o in &b_only {
            self.pts[a as usize].insert(o);
        }
        self.deltas.move_all(b, a);
        for o in b_only.into_iter().chain(a_only) {
            self.deltas.push(a, o);
        }
        let b_succ = std::mem::take(&mut self.succ[b as usize]);
        for &s in b_succ.as_slice() {
            self.succ[a as usize].insert_sorted(s);
        }
        // `b`'s rules, its own then those it inherited, run after `a`'s.
        let from = self.inherited.remove(&b).unwrap_or_default();
        let bu = b as usize;
        let (geps, loads, stores) = (
            rules.geps.get(bu),
            rules.loads.get(bu),
            rules.stores.get(bu),
        );
        if !(geps.is_empty() && loads.is_empty() && stores.is_empty() && from.is_empty()) {
            let into = self.inherited.entry(a).or_default();
            into.geps.extend(geps.iter().chain(&from.geps));
            into.loads.extend(loads.iter().chain(&from.loads));
            into.stores.extend(stores.iter().chain(&from.stores));
        }
        if !self.deltas.is_empty(a) {
            self.enqueue(a);
        }
    }

    /// Collapses every copy-SCC of the current (representative) copy graph
    /// into its minimum member — iterative Tarjan, merges applied after
    /// the pass so the traversal sees a consistent graph.
    fn collapse_sccs(&mut self, rules: &Rules) {
        let n = self.parent.len();
        let mut index = vec![0u32; n]; // 0 = unvisited
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 1u32;
        let mut components: Vec<Vec<u32>> = Vec::new();
        // Explicit DFS frames: (node, next successor position).
        let mut frames: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if self.find(root) != root || index[root as usize] != 0 {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if *pos == 0 {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                }
                // Resolve the successor through the union-find at visit
                // time; merges are deferred, so reps are stable here.
                let succ_at = self.succ[v as usize].as_slice().get(*pos).copied();
                match succ_at {
                    Some(raw) => {
                        *pos += 1;
                        let w = self.find(raw);
                        if w == v {
                            continue;
                        }
                        if index[w as usize] == 0 {
                            frames.push((w, 0));
                        } else if on_stack[w as usize] {
                            low[v as usize] = low[v as usize].min(index[w as usize]);
                        }
                    }
                    None => {
                        if low[v as usize] == index[v as usize] {
                            // A node alone in its component (most of
                            // them) is popped without collecting it.
                            let at = stack.iter().rposition(|&w| w == v).unwrap_or(0);
                            for &w in &stack[at..] {
                                on_stack[w as usize] = false;
                            }
                            if stack.len() - at > 1 {
                                components.push(stack[at..].to_vec());
                            }
                            stack.truncate(at);
                        }
                        frames.pop();
                        if let Some(&mut (p, _)) = frames.last_mut() {
                            low[p as usize] = low[p as usize].min(low[v as usize]);
                        }
                    }
                }
            }
        }
        for mut comp in components {
            comp.sort_unstable();
            let rep = comp[0];
            for &m in &comp[1..] {
                self.merge(rep, m, rules);
            }
        }
        self.edges_since_scc = 0;
    }

    fn field(&mut self, parent: ObjectId, offset: u64) -> ObjectId {
        if let Some(&f) = self.field_intern.get(&(parent, offset)) {
            return f;
        }
        let f = self.new_object(ObjectKind::Field { parent, offset });
        self.field_intern.insert((parent, offset), f);
        f
    }

    /// Solves the constraints and exports the points-to map.
    pub(super) fn run(
        mut self,
        budget: &manta_resilience::Budget,
    ) -> Result<PointsTo, manta_resilience::BudgetExceeded> {
        self.fixpoint(budget)?;
        manta_telemetry::counter("pointsto.worklist_iters", self.iterations as u64);
        manta_telemetry::counter("pointsto.objects", self.objects.len() as u64);
        manta_telemetry::counter("pointsto.scc_merges", self.scc_merges);
        let out = self.export();
        manta_telemetry::counter("pointsto.constraint_nodes", out.constraint_nodes as u64);
        manta_telemetry::counter("pointsto.constraint_edges", out.constraint_edges as u64);
        PEAK_PTS.record_max(out.peak_pts as u64);
        Ok(out)
    }

    /// Solves the constraints on an unlimited budget, recording how each
    /// fact was first derived, and returns those derivations. It makes
    /// [`DeltaSolver::run`]'s solve, visit for visit, but reports none of
    /// its counters; the `pointsto.delta_size` histogram sees its visits.
    pub(super) fn derivations(mut self) -> PointsToProvenance {
        self.prov = Some(HashMap::new());
        let unlimited = manta_resilience::Budget::unlimited();
        if self.fixpoint(&unlimited).is_err() {
            unreachable!("unlimited budget tripped");
        }
        let raw = self.prov.take().unwrap_or_default();
        let mut p = PointsToProvenance::default();
        for ((n, o), origin) in raw {
            let source = match origin {
                Origin::Seed => PtsSource::Seed,
                Origin::Copy(m) => match self.node_key(m) {
                    Node::Var(v) => PtsSource::CopiedFromVar(v),
                    Node::Obj(obj) => PtsSource::CopiedFromObj(obj),
                },
                Origin::Field(parent) => PtsSource::FieldOf(ObjectId(parent)),
            };
            match self.node_key(n) {
                Node::Var(v) => {
                    p.var_origins.insert((v, ObjectId(o)), source);
                }
                Node::Obj(obj) => {
                    p.obj_origins.insert((obj, ObjectId(o)), source);
                }
            }
        }
        p
    }

    /// Runs the worklist to fixpoint on `budget`.
    fn fixpoint(
        &mut self,
        budget: &manta_resilience::Budget,
    ) -> Result<(), manta_resilience::BudgetExceeded> {
        budget.tick()?;
        let constraints = Constraints::collect(self.pre);
        for kind in &constraints.objects {
            let id = ObjectId(self.objects.len() as u32);
            self.objects.push(*kind);
            if let ObjectKind::Field { parent, offset } = *kind {
                self.field_intern.insert((parent, offset), id);
            }
        }
        self.grow_to(self.nv + self.objects.len());
        // Index complex constraints by their trigger node.
        let node = |v: VarRef| self.var_node(v);
        let rules = Rules {
            geps: Csr::new(
                self.nv,
                (constraints.geps.iter()).map(|&(b, d, off)| (node(b) as usize, (node(d), off))),
            ),
            loads: Csr::new(
                self.nv,
                (constraints.loads.iter()).map(|&(a, d)| (node(a) as usize, node(d))),
            ),
            stores: Csr::new(
                self.nv,
                (constraints.stores.iter()).map(|&(a, v)| (node(a) as usize, node(v))),
            ),
        };
        for &(src, dst) in &constraints.copies {
            let (s, d) = (self.node_of(src), self.node_of(dst));
            self.add_edge(s, d);
        }
        for &(n, o) in &constraints.seeds {
            let n = self.node_of(n);
            self.add_objs(n, &[o.0], Origin::Seed);
        }
        // Collapse the static copy-SCCs up front; further collapses run
        // online as load/store rules add enough new edges.
        self.collapse_sccs(&rules);

        let scc_period = (self.parent.len() / 4).max(256);
        // The visited node's delta, sorted; one buffer for every visit.
        let mut d = Vec::new();
        while let Some(n0) = self.list.pop_front() {
            self.iterations += 1;
            budget.tick()?;
            self.on_list[n0 as usize] = false;
            if self.edges_since_scc >= scc_period {
                self.collapse_sccs(&rules);
            }
            let n = self.find(n0);
            if n != n0 {
                continue; // merged away; the representative is enqueued
            }
            d.clear();
            self.deltas.drain_into(n, &mut d);
            if d.is_empty() {
                continue;
            }
            d.sort_unstable();
            d.dedup();
            budget.consume(d.len() as u64)?;
            DELTA_SIZES.record(d.len() as u64);
            let nu = n as usize;
            // Rules `n` inherited from merged members run after its own.
            // A visit merges nothing, so they go back unchanged.
            let inherited = if self.inherited.is_empty() {
                None
            } else {
                self.inherited.remove(&n)
            };
            let inh = inherited.as_ref();
            // Field derivation: materialize fields under each new object.
            let geps = rules
                .geps
                .get(nu)
                .iter()
                .chain(inh.map_or(&[][..], |i| &i.geps));
            for &(dst, offset) in geps {
                for &o in &d {
                    let f = self.field(ObjectId(o), offset);
                    self.add_objs(dst, &[f.0], Origin::Field(o));
                }
            }
            // Load rule: `dst ⊇ *addr` becomes edges obj → dst.
            let loads = rules
                .loads
                .get(nu)
                .iter()
                .chain(inh.map_or(&[][..], |i| &i.loads));
            for &dst in loads {
                for &o in &d {
                    let on = self.obj_node(ObjectId(o));
                    self.add_edge(on, dst);
                }
            }
            // Store rule: `*addr ⊇ val` becomes edges val → obj.
            let stores = rules
                .stores
                .get(nu)
                .iter()
                .chain(inh.map_or(&[][..], |i| &i.stores));
            for &val in stores {
                for &o in &d {
                    let on = self.obj_node(ObjectId(o));
                    self.add_edge(val, on);
                }
            }
            if let Some(inherited) = inherited {
                self.inherited.insert(n, inherited);
            }
            // Copy rule: push only the delta to each successor.
            // It adds no edge either, so the list goes back by move.
            let succ_list = std::mem::take(&mut self.succ[nu]);
            for &s in succ_list.as_slice() {
                let s = self.find(s);
                if s != n {
                    self.add_objs(s, &d, Origin::Copy(n));
                }
            }
            debug_assert!(self.parent[nu] == n && self.succ[nu].is_empty());
            self.succ[nu] = succ_list;
        }

        Ok(())
    }

    fn node_of(&self, n: Node) -> u32 {
        match n {
            Node::Var(v) => self.var_node(v),
            Node::Obj(o) => self.obj_node(o),
        }
    }

    /// The variable or object a dense node index names. Every index names
    /// one even after SCC collapse (representatives are cycle members,
    /// not synthetics).
    fn node_key(&self, raw: u32) -> Node {
        if (raw as usize) < self.nv {
            // The last function starting at or before `raw` owns it (a
            // function without values shares its successor's base).
            let f = self.var_base.partition_point(|&b| b <= raw) - 1;
            Node::Var(VarRef::new(
                FuncId(f as u32),
                ValueId(raw - self.var_base[f]),
            ))
        } else {
            Node::Obj(ObjectId(raw - self.nv as u32))
        }
    }

    /// Lays the dense solution out as the result table in two passes:
    /// each representative's set goes into the arena once, then every
    /// member of a collapsed cycle shares its representative's span.
    fn export(mut self) -> PointsTo {
        let total = self.parent.len();
        let is_rep = |n: usize| self.parent[n] as usize == n;
        let len = (0..total)
            .filter(|&n| is_rep(n))
            .map(|n| self.pts[n].len())
            .sum();
        let mut table = Table::new(std::mem::take(&mut self.var_base), total, len);
        for n in (0..total).filter(|&n| is_rep(n)) {
            table.set(n as u32, self.pts[n].iter().map(ObjectId));
        }
        for n in 0..total as u32 {
            let rep = self.find(n);
            if rep != n {
                table.share(n, rep);
            }
        }
        PointsTo {
            iterations: self.iterations,
            constraint_nodes: total,
            constraint_edges: self.total_edges,
            scc_merges: self.scc_merges as usize,
            ..table.finish(self.objects)
        }
    }
}

// ---------------------------------------------------------------------------
// Reference solver (differential-testing oracle)
// ---------------------------------------------------------------------------

/// The historical whole-set fixpoint solver: re-propagates full points-to
/// sets every round. Quadratic on copy chains; kept only as the oracle the
/// delta solver is differentially tested against.
#[cfg(any(test, feature = "reference-solver"))]
pub(super) mod reference {
    use std::collections::BTreeSet;

    use super::*;
    use crate::pointsto::var_index;

    pub(in crate::pointsto) struct Solver<'a> {
        pre: &'a Preprocessed,
        objects: Vec<ObjectKind>,
        field_intern: HashMap<(ObjectId, u64), ObjectId>,
        pts: HashMap<Node, BTreeSet<ObjectId>>,
        /// Simple inclusion edges `src ⊆ dst`, deduplicated at insertion.
        copy_edges: HashMap<Node, Vec<Node>>,
        /// Complex constraints re-evaluated each round.
        loads: Vec<(VarRef, VarRef)>,
        stores: Vec<(VarRef, VarRef)>,
        geps: Vec<(VarRef, VarRef, u64)>,
    }

    impl<'a> Solver<'a> {
        pub(in crate::pointsto) fn new(pre: &'a Preprocessed) -> Self {
            Solver {
                pre,
                objects: Vec::new(),
                field_intern: HashMap::new(),
                pts: HashMap::new(),
                copy_edges: HashMap::new(),
                loads: Vec::new(),
                stores: Vec::new(),
                geps: Vec::new(),
            }
        }

        fn field(&mut self, parent: ObjectId, offset: u64) -> ObjectId {
            if let Some(&f) = self.field_intern.get(&(parent, offset)) {
                return f;
            }
            let f = ObjectId(self.objects.len() as u32);
            self.objects.push(ObjectKind::Field { parent, offset });
            self.field_intern.insert((parent, offset), f);
            f
        }

        fn add_obj(&mut self, n: Node, o: ObjectId) -> bool {
            self.pts.entry(n).or_default().insert(o)
        }

        fn add_copy(&mut self, src: Node, dst: Node) {
            // Deduplicate at insertion: repeated copy constraints used to
            // multiply propagation work for no precision.
            let edges = self.copy_edges.entry(src).or_default();
            if !edges.contains(&dst) {
                edges.push(dst);
            }
        }

        pub(in crate::pointsto) fn run(
            mut self,
            budget: &manta_resilience::Budget,
        ) -> Result<PointsTo, manta_resilience::BudgetExceeded> {
            let constraints = Constraints::collect(self.pre);
            self.objects = constraints.objects;
            for (i, kind) in self.objects.iter().enumerate() {
                if let ObjectKind::Field { parent, offset } = *kind {
                    self.field_intern
                        .insert((parent, offset), ObjectId(i as u32));
                }
            }
            for &(n, o) in &constraints.seeds {
                self.add_obj(n, o);
            }
            for &(s, d) in &constraints.copies {
                self.add_copy(s, d);
            }
            self.loads = constraints.loads;
            self.stores = constraints.stores;
            self.geps = constraints.geps;

            // Fixpoint: propagate along copy edges, then re-derive complex
            // constraints; repeat until stable.
            let mut iterations = 0;
            loop {
                iterations += 1;
                budget.tick()?;
                let mut changed = false;
                // Copy propagation to a local fixpoint.
                loop {
                    budget.tick()?;
                    let mut inner_changed = false;
                    let srcs: Vec<Node> = self.copy_edges.keys().copied().collect();
                    for src in srcs {
                        budget.tick()?;
                        let set = match self.pts.get(&src) {
                            Some(s) if !s.is_empty() => s.clone(),
                            _ => continue,
                        };
                        let dsts = self.copy_edges[&src].clone();
                        for dst in dsts {
                            for &o in &set {
                                if self.add_obj(dst, o) {
                                    inner_changed = true;
                                }
                            }
                        }
                    }
                    if !inner_changed {
                        break;
                    }
                    changed = true;
                }
                // Complex constraints.
                budget.consume((self.geps.len() + self.loads.len() + self.stores.len()) as u64)?;
                for (base, dst, offset) in self.geps.clone() {
                    let bases = self.pts.get(&Node::Var(base)).cloned().unwrap_or_default();
                    for b in bases {
                        let f = self.field(b, offset);
                        if self.add_obj(Node::Var(dst), f) {
                            changed = true;
                        }
                    }
                }
                for (addr, dst) in self.loads.clone() {
                    let addrs = self.pts.get(&Node::Var(addr)).cloned().unwrap_or_default();
                    for o in addrs {
                        let contents = self.pts.get(&Node::Obj(o)).cloned().unwrap_or_default();
                        for c in contents {
                            if self.add_obj(Node::Var(dst), c) {
                                changed = true;
                            }
                        }
                    }
                }
                for (addr, val) in self.stores.clone() {
                    let addrs = self.pts.get(&Node::Var(addr)).cloned().unwrap_or_default();
                    let vals = self.pts.get(&Node::Var(val)).cloned().unwrap_or_default();
                    for o in addrs {
                        for &v in &vals {
                            if self.add_obj(Node::Obj(o), v) {
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // The oracle has no dense arena or SCC machinery; it lays its
            // map out in the delta solver's numbering, one set per node.
            let var_base = var_bases(&self.pre.module);
            let nv = var_base.last().copied().unwrap_or(0);
            let nodes = nv as usize + self.objects.len();
            let len = self.pts.values().map(BTreeSet::len).sum();
            let mut table = Table::new(var_base, nodes, len);
            for (node, set) in &self.pts {
                let n = match *node {
                    Node::Var(v) => var_index(&table.var_base, v),
                    Node::Obj(o) => Some(nv + o.0),
                };
                let Some(n) = n else {
                    unreachable!("every node of the oracle is the module's")
                };
                table.set(n, set.iter().copied());
            }
            Ok(PointsTo {
                iterations,
                ..table.finish(self.objects)
            })
        }
    }
}
