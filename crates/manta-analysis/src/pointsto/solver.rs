//! The delta-propagation solver and the historical whole-set reference
//! solver (the differential-testing oracle).

use std::collections::{BTreeSet, HashMap, VecDeque};

use super::constraints::Constraints;
use super::objset::ObjSet;
use super::{
    Node, ObjectId, ObjectKind, PointsTo, PointsToProvenance, PtsSource, DELTA_SIZES, PEAK_PTS,
};
use crate::preprocess::Preprocessed;
use crate::VarRef;

/// Solver-internal derivation reason over raw dense node ids; resolved
/// to [`PtsSource`] at export.
#[derive(Clone, Copy, Debug)]
enum Origin {
    Seed,
    Copy(u32),
    Field(u32),
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
    vars: Vec<VarRef>,
    var_base: Vec<u32>,
    nv: usize,
    objects: Vec<ObjectKind>,
    field_intern: HashMap<(ObjectId, u64), ObjectId>,
    // Per dense node:
    parent: Vec<u32>,
    pts: Vec<ObjSet>,
    delta: Vec<Vec<u32>>,
    /// Copy successors, sorted and deduplicated at insertion.
    succ: Vec<Vec<u32>>,
    load_dsts: Vec<Vec<u32>>,
    store_vals: Vec<Vec<u32>>,
    geps: Vec<Vec<(u32, u64)>>,
    on_list: Vec<bool>,
    list: VecDeque<u32>,
    iterations: usize,
    edges_since_scc: usize,
    total_edges: usize,
    scc_merges: u64,
    /// `(node, obj)` → first derivation; allocated only when provenance
    /// recording is on, so the off path costs one `Option` check per
    /// newly inserted fact.
    prov: Option<HashMap<(u32, u32), Origin>>,
}

impl<'a> DeltaSolver<'a> {
    pub(super) fn new(pre: &'a Preprocessed) -> Self {
        let module = &pre.module;
        let mut var_base = Vec::with_capacity(module.function_count());
        let mut vars = Vec::new();
        let mut next = 0u32;
        for f in module.functions() {
            var_base.push(next);
            for (v, _) in f.values() {
                vars.push(VarRef::new(f.id(), v));
            }
            next += f.value_count() as u32;
        }
        DeltaSolver {
            pre,
            vars,
            var_base,
            nv: next as usize,
            objects: Vec::new(),
            field_intern: HashMap::new(),
            parent: Vec::new(),
            pts: Vec::new(),
            delta: Vec::new(),
            succ: Vec::new(),
            load_dsts: Vec::new(),
            store_vals: Vec::new(),
            geps: Vec::new(),
            on_list: Vec::new(),
            list: VecDeque::new(),
            iterations: 0,
            edges_since_scc: 0,
            total_edges: 0,
            scc_merges: 0,
            prov: manta_telemetry::provenance_enabled().then(HashMap::new),
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
        self.delta.resize_with(n, Vec::new);
        self.succ.resize_with(n, Vec::new);
        self.load_dsts.resize_with(n, Vec::new);
        self.store_vals.resize_with(n, Vec::new);
        self.geps.resize_with(n, Vec::new);
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
    /// newly inserted fact when provenance recording is on.
    fn add_objs(&mut self, n: u32, objs: &[u32], origin: Origin) {
        let n = self.find(n);
        let mut any = false;
        for &o in objs {
            if self.pts[n as usize].insert(o) {
                self.delta[n as usize].push(o);
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
        if a == b {
            return;
        }
        match self.succ[a as usize].binary_search(&b) {
            Ok(_) => return, // duplicate copy constraint
            Err(at) => self.succ[a as usize].insert(at, b),
        }
        self.edges_since_scc += 1;
        self.total_edges += 1;
        let mut diff = Vec::new();
        self.pts[a as usize].diff_into(&self.pts[b as usize], &mut diff);
        if !diff.is_empty() {
            self.add_objs(b, &diff, Origin::Copy(a));
        }
    }

    /// Merges node `b` into representative `a` (cycle collapse): points-to
    /// sets union, constraint lists concatenate, and the combined delta
    /// covers the symmetric difference plus both pending deltas so every
    /// inherited edge and constraint sees what its side was missing.
    fn merge(&mut self, a: u32, b: u32) {
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
        let mut b_delta = std::mem::take(&mut self.delta[b as usize]);
        self.delta[a as usize].append(&mut b_delta);
        self.delta[a as usize].extend(b_only);
        self.delta[a as usize].extend(a_only);
        let b_succ = std::mem::take(&mut self.succ[b as usize]);
        for s in b_succ {
            match self.succ[a as usize].binary_search(&s) {
                Ok(_) => {}
                Err(at) => self.succ[a as usize].insert(at, s),
            }
        }
        let mut moved = std::mem::take(&mut self.load_dsts[b as usize]);
        self.load_dsts[a as usize].append(&mut moved);
        let mut moved = std::mem::take(&mut self.store_vals[b as usize]);
        self.store_vals[a as usize].append(&mut moved);
        let mut moved = std::mem::take(&mut self.geps[b as usize]);
        self.geps[a as usize].append(&mut moved);
        if !self.delta[a as usize].is_empty() {
            self.enqueue(a);
        }
    }

    /// Collapses every copy-SCC of the current (representative) copy graph
    /// into its minimum member — iterative Tarjan, merges applied after
    /// the pass so the traversal sees a consistent graph.
    fn collapse_sccs(&mut self) {
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
                let succ_at = self.succ[v as usize].get(*pos).copied();
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
                            let mut comp = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w as usize] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            if comp.len() > 1 {
                                components.push(comp);
                            }
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
                self.merge(rep, m);
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

    pub(super) fn run(
        mut self,
        budget: &manta_resilience::Budget,
    ) -> Result<PointsTo, manta_resilience::BudgetExceeded> {
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
        for &(addr, dst) in &constraints.loads {
            let (a, d) = (self.var_node(addr), self.var_node(dst));
            self.load_dsts[a as usize].push(d);
        }
        for &(addr, val) in &constraints.stores {
            let (a, v) = (self.var_node(addr), self.var_node(val));
            self.store_vals[a as usize].push(v);
        }
        for &(base, dst, offset) in &constraints.geps {
            let (b, d) = (self.var_node(base), self.var_node(dst));
            self.geps[b as usize].push((d, offset));
        }
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
        self.collapse_sccs();

        let scc_period = (self.parent.len() / 4).max(256);
        while let Some(n0) = self.list.pop_front() {
            self.iterations += 1;
            budget.tick()?;
            self.on_list[n0 as usize] = false;
            if self.edges_since_scc >= scc_period {
                self.collapse_sccs();
            }
            let n = self.find(n0);
            if n != n0 {
                continue; // merged away; the representative is enqueued
            }
            let mut d = std::mem::take(&mut self.delta[n as usize]);
            if d.is_empty() {
                continue;
            }
            d.sort_unstable();
            d.dedup();
            budget.consume(d.len() as u64)?;
            DELTA_SIZES.record(d.len() as u64);
            // Field derivation: materialize fields under each new object.
            let gep_list = std::mem::take(&mut self.geps[n as usize]);
            for &(dst, offset) in &gep_list {
                for &o in &d {
                    let f = self.field(ObjectId(o), offset);
                    self.add_objs(dst, &[f.0], Origin::Field(o));
                }
            }
            // Processing a node never merges it, so putting the (possibly
            // still-growing at the rep) list back is safe.
            let slot = self.find(n);
            self.geps[slot as usize].extend(gep_list);
            // Load rule: `dst ⊇ *addr` becomes edges obj → dst.
            let load_list = std::mem::take(&mut self.load_dsts[n as usize]);
            for &dst in &load_list {
                for &o in &d {
                    let on = self.obj_node(ObjectId(o));
                    self.add_edge(on, dst);
                }
            }
            let slot = self.find(n);
            self.load_dsts[slot as usize].extend(load_list);
            // Store rule: `*addr ⊇ val` becomes edges val → obj.
            let store_list = std::mem::take(&mut self.store_vals[n as usize]);
            for &val in &store_list {
                for &o in &d {
                    let on = self.obj_node(ObjectId(o));
                    self.add_edge(val, on);
                }
            }
            let slot = self.find(n);
            self.store_vals[slot as usize].extend(store_list);
            // Copy rule: push only the delta to each successor.
            let succ_list = std::mem::take(&mut self.succ[n as usize]);
            for &s in &succ_list {
                let s = self.find(s);
                if s != n {
                    self.add_objs(s, &d, Origin::Copy(n));
                }
            }
            let slot = self.find(n);
            debug_assert_eq!(slot, n, "processing must not merge the node");
            if self.succ[slot as usize].is_empty() {
                self.succ[slot as usize] = succ_list;
            } else {
                // Edges added while processing (via add_edge re-entry on
                // the same rep cannot happen, but merges into `n` can't
                // either; keep the union just in case).
                for s in succ_list {
                    match self.succ[slot as usize].binary_search(&s) {
                        Ok(_) => {}
                        Err(at) => self.succ[slot as usize].insert(at, s),
                    }
                }
            }
        }

        manta_telemetry::counter("pointsto.worklist_iters", self.iterations as u64);
        manta_telemetry::counter("pointsto.objects", self.objects.len() as u64);
        manta_telemetry::counter("pointsto.scc_merges", self.scc_merges);
        let out = self.export();
        manta_telemetry::counter("pointsto.constraint_nodes", out.constraint_nodes as u64);
        manta_telemetry::counter("pointsto.constraint_edges", out.constraint_edges as u64);
        PEAK_PTS.record_max(out.peak_pts as u64);
        Ok(out)
    }

    fn node_of(&self, n: Node) -> u32 {
        match n {
            Node::Var(v) => self.var_node(v),
            Node::Obj(o) => self.obj_node(o),
        }
    }

    /// Materializes the dense solution back into the map-keyed form the
    /// public API serves; every member of a collapsed cycle gets the
    /// representative's (shared) final set.
    fn export(mut self) -> PointsTo {
        let total = self.parent.len();
        let mut pts: HashMap<Node, BTreeSet<ObjectId>> = HashMap::new();
        let mut peak = 0usize;
        for n in 0..total as u32 {
            let rep = self.find(n);
            if self.pts[rep as usize].is_empty() {
                continue;
            }
            let set: BTreeSet<ObjectId> = self.pts[rep as usize].iter().map(ObjectId).collect();
            peak = peak.max(set.len());
            let key = if (n as usize) < self.nv {
                Node::Var(self.vars[n as usize])
            } else {
                Node::Obj(ObjectId(n - self.nv as u32))
            };
            pts.insert(key, set);
        }
        // Resolve raw dense node ids to public references. Every dense
        // node index names a concrete variable or object even after SCC
        // collapse (representatives are cycle members, not synthetics).
        let nv = self.nv;
        let vars = std::mem::take(&mut self.vars);
        let node_key = |raw: u32| -> Node {
            if (raw as usize) < nv {
                Node::Var(vars[raw as usize])
            } else {
                Node::Obj(ObjectId(raw - nv as u32))
            }
        };
        let provenance = self.prov.take().map(|raw| {
            let mut p = PointsToProvenance::default();
            for ((n, o), origin) in raw {
                let source = match origin {
                    Origin::Seed => PtsSource::Seed,
                    Origin::Copy(m) => match node_key(m) {
                        Node::Var(v) => PtsSource::CopiedFromVar(v),
                        Node::Obj(obj) => PtsSource::CopiedFromObj(obj),
                    },
                    Origin::Field(parent) => PtsSource::FieldOf(ObjectId(parent)),
                };
                match node_key(n) {
                    Node::Var(v) => {
                        p.var_origins.insert((v, ObjectId(o)), source);
                    }
                    Node::Obj(obj) => {
                        p.obj_origins.insert((obj, ObjectId(o)), source);
                    }
                }
            }
            p
        });
        PointsTo {
            objects: self.objects,
            field_intern: self.field_intern,
            pts,
            iterations: self.iterations,
            constraint_nodes: total,
            constraint_edges: self.total_edges,
            scc_merges: self.scc_merges as usize,
            peak_pts: peak,
            provenance,
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
    use super::*;

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
            // The oracle has no dense arena or SCC machinery; shape
            // introspection and provenance are delta-solver features.
            let peak = self.pts.values().map(BTreeSet::len).max().unwrap_or(0);
            Ok(PointsTo {
                objects: self.objects,
                field_intern: self.field_intern,
                pts: self.pts,
                iterations,
                constraint_nodes: 0,
                constraint_edges: 0,
                scc_merges: 0,
                peak_pts: peak,
                provenance: None,
            })
        }
    }
}
