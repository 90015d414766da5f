//! The type-provenance graph: *why* the engine believes each type fact.
//!
//! When provenance recording is on ([`EngineBuilder::provenance`]), the
//! staged driver records one [`Fact`] per type-interval change:
//!
//! * **Leaves** are the type-revealing instructions of §4.1 (Table 1):
//!   one fact per [`crate::reveal::Reveal`], carrying the revealing
//!   instruction site and the revealed type as an exact interval.
//! * After every completed **tier stage** (FI, CS, FS — the engine's
//!   completed-tier labels), the driver reads the stage's delta before
//!   committing it to the [`InferenceResult`]: every variable whose
//!   interval the delta changes (and every refined `v@s` site interval)
//!   becomes a fact whose predecessors are the variable's most recent
//!   earlier facts.
//!
//! The result is an append-only DAG — predecessor indices always point
//! at earlier facts — so [`ProvenanceGraph::explain`] can materialize
//! the backward derivation tree of any variable without cycle checks:
//! FS site facts chain to the CS fact they refined, CS facts to the FI
//! fact, FI facts to the reveal leaves that seeded the unification.
//!
//! Points-to propagation is recorded separately (its facts are `n ∋ o`
//! memberships, not intervals): the driver re-solves the substrate's
//! points-to constraints with recording on
//! ([`manta_analysis::PointsTo::derivations`]) and flattens the
//! first-derivation origins into [`PtsDerivation`] records on the same
//! graph, so an explanation can also say *how* a pointer came to point
//! at an object.
//!
//! The graph serializes through the same `manta-store` byte codec as
//! cached inference results and is persisted next to them under a
//! `"prov"` key — a warm cache hit restores the explanation tree
//! without rerunning the cascade.
//!
//! [`EngineBuilder::provenance`]: crate::engine::EngineBuilder::provenance

use std::collections::{BTreeMap, HashMap};

use manta_analysis::{ObjectId, PointsToProvenance, PtsSource, VarRef};
use manta_ir::{ConstKind, InstId, Module, ValueKind};
use manta_store::{ByteReader, ByteWriter, DecodeError};

use crate::cache::{bad, dec_interval, dec_varref, enc_interval, enc_varref, CODEC_VERSION};
use crate::interval::TypeInterval;
use crate::reveal::RevealMap;
use crate::InferenceResult;

/// The tier label of leaf facts (type-revealing instructions). Stage
/// facts use the engine's completed-tier labels: `"FI"`, `"FS"`,
/// `"+CS"`, `"+FS"`.
pub const TIER_REVEAL: &str = "reveal";

/// One node of the provenance DAG: a type fact about `var`, produced by
/// `tier`, optionally anchored at an instruction `site`, with the fact
/// indices it was derived from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fact {
    /// The variable the fact is about.
    pub var: VarRef,
    /// Producing tier: [`TIER_REVEAL`] for leaves, else the stage tier
    /// label (`"FI"`, `"FS"`, `"+CS"`, `"+FS"`).
    pub tier: String,
    /// The anchoring instruction: the revealing site for leaves, the
    /// refined use site `s` for flow-sensitive `v@s` facts, `None` for
    /// variable-level stage facts.
    pub site: Option<InstId>,
    /// The interval this fact established.
    pub interval: TypeInterval,
    /// Indices of the facts this one was derived from (always smaller
    /// than this fact's own index — the graph is append-only).
    pub preds: Vec<u32>,
}

/// What a points-to derivation is about: a variable's or an object's
/// points-to set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PtsTarget {
    /// Membership in a variable's points-to set.
    Var(VarRef),
    /// Membership in an object's (contents') points-to set.
    Obj(ObjectId),
}

/// One points-to membership `target ∋ points_at` and how the solver
/// first derived it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PtsDerivation {
    /// Whose points-to set grew.
    pub target: PtsTarget,
    /// The object it came to point at.
    pub points_at: ObjectId,
    /// The first derivation of the membership.
    pub via: PtsSource,
}

/// The full provenance graph of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct ProvenanceGraph {
    facts: Vec<Fact>,
    by_var: HashMap<VarRef, Vec<u32>>,
    pts: Vec<PtsDerivation>,
}

/// One node of a backward explanation tree (see
/// [`ProvenanceGraph::explain`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExplainNode {
    /// Index of the explained fact in [`ProvenanceGraph::facts`].
    pub fact: u32,
    /// The explanations of its predecessors.
    pub children: Vec<ExplainNode>,
}

impl ProvenanceGraph {
    /// An empty graph.
    pub fn new() -> ProvenanceGraph {
        ProvenanceGraph::default()
    }

    /// All facts, in recording order.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// All points-to derivations, in deterministic (target, object)
    /// order.
    pub fn pts_derivations(&self) -> &[PtsDerivation] {
        &self.pts
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && self.pts.is_empty()
    }

    /// The fact indices recorded for `v`, oldest first.
    pub fn facts_of(&self, v: VarRef) -> &[u32] {
        self.by_var.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of facts per tier label — the graph's shape summary.
    pub fn tier_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.facts {
            *counts.entry(f.tier.clone()).or_insert(0) += 1;
        }
        counts
    }

    fn push_fact(&mut self, fact: Fact) -> u32 {
        let idx = self.facts.len() as u32;
        self.by_var.entry(fact.var).or_default().push(idx);
        self.facts.push(fact);
        idx
    }

    /// Records one leaf fact per type-revealing instruction. Iterates
    /// functions in module order so the graph is deterministic.
    pub fn record_reveals(&mut self, reveals: &RevealMap, module: &Module) {
        for func in module.functions() {
            for r in reveals.in_func(func.id()) {
                self.push_fact(Fact {
                    var: VarRef::new(func.id(), r.value),
                    tier: TIER_REVEAL.to_string(),
                    site: Some(r.site),
                    interval: TypeInterval::exact(r.ty.clone()),
                    preds: Vec::new(),
                });
            }
        }
    }

    /// Records the facts a completed tier stage's delta carries, read
    /// against `current`, the result the delta is about to be committed
    /// to: every variable whose interval the delta changes, then every
    /// `v@s` site interval it changes, each in sorted order. A base
    /// tier's delta is its whole result, committed to an empty one.
    /// Predecessors are the variable's newest earlier fact — or all its
    /// reveal leaves when the stage is the first to type it.
    pub fn record_stage<'a>(
        &mut self,
        tier: &str,
        current: &InferenceResult,
        vars: impl IntoIterator<Item = (&'a VarRef, &'a TypeInterval)>,
        sites: impl IntoIterator<Item = (&'a (VarRef, InstId), &'a TypeInterval)>,
    ) {
        let mut changed: Vec<_> = vars
            .into_iter()
            .filter(|(v, i)| current.var_types.get(v) != Some(i))
            .collect();
        changed.sort_by_key(|(v, _)| **v);
        changed.dedup_by_key(|(v, _)| **v);
        for (&v, interval) in changed {
            let preds = self.derive_preds(v);
            self.push_fact(Fact {
                var: v,
                tier: tier.to_string(),
                site: None,
                interval: interval.clone(),
                preds,
            });
        }

        let mut changed_sites: Vec<_> = sites
            .into_iter()
            .filter(|(k, i)| current.site_types.get(k) != Some(i))
            .collect();
        changed_sites.sort_by_key(|(k, _)| **k);
        changed_sites.dedup_by_key(|(k, _)| **k);
        for (&(v, s), interval) in changed_sites {
            let mut preds = self.derive_preds(v);
            // A reveal at exactly `v@s` is direct evidence for the site
            // fact even when a newer stage fact supersedes it var-wide.
            if let Some(ri) = self.facts_of(v).iter().copied().find(|&i| {
                let f = &self.facts[i as usize];
                f.tier == TIER_REVEAL && f.site == Some(s)
            }) {
                if !preds.contains(&ri) {
                    preds.push(ri);
                }
            }
            self.push_fact(Fact {
                var: v,
                tier: tier.to_string(),
                site: Some(s),
                interval: interval.clone(),
                preds,
            });
        }
    }

    /// The predecessor set for a new fact about `v`: its newest earlier
    /// fact, or all its reveal leaves when only leaves exist.
    fn derive_preds(&self, v: VarRef) -> Vec<u32> {
        let idxs = match self.by_var.get(&v) {
            Some(idxs) if !idxs.is_empty() => idxs,
            _ => return Vec::new(),
        };
        let last = *idxs.last().expect("non-empty");
        if self.facts[last as usize].tier == TIER_REVEAL {
            idxs.clone()
        } else {
            vec![last]
        }
    }

    /// Flattens the points-to solver's first-derivation origins into the
    /// graph, in sorted (deterministic) order.
    pub fn record_pointsto(&mut self, prov: &PointsToProvenance) {
        let mut vars: Vec<(&(VarRef, ObjectId), &PtsSource)> = prov.var_origins.iter().collect();
        vars.sort_by_key(|(k, _)| **k);
        for (&(v, o), &via) in vars {
            self.pts.push(PtsDerivation {
                target: PtsTarget::Var(v),
                points_at: o,
                via,
            });
        }
        let mut objs: Vec<(&(ObjectId, ObjectId), &PtsSource)> = prov.obj_origins.iter().collect();
        objs.sort_by_key(|(k, _)| **k);
        for (&(c, o), &via) in objs {
            self.pts.push(PtsDerivation {
                target: PtsTarget::Obj(c),
                points_at: o,
                via,
            });
        }
    }

    /// The backward explanation tree of `v`'s final type: the newest
    /// fact about `v`, expanded through predecessors down to the reveal
    /// leaves. `None` when the graph holds no fact about `v`.
    pub fn explain(&self, v: VarRef) -> Option<ExplainNode> {
        let &last = self.by_var.get(&v)?.last()?;
        Some(self.expand(last))
    }

    /// The backward explanation tree of `v@s` — the newest fact about
    /// `v` anchored at site `s`, falling back to [`ProvenanceGraph::explain`].
    pub fn explain_at(&self, v: VarRef, s: InstId) -> Option<ExplainNode> {
        let idxs = self.by_var.get(&v)?;
        let at_site = idxs.iter().rev().copied().find(|&i| {
            self.facts[i as usize].site == Some(s) && self.facts[i as usize].tier != TIER_REVEAL
        });
        match at_site {
            Some(i) => Some(self.expand(i)),
            None => self.explain(v),
        }
    }

    fn expand(&self, idx: u32) -> ExplainNode {
        // Predecessor indices are strictly decreasing, so recursion
        // terminates without a visited set.
        let children = self.facts[idx as usize]
            .preds
            .iter()
            .map(|&p| self.expand(p))
            .collect();
        ExplainNode {
            fact: idx,
            children,
        }
    }

    /// Renders the explanation tree of `v` (optionally pinned to site
    /// `s`) as indented text, using the module's printer names
    /// (`p0`/`v3`) for variables.
    pub fn render_explain(&self, module: &Module, v: VarRef, s: Option<InstId>) -> Option<String> {
        let root = match s {
            Some(site) => self.explain_at(v, site)?,
            None => self.explain(v)?,
        };
        let mut out = String::new();
        self.render_node(module, &root, "", true, true, &mut out);
        let mut pts: Vec<&PtsDerivation> = self
            .pts
            .iter()
            .filter(|d| d.target == PtsTarget::Var(v))
            .collect();
        pts.sort_by_key(|d| d.points_at);
        for d in pts {
            out.push_str(&format!(
                "points-to obj{}: {}\n",
                d.points_at.0,
                describe_source(module, d.via)
            ));
        }
        Some(out)
    }

    fn render_node(
        &self,
        module: &Module,
        node: &ExplainNode,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
    ) {
        let f = &self.facts[node.fact as usize];
        let connector = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}└─ ")
        } else {
            format!("{prefix}├─ ")
        };
        let site = f.site.map(|s| format!(" @{s}")).unwrap_or_default();
        out.push_str(&format!(
            "{connector}{} {}{site}: [{}, {}]\n",
            f.tier,
            var_label(module, f.var),
            f.interval.lower,
            f.interval.upper,
        ));
        let child_prefix = if is_root {
            String::new()
        } else if is_last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let n = node.children.len();
        for (i, c) in node.children.iter().enumerate() {
            self.render_node(module, c, &child_prefix, i + 1 == n, false, out);
        }
    }

    /// Serializes the graph with the `manta-store` byte codec (the same
    /// primitives as [`crate::cache::encode_result`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(CODEC_VERSION);
        w.usize(self.facts.len());
        for f in &self.facts {
            enc_varref(&mut w, f.var);
            w.str(&f.tier);
            match f.site {
                Some(s) => {
                    w.u8(1).u32(s.0);
                }
                None => {
                    w.u8(0);
                }
            }
            enc_interval(&mut w, &f.interval);
            w.usize(f.preds.len());
            for &p in &f.preds {
                w.u32(p);
            }
        }
        w.usize(self.pts.len());
        for d in &self.pts {
            match d.target {
                PtsTarget::Var(v) => {
                    w.u8(0);
                    enc_varref(&mut w, v);
                }
                PtsTarget::Obj(o) => {
                    w.u8(1).u32(o.0);
                }
            }
            w.u32(d.points_at.0);
            match d.via {
                PtsSource::Seed => {
                    w.u8(0);
                }
                PtsSource::CopiedFromVar(v) => {
                    w.u8(1);
                    enc_varref(&mut w, v);
                }
                PtsSource::CopiedFromObj(o) => {
                    w.u8(2).u32(o.0);
                }
                PtsSource::FieldOf(o) => {
                    w.u8(3).u32(o.0);
                }
            }
        }
        w.finish()
    }

    /// Decodes a payload written by [`ProvenanceGraph::encode`].
    ///
    /// # Errors
    ///
    /// Any malformed byte — including a predecessor index that does not
    /// point backward — yields a [`DecodeError`]; payloads come from
    /// disk and must never panic.
    pub fn decode(payload: &[u8]) -> Result<ProvenanceGraph, DecodeError> {
        let mut r = ByteReader::new(payload);
        if r.u32("prov version")? != CODEC_VERSION {
            return Err(bad("prov version"));
        }
        let n = r.len("fact count")?;
        let mut graph = ProvenanceGraph::new();
        for idx in 0..n {
            let var = dec_varref(&mut r)?;
            let tier = r.str("fact tier")?.to_string();
            let site = match r.u8("fact site tag")? {
                0 => None,
                1 => Some(InstId(r.u32("fact site")?)),
                _ => return Err(bad("fact site tag")),
            };
            let interval = dec_interval(&mut r)?;
            let np = r.len("pred count")?;
            let mut preds = Vec::with_capacity(np.min(1024));
            for _ in 0..np {
                let p = r.u32("pred index")?;
                if p as usize >= idx {
                    return Err(bad("pred index"));
                }
                preds.push(p);
            }
            graph.push_fact(Fact {
                var,
                tier,
                site,
                interval,
                preds,
            });
        }
        let n = r.len("pts count")?;
        for _ in 0..n {
            let target = match r.u8("pts target tag")? {
                0 => PtsTarget::Var(dec_varref(&mut r)?),
                1 => PtsTarget::Obj(ObjectId(r.u32("pts target obj")?)),
                _ => return Err(bad("pts target tag")),
            };
            let points_at = ObjectId(r.u32("pts object")?);
            let via = match r.u8("pts source tag")? {
                0 => PtsSource::Seed,
                1 => PtsSource::CopiedFromVar(dec_varref(&mut r)?),
                2 => PtsSource::CopiedFromObj(ObjectId(r.u32("pts source obj")?)),
                3 => PtsSource::FieldOf(ObjectId(r.u32("pts parent obj")?)),
                _ => return Err(bad("pts source tag")),
            };
            graph.pts.push(PtsDerivation {
                target,
                points_at,
                via,
            });
        }
        r.expect_end("provenance graph")?;
        Ok(graph)
    }
}

fn describe_source(module: &Module, via: PtsSource) -> String {
    match via {
        PtsSource::Seed => "seeded at its allocation site".to_string(),
        PtsSource::CopiedFromVar(v) => format!("copied from {}", var_label(module, v)),
        PtsSource::CopiedFromObj(o) => format!("copied from the contents of obj{}", o.0),
        PtsSource::FieldOf(o) => format!("materialized as a field of obj{}", o.0),
    }
}

/// The printer-compatible label of `v`: `func:p0` for parameters,
/// `func:v3` for instruction results (numbered in block-traversal
/// order, exactly as `manta_ir::printer` numbers them), constants by
/// their literal.
pub fn var_label(module: &Module, v: VarRef) -> String {
    let func = module.function(v.func);
    let name = func.name();
    match func.value(v.value).kind {
        ValueKind::Param { index } => format!("{name}:p{index}"),
        ValueKind::Inst { .. } => match inst_number(func, v.value) {
            Some(n) => format!("{name}:v{n}"),
            None => format!("{name}:{}", v.value),
        },
        ValueKind::Const(ConstKind::Int(k)) => {
            format!("{name}:{k}:i{}", func.value(v.value).width.bits())
        }
        ValueKind::Const(ConstKind::Float(x)) => {
            format!("{name}:{x:?}:f{}", func.value(v.value).width.bits())
        }
        ValueKind::Const(ConstKind::Null) => format!("{name}:null"),
        ValueKind::Const(ConstKind::Undef) => format!("{name}:undef"),
        ValueKind::GlobalAddr(g) => format!("{name}:g.{}", module.global(g).name),
        ValueKind::FuncAddr(f) => format!("{name}:fn.{}", module.function(f).name()),
    }
}

fn inst_number(func: &manta_ir::Function, v: manta_ir::ValueId) -> Option<usize> {
    let mut n = 0;
    for block in func.blocks() {
        for &i in &block.insts {
            if let Some(d) = func.inst(i).kind.def() {
                if d == v {
                    return Some(n);
                }
                n += 1;
            }
        }
    }
    None
}

/// Resolves a printer-style variable token (`p0`, `v3`) inside the
/// named function — the inverse of [`var_label`], used by the CLI's
/// `explain` command.
pub fn resolve_var(module: &Module, func_name: &str, token: &str) -> Option<VarRef> {
    let func = module.function_by_name(func_name)?;
    if let Some(rest) = token.strip_prefix('p') {
        let index: usize = rest.parse().ok()?;
        let &value = func.params().get(index)?;
        return Some(VarRef::new(func.id(), value));
    }
    if let Some(rest) = token.strip_prefix('v') {
        let want: usize = rest.parse().ok()?;
        let mut n = 0;
        for block in func.blocks() {
            for &i in &block.insts {
                if let Some(d) = func.inst(i).kind.def() {
                    if n == want {
                        return Some(VarRef::new(func.id(), d));
                    }
                    n += 1;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta_ir::{ModuleBuilder, Type, Width};

    fn leaf(var: VarRef, site: u32, t: Type) -> Fact {
        Fact {
            var,
            tier: TIER_REVEAL.to_string(),
            site: Some(InstId(site)),
            interval: TypeInterval::exact(t),
            preds: Vec::new(),
        }
    }

    #[test]
    fn explain_walks_back_to_the_leaves() {
        let v = VarRef::new(manta_ir::FuncId(0), manta_ir::ValueId(0));
        let mut g = ProvenanceGraph::new();
        let a = g.push_fact(leaf(v, 0, Type::Int(Width::W64)));
        let b = g.push_fact(leaf(v, 1, Type::Num(Width::W64)));
        let fi = g.push_fact(Fact {
            var: v,
            tier: "FI".to_string(),
            site: None,
            interval: TypeInterval::exact(Type::Int(Width::W64)),
            preds: vec![a, b],
        });
        let cs = g.push_fact(Fact {
            var: v,
            tier: "+CS".to_string(),
            site: None,
            interval: TypeInterval::exact(Type::Int(Width::W64)),
            preds: vec![fi],
        });
        let tree = g.explain(v).expect("facts exist");
        assert_eq!(tree.fact, cs);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].fact, fi);
        assert_eq!(tree.children[0].children.len(), 2);
    }

    #[test]
    fn codec_roundtrips_and_rejects_forward_preds() {
        let v = VarRef::new(manta_ir::FuncId(2), manta_ir::ValueId(7));
        let mut g = ProvenanceGraph::new();
        let a = g.push_fact(leaf(v, 3, Type::byte_ptr()));
        g.push_fact(Fact {
            var: v,
            tier: "FI".to_string(),
            site: None,
            interval: TypeInterval::exact(Type::byte_ptr()),
            preds: vec![a],
        });
        g.pts.push(PtsDerivation {
            target: PtsTarget::Var(v),
            points_at: ObjectId(4),
            via: PtsSource::FieldOf(ObjectId(1)),
        });
        let bytes = g.encode();
        let back = ProvenanceGraph::decode(&bytes).expect("roundtrip");
        assert_eq!(back.facts(), g.facts());
        assert_eq!(back.pts_derivations(), g.pts_derivations());
        assert_eq!(back.facts_of(v), g.facts_of(v));

        // A pred index pointing at itself (or forward) must be rejected.
        let mut w = ByteWriter::new();
        w.u32(CODEC_VERSION);
        w.usize(1);
        enc_varref(&mut w, v);
        w.str(TIER_REVEAL);
        w.u8(0);
        enc_interval(&mut w, &TypeInterval::exact(Type::Float));
        w.usize(1);
        w.u32(0); // pred 0 of fact 0: self-reference
        w.usize(0);
        assert!(ProvenanceGraph::decode(&w.finish()).is_err());
    }

    #[test]
    fn resolve_and_label_are_inverse_on_printer_names() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let a = fb.load(p, Width::W64);
        let b = fb.load(a, Width::W64);
        fb.ret(Some(b));
        mb.finish_function(fb);
        let module = mb.finish();

        let pv = resolve_var(&module, "f", "p0").expect("p0");
        assert_eq!(pv, VarRef::new(fid, p));
        assert_eq!(var_label(&module, pv), "f:p0");
        let v1 = resolve_var(&module, "f", "v1").expect("v1");
        assert_eq!(v1, VarRef::new(fid, b));
        assert_eq!(var_label(&module, v1), "f:v1");
        assert!(resolve_var(&module, "f", "v9").is_none());
        assert!(resolve_var(&module, "g", "p0").is_none());
    }
}
