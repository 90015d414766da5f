//! Compositional per-function summary cache: precise incremental
//! re-inference after small edits, as a chunk memo inside the engine's
//! one stage loop.
//!
//! ## What is cached, and what is always fresh
//!
//! The hybrid-sensitive cascade splits cleanly into two cost classes.
//! Reveal collection, flow-insensitive unification and classification are
//! cheap *global* passes — they run fresh on every solve. The expensive
//! part is the refinement stages (CS, FS): per-candidate CFL walks that
//! read only frozen inputs (DDG structure, reveals, CFGs, the call graph
//! and the pre-stage result) and produce independent interval updates.
//! The engine runs them as one chunked step, a partition of `V_O` per
//! function; those per-function chunks are what this module caches.
//!
//! ## Invalidation: input fingerprints × recorded footprints
//!
//! Each function `g` gets a per-stage **input fingerprint** `IN(g)`
//! covering everything a walk can observe about `g`: its canonical text,
//! its points-to slice (stable object keys, so renumbering does not
//! invalidate), its incident DDG edges in stable name-hash coordinates,
//! its call-graph adjacency, and the per-value interval slice of the
//! pre-stage result. Each cached chunk records the **footprint** of the
//! walks that produced it — every function whose data was read
//! (`ctx_refine::Footprint`). A chunk is replayed iff every
//! footprint member's current `IN` matches the value recorded at write
//! time; otherwise the chunk recomputes. Because the footprint covers
//! *all* inputs of the walk, replay is bit-identical by construction —
//! no precision allowlist is needed, and the parity suite pins it.
//!
//! This is the verified-cutoff property: after a 1% edit, the re-solve
//! cost is the cheap global passes plus only the chunks whose recorded
//! inputs actually changed. A function whose recomputed inputs hash
//! identically is transitively cut off.
//!
//! ## The chunk memo
//!
//! [`solve`] is the engine's driver loop run with a `Memo` on an
//! unlimited budget, so a summary solve has the same stage spans, fault
//! sites, panic isolation and degradation records as a full one. The
//! memo decodes the previous state and builds the static input
//! fingerprints once per solve. Around each refinement step it computes
//! the stage's input fingerprints, validates footprints sequentially,
//! replays the clean chunks, sends only the dirty ones to the pool with
//! footprint recording on, and records the next state's entries; the
//! driver then commits the merged updates exactly as in a full solve.
//! Chunks are pure functions of the frozen pre-stage result, so the
//! dirty ones go to the pool in one flat `par_map`, in any order.
//!
//! ## What bypasses this path
//!
//! Fuel-limited budgets (a blown budget must trip at the same point the
//! full pipeline would), strict engines, armed fault plans, wall-clock
//! deadlines, provenance-recording engines, and the standalone-FS
//! sensitivity (its alias classes are a global union-find, not
//! per-candidate walks). Degraded results are never persisted, and
//! neither is their summary state.

use std::collections::HashMap;

use manta_analysis::{DepKind, ModuleAnalysis, ObjectKind, VarRef};
use manta_ir::{FuncId, InstId, ValueId};
use manta_resilience::{Budget, BudgetExceeded};
use manta_store::{ByteReader, ByteWriter, DecodeError, Fingerprint, Key};

use crate::cache::{
    bad, config_hash, dec_interval, enc_interval, function_fingerprints, text_hash,
};
use crate::ctx_refine::Footprint;
use crate::engine::{Engine, Refinement};
use crate::interval::TypeInterval;
use crate::{InferenceResult, MantaConfig, Sensitivity, Stage, NONE};

/// Version of the persisted summary-state payload. Folded into every
/// input fingerprint and checked on decode, so a codec change orphans
/// (never misreads) older state. v4 dropped v3's per-function points-to
/// boundary table: each function's static input fingerprint already
/// hashes the points-to set of every value it owns, call results
/// included.
pub const SUMMARY_STATE_VERSION: u32 = 4;

/// The store key holding a module's whole summary state for one config:
/// one mutable entry per `(module name, config)` — edits update it in
/// place rather than orphaning per-fingerprint entries.
#[must_use]
pub fn state_key(module_name: &str, config: &MantaConfig) -> Key {
    Key::new("fsum", text_hash(module_name), config_hash(config, None))
}

/// Whether the summary path supports this sensitivity. Standalone FS
/// builds global alias classes (a module-wide union-find), which the
/// per-function chunk model cannot replay.
#[must_use]
pub fn eligible(sensitivity: Sensitivity) -> bool {
    !matches!(sensitivity, Sensitivity::Fs)
}

/// The persisted tag of a refinement stage's chunks: CS is 0, FS is 1.
fn tag(stage: Stage) -> u8 {
    u8::from(stage == Stage::FlowRefine)
}

// ---------------------------------------------------------------------
// Persisted state
// ---------------------------------------------------------------------

/// One cached refinement chunk: the updates one function's candidate
/// partition produced, plus the recorded read footprint that gates
/// replay. Values are function-local ids — valid whenever the owning
/// function's text fingerprint (part of its `IN`) is unchanged.
#[derive(Clone, Debug, PartialEq)]
struct ChunkEntry {
    /// Index into [`State::footprints`]: the `(name hash, IN at write
    /// time)` list for every function the producing walks read. Always
    /// includes the owner.
    footprint: u32,
    /// Variable-level interval updates, by local value id.
    vars: Vec<(u32, TypeInterval)>,
    /// Site-level interval updates (FS stages only).
    sites: Vec<(u32, u32, TypeInterval)>,
}

/// The whole persisted summary state: per stage, per function (by name
/// hash), the cached chunk. Footprints live in a deduplicated side
/// table — chunks in one call cluster record near-identical read sets,
/// so interning shrinks the payload by the cluster size and lets
/// validation run once per distinct footprint instead of once per
/// chunk.
#[derive(Default, Debug)]
pub(crate) struct State {
    footprints: Vec<Vec<(u64, u64)>>,
    stages: Vec<(u8, Vec<(u64, ChunkEntry)>)>,
}

/// Builds the deduplicated footprint table of the *next* state: every
/// replayed, recomputed and carried-forward chunk re-interns its
/// footprint list here, so the table never accretes dead lists.
#[derive(Default)]
struct FpInterner {
    table: Vec<Vec<(u64, u64)>>,
    index: HashMap<Vec<(u64, u64)>, u32>,
}

impl FpInterner {
    fn intern(&mut self, list: Vec<(u64, u64)>) -> u32 {
        if let Some(&i) = self.index.get(&list) {
            return i;
        }
        let i = self.table.len() as u32;
        self.index.insert(list.clone(), i);
        self.table.push(list);
        i
    }
}

fn encode_state(state: &State) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(SUMMARY_STATE_VERSION);
    w.usize(state.footprints.len());
    for list in &state.footprints {
        w.usize(list.len());
        for (h, fp) in list {
            w.u64(*h).u64(*fp);
        }
    }
    w.usize(state.stages.len());
    for (tag, entries) in &state.stages {
        w.u8(*tag);
        w.usize(entries.len());
        for (nh, e) in entries {
            w.u64(*nh);
            w.u32(e.footprint);
            w.usize(e.vars.len());
            for (v, i) in &e.vars {
                w.u32(*v);
                enc_interval(&mut w, i);
            }
            w.usize(e.sites.len());
            for (v, s, i) in &e.sites {
                w.u32(*v).u32(*s);
                enc_interval(&mut w, i);
            }
        }
    }
    w.finish()
}

/// Decodes a persisted state under the `summary.decode` span; an
/// undecodable one counts `summary.state_corrupt`.
pub(crate) fn decode_prev(payload: &[u8]) -> Result<State, DecodeError> {
    manta_telemetry::span!("summary.decode");
    decode_state(payload).inspect_err(|_| manta_telemetry::counter("summary.state_corrupt", 1))
}

fn decode_state(payload: &[u8]) -> Result<State, DecodeError> {
    let mut r = ByteReader::new(payload);
    if r.u32("summary version")? != SUMMARY_STATE_VERSION {
        return Err(bad("summary version"));
    }
    let n_fps = r.len("summary footprints")?;
    let mut footprints = Vec::with_capacity(n_fps.min(4096));
    for _ in 0..n_fps {
        let nf = r.len("summary footprint")?;
        let mut list = Vec::with_capacity(nf.min(4096));
        for _ in 0..nf {
            list.push((r.u64("footprint name")?, r.u64("footprint fp")?));
        }
        footprints.push(list);
    }
    let n_stages = r.len("summary stages")?;
    let mut stages = Vec::with_capacity(n_stages.min(4));
    for _ in 0..n_stages {
        let tag = r.u8("summary stage tag")?;
        if tag > 1 {
            return Err(bad("summary stage tag"));
        }
        let n = r.len("summary entries")?;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let nh = r.u64("summary name hash")?;
            let footprint = r.u32("summary footprint ref")?;
            if footprint as usize >= footprints.len() {
                return Err(bad("summary footprint ref"));
            }
            let nv = r.len("summary vars")?;
            let mut vars = Vec::with_capacity(nv.min(4096));
            for _ in 0..nv {
                vars.push((r.u32("summary var")?, dec_interval(&mut r)?));
            }
            let ns = r.len("summary sites")?;
            let mut sites = Vec::with_capacity(ns.min(4096));
            for _ in 0..ns {
                sites.push((
                    r.u32("summary site var")?,
                    r.u32("summary site inst")?,
                    dec_interval(&mut r)?,
                ));
            }
            entries.push((
                nh,
                ChunkEntry {
                    footprint,
                    vars,
                    sites,
                },
            ));
        }
        stages.push((tag, entries));
    }
    r.expect_end("summary state")?;
    Ok(State { footprints, stages })
}

// ---------------------------------------------------------------------
// Input fingerprints
// ---------------------------------------------------------------------

/// Per-function input-fingerprint machinery. The *static* part (text,
/// points-to slice, DDG slice, call-graph adjacency, extern signatures)
/// is computed once per solve; [`Inputs::stage_fps`] folds in the
/// per-value interval slice of the live result at each stage entry.
struct Inputs {
    name_hash: Vec<u64>,
    by_name: HashMap<u64, FuncId>,
    static_fp: Vec<u64>,
}

impl Inputs {
    fn new(analysis: &ModuleAnalysis, text_fps: &[u64]) -> Inputs {
        let module = analysis.module();
        let name_hash: Vec<u64> = module.functions().map(|f| text_hash(f.name())).collect();
        let by_name: HashMap<u64, FuncId> = module
            .functions()
            .map(|f| (name_hash[f.id().index()], f.id()))
            .collect();

        // Extern signatures feed reveal rules without appearing in any
        // function's canonical text, so they fold into every IN: an
        // extern-sig edit soundly invalidates everything.
        let mut eh = Fingerprint::new();
        eh.write_u64(u64::from(SUMMARY_STATE_VERSION));
        for decl in module.externs() {
            eh.write_str(&decl.name);
            eh.write_usize(decl.param_widths.len());
            for w in &decl.param_widths {
                eh.write_u64(u64::from(w.bits()));
            }
            eh.write_u64(decl.ret_width.map(|w| u64::from(w.bits())).unwrap_or(0));
            eh.write_str(&format!("{:?}", decl.sig));
            eh.write_str(&format!("{:?}", decl.effect));
        }
        let extern_digest = eh.finish();

        let obj_keys = stable_object_keys(analysis, &name_hash);
        let ddg = &analysis.ddg;
        let pts = &analysis.pointsto;
        let cg = &analysis.callgraph;

        let mut static_fp = Vec::with_capacity(name_hash.len());
        // Arith edges hash their operator via its Debug text; memoized
        // per distinct operator, not per edge.
        let mut op_hash: HashMap<manta_ir::BinOp, u64> = HashMap::new();
        for func in module.functions() {
            let fid = func.id();
            let mut h = Fingerprint::new();
            h.write_u64(u64::from(SUMMARY_STATE_VERSION));
            h.write_u64(extern_digest);
            h.write_u64(text_fps[fid.index()]);

            // Points-to slice: per value, the sorted stable object keys.
            for (value, _) in func.values() {
                let v = VarRef::new(fid, value);
                let mut ks: Vec<u64> = pts.pts_var(v).iter().map(|o| obj_keys[o.index()]).collect();
                ks.sort_unstable();
                h.write_u64(u64::from(value.0));
                h.write_usize(ks.len());
                for k in ks {
                    h.write_u64(k);
                }
            }

            // DDG slice: every edge incident to this function's nodes, in
            // stable coordinates. Hashes are sorted so adjacency-list
            // construction order (which can shift when *other* functions
            // change) cannot perturb the fingerprint.
            for (value, _) in func.values() {
                let n = ddg.node(VarRef::new(fid, value));
                let mut es: Vec<u64> = Vec::new();
                for &(other, kind) in ddg.children(n) {
                    es.push(edge_hash(0, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                for &(other, kind) in ddg.parents(n) {
                    es.push(edge_hash(1, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                es.sort_unstable();
                h.write_u64(u64::from(value.0));
                h.write_usize(es.len());
                for e in es {
                    h.write_u64(e);
                }
            }

            // Call-graph adjacency: both directions, with sites. Needed
            // beyond the DDG slice because e.g. a new zero-argument call
            // edge changes the FS caller crossing without adding any DDG
            // edge.
            let mut es: Vec<u64> = Vec::new();
            for e in cg.callees(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(0)
                    .write_u64(name_hash[e.callee.index()])
                    .write_u64(u64::from(e.site.0));
                es.push(eh.finish());
            }
            for e in cg.callers(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(1)
                    .write_u64(name_hash[e.caller.index()])
                    .write_u64(u64::from(e.site.0));
                es.push(eh.finish());
            }
            es.sort_unstable();
            h.write_usize(es.len());
            for e in es {
                h.write_u64(e);
            }

            static_fp.push(h.finish());
        }

        Inputs {
            name_hash,
            by_name,
            static_fp,
        }
    }

    /// The per-function input fingerprints at one stage entry: the
    /// static part plus the current per-value interval slice (the only
    /// live input the walks read), read off each function's contiguous
    /// slots.
    fn stage_fps(&self, analysis: &ModuleAnalysis, result: &InferenceResult) -> Vec<u64> {
        let module = analysis.module();
        let mut out = Vec::with_capacity(self.static_fp.len());
        for func in module.functions() {
            let fid = func.id();
            let slots = result.vars.slots(fid);
            debug_assert_eq!(slots.len(), func.value_count());
            let mut w = ByteWriter::new();
            for &entry in &result.slot[slots] {
                if entry == NONE {
                    w.u8(0);
                } else {
                    w.u8(1);
                    enc_interval(&mut w, &result.intervals[entry as usize]);
                }
            }
            let mut h = Fingerprint::new();
            h.write_u64(self.static_fp[fid.index()]);
            h.write(&w.finish());
            out.push(h.finish());
        }
        out
    }
}

/// Content-stable keys for abstract objects: allocation coordinates in
/// name-hash space, recursively for fields — so an edit elsewhere that
/// renumbers `ObjectId`s does not invalidate an untouched function's
/// points-to slice.
fn stable_object_keys(analysis: &ModuleAnalysis, name_hash: &[u64]) -> Vec<u64> {
    let pts = &analysis.pointsto;
    let module = analysis.module();
    let n = pts.object_count();
    let mut keys: Vec<Option<u64>> = vec![None; n];
    fn key_of(
        o: manta_analysis::ObjectId,
        pts: &manta_analysis::PointsTo,
        module: &manta_ir::Module,
        name_hash: &[u64],
        keys: &mut Vec<Option<u64>>,
    ) -> u64 {
        if let Some(k) = keys[o.index()] {
            return k;
        }
        let mut h = Fingerprint::new();
        match pts.object_kind(o) {
            ObjectKind::Stack { func, site, size } => {
                h.write_u64(0)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0))
                    .write_u64(size);
            }
            ObjectKind::Heap { func, site } => {
                h.write_u64(1)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0));
            }
            ObjectKind::Global(g) => {
                h.write_u64(2).write_str(&module.global(g).name);
            }
            ObjectKind::Field { parent, offset } => {
                let pk = key_of(parent, pts, module, name_hash, keys);
                h.write_u64(3).write_u64(pk).write_u64(offset);
            }
            ObjectKind::ExternBuf { func, site } => {
                h.write_u64(4)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0));
            }
        }
        let k = h.finish();
        keys[o.index()] = Some(k);
        k
    }
    for i in 0..n {
        key_of(
            manta_analysis::ObjectId(i as u32),
            pts,
            module,
            name_hash,
            &mut keys,
        );
    }
    keys.into_iter().map(|k| k.unwrap_or(0)).collect()
}

fn edge_hash(
    dir: u64,
    other: VarRef,
    kind: DepKind,
    name_hash: &[u64],
    op_hash: &mut HashMap<manta_ir::BinOp, u64>,
) -> u64 {
    let mut h = Fingerprint::new();
    h.write_u64(dir)
        .write_u64(name_hash[other.func.index()])
        .write_u64(u64::from(other.value.0));
    match kind {
        DepKind::Direct => {
            h.write_u64(0);
        }
        DepKind::Arith { op, operand } => {
            let oh = *op_hash
                .entry(op)
                .or_insert_with(|| text_hash(&format!("{op:?}")));
            h.write_u64(1).write_u64(oh).write_u64(u64::from(operand));
        }
        DepKind::Cmp => {
            h.write_u64(2);
        }
        DepKind::Field => {
            h.write_u64(7);
        }
        // The ObjectId payload labels which object mediated the memory
        // dependency; no traversal reads it, so it stays out of the
        // fingerprint (object renumbering must not invalidate).
        DepKind::Memory(_) => {
            h.write_u64(3);
        }
        DepKind::CallParam(cs) => {
            h.write_u64(4)
                .write_u64(name_hash[cs.caller.index()])
                .write_u64(u64::from(cs.site.0));
        }
        DepKind::CallReturn(cs) => {
            h.write_u64(5)
                .write_u64(name_hash[cs.caller.index()])
                .write_u64(u64::from(cs.site.0));
        }
        DepKind::ExternFlow => {
            h.write_u64(6);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------
// The chunk memo
// ---------------------------------------------------------------------

/// What one summary-mode solve reused and recomputed — the edit-storm
/// test's observability surface.
#[derive(Clone, Debug, Default)]
pub struct SolveReport {
    /// Functions whose cached chunks were replayed, per stage, by name.
    pub reused: Vec<String>,
    /// Functions whose chunks were recomputed, per stage, by name.
    pub recomputed: Vec<String>,
}

/// The summary cache as a memo around the engine's chunked refinement
/// step ([`crate::engine::refine`]): built from the previous state, it
/// replays every chunk whose footprint still validates, recomputes the
/// rest, and accumulates the next state.
pub(crate) struct Memo {
    prev: State,
    inputs: Inputs,
    /// The next state's footprint table, and where each previous
    /// footprint landed in it.
    interner: FpInterner,
    moved: Vec<Option<u32>>,
    next: Vec<(u8, Vec<(u64, ChunkEntry)>)>,
    report: SolveReport,
}

impl Memo {
    /// Starts from the previous state `prev` ([`decode_prev`]; the
    /// default state replays nothing) and builds the static input
    /// fingerprints of `analysis`.
    pub(crate) fn new(analysis: &ModuleAnalysis, prev: State) -> Memo {
        let inputs = {
            manta_telemetry::span!("summary.inputs");
            Inputs::new(analysis, &function_fingerprints(analysis.module()))
        };
        Memo {
            moved: vec![None; prev.footprints.len()],
            prev,
            inputs,
            interner: FpInterner::default(),
            next: Vec::new(),
            report: SolveReport::default(),
        }
    }

    /// Runs one refinement stage's `chunks` (its partitions of `V_O`, in
    /// function order) against the frozen `result`: validates each cached
    /// chunk's footprint, replays the clean ones, sends only the dirty
    /// ones through `run` on the pool with footprint recording on, and
    /// records the next state's entries. Outputs come back in partition
    /// order; nothing is recorded when a dirty chunk fails.
    pub(crate) fn refine(
        &mut self,
        stage: Stage,
        analysis: &ModuleAnalysis,
        result: &InferenceResult,
        chunks: Vec<&[VarRef]>,
        run: impl Fn(&[VarRef], &mut Footprint) -> Result<Refinement, BudgetExceeded> + Sync,
    ) -> Result<Vec<Refinement>, BudgetExceeded> {
        let module = analysis.module();
        let tag = tag(stage);
        let inputs = &self.inputs;
        let in_fps = {
            manta_telemetry::span!("summary.stage_fps");
            inputs.stage_fps(analysis, result)
        };
        // This stage's previous entries, each taken when its function
        // replays or recomputes; the rest carry forward.
        let mut old: Vec<(u64, Option<ChunkEntry>)> =
            match self.prev.stages.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, entries)) => std::mem::take(entries)
                    .into_iter()
                    .map(|(nh, e)| (nh, Some(e)))
                    .collect(),
                None => Vec::new(),
            };

        // Each partition's cached entry when it validates (its updates
        // replay into `outs` right away), `None` when it recomputes.
        let mut plan: Vec<(FuncId, Option<ChunkEntry>)> = Vec::with_capacity(chunks.len());
        let mut outs: Vec<Option<Refinement>> = Vec::with_capacity(chunks.len());
        let mut dirty: Vec<&[VarRef]> = Vec::new();
        {
            manta_telemetry::span!("summary.validate");
            let at: HashMap<u64, usize> = old
                .iter()
                .enumerate()
                .map(|(i, (nh, _))| (*nh, i))
                .collect();
            // Footprint validity memoized per interned list: chunks in
            // one call cluster share a footprint, so each distinct read
            // set is checked once per stage no matter how many chunks
            // cite it.
            let mut fp_ok: Vec<Option<bool>> = vec![None; self.prev.footprints.len()];
            for chunk in chunks {
                let f = chunk[0].func;
                let entry = at
                    .get(&inputs.name_hash[f.index()])
                    .and_then(|&i| old[i].1.take());
                let valid = entry.filter(|e| {
                    let idx = e.footprint as usize;
                    *fp_ok[idx].get_or_insert_with(|| {
                        self.prev.footprints[idx].iter().all(|&(h, fp)| {
                            inputs.by_name.get(&h).map(|g| in_fps[g.index()]) == Some(fp)
                        })
                    })
                });
                let name = module.function(f).name().to_string();
                if valid.is_some() {
                    self.report.reused.push(name);
                } else {
                    self.report.recomputed.push(name);
                    dirty.push(chunk);
                }
                outs.push(valid.as_ref().map(|e| replay(f, e)));
                plan.push((f, valid));
            }
        }
        manta_telemetry::counter("summary.hits", (plan.len() - dirty.len()) as u64);
        manta_telemetry::counter("summary.recomputes", dirty.len() as u64);

        let computed = {
            manta_telemetry::span!("summary.recompute");
            manta_parallel::par_map(dirty, |chunk| {
                let mut fp = Footprint::on(module.function_count());
                let out = run(chunk, &mut fp)?;
                let footprint: Vec<(u64, u64)> = fp
                    .into_funcs()
                    .into_iter()
                    .map(|g| (inputs.name_hash[g.index()], in_fps[g.index()]))
                    .collect();
                Ok((out, footprint))
            })
            .into_iter()
            .collect::<Result<Vec<_>, BudgetExceeded>>()?
        };

        // Sequential bookkeeping: the next state's entries, footprints
        // interned. Replayed and carried entries cite the *previous*
        // footprint table.
        manta_telemetry::span!("summary.record");
        let mut computed = computed.into_iter();
        let mut entries: Vec<(u64, ChunkEntry)> = Vec::with_capacity(old.len().max(plan.len()));
        for ((f, entry), slot) in plan.into_iter().zip(&mut outs) {
            let entry = match entry {
                Some(mut e) => {
                    e.footprint = self.reintern(e.footprint);
                    e
                }
                None => {
                    let Some((out, footprint)) = computed.next() else {
                        unreachable!("one computed chunk per dirty partition");
                    };
                    let e = ChunkEntry {
                        footprint: self.interner.intern(footprint),
                        vars: out
                            .vars
                            .iter()
                            .map(|(v, i)| (v.value.0, i.clone()))
                            .collect(),
                        sites: out
                            .sites
                            .iter()
                            .map(|((v, s), i)| (v.value.0, s.0, i.clone()))
                            .collect(),
                    };
                    *slot = Some(out);
                    e
                }
            };
            entries.push((self.inputs.name_hash[f.index()], entry));
        }
        // Functions that still exist but had no candidates this round
        // keep their entries: a later edit may revive them.
        for (nh, e) in old {
            if let (Some(mut e), true) = (e, self.inputs.by_name.contains_key(&nh)) {
                e.footprint = self.reintern(e.footprint);
                entries.push((nh, e));
            }
        }
        entries.sort_by_key(|(nh, _)| *nh);
        self.next.push((tag, entries));
        Ok(outs.into_iter().flatten().collect())
    }

    /// Where previous footprint `idx` lands in the next state's table.
    fn reintern(&mut self, idx: u32) -> u32 {
        let prev = &self.prev.footprints;
        let interner = &mut self.interner;
        *self.moved[idx as usize].get_or_insert_with(|| interner.intern(prev[idx as usize].clone()))
    }

    /// The encoded next state and the reuse report.
    pub(crate) fn finish(self) -> (Vec<u8>, SolveReport) {
        manta_telemetry::span!("summary.encode");
        let state = State {
            footprints: self.interner.table,
            stages: self.next,
        };
        (encode_state(&state), self.report)
    }
}

/// A cached chunk's updates, in the owning function `f`'s coordinates.
fn replay(f: FuncId, e: &ChunkEntry) -> Refinement {
    let var = |v: u32| VarRef::new(f, ValueId(v));
    Refinement {
        vars: e.vars.iter().map(|(v, i)| (var(*v), i.clone())).collect(),
        sites: e
            .sites
            .iter()
            .map(|(v, s, i)| ((var(*v), InstId(*s)), i.clone()))
            .collect(),
    }
}

/// Runs the cascade in summary mode: the engine's driver loop on an
/// unlimited budget, with refinement chunks replayed from `prev_state`
/// where their recorded footprints validate and recomputed (with
/// footprint recording) otherwise. Returns the result — bit-identical to
/// the full pipeline, degradations included — plus the encoded new
/// state and a reuse report. The state of a degraded result is partial
/// and must not be persisted.
#[must_use]
pub fn solve(
    analysis: &ModuleAnalysis,
    config: &MantaConfig,
    prev_state: Option<&[u8]>,
) -> (InferenceResult, Vec<u8>, SolveReport) {
    let prev = prev_state.and_then(|p| decode_prev(p).ok());
    let mut memo = Memo::new(analysis, prev.unwrap_or_default());
    let result =
        match Engine::new(*config).run_pipeline(analysis, &Budget::unlimited(), Some(&mut memo)) {
            Ok((result, _)) => result,
            Err(_) => unreachable!("non-strict engines convert failures to degradations"),
        };
    let (state, report) = memo.finish();
    (result, state, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::results_identical;
    use crate::Manta;
    use manta_ir::{BinOp, ModuleBuilder, Width};

    fn module(mul: bool) -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("summ");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = if mul {
            cb1.binop(BinOp::Mul, n, n, Width::W64)
        } else {
            cb1.binop(BinOp::Add, n, n, Width::W64)
        };
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let s = cb1.alloca(8);
        cb1.store(s, r1);
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let v = cb2.load(r2, Width::W64);
        let _ = v;
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn summary_solve_matches_full_pipeline_bit_identically() {
        for s in [
            Sensitivity::Fi,
            Sensitivity::FiFs,
            Sensitivity::FiCsFs,
            Sensitivity::FiFsCs,
        ] {
            let analysis = manta_analysis::ModuleAnalysis::build(module(true));
            let config = MantaConfig::with_sensitivity(s);
            let full = Manta::new(config).infer(&analysis);
            let (cold, state, _) = solve(&analysis, &config, None);
            assert!(results_identical(&full, &cold), "{s:?} cold");
            let (warm, _, report) = solve(&analysis, &config, Some(&state));
            assert!(results_identical(&full, &warm), "{s:?} warm");
            assert!(
                report.recomputed.is_empty(),
                "{s:?}: nothing changed, nothing should recompute: {report:?}"
            );
        }
    }

    #[test]
    fn edit_recomputes_only_footprint_dirty_chunks() {
        let config = MantaConfig::full();
        let before = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, state, _) = solve(&before, &config, None);

        let after = manta_analysis::ModuleAnalysis::build(module(false));
        let full = Manta::new(config).infer(&after);
        let (incr, _, report) = solve(&after, &config, Some(&state));
        assert!(results_identical(&full, &incr), "edit parity");
        // `use_ptr` is untouched by the edit and shares no walk inputs
        // with `use_int`'s changed text, so its chunks must replay.
        assert!(
            !report.recomputed.contains(&"use_ptr".to_string()),
            "untouched function recomputed: {report:?}"
        );
    }

    /// `src` returns the address of global `ga` or `gb`; nothing else
    /// differs. Swapping the global changes only the points-to sets
    /// flowing out of `src` — the value ids, DDG edges and every other
    /// function's text stay the same.
    fn pointee_module(first: bool) -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("pointee");
        let ga = mb.global("ga", 16);
        let gb = mb.global("gb", 16);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (src_f, mut sb) = mb.function("src", &[], Some(Width::W64));
        let g = sb.global_addr(if first { ga } else { gb });
        sb.ret(Some(g));
        mb.finish_function(sb);
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = cb1.binop(BinOp::Mul, n, n, Width::W64);
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let s = cb1.alloca(8);
        cb1.store(s, r1);
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let p = cb2.call(src_f, &[], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[p], Some(Width::W64)).unwrap();
        let _ = cb2.load(r2, Width::W64);
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn callee_points_to_edit_recomputes_the_unedited_caller() {
        let config = MantaConfig::full();
        let before = manta_analysis::ModuleAnalysis::build(pointee_module(true));
        let (_, state, cold) = solve(&before, &config, None);
        assert!(
            cold.recomputed.contains(&"use_ptr".to_string()),
            "the caller must own a refinement chunk: {cold:?}"
        );

        let after = manta_analysis::ModuleAnalysis::build(pointee_module(false));
        let caller = |a: &manta_analysis::ModuleAnalysis| {
            let f = a.module().function_by_name("use_ptr").unwrap();
            let text = manta_ir::printer::print_function_canonical(a.module(), f);
            let static_fp = Inputs::new(a, &function_fingerprints(a.module())).static_fp;
            (text, static_fp[f.id().index()])
        };
        let (text_before, fp_before) = caller(&before);
        let (text_after, fp_after) = caller(&after);
        assert_eq!(text_before, text_after, "the caller's text is unedited");
        // The caller's own static input fingerprint hashes the points-to
        // set of every value it owns, call results included, so a callee
        // whose returned set changes dirties its callers directly.
        assert_ne!(fp_before, fp_after, "the call result points elsewhere");

        let (incr, _, report) = solve(&after, &config, Some(&state));
        assert!(
            report.recomputed.contains(&"use_ptr".to_string()),
            "a caller whose call result points elsewhere must recompute: {report:?}"
        );
        let full = Manta::new(config).infer(&after);
        assert!(results_identical(&full, &incr), "edit parity");
    }

    #[test]
    fn corrupt_state_degrades_to_full_recompute() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let full = Manta::new(config).infer(&analysis);
        let (r, _, _) = solve(&analysis, &config, Some(b"garbage"));
        assert!(results_identical(&full, &r));
    }

    #[test]
    fn state_codec_roundtrips() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, state, _) = solve(&analysis, &config, None);
        let decoded = decode_state(&state).unwrap();
        assert_eq!(encode_state(&decoded), state);
    }
}
