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
//! footprint member still exists and their current `IN`s hash to the
//! combined value recorded at write time; otherwise the chunk
//! recomputes. Because the footprint covers
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
//! memo parses the previous state's tables once per solve and builds the
//! static input fingerprints from the per-function text fingerprints the
//! module key already computed. Around each refinement step it computes
//! the stage's input fingerprints, validates footprints sequentially,
//! sends only the dirty chunks to the pool with footprint recording on,
//! and then, in partition order, decodes each clean chunk's cached
//! updates straight into the stage's delta and records the next state's
//! entries; the engine loop then commits the delta exactly as in a full
//! solve. Chunks are pure functions of the frozen pre-stage result, so
//! the dirty ones go to the pool in one flat `par_map_with`, in any
//! order, each worker reusing one walk scratch and one footprint buffer.
//!
//! A replayed or carried chunk moves into the next state as the bytes it
//! was read as, citing its footprint list by index; only the dirty
//! chunks are encoded, and only their footprints interned.
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
use std::ops::Range;

use manta_analysis::{DepKind, ModuleAnalysis, ObjectKind, VarRef};
use manta_ir::{FuncId, Function, InstId, ValueId};
use manta_resilience::{Budget, BudgetExceeded};
use manta_store::{ByteReader, ByteWriter, DecodeError, Fingerprint, Key};

use crate::cache::{
    bad, config_hash, dec_interval, enc_interval, function_fingerprints, text_hash, AnalysisCache,
};
use crate::ctx_refine::Footprint;
use crate::engine::{Engine, Refinement};
use crate::{InferenceResult, MantaConfig, Sensitivity, Stage, NONE};

/// Version of the persisted summary-state payload. Folded into every
/// input fingerprint and checked on decode, so a codec change orphans
/// (never misreads) older state. v5 names functions by index into a
/// per-state function table, stores footprint members as runs of those
/// indices under one combined hash of their `IN`s, and keeps each
/// stage's chunk bodies in one blob that replay copies as bytes.
pub const SUMMARY_STATE_VERSION: u32 = 5;

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
//
// The v5 payload, little-endian throughout:
//
//   u32 version
//   u32 n, n × u64               function table: name hashes
//   u32 n, then per list:        footprint lists
//       u64 combined IN hash, u32 k, k × (u32 first, u32 len)
//   u8 n, then per stage:
//       u8 tag, u32 m, m × (u32 owner, u32 list, u32 end),
//       u64 b, b bytes of chunk bodies
//
// A list's members are the function-table indices its runs cover, in
// order. Entries ascend by owner (a function-table index); an entry's
// body is `bodies[previous end..end]`: u32 n, n × (u32 value, interval),
// then u32 n, n × (u32 value, u32 inst, interval).

/// A previous state: its payload and the tables parsed out of it. Chunk
/// bodies stay bytes until their chunk replays.
#[derive(Default)]
pub(crate) struct State {
    payload: Vec<u8>,
    layout: Layout,
}

/// The parsed tables of a state payload.
#[derive(Default)]
struct Layout {
    /// The function table: each function's name hash.
    funcs: Vec<u64>,
    lists: Vec<List>,
    /// Every list's runs of consecutive function-table indices.
    runs: Vec<(u32, u32)>,
    /// Per refinement stage, its tag and cached chunks.
    stages: Vec<(u8, Vec<Entry>)>,
}

/// A footprint list: the combined hash ([`list_hash`]) of its members'
/// `IN`s at write time, and its runs.
struct List {
    hash: u64,
    runs: Range<usize>,
}

/// One cached refinement chunk: the function whose candidate partition
/// produced it, the footprint list of every function its walks read
/// (always including the owner), and where its encoded updates lie in
/// the payload. Values are function-local ids, valid whenever the
/// owner's text fingerprint (part of its `IN`) is unchanged.
#[derive(Clone)]
struct Entry {
    owner: u32,
    list: u32,
    body: Range<usize>,
}

impl Layout {
    /// Function-table indices of list `list`'s members, in order.
    fn members(&self, list: u32) -> impl Iterator<Item = usize> + '_ {
        let runs = self.lists[list as usize].runs.clone();
        self.runs[runs]
            .iter()
            .flat_map(|&(first, len)| first as usize..(first + len) as usize)
    }
}

/// The combined hash a footprint list records: its members' `IN`s, in
/// list order.
fn list_hash(ins: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fingerprint::new();
    for i in ins {
        h.write_u64(i);
    }
    h.finish()
}

/// Reads the previous state under the `summary.decode` span, with its
/// read the nested `store.get`. An undecodable state is discarded as
/// store corruption and counts `summary.state_corrupt`.
pub(crate) fn load(cache: &AnalysisCache, key: &Key) -> Option<State> {
    manta_telemetry::span!("summary.decode");
    cache
        .get_decoded(key, parse)
        .map(|(layout, payload)| State { payload, layout })
}

/// Parses a state payload's tables, counting `summary.state_corrupt` when
/// it is not a v5 state.
fn parse(payload: &[u8]) -> Result<Layout, DecodeError> {
    parse_layout(payload).inspect_err(|_| manta_telemetry::counter("summary.state_corrupt", 1))
}

fn parse_layout(payload: &[u8]) -> Result<Layout, DecodeError> {
    // No table is allocated for more entries than the payload could hold.
    let fits = |n: u32, bytes: usize| (n as usize).min(payload.len() / bytes);
    let mut r = ByteReader::new(payload);
    if r.u32("summary version")? != SUMMARY_STATE_VERSION {
        return Err(bad("summary version"));
    }
    let n = r.u32("summary functions")?;
    let mut funcs = Vec::with_capacity(fits(n, 8));
    for _ in 0..n {
        funcs.push(r.u64("summary function")?);
    }
    let n = r.u32("summary lists")?;
    let mut lists = Vec::with_capacity(fits(n, 12));
    let mut runs = Vec::new();
    for _ in 0..n {
        let hash = r.u64("summary list hash")?;
        let start = runs.len();
        for _ in 0..r.u32("summary list runs")? {
            let (first, len) = (r.u32("summary run")?, r.u32("summary run")?);
            if u64::from(first) + u64::from(len) > funcs.len() as u64 {
                return Err(bad("summary run"));
            }
            runs.push((first, len));
        }
        lists.push(List {
            hash,
            runs: start..runs.len(),
        });
    }
    let mut stages: Vec<(u8, Vec<Entry>)> = Vec::new();
    for _ in 0..r.u8("summary stages")? {
        let tag = r.u8("summary stage tag")?;
        if tag > 1 || stages.iter().any(|(t, _)| *t == tag) {
            return Err(bad("summary stage tag"));
        }
        let n = r.u32("summary entries")?;
        let mut entries: Vec<Entry> = Vec::with_capacity(fits(n, 12));
        let mut start = 0;
        for _ in 0..n {
            let owner = r.u32("summary owner")?;
            let list = r.u32("summary list ref")?;
            let end = r.u32("summary body end")? as usize;
            let ascending = entries.last().is_none_or(|e| e.owner < owner);
            if !ascending || owner as usize >= funcs.len() {
                return Err(bad("summary owner"));
            }
            if list as usize >= lists.len() || end < start {
                return Err(bad("summary entry"));
            }
            entries.push(Entry {
                owner,
                list,
                body: start..end,
            });
            start = end;
        }
        let bodies = r.bytes("summary bodies")?;
        if bodies.len() != start {
            return Err(bad("summary bodies"));
        }
        let base = r.position() - bodies.len();
        for e in &mut entries {
            e.body = base + e.body.start..base + e.body.end;
        }
        stages.push((tag, entries));
    }
    r.expect_end("summary state")?;
    Ok(Layout {
        funcs,
        lists,
        runs,
        stages,
    })
}

/// Decodes one cached chunk body onto `delta`, in its owner `func`'s
/// coordinates. A body that names a value `func` lacks is corrupt.
fn decode_body(body: &[u8], func: &Function, delta: &mut Refinement) -> Result<(), DecodeError> {
    let var = |v: u32| {
        ((v as usize) < func.value_count())
            .then(|| VarRef::new(func.id(), ValueId(v)))
            .ok_or(bad("summary value"))
    };
    let mut r = ByteReader::new(body);
    for _ in 0..r.u32("summary vars")? {
        let v = var(r.u32("summary var")?)?;
        delta.vars.push((v, dec_interval(&mut r)?));
    }
    for _ in 0..r.u32("summary sites")? {
        let v = var(r.u32("summary site var")?)?;
        let s = InstId(r.u32("summary site inst")?);
        delta.sites.push(((v, s), dec_interval(&mut r)?));
    }
    r.expect_end("summary chunk")
}

/// Encodes a recomputed chunk's updates as a body [`decode_body`] reads.
fn encode_body(w: &mut ByteWriter, out: &Refinement) {
    w.u32(out.vars.len() as u32);
    for (v, i) in &out.vars {
        w.u32(v.value.0);
        enc_interval(w, i);
    }
    w.u32(out.sites.len() as u32);
    for ((v, s), i) in &out.sites {
        w.u32(v.value.0).u32(s.0);
        enc_interval(w, i);
    }
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
    static_fp: Vec<u64>,
}

impl Inputs {
    /// The static input fingerprints of `analysis`'s functions, from
    /// their text fingerprints `text_fps` (in id order).
    fn new(analysis: &ModuleAnalysis, text_fps: &[u64]) -> Inputs {
        let module = analysis.module();
        let name_hash: Vec<u64> = module.functions().map(|f| text_hash(f.name())).collect();

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
        let cg = &analysis.callgraph;

        let mut static_fp = Vec::with_capacity(name_hash.len());
        // Arith edges hash their operator via its Debug text; memoized
        // per distinct operator, not per edge.
        let mut op_hash: HashMap<manta_ir::BinOp, u64> = HashMap::new();
        // One scratch list of hashes, sorted before each fold so that
        // construction order cannot perturb a fingerprint.
        let mut keys: Vec<u64> = Vec::new();
        let fold = |h: &mut Fingerprint, keys: &mut Vec<u64>| {
            keys.sort_unstable();
            h.write_usize(keys.len());
            for &k in keys.iter() {
                h.write_u64(k);
            }
            keys.clear();
        };
        for func in module.functions() {
            let fid = func.id();
            let mut h = Fingerprint::new();
            h.write_u64(u64::from(SUMMARY_STATE_VERSION));
            h.write_u64(extern_digest);
            h.write_u64(text_fps[fid.index()]);

            // Points-to slice: per value, the stable object keys.
            for (value, _) in func.values() {
                let set = analysis.pointsto.pts_var(VarRef::new(fid, value));
                keys.extend(set.iter().map(|o| obj_keys[o.index()]));
                h.write_u64(u64::from(value.0));
                fold(&mut h, &mut keys);
            }

            // DDG slice: every edge incident to this function's nodes, in
            // stable coordinates; adjacency-list order can shift when
            // *other* functions change.
            for (value, _) in func.values() {
                let n = ddg.node(VarRef::new(fid, value));
                for &(other, kind) in ddg.children(n) {
                    keys.push(edge_hash(0, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                for &(other, kind) in ddg.parents(n) {
                    keys.push(edge_hash(1, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                h.write_u64(u64::from(value.0));
                fold(&mut h, &mut keys);
            }

            // Call-graph adjacency: both directions, with sites. Needed
            // beyond the DDG slice because e.g. a new zero-argument call
            // edge changes the FS caller crossing without adding any DDG
            // edge.
            for e in cg.callees(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(0)
                    .write_u64(name_hash[e.callee.index()])
                    .write_u64(u64::from(e.site.0));
                keys.push(eh.finish());
            }
            for e in cg.callers(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(1)
                    .write_u64(name_hash[e.caller.index()])
                    .write_u64(u64::from(e.site.0));
                keys.push(eh.finish());
            }
            fold(&mut h, &mut keys);

            static_fp.push(h.finish());
        }

        Inputs {
            name_hash,
            static_fp,
        }
    }

    /// The per-function input fingerprints at one stage entry: the
    /// static part plus the current per-value interval slice (the only
    /// live input the walks read), read off each function's contiguous
    /// slots. Every function's slice is encoded into one buffer, per
    /// value a 0 byte or a 1 byte and the interval, and hashed from it.
    fn stage_fps(&self, analysis: &ModuleAnalysis, result: &InferenceResult) -> Vec<u64> {
        let module = analysis.module();
        let mut w = ByteWriter::new();
        let mut ends = Vec::with_capacity(self.static_fp.len());
        for func in module.functions() {
            let slots = result.vars.slots(func.id());
            debug_assert_eq!(slots.len(), func.value_count());
            for &entry in &result.slot[slots] {
                if entry == NONE {
                    w.u8(0);
                } else {
                    w.u8(1);
                    enc_interval(&mut w, &result.intervals[entry as usize]);
                }
            }
            ends.push(w.len());
        }
        let bytes = w.finish();
        let mut start = 0;
        ends.into_iter()
            .zip(&self.static_fp)
            .map(|(end, &static_fp)| {
                let mut h = Fingerprint::new();
                h.write_u64(static_fp).write(&bytes[start..end]);
                start = end;
                h.finish()
            })
            .collect()
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
    /// Each previous function-table index's function in this module.
    prev_func: Vec<Option<FuncId>>,
    next: Next,
    /// Each partition's function and whether it replayed, in solve order.
    outcomes: Vec<(FuncId, bool)>,
}

/// The next state as it accumulates.
#[derive(Default)]
struct Next {
    /// Its footprint lists: previous ones by index, new ones by content.
    lists: Vec<NextList>,
    /// Where each previous list landed in `lists`.
    moved: Vec<Option<u32>>,
    /// New lists by combined hash.
    new_by_hash: HashMap<u64, u32>,
    /// Per stage, its tag and entries.
    stages: Vec<(u8, Vec<NextEntry>)>,
    /// The recomputed chunks' bodies, back to back.
    bodies: ByteWriter,
}

enum NextList {
    Prev(u32),
    New { hash: u64, members: Vec<FuncId> },
}

/// A chunk of the next state: its owner (this module's function, whose
/// index it keeps in the next function table), footprint list, and body.
struct NextEntry {
    owner: FuncId,
    list: u32,
    body: Body,
}

/// Where a next-state chunk body's bytes lie.
enum Body {
    /// In the previous payload: a replayed or carried chunk.
    Prev(Range<usize>),
    /// In [`Next::bodies`]: a recomputed chunk.
    New(Range<usize>),
}

impl Memo {
    /// Starts from the previous state `prev` ([`load`]; `None` replays
    /// nothing) and builds the static input fingerprints of `analysis`
    /// from its per-function text fingerprints `text_fps`.
    pub(crate) fn new(analysis: &ModuleAnalysis, prev: Option<State>, text_fps: &[u64]) -> Memo {
        let inputs = {
            manta_telemetry::span!("summary.inputs");
            Inputs::new(analysis, text_fps)
        };
        let prev = prev.unwrap_or_default();
        let prev_func = map_by_name(&prev.layout.funcs, &inputs.name_hash);
        Memo {
            next: Next {
                moved: vec![None; prev.layout.lists.len()],
                ..Next::default()
            },
            prev,
            inputs,
            prev_func,
            outcomes: Vec::new(),
        }
    }

    /// Runs one refinement stage's `chunks` (its partitions of `V_O`, in
    /// function order) against the frozen `result`: validates each cached
    /// chunk's footprint, sends only the dirty chunks through `run` on the
    /// pool with footprint recording on, each worker reusing one scratch
    /// from `init` and one footprint, then merges the clean chunks'
    /// cached updates and the dirty chunks' fresh ones into the stage's
    /// delta in partition order, recording the next state's entries.
    /// Nothing is recorded when a dirty chunk fails.
    pub(crate) fn refine<S>(
        &mut self,
        stage: Stage,
        analysis: &ModuleAnalysis,
        result: &InferenceResult,
        chunks: Vec<&[VarRef]>,
        init: impl Fn() -> S + Sync,
        run: impl Fn(&mut S, &[VarRef], &mut Footprint) -> Result<Refinement, BudgetExceeded> + Sync,
    ) -> Result<Refinement, BudgetExceeded> {
        let module = analysis.module();
        let tag = tag(stage);
        let in_fps = {
            manta_telemetry::span!("summary.stage_fps");
            self.inputs.stage_fps(analysis, result)
        };
        // This stage's previous entries by owning function; each is taken
        // when its function replays or recomputes, and the rest carry
        // forward.
        let mut cached: Vec<Option<Entry>> = vec![None; module.function_count()];
        if let Some((_, entries)) = self.prev.layout.stages.iter().find(|(t, _)| *t == tag) {
            for e in entries {
                if let Some(g) = self.prev_func[e.owner as usize] {
                    cached[g.index()] = Some(e.clone());
                }
            }
        }

        // Each partition's cached entry when its footprint validates,
        // `None` when it recomputes.
        let mut plan: Vec<Option<Entry>> = Vec::with_capacity(chunks.len());
        let mut dirty: Vec<&[VarRef]> = Vec::new();
        {
            manta_telemetry::span!("summary.validate");
            // Validity memoized per list: chunks in one call cluster share
            // a footprint, so each distinct read set is checked once per
            // stage no matter how many chunks cite it.
            let mut valid: Vec<Option<bool>> = vec![None; self.prev.layout.lists.len()];
            for chunk in &chunks {
                let entry = cached[chunk[0].func.index()].take().filter(|e| {
                    *valid[e.list as usize].get_or_insert_with(|| self.validates(e.list, &in_fps))
                });
                if entry.is_none() {
                    dirty.push(chunk);
                }
                plan.push(entry);
            }
        }

        let init = || (init(), Footprint::on(module.function_count()));
        let recompute = |(scratch, fp): &mut (S, Footprint),
                         chunk: &[VarRef]|
         -> Result<(Refinement, Vec<FuncId>), BudgetExceeded> {
            fp.reset();
            let out = run(scratch, chunk, fp)?;
            Ok((out, fp.funcs()))
        };
        let computed = {
            manta_telemetry::span!("summary.recompute");
            manta_parallel::par_map_with(dirty, init, recompute)
                .into_iter()
                .collect::<Result<Vec<_>, BudgetExceeded>>()?
        };

        manta_telemetry::span!("summary.record");
        let mut delta = Refinement {
            vars: Vec::with_capacity(chunks.iter().map(|c| c.len()).sum()),
            sites: Vec::new(),
        };
        let mut entries: Vec<NextEntry> = Vec::with_capacity(chunks.len());
        let mut computed = computed.into_iter();
        let mut replayed = 0u64;
        for (chunk, entry) in chunks.iter().zip(plan) {
            let f = module.function(chunk[0].func);
            let (out, members) = match entry {
                Some(e) if self.replay(&e, f, &mut delta) => {
                    let list = self.next.reuse(e.list);
                    entries.push(NextEntry {
                        owner: f.id(),
                        list,
                        body: Body::Prev(e.body),
                    });
                    self.outcomes.push((f.id(), true));
                    replayed += 1;
                    continue;
                }
                // A cached body that does not decode recomputes here.
                Some(_) => recompute(&mut init(), chunk)?,
                None => computed
                    .next()
                    .expect("one computed chunk per dirty partition"),
            };
            let list = self.intern(members, &in_fps);
            let start = self.next.bodies.len();
            encode_body(&mut self.next.bodies, &out);
            entries.push(NextEntry {
                owner: f.id(),
                list,
                body: Body::New(start..self.next.bodies.len()),
            });
            self.outcomes.push((f.id(), false));
            delta.vars.extend(out.vars);
            delta.sites.extend(out.sites);
        }
        manta_telemetry::counter("summary.hits", replayed);
        manta_telemetry::counter("summary.recomputes", chunks.len() as u64 - replayed);
        // Functions that still exist but had no candidates this round
        // keep their entries: a later edit may revive them.
        for (g, e) in cached.into_iter().enumerate() {
            if let Some(e) = e {
                let list = self.next.reuse(e.list);
                entries.push(NextEntry {
                    owner: FuncId(g as u32),
                    list,
                    body: Body::Prev(e.body),
                });
            }
        }
        entries.sort_unstable_by_key(|e| e.owner);
        self.next.stages.push((tag, entries));
        Ok(delta)
    }

    /// Whether previous list `list` still holds: every member is a
    /// function of this module, and their `IN`s now hash to the recorded
    /// combined hash.
    fn validates(&self, list: u32, in_fps: &[u64]) -> bool {
        let mut present = true;
        let ins = self.prev.layout.members(list).map_while(|m| {
            let g = self.prev_func[m];
            present &= g.is_some();
            g.map(|g| in_fps[g.index()])
        });
        let hash = list_hash(ins);
        present && hash == self.prev.layout.lists[list as usize].hash
    }

    /// Decodes cached entry `e`'s updates onto `delta` for function `f`.
    /// On a corrupt body, `delta` is left as it was, the state counts
    /// `summary.state_corrupt`, and the answer is `false`.
    fn replay(&self, e: &Entry, f: &Function, delta: &mut Refinement) -> bool {
        let (vars, sites) = (delta.vars.len(), delta.sites.len());
        if decode_body(&self.prev.payload[e.body.clone()], f, delta).is_ok() {
            return true;
        }
        delta.vars.truncate(vars);
        delta.sites.truncate(sites);
        manta_telemetry::counter("summary.state_corrupt", 1);
        false
    }

    /// The next state's list for a recomputed chunk's footprint `members`
    /// (this module's functions, ascending): the new list this solve
    /// already made with the same members and combined hash, else a new
    /// one. Chunks of one call cluster recompute together and share it.
    fn intern(&mut self, members: Vec<FuncId>, in_fps: &[u64]) -> u32 {
        let hash = list_hash(members.iter().map(|g| in_fps[g.index()]));
        if let Some(&i) = self.next.new_by_hash.get(&hash) {
            if matches!(&self.next.lists[i as usize], NextList::New { members: m, .. } if *m == members)
            {
                return i;
            }
        }
        let i = self.next.lists.len() as u32;
        self.next.new_by_hash.insert(hash, i);
        self.next.lists.push(NextList::New { hash, members });
        i
    }

    /// The reuse report of this solve, by function name.
    fn report(&self, module: &manta_ir::Module) -> SolveReport {
        let names = |replayed: bool| {
            self.outcomes
                .iter()
                .filter(|&&(_, r)| r == replayed)
                .map(|&(f, _)| module.function(f).name().to_string())
                .collect()
        };
        SolveReport {
            reused: names(true),
            recomputed: names(false),
        }
    }

    /// The encoded next state. Replayed and carried chunks are copied as
    /// the bytes they were read as. A reused list keeps its combined hash
    /// and has its members renumbered into this module's functions (the
    /// same runs when no function moved); a member this module lacks
    /// keeps its name at the end of the next function table.
    pub(crate) fn finish(self) -> Vec<u8> {
        let Memo {
            prev,
            inputs,
            prev_func,
            next,
            ..
        } = self;
        let layout = &prev.layout;
        let bodies = next.bodies.finish();
        let mut funcs = inputs.name_hash;
        let mut kept: Vec<Option<u32>> = vec![None; layout.funcs.len()];
        let mut lists = ByteWriter::new();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for list in &next.lists {
            runs.clear();
            let hash = match list {
                NextList::Prev(p) => {
                    for m in layout.members(*p) {
                        let i = match prev_func[m] {
                            Some(g) => g.0,
                            None => *kept[m].get_or_insert_with(|| {
                                funcs.push(layout.funcs[m]);
                                funcs.len() as u32 - 1
                            }),
                        };
                        push_run(&mut runs, i);
                    }
                    layout.lists[*p as usize].hash
                }
                NextList::New { hash, members } => {
                    for g in members {
                        push_run(&mut runs, g.0);
                    }
                    *hash
                }
            };
            lists.u64(hash).u32(runs.len() as u32);
            for &(first, len) in &runs {
                lists.u32(first).u32(len);
            }
        }

        let mut w = ByteWriter::new();
        w.u32(SUMMARY_STATE_VERSION);
        w.u32(funcs.len() as u32);
        for &h in &funcs {
            w.u64(h);
        }
        w.u32(next.lists.len() as u32);
        w.raw(&lists.finish());
        w.u8(next.stages.len() as u8);
        let body = |b: &Body| match b {
            Body::Prev(r) => &prev.payload[r.clone()],
            Body::New(r) => &bodies[r.clone()],
        };
        for (tag, entries) in &next.stages {
            w.u8(*tag).u32(entries.len() as u32);
            let mut end = 0;
            for e in entries {
                end += body(&e.body).len();
                w.u32(e.owner.0).u32(e.list).u32(end as u32);
            }
            w.usize(end);
            for e in entries {
                w.raw(body(&e.body));
            }
        }
        w.finish()
    }
}

impl Next {
    /// Where previous list `p` lands in the next state's table.
    fn reuse(&mut self, p: u32) -> u32 {
        let lists = &mut self.lists;
        *self.moved[p as usize].get_or_insert_with(|| {
            lists.push(NextList::Prev(p));
            lists.len() as u32 - 1
        })
    }
}

/// Appends function-table index `i` to a list's runs.
fn push_run(runs: &mut Vec<(u32, u32)>, i: u32) {
    match runs.last_mut() {
        Some((first, len)) if *first + *len == i => *len += 1,
        _ => runs.push((i, 1)),
    }
}

/// Maps each index of a previous function table `table` to the function
/// of this module (whose name hashes are `names`, in id order) with the
/// same name hash. A name's k-th occurrence in `table` maps to its k-th
/// function here, so a table that starts with this module's names maps
/// those index for index, repeated names too; occurrences past this
/// module's count map nowhere.
fn map_by_name(table: &[u64], names: &[u64]) -> Vec<Option<FuncId>> {
    // Each name's functions not yet mapped, as a chain: `first` holds the
    // head, `after` each function's successor.
    let mut after: Vec<Option<FuncId>> = vec![None; names.len()];
    let mut first: HashMap<u64, Option<FuncId>> = HashMap::with_capacity(names.len());
    for (i, &h) in names.iter().enumerate().rev() {
        after[i] = first.insert(h, Some(FuncId(i as u32))).flatten();
    }
    table
        .iter()
        .map(|h| {
            let head = first.get_mut(h)?;
            let g = head.take()?;
            *head = after[g.index()];
            Some(g)
        })
        .collect()
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
    let prev = prev_state.and_then(|payload| {
        manta_telemetry::span!("summary.decode");
        let layout = parse(payload).ok()?;
        Some(State {
            payload: payload.to_vec(),
            layout,
        })
    });
    let mut memo = Memo::new(analysis, prev, &function_fingerprints(analysis.module()));
    let result =
        match Engine::new(*config).run_pipeline(analysis, &Budget::unlimited(), Some(&mut memo)) {
            Ok((result, _)) => result,
            Err(_) => unreachable!("non-strict engines convert failures to degradations"),
        };
    let report = memo.report(analysis.module());
    manta_telemetry::span!("summary.encode");
    (result, memo.finish(), report)
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

    /// The state survives a parse and a write unchanged: re-solving an
    /// unchanged module replays every chunk and reuses every list, which
    /// moves them as bytes.
    #[test]
    fn state_codec_roundtrips() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, state, _) = solve(&analysis, &config, None);
        assert!(parse_layout(&state).is_ok());
        let (_, again, report) = solve(&analysis, &config, Some(&state));
        assert!(report.recomputed.is_empty(), "{report:?}");
        assert_eq!(again, state);
    }

    /// `module(true)` as parsed from its text, with a function `pad`
    /// inserted before every other when `padded` (moving each one's id up
    /// by one). Both parse, so value ids agree.
    fn parsed_module(padded: bool) -> manta_ir::Module {
        let mut text = manta_ir::printer::print_module(&module(true));
        if padded {
            let at = text.find("\nfunc ").expect("a function");
            text.insert_str(at, "\nfunc pad() -> void {\nbb0:\n  ret\n}\n");
        }
        manta_ir::parser::parse_module(&text).expect("the text parses")
    }

    #[test]
    fn renumbered_functions_still_replay() {
        let config = MantaConfig::full();
        let plain = manta_analysis::ModuleAnalysis::build(parsed_module(false));
        let padded = manta_analysis::ModuleAnalysis::build(parsed_module(true));
        assert_eq!(
            padded.module().function_count(),
            plain.module().function_count() + 1
        );
        let (_, state, cold) = solve(&plain, &config, None);
        // Both ways: a function inserted before every other, then gone.
        let (incr, padded_state, report) = solve(&padded, &config, Some(&state));
        assert!(results_identical(&Manta::new(config).infer(&padded), &incr));
        assert_eq!(report.reused, cold.recomputed, "every chunk replays");
        let (back, _, report) = solve(&plain, &config, Some(&padded_state));
        assert!(results_identical(&Manta::new(config).infer(&plain), &back));
        assert_eq!(report.reused, cold.recomputed, "every chunk replays");
    }

    /// `module(true)` with `use_int` and `use_ptr` both named `twin`,
    /// after a function `pad` when `padded` (moving each one's id up by
    /// one).
    fn twin_module(padded: bool) -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("twins");
        let malloc = mb.extern_fn("malloc", &[], None);
        if padded {
            let (_, mut pb) = mb.function("pad", &[], None);
            pb.ret(None);
            mb.finish_function(pb);
        }
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (_, mut cb1) = mb.function("twin", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = cb1.binop(BinOp::Mul, n, n, Width::W64);
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let s = cb1.alloca(8);
        cb1.store(s, r1);
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_, mut cb2) = mb.function("twin", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let _ = cb2.load(r2, Width::W64);
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn repeated_names_replay_by_occurrence() {
        let config = MantaConfig::full();
        let plain = manta_analysis::ModuleAnalysis::build(twin_module(false));
        let padded = manta_analysis::ModuleAnalysis::build(twin_module(true));
        let (_, state, cold) = solve(&plain, &config, None);
        assert!(
            cold.recomputed.iter().filter(|n| *n == "twin").count() >= 2,
            "both twins own chunks: {cold:?}"
        );
        // Renumbered and back, then unchanged: each time, every chunk
        // replays, the twins' included.
        let (incr, padded_state, report) = solve(&padded, &config, Some(&state));
        assert!(results_identical(&Manta::new(config).infer(&padded), &incr));
        assert_eq!(report.reused, cold.recomputed, "every chunk replays");
        let (back, back_state, report) = solve(&plain, &config, Some(&padded_state));
        assert!(results_identical(&Manta::new(config).infer(&plain), &back));
        assert_eq!(report.reused, cold.recomputed, "every chunk replays");
        let (_, _, report) = solve(&plain, &config, Some(&back_state));
        assert_eq!(report.reused, cold.recomputed, "every chunk replays");
    }

    #[test]
    fn map_by_name_pairs_each_occurrence_with_the_same_occurrence() {
        let (a, b, x) = (1, 2, 3);
        let ids = |v: &[Option<u32>]| v.iter().map(|i| i.map(FuncId)).collect::<Vec<_>>();
        assert_eq!(
            map_by_name(&[a, b, a, x], &[b, a, a]),
            ids(&[Some(1), Some(0), Some(2), None])
        );
        // A table that starts with the module's names maps them index
        // for index, whatever names it keeps after them.
        assert_eq!(
            map_by_name(&[a, a, b, a, x], &[a, a, b]),
            ids(&[Some(0), Some(1), Some(2), None, None])
        );
    }

    #[test]
    fn a_chunk_body_that_does_not_decode_recomputes_alone() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, mut state, cold) = solve(&analysis, &config, None);
        // Point the first chunk's first variable past its function.
        let layout = parse_layout(&state).unwrap();
        let (_, entries) = &layout.stages[0];
        let first = &entries[0];
        let body = first.body.start;
        assert_ne!(
            state[body..body + 4],
            [0; 4],
            "the chunk updates a variable"
        );
        state[body + 4..body + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let owner = analysis
            .module()
            .function(FuncId(first.owner))
            .name()
            .to_string();

        let (incr, _, report) = solve(&analysis, &config, Some(&state));
        assert!(results_identical(
            &Manta::new(config).infer(&analysis),
            &incr
        ));
        assert_eq!(report.recomputed, [owner], "{report:?}");
        assert_eq!(report.reused.len(), cold.recomputed.len() - 1);
    }
}
