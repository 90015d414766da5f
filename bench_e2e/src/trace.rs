//! Spans around the calls into each layer, recorded from the benchmark's
//! own code.
//!
//! A traced op records one top-level span per product call it makes
//! (lift, parse, substrate build, analyze, the clients, a daemon call).
//! A composite call — `Engine::build_substrate`, `Engine::analyze*`,
//! `Client::call` — is then followed by its constituent public calls on
//! the same input, each recorded as a replay span whose parent is the
//! composite. A layer's self time is its spans' duration minus the time
//! of their children; where a composite adds almost nothing of its own,
//! timing noise in its replays can leave its self time slightly
//! negative, which is reported as measured. Replays and checks run
//! aside: they are excluded
//! from the op's wall time, so `unattributed_pct` is the part of an op's
//! wall time that no top-level span covers.
//!
//! Spans stay in memory until the run ends, then are written as Chrome
//! trace-event JSON (the format `manta --trace-out` writes).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use manta_store::json::JsonWriter;

use crate::alloc;

/// The layers a span can belong to, named as in `BENCHMARK.json`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    LiftSb,
    LiftX86,
    IrParse,
    AnalysisBuild,
    AnalysisPreprocess,
    AnalysisCallgraph,
    AnalysisPointsto,
    AnalysisDdg,
    EngineAnalyze,
    InferReveal,
    InferFi,
    InferCs,
    InferFs,
    SummariesSolve,
    CacheFingerprint,
    StoreGet,
    CacheDecode,
    StorePut,
    CacheEncode,
    ClientsCheckers,
    ClientsIcall,
    ServeCall,
}

impl Layer {
    pub const ALL: [Layer; 22] = [
        Layer::LiftSb,
        Layer::LiftX86,
        Layer::IrParse,
        Layer::AnalysisBuild,
        Layer::AnalysisPreprocess,
        Layer::AnalysisCallgraph,
        Layer::AnalysisPointsto,
        Layer::AnalysisDdg,
        Layer::EngineAnalyze,
        Layer::InferReveal,
        Layer::InferFi,
        Layer::InferCs,
        Layer::InferFs,
        Layer::SummariesSolve,
        Layer::CacheFingerprint,
        Layer::StoreGet,
        Layer::CacheDecode,
        Layer::StorePut,
        Layer::CacheEncode,
        Layer::ClientsCheckers,
        Layer::ClientsIcall,
        Layer::ServeCall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::LiftSb => "lift.sb",
            Layer::LiftX86 => "lift.x86",
            Layer::IrParse => "ir.parse",
            Layer::AnalysisBuild => "analysis.build",
            Layer::AnalysisPreprocess => "analysis.preprocess",
            Layer::AnalysisCallgraph => "analysis.callgraph",
            Layer::AnalysisPointsto => "analysis.pointsto",
            Layer::AnalysisDdg => "analysis.ddg",
            Layer::EngineAnalyze => "engine.analyze",
            Layer::InferReveal => "infer.reveal",
            Layer::InferFi => "infer.fi",
            Layer::InferCs => "infer.cs",
            Layer::InferFs => "infer.fs",
            Layer::SummariesSolve => "summaries.solve",
            Layer::CacheFingerprint => "cache.fingerprint",
            Layer::StoreGet => "store.get",
            Layer::CacheDecode => "cache.decode",
            Layer::StorePut => "store.put",
            Layer::CacheEncode => "cache.encode",
            Layer::ClientsCheckers => "clients.checkers",
            Layer::ClientsIcall => "clients.icall",
            Layer::ServeCall => "serve.call",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }

    /// A daemon call's work runs on the daemon's threads, so the client
    /// thread's allocations during the call are already the call's own.
    fn remote(self) -> bool {
        self == Layer::ServeCall
    }
}

/// Index of a recorded span.
pub type SpanId = usize;

struct SpanRec {
    layer: Layer,
    op: u64,
    parent: Option<SpanId>,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    allocs: u64,
    bytes: u64,
}

static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn spans() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Fixes the trace's time origin; call before the first span.
pub fn init() {
    let _ = epoch();
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|c| {
        if c.get() == 0 {
            c.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// Runs `f` and records it as one span; `deduct_ns` is charged off its
/// duration (work the call repeats that another span already holds).
fn record<T>(
    layer: Layer,
    op: u64,
    parent: Option<SpanId>,
    deduct_ns: u64,
    f: impl FnOnce() -> T,
) -> (T, SpanId, u64) {
    let (a0, b0) = alloc::counted();
    let start = Instant::now();
    let out = f();
    let dur_ns = (start.elapsed().as_nanos() as u64).saturating_sub(deduct_ns);
    let (a1, b1) = alloc::counted();
    let rec = SpanRec {
        layer,
        op,
        parent,
        tid: thread_id(),
        start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
        dur_ns,
        allocs: a1 - a0,
        bytes: b1 - b0,
    };
    let mut all = spans();
    all.push(rec);
    (out, all.len() - 1, dur_ns)
}

/// Records one replayed constituent call of the composite `parent`.
pub fn replay<T>(op: u64, layer: Layer, parent: SpanId, f: impl FnOnce() -> T) -> (T, SpanId) {
    let (out, id, _) = record(layer, op, Some(parent), 0, f);
    (out, id)
}

/// [`replay`] with `deduct_ns` charged off the span's duration.
pub fn replay_net<T>(
    op: u64,
    layer: Layer,
    parent: SpanId,
    deduct_ns: u64,
    f: impl FnOnce() -> T,
) -> (T, SpanId) {
    let (out, id, _) = record(layer, op, Some(parent), deduct_ns, f);
    (out, id)
}

/// Wall time and allocations of one finished op, excluding aside work.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTime {
    pub wall_ns: u64,
    /// Time covered by the op's top-level spans (traced ops only).
    pub top_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl OpTime {
    pub fn ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// One op of a workload: a sequence of product calls, timed as a whole.
pub struct Op {
    id: u64,
    traced: bool,
    start: Instant,
    aside_ns: u64,
    aside_allocs: (u64, u64),
    top_ns: u64,
    allocs0: (u64, u64),
}

impl Op {
    /// Starts op `id`; a traced op counts its thread's allocations.
    pub fn begin(id: u64, traced: bool) -> Op {
        if traced {
            alloc::set_counting(true);
        }
        Op {
            id,
            traced,
            start: Instant::now(),
            aside_ns: 0,
            aside_allocs: (0, 0),
            top_ns: 0,
            allocs0: alloc::counted(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs one product call; a traced op records it as a top-level
    /// span of `layer`.
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> (T, Option<SpanId>) {
        if !self.traced {
            return (f(), None);
        }
        let (out, id, dur) = record(layer, self.id, None, 0, f);
        self.top_ns += dur;
        (out, Some(id))
    }

    /// Runs benchmark-only work inside the op (constituent replays and
    /// the snapshots they need); it does not count toward the op.
    pub fn aside<T>(&mut self, f: impl FnOnce(u64) -> T) -> T {
        let (a0, b0) = alloc::counted();
        let start = Instant::now();
        let out = f(self.id);
        self.aside_ns += start.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::counted();
        self.aside_allocs.0 += a1 - a0;
        self.aside_allocs.1 += b1 - b0;
        out
    }

    pub fn end(self) -> OpTime {
        let wall = self.start.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::counted();
        if self.traced {
            alloc::set_counting(false);
        }
        OpTime {
            wall_ns: wall.saturating_sub(self.aside_ns),
            top_ns: self.top_ns,
            allocs: (a1 - self.allocs0.0).saturating_sub(self.aside_allocs.0),
            bytes: (b1 - self.allocs0.1).saturating_sub(self.aside_allocs.1),
        }
    }
}

/// Per-layer totals over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub self_ns: i64,
    pub allocs: i64,
    pub bytes: i64,
}

/// Aggregates the recorded spans by layer. Self time is a span's
/// duration minus its children's; self allocations likewise, except for
/// a daemon call, whose work allocates on the daemon's threads.
pub fn layer_stats() -> Vec<(Layer, LayerStats)> {
    let all = spans();
    let mut child = vec![(0i64, 0i64, 0i64); all.len()];
    for s in all.iter() {
        if let Some(p) = s.parent {
            child[p].0 += s.dur_ns as i64;
            child[p].1 += s.allocs as i64;
            child[p].2 += s.bytes as i64;
        }
    }
    let mut out: Vec<(Layer, LayerStats)> = Layer::ALL
        .iter()
        .map(|&l| (l, LayerStats::default()))
        .collect();
    for (s, c) in all.iter().zip(&child) {
        let st = &mut out[s.layer.index()].1;
        st.calls += 1;
        st.self_ns += s.dur_ns as i64 - c.0;
        if s.layer.remote() {
            st.allocs += s.allocs as i64;
            st.bytes += s.bytes as i64;
        } else {
            st.allocs += s.allocs as i64 - c.1;
            st.bytes += s.bytes as i64 - c.2;
        }
    }
    out
}

/// Writes every recorded span as Chrome trace-event JSON. Replays carry
/// category `replay`; `args` holds the op id, the span's parent and its
/// allocation counts.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    let all = spans();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ms");
    w.key("traceEvents");
    w.begin_array();
    for (i, s) in all.iter().enumerate() {
        w.begin_object();
        w.key("name");
        w.string(s.layer.name());
        w.key("cat");
        w.string(if s.parent.is_some() { "replay" } else { "op" });
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.float(s.start_ns as f64 / 1e3);
        w.key("dur");
        w.float(s.dur_ns as f64 / 1e3);
        w.key("pid");
        w.uint(1);
        w.key("tid");
        w.uint(s.tid);
        w.key("args");
        w.begin_object();
        w.key("op");
        w.uint(s.op);
        w.key("span");
        w.uint(i as u64);
        if let Some(p) = s.parent {
            w.key("parent");
            w.uint(p as u64);
        }
        w.key("allocs");
        w.uint(s.allocs);
        w.key("alloc_bytes");
        w.uint(s.bytes);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, w.finish())
}
