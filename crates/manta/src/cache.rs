//! Cache-aware inference: content fingerprints, result (de)serialization
//! and the [`AnalysisCache`] wrapper over [`manta_store::Store`].
//!
//! ## Keying
//!
//! Cached inference results are keyed `(stage, content, config)`:
//!
//! * **content** — [`module_fingerprint`], a deterministic hash of the
//!   module's *canonical printed text* (`print(parse(print(m))) ==
//!   print(m)`, so two behaviorally identical modules always share a
//!   fingerprint regardless of how they were built).
//! * **config** — [`config_hash`], covering every [`MantaConfig`] field,
//!   the fuel limit when one applies, and [`CODEC_VERSION`]. Thread
//!   count is deliberately *excluded*: inference results are
//!   bit-identical at any pool size, so a warm cache populated at one
//!   thread count serves every other. Wall-clock deadlines are handled
//!   by *bypassing* the cache entirely (deadline-degraded results are
//!   nondeterministic and must never be persisted).
//!
//! A `"src"` alias maps a request's source text straight to the module
//! fingerprint and the result's final class counts, keyed by
//! [`source_fingerprint`] and the same config hash, so an exact repeat
//! of a text skips parsing, preprocessing and the canonical print
//! ([`crate::Engine::infer_source`]).
//!
//! Keys cover the inputs and the config; the version constants cover
//! the code: [`CODEC_VERSION`] the payload encoding and
//! [`SOURCE_VERSION`] the text → module mapping. A changed input or
//! config misses, and superseded entries stay on disk until the store's
//! size-capped LRU collection ([`Store::gc`]) reclaims them.
//!
//! ## Degradation, not failure
//!
//! Corrupt or version-mismatched store state never fails an inference:
//! the entry (or the whole store, on a manifest mismatch) is discarded,
//! a [`Degradation`] with [`DegradationKind::StoreCorruption`] is
//! recorded, and the result is recomputed. Results computed while a
//! fault-injection plan is active are neither served from nor written to
//! the cache.

use std::collections::HashMap;
use std::sync::Mutex;

use manta_analysis::{ObjectId, VarRef};
use manta_ir::{printer, FuncId, InstId, Type, ValueId, Width};
use manta_resilience::{Degradation, DegradationKind};
use manta_store::{
    ByteReader, ByteWriter, DecodeError, Fingerprint, Key, OpenOutcome, Store, StoreError,
};

use crate::interval::TypeInterval;
use crate::{ClassCounts, InferenceResult, MantaConfig, Sensitivity, Stage, VarClass};

/// Version of the payload encoding in this module. Folded into every
/// config hash, so bumping it orphans (rather than misreads) entries
/// written by older codecs.
pub const CODEC_VERSION: u32 = 1;

/// Version of the text → module mapping a `"src"` alias stands for:
/// `manta_isa::parse_source` plus preprocessing, and the hash. Folded
/// into every [`source_fingerprint`]; bump it whenever any of them
/// changes what a text fingerprints to, or old aliases would point at
/// another module's result. Version 2 hashes with the word-at-a-time
/// [`Fingerprint`].
pub const SOURCE_VERSION: u32 = 2;

/// Maximum [`Type`] nesting depth accepted by the decoder — a corrupt
/// payload must not be able to recurse the stack away. Generous: the
/// type lattice itself widens beyond `manta_ir::types::MAX_TYPE_DEPTH`.
const MAX_DECODE_DEPTH: usize = 64;

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/// The [`Fingerprint`] of one text field.
pub(crate) fn text_hash(text: &str) -> u64 {
    Fingerprint::new().write_str(text).finish()
}

/// Deterministic content hash of a module: the hash of its canonical
/// printed text.
#[must_use]
pub fn module_fingerprint(module: &manta_ir::Module) -> u64 {
    text_hash(&printer::print_module(module))
}

/// The content half of a `"src"` alias key: the hash of
/// [`SOURCE_VERSION`] and the request text, byte for byte.
#[must_use]
pub fn source_fingerprint(text: &str) -> u64 {
    Fingerprint::new()
        .write_u64(u64::from(SOURCE_VERSION))
        .write_str(text)
        .finish()
}

/// Per-function content hashes, in id order. Two functions with
/// identical canonical text hash identically — the text part of each
/// function's summary input fingerprint ([`crate::summaries`]).
#[must_use]
pub fn function_fingerprints(module: &manta_ir::Module) -> Vec<u64> {
    let mut text = String::new();
    module
        .functions()
        .map(|f| {
            text.clear();
            printer::write_function_canonical(module, f, &mut text);
            text_hash(&text)
        })
        .collect()
}

/// Hash of every configuration bit that can change an inference result:
/// the [`MantaConfig`] fields, the fuel limit (when budgeted), and
/// [`CODEC_VERSION`]. Thread count is excluded by design (results are
/// thread-invariant); deadline budgets bypass the cache instead of
/// being hashed (wall-clock cutoffs are nondeterministic).
#[must_use]
pub fn config_hash(config: &MantaConfig, fuel: Option<u64>) -> u64 {
    let mut h = Fingerprint::new();
    h.write_u64(u64::from(CODEC_VERSION));
    h.write_u64(u64::from(sensitivity_tag(config.sensitivity)));
    h.write_usize(config.max_ctx_depth);
    h.write_usize(config.max_visits);
    h.write_u64(u64::from(config.strong_updates));
    match fuel {
        Some(f) => h.write_u64(1).write_u64(f),
        None => h.write_u64(0),
    };
    h.finish()
}

fn sensitivity_tag(s: Sensitivity) -> u8 {
    match s {
        Sensitivity::Fi => 0,
        Sensitivity::Fs => 1,
        Sensitivity::FiFs => 2,
        Sensitivity::FiCsFs => 3,
        Sensitivity::FiFsCs => 4,
    }
}

fn sensitivity_from_tag(tag: u8) -> Option<Sensitivity> {
    Some(match tag {
        0 => Sensitivity::Fi,
        1 => Sensitivity::Fs,
        2 => Sensitivity::FiFs,
        3 => Sensitivity::FiCsFs,
        4 => Sensitivity::FiFsCs,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

fn enc_width(w: &mut ByteWriter, width: Width) {
    w.u8(width.bits() as u8);
}

fn dec_width(r: &mut ByteReader<'_>) -> Result<Width, DecodeError> {
    let bits = r.u8("width")?;
    Width::from_bits(u32::from(bits)).ok_or(DecodeError {
        context: "width",
        offset: 0,
    })
}

pub(crate) fn enc_type(w: &mut ByteWriter, t: &Type) {
    match t {
        Type::Top => {
            w.u8(0);
        }
        Type::Bottom => {
            w.u8(1);
        }
        Type::Reg(width) => {
            w.u8(2);
            enc_width(w, *width);
        }
        Type::Num(width) => {
            w.u8(3);
            enc_width(w, *width);
        }
        Type::Int(width) => {
            w.u8(4);
            enc_width(w, *width);
        }
        Type::Float => {
            w.u8(5);
        }
        Type::Double => {
            w.u8(6);
        }
        Type::Ptr(inner) => {
            w.u8(7);
            enc_type(w, inner);
        }
        Type::Array(elem, len) => {
            w.u8(8);
            enc_type(w, elem);
            w.u64(*len);
        }
        Type::Object(fields) => {
            w.u8(9);
            w.usize(fields.len());
            for (off, ft) in fields {
                w.u64(*off);
                enc_type(w, ft);
            }
        }
        Type::Func(sig) => {
            w.u8(10);
            w.usize(sig.params.len());
            for p in &sig.params {
                enc_type(w, p);
            }
            enc_type(w, &sig.ret);
        }
    }
}

pub(crate) fn dec_type(r: &mut ByteReader<'_>, depth: usize) -> Result<Type, DecodeError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(DecodeError {
            context: "type depth",
            offset: 0,
        });
    }
    Ok(match r.u8("type tag")? {
        0 => Type::Top,
        1 => Type::Bottom,
        2 => Type::Reg(dec_width(r)?),
        3 => Type::Num(dec_width(r)?),
        4 => Type::Int(dec_width(r)?),
        5 => Type::Float,
        6 => Type::Double,
        7 => Type::ptr(dec_type(r, depth + 1)?),
        8 => {
            let elem = dec_type(r, depth + 1)?;
            let len = r.u64("array len")?;
            Type::Array(std::sync::Arc::new(elem), len)
        }
        9 => {
            let n = r.len("object fields")?;
            let mut fields = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let off = r.u64("field offset")?;
                fields.push((off, dec_type(r, depth + 1)?));
            }
            Type::Object(fields)
        }
        10 => {
            let n = r.len("func params")?;
            let mut params = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                params.push(dec_type(r, depth + 1)?);
            }
            let ret = dec_type(r, depth + 1)?;
            Type::Func(manta_ir::FuncSig::new(params, ret))
        }
        _ => {
            return Err(DecodeError {
                context: "type tag",
                offset: 0,
            })
        }
    })
}

pub(crate) fn enc_interval(w: &mut ByteWriter, i: &TypeInterval) {
    enc_type(w, &i.upper);
    enc_type(w, &i.lower);
}

pub(crate) fn dec_interval(r: &mut ByteReader<'_>) -> Result<TypeInterval, DecodeError> {
    Ok(TypeInterval {
        upper: dec_type(r, 0)?,
        lower: dec_type(r, 0)?,
    })
}

pub(crate) fn enc_varref(w: &mut ByteWriter, v: VarRef) {
    w.u32(v.func.0).u32(v.value.0);
}

pub(crate) fn dec_varref(r: &mut ByteReader<'_>) -> Result<VarRef, DecodeError> {
    Ok(VarRef {
        func: FuncId(r.u32("varref func")?),
        value: ValueId(r.u32("varref value")?),
    })
}

fn class_tag(c: VarClass) -> u8 {
    match c {
        VarClass::Precise => 0,
        VarClass::Over => 1,
        VarClass::Unknown => 2,
    }
}

fn class_from_tag(tag: u8) -> Option<VarClass> {
    Some(match tag {
        0 => VarClass::Precise,
        1 => VarClass::Over,
        2 => VarClass::Unknown,
        _ => return None,
    })
}

fn stage_tag(s: Stage) -> u8 {
    match s {
        Stage::FlowInsensitive => 0,
        Stage::ContextRefine => 1,
        Stage::FlowRefine => 2,
        Stage::StandaloneFs => 3,
    }
}

fn stage_from_tag(tag: u8) -> Option<Stage> {
    Some(match tag {
        0 => Stage::FlowInsensitive,
        1 => Stage::ContextRefine,
        2 => Stage::FlowRefine,
        3 => Stage::StandaloneFs,
        _ => return None,
    })
}

fn kind_tag(k: DegradationKind) -> u8 {
    match k {
        DegradationKind::BudgetFuel => 0,
        DegradationKind::BudgetDeadline => 1,
        DegradationKind::Panic => 2,
        DegradationKind::InjectedFault => 3,
        DegradationKind::StoreCorruption => 4,
    }
}

fn kind_from_tag(tag: u8) -> Option<DegradationKind> {
    Some(match tag {
        0 => DegradationKind::BudgetFuel,
        1 => DegradationKind::BudgetDeadline,
        2 => DegradationKind::Panic,
        3 => DegradationKind::InjectedFault,
        4 => DegradationKind::StoreCorruption,
        _ => return None,
    })
}

pub(crate) fn bad(context: &'static str) -> DecodeError {
    DecodeError { context, offset: 0 }
}

/// Reads a `usize` that is a plain count, not a buffer-bounded length
/// prefix (`ByteReader::len` rejects values exceeding the buffer, which
/// is wrong for e.g. `max_visits`).
pub(crate) fn dec_usize(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<usize, DecodeError> {
    usize::try_from(r.u64(context)?).map_err(|_| bad(context))
}

/// Serializes a full [`InferenceResult`] to bytes. Deterministic: map
/// entries are emitted in sorted key order, so the same result always
/// produces the same bytes (the differential tests compare payloads
/// byte for byte across thread counts).
#[must_use]
pub fn encode_result(result: &InferenceResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(CODEC_VERSION);

    let mut vars: Vec<(&VarRef, &TypeInterval)> = result.var_types.iter().collect();
    vars.sort_by_key(|(v, _)| **v);
    w.usize(vars.len());
    for (v, i) in vars {
        enc_varref(&mut w, *v);
        enc_interval(&mut w, i);
    }

    let mut objs: Vec<(&ObjectId, &TypeInterval)> = result.obj_types.iter().collect();
    objs.sort_by_key(|(o, _)| **o);
    w.usize(objs.len());
    for (o, i) in objs {
        w.u32(o.0);
        enc_interval(&mut w, i);
    }

    let mut sites: Vec<(&(VarRef, InstId), &TypeInterval)> = result.site_types.iter().collect();
    sites.sort_by_key(|(k, _)| **k);
    w.usize(sites.len());
    for ((v, s), i) in sites {
        enc_varref(&mut w, *v);
        w.u32(s.0);
        enc_interval(&mut w, i);
    }

    let mut classes: Vec<(&VarRef, &VarClass)> = result.class.iter().collect();
    classes.sort_by_key(|(v, _)| **v);
    w.usize(classes.len());
    for (v, c) in classes {
        enc_varref(&mut w, *v);
        w.u8(class_tag(*c));
    }

    w.usize(result.stage_counts.len());
    for (stage, counts) in &result.stage_counts {
        w.u8(stage_tag(*stage));
        w.usize(counts.precise)
            .usize(counts.over)
            .usize(counts.unknown);
    }

    w.u8(sensitivity_tag(result.config.sensitivity));
    w.usize(result.config.max_ctx_depth);
    w.usize(result.config.max_visits);
    w.bool(result.config.strong_updates);

    w.usize(result.degradations.len());
    for d in &result.degradations {
        w.str(&d.stage).str(&d.completed);
        w.u8(kind_tag(d.kind));
        w.str(&d.detail);
    }
    w.finish()
}

/// Decodes a payload written by [`encode_result`].
///
/// # Errors
///
/// Any malformed byte yields a [`DecodeError`]; the function never
/// panics (payloads come from disk).
pub fn decode_result(payload: &[u8]) -> Result<InferenceResult, DecodeError> {
    let mut r = ByteReader::new(payload);
    if r.u32("codec version")? != CODEC_VERSION {
        return Err(bad("codec version"));
    }

    let n = r.len("var count")?;
    let mut var_types = HashMap::with_capacity(n.min(4096));
    for _ in 0..n {
        let v = dec_varref(&mut r)?;
        var_types.insert(v, dec_interval(&mut r)?);
    }

    let n = r.len("obj count")?;
    let mut obj_types = HashMap::with_capacity(n.min(4096));
    for _ in 0..n {
        let o = ObjectId(r.u32("object id")?);
        obj_types.insert(o, dec_interval(&mut r)?);
    }

    let n = r.len("site count")?;
    let mut site_types = HashMap::with_capacity(n.min(4096));
    for _ in 0..n {
        let v = dec_varref(&mut r)?;
        let s = InstId(r.u32("site inst")?);
        site_types.insert((v, s), dec_interval(&mut r)?);
    }

    let n = r.len("class count")?;
    let mut class = HashMap::with_capacity(n.min(4096));
    for _ in 0..n {
        let v = dec_varref(&mut r)?;
        let c = class_from_tag(r.u8("class tag")?).ok_or(bad("class tag"))?;
        class.insert(v, c);
    }

    let n = r.len("stage count")?;
    let mut stage_counts = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        let stage = stage_from_tag(r.u8("stage tag")?).ok_or(bad("stage tag"))?;
        let counts = ClassCounts {
            precise: dec_usize(&mut r, "precise")?,
            over: dec_usize(&mut r, "over")?,
            unknown: dec_usize(&mut r, "unknown")?,
        };
        stage_counts.push((stage, counts));
    }

    let config = MantaConfig {
        sensitivity: sensitivity_from_tag(r.u8("sensitivity")?).ok_or(bad("sensitivity"))?,
        max_ctx_depth: dec_usize(&mut r, "max_ctx_depth")?,
        max_visits: dec_usize(&mut r, "max_visits")?,
        strong_updates: r.bool("strong_updates")?,
    };

    let n = r.len("degradation count")?;
    let mut degradations = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        // Constructed literally, NOT via `Degradation::record`: decoding
        // a historical record must not bump the live degradation
        // counter.
        degradations.push(Degradation {
            stage: r.str("degradation stage")?.to_string(),
            completed: r.str("degradation completed")?.to_string(),
            kind: kind_from_tag(r.u8("degradation kind")?).ok_or(bad("degradation kind"))?,
            detail: r.str("degradation detail")?.to_string(),
        });
    }
    r.expect_end("inference result")?;

    Ok(InferenceResult {
        var_types,
        obj_types,
        site_types,
        class,
        stage_counts,
        config,
        degradations,
    })
}

/// Serializes a `"src"` alias: the module fingerprint whose `"infer"`
/// entry answers the text, and that result's final class counts.
pub(crate) fn encode_alias(fingerprint: u64, counts: ClassCounts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(fingerprint)
        .usize(counts.precise)
        .usize(counts.over)
        .usize(counts.unknown);
    w.finish()
}

/// Decodes a payload written by [`encode_alias`]; any other length is
/// an error.
pub(crate) fn decode_alias(payload: &[u8]) -> Result<(u64, ClassCounts), DecodeError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.u64("alias fingerprint")?;
    let counts = ClassCounts {
        precise: dec_usize(&mut r, "precise")?,
        over: dec_usize(&mut r, "over")?,
        unknown: dec_usize(&mut r, "unknown")?,
    };
    r.expect_end("source alias")?;
    Ok((fingerprint, counts))
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// A persistent analysis cache: a [`Store`] plus the Manta-side
/// policies (keying, codec, degradation logging).
#[derive(Debug)]
pub struct AnalysisCache {
    store: Store,
    degradations: Mutex<Vec<Degradation>>,
}

impl AnalysisCache {
    /// Opens (or initializes) the cache in `dir`. A corrupt or
    /// version-mismatched store is wiped and reinitialized, recording a
    /// [`DegradationKind::StoreCorruption`] degradation instead of
    /// failing.
    ///
    /// # Errors
    ///
    /// Only on unrecoverable filesystem failures.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<AnalysisCache, StoreError> {
        let store = Store::open(dir)?;
        let mut degradations = Vec::new();
        if store.open_outcome() == OpenOutcome::Recovered {
            degradations.push(Degradation::record(
                "store.open",
                "recomputing",
                DegradationKind::StoreCorruption,
                format!(
                    "store at {} recovered (unclean shutdown swept, or a \
                     corrupt/other-version store discarded)",
                    store.dir().display()
                ),
            ));
        }
        Ok(AnalysisCache {
            store,
            degradations: Mutex::new(degradations),
        })
    }

    /// The underlying store (stats, direct entry access).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Drains the degradations recorded against this cache so far
    /// (recovered-on-open, corrupt entries discarded mid-run).
    pub fn take_degradations(&self) -> Vec<Degradation> {
        match self.degradations.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(_) => Vec::new(),
        }
    }

    fn note_degradation(&self, d: Degradation) {
        if let Ok(mut g) = self.degradations.lock() {
            g.push(d);
        }
    }

    /// Copies this store's traffic counters into the telemetry registry
    /// (under `store.*`) so `manta stats` and telemetry reports can
    /// render them.
    pub fn publish_telemetry(&self) {
        let s = self.store.stats().snapshot();
        manta_telemetry::counter_set("store.hits", s.hits);
        manta_telemetry::counter_set("store.misses", s.misses);
        manta_telemetry::counter_set("store.invalidations", s.invalidations);
        manta_telemetry::counter_set("store.corrupt", s.corrupt);
        manta_telemetry::counter_set("store.bytes_read", s.bytes_read);
        manta_telemetry::counter_set("store.bytes_written", s.bytes_written);
    }

    /// Fetches and decodes a cached inference result, returned beside
    /// its stored payload.
    pub(crate) fn get_result(&self, key: &Key) -> Option<(InferenceResult, Vec<u8>)> {
        self.get_decoded(key, decode_result)
    }

    /// Fetches and decodes a `"src"` alias (see [`encode_alias`]).
    pub(crate) fn get_alias(&self, key: &Key) -> Option<(u64, ClassCounts)> {
        self.get_decoded(key, decode_alias).map(|(alias, _)| alias)
    }

    /// Fetches an entry and decodes it. Checksum-valid but undecodable
    /// payloads (hash collision, codec bug, wrong length) are discarded
    /// with a degradation record — never served, never panicked on.
    pub(crate) fn get_decoded<T>(
        &self,
        key: &Key,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
    ) -> Option<(T, Vec<u8>)> {
        let payload = self.store.get(key)?;
        match decode(&payload) {
            Ok(v) => Some((v, payload)),
            Err(e) => {
                self.store.invalidate(key);
                self.note_degradation(Degradation::record(
                    "store.decode",
                    "recomputing",
                    DegradationKind::StoreCorruption,
                    format!("entry {key}: {e}"),
                ));
                None
            }
        }
    }
}

/// Whether two inference results are bit-identical under the canonical
/// codec — the equality notion the cache (and the engine parity tests)
/// are held to.
#[must_use]
pub fn results_identical(a: &InferenceResult, b: &InferenceResult) -> bool {
    encode_result(a) == encode_result(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Manta};
    use manta_analysis::ModuleAnalysis;
    use manta_ir::{BinOp, ModuleBuilder, Width};
    use manta_store::TempDir;

    fn sample_module(mul: bool) -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("cached");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_f, mut fb) = mb.function("grab", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let n2 = if mul {
            fb.binop(BinOp::Mul, n, n, Width::W64)
        } else {
            fb.binop(BinOp::Add, n, n, Width::W64)
        };
        let buf = fb.call_extern(malloc, &[n2], Some(Width::W64)).unwrap();
        fb.ret(Some(buf));
        mb.finish_function(fb);
        let (_g, mut gb) = mb.function("leaf", &[Width::W64], None);
        let _ = gb.param(0);
        gb.ret(None);
        mb.finish_function(gb);
        mb.finish()
    }

    /// A full-sensitivity engine over a fresh cache in a unique temp
    /// dir (removed when the guard drops, after the engine).
    fn cached_engine(tag: &str) -> (TempDir, Engine) {
        let tmp = TempDir::new(&format!("cache-test-{tag}"));
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .cache_dir(tmp.path())
            .build()
            .unwrap();
        (tmp, engine)
    }

    #[test]
    fn result_codec_roundtrips_bit_identically() {
        let analysis = ModuleAnalysis::build(sample_module(true));
        for s in Sensitivity::WITH_REVERSED {
            let r = Manta::new(MantaConfig::with_sensitivity(s)).infer(&analysis);
            let bytes = encode_result(&r);
            let back = decode_result(&bytes).unwrap();
            assert!(results_identical(&r, &back), "{s:?}");
            assert_eq!(bytes, encode_result(&back), "{s:?} re-encode");
        }
    }

    #[test]
    fn warm_hit_matches_cold_computation() {
        let (_tmp, engine) = cached_engine("warmhit");
        let cache = engine.cache().unwrap();
        let analysis = ModuleAnalysis::build(sample_module(true));
        let cold = engine.analyze(&analysis).unwrap();
        let warm = engine.analyze(&analysis).unwrap();
        assert!(results_identical(&cold, &warm));
        // One lookup per analyze, keyed by the module fingerprint alone:
        // the cold miss stores the single entry the warm run hits.
        let s = cache.store().stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.store().len(), 1);
    }

    #[test]
    fn config_changes_key_separately() {
        let a = config_hash(&MantaConfig::full(), None);
        let b = config_hash(&MantaConfig::with_sensitivity(Sensitivity::Fi), None);
        let c = config_hash(&MantaConfig::full(), Some(1000));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same inputs, same hash: keys are stable across processes.
        assert_eq!(a, config_hash(&MantaConfig::full(), None));
    }

    #[test]
    fn module_edit_invalidates_stale_infer_entries() {
        let (_tmp, engine) = cached_engine("inval");
        let cache = engine.cache().unwrap();
        let before = ModuleAnalysis::build(sample_module(true));
        let _ = engine.analyze(&before).unwrap();
        assert_eq!(cache.store().len(), 1, "one infer entry");

        // The edit changes the module fingerprint, so the stale entry is
        // never consulted: the lookup misses and a fresh entry lands
        // under the new key.
        let after = ModuleAnalysis::build(sample_module(false));
        let warm = engine.analyze(&after).unwrap();
        let s = cache.store().stats().snapshot();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(cache.store().len(), 2);
        let direct = Manta::new(MantaConfig::full()).infer(&after);
        assert!(results_identical(&warm, &direct));
    }

    #[test]
    fn corrupt_payload_degrades_and_recomputes() {
        let analysis = ModuleAnalysis::build(sample_module(true));
        let config = MantaConfig::full();
        let clean = Engine::new(config).analyze(&analysis).unwrap();
        let fingerprint = module_fingerprint(analysis.module());
        let infer = Key::new("infer", fingerprint, config_hash(&config, None));
        // Each entry kind with an engine that reads it: a plain engine its
        // result, a provenance engine the graph beside a result hit, a
        // summary engine its state on a result miss.
        let cases = [
            (Engine::builder(), infer),
            (
                Engine::builder().provenance(true),
                Key::new("prov", fingerprint, config_hash(&config, None)),
            ),
            (
                Engine::builder().summaries(true),
                crate::summaries::state_key(analysis.module().name(), &config),
            ),
        ];
        for (builder, key) in cases {
            let kind = key.stage;
            let tmp = TempDir::new(&format!("cache-test-corrupt-{kind}"));
            let engine = builder
                .config(config)
                .cache_dir(tmp.path())
                .build()
                .unwrap();
            let cache = engine.cache().unwrap();
            if kind == "prov" {
                cache.store().put(&infer, &encode_result(&clean)).unwrap();
            }
            // A checksum-valid but undecodable payload: the store serves
            // it, the codec must reject it.
            cache.store().put(&key, b"not a valid payload").unwrap();
            let warm = engine.analyze(&analysis).unwrap();
            assert!(results_identical(&clean, &warm), "{kind}: recomputed");
            let degs = cache.take_degradations();
            assert_eq!(degs.len(), 1, "{kind}: {degs:?}");
            assert_eq!(degs[0].kind, DegradationKind::StoreCorruption, "{kind}");
            let s = cache.store().stats().snapshot();
            assert_eq!(s.invalidations, 1, "{kind}: the entry is invalidated");
        }
    }
}
