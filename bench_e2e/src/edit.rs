//! `edit`: interactive re-analysis of one module, a closed loop with one
//! caller.
//!
//! An `Engine` with a persistent `AnalysisCache` and summaries on holds
//! the 2112-function polymorphic-cluster module as IR text: 48 clusters,
//! each a 40-deep identity-relay chain fed by four users that pass it
//! integers and heap pointers alternately. One op parses the current
//! text, builds the substrate and analyzes. Each seeded one-function
//! edit (one integer constant of an int user changes) is followed by two
//! re-queries of the unchanged text, so consecutive ops share all but
//! one function: fingerprinting, store reads beside writes and summary
//! replay dominate, inference recomputes only the dirty cluster, and
//! lift never runs. The module is fixed; the seed drives the edits.
//!
//! An edit toggles its constant between zero and a non-zero value. A
//! non-zero constant reveals an integer type and zero does not, so every
//! edit changes the inferred types: an edit answered with the previous
//! text's result fails the check against a cacheless solve.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use manta::cache::{encode_result, results_identical};
use manta::{AnalysisCache, Engine, InferenceResult, Manta, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_ir::{BinOp, Module, ModuleBuilder, Width};
use manta_store::{hash_bytes, hash_str};
use manta_workloads::rng::ChaCha8Rng;

use crate::corpus::score_labeled;
use crate::trace::Op;
use crate::{
    calls, host, out_dir, set_up, Args, Digests, Outcome, Size, SETUP_AFTER, SETUP_BEFORE,
};

/// Chain depth per cluster and users per cluster (even users pass
/// integers, odd users heap pointers).
const DEPTH: usize = 40;
const USERS: usize = 4;

/// Edits whose digests `--write-digests` stores.
const STORED_EDITS: u64 = 300;

fn clusters(size: Size) -> usize {
    match size {
        Size::Full => 48,
        Size::Smoke => 3,
    }
}

/// The cluster module; `consts[k][j]` is the multiplier of cluster
/// `k`'s int user `2j`.
fn cluster_module(consts: &[[i64; 2]]) -> Module {
    let mut mb = ModuleBuilder::new("clusters");
    let malloc = mb.extern_fn("malloc", &[], None);
    for (k, users) in consts.iter().enumerate() {
        let mut callee = None;
        for i in (0..DEPTH).rev() {
            let (f, mut fb) = mb.function(&format!("w{k}_{i}"), &[Width::W64], Some(Width::W64));
            let x = fb.param(0);
            fb.binop(BinOp::Add, x, x, Width::W64);
            let out = match callee {
                Some(next) => fb
                    .call(next, &[x], Some(Width::W64))
                    .expect("a call with a result width yields a value"),
                None => x,
            };
            fb.ret(Some(out));
            mb.finish_function(fb);
            callee = Some(f);
        }
        let head = callee.expect("DEPTH > 0");
        for u in 0..USERS {
            let (_, mut ub) = mb.function(&format!("u{k}_{u}"), &[Width::W64], None);
            let arg = if u % 2 == 0 {
                let n = ub.const_int(users[u / 2], Width::W64);
                let p = ub.param(0);
                ub.binop(BinOp::Mul, n, p, Width::W64)
            } else {
                let bytes = ub.const_int(16, Width::W64);
                ub.call_extern(malloc, &[bytes], Some(Width::W64))
                    .expect("a call with a result width yields a value")
            };
            let r = ub
                .call(head, &[arg], Some(Width::W64))
                .expect("a call with a result width yields a value");
            if u % 2 == 0 {
                let slot = ub.alloca(8);
                ub.store(slot, r);
            } else {
                ub.load(r, Width::W64);
            }
            ub.ret(None);
            mb.finish_function(ub);
        }
    }
    mb.finish()
}

struct Session {
    engine: Engine,
    dir: PathBuf,
    consts: Vec<[i64; 2]>,
    text: String,
    base: InferenceResult,
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One op: parse, build the substrate, analyze.
fn edit_op(
    op: &mut Op,
    engine: &Engine,
    text: &str,
    out: &mut Outcome,
) -> Result<(ModuleAnalysis, InferenceResult), String> {
    let module = calls::parse(op, text)?;
    let budget = engine.budget().start();
    let analysis = calls::build(op, engine, module, &budget)?;
    let result = calls::analyze(
        op,
        engine,
        true,
        &analysis,
        &budget,
        &mut out.lookups,
        &mut out.chunks,
    )?;
    Ok((analysis, result))
}

/// Generates the module, opens a fresh cache and populates it cold.
fn setup(size: Size, dir: &Path) -> Result<Session, String> {
    let consts = vec![[7, 7]; clusters(size)];
    let text = manta_ir::printer::print_module(&cluster_module(&consts));
    let _ = std::fs::remove_dir_all(dir);
    let cache = Arc::new(AnalysisCache::open(dir).map_err(|e| e.to_string())?);
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache)
        .summaries(true)
        .build()
        .map_err(|e| e.to_string())?;
    let mut scratch = Outcome::default();
    let mut op = Op::begin(0, false);
    let (_, base) = edit_op(&mut op, &engine, &text, &mut scratch)?;
    let _ = op.end();
    Ok(Session {
        engine,
        dir: dir.to_path_buf(),
        consts,
        text,
        base,
    })
}

/// Checks an edit's result against a cacheless `Manta::infer` of the
/// same text and the stored digest.
fn check_edit(
    index: u64,
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    digests: &mut Digests,
) -> Result<(), String> {
    let reference = Manta::new(MantaConfig::full()).infer(analysis);
    if !results_identical(result, &reference) {
        return Err(format!(
            "edit {index}: result differs from a cacheless solve"
        ));
    }
    if !digests.check("edit", index, hash_bytes(&encode_result(result))) {
        return Err(format!("edit {index}: digest differs from the stored one"));
    }
    Ok(())
}

/// Checks the cache path op `rep` of an edit group took, from the result
/// lookups and hits `calls::analyze` counted during it: an edit to a text
/// not analyzed before must miss the result cache, and each re-query
/// must hit it.
fn check_path(
    edit: u64,
    rep: usize,
    new_text: bool,
    lookups: u64,
    hits: u64,
) -> Result<(), String> {
    match (rep, lookups, hits) {
        (0, 1, 0) | (1.., 1, 1) => Ok(()),
        (0, 1, 1) if !new_text => Ok(()),
        (0, ..) => Err(format!(
            "edit {edit}: {hits} of {lookups} result lookups hit the cache"
        )),
        _ => Err(format!(
            "edit {edit}: re-query {rep} hit {hits} of {lookups} result lookups"
        )),
    }
}

pub fn run(args: &Args, digests: &mut Digests) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = |phase: &str, rep: u64| {
        out_dir().join(format!("edit-cache-{}-{phase}{rep}", std::process::id()))
    };
    let cpus = host::CpuSpread::new();
    let mut s = set_up(SETUP_BEFORE, &mut out.setup_s, &cpus, |rep| {
        cpus.pin(rep);
        setup(args.size, &dir("before", rep))
    })?;
    // Edit 0 is the unedited module the cold population solved.
    let base = s.base.clone();
    let mut check = |index, analysis: &ModuleAnalysis, result: &InferenceResult| {
        check_edit(index, analysis, result, digests)
    };
    {
        let module = manta_ir::parser::parse_module(&s.text).map_err(|e| e.to_string())?;
        let analysis = ModuleAnalysis::build(module);
        if let Err(e) = check(0, &analysis, &base) {
            out.fail(e);
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut edit = 0u64;
    let mut k = 0u64;
    // Result bytes of the current text, and hashes of every text analyzed
    // so far: an edit back to an earlier text rightly hits the cache.
    let mut current = encode_result(&base);
    let mut seen = HashSet::from([hash_str(&s.text)]);
    while start.elapsed() < window || (args.write_digests && edit < STORED_EDITS) {
        edit += 1;
        let cluster = rng.gen_range(0..s.consts.len());
        let user = rng.gen_range(0..2usize);
        let c = &mut s.consts[cluster][user];
        *c = if *c == 0 { 1000 + edit as i64 } else { 0 };
        s.text = manta_ir::printer::print_module(&cluster_module(&s.consts));
        let new_text = seen.insert(hash_str(&s.text));
        // Edit then two re-queries, traced or untraced as one group.
        let traced = args.traced_op(edit);
        let mut first: Option<(ModuleAnalysis, InferenceResult, Vec<u8>)> = None;
        for rep in 0..3 {
            let (lookups, hits) = out.lookups;
            cpus.place(k);
            let mut op = Op::begin(k, traced);
            let done = edit_op(&mut op, &s.engine, &s.text, &mut out);
            let time = op.end();
            k += 1;
            let path = check_path(
                edit,
                rep,
                new_text,
                out.lookups.0 - lookups,
                out.lookups.1 - hits,
            );
            let checked = done.and_then(|(analysis, result)| {
                path?;
                match &first {
                    None => {
                        let bytes = encode_result(&result);
                        first = Some((analysis, result, bytes));
                        Ok(())
                    }
                    Some((_, _, bytes)) if *bytes == encode_result(&result) => Ok(()),
                    Some(_) => Err(format!("edit {edit}: re-query differs from the edit")),
                }
            });
            out.op(time, traced, checked);
        }
        if let Some((analysis, result, bytes)) = first {
            // An edit whose answer equals the previous text's could not
            // show a stale answer to the check below.
            if bytes == current {
                out.fail(format!("edit {edit}: inferred types did not change"));
            }
            if let Err(e) = check(edit, &analysis, &result) {
                out.fail(e);
            }
            current = bytes;
        }
    }
    out.busy_s = out.latencies.iter().sum::<f64>() / 1e3;
    set_up(SETUP_AFTER, &mut out.setup_s, &cpus, |rep| {
        cpus.pin(rep);
        setup(args.size, &dir("after", rep))
    })?;
    out.rows
        .push(format!("ops and set-ups spread over {} CPUs", cpus.count()));
    drop(cpus);
    let mut scratch = Outcome::default();
    out.quality = score_labeled(args.size, |text| {
        let mut op = Op::begin(u64::MAX, false);
        let done = edit_op(&mut op, &s.engine, text, &mut scratch);
        let _ = op.end();
        done
    })?;
    Ok(out)
}
