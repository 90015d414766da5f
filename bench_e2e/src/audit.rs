//! `audit`: batch analysis of stripped images, a closed loop with one
//! caller.
//!
//! The corpus is mostly suite-style projects with sizes log-uniform over
//! ~30 to ~2500 functions, alternately SB-ISA and x86 encoded, plus
//! scaled firmware images given as textual IR (`emit_dual` cannot lower
//! them). One op is what `manta bugs` and `manta icall` do together:
//! detect the frontend and lift (or parse), build the substrate, run the
//! FI+CS+FS cascade without a cache, the bug checkers, and indirect-call
//! resolution. Images share no work, so lift, the substrate, inference
//! and the clients all run cold.
//!
//! The corpus is fixed, so every seed measures the same images; the seed
//! picks where in the op order a run starts.

use std::time::{Duration, Instant};

use manta::cache::encode_result;
use manta::{Engine, InferenceResult, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_clients::{
    detect_bugs, indirect_call_sites, resolve_targets_manta, BugKind, BugReport, CheckerConfig,
};
use manta_ir::FuncId;
use manta_store::{hash_bytes, hash_str, splitmix64};
use manta_workloads::{emit_dual, GroundTruth};

use crate::corpus::{firmware_program, log_sizes, spread_order, suite_program, Quality};
use crate::trace::{Layer, Op};
use crate::{calls, host, set_up, Args, Digests, Outcome, Size, SETUP_AFTER, SETUP_BEFORE};

/// Generator seed of the corpus.
const CORPUS_SEED: u64 = 0xa0d1;

struct Image {
    name: String,
    functions: usize,
    frontend: &'static str,
    bytes: Vec<u8>,
    truth: GroundTruth,
    firmware: bool,
}

/// `(suite images, lo, hi generator size, firmware images, lo, hi
/// noise)`. A suite project of generator size `n` has about `3n`
/// functions, so the suite spans ~30 to ~2500 functions.
fn sizing(size: Size) -> (usize, usize, usize, usize, usize, usize) {
    match size {
        Size::Full => (64, 10, 830, 16, 40, 800),
        Size::Smoke => (3, 7, 20, 1, 10, 20),
    }
}

/// Generates and encodes the corpus: suite images first in ascending
/// size, then firmware images.
fn corpus(size: Size) -> Result<Vec<Image>, String> {
    let (suite, lo, hi, firmware, fw_lo, fw_hi) = sizing(size);
    let mut images = Vec::new();
    for (i, functions) in log_sizes(suite, lo, hi).into_iter().enumerate() {
        let program = suite_program(CORPUS_SEED, i, functions);
        let dual = emit_dual(&program.module).map_err(|e| format!("encode suite{i}: {e}"))?;
        let (frontend, bytes) = if i % 2 == 0 {
            ("sb", dual.sb_bytes())
        } else {
            ("x86", dual.x86_bytes())
        };
        images.push(Image {
            name: program.module.name().to_string(),
            functions: program.module.function_count(),
            frontend,
            bytes,
            truth: program.truth,
            firmware: false,
        });
    }
    for (i, noise) in log_sizes(firmware, fw_lo, fw_hi).into_iter().enumerate() {
        let program = firmware_program(CORPUS_SEED, i, noise);
        images.push(Image {
            name: program.module.name().to_string(),
            functions: program.module.function_count(),
            frontend: "ir",
            bytes: manta_ir::printer::print_module(&program.module).into_bytes(),
            truth: program.truth,
            firmware: true,
        });
    }
    Ok(images)
}

/// Suite images in spread order with the firmware images interleaved
/// evenly, so any prefix of a run sees the whole corpus's mix.
fn op_order(suite: usize, firmware: usize) -> Vec<usize> {
    let fw = spread_order(firmware);
    let mut order = Vec::with_capacity(suite + firmware);
    let mut next_fw = 0;
    for (k, s) in spread_order(suite).into_iter().enumerate() {
        order.push(s);
        while next_fw < firmware && (next_fw + 1) * suite <= (k + 1) * firmware {
            order.push(suite + fw[next_fw]);
            next_fw += 1;
        }
    }
    order.extend(fw[next_fw..].iter().map(|f| suite + f));
    order
}

struct Output {
    analysis: ModuleAnalysis,
    result: InferenceResult,
    reports: Vec<BugReport>,
    targets: Vec<Vec<FuncId>>,
    insts: usize,
}

impl Output {
    /// Digest of the canonical result bytes, the bug reports and the
    /// icall target sets.
    fn digest(&self) -> u64 {
        hash_bytes(&encode_result(&self.result))
            ^ hash_str(&format!("{:?}", self.reports)).rotate_left(21)
            ^ hash_str(&format!("{:?}", self.targets)).rotate_left(42)
    }
}

fn audit_op(
    op: &mut Op,
    engine: &Engine,
    image: &Image,
    out: &mut Outcome,
) -> Result<Output, String> {
    let module = calls::load(op, &image.bytes)?;
    let insts = if op.traced() {
        op.aside(|_| module.functions().map(|f| f.inst_count()).sum())
    } else {
        0
    };
    let budget = engine.budget().start();
    let analysis = calls::build(op, engine, module, &budget)?;
    let result = calls::analyze(
        op,
        engine,
        false,
        &analysis,
        &budget,
        &mut out.lookups,
        &mut out.chunks,
    )?;
    let (reports, _) = op.call(Layer::ClientsCheckers, || {
        detect_bugs(
            &analysis,
            Some(&result),
            &BugKind::ALL,
            CheckerConfig::default(),
        )
        .0
    });
    let (targets, _) = op.call(Layer::ClientsIcall, || {
        indirect_call_sites(&analysis)
            .iter()
            .map(|site| resolve_targets_manta(&analysis, &result, site))
            .collect()
    });
    Ok(Output {
        analysis,
        result,
        reports,
        targets,
        insts,
    })
}

/// What the checks remember across ops.
struct Seen {
    digest: Vec<Option<u64>>,
    quality: Quality,
}

impl Seen {
    /// Checks one op's outputs: equal to the image's earlier outputs in
    /// this run and to the stored digest; the first sight of an image
    /// scores it.
    fn check(
        &mut self,
        index: usize,
        image: &Image,
        output: &Output,
        digests: &mut Digests,
    ) -> Result<(), String> {
        let digest = output.digest();
        match self.digest[index] {
            Some(d) if d != digest => {
                return Err(format!("{}: output differs from an earlier op", image.name))
            }
            Some(_) => return Ok(()),
            None => self.digest[index] = Some(digest),
        }
        self.quality.add(
            &output.analysis,
            &output.result,
            &image.truth,
            image.firmware.then_some(output.reports.as_slice()),
        );
        if digests.check("audit", index as u64, digest) {
            Ok(())
        } else {
            Err(format!(
                "{}: output digest differs from the stored one",
                image.name
            ))
        }
    }
}

pub fn run(args: &Args, digests: &mut Digests) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cpus = host::CpuSpread::new();
    let images = set_up(SETUP_BEFORE, &mut out.setup_s, &cpus, |rep| {
        cpus.pin(rep);
        corpus(args.size)
    })?;
    let (suite, _, _, firmware, _, _) = sizing(args.size);
    let order = op_order(suite, firmware);
    let first = splitmix64(args.seed) as usize % order.len();
    let engine = Engine::new(MantaConfig::full());
    let mut seen = Seen {
        digest: vec![None; images.len()],
        quality: Quality::default(),
    };

    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < window || (args.write_digests && (k as usize) < images.len()) {
        let traced = args.traced_op(k);
        let slot = if args.trace { k / 2 } else { k };
        let index = order[(first + slot as usize) % order.len()];
        let image = &images[index];
        cpus.place(k);
        let mut op = Op::begin(k, traced);
        let output = audit_op(&mut op, &engine, image, &mut out);
        let time = op.end();
        let checked = output.and_then(|o| {
            if traced {
                out.rows.push(format!(
                    "fig10 image={} frontend={} funcs={} insts={} wall_ms={:.3} alloc_mib={:.3}",
                    image.name,
                    image.frontend,
                    image.functions,
                    o.insts,
                    time.ms(),
                    time.bytes as f64 / (1024.0 * 1024.0)
                ));
            }
            seen.check(index, image, &o, digests)
        });
        out.op(time, traced, checked);
        k += 1;
    }
    out.busy_s = out.latencies.iter().sum::<f64>() / 1e3;
    set_up(SETUP_AFTER, &mut out.setup_s, &cpus, |rep| {
        cpus.pin(rep);
        corpus(args.size)
    })?;
    out.rows
        .push(format!("ops and set-ups spread over {} CPUs", cpus.count()));
    drop(cpus);

    // Quality covers the whole corpus whatever the window reached:
    // images the loop never visited are analyzed now, untimed.
    for (index, image) in images.iter().enumerate() {
        if seen.digest[index].is_none() {
            let mut op = Op::begin(u64::MAX, false);
            let output = audit_op(&mut op, &engine, image, &mut out);
            let _ = op.end();
            out.attempted += 1;
            if let Err(e) = output.and_then(|o| seen.check(index, image, &o, digests)) {
                out.fail(e);
            }
        }
    }
    out.quality = seen.quality;
    Ok(out)
}
