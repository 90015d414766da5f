//! `serve`: the analysis daemon under a closed loop of two connections,
//! matching `nproc`.
//!
//! An in-process `manta_serve::Server` with the default config (two
//! workers, queue of 8) and a fresh cache answers FI+CS+FS `Analyze`
//! requests for ten suite-style modules of 100–500 functions, sent as IR
//! text with skewed (Zipf) popularity. The module set is fixed, like a
//! daemon's working set of targets; the seed draws each connection's
//! request sequence from it. Every request except each module's first is
//! a cache hit, which still parses the text and rebuilds the substrate:
//! parse and substrate dominate while inference barely runs. It is the
//! only workload that goes through the wire protocol and the admission
//! queue.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use manta::cache::{decode_result, encode_result};
use manta::{AnalysisCache, Engine, InferenceResult, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_serve::proto::{Request, Response};
use manta_serve::{Client, ServeConfig, Server};
use manta_store::hash_bytes;
use manta_store::splitmix64;
use manta_workloads::rng::ChaCha8Rng;

use crate::calls::{self, Chunks, Path as CachePath};
use crate::corpus::{log_sizes, score_labeled, suite_program};
use crate::trace::{replay, Layer, Op, SpanId};
use crate::{host, out_dir, set_up, Args, Digests, Outcome, Size, SETUP_AFTER, SETUP_BEFORE};

const CONNECTIONS: usize = 2;

/// Generator seed of the module set.
const MODULE_SEED: u64 = 0x5e;

struct Target {
    text: String,
    request: Request,
}

/// An FI+CS+FS `Analyze` request for a module's text.
fn analyze_request(text: &str) -> Request {
    Request::Analyze {
        module_text: text.to_string(),
        sensitivity: Sensitivity::FiCsFs,
        fuel: None,
        deadline_ms: None,
    }
}

/// Ten suite projects of ~100–500 functions (generator sizes 35–165).
fn targets(size: Size) -> Vec<Target> {
    let (suite, lo, hi) = match size {
        Size::Full => (10, 35, 165),
        Size::Smoke => (3, 7, 13),
    };
    log_sizes(suite, lo, hi)
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let text = manta_ir::printer::print_module(&suite_program(MODULE_SEED, i, f).module);
            Target {
                request: analyze_request(&text),
                text,
            }
        })
        .collect()
}

/// Sends `request` and returns the served result bytes; an error, a
/// refusal or a degraded result is a failure.
fn call_analyze(client: &mut Client, request: &Request) -> Result<Vec<u8>, String> {
    match client.call(request) {
        Ok(Response::Analyzed {
            result,
            degraded: false,
            ..
        }) => Ok(result),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The daemon's answer for a module's text, decoded, beside a locally
/// built substrate to score it on.
fn served_analysis(
    client: &mut Client,
    text: &str,
) -> Result<(ModuleAnalysis, InferenceResult), String> {
    let bytes = call_analyze(client, &analyze_request(text))?;
    let result = decode_result(&bytes).map_err(|e| format!("decode: {e}"))?;
    let module = manta_ir::parser::parse_module(text).map_err(|e| e.to_string())?;
    Ok((ModuleAnalysis::build(module), result))
}

/// A running daemon and its store, removed when dropped.
struct Daemon {
    server: Option<Server>,
    cache: Arc<AnalysisCache>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cache = Arc::new(AnalysisCache::open(dir).map_err(|e| e.to_string())?);
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .cache(Arc::clone(&cache))
            .build()
            .map_err(|e| e.to_string())?;
        let server = Server::spawn(engine, ServeConfig::default()).map_err(|e| e.to_string())?;
        let daemon = Daemon {
            server: Some(server),
            cache,
            dir: dir.to_path_buf(),
        };
        // Started means answering: one ping on a fresh connection.
        let addr = daemon.addr().ok_or("daemon is not running")?;
        match Client::connect(addr).and_then(|mut c| c.call(&Request::Ping)) {
            Ok(Response::Pong) => Ok(daemon),
            other => Err(format!("daemon did not answer a ping: {other:?}")),
        }
    }

    fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(Server::addr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cumulative Zipf weights over a fixed permutation of the modules.
fn popularity(n: usize) -> Vec<(f64, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(MODULE_SEED);
    let mut modules: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        modules.swap(i, rng.gen_range(0..=i));
    }
    let mut total = 0.0;
    modules
        .into_iter()
        .enumerate()
        .map(|(rank, m)| {
            total += 1.0 / (rank + 1) as f64;
            (total, m)
        })
        .collect()
}

fn pick(cumulative: &[(f64, usize)], rng: &mut ChaCha8Rng) -> usize {
    let total = cumulative.last().map_or(0.0, |c| c.0);
    let u = rng.gen() * total;
    cumulative
        .iter()
        .find(|(c, _)| u < *c)
        .or(cumulative.last())
        .map_or(0, |c| c.1)
}

/// One connection's share of the run.
#[derive(Default)]
struct Connection {
    out: Outcome,
    /// `(module, digest of the served result bytes)` per answered request.
    served: Vec<(usize, u64)>,
}

/// The constituents of one `Client::call` under `parent`, replayed on a
/// local engine with its own cache: parse, the substrate and the analyze
/// along the daemon's path (a miss for a module's first request).
#[allow(clippy::too_many_arguments)]
fn replay_call(
    op: u64,
    parent: SpanId,
    text: &str,
    local: &Engine,
    first: bool,
    cached: &mut bool,
    served: &[u8],
    chunks: &mut Chunks,
) -> Result<(), String> {
    let budget = local.budget().start();
    if !first && !*cached {
        // The daemon answered from its cache; give the local cache the
        // same entry, untimed, so the replay takes the hit path too.
        let module = manta_ir::parser::parse_module(text).map_err(|e| e.to_string())?;
        let analysis = local
            .build_substrate(module, &budget)
            .map_err(|e| e.to_string())?;
        calls::checked(
            local
                .analyze_with_budget(&analysis, &budget)
                .map_err(|e| e.to_string()),
        )?;
        *cached = true;
    }
    let (module, _) = replay(op, Layer::IrParse, parent, || {
        manta_ir::parser::parse_module(text)
    });
    let module = module.map_err(|e| format!("parse: {e}"))?;
    let copy = module.clone();
    let (analysis, build) = replay(op, Layer::AnalysisBuild, parent, || {
        local.build_substrate(module, &budget)
    });
    let analysis = analysis.map_err(|e| format!("substrate: {e}"))?;
    calls::replay_substrate(op, build, copy, &analysis)?;
    let (result, analyze) = replay(op, Layer::EngineAnalyze, parent, || {
        local.analyze_with_budget(&analysis, &budget)
    });
    let result = calls::checked(result.map_err(|e| e.to_string()))?;
    let path = if *cached {
        CachePath::Hit
    } else {
        CachePath::Miss
    };
    *cached = true;
    calls::replay_analyze(
        op,
        analyze,
        local.config(),
        local.cache(),
        path,
        &analysis,
        &result,
        chunks,
    )?;
    if encode_result(&result) == served {
        Ok(())
    } else {
        Err("served result differs from its replayed constituents".to_string())
    }
}

#[allow(clippy::too_many_arguments)]
fn connection(
    index: usize,
    args: &Args,
    addr: SocketAddr,
    targets: &[Target],
    cumulative: &[(f64, usize)],
    claimed: &[AtomicBool],
    deadline: Instant,
) -> Result<Connection, String> {
    let mut conn = Connection::default();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(args.seed) ^ index as u64);
    let replay_dir = out_dir().join(format!("serve-replay-{}-{index}", std::process::id()));
    let local = if args.trace {
        let _ = std::fs::remove_dir_all(&replay_dir);
        let cache = AnalysisCache::open(&replay_dir).map_err(|e| e.to_string())?;
        Some(
            Engine::builder()
                .config(MantaConfig::full())
                .cache(Arc::new(cache))
                .build()
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let mut cached = vec![false; targets.len()];
    let mut k = 0u64;
    while Instant::now() < deadline {
        let m = pick(cumulative, &mut rng);
        let first = !claimed[m].swap(true, Ordering::SeqCst);
        let traced = args.traced_op(k);
        let mut op = Op::begin(((index as u64) << 40) | k, traced);
        let (answer, span) = op.call(Layer::ServeCall, || {
            call_analyze(&mut client, &targets[m].request)
        });
        let served = answer.map_err(|e| format!("module {m}: {e}"));
        let replayed = match (&served, span, &local) {
            (Ok(bytes), Some(span), Some(local)) => op.aside(|id| {
                replay_call(
                    id,
                    span,
                    &targets[m].text,
                    local,
                    first,
                    &mut cached[m],
                    bytes,
                    &mut conn.out.chunks,
                )
            }),
            _ => Ok(()),
        };
        let time = op.end();
        let checked = served.and_then(|bytes| {
            conn.served.push((m, hash_bytes(&bytes)));
            replayed
        });
        conn.out.op(time, traced, checked);
        k += 1;
    }
    drop(client);
    let _ = std::fs::remove_dir_all(&replay_dir);
    Ok(conn)
}

pub fn run(args: &Args, digests: &mut Digests) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-ups generate the modules pinned to each CPU in turn, but start
    // the daemon unpinned: its threads would inherit a pin.
    let cpus = host::CpuSpread::new();
    let setup = |phase: &str, rep: u64| {
        cpus.pin(rep);
        let targets = targets(args.size);
        cpus.unpin();
        let dir = out_dir().join(format!("serve-cache-{}-{phase}{rep}", std::process::id()));
        Ok((targets, Daemon::start(&dir)?))
    };
    let (targets, daemon) = set_up(SETUP_BEFORE, &mut out.setup_s, &cpus, |rep| {
        setup("before", rep)
    })?;
    let addr = daemon.addr().ok_or("daemon is not running")?;
    let cumulative = popularity(targets.len());
    let claimed: Vec<AtomicBool> = targets.iter().map(|_| AtomicBool::new(false)).collect();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let connections: Vec<Result<Connection, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|i| {
                let (targets, cumulative, claimed) = (&targets, &cumulative, &claimed);
                s.spawn(move || connection(i, args, addr, targets, cumulative, claimed, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    out.busy_s = start.elapsed().as_secs_f64();
    let traffic = daemon
        .cache
        .store()
        .kind_traffic()
        .into_iter()
        .find(|(kind, _, _)| *kind == "infer")
        .map_or((0, 0), |(_, hits, misses)| (hits + misses, hits));
    out.lookups = traffic;
    // Quality of the daemon's answers, scored after the window.
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    out.quality = score_labeled(args.size, |text| served_analysis(&mut client, text))?;
    drop(client);
    drop(daemon);
    set_up(SETUP_AFTER, &mut out.setup_s, &cpus, |rep| {
        setup("after", rep)
    })?;

    let mut served = Vec::new();
    for c in connections {
        let c = c?;
        out.merge(c.out);
        served.extend(c.served);
    }

    // Every served result must equal an in-process, cacheless analysis
    // of the same module.
    let engine = Engine::new(MantaConfig::full());
    for (m, target) in targets.iter().enumerate() {
        let module = manta_ir::parser::parse_module(&target.text).map_err(|e| e.to_string())?;
        let (_, result) = engine.analyze_module(module).map_err(|e| e.to_string())?;
        let result = calls::checked(Ok(result))?;
        let digest = hash_bytes(&encode_result(&result));
        if !digests.check("serve", m as u64, digest) {
            out.fail(format!(
                "module {m}: reference digest differs from the stored one"
            ));
        }
        for _ in served.iter().filter(|&&(sm, d)| sm == m && d != digest) {
            out.fail(format!(
                "module {m}: served bytes differ from encode_result"
            ));
        }
    }
    Ok(out)
}
