//! # manta-cli
//!
//! The `manta` command-line tool: drive the whole pipeline on files.
//!
//! ```text
//! manta asm    prog.s -o prog.sbf     assemble SB-ISA text to an SBF image
//! manta disasm prog.sbf               disassemble an SBF image
//! manta lift   prog.sbf               lift to SSA IR and print it
//! manta infer  prog.sbf [-s SENS]     infer types (fi|fs|fifs|full|fifscs)
//! manta bugs   prog.sbf [--no-types]  run the NPD/RSA/UAF/CMI/BOF checkers
//! manta icall  prog.sbf               resolve indirect-call targets
//! manta stats  prog.sbf               full-pipeline stage cost breakdown
//! manta explain prog.sbf f v0         backward type-derivation tree of one value
//! manta profile prog.sbf              run everything traced, print a time summary
//! manta serve  ADDR [--cache-dir D]   run the analysis daemon (see manta-serve)
//! manta client ADDR CMD [...]         talk to a daemon: ping|analyze|stats|shutdown
//! ```
//!
//! `infer`, `bugs` and `icall` additionally take `--trace` (print the span
//! tree to stderr), `--stats <out.json>` (write the full telemetry
//! report as JSON) and `--trace-out <trace.json>` (write a Chrome
//! trace-event file with thread ids and monotonic timestamps, loadable
//! in Perfetto or `chrome://tracing`), plus the resilience flags `--fuel <N>`,
//! `--budget-ms <N>` (cooperative budgets; a blown budget degrades the
//! run to the last completed sensitivity tier) and `--strict` (propagate
//! budget/panic errors instead of degrading).
//!
//! Every command accepts `--threads <N>` to size the intra-module
//! work-stealing pool (default: `available_parallelism`; `1` forces a
//! fully serial run). Results are bit-identical at every thread count.
//!
//! `infer`, `bugs`, `icall` and `stats` accept `--cache-dir <dir>` to
//! persist analysis results across invocations (and `--no-cache` to
//! force a cold run): inference results are keyed by content and config
//! hashes, and a corrupt store is silently discarded and recomputed.
//! Warm output is bit-identical to cold output.
//!
//! Inputs may be binary images in any registered frontend's container —
//! SBF (`SBF1` magic, SB-ISA code) or XLF (`\x7fELF` magic, x86-64-subset
//! code) — SB-ISA assembly text, or textual IR (`module …` followed by
//! `func name(wN,…)` headers); the format is sniffed automatically.
//! `--frontend <name>` overrides the sniffing for binary inputs.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use manta::{
    AnalysisCache, Engine, EngineBuilder, InferenceResult, Sensitivity, TypeQuery, VarClass,
};
use manta_analysis::{ModuleAnalysis, VarRef};
use manta_clients::{
    detect_bugs, indirect_call_sites, resolve_targets_manta, BugKind, CheckerConfig,
};
use manta_ir::{Frontend, Module};
use manta_resilience::{Budget, BudgetSpec, MantaError};
use manta_telemetry::{JsonSink, TelemetrySink, TextSink};

/// A CLI failure, printed to stderr with exit code 1.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Usage text.
pub const USAGE: &str = "\
manta — hybrid-sensitive type inference for stripped binaries

USAGE:
    manta asm    <prog.s> -o <prog.bin> [--frontend sb|x86]
    manta disasm <prog.sbf>
    manta lift   <input>
    manta infer  <input> [-s fi|fs|fifs|full|fifscs] [--trace] [--stats <out.json>]
    manta bugs   <input> [--no-types] [--trace] [--stats <out.json>]
    manta icall  <input> [--trace] [--stats <out.json>]
    manta stats  <input>
    manta explain <input> <function> <value>
    manta profile <input> [--trace-out <trace.json>]
    manta serve  <addr> [--workers <N>] [--queue <N>] [--gc-bytes <N>]
                 [--gc-every <N>] [--fuel-cap <N>] [--deadline-cap-ms <N>]
    manta client <addr> ping
    manta client <addr> stats
    manta client <addr> shutdown
    manta client <addr> analyze <input> [-s SENS] [--fuel <N>] [--budget-ms <N>]

<input> is a binary image (SBF or XLF, detected by magic), SB-ISA
assembly, or textual IR (auto-detected).

FRONTENDS (all commands taking <input>):
    --frontend <name> force a binary frontend instead of sniffing the
                      image magic: `sb` (SB-ISA, SBF container) or `x86`
                      (x86-64 subset, XLF ELF-subset container).
                      `manta asm --frontend x86` assembles the Intel-like
                      x86 syntax into an XLF image instead of SB-ISA

OBSERVABILITY:
    --trace           print the hierarchical span tree to stderr afterwards
    --stats <file>    write spans, counters and histograms as JSON
    --trace-out <file> write a Chrome trace-event JSON file (ph \"X\"
                      complete events with thread ids and microsecond
                      timestamps; open in Perfetto or chrome://tracing)
    manta stats       run the whole pipeline (substrate, full cascade,
                      checkers, icall) and print the cost breakdown
    manta explain     run inference with provenance recording on and
                      print the backward derivation tree of one value;
                      values use the printer's names (p0, p1, v0, v1, …)
    manta profile     run the whole pipeline with tracing on and print
                      a per-span cumulative time summary

RESILIENCE (infer, bugs, icall, stats):
    --fuel <N>        abstract work budget; the pipeline degrades to the
                      last completed sensitivity tier when it runs out
    --budget-ms <N>   wall-clock budget with the same degradation behavior
    --strict          propagate budget/panic errors instead of degrading

PARALLELISM (all commands):
    --threads <N>     worker threads for the intra-module work-stealing
                      pool (0 or omitted = available_parallelism, 1 =
                      serial); output is bit-identical at any thread count

CACHING (infer, bugs, icall, stats):
    --cache-dir <dir> persistent analysis cache: inference results are
                      keyed by (content hash, config hash) and served on
                      warm runs. A corrupt or version-mismatched cache is
                      discarded and recomputed, never trusted. Warm output
                      is bit-identical to cold output at any thread count
    --no-cache        ignore --cache-dir (force a cold run)

SERVING:
    manta serve       run the analysis daemon on <addr> (e.g. 127.0.0.1:7777;
                      port 0 picks an ephemeral port, printed on startup).
                      --cache-dir gives every session one shared store;
                      --workers bounds concurrent analyses, --queue bounds
                      how many wait (a full queue answers Overloaded),
                      --gc-bytes/--gc-every run size-capped LRU store GC,
                      --fuel-cap/--deadline-cap-ms clamp tenant budgets
    manta client      talk to a daemon: ping, stats, shutdown (graceful
                      drain), or analyze a local file remotely; --fuel and
                      --budget-ms ride along as the request's budget
";

/// The registered binary-image frontends, in sniffing order.
pub fn frontends() -> [&'static dyn Frontend; 2] {
    [&manta_isa::lift::SbFrontend, &manta_x86::X86Frontend]
}

/// Resolves a `--frontend <name>` value against the registry.
fn frontend_by_name(name: &str) -> Result<&'static dyn Frontend, CliError> {
    frontends()
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| CliError(format!("unknown frontend `{name}`\n{}", frontend_listing())))
}

/// One line per registered frontend, for error messages.
fn frontend_listing() -> String {
    let mut s = String::from("available frontends:\n");
    for f in frontends() {
        let _ = writeln!(s, "  {:<4} {}", f.name(), f.describe());
    }
    s
}

/// Loads any supported input file into an IR module.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable files or unrecognized formats.
pub fn load_module(path: &Path) -> Result<Module, CliError> {
    load_module_as(path, None)
}

/// Like [`load_module`], with an optional forced binary frontend
/// (`--frontend`). Without one, binary inputs are dispatched on their
/// image magic across every registered frontend.
pub fn load_module_as(
    path: &Path,
    forced: Option<&'static dyn Frontend>,
) -> Result<Module, CliError> {
    match read_input(path, forced)? {
        Input::Lifted(module) => Ok(module),
        Input::Text(text) => manta_isa::parse_source(&text).map_err(|e| CliError(e.to_string())),
    }
}

/// An input file: a binary image, already lifted, or source text for
/// `manta_isa::parse_source`.
enum Input {
    Lifted(Module),
    Text(String),
}

/// Reads `path`, lifting it when a frontend (the forced one, else the
/// one whose image magic it starts with) takes it.
fn read_input(path: &Path, forced: Option<&'static dyn Frontend>) -> Result<Input, CliError> {
    let bytes =
        fs::read(path).map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))?;
    let lift = |fe: &dyn Frontend| match fe.lift_bytes(&bytes) {
        Ok(module) => Ok(Input::Lifted(module)),
        Err(e) => Err(CliError(e.to_string())),
    };
    if let Some(fe) = forced {
        return lift(fe);
    }
    if let Some(fe) = frontends().into_iter().find(|fe| fe.detects(&bytes)) {
        return lift(fe);
    }
    match String::from_utf8(bytes) {
        Ok(text) => Ok(Input::Text(text)),
        Err(_) => err(format!(
            "{}: unrecognized image magic\n{}",
            path.display(),
            frontend_listing()
        )),
    }
}

fn parse_sensitivity(s: &str) -> Result<Sensitivity, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "fi" => Sensitivity::Fi,
        "fs" => Sensitivity::Fs,
        "fifs" | "fi+fs" => Sensitivity::FiFs,
        "full" | "ficsfs" | "fi+cs+fs" => Sensitivity::FiCsFs,
        "fifscs" | "fi+fs+cs" => Sensitivity::FiFsCs,
        other => return err(format!("unknown sensitivity `{other}`")),
    })
}

/// Telemetry-related flags shared by `infer`, `bugs` and `icall`.
#[derive(Debug, Default)]
struct TelemetryOpts {
    trace: bool,
    stats: Option<String>,
    trace_out: Option<String>,
}

/// Strips `--trace` / `--stats <file>` / `--trace-out <file>` from
/// anywhere in the argument list.
fn extract_telemetry_flags(args: &[String]) -> Result<(Vec<String>, TelemetryOpts), CliError> {
    let mut opts = TelemetryOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => opts.trace = true,
            "--stats" => match it.next() {
                Some(path) => opts.stats = Some(path.clone()),
                None => return err("--stats requires an output path"),
            },
            "--trace-out" => match it.next() {
                Some(path) => opts.trace_out = Some(path.clone()),
                None => return err("--trace-out requires an output path"),
            },
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, opts))
}

/// Resilience-related flags shared by `infer`, `bugs`, `icall` and
/// `stats`: budget limits plus the strict/degrade switch.
#[derive(Debug, Default, Clone, Copy)]
struct ResilienceOpts {
    fuel: Option<u64>,
    budget_ms: Option<u64>,
    strict: bool,
}

impl ResilienceOpts {
    fn spec(&self) -> BudgetSpec {
        BudgetSpec {
            fuel: self.fuel,
            deadline_ms: self.budget_ms,
        }
    }
}

/// Strips `--fuel <N>` / `--budget-ms <N>` / `--strict` from anywhere in
/// the argument list.
fn extract_resilience_flags(args: &[String]) -> Result<(Vec<String>, ResilienceOpts), CliError> {
    let mut opts = ResilienceOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    fn number(flag: &str, v: Option<&String>) -> Result<u64, CliError> {
        match v {
            Some(n) => n
                .parse::<u64>()
                .map_err(|_| CliError(format!("{flag} requires a number, got `{n}`"))),
            None => Err(CliError(format!("{flag} requires a number"))),
        }
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => opts.strict = true,
            "--fuel" => opts.fuel = Some(number("--fuel", it.next())?),
            "--budget-ms" => opts.budget_ms = Some(number("--budget-ms", it.next())?),
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, opts))
}

/// Cache flags shared by `infer`, `bugs`, `icall` and `stats`.
#[derive(Debug, Default)]
struct CacheOpts {
    dir: Option<String>,
    disabled: bool,
}

impl CacheOpts {
    /// Opens the analysis cache when one is configured and not disabled.
    /// A corrupt store is wiped and reopened inside
    /// [`AnalysisCache::open`]; only hard filesystem errors surface.
    /// The engine holds it as an [`Arc`], and `stats` keeps a handle
    /// for its cache lines.
    fn open(&self) -> Result<Option<Arc<AnalysisCache>>, CliError> {
        match &self.dir {
            Some(dir) if !self.disabled => AnalysisCache::open(dir)
                .map(|c| Some(Arc::new(c)))
                .map_err(|e| CliError(format!("cannot open cache {dir}: {e}"))),
            _ => Ok(None),
        }
    }
}

/// Strips `--cache-dir <dir>` / `--no-cache` from anywhere in the
/// argument list.
fn extract_cache_flags(args: &[String]) -> Result<(Vec<String>, CacheOpts), CliError> {
    let mut opts = CacheOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-cache" => opts.disabled = true,
            "--cache-dir" => match it.next() {
                Some(dir) => opts.dir = Some(dir.clone()),
                None => return err("--cache-dir requires a directory path"),
            },
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, opts))
}

/// Strips `--threads <N>` from anywhere in the argument list and applies
/// it to the process-global pool configuration (0 = `available_parallelism`).
fn extract_thread_flag(args: &[String]) -> Result<Vec<String>, CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => match it.next() {
                Some(n) => {
                    let n = n
                        .parse::<usize>()
                        .map_err(|_| CliError(format!("--threads requires a number, got `{n}`")))?;
                    manta_parallel::set_threads(n);
                }
                None => return err("--threads requires a number"),
            },
            _ => rest.push(a.clone()),
        }
    }
    Ok(rest)
}

/// Strips `--frontend <name>` from anywhere in the argument list and
/// resolves it against the frontend registry.
fn extract_frontend_flag(
    args: &[String],
) -> Result<(Vec<String>, Option<&'static dyn Frontend>), CliError> {
    let mut forced = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frontend" => match it.next() {
                Some(name) => forced = Some(frontend_by_name(name)?),
                None => {
                    return err(format!(
                        "--frontend requires a name\n{}",
                        frontend_listing()
                    ))
                }
            },
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, forced))
}

/// Parses `manta serve` flags into a [`manta_serve::ServeConfig`].
fn parse_serve_flags(addr: &str, flags: &[String]) -> Result<manta_serve::ServeConfig, CliError> {
    let mut config = manta_serve::ServeConfig {
        addr: addr.to_string(),
        ..manta_serve::ServeConfig::default()
    };
    let mut it = flags.iter();
    fn number(flag: &str, v: Option<&String>) -> Result<u64, CliError> {
        match v {
            Some(n) => n
                .parse::<u64>()
                .map_err(|_| CliError(format!("{flag} requires a number, got `{n}`"))),
            None => Err(CliError(format!("{flag} requires a number"))),
        }
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => config.workers = number("--workers", it.next())?.max(1) as usize,
            "--queue" => config.queue_cap = number("--queue", it.next())?.max(1) as usize,
            "--gc-bytes" => config.gc_max_bytes = Some(number("--gc-bytes", it.next())?),
            "--gc-every" => config.gc_every = number("--gc-every", it.next())?.max(1),
            "--fuel-cap" => config.fuel_cap = Some(number("--fuel-cap", it.next())?),
            "--deadline-cap-ms" => {
                config.deadline_cap_ms = Some(number("--deadline-cap-ms", it.next())?);
            }
            other => return err(format!("unknown serve flag `{other}`")),
        }
    }
    Ok(config)
}

/// Builds the `analyze` request for `manta client`: the module source
/// rides the wire as text, and `--fuel`/`--budget-ms` become the
/// request's (server-clamped) budget.
fn client_analyze_request(
    input: &str,
    sensitivity: Sensitivity,
    resilience: &ResilienceOpts,
    forced: Option<&'static dyn Frontend>,
) -> Result<manta_serve::proto::Request, CliError> {
    // A binary image is lifted here and sent as canonical IR text, so
    // the daemon does not need the original file. Source text goes as it
    // is: the daemon parses it, and answers a malformed one with the
    // parser's position.
    let module_text = match read_input(Path::new(input), forced)? {
        Input::Lifted(module) => manta_ir::printer::print_module(&module),
        Input::Text(text) => text,
    };
    Ok(manta_serve::proto::Request::Analyze {
        module_text,
        sensitivity,
        fuel: resilience.fuel,
        deadline_ms: resilience.budget_ms,
    })
}

/// Composes the command's engine: `builder` carries the command's own
/// settings (`Engine::builder()` alone is the full cascade), the parsed
/// flags add the budget/strict policy, and the shared cache attaches
/// when one is open. The engine applies the cache policy itself —
/// `--fuel` is part of the result key, `--budget-ms` and `--strict`
/// bypass the cache — so the command arms stay policy-free.
fn make_engine(
    builder: EngineBuilder,
    opts: &ResilienceOpts,
    cache: Option<Arc<AnalysisCache>>,
) -> Engine {
    let mut builder = builder.budget(opts.spec()).strict(opts.strict);
    if let Some(c) = cache {
        builder = builder.cache(c);
    }
    builder
        .build()
        .expect("engine build cannot fail without a cache directory")
}

/// Builds the analysis substrate through `Engine::build_substrate`.
/// Returns `Ok(None)` when the substrate degraded in non-strict mode —
/// the message is appended to `out` and the command finishes with
/// whatever partial output it has.
fn build_analysis(
    engine: &Engine,
    module: Module,
    budget: &Budget,
    out: &mut String,
) -> Result<Option<ModuleAnalysis>, CliError> {
    match engine.build_substrate(module, budget) {
        Ok(a) => Ok(Some(a)),
        Err(e) => analysis_failed(engine, &e, out).map(|()| None),
    }
}

/// Reports an analysis that produced no result: an error under a strict
/// engine; otherwise a substrate failure, which has no weaker tier to
/// fall back to, so the degradation goes on `out` and the command ends
/// without results.
fn analysis_failed(engine: &Engine, e: &MantaError, out: &mut String) -> Result<(), CliError> {
    if engine.strict() {
        return Err(CliError(format!("analysis failed: {e}")));
    }
    let _ = writeln!(out, "degraded: {e}; no analysis results");
    Ok(())
}

/// Runs the inference cascade through the engine, charging work to the
/// command-wide budget. Any degradation records are surfaced on `out`;
/// a strict engine propagates the failure as a [`CliError`] instead.
fn run_inference(
    engine: &Engine,
    analysis: &ModuleAnalysis,
    budget: &Budget,
    out: &mut String,
) -> Result<InferenceResult, CliError> {
    let result = engine
        .analyze_with_budget(analysis, budget)
        .map_err(|e| CliError(format!("inference failed: {e}")))?;
    for d in &result.degradations {
        let _ = writeln!(out, "degraded: {d}");
    }
    Ok(result)
}

/// Executes a command line (without the program name); returns the text to
/// print on success.
///
/// Commands run with telemetry collection on when `--trace`/`--stats` is
/// given or the command is `stats`; the report is rendered afterwards (the
/// span tree to stderr via [`TextSink`], the JSON file via [`JsonSink`]).
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments or failing pipelines.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (args, telemetry) = extract_telemetry_flags(args)?;
    let (args, resilience) = extract_resilience_flags(&args)?;
    let (args, cache_opts) = extract_cache_flags(&args)?;
    let (args, forced_frontend) = extract_frontend_flag(&args)?;
    let args = extract_thread_flag(&args)?;
    let cmd = args.first().map(String::as_str);
    let tracing = telemetry.trace_out.is_some() || cmd == Some("profile");
    let collecting =
        telemetry.trace || telemetry.stats.is_some() || tracing || cmd == Some("stats");
    if collecting {
        manta_telemetry::set_enabled(true);
        if tracing {
            manta_telemetry::set_trace_enabled(true);
        }
        manta_telemetry::reset();
    }
    let result = run_command(&args, &resilience, &cache_opts, forced_frontend);
    if collecting {
        let report = manta_telemetry::report();
        manta_telemetry::set_enabled(false);
        manta_telemetry::set_trace_enabled(false);
        if result.is_ok() {
            if telemetry.trace {
                TextSink(std::io::stderr())
                    .emit(&report)
                    .map_err(|e| CliError(format!("cannot write trace: {e}")))?;
            }
            if let Some(path) = &telemetry.stats {
                let file = fs::File::create(path)
                    .map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
                JsonSink(file)
                    .emit(&report)
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            if let Some(path) = &telemetry.trace_out {
                fs::write(path, manta_telemetry::render_chrome_trace())
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
        }
    }
    result
}

fn run_command(
    args: &[String],
    resilience: &ResilienceOpts,
    cache_opts: &CacheOpts,
    forced_frontend: Option<&'static dyn Frontend>,
) -> Result<String, CliError> {
    let mut out = String::new();
    // One budget covers the whole command (substrate + inference); with
    // no limits set this is the zero-overhead unlimited budget.
    let budget = resilience.spec().start();
    let cache = cache_opts.open()?;
    match args.first().map(String::as_str) {
        Some("asm") => {
            let (input, output) = match args {
                [_, i, o_flag, o] if o_flag == "-o" => (i, o),
                _ => return err(USAGE),
            };
            let text = fs::read_to_string(input)
                .map_err(|e| CliError(format!("cannot read {input}: {e}")))?;
            // `--frontend x86` switches the assembler syntax and output
            // container; the default (and `--frontend sb`) is SB-ISA.
            let (bytes, n_funcs, n_insts) = if forced_frontend.map(Frontend::name) == Some("x86") {
                let image = manta_x86::assemble(&text).map_err(|e| CliError(e.to_string()))?;
                let insts: usize = image
                    .functions
                    .iter()
                    .map(|f| {
                        let code = &image.text[f.offset as usize..(f.offset + f.len) as usize];
                        manta_x86::decode_all(code).map_or(0, |v| v.len())
                    })
                    .sum();
                let n = image.functions.len();
                (manta_x86::encode_image(&image), n, insts)
            } else {
                let image = manta_isa::assemble(&text).map_err(|e| CliError(e.to_string()))?;
                let (n, insts) = (image.functions.len(), image.total_insts());
                (manta_isa::encode(&image), n, insts)
            };
            fs::write(output, &bytes)
                .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote {} ({} bytes, {} functions, {} instructions)",
                output,
                bytes.len(),
                n_funcs,
                n_insts
            );
        }
        Some("disasm") => {
            let [_, input] = args else { return err(USAGE) };
            let bytes =
                fs::read(input).map_err(|e| CliError(format!("cannot read {input}: {e}")))?;
            let image = manta_isa::decode(&bytes).map_err(|e| CliError(e.to_string()))?;
            out.push_str(&manta_isa::asm::disassemble(&image));
        }
        Some("lift") => {
            let [_, input] = args else { return err(USAGE) };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            out.push_str(&manta_ir::printer::print_module(&module));
        }
        Some("infer") => {
            let (input, sens) = match args {
                [_, i] => (i, Sensitivity::FiCsFs),
                [_, i, flag, s] if flag == "-s" => (i, parse_sensitivity(s)?),
                _ => return err(USAGE),
            };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            let engine = make_engine(
                Engine::builder().sensitivity(sens),
                resilience,
                cache.clone(),
            );
            // Only the module is printed, so a cache hit needs no call
            // graph, points-to or DDG.
            let (module, result) = match engine.infer_module(module) {
                Ok(inferred) => inferred,
                Err(e) => return analysis_failed(&engine, &e, &mut out).map(|()| out),
            };
            for d in &result.degradations {
                let _ = writeln!(out, "degraded: {d}");
            }
            let _ = writeln!(out, "types ({}):", sens.label());
            for func in module.functions() {
                for (i, &p) in func.params().iter().enumerate() {
                    let v = VarRef::new(func.id(), p);
                    let shown = match (result.class_of(v), result.precise_type(v)) {
                        (_, Some(t)) => t.to_string(),
                        (VarClass::Over, None) => {
                            format!("[{} .. {}]", result.lower(v), result.upper(v))
                        }
                        _ => "unknown".into(),
                    };
                    let _ = writeln!(out, "  {}#arg{i}: {shown}", func.name());
                }
            }
            let c = result.final_counts();
            let _ = writeln!(
                out,
                "variables: {} precise / {} over-approximated / {} unknown",
                c.precise, c.over, c.unknown
            );
        }
        Some("bugs") => {
            let (input, typed) = match args {
                [_, i] => (i, true),
                [_, i, flag] if flag == "--no-types" => (i, false),
                _ => return err(USAGE),
            };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            let engine = make_engine(Engine::builder(), resilience, cache.clone());
            let Some(analysis) = build_analysis(&engine, module, &budget, &mut out)? else {
                return Ok(out);
            };
            let inference = if typed {
                Some(run_inference(&engine, &analysis, &budget, &mut out)?)
            } else {
                None
            };
            let q: Option<&dyn TypeQuery> = inference.as_ref().map(|i| i as &dyn TypeQuery);
            let (reports, _) = detect_bugs(&analysis, q, &BugKind::ALL, CheckerConfig::default());
            let mut seen = std::collections::BTreeSet::new();
            for r in &reports {
                let func = analysis.module().function(r.func).name();
                if seen.insert((r.kind, func.to_string())) {
                    let _ = writeln!(out, "[{}] in {}", r.kind.label(), func);
                }
            }
            let _ = writeln!(
                out,
                "{} reports ({})",
                seen.len(),
                if typed { "type-assisted" } else { "untyped" }
            );
        }
        Some("icall") => {
            let [_, input] = args else { return err(USAGE) };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            let engine = make_engine(Engine::builder(), resilience, cache.clone());
            let Some(analysis) = build_analysis(&engine, module, &budget, &mut out)? else {
                return Ok(out);
            };
            let inference = run_inference(&engine, &analysis, &budget, &mut out)?;
            let sites = indirect_call_sites(&analysis);
            if sites.is_empty() {
                out.push_str("no indirect calls\n");
            }
            for site in sites {
                let host = analysis.module().function(site.func).name();
                let targets: Vec<&str> =
                    resolve_targets_manta(&analysis, &inference as &dyn TypeQuery, &site)
                        .into_iter()
                        .map(|f| analysis.module().function(f).name())
                        .collect();
                let _ = writeln!(
                    out,
                    "icall in {host} ({} args) -> {} targets: {targets:?}",
                    site.args.len(),
                    targets.len()
                );
            }
        }
        Some("stats") => {
            let [_, input] = args else { return err(USAGE) };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            // Drive the whole cascade: substrate build, full-sensitivity
            // inference, every checker, and indirect-call resolution, then
            // print the per-stage cost breakdown they recorded. With a cache
            // directory the engine runs in summary mode so the `summary.*`
            // counters below reflect real replay/recompute traffic.
            let builder = Engine::builder().summaries(cache.is_some());
            let engine = make_engine(builder, resilience, cache.clone());
            let Some(analysis) = build_analysis(&engine, module, &budget, &mut out)? else {
                return Ok(out);
            };
            let inference = run_inference(&engine, &analysis, &budget, &mut out)?;
            let q: &dyn TypeQuery = &inference;
            let (reports, _) =
                detect_bugs(&analysis, Some(q), &BugKind::ALL, CheckerConfig::default());
            let sites = indirect_call_sites(&analysis);
            for site in &sites {
                let _ = resolve_targets_manta(&analysis, q, site);
            }
            let _ = writeln!(
                out,
                "pipeline: {} bug reports, {} indirect call sites",
                reports.len(),
                sites.len()
            );
            if let Some(c) = &cache {
                c.publish_telemetry();
            }
            let report = manta_telemetry::report();
            let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "resilience: {} degradations, {} panics caught, {} budget exhaustions",
                counter("resilience.degradations"),
                counter("resilience.panics_caught"),
                counter("resilience.budget_exhausted"),
            );
            // Per-stage breakdowns (only stages that actually tripped).
            for (name, &value) in &report.counters {
                if value == 0 {
                    continue;
                }
                if let Some(stage) = name.strip_prefix("resilience.degradations.") {
                    let _ = writeln!(out, "  degraded[{stage}]: {value}");
                } else if let Some(stage) = name.strip_prefix("resilience.budget_exhausted.") {
                    let _ = writeln!(out, "  budget-exhausted[{stage}]: {value}");
                }
            }
            let _ = writeln!(
                out,
                "cache: {} hits, {} misses, {} invalidations, {} corrupt entries, \
                 {} bytes read, {} bytes written",
                counter("store.hits"),
                counter("store.misses"),
                counter("store.invalidations"),
                counter("store.corrupt"),
                counter("store.bytes_read"),
                counter("store.bytes_written"),
            );
            if let Some(c) = &cache {
                // Per-entry-kind traffic straight off the store: `infer`
                // (inference results), `prov` (provenance graphs), `fsum`
                // (per-function summary state).
                for (kind, hits, misses) in c.store().kind_traffic() {
                    let _ = writeln!(out, "  cache[{kind}]: {hits} hits, {misses} misses");
                }
            }
            let _ = writeln!(
                out,
                "frontend: {} insts decoded, {} flags materialized, {} frame slots",
                counter("lift.insts_decoded"),
                counter("lift.flags_materialized"),
                counter("lift.frame_slots"),
            );
            let _ = writeln!(
                out,
                "summaries: {} chunk replays, {} recomputes, {} corrupt states",
                counter("summary.hits"),
                counter("summary.recomputes"),
                counter("summary.state_corrupt"),
            );
            // Delta-solver shape: constraint graph size, worklist work,
            // copy-cycle collapses and the largest points-to set.
            let _ = writeln!(
                out,
                "pointsto: {} constraint nodes, {} constraint edges, {} worklist iterations, \
                 {} scc merges, peak |pts| {}",
                counter("pointsto.constraint_nodes"),
                counter("pointsto.constraint_edges"),
                counter("pointsto.worklist_iters"),
                counter("pointsto.scc_merges"),
                counter("pointsto.peak_pts"),
            );
            out.push_str(&report.render_text());
        }
        Some("explain") => {
            let [_, input, func, var] = args else {
                return err(USAGE);
            };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            let engine = make_engine(
                Engine::builder().provenance(true),
                resilience,
                cache.clone(),
            );
            let Some(analysis) = build_analysis(&engine, module, &budget, &mut out)? else {
                return Ok(out);
            };
            let (result, graph) = engine
                .analyze_explained(&analysis)
                .map_err(|e| CliError(format!("inference failed: {e}")))?;
            for d in &result.degradations {
                let _ = writeln!(out, "degraded: {d}");
            }
            let graph = graph
                .ok_or_else(|| CliError("provenance-enabled engine produced no graph".into()))?;
            let Some(v) = manta::provenance::resolve_var(analysis.module(), func, var) else {
                return err(format!(
                    "no value `{var}` in `{func}` \
                     (names follow `manta lift` output: p0, p1, v0, v1, …)"
                ));
            };
            match graph.render_explain(analysis.module(), v, None) {
                Some(tree) => out.push_str(&tree),
                None => {
                    let _ = writeln!(out, "no derivation recorded for {func}:{var}");
                }
            }
        }
        Some("profile") => {
            let [_, input] = args else { return err(USAGE) };
            let module = load_module_as(Path::new(input), forced_frontend)?;
            // Same full drive as `stats`, but summarized from the trace
            // buffer: per-span cumulative wall time across all threads.
            let engine = make_engine(Engine::builder(), resilience, cache.clone());
            let Some(analysis) = build_analysis(&engine, module, &budget, &mut out)? else {
                return Ok(out);
            };
            let inference = run_inference(&engine, &analysis, &budget, &mut out)?;
            let q: &dyn TypeQuery = &inference;
            let (reports, _) =
                detect_bugs(&analysis, Some(q), &BugKind::ALL, CheckerConfig::default());
            let sites = indirect_call_sites(&analysis);
            for site in &sites {
                let _ = resolve_targets_manta(&analysis, q, site);
            }
            let _ = writeln!(
                out,
                "pipeline: {} bug reports, {} indirect call sites",
                reports.len(),
                sites.len()
            );
            let events = manta_telemetry::trace_events();
            let threads: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
            let _ = writeln!(
                out,
                "trace: {} events across {} threads",
                events.len(),
                threads.len()
            );
            let mut totals: std::collections::BTreeMap<&str, (f64, usize)> =
                std::collections::BTreeMap::new();
            for e in &events {
                let slot = totals.entry(e.name).or_insert((0.0, 0));
                slot.0 += e.dur_us;
                slot.1 += 1;
            }
            let mut rows: Vec<(&str, f64, usize)> =
                totals.into_iter().map(|(n, (d, c))| (n, d, c)).collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            // Every span, however short: a cache run's store and
            // fingerprint spans are microseconds on a small input.
            for (name, dur_us, count) in &rows {
                let _ = writeln!(
                    out,
                    "  {name}: {:.3} ms over {count} events",
                    dur_us / 1000.0
                );
            }
        }
        Some("serve") => {
            let [_, addr, flags @ ..] = args else {
                return err(USAGE);
            };
            let config = parse_serve_flags(addr, flags)?;
            let engine = make_engine(Engine::builder(), resilience, cache.clone());
            let server = manta_serve::Server::spawn(engine, config)
                .map_err(|e| CliError(format!("cannot start daemon: {e}")))?;
            // Print the bound address eagerly: with port 0 the caller
            // cannot know it, and `out` is only shown after the drain.
            println!("manta-serve listening on {}", server.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.join();
            let _ = writeln!(out, "drained and shut down");
        }
        Some("client") => {
            use manta_serve::proto::{Request, Response};
            let [_, addr, sub @ ..] = args else {
                return err(USAGE);
            };
            let request = match sub {
                [cmd] if cmd == "ping" => Request::Ping,
                [cmd] if cmd == "stats" => Request::Stats,
                [cmd] if cmd == "shutdown" => Request::Shutdown,
                [cmd, input] if cmd == "analyze" => {
                    client_analyze_request(input, Sensitivity::FiCsFs, resilience, forced_frontend)?
                }
                [cmd, input, flag, s] if cmd == "analyze" && flag == "-s" => {
                    client_analyze_request(
                        input,
                        parse_sensitivity(s)?,
                        resilience,
                        forced_frontend,
                    )?
                }
                _ => return err(USAGE),
            };
            let response = manta_serve::client::call_with_retry(
                addr.as_str(),
                &request,
                manta_resilience::BackoffPolicy::default(),
                0x6d_616e_7461, // "manta"
            )
            .map_err(|e| CliError(format!("daemon call failed: {e}")))?;
            match response {
                Response::Pong => {
                    let _ = writeln!(out, "pong");
                }
                Response::Stats { text } => out.push_str(&text),
                Response::ShuttingDown => {
                    let _ = writeln!(out, "daemon draining");
                }
                Response::Overloaded { retry_after_ms } => {
                    return err(format!("daemon overloaded; retry in {retry_after_ms} ms"));
                }
                Response::Error { error } => {
                    return err(format!("daemon error: {error}"));
                }
                Response::Analyzed {
                    result,
                    summary,
                    degraded,
                } => {
                    if degraded {
                        let _ = writeln!(out, "degraded result");
                    }
                    let _ = writeln!(out, "{summary}");
                    let _ = writeln!(out, "result: {} bytes (canonical encoding)", result.len());
                }
            }
        }
        _ => return err(USAGE),
    }
    if let Some(c) = &cache {
        // Surface cache degradations (recovered-on-open, corrupt entries
        // discarded) the same way inference degradations are reported,
        // and mirror the traffic counters into telemetry for
        // `--trace`/`--stats` consumers.
        for d in c.take_degradations() {
            let _ = writeln!(out, "degraded: {d}");
        }
        c.publish_telemetry();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASM: &str = "\
module clitest
extern malloc, 1, ret
extern free, 1
func take(1) -> ret {
    ld.w64 r0, [r1+0]
    ret
}
func main(0) -> ret {
    movi r1, 32
    ecall malloc, 1
    mov r7, r0
    mov r1, r7
    call take, 1
    mov r1, r7
    ecall free, 1
    ld.w64 r0, [r7+0]
    ret
}
";

    /// Runs `f` in a temp dir of its own (unique per call, removed
    /// afterwards), one test at a time: `run` drives process-global
    /// state — the telemetry collector and its counters, the pool size —
    /// so a test asserting on `stats` output must not overlap another
    /// command.
    fn with_files<T>(f: impl FnOnce(&Path) -> T) -> T {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = manta_store::TempDir::new("cli-test");
        let _ = fs::create_dir_all(dir.path());
        f(dir.path())
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn asm_disasm_lift_roundtrip() {
        with_files(|dir| {
            let src = dir.join("p.s");
            let sbf = dir.join("p.sbf");
            fs::write(&src, ASM).unwrap();
            let out = run(&s(&[
                "asm",
                src.to_str().unwrap(),
                "-o",
                sbf.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("2 functions"), "{out}");
            let dis = run(&s(&["disasm", sbf.to_str().unwrap()])).unwrap();
            assert!(dis.contains("ecall malloc"), "{dis}");
            let ir = run(&s(&["lift", sbf.to_str().unwrap()])).unwrap();
            assert!(ir.contains("module clitest"), "{ir}");
            assert!(ir.contains("call.w64 !malloc"), "{ir}");
        });
    }

    #[test]
    fn asm_assembles_x86_behind_the_frontend_flag() {
        let asm = "\
module clix86
func double(1) -> ret {
    mov rax, rdi
    add rax, rdi
    ret
}
";
        with_files(|dir| {
            let src = dir.join("p86.s");
            let bin = dir.join("p86.bin");
            fs::write(&src, asm).unwrap();
            let out = run(&s(&[
                "asm",
                src.to_str().unwrap(),
                "-o",
                bin.to_str().unwrap(),
                "--frontend",
                "x86",
            ]))
            .unwrap();
            assert!(out.contains("1 functions"), "{out}");
            // The written container carries the XLF magic and sniffs
            // back through the x86 frontend without the flag.
            let bytes = fs::read(&bin).unwrap();
            assert!(bytes.starts_with(b"\x7fELF"), "XLF magic expected");
            let ir = run(&s(&["lift", bin.to_str().unwrap()])).unwrap();
            assert!(ir.contains("module clix86"), "{ir}");
            assert!(ir.contains("add"), "{ir}");
        });
    }

    #[test]
    fn infer_reports_pointer_parameter() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let out = run(&s(&["infer", src.to_str().unwrap()])).unwrap();
            assert!(out.contains("take#arg0: ptr"), "{out}");
            // The reversed-order ablation is reachable from the CLI too.
            let out = run(&s(&["infer", src.to_str().unwrap(), "-s", "fifscs"])).unwrap();
            assert!(out.contains("FI+FS+CS"), "{out}");
        });
    }

    #[test]
    fn bugs_finds_the_uaf() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let out = run(&s(&["bugs", src.to_str().unwrap()])).unwrap();
            assert!(out.contains("[UAF] in main"), "{out}");
        });
    }

    #[test]
    fn lift_accepts_textual_ir() {
        with_files(|dir| {
            let f = dir.join("m.mir");
            fs::write(&f, "module t\nfunc f(w64) -> w64 {\nbb0:\n  ret p0\n}\n").unwrap();
            let out = run(&s(&["lift", f.to_str().unwrap()])).unwrap();
            assert!(out.contains("func f(w64) -> w64"), "{out}");
        });
    }

    #[test]
    fn bad_usage_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["infer", "/nonexistent/file"])).is_err());
        assert!(
            run(&s(&["infer", "x.s", "--stats"])).is_err(),
            "--stats needs a path"
        );
        assert!(
            run(&s(&["infer", "x.s", "--fuel"])).is_err(),
            "--fuel needs a number"
        );
        assert!(
            run(&s(&["infer", "x.s", "--budget-ms", "soon"])).is_err(),
            "--budget-ms needs a number"
        );
    }

    #[test]
    fn zero_fuel_degrades_unless_strict() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            // Non-strict: the command succeeds and reports the degradation.
            let out = run(&s(&["infer", src.to_str().unwrap(), "--fuel", "0"])).unwrap();
            assert!(out.contains("degraded"), "{out}");
            // Strict: the same budget is a hard error.
            let e = run(&s(&[
                "infer",
                src.to_str().unwrap(),
                "--fuel",
                "0",
                "--strict",
            ]))
            .unwrap_err();
            assert!(e.to_string().contains("budget"), "{e}");
        });
    }

    /// Restores the auto thread count even when an assertion panics, so
    /// a failure here cannot leak `--threads` into the other tests in
    /// this process (their outputs — and cache keys — must not depend
    /// on test ordering).
    struct ThreadGuard;

    impl Drop for ThreadGuard {
        fn drop(&mut self) {
            manta_parallel::set_threads(0);
        }
    }

    #[test]
    fn thread_count_does_not_change_infer_output() {
        with_files(|dir| {
            let _restore = ThreadGuard;
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let serial = run(&s(&["infer", src.to_str().unwrap(), "--threads", "1"])).unwrap();
            let pooled = run(&s(&["infer", src.to_str().unwrap(), "--threads", "8"])).unwrap();
            assert_eq!(serial, pooled);
            assert!(
                run(&s(&["infer", src.to_str().unwrap(), "--threads", "many"])).is_err(),
                "--threads needs a number"
            );
        });
    }

    #[test]
    fn generous_fuel_matches_the_unbudgeted_run() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let plain = run(&s(&["infer", src.to_str().unwrap()])).unwrap();
            let budgeted = run(&s(&[
                "infer",
                src.to_str().unwrap(),
                "--fuel",
                "100000000",
                "--strict",
            ]))
            .unwrap();
            assert_eq!(plain, budgeted);
        });
    }

    #[test]
    fn cached_infer_is_bit_identical_and_survives_corruption() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let cache_dir = dir.join("cache");
            let cached = |extra: &[&str]| {
                let mut args = vec!["infer", src.to_str().unwrap()];
                args.extend(["--cache-dir", cache_dir.to_str().unwrap()]);
                args.extend(extra);
                run(&s(&args)).unwrap()
            };

            let cold = cached(&[]);
            assert!(
                fs::read_dir(&cache_dir).unwrap().count() > 0,
                "cold run must populate the cache"
            );
            let warm = cached(&[]);
            assert_eq!(warm, cold, "warm output must be bit-identical");
            // `--no-cache` forces the cold path and also matches.
            assert_eq!(cached(&["--no-cache"]), cold);

            // Corrupt every entry file; the run degrades gracefully and
            // still produces the same answer.
            for e in fs::read_dir(&cache_dir).unwrap() {
                let p = e.unwrap().path();
                if p.extension().is_some_and(|x| x == "entry") {
                    fs::write(&p, b"garbage").unwrap();
                }
            }
            assert_eq!(cached(&[]), cold, "corrupt cache must recompute");

            assert!(
                run(&s(&["infer", src.to_str().unwrap(), "--cache-dir"])).is_err(),
                "--cache-dir needs a path"
            );
        });
    }

    #[test]
    fn a_same_size_rewrite_under_its_old_mtime_is_never_served_stale() {
        let deref = "module m\nfunc main(1) -> ret {\n    ld.w64 r0, [r1+0]\n    ret\n}\n";
        let constant = "module m\nfunc main(1) -> ret {\n    movi r0, 12345678\n    ret\n}\n";
        assert_eq!(deref.len(), constant.len());
        with_files(|dir| {
            let src = dir.join("p.s");
            let cache_dir = dir.join("cache");
            let infer = |extra: &[&str]| {
                let mut args = vec!["infer", src.to_str().unwrap()];
                args.extend(["--cache-dir", cache_dir.to_str().unwrap()]);
                args.extend(extra);
                run(&s(&args)).unwrap()
            };
            fs::write(&src, deref).unwrap();
            let mtime = fs::metadata(&src).unwrap().modified().unwrap();
            let old = infer(&[]);
            fs::write(&src, constant).unwrap();
            let file = fs::File::options().write(true).open(&src).unwrap();
            file.set_modified(mtime).unwrap();
            let fresh = infer(&["--no-cache"]);
            assert_ne!(fresh, old, "the rewrite changes the answer");
            assert_eq!(infer(&[]), fresh, "a warm run must read the new program");
        });
    }

    #[test]
    fn warm_cached_infer_builds_no_call_graph_pointsto_or_ddg() {
        fn names(spans: &[manta_telemetry::SpanReport], out: &mut Vec<String>) {
            for s in spans {
                out.push(s.name.clone());
                names(&s.children, out);
            }
        }
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            let cache_dir = dir.join("cache");
            let args = s(&[
                "infer",
                src.to_str().unwrap(),
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ]);
            // `scoped` captures this thread's spans with collection off.
            let infer = || {
                let (out, spans) = manta_telemetry::scoped(|| run(&args));
                let mut ran = Vec::new();
                names(&spans, &mut ran);
                (out.unwrap(), ran)
            };
            let (cold, cold_spans) = infer();
            let (warm, warm_spans) = infer();
            assert_eq!(warm, cold, "warm output must be bit-identical");
            for pass in ["callgraph", "pointsto", "ddg", "infer"] {
                assert!(cold_spans.iter().any(|s| s == pass), "a miss runs {pass}");
                assert!(!warm_spans.iter().any(|s| s == pass), "a hit skips {pass}");
            }
        });
    }

    /// An input with an indirect call so `stats` exercises icall spans too.
    const ICALL_ASM: &str = "\
module clistats
extern malloc, 1, ret
extern free, 1
func take(1) -> ret {
    ld.w64 r0, [r1+0]
    ret
}
func main(0) -> ret {
    movi r1, 32
    ecall malloc, 1
    mov r7, r0
    mov r1, r7
    call take, 1
    lea.f r2, take
    icall r2, 1
    mov r1, r7
    ecall free, 1
    ld.w64 r0, [r7+0]
    ret
}
";

    // `stats`, `--trace` and `--stats` all flip the process-global
    // collector, so they share one serialized test.
    #[test]
    fn stats_views_cover_the_whole_pipeline() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ICALL_ASM).unwrap();

            // The subcommand prints every pipeline stage with wall time,
            // and a summary-mode run (`--cache-dir`) prints the same
            // stages: each must start a line of the span tree.
            let span_names = |out: &str| -> Vec<String> {
                out.lines()
                    .skip_while(|l| *l != "spans:")
                    .skip(1)
                    .take_while(|l| l.starts_with(' '))
                    .filter_map(|l| l.split_whitespace().next().map(str::to_string))
                    .collect()
            };
            let cache_dir = dir.join("stats-cache");
            let cached = run(&s(&[
                "stats",
                src.to_str().unwrap(),
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ]))
            .unwrap();
            let out = run(&s(&["stats", src.to_str().unwrap()])).unwrap();
            for (mode, text) in [("cacheless", &out), ("--cache-dir", &cached)] {
                let names = span_names(text);
                for span in [
                    "preprocess",
                    "pointsto",
                    "ddg",
                    "reveal",
                    "fi",
                    "cs",
                    "fs",
                    "checkers",
                ] {
                    assert!(
                        names.iter().any(|n| n == span),
                        "{mode}: stage `{span}` missing from:\n{text}"
                    );
                }
            }
            assert!(out.contains("ms"), "spans carry wall time: {out}");
            assert!(out.contains("counters:"), "{out}");
            assert!(out.contains("unify.ops"), "{out}");
            // A clean run reports zeroed resilience counters, and with
            // no --cache-dir the cache line reports zero traffic.
            assert!(out.contains("resilience: 0 degradations"), "{out}");
            assert!(out.contains("cache: 0 hits, 0 misses"), "{out}");
            // Summary mode needs --cache-dir, so the line renders zeros here.
            assert!(out.contains("summaries: 0 chunk replays"), "{out}");
            // The points-to line carries the delta solver's live counters.
            let iters = out
                .lines()
                .find_map(|l| l.strip_prefix("pointsto: "))
                .and_then(|l| l.split(", ").nth(2))
                .and_then(|c| c.strip_suffix(" worklist iterations"))
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("no pointsto line in:\n{out}"));
            assert!(iters > 0, "{out}");

            // `--stats` writes a JSON report the hand parser accepts.
            let json_path = dir.join("stats.json");
            run(&s(&[
                "infer",
                src.to_str().unwrap(),
                "--stats",
                json_path.to_str().unwrap(),
            ]))
            .unwrap();
            let text = fs::read_to_string(&json_path).unwrap();
            let v = manta_store::json::parse(&text).expect("valid JSON");
            assert!(!v.get("spans").unwrap().as_array().unwrap().is_empty());
            let counters = v.get("counters").unwrap();
            assert!(counters.get("unify.ops").unwrap().as_f64().unwrap() > 0.0);

            // `--trace` keeps stdout clean (the tree goes to stderr).
            let out = run(&s(&["bugs", src.to_str().unwrap(), "--trace"])).unwrap();
            assert!(out.contains("reports"), "{out}");
            assert!(
                !out.contains("spans:"),
                "trace must not pollute stdout: {out}"
            );

            // `profile` runs the same pipeline with tracing on and
            // summarizes the trace buffer.
            let out = run(&s(&["profile", src.to_str().unwrap()])).unwrap();
            assert!(out.contains("bug reports"), "{out}");
            assert!(out.contains("events across"), "{out}");
            assert!(out.contains("ms over"), "{out}");

            // `--trace-out` writes a Chrome trace-event document: ph "X"
            // complete events with pid/tid and microsecond timestamps.
            let trace_path = dir.join("trace.json");
            run(&s(&[
                "infer",
                src.to_str().unwrap(),
                "--trace-out",
                trace_path.to_str().unwrap(),
            ]))
            .unwrap();
            let doc = fs::read_to_string(&trace_path).unwrap();
            let v = manta_store::json::parse(&doc).expect("valid JSON");
            let events = v.get("traceEvents").unwrap().as_array().unwrap();
            assert!(!events.is_empty(), "trace must hold events");
            for e in events {
                assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
                assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                assert!(e.get("dur").unwrap().as_f64().is_some());
                assert!(e.get("tid").unwrap().as_f64().unwrap() >= 1.0);
            }
            assert!(
                run(&s(&["infer", src.to_str().unwrap(), "--trace-out"])).is_err(),
                "--trace-out needs a path"
            );
        });
    }

    /// A minimal XLF image: `main` returns `f(7)` where `f` doubles its
    /// argument — enough to exercise decode, lift, and inference.
    fn x86_image_bytes() -> Vec<u8> {
        use manta_x86::{Gpr, ImageBuilder, Inst, OpWidth, SymInst};
        let mut b = ImageBuilder::new("clix86");
        b.function(
            "f",
            1,
            true,
            vec![
                SymInst::Real(Inst::MovRR {
                    w: OpWidth::B64,
                    dst: Gpr::RAX,
                    src: Gpr::RDI,
                }),
                SymInst::Real(Inst::AluRR {
                    op: manta_x86::Alu::Add,
                    dst: Gpr::RAX,
                    src: Gpr::RDI,
                }),
                SymInst::Real(Inst::Ret),
            ],
        );
        b.function(
            "main",
            0,
            true,
            vec![
                SymInst::Real(Inst::MovRI {
                    dst: Gpr::RDI,
                    imm: 7,
                }),
                SymInst::CallFunc("f".into()),
                SymInst::Real(Inst::Ret),
            ],
        );
        manta_x86::encode_image(&b.build().unwrap())
    }

    #[test]
    fn x86_images_are_auto_detected_and_forceable() {
        with_files(|dir| {
            let xlf = dir.join("p.xlf");
            fs::write(&xlf, x86_image_bytes()).unwrap();
            // Sniffed by magic: lift and infer work without any flag.
            let ir = run(&s(&["lift", xlf.to_str().unwrap()])).unwrap();
            assert!(ir.contains("module clix86"), "{ir}");
            let out = run(&s(&["infer", xlf.to_str().unwrap()])).unwrap();
            assert!(out.contains("f#arg0"), "{out}");
            // The explicit override takes the same path.
            let forced = run(&s(&["lift", xlf.to_str().unwrap(), "--frontend", "x86"])).unwrap();
            assert_eq!(forced, ir);
            // Forcing the wrong frontend is a decode error, not a panic.
            assert!(run(&s(&["lift", xlf.to_str().unwrap(), "--frontend", "sb"])).is_err());
            // The `stats` pipeline surfaces the lift.* counters.
            let stats = run(&s(&["stats", xlf.to_str().unwrap()])).unwrap();
            assert!(stats.contains("frontend:"), "{stats}");
            assert!(!stats.contains("frontend: 0 insts decoded"), "{stats}");
        });
    }

    #[test]
    fn unknown_magic_lists_the_frontends() {
        with_files(|dir| {
            let bad = dir.join("p.bin");
            fs::write(&bad, [0u8, 159, 146, 150]).unwrap();
            let e = run(&s(&["lift", bad.to_str().unwrap()])).unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains("unrecognized image magic"), "{msg}");
            assert!(msg.contains("sb") && msg.contains("x86"), "{msg}");
            assert!(msg.contains("SBF1") && msg.contains("ELF"), "{msg}");
            // An unknown --frontend name gets the same listing.
            let e = run(&s(&["lift", bad.to_str().unwrap(), "--frontend", "mips"])).unwrap_err();
            assert!(e.to_string().contains("available frontends"), "{e}");
        });
    }

    #[test]
    fn explain_prints_a_derivation_tree() {
        with_files(|dir| {
            let src = dir.join("p.s");
            fs::write(&src, ASM).unwrap();
            // `take`'s pointer parameter: revealed by its own load and
            // propagated through the cascade, so the tree bottoms out at
            // reveal leaves under at least one inference tier.
            let out = run(&s(&["explain", src.to_str().unwrap(), "take", "p0"])).unwrap();
            assert!(out.contains("take:p0"), "{out}");
            assert!(out.contains("reveal"), "{out}");
            assert!(
                out.contains("FI") || out.contains("+CS") || out.contains("+FS"),
                "tree must cross an inference tier: {out}"
            );
            // Unknown values are a usage error, not a panic.
            let e = run(&s(&["explain", src.to_str().unwrap(), "take", "v99"])).unwrap_err();
            assert!(e.to_string().contains("no value"), "{e}");
            let e = run(&s(&["explain", src.to_str().unwrap(), "nosuch", "p0"])).unwrap_err();
            assert!(e.to_string().contains("no value"), "{e}");
        });
    }
}
