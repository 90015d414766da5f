//! End-to-end benchmark of the manta pipeline.
//!
//! ```text
//! bench_e2e --workload <audit|edit|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--size <full|smoke>] [--write-digests]
//! ```
//!
//! Each workload drives the same public calls the CLI, the `Engine`
//! library and the daemon make, as a closed loop:
//!
//! * `audit` — one caller lifts (or parses) a seeded corpus of stripped
//!   images, builds the substrate, runs the FI+CS+FS cascade, the bug
//!   checkers and indirect-call resolution: `manta bugs` + `manta icall`.
//! * `edit` — one caller re-analyzes a 2112-function polymorphic-cluster
//!   module through a summary-mode `Engine` with a persistent cache:
//!   each one-constant edit is followed by two re-queries.
//! * `serve` — two connections send `Analyze` requests with skewed
//!   popularity to an in-process `manta_serve::Server`.
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` ops alternate between untraced and traced, and the run
//! prints the per-layer metrics from the traced ops' spans (see
//! [`trace`]) and writes them as Chrome trace-event JSON under `out/`.
//! Outputs are checked outside the timer; for a seed with a file under
//! `digests/`, per-op output digests are compared against it
//! (`--write-digests` regenerates that file). The default seed must have
//! one: without it the run exits with an error, and a run that compares
//! no digest fails. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod audit;
mod calls;
mod corpus;
mod edit;
mod host;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Workload scale: `full` is the benchmark, `smoke` a tiny corpus for
/// the package's own test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub write_digests: bool,
}

impl Args {
    /// Whether op `k` of a caller is traced: every second op of a traced
    /// run, so traced and untraced ops see the same mix.
    pub fn traced_op(&self, k: u64) -> bool {
        self.trace && k % 2 == 1
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        write_digests: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("unknown size `{other}`")),
                }
            }
            "--write-digests" => args.write_digests = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["audit", "edit", "serve"].contains(&args.workload.as_str()) {
        return Err("--workload must be audit, edit or serve".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The benchmark's scratch directory (caches, trace files), inside the
/// package so a run never writes outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The default seed, whose per-op output digests are stored with the
/// benchmark.
const DIGEST_SEED: u64 = 1;

/// Per-op output digests stored with the benchmark for one seed.
pub struct Digests {
    path: PathBuf,
    stored: BTreeMap<(String, u64), u64>,
    writing: bool,
    /// Whether this seed's digests are stored, so a run must compare some.
    required: bool,
    pub compared: u64,
}

impl Digests {
    /// Loads the digests stored for `seed`. For the default seed the file
    /// must exist and hold digests of the run's workload, unless they are
    /// being written.
    fn load(size: Size, seed: u64, workload: &str, writing: bool) -> Result<Digests, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("digests")
            .join(format!("{}-seed{seed}.txt", size.label()));
        let required = seed == DIGEST_SEED && !writing;
        let mut stored = BTreeMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.starts_with('#')) {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    let parsed = match f[..] {
                        [w, i, d] => i
                            .parse()
                            .ok()
                            .zip(u64::from_str_radix(d, 16).ok())
                            .map(|(i, d)| ((w.to_string(), i), d)),
                        _ => None,
                    };
                    let (key, d) =
                        parsed.ok_or_else(|| format!("{}: bad line `{line}`", path.display()))?;
                    stored.insert(key, d);
                }
            }
            Err(e) if required => return Err(format!("{}: {e}", path.display())),
            Err(_) => {}
        }
        if required && !stored.keys().any(|(w, _)| w == workload) {
            return Err(format!("{} holds no {workload} digests", path.display()));
        }
        if writing {
            stored.retain(|(w, _), _| w != workload);
        }
        Ok(Digests {
            path,
            stored,
            writing,
            required,
            compared: 0,
        })
    }

    /// Compares op `index`'s output digest with the stored one; true
    /// when they agree or none is stored. When writing, records it.
    pub fn check(&mut self, workload: &str, index: u64, digest: u64) -> bool {
        let key = (workload.to_string(), index);
        if self.writing {
            self.stored.insert(key, digest);
            return true;
        }
        match self.stored.get(&key) {
            Some(&d) => {
                self.compared += 1;
                d == digest
            }
            None => true,
        }
    }

    fn save(&self) -> std::io::Result<()> {
        let mut text = String::from("# workload op digest (canonical output hash)\n");
        for ((w, i), d) in &self.stored {
            text.push_str(&format!("{w} {i} {d:016x}\n"));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, text)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// Latencies of the untraced ops, ms.
    pub latencies: Vec<f64>,
    /// Seconds over which the untraced ops completed: the sum of their
    /// latencies for one caller, the window for concurrent callers.
    pub busy_s: f64,
    /// The traced ops.
    pub traced: Vec<trace::OpTime>,
    pub setup_s: Vec<f64>,
    pub quality: corpus::Quality,
    /// Result lookups and hits.
    pub lookups: (u64, u64),
    pub chunks: calls::Chunks,
    /// Extra report lines.
    pub rows: Vec<String>,
}

impl Outcome {
    /// Accounts one finished op.
    pub fn op(&mut self, time: trace::OpTime, traced: bool, checked: Result<(), String>) {
        self.attempted += 1;
        if traced {
            self.traced.push(time);
        } else {
            self.latencies.push(time.ms());
        }
        if let Err(e) = checked {
            self.fail(e);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.latencies.extend(other.latencies);
        self.traced.extend(other.traced);
        self.rows.extend(other.rows);
        self.chunks.replayed += other.chunks.replayed;
        self.chunks.total += other.chunks.total;
    }
}

/// Least set-up samples before the measured window and after it.
/// `setup_s` is the median of all of them: sampling both ends of a run
/// keeps one slow stretch of a shared host from deciding it.
pub const SETUP_BEFORE: usize = 2;
pub const SETUP_AFTER: usize = 1;

/// Each side also samples its set-up for at least this long (at most
/// [`SETUP_MAX_SAMPLES`] times), so a cheap set-up gets many samples.
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_SAMPLES: usize = 25;

/// Samples a workload's set-up at least `samples` times and for at least
/// [`SETUP_MIN_S`], recording each sample in `setup_s`; returns the last
/// set-up's result. A sample is the mean time of one set-up per CPU of
/// `cpus`: `setup(rep)` pins itself with `cpus.pin(rep)`. The CPUs of a
/// shared host can differ in speed, so a sample that covers them all
/// does not hinge on where the scheduler ran it. Leaves the thread
/// unpinned.
pub fn set_up<T>(
    samples: usize,
    setup_s: &mut Vec<f64>,
    cpus: &host::CpuSpread,
    mut setup: impl FnMut(u64) -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    let mut spent = 0.0;
    let mut rep = 0;
    let mut taken = 0;
    while taken < samples || (spent < SETUP_MIN_S && taken < SETUP_MAX_SAMPLES) {
        let mut sample = 0.0;
        for _ in 0..cpus.count() {
            let t = Instant::now();
            let made = setup(rep);
            sample += t.elapsed().as_secs_f64();
            rep += 1;
            // The previous set-up's result is dropped here, untimed.
            last = Some(made?);
        }
        cpus.unpin();
        spent += sample;
        taken += 1;
        setup_s.push(sample / cpus.count() as f64);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// The `q`-quantile by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ops per second of ops with these wall times.
fn rate(ms: impl Iterator<Item = f64>) -> f64 {
    let (n, total) = ms.fold((0u64, 0.0), |(n, t), x| (n + 1, t + x));
    if total > 0.0 {
        n as f64 * 1e3 / total
    } else {
        0.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(o: &Outcome, rss: f64) -> Vec<Metric> {
    let mut sorted = o.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let p90 = quantile(&sorted, 0.9);
    println!(
        "latency samples {} ({} beyond p90); ms at p10 p25 p50 p75 p90 p99: {:?}",
        sorted.len(),
        sorted.iter().filter(|&&x| x > p90).count(),
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.99].map(|q| (quantile(&sorted, q) * 1e3).round() / 1e3)
    );
    vec![
        metric(
            "ops_per_s",
            sorted.len() as f64 / o.busy_s.max(1e-9),
            "op/s",
        ),
        metric("op_p50_ms", quantile(&sorted, 0.5), "ms"),
        metric("op_p90_ms", p90, "ms"),
        metric("peak_rss_mib", rss, "MiB"),
        metric("setup_s", median(&o.setup_s), "s"),
        metric("type_precision_pct", o.quality.type_precision_pct(), "%"),
        metric("type_recall_pct", o.quality.type_recall_pct(), "%"),
        metric("bug_precision_pct", o.quality.bug_precision_pct(), "%"),
    ]
}

fn per_layer(o: &Outcome) -> Vec<Metric> {
    let mut out = Vec::new();
    for (layer, s) in trace::layer_stats() {
        let n = layer.name();
        out.push(metric(format!("{n}.calls"), s.calls as f64, "count"));
        out.push(metric(format!("{n}.self_ms"), s.self_ns as f64 / 1e6, "ms"));
        out.push(metric(format!("{n}.allocs"), s.allocs as f64, "count"));
        out.push(metric(
            format!("{n}.alloc_mib"),
            s.bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.push(metric(
        "cache.hit_ratio",
        ratio(o.lookups.1, o.lookups.0),
        "ratio",
    ));
    out.push(metric(
        "summaries.replay_ratio",
        ratio(o.chunks.replayed, o.chunks.total),
        "ratio",
    ));
    let wall: u64 = o.traced.iter().map(|t| t.wall_ns).sum();
    let top: u64 = o.traced.iter().map(|t| t.top_ns).sum();
    let unattributed = if wall == 0 {
        0.0
    } else {
        100.0 * (wall as f64 - top as f64) / wall as f64
    };
    out.push(metric("unattributed_pct", unattributed, "%"));
    let untraced = rate(o.latencies.iter().copied());
    let traced = rate(o.traced.iter().map(trace::OpTime::ms));
    let overhead = if untraced > 0.0 {
        100.0 * (untraced - traced) / untraced
    } else {
        0.0
    };
    out.push(metric("trace.overhead_pct", overhead, "%"));
    println!(
        "unattributed_pct {unattributed:.3} % (target < 5 %) over {} traced ops; \
         traced {traced:.3} op/s vs untraced {untraced:.3} op/s",
        o.traced.len()
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    };
    trace::init();
    manta_telemetry::set_enabled(false);
    // One pool worker: the workloads measure single-thread efficiency,
    // and nested pool threads would oversubscribe the daemon's workers.
    manta_parallel::set_threads(1);

    let mut digests = match Digests::load(args.size, args.seed, &args.workload, args.write_digests)
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_e2e: stored output digests: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match args.workload.as_str() {
        "audit" => audit::run(&args, &mut digests),
        "edit" => edit::run(&args, &mut digests),
        _ => serve::run(&args, &mut digests),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {} workload could not run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if digests.required && digests.compared == 0 {
        outcome.fail("no op's output digest was compared with a stored one".to_string());
    }
    if args.write_digests {
        if let Err(e) = digests.save() {
            eprintln!("bench_e2e: cannot write digests: {e}");
            std::process::exit(1);
        }
    }
    let rss = host::peak_rss_mib().unwrap_or(0.0);

    println!(
        "bench_e2e workload={} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.label()
    );
    println!(
        "host nproc={} effective_parallelism={:.3}",
        host::nproc(),
        host::effective_parallelism()
    );
    for row in &outcome.rows {
        println!("{row}");
    }
    for f in &outcome.failures {
        eprintln!("failed op: {f}");
    }
    println!(
        "ops attempted {} failed {} fail_rate {} digests compared {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        digests.compared
    );
    println!(
        "setup_s samples {:?}",
        outcome
            .setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    let metrics = if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match trace::write_chrome_trace(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("bench_e2e: cannot write trace {}: {e}", path.display()),
        }
        per_layer(&outcome)
    } else {
        end_to_end(&outcome, rss)
    };
    let mut json = String::new();
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
        if !json.is_empty() {
            json.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    );
}
