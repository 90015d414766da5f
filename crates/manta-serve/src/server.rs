//! The analysis daemon: accept loop, admission control, per-request
//! fault isolation, store GC, and graceful drain.
//!
//! ## Request lifecycle and fault sites
//!
//! Each connection has one thread, and that thread runs its own
//! analyses: the protocol is one request at a time per connection.
//!
//! ```text
//! accept ── serve.accept ──► decode ── serve.decode ──► admission gate
//!    (connection thread,                                   │ queue_cap waiting → Overloaded
//!     TCP_NODELAY)                                         ▼ queue wait (for a run slot)
//!                            run slot ── serve.dispatch ──► Engine::infer_source:
//!                                 │                           hash text → src alias → infer entry
//!                                 │                           hit: stored bytes (no parse)
//!                                 │                           else parse → preprocess →
//!                                 │                             fingerprint → probe
//!                                 │ serve.gc (periodic)       miss: call graph, points-to,
//!                                 │                           DDG, cascade (manta-parallel)
//!                                 ▼ service time
//!                              respond ── serve.respond ──► one write per frame
//!                                                           (respond time)
//! ```
//!
//! Every named site is a deterministic `manta-resilience` fault point:
//! an injected panic is caught at the site's isolation boundary and
//! turned into a structured [`MantaError`] response, and an injected
//! budget exhaustion becomes a structured `Budget { kind: Injected }`
//! response — in both cases the connection and the daemon keep serving.
//!
//! Every admitted job records its queue wait, service time and respond
//! time (encode plus write) in per-daemon power-of-two histograms,
//! rendered by [`Request::Stats`] as count, p50 and p99 in microseconds.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use manta::{Engine, Sensitivity};
use manta_resilience::{
    fault_point, isolate, take_pending_exhaustion, BudgetKind, BudgetSpec, MantaError,
};
use manta_telemetry::HistogramCell;

use crate::proto::{read_frame, write_frame, FrameReader, Request, Response};

/// Retry hint carried on `Overloaded` responses, in milliseconds.
pub const RETRY_AFTER_MS: u64 = 25;

/// Tuning knobs for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Analyses allowed to run at once, each on the connection thread
    /// that read it.
    pub workers: usize,
    /// Analyses allowed to wait for a run slot; one more is refused
    /// with `Overloaded`.
    pub queue_cap: usize,
    /// Server-side ceiling on per-request fuel. A request asking for
    /// more (or for none) is clamped down to this.
    pub fuel_cap: Option<u64>,
    /// Server-side ceiling on per-request deadlines, milliseconds.
    pub deadline_cap_ms: Option<u64>,
    /// Store GC byte budget; `None` disables GC.
    pub gc_max_bytes: Option<u64>,
    /// Analyses between GC passes.
    pub gc_every: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 8,
            fuel_cap: None,
            deadline_cap_ms: None,
            gc_max_bytes: None,
            gc_every: 32,
        }
    }
}

/// Plain-value snapshot of one daemon's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeStats {
    /// Frames successfully decoded into requests.
    pub requests: u64,
    /// Analyses completed (including degraded ones).
    pub analyzed: u64,
    /// Analyses that completed degraded.
    pub degraded: u64,
    /// Requests answered with a structured error.
    pub errors: u64,
    /// Jobs rejected by admission control.
    pub overloaded: u64,
    /// Frames that failed to read or decode.
    pub frame_errors: u64,
    /// GC passes run.
    pub gc_runs: u64,
    /// Entries evicted by GC.
    pub gc_evicted: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
}

#[derive(Default)]
struct StatsCells {
    requests: AtomicU64,
    analyzed: AtomicU64,
    degraded: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    frame_errors: AtomicU64,
    gc_runs: AtomicU64,
    gc_evicted: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            analyzed: self.analyzed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            gc_runs: self.gc_runs.load(Ordering::Relaxed),
            gc_evicted: self.gc_evicted.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Per-daemon latency histograms over admitted jobs, in microseconds.
#[derive(Default)]
struct Latencies {
    /// Admission to the run slot.
    queue_wait: HistogramCell,
    /// The job: on a source-alias hit, hashing the text and two store
    /// reads; otherwise parse, analyze and encode the result.
    service: HistogramCell,
    /// Encoding and writing the job's response frame.
    respond: HistogramCell,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Admission control for analyses: two counters under one lock. An
/// admission is refused when `queue_cap` analyses are already waiting,
/// checked before the caller starts waiting, so `queue_cap == 0` refuses
/// every analysis; otherwise the caller waits for one of `workers` run
/// slots.
struct Gate {
    workers: usize,
    queue_cap: usize,
    counts: Mutex<GateCounts>,
    cv: Condvar,
}

#[derive(Default)]
struct GateCounts {
    waiting: usize,
    running: usize,
}

impl Gate {
    fn new(workers: usize, queue_cap: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_cap,
            counts: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the caller may run its analysis, or `None` at once
    /// when the queue is full — the caller answers `Overloaded`.
    fn admit(&self) -> Option<RunSlot<'_>> {
        let mut counts = lock(&self.counts);
        if counts.waiting >= self.queue_cap {
            return None;
        }
        counts.waiting += 1;
        while counts.running >= self.workers {
            counts = self.cv.wait(counts).unwrap_or_else(PoisonError::into_inner);
        }
        counts.waiting -= 1;
        counts.running += 1;
        Some(RunSlot(self))
    }

    /// Analyses waiting for a run slot, and analyses running.
    fn counts(&self) -> (usize, usize) {
        let counts = lock(&self.counts);
        (counts.waiting, counts.running)
    }

    /// Blocks until no analysis is waiting or running.
    fn wait_idle(&self) {
        let mut counts = lock(&self.counts);
        while counts.waiting + counts.running > 0 {
            counts = self.cv.wait(counts).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One of the gate's run slots, released on drop — on every exit path,
/// an unwind that escapes the isolation layers included.
struct RunSlot<'a>(&'a Gate);

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        lock(&self.0.counts).running -= 1;
        // Both admissions and the drain wait on this condvar.
        self.0.cv.notify_all();
    }
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    /// The bound address, so a remote `Shutdown` can poke the accept
    /// loop out of its blocking `accept()` with a self-connection.
    addr: SocketAddr,
    gate: Gate,
    draining: AtomicBool,
    analyze_count: AtomicU64,
    stats: StatsCells,
    latency: Latencies,
    /// Live connection-handler count, so drain can wait for responders.
    conns: Mutex<usize>,
    conns_cv: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn render_stats(&self) -> String {
        let s = self.stats.snapshot();
        let mut out = String::new();
        for (name, v) in [
            ("serve.requests", s.requests),
            ("serve.analyzed", s.analyzed),
            ("serve.degraded", s.degraded),
            ("serve.errors", s.errors),
            ("serve.overloaded", s.overloaded),
            ("serve.frame_errors", s.frame_errors),
            ("serve.gc_runs", s.gc_runs),
            ("serve.gc_evicted", s.gc_evicted),
            ("serve.bytes_in", s.bytes_in),
            ("serve.bytes_out", s.bytes_out),
        ] {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, cell) in [
            ("serve.queue_wait_us", &self.latency.queue_wait),
            ("serve.service_us", &self.latency.service),
            ("serve.respond_us", &self.latency.respond),
        ] {
            let h = cell.report();
            out.push_str(&format!("{name}.count {}\n", h.count));
            out.push_str(&format!("{name}.p50 {}\n", h.quantile(0.5)));
            out.push_str(&format!("{name}.p99 {}\n", h.quantile(0.99)));
        }
        if let Some(cache) = self.engine.cache() {
            let st = cache.store().stats().snapshot();
            out.push_str(&format!("store.hits {}\n", st.hits));
            out.push_str(&format!("store.misses {}\n", st.misses));
            for (kind, hits, misses) in cache.store().kind_traffic() {
                out.push_str(&format!("store.{kind}.hits {hits}\n"));
                out.push_str(&format!("store.{kind}.misses {misses}\n"));
            }
            out.push_str(&format!("store.evictions {}\n", st.evictions));
            out.push_str(&format!("store.bytes {}\n", cache.store().disk_usage()));
        }
        out
    }
}

/// A running daemon: owns the accept loop, which gives every
/// connection a thread that also runs that connection's analyses.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the accept loop. At most
    /// `config.workers` analyses run at once. The engine's attached cache
    /// (if any) is shared by every session; requests run on per-request
    /// engine clones so one tenant's budget never leaks into another's.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or spawning the accept thread.
    pub fn spawn(engine: Engine, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            gate: Gate::new(config.workers, config.queue_cap),
            config,
            addr,
            draining: AtomicBool::new(false),
            analyze_count: AtomicU64::new(0),
            stats: StatsCells::default(),
            latency: Latencies::default(),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("manta-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Whether a client asked the daemon to shut down.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Admitted analyses currently waiting for a run slot.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.gate.counts().0
    }

    /// Analyses currently running.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.shared.gate.counts().1 as u64
    }

    /// Initiates a graceful drain: stop admitting new work, finish the
    /// admitted analyses, answer in-flight connections, then return.
    /// Also triggered remotely by [`Request::Shutdown`]; [`Server::join`]
    /// alone waits for that.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.finish();
    }

    /// Blocks until the daemon drains (a client sent
    /// [`Request::Shutdown`]) and every admitted analysis has finished.
    pub fn join(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        // Unblock the accept loop: it re-checks `draining` per wakeup.
        if let Some(handle) = self.accept.take() {
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        // Every admitted analysis runs to its answer, however long.
        self.shared.gate.wait_idle();
        // Give in-flight connection handlers a bounded window to write
        // their final responses before the caller exits the process.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut conns = lock(&self.shared.conns);
        while *conns > 0 && Instant::now() < deadline {
            let (guard, _) = self
                .shared
                .conns_cv
                .wait_timeout(conns, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            conns = guard;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                // Persistent accept failures (fd exhaustion: EMFILE/
                // ENFILE) must not become a hot spin; back off briefly.
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
        };
        if shared.draining() {
            return;
        }
        {
            *lock(&shared.conns) += 1;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("manta-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                let mut conns = lock(&conn_shared.conns);
                *conns = conns.saturating_sub(1);
                conn_shared.conns_cv.notify_all();
            });
        if spawned.is_err() {
            let mut conns = lock(&shared.conns);
            *conns = conns.saturating_sub(1);
        }
    }
}

/// Sends `resp`, running the `serve.respond` fault site. An injected
/// panic or exhaustion at the site replaces the payload with the
/// corresponding structured error — the client always gets *a* frame.
fn send(stream: &mut TcpStream, resp: Response, shared: &Shared) {
    let encoded = match isolate("serve.respond", || {
        fault_point("serve.respond");
        resp.encode()
    }) {
        Ok(bytes) => {
            if take_pending_exhaustion() {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    error: MantaError::Budget {
                        stage: "serve.respond".to_string(),
                        kind: BudgetKind::Injected,
                    },
                }
                .encode()
            } else {
                bytes
            }
        }
        Err(error) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::Error { error }.encode()
        }
    };
    shared
        .stats
        .bytes_out
        .fetch_add(encoded.len() as u64, Ordering::Relaxed);
    let _ = write_frame(stream, &encoded);
}

/// Sets up an accepted connection: `TCP_NODELAY`, so a response frame
/// goes out without waiting on the client's delayed ACK, and bounded
/// reads, so drain never waits on an idle client forever.
fn configure_connection(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    configure_connection(&stream);
    // Connection setup is itself a fault site: an injected failure here
    // still answers the client with a structured error before closing.
    // After writing the error, drain the client's (already in-flight)
    // request so closing our end does not RST the un-read error frame
    // out from under them.
    let accept_error = match isolate("serve.accept", || fault_point("serve.accept")) {
        Err(error) => Some(error),
        Ok(()) if take_pending_exhaustion() => Some(MantaError::Budget {
            stage: "serve.accept".to_string(),
            kind: BudgetKind::Injected,
        }),
        Ok(()) => None,
    };
    if let Some(error) = accept_error {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        send(&mut stream, Response::Error { error }, shared);
        let _ = read_frame(&mut stream);
        return;
    }
    // The persistent reader keeps partial frames across read timeouts:
    // a timeout that lands mid-length-prefix or mid-payload resumes on
    // the next iteration instead of desynchronizing the stream.
    let mut frames = FrameReader::new();
    loop {
        let payload = match frames.read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return;
                }
                continue;
            }
            Err(_) => {
                // Truncated or malformed framing: nothing sensible can
                // be parsed from this stream anymore.
                shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        shared
            .stats
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);

        let decoded = isolate("serve.decode", || {
            fault_point("serve.decode");
            Request::decode(&payload)
        });
        let request = match decoded {
            Err(error) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                send(&mut stream, Response::Error { error }, shared);
                continue;
            }
            Ok(Err(decode_err)) => {
                shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                send(
                    &mut stream,
                    Response::Error {
                        error: MantaError::Parse {
                            line: 0,
                            col: decode_err.offset,
                            message: decode_err.to_string(),
                        },
                    },
                    shared,
                );
                continue;
            }
            Ok(Ok(request)) => request,
        };
        if take_pending_exhaustion() {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            send(
                &mut stream,
                Response::Error {
                    error: MantaError::Budget {
                        stage: "serve.decode".to_string(),
                        kind: BudgetKind::Injected,
                    },
                },
                shared,
            );
            continue;
        }

        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Ping => send(&mut stream, Response::Pong, shared),
            Request::Stats => {
                let text = shared.render_stats();
                send(&mut stream, Response::Stats { text }, shared);
            }
            Request::Shutdown => {
                shared.begin_drain();
                send(&mut stream, Response::ShuttingDown, shared);
                // Wake the accept loop out of its blocking accept() so a
                // `join()`ed daemon actually exits; the poke connection
                // is dropped unserved once `draining` is observed.
                let _ = TcpStream::connect(shared.addr);
                return;
            }
            Request::Analyze {
                module_text,
                sensitivity,
                fuel,
                deadline_ms,
            } => {
                if shared.draining() {
                    send(&mut stream, Response::ShuttingDown, shared);
                    continue;
                }
                let admitted = Instant::now();
                let Some(slot) = shared.gate.admit() else {
                    shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                    send(
                        &mut stream,
                        Response::Overloaded {
                            retry_after_ms: RETRY_AFTER_MS,
                        },
                        shared,
                    );
                    continue;
                };
                let start = Instant::now();
                shared
                    .latency
                    .queue_wait
                    .record(micros(start.duration_since(admitted)));
                // The whole job — including parsing the untrusted module
                // text — runs inside an isolation boundary: a panic
                // anywhere becomes a structured error on this client's
                // wire, never a dead connection.
                let requested = BudgetSpec { fuel, deadline_ms };
                let resp = isolate("serve.worker", || {
                    run_job(shared, &module_text, sensitivity, requested)
                })
                .unwrap_or_else(|error| Response::Error { error });
                shared.latency.service.record(micros(start.elapsed()));
                // A slow client's write holds no run slot.
                drop(slot);
                if matches!(resp, Response::Error { .. }) {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                let start = Instant::now();
                send(&mut stream, resp, shared);
                shared.latency.respond.record(micros(start.elapsed()));
            }
        }
    }
}

/// Clamps a request's budget under the server's ceilings: a tenant may
/// ask for less than the cap, never more (or nothing, which reads as
/// "as much as allowed").
fn clamp_budget(requested: BudgetSpec, config: &ServeConfig) -> BudgetSpec {
    let take_min = |req: Option<u64>, cap: Option<u64>| match (req, cap) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    };
    BudgetSpec {
        fuel: take_min(requested.fuel, config.fuel_cap),
        deadline_ms: take_min(requested.deadline_ms, config.deadline_cap_ms),
    }
}

fn run_job(
    shared: &Shared,
    module_text: &str,
    sensitivity: Sensitivity,
    requested: BudgetSpec,
) -> Response {
    let budget = clamp_budget(requested, &shared.config);
    // A per-request engine: same config and shared cache, this
    // request's sensitivity and clamped budget.
    let mut builder = Engine::builder()
        .config(*shared.engine.config())
        .sensitivity(sensitivity)
        .budget(budget)
        .strict(shared.engine.strict());
    if let Some(cache) = shared.engine.cache_handle() {
        builder = builder.cache(cache);
    }
    let session = match builder.build() {
        Ok(engine) => engine,
        Err(e) => {
            return Response::Error {
                error: MantaError::Verify {
                    message: e.to_string(),
                },
            }
        }
    };

    let outcome = isolate("serve.dispatch", || {
        fault_point("serve.dispatch");
        if take_pending_exhaustion() {
            return Err(MantaError::Budget {
                stage: "serve.dispatch".to_string(),
                kind: BudgetKind::Injected,
            });
        }
        // Parsing untrusted network bytes happens inside the isolation
        // boundary: a parser panic must answer this client, not unwind
        // the connection thread.
        session.infer_source(module_text, |text| {
            manta_isa::parse_source(text).map_err(|e| MantaError::Parse {
                line: e.line(),
                col: e.col(),
                message: e.message().to_string(),
            })
        })
    });
    match outcome {
        Ok(Ok(answer)) => {
            shared.stats.analyzed.fetch_add(1, Ordering::Relaxed);
            // The GC trigger decision must come from the value this
            // increment produced: a separate load would let two
            // concurrent successes stride past the multiple and skip
            // the cycle.
            let analyzed = shared.analyze_count.fetch_add(1, Ordering::Relaxed) + 1;
            let degraded = answer.degradations > 0;
            if degraded {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            let counts = answer.counts;
            let summary = format!(
                "sensitivity={sensitivity:?} precise={} over={} unknown={} degradations={}",
                counts.precise, counts.over, counts.unknown, answer.degradations
            );
            // GC before the response is written: a client observing its
            // answer may rely on the post-analysis sweep having happened
            // (the fault-matrix suite asserts exactly that).
            maybe_gc(shared, analyzed);
            Response::Analyzed {
                result: answer.bytes,
                summary,
                degraded,
            }
        }
        Ok(Err(error)) | Err(error) => Response::Error { error },
    }
}

/// Runs a GC pass every `gc_every` analyses when a byte budget is
/// configured; `analyzed` is the 1-based success count produced by the
/// caller's own increment, so concurrent analyses each decide from a
/// distinct value and no cycle is skipped (and failed jobs never
/// trigger a pass). The pass is fault-isolated: an injected `serve.gc`
/// failure is swallowed (GC is advisory) and the daemon keeps serving.
fn maybe_gc(shared: &Shared, analyzed: u64) {
    let Some(max_bytes) = shared.config.gc_max_bytes else {
        return;
    };
    let Some(cache) = shared.engine.cache() else {
        return;
    };
    let every = shared.config.gc_every.max(1);
    if !analyzed.is_multiple_of(every) {
        return;
    }
    let swept = isolate("serve.gc", || {
        fault_point("serve.gc");
        cache.store().gc(max_bytes)
    });
    let _ = take_pending_exhaustion();
    if let Ok(report) = swept {
        shared.stats.gc_runs.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .gc_evicted
            .fetch_add(report.evicted as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Spins until the gate reads `(waiting, running)`: other threads'
    /// progress is observed through the counters, never through timing.
    fn await_counts(gate: &Gate, want: (usize, usize)) {
        while gate.counts() != want {
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_runs_one_queues_one_and_refuses_the_next() {
        let gate = &Gate::new(1, 1);
        let first = gate.admit().expect("a free run slot admits");
        assert_eq!(gate.counts(), (0, 1));
        std::thread::scope(|s| {
            let (ran_tx, ran_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let second = s.spawn(move || {
                let _slot = gate.admit().expect("one waiting analysis fits the queue");
                ran_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            await_counts(gate, (1, 1));
            assert!(gate.admit().is_none(), "a full queue refuses at once");
            assert!(
                ran_rx.try_recv().is_err(),
                "the second runs only after the first"
            );
            drop(first);
            ran_rx.recv().unwrap();
            assert_eq!(gate.counts(), (0, 1));
            release_tx.send(()).unwrap();
            second.join().unwrap();
        });
        assert_eq!(gate.counts(), (0, 0));
    }

    #[test]
    fn gate_without_a_queue_refuses_even_with_a_free_run_slot() {
        let gate = Gate::new(4, 0);
        assert!(gate.admit().is_none());
        assert_eq!(gate.counts(), (0, 0));
    }

    #[test]
    fn drain_waits_for_every_waiting_and_running_analysis() {
        let gate = &Gate::new(1, 1);
        // Each analysis bumps this just before its slot is released, so a
        // drain that returned early would read less than 2.
        let released = &AtomicUsize::new(0);
        let running = gate.admit().expect("a free run slot admits");
        std::thread::scope(|s| {
            let (release_tx, release_rx) = mpsc::channel::<()>();
            s.spawn(move || {
                let _slot = gate.admit().expect("one waiting analysis fits the queue");
                release_rx.recv().unwrap();
                released.fetch_add(1, Ordering::SeqCst);
            });
            await_counts(gate, (1, 1));
            let drain = s.spawn(move || {
                gate.wait_idle();
                released.load(Ordering::SeqCst)
            });
            released.fetch_add(1, Ordering::SeqCst);
            drop(running);
            release_tx.send(()).unwrap();
            assert_eq!(drain.join().unwrap(), 2);
        });
        assert_eq!(gate.counts(), (0, 0));
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_connection(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert!(accepted.read_timeout().unwrap().is_some());
    }
}
