//! The analysis daemon: accept loop, admission control, worker pool,
//! per-request fault isolation, store GC, and graceful drain.
//!
//! ## Request lifecycle and fault sites
//!
//! ```text
//! accept ── serve.accept ──► decode ── serve.decode ──► admission
//!    (connection thread,                                   │ full → Overloaded
//!     TCP_NODELAY)                                         ▼ queue wait
//!                              worker ── serve.dispatch ──► Engine::infer_source:
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
//! response — in both cases the worker and the daemon keep serving.
//!
//! Every admitted job records its queue wait, service time and respond
//! time (encode plus write) in per-daemon power-of-two histograms,
//! rendered by [`Request::Stats`] as count, p50 and p99 in microseconds.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use manta::Engine;
use manta_resilience::{
    fault_point, isolate, take_pending_exhaustion, BudgetKind, BudgetSpec, MantaError,
};
use manta_telemetry::HistogramCell;

use crate::counters;
use crate::proto::{read_frame, write_frame, FrameReader, Request, Response};

/// Tuning knobs for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Analysis worker threads (admission-controlled jobs run here).
    pub workers: usize,
    /// Bounded job-queue depth; a full queue rejects with `Overloaded`.
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
    /// Retry hint carried on `Overloaded` responses.
    pub retry_after_ms: u64,
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
            retry_after_ms: 25,
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
    /// Submit to worker pickup.
    queue_wait: HistogramCell,
    /// The worker's job: on a source-alias hit, hashing the text and two
    /// store reads; otherwise parse, analyze and encode the result.
    service: HistogramCell,
    /// Encoding and writing the job's response frame.
    respond: HistogramCell,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One queued analysis job: the request, the slot its connection
/// thread is blocked on, and when it was admitted.
struct Job {
    request: Request,
    slot: Arc<ResponseSlot>,
    submitted: Instant,
}

/// A oneshot rendezvous between a connection thread and a worker.
#[derive(Default)]
struct ResponseSlot {
    value: Mutex<Option<Response>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn fill(&self, resp: Response) {
        if let Ok(mut guard) = self.value.lock() {
            *guard = Some(resp);
        }
        self.cv.notify_all();
    }

    /// Blocks until a worker fills the slot, up to `backstop`. The
    /// worker's drop guard makes an unanswered slot nearly impossible;
    /// the bound means even an unforeseen worker failure cannot leak
    /// this connection thread forever.
    fn wait(&self, backstop: Duration) -> Response {
        let deadline = std::time::Instant::now() + backstop;
        let Ok(mut guard) = self.value.lock() else {
            return Response::Error {
                error: MantaError::Panic {
                    stage: "serve.slot".to_string(),
                    message: "response slot poisoned".to_string(),
                },
            };
        };
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Response::Error {
                    error: MantaError::Verify {
                        message: "no worker response within the backstop window".to_string(),
                    },
                };
            }
            guard = match self.cv.wait_timeout(guard, deadline - now) {
                Ok((g, _)) => g,
                Err(poison) => poison.into_inner().0,
            };
        }
    }
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    /// The bound address, so a remote `Shutdown` can poke the accept
    /// loop out of its blocking `accept()` with a self-connection.
    addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    draining: AtomicBool,
    analyze_count: AtomicU64,
    in_flight: AtomicU64,
    stats: StatsCells,
    latency: Latencies,
    /// Live connection-handler count, so drain can wait for responders.
    conns: Mutex<usize>,
    conns_cv: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.work_cv.notify_all();
    }

    /// Admission control: accepts the job if the bounded queue has
    /// room, else `None` — the caller answers `Overloaded`.
    fn try_submit(&self, request: Request) -> Option<Arc<ResponseSlot>> {
        let mut q = lock(&self.queue);
        if q.len() >= self.config.queue_cap {
            return None;
        }
        let slot = Arc::new(ResponseSlot::default());
        q.push_back(Job {
            request,
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        });
        drop(q);
        self.work_cv.notify_one();
        Some(slot)
    }

    /// Worker loop: pop until the daemon is draining *and* the queue is
    /// empty (drain finishes queued work, it does not drop it).
    fn next_job(&self) -> Option<Job> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.draining() {
                return None;
            }
            q = match self.work_cv.wait(q) {
                Ok(g) => g,
                Err(poison) => poison.into_inner(),
            };
        }
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

/// A running daemon: owns the accept loop and worker threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the accept loop and
    /// `config.workers` analysis workers. The engine's attached cache
    /// (if any) is shared by every session; requests run on per-request
    /// engine clones so one tenant's budget never leaks into another's.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or spawning threads.
    pub fn spawn(engine: Engine, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            analyze_count: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            stats: StatsCells::default(),
            latency: Latencies::default(),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("manta-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?;
            worker_handles.push(handle);
        }

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("manta-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
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

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Jobs currently executing on workers.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Initiates a graceful drain: stop admitting new work, finish the
    /// queued jobs, answer in-flight connections, then return. Also
    /// triggered remotely by [`Request::Shutdown`]; [`Server::join`]
    /// alone waits for that.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.finish();
    }

    /// Blocks until the daemon drains (a client sent
    /// [`Request::Shutdown`]) and every worker exits.
    pub fn join(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        // Unblock the accept loop: it re-checks `draining` per wakeup.
        if let Some(handle) = self.accept.take() {
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Give in-flight connection handlers a bounded window to write
        // their final responses before the caller exits the process.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut conns = lock(&self.shared.conns);
        while *conns > 0 && std::time::Instant::now() < deadline {
            let (guard, _) = self
                .shared
                .conns_cv
                .wait_timeout(conns, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
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
    counters::BYTES_OUT.add(encoded.len() as u64);
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
                counters::FRAME_ERRORS.incr();
                return;
            }
        };
        shared
            .stats
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        counters::BYTES_IN.add(payload.len() as u64);

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
                counters::FRAME_ERRORS.incr();
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
        counters::REQUESTS.incr();
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
            req @ Request::Analyze { .. } => {
                if shared.draining() {
                    send(&mut stream, Response::ShuttingDown, shared);
                    continue;
                }
                // Worst-case honest wait: every queue slot ahead of us
                // running to its full deadline, plus slack. Undeadlined
                // requests get a generous fixed backstop.
                let backstop = match req.budget().deadline_ms {
                    Some(d) => Duration::from_millis(
                        d.saturating_mul(shared.config.queue_cap as u64 + 1)
                            .saturating_add(60_000),
                    ),
                    None => Duration::from_secs(600),
                };
                match shared.try_submit(req) {
                    Some(slot) => {
                        let resp = slot.wait(backstop);
                        let start = Instant::now();
                        send(&mut stream, resp, shared);
                        shared.latency.respond.record(micros(start.elapsed()));
                    }
                    None => {
                        shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                        counters::OVERLOADED.incr();
                        send(
                            &mut stream,
                            Response::Overloaded {
                                retry_after_ms: shared.config.retry_after_ms,
                            },
                            shared,
                        );
                    }
                }
            }
        }
    }
}

/// Guarantees every dequeued job is answered and accounted: dropped on
/// every exit path from a worker iteration — including an unwind that
/// somehow escapes the isolation layers — it balances the in-flight
/// gauge and fills the job's slot, so the parked connection thread
/// always wakes with a response and the worker pool never shrinks
/// silently.
struct FinishJob<'a> {
    shared: &'a Shared,
    slot: &'a ResponseSlot,
    resp: Option<Response>,
}

impl Drop for FinishJob<'_> {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        let resp = self.resp.take().unwrap_or_else(|| Response::Error {
            error: MantaError::Panic {
                stage: "serve.worker".to_string(),
                message: "worker unwound mid-request".to_string(),
            },
        });
        if matches!(resp, Response::Error { .. }) {
            self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.slot.fill(resp);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.next_job() {
        let start = Instant::now();
        shared
            .latency
            .queue_wait
            .record(micros(start.duration_since(job.submitted)));
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut finish = FinishJob {
            shared,
            slot: &job.slot,
            resp: None,
        };
        // The whole job — including parsing the untrusted module text —
        // runs inside an isolation boundary: a panic anywhere becomes a
        // structured error on this client's wire, never a dead worker.
        finish.resp = Some(
            isolate("serve.worker", || run_job(shared, &job.request))
                .unwrap_or_else(|error| Response::Error { error }),
        );
        // Recorded before `finish` drops and fills the slot, so a client
        // holding its answer already sees it counted.
        shared.latency.service.record(micros(start.elapsed()));
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

fn run_job(shared: &Shared, request: &Request) -> Response {
    let Request::Analyze {
        module_text,
        sensitivity,
        ..
    } = request
    else {
        // Only Analyze jobs are ever enqueued.
        return Response::Error {
            error: MantaError::Verify {
                message: "non-analyze job reached a worker".to_string(),
            },
        };
    };
    let budget = clamp_budget(request.budget(), &shared.config);
    // A per-request engine: same config and shared cache, this
    // request's sensitivity and clamped budget.
    let mut builder = Engine::builder()
        .config(*shared.engine.config())
        .sensitivity(*sensitivity)
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
        // the worker thread.
        session.infer_source(module_text, |text| {
            manta_isa::parse_source(text).map_err(|e| MantaError::Parse {
                line: 0,
                col: 0,
                message: e.message,
            })
        })
    });
    match outcome {
        Ok(Ok(answer)) => {
            shared.stats.analyzed.fetch_add(1, Ordering::Relaxed);
            counters::ANALYZED.incr();
            // The GC trigger decision must come from the value this
            // increment produced: a separate load would let two
            // concurrent successes stride past the multiple and skip
            // the cycle.
            let analyzed = shared.analyze_count.fetch_add(1, Ordering::Relaxed) + 1;
            let degraded = answer.degradations > 0;
            if degraded {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
                counters::DEGRADED.incr();
            }
            let counts = answer.counts;
            let summary = format!(
                "sensitivity={sensitivity:?} precise={} over={} unknown={} degradations={}",
                counts.precise, counts.over, counts.unknown, answer.degradations
            );
            // GC before the response is released to the connection
            // thread: a client observing its answer may rely on the
            // post-analysis sweep having happened (the fault-matrix
            // suite asserts exactly that).
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
/// caller's own increment, so concurrent workers each decide from a
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
        counters::GC_RUNS.incr();
        shared
            .stats
            .gc_evicted
            .fetch_add(report.evicted as u64, Ordering::Relaxed);
        counters::GC_EVICTED.add(report.evicted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
