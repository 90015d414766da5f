//! Torture suite for the `manta-serve` daemon.
//!
//! Contracts exercised here:
//!
//! * **Fault matrix** — every server-side fault site (`serve.accept`,
//!   `serve.decode`, `serve.dispatch`, `serve.respond`, `serve.gc`) and
//!   two substrate sites (`analysis.preprocess`, `analysis.pointsto`,
//!   armed against an already-cached module) × every fault kind (panic,
//!   injected budget exhaustion) yields a structured error on the
//!   client's wire (or, for the advisory GC site, no client impact at
//!   all), and the daemon keeps serving afterwards.
//! * **Stats** — one source-alias and one result lookup per request,
//!   and one sample per admitted job in each latency histogram.
//! * **Source alias** — cold, warm and repeated requests get identical
//!   bytes and summary lines.
//! * **Wire robustness** — truncated frames, garbage payloads and
//!   oversized length prefixes never wedge or kill the daemon, and
//!   neither do IR texts naming huge block or def numbers.
//! * **Admission control** — a full queue answers `Overloaded`
//!   deterministically; seeded client backoff retries to success once
//!   capacity returns.
//! * **Tenant budgets** — an over-budget request degrades to a
//!   structured result/error while its neighbours complete normally.
//! * **Crash recovery** — SIGKILLing a daemon mid-request loses no
//!   committed store entries: the store reopens `Recovered` (stale
//!   lock swept) and warm re-analysis is byte-identical.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use manta::cache::encode_result;
use manta::{AnalysisCache, Engine, MantaConfig, Sensitivity};
use manta_resilience::{BackoffPolicy, BudgetKind, Fault, FaultArming, FaultPlan, MantaError};
use manta_serve::client::{call_with_retry, Client};
use manta_serve::proto::{Request, Response};
use manta_serve::server::RETRY_AFTER_MS;
use manta_serve::{ServeConfig, Server};
use manta_store::{OpenOutcome, Store, TempDir};
use manta_workloads::generator::{generate, GenSpec};
use manta_workloads::PhenomenonMix;

/// Serializes tests: fault plans and telemetry switches are process
/// globals, and the store's advisory lock is per-directory.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique temp dir (removed when the guard drops) and its path.
fn temp_dir(tag: &str) -> (TempDir, PathBuf) {
    let tmp = TempDir::new(&format!("serve-it-{tag}"));
    let dir = tmp.path().to_path_buf();
    (tmp, dir)
}

fn module_text(seed: u64, functions: usize) -> String {
    let project = generate(&GenSpec {
        name: format!("serve_it_{seed}"),
        functions,
        mix: PhenomenonMix::balanced(),
        seed,
    });
    manta_ir::printer::print_module(&project.module)
}

fn analyze_req(seed: u64, functions: usize) -> Request {
    Request::Analyze {
        module_text: module_text(seed, functions),
        sensitivity: Sensitivity::FiCsFs,
        fuel: None,
        deadline_ms: None,
    }
}

/// Spawns a daemon on an ephemeral port with a cache at `dir`.
fn spawn_server(dir: &PathBuf, config: ServeConfig) -> Server {
    let cache = Arc::new(AnalysisCache::open(dir).expect("open serve cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache)
        .build()
        .expect("engine build with open cache");
    Server::spawn(engine, config).expect("bind daemon")
}

fn call_once(addr: std::net::SocketAddr, req: &Request) -> Response {
    let mut client = Client::connect(addr).expect("connect");
    client.call(req).expect("call")
}

/// What the daemon must answer for this module: the engine's own
/// canonical result bytes, computed locally without any cache.
fn expected_bytes(seed: u64, functions: usize) -> Vec<u8> {
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .build()
        .expect("engine build without cache");
    let module =
        manta_ir::parser::parse_module(&module_text(seed, functions)).expect("reparse module");
    let (_, result) = engine.analyze_module(module).expect("local analyze");
    encode_result(&result)
}

#[test]
fn analyze_over_the_wire_matches_local_analysis_byte_for_byte() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("roundtrip");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();

    assert_eq!(call_once(addr, &Request::Ping), Response::Pong);

    let want = expected_bytes(11, 4);
    // Cold, then warm: both must be byte-identical to the local run.
    for pass in ["cold", "warm"] {
        match call_once(addr, &analyze_req(11, 4)) {
            Response::Analyzed {
                result, degraded, ..
            } => {
                assert!(!degraded, "{pass}: un-budgeted analysis must not degrade");
                assert_eq!(result, want, "{pass}: wire bytes must equal local bytes");
            }
            other => panic!("{pass}: expected Analyzed, got {other:?}"),
        }
    }

    match call_once(addr, &Request::Stats) {
        Response::Stats { text } => {
            assert!(text.contains("serve.analyzed 2"), "stats: {text}");
            assert!(
                text.contains("store."),
                "stats must include store counters: {text}"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn fault_matrix_every_site_yields_a_structured_error_and_the_daemon_survives() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("matrix");
    let server = spawn_server(
        &dir,
        ServeConfig {
            // GC armed on every analysis so the serve.gc site is hit.
            gc_max_bytes: Some(u64::MAX),
            gc_every: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Cache the module first: an armed plan bypasses the daemon's source
    // alias and early cache probe, so the substrate sites below must
    // still fire.
    match call_once(addr, &analyze_req(23, 3)) {
        Response::Analyzed { .. } => {}
        other => panic!("warm-up: expected Analyzed, got {other:?}"),
    }

    let sites = [
        "serve.accept",
        "serve.decode",
        "serve.dispatch",
        "serve.respond",
        "serve.gc",
        "analysis.preprocess",
        "analysis.pointsto",
    ];
    for site in sites {
        for fault in [Fault::Panic, Fault::ExhaustBudget] {
            let guard = FaultPlan::new()
                .arm(site, fault, FaultArming::Always)
                .install();
            let response = call_once(addr, &analyze_req(23, 3));
            match site {
                // GC is advisory: the client's analysis must succeed
                // even while every GC pass is failing.
                "serve.gc" => match &response {
                    Response::Analyzed { .. } => {}
                    other => panic!("{site}/{fault:?}: expected Analyzed, got {other:?}"),
                },
                _ => match &response {
                    Response::Error { error } => match (fault, error) {
                        (Fault::Panic, MantaError::Panic { stage, .. }) => {
                            assert_eq!(stage, site, "panic must name its site");
                        }
                        (Fault::ExhaustBudget, MantaError::Budget { stage, kind }) => {
                            assert_eq!(stage, site, "exhaustion must name its site");
                            assert_eq!(*kind, BudgetKind::Injected);
                        }
                        other => panic!("{site}/{fault:?}: wrong error shape {other:?}"),
                    },
                    other => panic!("{site}/{fault:?}: expected Error, got {other:?}"),
                },
            }
            assert!(
                guard.fired(site) > 0,
                "{site}/{fault:?}: the armed site must actually fire"
            );
            drop(guard);

            // The same daemon keeps serving clean requests afterwards.
            match call_once(addr, &analyze_req(23, 3)) {
                Response::Analyzed { .. } => {}
                other => panic!("{site}/{fault:?}: daemon wedged after fault: {other:?}"),
            }
        }
    }

    server.shutdown();
}

/// A cold then a warm analysis of one module on one connection: each
/// request reads the text's source alias once and the result once (a
/// miss of each, then a hit of each; no second `infer` lookup after an
/// early-probe miss), and every admitted job lands once in each latency
/// histogram. Stats travel on the same connection, so its thread has
/// recorded both respond times before it renders them.
#[test]
fn stats_show_one_lookup_per_request_and_a_latency_sample_per_job() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("stats");
    let server = spawn_server(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    for pass in ["cold", "warm"] {
        match client.call(&analyze_req(17, 4)).expect("analyze call") {
            Response::Analyzed {
                degraded: false, ..
            } => {}
            other => panic!("{pass}: expected a clean Analyzed, got {other:?}"),
        }
    }
    let text = match client.call(&Request::Stats).expect("stats call") {
        Response::Stats { text } => text,
        other => panic!("expected Stats, got {other:?}"),
    };
    let stat = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no `{name}` line in stats:\n{text}"))
    };
    assert_eq!(stat("serve.analyzed"), 2, "{text}");
    for kind in ["infer", "src"] {
        assert_eq!(
            (
                stat(&format!("store.{kind}.misses")),
                stat(&format!("store.{kind}.hits"))
            ),
            (1, 1),
            "one {kind} lookup per request:\n{text}"
        );
    }
    for h in [
        "serve.queue_wait_us",
        "serve.service_us",
        "serve.respond_us",
    ] {
        assert_eq!(
            stat(&format!("{h}.count")),
            stat("serve.analyzed"),
            "{h}:\n{text}"
        );
        assert!(
            stat(&format!("{h}.p50")) <= stat(&format!("{h}.p99")),
            "{h}:\n{text}"
        );
    }
    drop(client);
    server.shutdown();
}

/// A repeated request text is answered from its source alias with the
/// cold answer's bytes and summary line.
#[test]
fn repeated_texts_get_the_cold_bytes_and_summary_from_the_source_alias() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("alias");
    let server = spawn_server(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let want = expected_bytes(19, 4);
    let mut summaries = Vec::new();
    for pass in ["cold", "warm", "third"] {
        match client.call(&analyze_req(19, 4)).expect("analyze call") {
            Response::Analyzed {
                result,
                summary,
                degraded: false,
            } => {
                assert_eq!(result, want, "{pass}: wire bytes must equal local bytes");
                summaries.push(summary);
            }
            other => panic!("{pass}: expected a clean Analyzed, got {other:?}"),
        }
    }
    assert!(
        summaries.iter().all(|s| s == &summaries[0]),
        "{summaries:?}"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn malformed_and_truncated_frames_never_wedge_the_daemon() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("frames");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();

    // 1. A length prefix promising more bytes than ever arrive.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&100u32.to_le_bytes()).expect("write len");
        raw.write_all(&[0xAB; 10]).expect("write partial");
        // Drop mid-frame: the server must discard the connection.
    }
    // 2. A complete frame whose payload is garbage: structured parse
    //    error back, connection stays usable.
    {
        use std::io::{Read as _, Write as _};
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        let garbage = [0xFFu8; 8];
        raw.write_all(&(garbage.len() as u32).to_le_bytes())
            .expect("write len");
        raw.write_all(&garbage).expect("write payload");
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).expect("read reply len");
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut payload).expect("read reply payload");
        match Response::decode(&payload).expect("decode reply") {
            Response::Error {
                error: MantaError::Parse { .. },
            } => {}
            other => panic!("expected a Parse error for garbage, got {other:?}"),
        }
    }
    // 3. An absurd length prefix (over MAX_FRAME): dropped, not allocated.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("write len");
    }

    // After all three abuses the daemon still answers.
    assert_eq!(call_once(addr, &Request::Ping), Response::Pong);
    match call_once(addr, &analyze_req(31, 3)) {
        Response::Analyzed { .. } => {}
        other => panic!("daemon wedged after malformed frames: {other:?}"),
    }

    server.shutdown();
}

/// Two IR texts of about 60 bytes each once aborted the daemon's
/// process: one named block `bb4000000000`, the other def
/// `v1000000000000`, and the parser reserved memory for every number
/// below. Each now gets a parse error, and the next request is served.
#[test]
fn oversized_block_and_def_numbers_are_parse_errors() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("oversized");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();
    for (text, at, says) in [
        (
            "module m\nfunc f() -> void {\nbb0:\n  br bb4000000000\n}\n",
            (4, 6),
            "block `bb4000000000` is past the end",
        ),
        (
            "module m\nfunc f() -> void {\nbb0:\n  v1000000000000 = alloca 8\n  ret\n}\n",
            (2, 0),
            "v0 referenced but never defined",
        ),
    ] {
        let request = Request::Analyze {
            module_text: text.to_string(),
            sensitivity: Sensitivity::FiCsFs,
            fuel: None,
            deadline_ms: None,
        };
        match call_once(addr, &request) {
            Response::Error {
                error: MantaError::Parse { line, col, message },
            } => {
                assert_eq!((line, col), at, "{text:?}: {message}");
                assert!(message.starts_with(says), "{text:?}: {message}");
            }
            other => panic!("expected a parse error for {text:?}, got {other:?}"),
        }
        match call_once(addr, &analyze_req(33, 3)) {
            Response::Analyzed { .. } => {}
            other => panic!("daemon stopped serving after {text:?}: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn admission_control_rejects_deterministically_and_retry_succeeds() {
    let _guard = lock();

    // Phase 1: a zero-capacity queue rejects every analysis, always.
    let (_tmp, dir) = temp_dir("admission-zero");
    let server = spawn_server(
        &dir,
        ServeConfig {
            queue_cap: 0,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    for _ in 0..3 {
        match call_once(addr, &analyze_req(41, 3)) {
            Response::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, RETRY_AFTER_MS),
            other => panic!("zero-capacity queue must reject, got {other:?}"),
        }
    }
    // Control requests are not admission-controlled.
    assert_eq!(call_once(addr, &Request::Ping), Response::Pong);
    assert!(server.stats().overloaded >= 3);
    // Retry with a finite policy still ends in Overloaded — and the
    // same seed yields the same deterministic delay sequence.
    let policy = BackoffPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(8),
        max_retries: 2,
    };
    match call_with_retry(addr, &analyze_req(41, 3), policy, 0xA11CE) {
        Ok(Response::Overloaded { .. }) => {}
        other => panic!("retries against a full queue must end Overloaded: {other:?}"),
    }
    server.shutdown();

    // Phase 2: a small but real queue under a concurrent burst — every
    // client must eventually succeed via retry, and all answers must be
    // byte-identical to the local result.
    let (_tmp, dir) = temp_dir("admission-burst");
    let server = spawn_server(
        &dir,
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    let want = expected_bytes(47, 4);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let policy = BackoffPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    max_retries: 40,
                };
                call_with_retry(addr, &analyze_req(47, 4), policy, 0xBEEF + i)
            })
        })
        .collect();
    for handle in handles {
        match handle.join().expect("client thread") {
            Ok(Response::Analyzed { result, .. }) => {
                assert_eq!(result, want, "burst answers must stay byte-identical");
            }
            other => panic!("burst client must eventually succeed: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn over_budget_request_degrades_while_neighbours_complete() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("budget");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();

    // The abusive tenant: zero fuel. The substrate cannot even start,
    // so the floor of tiered degradation is a structured Budget error —
    // never a hang, never a daemon crash.
    let starved = Request::Analyze {
        module_text: module_text(53, 4),
        sensitivity: Sensitivity::FiCsFs,
        fuel: Some(0),
        deadline_ms: None,
    };
    match call_once(addr, &starved) {
        Response::Error {
            error: MantaError::Budget { kind, .. },
        } => assert_eq!(kind, BudgetKind::Fuel),
        Response::Analyzed { degraded, .. } => {
            assert!(
                degraded,
                "a starved request that completes must be degraded"
            );
        }
        other => panic!("starved request must degrade structurally: {other:?}"),
    }

    // Its neighbour is unaffected: full-fidelity, byte-identical.
    let want = expected_bytes(53, 4);
    match call_once(addr, &analyze_req(53, 4)) {
        Response::Analyzed {
            result, degraded, ..
        } => {
            assert!(!degraded);
            assert_eq!(result, want);
        }
        other => panic!("neighbour must complete normally: {other:?}"),
    }

    // Server-side clamp: a daemon with a fuel cap starves the request
    // even when the client asks for unlimited fuel.
    server.shutdown();
    let (_tmp, dir) = temp_dir("budget-cap");
    let server = spawn_server(
        &dir,
        ServeConfig {
            fuel_cap: Some(0),
            ..ServeConfig::default()
        },
    );
    match call_once(server.addr(), &analyze_req(53, 4)) {
        Response::Error {
            error: MantaError::Budget { kind, .. },
        } => assert_eq!(kind, BudgetKind::Fuel),
        Response::Analyzed { degraded, .. } => {
            assert!(degraded, "capped request that completes must be degraded");
        }
        other => panic!("server cap must bound every tenant: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("drain");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();

    // A client-initiated shutdown drains and joins.
    let worker = std::thread::spawn(move || call_once(addr, &analyze_req(61, 4)));
    // Wait for the job to be admitted before asking for shutdown. The
    // job may also start *and finish* between two polls, so "already
    // analyzed" counts as admitted too.
    let start = Instant::now();
    while server.in_flight() == 0
        && server.queue_depth() == 0
        && server.stats().analyzed == 0
        && server.stats().errors == 0
    {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "analysis never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut ctl = Client::connect(addr).expect("connect control");
    match ctl.call(&Request::Shutdown).expect("shutdown call") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // The in-flight analysis still completes with a real answer.
    match worker.join().expect("in-flight client") {
        Response::Analyzed { .. } => {}
        other => panic!("draining daemon must finish in-flight work: {other:?}"),
    }
    server.join();

    // `join()` entered *before* any Shutdown arrives (the CLI's
    // `manta serve` path) must still return once a client asks for one:
    // the drain has to wake the parked accept loop on its own.
    let (_tmp, dir) = temp_dir("drain-join-first");
    let server = spawn_server(&dir, ServeConfig::default());
    let addr = server.addr();
    let stop = std::thread::spawn(move || {
        // Give join() time to park in the accept thread first.
        std::thread::sleep(Duration::from_millis(100));
        call_once(addr, &Request::Shutdown)
    });
    server.join();
    match stop.join().expect("shutdown client") {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

// --- SIGKILL crash recovery -------------------------------------------------

const CHILD_ENV: &str = "MANTA_SERVE_TORTURE_CHILD";
const CHILD_DIR_ENV: &str = "MANTA_SERVE_TORTURE_DIR";
const CHILD_ADDR_FILE_ENV: &str = "MANTA_SERVE_TORTURE_ADDR_FILE";

/// Not a test of its own: when re-executed with [`CHILD_ENV`] set, this
/// becomes the daemon child process that the crash-recovery test
/// SIGKILLs. Without the env var it is an immediate no-op pass.
#[test]
fn serve_torture_child_daemon() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let dir = PathBuf::from(std::env::var(CHILD_DIR_ENV).expect("child dir env"));
    let addr_file = PathBuf::from(std::env::var(CHILD_ADDR_FILE_ENV).expect("child addr env"));
    let server = spawn_server(&dir, ServeConfig::default());
    // Publish the ephemeral port atomically (write + rename).
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.addr().to_string()).expect("write addr");
    std::fs::rename(&tmp, &addr_file).expect("publish addr");
    // Serve until SIGKILLed; a clean Shutdown request also ends us,
    // but the torture parent never sends one.
    server.join();
}

#[test]
fn sigkill_mid_request_loses_no_committed_entries_and_reopens_recovered() {
    let _guard = lock();
    let (_tmp, dir) = temp_dir("sigkill");
    // The child publishes its address in a temp dir of its own, so
    // the store dir holds nothing but the store.
    let (_addr_tmp, addr_dir) = temp_dir("sigkill-addr");
    std::fs::create_dir_all(&addr_dir).expect("create addr dir");
    let addr_file = addr_dir.join("addr");

    let exe = std::env::current_exe().expect("current test binary");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "serve_torture_child_daemon", "--nocapture"])
        .env(CHILD_ENV, "1")
        .env(CHILD_DIR_ENV, &dir)
        .env(CHILD_ADDR_FILE_ENV, &addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon child");

    // Wait for the child to publish its port.
    let start = Instant::now();
    let addr: std::net::SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "daemon child never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // Commit two entries through the daemon and keep their bytes.
    let committed = [(71u64, 4usize), (72, 4)];
    let mut served: Vec<Vec<u8>> = Vec::new();
    for (seed, functions) in committed {
        match call_once(addr, &analyze_req(seed, functions)) {
            Response::Analyzed { result, .. } => served.push(result),
            other => panic!("pre-kill analyze failed: {other:?}"),
        }
    }
    let entries_before = count_entries(&dir);
    assert!(entries_before >= 2, "committed entries must be on disk");

    // Fire one more request and SIGKILL the daemon while it is in
    // flight — the response will never come.
    let kill_addr = addr;
    let orphan = std::thread::spawn(move || {
        let mut client = match Client::connect(kill_addr) {
            Ok(c) => c,
            Err(_) => return,
        };
        // The daemon dies mid-call; any outcome but a panic is fine.
        let _ = client.call(&analyze_req(73, 6));
    });
    std::thread::sleep(Duration::from_millis(30));
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    let _ = orphan.join();

    // The dead daemon left its LOCK behind: reopening must recover,
    // keep every committed entry, and serve byte-identical warm results.
    let (store, outcome) = {
        let store = Store::open(&dir).expect("reopen after SIGKILL");
        let outcome = store.open_outcome();
        (store, outcome)
    };
    assert_eq!(
        outcome,
        OpenOutcome::Recovered,
        "a SIGKILLed daemon's store must reopen Recovered"
    );
    drop(store);
    // The in-flight request may have committed extra entries before the
    // kill landed; recovery must keep at least everything committed.
    assert!(
        count_entries(&dir) >= entries_before,
        "recovery must not drop committed entries"
    );

    // Warm re-analysis from the recovered store matches what the dead
    // daemon served.
    let cache = Arc::new(AnalysisCache::open(&dir).expect("reopen cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .cache(cache)
        .build()
        .expect("engine over recovered store");
    for ((seed, functions), want) in committed.iter().zip(&served) {
        let module = manta_ir::parser::parse_module(&module_text(*seed, *functions))
            .expect("reparse module");
        let (_, result) = engine.analyze_module(module).expect("warm analyze");
        assert_eq!(
            &encode_result(&result),
            want,
            "warm result after recovery must equal the daemon's answer"
        );
    }
}

fn count_entries(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
                .count()
        })
        .unwrap_or(0)
}
