//! # manta-parallel
//!
//! A zero-dependency scoped work-stealing thread pool for intra-module
//! parallelism, following the repo's in-tree-substitutes convention (no
//! external crates; `std` only).
//!
//! [`par_map_with`] is the one entry point: it maps a function over a
//! `Vec` of items on a transient work-stealing pool and returns the
//! results **in input order** (deterministic reduce). Each worker calls
//! `init` once, the first time it takes an item, and passes that state
//! to every item it runs, so scratch memory is allocated per worker,
//! not per item. [`par_map`] is its stateless case. The pipeline uses
//! them for its per-function stages, the refinement partitions
//! (replayed or not, each worker reusing one walk scratch) and
//! whole-module batches; because every merge happens in input order,
//! parallel output is bit-identical to serial.
//!
//! ## Determinism contract
//!
//! `par_map(items, f)` returns exactly `items.into_iter().map(f)
//! .collect()` as long as `f` is a pure function of its item (plus
//! shared read-only state). Scheduling decides only *when* each item
//! runs, never how results are ordered. Callers that mutate shared
//! state must confine themselves to commutative sinks (atomic counters,
//! a shared [`Budget`](../manta_resilience/struct.Budget.html)).
//! `par_map_with` keeps the contract when an item's result does not
//! depend on what earlier items left in the state: scratch that each
//! item resets before use, or caches of pure functions of shared
//! inputs. Which items share a state is a scheduling decision.
//!
//! ## Panic and budget semantics
//!
//! A panicking item does not tear down the pool: every worker runs items
//! under `catch_unwind`, the first panic **by item index** (not by wall
//! clock) is re-raised on the calling thread after all workers have
//! joined, and later panics are dropped. An enclosing
//! `manta_resilience::isolate` boundary therefore observes exactly the
//! panic a serial run would have surfaced first. A worker drops the
//! state an item panicked in and calls `init` again for its next item,
//! so no item sees scratch a panic left half-updated. Budgets are shared
//! (`Budget` is `Sync`): workers tick one budget cooperatively, and a
//! tripped budget fails every in-flight item at its next tick.
//!
//! ## Thread-count policy
//!
//! The pool size is a process-wide setting ([`set_threads`]): `0` means
//! "auto" (`std::thread::available_parallelism`). [`par_map_with`] clamps
//! the configured count to the host's cores ([`effective_threads`]):
//! oversubscribing a core adds scheduling overhead without speedup, so
//! `--threads 8` on a single-core box runs inline. With an effective
//! count of 1 `par_map_with` degenerates to a plain inline loop over one
//! state — no threads, no `catch_unwind` — so `--threads 1` *is* the serial
//! engine, not an emulation of it. Nested calls from inside a worker
//! also run inline, so recursive parallelism cannot oversubscribe.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use manta_telemetry::{Counter, Histogram};

/// Items executed across all `par_map` calls.
static TASKS: Counter = Counter::new("parallel.tasks");
/// Work units seeded across parallel `par_map` calls. With chunking on
/// (large item counts) one unit covers many items, so
/// `tasks / chunks` is the realized batching factor.
static CHUNKS: Counter = Counter::new("parallel.chunks");
/// Successful steals (an idle worker took a work unit from a peer's
/// deque). With chunking a steal moves a whole chunk, not one item.
static STEALS: Counter = Counter::new("parallel.steals");
/// Steal *attempts*: every probe of a peer's deque, successful or not.
/// `steals / steal_attempts` is the steal hit rate; a low ratio means
/// workers burn time sweeping drained peers.
static STEAL_ATTEMPTS: Counter = Counter::new("parallel.steal_attempts");
/// Number of `par_map` invocations that actually went parallel.
static MAPS: Counter = Counter::new("parallel.par_maps");
/// Cumulative worker busy time across parallel `par_map` calls, µs.
static BUSY_US: Counter = Counter::new("parallel.busy_us");
/// Cumulative pool capacity (wall µs × workers) across those calls; the
/// ratio `busy_us / capacity_us` is the pool utilization.
static CAPACITY_US: Counter = Counter::new("parallel.capacity_us");
/// Cumulative worker idle time (worker wall time minus time inside
/// items), µs. Covers steal sweeps and scheduling overhead.
static IDLE_US: Counter = Counter::new("parallel.idle_us");
/// Deepest single deque observed at seeding time (high-water mark —
/// deques only shrink once workers start).
static QUEUE_HWM: Counter = Counter::new("parallel.queue_depth_hwm");
/// Items executed per worker per parallel call: the load-balance shape
/// (a wide spread at equal item cost means stealing is not keeping up).
static WORKER_TASKS: Histogram = Histogram::new("parallel.worker_tasks");

/// Configured pool size; 0 = auto (`available_parallelism`).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on pool worker threads; makes nested calls run inline.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the process-wide worker count used by [`par_map`].
/// `0` restores the default (one worker per available core).
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::SeqCst);
}

/// The `MANTA_THREADS` environment override, read once per process;
/// unset, `0` or unparsable all mean auto. Lets a test run force a pool
/// size without touching every call site (CI runs the suite at 1 and 4).
fn env_threads() -> usize {
    static ENV: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MANTA_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// The effective worker count: the value from [`set_threads`], else the
/// `MANTA_THREADS` environment variable, else `available_parallelism()`.
/// Always ≥ 1.
#[must_use]
pub fn threads() -> usize {
    match CONFIGURED.load(Ordering::SeqCst) {
        0 => match env_threads() {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            n => n,
        },
        n => n,
    }
    .max(1)
}

/// Test-only override of the detected host parallelism; 0 = real value.
static CORES_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the detected host core count (`0` restores detection).
/// Correctness tests use this to exercise the multi-worker path on
/// single-core CI hosts, where the [`effective_threads`] clamp would
/// otherwise make `par_map` inline. Not part of the stable API.
#[doc(hidden)]
pub fn override_host_cores(n: usize) {
    CORES_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The host's available parallelism, read once per process.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match CORES_OVERRIDE.load(Ordering::SeqCst) {
        0 => *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }),
        n => n,
    }
}

/// The pool size [`par_map`] will actually use: [`threads`] clamped to
/// the host's available parallelism. Requesting more workers than the
/// host has cores cannot add speedup, only scheduling overhead, so on a
/// single-core host every configuration degenerates to the inline
/// fast-path (`effective_threads() == 1`).
#[must_use]
pub fn effective_threads() -> usize {
    threads().min(host_cores())
}

/// Whether the current thread is a pool worker (nested parallel calls
/// from here run inline).
#[must_use]
pub fn in_pool() -> bool {
    IN_POOL.with(std::cell::Cell::get)
}

/// Maps `f` over `items` on a work-stealing pool, returning results in
/// input order: [`par_map_with`] without per-worker state.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed panicking item, after all
/// workers have drained.
pub fn par_map<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    par_map_with(items, || (), |_: &mut (), item| f(item))
}

/// Maps `f` over `items` on a work-stealing pool, returning results in
/// input order. Each worker calls `init` once, when it takes its first
/// item, and hands that state to `f` with every item it runs; after an
/// item panics, the worker calls `init` again before its next item.
///
/// Runs inline (plain `map` over one state) when the effective pool
/// size ([`effective_threads`], i.e. the configured count clamped to
/// the host's cores) is 1, when called from inside a pool worker, or
/// when there are fewer than two items. `init` never runs for an empty
/// input. See the crate docs for the determinism and panic contract.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed panicking item, after all
/// workers have drained.
pub fn par_map_with<I, S, R, N, F>(items: Vec<I>, init: N, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> R + Sync,
{
    let workers = effective_threads().min(items.len());
    if workers <= 1 || in_pool() {
        let mut state = None;
        return items
            .into_iter()
            .map(|item| f(state.get_or_insert_with(&init), item))
            .collect();
    }
    MAPS.incr();
    manta_telemetry::counter_set("parallel.threads", workers as u64);
    let total = items.len();

    // Batch tiny per-item work into contiguous chunks so the steal loop
    // moves ~4 units per worker instead of contending once per item.
    // Sub-millisecond function solves otherwise spend more wall clock in
    // deque locks than in the items themselves. Small inputs keep one
    // item per unit: there the limiting factor is load balance, not
    // scheduling overhead.
    let chunk_size = if total >= workers * 8 {
        total.div_ceil(workers * 4)
    } else {
        1
    };

    // Round-robin initial distribution: chunk `c` seeds deque `c % w`,
    // so every worker starts with a spread of early and late items.
    // Each queued unit is a chunk tagged with its first item's index.
    type ChunkDeque<I> = Mutex<VecDeque<(usize, Vec<I>)>>;
    let deques: Vec<ChunkDeque<I>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    {
        let mut items = items.into_iter().enumerate();
        let mut c = 0usize;
        loop {
            let chunk: Vec<(usize, I)> = items.by_ref().take(chunk_size).collect();
            let Some(&(start, _)) = chunk.first() else {
                break;
            };
            let chunk: Vec<I> = chunk.into_iter().map(|(_, it)| it).collect();
            lock(&deques[c % workers]).push_back((start, chunk));
            c += 1;
        }
        CHUNKS.add(c as u64);
    }
    if let Some(deepest) = deques.iter().map(|d| lock(d).len()).max() {
        QUEUE_HWM.record_max(deepest as u64);
    }
    // Per-item timing costs two `Instant::now` calls per task; only pay
    // for it while collection is on.
    let detailed = manta_telemetry::is_enabled();

    let start = Instant::now();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let (init, f) = (&init, &f);
                s.spawn(move || {
                    IN_POOL.with(|c| c.set(true));
                    let mut state: Option<S> = None;
                    let busy = Instant::now();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut caught: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
                    let mut steals = 0u64;
                    let mut steal_attempts = 0u64;
                    let mut exec_ns = 0u128;
                    loop {
                        // Own deque first (front = oldest seeded item),
                        // then sweep peers' backs. The own-deque guard must
                        // drop before the sweep: holding it while probing
                        // peers lets N drained workers form a circular wait
                        // (each holding deque[w], requesting deque[w+1]).
                        let own = lock(&deques[w]).pop_front();
                        let next = match own {
                            Some(x) => Some(x),
                            None => (1..workers).find_map(|off| {
                                steal_attempts += 1;
                                let got = lock(&deques[(w + off) % workers]).pop_back();
                                if got.is_some() {
                                    steals += 1;
                                }
                                got
                            }),
                        };
                        let Some((start, chunk)) = next else { break };
                        let item_start = detailed.then(Instant::now);
                        for (off, item) in chunk.into_iter().enumerate() {
                            let idx = start + off;
                            let st = state.get_or_insert_with(init);
                            match catch_unwind(AssertUnwindSafe(|| f(st, item))) {
                                Ok(r) => done.push((idx, r)),
                                Err(p) => {
                                    // The panic may have left the state
                                    // half-updated: the next item gets a
                                    // fresh one.
                                    state = None;
                                    caught.push((idx, p));
                                }
                            }
                        }
                        if let Some(t) = item_start {
                            exec_ns += t.elapsed().as_nanos();
                        }
                    }
                    IN_POOL.with(|c| c.set(false));
                    let wall_us = busy.elapsed().as_micros() as u64;
                    TASKS.add(done.len() as u64 + caught.len() as u64);
                    WORKER_TASKS.record(done.len() as u64 + caught.len() as u64);
                    STEALS.add(steals);
                    STEAL_ATTEMPTS.add(steal_attempts);
                    BUSY_US.add(wall_us);
                    if detailed {
                        IDLE_US.add(wall_us.saturating_sub((exec_ns / 1_000) as u64));
                    }
                    (done, caught)
                })
            })
            .collect();
        for h in handles {
            // Workers never panic themselves (items run under
            // catch_unwind), so join only fails on external SIGKILL-ish
            // conditions we cannot recover from anyway.
            #[allow(clippy::unwrap_used)]
            let (done, caught) = h.join().unwrap();
            for (idx, r) in done {
                slots[idx] = Some(r);
            }
            panics.extend(caught);
        }
    });
    CAPACITY_US.add(start.elapsed().as_micros() as u64 * workers as u64);

    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(idx, _)| idx) {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| {
            // Every index was pushed exactly once and no panic survived.
            #[allow(clippy::unwrap_used)]
            r.unwrap()
        })
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global thread count.
    fn config_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_order() {
        let _l = config_lock();
        set_threads(4);
        let out = par_map((0..1000).collect::<Vec<u64>>(), |x| x * 2);
        set_threads(0);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_matches_serial_map_exactly() {
        let _l = config_lock();
        let items: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        set_threads(1);
        let serial = par_map(items.clone(), |s| s.len() + s.ends_with('3') as usize);
        set_threads(8);
        let parallel = par_map(items, |s| s.len() + s.ends_with('3') as usize);
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_borrows_environment() {
        let _l = config_lock();
        set_threads(2);
        let base = [10u64, 20, 30];
        let out = par_map(vec![0usize, 1, 2], |i| base[i] + 1);
        set_threads(0);
        assert_eq!(out, vec![11, 21, 31]);
    }

    /// Regression test: workers whose deques drain simultaneously all
    /// enter the steal sweep at once. Holding the own-deque guard across
    /// that sweep used to form a circular wait (each worker holding
    /// `deque[w]`, requesting `deque[w+1]`) and hang the pool. Tiny
    /// batches at high worker counts maximize the drained-sweep overlap.
    #[test]
    fn drained_workers_never_deadlock_while_stealing() {
        let _l = config_lock();
        set_threads(8);
        for round in 0..200usize {
            let out = par_map((0..8usize).collect::<Vec<_>>(), |i| i + round);
            assert_eq!(out.len(), 8);
        }
        set_threads(0);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let _l = config_lock();
        set_threads(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_map((0..32).collect::<Vec<u32>>(), |x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        set_threads(0);
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 3", "first panic by item index must win");
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let _l = config_lock();
        set_threads(4);
        // On a single-core host the clamp makes the outer call inline
        // too, in which case there is no pool to observe.
        let expect_pool = effective_threads() > 1;
        let out = par_map(vec![1u64, 2, 3, 4], |x| {
            assert_eq!(in_pool(), expect_pool);
            // Nested call must not deadlock or oversubscribe.
            par_map(vec![x, x + 10], |y| y * 2).iter().sum::<u64>()
        });
        set_threads(0);
        assert_eq!(out, vec![24, 28, 32, 36]);
    }

    #[test]
    fn effective_threads_is_clamped_to_host_cores() {
        let _l = config_lock();
        set_threads(4096);
        // `threads()` reports the configured value verbatim; the pool
        // size is what gets clamped.
        assert_eq!(threads(), 4096);
        assert!(effective_threads() <= host_cores());
        assert!(effective_threads() >= 1);
        set_threads(0);
    }

    #[test]
    fn shared_budget_is_spent_cooperatively() {
        let _l = config_lock();
        set_threads(4);
        let budget = manta_resilience_stub::SharedCounter::default();
        let out = par_map((0..100).collect::<Vec<u32>>(), |x| {
            budget.spend(1);
            x
        });
        set_threads(0);
        assert_eq!(out.len(), 100);
        assert_eq!(budget.total(), 100);
    }

    /// Minimal stand-in so this crate does not depend on
    /// `manta-resilience` (which depends on nothing but telemetry, but
    /// keeping the pool dependency-light keeps layering acyclic).
    mod manta_resilience_stub {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        pub struct SharedCounter(AtomicU64);

        impl SharedCounter {
            pub fn spend(&self, n: u64) {
                self.0.fetch_add(n, Ordering::Relaxed);
            }
            pub fn total(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
        }
    }

    /// With 1000 items at 4 workers the chunked path is active
    /// (`total >= workers * 8`): units are contiguous runs, results must
    /// still come back in input order. The core-count override forces
    /// the pool to actually spin up on single-core CI hosts.
    #[test]
    fn chunked_path_preserves_order() {
        let _l = config_lock();
        override_host_cores(4);
        set_threads(4);
        let out = par_map((0..1000).collect::<Vec<u64>>(), |x| x * 3 + 1);
        set_threads(0);
        override_host_cores(0);
        assert_eq!(out, (0..1000).map(|x| x * 3 + 1).collect::<Vec<u64>>());
    }

    /// Panic indexing must survive chunking: the chunk containing item 3
    /// also contains later panicking items, and other chunks panic too —
    /// the lowest *item* index still wins.
    #[test]
    fn chunked_lowest_index_panic_wins() {
        let _l = config_lock();
        override_host_cores(4);
        set_threads(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_map((0..256).collect::<Vec<u32>>(), |x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        set_threads(0);
        override_host_cores(0);
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 3", "first panic by item index must win");
    }

    /// Small inputs (below `workers * 8`) keep one item per unit so load
    /// balance is unaffected; the seeded unit count equals the item
    /// count. Large inputs seed ~4 units per worker.
    #[test]
    fn chunk_sizing_policy() {
        let _l = config_lock();
        override_host_cores(4);
        set_threads(4);
        manta_telemetry::set_enabled(true);
        let before = manta_telemetry::report()
            .counters
            .get("parallel.chunks")
            .copied()
            .unwrap_or(0);
        // 31 < 4*8: unchunked, 31 units.
        let _ = par_map((0..31).collect::<Vec<u64>>(), |x| x);
        let mid = manta_telemetry::report()
            .counters
            .get("parallel.chunks")
            .copied()
            .unwrap_or(0);
        assert_eq!(mid - before, 31);
        // 1000 >= 4*8: ceil(1000/16) = 63 per chunk -> 16 units.
        let _ = par_map((0..1000).collect::<Vec<u64>>(), |x| x);
        let after = manta_telemetry::report()
            .counters
            .get("parallel.chunks")
            .copied()
            .unwrap_or(0);
        manta_telemetry::set_enabled(false);
        set_threads(0);
        override_host_cores(0);
        assert_eq!(after - mid, 16);
    }

    /// Runs `body` with the pool forced to `n` workers (the core-count
    /// override lets single-core hosts spin the pool up too).
    fn at_pool_size<T>(n: usize, body: impl FnOnce() -> T) -> T {
        override_host_cores(n);
        set_threads(n);
        let out = catch_unwind(AssertUnwindSafe(body));
        set_threads(0);
        override_host_cores(0);
        out.unwrap_or_else(|p| resume_unwind(p))
    }

    #[test]
    fn par_map_with_preserves_order_and_inits_once_per_worker() {
        let _l = config_lock();
        for n in [1, 2, 8] {
            for len in [0usize, 1, 7, 1000] {
                let inits = AtomicUsize::new(0);
                let out = at_pool_size(n, || {
                    par_map_with(
                        (0..len as u64).collect(),
                        || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            Vec::<u64>::new()
                        },
                        |scratch, x| {
                            // Scratch each item resets before use.
                            scratch.clear();
                            scratch.extend([x, x + 1]);
                            scratch.iter().sum::<u64>()
                        },
                    )
                });
                assert_eq!(out, (0..len as u64).map(|x| 2 * x + 1).collect::<Vec<_>>());
                let inits = inits.load(Ordering::SeqCst);
                assert!(
                    inits <= n.min(len),
                    "{inits} inits at {n} workers, {len} items"
                );
                assert_eq!(inits == 0, len == 0, "{n} workers, {len} items");
            }
        }
    }

    /// An item that panics leaves its state poisoned; the worker must
    /// hand its next item a fresh one, and the lowest-index panic still
    /// wins.
    #[test]
    fn par_map_with_reinitializes_after_a_panic() {
        let _l = config_lock();
        for n in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let saw_poison = AtomicUsize::new(0);
            let ran = AtomicUsize::new(0);
            let r = at_pool_size(n, || {
                catch_unwind(AssertUnwindSafe(|| {
                    par_map_with(
                        (0..256).collect::<Vec<u32>>(),
                        || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            false
                        },
                        |poisoned, x| {
                            ran.fetch_add(1, Ordering::SeqCst);
                            if *poisoned {
                                saw_poison.fetch_add(1, Ordering::SeqCst);
                            }
                            if x % 7 == 3 {
                                *poisoned = true;
                                panic!("boom at {x}");
                            }
                            x
                        },
                    )
                }))
            });
            let msg = r
                .unwrap_err()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "boom at 3", "first panic by item index must win");
            assert_eq!(saw_poison.load(Ordering::SeqCst), 0, "{n} workers");
            let (inits, ran) = (inits.load(Ordering::SeqCst), ran.load(Ordering::SeqCst));
            if n == 1 {
                // Inline: the first panic propagates at once.
                assert_eq!((inits, ran), (1, 4), "{n} workers");
            } else {
                // Every item ran; each worker inits once, then once
                // more per panic that was not its last item.
                assert_eq!(ran, 256, "{n} workers");
                let panics = (0..256).filter(|x| x % 7 == 3).count();
                assert!(
                    (panics..=panics + n).contains(&inits),
                    "{inits} inits at {n} workers"
                );
            }
        }
    }

    #[test]
    fn threads_zero_means_auto() {
        let _l = config_lock();
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(7);
        assert_eq!(threads(), 7);
        set_threads(0);
    }
}
