//! Behavior tests for the telemetry layer: span nesting and unwind
//! safety, counter atomicity under contention, JSON round-tripping via the
//! hand-rolled parser, and the disabled/NullSink no-op guarantee.
//!
//! The collector is a process-wide singleton, so every test that enables
//! collection serializes through [`exclusive`].

use std::sync::Mutex;

use manta_store::json;
use manta_telemetry::{Counter, Histogram, HistogramCell, NullSink, Report, TelemetrySink};

static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive access to the global collector, enabled and
/// freshly reset; collection is off again afterwards.
fn exclusive<T>(f: impl FnOnce() -> T) -> T {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let out = f();
    manta_telemetry::set_enabled(false);
    out
}

#[test]
fn spans_nest_by_lexical_scope() {
    let report = exclusive(|| {
        {
            manta_telemetry::span!("outer");
            {
                manta_telemetry::span!("inner");
            }
            {
                manta_telemetry::span!("inner");
            }
            manta_telemetry::span!("sibling-after"); // nests under outer
        }
        manta_telemetry::report()
    });
    let outer = report.span("outer").expect("outer recorded");
    assert_eq!(outer.count, 1);
    let inner = outer.child("inner").expect("inner nested under outer");
    assert_eq!(inner.count, 2, "same path aggregates");
    assert!(
        outer.child("sibling-after").is_some(),
        "later span! in the same block nests"
    );
    assert!(report.span("inner").is_none(), "inner must not be a root");
    assert!(outer.total_ns >= inner.total_ns, "parent covers child");
}

#[test]
fn panicking_scope_does_not_corrupt_the_tree() {
    let report = exclusive(|| {
        let boom = std::panic::catch_unwind(|| {
            manta_telemetry::span!("doomed");
            {
                manta_telemetry::span!("doomed-child");
                panic!("checker exploded");
            }
        });
        assert!(boom.is_err());
        // The tree must still accept spans at the correct (root) depth.
        {
            manta_telemetry::span!("after");
        }
        manta_telemetry::report()
    });
    let doomed = report.span("doomed").expect("unwound span still recorded");
    assert_eq!(doomed.count, 1);
    assert_eq!(doomed.child("doomed-child").map(|c| c.count), Some(1));
    let after = report.span("after").expect("collector survives the panic");
    assert!(after.children.is_empty());
    assert!(
        doomed.child("after").is_none(),
        "a panic must pop its spans; `after` cannot nest under `doomed`"
    );
}

#[test]
fn counters_are_atomic_under_contention() {
    static CONTENDED: Counter = Counter::new("test.contended");
    let total = exclusive(|| {
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        CONTENDED.incr();
                    }
                });
            }
        });
        assert_eq!(
            manta_telemetry::report().counter("test.contended"),
            threads * per_thread
        );
        CONTENDED.get()
    });
    assert_eq!(total, 80_000);
}

#[test]
fn scoped_capture_is_thread_local() {
    let (spans, report) = exclusive(|| {
        let other = std::thread::spawn(|| {
            manta_telemetry::span!("other-thread");
        });
        let ((), spans) = manta_telemetry::scoped(|| {
            manta_telemetry::span!("scoped-stage");
        });
        other.join().unwrap();
        (spans, manta_telemetry::report())
    });
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "scoped-stage");
    // The global report still contains both.
    assert!(report.span("scoped-stage").is_some());
    assert!(report.span("other-thread").is_some());
}

#[test]
fn scoped_capture_works_while_disabled() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    manta_telemetry::set_enabled(false);
    manta_telemetry::reset();
    let (out, spans) = manta_telemetry::scoped(|| {
        manta_telemetry::span!("quiet");
        21 * 2
    });
    assert_eq!(out, 42);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "quiet");
    assert_eq!(spans[0].count, 1);
}

#[test]
fn json_report_roundtrips_through_hand_parser() {
    static HITS: Counter = Counter::new("test.json.hits");
    static DIST: Histogram = Histogram::new("test.json.dist");
    let report = exclusive(|| {
        {
            manta_telemetry::span!("stage-a");
            {
                manta_telemetry::span!("stage-a.sub");
            }
        }
        HITS.add(5);
        DIST.record(1);
        DIST.record(100);
        manta_telemetry::report()
    });
    let text = report.to_json();
    let v = json::parse(&text).expect("report JSON parses");
    let spans = v.get("spans").unwrap().as_array().unwrap();
    let a = spans
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("stage-a"))
        .expect("stage-a serialized");
    assert_eq!(a.get("count").unwrap().as_f64(), Some(1.0));
    let kids = a.get("children").unwrap().as_array().unwrap();
    assert_eq!(kids[0].get("name").unwrap().as_str(), Some("stage-a.sub"));
    assert_eq!(
        v.get("counters")
            .unwrap()
            .get("test.json.hits")
            .unwrap()
            .as_f64(),
        Some(5.0)
    );
    let d = v.get("histograms").unwrap().get("test.json.dist").unwrap();
    assert_eq!(d.get("count").unwrap().as_f64(), Some(2.0));
    assert_eq!(d.get("sum").unwrap().as_f64(), Some(101.0));
    assert_eq!(d.get("min").unwrap().as_f64(), Some(1.0));
    assert_eq!(d.get("max").unwrap().as_f64(), Some(100.0));
}

#[test]
fn disabled_collection_records_nothing() {
    static DEAD: Counter = Counter::new("test.noop.dead");
    static DEAD_H: Histogram = Histogram::new("test.noop.hist");
    let report = exclusive(|| {
        manta_telemetry::set_enabled(false);
        {
            manta_telemetry::span!("test-noop-invisible");
        }
        DEAD.add(1_000);
        DEAD_H.record(9);
        manta_telemetry::counter("test.noop.dyn", 3);
        manta_telemetry::set_enabled(true);
        manta_telemetry::report()
    });
    assert!(report.span("test-noop-invisible").is_none());
    assert_eq!(report.counter("test.noop.dead"), 0);
    assert_eq!(report.counter("test.noop.dyn"), 0);
    assert!(!report.histograms.contains_key("test.noop.hist"));
}

#[test]
fn null_sink_accepts_everything() {
    let mut sink = NullSink;
    sink.emit(&Report::default()).unwrap();
    let report = exclusive(|| {
        {
            manta_telemetry::span!("for-null");
        }
        manta_telemetry::report()
    });
    sink.emit(&report).unwrap();
}

#[test]
fn reset_clears_and_stale_guards_are_ignored() {
    let report = exclusive(|| {
        {
            manta_telemetry::span!("pre-reset");
        }
        static PRE: Counter = Counter::new("test.reset.pre");
        PRE.add(3);
        let held = manta_telemetry::span("held-across-reset");
        manta_telemetry::reset();
        drop(held); // stale epoch: must not resurrect or crash
        {
            manta_telemetry::span!("post-reset");
        }
        manta_telemetry::report()
    });
    assert!(report.span("pre-reset").is_none());
    assert!(report.span("held-across-reset").is_none());
    assert_eq!(report.counter("test.reset.pre"), 0);
    assert_eq!(report.span("post-reset").map(|s| s.count), Some(1));
}

#[test]
fn histogram_cell_records_while_disabled_and_reads_quantiles_to_bucket_precision() {
    // A per-instance cell needs no gate: it never touches the registry.
    let cell = HistogramCell::new();
    assert_eq!(cell.report().quantile(0.5), 0, "empty reads 0");
    // 90 samples in the [8, 15] bucket, 10 in [512, 1023] with max 700.
    for _ in 0..90 {
        cell.record(9);
    }
    for _ in 0..10 {
        cell.record(700);
    }
    let h = cell.report();
    assert_eq!(h.count, 100);
    assert_eq!(h.quantile(0.5), 15, "p50 is its bucket's upper bound");
    assert_eq!(h.quantile(0.9), 15, "rank 90 is the last small sample");
    assert_eq!(h.quantile(0.99), 700, "the top bucket is capped at max");
    assert_eq!(h.quantile(0.0), 15, "rank 0 reads as the first sample");
}
