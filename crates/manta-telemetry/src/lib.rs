//! # manta-telemetry
//!
//! A self-contained observability layer for the Manta pipeline: no
//! external crates, `std` only (the build environment cannot fetch
//! dependencies, and the hot paths want full control over overhead).
//!
//! Three instruments, one global collector:
//!
//! * **Spans** — RAII wall-time scopes forming a tree. [`span`] (or the
//!   [`span!`] macro) opens a scope; dropping the guard records its
//!   duration under the innermost open span of the current thread.
//!   Identical paths aggregate (`count`, `total_ns`), so a stage that runs
//!   once per project shows up once with its call count.
//! * **Counters** — named monotonically increasing `u64`s for the
//!   analysis quantities the paper reasons about (unification operations,
//!   worklist iterations, CFL queries, `|V_P|`/`|V_O|`/`|V_U|`, alarms
//!   raised vs. pruned). Declare a [`Counter`] as a `static` for hot
//!   paths, or use [`counter`] for ad-hoc names.
//! * **Histograms** — power-of-two bucketed distributions ([`Histogram`])
//!   for per-item quantities such as per-variable refinement visit counts.
//!
//! Everything is **disabled by default**: every instrument's fast path is
//! one relaxed atomic load and a branch, so instrumented release builds
//! pay effectively nothing until [`set_enabled`]`(true)` (the `NullSink`
//! guarantee — see `benches/telemetry.rs` in `manta-bench`).
//!
//! [`report`] snapshots everything into a [`Report`], renderable as an
//! indented span tree ([`Report::render_text`]) or JSON
//! ([`Report::to_json`]); [`TelemetrySink`] implementations
//! ([`NullSink`], [`TextSink`], [`JsonSink`]) plug that into files or
//! streams. [`scoped`] captures the spans of one closure on one thread —
//! the evaluation runner uses it for per-project stage breakdowns even
//! while projects build in parallel.
//!
//! ```
//! manta_telemetry::set_enabled(true);
//! manta_telemetry::reset();
//! {
//!     manta_telemetry::span!("pointsto");
//!     manta_telemetry::counter("pointsto.worklist_iters", 3);
//!     {
//!         manta_telemetry::span!("fi.unify");
//!     }
//! }
//! let report = manta_telemetry::report();
//! assert_eq!(report.counters["pointsto.worklist_iters"], 3);
//! assert_eq!(report.spans[0].name, "pointsto");
//! assert_eq!(report.spans[0].children[0].name, "fi.unify");
//! manta_telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]

mod metrics;
mod report;
mod sink;
mod span;
mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use metrics::{counter, counter_set, Counter, Histogram, HistogramCell};
pub use report::{HistogramReport, Report, SpanReport};
pub use sink::{JsonSink, NullSink, TelemetrySink, TextSink};
pub use span::{scoped, span, SpanGuard};
pub use trace::{
    render_chrome_trace, set_trace_enabled, trace_enabled, trace_event_count, trace_events,
    TraceEvent,
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROVENANCE: AtomicBool = AtomicBool::new(false);

/// Turns global collection on or off. Off (the default) makes every
/// instrument a near-free no-op.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global collection is on.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns type-provenance recording on or off (the switch lives here so
/// the analysis crates can gate their recording without depending on
/// the engine crate). Off — the default — keeps every provenance hook
/// down to one relaxed load and a branch.
pub fn set_provenance_enabled(on: bool) {
    PROVENANCE.store(on, Ordering::Relaxed);
}

/// Whether type-provenance recording is on.
#[inline(always)]
pub fn provenance_enabled() -> bool {
    PROVENANCE.load(Ordering::Relaxed)
}

/// Clears all recorded spans, counters, histograms and buffered trace
/// events. Call between runs (ideally with no spans in flight;
/// in-flight guards from a previous epoch are discarded safely).
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
    trace::reset_trace();
}

/// Snapshots every thread's span tree plus all counters and histograms.
pub fn report() -> Report {
    Report {
        spans: span::snapshot_spans(),
        counters: metrics::snapshot_counters(),
        histograms: metrics::snapshot_histograms(),
    }
}

/// Opens a wall-time span for the rest of the enclosing scope.
///
/// `span!("name")` binds an invisible guard; two invocations in the same
/// block nest (the second opens inside the first).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _manta_span_guard = $crate::span($name);
    };
}
