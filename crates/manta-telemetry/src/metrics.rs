//! Named counters and histograms.
//!
//! Counters are plain relaxed atomics registered in a global map; a
//! [`Counter`] `static` caches its atomic so a hot-loop increment is one
//! branch plus one `fetch_add`. Histograms bucket values by power of two.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::report::HistogramReport;
use crate::span::lock;

/// Name → cell. Cells are leaked so handles can be `&'static` and survive
/// [`crate::reset`] (which zeroes rather than drops them).
static COUNTERS: Mutex<BTreeMap<String, &'static AtomicU64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, &'static HistogramCell>> = Mutex::new(BTreeMap::new());

fn counter_cell(name: &str) -> &'static AtomicU64 {
    let mut map = lock(&COUNTERS);
    if let Some(&c) = map.get(name) {
        return c;
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    map.insert(name.to_string(), cell);
    cell
}

/// A named monotonically increasing counter. Declare as a `static` next to
/// the code it measures:
///
/// ```
/// static UNIFY_OPS: manta_telemetry::Counter =
///     manta_telemetry::Counter::new("unify.ops");
/// manta_telemetry::set_enabled(true);
/// UNIFY_OPS.incr();
/// assert_eq!(UNIFY_OPS.get(), 1);
/// manta_telemetry::set_enabled(false);
/// ```
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Declares a counter; it registers itself on first use.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn cell(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| counter_cell(self.name))
    }

    /// Adds `delta`. No-op while collection is disabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if crate::is_enabled() {
            self.cell().fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one. No-op while collection is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Overwrites the value (for quantities that are sampled, not summed,
    /// e.g. a chosen parallelism). No-op while collection is disabled.
    #[inline]
    pub fn set(&self, value: u64) {
        if crate::is_enabled() {
            self.cell().store(value, Ordering::Relaxed);
        }
    }

    /// Raises the value to `value` if it is larger (high-water marks,
    /// e.g. peak queue depth). No-op while collection is disabled.
    #[inline]
    pub fn record_max(&self, value: u64) {
        if crate::is_enabled() {
            self.cell().fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// Adds `delta` to the counter named `name` (ad-hoc, non-hot-path form of
/// [`Counter::add`]).
pub fn counter(name: &str, delta: u64) {
    if crate::is_enabled() {
        counter_cell(name).fetch_add(delta, Ordering::Relaxed);
    }
}

/// Overwrites the counter named `name` (ad-hoc form of [`Counter::set`]).
pub fn counter_set(name: &str, value: u64) {
    if crate::is_enabled() {
        counter_cell(name).store(value, Ordering::Relaxed);
    }
}

const BUCKETS: usize = 65;

/// An unnamed power-of-two histogram owned by whoever records into it —
/// the cell behind every [`Histogram`], and on its own a per-instance
/// distribution (one daemon's request latencies) that records whether
/// or not collection is enabled and never touches the global registry.
pub struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// `buckets[i]` counts values whose bit length is `i`, i.e. value 0 in
    /// bucket 0, `[2^(i-1), 2^i)` in bucket `i`.
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell::new()
    }
}

impl HistogramCell {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> HistogramCell {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the samples so far.
    #[must_use]
    pub fn report(&self) -> HistogramReport {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                // Bucket upper bound: the largest value with bit length i.
                (n > 0).then(|| {
                    (
                        if i == 0 {
                            0
                        } else {
                            (1u64 << i).wrapping_sub(1)
                        },
                        n,
                    )
                })
            })
            .collect();
        HistogramReport {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

fn histogram_cell(name: &str) -> &'static HistogramCell {
    let mut map = lock(&HISTOGRAMS);
    if let Some(&h) = map.get(name) {
        return h;
    }
    let cell: &'static HistogramCell = Box::leak(Box::new(HistogramCell::new()));
    map.insert(name.to_string(), cell);
    cell
}

/// A named power-of-two-bucketed distribution of `u64` samples.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    /// Declares a histogram; it registers itself on first use.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one sample. No-op while collection is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::is_enabled() {
            self.cell
                .get_or_init(|| histogram_cell(self.name))
                .record(value);
        }
    }
}

pub(crate) fn snapshot_counters() -> BTreeMap<String, u64> {
    lock(&COUNTERS)
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

pub(crate) fn snapshot_histograms() -> BTreeMap<String, HistogramReport> {
    lock(&HISTOGRAMS)
        .iter()
        .filter(|(_, core)| core.count.load(Ordering::Relaxed) > 0)
        .map(|(name, core)| (name.clone(), core.report()))
        .collect()
}

pub(crate) fn reset_metrics() {
    for cell in lock(&COUNTERS).values() {
        cell.store(0, Ordering::Relaxed);
    }
    for core in lock(&HISTOGRAMS).values() {
        core.reset();
    }
}
