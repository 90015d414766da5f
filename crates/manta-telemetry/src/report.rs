//! Snapshot structures and their text/JSON renderings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use manta_store::json::JsonWriter;

/// One aggregated span: a unique name path, its hit count and total wall
/// time, and its child spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanReport {
    /// Span name (the argument to [`crate::span!`]).
    pub name: String,
    /// How many times this exact path was entered.
    pub count: u64,
    /// Total wall time across all entries, in nanoseconds.
    pub total_ns: u64,
    /// Nested spans.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    /// Total wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanReport> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// Snapshot of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramReport {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty `(inclusive upper bound, count)` power-of-two buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramReport {
    /// The `q`-quantile (`0.0..=1.0`) to bucket precision: the upper
    /// bound of the bucket holding the sample of rank `⌈q·count⌉`,
    /// capped at [`HistogramReport::max`]. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// A full telemetry snapshot: the merged span forest plus every counter
/// and histogram.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Report {
    /// Merged span forest across all threads.
    pub spans: Vec<SpanReport>,
    /// Counter name → value (registered counters only).
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → snapshot (non-empty histograms only).
    pub histograms: BTreeMap<String, HistogramReport>,
}

impl Report {
    /// Looks up a top-level span by name.
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Counter value, defaulting to 0 for never-touched counters.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the indented span tree followed by counters and histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                render_span(s, 1, &mut out);
            }
        }
        let live: Vec<_> = self.counters.iter().filter(|(_, &v)| v > 0).collect();
        if !live.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in live {
                let _ = writeln!(out, "  {name:<40} {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                let _ = writeln!(
                    out,
                    "  {name:<40} n={} mean={mean:.1} min={} max={}",
                    h.count, h.min, h.max
                );
            }
        }
        out
    }

    /// Serializes the whole report as a JSON object:
    ///
    /// ```json
    /// {
    ///   "spans": [
    ///     {"name": "...", "count": 1, "total_ns": 12, "total_ms": 0.000012,
    ///      "children": [ ... ]}
    ///   ],
    ///   "counters": {"name": 42, ...},
    ///   "histograms": {
    ///     "name": {"count": 3, "sum": 10, "min": 1, "max": 6,
    ///              "buckets": [[1, 1], [7, 2]]}
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("spans");
        write_spans(&mut w, &self.spans);
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.uint(h.count);
            w.key("sum");
            w.uint(h.sum);
            w.key("min");
            w.uint(h.min);
            w.key("max");
            w.uint(h.max);
            w.key("buckets");
            w.begin_array();
            for &(bound, n) in &h.buckets {
                w.begin_array();
                w.uint(bound);
                w.uint(n);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

fn write_spans(w: &mut JsonWriter, spans: &[SpanReport]) {
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.key("name");
        w.string(&s.name);
        w.key("count");
        w.uint(s.count);
        w.key("total_ns");
        w.uint(s.total_ns);
        w.key("total_ms");
        w.float(s.total_ms());
        w.key("children");
        write_spans(w, &s.children);
        w.end_object();
    }
    w.end_array();
}

fn render_span(s: &SpanReport, depth: usize, out: &mut String) {
    let _ = writeln!(
        out,
        "{:indent$}{:<width$} {:>10.3} ms  ×{}",
        "",
        s.name,
        s.total_ms(),
        s.count,
        indent = depth * 2,
        width = 32usize.saturating_sub(depth * 2),
    );
    for c in &s.children {
        render_span(c, depth + 1, out);
    }
}
