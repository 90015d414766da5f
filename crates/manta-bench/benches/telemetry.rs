//! Overhead of the telemetry layer on the mid-size pipeline.
//!
//! Two views, printed side by side:
//!
//! * **measured** — wall time of generate → build → infer with collection
//!   disabled vs enabled;
//! * **estimated disabled overhead** — the number of instrumentation call
//!   sites hit during one run, times the measured cost of a single
//!   disabled-path call. This is the honest "NullSink" figure: it isolates
//!   the early-return branch from run-to-run pipeline noise.
//!
//! The estimated disabled overhead must stay under 2% of the pipeline.
//! A provenance leg bounds what a provenance-off run pays the same way.

use std::collections::HashMap;

use manta::{Engine, MantaConfig};
use manta_analysis::{ModuleAnalysis, PointsTo};
use manta_bench::harness;
use manta_telemetry::{Counter, SpanReport};
use manta_workloads::{generator, PhenomenonMix};

fn pipeline(spec: &generator::GenSpec, engine: &Engine) -> usize {
    let g = generator::generate(spec);
    let analysis = ModuleAnalysis::build(g.module);
    let (result, graph) = engine
        .analyze_explained(&analysis)
        .expect("non-strict engines never error");
    result.final_counts().total() + graph.map_or(0, |g| g.facts().len())
}

fn span_hits(spans: &[SpanReport]) -> u64 {
    spans.iter().map(|s| s.count + span_hits(&s.children)).sum()
}

fn main() {
    let spec = generator::GenSpec {
        name: "telemetry-bench".into(),
        functions: 40,
        mix: PhenomenonMix::balanced(),
        seed: 7,
    };
    let plain = Engine::new(MantaConfig::full());

    manta_telemetry::set_enabled(false);
    let disabled_ns = harness::time(|| pipeline(&spec, &plain));

    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let enabled_ns = harness::time(|| pipeline(&spec, &plain));

    // One clean run to count how often each kind of instrumentation site
    // fires; each firing is one early-return branch when collection is off.
    // Summing counter *values* overcounts sites that add a large delta in
    // one call (e.g. `ddg.edges`), which only makes the estimate more
    // conservative.
    manta_telemetry::reset();
    pipeline(&spec, &plain);
    let report = manta_telemetry::report();
    let span_count = span_hits(&report.spans);
    let counter_count: u64 = report.counters.values().sum();

    // Micro-cost of one disabled-path call of each kind, net of the
    // measurement loop itself.
    manta_telemetry::set_enabled(false);
    static PROBE: Counter = Counter::new("bench.telemetry.probe");
    let baseline_ns = harness::time(|| std::hint::black_box(1u64));
    let counter_ns = (harness::time(|| PROBE.add(1)) - baseline_ns).max(0.0);
    let span_ns = (harness::time(|| {
        manta_telemetry::span!("bench-probe");
    }) - baseline_ns)
        .max(0.0);

    let est_overhead_ns = span_count as f64 * span_ns + counter_count as f64 * counter_ns;
    let est_pct = 100.0 * est_overhead_ns / disabled_ns;
    let meas_pct = 100.0 * (enabled_ns - disabled_ns) / disabled_ns;

    println!(
        "bench telemetry/pipeline-disabled          {:>12.3} ms",
        disabled_ns / 1e6
    );
    println!(
        "bench telemetry/pipeline-enabled           {:>12.3} ms",
        enabled_ns / 1e6
    );
    println!("bench telemetry/enabled-delta              {meas_pct:>11.2} %");
    println!("bench telemetry/disabled-span              {span_ns:>12.3} ns");
    println!("bench telemetry/disabled-counter           {counter_ns:>12.3} ns");
    println!("bench telemetry/span-hits                  {span_count:>12}");
    println!("bench telemetry/counter-hits               {counter_count:>12}");
    println!("bench telemetry/est-disabled-overhead      {est_pct:>11.3} %");
    assert!(
        est_pct < 2.0,
        "disabled telemetry must cost <2% of the pipeline, estimated {est_pct:.3}%"
    );
    println!("telemetry overhead OK (<2% disabled)");

    // Provenance leg. A provenance-off run records nothing; what it still
    // pays is the points-to solver's `Option` check on every newly
    // inserted fact. A recording solve records each such fact once, so
    // its derivations count the checks, and the same estimate discipline
    // as above bounds them. The on/off wall delta — a plain engine
    // against a provenance engine — is printed for information only:
    // recording is allowed to cost, the off path is not.
    let prov = Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .build()
        .expect("cacheless engine cannot fail to build");
    let prov_off_ns = harness::time(|| pipeline(&spec, &plain));
    let prov_on_ns = harness::time(|| pipeline(&spec, &prov));
    let analysis = ModuleAnalysis::build(generator::generate(&spec).module);
    let derivations = PointsTo::derivations(&analysis.pre);
    let checks = (derivations.var_origins.len() + derivations.obj_origins.len()) as u64;
    let mut off: Option<HashMap<(u32, u32), u8>> = None;
    let check_ns = (harness::time(|| {
        if let Some(m) = std::hint::black_box(&mut off) {
            m.insert((0, 0), 0);
        }
    }) - baseline_ns)
        .max(0.0);
    let prov_meas_pct = 100.0 * (prov_on_ns - prov_off_ns) / prov_off_ns;
    let prov_est_pct = 100.0 * checks as f64 * check_ns / prov_off_ns;
    println!(
        "bench telemetry/provenance-off             {:>12.3} ms",
        prov_off_ns / 1e6
    );
    println!(
        "bench telemetry/provenance-on              {:>12.3} ms",
        prov_on_ns / 1e6
    );
    println!("bench telemetry/provenance-on-delta        {prov_meas_pct:>11.2} %");
    println!("bench telemetry/provenance-check           {check_ns:>12.3} ns");
    println!("bench telemetry/provenance-checks          {checks:>12}");
    println!("bench telemetry/est-provenance-off-ovh     {prov_est_pct:>11.3} %");
    assert!(
        prov_est_pct < 2.0,
        "provenance-off must cost <2% of the pipeline, estimated {prov_est_pct:.3}%"
    );
    println!("provenance overhead OK (<2% disabled)");
}
