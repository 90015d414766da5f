//! Cache-aware suite evaluation.
//!
//! A warm evaluation run should not regenerate, re-analyze, or re-infer
//! a project whose spec has not changed. This module persists one
//! [`EvalRow`] per project in the [`AnalysisCache`] under the `"row"`
//! stage, keyed by the *spec fingerprint* (the content hash of every
//! field that feeds the deterministic generator) and the inference
//! config hash. On a hit the entire per-project pipeline is skipped; on
//! a miss the project runs through the normal fault-isolated loader and
//! the freshly computed row is written back.
//!
//! [`run_suite`] is the one entrypoint: it takes an [`Engine`] and uses
//! its config, budget, strictness, and attached cache (an engine
//! without a cache evaluates everything fresh).
//!
//! Rows contain only deterministic quantities (scored counts, class
//! counts, fingerprints) — never wall times — so a warm run is
//! bit-identical to the cold run that populated it, at any thread
//! count. Degraded results are recomputed rather than persisted, and
//! any corrupt row entry is discarded with a
//! [`DegradationKind::StoreCorruption`] record and recomputed.

use manta::{AnalysisCache, ClassCounts, Engine, MantaConfig};
use manta_resilience::{BudgetSpec, Degradation, DegradationKind};
use manta_store::{ByteReader, ByteWriter, DecodeError, Fingerprint, Key};
use manta_workloads::ProjectSpec;

use crate::metrics::{score_params, PrScore};
use crate::runner::{load_specs_checked, ProjectData, ProjectFailure};

/// Bump when [`EvalRow`]'s byte layout changes; stale rows then miss
/// instead of decoding garbage.
const ROW_CODEC_VERSION: u32 = 1;

/// Content hash of a [`ProjectSpec`]: every field that influences the
/// deterministic generator, with floats hashed by bit pattern. Two
/// specs with equal fingerprints generate byte-identical modules and
/// ground truth.
#[must_use]
pub fn spec_fingerprint(spec: &ProjectSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str("manta-eval.spec");
    fp.write_str(&spec.name);
    fp.write_u64(spec.kloc.to_bits());
    fp.write_usize(spec.functions);
    fp.write_u64(spec.seed);
    for x in [
        spec.mix.local_reveal,
        spec.mix.interproc_reveal,
        spec.mix.poly_shared,
        spec.mix.branch_cast,
        spec.mix.unmodeled,
        spec.mix.wrong_int,
        spec.mix.callsite_cast,
        spec.mix.numeric_abstract,
        spec.mix.union_rate,
        spec.mix.stack_recycle_rate,
        spec.mix.icall_rate,
        spec.mix.loop_rate,
        spec.mix.struct_ptr_rate,
    ] {
        fp.write_u64(x.to_bits());
    }
    fp.finish()
}

/// The deterministic per-project evaluation outcome persisted by
/// [`run_suite`]. Contains no wall times: a row served warm is
/// bit-identical to the row computed cold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalRow {
    /// The project name.
    pub name: String,
    /// Fingerprint of the generated module's canonical text (ties the
    /// row back to the exact program it scored).
    pub module_fp: u64,
    /// Function count of the generated module.
    pub functions: usize,
    /// Parameter-type precision/recall counts against ground truth.
    pub params: PrScore,
    /// Final `|V_P|/|V_O|/|V_U|` classification counts.
    pub counts: ClassCounts,
}

fn encode_row(row: &EvalRow) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(ROW_CODEC_VERSION)
        .str(&row.name)
        .u64(row.module_fp)
        .usize(row.functions)
        .usize(row.params.correct)
        .usize(row.params.included)
        .usize(row.params.total)
        .usize(row.counts.precise)
        .usize(row.counts.over)
        .usize(row.counts.unknown);
    w.finish()
}

fn bad(context: &'static str) -> DecodeError {
    DecodeError { context, offset: 0 }
}

fn dec_count(r: &mut ByteReader<'_>, context: &'static str) -> Result<usize, DecodeError> {
    usize::try_from(r.u64(context)?).map_err(|_| bad(context))
}

fn decode_row(payload: &[u8]) -> Result<EvalRow, DecodeError> {
    let mut r = ByteReader::new(payload);
    let version = r.u32("row.version")?;
    if version != ROW_CODEC_VERSION {
        return Err(bad("row.version"));
    }
    let name = r.str("row.name")?.to_string();
    let module_fp = r.u64("row.module_fp")?;
    let functions = dec_count(&mut r, "row.functions")?;
    let params = PrScore {
        correct: dec_count(&mut r, "row.params.correct")?,
        included: dec_count(&mut r, "row.params.included")?,
        total: dec_count(&mut r, "row.params.total")?,
    };
    let counts = ClassCounts {
        precise: dec_count(&mut r, "row.counts.precise")?,
        over: dec_count(&mut r, "row.counts.over")?,
        unknown: dec_count(&mut r, "row.counts.unknown")?,
    };
    r.expect_end("row.end")?;
    Ok(EvalRow {
        name,
        module_fp,
        functions,
        params,
        counts,
    })
}

/// Scores one freshly built project into its deterministic row.
#[must_use]
pub fn row_for(project: &ProjectData, result: &manta::InferenceResult) -> EvalRow {
    let params = score_params(&project.analysis, &project.truth, |func, index| {
        let p = *project
            .analysis
            .module()
            .function(func)
            .params()
            .get(index)?;
        result
            .interval(manta_analysis::VarRef::new(func, p))
            .cloned()
    });
    EvalRow {
        name: project.name.clone(),
        module_fp: manta::cache::module_fingerprint(project.analysis.module()),
        functions: project.analysis.module().functions().count(),
        params,
        counts: result.final_counts(),
    }
}

/// The outcome of a cache-aware suite evaluation.
#[derive(Debug, Default)]
pub struct CachedSuite {
    /// One row per project that produced a result, in suite order —
    /// served from cache or computed fresh.
    pub rows: Vec<EvalRow>,
    /// Projects that failed to build (never cached).
    pub failures: Vec<ProjectFailure>,
    /// Projects whose generation/analysis/inference was skipped because
    /// their row was served from the cache.
    pub skipped_builds: usize,
    /// Degradations recorded against the cache during this run
    /// (corrupt entries discarded, store recovered on open).
    pub degradations: Vec<Degradation>,
}

impl CachedSuite {
    /// Suite-total parameter score across all rows.
    #[must_use]
    pub fn total_params(&self) -> PrScore {
        let mut total = PrScore::default();
        for row in &self.rows {
            total.merge(row.params);
        }
        total
    }

    /// Renders the rows as a deterministic multi-line summary, suitable
    /// for byte-for-byte cold-vs-warm comparison.
    #[must_use]
    pub fn render_rows(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{} fp={:016x} funcs={} correct={} included={} total={} P={} O={} U={}\n",
                r.name,
                r.module_fp,
                r.functions,
                r.params.correct,
                r.params.included,
                r.params.total,
                r.counts.precise,
                r.counts.over,
                r.counts.unknown,
            ));
        }
        out
    }
}

fn row_key(spec: &ProjectSpec, config: &MantaConfig, budget: BudgetSpec) -> Key {
    Key::new(
        "row",
        spec_fingerprint(spec),
        manta::cache::config_hash(config, budget.fuel),
    )
}

/// Evaluates `specs` through `engine`: unchanged projects are served
/// from the engine's cache (when one is attached) and only the misses
/// are generated, analyzed, and inferred.
///
/// Cache policy is the engine's: an active fault-injection plan, a
/// wall-clock deadline, or a strict engine bypasses the cache entirely
/// (results would not be deterministic), and degraded results are
/// recomputed rather than persisted. A strict engine's inference
/// failures land in [`CachedSuite::failures`] instead of aborting the
/// suite.
pub fn run_suite(specs: Vec<ProjectSpec>, engine: &Engine) -> CachedSuite {
    let cache = engine.cache();
    let config = *engine.config();
    let budget = *engine.budget();
    let (load, hits) = load_specs_cached(specs, budget, cache, &config, engine.strict());
    let mut suite = CachedSuite {
        skipped_builds: load.skipped_parses,
        degradations: load.degradations,
        ..CachedSuite::default()
    };
    suite.failures = load.failures;

    // Score the projects that actually built, persisting their rows.
    let bypass = manta_resilience::plan_active() || budget.deadline_ms.is_some() || engine.strict();
    let mut fresh: Vec<(usize, EvalRow)> = Vec::new();
    for (order, project) in &load.projects {
        let result = match engine.analyze(&project.analysis) {
            Ok(r) => r,
            Err(error) => {
                // Only strict engines error; record the project and move on.
                let degradation = Degradation::record(
                    "eval.project",
                    "remaining projects",
                    DegradationKind::from_error(&error),
                    format!("{}: {error}", project.name),
                );
                suite.failures.push(ProjectFailure {
                    name: project.name.clone(),
                    error,
                    degradation,
                });
                continue;
            }
        };
        let row = row_for(project, &result);
        if !bypass && !result.is_degraded() {
            if let (Some(c), Some((_, key))) =
                (cache, load.spec_keys.iter().find(|(i, _)| i == order))
            {
                let _ = c.store().put(key, &encode_row(&row));
            }
        }
        fresh.push((*order, row));
    }

    // Interleave cached and fresh rows back into suite order.
    let mut all: Vec<(usize, EvalRow)> = hits;
    all.extend(fresh);
    all.sort_by_key(|(i, _)| *i);
    suite.rows = all.into_iter().map(|(_, r)| r).collect();
    if let Some(c) = cache {
        suite.degradations.extend(c.take_degradations());
        c.publish_telemetry();
    }
    suite
}

/// A [`SuiteLoad`] whose projects carry their original suite index, plus
/// the row keys of the specs that missed (so fresh rows can be written
/// back under the right key).
#[derive(Debug, Default)]
struct IndexedLoad {
    projects: Vec<(usize, ProjectData)>,
    failures: Vec<ProjectFailure>,
    spec_keys: Vec<(usize, Key)>,
    skipped_parses: usize,
    degradations: Vec<Degradation>,
}

/// Splits `specs` into cache hits (decoded rows) and misses (built via
/// [`load_specs_checked`]), recording the number of skipped parses.
fn load_specs_cached(
    specs: Vec<ProjectSpec>,
    budget: BudgetSpec,
    cache: Option<&AnalysisCache>,
    config: &MantaConfig,
    strict: bool,
) -> (IndexedLoad, Vec<(usize, EvalRow)>) {
    let bypass = manta_resilience::plan_active() || budget.deadline_ms.is_some() || strict;
    let mut hits: Vec<(usize, EvalRow)> = Vec::new();
    let mut misses: Vec<(usize, ProjectSpec)> = Vec::new();
    let mut spec_keys: Vec<(usize, Key)> = Vec::new();
    let mut degradations: Vec<Degradation> = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let cache = match cache {
            Some(c) if !bypass => c,
            _ => {
                misses.push((i, spec));
                continue;
            }
        };
        let key = row_key(&spec, config, budget);
        match cache.store().get(&key).map(|p| decode_row(&p)) {
            Some(Ok(row)) => hits.push((i, row)),
            Some(Err(e)) => {
                cache.store().invalidate(&key);
                degradations.push(Degradation::record(
                    "store.row",
                    "recomputing",
                    DegradationKind::StoreCorruption,
                    format!("row entry {key}: {e}"),
                ));
                spec_keys.push((i, key));
                misses.push((i, spec));
            }
            None => {
                spec_keys.push((i, key));
                misses.push((i, spec));
            }
        }
    }

    let skipped = hits.len();
    // Suite names are unique; remember each miss's original index so
    // built projects (whose relative order can shift when some specs
    // fail) can be slotted back into suite order.
    let index_of: std::collections::HashMap<String, usize> = misses
        .iter()
        .map(|(i, spec)| (spec.name.clone(), *i))
        .collect();
    let to_build: Vec<ProjectSpec> = misses.into_iter().map(|(_, spec)| spec).collect();
    let mut built = load_specs_checked(to_build, budget);
    built.skipped_parses = skipped;

    let projects = built
        .projects
        .into_iter()
        .map(|p| {
            let i = index_of.get(&p.name).copied().unwrap_or(usize::MAX);
            (i, p)
        })
        .collect();
    let load = IndexedLoad {
        projects,
        failures: built.failures,
        spec_keys,
        skipped_parses: skipped,
        degradations,
    };
    (load, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta_workloads::PhenomenonMix;
    use std::sync::Arc;

    fn engine_for(cache: &Arc<AnalysisCache>) -> Engine {
        Engine::builder()
            .config(MantaConfig::full())
            .cache(cache.clone())
            .build()
            .expect("prebuilt cache: build cannot fail")
    }

    fn temp_dir(tag: &str) -> manta_store::TempDir {
        manta_store::TempDir::new(&format!("evalcache-{tag}"))
    }

    fn tiny_specs() -> Vec<ProjectSpec> {
        ["alpha", "beta", "gamma"]
            .iter()
            .enumerate()
            .map(|(i, name)| ProjectSpec {
                name: (*name).to_string(),
                kloc: 1.0,
                functions: 4,
                mix: PhenomenonMix::balanced(),
                seed: 101 + i as u64,
            })
            .collect()
    }

    #[test]
    fn warm_run_skips_builds_and_matches_cold_bit_for_bit() {
        let _l = crate::test_lock();
        let dir = temp_dir("warm");
        let cache = Arc::new(AnalysisCache::open(dir.path()).unwrap());
        let engine = engine_for(&cache);
        let cold = run_suite(tiny_specs(), &engine);
        assert_eq!(cold.skipped_builds, 0);
        assert_eq!(cold.rows.len(), 3);

        let warm = run_suite(tiny_specs(), &engine);
        assert_eq!(warm.skipped_builds, 3, "all projects must be served warm");
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.render_rows(), cold.render_rows());
    }

    #[test]
    fn seed_edit_rebuilds_only_the_edited_project() {
        let _l = crate::test_lock();
        let dir = temp_dir("edit");
        let cache = Arc::new(AnalysisCache::open(dir.path()).unwrap());
        let engine = engine_for(&cache);
        let cold = run_suite(tiny_specs(), &engine);

        let mut edited = tiny_specs();
        edited[1].seed ^= 0xffff;
        let warm = run_suite(edited, &engine);
        assert_eq!(warm.skipped_builds, 2, "only the edited spec rebuilds");
        assert_eq!(warm.rows.len(), 3);
        assert_eq!(warm.rows[0], cold.rows[0]);
        assert_eq!(warm.rows[2], cold.rows[2]);
        assert_ne!(warm.rows[1].module_fp, cold.rows[1].module_fp);
    }

    #[test]
    fn corrupt_row_entry_degrades_and_recomputes() {
        let _l = crate::test_lock();
        let dir = temp_dir("corrupt");
        let cache = Arc::new(AnalysisCache::open(dir.path()).unwrap());
        let engine = engine_for(&cache);
        let cold = run_suite(tiny_specs(), &engine);

        // Replace one row entry with a checksum-valid but undecodable
        // payload (wrong codec bytes).
        let key = row_key(
            &tiny_specs()[0],
            &MantaConfig::full(),
            BudgetSpec::default(),
        );
        cache.store().put(&key, b"not a row").unwrap();

        let warm = run_suite(tiny_specs(), &engine);
        assert_eq!(warm.rows, cold.rows, "recomputed row matches");
        assert!(
            warm.degradations
                .iter()
                .any(|d| d.kind == DegradationKind::StoreCorruption),
            "corrupt row must surface a StoreCorruption degradation"
        );
    }

    #[test]
    fn spec_fingerprint_tracks_every_generator_input() {
        let base = tiny_specs().remove(0);
        let fp = spec_fingerprint(&base);
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(spec_fingerprint(&seed), fp);
        let mut funcs = base.clone();
        funcs.functions += 1;
        assert_ne!(spec_fingerprint(&funcs), fp);
        let mut mix = base.clone();
        mix.mix.icall_rate += 0.001;
        assert_ne!(spec_fingerprint(&mix), fp);
        assert_eq!(spec_fingerprint(&base.clone()), fp);
    }

    #[test]
    fn row_codec_roundtrips() {
        let row = EvalRow {
            name: "p".to_string(),
            module_fp: 0xdead_beef,
            functions: 7,
            params: PrScore {
                correct: 3,
                included: 5,
                total: 9,
            },
            counts: ClassCounts {
                precise: 10,
                over: 2,
                unknown: 1,
            },
        };
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
        assert!(decode_row(&encode_row(&row)[..4]).is_err());
    }
}
