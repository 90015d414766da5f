//! Suite loading: generate workloads and build their module analyses,
//! in parallel across projects, with a per-stage telemetry breakdown.
//!
//! Every project build runs behind a panic-isolation boundary
//! (`eval.project`): a crash or blown budget in one project is converted
//! into a [`ProjectFailure`] and the remaining projects still load.
//! [`load_specs_checked`] exposes both halves as a [`SuiteLoad`]; the plain
//! loaders keep their historical all-or-nothing contract.

use std::time::Instant;

use manta_analysis::{ModuleAnalysis, PreprocessConfig};
use manta_resilience::{
    fault_point_keyed, isolate, BudgetSpec, Degradation, DegradationKind, MantaError,
};
use manta_telemetry::Counter;
use manta_workloads::{
    coreutils_suite, firmware_suite, generate_firmware, project_suite, FirmwareSpec, GroundTruth,
    ProjectSpec,
};

/// Worker threads chosen by the most recent [`build_many`]-based load.
static PARALLELISM: Counter = Counter::new("eval.parallelism");

/// A generated, analyzed project ready for experiments.
#[derive(Debug)]
pub struct ProjectData {
    /// The project name.
    pub name: String,
    /// Nominal KLoC label.
    pub kloc: f64,
    /// The prepared analysis (preprocessing, points-to, DDG).
    pub analysis: ModuleAnalysis,
    /// The scoring oracle.
    pub truth: GroundTruth,
    /// Wall time to generate + analyze, in milliseconds.
    pub build_ms: f64,
    /// Per-stage build breakdown `(stage, wall ms)` captured by the
    /// telemetry spans inside [`ModuleAnalysis::build`]: `preprocess`,
    /// `callgraph`, `pointsto`, `ddg`.
    pub stage_ms: Vec<(String, f64)>,
}

impl ProjectData {
    /// Wall milliseconds of one named build stage (0 if absent).
    pub fn stage(&self, name: &str) -> f64 {
        self.stage_ms
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ms)| ms)
            .unwrap_or(0.0)
    }
}

/// One project that could not be built: the isolation boundary caught a
/// panic, or the per-project budget tripped.
#[derive(Debug)]
pub struct ProjectFailure {
    /// The failed project's name.
    pub name: String,
    /// What went wrong.
    pub error: MantaError,
    /// The degradation record emitted for the failure (also bumps the
    /// `resilience.degradations` counter).
    pub degradation: Degradation,
}

/// The outcome of a fault-tolerant suite load: the projects that built
/// plus a record per project that did not.
#[derive(Debug, Default)]
pub struct SuiteLoad {
    /// Successfully built projects, in suite order.
    pub projects: Vec<ProjectData>,
    /// Projects that failed, in suite order.
    pub failures: Vec<ProjectFailure>,
}

impl SuiteLoad {
    /// Whether every project built.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The three generated workload suites of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// The 14-project suite (paper Table 3).
    Projects,
    /// The 104-binary coreutils-like suite.
    Coreutils,
    /// The nine firmware images (paper Table 5).
    Firmware,
}

impl Suite {
    fn units(self) -> Vec<SuiteUnit> {
        match self {
            Suite::Projects => project_suite()
                .into_iter()
                .map(SuiteUnit::Project)
                .collect(),
            Suite::Coreutils => coreutils_suite()
                .into_iter()
                .map(SuiteUnit::Project)
                .collect(),
            Suite::Firmware => firmware_suite()
                .into_iter()
                .map(SuiteUnit::Firmware)
                .collect(),
        }
    }
}

/// One buildable unit of any suite, erasing the spec type behind a
/// uniform name / KLoC / generate surface so a single loader serves
/// every suite.
enum SuiteUnit {
    Project(ProjectSpec),
    Firmware(FirmwareSpec),
}

impl SuiteUnit {
    fn name(&self) -> &str {
        match self {
            SuiteUnit::Project(s) => &s.name,
            SuiteUnit::Firmware(s) => &s.name,
        }
    }

    /// Firmware images carry no KLoC label (Table 5 reports image sizes
    /// instead); they keep the historical 0.0 placeholder.
    fn kloc(&self) -> f64 {
        match self {
            SuiteUnit::Project(s) => s.kloc,
            SuiteUnit::Firmware(_) => 0.0,
        }
    }

    fn generate(&self) -> manta_workloads::GeneratedProgram {
        match self {
            SuiteUnit::Project(s) => s.generate(),
            SuiteUnit::Firmware(s) => generate_firmware(s),
        }
    }
}

/// Generates and analyzes one unit behind the `eval.project` isolation
/// boundary, under a fresh budget minted from `budget`.
fn build_unit_checked(unit: &SuiteUnit, budget: BudgetSpec) -> Result<ProjectData, MantaError> {
    let name = unit.name().to_string();
    let kloc = unit.kloc();
    let start = Instant::now();
    let budget = budget.start();
    let (outcome, spans) = manta_telemetry::scoped(|| {
        isolate("eval.project", || {
            fault_point_keyed("eval.project", &name);
            let generated = unit.generate();
            ModuleAnalysis::build_budgeted(generated.module, PreprocessConfig::default(), &budget)
                .map(|analysis| (analysis, generated.truth))
        })
    });
    let (analysis, truth) = outcome.and_then(|r| r)?;
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    // `scoped` yields the span forest recorded on this thread; the build
    // wraps itself in one `analysis.build` root with a child per stage.
    let stage_ms = spans
        .iter()
        .flat_map(|root| &root.children)
        .map(|s| (s.name.clone(), s.total_ms()))
        .collect();
    Ok(ProjectData {
        name,
        kloc,
        analysis,
        truth,
        build_ms,
        stage_ms,
    })
}

/// Builds `units` in parallel, isolating each one: a single unit's panic
/// or blown budget becomes a [`ProjectFailure`] while the rest of the
/// suite still loads.
fn load_units_checked(units: Vec<SuiteUnit>, budget: BudgetSpec) -> SuiteLoad {
    PARALLELISM.set(manta_parallel::threads() as u64);
    let slots = manta_parallel::par_map(units, |unit| {
        build_unit_checked(&unit, budget).map_err(|error| {
            let name = unit.name().to_string();
            let degradation = Degradation::record(
                "eval.project",
                "remaining projects",
                DegradationKind::from_error(&error),
                format!("{name}: {error}"),
            );
            // Boxed so the worker closure's Err variant stays small.
            Box::new(ProjectFailure {
                name,
                error,
                degradation,
            })
        })
    });
    let mut load = SuiteLoad::default();
    for slot in slots {
        match slot {
            Ok(p) => load.projects.push(p),
            Err(f) => load.failures.push(*f),
        }
    }
    load
}

/// Builds `specs` in parallel, isolating each project: one project's
/// panic or blown budget becomes a [`ProjectFailure`] while the rest of
/// the suite still loads.
pub fn load_specs_checked(specs: Vec<ProjectSpec>, budget: BudgetSpec) -> SuiteLoad {
    load_units_checked(specs.into_iter().map(SuiteUnit::Project).collect(), budget)
}

fn build_many(units: Vec<SuiteUnit>) -> Vec<ProjectData> {
    let load = load_units_checked(units, BudgetSpec::default());
    if let Some(f) = load.failures.first() {
        panic!("project {} failed to build: {}", f.name, f.error);
    }
    load.projects
}

/// Generates and analyzes a whole suite, panicking on the first build
/// failure (the historical all-or-nothing contract).
pub fn load_suite(suite: Suite) -> Vec<ProjectData> {
    build_many(suite.units())
}

/// Generates and analyzes the 14-project suite.
pub fn load_projects() -> Vec<ProjectData> {
    load_suite(Suite::Projects)
}

/// Generates and analyzes the 104-binary coreutils-like suite.
pub fn load_coreutils() -> Vec<ProjectData> {
    load_suite(Suite::Coreutils)
}

/// Generates and analyzes the nine firmware images.
pub fn load_firmware() -> Vec<ProjectData> {
    load_suite(Suite::Firmware)
}

/// Renders the per-project, per-stage substrate cost table that replaces
/// the old single `build_ms` column.
pub fn stage_breakdown_table(projects: &[ProjectData]) -> String {
    let mut table = crate::table::TextTable::new(&[
        "project",
        "preprocess ms",
        "callgraph ms",
        "pointsto ms",
        "ddg ms",
        "total ms",
    ]);
    for p in projects {
        table.row(vec![
            p.name.clone(),
            format!("{:.2}", p.stage("preprocess")),
            format!("{:.2}", p.stage("callgraph")),
            format!("{:.2}", p.stage("pointsto")),
            format!("{:.2}", p.stage("ddg")),
            format!("{:.2}", p.build_ms),
        ]);
    }
    table.render()
}

/// Renders the per-project solver-shape table: the constraint-graph and
/// worklist introspection the delta points-to solver records, plus a
/// suite-wide total row. Complements [`stage_breakdown_table`] (wall
/// time) with *why* — graph size, SCC collapses, iteration counts and
/// the largest points-to set each solve reached.
pub fn solver_shape_table(projects: &[ProjectData]) -> String {
    let mut table = crate::table::TextTable::new(&[
        "project",
        "pts nodes",
        "pts edges",
        "scc merges",
        "worklist iters",
        "peak |pts|",
    ]);
    let mut total = [0usize; 5];
    for p in projects {
        let pt = &p.analysis.pointsto;
        let cells = [
            pt.constraint_nodes,
            pt.constraint_edges,
            pt.scc_merges,
            pt.iterations,
            pt.peak_pts,
        ];
        for (t, c) in total.iter_mut().zip(cells) {
            *t += c;
        }
        let mut row = vec![p.name.clone()];
        row.extend(cells.iter().map(|c| c.to_string()));
        table.row(row);
    }
    let mut row = vec!["TOTAL".to_string()];
    // Peak cardinality aggregates as a max, not a sum.
    total[4] = projects
        .iter()
        .map(|p| p.analysis.pointsto.peak_pts)
        .max()
        .unwrap_or(0);
    row.extend(total.iter().map(|t| t.to_string()));
    table.row(row);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as fault_lock;
    use manta_workloads::PhenomenonMix;

    fn tiny_specs() -> Vec<ProjectSpec> {
        ["alpha", "beta", "gamma"]
            .iter()
            .enumerate()
            .map(|(i, name)| ProjectSpec {
                name: (*name).to_string(),
                kloc: 1.0,
                functions: 4,
                mix: PhenomenonMix::balanced(),
                seed: 11 + i as u64,
            })
            .collect()
    }

    #[test]
    fn checked_load_builds_everything_unconstrained() {
        let _l = fault_lock();
        let load = load_specs_checked(tiny_specs(), BudgetSpec::default());
        assert!(load.is_clean(), "{:?}", load.failures);
        assert_eq!(load.projects.len(), 3);
        assert_eq!(load.projects[0].name, "alpha");
    }

    #[test]
    fn injected_panic_in_one_project_spares_the_rest() {
        let _l = fault_lock();
        use manta_resilience::{Fault, FaultArming, FaultPlan};
        let _guard = FaultPlan::new()
            .arm("eval.project:beta", Fault::Panic, FaultArming::Always)
            .install();
        let load = load_specs_checked(tiny_specs(), BudgetSpec::default());
        assert_eq!(load.projects.len(), 2, "alpha and gamma must survive");
        assert_eq!(load.failures.len(), 1);
        let f = &load.failures[0];
        assert_eq!(f.name, "beta");
        assert_eq!(f.degradation.kind, DegradationKind::InjectedFault);
        assert!(matches!(f.error, MantaError::Panic { .. }), "{:?}", f.error);
    }

    #[test]
    fn zero_fuel_budget_fails_every_project_gracefully() {
        let _l = fault_lock();
        let budget = BudgetSpec {
            fuel: Some(0),
            deadline_ms: None,
        };
        let load = load_specs_checked(tiny_specs(), budget);
        assert!(load.projects.is_empty());
        assert_eq!(load.failures.len(), 3);
        for f in &load.failures {
            assert!(
                matches!(f.error, MantaError::Budget { .. }),
                "{:?}",
                f.error
            );
            assert_eq!(f.degradation.kind, DegradationKind::BudgetFuel);
        }
    }

    #[test]
    fn loads_firmware_suite() {
        let fw = load_firmware();
        assert_eq!(fw.len(), 9);
        assert!(fw.iter().all(|p| !p.truth.bugs.is_empty()));
    }

    #[test]
    fn builds_capture_stage_breakdown() {
        let fw = load_firmware();
        for p in &fw {
            let stages: Vec<&str> = p.stage_ms.iter().map(|(n, _)| n.as_str()).collect();
            for expect in ["preprocess", "callgraph", "pointsto", "ddg"] {
                assert!(
                    stages.contains(&expect),
                    "{} missing {expect}: {stages:?}",
                    p.name
                );
            }
        }
        let table = stage_breakdown_table(&fw);
        assert!(table.contains("pointsto ms"), "{table}");
    }

    #[test]
    fn solver_shape_table_reports_nonzero_graphs() {
        let _l = fault_lock();
        let load = load_specs_checked(tiny_specs(), BudgetSpec::default());
        assert!(load.is_clean(), "{:?}", load.failures);
        let table = solver_shape_table(&load.projects);
        for col in ["pts nodes", "scc merges", "worklist iters", "peak |pts|"] {
            assert!(table.contains(col), "missing `{col}`:\n{table}");
        }
        assert!(table.contains("TOTAL"), "{table}");
        // Every generated project exercises the solver: the total node
        // and iteration counts must be nonzero.
        let total_line = table.lines().last().unwrap();
        let cells: Vec<&str> = total_line.split_whitespace().collect();
        assert_eq!(cells.len(), 6, "{total_line}");
        assert!(cells[1].parse::<usize>().unwrap() > 0, "{total_line}");
        assert!(cells[4].parse::<usize>().unwrap() > 0, "{total_line}");
    }
}
