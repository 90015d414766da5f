//! # manta-analysis
//!
//! The binary static-analysis substrate the Manta type inference runs on:
//!
//! * [`preprocess`](mod@preprocess) — the paper's §3 pre-processing:
//!   every loop in each function's CFG is unrolled (twice by default) and
//!   back edges on the call graph are broken, so all later analyses
//!   operate on acyclic structures.
//! * [`callgraph`] — direct-call graph with bottom-up ordering.
//! * [`pointsto`] — a field-sensitive, inclusion-based points-to analysis
//!   over the block memory model with allocation-site heap abstraction,
//!   reproducing the paper's documented unsound choices (function pointers
//!   are not modeled, arrays collapse to a monolithic object, parameters
//!   are assumed non-aliasing).
//! * [`ddg`] — the data-dependence graph of Definition 1, with call edges
//!   labeled by call site so CFL-reachability (context sensitivity) can be
//!   enforced during traversal.
//! * [`cfl`] — the calling-context stack used by Algorithms 1 and 2.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Fixpoint loops in this crate must not clone per-iteration state; prefer
// index/borrow patterns. Promote to `#![deny(clippy::redundant_clone)]` in CI
// if a regression slips through review.
#![warn(clippy::redundant_clone)]

pub mod callgraph;
pub mod cfl;
pub mod ddg;
pub mod pointsto;
pub mod preprocess;

pub use callgraph::CallGraph;
pub use cfl::CtxStack;
pub use ddg::{CallSite, Ddg, DepKind, NodeId};
pub use pointsto::{ObjectId, ObjectKind, PointsTo, PointsToProvenance, PtsSource};
pub use preprocess::{preprocess, PreprocessConfig, Preprocessed};

/// A module-global reference to an SSA value: the pair of its function and
/// the function-local value id. This is the variable domain `𝕍` shared by
/// the points-to analysis, the DDG and the type maps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarRef {
    /// Owning function.
    pub func: manta_ir::FuncId,
    /// Function-local value.
    pub value: manta_ir::ValueId,
}

impl VarRef {
    /// Shorthand constructor.
    pub fn new(func: manta_ir::FuncId, value: manta_ir::ValueId) -> VarRef {
        VarRef { func, value }
    }
}

impl std::fmt::Display for VarRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.func, self.value)
    }
}

/// Values grouped by a dense key in one table (compressed sparse rows):
/// key `k`'s values are `values[start[k]..start[k + 1]]`, in the order
/// they were given. A key past the table has none.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr<T> {
    start: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups `items` by their key in `0..keys` with a counting sort,
    /// walking `items` twice.
    pub(crate) fn new(keys: usize, items: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        // Internal iteration (`for_each`) lets chained and flattened
        // inputs run their fast `fold` paths.
        let mut start = vec![0u32; keys + 1];
        items.clone().for_each(|(k, _)| start[k + 1] += 1);
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut next = start.clone();
        // Every slot is overwritten below; any item's value fills them first.
        let mut values = match items.clone().next() {
            Some((_, v)) => vec![v; start[keys] as usize],
            None => Vec::new(),
        };
        items.for_each(|(k, v)| {
            values[next[k] as usize] = v;
            next[k] += 1;
        });
        Csr { start, values }
    }

    /// Key `k`'s values.
    pub(crate) fn get(&self, k: usize) -> &[T] {
        match (self.start.get(k), self.start.get(k.wrapping_add(1))) {
            (Some(&s), Some(&e)) => &self.values[s as usize..e as usize],
            _ => &[],
        }
    }

    /// The number of values over all keys.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// Bundles the full analysis state for one module: the preprocessed module,
/// its call graph, points-to results and DDG. This is the input the `manta`
/// crate's type inference consumes.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Preprocessing output (owns the acyclic module).
    pub pre: Preprocessed,
    /// The direct call graph (broken edges excluded).
    pub callgraph: CallGraph,
    /// Points-to results.
    pub pointsto: PointsTo,
    /// The data-dependence graph.
    pub ddg: Ddg,
}

impl ModuleAnalysis {
    /// Runs the whole substrate pipeline on `module` with default
    /// preprocessing configuration.
    pub fn build(module: manta_ir::Module) -> ModuleAnalysis {
        manta_telemetry::span!("analysis.build");
        let pre = {
            manta_telemetry::span!("preprocess");
            preprocess(module, PreprocessConfig::default())
        };
        let callgraph = {
            manta_telemetry::span!("callgraph");
            CallGraph::build(&pre)
        };
        let pointsto = {
            manta_telemetry::span!("pointsto");
            PointsTo::solve(&pre, &callgraph)
        };
        let ddg = {
            manta_telemetry::span!("ddg");
            Ddg::build(&pre, &pointsto)
        };
        ModuleAnalysis {
            pre,
            callgraph,
            pointsto,
            ddg,
        }
    }

    /// Runs the whole substrate pipeline under a cooperative budget, with
    /// each stage behind a panic-isolation boundary: the two halves
    /// [`ModuleAnalysis::preprocess_budgeted`] and
    /// [`ModuleAnalysis::finish_budgeted`] under one `analysis.build` span.
    ///
    /// Unlike the inference cascade there is no weaker tier to fall back
    /// to here — inference cannot run without the substrate — so a blown
    /// budget or a caught panic surfaces as a structured error rather
    /// than a degradation. Callers (the eval runner, the CLI) decide
    /// whether to skip the module or abort the run.
    ///
    /// # Errors
    ///
    /// Returns [`MantaError::Budget`] when `budget` trips and
    /// [`MantaError::Panic`] when a stage panics.
    ///
    /// [`MantaError::Budget`]: manta_resilience::MantaError::Budget
    /// [`MantaError::Panic`]: manta_resilience::MantaError::Panic
    pub fn build_budgeted(
        module: manta_ir::Module,
        config: PreprocessConfig,
        budget: &manta_resilience::Budget,
    ) -> Result<ModuleAnalysis, manta_resilience::MantaError> {
        manta_telemetry::span!("analysis.build");
        let pre = Self::preprocess_budgeted(module, config, budget)?;
        Self::finish_budgeted(pre, budget)
    }

    /// The first sub-pass of [`ModuleAnalysis::build_budgeted`]: §3
    /// preprocessing at the `analysis.preprocess` site, charged one unit
    /// of fuel per function. Its output is all a module fingerprint
    /// needs, so a result cache can be probed before the rest is built.
    ///
    /// # Errors
    ///
    /// As for [`ModuleAnalysis::build_budgeted`].
    pub fn preprocess_budgeted(
        module: manta_ir::Module,
        config: PreprocessConfig,
        budget: &manta_resilience::Budget,
    ) -> Result<Preprocessed, manta_resilience::MantaError> {
        use manta_resilience::{fault_point_budgeted, isolate};
        manta_telemetry::span!("preprocess");
        let fc = module.function_count() as u64;
        // Each stage runs fully inside its isolation boundary — including
        // the fault-injection point, so an injected panic is caught and
        // attributed to the stage it was armed on.
        isolate("analysis.preprocess", || {
            fault_point_budgeted("analysis.preprocess", budget);
            budget.consume(fc)?;
            Ok(preprocess(module, config))
        })?
        .map_err(|e| budget_error("analysis.preprocess", e))
    }

    /// The rest of [`ModuleAnalysis::build_budgeted`] after
    /// preprocessing: call graph, points-to and DDG, each at its own
    /// `analysis.*` site.
    ///
    /// # Errors
    ///
    /// As for [`ModuleAnalysis::build_budgeted`].
    pub fn finish_budgeted(
        pre: Preprocessed,
        budget: &manta_resilience::Budget,
    ) -> Result<ModuleAnalysis, manta_resilience::MantaError> {
        use manta_resilience::{fault_point_budgeted, isolate};
        let callgraph = {
            manta_telemetry::span!("callgraph");
            isolate("analysis.callgraph", || {
                fault_point_budgeted("analysis.callgraph", budget);
                budget.tick()?;
                Ok(CallGraph::build(&pre))
            })?
            .map_err(|e| budget_error("analysis.callgraph", e))?
        };
        let pointsto = {
            manta_telemetry::span!("pointsto");
            isolate("analysis.pointsto", || {
                fault_point_budgeted("analysis.pointsto", budget);
                PointsTo::solve_budgeted(&pre, &callgraph, budget)
            })?
            .map_err(|e| budget_error("analysis.pointsto", e))?
        };
        let ddg = {
            manta_telemetry::span!("ddg");
            isolate("analysis.ddg", || {
                fault_point_budgeted("analysis.ddg", budget);
                Ddg::build_budgeted(&pre, &pointsto, budget)
            })?
            .map_err(|e| budget_error("analysis.ddg", e))?
        };
        Ok(ModuleAnalysis {
            pre,
            callgraph,
            pointsto,
            ddg,
        })
    }

    /// The analyzed (acyclic) module.
    pub fn module(&self) -> &manta_ir::Module {
        &self.pre.module
    }
}

/// Converts a blown budget at a substrate site into a [`MantaError`],
/// bumping the `resilience.budget_exhausted` counter once.
///
/// [`MantaError`]: manta_resilience::MantaError
fn budget_error(stage: &str, e: manta_resilience::BudgetExceeded) -> manta_resilience::MantaError {
    manta_resilience::budget_exhausted(stage);
    manta_resilience::MantaError::Budget {
        stage: stage.to_string(),
        kind: e.kind,
    }
}
