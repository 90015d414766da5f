//! # manta-eval
//!
//! The evaluation harness: regenerates every table and figure of the
//! paper's §6 on the synthetic suites (see `DESIGN.md` for the
//! substitution map and `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! * [`experiments::table3`] — type-inference precision/recall.
//! * [`experiments::figure2`] — over-approximated/unknown profiling.
//! * [`experiments::figure9`] — classification proportions per ablation.
//! * [`experiments::figure10`] — time/memory scaling.
//! * [`experiments::table4`] / [`experiments::figure11`] — indirect-call
//!   AICT, precision and recall.
//! * [`experiments::figure12`] — source–sink slicing F1.
//! * [`experiments::table5`] — firmware bug detection.

#![warn(missing_docs)]

pub mod adapters;
pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod table;

pub use adapters::MantaTool;

/// Serializes the runner tests that share the process-global fault
/// plan: the fault-plan test arms `eval.project:beta`, and the other
/// runner tests load a project named `beta`, which would trip it.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
pub use runner::{
    load_coreutils, load_coreutils_checked, load_firmware, load_firmware_checked, load_projects,
    load_projects_checked, load_specs_checked, load_suite, load_suite_checked, solver_shape_table,
    stage_breakdown_table, ProjectData, ProjectFailure, Suite, SuiteLoad,
};
