//! # manta-clients
//!
//! The type-assisted static-analysis clients of the paper's §5:
//!
//! * [`icall`] — type-based indirect-call analysis (§5.1): validates type
//!   compatibility between indirect-call arguments and address-taken
//!   function parameters, pruning infeasible targets. Includes the
//!   TypeArmor (argument count) and τ-CFI (argument width) baselines the
//!   paper compares against.
//! * [`ddg_prune`] — infeasible data-dependency pruning (§5.2, Table 2):
//!   cuts the `add`/`sub` operand edges that cannot be alias flows given
//!   the inferred types, leaving the substrate's DDG as built.
//! * [`slicing`] — source–sink DDG traversal (§5.3) with CFL-context
//!   validation, the cut and optional type guards.
//! * [`checkers`] — the five example bug checkers: NPD, RSA, UAF, CMI,
//!   BOF. All but UAF are source–sink specs.
//! * [`custom`] — source–sink checker specs (§5.3's extensibility claim)
//!   and the one driver that runs every spec, built-in or user-defined:
//!   with types it slices the DDG minus the cut and applies the same
//!   guards.

#![warn(missing_docs)]

pub mod checkers;
pub mod custom;
pub mod ddg_prune;
pub mod icall;
pub mod slicing;

pub use checkers::{detect_bugs, BugKind, BugReport, CheckerConfig};
pub use custom::{CustomChecker, CustomReport, SinkSpec, SourceSpec};
pub use ddg_prune::{infeasible_deps, CutSet, PruneStats};
pub use icall::{
    indirect_call_sites, resolve_targets_manta, resolve_targets_taucfi, resolve_targets_typearmor,
    IndirectCall,
};
pub use slicing::{Slicer, SlicerConfig, SourceSinkPair};
