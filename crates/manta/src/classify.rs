//! Variable classification into `V_P` / `V_O` / `V_U` (paper §4.1).

use manta_analysis::{ModuleAnalysis, VarRef};
use manta_ir::ValueKind;

use crate::interval::{Resolution, TypeInterval};
use crate::{ClassCounts, InferenceResult};

/// The classification of one variable after a stage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VarClass {
    /// `V_P` — type precisely resolved as a singleton; no refinement can
    /// produce a better result.
    Precise,
    /// `V_O` — over-approximated; higher-precision stages may narrow the
    /// interval.
    Over,
    /// `V_U` — no type hints were captured; refinement cannot help either
    /// (even the flow-insensitive stage saw nothing), so the variable is
    /// widened to the *any-type* interval.
    Unknown,
}

/// Recomputes the classification of every non-constant variable from the
/// intervals in `result`, updates `result.class`, widens unknowns to the
/// any-type interval, and returns the counts.
///
/// Constants are excluded: their types are trivially known and the paper's
/// metrics count program variables.
pub fn classify(analysis: &ModuleAnalysis, result: &mut InferenceResult) -> ClassCounts {
    manta_telemetry::span!("classify");
    let mut counts = ClassCounts::default();
    for func in analysis.module().functions() {
        for (value, data) in func.values() {
            if matches!(data.kind, ValueKind::Const(_)) {
                continue;
            }
            let v = VarRef::new(func.id(), value);
            let class = class_of(result.var_types.get(&v));
            *counts.of_mut(class) += 1;
            result.class.insert(v, class);
        }
    }
    publish(counts);
    counts
}

/// Writes a refinement stage's variable updates into `result` and
/// re-classifies only the updated variables, starting from the counts of
/// the stage before: every other variable keeps its interval and so its
/// class. Gives exactly what [`classify`] would, without its scan of the
/// whole module; falls back to that scan when no stage has classified yet.
pub(crate) fn commit(
    analysis: &ModuleAnalysis,
    result: &mut InferenceResult,
    updates: Vec<(VarRef, TypeInterval)>,
) -> ClassCounts {
    let Some(&(_, mut counts)) = result.stage_counts.last() else {
        for (v, interval) in updates {
            result.var_types.insert(v, interval);
        }
        return classify(analysis, result);
    };
    manta_telemetry::span!("classify");
    for (v, interval) in updates {
        let class = class_of(Some(&interval));
        result.var_types.insert(v, interval);
        if let Some(old) = result.class.insert(v, class) {
            *counts.of_mut(old) -= 1;
        }
        *counts.of_mut(class) += 1;
    }
    publish(counts);
    counts
}

/// The class of a variable with interval `interval` (`None`: no hint).
fn class_of(interval: Option<&TypeInterval>) -> VarClass {
    match interval.map(TypeInterval::resolution) {
        // §4.1 widens V_U to the any-type interval `(⊤, ⊥)`; here the
        // `(⊥, ⊤)` sentinel is kept internally (so unknowns stay
        // distinguishable from maximal hint conflicts) and the widening
        // happens in [`InferenceResult::upper`] / [`InferenceResult::lower`].
        None | Some(Resolution::Unknown) => VarClass::Unknown,
        Some(Resolution::Precise(_)) => VarClass::Precise,
        Some(Resolution::Over) => VarClass::Over,
    }
}

/// The latest classification wins: counter_set so a report shows the
/// final |V_P| / |V_O| / |V_U| split, not a sum over stages.
fn publish(counts: ClassCounts) {
    manta_telemetry::counter_set("classify.v_p", counts.precise as u64);
    manta_telemetry::counter_set("classify.v_o", counts.over as u64);
    manta_telemetry::counter_set("classify.v_u", counts.unknown as u64);
}

impl ClassCounts {
    fn of_mut(&mut self, class: VarClass) -> &mut usize {
        match class {
            VarClass::Precise => &mut self.precise,
            VarClass::Over => &mut self.over,
            VarClass::Unknown => &mut self.unknown,
        }
    }
}

/// The set of variables currently classified `V_O`, in deterministic order.
pub fn over_approximated(analysis: &ModuleAnalysis, result: &InferenceResult) -> Vec<VarRef> {
    let mut out = Vec::new();
    for func in analysis.module().functions() {
        for (value, data) in func.values() {
            if matches!(data.kind, ValueKind::Const(_)) {
                continue;
            }
            let v = VarRef::new(func.id(), value);
            if result.class.get(&v) == Some(&VarClass::Over) {
                out.push(v);
            }
        }
    }
    out
}
