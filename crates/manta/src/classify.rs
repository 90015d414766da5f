//! Variable classification into `V_P` / `V_O` / `V_U` (paper §4.1).

use manta_analysis::{ModuleAnalysis, VarRef};
use manta_ir::ValueKind;

use crate::interval::TypeInterval;
use crate::{ClassCounts, InferenceResult, NONE};

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
/// intervals in `result`, updates its class bytes, and returns the
/// counts. Each interval's class is decided once, however many variables
/// share it.
///
/// Constants are excluded: their types are trivially known and the paper's
/// metrics count program variables.
///
/// §4.1 widens `V_U` to the any-type interval `(⊤, ⊥)`; here the `(⊥, ⊤)`
/// sentinel is kept internally (so unknowns stay distinguishable from
/// maximal hint conflicts) and the widening happens in
/// [`InferenceResult::upper`] / [`InferenceResult::lower`].
pub fn classify(analysis: &ModuleAnalysis, result: &mut InferenceResult) -> ClassCounts {
    manta_telemetry::span!("classify");
    let module = analysis.module();
    let mut of_interval: Vec<Option<VarClass>> = vec![None; result.intervals.len()];
    let mut counts = ClassCounts::default();
    let InferenceResult {
        vars,
        slot,
        class,
        intervals,
        ..
    } = result;
    for (f, slots) in vars.functions() {
        let func = module.function(f);
        for ((_, data), s) in func.values().zip(slots) {
            if matches!(data.kind, ValueKind::Const(_)) {
                class[s] = None;
                continue;
            }
            let c = match slot[s] {
                NONE => VarClass::Unknown,
                i => *of_interval[i as usize].get_or_insert_with(|| intervals[i as usize].class()),
            };
            *counts.of_mut(c) += 1;
            class[s] = Some(c);
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
    result.intervals.reserve(updates.len());
    let Some(&(_, mut counts)) = result.stage_counts.last() else {
        for (v, interval) in updates {
            result.set_var(v, interval);
        }
        return classify(analysis, result);
    };
    manta_telemetry::span!("classify");
    for (v, interval) in updates {
        let class = interval.class();
        let s = result.set_var(v, interval);
        if let Some(old) = result.class[s].replace(class) {
            *counts.of_mut(old) -= 1;
        }
        *counts.of_mut(class) += 1;
    }
    publish(counts);
    counts
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

/// The set of variables currently classified `V_O`, in deterministic
/// ([`VarRef`]) order.
pub fn over_approximated(result: &InferenceResult) -> Vec<VarRef> {
    let over = result.class.iter().filter(|&&c| c == Some(VarClass::Over));
    let mut out = Vec::with_capacity(over.count());
    out.extend(
        result
            .vars
            .vars()
            .filter_map(|(s, v)| (result.class[s] == Some(VarClass::Over)).then_some(v)),
    );
    out
}
