//! Source–sink checkers (paper §5.3: "users of MANTA can easily
//! implement a new bug checker by specifying the sources and sinks of
//! the vulnerabilities to detect").
//!
//! A [`CustomChecker`] names a source and a sink specification. One
//! driver runs every checker, and the built-in NPD, RSA, CMI and BOF
//! checkers are specs too ([`BugKind::spec`](crate::BugKind::spec)), so a
//! user-defined checker runs exactly as they do. With types the driver
//! slices the DDG minus Table 2's cut and applies the numeric guards;
//! without types it is the Manta-NoType ablation.

use std::collections::HashMap;

use manta::TypeQuery;
use manta_analysis::{Ddg, ModuleAnalysis, NodeId, VarRef};
use manta_ir::{
    Callee, ConstKind, ExternDecl, ExternEffect, FuncId, Function, InstId, InstKind, Module,
    Terminator, Type, ValueId, ValueKind, Width,
};

use crate::ddg_prune::{self, CutSet};
use crate::slicing::{Slicer, SlicerConfig};

/// Where tainted / interesting values originate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SourceSpec {
    /// Return values of calls to the named external function.
    ExternReturn(String),
    /// Return values of every external with the given effect.
    Effect(ExternEffect),
    /// Null / zero 64-bit constants with a value-flow child or used as a
    /// load/store address (the NPD source).
    NullConstants,
    /// Stack-slot addresses (`alloca` results).
    StackAddresses,
}

/// Which uses constitute a violation when reached.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SinkSpec {
    /// The `index`-th argument of calls to the named external function.
    ExternArg {
        /// External function name.
        name: String,
        /// Zero-based argument position.
        index: usize,
    },
    /// The `index`-th argument of calls to every external with the given
    /// effect.
    Effect {
        /// The effect the extern registry gives the callee.
        effect: ExternEffect,
        /// Zero-based argument position.
        index: usize,
    },
    /// Addresses dereferenced by loads/stores.
    Dereferences,
    /// Values returned from functions. The reported site is the last
    /// instruction of the returning block, an attribution rather than a
    /// use.
    ReturnValues,
}

/// A source–sink checker: a name plus source and sink specifications.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CustomChecker {
    /// Display name of the vulnerability class.
    pub name: String,
    /// Source specification.
    pub sources: SourceSpec,
    /// Sink specification.
    pub sinks: SinkSpec,
    /// Whether a precisely-numeric value refutes the finding (true for
    /// pointer/string-carrying vulnerabilities). With types, no flow
    /// passes through one, and a sink that is an instruction operand
    /// must not be one at its instruction. That last test only fires
    /// where the site reveals no pointer, as for an argument of an extern
    /// without a signature: every built-in sink's site reveals one
    /// (`ptr(⊥)` for an address, `ptr(int8)` for `system` and `strcpy`).
    pub numeric_guard: bool,
}

/// A report from a custom checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CustomReport {
    /// The checker that fired.
    pub checker: String,
    /// Function containing the sink.
    pub func: FuncId,
    /// Slice source node.
    pub source: NodeId,
    /// Slice sink node.
    pub sink: NodeId,
    /// Sink instruction.
    pub sink_site: InstId,
}

/// The edges the checkers do not slice: with types, Table 2's infeasible
/// dependencies (§5.2); without, none.
pub(crate) fn cut_set(analysis: &ModuleAnalysis, inference: Option<&dyn TypeQuery>) -> CutSet {
    let Some(inf) = inference else {
        return CutSet::default();
    };
    manta_telemetry::span!("ddg_prune");
    let (cut, stats) = ddg_prune::infeasible_deps(analysis, inf);
    manta_telemetry::counter("checker.ddg_edges_pruned", stats.removed as u64);
    cut
}

fn numeric(t: Option<Type>) -> bool {
    t.is_some_and(|t| t.is_numeric())
}

impl SourceSpec {
    /// Appends `func`'s sources to `out`, in value or instruction order.
    fn gather(
        &self,
        module: &Module,
        func: &Function,
        ddg: &Ddg,
        cut: &CutSet,
        out: &mut Vec<NodeId>,
    ) {
        let node = |v| ddg.node(VarRef::new(func.id(), v));
        if *self == SourceSpec::NullConstants {
            // A null constant starts a slice when it flows on past the
            // cut, or when it is itself dereferenced: `v = load null` gives
            // it no value-flow child.
            let mut dereferenced: Option<Vec<ValueId>> = None;
            for (v, d) in func.values() {
                let null = match d.kind {
                    ValueKind::Const(ConstKind::Null) => true,
                    ValueKind::Const(ConstKind::Int(0)) => d.width == Width::W64,
                    _ => false,
                };
                if !null {
                    continue;
                }
                let n = node(v);
                let kept = ddg.children(n).iter().any(|&(c, k)| cut.flows(c, k))
                    || dereferenced
                        .get_or_insert_with(|| addresses(func))
                        .binary_search(&v)
                        .is_ok();
                if kept {
                    out.push(n);
                }
            }
            return;
        }
        out.extend(func.insts().filter_map(|inst| match &inst.kind {
            InstKind::Alloca { dst, .. } if *self == SourceSpec::StackAddresses => Some(node(*dst)),
            InstKind::Call {
                dst: Some(d),
                callee: Callee::Extern(e),
                ..
            } if self.returns_from(module.extern_decl(*e)) => Some(node(*d)),
            _ => None,
        }));
    }

    fn returns_from(&self, decl: &ExternDecl) -> bool {
        match self {
            SourceSpec::ExternReturn(name) => decl.name == *name,
            SourceSpec::Effect(effect) => decl.effect == *effect,
            _ => false,
        }
    }
}

/// The values `func` loads from or stores to, ascending.
fn addresses(func: &Function) -> Vec<ValueId> {
    let mut addrs: Vec<ValueId> = func
        .insts()
        .filter_map(|inst| match inst.kind {
            InstKind::Load { addr, .. } | InstKind::Store { addr, .. } => Some(addr),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
}

impl SinkSpec {
    /// Calls `sink` with each value this spec sinks in `func` and its
    /// site, in block or instruction order.
    pub(crate) fn for_each(
        &self,
        module: &Module,
        func: &Function,
        mut sink: impl FnMut(ValueId, InstId),
    ) {
        if *self == SinkSpec::ReturnValues {
            for b in func.blocks() {
                if let Terminator::Ret(Some(v)) = b.term {
                    sink(v, b.insts.last().copied().unwrap_or(InstId::from_index(0)));
                }
            }
            return;
        }
        for inst in func.insts() {
            let operand = match &inst.kind {
                InstKind::Load { addr, .. } | InstKind::Store { addr, .. }
                    if *self == SinkSpec::Dereferences =>
                {
                    Some(*addr)
                }
                InstKind::Call {
                    callee: Callee::Extern(e),
                    args,
                    ..
                } => self
                    .arg_of(module.extern_decl(*e))
                    .and_then(|i| args.get(i).copied()),
                _ => None,
            };
            if let Some(v) = operand {
                sink(v, inst.id);
            }
        }
    }

    /// The argument this spec sinks at a call to `decl`, if any.
    fn arg_of(&self, decl: &ExternDecl) -> Option<usize> {
        match self {
            SinkSpec::ExternArg { name, index } if decl.name == *name => Some(*index),
            SinkSpec::Effect { effect, index } if decl.effect == *effect => Some(*index),
            _ => None,
        }
    }
}

impl CustomChecker {
    /// Runs the checker over an analyzed module. `inference = Some(..)`
    /// slices the DDG minus Table 2's cut and enables the type guards.
    pub fn detect(
        &self,
        analysis: &ModuleAnalysis,
        inference: Option<&dyn TypeQuery>,
        config: SlicerConfig,
    ) -> Vec<CustomReport> {
        let cut = cut_set(analysis, inference);
        self.run(analysis, &cut, inference, config).0
    }

    /// The one source–sink driver: gathers this spec's sources and sinks,
    /// slices the DDG minus `cut`, and keeps the pairs no guard refutes.
    /// Returns them with the slicer's node visits (the Table 5 work
    /// metric).
    pub(crate) fn run(
        &self,
        analysis: &ModuleAnalysis,
        cut: &CutSet,
        inference: Option<&dyn TypeQuery>,
        config: SlicerConfig,
    ) -> (Vec<CustomReport>, usize) {
        let (module, ddg) = (analysis.module(), &analysis.ddg);
        let mut sources = Vec::new();
        // Later inserts win: a value used at several sites keeps the last.
        let mut sinks: HashMap<NodeId, (InstId, FuncId)> = HashMap::new();
        for func in module.functions() {
            let fid = func.id();
            self.sources.gather(module, func, ddg, cut, &mut sources);
            self.sinks.for_each(module, func, |v, site| {
                sinks.insert(ddg.node(VarRef::new(fid, v)), (site, fid));
            });
        }
        let types = inference.filter(|_| self.numeric_guard);
        let mut slicer = Slicer::new(ddg, cut, config);
        let pairs = slicer.slice(&sources, &sinks, |n| {
            types.is_none_or(|inf| !numeric(inf.precise_of(ddg.var(n))))
        });
        // A callee returning its caller's buffer is legal: a stack
        // address escapes only through its own frame's return.
        let same_frame =
            self.sources == SourceSpec::StackAddresses && self.sinks == SinkSpec::ReturnValues;
        // A return's site only attributes the sink; other sinks are
        // operands of their instruction.
        let sink_types = types.filter(|_| self.sinks != SinkSpec::ReturnValues);
        let reports: Vec<CustomReport> = pairs
            .iter()
            .filter_map(|p| {
                let (site, func) = sinks[&p.sink];
                let refuted = (same_frame && ddg.var(p.source).func != func)
                    || sink_types.is_some_and(|inf| numeric(inf.precise_at(ddg.var(p.sink), site)));
                (!refuted).then(|| CustomReport {
                    checker: self.name.clone(),
                    func,
                    source: p.source,
                    sink: p.sink,
                    sink_site: site,
                })
            })
            .collect();
        let refuted = pairs.len() - reports.len();
        manta_telemetry::counter("checker.alarms_raised", pairs.len() as u64);
        manta_telemetry::counter("checker.alarms_pruned", refuted as u64);
        manta_telemetry::counter("checker.slicer_visits", slicer.visits as u64);
        (reports, slicer.visits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta::{Manta, MantaConfig};
    use manta_ir::ModuleBuilder;

    /// A format-string-style checker: attacker-controlled data must not
    /// reach `printf_s`'s *format* argument (arg 0).
    fn fmt_checker() -> CustomChecker {
        CustomChecker {
            name: "FMT".into(),
            sources: SourceSpec::Effect(ExternEffect::TaintSource),
            sinks: SinkSpec::ExternArg {
                name: "printf_s".into(),
                index: 0,
            },
            numeric_guard: true,
        }
    }

    #[test]
    fn custom_checker_finds_taint_to_format_argument() {
        let mut mb = ModuleBuilder::new("m");
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let printf_s = mb.extern_fn("printf_s", &[], None);
        let (_, mut fb) = mb.function("log_config", &[], Some(Width::W32));
        let key = fb.alloca(8);
        let taint = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        // BUG: the tainted string is used as the format itself.
        let r = fb
            .call_extern(printf_s, &[taint, taint], Some(Width::W32))
            .unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let reports = fmt_checker().detect(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            SlicerConfig::default(),
        );
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].checker, "FMT");
    }

    #[test]
    fn numeric_guard_prunes_sanitized_flow() {
        let mut mb = ModuleBuilder::new("m");
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let atol = mb.extern_fn("atol", &[], None);
        let printf_s = mb.extern_fn("printf_s", &[], None);
        let printf_d = mb.extern_fn("printf_d", &[], None);
        let (_, mut fb) = mb.function("log_level", &[], Some(Width::W32));
        let key = fb.alloca(8);
        let taint = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let n = fb.call_extern(atol, &[taint], Some(Width::W64)).unwrap();
        let n2 = fb.copy(n);
        let fmt = fb.alloca(8);
        fb.call_extern(printf_d, &[fmt, n2], Some(Width::W32));
        // The "format" is an integer — type-infeasible.
        let r = fb
            .call_extern(printf_s, &[n2, n2], Some(Width::W32))
            .unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let typed = fmt_checker().detect(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            SlicerConfig::default(),
        );
        assert!(typed.is_empty(), "type guard must prune: {typed:?}");
        let untyped = fmt_checker().detect(&analysis, None, SlicerConfig::default());
        assert!(!untyped.is_empty(), "without types the flow is reported");
    }

    #[test]
    fn stack_address_sources_and_return_sinks_mirror_rsa() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("bad", &[], Some(Width::W64));
        let slot = fb.alloca(16);
        let alias = fb.copy(slot);
        fb.ret(Some(alias));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let checker = CustomChecker {
            name: "ESCAPE".into(),
            sources: SourceSpec::StackAddresses,
            sinks: SinkSpec::ReturnValues,
            numeric_guard: false,
        };
        let reports = checker.detect(&analysis, None, SlicerConfig::default());
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn a_callee_returning_its_callers_buffer_is_not_an_escape() {
        // `fill(p) { return p; }` handed the caller's alloca: the address
        // is returned by a frame that does not own it, which is legal.
        let mut mb = ModuleBuilder::new("m");
        let (fill, mut cb) = mb.function("fill", &[Width::W64], Some(Width::W64));
        let p = cb.param(0);
        cb.ret(Some(p));
        mb.finish_function(cb);
        let (_, mut fb) = mb.function("caller", &[], None);
        let local = fb.alloca(16);
        fb.call(fill, &[local], Some(Width::W64));
        fb.ret(None);
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let checker = CustomChecker {
            name: "ESCAPE".into(),
            sources: SourceSpec::StackAddresses,
            sinks: SinkSpec::ReturnValues,
            numeric_guard: false,
        };
        for types in [Some(&inference as &dyn TypeQuery), None] {
            let reports = checker.detect(&analysis, types, SlicerConfig::default());
            assert!(reports.is_empty(), "{reports:?}");
        }
    }

    #[test]
    fn a_sink_numeric_at_its_site_is_refuted() {
        // `vendor_exec(atol(s))`: the parsed integer is the source and the
        // sink at once, so only the sink guard sees its type.
        let mut mb = ModuleBuilder::new("m");
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let atol = mb.extern_fn("atol", &[], None);
        let exec = mb.extern_fn("vendor_exec", &[Width::W64], None);
        let (_, mut fb) = mb.function("run", &[], None);
        let key = fb.alloca(8);
        let s = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let n = fb.call_extern(atol, &[s], Some(Width::W64)).unwrap();
        fb.call_extern(exec, &[n], None);
        fb.ret(None);
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let checker = CustomChecker {
            name: "EXEC".into(),
            sources: SourceSpec::ExternReturn("atol".into()),
            sinks: SinkSpec::ExternArg {
                name: "vendor_exec".into(),
                index: 0,
            },
            numeric_guard: true,
        };
        let typed = checker.detect(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            SlicerConfig::default(),
        );
        assert!(typed.is_empty(), "{typed:?}");
        let untyped = checker.detect(&analysis, None, SlicerConfig::default());
        assert_eq!(untyped.len(), 1, "{untyped:?}");
    }

    #[test]
    fn null_constants_that_flow_nowhere_start_no_slice() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        fb.const_null();
        let v = fb.load(p, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let npd = crate::BugKind::Npd.spec().unwrap();
        let (reports, visits) =
            npd.run(&analysis, &CutSet::default(), None, SlicerConfig::default());
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(visits, 0);
    }
}
