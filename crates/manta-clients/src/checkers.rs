//! The five example bug checkers of §5.3: Null Pointer Dereference (NPD),
//! Return Stack Address (RSA), Use After Free (UAF), OS Command Injection
//! (CMI) and Buffer Overflow (BOF).
//!
//! NPD, RSA, CMI and BOF are source–sink specs ([`BugKind::spec`]) run by
//! the [`crate::custom`] driver: type-assisted Manta with an inference
//! result, the Manta-NoType ablation without one. UAF keeps its own
//! points-to/CFG detector.

use std::collections::HashSet;

use manta::TypeQuery;
use manta_analysis::{ModuleAnalysis, NodeId, VarRef};
use manta_ir::cfg::Cfg;
use manta_ir::{ExternEffect, FuncId, InstId};

use crate::custom::{self, CustomChecker, SinkSpec, SourceSpec};
use crate::slicing::SlicerConfig;

/// The vulnerability classes the example checkers cover.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BugKind {
    /// Null pointer dereference.
    Npd,
    /// Returning the address of a stack slot.
    Rsa,
    /// Use after free.
    Uaf,
    /// OS command injection (taint reaches `system`).
    Cmi,
    /// Buffer overflow (taint reaches an unbounded `strcpy`).
    Bof,
}

impl BugKind {
    /// All checkers, in the paper's order.
    pub const ALL: [BugKind; 5] = [
        BugKind::Npd,
        BugKind::Rsa,
        BugKind::Uaf,
        BugKind::Cmi,
        BugKind::Bof,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            BugKind::Npd => "NPD",
            BugKind::Rsa => "RSA",
            BugKind::Uaf => "UAF",
            BugKind::Cmi => "CMI",
            BugKind::Bof => "BOF",
        }
    }

    /// The source–sink spec of a slicing checker, or `None` for UAF. The
    /// extern registry's effects name the taint sources and the `system`
    /// and `strcpy` sinks.
    pub fn spec(self) -> Option<CustomChecker> {
        let taint = || SourceSpec::Effect(ExternEffect::TaintSource);
        let (sources, sinks) = match self {
            BugKind::Npd => (SourceSpec::NullConstants, SinkSpec::Dereferences),
            BugKind::Rsa => (SourceSpec::StackAddresses, SinkSpec::ReturnValues),
            BugKind::Uaf => return None,
            BugKind::Cmi => (
                taint(),
                SinkSpec::Effect {
                    effect: ExternEffect::CommandSink,
                    index: 0,
                },
            ),
            BugKind::Bof => (
                taint(),
                SinkSpec::Effect {
                    effect: ExternEffect::StrCopy,
                    index: 1,
                },
            ),
        };
        Some(CustomChecker {
            name: self.label().into(),
            sources,
            sinks,
            numeric_guard: true,
        })
    }
}

/// One reported bug.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BugReport {
    /// The vulnerability class.
    pub kind: BugKind,
    /// Function containing the sink.
    pub func: FuncId,
    /// Slice source node.
    pub source: NodeId,
    /// Slice sink node.
    pub sink: NodeId,
    /// The sink instruction.
    pub sink_site: InstId,
}

/// Detection configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckerConfig {
    /// Slicer limits.
    pub slicer: SlicerConfig,
}

/// Runs the requested checkers. `inference = Some(..)` is type-assisted
/// Manta; `None` is the Manta-NoType ablation. Returns the reports plus the
/// number of slicer node visits (the work metric).
pub fn detect_bugs(
    analysis: &ModuleAnalysis,
    inference: Option<&dyn TypeQuery>,
    kinds: &[BugKind],
    config: CheckerConfig,
) -> (Vec<BugReport>, usize) {
    manta_telemetry::span!("checkers");
    let cut = custom::cut_set(analysis, inference);
    let mut reports = Vec::new();
    let mut visits = 0;
    for &kind in kinds {
        let Some(spec) = kind.spec() else {
            let uaf = detect_uaf(analysis);
            manta_telemetry::counter("checker.alarms_raised", uaf.len() as u64);
            reports.extend(uaf);
            continue;
        };
        let (found, v) = spec.run(analysis, &cut, inference, config.slicer);
        visits += v;
        reports.extend(found.into_iter().map(|r| BugReport {
            kind,
            func: r.func,
            source: r.source,
            sink: r.sink,
            sink_site: r.sink_site,
        }));
    }
    reports.sort_by_key(|r| (r.kind, r.func, r.sink_site, r.source));
    reports.dedup();
    (reports, visits)
}

/// UAF is detected directly on points-to + CFG order: a `free(p)` followed
/// (in control flow) by a dereference whose address may alias `p`.
fn detect_uaf(analysis: &ModuleAnalysis) -> Vec<BugReport> {
    const FREES: SinkSpec = SinkSpec::Effect {
        effect: ExternEffect::FreeHeap,
        index: 0,
    };
    let module = analysis.module();
    let pts = &analysis.pointsto;
    let ddg = &analysis.ddg;
    let mut reports = Vec::new();
    for func in module.functions() {
        let fid = func.id();
        let mut frees = Vec::new();
        FREES.for_each(module, func, |p, site| frees.push((site, p)));
        if frees.is_empty() {
            continue;
        }
        let cfg = Cfg::new(func);
        let mut derefs = Vec::new();
        SinkSpec::Dereferences.for_each(module, func, |a, site| derefs.push((site, a)));
        for (free_site, p) in frees {
            let free_block = func.inst(free_site).block;
            for &(deref_site, a) in &derefs {
                if !pts.may_alias(VarRef::new(fid, p), VarRef::new(fid, a)) {
                    continue;
                }
                let deref_block = func.inst(deref_site).block;
                let after = if free_block == deref_block {
                    // Same block: instruction order decides.
                    let mut insts = func.block(free_block).insts.iter();
                    insts.any(|&i| i == free_site) && insts.any(|&i| i == deref_site)
                } else {
                    block_reaches(&cfg, free_block, deref_block)
                };
                if after {
                    reports.push(BugReport {
                        kind: BugKind::Uaf,
                        func: fid,
                        source: ddg.node(VarRef::new(fid, p)),
                        sink: ddg.node(VarRef::new(fid, a)),
                        sink_site: deref_site,
                    });
                }
            }
        }
    }
    reports
}

fn block_reaches(cfg: &Cfg, from: manta_ir::BlockId, to: manta_ir::BlockId) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![from];
    while let Some(b) = stack.pop() {
        if !seen.insert(b) {
            continue;
        }
        for &s in cfg.succs(b) {
            if s == to {
                return true;
            }
            stack.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta::{Manta, MantaConfig};
    use manta_ir::{BinOp, CmpPred, ModuleBuilder, Width};

    fn run(m: manta_ir::Module, kinds: &[BugKind], typed: bool) -> Vec<BugReport> {
        let analysis = ModuleAnalysis::build(m);
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let inf: Option<&dyn TypeQuery> = if typed { Some(&inference) } else { None };
        detect_bugs(&analysis, inf, kinds, CheckerConfig::default()).0
    }

    #[test]
    fn npd_detects_null_flow_to_deref() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[Width::W1], Some(Width::W64));
        let c = fb.param(0);
        let null = fb.const_null();
        let slot = fb.alloca(8);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.store(slot, null);
        fb.br(j);
        fb.switch_to(e);
        let buf = fb.alloca(16);
        fb.store(slot, buf);
        fb.br(j);
        fb.switch_to(j);
        let p = fb.load(slot, Width::W64);
        let v = fb.load(p, Width::W64); // deref of possibly-null p
        fb.ret(Some(v));
        mb.finish_function(fb);
        let reports = run(mb.finish(), &[BugKind::Npd], true);
        assert!(
            reports.iter().any(|r| r.kind == BugKind::Npd),
            "true NPD must be reported: {reports:?}"
        );
    }

    #[test]
    fn npd_reports_a_direct_null_dereference() {
        // `v = load null`: the constant is the address itself, with no
        // value-flow child to start a slice from.
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[], Some(Width::W64));
        let null = fb.const_null();
        let v = fb.load(null, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let inference = Manta::new(MantaConfig::full()).infer(&analysis);
        let null_node = analysis.ddg.node(VarRef::new(fid, null));
        let reports = detect_bugs(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            &[BugKind::Npd],
            CheckerConfig::default(),
        )
        .0;
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(
            (reports[0].kind, reports[0].source),
            (BugKind::Npd, null_node)
        );
        let spec = BugKind::Npd.spec().expect("NPD is a slicing checker");
        let custom = spec.detect(
            &analysis,
            Some(&inference as &dyn TypeQuery),
            SlicerConfig::default(),
        );
        assert_eq!(custom.len(), 1, "{custom:?}");
        assert_eq!((custom[0].source, custom[0].sink), (null_node, null_node));
    }

    #[test]
    fn a_long_flow_slices_on_a_small_stack() {
        // 100,000 copies from a null constant to a dereference: the walk
        // keeps its path on the heap, so the test thread's 2 MiB stack
        // does not bound the flow's length.
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("f", &[], Some(Width::W64));
        let mut v = fb.const_null();
        for _ in 0..100_000 {
            v = fb.copy(v);
        }
        let x = fb.load(v, Width::W64);
        fb.ret(Some(x));
        mb.finish_function(fb);
        let analysis = ModuleAnalysis::build(mb.finish());
        let (reports, visits) =
            detect_bugs(&analysis, None, &[BugKind::Npd], CheckerConfig::default());
        assert_eq!((reports.len(), visits), (1, 100_001), "{reports:?}");
    }

    #[test]
    fn npd_false_positive_pruned_by_types() {
        // Figure 4's shape: `pchr = s + offset` where offset is reachable
        // from constant 0 — without types the 0 "flows" into the deref.
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("parse", &[Width::W64, Width::W1], Some(Width::W64));
        let s = fb.param(0);
        let c = fb.param(1);
        let zero = fb.const_int(0, Width::W64);
        let off_slot = fb.alloca(8);
        fb.store(off_slot, zero);
        let t = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, j);
        fb.switch_to(t);
        let one = fb.const_int(1, Width::W64);
        let adj = fb.binop(BinOp::Mul, one, one, Width::W64); // numeric reveal
        fb.store(off_slot, adj);
        fb.br(j);
        fb.switch_to(j);
        let off = fb.load(off_slot, Width::W64);
        let two = fb.const_int(2, Width::W64);
        let off2 = fb.binop(BinOp::Mul, off, two, Width::W64); // off revealed numeric
        let pchr = fb.binop(BinOp::Add, s, off2, Width::W64);
        let v = fb.load(pchr, Width::W64);
        fb.ret(Some(v));
        mb.finish_function(fb);
        let m = mb.finish();

        let untyped = run(m.clone(), &[BugKind::Npd], false);
        assert!(
            untyped.iter().any(|r| r.kind == BugKind::Npd),
            "NoType mode reports the false NPD through the offset"
        );
        let typed = run(m, &[BugKind::Npd], true);
        assert!(
            typed.is_empty(),
            "Table 2 pruning removes offset→pchr, killing the FP: {typed:?}"
        );
    }

    #[test]
    fn rsa_detects_escaping_stack_address() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("bad", &[], Some(Width::W64));
        let slot = fb.alloca(32);
        let p = fb.copy(slot);
        fb.ret(Some(p));
        mb.finish_function(fb);
        let reports = run(mb.finish(), &[BugKind::Rsa], true);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::Rsa);
    }

    #[test]
    fn rsa_ignores_caller_owned_buffers() {
        // Returning a pointer the caller passed in is fine.
        let mut mb = ModuleBuilder::new("m");
        let (callee, mut cb) = mb.function("fill", &[Width::W64], Some(Width::W64));
        let buf = cb.param(0);
        cb.ret(Some(buf));
        mb.finish_function(cb);
        let (_, mut fb) = mb.function("caller", &[], Some(Width::W64));
        let local = fb.alloca(16);
        let r = fb.call(callee, &[local], Some(Width::W64)).unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let reports = run(mb.finish(), &[BugKind::Rsa], true);
        // caller returns its own alloca — that *is* a bug; fill is clean.
        assert!(reports.iter().all(|r| { r.kind == BugKind::Rsa }));
        let analysis_names: Vec<_> = reports.iter().map(|r| r.func.index()).collect();
        assert!(!analysis_names.contains(&0), "fill must not be blamed");
    }

    #[test]
    fn uaf_requires_control_flow_order() {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let free = mb.extern_fn("free", &[], None);
        let (_, mut fb) = mb.function("f", &[], Some(Width::W64));
        let k = fb.const_int(16, Width::W64);
        let p = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let before = fb.load(p, Width::W64); // use BEFORE free: fine
        fb.call_extern(free, &[p], None);
        let after = fb.load(p, Width::W64); // use AFTER free: UAF
        let s = fb.binop(BinOp::Add, before, after, Width::W64);
        fb.ret(Some(s));
        mb.finish_function(fb);
        let reports = run(mb.finish(), &[BugKind::Uaf], true);
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn cmi_taint_to_system_detected_and_atoi_pruned() {
        let mut mb = ModuleBuilder::new("m");
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let system = mb.extern_fn("system", &[], None);
        let atoi = mb.extern_fn("atoi", &[], None);

        // Direct taint → system: true bug.
        let (_, mut fb) = mb.function("direct", &[], Some(Width::W32));
        let key = fb.alloca(8);
        let taint = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let r = fb.call_extern(system, &[taint], Some(Width::W32)).unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);

        // taint → atoi → (int) → system-like use: infeasible command.
        let (_, mut gb) = mb.function("converted", &[], Some(Width::W32));
        let key = gb.alloca(8);
        let taint = gb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let n = gb.call_extern(atoi, &[taint], Some(Width::W32)).unwrap();
        let n64 = gb.copy(n);
        let widened = gb.binop(BinOp::Mul, n64, n64, Width::W32);
        let _cmp = gb.cmp(CmpPred::Gt, widened, n);
        let r = gb.call_extern(system, &[n64], Some(Width::W32)).unwrap();
        fb_unused(&mut gb);
        gb.ret(Some(r));
        mb.finish_function(gb);

        let m = mb.finish();
        let untyped = run(m.clone(), &[BugKind::Cmi], false);
        assert_eq!(untyped.len(), 2, "NoType reports both: {untyped:?}");
        let typed = run(m, &[BugKind::Cmi], true);
        assert_eq!(
            typed.len(),
            1,
            "types prune the int-typed command: {typed:?}"
        );
    }

    fn fb_unused(_: &mut manta_ir::FunctionBuilder) {}

    #[test]
    fn bof_taint_to_strcpy() {
        let mut mb = ModuleBuilder::new("m");
        let nvram = mb.extern_fn("nvram_get", &[], None);
        let strcpy = mb.extern_fn("strcpy", &[], None);
        let (_, mut fb) = mb.function("f", &[], None);
        let key = fb.alloca(8);
        let taint = fb.call_extern(nvram, &[key], Some(Width::W64)).unwrap();
        let buf = fb.alloca(16);
        fb.call_extern(strcpy, &[buf, taint], Some(Width::W64));
        fb.ret(None);
        mb.finish_function(fb);
        let reports = run(mb.finish(), &[BugKind::Bof], true);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::Bof);
    }
}
