//! §3 pre-processing: acyclic CFGs and an acyclic call graph.
//!
//! > "To ensure the analysis scalability, we pre-process the lifted IR to be
//! > acyclic by unrolling each loop in the control flow graph (CFG) and the
//! > call graph, following the existing bug-finding tools."
//!
//! Loops are unrolled by cloning the whole body of a cyclic function
//! [`PreprocessConfig::unroll_factor`] times: forward edges stay within a
//! copy, each back edge is redirected to the loop head in the *next* copy,
//! and back edges leaving the final copy are cut (redirected to an
//! `unreachable` stub). This is a well-identified *unsound* choice the
//! paper makes deliberately — paths beyond `unroll_factor` iterations are
//! not analyzed.
//!
//! Recursion is handled by breaking back edges on the call graph: the
//! offending call *edges* are recorded in [`Preprocessed::broken_call_edges`]
//! and ignored by the call graph, points-to analysis and DDG construction.

use std::collections::{HashMap, HashSet};

use manta_ir::cfg::Cfg;
use manta_ir::{
    BlockId, Callee, FuncId, Function, InstId, InstKind, Module, Terminator, Value, ValueId,
    ValueKind,
};

/// Tuning knobs for pre-processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PreprocessConfig {
    /// How many times loop bodies are replicated. The paper unrolls twice.
    pub unroll_factor: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig { unroll_factor: 2 }
    }
}

/// Summary counters from pre-processing, reported by the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PreprocessStats {
    /// Functions that contained at least one CFG cycle.
    pub cyclic_functions: usize,
    /// Back edges removed across all functions.
    pub back_edges_cut: usize,
    /// Recursive call edges broken on the call graph.
    pub recursive_calls_broken: usize,
}

/// The result of pre-processing: an acyclic module plus bookkeeping.
#[derive(Debug)]
pub struct Preprocessed {
    /// The transformed module; every function CFG is acyclic.
    pub module: Module,
    /// Call instructions whose call edge was broken to acyclify the call
    /// graph. Interprocedural analyses must treat these as opaque.
    pub broken_call_edges: HashSet<(FuncId, InstId)>,
    /// Counters.
    pub stats: PreprocessStats,
    /// The configuration used.
    pub config: PreprocessConfig,
}

impl Preprocessed {
    /// Whether the call at `(func, inst)` had its edge broken.
    pub fn is_broken_call(&self, func: FuncId, inst: InstId) -> bool {
        self.broken_call_edges.contains(&(func, inst))
    }
}

/// Runs pre-processing on `module`.
pub fn preprocess(mut module: Module, config: PreprocessConfig) -> Preprocessed {
    let mut stats = PreprocessStats::default();

    // 1. Unroll cyclic CFGs. A function whose branches all go to higher
    // block numbers has no cycle, so only the others get a CFG. Each
    // function unrolls independently of every other, so the rewriting
    // fans out across the pool; the results are grafted back in function
    // order, which keeps stats and module layout identical to a serial
    // pass.
    let candidates: Vec<FuncId> = module
        .functions()
        .filter(|f| !branches_only_forward(f))
        .map(Function::id)
        .collect();
    let module_ref = &module;
    let unrolled: Vec<Option<(FuncId, usize, Function)>> =
        manta_parallel::par_map(candidates, |f| {
            let func = module_ref.function(f);
            let cfg = Cfg::new(func);
            let back_edges = cfg.back_edges();
            if back_edges.is_empty() {
                return None;
            }
            let cut = back_edges.len();
            Some((
                f,
                cut,
                unroll_function(func, &cfg, config.unroll_factor.max(1)),
            ))
        });
    for (f, cut, rewritten) in unrolled.into_iter().flatten() {
        stats.cyclic_functions += 1;
        stats.back_edges_cut += cut;
        *module.function_mut(f) = rewritten;
        debug_assert!(
            !Cfg::new(module.function(f)).has_cycle(),
            "unrolling must produce an acyclic CFG"
        );
    }

    // 2. Break call-graph back edges (recursion).
    let broken = break_recursion(&module);
    stats.recursive_calls_broken = broken.len();
    manta_telemetry::counter("preprocess.recursive_calls_broken", broken.len() as u64);
    manta_telemetry::counter("preprocess.cyclic_functions", stats.cyclic_functions as u64);
    manta_telemetry::counter("preprocess.back_edges_cut", stats.back_edges_cut as u64);

    Preprocessed {
        module,
        broken_call_edges: broken,
        stats,
        config,
    }
}

/// Whether every branch of `func` goes to a block with a higher id than
/// its own. Such a CFG has no cycle, reachable or not.
fn branches_only_forward(func: &Function) -> bool {
    func.blocks().all(|b| match b.term {
        Terminator::Br(t) => t > b.id,
        Terminator::CondBr {
            then_bb, else_bb, ..
        } => then_bb > b.id && else_bb > b.id,
        Terminator::Ret(_) | Terminator::Unreachable => true,
    })
}

/// Clones the body of `func` `k` times, redirecting back edges forward
/// through the copies. Copy 0 keeps the original block/value numbering for
/// its own blocks where possible.
fn unroll_function(func: &Function, cfg: &Cfg, k: usize) -> Function {
    let back: HashSet<(BlockId, BlockId)> = cfg.back_edges().into_iter().collect();
    let param_widths: Vec<_> = func.params().iter().map(|&p| func.value(p).width).collect();
    let mut out = Function::new(
        func.id(),
        func.name().to_string(),
        &param_widths,
        func.ret_width(),
    );
    out.set_address_taken(func.is_address_taken());

    // Map (copy, old block) -> new block. Copy 0 of the entry is the new
    // entry; everything else is appended in a deterministic order.
    let mut block_map: HashMap<(usize, BlockId), BlockId> = HashMap::new();
    block_map.insert((0, func.entry()), out.entry());
    for c in 0..k {
        for b in func.blocks() {
            block_map
                .entry((c, b.id))
                .or_insert_with(|| out.add_block());
        }
    }
    // Stub target for back edges leaving the last copy.
    let exhausted = out.add_block();
    out.replace_terminator(exhausted, Terminator::Unreachable);

    // Determine the instruction push order up front so instruction-defined
    // values can be created with their final `InstId` before emission.
    let mut push_order: Vec<(usize, InstId)> = Vec::new();
    for c in 0..k {
        for b in func.blocks() {
            for &i in &b.insts {
                push_order.push((c, i));
            }
        }
    }
    let new_inst_id: HashMap<(usize, InstId), InstId> = push_order
        .iter()
        .enumerate()
        .map(|(n, &key)| (key, InstId::from_index(n)))
        .collect();

    // Map (copy, old value) -> new value.
    let mut value_map: HashMap<(usize, ValueId), ValueId> = HashMap::new();
    for c in 0..k {
        for (v, data) in func.values() {
            let new_v = match data.kind {
                ValueKind::Param { index } => out.params()[index as usize],
                ValueKind::Inst { def } => out.add_value(Value {
                    kind: ValueKind::Inst {
                        def: new_inst_id[&(c, def)],
                    },
                    width: data.width,
                }),
                other => out.add_value(Value {
                    kind: other,
                    width: data.width,
                }),
            };
            value_map.insert((c, v), new_v);
        }
    }

    // Emit instructions.
    for &(c, i) in &push_order {
        let inst = func.inst(i);
        let old_block = inst.block;
        let nb = block_map[&(c, old_block)];
        let m = |v: ValueId| value_map[&(c, v)];
        let kind = match &inst.kind {
            InstKind::Copy { dst, src } => InstKind::Copy {
                dst: m(*dst),
                src: m(*src),
            },
            InstKind::Phi { dst, incomings } => {
                let mut incs = Vec::new();
                for (p, v) in incomings {
                    if back.contains(&(*p, old_block)) {
                        if c > 0 {
                            incs.push((block_map[&(c - 1, *p)], value_map[&(c - 1, *v)]));
                        }
                        // c == 0: the back-edge predecessor no longer reaches
                        // this copy; drop the incoming.
                    } else {
                        incs.push((block_map[&(c, *p)], m(*v)));
                    }
                }
                if incs.is_empty() {
                    // Degenerate phi (head with only back-edge incomings);
                    // keep SSA shape with a copy of the first original value.
                    let (_, v0) = incomings[0];
                    InstKind::Copy {
                        dst: m(*dst),
                        src: m(v0),
                    }
                } else {
                    InstKind::Phi {
                        dst: m(*dst),
                        incomings: incs,
                    }
                }
            }
            InstKind::Load { dst, addr, width } => InstKind::Load {
                dst: m(*dst),
                addr: m(*addr),
                width: *width,
            },
            InstKind::Store { addr, val } => InstKind::Store {
                addr: m(*addr),
                val: m(*val),
            },
            InstKind::Alloca { dst, size } => InstKind::Alloca {
                dst: m(*dst),
                size: *size,
            },
            InstKind::Gep { dst, base, offset } => InstKind::Gep {
                dst: m(*dst),
                base: m(*base),
                offset: *offset,
            },
            InstKind::BinOp { op, dst, lhs, rhs } => InstKind::BinOp {
                op: *op,
                dst: m(*dst),
                lhs: m(*lhs),
                rhs: m(*rhs),
            },
            InstKind::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => InstKind::Cmp {
                dst: m(*dst),
                pred: *pred,
                lhs: m(*lhs),
                rhs: m(*rhs),
            },
            InstKind::Call { dst, callee, args } => InstKind::Call {
                dst: dst.map(m),
                callee: match callee {
                    Callee::Indirect(v) => Callee::Indirect(m(*v)),
                    other => *other,
                },
                args: args.iter().map(|&a| m(a)).collect(),
            },
        };
        let pushed = out.append_inst(nb, kind);
        debug_assert_eq!(pushed, new_inst_id[&(c, i)]);
    }

    // Emit terminators with back edges redirected across copies.
    for c in 0..k {
        for b in func.blocks() {
            let nb = block_map[&(c, b.id)];
            let map_target = |s: BlockId| -> BlockId {
                if back.contains(&(b.id, s)) {
                    if c + 1 < k {
                        block_map[&(c + 1, s)]
                    } else {
                        exhausted
                    }
                } else {
                    block_map[&(c, s)]
                }
            };
            let m = |v: ValueId| value_map[&(c, v)];
            let term = match &b.term {
                Terminator::Br(t) => Terminator::Br(map_target(*t)),
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => Terminator::CondBr {
                    cond: m(*cond),
                    then_bb: map_target(*then_bb),
                    else_bb: map_target(*else_bb),
                },
                Terminator::Ret(v) => Terminator::Ret(v.map(m)),
                Terminator::Unreachable => Terminator::Unreachable,
            };
            out.replace_terminator(nb, term);
        }
    }
    out
}

/// Finds a set of direct-call edges whose removal makes the call graph
/// acyclic, via DFS back-edge detection.
fn break_recursion(module: &Module) -> HashSet<(FuncId, InstId)> {
    // Direct call edges (callee and site), grouped by caller: function
    // `f`'s are `edges[start[f]..start[f + 1]]`.
    let n = module.function_count();
    let mut start = Vec::with_capacity(n + 1);
    let mut edges: Vec<(FuncId, InstId)> = Vec::new();
    for f in module.functions() {
        start.push(edges.len());
        for inst in f.insts() {
            if let InstKind::Call {
                callee: Callee::Direct(target),
                ..
            } = &inst.kind
            {
                edges.push((*target, inst.id));
            }
        }
    }
    start.push(edges.len());

    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unvisited,
        Active,
        Done,
    }
    let mut state = vec![State::Unvisited; n];
    let mut broken = HashSet::new();
    // The DFS path: each function with the index of its next edge.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if state[root] != State::Unvisited {
            continue;
        }
        stack.push((root, start[root]));
        state[root] = State::Active;
        while let Some(&mut (f, ref mut next)) = stack.last_mut() {
            if *next < start[f + 1] {
                let (callee, site) = edges[*next];
                *next += 1;
                match state[callee.index()] {
                    State::Active => {
                        broken.insert((FuncId::from_index(f), site));
                    }
                    State::Unvisited => {
                        state[callee.index()] = State::Active;
                        stack.push((callee.index(), start[callee.index()]));
                    }
                    State::Done => {}
                }
            } else {
                state[f] = State::Done;
                stack.pop();
            }
        }
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;
    use manta_ir::verify::verify_module;
    use manta_ir::{CmpPred, ModuleBuilder, Width};

    /// A counting loop: `while (n > 0) { n -= 1; }` plus a live phi.
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("count", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let entry = fb.current_block();
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let dec_placeholder = fb.const_int(1, Width::W64);
        let n = fb.phi(&[(entry, p), (body, dec_placeholder)], Width::W64);
        let zero = fb.const_int(0, Width::W64);
        let c = fb.cmp(CmpPred::Gt, n, zero);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let one = fb.const_int(1, Width::W64);
        let dec = fb.binop(manta_ir::BinOp::Sub, n, one, Width::W64);
        let _ = dec; // the phi references dec_placeholder for simplicity
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(n));
        mb.finish_function(fb);
        mb.finish()
    }

    #[test]
    fn unrolling_makes_cfg_acyclic() {
        let pre = preprocess(loop_module(), PreprocessConfig::default());
        verify_module(&pre.module).unwrap();
        for f in pre.module.functions() {
            assert!(
                !Cfg::new(f).has_cycle(),
                "function {} still cyclic",
                f.name()
            );
        }
        assert_eq!(pre.stats.cyclic_functions, 1);
        assert_eq!(pre.stats.back_edges_cut, 1);
    }

    #[test]
    fn unroll_factor_scales_block_count() {
        let m1 = preprocess(loop_module(), PreprocessConfig { unroll_factor: 1 });
        let m3 = preprocess(loop_module(), PreprocessConfig { unroll_factor: 3 });
        let b1 = m1.module.function_by_name("count").unwrap().block_count();
        let b3 = m3.module.function_by_name("count").unwrap().block_count();
        assert!(b3 > b1);
        // 4 original blocks × factor + 1 exhausted stub.
        assert_eq!(b1, 4 + 1);
        assert_eq!(b3, 12 + 1);
    }

    #[test]
    fn only_a_backward_branch_can_close_a_cycle() {
        let m = loop_module();
        assert!(!branches_only_forward(m.function_by_name("count").unwrap()));

        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("diamond", &[Width::W1], None);
        let c = fb.param(0);
        let (left, right, join) = (fb.new_block(), fb.new_block(), fb.new_block());
        fb.cond_br(c, left, right);
        fb.switch_to(left);
        fb.br(join);
        fb.switch_to(right);
        fb.br(join);
        fb.switch_to(join);
        fb.ret(None);
        mb.finish_function(fb);
        let m = mb.finish();
        let diamond = m.function_by_name("diamond").unwrap();
        assert!(branches_only_forward(diamond));
        assert!(Cfg::new(diamond).back_edges().is_empty());
        let pre = preprocess(m, PreprocessConfig::default());
        assert_eq!(pre.stats, PreprocessStats::default());
    }

    #[test]
    fn acyclic_function_untouched() {
        let mut mb = ModuleBuilder::new("m");
        let (_, mut fb) = mb.function("straight", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        fb.ret(Some(p));
        mb.finish_function(fb);
        let m = mb.finish();
        let before = m.function_by_name("straight").unwrap().block_count();
        let pre = preprocess(m, PreprocessConfig::default());
        assert_eq!(
            pre.module
                .function_by_name("straight")
                .unwrap()
                .block_count(),
            before
        );
        assert_eq!(pre.stats.cyclic_functions, 0);
    }

    #[test]
    fn breaks_direct_recursion() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("rec", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let r = fb.call(fid, &[p], Some(Width::W64)).unwrap();
        fb.ret(Some(r));
        mb.finish_function(fb);
        let pre = preprocess(mb.finish(), PreprocessConfig::default());
        assert_eq!(pre.stats.recursive_calls_broken, 1);
        let f = pre.module.function_by_name("rec").unwrap();
        let site = f.insts().next().unwrap().id;
        assert!(pre.is_broken_call(f.id(), site));
    }

    #[test]
    fn breaks_mutual_recursion_but_not_all_edges() {
        let mut mb = ModuleBuilder::new("m");
        let (fa, mut ba) = mb.function("a", &[], None);
        let (fb_, mut bb) = mb.function("b", &[], None);
        ba.call(fb_, &[], None);
        ba.ret(None);
        mb.finish_function(ba);
        bb.call(fa, &[], None);
        bb.ret(None);
        mb.finish_function(bb);
        let pre = preprocess(mb.finish(), PreprocessConfig::default());
        // Exactly one of the two edges must be cut.
        assert_eq!(pre.stats.recursive_calls_broken, 1);
    }

    #[test]
    fn unrolled_loop_preserves_verifier_invariants() {
        for k in 1..=4 {
            let pre = preprocess(loop_module(), PreprocessConfig { unroll_factor: k });
            verify_module(&pre.module).unwrap();
        }
    }
}
