//! The paper's two motivating examples (§2.2, Figures 3 and 4), written as
//! IR text and asserted to behave exactly as the paper describes under
//! each sensitivity.

use manta::{Manta, MantaConfig, Sensitivity, TypeQuery, VarClass};
use manta_analysis::{ModuleAnalysis, VarRef};
use manta_clients::{detect_bugs, BugKind, CheckerConfig};
use manta_ir::parser::parse_module;

/// Figure 3: a union instantiated as int64 on one branch and char* on the
/// other, each printed accordingly, with two indirect call sites.
const FIGURE3: &str = r#"
module figure3
extern printf_d, 2, ret
extern printf_s, 2, ret
extern malloc, 1, ret

func tint(1) -> ret {
    salloc r2, 8
    mov r2, r1
    ecall printf_d, 2
    ret
}

func tstr(1) -> ret {
    mov r2, r1
    salloc r1, 8
    ecall printf_s, 2
    ret
}

func branches(2) -> ret {
    salloc r7, 8          ; the union slot v
    brz r2, elsebr
    movi r3, 41
    st.w64 [r7+0], r3     ; v.i = 41
    ld.w64 r4, [r7+0]
    salloc r2, 8
    mov r1, r4
    mov r2, r1
    salloc r1, 8
    ecall printf_d, 2
    lea.f r5, tint
    ld.w64 r1, [r7+0]
    icall r5, 1, ret
    jmp done
elsebr:
    movi r1, 24
    ecall malloc, 1
    st.w64 [r7+0], r0     ; v.s = malloc(..)
    ld.w64 r4, [r7+0]
    mov r2, r4
    salloc r1, 8
    ecall printf_s, 2
    lea.f r6, tstr
    ld.w64 r1, [r7+0]
    icall r6, 1, ret
done:
    ret
}
"#;

fn fig3_analysis() -> ModuleAnalysis {
    let image = manta_isa::assemble(FIGURE3).expect("assembles");
    let module = manta_isa::lift::lift(&image).expect("lifts");
    ModuleAnalysis::build(module)
}

#[test]
fn figure3_flow_insensitive_over_approximates_the_union() {
    let analysis = fig3_analysis();
    let fi = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
    // The values loaded from the union slot merge int64 and char*.
    let f = analysis.module().function_by_name("branches").unwrap();
    let mut loads_over = 0;
    for inst in f.insts() {
        if let manta_ir::InstKind::Load { dst, .. } = inst.kind {
            if fi.class_of(VarRef::new(f.id(), dst)) == VarClass::Over {
                loads_over += 1;
            }
        }
    }
    assert!(
        loads_over >= 2,
        "union loads must be over-approximated under FI"
    );
}

#[test]
fn figure3_full_cascade_types_each_branch() {
    let analysis = fig3_analysis();
    let full = Manta::new(MantaConfig::full()).infer(&analysis);
    let f = analysis.module().function_by_name("branches").unwrap();
    // Each icall's argument resolves per its own branch at the call site.
    let mut precise = Vec::new();
    for inst in f.insts() {
        if let manta_ir::InstKind::Call {
            callee: manta_ir::Callee::Indirect(_),
            args,
            ..
        } = &inst.kind
        {
            let v = VarRef::new(f.id(), args[0]);
            if let Some(t) = full.precise_at(v, inst.id) {
                precise.push(t);
            }
        }
    }
    assert_eq!(
        precise.len(),
        2,
        "both icall args should be precise at their sites"
    );
    assert!(
        precise.iter().any(|t| t.is_numeric()),
        "int branch: {precise:?}"
    );
    assert!(
        precise.iter().any(|t| t.is_pointer()),
        "ptr branch: {precise:?}"
    );
}

/// Figure 4: `parsestr(s, ...)`: s printed in a guard branch, and
/// `pchr = s + offset` dereferenced on the other path — the false NPD the
/// type-based pruning removes.
const FIGURE4: &str = r#"
module figure4
func checkstr(w64) -> w64 {
bb0:
  v0 = load.w8 p0
  ret v0
}

func parsestr(w64, w1) -> w64 {
bb0:
  v0 = alloca 8
  store v0, 0:i64
  condbr p1, bb1, bb2
bb1:
  v1 = phi.w64 [bb0: p0]
  v2 = call.w32 !printf_s(v1, p0)
  ret 0:i64
bb2:
  v3 = mul.w64 2:i64, 3:i64
  store v0, v3
  v4 = load.w64 v0
  v5 = add.w64 p0, v4
  v6 = call.w64 @checkstr(v5)
  ret v6
}
"#;

fn fig4_module() -> manta_ir::Module {
    let mut text = String::from(FIGURE4);
    // Register the extern used above.
    text = text.replace(
        "module figure4",
        "module figure4\nextern printf_s(w64, w64) -> w32",
    );
    parse_module(&text).expect("parses")
}

#[test]
fn figure4_flow_sensitive_alone_misses_the_parameter() {
    let analysis = ModuleAnalysis::build(fig4_module());
    let fs = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fs)).infer(&analysis);
    let full = Manta::new(MantaConfig::full()).infer(&analysis);
    let f = analysis.module().function_by_name("parsestr").unwrap();
    let s = VarRef::new(f.id(), f.params()[0]);
    // The hybrid cascade types `s` as a pointer (the printf_s hint is
    // captured globally even though it sits on the opposite branch).
    let t = full.precise_type(s).expect("hybrid types s");
    assert!(t.is_pointer(), "s should be a pointer, got {t}");
    // Standalone flow-sensitive inference cannot do better than the
    // hybrid: its hint set for `s` is branch-limited.
    assert!(
        fs.precise_type(s).map(|t| t.is_pointer()).unwrap_or(true),
        "FS must not contradict the pointer type"
    );
}

#[test]
fn figure4_type_pruning_removes_the_false_npd() {
    let analysis = ModuleAnalysis::build(fig4_module());
    let inference = Manta::new(MantaConfig::full()).infer(&analysis);
    let (untyped, _) = detect_bugs(&analysis, None, &[BugKind::Npd], CheckerConfig::default());
    assert!(
        !untyped.is_empty(),
        "without types the 0-offset flows into the dereference (false NPD)"
    );
    let (typed, _) = detect_bugs(
        &analysis,
        Some(&inference as &dyn TypeQuery),
        &[BugKind::Npd],
        CheckerConfig::default(),
    );
    assert!(
        typed.is_empty(),
        "Table 2 pruning removes the offset edge: {typed:?}"
    );
}

/// Runs the full cascade with provenance recording and returns the graph.
fn prov_graph(analysis: &ModuleAnalysis) -> manta::provenance::ProvenanceGraph {
    let engine = manta::Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .build()
        .expect("cacheless engine cannot fail to build");
    let (_, graph) = engine
        .analyze_explained(analysis)
        .expect("non-strict cannot fail");
    graph.expect("provenance-enabled engine returns a graph")
}

/// `manta explain` acceptance on Figure 3: the union-juggling function's
/// variables carry derivation trees that bottom out at reveal leaves.
#[test]
fn figure3_explain_derives_the_union_variables() {
    let analysis = fig3_analysis();
    let graph = prov_graph(&analysis);
    let module = analysis.module();
    // Sweep the function's printable names (`manta lift` tokens): at
    // least one variable must explain, and at least one must carry a
    // multi-step derivation (a stage fact stacked on reveal leaves).
    let mut explained = 0;
    let mut derived = 0;
    let mut revealed = 0;
    let tokens: Vec<String> = (0..4)
        .map(|n| format!("p{n}"))
        .chain((0..16).map(|n| format!("v{n}")))
        .collect();
    for token in &tokens {
        let Some(v) = manta::provenance::resolve_var(module, "branches", token) else {
            continue;
        };
        if let Some(t) = graph.render_explain(module, v, None) {
            assert!(t.contains(&format!("branches:{token}")), "{t}");
            explained += 1;
            if t.lines().count() >= 2 {
                derived += 1;
            }
            if t.contains("reveal") {
                revealed += 1;
            }
        }
    }
    assert!(explained > 0, "some variable in `branches` must explain");
    assert!(derived > 0, "union loads must carry multi-step derivations");
    assert!(
        revealed > 0,
        "some chain must bottom out at a revealing site (the printf hints)"
    );
}

/// `manta explain` acceptance on Figure 4: `parsestr`'s string parameter
/// (the variable the false NPD hinges on) explains down to the
/// `printf_s` reveal even though the hint sits on the opposite branch.
#[test]
fn figure4_explain_derives_the_parsestr_argument() {
    let analysis = ModuleAnalysis::build(fig4_module());
    let graph = prov_graph(&analysis);
    let module = analysis.module();
    let s = manta::provenance::resolve_var(module, "parsestr", "p0").expect("p0 exists");
    let tree = graph
        .render_explain(module, s, None)
        .expect("derivation recorded for s");
    assert!(tree.contains("parsestr:p0"), "{tree}");
    assert!(tree.contains("reveal"), "{tree}");
}
