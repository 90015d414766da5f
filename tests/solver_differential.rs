//! Differential testing of the delta-propagation points-to solver against
//! the retained whole-set reference solver.
//!
//! Object *ids* are not comparable across the two solvers — field objects
//! materialize in solver-visit order — so every points-to relation is
//! compared through canonical object names derived from [`ObjectKind`]
//! parent chains (`stack:f0:i3+8+0` names the field at offset 0 of the
//! field at offset 8 of an alloca).

use std::collections::{BTreeMap, BTreeSet};

use manta_analysis::{
    preprocess, CallGraph, ObjectId, ObjectKind, PointsTo, PreprocessConfig, Preprocessed, VarRef,
};
use manta_ir::{ModuleBuilder, Width};
use manta_workloads::generator::{generate, GenSpec};
use manta_workloads::{project_suite, PhenomenonMix};

/// Canonical, solver-independent name for an object.
fn canon(pts: &PointsTo, o: ObjectId) -> String {
    match pts.object_kind(o) {
        ObjectKind::Stack { func, site, size } => format!("stack:{func:?}:{site:?}:{size}"),
        ObjectKind::Heap { func, site } => format!("heap:{func:?}:{site:?}"),
        ObjectKind::Global(g) => format!("global:{g:?}"),
        ObjectKind::ExternBuf { func, site } => format!("externbuf:{func:?}:{site:?}"),
        ObjectKind::Field { parent, offset } => format!("{}+{offset}", canon(pts, parent)),
    }
}

type Shape = (
    BTreeMap<String, BTreeSet<String>>,
    BTreeMap<String, BTreeSet<String>>,
    BTreeMap<String, BTreeSet<String>>,
    usize,
);

/// All non-empty points-to relations, keyed canonically: one map for
/// variables, one for object contents, one for each object's fields
/// (`offset:field`), and the largest set. Empty sets are dropped on both
/// sides because a solver may or may not materialize a node it never
/// populated.
fn shape(pre: &Preprocessed, pts: &PointsTo) -> Shape {
    let mut vars = BTreeMap::new();
    for func in pre.module.functions() {
        for (v, _) in func.values() {
            let set: BTreeSet<String> = pts
                .pts_var(VarRef::new(func.id(), v))
                .iter()
                .map(|&o| canon(pts, o))
                .collect();
            if !set.is_empty() {
                vars.insert(format!("{:?}:{v:?}", func.id()), set);
            }
        }
    }
    let mut objs = BTreeMap::new();
    let mut fields = BTreeMap::new();
    for (o, _) in pts.objects() {
        let set: BTreeSet<String> = pts.pts_obj(o).iter().map(|&x| canon(pts, x)).collect();
        if !set.is_empty() {
            objs.insert(canon(pts, o), set);
        }
        let listed: BTreeSet<String> = pts
            .fields(o)
            .iter()
            .map(|&(offset, f)| format!("{offset}:{}", canon(pts, f)))
            .collect();
        if !listed.is_empty() {
            fields.insert(canon(pts, o), listed);
        }
    }
    (vars, objs, fields, pts.max_pts_len())
}

fn assert_equivalent(module: manta_ir::Module, label: &str) {
    let pre = preprocess(module, PreprocessConfig::default());
    let cg = CallGraph::build(&pre);
    let delta = PointsTo::solve(&pre, &cg);
    let reference = PointsTo::solve_reference(&pre, &cg);
    assert_eq!(
        shape(&pre, &delta),
        shape(&pre, &reference),
        "delta and reference solvers diverge on {label}"
    );
}

#[test]
fn delta_matches_reference_on_200_seeded_random_modules() {
    for seed in 0..200u64 {
        let spec = GenSpec {
            name: format!("diff_{seed}"),
            functions: 4 + (seed as usize % 12),
            mix: PhenomenonMix::balanced(),
            seed: 0xD1FF ^ (seed * 0x9E37_79B9),
        };
        assert_equivalent(generate(&spec).module, &spec.name);
    }
}

#[test]
fn delta_matches_reference_on_the_full_project_suite() {
    for spec in project_suite() {
        assert_equivalent(spec.generate().module, &spec.name);
    }
}

/// Deep store/load relays with wide fan-in: the shape where the two
/// solvers' visit orders differ the most (this is also the benchmark's
/// stress project, scaled down).
#[test]
fn delta_matches_reference_on_pointer_chain_stress() {
    let mut mb = ModuleBuilder::new("stress");
    for i in 0..16 {
        let (_, mut fb) = mb.function(&format!("chain_{i}"), &[], None);
        let slots: Vec<_> = (0..8).map(|_| fb.alloca(8)).collect();
        let cells: Vec<_> = (0..12).map(|_| fb.alloca(8)).collect();
        for &s in &slots {
            fb.store(cells[0], s);
        }
        let mut v = fb.load(cells[0], Width::W64);
        for &cell in &cells[1..] {
            fb.store(cell, v);
            v = fb.load(cell, Width::W64);
        }
        // A cyclic inclusion: the chain tail feeds back into the head
        // cell, exercising online copy-SCC collapse.
        fb.store(cells[0], v);
        fb.ret(None);
        mb.finish_function(fb);
    }
    assert_equivalent(mb.finish(), "pointer_chain_stress");
}
