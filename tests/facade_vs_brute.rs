//! Facade coverage: the full `QueryPlanBuilder` → `Tetris::reloaded`
//! pipeline must produce exactly the tuples the brute-force oracle
//! produces, on triangle-query instances drawn from `workload`.

use baseline::{brute::brute_force_join, JoinSpec};
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::Tetris;
use workload::triangle::{agm_triangle, skew_triangle, TriangleInstance};

/// Run the facade pipeline and the brute-force oracle on a triangle
/// instance and return both outputs in (A, B, C) order.
fn both_outputs(inst: &TriangleInstance) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let join = QueryPlanBuilder::new(inst.width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    let tetris = join.reorder_to(&["A", "B", "C"], &out.tuples);

    let spec = JoinSpec::new(&["A", "B", "C"], &[inst.width; 3])
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"]);
    let brute = brute_force_join(&spec);
    (tetris, brute)
}

#[test]
fn facade_matches_brute_on_agm_triangle() {
    let inst = agm_triangle(4, 3);
    let (tetris, brute) = both_outputs(&inst);
    assert!(!brute.is_empty(), "AGM grid triangle must have output");
    assert_eq!(tetris, brute);
    if let Some(z) = inst.expected_output {
        assert_eq!(tetris.len() as u64, z);
    }
}

#[test]
fn facade_matches_brute_on_skew_triangle() {
    let inst = skew_triangle(8, 5);
    let (tetris, brute) = both_outputs(&inst);
    assert_eq!(tetris, brute);
    if let Some(z) = inst.expected_output {
        assert_eq!(tetris.len() as u64, z);
    }
}
