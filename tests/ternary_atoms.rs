//! Differential tests with atoms of arity ≥ 3 (Loomis–Whitney queries) —
//! exercising the trie index, gap oracle, SAO machinery, and all Tetris
//! variants on wider relations.

use baseline::{brute::brute_force_join, leapfrog::leapfrog_join, JoinSpec};
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::{balance::TetrisLB, Tetris};
use workload::loomis;

#[test]
fn lw3_random_instances_agree_with_brute_force() {
    for seed in 0..15u64 {
        let width = 2u8;
        let inst = loomis::random_loomis_whitney(3, 12, width, seed);
        let attrs = ["A", "B", "C"];
        let bindings = inst.atom_attrs(&attrs);
        let join = QueryPlanBuilder::new(width)
            .atom("R0", &inst.rels[0], &bindings[0])
            .atom("R1", &inst.rels[1], &bindings[1])
            .atom("R2", &inst.rels[2], &bindings[2])
            .build();
        let oracle = join.oracle();
        let reloaded = Tetris::reloaded(&oracle).run();
        let preloaded = Tetris::preloaded(&oracle).run();
        assert_eq!(reloaded.tuples, preloaded.tuples, "seed {seed}");
        let lb = TetrisLB::reloaded(&oracle).run();
        let mut sorted = reloaded.tuples.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, lb.tuples, "seed {seed}: LB");
        let tetris = join.reorder_to(&attrs, &reloaded.tuples);

        let spec = JoinSpec::new(&attrs, &[width; 3])
            .atom("R0", &inst.rels[0], &bindings[0])
            .atom("R1", &inst.rels[1], &bindings[1])
            .atom("R2", &inst.rels[2], &bindings[2]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "seed {seed}: tetris vs brute");
        assert_eq!(leapfrog_join(&spec).0, brute, "seed {seed}: leapfrog");
    }
}

#[test]
fn lw4_random_instances_agree() {
    for seed in 0..6u64 {
        let width = 2u8;
        let inst = loomis::random_loomis_whitney(4, 20, width, seed);
        let attrs = ["A", "B", "C", "D"];
        let bindings = inst.atom_attrs(&attrs);
        let join = QueryPlanBuilder::new(width)
            .atom("R0", &inst.rels[0], &bindings[0])
            .atom("R1", &inst.rels[1], &bindings[1])
            .atom("R2", &inst.rels[2], &bindings[2])
            .atom("R3", &inst.rels[3], &bindings[3])
            .build();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        let tetris = join.reorder_to(&attrs, &out.tuples);
        let spec = JoinSpec::new(&attrs, &[width; 4])
            .atom("R0", &inst.rels[0], &bindings[0])
            .atom("R1", &inst.rels[1], &bindings[1])
            .atom("R2", &inst.rels[2], &bindings[2])
            .atom("R3", &inst.rels[3], &bindings[3]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "seed {seed}");
        assert_eq!(leapfrog_join(&spec).0, brute, "seed {seed}");
    }
}

#[test]
fn modular_lw3_output_structure() {
    let width = 4u8;
    let inst = loomis::modular_loomis_whitney_3(width);
    let attrs = ["A", "B", "C"];
    let bindings = inst.atom_attrs(&attrs);
    let join = QueryPlanBuilder::new(width)
        .atom("R0", &inst.rels[0], &bindings[0])
        .atom("R1", &inst.rels[1], &bindings[1])
        .atom("R2", &inst.rels[2], &bindings[2])
        .build();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    let tuples = join.reorder_to(&attrs, &out.tuples);
    // 2a ≡ 0 mod 16 ⇒ a ∈ {0, 8}; b = a, c = (16 − a) % 16.
    assert_eq!(tuples, vec![vec![0, 0, 0], vec![8, 8, 8]]);
}

#[test]
fn mixed_arity_query_agrees() {
    // R(A,B,C) ⋈ S(C,D) ⋈ T(D): arities 3, 2, 1 in one query.
    use relation::{Relation, Schema};
    let width = 2u8;
    let r = Relation::new(
        Schema::uniform(&["X", "Y", "Z"], width),
        vec![vec![0, 1, 2], vec![1, 1, 3], vec![2, 0, 2], vec![3, 3, 3]],
    );
    let s = Relation::new(
        Schema::uniform(&["X", "Y"], width),
        vec![vec![2, 1], vec![3, 0], vec![2, 3]],
    );
    let t = Relation::new(Schema::uniform(&["X"], width), vec![vec![1], vec![3]]);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &r, &["A", "B", "C"])
        .atom("S", &s, &["C", "D"])
        .atom("T", &t, &["D"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    let tetris = join.reorder_to(&["A", "B", "C", "D"], &out.tuples);
    let spec = JoinSpec::new(&["A", "B", "C", "D"], &[width; 4])
        .atom("R", &r, &["A", "B", "C"])
        .atom("S", &s, &["C", "D"])
        .atom("T", &t, &["D"]);
    let brute = brute_force_join(&spec);
    assert_eq!(tetris, brute);
    // This query is α-acyclic: Yannakakis must agree too.
    let yann = baseline::yannakakis::yannakakis_join(&spec).expect("acyclic");
    assert_eq!(yann, brute);
    assert!(!brute.is_empty(), "instance chosen to have output");
}
