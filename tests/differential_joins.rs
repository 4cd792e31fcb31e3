//! Cross-crate differential tests: every join algorithm in the workspace
//! must produce identical output on randomized instances of several query
//! shapes (Proposition 3.6: the BCP output *is* the join output).

use baseline::{
    brute::brute_force_join,
    leapfrog::leapfrog_join,
    pairwise::{pairwise_join, StepAlgo},
    yannakakis::yannakakis_join,
    JoinSpec,
};
use rand::{Rng, SeedableRng};
use relation::{Relation, Schema};
use tetris_join::plan::{ExtraIndex, PreparedQuery, QueryPlanBuilder};
use tetris_join::tetris::{balance::TetrisLB, Descent, Tetris};

fn random_relation(rng: &mut rand::rngs::StdRng, width: u8, max_tuples: usize) -> Relation {
    let dom = 1u64 << width;
    let count = rng.gen_range(0..=max_tuples);
    let tuples: Vec<Vec<u64>> = (0..count)
        .map(|_| vec![rng.gen_range(0..dom), rng.gen_range(0..dom)])
        .collect();
    Relation::new(Schema::uniform(&["X", "Y"], width), tuples)
}

/// Run all Tetris variants on a prepared join, asserting agreement, and
/// return the tuples in the given attribute order.
fn all_tetris_variants(join: &PreparedQuery, attrs: &[&str]) -> Vec<Vec<u64>> {
    let oracle = join.oracle();
    let reloaded = Tetris::reloaded(&oracle).run();
    let preloaded = Tetris::preloaded(&oracle).run();
    let inline = Tetris::reloaded(&oracle)
        .descent(Descent::Incremental)
        .run();
    let uncached = Tetris::preloaded(&oracle)
        .cache_resolvents(false)
        .descent(Descent::Incremental)
        .run();
    let lb = TetrisLB::reloaded(&oracle).run();
    assert_eq!(reloaded.tuples, preloaded.tuples, "reloaded vs preloaded");
    assert_eq!(reloaded.tuples, inline.tuples, "reloaded vs inline");
    assert_eq!(reloaded.tuples, uncached.tuples, "reloaded vs uncached");
    let mut sorted = reloaded.tuples.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, lb.tuples, "plain vs load-balanced");
    join.reorder_to(attrs, &reloaded.tuples)
}

#[test]
fn triangle_query_all_algorithms_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    for trial in 0..30 {
        let width = rng.gen_range(2..=3u8);
        let r = random_relation(&mut rng, width, 20);
        let s = random_relation(&mut rng, width, 20);
        let t = random_relation(&mut rng, width, 20);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"])
            .build();
        let tetris = all_tetris_variants(&join, &["A", "B", "C"]);
        let spec = JoinSpec::new(&["A", "B", "C"], &[width; 3])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "trial {trial}: tetris vs brute force");
        assert_eq!(leapfrog_join(&spec).0, brute, "trial {trial}: leapfrog");
        assert_eq!(
            pairwise_join(&spec, &[0, 1, 2], StepAlgo::Hash).0,
            brute,
            "trial {trial}: hash plan"
        );
        assert_eq!(
            pairwise_join(&spec, &[1, 2, 0], StepAlgo::SortMerge).0,
            brute,
            "trial {trial}: sort-merge plan"
        );
    }
}

#[test]
fn path_query_all_algorithms_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for trial in 0..30 {
        let width = 2u8;
        let r = random_relation(&mut rng, width, 14);
        let s = random_relation(&mut rng, width, 14);
        let t = random_relation(&mut rng, width, 14);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["C", "D"])
            .build();
        let tetris = all_tetris_variants(&join, &["A", "B", "C", "D"]);
        let spec = JoinSpec::new(&["A", "B", "C", "D"], &[width; 4])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["C", "D"]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "trial {trial}");
        assert_eq!(leapfrog_join(&spec).0, brute, "trial {trial}");
        assert_eq!(
            yannakakis_join(&spec).expect("path query is acyclic"),
            brute,
            "trial {trial}: yannakakis"
        );
    }
}

#[test]
fn four_cycle_query_all_algorithms_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for trial in 0..20 {
        let width = 2u8;
        let rels: Vec<Relation> = (0..4)
            .map(|_| random_relation(&mut rng, width, 12))
            .collect();
        let join = QueryPlanBuilder::new(width)
            .atom("R1", &rels[0], &["A", "B"])
            .atom("R2", &rels[1], &["B", "C"])
            .atom("R3", &rels[2], &["C", "D"])
            .atom("R4", &rels[3], &["D", "A"])
            .build();
        let tetris = all_tetris_variants(&join, &["A", "B", "C", "D"]);
        let spec = JoinSpec::new(&["A", "B", "C", "D"], &[width; 4])
            .atom("R1", &rels[0], &["A", "B"])
            .atom("R2", &rels[1], &["B", "C"])
            .atom("R3", &rels[2], &["C", "D"])
            .atom("R4", &rels[3], &["D", "A"]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "trial {trial}");
        assert_eq!(leapfrog_join(&spec).0, brute, "trial {trial}");
    }
}

#[test]
fn bowtie_query_with_unary_atoms_agrees() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    for trial in 0..20 {
        let width = 3u8;
        let dom = 1u64 << width;
        let mk_unary = |rng: &mut rand::rngs::StdRng| {
            let count = rng.gen_range(0..dom);
            let vals: Vec<Vec<u64>> = (0..count).map(|_| vec![rng.gen_range(0..dom)]).collect();
            Relation::new(Schema::uniform(&["X"], width), vals)
        };
        let r = mk_unary(&mut rng);
        let t = mk_unary(&mut rng);
        let s = random_relation(&mut rng, width, 25);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A"])
            .atom("S", &s, &["A", "B"])
            .atom("T", &t, &["B"])
            .build();
        let tetris = all_tetris_variants(&join, &["A", "B"]);
        let spec = JoinSpec::new(&["A", "B"], &[width; 2])
            .atom("R", &r, &["A"])
            .atom("S", &s, &["A", "B"])
            .atom("T", &t, &["B"]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "trial {trial}");
        assert_eq!(
            yannakakis_join(&spec).expect("bowtie is acyclic"),
            brute,
            "trial {trial}"
        );
    }
}

#[test]
fn extra_indexes_do_not_change_output() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..10 {
        let width = 2u8;
        let r = random_relation(&mut rng, width, 12);
        let s = random_relation(&mut rng, width, 12);
        let base = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .build();
        let oracle = base.oracle();
        let expect = Tetris::reloaded(&oracle).run().tuples;
        for extra in [ExtraIndex::Dyadic, ExtraIndex::AllTrieRotations] {
            let join = QueryPlanBuilder::new(width)
                .atom("R", &r, &["A", "B"])
                .atom("S", &s, &["B", "C"])
                .extra_index(extra)
                .build();
            let oracle = join.oracle();
            let got = Tetris::reloaded(&oracle).run().tuples;
            assert_eq!(got, expect, "{extra:?}");
        }
    }
}

#[test]
fn five_attribute_star_query() {
    // A star query pushes the SAO machinery (hub first) and unary leaves.
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);
    let width = 2u8;
    for trial in 0..10 {
        let rels: Vec<Relation> = (0..4)
            .map(|_| random_relation(&mut rng, width, 10))
            .collect();
        let join = QueryPlanBuilder::new(width)
            .atom("R1", &rels[0], &["H", "A"])
            .atom("R2", &rels[1], &["H", "B"])
            .atom("R3", &rels[2], &["H", "C"])
            .atom("R4", &rels[3], &["H", "D"])
            .build();
        let tetris = all_tetris_variants(&join, &["H", "A", "B", "C", "D"]);
        let spec = JoinSpec::new(&["H", "A", "B", "C", "D"], &[width; 5])
            .atom("R1", &rels[0], &["H", "A"])
            .atom("R2", &rels[1], &["H", "B"])
            .atom("R3", &rels[2], &["H", "C"])
            .atom("R4", &rels[3], &["H", "D"]);
        let brute = brute_force_join(&spec);
        assert_eq!(tetris, brute, "trial {trial}");
        assert_eq!(
            yannakakis_join(&spec).expect("star is acyclic"),
            brute,
            "trial {trial}"
        );
    }
}
