//! End-to-end tests on the paper's named instances: the MSB triangles of
//! Figures 5/6, Example F.1, the bowtie instances of Appendix B, and the
//! skewed triangle.

use boxstore::SetOracle;
use relation::{IndexedRelation, JoinOracle};
use tetris_join::plan::{ExtraIndex, QueryPlanBuilder};
use tetris_join::tetris::{balance::TetrisLB, Tetris};
use workload::{bcp, bowtie, paths, triangle};

#[test]
fn msb_triangle_join_is_empty_and_cheap_with_dyadic_indexes() {
    // Figure 5: the join is empty; with dyadic-tree indexes the whole
    // proof loads O(1) fat gap boxes (the six boxes of the figure).
    for d in [3u8, 5, 7] {
        let inst = triangle::msb_triangle_relations(d);
        let join = QueryPlanBuilder::new(d)
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"])
            .atom("T", &inst.t, &["A", "C"])
            .extra_index(ExtraIndex::Dyadic)
            .build();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.tuples.is_empty(), "d={d}: join must be empty");
        // Certificate-sized work: independent of the relation sizes
        // (3·2^{2d-1} tuples!), the resolution count stays tiny.
        assert!(
            out.stats.resolutions <= 64,
            "d={d}: expected O(1) resolutions, got {}",
            out.stats.resolutions
        );
    }
}

#[test]
fn msb_box_instances_match_relational_instances() {
    // The raw 6-box BCP of Figure 5 and the materialized relations must
    // give the same (empty) answer; Figure 6's variant has output.
    let d = 3u8;
    let space = dyadic::Space::uniform(3, d);
    let closed = SetOracle::new(space, triangle::msb_triangle_boxes(d));
    let (covered, _) = Tetris::reloaded(&closed).check_cover();
    assert!(covered);
    let open = SetOracle::new(space, triangle::msb_triangle_boxes_open(d));
    let out = Tetris::reloaded(&open).run();
    // Uncovered: msb(a)≠msb(b), msb(b)≠msb(c), msb(a)=msb(c) — two
    // quadrant cubes of side 2^{d−1}.
    assert_eq!(
        out.tuples.len(),
        2 << (3 * (d - 1) as usize),
        "2·2^{{3(d-1)}} points"
    );
}

#[test]
fn example_f1_all_engines_agree_and_lb_wins() {
    for d in 4..=7u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes.clone());
        let plain = Tetris::preloaded(&oracle).run();
        let lb = TetrisLB::preloaded(&oracle).run();
        assert!(plain.tuples.is_empty());
        assert!(lb.tuples.is_empty());
        if d >= 6 {
            assert!(
                lb.stats.resolutions < plain.stats.resolutions,
                "d={d}: LB ({}) should beat ordered ({})",
                lb.stats.resolutions,
                plain.stats.resolutions
            );
        }
    }
}

#[test]
fn bowtie_horizontal_line_index_order_matters() {
    // Appendix B / Figure 13: with S sorted (B,A) the empty bowtie join is
    // certified with O(d) boxes; with (A,B) it needs Ω(m).
    let width = 10u8;
    let m = 256u64;
    let inst = bowtie::horizontal_line(m, 3, width);
    let loaded_for = |s_order: &[usize]| {
        let r = IndexedRelation::new(inst.r.clone());
        let s = IndexedRelation::with_trie(inst.s.clone(), s_order);
        let t = IndexedRelation::new(inst.t.clone());
        let oracle = JoinOracle::new(&["B", "A"], &[width; 2])
            .atom("R", &r, &["A"])
            .atom("S", &s, &["A", "B"])
            .atom("T", &t, &["B"]);
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        out.stats.loaded_boxes
    };
    let bad = loaded_for(&[0, 1]); // (A,B) order
    let good = loaded_for(&[1, 0]); // (B,A) order
    assert!(
        good * 8 <= bad,
        "(B,A) loads {good}, (A,B) loads {bad}: expected ≥ 8× separation"
    );
    assert!(good <= 4 * width as u64, "(B,A) certificate is O(d)");
}

#[test]
fn bowtie_diagonal_rescued_by_unary_gaps() {
    // Figure 14: the diagonal defeats both B-tree orders on S, but the
    // gaps of R and T certify the join with O(d) boxes.
    let width = 10u8;
    let inst = bowtie::diagonal(512, 5, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A"])
        .atom("S", &inst.s, &["A", "B"])
        .atom("T", &inst.t, &["B"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    // Output: the single point (5,5) — in SAO coordinates some order of it.
    let tuples = join.reorder_to(&["A", "B"], &out.tuples);
    assert_eq!(tuples, vec![vec![5, 5]]);
    assert!(
        out.stats.loaded_boxes <= 8 * width as u64,
        "unary gaps keep the certificate O(d); loaded {}",
        out.stats.loaded_boxes
    );
}

#[test]
fn skew_triangle_output_is_three_axes() {
    let width = 8u8;
    let m = 60u64;
    let inst = triangle::skew_triangle(m, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::preloaded(&oracle).run();
    assert_eq!(out.tuples.len() as u64, 3 * m + 1);
    let tuples = join.reorder_to(&["A", "B", "C"], &out.tuples);
    for t in &tuples {
        let zeros = t.iter().filter(|&&v| v == 0).count();
        assert!(zeros >= 2, "output {t:?} must lie on an axis");
    }
}

#[test]
fn half_split_certificate_independent_of_n() {
    // Theorem 4.7's sharpest case: |C| = O(1); the resolution count must
    // not grow with N.
    let width = 14u8;
    let mut counts = Vec::new();
    for &n in &[100usize, 1000, 10000] {
        let inst = paths::half_split_path(n, width);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"])
            .build();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        counts.push(out.stats.resolutions);
    }
    assert_eq!(counts[0], counts[1], "resolutions must not grow with N");
    assert_eq!(counts[1], counts[2]);
    assert!(
        counts[0] <= 8,
        "half-split certificate is 2 boxes; got {}",
        counts[0]
    );
}

#[test]
fn grid_triangle_hits_agm_output() {
    let s = 8u64;
    let inst = triangle::agm_triangle(s, 4);
    let join = QueryPlanBuilder::new(4)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::preloaded(&oracle).run();
    assert_eq!(out.tuples.len() as u64, s * s * s, "output = N^{{3/2}}");
    // The AGM bound from the query crate matches exactly on this instance.
    let h = query::Hypergraph::new(&["A", "B", "C"], &[&["A", "B"], &["B", "C"], &["A", "C"]]);
    let bound = query::cover::agm_bound(&h, &[s * s, s * s, s * s]).unwrap();
    assert!((bound - (s * s * s) as f64).abs() < 1.0);
}
