//! Wide-domain stress tests: the bitstring machinery must be exact up to
//! the 63-bit width limit (shifts, ranges, splits, the Balance lift), and
//! the certificate bounds must hold with astronomically large domains —
//! the whole point of dyadic encodings is that `d = log |domain|` only
//! ever appears as a polylog factor.

use boxstore::SetOracle;
use dyadic::{DyadicBox, DyadicInterval, Space};
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::{balance::TetrisLB, klee, Tetris};
use workload::paths;

#[test]
fn interval_arithmetic_at_63_bits() {
    let top = DyadicInterval::from_bits(1, 1); // the upper half
    let (lo, hi) = top.range(63);
    assert_eq!(lo, 1u64 << 62);
    assert_eq!(hi, (1u64 << 63) - 1);
    let unit = DyadicInterval::point((1u64 << 63) - 1, 63);
    assert!(top.contains(&unit));
    assert_eq!(unit.range(63), (hi, hi));
    // Prefix walks stay exact at full depth.
    let mut iv = DyadicInterval::lambda();
    for _ in 0..63 {
        iv = iv.child(1);
    }
    assert_eq!(iv.value(63), (1u64 << 63) - 1);
    assert!(DyadicInterval::lambda().contains(&iv));
}

#[test]
fn bcp_over_40_bit_domains() {
    // Two half-space boxes cover a 2^80-point space; one pinhole remains
    // when we shrink a side — Tetris finds it without enumeration.
    let space = Space::uniform(2, 40);
    let half0 = DyadicBox::parse("0,λ").unwrap();
    let half1 = DyadicBox::parse("1,λ").unwrap();
    let oracle = SetOracle::new(space, vec![half0, half1]);
    let (covered, stats) = Tetris::reloaded(&oracle).check_cover();
    assert!(covered);
    assert!(stats.resolutions <= 4);

    // Cover all but the single maximum point.
    let max = (1u64 << 40) - 1;
    let mut boxes = vec![half0];
    // ⟨1, λ⟩ minus the last row/column, dyadically:
    // right half, y in [0, max-1]; and x in [2^39, max-1] at y = max.
    for iv in dyadic::dyadic_cover_of_range(0, max - 1, 40) {
        boxes.push(DyadicBox::from_intervals(&[
            DyadicInterval::from_bits(1, 1),
            iv,
        ]));
    }
    for iv in dyadic::dyadic_cover_of_range(1u64 << 39, max - 1, 40) {
        boxes.push(DyadicBox::from_intervals(&[
            iv,
            DyadicInterval::point(max, 40),
        ]));
    }
    let oracle = SetOracle::new(space, boxes);
    let out = Tetris::reloaded(&oracle).run();
    assert_eq!(out.tuples, vec![vec![max, max]]);
}

#[test]
fn certificate_bound_with_32_bit_attributes() {
    // Theorem 4.7 at d = 32: resolutions stay constant while the domain
    // has 4 billion values and N = 20k tuples.
    let width = 32u8;
    let inst = paths::half_split_path(20_000, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .build();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    assert!(out.tuples.is_empty());
    assert!(
        out.stats.resolutions <= 8,
        "O(1) certificate at d=32; got {} resolutions",
        out.stats.resolutions
    );
}

#[test]
fn load_balanced_lift_at_24_bit_domains() {
    // The lift doubles the dimension count; widths must carry through.
    let space = Space::uniform(3, 24);
    // Figure-5-style MSB cover (empty output) at 24 bits.
    let boxes = workload::triangle::msb_triangle_boxes(24);
    let oracle = SetOracle::new(space, boxes);
    let (covered, _) = TetrisLB::preloaded(&oracle).check_cover();
    assert!(covered);
    // Remove one box: the LB engine must find an uncovered point.
    let mut open = workload::triangle::msb_triangle_boxes(24);
    open.pop();
    let oracle = SetOracle::new(space, open);
    let (covered, _) = TetrisLB::preloaded(&oracle).check_cover();
    assert!(!covered);
}

#[test]
fn klee_pinhole_in_huge_cube() {
    // A 2^60-point cube with a one-unit gap at the far corner.
    let space = Space::uniform(3, 20);
    let max = (1u64 << 20) - 1;
    let boxes = vec![
        klee::IntBox::new(vec![0, 0, 0], vec![max - 1, max, max]),
        klee::IntBox::new(vec![max, 0, 0], vec![max, max - 1, max]),
        klee::IntBox::new(vec![max, max, 0], vec![max, max, max - 1]),
    ];
    let (covered, _) = klee::covers_space_lb(&boxes, &space);
    assert!(!covered);
    // Plug it.
    let mut full = boxes;
    full.push(klee::IntBox::new(vec![max, max, max], vec![max, max, max]));
    let (covered, _) = klee::covers_space_lb(&full, &space);
    assert!(covered);
}
