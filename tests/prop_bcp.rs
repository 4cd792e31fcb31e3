//! Property-based tests (proptest): every Tetris variant's BCP output
//! equals the brute-force complement on arbitrary box sets, and the
//! geometric primitives preserve their invariants under composition.

use boxstore::{coverage, SetOracle};
use dyadic::{DyadicBox, DyadicInterval, Space};
use proptest::prelude::*;
use tetris_join::tetris::{balance::TetrisLB, Descent, Tetris};

/// Strategy: a dyadic interval in a `d`-bit domain.
fn interval(d: u8) -> impl Strategy<Value = DyadicInterval> {
    (0..=d).prop_flat_map(move |len| {
        (0..(1u64 << len)).prop_map(move |bits| DyadicInterval::from_bits(bits, len))
    })
}

/// Strategy: an `n`-dimensional dyadic box in a `d`-bit space.
fn dyadic_box(n: usize, d: u8) -> impl Strategy<Value = DyadicBox> {
    prop::collection::vec(interval(d), n).prop_map(|ivs| DyadicBox::from_intervals(&ivs))
}

/// Strategy: a BCP instance (space + boxes).
fn bcp_instance(n: usize, d: u8, max_boxes: usize) -> impl Strategy<Value = Vec<DyadicBox>> {
    prop::collection::vec(dyadic_box(n, d), 0..=max_boxes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tetris-Reloaded output == brute-force uncovered points (2-D).
    #[test]
    fn reloaded_matches_brute_force_2d(boxes in bcp_instance(2, 3, 18)) {
        let space = Space::uniform(2, 3);
        let expect = coverage::uncovered_points(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        let out = Tetris::reloaded(&oracle).run();
        prop_assert_eq!(out.tuples, expect);
    }

    /// Tetris-Preloaded output == brute force (3-D).
    #[test]
    fn preloaded_matches_brute_force_3d(boxes in bcp_instance(3, 2, 15)) {
        let space = Space::uniform(3, 2);
        let expect = coverage::uncovered_points(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        let out = Tetris::preloaded(&oracle).run();
        prop_assert_eq!(out.tuples, expect);
    }

    /// The load-balanced engine agrees with brute force (3-D).
    #[test]
    fn load_balanced_matches_brute_force(boxes in bcp_instance(3, 2, 15)) {
        let space = Space::uniform(3, 2);
        let mut expect = coverage::uncovered_points(&boxes, &space);
        expect.sort_unstable();
        let oracle = SetOracle::new(space, boxes);
        let out = TetrisLB::reloaded(&oracle).run();
        prop_assert_eq!(out.tuples, expect);
    }

    /// Inline (TetrisSkeleton2) and no-caching modes agree with the
    /// default engine.
    #[test]
    fn engine_modes_agree(boxes in bcp_instance(2, 3, 14)) {
        let space = Space::uniform(2, 3);
        let oracle = SetOracle::new(space, boxes);
        let a = Tetris::reloaded(&oracle).run().tuples;
        let b = Tetris::reloaded(&oracle)
            .descent(Descent::Incremental)
            .run()
            .tuples;
        let c = Tetris::preloaded(&oracle)
            .cache_resolvents(false)
            .descent(Descent::Incremental)
            .run()
            .tuples;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    /// Boolean cover check agrees with exhaustive coverage.
    #[test]
    fn check_cover_matches_brute_force(boxes in bcp_instance(2, 3, 14)) {
        let space = Space::uniform(2, 3);
        let expect = coverage::covers_everything(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        let (covered, _) = Tetris::reloaded(&oracle).check_cover();
        prop_assert_eq!(covered, expect);
    }

    /// Lemma 4.5's accounting: the number of outer-loop iterations is
    /// bounded by loads + outputs + 1 (each non-final restart loads a
    /// box or reports a tuple).
    #[test]
    fn restart_accounting(boxes in bcp_instance(2, 3, 14)) {
        let space = Space::uniform(2, 3);
        let oracle = SetOracle::new(space, boxes);
        let out = Tetris::reloaded(&oracle).run();
        prop_assert!(
            out.stats.restarts <= out.stats.loaded_boxes + out.stats.outputs + 1,
            "restarts {} > loads {} + outputs {} + 1",
            out.stats.restarts, out.stats.loaded_boxes, out.stats.outputs
        );
    }

    /// Mixed-width spaces work end to end.
    #[test]
    fn mixed_width_bcp(seed in 0u64..500) {
        let space = Space::from_widths(&[1, 3, 2]);
        // Derive a few boxes from the seed deterministically.
        let mut boxes = Vec::new();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..(seed % 9) {
            let mut b = DyadicBox::universe(3);
            for i in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let w = space.width(i);
                let len = (x >> 60) as u8 % (w + 1);
                let bits = (x >> 30) & ((1u64 << len) - (len > 0) as u64);
                let bits = if len == 0 { 0 } else { bits & ((1 << len) - 1) };
                b.set(i, DyadicInterval::from_bits(bits, len));
            }
            boxes.push(b);
        }
        let expect = coverage::uncovered_points(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        let out = Tetris::reloaded(&oracle).run();
        prop_assert_eq!(out.tuples, expect);
    }
}
