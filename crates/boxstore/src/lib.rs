//! Box storage for the Tetris join algorithm.
//!
//! The central structure is the [`BoxTree`]: the paper's **multilevel
//! dyadic tree** (Appendix C.1, Figure 16). It stores a set of dyadic
//! boxes and supports the two queries Tetris performs constantly:
//!
//! * *"is this box contained in some stored box?"* — Algorithm 1 line 1;
//! * *"which stored boxes contain this (unit) box?"* — the oracle access
//!   of Algorithm 2 line 4.
//!
//! Both walk only the prefixes of the probe box's components, so each
//! query touches `O(∏ᵢ(dᵢ+1))` nodes in the worst case and far fewer in
//! practice — the paper's `Õ(1)` (Proposition B.12 bounds the number of
//! dyadic boxes containing a point by `dⁿ`).
//!
//! Because a [`BoxTree`] only grows between clears, it exposes a
//! [`BoxTree::epoch`] counter, and [`CoverageMarks`] memoizes skeleton
//! coverage queries against it: covered marks are sticky, negative marks
//! expire with the epoch. The restart-driven engine uses this to stop
//! re-walking the store on every restart.
//!
//! The incremental engines go further with **frame-saved frontiers**
//! ([`FrontierStack`]): every failed containment probe records the tree
//! positions it reached and the next level's roots on its path, the
//! store keeps a rolling log of recent inserts, and a later probe for
//! the target's *sibling* half advances the saved frontier and repairs
//! it against the log instead of re-walking. A child that ends its
//! dimension carries the frontier into the next one through the roots.
//! Every such answer is bit-identical to a fresh walk. For the parallel
//! descent, [`BoxTree::extract_intersecting_into`] carves the shard of a
//! store that matters inside a donated half-box.
//!
//! The crate also provides [`coverage`] — brute-force reference
//! implementations used by tests and by certificate estimation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod epochs;
mod oracle;
mod store;
mod tree;

pub use epochs::{CoverProbe, CoverageMarks};
pub use oracle::{BoxOracle, SetOracle};
pub use store::{DescentProbe, FrontierStack, REPAIR_CAP};
pub use tree::{BoxTree, SortedTrie};

/// The store contract the engines rely on, driven through the public API
/// only: epochs, clears invalidating saved frontiers, and tracked probes
/// answering exactly as fresh walks do.
#[cfg(test)]
mod tests {
    use super::*;
    use dyadic::{DyadicBox, DyadicInterval};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    fn rand_box(rng: &mut StdRng, n: usize, max_len: u8) -> DyadicBox {
        let mut bx = DyadicBox::universe(n);
        for i in 0..n {
            let len = rng.gen_range(0..=max_len);
            let bits = rng.gen_range(0..(1u64 << len));
            bx.set(i, DyadicInterval::from_bits(bits, len));
        }
        bx
    }

    #[test]
    fn epoch_advances_on_novel_inserts_only() {
        let mut t = BoxTree::new(2);
        let e0 = t.epoch();
        t.insert(&b("0,λ"));
        let e1 = t.epoch();
        assert!(e1 > e0);
        t.insert(&b("0,λ"));
        assert_eq!(t.epoch(), e1, "duplicate inserts must not move the epoch");
        t.clear();
        assert!(t.epoch() > e1, "clears must move the epoch");
    }

    #[test]
    fn clear_resets_and_invalidates_frontiers() {
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        let parent = b("1,λ");
        let mut probe = DescentProbe::new();
        assert!(t.find_containing_tracked(&parent, 0, &mut probe).is_none());
        t.clear();
        assert!(t.is_empty());
        assert!(!t.covers(&b("00,0")));
        t.insert(&b("λ,λ"));
        // The pre-clear frontier must not be trusted: the probe for the
        // child must see the fresh universe box.
        let child = b("10,λ");
        assert_eq!(
            t.find_containing_tracked(&child, 0, &mut probe),
            Some(b("λ,λ"))
        );
        assert_eq!(probe.full_walks, 2, "clear must force a full walk");
    }

    #[test]
    fn tracked_probes_match_full_walks_randomized() {
        // Save a frontier, grow the store, advance through the saved
        // frontier: every answer must equal a fresh full walk.
        let seed = 23u64;
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..300 {
            let n = 3;
            let mut tree = BoxTree::new(n);
            for _ in 0..rng.gen_range(0..20) {
                tree.insert(&rand_box(&mut rng, n, 9));
            }
            let plen = rng.gen_range(0..9u8);
            let parent = DyadicBox::universe(n).with(
                0,
                DyadicInterval::from_bits(rng.gen_range(0..(1u64 << plen)), plen),
            );
            let mut probe = DescentProbe::new();
            if tree
                .find_containing_tracked(&parent, 0, &mut probe)
                .is_some()
            {
                continue;
            }
            let mut frontiers = FrontierStack::new();
            frontiers.push_saved(&probe);
            for _ in 0..rng.gen_range(0..10) {
                tree.insert(&rand_box(&mut rng, n, 9));
            }
            for bit in 0..2u8 {
                let child = parent.with(0, parent.get(0).child(bit));
                let mut restored = DescentProbe::new();
                assert!(frontiers.restore_top(&parent, &mut restored));
                assert_eq!(
                    tree.find_containing_tracked(&child, 0, &mut restored),
                    tree.find_containing(&child),
                    "seed {seed} trial {trial} bit {bit}: tracked probe diverges from full walk"
                );
            }
        }
    }

    #[test]
    fn chained_advances_follow_a_descent() {
        // Drive a probe down a path one bit at a time, as the engine's
        // skeleton does, checking every tracked answer against full walks.
        let seed = 41u64;
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..100 {
            let n = 2;
            let width = 14u8;
            let mut tree = BoxTree::new(n);
            for _ in 0..rng.gen_range(1..30) {
                tree.insert(&rand_box(&mut rng, n, width));
            }
            let path = rng.gen_range(0..(1u64 << width));
            let mut probe = DescentProbe::new();
            for len in 0..=width {
                let target = DyadicBox::universe(n)
                    .with(0, DyadicInterval::from_bits(path >> (width - len), len));
                let got = tree.find_containing_tracked(&target, 0, &mut probe);
                assert_eq!(
                    got,
                    tree.find_containing(&target),
                    "seed {seed} trial {trial} len {len}"
                );
                if got.is_some() {
                    break; // covered: the engine would stop descending
                }
            }
        }
    }
}
