//! Dyadic decomposition of integer ranges and arbitrary boxes
//! (paper Proposition B.14: any box splits into ≤ (2d)ⁿ dyadic boxes).

use crate::{DyadicBox, DyadicInterval, Space};

/// Minimal disjoint dyadic cover of the inclusive range `[lo, hi]` in a
/// `width`-bit domain, in left-to-right order.
///
/// Classic greedy: repeatedly take the largest dyadic interval that starts
/// at the current position and fits in the remainder. Produces at most
/// `2·width` intervals; each is a *maximal* dyadic interval inside the
/// range.
///
/// Returns an empty vector when `lo > hi`.
pub fn dyadic_cover_of_range(lo: u64, hi: u64, width: u8) -> Vec<DyadicInterval> {
    let mut out = Vec::new();
    dyadic_cover_of_range_into(lo, hi, width, &mut out);
    out
}

/// [`dyadic_cover_of_range`] **appending** into a caller-owned buffer, so
/// bulk gap extraction (one call per index gap) can reuse one allocation.
pub fn dyadic_cover_of_range_into(lo: u64, hi: u64, width: u8, out: &mut Vec<DyadicInterval>) {
    assert!(width <= 63);
    let max = (1u64 << width) - 1;
    assert!(hi <= max, "range endpoint {hi} outside {width}-bit domain");
    if lo > hi {
        return;
    }
    let mut cur = lo;
    loop {
        // Largest power-of-two block starting at `cur`:
        // (a) must be aligned: 2^k divides cur (or cur == 0 ⇒ any k);
        // (b) must fit: cur + 2^k - 1 ≤ hi.
        let align = if cur == 0 {
            width
        } else {
            cur.trailing_zeros().min(width as u32) as u8
        };
        let remaining = hi - cur + 1;
        let fit = (63 - remaining.leading_zeros()) as u8; // floor(log2(remaining))
        let k = align.min(fit);
        out.push(DyadicInterval::from_bits(cur >> k, width - k));
        let step = 1u64 << k;
        if hi - cur < step {
            break;
        }
        cur += step;
        if cur > hi {
            break;
        }
    }
}

/// The unique piece of the minimal dyadic cover of `[lo, hi]` that contains
/// the point `v` — computed directly, without materializing the cover.
///
/// This is the *maximal* dyadic interval `I` with `v ∈ I ⊆ [lo, hi]`, which
/// is what a B-tree gap oracle returns for a probe point that falls into a
/// gap (paper §3.4, Appendix B.3).
///
/// # Panics
/// If `v ∉ [lo, hi]`.
pub fn dyadic_piece_containing(v: u64, lo: u64, hi: u64, width: u8) -> DyadicInterval {
    assert!(lo <= v && v <= hi, "point {v} outside range [{lo}, {hi}]");
    // The aligned block of 2^k values around v leaves out a value x iff
    // v and x differ at some bit ≥ k. The block stays inside [lo, hi]
    // iff it leaves out both neighbours of the range, so the largest k is
    // the highest bit at which v differs from each of them.
    let msb = |x: u64| (63 - x.leading_zeros()) as u8;
    let mut k = width;
    if lo > 0 {
        k = k.min(msb(v ^ (lo - 1)));
    }
    if hi < (1u64 << width) - 1 {
        k = k.min(msb(v ^ (hi + 1)));
    }
    DyadicInterval::from_bits(v >> k, width - k)
}

/// Decompose an arbitrary (axis-aligned, inclusive-range) box into disjoint
/// dyadic boxes: the cartesian product of the per-dimension minimal covers.
///
/// `lo`/`hi` give inclusive bounds per dimension. At most `∏ᵢ 2·dᵢ` boxes.
pub fn decompose_box(lo: &[u64], hi: &[u64], space: &Space) -> Vec<DyadicBox> {
    assert_eq!(lo.len(), space.n());
    assert_eq!(hi.len(), space.n());
    let per_dim: Vec<Vec<DyadicInterval>> = (0..space.n())
        .map(|i| dyadic_cover_of_range(lo[i], hi[i], space.width(i)))
        .collect();
    if per_dim.iter().any(|v| v.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx = vec![0usize; space.n()];
    loop {
        let ivs: Vec<DyadicInterval> = idx
            .iter()
            .enumerate()
            .map(|(i, &j)| per_dim[i][j])
            .collect();
        out.push(DyadicBox::from_intervals(&ivs));
        // Odometer.
        let mut i = space.n();
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            idx[i] += 1;
            if idx[i] < per_dim[i].len() {
                break;
            }
            idx[i] = 0;
        }
    }
}

/// The dyadic gap intervals strictly between two sorted domain values —
/// the cover of the open range `(pred, succ)`. Pass `pred = None` for "no
/// predecessor" (gap starts at 0) and `succ = None` for "no successor"
/// (gap ends at the domain max). Used by index gap extraction (Example 1.1).
pub fn range_gap_boxes(pred: Option<u64>, succ: Option<u64>, width: u8) -> Vec<DyadicInterval> {
    let mut out = Vec::new();
    range_gap_boxes_into(pred, succ, width, &mut out);
    out
}

/// [`range_gap_boxes`] **appending** into a caller-owned buffer (see
/// [`dyadic_cover_of_range_into`]).
pub fn range_gap_boxes_into(
    pred: Option<u64>,
    succ: Option<u64>,
    width: u8,
    out: &mut Vec<DyadicInterval>,
) {
    let max = (1u64 << width) - 1;
    let lo = match pred {
        None => 0,
        Some(p) => {
            if p == max {
                return;
            }
            p + 1
        }
    };
    let hi = match succ {
        None => max,
        Some(s) => {
            if s == 0 {
                return;
            }
            s - 1
        }
    };
    dyadic_cover_of_range_into(lo, hi, width, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(lo: u64, hi: u64, width: u8) {
        let cover = dyadic_cover_of_range(lo, hi, width);
        assert!(cover.len() <= 2 * width as usize + 1, "cover too large");
        // Disjoint, sorted, and exactly covering [lo, hi].
        let mut expect = lo;
        for iv in &cover {
            let (a, b) = iv.range(width);
            assert_eq!(a, expect, "gap or overlap in cover of [{lo},{hi}]");
            expect = b + 1;
        }
        assert_eq!(expect, hi + 1);
        // Each piece is maximal: its parent leaves the range.
        for iv in &cover {
            if let Some(p) = iv.parent() {
                let (a, b) = p.range(width);
                assert!(a < lo || b > hi, "piece {iv} not maximal in [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn covers_are_minimal_disjoint_and_exact() {
        for width in 1..=6u8 {
            let max = (1u64 << width) - 1;
            for lo in 0..=max {
                for hi in lo..=max {
                    check_cover(lo, hi, width);
                }
            }
        }
    }

    #[test]
    fn empty_range_is_empty_cover() {
        assert!(dyadic_cover_of_range(5, 4, 4).is_empty());
    }

    #[test]
    fn figure_4_example() {
        // Relation R(A,B) = {(0,3)} on a 2-bit domain. The A-gap after 0 is
        // [1,3] ⇒ dyadic pieces {01, 1}; the B-gap below 3 (within A=0) is
        // [0,2] ⇒ {0, 10}. Matches Figure 4b.
        let a_gap = range_gap_boxes(Some(0), None, 2);
        let shown: Vec<String> = a_gap.iter().map(|x| x.bit_string()).collect();
        assert_eq!(shown, vec!["01", "1"]);
        let b_gap = range_gap_boxes(None, Some(3), 2);
        let shown: Vec<String> = b_gap.iter().map(|x| x.bit_string()).collect();
        assert_eq!(shown, vec!["0", "10"]);
    }

    #[test]
    fn piece_containing_agrees_with_cover() {
        for width in 1..=5u8 {
            let max = (1u64 << width) - 1;
            for lo in 0..=max {
                for hi in lo..=max {
                    let cover = dyadic_cover_of_range(lo, hi, width);
                    for v in lo..=hi {
                        let piece = dyadic_piece_containing(v, lo, hi, width);
                        assert!(piece.contains_value(v, width));
                        assert!(cover.contains(&piece), "{v} in [{lo},{hi}] w{width}");
                    }
                }
            }
        }
    }

    /// The walk `dyadic_piece_containing` replaced: grow the unit
    /// interval around `v` one bit at a time while it fits.
    fn piece_by_walk(v: u64, lo: u64, hi: u64, width: u8) -> DyadicInterval {
        let mut best = DyadicInterval::point(v, width);
        for len in (0..width).rev() {
            let cand = DyadicInterval::from_bits(v >> (width - len), len);
            let (clo, chi) = cand.range(width);
            if clo >= lo && chi <= hi {
                best = cand;
            } else {
                break;
            }
        }
        best
    }

    #[test]
    fn piece_containing_matches_the_walk_exhaustively() {
        for width in 0..=6u8 {
            let max = (1u64 << width) - 1;
            for lo in 0..=max {
                for hi in lo..=max {
                    for v in lo..=hi {
                        assert_eq!(
                            dyadic_piece_containing(v, lo, hi, width),
                            piece_by_walk(v, lo, hi, width),
                            "{v} in [{lo},{hi}] w{width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn piece_containing_rejects_a_point_outside() {
        dyadic_piece_containing(5, 0, 4, 3);
    }

    #[test]
    fn gap_boxes_handle_domain_edges() {
        // Adjacent values ⇒ empty gap.
        assert!(range_gap_boxes(Some(3), Some(4), 3).is_empty());
        // Gap to the end of the domain.
        let g = range_gap_boxes(Some(6), None, 3);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].range(3), (7, 7));
        // Predecessor at domain max ⇒ nothing after it.
        assert!(range_gap_boxes(Some(7), None, 3).is_empty());
        // Successor at 0 ⇒ nothing before it.
        assert!(range_gap_boxes(None, Some(0), 3).is_empty());
        // Whole domain when relation level is empty.
        let whole = range_gap_boxes(None, None, 3);
        assert_eq!(whole.len(), 1);
        assert!(whole[0].is_lambda());
    }

    #[test]
    fn box_decomposition_covers_exactly() {
        let space = Space::uniform(2, 3);
        let lo = [1u64, 2];
        let hi = [6u64, 5];
        let boxes = decompose_box(&lo, &hi, &space);
        // Disjoint & exact cover of the rectangle.
        let mut covered = 0u64;
        space.for_each_point(|p| {
            let inside = (lo[0]..=hi[0]).contains(&p[0]) && (lo[1]..=hi[1]).contains(&p[1]);
            let hits = boxes.iter().filter(|b| b.contains_point(p, &space)).count();
            assert_eq!(hits, usize::from(inside), "point {p:?}");
            covered += hits as u64;
        });
        assert_eq!(covered, 6 * 4);
    }

    #[test]
    fn degenerate_box_decomposition() {
        let space = Space::uniform(2, 3);
        assert!(decompose_box(&[5, 0], &[4, 7], &space).is_empty());
        let single = decompose_box(&[3, 3], &[3, 3], &space);
        assert_eq!(single.len(), 1);
        assert!(single[0].is_unit(&space));
    }
}
