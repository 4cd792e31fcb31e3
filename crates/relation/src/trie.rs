//! Sorted-trie (B-tree–equivalent) indexes and their σ-consistent gap
//! boxes (paper §3.2, Example 1.1, Figures 1 and 3a).
//!
//! A trie in column order `(A_{i1}, …, A_{ik})` stores, at level `j`, the
//! sorted distinct values of column `i_j` under each level-`j−1` node.
//! Between two consecutive sibling values (and before the first / after
//! the last) lies a **gap**: a maximal empty range, which decomposes into
//! at most `2d` dyadic intervals. Each piece yields a gap box
//! `⟨v₁, …, v_{j−1}, piece, λ, …, λ⟩` — precisely the σ-consistent boxes
//! of Definition 3.11 when the column order is consistent with the GAO.

use crate::Relation;
use boxstore::SortedTrie;
use dyadic::{dyadic_piece_containing, range_gap_boxes_into, DyadicBox, DyadicInterval};

/// A flat (struct-of-arrays) search trie over a relation, in a fixed
/// column order. Functionally equivalent to a B-tree index: supports
/// point lookups and "which gap contains this probe" in `O(k log N)`.
#[derive(Clone, Debug)]
pub struct TrieIndex {
    /// `order[k]` = schema position of the trie's `k`-th level column.
    order: Vec<usize>,
    /// Per-level bit widths (in trie order).
    widths: Vec<u8>,
    /// Level `j` values, grouped by parent node, globally concatenated.
    values: Vec<Vec<u64>>,
    /// `starts[j][node]..starts[j][node+1]` is the range of children in
    /// `values[j+1]` for the `node`-th entry of `values[j]`. The last
    /// level has no `starts` entry.
    starts: Vec<Vec<u32>>,
}

impl TrieIndex {
    /// Build a trie index over `rel` in the given column order (a
    /// permutation of schema positions).
    pub fn build(rel: &Relation, order: &[usize]) -> Self {
        // Flat row-major arena in trie order: `sorted[i*k + j]` is row `i`,
        // level `j` — no per-tuple allocation even at 10⁶ rows.
        let sorted = rel.flat_in_order(order);
        let k = order.len();
        let rows = sorted.len() / k;
        let widths: Vec<u8> = order.iter().map(|&p| rel.schema().width(p)).collect();
        let mut values: Vec<Vec<u64>> = vec![Vec::new(); k];
        let mut starts: Vec<Vec<u32>> = vec![Vec::new(); k.saturating_sub(1)];

        // One pass per level: group by the prefix of length `j`.
        // `bounds` holds the tuple-range of each node at the current level.
        let mut bounds: Vec<(usize, usize)> = vec![(0, rows)];
        for j in 0..k {
            let mut next_bounds = Vec::new();
            for &(lo, hi) in &bounds {
                if j > 0 {
                    starts[j - 1].push(
                        u32::try_from(values[j].len()).expect(
                            "TrieIndex: level value count exceeds the u32 CSR offset space",
                        ),
                    );
                }
                let mut i = lo;
                while i < hi {
                    let v = sorted[i * k + j];
                    let mut e = i + 1;
                    while e < hi && sorted[e * k + j] == v {
                        e += 1;
                    }
                    values[j].push(v);
                    next_bounds.push((i, e));
                    i = e;
                }
            }
            if j > 0 {
                starts[j - 1].push(
                    u32::try_from(values[j].len())
                        .expect("TrieIndex: level value count exceeds the u32 CSR offset space"),
                );
            }
            bounds = next_bounds;
        }
        // Fix up: starts[j-1] currently interleaves per-parent markers; we
        // produced one start per parent node plus one final sentinel, which
        // is exactly the CSR layout we want.
        TrieIndex {
            order: order.to_vec(),
            widths,
            values,
            starts,
        }
    }

    /// The column order (schema positions per trie level).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of levels (the relation's arity).
    pub fn depth(&self) -> usize {
        self.order.len()
    }

    /// The children value range of `node` at level `j` (`j < depth-1`).
    fn children(&self, j: usize, node: usize) -> (usize, usize) {
        let s = &self.starts[j];
        (s[node] as usize, s[node + 1] as usize)
    }

    /// Point lookup: is the tuple (given in **schema order**) present?
    pub fn contains(&self, t: &[u64]) -> bool {
        self.locate(t).is_none()
    }

    /// Locate the gap containing a probe tuple (schema order), or `None`
    /// if the tuple is present.
    ///
    /// Returns the unique maximal σ-consistent dyadic gap box containing
    /// the probe (in **schema-order coordinates**, λ elsewhere), as the
    /// B-tree oracle of Appendix B.1 would.
    pub fn locate(&self, t: &[u64]) -> Option<DyadicBox> {
        let k = self.depth();
        let probe: Vec<u64> = self.order.iter().map(|&p| t[p]).collect();
        let (mut lo, mut hi) = (0usize, self.values[0].len());
        let mut path: Vec<u64> = Vec::with_capacity(k);
        for (j, &pv) in probe.iter().enumerate() {
            let vals = &self.values[j][lo..hi];
            match vals.binary_search(&pv) {
                Ok(pos) => {
                    path.push(pv);
                    if j + 1 == k {
                        return None; // full tuple present
                    }
                    let (nlo, nhi) = self.children(j, lo + pos);
                    lo = nlo;
                    hi = nhi;
                }
                Err(pos) => {
                    // pv falls in the gap between vals[pos-1] and vals[pos].
                    let pred = if pos == 0 { None } else { Some(vals[pos - 1]) };
                    let succ = vals.get(pos).copied();
                    let width = self.widths[j];
                    let glo = pred.map_or(0, |p| p + 1);
                    let ghi = succ.map_or((1u64 << width) - 1, |s| s - 1);
                    let piece = dyadic_piece_containing(pv, glo, ghi, width);
                    return Some(self.gap_box(&path, j, piece));
                }
            }
        }
        unreachable!("loop either returns a gap or detects membership")
    }

    /// Assemble the schema-order gap box for trie path `path` (levels
    /// `0..j`), gap piece `piece` at level `j`, λ below.
    fn gap_box(&self, path: &[u64], j: usize, piece: DyadicInterval) -> DyadicBox {
        let arity = self.depth();
        let mut b = DyadicBox::universe(arity);
        for (lvl, &v) in path.iter().enumerate() {
            b.set(self.order[lvl], DyadicInterval::point(v, self.widths[lvl]));
        }
        b.set(self.order[j], piece);
        b
    }

    /// Enumerate **all** gap boxes of the index (schema-order
    /// coordinates) — the set `B(R)` contributed by this index, used by
    /// `Tetris-Preloaded`. `O(N·k·d)` boxes.
    pub fn all_gap_boxes(&self) -> Vec<DyadicBox> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        let mut pieces = Vec::new();
        self.collect_gaps(
            0,
            0,
            self.values.first().map_or(0, |v| v.len()),
            &mut path,
            &mut pieces,
            &mut out,
        );
        out
    }

    /// Stream all gap boxes **directly in embedded coordinates**:
    /// `dim_map[p]` gives the output dimension of schema position `p`, and
    /// `scratch` (a `λ`-box of the output arity) is mutated in place — one
    /// component set per trie step instead of two full box constructions
    /// per gap. The boxes passed to `f` must be consumed immediately (the
    /// buffer is reused). Its order is the one
    /// [`boxstore::BoxTree::bulk_load_trie`] reproduces when it writes an
    /// SAO-consistent trie without streaming.
    pub fn for_each_gap_box(
        &self,
        dim_map: &[usize],
        scratch: &mut DyadicBox,
        f: &mut dyn FnMut(&DyadicBox),
    ) {
        debug_assert_eq!(dim_map.len(), self.depth());
        debug_assert!(self
            .order
            .iter()
            .all(|&p| scratch.get(dim_map[p]).is_lambda()));
        let mut pieces = Vec::new();
        self.stream_gaps(
            0,
            0,
            self.values.first().map_or(0, |v| v.len()),
            dim_map,
            scratch,
            &mut pieces,
            f,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn stream_gaps(
        &self,
        j: usize,
        lo: usize,
        hi: usize,
        dim_map: &[usize],
        scratch: &mut DyadicBox,
        pieces: &mut Vec<DyadicInterval>,
        f: &mut dyn FnMut(&DyadicBox),
    ) {
        let width = self.widths[j];
        let dim = dim_map[self.order[j]];
        let vals = &self.values[j][lo..hi];
        // Gaps around/between the children at this node.
        let mut pred = None;
        for &v in vals.iter().chain(std::iter::once(&u64::MAX)) {
            let succ = if v == u64::MAX { None } else { Some(v) };
            pieces.clear();
            range_gap_boxes_into(pred, succ, width, pieces);
            // Index loop: `f` borrows `scratch` mutably, so `pieces` cannot
            // be iterated by reference across the call.
            #[allow(clippy::needless_range_loop)]
            for k in 0..pieces.len() {
                scratch.set(dim, pieces[k]);
                f(scratch);
            }
            pred = succ;
        }
        scratch.set(dim, DyadicInterval::lambda());
        // Recurse into children.
        if j + 1 < self.depth() {
            for (pos, &v) in vals.iter().enumerate() {
                let (nlo, nhi) = self.children(j, lo + pos);
                scratch.set(dim, DyadicInterval::point(v, width));
                self.stream_gaps(j + 1, nlo, nhi, dim_map, scratch, pieces, f);
            }
            scratch.set(dim, DyadicInterval::lambda());
        }
    }

    fn collect_gaps(
        &self,
        j: usize,
        lo: usize,
        hi: usize,
        path: &mut Vec<u64>,
        pieces: &mut Vec<DyadicInterval>,
        out: &mut Vec<DyadicBox>,
    ) {
        let width = self.widths[j];
        let vals = &self.values[j][lo..hi];
        // Gaps around/between the children at this node.
        let mut pred = None;
        for &v in vals.iter().chain(std::iter::once(&u64::MAX)) {
            let succ = if v == u64::MAX { None } else { Some(v) };
            pieces.clear();
            range_gap_boxes_into(pred, succ, width, pieces);
            for &piece in pieces.iter() {
                out.push(self.gap_box(path, j, piece));
            }
            pred = succ;
        }
        // Recurse into children.
        if j + 1 < self.depth() {
            for (pos, &v) in vals.iter().enumerate() {
                let (nlo, nhi) = self.children(j, lo + pos);
                path.push(v);
                self.collect_gaps(j + 1, nlo, nhi, path, pieces, out);
                path.pop();
            }
        }
    }
}

/// The CSR levels, read by [`boxstore::BoxTree::bulk_load_trie`] to
/// write this index's gap boxes into a knowledge base without streaming
/// them one by one.
impl SortedTrie for TrieIndex {
    fn levels(&self) -> usize {
        self.depth()
    }

    fn width(&self, level: usize) -> u8 {
        self.widths[level]
    }

    fn values(&self, level: usize) -> &[u64] {
        &self.values[level]
    }

    fn starts(&self, level: usize) -> &[u32] {
        &self.starts[level]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;
    use dyadic::Space;

    /// The paper's running example (Figure 1a): R(A,B) = {3}×{1,3,5,7} ∪
    /// {1,3,5,7}×{3} over a 3-bit domain.
    fn figure_1_relation() -> Relation {
        let mut tuples = Vec::new();
        for b in [1u64, 3, 5, 7] {
            tuples.push(vec![3, b]);
        }
        for a in [1u64, 3, 5, 7] {
            tuples.push(vec![a, 3]);
        }
        Relation::new(Schema::uniform(&["A", "B"], 3), tuples)
    }

    #[test]
    fn lookup_and_locate() {
        let rel = figure_1_relation();
        let idx = TrieIndex::build(&rel, &[0, 1]);
        assert!(idx.contains(&[3, 5]));
        assert!(idx.contains(&[7, 3]));
        assert!(!idx.contains(&[2, 2]));
        let gap = idx.locate(&[2, 2]).unwrap();
        // A=2 is a gap between 1 and 3 at the first level ⇒ box ⟨010, λ⟩.
        assert_eq!(gap, DyadicBox::parse("010,λ").unwrap());
        assert!(idx.locate(&[3, 5]).is_none());
    }

    #[test]
    fn locate_second_level_gap() {
        let rel = figure_1_relation();
        let idx = TrieIndex::build(&rel, &[0, 1]);
        // A=3 exists; B=2 falls between 1 and 3 under A=3 ⇒ ⟨011, 010⟩.
        let gap = idx.locate(&[3, 2]).unwrap();
        assert_eq!(gap, DyadicBox::parse("011,010").unwrap());
        // B=6 falls between 5 and 7 under A=3 ⇒ ⟨011, 110⟩.
        let gap = idx.locate(&[3, 6]).unwrap();
        assert_eq!(gap, DyadicBox::parse("011,110").unwrap());
    }

    #[test]
    fn reversed_order_trie() {
        let rel = figure_1_relation();
        let idx = TrieIndex::build(&rel, &[1, 0]);
        assert_eq!(idx.order(), &[1, 0]);
        assert!(idx.contains(&[3, 5]));
        // Probe (2,2): B=2 is a gap (between 1 and 3) in the first trie
        // level ⇒ box with the *B* component constrained: ⟨λ, 010⟩.
        let gap = idx.locate(&[2, 2]).unwrap();
        assert_eq!(gap, DyadicBox::parse("λ,010").unwrap());
    }

    /// Union of gap boxes must be exactly the complement of the relation
    /// (the defining property of `B(R)`, §3.3).
    fn check_gaps_are_exact_complement(rel: &Relation, order: &[usize]) {
        let idx = TrieIndex::build(rel, order);
        let gaps = idx.all_gap_boxes();
        let widths = rel.schema().widths().to_vec();
        let space = Space::from_widths(&widths);
        space.for_each_point(|p| {
            let in_rel = rel.contains(p);
            let covered = gaps.iter().any(|g| g.contains_point(p, &space));
            assert_eq!(in_rel, !covered, "point {p:?} order {order:?}");
            // locate() agrees with membership and returns a covering gap.
            match idx.locate(p) {
                None => assert!(in_rel),
                Some(g) => {
                    assert!(!in_rel);
                    assert!(g.contains_point(p, &space));
                    assert!(gaps.contains(&g), "locate must return an enumerated gap");
                }
            }
        });
    }

    #[test]
    fn gap_boxes_cover_exactly_the_complement() {
        let rel = figure_1_relation();
        check_gaps_are_exact_complement(&rel, &[0, 1]);
        check_gaps_are_exact_complement(&rel, &[1, 0]);
    }

    #[test]
    fn empty_relation_gap_is_everything() {
        let rel = Relation::empty(Schema::uniform(&["A", "B"], 2));
        let idx = TrieIndex::build(&rel, &[0, 1]);
        let gaps = idx.all_gap_boxes();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0], DyadicBox::universe(2));
        assert_eq!(idx.locate(&[1, 2]).unwrap(), DyadicBox::universe(2));
    }

    #[test]
    fn full_relation_has_no_gaps() {
        let mut tuples = Vec::new();
        for a in 0..4u64 {
            for b in 0..4u64 {
                tuples.push(vec![a, b]);
            }
        }
        let rel = Relation::new(Schema::uniform(&["A", "B"], 2), tuples);
        let idx = TrieIndex::build(&rel, &[0, 1]);
        assert!(idx.all_gap_boxes().is_empty());
        assert!(idx.contains(&[2, 3]));
    }

    #[test]
    fn randomized_complement_property() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let arity = rng.gen_range(1..=3);
            let width = rng.gen_range(1..=3u8);
            let names = ["A", "B", "C"];
            let schema = Schema::uniform(&names[..arity], width);
            let count = rng.gen_range(0..20);
            let tuples: Vec<Vec<u64>> = (0..count)
                .map(|_| {
                    (0..arity)
                        .map(|_| rng.gen_range(0..(1u64 << width)))
                        .collect()
                })
                .collect();
            let rel = Relation::new(schema, tuples);
            // Random column order.
            let mut order: Vec<usize> = (0..arity).collect();
            for i in (1..arity).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            check_gaps_are_exact_complement(&rel, &order);
            let _ = trial;
        }
    }

    #[test]
    fn mixed_width_trie() {
        let schema = Schema::new(&["A", "B"], &[2, 4]);
        let rel = Relation::new(schema, vec![vec![1, 9], vec![3, 0]]);
        check_gaps_are_exact_complement(&rel, &[0, 1]);
        check_gaps_are_exact_complement(&rel, &[1, 0]);
    }
}
