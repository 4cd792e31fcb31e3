//! In-memory relations: sorted, deduplicated tuple sets over a schema.
//!
//! Tuples live in a single **flat row-major `u64` arena** (`count ×
//! arity` values) rather than a `Vec<Vec<u64>>`: one allocation per
//! relation instead of one per tuple, cache-friendly scans, and a direct
//! hand-off from the streaming loader (`crate::io::read_tuples_streaming`)
//! at graph scale (10⁵–10⁶ edges).

use crate::Schema;
use std::fmt;

/// A relation instance: a set of tuples over a [`Schema`].
///
/// Tuples are kept sorted lexicographically in schema order, which gives
/// `O(log N)` membership tests and lets indexes be built in linear passes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    schema: Schema,
    /// Row-major tuple arena: `len = count · arity`, rows sorted
    /// lexicographically and deduplicated.
    data: Vec<u64>,
}

/// Sort the rows of a flat row-major arena lexicographically and drop
/// duplicates. Fast path: a single `O(N)` scan detects already
/// strictly-sorted input (the common case for generator output) and skips
/// the index sort entirely.
fn sort_dedup_rows(data: &mut Vec<u64>, arity: usize) {
    debug_assert!(arity > 0);
    debug_assert_eq!(data.len() % arity, 0);
    let rows = data.len() / arity;
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    if (1..rows).all(|i| row(i - 1) < row(i)) {
        return;
    }
    let mut idx: Vec<usize> = (0..rows).collect();
    idx.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    let mut out = Vec::with_capacity(data.len());
    for (j, &i) in idx.iter().enumerate() {
        if j > 0 && row(idx[j - 1]) == row(i) {
            continue;
        }
        out.extend_from_slice(row(i));
    }
    *data = out;
}

impl Relation {
    /// Build a relation, validating, sorting, and deduplicating the tuples.
    ///
    /// # Panics
    /// If any tuple fails schema validation.
    pub fn new(schema: Schema, tuples: Vec<Vec<u64>>) -> Self {
        // Arity mismatches must be caught per tuple (a ragged input would
        // otherwise be misread as a flat-length error); range validation
        // happens once, in `from_flat`.
        let mut data = Vec::with_capacity(tuples.len() * schema.arity());
        for t in &tuples {
            if t.len() != schema.arity() {
                let e = schema.check_tuple(t).expect_err("arity mismatch");
                panic!("invalid tuple {t:?} for schema {schema}: {e}");
            }
            data.extend_from_slice(t);
        }
        Self::from_flat(schema, data)
    }

    /// Build a relation from a flat row-major arena (`count · arity`
    /// values) — the allocation-free path the streaming loader and the
    /// graph workloads feed. Rows are validated, sorted, and deduplicated
    /// in place; already-sorted input costs one `O(N)` scan.
    ///
    /// # Panics
    /// If `data.len()` is not a multiple of the arity, or any row fails
    /// schema validation.
    pub fn from_flat(schema: Schema, mut data: Vec<u64>) -> Self {
        let arity = schema.arity();
        assert_eq!(
            data.len() % arity,
            0,
            "flat tuple data length {} is not a multiple of the arity {arity}",
            data.len()
        );
        for t in data.chunks_exact(arity) {
            if let Err(e) = schema.check_tuple(t) {
                panic!("invalid tuple {t:?} for schema {schema}: {e}");
            }
        }
        sort_dedup_rows(&mut data, arity);
        Relation { schema, data }
    }

    /// The empty relation over a schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            data: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterate over the tuples (sorted lexicographically in schema order)
    /// as arena slices.
    pub fn tuples(&self) -> std::slice::ChunksExact<'_, u64> {
        self.data.chunks_exact(self.arity())
    }

    /// The `i`-th tuple (rows are sorted lexicographically).
    pub fn tuple(&self, i: usize) -> &[u64] {
        let k = self.arity();
        &self.data[i * k..(i + 1) * k]
    }

    /// The raw row-major tuple arena (`len() · arity()` values).
    pub fn flat_data(&self) -> &[u64] {
        &self.data
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: &[u64]) -> bool {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.tuple(mid).cmp(t) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The tuples re-ordered by the given column permutation and sorted in
    /// that order, as a flat row-major arena — the build input for a
    /// [`crate::TrieIndex`] and the leapfrog baseline's atom state.
    ///
    /// `order[k]` is the schema position providing the `k`-th column.
    pub fn flat_in_order(&self, order: &[usize]) -> Vec<u64> {
        assert_eq!(
            order.len(),
            self.arity(),
            "order must be a full permutation"
        );
        let mut seen = vec![false; self.arity()];
        for &p in order {
            assert!(p < self.arity() && !seen[p], "order must be a permutation");
            seen[p] = true;
        }
        let mut out = Vec::with_capacity(self.data.len());
        for t in self.tuples() {
            out.extend(order.iter().map(|&p| t[p]));
        }
        sort_dedup_rows(&mut out, self.arity());
        out
    }

    /// Project onto a subset of attribute positions (result deduplicated).
    pub fn project(&self, positions: &[usize]) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = self
            .tuples()
            .map(|t| positions.iter().map(|&p| t[p]).collect())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{} [{} tuples]", self.schema, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Relation {
        Relation::new(
            Schema::uniform(&["A", "B"], 3),
            vec![vec![3, 1], vec![3, 5], vec![1, 3], vec![3, 1]],
        )
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let rel = r();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.tuple(0), &[1, 3]);
        assert_eq!(rel.tuples().next().unwrap(), &[1, 3]);
        assert!(rel.contains(&[3, 5]));
        assert!(!rel.contains(&[5, 3]));
    }

    #[test]
    fn flat_construction_matches_nested() {
        let nested = r();
        let flat = Relation::from_flat(
            Schema::uniform(&["A", "B"], 3),
            vec![3, 1, 3, 5, 1, 3, 3, 1],
        );
        assert_eq!(nested, flat);
        assert_eq!(flat.flat_data(), &[1, 3, 3, 1, 3, 5]);
    }

    #[test]
    fn already_sorted_flat_input_is_kept_verbatim() {
        let rel = Relation::from_flat(Schema::uniform(&["A", "B"], 3), vec![0, 1, 0, 2, 4, 7]);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.flat_data(), &[0, 1, 0, 2, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of the arity")]
    fn ragged_flat_input_rejected() {
        let _ = Relation::from_flat(Schema::uniform(&["A", "B"], 3), vec![1, 2, 3]);
    }

    #[test]
    fn reordered_tuples() {
        let rel = r();
        assert_eq!(rel.flat_in_order(&[1, 0]), vec![1, 3, 3, 1, 5, 3]);
    }

    #[test]
    fn projection_dedups() {
        let rel = r();
        assert_eq!(rel.project(&[0]), vec![vec![1], vec![3]]);
        assert_eq!(rel.project(&[1]), vec![vec![1], vec![3], vec![5]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_domain_tuple_rejected() {
        let _ = Relation::new(Schema::uniform(&["A"], 2), vec![vec![4]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_domain_flat_tuple_rejected() {
        let _ = Relation::from_flat(Schema::uniform(&["A"], 2), vec![4]);
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::empty(Schema::uniform(&["A", "B"], 3));
        assert!(rel.is_empty());
        assert!(!rel.contains(&[0, 0]));
    }
}
