//! The join gap oracle: natural-join queries as BCP instances
//! (paper §3.3–3.4, Proposition 3.6).
//!
//! Every relation contributes gap boxes over its own attributes; extending
//! the missing coordinates with `λ` wildcards embeds them in the query's
//! output space. On input `B(Q) = ⋃_R B(R)`, the BCP output *is* the join
//! output. The [`JoinOracle`] performs that embedding lazily: Tetris
//! probes it with candidate tuples and receives maximal gap boxes in SAO
//! coordinates.

use crate::{Index, IndexedRelation};
use boxstore::{BoxOracle, BoxTree};
use dyadic::{DyadicBox, Space};

/// One atom of a join query: an indexed relation plus the mapping from
/// its schema positions to the query's SAO dimensions.
pub struct Atom<'a> {
    rel: &'a IndexedRelation,
    /// `dims[j]` = SAO dimension of the atom's `j`-th schema position.
    dims: Vec<usize>,
    name: String,
}

impl<'a> Atom<'a> {
    /// The indexed relation.
    pub fn relation(&self) -> &IndexedRelation {
        self.rel
    }

    /// SAO dimension per schema position.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The atom's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Embed a schema-order gap box into the query space.
    fn embed(&self, local: &DyadicBox, n: usize) -> DyadicBox {
        let mut out = DyadicBox::universe(n);
        for (j, &dim) in self.dims.iter().enumerate() {
            out.set(dim, local.get(j));
        }
        out
    }

    /// Project an SAO-space point to the atom's schema order.
    fn project(&self, point: &[u64]) -> Vec<u64> {
        self.dims.iter().map(|&d| point[d]).collect()
    }
}

/// A natural-join query bound to indexed relations, exposed as a
/// [`BoxOracle`] over the query's output space.
///
/// Dimensions are ordered by the chosen **splitting attribute order**
/// (SAO): dimension 0 is split first by `TetrisSkeleton`. Build one with
/// [`JoinOracle::new`], listing the SAO attributes, then bind atoms.
///
/// ```
/// use relation::{IndexedRelation, JoinOracle, Relation, Schema};
///
/// let r = IndexedRelation::new(Relation::new(
///     Schema::uniform(&["A", "B"], 2),
///     vec![vec![0, 1], vec![1, 1]],
/// ));
/// let s = IndexedRelation::new(Relation::new(
///     Schema::uniform(&["B", "C"], 2),
///     vec![vec![1, 3]],
/// ));
/// let q = JoinOracle::new(&["A", "B", "C"], &[2, 2, 2])
///     .atom("R", &r, &["A", "B"])
///     .atom("S", &s, &["B", "C"]);
/// assert_eq!(q.attributes(), &["A", "B", "C"]);
/// ```
pub struct JoinOracle<'a> {
    space: Space,
    attrs: Vec<String>,
    atoms: Vec<Atom<'a>>,
}

impl<'a> JoinOracle<'a> {
    /// Start building a query over the given SAO attribute list and
    /// per-attribute bit widths.
    pub fn new(sao: &[&str], widths: &[u8]) -> Self {
        assert_eq!(sao.len(), widths.len());
        let attrs: Vec<String> = sao.iter().map(|s| s.to_string()).collect();
        for (i, a) in attrs.iter().enumerate() {
            assert!(!attrs[..i].contains(a), "duplicate attribute {a:?} in SAO");
        }
        JoinOracle {
            space: Space::from_widths(widths),
            attrs,
            atoms: Vec::new(),
        }
    }

    /// Bind an atom: `attrs[j]` names the query attribute played by the
    /// relation's `j`-th schema position.
    ///
    /// # Panics
    /// If an attribute is unknown, arity mismatches, or widths disagree.
    pub fn atom(mut self, name: &str, rel: &'a IndexedRelation, attrs: &[&str]) -> Self {
        assert_eq!(
            attrs.len(),
            rel.relation().arity(),
            "atom {name}: attribute list must match relation arity"
        );
        let dims: Vec<usize> = attrs
            .iter()
            .map(|a| {
                self.attrs
                    .iter()
                    .position(|x| x == a)
                    .unwrap_or_else(|| panic!("atom {name}: unknown attribute {a:?}"))
            })
            .collect();
        for (j, &d) in dims.iter().enumerate() {
            assert_eq!(
                rel.relation().schema().width(j),
                self.space.width(d),
                "atom {name}: width mismatch on attribute {:?}",
                attrs[j]
            );
        }
        self.atoms.push(Atom {
            rel,
            dims,
            name: name.to_string(),
        });
        self
    }

    /// The query's attributes in SAO order.
    pub fn attributes(&self) -> &[String] {
        &self.attrs
    }

    /// The bound atoms.
    pub fn atoms(&self) -> &[Atom<'a>] {
        &self.atoms
    }

    /// The full embedded gap set `B(Q)` (for `Tetris-Preloaded`).
    pub fn all_gap_boxes(&self) -> Vec<DyadicBox> {
        let n = self.space.n();
        let mut out = Vec::new();
        for a in &self.atoms {
            for g in a.rel.all_gap_boxes() {
                out.push(a.embed(&g, n));
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl BoxOracle for JoinOracle<'_> {
    fn space(&self) -> Space {
        self.space
    }

    fn boxes_containing_into(&self, point: &DyadicBox, out: &mut Vec<DyadicBox>) {
        debug_assert!(
            point.is_unit(&self.space),
            "oracle probes must be unit boxes"
        );
        out.clear();
        let p = point.to_point(&self.space);
        let n = self.space.n();
        for a in &self.atoms {
            for g in a.rel.gaps_containing(&a.project(&p)) {
                out.push(a.embed(&g, n));
            }
        }
        out.sort();
        out.dedup();
        debug_assert!(out.iter().all(|b| b.contains(point)));
    }

    fn enumerate(&self) -> Option<Vec<DyadicBox>> {
        Some(self.all_gap_boxes())
    }

    fn for_each_box(&self, f: &mut dyn FnMut(&DyadicBox)) -> bool {
        // Streams without the sort+dedup of `all_gap_boxes` — gap boxes
        // shared by several atoms are simply repeated, which the
        // deduplicating consumers this feeds (preload into a `BoxTree`)
        // absorb for free. Each atom's gaps are written straight into SAO
        // coordinates through one reused scratch box.
        let n = self.space.n();
        let mut scratch = DyadicBox::universe(n);
        for a in &self.atoms {
            a.rel.for_each_gap_box(&a.dims, &mut scratch, f);
        }
        true
    }

    fn preload_into(&self, kb: &mut BoxTree) -> Option<u64> {
        // The `for_each_box` stream's order, atom by atom and index by
        // index, so the store matches a streamed preload. Tries whose
        // levels follow the SAO are written list by list; rotated tries
        // and dyadic-tree indexes stream their boxes.
        let n = self.space.n();
        let mut scratch = DyadicBox::universe(n);
        let mut novel = 0u64;
        let mut dims = Vec::with_capacity(n);
        for a in &self.atoms {
            for ix in a.rel.indexes() {
                if let Index::Trie(trie) = ix {
                    // The SAO dimension of each trie level: strictly
                    // increasing means the trie follows the SAO.
                    dims.clear();
                    dims.extend(trie.order().iter().map(|&p| a.dims[p]));
                    if dims.windows(2).all(|w| w[0] < w[1]) {
                        novel += kb.bulk_load_trie(trie, &dims);
                        continue;
                    }
                }
                ix.for_each_gap_box(&a.dims, &mut scratch, &mut |b| {
                    if kb.insert(b) {
                        novel += 1;
                    }
                });
            }
        }
        Some(novel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Schema};
    use boxstore::coverage;

    /// Figure 5's instance: R(A,B), S(B,C), T(A,C) each contain pairs
    /// whose MSBs are complementary ⇒ the triangle join is empty and six
    /// gap boxes cover everything.
    fn msb_triangle(d: u8) -> (IndexedRelation, IndexedRelation, IndexedRelation) {
        let dom = 1u64 << d;
        let msb = |v: u64| v >> (d - 1);
        let mut pairs = Vec::new();
        for a in 0..dom {
            for b in 0..dom {
                if msb(a) != msb(b) {
                    pairs.push(vec![a, b]);
                }
            }
        }
        let mk = |n1: &str, n2: &str| {
            IndexedRelation::with_dyadic(Relation::new(
                Schema::uniform(&[n1, n2], d),
                pairs.clone(),
            ))
        };
        (mk("A", "B"), mk("B", "C"), mk("A", "C"))
    }

    #[test]
    fn triangle_oracle_probes() {
        let (r, s, t) = msb_triangle(2);
        let q = JoinOracle::new(&["A", "B", "C"], &[2, 2, 2])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"]);
        let space = q.space();
        let mut hits = Vec::new();
        // Every point is covered by some gap (the output is empty).
        space.for_each_point(|p| {
            let probe = DyadicBox::from_point(p, &space);
            q.boxes_containing_into(&probe, &mut hits);
            assert!(!hits.is_empty(), "point {p:?} must be covered");
            let joins = r.relation().contains(&[p[0], p[1]])
                && s.relation().contains(&[p[1], p[2]])
                && t.relation().contains(&[p[0], p[2]]);
            assert!(!joins, "point {p:?} is covered but joins");
        });
    }

    #[test]
    fn embedded_gaps_match_brute_force_join() {
        // R(A,B) ⋈ S(B,C): BCP output over B(Q) == join output (Prop 3.6).
        let r = IndexedRelation::new(Relation::new(
            Schema::uniform(&["A", "B"], 2),
            vec![vec![0, 1], vec![1, 1], vec![2, 3]],
        ));
        let s = IndexedRelation::new(Relation::new(
            Schema::uniform(&["B", "C"], 2),
            vec![vec![1, 0], vec![1, 3], vec![2, 2]],
        ));
        let q = JoinOracle::new(&["A", "B", "C"], &[2, 2, 2])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"]);
        let space = q.space();
        let gaps = q.all_gap_boxes();
        let bcp_out = coverage::uncovered_points(&gaps, &space);
        // Brute-force join.
        let mut expect = Vec::new();
        space.for_each_point(|p| {
            if r.relation().contains(&[p[0], p[1]]) && s.relation().contains(&[p[1], p[2]]) {
                expect.push(p.to_vec());
            }
        });
        assert_eq!(bcp_out, expect);
        assert!(!expect.is_empty(), "test instance should have output");
    }

    #[test]
    fn oracle_gaps_agree_with_preloaded_gaps() {
        let r = IndexedRelation::new(Relation::new(
            Schema::uniform(&["A", "B"], 2),
            vec![vec![0, 1], vec![3, 2]],
        ));
        let q = JoinOracle::new(&["B", "A"], &[2, 2]).atom("R", &r, &["A", "B"]);
        let space = q.space();
        let all = q.all_gap_boxes();
        let mut hits = Vec::new();
        space.for_each_point(|p| {
            let probe = DyadicBox::from_point(p, &space);
            q.boxes_containing_into(&probe, &mut hits);
            for g in &hits {
                assert!(all.contains(g), "probe gap {g} missing from enumeration");
                assert!(g.contains(&probe));
            }
        });
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn unknown_attribute_panics() {
        let r = IndexedRelation::new(Relation::new(
            Schema::uniform(&["A", "B"], 2),
            vec![vec![0, 1]],
        ));
        let _ = JoinOracle::new(&["A", "B"], &[2, 2]).atom("R", &r, &["A", "Z"]);
    }
}
