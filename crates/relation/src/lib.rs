//! Relations, indexes, and gap-box extraction for the Tetris join
//! algorithm.
//!
//! The paper's key abstraction (§3.2, Appendix B) is that **a database
//! index is a collection of gap boxes**: dyadic boxes whose union is
//! exactly the complement of the relation. This crate builds that
//! abstraction from scratch:
//!
//! * [`Relation`] — a set of integer tuples over a [`Schema`] with
//!   per-attribute bit widths;
//! * [`TrieIndex`] — a sorted search-trie (the in-memory equivalent of a
//!   B-tree) in an arbitrary column order; its gaps are the σ-consistent
//!   boxes of Figures 1 and 3a, and its CSR levels
//!   ([`boxstore::SortedTrie`]) let a knowledge base write them in bulk;
//! * [`DyadicTreeIndex`] — a quadtree-style binary-space-partition index;
//!   its gaps are the fat boxes of Figure 3b that make certificates small;
//! * [`IndexedRelation`] — a relation with **any number of indexes**, whose
//!   gap sets are pooled (the paper's "multiple indices per relation");
//! * [`JoinOracle`] — the bridge to the algorithm: given a natural-join
//!   query, it answers probe-point queries with maximal gap boxes embedded
//!   in the query's SAO coordinates (Algorithm 2, line 4), and for
//!   `Tetris-Preloaded` loads all of them into the knowledge base
//!   ([`boxstore::BoxOracle::preload_into`]): tries whose levels follow
//!   the SAO are written list by list, every other index box by box.
//!
//! ```
//! use relation::{Relation, Schema, IndexedRelation};
//!
//! // R(A,B) over 3-bit domains with a (A,B)-ordered trie index.
//! let schema = Schema::new(&["A", "B"], &[3, 3]);
//! let r = Relation::new(schema, vec![vec![3, 1], vec![3, 5], vec![1, 3]]);
//! let idx = IndexedRelation::with_trie(r, &[0, 1]);
//! // (2, 0) is absent: some gap box contains it.
//! assert!(!idx.relation().contains(&[2, 0]));
//! assert!(!idx.gaps_containing(&[2, 0]).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dyadic_index;
mod indexed;
pub mod io;
mod join;
mod rel;
mod schema;
pub(crate) mod trie;

pub use dyadic_index::DyadicTreeIndex;
pub use indexed::{Index, IndexedRelation};
pub use join::{Atom, JoinOracle};
pub use rel::Relation;
pub use schema::Schema;
pub use trie::TrieIndex;
