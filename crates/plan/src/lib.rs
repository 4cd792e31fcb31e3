//! The query-plan layer: one generic **plan → prepare → execute**
//! pipeline from any query hypergraph to a running Tetris (or the
//! leapfrog baseline), replacing per-query hand wiring.
//!
//! The pipeline has three stages, mirroring the paper's machinery:
//!
//! 1. **Plan** ([`QueryPlan`], built by [`QueryPlanBuilder`]): pure
//!    analysis — collect the attributes, build the query hypergraph, and
//!    choose the **splitting attribute order** (reverse GYO order for
//!    α-acyclic queries per Theorem D.8, reverse minimum-induced-width
//!    elimination order otherwise per Theorem 4.9, or an order forced
//!    with [`QueryPlanBuilder::sao`]). The plan also carries the
//!    execution config (preload, descent mode, observability).
//! 2. **Prepare** ([`QueryPlan::prepare`] → [`PreparedQuery`]): build the
//!    physical artifacts — one trie index per atom in SAO-consistent
//!    column order (σ-consistent gap boxes, Definition 3.11), plus any
//!    [`ExtraIndex`]es requested.
//! 3. **Execute** ([`PreparedQuery::run`] / `for_each_output` /
//!    `check_cover`): construct the [`relation::JoinOracle`] and run
//!    [`tetris_core::Tetris`] over it; or derive a
//!    [`baseline::JoinSpec`] over the same SAO and bindings and run
//!    [`baseline::leapfrog::leapfrog_join`] from the **same plan**.
//!
//! Because the SAO and the atom bindings are fixed at plan time, every
//! execution path (any descent mode or thread count) sees the same
//! geometric problem and produces bit-identical witnesses — plan
//! choice cannot change the witness order for a fixed SAO (see
//! DESIGN.md §10).
//!
//! ```
//! use relation::{Relation, Schema};
//! use plan::QueryPlanBuilder;
//!
//! let r = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![1, 2]]);
//! let s = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![2, 3]]);
//! let prepared = QueryPlanBuilder::new(2)
//!     .atom("R", &r, &["A", "B"])
//!     .atom("S", &s, &["B", "C"])
//!     .build();
//! let run = prepared.run();
//! assert_eq!(
//!     prepared.reorder_to(&["A", "B", "C"], &run.output.tuples),
//!     vec![vec![1, 2, 3]]
//! );
//! // The leapfrog baseline answers from the same plan.
//! let (lf, _) = prepared.leapfrog();
//! assert_eq!(lf.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ir;
mod prepared;
pub mod zoo;

pub use ir::{QueryPlan, QueryPlanBuilder, SaoSource};
pub use prepared::{ExtraIndex, PlanRun, PreparedQuery};
