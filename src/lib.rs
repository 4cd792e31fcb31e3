//! Facade crate re-exporting the full `tetris-join` workspace API.
//!
//! See the individual crates for details:
//! * [`dyadic`] — dyadic intervals/boxes and geometric resolution.
//! * [`boxstore`] — the multilevel dyadic tree knowledge base.
//! * [`relation`] — relations, trie & dyadic-tree indexes, gap oracles.
//! * [`query`] — hypergraphs, widths, AGM bound, tree decompositions.
//! * [`plan`] — the plan → prepare → execute pipeline and the query zoo.
//! * [`tetris`] — the Tetris algorithm and its variants.
//! * [`baseline`] — comparison join algorithms.
//! * [`obs`] — opt-in metrics: phase spans, counters, histograms.
//! * [`workload`] — instance generators for tests and benchmarks.

pub use baseline;
pub use boxstore;
pub use dyadic;
pub use obs;
pub use plan;
pub use query;
pub use relation;
pub use tetris_core as tetris;
pub use workload;
