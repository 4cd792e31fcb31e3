//! Quickstart: evaluate a triangle join with Tetris in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use relation::{Relation, Schema};
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::Tetris;

fn main() {
    // A small directed graph: edges as a binary relation over 4-bit ids.
    let edges = Relation::new(
        Schema::uniform(&["src", "dst"], 4),
        vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![2, 3],
            vec![1, 3],
            vec![3, 4],
            vec![2, 4],
        ],
    );

    // The triangle query Q(A,B,C) = E(A,B) ⋈ E(B,C) ⋈ E(A,C).
    // The plan picks the splitting attribute order and builds
    // SAO-consistent trie indexes (the paper's σ-consistent gap boxes).
    let join = QueryPlanBuilder::new(4)
        .atom("E1", &edges, &["A", "B"])
        .atom("E2", &edges, &["B", "C"])
        .atom("E3", &edges, &["A", "C"])
        .build();
    println!("query hypergraph: {}", join.hypergraph());
    println!("chosen SAO:       {:?}", join.sao());

    // Tetris-Reloaded: the certificate-sensitive variant — gap boxes are
    // loaded from the indexes only as the proof needs them.
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();

    let triangles = join.reorder_to(&["A", "B", "C"], &out.tuples);
    println!("\ntriangles (A, B, C):");
    for t in &triangles {
        println!("  {:?}", t);
    }
    println!("\nexecution: {}", out.stats);
    assert_eq!(triangles.len(), 3, "this graph has 3 directed triangles");
}
