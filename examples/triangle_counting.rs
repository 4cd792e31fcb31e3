//! Triangle listing on a skewed-degree graph — the workload the paper's
//! introduction motivates (social-network motif counting), comparing
//! Tetris against a worst-case-optimal baseline and a binary hash plan.
//!
//! ```sh
//! cargo run --release --example triangle_counting
//! ```

use baseline::{leapfrog::leapfrog_join, pairwise, JoinSpec};
use std::time::Instant;
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::Tetris;
use workload::graphs;

fn main() {
    // A 600-vertex skewed graph: hubs make binary plans materialize far
    // more than the output (the paper's footnote-1 scenario).
    let graph = graphs::skewed_graph(600, 3, 42);
    let edges = graph.edge_relation();
    let width = graph.width;
    println!(
        "graph: {} vertices, {} edges ({}-bit ids), {} triangles (ground truth)",
        graph.vertices,
        graph.edges.len(),
        width,
        graph.count_triangles()
    );

    // Ordered triangle listing (u < v < w) via the self-join of E.
    let join = QueryPlanBuilder::new(width)
        .atom("E1", &edges, &["A", "B"])
        .atom("E2", &edges, &["B", "C"])
        .atom("E3", &edges, &["A", "C"])
        .build();
    let start = Instant::now();
    let oracle = join.oracle();
    let out = Tetris::reloaded(&oracle).run();
    let tetris_time = start.elapsed();
    println!(
        "\nTetris-Reloaded: {} triangles in {:.1?} ({} resolutions, {} gap boxes loaded)",
        out.tuples.len(),
        tetris_time,
        out.stats.resolutions,
        out.stats.loaded_boxes
    );

    let spec = JoinSpec::new(&["A", "B", "C"], &[width; 3])
        .atom("E1", &edges, &["A", "B"])
        .atom("E2", &edges, &["B", "C"])
        .atom("E3", &edges, &["A", "C"]);
    let start = Instant::now();
    let (lf, _) = leapfrog_join(&spec);
    println!(
        "Leapfrog Triejoin: {} triangles in {:.1?}",
        lf.len(),
        start.elapsed()
    );

    let start = Instant::now();
    let (hash, stats) = pairwise::pairwise_join(&spec, &[0, 1, 2], pairwise::StepAlgo::Hash);
    println!(
        "Binary hash plan: {} triangles in {:.1?} (max intermediate {} tuples — the blowup)",
        hash.len(),
        start.elapsed(),
        stats.max_intermediate
    );

    assert_eq!(out.tuples.len(), lf.len());
    assert_eq!(lf.len(), hash.len());
    assert_eq!(lf.len() as u64, graph.count_triangles());
    println!("\nall three algorithms agree ✓");
}
