//! Million-edge triangle listing — the paper's "beyond worst-case" claim
//! at social-network scale: a 10⁶-edge skewed graph streamed through the
//! on-disk loader, listed by Tetris-Preloaded, and verified against both
//! Leapfrog Triejoin and the sorted-adjacency ground truth.
//!
//! ```sh
//! cargo run --release --example million_triangles            # 10⁶ edges
//! cargo run --release --example million_triangles -- --edges 100000
//! cargo run --release --example million_triangles -- --threads 4 --seed 7
//! ```
//!
//! `--edges` sets the graph size, `--threads N` runs the listing under
//! `Descent::Parallel { threads: N }` (default 1 = sequential), and
//! `--seed` overrides the generator seed.

use std::time::Instant;
use tetris_join::plan::zoo;
use tetris_join::relation::io::read_tuples_streaming;
use tetris_join::relation::{Relation, Schema};
use tetris_join::tetris::{Descent, TetrisConfig};
use workload::graphs::{self, Graph};

fn usage(msg: &str) -> ! {
    eprintln!("million_triangles: {msg}");
    eprintln!("usage: million_triangles [--edges N] [--threads N] [--seed S]");
    std::process::exit(2);
}

fn main() {
    let mut target_edges: usize = 1_000_000;
    let mut threads: usize = 1;
    let mut seed: u64 = 42;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--edges" => {
                target_edges = value("--edges")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --edges value"))
            }
            "--threads" => {
                threads = value("--threads")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("bad --threads value"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed value"))
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    // 1. Grow a skewed (preferential-attachment) graph to exactly the
    //    requested edge count.
    let start = Instant::now();
    let graph = graphs::skewed_graph_with_edges(target_edges, 2, seed);
    println!(
        "generated: {} vertices, {} edges ({}-bit ids) in {:.1?}",
        graph.vertices,
        graph.edges.len(),
        graph.width,
        start.elapsed()
    );

    // 2. Round-trip through the on-disk format: save, then stream the
    //    edge list straight into the flat tuple arena (no per-line
    //    allocation) — the path real SNAP-style dumps take.
    let path = std::env::temp_dir().join(format!(
        "million_triangles_edges_{}.tsv",
        std::process::id()
    ));
    let start = Instant::now();
    graph.save(&path).expect("save edge list");
    let save_t = start.elapsed();
    let start = Instant::now();
    let loaded = Graph::load(&path).expect("reload edge list");
    assert_eq!(
        loaded.edges, graph.edges,
        "on-disk round trip must be exact"
    );
    println!(
        "on-disk round trip: saved in {save_t:.1?}, streamed back in {:.1?} ({} bytes)",
        start.elapsed(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    // The same file also loads as a plain relation through the streaming
    // callback API (count edges without materializing anything).
    let schema = Schema::uniform(&["U", "V"], 63);
    let file = std::fs::File::open(&path).expect("reopen edge list");
    let mut streamed = 0usize;
    read_tuples_streaming(file, &schema, |_| {
        streamed += 1;
        Ok(())
    })
    .expect("stream edge list");
    assert_eq!(streamed, graph.edges.len());
    let _ = std::fs::remove_file(&path);

    // 3. Ground truth via the hardened sorted-adjacency counter.
    let start = Instant::now();
    let truth = graph.count_triangles();
    println!(
        "ground truth: {truth} triangles in {:.1?} (sorted adjacency + binary search)",
        start.elapsed()
    );

    // 4. Tetris: ordered triangle listing (u < v < w) via the self-join
    //    E(A,B) ⋈ E(B,C) ⋈ E(A,C) over geometric resolutions —
    //    sequential, or spread over the work-stealing pool. The whole
    //    execution goes through the plan layer's generic pipeline.
    let edges: Relation = graph.edge_relation();
    let start = Instant::now();
    let join = zoo::triangle(&edges).prepare();
    let index_t = start.elapsed();
    let cfg = TetrisConfig {
        preload: true,
        descent: if threads == 1 {
            Descent::Incremental
        } else {
            Descent::Parallel { threads }
        },
        ..Default::default()
    };
    let run = join.execute(cfg);
    let out = &run.output;
    let mode = if threads == 1 {
        "sequential".to_string()
    } else {
        format!(
            "{threads} workers, {} tasks, {} donations",
            out.stats.par_tasks, out.stats.par_donations
        )
    };
    println!(
        "Tetris-Preloaded [{mode}]: {} triangles in {:.1}s solve + {:.1}s preload \
         (+{index_t:.1?} indexing, {} resolutions)",
        out.tuples.len(),
        run.solve_s,
        run.preload_s,
        out.stats.resolutions
    );
    assert_eq!(
        out.tuples.len() as u64,
        truth,
        "tetris output must equal the hardened ground truth"
    );

    // 5. Leapfrog Triejoin for comparison, answering the same plan.
    let start = Instant::now();
    let (lf, _) = join.leapfrog();
    println!(
        "Leapfrog Triejoin: {} triangles in {:.1?}",
        lf.len(),
        start.elapsed()
    );
    assert_eq!(lf.len() as u64, truth);
    assert_eq!(lf, out.tuples, "both engines list in SAO-lex order");

    println!("\nall listings agree with the ground truth ✓");
}
