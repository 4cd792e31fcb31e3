//! Differential wall for the large-graph tier: Tetris triangle listing
//! vs Leapfrog Triejoin vs the hardened sorted-adjacency ground truth on
//! random, skewed, and power-law graphs across seeds — 10³–10⁴ edges in
//! CI, 10⁵ behind `--ignored` (run with `cargo test -- --ignored`).

use baseline::{leapfrog::leapfrog_join, JoinSpec};
use tetris_join::plan::zoo::{self, TRIANGLE_ATTRS};
use tetris_join::relation::Relation;
use tetris_join::tetris::{Descent, Tetris};
use workload::graphs::{self, Graph};

/// The triangle query `E(A,B) ⋈ E(B,C) ⋈ E(A,C)` for leapfrog, bound by
/// hand so the baseline side stays independent of the plan it checks.
fn triangle_spec(edges: &Relation) -> JoinSpec<'_> {
    let w = edges.schema().width(0);
    JoinSpec::new(&["A", "B", "C"], &[w; 3])
        .atom("E1", edges, &["A", "B"])
        .atom("E2", edges, &["B", "C"])
        .atom("E3", edges, &["A", "C"])
}

/// List triangles three ways and assert full agreement; returns the count.
fn check_graph(label: &str, g: &Graph) -> u64 {
    let edges = g.edge_relation();
    let truth = g.count_triangles();

    let join = zoo::triangle(&edges).prepare();
    let oracle = join.oracle();
    let out = Tetris::preloaded(&oracle).run();
    // The SAO may reorder (A,B,C); compare as ordered (u < v < w) tuples.
    let tetris_tuples = join.reorder_to(&TRIANGLE_ATTRS, &out.tuples);

    let (lf, _) = leapfrog_join(&triangle_spec(&edges));

    assert_eq!(
        tetris_tuples, lf,
        "{label}: tetris and leapfrog listings differ"
    );
    assert_eq!(
        lf.len() as u64,
        truth,
        "{label}: listings disagree with the hardened ground truth"
    );
    for t in &lf {
        assert!(
            t[0] < t[1] && t[1] < t[2],
            "{label}: listing {t:?} is not an ordered triangle"
        );
    }
    truth
}

#[test]
fn random_graphs_across_seeds() {
    for seed in [1u64, 2, 3] {
        for edges in [1_000usize, 10_000] {
            let g = graphs::random_graph((edges / 2) as u64, edges, seed);
            check_graph(&format!("random seed={seed} edges={edges}"), &g);
        }
    }
}

#[test]
fn skewed_graphs_across_seeds() {
    let mut some_triangles = false;
    for seed in [7u64, 8, 9] {
        for edges in [1_000usize, 10_000] {
            let g = graphs::skewed_graph_with_edges(edges, 2, seed);
            some_triangles |= check_graph(&format!("skewed seed={seed} edges={edges}"), &g) > 0;
        }
    }
    assert!(some_triangles, "skewed instances should contain triangles");
}

#[test]
fn power_law_graphs_across_seeds() {
    let mut some_triangles = false;
    for seed in [11u64, 12] {
        for edges in [1_000usize, 10_000] {
            let g = graphs::power_law_graph((edges / 2) as u64, 0.8, edges, seed);
            some_triangles |= check_graph(&format!("power-law seed={seed} edges={edges}"), &g) > 0;
        }
    }
    assert!(
        some_triangles,
        "power-law instances should contain triangles"
    );
}

#[test]
fn loader_roundtrip_preserves_listings() {
    // The differential property must survive the on-disk round trip.
    let g = graphs::skewed_graph_with_edges(2_000, 2, 5);
    let mut buf = Vec::new();
    g.save_to(&mut buf).unwrap();
    let back = Graph::load_from(buf.as_slice()).unwrap();
    assert_eq!(
        check_graph("roundtrip original", &g),
        check_graph("roundtrip loaded", &back)
    );
}

/// Parallel-vs-sequential triangle listings: the work-stealing descent at
/// 2/4/8 workers must produce the bit-identical output tuple sequence on
/// every graph family. Seeds are printed so a CI failure reproduces
/// locally (the generators are deterministic per seed).
#[test]
fn parallel_listings_match_sequential_across_seeds() {
    for seed in [31u64, 32] {
        for (kind, g) in [
            ("random", graphs::random_graph(1_000, 2_000, seed)),
            ("skewed", graphs::skewed_graph_with_edges(2_000, 2, seed)),
            (
                "power-law",
                graphs::power_law_graph(1_000, 0.8, 2_000, seed),
            ),
        ] {
            let edges = g.edge_relation();
            let join = zoo::triangle(&edges).prepare();
            let oracle = join.oracle();
            let seq = Tetris::preloaded(&oracle).run();
            assert_eq!(seq.tuples.len() as u64, g.count_triangles());
            for threads in [2usize, 4, 8] {
                let par = Tetris::preloaded(&oracle)
                    .descent(Descent::Parallel { threads })
                    .run();
                assert_eq!(
                    par.tuples, seq.tuples,
                    "{kind} seed={seed} threads={threads}: parallel listing \
                     diverges from sequential"
                );
                assert_eq!(par.stats.outputs, seq.stats.outputs);
            }
        }
    }
}

/// The parallel-descent target: ≥ 2× at 4 workers on the 10⁵-edge
/// skewed-graph triangle workload. Wall-clock scaling needs ≥ 4 physical
/// cores — on smaller hosts (single-core machines, busy CI runners) the
/// measurement is meaningless, so the test skips itself there; the
/// measured scaling is recorded in EXPERIMENTS.md §7.
#[test]
#[ignore = "needs ≥4 idle cores; run with cargo test --release -- --ignored"]
fn parallel_speedup_on_skewed_1e5() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let g = graphs::skewed_graph_with_edges(100_000, 2, 22);
    let edges = g.edge_relation();
    let join = zoo::triangle(&edges).prepare();
    let oracle = join.oracle();
    let t0 = std::time::Instant::now();
    let seq = Tetris::preloaded(&oracle).run();
    let seq_s = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let par = Tetris::preloaded(&oracle)
        .descent(Descent::Parallel { threads: 4 })
        .run();
    let par_s = t0.elapsed().as_secs_f64();
    assert_eq!(par.tuples, seq.tuples, "outputs must be bit-identical");
    let speedup = seq_s / par_s;
    assert!(
        speedup >= 2.0,
        "4-thread speedup {speedup:.2}x below the 2x acceptance bar \
         (sequential {seq_s:.3}s, parallel {par_s:.3}s)"
    );
}

/// The million-edge differential wall: the BENCH big-tier skewed
/// instance (seed 0xBEEF — the exact graph the `t2_graphs` snapshots
/// pin), listed by Tetris-Preloaded and checked against Leapfrog
/// Triejoin and the hardened ground truth.
#[test]
#[ignore = "10⁶-edge tier: minutes without --release; run with cargo test --release -- --ignored"]
fn million_edge_skewed_differential() {
    let g = graphs::skewed_graph_with_edges(1_000_000, 2, 0xBEEF);
    let edges = g.edge_relation();
    let truth = g.count_triangles();
    let join = zoo::triangle(&edges).prepare();
    let oracle = join.oracle();

    let out = Tetris::preloaded(&oracle).run();
    let tetris_tuples = join.reorder_to(&TRIANGLE_ATTRS, &out.tuples);
    let (lf, _) = leapfrog_join(&triangle_spec(&edges));
    assert_eq!(
        tetris_tuples, lf,
        "1e6 skewed: tetris and leapfrog listings differ"
    );
    assert_eq!(
        lf.len() as u64,
        truth,
        "1e6 skewed: listings disagree with the hardened ground truth"
    );
}

#[test]
#[ignore = "10⁵-edge tier: ~5 s/graph; run with cargo test -- --ignored"]
fn big_graphs_behind_ignored() {
    for (label, g) in [
        ("random 1e5", graphs::random_graph(50_000, 100_000, 21)),
        (
            "skewed 1e5",
            graphs::skewed_graph_with_edges(100_000, 2, 22),
        ),
        (
            "power-law 1e5",
            graphs::power_law_graph(50_000, 0.8, 100_000, 23),
        ),
    ] {
        check_graph(label, &g);
    }
}
