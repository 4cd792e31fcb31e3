//! Differential walls for the query zoo: for each new query family
//! (monotone 4-cycle, 4-clique, Loomis–Whitney-3) the generic
//! plan-pipeline Tetris, the leapfrog baseline answering the *same*
//! plan, and an independent ground-truth counter must agree — across
//! graph families and seeds. 10³–10⁴ edges in CI, 10⁵ behind
//! `--ignored` (run with `cargo test --release -- --ignored`).

use tetris_join::plan::{zoo, PreparedQuery, QueryPlan};
use tetris_join::relation::Relation;
use workload::{graphs, loomis};

/// Run one zoo plan against Tetris and leapfrog, assert bit-identical
/// listings (both emit lex-sorted SAO coordinates) and the expected
/// output count.
fn check_plan(label: &str, plan: QueryPlan<'_>, truth: u64) -> PreparedQuery {
    let prepared = plan.prepare();
    let run = prepared.run();
    let (lf, _) = prepared.leapfrog();
    assert_eq!(
        run.output.tuples, lf,
        "{label}: tetris and leapfrog listings differ"
    );
    assert_eq!(
        lf.len() as u64,
        truth,
        "{label}: listings disagree with the independent ground truth"
    );
    prepared
}

fn graph_families(edges: usize, seed: u64) -> Vec<(&'static str, graphs::Graph)> {
    vec![
        (
            "random",
            graphs::random_graph((edges / 2).max(4) as u64, edges, seed),
        ),
        ("skewed", graphs::skewed_graph_with_edges(edges, 2, seed)),
        (
            "power-law",
            graphs::power_law_graph((edges / 2).max(4) as u64, 0.8, edges, seed),
        ),
    ]
}

#[test]
fn four_cycles_across_families_and_seeds() {
    let mut some_output = false;
    for seed in [41u64, 42, 43] {
        for edges in [1_000usize, 10_000] {
            for (kind, g) in graph_families(edges, seed) {
                let rel = g.edge_relation();
                let truth = g.count_four_cycles();
                let label = format!("4-cycle {kind} seed={seed} edges={edges}");
                let prepared = check_plan(&label, zoo::four_cycle(&rel), truth);
                // Every output really is a monotone 4-cycle.
                let out =
                    prepared.reorder_to(&zoo::FOUR_CYCLE_ATTRS, &prepared.run().output.tuples);
                for t in &out {
                    assert!(
                        t[0] < t[1] && t[1] < t[2] && t[2] < t[3],
                        "{label}: {t:?} is not vertex-sorted"
                    );
                }
                some_output |= truth > 0;
            }
        }
    }
    assert!(some_output, "some instance should contain 4-cycles");
}

#[test]
fn four_cliques_across_families_and_seeds() {
    let mut some_output = false;
    for seed in [51u64, 52] {
        for edges in [1_000usize, 10_000] {
            for (kind, g) in graph_families(edges, seed) {
                let rel = g.edge_relation();
                let truth = g.count_four_cliques();
                let label = format!("4-clique {kind} seed={seed} edges={edges}");
                check_plan(&label, zoo::k_clique(&rel, 4), truth);
                some_output |= truth > 0;
            }
        }
    }
    assert!(some_output, "some instance should contain 4-cliques");
}

#[test]
fn loomis_whitney_3_across_seeds() {
    let mut some_output = false;
    for seed in [61u64, 62, 63] {
        for tuples in [500usize, 4_000] {
            let width = ((2.0 / 3.0) * (tuples as f64).log2()).ceil() as u8;
            let inst = loomis::random_loomis_whitney(3, tuples, width, seed);
            let truth = loomis::count_lw3_hash_join(&inst);
            let refs: Vec<&Relation> = inst.rels.iter().collect();
            check_plan(
                &format!("lw3 seed={seed} tuples={tuples}"),
                zoo::loomis_whitney(&refs),
                truth,
            );
            some_output |= truth > 0;
        }
    }
    assert!(some_output, "some LW3 instance should have output");
}

#[test]
#[ignore = "10⁵-edge tier: ~a minute per family; run with cargo test --release -- --ignored"]
fn zoo_at_1e5_behind_ignored() {
    // 4-cycle and 4-clique on the skewed 10⁵ instance (the bench seed),
    // LW3 at 10⁵ tuples per atom — the graph-scale acceptance criterion.
    let g = graphs::skewed_graph_with_edges(100_000, 2, 0xBEEF);
    let rel = g.edge_relation();
    check_plan("4-cycle skewed 1e5", zoo::four_cycle(&rel), {
        g.count_four_cycles()
    });
    check_plan("4-clique skewed 1e5", zoo::k_clique(&rel, 4), {
        g.count_four_cliques()
    });
    let inst = loomis::random_loomis_whitney(3, 100_000, 12, 0x1F3D);
    let refs: Vec<&Relation> = inst.rels.iter().collect();
    check_plan(
        "lw3 1e5",
        zoo::loomis_whitney(&refs),
        loomis::count_lw3_hash_join(&inst),
    );
}
