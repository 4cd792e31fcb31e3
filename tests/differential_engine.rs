//! Differential test wall around the engine: every configuration of the
//! [`Tetris`] solver — preloaded/reloaded × resolvent caching × all
//! three sequential descent strategies — must produce the exact
//! brute-force BCP output on randomized instances over randomized spaces
//! (dimension counts up to `MAX_DIMS`, mixed per-dimension widths), and
//! the join pipeline must agree with `baseline::brute` on randomized
//! queries.
//!
//! Every case is generated from an explicit `u64` seed and the seed is
//! part of every assertion message, so a failure reported by CI is
//! reproduced by running the same test binary (the offline `rand` shim is
//! deterministic across platforms): plug the printed seed into
//! `StdRng::seed_from_u64` in a scratch test, or just re-run the suite —
//! the sweep itself is fixed-seed and fully deterministic.

use baseline::{brute::brute_force_join, JoinSpec};
use boxstore::{coverage, SetOracle};
use dyadic::{DyadicBox, DyadicInterval, Space, MAX_DIMS};
use rand::{rngs::StdRng, Rng, SeedableRng};
use relation::{Relation, Schema};
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::{Descent, Tetris, TetrisConfig, TetrisStats};

/// A random space with `1..=MAX_DIMS` dimensions and mixed widths, kept
/// small enough for exhaustive enumeration — and for the *uncached
/// restart* variant, whose re-treading cost is quadratic in the output
/// size by design (Theorem 5.2 / F2.2b), so the point count is capped at
/// `2^bit_budget`.
fn random_space(rng: &mut StdRng, bit_budget: u32) -> Space {
    let n = rng.gen_range(1..=MAX_DIMS);
    let mut widths = vec![0u8; n];
    let mut budget = bit_budget;
    // Spread the bit budget over random dimensions (some stay 0-wide —
    // degenerate single-value domains are part of the contract).
    for _ in 0..rng.gen_range(0..=bit_budget) {
        if budget == 0 {
            break;
        }
        let i = rng.gen_range(0..n);
        if widths[i] < 4 {
            widths[i] += 1;
            budget -= 1;
        }
    }
    Space::from_widths(&widths)
}

fn random_box(rng: &mut StdRng, space: &Space) -> DyadicBox {
    let mut b = DyadicBox::universe(space.n());
    for i in 0..space.n() {
        let len = rng.gen_range(0..=space.width(i));
        let bits = rng.gen_range(0..(1u64 << len));
        b.set(i, DyadicInterval::from_bits(bits, len));
    }
    b
}

/// All engine variants on one oracle. Returns (label, output tuples,
/// outputs counter, restarts) per variant.
fn run_all_variants(oracle: &SetOracle) -> Vec<(String, Vec<Vec<u64>>, u64, u64)> {
    let mut out = Vec::new();
    for preload in [false, true] {
        for cache_resolvents in [true, false] {
            for descent in [Descent::Incremental, Descent::Restart, Descent::RestartMemo] {
                let cfg = TetrisConfig {
                    preload,
                    cache_resolvents,
                    descent,
                    ..Default::default()
                };
                let r = Tetris::with_config(oracle, cfg).run();
                out.push((
                    format!("preload={preload} cache={cache_resolvents} descent={descent:?}"),
                    r.tuples,
                    r.stats.outputs,
                    r.stats.restarts,
                ));
            }
        }
    }
    out
}

#[test]
fn every_engine_variant_matches_brute_force_on_random_spaces() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng, 8);
        let count = rng.gen_range(0..30);
        let boxes: Vec<DyadicBox> = (0..count).map(|_| random_box(&mut rng, &space)).collect();
        let expect = coverage::uncovered_points(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        for (label, tuples, outputs, restarts) in run_all_variants(&oracle) {
            assert_eq!(
                tuples,
                expect,
                "seed {seed}: variant [{label}] diverges from brute force \
                 (space {:?})",
                space.widths()
            );
            assert_eq!(
                outputs as usize,
                expect.len(),
                "seed {seed}: variant [{label}] output counter wrong"
            );
            // The incremental driver never restarts; restart drivers
            // restart at most once per oracle event.
            if label.contains("Incremental") {
                assert_eq!(restarts, 1, "seed {seed}: variant [{label}]");
            }
        }
    }
}

#[test]
fn check_cover_agrees_with_run_on_random_spaces() {
    for seed in 100..130u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng, 12);
        let count = rng.gen_range(0..25);
        let boxes: Vec<DyadicBox> = (0..count).map(|_| random_box(&mut rng, &space)).collect();
        let covered_ref = coverage::covers_everything(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        for descent in [Descent::Incremental, Descent::Restart, Descent::RestartMemo] {
            let (covered, stats) = Tetris::reloaded(&oracle).descent(descent).check_cover();
            assert_eq!(
                covered,
                covered_ref,
                "seed {seed}: check_cover({descent:?}) wrong on space {:?}",
                space.widths()
            );
            // Boolean mode stops at the first output.
            assert!(
                stats.outputs <= 1,
                "seed {seed}: boolean mode reported {} outputs",
                stats.outputs
            );
        }
    }
}

#[test]
fn restart_descent_is_never_cheaper_in_restarts_than_incremental() {
    // The contract from the issue: the incremental driver must move
    // `restarts` *down*, never change outputs.
    for seed in 200..230u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng, 12);
        let count = rng.gen_range(1..25);
        let boxes: Vec<DyadicBox> = (0..count).map(|_| random_box(&mut rng, &space)).collect();
        let oracle = SetOracle::new(space, boxes);
        let inc = Tetris::reloaded(&oracle).run();
        let res = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
        assert_eq!(inc.tuples, res.tuples, "seed {seed}: outputs must agree");
        assert!(
            inc.stats.restarts <= res.stats.restarts,
            "seed {seed}: incremental restarts {} > restart-mode {}",
            inc.stats.restarts,
            res.stats.restarts
        );
        assert_eq!(inc.stats.restarts, 1, "seed {seed}");
        // Restart mode pays one full descent per oracle event.
        assert_eq!(
            res.stats.restarts,
            res.stats.oracle_probes + 1,
            "seed {seed}: Algorithm 2 restarts once per probe"
        );
    }
}

/// Parallel-vs-sequential wall: `Descent::Parallel` at 2/4/8 workers must
/// produce the exact sequential output tuple sequence (the merge sorts
/// into lexicographic order, which *is* the sequential discovery order)
/// on randomized spaces, across preload and caching configurations.
/// Donation is demand-driven, so repeated runs schedule differently —
/// every run must still land on the identical tuple set.
#[test]
fn parallel_descent_matches_sequential_on_random_spaces() {
    for seed in 400..430u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = random_space(&mut rng, 10);
        let count = rng.gen_range(0..30);
        let boxes: Vec<DyadicBox> = (0..count).map(|_| random_box(&mut rng, &space)).collect();
        let expect = coverage::uncovered_points(&boxes, &space);
        let oracle = SetOracle::new(space, boxes);
        for preload in [false, true] {
            for cache_resolvents in [true, false] {
                for threads in [2usize, 4, 8] {
                    let cfg = TetrisConfig {
                        preload,
                        cache_resolvents,
                        descent: Descent::Parallel { threads },
                        ..Default::default()
                    };
                    let r = Tetris::with_config(&oracle, cfg).run();
                    assert_eq!(
                        r.tuples,
                        expect,
                        "seed {seed}: parallel(threads={threads}, preload={preload}, \
                         cache={cache_resolvents}) diverges from brute force \
                         (space {:?})",
                        space.widths()
                    );
                    assert_eq!(
                        r.stats.outputs as usize,
                        expect.len(),
                        "seed {seed}: parallel output counter wrong"
                    );
                    assert_eq!(r.stats.restarts, 1, "seed {seed}: one logical pass");
                    assert_eq!(
                        r.stats.par_tasks,
                        r.stats.par_donations + 1,
                        "seed {seed}: every task beyond the root comes from a donation"
                    );
                }
            }
        }
    }
}

/// One worker never donates, so `Descent::Parallel { threads: 1 }` is
/// the sequential incremental descent run against its overlay shard. On
/// a reloaded run the frozen base is empty, so every probe sees the same
/// store and must return the same witness: the two drivers then agree
/// counter for counter. This pins that they run one descent loop: one
/// witness policy (`best_witness` breaks depth ties by volume) and one
/// dead-insert rule, with resolvent caching on and off (Tree-Ordered
/// resolution, §5.1).
#[test]
fn parallel_one_worker_matches_sequential_counters() {
    let counters = |s: &TetrisStats| {
        (
            s.resolutions,
            s.kb_queries,
            s.oracle_probes,
            s.kb_inserts,
            s.kb_insert_skips,
        )
    };
    for seed in 600..4600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=3);
        let widths: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=5)).collect();
        let space = Space::from_widths(&widths);
        let count = rng.gen_range(0..=80);
        let boxes: Vec<DyadicBox> = (0..count).map(|_| random_box(&mut rng, &space)).collect();
        let oracle = SetOracle::new(space, boxes);
        for cache in [true, false] {
            let seq = Tetris::reloaded(&oracle).cache_resolvents(cache).run();
            let par = Tetris::reloaded(&oracle)
                .cache_resolvents(cache)
                .descent(Descent::Parallel { threads: 1 })
                .run();
            assert_eq!(
                par.tuples, seq.tuples,
                "seed {seed} cache={cache}: outputs differ"
            );
            assert_eq!(
                counters(&par.stats),
                counters(&seq.stats),
                "seed {seed} cache={cache}: (resolutions, kb_queries, \
                 oracle_probes, kb_inserts, kb_insert_skips) differ between \
                 one parallel worker and the sequential driver (space \
                 {widths:?})"
            );
        }
    }
}

/// The parallel engine through the full join pipeline, against both the
/// sequential engine and `baseline::brute`.
#[test]
fn parallel_join_pipeline_matches_sequential_and_brute() {
    let width = 2u8;
    for seed in 500..515u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dom = 1u64 << width;
        let rel = |rng: &mut StdRng| {
            let count = rng.gen_range(0..=12);
            let tuples: Vec<Vec<u64>> = (0..count)
                .map(|_| vec![rng.gen_range(0..dom), rng.gen_range(0..dom)])
                .collect();
            Relation::new(Schema::uniform(&["X", "Y"], width), tuples)
        };
        let (r, s, t) = (rel(&mut rng), rel(&mut rng), rel(&mut rng));
        let join = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"])
            .build();
        let spec = JoinSpec::new(&["A", "B", "C"], &[width; 3])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"]);
        let expect = brute_force_join(&spec);
        let oracle = join.oracle();
        let seq = Tetris::preloaded(&oracle).run();
        for threads in [2usize, 4, 8] {
            let par = Tetris::preloaded(&oracle)
                .descent(Descent::Parallel { threads })
                .run();
            assert_eq!(
                par.tuples, seq.tuples,
                "seed {seed}: threads={threads} diverges from the sequential engine"
            );
            let got = join.reorder_to(&["A", "B", "C"], &par.tuples);
            assert_eq!(
                got, expect,
                "seed {seed}: threads={threads} diverges from baseline::brute"
            );
        }
    }
}

/// Shard allocations are capped on the parallel descent:
/// `par_shard_allocs` counts the root task plus every donation the
/// per-worker scratch pools could not serve, so no run allocates more
/// than one store per task, under any schedule. Whether a pool serves a
/// given donation depends on scheduling, so the reuse itself is checked
/// deterministically by the `parallel` module's
/// `shard_pool_reuses_retired_shards_before_allocating`.
#[test]
fn parallel_shard_reuse_caps_allocations() {
    use workload::triangle;
    let width = 9u8;
    let inst = triangle::skew_triangle(96, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();
    for round in 0..4 {
        let out = Tetris::preloaded(&oracle)
            .descent(Descent::Parallel { threads: 8 })
            .run();
        assert_eq!(out.tuples.len() as u64, inst.expected_output.unwrap());
        assert!(
            out.stats.par_shard_allocs <= out.stats.par_donations + 1,
            "round {round}: allocated {} shards for {} donations — more than \
             one store per task",
            out.stats.par_shard_allocs,
            out.stats.par_donations
        );
    }
}

/// Join-shaped differential: the full pipeline (SAO choice, index build,
/// gap oracle, every engine variant) against exhaustive enumeration.
#[test]
fn join_pipeline_matches_baseline_brute_on_random_queries() {
    let width = 2u8;
    for seed in 300..330u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dom = 1u64 << width;
        let rel = |rng: &mut StdRng| {
            let count = rng.gen_range(0..=12);
            let tuples: Vec<Vec<u64>> = (0..count)
                .map(|_| vec![rng.gen_range(0..dom), rng.gen_range(0..dom)])
                .collect();
            Relation::new(Schema::uniform(&["X", "Y"], width), tuples)
        };
        let (r, s, t) = (rel(&mut rng), rel(&mut rng), rel(&mut rng));
        let join = QueryPlanBuilder::new(width)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"])
            .build();
        let spec = JoinSpec::new(&["A", "B", "C"], &[width; 3])
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .atom("T", &t, &["A", "C"]);
        let expect = brute_force_join(&spec);
        let oracle = join.oracle();
        for descent in [Descent::Incremental, Descent::Restart, Descent::RestartMemo] {
            for (label, engine) in [
                ("reloaded", Tetris::reloaded(&oracle).descent(descent)),
                ("preloaded", Tetris::preloaded(&oracle).descent(descent)),
                (
                    "uncached-inline",
                    Tetris::reloaded(&oracle)
                        .cache_resolvents(false)
                        .descent(Descent::Incremental),
                ),
            ] {
                let got = join.reorder_to(&["A", "B", "C"], &engine.run().tuples);
                assert_eq!(
                    got, expect,
                    "seed {seed}: {label} × {descent:?} diverges from baseline::brute"
                );
            }
        }
    }
}
