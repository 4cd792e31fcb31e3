//! Stats-regression wall: pinned `TetrisStats` counters on three fixed
//! instances — the paper's worked Example 4.4, a fixed skew-triangle
//! join (m = 8, 6-bit domains) and a small power-law 4-cycle, where the
//! resolvent cache changes the resolution count — and on the
//! load-balanced engine's Example F.1 sweep. The counters are the
//! engine's observable cost model; an accidental change to the descent,
//! the probe layer, or the knowledge base shows up here before it shows
//! up in a benchmark.
//!
//! ## Update protocol
//!
//! These numbers may only change in a PR that *intends* to change engine
//! behaviour. To refresh them:
//!
//! 1. run `cargo test --test stats_regression -- --nocapture` — every
//!    failing assertion prints the actual counter set;
//! 2. verify the direction of the change is the intended one (the
//!    invariants below must still hold: `outputs` and `resolutions`
//!    identical across descent modes on these instances, incremental
//!    `restarts` == 1 and never above restart mode's);
//! 3. paste the new values and record the reason in the PR description /
//!    CHANGES.md.
//!
//! The incremental driver must move `restarts` **down**, never change
//! outputs — that direction is asserted structurally, not just pinned.

use boxstore::SetOracle;
use dyadic::{DyadicBox, DyadicInterval, Space};
use rand::{rngs::StdRng, Rng, SeedableRng};
use tetris_join::plan::zoo;
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::tetris::balance::{LbOutput, TetrisLB};
use tetris_join::tetris::{Descent, Tetris, TetrisConfig, TetrisStats};
use workload::{bcp, graphs, triangle};

/// The pinned counter subset: (restarts, oracle_probes, kb_inserts,
/// resolutions, outputs, loaded_boxes, kb_queries).
type Pin = (u64, u64, u64, u64, u64, u64, u64);

fn pin(stats: &TetrisStats) -> Pin {
    (
        stats.restarts,
        stats.oracle_probes,
        stats.kb_inserts,
        stats.resolutions,
        stats.outputs,
        stats.loaded_boxes,
        stats.kb_queries,
    )
}

fn assert_pin(label: &str, stats: &TetrisStats, expect: Pin) {
    assert_eq!(
        pin(stats),
        expect,
        "{label}: pinned counters moved — if intended, follow the update \
         protocol in tests/stats_regression.rs (actual: {stats:?})"
    );
}

/// The probe split: how many knowledge-base queries the store answered
/// by advancing a frontier, by advancing and repairing one, and by a
/// full walk from the root. A sequential run answers every query exactly
/// one of the three ways.
///
/// Re-pinned when frontiers began to cross dimension boundaries and every
/// 1-side began to restore its frame's frontier: only this split moved
/// (full walks became advances and repairs), every other pin kept its
/// value. The incremental runs now make one full walk, the first probe,
/// or a handful where a frontier lags the store by more than
/// `REPAIR_CAP` inserts. A restart still begins with a full walk.
fn assert_probe_split(label: &str, stats: &TetrisStats, expect: (u64, u64, u64)) {
    let got = (
        stats.probe_advances,
        stats.probe_repairs,
        stats.probe_full_walks,
    );
    assert_eq!(
        got.0 + got.1 + got.2,
        stats.kb_queries,
        "{label}: the probe split must sum to kb_queries"
    );
    assert_eq!(
        got, expect,
        "{label}: probe split moved — if intended, follow the update \
         protocol in tests/stats_regression.rs"
    );
}

/// The store/parallel tuning constants are part of the engine's
/// measured cost model: changing one is a perf-relevant decision that
/// must be taken deliberately (and re-run through the bench protocol),
/// never slipped in with a refactor.
#[test]
fn tuning_defaults_are_pinned() {
    assert_eq!(boxstore::REPAIR_CAP, 64);
    assert_eq!(tetris_core::MERGE_CAP, 4096);
}

fn example_4_4() -> SetOracle {
    let b = |s: &str| DyadicBox::parse(s).unwrap();
    SetOracle::new(
        Space::uniform(2, 2),
        ["λ,0", "00,λ", "λ,11", "10,1"].iter().map(|s| b(s)),
    )
}

#[test]
fn example_4_4_counters_are_pinned() {
    let oracle = example_4_4();

    let inc = Tetris::reloaded(&oracle).run();
    assert_pin(
        "ex4.4 reloaded incremental",
        &inc.stats,
        (1, 5, 5, 8, 2, 4, 20),
    );
    assert_probe_split("ex4.4 reloaded incremental", &inc.stats, (16, 3, 1));

    let pre = Tetris::preloaded(&oracle).run();
    assert_pin(
        "ex4.4 preloaded incremental",
        &pre.stats,
        (1, 0, 5, 8, 2, 0, 17),
    );
    assert_probe_split("ex4.4 preloaded incremental", &pre.stats, (16, 0, 1));

    let restart = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
    assert_pin(
        "ex4.4 reloaded restart",
        &restart.stats,
        (6, 5, 9, 8, 2, 4, 52),
    );
    assert_probe_split("ex4.4 reloaded restart", &restart.stats, (28, 0, 24));

    let memo = Tetris::reloaded(&oracle)
        .descent(Descent::RestartMemo)
        .run();
    assert_pin(
        "ex4.4 reloaded restart-memo",
        &memo.stats,
        (6, 5, 9, 8, 2, 4, 42),
    );
    assert_probe_split("ex4.4 reloaded restart-memo", &memo.stats, (28, 0, 14));
    assert_eq!(memo.stats.mark_hits, 10, "ex4.4 memo mark hits");
    // Witness streaming (PR 6): 5 of the old 14 resolvent inserts are
    // subsumed by the next resolvent and never materialized. The
    // incremental descent also skips 4 dead inserts (2 resolvents equal
    // to the 0-side they finished, 2 output unit boxes). The skips plus
    // the surviving inserts must account for every old insert, and
    // resolutions/outputs/queries are bit-identical to the pre-streaming
    // engine (the pins above).
    assert_eq!(inc.stats.kb_insert_skips, 9, "ex4.4 streaming skips");
    assert_eq!(
        inc.stats.kb_inserts + inc.stats.kb_insert_skips,
        14,
        "ex4.4: skips + inserts must equal the pre-streaming insert count"
    );

    // Structural direction: same outputs, fewer (or equal) restarts, and
    // the memo answers exactly the queries the plain restart walks.
    assert_eq!(inc.tuples, restart.tuples);
    assert_eq!(inc.tuples, memo.tuples);
    assert_eq!(inc.tuples, pre.tuples);
    assert!(inc.stats.restarts < restart.stats.restarts);
    assert_eq!(
        memo.stats.kb_queries + memo.stats.mark_hits,
        restart.stats.kb_queries
    );
}

#[test]
fn skew_triangle_m8_counters_are_pinned() {
    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();

    let pre = Tetris::preloaded(&oracle).run();
    assert_pin(
        "skew(8) preloaded incremental",
        &pre.stats,
        (1, 0, 170, 183, 25, 0, 367),
    );
    assert_probe_split("skew(8) preloaded incremental", &pre.stats, (366, 0, 1));
    assert_eq!(pre.tuples.len() as u64, inst.expected_output.unwrap());

    let rel = Tetris::reloaded(&oracle).run();
    assert_pin(
        "skew(8) reloaded incremental",
        &rel.stats,
        (1, 136, 122, 183, 25, 121, 829),
    );
    assert_probe_split("skew(8) reloaded incremental", &rel.stats, (670, 154, 5));

    let restart = Tetris::preloaded(&oracle).descent(Descent::Restart).run();
    assert_pin(
        "skew(8) preloaded restart",
        &restart.stats,
        (26, 0, 357, 183, 25, 0, 881),
    );
    assert_probe_split("skew(8) preloaded restart", &restart.stats, (633, 0, 248));

    // The incremental driver changes restarts down — never the outputs,
    // and (on this instance) not a single resolution.
    assert_eq!(pre.tuples, restart.tuples);
    assert_eq!(pre.tuples, rel.tuples);
    assert_eq!(pre.stats.resolutions, restart.stats.resolutions);
    assert_eq!(pre.stats.restarts, 1);
    assert_eq!(restart.stats.restarts, restart.stats.outputs + 1);
    // The incremental probe layer answers every knowledge-base walk one
    // of three ways — 0-side frontier advance, frame-saved frontier
    // advance + insert-log repair (right siblings), or a full walk — and
    // the ledger must balance.
    assert_eq!(
        pre.stats.probe_advances + pre.stats.probe_repairs + pre.stats.probe_full_walks,
        pre.stats.kb_queries
    );
    assert!(pre.stats.probe_advances > 0);
    // The preloaded run makes no repairs: with its dead resolvents no
    // longer written, no saved frontier lags the store. The reloaded run
    // keeps loading gap boxes, so its right-sibling descents are still
    // repair-served.
    assert!(
        rel.stats.probe_repairs > 0,
        "right-sibling descents should be repair-served: {:?}",
        rel.stats
    );
    // Every pre-streaming insert is either kept or skipped, and both
    // runs skip the same 207: 20 subsumed resolvents and 187 dead inserts
    // (resolvents equal to a finished 0-side, and output unit boxes).
    assert_eq!(pre.stats.kb_insert_skips, 207, "skew(8) streaming skips");
    assert_eq!(pre.stats.kb_inserts + pre.stats.kb_insert_skips, 377);
    assert_eq!(rel.stats.kb_inserts + rel.stats.kb_insert_skips, 329);
}

/// A preloaded 4-cycle over a 400-edge power-law graph: the pinned
/// instance where the resolvent cache changes the resolution count.
/// Turning the cache off costs 2,585 more resolutions. An insert skip
/// that dropped resolvents a later probe can reach would cost some too:
/// skipping every flushed resolvent, not only the dead ones, gives 9,957.
#[test]
fn power_law_four_cycle_counters_are_pinned() {
    let g = graphs::power_law_graph(200, 0.8, 400, 3);
    let rel = g.edge_relation();
    let prepared = zoo::four_cycle(&rel).prepare();
    let cfg = TetrisConfig {
        preload: true,
        ..Default::default()
    };

    let run = prepared.execute(cfg);
    let s = &run.output.stats;
    assert_pin(
        "4-cycle power-law preloaded incremental",
        s,
        (1, 0, 8024, 8852, 320, 0, 17705),
    );
    assert_probe_split(
        "4-cycle power-law preloaded incremental",
        s,
        (14587, 3052, 66),
    );
    assert_eq!(s.outputs, g.count_four_cycles());
    // The dead inserts (resolvents equal to a finished 0-side, and
    // output unit boxes) are skipped, not lost: kept plus skipped is the
    // insert count of an engine that stores them all.
    assert_eq!(s.kb_inserts + s.kb_insert_skips, 15237);

    let tree = prepared.execute(TetrisConfig {
        cache_resolvents: false,
        ..cfg
    });
    assert_eq!(tree.output.tuples, run.output.tuples);
    assert_eq!(tree.output.stats.resolutions, 11437, "4-cycle cache off");
}

/// One load-balanced run's pinned counters, as one line.
fn lb_pin(label: &str, out: &LbOutput) -> String {
    let s = &out.stats;
    format!(
        "{label}: phases={} rebuilds={} restarts={} kb_inserts={} +skips={} \
         resolutions={} by_dim={:?} outputs={} splits={} kb_queries={} \
         oracle_probes={} loaded_boxes={}",
        out.phases,
        s.rebuilds,
        s.restarts,
        s.kb_inserts,
        s.kb_inserts + s.kb_insert_skips,
        s.resolutions,
        s.resolutions_by_dim,
        s.outputs,
        s.splits,
        s.kb_queries,
        s.oracle_probes,
        s.loaded_boxes,
    )
}

/// The load-balanced engine (Algorithm 5 and its online variant,
/// Appendix F.6) on Example F.1 and on a random 3-dimensional instance
/// whose online run rebuilds its partitions. The offline resolutions are
/// `fig2`'s F2.4/F2.5 `lb_res` column.
///
/// Each phase runs on the engine's one descent loop. When it moved there
/// from a private copy of Algorithm 1, every pinned counter but two kept
/// its value. Witness streaming now drops subsumed resolvents, so
/// `kb_inserts` fell while `+skips` (inserts plus skips) kept the old
/// insert count. A phase stopped for a rebuild restarts once more before
/// its hook fires, so `restarts` rose by `rebuilds`.
#[test]
fn load_balanced_counters_are_pinned() {
    let mut got = Vec::new();
    let mut record = |label: String, out: &LbOutput| {
        // Algorithm 2 restarts at each phase's start and after each
        // oracle probe.
        assert_eq!(
            out.stats.restarts,
            u64::from(out.phases) + out.stats.oracle_probes,
            "{label}"
        );
        got.push(lb_pin(&label, out));
    };
    for d in 4..=9u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes);
        let out = TetrisLB::preloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        record(format!("f1 d={d} offline"), &out);
    }
    for d in 4..=7u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes);
        let out = TetrisLB::reloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        record(format!("f1 d={d} online"), &out);
    }
    let mut rng = StdRng::seed_from_u64(7);
    let boxes: Vec<DyadicBox> = (0..200)
        .map(|_| {
            let mut bx = DyadicBox::universe(3);
            for i in 0..3 {
                let len = rng.gen_range(1..=4u8);
                bx.set(
                    i,
                    DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                );
            }
            bx
        })
        .collect();
    let oracle = SetOracle::new(Space::uniform(3, 4), boxes);
    let out = TetrisLB::reloaded(&oracle).run();
    assert_eq!(out.tuples.len() as u64, out.stats.outputs);
    record("random seed=7 online".to_string(), &out);

    let expect = [
        "f1 d=4 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=38 +skips=50 resolutions=26 by_dim=[3, 7, 10, 6] outputs=0 splits=58 kb_queries=85 oracle_probes=0 loaded_boxes=0",
        "f1 d=5 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=86 +skips=118 resolutions=70 by_dim=[5, 23, 30, 12] outputs=0 splits=151 kb_queries=222 oracle_probes=0 loaded_boxes=0",
        "f1 d=6 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=170 +skips=238 resolutions=142 by_dim=[5, 47, 62, 28] outputs=0 splits=269 kb_queries=412 oracle_probes=0 loaded_boxes=0",
        "f1 d=7 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=404 +skips=606 resolutions=414 by_dim=[9, 159, 190, 56] outputs=0 splits=795 kb_queries=1210 oracle_probes=0 loaded_boxes=0",
        "f1 d=8 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=804 +skips=1214 resolutions=830 by_dim=[9, 319, 382, 120] outputs=0 splits=1491 kb_queries=2322 oracle_probes=0 loaded_boxes=0",
        "f1 d=9 offline: phases=1 rebuilds=0 restarts=1 kb_inserts=2120 +skips=3454 resolutions=2686 by_dim=[17, 1151, 1278, 240] outputs=0 splits=5035 kb_queries=7722 oracle_probes=0 loaded_boxes=0",
        "f1 d=4 online: phases=2 rebuilds=1 restarts=26 kb_inserts=64 +skips=94 resolutions=54 by_dim=[3, 7, 14, 30] outputs=0 splits=484 kb_queries=623 oracle_probes=24 loaded_boxes=24",
        "f1 d=5 online: phases=3 rebuilds=2 restarts=51 kb_inserts=216 +skips=319 resolutions=223 by_dim=[5, 29, 93, 96] outputs=0 splits=1448 kb_queries=1864 oracle_probes=48 loaded_boxes=48",
        "f1 d=6 online: phases=4 rebuilds=3 restarts=100 kb_inserts=339 +skips=460 resolutions=252 by_dim=[8, 51, 98, 95] outputs=0 splits=2781 kb_queries=3466 oracle_probes=96 loaded_boxes=96",
        "f1 d=7 online: phases=5 rebuilds=4 restarts=197 kb_inserts=776 +skips=1112 resolutions=680 by_dim=[15, 167, 288, 210] outputs=0 splits=6652 kb_queries=8293 oracle_probes=192 loaded_boxes=192",
        "random seed=7 online: phases=4 rebuilds=3 restarts=283 kb_inserts=1295 +skips=1742 resolutions=975 by_dim=[4, 64, 296, 611] outputs=236 splits=5491 kb_queries=8396 oracle_probes=279 loaded_boxes=65",
    ];
    assert_eq!(
        got, expect,
        "load-balanced counters moved — if intended, follow the update \
         protocol in tests/stats_regression.rs"
    );
}

/// The observability histograms (PR 9) pinned on the same two fixed
/// instances, as bucket CSVs (`obs::Pow2Histogram::to_csv`: bucket 0 is
/// value 0, bucket k counts values in `[2^(k-1), 2^k)`).
///
/// These follow the same update protocol as the counter pins above —
/// and because each histogram's total IS a pinned counter (depth ↔
/// `resolutions`, walk ↔ `kb_queries`, repair ↔ `probe_repairs`), a
/// histogram pin can only move in a PR where the counter pin moved or
/// the *distribution* shifted (e.g. a probe-layer change that keeps the
/// query count but changes walk lengths). Both are engine-behaviour
/// changes that must be taken deliberately.
#[test]
fn obs_histograms_are_pinned() {
    let cfg = TetrisConfig {
        preload: true,
        obs: true,
        ..Default::default()
    };

    let oracle = example_4_4();
    let out = Tetris::with_config(&oracle, cfg).run();
    let l = out.obs.as_ref().expect("obs requested");
    assert_eq!(l.depth.to_csv(), "0,1,5,2", "ex4.4 resolution depths");
    // Re-pinned from "9,7,1" (and skew(8) from "191,68,108") when the
    // walk histogram began to record the frontier a probe worked from (the
    // entries an advance or repair started from, or the ones a full walk
    // recorded) instead of the one it left behind, which a hit clears.
    assert_eq!(l.walk.to_csv(), "0,15,2", "ex4.4 probe walk lengths");
    assert_eq!(l.repair.to_csv(), "0", "ex4.4 repair windows");

    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let run = join.execute(cfg);
    let l = run.output.obs.as_ref().expect("obs requested");
    assert_eq!(
        l.depth.to_csv(),
        "0,1,2,19,103,58",
        "skew(8) resolution depths"
    );
    assert_eq!(l.walk.to_csv(), "14,137,216", "skew(8) probe walk lengths");
    assert_eq!(l.repair.to_csv(), "0", "skew(8) repair windows");
    // The memory ledger on the preloaded binary store is as pinnable as
    // any counter: nodes and bytes are decided by the insert sequence.
    // (Re-pinned from (443, 7088, 14) when λ-tail ends stopped taking a
    // node, and from (206, 3296, 13) when a node shrank from 16 to 12
    // bytes: the stored set and every counter above are unchanged.)
    let mem = run.mem.expect("obs requested");
    assert_eq!((mem.nodes, mem.bytes, mem.max_depth), (206, 2472, 13));
}

/// Which `TetrisStats` counters the parallel descent pins and which it
/// lets float.
///
/// **Pinned (scheduling-independent):** `outputs` and the output tuples
/// themselves — outputs are decided by oracle probes over a partition of
/// the space, so no schedule can add, drop, or duplicate one. Also
/// pinned: `restarts` (the parallel driver is one logical pass) and the
/// ledger invariant `Σ resolutions_by_dim == resolutions`.
///
/// **Floating (may vary run-to-run and with the thread count):**
/// `resolutions`, `splits`, `skeleton_calls`, `kb_queries`,
/// `kb_inserts`, `oracle_probes`, `loaded_boxes`, `mark_hits`,
/// `probe_advances`, `probe_repairs`, `probe_full_walks`, `par_tasks`,
/// `par_donations`. A donated subtree resolves against a shard that
/// lacks the donor's later discoveries (more resolutions), a cancelled
/// thief still spent work before observing the flag, and donation timing
/// depends on when workers go hungry. That is why the bench gate and
/// this wall only ever compare parallel runs by output, never by cost
/// counters.
#[test]
fn parallel_pins_outputs_and_nothing_else() {
    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = QueryPlanBuilder::new(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();

    let seq = Tetris::preloaded(&oracle).run();
    for threads in [2usize, 4] {
        let par = Tetris::preloaded(&oracle)
            .descent(Descent::Parallel { threads })
            .run();
        assert_eq!(
            par.tuples, seq.tuples,
            "threads={threads}: the output tuple set is pinned"
        );
        assert_eq!(par.stats.outputs, seq.stats.outputs);
        assert_eq!(par.stats.restarts, 1, "one logical pass");
        assert_eq!(
            par.stats.resolutions_by_dim.iter().sum::<u64>(),
            par.stats.resolutions,
            "per-dimension ledger must balance even across merged shards"
        );
        assert!(par.stats.par_tasks >= 1);
        // Each parallel query probes up to two stores (frozen base, then
        // the overlay shard), so the probe breakdown bounds the query
        // count from above instead of matching it exactly.
        let probes =
            par.stats.probe_advances + par.stats.probe_repairs + par.stats.probe_full_walks;
        assert!(probes >= par.stats.kb_queries);
        assert!(probes <= 2 * par.stats.kb_queries);
    }
}
