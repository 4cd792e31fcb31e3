//! The observability ledger-balance wall (PR 9): on live runs of the
//! paper's instances, every histogram in the merged [`obs::Ledger`] must
//! total to the engine counter it observes, metrics-off runs must be
//! bit-identical to metrics-on runs, and the plan layer must record the
//! phase spans and memory ledger it promises.
//!
//! This extends the `advances + repairs + full_walks == kb_queries`
//! probe-sum wall in `tests/stats_regression.rs` down to distributions:
//! the counters say *how many* events happened, the histograms must
//! account for *every single one* of them.

use obs::Phase;
use tetris_join::plan::{PreparedQuery, QueryPlanBuilder};
use tetris_join::tetris::{Descent, Tetris, TetrisConfig, TetrisOutput};
use tetris_join::workload::triangle;

fn skew_join() -> PreparedQuery {
    let inst = triangle::skew_triangle(8, 6);
    QueryPlanBuilder::new(6)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build()
}

/// Assert the four histogram-vs-counter balances that hold in *every*
/// descent mode: one depth observation per resolution, one walk
/// observation per KB query, one repair observation per probe repair,
/// one donation observation per donated seed set.
fn assert_ledger_balances(label: &str, out: &TetrisOutput) {
    let l = out.obs.as_ref().expect("run was configured with obs");
    let s = &out.stats;
    assert_eq!(
        l.depth.total(),
        s.resolutions,
        "{label}: depth histogram must observe every resolution"
    );
    assert_eq!(
        l.walk.total(),
        s.kb_queries,
        "{label}: walk histogram must observe every KB query"
    );
    assert_eq!(
        l.repair.total(),
        s.probe_repairs,
        "{label}: repair histogram must observe every probe repair"
    );
    assert_eq!(
        l.donation.total(),
        s.par_donations,
        "{label}: donation histogram must observe every donation"
    );
    // The attribution ledger rides the same sites: its resolution column
    // is exact in every mode, its companions bounded by their counters.
    assert_eq!(
        l.attr.resolutions(),
        s.resolutions,
        "{label}: Σ per-prefix resolutions must equal the resolution counter"
    );
    assert!(
        l.attr.re_resolutions() <= s.resolutions,
        "{label}: every re-resolution was first a resolution"
    );
    assert!(
        l.attr.inserts() <= s.kb_inserts,
        "{label}: attributed inserts exclude preload bulk construction"
    );
    assert!(
        l.attr.repair_hits() <= s.probe_repairs,
        "{label}: a repair hit is a repair whose window scan contained the probe"
    );
}

#[test]
fn metrics_off_is_bit_identical_to_metrics_on() {
    let join = skew_join();
    let base = TetrisConfig {
        preload: true,
        ..Default::default()
    };
    assert!(!base.obs, "metrics are opt-in");
    let off = join.execute(base);
    let on = join.execute(TetrisConfig { obs: true, ..base });
    // Off: no ledger, no memory ledger — the sites cost one branch each.
    assert!(off.output.obs.is_none());
    assert!(off.mem.is_none());
    // On: observation must not perturb a single counter or output.
    assert!(on.output.obs.is_some());
    assert_eq!(off.output.stats, on.output.stats);
    assert_eq!(off.output.tuples, on.output.tuples);
}

#[test]
fn sequential_ledger_balances_on_paper_instances() {
    // The worked Example 4.4, reloaded and preloaded, through the core
    // engine directly (no plan layer).
    let b = |s: &str| tetris_join::dyadic::DyadicBox::parse(s).unwrap();
    let oracle = tetris_join::boxstore::SetOracle::new(
        tetris_join::dyadic::Space::uniform(2, 2),
        ["λ,0", "00,λ", "λ,11", "10,1"].iter().map(|s| b(s)),
    );
    for preload in [false, true] {
        let cfg = TetrisConfig {
            preload,
            obs: true,
            ..Default::default()
        };
        let out = Tetris::with_config(&oracle, cfg).run();
        let label = format!("ex4.4 preload={preload}");
        assert_ledger_balances(&label, &out);
        // Sequentially, the tracked-probe breakdown accounts for every
        // query exactly.
        let s = &out.stats;
        assert_eq!(
            s.probe_advances + s.probe_repairs + s.probe_full_walks,
            s.kb_queries,
            "{label}: sequential probe sum"
        );
        assert_eq!(s.par_donations, 0, "{label}: no donations sequentially");
    }

    // The skew-triangle join through the plan layer.
    let run = skew_join().execute(TetrisConfig {
        preload: true,
        obs: true,
        ..Default::default()
    });
    assert_ledger_balances("skew(8) sequential", &run.output);
    let s = &run.output.stats;
    assert_eq!(
        s.probe_advances + s.probe_repairs + s.probe_full_walks,
        s.kb_queries
    );
    // The depth histogram is non-trivial: resolutions happen at many
    // stack depths, not all in one bucket.
    let l = run.output.obs.as_ref().unwrap();
    let nonzero = l.depth.buckets().iter().filter(|&&c| c > 0).count();
    assert!(nonzero >= 2, "depth histogram collapsed: {:?}", l.depth);
}

#[test]
fn parallel_ledger_merges_and_balances() {
    let join = skew_join();
    for threads in [2usize, 4] {
        let run = join.execute(TetrisConfig {
            preload: true,
            descent: Descent::Parallel { threads },
            obs: true,
            ..Default::default()
        });
        let label = format!("skew(8) threads={threads}");
        assert_ledger_balances(&label, &run.output);
        let s = &run.output.stats;
        // Each query probes the frozen base and possibly the overlay
        // shard: between one and two tracked probes per query.
        let probes = s.probe_advances + s.probe_repairs + s.probe_full_walks;
        assert!(probes >= s.kb_queries, "{label}");
        assert!(probes <= 2 * s.kb_queries, "{label}");
        // Every executed task timed its slice into the merged ledger.
        let l = run.output.obs.as_ref().unwrap();
        let task = l.span(Phase::Task);
        assert_eq!(
            task.count, s.par_tasks,
            "{label}: one Task span per parallel task"
        );
        assert!(task.count >= 1, "{label}: the root task records a span");
        assert!(task.secs >= 0.0);
        // The memory ledger is read post-preload in parallel runs too.
        let mem = run.mem.expect("obs run carries the memory ledger");
        assert!(mem.nodes >= 1, "{label}: preloaded store has nodes");
        assert!(
            mem.bytes >= mem.nodes,
            "{label}: every node costs at least a byte: {mem:?}"
        );
    }
}

#[test]
fn attribution_balances_across_threads() {
    // The SAO-prefix attribution ledger must balance in *every*
    // execution mode — sequential and work-stealing parallel — and
    // turning the observer on must never change the answer
    // (sequentially, not even a counter; in parallel,
    // scheduling-dependent counters may move, the tuples may not).
    // Width 10 > the 8-bit attribution prefix, so
    // deep resolution sites spread across real prefix rows instead of
    // all spilling into the short row (as the width-6 instances would).
    let inst = triangle::skew_triangle(8, 10);
    let join = QueryPlanBuilder::new(10)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    for threads in [1usize, 2] {
        let cfg = TetrisConfig {
            preload: true,
            descent: if threads == 1 {
                Descent::Incremental
            } else {
                Descent::Parallel { threads }
            },
            obs: true,
            ..Default::default()
        };
        let label = format!("skew(8) threads={threads}");
        let run = join.execute(cfg);
        let off = join.execute(TetrisConfig { obs: false, ..cfg });
        assert_eq!(off.output.tuples, run.output.tuples, "{label}");
        if threads == 1 {
            assert_eq!(off.output.stats, run.output.stats, "{label}");
            let s = &run.output.stats;
            assert_eq!(
                s.probe_advances + s.probe_repairs + s.probe_full_walks,
                s.kb_queries,
                "{label}: sequential probe sum"
            );
        }
        assert_ledger_balances(&label, &run.output);
        // The instance resolves under more than one dimension-0 subtree,
        // so the breakdown is a real distribution, not one catch-all row.
        let attr = &run.output.obs.as_ref().unwrap().attr;
        assert!(
            attr.top_k(2).len() >= 2,
            "{label}: attribution collapsed to one row"
        );
    }
}

#[test]
fn plan_execute_records_spans_and_memory_ledger() {
    let join = skew_join();
    let run = join.execute(TetrisConfig {
        preload: true,
        obs: true,
        ..Default::default()
    });
    let l = run.output.obs.as_ref().unwrap();
    // The plan layer stamps exactly one Preload and one Solve span from
    // the same timers it reports in the run.
    assert_eq!(l.span(Phase::Preload).count, 1);
    assert_eq!(l.span(Phase::Solve).count, 1);
    assert_eq!(l.span(Phase::Preload).secs, run.preload_s);
    assert_eq!(l.span(Phase::Solve).secs, run.solve_s);
    // Sequential descent runs no tasks.
    assert_eq!(l.span(Phase::Task).count, 0);
    // The memory ledger is read post-preload: the store is populated.
    let mem = run.mem.expect("obs run carries the memory ledger");
    assert!(mem.nodes > 0, "preloaded store has nodes");
    assert!(
        mem.bytes >= mem.nodes,
        "every node costs at least a byte: {mem:?}"
    );
    assert!(mem.max_depth > 0, "preloaded store has depth");
}
