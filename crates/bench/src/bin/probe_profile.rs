//! Ad-hoc probe-path profiler: run one skewed-graph triangle listing
//! with `TetrisConfig::obs` on and dump the merged [`obs::Ledger`] —
//! phase spans, counter breakdown, the four engine histograms, the
//! SAO-prefix attribution table (which dimension-0 subtrees hold the
//! resolution/re-resolution/repair work), the flight recorder's
//! kept/dropped accounting (sequential runs trace with the default
//! bounded ring), and the knowledge base's memory ledger. A thin
//! consumer of the obs layer: every number printed here comes from the
//! `PlanRun` (no private timing or counting plumbing of its own), so it
//! can never drift from what `t2_graphs --profile` records.
//!
//! Usage: `probe_profile [edges] [threads]`
//!
//! Execution goes through the plan layer
//! ([`plan::PreparedQuery::execute`]).

use obs::{Phase, Pow2Histogram};
use tetris_join::tetris::{Descent, TetrisConfig, TraceConfig};
use tetris_join::triangles::prepared_triangle_join;
use workload::graphs;

/// Render one histogram as `bucket-range: count` lines (skipping empty
/// buckets), plus its total for eyeballing the ledger-balance walls.
fn print_hist(name: &str, h: &Pow2Histogram, against: &str, total: u64) {
    println!("{name} (total={} == {against}={total}):", h.total());
    for (k, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let range = match k {
            0 => "0".to_string(),
            1 => "1".to_string(),
            k => format!("{}..{}", 1u64 << (k - 1), (1u64 << k) - 1),
        };
        println!("  {range:>24}  {c}");
    }
}

fn main() {
    let arg = |i: usize| std::env::args().nth(i);
    let edges: usize = arg(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let threads: usize = arg(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    // Seed matches the t2_graphs big-tier skewed instance so counter
    // breakdowns line up with BENCH_pr*.json rows.
    let g = graphs::skewed_graph_with_edges(edges, 2, 0xBEEF);
    let rel = g.edge_relation();
    let join = prepared_triangle_join(&rel);
    let cfg = TetrisConfig {
        preload: true,
        descent: if threads == 1 {
            Descent::Incremental
        } else {
            Descent::Parallel { threads }
        },
        obs: true,
        // Trace sequential runs so the flight-recorder accounting has
        // something to report; the default bounded ring makes this safe
        // at any edge count.
        trace: (threads == 1).then(TraceConfig::default),
        ..Default::default()
    };
    let run = join.execute(cfg);
    let s = &run.output.stats;
    let l = run.output.obs.as_ref().expect("obs was requested");
    let mem = run.mem.expect("obs was requested");
    println!("edges={edges} threads={threads}");
    println!(
        "preload_s={:.3} solve_s={:.3} task_slices={} task_secs={:.3}",
        l.span(Phase::Preload).secs,
        l.span(Phase::Solve).secs,
        l.span(Phase::Task).count,
        l.span(Phase::Task).secs,
    );
    println!(
        "outputs={} resolutions={} splits={} skeleton={} kb_queries={}",
        s.outputs, s.resolutions, s.splits, s.skeleton_calls, s.kb_queries
    );
    println!(
        "advances={} repairs={} full_walks={}",
        s.probe_advances, s.probe_repairs, s.probe_full_walks
    );
    println!(
        "kb_inserts={} kb_insert_skips={} loaded={} oracle_probes={} donations={}",
        s.kb_inserts, s.kb_insert_skips, s.loaded_boxes, s.oracle_probes, s.par_donations
    );
    println!(
        "kb mem: nodes={} bytes={} max_depth={}",
        mem.nodes, mem.bytes, mem.max_depth
    );
    println!(
        "ns_per_resolution={:.1}",
        run.solve_s * 1e9 / s.resolutions.max(1) as f64
    );
    print_hist("depth_hist", &l.depth, "resolutions", s.resolutions);
    print_hist("walk_hist", &l.walk, "kb_queries", s.kb_queries);
    print_hist("repair_hist", &l.repair, "repairs", s.probe_repairs);
    if s.par_donations > 0 {
        print_hist("donate_hist", &l.donation, "donations", s.par_donations);
    }
    // Attribution: which dimension-0 subtrees (k-bit nav prefixes) hold
    // the work. The resolutions column sums to the counter above exactly
    // in every mode.
    println!(
        "attr (k={} prefix bits; Σres={} == resolutions):",
        l.attr.prefix_bits(),
        l.attr.resolutions()
    );
    println!(
        "  {:>24}  {:>12} {:>12} {:>12} {:>12}",
        "prefix", "resolutions", "re_res", "inserts", "repair_hits"
    );
    for (i, r) in l.attr.top_k(8) {
        println!(
            "  {:>24}  {:>12} {:>12} {:>12} {:>12}",
            l.attr.label(i),
            r.resolutions,
            r.re_resolutions,
            r.inserts,
            r.repair_hits
        );
    }
    // Flight recorder: how much of the run the bounded ring kept.
    if s.trace_recorded > 0 {
        println!(
            "flight recorder: kept={} dropped={} ({:.1}% of {} recorded)",
            run.output.trace.len(),
            s.trace_dropped,
            100.0 * s.trace_dropped as f64 / s.trace_recorded as f64,
            s.trace_recorded
        );
    }
}
