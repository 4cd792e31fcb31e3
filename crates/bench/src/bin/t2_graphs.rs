//! **T2 — the large-graph workload tier**: the query zoo on 10⁴–10⁶-edge
//! graphs (random / skewed / power-law), Tetris-Preloaded (sequential
//! and `Descent::Parallel`) vs Leapfrog
//! Triejoin from the *same* query plan, every row verified against an
//! independent ground-truth counter. Queries: ordered `triangle`
//! listing (the default — byte-compatible with every pre-zoo snapshot),
//! monotone `4-cycle`, `4-clique`, and `lw3` (random Loomis–Whitney-3,
//! not graph-derived). (Preloaded is the right variant at graph scale:
//! sparse-graph certificates are Θ(N), so Reloaded's probe-driven
//! loading pays ~40× more resolutions here — measured at 10⁴ edges,
//! EXPERIMENTS.md §6.)
//!
//! Usage:
//! `cargo run --release -p bench --bin t2_graphs [-- <tier>]
//!  [--query L] [--threads L] [--seed S]`
//! where `<tier>` is `smoke` (10⁵ edges — the CI graph-smoke job), `full`
//! (10⁴ + 10⁵, the snapshot tier, default), `big` (adds the 10⁶-edge
//! skewed instance), or an explicit edge count; `--query` is a
//! comma-separated query sweep over `triangle,4-cycle,4-clique,lw3`
//! (default `triangle`; `all` runs the whole zoo); `--threads` is a
//! comma-separated worker sweep (default `1,4`; `1` runs the sequential
//! incremental engine, `N > 1` runs `Descent::Parallel { threads: N }`);
//! `--seed` overrides every generator's fixed seed, so a
//! differential failure found elsewhere can be replayed at bench scale;
//! `--profile <path>` turns on `TetrisConfig::obs` for every sweep run
//! and writes one `t2-profile` JSONL row per sweep row to `<path>` (and
//! appends the same rows to `$TETRIS_BENCH_JSONL`): per-phase spans,
//! the four engine histograms as CSV cells, and the knowledge base's
//! `mem_stats` ledger — parsed back by `bench_compare --check-profile`.
//! Metrics-on runs pay the (small, measured — EXPERIMENTS.md §12)
//! observation overhead, so snapshot wall-time rows are regenerated
//! *without* `--profile`. `--trace-out <path>` writes a Chrome
//! trace-event JSON file (Perfetto / `chrome://tracing` loadable) with
//! one process lane per sweep run — phase spans on thread 0, sampled
//! task frames on thread 1; `--provenance <path>` writes one replayable
//! `t2-provenance` JSONL row per sweep run (full `TetrisConfig`,
//! generator seed and parameters, every counter, the attribution
//! ledger, and the snapshot path) — validated in CI by `bench_compare
//! --check-provenance`. Either flag turns `TetrisConfig::obs` on for
//! the sweep, exactly like `--profile`.
//!
//! Every row asserts `tetris == leapfrog == ground truth` and the sweep
//! asserts every thread count's listing is **bit-identical** to the
//! first; any mismatch exits non-zero, so the sweep is itself a
//! correctness gate. Machine-readable rows land in
//! `$TETRIS_BENCH_JSONL` (experiment `t2-graphs`, one row per query ×
//! thread count, keyed apart by the `query` and `threads` columns; the
//! `triangles` column holds the output count of whichever query the row
//! ran), gated in CI by `bench_compare --gate t2-graphs` against
//! `BENCH_pr10.json` (regeneration: EXPERIMENTS.md §8).
//!
//! All execution goes through the `plan` crate's generic
//! plan → prepare → execute pipeline — this bin contains no per-query
//! engine code.

use bench::{fmt_f, peak_rss_bytes, time, Table};
use plan::{zoo, PreparedQuery};
use tetris_core::{Descent, TetrisConfig};
use workload::graphs::{self, Graph};
use workload::loomis;

const GRAPH_QUERIES: [&str; 3] = ["triangle", "4-cycle", "4-clique"];
const ALL_QUERIES: [&str; 4] = ["triangle", "4-cycle", "4-clique", "lw3"];

/// Columns of a `--profile` row (experiment `t2-profile`, one row per
/// sweep row). The `*_hist` cells are `Pow2Histogram::to_csv` strings
/// and `attr` is an `AttributionLedger::to_csv` string;
/// `bench_compare --check-profile` parses them back and asserts the
/// ledger-balance invariants against the counter columns.
const PROFILE_COLS: [&str; 25] = [
    "experiment",
    "query",
    "graph",
    "threads",
    "edges",
    "N",
    "preload_s",
    "solve_s",
    "task_spans",
    "task_secs",
    "resolutions",
    "kb_queries",
    "kb_inserts",
    "advances",
    "repairs",
    "full_walks",
    "donations",
    "depth_hist",
    "walk_hist",
    "repair_hist",
    "donate_hist",
    "attr",
    "mem_nodes",
    "mem_bytes",
    "mem_depth",
];

struct Args {
    tier: String,
    queries: Vec<String>,
    threads: Vec<usize>,
    seed: Option<u64>,
    profile: Option<String>,
    trace_out: Option<String>,
    provenance: Option<String>,
}

/// Optional per-sweep output sinks beyond the wall table. Any of them
/// being active turns `TetrisConfig::obs` on for every sweep run (the
/// chrome lanes and provenance ledgers are read from the run's merged
/// `Ledger`), so snapshot wall rows are regenerated with all three off.
struct Sinks {
    profile: Option<Table>,
    chrome: Option<obs::chrome::ChromeTrace>,
    /// Built lazily on the first record — its columns are the provenance
    /// field names the `plan` crate emits, so the bin never hardcodes
    /// them; `provenance_on` carries the request until then.
    provenance: Option<Table>,
    provenance_on: bool,
    /// Sweep-run counter — each run gets its own chrome pid lane.
    runs: u64,
}

impl Sinks {
    fn obs_on(&self) -> bool {
        self.profile.is_some() || self.chrome.is_some() || self.provenance_on
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        tier: "full".to_string(),
        queries: vec!["triangle".to_string()],
        threads: vec![1, 4],
        seed: None,
        profile: None,
        trace_out: None,
        provenance: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--query" => {
                let list = it.next().unwrap_or_else(|| usage("--query needs a list"));
                args.queries = list
                    .split(',')
                    .flat_map(|q| match q.trim() {
                        "all" | "zoo" => ALL_QUERIES.iter().map(|s| s.to_string()).collect(),
                        q if ALL_QUERIES.contains(&q) => vec![q.to_string()],
                        other => usage(&format!(
                            "unknown query {other:?} (expected {})",
                            ALL_QUERIES.join("/")
                        )),
                    })
                    .collect();
            }
            "--threads" => {
                let list = it.next().unwrap_or_else(|| usage("--threads needs a list"));
                args.threads = list
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage(&format!("bad thread count {t:?}")))
                    })
                    .collect();
            }
            "--seed" => {
                let s = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = Some(
                    s.parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {s:?} (expected a u64)"))),
                );
            }
            "--profile" => {
                args.profile = Some(it.next().unwrap_or_else(|| usage("--profile needs a path")));
            }
            "--trace-out" => {
                args.trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--provenance" => {
                args.provenance = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--provenance needs a path")),
                );
            }
            other if !other.starts_with('-') => args.tier = other.to_string(),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("t2_graphs: {msg}");
    eprintln!(
        "usage: t2_graphs [smoke|full|big|<edge count>] [--query triangle,4-cycle,4-clique,lw3] \
         [--threads 1,4,...] [--seed S] \
         [--profile <path>] [--trace-out <path>] [--provenance <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let edge_tiers: Vec<usize> = match args.tier.as_str() {
        "smoke" => vec![100_000],
        "full" => vec![10_000, 100_000],
        "big" => vec![10_000, 100_000, 1_000_000],
        other => match other.parse::<usize>() {
            Ok(e) => vec![e],
            Err(_) => usage(&format!("unknown tier {other:?}")),
        },
    };
    println!(
        "== T2: large-graph query zoo (tier: {}, queries: {:?}, threads: {:?}) ==\n",
        args.tier, args.queries, args.threads
    );
    let mut table = Table::new(&[
        "query",
        "graph",
        "threads",
        "edges",
        "vertices",
        "N",
        "triangles",
        "truth_s",
        "tetris_s",
        "preload_s",
        "resolutions",
        "lftj_s",
        "load_s",
        "peak_rss_mb",
    ]);
    let mut sinks = Sinks {
        profile: args.profile.as_ref().map(|_| Table::new(&PROFILE_COLS)),
        chrome: args.trace_out.as_ref().map(|_| Default::default()),
        provenance: None,
        provenance_on: args.provenance.is_some(),
        runs: 0,
    };
    let graph_queries: Vec<&str> = args
        .queries
        .iter()
        .map(|q| q.as_str())
        .filter(|q| GRAPH_QUERIES.contains(q))
        .collect();
    for &edges in &edge_tiers {
        if args.queries.iter().any(|q| q == "lw3") {
            run_lw3_row(&mut table, &mut sinks, edges, args.seed, &args.threads);
            eprintln!("  done: lw3 @ {edges} tuples/atom");
        }
        if graph_queries.is_empty() {
            continue;
        }
        for kind in ["random", "skewed", "power-law"] {
            // The 10⁶ tier pins only the skewed instance (the paper's
            // motivating shape); the other families stay at ≤ 10⁵ to keep
            // the big tier under control.
            if edges >= 1_000_000 && kind != "skewed" {
                continue;
            }
            let g = generate(kind, edges, args.seed);
            roundtrip_loader(kind, &g, &mut table, &mut sinks, &graph_queries, &args);
            eprintln!("  done: {kind} @ {edges} edges");
        }
    }
    table.export("t2-graphs");
    if let (Some(path), Some(pt)) = (&args.profile, &sinks.profile) {
        // The profile table carries its own `experiment` column, so the
        // file is self-describing; the same rows are appended verbatim
        // to $TETRIS_BENCH_JSONL (not via Table::export, which would
        // prepend a second experiment column).
        std::fs::write(path, pt.to_jsonl()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if let Ok(snap) = std::env::var("TETRIS_BENCH_JSONL") {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&snap)
                .unwrap_or_else(|e| panic!("append {snap}: {e}"));
            f.write_all(pt.to_jsonl().as_bytes())
                .unwrap_or_else(|e| panic!("append {snap}: {e}"));
        }
        println!("profile rows (experiment t2-profile) -> {path}");
    }
    if let (Some(path), Some(ct)) = (&args.trace_out, &sinks.chrome) {
        // Chrome trace-event JSON (array flavour) — load in Perfetto or
        // chrome://tracing. One pid lane per sweep run.
        std::fs::write(path, ct.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "chrome trace ({} events over {} runs) -> {path}",
            ct.events().len(),
            sinks.runs
        );
    }
    if let (Some(path), Some(pv)) = (&args.provenance, &sinks.provenance) {
        // Replayable run records (experiment t2-provenance). Written to
        // the requested path only — never appended to the snapshot, so
        // the ratchet never sees them; `bench_compare --check-provenance`
        // validates the file in CI.
        std::fs::write(path, pv.to_jsonl()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("provenance rows (experiment t2-provenance) -> {path}");
    }
    println!("{}", table.render());
    println!("all rows: tetris == leapfrog == ground truth ✓ (all queries × threads)");
}

/// The fixed per-family generator seed (`--seed` overrides) — recorded
/// in every provenance row so a run can be replayed exactly.
fn default_seed(kind: &str) -> u64 {
    match kind {
        "random" => 0xC0FFEE,
        "skewed" => 0xBEEF,
        "power-law" => 0xF00D,
        "lw-random" => 0x1F3D,
        other => unreachable!("unknown instance kind {other}"),
    }
}

/// Deterministic instance per (kind, edge count); `--seed` overrides.
fn generate(kind: &str, edges: usize, seed: Option<u64>) -> Graph {
    let seed = seed.unwrap_or_else(|| default_seed(kind));
    match kind {
        "random" => graphs::random_graph((edges / 2).max(4) as u64, edges, seed),
        "skewed" => graphs::skewed_graph_with_edges(edges, 2, seed),
        "power-law" => graphs::power_law_graph((edges / 2).max(4) as u64, 0.8, edges, seed),
        other => unreachable!("unknown graph kind {other}"),
    }
}

/// Round-trip the graph through the streaming on-disk loader (timed once
/// per instance), then run every requested graph query on it.
fn roundtrip_loader(
    kind: &str,
    g: &Graph,
    table: &mut Table,
    sinks: &mut Sinks,
    queries: &[&str],
    args: &Args,
) {
    // Pid-qualified so concurrent sweeps (CI + a developer run) don't
    // race on the same temp file.
    let path = std::env::temp_dir().join(format!(
        "t2_graphs_{}_{kind}_{}.tsv",
        std::process::id(),
        g.edges.len()
    ));
    g.save(&path).expect("save graph");
    let (back, load_s) = time(|| Graph::load(&path).expect("load graph"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        back.edges, g.edges,
        "{kind}: on-disk round trip changed the edge set"
    );
    assert_eq!(back.vertices, g.vertices);

    let edges = g.edge_relation();
    for &q in queries {
        let (truth, truth_s) = time(|| match q {
            "triangle" => g.count_triangles(),
            "4-cycle" => g.count_four_cycles(),
            "4-clique" => g.count_four_cliques(),
            other => unreachable!("unknown graph query {other}"),
        });
        let prepared = match q {
            "triangle" => zoo::triangle(&edges),
            "4-cycle" => zoo::four_cycle(&edges),
            "4-clique" => zoo::k_clique(&edges, 4),
            other => unreachable!("unknown graph query {other}"),
        }
        .prepare();
        run_sweep(
            table,
            sinks,
            &prepared,
            RowMeta {
                query: q,
                graph: kind,
                edges: g.edges.len(),
                vertices: g.vertices,
                truth,
                truth_s,
                load_s,
                seed: args.seed.unwrap_or_else(|| default_seed(kind)),
            },
            &args.threads,
        );
    }
}

/// The Loomis–Whitney-3 row: not graph-derived — a random LW(3) instance
/// sized to the tier (`edges` tuples per atom over a `2^⌈⅔·log₂ edges⌉`
/// domain, so the expected output stays Θ(edges)), verified against the
/// pairwise hash-join counter.
fn run_lw3_row(
    table: &mut Table,
    sinks: &mut Sinks,
    edges: usize,
    seed: Option<u64>,
    threads: &[usize],
) {
    let width = ((2.0 / 3.0) * (edges.max(8) as f64).log2()).ceil() as u8;
    let eff_seed = seed.unwrap_or_else(|| default_seed("lw-random"));
    let inst = loomis::random_loomis_whitney(3, edges, width, eff_seed);
    let (truth, truth_s) = time(|| loomis::count_lw3_hash_join(&inst));
    let refs: Vec<&relation::Relation> = inst.rels.iter().collect();
    let prepared = zoo::loomis_whitney(&refs).prepare();
    let n: usize = inst.rels.iter().map(|r| r.len()).sum();
    debug_assert_eq!(n, prepared.input_size());
    run_sweep(
        table,
        sinks,
        &prepared,
        RowMeta {
            query: "lw3",
            graph: "lw-random",
            edges,
            vertices: 1u64 << width,
            truth,
            truth_s,
            load_s: 0.0,
            seed: eff_seed,
        },
        threads,
    );
}

struct RowMeta<'a> {
    query: &'a str,
    graph: &'a str,
    edges: usize,
    vertices: u64,
    truth: u64,
    truth_s: f64,
    load_s: f64,
    /// The effective generator seed (family default or `--seed`).
    seed: u64,
}

/// The thread-count sweep for one prepared query: every listing must be
/// bit-identical to the first (and to leapfrog's, which answers the same
/// plan in the same SAO coordinates). `tetris_s` times the solve only — the engine is built (and the knowledge base preloaded)
/// outside the clock, exactly as every earlier snapshot
/// (BENCH_seed…BENCH_pr7) measured it, so rows stay ratchet-comparable
/// across PRs.
fn run_sweep(
    table: &mut Table,
    sinks: &mut Sinks,
    prepared: &PreparedQuery,
    meta: RowMeta<'_>,
    threads: &[usize],
) {
    let n = prepared.input_size();
    let (lf, lftj_s) = time(|| prepared.leapfrog().0);
    assert_eq!(
        lf.len() as u64,
        meta.truth,
        "{}/{}/{} edges: leapfrog listed {} tuples, ground truth {}",
        meta.query,
        meta.graph,
        meta.edges,
        lf.len(),
        meta.truth
    );

    let mut reference: Option<Vec<Vec<u64>>> = None;
    for &t in threads {
        let cfg = TetrisConfig {
            preload: true,
            descent: if t == 1 {
                Descent::Incremental
            } else {
                Descent::Parallel { threads: t }
            },
            // Profiled/traced/provenance sweeps run metrics-on; snapshot
            // wall rows are regenerated with all three sinks off, so the
            // ratchet never compares on against off.
            obs: sinks.obs_on(),
            ..Default::default()
        };
        let run = prepared.execute(cfg);
        let out = &run.output;
        let ctx = format!(
            "{}/{}/{} edges, threads={t}",
            meta.query, meta.graph, meta.edges
        );
        assert_eq!(
            out.tuples.len() as u64,
            meta.truth,
            "{ctx}: tetris listed {} tuples, ground truth {}",
            out.tuples.len(),
            meta.truth
        );
        match &reference {
            None => {
                // Both engines emit SAO coordinates in lex order, so the
                // listings must agree byte-for-byte.
                assert_eq!(
                    out.tuples, lf,
                    "{ctx}: tetris and leapfrog listings diverge"
                );
                reference = Some(out.tuples.clone());
            }
            Some(r) => assert_eq!(
                &out.tuples, r,
                "{ctx}: listing diverges from the first sweep entry"
            ),
        }
        // Resolutions are the Õ-bound quantity and must never grow, so
        // `bench_compare` hard-fails on any increase — but under
        // `Descent::Parallel` the count depends on donation timing
        // (documented in tests/stats_regression.rs), so parallel rows
        // report `-` and only their wall time and output count gate.
        let resolutions = if t == 1 {
            format!("{}", out.stats.resolutions)
        } else {
            "-".to_string()
        };
        table.row(&[
            meta.query.to_string(),
            meta.graph.to_string(),
            format!("{t}"),
            format!("{}", meta.edges),
            format!("{}", meta.vertices),
            format!("{n}"),
            format!("{}", meta.truth),
            fmt_f(meta.truth_s),
            fmt_f(run.solve_s),
            fmt_f(run.preload_s),
            resolutions,
            fmt_f(lftj_s),
            fmt_f(meta.load_s),
            // An unmeasurable RSS (no procfs) is an explicit JSON null,
            // never a fabricated number — bench_compare skips the ratchet
            // for such rows.
            peak_rss_bytes().map_or("null".to_string(), |b| fmt_f(b as f64 / (1024.0 * 1024.0))),
        ]);
        sinks.runs += 1;
        if let Some(pt) = &mut sinks.profile {
            let l = out.obs.as_ref().expect("profile sweeps run with obs on");
            let mem = run.mem.expect("profile sweeps read mem_stats");
            let task = l.span(obs::Phase::Task);
            pt.row(&[
                "t2-profile".to_string(),
                meta.query.to_string(),
                meta.graph.to_string(),
                format!("{t}"),
                format!("{}", meta.edges),
                format!("{n}"),
                fmt_f(run.preload_s),
                fmt_f(run.solve_s),
                format!("{}", task.count),
                fmt_f(task.secs),
                format!("{}", out.stats.resolutions),
                format!("{}", out.stats.kb_queries),
                format!("{}", out.stats.kb_inserts),
                format!("{}", out.stats.probe_advances),
                format!("{}", out.stats.probe_repairs),
                format!("{}", out.stats.probe_full_walks),
                format!("{}", out.stats.par_donations),
                l.depth.to_csv(),
                l.walk.to_csv(),
                l.repair.to_csv(),
                l.donation.to_csv(),
                l.attr.to_csv(),
                format!("{}", mem.nodes),
                format!("{}", mem.bytes),
                format!("{}", mem.max_depth),
            ]);
        }
        if let Some(ct) = &mut sinks.chrome {
            let l = out.obs.as_ref().expect("traced sweeps run with obs on");
            let name = format!("{}/{}/t{t}@{}", meta.query, meta.graph, meta.edges);
            ct.push_run(&name, l, sinks.runs);
        }
        if sinks.provenance_on {
            let mut rec: Vec<(&str, String)> = vec![
                ("experiment", "t2-provenance".to_string()),
                ("graph", meta.graph.to_string()),
                ("edges", meta.edges.to_string()),
                ("seed", meta.seed.to_string()),
                (
                    "snapshot",
                    std::env::var("TETRIS_BENCH_JSONL").unwrap_or_else(|_| "-".into()),
                ),
            ];
            rec.extend(run.provenance(prepared));
            let pv = sinks.provenance.get_or_insert_with(|| {
                let cols: Vec<&str> = rec.iter().map(|(f, _)| *f).collect();
                Table::new(&cols)
            });
            let vals: Vec<String> = rec.into_iter().map(|(_, v)| v).collect();
            pv.row(&vals);
        }
    }
}
