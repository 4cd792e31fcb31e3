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
//! where `<tier>` is `smoke` (10⁵ edges — the CI `parallel-smoke` and
//! `query-zoo` jobs), `full` (10⁴ + 10⁵, the snapshot tier, default),
//! `big` (adds the 10⁶-edge skewed instance), or an explicit edge count;
//! `--query` is a comma-separated query sweep over `triangle,4-cycle,4-clique,lw3`
//! (default `triangle`; `all` runs the whole zoo); `--threads` is a
//! comma-separated worker sweep (default `1,4`; `1` runs the sequential
//! incremental engine, `N > 1` runs `Descent::Parallel { threads: N }`);
//! `--seed` overrides every generator's fixed seed, so a
//! differential failure found elsewhere can be replayed at bench scale.
//! Sweeps run with metrics off (`TetrisConfig::obs` unset), like the
//! snapshot rows they are gated against; per-layer metrics come from
//! `tetris_bench --trace 1`.
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

struct Args {
    tier: String,
    queries: Vec<String>,
    threads: Vec<usize>,
    seed: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        tier: "full".to_string(),
        queries: vec!["triangle".to_string()],
        threads: vec![1, 4],
        seed: None,
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
         [--threads 1,4,...] [--seed S]"
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
    let graph_queries: Vec<&str> = args
        .queries
        .iter()
        .map(|q| q.as_str())
        .filter(|q| GRAPH_QUERIES.contains(q))
        .collect();
    for &edges in &edge_tiers {
        if args.queries.iter().any(|q| q == "lw3") {
            run_lw3_row(&mut table, edges, args.seed, &args.threads);
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
            roundtrip_loader(kind, &g, &mut table, &graph_queries, &args.threads);
            eprintln!("  done: {kind} @ {edges} edges");
        }
    }
    table.export("t2-graphs");
    println!("{}", table.render());
    println!("all rows: tetris == leapfrog == ground truth ✓ (all queries × threads)");
}

/// The fixed per-family generator seed (`--seed` overrides).
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
fn roundtrip_loader(kind: &str, g: &Graph, table: &mut Table, queries: &[&str], threads: &[usize]) {
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
            &prepared,
            RowMeta {
                query: q,
                graph: kind,
                edges: g.edges.len(),
                vertices: g.vertices,
                truth,
                truth_s,
                load_s,
            },
            threads,
        );
    }
}

/// The Loomis–Whitney-3 row: not graph-derived — a random LW(3) instance
/// sized to the tier (`edges` tuples per atom over a `2^⌈⅔·log₂ edges⌉`
/// domain, so the expected output stays Θ(edges)), verified against the
/// pairwise hash-join counter.
fn run_lw3_row(table: &mut Table, edges: usize, seed: Option<u64>, threads: &[usize]) {
    let width = ((2.0 / 3.0) * (edges.max(8) as f64).log2()).ceil() as u8;
    let seed = seed.unwrap_or_else(|| default_seed("lw-random"));
    let inst = loomis::random_loomis_whitney(3, edges, width, seed);
    let (truth, truth_s) = time(|| loomis::count_lw3_hash_join(&inst));
    let refs: Vec<&relation::Relation> = inst.rels.iter().collect();
    let prepared = zoo::loomis_whitney(&refs).prepare();
    let n: usize = inst.rels.iter().map(|r| r.len()).sum();
    debug_assert_eq!(n, prepared.input_size());
    run_sweep(
        table,
        &prepared,
        RowMeta {
            query: "lw3",
            graph: "lw-random",
            edges,
            vertices: 1u64 << width,
            truth,
            truth_s,
            load_s: 0.0,
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
}

/// The thread-count sweep for one prepared query: every listing must be
/// bit-identical to the first (and to leapfrog's, which answers the same
/// plan in the same SAO coordinates). `tetris_s` times the solve only —
/// the engine is built (and the knowledge base preloaded) outside the
/// clock, exactly as every snapshot since `BENCH_seed.json` measured
/// it, so rows stay ratchet-comparable.
fn run_sweep(table: &mut Table, prepared: &PreparedQuery, meta: RowMeta<'_>, threads: &[usize]) {
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
    }
}
