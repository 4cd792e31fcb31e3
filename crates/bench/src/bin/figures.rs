//! Regenerates the paper's illustrative figures as ASCII art and counts:
//! gap boxes per index type (Figures 1, 3, 4), the MSB instances
//! (Figures 5/6), and the worked Example 4.4 trace (Figure 10).
//!
//! Usage: `cargo run --release -p bench --bin figures [-- <which>]` with
//! `<which>` ∈ {`gaps`, `msb`, `trace`, `all`}.

use boxstore::SetOracle;
use dyadic::{DyadicBox, Space};
use relation::{DyadicTreeIndex, Relation, Schema, TrieIndex};
use tetris_core::{Tetris, TraceEvent};
use workload::{bcp, triangle};

/// The experiments `main` can run, in the order `all` runs them.
const EXPERIMENTS: [(&str, fn()); 3] = [
    ("gaps", figures_1_3_4),
    ("msb", figures_5_6),
    ("trace", figure_10_trace),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let chosen: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .map(|&(_, run)| run)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("figures: unknown experiment {arg:?}");
        eprintln!("usage: figures [all|{}]", names.join("|"));
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}

/// ASCII-render a 2-D relation and its gap boxes.
fn render_2d(rel: &Relation, gaps: &[DyadicBox], width: u8, title: &str) {
    println!("{title}");
    let dom = 1u64 << width;
    let space = Space::uniform(2, width);
    for b in (0..dom).rev() {
        let mut line = String::new();
        for a in 0..dom {
            let c = if rel.contains(&[a, b]) {
                '●'
            } else {
                let hits = gaps
                    .iter()
                    .filter(|g| g.contains_point(&[a, b], &space))
                    .count();
                match hits {
                    0 => '·',
                    1 => '░',
                    _ => '▓',
                }
            };
            line.push(c);
            line.push(' ');
        }
        println!("  {line}");
    }
    println!("  (● tuple, ░ one gap box, ▓ overlapping gaps, · uncovered)\n");
}

/// Figures 1 and 3: the cross relation under three index types.
fn figures_1_3_4() {
    println!("== Figures 1 & 3: gap boxes of R(A,B) = {{3}}×{{1,3,5,7}} ∪ {{1,3,5,7}}×{{3}} ==\n");
    let mut tuples = Vec::new();
    for v in [1u64, 3, 5, 7] {
        tuples.push(vec![3, v]);
        tuples.push(vec![v, 3]);
    }
    let rel = Relation::new(Schema::uniform(&["A", "B"], 3), tuples);

    let ab = TrieIndex::build(&rel, &[0, 1]).all_gap_boxes();
    render_2d(
        &rel,
        &ab,
        3,
        &format!("Figure 1b — (A,B)-ordered B-tree: {} gap boxes", ab.len()),
    );
    let ba = TrieIndex::build(&rel, &[1, 0]).all_gap_boxes();
    render_2d(
        &rel,
        &ba,
        3,
        &format!("Figure 3a — (B,A)-ordered B-tree: {} gap boxes", ba.len()),
    );
    let quad = DyadicTreeIndex::build(&rel).all_gap_boxes();
    render_2d(
        &rel,
        &quad,
        3,
        &format!("Figure 3b — dyadic-tree index: {} gap boxes", quad.len()),
    );

    println!(
        "== Figure 4: dyadic decomposition of the gaps of R(A,B) = {{(0,3)}} over 2 bits ==\n"
    );
    let rel = Relation::new(Schema::uniform(&["A", "B"], 2), vec![vec![0, 3]]);
    let gaps = TrieIndex::build(&rel, &[0, 1]).all_gap_boxes();
    for g in &gaps {
        println!("  dyadic gap box: {g}");
    }
    render_2d(&rel, &gaps, 2, "");
}

/// Figures 5 and 6: the MSB triangle instances.
fn figures_5_6() {
    println!("== Figure 5: MSB triangle — six gap boxes cover the whole cube ==\n");
    let d = 4u8;
    let space = Space::uniform(3, d);
    let cover = triangle::msb_triangle_boxes(d);
    for b in &cover {
        println!("  gap box {b}");
    }
    let oracle = SetOracle::new(space, cover);
    let (covered, stats) = Tetris::reloaded(&oracle).check_cover();
    println!(
        "\n  Tetris verdict: covered = {covered} with {} resolutions (output empty, |C| = 6)\n",
        stats.resolutions
    );

    println!("== Figure 6: swap T for T' (MSBs equal) — output appears ==\n");
    let open = triangle::msb_triangle_boxes_open(d);
    for b in &open {
        println!("  gap box {b}");
    }
    let oracle = SetOracle::new(space, open);
    let out = Tetris::reloaded(&oracle).run();
    println!(
        "\n  Tetris found {} output tuples (paper: the two 'same-MSB on A,C' quadrant cubes)\n",
        out.tuples.len()
    );
}

/// Figure 10 / Example 4.4: the worked trace, step by step.
fn figure_10_trace() {
    println!("== Figure 10 / Example 4.4: the worked BCP instance ==\n");
    let (space, boxes) = bcp::example_4_4();
    for b in &boxes {
        println!("  input box {b}");
    }
    let oracle = SetOracle::new(space, boxes);
    let out = Tetris::reloaded(&oracle).traced().run();
    println!("\n  -- trace (loads, resolutions, outputs) --");
    for e in &out.trace {
        match e {
            TraceEvent::Resolve { .. } | TraceEvent::Output(_) | TraceEvent::Load { .. } => {
                println!("  {e}");
            }
            _ => {}
        }
    }
    println!("\n  output tuples: {:?}", out.tuples);
    println!("  total resolutions: {}", out.stats.resolutions);
    println!("  (paper: outputs ⟨01,10⟩ and ⟨11,10⟩, final resolvent ⟨λ,λ⟩)");
}
