//! Beyond worst-case: certificate-sized running time and the power of
//! index choice.
//!
//! Demonstrates the paper's two beyond-worst-case headlines:
//!
//! 1. **Runtime tracks |C|, not N** — a path join whose input grows
//!    unboundedly while its box certificate stays constant: Tetris-
//!    Reloaded's work stays flat while Leapfrog's grows linearly.
//! 2. **Certificates depend on indexes** (Appendix B) — the bowtie's
//!    horizontal-line instance needs Ω(N) boxes under an (A,B)-sorted
//!    index but only O(d) under (B,A); with both indexes available,
//!    Tetris automatically uses the cheap ones.
//!
//! ```sh
//! cargo run --release --example beyond_worst_case
//! ```

use baseline::{leapfrog::leapfrog_join, JoinSpec};
use std::time::Instant;
use tetris_join::plan::QueryPlanBuilder;
use tetris_join::relation::{IndexedRelation, JoinOracle};
use tetris_join::tetris::Tetris;
use workload::{bowtie, paths};

fn main() {
    part1_certificate_scaling();
    part2_index_choice();
}

fn part1_certificate_scaling() {
    println!("== 1. runtime tracks |C|, not N (Theorem 4.7) ==\n");
    println!("half-split path join R(A,B) ⋈ S(B,C): empty output, |C| = 2 gap boxes\n");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}",
        "N", "tetris_res", "tetris_ms", "leapfrog_ms"
    );
    let width = 16u8;
    for &n in &[1_000usize, 10_000, 100_000] {
        let inst = paths::half_split_path(n, width);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"])
            .build();
        let start = Instant::now();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        let t_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(out.tuples.is_empty());

        let spec = JoinSpec::new(&["A", "B", "C"], &[width; 3])
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"]);
        let start = Instant::now();
        let (lf, _) = leapfrog_join(&spec);
        let lf_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(lf.is_empty());
        println!(
            "{:>8}  {:>12}  {:>12.2}  {:>12.2}",
            inst.r.len() + inst.s.len(),
            out.stats.resolutions,
            t_ms,
            lf_ms
        );
    }
    println!("\nTetris' resolution count is constant while N grows 100× ✓\n");
}

fn part2_index_choice() {
    println!("== 2. certificates depend on physical design (Appendix B, Fig. 13) ==\n");
    let width = 12u8;
    let m = 2_000u64;
    let inst = bowtie::horizontal_line(m, 3, width);
    println!(
        "bowtie R(A) ⋈ S(A,B) ⋈ T(B): |S| = {} (a horizontal line), output empty\n",
        inst.s.len()
    );

    // Physical design 1: S sorted (A,B) — the bad order.
    let run = |s_order: &[usize], label: &str| {
        let r = IndexedRelation::new(inst.r.clone());
        let s = IndexedRelation::with_trie(inst.s.clone(), s_order);
        let t = IndexedRelation::new(inst.t.clone());
        // SAO (B, A): reverse GYO order of the bowtie.
        let oracle = JoinOracle::new(&["B", "A"], &[width; 2])
            .atom("R", &r, &["A"])
            .atom("S", &s, &["A", "B"])
            .atom("T", &t, &["B"]);
        let start = Instant::now();
        let out = Tetris::reloaded(&oracle).run();
        println!(
            "  S indexed {label:<10} → {:>8} boxes loaded, {:>8} resolutions, {:>8.2} ms",
            out.stats.loaded_boxes,
            out.stats.resolutions,
            start.elapsed().as_secs_f64() * 1e3
        );
        assert!(out.tuples.is_empty());
        out.stats.loaded_boxes
    };
    let bad = run(&[0, 1], "(A,B)");
    let good = run(&[1, 0], "(B,A)");
    println!(
        "\n(B,A) loads {}× fewer gap boxes — the certificate is a property of the index ✓",
        bad / good.max(1)
    );
}
