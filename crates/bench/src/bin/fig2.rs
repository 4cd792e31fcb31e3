//! Regenerates **Figure 2** of the paper: the power/limitation landscape
//! of the three geometric-resolution classes, measured as resolution
//! counts on the separator instances.
//!
//! Usage: `cargo run --release -p bench --bin fig2 [-- <exp>]` with
//! `<exp>` ∈ {`f2-tree-agm`, `f2-tree-cache`, `f2-lb-separation`,
//! `f2-ordered-tww`, `f2-general-tight`, `all`}.

use bench::{fit_exponent, fmt_f, time, Table};
use boxstore::SetOracle;
use plan::QueryPlanBuilder;
use tetris_core::{balance::TetrisLB, Descent, Tetris};
use workload::{bcp, cycles, paths, triangle};

/// The experiments `main` can run, in the order `all` runs them.
const EXPERIMENTS: [(&str, fn()); 5] = [
    ("f2-tree-agm", f2_tree_agm),
    ("f2-tree-cache", f2_tree_cache),
    ("f2-lb-separation", f2_lb_separation),
    ("f2-ordered-tww", f2_ordered_tww),
    ("f2-general-tight", f2_general_tight),
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
        eprintln!("fig2: unknown experiment {arg:?}");
        eprintln!("usage: fig2 [all|{}]", names.join("|"));
        std::process::exit(2);
    }
    println!("== Figure 2 reproduction: resolution-class separations ==\n");
    for run in chosen {
        run();
    }
}

/// Theorem 5.1: Tree Ordered Geometric Resolution (caching OFF, outputs
/// reported inside the skeleton — `TetrisSkeleton2`, footnote 13) still
/// meets the AGM bound on worst-case instances.
fn f2_tree_agm() {
    println!("-- F2.1  Tree Ordered achieves Õ(AGM)  (Thm 5.1; skew triangle, caching off) --");
    let width = 12u8;
    let mut table = Table::new(&["N", "Z", "res_cached", "res_uncached", "agm=N^1.5"]);
    let (mut ns, mut unc) = (Vec::new(), Vec::new());
    for &m in &[100u64, 200, 400, 800] {
        let inst = triangle::skew_triangle(m, width);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"])
            .atom("T", &inst.t, &["A", "C"])
            .build();
        let oracle = join.oracle();
        let cached = Tetris::preloaded(&oracle).run();
        let uncached = Tetris::preloaded(&oracle)
            .cache_resolvents(false)
            .descent(Descent::Incremental)
            .run();
        assert_eq!(cached.tuples.len(), uncached.tuples.len());
        let n = (inst.r.len() * 3) as f64;
        table.row(&[
            format!("{}", n as u64),
            format!("{}", cached.tuples.len()),
            format!("{}", cached.stats.resolutions),
            format!("{}", uncached.stats.resolutions),
            fmt_f(n.powf(1.5)),
        ]);
        ns.push(n);
        unc.push(uncached.stats.resolutions as f64);
    }
    table.export(module_path!());
    println!("{}", table.render());
    println!(
        "fitted exponent (uncached) ~ N^{}   (paper: ≤ 1.5 on the triangle)\n",
        fmt_f(fit_exponent(&ns, &unc)),
    );
}

/// Theorem 5.2's message: Tree Ordered Geometric Resolution (no resolvent
/// caching) is strictly weaker than Ordered. Two measured mechanisms:
/// (a) sibling re-derivation on Example F.1 (preloaded — the cached/
/// uncached ratio grows with the instance); (b) restart re-treading in
/// Reloaded mode on comb paths — every on-demand load restarts the
/// skeleton, and without caching each restart re-proves everything so
/// far, squaring the certificate cost.
fn f2_tree_cache() {
    println!("-- F2.2a  Tree Ordered sibling re-derivation (Example F.1, preloaded) --");
    let mut table = Table::new(&["d", "|C|", "res_cached", "res_uncached", "ratio"]);
    for d in 4..=10u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes.clone());
        let cached = Tetris::preloaded(&oracle).run();
        let uncached = Tetris::preloaded(&oracle).cache_resolvents(false).run();
        assert!(cached.tuples.is_empty() && uncached.tuples.is_empty());
        let ratio = uncached.stats.resolutions as f64 / cached.stats.resolutions.max(1) as f64;
        table.row(&[
            format!("{d}"),
            format!("{}", boxes.len()),
            format!("{}", cached.stats.resolutions),
            format!("{}", uncached.stats.resolutions),
            fmt_f(ratio),
        ]);
    }
    table.export(module_path!());
    println!("{}", table.render());

    println!("-- F2.2b  Tree Ordered restart re-treading (comb path, Reloaded) --");
    let width = 14u8;
    let mut table = Table::new(&["k", "N", "res_cached", "res_uncached"]);
    let (mut ks, mut cach, mut unc) = (Vec::new(), Vec::new(), Vec::new());
    for &k in &[4usize, 8, 16, 32, 64] {
        let inst = paths::comb_path(k, 4, 8, width);
        let join = QueryPlanBuilder::new(width)
            .atom("R", &inst.r, &["A", "B"])
            .atom("S", &inst.s, &["B", "C"])
            .build();
        let oracle = join.oracle();
        // The re-treading phenomenon *is* Algorithm 2's restart loop, so
        // this experiment pins the paper-literal descent — the default
        // incremental driver never restarts and would erase the effect.
        let cached = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
        let uncached = Tetris::reloaded(&oracle)
            .descent(Descent::Restart)
            .cache_resolvents(false)
            .run();
        assert!(cached.tuples.is_empty() && uncached.tuples.is_empty());
        table.row(&[
            format!("{k}"),
            format!("{}", inst.r.len() + inst.s.len()),
            format!("{}", cached.stats.resolutions),
            format!("{}", uncached.stats.resolutions),
        ]);
        ks.push(k as f64);
        cach.push(cached.stats.resolutions as f64);
        unc.push(uncached.stats.resolutions as f64);
    }
    table.export(module_path!());
    println!("{}", table.render());
    println!(
        "fitted exponents vs |C|: cached ~ |C|^{}  uncached ~ |C|^{}   \
         (paper: Ordered Õ(|C|), Tree Ordered strictly weaker)\n",
        fmt_f(fit_exponent(&ks, &cach)),
        fmt_f(fit_exponent(&ks, &unc)),
    );
}

/// Theorem 5.4 vs Theorem 4.11: on Example F.1, ordered resolution needs
/// Ω(|C|²) while the Balance lift needs only Õ(|C|^{3/2}).
fn f2_lb_separation() {
    println!("-- F2.4  Ordered Ω(|C|²) vs Geometric Õ(|C|^1.5)  (Example F.1, d sweep) --");
    let mut table = Table::new(&["d", "|C|", "ordered_res", "lb_res", "ordered_s", "lb_s"]);
    let (mut cs, mut ord, mut lb) = (Vec::new(), Vec::new(), Vec::new());
    for d in 4..=9u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes.clone());
        let (plain, psecs) = time(|| Tetris::preloaded(&oracle).run());
        let (balanced, bsecs) = time(|| TetrisLB::preloaded(&oracle).run());
        assert!(plain.tuples.is_empty() && balanced.tuples.is_empty());
        table.row(&[
            format!("{d}"),
            format!("{}", boxes.len()),
            format!("{}", plain.stats.resolutions),
            format!("{}", balanced.stats.resolutions),
            fmt_f(psecs),
            fmt_f(bsecs),
        ]);
        cs.push(boxes.len() as f64);
        ord.push(plain.stats.resolutions as f64);
        lb.push(balanced.stats.resolutions as f64);
    }
    table.export(module_path!());
    println!("{}", table.render());
    println!(
        "fitted exponents: ordered ~ |C|^{}  load-balanced ~ |C|^{}   (paper: 2 vs 1.5)\n",
        fmt_f(fit_exponent(&cs, &ord)),
        fmt_f(fit_exponent(&cs, &lb)),
    );
}

/// Theorem 5.3 regime: treewidth-w certificate scaling of ordered
/// resolution — measured on comb 4-cycles (w = 2, upper bound |C|^{w+1}).
fn f2_ordered_tww() {
    println!("-- F2.3  Ordered on tw-w: Õ(|C|^(w+1))  (comb 4-cycle, w = 2) --");
    let width = 10u8;
    let mut table = Table::new(&["k", "N", "loaded", "resolutions"]);
    let (mut ks, mut res) = (Vec::new(), Vec::new());
    for &k in &[2usize, 4, 8, 16, 32] {
        let inst = cycles::comb_four_cycle(k, 2, 8, width);
        let join = QueryPlanBuilder::new(width)
            .atom("R1", &inst.rels[0], &["A", "B"])
            .atom("R2", &inst.rels[1], &["B", "C"])
            .atom("R3", &inst.rels[2], &["C", "D"])
            .atom("R4", &inst.rels[3], &["D", "A"])
            .build();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        let n: usize = inst.rels.iter().map(|r| r.len()).sum();
        table.row(&[
            format!("{k}"),
            format!("{n}"),
            format!("{}", out.stats.loaded_boxes),
            format!("{}", out.stats.resolutions),
        ]);
        ks.push(k as f64);
        res.push(out.stats.resolutions as f64);
    }
    table.export(module_path!());
    println!("{}", table.render());
    println!(
        "fitted exponent ~ |C|^{}   (paper: ≤ w+1 = 3; lower bound Ω(|C|^(w+1)) on worst inputs)\n",
        fmt_f(fit_exponent(&ks, &res)),
    );
}

/// Theorem 5.5: the Õ(|C|^{n/2}) bound is tight for Geometric Resolution —
/// the LB engine's measured exponent on Example F.1 sits at ≈ n/2 = 1.5.
fn f2_general_tight() {
    println!("-- F2.5  Geometric Ω(|C|^(n/2)) tightness  (LB engine on Example F.1, n = 3) --");
    let mut table = Table::new(&["d", "|C|", "lb_res", "|C|^1.5"]);
    let (mut cs, mut lb) = (Vec::new(), Vec::new());
    for d in 4..=9u8 {
        let (space, boxes) = bcp::example_f1(d);
        let oracle = SetOracle::new(space, boxes.clone());
        let out = TetrisLB::preloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        table.row(&[
            format!("{d}"),
            format!("{}", boxes.len()),
            format!("{}", out.stats.resolutions),
            fmt_f((boxes.len() as f64).powf(1.5)),
        ]);
        cs.push(boxes.len() as f64);
        lb.push(out.stats.resolutions as f64);
    }
    table.export(module_path!());
    println!("{}", table.render());
    println!(
        "fitted exponent ~ |C|^{}   (paper: Θ(|C|^(n/2)) with n/2 = 1.5)\n",
        fmt_f(fit_exponent(&cs, &lb)),
    );
}
