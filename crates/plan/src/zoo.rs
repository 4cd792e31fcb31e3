//! The query zoo: the standard WCOJ query families as plans.
//!
//! Every family below routes through the same generic
//! plan → prepare → execute pipeline — there is no per-query engine
//! code. Graph queries take the oriented edge relation (`u < v` per
//! tuple, as `workload::graphs::Graph::edge_relation` produces), which
//! gives the **monotone** reading of each pattern: the DAG ordering
//! forces the bound vertices to be strictly increasing, so each
//! subgraph is listed exactly once and no degenerate (repeated-vertex)
//! tuple can appear.
//!
//! | family | atoms | monotone semantics |
//! |--------|-------|--------------------|
//! | [`triangle`] | `E(A,B), E(B,C), E(A,C)` | triangles `a<b<c` |
//! | [`four_cycle`] | `E(A,B), E(B,C), E(C,D), E(A,D)` | 4-cycles `a<b<c<d` with edges `ab,bc,cd,ad` |
//! | [`k_clique`] | `E(Xi,Xj)` for all `i<j` | `k`-cliques `x1<…<xk` |
//! | [`loomis_whitney`] | all `(n−1)`-ary atoms | full LW join (not graph-derived) |

use crate::ir::{QueryPlan, QueryPlanBuilder};
use relation::Relation;

/// The attribute names of the triangle query, in listing order.
pub const TRIANGLE_ATTRS: [&str; 3] = ["A", "B", "C"];

/// The attribute names of the 4-cycle query, in listing order.
pub const FOUR_CYCLE_ATTRS: [&str; 4] = ["A", "B", "C", "D"];

fn edge_width(edges: &Relation) -> u8 {
    assert_eq!(
        edges.arity(),
        2,
        "graph queries need a binary edge relation"
    );
    let w = edges.schema().width(0);
    assert_eq!(
        edges.schema().width(1),
        w,
        "both edge endpoints must share a bit width"
    );
    w
}

/// The ordered triangle self-join `E(A,B) ⋈ E(B,C) ⋈ E(A,C)`.
///
/// With edges stored as `u < v`, the join enumerates each triangle
/// `u < v < w` exactly once.
pub fn triangle(edges: &Relation) -> QueryPlan<'_> {
    QueryPlanBuilder::new(edge_width(edges))
        .named("triangle")
        .atom("E1", edges, &["A", "B"])
        .atom("E2", edges, &["B", "C"])
        .atom("E3", edges, &["A", "C"])
        .plan()
}

/// The ordered 4-cycle join `E(A,B) ⋈ E(B,C) ⋈ E(C,D) ⋈ E(A,D)`.
///
/// Over the `u < v` edge relation the atom chain forces `a<b<c<d`, so
/// the output is the set of 4-cycles whose cyclic order agrees with the
/// sorted vertex order — each counted once, with no degenerate wedges
/// (which a symmetric-edge formulation would admit in `Θ(Σ deg²)`
/// quantity). The matching ground truth is
/// `workload::graphs::Graph::count_four_cycles`.
pub fn four_cycle(edges: &Relation) -> QueryPlan<'_> {
    QueryPlanBuilder::new(edge_width(edges))
        .named("4-cycle")
        .atom("E1", edges, &["A", "B"])
        .atom("E2", edges, &["B", "C"])
        .atom("E3", edges, &["C", "D"])
        .atom("E4", edges, &["A", "D"])
        .plan()
}

/// The `k`-clique join: one atom `E(Xi,Xj)` per vertex pair `i < j`
/// (`k = 3` is the triangle hypergraph with generic attribute names).
///
/// Over the `u < v` edge relation the all-pairs atoms force
/// `x1<…<xk`, so each `k`-clique is listed exactly once. Supports
/// `3 ≤ k ≤ 8` (the engine's dimension cap).
pub fn k_clique(edges: &Relation, k: usize) -> QueryPlan<'_> {
    assert!((3..=8).contains(&k), "k-clique supports 3 ≤ k ≤ 8");
    let names: Vec<String> = (0..k as u8)
        .map(|i| ((b'A' + i) as char).to_string())
        .collect();
    let mut b = QueryPlanBuilder::new(edge_width(edges)).named(&format!("{k}-clique"));
    let mut e = 0;
    for i in 0..k {
        for j in i + 1..k {
            e += 1;
            b = b.atom(&format!("E{e}"), edges, &[&names[i], &names[j]]);
        }
    }
    b.plan()
}

/// The Loomis–Whitney `n`-join: `rels[i]` binds, in order, every
/// attribute except attribute `i` (the convention of
/// `workload::loomis::LoomisWhitneyInstance`). Attributes are named
/// `A, B, C, …`; supports `3 ≤ n ≤ 8`.
pub fn loomis_whitney<'a>(rels: &[&'a Relation]) -> QueryPlan<'a> {
    let n = rels.len();
    assert!((3..=8).contains(&n), "Loomis–Whitney supports 3 ≤ n ≤ 8");
    let width = rels[0].schema().width(0);
    let names: Vec<String> = (0..n as u8)
        .map(|i| ((b'A' + i) as char).to_string())
        .collect();
    let mut b = QueryPlanBuilder::new(width).named(&format!("lw{n}"));
    for (skip, rel) in rels.iter().enumerate() {
        assert_eq!(
            rel.arity(),
            n - 1,
            "LW({n}) atoms must have arity {}",
            n - 1
        );
        let attrs: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != skip)
            .map(|(_, a)| a.as_str())
            .collect();
        b = b.atom(&format!("R{skip}"), rel, &attrs);
    }
    b.plan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

    fn edges(pairs: &[(u64, u64)], width: u8) -> Relation {
        Relation::new(
            Schema::uniform(&["X", "Y"], width),
            pairs.iter().map(|&(u, v)| vec![u, v]).collect(),
        )
    }

    #[test]
    fn triangle_plan_matches_historical_shape() {
        let e = edges(&[(0, 1), (1, 2), (0, 2)], 2);
        let plan = triangle(&e);
        assert_eq!(plan.name(), "triangle");
        assert_eq!(plan.sao().len(), 3);
        let prepared = plan.prepare();
        let run = prepared.run();
        assert_eq!(
            prepared.reorder_to(&TRIANGLE_ATTRS, &run.output.tuples),
            vec![vec![0, 1, 2]]
        );
    }

    #[test]
    #[should_panic(expected = "binary edge relation")]
    fn non_binary_relation_rejected() {
        let r = Relation::new(Schema::uniform(&["X"], 2), vec![vec![1]]);
        let _ = triangle(&r);
    }

    #[test]
    fn four_cycle_lists_monotone_cycles_once() {
        // The square 0-1-2-3-0: oriented edges ab,bc,cd,ad with a<b<c<d
        // admit exactly the assignment (0,1,2,3).
        let e = edges(&[(0, 1), (1, 2), (2, 3), (0, 3)], 2);
        let prepared = four_cycle(&e).prepare();
        let run = prepared.run();
        let out = prepared.reorder_to(&FOUR_CYCLE_ATTRS, &run.output.tuples);
        assert_eq!(out, vec![vec![0, 1, 2, 3]]);
        // Tetris and leapfrog agree from the same plan.
        let (lf, _) = prepared.leapfrog();
        assert_eq!(lf.len(), 1);
    }

    #[test]
    fn four_clique_counts_each_clique_once() {
        // K4 on {0,1,2,3}: exactly one 4-clique.
        let e = edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2);
        let prepared = k_clique(&e, 4).prepare();
        let run = prepared.run();
        assert_eq!(run.output.tuples.len(), 1);
        assert_eq!(
            prepared.reorder_to(&["A", "B", "C", "D"], &run.output.tuples),
            vec![vec![0, 1, 2, 3]]
        );
    }

    #[test]
    fn three_clique_is_the_triangle_hypergraph() {
        let e = edges(&[(0, 1), (1, 2), (0, 2)], 2);
        let prepared = k_clique(&e, 3).prepare();
        let run = prepared.run();
        assert_eq!(run.output.tuples.len(), 1);
    }

    #[test]
    fn loomis_whitney_modular_instance() {
        let inst = workload::loomis::modular_loomis_whitney_3(3);
        let refs: Vec<&Relation> = inst.rels.iter().collect();
        let plan = loomis_whitney(&refs);
        assert_eq!(plan.name(), "lw3");
        let prepared = plan.prepare();
        let run = prepared.run();
        let (lf, _) = prepared.leapfrog();
        assert_eq!(run.output.tuples.len(), lf.len());
        assert_eq!(run.output.tuples.len(), 2);
    }
}
