//! Bulk-preload equivalence wall: `JoinOracle::preload_into`, which
//! writes every SAO-consistent trie into the knowledge base list by list
//! (`BoxTree::bulk_load_trie`), must leave the store exactly as streaming
//! `for_each_box` through `BoxTree::insert` does — the same novel count,
//! `len`, epoch, node count, memory ledger and DFS box sequence, a
//! byte-identical arena, and the same answers to Lemma-C.1-shaped probes.
//!
//! Random instances mix widths of 1–4 bits and arities 1–3, with
//! relations from empty to fully populated; atoms share attributes (so
//! their gap boxes collide in the store) and skip SAO dimensions, and
//! extra indexes (dyadic trees, trie rotations, repeated tries) make the
//! bulk and streamed paths interleave. Each edge case the bulk writer
//! treats specially is counted and must fire. Directed instances cover
//! full subtrees, the empty relation and the 63-bit domain. The
//! benchmark arm replays
//! the four benchmark query families at 10⁴ edges (10³ in debug builds)
//! and the chain at 2,000 tuples per atom (500).

use boxstore::{BoxOracle, BoxTree};
use dyadic::{DyadicBox, DyadicInterval, Space};
use plan::{zoo, QueryPlan, QueryPlanBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};
use relation::{IndexedRelation, JoinOracle, Relation, Schema};
use workload::{graphs, paths};

const SEEDS: u64 = 400;
const PROBES: usize = 200;
const NAMES: [&str; 5] = ["A", "B", "C", "D", "E"];

/// Preload `oracle` both ways and assert the two stores are one store.
/// Returns `(streamed boxes, novel boxes)`.
fn assert_same_store(oracle: &JoinOracle<'_>, label: &str, rng: &mut StdRng) -> (u64, u64) {
    let n = oracle.space().n();
    let mut streamed = BoxTree::new(n);
    let (mut boxes, mut novel) = (0u64, 0u64);
    assert!(oracle.for_each_box(&mut |b| {
        boxes += 1;
        novel += u64::from(streamed.insert(b));
    }));
    let mut bulk = BoxTree::new(n);
    let bulk_novel = oracle
        .preload_into(&mut bulk)
        .expect("join oracles enumerate");
    assert_eq!(bulk_novel, novel, "{label}: novel count");
    assert_eq!(bulk.len(), streamed.len(), "{label}: len");
    assert_eq!(bulk.epoch(), streamed.epoch(), "{label}: epoch");
    assert_eq!(
        bulk.node_count(),
        streamed.node_count(),
        "{label}: node count"
    );
    assert_eq!(
        bulk.mem_stats(),
        streamed.mem_stats(),
        "{label}: memory ledger"
    );
    assert_eq!(
        bulk.iter_boxes(),
        streamed.iter_boxes(),
        "{label}: box sequence"
    );
    assert!(bulk.arena_eq(&streamed), "{label}: arenas differ");
    let space = oracle.space();
    let (mut bulk_hits, mut streamed_hits) = (Vec::new(), Vec::new());
    for _ in 0..PROBES {
        let probe = lemma_c1_probe(rng, &space);
        assert_eq!(
            bulk.find_containing(&probe),
            streamed.find_containing(&probe),
            "{label}: find_containing({probe})"
        );
        bulk.all_containing_into(&probe, &mut bulk_hits);
        streamed.all_containing_into(&probe, &mut streamed_hits);
        assert_eq!(
            bulk_hits, streamed_hits,
            "{label}: all_containing_into({probe})"
        );
    }
    (boxes, novel)
}

/// A box of the shape every skeleton target has (Lemma C.1): points on
/// the dimensions before some `t`, a prefix on `t`, λ after.
fn lemma_c1_probe(rng: &mut StdRng, space: &Space) -> DyadicBox {
    let n = space.n();
    let t = rng.gen_range(0..n);
    let mut b = DyadicBox::universe(n);
    for i in 0..=t {
        let w = space.width(i);
        let v = rng.gen_range(0..(1u64 << w));
        let len = if i < t { w } else { rng.gen_range(0..=w) };
        b.set(i, DyadicInterval::point(v, w).truncate(len));
    }
    b
}

/// Edge cases the bulk writer handles specially, counted over the wall.
#[derive(Debug, Default)]
struct EdgeCases {
    /// A list that is not full holds a full aligned block of ≥ 2 values.
    full_block: u64,
    /// A child list holds every value of its domain.
    full_child_list: u64,
    /// A value whose whole subtree is full, beside values with gaps below.
    gapless_value: u64,
    /// A relation holding every tuple of its domain.
    full_relation: u64,
    /// An empty relation.
    empty_relation: u64,
    /// A streamed box already in the store (atoms' gaps collide).
    duplicate_box: u64,
    /// An atom whose trie levels skip an SAO dimension (or start past 0).
    skipped_dims: u64,
    /// A trie bulk-loaded after another index of the same relation.
    bulk_after_index: u64,
    /// A trie streamed because its levels do not follow the SAO.
    streamed_trie: u64,
    /// A dyadic-tree index streamed between bulk loads.
    streamed_dyadic: u64,
}

/// Per-level scan of a trie given as sorted tuples (trie column order).
fn scan_lists(tuples: &[Vec<u64>], widths: &[u8], cases: &mut EdgeCases) {
    // Group by prefix of length `j`; each group is one level-`j` list.
    let k = widths.len();
    let full_subtree = |rows: &[Vec<u64>], j: usize| -> bool {
        let cap: u64 = widths[j..].iter().map(|&w| 1u64 << w).product();
        rows.len() as u64 == cap
    };
    for j in 0..k {
        let mut start = 0;
        while start < tuples.len() {
            let mut end = start + 1;
            while end < tuples.len() && tuples[end][..j] == tuples[start][..j] {
                end += 1;
            }
            let group = &tuples[start..end];
            let mut vals: Vec<u64> = group.iter().map(|t| t[j]).collect();
            vals.dedup();
            let w = widths[j];
            if j > 0 && vals.len() as u64 == 1u64 << w {
                cases.full_child_list += 1;
            }
            if (vals.len() as u64) < 1u64 << w && has_full_block(&vals, w) {
                cases.full_block += 1;
            }
            if j + 1 < k {
                let mut any_gap = false;
                let mut any_gapless = false;
                let mut s = 0;
                while s < group.len() {
                    let mut e = s + 1;
                    while e < group.len() && group[e][j] == group[s][j] {
                        e += 1;
                    }
                    if full_subtree(&group[s..e], j + 1) {
                        any_gapless = true;
                    } else {
                        any_gap = true;
                    }
                    s = e;
                }
                if any_gap && any_gapless {
                    cases.gapless_value += 1;
                }
            }
            start = end;
        }
    }
}

/// Whether the sorted `vals` fill some aligned block of ≥ 2 values.
fn has_full_block(vals: &[u64], w: u8) -> bool {
    (1..w).any(|b| {
        vals.windows(1 << b)
            .any(|win| win[0] % (1 << b) == 0 && win[(1 << b) - 1] == win[0] + (1 << b) - 1)
    })
}

/// Tuples over `widths` (trie column order): each value of a list is
/// present with probability `p`, and a present value's whole subtree is
/// full with probability `q`.
fn gen_tuples(rng: &mut StdRng, widths: &[u8], p: f64, q: f64) -> Vec<Vec<u64>> {
    fn rec(
        rng: &mut StdRng,
        widths: &[u8],
        p: f64,
        q: f64,
        prefix: &mut Vec<u64>,
        full: bool,
        out: &mut Vec<Vec<u64>>,
    ) {
        let j = prefix.len();
        if j == widths.len() {
            out.push(prefix.clone());
            return;
        }
        for v in 0..(1u64 << widths[j]) {
            if !full && !rng.gen_bool(p) {
                continue;
            }
            let sub_full = full || rng.gen_bool(q);
            prefix.push(v);
            rec(rng, widths, p, q, prefix, sub_full, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(rng, widths, p, q, &mut Vec::new(), false, &mut out);
    out
}

/// How the extra indexes of an instance are chosen.
#[derive(Clone, Copy, Debug)]
enum Extra {
    None,
    Dyadic,
    Rotations,
    /// A random mix per atom: dyadic, rotations, a schema-order trie and
    /// a repeat of the primary trie.
    Mixed,
}

#[test]
fn bulk_preload_matches_streamed_preload_on_random_joins() {
    let mut cases = EdgeCases::default();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=5usize);
        let widths: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4u8)).collect();
        let extra = match seed % 4 {
            0 => Extra::None,
            1 => Extra::Dyadic,
            2 => Extra::Rotations,
            _ => Extra::Mixed,
        };
        let atom_count = rng.gen_range(1..=4usize);
        let mut indexed = Vec::new();
        let mut bindings: Vec<Vec<&str>> = Vec::new();
        for _ in 0..atom_count {
            let arity = rng.gen_range(1..=n.min(3));
            // Distinct SAO dimensions in a random schema order.
            let mut dims: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                dims.swap(i, rng.gen_range(0..=i));
            }
            dims.truncate(arity);
            // The primary trie's column order: schema positions by SAO.
            let mut cols: Vec<usize> = (0..arity).collect();
            cols.sort_by_key(|&c| dims[c]);
            let trie_dims: Vec<usize> = cols.iter().map(|&c| dims[c]).collect();
            if trie_dims.iter().enumerate().any(|(j, &d)| d != j) {
                cases.skipped_dims += 1;
            }
            let trie_widths: Vec<u8> = trie_dims.iter().map(|&d| widths[d]).collect();
            let (p, q) = match rng.gen_range(0..6) {
                0 => (0.0, 0.0),
                1 => (1.0, 1.0),
                2 => (0.15, 0.0),
                3 => (0.5, 0.3),
                4 => (0.9, 0.5),
                _ => (0.97, 0.0),
            };
            let trie_rows = gen_tuples(&mut rng, &trie_widths, p, q);
            scan_lists(&trie_rows, &trie_widths, &mut cases);
            let domain: u64 = trie_widths.iter().map(|&w| 1u64 << w).product();
            if trie_rows.is_empty() {
                cases.empty_relation += 1;
            } else if trie_rows.len() as u64 == domain {
                cases.full_relation += 1;
            }
            // Back to schema order.
            let tuples: Vec<Vec<u64>> = trie_rows
                .iter()
                .map(|r| {
                    let mut t = vec![0; arity];
                    for (j, &c) in cols.iter().enumerate() {
                        t[c] = r[j];
                    }
                    t
                })
                .collect();
            let attrs: Vec<&str> = dims.iter().map(|&d| NAMES[d]).collect();
            let schema_widths: Vec<u8> = dims.iter().map(|&d| widths[d]).collect();
            let rel = Relation::new(Schema::new(&attrs, &schema_widths), tuples);
            let mut ir = IndexedRelation::with_trie(rel, &cols);
            let rotations = |ir: IndexedRelation| {
                (1..arity).fold(ir, |ir, r| {
                    let rotated: Vec<usize> =
                        cols.iter().cycle().skip(r).take(arity).copied().collect();
                    ir.add_trie(&rotated)
                })
            };
            match extra {
                Extra::None => {}
                Extra::Dyadic => ir = ir.add_dyadic(),
                Extra::Rotations => ir = rotations(ir),
                Extra::Mixed => {
                    if rng.gen_bool(0.4) {
                        ir = ir.add_dyadic();
                    }
                    if rng.gen_bool(0.4) {
                        ir = rotations(ir);
                    }
                    if rng.gen_bool(0.4) {
                        ir = ir.add_trie(&(0..arity).collect::<Vec<_>>());
                    }
                    if rng.gen_bool(0.4) {
                        ir = ir.add_trie(&cols);
                    }
                }
            }
            for (i, ix) in ir.indexes().iter().enumerate() {
                match ix {
                    relation::Index::Trie(t) => {
                        let increasing = t.order().windows(2).all(|w| dims[w[0]] < dims[w[1]]);
                        if !increasing {
                            cases.streamed_trie += 1;
                        } else if i > 0 {
                            cases.bulk_after_index += 1;
                        }
                    }
                    relation::Index::Dyadic(_) => {
                        if i + 1 < ir.indexes().len() {
                            cases.streamed_dyadic += 1;
                        }
                    }
                }
            }
            indexed.push(ir);
            bindings.push(attrs);
        }
        let sao: Vec<&str> = NAMES[..n].to_vec();
        let mut oracle = JoinOracle::new(&sao, &widths);
        for (i, (ir, attrs)) in indexed.iter().zip(&bindings).enumerate() {
            oracle = oracle.atom(&format!("R{i}"), ir, attrs);
        }
        let label = format!("seed {seed} ({extra:?}, widths {widths:?})");
        let (boxes, novel) = assert_same_store(&oracle, &label, &mut rng);
        cases.duplicate_box += u64::from(novel < boxes);
    }
    eprintln!("bulk preload edge cases over {SEEDS} instances: {cases:?}");
    let EdgeCases {
        full_block,
        full_child_list,
        gapless_value,
        full_relation,
        empty_relation,
        duplicate_box,
        skipped_dims,
        bulk_after_index,
        streamed_trie,
        streamed_dyadic,
    } = cases;
    for (name, hits) in [
        ("full block", full_block),
        ("full child list", full_child_list),
        ("gapless value", gapless_value),
        ("fully populated relation", full_relation),
        ("empty relation", empty_relation),
        ("duplicate box", duplicate_box),
        ("skipped SAO dimension", skipped_dims),
        ("bulk load after another index", bulk_after_index),
        ("streamed trie", streamed_trie),
        ("streamed dyadic index", streamed_dyadic),
    ] {
        assert!(hits > 0, "edge case never hit: {name}");
    }
}

/// Small fixed instances where a bulk writer that allocated for full
/// subtrees would add nodes the per-box stream never makes.
#[test]
fn full_subtrees_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(1);
    // Neighbours {6, 7} fill the block `11·`; the rest of each list is
    // sparse.
    let r = IndexedRelation::new(Relation::new(
        Schema::uniform(&["A", "B"], 3),
        vec![vec![1, 6], vec![1, 7], vec![6, 2], vec![7, 6], vec![7, 7]],
    ));
    // Value 0 has a full child list; value 2 has a gap below.
    let s = IndexedRelation::new(Relation::new(
        Schema::uniform(&["A", "B"], 1),
        vec![vec![0, 0], vec![0, 1], vec![1, 1]],
    ));
    // Fully populated: no gap box, no node.
    let full = IndexedRelation::new(Relation::new(
        Schema::uniform(&["A", "B"], 1),
        vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]],
    ));
    for (label, ir, width) in [
        ("block", &r, 3u8),
        ("child list", &s, 1),
        ("full", &full, 1),
    ] {
        let oracle = JoinOracle::new(&["A", "B"], &[width, width]).atom("R", ir, &["A", "B"]);
        assert_same_store(&oracle, label, &mut rng);
    }
    let oracle = JoinOracle::new(&["A", "B"], &[1, 1]).atom("R", &full, &["A", "B"]);
    let mut kb = BoxTree::new(2);
    assert_eq!(oracle.preload_into(&mut kb), Some(0));
    assert_eq!(kb.node_count(), 1, "a full relation adds no node");
    // An empty relation contributes exactly the universe box.
    let empty = IndexedRelation::new(Relation::empty(Schema::uniform(&["A", "B"], 2)));
    let oracle = JoinOracle::new(&["A", "B"], &[2, 2]).atom("R", &empty, &["A", "B"]);
    let mut kb = BoxTree::new(2);
    assert_eq!(oracle.preload_into(&mut kb), Some(1));
    assert_eq!(kb.iter_boxes(), vec![DyadicBox::universe(2)]);
}

/// The widest domain a dimension allows (63 bits): values at both ends
/// and a full pair `{2⁶³ − 2, 2⁶³ − 1}`, so walks reach the last bit and
/// a shared prefix of 62 bits.
#[test]
fn widest_domain_matches() {
    let mut rng = StdRng::seed_from_u64(2);
    let max = (1u64 << 63) - 1;
    let r = IndexedRelation::new(Relation::new(
        Schema::uniform(&["A", "B"], 63),
        vec![
            vec![0, max],
            vec![max - 1, 0],
            vec![max, max - 1],
            vec![max, max],
        ],
    ));
    let s = IndexedRelation::new(Relation::new(
        Schema::uniform(&["B", "C"], 63),
        vec![vec![0, 1 << 40], vec![max, 0]],
    ));
    let oracle = JoinOracle::new(&["A", "B", "C"], &[63; 3])
        .atom("R", &r, &["A", "B"])
        .atom("S", &s, &["B", "C"]);
    assert_same_store(&oracle, "63-bit", &mut rng);
}

/// Benchmark scale: 10⁴ edges for the graph families (10³ in debug
/// builds), 2,000 tuples per chain atom (500).
fn scale(release: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn check_plan(plan: QueryPlan<'_>, label: &str) {
    let prepared = plan.prepare();
    let oracle = prepared.oracle();
    let mut rng = StdRng::seed_from_u64(7);
    let (boxes, novel) = assert_same_store(&oracle, label, &mut rng);
    assert!(novel > 0 && novel <= boxes, "{label}: {novel} of {boxes}");
}

#[test]
fn bulk_preload_matches_streamed_preload_on_benchmark_families() {
    let e = scale(10_000, 1_000);
    let skewed = graphs::skewed_graph_with_edges(e, 2, 0xBEEF).edge_relation();
    check_plan(zoo::triangle(&skewed), "triangle, skewed graph");
    let power = graphs::power_law_graph((e / 2) as u64, 0.8, e, 0xF00D).edge_relation();
    check_plan(zoo::four_cycle(&power), "4-cycle, power-law graph");
    let random = graphs::random_graph((e / 2) as u64, e, 0xC0FFEE).edge_relation();
    check_plan(zoo::k_clique(&random, 4), "4-clique, random graph");
    let chain = paths::random_chain(3, scale(2_000, 500), 12, 7);
    let plan = QueryPlanBuilder::new(12)
        .named("chain3")
        .atom("R", &chain[0], &["A", "B"])
        .atom("S", &chain[1], &["B", "C"])
        .atom("T", &chain[2], &["C", "D"])
        .plan();
    check_plan(plan, "3-chain");
}
