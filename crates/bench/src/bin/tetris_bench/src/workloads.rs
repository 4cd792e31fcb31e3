//! The four workloads: how the parent generates each input and its
//! ground truth, and how the child loads and plans it.
//!
//! Each workload stresses a different layer (see README.md): a skewed
//! triangle whose gap set dwarfs the caches (preload writes), a
//! power-law 4-cycle with a large output (probes and output), a random
//! 4-clique with an empty output (the certificate regime, where output
//! does no work), and an α-acyclic chain whose store fits in cache (the
//! algorithm alone).

use std::path::{Path, PathBuf};

use baseline::{yannakakis::yannakakis_join, JoinSpec};
use plan::{zoo, QueryPlan, QueryPlanBuilder};
use relation::{io, Relation, Schema};
use workload::graphs::{self, Graph};
use workload::paths;

/// One benchmark workload: a query family over a seeded generator.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The seed used when `--seed` is not given: the historical per-family
    /// seed of `t2_graphs` and `table1`, so rows line up with earlier
    /// snapshots at the same generator parameters.
    pub default_seed: u64,
    shape: Shape,
    /// Edges for graph workloads, tuples per atom for the chain.
    size: usize,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    SkewedTriangle,
    PowerLawFourCycle,
    RandomFourClique,
    AcyclicChain,
}

/// Attribute width of the chain workload (the T1.1 sweep's fixed domain).
const CHAIN_WIDTH: u8 = 12;

/// Every workload, in the order README.md and `BENCHMARK.json` list them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tri-skewed-200k",
        default_seed: 0xBEEF,
        shape: Shape::SkewedTriangle,
        size: 200_000,
    },
    Workload {
        name: "c4-powerlaw-20k",
        default_seed: 0xF00D,
        shape: Shape::PowerLawFourCycle,
        size: 20_000,
    },
    Workload {
        name: "k4-random-100k",
        default_seed: 0xC0FFEE,
        shape: Shape::RandomFourClique,
        size: 100_000,
    },
    Workload {
        name: "chain-acyclic-24k",
        default_seed: 7,
        shape: Shape::AcyclicChain,
        size: 8_000,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at another size (tests run every pipeline at toy
    /// size through the functions the child uses).
    #[cfg(test)]
    pub fn at_size(self, size: usize) -> Workload {
        Workload { size, ..self }
    }

    /// Generate the input for `seed`, save it under `dir`, and return the
    /// saved files with the output count an independent algorithm gives:
    /// the sorted-adjacency counters of `workload::graphs` for the graph
    /// queries, Yannakakis for the chain.
    pub fn generate(&self, seed: u64, dir: &Path) -> std::io::Result<(Vec<PathBuf>, u64)> {
        let e = self.size;
        let graph = |g: Graph, truth: fn(&Graph) -> u64| {
            let path = dir.join("graph.tsv");
            g.save(&path)?;
            Ok((vec![path], truth(&g)))
        };
        match self.shape {
            Shape::SkewedTriangle => graph(
                graphs::skewed_graph_with_edges(e, 2, seed),
                Graph::count_triangles,
            ),
            Shape::PowerLawFourCycle => graph(
                graphs::power_law_graph((e / 2) as u64, 0.8, e, seed),
                Graph::count_four_cycles,
            ),
            Shape::RandomFourClique => graph(
                graphs::random_graph((e / 2) as u64, e, seed),
                Graph::count_four_cliques,
            ),
            Shape::AcyclicChain => {
                let chain = paths::random_chain(3, e, CHAIN_WIDTH, seed);
                let truth = yannakakis_join(&chain_spec(&chain))
                    .expect("a chain is α-acyclic")
                    .len() as u64;
                let mut files = Vec::new();
                for (i, rel) in chain.iter().enumerate() {
                    let path = dir.join(format!("chain{i}.tsv"));
                    io::save_relation(&path, rel)?;
                    files.push(path);
                }
                Ok((files, truth))
            }
        }
    }

    /// The load layer: read the saved input back into relations.
    pub fn load(&self, inputs: &[PathBuf]) -> Vec<Relation> {
        match self.shape {
            Shape::AcyclicChain => inputs
                .iter()
                .map(|p| {
                    io::load_relation(p, Schema::uniform(&["X", "Y"], CHAIN_WIDTH))
                        .unwrap_or_else(|e| panic!("load {}: {e}", p.display()))
                })
                .collect(),
            _ => {
                let p = &inputs[0];
                let g = Graph::load(p).unwrap_or_else(|e| panic!("load {}: {e}", p.display()));
                vec![g.edge_relation()]
            }
        }
    }

    /// The plan layer's analysis step (SAO choice) over loaded relations.
    pub fn plan<'a>(&self, rels: &'a [Relation]) -> QueryPlan<'a> {
        match self.shape {
            Shape::SkewedTriangle => zoo::triangle(&rels[0]),
            Shape::PowerLawFourCycle => zoo::four_cycle(&rels[0]),
            Shape::RandomFourClique => zoo::k_clique(&rels[0], 4),
            Shape::AcyclicChain => QueryPlanBuilder::new(CHAIN_WIDTH)
                .named("chain3")
                .atom("R", &rels[0], &["A", "B"])
                .atom("S", &rels[1], &["B", "C"])
                .atom("T", &rels[2], &["C", "D"])
                .plan(),
        }
    }
}

fn chain_spec(chain: &[Relation]) -> JoinSpec<'_> {
    JoinSpec::new(&["A", "B", "C", "D"], &[CHAIN_WIDTH; 4])
        .atom("R", &chain[0], &["A", "B"])
        .atom("S", &chain[1], &["B", "C"])
        .atom("T", &chain[2], &["C", "D"])
}
