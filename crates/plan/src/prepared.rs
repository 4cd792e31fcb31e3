//! The physical half of the pipeline: built indexes and execution.
//!
//! A [`PreparedQuery`] owns one trie index per atom (relations are
//! copied in at prepare time), so it can outlive the relations it was
//! planned against — the shape a resident join server needs. Execution
//! builds a [`Tetris`] engine over the query's gap oracle.

use std::time::Instant;

use baseline::leapfrog::{leapfrog_join, LeapfrogStats};
use baseline::JoinSpec;
use query::Hypergraph;
use relation::{IndexedRelation, JoinOracle, Relation};
use tetris_core::{Tetris, TetrisConfig, TetrisOutput, TetrisStats, MAX_DIMS};

use crate::ir::{QueryPlan, QueryPlanBuilder, SaoSource};

/// Extra physical indexes to build per atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtraIndex {
    /// Only the SAO-consistent trie (the default).
    None,
    /// Also build a dyadic-tree (quadtree-style) index.
    Dyadic,
    /// Also build tries in every rotation of the SAO-consistent order.
    AllTrieRotations,
}

/// One execution of a prepared query, with the preload and solve phases
/// timed separately (the split every bench row reports).
pub struct PlanRun {
    /// The engine output: tuples in SAO coordinates, stats, trace, and
    /// (under `TetrisConfig::obs`) the merged observability ledger with
    /// the `Preload`/`Solve` spans recorded from this run's timers.
    pub output: TetrisOutput,
    /// Seconds spent constructing the engine (preloading the knowledge
    /// base when `config.preload` is set).
    pub preload_s: f64,
    /// Seconds spent in the resolution loop proper.
    pub solve_s: f64,
    /// The knowledge base's memory ledger, read after engine
    /// construction (post-preload, pre-solve). `None` unless
    /// `TetrisConfig::obs` is set.
    pub mem: Option<obs::MemStats>,
}

/// A join query with chosen SAO and built indexes, ready to run.
///
/// Owns everything: drop the input relations after [`QueryPlan::prepare`]
/// and the prepared query still executes.
pub struct PreparedQuery {
    name: String,
    width: u8,
    sao: Vec<String>,
    sao_source: SaoSource,
    hypergraph: Hypergraph,
    indexed: Vec<IndexedRelation>,
    bindings: Vec<(String, Vec<String>)>,
    config: TetrisConfig,
}

impl PreparedQuery {
    /// Build from query text like `"R(A,B), S(B,C), T(A,C)"`, resolving
    /// each relation symbol through `resolver`. Errors on a parse
    /// failure, an atom whose attribute count differs from its relation's
    /// arity, a relation column whose width differs from `width`, or more
    /// than [`MAX_DIMS`] distinct variables.
    ///
    /// ```
    /// use plan::PreparedQuery;
    /// use relation::{Relation, Schema};
    ///
    /// let e = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
    /// let join = PreparedQuery::from_query_text("R(A,B), S(B,C)", 2, |_| &e)
    ///     .expect("parses");
    /// assert_eq!(join.sao().len(), 3);
    /// ```
    pub fn from_query_text<'a>(
        text: &str,
        width: u8,
        resolver: impl Fn(&str) -> &'a Relation,
    ) -> Result<PreparedQuery, String> {
        let parsed = query::parse_query(text)?;
        if parsed.attrs.len() > MAX_DIMS {
            return Err(format!(
                "query has {} distinct variables but at most {MAX_DIMS} are supported",
                parsed.attrs.len()
            ));
        }
        let mut builder = QueryPlanBuilder::new(width);
        for atom in &parsed.atoms {
            let rel = resolver(&atom.name);
            let attrs: Vec<&str> = atom.attrs.iter().map(|s| s.as_str()).collect();
            if attrs.len() != rel.arity() {
                return Err(format!(
                    "atom {} has {} attributes but relation has arity {}",
                    atom.name,
                    attrs.len(),
                    rel.arity()
                ));
            }
            for (j, a) in attrs.iter().enumerate() {
                let w = rel.schema().width(j);
                if w != width {
                    return Err(format!(
                        "atom {} binds attribute {a} to a {w}-bit column but the query width is {width} bits",
                        atom.name
                    ));
                }
            }
            builder = builder.atom(&atom.name, rel, &attrs);
        }
        Ok(builder.build())
    }

    /// Build the physical indexes a plan calls for.
    pub(crate) fn from_plan(plan: QueryPlan<'_>) -> PreparedQuery {
        let sao = plan.sao;
        let sao_pos = |a: &str| sao.iter().position(|x| x == a).expect("attr in SAO");
        let mut indexed = Vec::new();
        let mut bindings = Vec::new();
        for (name, rel, names) in &plan.atoms {
            let mut cols: Vec<usize> = (0..rel.arity()).collect();
            cols.sort_by_key(|&c| sao_pos(&names[c]));
            let mut ir = IndexedRelation::with_trie((*rel).clone(), &cols);
            match plan.extra {
                ExtraIndex::None => {}
                ExtraIndex::Dyadic => ir = ir.add_dyadic(),
                ExtraIndex::AllTrieRotations => {
                    for r in 1..rel.arity() {
                        let rotated: Vec<usize> = cols
                            .iter()
                            .cycle()
                            .skip(r)
                            .take(rel.arity())
                            .copied()
                            .collect();
                        ir = ir.add_trie(&rotated);
                    }
                }
            }
            indexed.push(ir);
            bindings.push((name.clone(), names.clone()));
        }
        PreparedQuery {
            name: plan.name,
            width: plan.width,
            sao,
            sao_source: plan.sao_source,
            hypergraph: plan.hypergraph,
            indexed,
            bindings,
            config: plan.config,
        }
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chosen splitting attribute order.
    pub fn sao(&self) -> &[String] {
        &self.sao
    }

    /// Which rule produced the SAO.
    pub fn sao_source(&self) -> SaoSource {
        self.sao_source
    }

    /// The query hypergraph (vertices in first-mention order).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// The indexed relations, in atom order.
    pub fn indexed(&self) -> &[IndexedRelation] {
        &self.indexed
    }

    /// Total input tuples `N`.
    pub fn input_size(&self) -> usize {
        self.indexed.iter().map(|ir| ir.relation().len()).sum()
    }

    /// The execution config the plan carries.
    pub fn config(&self) -> TetrisConfig {
        self.config
    }

    /// Build the gap oracle (dimensions in SAO order).
    pub fn oracle(&self) -> JoinOracle<'_> {
        let sao_refs: Vec<&str> = self.sao.iter().map(|s| s.as_str()).collect();
        let widths = vec![self.width; self.sao.len()];
        let mut q = JoinOracle::new(&sao_refs, &widths);
        for (ir, (name, attrs)) in self.indexed.iter().zip(&self.bindings) {
            let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
            q = q.atom(name, ir, &attr_refs);
        }
        q
    }

    /// Run Tetris under the carried config.
    pub fn run(&self) -> PlanRun {
        self.execute(self.config)
    }

    /// Run Tetris under an explicit config, timing engine construction
    /// (preload) and the resolution loop separately. Oracle construction
    /// is outside both timers — it is part of preparation, not solving.
    pub fn execute(&self, config: TetrisConfig) -> PlanRun {
        let oracle = self.oracle();
        let t0 = Instant::now();
        let engine = Tetris::with_config(&oracle, config);
        let preload_s = t0.elapsed().as_secs_f64();
        // The memory ledger is read between the phases: post-preload, so
        // a preloaded store is fully built, pre-solve, so the walk is
        // not racing the resolution loop.
        let mem = config.obs.then(|| engine.mem_stats());
        let t1 = Instant::now();
        let mut output = engine.run();
        let solve_s = t1.elapsed().as_secs_f64();
        // The ledger's Preload/Solve spans are these same two timers —
        // the engine cannot record them itself (construction and the
        // terminal call are separate calls by design).
        if let Some(l) = &mut output.obs {
            l.record_span(obs::Phase::Preload, preload_s);
            l.record_span(obs::Phase::Solve, solve_s);
        }
        PlanRun {
            output,
            preload_s,
            solve_s,
            mem,
        }
    }

    /// Stream outputs under the carried config without materializing
    /// them; returns the engine stats.
    pub fn for_each_output(&self, f: impl FnMut(&[u64])) -> TetrisStats {
        let oracle = self.oracle();
        Tetris::with_config(&oracle, self.config).for_each_output(f)
    }

    /// Decide the Box Cover Problem under the carried config: `true`
    /// when the gap boxes cover the whole space (empty join).
    pub fn check_cover(&self) -> (bool, TetrisStats) {
        let oracle = self.oracle();
        Tetris::with_config(&oracle, self.config).check_cover()
    }

    /// Derive the baseline [`JoinSpec`] over the same SAO and bindings,
    /// so leapfrog answers the *same plan* (its lex output order is the
    /// SAO order, directly comparable to Tetris's).
    pub fn spec(&self) -> JoinSpec<'_> {
        let sao_refs: Vec<&str> = self.sao.iter().map(|s| s.as_str()).collect();
        let widths = vec![self.width; self.sao.len()];
        let mut spec = JoinSpec::new(&sao_refs, &widths);
        for (ir, (name, attrs)) in self.indexed.iter().zip(&self.bindings) {
            let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
            spec = spec.atom(name, ir.relation(), &attr_refs);
        }
        spec
    }

    /// Run the leapfrog baseline from the same plan. Output tuples are
    /// in SAO coordinates, lex-sorted.
    pub fn leapfrog(&self) -> (Vec<Vec<u64>>, LeapfrogStats) {
        leapfrog_join(&self.spec())
    }

    /// Reorder SAO-coordinate tuples into a caller attribute order.
    pub fn reorder_to(&self, attrs: &[&str], tuples: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let perm: Vec<usize> = attrs
            .iter()
            .map(|a| {
                self.sao
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("unknown attribute {a:?}"))
            })
            .collect();
        let mut out: Vec<Vec<u64>> = tuples
            .iter()
            .map(|t| perm.iter().map(|&p| t[p]).collect())
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

    #[test]
    fn from_query_text_builds_and_runs() {
        let e = Relation::new(
            Schema::uniform(&["X", "Y"], 2),
            vec![vec![0, 1], vec![1, 2], vec![0, 2]],
        );
        let join = PreparedQuery::from_query_text("R(A,B), S(B,C), T(A,C)", 2, |_| &e).unwrap();
        let oracle = join.oracle();
        let out = Tetris::reloaded(&oracle).run();
        let tuples = join.reorder_to(&["A", "B", "C"], &out.tuples);
        assert_eq!(tuples, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn from_query_text_rejects_arity_mismatch() {
        let e = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
        let err = PreparedQuery::from_query_text("R(A,B,C)", 2, |_| &e)
            .err()
            .expect("arity mismatch must be rejected");
        assert!(err.contains("arity"));
    }

    #[test]
    fn too_many_variables_is_an_error_not_a_panic() {
        // A 9-variable path query: one past MAX_DIMS.
        let r = Relation::new(Schema::uniform(&["X", "Y"], 3), vec![vec![0, 1]]);
        let vars: Vec<String> = (0..=MAX_DIMS).map(|i| format!("V{i}")).collect();
        let text = vars
            .windows(2)
            .enumerate()
            .map(|(i, w)| format!("R{i}({},{})", w[0], w[1]))
            .collect::<Vec<_>>()
            .join(", ");
        let err = PreparedQuery::from_query_text(&text, 3, |_| &r)
            .err()
            .expect("9 variables must be rejected");
        assert!(err.contains("9 distinct variables"), "{err}");
        assert!(err.contains(&MAX_DIMS.to_string()), "{err}");
        // One fewer variable still prepares and runs.
        let shorter = text.rsplit_once(", ").unwrap().0;
        let join = PreparedQuery::from_query_text(shorter, 3, |_| &r).expect("8 variables");
        assert_eq!(join.sao().len(), MAX_DIMS);
        join.run();
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        // A 3-bit relation in a 2-bit query.
        let e = Relation::new(Schema::uniform(&["X", "Y"], 3), vec![vec![0, 1]]);
        let err = PreparedQuery::from_query_text("R(A,B), S(B,C)", 2, |_| &e)
            .err()
            .expect("a 3-bit column in a 2-bit query must be rejected");
        for part in ["atom R", "attribute A", "3-bit", "2 bits"] {
            assert!(err.contains(part), "{part:?} missing from {err:?}");
        }
    }
}
