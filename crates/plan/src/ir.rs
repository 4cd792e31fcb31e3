//! The plan IR: attribute analysis, query hypergraph, and SAO selection.
//!
//! A [`QueryPlan`] is *pure analysis* — no index is built and no relation
//! is copied until [`QueryPlan::prepare`]. That split keeps planning
//! cheap enough to inspect (`sao()`, `hypergraph()`) before committing
//! to the physical build, and it is what lets the benches time
//! preparation separately from execution.

use crate::prepared::{ExtraIndex, PreparedQuery};
use query::Hypergraph;
use relation::Relation;
use tetris_core::TetrisConfig;

/// Which rule actually produced the SAO (recorded on the plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaoSource {
    /// Reverse GYO elimination order: the query was α-acyclic.
    AcyclicGyo,
    /// Reverse minimum-induced-width elimination order.
    MinWidth,
    /// Caller-supplied order.
    Forced,
}

/// Builder for a [`QueryPlan`]: bind atoms to relations, then `plan()`
/// (analysis only) or `build()` (analysis + index construction).
pub struct QueryPlanBuilder<'a> {
    name: String,
    width: u8,
    atoms: Vec<(String, &'a Relation, Vec<String>)>,
    forced_sao: Option<Vec<String>>,
    extra: ExtraIndex,
    config: TetrisConfig,
}

impl<'a> QueryPlanBuilder<'a> {
    /// Start a plan whose attributes all have `width` bits.
    pub fn new(width: u8) -> Self {
        QueryPlanBuilder {
            name: "query".to_string(),
            width,
            atoms: Vec::new(),
            forced_sao: None,
            extra: ExtraIndex::None,
            config: TetrisConfig {
                preload: true,
                ..TetrisConfig::default()
            },
        }
    }

    /// Name the query (used in bench rows and display).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Bind an atom: the relation's columns play the named attributes.
    pub fn atom(mut self, name: &str, rel: &'a Relation, attrs: &[&str]) -> Self {
        assert_eq!(attrs.len(), rel.arity(), "atom {name}: arity mismatch");
        self.atoms.push((
            name.to_string(),
            rel,
            attrs.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Force a specific SAO instead of the paper's rule (reverse GYO
    /// order for α-acyclic queries, Theorem D.8; reverse
    /// minimum-induced-width elimination order otherwise, Theorem 4.9).
    pub fn sao(mut self, order: &[&str]) -> Self {
        self.forced_sao = Some(order.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Request extra physical indexes per relation.
    pub fn extra_index(mut self, extra: ExtraIndex) -> Self {
        self.extra = extra;
        self
    }

    /// Set the execution config carried by the plan (preload, descent
    /// mode, observability). Defaults to a preloaded single-threaded
    /// incremental run.
    pub fn config(mut self, config: TetrisConfig) -> Self {
        self.config = config;
        self
    }

    /// Analyze the query: collect attributes, build the hypergraph,
    /// choose the SAO. No index is built yet.
    pub fn plan(self) -> QueryPlan<'a> {
        // Collect attributes in first-mention order.
        let mut attrs: Vec<String> = Vec::new();
        for (_, _, names) in &self.atoms {
            for a in names {
                if !attrs.contains(a) {
                    attrs.push(a.clone());
                }
            }
        }
        assert!(!attrs.is_empty(), "a join needs at least one attribute");
        // Hypergraph over first-mention positions.
        let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let edges: Vec<Vec<&str>> = self
            .atoms
            .iter()
            .map(|(_, _, names)| names.iter().map(|s| s.as_str()).collect())
            .collect();
        let edge_refs: Vec<&[&str]> = edges.iter().map(|e| e.as_slice()).collect();
        let h = Hypergraph::new(&attr_refs, &edge_refs);

        let (sao, sao_source): (Vec<String>, SaoSource) = match self.forced_sao {
            Some(s) => {
                assert_eq!(s.len(), attrs.len(), "SAO must cover all attributes");
                for (i, a) in s.iter().enumerate() {
                    assert!(attrs.contains(a), "SAO names unknown attribute {a:?}");
                    assert!(!s[..i].contains(a), "SAO repeats attribute {a:?}");
                }
                (s, SaoSource::Forced)
            }
            None => match h.sao_for_acyclic() {
                Some(o) => (
                    o.into_iter().map(|i| attrs[i].clone()).collect(),
                    SaoSource::AcyclicGyo,
                ),
                None => {
                    let order = query::treewidth::sao_of_min_width(&h).1;
                    (
                        order.into_iter().map(|i| attrs[i].clone()).collect(),
                        SaoSource::MinWidth,
                    )
                }
            },
        };

        QueryPlan {
            name: self.name,
            width: self.width,
            attrs,
            sao,
            sao_source,
            hypergraph: h,
            atoms: self.atoms,
            extra: self.extra,
            config: self.config,
        }
    }

    /// Analyze *and* build indexes: `plan().prepare()`.
    pub fn build(self) -> PreparedQuery {
        self.plan().prepare()
    }
}

/// The plan IR: a query hypergraph with a chosen SAO, atom→relation
/// bindings, and an execution config — everything needed to prepare
/// physical indexes, but none of them built yet.
pub struct QueryPlan<'a> {
    pub(crate) name: String,
    pub(crate) width: u8,
    pub(crate) attrs: Vec<String>,
    pub(crate) sao: Vec<String>,
    pub(crate) sao_source: SaoSource,
    pub(crate) hypergraph: Hypergraph,
    pub(crate) atoms: Vec<(String, &'a Relation, Vec<String>)>,
    pub(crate) extra: ExtraIndex,
    pub(crate) config: TetrisConfig,
}

impl<'a> QueryPlan<'a> {
    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-attribute bit width.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// All attributes in first-mention order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
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

    /// Replace the execution config carried by the plan.
    pub fn with_config(mut self, config: TetrisConfig) -> Self {
        self.config = config;
        self
    }

    /// Build the physical artifacts: one trie index per atom in
    /// SAO-consistent column order (σ-consistent gap boxes, Definition
    /// 3.11), plus any extra indexes requested. The result owns its
    /// indexes (relations are copied in), so it can outlive the inputs.
    pub fn prepare(self) -> PreparedQuery {
        PreparedQuery::from_plan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Schema;

    #[test]
    fn acyclic_query_gets_reverse_gyo_sao() {
        let r = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
        let s = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![1, 2]]);
        let join = QueryPlanBuilder::new(2)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .build();
        assert_eq!(join.sao().len(), 3);
        assert!(join.hypergraph().is_alpha_acyclic());
        assert_eq!(join.sao_source(), SaoSource::AcyclicGyo);
        // The SAO must have elimination width 1 when reversed.
        let pos: Vec<usize> = join
            .sao()
            .iter()
            .map(|a| ["A", "B", "C"].iter().position(|x| x == a).unwrap())
            .collect();
        let mut elim = pos.clone();
        elim.reverse();
        let (w, _) = query::treewidth::induced_width(join.hypergraph(), &elim);
        assert_eq!(w, 1);
    }

    #[test]
    fn cyclic_query_gets_min_width_sao() {
        let e = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
        let join = QueryPlanBuilder::new(2)
            .atom("R", &e, &["A", "B"])
            .atom("S", &e, &["B", "C"])
            .atom("T", &e, &["A", "C"])
            .build();
        assert_eq!(join.sao_source(), SaoSource::MinWidth);
        let mut elim: Vec<usize> = join
            .sao()
            .iter()
            .map(|a| ["A", "B", "C"].iter().position(|x| x == a).unwrap())
            .collect();
        elim.reverse();
        let (w, _) = query::treewidth::induced_width(join.hypergraph(), &elim);
        assert_eq!(w, 2, "triangle treewidth is 2");
    }

    #[test]
    fn forced_sao_is_respected() {
        let r = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
        let join = QueryPlanBuilder::new(2)
            .atom("R", &r, &["A", "B"])
            .sao(&["B", "A"])
            .build();
        assert_eq!(join.sao(), &["B".to_string(), "A".to_string()]);
        assert_eq!(join.sao_source(), SaoSource::Forced);
    }

    #[test]
    #[should_panic(expected = "SAO repeats attribute \"A\"")]
    fn forced_sao_with_a_repeated_attribute_is_rejected() {
        let r = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![0, 1]]);
        let s = Relation::new(Schema::uniform(&["X", "Y"], 2), vec![vec![1, 2]]);
        // Right length, every name known — but `C` is missing and `A`
        // appears twice.
        let _ = QueryPlanBuilder::new(2)
            .atom("R", &r, &["A", "B"])
            .atom("S", &s, &["B", "C"])
            .sao(&["A", "A", "B"])
            .plan();
    }
}
