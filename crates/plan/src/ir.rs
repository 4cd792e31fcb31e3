//! The plan IR: attribute analysis, query hypergraph, and SAO selection.
//!
//! A [`QueryPlan`] is *pure analysis* — no index is built and no relation
//! is copied until [`QueryPlan::prepare`]. That split keeps planning
//! cheap enough to inspect (`sao()`, `fhtw()`, `hypergraph()`) before
//! committing to the physical build, and it is what lets the benches
//! time preparation separately from execution.

use crate::prepared::{ExtraIndex, PreparedQuery};
use query::Hypergraph;
use relation::Relation;
use tetris_core::TetrisConfig;

/// How the plan chooses the splitting attribute order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SaoPolicy {
    /// The historical rule: reverse GYO order for α-acyclic queries
    /// (Theorem D.8), reverse minimum-induced-width elimination order
    /// otherwise (Theorem 4.9). This is the default and is what every
    /// benchmark row was measured under.
    Auto,
    /// Reverse the fhtw-optimal elimination order from
    /// [`query::cover::fhtw`] (an experiment knob for T1.1; exact only
    /// for queries with ≤ 20 attributes).
    Fhtw,
    /// Use exactly this attribute order.
    Forced(Vec<String>),
}

/// Which rule actually produced the SAO (recorded on the plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaoSource {
    /// Reverse GYO elimination order: the query was α-acyclic.
    AcyclicGyo,
    /// Reverse minimum-induced-width elimination order.
    MinWidth,
    /// Reverse fhtw-optimal elimination order.
    Fhtw,
    /// Caller-supplied order.
    Forced,
}

/// Builder for a [`QueryPlan`]: bind atoms to relations, then `plan()`
/// (analysis only) or `build()` (analysis + index construction).
pub struct QueryPlanBuilder<'a> {
    name: String,
    width: u8,
    atoms: Vec<(String, &'a Relation, Vec<String>)>,
    policy: SaoPolicy,
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
            policy: SaoPolicy::Auto,
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

    /// Force a specific SAO (shorthand for [`SaoPolicy::Forced`]).
    pub fn sao(mut self, order: &[&str]) -> Self {
        self.policy = SaoPolicy::Forced(order.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Choose how the SAO is selected.
    pub fn sao_policy(mut self, policy: SaoPolicy) -> Self {
        self.policy = policy;
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

        let (sao, sao_source): (Vec<String>, SaoSource) = match &self.policy {
            SaoPolicy::Forced(s) => {
                assert_eq!(s.len(), attrs.len(), "SAO must cover all attributes");
                for (i, a) in s.iter().enumerate() {
                    assert!(attrs.contains(a), "SAO names unknown attribute {a:?}");
                    assert!(!s[..i].contains(a), "SAO repeats attribute {a:?}");
                }
                (s.clone(), SaoSource::Forced)
            }
            SaoPolicy::Fhtw => {
                let (_, mut order) = query::cover::fhtw(&h)
                    .expect("fhtw SAO policy needs every attribute covered by an atom");
                order.reverse();
                (
                    order.into_iter().map(|i| attrs[i].clone()).collect(),
                    SaoSource::Fhtw,
                )
            }
            SaoPolicy::Auto => match h.sao_for_acyclic() {
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

        // Record the fractional hypertree width as plan metadata when the
        // subset DP is cheap enough to be free.
        let fhtw = if attrs.len() <= 12 {
            query::cover::fhtw(&h).map(|(w, _)| w)
        } else {
            None
        };

        QueryPlan {
            name: self.name,
            width: self.width,
            attrs,
            sao,
            sao_source,
            fhtw,
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
    pub(crate) fhtw: Option<f64>,
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

    /// The fractional hypertree width, when computed (≤ 12 attributes
    /// and every attribute covered by some atom).
    pub fn fhtw(&self) -> Option<f64> {
        self.fhtw
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
