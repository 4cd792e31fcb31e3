//! Execution traces (for reproducing the worked Example 4.4 and for
//! debugging resolution behaviour).

use dyadic::DyadicBox;
use std::fmt;

/// One step of a Tetris execution, recorded when
/// [`crate::TetrisConfig::trace`] is set.
// Since the MAX_DIMS=8 repack a DyadicBox is small enough that even the
// three-box `Resolve` variant sits under clippy's large-variant
// threshold, so the variants stay unboxed with no lint exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The outer loop (re)invoked `TetrisSkeleton(⟨λ,…,λ⟩)`.
    Restart,
    /// A target box was found covered by a stored box.
    CoveredBy {
        /// The target box.
        target: DyadicBox,
        /// The covering witness from the knowledge base.
        witness: DyadicBox,
    },
    /// A target box was split along a dimension.
    Split {
        /// The target box.
        target: DyadicBox,
        /// The split dimension (SAO position).
        dim: usize,
    },
    /// An uncovered unit box was found by the skeleton.
    Uncovered(DyadicBox),
    /// Two witnesses were resolved into a new box (cached if enabled).
    Resolve {
        /// The first (left/0-side) witness.
        w1: DyadicBox,
        /// The second (right/1-side) witness.
        w2: DyadicBox,
        /// The resolvent.
        result: DyadicBox,
        /// Resolution dimension.
        dim: usize,
    },
    /// Gap boxes were loaded from the oracle around a probe point.
    Load {
        /// The probe point.
        probe: DyadicBox,
        /// How many boxes the oracle returned.
        count: usize,
    },
    /// A tuple was reported as join/BCP output.
    Output(DyadicBox),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Restart => write!(f, "restart"),
            TraceEvent::CoveredBy { target, witness } => {
                write!(f, "covered {target} by {witness}")
            }
            TraceEvent::Split { target, dim } => write!(f, "split {target} on dim {dim}"),
            TraceEvent::Uncovered(b) => write!(f, "uncovered {b}"),
            TraceEvent::Resolve {
                w1,
                w2,
                result,
                dim,
            } => {
                write!(f, "resolve {w1} ⊕ {w2} → {result} (dim {dim})")
            }
            TraceEvent::Load { probe, count } => write!(f, "load {count} boxes at {probe}"),
            TraceEvent::Output(b) => write!(f, "output {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let b = DyadicBox::parse("01,10").unwrap();
        assert_eq!(TraceEvent::Output(b).to_string(), "output ⟨01, 10⟩");
        assert_eq!(TraceEvent::Restart.to_string(), "restart");
        let e = TraceEvent::Resolve {
            w1: DyadicBox::parse("01,10").unwrap(),
            w2: DyadicBox::parse("λ,11").unwrap(),
            result: DyadicBox::parse("01,1").unwrap(),
            dim: 1,
        };
        assert!(e.to_string().contains("⟨01, 1⟩"));
    }
}
