//! Execution traces (for reproducing the worked Example 4.4 and for
//! debugging resolution behaviour).

use dyadic::DyadicBox;
use std::fmt;
use std::num::NonZeroUsize;

/// What a traced run records ([`crate::TetrisConfig::trace`]): the
/// bounded [`obs::FlightRecorder`] ring's capacity and its two
/// pre-filters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity: the run keeps its most recent `capacity` accepted
    /// events and accounts for everything it evicts
    /// (`TetrisStats::trace_recorded` / `trace_dropped`). The default,
    /// [`obs::DEFAULT_TRACE_CAPACITY`], holds every worked paper example
    /// without wrapping.
    pub capacity: NonZeroUsize,
    /// Event-kind bitmask (bit positions are the [`TraceEvent::kind`]
    /// indices; default all kinds). A masked-out event is never even
    /// constructed.
    pub kinds: u32,
    /// Minimum descent-stack depth for an event to be recorded (default
    /// 0 = everything). Raising the floor focuses the ring on the deep
    /// leaf-level region — exactly where the T1.1 re-resolution blowup
    /// lives (EXPERIMENTS.md §12–§13).
    pub depth_floor: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: NonZeroUsize::new(obs::DEFAULT_TRACE_CAPACITY).expect("positive capacity"),
            kinds: u32::MAX,
            depth_floor: 0,
        }
    }
}

/// One step of a Tetris execution, recorded when tracing is enabled.
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

impl TraceEvent {
    /// Kind index of [`TraceEvent::Restart`] (flight-recorder mask bit).
    pub const KIND_RESTART: u32 = 0;
    /// Kind index of [`TraceEvent::CoveredBy`].
    pub const KIND_COVERED: u32 = 1;
    /// Kind index of [`TraceEvent::Split`].
    pub const KIND_SPLIT: u32 = 2;
    /// Kind index of [`TraceEvent::Uncovered`].
    pub const KIND_UNCOVERED: u32 = 3;
    /// Kind index of [`TraceEvent::Resolve`].
    pub const KIND_RESOLVE: u32 = 4;
    /// Kind index of [`TraceEvent::Load`].
    pub const KIND_LOAD: u32 = 5;
    /// Kind index of [`TraceEvent::Output`].
    pub const KIND_OUTPUT: u32 = 6;
    /// Mask with every kind bit set (the flight recorder's default).
    pub const KIND_MASK_ALL: u32 = (1 << 7) - 1;

    /// This event's kind index — its bit position in a flight-recorder
    /// kind mask ([`TraceConfig::kinds`]).
    pub fn kind(&self) -> u32 {
        match self {
            TraceEvent::Restart => Self::KIND_RESTART,
            TraceEvent::CoveredBy { .. } => Self::KIND_COVERED,
            TraceEvent::Split { .. } => Self::KIND_SPLIT,
            TraceEvent::Uncovered(_) => Self::KIND_UNCOVERED,
            TraceEvent::Resolve { .. } => Self::KIND_RESOLVE,
            TraceEvent::Load { .. } => Self::KIND_LOAD,
            TraceEvent::Output(_) => Self::KIND_OUTPUT,
        }
    }
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
