//! Execution counters: the paper's complexity bounds are stated in the
//! number of (geometric) resolutions, so the engine counts them exactly.

use std::fmt;

/// Counters collected by a Tetris run.
///
/// Lemma 4.5 bounds the total runtime by `Õ(resolutions)`, so benches
/// report [`TetrisStats::resolutions`] alongside wall-clock time — that is
/// the quantity the theorems constrain, independent of constant factors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TetrisStats {
    /// Geometric resolutions performed (Algorithm 1 line 18).
    pub resolutions: u64,
    /// Resolutions per splitting dimension (index = SAO position).
    pub resolutions_by_dim: Vec<u64>,
    /// Box splits (`Split-First-Thick-Dimension` calls).
    pub splits: u64,
    /// Recursive `TetrisSkeleton` invocations.
    pub skeleton_calls: u64,
    /// Knowledge-base containment queries (Algorithm 1 line 1) that
    /// actually walked the store.
    pub kb_queries: u64,
    /// Skeleton probes answered by coverage-epoch marks instead of a
    /// knowledge-base walk (`Descent::RestartMemo` only).
    pub mark_hits: u64,
    /// Knowledge-base probes answered by advancing the previous probe's
    /// recorded frontier by one bit (store unchanged since the frontier
    /// was recorded) instead of re-walking the store. A probe whose bit
    /// ends its dimension also carries the frontier into the next one
    /// (DESIGN.md §8) and counts here.
    pub probe_advances: u64,
    /// Knowledge-base probes answered by advancing a **frame-saved**
    /// frontier and repairing it against the store's rolling insert log:
    /// right-sibling descents after the store changed under the saved
    /// frontier. Only kept resolvents and loaded gap boxes change it (the
    /// incremental descent skips dead inserts), so a preloaded run that
    /// keeps no resolvent during solve makes none.
    pub probe_repairs: u64,
    /// Knowledge-base probes that performed a full store walk. The first
    /// probe of a descent is one. Under the sequential incremental
    /// descent every later one means the frontier lagged the store by
    /// more than `boxstore::REPAIR_CAP` inserts, the store was cleared,
    /// or the probe crossed a zero-width dimension. The restart modes
    /// also walk after every restart, and `RestartMemo` after a probe its
    /// marks answered.
    pub probe_full_walks: u64,
    /// Boxes inserted into the knowledge base (all sources).
    pub kb_inserts: u64,
    /// Boxes never materialized in the knowledge base, which would
    /// otherwise be counted in [`TetrisStats::kb_inserts`]. A skip is
    /// either *subsumed in flight* — a resolvent the immediately
    /// following resolvent contains (witness streaming) — or *dead*: under
    /// the incremental descent, a resolvent equal to the 0-side it just
    /// finished, or an output's unit box. No later probe target lies
    /// inside a dead box.
    pub kb_insert_skips: u64,
    /// Oracle probes issued by the outer loop (Algorithm 2 line 4). A
    /// preloaded run issues none: with all of `B` in the knowledge base,
    /// a unit box the store does not cover is an output without asking.
    pub oracle_probes: u64,
    /// Input gap boxes loaded from `B` into `A` (Reloaded mode).
    pub loaded_boxes: u64,
    /// Output tuples reported.
    pub outputs: u64,
    /// Outer-loop iterations (calls to `TetrisSkeleton(⟨λ,…,λ⟩)`).
    pub restarts: u64,
    /// Partition rebuilds (online load-balanced mode only).
    pub rebuilds: u64,
    /// Subtree tasks executed (`Descent::Parallel` only; 1 + donations).
    pub par_tasks: u64,
    /// Pending sibling frames donated to the work-stealing pool
    /// (`Descent::Parallel` only).
    pub par_donations: u64,
    /// Overlay shard stores freshly allocated (`Descent::Parallel` only;
    /// the root task plus every donation the per-worker scratch pools
    /// could not serve — with shard reuse this stays well below
    /// `par_donations + 1` on donation-heavy runs, and like the other
    /// parallel cost counters it floats with scheduling).
    pub par_shard_allocs: u64,
    /// Trace events accepted by the flight recorder over the run
    /// (held + evicted; 0 on untraced runs).
    pub trace_recorded: u64,
    /// Accepted trace events later evicted by ring wrap-around —
    /// `trace_recorded - trace_dropped` events survive in
    /// `TetrisOutput::trace` (0 on untraced runs).
    pub trace_dropped: u64,
}

impl TetrisStats {
    /// Create counters for an `n`-dimensional run.
    pub fn new(n: usize) -> Self {
        TetrisStats {
            resolutions_by_dim: vec![0; n],
            ..Default::default()
        }
    }

    /// Record one resolution on `dim`.
    #[inline]
    pub(crate) fn count_resolution(&mut self, dim: usize) {
        self.resolutions += 1;
        if dim < self.resolutions_by_dim.len() {
            self.resolutions_by_dim[dim] += 1;
        }
    }

    /// Merge counters from a sub-run: every parallel task's report, or
    /// the online LB engine's run before it rebuilds its partitions.
    pub fn absorb(&mut self, other: &TetrisStats) {
        self.resolutions += other.resolutions;
        self.splits += other.splits;
        self.skeleton_calls += other.skeleton_calls;
        self.kb_queries += other.kb_queries;
        self.mark_hits += other.mark_hits;
        self.probe_advances += other.probe_advances;
        self.probe_repairs += other.probe_repairs;
        self.probe_full_walks += other.probe_full_walks;
        self.kb_inserts += other.kb_inserts;
        self.kb_insert_skips += other.kb_insert_skips;
        self.oracle_probes += other.oracle_probes;
        self.loaded_boxes += other.loaded_boxes;
        self.outputs += other.outputs;
        self.restarts += other.restarts;
        self.rebuilds += other.rebuilds;
        self.par_tasks += other.par_tasks;
        self.par_donations += other.par_donations;
        self.par_shard_allocs += other.par_shard_allocs;
        self.trace_recorded += other.trace_recorded;
        self.trace_dropped += other.trace_dropped;
        for (i, &v) in other.resolutions_by_dim.iter().enumerate() {
            if i < self.resolutions_by_dim.len() {
                self.resolutions_by_dim[i] += v;
            }
        }
    }
}

impl fmt::Display for TetrisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resolutions={} splits={} skeleton_calls={} probes={} loaded={} outputs={} restarts={}",
            self.resolutions,
            self.splits,
            self.skeleton_calls,
            self.oracle_probes,
            self.loaded_boxes,
            self.outputs,
            self.restarts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_absorb() {
        let mut a = TetrisStats::new(3);
        a.count_resolution(1);
        a.count_resolution(1);
        a.count_resolution(2);
        assert_eq!(a.resolutions, 3);
        assert_eq!(a.resolutions_by_dim, vec![0, 2, 1]);

        let mut b = TetrisStats::new(3);
        b.count_resolution(0);
        b.outputs = 5;
        b.absorb(&a);
        assert_eq!(b.resolutions, 4);
        assert_eq!(b.resolutions_by_dim, vec![1, 2, 1]);
        assert_eq!(b.outputs, 5);
    }

    #[test]
    fn display_is_compact() {
        let s = TetrisStats::new(2);
        let shown = s.to_string();
        assert!(shown.contains("resolutions=0"));
    }
}
