//! The core engine: `TetrisSkeleton` (Algorithm 1) and the outer `Tetris`
//! loop (Algorithm 2), driven by an **incremental skeleton descent**.
//!
//! The paper's Algorithm 2 restarts `TetrisSkeleton(⟨λ,…,λ⟩)` after every
//! knowledge-base change, re-probing the same loaded boxes from the
//! universe down; the amortized cost disappears into the `Õ(·)` but
//! dominates wall-clock time. The default driver here keeps the descent
//! alive instead: an explicit stack of half-box frames survives output
//! and load events, and only the branch a new knowledge-base box actually
//! covers is collapsed (by choosing, among the loaded boxes, the one
//! covering the shallowest live frame). This is exactly the paper's
//! `TetrisSkeleton2` (Appendix D, footnote 13) made iterative — same
//! outputs in the same order, strictly fewer restarts. The literal
//! restart-driven loop is retained as [`Descent::Restart`] (the
//! lower-bound reproductions need its re-treading behaviour), and
//! [`Descent::RestartMemo`] shows how far coverage-epoch marks alone
//! ([`boxstore::CoverageMarks`]) can repair it.
//!
//! `Skeleton::drive` is the one descent loop. It is generic over the
//! knowledge base it probes (`KbView`) and a scheduling hook (`Sched`).
//! [`Tetris`] runs it on one store with a hook that does nothing, every
//! [`Descent::Parallel`] task runs it on a frozen base plus an overlay
//! shard with a hook that cancels, donates and joins, and every
//! load-balanced phase runs a [`Tetris`] over the lifted oracle with a
//! hook that stops it for a partition rebuild.

use crate::{TetrisStats, TraceEvent};
use boxstore::{BoxOracle, BoxTree, CoverProbe, CoverageMarks, DescentProbe, FrontierStack};
use dyadic::{resolve::ordered_resolve, DyadicBox, DyadicInterval, Space};
use obs::Ledger;
use std::ops::ControlFlow;

/// How the engine walks the skeleton between knowledge-base changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Descent {
    /// Persistent-stack descent (default): output/load events are
    /// absorbed in place and the walk resumes from the live frontier.
    /// Outputs are reported *inside* the skeleton — the paper's
    /// `TetrisSkeleton2` (proof of Theorem D.2, footnote 13); with
    /// resolvent caching off this is the Theorem 5.1 configuration.
    #[default]
    Incremental,
    /// The paper's literal Algorithm 2: every event tears the descent
    /// down and restarts from `⟨λ,…,λ⟩`. Kept for the Section 5
    /// lower-bound reproductions, whose measured re-treading depends on
    /// restarts actually re-deriving work.
    Restart,
    /// [`Descent::Restart`], but re-descents consult
    /// [`boxstore::CoverageMarks`]: covered subtrees short-circuit with
    /// their recorded witness and unchanged-epoch negative probes skip
    /// the knowledge-base walk. Requires resolvent caching (the marks
    /// record facts backed by stored boxes); with
    /// [`TetrisConfig::cache_resolvents`] off it behaves like
    /// [`Descent::Restart`].
    RestartMemo,
    /// [`Descent::Incremental`] spread over a work-stealing thread pool:
    /// pending right-sibling frames are donated to starving workers, each
    /// stolen subtree runs against the frozen pre-descent knowledge base
    /// plus a per-worker overlay shard, and witnesses/resolvents merge
    /// back at the donation frame exactly as the sequential unwind would
    /// resolve them. The output tuple **set** is bit-identical to every
    /// sequential mode (asserted by the differential walls); cost
    /// counters other than `outputs` may vary with scheduling. `threads
    /// == 0` means one worker per available core.
    Parallel {
        /// Worker-thread count (`0` = all available cores).
        threads: usize,
    },
}

/// Configuration of a [`Tetris`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TetrisConfig {
    /// Preload the knowledge base with the oracle's full box set
    /// (`Tetris-Preloaded`, §4.3). Requires [`BoxOracle::enumerate`].
    pub preload: bool,
    /// Cache resolvents in the knowledge base (Algorithm 1, line 19).
    /// Disabling restricts the engine to **Tree Ordered Geometric
    /// Resolution** (§5.1) — exponentially weaker on some inputs
    /// (Theorem 5.2), but still meets the AGM bound (Theorem 5.1).
    pub cache_resolvents: bool,
    /// Descent strategy between knowledge-base changes.
    pub descent: Descent,
    /// Record every [`TraceEvent`] into a bounded [`obs::FlightRecorder`]
    /// ring of [`obs::DEFAULT_TRACE_CAPACITY`] events (off by default).
    /// The ring keeps the tail of the run and counts everything it
    /// evicts, so tracing is safe at graph scale — no unbounded `Vec`
    /// growth. Sequential descents only.
    pub trace: bool,
    /// Collect an [`obs::Ledger`] of phase spans and power-of-two
    /// histograms (resolution depth, probe walk length, repair window,
    /// donated-shard size) alongside the counters. Off by default: with
    /// `obs: false` the engine holds no ledger and every observation
    /// site is a single `if let` on a `None` — the hot path is
    /// bit-identical in outputs and counters either way (observation
    /// never perturbs witness order; see DESIGN.md).
    pub obs: bool,
}

impl Default for TetrisConfig {
    fn default() -> Self {
        TetrisConfig {
            preload: false,
            cache_resolvents: true,
            descent: Descent::Incremental,
            trace: false,
            obs: false,
        }
    }
}

/// The result of a Tetris run.
#[derive(Clone, Debug)]
pub struct TetrisOutput {
    /// Output tuples (SAO coordinates), in discovery order (lexicographic
    /// for the plain engine).
    pub tuples: Vec<Vec<u64>>,
    /// Execution counters.
    pub stats: TetrisStats,
    /// Trace events drained from the flight recorder, oldest first
    /// (empty unless tracing was enabled; when the bounded ring wrapped,
    /// this is the **tail** of the run and `stats.trace_dropped` says how
    /// many earlier events were evicted).
    pub trace: Vec<TraceEvent>,
    /// Observability ledger (`None` unless [`TetrisConfig::obs`] was
    /// set). Parallel runs merge every worker's ledger into this one.
    pub obs: Option<Box<obs::Ledger>>,
}

/// One suspended `TetrisSkeleton` invocation: the split target is *not*
/// stored — it is reconstructed from the current position (`cur`) as
/// "components before `dim` as in `cur`, component `dim` truncated to
/// `len`, `λ` after", which every deeper position agrees with. Keeping
/// frames this small is what makes the persistent stack cheap. A parallel
/// task that donates a frame's 1-side hands over that half's target box,
/// and records the frame by its stack depth beside the stack.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    /// Split dimension (the target's first thick dimension).
    pub(crate) dim: u8,
    /// Length of the target's component at `dim`.
    pub(crate) len: u8,
    /// Witness of the completed 0-side half, if the 1-side is in progress.
    pub(crate) w1: Option<DyadicBox>,
}

impl Frame {
    /// Whether `w` covers this frame's target, for a `w` that contains
    /// some box nested in that target. Every witness the unwind holds
    /// does (DESIGN.md §8), so `w` agrees with the target on the
    /// full-width components before `dim`, and two facts decide: `w`'s
    /// component at `dim` is no longer than the target's, and `w` is `λ`
    /// after `dim`.
    #[inline]
    pub(crate) fn covers_nested(&self, w: &DyadicBox) -> bool {
        let dim = self.dim as usize;
        w.get(dim).len() <= self.len && (dim + 1..w.n()).all(|i| w.get(i).is_lambda())
    }

    /// Whether `w` covers this frame's (reconstructed) target.
    #[inline]
    pub(crate) fn covered_by(&self, w: &DyadicBox, cur: &DyadicBox) -> bool {
        let dim = self.dim as usize;
        for i in 0..cur.n() {
            let wi = w.get(i);
            if i < dim {
                if !wi.is_prefix_of(&cur.get(i)) {
                    return false;
                }
            } else if i == dim {
                if wi.len() > self.len || !wi.is_prefix_of(&cur.get(i)) {
                    return false;
                }
            } else if !wi.is_lambda() {
                return false;
            }
        }
        true
    }

    /// Materialize the frame's target box (restart-memo bookkeeping,
    /// frontier restores and donations; the probe hot path never needs it).
    pub(crate) fn target(&self, cur: &DyadicBox) -> DyadicBox {
        let dim = self.dim as usize;
        let mut t = *cur;
        t.set(dim, cur.get(dim).truncate(self.len));
        for i in dim + 1..cur.n() {
            t.set(i, DyadicInterval::lambda());
        }
        t
    }
}

/// The inserts an incremental descent skipped as dead: a resolvent equal
/// to the 0-side it just finished, and an output's unit box. No later
/// probe target lies inside either (DESIGN.md §8). Debug builds keep them
/// in a shadow store and assert, before every knowledge-base probe, that
/// none contains the target; release builds keep nothing.
#[derive(Default)]
struct DeadInserts {
    #[cfg(debug_assertions)]
    shadow: Option<BoxTree>,
}

impl DeadInserts {
    /// Skip a dead insert: count it in `kb_insert_skips`, and remember
    /// it in debug builds.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn skip(&mut self, b: &DyadicBox, stats: &mut TetrisStats) {
        stats.kb_insert_skips += 1;
        #[cfg(debug_assertions)]
        self.shadow
            .get_or_insert_with(|| BoxTree::new(b.n()))
            .insert(b);
    }

    /// Assert that no skipped insert contains the probe target `t`
    /// (debug builds only): one that did could have been its witness.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn check_probe(&self, t: &DyadicBox) {
        #[cfg(debug_assertions)]
        if let Some(w) = self.shadow.as_ref().and_then(|s| s.find_containing(t)) {
            panic!("skipped dead insert {w} contains the probe target {t}");
        }
    }
}

/// The dimension-0 navigation word of a box — the attribution ledger's
/// row key. The obs crate is dyadic-free, so observation sites hand in
/// the raw `u64` word.
#[inline]
pub(crate) fn nav0(b: &DyadicBox) -> u64 {
    b.get(0).nav_word()
}

/// The knowledge base a descent probes and grows: one store for
/// [`Tetris`], a frozen base plus an overlay shard for a parallel task.
pub(crate) trait KbView {
    /// A stored box containing `cur` (Algorithm 1 line 1); `dim` is as in
    /// [`BoxTree::find_containing_tracked`]. Walk and repair go to `obs`.
    fn probe(
        &mut self,
        cur: &DyadicBox,
        dim: usize,
        obs: &mut Option<Box<Ledger>>,
    ) -> Option<DyadicBox>;
    /// The probe whose frontier each frame saves and its 1-side restores.
    fn saved_probe(&mut self) -> &mut DescentProbe;
    /// Insert a box; `true` when it was not already stored.
    fn insert(&mut self, b: &DyadicBox) -> bool;
    /// The store's coverage epoch ([`Descent::RestartMemo`] only).
    fn epoch(&self) -> u64;
    /// Copy the probe counters into `stats`.
    fn count_probes(&self, stats: &mut TetrisStats);
}

/// The sequential knowledge base: one store and its incremental probe
/// (descents advance the last failed probe's frontier instead of
/// re-walking the store).
pub(crate) struct Kb {
    pub(crate) tree: BoxTree,
    probe: DescentProbe,
}

impl KbView for Kb {
    #[inline]
    fn probe(
        &mut self,
        cur: &DyadicBox,
        dim: usize,
        obs: &mut Option<Box<Ledger>>,
    ) -> Option<DyadicBox> {
        let (repairs, walks, frontier) = (
            self.probe.repairs,
            self.probe.full_walks,
            self.probe.frontier_len(),
        );
        let hit = self.tree.find_containing_tracked(cur, dim, &mut self.probe);
        debug_assert_eq!(self.tree.find_containing(cur), hit);
        if let Some(l) = obs {
            l.walk.observe(walk_len(&self.probe, walks, frontier));
            observe_repair(l, &self.probe, repairs, cur);
        }
        hit
    }

    #[inline]
    fn saved_probe(&mut self) -> &mut DescentProbe {
        &mut self.probe
    }

    #[inline]
    fn insert(&mut self, b: &DyadicBox) -> bool {
        self.tree.insert(b)
    }

    fn epoch(&self) -> u64 {
        self.tree.epoch()
    }

    fn count_probes(&self, stats: &mut TetrisStats) {
        stats.probe_advances = self.probe.advances;
        stats.probe_repairs = self.probe.repairs;
        stats.probe_full_walks = self.probe.full_walks;
    }
}

/// The frontier entries a tracked probe worked from, given its
/// `full_walks` and `frontier_len()` read before the call: the entries a
/// full walk recorded, else the ones an advance or repair started from.
/// The frontier left behind is no measure of the work: a hit clears it.
#[inline]
pub(crate) fn walk_len(probe: &DescentProbe, walks: u64, frontier: usize) -> u64 {
    let entries = if probe.full_walks > walks {
        probe.frontier_len()
    } else {
        frontier
    };
    entries as u64
}

/// Observe the repair a tracked probe of `cur` made, if its counter moved
/// past `repairs`. A call repairs at most once, so the repair histogram
/// totals `probe_repairs` exactly.
#[inline]
pub(crate) fn observe_repair(l: &mut Ledger, probe: &DescentProbe, repairs: u64, cur: &DyadicBox) {
    if probe.repairs > repairs {
        l.repair.observe(probe.last_repair_window);
        if probe.last_repair_hit {
            l.attr.count_repair_hit(nav0(cur));
        }
    }
}

/// The descent loop's scheduling hook over the descent state `S`. Every
/// method defaults to a no-op, which is the sequential driver's hook and
/// compiles away; a parallel task's hook cancels, donates and joins, and
/// a load-balanced phase's hook stops the phase for a rebuild.
pub(crate) trait Sched<S> {
    /// Called at every skeleton call; `true` stops the descent.
    #[inline(always)]
    fn poll(&mut self, _s: &mut S, _cur: &DyadicBox) -> bool {
        false
    }
    /// The top frame's 0-side is done. `Continue(Some(w))` hands back the
    /// witness of its donated 1-side, `Continue(None)` lets the descent
    /// enter the 1-side itself, and `Break` stops the descent.
    #[inline(always)]
    fn join(&mut self, _s: &mut S) -> ControlFlow<(), Option<DyadicBox>> {
        ControlFlow::Continue(None)
    }
    /// The frame at stack depth `depth` was popped, covered.
    #[inline(always)]
    fn popped(&mut self, _depth: usize) {}
}

/// The sequential driver's hook: no cancellation, no donation.
pub(crate) struct Sequential;

impl<S> Sched<S> for Sequential {}

/// The Tetris solver (Algorithms 1 + 2) over any [`BoxOracle`], with the
/// knowledge base held in a [`BoxTree`].
///
/// The ambient dimensions are already in **splitting attribute order**:
/// the skeleton always splits the first thick dimension of its target.
pub struct Tetris<'o, O: BoxOracle + ?Sized>(pub(crate) Skeleton<'o, O, Kb>);

impl<'o, O: BoxOracle + ?Sized> Tetris<'o, O> {
    /// Build an engine with explicit configuration. With
    /// [`TetrisConfig::preload`] set this loads the oracle's whole box
    /// set into the knowledge base through [`BoxOracle::preload_into`]
    /// (a join oracle writes its SAO-consistent tries in bulk), so
    /// callers can time the preload (this call) and the solve (the
    /// terminal call) separately.
    pub fn with_config(oracle: &'o O, config: TetrisConfig) -> Self {
        let kb = Kb {
            tree: BoxTree::new(oracle.space().n()),
            probe: DescentProbe::new(),
        };
        let mut s = Skeleton::new(oracle, kb, config);
        if config.preload {
            let novel = oracle
                .preload_into(&mut s.kb.tree)
                .expect("preloaded mode requires an enumerable oracle");
            s.stats.kb_inserts += novel;
        }
        Tetris(s)
    }

    /// `Tetris-Preloaded` (§4.3): the knowledge base starts as all of `B`.
    pub fn preloaded(oracle: &'o O) -> Self {
        Self::with_config(
            oracle,
            TetrisConfig {
                preload: true,
                ..Default::default()
            },
        )
    }

    /// `Tetris-Reloaded` (§4.4): the knowledge base starts empty and gap
    /// boxes are loaded on demand — the certificate-sensitive mode.
    pub fn reloaded(oracle: &'o O) -> Self {
        Self::with_config(oracle, TetrisConfig::default())
    }

    /// Enable/disable resolvent caching (builder style).
    pub fn cache_resolvents(mut self, yes: bool) -> Self {
        self.0.config.cache_resolvents = yes;
        self
    }

    /// Choose the descent strategy (builder style).
    pub fn descent(mut self, d: Descent) -> Self {
        self.0.config.descent = d;
        self
    }

    /// Enable tracing (builder style).
    pub fn traced(mut self) -> Self {
        self.0.config.trace = true;
        self.0.trace = Some(obs::FlightRecorder::new());
        self
    }

    /// The ambient space.
    pub fn space(&self) -> Space {
        self.0.space
    }

    /// The knowledge base's memory ledger ([`BoxTree::mem_stats`]): arena
    /// nodes, exact bytes, deepest link chain. It walks every node —
    /// meant for once-per-run reporting, not the hot path.
    pub fn mem_stats(&self) -> obs::MemStats {
        self.0.kb.tree.mem_stats()
    }

    /// Algorithm 2: run to completion, collecting all output tuples.
    pub fn run(mut self) -> TetrisOutput {
        if let Descent::Parallel { threads } = self.0.config.descent {
            return crate::parallel::run_parallel(self, threads, false);
        }
        let mut tuples = Vec::new();
        self.solve(&mut Sequential, |t| {
            tuples.push(t.to_vec());
            false
        });
        TetrisOutput {
            tuples,
            stats: self.0.stats,
            // Untraced runs carry `None` and allocate nothing here —
            // `Vec::default()` has capacity 0 (pinned by test).
            trace: self
                .0
                .trace
                .map(obs::FlightRecorder::drain)
                .unwrap_or_default(),
            obs: self.0.obs,
        }
    }

    /// Stream output tuples to a callback instead of materializing them
    /// (outer-loop mode). Returns the final stats. Under
    /// [`Descent::Parallel`] the tuples are materialized, merged into
    /// their deterministic (lexicographic) order, and only then streamed.
    pub fn for_each_output(mut self, mut f: impl FnMut(&[u64])) -> TetrisStats {
        if let Descent::Parallel { threads } = self.0.config.descent {
            let out = crate::parallel::run_parallel(self, threads, false);
            for t in &out.tuples {
                f(t);
            }
            return out.stats;
        }
        self.solve(&mut Sequential, |t| {
            f(t);
            false
        });
        self.0.stats
    }

    /// Boolean BCP (Definition 3.5): does `B` cover the whole space?
    /// Stops at the first uncovered output point (under
    /// [`Descent::Parallel`], at the first output any worker finds — the
    /// Boolean answer is deterministic either way).
    pub fn check_cover(mut self) -> (bool, TetrisStats) {
        if let Descent::Parallel { threads } = self.0.config.descent {
            let out = crate::parallel::run_parallel(self, threads, true);
            return (out.tuples.is_empty(), out.stats);
        }
        let mut found = false;
        self.solve(&mut Sequential, |_| {
            found = true;
            true
        });
        (!found, self.0.stats)
    }

    /// The sequential driver: one descent of the whole space (Algorithms
    /// 1+2 fused) under `hook`, then the probe and recorder counters.
    /// Returns a box covering the space, or `None` when `on_output` or
    /// `hook` stopped the descent.
    pub(crate) fn solve<H: Sched<Skeleton<'o, O, Kb>>>(
        &mut self,
        hook: &mut H,
        on_output: impl FnMut(&[u64]) -> bool,
    ) -> Option<DyadicBox> {
        let s = &mut self.0;
        s.stats.restarts += 1;
        s.emit(|| TraceEvent::Restart);
        let covered = s.drive(DyadicBox::universe(s.space.n()), hook, on_output);
        s.sync_stats();
        covered
    }
}

/// The state of one skeleton descent over the knowledge-base view `K`.
pub(crate) struct Skeleton<'o, O: BoxOracle + ?Sized, K> {
    pub(crate) oracle: &'o O,
    pub(crate) space: Space,
    pub(crate) kb: K,
    pub(crate) config: TetrisConfig,
    pub(crate) stats: TetrisStats,
    /// Bounded trace ring ([`TetrisConfig::trace`] only), so traced runs
    /// stay usable at graph scale. `None` on untraced runs — they
    /// allocate nothing for tracing.
    trace: Option<obs::FlightRecorder<TraceEvent>>,
    /// Suspended skeleton invocations, outermost first.
    pub(crate) stack: Vec<Frame>,
    /// Scratch buffer for oracle answers (reused across probes).
    hits: Vec<DyadicBox>,
    /// Scratch buffer for output tuples (reused across outputs).
    point: Vec<u64>,
    /// Per-frame saved probe frontiers (incremental descents only):
    /// right-sibling descents restore these and advance+repair instead of
    /// re-walking the store.
    frontiers: FrontierStack,
    /// Coverage-epoch memo ([`Descent::RestartMemo`] only).
    marks: CoverageMarks,
    /// Dead inserts skipped by the incremental descent (checked in
    /// debug builds).
    dead: DeadInserts,
    /// Observability ledger ([`TetrisConfig::obs`] only): each
    /// observation site is a single `if let` on it, one branch when off.
    pub(crate) obs: Option<Box<Ledger>>,
}

impl<'o, O: BoxOracle + ?Sized, K: KbView> Skeleton<'o, O, K> {
    /// A descent of `oracle`'s space over the knowledge base `kb`.
    pub(crate) fn new(oracle: &'o O, kb: K, config: TetrisConfig) -> Self {
        let space = oracle.space();
        Skeleton {
            oracle,
            space,
            kb,
            config,
            stats: TetrisStats::new(space.n()),
            trace: config.trace.then(obs::FlightRecorder::new),
            stack: Vec::new(),
            hits: Vec::new(),
            point: Vec::new(),
            frontiers: FrontierStack::new(),
            marks: CoverageMarks::new(),
            dead: DeadInserts::default(),
            obs: config.obs.then(Box::default),
        }
    }

    /// Copy incremental-probe and flight-recorder diagnostics into the
    /// run counters.
    pub(crate) fn sync_stats(&mut self) {
        self.kb.count_probes(&mut self.stats);
        if let Some(r) = &self.trace {
            self.stats.trace_recorded = r.recorded();
            self.stats.trace_dropped = r.dropped();
        }
    }

    /// Trace only when enabled — the event is never even constructed on
    /// untraced runs (hot-path allocation/copy discipline).
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(r) = &mut self.trace {
            r.record(f());
        }
    }

    /// Whether events tear the descent down (paper-literal Algorithm 2).
    #[inline]
    fn restarting(&self) -> bool {
        matches!(self.config.descent, Descent::Restart | Descent::RestartMemo)
    }

    /// Whether coverage-epoch marks are consulted. Marks record witnesses
    /// that must live in the knowledge base, so they require resolvent
    /// caching; Tree Ordered runs keep the pure re-treading semantics.
    #[inline]
    fn memoizing(&self) -> bool {
        self.config.descent == Descent::RestartMemo && self.config.cache_resolvents
    }

    /// The first thick dimension of a target that was just given a
    /// component of length `len` at `dim`: it is full width before `dim`
    /// and `λ` after it, so that is `dim` while the component is short,
    /// and otherwise the next dimension of nonzero width.
    #[inline]
    fn thick_after(&self, dim: usize, len: u8) -> Option<usize> {
        if len < self.space.width(dim) {
            Some(dim)
        } else {
            (dim + 1..self.space.n()).find(|&i| self.space.width(i) > 0)
        }
    }

    /// The one descent loop: an incremental skeleton descent of `target`
    /// (Algorithms 1+2 fused), with optional paper-literal restarts.
    /// `on_output` receives each tuple and returns `true` to stop
    /// (Boolean mode). Returns a box covering `target`, or `None` when
    /// `on_output` or `hook` stopped the descent.
    pub(crate) fn drive<H: Sched<Self>>(
        &mut self,
        target: DyadicBox,
        hook: &mut H,
        mut on_output: impl FnMut(&[u64]) -> bool,
    ) -> Option<DyadicBox> {
        let mut cur = target;
        // `cur`'s first thick dimension, carried as `cur` moves.
        let target_thick = target.first_thick_dim(&self.space);
        let mut thick = target_thick;
        // `saving` is the incremental descent, the only one that keeps
        // frames across events. Only then do frame-saved frontiers pay
        // off (the restart modes tear the stack down, and RestartMemo may
        // skip probes entirely, leaving nothing to save), and only then
        // does no probe re-enter a finished subtree, so dead inserts can
        // be skipped.
        let saving = !self.restarting();
        // Witness streaming: the latest resolvent rides here instead of
        // being inserted immediately. If the next resolution subsumes it
        // (the common unwind shape: each resolvent contains the one it
        // consumed), it is dropped without ever touching the store. When
        // the unwind ends it is flushed, so no probe ever runs against a
        // store missing it, unless it is dead: under the incremental
        // descent, a resolvent equal to the 0-side the unwind is leaving
        // contains no later probe target. Both drops are witness-exact:
        // a subsumed box's probes are answered by the DFS-earlier
        // subsuming box, and a dead box answers none (see DESIGN.md §8).
        // A stopped descent probes nothing further, so it drops the
        // in-flight resolvent.
        let mut pending: Option<DyadicBox> = None;
        'descend: loop {
            // ── descend: drill into `cur` until a covering witness is
            // known or an uncovered unit box is absorbed.
            let mut witness = loop {
                self.stats.skeleton_calls += 1;
                if hook.poll(self, &cur) {
                    return None;
                }
                debug_assert_eq!(thick, cur.first_thick_dim(&self.space));
                let probe_dim = thick.unwrap_or(self.space.n() - 1);
                let mut known_uncovered = false;
                if self.memoizing() {
                    match self.marks.probe(&cur, &self.space, self.kb.epoch()) {
                        CoverProbe::Covered(w) => {
                            self.stats.mark_hits += 1;
                            self.emit(|| TraceEvent::CoveredBy {
                                target: cur,
                                witness: w,
                            });
                            break w;
                        }
                        CoverProbe::KnownUncovered => {
                            self.stats.mark_hits += 1;
                            known_uncovered = true;
                        }
                        CoverProbe::Unknown => {}
                    }
                }
                if !known_uncovered {
                    self.stats.kb_queries += 1;
                    self.dead.check_probe(&cur);
                    if let Some(a) = self.kb.probe(&cur, probe_dim, &mut self.obs) {
                        self.emit(|| TraceEvent::CoveredBy {
                            target: cur,
                            witness: a,
                        });
                        if self.memoizing() {
                            self.marks.mark_covered(&cur, &self.space, a);
                        }
                        break a;
                    }
                    if self.memoizing() {
                        let epoch = self.kb.epoch();
                        self.marks.mark_uncovered(&cur, &self.space, epoch);
                    }
                }
                if let Some(dim) = thick {
                    self.stats.splits += 1;
                    self.emit(|| TraceEvent::Split { target: cur, dim });
                    let iv = cur.get(dim);
                    self.stack.push(Frame {
                        dim: dim as u8,
                        len: iv.len(),
                        w1: None,
                    });
                    if saving {
                        // The probe for `cur` just failed, so its frontier
                        // describes this frame's target; the 1-side
                        // descent will restore it instead of re-walking.
                        self.frontiers.push_saved(self.kb.saved_probe());
                    }
                    cur.set(dim, iv.child(0));
                    thick = self.thick_after(dim, iv.len() + 1);
                    continue;
                }
                // Uncovered unit box: absorb it (load its gap boxes or
                // report it as output), then either resume in place or
                // tear down and restart per the descent strategy.
                match self.absorb(&cur, &mut on_output) {
                    Absorb::Stop => return None,
                    Absorb::Witness(w) => break w,
                    Absorb::Restart => {
                        self.stack.clear();
                        self.frontiers.clear();
                        cur = target;
                        thick = target_thick;
                        self.stats.restarts += 1;
                        self.emit(|| TraceEvent::Restart);
                        continue 'descend;
                    }
                }
            };
            // ── unwind: feed the witness to the suspended frames.
            loop {
                let Some(&top) = self.stack.last() else {
                    debug_assert!(witness.contains(&target));
                    if let Some(p) = pending.take() {
                        self.store_resolvent(&p);
                    }
                    return Some(witness); // the whole target is covered
                };
                let covered = top.covers_nested(&witness);
                debug_assert_eq!(covered, top.covered_by(&witness, &cur));
                if covered {
                    if self.memoizing() {
                        let t = top.target(&cur);
                        self.marks.mark_covered(&t, &self.space, witness);
                    }
                    self.stack.pop();
                    hook.popped(self.stack.len());
                    if saving {
                        self.frontiers.pop();
                    }
                    continue;
                }
                let dim = top.dim as usize;
                match top.w1 {
                    None => {
                        // 0-side done.
                        let ControlFlow::Continue(stolen) = hook.join(self) else {
                            return None;
                        };
                        self.stack.last_mut().expect("frame just read").w1 = Some(witness);
                        if let Some(w) = stolen {
                            // A thief ran the 1-side: its witness is the
                            // 1-side witness, so the next turn pops the
                            // frame or resolves with it.
                            witness = w;
                            continue;
                        }
                        // Descend into the 1-side.
                        let parent = top.target(&cur);
                        cur.set(dim, cur.get(dim).truncate(top.len).child(1));
                        for i in dim + 1..self.space.n() {
                            cur.set(i, DyadicInterval::lambda());
                        }
                        thick = self.thick_after(dim, top.len + 1);
                        // Hand the frame's saved frontier to the probe so
                        // the 1-side's first query advances+repairs it, and
                        // crosses into the next dimension when the 1-side
                        // ends this one.
                        if saving {
                            self.frontiers.restore_top(&parent, self.kb.saved_probe());
                        }
                        // Leaving the unwind: materialize the in-flight
                        // resolvent before the 1-side descent probes,
                        // unless it is exactly the finished 0-side.
                        if let Some(p) = pending.take() {
                            if saving && p == parent.with(dim, parent.get(dim).child(0)) {
                                self.dead.skip(&p, &mut self.stats);
                            } else {
                                self.store_resolvent(&p);
                            }
                        }
                        continue 'descend;
                    }
                    Some(w1) => {
                        let w = ordered_resolve(&w1, &witness, dim).expect(
                            "Lemma C.1 invariant violated: witnesses must be ordered-resolvable",
                        );
                        self.stats.count_resolution(dim);
                        if let Some(l) = &mut self.obs {
                            l.depth.observe(self.stack.len() as u64);
                            l.attr.count_resolution(nav0(&w));
                        }
                        self.emit(|| TraceEvent::Resolve {
                            w1,
                            w2: witness,
                            result: w,
                            dim,
                        });
                        if self.config.cache_resolvents {
                            match pending.take() {
                                Some(p) if w.contains(&p) => {
                                    // Subsumed in flight: never materialized.
                                    self.stats.kb_insert_skips += 1;
                                }
                                Some(p) => self.store_resolvent(&p),
                                None => {}
                            }
                            pending = Some(w);
                        }
                        witness = w;
                        // The resolvent covers the target by construction;
                        // the next loop turn pops the frame.
                    }
                }
            }
        }
    }

    /// Insert a resolvent into the knowledge base.
    fn store_resolvent(&mut self, p: &DyadicBox) {
        if self.kb.insert(p) {
            self.stats.kb_inserts += 1;
            if let Some(l) = &mut self.obs {
                l.attr.count_insert(nav0(p));
            }
        } else if let Some(l) = &mut self.obs {
            // The resolvent re-derived a box the store already holds
            // verbatim — the T1.1 re-resolution signal.
            l.attr.count_re_resolution(nav0(p));
        }
    }

    /// Handle an uncovered unit box: report it as output or load its
    /// covering gap boxes. Outputs are decided by `B` alone (the oracle,
    /// or the preloaded store), which is what makes the parallel output
    /// set scheduling-independent.
    fn absorb(&mut self, cur: &DyadicBox, on_output: &mut impl FnMut(&[u64]) -> bool) -> Absorb {
        let restarting = self.restarting();
        if restarting {
            self.emit(|| TraceEvent::Uncovered(*cur));
        }
        let mut hits = std::mem::take(&mut self.hits);
        if self.config.preload {
            // All of B is in the knowledge base, so a unit box it does not
            // cover lies in no gap box: an output, with no probe.
            debug_assert!(
                {
                    self.oracle.boxes_containing_into(cur, &mut hits);
                    hits.is_empty()
                },
                "a gap box of B contains the uncovered point {cur}"
            );
            hits.clear();
        } else {
            self.stats.oracle_probes += 1;
            self.oracle.boxes_containing_into(cur, &mut hits);
        }
        let out = if hits.is_empty() {
            self.stats.outputs += 1;
            self.emit(|| TraceEvent::Output(*cur));
            let mut point = std::mem::take(&mut self.point);
            cur.write_point(&self.space, &mut point);
            let stop = on_output(&point);
            self.point = point;
            if restarting {
                // A restart re-probes from the universe and must find
                // the output covered.
                let stored = self.oracle.output_box(cur);
                if self.kb.insert(&stored) {
                    self.stats.kb_inserts += 1;
                    if let Some(l) = &mut self.obs {
                        l.attr.count_insert(nav0(&stored));
                    }
                }
            } else {
                // The unwind takes the output as its witness directly,
                // and no later probe target lies inside it.
                self.dead.skip(cur, &mut self.stats);
            }
            if stop {
                Absorb::Stop
            } else if restarting {
                Absorb::Restart
            } else {
                Absorb::Witness(*cur)
            }
        } else {
            let count = hits.len();
            self.emit(|| TraceEvent::Load { probe: *cur, count });
            for h in &hits {
                debug_assert!(h.contains(cur), "oracle returned a non-covering box");
                if self.kb.insert(h) {
                    self.stats.kb_inserts += 1;
                    self.stats.loaded_boxes += 1;
                    if let Some(l) = &mut self.obs {
                        l.attr.count_insert(nav0(h));
                    }
                }
            }
            if restarting {
                Absorb::Restart
            } else {
                Absorb::Witness(self.best_witness(&hits, cur))
            }
        };
        self.hits = hits;
        out
    }

    /// Choose, among the freshly loaded boxes, the one invalidating the
    /// largest suffix of the live descent: the box covering the
    /// *shallowest* suspended frame (ties broken by geometric volume).
    /// Unwinding with it collapses exactly the branch the new knowledge
    /// covers and no more.
    fn best_witness(&self, hits: &[DyadicBox], cur: &DyadicBox) -> DyadicBox {
        debug_assert!(!hits.is_empty());
        let mut best = hits[0];
        let mut best_depth = usize::MAX;
        for h in hits {
            // Frames are nested, so coverage is monotone down the stack:
            // binary-search the shallowest covered frame.
            let depth = self.stack.partition_point(|f| !f.covered_by(h, cur));
            if depth < best_depth
                || (depth == best_depth && h.volume(&self.space) > best.volume(&self.space))
            {
                best = *h;
                best_depth = depth;
            }
        }
        best
    }
}

/// Outcome of absorbing an uncovered unit box.
// `Witness` carries the inline `DyadicBox`; the value lives for one match
// arm on the hot path, so boxing it would be a pessimization.
#[allow(clippy::large_enum_variant)]
enum Absorb {
    /// Boolean mode asked to stop.
    Stop,
    /// Resume the descent in place with this covering witness.
    Witness(DyadicBox),
    /// Tear down the stack and restart from the universe.
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxstore::{coverage, SetOracle};
    use dyadic::DyadicInterval;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    fn example_4_4_oracle() -> SetOracle {
        SetOracle::new(
            Space::uniform(2, 2),
            ["λ,0", "00,λ", "λ,11", "10,1"].iter().map(|s| b(s)),
        )
    }

    fn random_instance(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        d: u8,
        count: usize,
    ) -> Vec<DyadicBox> {
        use rand::Rng;
        (0..count)
            .map(|_| {
                let mut bx = DyadicBox::universe(n);
                for i in 0..n {
                    let len = rng.gen_range(0..=d);
                    let bits = rng.gen_range(0..(1u64 << len));
                    bx.set(i, DyadicInterval::from_bits(bits, len));
                }
                bx
            })
            .collect()
    }

    #[test]
    fn example_4_4_output() {
        // The paper's worked example: outputs ⟨01,10⟩ = (1,2) and
        // ⟨11,10⟩ = (3,2).
        let oracle = example_4_4_oracle();
        for engine in [Tetris::reloaded(&oracle), Tetris::preloaded(&oracle)] {
            let out = engine.run();
            assert_eq!(out.tuples, vec![vec![1, 2], vec![3, 2]]);
        }
    }

    #[test]
    fn example_4_4_trace_matches_paper() {
        // Follow the narrative of Example 4.4 with A initialized to the
        // first three boxes (the paper's chosen initialization): the first
        // resolutions it describes are ⟨01,10⟩⊕⟨λ,11⟩ → ⟨01,1⟩ and then
        // ⟨λ,0⟩⊕⟨01,1⟩ → ⟨01,λ⟩ and ⟨00,λ⟩⊕⟨01,λ⟩ → ⟨0,λ⟩.
        let space = Space::uniform(2, 2);
        let all = ["λ,0", "00,λ", "λ,11", "10,1"].map(b);
        let oracle = SetOracle::new(space, all);
        // Reloaded with tracing; the paper's partial initialization is
        // emulated by the engine loading boxes on demand — the resolution
        // sequence below must still appear, in order.
        let out = Tetris::reloaded(&oracle).traced().run();
        let resolutions: Vec<(DyadicBox, DyadicBox, DyadicBox)> = out
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Resolve { w1, w2, result, .. } => Some((*w1, *w2, *result)),
                _ => None,
            })
            .collect();
        // The key inferences of the example must all occur.
        let expect = [
            (b("01,10"), b("λ,11"), b("01,1")),
            (b("λ,0"), b("01,1"), b("01,λ")),
            (b("00,λ"), b("01,λ"), b("0,λ")),
            (b("11,10"), b("λ,11"), b("11,1")),
            (b("λ,0"), b("11,1"), b("11,λ")),
            (b("10,λ"), b("11,λ"), b("1,λ")),
            (b("0,λ"), b("1,λ"), b("λ,λ")),
        ];
        for (w1, w2, r) in expect {
            assert!(
                resolutions
                    .iter()
                    .any(|(a, c, res)| *a == w1 && *c == w2 && *res == r),
                "missing resolution {w1} ⊕ {w2} → {r}; got {resolutions:?}"
            );
        }
        // The final inference is the universal box.
        assert_eq!(resolutions.last().unwrap().2, b("λ,λ"));
    }

    #[test]
    fn outputs_match_brute_force_on_randomized_bcp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..25);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes.clone());
            for preload in [false, true] {
                let engine = Tetris::with_config(
                    &oracle,
                    TetrisConfig {
                        preload,
                        ..Default::default()
                    },
                );
                let out = engine.run();
                assert_eq!(out.tuples, expect, "trial {trial} preload={preload}");
                assert_eq!(out.stats.outputs as usize, expect.len());
            }
        }
    }

    #[test]
    fn all_descent_modes_agree_with_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..25 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            for descent in [Descent::Incremental, Descent::Restart, Descent::RestartMemo] {
                for preload in [false, true] {
                    let out = Tetris::with_config(
                        &oracle,
                        TetrisConfig {
                            preload,
                            descent,
                            ..Default::default()
                        },
                    )
                    .run();
                    assert_eq!(
                        out.tuples, expect,
                        "trial {trial} descent={descent:?} preload={preload}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_never_restarts_and_restart_mode_does() {
        let oracle = example_4_4_oracle();
        let inc = Tetris::reloaded(&oracle).run();
        assert_eq!(inc.stats.restarts, 1, "incremental = one logical pass");
        let re = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
        assert_eq!(re.tuples, inc.tuples);
        // Algorithm 2 restarts once per output and once per load event.
        assert!(re.stats.restarts > 1);
        assert!(inc.stats.skeleton_calls < re.stats.skeleton_calls);
    }

    #[test]
    fn restart_memo_cuts_kb_queries_not_outputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..15 {
            let n = rng.gen_range(2..=3);
            let d = rng.gen_range(2..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(1..15);
            let boxes = random_instance(&mut rng, n, d, count);
            let oracle = SetOracle::new(space, boxes);
            let plain = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
            let memo = Tetris::reloaded(&oracle)
                .descent(Descent::RestartMemo)
                .run();
            assert_eq!(plain.tuples, memo.tuples, "trial {trial}");
            assert_eq!(plain.stats.restarts, memo.stats.restarts);
            assert_eq!(plain.stats.skeleton_calls, memo.stats.skeleton_calls);
            assert!(
                memo.stats.kb_queries <= plain.stats.kb_queries,
                "trial {trial}: memo {} > plain {}",
                memo.stats.kb_queries,
                plain.stats.kb_queries
            );
            assert_eq!(
                memo.stats.kb_queries + memo.stats.mark_hits,
                plain.stats.kb_queries,
                "trial {trial}: every probe is either walked or memo-answered"
            );
            assert_eq!(plain.stats.mark_hits, 0);
        }
    }

    #[test]
    fn untraced_runs_record_no_events_and_allocate_no_trace() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.trace.is_empty());
        // The emit path never constructs events when untraced, and the
        // trace vector never allocates.
        assert_eq!(out.trace.capacity(), 0);
        let traced = Tetris::reloaded(&oracle).traced().run();
        assert!(!traced.trace.is_empty());
        // Untraced runs never touch the recorder counters.
        let plain = Tetris::reloaded(&oracle).run();
        assert_eq!(plain.stats.trace_recorded, 0);
        assert_eq!(plain.stats.trace_dropped, 0);
    }

    #[test]
    fn overflowing_trace_ring_keeps_the_tail_and_counts_drops() {
        // An empty 2 × 8-bit space has 65,536 outputs, so its trace
        // overflows the ring.
        let oracle = SetOracle::new(Space::uniform(2, 8), Vec::<DyadicBox>::new());
        let out = Tetris::reloaded(&oracle).traced().run();
        assert_eq!(out.stats.outputs, 1 << 16);
        assert_eq!(out.trace.len(), obs::DEFAULT_TRACE_CAPACITY);
        assert!(out.stats.trace_dropped > 0);
        assert_eq!(
            out.stats.trace_recorded - out.stats.trace_dropped,
            out.trace.len() as u64
        );
        // The ring keeps the tail of the run: its last resolution derives
        // the universe box.
        assert!(
            matches!(
                out.trace.last(),
                Some(TraceEvent::Resolve { result, .. }) if *result == b("λ,λ")
            ),
            "last event: {:?}",
            out.trace.last()
        );
    }

    #[test]
    fn no_caching_still_correct() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let space = Space::uniform(2, 2);
            let count = rng.gen_range(0..10);
            let boxes = random_instance(&mut rng, 2, 2, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            let out = Tetris::preloaded(&oracle).cache_resolvents(false).run();
            assert_eq!(out.tuples, expect);
        }
    }

    #[test]
    fn inline_mode_matches_outer_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for _ in 0..25 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, n, d, count);
            let oracle = SetOracle::new(space, boxes);
            // The paper's outer loop restarts per event; the incremental
            // descent reports outputs inline (`TetrisSkeleton2`).
            let outer = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
            let inline = Tetris::reloaded(&oracle)
                .descent(Descent::Incremental)
                .run();
            assert_eq!(outer.tuples, inline.tuples);
            // Inline mode never restarts.
            assert_eq!(inline.stats.restarts, 1);
            // Also with caching disabled (Tree Ordered + Skeleton2).
            let tree = Tetris::reloaded(&oracle)
                .descent(Descent::Incremental)
                .cache_resolvents(false)
                .run();
            assert_eq!(outer.tuples, tree.tuples);
            assert_eq!(tree.stats.restarts, 1);
        }
    }

    #[test]
    fn check_cover_boolean_semantics() {
        // Figure 5: six MSB gap boxes cover the whole cube.
        let space = Space::uniform(3, 3);
        let cover = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1"];
        let oracle = SetOracle::new(space, cover.iter().map(|s| b(s)));
        let (covered, stats) = Tetris::reloaded(&oracle).check_cover();
        assert!(covered);
        assert!(stats.resolutions > 0);

        // Figure 6: swap T for T' (MSBs equal) and two output points
        // appear — the space is no longer covered.
        let open = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0"];
        let oracle = SetOracle::new(space, open.iter().map(|s| b(s)));
        let (covered, _) = Tetris::reloaded(&oracle).check_cover();
        assert!(!covered);
    }

    #[test]
    fn empty_box_set_outputs_whole_space() {
        let space = Space::uniform(2, 1);
        let oracle = SetOracle::new(space, Vec::<DyadicBox>::new());
        let out = Tetris::reloaded(&oracle).run();
        assert_eq!(out.tuples.len(), 4);
        assert_eq!(out.stats.outputs, 4);
    }

    #[test]
    fn universal_box_yields_no_output_and_no_resolutions() {
        let space = Space::uniform(3, 4);
        let oracle = SetOracle::new(space, vec![DyadicBox::universe(3)]);
        let out = Tetris::preloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        assert_eq!(out.stats.resolutions, 0);
    }

    #[test]
    fn reloaded_loads_at_most_the_oracle_size() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.stats.loaded_boxes <= 4);
        // It must load at least one box per covered probe region.
        assert!(out.stats.loaded_boxes >= 1);
    }

    #[test]
    fn parallel_descent_matches_brute_force_and_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..25);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            for preload in [false, true] {
                for threads in [1usize, 2, 4] {
                    let out = Tetris::with_config(
                        &oracle,
                        TetrisConfig {
                            preload,
                            descent: Descent::Parallel { threads },
                            ..Default::default()
                        },
                    )
                    .run();
                    assert_eq!(
                        out.tuples, expect,
                        "trial {trial} preload={preload} threads={threads}"
                    );
                    assert_eq!(out.stats.outputs as usize, expect.len());
                    assert!(out.stats.par_tasks >= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_check_cover_agrees_with_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        for trial in 0..20 {
            let space = Space::uniform(2, 3);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, 2, 3, count);
            let oracle = SetOracle::new(space, boxes);
            let (seq, _) = Tetris::reloaded(&oracle).check_cover();
            let (par, _) = Tetris::reloaded(&oracle)
                .descent(Descent::Parallel { threads: 4 })
                .check_cover();
            assert_eq!(seq, par, "trial {trial}");
        }
    }

    #[test]
    fn frame_saved_frontiers_repair_probes() {
        // The incremental driver's right-sibling descents must be served
        // by saved-frontier advances/repairs, and the probe ledger must
        // account for every knowledge-base query.
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert_eq!(
            out.stats.probe_advances + out.stats.probe_repairs + out.stats.probe_full_walks,
            out.stats.kb_queries
        );
        assert!(
            out.stats.probe_repairs > 0,
            "gap-box loads between sibling descents should exercise \
             the repair path: {:?}",
            out.stats
        );
    }

    #[test]
    fn stats_resolution_dims_sum_to_total() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        let sum: u64 = out.stats.resolutions_by_dim.iter().sum();
        assert_eq!(sum, out.stats.resolutions);
    }
}
