//! The parallel skeleton descent (`Descent::Parallel`): Tetris's outer
//! loop spread over a work-stealing thread pool. The frozen base and
//! every overlay shard are [`BoxTree`]s.
//!
//! # Why the output set cannot change
//!
//! Algorithm 2 is nondeterministic in its *choice order* — which
//! uncovered probe to chase next, which loaded box to unwind with — but
//! its output set is not: a tuple is reported iff **the oracle** answers
//! its probe with no covering gap box, and the knowledge base only ever
//! holds facts implied by the gap set plus already-reported outputs, so
//! coverage pruning can never hide an unreported tuple. The parallel
//! driver exploits exactly this freedom:
//!
//! * **Work unit.** A task is one suspended-subtree target: a half-box
//!   `⟨complete dims, one prefix component, λ…⟩`. Tasks partition the
//!   space — a donated frame is a pending *right sibling* the donor has
//!   not entered, so no unit box is ever probed by two tasks and no
//!   output can be double-reported.
//! * **Overlay shards.** Every task probes the frozen pre-descent
//!   knowledge base (the `Tetris-Preloaded` store, shared read-only by
//!   all workers, where frame-saved frontiers advance without ever
//!   needing repair) plus a private overlay shard holding the task's
//!   loads and kept resolvents (an output's unit box is a dead insert,
//!   never stored; DESIGN.md §8). A donated task's shard is
//!   seeded with `extract_intersecting_into` from the donor's shard —
//!   the slice of the donor's knowledge that can matter inside the
//!   donated half. Shard stores themselves are **recycled**: a joined
//!   thief hands its overlay back with the outcome, and each worker
//!   keeps a scratch pool that `donate` refills (clear + re-extract)
//!   instead of allocating a fresh store per stolen task —
//!   `TetrisStats::par_shard_allocs` counts the allocations that remain.
//! * **Deterministic merge.** When the donor's unwind reaches a donated
//!   frame it joins the thief ([`executor::Worker::help_while`] — it
//!   runs other tasks while waiting) and then treats the thief's
//!   returned witness exactly as the sequential unwind treats a 1-side
//!   witness: pop if it covers the frame's target, otherwise
//!   `ordered_resolve` it against the saved 0-side witness. If the
//!   frame's target is covered before the thief finishes, the thief is
//!   cancelled — its region is covered, so it cannot have produced (and
//!   can never produce) an output. Finally, every task's outputs are
//!   merged by sorting: the sequential descent emits tuples in
//!   lexicographic order, so the sorted union over the partition *is*
//!   the sequential output sequence, independent of scheduling.
//!
//! What may vary with scheduling is the **cost model**: a cancelled
//! thief still spent resolutions, a donated subtree resolves against a
//! shard that lacks the donor's later discoveries, and so on. The
//! stats-regression wall pins `outputs` (and the tuples themselves) and
//! documents every other counter as scheduling-dependent.

use crate::engine::{nav0, DeadInserts, Frame, Tetris, TetrisOutput};
use crate::TetrisStats;
use boxstore::{BoxOracle, BoxTree, DescentProbe, FrontierStack};
use dyadic::{resolve::ordered_resolve, DyadicBox, DyadicInterval, Space};
use executor::{Pool, Worker};
use obs::{Ledger, ObsSink, Phase};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How many skeleton calls a running descent waits between checks of the
/// cancellation flags and the pool's hunger signal. Small enough that
/// tiny differential-test instances still exercise donation, large
/// enough that the checks are noise on real workloads.
const CHECK_MASK: u64 = 15;

/// Cap on the resolvent log a task hands back to its donor; beyond this
/// the merge is truncated (the log is an optimization — any subset of it
/// is sound to merge).
pub const MERGE_CAP: usize = 4096;

/// Retired overlay shards kept per worker for reuse; beyond this they
/// are dropped (bounds how much arena capacity idles in the pools).
const SCRATCH_CAP: usize = 4;

/// One donated subtree: the half-box target plus the shard seeded from
/// the donor's overlay. `cell` carries the result back (absent only for
/// the root task, whose witness nobody joins).
struct Task {
    target: DyadicBox,
    shard: BoxTree,
    cell: Option<Arc<DonationCell>>,
}

/// The rendezvous between a donor frame and its thief.
struct DonationCell {
    /// Set by the thief once `outcome` is written.
    done: AtomicBool,
    /// Set by the donor when the frame's target got covered (the stolen
    /// subtree became dead work) or the run is stopping.
    cancel: AtomicBool,
    outcome: Mutex<Option<Outcome>>,
}

impl DonationCell {
    fn new() -> Self {
        DonationCell {
            done: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            outcome: Mutex::new(None),
        }
    }
}

/// What a completed task reports back to its donor.
struct Outcome {
    /// A knowledge-base box covering the task's whole target (meaningful
    /// only when `cancelled` is false).
    witness: DyadicBox,
    /// Boxes the task inserted that reach *outside* its target — loads
    /// and resolvents the donor can reuse (merge-on-return).
    inserts: Vec<DyadicBox>,
    /// The task observed a cancellation and unwound early.
    cancelled: bool,
    /// The task's overlay store, handed back for reuse.
    shard: BoxTree,
}

/// What each task contributes to the final merge: its output tuples,
/// its execution counters, and its observability ledger (`None` unless
/// `TetrisConfig::obs` is set).
type TaskReport = (Vec<Vec<u64>>, TetrisStats, Option<Box<Ledger>>);

/// Run-wide shared state (borrowed by every worker via the scoped pool).
struct ParCtx<'a, O: BoxOracle + ?Sized> {
    oracle: &'a O,
    space: Space,
    /// The pre-descent knowledge base (preloaded gap set, or empty for
    /// reloaded mode), frozen for the duration of the run.
    base: &'a BoxTree,
    /// `base` holds all of `B` ([`TetrisConfig::preload`]), so a point
    /// it and the overlay leave uncovered is an output without a probe.
    preloaded: bool,
    cache_resolvents: bool,
    /// Each task carries its own [`Ledger`] when set (merged at report
    /// collection — the hot path never shares one).
    obs: bool,
    /// Boolean mode: flip `stop` at the first output anywhere.
    stop_on_first: bool,
    stop: &'a AtomicBool,
    /// Per-worker pools of retired overlay shards, refilled by joins and
    /// drained by donations (shard reuse instead of per-task allocation).
    scratch: &'a [Mutex<Vec<BoxTree>>],
    /// Every task pushes (outputs, stats) here; merged after the pool
    /// drains.
    reports: &'a Mutex<Vec<TaskReport>>,
}

impl<O: BoxOracle + ?Sized> ParCtx<'_, O> {
    /// Hand a retired shard back to `worker`'s pool (dropped when full).
    fn retire_shard(&self, worker: usize, shard: BoxTree) {
        let mut pool = self.scratch[worker].lock().expect("scratch lock poisoned");
        if pool.len() < SCRATCH_CAP {
            pool.push(shard);
        }
    }
}

/// Entry point used by [`Tetris::run`] & friends for
/// [`crate::Descent::Parallel`].
pub(crate) fn run_parallel<O: BoxOracle + ?Sized>(
    engine: Tetris<'_, O>,
    threads: usize,
    stop_on_first: bool,
) -> TetrisOutput {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let Tetris {
        oracle,
        space,
        kb,
        config,
        mut stats,
        obs: mut run_obs,
        ..
    } = engine;
    assert!(
        config.trace.is_none(),
        "tracing is not supported under Descent::Parallel (event order \
         would depend on scheduling); trace a sequential descent instead"
    );
    let stop = AtomicBool::new(false);
    let reports = Mutex::new(Vec::new());
    let scratch: Vec<Mutex<Vec<BoxTree>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let ctx = ParCtx {
        oracle,
        space,
        base: &kb,
        preloaded: config.preload,
        cache_resolvents: config.cache_resolvents,
        obs: config.obs,
        stop_on_first,
        stop: &stop,
        scratch: &scratch,
        reports: &reports,
    };
    let n = space.n();
    // The root task's overlay is the run's first shard allocation.
    stats.par_shard_allocs += 1;
    let root = Task {
        target: DyadicBox::universe(n),
        shard: BoxTree::new(n),
        cell: None,
    };
    Pool::scope(threads, vec![root], |task, worker| {
        run_task(&ctx, task, worker);
    });
    // One logical outer-loop pass, like the sequential incremental driver.
    stats.restarts += 1;
    let mut tuples = Vec::new();
    for (outs, s, ledger) in reports.into_inner().expect("report lock poisoned") {
        stats.absorb(&s);
        if let (Some(acc), Some(l)) = (&mut run_obs, &ledger) {
            acc.absorb(l);
        }
        tuples.extend(outs);
    }
    // Tasks partition the space, so the streams are disjoint; the sorted
    // union is exactly the sequential (lexicographic) output sequence.
    tuples.sort_unstable();
    TetrisOutput {
        tuples,
        stats,
        trace: Vec::new(),
        obs: run_obs,
    }
}

/// A frame of the parallel descent: the sequential [`Frame`] plus the
/// rendezvous handle when its 1-side has been donated.
struct ParFrame {
    frame: Frame,
    donated: Option<Arc<DonationCell>>,
}

/// One task's descent state: a lean re-instantiation of the sequential
/// incremental driver against (frozen base ∪ overlay shard).
struct SubEngine {
    shard: BoxTree,
    stack: Vec<ParFrame>,
    /// Probe state against the frozen base: saved frontiers never need
    /// repair here, because the base cannot change mid-run.
    base_probe: DescentProbe,
    frontiers: FrontierStack,
    /// Probe state against the (small, mutating) overlay shard.
    shard_probe: DescentProbe,
    stats: TetrisStats,
    outputs: Vec<Vec<u64>>,
    /// Inserted boxes that escape the task's target (merge-on-return).
    inserts: Vec<DyadicBox>,
    /// Witness streaming (see the sequential driver): the latest
    /// resolvent, not yet materialized in the shard. Dropped when the
    /// next resolvent subsumes it, or when it equals the 0-side the
    /// unwind is leaving (a dead insert); flushed otherwise whenever the
    /// unwind ends — so the shard is complete before any probe. A
    /// dropped resolvent also never reaches the merge-on-return log;
    /// that is sound because any subset of the log may be merged, and
    /// exact: a subsuming box escapes every target the dropped box
    /// escapes, and a dead box lies inside this task's target.
    pending: Option<DyadicBox>,
    /// Dead inserts skipped (checked in debug builds).
    dead: DeadInserts,
    hits: Vec<DyadicBox>,
    point: Vec<u64>,
    cancelled: bool,
    /// This task's private observability ledger (`ParCtx::obs` only).
    obs: Option<Box<Ledger>>,
}

fn run_task<O: BoxOracle + ?Sized>(ctx: &ParCtx<'_, O>, task: Task, worker: &Worker<'_, Task>) {
    let n = ctx.space.n();
    let (target, shard, cell) = (task.target, task.shard, task.cell);
    let mut eng = SubEngine {
        shard,
        stack: Vec::new(),
        base_probe: DescentProbe::new(),
        frontiers: FrontierStack::new(),
        shard_probe: DescentProbe::new(),
        stats: TetrisStats::new(n),
        outputs: Vec::new(),
        inserts: Vec::new(),
        pending: None,
        dead: DeadInserts::default(),
        hits: Vec::new(),
        point: Vec::new(),
        cancelled: false,
        obs: ctx.obs.then(Box::default),
    };
    // Time the task slice (root task or served donation) around the
    // descent only — donation seeding and joins inside it count toward
    // the slice, the report bookkeeping below does not.
    let slice_start = ctx.obs.then(std::time::Instant::now);
    let witness = eng.descend(ctx, worker, target, cell.as_deref());
    if let (Some(t0), Some(l)) = (slice_start, &mut eng.obs) {
        l.record_span(Phase::Task, t0.elapsed().as_secs_f64());
    }
    eng.stats.par_tasks = 1;
    eng.stats.probe_advances = eng.base_probe.advances + eng.shard_probe.advances;
    eng.stats.probe_repairs = eng.base_probe.repairs + eng.shard_probe.repairs;
    eng.stats.probe_full_walks = eng.base_probe.full_walks + eng.shard_probe.full_walks;
    let shard = eng.shard;
    if let Some(cell) = &cell {
        let mut inserts = std::mem::take(&mut eng.inserts);
        // Only facts escaping this task's region can matter to the donor.
        inserts.retain(|b| !target.contains(b));
        *cell.outcome.lock().expect("outcome lock poisoned") = Some(Outcome {
            witness,
            inserts,
            cancelled: eng.cancelled,
            shard,
        });
        cell.done.store(true, Ordering::Release);
    } else {
        // The root task has no donor to hand its overlay back to.
        ctx.retire_shard(worker.index(), shard);
    }
    ctx.reports
        .lock()
        .expect("report lock poisoned")
        .push((eng.outputs, eng.stats, eng.obs));
}

impl SubEngine {
    /// Run the descent over `target`; returns a witness covering the
    /// whole target (or a placeholder when cancelled — a cancelled task's
    /// witness is never read, because its donor is itself unwinding).
    fn descend<O: BoxOracle + ?Sized>(
        &mut self,
        ctx: &ParCtx<'_, O>,
        worker: &Worker<'_, Task>,
        target: DyadicBox,
        cell: Option<&DonationCell>,
    ) -> DyadicBox {
        let mut cur = target;
        'descend: loop {
            // ── descend until a covering witness is known.
            let mut witness = loop {
                self.stats.skeleton_calls += 1;
                if self.stats.skeleton_calls & CHECK_MASK == 0 {
                    if stopping(ctx, cell) {
                        return self.unwind_cancelled(target);
                    }
                    if worker.hungry() {
                        self.donate(ctx, worker, &cur);
                    }
                }
                let thick = cur.first_thick_dim(&ctx.space);
                let probe_dim = thick.unwrap_or(ctx.space.n() - 1);
                self.stats.kb_queries += 1;
                if let Some(a) = self.probe(ctx, &cur, probe_dim) {
                    break a;
                }
                if let Some(dim) = thick {
                    self.stats.splits += 1;
                    let iv = cur.get(dim);
                    self.stack.push(ParFrame {
                        frame: Frame {
                            dim: dim as u8,
                            len: iv.len(),
                            w1: None,
                        },
                        donated: None,
                    });
                    self.frontiers.push_saved(&self.base_probe);
                    cur.set(dim, iv.child(0));
                    continue;
                }
                break self.absorb(ctx, &cur);
            };
            // ── unwind: feed the witness to the suspended frames.
            loop {
                let Some(top) = self.stack.last() else {
                    debug_assert!(
                        witness.contains(&target),
                        "subtree witness must cover the task target"
                    );
                    self.flush_pending();
                    return witness;
                };
                let frame = top.frame;
                if frame.covered_by(&witness, &cur) {
                    // The whole frame target is covered; a stolen 1-side
                    // is dead work (its region holds no outputs).
                    if let Some(cell) = &top.donated {
                        cell.cancel.store(true, Ordering::Relaxed);
                    }
                    self.stack.pop();
                    self.frontiers.pop();
                    continue;
                }
                let dim = frame.dim as usize;
                match frame.w1 {
                    None => {
                        if let Some(dcell) = self.stack.last().and_then(|f| f.donated.clone()) {
                            // 0-side done, 1-side stolen: join the thief.
                            let w0 = witness;
                            let Some(out1) = self.join(ctx, worker, cell, &dcell) else {
                                return self.unwind_cancelled(target);
                            };
                            self.merge_returned(&target, out1.inserts);
                            ctx.retire_shard(worker.index(), out1.shard);
                            let w1 = out1.witness;
                            if frame.covered_by(&w1, &cur) {
                                self.stack.pop();
                                self.frontiers.pop();
                                witness = w1;
                                continue;
                            }
                            let w = ordered_resolve(&w0, &w1, dim).expect(
                                "Lemma C.1 invariant violated: donated witnesses \
                                 must be ordered-resolvable",
                            );
                            self.stats.count_resolution(dim);
                            if let Some(l) = &mut self.obs {
                                l.observe_depth(self.stack.len() as u64);
                                l.observe_resolution_at(nav0(&w));
                            }
                            if ctx.cache_resolvents {
                                self.stream_resolvent(w);
                            }
                            witness = w;
                            continue; // the resolvent covers the target
                        }
                        // 0-side done; descend into the 1-side ourselves.
                        let parent = frame.target(&cur);
                        self.stack.last_mut().expect("frame just read").frame.w1 = Some(witness);
                        cur.set(dim, cur.get(dim).truncate(frame.len).child(1));
                        for i in dim + 1..ctx.space.n() {
                            cur.set(i, DyadicInterval::lambda());
                        }
                        if usize::from(frame.len) + 1 < usize::from(ctx.space.width(dim)) {
                            self.frontiers.restore_top(&parent, &mut self.base_probe);
                        }
                        // Leaving the unwind: materialize the in-flight
                        // resolvent before the 1-side descent probes,
                        // unless it is exactly the finished 0-side. That
                        // box lies inside this task's target and outside
                        // every pending 1-side, so no donation or merge
                        // would have copied it either.
                        if let Some(p) = self.pending.take() {
                            if p == parent.with(dim, parent.get(dim).child(0)) {
                                self.dead.skip(&p, &mut self.stats);
                            } else {
                                self.insert_shard(&p);
                            }
                        }
                        continue 'descend;
                    }
                    Some(w1) => {
                        let w = ordered_resolve(&w1, &witness, dim).expect(
                            "Lemma C.1 invariant violated: witnesses must be \
                             ordered-resolvable",
                        );
                        self.stats.count_resolution(dim);
                        if let Some(l) = &mut self.obs {
                            l.observe_depth(self.stack.len() as u64);
                            l.observe_resolution_at(nav0(&w));
                        }
                        if ctx.cache_resolvents {
                            self.stream_resolvent(w);
                        }
                        witness = w;
                    }
                }
            }
        }
    }

    /// Probe the frozen base first (bigger boxes, frontier-advanced),
    /// then the overlay shard.
    fn probe<O: BoxOracle + ?Sized>(
        &mut self,
        ctx: &ParCtx<'_, O>,
        cur: &DyadicBox,
        probe_dim: usize,
    ) -> Option<DyadicBox> {
        // Repairs are observed per tracked call (a call repairs at most
        // once), so the repair histogram's total equals `probe_repairs`
        // exactly; the walk histogram gets one observation per KB query
        // — the frontier entries across whichever probes ran for it.
        self.dead.check_probe(cur);
        let base_repairs = self.base_probe.repairs;
        let hit = ctx
            .base
            .find_containing_tracked(cur, probe_dim, &mut self.base_probe);
        if let Some(l) = &mut self.obs {
            if self.base_probe.repairs > base_repairs {
                l.observe_repair(self.base_probe.last_repair_window);
                if self.base_probe.last_repair_hit {
                    l.observe_repair_hit_at(nav0(cur));
                }
            }
        }
        if let Some(a) = hit {
            if let Some(l) = &mut self.obs {
                l.observe_walk(self.base_probe.frontier_len() as u64);
            }
            return Some(a);
        }
        let shard_repairs = self.shard_probe.repairs;
        let hit = self
            .shard
            .find_containing_tracked(cur, probe_dim, &mut self.shard_probe);
        if let Some(l) = &mut self.obs {
            if self.shard_probe.repairs > shard_repairs {
                l.observe_repair(self.shard_probe.last_repair_window);
                if self.shard_probe.last_repair_hit {
                    l.observe_repair_hit_at(nav0(cur));
                }
            }
            l.observe_walk(
                (self.base_probe.frontier_len() + self.shard_probe.frontier_len()) as u64,
            );
        }
        hit
    }

    /// Handle an uncovered unit box: output it or load its gap boxes —
    /// outputs are decided by `B` alone (the oracle, or the preloaded
    /// base store), which is what makes the parallel output set
    /// scheduling-independent.
    fn absorb<O: BoxOracle + ?Sized>(&mut self, ctx: &ParCtx<'_, O>, cur: &DyadicBox) -> DyadicBox {
        let mut hits = std::mem::take(&mut self.hits);
        if ctx.preloaded {
            // All of B is in the base store: an uncovered point is an
            // output.
            debug_assert!(
                {
                    ctx.oracle.boxes_containing_into(cur, &mut hits);
                    hits.is_empty()
                },
                "a gap box of B contains the uncovered point {cur}"
            );
            hits.clear();
        } else {
            self.stats.oracle_probes += 1;
            ctx.oracle.boxes_containing_into(cur, &mut hits);
        }
        let w = if hits.is_empty() {
            self.stats.outputs += 1;
            let mut point = std::mem::take(&mut self.point);
            cur.write_point(&ctx.space, &mut point);
            self.outputs.push(point.clone());
            self.point = point;
            // The unwind takes the output as its witness directly, and no
            // later probe target lies inside it: a dead insert.
            self.dead.skip(cur, &mut self.stats);
            if ctx.stop_on_first {
                ctx.stop.store(true, Ordering::Relaxed);
            }
            *cur
        } else {
            for h in &hits {
                debug_assert!(h.contains(cur), "oracle returned a non-covering box");
                if self.shard.insert(h) {
                    self.stats.kb_inserts += 1;
                    self.stats.loaded_boxes += 1;
                    if let Some(l) = &mut self.obs {
                        l.observe_insert_at(nav0(h));
                    }
                    if self.inserts.len() < MERGE_CAP {
                        self.inserts.push(*h);
                    }
                }
            }
            self.best_witness(&hits, cur, &ctx.space)
        };
        self.hits = hits;
        w
    }

    /// Insert a resolvent into the shard, logging it for merge-on-return.
    fn insert_shard(&mut self, w: &DyadicBox) {
        if self.shard.insert(w) {
            self.stats.kb_inserts += 1;
            if let Some(l) = &mut self.obs {
                l.observe_insert_at(nav0(w));
            }
            if self.inserts.len() < MERGE_CAP {
                self.inserts.push(*w);
            }
        } else if let Some(l) = &mut self.obs {
            // The resolvent re-derived a box this task's shard already
            // holds verbatim — the per-task re-resolution signal (the
            // frozen base is not consulted, so a cross-task duplicate
            // does not count; the attribution wall's sequential runs
            // carry the exact figure).
            l.observe_re_resolution_at(nav0(w));
        }
    }

    /// Route a fresh resolvent through the streaming slot: the previous
    /// one is dropped if subsumed, materialized otherwise.
    fn stream_resolvent(&mut self, w: DyadicBox) {
        match self.pending.take() {
            Some(p) if w.contains(&p) => self.stats.kb_insert_skips += 1,
            Some(p) => self.insert_shard(&p),
            None => {}
        }
        self.pending = Some(w);
    }

    /// Materialize the in-flight resolvent (no-op when none is pending).
    fn flush_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.insert_shard(&p);
        }
    }

    /// Merge a finished thief's insert log into this shard — resolvents
    /// and loads that escape the thief's target can answer the donor's
    /// future probes.
    fn merge_returned(&mut self, target: &DyadicBox, inserts: Vec<DyadicBox>) {
        for b in inserts {
            if self.shard.insert(&b) {
                self.stats.kb_inserts += 1;
                // Merge-on-return copies are real store inserts (they
                // count toward `kb_inserts`) but not re-derivations, so
                // a duplicate here is *not* a re-resolution.
                if let Some(l) = &mut self.obs {
                    l.observe_insert_at(nav0(&b));
                }
                // Propagate further up the donation chain if it also
                // escapes *our* target.
                if !target.contains(&b) && self.inserts.len() < MERGE_CAP {
                    self.inserts.push(b);
                }
            }
        }
    }

    /// Donate the shallowest pending (0-side-in-progress, not yet
    /// donated, non-trivial) frame's 1-side to the pool, seeding its
    /// shard from a recycled scratch store when one is available.
    fn donate<O: BoxOracle + ?Sized>(
        &mut self,
        ctx: &ParCtx<'_, O>,
        worker: &Worker<'_, Task>,
        cur: &DyadicBox,
    ) {
        let n = ctx.space.n();
        for pf in self.stack.iter_mut() {
            if pf.frame.w1.is_some() || pf.donated.is_some() {
                continue;
            }
            let f = pf.frame;
            let dim = f.dim as usize;
            let mut side1 = *cur;
            side1.set(dim, cur.get(dim).truncate(f.len).child(1));
            for i in dim + 1..n {
                side1.set(i, DyadicInterval::lambda());
            }
            if side1.first_thick_dim(&ctx.space).is_none() {
                continue; // a unit box is not worth a task
            }
            let mut seed = match ctx.scratch[worker.index()]
                .lock()
                .expect("scratch lock poisoned")
                .pop()
            {
                Some(s) => s,
                None => {
                    self.stats.par_shard_allocs += 1;
                    BoxTree::new(n)
                }
            };
            // `extract_intersecting_into` clears the shard before
            // refilling, so a recycled store starts exact.
            self.shard.extract_intersecting_into(&side1, &mut seed);
            if let Some(l) = &mut self.obs {
                l.observe_donation(seed.len() as u64);
            }
            let cell = Arc::new(DonationCell::new());
            pf.donated = Some(cell.clone());
            self.stats.par_donations += 1;
            worker.spawn(Task {
                target: side1,
                shard: seed,
                cell: Some(cell),
            });
            return;
        }
    }

    /// Join a donated frame: run other tasks while the thief finishes.
    /// `None` means this task itself got cancelled while waiting.
    fn join<O: BoxOracle + ?Sized>(
        &mut self,
        ctx: &ParCtx<'_, O>,
        worker: &Worker<'_, Task>,
        cell: Option<&DonationCell>,
        dcell: &Arc<DonationCell>,
    ) -> Option<Outcome> {
        worker.help_while(|| !dcell.done.load(Ordering::Acquire) && !stopping(ctx, cell));
        if !dcell.done.load(Ordering::Acquire) {
            // We stopped waiting because the run is unwinding; release
            // the thief too.
            dcell.cancel.store(true, Ordering::Relaxed);
            return None;
        }
        let outcome = dcell
            .outcome
            .lock()
            .expect("outcome lock poisoned")
            .take()
            .expect("done implies outcome");
        if outcome.cancelled {
            // Only happens when the whole run is stopping; the shard is
            // still good scratch.
            ctx.retire_shard(worker.index(), outcome.shard);
            return None;
        }
        Some(outcome)
    }

    /// Tear down early: propagate cancellation to every pending thief.
    fn unwind_cancelled(&mut self, target: DyadicBox) -> DyadicBox {
        // A cancelled task probes nothing further and its witness is
        // never read, so the in-flight resolvent can simply be dropped.
        self.pending = None;
        for pf in &self.stack {
            if let Some(cell) = &pf.donated {
                cell.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.cancelled = true;
        target
    }

    /// Among freshly loaded boxes, pick the one collapsing the largest
    /// suffix of the live descent, ties broken by volume (same policy as
    /// the sequential driver).
    fn best_witness(&self, hits: &[DyadicBox], cur: &DyadicBox, space: &Space) -> DyadicBox {
        debug_assert!(!hits.is_empty());
        let mut best = hits[0];
        let mut best_depth = usize::MAX;
        for h in hits {
            let depth = self
                .stack
                .partition_point(|pf| !pf.frame.covered_by(h, cur));
            if depth < best_depth || (depth == best_depth && h.volume(space) > best.volume(space)) {
                best = *h;
                best_depth = depth;
            }
        }
        best
    }
}

fn stopping<O: BoxOracle + ?Sized>(ctx: &ParCtx<'_, O>, cell: Option<&DonationCell>) -> bool {
    ctx.stop.load(Ordering::Relaxed) || cell.is_some_and(|c| c.cancel.load(Ordering::Relaxed))
}
