//! The parallel skeleton descent (`Descent::Parallel`): Tetris's outer
//! loop spread over a work-stealing thread pool. Every task runs the
//! sequential driver's descent loop (`Skeleton::drive`) over its own
//! knowledge-base view, an [`Overlay`], with a [`TaskHook`] that
//! schedules it. This module keeps only the pool protocol: tasks,
//! donation, joins, merge-on-return, shard recycling and cancellation.
//! The frozen base and every overlay shard are [`BoxTree`]s.
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
//!   runs other tasks while waiting), and the thief's returned witness
//!   enters the shared unwind as the frame's 1-side witness: the frame
//!   pops if it is covered, otherwise the witness is `ordered_resolve`d
//!   against the saved 0-side witness. If the
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

use crate::engine::{
    nav0, observe_repair, walk_len, KbView, Sched, Skeleton, Tetris, TetrisOutput,
};
use crate::{TetrisConfig, TetrisStats};
use boxstore::{BoxOracle, BoxTree, DescentProbe};
use dyadic::DyadicBox;
use executor::{Pool, Worker};
use obs::{Ledger, Phase};
use std::ops::ControlFlow;
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
    /// The run's configuration; each task's descent reads `preload`,
    /// `cache_resolvents` and `obs` from it (its own ledger, merged at
    /// report collection — the hot path never shares one).
    config: TetrisConfig,
    /// The pre-descent knowledge base (preloaded gap set, or empty for
    /// reloaded mode), frozen for the duration of the run.
    base: &'a BoxTree,
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

    /// A shard for a donation by `worker`: a retired one from its pool,
    /// or a fresh store counted in `par_shard_allocs`.
    fn take_shard(&self, worker: usize, stats: &mut TetrisStats) -> BoxTree {
        let retired = self.scratch[worker]
            .lock()
            .expect("scratch lock poisoned")
            .pop();
        retired.unwrap_or_else(|| {
            stats.par_shard_allocs += 1;
            BoxTree::new(self.base.n())
        })
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
    let Skeleton {
        oracle,
        space,
        kb,
        config,
        mut stats,
        obs: mut run_obs,
        ..
    } = engine.0;
    assert!(
        !config.trace,
        "tracing is not supported under Descent::Parallel (event order \
         would depend on scheduling); trace a sequential descent instead"
    );
    let stop = AtomicBool::new(false);
    let reports = Mutex::new(Vec::new());
    let scratch: Vec<Mutex<Vec<BoxTree>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let ctx = ParCtx {
        oracle,
        config,
        base: &kb.tree,
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

/// A task's knowledge base: the frozen base, probed first (bigger
/// boxes, frontiers saved per frame and never repaired, since the base
/// cannot change mid-run), then the task's small, mutating overlay shard.
struct Overlay<'a> {
    base: &'a BoxTree,
    base_probe: DescentProbe,
    shard: BoxTree,
    shard_probe: DescentProbe,
    /// Novel shard inserts, up to [`MERGE_CAP`]; the ones that escape
    /// the task's target go back to its donor (merge-on-return).
    log: Vec<DyadicBox>,
}

impl KbView for Overlay<'_> {
    fn probe(
        &mut self,
        cur: &DyadicBox,
        dim: usize,
        obs: &mut Option<Box<Ledger>>,
    ) -> Option<DyadicBox> {
        let (base, shard) = (&self.base_probe, &self.shard_probe);
        let repairs = (base.repairs, shard.repairs);
        let walks = (base.full_walks, shard.full_walks);
        let frontiers = (base.frontier_len(), shard.frontier_len());
        let mut hit = self
            .base
            .find_containing_tracked(cur, dim, &mut self.base_probe);
        let mut walk = walk_len(&self.base_probe, walks.0, frontiers.0);
        if hit.is_none() {
            hit = self
                .shard
                .find_containing_tracked(cur, dim, &mut self.shard_probe);
            walk += walk_len(&self.shard_probe, walks.1, frontiers.1);
        }
        // One walk observation per KB query: the frontier entries that
        // whichever probes ran for it worked from.
        if let Some(l) = obs {
            l.walk.observe(walk);
            observe_repair(l, &self.base_probe, repairs.0, cur);
            observe_repair(l, &self.shard_probe, repairs.1, cur);
        }
        hit
    }

    fn saved_probe(&mut self) -> &mut DescentProbe {
        &mut self.base_probe
    }

    fn insert(&mut self, b: &DyadicBox) -> bool {
        let novel = self.shard.insert(b);
        if novel && self.log.len() < MERGE_CAP {
            self.log.push(*b);
        }
        novel
    }

    fn epoch(&self) -> u64 {
        self.shard.epoch()
    }

    fn count_probes(&self, stats: &mut TetrisStats) {
        stats.probe_advances = self.base_probe.advances + self.shard_probe.advances;
        stats.probe_repairs = self.base_probe.repairs + self.shard_probe.repairs;
        stats.probe_full_walks = self.base_probe.full_walks + self.shard_probe.full_walks;
    }
}

/// A task's scheduling hook. Every `CHECK_MASK + 1` skeleton calls it
/// checks for cancellation and feeds a hungry pool; it joins donated
/// frames and cancels a thief whose frame gets covered.
struct TaskHook<'t, 'w, O: BoxOracle + ?Sized> {
    ctx: &'t ParCtx<'t, O>,
    worker: &'t Worker<'w, Task>,
    /// This task's own rendezvous (`None` for the root task).
    cell: Option<&'t DonationCell>,
    target: DyadicBox,
    /// The frames whose 1-side was donated, by stack depth, shallowest
    /// first.
    donated: Vec<(usize, Arc<DonationCell>)>,
}

impl<'a, O: BoxOracle + ?Sized> Sched<Skeleton<'a, O, Overlay<'a>>> for TaskHook<'_, '_, O> {
    fn poll(&mut self, s: &mut Skeleton<'a, O, Overlay<'a>>, cur: &DyadicBox) -> bool {
        if s.stats.skeleton_calls & CHECK_MASK != 0 {
            return false;
        }
        if self.stopping() {
            return true;
        }
        if self.worker.hungry() {
            self.donate(s, cur);
        }
        false
    }

    fn join(&mut self, s: &mut Skeleton<'a, O, Overlay<'a>>) -> ControlFlow<(), Option<DyadicBox>> {
        if self.donated.last().map(|d| d.0) != Some(s.stack.len() - 1) {
            return ControlFlow::Continue(None);
        }
        let (_, dcell) = self.donated.pop().expect("donation just read");
        // Run other tasks while the thief finishes.
        self.worker
            .help_while(|| !dcell.done.load(Ordering::Acquire) && !self.stopping());
        if !dcell.done.load(Ordering::Acquire) {
            // We stopped waiting because the run is unwinding; release
            // the thief too.
            dcell.cancel.store(true, Ordering::Relaxed);
            return ControlFlow::Break(());
        }
        let out = dcell
            .outcome
            .lock()
            .expect("outcome lock poisoned")
            .take()
            .expect("done implies outcome");
        self.ctx.retire_shard(self.worker.index(), out.shard);
        if out.cancelled {
            // Only happens when the whole run is stopping.
            return ControlFlow::Break(());
        }
        self.merge_returned(s, out.inserts);
        ControlFlow::Continue(Some(out.witness))
    }

    fn popped(&mut self, depth: usize) {
        // The whole frame target is covered, so a stolen 1-side is dead
        // work (its region holds no outputs).
        if self.donated.last().is_some_and(|d| d.0 == depth) {
            let (_, dcell) = self.donated.pop().expect("donation just read");
            dcell.cancel.store(true, Ordering::Relaxed);
        }
    }
}

impl<'a, O: BoxOracle + ?Sized> TaskHook<'_, '_, O> {
    /// Whether the run is stopping or this task was cancelled.
    fn stopping(&self) -> bool {
        self.ctx.stop.load(Ordering::Relaxed)
            || self.cell.is_some_and(|c| c.cancel.load(Ordering::Relaxed))
    }

    /// Donate the shallowest pending (0-side in progress, not yet
    /// donated, non-trivial) frame's 1-side to the pool, seeding its
    /// shard from a recycled scratch store when one is available.
    fn donate(&mut self, s: &mut Skeleton<'a, O, Overlay<'a>>, cur: &DyadicBox) {
        for (depth, f) in s.stack.iter().enumerate() {
            if f.w1.is_some() || self.donated.iter().any(|d| d.0 == depth) {
                continue;
            }
            let (dim, t) = (f.dim as usize, f.target(cur));
            let side1 = t.with(dim, t.get(dim).child(1));
            if side1.first_thick_dim(&s.space).is_none() {
                continue; // a unit box is not worth a task
            }
            let mut seed = self.ctx.take_shard(self.worker.index(), &mut s.stats);
            // `extract_intersecting_into` clears the shard before
            // refilling, so a recycled store starts exact.
            s.kb.shard.extract_intersecting_into(&side1, &mut seed);
            if let Some(l) = &mut s.obs {
                l.donation.observe(seed.len() as u64);
            }
            let cell = Arc::new(DonationCell::new());
            self.donated.push((depth, cell.clone()));
            s.stats.par_donations += 1;
            self.worker.spawn(Task {
                target: side1,
                shard: seed,
                cell: Some(cell),
            });
            return;
        }
    }

    /// Merge a finished thief's insert log into this task's shard —
    /// resolvents and loads that escape the thief's target can answer
    /// this task's later probes.
    fn merge_returned(&self, s: &mut Skeleton<'a, O, Overlay<'a>>, inserts: Vec<DyadicBox>) {
        for b in inserts {
            if s.kb.shard.insert(&b) {
                s.stats.kb_inserts += 1;
                // Merge-on-return copies are real store inserts (they
                // count toward `kb_inserts`) but not re-derivations, so
                // a duplicate here is *not* a re-resolution.
                if let Some(l) = &mut s.obs {
                    l.attr.count_insert(nav0(&b));
                }
                // Propagate further up the donation chain if it also
                // escapes *our* target.
                if !self.target.contains(&b) && s.kb.log.len() < MERGE_CAP {
                    s.kb.log.push(b);
                }
            }
        }
    }
}

/// Run one task: the shared descent loop over its target, then the
/// report to its donor and to the run.
fn run_task<O: BoxOracle + ?Sized>(ctx: &ParCtx<'_, O>, task: Task, worker: &Worker<'_, Task>) {
    let Task {
        target,
        shard,
        cell,
    } = task;
    let kb = Overlay {
        base: ctx.base,
        base_probe: DescentProbe::new(),
        shard,
        shard_probe: DescentProbe::new(),
        log: Vec::new(),
    };
    let mut sk = Skeleton::new(ctx.oracle, kb, ctx.config);
    let mut hook = TaskHook {
        ctx,
        worker,
        cell: cell.as_deref(),
        target,
        donated: Vec::new(),
    };
    let mut outputs = Vec::new();
    // Time the task slice (root task or served donation) around the
    // descent only — donation seeding and joins inside it count toward
    // the slice, the report bookkeeping below does not.
    let slice_start = ctx.config.obs.then(std::time::Instant::now);
    let witness = sk.drive(target, &mut hook, |t| {
        outputs.push(t.to_vec());
        if ctx.stop_on_first {
            ctx.stop.store(true, Ordering::Relaxed);
        }
        false
    });
    if let (Some(t0), Some(l)) = (slice_start, &mut sk.obs) {
        l.record_span(Phase::Task, t0.elapsed().as_secs_f64());
    }
    // A cancelled task leaves its pending thieves dead work too.
    for (_, dcell) in &hook.donated {
        dcell.cancel.store(true, Ordering::Relaxed);
    }
    sk.stats.par_tasks = 1;
    sk.sync_stats();
    let Overlay { shard, mut log, .. } = sk.kb;
    if let Some(cell) = &cell {
        // Only facts escaping this task's region can matter to the donor.
        log.retain(|b| !target.contains(b));
        *cell.outcome.lock().expect("outcome lock poisoned") = Some(Outcome {
            // A cancelled task's witness is never read: its donor is
            // itself unwinding.
            witness: witness.unwrap_or(target),
            inserts: log,
            cancelled: witness.is_none(),
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
        .push((outputs, sk.stats, sk.obs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxstore::SetOracle;
    use dyadic::Space;

    /// Shard recycling, scripted on one worker's pool: a take reuses a
    /// retired shard before it allocates, a reused shard comes back exact
    /// once a donation's slice is extracted into it, and a pool holds at
    /// most `SCRATCH_CAP` shards.
    #[test]
    fn shard_pool_reuses_retired_shards_before_allocating() {
        let b = |s: &str| DyadicBox::parse(s).unwrap();
        let oracle = SetOracle::new(Space::uniform(2, 3), Vec::new());
        let base = BoxTree::new(2);
        let stop = AtomicBool::new(false);
        let scratch = [Mutex::new(Vec::new())];
        let reports = Mutex::new(Vec::new());
        let ctx = ParCtx {
            oracle: &oracle,
            config: TetrisConfig::default(),
            base: &base,
            stop_on_first: false,
            stop: &stop,
            scratch: &scratch,
            reports: &reports,
        };
        let mut stats = TetrisStats::new(2);

        // An empty pool allocates, and counts it.
        let mut shard = ctx.take_shard(0, &mut stats);
        assert_eq!(stats.par_shard_allocs, 1);

        // A retired non-empty shard serves the next take: no allocation,
        // and after the extract it equals a fresh store's extract.
        for s in ["0,λ", "01,1", "1,10"] {
            shard.insert(&b(s));
        }
        ctx.retire_shard(0, shard);
        let mut reused = ctx.take_shard(0, &mut stats);
        assert_eq!(stats.par_shard_allocs, 1, "a retired shard was pooled");
        let mut donor = BoxTree::new(2);
        for s in ["λ,0", "00,λ", "1,11", "11,λ"] {
            donor.insert(&b(s));
        }
        let side1 = b("1,λ");
        donor.extract_intersecting_into(&side1, &mut reused);
        let mut fresh = BoxTree::new(2);
        donor.extract_intersecting_into(&side1, &mut fresh);
        assert_eq!(reused.len(), 3);
        assert!(reused.arena_eq(&fresh), "a reused shard keeps stale boxes");

        // Retiring beyond the cap drops the surplus: the pool serves
        // `SCRATCH_CAP` takes, and the next one allocates.
        for _ in 0..SCRATCH_CAP + 2 {
            ctx.retire_shard(0, BoxTree::new(2));
        }
        assert_eq!(scratch[0].lock().unwrap().len(), SCRATCH_CAP);
        for _ in 0..SCRATCH_CAP {
            ctx.take_shard(0, &mut stats);
        }
        assert_eq!(stats.par_shard_allocs, 1);
        ctx.take_shard(0, &mut stats);
        assert_eq!(stats.par_shard_allocs, 2);
    }
}
