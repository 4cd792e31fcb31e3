//! The child process: timed reps of one workload's public pipeline on the
//! saved input, then the untimed reference passes.
//!
//! A rep is `load → plan → prepare → run`, each layer timed from outside
//! around its public call, under the plan's default carried config (the
//! benchmark never sets backend, shards or threads). The parent ran the
//! generator and the ground truth, so this process's `VmHWM` is the
//! workload's own peak memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::time;
use boxstore::BoxOracle;
use plan::PlanRun;

use crate::stats::{median, pow2_percentile};
use crate::workloads::Workload;

/// Fewest timed reps in a run, however short `--seconds` is: a median of
/// fewer than three samples is one outlier away from wrong.
const MIN_REPS: u64 = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// What the parent asks of the child.
pub struct Job {
    /// The workload whose pipeline runs.
    pub workload: Workload,
    /// The saved input files.
    pub inputs: Vec<PathBuf>,
    /// The ground-truth output count.
    pub expect: u64,
    /// How long to keep starting timed reps.
    pub seconds: f64,
    /// Whether to add the traced rep and report the † metrics.
    pub trace: bool,
}

/// The outcome of a child run.
#[derive(Debug)]
pub struct Report {
    /// Reps run, the traced rep included.
    pub attempted: u64,
    /// Reps whose count differed from the ground truth, whose listing
    /// differed from LFTJ's, whose counters differed from the first
    /// rep's, or that panicked.
    pub failed: u64,
    /// No rep failed and LFTJ agreed with the ground truth.
    pub correct: bool,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Per-layer wall times of one rep, in seconds.
struct Rep {
    load: f64,
    plan: f64,
    prepare: f64,
    e2e: f64,
    run: PlanRun,
}

fn timed_rep(w: &Workload, inputs: &[PathBuf]) -> Rep {
    let t0 = Instant::now();
    let rels = w.load(inputs);
    let t1 = Instant::now();
    let plan = w.plan(&rels);
    let t2 = Instant::now();
    let prepared = plan.prepare();
    let t3 = Instant::now();
    let run = prepared.run();
    let t4 = Instant::now();
    Rep {
        load: (t1 - t0).as_secs_f64(),
        plan: (t2 - t1).as_secs_f64(),
        prepare: (t3 - t2).as_secs_f64(),
        e2e: (t4 - t0).as_secs_f64(),
        run,
    }
}

/// The counters a sequential run must repeat exactly.
fn counters(run: &PlanRun) -> [u64; 8] {
    let s = &run.output.stats;
    [
        s.outputs,
        s.resolutions,
        s.kb_queries,
        s.kb_inserts,
        s.kb_insert_skips,
        s.probe_advances,
        s.probe_repairs,
        s.probe_full_walks,
    ]
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The part of an end-to-end time no layer timer covers. Within `run()`
/// that is building the gap oracle, which sits outside both engine
/// timers.
pub fn unexplained(e2e: f64, layers: &[f64]) -> f64 {
    e2e - layers.iter().sum::<f64>()
}

/// Per-rep samples of every timed quantity.
#[derive(Default)]
struct Samples {
    load: Vec<f64>,
    plan: Vec<f64>,
    prepare: Vec<f64>,
    preload: Vec<f64>,
    solve: Vec<f64>,
    e2e: Vec<f64>,
    setup: Vec<f64>,
    engine: Vec<f64>,
    unexplained: Vec<f64>,
}

impl Samples {
    fn push(&mut self, r: &Rep) {
        let layers = [r.load, r.plan, r.prepare, r.run.preload_s, r.run.solve_s];
        self.load.push(r.load);
        self.plan.push(r.plan);
        self.prepare.push(r.prepare);
        self.preload.push(r.run.preload_s);
        self.solve.push(r.run.solve_s);
        self.e2e.push(r.e2e);
        self.setup.push(r.load + r.plan + r.prepare);
        self.engine.push(r.run.preload_s + r.run.solve_s);
        self.unexplained.push(unexplained(r.e2e, &layers));
    }
}

/// Run the job: timed reps for `seconds` (at least [`MIN_REPS`]), the
/// peak-memory reading, then the reference passes.
pub fn run(job: &Job) -> Report {
    let mut attempted = 0;
    let mut failed = 0;
    let mut t = Samples::default();
    let mut first: Option<[u64; 8]> = None;
    let mut listing: Option<Vec<Vec<u64>>> = None;
    let budget = Duration::from_secs_f64(job.seconds);
    let start = Instant::now();
    while attempted < MIN_REPS || start.elapsed() < budget {
        attempted += 1;
        // Free the previous listing first, so the peak is one rep's.
        listing = None;
        let Ok(rep) = catch_unwind(AssertUnwindSafe(|| timed_rep(&job.workload, &job.inputs)))
        else {
            failed += 1;
            continue;
        };
        let c = counters(&rep.run);
        let first_c = *first.get_or_insert(c);
        let count = rep.run.output.tuples.len() as u64;
        if count != job.expect || first_c != c {
            eprintln!(
                "tetris_bench: rep {attempted} listed {count} tuples (ground truth {}), \
                 counters {c:?} (first rep {first_c:?})",
                job.expect
            );
            failed += 1;
            continue;
        }
        t.push(&rep);
        listing = Some(rep.run.output.tuples);
    }
    let peak_rss_mb =
        bench::peak_rss_bytes().expect("VmHWM is readable from /proc/self/status") as f64 / MIB;

    // Reference passes: untimed with respect to every end-to-end metric.
    let rels = job.workload.load(&job.inputs);
    let prepared = job.workload.plan(&rels).prepare();
    let oracle = prepared.oracle();
    let (gap_boxes, gap_extract_s) = time(|| {
        let mut n = 0u64;
        oracle.for_each_box(&mut |_| n += 1);
        n
    });
    let ((lf, _), lftj_s) = time(|| prepared.leapfrog());
    let lftj_agrees = lf.len() as u64 == job.expect;
    if listing.as_ref().is_some_and(|l| *l != lf) {
        eprintln!("tetris_bench: the last rep's listing differs from LFTJ's");
        failed += 1;
    }
    drop(listing);

    let load = median(&t.load);
    let plan = median(&t.plan);
    let preload = median(&t.preload);
    let solve = median(&t.solve);
    let e2e = median(&t.e2e);
    let c = first.unwrap_or_default();
    let [_, resolutions, kb_queries, kb_inserts, kb_insert_skips, advances, _, full_walks] = c;
    let mut metrics = vec![
        ("e2e_s", e2e),
        ("setup_s", median(&t.setup)),
        ("peak_rss_mb", peak_rss_mb),
        ("load.load_s", load),
        ("plan.plan_s", plan),
        ("plan.prepare_s", median(&t.prepare)),
        ("relation.gap_extract_s", gap_extract_s),
        ("relation.gap_boxes", gap_boxes as f64),
        ("boxstore.preload_s", preload),
        ("boxstore.insert_s", preload - gap_extract_s),
        (
            "boxstore.ns_per_gap_box",
            preload * 1e9 / gap_boxes.max(1) as f64,
        ),
        ("boxstore.probe_advance_share", share(advances, kb_queries)),
        (
            "boxstore.probe_full_walk_share",
            share(full_walks, kb_queries),
        ),
        ("core.solve_s", solve),
        ("core.resolutions", resolutions as f64),
        ("core.kb_queries", kb_queries as f64),
        ("core.kb_inserts", kb_inserts as f64),
        ("core.kb_insert_skips", kb_insert_skips as f64),
        (
            "core.ns_per_resolution",
            solve * 1e9 / resolutions.max(1) as f64,
        ),
        ("baseline.lftj_s", lftj_s),
        ("baseline.lftj_ratio", e2e / (load + plan + lftj_s)),
        ("run.unexplained_s", median(&t.unexplained)),
        ("run.reps", t.e2e.len() as f64),
        (
            "run.e2e_min_s",
            t.e2e.iter().copied().fold(f64::NAN, f64::min),
        ),
        (
            "run.e2e_max_s",
            t.e2e.iter().copied().fold(f64::NAN, f64::max),
        ),
    ];

    if job.trace {
        // One extra rep with the obs ledger on, for what only it records.
        attempted += 1;
        let mut cfg = prepared.config();
        cfg.obs = true;
        let traced = prepared.execute(cfg);
        if Some(counters(&traced)) != first {
            eprintln!("tetris_bench: the traced rep's counters differ from the untraced reps'");
            failed += 1;
        }
        let l = traced.output.obs.as_ref().expect("obs was requested");
        let mem = traced.mem.expect("obs was requested");
        metrics.extend([
            ("boxstore.store_mb", mem.bytes as f64 / MIB),
            ("boxstore.store_nodes", mem.nodes as f64),
            (
                "boxstore.walk_p50",
                pow2_percentile(l.walk.buckets(), 0.5) as f64,
            ),
            (
                "boxstore.walk_p99",
                pow2_percentile(l.walk.buckets(), 0.99) as f64,
            ),
            (
                "obs.trace_overhead",
                (traced.preload_s + traced.solve_s) / median(&t.engine),
            ),
        ]);
    }
    Report {
        attempted,
        failed,
        correct: failed == 0 && lftj_agrees,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    /// Generate a toy instance of `w` into a fresh directory.
    fn toy_job(w: Workload, expect_offset: u64) -> (Job, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "tetris_bench-test-{}-{}-{expect_offset}",
            std::process::id(),
            w.name
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let size = if w.name.starts_with("chain") {
            300
        } else {
            1000
        };
        let toy = w.at_size(size);
        let (inputs, truth) = toy.generate(w.default_seed, &dir).expect("generate");
        let job = Job {
            workload: toy,
            inputs,
            expect: truth + expect_offset,
            seconds: 0.0,
            trace: true,
        };
        (job, dir)
    }

    #[test]
    fn every_workload_pipeline_passes_at_toy_size() {
        for w in WORKLOADS {
            let (job, dir) = toy_job(w, 0);
            let r = run(&job);
            std::fs::remove_dir_all(&dir).expect("remove temp dir");
            assert!(r.correct, "{}: {r:?}", w.name);
            assert_eq!((r.attempted, r.failed), (MIN_REPS + 1, 0), "{}", w.name);
            let get = |k: &str| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == k)
                    .unwrap_or_else(|| panic!("{}: no metric {k}", w.name))
                    .1
            };
            for m in END_TO_END.iter().chain(&PER_LAYER) {
                assert!(
                    get(m.name).is_finite(),
                    "{}: {} = {}",
                    w.name,
                    m.name,
                    get(m.name)
                );
            }
            assert!(get("setup_s") > 0.0 && get("setup_s") < get("e2e_s"));
            let unexplained = get("run.unexplained_s");
            assert!(
                unexplained >= 0.0 && unexplained < get("e2e_s"),
                "{}",
                w.name
            );
            assert_eq!(get("run.reps"), MIN_REPS as f64);
        }
    }

    #[test]
    fn a_wrong_count_fails_every_rep() {
        let (job, dir) = toy_job(WORKLOADS[0], 1);
        let r = run(&Job {
            trace: false,
            ..job
        });
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (MIN_REPS, MIN_REPS));
    }

    #[test]
    fn unexplained_is_what_the_layer_timers_leave() {
        assert!((unexplained(1.0, &[0.25, 0.5, 0.125]) - 0.125).abs() < 1e-15);
        assert_eq!(unexplained(2.0, &[]), 2.0);
    }
}
