//! Invariant checks on live executions, via the trace log: every
//! resolution the engine performs must have the Lemma C.1 shape, every
//! resolvent must be sound, every output must be genuinely uncovered,
//! and the counters must be mutually consistent.

use boxstore::SetOracle;
use dyadic::{resolve, DyadicBox, DyadicInterval, Space};
use rand::{Rng, SeedableRng};
use tetris_join::tetris::{Descent, Tetris, TetrisConfig, TetrisStats, TraceEvent};

fn random_boxes(rng: &mut rand::rngs::StdRng, n: usize, d: u8, count: usize) -> Vec<DyadicBox> {
    (0..count)
        .map(|_| {
            let mut b = DyadicBox::universe(n);
            for i in 0..n {
                let len = rng.gen_range(0..=d);
                b.set(
                    i,
                    DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                );
            }
            b
        })
        .collect()
}

#[test]
fn traces_satisfy_lemma_c1_and_soundness() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(404);
    for trial in 0..20 {
        let n = rng.gen_range(2..=3);
        let d = rng.gen_range(2..=3u8);
        let space = Space::uniform(n, d);
        let count = rng.gen_range(1..15);
        let mut boxes = random_boxes(&mut rng, n, d, count);
        boxes.sort();
        boxes.dedup();
        let oracle = SetOracle::new(space, boxes.clone());
        let out = Tetris::reloaded(&oracle).traced().run();

        for e in &out.trace {
            match e {
                TraceEvent::Resolve {
                    w1,
                    w2,
                    result,
                    dim,
                } => {
                    // Lemma C.1: components after `dim` are λ; the pivot
                    // components are 0/1-siblings; earlier components are
                    // prefix-comparable.
                    for i in dim + 1..n {
                        assert!(
                            w1.get(i).is_lambda(),
                            "trial {trial}: trailing non-λ in {w1}"
                        );
                        assert!(
                            w2.get(i).is_lambda(),
                            "trial {trial}: trailing non-λ in {w2}"
                        );
                    }
                    let (a, b) = (w1.get(*dim), w2.get(*dim));
                    assert_eq!(a.len(), b.len());
                    assert_eq!(a.bits() ^ b.bits(), 1, "pivot must be siblings");
                    assert_eq!(a.last_bit(), Some(0), "w1 holds the 0-side");
                    for i in 0..*dim {
                        assert!(w1.get(i).comparable(&w2.get(i)));
                    }
                    // The engine's resolvent equals the reference one and
                    // is sound (covers only points of w1 ∪ w2).
                    let reference = resolve::ordered_resolve(w1, w2, *dim).unwrap();
                    assert_eq!(&reference, result);
                    assert!(resolve::resolvent_is_sound(w1, w2, result, &space));
                }
                TraceEvent::Output(t) => {
                    assert!(
                        !boxes.iter().any(|b| b.contains(t)),
                        "trial {trial}: reported output {t} is covered by an input box"
                    );
                }
                TraceEvent::Load { probe, count } => {
                    assert!(*count > 0);
                    let expected = boxes.iter().filter(|b| b.contains(probe)).count();
                    assert_eq!(*count, expected, "oracle must return all maximal boxes");
                }
                TraceEvent::CoveredBy { target, witness } => {
                    assert!(witness.contains(target));
                }
                TraceEvent::Split { target, dim } => {
                    assert_eq!(target.first_thick_dim(&space), Some(*dim));
                }
                TraceEvent::Restart | TraceEvent::Uncovered(_) => {}
            }
        }

        // Counter consistency against the trace.
        let resolves = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Resolve { .. }))
            .count() as u64;
        assert_eq!(resolves, out.stats.resolutions);
        let outputs = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Output(_)))
            .count() as u64;
        assert_eq!(outputs, out.stats.outputs);
        assert_eq!(outputs as usize, out.tuples.len());
        let restarts = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Restart))
            .count() as u64;
        assert_eq!(restarts, out.stats.restarts);
    }
}

#[test]
fn tracing_changes_no_counter() {
    // Every trace site sits beside engine work it must not change: a
    // traced run repeats the untraced run's tuples and counters, apart
    // from the two recorder counters, in every sequential mode. Trial 0's
    // Tree-Ordered restart runs overflow the ring, so the drop count is
    // checked on a wrapped trace too.
    let mut rng = rand::rngs::StdRng::seed_from_u64(405);
    let mut wrapped = false;
    for trial in 0..30 {
        let n = rng.gen_range(1..=3);
        let d = rng.gen_range(1..=3u8);
        let space = Space::uniform(n, d);
        let count = rng.gen_range(0..20);
        let oracle = SetOracle::new(space, random_boxes(&mut rng, n, d, count));
        for descent in [Descent::Incremental, Descent::Restart, Descent::RestartMemo] {
            for preload in [false, true] {
                for cache_resolvents in [false, true] {
                    let cfg = TetrisConfig {
                        preload,
                        cache_resolvents,
                        descent,
                        ..Default::default()
                    };
                    let label = format!("trial {trial} {cfg:?}");
                    let plain = Tetris::with_config(&oracle, cfg).run();
                    let traced =
                        Tetris::with_config(&oracle, TetrisConfig { trace: true, ..cfg }).run();
                    assert_eq!(traced.tuples, plain.tuples, "{label}");
                    let s = &traced.stats;
                    assert_eq!(
                        s.trace_recorded - s.trace_dropped,
                        traced.trace.len() as u64,
                        "{label}"
                    );
                    wrapped |= s.trace_dropped > 0;
                    let untraced = TetrisStats {
                        trace_recorded: 0,
                        trace_dropped: 0,
                        ..s.clone()
                    };
                    assert_eq!(untraced, plain.stats, "{label}");
                }
            }
        }
    }
    assert!(wrapped, "no traced run overflowed the ring");
}

#[test]
fn streaming_api_matches_materialized_run() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let space = Space::uniform(2, 3);
    let boxes = random_boxes(&mut rng, 2, 3, 8);
    let oracle = SetOracle::new(space, boxes);
    let materialized = Tetris::reloaded(&oracle).run();
    let mut streamed = Vec::new();
    let stats = Tetris::reloaded(&oracle).for_each_output(|t| streamed.push(t.to_vec()));
    assert_eq!(streamed, materialized.tuples);
    assert_eq!(stats.outputs, materialized.stats.outputs);
}

#[test]
fn every_resolution_dim_is_within_bounds() {
    let space = Space::uniform(3, 2);
    let boxes = random_boxes(&mut rand::rngs::StdRng::seed_from_u64(1), 3, 2, 10);
    let oracle = SetOracle::new(space, boxes);
    let out = Tetris::preloaded(&oracle).traced().run();
    for e in &out.trace {
        if let TraceEvent::Resolve { dim, .. } = e {
            assert!(*dim < 3);
        }
    }
    let sum: u64 = out.stats.resolutions_by_dim.iter().sum();
    assert_eq!(sum, out.stats.resolutions);
}
