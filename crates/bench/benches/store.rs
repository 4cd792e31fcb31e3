//! Microbenchmark: the knowledge base ([`BoxTree`]) — insert and
//! containment-query throughput, the Õ(1) operations of Lemma 4.5.

use boxstore::{BoxTree, DescentProbe};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyadic::{DyadicBox, DyadicInterval};

fn make_boxes(n: usize, d: u8, count: usize, seed: u64) -> Vec<DyadicBox> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let mut b = DyadicBox::universe(n);
            for i in 0..n {
                let len = (next() % (d as u64 + 1)) as u8;
                let bits = if len == 0 {
                    0
                } else {
                    next() & ((1u64 << len) - 1)
                };
                b.set(i, DyadicInterval::from_bits(bits, len));
            }
            b
        })
        .collect()
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("box_store");
    group.sample_size(20);
    for &count in &[1_000usize, 10_000] {
        let boxes = make_boxes(3, 16, count, 99);
        group.bench_with_input(BenchmarkId::new("insert", count), &count, |b, _| {
            b.iter(|| {
                let mut t = BoxTree::new(3);
                for bx in &boxes {
                    t.insert(bx);
                }
                t.len()
            })
        });
        let tree: BoxTree = boxes.iter().copied().collect();
        let probes = make_boxes(3, 16, 1000, 123);
        group.bench_with_input(
            BenchmarkId::new("find_containing", count),
            &count,
            |b, _| {
                b.iter(|| {
                    probes
                        .iter()
                        .filter(|p| tree.find_containing(p).is_some())
                        .count()
                })
            },
        );
        // The engine's actual probe shape: descend one path, tracked.
        group.bench_with_input(
            BenchmarkId::new("tracked_descent", count),
            &count,
            |b, _| {
                b.iter(|| {
                    let mut hits = 0usize;
                    let mut probe = DescentProbe::new();
                    for p in probes.iter().take(200) {
                        let full = p.get(0);
                        for len in 0..=full.len() {
                            let t = DyadicBox::universe(3).with(0, full.truncate(len));
                            if tree.find_containing_tracked(&t, 0, &mut probe).is_some() {
                                hits += 1;
                                break;
                            }
                        }
                    }
                    hits
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
