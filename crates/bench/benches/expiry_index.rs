//! Criterion benchmarks for the expiration indexes (ref. [24]): the
//! "real-time performance guarantees" substrate. Heap vs wheel vs scan on
//! insert-then-drain workloads, plus steady-state churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exptime_core::time::Time;
use exptime_core::tuple;
use exptime_storage::expiry::IndexKind;
use exptime_storage::RowHeap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn rows(n: usize, seed: u64) -> Vec<(exptime_storage::RowId, Time)> {
    let mut heap = RowHeap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                heap.insert(tuple![i as i64], Time::INFINITY),
                Time::new(rng.gen_range(1..10_000)),
            )
        })
        .collect()
}

fn bench_insert_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("expiry/insert_drain");
    for &n in &[10_000usize, 100_000] {
        let data = rows(n, 42);
        g.throughput(Throughput::Elements(n as u64));
        for kind in [IndexKind::Heap, IndexKind::Wheel, IndexKind::Scan] {
            if kind == IndexKind::Scan && n > 10_000 {
                continue; // quadratic baseline; only at the small size
            }
            g.bench_with_input(
                BenchmarkId::new(format!("{kind:?}").to_lowercase(), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut ix = kind.build();
                        for &(id, e) in &data {
                            ix.insert(id, e);
                        }
                        let mut total = 0;
                        // Drain in 100 batches.
                        for step in 1..=100u64 {
                            total += ix.pop_due(Time::new(step * 100)).len();
                        }
                        assert_eq!(total, n);
                        black_box(total)
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_churn(c: &mut Criterion) {
    // Steady state: every op inserts one row and pops due rows as time
    // crawls forward — the session-store pattern.
    let mut g = c.benchmark_group("expiry/churn");
    g.throughput(Throughput::Elements(10_000));
    for kind in [IndexKind::Heap, IndexKind::Wheel, IndexKind::Scan] {
        g.bench_function(format!("{kind:?}").to_lowercase(), |b| {
            let data = rows(10_000, 7);
            b.iter(|| {
                let mut ix = kind.build();
                let mut now = 0u64;
                for (i, &(id, _)) in data.iter().enumerate() {
                    ix.insert(id, Time::new(now + 30));
                    if i % 8 == 0 {
                        now += 1;
                        black_box(ix.pop_due(Time::new(now)));
                    }
                }
                black_box(ix.len())
            });
        });
    }
    g.finish();
}

fn bench_next_expiration(c: &mut Criterion) {
    let mut g = c.benchmark_group("expiry/next_expiration");
    for kind in [IndexKind::Heap, IndexKind::Wheel, IndexKind::Scan] {
        let data = rows(10_000, 9);
        let mut ix = kind.build();
        for &(id, e) in &data {
            ix.insert(id, e);
        }
        g.bench_function(format!("{kind:?}").to_lowercase(), |b| {
            b.iter(|| black_box(ix.next_expiration()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_insert_drain,
    bench_churn,
    bench_next_expiration
);
criterion_main!(benches);
