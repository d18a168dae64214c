//! Criterion micro-benchmarks for the algebra operators (Figures 2–3 at
//! scale): evaluation cost of each expiration-time operator as input size
//! grows, plus the expression-metadata (texp/validity) overhead of the
//! non-monotonic operators, and `GROUP BY` as SQL plans it
//! (`π(agg(Base))`) through `eval`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exptime_bench::workload::{difference_pair, LifetimeDist, TableGen};
use exptime_core::aggregate::{AggFunc, AggMode};
use exptime_core::algebra::{eval, ops, EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::predicate::{CmpOp, Predicate};
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use std::hint::black_box;

fn table(rows: usize, seed: u64) -> Relation {
    TableGen {
        rows,
        keys: rows / 10 + 1,
        values: 64,
        lifetimes: LifetimeDist::Uniform { min: 1, max: 1000 },
        seed,
        ..TableGen::default()
    }
    .generate()
    .to_relation()
}

fn bench_monotonic(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators/monotonic");
    for &n in &[1_000usize, 10_000] {
        let r = table(n, 1);
        let s = table(n, 2);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("select", n), &n, |b, _| {
            let p = Predicate::attr_cmp_const(1, CmpOp::Lt, 32);
            b.iter(|| ops::select(black_box(&r), &p, Time::new(500)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("project_dedup", n), &n, |b, _| {
            b.iter(|| ops::project(black_box(&r), &[0], Time::new(500)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("union", n), &n, |b, _| {
            b.iter(|| ops::union(black_box(&r), &s, Time::new(500)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("intersect", n), &n, |b, _| {
            b.iter(|| ops::intersect(black_box(&r), &s, Time::new(500)).unwrap());
        });
    }
    g.finish();

    // Equi-joins: the hash fast path vs the literal Equation 5 nested
    // loop (the ablation pair).
    let mut g = c.benchmark_group("operators/join");
    g.sample_size(10);
    for &n in &[200usize, 1_000] {
        let r = table(n, 1);
        let s = table(n, 2);
        let p = Predicate::attr_eq_attr(0, 2);
        g.bench_with_input(BenchmarkId::new("hash", n), &n, |b, _| {
            b.iter(|| ops::join(black_box(&r), &s, &p, Time::new(500)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
            b.iter(|| ops::join_nested_loop(black_box(&r), &s, &p, Time::new(500)).unwrap());
        });
    }
    g.finish();
}

fn bench_non_monotonic(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators/non_monotonic");
    for &n in &[1_000usize, 10_000] {
        let (rg, sg) = difference_pair(
            n,
            0.5,
            LifetimeDist::Uniform {
                min: 500,
                max: 1000,
            },
            LifetimeDist::Uniform { min: 1, max: 499 },
            3,
        );
        let r = rg.to_relation();
        let s = sg.to_relation();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("difference", n), &n, |b, _| {
            b.iter(|| ops::difference(black_box(&r), &s, Time::ZERO).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("difference_meta", n), &n, |b, _| {
            b.iter(|| ops::difference_meta(black_box(&r), &s, Time::ZERO));
        });
        let t = table(n, 4);
        for mode in [AggMode::Naive, AggMode::Contributing, AggMode::Exact] {
            g.bench_with_input(
                BenchmarkId::new(format!("aggregate_count_{mode:?}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        ops::aggregate(black_box(&t), &[0], AggFunc::Count, mode, Time::ZERO)
                            .unwrap()
                    });
                },
            );
        }
        // The metadata comes with the rows, from the one grouping.
        g.bench_with_input(BenchmarkId::new("aggregate_meta", n), &n, |b, _| {
            b.iter(|| {
                ops::aggregate(
                    black_box(&t),
                    &[0],
                    AggFunc::Sum(1),
                    AggMode::Exact,
                    Time::ZERO,
                )
                .unwrap()
            });
        });
        // `SELECT key, f FROM t GROUP BY key` as the planner writes it,
        // through `eval`: the whole read, scan to result.
        let mut catalog = Catalog::new();
        catalog.register("t", t);
        for (name, f) in [
            ("group_by_count", AggFunc::Count),
            ("group_by_avg", AggFunc::Avg(1)),
        ] {
            let e = Expr::base("t").aggregate([0], f).project([0, 2]);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    eval(black_box(&e), &catalog, Time::ZERO, &EvalOptions::default()).unwrap()
                });
            });
        }
    }
    g.finish();
}

fn bench_expire(c: &mut Criterion) {
    let mut g = c.benchmark_group("relation/expire");
    {
        let n = 10_000usize;
        let r = table(n, 5);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("snapshot_exp_tau", n), &n, |b, _| {
            b.iter(|| black_box(&r).exp(Time::new(500)));
        });
        g.bench_with_input(BenchmarkId::new("eager_expire", n), &n, |b, _| {
            b.iter_batched(
                || r.clone(),
                |mut rel| rel.expire(Time::new(500)),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_monotonic, bench_non_monotonic, bench_expire);
criterion_main!(benches);
