//! Criterion micro-benchmarks for the algebra operators (Figures 2–3 at
//! scale): evaluation cost of each expiration-time operator as input size
//! grows, plus the expression-metadata (texp/validity) overhead of the
//! non-monotonic operators, and `GROUP BY`, `JOIN … ON` and `EXCEPT` as
//! SQL plans them through `eval`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exptime_bench::workload::{difference_pair, LifetimeDist, TableGen};
use exptime_core::aggregate::{AggFunc, AggMode};
use exptime_core::algebra::ops::{aggregate, join};
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::predicate::{CmpOp, Predicate};
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_literal::ops;
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
            b.iter(|| join(black_box(&r), &s, &p, Time::new(500)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
            b.iter(|| ops::join_nested_loop(black_box(&r), &s, &p, Time::new(500)).unwrap());
        });
    }
    g.finish();
}

/// The planner's shapes through `eval` over a `Catalog`, where a
/// `σ* Base` input is read from the lent rows instead of a built
/// relation: `JOIN … ON` (σ over ×) of 8 000 rows with 16, `EXCEPT` of two
/// single-column projections, `UNION` and `INTERSECT` of the two tables
/// (∪ keeps the left's rows and reads the right's into them; ∩ keeps
/// both, and the left probes the right's tuple index), and
/// `WHERE val >= 250 AND val < 750` over the 8 000 rows — a σ compiled
/// once for the scan, about a quarter of the rows kept (half are expired
/// at τ = 500), none of them hashed.
fn bench_eval_binary(c: &mut Criterion) {
    let gen = |rows, seed| TableGen {
        rows,
        keys: 200,
        values: 1000,
        lifetimes: LifetimeDist::Uniform { min: 1, max: 1000 },
        seed,
        ..TableGen::default()
    };
    let mut catalog = Catalog::new();
    catalog.register("l", gen(8_000, 6).generate().to_relation());
    catalog.register("r", gen(16, 7).generate().to_relation());
    let (l, r) = (Expr::base("l"), Expr::base("r"));
    let cases = [
        (
            "join_8000x16",
            l.clone()
                .product(r.clone())
                .select(Predicate::attr_eq_attr(0, 2)),
        ),
        (
            "project_difference",
            l.clone().project([0]).difference(r.clone().project([0])),
        ),
        ("union_8000_16", l.clone().union(r.clone())),
        ("intersect_8000_16", l.clone().intersect(r)),
        (
            "range_select_8000",
            l.select(
                Predicate::attr_cmp_const(1, CmpOp::Ge, 250).and(Predicate::attr_cmp_const(
                    1,
                    CmpOp::Lt,
                    750,
                )),
            ),
        ),
    ];
    let opts = EvalOptions::default();
    let mut g = c.benchmark_group("operators/eval");
    for (name, e) in &cases {
        g.bench_function(*name, |b| {
            b.iter(|| eval(black_box(e), &catalog, Time::new(500), &opts).unwrap());
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
                        aggregate(black_box(&t), &[0], AggFunc::Count, mode, Time::ZERO).unwrap()
                    });
                },
            );
        }
        // The metadata comes with the rows, from the one grouping.
        g.bench_with_input(BenchmarkId::new("aggregate_meta", n), &n, |b, _| {
            b.iter(|| {
                aggregate(
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

    // What `exp` no longer pays: its snapshot hashes nothing until the
    // first lookup builds the index.
    let mut g = c.benchmark_group("relation");
    {
        let n = 10_000usize;
        let r = table(n, 5);
        let probe = r.iter().last().expect("rows").0.clone();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("exp_then_lookup", n), &n, |b, _| {
            b.iter(|| black_box(&r).exp(Time::new(500)).texp(&probe));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_monotonic,
    bench_eval_binary,
    bench_non_monotonic,
    bench_expire
);
criterion_main!(benches);
