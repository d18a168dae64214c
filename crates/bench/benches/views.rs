//! Criterion benchmarks for materialised-view maintenance (experiments
//! E1/E2): the cost of reading a monotonic view (pure local expiry) vs a
//! non-monotonic view that recomputes, vs a Theorem 3 patched difference;
//! and ν-based aggregate metadata vs the per-tick oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exptime_bench::workload::{difference_pair, LifetimeDist, TableGen};
use exptime_core::aggregate::{self, AggFunc};
use exptime_core::algebra::{EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime_core::predicate::{CmpOp, Predicate};
use exptime_core::time::Time;
use exptime_literal::nu;
use std::hint::black_box;

fn catalog(rows: usize) -> Catalog {
    let (rg, sg) = difference_pair(
        rows,
        0.5,
        LifetimeDist::Uniform {
            min: 500,
            max: 1000,
        },
        LifetimeDist::Uniform { min: 1, max: 499 },
        21,
    );
    let mut c = Catalog::new();
    c.register("r", rg.to_relation());
    c.register("s", sg.to_relation());
    c
}

fn bench_view_read_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("views/read_sweep");
    g.sample_size(10);
    let rows = 2_000;
    let cat = catalog(rows);
    let cases: Vec<(&str, Expr, RefreshPolicy)> = vec![
        (
            "monotonic_select",
            Expr::base("r").select(Predicate::attr_cmp_const(1, CmpOp::Lt, 48)),
            RefreshPolicy::Recompute,
        ),
        (
            "difference_recompute",
            Expr::base("r").difference(Expr::base("s")),
            RefreshPolicy::Recompute,
        ),
        (
            "difference_patched",
            Expr::base("r").difference(Expr::base("s")),
            RefreshPolicy::Patch,
        ),
    ];
    for (name, expr, refresh) in cases {
        g.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
            b.iter(|| {
                let mut view = MaterializedView::new(
                    expr.clone(),
                    &cat,
                    Time::ZERO,
                    EvalOptions::default(),
                    refresh,
                    RemovalPolicy::Lazy,
                )
                .unwrap();
                // Read at 50 instants across the horizon.
                for step in 1..=50u64 {
                    black_box(view.read(&cat, Time::new(step * 20)).unwrap());
                }
                view.stats().recomputations
            });
        });
    }
    g.finish();
}

fn bench_materialize_cost(c: &mut Criterion) {
    // One-shot materialisation cost including texp/validity metadata.
    let mut g = c.benchmark_group("views/materialize");
    g.sample_size(20);
    for &rows in &[1_000usize, 5_000] {
        let cat = catalog(rows);
        let diff = Expr::base("r").difference(Expr::base("s"));
        g.bench_with_input(BenchmarkId::new("difference", rows), &rows, |b, _| {
            b.iter(|| {
                exptime_core::algebra::eval(&diff, &cat, Time::ZERO, &EvalOptions::default())
                    .unwrap()
            });
        });
        let agg = Expr::base("r").aggregate([0], AggFunc::Sum(1));
        g.bench_with_input(BenchmarkId::new("aggregate_sum", rows), &rows, |b, _| {
            b.iter(|| {
                exptime_core::algebra::eval(&agg, &cat, Time::ZERO, &EvalOptions::default())
                    .unwrap()
            });
        });
    }
    g.finish();
}

fn bench_nu(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregate/nu");
    let table = TableGen {
        rows: 2_000,
        keys: 50,
        values: 6,
        lifetimes: LifetimeDist::Uniform { min: 1, max: 500 },
        seed: 23,
        ..TableGen::default()
    }
    .generate()
    .to_relation();
    let parts = aggregate::partition(&table, &[0], Time::ZERO);
    let f = AggFunc::Sum(1);
    g.bench_function("sweep", |b| {
        b.iter(|| {
            for (_, p) in &parts {
                let mut apply = |rows: &[aggregate::Row]| f.apply(rows);
                black_box(nu::nu(Time::ZERO, p, &mut apply).unwrap());
            }
        });
    });
    g.sample_size(10);
    g.bench_function("per_tick_oracle", |b| {
        b.iter(|| {
            for (_, p) in &parts {
                let mut apply = |rows: &[aggregate::Row]| f.apply(rows);
                black_box(nu::nu_naive(Time::ZERO, p, &mut apply, Time::new(501)).unwrap());
            }
        });
    });
    g.bench_function("contributing_set", |b| {
        b.iter(|| {
            for (_, p) in &parts {
                black_box(aggregate::neutral::contributing_texp(p, f).unwrap());
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_view_read_sweep,
    bench_materialize_cost,
    bench_nu
);
criterion_main!(benches);
