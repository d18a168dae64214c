//! A zero-dependency, in-tree stand-in for the subset of the `criterion`
//! benchmarking API this workspace's `benches/` use, so `cargo bench`
//! works fully offline.
//!
//! It is a wall-clock harness, not a statistics engine: each benchmark is
//! warmed up, calibrated to a small time budget, measured with
//! `std::time::Instant`, and reported as `ns/iter` (plus element
//! throughput when configured). There are no plots, baselines, or
//! significance tests — the numbers are for eyeballing relative cost,
//! which is all this repository needs (the gated trajectory is
//! `benchmark/`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Per-measurement time budget. Small on purpose: the bench suites cover
/// dozens of (group, size) points and must finish in CI time.
const MEASURE_BUDGET: Duration = Duration::from_millis(40);
const WARMUP_BUDGET: Duration = Duration::from_millis(8);

/// How work amounts are expressed for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Batch sizing hints for [`Bencher::iter_batched`]; the shim treats them
/// all as "one setup per timed call".
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// A `function_name/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            full: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.full)
    }
}

/// The timing context handed to benchmark closures.
pub struct Bencher {
    result: Option<(u64, Duration)>,
}

impl Bencher {
    /// Times `routine`, amortised over a calibrated iteration count.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm up and estimate per-iteration cost.
        let mut iters: u64 = 1;
        let per_iter: Duration = loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= WARMUP_BUDGET || iters >= 1 << 20 {
                break elapsed / (iters as u32).max(1);
            }
            iters *= 4;
        };
        // Measure for the budget.
        let n = if per_iter.is_zero() {
            1 << 20
        } else {
            (MEASURE_BUDGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64
        };
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(routine());
        }
        self.result = Some((n, start.elapsed()));
    }

    /// Times `routine` on fresh inputs from `setup`; only `routine` is
    /// inside the timed region.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        // Calibrate on one throwaway batch.
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        let per_iter = t0.elapsed();
        let n = if per_iter.is_zero() {
            4096
        } else {
            (MEASURE_BUDGET.as_nanos() / per_iter.as_nanos()).clamp(1, 1 << 16) as u64
        };
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.result = Some((n, total));
    }
}

/// A named cluster of related measurements.
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; the shim sizes runs by time budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(&self.name, &id.to_string(), self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&self.name, &id.full, self.throughput, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// The top-level benchmark driver (constructed by `criterion_main!`).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
        }
    }

    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one("", &id.to_string(), None, f);
        self
    }
}

fn run_one(group: &str, id: &str, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher { result: None };
    f(&mut b);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    match b.result {
        Some((iters, total)) => {
            let ns = total.as_nanos() as f64 / iters as f64;
            let rate = match throughput {
                Some(Throughput::Elements(n)) if ns > 0.0 => {
                    format!("  ({:.2} Melem/s)", n as f64 / ns * 1e3)
                }
                Some(Throughput::Bytes(n)) if ns > 0.0 => {
                    format!(
                        "  ({:.2} MiB/s)",
                        n as f64 / ns * 1e9 / (1 << 20) as f64 / 1e6
                    )
                }
                _ => String::new(),
            };
            println!("bench {label:<44} {ns:>14.1} ns/iter  [{iters} iters]{rate}");
        }
        None => println!("bench {label:<44} (no measurement recorded)"),
    }
}

/// Declares a benchmark group function that runs each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main()` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
