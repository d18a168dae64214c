//! Latency statistics: a fixed-size log-linear histogram (so recording
//! allocates nothing and `peak_rss_mb` does not grow with the number of
//! operations a faster engine completes), exact medians for small probe
//! series, and the span self-time fold.

use std::collections::HashMap;

/// Sub-buckets per power of two: each bucket is at most 1/128 (0.8 %)
/// wide, and quantiles interpolate inside the bucket.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Values are nanoseconds; 2^42 ns is over an hour.
const MAX_EXP: u32 = 42;

/// Log-linear histogram of nanosecond durations.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (MAX_EXP - SUB_BITS + 1) as usize * SUB as usize],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let v = v.min((1u64 << MAX_EXP) - 1);
    let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let shift = exp - SUB_BITS;
    (((exp - SUB_BITS + 1) as u64) * SUB + ((v >> shift) - SUB)) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = (i / SUB - 1) as u32;
    let lo = (SUB + i % SUB) << shift;
    (lo, lo + (1u64 << shift))
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds, or `None` when fewer than ten
    /// samples lie beyond it on either side — a percentile the sample
    /// cannot support is refused, not estimated (p99 needs n >= 1000,
    /// p50 needs n >= 20).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.n as f64;
        if n * (1.0 - q) < 10.0 || n * q < 10.0 {
            return None;
        }
        let target = q * n;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if cum + c >= target {
                let (lo, hi) = bounds_of(i);
                return Some(lo as f64 + (hi - lo) as f64 * (target - cum) / c);
            }
            cum += c;
        }
        None
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Exact `q`-quantile of a small series (probe samples, kernel timings),
/// interpolated between neighbours; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let at = q * (values.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    match values.get(lo + 1) {
        Some(next) => values[lo] * (1.0 - frac) + next * frac,
        None => values[lo],
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One traced interval. Spans of one operation share `op_id`; `parent`
/// is 0 for a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval that its child spans cover (overlapping children are not
/// counted twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let mut end = 0;
                for &(a, b) in iv.iter() {
                    let a = a.max(end);
                    if b > a {
                        covered += b - a;
                        end = b;
                    }
                }
            }
            (s.id, s.duration() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut prev_hi = 0;
        for i in 0..Hist::default().counts.len() {
            let (lo, hi) = bounds_of(i);
            assert_eq!(lo, prev_hi, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            prev_hi = hi;
        }
    }

    #[test]
    fn quantiles_of_a_uniform_series_are_within_a_bucket_width() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "{p99}");
    }

    #[test]
    fn p99_refuses_fewer_than_a_thousand_samples() {
        let mut h = Hist::default();
        for v in 0..999 {
            h.record(1_000 + v);
        }
        assert!(h.p99().is_none());
        assert!(h.p50().is_some());
        h.record(5_000);
        assert!(h.p99().is_some());
    }

    #[test]
    fn p50_refuses_fewer_than_twenty_samples() {
        let mut h = Hist::default();
        for v in 0..19 {
            h.record(v);
        }
        assert!(h.p50().is_none());
    }

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&mut [5.0, 1.0, 2.0, 4.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 1.0), 2.0);
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),   // overlaps span 2: union is 10..50
            span(4, 1, 90, 120),  // clipped to the parent: 90..100
            span(5, 2, 12, 14),   // grandchild: only reduces span 2
            span(6, 99, 0, 1000), // parent not in the set: ignored
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 2);
    }
}
