//! Expiration-horizon forecasting: the telescope to the metrics plane's
//! rear-view mirror.
//!
//! The paper's central observation — a tuple's future visibility is a
//! pure function of its expiration time `texp` — means upcoming
//! expirations, vacuum storms, and view-refresh cascades are *computable
//! today*, not just observable after the fact. A [`HorizonForecast`] is
//! a log₂-bucketed histogram over expiration offsets: bucket `k` counts
//! tuples whose `texp` falls in `[now + 2^k, now + 2^(k+1))`. Summing
//! the buckets (plus the eternal count) reproduces the live-tuple count
//! exactly — the conservation law `tests/prop_forecast.rs` pins down.
//!
//! Storm detection divides each bucket's count by its width in ticks:
//! when that predicted expirations-per-tick rate exceeds a configured
//! threshold, [`HorizonForecast::storms`] reports the bucket and the
//! engine emits a `storm_warning` event — a warning about logical times
//! that have not happened yet.

/// Number of log₂ buckets; offsets are `u64` ticks, so 64 covers them all.
pub const FORECAST_BUCKETS: usize = 64;

/// One bucket flagged by storm detection: more predicted expirations per
/// tick than the configured threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormBucket {
    /// Bucket index `k` (offset window `[2^k, 2^(k+1))`).
    pub bucket: usize,
    /// Window start, ticks from the forecast instant (inclusive).
    pub lo: u64,
    /// Window end, ticks from the forecast instant (inclusive).
    pub hi: u64,
    /// Tuples predicted to expire inside the window.
    pub predicted: u64,
}

/// A bucketed histogram of future expirations, anchored at one logical
/// instant. See the module docs for bucket semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizonForecast {
    now: u64,
    buckets: [u64; FORECAST_BUCKETS],
    eternal: u64,
    /// The largest finite `texp − now` recorded (0 when none).
    latest: u64,
}

impl HorizonForecast {
    /// An empty forecast anchored at logical time `now`.
    #[must_use]
    pub fn new(now: u64) -> Self {
        HorizonForecast {
            now,
            buckets: [0; FORECAST_BUCKETS],
            eternal: 0,
            latest: 0,
        }
    }

    /// Builds a forecast from an iterator of expiration times, where
    /// `None` means eternal (`texp = ∞`). Already-dead entries
    /// (`texp <= now`) are ignored: they are not future workload.
    pub fn from_texps<I: IntoIterator<Item = Option<u64>>>(now: u64, texps: I) -> Self {
        let mut f = HorizonForecast::new(now);
        for texp in texps {
            match texp {
                Some(t) => f.record(t),
                None => f.record_eternal(),
            }
        }
        f
    }

    /// The logical instant the forecast is anchored at.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Records a finite expiration time. `texp <= now` is ignored.
    /// Inlined, with [`HorizonForecast::bucket_of`], into the walk that
    /// builds a forecast ([`HorizonForecast::from_texps`]), so the walk
    /// keeps `latest` in a register: called out of line, its load and
    /// store chain every row to the one before.
    #[inline]
    pub fn record(&mut self, texp: u64) {
        if texp > self.now {
            self.buckets[Self::bucket_of(texp - self.now)] += 1;
            self.latest = self.latest.max(texp - self.now);
        }
    }

    /// Records an eternal tuple (`texp = ∞`): live forever, never part
    /// of the expiring load curve.
    pub fn record_eternal(&mut self) {
        self.eternal += 1;
    }

    /// The bucket index for an expiration `delta >= 1` ticks away:
    /// `floor(log2 delta)`, so bucket `k` covers `[2^k, 2^(k+1))`.
    #[must_use]
    #[inline]
    pub fn bucket_of(delta: u64) -> usize {
        63 - delta.max(1).leading_zeros() as usize
    }

    /// Offset window `(lo, hi)` covered by bucket `k`, both inclusive,
    /// in ticks from the forecast instant.
    #[must_use]
    pub fn bucket_bounds(k: usize) -> (u64, u64) {
        let lo = 1u64 << k;
        let hi = if k >= 63 {
            u64::MAX
        } else {
            (1u64 << (k + 1)) - 1
        };
        (lo, hi)
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; FORECAST_BUCKETS] {
        &self.buckets
    }

    /// Tuples that never expire.
    #[must_use]
    pub fn eternal(&self) -> u64 {
        self.eternal
    }

    /// Ticks until the last finite expiration ahead: the largest
    /// `texp − now` recorded, 0 when nothing finite is ahead.
    #[must_use]
    pub fn latest(&self) -> u64 {
        self.latest
    }

    /// Tuples with a finite expiration ahead of them.
    #[must_use]
    pub fn expiring(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Every live tuple the forecast saw: expiring + eternal. Equals the
    /// store's live-tuple count when built from a full scan — the
    /// conservation law the property tests assert.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.expiring() + self.eternal
    }

    /// Coarse upper bound on tuples expiring within `ticks`: the sum of
    /// every bucket whose window *starts* at or before `ticks`. The last
    /// such bucket may extend past the deadline, so this over-counts by
    /// at most one bucket's width — the acceptance granularity.
    #[must_use]
    pub fn due_within(&self, ticks: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(k, _)| Self::bucket_bounds(*k).0 <= ticks)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Folds another forecast into this one. Both must be anchored at
    /// the same instant for the result to be meaningful; bucket-wise
    /// addition is performed regardless.
    pub fn merge(&mut self, other: &HorizonForecast) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.eternal += other.eternal;
        self.latest = self.latest.max(other.latest);
    }

    /// The bucket with the highest predicted expirations-per-tick rate,
    /// as `(bucket, count, floor(count / width))`. `None` when nothing
    /// finite is ahead.
    #[must_use]
    pub fn peak(&self) -> Option<(usize, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (k, n, n >> k))
            .max_by_key(|&(k, n, _)| (u128::from(n) << (63 - k), u64::MAX - k as u64))
    }

    /// Buckets whose predicted expirations-per-tick rate strictly
    /// exceeds `threshold`: `count / 2^k > threshold`, computed exactly
    /// in integers as `count > threshold * 2^k`.
    #[must_use]
    pub fn storms(&self, threshold: u64) -> Vec<StormBucket> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(k, &n)| u128::from(n) > u128::from(threshold) << k)
            .map(|(k, &n)| {
                let (lo, hi) = Self::bucket_bounds(k);
                StormBucket {
                    bucket: k,
                    lo,
                    hi,
                    predicted: n,
                }
            })
            .collect()
    }

    /// Renders the predicted load curve as an aligned bar chart, one
    /// line per non-empty bucket, bars scaled to the fullest bucket.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "horizon at t={}: {} expiring, {} eternal ({} live)",
            self.now,
            self.expiring(),
            self.eternal,
            self.total()
        );
        let max = self.buckets.iter().copied().max().unwrap_or(0);
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_bounds(k);
            let bar_len = (u128::from(n) * width.max(1) as u128).div_ceil(u128::from(max.max(1)));
            let bar = "#".repeat(bar_len as usize);
            let _ = writeln!(out, "  [+{lo:>6},+{hi:>6}] {n:>8}  {bar}");
        }
        if self.expiring() == 0 {
            let _ = writeln!(out, "  (no finite expirations ahead)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(HorizonForecast::bucket_of(1), 0);
        assert_eq!(HorizonForecast::bucket_of(2), 1);
        assert_eq!(HorizonForecast::bucket_of(3), 1);
        assert_eq!(HorizonForecast::bucket_of(4), 2);
        assert_eq!(HorizonForecast::bucket_of(7), 2);
        assert_eq!(HorizonForecast::bucket_of(8), 3);
        assert_eq!(HorizonForecast::bucket_of(u64::MAX), 63);
        assert_eq!(HorizonForecast::bucket_bounds(0), (1, 1));
        assert_eq!(HorizonForecast::bucket_bounds(3), (8, 15));
        assert_eq!(HorizonForecast::bucket_bounds(63), (1 << 63, u64::MAX));
    }

    #[test]
    fn records_conserve_counts_and_skip_the_dead() {
        let mut f = HorizonForecast::new(10);
        f.record(11); // +1  → bucket 0
        f.record(12); // +2  → bucket 1
        f.record(13); // +3  → bucket 1
        f.record(42); // +32 → bucket 5
        f.record(10); // dead: texp <= now
        f.record(3); // long dead
        f.record_eternal();
        assert_eq!(f.buckets()[0], 1);
        assert_eq!(f.buckets()[1], 2);
        assert_eq!(f.buckets()[5], 1);
        assert_eq!(f.expiring(), 4);
        assert_eq!(f.eternal(), 1);
        assert_eq!(f.total(), 5);
        assert_eq!(f.due_within(3), 3, "buckets 0 and 1 start within 3");
        assert_eq!(f.due_within(u64::MAX), 4);
    }

    #[test]
    fn latest_is_the_farthest_finite_offset_and_merges_by_max() {
        let mut a = HorizonForecast::from_texps(10, [Some(12), Some(30), Some(5), None]);
        assert_eq!(
            a.latest(),
            20,
            "the dead texp 5 and the eternal row do not count"
        );
        a.merge(&HorizonForecast::from_texps(10, [Some(11)]));
        assert_eq!(a.latest(), 20);
        a.merge(&HorizonForecast::from_texps(10, [Some(50)]));
        assert_eq!(a.latest(), 40);
        assert_eq!(HorizonForecast::from_texps(10, [None]).latest(), 0);
    }

    #[test]
    fn storms_fire_iff_rate_exceeds_threshold() {
        let mut f = HorizonForecast::new(0);
        // Bucket 2 (width 4): 9 tuples → rate 2.25/tick.
        for texp in [4, 4, 4, 5, 5, 6, 6, 7, 7] {
            f.record(texp);
        }
        // Bucket 0 (width 1): 2 tuples → rate 2/tick.
        f.record(1);
        f.record(1);
        let storms = f.storms(2);
        assert_eq!(storms.len(), 1, "only the >2/tick bucket storms");
        assert_eq!(storms[0].bucket, 2);
        assert_eq!(storms[0].lo, 4);
        assert_eq!(storms[0].hi, 7);
        assert_eq!(storms[0].predicted, 9);
        // At threshold 1, bucket 0 (rate 2 > 1) joins in.
        assert_eq!(f.storms(1).len(), 2);
        // At threshold 3 nothing exceeds.
        assert!(f.storms(3).is_empty());
        // Threshold 0 means "any expiring bucket at all".
        assert_eq!(f.storms(0).len(), 2);
    }

    #[test]
    fn merge_and_peak_and_render() {
        let mut a = HorizonForecast::from_texps(5, [Some(6), Some(7), None]);
        let b = HorizonForecast::from_texps(5, [Some(6), Some(100)]);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        let (bucket, count, rate) = a.peak().unwrap();
        assert_eq!(bucket, 0, "the two tuples one tick out dominate");
        assert_eq!(count, 2, "bucket 0 holds the two +1 offsets");
        assert_eq!(rate, 2);
        let rendered = a.render(20);
        assert!(
            rendered.contains("4 expiring, 1 eternal (5 live)"),
            "{rendered}"
        );
        assert!(rendered.contains("[+     1,+     1]"), "{rendered}");
        assert!(HorizonForecast::new(9).render(10).contains("no finite"));
    }
}
