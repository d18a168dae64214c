//! Workload generators for the experiments.
//!
//! The paper has no empirical section, so the experiments synthesise the
//! workloads its motivation describes: session stores, sensor/monitoring
//! feeds, and profile tables with skewed lifetimes. All generators are
//! seeded and deterministic.

use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_core::value::{Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of tuple lifetimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeDist {
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum lifetime (ticks).
        min: u64,
        /// Maximum lifetime (ticks).
        max: u64,
    },
    /// Geometric-ish heavy tail: most tuples short-lived, a few very
    /// long-lived (Web sessions, cache entries).
    HeavyTail {
        /// Median-ish base lifetime.
        base: u64,
        /// Tail exponent knob: larger → heavier tail.
        spread: u32,
    },
    /// Every tuple gets exactly this lifetime (time-sliced relations; the
    /// paper notes relations whose tuples share one expiration time never
    /// invalidate expressions).
    Fixed(u64),
}

impl LifetimeDist {
    /// Samples a lifetime.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LifetimeDist::Uniform { min, max } => rng.gen_range(min..=max),
            LifetimeDist::HeavyTail { base, spread } => {
                let mut life = base.max(1);
                for _ in 0..spread {
                    if rng.gen_bool(0.5) {
                        break;
                    }
                    life = life.saturating_mul(2);
                }
                rng.gen_range(1..=life)
            }
            LifetimeDist::Fixed(l) => l,
        }
    }
}

/// Zipf-like sampler over `0..n` (rank-based, exponent `s`), used for
/// skewed key/group popularity.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s` (`s = 0` is
    /// uniform; `s ≈ 1` is classic Zipf).
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A generated workload table: `(key, payload)` rows with expiration
/// times.
#[derive(Debug, Clone)]
pub struct GenTable {
    /// The rows as `(tuple, texp)`.
    pub rows: Vec<(Tuple, Time)>,
    /// The schema: `(key INT, val INT)`.
    pub schema: Schema,
}

impl GenTable {
    /// Materialises into an algebra relation (duplicates keep max texp).
    #[must_use]
    pub fn to_relation(&self) -> Relation {
        Relation::from_rows(self.schema.clone(), self.rows.iter().cloned())
            .expect("generated rows are schema-valid")
    }
}

/// Configuration for a generated table.
#[derive(Debug, Clone)]
pub struct TableGen {
    /// Number of rows.
    pub rows: usize,
    /// Number of distinct keys (grouping attribute values).
    pub keys: usize,
    /// Key skew (`0.0` uniform).
    pub key_skew: f64,
    /// Number of distinct payload values.
    pub values: usize,
    /// Lifetime distribution; lifetimes are added to `born_at`.
    pub lifetimes: LifetimeDist,
    /// Birth time of all rows.
    pub born_at: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TableGen {
    fn default() -> Self {
        TableGen {
            rows: 1000,
            keys: 100,
            key_skew: 0.0,
            values: 1000,
            lifetimes: LifetimeDist::Uniform { min: 1, max: 100 },
            born_at: 0,
            seed: 42,
        }
    }
}

impl TableGen {
    /// Generates the table.
    #[must_use]
    pub fn generate(&self) -> GenTable {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.keys, self.key_skew);
        let schema = Schema::of(&[("key", ValueType::Int), ("val", ValueType::Int)]);
        let mut rows = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            let key = zipf.sample(&mut rng) as i64;
            let val = rng.gen_range(0..self.values) as i64;
            let life = self.lifetimes.sample(&mut rng).max(1);
            rows.push((
                Tuple::new(vec![Value::Int(key), Value::Int(val)]),
                Time::new(self.born_at + life),
            ));
        }
        GenTable { rows, schema }
    }
}

/// Two overlap-controlled tables for difference experiments: `R − S`
/// where a fraction `overlap` of `R`'s tuples also appear in `S`.
/// Critical-tuple density is then governed by the lifetime distributions.
#[must_use]
pub fn difference_pair(
    rows: usize,
    overlap: f64,
    r_life: LifetimeDist,
    s_life: LifetimeDist,
    seed: u64,
) -> (GenTable, GenTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::of(&[("key", ValueType::Int), ("val", ValueType::Int)]);
    let mut r_rows = Vec::with_capacity(rows);
    let mut s_rows = Vec::with_capacity(rows);
    for i in 0..rows {
        let tuple = Tuple::new(vec![Value::Int(i as i64), Value::Int((i % 97) as i64)]);
        let rl = r_life.sample(&mut rng).max(1);
        r_rows.push((tuple.clone(), Time::new(rl)));
        if rng.gen_bool(overlap) {
            let sl = s_life.sample(&mut rng).max(1);
            s_rows.push((tuple, Time::new(sl)));
        } else {
            // Disjoint filler tuple so |S| stays comparable.
            let filler = Tuple::new(vec![
                Value::Int((rows + i) as i64),
                Value::Int((i % 97) as i64),
            ]);
            let sl = s_life.sample(&mut rng).max(1);
            s_rows.push((filler, Time::new(sl)));
        }
    }
    (
        GenTable {
            rows: r_rows,
            schema: schema.clone(),
        },
        GenTable {
            rows: s_rows,
            schema,
        },
    )
}

/// A session-store event stream: `(time, session_id, ttl)` arrivals, the
/// paper's HTTP-session motivation. Sessions renew (re-insert with a new
/// TTL) with probability `renew_prob` at each of up to `max_renewals`
/// renewal points.
#[derive(Debug, Clone)]
pub struct SessionStream {
    /// Arrival events `(arrival time, session id, ttl)`, time-ordered.
    pub events: Vec<(u64, i64, u64)>,
    /// The horizon (last event time + max ttl).
    pub horizon: u64,
}

/// Generates a session stream.
#[must_use]
pub fn session_stream(
    sessions: usize,
    arrival_every: u64,
    ttl: u64,
    renew_prob: f64,
    max_renewals: u32,
    seed: u64,
) -> SessionStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut horizon = 0;
    for s in 0..sessions {
        let mut t = s as u64 * arrival_every;
        events.push((t, s as i64, ttl));
        for _ in 0..max_renewals {
            if !rng.gen_bool(renew_prob) {
                break;
            }
            // Renewal happens somewhere within the current ttl window.
            t += rng.gen_range(1..=ttl);
            events.push((t, s as i64, ttl));
        }
        horizon = horizon.max(t + ttl);
    }
    events.sort_unstable();
    SessionStream { events, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_gen_is_deterministic() {
        let a = TableGen::default().generate();
        let b = TableGen::default().generate();
        assert_eq!(a.rows, b.rows);
        let c = TableGen {
            seed: 7,
            ..TableGen::default()
        }
        .generate();
        assert_ne!(a.rows, c.rows);
    }

    #[test]
    fn lifetimes_respect_bounds() {
        let g = TableGen {
            lifetimes: LifetimeDist::Uniform { min: 5, max: 9 },
            born_at: 100,
            ..TableGen::default()
        }
        .generate();
        for (_, e) in &g.rows {
            let e = e.finite().unwrap();
            assert!((105..=109).contains(&e), "{e}");
        }
        let f = TableGen {
            lifetimes: LifetimeDist::Fixed(7),
            ..TableGen::default()
        }
        .generate();
        assert!(f.rows.iter().all(|(_, e)| *e == Time::new(7)));
    }

    #[test]
    fn heavy_tail_produces_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = LifetimeDist::HeavyTail {
            base: 10,
            spread: 6,
        };
        let samples: Vec<u64> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        assert!(max > 100, "tail reaches far: {max}");
        assert!(min >= 1);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = Zipf::new(100, 1.2);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[50] * 5,
            "{} vs {}",
            counts[0],
            counts[50]
        );
        // Uniform when s = 0.
        let u = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[u.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "{counts:?}");
    }

    #[test]
    fn difference_pair_controls_overlap() {
        let (r, s) = difference_pair(
            1000,
            0.3,
            LifetimeDist::Fixed(100),
            LifetimeDist::Fixed(50),
            9,
        );
        let rr = r.to_relation();
        let sr = s.to_relation();
        let shared = rr.iter().filter(|(t, _)| sr.contains(t)).count();
        assert!((200..400).contains(&shared), "≈30% overlap, got {shared}");
        // With r_life > s_life, every shared tuple is critical.
        let crit = exptime_literal::ops::critical_tuples(&rr, &sr, Time::ZERO);
        assert_eq!(crit.len(), shared);
    }

    #[test]
    fn session_stream_orders_events() {
        let s = session_stream(50, 3, 30, 0.5, 4, 11);
        assert!(s.events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s.events.len() >= 50);
        assert!(s.horizon >= s.events.last().unwrap().0);
    }

    #[test]
    fn to_relation_dedups_with_max() {
        let g = GenTable {
            rows: vec![
                (Tuple::new(vec![Value::Int(1), Value::Int(2)]), Time::new(5)),
                (Tuple::new(vec![Value::Int(1), Value::Int(2)]), Time::new(9)),
            ],
            schema: Schema::of(&[("key", ValueType::Int), ("val", ValueType::Int)]),
        };
        let r = g.to_relation();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.texp(&Tuple::new(vec![Value::Int(1), Value::Int(2)])),
            Some(Time::new(9))
        );
    }
}
