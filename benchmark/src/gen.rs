//! Seeded workload generators.
//!
//! Everything the program under test receives — SQL text, tuples, clock
//! advances — is produced here from `--seed` alone, by the harness's own
//! PRNG. Each generator carries the [`model`](crate::model) of the tables
//! it writes, picks its keys from that model, and stamps every operation
//! with what the model says it must return, so the same seed yields a
//! byte-identical operation stream whether or not an engine is attached.

use crate::model::{float_image, Digest, Expect, Policy, Table, NEVER};
use std::collections::BTreeMap;

/// splitmix64: small, seedable, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A deck with `count` copies of each item, shuffled: every round has
    /// exactly the same mix, only its order is random, so a run's cost
    /// does not depend on how often the dice chose the expensive shapes.
    pub fn deck<T: Copy>(&mut self, counts: &[(T, usize)]) -> Vec<T> {
        let mut deck: Vec<T> = counts
            .iter()
            .flat_map(|&(item, n)| std::iter::repeat_n(item, n))
            .collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, self.below(i as u64 + 1) as usize);
        }
        deck
    }
}

/// The end-to-end class an operation's latency is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Read,
    Write,
}

/// The statement shape; the traced run reports `core.eval_*` per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    Point,
    Range,
    Agg,
    Diff,
    Join,
    /// A materialised-view read; `sql` holds the view name.
    View,
    Count,
    Insert,
    Update,
    Delete,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: Kind,
    pub shape: Shape,
    pub sql: String,
    pub expect: Expect,
    /// The table and row an insert, touch or delete lands on, and the
    /// row's absolute expiration afterwards, so the traced run can feed the
    /// identical stream to its shadow table and shadow WAL.
    pub row: Option<(&'static str, Vec<i64>, u64)>,
}

impl Op {
    fn read(shape: Shape, sql: String, expect: Expect) -> Op {
        Op {
            kind: Kind::Read,
            shape,
            sql,
            expect,
            row: None,
        }
    }

    fn insert(table: &'static str, row: Vec<i64>, expires: Option<u64>, texp: u64) -> Op {
        let values = row
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let clause = expires.map_or(String::new(), |d| format!(" EXPIRES IN {d} TICKS"));
        Op {
            kind: Kind::Write,
            shape: Shape::Insert,
            sql: format!("INSERT INTO {table} VALUES ({values}){clause}"),
            expect: Expect::Affected(1),
            row: Some((table, row, texp)),
        }
    }
}

// ---------------------------------------------------------------------
// sensor_scan
// ---------------------------------------------------------------------

pub const SENSORS: i64 = 200;
const READINGS_PER_TICK: u64 = 20;
const READING_LIFETIME: (u64, u64) = (200, 600);
const ALERT_LIFETIME: (u64, u64) = (8, 24);
/// The issue's "a tick every 50 queries" halved, with the trickle and the
/// lifetimes rescaled to the same ≈8 000 live rows, so a 20 s run has
/// enough clock advances for their median.
pub const SENSOR_QUERIES_PER_TICK: u64 = 25;
const SENSOR_MIX: [(Shape, usize); 6] = [
    (Shape::Point, 10),
    (Shape::Range, 6),
    (Shape::Agg, 4),
    (Shape::Diff, 3),
    (Shape::Join, 1),
    (Shape::View, 1),
];
/// Ticks a range query spans (≈400 rows when the window is recent).
const RANGE_TICKS: u64 = 20;
/// Ticks of inserts that bring `readings` to its steady ≈8 000 live rows.
pub const SENSOR_WARMUP_TICKS: u64 = READING_LIFETIME.1;
/// One scan in this many is compared with the model (every point read is).
const SCAN_CHECK_EVERY: u64 = 50;
pub const SENSOR_VIEW: &str = "per_sensor";

pub const SENSOR_SCHEMA: [&str; 4] = [
    "CREATE TABLE readings (sensor INT, ts INT, val INT)",
    "CREATE TABLE sensors (sensor INT, site INT)",
    "CREATE TABLE alerts (sensor INT, level INT)",
    "CREATE MATERIALIZED VIEW per_sensor AS SELECT sensor, COUNT(*) FROM readings GROUP BY sensor",
];

/// A sensor window: staggered-lifetime readings, a trickle of inserts, and
/// an ad-hoc query mix over them.
#[derive(Debug, Clone)]
pub struct SensorGen {
    rng: Rng,
    pub now: u64,
    pub readings: Table,
    pub alerts: Table,
    scans: u64,
}

impl SensorGen {
    pub fn new(seed: u64) -> SensorGen {
        SensorGen {
            rng: Rng::new(seed ^ 0x5e45_0001),
            now: 0,
            readings: Table::default(),
            alerts: Table::default(),
            scans: 0,
        }
    }

    /// The eternal `sensors` dimension rows.
    pub fn load(&mut self) -> Vec<Op> {
        (0..SENSORS)
            .map(|s| Op::insert("sensors", vec![s, s % 10], None, NEVER))
            .collect()
    }

    /// Advances the model clock by one tick.
    pub fn tick(&mut self) {
        self.now += 1;
        self.readings.expire(self.now);
        self.alerts.expire(self.now);
    }

    /// This tick's trickle: 20 readings from distinct sensors and one alert.
    pub fn writes(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(READINGS_PER_TICK as usize + 1);
        let base = self.rng.below(SENSORS as u64) as i64;
        let stride = SENSORS / READINGS_PER_TICK as i64;
        for i in 0..READINGS_PER_TICK as i64 {
            let row = vec![
                (base + i * stride) % SENSORS,
                self.now as i64,
                self.rng.below(1000) as i64,
            ];
            let d = self.rng.range(READING_LIFETIME.0, READING_LIFETIME.1);
            let texp = self
                .readings
                .insert(self.now, row.clone(), Some(self.now + d));
            ops.push(Op::insert("readings", row, Some(d), texp));
        }
        // `ts` makes the alert row unique even when a sensor alerts twice.
        let row = vec![
            self.rng.below(SENSORS as u64) as i64,
            self.now as i64 * 4 + self.rng.below(4) as i64,
        ];
        let d = self.rng.range(ALERT_LIFETIME.0, ALERT_LIFETIME.1);
        let texp = self
            .alerts
            .insert(self.now, row.clone(), Some(self.now + d));
        ops.push(Op::insert("alerts", row, Some(d), texp));
        ops
    }

    /// Whether this scan is one of the sampled ones the model checks.
    fn check_scan(&mut self) -> bool {
        self.scans += 1;
        self.scans.is_multiple_of(SCAN_CHECK_EVERY)
    }

    fn per_sensor<T>(&self, f: impl Fn(&[i64]) -> T) -> BTreeMap<i64, Vec<T>> {
        let mut groups: BTreeMap<i64, Vec<T>> = BTreeMap::new();
        for r in self.readings.live(self.now) {
            groups.entry(r[0]).or_default().push(f(r));
        }
        groups
    }

    /// `sensor, COUNT(*)` per sensor — the view's and the count query's answer.
    fn counts(&self) -> Digest {
        let mut d = Digest::default();
        for (s, g) in self.per_sensor(|_| ()) {
            d.add_ints(&[s, g.len() as i64]);
        }
        d
    }

    /// What the model says `q` returns now.
    fn answer(&self, q: &Query) -> Digest {
        let now = self.now;
        match *q {
            Query::Point(s) => Digest::of_ints(self.readings.live(now).filter(|r| r[0] == s)),
            Query::Range(a, b) => {
                Digest::of_ints(self.readings.live(now).filter(|r| r[1] >= a && r[1] < b))
            }
            Query::Agg { avg: false } | Query::View => self.counts(),
            Query::Agg { avg: true } => {
                let mut d = Digest::default();
                for (s, vals) in self.per_sensor(|r| r[2]) {
                    let mean = vals.iter().sum::<i64>() as f64 / vals.len() as f64;
                    d.add_ints(&[s, float_image(mean)]);
                }
                d
            }
            Query::Diff => {
                let mut d = Digest::default();
                for s in self.per_sensor(|_| ()).keys() {
                    if !self.alerts.live(now).any(|a| a[0] == *s) {
                        d.add_ints(&[*s]);
                    }
                }
                d
            }
            Query::Join => {
                let mut d = Digest::default();
                for a in self.alerts.live(now) {
                    for r in self.readings.live(now).filter(|r| r[0] == a[0]) {
                        d.add_ints(&[r[0], r[1], r[2], a[0], a[1]]);
                    }
                }
                d
            }
        }
    }

    /// This tick's 25 queries: 10 point, 6 range, 4 group-by, 3 except,
    /// 1 join, 1 view read (the issue's weights 40/25/15/10/5/5 in whole
    /// queries), in random order. 80 % of point reads go to the hottest
    /// 20 % of the sensors. Every point read is checked, one scan in 50.
    pub fn queries(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(SENSOR_QUERIES_PER_TICK as usize);
        for shape in self.rng.deck(&SENSOR_MIX) {
            let q = match shape {
                Shape::Point => {
                    let hot = SENSORS as u64 / 5;
                    Query::Point(if self.rng.below(100) < 80 {
                        self.rng.below(hot)
                    } else {
                        hot + self.rng.below(SENSORS as u64 - hot)
                    } as i64)
                }
                Shape::Range => {
                    let back = self
                        .rng
                        .range(RANGE_TICKS, READING_LIFETIME.1.min(self.now));
                    let a = (self.now - back) as i64;
                    Query::Range(a, a + RANGE_TICKS as i64)
                }
                Shape::Agg => Query::Agg {
                    avg: self.rng.below(2) == 1,
                },
                Shape::Diff => Query::Diff,
                Shape::Join => Query::Join,
                _ => Query::View,
            };
            let checked = matches!(q, Query::Point(_)) || self.check_scan();
            let expect = if checked {
                Expect::Rows(self.answer(&q))
            } else {
                Expect::Unchecked
            };
            ops.push(Op::read(shape, q.sql(), expect));
        }
        ops
    }
}

/// One `sensor_scan` query with its parameters drawn.
enum Query {
    Point(i64),
    Range(i64, i64),
    Agg { avg: bool },
    Diff,
    Join,
    View,
}

impl Query {
    /// The statement text (for a view read, the view's name).
    fn sql(&self) -> String {
        match *self {
            Query::Point(s) => format!("SELECT * FROM readings WHERE sensor = {s}"),
            Query::Range(a, b) => format!("SELECT * FROM readings WHERE ts >= {a} AND ts < {b}"),
            Query::Agg { avg } => {
                let agg = if avg { "AVG(val)" } else { "COUNT(*)" };
                format!("SELECT sensor, {agg} FROM readings GROUP BY sensor")
            }
            Query::Diff => "SELECT sensor FROM readings EXCEPT SELECT sensor FROM alerts".into(),
            Query::Join => {
                "SELECT * FROM readings JOIN alerts ON readings.sensor = alerts.sensor".into()
            }
            Query::View => SENSOR_VIEW.into(),
        }
    }
}

// ---------------------------------------------------------------------
// churn_expiry
// ---------------------------------------------------------------------

pub const CHURN_INSERTS_PER_TICK: u64 = 1000;
pub const CHURN_MAX_LIFETIME: u64 = 64;
/// One point read every this many ticks: a read clones all 32 000 live
/// rows today, so more would make this a read workload.
const CHURN_POINT_EVERY: u64 = 32;
/// One `SELECT COUNT(*)` (≈8 point reads' time) every this many ticks.
const CHURN_COUNT_EVERY: u64 = 512;
pub const CHURN_SCHEMA: &str = "CREATE TABLE events (id INT, payload INT)";

/// Short-lived data: a thousand inserts per tick, each gone within 64 ticks.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    rng: Rng,
    pub now: u64,
    pub events: Table,
    next_id: i64,
}

impl ChurnGen {
    pub fn new(seed: u64) -> ChurnGen {
        ChurnGen {
            rng: Rng::new(seed ^ 0xc4a2_0002),
            now: 0,
            events: Table::default(),
            next_id: 0,
        }
    }

    pub fn tick(&mut self) {
        self.now += 1;
        self.events.expire(self.now);
    }

    /// This tick's inserts, and the checked reads that are due on it.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(CHURN_INSERTS_PER_TICK as usize + 1);
        for _ in 0..CHURN_INSERTS_PER_TICK {
            let row = vec![self.next_id, self.rng.below(1_000_000) as i64];
            self.next_id += 1;
            let d = self.rng.range(1, CHURN_MAX_LIFETIME);
            let texp = self
                .events
                .insert(self.now, row.clone(), Some(self.now + d));
            ops.push(Op::insert("events", row, Some(d), texp));
        }
        if self.now.is_multiple_of(CHURN_POINT_EVERY) {
            // A recent id: about half of them have expired by now.
            let recent = (CHURN_INSERTS_PER_TICK * CHURN_MAX_LIFETIME).min(self.next_id as u64);
            let id = self.next_id - 1 - self.rng.below(recent) as i64;
            let rows = &self.events.rows;
            let hit = rows.binary_search_by_key(&id, |(r, _)| r[0]).ok();
            let live = hit.map(|i| &rows[i]).filter(|(_, texp)| *texp > self.now);
            ops.push(Op::read(
                Shape::Point,
                format!("SELECT * FROM events WHERE id = {id}"),
                Expect::Rows(Digest::of_ints(live.map(|(r, _)| r).into_iter())),
            ));
        }
        if self.now.is_multiple_of(CHURN_COUNT_EVERY) {
            let mut d = Digest::default();
            d.add_ints(&[self.events.live(self.now).count() as i64]);
            ops.push(Op::read(
                Shape::Count,
                "SELECT COUNT(*) FROM events".to_string(),
                Expect::Rows(d),
            ));
        }
        ops
    }
}

// ---------------------------------------------------------------------
// session_wire
// ---------------------------------------------------------------------

/// 256 statements between clock advances: with `TTL 40` their 52 logins
/// hold ≈2 000 sessions live, and a run gets enough rounds — and so enough
/// clock advances — for their median.
pub const SESSION_STMTS_PER_ROUND: u64 = 256;
const SESSION_MIX: [(Shape, usize); 4] = [
    (Shape::Point, 180),
    (Shape::Insert, 52),
    (Shape::Update, 12),
    (Shape::Delete, 12),
];
pub const SESSION_POLICY: Policy = Policy {
    ttl: 40,
    clamp: (5, 400),
};
/// `ON MODIFY`, not the session store's usual `ON ACCESS`: `NetServer`
/// evaluates a SELECT through `Database::query_expr`, which skips the
/// access touch `Database::execute` applies, so under `ON ACCESS` the
/// answers would depend on which of the two behaviours the program has.
/// The model must not pin that; re-arming goes through `UPDATE` instead.
pub const SESSION_SCHEMA: &str =
    "CREATE TABLE sessions (sid INT, uid INT, v INT) TTL 40 SLIDING ON MODIFY CLAMP 5..400";
/// Ticks of in-process logins that stagger the initial sessions' lifetimes.
pub const SESSION_PREFILL_TICKS: u64 = 40;
const SESSION_PREFILL_PER_TICK: u64 = 50;

/// The one client's statements on a session store, and its model of it.
#[derive(Debug, Clone)]
pub struct SessionGen {
    rng: Rng,
    pub now: u64,
    pub sessions: Table,
    logins: i64,
}

impl SessionGen {
    pub fn new(seed: u64) -> SessionGen {
        SessionGen {
            rng: Rng::new(seed ^ 0x5e55_0003),
            now: 0,
            sessions: Table::with_policy(SESSION_POLICY),
            logins: 0,
        }
    }

    pub fn tick(&mut self) {
        self.now += 1;
        self.sessions.expire(self.now);
    }

    fn login(&mut self) -> Op {
        let sid = self.logins;
        self.logins += 1;
        let row = vec![sid, self.rng.below(500) as i64, self.rng.below(1000) as i64];
        let texp = self.sessions.insert(self.now, row.clone(), None);
        Op::insert("sessions", row, None, texp)
    }

    /// One prefill tick's logins (run in-process before the server binds).
    pub fn prefill(&mut self) -> Vec<Op> {
        (0..SESSION_PREFILL_PER_TICK)
            .map(|_| self.login())
            .collect()
    }

    /// A live session: 80 % of picks from the most recent fifth.
    fn pick(&mut self, skewed: bool) -> Option<Vec<i64>> {
        let n = self.sessions.rows.len() as u64;
        if n == 0 {
            return None;
        }
        let cold = n - n / 5;
        let i = if skewed && cold < n && self.rng.below(100) < 80 {
            cold + self.rng.below(n - cold)
        } else {
            self.rng.below(n)
        };
        Some(self.sessions.rows[i as usize].0.clone())
    }

    /// One round: 180 point reads, 52 logins, 12 re-arms and 12 logouts
    /// (70/20/5/5 % of 256) in random order.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(SESSION_STMTS_PER_ROUND as usize);
        for shape in self.rng.deck(&SESSION_MIX) {
            let target = match shape {
                Shape::Insert => None,
                _ => self.pick(shape == Shape::Point),
            };
            // With no session left to address, log one in instead.
            let Some(row) = target else {
                ops.push(self.login());
                continue;
            };
            let (now, sid) = (self.now, row[0]);
            let before = self.texp_of(sid);
            match shape {
                Shape::Update => self.sessions.touch(now, |r| r[0] == sid),
                Shape::Delete => {
                    self.sessions.delete(now, |r| r[0] == sid);
                }
                _ => {}
            }
            let after = self.texp_of(sid);
            let (kind, sql, expect) = match shape {
                Shape::Point => {
                    let mut d = Digest::default();
                    d.add_ints(&row);
                    let sql = format!("SELECT * FROM sessions WHERE sid = {sid}");
                    (Kind::Read, sql, Expect::Rows(d))
                }
                Shape::Update => {
                    // The engine counts a row only when its expiration moved.
                    let sql = format!("UPDATE sessions SET EXPIRES DEFAULT WHERE sid = {sid}");
                    (
                        Kind::Write,
                        sql,
                        Expect::Affected(u64::from(after != before)),
                    )
                }
                _ => {
                    let sql = format!("DELETE FROM sessions WHERE sid = {sid}");
                    (Kind::Write, sql, Expect::Affected(1))
                }
            };
            ops.push(Op {
                kind,
                shape,
                sql,
                expect,
                row: Some(("sessions", row, after.unwrap_or(0))),
            });
        }
        ops
    }

    fn texp_of(&self, sid: i64) -> Option<u64> {
        self.sessions
            .rows
            .iter()
            .find(|(r, _)| r[0] == sid)
            .map(|(_, e)| *e)
    }
}

// ---------------------------------------------------------------------
// view_replica
// ---------------------------------------------------------------------

pub const REPLICA_R_ROWS: u64 = 2500;
pub const REPLICA_S_ROWS: u64 = 1500;
/// Every row of an epoch expires within this many ticks of its load.
pub const REPLICA_HORIZON: u64 = 256;
pub const REPLICA_GROUPS: u64 = 50;
pub const REPLICA_SCHEMA: [&str; 2] = [
    "CREATE TABLE r (k INT, a INT)",
    "CREATE TABLE s (k INT, b INT)",
];

/// The base data of the replica epochs.
#[derive(Debug, Clone)]
pub struct ReplicaGen {
    seed: u64,
    next_key: i64,
}

impl ReplicaGen {
    pub fn new(seed: u64) -> ReplicaGen {
        ReplicaGen { seed, next_key: 0 }
    }

    /// The inserts that load `r` and `s` at time `now`: fresh keys, with
    /// every `s` key also in `r` so the join and the difference are both
    /// non-trivial, and lifetimes uniform over the horizon. Every epoch
    /// draws the same values (only the keys move on), so per-epoch counts
    /// repeat exactly however many epochs a run completes.
    pub fn load(&mut self, now: u64) -> Vec<Op> {
        let mut rng = Rng::new(self.seed ^ 0x7e71_0004);
        let mut ops = Vec::with_capacity((REPLICA_R_ROWS + REPLICA_S_ROWS) as usize);
        let first = self.next_key;
        self.next_key += REPLICA_R_ROWS as i64;
        for k in first..self.next_key {
            let row = vec![k, rng.below(REPLICA_GROUPS) as i64];
            let d = rng.range(1, REPLICA_HORIZON);
            ops.push(Op::insert("r", row, Some(d), now + d));
        }
        // A walk over r's keys by a stride coprime to their number picks
        // distinct ones.
        let stride = 7;
        let offset = rng.below(REPLICA_R_ROWS) as i64;
        for i in 0..REPLICA_S_ROWS as i64 {
            let k = first + (offset + i * stride) % REPLICA_R_ROWS as i64;
            let row = vec![k, rng.below(100) as i64];
            let d = rng.range(1, REPLICA_HORIZON);
            ops.push(Op::insert("s", row, Some(d), now + d));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the generated operations: the fingerprint the determinism
    /// test compares.
    fn stream_hash<'a>(ops: impl Iterator<Item = &'a Op>) -> u64 {
        use std::hash::{Hash, Hasher};
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for b in bytes {
                    self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for op in ops {
            op.hash(&mut h);
        }
        h.finish()
    }

    /// A few rounds of every workload's stream for one seed.
    fn fingerprints(seed: u64) -> [u64; 4] {
        let mut sensor = SensorGen::new(seed);
        let mut ops = sensor.load();
        for t in 0..RANGE_TICKS + 12 {
            sensor.tick();
            ops.extend(sensor.writes());
            // A range query looks back at least `RANGE_TICKS`.
            if t >= RANGE_TICKS {
                ops.extend(sensor.queries());
            }
        }
        let sensor_hash = stream_hash(ops.iter());

        let mut churn = ChurnGen::new(seed);
        let mut ops = Vec::new();
        for _ in 0..40 {
            ops.extend(churn.round());
            churn.tick();
        }
        let churn_hash = stream_hash(ops.iter());

        let mut session = SessionGen::new(seed);
        let mut ops = Vec::new();
        for _ in 0..8 {
            ops.extend(session.prefill());
            session.tick();
        }
        for _ in 0..8 {
            ops.extend(session.round());
            session.tick();
        }
        let session_hash = stream_hash(ops.iter());

        let mut replica = ReplicaGen::new(seed);
        let mut ops = replica.load(0);
        ops.extend(replica.load(REPLICA_HORIZON));
        [
            sensor_hash,
            churn_hash,
            session_hash,
            stream_hash(ops.iter()),
        ]
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = fingerprints(1);
        assert_eq!(a, fingerprints(1));
        let b = fingerprints(2);
        for (workload, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "workload {workload} ignores its seed");
        }
    }

    #[test]
    fn rng_below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert!((0..1000).all(|_| (5..=9).contains(&rng.range(5, 9))));
    }

    #[test]
    fn sensor_window_reaches_its_steady_size() {
        let mut g = SensorGen::new(3);
        for _ in 0..SENSOR_WARMUP_TICKS + 50 {
            g.tick();
            g.writes();
        }
        let live = g.readings.live(g.now).count();
        assert!((7000..9000).contains(&live), "{live} live readings");
        let alerts = g.alerts.live(g.now).count();
        assert!((8..=24).contains(&alerts), "{alerts} live alerts");
    }

    #[test]
    fn replica_load_has_distinct_keys_and_s_inside_r() {
        let ops = ReplicaGen::new(5).load(0);
        let keys = |t: &str| -> std::collections::BTreeSet<i64> {
            ops.iter()
                .filter_map(|o| o.row.as_ref())
                .filter(|(table, ..)| *table == t)
                .map(|(_, row, _)| row[0])
                .collect()
        };
        let (r, s) = (keys("r"), keys("s"));
        assert_eq!(r.len() as u64, REPLICA_R_ROWS);
        assert_eq!(s.len() as u64, REPLICA_S_ROWS);
        assert!(s.is_subset(&r));
    }
}
