//! The harness's own model of the database, and the reply checker.
//!
//! What a read returns at time `now` is a pure function of the rows'
//! expiration times and `now` (snapshot reducibility), so the model is a
//! list of `(row, texp)` per table, advanced with the same clock as the
//! engine. It is deliberately naive — every read is a linear scan — and
//! shares no code with the program under test.

use exptime_core::relation::Relation;
use exptime_core::value::Value;
use exptime_net::ReplyBody;

/// `texp` of a row that never expires.
pub const NEVER: u64 = u64::MAX;

/// A table's TTL policy, as the SQL `TTL n SLIDING ON MODIFY CLAMP a..b`
/// clause states it.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub ttl: u64,
    pub clamp: (u64, u64),
}

impl Policy {
    /// The expiration a write gets: the request (or `now + ttl`), with
    /// the relative lifetime clamped.
    fn write_target(&self, now: u64, requested: Option<u64>) -> u64 {
        let base = requested.unwrap_or(now + self.ttl);
        now + base.saturating_sub(now).clamp(self.clamp.0, self.clamp.1)
    }
}

/// One model table: every column is an integer.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub rows: Vec<(Vec<i64>, u64)>,
    pub policy: Option<Policy>,
}

impl Table {
    pub fn with_policy(policy: Policy) -> Table {
        Table {
            rows: Vec::new(),
            policy: Some(policy),
        }
    }

    /// Rows visible at `now`.
    pub fn live(&self, now: u64) -> impl Iterator<Item = &Vec<i64>> + '_ {
        self.rows
            .iter()
            .filter(move |(_, texp)| *texp > now)
            .map(|(r, _)| r)
    }

    /// Inserts a row the generator guarantees to be new; returns the
    /// effective expiration. `requested` is absolute; `None` defers to
    /// the policy (or `NEVER` without one).
    pub fn insert(&mut self, now: u64, row: Vec<i64>, requested: Option<u64>) -> u64 {
        let texp = match self.policy {
            Some(p) => p.write_target(now, requested),
            None => requested.unwrap_or(NEVER),
        };
        self.rows.push((row, texp));
        texp
    }

    /// A modify touch (`SET EXPIRES DEFAULT`) of every live row matching
    /// `pred`: the expiration moves to the policy default when that is
    /// later, never earlier. Without a policy nothing slides.
    pub fn touch(&mut self, now: u64, pred: impl Fn(&[i64]) -> bool) {
        let Some(p) = self.policy else {
            return;
        };
        let target = p.write_target(now, None);
        for (r, e) in &mut self.rows {
            if *e > now && pred(r) {
                *e = (*e).max(target);
            }
        }
    }

    /// Deletes the live rows matching `pred`; returns how many.
    pub fn delete(&mut self, now: u64, pred: impl Fn(&[i64]) -> bool) -> usize {
        let before = self.rows.len();
        self.rows.retain(|(r, e)| !(*e > now && pred(r)));
        before - self.rows.len()
    }

    /// Drops rows that are no longer visible at `now`.
    pub fn expire(&mut self, now: u64) {
        self.rows.retain(|(_, e)| *e > now);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Row count plus an order-independent checksum of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    /// Adds one row given as 64-bit column images.
    pub fn add(&mut self, cols: impl Iterator<Item = u64>) {
        let h = cols.fold(0x9e37_79b9_7f4a_7c15, |h, c| mix(h ^ c));
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn add_ints(&mut self, row: &[i64]) {
        self.add(row.iter().map(|&v| v as u64));
    }

    pub fn of_ints<'a>(rows: impl Iterator<Item = &'a Vec<i64>>) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add_ints(r);
        }
        d
    }
}

fn image(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.get().to_bits(),
        Value::Bool(b) => u64::from(*b),
        Value::Str(s) => s.bytes().fold(0, |h, b| mix(h ^ u64::from(b))),
    }
}

/// An `AVG` as the model images it: the same bits as `Value::Float`.
pub fn float_image(v: f64) -> i64 {
    v.to_bits() as i64
}

pub fn digest_relation(rel: &Relation) -> Digest {
    let mut d = Digest::default();
    for (t, _) in rel.iter() {
        d.add(t.values().iter().map(image));
    }
    d
}

/// What the model says a statement must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expect {
    /// Not compared (an unsampled scan).
    Unchecked,
    /// A query result: row count and checksum.
    Rows(Digest),
    /// A DML statement's affected-row count.
    Affected(u64),
}

impl Expect {
    /// Whether an embedded result agrees with the model.
    pub fn holds_for(&self, result: &exptime_engine::ExecResult) -> bool {
        match self {
            Expect::Unchecked => true,
            Expect::Rows(d) => result.rows().is_some_and(|r| digest_relation(r) == *d),
            Expect::Affected(n) => result.affected() == Some(*n as usize),
        }
    }

    /// Whether a wire reply agrees with the model.
    pub fn holds_for_reply(&self, reply: &ReplyBody) -> bool {
        match (self, reply) {
            (Expect::Unchecked, _) => true,
            (Expect::Rows(want), ReplyBody::Rows { rows, .. }) => {
                let mut d = Digest::default();
                for (values, _) in rows {
                    d.add(values.iter().map(image));
                }
                d == *want
            }
            (Expect::Affected(n), ReplyBody::Affected(got)) => got == n,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSIONS: Policy = Policy {
        ttl: 40,
        clamp: (5, 400),
    };

    #[test]
    fn visibility_is_a_function_of_texp_and_now() {
        let mut t = Table::default();
        t.insert(0, vec![1, 10], Some(5));
        t.insert(0, vec![2, 20], None);
        assert_eq!(t.live(4).count(), 2);
        assert_eq!(t.live(5).count(), 1, "texp == now is already invisible");
        t.expire(5);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn policy_defaults_clamps_and_slides() {
        let mut t = Table::with_policy(SESSIONS);
        assert_eq!(t.insert(10, vec![1], None), 50, "default ttl");
        assert_eq!(t.insert(10, vec![2], Some(12)), 15, "raised to clamp min");
        assert_eq!(t.insert(10, vec![3], Some(5000)), 410, "cut to clamp max");
        t.touch(30, |r| r[0] == 1);
        assert_eq!(t.rows[0].1, 70, "slid to now + ttl");
        t.touch(31, |r| r[0] == 3);
        assert_eq!(t.rows[2].1, 410, "a touch never shortens a lifetime");
        assert_eq!(t.delete(31, |r| r[0] == 2), 0, "row 2 expired at 15");
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = [vec![1, 2], vec![3, 4]];
        let b = [vec![3, 4], vec![1, 2]];
        let c = [vec![1, 2], vec![3, 5]];
        assert_eq!(Digest::of_ints(a.iter()), Digest::of_ints(b.iter()));
        assert_ne!(Digest::of_ints(a.iter()), Digest::of_ints(c.iter()));
    }
}
