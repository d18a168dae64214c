//! The time domain of the expiration-time data model.
//!
//! The paper (Section 2.2) works over a totally ordered time domain that
//! includes the symbol `∞` ("infinity"), which is larger than any other time
//! value, and identifies finite times with the non-negative integers. A tuple
//! whose expiration time is `∞` never expires, and every algebra operator is
//! defined so that a database in which all tuples carry `∞` behaves exactly
//! like a textbook SPCU database.
//!
//! [`Time`] is a logical timestamp: the library never consults a wall clock.
//! Every operation that depends on "now" takes an explicit `τ: Time`
//! argument, which is what makes the paper's Theorems 1 and 2 directly
//! testable (evaluate at `τ`, expire forward to `τ′`, compare with a fresh
//! evaluation at `τ′`).

use std::fmt;
use std::ops::{Add, Sub};

/// A logical timestamp: a non-negative integer or `∞`.
///
/// Internally `∞` is represented as `u64::MAX`; finite timestamps must be
/// strictly smaller. The representation is an implementation detail —
/// construct values through [`Time::new`], [`Time::INFINITY`], or the
/// `From<u64>` impl, and inspect them through [`Time::is_infinite`] /
/// [`Time::finite`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The smallest timestamp, the origin of every example in the paper.
    pub const ZERO: Time = Time(0);

    /// The symbol `∞`: larger than every finite time. Used for tuples with
    /// no expiration time (paper, Section 2.2).
    pub const INFINITY: Time = Time(u64::MAX);

    /// The largest *finite* timestamp.
    pub const MAX_FINITE: Time = Time(u64::MAX - 1);

    /// Creates a finite timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `t == u64::MAX`, which is reserved for `∞`; use
    /// [`Time::INFINITY`] to express "never expires".
    #[inline]
    #[must_use]
    pub fn new(t: u64) -> Self {
        assert_ne!(t, u64::MAX, "u64::MAX is reserved for Time::INFINITY");
        Time(t)
    }

    /// Returns `true` iff this is the `∞` symbol.
    #[inline]
    #[must_use]
    pub fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Returns `true` iff this is a finite timestamp.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        !self.is_infinite()
    }

    /// Returns the finite value, or `None` for `∞`.
    #[inline]
    #[must_use]
    pub fn finite(self) -> Option<u64> {
        if self.is_infinite() {
            None
        } else {
            Some(self.0)
        }
    }

    /// The next instant. `∞` is absorbing: `∞ + 1 = ∞`.
    ///
    /// The paper's predicate `χ(τ, P, f)` compares aggregate values at `τ`
    /// and `τ + 1`; this is the successor it uses.
    #[inline]
    #[must_use]
    pub fn succ(self) -> Self {
        if self.is_infinite() {
            self
        } else {
            Time(self.0 + 1)
        }
    }

    /// The previous instant, saturating at zero. `∞` has no predecessor and
    /// is returned unchanged.
    #[inline]
    #[must_use]
    pub fn pred(self) -> Self {
        if self.is_infinite() {
            self
        } else {
            Time(self.0.saturating_sub(1))
        }
    }

    /// Saturating addition of a finite delta; `∞` is absorbing.
    #[inline]
    #[must_use]
    pub fn saturating_add(self, delta: u64) -> Self {
        if self.is_infinite() {
            self
        } else {
            Time(self.0.saturating_add(delta).min(u64::MAX - 1))
        }
    }

    /// The `max` function of arbitrary arity from the paper, over an
    /// iterator. Returns `None` on an empty iterator (the paper only applies
    /// `max` to non-empty sets; callers decide how to handle `∅`).
    #[must_use]
    pub fn max_of<I: IntoIterator<Item = Time>>(times: I) -> Option<Time> {
        times.into_iter().max()
    }

    /// The `min` function of arbitrary arity from the paper, over an
    /// iterator. Returns `None` on an empty iterator.
    #[must_use]
    pub fn min_of<I: IntoIterator<Item = Time>>(times: I) -> Option<Time> {
        times.into_iter().min()
    }
}

impl From<u64> for Time {
    fn from(t: u64) -> Self {
        Time::new(t)
    }
}

impl Add<u64> for Time {
    type Output = Time;

    /// `t + delta`; `∞` is absorbing.
    ///
    /// # Panics
    ///
    /// Panics on finite overflow past [`Time::MAX_FINITE`].
    fn add(self, delta: u64) -> Time {
        if self.is_infinite() {
            self
        } else {
            let v = self.0.checked_add(delta).expect("Time overflow");
            assert_ne!(v, u64::MAX, "Time overflow into INFINITY");
            Time(v)
        }
    }
}

impl Sub<u64> for Time {
    type Output = Time;

    /// `t - delta`; `∞` is absorbing.
    ///
    /// # Panics
    ///
    /// Panics on finite underflow.
    fn sub(self, delta: u64) -> Time {
        if self.is_infinite() {
            self
        } else {
            Time(self.0.checked_sub(delta).expect("Time underflow"))
        }
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A monotone logical clock handing out the current time `τ`.
///
/// The engine layer uses one `Clock` per database so that inserts, queries,
/// and expiration processing observe a consistent, never-decreasing notion
/// of "now". Ticking is explicit — this library simulates time rather than
/// reading it from the OS, which keeps every run reproducible.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Time,
}

impl Clock {
    /// A clock starting at time 0.
    #[must_use]
    pub fn new() -> Self {
        Clock { now: Time::ZERO }
    }

    /// The current time `τ`.
    #[inline]
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the clock by `delta` ticks and returns the new time.
    pub fn tick(&mut self, delta: u64) -> Time {
        self.now = self.now + delta;
        self.now
    }

    /// Advances the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or is `∞` — logical clocks only move
    /// forward through finite instants.
    pub fn advance_to(&mut self, t: Time) {
        assert!(t.is_finite(), "cannot advance clock to ∞");
        assert!(t >= self.now, "clock cannot move backwards");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_dominates_every_finite_time() {
        assert!(Time::INFINITY > Time::new(0));
        assert!(Time::INFINITY > Time::MAX_FINITE);
        assert!(Time::new(10) < Time::INFINITY);
        assert_eq!(Time::INFINITY, Time::INFINITY);
    }

    #[test]
    fn finite_times_order_as_integers() {
        assert!(Time::new(3) < Time::new(5));
        assert_eq!(Time::new(7), Time::from(7));
        assert!(Time::ZERO < Time::new(1));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn constructing_infinity_via_new_panics() {
        let _ = Time::new(u64::MAX);
    }

    #[test]
    fn succ_and_pred() {
        assert_eq!(Time::new(4).succ(), Time::new(5));
        assert_eq!(Time::new(4).pred(), Time::new(3));
        assert_eq!(Time::ZERO.pred(), Time::ZERO);
        assert_eq!(Time::INFINITY.succ(), Time::INFINITY);
        assert_eq!(Time::INFINITY.pred(), Time::INFINITY);
    }

    #[test]
    fn infinity_is_absorbing_under_addition() {
        assert_eq!(Time::INFINITY + 5, Time::INFINITY);
        assert_eq!(Time::INFINITY - 5, Time::INFINITY);
        assert_eq!(Time::INFINITY.saturating_add(123), Time::INFINITY);
    }

    #[test]
    fn saturating_add_stays_finite() {
        assert_eq!(
            Time::MAX_FINITE.saturating_add(10),
            Time::MAX_FINITE,
            "saturation must not spill into ∞"
        );
        assert_eq!(Time::new(5).saturating_add(3), Time::new(8));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn checked_add_overflow_panics() {
        let _ = Time::MAX_FINITE + 1;
    }

    #[test]
    fn min_max_of_iterators() {
        let ts = [Time::new(5), Time::INFINITY, Time::new(2)];
        assert_eq!(Time::min_of(ts), Some(Time::new(2)));
        assert_eq!(Time::max_of(ts), Some(Time::INFINITY));
        assert_eq!(Time::min_of(std::iter::empty()), None);
        assert_eq!(Time::max_of(std::iter::empty()), None);
    }

    #[test]
    fn display_renders_infinity_symbol() {
        assert_eq!(Time::new(42).to_string(), "42");
        assert_eq!(Time::INFINITY.to_string(), "∞");
        assert_eq!(format!("{:?}", Time::new(3)), "3");
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = Clock::new();
        assert_eq!(c.now(), Time::ZERO);
        assert_eq!(c.tick(3), Time::new(3));
        c.advance_to(Time::new(10));
        assert_eq!(c.now(), Time::new(10));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_moving_backwards() {
        let mut c = Clock::new();
        c.advance_to(Time::new(5));
        c.advance_to(Time::new(4));
    }

    #[test]
    #[should_panic(expected = "∞")]
    fn clock_rejects_advancing_to_infinity() {
        let mut c = Clock::new();
        c.advance_to(Time::INFINITY);
    }
}
