//! Session protocol for replica sync over a
//! [`FaultyLink`](crate::fault::FaultyLink).
//!
//! Under the fault model of [`crate::fault`] a request and its response
//! have independent fates, so sync runs the classic reliability machinery:
//!
//! * **sequence numbers** on every request and response, so the receiver
//!   can tell a duplicate or a superseded answer from the one it awaits;
//! * **idempotent application** — a duplicated or reordered response is
//!   discarded, never applied twice;
//! * **retry with exponential backoff + jitter** under a bounded tick
//!   budget ([`RetryPolicy`]), after which the client *degrades* to the
//!   still-locally-correct cached view (Schrödinger move-backward)
//!   instead of erroring;
//! * **anti-entropy reconciliation** on reconnect: the client ships one
//!   digest per cached tuple, the server answers with only the divergent
//!   tuples — repair cost Θ(divergence), not Θ(result).
//!
//! This module holds the four sync messages ([`Payload`] in a traced
//! [`Frame`]), the retry discipline and the digests. The
//! expiration-aware [`crate::replica::Replica`] (the paper's protagonist)
//! speaks it, owning both endpoints and driving them tick-synchronously
//! against a server [`exptime_engine::Database`]; the chaos property
//! tests assert that after
//! [`FaultyLink::heal`](crate::fault::FaultyLink::heal) + quiesce it
//! converges back to the server's truth for *every* seeded fault
//! schedule. The chaos-hardened delete-push baseline
//! (`exptime_bench::baseline::ChaosDeletePush`) runs the same link,
//! [`RetryPolicy`] and [`SessionStats`] with notice/ack messages of its
//! own.

use exptime_core::algebra::Materialized;
use exptime_core::interval::IntervalSet;
use exptime_core::patch::PatchQueue;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_obs::TraceContext;
use rand::rngs::StdRng;
use rand::Rng;
use std::hash::{Hash, Hasher};

/// Exponential backoff with jitter under a bounded total budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks before the first retry.
    pub base: u64,
    /// Backoff multiplier per attempt.
    pub factor: u64,
    /// Ceiling on the backoff interval.
    pub max_interval: u64,
    /// Uniform jitter in `0..=jitter` added to every interval (decorrelates
    /// clients that failed together).
    pub jitter: u64,
    /// Total ticks a session may run before giving up with
    /// [`crate::ReplicaError::Timeout`].
    pub budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 1,
            factor: 2,
            max_interval: 8,
            jitter: 1,
            budget: 64,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), jittered.
    /// Public because the wire-protocol client (`exptime-net`) schedules
    /// its reconnect/retry backoff with the same policy — one retry
    /// discipline across the replica and network layers.
    #[must_use]
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let mut d = self.base.max(1);
        for _ in 0..attempt.min(16) {
            d = d.saturating_mul(self.factor.max(1));
            if d >= self.max_interval {
                d = self.max_interval.max(1);
                break;
            }
        }
        let d = d.min(self.max_interval.max(1));
        if self.jitter > 0 {
            d + rng.gen_range(0..=self.jitter)
        } else {
            d
        }
    }
}

/// Counters for the session machinery itself (the link's
/// [`crate::fault::LinkStats`] count wire crossings; these count protocol outcomes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sync sessions opened (refresh or digest).
    pub sessions_started: u64,
    /// Sessions that completed with an applied response.
    pub sessions_completed: u64,
    /// Sessions abandoned after the retry budget ran out.
    pub sessions_timed_out: u64,
    /// Request retransmissions sent.
    pub retries: u64,
    /// Duplicate or stale messages discarded on receipt (idempotence).
    pub duplicates_ignored: u64,
    /// Out-of-order notices buffered until their turn (delete-push).
    pub reorders_buffered: u64,
    /// Anti-entropy reconciliations completed.
    pub reconciliations: u64,
    /// Tuples the digest exchanges found divergent (shipped + dropped).
    pub divergent_tuples: u64,
}

/// Messages of the session protocol. One enum for both endpoints: the
/// fault layer is generic and does not care.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Client → server: "re-evaluate `view` and send me the result".
    RefreshRequest {
        /// Subscribed view name.
        view: String,
        /// Session sequence number; the response echoes it.
        seq: u64,
    },
    /// Server → client: the full re-evaluated materialisation.
    RefreshResponse {
        /// Subscribed view name.
        view: String,
        /// Echo of the request's sequence number.
        seq: u64,
        /// The freshly materialised state (rows + `texp` + validity —
        /// "results carry expiration times").
        state: Materialized,
    },
    /// Client → server: anti-entropy probe — one digest per cached tuple.
    DigestRequest {
        /// Subscribed view name.
        view: String,
        /// Session sequence number.
        seq: u64,
        /// [`tuple_digest`] of every cached `(tuple, texp)` row.
        digests: Vec<u64>,
    },
    /// Server → client: only the divergent part of the result.
    DigestResponse {
        /// Subscribed view name.
        view: String,
        /// Echo of the request's sequence number.
        seq: u64,
        /// Rows present on the server but missing (or stale) locally.
        add: Vec<(Tuple, Time)>,
        /// Digests of local rows that must be dropped.
        drop: Vec<u64>,
        /// Server materialisation time.
        at: Time,
        /// Server `texp(e)` for the refreshed state.
        texp: Time,
        /// Server validity intervals for the refreshed state.
        validity: IntervalSet,
        /// The server's Theorem 3 queue for the refreshed state: its
        /// `texp(e)` holds only with it.
        patches: Option<PatchQueue>,
    },
}

impl Payload {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Payload::RefreshRequest { .. } => "refresh_req",
            Payload::RefreshResponse { .. } => "refresh_resp",
            Payload::DigestRequest { .. } => "digest_req",
            Payload::DigestResponse { .. } => "digest_resp",
        }
    }

    /// Tuple weight for the link's payload accounting: a response's rows
    /// and the tuples its Theorem 3 queue holds ([`PatchQueue::tuples`]).
    /// Requests are metadata-sized, counted as zero tuples.
    pub(crate) fn tuples(&self) -> u64 {
        let queued = |q: &Option<PatchQueue>| q.as_ref().map_or(0, PatchQueue::tuples);
        let n = match self {
            Payload::RefreshResponse { state, .. } => state.rel.len() + queued(&state.patches),
            Payload::DigestResponse { add, patches, .. } => add.len() + queued(patches),
            _ => 0,
        };
        n as u64
    }
}

/// A wire frame: the protocol payload plus the propagated trace context
/// — the moral equivalent of a `traceparent` header. Every hop that
/// handles a sampled frame records its span *under the sender's span*,
/// so one logical operation (push → loss → retransmit → resync) renders
/// as a single causal tree whichever endpoint each span landed on.
///
/// Compatibility: [`TraceContext::NONE`] (all zeroes, the `Default`) is
/// what a peer that predates tracing would carry — hops propagate it
/// untouched and record nothing, so traced and untraced peers
/// interoperate on the same link.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Propagated trace position (which trace, which parent span).
    pub ctx: TraceContext,
    /// The protocol message.
    pub payload: Payload,
}

/// FNV-1a, hand-rolled: `std`'s default hasher is randomly keyed per
/// process, which would make digests incomparable across runs (and make
/// fault schedules irreproducible). This one is a pure function of the
/// bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    // Pin the integer paths to little-endian so digests do not depend on
    // the platform's native byte order.
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
}

/// Deterministic digest of one cached row: a function of the tuple's
/// values *and* its expiration time, so a server-side `texp` revision
/// shows up as divergence too.
#[must_use]
pub fn tuple_digest(tuple: &Tuple, texp: Time) -> u64 {
    let mut h = Fnv::new();
    tuple.hash(&mut h);
    h.write_u64(texp.finite().unwrap_or(u64::MAX));
    h.finish()
}

pub(crate) fn ticks(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_texp_sensitive() {
        use exptime_core::tuple;
        let t = tuple![1, 25];
        let d1 = tuple_digest(&t, Time::new(10));
        let d2 = tuple_digest(&t, Time::new(10));
        let d3 = tuple_digest(&t, Time::new(11));
        let d4 = tuple_digest(&tuple![1, 26], Time::new(10));
        assert_eq!(d1, d2);
        assert_ne!(d1, d3, "texp participates in the digest");
        assert_ne!(d1, d4);
    }
}
