//! The counted, disconnectable link between a replica and its server.
//!
//! "Determining cost factors and bottlenecks in the envisioned volatile
//! settings are network traffic and latency" (paper, Section 1) — so the
//! link counts every crossing: requests, responses, pushed notices, and
//! tuples transferred. It can also be taken down to model intermittent
//! connectivity; a disconnected link refuses traffic, and the replica has
//! to cope locally.
//!
//! Accounting rules (relied on by experiment E6's message-cost claims):
//!
//! * [`LinkStats::total_messages`] counts only messages that **crossed**
//!   the link — a refused send never left the station and is tallied in
//!   [`LinkStats::refused`] instead; [`LinkStats::attempted_messages`]
//!   includes the refusals.
//! * Retransmissions of the same logical message cross the link and cost
//!   bandwidth, so they count in `requests`/`responses` **and**
//!   are tallied separately in [`LinkStats::retransmissions`] — E6 can
//!   report first-transmission cost and retry overhead distinctly instead
//!   of silently inflating the message-cost claim.

/// Cumulative traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Client → server messages (view fetch/refresh requests, digests,
    /// acks).
    pub requests: u64,
    /// Server → client reply messages.
    pub responses: u64,
    /// Server → client unsolicited messages (delete notices, pushes).
    pub pushes: u64,
    /// Total tuples carried in responses and pushes (payload proxy).
    pub tuples_transferred: u64,
    /// Sends refused because the link was down (never crossed; not part
    /// of [`LinkStats::total_messages`]).
    pub refused: u64,
    /// Messages that crossed the link as retries of an earlier send.
    /// Already included in `requests`/`responses`; kept separate
    /// so retry overhead is visible rather than silently folded into the
    /// first-transmission cost.
    pub retransmissions: u64,
}

impl LinkStats {
    /// All messages that crossed the link (retransmissions included,
    /// refusals excluded — they never crossed).
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.requests + self.responses + self.pushes
    }

    /// All send attempts: crossed messages plus refused ones. This is the
    /// number a client actually paid for in send attempts.
    #[must_use]
    pub fn attempted_messages(&self) -> u64 {
        self.total_messages() + self.refused
    }

    /// Messages that crossed the link net of retries — the protocol's
    /// intrinsic message cost, comparable across loss rates.
    #[must_use]
    pub fn first_transmissions(&self) -> u64 {
        self.total_messages().saturating_sub(self.retransmissions)
    }
}

/// A bidirectional link with an up/down state and traffic accounting.
#[derive(Debug, Clone, Default)]
pub struct Link {
    down: bool,
    stats: LinkStats,
    /// Event stream for per-message traces. Dark (no sink, near-zero cost)
    /// unless [`Link::attach_obs`] wires it to a listening handle.
    obs: exptime_obs::Obs,
}

impl Link {
    /// A connected link.
    #[must_use]
    pub fn new() -> Self {
        Link::default()
    }

    /// Routes this link's [`exptime_obs::EventKind::ReplicaMessage`]
    /// events through `obs`.
    pub fn attach_obs(&mut self, obs: &exptime_obs::Obs) {
        self.obs = obs.clone();
    }

    /// Whether the link currently carries traffic.
    #[must_use]
    pub fn is_up(&self) -> bool {
        !self.down
    }

    /// Takes the link down (intermittent connectivity).
    pub fn disconnect(&mut self) {
        self.down = true;
    }

    /// Restores the link.
    pub fn reconnect(&mut self) {
        self.down = false;
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Records a request/response round trip carrying `tuples` result
    /// tuples. Returns `false` (and counts a refusal) if the link is down.
    pub fn round_trip(&mut self, tuples: u64) -> bool {
        if self.down {
            self.stats.refused += 1;
            self.emit("refused", tuples);
            return false;
        }
        self.stats.requests += 1;
        self.stats.responses += 1;
        self.stats.tuples_transferred += tuples;
        self.emit("round_trip", tuples);
        true
    }

    /// Records a server push carrying `tuples` tuples (e.g. one delete
    /// notice). Returns `false` if the link is down.
    pub fn push(&mut self, tuples: u64) -> bool {
        if self.down {
            self.stats.refused += 1;
            self.emit("refused", tuples);
            return false;
        }
        self.stats.pushes += 1;
        self.stats.tuples_transferred += tuples;
        self.emit("push", tuples);
        true
    }

    /// Records a one-way client → server message (a request whose response
    /// — if any — travels and is accounted separately). The session layer
    /// uses this because under faults a request and its response have
    /// independent fates.
    pub fn request_oneway(&mut self, tuples: u64, retransmission: bool) -> bool {
        if self.down {
            self.stats.refused += 1;
            self.emit("refused", tuples);
            return false;
        }
        self.stats.requests += 1;
        if retransmission {
            self.stats.retransmissions += 1;
        }
        self.stats.tuples_transferred += tuples;
        self.emit(
            if retransmission {
                "request_retry"
            } else {
                "request"
            },
            tuples,
        );
        true
    }

    /// Records a one-way server → client reply message.
    pub fn response_oneway(&mut self, tuples: u64, retransmission: bool) -> bool {
        if self.down {
            self.stats.refused += 1;
            self.emit("refused", tuples);
            return false;
        }
        self.stats.responses += 1;
        if retransmission {
            self.stats.retransmissions += 1;
        }
        self.stats.tuples_transferred += tuples;
        self.emit(
            if retransmission {
                "response_retry"
            } else {
                "response"
            },
            tuples,
        );
        true
    }

    fn emit(&self, kind: &'static str, tuples: u64) {
        self.obs
            .emit_with(None, || exptime_obs::EventKind::ReplicaMessage {
                kind: kind.into(),
                tuples,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_count_both_directions() {
        let mut l = Link::new();
        assert!(l.round_trip(10));
        assert!(l.round_trip(5));
        let s = l.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.responses, 2);
        assert_eq!(s.tuples_transferred, 15);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.refused, 0);
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.first_transmissions(), 4);
    }

    #[test]
    fn pushes_are_one_way() {
        let mut l = Link::new();
        assert!(l.push(1));
        assert!(l.push(1));
        let s = l.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.requests, 0);
        assert_eq!(s.total_messages(), 2);
    }

    #[test]
    fn disconnection_refuses_traffic() {
        let mut l = Link::new();
        l.disconnect();
        assert!(!l.is_up());
        assert!(!l.round_trip(3));
        assert!(!l.push(1));
        assert_eq!(l.stats().refused, 2);
        assert_eq!(l.stats().total_messages(), 0);
        // Refusals are invisible to crossings but visible to attempts.
        assert_eq!(l.stats().attempted_messages(), 2);
        l.reconnect();
        assert!(l.round_trip(3));
        assert_eq!(l.stats().attempted_messages(), 4);
    }

    #[test]
    fn retransmissions_are_counted_distinctly() {
        let mut l = Link::new();
        assert!(l.request_oneway(0, false));
        assert!(l.request_oneway(0, true));
        assert!(l.request_oneway(0, true));
        assert!(l.response_oneway(7, false));
        let s = l.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.responses, 1);
        assert_eq!(s.retransmissions, 2);
        // Retries cross the link (cost bandwidth) but the intrinsic
        // protocol cost excludes them.
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.first_transmissions(), 2);
    }
}
