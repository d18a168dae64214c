//! The counted, fault-injecting link between a replica and its server.
//!
//! "Determining cost factors and bottlenecks in the envisioned volatile
//! settings are network traffic and latency" (paper, Section 1) — so a
//! [`FaultyLink`] counts every crossing in its [`LinkStats`]: requests,
//! responses, pushed notices, and tuples transferred. It subjects every
//! message to the failure modes of the paper's "volatile settings": it
//! **drops**, **duplicates**, **reorders**, **delays**, and
//! **partitions** traffic. All decisions come from a seeded xoshiro RNG
//! (the in-tree `rand` shim), so a fault schedule is exactly replayable
//! from its seed — and every decision is recorded in a schedule trace
//! that failing tests print alongside the seed.
//!
//! The model is message-level and tick-synchronous: a message sent at
//! tick `t` is deliverable at `t` unless a fault delays it to a later
//! tick, drops it, or a partition swallows it. Delay naturally produces
//! reordering relative to later sends; an explicit reorder fault holds a
//! single message back one tick so reordering also occurs at zero delay
//! configurations. Duplication enqueues a second copy (possibly with its
//! own delay). During a partition the sender does not know the link is
//! dead — messages are transmitted (and counted: bandwidth was spent)
//! but never delivered. An explicit [`FaultyLink::disconnect`] is
//! different: the sender *sees* the refusal.
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

use exptime_obs::{EventKind, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Per-message / per-tick fault probabilities, plus the seed that makes
/// the whole schedule deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// RNG seed; the entire fault schedule is a pure function of the seed
    /// and the sequence of link calls.
    pub seed: u64,
    /// Per-message loss probability.
    pub loss: f64,
    /// Per-message duplication probability (a second copy is enqueued).
    pub duplicate: f64,
    /// Per-message probability of an explicit one-tick hold-back
    /// (reordering even when `delay` is zero).
    pub reorder: f64,
    /// Per-message probability of a longer delivery delay.
    pub delay: f64,
    /// Maximum extra ticks a delayed message waits (uniform in
    /// `1..=delay_max`; ignored when `delay` is 0).
    pub delay_max: u64,
    /// Per-tick probability that a partition starts (while none is
    /// active).
    pub partition: f64,
    /// Minimum partition length in ticks.
    pub partition_min: u64,
    /// Maximum partition length in ticks.
    pub partition_max: u64,
}

impl FaultSpec {
    /// A perfectly healthy link (the identity wrapper).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_max: 0,
            partition: 0.0,
            partition_min: 0,
            partition_max: 0,
        }
    }

    /// Pure message loss at rate `loss`.
    #[must_use]
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultSpec {
            loss,
            ..FaultSpec::none(seed)
        }
    }

    /// Every fault mode on at moderate rates — the default chaos mix used
    /// by the `\chaos` demo and the property tests.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultSpec {
            seed,
            loss: 0.15,
            duplicate: 0.10,
            reorder: 0.10,
            delay: 0.15,
            delay_max: 3,
            partition: 0.05,
            partition_min: 2,
            partition_max: 5,
        }
    }
}

/// What the fault layer decided for one transmitted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Will be delivered at the given tick (`copies` > 1 when
    /// duplicated).
    Delivered { at: u64, copies: u8 },
    /// Transmitted but lost (random loss or active partition).
    Dropped,
    /// Never transmitted: the link was explicitly disconnected and the
    /// sender saw the refusal.
    Refused,
}

/// Message direction over the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client → server.
    ToServer,
    /// Server → client.
    ToClient,
}

impl std::fmt::Display for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dir::ToServer => "c→s",
            Dir::ToClient => "s→c",
        })
    }
}

/// One entry of the replayable fault schedule.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Tick at which the decision was taken.
    pub at: u64,
    /// Direction of the affected message (`None` for partition events).
    pub dir: Option<Dir>,
    /// Human-readable description ("lost", "duplicated→t+2",
    /// "partition 4..9", …).
    pub what: String,
    /// Caller-supplied message label (payload kind).
    pub label: &'static str,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dir {
            Some(d) => write!(f, "t={:<5} {d} {:<16} {}", self.at, self.label, self.what),
            None => write!(f, "t={:<5} {:<20} {}", self.at, self.label, self.what),
        }
    }
}

#[derive(Debug)]
struct InFlight<M> {
    deliver_at: u64,
    order: u64,
    msg: M,
}

/// A counted link with an up/down switch that injects faults per a
/// [`FaultSpec`].
///
/// Generic over the message type so each protocol owns its payload enum;
/// the fault layer only needs to clone a message it duplicates. The
/// sender weighs it (tuple counts for the traffic accounting).
#[derive(Debug)]
pub struct FaultyLink<M> {
    spec: FaultSpec,
    /// Explicitly disconnected: sends are refused, and the sender sees it.
    down: bool,
    stats: LinkStats,
    /// Event stream for per-message traces. Dark (no sink, near-zero cost)
    /// unless [`FaultyLink::attach_obs`] wires it to a listening handle.
    obs: Obs,
    rng: StdRng,
    /// Tick the partition machinery has been advanced to.
    advanced_to: u64,
    partition_until: Option<u64>,
    /// When healed, no *new* faults are injected (in-flight messages
    /// still arrive as scheduled) — the deterministic "reconnect" switch.
    healed: bool,
    to_server: Vec<InFlight<M>>,
    to_client: Vec<InFlight<M>>,
    next_order: u64,
    schedule: Vec<FaultRecord>,
}

impl<M: Clone> FaultyLink<M> {
    /// A faulty link with its own RNG stream seeded from `spec.seed`.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        FaultyLink {
            spec,
            down: false,
            stats: LinkStats::default(),
            obs: Obs::default(),
            rng: StdRng::seed_from_u64(spec.seed),
            advanced_to: 0,
            partition_until: None,
            healed: false,
            to_server: Vec::new(),
            to_client: Vec::new(),
            next_order: 0,
            schedule: Vec::new(),
        }
    }

    /// Routes this link's [`EventKind::ReplicaMessage`] events through
    /// `obs`.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// Whether the link currently carries traffic.
    #[must_use]
    pub fn is_up(&self) -> bool {
        !self.down
    }

    /// Takes the link down (intermittent connectivity): every send is
    /// refused until [`FaultyLink::reconnect`].
    pub fn disconnect(&mut self) {
        self.down = true;
    }

    /// Restores the link.
    pub fn reconnect(&mut self) {
        self.down = false;
    }

    /// The traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Counts a request/response round trip carrying `tuples` result
    /// tuples, outside the fault model (nothing is queued, nothing can be
    /// lost). Returns `false` (and counts a refusal) if the link is down.
    pub fn round_trip(&mut self, tuples: u64) -> bool {
        let crossed = self.count("round_trip", tuples);
        if crossed {
            self.stats.requests += 1;
            self.stats.responses += 1;
        }
        crossed
    }

    /// Counts a server push carrying `tuples` tuples (e.g. one delete
    /// notice), outside the fault model. Returns `false` if the link is
    /// down.
    pub fn push(&mut self, tuples: u64) -> bool {
        let crossed = self.count("push", tuples);
        if crossed {
            self.stats.pushes += 1;
        }
        crossed
    }

    /// The accounting every crossing shares: a refusal when the link is
    /// down, else the payload weight; either way one traced event.
    fn count(&mut self, kind: &'static str, tuples: u64) -> bool {
        let kind = if self.down {
            self.stats.refused += 1;
            "refused"
        } else {
            self.stats.tuples_transferred += tuples;
            kind
        };
        self.obs.emit_with(None, || EventKind::ReplicaMessage {
            kind: kind.into(),
            tuples,
        });
        self.is_up()
    }

    /// Ends any active partition and stops injecting new faults;
    /// messages already in flight still arrive at their scheduled ticks.
    /// This is the deterministic "the network came back" switch the
    /// recovery tests flip before asserting convergence.
    pub fn heal(&mut self) {
        self.healed = true;
        if self.partition_until.take().is_some() {
            self.schedule.push(FaultRecord {
                at: self.advanced_to,
                dir: None,
                what: "partition healed".into(),
                label: "(link)",
            });
        }
    }

    /// Rolls the partition state machine forward to `now`. Call once per
    /// tick before sending/receiving.
    pub fn advance(&mut self, now: u64) {
        while self.advanced_to < now {
            self.advanced_to += 1;
            if self.healed {
                continue;
            }
            if let Some(until) = self.partition_until {
                if self.advanced_to >= until {
                    self.partition_until = None;
                    self.schedule.push(FaultRecord {
                        at: self.advanced_to,
                        dir: None,
                        what: "partition ended".into(),
                        label: "(link)",
                    });
                }
            } else if self.spec.partition > 0.0 && self.rng.gen_bool(self.spec.partition) {
                let len = if self.spec.partition_max > self.spec.partition_min {
                    self.rng
                        .gen_range(self.spec.partition_min..=self.spec.partition_max)
                } else {
                    self.spec.partition_min.max(1)
                };
                self.partition_until = Some(self.advanced_to + len);
                self.schedule.push(FaultRecord {
                    at: self.advanced_to,
                    dir: None,
                    what: format!("partition {}..{}", self.advanced_to, self.advanced_to + len),
                    label: "(link)",
                });
            }
        }
    }

    /// Whether a fault-injected partition is currently swallowing
    /// traffic.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.partition_until.is_some()
    }

    /// Sends a message one way. Fault decisions and the traffic
    /// accounting happen here; delivery happens when the
    /// receiver polls [`FaultyLink::recv`] at or after the scheduled
    /// tick. `tuples` is the payload weight; `retransmission` labels
    /// retries for the distinct accounting; `label` names the payload in
    /// the schedule trace.
    pub fn send(
        &mut self,
        now: u64,
        dir: Dir,
        msg: M,
        tuples: u64,
        retransmission: bool,
        label: &'static str,
    ) -> Fate {
        self.advance(now);
        let kind = match (dir, retransmission) {
            (Dir::ToServer, false) => "request",
            (Dir::ToServer, true) => "request_retry",
            (Dir::ToClient, false) => "response",
            (Dir::ToClient, true) => "response_retry",
        };
        // Explicit disconnect: the sender sees the refusal.
        if !self.count(kind, tuples) {
            self.schedule.push(FaultRecord {
                at: now,
                dir: Some(dir),
                what: "refused (link down)".into(),
                label,
            });
            return Fate::Refused;
        }
        match dir {
            Dir::ToServer => self.stats.requests += 1,
            Dir::ToClient => self.stats.responses += 1,
        }
        if retransmission {
            self.stats.retransmissions += 1;
        }
        // Partition: transmitted, silently black-holed.
        if self.partition_until.is_some() {
            self.schedule.push(FaultRecord {
                at: now,
                dir: Some(dir),
                what: "swallowed by partition".into(),
                label,
            });
            return Fate::Dropped;
        }
        if !self.healed && self.spec.loss > 0.0 && self.rng.gen_bool(self.spec.loss) {
            self.schedule.push(FaultRecord {
                at: now,
                dir: Some(dir),
                what: "lost".into(),
                label,
            });
            return Fate::Dropped;
        }
        let mut copies = 1u8;
        if !self.healed && self.spec.duplicate > 0.0 && self.rng.gen_bool(self.spec.duplicate) {
            copies = 2;
        }
        let mut deliver_at = now;
        if !self.healed {
            if self.spec.delay > 0.0
                && self.spec.delay_max > 0
                && self.rng.gen_bool(self.spec.delay)
            {
                deliver_at = now + self.rng.gen_range(1..=self.spec.delay_max);
            } else if self.spec.reorder > 0.0 && self.rng.gen_bool(self.spec.reorder) {
                deliver_at = now + 1;
            }
        }
        if copies > 1 || deliver_at > now {
            self.schedule.push(FaultRecord {
                at: now,
                dir: Some(dir),
                what: match (copies, deliver_at) {
                    (1, d) => format!("delayed→t={d}"),
                    (_, d) if d > now => format!("duplicated, delayed→t={d}"),
                    _ => "duplicated".into(),
                },
                label,
            });
        }
        // Only a duplicate is a clone: the last copy is the message itself.
        if copies > 1 {
            self.enqueue(dir, deliver_at, msg.clone());
        }
        self.enqueue(dir, deliver_at, msg);
        Fate::Delivered {
            at: deliver_at,
            copies,
        }
    }

    fn enqueue(&mut self, dir: Dir, deliver_at: u64, msg: M) {
        let entry = InFlight {
            deliver_at,
            order: self.next_order,
            msg,
        };
        self.next_order += 1;
        match dir {
            Dir::ToServer => self.to_server.push(entry),
            Dir::ToClient => self.to_client.push(entry),
        }
    }

    /// Delivers every in-flight message due at or before `now` for the
    /// given direction, in (deliver_at, send order) order.
    pub fn recv(&mut self, now: u64, dir: Dir) -> Vec<M> {
        self.advance(now);
        let queue = match dir {
            Dir::ToServer => &mut self.to_server,
            Dir::ToClient => &mut self.to_client,
        };
        let (mut due, keep): (Vec<_>, Vec<_>) = queue.drain(..).partition(|m| m.deliver_at <= now);
        *queue = keep;
        due.sort_by_key(|m| (m.deliver_at, m.order));
        due.into_iter().map(|m| m.msg).collect()
    }

    /// Whether any message is still in flight (in either direction).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.to_server.len() + self.to_client.len()
    }

    /// The recorded fault schedule so far.
    #[must_use]
    pub fn schedule(&self) -> &[FaultRecord] {
        &self.schedule
    }

    /// A printable replay report: the seed (sufficient to reproduce the
    /// whole schedule) followed by every fault decision taken. Tests
    /// print this on invariant violations.
    #[must_use]
    pub fn schedule_report(&self) -> String {
        let mut out = format!(
            "fault schedule (seed={}, loss={}, dup={}, reorder={}, delay={}≤{}, partition={}): {} decision(s)\n",
            self.spec.seed,
            self.spec.loss,
            self.spec.duplicate,
            self.spec.reorder,
            self.spec.delay,
            self.spec.delay_max,
            self.spec.partition,
            self.schedule.len()
        );
        for r in &self.schedule {
            out.push_str(&format!("  {r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(link: &mut FaultyLink<u32>, now: u64) -> Vec<u32> {
        link.recv(now, Dir::ToClient)
    }

    #[test]
    fn healthy_spec_is_the_identity() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
        for i in 0..50 {
            assert_eq!(
                l.send(i, Dir::ToClient, i as u32, 1, false, "msg"),
                Fate::Delivered { at: i, copies: 1 }
            );
        }
        let got = drain(&mut l, 50);
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "in order: {got:?}");
        assert!(l.schedule().is_empty());
        assert_eq!(l.stats().responses, 50);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::chaos(seed));
            let mut fates = Vec::new();
            for t in 0..200 {
                fates.push(l.send(t, Dir::ToClient, t as u32, 1, false, "msg"));
            }
            (fates, l.schedule_report())
        };
        let (f1, s1) = run(42);
        let (f2, s2) = run(42);
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
        let (f3, _) = run(43);
        assert_ne!(f1, f3, "different seeds give different schedules");
    }

    #[test]
    fn loss_drops_roughly_at_rate() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::lossy(7, 0.3));
        let mut dropped = 0;
        for t in 0..1000 {
            if l.send(t, Dir::ToServer, 0, 0, false, "msg") == Fate::Dropped {
                dropped += 1;
            }
        }
        assert!((200..400).contains(&dropped), "{dropped}");
        // Every loss is on the schedule.
        assert_eq!(l.schedule().len(), dropped);
        // Transmitted messages all crossed the (accounted) link.
        assert_eq!(l.stats().requests, 1000);
    }

    #[test]
    fn delay_reorders_relative_to_later_sends() {
        let spec = FaultSpec {
            delay: 0.5,
            delay_max: 3,
            ..FaultSpec::none(11)
        };
        let mut l: FaultyLink<u32> = FaultyLink::new(spec);
        for t in 0..40 {
            l.send(t, Dir::ToClient, t as u32, 1, false, "msg");
        }
        let got = drain(&mut l, 100);
        assert_eq!(got.len(), 40, "nothing lost, only delayed");
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "some pair out of order: {got:?}"
        );
    }

    #[test]
    fn duplicates_arrive_twice() {
        let spec = FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::none(3)
        };
        let mut l: FaultyLink<u32> = FaultyLink::new(spec);
        l.send(0, Dir::ToClient, 9, 1, false, "msg");
        assert_eq!(drain(&mut l, 0), vec![9, 9]);
    }

    #[test]
    fn partition_swallows_then_ends() {
        let spec = FaultSpec {
            partition: 1.0, // starts immediately on the first tick
            partition_min: 3,
            partition_max: 3,
            ..FaultSpec::none(5)
        };
        let mut l: FaultyLink<u32> = FaultyLink::new(spec);
        l.advance(1);
        assert!(l.is_partitioned());
        assert_eq!(l.send(1, Dir::ToServer, 1, 0, false, "msg"), Fate::Dropped);
        // Messages were transmitted (bandwidth spent), not refused.
        assert_eq!(l.stats().requests, 1);
        assert_eq!(l.stats().refused, 0);
        // The partition starts at tick 1 and runs 3 ticks; on the ending
        // tick traffic flows again (with partition=1.0 a fresh partition
        // begins the following tick).
        l.advance(4);
        assert!(!l.is_partitioned());
        assert!(matches!(
            l.send(4, Dir::ToServer, 2, 0, false, "msg"),
            Fate::Delivered { .. }
        ));
        l.advance(5);
        assert!(l.is_partitioned(), "re-partitioned at rate 1.0");
        assert!(l.schedule().iter().any(|r| r.what.starts_with("partition")));
    }

    #[test]
    fn heal_stops_new_faults_but_delivers_in_flight() {
        let spec = FaultSpec {
            loss: 1.0,
            delay: 1.0,
            delay_max: 5,
            ..FaultSpec::none(13)
        };
        // loss is checked before delay, so with loss=1.0 everything drops…
        let mut l: FaultyLink<u32> = FaultyLink::new(spec);
        assert_eq!(l.send(0, Dir::ToClient, 1, 1, false, "msg"), Fate::Dropped);
        // …until healed.
        l.heal();
        assert_eq!(
            l.send(1, Dir::ToClient, 2, 1, false, "msg"),
            Fate::Delivered { at: 1, copies: 1 }
        );
        assert_eq!(drain(&mut l, 1), vec![2]);
    }

    #[test]
    fn explicit_disconnect_is_visible_to_sender() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
        l.disconnect();
        assert_eq!(l.send(0, Dir::ToServer, 1, 2, false, "msg"), Fate::Refused);
        assert_eq!(l.stats().refused, 1);
        assert_eq!(l.stats().total_messages(), 0);
        l.reconnect();
        assert!(matches!(
            l.send(1, Dir::ToServer, 1, 2, false, "msg"),
            Fate::Delivered { .. }
        ));
    }

    #[test]
    fn round_trips_count_both_directions() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
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
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
        assert!(l.push(1));
        assert!(l.push(1));
        let s = l.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.requests, 0);
        assert_eq!(s.total_messages(), 2);
    }

    #[test]
    fn disconnection_refuses_traffic() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
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
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::none(1));
        l.send(0, Dir::ToServer, 1, 0, false, "req");
        l.send(0, Dir::ToServer, 1, 0, true, "req");
        l.send(0, Dir::ToServer, 1, 0, true, "req");
        l.send(0, Dir::ToClient, 2, 7, false, "resp");
        let s = l.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.responses, 1);
        assert_eq!(s.retransmissions, 2);
        assert_eq!(s.tuples_transferred, 7);
        // Retries cross the link (cost bandwidth) but the intrinsic
        // protocol cost excludes them.
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.first_transmissions(), 2);
    }

    #[test]
    fn schedule_report_names_the_seed() {
        let mut l: FaultyLink<u32> = FaultyLink::new(FaultSpec::lossy(99, 1.0));
        l.send(0, Dir::ToServer, 0, 0, false, "probe");
        let report = l.schedule_report();
        assert!(report.contains("seed=99"), "{report}");
        assert!(report.contains("probe"), "{report}");
        assert!(report.contains("lost"), "{report}");
    }
}
