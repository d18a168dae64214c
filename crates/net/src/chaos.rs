//! A tick-synchronous chaos harness for the wire protocol.
//!
//! [`ChaosNet`] runs one client session against one server over a
//! [`FaultyLink`] carrying **real encoded frames** (`Vec<u8>` produced
//! by [`crate::frame::encode_msg`]) — the link drops, duplicates,
//! reorders, delays, and partitions them according to a seeded
//! [`FaultSpec`], exactly as the replica layer's chaos tests do. The
//! server side answers a statement with the *same*
//! [`SessionTable::serve`] around the same [`reply_of`] as the TCP
//! server, so what the property tests prove here — every submitted
//! statement applied **exactly once**, no matter the fault schedule —
//! is a statement about the production path, not about a model of it.
//!
//! Everything is deterministic in `(seed, workload)`: retransmission
//! backoff draws from a seeded [`StdRng`] via the shared
//! [`RetryPolicy`], and the link's fate decisions replay from the spec.

use crate::frame::{decode_msg, encode_msg, Msg, ReplyBody};
use crate::session::{reply_of, Handshake, SessionTable};
use exptime_engine::Database;
use exptime_replica::{Dir, FaultSpec, FaultyLink, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// A statement the client is currently trying to get applied.
#[derive(Debug)]
struct InFlight {
    seq: u64,
    sql: String,
    attempt: u32,
    next_send_at: u64,
}

/// Counters from one chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosNetReport {
    /// Ticks consumed before quiescence (or the cap).
    pub ticks: u64,
    /// Statements with a consumed outcome at the client.
    pub acked: usize,
    /// Statement frames sent beyond the first per statement.
    pub retransmissions: u64,
    /// Server-side executions (must equal submitted statements).
    pub fresh: u64,
    /// Server-side cached-reply replays (duplicates absorbed).
    pub replays: u64,
    /// Whether the run quiesced within the tick cap.
    pub quiesced: bool,
}

/// One client, one server, one faulty link — all driven by [`ChaosNet::tick`].
#[derive(Debug)]
pub struct ChaosNet {
    link: FaultyLink<Vec<u8>>,
    policy: RetryPolicy,
    rng: StdRng,
    now: u64,
    // Server side.
    sessions: SessionTable,
    handshake: Option<Handshake>,
    exec_counts: HashMap<u64, u32>,
    // Client side.
    handshaken: bool,
    token: u64,
    hello_attempt: u32,
    hello_next_at: u64,
    pending: VecDeque<String>,
    current: Option<InFlight>,
    next_seq: u64,
    submitted: u64,
    acked: Vec<(u64, ReplyBody)>,
    retransmissions: u64,
}

impl ChaosNet {
    /// A harness over a link with the given fault spec and client
    /// retransmission policy (intervals in ticks).
    #[must_use]
    pub fn new(spec: FaultSpec, policy: RetryPolicy) -> Self {
        let seed = spec.seed;
        ChaosNet {
            link: FaultyLink::new(spec),
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0x6e65_745f_6368_616f),
            now: 0,
            sessions: SessionTable::new(),
            handshake: None,
            exec_counts: HashMap::new(),
            handshaken: false,
            token: 0,
            hello_attempt: 0,
            hello_next_at: 1,
            pending: VecDeque::new(),
            current: None,
            next_seq: 1,
            submitted: 0,
            acked: Vec::new(),
            retransmissions: 0,
        }
    }

    /// Queues a statement for the client to push through the link.
    pub fn submit(&mut self, sql: &str) {
        self.pending.push_back(sql.to_string());
        self.submitted += 1;
    }

    /// The faulty link, for healing/partitioning from tests.
    pub fn link(&mut self) -> &mut FaultyLink<Vec<u8>> {
        &mut self.link
    }

    /// The current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Consumed outcomes, in ack order.
    #[must_use]
    pub fn acked(&self) -> &[(u64, ReplyBody)] {
        &self.acked
    }

    /// Server-side execution counts per sequence number.
    #[must_use]
    pub fn exec_counts(&self) -> &HashMap<u64, u32> {
        &self.exec_counts
    }

    /// The exactly-once verdict: every submitted statement acked, and
    /// every acked statement executed exactly once on the server.
    #[must_use]
    pub fn exactly_once(&self) -> bool {
        self.acked.len() as u64 == self.submitted
            && self.exec_counts.len() as u64 == self.submitted
            && self.exec_counts.values().all(|&n| n == 1)
    }

    /// Advances one tick: deliver due frames both ways, let the server
    /// apply/replay, let the client retransmit per its backoff.
    pub fn tick(&mut self, db: &mut Database) {
        self.now += 1;
        let now = self.now;
        // Server: consume, apply, reply.
        let inbound = self.link.recv(now, Dir::ToServer);
        for bytes in inbound {
            let Ok((msg, _)) = decode_msg(&bytes) else {
                continue; // the link never corrupts, but stay defensive
            };
            match msg {
                Msg::Hello { token, last_seq } => {
                    // Duplicate Hellos must not open extra sessions (on
                    // TCP the handshake arrives once per connection; the
                    // datagram-ish link can replay it).
                    let hs = match self.handshake {
                        Some(hs) => hs,
                        None => {
                            let hs = self.sessions.hello(token, last_seq);
                            self.handshake = Some(hs);
                            hs
                        }
                    };
                    self.send_to_client(
                        &Msg::Welcome {
                            token: hs.token,
                            applied: hs.applied,
                        },
                        "welcome",
                    );
                }
                Msg::Stmt { seq, sql, .. } => {
                    let token = self.handshake.map_or(0, |h| h.token);
                    let body = self.sessions.serve(token, seq, || {
                        *self.exec_counts.entry(seq).or_insert(0) += 1;
                        reply_of(db, &sql, 0).0
                    });
                    self.send_to_client(&Msg::Reply { seq, body }, "reply");
                }
                _ => {}
            }
        }
        // Client: consume outcomes.
        let inbound = self.link.recv(now, Dir::ToClient);
        for bytes in inbound {
            let Ok((msg, _)) = decode_msg(&bytes) else {
                continue;
            };
            match msg {
                Msg::Welcome { token, applied } if !self.handshaken => {
                    self.handshaken = true;
                    self.token = token;
                    self.next_seq = applied + 1;
                }
                Msg::Reply { seq, body } if self.current.as_ref().is_some_and(|c| c.seq == seq) => {
                    self.acked.push((seq, body));
                    self.current = None;
                }
                _ => {}
            }
        }
        // Client: handshake, start, retransmit.
        if !self.handshaken {
            if now >= self.hello_next_at {
                let retx = self.hello_attempt > 0;
                self.send_to_server(
                    &Msg::Hello {
                        token: 0,
                        last_seq: 0,
                    },
                    retx,
                    "hello",
                );
                self.hello_attempt += 1;
                let delay = self.policy.delay(self.hello_attempt, &mut self.rng).max(1);
                self.hello_next_at = now + delay;
            }
            return;
        }
        if self.current.is_none() {
            if let Some(sql) = self.pending.pop_front() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.current = Some(InFlight {
                    seq,
                    sql,
                    attempt: 0,
                    next_send_at: now,
                });
            }
        }
        let mut to_send = None;
        if let Some(cur) = self.current.as_mut() {
            if now >= cur.next_send_at {
                let retx = cur.attempt > 0;
                if retx {
                    self.retransmissions += 1;
                }
                cur.attempt += 1;
                let delay = self.policy.delay(cur.attempt, &mut self.rng).max(1);
                cur.next_send_at = now + delay;
                to_send = Some((
                    Msg::Stmt {
                        seq: cur.seq,
                        deadline_ms: 0,
                        sql: cur.sql.clone(),
                    },
                    retx,
                ));
            }
        }
        if let Some((msg, retx)) = to_send {
            self.send_to_server(&msg, retx, "stmt");
        }
    }

    /// Ticks until quiescence (handshaken, nothing pending or in
    /// flight) or `max_ticks`.
    pub fn run(&mut self, db: &mut Database, max_ticks: u64) -> ChaosNetReport {
        let start = self.now;
        while self.now - start < max_ticks && !self.quiesced() {
            self.tick(db);
        }
        ChaosNetReport {
            ticks: self.now - start,
            acked: self.acked.len(),
            retransmissions: self.retransmissions,
            fresh: self.sessions.fresh,
            replays: self.sessions.replays,
            quiesced: self.quiesced(),
        }
    }

    /// Whether the run is complete: session up, every statement acked,
    /// nothing left on the wire.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.handshaken
            && self.pending.is_empty()
            && self.current.is_none()
            && self.link.in_flight() == 0
    }

    fn send_to_server(&mut self, msg: &Msg, retransmission: bool, label: &'static str) {
        // A Refused fate (partition) surfaces through the client's
        // retransmission schedule; nothing to do with it here.
        let _ = self.link.send(
            self.now,
            Dir::ToServer,
            encode_msg(msg),
            1,
            retransmission,
            label,
        );
    }

    fn send_to_client(&mut self, msg: &Msg, label: &'static str) {
        let _ = self
            .link
            .send(self.now, Dir::ToClient, encode_msg(msg), 1, false, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_engine::DbConfig;

    fn workload(n: usize) -> Vec<String> {
        let mut stmts = vec!["CREATE TABLE c (k INT, v INT)".to_string()];
        for i in 0..n {
            stmts.push(format!(
                "INSERT INTO c VALUES ({i}, {}) EXPIRES NEVER",
                i * 10
            ));
        }
        stmts
    }

    #[test]
    fn clean_link_applies_everything_once() {
        let mut db = Database::new(DbConfig::default());
        let mut net = ChaosNet::new(FaultSpec::none(1), RetryPolicy::default());
        for s in workload(10) {
            net.submit(&s);
        }
        let report = net.run(&mut db, 10_000);
        assert!(report.quiesced, "{report:?}");
        assert!(net.exactly_once(), "{report:?}");
        assert_eq!(report.retransmissions, 0, "clean link never retransmits");
        assert_eq!(
            db.execute("SELECT * FROM c").unwrap().rows().unwrap().len(),
            10
        );
    }

    #[test]
    fn chaos_link_is_exactly_once_after_heal() {
        let mut db = Database::new(DbConfig::default());
        let mut net = ChaosNet::new(FaultSpec::chaos(42), RetryPolicy::default());
        for s in workload(20) {
            net.submit(&s);
        }
        // Let chaos do its worst for a while, then heal and finish.
        let _ = net.run(&mut db, 400);
        net.link().heal();
        let report = net.run(&mut db, 10_000);
        assert!(report.quiesced, "{report:?}");
        assert!(net.exactly_once(), "duplicated effects: {report:?}");
        assert!(
            report.retransmissions > 0,
            "chaos must have forced retries: {report:?}"
        );
        assert_eq!(
            db.execute("SELECT * FROM c").unwrap().rows().unwrap().len(),
            20,
            "each insert applied exactly once"
        );
    }

    #[test]
    fn no_acked_statement_is_lost_and_none_doubles() {
        let mut db = Database::new(DbConfig::default());
        let mut net = ChaosNet::new(FaultSpec::lossy(7, 0.4), RetryPolicy::default());
        for s in workload(15) {
            net.submit(&s);
        }
        let report = net.run(&mut db, 20_000);
        assert!(report.quiesced, "{report:?}");
        // Every ack corresponds to exactly one execution.
        for (seq, body) in net.acked() {
            assert_eq!(net.exec_counts()[seq], 1, "seq {seq} body {body:?}");
            assert!(!matches!(body, ReplyBody::Err { .. }), "{body:?}");
        }
    }
}
