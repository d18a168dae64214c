//! `session_wire`: a served session store. One client connection over
//! loopback TCP drives a durable `SharedDatabase` through `NetServer`, on a
//! table with a default TTL that `UPDATE … SET EXPIRES DEFAULT` re-arms —
//! the only workload with net framing and admission, the database mutex,
//! policy defaults and touches, and their WAL records on the path.
//!
//! One connection, not two: this machine has two hardware threads, and two
//! clients beside the server's workers made every latency a measure of who
//! the scheduler ran and of which statement happened to queue behind the
//! other client's read — the median of a two-humped distribution, which two
//! sets of runs of one commit put 25 % apart. A closed loop of one has the
//! client and one worker take turns.

use super::durable::{durable_config, recovered_digest, registry_deltas, time_recovery};
use super::Workload;
use crate::gen::{Kind, Op, SessionGen, Shape, SESSION_PREFILL_TICKS, SESSION_SCHEMA};
use crate::harness::{probe_obs, probe_read, registry_counts, Class, Recorder, Sample, Shadow};
use crate::model::Digest;
use crate::Limit;
use exptime_engine::{Database, SharedDatabase, Sliding, TtlPolicy};
use exptime_net::{
    decode_msg, encode_msg, ClientConfig, Msg, NetClient, NetConfig, NetServer, ReplyBody,
};
use exptime_wal::MemStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Untimed rounds over the wire before measuring (threads, sockets and
/// the reply path warm).
const WARMUP_ROUNDS: u64 = 1;
/// Rounds run after an explicit checkpoint before the crash image is
/// taken, so every image holds the same amount of log.
const ROUNDS_AFTER_CHECKPOINT: u64 = 8;
/// The lock and the wire floor are probed once in this many traced ops.
const FLOOR_PROBE_EVERY: u64 = 50;

pub struct SessionWire {
    shared: SharedDatabase,
    server: Option<NetServer>,
    store: MemStore,
    client: NetClient,
    gen: SessionGen,
    shadow: Option<Shadow>,
    base: BTreeMap<String, u64>,
    ops: u64,
}

impl SessionWire {
    fn execute(&mut self, op: &Op, rec: &mut Recorder) {
        let client = &mut self.client;
        let (reply, sample) = rec.op(Class::from(op.kind), || client.execute(&op.sql));
        rec.check(reply.as_ref().is_ok_and(|r| op.expect.holds_for_reply(r)));
        self.ops += 1;
        if let (Some(sample), Ok(reply)) = (sample, &reply) {
            self.probe_wire(op, reply, sample, rec);
        }
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        let probe = rec.trace.as_mut().zip(sample);
        match op.shape {
            Shape::Insert => shadow.insert(op, self.gen.now, probe),
            Shape::Delete => shadow.delete(op),
            Shape::Update => shadow.update_texp(op, self.gen.now, probe),
            _ => {}
        }
        if let Some(sample) = sample.filter(|_| op.kind == Kind::Read) {
            let key = op.row.as_ref().map(|(_, row, _)| row[0]);
            shadow.probe_reads("sessions", self.gen.now, key, rec, sample);
        }
        if rec.trace.is_some() && self.ops.is_multiple_of(FLOOR_PROBE_EVERY) {
            self.probe_floor(rec);
        }
    }

    /// The framing cost of this statement and its reply, and the same
    /// statement again in-process: every statement of this workload is
    /// idempotent within a tick, so the re-drive leaves the state as the
    /// model has it.
    fn probe_wire(&mut self, op: &Op, reply: &ReplyBody, s: Sample, rec: &mut Recorder) {
        let trace = rec.trace.as_mut().expect("probes run only when tracing");
        let id = s.op_id;
        let stmt = Msg::Stmt {
            seq: self.ops,
            deadline_ms: 0,
            sql: op.sql.clone(),
        };
        let frame = trace.time(0, id, "net.encode_stmt", || encode_msg(&stmt));
        let _ = black_box(trace.time(0, id, "net.decode_stmt", || decode_msg(&frame)));
        let answer = Msg::Reply {
            seq: self.ops,
            body: reply.clone(),
        };
        let frame = trace.time(0, id, "net.encode_reply", || encode_msg(&answer));
        let _ = black_box(trace.time(0, id, "net.decode_reply", || decode_msg(&frame)));
        rec.push("net.reply_bytes", frame.len() as f64);
        let trace = rec.trace.as_mut().expect("still tracing");
        if op.kind == Kind::Read {
            let _ = trace.time(0, id, "engine.execute_read", || {
                self.shared.execute(&op.sql)
            });
            self.shared.with(|db| probe_read(db, op, s, rec));
        } else {
            let _ = trace.time(0, id, "engine.execute_write", || {
                self.shared.execute(&op.sql)
            });
        }
    }

    /// How long the database mutex takes to get, and the cheapest
    /// statement's round trip.
    fn probe_floor(&mut self, rec: &mut Recorder) {
        let trace = rec.trace.as_mut().expect("probes run only when tracing");
        // Op id 0: these belong to no sampled operation.
        let id = 0;
        black_box(trace.time(0, id, "engine.lock_probe", || self.shared.now()));
        let client = &mut self.client;
        let _ = trace.time(0, id, "net.roundtrip_floor", || client.execute("SHOW TTL"));
    }

    /// Runs rounds until `limit`: 256 statements over the wire, then the
    /// clock advances by one.
    fn rounds(&mut self, limit: Limit, rec: &mut Recorder) {
        let start = Instant::now();
        let mut rounds = 0;
        loop {
            for op in self.gen.round() {
                self.execute(&op, rec);
            }
            let shared = &self.shared;
            let (_, sample) = rec.op(Class::Advance, || shared.tick(1));
            self.gen.tick();
            if let Some(shadow) = &mut self.shadow {
                shadow.advance(self.gen.now, rec, sample);
            }
            rounds += 1;
            rec.round_done(rounds);
            if limit.reached(start, rounds) {
                break;
            }
        }
    }
}

fn session_policy() -> TtlPolicy {
    TtlPolicy::with_ttl(40)
        .sliding(Sliding::OnModify)
        .clamped(5, 400)
}

impl Workload for SessionWire {
    fn setup(seed: u64, traced: bool, warm: &mut Recorder) -> Self {
        let store = MemStore::new();
        let mut db = Database::open_with_store(Box::new(store.clone()), durable_config())
            .expect("an empty store opens");
        db.execute(SESSION_SCHEMA).expect("schema");
        let mut gen = SessionGen::new(seed);
        let mut shadow =
            traced.then(|| Shadow::new(&[("sessions", 3)], true, true, Some(session_policy())));
        // In-process prefill: 40 ticks of logins leave ≈2 000 sessions
        // whose expirations are staggered over the next 40 ticks.
        for _ in 0..SESSION_PREFILL_TICKS {
            for op in gen.prefill() {
                db.execute(&op.sql).expect("prefill login");
                if let Some(shadow) = &mut shadow {
                    shadow.insert(&op, gen.now, None);
                }
            }
            db.tick(1);
            gen.tick();
            if let Some(shadow) = &mut shadow {
                shadow.advance(gen.now, warm, None);
            }
        }
        let shared = SharedDatabase::from_database(db);
        let server =
            NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default()).expect("loopback bind");
        let addr = server.local_addr().to_string();
        let client = NetClient::connect(&addr, ClientConfig::default()).expect("connect");
        let mut w = SessionWire {
            shared,
            server: Some(server),
            store,
            client,
            gen,
            shadow,
            base: BTreeMap::new(),
            ops: 0,
        };
        w.rounds(Limit::Rounds(WARMUP_ROUNDS), warm);
        w
    }

    fn run(&mut self, limit: Limit, rec: &mut Recorder) {
        self.base = self.shared.with(|db| registry_counts(db));
        self.rounds(limit, rec);
    }

    fn finish(mut self, rec: &mut Recorder) {
        self.shared.with(|db| {
            registry_deltas(db, &self.base, rec);
            let served = db.metrics().histogram("net.stmt_ns").snapshot();
            rec.count("net.server_stmt_p50_us", served.p50() / 1e3);
            if rec.trace.is_some() {
                probe_obs(db, rec);
            }
        });
        if let Some(status) = self.server.as_ref().map(NetServer::status) {
            rec.count("net.shed", status.shed as f64);
            rec.count("net.replayed", status.replayed as f64);
            rec.count("net.degraded_served", status.degraded_served as f64);
            rec.count("net.deadline_exceeded", status.deadline_exceeded as f64);
        }
        rec.count("net.retries", self.client.stats.retries as f64);

        // A crash image with a fixed amount of log: checkpoint, then a
        // fixed tail of rounds. The tail is checked but not timed.
        let checkpointed = self.shared.with(|db| db.checkpoint());
        rec.check(checkpointed.is_ok());
        if let Ok(stats) = checkpointed {
            rec.count("wal.checkpoint_bytes", stats.checkpoint_bytes as f64);
        }
        let mut tail = Recorder::new(None);
        self.rounds(Limit::Rounds(ROUNDS_AFTER_CHECKPOINT), &mut tail);
        rec.attempted += tail.attempted + 1;
        rec.failed += tail.failed;
        self.client.close();
        if let Some(server) = self.server.take() {
            server.drain();
        }
        let crashed = self.store.crash(self.store.len());
        let recovered = time_recovery(&crashed, rec);
        let now = self.gen.now;
        let want = Digest::of_ints(self.gen.sessions.live(now));
        let got = recovered_digest(recovered, "sessions", now);
        rec.check(got == Some(want));
    }
}
