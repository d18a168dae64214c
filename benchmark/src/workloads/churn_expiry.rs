//! `churn_expiry`: short-lived data written and expired through a durable
//! embedded database — SQL parse, storage insert/expire, and WAL
//! append/checkpoint/replay do the work; query evaluation almost none.

use super::durable::{durable_config, recovered_digest, registry_deltas, time_recovery};
use super::Workload;
use crate::gen::{ChurnGen, Kind, Op, CHURN_MAX_LIFETIME, CHURN_SCHEMA};
use crate::harness::{probe_obs, probe_read, registry_counts, Class, Recorder, Shadow};
use crate::model::Digest;
use crate::Limit;
use exptime_engine::Database;
use exptime_wal::{MemStore, WalStore};
use std::collections::BTreeMap;
use std::time::Instant;

/// The run ends this many ticks after an automatic checkpoint, so every
/// crash image holds the same number of rounds of log.
const TICKS_AFTER_CHECKPOINT: u64 = 60;

pub struct ChurnExpiry {
    db: Database,
    store: MemStore,
    gen: ChurnGen,
    shadow: Option<Shadow>,
    base: BTreeMap<String, u64>,
}

impl ChurnExpiry {
    fn execute(&mut self, op: &Op, rec: &mut Recorder) {
        let db = &mut self.db;
        let (result, sample) = rec.op(Class::from(op.kind), || db.execute(&op.sql));
        rec.check(result.as_ref().is_ok_and(|r| op.expect.holds_for(r)));
        match (op.kind, &mut self.shadow) {
            (Kind::Write, Some(shadow)) => {
                let probe = rec.trace.as_mut().zip(sample);
                shadow.insert(op, self.gen.now, probe);
            }
            (Kind::Read, Some(shadow)) => {
                if let Some(sample) = sample {
                    probe_read(&self.db, op, sample, rec);
                    shadow.probe_reads("events", self.gen.now, None, rec, sample);
                }
            }
            _ => {}
        }
    }

    fn advance(&mut self, rec: &mut Recorder) {
        let checkpoints = self.db.metrics().counter("wal.checkpoints");
        let before = checkpoints.get();
        let db = &mut self.db;
        let (_, sample) = rec.op(Class::Advance, || db.tick(1));
        self.gen.tick();
        if let Some(shadow) = &mut self.shadow {
            shadow.advance(self.gen.now, rec, sample);
            if let Some(s) = sample.filter(|_| checkpoints.get() > before) {
                rec.push("engine.checkpoint_tick_ms", s.ns as f64 / 1e6);
            }
        }
    }
}

impl Workload for ChurnExpiry {
    fn setup(seed: u64, traced: bool, warm: &mut Recorder) -> Self {
        let store = MemStore::new();
        let mut db = Database::open_with_store(Box::new(store.clone()), durable_config())
            .expect("an empty store opens");
        db.execute(CHURN_SCHEMA).expect("schema");
        let mut w = ChurnExpiry {
            db,
            store,
            gen: ChurnGen::new(seed),
            shadow: traced.then(|| Shadow::new(&[("events", 2)], false, true, None)),
            base: BTreeMap::new(),
        };
        // Untimed warm-up to the steady ≈32 000 live rows: after the
        // longest lifetime has passed, as many rows expire as arrive.
        for _ in 0..CHURN_MAX_LIFETIME {
            for op in w.gen.round() {
                w.execute(&op, warm);
            }
            w.advance(warm);
        }
        w
    }

    fn run(&mut self, limit: Limit, rec: &mut Recorder) {
        // Inserts are microseconds each: probe one in 256 so the span log
        // stays small.
        rec.sample_every = [1, 256, 1];
        self.base = registry_counts(&self.db);
        let start = Instant::now();
        let mut rounds = 0;
        loop {
            for op in self.gen.round() {
                self.execute(&op, rec);
            }
            self.advance(rec);
            rounds += 1;
            rec.round_done(rounds);
            let since_checkpoint =
                self.gen.now - self.db.wal_status().map_or(0, |s| s.last_checkpoint_clock);
            if limit.reached(start, rounds) && since_checkpoint == TICKS_AFTER_CHECKPOINT {
                break;
            }
        }
    }

    fn finish(mut self, rec: &mut Recorder) {
        registry_deltas(&self.db, &self.base, rec);
        if rec.trace.is_some() {
            probe_obs(&self.db, rec);
        }
        let crashed = self.store.crash(self.store.len());
        drop(self.db);
        if let Ok(Some(blob)) = self.store.checkpoint_read() {
            rec.count("wal.checkpoint_bytes", blob.len() as f64);
        }
        // The recovered live set must equal the model's.
        rec.attempted += 1;
        let recovered = time_recovery(&crashed, rec);
        let want = Digest::of_ints(self.gen.events.live(self.gen.now));
        let got = recovered_digest(recovered, "events", self.gen.now);
        rec.check(got == Some(want));
    }
}
