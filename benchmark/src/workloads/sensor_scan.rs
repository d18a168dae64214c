//! `sensor_scan`: ad-hoc reads over a volatile sensor window held at a
//! steady size by a trickle of inserts and the clock. The engine's
//! per-query snapshot and the algebra's evaluation are nearly all the
//! time; WAL, net and policy do nothing.

use super::Workload;
use crate::gen::{Kind, Op, SensorGen, Shape, SENSOR_SCHEMA, SENSOR_VIEW, SENSOR_WARMUP_TICKS};
use crate::harness::{probe_obs, probe_read, Class, Recorder, Shadow};
use crate::model::digest_relation;
use crate::Limit;
use exptime_engine::{Database, DbConfig, ExecResult};
use std::time::Instant;

pub struct SensorScan {
    db: Database,
    gen: SensorGen,
    shadow: Option<Shadow>,
    /// View recomputations, view reads and expirations when the run began.
    base: (u64, u64, u64),
}

impl SensorScan {
    fn execute(&mut self, op: &Op, rec: &mut Recorder) {
        let db = &mut self.db;
        let (result, sample) = rec.op(Class::from(op.kind), || {
            if op.shape == Shape::View {
                db.read_view(&op.sql).map(ExecResult::Rows)
            } else {
                db.execute(&op.sql)
            }
        });
        rec.check(result.as_ref().is_ok_and(|r| op.expect.holds_for(r)));
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        match op.kind {
            Kind::Write => shadow.insert(op, self.gen.now, rec.trace.as_mut().zip(sample)),
            Kind::Read => {
                if let Some(sample) = sample {
                    probe_read(&self.db, op, sample, rec);
                    let key = (op.shape == Shape::Point)
                        .then(|| op.sql.rsplit(' ').next().and_then(|k| k.parse().ok()))
                        .flatten();
                    shadow.probe_reads("readings", self.gen.now, key, rec, sample);
                }
            }
        }
    }

    /// One round: the clock ticks, the trickle arrives, fifty queries run.
    fn round(&mut self, rec: &mut Recorder, with_queries: bool) {
        let db = &mut self.db;
        let (_, sample) = rec.op(Class::Advance, || db.tick(1));
        self.gen.tick();
        if let Some(shadow) = &mut self.shadow {
            shadow.advance(self.gen.now, rec, sample);
        }
        for op in self.gen.writes() {
            self.execute(&op, rec);
        }
        if with_queries {
            for op in self.gen.queries() {
                self.execute(&op, rec);
            }
        }
    }

    fn counts(&self) -> (u64, u64, u64) {
        let s = self.db.view_stats(SENSOR_VIEW).expect("the view exists");
        (s.recomputations, s.reads, self.db.stats().expired)
    }
}

impl Workload for SensorScan {
    fn setup(seed: u64, traced: bool, warm: &mut Recorder) -> Self {
        let mut db = Database::new(DbConfig::default());
        for ddl in SENSOR_SCHEMA {
            db.execute(ddl).expect("schema");
        }
        let mut gen = SensorGen::new(seed);
        for op in gen.load() {
            db.execute(&op.sql).expect("dimension rows load");
        }
        let mut w = SensorScan {
            db,
            gen,
            shadow: traced
                .then(|| Shadow::new(&[("readings", 3), ("alerts", 2)], true, false, None)),
            base: (0, 0, 0),
        };
        // Untimed warm-up: after the longest lifetime has passed the
        // window holds its steady ≈8 000 rows with staggered expirations.
        for _ in 0..SENSOR_WARMUP_TICKS {
            w.round(warm, false);
        }
        w.round(warm, true);
        w
    }

    fn run(&mut self, limit: Limit, rec: &mut Recorder) {
        // A read here is milliseconds and there are few of them: probe one
        // in four so every query shape gets samples.
        rec.sample_every = [4, 8, 1];
        self.base = self.counts();
        let start = Instant::now();
        let mut rounds = 0;
        while !limit.reached(start, rounds) {
            self.round(rec, true);
            rounds += 1;
            rec.round_done(rounds);
        }
    }

    fn finish(mut self, rec: &mut Recorder) {
        let (recomputations, reads, expired) = self.counts();
        rec.count("view.recomputations", (recomputations - self.base.0) as f64);
        rec.count("view.reads", (reads - self.base.1) as f64);
        rec.count("engine.expired", (expired - self.base.2) as f64);
        if rec.trace.is_some() {
            probe_obs(&self.db, rec);
        }
        // The window the run ends with must still equal the model's.
        rec.attempted += 1;
        let got = self
            .db
            .execute("SELECT * FROM readings")
            .ok()
            .and_then(|r| r.rows().map(digest_relation));
        let want = crate::model::Digest::of_ints(self.gen.readings.live(self.gen.now));
        rec.check(got == Some(want));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_model_is_caught() {
        let mut w = SensorScan::setup(7, false, &mut Recorder::new(None));
        let mut rec = Recorder::new(None);
        w.round(&mut rec, true);
        assert_eq!(rec.failed, 0, "the right model agrees with the engine");
        // A model that forgets expiration: rows due in the next ticks stay
        // visible to it, so its point reads and window digest must disagree.
        for (_, texp) in &mut w.gen.readings.rows {
            *texp = crate::model::NEVER;
        }
        for _ in 0..4 {
            w.round(&mut rec, true);
        }
        assert!(rec.failed > 0, "the checker let a wrong model pass");
        w.finish(&mut rec);
    }
}
