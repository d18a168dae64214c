//! `view_replica`: the paper's loosely-coupled setting. A replica
//! subscribes to three views over a volatile server and reads them as the
//! server's clock ticks; materialisation, patching and the replica layer
//! do the work, while SQL (beyond the loads), net, WAL and policy do none.

use super::Workload;
use crate::gen::{Op, ReplicaGen, REPLICA_GROUPS, REPLICA_HORIZON, REPLICA_SCHEMA};
use crate::harness::{probe_obs, Class, Recorder, Sample};
use crate::Limit;
use exptime_core::aggregate::AggFunc;
use exptime_core::algebra::{EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime_core::predicate::{CmpOp, Predicate};
use exptime_engine::{Database, DbConfig};
use exptime_replica::{ReadOutcome, Replica};
use std::time::Instant;

/// One replica read in this many is compared with a fresh server
/// evaluation.
const CHECK_EVERY: u64 = 20;

/// The three subscriptions: a monotonic σ-join (Theorem 1: never
/// refreshes), a `COUNT` aggregate (refreshes at its ν change points),
/// and a root difference (Theorem 3: patched, never recomputed).
fn views() -> [(&'static str, Expr); 3] {
    let low = Predicate::attr_cmp_const(1, CmpOp::Lt, (REPLICA_GROUPS / 2) as i64);
    [
        (
            "v_join",
            Expr::base("r")
                .select(low)
                .join(Expr::base("s"), Predicate::attr_eq_attr(0, 2)),
        ),
        ("v_count", Expr::base("r").aggregate([1], AggFunc::Count)),
        (
            "v_diff",
            Expr::base("r")
                .project([0])
                .difference(Expr::base("s").project([0])),
        ),
    ]
}

pub struct ViewReplica {
    server: Database,
    gen: ReplicaGen,
    traced: bool,
    reads: u64,
    expired_base: u64,
}

impl ViewReplica {
    fn load(&mut self, rec: &mut Recorder) {
        let now = self.server.now().finite().expect("a finite clock");
        for Op { sql, expect, .. } in self.gen.load(now) {
            let server = &mut self.server;
            let (result, _) = rec.op(Class::Write, || server.execute(&sql));
            rec.check(result.as_ref().is_ok_and(|r| expect.holds_for(r)));
        }
    }

    /// One epoch: load, subscribe, then read every view at every tick
    /// until the whole load has expired.
    fn epoch(&mut self, rec: &mut Recorder) {
        self.load(rec);
        let mut replica = Replica::new(RefreshPolicy::Patch);
        let start = Instant::now();
        for (name, expr) in views() {
            let subscribed = replica.subscribe(name, expr, &self.server);
            rec.check(subscribed.is_ok());
        }
        rec.push("replica.subscribe_ms", start.elapsed().as_secs_f64() * 1e3);
        // The traced run keeps its own copies of the views to time
        // `MaterializedView::read` directly.
        let mut twins: Vec<MaterializedView> = if self.traced {
            let snapshot = self.server.snapshot();
            views()
                .into_iter()
                .filter_map(|(_, expr)| {
                    MaterializedView::new(
                        expr,
                        &snapshot,
                        self.server.now(),
                        EvalOptions::default(),
                        RefreshPolicy::Patch,
                        RemovalPolicy::Lazy,
                    )
                    .ok()
                })
                .collect()
        } else {
            Vec::new()
        };

        let (mut local, mut tuples) = (0u64, 0u64);
        for _ in 0..REPLICA_HORIZON {
            let server = &mut self.server;
            rec.op(Class::Advance, || server.tick(1));
            for (i, (name, expr)) in views().into_iter().enumerate() {
                let server = &self.server;
                let (result, sample) = rec.op(Class::Read, || replica.read(name, server));
                self.reads += 1;
                let Ok((rel, outcome)) = result else {
                    rec.failed += 1;
                    continue;
                };
                local += u64::from(outcome == ReadOutcome::Local);
                tuples += rel.len() as u64;
                if self.reads.is_multiple_of(CHECK_EVERY) {
                    rec.attempted += 1;
                    let now = self.server.now();
                    let fresh = self.server.query_expr(&expr);
                    rec.check(fresh.is_ok_and(|m| rel.set_eq_at(&m.rel, now)));
                }
                if let (Some(sample), Some(twin)) = (sample, twins.get_mut(i)) {
                    self.probe(outcome, twin, sample, rec);
                }
            }
        }
        let link = replica.link_stats();
        rec.count("replica.messages", link.total_messages() as f64);
        rec.count("replica.tuples", tuples as f64);
        rec.count("replica.reads", (3 * REPLICA_HORIZON) as f64);
        rec.count("replica.local", local as f64);
        rec.count("view.recomputations", replica.total_recomputations() as f64);
        for (_, stats) in replica.view_stats() {
            rec.count("view.reads", stats.reads as f64);
            rec.count("view.local_reads", stats.local_reads as f64);
            rec.count("view.patches_applied", stats.patches_applied as f64);
        }
    }

    /// Names the op by its outcome, and re-drives the read on the twin
    /// view: served fresh from local state, or refreshed from a snapshot.
    fn probe(
        &self,
        outcome: ReadOutcome,
        twin: &mut MaterializedView,
        s: Sample,
        rec: &mut Recorder,
    ) {
        let trace = rec.trace.as_mut().expect("probes run only when tracing");
        let name = match outcome {
            ReadOutcome::Local => "replica.read_local",
            _ => "replica.read_refreshed",
        };
        trace.record(s.op_id, name, s.start, s.ns);
        let now = self.server.now();
        let p = trace.open(0, s.op_id, "probe.read");
        if twin.fresh_at(now) {
            let empty = Catalog::new();
            let _ = trace.time(p, s.op_id, "core.view_read_fresh", || {
                twin.read(&empty, now)
            });
        } else {
            let snapshot = trace.time(p, s.op_id, "engine.snapshot", || self.server.snapshot());
            let _ = trace.time(p, s.op_id, "core.view_refresh", || {
                twin.read(&snapshot, now)
            });
        }
        trace.close(p);
    }
}

impl Workload for ViewReplica {
    fn setup(seed: u64, traced: bool, warm: &mut Recorder) -> Self {
        let mut server = Database::new(DbConfig::default());
        for ddl in REPLICA_SCHEMA {
            server.execute(ddl).expect("schema");
        }
        let mut w = ViewReplica {
            server,
            gen: ReplicaGen::new(seed),
            traced: false,
            reads: 0,
            expired_base: 0,
        };
        // Untimed warm-up: one whole epoch, so allocator and tables are in
        // the state every measured epoch starts from.
        w.epoch(warm);
        w.traced = traced;
        w.expired_base = w.server.stats().expired;
        w
    }

    fn run(&mut self, limit: Limit, rec: &mut Recorder) {
        let start = Instant::now();
        let mut rounds = 0;
        while !limit.reached(start, rounds) {
            self.epoch(rec);
            rounds += 1;
            rec.round_done(rounds);
        }
    }

    fn finish(self, rec: &mut Recorder) {
        let expired = self.server.stats().expired - self.expired_base;
        rec.count("engine.expired", expired as f64);
        if rec.trace.is_some() {
            probe_obs(&self.server, rec);
        }
    }
}
