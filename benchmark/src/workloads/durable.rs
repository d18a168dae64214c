//! What the two durable workloads share: the shipped WAL configuration,
//! timed crash recovery, and the registry deltas a run reports.

use crate::harness::{registry_counts, Recorder};
use crate::model::{digest_relation, Digest};
use crate::stats::median;
use exptime_engine::{Database, DbConfig, Durability};
use exptime_wal::{committed_prefix, replay_plan, scan_log, MemStore};
use std::collections::BTreeMap;
use std::time::Instant;

const RECOVERIES: usize = 9;

pub fn durable_config() -> DbConfig {
    DbConfig {
        durability: Durability::wal(),
        ..DbConfig::default()
    }
}

/// Times `Database::open_with_store` on fresh copies of a crash image;
/// returns the median in ms and the first recovered database.
pub fn time_recovery(crashed: &MemStore, rec: &mut Recorder) -> Option<Database> {
    let mut ms = Vec::with_capacity(RECOVERIES);
    let mut first = None;
    for _ in 0..RECOVERIES {
        let copy = crashed.crash(crashed.len());
        let start = Instant::now();
        let db = Database::open_with_store(Box::new(copy), durable_config());
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        match db {
            Ok(db) if first.is_none() => first = Some(db),
            Ok(_) => {}
            Err(_) => {
                rec.failed += 1;
                return None;
            }
        }
    }
    rec.count("recovery_ms", median(&mut ms));
    rec.count("wal.log_bytes_at_crash", crashed.len() as f64);
    if let Some(stats) = first.as_ref().and_then(Database::recovery_stats) {
        rec.count("engine.recovery_replayed", stats.replayed as f64);
        rec.count(
            "engine.recovery_skipped_expired",
            stats.skipped_expired as f64,
        );
        if rec.trace.is_some() {
            probe_replay(crashed, stats.checkpoint_clock, rec);
        }
    }
    first
}

/// The live rows of `table` in a recovered database, provided its clock
/// came back at `now`.
pub fn recovered_digest(db: Option<Database>, table: &str, now: u64) -> Option<Digest> {
    let mut db = db?;
    if db.now().finite() != Some(now) {
        return None;
    }
    let result = db.execute(&format!("SELECT * FROM {table}")).ok()?;
    result.rows().map(digest_relation)
}

/// The decode and planning legs of recovery, timed on the crash image
/// through the WAL crate's public functions.
fn probe_replay(crashed: &MemStore, checkpoint_clock: u64, rec: &mut Recorder) {
    let log = crashed.raw_log();
    let (mut scan_ms, mut plan_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let start = Instant::now();
        let scan = scan_log(&log);
        scan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let (ops, _) = committed_prefix(&scan.records);
        let plan = replay_plan(ops, checkpoint_clock, true);
        plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(plan);
    }
    rec.count("wal.scan_log_ms", median(&mut scan_ms));
    rec.count("wal.replay_plan_ms", median(&mut plan_ms));
}

/// Registry counter deltas since `base`, as per-layer counts.
pub fn registry_deltas(db: &Database, base: &BTreeMap<String, u64>, rec: &mut Recorder) {
    let now = registry_counts(db);
    let delta = |name: &str| {
        (now.get(name).copied().unwrap_or(0) - base.get(name).copied().unwrap_or(0)) as f64
    };
    rec.count("wal.bytes", delta("wal.bytes"));
    rec.count("wal.records", delta("wal.records"));
    rec.count("wal.fsyncs", delta("wal.fsyncs"));
    rec.count("engine.checkpoints", delta("wal.checkpoints"));
    rec.count("engine.expired", delta("db.expired"));
    rec.count("policy.touches", delta("policy.sliding_touches"));
    rec.count("policy.clamped", delta("policy.clamped"));
}
