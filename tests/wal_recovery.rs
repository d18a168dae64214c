//! Crash-recovery properties of the expiration-aware WAL.
//!
//! The central invariant: **crash anywhere, recover the committed
//! prefix.** A seeded SQL workload runs against a WAL-backed database on
//! an in-memory store; after every operation the test records a
//! milestone (log length + SQL dump of the in-memory state). The store
//! is then crashed at a battery of byte offsets — milestone boundaries,
//! off-by-one probes around them, and random cuts that land mid-frame —
//! and reopened. Whatever the offset, the recovered database must be
//! semantically identical (clock, every table, every view, and their
//! futures under further ticks) to the milestone whose durable log fit
//! inside the cut: torn frames and uncommitted transactions vanish,
//! committed statements survive, nothing in between.
//!
//! The seed matrix honours `EXPTIME_CRASH_SEEDS` (comma-separated
//! integers) so CI can pin distinct deterministic workloads per job,
//! mirroring the replica layer's `EXPTIME_CHAOS_SEEDS`.

use exptime::prelude::*;
use exptime::wal::{FaultPlan, MemStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Check = std::result::Result<(), String>;

fn wal_config(group_commit: usize) -> DbConfig {
    DbConfig {
        durability: Durability::Wal {
            group_commit,
            checkpoint_every: 0, // manual checkpoints only: eras are explicit
            expiration_aware: true,
        },
        ..DbConfig::default()
    }
}

/// One recorded point of the workload: the durable log position and a
/// full SQL dump of the in-memory state at that instant. `era` counts
/// checkpoints — a crash of the final store can only land in the final
/// era, because checkpointing truncates the log.
struct Milestone {
    era: usize,
    log_len: u64,
    dump: String,
}

struct Workload {
    store: MemStore,
    milestones: Vec<Milestone>,
    group_commit: usize,
}

/// Runs a seeded workload — inserts (finite and eternal expirations,
/// multi-row), deletes, expiration updates, clock ticks, materialised
/// views, and interleaved manual checkpoints — checking every view
/// against its definition and recording a milestone after every
/// operation.
fn run_workload(seed: u64, ops: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let group_commit = [1, 2, 8][rng.gen_range(0..3usize)];
    let store = MemStore::new();
    let mut db =
        Database::open_with_store(Box::new(store.clone()), wal_config(group_commit)).unwrap();
    db.execute("CREATE TABLE t0 (k INT, v TEXT)").unwrap();
    db.execute("CREATE TABLE t1 (k INT, v TEXT)").unwrap();

    let mut era = 0usize;
    let mut next_k = 0i64;
    // The table each `mv{i}` is defined over.
    let mut views: Vec<&str> = Vec::new();
    let mut milestones = vec![Milestone {
        era,
        log_len: store.len(),
        dump: db.dump_sql(),
    }];
    let strings = ["", "x", "it's", "ünïcödé ∞", "two  words"];
    for _ in 0..ops {
        let table = if rng.gen_bool(0.5) { "t0" } else { "t1" };
        let roll = rng.gen_range(0..100u32);
        if roll < 45 {
            let n_rows = rng.gen_range(1..4usize);
            let mut rows = Vec::new();
            for _ in 0..n_rows {
                let s = strings[rng.gen_range(0..strings.len())].replace('\'', "''");
                rows.push(format!("({next_k}, '{s}')"));
                next_k += 1;
            }
            let expires = if rng.gen_bool(0.15) {
                "EXPIRES NEVER".to_string()
            } else {
                format!("EXPIRES IN {} TICKS", rng.gen_range(1..25u64))
            };
            db.execute(&format!(
                "INSERT INTO {table} VALUES {} {expires}",
                rows.join(", ")
            ))
            .unwrap();
        } else if roll < 57 && next_k > 0 {
            let k = rng.gen_range(0..next_k);
            db.execute(&format!("DELETE FROM {table} WHERE k = {k}"))
                .unwrap();
        } else if roll < 67 && next_k > 0 {
            let k = rng.gen_range(0..next_k);
            let n = rng.gen_range(1..20u64);
            db.execute(&format!(
                "UPDATE {table} SET EXPIRES IN {n} TICKS WHERE k = {k}"
            ))
            .unwrap();
        } else if roll < 82 {
            db.tick(rng.gen_range(1..4u64));
        } else if roll < 90 {
            db.checkpoint().unwrap();
            era += 1;
        } else if views.len() < 3 {
            db.execute(&format!(
                "CREATE MATERIALIZED VIEW mv{} AS SELECT k FROM {table}",
                views.len()
            ))
            .unwrap();
            views.push(table);
        } else {
            db.tick(1);
        }
        // View ≡ base under the full write mix: whatever the operation
        // was, every view equals a fresh evaluation of its definition.
        for (i, table) in views.iter().enumerate() {
            let view = db.read_view(&format!("mv{i}")).unwrap();
            let fresh = db.execute(&format!("SELECT k FROM {table}")).unwrap();
            assert!(
                view.set_eq_at(fresh.rows().unwrap(), db.now()),
                "[seed {seed}] mv{i} diverged from `SELECT k FROM {table}` at {}",
                db.now()
            );
        }
        milestones.push(Milestone {
            era,
            log_len: store.len(),
            dump: db.dump_sql(),
        });
    }
    db.wal_sync().unwrap();
    drop(db);
    Workload {
        store,
        milestones,
        group_commit,
    }
}

/// Recovered-vs-oracle equivalence: same clock, same answer from every
/// table and view, now and after further ticks (expirations continue in
/// lockstep because the texps and the clock round-tripped exactly).
fn check_equiv(ctx: &str, recovered: &mut Database, oracle_dump: &str) -> Check {
    let mut oracle =
        Database::restore(oracle_dump).map_err(|e| format!("{ctx}: oracle restore: {e}"))?;
    if recovered.now() != oracle.now() {
        return Err(format!(
            "{ctx}: clock diverged: recovered t={} oracle t={}",
            recovered.now(),
            oracle.now()
        ));
    }
    let mut rec_views = recovered.view_names();
    let mut ora_views = oracle.view_names();
    rec_views.sort();
    ora_views.sort();
    if rec_views != ora_views {
        return Err(format!(
            "{ctx}: views diverged: recovered {rec_views:?} oracle {ora_views:?}"
        ));
    }
    for delta in [0u64, 3, 11] {
        if delta > 0 {
            recovered.tick(delta);
            oracle.tick(delta);
        }
        for t in ["t0", "t1"] {
            let q = format!("SELECT * FROM {t}");
            let a = recovered
                .execute(&q)
                .map_err(|e| format!("{ctx}: recovered `{q}`: {e}"))?
                .rows()
                .unwrap()
                .clone();
            let b = oracle.execute(&q).unwrap().rows().unwrap().clone();
            if !a.set_eq(&b) {
                return Err(format!(
                    "{ctx}: `{q}` diverged after +{delta}:\n  recovered {a:?}\n  oracle {b:?}"
                ));
            }
        }
        for v in &rec_views {
            let a = recovered
                .read_view(v)
                .map_err(|e| format!("{ctx}: recovered view `{v}`: {e}"))?;
            let b = oracle.read_view(v).unwrap();
            if !a.set_eq(&b) {
                return Err(format!("{ctx}: view `{v}` diverged after +{delta}"));
            }
        }
    }
    Ok(())
}

/// The committed-prefix invariant for one workload: crash the final
/// store at every interesting offset and demand the recovered state
/// equal the last milestone whose log fit inside the cut.
fn check_crash_anywhere(seed: u64) -> Check {
    let Workload {
        store,
        milestones,
        group_commit,
    } = run_workload(seed, 40);
    let final_len = store.len();
    let final_era = milestones.last().unwrap().era;

    // Offsets: exact milestone boundaries, off-by-one probes around
    // them (mid-frame cuts), and random interior offsets.
    let mut offsets = vec![0u64, final_len];
    for m in &milestones {
        if m.era == final_era {
            offsets.push(m.log_len);
            offsets.push(m.log_len.saturating_sub(1));
            offsets.push((m.log_len + 1).min(final_len));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    for _ in 0..10 {
        offsets.push(rng.gen_range(0..=final_len));
    }
    offsets.sort_unstable();
    offsets.dedup();

    for &offset in &offsets {
        let crashed = store.crash(offset);
        let mut recovered = Database::open_with_store(Box::new(crashed), wal_config(group_commit))
            .map_err(|e| format!("[seed {seed}] open after crash at {offset}/{final_len}: {e}"))?;
        // Recovery always ends on a fresh checkpoint: clean log.
        let status = recovered.wal_status().unwrap();
        if status.log_bytes != 0 {
            return Err(format!(
                "[seed {seed}] crash at {offset}: log not truncated after recovery ({} bytes)",
                status.log_bytes
            ));
        }
        let expected = milestones
            .iter()
            .rfind(|m| m.era == final_era && m.log_len <= offset)
            .expect("the era's checkpoint milestone has log_len 0");
        let ctx = format!("[seed {seed}] crash at byte {offset}/{final_len}");
        check_equiv(&ctx, &mut recovered, &expected.dump)?;
    }
    Ok(())
}

/// Deterministic seed matrix for CI: `EXPTIME_CRASH_SEEDS=1,2,3` pins
/// the exact workloads; the default covers eight distinct ones.
#[test]
fn crash_seed_matrix() {
    let seeds = std::env::var("EXPTIME_CRASH_SEEDS").unwrap_or_else(|_| "1,2,3,4,5,6,7,8".into());
    let mut ran = 0usize;
    for part in seeds.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("EXPTIME_CRASH_SEEDS entry `{part}`: {e}"));
        if let Err(msg) = check_crash_anywhere(seed) {
            panic!("crash matrix: {msg}");
        }
        ran += 1;
    }
    assert!(ran > 0, "EXPTIME_CRASH_SEEDS selected no seeds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds beyond the pinned matrix: the committed-prefix
    /// invariant holds for arbitrary workloads and arbitrary cuts.
    #[test]
    fn crash_at_any_offset_recovers_committed_prefix(seed in 9u64..1_000_000) {
        let r = check_crash_anywhere(seed);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Media corruption: flipping any single bit of the log must never make
/// recovery fail or invent state — it bounds recovery to the committed
/// prefix before the damaged frame.
#[test]
fn bit_flip_bounds_recovery_to_the_prefix_before_the_damage() {
    for seed in [3u64, 17, 99] {
        let Workload {
            store,
            milestones,
            group_commit,
        } = run_workload(seed, 30);
        let final_len = store.len();
        let final_era = milestones.last().unwrap().era;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB17);
        for _ in 0..8 {
            let byte = rng.gen_range(0..final_len);
            let bit = rng.gen_range(0..8u8);
            let damaged = store.crash(final_len); // independent copy
            damaged.flip_bit(byte, bit);
            let mut recovered =
                Database::open_with_store(Box::new(damaged), wal_config(group_commit))
                    .unwrap_or_else(|e| {
                        panic!("[seed {seed}] open with flipped bit {byte}.{bit}: {e}")
                    });
            // The frame containing the damaged byte is rejected, so the
            // recovered state is the last milestone at or before it.
            let expected = milestones
                .iter()
                .rfind(|m| m.era == final_era && m.log_len <= byte)
                .expect("era checkpoint milestone");
            let ctx = format!("[seed {seed}] bit flip at {byte}.{bit}/{final_len}");
            if let Err(msg) = check_equiv(&ctx, &mut recovered, &expected.dump) {
                panic!("{msg}");
            }
        }
    }
}

/// The rows of `table` and their expiration times, read below SQL (a
/// `SELECT` would itself touch a `SLIDING ON ACCESS` table).
fn stored_rows(db: &Database, table: &str) -> Vec<(Tuple, Time)> {
    let mut rows: Vec<(Tuple, Time)> = db
        .table(table)
        .unwrap()
        .scan_at(db.now())
        .map(|(t, e)| (t.clone(), e))
        .collect();
    rows.sort();
    rows
}

/// An injected write fault mid-workload, once for each kind of statement
/// that changes a row: the failing statement errors and the database
/// flags itself degraded — durable and in-memory state have diverged by
/// that statement — but in memory nothing lies: a materialised view over
/// the table equals a fresh evaluation of its definition, now and as the
/// clock moves on, and the `inserts = stored + deletes + expired` ledger
/// holds. A successful checkpoint — which re-snapshots everything —
/// heals the flag. Reopening from the store at any point never sees the
/// torn frame.
#[test]
fn io_fault_degrades_and_checkpoint_heals() {
    // (table options, the statement whose data record is torn)
    let cases = [
        ("", "INSERT INTO t VALUES (4, 'd') EXPIRES IN 50 TICKS"),
        ("", "DELETE FROM t WHERE k = 2"),
        ("", "UPDATE t SET EXPIRES AT 9 WHERE k = 2"),
        (" TTL 10 SLIDING ON ACCESS", "SELECT v FROM t WHERE k = 1"),
    ];
    for (options, stmt) in cases {
        let store = MemStore::new();
        let mut db = Database::open_with_store(Box::new(store.clone()), wal_config(1)).unwrap();
        db.execute(&format!("CREATE TABLE t (k INT, v TEXT){options}"))
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c') EXPIRES IN 12 TICKS")
            .unwrap();
        db.tick(8);
        db.execute("CREATE MATERIALIZED VIEW v AS SELECT k FROM t")
            .unwrap();
        let definition = Expr::base("t").project([0]);
        assert_eq!(db.read_view("v").unwrap().len(), 3);
        let before = stored_rows(&db, "t");

        // Arm a fault that lets the statement's TxnBegin frame (17 bytes)
        // through and tears the data record itself: the row changes in
        // memory before its WAL append fails — the divergence the
        // degraded flag exists for.
        store.set_fault(Some(FaultPlan {
            fail_after_bytes: store.len() + 20,
            torn_bytes: 3,
        }));
        let res = db.execute(stmt);
        assert!(
            res.is_err(),
            "`{stmt}` with a failing WAL append must error"
        );
        assert!(db.wal_status().unwrap().degraded, "`{stmt}`: degraded flag");
        store.set_fault(None);
        assert_ne!(stored_rows(&db, "t"), before, "`{stmt}` applied in memory");

        // Recovery from the torn store sees only the committed prefix.
        let reopened =
            Database::open_with_store(Box::new(store.crash(store.len())), wal_config(1)).unwrap();
        assert_eq!(
            stored_rows(&reopened, "t"),
            before,
            "`{stmt}`: the torn statement must not survive recovery"
        );

        // Degraded is about durability only: views and counters follow
        // the rows that are in memory. (Row 2's shortened lifetime ends at
        // 9, the untouched rows' at 12.)
        for delta in [0, 1, 4] {
            db.tick(delta);
            let now = db.now();
            let view = db.read_view("v").unwrap();
            let fresh = db.query_expr(&definition).unwrap().rel;
            assert!(
                view.set_eq_at(&fresh, now),
                "`{stmt}`: view diverged from its definition at {now}:\n{view:?}\nvs {fresh:?}"
            );
            let stats = db.stats();
            let stored = db.table("t").unwrap().len() as u64;
            assert_eq!(
                stats.inserts,
                stored + stats.deletes + stats.expired,
                "`{stmt}` at {now}: stored={stored} {stats:?}"
            );
        }

        // A checkpoint re-snapshots the full in-memory state and heals.
        let ck = db.checkpoint().unwrap();
        assert!(!db.wal_status().unwrap().degraded);
        let live = stored_rows(&db, "t");
        assert_eq!(ck.live_rows, live.len() as u64, "`{stmt}`");
        let healed =
            Database::open_with_store(Box::new(store.crash(store.len())), wal_config(1)).unwrap();
        assert_eq!(
            stored_rows(&healed, "t"),
            live,
            "`{stmt}`: post-checkpoint recovery has the full state"
        );
    }
}

/// End-to-end through the real file store: write, drop, reopen from the
/// directory, verify, then crash-cut the log file by hand and reopen.
#[test]
fn file_store_survives_reopen_and_truncated_log() {
    let dir = std::env::temp_dir().join(format!("exptime-wal-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = wal_config(2);
    {
        let mut db = Database::open(&dir, config).unwrap();
        db.execute("CREATE TABLE t0 (k INT, v TEXT)").unwrap();
        db.execute("INSERT INTO t0 VALUES (1, 'keep') EXPIRES NEVER")
            .unwrap();
        db.execute("INSERT INTO t0 VALUES (2, 'dies') EXPIRES IN 3 TICKS")
            .unwrap();
        db.tick(5);
    }
    {
        let mut db = Database::open(&dir, config).unwrap();
        let rec = db.recovery_stats().unwrap();
        assert_eq!(rec.clock, 5);
        assert_eq!(
            rec.skipped_expired, 1,
            "the dead insert is skipped, not replayed: {rec:?}"
        );
        let rows = db
            .execute("SELECT * FROM t0")
            .unwrap()
            .rows()
            .unwrap()
            .clone();
        assert_eq!(rows.len(), 1);
        db.execute("INSERT INTO t0 VALUES (3, 'tail') EXPIRES NEVER")
            .unwrap();
        db.wal_sync().unwrap();
    }
    // Tear the log mid-frame with plain filesystem tools: the tail
    // statement is cut and must vanish; everything checkpointed stays.
    let log = dir.join("wal.log");
    let len = std::fs::metadata(&log).unwrap().len();
    assert!(len > 4, "the tail insert left frames in the log");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 4]).unwrap();
    {
        let mut db = Database::open(&dir, config).unwrap();
        let rec = db.recovery_stats().unwrap();
        assert!(rec.torn_bytes > 0, "the cut frame is a torn tail: {rec:?}");
        let rows = db
            .execute("SELECT * FROM t0")
            .unwrap()
            .rows()
            .unwrap()
            .clone();
        assert_eq!(rows.len(), 1, "torn tail statement must not survive");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints under load commute with recovery: however writes, ticks
/// and checkpoints interleave, crashing right at the end reproduces the
/// live state exactly (the final milestone).
#[test]
fn checkpoint_under_load_preserves_replay_equivalence() {
    for seed in [21u64, 42, 84, 168] {
        let Workload {
            store,
            milestones,
            group_commit,
        } = run_workload(seed, 60);
        let mut recovered =
            Database::open_with_store(Box::new(store.crash(store.len())), wal_config(group_commit))
                .unwrap();
        let last = milestones.last().unwrap();
        let ctx = format!("[seed {seed}] crash at end-of-log");
        if let Err(msg) = check_equiv(&ctx, &mut recovered, &last.dump) {
            panic!("{msg}");
        }
    }
}
