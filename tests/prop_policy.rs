//! Property tests for the TTL policy layer (PR 9's tentpole):
//!
//! 1. **sliding-touch monotonicity** — a touch never moves an expiration
//!    backwards, `slid` is set exactly when it moved forwards, and a
//!    whole session of touches at non-decreasing clocks produces a
//!    non-decreasing expiration sequence;
//! 2. **clamp idempotence** — feeding a policy's own verdict back in as
//!    the requested expiration is a fixed point: the composition
//!    default → clamp → maintenance cannot displace its own output; and
//! 3. **forecast conservation under sliding workloads** — with reads
//!    re-arming rows mid-flight, the expiration-horizon forecast's
//!    bucket sum still equals the live row count at every advance.
//!
//! The crash matrix honours `EXPTIME_POLICY_SEEDS` (comma-separated
//! integers), mirroring `EXPTIME_CHAOS_SEEDS`/`EXPTIME_CRASH_SEEDS`: a
//! seeded workload of policy DDL, inserts, ticks, and touching reads
//! runs on a WAL-backed in-memory store, crashes without a checkpoint,
//! and must recover the policy catalog and every surviving expiration
//! exactly — with no resurrection of rows that expired before the crash.

use exptime::policy::{Event, Sliding, TouchKind, TtlPolicy};
use exptime::prelude::*;
use exptime::wal::MemStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_policy() -> impl Strategy<Value = TtlPolicy> {
    (
        proptest::option::of(0u64..400),
        prop_oneof![
            Just(Sliding::Absolute),
            Just(Sliding::OnModify),
            Just(Sliding::OnAccess),
        ],
        proptest::option::of((0u64..200, 0u64..400).prop_map(|(min, extra)| (min, min + extra))),
        proptest::option::of((0u64..500, 0u64..300).prop_map(|(s, len)| (s, s + len))),
    )
        .prop_map(|(ttl, sliding, clamp, maintenance)| {
            let mut p = TtlPolicy {
                ttl,
                sliding,
                ..TtlPolicy::default()
            };
            if let Some((min, max)) = clamp {
                p = p.clamped(min, max);
            }
            if let Some((start, end)) = maintenance {
                p = p.with_maintenance(start, end);
            }
            p
        })
}

fn arb_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        8 => (0u64..1000).prop_map(Time::new),
        1 => Just(Time::INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A touch never decreases the expiration, and `slid` is set exactly
    /// when it strictly increased it.
    #[test]
    fn touch_is_monotone(
        policy in arb_policy(),
        current in arb_time(),
        now in 0u64..1000,
        access in any::<bool>(),
    ) {
        let kind = if access { TouchKind::Access } else { TouchKind::Modify };
        let fx = policy.effective_texp(Event::Touch { kind, current }, Time::new(now));
        prop_assert!(fx.texp >= current, "touch moved {current} back to {}", fx.texp);
        prop_assert_eq!(fx.slid, fx.texp > current, "slid must mean strictly later");
        if !policy.sliding.slides_on(kind) {
            prop_assert_eq!(fx.texp, current, "non-sliding policies must not touch");
        }
    }

    /// A session of touches at non-decreasing clocks yields a
    /// non-decreasing expiration sequence (the engine applies exactly
    /// this chain on repeated reads of a sliding row).
    #[test]
    fn touch_sessions_never_regress(
        policy in arb_policy(),
        start in arb_time(),
        steps in proptest::collection::vec((0u64..30, any::<bool>()), 1..24),
    ) {
        let mut now = 0u64;
        let mut current = start;
        for (step, access) in steps {
            now += step;
            let kind = if access { TouchKind::Access } else { TouchKind::Modify };
            let fx = policy.effective_texp(Event::Touch { kind, current }, Time::new(now));
            prop_assert!(
                fx.texp >= current,
                "expiration regressed {current} -> {} at t={now}", fx.texp
            );
            current = fx.texp;
        }
    }

    /// Idempotence: the policy's own verdict, requested back verbatim at
    /// the same instant, is a fixed point — clamping and maintenance
    /// displacement never oscillate.
    #[test]
    fn write_verdict_is_a_fixed_point(
        policy in arb_policy(),
        requested in proptest::option::of(arb_time()),
        now in arb_time(),
    ) {
        let first = policy.effective_texp(Event::Write { requested }, now);
        let again = policy.effective_texp(
            Event::Write { requested: Some(first.texp) },
            now,
        );
        prop_assert_eq!(
            again.texp, first.texp,
            "not idempotent under {}: {:?} -> {:?}", policy, first, again
        );
        // And a touch of a row already at the verdict is a no-op.
        for kind in [TouchKind::Access, TouchKind::Modify] {
            let touched = policy.effective_texp(
                Event::Touch { kind, current: first.texp },
                now,
            );
            prop_assert!(touched.texp >= first.texp);
        }
    }

    /// Conservation under sliding: reads re-arm rows between advances,
    /// yet the forecast's bucket sum (plus eternals) equals the live row
    /// count per table and in total at every step.
    #[test]
    fn forecast_bucket_sum_survives_sliding_touches(
        ttl in 2u64..60,
        rows in proptest::collection::vec(0i64..24, 1..32),
        ops in proptest::collection::vec((1u64..12, 0i64..24), 1..20),
        lazy in any::<bool>(),
    ) {
        let removal = if lazy {
            Removal::Lazy { vacuum_every: 8 }
        } else {
            Removal::Eager
        };
        let mut db = Database::new(DbConfig { removal, ..DbConfig::default() });
        db.execute(&format!("CREATE TABLE s (sid INT) TTL {ttl} SLIDING ON ACCESS"))
            .unwrap();
        db.execute("CREATE TABLE p (k INT)").unwrap();
        for (i, &sid) in rows.iter().enumerate() {
            db.insert_default("s", exptime::core::tuple![sid]).unwrap();
            // Half the plain table is eternal, half expires.
            let texp = if i % 2 == 0 { Time::INFINITY } else { db.now() + ttl / 2 + 1 };
            db.insert("p", exptime::core::tuple![i as i64], texp).unwrap();
        }
        for (step, probe) in ops {
            // The read slides whatever it sees, then the clock advances.
            db.execute(&format!("SELECT * FROM s WHERE sid = {probe}")).unwrap();
            db.tick(step);
            let now = db.now();
            let fc = db.forecast();
            let mut live_total = 0u64;
            for name in ["s", "p"] {
                let live = db.table(name).unwrap().live_count(now) as u64;
                live_total += live;
                let (_, table_fc) = fc
                    .tables
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("forecast covers every table");
                prop_assert_eq!(
                    table_fc.total(), live,
                    "table {} at {}: forecast total must equal live rows", name, now
                );
            }
            prop_assert_eq!(fc.horizon.total(), live_total);
            prop_assert_eq!(
                fc.horizon.expiring() + fc.horizon.eternal(),
                fc.horizon.total()
            );
        }
    }
}

/// One seeded crash-recovery workload: random policy DDL, inserts,
/// touching reads, and ticks on a WAL-backed store; crash with no
/// checkpoint; recovery must restore the policy catalog and every
/// surviving row's exact expiration, resurrecting nothing.
fn check_policy_crash(seed: u64) -> std::result::Result<(), String> {
    let config = DbConfig {
        durability: Durability::Wal {
            group_commit: 1,
            checkpoint_every: 0, // recovery is pure log replay
        },
        ..DbConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x90_11C7);
    let ttl = rng.gen_range(5..60u64);
    let clamp = if rng.gen_bool(0.5) {
        let min = rng.gen_range(1..10u64);
        Some((min, min + rng.gen_range(0..80u64)))
    } else {
        None
    };
    let sliding = if rng.gen_bool(0.5) {
        "ACCESS"
    } else {
        "MODIFY"
    };
    let mut ddl = format!("CREATE TABLE s (sid INT) TTL {ttl} SLIDING ON {sliding}");
    if let Some((min, max)) = clamp {
        ddl.push_str(&format!(" CLAMP {min}..{max}"));
    }

    let disk = MemStore::new();
    let expected_policy;
    let mut expected_rows: Vec<(i64, Option<Time>)> = Vec::new();
    let crash_clock;
    {
        let mut db = Database::open_with_store(Box::new(disk.clone()), config)
            .map_err(|e| format!("[seed {seed}] open: {e}"))?;
        db.execute(&ddl)
            .map_err(|e| format!("[seed {seed}] {ddl}: {e}"))?;
        for _ in 0..rng.gen_range(10..40) {
            match rng.gen_range(0..4u8) {
                0 | 1 => {
                    let sid = rng.gen_range(0..16i64);
                    db.execute(&format!("INSERT INTO s VALUES ({sid})"))
                        .map_err(|e| format!("[seed {seed}] insert: {e}"))?;
                }
                2 => {
                    // Reads touch (ON ACCESS); EXPIRES DEFAULT touches (ON MODIFY).
                    let sid = rng.gen_range(0..16i64);
                    let stmt = if rng.gen_bool(0.5) {
                        format!("SELECT * FROM s WHERE sid = {sid}")
                    } else {
                        format!("UPDATE s SET EXPIRES DEFAULT WHERE sid = {sid}")
                    };
                    db.execute(&stmt)
                        .map_err(|e| format!("[seed {seed}] touch: {e}"))?;
                }
                _ => {
                    db.tick(rng.gen_range(1..8u64));
                }
            }
        }
        expected_policy = db.ttl_policy("s");
        crash_clock = db.now();
        for sid in 0..16i64 {
            expected_rows.push((
                sid,
                db.table("s").unwrap().texp(&exptime::core::tuple![sid]),
            ));
        }
    } // crash: drop without checkpoint

    let db = Database::open_with_store(Box::new(disk), config)
        .map_err(|e| format!("[seed {seed}] reopen: {e}"))?;
    if db.ttl_policy("s") != expected_policy {
        return Err(format!(
            "[seed {seed}] policy diverged: recovered {:?}, expected {expected_policy:?}",
            db.ttl_policy("s")
        ));
    }
    if db.now() != crash_clock {
        return Err(format!(
            "[seed {seed}] clock diverged: recovered {}, expected {crash_clock}",
            db.now()
        ));
    }
    for (sid, want) in expected_rows {
        let got = db.table("s").unwrap().texp(&exptime::core::tuple![sid]);
        if got != want {
            return Err(format!(
                "[seed {seed}] sid {sid}: recovered texp {got:?}, expected {want:?} \
                 (touches must be durable; expired rows must stay dead)"
            ));
        }
    }
    Ok(())
}

/// Deterministic seed matrix for CI: `EXPTIME_POLICY_SEEDS=1,2,3` pins
/// the exact workloads; the default covers eight distinct ones.
#[test]
fn policy_crash_seed_matrix() {
    let seeds = std::env::var("EXPTIME_POLICY_SEEDS").unwrap_or_else(|_| "1,2,3,4,5,6,7,8".into());
    let mut ran = 0usize;
    for part in seeds.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("EXPTIME_POLICY_SEEDS entry `{part}`: {e}"));
        if let Err(msg) = check_policy_crash(seed) {
            panic!("policy crash matrix: {msg}");
        }
        ran += 1;
    }
    assert!(ran > 0, "EXPTIME_POLICY_SEEDS named no seeds");
}
