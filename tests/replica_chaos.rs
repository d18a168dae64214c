//! Chaos tests for the fault-hardened replica sync layer: whatever a
//! seeded fault schedule does to the link — loss, duplication,
//! reordering, delay, partitions — once the link heals and the session
//! machinery quiesces, the replica's state is exactly what a fresh
//! server-side computation produces, at every subsequent event time.
//!
//! Every failure message carries the seed and the full fault schedule
//! (`FaultyLink::schedule_report`), so a failing run is replayable by
//! constructing `FaultSpec::chaos(seed)` (or the printed variant) again.
//!
//! The seed matrix test honours `EXPTIME_CHAOS_SEEDS` (comma-separated
//! integers) so CI can pin distinct deterministic schedules per job.

use exptime::core::algebra::{eval, EvalOptions, Expr};
use exptime::core::relation::Relation;
use exptime::core::time::Time;
use exptime::obs::SloConfig;
use exptime::prelude::*;
use exptime::replica::{FaultSpec, RetryPolicy};
use exptime_bench::baseline::ChaosDeletePush;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The facade prelude aliases `Result` to the core error type; the
/// checks below carry their diagnosis as a plain string instead.
type Check = std::result::Result<(), String>;

fn build_server(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::default();
    db.execute("CREATE TABLE r (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE s (k INT, v INT)").unwrap();
    for i in 0..60i64 {
        db.insert_ttl("r", exptime::core::tuple![i, i % 5], rng.gen_range(1..90))
            .unwrap();
        if rng.gen_bool(0.5) {
            db.insert_ttl("s", exptime::core::tuple![i, i % 5], rng.gen_range(1..60))
                .unwrap();
        }
    }
    db
}

fn truth(server: &Database, expr: &Expr) -> Relation {
    eval(
        expr,
        &server.snapshot(),
        server.now(),
        &EvalOptions::default(),
    )
    .unwrap()
    .rel
}

fn views() -> Vec<(&'static str, Expr)> {
    vec![
        ("mono", Expr::base("r").project([0])),
        ("diff", Expr::base("r").difference(Expr::base("s"))),
    ]
}

/// The tentpole invariant, exercised end to end: run `horizon` ticks of
/// reads under the faulty link (degraded answers allowed), heal,
/// reconcile, drain to quiescence, then demand exact agreement with a
/// fresh server computation at every following event time.
///
/// Returns `Err(diagnosis)` — including the replayable schedule — rather
/// than panicking, so both the proptest and the seed matrix can wrap it.
fn check_chaos_replica(spec: FaultSpec, data_seed: u64, horizon: u64) -> Check {
    let seed = spec.seed;
    let mut srv = build_server(data_seed);
    let mut rep = Replica::with_faults(spec, RetryPolicy::default());
    for (name, e) in &views() {
        rep.subscribe(name, e.clone(), &srv)
            .map_err(|e| format!("[seed {seed}] subscribe failed: {e}"))?;
    }

    // Chaos phase: reads may be Stale or even time out; that is the
    // graceful-degradation contract, not a failure. What must NOT happen
    // is a wrong answer labelled fresh.
    for _ in 0..horizon {
        srv.tick(1);
        for (name, e) in &views() {
            match rep.read(name, &srv) {
                Ok((rel, ReadOutcome::Local | ReadOutcome::Refreshed)) => {
                    let want = truth(&srv, e);
                    if !rel.set_eq(&want) {
                        return Err(format!(
                            "[seed {seed}] `{name}` served a WRONG fresh answer at \
                             {:?}:\n{rel:?}\nvs {want:?}\n{}",
                            srv.now(),
                            rep.link().schedule_report()
                        ));
                    }
                }
                Ok((_, ReadOutcome::Stale(back))) => {
                    if back > srv.now() {
                        return Err(format!(
                            "[seed {seed}] `{name}` claims staleness from the future \
                             ({back:?} > {:?})\n{}",
                            srv.now(),
                            rep.link().schedule_report()
                        ));
                    }
                }
                Err(_) => {} // honest unavailability mid-chaos is allowed
            }
        }
    }

    // Recovery phase: heal, anti-entropy, drain.
    rep.link().heal();
    rep.reconcile(&srv)
        .map_err(|e| format!("[seed {seed}] reconcile failed: {e}"))?;
    for _ in 0..64 {
        if rep.quiesced() {
            break;
        }
        srv.tick(1);
        rep.pump(&srv)
            .map_err(|e| format!("[seed {seed}] pump failed: {e}"))?;
    }
    if !rep.quiesced() {
        return Err(format!(
            "[seed {seed}] never quiesced after heal\n{}",
            rep.link().schedule_report()
        ));
    }

    // Post-recovery: every event time must now be answered exactly, and
    // exclusively with fresh (Local/Refreshed) outcomes.
    for _ in 0..12 {
        srv.tick(1);
        for (name, e) in &views() {
            let (rel, outcome) = rep.read(name, &srv).map_err(|e| {
                format!(
                    "[seed {seed}] `{name}` failed after recovery: {e}\n{}",
                    rep.link().schedule_report()
                )
            })?;
            if matches!(outcome, ReadOutcome::Stale(_)) {
                return Err(format!(
                    "[seed {seed}] `{name}` still stale after heal+quiesce at {:?}\n{}",
                    srv.now(),
                    rep.link().schedule_report()
                ));
            }
            let want = truth(&srv, e);
            if !rel.set_eq(&want) {
                return Err(format!(
                    "[seed {seed}] `{name}` ≠ fresh computation at {:?} after \
                     recovery ({outcome:?}):\n{rel:?}\nvs {want:?}\n{}",
                    srv.now(),
                    rep.link().schedule_report()
                ));
            }
        }
    }
    Ok(())
}

/// Same shape for the explicit-delete baseline: after the outbox drains
/// over the healed link, the pushed cache equals the server's current
/// result (ignoring texps, which delete-push does not replicate).
fn check_chaos_delete_push(spec: FaultSpec, data_seed: u64, horizon: u64) -> Check {
    let seed = spec.seed;
    let mut srv = build_server(data_seed);
    let expr = Expr::base("r").difference(Expr::base("s"));
    let mut push = ChaosDeletePush::subscribe(expr.clone(), &srv, spec, RetryPolicy::default())
        .map_err(|e| format!("[seed {seed}] subscribe failed: {e}"))?;

    for _ in 0..horizon {
        srv.tick(1);
        push.server_sync(&srv)
            .map_err(|e| format!("[seed {seed}] server_sync failed: {e}"))?;
    }
    push.link().heal();
    for _ in 0..200 {
        srv.tick(1);
        push.server_sync(&srv)
            .map_err(|e| format!("[seed {seed}] server_sync failed: {e}"))?;
        if push.quiesced() {
            break;
        }
    }
    if !push.quiesced() {
        return Err(format!(
            "[seed {seed}] delete-push outbox never drained\n{}",
            push.link().schedule_report()
        ));
    }
    let want = truth(&srv, &expr);
    if !push.read().tuples_eq_at(&want, srv.now()) {
        let got = push.read().clone();
        return Err(format!(
            "[seed {seed}] delete-push cache ≠ fresh computation at {:?}:\n{got:?}\nvs {want:?}\n{}",
            srv.now(),
            push.link().schedule_report()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary seeded chaos schedules (loss + duplication + reordering
    /// + delay + partitions all at once): the replica must come back to
    /// exact agreement after reconnect and quiesce.
    #[test]
    fn chaos_replica_recovers_exactly(seed in 1u64..50_000, data_seed in 1u64..1_000) {
        let r = check_chaos_replica(FaultSpec::chaos(seed), data_seed, 40);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Pure-loss schedules at brutal rates: retry/backoff alone (no
    /// reordering to hide behind) must still converge.
    #[test]
    fn lossy_replica_recovers_exactly(seed in 1u64..50_000, loss in 1u32..=8) {
        let spec = FaultSpec::lossy(seed, f64::from(loss) / 10.0);
        let r = check_chaos_replica(spec, seed ^ 0x5EED, 40);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// The hardened delete-push baseline survives the same chaos: its
    /// acked, retransmitted notice stream must drain to the exact result.
    #[test]
    fn chaos_delete_push_recovers_exactly(seed in 1u64..50_000, data_seed in 1u64..1_000) {
        let r = check_chaos_delete_push(FaultSpec::chaos(seed), data_seed, 40);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Deterministic seed matrix for CI: `EXPTIME_CHAOS_SEEDS=1,2,3` pins
/// the exact schedules; the default covers eight distinct ones. Runs the
/// full invariant (both strategies) per seed.
#[test]
fn chaos_seed_matrix() {
    let seeds = std::env::var("EXPTIME_CHAOS_SEEDS").unwrap_or_else(|_| "1,2,3,4,5,6,7,8".into());
    let mut ran = 0usize;
    for part in seeds.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("EXPTIME_CHAOS_SEEDS entry `{part}`: {e}"));
        if let Err(msg) = check_chaos_replica(FaultSpec::chaos(seed), seed, 48) {
            panic!("chaos matrix (exp-aware): {msg}");
        }
        if let Err(msg) = check_chaos_delete_push(FaultSpec::chaos(seed), seed, 48) {
            panic!("chaos matrix (delete-push): {msg}");
        }
        ran += 1;
    }
    assert!(ran > 0, "EXPTIME_CHAOS_SEEDS named no seeds");
}

/// The tentpole trace-propagation invariant, end to end: under a lossy
/// link, a sync session that needed at least one retransmission must
/// still render as ONE connected causal trace on the span ring — the
/// root session span, every `client.send.*` attempt (the retried ones
/// flagged `retransmission=true`), the server-side handling span, and
/// the final `client.apply.*` — all reachable from the same root via
/// parent links, even though the spans belong to both endpoints.
#[test]
fn retransmitted_sync_renders_as_one_connected_trace() {
    use exptime::obs::SpanRecord;
    use std::collections::BTreeMap;

    let attr = |s: &SpanRecord, key: &str| -> Option<String> {
        s.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };

    for seed in 1..64u64 {
        let mut srv = build_server(seed);
        let mut rep = Replica::with_faults(FaultSpec::lossy(seed, 0.5), RetryPolicy::default());
        rep.tracer().enable();
        if rep
            .subscribe("diff", Expr::base("r").difference(Expr::base("s")), &srv)
            .is_err()
        {
            continue;
        }
        for _ in 0..30 {
            srv.tick(1);
            let _ = rep.read("diff", &srv);
        }
        rep.link().heal();
        for _ in 0..40 {
            if rep.quiesced() {
                break;
            }
            srv.tick(1);
            rep.pump(&srv).unwrap();
        }
        let stats = rep.session_stats();
        if stats.retries == 0 || stats.sessions_completed == 0 {
            continue; // this schedule produced no interesting session
        }

        // Group the ring's spans into traces by their `trace` attribute.
        let spans = rep.tracer().recent(2048);
        let mut traces: BTreeMap<String, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &spans {
            if let Some(t) = attr(s, "trace") {
                traces.entry(t).or_default().push(s);
            }
        }

        for group in traces.values() {
            let roots: Vec<&&SpanRecord> = group.iter().filter(|s| s.parent.is_none()).collect();
            // Exactly one root per trace — never a forest.
            assert_eq!(
                roots.len(),
                1,
                "seed {seed}: trace with {} roots",
                roots.len()
            );
            let root = roots[0];
            assert!(
                root.name.starts_with("session."),
                "seed {seed}: {}",
                root.name
            );

            // Connectivity: every span in the trace walks up to the root.
            let ids: std::collections::BTreeSet<u64> = group.iter().map(|s| s.id).collect();
            let by_id: BTreeMap<u64, &&SpanRecord> = group.iter().map(|s| (s.id, s)).collect();
            for s in group {
                let mut cur = *s;
                let mut hops = 0;
                while let Some(p) = cur.parent {
                    assert!(
                        ids.contains(&p),
                        "seed {seed}: span `{}` parents outside its trace",
                        cur.name
                    );
                    cur = by_id[&p];
                    hops += 1;
                    assert!(hops < 1000, "seed {seed}: parent cycle");
                }
                assert_eq!(cur.id, root.id, "seed {seed}: disconnected span");
            }
        }

        // At least one trace shows the full story: a retransmitted send
        // AND the server's handling AND the client's apply.
        let complete = traces.values().any(|group| {
            group.iter().any(|s| {
                s.name.starts_with("client.send.")
                    && attr(s, "retransmission").as_deref() == Some("true")
            }) && group.iter().any(|s| s.name.starts_with("server.handle."))
                && group.iter().any(|s| s.name.starts_with("client.apply."))
        });
        if complete {
            return; // invariant demonstrated on this seed's schedule
        }
    }
    panic!("no seed in 1..64 produced a completed, retransmitted, traced session");
}

/// Graceful degradation across the validity horizon: a fully
/// disconnected replica keeps answering from its still-valid cache, and
/// once the cache lapses past the resync SLO the degradation shows up in
/// `health()` — without a single panic or wrong "fresh" answer.
#[test]
fn disconnected_replica_serves_cache_then_reports_staleness() {
    let mut srv = Database::default();
    srv.execute("CREATE TABLE r (k INT, v INT)").unwrap();
    srv.execute("CREATE TABLE s (k INT, v INT)").unwrap();
    for i in 0..8i64 {
        srv.insert_ttl("r", exptime::core::tuple![i, i], 30)
            .unwrap();
        if i < 4 {
            srv.insert_ttl("s", exptime::core::tuple![i, i], 12)
                .unwrap();
        }
    }
    let slo = SloConfig {
        max_resync_lag: 4,
        ..SloConfig::default()
    };
    let mut rep = Replica::with_slo(FaultSpec::none(2), RetryPolicy::default(), slo);
    // r − s is invalid past t=12: the s-side rows expire then, and rows
    // 0..4 reappear in the result — which the cut-off replica cannot see.
    rep.subscribe("v", Expr::base("r").difference(Expr::base("s")), &srv)
        .unwrap();
    let (_, outcome) = rep.read("v", &srv).unwrap();
    assert!(matches!(
        outcome,
        ReadOutcome::Local | ReadOutcome::Refreshed
    ));

    // Cut the link for good. The cached view stays provably valid until
    // t=12, so reads keep being answered locally, without traffic.
    rep.link().disconnect();
    let before = rep.link_stats().total_messages();
    for _ in 0..10 {
        srv.tick(1);
        let (rel, outcome) = rep.read("v", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local, "valid until t=12");
        assert_eq!(rel.len(), 4, "r − s = rows 4..8 while s is alive");
    }
    assert_eq!(
        rep.link_stats().total_messages(),
        before,
        "no messages crossed a dead link"
    );

    // Past the validity horizon the cache covers nothing newer; reads
    // degrade to the newest covered instant and, once the lag exceeds
    // the SLO, the monitor records the breach.
    srv.tick(5); // now = 15 > validity horizon 12
    for _ in 0..8 {
        srv.tick(1);
        match rep.read("v", &srv) {
            Ok((_, ReadOutcome::Stale(back))) => assert!(back < Time::new(12)),
            Ok((_, other)) => panic!("invalid cache cannot be {other:?}"),
            Err(e) => panic!("degraded reads must not error while covered: {e}"),
        }
    }
    let health = rep.health();
    assert!(
        health.resync_lag_breaches >= 1,
        "SLO breach not reported: {health}"
    );
}
