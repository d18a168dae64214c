//! Integration tests for the loosely-coupled replica: whatever the link
//! does (stays up, flaps, dies), the replica's answers are either exactly
//! the server's current truth or an honestly-labelled stale state that was
//! true at its `as_of` time.

use exptime::core::aggregate::AggFunc;
use exptime::core::algebra::{eval, EvalOptions, Expr};
use exptime::core::materialize::RefreshPolicy;
use exptime::core::predicate::{CmpOp, Predicate};
use exptime::core::relation::Relation;

use exptime::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_server(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::default();
    db.execute("CREATE TABLE r (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE s (k INT, v INT)").unwrap();
    for i in 0..80i64 {
        db.insert_ttl("r", exptime::core::tuple![i, i % 7], rng.gen_range(1..120))
            .unwrap();
        if rng.gen_bool(0.5) {
            db.insert_ttl("s", exptime::core::tuple![i, i % 7], rng.gen_range(1..80))
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

#[test]
fn replica_answers_are_truthful_under_link_flaps() {
    for seed in [1u64, 2, 3] {
        for refresh in [RefreshPolicy::Recompute, RefreshPolicy::Patch] {
            let mut srv = build_server(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
            let exprs = vec![
                (
                    "mono",
                    Expr::base("r").select(Predicate::attr_cmp_const(1, CmpOp::Lt, 4)),
                ),
                ("diff", Expr::base("r").difference(Expr::base("s"))),
            ];
            let mut rep = Replica::new(refresh);
            for (name, e) in &exprs {
                rep.subscribe(name, e.clone(), &srv).unwrap();
            }
            for _ in 0..60 {
                srv.tick(rng.gen_range(1..4));
                // Flap the link randomly.
                if rng.gen_bool(0.2) {
                    if rep.link().is_up() {
                        rep.link().disconnect();
                    } else {
                        rep.link().reconnect();
                    }
                }
                for (name, e) in &exprs {
                    let (rel, outcome) = match rep.read(name, &srv) {
                        Ok(served) => served,
                        Err(err) => {
                            assert!(!rep.link().is_up(), "{err}");
                            continue;
                        }
                    };
                    match outcome {
                        ReadOutcome::Local | ReadOutcome::Refreshed => {
                            let want = truth(&srv, e);
                            assert!(
                                rel.set_eq(&want),
                                "[seed {seed} {refresh:?}] {name} at {:?} ({outcome:?}):\n{rel:?}\nvs {want:?}",
                                srv.now()
                            );
                        }
                        ReadOutcome::Stale(as_of) => {
                            assert!(!rep.link().is_up(), "stale only when disconnected");
                            assert!(as_of <= srv.now());
                            // The stale answer was the truth at as_of: a
                            // fresh evaluation at that time agrees.
                            let m = eval(e, &srv.snapshot(), srv.now(), &EvalOptions::default());
                            // Note: the server snapshot has already expired
                            // rows physically (eager), so we can only check
                            // internal consistency of the stale state.
                            drop(m);
                            assert!(rel.iter().all(|(_, texp)| texp > as_of));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn monotonic_views_cost_nothing_even_with_flaps() {
    let mut srv = build_server(7);
    let mut rep = Replica::new(RefreshPolicy::Recompute);
    let e = Expr::base("r").project([0]);
    rep.subscribe("keys", e.clone(), &srv).unwrap();
    let base = rep.link_stats().total_messages();
    for round in 0..50 {
        srv.tick(3);
        if round % 10 == 5 {
            rep.link().disconnect();
        }
        if round % 10 == 9 {
            rep.link().reconnect();
        }
        let (rel, outcome) = rep.read("keys", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local, "monotonic ⇒ always local");
        assert!(rel.set_eq(&truth(&srv, &e)));
    }
    assert_eq!(rep.link_stats().total_messages(), base);
    assert_eq!(rep.total_recomputations(), 0);
}

#[test]
fn patched_difference_survives_total_disconnection() {
    // Subscribe, then cut the link forever: the patched difference stays
    // exactly correct to the end of time with zero traffic.
    let mut srv = build_server(11);
    let mut rep = Replica::new(RefreshPolicy::Patch);
    let e = Expr::base("r").difference(Expr::base("s"));
    rep.subscribe("diff", e.clone(), &srv).unwrap();
    rep.link().disconnect();
    for _ in 0..70 {
        srv.tick(2);
        let (rel, outcome) = rep.read("diff", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local, "Theorem 3, offline");
        assert!(
            rel.set_eq(&truth(&srv, &e)),
            "offline patched view wrong at {:?}",
            srv.now()
        );
    }
    assert_eq!(rep.link_stats().refused, 0);
}

#[test]
fn patched_count_view_never_refreshes() {
    // r γ_{v,count}, the bare Klug form: each group's count changes as
    // its rows expire, which a recomputing replica pays a round trip for.
    // Patched, the replica recomputes each group from its own rows, so
    // after the subscription nothing crosses the link, and every tick's
    // answer is the server's truth.
    let mut srv = build_server(5);
    let e = Expr::base("r").aggregate([1], AggFunc::Count);
    let mut rep = Replica::new(RefreshPolicy::Patch);
    rep.subscribe("count", e.clone(), &srv).unwrap();
    let subscribed = rep.link_stats().total_messages();
    assert_eq!(subscribed, 2, "one request, one response");
    for _ in 0..125 {
        srv.tick(1);
        let (rel, outcome) = rep.read("count", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local, "at {:?}", srv.now());
        let want = truth(&srv, &e);
        assert!(
            rel.set_eq(&want),
            "patched count wrong at {:?}:\n{rel:?}\nvs {want:?}",
            srv.now()
        );
    }
    assert_eq!(rep.link_stats().total_messages(), subscribed);
    assert_eq!(rep.total_recomputations(), 0);
    let (_, stats) = rep.view_stats().next().unwrap();
    assert!(stats.patches_applied > 0, "the server shipped the groups");
}

#[test]
fn disconnected_patched_replica_serves_its_unread_patch_queue() {
    // pol − (el − gone) under Theorem 3 patching. ⟨1⟩ is critical at the
    // root (it reappears when its `el` copy expires at 5) and sits in the
    // patch queue; ⟨3⟩ is critical inside the right argument (it reappears
    // in `el − gone` at 8), which no queue covers, so texp(e) = 8. Cut off
    // and first read at 10, the replica moves the query back to 7 — and
    // the state as of 7 includes the patch that fell due at 5, though no
    // read ever drained it.
    let server = || {
        let mut db = Database::default();
        db.execute_script(
            "CREATE TABLE pol (uid INT);
             CREATE TABLE el (uid INT);
             CREATE TABLE gone (uid INT);
             INSERT INTO pol VALUES (1) EXPIRES AT 30;
             INSERT INTO pol VALUES (2) EXPIRES AT 30;
             INSERT INTO el VALUES (1) EXPIRES AT 5;
             INSERT INTO el VALUES (3) EXPIRES AT 20;
             INSERT INTO gone VALUES (3) EXPIRES AT 8;",
        )
        .unwrap();
        db
    };
    let e = Expr::base("pol").difference(Expr::base("el").difference(Expr::base("gone")));
    let mut srv = server();
    let mut rep = Replica::new(RefreshPolicy::Patch);
    rep.subscribe("others", e.clone(), &srv).unwrap();
    rep.link().disconnect();
    srv.tick(10);
    let (rel, outcome) = rep.read("others", &srv).unwrap();
    let ReadOutcome::Stale(back) = outcome else {
        panic!("expected a stale read past texp(e) = 8, got {outcome:?}");
    };
    assert_eq!(back, Time::new(7), "latest covered instant before 8");
    // The server's truth as of `back`: a twin that stopped there.
    let mut then = server();
    then.advance_to(back);
    let want = truth(&then, &e);
    assert_eq!(want.len(), 2, "⟨1⟩ and ⟨2⟩");
    assert!(
        rel.set_eq(&want),
        "stale as of {back}:\n{rel:?}\nvs {want:?}"
    );
}

#[test]
fn chaos_sessions_are_truthful_at_every_event_time() {
    // The session-layer analogue of `replica_answers_are_truthful_under
    // _link_flaps`: under a full chaos schedule (loss, duplication,
    // reordering, delay, partitions) every answer the replica labels
    // fresh equals a fresh server computation, and every degraded
    // answer is honestly marked Stale with a past as-of instant. The
    // convergence-after-heal half of the contract lives in
    // tests/replica_chaos.rs.
    use exptime::replica::{FaultSpec, RetryPolicy};
    for seed in [1u64, 2, 3] {
        let mut srv = build_server(seed);
        let mut rep = Replica::with_faults(FaultSpec::chaos(seed), RetryPolicy::default());
        let exprs = vec![
            ("mono", Expr::base("r").project([0])),
            ("diff", Expr::base("r").difference(Expr::base("s"))),
        ];
        for (name, e) in &exprs {
            rep.subscribe(name, e.clone(), &srv).unwrap();
        }
        for _ in 0..60 {
            srv.tick(1);
            for (name, e) in &exprs {
                match rep.read(name, &srv) {
                    Ok((rel, ReadOutcome::Local | ReadOutcome::Refreshed)) => {
                        let want = truth(&srv, e);
                        assert!(
                            rel.set_eq(&want),
                            "[seed {seed}] fresh-labelled `{name}` wrong at {:?}\n{}",
                            srv.now(),
                            rep.link().schedule_report()
                        );
                    }
                    Ok((rel, ReadOutcome::Stale(back))) => {
                        assert!(back <= srv.now(), "stale as-of must be in the past");
                        // Internally consistent: nothing served is
                        // already expired at its own as-of time.
                        assert!(rel.iter().all(|(_, texp)| texp > back));
                    }
                    Err(_) => {} // honest unavailability under chaos
                }
            }
        }
    }
}

#[test]
fn view_stats_expose_per_view_costs() {
    let mut srv = build_server(13);
    let mut rep = Replica::new(RefreshPolicy::Recompute);
    rep.subscribe("mono", Expr::base("r").project([0]), &srv)
        .unwrap();
    rep.subscribe("diff", Expr::base("r").difference(Expr::base("s")), &srv)
        .unwrap();
    for _ in 0..40 {
        srv.tick(2);
        rep.read("mono", &srv).unwrap();
        rep.read("diff", &srv).unwrap();
    }
    let stats: std::collections::HashMap<String, _> =
        rep.view_stats().map(|(n, s)| (n.to_string(), s)).collect();
    assert_eq!(stats["mono"].recomputations, 0);
    assert!(stats["diff"].recomputations > 0);
    assert!(stats["mono"].local_reads >= 40);
}
