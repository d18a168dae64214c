//! The synthetic experiments E1–E11 and the OBS overhead measurement
//! (see DESIGN.md §5 and EXPERIMENTS.md).
//!
//! The paper has no empirical section; these experiments check the
//! claims it makes qualitatively. Every experiment is a deterministic,
//! seeded function returning a [`Report`] and the rows or summary its
//! counters come from, which the unit tests pin down (who wins, and
//! roughly by how much); the `experiments` binary renders the reports for
//! EXPERIMENTS.md, and the report is the only record an experiment
//! produces. Every report but OBS prints counts only, never a time, so
//! CI pins them byte for byte (`tests/golden/experiments.txt`); what
//! takes time is timed by the criterion benches and by `benchmark/`.
//! OBS prints the one timing left, `overhead_pct`, which CI's obs gate
//! reads.

use crate::baseline::{ChaosDeletePush, DeletePushReplica, PollingReplica};
use crate::workload::{difference_pair, LifetimeDist, TableGen};
use exptime_core::aggregate::{self, AggFunc, AggMode};
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime_core::predicate::{CmpOp, Predicate};
use exptime_core::rewrite;
use exptime_core::time::Time;
use exptime_engine::{Database, DbConfig, ExpirationEvent, ForecastConfig, Removal};
use exptime_literal::{nu, ops};
use exptime_replica::{FaultSpec, Replica, RetryPolicy};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id and title.
    pub title: String,
    /// Table rows (pre-formatted).
    pub lines: Vec<String>,
}

impl Report {
    /// Renders the report as text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

fn t(v: u64) -> Time {
    Time::new(v)
}

// ---------------------------------------------------------------------
// E1 — monotonic views never recompute
// ---------------------------------------------------------------------

/// Per-view outcome of E1.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// View description.
    pub view: String,
    /// Whether the classifier calls it monotonic.
    pub monotonic: bool,
    /// Reads served.
    pub reads: u64,
    /// Recomputations needed.
    pub recomputations: u64,
}

/// E1: materialise one view of each operator shape over a sliding
/// workload; read at every event time; count recomputations. Theorem 1
/// says the monotonic ones need zero.
#[must_use]
pub fn e1_monotonic_maintenance(rows: usize, seed: u64) -> (Report, Vec<E1Row>) {
    let r = TableGen {
        rows,
        keys: 40,
        lifetimes: LifetimeDist::Uniform { min: 1, max: 200 },
        seed,
        ..TableGen::default()
    }
    .generate()
    .to_relation();
    let s = TableGen {
        rows,
        keys: 40,
        lifetimes: LifetimeDist::Uniform { min: 1, max: 200 },
        seed: seed + 1,
        ..TableGen::default()
    }
    .generate()
    .to_relation();
    let mut catalog = Catalog::new();
    catalog.register("r", r.clone());
    catalog.register("s", s);

    let views: Vec<(String, Expr)> = vec![
        (
            "σ[val < 500](R)".into(),
            Expr::base("r").select(Predicate::attr_cmp_const(1, CmpOp::Lt, 500)),
        ),
        ("π[key](R)".into(), Expr::base("r").project([0])),
        (
            "R ⋈[key=key] S".into(),
            Expr::base("r").join(Expr::base("s"), Predicate::attr_eq_attr(0, 2)),
        ),
        ("R ∪ S".into(), Expr::base("r").union(Expr::base("s"))),
        ("R ∩ S".into(), Expr::base("r").intersect(Expr::base("s"))),
        (
            // Projected difference so the two key populations actually
            // overlap (raw (key, val) tuples rarely coincide).
            "π[key](R) − π[key](S)".into(),
            Expr::base("r")
                .project([0])
                .difference(Expr::base("s").project([0])),
        ),
        (
            "π[key, count](agg[key, count](R))".into(),
            Expr::base("r")
                .aggregate([0], AggFunc::Count)
                .project([0, 2]),
        ),
    ];

    let events = r.event_times(Time::ZERO);
    let mut out_rows = Vec::new();
    for (name, expr) in views {
        let mut view = MaterializedView::with_defaults(expr.clone(), &catalog, Time::ZERO).unwrap();
        let mut reads = 0;
        for &e in &events {
            let got = view.read(&catalog, e).unwrap();
            reads += 1;
            // Ground truth check on a sample of events.
            if reads % 16 == 0 {
                let fresh = eval(&expr, &catalog, e, &EvalOptions::default()).unwrap();
                assert!(got.set_eq(&fresh.rel.exp(e)), "{name} wrong at {e}");
            }
        }
        out_rows.push(E1Row {
            view: name,
            monotonic: expr.is_monotonic(),
            reads,
            recomputations: view.stats().recomputations,
        });
    }

    let mut lines = vec![format!(
        "{:<40}{:>11}{:>8}{:>16}",
        "view", "monotonic", "reads", "recomputations"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:<40}{:>11}{:>8}{:>16}",
            r.view, r.monotonic, r.reads, r.recomputations
        ));
    }
    (
        Report {
            title: "E1: monotonic views never recompute (Theorem 1)".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E2 — patching eliminates difference recomputation
// ---------------------------------------------------------------------

/// One overlap point of E2.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Fraction of R also present in S.
    pub overlap: f64,
    /// Critical tuples at materialisation time.
    pub critical: usize,
    /// Recomputations without patching.
    pub recomputations_unpatched: u64,
    /// Recomputations with the Theorem 3 patch queue.
    pub recomputations_patched: u64,
    /// Patch-queue size (storage cost of Theorem 3).
    pub queue_len: usize,
}

/// E2: sweep the R∩S overlap fraction; compare recomputation counts of an
/// unpatched vs. a patched materialised difference read at every event.
#[must_use]
pub fn e2_patching(rows: usize, seed: u64) -> (Report, Vec<E2Row>) {
    let mut out_rows = Vec::new();
    for overlap in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (rg, sg) = difference_pair(
            rows,
            overlap,
            LifetimeDist::Uniform { min: 100, max: 200 },
            LifetimeDist::Uniform { min: 1, max: 99 },
            seed,
        );
        let r = rg.to_relation();
        let s = sg.to_relation();
        let critical = ops::critical_tuples(&r, &s, Time::ZERO).len();
        let mut catalog = Catalog::new();
        catalog.register("r", r.clone());
        catalog.register("s", s);
        let expr = Expr::base("r").difference(Expr::base("s"));

        let mut events = r.event_times(Time::ZERO);
        events.extend(catalog.get("s").unwrap().event_times(Time::ZERO));
        events.sort_unstable();
        events.dedup();

        let mut unpatched =
            MaterializedView::with_defaults(expr.clone(), &catalog, Time::ZERO).unwrap();
        let mut patched = MaterializedView::new(
            expr.clone(),
            &catalog,
            Time::ZERO,
            EvalOptions::default(),
            RefreshPolicy::Patch,
            RemovalPolicy::Lazy,
        )
        .unwrap();
        let queue_len = patched
            .materialized()
            .patches
            .as_ref()
            .map_or(0, exptime_core::patch::PatchQueue::len);
        for (i, &e) in events.iter().enumerate() {
            let a = unpatched.read(&catalog, e).unwrap();
            let b = patched.read(&catalog, e).unwrap();
            if i % 32 == 0 {
                assert!(a.set_eq(&b), "patched ≠ unpatched at {e}");
            }
        }
        out_rows.push(E2Row {
            overlap,
            critical,
            recomputations_unpatched: unpatched.stats().recomputations,
            recomputations_patched: patched.stats().recomputations,
            queue_len,
        });
    }
    let mut lines = vec![format!(
        "{:>8}{:>10}{:>22}{:>20}{:>12}",
        "overlap", "critical", "recompute(unpatched)", "recompute(patched)", "queue"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:>8.2}{:>10}{:>22}{:>20}{:>12}",
            r.overlap,
            r.critical,
            r.recomputations_unpatched,
            r.recomputations_patched,
            r.queue_len
        ));
    }
    (
        Report {
            title: "E2: Theorem 3 patching vs recomputation for R −exp S".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E3 — eager vs lazy removal
// ---------------------------------------------------------------------

/// One configuration of E3.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Policy description.
    pub policy: String,
    /// Mean trigger lag in ticks (`fired_at − texp`).
    pub mean_trigger_lag: f64,
    /// Peak physical rows across the run.
    pub peak_rows: usize,
    /// Vacuum passes run.
    pub vacuums: u64,
}

/// E3: an expiry-heavy session workload under eager removal vs lazy
/// removal at several vacuum cadences. Eager pays per-event processing
/// and gets exact trigger times and minimal space; lazy batches work at
/// the cost of trigger lag and peak space.
#[must_use]
pub fn e3_eager_vs_lazy(sessions: usize, seed: u64) -> (Report, Vec<E3Row>) {
    let stream = crate::workload::session_stream(sessions, 1, 40, 0.3, 2, seed);
    let configs: Vec<(String, Removal)> = vec![
        ("eager".into(), Removal::Eager),
        ("lazy/10".into(), Removal::Lazy { vacuum_every: 10 }),
        ("lazy/100".into(), Removal::Lazy { vacuum_every: 100 }),
        ("lazy/1000".into(), Removal::Lazy { vacuum_every: 1000 }),
    ];
    let mut out_rows = Vec::new();
    for (name, removal) in configs {
        let mut db = Database::new(DbConfig {
            removal,
            ..DbConfig::default()
        });
        // (`ttl` became a reserved keyword with the PR 9 policy layer;
        // the column holds the session's lifetime in ticks)
        db.execute("CREATE TABLE sessions (sid INT, life INT)")
            .unwrap();
        // Trigger lag accumulates as each trigger fires: (fired, Σ lag).
        let lag = Arc::new(Mutex::new((0u64, 0u64)));
        let sink = Arc::clone(&lag);
        let on_expire = move |e: &ExpirationEvent| {
            let mut sum = sink.lock().expect("no panic holds the lock");
            sum.0 += 1;
            sum.1 += e.fired_at.finite().unwrap() - e.texp.finite().unwrap();
        };
        db.on_expire("sessions", "trigger_lag", Box::new(on_expire));
        let mut peak = 0usize;
        for &(at, sid, ttl) in &stream.events {
            let now = db.now();
            if t(at) > now {
                db.advance_to(t(at));
            }
            db.insert(
                "sessions",
                exptime_core::tuple![sid, ttl as i64],
                t(at + ttl),
            )
            .unwrap();
            peak = peak.max(db.table("sessions").unwrap().len());
        }
        db.advance_to(t(stream.horizon + 1));
        if let Removal::Lazy { .. } = removal {
            db.vacuum(); // final flush so all triggers fire
        }
        let (fired, lag_sum) = *lag.lock().expect("no panic holds the lock");
        let mean_trigger_lag = if fired == 0 {
            0.0
        } else {
            lag_sum as f64 / fired as f64
        };
        out_rows.push(E3Row {
            policy: name,
            mean_trigger_lag,
            peak_rows: peak,
            vacuums: db.stats().vacuums,
        });
    }
    let mut lines = vec![format!(
        "{:<12}{:>18}{:>12}{:>10}",
        "policy", "mean trigger lag", "peak rows", "vacuums"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:<12}{:>18.2}{:>12}{:>10}",
            r.policy, r.mean_trigger_lag, r.peak_rows, r.vacuums
        ));
    }
    (
        Report {
            title: "E3: eager vs lazy removal (Section 3.2)".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E4 — aggregate expiration modes
// ---------------------------------------------------------------------

/// One function/mode pair of E4.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Aggregate function name.
    pub func: String,
    /// Mean result-tuple lifetime under Eq. 8.
    pub naive: f64,
    /// Mean lifetime under Table 1 contributing sets.
    pub contributing: f64,
    /// Mean lifetime under exact ν (Eq. 9) — the ground-truth maximum.
    pub exact: f64,
}

/// E4: mean aggregation-result lifetimes under the three expiration-time
/// assignment modes, per SQL aggregate, over partitions with skewed
/// lifetimes and clustered values (so neutral sets actually occur).
#[must_use]
pub fn e4_aggregate_modes(rows: usize, seed: u64) -> (Report, Vec<E4Row>) {
    let table = TableGen {
        rows,
        keys: 25,
        key_skew: 0.8,
        values: 8, // few distinct values → ties for min/max, zero-sums
        lifetimes: LifetimeDist::HeavyTail {
            base: 16,
            spread: 5,
        },
        seed,
        ..TableGen::default()
    }
    .generate()
    .to_relation();

    let funcs = [
        AggFunc::Min(1),
        AggFunc::Max(1),
        AggFunc::Sum(1),
        AggFunc::Avg(1),
        AggFunc::Count,
    ];
    let mut out_rows = Vec::new();
    for f in funcs {
        let mut sums = [0.0f64; 3];
        let mut n = 0usize;
        for (_, partition) in aggregate::partition(&table, &[0], Time::ZERO) {
            for (i, mode) in [AggMode::Naive, AggMode::Contributing, AggMode::Exact]
                .into_iter()
                .enumerate()
            {
                let texp = aggregate::result_texp(&partition, f, mode, Time::ZERO).unwrap();
                // Lifetimes capped for ∞ (counts as the partition horizon).
                let cap = aggregate::nu::partition_death(&partition)
                    .unwrap()
                    .finite()
                    .unwrap_or(u64::MAX - 1);
                sums[i] += texp.finite().unwrap_or(cap) as f64;
            }
            n += 1;
        }
        out_rows.push(E4Row {
            func: f.to_string(),
            naive: sums[0] / n as f64,
            contributing: sums[1] / n as f64,
            exact: sums[2] / n as f64,
        });
    }
    let mut lines = vec![format!(
        "{:<10}{:>14}{:>16}{:>12}",
        "function", "naive (Eq.8)", "contributing", "exact (ν)"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:<10}{:>14.2}{:>16.2}{:>12.2}",
            r.func, r.naive, r.contributing, r.exact
        ));
    }
    (
        Report {
            title: "E4: mean aggregate result-tuple lifetime by expiration mode".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E6 — loosely-coupled synchronisation cost
// ---------------------------------------------------------------------

/// One strategy/view pair of E6.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// View kind ("monotonic σ", "difference" or "count γ").
    pub view: String,
    /// Strategy name.
    pub strategy: String,
    /// Total messages over the run.
    pub messages: u64,
    /// Total tuples transferred.
    pub tuples: u64,
}

/// E6: a replica reads a view every tick for `horizon` ticks while the
/// server's tuples expire. Strategies: expiration-aware (recompute-on-
/// expiry), expiration-aware with patching, delete-push, polling.
#[must_use]
pub fn e6_replica_sync(rows: usize, horizon: u64, seed: u64) -> (Report, Vec<E6Row>) {
    let mut out_rows = Vec::new();
    for (view_name, make_expr) in [
        (
            // val = i % 97 in difference_pair, so `< 48` keeps about half
            // the rows — the delete-push baseline then pays one notice per
            // expiring view tuple.
            "monotonic σ",
            Box::new(|| Expr::base("r").select(Predicate::attr_cmp_const(1, CmpOp::Lt, 48)))
                as Box<dyn Fn() -> Expr>,
        ),
        (
            "difference",
            Box::new(|| Expr::base("r").difference(Expr::base("s"))),
        ),
        (
            // The bare Klug count: each of the ≈ 97 groups by `val` goes
            // wrong as its rows expire, one at a time.
            "count γ",
            Box::new(|| Expr::base("r").aggregate([1], AggFunc::Count)),
        ),
    ] {
        let build_server = || {
            let mut db = Database::new(DbConfig::default());
            db.execute("CREATE TABLE r (key INT, val INT)").unwrap();
            db.execute("CREATE TABLE s (key INT, val INT)").unwrap();
            let (rg, sg) = difference_pair(
                rows,
                0.5,
                LifetimeDist::Uniform {
                    min: 1,
                    max: horizon,
                },
                LifetimeDist::Uniform {
                    min: 1,
                    max: horizon / 2,
                },
                seed,
            );
            for (tp, e) in rg.rows {
                db.insert("r", tp, e).unwrap();
            }
            for (tp, e) in sg.rows {
                db.insert("s", tp, e).unwrap();
            }
            db
        };

        // Expiration-aware, recompute on expiry.
        {
            let mut srv = build_server();
            let mut rep = Replica::new(RefreshPolicy::Recompute);
            rep.subscribe("v", make_expr(), &srv).unwrap();
            for _ in 0..horizon {
                srv.tick(1);
                rep.read("v", &srv).unwrap();
            }
            let s = rep.link_stats();
            out_rows.push(E6Row {
                view: view_name.into(),
                strategy: "exp-aware".into(),
                messages: s.total_messages(),
                tuples: s.tuples_transferred,
            });
        }
        // Expiration-aware with Theorem 3 patching.
        {
            let mut srv = build_server();
            let mut rep = Replica::new(RefreshPolicy::Patch);
            rep.subscribe("v", make_expr(), &srv).unwrap();
            for _ in 0..horizon {
                srv.tick(1);
                rep.read("v", &srv).unwrap();
            }
            let s = rep.link_stats();
            out_rows.push(E6Row {
                view: view_name.into(),
                strategy: "exp-aware+patch".into(),
                messages: s.total_messages(),
                tuples: s.tuples_transferred,
            });
        }
        // Delete-push.
        {
            let mut srv = build_server();
            let mut cache = DeletePushReplica::subscribe(make_expr(), &srv).unwrap();
            for _ in 0..horizon {
                srv.tick(1);
                cache.server_sync(&srv).unwrap();
            }
            let s = cache.link_stats();
            out_rows.push(E6Row {
                view: view_name.into(),
                strategy: "delete-push".into(),
                messages: s.total_messages(),
                tuples: s.tuples_transferred,
            });
        }
        // Polling.
        {
            let mut srv = build_server();
            let mut poll = PollingReplica::new(make_expr(), &srv);
            for _ in 0..horizon {
                srv.tick(1);
                poll.read(&srv).unwrap();
            }
            let s = poll.link_stats();
            out_rows.push(E6Row {
                view: view_name.into(),
                strategy: "polling".into(),
                messages: s.total_messages(),
                tuples: s.tuples_transferred,
            });
        }
    }
    let mut lines = vec![format!(
        "{:<14}{:<18}{:>10}{:>14}",
        "view", "strategy", "messages", "tuples moved"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:<14}{:<18}{:>10}{:>14}",
            r.view, r.strategy, r.messages, r.tuples
        ));
    }
    (
        Report {
            title: "E6: maintenance traffic in a loosely-coupled deployment".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E6-chaos — synchronisation cost and recovery latency under faults
// ---------------------------------------------------------------------

/// One strategy/loss-rate combination of E6-chaos.
#[derive(Debug, Clone)]
pub struct E6ChaosRow {
    /// Per-message loss probability of the run.
    pub loss: f64,
    /// Strategy name ("exp-aware" or "delete-push").
    pub strategy: String,
    /// Messages that crossed the link (retransmissions included).
    pub messages: u64,
    /// Crossed messages net of retries: the protocol's intrinsic cost.
    pub first_transmissions: u64,
    /// Retransmissions forced by the loss.
    pub retransmissions: u64,
    /// Tuples shipped over the link.
    pub tuples: u64,
    /// Ticks from healing the link to full reconvergence with the server.
    pub recovery_ticks: u64,
    /// Whether the replica reconverged within the recovery window.
    pub converged: bool,
}

/// E6-chaos: the E6 difference workload run over a *lossy* link at
/// several loss rates, then healed. Compares the expiration-aware
/// replica (session protocol + anti-entropy digest reconciliation on
/// reconnect) against the chaos-hardened delete-push baseline
/// (seq-numbered notices, cumulative acks, retransmission of the unacked
/// suffix). Reports total/first-transmission/retry message counts and
/// the recovery latency after healing — the paper's "volatile settings"
/// argument, quantified under actual volatility.
#[must_use]
pub fn e6_chaos(
    rows: usize,
    horizon: u64,
    loss_rates: &[f64],
    seed: u64,
) -> (Report, Vec<E6ChaosRow>) {
    let expr = || Expr::base("r").difference(Expr::base("s"));
    let build_server = |s: u64| {
        let mut db = Database::new(DbConfig::default());
        db.execute("CREATE TABLE r (key INT, val INT)").unwrap();
        db.execute("CREATE TABLE s (key INT, val INT)").unwrap();
        let (rg, sg) = difference_pair(
            rows,
            0.5,
            LifetimeDist::Uniform {
                min: 1,
                max: horizon,
            },
            LifetimeDist::Uniform {
                min: 1,
                max: horizon / 2,
            },
            s,
        );
        for (tp, e) in rg.rows {
            db.insert("r", tp, e).unwrap();
        }
        for (tp, e) in sg.rows {
            db.insert("s", tp, e).unwrap();
        }
        db
    };
    let truth_of = |srv: &Database| {
        eval(
            &srv.inline_views(&expr()),
            srv,
            srv.now(),
            &EvalOptions::default(),
        )
        .unwrap()
        .rel
    };
    // Generous: recovery is expected within a few backoff intervals.
    let recovery_cap = 8 * RetryPolicy::default().max_interval + 16;

    let mut out_rows = Vec::new();
    for (i, &loss) in loss_rates.iter().enumerate() {
        let spec = FaultSpec::lossy(seed.wrapping_mul(100).wrapping_add(i as u64), loss);

        // Expiration-aware: reads every tick, degraded reads tolerated,
        // one anti-entropy digest exchange after healing.
        {
            let mut srv = build_server(seed);
            let mut rep = Replica::with_faults(spec, RetryPolicy::default());
            rep.subscribe("v", expr(), &srv).unwrap();
            for _ in 0..horizon {
                srv.tick(1);
                let _ = rep.read("v", &srv); // stale service mid-chaos is the point
            }
            rep.link().heal();
            rep.reconcile(&srv).unwrap();
            let mut recovery = 0u64;
            let mut converged = false;
            while recovery <= recovery_cap {
                if rep.quiesced() {
                    if let Ok((rel, _)) = rep.read("v", &srv) {
                        if rel.set_eq(&truth_of(&srv)) {
                            converged = true;
                            break;
                        }
                    }
                }
                srv.tick(1);
                let _ = rep.pump(&srv);
                recovery += 1;
            }
            let s = rep.link_stats();
            out_rows.push(E6ChaosRow {
                loss,
                strategy: "exp-aware".into(),
                messages: s.total_messages(),
                first_transmissions: s.first_transmissions(),
                retransmissions: s.retransmissions,
                tuples: s.tuples_transferred,
                recovery_ticks: recovery,
                converged,
            });
        }

        // Delete-push: the server must push every change and retransmit
        // until acknowledged; recovery = draining the unacked outbox.
        {
            let mut srv = build_server(seed);
            let mut push =
                ChaosDeletePush::subscribe(expr(), &srv, spec, RetryPolicy::default()).unwrap();
            for _ in 0..horizon {
                srv.tick(1);
                let _ = push.server_sync(&srv);
            }
            push.link().heal();
            let mut recovery = 0u64;
            let mut converged = false;
            while recovery <= recovery_cap {
                let _ = push.server_sync(&srv);
                if push.quiesced() && push.read().tuples_eq_at(&truth_of(&srv), srv.now()) {
                    converged = true;
                    break;
                }
                srv.tick(1);
                recovery += 1;
            }
            let s = push.link_stats();
            out_rows.push(E6ChaosRow {
                loss,
                strategy: "delete-push".into(),
                messages: s.total_messages(),
                first_transmissions: s.first_transmissions(),
                retransmissions: s.retransmissions,
                tuples: s.tuples_transferred,
                recovery_ticks: recovery,
                converged,
            });
        }
    }

    let mut lines = vec![format!(
        "{:<8}{:<14}{:>10}{:>10}{:>10}{:>10}{:>12}{:>6}",
        "loss", "strategy", "messages", "first", "retries", "tuples", "recovery", "ok"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:<8}{:<14}{:>10}{:>10}{:>10}{:>10}{:>12}{:>6}",
            format!("{:.2}", r.loss),
            r.strategy,
            r.messages,
            r.first_transmissions,
            r.retransmissions,
            r.tuples,
            r.recovery_ticks,
            if r.converged { "yes" } else { "NO" },
        ));
    }

    (
        Report {
            title: "E6-chaos: sync cost and recovery latency over a lossy link".into(),
            lines,
        },
        out_rows,
    )
}

// ---------------------------------------------------------------------
// E7 — Schrödinger intervals answer more queries locally
// ---------------------------------------------------------------------

/// One model row of E7.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Validity model name.
    pub model: String,
    /// Fraction of query times answerable from the materialisation.
    pub local_fraction: f64,
}

/// E7: materialise a difference once, then issue queries at uniformly
/// random times over the horizon. Count the fraction answerable without
/// recomputation under (a) the single-`texp(e)` model, (b) Equation 12
/// intervals, (c) exact per-tuple-hole intervals.
///
/// The workload is built so that critical tuples produce *short,
/// scattered* invalidity holes `[texp_S(t), texp_R(t)[` — the regime the
/// interval models were designed for: one early hole pins the single
/// `texp(e)` near zero, Equation 12 blankets everything from the first
/// hole to the last, and only the exact union of holes recovers the gaps
/// between them.
#[must_use]
pub fn e7_schrodinger(rows: usize, queries: usize, seed: u64) -> (Report, Vec<E7Row>) {
    use exptime_core::schema::Schema;
    use exptime_core::tuple::Tuple;
    use exptime_core::value::{Value, ValueType};
    use rand::{Rng, SeedableRng};

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]);
    let mut r = exptime_core::relation::Relation::new(schema.clone());
    let mut s = exptime_core::relation::Relation::new(schema);
    // A sparse set of critical tuples with short reappearance windows…
    let criticals = (rows / 20).max(4);
    for i in 0..criticals as i64 {
        let tuple = Tuple::new(vec![Value::Int(i), Value::Int(0)]);
        let appear = rng.gen_range(50..900);
        let window = rng.gen_range(5..25);
        s.insert(tuple.clone(), Time::new(appear)).unwrap();
        r.insert(tuple, Time::new(appear + window)).unwrap();
    }
    // …plus plenty of non-critical filler on both sides.
    for i in criticals as i64..rows as i64 {
        let tuple = Tuple::new(vec![Value::Int(i), Value::Int(1)]);
        r.insert(tuple.clone(), Time::new(rng.gen_range(900..1050)))
            .unwrap();
        if rng.gen_bool(0.3) {
            // In S with a *later* expiry than R: case 3b, never critical.
            s.insert(tuple, Time::new(1_060)).unwrap();
        }
    }
    // The expression is `r − s` over two bases: Equation 12 over them is
    // the difference's.
    let eq12 = ops::difference_meta(&r, &s, Time::ZERO).validity_eq12;
    let mut catalog = Catalog::new();
    catalog.register("r", r);
    catalog.register("s", s);
    let expr = Expr::base("r").difference(Expr::base("s"));
    let exact = eval(&expr, &catalog, Time::ZERO, &EvalOptions::default()).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD);
    let mut hits = [0usize; 3];
    for _ in 0..queries {
        let q = t(rng.gen_range(0..1100));
        if q < exact.texp {
            hits[0] += 1;
        }
        if eq12.contains(q) {
            hits[1] += 1;
        }
        if exact.validity.contains(q) {
            hits[2] += 1;
        }
        // Sanity: any "valid" answer must equal ground truth.
        if exact.validity.contains(q) {
            let fresh = eval(&expr, &catalog, q, &EvalOptions::default()).unwrap();
            assert!(
                exact.rel.tuples_eq_at(&fresh.rel, q),
                "invalid local hit at {q}"
            );
        }
    }
    let rows_out: Vec<E7Row> = [
        ("single texp(e)", hits[0]),
        ("Eq. 12 intervals", hits[1]),
        ("exact intervals", hits[2]),
    ]
    .into_iter()
    .map(|(m, h)| E7Row {
        model: m.into(),
        local_fraction: h as f64 / queries as f64,
    })
    .collect();
    let mut lines = vec![format!("{:<20}{:>16}", "validity model", "local answers")];
    for r in &rows_out {
        lines.push(format!(
            "{:<20}{:>15.1}%",
            r.model,
            r.local_fraction * 100.0
        ));
    }
    (
        Report {
            title: "E7: queries answerable without recomputation (Schrödinger)".into(),
            lines,
        },
        rows_out,
    )
}

// ---------------------------------------------------------------------
// E8 — rewriting postpones recomputation
// ---------------------------------------------------------------------

/// One plan of E8.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Plan description.
    pub plan: String,
    /// Critical tuples under this plan.
    pub critical: usize,
    /// Expression expiration time.
    pub texp: Time,
    /// Whether the plan's root is a patchable difference.
    pub root_patchable: bool,
}

/// E8: a selective σ above `R −exp S`, original vs rewritten (σ pushed
/// below the difference). The rewritten plan's critical set shrinks, its
/// `texp(e)` moves later, and its root becomes patchable.
#[must_use]
pub fn e8_rewriting(rows: usize, seed: u64) -> (Report, Vec<E8Row>) {
    let (rg, sg) = difference_pair(
        rows,
        0.6,
        LifetimeDist::Uniform { min: 50, max: 100 },
        LifetimeDist::Uniform { min: 1, max: 49 },
        seed,
    );
    let mut catalog = Catalog::new();
    catalog.register("r", rg.to_relation());
    catalog.register("s", sg.to_relation());
    // Selective predicate: val < 10 keeps ~10% of tuples (val ∈ 0..97).
    let pred = Predicate::attr_cmp_const(1, CmpOp::Lt, 10);
    let original = Expr::base("r")
        .difference(Expr::base("s"))
        .select(pred.clone());
    let rewritten = rewrite::rewrite(&original);

    let mut rows_out = Vec::new();
    for (name, expr) in [
        ("σ above −exp (original)", &original),
        ("σ pushed below (rewritten)", &rewritten),
    ] {
        let m = eval(expr, &catalog, Time::ZERO, &EvalOptions::default()).unwrap();
        // Critical set of the difference node as the plan sees it.
        let critical = match expr {
            Expr::Select { input, .. } => match &**input {
                Expr::Difference { .. } => {
                    let l = catalog.get("r").unwrap();
                    let s = catalog.get("s").unwrap();
                    ops::critical_tuples(l, s, Time::ZERO).len()
                }
                _ => unreachable!(),
            },
            Expr::Difference { left, right } => {
                let l = eval(left, &catalog, Time::ZERO, &EvalOptions::default()).unwrap();
                let r = eval(right, &catalog, Time::ZERO, &EvalOptions::default()).unwrap();
                ops::critical_tuples(&l.rel, &r.rel, Time::ZERO).len()
            }
            _ => 0,
        };
        rows_out.push(E8Row {
            plan: name.into(),
            critical,
            texp: m.texp,
            root_patchable: rewrite::is_root_patchable(expr),
        });
    }
    // The two plans are semantically identical at every instant.
    for tau in (0..110).step_by(7) {
        let a = eval(&original, &catalog, t(tau), &EvalOptions::default()).unwrap();
        let b = eval(&rewritten, &catalog, t(tau), &EvalOptions::default()).unwrap();
        assert!(a.rel.set_eq(&b.rel), "rewrite changed semantics at {tau}");
    }
    let mut lines = vec![format!(
        "{:<30}{:>10}{:>10}{:>16}",
        "plan", "critical", "texp(e)", "root patchable"
    )];
    for r in &rows_out {
        lines.push(format!(
            "{:<30}{:>10}{:>10}{:>16}",
            r.plan,
            r.critical,
            r.texp.to_string(),
            r.root_patchable
        ));
    }
    (
        Report {
            title: "E8: algebraic rewriting shrinks the critical set (Section 3.1)".into(),
            lines,
        },
        rows_out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_monotonic_zero_nonmonotonic_positive() {
        let (_, rows) = e1_monotonic_maintenance(300, 7);
        for r in &rows {
            if r.monotonic {
                assert_eq!(r.recomputations, 0, "{}", r.view);
            }
        }
        let diff = rows.iter().find(|r| r.view.contains('−')).unwrap();
        assert!(diff.recomputations > 0, "difference must recompute");
        let agg = rows.iter().find(|r| r.view.contains("agg")).unwrap();
        assert!(agg.recomputations > 0, "aggregate must recompute");
        // Non-monotonic recomputations stay well below read count (they
        // only happen when texp(e) passes).
        assert!(diff.recomputations < diff.reads);
    }

    #[test]
    fn e2_shape_patched_never_recomputes_and_grows_with_overlap() {
        let (_, rows) = e2_patching(400, 11);
        for r in &rows {
            assert_eq!(r.recomputations_patched, 0, "Theorem 3 at {}", r.overlap);
            assert_eq!(r.queue_len, r.critical, "queue = |critical|");
        }
        assert_eq!(rows[0].critical, 0, "no overlap → no critical tuples");
        assert_eq!(rows[0].recomputations_unpatched, 0);
        assert!(
            rows[4].recomputations_unpatched > rows[1].recomputations_unpatched,
            "recomputations grow with overlap: {:?}",
            rows.iter()
                .map(|r| r.recomputations_unpatched)
                .collect::<Vec<_>>()
        );
        assert!(rows[4].recomputations_unpatched > 50);
    }

    #[test]
    fn e3_shape_eager_exact_lazy_lagged() {
        let (_, rows) = e3_eager_vs_lazy(300, 3);
        let eager = &rows[0];
        assert_eq!(eager.mean_trigger_lag, 0.0, "eager fires exactly at texp");
        assert_eq!(eager.vacuums, 0);
        let lazy1000 = rows.iter().find(|r| r.policy == "lazy/1000").unwrap();
        assert!(lazy1000.mean_trigger_lag > 0.0, "lazy lags");
        assert!(
            lazy1000.peak_rows >= eager.peak_rows,
            "lazy holds more physical rows"
        );
        // Longer cadence → more lag than shorter cadence.
        let lazy10 = rows.iter().find(|r| r.policy == "lazy/10").unwrap();
        assert!(lazy1000.mean_trigger_lag >= lazy10.mean_trigger_lag);
    }

    #[test]
    fn e4_shape_lifetime_ordering() {
        let (_, rows) = e4_aggregate_modes(1500, 13);
        for r in &rows {
            assert!(
                r.naive <= r.contributing + 1e-9,
                "{}: naive {} ≤ contributing {}",
                r.func,
                r.naive,
                r.contributing
            );
            assert!(
                r.contributing <= r.exact + 1e-9,
                "{}: contributing {} ≤ exact {}",
                r.func,
                r.contributing,
                r.exact
            );
        }
        // count gains nothing from contributing sets…
        let count = rows.iter().find(|r| r.func == "count").unwrap();
        assert!((count.naive - count.contributing).abs() < 1e-9);
        // …but min/max do, given value ties.
        let min = rows.iter().find(|r| r.func == "min_2").unwrap();
        assert!(min.contributing > min.naive, "{min:?}");
    }

    #[test]
    fn e6_shape_expiration_awareness_wins() {
        let (_, rows) = e6_replica_sync(300, 120, 19);
        let get = |view: &str, strat: &str| {
            rows.iter()
                .find(|r| r.view == view && r.strategy == strat)
                .unwrap()
                .messages
        };
        // Monotonic: exp-aware = subscribe only; beats both baselines.
        let m_aware = get("monotonic σ", "exp-aware");
        assert_eq!(m_aware, 2);
        assert!(m_aware < get("monotonic σ", "delete-push"));
        assert!(get("monotonic σ", "delete-push") < get("monotonic σ", "polling"));
        // Difference: patching beats plain exp-aware beats polling.
        let d_patch = get("difference", "exp-aware+patch");
        let d_aware = get("difference", "exp-aware");
        assert_eq!(d_patch, 2, "Theorem 3: subscribe only");
        assert!(d_patch <= d_aware);
        assert!(d_aware < get("difference", "polling"));
        // Count: patching recomputes each group locally.
        let c_patch = get("count γ", "exp-aware+patch");
        assert_eq!(c_patch, 2, "Theorem 3: subscribe only");
        assert!(c_patch < get("count γ", "exp-aware"));
        assert!(get("count γ", "exp-aware") <= get("count γ", "polling"));
    }

    #[test]
    fn e6_chaos_shape_exp_aware_wins_at_every_loss_rate() {
        let (_, rows) = e6_chaos(120, 60, &[0.0, 0.25, 0.5], 19);
        assert_eq!(rows.len(), 6, "two strategies at three loss rates");
        for pair in rows.chunks(2) {
            let aware = &pair[0];
            let push = &pair[1];
            assert_eq!(aware.strategy, "exp-aware");
            assert_eq!(push.strategy, "delete-push");
            assert!(
                aware.converged,
                "exp-aware reconverged at loss {}",
                aware.loss
            );
            assert!(
                push.converged,
                "delete-push reconverged at loss {}",
                push.loss
            );
            assert!(
                aware.messages < push.messages,
                "loss {}: exp-aware ({}) < delete-push ({})",
                aware.loss,
                aware.messages,
                push.messages
            );
            // Anti-entropy repairs in (at most) one digest exchange; the
            // delete-push outbox drains over backoff intervals.
            assert!(
                aware.recovery_ticks <= push.recovery_ticks,
                "loss {}: recovery {} ≤ {}",
                aware.loss,
                aware.recovery_ticks,
                push.recovery_ticks
            );
        }
        // Loss manifests as retransmissions, never as lost updates.
        let lossless = &rows[0];
        assert_eq!(lossless.retransmissions, 0, "no loss → no retries");
        let lossy_push = &rows[5];
        assert!(lossy_push.retransmissions > 0, "loss → retries");
        // First-transmission cost is comparable across loss rates: the
        // intrinsic protocol cost does not grow with the loss.
        let push_first: Vec<u64> = rows
            .iter()
            .filter(|r| r.strategy == "delete-push")
            .map(|r| r.first_transmissions)
            .collect();
        let spread = push_first.iter().max().unwrap() - push_first.iter().min().unwrap();
        assert!(
            spread * 5 <= *push_first.iter().max().unwrap(),
            "first transmissions roughly stable: {push_first:?}"
        );
    }

    #[test]
    fn e7_shape_interval_models_dominate_single_texp() {
        let (_, rows) = e7_schrodinger(400, 500, 23);
        let single = rows[0].local_fraction;
        let eq12 = rows[1].local_fraction;
        let exact = rows[2].local_fraction;
        assert!(single <= eq12 + 1e-9, "{single} ≤ {eq12}");
        assert!(eq12 <= exact + 1e-9, "{eq12} ≤ {exact}");
        assert!(
            exact > single,
            "intervals must win: single={single} exact={exact}"
        );
        assert!(
            exact > eq12 + 0.1,
            "scattered short holes: exact ({exact}) must clearly beat Eq. 12 ({eq12})"
        );
    }

    #[test]
    fn e8_shape_rewrite_shrinks_critical_set() {
        let (_, rows) = e8_rewriting(500, 29);
        let orig = &rows[0];
        let new = &rows[1];
        assert!(new.critical < orig.critical, "{new:?} vs {orig:?}");
        assert!(new.texp >= orig.texp, "texp moves later");
        assert!(new.root_patchable && !orig.root_patchable);
    }
}

// ---------------------------------------------------------------------
// E9 — approximate aggregates with error bounds (paper §5, future work)
// ---------------------------------------------------------------------

/// One tolerance point of E9.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Relative tolerance.
    pub tolerance: f64,
    /// Mean result-tuple lifetime (ticks from τ).
    pub mean_lifetime: f64,
    /// Lifetime as a multiple of the exact-ν lifetime.
    pub extension: f64,
    /// Worst observed relative error across all partitions while tuples
    /// were alive (must stay ≤ tolerance).
    pub worst_error: f64,
}

/// E9: sweep a relative error bound on `sum` over skewed partitions;
/// measure how far bounded staleness stretches result lifetimes and
/// verify the observed error never exceeds the bound — the paper's
/// Section 5 "aggregate values with certain error bounds" direction.
#[must_use]
pub fn e9_approximate_aggregates(rows: usize, seed: u64) -> (Report, Vec<E9Row>) {
    use exptime_core::aggregate::approx::{self, Tolerance};
    let table = TableGen {
        rows,
        keys: 30,
        values: 200,
        lifetimes: LifetimeDist::HeavyTail {
            base: 20,
            spread: 4,
        },
        seed,
        ..TableGen::default()
    }
    .generate()
    .to_relation();
    let f = AggFunc::Sum(1);
    let parts = aggregate::partition(&table, &[0], Time::ZERO);

    // Exact baseline.
    let mut exact_sum = 0.0;
    for (_, p) in &parts {
        let mut apply = |rows: &[aggregate::Row]| f.apply(rows);
        let texp = nu::nu(Time::ZERO, p, &mut apply).unwrap();
        let cap = aggregate::nu::partition_death(p)
            .unwrap()
            .finite()
            .unwrap_or(u64::MAX - 1);
        exact_sum += texp.finite().unwrap_or(cap) as f64;
    }
    let exact_mean = exact_sum / parts.len() as f64;

    let mut out_rows = Vec::new();
    for tol in [0.0, 0.01, 0.05, 0.10, 0.25] {
        let mut life_sum = 0.0;
        let mut worst = 0.0f64;
        for (_, p) in &parts {
            let texp = approx::tolerant_texp(Time::ZERO, p, f, Tolerance::Relative(tol)).unwrap();
            let cap = aggregate::nu::partition_death(p)
                .unwrap()
                .finite()
                .unwrap_or(u64::MAX - 1);
            life_sum += texp.finite().unwrap_or(cap) as f64;
            let err = approx::max_error_within(Time::ZERO, p, f, texp).unwrap();
            let original = f
                .apply(p)
                .unwrap()
                .and_then(|v| v.as_numeric())
                .unwrap_or(0.0);
            if original.abs() > f64::EPSILON {
                worst = worst.max(err / original.abs());
            }
        }
        let mean = life_sum / parts.len() as f64;
        out_rows.push(E9Row {
            tolerance: tol,
            mean_lifetime: mean,
            extension: mean / exact_mean,
            worst_error: worst,
        });
    }
    let mut lines = vec![format!(
        "{:>10}{:>16}{:>12}{:>16}",
        "tolerance", "mean lifetime", "extension", "worst error"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:>9.0}%{:>16.2}{:>11.2}×{:>15.4}%",
            r.tolerance * 100.0,
            r.mean_lifetime,
            r.extension,
            r.worst_error * 100.0
        ));
    }
    (
        Report {
            title: "E9: approximate sum aggregates under a relative error bound (§5)".into(),
            lines,
        },
        out_rows,
    )
}

#[cfg(test)]
mod e9_tests {
    use super::*;

    #[test]
    fn e9_shape_lifetime_grows_error_stays_bounded() {
        let (_, rows) = e9_approximate_aggregates(1500, 37);
        for w in rows.windows(2) {
            assert!(
                w[0].mean_lifetime <= w[1].mean_lifetime + 1e-9,
                "lifetime monotone in tolerance: {w:?}"
            );
        }
        for r in &rows {
            assert!(
                r.worst_error <= r.tolerance + 1e-9,
                "observed error {} exceeds bound {}",
                r.worst_error,
                r.tolerance
            );
        }
        assert!((rows[0].extension - 1.0).abs() < 1e-9, "0% = exact ν");
        assert!(
            rows.last().unwrap().extension > 1.2,
            "25% bound must buy a real extension: {:?}",
            rows.last().unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// E10 — bounded patch queues: the §3.4.2 space/communication trade-off
// ---------------------------------------------------------------------

/// One cap point of E10.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Queue capacity (`usize::MAX` renders as "∞" = unbounded).
    pub cap: usize,
    /// Peak queue entries actually held.
    pub queue_used: usize,
    /// Recomputations over the run.
    pub recomputations: u64,
    /// Patches applied locally.
    pub patches_applied: u64,
}

/// E10: sweep the patch-queue capacity for a heavily-critical difference
/// view read at every event time. Capacity buys recomputation savings:
/// cap 0 behaves like an unpatched view, unbounded behaves like full
/// Theorem 3, and intermediate caps interpolate — the paper's "policy
/// for deciding how many r to keep in the queue".
#[must_use]
pub fn e10_bounded_queue(rows: usize, seed: u64) -> (Report, Vec<E10Row>) {
    let (rg, sg) = difference_pair(
        rows,
        0.8,
        LifetimeDist::Uniform { min: 200, max: 400 },
        LifetimeDist::Uniform { min: 1, max: 199 },
        seed,
    );
    let r = rg.to_relation();
    let s = sg.to_relation();
    let mut catalog = Catalog::new();
    catalog.register("r", r.clone());
    catalog.register("s", s);
    let expr = Expr::base("r").difference(Expr::base("s"));
    let mut events = r.event_times(Time::ZERO);
    events.extend(catalog.get("s").unwrap().event_times(Time::ZERO));
    events.sort_unstable();
    events.dedup();

    let total_critical = ops::critical_tuples(
        catalog.get("r").unwrap(),
        catalog.get("s").unwrap(),
        Time::ZERO,
    )
    .len();
    let caps = [
        0usize,
        total_critical / 16,
        total_critical / 4,
        total_critical / 2,
        usize::MAX,
    ];
    let mut out_rows = Vec::new();
    for &cap in &caps {
        let opts = EvalOptions {
            patch_root: true,
            patch_queue_cap: if cap == usize::MAX { None } else { Some(cap) },
            ..EvalOptions::default()
        };
        let mut view = MaterializedView::new(
            expr.clone(),
            &catalog,
            Time::ZERO,
            opts,
            RefreshPolicy::Patch,
            RemovalPolicy::Lazy,
        )
        .unwrap();
        let queue_used = view
            .materialized()
            .patches
            .as_ref()
            .map_or(0, exptime_core::patch::PatchQueue::len);
        for (i, &e) in events.iter().enumerate() {
            let got = view.read(&catalog, e).unwrap();
            if i % 64 == 0 {
                let fresh = eval(&expr, &catalog, e, &EvalOptions::default()).unwrap();
                assert!(got.set_eq(&fresh.rel.exp(e)), "cap {cap} wrong at {e}");
            }
        }
        out_rows.push(E10Row {
            cap,
            queue_used,
            recomputations: view.stats().recomputations,
            patches_applied: view.stats().patches_applied,
        });
    }
    let mut lines = vec![format!(
        "{:>10}{:>12}{:>16}{:>10}   (critical tuples: {total_critical})",
        "queue cap", "queue used", "recomputations", "patches"
    )];
    for r in &out_rows {
        lines.push(format!(
            "{:>10}{:>12}{:>16}{:>10}",
            if r.cap == usize::MAX {
                "∞".to_string()
            } else {
                r.cap.to_string()
            },
            r.queue_used,
            r.recomputations,
            r.patches_applied
        ));
    }
    (
        Report {
            title: "E10: bounded patch queues — storage vs recomputation (§3.4.2)".into(),
            lines,
        },
        out_rows,
    )
}

#[cfg(test)]
mod e10_tests {
    use super::*;

    #[test]
    fn e10_shape_capacity_buys_recomputation_savings() {
        let (_, rows) = e10_bounded_queue(600, 41);
        // Monotone: more queue → fewer recomputations.
        for w in rows.windows(2) {
            assert!(
                w[0].recomputations >= w[1].recomputations,
                "recomputations must fall with capacity: {rows:?}"
            );
        }
        assert_eq!(rows.last().unwrap().recomputations, 0, "unbounded = Thm 3");
        assert!(rows[0].recomputations > 10, "cap 0 recomputes a lot");
        // Patches + recomputations trade off in the same direction.
        assert!(rows.last().unwrap().patches_applied > rows[0].patches_applied);
    }
}

// ---------------------------------------------------------------------
// OBS overhead — what the monitor + tracer cost on the hot path
// ---------------------------------------------------------------------

/// Measured outcome of the OBS overhead experiment (what the unit test
/// and the CI gate read).
#[derive(Debug, Clone, Copy)]
pub struct ObsOverhead {
    /// Fastest dark run (no event ring, tracer off, health never polled), ms.
    pub dark_ms: f64,
    /// Fastest lit run (ring installed, tracer on, health polled), ms.
    pub lit_ms: f64,
    /// `(lit_ms − dark_ms) / dark_ms` in percent: the CI gate's number.
    pub overhead_pct: f64,
    /// SLO breaches the lit run's staleness monitor caught.
    pub slo_breaches: u64,
    /// Spans the lit run's tracer recorded (kept or dropped).
    pub spans: u64,
    /// Events left on the lit run's ring.
    pub events_buffered: usize,
}

/// OBS overhead: run one expiry-heavy workload dark (no event ring,
/// tracer off, health never polled) and lit (ring installed, tracer on,
/// health polled periodically), alternately, five times each on fresh
/// databases, and report the overhead of the fastest lit run over
/// the fastest dark one — the minimum is the noise-robust estimator, and
/// alternating puts both sides under the same drift. Lazy removal makes
/// triggers fire late, so the lit run also demonstrates the staleness
/// monitor catching real SLO breaches.
///
/// # Panics
///
/// Panics if the workload's SQL fails (a bug, not an input condition).
#[must_use]
pub fn obs_monitor_overhead(rows: usize, seed: u64) -> (Report, ObsOverhead) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const RUNS: usize = 5;
    let run_once = |lit: bool| -> (f64, u64, u64, usize) {
        let mut db = Database::new(DbConfig {
            removal: Removal::Lazy { vacuum_every: 96 },
            ..DbConfig::default()
        });
        let ring = lit.then(|| db.obs().install_ring(4096));
        if lit {
            db.tracer().enable();
        }
        db.execute("CREATE TABLE sessions (uid INT, deg INT)")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM sessions WHERE deg >= 50")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let life = LifetimeDist::HeavyTail {
            base: 16,
            spread: 4,
        };
        let start = Instant::now();
        let mut breaches = 0u64;
        for i in 0..rows {
            let deg = rng.gen_range(0i64..100);
            let texp = db.now() + life.sample(&mut rng).max(1);
            db.insert("sessions", exptime_core::tuple![i as i64, deg], texp)
                .unwrap();
            if i % 64 == 0 {
                db.tick(1);
                db.read_view("hot").unwrap();
                if lit {
                    breaches = db.health().total_breaches();
                }
            }
        }
        db.tick(1024);
        db.vacuum();
        if lit {
            breaches = db.health().total_breaches();
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let spans = db.tracer().len() as u64 + db.tracer().dropped();
        (wall_ms, breaches, spans, ring.map_or(0, |r| r.len()))
    };

    let mut o = ObsOverhead {
        dark_ms: f64::INFINITY,
        lit_ms: f64::INFINITY,
        overhead_pct: 0.0,
        slo_breaches: 0,
        spans: 0,
        events_buffered: 0,
    };
    for _ in 0..RUNS {
        o.dark_ms = o.dark_ms.min(run_once(false).0);
        let (lit_ms, breaches, spans, buffered) = run_once(true);
        o.lit_ms = o.lit_ms.min(lit_ms);
        (o.slo_breaches, o.spans, o.events_buffered) = (breaches, spans, buffered);
    }
    o.overhead_pct = (o.lit_ms - o.dark_ms) / o.dark_ms.max(1e-9) * 100.0;
    let report = Report {
        title: "OBS — monitor/tracer overhead on an expiry-heavy workload".into(),
        lines: vec![
            format!(
                "workload: {rows} inserts, lazy removal (vacuum every 96), health polled every 64"
            ),
            format!(
                "dark (no obs), min of {RUNS}:                 {:>8.2} ms",
                o.dark_ms
            ),
            format!(
                "lit  (ring + tracer + health), min of {RUNS}: {:>8.2} ms  overhead_pct={:.1}",
                o.lit_ms, o.overhead_pct
            ),
            format!(
                "lit run saw {} SLO breach(es), {} span(s), {} event(s) buffered",
                o.slo_breaches, o.spans, o.events_buffered
            ),
        ],
    };
    (report, o)
}

// ---------------------------------------------------------------------
// E8-scope — forecast accuracy: predicted vs actual expiration load
// ---------------------------------------------------------------------

/// Measured outcome of E8-scope (what the unit tests pin down).
#[derive(Debug, Clone, Copy)]
pub struct ScopeSummary {
    /// Eager removal: predicted and actual histograms agree exactly.
    pub eager_exact: bool,
    /// Eager removal: agreement within one log₂ bucket.
    pub eager_within_one: bool,
    /// Lazy removal: vacuum-cadence drift stays within one bucket.
    pub lazy_within_one: bool,
    /// Rows the t₀ forecast predicted to expire.
    pub predicted: u64,
    /// Rows actually expired by the horizon (eager run).
    pub actual: u64,
    /// `storm_warning` events observed on the ring (eager run).
    pub storms: u64,
}

/// E8-scope: seed an expiry-heavy table (¾ uniform lifetimes plus a ¼
/// flash-crowd cohort that all expires in one narrow window), take ONE
/// [`Database::forecast`] at t₀, then run the clock to the horizon and
/// histogram when expirations are actually *processed* into the same
/// log₂ buckets. Under eager removal processing happens exactly at
/// `texp`, so prediction and reality agree bucket-for-bucket; under lazy
/// removal every row drifts to its vacuum tick, bounded by the vacuum
/// cadence — within one bucket for lifetimes past the cadence. The
/// flash-crowd cohort must also surface as a `storm_warning`.
#[must_use]
pub fn e8scope_forecast_accuracy(rows: usize, seed: u64) -> (Report, ScopeSummary) {
    use exptime_obs::{HorizonForecast, FORECAST_BUCKETS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MAX_LIFE: u64 = 512;
    const VACUUM_EVERY: u64 = 4;

    // Hall's condition for a transport between the two histograms in
    // which every row moves at most `shift` buckets, checked over every
    // bucket interval in both directions.
    fn within_shift(
        p: &[u64; FORECAST_BUCKETS],
        a: &[u64; FORECAST_BUCKETS],
        shift: usize,
    ) -> bool {
        if p.iter().sum::<u64>() != a.iter().sum::<u64>() {
            return false;
        }
        let window = |h: &[u64; FORECAST_BUCKETS], l: usize, r: usize| -> u64 {
            h[l.saturating_sub(shift)..(r + shift + 1).min(FORECAST_BUCKETS)]
                .iter()
                .sum()
        };
        for l in 0..FORECAST_BUCKETS {
            for r in l..FORECAST_BUCKETS {
                let a_sum: u64 = a[l..=r].iter().sum();
                let p_sum: u64 = p[l..=r].iter().sum();
                if a_sum > window(p, l, r) || p_sum > window(a, l, r) {
                    return false;
                }
            }
        }
        true
    }

    let storm_threshold = (rows as u64 / 256).max(2);
    let run = |removal: Removal| -> ([u64; FORECAST_BUCKETS], [u64; FORECAST_BUCKETS], u64) {
        let mut db = Database::new(DbConfig {
            removal,
            forecast: ForecastConfig { storm_threshold },
            ..DbConfig::default()
        });
        let ring = db.obs().install_ring(16 * 1024);
        db.execute("CREATE TABLE sessions (uid INT, deg INT)")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..rows {
            // Lifetimes start at 8 so lazy drift (≤ VACUUM_EVERY) cannot
            // jump more than one log₂ bucket. Every 4th row joins the
            // flash-crowd cohort inside bucket [64,127].
            let life = if i % 4 == 0 {
                rng.gen_range(96..=127)
            } else {
                rng.gen_range(8..=MAX_LIFE)
            };
            db.insert(
                "sessions",
                exptime_core::tuple![i as i64, (i % 100) as i64],
                db.now() + life,
            )
            .unwrap();
        }
        let t0 = db.now().finite().unwrap_or(0);
        let predicted = *db.forecast().horizon.buckets();
        let mut actual = [0u64; FORECAST_BUCKETS];
        let mut prev = db.stats().expired;
        for _ in 0..(MAX_LIFE + 4 * VACUUM_EVERY) {
            db.tick(1);
            let cur = db.stats().expired;
            if cur > prev {
                let delta = db.now().finite().unwrap_or(0) - t0;
                actual[HorizonForecast::bucket_of(delta)] += cur - prev;
            }
            prev = cur;
        }
        let storms = ring
            .recent(16 * 1024)
            .into_iter()
            .filter(|e| e.kind.tag() == "storm_warning")
            .count() as u64;
        (predicted, actual, storms)
    };

    let (p_eager, a_eager, storms) = run(Removal::Eager);
    let (p_lazy, a_lazy, _) = run(Removal::Lazy {
        vacuum_every: VACUUM_EVERY,
    });

    let summary = ScopeSummary {
        eager_exact: p_eager == a_eager,
        eager_within_one: within_shift(&p_eager, &a_eager, 1),
        lazy_within_one: within_shift(&p_lazy, &a_lazy, 1),
        predicted: p_eager.iter().sum(),
        actual: a_eager.iter().sum(),
        storms,
    };

    let displaced_lazy: u64 = (0..FORECAST_BUCKETS)
        .map(|k| p_lazy[k].abs_diff(a_lazy[k]))
        .sum::<u64>()
        / 2;
    let report = Report {
        title: "E8-scope — forecast accuracy (predicted vs processed expirations)".into(),
        lines: vec![
            format!(
                "workload: {rows} rows, lifetimes 8..={MAX_LIFE} with a 25% flash-crowd \
                 cohort in [96,127], storm threshold {storm_threshold}/tick"
            ),
            format!(
                "eager:  {} predicted / {} processed — exact bucket match: {}",
                summary.predicted, summary.actual, summary.eager_exact
            ),
            format!(
                "lazy:   vacuum every {VACUUM_EVERY} displaces {displaced_lazy} row(s) \
                 across a bucket edge — within one bucket: {}",
                summary.lazy_within_one
            ),
            format!(
                "storms: {} storm_warning event(s) for the flash-crowd bucket",
                summary.storms
            ),
        ],
    };
    (report, summary)
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn e8scope_forecast_matches_reality_within_one_bucket() {
        let (report, summary) = e8scope_forecast_accuracy(256, 59);
        // Eager removal processes each row exactly at its texp: the t₀
        // prediction is bucket-for-bucket exact.
        assert!(summary.eager_exact, "{}", report.render());
        assert!(summary.eager_within_one);
        // Lazy removal drifts by at most the vacuum cadence — never more
        // than one log₂ bucket for this workload's lifetimes.
        assert!(summary.lazy_within_one, "{}", report.render());
        assert_eq!(summary.predicted, 256);
        assert_eq!(summary.actual, 256);
        // The flash-crowd cohort must trip the storm detector.
        assert!(summary.storms >= 1, "{}", report.render());
        // Deterministic: same seed, same histograms.
        let (_, s2) = e8scope_forecast_accuracy(256, 59);
        assert_eq!(summary.predicted, s2.predicted);
        assert_eq!(summary.storms, s2.storms);
    }

    #[test]
    fn obs_overhead_lit_run_observes_the_workload() {
        let (report, o) = obs_monitor_overhead(512, 53);
        assert_eq!(report.lines.len(), 4);
        // Lazy removal with a zero-lateness SLO must breach…
        assert!(
            o.slo_breaches > 0,
            "lazy removal must be caught late: {o:?}"
        );
        // …and the lit run must actually have traced something.
        assert!(o.spans > 0, "tracer was on: {o:?}");
    }
}

// ---------------------------------------------------------------------
// E9-telemetry — retention alone bounds the sampler's history
// ---------------------------------------------------------------------

/// Counted outcome of E9-telemetry (what the unit test pins down).
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySummary {
    /// Samples the sampler took during the insert workload.
    pub samples: u64,
    /// Live `_telemetry.*` rows when the run ended.
    pub history_rows: u64,
    /// Distinct sample instants still live at the end (via `GROUP BY ts`).
    pub distinct_samples_live: u64,
    /// The retention-implied cap on live sample instants.
    pub live_bound: u64,
}

/// E9-telemetry: the telemetry sampler's history is bounded by expiry
/// alone. An expiry-heavy workload runs with the sampler snapshotting
/// metrics + health into `_telemetry.*` with `texp = now + retention`,
/// then the clock runs on for a few idle ticks; history boundedness is
/// checked with plain SQL over the system tables (there is no DELETE
/// anywhere in the sampler).
///
/// # Panics
///
/// Panics if the workload's SQL fails (a bug, not an input condition).
#[must_use]
pub fn e9_telemetry(rows: usize, seed: u64) -> (Report, TelemetrySummary) {
    use exptime_engine::TelemetryConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SAMPLE_EVERY: u64 = 4;
    const RETENTION: u64 = 32;
    const IDLE_TICKS: u64 = 16;

    let mut db = Database::new(DbConfig {
        telemetry: TelemetryConfig::enabled(SAMPLE_EVERY, RETENTION),
        ..DbConfig::default()
    });
    db.execute("CREATE TABLE sessions (uid INT, deg INT)")
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let life = LifetimeDist::HeavyTail {
        base: 16,
        spread: 4,
    };
    for i in 0..rows {
        let deg = rng.gen_range(0i64..100);
        let texp = db.now() + life.sample(&mut rng).max(1);
        db.insert("sessions", exptime_core::tuple![i as i64, deg], texp)
            .unwrap();
        if i % 8 == 0 {
            db.tick(1);
        }
    }
    let samples = db.telemetry_status().samples;
    for _ in 0..IDLE_TICKS {
        db.tick(1);
    }

    // Retention math, checked with ordinary SQL against the system
    // tables: only the last RETENTION ticks of samples can be live.
    let status = db.telemetry_status();
    let history_rows = status.metrics_rows + status.health_rows;
    let distinct_samples_live = db
        .execute("SELECT ts, COUNT(*) FROM _telemetry.metrics GROUP BY ts")
        .unwrap()
        .rows()
        .unwrap()
        .len() as u64;
    let live_bound = RETENTION / SAMPLE_EVERY + 1;

    let summary = TelemetrySummary {
        samples,
        history_rows,
        distinct_samples_live,
        live_bound,
    };
    let report = Report {
        title: "E9-telemetry: retention alone bounds the sampler's history".into(),
        lines: vec![
            format!(
                "workload: {rows} inserts, sampler every {SAMPLE_EVERY} tick(s), retention {RETENTION} tick(s), then {IDLE_TICKS} idle tick(s)"
            ),
            format!(
                "history: {samples} sample(s) taken, {history_rows} row(s) live, \
                 {distinct_samples_live} instant(s) live (bound {live_bound}) — zero DELETEs"
            ),
        ],
    };
    (report, summary)
}

#[cfg(test)]
mod e9_telemetry_tests {
    use super::*;

    #[test]
    fn e9_telemetry_shape_bounded_history() {
        let (report, s) = e9_telemetry(256, 67);
        assert!(s.samples > 0, "{s:?}");
        assert!(s.history_rows > 0, "{s:?}");
        // Retention is the only cleanup mechanism, and it suffices.
        assert!(
            s.distinct_samples_live <= s.live_bound,
            "history must stay bounded by retention: {s:?}"
        );
        assert!(
            report.render().contains("zero DELETEs"),
            "{}",
            report.render()
        );
    }
}

// ---------------------------------------------------------------------
// E11 — TTL policy layer vs application delete-push
// ---------------------------------------------------------------------

/// One variant measurement of an E11 workload.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Workload name (`session-store`, `cache-clamp`, `sensor-window`).
    pub workload: String,
    /// `policy` (the DBMS owns expiration) or `delete-push` (the
    /// application maintains its own expiry bookkeeping).
    pub variant: String,
    /// Expiration-maintenance operations the *application* had to issue:
    /// explicit deletes, janitor expiration rewrites, and stale-deadline
    /// re-checks. The paper's thesis is that this goes to zero once
    /// expiration times live in the DBMS.
    pub maintenance_ops: u64,
    /// Peak physical row count observed.
    pub peak_rows: usize,
    /// Live rows at the measurement horizon (must agree across variants
    /// where the workloads are semantically identical).
    pub live_end: usize,
}

/// E11 summary: per-workload rows plus the policy counters and the
/// crash-recovery verdict, for assertions.
#[derive(Debug, Clone)]
pub struct E11PolicySummary {
    /// Session count of the headline session-store workload.
    pub sessions: usize,
    /// All variant rows, policy before delete-push per workload.
    pub rows: Vec<E11Row>,
    /// `policy.sliding_touches` after the session-store run.
    pub sliding_touches: u64,
    /// `policy.clamped` after the cache-clamp run.
    pub clamped: u64,
    /// The WAL crash-recovery cycle restored the policy catalog, kept
    /// the durable sliding touch, and resurrected nothing expired.
    pub recovery_ok: bool,
}

/// Session store: arrivals and renewals under `TTL n SLIDING` (renewals
/// are modify-touches; the app never mentions a time) vs a delete-push
/// app that inserts immortal rows and maintains its own deadline heap.
/// Returns (policy row, delete-push row, sliding touches).
fn e11_session_store(sessions: usize, ttl: u64, seed: u64) -> (E11Row, E11Row, u64) {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    let stream = crate::workload::session_stream(sessions, 1, ttl, 0.3, 2, seed);

    // -- policy path ---------------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute(&format!("CREATE TABLE sess (sid INT) TTL {ttl} SLIDING"))
        .unwrap();
    let mut peak = 0usize;
    for &(at, sid, _) in &stream.events {
        if t(at) > db.now() {
            db.advance_to(t(at));
        }
        db.insert_default("sess", exptime_core::tuple![sid])
            .unwrap();
        peak = peak.max(db.table("sess").unwrap().len());
    }
    db.advance_to(t(stream.horizon));
    let touches = db.metrics().counter("policy.sliding_touches").get();
    let policy_row = E11Row {
        workload: "session-store".into(),
        variant: "policy".into(),
        maintenance_ops: 0,
        peak_rows: peak,
        live_end: db.table("sess").unwrap().live_count(db.now()),
    };

    // -- delete-push path ----------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE sess (sid INT)").unwrap();
    let mut deadlines: HashMap<i64, u64> = HashMap::new();
    let mut due: BinaryHeap<Reverse<(u64, i64)>> = BinaryHeap::new();
    let mut ops = 0u64;
    let mut peak = 0usize;
    for &(at, sid, life) in &stream.events {
        if t(at) > db.now() {
            db.advance_to(t(at));
        }
        // App-side expiry: wake up for every due heap entry; renewals
        // leave stale entries behind that still cost a re-check.
        while let Some(&Reverse((d, s))) = due.peek() {
            if d > at {
                break;
            }
            due.pop();
            ops += 1;
            if deadlines.get(&s) == Some(&d) {
                let _ = db
                    .table_mut("sess")
                    .unwrap()
                    .delete(&exptime_core::tuple![s]);
                deadlines.remove(&s);
            }
        }
        db.insert("sess", exptime_core::tuple![sid], Time::INFINITY)
            .unwrap();
        deadlines.insert(sid, at + life);
        due.push(Reverse((at + life, sid)));
        peak = peak.max(db.table("sess").unwrap().len());
    }
    db.advance_to(t(stream.horizon));
    while let Some(&Reverse((d, s))) = due.peek() {
        if d > stream.horizon {
            break;
        }
        due.pop();
        ops += 1;
        if deadlines.get(&s) == Some(&d) {
            let _ = db
                .table_mut("sess")
                .unwrap()
                .delete(&exptime_core::tuple![s]);
            deadlines.remove(&s);
        }
    }
    let push_row = E11Row {
        workload: "session-store".into(),
        variant: "delete-push".into(),
        maintenance_ops: ops,
        peak_rows: peak,
        live_end: db.table("sess").unwrap().live_count(db.now()),
    };
    (policy_row, push_row, touches)
}

/// Cache-invalidation fan-out: bursts of inserts whose *requested*
/// lifetimes are heavy-tailed (some effectively immortal). The policy
/// table clamps them at write time; the delete-push app runs a periodic
/// janitor that scans for over-long entries and rewrites their
/// expirations. Returns (policy row, delete-push row, clamp count).
fn e11_cache_clamp(entries: usize, seed: u64) -> (E11Row, E11Row, u64) {
    use rand::SeedableRng;

    let (min_life, base_life, max_life) = (5u64, 30u64, 60u64);
    let per_tick = 8u64;
    let janitor_every = 16u64;
    let dist = LifetimeDist::HeavyTail {
        base: base_life,
        spread: 10,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reqs: Vec<(u64, i64, u64)> = (0..entries)
        .map(|i| (i as u64 / per_tick, i as i64, dist.sample(&mut rng).max(1)))
        .collect();
    // Far enough out that both variants fully drain.
    let horizon = reqs.last().map_or(0, |r| r.0) + janitor_every + 2 * max_life;

    // -- policy path ---------------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute(&format!(
        "CREATE TABLE cache (key INT) TTL {base_life} CLAMP {min_life}..{max_life}"
    ))
    .unwrap();
    let mut peak = 0usize;
    for &(at, key, life) in &reqs {
        if t(at) > db.now() {
            db.advance_to(t(at));
        }
        db.insert("cache", exptime_core::tuple![key], t(at + life))
            .unwrap();
        peak = peak.max(db.table("cache").unwrap().len());
    }
    db.advance_to(t(horizon));
    let clamped = db.metrics().counter("policy.clamped").get();
    let policy_row = E11Row {
        workload: "cache-clamp".into(),
        variant: "policy".into(),
        maintenance_ops: 0,
        peak_rows: peak,
        live_end: db.table("cache").unwrap().live_count(db.now()),
    };

    // -- delete-push path ----------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE cache (key INT)").unwrap();
    let mut ops = 0u64;
    let mut peak = 0usize;
    let mut last_janitor = 0u64;
    for &(at, key, life) in &reqs {
        if t(at) > db.now() {
            db.advance_to(t(at));
        }
        db.insert("cache", exptime_core::tuple![key], t(at + life))
            .unwrap();
        let now = at;
        if now >= last_janitor + janitor_every {
            last_janitor = now;
            ops += 1; // the janitor pass itself
            let bound = t(now + max_life);
            let victims: Vec<exptime_core::tuple::Tuple> = db
                .table("cache")
                .unwrap()
                .scan_at(t(now))
                .filter(|(_, texp)| *texp > bound)
                .map(|(tu, _)| tu.clone())
                .collect();
            for v in victims {
                let _ = db
                    .table_mut("cache")
                    .unwrap()
                    .update_texp(&v, bound, t(now));
                ops += 1;
            }
        }
        peak = peak.max(db.table("cache").unwrap().len());
    }
    db.advance_to(t(horizon));
    // Entries born after the last janitor pass still carry their wild
    // lifetimes: one last pass deletes what outlived the bound.
    let stragglers: Vec<exptime_core::tuple::Tuple> = db
        .table("cache")
        .unwrap()
        .scan_at(db.now())
        .map(|(tu, _)| tu.clone())
        .collect();
    for v in stragglers {
        let _ = db.table_mut("cache").unwrap().delete(&v);
        ops += 1;
    }
    let push_row = E11Row {
        workload: "cache-clamp".into(),
        variant: "delete-push".into(),
        maintenance_ops: ops,
        peak_rows: peak,
        live_end: db.table("cache").unwrap().live_count(db.now()),
    };
    (policy_row, push_row, clamped)
}

/// Sensor sliding window: every sensor reports once per tick and only the
/// last `window` ticks matter. The policy table defaults every insert to
/// `now + window`; the delete-push app inserts immortal readings and
/// issues one `DELETE … WHERE` sweep per tick.
fn e11_sensor_window(ticks: u64, sensors: usize, window: u64) -> (E11Row, E11Row) {
    // -- policy path ---------------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute(&format!(
        "CREATE TABLE readings (sensor INT, ts INT) TTL {window}"
    ))
    .unwrap();
    let mut peak = 0usize;
    for tk in 0..ticks {
        if t(tk) > db.now() {
            db.advance_to(t(tk));
        }
        for s in 0..sensors {
            db.insert_default("readings", exptime_core::tuple![s as i64, tk as i64])
                .unwrap();
        }
        peak = peak.max(db.table("readings").unwrap().len());
    }
    let policy_row = E11Row {
        workload: "sensor-window".into(),
        variant: "policy".into(),
        maintenance_ops: 0,
        peak_rows: peak,
        live_end: db.table("readings").unwrap().live_count(db.now()),
    };

    // -- delete-push path ----------------------------------------------
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE readings (sensor INT, ts INT)")
        .unwrap();
    let mut ops = 0u64;
    let mut peak = 0usize;
    for tk in 0..ticks {
        if t(tk) > db.now() {
            db.advance_to(t(tk));
        }
        for s in 0..sensors {
            db.insert(
                "readings",
                exptime_core::tuple![s as i64, tk as i64],
                Time::INFINITY,
            )
            .unwrap();
        }
        if tk >= window {
            // One full-table sweep per tick: the delete-push tax.
            db.execute(&format!("DELETE FROM readings WHERE ts <= {}", tk - window))
                .unwrap();
            ops += 1;
        }
        peak = peak.max(db.table("readings").unwrap().len());
    }
    let push_row = E11Row {
        workload: "sensor-window".into(),
        variant: "delete-push".into(),
        maintenance_ops: ops,
        peak_rows: peak,
        live_end: db.table("readings").unwrap().live_count(db.now()),
    };
    (policy_row, push_row)
}

/// WAL crash-recovery cycle for the policy layer: the policy catalog is
/// restored from DDL replay, a durable sliding-on-access touch survives,
/// and nothing expired is resurrected.
fn e11_policy_recovery() -> bool {
    use exptime_engine::durability::MemStore;
    use exptime_engine::{Durability, TouchKind};

    let config = DbConfig {
        durability: Durability::Wal {
            group_commit: 1,
            checkpoint_every: 0, // crash must recover from pure log replay
        },
        ..DbConfig::default()
    };
    let disk = MemStore::new();
    {
        let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
        db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING ON ACCESS")
            .unwrap();
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        db.execute("INSERT INTO sess VALUES (2)").unwrap();
        db.tick(20);
        // The read re-arms sid=1 to t=50; the touch must be durable.
        db.execute("SELECT * FROM sess WHERE sid = 1").unwrap();
        db.tick(15); // t=35: sid=2 (texp 30) expires before the crash
    } // crash: drop without checkpoint
    let db = Database::open_with_store(Box::new(disk), config).unwrap();
    let policy_restored = db
        .ttl_policy("sess")
        .is_some_and(|p| p.ttl == Some(30) && p.sliding.slides_on(TouchKind::Access));
    let touch_survived = db.table("sess").unwrap().texp(&exptime_core::tuple![1i64]) == Some(t(50));
    let expired_resurrected = db
        .table("sess")
        .unwrap()
        .texp(&exptime_core::tuple![2i64])
        .is_some();
    policy_restored && touch_survived && !expired_resurrected
}

/// E11: the TTL policy layer against application-managed expiration
/// ("delete-push") on three production-shaped workloads — a session
/// store with sliding TTLs, a cache with clamped lifetimes, and a
/// sensor sliding window — plus a crash-recovery cycle for the policy
/// catalog and durable touches.
///
/// The asserted claims: the policy path issues **zero** application
/// maintenance operations where delete-push issues O(rows); both paths
/// agree on what is live at the horizon (the policy changes who does the
/// work, not the semantics); and policies plus sliding touches survive
/// WAL recovery.
#[must_use]
pub fn e11_policy(sessions: usize, seed: u64) -> (Report, E11PolicySummary) {
    let ttl = 40u64;
    let (sess_policy, sess_push, sliding_touches) = e11_session_store(sessions, ttl, seed);
    let cache_entries = (sessions / 8).max(2_000);
    let (cache_policy, cache_push, clamped) = e11_cache_clamp(cache_entries, seed ^ 0x9e37);
    let sensor_ticks = ((sessions / 100) as u64).clamp(200, 3_000);
    let (sensor_policy, sensor_push) = e11_sensor_window(sensor_ticks, 32, 50);
    let recovery_ok = e11_policy_recovery();

    // The paper's claim, asserted: the DBMS-owned path issues no
    // maintenance operations and agrees with delete-push on liveness.
    assert_eq!(sess_policy.maintenance_ops, 0);
    assert!(sess_push.maintenance_ops as usize >= sessions);
    assert_eq!(
        sess_policy.live_end, sess_push.live_end,
        "session-store variants disagree on live rows"
    );
    assert_eq!(
        sensor_policy.live_end, sensor_push.live_end,
        "sensor-window variants disagree on live rows"
    );
    assert!(sliding_touches > 0, "renewals must slide");
    assert!(clamped > 0, "heavy-tail lifetimes must clamp");
    assert!(recovery_ok, "policy crash-recovery cycle failed");

    let rows = vec![
        sess_policy,
        sess_push,
        cache_policy,
        cache_push,
        sensor_policy,
        sensor_push,
    ];
    let mut lines = vec![format!(
        "{} sessions (ttl {}, sliding), {} cache entries (clamp 5..60), {} sensor ticks × 32",
        sessions, ttl, cache_entries, sensor_ticks
    )];
    lines.push("  workload       variant      maint ops  peak rows  live@end".to_string());
    for r in &rows {
        lines.push(format!(
            "  {:<13}  {:<11}  {:>9}  {:>9}  {:>8}",
            r.workload, r.variant, r.maintenance_ops, r.peak_rows, r.live_end
        ));
    }
    lines.push(format!(
        "policy counters: sliding_touches={sliding_touches} clamped={clamped}; \
         crash-recovery: policy restored, touch durable, no resurrection — {}",
        if recovery_ok { "ok" } else { "FAILED" }
    ));
    let report = Report {
        title: "E11-policy — TTL policies vs application delete-push".into(),
        lines,
    };
    let summary = E11PolicySummary {
        sessions,
        rows,
        sliding_touches,
        clamped,
        recovery_ok,
    };
    (report, summary)
}

#[cfg(test)]
mod e11_policy_tests {
    use super::*;

    #[test]
    fn e11_policy_zero_maintenance_and_durable_touches() {
        let (report, s) = e11_policy(2_000, 5);
        // e11_policy asserts the semantic claims internally; pin the
        // shape of the evidence here.
        assert_eq!(s.rows.len(), 6, "{}", report.render());
        let sess_push = &s.rows[1];
        assert!(
            sess_push.maintenance_ops >= 2_000,
            "delete-push pays per session: {}",
            report.render()
        );
        assert!(s.sliding_touches > 100, "{}", report.render());
        assert!(s.recovery_ok, "{}", report.render());
    }
}
