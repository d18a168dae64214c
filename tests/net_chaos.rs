//! Chaos tests for the wire-protocol layer: whatever a seeded fault
//! schedule does to the link — loss, duplication, reordering, delay,
//! partitions — a session that heals and quiesces must have applied
//! every submitted statement exactly once, and a server drained under
//! live load must lose zero acknowledged writes.
//!
//! Every failure message carries the seed and the full fault schedule
//! (`FaultyLink::schedule_report`), so a failing run is replayable by
//! constructing `FaultSpec::chaos(seed)` again.
//!
//! The seed matrix test honours `EXPTIME_NET_SEEDS` (comma-separated
//! integers) so CI can pin distinct deterministic schedules per job,
//! mirroring the replica layer's `EXPTIME_CHAOS_SEEDS`.

use exptime::engine::SharedDatabase;
use exptime::prelude::*;
use exptime::replica::{FaultSpec, RetryPolicy};
use exptime_net::{
    ChaosNet, ClientConfig, ClientError, NetClient, NetConfig, NetServer, ReplyBody,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The standard chaos workload: a table plus `n` distinct-key inserts.
fn workload(n: usize) -> Vec<String> {
    let mut stmts = vec!["CREATE TABLE c (k INT, v INT)".to_string()];
    for i in 0..n {
        stmts.push(format!(
            "INSERT INTO c VALUES ({i}, {}) EXPIRES NEVER",
            i * 10
        ));
    }
    stmts
}

/// One full chaos run: submit, let the schedule rage, heal, quiesce,
/// and check the exactly-once verdict plus the final row count.
fn check_exactly_once(seed: u64, n: usize) -> std::result::Result<(), String> {
    let mut db = Database::default();
    let mut net = ChaosNet::new(FaultSpec::chaos(seed), RetryPolicy::default());
    for s in workload(n) {
        net.submit(&s);
    }
    let _ = net.run(&mut db, 400);
    net.link().heal();
    let report = net.run(&mut db, 20_000);
    let schedule = net.link().schedule_report();
    if !report.quiesced {
        return Err(format!(
            "seed {seed}: did not quiesce: {report:?}\n{schedule}"
        ));
    }
    if !net.exactly_once() {
        return Err(format!(
            "seed {seed}: duplicated or lost effects: {report:?}\ncounts: {:?}\n{schedule}",
            net.exec_counts()
        ));
    }
    let rows = db.execute("SELECT * FROM c").unwrap().rows().unwrap().len();
    if rows != n {
        return Err(format!(
            "seed {seed}: {rows} rows, expected {n}\n{schedule}"
        ));
    }
    Ok(())
}

/// Deterministic seed matrix for CI: `EXPTIME_NET_SEEDS=1,2,3` pins the
/// exact fault schedules; the default covers eight distinct ones.
#[test]
fn net_chaos_seed_matrix() {
    let seeds = std::env::var("EXPTIME_NET_SEEDS").unwrap_or_else(|_| "1,2,3,4,5,6,7,8".into());
    let mut ran = 0usize;
    for part in seeds.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("EXPTIME_NET_SEEDS entry `{part}`: {e}"));
        if let Err(msg) = check_exactly_once(seed, 16) {
            panic!("net chaos matrix: {msg}");
        }
        ran += 1;
    }
    assert!(ran > 0, "EXPTIME_NET_SEEDS named no seeds");
}

/// A hard mid-stream partition (not just random faults): the link is
/// cut outright, retransmissions pile up, and after reconnection the
/// session must finish with exactly-once effects.
#[test]
fn hard_partition_heals_to_exactly_once() {
    let mut db = Database::default();
    let mut net = ChaosNet::new(FaultSpec::none(91), RetryPolicy::default());
    for s in workload(12) {
        net.submit(&s);
    }
    for _ in 0..6 {
        net.tick(&mut db);
    }
    net.link().disconnect();
    for _ in 0..50 {
        net.tick(&mut db);
    }
    net.link().reconnect();
    let report = net.run(&mut db, 20_000);
    assert!(report.quiesced, "{report:?}");
    assert!(net.exactly_once(), "{report:?}");
    assert!(
        report.retransmissions > 0,
        "a 50-tick hard partition must force retries: {report:?}"
    );
}

/// A frame dribbling in across the server's read-timeout cadence must
/// not desync the stream: the reader keeps the partial prefix across
/// timeouts, so a slow sender on a lossy link resumes mid-frame
/// instead of having its connection spuriously killed.
#[test]
fn slow_frame_straddling_server_read_timeout_survives() {
    use exptime_net::{encode_msg, FrameReader, Msg};
    use std::io::Write;
    use std::time::Duration;

    let mut db = Database::default();
    db.execute("CREATE TABLE s (k INT)").unwrap();
    let shared = SharedDatabase::from_database(db);
    let server = NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Hello split mid-header, with a pause well past the server's 200 ms
    // read timeout.
    let hello = encode_msg(&Msg::Hello {
        token: 0,
        last_seq: 0,
    });
    let (head, tail) = hello.split_at(5);
    stream.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(450));
    stream.write_all(tail).unwrap();
    let mut frames = FrameReader::new();
    let msg = frames.read_msg(&mut stream).expect("welcome");
    let Some(Msg::Welcome { token, .. }) = msg else {
        panic!("expected Welcome, got {msg:?}");
    };
    assert_ne!(token, 0);

    // The connection stays usable: a statement split mid-payload, with
    // another straddling pause, still executes and answers.
    let stmt = encode_msg(&Msg::Stmt {
        seq: 1,
        deadline_ms: 0,
        sql: "INSERT INTO s VALUES (1) EXPIRES NEVER".into(),
    });
    let (a, b) = stmt.split_at(stmt.len() / 2);
    stream.write_all(a).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(b).unwrap();
    let reply = frames.read_msg(&mut stream).expect("reply");
    assert!(
        matches!(
            reply,
            Some(Msg::Reply {
                seq: 1,
                body: ReplyBody::Affected(1)
            })
        ),
        "expected Affected(1), got {reply:?}"
    );
    drop(server);
}

/// Drain under live TCP load: clients hammer inserts while the server
/// is told to drain mid-stream. Afterwards, every acknowledged insert
/// must be present in the engine — acked writes survive the drain, and
/// the shed/refused remainder was simply never applied.
#[test]
fn drain_under_load_loses_no_acked_writes() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 200;

    let mut db = Database::default();
    db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    let shared = SharedDatabase::from_database(db);
    let server = NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let acked = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        let acked = Arc::clone(&acked);
        handles.push(std::thread::spawn(move || {
            let cfg = ClientConfig {
                // A short budget so threads give up quickly once the
                // server starts refusing with ShuttingDown.
                policy: RetryPolicy {
                    base: 1,
                    factor: 2,
                    max_interval: 10,
                    jitter: 1,
                    budget: 300,
                },
                seed: 0xd0a1 + c as u64,
                ..ClientConfig::default()
            };
            let Ok(mut client) = NetClient::connect(&addr, cfg) else {
                return;
            };
            for j in 0..PER_CLIENT {
                let sql = format!(
                    "INSERT INTO kv VALUES ({}, 0) EXPIRES NEVER",
                    c * PER_CLIENT + j
                );
                match client.execute(&sql) {
                    Ok(ReplyBody::Affected(_)) => {
                        acked.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    // Drain in progress: refusals, Bye, or a closed
                    // socket. All expected; stop offering load.
                    Err(
                        ClientError::Io(_)
                        | ClientError::Exhausted { .. }
                        | ClientError::Fatal { .. },
                    ) => return,
                    Err(e) => panic!("conn {c}: unexpected {e}"),
                }
            }
        }));
    }
    // Let load build, then pull the plug mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(40));
    let report = server.drain();
    for h in handles {
        h.join().expect("client thread");
    }
    let total_acked = acked.load(Ordering::Relaxed);
    let rows = shared.with(|db| {
        db.execute("SELECT k FROM kv")
            .expect("post-drain select")
            .rows()
            .map(exptime::core::relation::Relation::len)
            .unwrap_or(0)
    }) as u64;
    assert!(
        total_acked > 0,
        "drain happened before any load landed; report: {report:?}"
    );
    assert!(
        rows >= total_acked,
        "acked writes lost on drain: {rows} rows < {total_acked} acked ({report:?})"
    );
}

/// `NetServer::serve` registers its degraded-read endpoint with the
/// engine, so the whole-database audit reasons about what the server
/// may serve stale — and a drain unregisters it again.
#[test]
fn serving_registers_the_degraded_read_endpoint_for_audit() {
    let mut db = Database::default();
    db.execute_script(
        "CREATE TABLE ledger (k INT);
         CREATE MATERIALIZED VIEW totals AS SELECT COUNT(*) FROM ledger;",
    )
    .unwrap();
    db.execute("INSERT INTO ledger VALUES (1) EXPIRES NEVER")
        .unwrap();
    let shared = SharedDatabase::from_database(db);

    let server = NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let report = shared.with(|d| d.audit());
    assert!(
        report
            .endpoints
            .iter()
            .any(|e| e.name == "net.degraded_read"),
        "endpoint missing from audit: {report:?}"
    );
    // An eternal row feeding a non-monotone view behind a stale-serving
    // endpoint has no finite staleness bound: the cross-layer X005.
    assert!(
        report.lint.codes().contains(&exptime::lint::Code::X005),
        "{:?}",
        report.lint
    );

    server.drain();
    let report = shared.with(|d| d.audit());
    assert!(
        report.endpoints.is_empty(),
        "drained server left its endpoint registered: {report:?}"
    );
    // Without a serving endpoint the unbounded view is engine-local:
    // no X005.
    assert!(report.lint.is_clean(), "{:?}", report.lint);
}
