//! The overload paths of the real TCP server — shed, deadline, degraded
//! read — made deterministic: the test thread holds the database with
//! `SharedDatabase::with`, so statements pile up *in flight* exactly as
//! long as the test says, and `NetServer::status` (which needs no
//! database lock) tells it when they have.

use exptime::core::value::Value;
use exptime::engine::SharedDatabase;
use exptime::prelude::*;
use exptime_net::{
    encode_msg, ClientConfig, ClientStats, FrameReader, Msg, NetClient, NetConfig, NetServer,
    ReplyBody,
};
use std::io::Write;
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn served(cfg: NetConfig) -> (SharedDatabase, NetServer) {
    let mut db = Database::default();
    db.execute("CREATE TABLE kv (k INT)").unwrap();
    let shared = SharedDatabase::from_database(db);
    let server = NetServer::serve(&shared, "127.0.0.1:0", cfg).expect("bind");
    (shared, server)
}

fn connect(server: &NetServer, cfg: ClientConfig) -> NetClient {
    NetClient::connect(&server.local_addr().to_string(), cfg).expect("connect")
}

/// Polls until `cond` holds; the conditions polled here are made true by
/// the server, not by time passing.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends one insert from its own thread; the thread ends when the
/// statement has a consumed outcome.
fn insert(mut client: NetClient, k: i64) -> JoinHandle<ClientStats> {
    std::thread::spawn(move || {
        let body = client
            .execute(&format!("INSERT INTO kv VALUES ({k}) EXPIRES NEVER"))
            .expect("insert");
        assert_eq!(body, ReplyBody::Affected(1));
        client.stats
    })
}

fn keys(shared: &SharedDatabase) -> Vec<Value> {
    let result = shared.execute("SELECT k FROM kv ORDER BY k").unwrap();
    let rel = result.rows().unwrap();
    rel.iter().map(|(t, _)| t.values()[0].clone()).collect()
}

/// `queue: 2`: with two writers in flight a third statement is shed with
/// the configured retry hint, consuming nothing — and once the database
/// is released every insert lands exactly once.
#[test]
fn a_statement_past_the_in_flight_bound_is_shed_and_retried_exactly_once() {
    let (shared, server) = served(NetConfig {
        queue: 2,
        retry_after_ms: 7,
        ..NetConfig::default()
    });
    let clients: Vec<NetClient> = (0..3)
        .map(|_| connect(&server, ClientConfig::default()))
        .collect();
    // A raw connection, to see the refusal itself rather than the
    // client's handling of it.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut frames = FrameReader::new();
    let hello = Msg::Hello {
        token: 0,
        last_seq: 0,
    };
    raw.write_all(&encode_msg(&hello)).unwrap();
    let welcome = frames.read_msg(&mut raw).unwrap();
    assert!(matches!(welcome, Some(Msg::Welcome { .. })), "{welcome:?}");

    let mut clients = clients.into_iter();
    let writers = shared.with(|_held| {
        let mut writers = vec![
            insert(clients.next().unwrap(), 1),
            insert(clients.next().unwrap(), 2),
        ];
        wait_until("two writers in flight", || server.status().queue_depth == 2);
        let stmt = Msg::Stmt {
            seq: 1,
            deadline_ms: 0,
            sql: "INSERT INTO kv VALUES (99) EXPIRES NEVER".into(),
        };
        raw.write_all(&encode_msg(&stmt)).unwrap();
        assert_eq!(
            frames.read_msg(&mut raw).unwrap(),
            Some(Msg::Shed {
                seq: 1,
                retry_after_ms: 7
            })
        );
        writers.push(insert(clients.next().unwrap(), 3));
        wait_until("the third writer to be shed", || server.status().shed >= 2);
        writers
    });
    let stats: Vec<ClientStats> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(stats[0].sheds + stats[1].sheds, 0, "{stats:?}");
    assert!(stats[2].sheds >= 1, "{stats:?}");
    assert_eq!(
        keys(&shared),
        vec![Value::Int(1), Value::Int(2), Value::Int(3)]
    );
    let status = server.status();
    assert_eq!(status.executed, 3, "each insert ran once: {status:?}");
    assert_eq!(status.queue_depth, 0, "{status:?}");
    let report = server.drain();
    assert_eq!((report.completed, report.shed), (3, status.shed));

    // The counts are the database's `net.*` registry counters read since
    // `serve()`: a second server over the same database starts from zero
    // while the registry keeps the history.
    let again = NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let fresh = again.status();
    assert_eq!((fresh.executed, fresh.shed), (0, 0), "{fresh:?}");
    let total = shared.with(|db| db.metrics().counter_value("net.shed"));
    assert_eq!(total, status.shed);
    again.drain();
}

/// A statement whose deadline passes while it waits for the database is
/// refused before the engine is touched, without consuming its sequence
/// number: the client's own retry applies it exactly once.
#[test]
fn a_deadline_that_expires_waiting_for_the_database_leaves_the_statement_retryable() {
    let (shared, server) = served(NetConfig::default());
    let client = connect(
        &server,
        ClientConfig {
            deadline_ms: 20,
            ..ClientConfig::default()
        },
    );
    let writer = shared.with(|_held| {
        let writer = insert(client, 1);
        wait_until("the writer in flight", || server.status().queue_depth == 1);
        // Admitted already, so holding on for longer than the deadline
        // guarantees it has passed when the lock is finally handed over.
        std::thread::sleep(Duration::from_millis(40));
        writer
    });
    let stats = writer.join().unwrap();
    assert!(stats.retryable_errors >= 1, "{stats:?}");
    assert_eq!(keys(&shared), vec![Value::Int(1)]);
    let status = server.status();
    assert!(status.deadline_exceeded >= 1, "{status:?}");
    assert_eq!(status.executed, 1, "refused before execution: {status:?}");
    assert_eq!(status.replayed, 0, "the retry was fresh: {status:?}");
    let (waits, executed) = shared.with(|db| {
        (
            db.metrics().histogram("net.queue_wait_ns").snapshot().count,
            db.metrics().counter_value("net.stmt_executed"),
        )
    });
    assert_eq!(waits, executed, "one queue-wait sample per execution");
    server.drain();
}

/// `degrade_at: 1` with a warmed stale cache: a SELECT arriving while a
/// writer is in flight is answered degraded without waiting for the
/// database, and the serve is recorded — the session's next statement is
/// fresh, not a sequence gap.
#[test]
fn a_degraded_read_does_not_wait_and_does_not_leave_a_gap() {
    let (shared, server) = served(NetConfig {
        degrade_at: 1,
        ..NetConfig::default()
    });
    let mut reader = connect(&server, ClientConfig::default());
    let read = |reader: &mut NetClient| match reader.execute("SELECT k FROM kv").unwrap() {
        ReplyBody::Rows { rows, degraded, .. } => (rows.len(), degraded),
        other => panic!("expected rows, got {other:?}"),
    };
    assert_eq!(read(&mut reader), (0, false), "idle: evaluated, and cached");
    let writer = connect(&server, ClientConfig::default());
    let writer = shared.with(|_held| {
        let writer = insert(writer, 1);
        wait_until("the writer in flight", || server.status().queue_depth == 1);
        assert_eq!(
            read(&mut reader),
            (0, true),
            "served while the lock is held"
        );
        writer
    });
    writer.join().unwrap();
    assert_eq!(read(&mut reader), (1, false), "the next statement is fresh");
    assert_eq!(reader.stats.retries, 0, "{:?}", reader.stats);
    let status = server.status();
    assert_eq!(status.degraded_served, 1, "{status:?}");
    assert_eq!(status.replayed, 0, "{status:?}");
    server.drain();
}
