//! Wire ≡ embedded: one statement list, driven through `Database::execute`
//! on one database and through `NetClient::execute` against a served twin,
//! must produce the same rows **in the same order**, the same affected
//! counts, the same errors, and — after the clock ticks — the same
//! survivors. Both reach evaluation through `Database::select` /
//! `Database::execute_statement`; this suite is what keeps it that way.
//! The chaos harness is a third column: on a fault-free link its acked
//! replies must equal the TCP server's byte for byte, because both answer
//! a statement with the same `SessionTable::serve` around `reply_of`.

use exptime::core::time::Time;
use exptime::core::tuple::Tuple;
use exptime::core::value::Value;
use exptime::engine::SharedDatabase;
use exptime::prelude::*;
use exptime::replica::{FaultSpec, RetryPolicy};
use exptime_net::{
    ChaosNet, ClientConfig, ClientError, NetClient, NetConfig, NetServer, ReplyBody,
};

enum Step {
    Sql(&'static str),
    Tick(u64),
}
use Step::{Sql, Tick};

/// DDL, inserts, every SELECT shape, presentation clauses, both view
/// kinds, DML counts, an error, and a `SLIDING ON ACCESS` table read
/// across ticks that outlive its un-touched TTL.
const SCRIPT: &[Step] = &[
    Sql("CREATE TABLE kv (k INT, v INT)"),
    Sql("CREATE TABLE tags (k INT, tag TEXT)"),
    Sql("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30) EXPIRES AT 40"),
    Sql("INSERT INTO kv VALUES (4, 20), (5, 50) EXPIRES AT 6"),
    Sql("INSERT INTO tags VALUES (1, 'a'), (3, 'c'), (5, 'e') EXPIRES NEVER"),
    Sql("SELECT v FROM kv WHERE k = 2"),
    Sql("SELECT k FROM kv WHERE v >= 20 AND v < 50"),
    Sql("SELECT kv.k, tags.tag FROM kv JOIN tags ON kv.k = tags.k"),
    Sql("SELECT COUNT(*) FROM kv"),
    Sql("SELECT v, COUNT(*) FROM kv GROUP BY v"),
    Sql("SELECT k FROM kv EXCEPT SELECT k FROM tags"),
    Sql("SELECT k FROM kv ORDER BY k DESC LIMIT 2"),
    Sql("SELECT k, v FROM kv ORDER BY v DESC, k LIMIT 3"),
    Sql("SELECT k FROM kv ORDER BY k"),
    Sql("CREATE VIEW big AS SELECT k FROM kv WHERE v >= 20"),
    Sql("CREATE MATERIALIZED VIEW per_v AS SELECT v, COUNT(*) FROM kv GROUP BY v"),
    Sql("SELECT * FROM big"),
    Sql("SELECT * FROM per_v"),
    Sql("SELECT nope FROM kv"),
    Sql("UPDATE kv SET EXPIRES AT 9 WHERE k = 3"),
    Sql("DELETE FROM kv WHERE k = 1"),
    Tick(7),
    Sql("SELECT * FROM big"),
    Sql("SELECT * FROM per_v"),
    Sql("SELECT k FROM kv ORDER BY k DESC LIMIT 1"),
    Sql("CREATE TABLE sessions (sid INT, uid INT) TTL 10 SLIDING ON ACCESS"),
    Sql("INSERT INTO sessions VALUES (1, 7), (2, 8)"),
    Tick(8),
    Sql("SELECT uid FROM sessions WHERE sid = 1"),
    Tick(8),
    Sql("SELECT uid FROM sessions WHERE sid = 1"),
    Sql("SELECT sid FROM sessions"),
];

/// One statement's outcome in a form both sides can be reduced to.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(Vec<Value>, Time)>),
    Affected(u64),
    Ok(String),
    Err(String),
}

fn embedded(res: DbResult<ExecResult>) -> Outcome {
    match res {
        Ok(ExecResult::Rows(rel)) => {
            Outcome::Rows(rel.iter().map(|(t, e)| (t.values().to_vec(), e)).collect())
        }
        Ok(ExecResult::Affected(n)) => Outcome::Affected(n as u64),
        Ok(ExecResult::Ok(s)) => Outcome::Ok(s),
        Err(e) => Outcome::Err(e.to_string()),
    }
}

/// The reply body the server sent: `NetClient` surfaces a fatal error
/// reply as `ClientError::Fatal`, which is folded back into its body.
fn sent(res: std::result::Result<ReplyBody, ClientError>) -> ReplyBody {
    match res {
        Ok(body) => body,
        Err(ClientError::Fatal {
            raw_code, message, ..
        }) => ReplyBody::Err {
            code: raw_code,
            retry_after_ms: 0,
            message,
        },
        Err(e) => panic!("transport failure on a loopback link: {e}"),
    }
}

fn wire(body: ReplyBody) -> Outcome {
    match body {
        ReplyBody::Rows { rows, degraded, .. } => {
            assert!(!degraded, "an idle server never degrades");
            Outcome::Rows(rows)
        }
        ReplyBody::Affected(n) => Outcome::Affected(n),
        ReplyBody::Ok(s) => Outcome::Ok(s),
        ReplyBody::Err { message, .. } => Outcome::Err(message),
    }
}

/// The live rows of every table, without reading through SQL (a SELECT
/// would itself touch a sliding table).
fn survivors(db: &Database) -> Vec<(String, Vec<(Tuple, Time)>)> {
    ["kv", "tags", "sessions"]
        .iter()
        .map(|name| {
            let mut rows: Vec<(Tuple, Time)> = db
                .table(name)
                .unwrap()
                .scan_at(db.now())
                .map(|(t, e)| (t.clone(), e))
                .collect();
            rows.sort();
            ((*name).to_string(), rows)
        })
        .collect()
}

#[test]
fn wire_and_embedded_agree_statement_by_statement() {
    let mut local = Database::default();
    let served = SharedDatabase::new(DbConfig::default());
    let server = NetServer::serve(&served, "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client =
        NetClient::connect(&server.local_addr().to_string(), ClientConfig::default()).unwrap();

    // The third column: the chaos harness on a link that never faults.
    let mut harnessed = Database::default();
    let mut harness = ChaosNet::new(FaultSpec::none(1), RetryPolicy::default());

    let mut diverged = Vec::new();
    for step in SCRIPT {
        match step {
            Tick(n) => {
                local.tick(*n);
                served.tick(*n);
                harnessed.tick(*n);
            }
            Sql(sql) => {
                let here = embedded(local.execute(sql));
                let body = sent(client.execute(sql));
                harness.submit(sql);
                assert!(harness.run(&mut harnessed, 100).quiesced, "{sql}");
                let (_, acked) = harness.acked().last().expect("quiesced means acked");
                if *acked != body {
                    diverged.push(format!(
                        "t={} {sql}\n  harness: {acked:?}\n  wire:    {body:?}",
                        local.now()
                    ));
                }
                let there = wire(body);
                if here != there {
                    diverged.push(format!(
                        "t={} {sql}\n  embedded: {here:?}\n  wire:     {there:?}",
                        local.now()
                    ));
                }
            }
        }
    }
    let (here, there) = (survivors(&local), served.with(|db| survivors(db)));
    if here != there {
        diverged.push(format!(
            "survivors\n  embedded: {here:?}\n  wire:     {there:?}"
        ));
    }
    client.close();
    server.drain();
    assert!(
        diverged.is_empty(),
        "{} divergence(s):\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

/// `degrade_at: 0` puts the server in degraded mode from the first
/// statement: a repeated SELECT is answered from the stale cache, expired
/// forward. A `LIMIT` result must not be — when its kept row expires the
/// next row moves up, which only re-evaluation can see.
#[test]
fn limit_queries_are_never_served_from_the_stale_cache() {
    let served = SharedDatabase::new(DbConfig::default());
    let cfg = NetConfig {
        degrade_at: 0,
        ..NetConfig::default()
    };
    let server = NetServer::serve(&served, "127.0.0.1:0", cfg).unwrap();
    let mut client =
        NetClient::connect(&server.local_addr().to_string(), ClientConfig::default()).unwrap();
    for sql in [
        "CREATE TABLE kv (k INT)",
        "INSERT INTO kv VALUES (1) EXPIRES AT 5",
        "INSERT INTO kv VALUES (2), (3) EXPIRES AT 40",
    ] {
        client.execute(sql).unwrap();
    }
    let mut read = |sql: &str| match client.execute(sql).unwrap() {
        ReplyBody::Rows { rows, degraded, .. } => {
            let ks: Vec<Value> = rows.into_iter().map(|(mut r, _)| r.remove(0)).collect();
            (ks, degraded)
        }
        other => panic!("expected rows, got {other:?}"),
    };
    let (all, top) = (
        "SELECT k FROM kv ORDER BY k",
        "SELECT k FROM kv ORDER BY k LIMIT 1",
    );
    assert_eq!(read(all).0.len(), 3);
    assert_eq!(read(top), (vec![Value::Int(1)], false));
    served.tick(6);
    assert_eq!(
        read(all),
        (vec![Value::Int(2), Value::Int(3)], true),
        "the untruncated result is cached and expires forward"
    );
    assert_eq!(
        read(top),
        (vec![Value::Int(2)], false),
        "the top-1 is re-evaluated, not served from a truncated cache entry"
    );
    client.close();
    server.drain();
}
