//! `netload`: a load generator for the exptime wire protocol.
//!
//! Drives N concurrent [`NetClient`](exptime_net::NetClient) sessions
//! against a server — either one you point it at (started with
//! `exptime-cli --serve ADDR`) or an embedded one it spawns itself —
//! and prints throughput, tail latency, and shed/retry counters. The
//! load is [`wire_load`], a closed loop of one statement at a time per
//! client.
//!
//! Embedded mode doubles as an end-to-end check of two claims, and the
//! process exits nonzero if either fails — CI runs exactly this as its
//! smoke test:
//!
//! * **concurrency:** once every client has connected, and before any
//!   runs a statement, the server's own `connections` count must equal
//!   `--conns` — the server serves every connection at once;
//! * **drain:** after the clients finish, the server is drained and the
//!   table's row count is compared against the number of acknowledged
//!   inserts. Any acked write missing after the drain is a protocol bug.
//!
//! Usage:
//!
//! ```text
//! netload [ADDR] [--conns N] [--stmts N] [--deadline MS] [--seed S]
//! ```
//!
//! With no `ADDR`, an embedded server is started on a loopback port.

use exptime_engine::{Database, DbConfig, SharedDatabase};
use exptime_net::{ClientConfig, ClientStats, NetClient, NetConfig, NetServer, ReplyBody};
use exptime_replica::RetryPolicy;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const USAGE: &str = "usage: netload [ADDR] [--conns N] [--stmts N] [--deadline MS] [--seed S]";

#[derive(Debug, Clone)]
struct Args {
    addr: Option<String>,
    conns: usize,
    stmts: usize,
    deadline_ms: u32,
    seed: u64,
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: None,
        conns: 64,
        stmts: 8,
        deadline_ms: 0,
        seed: 71,
    };
    let mut args = std::env::args().skip(1);
    let next_num = |args: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{what} needs a number; {USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--conns" => out.conns = next_num(&mut args, "--conns") as usize,
            "--stmts" => out.stmts = next_num(&mut args, "--stmts") as usize,
            "--deadline" => out.deadline_ms = next_num(&mut args, "--deadline") as u32,
            "--seed" => out.seed = next_num(&mut args, "--seed"),
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`; {USAGE}");
                std::process::exit(2);
            }
            other => out.addr = Some(other.to_string()),
        }
    }
    out
}

/// What one closed-loop wire load measured.
#[derive(Debug, Clone)]
struct WireLoad {
    /// Per-statement latencies (retries included), nanoseconds, sorted.
    lat_ns: Vec<u64>,
    /// The clients' protocol counters, summed.
    stats: ClientStats,
    /// Inserts the server acknowledged.
    acked_inserts: u64,
    /// Clients that could not connect or had a statement fail; their
    /// latencies and counters are left out.
    failed: usize,
    /// Wall-clock seconds from the release to the last client's end.
    wall_s: f64,
}

impl WireLoad {
    /// The `q`-quantile statement latency, microseconds (0 if none ran).
    #[must_use]
    fn percentile_us(&self, q: f64) -> f64 {
        if self.lat_ns.is_empty() {
            return 0.0;
        }
        let idx = ((self.lat_ns.len() - 1) as f64 * q).round() as usize;
        self.lat_ns[idx] as f64 / 1e3
    }
}

/// The closed-loop wire load: `conns` [`NetClient`]s connect to `addr`,
/// `ready` runs once all of them are connected, then a barrier releases
/// them together and each runs `stmts` statements of a 3:1 insert:select
/// mix against a `kv (k INT, v INT)` table, one at a time. A client that
/// fails reports why on stderr and counts in [`WireLoad::failed`].
///
/// # Panics
///
/// Panics if a client thread panics.
fn wire_load(
    addr: &str,
    conns: usize,
    stmts: usize,
    deadline_ms: u32,
    seed: u64,
    ready: impl FnOnce(),
) -> WireLoad {
    let connected = Arc::new(Barrier::new(conns + 1));
    let go = Arc::new(Barrier::new(conns + 1));
    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = addr.to_string();
        let (connected, go) = (Arc::clone(&connected), Arc::clone(&go));
        let cfg = ClientConfig {
            deadline_ms,
            seed: seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            policy: RetryPolicy {
                base: 2,
                factor: 2,
                max_interval: 100,
                jitter: 5,
                budget: 120_000,
            },
            ..ClientConfig::default()
        };
        handles.push(std::thread::spawn(move || {
            let client = NetClient::connect(&addr, cfg);
            connected.wait();
            go.wait();
            let mut client = client
                .map_err(|e| eprintln!("conn {c}: connect failed: {e}"))
                .ok()?;
            let mut lat_ns = Vec::with_capacity(stmts);
            let mut acked_inserts = 0u64;
            for j in 0..stmts {
                let insert = j % 4 != 3;
                let sql = if insert {
                    format!(
                        "INSERT INTO kv VALUES ({}, {}) EXPIRES IN 100000 TICKS",
                        c * stmts + j,
                        j % 2
                    )
                } else {
                    "SELECT k FROM kv WHERE v = 1".to_string()
                };
                let t0 = Instant::now();
                match client.execute(&sql) {
                    Ok(ReplyBody::Affected(_)) if insert => acked_inserts += 1,
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("conn {c} stmt {j}: {e}");
                        return None;
                    }
                }
                lat_ns.push(t0.elapsed().as_nanos() as u64);
            }
            client.close();
            Some((lat_ns, client.stats, acked_inserts))
        }));
    }
    connected.wait();
    ready();
    let t0 = Instant::now();
    go.wait();
    let mut load = WireLoad {
        lat_ns: Vec::with_capacity(conns * stmts),
        stats: ClientStats::default(),
        acked_inserts: 0,
        failed: 0,
        wall_s: 0.0,
    };
    for h in handles {
        let Some((lat, stats, acked)) = h.join().expect("client thread panicked") else {
            load.failed += 1;
            continue;
        };
        load.lat_ns.extend(lat);
        let sum = &mut load.stats;
        sum.statements += stats.statements;
        sum.retries += stats.retries;
        sum.reconnects += stats.reconnects;
        sum.sheds += stats.sheds;
        sum.retryable_errors += stats.retryable_errors;
        sum.degraded_reads += stats.degraded_reads;
        load.acked_inserts += acked;
    }
    load.wall_s = t0.elapsed().as_secs_f64();
    load.lat_ns.sort_unstable();
    load
}

fn main() {
    let args = parse_args();
    // Embedded mode: our own engine + server, so we can verify the
    // drain afterwards. External mode: just drive the given address.
    let embedded: Option<(SharedDatabase, NetServer)> = if args.addr.is_none() {
        let mut db = Database::new(DbConfig::default());
        db.execute("CREATE TABLE kv (k INT, v INT)")
            .expect("create table");
        let shared = SharedDatabase::from_database(db);
        let server = NetServer::serve(&shared, "127.0.0.1:0", NetConfig::default())
            .expect("bind embedded server");
        Some((shared, server))
    } else {
        None
    };
    let addr = match (&args.addr, &embedded) {
        (Some(a), _) => a.clone(),
        (None, Some((_, server))) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };
    println!(
        "netload: {} conns x {} stmts against {}{}",
        args.conns,
        args.stmts,
        addr,
        if embedded.is_some() {
            " (embedded)"
        } else {
            ""
        },
    );

    // The server's own count, read while every client is connected and
    // none has started: the concurrency it actually served.
    let mut concurrent = None;
    let load = wire_load(
        &addr,
        args.conns,
        args.stmts,
        args.deadline_ms,
        args.seed,
        || {
            concurrent = embedded
                .as_ref()
                .map(|(_, server)| server.status().connections)
        },
    );
    let stats = load.stats;
    println!(
        "done: {} stmts in {:.2}s ({:.0} stmt/s), p50 {:.0}us p99 {:.0}us",
        stats.statements,
        load.wall_s,
        stats.statements as f64 / load.wall_s.max(1e-9),
        load.percentile_us(0.50),
        load.percentile_us(0.99),
    );
    println!(
        "retries: {} ({} shed, {} reconnects), degraded reads: {}",
        stats.retries, stats.sheds, stats.reconnects, stats.degraded_reads
    );
    if load.failed > 0 {
        eprintln!("{} connection(s) failed", load.failed);
        std::process::exit(1);
    }

    if let Some(seen) = concurrent {
        println!(
            "concurrency: the server saw {seen} of {} connection(s) at once",
            args.conns
        );
        if seen < args.conns {
            eprintln!(
                "SERVER DID NOT SEE EVERY CONNECTION: {seen} < {}",
                args.conns
            );
            std::process::exit(1);
        }
    }

    if let Some((shared, server)) = embedded {
        let report = server.drain();
        let rows = shared.with(|db| {
            db.execute("SELECT k FROM kv")
                .expect("post-drain select")
                .rows()
                .map_or(0, exptime_core::relation::Relation::len)
        });
        println!(
            "drain: {} session(s), {} completed, {} shed; {} row(s) on disk vs {} acked insert(s)",
            report.sessions, report.completed, report.shed, rows, load.acked_inserts,
        );
        if (rows as u64) < load.acked_inserts {
            eprintln!(
                "DRAIN LOST ACKED WRITES: {rows} rows < {} acked",
                load.acked_inserts
            );
            std::process::exit(1);
        }
        println!("drain check: ok (no acked write lost)");
    }
}
