//! `netload`: a load generator for the exptime wire protocol.
//!
//! Drives N concurrent [`NetClient`](exptime_net::NetClient) sessions
//! against a server — either one you point it at (started with
//! `exptime-cli --serve ADDR`) or an embedded one it spawns itself —
//! and prints throughput, tail latency, and shed/retry counters. The
//! load is [`wire_load`], the closed loop E10-net drives too.
//!
//! Embedded mode doubles as an end-to-end drain check: after the
//! clients finish, the server is drained and the table's row count is
//! compared against the number of acknowledged inserts. Any acked
//! write missing after the drain is a protocol bug, and the process
//! exits nonzero — CI runs exactly this as its smoke test.
//!
//! Usage:
//!
//! ```text
//! netload [ADDR] [--conns N] [--stmts N] [--deadline MS] [--seed S]
//! ```
//!
//! With no `ADDR`, an embedded server is started on a loopback port.

use exptime_bench::experiments::wire_load;
use exptime_engine::{Database, DbConfig, SharedDatabase};
use exptime_net::{NetConfig, NetServer};

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

    let load = wire_load(
        &addr,
        args.conns,
        args.stmts,
        args.deadline_ms,
        args.seed,
        || {},
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
