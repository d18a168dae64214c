//! Monitoring data with bounded validity — the paper's "temperature or
//! location samples" motivation, plus a demonstration of how the three
//! aggregate expiration modes differ on live data.
//!
//! ```sh
//! cargo run --example sensor_monitor
//! ```
//!
//! Each sensor reading is valid for a fixed window, declared once on the
//! table (`TTL 20`) — the feed loop attaches no times at all. Dashboards
//! want per-zone minima; the naive rule (Eq. 8) expires a dashboard row as
//! soon as *any* reading in the zone lapses, while the contributing-set
//! rule (Table 1) and the exact ν rule (Eq. 9) keep it alive for as long
//! as the minimum is actually pinned.

use exptime::core::aggregate::{self, AggFunc, AggMode};
use exptime::prelude::*;

const READING_VALIDITY: u64 = 20;

fn main() -> DbResult<()> {
    let mut db = Database::new(DbConfig::default());
    // The validity window is table policy, not per-insert arithmetic.
    db.execute(&format!(
        "CREATE TABLE readings (zone INT, temp INT) TTL {READING_VALIDITY}"
    ))?;

    // Zone 1: the minimum (18°) arrives late, so it outlives the others.
    // Zone 2: all readings agree.
    let feed: &[(u64, i64, i64)] = &[
        (0, 1, 21),
        (2, 1, 24),
        (5, 1, 18), // the minimum — valid until 25
        (1, 2, 30),
        (3, 2, 30),
    ];
    for &(at, zone, temp) in feed {
        if Time::new(at) > db.now() {
            db.advance_to(Time::new(at));
        }
        db.insert_default("readings", tuple![zone, temp])?;
    }

    // Compare the three expiration-time assignments for min(temp) by zone.
    let readings = db.query_expr(&Expr::base("readings"))?.rel;
    println!("per-zone minimum temperature at time {} —", db.now());
    println!("  expiration time of the dashboard row under each mode:\n");
    println!(
        "  {:<6}{:>6}{:>18}{:>22}{:>14}",
        "zone", "min", "naive (Eq. 8)", "contributing (T. 1)", "exact (ν)"
    );
    for (key, partition) in aggregate::partition(&readings, &[0], db.now()) {
        let min = AggFunc::Min(1).apply(&partition).unwrap().unwrap();
        let mut texps = Vec::new();
        for mode in [AggMode::Naive, AggMode::Contributing, AggMode::Exact] {
            texps
                .push(aggregate::result_texp(&partition, AggFunc::Min(1), mode, db.now()).unwrap());
        }
        println!(
            "  {:<6}{:>6}{:>18}{:>22}{:>14}",
            key.attr(0).to_string(),
            min.to_string(),
            texps[0].to_string(),
            texps[1].to_string(),
            texps[2].to_string()
        );
    }

    // A dashboard as a materialised view, read over time: it stays exactly
    // right as readings lapse, with recomputation only on real changes.
    db.execute(
        "CREATE MATERIALIZED VIEW coldest AS
         SELECT zone, MIN(temp) FROM readings GROUP BY zone",
    )?;
    println!("\ndashboard over time:");
    for _ in 0..6 {
        db.tick(5);
        let rows = db.read_view("coldest")?;
        print!("  t={:<4}", db.now().to_string());
        if rows.is_empty() {
            println!("(no live readings)");
        } else {
            let mut cells: Vec<String> = rows
                .iter()
                .map(|(r, _)| format!("zone {} min {}", r.attr(0), r.attr(1)))
                .collect();
            cells.sort();
            println!("{}", cells.join(" | "));
        }
    }
    let stats = db.view_stats("coldest")?;
    println!(
        "\n  view reads: {}, recomputations: {} — the rest was pure local expiry",
        stats.reads, stats.recomputations
    );

    // Stale sensors: zones audited in the catalog but silent now.
    db.execute("CREATE TABLE zones (zone INT)")?;
    for z in 1..=3i64 {
        db.insert("zones", tuple![z], Time::INFINITY)?;
    }
    let silent = db.execute("SELECT zone FROM zones EXCEPT SELECT zone FROM readings")?;
    println!(
        "\nzones with no live readings at t={}: {:?}",
        db.now(),
        silent
            .rows()
            .unwrap()
            .iter()
            .map(|(r, _)| r.attr(0).clone())
            .collect::<Vec<_>>()
    );
    Ok(())
}
