//! Loosely-coupled synchronisation — the paper's Web-Services/mobile
//! motivation, measured.
//!
//! ```sh
//! cargo run --example cache_sync
//! ```
//!
//! A mobile client holds two materialised views over a server database
//! and keeps reading them while the network link flaps. Expiration-aware
//! views maintain themselves locally; the example counts every message
//! and compares against delete-push and polling baselines.

use exptime::core::algebra::Expr;
use exptime::core::materialize::RefreshPolicy;
use exptime::prelude::*;
use exptime_bench::baseline::{DeletePushReplica, PollingReplica};

fn build_server() -> DbResult<Database> {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE offers    (item INT, price INT)")?;
    db.execute("CREATE TABLE reserved  (item INT, price INT)")?;
    // 60 offers, staggered lifetimes; a third get reserved for a while.
    for i in 0..60i64 {
        db.insert_ttl("offers", tuple![i, 100 + i], 40 + (i as u64 % 60))?;
        if i % 3 == 0 {
            db.insert_ttl("reserved", tuple![i, 100 + i], 10 + (i as u64 % 20))?;
        }
    }
    Ok(db)
}

fn main() -> DbResult<()> {
    // The client's views: all open offers (monotonic) and offers available
    // for purchase = offers − reserved (non-monotonic: reservations
    // expiring *add* tuples).
    let offers = Expr::base("offers");
    let available = Expr::base("offers").difference(Expr::base("reserved"));

    // ---- expiration-aware replica, with Theorem 3 patching ------------
    let mut srv = build_server()?;
    let mut client = Replica::new(RefreshPolicy::Patch);
    client.subscribe("offers", offers.clone(), &srv)?;
    client.subscribe("available", available.clone(), &srv)?;

    let mut stale_reads = 0;
    for round in 1..=50u64 {
        srv.tick(2);
        // The link is down for rounds 20–30 (a tunnel, say).
        if round == 20 {
            client.link().disconnect();
            println!("t={:>3}: link DOWN", srv.now());
        }
        if round == 30 {
            client.link().reconnect();
            println!("t={:>3}: link UP", srv.now());
        }
        let (offers_now, _) = client.read("offers", &srv)?;
        let (avail_now, outcome) = client.read("available", &srv)?;
        if matches!(outcome, ReadOutcome::Stale(_)) {
            stale_reads += 1;
        }
        if round % 10 == 0 {
            println!(
                "t={:>3}: {} open offers, {} available ({outcome:?})",
                srv.now(),
                offers_now.len(),
                avail_now.len()
            );
        }
    }
    let aware = client.link_stats();
    println!(
        "\nexpiration-aware client: {} messages, {} tuples moved, {} stale reads during outage",
        aware.total_messages(),
        aware.tuples_transferred,
        stale_reads
    );

    // ---- baseline 1: server pushes per-tuple change notices -----------
    let mut srv = build_server()?;
    let mut push_offers = DeletePushReplica::subscribe(offers.clone(), &srv)?;
    let mut push_avail = DeletePushReplica::subscribe(available.clone(), &srv)?;
    for _ in 1..=50u64 {
        srv.tick(2);
        push_offers.server_sync(&srv)?;
        push_avail.server_sync(&srv)?;
    }
    let push_total =
        push_offers.link_stats().total_messages() + push_avail.link_stats().total_messages();
    println!("delete-push baseline:    {push_total} messages");

    // ---- baseline 2: client polls on every read -----------------------
    let mut srv = build_server()?;
    let mut poll_offers = PollingReplica::new(offers, &srv);
    let mut poll_avail = PollingReplica::new(available, &srv);
    for _ in 1..=50u64 {
        srv.tick(2);
        poll_offers.read(&srv)?;
        poll_avail.read(&srv)?;
    }
    let poll_total =
        poll_offers.link_stats().total_messages() + poll_avail.link_stats().total_messages();
    println!("polling baseline:        {poll_total} messages");

    println!(
        "\nreduction vs polling: {:.0}×; vs delete-push: {:.0}×",
        poll_total as f64 / aware.total_messages() as f64,
        push_total as f64 / aware.total_messages() as f64
    );
    assert!(aware.total_messages() < push_total);
    assert!(push_total < poll_total);
    Ok(())
}
