//! Exact costs where timings are noise: how many times a statement asks
//! the allocator for memory. A count does not depend on the host, the
//! build path or the load on the machine, so it can be pinned exactly.
//!
//! The counting allocator keeps one counter per thread, so tests running
//! in parallel on other threads do not add to the count of the one being
//! measured. An allocation and a reallocation count one each; a free
//! counts nothing.
//!
//! The ceilings are the counts measured when this file was written. A
//! change that earns a lower count lowers its ceiling; one that raises a
//! count says why in CHANGES.md.

use exptime::core::tuple;
use exptime::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator is still called while a thread's
        // locals are being torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a `Cell<u64>` in a
// `const`-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// What the statement allocates the second time it runs: the first run
/// pays for one-off setup (metric handles, the hasher's seed).
fn second_run(db: &mut Database, sql: &str) -> u64 {
    db.execute(sql).unwrap();
    allocations(|| db.execute(sql).unwrap())
}

const GROUPS: i64 = 200;

/// A `readings (sensor, ts, val)` table of `GROUPS` sensors with
/// `per_group` live readings each.
fn readings(per_group: i64) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE readings (sensor INT, ts INT, val INT)")
        .unwrap();
    for ts in 0..per_group {
        for sensor in 0..GROUPS {
            db.insert_ttl("readings", tuple![sensor, ts, (sensor * ts) % 1000], 1_000)
                .unwrap();
        }
    }
    db
}

/// A `GROUP BY … COUNT(*)` keeps nothing per row: what it allocates
/// depends on the number of groups, not on how many rows each holds.
#[test]
fn a_count_per_group_allocates_per_group_not_per_row() {
    const SQL: &str = "SELECT sensor, COUNT(*) FROM readings GROUP BY sensor";
    let small = second_run(&mut readings(10), SQL);
    let large = second_run(&mut readings(40), SQL);
    assert_eq!(
        small, large,
        "10 rows a group: {small}; 40 rows a group: {large}"
    );
}

/// A `kv (k, v)` table of 1 000 rows, one expiring at each tick 1…1 000.
fn kv() -> Database {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    for k in 0..1_000 {
        db.insert_ttl("kv", tuple![k, k % 7], k as u64 + 1).unwrap();
    }
    db
}

/// A ceiling per statement kind.
#[test]
fn each_statement_kind_stays_under_its_ceiling() {
    let mut db = kv();
    db.execute("INSERT INTO kv VALUES (5000, 1) EXPIRES IN 2000 TICKS")
        .unwrap();
    let insert = allocations(|| {
        db.execute("INSERT INTO kv VALUES (5001, 1) EXPIRES IN 2000 TICKS")
            .unwrap()
    });
    let point = second_run(&mut db, "SELECT * FROM kv WHERE k = 700");
    db.execute("UPDATE kv SET EXPIRES IN 3000 TICKS WHERE k = 998")
        .unwrap();
    let update = allocations(|| {
        db.execute("UPDATE kv SET EXPIRES IN 3000 TICKS WHERE k = 999")
            .unwrap()
    });
    db.tick(1);
    let tick = allocations(|| db.tick(1));
    let measured = [
        ("INSERT", insert, 22),
        ("point SELECT", point, 34),
        ("UPDATE … WHERE", update, 37),
        ("tick", tick, 13),
    ];
    for (kind, count, ceiling) in measured {
        println!("{kind}: {count} allocations (ceiling {ceiling})");
    }
    for (kind, count, ceiling) in measured {
        assert!(
            count <= ceiling,
            "{kind}: {count} allocations, ceiling {ceiling}"
        );
    }
}
