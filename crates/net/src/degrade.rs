//! Degraded-mode reads: texp-valid answers without touching the engine.
//!
//! This is the paper's lever applied to overload: a materialised result
//! carries `texp(e)` and a Schrödinger validity set, so the server can
//! *prove* whether a cached answer is still correct at the current
//! logical time without re-evaluating it. Under queue pressure the
//! server prefers a provably-valid cached answer over queueing the read
//! behind writes — and when the cache has only a stale entry, it can
//! still serve the most recent *covered* instant, labelled as stale. Both
//! are [`Materialized::answer`], the one read every holder of a
//! materialisation serves — the chaos replica with its link down does
//! exactly this.

use exptime_core::algebra::Materialized;
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use std::collections::HashMap;

/// What a cache lookup produced.
#[derive(Debug)]
pub struct DegradedRead {
    /// The rows, expired forward to the served instant.
    pub rel: Relation,
    /// The instant the answer is correct *as of*. Equal to `now` on a
    /// validity hit; earlier on a stale serve.
    pub as_of: Time,
    /// `texp(e)` of the cached expression.
    pub texp: Time,
    /// True when `as_of < now`: the answer is a Schrödinger-covered
    /// stale read, not provably current.
    pub stale: bool,
}

/// Default entry cap for [`StaleCache`], and the cap of the TCP server's.
pub const DEFAULT_STALE_CACHE_CAP: usize = 256;

#[derive(Debug)]
struct Entry {
    m: Materialized,
    /// Logical LRU stamp: the cache clock at the last insert or serve.
    last_used: u64,
}

/// An SQL-text-keyed cache of materialised query results.
///
/// Entries are filled by the normal execution path *while degraded is
/// anticipated* (the server materialises SELECTs through
/// `Database::select` anyway, so caching is free — `LIMIT` queries
/// excepted, whose truncated rows cannot be expired forward) and consulted
/// only when admission control is under pressure. The cache holds at
/// most `cap` entries, evicting the least-recently-used on insert —
/// distinct query texts (e.g. varying literals) must not grow server
/// memory without bound. Eviction is an `O(cap)` scan; at the default
/// cap that is noise next to the materialisation it stores.
#[derive(Debug)]
pub struct StaleCache {
    entries: HashMap<String, Entry>,
    cap: usize,
    clock: u64,
    /// Served while provably valid at the current time.
    pub valid_hits: u64,
    /// Served from the most recent covered instant (stale, labelled).
    pub stale_hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries LRU-evicted to stay within the cap.
    pub evictions: u64,
}

impl Default for StaleCache {
    fn default() -> Self {
        StaleCache::new()
    }
}

impl StaleCache {
    #[must_use]
    pub fn new() -> Self {
        StaleCache::with_cap(DEFAULT_STALE_CACHE_CAP)
    }

    /// A cache bounded at `cap` entries (minimum 1).
    #[must_use]
    pub fn with_cap(cap: usize) -> Self {
        StaleCache {
            entries: HashMap::new(),
            cap: cap.max(1),
            clock: 0,
            valid_hits: 0,
            stale_hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Stores (or refreshes) the materialisation for a SELECT's text,
    /// LRU-evicting to stay within the cap.
    pub fn insert(&mut self, sql: &str, m: Materialized) {
        self.clock += 1;
        let last_used = self.clock;
        if let Some(e) = self.entries.get_mut(sql) {
            e.m = m;
            e.last_used = last_used;
            return;
        }
        while self.entries.len() >= self.cap {
            let Some(coldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&coldest);
            self.evictions += 1;
        }
        self.entries.insert(sql.to_string(), Entry { m, last_used });
    }

    /// Tries to answer `sql` at time `now` without the engine.
    ///
    /// Preference order: a validity hit (provably correct at `now`),
    /// then the most recent covered instant before `now` (stale,
    /// flagged). An entry that can serve neither is dropped.
    pub fn serve(&mut self, sql: &str, now: Time) -> Option<DegradedRead> {
        self.clock += 1;
        let clock = self.clock;
        let Some(e) = self.entries.get_mut(sql) else {
            self.misses += 1;
            return None;
        };
        e.last_used = clock;
        let Some((rel, as_of)) = e.m.answer(now) else {
            self.entries.remove(sql);
            self.misses += 1;
            return None;
        };
        let stale = as_of < now;
        if stale {
            self.stale_hits += 1;
        } else {
            self.valid_hits += 1;
        }
        Some(DegradedRead {
            rel,
            as_of,
            texp: e.m.texp,
            stale,
        })
    }

    /// Cached entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::algebra::{eval, EvalOptions, Expr};
    use exptime_core::catalog::Catalog;
    use exptime_core::schema::Schema;
    use exptime_core::tuple;
    use exptime_core::value::ValueType;

    fn catalog_with_rows(texps: &[u64]) -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::of(&[("k", ValueType::Int)]);
        let mut rel = Relation::new(schema);
        for (i, &texp) in texps.iter().enumerate() {
            rel.insert(tuple![i as i64], Time::new(texp)).unwrap();
        }
        cat.register("t", rel);
        cat
    }

    fn materialize(cat: &Catalog, at: u64) -> Materialized {
        eval(
            &Expr::Base("t".into()),
            cat,
            Time::new(at),
            &EvalOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn valid_hit_serves_current_rows() {
        let cat = catalog_with_rows(&[10, 20]);
        let mut cache = StaleCache::new();
        cache.insert("SELECT * FROM t", materialize(&cat, 0));
        let r = cache.serve("SELECT * FROM t", Time::new(5)).unwrap();
        assert!(!r.stale);
        assert_eq!(r.as_of, Time::new(5));
        assert_eq!(r.rel.len(), 2, "nothing expired by t=5");
        // Expired-forward at a later covered time: the t=10 row is gone.
        let r = cache.serve("SELECT * FROM t", Time::new(12)).unwrap();
        assert_eq!(r.rel.len(), 1);
        assert_eq!(cache.valid_hits, 2);
    }

    #[test]
    fn cache_is_capped_with_lru_eviction() {
        let cat = catalog_with_rows(&[10]);
        let mut cache = StaleCache::with_cap(3);
        for i in 0..3 {
            cache.insert(&format!("q{i}"), materialize(&cat, 0));
        }
        // Touch q0 so q1 becomes the coldest entry, then overflow.
        assert!(cache.serve("q0", Time::new(1)).is_some());
        cache.insert("q3", materialize(&cat, 0));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions, 1);
        assert!(cache.serve("q1", Time::new(1)).is_none(), "LRU evicted");
        assert!(cache.serve("q0", Time::new(1)).is_some(), "MRU survives");
        // Refreshing an existing key is an update, never an eviction.
        cache.insert("q0", materialize(&cat, 0));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn miss_on_unknown_sql() {
        let mut cache = StaleCache::new();
        assert!(cache.serve("SELECT * FROM t", Time::new(1)).is_none());
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn base_relation_scans_never_go_stale() {
        // texp of a base scan is ∞ (the paper defines base relations as
        // never expiring as expressions), so any future time is a valid
        // hit — the degraded path can serve base scans forever.
        let cat = catalog_with_rows(&[10]);
        let mut cache = StaleCache::new();
        cache.insert("q", materialize(&cat, 0));
        let r = cache.serve("q", Time::new(1_000)).unwrap();
        assert!(!r.stale);
        assert!(r.rel.is_empty(), "the one row expired at 10");
    }
}
