//! Tables: heap storage + expiration index + secondary indexes.
//!
//! A [`Table`] is the physical realisation of an expiration-time relation:
//! rows live in a [`RowHeap`], an [`ExpirationIndex`] schedules their
//! removal, optional ordered secondary indexes accelerate selections, and a
//! primary (tuple) index enforces set semantics — inserting an existing
//! tuple adjusts its expiration time (`KeepMax`, matching the algebra's
//! union/projection rule) instead of duplicating it.
//!
//! Expiration is *pull-based*: the engine calls [`Table::expire_due`] when
//! its clock advances (eagerly every tick, or lazily on a vacuum cadence —
//! Section 3.2 of the paper); reads are always filtered by `texp > τ`, so
//! the policy only affects physical residency, trigger latency, and space.

use crate::btree::BTreeIndex;
use crate::expiry::{ExpirationIndex, IndexKind};
use crate::heap::{RowHeap, RowId};
use exptime_core::error::{Error, Result};
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_core::value::Value;
use exptime_obs::{Counter, HorizonForecast, MetricsRegistry, Obs, Tracer};
use std::collections::HashMap;

/// Running counters for one table — a point-in-time snapshot of the
/// table's observability counters (see [`Table::attach_obs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Successful inserts of new tuples.
    pub inserts: u64,
    /// Inserts that updated an existing tuple's expiration time.
    pub upserts: u64,
    /// Explicit deletes.
    pub deletes: u64,
    /// Rows removed by expiration.
    pub expired: u64,
    /// Point/range reads served by a secondary index.
    pub index_lookups: u64,
    /// Reads served by a full scan.
    pub scans: u64,
}

/// Counter handles behind [`TableStats`]. Detached by default (private
/// atomics); [`Table::attach_obs`] re-interns them in a shared
/// [`MetricsRegistry`] under `storage.<table>.*` so the engine's metrics
/// view the same cells.
#[derive(Debug, Clone, Default)]
struct TableCounters {
    inserts: Counter,
    upserts: Counter,
    deletes: Counter,
    expired: Counter,
    index_lookups: Counter,
    scans: Counter,
    /// Calls to [`Table::expire_due`] (expiry-index pop batches) — exposed
    /// only through the registry, not [`TableStats`].
    expiry_pops: Counter,
}

impl TableCounters {
    fn in_registry(registry: &MetricsRegistry, table: &str) -> Self {
        let c = |field: &str| registry.counter(&format!("storage.{table}.{field}"));
        TableCounters {
            inserts: c("inserts"),
            upserts: c("upserts"),
            deletes: c("deletes"),
            expired: c("expired"),
            index_lookups: c("index_lookups"),
            scans: c("scans"),
            expiry_pops: c("expiry_pops"),
        }
    }

    fn snapshot(&self) -> TableStats {
        TableStats {
            inserts: self.inserts.get(),
            upserts: self.upserts.get(),
            deletes: self.deletes.get(),
            expired: self.expired.get(),
            index_lookups: self.index_lookups.get(),
            scans: self.scans.get(),
        }
    }

    fn migrate_into(&self, target: &TableCounters) {
        target.inserts.add(self.inserts.get());
        target.upserts.add(self.upserts.get());
        target.deletes.add(self.deletes.get());
        target.expired.add(self.expired.get());
        target.index_lookups.add(self.index_lookups.get());
        target.scans.add(self.scans.get());
        target.expiry_pops.add(self.expiry_pops.get());
    }
}

/// A physical table with expiration support.
pub struct Table {
    name: String,
    schema: Schema,
    heap: RowHeap,
    expiry: Box<dyn ExpirationIndex + Send>,
    primary: HashMap<Tuple, RowId>,
    secondary: HashMap<usize, BTreeIndex>,
    counters: TableCounters,
    tracer: Tracer,
    /// See [`Table::write_version`].
    write_version: u64,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("rows", &self.heap.len())
            .field("expiry", &self.expiry.name())
            .field("secondary", &self.secondary.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(name: impl Into<String>, schema: Schema, index: IndexKind) -> Self {
        Table {
            name: name.into(),
            schema,
            heap: RowHeap::new(),
            expiry: index.build(),
            primary: HashMap::new(),
            secondary: HashMap::new(),
            counters: TableCounters::default(),
            tracer: Tracer::detached(),
            write_version: 0,
        }
    }

    /// The table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Statistics counters (a snapshot; see [`Table::attach_obs`]).
    #[must_use]
    pub fn stats(&self) -> TableStats {
        self.counters.snapshot()
    }

    /// How many writes this table has taken: every [`Table::insert`] that
    /// returned `Ok` (an upsert included), every [`Table::update_texp`]
    /// and [`Table::delete`] that found its tuple. Expiration, scans and
    /// index builds never move it — a result derived from this table stays
    /// valid as time passes (Theorem 1) exactly as long as this number
    /// stands still, so it is what a materialised view remembers.
    #[must_use]
    pub fn write_version(&self) -> u64 {
        self.write_version
    }

    /// Publishes this table's counters in `obs`'s metrics registry under
    /// `storage.<table>.<counter>` (e.g. `storage.pol.scans`). Counts
    /// accumulated while detached migrate over; [`Table::stats`] keeps
    /// reporting the same numbers either way.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let attached = TableCounters::in_registry(obs.registry(), &self.name);
        self.counters.migrate_into(&attached);
        self.counters = attached;
    }

    /// Adopts the engine's [`Tracer`], so this table's expiry passes show
    /// up as children of whatever engine span is open (tick, vacuum, …).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Physically stored rows (including not-yet-collected expired ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Rows visible at `τ`.
    #[must_use]
    pub fn live_count(&self, tau: Time) -> usize {
        self.heap.iter().filter(|&(_, _, e)| e > tau).count()
    }

    /// The table's expiration horizon at `τ`: a log₂-bucketed forecast
    /// of when the currently live rows will expire (bucket `k` counts
    /// rows with `texp ∈ [τ + 2^k, τ + 2^(k+1))`; eternal rows are
    /// tallied separately). One heap scan, like [`Table::live_count`] —
    /// and by construction `forecast.total() == live_count(τ)`.
    #[must_use]
    pub fn expiry_horizon(&self, tau: Time) -> HorizonForecast {
        let now = tau.finite().unwrap_or(u64::MAX);
        HorizonForecast::from_texps(
            now,
            self.heap
                .iter()
                .filter(|&(_, _, e)| e > tau)
                .map(|(_, _, e)| e.finite()),
        )
    }

    /// Builds an ordered secondary index on attribute `attr` (zero-based),
    /// indexing existing rows. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AttributeOutOfRange`] for a bad position.
    pub fn create_index(&mut self, attr: usize) -> Result<()> {
        if attr >= self.schema.arity() {
            return Err(Error::AttributeOutOfRange {
                index: attr,
                arity: self.schema.arity(),
            });
        }
        if self.secondary.contains_key(&attr) {
            return Ok(());
        }
        let mut ix = BTreeIndex::new();
        for (id, t, _) in self.heap.iter() {
            ix.insert(t.attr(attr), id);
        }
        self.secondary.insert(attr, ix);
        Ok(())
    }

    /// Inserts a tuple with expiration time `texp`, as of time `now`.
    /// Inserting an existing tuple keeps the maximum expiration time.
    ///
    /// # Errors
    ///
    /// Returns schema errors, or [`Error::ExpirationInPast`] when
    /// `texp ≤ now` (the tuple would be born dead).
    pub fn insert(&mut self, tuple: Tuple, texp: Time, now: Time) -> Result<()> {
        self.schema.check(&tuple)?;
        if texp <= now {
            return Err(Error::ExpirationInPast {
                expiration: texp,
                now,
            });
        }
        if let Some(&id) = self.primary.get(&tuple) {
            let (_, old) = self.heap.get(id).expect("primary index out of sync");
            if texp > old {
                self.heap.set_texp(id, texp);
                self.expiry.remove(id, old);
                self.expiry.insert(id, texp);
            }
            self.counters.upserts.inc();
            self.write_version += 1;
            return Ok(());
        }
        let id = self.heap.insert(tuple.clone(), texp);
        self.expiry.insert(id, texp);
        for (attr, ix) in &mut self.secondary {
            ix.insert(tuple.attr(*attr), id);
        }
        self.primary.insert(tuple, id);
        self.counters.inserts.inc();
        self.write_version += 1;
        Ok(())
    }

    /// Replaces a tuple's expiration time (the paper's *update*: the only
    /// other place expiration times surface to users).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ExpirationInPast`] when `texp ≤ now`.
    pub fn update_texp(&mut self, tuple: &Tuple, texp: Time, now: Time) -> Result<bool> {
        if texp <= now {
            return Err(Error::ExpirationInPast {
                expiration: texp,
                now,
            });
        }
        let Some(&id) = self.primary.get(tuple) else {
            return Ok(false);
        };
        let (_, old) = self.heap.get(id).expect("primary index out of sync");
        self.heap.set_texp(id, texp);
        self.expiry.remove(id, old);
        self.expiry.insert(id, texp);
        self.write_version += 1;
        Ok(true)
    }

    /// Explicitly deletes a tuple; returns its expiration time if present.
    pub fn delete(&mut self, tuple: &Tuple) -> Option<Time> {
        let id = self.primary.remove(tuple)?;
        let (row, texp) = self.heap.delete(id)?;
        self.expiry.remove(id, texp);
        for (attr, ix) in &mut self.secondary {
            ix.remove(row.attr(*attr), id);
        }
        self.counters.deletes.inc();
        self.write_version += 1;
        Some(texp)
    }

    /// The expiration time of a tuple, if present (expired or not).
    #[must_use]
    pub fn texp(&self, tuple: &Tuple) -> Option<Time> {
        let &id = self.primary.get(tuple)?;
        self.heap.get(id).map(|(_, e)| e)
    }

    /// Pops and physically removes every row with `texp ≤ τ`, returning
    /// the removed rows so triggers can fire on them.
    pub fn expire_due(&mut self, tau: Time) -> Vec<(Tuple, Time)> {
        let mut span = self.tracer.span("storage.expire");
        span.attr("table", &self.name);
        if let Some(t) = tau.finite() {
            span.at(t);
        }
        self.counters.expiry_pops.inc();
        let due = self.expiry.pop_due(tau);
        let mut removed = Vec::with_capacity(due.len());
        for id in due {
            // Stale ids (explicitly deleted rows) are already gone.
            if let Some((tuple, texp)) = self.heap.delete(id) {
                self.primary.remove(&tuple);
                for (attr, ix) in &mut self.secondary {
                    ix.remove(tuple.attr(*attr), id);
                }
                self.counters.expired.inc();
                removed.push((tuple, texp));
            }
        }
        span.attr("removed", removed.len());
        removed
    }

    /// The next instant at which a row becomes due, if any.
    #[must_use]
    pub fn next_expiration(&mut self) -> Option<Time> {
        self.expiry.next_expiration()
    }

    /// Scans rows visible at `τ`.
    pub fn scan_at(&self, tau: Time) -> impl Iterator<Item = (&Tuple, Time)> + '_ {
        self.heap
            .iter()
            .filter(move |&(_, _, e)| e > tau)
            .map(|(_, t, e)| (t, e))
    }

    /// Point selection `attr = value` at `τ`, via the secondary index when
    /// one exists.
    pub fn select_eq(&mut self, attr: usize, value: &Value, tau: Time) -> Vec<(Tuple, Time)> {
        if let Some(ix) = self.secondary.get(&attr) {
            self.counters.index_lookups.inc();
            ix.get(value)
                .iter()
                .filter_map(|&id| self.heap.get(id))
                .filter(|&(_, e)| e > tau)
                .map(|(t, e)| (t.clone(), e))
                .collect()
        } else {
            self.counters.scans.inc();
            self.scan_at(tau)
                .filter(|(t, _)| t.attr(attr) == value)
                .map(|(t, e)| (t.clone(), e))
                .collect()
        }
    }

    /// Range selection `lo ≤ attr ≤ hi` at `τ`, via the secondary index
    /// when one exists.
    pub fn select_range(
        &mut self,
        attr: usize,
        lo: &Value,
        hi: &Value,
        tau: Time,
    ) -> Vec<(Tuple, Time)> {
        if let Some(ix) = self.secondary.get(&attr) {
            self.counters.index_lookups.inc();
            ix.range(lo, hi)
                .into_iter()
                .filter_map(|(_, id)| self.heap.get(id))
                .filter(|&(_, e)| e > tau)
                .map(|(t, e)| (t.clone(), e))
                .collect()
        } else {
            self.counters.scans.inc();
            self.scan_at(tau)
                .filter(|(t, _)| {
                    let v = t.attr(attr);
                    v.total_cmp(lo).is_ge() && v.total_cmp(hi).is_le()
                })
                .map(|(t, e)| (t.clone(), e))
                .collect()
        }
    }

    /// Lends each row visible at `τ` to `row`, in stored order, and returns
    /// how many there were — the bridge from physical storage to the query
    /// layer, which copies only the rows that reach a result. A full scan,
    /// and counted as one.
    pub fn visit(&self, tau: Time, mut row: impl FnMut(&Tuple, Time)) -> usize {
        self.counters.scans.inc();
        let mut visible = 0;
        for (t, e) in self.scan_at(tau) {
            visible += 1;
            row(t, e);
        }
        visible
    }

    /// Copies the rows visible at `τ` into an algebra [`Relation`]: a
    /// [`visit`](Table::visit) that keeps everything. The engine's read
    /// path does not call it, so this is the reference that path is tested
    /// against.
    #[must_use]
    pub fn to_relation(&self, tau: Time) -> Relation {
        let mut r = Relation::new(self.schema.clone());
        self.visit(tau, |t, e| {
            r.insert(t.clone(), e).expect("rows were schema-checked");
        });
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::tuple;
    use exptime_core::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn table(kind: IndexKind) -> Table {
        Table::new(
            "pol",
            Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]),
            kind,
        )
    }

    #[test]
    fn insert_and_expire_roundtrip() {
        for kind in [IndexKind::Heap, IndexKind::Wheel, IndexKind::Scan] {
            let mut tb = table(kind);
            tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
            tb.insert(tuple![2, 25], t(15), Time::ZERO).unwrap();
            tb.insert(tuple![3, 35], t(10), Time::ZERO).unwrap();
            assert_eq!(tb.len(), 3);
            assert_eq!(tb.live_count(t(10)), 1);
            assert_eq!(tb.next_expiration(), Some(t(10)));
            let removed = tb.expire_due(t(10));
            assert_eq!(removed.len(), 2, "{kind:?}");
            assert_eq!(tb.len(), 1);
            assert_eq!(tb.stats().expired, 2);
            assert_eq!(tb.next_expiration(), Some(t(15)));
        }
    }

    #[test]
    fn expiry_horizon_buckets_live_rows_and_conserves_the_count() {
        let mut tb = table(IndexKind::Heap);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.insert(tuple![2, 25], t(11), Time::ZERO).unwrap();
        tb.insert(tuple![3, 35], t(40), Time::ZERO).unwrap();
        tb.insert(tuple![4, 45], Time::INFINITY, Time::ZERO)
            .unwrap();
        let f = tb.expiry_horizon(t(9));
        // Offsets from τ=9: +1 (bucket 0), +2 (bucket 1), +31 (bucket 4).
        assert_eq!(f.buckets()[0], 1);
        assert_eq!(f.buckets()[1], 1);
        assert_eq!(f.buckets()[4], 1);
        assert_eq!(f.eternal(), 1);
        assert_eq!(f.total(), tb.live_count(t(9)) as u64);
        // Past the first two expirations only two rows remain ahead.
        let f = tb.expiry_horizon(t(11));
        assert_eq!(f.expiring(), 1);
        assert_eq!(f.total(), tb.live_count(t(11)) as u64);
    }

    #[test]
    fn insert_rejects_past_expirations_and_bad_tuples() {
        let mut tb = table(IndexKind::Heap);
        assert!(matches!(
            tb.insert(tuple![1, 2], t(5), t(5)),
            Err(Error::ExpirationInPast { .. })
        ));
        assert!(tb.insert(tuple![1], t(9), Time::ZERO).is_err());
        assert!(tb.is_empty());
    }

    #[test]
    fn duplicate_insert_keeps_max_texp() {
        let mut tb = table(IndexKind::Heap);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.insert(tuple![1, 25], t(20), Time::ZERO).unwrap();
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.texp(&tuple![1, 25]), Some(t(20)));
        assert_eq!(tb.stats().upserts, 1);
        // The lower expiration never fires: nothing due at 10.
        assert!(tb.expire_due(t(10)).is_empty());
        assert_eq!(tb.expire_due(t(20)).len(), 1);
        // Re-insert with a lower texp is a no-op on the stored time.
        tb.insert(tuple![2, 2], t(30), t(21)).unwrap();
        tb.insert(tuple![2, 2], t(25), t(21)).unwrap();
        assert_eq!(tb.texp(&tuple![2, 2]), Some(t(30)));
    }

    #[test]
    fn update_texp_reschedules() {
        let mut tb = table(IndexKind::Wheel);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        assert!(tb.update_texp(&tuple![1, 25], t(5), Time::ZERO).unwrap());
        assert_eq!(tb.expire_due(t(5)).len(), 1, "shortened lifetime fires");
        assert!(!tb.update_texp(&tuple![1, 25], t(9), t(6)).unwrap());
        assert!(tb.update_texp(&tuple![9, 9], t(3), t(6)).is_err());
    }

    #[test]
    fn write_version_moves_on_writes_and_on_nothing_else() {
        let mut tb = table(IndexKind::Heap);
        let mut seen = tb.write_version();
        let mut moved = |tb: &Table| {
            let now = tb.write_version();
            std::mem::replace(&mut seen, now) != now
        };
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        assert!(moved(&tb), "insert");
        tb.insert(tuple![1, 25], t(20), Time::ZERO).unwrap();
        assert!(moved(&tb), "upsert");
        tb.insert(tuple![2, 25], t(5), Time::ZERO).unwrap();
        assert!(moved(&tb));
        assert!(tb.update_texp(&tuple![1, 25], t(30), Time::ZERO).unwrap());
        assert!(moved(&tb), "update_texp of a present tuple");
        assert_eq!(tb.delete(&tuple![1, 25]), Some(t(30)));
        assert!(moved(&tb), "delete of a present tuple");

        // Theorem 1: expiration is not a write; neither are reads, an
        // index build, a rejected write or a write that finds no tuple.
        assert_eq!(tb.expire_due(t(5)).len(), 1);
        let _ = tb.scan_at(t(5)).count();
        let _ = tb.to_relation(t(5));
        let _ = tb.select_eq(1, &Value::Int(25), t(5));
        tb.create_index(1).unwrap();
        assert_eq!(tb.delete(&tuple![9, 9]), None);
        assert!(!tb.update_texp(&tuple![9, 9], t(40), t(5)).unwrap());
        assert!(tb.insert(tuple![3, 3], t(5), t(5)).is_err());
        assert!(!moved(&tb));
    }

    #[test]
    fn explicit_delete_removes_everywhere() {
        let mut tb = table(IndexKind::Heap);
        tb.create_index(1).unwrap();
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.insert(tuple![2, 25], t(15), Time::ZERO).unwrap();
        assert_eq!(tb.delete(&tuple![1, 25]), Some(t(10)));
        assert_eq!(tb.delete(&tuple![1, 25]), None);
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.select_eq(1, &Value::Int(25), Time::ZERO).len(), 1);
        // Expiration of the deleted row must not fire.
        assert!(tb.expire_due(t(10)).is_empty());
        assert_eq!(tb.expire_due(t(15)).len(), 1);
    }

    #[test]
    fn secondary_index_matches_scan() {
        let mut indexed = table(IndexKind::Heap);
        indexed.create_index(1).unwrap();
        let mut plain = table(IndexKind::Heap);
        for i in 0..200i64 {
            let row = tuple![i, i % 10];
            indexed
                .insert(row.clone(), t(5 + (i as u64 % 50)), Time::ZERO)
                .unwrap();
            plain
                .insert(row, t(5 + (i as u64 % 50)), Time::ZERO)
                .unwrap();
        }
        for tau in [0u64, 20, 40, 60] {
            let mut a = indexed.select_eq(1, &Value::Int(3), t(tau));
            let mut b = plain.select_eq(1, &Value::Int(3), t(tau));
            a.sort_by(|(x, _), (y, _)| x.cmp(y));
            b.sort_by(|(x, _), (y, _)| x.cmp(y));
            assert_eq!(a, b, "τ = {tau}");
            let mut ra = indexed.select_range(0, &Value::Int(10), &Value::Int(30), t(tau));
            let mut rb = plain.select_range(0, &Value::Int(10), &Value::Int(30), t(tau));
            ra.sort_by(|(x, _), (y, _)| x.cmp(y));
            rb.sort_by(|(x, _), (y, _)| x.cmp(y));
            assert_eq!(ra, rb, "range τ = {tau}");
        }
        assert!(indexed.stats().index_lookups > 0);
        assert!(plain.stats().scans > 0);
    }

    #[test]
    fn create_index_is_idempotent_and_validated() {
        let mut tb = table(IndexKind::Heap);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.create_index(0).unwrap();
        tb.create_index(0).unwrap();
        assert!(tb.create_index(7).is_err());
        assert_eq!(tb.select_eq(0, &Value::Int(1), Time::ZERO).len(), 1);
    }

    #[test]
    fn to_relation_bridges_to_algebra() {
        let mut tb = table(IndexKind::Heap);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.insert(tuple![2, 25], t(15), Time::ZERO).unwrap();
        let r = tb.to_relation(t(10));
        assert_eq!(r.len(), 1);
        assert_eq!(r.texp(&tuple![2, 25]), Some(t(15)));
        assert_eq!(r.schema().arity(), 2);
        assert_eq!(tb.stats().scans, 1);
    }

    #[test]
    fn attach_obs_migrates_and_publishes_counters() {
        let mut tb = table(IndexKind::Heap);
        tb.insert(tuple![1, 25], t(10), Time::ZERO).unwrap();
        tb.insert(tuple![2, 25], t(15), Time::ZERO).unwrap();
        let pre = tb.stats();
        assert_eq!(pre.inserts, 2);

        let obs = exptime_obs::Obs::new();
        tb.attach_obs(&obs);
        // Pre-attach counts migrated into the registry.
        assert_eq!(obs.registry().counter_value("storage.pol.inserts"), 2);
        // New activity lands in the shared cells and in stats().
        tb.expire_due(t(10));
        assert_eq!(obs.registry().counter_value("storage.pol.expired"), 1);
        assert_eq!(obs.registry().counter_value("storage.pol.expiry_pops"), 1);
        assert_eq!(tb.stats().expired, 1);
    }

    #[test]
    fn infinite_rows_never_expire() {
        let mut tb = table(IndexKind::Wheel);
        tb.insert(tuple![1, 1], Time::INFINITY, Time::ZERO).unwrap();
        tb.insert(tuple![2, 2], t(5), Time::ZERO).unwrap();
        assert_eq!(tb.expire_due(t(1_000_000)).len(), 1);
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.next_expiration(), None);
        assert_eq!(tb.live_count(t(u64::MAX - 2)), 1);
    }
}
