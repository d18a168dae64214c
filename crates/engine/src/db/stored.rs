//! The stored tables as the algebra's binding environment.
//!
//! A consistent read is a pinned `τ`, not a copy: visibility is
//! `texp > τ`, and an evaluation borrows the tables for its whole length,
//! so nothing can move under it. [`Stored`] answers the algebra's two
//! questions ([`Bindings`]) straight from the [`Table`]s: a visit is a
//! [`Table::visit`], which lends the rows of `scan_at` — the same filter
//! the write paths (`DELETE`, `UPDATE … SET EXPIRES`, access touches) use
//! — and the evaluator copies only the rows that reach a result. Copying
//! a whole table ([`Table::to_relation`]) is left to the reference
//! [`Database::snapshot`] below.

use super::Database;
use exptime_core::catalog::{Bindings, Catalog};
use exptime_core::error::{Error, Result};
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_obs::AllocCounter;
use exptime_storage::Table;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The table map plus the statement's tallies, borrowed field by field, so
/// a materialised view held in `Database::views` can refresh against it
/// while being mutably borrowed itself.
pub(super) struct Stored<'a> {
    pub(super) tables: &'a BTreeMap<String, Table>,
    pub(super) alloc: &'a AllocCounter,
    pub(super) scanned: &'a AtomicU64,
}

impl Stored<'_> {
    fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }
}

impl Bindings for Stored<'_> {
    fn schema(&self, name: &str) -> Result<Schema> {
        Ok(self.table(name)?.schema().clone())
    }

    /// One pass over the named table's heap: the table counts it in
    /// `storage.<t>.scans`, the rows it lent go to the statement's
    /// `rows_scanned`, and only the rows the evaluator kept to its
    /// `allocations`.
    fn visit(
        &self,
        name: &str,
        tau: Time,
        row: &mut dyn FnMut(&Tuple, Time) -> bool,
    ) -> Result<usize> {
        let table = self.table(name)?;
        let mut kept = 0;
        let visible = table.visit(tau, |t, e| kept += u64::from(row(t, e)));
        self.scanned.fetch_add(visible as u64, Ordering::Relaxed);
        self.alloc.note(kept);
        Ok(table.len() - visible)
    }
}

/// A database binds its base tables (views are inlined first, see
/// [`Database::inline_views`]): the read path, a replica or an external
/// evaluator hands `&Database` to [`eval`](exptime_core::algebra::eval).
impl Bindings for Database {
    fn schema(&self, name: &str) -> Result<Schema> {
        self.stored().schema(name)
    }

    fn visit(
        &self,
        name: &str,
        tau: Time,
        row: &mut dyn FnMut(&Tuple, Time) -> bool,
    ) -> Result<usize> {
        self.stored().visit(name, tau, row)
    }
}

impl Database {
    fn stored(&self) -> Stored<'_> {
        Stored {
            tables: &self.tables,
            alloc: &self.alloc,
            scanned: &self.scanned,
        }
    }

    /// Copies every table's live rows into an algebra [`Catalog`] at the
    /// current time.
    ///
    /// The reference implementation of a read, not the read path: no
    /// production code calls it (repolint R005). Tests and the benchmark's
    /// probes evaluate over it to check snapshot reducibility — evaluating
    /// over the live tables at `τ` must equal evaluating over this copy.
    #[must_use]
    pub fn snapshot(&self) -> Catalog {
        let now = self.clock.now();
        let mut c = Catalog::new();
        for (name, table) in &self.tables {
            let rel = table.to_relation(now);
            self.alloc.note(rel.len() as u64);
            c.register(name.clone(), rel);
        }
        c
    }
}
