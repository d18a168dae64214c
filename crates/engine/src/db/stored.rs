//! The stored tables as the algebra's binding environment.
//!
//! A consistent read is a pinned `τ`, not a copy: visibility is
//! `texp > τ`, and an evaluation borrows the tables for its whole length,
//! so nothing can move under it. [`Stored`] answers the algebra's two
//! questions ([`Bindings`]) straight from the [`Table`]s through
//! [`Table::to_relation`] — the same `scan_at` the write paths
//! (`DELETE`, `UPDATE … SET EXPIRES`, access touches) filter with — and
//! copies only the tables an expression names.

use super::Database;
use exptime_core::catalog::{Bindings, Catalog};
use exptime_core::error::{Error, Result};
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_obs::AllocCounter;
use exptime_storage::Table;
use std::collections::BTreeMap;

/// The table map plus the allocation shim, borrowed field by field, so a
/// materialised view held in `Database::views` can refresh against it
/// while being mutably borrowed itself.
pub(super) struct Stored<'a> {
    pub(super) tables: &'a BTreeMap<String, Table>,
    pub(super) alloc: &'a AllocCounter,
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

    /// One copy of the named table's live rows — the engine's
    /// materialisation site, billed to the statement's profile and counted
    /// in `storage.<t>.scans`.
    fn scan(&self, name: &str, tau: Time) -> Result<(Relation, usize)> {
        let table = self.table(name)?;
        let rel = table.to_relation(tau);
        self.alloc.note(rel.len() as u64);
        let skipped = table.len() - rel.len();
        Ok((rel, skipped))
    }
}

/// A database binds its base tables (views are inlined first, see
/// [`Database::inline_views`]): the read path, a replica or an external
/// evaluator hands `&Database` to [`eval`](exptime_core::algebra::eval).
impl Bindings for Database {
    fn schema(&self, name: &str) -> Result<Schema> {
        self.stored().schema(name)
    }

    fn scan(&self, name: &str, tau: Time) -> Result<(Relation, usize)> {
        self.stored().scan(name, tau)
    }
}

impl Database {
    fn stored(&self) -> Stored<'_> {
        Stored {
            tables: &self.tables,
            alloc: &self.alloc,
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
