//! The write and policy-touch stages of the statement pipeline (dispatch →
//! read → **write → policy touch** → durability → maintenance).
//!
//! Stored state changes in four ways: a tuple is inserted with a `texp`,
//! deleted, has its `texp` replaced, or expires. Expiration belongs to the
//! clock (`Database::advance_to`) and needs no maintenance (Theorem 1);
//! the other three are the [`Change`]s, and [`Database::apply`] is the one
//! function that makes one. Everything that writes a row goes through it —
//! the API inserts, SQL `INSERT` / `DELETE` / `UPDATE … SET EXPIRES`, the
//! sliding-on-access pass of a `SELECT`, the checkpoint's row load and the
//! redo of a logged record — so *do ≡ redo*: recovery runs the code live
//! statements run. The table counts the write itself
//! ([`Table::write_version`]), which is all a materialised view over it
//! needs to notice; `apply` then lets its caller account the change and
//! appends the redo record, in that order, so an append that fails cannot
//! leave a counter or a view behind the rows.
//!
//! Above `apply` sit the statement forms: policy → constraints → `Put` for
//! an insert, the matching rows → `Remove` for a delete, and one `retime`
//! loop (policy per row → `Retime`) for both `UPDATE … SET EXPIRES` and
//! access touches.

use super::{Database, DbError, DbResult, ExecResult};
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::predicate::Predicate;
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_core::value::{Value, ValueType};
use exptime_policy::{Event as PolicyEvent, TouchKind, TtlPolicy};
use exptime_sql::ast::{Cond, Expires, Literal, Query};
use exptime_sql::plan_table_cond;
use exptime_wal::WalRecord;
use std::time::Instant;

/// One change to one stored row: the three data records of [`WalRecord`],
/// borrowed — a volatile insert allocates nothing on the way to the log.
#[derive(Clone, Copy)]
pub(super) enum Change<'a> {
    /// The tuple enters the table; one already there keeps the later `texp`.
    Put { tuple: &'a Tuple, texp: Time },
    /// The tuple's `texp` is replaced — the paper's only UPDATE.
    Retime { tuple: &'a Tuple, texp: Time },
    /// The tuple is explicitly deleted.
    Remove { tuple: &'a Tuple },
}

impl Database {
    /// Makes one change to table `key` (a lowercased catalog key) at the
    /// current time, and returns whether a row changed: always for a `Put`
    /// that storage accepts, for a `Retime` or `Remove` iff the tuple was
    /// there.
    ///
    /// A change that happened is accounted, then logged: `account` runs
    /// (the caller's counters — nothing for a redo, which is not this
    /// run's statement), then, iff a WAL statement is open, the change's
    /// redo record is appended. Storage errors leave the row untouched; an
    /// append error leaves it changed, counted and visible to views, with
    /// the session degraded.
    pub(super) fn apply(
        &mut self,
        key: &str,
        change: Change<'_>,
        account: impl FnOnce(&Self),
    ) -> DbResult<bool> {
        let now = self.clock.now();
        let table = self
            .tables
            .get_mut(key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table `{key}`")))?;
        let changed = match change {
            Change::Put { tuple, texp } => {
                table.insert(tuple.clone(), texp, now)?;
                true
            }
            Change::Retime { tuple, texp } => table.update_texp(tuple, texp, now)?,
            Change::Remove { tuple } => table.delete(tuple).is_some(),
        };
        if changed {
            account(self);
            self.wal_log_op(|txn| {
                let table = key.to_string();
                match change {
                    Change::Put { tuple, texp } => WalRecord::Insert {
                        txn,
                        table,
                        values: tuple.values().to_vec(),
                        texp,
                    },
                    Change::Retime { tuple, texp } => WalRecord::UpdateTexp {
                        txn,
                        table,
                        values: tuple.values().to_vec(),
                        texp,
                    },
                    Change::Remove { tuple } => WalRecord::Delete {
                        txn,
                        table,
                        values: tuple.values().to_vec(),
                    },
                }
            })?;
        }
        Ok(changed)
    }

    /// Inserts a tuple with an absolute expiration time (use
    /// [`Time::INFINITY`] for "never").
    ///
    /// # Errors
    ///
    /// Returns schema, constraint, or past-expiration errors.
    pub fn insert(&mut self, table: &str, tuple: Tuple, texp: Time) -> DbResult<()> {
        self.guard_reserved(table, "INSERT")?;
        self.wal_stmt(|db| db.insert_inner(table, tuple, Some(texp)))
    }

    /// Inserts a tuple whose expiration is left entirely to the table's
    /// TTL policy (`now + ttl`, clamped; `∞` without a policy) — the API
    /// twin of `INSERT … VALUES …` with no `EXPIRES` clause.
    ///
    /// # Errors
    ///
    /// As [`Database::insert`].
    pub fn insert_default(&mut self, table: &str, tuple: Tuple) -> DbResult<()> {
        self.guard_reserved(table, "INSERT")?;
        self.wal_stmt(|db| db.insert_inner(table, tuple, None))
    }

    /// Inserts a tuple that expires `ttl` ticks from now.
    ///
    /// # Errors
    ///
    /// As [`Database::insert`].
    pub fn insert_ttl(&mut self, table: &str, tuple: Tuple, ttl: u64) -> DbResult<()> {
        let texp = self.clock.now() + ttl;
        self.insert(table, tuple, texp)
    }

    /// `requested = None` defers the expiration to the table's policy.
    fn insert_inner(&mut self, table: &str, tuple: Tuple, requested: Option<Time>) -> DbResult<()> {
        let start = Instant::now();
        let now = self.clock.now();
        let key = table.to_ascii_lowercase();
        // Policy pass (skipped in system context: WAL replay and dump
        // restore carry already-effective absolute expirations, and
        // re-clamping them would corrupt restored state).
        let tp = (!self.system_ctx)
            .then(|| self.policies.get(&key))
            .flatten();
        let (texp, clamped, modify_slides) = match tp {
            Some(tp) => {
                let fx = tp
                    .policy
                    .effective_texp(PolicyEvent::Write { requested }, now);
                (
                    fx.texp,
                    fx.clamped,
                    tp.policy.sliding.slides_on(TouchKind::Modify),
                )
            }
            None => (requested.unwrap_or(Time::INFINITY), false, false),
        };
        if let Some(cs) = self.constraints.get(&key) {
            for c in cs {
                c.check(&tuple, texp, now)?;
            }
        }
        // A re-insert of an existing row under a sliding-on-modify policy
        // is a touch; record whether it actually re-armed (moved `texp`
        // forward — the keep-max upsert makes that exactly `texp > prior`).
        let slid = modify_slides
            && self
                .tables
                .get(&key)
                .and_then(|t| t.texp(&tuple))
                .is_some_and(|prior| texp > prior);
        let put = Change::Put {
            tuple: &tuple,
            texp,
        };
        self.apply(&key, put, |db| {
            db.counters.inserts.inc();
            db.counters.insert_ns.record_duration(start.elapsed());
            if clamped || slid {
                db.note_policy_effect(&key, clamped, slid);
            }
        })?;
        Ok(())
    }

    /// Bumps the global and per-table `policy.*` counters.
    fn note_policy_effect(&self, table_key: &str, clamped: bool, slid: bool) {
        let Some(tp) = self.policies.get(table_key) else {
            return;
        };
        if clamped {
            self.policy_counters.clamped.inc();
            tp.clamped.inc();
        }
        if slid {
            self.policy_counters.sliding_touches.inc();
            tp.sliding_touches.inc();
        }
    }

    pub(super) fn exec_insert(
        &mut self,
        table: &str,
        rows: Vec<Vec<Literal>>,
        expires: Expires,
    ) -> DbResult<ExecResult> {
        self.guard_reserved(table, "INSERT")?;
        let requested = self.resolve_expires(expires);
        let schema = self.table(table)?.schema().clone();
        let mut n = 0;
        for row in rows {
            let tuple = coerce_row(&row, &schema)?;
            self.insert_inner(table, tuple, requested)?;
            n += 1;
        }
        Ok(ExecResult::Affected(n))
    }

    pub(super) fn exec_delete(
        &mut self,
        table: &str,
        predicate: Option<&Cond>,
    ) -> DbResult<ExecResult> {
        self.guard_reserved(table, "DELETE")?;
        let key = table.to_ascii_lowercase();
        let victims = self.targets(table, predicate)?;
        let mut n = 0;
        for (tuple, _) in victims.iter() {
            if self.apply(&key, Change::Remove { tuple }, |db| {
                db.counters.deletes.inc();
            })? {
                n += 1;
            }
        }
        Ok(ExecResult::Affected(n))
    }

    pub(super) fn exec_update_expiration(
        &mut self,
        table: &str,
        expires: Expires,
        predicate: Option<&Cond>,
    ) -> DbResult<ExecResult> {
        self.guard_reserved(table, "UPDATE")?;
        let key = table.to_ascii_lowercase();
        // The policy decides the new `texp` per row: `SET EXPIRES DEFAULT`
        // is a *modify-touch* (sliding policies re-arm, absolute ones
        // leave the row alone); an explicit expiration is a write request
        // the policy may still clamp. System context (restore replay)
        // bypasses the policy as in [`Database::insert_inner`].
        let policy = (!self.system_ctx)
            .then(|| self.policies.get(&key).map(|tp| tp.policy))
            .flatten()
            .unwrap_or_default();
        let requested = self.resolve_expires(expires);
        let targets = self.targets(table, predicate)?;
        let n = self.retime(&key, policy, &targets, |current| match requested {
            None => PolicyEvent::Touch {
                kind: TouchKind::Modify,
                current,
            },
            Some(_) => PolicyEvent::Write { requested },
        })?;
        Ok(ExecResult::Affected(n))
    }

    /// Sliding-on-access pass for a SQL `SELECT`: every base table the
    /// query names whose policy slides on access gets its read rows
    /// re-armed (keep-max, `O(log n)` per row through the expiry index).
    /// Single-table bodies narrow the touch set with the `WHERE`
    /// predicate; other shapes conservatively touch every live row.
    /// Touches run in their own WAL statement transaction so they are
    /// durable — a recovered database does not forget that a session was
    /// recently seen.
    pub(super) fn apply_access_touches(&mut self, query: &Query) -> DbResult<()> {
        if self.system_ctx {
            return Ok(());
        }
        let sliding: Vec<_> = std::iter::once(&query.body)
            .chain(query.compound.iter().map(|(_, b)| b))
            .flat_map(|body| body.from.iter().map(move |table| (body, table)))
            .filter_map(|(body, table)| {
                let key = table.to_ascii_lowercase();
                let policy = self.policies.get(&key)?.policy;
                policy
                    .sliding
                    .slides_on(TouchKind::Access)
                    .then_some((body, table, key, policy))
            })
            .collect();
        // Read-only workloads over non-sliding tables must not open WAL
        // transactions (or pay anything else).
        if sliding.is_empty() {
            return Ok(());
        }
        self.wal_stmt(|db| {
            for (body, table, key, policy) in sliding {
                if !db.tables.contains_key(&key) {
                    continue;
                }
                // Narrow by WHERE when it plans as a per-tuple predicate
                // over this one table; degrade to touch-all otherwise.
                let pred = if body.from.len() == 1 {
                    body.selection
                        .as_ref()
                        .and_then(|c| plan_table_cond(c, table, &*db).ok())
                } else {
                    None
                };
                let rows = db.rows_where(table, pred)?;
                db.retime(&key, policy, &rows, |current| PolicyEvent::Touch {
                    kind: TouchKind::Access,
                    current,
                })?;
            }
            Ok(())
        })
    }

    /// Replaces the `texp` of each of `rows` with what `policy` makes, now,
    /// of the event the row raises — the one loop behind `UPDATE … SET
    /// EXPIRES` and the access touches, which differ only in that event. A
    /// touch that re-arms nothing (the policy does not slide on it, or the
    /// row already outlives the target: touches are monotone) leaves its
    /// row alone. Returns the number of rows changed.
    fn retime(
        &mut self,
        key: &str,
        policy: TtlPolicy,
        rows: &Relation,
        event_of: impl Fn(Time) -> PolicyEvent,
    ) -> DbResult<usize> {
        let now = self.clock.now();
        let mut n = 0;
        for (tuple, current) in rows.iter() {
            let event = event_of(current);
            let fx = policy.effective_texp(event, now);
            if matches!(event, PolicyEvent::Touch { .. }) && !fx.slid {
                continue;
            }
            let retime = Change::Retime {
                tuple,
                texp: fx.texp,
            };
            if self.apply(key, retime, |db| {
                if fx.clamped || fx.slid {
                    db.note_policy_effect(key, fx.clamped, fx.slid);
                }
            })? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// The rows a `DELETE` or an `UPDATE … SET EXPIRES` with this `WHERE`
    /// acts on.
    fn targets(&self, table: &str, predicate: Option<&Cond>) -> DbResult<Relation> {
        let pred = predicate
            .map(|c| plan_table_cond(c, table, self))
            .transpose()?;
        // An unknown table is the engine's catalog error, not the algebra's.
        self.table(table)?;
        self.rows_where(table, pred)
    }

    /// The rows of `table` visible now that satisfy `pred`: what a
    /// `DELETE`, an `UPDATE … SET EXPIRES` or an access touch acts on. A
    /// write finds them with the scan a read does — `σ_pred(table)`
    /// evaluated over the database — so it is counted as one scan.
    fn rows_where(&self, table: &str, pred: Option<Predicate>) -> DbResult<Relation> {
        let base = Expr::base(table);
        let expr = match pred {
            Some(p) => base.select(p),
            None => base,
        };
        Ok(eval(&expr, self, self.clock.now(), &EvalOptions::default())?.rel)
    }

    /// The expiration an `EXPIRES` clause asks for; `None` (no clause, or
    /// `EXPIRES DEFAULT`) leaves it to the table's TTL policy.
    fn resolve_expires(&self, e: Expires) -> Option<Time> {
        match e {
            Expires::Default => None,
            Expires::Never => Some(Time::INFINITY),
            Expires::At(t) => Some(Time::new(t)),
            Expires::In(d) => Some(self.clock.now() + d),
        }
    }
}

/// Coerces SQL literals to a schema (integer literals fill float columns).
fn coerce_row(row: &[Literal], schema: &Schema) -> Result<Tuple, DbError> {
    let mut values = Vec::with_capacity(row.len());
    for (i, lit) in row.iter().enumerate() {
        let v = lit.to_value();
        let v = match (schema.attributes().get(i).map(|a| a.ty), &v) {
            (Some(ValueType::Float), Value::Int(x)) => Value::float(*x as f64),
            _ => v,
        };
        values.push(v);
    }
    let tuple = Tuple::new(values);
    schema.check(&tuple).map_err(DbError::Core)?;
    Ok(tuple)
}
