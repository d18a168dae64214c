//! The maintenance stage of the statement pipeline (dispatch → read →
//! write → policy touch → durability → **maintenance**): the clock, and
//! what advancing it does. Section 3.2 gives the clock one job — advancing
//! it removes expired tuples, eagerly at each expiration event or on a
//! vacuum cadence — and the rest of this module only reports on it: the
//! per-view time-to-expiration gauges, the health snapshot, and the
//! forecast of the expirations still ahead.
//!
//! Each rule of the stage is written once:
//!
//! * **A stored row leaves by expiration in one place**
//!   ([`Database::expire_all`]): it counts the row, emits `tuple_expired`,
//!   fires the table's triggers, emits `trigger_fired` and hands the
//!   lateness to the SLO monitor. The eager loop and [`Database::vacuum`]
//!   both call it.
//! * **Every advance re-derives what the clock predicts**, once per
//!   [`Database::advance_to`] call, not per tick: the `view.<v>.ttx` gauges
//!   from the materialised `texp`s, then the `forecast.*` gauges and storm
//!   warnings from one horizon scan ([`Database::refresh_forecast_gauges`],
//!   which recovery also runs).

use super::{gauge_i64, Database};
use crate::trigger::ExpirationEvent;
use exptime_core::time::Time;
use exptime_obs::{EventKind, Health, HorizonForecast, StormBucket};
use exptime_storage::Table;

/// How the engine physically removes expired base-table rows
/// (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Removal {
    /// Process expirations at every expiration event time as the clock
    /// passes it; triggers fire exactly at `texp`.
    #[default]
    Eager,
    /// Defer physical removal to a periodic vacuum; reads are unaffected
    /// (they filter by `texp > τ`), but triggers fire late and space is
    /// reclaimed late.
    Lazy {
        /// Vacuum cadence in ticks.
        vacuum_every: u64,
    },
}

/// Configuration for the expiration-horizon forecaster (DESIGN.md §8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForecastConfig {
    /// Predicted expirations-per-tick above which a horizon bucket is a
    /// *storm*: every clock advance recomputes the forecast and emits a
    /// `storm_warning` event for each bucket whose rate `count / 2^k`
    /// strictly exceeds this. Zero means any non-empty bucket warns.
    pub storm_threshold: u64,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        // High enough that steady drip workloads stay quiet; a derived
        // zero would make every expiring tuple a "storm".
        ForecastConfig {
            storm_threshold: 64,
        }
    }
}

/// A point-in-time forecast of the database's future expiration load:
/// the merged [`HorizonForecast`] across all tables, each table's own
/// horizon, each materialised view's ticks-until-refresh, and any
/// buckets exceeding the configured storm threshold. Built by
/// [`Database::forecast`]; rendered by the CLI's `\forecast`.
#[derive(Debug, Clone)]
pub struct DbForecast {
    /// Logical instant the forecast is anchored at.
    pub now: u64,
    /// Storm threshold in effect (predicted expirations per tick).
    pub threshold: u64,
    /// Merged horizon across every table.
    pub horizon: HorizonForecast,
    /// Per-table horizons, in name order.
    pub tables: Vec<(String, HorizonForecast)>,
    /// Each materialised view's predicted refresh deadline: ticks until
    /// its `texp` forces a refresh decision, or `None` when eternal.
    pub views: Vec<(String, Option<u64>)>,
    /// Buckets of the merged horizon whose predicted expirations-per-tick
    /// rate exceeds [`DbForecast::threshold`].
    pub storms: Vec<StormBucket>,
}

impl DbForecast {
    /// Renders the forecast for humans: the merged load curve, per-table
    /// and per-view summaries, and storm warnings last.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = self.horizon.render(width);
        for (name, f) in &self.tables {
            let _ = writeln!(
                out,
                "table {name}: {} expiring, {} eternal",
                f.expiring(),
                f.eternal()
            );
        }
        for (name, due) in &self.views {
            let _ = match due {
                Some(d) => writeln!(out, "view {name}: refresh due in {d} tick(s)"),
                None => writeln!(out, "view {name}: eternal (no expiration-forced refresh)"),
            };
        }
        for s in &self.storms {
            let _ = writeln!(
                out,
                "STORM [+{},+{}]: {} predicted expirations (> {}/tick)",
                s.lo, s.hi, s.predicted, self.threshold
            );
        }
        out
    }
}

impl Database {
    /// Advances the clock by `delta` ticks, processing expirations per the
    /// removal policy. Returns the new time.
    pub fn tick(&mut self, delta: u64) -> Time {
        let target = self.clock.now() + delta;
        self.advance_to(target);
        target
    }

    /// Advances the clock to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past or `∞` (clocks only move forward
    /// through finite instants).
    pub fn advance_to(&mut self, target: Time) {
        let from = self.clock.now();
        let mut span = self.tracer.span("clock.advance");
        span.attr("from", from);
        span.attr("to", target);
        if let Some(t) = target.finite() {
            span.at(t);
        }
        if target > from {
            self.obs
                .emit_with(target.finite(), || EventKind::ClockAdvance {
                    from: from.finite().unwrap_or(u64::MAX),
                    to: target.finite().unwrap_or(u64::MAX),
                });
        }
        match self.config.removal {
            Removal::Eager => {
                // Step through each expiration event so triggers fire at
                // their exact times.
                loop {
                    let next = self
                        .tables
                        .values_mut()
                        .filter_map(Table::next_expiration)
                        .min();
                    match next {
                        Some(t) if t <= target => {
                            self.clock.advance_to(t);
                            self.expire_all(t, t);
                        }
                        _ => break,
                    }
                }
                self.clock.advance_to(target);
            }
            Removal::Lazy { vacuum_every } => {
                self.clock.advance_to(target);
                let due = target
                    .finite()
                    .zip(self.last_vacuum.finite())
                    .is_some_and(|(t, v)| t - v >= vacuum_every);
                if due {
                    self.vacuum();
                }
            }
        }
        drop(span);
        if target > from {
            self.wal_after_advance(target);
        }
        // Every clock advance re-derives the per-view time-to-expiration
        // gauges from the materialised texp values (no sampling needed —
        // the paper's machinery makes staleness predictable), then the
        // forward-looking horizon: forecast gauges and storm warnings.
        // Once per advance_to *call*, not per tick — `tick(1024)` pays
        // for one horizon scan.
        self.observe_view_staleness();
        self.refresh_forecast_gauges();
        // Telemetry sampling rides the same cadence: persist the freshly
        // refreshed gauges as expiring history rows when a sample is due.
        self.maybe_sample_telemetry();
    }

    /// Runs a vacuum pass now: physically removes expired rows from every
    /// table and fires their triggers (with `fired_at = now`, possibly
    /// after `texp` — the lazy-removal fidelity gap).
    pub fn vacuum(&mut self) {
        let now = self.clock.now();
        let mut span = self.tracer.span("db.vacuum");
        if let Some(t) = now.finite() {
            span.at(t);
        }
        let removed = self.expire_all(now, now);
        span.attr("removed", removed);
        self.last_vacuum = now;
        self.counters.vacuums.inc();
        self.obs.emit_with(now.finite(), || EventKind::VacuumPass {
            at: now.finite().unwrap_or(u64::MAX),
            removed,
        });
    }

    /// Removes every row due at `tau` from every table, firing its triggers
    /// as of `fired_at`. Returns the rows removed.
    fn expire_all(&mut self, tau: Time, fired_at: Time) -> u64 {
        let mut removed = 0;
        for (name, table) in &mut self.tables {
            for (tuple, texp) in table.expire_due(tau) {
                self.counters.expired.inc();
                removed += 1;
                let (texp_u, fired_u) = (
                    texp.finite().unwrap_or(u64::MAX),
                    fired_at.finite().unwrap_or(u64::MAX),
                );
                self.obs
                    .emit_with(fired_at.finite(), || EventKind::TupleExpired {
                        table: name.clone(),
                        texp: texp_u,
                        fired_at: fired_u,
                    });
                self.triggers.fire(ExpirationEvent {
                    table: name.clone(),
                    tuple,
                    texp,
                    fired_at,
                });
                self.obs
                    .emit_with(fired_at.finite(), || EventKind::TriggerFired {
                        table: name.clone(),
                        texp: texp_u,
                        fired_at: fired_u,
                    });
                // SLO: lazy removal fires triggers late by design; the
                // monitor decides whether this crossed the threshold.
                self.monitor.observe_trigger(name, texp_u, fired_u);
            }
        }
        removed
    }

    /// A health snapshot: per-view time-to-expiration (from materialised
    /// `texp` — Theorems 1–3), SLO breach counts, and latency/lateness
    /// distributions. Refreshes the staleness gauges first, so the report
    /// reflects *this* instant even if the clock has not moved since the
    /// last advance.
    #[must_use]
    pub fn health(&self) -> Health {
        self.observe_view_staleness();
        self.monitor.health()
    }

    /// Pushes every materialised view's `texp` into the staleness
    /// monitor's `view.<name>.ttx` gauges.
    fn observe_view_staleness(&self) {
        let now = self.clock.now().finite().unwrap_or(u64::MAX);
        let items = self.views.iter().filter_map(|(name, entry)| {
            let view = entry.materialized()?;
            Some((name.as_str(), view.texp().finite(), view.last_decision()))
        });
        self.monitor.observe_views(now, items.collect::<Vec<_>>());
    }

    /// Forecasts future expiration load: every table's expiry index is
    /// folded into log₂ horizon buckets (`[now + 2^k, now + 2^(k+1))`),
    /// materialised views report their predicted refresh deadlines, and
    /// buckets denser than [`ForecastConfig::storm_threshold`] per tick
    /// are flagged as storms. Everything here is *computable today*
    /// because a tuple's future visibility is a pure function of its
    /// expiration time — the paper's central observation, pointed
    /// forward.
    #[must_use]
    pub fn forecast(&self) -> DbForecast {
        let now_t = self.clock.now();
        let now = now_t.finite().unwrap_or(u64::MAX);
        let mut horizon = HorizonForecast::new(now);
        let mut tables = Vec::new();
        for (name, table) in &self.tables {
            let f = table.expiry_horizon(now_t);
            horizon.merge(&f);
            tables.push((name.clone(), f));
        }
        let views = self
            .views
            .iter()
            .filter_map(|(name, entry)| {
                let due = entry.materialized()?.texp().finite();
                Some((name.clone(), due.map(|t| t.saturating_sub(now))))
            })
            .collect();
        let threshold = self.config.forecast.storm_threshold;
        let storms = horizon.storms(threshold);
        DbForecast {
            now,
            threshold,
            horizon,
            tables,
            views,
            storms,
        }
    }

    /// Re-derives the `forecast.*` gauges from a fresh horizon scan and
    /// emits a `storm_warning` event per storming bucket. A view's time to
    /// its refresh is its `view.<v>.ttx` gauge, which the staleness monitor
    /// sets on the same advance.
    pub(super) fn refresh_forecast_gauges(&self) {
        let fc = self.forecast();
        let reg = self.metrics();
        reg.gauge("forecast.live")
            .set(gauge_i64(fc.horizon.total()));
        reg.gauge("forecast.expiring")
            .set(gauge_i64(fc.horizon.expiring()));
        reg.gauge("forecast.eternal")
            .set(gauge_i64(fc.horizon.eternal()));
        reg.gauge("forecast.due_64")
            .set(gauge_i64(fc.horizon.due_within(64)));
        reg.gauge("forecast.storm_buckets")
            .set(gauge_i64(fc.storms.len() as u64));
        for (name, f) in &fc.tables {
            reg.gauge(&format!("storage.{name}.forecast_expiring"))
                .set(gauge_i64(f.expiring()));
        }
        for s in &fc.storms {
            self.obs
                .emit_with(Some(fc.now), || EventKind::StormWarning {
                    lo: s.lo,
                    hi: s.hi,
                    predicted: s.predicted,
                    threshold: fc.threshold,
                    at: fc.now,
                });
        }
    }
}
