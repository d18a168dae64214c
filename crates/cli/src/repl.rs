//! The REPL engine: line-in, text-out, fully testable without a
//! terminal.
//!
//! SQL statements end with `;` and may span lines. Backslash meta
//! commands control the simulation clock and inspect engine state —
//! time does not pass unless you make it (`\tick`), which is what makes
//! expiration behaviour easy to explore interactively.

use crate::render::render_relation;
use exptime_core::rewrite;
use exptime_core::time::Time;
use exptime_engine::{Database, DbConfig, ExecResult, SharedDatabase};
use exptime_net::NetServer;
use exptime_obs::{
    expose_json, expose_prometheus, fold_spans, render_flame, render_span_tree, RingSink,
    SPAN_RING_CAP,
};
use exptime_sql::plan_query;
use std::sync::Arc;

/// Events kept for `\events` (a bounded ring; older ones are dropped).
const EVENT_RING_CAP: usize = 512;

/// The REPL state: a database plus a pending (incomplete) statement
/// buffer.
///
/// The database sits behind a [`SharedDatabase`] handle so the shell can
/// coexist with background consumers of the same engine — most notably
/// the `--serve-obs` telemetry scrape server, which snapshots health and
/// forecasts from another thread between statements.
pub struct Repl {
    db: SharedDatabase,
    pending: String,
    /// Recent engine events, fed by the database's observability stream.
    events: Arc<RingSink>,
    /// The wire-protocol server, when started with `--serve` (for
    /// `\net status`).
    net: Option<Arc<NetServer>>,
}

impl std::fmt::Debug for Repl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repl")
            .field("db", &self.db)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

/// The outcome of feeding one line.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Text to print.
    Text(String),
    /// The statement is incomplete; the prompt should show continuation.
    Continue,
    /// Enter watch mode: the driver should re-render [`Repl::dashboard`]
    /// every this-many seconds until the user presses Enter.
    Watch(u64),
    /// The user asked to quit.
    Quit,
}

const HELP: &str = "\
SQL (end statements with `;`):
  CREATE TABLE t (a INT, b TEXT);   DROP TABLE t;
  INSERT INTO t VALUES (1, 'x') EXPIRES AT 10 | EXPIRES IN 5 TICKS | EXPIRES NEVER;
  UPDATE t SET EXPIRES IN 30 TICKS WHERE a = 1;
  DELETE FROM t WHERE a = 1;
  SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 1;
  SELECT a FROM t EXCEPT SELECT a FROM s;
  CREATE [MATERIALIZED] VIEW v AS SELECT ...;

Meta commands:
  \\help           this text
  \\now            show the logical clock
  \\tick N         advance the clock N ticks (processes expirations)
  \\goto T         advance the clock to absolute time T
  \\vacuum         physically remove expired rows now (lazy mode)
  \\tables         list tables with row counts
  \\views          list views with maintenance stats
  \\triggers       show the expiration-event log
  \\stats          engine statistics
  \\metrics [prom|json]
                  dump every counter/gauge/histogram in the registry
                  (`prom` = Prometheus text format, `json` = JSON)
  \\health         staleness/SLO snapshot: per-view time-to-expiration,
                  trigger-lateness and refresh-latency percentiles
  \\forecast       expiration-horizon forecast: predicted expirations per
                  log2 time bucket, per-table load, view refresh
                  deadlines, and storm warnings
  \\profile        statements, wall time, rows scanned/copied since open
                  (view builds included: not per statement), sampled
                  operator costs, and a self-time flame of the span ring
  \\events [N]     show the last N engine events (default 20)
  \\spans [N]      show the last N tracing spans as a call tree (default 20)
  \\watch [SECS]   live dashboard (stats + health), re-rendered every
                  SECS seconds (default 2); press Enter to stop
  \\plan SELECT …  show the algebra plan, its rewrite, and monotonicity
  \\lint STMT      static expiration-soundness diagnostics for a SELECT or
                  CREATE [MATERIALIZED] VIEW, with carets into the source
                  (also available as SQL: EXPLAIN LINT SELECT …;)
  \\audit          whole-database staleness audit: provable worst-case
                  staleness bound per table, view, and serving endpoint,
                  plus cross-layer diagnostics (X005, W103-W105); arms
                  the SLO monitor's `staleness_bound` gauges
                  (also available as SQL: EXPLAIN AUDIT;)
  \\explain analyze SELECT …
                  run the query and profile it per operator
                  (rows in/out, expired-filtered, elapsed, view decisions)
  \\telemetry status
                  telemetry sampler status: cadence, retention, samples
                  taken, and live `_telemetry.*` history row counts
  \\policy status  per-table TTL policies with live sliding-touch and
                  clamp counts
  \\wal status     WAL status: log size, group commit, checkpoint cadence,
                  degraded flag, and what recovery did at open
  \\net status     wire-protocol server status: address, connections,
                  sessions, queue depth, shed/degraded counters
                  (start the server with --serve ADDR)
  \\checkpoint     snapshot live rows + views and truncate the WAL
  \\save FILE      dump the database (tables, rows, views, clock) as SQL
  \\load FILE      replace the database with a previously saved dump
                  (refused under --wal: it would detach the log)
  \\demo           load the paper's Figure 1 database (tables pol, el)
  \\chaos [SEED]   replica chaos demo: sync a view over a faulty link
                  (drops, duplicates, delays, partitions), then heal and
                  reconcile via anti-entropy; prints the fault schedule
  \\quit           exit
";

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

impl Repl {
    /// A REPL over a fresh database.
    #[must_use]
    pub fn new() -> Self {
        Repl::with_database(Database::new(DbConfig::default()))
    }

    /// A REPL over an existing database — e.g. a durable one opened with
    /// [`Database::open`], so the shell serves WAL-recovered state.
    #[must_use]
    pub fn with_database(db: Database) -> Self {
        Repl::with_shared(SharedDatabase::from_database(db))
    }

    /// A REPL over a shared handle, when other threads (a telemetry
    /// server, a ticker) hold clones of the same database.
    #[must_use]
    pub fn with_shared(db: SharedDatabase) -> Self {
        let events = db.with(|d| {
            // Interactive sessions always trace: spans are bounded (a
            // ring) and the whole point of the shell is to watch the
            // engine work.
            d.tracer().enable();
            d.obs().install_ring(EVENT_RING_CAP)
        });
        Repl {
            db,
            pending: String::new(),
            events,
            net: None,
        }
    }

    /// Attaches a running wire-protocol server so `\net status` can
    /// report on it.
    pub fn attach_net(&mut self, server: Arc<NetServer>) {
        self.net = Some(server);
    }

    /// A clone of the shared handle (for servers, tickers, tests).
    #[must_use]
    pub fn shared(&self) -> SharedDatabase {
        self.db.clone()
    }

    /// The prompt to display, reflecting clock and continuation state.
    #[must_use]
    pub fn prompt(&self) -> String {
        if self.pending.trim().is_empty() {
            format!("exptime[t={}]> ", self.db.now())
        } else {
            "        ...> ".to_string()
        }
    }

    /// Feeds one input line.
    pub fn feed(&mut self, line: &str) -> Outcome {
        let trimmed = line.trim();
        if self.pending.trim().is_empty() && trimmed.starts_with('\\') {
            return self.meta(trimmed);
        }
        if trimmed.is_empty() && self.pending.trim().is_empty() {
            return Outcome::Text(String::new());
        }
        self.pending.push_str(line);
        self.pending.push('\n');
        if !trimmed.ends_with(';') {
            return Outcome::Continue;
        }
        let sql = std::mem::take(&mut self.pending);
        self.run_sql(&sql)
    }

    fn run_sql(&mut self, sql: &str) -> Outcome {
        let db = self.db.clone();
        db.with(|db| self.run_sql_in(db, sql))
    }

    fn run_sql_in(&mut self, db: &mut Database, sql: &str) -> Outcome {
        // `EXPLAIN LINT <stmt>;` runs the static analyzer instead of the
        // statement. Handled here (not in the parser) because it renders
        // against the statement's own source text.
        let stripped = sql.trim().trim_end_matches(';').trim();
        let is_explain_lint = stripped
            .get(..12)
            .is_some_and(|p| p.eq_ignore_ascii_case("explain lint"))
            && stripped
                .as_bytes()
                .get(12)
                .is_none_or(u8::is_ascii_whitespace);
        if is_explain_lint {
            return match db.explain_lint(stripped[12..].trim()) {
                Ok(out) => Outcome::Text(out),
                Err(e) => Outcome::Text(format!("error: {e}\n")),
            };
        }
        match db.execute_script(sql) {
            Ok(ExecResult::Rows(rel)) => Outcome::Text(render_relation(&rel, db.now())),
            Ok(ExecResult::Affected(n)) => Outcome::Text(format!("{n} row(s) affected\n")),
            Ok(ExecResult::Ok(msg)) => Outcome::Text(format!("{msg}\n")),
            Err(e) => Outcome::Text(format!("error: {e}\n")),
        }
    }

    fn meta(&mut self, cmd: &str) -> Outcome {
        let db = self.db.clone();
        db.with(|db| self.meta_in(db, cmd))
    }

    /// The meta dispatch proper, run under the database lock. Helpers
    /// called from here take `db` directly — the mutex is not reentrant.
    fn meta_in(&mut self, db: &mut Database, cmd: &str) -> Outcome {
        let mut parts = cmd.splitn(2, char::is_whitespace);
        let head = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match head {
            "\\help" | "\\h" | "\\?" => Outcome::Text(HELP.to_string()),
            "\\quit" | "\\q" | "\\exit" => Outcome::Quit,
            "\\now" => Outcome::Text(format!("t = {}\n", db.now())),
            "\\tick" => match arg.parse::<u64>() {
                Ok(n) => {
                    let before = db.stats().expired;
                    let now = db.tick(n);
                    let fired = db.stats().expired - before;
                    Outcome::Text(format!("t = {now} ({fired} expiration(s) processed)\n"))
                }
                Err(_) => Outcome::Text("usage: \\tick N\n".into()),
            },
            "\\goto" => match arg.parse::<u64>() {
                Ok(t) if Time::new(t) >= db.now() => {
                    db.advance_to(Time::new(t));
                    Outcome::Text(format!("t = {}\n", db.now()))
                }
                _ => Outcome::Text("usage: \\goto T   (T ≥ current time)\n".into()),
            },
            "\\vacuum" => {
                let before = db.stats().expired;
                db.vacuum();
                Outcome::Text(format!(
                    "vacuumed ({} row(s) removed)\n",
                    db.stats().expired - before
                ))
            }
            "\\tables" => {
                let mut out = String::new();
                // One status row per table: the names, without copying rows.
                let tables = db.policy_status();
                if tables.is_empty() {
                    out.push_str("(no tables)\n");
                }
                for status in tables {
                    let t = db.table(&status.table).expect("listed");
                    out.push_str(&format!(
                        "{}{:?}: {} live / {} stored\n",
                        status.table,
                        t.schema(),
                        status.live_rows,
                        t.len()
                    ));
                }
                Outcome::Text(out)
            }
            "\\views" => {
                let mut out = String::new();
                let mut any = false;
                for name in db.view_names() {
                    any = true;
                    match db.view_stats(&name) {
                        Ok(s) => out.push_str(&format!(
                            "{name} (materialised): {} reads, {} local, {} recomputations\n",
                            s.reads, s.local_reads, s.recomputations
                        )),
                        Err(_) => out.push_str(&format!("{name} (virtual)\n")),
                    }
                }
                if !any {
                    out.push_str("(no views)\n");
                }
                Outcome::Text(out)
            }
            "\\triggers" => {
                let log = db.triggers().log();
                if log.is_empty() {
                    return Outcome::Text("(no expirations yet)\n".into());
                }
                let mut out = String::new();
                for e in log {
                    out.push_str(&format!(
                        "t={}: {} expired from {} (fired at {})\n",
                        e.texp, e.tuple, e.table, e.fired_at
                    ));
                }
                Outcome::Text(out)
            }
            "\\stats" => {
                let s = db.stats();
                Outcome::Text(format!(
                    "inserts: {}  deletes: {}  expired: {}  queries: {}  vacuums: {}\n",
                    s.inserts, s.deletes, s.expired, s.queries, s.vacuums
                ))
            }
            "\\metrics" => {
                let reg = db.metrics();
                match arg {
                    "prom" | "prometheus" => return Outcome::Text(expose_prometheus(reg)),
                    "json" => return Outcome::Text(format!("{}\n", expose_json(reg))),
                    "" => {}
                    _ => return Outcome::Text("usage: \\metrics [prom|json]\n".into()),
                }
                let mut out = String::new();
                for (name, v) in reg.counters() {
                    out.push_str(&format!("{name} = {v}\n"));
                }
                for (name, v) in reg.gauges() {
                    out.push_str(&format!("{name} = {v}\n"));
                }
                for (name, h) in reg.histograms() {
                    out.push_str(&format!(
                        "{name}: count={} mean={:.0}ns p50={:.0}ns p99={:.0}ns\n",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p99()
                    ));
                }
                if out.is_empty() {
                    out.push_str("(no metrics)\n");
                }
                Outcome::Text(out)
            }
            "\\health" => Outcome::Text(format!("{}", db.health())),
            "\\forecast" => {
                if !arg.is_empty() {
                    return Outcome::Text("usage: \\forecast\n".into());
                }
                Outcome::Text(db.forecast().render(40))
            }
            "\\profile" => {
                if !arg.is_empty() {
                    return Outcome::Text("usage: \\profile\n".into());
                }
                let (s, p) = (db.stats(), db.profile_stats());
                let (n, sampled, wall, table) = (s.queries, p.sampled, s.query_ns, p.render());
                let (scanned, copied) = (s.rows_scanned, s.rows_copied);
                let mut out = format!("statements={n} sampled={sampled} wall={wall}ns\n");
                out += &format!("rows_scanned={scanned} rows_copied={copied}\n{table}");
                let spans = db.tracer().recent(SPAN_RING_CAP);
                if !spans.is_empty() {
                    out.push_str("\nflame (self-time per stack):\n");
                    out.push_str(&render_flame(&fold_spans(&spans), 32));
                }
                Outcome::Text(out)
            }
            "\\spans" => {
                let n = if arg.is_empty() {
                    20
                } else {
                    match arg.parse::<usize>() {
                        Ok(n) => n,
                        Err(_) => return Outcome::Text("usage: \\spans [N]\n".into()),
                    }
                };
                let spans = db.tracer().recent(n);
                if spans.is_empty() {
                    return Outcome::Text("(no spans yet)\n".into());
                }
                let mut out = render_span_tree(&spans);
                let dropped = db.tracer().dropped();
                if dropped > 0 {
                    out.push_str(&format!(
                        "({dropped} older span(s) dropped from the ring)\n"
                    ));
                }
                Outcome::Text(out)
            }
            "\\watch" => {
                if arg.is_empty() {
                    return Outcome::Watch(2);
                }
                match arg.parse::<u64>() {
                    Ok(secs) if secs > 0 => Outcome::Watch(secs),
                    _ => Outcome::Text("usage: \\watch [SECS]   (SECS ≥ 1)\n".into()),
                }
            }
            "\\events" => {
                let n = if arg.is_empty() {
                    20
                } else {
                    match arg.parse::<usize>() {
                        Ok(n) => n,
                        Err(_) => return Outcome::Text("usage: \\events [N]\n".into()),
                    }
                };
                let events = self.events.recent(n);
                if events.is_empty() {
                    return Outcome::Text("(no events yet)\n".into());
                }
                let mut out = String::new();
                for e in events {
                    out.push_str(&format!("{e}\n"));
                }
                if self.events.dropped() > 0 {
                    out.push_str(&format!(
                        "({} older event(s) dropped from the ring)\n",
                        self.events.dropped()
                    ));
                }
                Outcome::Text(out)
            }
            "\\audit" => Outcome::Text(db.audit().render()),
            "\\lint" => {
                if arg.is_empty() {
                    return Outcome::Text(
                        "usage: \\lint SELECT … | \\lint CREATE [MATERIALIZED] VIEW …\n".into(),
                    );
                }
                let stmt = arg.trim_end_matches(';').trim();
                match db.explain_lint(stmt) {
                    Ok(out) => Outcome::Text(out),
                    Err(e) => Outcome::Text(format!("error: {e}\n")),
                }
            }
            "\\explain" => {
                let Some(rest) = arg
                    .strip_prefix("analyze")
                    .or_else(|| arg.strip_prefix("ANALYZE"))
                else {
                    return Outcome::Text("usage: \\explain analyze SELECT …\n".into());
                };
                match db.explain_analyze(rest.trim()) {
                    Ok(explain) => Outcome::Text(format!("{explain}\n")),
                    Err(e) => Outcome::Text(format!("error: {e}\n")),
                }
            }
            "\\telemetry" => {
                if arg != "status" {
                    return Outcome::Text("usage: \\telemetry status\n".into());
                }
                Outcome::Text(format!("{}\n", db.telemetry_status()))
            }
            "\\net" => {
                if arg != "status" {
                    return Outcome::Text("usage: \\net status\n".into());
                }
                match &self.net {
                    Some(server) => Outcome::Text(format!("{}\n", server.status())),
                    None => Outcome::Text(
                        "no wire-protocol server running (start with --serve ADDR)\n".into(),
                    ),
                }
            }
            "\\policy" => {
                if !(arg.is_empty() || arg == "status") {
                    return Outcome::Text("usage: \\policy status\n".into());
                }
                let statuses = db.policy_status();
                if statuses.is_empty() {
                    return Outcome::Text("no tables\n".into());
                }
                let width = statuses
                    .iter()
                    .map(|s| s.table.len())
                    .max()
                    .unwrap_or(5)
                    .max(5);
                let mut out = format!(
                    "{:<width$}  {:>8}  {:>8}  {:>9}  policy\n",
                    "table", "touches", "clamped", "live_rows"
                );
                for s in &statuses {
                    out.push_str(&format!(
                        "{:<width$}  {:>8}  {:>8}  {:>9}  {}\n",
                        s.table, s.sliding_touches, s.clamped, s.live_rows, s.policy
                    ));
                }
                Outcome::Text(out)
            }
            "\\wal" => {
                if arg != "status" {
                    return Outcome::Text("usage: \\wal status\n".into());
                }
                let Some(s) = db.wal_status() else {
                    return Outcome::Text("no WAL attached (volatile database)\n".into());
                };
                let mut out = format!(
                    "log: {} bytes  group_commit: {}  checkpoint_every: {}\n",
                    s.log_bytes,
                    s.group_commit,
                    if s.checkpoint_every == 0 {
                        "manual".to_string()
                    } else {
                        format!("{} ticks", s.checkpoint_every)
                    },
                );
                out.push_str(&format!(
                    "last checkpoint: t={}  degraded: {}\n",
                    s.last_checkpoint_clock, s.degraded
                ));
                if let Some(r) = s.recovery {
                    out.push_str(&format!(
                        "recovered at open: checkpoint t={} ({} rows), replayed {}, \
                         skipped {} expired + {} uncommitted, torn tail {}B, clock t={}\n",
                        r.checkpoint_clock,
                        r.checkpoint_rows,
                        r.replayed,
                        r.skipped_expired,
                        r.skipped_uncommitted,
                        r.torn_bytes,
                        r.clock
                    ));
                }
                Outcome::Text(out)
            }
            "\\checkpoint" => match db.checkpoint() {
                Ok(c) => Outcome::Text(format!(
                    "checkpoint at t={}: {} live row(s) snapshotted ({} bytes), \
                     {} log byte(s) reclaimed\n",
                    c.at, c.live_rows, c.checkpoint_bytes, c.reclaimed_bytes
                )),
                Err(e) => Outcome::Text(format!("error: {e}\n")),
            },
            "\\plan" => self.plan(db, arg),
            "\\save" => {
                if arg.is_empty() {
                    return Outcome::Text("usage: \\save FILE\n".into());
                }
                match std::fs::write(arg, db.dump_sql()) {
                    Ok(()) => Outcome::Text(format!("saved to {arg}\n")),
                    Err(e) => Outcome::Text(format!("error: {e}\n")),
                }
            }
            "\\load" => {
                if arg.is_empty() {
                    return Outcome::Text("usage: \\load FILE\n".into());
                }
                if db.wal_status().is_some() {
                    return Outcome::Text(
                        "error: \\load replaces the database, which would detach its \
                         write-ahead log (later writes would not be durable); load the \
                         dump into a shell started without --wal\n"
                            .into(),
                    );
                }
                match std::fs::read_to_string(arg) {
                    Ok(dump) => match Database::restore(&dump) {
                        Ok(restored) => {
                            // Swap in place: clones of the shared handle
                            // (telemetry server, ticker) keep working
                            // against the restored database.
                            *db = restored;
                            self.events = db.obs().install_ring(EVENT_RING_CAP);
                            db.tracer().enable();
                            Outcome::Text(format!(
                                "loaded {arg} (clock restored to t={})\n",
                                db.now()
                            ))
                        }
                        Err(e) => Outcome::Text(format!("error: {e}\n")),
                    },
                    Err(e) => Outcome::Text(format!("error: {e}\n")),
                }
            }
            "\\demo" => {
                let script = "CREATE TABLE pol (uid INT, deg INT);
                    CREATE TABLE el (uid INT, deg INT);
                    INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
                    INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
                    INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
                    INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
                    INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
                    INSERT INTO el VALUES (4, 90) EXPIRES AT 2;";
                match db.execute_script(script) {
                    Ok(_) => Outcome::Text(
                        "loaded the paper's Figure 1 database (tables: pol, el)\n\
                         try: SELECT * FROM pol JOIN el ON pol.uid = el.uid;  then \\tick 3\n"
                            .into(),
                    ),
                    Err(e) => Outcome::Text(format!("error: {e}\n")),
                }
            }
            "\\chaos" => {
                let seed = if arg.is_empty() {
                    7
                } else {
                    match arg.parse::<u64>() {
                        Ok(s) => s,
                        Err(_) => return Outcome::Text("usage: \\chaos [SEED]\n".into()),
                    }
                };
                Outcome::Text(chaos_demo(seed))
            }
            other => Outcome::Text(format!("unknown command `{other}`; try \\help\n")),
        }
    }

    /// One frame of the `\watch` dashboard: clock, core stats, the
    /// staleness/SLO health snapshot, and the tail of the event stream.
    #[must_use]
    pub fn dashboard(&mut self) -> String {
        let db = self.db.clone();
        db.with(|db| self.dashboard_in(db))
    }

    fn dashboard_in(&mut self, db: &mut Database) -> String {
        let s = db.stats();
        let mut out = format!("exptime — t = {}\n\n", db.now());
        out.push_str(&format!(
            "inserts: {}  deletes: {}  expired: {}  queries: {}  vacuums: {}\n\n",
            s.inserts, s.deletes, s.expired, s.queries, s.vacuums
        ));
        out.push_str(&format!("{}", db.health()));
        let events = self.events.recent(5);
        if !events.is_empty() {
            out.push_str("\nrecent events:\n");
            for e in events {
                out.push_str(&format!("  {e}\n"));
            }
        }
        out
    }

    fn plan(&mut self, db: &mut Database, sql: &str) -> Outcome {
        let stmt = match exptime_sql::parse(sql) {
            Ok(s) => s,
            Err(e) => return Outcome::Text(format!("error: {e}\n")),
        };
        let exptime_sql::Statement::Select(query) = stmt else {
            return Outcome::Text("\\plan takes a SELECT statement\n".into());
        };
        let expr = match plan_query(&query, &*db) {
            Ok(e) => e,
            Err(e) => return Outcome::Text(format!("error: {e}\n")),
        };
        let inlined = db.inline_views(&expr);
        let rewritten = rewrite::rewrite(&inlined);
        let mut out = format!(
            "plan:      {inlined}\nmonotonic: {} ({})\n",
            inlined.is_monotonic(),
            if inlined.is_monotonic() {
                "materialisations stay valid forever — Theorem 1"
            } else {
                "materialisations carry a finite texp(e)"
            }
        );
        if rewritten != inlined {
            out.push_str(&format!("rewritten: {rewritten}\n"));
        }
        if rewrite::is_root_patchable(&rewritten) {
            out.push_str("           (difference at root: Theorem 3 patching applies)\n");
        }
        match db.query_expr(&inlined) {
            Ok(m) => {
                out.push_str(&format!("texp(e):   {}\n", m.texp));
                out.push_str(&format!("validity:  {}\n", m.validity));
            }
            Err(e) => out.push_str(&format!("(not evaluable: {e})\n")),
        }
        Outcome::Text(out)
    }
}

/// The `\chaos` demo: a self-contained run of the replica
/// against the paper's Figure 1 data over a faulty link, ending with an
/// anti-entropy reconciliation. Everything is derived from the seed, so
/// the same `\chaos N` always prints the same story.
fn chaos_demo(seed: u64) -> String {
    use exptime_core::algebra::Expr;
    use exptime_replica::{FaultSpec, ReadOutcome, Replica, RetryPolicy};

    let mut srv = Database::new(DbConfig::default());
    if let Err(e) = srv.execute_script(
        "CREATE TABLE pol (uid INT, deg INT);
         CREATE TABLE el (uid INT, deg INT);
         INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
         INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
         INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
         INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
         INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
         INSERT INTO el VALUES (4, 90) EXPIRES AT 2;",
    ) {
        return format!("error: {e}\n");
    }
    let expr = Expr::base("pol")
        .project([0])
        .difference(Expr::base("el").project([0]));

    let mut rep = Replica::with_faults(FaultSpec::chaos(seed), RetryPolicy::default());
    let mut out = format!(
        "chaos demo (seed {seed}): replica of `pol EXCEPT el` over a faulty link\n\
         faults: 15% loss, 10% dup, 10% reorder, 15% delay(≤3), 5%/tick partition(2–5)\n\n"
    );
    if let Err(e) = rep.subscribe("others", expr, &srv) {
        return format!("error: {e}\n");
    }
    for _ in 0..16 {
        srv.tick(1);
        match rep.read("others", &srv) {
            Ok((rel, outcome)) => {
                let what = match outcome {
                    ReadOutcome::Local => "local  (fresh, zero traffic)".to_string(),
                    ReadOutcome::Refreshed => "synced (refresh round trip completed)".to_string(),
                    ReadOutcome::Stale(back) => {
                        format!("stale  (degraded: serving state as of t={back})")
                    }
                };
                let rows: Vec<String> = rel.iter().map(|(t, _)| format!("{t}")).collect();
                out.push_str(&format!(
                    "t={:<3} {:<42} rows: {}\n",
                    srv.now(),
                    what,
                    rows.join(" ")
                ));
            }
            Err(e) => out.push_str(&format!("t={:<3} error: {e}\n", srv.now())),
        }
    }

    out.push_str("\n-- healing the link and reconciling (anti-entropy digests) --\n");
    rep.link().heal();
    if let Err(e) = rep.reconcile(&srv) {
        return format!("error: {e}\n");
    }
    for _ in 0..8 {
        if rep.quiesced() {
            break;
        }
        srv.tick(1);
        let _ = rep.pump(&srv);
    }
    let s = rep.link_stats();
    let ss = rep.session_stats();
    out.push_str(&format!(
        "\nlink:     {} crossed ({} first, {} retries), {} refused, {} tuples moved\n",
        s.total_messages(),
        s.first_transmissions(),
        s.retransmissions,
        s.refused,
        s.tuples_transferred,
    ));
    out.push_str(&format!(
        "sessions: {} started, {} completed, {} timed out, {} retries, {} dups ignored\n",
        ss.sessions_started,
        ss.sessions_completed,
        ss.sessions_timed_out,
        ss.retries,
        ss.duplicates_ignored,
    ));
    out.push_str(&format!(
        "resync:   {} reconciliation(s), {} divergent tuple(s) repaired\n\n",
        ss.reconciliations, ss.divergent_tuples,
    ));
    out.push_str(&rep.link().schedule_report());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(o: Outcome) -> String {
        match o {
            Outcome::Text(s) => s,
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn sql_roundtrip_through_repl() {
        let mut r = Repl::new();
        assert!(text(r.feed("CREATE TABLE t (a INT);")).contains("created"));
        assert!(text(r.feed("INSERT INTO t VALUES (1), (2) EXPIRES AT 5;")).contains("2 row"));
        let out = text(r.feed("SELECT * FROM t;"));
        assert!(out.contains("a") && out.contains("texp") && out.contains("2 rows"));
        assert!(text(r.feed("\\tick 5")).contains("2 expiration(s)"));
        assert!(text(r.feed("SELECT * FROM t;")).contains("0 rows"));
    }

    #[test]
    fn lint_meta_command_and_explain_lint() {
        let mut r = Repl::new();
        assert!(text(r.feed("CREATE TABLE pol (uid INT, deg INT);")).contains("created"));
        assert!(text(r.feed("CREATE TABLE el (uid INT, deg INT);")).contains("created"));
        // Monotonic workload: clean.
        let out = text(r.feed("\\lint SELECT uid FROM pol WHERE deg >= 25"));
        assert!(out.contains("expiration-sound"), "{out}");
        // Materialised difference: X002 with a caret under EXCEPT.
        let out = text(r.feed("\\lint SELECT uid FROM pol EXCEPT SELECT uid FROM el;"));
        assert!(out.contains("X002 [error]"), "{out}");
        assert!(out.contains("^^^^^^"), "{out}");
        // The same analyzer behind the SQL spelling, case-insensitive.
        let out = text(r.feed("explain lint SELECT deg, COUNT(*) FROM pol GROUP BY deg;"));
        assert!(out.contains("X001"), "{out}");
        assert!(out.contains("X003"), "{out}");
        // Usage and error paths.
        assert!(text(r.feed("\\lint")).contains("usage"));
        assert!(text(r.feed("\\lint INSERT INTO pol VALUES (1, 2);")).contains("error"));
        assert!(text(r.feed("\\help")).contains("\\lint"));
    }

    #[test]
    fn audit_meta_command_and_explain_audit() {
        let mut r = Repl::new();
        assert!(
            text(r.feed("CREATE TABLE sessions (sid INT, uid INT) TTL 30 SLIDING ON ACCESS;"))
                .contains("created")
        );
        assert!(text(r.feed(
            "CREATE MATERIALIZED VIEW per_user AS \
             SELECT uid, COUNT(*) FROM sessions GROUP BY uid;"
        ))
        .contains("created"));
        let out = text(r.feed("\\audit"));
        assert!(out.contains("exptime audit @ t=0"), "{out}");
        assert!(
            out.contains("per_user (materialized): staleness <= 30 ticks (declared)"),
            "{out}"
        );
        // The SQL spelling goes through the ordinary statement path and
        // renders the same report.
        let sql = text(r.feed("EXPLAIN AUDIT;"));
        assert_eq!(sql.trim_end(), out.trim_end());
        assert!(text(r.feed("\\help")).contains("\\audit"));
    }

    #[test]
    fn multiline_statements_continue() {
        let mut r = Repl::new();
        assert_eq!(r.feed("CREATE TABLE t"), Outcome::Continue);
        assert!(r.prompt().contains("..."));
        assert!(text(r.feed("(a INT);")).contains("created"));
        assert!(r.prompt().contains("t=0"));
    }

    #[test]
    fn meta_commands() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\help")).contains("EXPIRES"));
        assert!(text(r.feed("\\now")).contains("t = 0"));
        assert!(text(r.feed("\\tables")).contains("no tables"));
        assert!(text(r.feed("\\views")).contains("no views"));
        assert!(text(r.feed("\\stats")).contains("inserts: 0"));
        assert!(text(r.feed("\\triggers")).contains("no expirations"));
        assert!(text(r.feed("\\bogus")).contains("unknown command"));
        assert!(text(r.feed("\\tick nope")).contains("usage"));
        assert_eq!(r.feed("\\quit"), Outcome::Quit);
    }

    #[test]
    fn policy_status_command() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\policy status")).contains("no tables"));
        text(r.feed("CREATE TABLE s (sid INT) TTL 30 SLIDING ON ACCESS CLAMP 5..40;"));
        text(r.feed("CREATE TABLE plain (a INT);"));
        text(r.feed("INSERT INTO s VALUES (1);"));
        text(r.feed("\\tick 3"));
        text(r.feed("SELECT * FROM s;")); // ordinary read slides the row
        let out = text(r.feed("\\policy status"));
        assert!(
            out.contains("TTL 30 SLIDING ON ACCESS CLAMP 5..40"),
            "{out}"
        );
        assert!(out.contains("absolute"), "{out}"); // the policy-less table
        let row = out.lines().find(|l| l.starts_with("s ")).unwrap();
        assert!(row.contains(" 1 "), "touch count missing: {row}");
        assert!(text(r.feed("\\policy bogus")).contains("usage"));
    }

    #[test]
    fn demo_and_clock_flow() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\demo")).contains("Figure 1"));
        let out = text(r.feed("SELECT * FROM pol JOIN el ON pol.uid = el.uid;"));
        assert!(out.contains("2 rows"), "{out}");
        text(r.feed("\\tick 3"));
        let out = text(r.feed("SELECT * FROM pol JOIN el ON pol.uid = el.uid;"));
        assert!(out.contains("1 row\n"), "{out}");
        assert!(text(r.feed("\\goto 10")).contains("t = 10"));
        assert!(text(r.feed("\\goto 5")).contains("usage"));
        let log = text(r.feed("\\triggers"));
        assert!(log.contains("expired from"), "{log}");
    }

    #[test]
    fn chaos_demo_is_deterministic_and_reports_the_schedule() {
        let mut r = Repl::new();
        let out = text(r.feed("\\chaos 7"));
        assert!(out.contains("chaos demo (seed 7)"), "{out}");
        assert!(out.contains("fault schedule (seed=7"), "{out}");
        assert!(out.contains("reconciliation"), "{out}");
        assert!(out.contains("link:"), "{out}");
        // Replayable: the same seed prints the same story.
        let mut r2 = Repl::new();
        assert_eq!(out, text(r2.feed("\\chaos 7")));
        // A different seed tells a different one.
        let mut r3 = Repl::new();
        assert_ne!(out, text(r3.feed("\\chaos 8")));
        assert!(text(r.feed("\\chaos nope")).contains("usage"));
    }

    #[test]
    fn plan_explains_monotonicity_and_texp() {
        let mut r = Repl::new();
        text(r.feed("\\demo"));
        let out = text(r.feed("\\plan SELECT uid FROM pol"));
        assert!(out.contains("monotonic: true"), "{out}");
        assert!(out.contains("texp(e):   ∞"), "{out}");
        let out = text(r.feed("\\plan SELECT uid FROM pol EXCEPT SELECT uid FROM el"));
        assert!(out.contains("monotonic: false"), "{out}");
        assert!(out.contains("texp(e):   3"), "{out}");
        assert!(out.contains("Theorem 3"), "{out}");
        assert!(text(r.feed("\\plan nonsense")).contains("error"));
        assert!(text(r.feed("\\plan DELETE FROM pol")).contains("takes a SELECT"));
    }

    #[test]
    fn views_listing_reflects_kinds() {
        let mut r = Repl::new();
        text(r.feed("\\demo"));
        text(r.feed("CREATE MATERIALIZED VIEW m AS SELECT uid FROM pol;"));
        text(r.feed("CREATE VIEW v AS SELECT uid FROM el;"));
        let out = text(r.feed("\\views"));
        assert!(out.contains("m (materialised)"), "{out}");
        assert!(out.contains("v (virtual)"), "{out}");
    }

    #[test]
    fn metrics_and_events_commands() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\events")).contains("no events"));
        text(r.feed("\\demo"));
        text(r.feed("\\tick 3"));
        let m = text(r.feed("\\metrics"));
        assert!(m.contains("db.inserts = 6"), "{m}");
        assert!(m.contains("storage.pol.inserts = 3"), "{m}");
        assert!(m.contains("db.insert_ns: count=6"), "{m}");
        let ev = text(r.feed("\\events"));
        assert!(ev.contains("clock_advance"), "{ev}");
        assert!(ev.contains("trigger_fired"), "{ev}");
        assert!(ev.contains("tuple_expired"), "{ev}");
        // Bounded listing and usage errors.
        let one = text(r.feed("\\events 1"));
        assert_eq!(one.lines().count(), 1, "{one}");
        assert!(text(r.feed("\\events nope")).contains("usage"));
    }

    #[test]
    fn health_spans_and_watch_commands() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\spans")).contains("no spans"));
        text(r.feed("\\demo"));
        text(r.feed("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25;"));
        text(r.feed("SELECT * FROM hot;"));
        text(r.feed("\\tick 3"));
        let h = text(r.feed("\\health"));
        assert!(h.contains("status: ok"), "{h}");
        assert!(h.contains("hot"), "{h}");
        assert!(h.contains("ttx=∞ (eternal)"), "{h}");
        let sp = text(r.feed("\\spans 50"));
        assert!(sp.contains("sql"), "{sp}");
        assert!(sp.contains("clock.advance"), "{sp}");
        assert!(text(r.feed("\\spans nope")).contains("usage"));
        assert_eq!(r.feed("\\watch"), Outcome::Watch(2));
        assert_eq!(r.feed("\\watch 5"), Outcome::Watch(5));
        assert!(text(r.feed("\\watch 0")).contains("usage"));
        assert!(text(r.feed("\\watch nope")).contains("usage"));
        let dash = r.dashboard();
        assert!(dash.contains("exptime — t = 3"), "{dash}");
        assert!(dash.contains("status:"), "{dash}");
        assert!(dash.contains("recent events:"), "{dash}");
    }

    #[test]
    fn forecast_command_shows_horizon_views_and_storms() {
        let mut r = Repl::new();
        let out = text(r.feed("\\forecast"));
        assert!(out.contains("0 expiring, 0 eternal (0 live)"), "{out}");
        text(r.feed("\\demo"));
        text(r.feed(
            "CREATE MATERIALIZED VIEW others AS SELECT uid FROM pol EXCEPT SELECT uid FROM el;",
        ));
        text(r.feed("SELECT * FROM others;"));
        let out = text(r.feed("\\forecast"));
        assert!(out.contains("horizon at t=0: 6 expiring"), "{out}");
        assert!(out.contains("table pol: 3 expiring, 0 eternal"), "{out}");
        assert!(out.contains("table el: 3 expiring, 0 eternal"), "{out}");
        assert!(out.contains("view others: refresh due in"), "{out}");
        assert!(text(r.feed("\\forecast nope")).contains("usage"));
        assert!(text(r.feed("\\help")).contains("\\forecast"));
    }

    #[test]
    fn profile_command_rolls_up_statements_and_spans() {
        let mut r = Repl::new();
        text(r.feed("\\demo"));
        text(r.feed("SELECT * FROM pol;"));
        text(r.feed("SELECT * FROM el;"));
        let out = text(r.feed("\\profile"));
        assert!(out.contains("statements=2 sampled=1"), "{out}");
        assert!(out.contains("rows_scanned=6 rows_copied=6"), "{out}");
        // The first statement is always sampled, so Base shows up in the
        // per-operator table; the interactive tracer feeds the flame.
        assert!(out.contains("Base"), "{out}");
        assert!(out.contains("flame (self-time per stack):"), "{out}");
        assert!(out.contains("sql"), "{out}");
        assert!(text(r.feed("\\profile nope")).contains("usage"));
        assert!(text(r.feed("\\help")).contains("\\profile"));
    }

    #[test]
    fn metrics_exposition_formats() {
        let mut r = Repl::new();
        text(r.feed("\\demo"));
        let prom = text(r.feed("\\metrics prom"));
        assert!(prom.contains("# TYPE exptime_db_inserts counter"), "{prom}");
        assert!(
            prom.contains("exptime_storage_inserts{table=\"pol\"} 3"),
            "{prom}"
        );
        let json = text(r.feed("\\metrics json"));
        assert!(json.contains("\"counters\""), "{json}");
        assert!(text(r.feed("\\metrics xml")).contains("usage"));
    }

    #[test]
    fn explain_analyze_command() {
        let mut r = Repl::new();
        text(r.feed("\\demo"));
        text(r.feed("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25;"));
        let out = text(r.feed("\\explain analyze SELECT * FROM hot"));
        assert!(out.contains("rows="), "{out}");
        assert!(out.contains("view hot: eternal (Theorem 1)"), "{out}");
        assert!(out.contains("result: 2 rows"), "{out}");
        assert!(text(r.feed("\\explain SELECT 1")).contains("usage"));
        assert!(text(r.feed("\\explain analyze DELETE FROM pol")).contains("error"));
    }

    #[test]
    fn net_status_command_with_and_without_a_server() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\net status")).contains("no wire-protocol server"));
        assert!(text(r.feed("\\net")).contains("usage"));
        assert!(text(r.feed("\\net bogus")).contains("usage"));
        assert!(text(r.feed("\\help")).contains("\\net status"));

        let server = Arc::new(
            NetServer::serve(
                &r.shared(),
                "127.0.0.1:0",
                exptime_net::NetConfig::default(),
            )
            .expect("bind"),
        );
        r.attach_net(server.clone());
        let st = text(r.feed("\\net status"));
        assert!(st.contains(&server.local_addr().to_string()), "{st}");
        assert!(st.contains("connection(s)"), "{st}");
        // Dropping the last Arc drains the server (NetServer::drop).
        drop(r);
        drop(server);
    }

    #[test]
    fn wal_commands_on_a_volatile_database() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\wal status")).contains("no WAL attached"));
        assert!(text(r.feed("\\wal")).contains("usage"));
        assert!(text(r.feed("\\wal nonsense")).contains("usage"));
        assert!(text(r.feed("\\checkpoint")).contains("error"));
        assert!(text(r.feed("\\help")).contains("\\checkpoint"));
    }

    #[test]
    fn wal_status_and_checkpoint_on_a_durable_database() {
        use exptime_engine::durability::MemStore;
        use exptime_engine::Durability;

        let config = DbConfig {
            durability: Durability::Wal {
                group_commit: 1,
                checkpoint_every: 0,
            },
            ..DbConfig::default()
        };
        let db = Database::open_with_store(Box::new(MemStore::new()), config).unwrap();
        let mut r = Repl::with_database(db);
        text(r.feed("CREATE TABLE t (a INT);"));
        text(r.feed("INSERT INTO t VALUES (1) EXPIRES AT 10;"));
        let st = text(r.feed("\\wal status"));
        assert!(st.contains("group_commit: 1"), "{st}");
        assert!(st.contains("checkpoint_every: manual"), "{st}");
        assert!(st.contains("degraded: false"), "{st}");
        assert!(st.contains("recovered at open"), "{st}");
        let ck = text(r.feed("\\checkpoint"));
        assert!(ck.contains("1 live row(s)"), "{ck}");
        // The log was just truncated by the checkpoint.
        let st = text(r.feed("\\wal status"));
        assert!(st.contains("log: 0 bytes"), "{st}");
    }

    #[test]
    fn telemetry_status_command_and_sql_queryable_history() {
        use exptime_engine::TelemetryConfig;

        // Off by default: the command says so.
        let mut r = Repl::new();
        assert!(text(r.feed("\\telemetry status")).contains("sampler: off"));
        assert!(text(r.feed("\\telemetry")).contains("usage"));
        assert!(text(r.feed("\\telemetry bogus")).contains("usage"));
        assert!(text(r.feed("\\help")).contains("\\telemetry"));

        // On: ticking takes samples, and the history is plain SQL.
        let config = DbConfig {
            telemetry: TelemetryConfig::enabled(2, 16),
            ..DbConfig::default()
        };
        let mut r = Repl::with_database(Database::new(config));
        text(r.feed("\\demo"));
        text(r.feed("\\tick 4"));
        let st = text(r.feed("\\telemetry status"));
        assert!(st.contains("sampler: on"), "{st}");
        assert!(st.contains("samples: 2 (last at t=4)"), "{st}");
        let out = text(r.feed("SELECT * FROM _telemetry.health;"));
        assert!(out.contains("2 rows"), "{out}");
        // The reserved schema rejects user writes through the shell.
        let out = text(r.feed("DROP TABLE _telemetry.metrics;"));
        assert!(out.contains("reserved"), "{out}");
    }

    #[test]
    fn errors_do_not_kill_the_repl() {
        let mut r = Repl::new();
        assert!(text(r.feed("SELECT * FROM ghosts;")).contains("error"));
        assert!(text(r.feed("CREATE TABLE t (a INT);")).contains("created"));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    fn text(o: Outcome) -> String {
        match o {
            Outcome::Text(s) => s,
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn save_and_load_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("exptime-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("dump.sql");
        let file = file.to_str().unwrap();

        let mut r = Repl::new();
        text(r.feed("\\demo"));
        text(r.feed("\\tick 4"));
        assert!(text(r.feed(&format!("\\save {file}"))).contains("saved"));

        let mut fresh = Repl::new();
        assert!(text(fresh.feed(&format!("\\load {file}"))).contains("t=4"));
        let out = text(fresh.feed("SELECT * FROM pol;"));
        assert!(out.contains("3 rows"), "{out}");
        // Expiration continues from the restored clock.
        text(fresh.feed("\\tick 11"));
        let out = text(fresh.feed("SELECT * FROM pol;"));
        assert!(out.contains("0 rows"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_on_a_durable_database_and_save_still_works() {
        use exptime_engine::durability::MemStore;
        use exptime_engine::Durability;

        let dir = std::env::temp_dir().join(format!("exptime-cli-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("dump.sql");
        let file = file.to_str().unwrap();

        let config = DbConfig {
            durability: Durability::wal(),
            ..DbConfig::default()
        };
        let db = Database::open_with_store(Box::new(MemStore::new()), config).unwrap();
        let mut r = Repl::with_database(db);
        text(r.feed("\\demo"));
        assert!(text(r.feed(&format!("\\save {file}"))).contains("saved"));
        let out = text(r.feed(&format!("\\load {file}")));
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("write-ahead log"), "{out}");
        // The log is still attached, and the database was not replaced.
        let st = text(r.feed("\\wal status"));
        assert!(st.contains("group_commit: 1"), "{st}");
        let out = text(r.feed("SELECT * FROM pol;"));
        assert!(out.contains("3 rows"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_usage_errors() {
        let mut r = Repl::new();
        assert!(text(r.feed("\\save")).contains("usage"));
        assert!(text(r.feed("\\load")).contains("usage"));
        assert!(text(r.feed("\\load /nonexistent/nope.sql")).contains("error"));
    }
}
