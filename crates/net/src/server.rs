//! The admission-controlled TCP server.
//!
//! Thread shape:
//!
//! ```text
//! acceptor ──► one thread per connection ──► in-flight bound ──► database lock ──► session lock
//!                                                 │
//!                                                 │ over the bound → degraded read
//!                                                 ▼                   or Shed
//!                                     session lock only (stale cache)
//! ```
//!
//! A connection serves its own statements: the thread that read the
//! frame executes it and writes the reply, then polls its socket for a
//! few tens of microseconds before it parks on it
//! (`FrameReader::read_msg_polling`), so a request/reply client's next
//! statement finds the thread awake. Admission is a bound on
//! statements admitted but not yet answered (`NetConfig::queue`). Past
//! it the server *sheds* instead of queueing without bound
//! ([`Msg::Shed`], carrying a retry hint) — and, for SELECTs, it first
//! tries **degraded mode**: answering from a cache of materialised
//! results whose `texp`/validity metadata proves them still correct
//! (or, failing that, Schrödinger-covered stale — see
//! [`crate::degrade`]). Overload never queues reads behind writes and
//! never turns into unbounded latency.
//!
//! Exactly-once: every statement is answered by
//! [`SessionTable::serve`] on one table under a mutex, held across
//! execute-and-record (the engine serialises statements anyway, so this
//! costs no parallelism). The database lock is taken *first*: the only
//! place a statement waits is the database mutex, and the session lock
//! is never held by a waiter — so a degraded read, a handshake or
//! [`NetServer::status`] waits for at most the one statement that is
//! executing. A retransmitted statement — same token, same sequence
//! number, on any connection — replays the cached reply without
//! touching the engine.
//!
//! Drain ([`NetServer::drain`]): stop accepting, let every connection
//! finish its in-flight statement, send `Bye`, join all threads. An
//! acked write is by construction an applied write, so drain loses
//! none.

use crate::degrade::{StaleCache, DEFAULT_STALE_CACHE_CAP};
use crate::error::ErrorCode;
use crate::frame::{write_msg, FrameReader, Msg, ReplyBody};
use crate::session::{err_body, reply_of, rows_body, time_wire, SessionTable};
use exptime_core::time::Time;
use exptime_engine::{Database, SharedDatabase};
use exptime_obs::{Counter, EventKind, Gauge, Histogram, MetricsRegistry, Obs};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Admission bound: statements admitted but not yet answered. A
    /// statement arriving past this sheds.
    pub queue: usize,
    /// In-flight count at which degraded mode engages for reads.
    pub degrade_at: usize,
    /// Per-read socket timeout; also the cadence at which connection
    /// threads notice a drain.
    pub read_timeout: Duration,
    /// Per-write socket timeout.
    pub write_timeout: Duration,
    /// The backoff hint shipped with `Shed` and retryable errors.
    pub retry_after_ms: u32,
}

/// Sweeper period for idle-session eviction.
const SWEEP_EVERY: Duration = Duration::from_secs(5);
/// Sweeps a session may stay idle before eviction.
const SESSION_IDLE_SWEEPS: u32 = 24;

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            queue: 64,
            degrade_at: 32,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(2),
            retry_after_ms: 25,
        }
    }
}

/// The `net.*` handles of the statement path, resolved once at
/// [`NetServer::serve`]: a statement updates atomics, it does not look
/// names up in the registry.
struct Metrics {
    queue_depth: Gauge,
    last_now: Gauge,
    queue_wait_ns: Histogram,
    stmt_ns: Histogram,
    stmt_executed: Since,
    stmt_replayed: Counter,
    shed: Since,
    deadline_exceeded: Since,
    degraded_served: Since,
    degraded_stale: Counter,
}

/// A registry counter that [`NetStatus`] and [`DrainReport`] also read:
/// the registry belongs to the database and outlives a server, so the
/// server reports the count since it started serving.
struct Since {
    counter: Counter,
    base: u64,
}

impl Since {
    fn new(counter: Counter) -> Self {
        let base = counter.get();
        Since { counter, base }
    }

    fn inc(&self) {
        self.counter.inc();
    }

    fn get(&self) -> u64 {
        self.counter.get() - self.base
    }
}

impl Metrics {
    fn in_registry(registry: &MetricsRegistry) -> Self {
        Metrics {
            queue_depth: registry.gauge("net.queue_depth"),
            last_now: registry.gauge("net.last_now"),
            queue_wait_ns: registry.histogram("net.queue_wait_ns"),
            stmt_ns: registry.histogram("net.stmt_ns"),
            stmt_executed: Since::new(registry.counter("net.stmt_executed")),
            stmt_replayed: registry.counter("net.stmt_replayed"),
            shed: Since::new(registry.counter("net.shed")),
            deadline_exceeded: Since::new(registry.counter("net.deadline_exceeded")),
            degraded_served: Since::new(registry.counter("net.degraded_served")),
            degraded_stale: registry.counter("net.degraded_stale"),
        }
    }
}

/// State shared by the acceptor, the connection threads, and the handle.
struct Shared {
    db: SharedDatabase,
    obs: Obs,
    metrics: Metrics,
    cfg: NetConfig,
    sessions: Mutex<SessionTable>,
    cache: Mutex<StaleCache>,
    draining: AtomicBool,
    /// Statements admitted but not yet answered.
    queue_depth: AtomicUsize,
    degraded: AtomicBool,
    connections: AtomicUsize,
}

impl Shared {
    /// Per-connection and per-drain events only; the statement path
    /// goes through [`Metrics`].
    fn counter(&self, name: &str, n: u64) {
        self.obs.registry().counter(name).add(n);
    }

    /// Flips the degraded flag when the in-flight count crosses the
    /// threshold, emitting the transition event exactly once per flip.
    fn note_queue_depth(&self, depth: usize) {
        self.metrics.queue_depth.set(depth as i64);
        let want = depth >= self.cfg.degrade_at;
        if self.degraded.swap(want, Ordering::Relaxed) != want {
            self.obs.emit_with(None, || EventKind::NetDegraded {
                on: want,
                queue_depth: depth as u64,
            });
        }
    }

    /// [`SessionTable::serve`] under the session lock, counting replays.
    fn serve(&self, token: u64, seq: u64, exec: impl FnOnce() -> ReplyBody) -> ReplyBody {
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        let replays = sessions.replays;
        let body = sessions.serve(token, seq, exec);
        self.metrics.stmt_replayed.add(sessions.replays - replays);
        body
    }
}

/// Point-in-time server state, for `\net status` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStatus {
    pub addr: String,
    pub draining: bool,
    pub connections: usize,
    pub sessions: usize,
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub degraded: bool,
    pub executed: u64,
    pub replayed: u64,
    pub shed: u64,
    pub degraded_served: u64,
    pub deadline_exceeded: u64,
}

impl std::fmt::Display for NetStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "listening: {}{}",
            self.addr,
            if self.draining { " (draining)" } else { "" }
        )?;
        writeln!(
            f,
            "load:      {} connection(s), {} session(s), in flight {}/{}{}",
            self.connections,
            self.sessions,
            self.queue_depth,
            self.queue_capacity,
            if self.degraded { " DEGRADED" } else { "" }
        )?;
        writeln!(
            f,
            "executed:  {} statement(s), {} replayed, {} deadline-expired",
            self.executed, self.replayed, self.deadline_exceeded
        )?;
        writeln!(
            f,
            "overload:  {} shed, {} served degraded (texp-valid/stale)",
            self.shed, self.degraded_served
        )
    }
}

/// What drain observed. `completed` counts statements executed over the
/// server's lifetime; every one of them was replied to before its
/// connection thread exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    pub sessions: u64,
    pub completed: u64,
    pub shed: u64,
}

/// A running server. Dropping the handle drains it.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `db`.
    ///
    /// # Errors
    ///
    /// IO errors from binding the listener.
    pub fn serve(db: &SharedDatabase, addr: &str, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let obs = db.with(|d| d.obs().clone());
        // Register the degraded-read endpoint with the engine so the
        // whole-database audit (`EXPLAIN AUDIT`) can bound what this
        // server may serve stale.
        db.with(|d| {
            d.set_serving_config(Some(exptime_engine::StaleServing {
                endpoint: "net.degraded_read".to_string(),
                degrade_at: cfg.degrade_at,
                cache_cap: DEFAULT_STALE_CACHE_CAP,
            }));
        });
        let shared = Arc::new(Shared {
            db: db.clone(),
            metrics: Metrics::in_registry(obs.registry()),
            obs,
            cfg: cfg.clone(),
            sessions: Mutex::new(SessionTable::new()),
            cache: Mutex::new(StaleCache::new()),
            draining: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || acceptor_loop(&listener, &shared))
        };
        Ok(NetServer {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time status snapshot.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock was poisoned by a panicking thread.
    #[must_use]
    pub fn status(&self) -> NetStatus {
        let s = &self.shared;
        let (sessions, replayed) = {
            let t = s.sessions.lock().expect("session table poisoned");
            (t.len(), t.replays)
        };
        NetStatus {
            addr: self.addr.to_string(),
            draining: s.draining.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::Relaxed),
            sessions,
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            queue_capacity: s.cfg.queue,
            degraded: s.degraded.load(Ordering::Relaxed),
            executed: s.metrics.stmt_executed.get(),
            replayed,
            shed: s.metrics.shed.get(),
            degraded_served: s.metrics.degraded_served.get(),
            deadline_exceeded: s.metrics.deadline_exceeded.get(),
        }
    }

    /// Graceful drain: stop accepting, finish every in-flight
    /// statement, close connections with `Bye`, join every thread. Zero
    /// acked writes are lost: a reply is only ever written after its
    /// statement's effect is applied and recorded.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn drain(mut self) -> DrainReport {
        self.drain_inner()
    }

    fn drain_inner(&mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let connections = acceptor.join().expect("acceptor panicked");
            for c in connections {
                c.join().expect("connection thread panicked");
            }
        }
        let sessions = {
            let t = self.shared.sessions.lock().expect("session table poisoned");
            t.len() as u64
        };
        let report = DrainReport {
            sessions,
            completed: self.shared.metrics.stmt_executed.get(),
            shed: self.shared.metrics.shed.get(),
        };
        self.shared.obs.emit_with(None, || EventKind::NetDrain {
            sessions: report.sessions,
            completed: report.completed,
            shed: report.shed,
        });
        self.shared.counter("net.drains", 1);
        // The endpoint is gone: future audits must not reason about a
        // degraded-read path that no longer exists.
        self.shared.db.with(|d| d.set_serving_config(None));
        report
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.drain_inner();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut last_sweep = Instant::now();
    while !shared.draining.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counter("net.accepted", 1);
                let n = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                shared.obs.registry().gauge("net.connections").set(n as i64);
                let shared = shared.clone();
                connections.push(std::thread::spawn(move || {
                    connection_loop(stream, &shared);
                    let n = shared.connections.fetch_sub(1, Ordering::Relaxed) - 1;
                    shared.obs.registry().gauge("net.connections").set(n as i64);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            let evicted = {
                let mut t = shared.sessions.lock().expect("session table poisoned");
                let evicted = t.sweep(SESSION_IDLE_SWEEPS);
                shared
                    .obs
                    .registry()
                    .gauge("net.sessions")
                    .set(t.len() as i64);
                evicted
            };
            if evicted > 0 {
                shared.counter("net.sessions_evicted", evicted as u64);
            }
            // Occasionally finished connection threads pile up; reap them.
            connections.retain(|h| !h.is_finished());
        }
    }
    connections
}

/// One connection: handshake, then a statement/reply loop until the
/// peer says `Bye`, the connection dies, or the server drains.
fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    if stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut token: u64 = 0;
    // Frames may straddle the short read timeout (it doubles as the
    // drain-check cadence); the FrameReader keeps the partial prefix
    // across timeouts so a slow frame resumes instead of desyncing.
    let mut frames = FrameReader::new();
    loop {
        let msg = match frames.read_msg_polling(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::Relaxed) {
                    let _ = write_msg(&mut stream, &Msg::Bye);
                    return;
                }
                continue;
            }
            Err(_) => return, // died or spoke garbage mid-frame
        };
        let answer = match msg {
            Msg::Hello {
                token: presented,
                last_seq,
            } => {
                let hs = {
                    let mut t = shared.sessions.lock().expect("session table poisoned");
                    t.hello(presented, last_seq)
                };
                token = hs.token;
                if hs.resumed {
                    shared.counter("net.sessions_resumed", 1);
                } else {
                    shared.counter("net.sessions_opened", 1);
                }
                shared.obs.emit_with(None, || EventKind::NetSession {
                    token: hs.token,
                    resumed: hs.resumed,
                    applied: hs.applied,
                });
                Msg::Welcome {
                    token: hs.token,
                    applied: hs.applied,
                }
            }
            Msg::Stmt {
                seq,
                deadline_ms,
                sql,
            } => serve_stmt(shared, token, seq, deadline_ms, &sql),
            Msg::Bye => {
                let _ = write_msg(&mut stream, &Msg::Bye);
                return;
            }
            // A client must not send server-role messages.
            Msg::Welcome { .. } | Msg::Reply { .. } | Msg::Shed { .. } => Msg::Reply {
                seq: 0,
                body: err_body(ErrorCode::Protocol, 0, "unexpected server-role message"),
            },
        };
        if write_msg(&mut stream, &answer).is_err() {
            return;
        }
        if shared.draining.load(Ordering::Relaxed) {
            let _ = write_msg(&mut stream, &Msg::Bye);
            return;
        }
    }
}

/// One statement on one connection, from admission to the message to
/// write back — run start to finish by the connection's own thread.
fn serve_stmt(shared: &Shared, token: u64, seq: u64, deadline_ms: u32, sql: &str) -> Msg {
    let retry_after_ms = shared.cfg.retry_after_ms;
    if token == 0 {
        return Msg::Reply {
            seq,
            body: err_body(ErrorCode::Protocol, 0, "statement before handshake"),
        };
    }
    if shared.draining.load(Ordering::Relaxed) {
        return Msg::Reply {
            seq,
            body: err_body(
                ErrorCode::ShuttingDown,
                retry_after_ms,
                "server is draining",
            ),
        };
    }
    let admitted_at = Instant::now();
    let ahead = shared.queue_depth.fetch_add(1, Ordering::Relaxed);
    shared.note_queue_depth(ahead + 1);
    let full = ahead >= shared.cfg.queue.max(1);
    // Degraded mode: under pressure, answer SELECTs from provably-valid
    // (or covered-stale) materialisations without queueing them behind
    // writes — and past the bound as a last resort even below the
    // degrade threshold: a served stale answer beats a shed.
    let cached = if (full || ahead >= shared.cfg.degrade_at) && is_select(sql) {
        degraded_read(shared, sql)
    } else {
        None
    };
    let answer = match cached {
        // A degraded serve is a consumed outcome like any other: it
        // advances the session's applied mark and enters the reply
        // cache, or the next sequence number would look like a gap.
        Some(reply) => Msg::Reply {
            seq,
            body: shared.serve(token, seq, || reply),
        },
        None if full => {
            shared.metrics.shed.inc();
            shared.obs.emit_with(None, || EventKind::NetShed {
                queue_depth: ahead as u64,
                retry_after_ms: u64::from(retry_after_ms),
            });
            Msg::Shed {
                seq,
                retry_after_ms,
            }
        }
        None => Msg::Reply {
            seq,
            body: shared.db.with(|db| {
                shared.serve(token, seq, || {
                    execute(shared, db, sql, deadline_ms, admitted_at)
                })
            }),
        },
    };
    let depth = shared.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
    shared.note_queue_depth(depth);
    answer
}

/// Executes one fresh statement with the database and session locks
/// held: deadline check first, then the engine.
fn execute(
    shared: &Shared,
    db: &mut Database,
    sql: &str,
    deadline_ms: u32,
    admitted_at: Instant,
) -> ReplyBody {
    let waited = admitted_at.elapsed();
    if deadline_ms > 0 && waited >= Duration::from_millis(u64::from(deadline_ms)) {
        // Expired waiting for the locks: reject *before* applying
        // anything. The sequence number is not consumed; a retry is
        // exactly-once.
        shared.metrics.deadline_exceeded.inc();
        return err_body(
            ErrorCode::DeadlineExceeded,
            shared.cfg.retry_after_ms,
            "deadline expired before execution",
        );
    }
    shared.metrics.queue_wait_ns.record_duration(waited);
    // Not a second clock read: wait + work then sum to the statement's
    // server-side time exactly.
    let started = admitted_at + waited;
    let _span = db.tracer().span("net.stmt");
    shared
        .metrics
        .last_now
        .set(time_wire(db.now()).min(i64::MAX as u64) as i64);
    let (body, materialized) = reply_of(db, sql, shared.cfg.retry_after_ms);
    if let Some(m) = materialized {
        let mut cache = shared.cache.lock().expect("stale cache poisoned");
        cache.insert(sql.trim(), m);
    }
    shared.metrics.stmt_executed.inc();
    shared.metrics.stmt_ns.record_duration(started.elapsed());
    body
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

/// Tries to answer a SELECT from the stale cache. The current logical
/// time is read with `try_with` — if even that lock is contended we
/// fall back to the last time a statement observed, so the degraded path
/// never blocks on the engine.
fn degraded_read(shared: &Shared, sql: &str) -> Option<ReplyBody> {
    let now = shared
        .db
        .try_with(|d| d.now())
        .unwrap_or_else(|| Time::new(shared.metrics.last_now.get().max(0) as u64));
    let key = sql.trim().to_string();
    let read = {
        let mut cache = shared.cache.lock().expect("stale cache poisoned");
        cache.serve(&key, now)?
    };
    shared.metrics.degraded_served.inc();
    if read.stale {
        shared.metrics.degraded_stale.inc();
    }
    Some(rows_body(
        &read.rel,
        time_wire(read.as_of),
        time_wire(read.texp),
        true,
    ))
}
