//! The admission-controlled TCP server.
//!
//! Thread shape:
//!
//! ```text
//! acceptor ──► one reader thread per connection ──► bounded queue ──► worker pool
//!                   │                                    │
//!                   │ replay / refuse (cheap, inline)    │ full → degraded read
//!                   ▼                                    ▼        or Shed
//!                socket ◄──────── replies ◄───────── execution
//! ```
//!
//! Reader threads do IO only; every statement that needs the engine is
//! admitted through one bounded [`std::sync::mpsc::sync_channel`]. When
//! the queue is full the server *sheds* instead of queueing without
//! bound ([`Msg::Shed`], carrying a retry hint) — and, for SELECTs, it
//! first tries **degraded mode**: answering from a cache of
//! materialised results whose `texp`/validity metadata proves them
//! still correct (or, failing that, Schrödinger-covered stale — see
//! [`crate::degrade`]). Overload never queues reads behind writes and
//! never turns into unbounded latency.
//!
//! Exactly-once: all session admission runs through one
//! [`SessionTable`] under a mutex, and the execute-and-record step
//! holds that mutex (the engine serialises statements anyway, so this
//! costs no parallelism). A retransmitted statement — same token, same
//! sequence number, on any connection — replays the cached reply
//! without touching the engine.
//!
//! Drain ([`NetServer::drain`]): stop accepting, let every reader
//! finish its in-flight statement, complete everything already
//! admitted to the queue, send `Bye`, join all threads. An acked write
//! is by construction an applied write, so drain loses none.

use crate::degrade::StaleCache;
use crate::error::ErrorCode;
use crate::frame::{write_msg, FrameReader, Msg, ReplyBody};
use crate::session::{Admission, SessionTable};
use exptime_core::time::Time;
use exptime_engine::{Database, DbError, ExecResult, SharedDatabase};
use exptime_obs::{EventKind, Obs};
use exptime_sql::Statement;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Execution worker threads.
    pub workers: usize,
    /// Bounded admission queue capacity. `try_send` past this sheds.
    pub queue: usize,
    /// Queue depth at which degraded mode engages for reads.
    pub degrade_at: usize,
    /// Per-read socket timeout; also the cadence at which reader
    /// threads notice a drain.
    pub read_timeout: Duration,
    /// Per-write socket timeout.
    pub write_timeout: Duration,
    /// The backoff hint shipped with `Shed` and retryable errors.
    pub retry_after_ms: u32,
    /// Sweeper period for idle-session eviction.
    pub sweep_every: Duration,
    /// Sweeps a session may stay idle before eviction.
    pub session_idle_sweeps: u32,
    /// Entry cap for the degraded-mode stale cache (LRU-evicted).
    pub stale_cache_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            queue: 64,
            degrade_at: 32,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(2),
            retry_after_ms: 25,
            sweep_every: Duration::from_secs(5),
            session_idle_sweeps: 24,
            stale_cache_cap: crate::degrade::DEFAULT_STALE_CACHE_CAP,
        }
    }
}

/// One admitted statement, in flight between a reader and a worker.
struct Job {
    token: u64,
    seq: u64,
    deadline_ms: u32,
    sql: String,
    admitted_at: Instant,
    reply: mpsc::Sender<Msg>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("token", &self.token)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// State shared by the acceptor, readers, workers, and the handle.
struct Shared {
    db: SharedDatabase,
    obs: Obs,
    cfg: NetConfig,
    sessions: Mutex<SessionTable>,
    cache: Mutex<StaleCache>,
    draining: AtomicBool,
    queue_depth: AtomicUsize,
    degraded: AtomicBool,
    connections: AtomicUsize,
    shed: AtomicU64,
    degraded_served: AtomicU64,
    deadline_exceeded: AtomicU64,
    completed: AtomicU64,
}

impl Shared {
    fn counter(&self, name: &str, n: u64) {
        self.obs.registry().counter(name).add(n);
    }

    /// Flips the degraded flag when the queue depth crosses the
    /// threshold, emitting the transition event exactly once per flip.
    fn note_queue_depth(&self, depth: usize) {
        self.obs
            .registry()
            .gauge("net.queue_depth")
            .set(depth as i64);
        let want = depth >= self.cfg.degrade_at;
        if self.degraded.swap(want, Ordering::Relaxed) != want {
            self.obs.emit_with(None, || EventKind::NetDegraded {
                on: want,
                queue_depth: depth as u64,
            });
        }
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
            "load:      {} connection(s), {} session(s), queue {}/{}{}",
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
/// reader exited.
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
    workers: Vec<JoinHandle<()>>,
    tx: Option<SyncSender<Job>>,
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
                cache_cap: cfg.stale_cache_cap,
            }));
        });
        let shared = Arc::new(Shared {
            db: db.clone(),
            obs,
            cfg: cfg.clone(),
            sessions: Mutex::new(SessionTable::new()),
            cache: Mutex::new(StaleCache::with_cap(cfg.stale_cache_cap)),
            draining: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let shared = shared.clone();
            let rx = rx.clone();
            workers.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        let acceptor = {
            let shared = shared.clone();
            let tx = tx.clone();
            std::thread::spawn(move || acceptor_loop(&listener, &shared, &tx))
        };
        Ok(NetServer {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            tx: Some(tx),
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
        let executed = s.completed.load(Ordering::Relaxed);
        NetStatus {
            addr: self.addr.to_string(),
            draining: s.draining.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::Relaxed),
            sessions,
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            queue_capacity: s.cfg.queue,
            degraded: s.degraded.load(Ordering::Relaxed),
            executed,
            replayed,
            shed: s.shed.load(Ordering::Relaxed),
            degraded_served: s.degraded_served.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop accepting, finish every in-flight and
    /// already-admitted statement, close connections with `Bye`, join
    /// every thread. Zero acked writes are lost: a reply is only ever
    /// written after its statement's effect is applied and recorded.
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
            let readers = acceptor.join().expect("acceptor panicked");
            for r in readers {
                r.join().expect("reader panicked");
            }
        }
        // All readers are gone; dropping the last sender lets workers
        // finish whatever is still buffered in the queue and exit.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
        let sessions = {
            let t = self.shared.sessions.lock().expect("session table poisoned");
            t.len() as u64
        };
        let report = DrainReport {
            sessions,
            completed: self.shared.completed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
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
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.drain_inner();
        }
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut last_sweep = Instant::now();
    while !shared.draining.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counter("net.accepted", 1);
                let n = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                shared.obs.registry().gauge("net.connections").set(n as i64);
                let shared = shared.clone();
                let tx = tx.clone();
                readers.push(std::thread::spawn(move || {
                    reader_loop(stream, &shared, &tx);
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
        if last_sweep.elapsed() >= shared.cfg.sweep_every {
            last_sweep = Instant::now();
            let evicted = {
                let mut t = shared.sessions.lock().expect("session table poisoned");
                let evicted = t.sweep(shared.cfg.session_idle_sweeps);
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
            // Occasionally finished readers pile up; reap them.
            readers.retain(|h| !h.is_finished());
        }
    }
    readers
}

/// One connection: handshake, then a statement/reply loop until the
/// peer says `Bye`, the connection dies, or the server drains.
fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>, tx: &SyncSender<Job>) {
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
    let (reply_tx, reply_rx) = mpsc::channel::<Msg>();
    loop {
        let msg = match frames.read_msg(&mut stream) {
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
            } => serve_stmt(
                shared,
                tx,
                token,
                seq,
                deadline_ms,
                sql,
                (&reply_tx, &reply_rx),
            ),
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

/// Admission for one statement on one connection. Returns the message
/// to write back.
fn serve_stmt(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    token: u64,
    seq: u64,
    deadline_ms: u32,
    sql: String,
    (reply_tx, reply_rx): (&mpsc::Sender<Msg>, &Receiver<Msg>),
) -> Msg {
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
                shared.cfg.retry_after_ms,
                "server is draining",
            ),
        };
    }
    // Cheap pre-check: retransmissions answer from the reply cache
    // without ever touching the admission queue.
    let pre = {
        let mut t = shared.sessions.lock().expect("session table poisoned");
        t.admit(token, seq)
    };
    match pre {
        Admission::Replay(body) => {
            shared.counter("net.stmt_replayed", 1);
            return Msg::Reply { seq, body };
        }
        Admission::Refused(reason) => {
            return Msg::Reply {
                seq,
                body: err_body(ErrorCode::Protocol, 0, reason),
            };
        }
        Admission::UnknownSession => {
            return Msg::Reply {
                seq,
                body: err_body(
                    ErrorCode::SessionExpired,
                    0,
                    "session expired; re-handshake",
                ),
            };
        }
        Admission::Fresh => {}
    }
    // Degraded mode: under queue pressure, answer SELECTs from
    // provably-valid (or covered-stale) materialisations without
    // queueing them behind writes.
    let depth = shared.queue_depth.load(Ordering::Relaxed);
    if depth >= shared.cfg.degrade_at && is_select(&sql) {
        if let Some(reply) = degraded_read(shared, &sql) {
            let body = record_degraded_serve(shared, token, seq, reply);
            return Msg::Reply { seq, body };
        }
    }
    let job = Job {
        token,
        seq,
        deadline_ms,
        sql,
        admitted_at: Instant::now(),
        reply: reply_tx.clone(),
    };
    // Count the job in *before* it becomes visible to workers: a worker
    // can dequeue and decrement the instant try_send returns, and an
    // increment-after-send would let the counter dip below zero.
    let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    shared.note_queue_depth(depth);
    match tx.try_send(job) {
        Ok(()) => {
            match reply_rx.recv() {
                Ok(msg) => msg,
                // Workers only vanish on drain; the statement was still
                // executed (workers drain the queue before exiting), but
                // the reply channel died with them — tell the client to
                // resend after reconnect; dedup will replay the answer.
                Err(_) => Msg::Reply {
                    seq,
                    body: err_body(
                        ErrorCode::ShuttingDown,
                        shared.cfg.retry_after_ms,
                        "server is draining",
                    ),
                },
            }
        }
        Err(TrySendError::Full(job)) => {
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            // Last resort for reads even below the degrade threshold:
            // a served stale answer beats a shed.
            if is_select(&job.sql) {
                if let Some(reply) = degraded_read(shared, &job.sql) {
                    let body = record_degraded_serve(shared, token, seq, reply);
                    return Msg::Reply { seq, body };
                }
            }
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.counter("net.shed", 1);
            let depth = shared.queue_depth.load(Ordering::Relaxed);
            shared.obs.emit_with(None, || EventKind::NetShed {
                queue_depth: depth as u64,
                retry_after_ms: u64::from(shared.cfg.retry_after_ms),
            });
            Msg::Shed {
                seq,
                retry_after_ms: shared.cfg.retry_after_ms,
            }
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            Msg::Reply {
                seq,
                body: err_body(
                    ErrorCode::ShuttingDown,
                    shared.cfg.retry_after_ms,
                    "server is draining",
                ),
            }
        }
    }
}

/// A degraded serve is a consumed outcome like any other: it must
/// advance the session's applied mark and enter the reply cache, or the
/// next sequence number looks like a gap. Re-admit under the lock — a
/// retransmission on another connection may have won the race since the
/// caller's pre-check.
fn record_degraded_serve(
    shared: &Arc<Shared>,
    token: u64,
    seq: u64,
    reply: ReplyBody,
) -> ReplyBody {
    let mut sessions = shared.sessions.lock().expect("session table poisoned");
    match sessions.admit(token, seq) {
        Admission::Fresh => {
            sessions.record(token, seq, reply.clone());
            reply
        }
        Admission::Replay(body) => {
            shared.counter("net.stmt_replayed", 1);
            body
        }
        Admission::Refused(reason) => err_body(ErrorCode::Protocol, 0, reason),
        Admission::UnknownSession => err_body(
            ErrorCode::SessionExpired,
            0,
            "session expired; re-handshake",
        ),
    }
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

fn err_body(code: ErrorCode, retry_after_ms: u32, message: &str) -> ReplyBody {
    ReplyBody::Err {
        code: code.as_u16(),
        retry_after_ms,
        message: message.to_string(),
    }
}

fn time_wire(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX)
}

/// Tries to answer a SELECT from the stale cache. The current logical
/// time is read with `try_with` — if even that lock is contended we
/// fall back to the last time a worker observed, so the degraded path
/// never blocks on the engine.
fn degraded_read(shared: &Arc<Shared>, sql: &str) -> Option<ReplyBody> {
    let now = shared.db.try_with(|d| d.now()).unwrap_or_else(|| {
        Time::new(shared.obs.registry().gauge_value("net.last_now").max(0) as u64)
    });
    let key = sql.trim().to_string();
    let read = {
        let mut cache = shared.cache.lock().expect("stale cache poisoned");
        cache.serve(&key, now)?
    };
    shared.degraded_served.fetch_add(1, Ordering::Relaxed);
    shared.counter("net.degraded_served", 1);
    if read.stale {
        shared.counter("net.degraded_stale", 1);
    }
    Some(rows_body(
        &read.rel,
        time_wire(read.as_of),
        time_wire(read.texp),
        true,
    ))
}

fn rows_body(
    rel: &exptime_core::relation::Relation,
    as_of: u64,
    texp: u64,
    degraded: bool,
) -> ReplyBody {
    let schema = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| (a.name.clone(), a.ty))
        .collect();
    let rows = rel
        .iter()
        .map(|(t, texp)| (t.values().to_vec(), texp))
        .collect();
    ReplyBody::Rows {
        as_of,
        texp,
        degraded,
        schema,
        rows,
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().expect("worker queue poisoned");
            guard.recv()
        };
        let Ok(job) = job else { return };
        let depth = shared.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        shared.note_queue_depth(depth);
        let started = Instant::now();
        let reply = execute_job(shared, &job);
        shared
            .obs
            .registry()
            .histogram("net.stmt_ns")
            .record(started.elapsed().as_nanos() as u64);
        // The reader may have gone away (connection died); the work is
        // done and recorded either way — a reconnecting client replays
        // the sequence number and gets the cached reply.
        let _ = job.reply.send(Msg::Reply {
            seq: job.seq,
            body: reply,
        });
    }
}

/// Executes one admitted statement: deadline check, exactly-once
/// admission, execution, recording — in that order, with the session
/// table locked across execute+record so no concurrent retransmission
/// can slip in between.
fn execute_job(shared: &Arc<Shared>, job: &Job) -> ReplyBody {
    if job.deadline_ms > 0
        && job.admitted_at.elapsed() >= Duration::from_millis(u64::from(job.deadline_ms))
    {
        // Expired in the queue: reject *before* applying anything. The
        // sequence number is not consumed; a retry is exactly-once.
        shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        shared.counter("net.deadline_exceeded", 1);
        return err_body(
            ErrorCode::DeadlineExceeded,
            shared.cfg.retry_after_ms,
            "deadline expired before execution",
        );
    }
    let mut sessions = shared.sessions.lock().expect("session table poisoned");
    match sessions.admit(job.token, job.seq) {
        Admission::Fresh => {}
        // A retransmission won the race while we sat in the queue.
        Admission::Replay(body) => {
            shared.counter("net.stmt_replayed", 1);
            return body;
        }
        Admission::Refused(reason) => return err_body(ErrorCode::Protocol, 0, reason),
        Admission::UnknownSession => {
            return err_body(
                ErrorCode::SessionExpired,
                0,
                "session expired; re-handshake",
            )
        }
    }
    let body = shared.db.with(|db| run_statement(shared, db, &job.sql));
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.counter("net.stmt_executed", 1);
    // Only consumed outcomes are recorded: successes and fatal errors.
    // Retryable errors leave the sequence number open for the retry.
    let record = match &body {
        ReplyBody::Err { code, .. } => {
            !ErrorCode::from_u16(*code).is_some_and(ErrorCode::is_retryable)
        }
        _ => true,
    };
    if record {
        sessions.record(job.token, job.seq, body.clone());
    }
    body
}

/// Runs one statement against the live engine, through the same two
/// entry points as an embedded caller: [`Database::select`] for a SELECT
/// (so the reply carries `texp(e)` and the materialisation lands in the
/// degraded-mode cache for free), [`Database::execute_statement`] for
/// everything else.
fn run_statement(shared: &Arc<Shared>, db: &mut Database, sql: &str) -> ReplyBody {
    let _span = db.tracer().span("net.stmt");
    let now = db.now();
    shared
        .obs
        .registry()
        .gauge("net.last_now")
        .set(time_wire(now).min(i64::MAX as u64) as i64);
    let reply = exptime_sql::parse(sql)
        .map_err(DbError::from)
        .and_then(|stmt| match stmt {
            Statement::Select(query) => {
                let m = db.select(&query)?;
                let body = rows_body(&m.rel, time_wire(now), time_wire(m.texp), false);
                // A `LIMIT`-truncated result cannot be expired forward (a
                // cut row would move up), so it is never served stale.
                if query.limit.is_none() {
                    let mut cache = shared.cache.lock().expect("stale cache poisoned");
                    cache.insert(sql.trim(), m);
                }
                Ok(body)
            }
            stmt => Ok(match db.execute_statement(stmt)? {
                ExecResult::Rows(rel) => rows_body(&rel, time_wire(now), u64::MAX, false),
                ExecResult::Affected(n) => ReplyBody::Affected(n as u64),
                ExecResult::Ok(name) => ReplyBody::Ok(name),
            }),
        });
    reply.unwrap_or_else(|e| db_err_body(shared, &e))
}

fn db_err_body(shared: &Arc<Shared>, e: &DbError) -> ReplyBody {
    let code = ErrorCode::from_db_error(e);
    let retry_after_ms = if code.is_retryable() {
        shared.cfg.retry_after_ms
    } else {
        0
    };
    ReplyBody::Err {
        code: code.as_u16(),
        retry_after_ms,
        message: e.to_string(),
    }
}
