//! The reconnecting, exactly-once client.
//!
//! One [`NetClient`] is one session. What the session decides — the
//! statement numbering, the handshake, what each reply, `Shed` or `Bye`
//! means — is the transport-free `ClientSession` of [`crate::session`],
//! the same one the chaos harness drives, so the seeded fault matrix
//! covers these decisions. This module adds the TCP connection, the
//! socket timeouts and the wall-clock: on any connection trouble it
//! reconnects, re-handshakes with its token, and resends the statement
//! under the *same* sequence number — the server's dedup turns the
//! resend into a cached-reply fetch if the first copy actually landed.
//! Backoff between attempts follows the replica layer's [`RetryPolicy`]
//! (base/factor/cap/jitter), with the policy's `budget` read as the
//! total **wall-clock** milliseconds one statement may spend — connect
//! and reply-await time included, not just the sleeps — before
//! [`ClientError::Exhausted`].
//!
//! Exactly-once holds within a session's idle lifetime. If the server
//! evicts the session while a statement is in flight, the reply cache
//! that would disambiguate "applied, reply lost" from "never applied"
//! died with it — the client surfaces that single statement as
//! [`ClientError::SessionExpired`] rather than resending it under a
//! fresh session, which could apply it twice.

use crate::error::ErrorCode;
use crate::frame::{write_msg, FrameReader, Msg, ReplyBody};
use crate::session::{ClientSession, Step};
use exptime_replica::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-statement deadline stamped on the wire (`0` = none).
    pub deadline_ms: u32,
    /// Backoff schedule; intervals and `budget` are milliseconds here.
    pub policy: RetryPolicy,
    /// Socket read timeout (bounds how long a reply is awaited).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Seed for backoff jitter (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline_ms: 0,
            policy: RetryPolicy {
                base: 5,
                factor: 2,
                max_interval: 200,
                jitter: 10,
                budget: 5_000,
            },
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            seed: 0x6e65_7463, // "netc"
        }
    }
}

/// Client-side protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Statements whose outcome was returned to the caller.
    pub statements: u64,
    /// Wire sends beyond the first per statement (any reason).
    pub retries: u64,
    /// Successful re-handshakes after a connection was lost.
    pub reconnects: u64,
    /// `Shed` refusals absorbed.
    pub sheds: u64,
    /// Retryable error replies absorbed (deadline, drain, …).
    pub retryable_errors: u64,
    /// Replies served from the degraded stale-read path.
    pub degraded_reads: u64,
}

/// Why a statement could not produce an outcome.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting (or reconnecting) failed and the retry budget ran out.
    Io(io::Error),
    /// The server refused the dialogue (protocol violation, unknown
    /// reply, handshake failure).
    Protocol(String),
    /// The statement itself failed with a fatal code.
    Fatal {
        code: Option<ErrorCode>,
        raw_code: u16,
        message: String,
    },
    /// The retry budget (`policy.budget` ms of wall-clock) ran out
    /// before a consumed outcome arrived. The statement may or may not
    /// have been applied; resuming the session and replaying the same
    /// sequence number resolves the ambiguity.
    Exhausted { attempts: u32 },
    /// The session idled out server-side with this statement in
    /// flight. Its reply cache died with the session, so whether the
    /// statement was applied cannot be resolved by replaying — the
    /// outcome is **ambiguous**, and silently resending under a fresh
    /// session could apply it twice. The client has already reset
    /// itself: the next `execute` opens a fresh session. The caller
    /// decides whether the statement is safe to resubmit.
    SessionExpired { message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Fatal {
                raw_code, message, ..
            } => write!(f, "fatal [{raw_code}]: {message}"),
            ClientError::Exhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempt(s)")
            }
            ClientError::SessionExpired { message } => {
                write!(
                    f,
                    "session expired mid-statement (outcome ambiguous): {message}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected (or reconnecting) protocol client.
#[derive(Debug)]
pub struct NetClient {
    addr: String,
    cfg: ClientConfig,
    /// The live connection and its frame reader; they are replaced
    /// together, so a reconnect never resumes a dead stream's bytes.
    conn: Option<(TcpStream, FrameReader)>,
    session: ClientSession,
    rng: StdRng,
    /// Protocol counters (public: load generators read them).
    pub stats: ClientStats,
}

impl NetClient {
    /// Creates a client for `addr` and performs the initial handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the server cannot be reached.
    pub fn connect(addr: &str, cfg: ClientConfig) -> Result<NetClient, ClientError> {
        let mut c = NetClient {
            addr: addr.to_string(),
            cfg: cfg.clone(),
            conn: None,
            session: ClientSession::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: ClientStats::default(),
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// The session token (0 before the first handshake).
    #[must_use]
    pub fn token(&self) -> u64 {
        self.session.token()
    }

    /// Executes one statement with exactly-once effects, retrying
    /// through disconnects, sheds, and retryable errors until the
    /// policy budget runs out.
    ///
    /// # Errors
    ///
    /// [`ClientError::Fatal`] when the statement itself fails;
    /// [`ClientError::Exhausted`] / [`ClientError::Io`] when the server
    /// stays unreachable or keeps refusing past the budget.
    pub fn execute(&mut self, sql: &str) -> Result<ReplyBody, ClientError> {
        // The budget is wall-clock from the first attempt: time spent
        // connecting and awaiting replies counts, not just the sleeps —
        // otherwise each attempt could add connect + read-timeout time
        // and blow far past the policy in real elapsed time.
        let started = Instant::now();
        let budget = Duration::from_millis(self.cfg.policy.budget);
        let mut attempt: u32 = 0;
        loop {
            // Not consumed: `Ok(hint)` backs off and resends the same
            // sequence number, `Err` drops the stream and reconnects too.
            let retry = match self.round(sql) {
                Ok(Step::Consumed(ReplyBody::Err { code, message, .. })) => {
                    return Err(ClientError::Fatal {
                        code: ErrorCode::from_u16(code),
                        raw_code: code,
                        message,
                    });
                }
                Ok(Step::Consumed(body)) => return Ok(body),
                Ok(Step::SessionLost(message)) => {
                    self.conn = None;
                    return Err(ClientError::SessionExpired { message });
                }
                Ok(Step::Backoff(hint)) => Ok(hint),
                Ok(Step::Stale | Step::Closed(_)) => unreachable!("`round` reads past them"),
                Err(e) => {
                    self.conn = None;
                    Err(e)
                }
            };
            let wait = match retry {
                Ok(hint) if hint > 0 => u64::from(hint),
                _ => self.cfg.policy.delay(attempt, &mut self.rng),
            };
            attempt += 1;
            self.stats.retries += 1;
            if started.elapsed() + Duration::from_millis(wait) > budget {
                return Err(match retry {
                    Ok(_) => ClientError::Exhausted { attempts: attempt },
                    Err(e) => ClientError::Io(e),
                });
            }
            std::thread::sleep(Duration::from_millis(wait));
        }
    }

    /// Sends `Bye` and closes the connection (the server keeps the
    /// session for later resumption until it idles out).
    pub fn close(&mut self) {
        if let Some((stream, _)) = &mut self.conn {
            let _ = write_msg(stream, &Msg::Bye);
        }
        self.conn = None;
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(&self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.cfg.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.cfg.write_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(ClientError::Io)?;
        write_msg(&mut stream, &self.session.hello()).map_err(ClientError::Io)?;
        let mut frames = FrameReader::new();
        match frames.read_msg(&mut stream).map_err(ClientError::Io)? {
            Some(Msg::Welcome { token, applied }) => {
                if self.session.token() != 0 {
                    self.stats.reconnects += 1;
                }
                self.session.welcome(token, applied);
                self.conn = Some((stream, frames));
                Ok(())
            }
            Some(other) => Err(ClientError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            ))),
        }
    }

    /// One wire round for the statement in flight: (re)connect, send it,
    /// and read to the first step that is neither stale nor the end of
    /// the connection — those two are read past and returned as errors.
    fn round(&mut self, sql: &str) -> io::Result<Step> {
        self.ensure_connected().map_err(|e| match e {
            ClientError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        let stmt = self.session.stmt(self.cfg.deadline_ms, sql);
        let (stream, frames) = self.conn.as_mut().expect("just connected");
        write_msg(stream, &stmt)?;
        loop {
            let Some(msg) = frames.read_msg_polling(stream)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed awaiting reply",
                ));
            };
            match self.session.step(msg, &mut self.stats) {
                Step::Stale => {}
                Step::Closed(why) => {
                    return Err(io::Error::new(io::ErrorKind::ConnectionAborted, why))
                }
                step => return Ok(step),
            }
        }
    }
}
