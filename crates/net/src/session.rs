//! Server-side exactly-once session state.
//!
//! A session is the unit of exactly-once delivery: the client numbers
//! its statements `1, 2, 3, …` within a session, and the server keeps,
//! per session, the highest sequence number it has **applied** plus a
//! cache of the replies the client may not have seen yet. Reconnects
//! change the TCP connection, never the session: the client's `Hello`
//! presents its token, the server's `Welcome` answers with `applied`,
//! and the client replays everything after that — duplicates hit the
//! reply cache and are re-answered **without re-execution**. This is
//! the same dedup discipline as the replica layer's chaos sessions
//! (`exptime-replica::session`), applied to SQL statements instead of
//! view refreshes.
//!
//! This module is transport-free on purpose: the real TCP server
//! (`crate::server`) and the tick-synchronous chaos harness
//! (`crate::chaos`) both answer a statement with
//! [`SessionTable::serve`] around [`reply_of`] — the *same* admit →
//! execute → record step and the same result → [`ReplyBody`] mapping —
//! so the property tests exercise exactly the code the server runs.

use crate::error::ErrorCode;
use crate::frame::ReplyBody;
use exptime_core::algebra::Materialized;
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_engine::{Database, DbError, ExecResult};
use exptime_sql::Statement;
use std::collections::{BTreeMap, HashMap};

/// Replies retained per session beyond the `Hello` acknowledgement.
///
/// The protocol is strictly sequential within a session — the client
/// holds at most one unacknowledged statement in flight — so only the
/// most recent reply can ever be legitimately replayed. The slack above
/// one absorbs delayed duplicate retransmissions of slightly older
/// sequence numbers (answered from cache instead of refused). The cap
/// is enforced on every [`SessionTable::record`] advance: a healthy
/// long-lived client never re-handshakes, so `hello`-time pruning alone
/// would let the cache grow with every statement the session executes.
pub const REPLY_CACHE_CAP: usize = 4;

/// What the session table says about an incoming statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Sequence number `applied + 1`: new work — execute it, then
    /// [`SessionTable::record`] the reply.
    Fresh,
    /// A sequence number at or below `applied`: a retransmission of
    /// work already applied. Return the cached reply; do **not**
    /// re-execute.
    Replay(ReplyBody),
    /// A duplicate whose cached reply was already pruned (the client
    /// acknowledged it in an earlier `Hello`), so the client can only
    /// be confused — or a gap (`seq > applied + 1`), which a correct
    /// client never sends. Either way: refuse without executing.
    Refused(&'static str),
    /// The token is not (or no longer) known — the session idled out or
    /// the server restarted. The client must handshake again.
    UnknownSession,
}

#[derive(Debug)]
struct Session {
    /// Highest statement sequence number applied under this session.
    applied: u64,
    /// Replies the client may not have processed yet, keyed by seq.
    /// Pruned by the `last_seq` acknowledgement in `Hello` and capped
    /// at [`REPLY_CACHE_CAP`] on every `record` advance.
    replies: BTreeMap<u64, ReplyBody>,
    /// Sweeper ticks since the session last saw traffic.
    idle_ticks: u32,
}

/// All live sessions on one server.
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: HashMap<u64, Session>,
    next_token: u64,
    /// Statements admitted as [`Admission::Fresh`] (actual executions).
    pub fresh: u64,
    /// Retransmissions answered from the reply cache.
    pub replays: u64,
}

/// The server's answer to a `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The token the client must use from now on.
    pub token: u64,
    /// Highest sequence number already applied; the client replays
    /// everything after it.
    pub applied: u64,
    /// Whether an existing session was resumed (vs a fresh one opened).
    pub resumed: bool,
}

impl SessionTable {
    #[must_use]
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Handles a `Hello`. `token == 0` (or an unknown/expired token)
    /// opens a fresh session; a known token resumes it and prunes the
    /// reply cache up to the client's `last_seq` acknowledgement.
    pub fn hello(&mut self, token: u64, last_seq: u64) -> Handshake {
        if token != 0 {
            if let Some(s) = self.sessions.get_mut(&token) {
                s.idle_ticks = 0;
                s.replies.retain(|&seq, _| seq > last_seq);
                return Handshake {
                    token,
                    applied: s.applied,
                    resumed: true,
                };
            }
        }
        self.next_token += 1;
        let token = self.next_token;
        self.sessions.insert(
            token,
            Session {
                applied: 0,
                replies: BTreeMap::new(),
                idle_ticks: 0,
            },
        );
        Handshake {
            token,
            applied: 0,
            resumed: false,
        }
    }

    /// Answers one statement exactly once: the single admit → execute →
    /// record step. Sequence number `applied + 1` runs `exec` and records
    /// its reply iff the outcome is *consumed* — a success or a fatal
    /// error; a retryable error leaves the sequence number open for the
    /// retry. A retransmission gets the cached reply without running
    /// `exec`; anything else is refused without running it.
    pub fn serve(&mut self, token: u64, seq: u64, exec: impl FnOnce() -> ReplyBody) -> ReplyBody {
        match self.admit(token, seq) {
            Admission::Fresh => {
                let body = exec();
                let retryable = matches!(&body, ReplyBody::Err { code, .. }
                    if ErrorCode::from_u16(*code).is_some_and(ErrorCode::is_retryable));
                if !retryable {
                    self.record(token, seq, body.clone());
                }
                body
            }
            Admission::Replay(body) => body,
            Admission::Refused(reason) => err_body(ErrorCode::Protocol, 0, reason),
            Admission::UnknownSession => err_body(
                ErrorCode::SessionExpired,
                0,
                "session expired; re-handshake",
            ),
        }
    }

    /// Classifies an incoming statement — the first half of
    /// [`SessionTable::serve`], which is what callers use.
    pub fn admit(&mut self, token: u64, seq: u64) -> Admission {
        let Some(s) = self.sessions.get_mut(&token) else {
            return Admission::UnknownSession;
        };
        s.idle_ticks = 0;
        if seq == s.applied + 1 {
            self.fresh += 1;
            Admission::Fresh
        } else if seq <= s.applied {
            match s.replies.get(&seq) {
                Some(body) => {
                    self.replays += 1;
                    Admission::Replay(body.clone())
                }
                None => Admission::Refused("reply for acknowledged seq already pruned"),
            }
        } else {
            Admission::Refused("sequence gap")
        }
    }

    /// Records the reply for the statement just applied at `seq ==
    /// applied + 1`, advancing the high-water mark.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not exactly `applied + 1` for `token` — the
    /// caller must have gotten [`Admission::Fresh`] for this pair.
    pub fn record(&mut self, token: u64, seq: u64, body: ReplyBody) {
        let s = self
            .sessions
            .get_mut(&token)
            .expect("record() for unknown session");
        assert_eq!(seq, s.applied + 1, "record() out of order");
        s.applied = seq;
        s.replies.insert(seq, body);
        while s.replies.len() > REPLY_CACHE_CAP {
            s.replies.pop_first();
        }
    }

    /// One sweeper tick: ages every session, evicting those idle for
    /// `max_idle_ticks` or more. Returns the number evicted.
    pub fn sweep(&mut self, max_idle_ticks: u32) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|_, s| {
            s.idle_ticks += 1;
            s.idle_ticks < max_idle_ticks
        });
        before - self.sessions.len()
    }

    /// Live session count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The applied high-water mark for a token, if the session is live.
    #[must_use]
    pub fn applied(&self, token: u64) -> Option<u64> {
        self.sessions.get(&token).map(|s| s.applied)
    }

    /// Cached (unacknowledged) replies for a token, for introspection.
    #[must_use]
    pub fn cached_replies(&self, token: u64) -> usize {
        self.sessions.get(&token).map_or(0, |s| s.replies.len())
    }
}

pub(crate) fn err_body(code: ErrorCode, retry_after_ms: u32, message: &str) -> ReplyBody {
    ReplyBody::Err {
        code: code.as_u16(),
        retry_after_ms,
        message: message.to_string(),
    }
}

pub(crate) fn time_wire(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX)
}

pub(crate) fn rows_body(rel: &Relation, as_of: u64, texp: u64, degraded: bool) -> ReplyBody {
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

/// Runs one statement against the live engine and maps its outcome onto
/// the wire, through the same two entry points as an embedded caller:
/// [`Database::select`] for a SELECT (so the reply carries `texp(e)`),
/// [`Database::execute_statement`] for everything else. A SELECT also
/// hands back its materialisation for the degraded-mode cache — unless
/// it had a `LIMIT`: a truncated result cannot be expired forward (a cut
/// row would move up), so it is never served stale. `retry_after_ms` is
/// the hint shipped with a retryable engine error.
pub(crate) fn reply_of(
    db: &mut Database,
    sql: &str,
    retry_after_ms: u32,
) -> (ReplyBody, Option<Materialized>) {
    let now = time_wire(db.now());
    exptime_sql::parse(sql)
        .map_err(DbError::from)
        .and_then(|stmt| match stmt {
            Statement::Select(query) => {
                let m = db.select(&query)?;
                let body = rows_body(&m.rel, now, time_wire(m.texp), false);
                Ok((body, query.limit.is_none().then_some(m)))
            }
            stmt => Ok((
                match db.execute_statement(stmt)? {
                    ExecResult::Rows(rel) => rows_body(&rel, now, u64::MAX, false),
                    ExecResult::Affected(n) => ReplyBody::Affected(n as u64),
                    ExecResult::Ok(name) => ReplyBody::Ok(name),
                },
                None,
            )),
        })
        .unwrap_or_else(|e| {
            let code = ErrorCode::from_db_error(&e);
            let hint = if code.is_retryable() {
                retry_after_ms
            } else {
                0
            };
            (err_body(code, hint, &e.to_string()), None)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affected(n: u64) -> ReplyBody {
        ReplyBody::Affected(n)
    }

    #[test]
    fn fresh_then_replay_without_reexecution() {
        let mut t = SessionTable::new();
        let h = t.hello(0, 0);
        assert!(!h.resumed);
        assert_eq!(h.applied, 0);
        assert_eq!(t.admit(h.token, 1), Admission::Fresh);
        t.record(h.token, 1, affected(1));
        // The retransmission returns the cached reply.
        assert_eq!(t.admit(h.token, 1), Admission::Replay(affected(1)));
        assert_eq!(t.fresh, 1);
        assert_eq!(t.replays, 1);
        // Next statement admits fresh.
        assert_eq!(t.admit(h.token, 2), Admission::Fresh);
    }

    #[test]
    fn serve_executes_once_and_leaves_a_retryable_outcome_open() {
        let mut t = SessionTable::new();
        let h = t.hello(0, 0);
        let mut runs = 0;
        let mut run = |body: &ReplyBody| {
            runs += 1;
            body.clone()
        };
        let later = err_body(ErrorCode::DeadlineExceeded, 5, "later");
        assert_eq!(t.serve(h.token, 1, || run(&later)), later);
        assert_eq!(t.applied(h.token), Some(0), "retryable: seq 1 stays open");
        assert_eq!(t.serve(h.token, 1, || run(&affected(1))), affected(1));
        assert_eq!(t.serve(h.token, 1, || run(&affected(9))), affected(1));
        let fatal = err_body(ErrorCode::Sql, 0, "bad");
        assert_eq!(t.serve(h.token, 2, || run(&fatal)), fatal);
        assert_eq!(t.serve(h.token, 2, || run(&affected(9))), fatal);
        assert_eq!(t.applied(h.token), Some(2), "a fatal error is consumed");
        let code_of = |body: ReplyBody| match body {
            ReplyBody::Err { code, .. } => ErrorCode::from_u16(code),
            other => panic!("expected an error, got {other:?}"),
        };
        let gap = t.serve(h.token, 9, || run(&affected(9)));
        assert_eq!(code_of(gap), Some(ErrorCode::Protocol));
        let unknown = t.serve(777, 1, || run(&affected(9)));
        assert_eq!(code_of(unknown), Some(ErrorCode::SessionExpired));
        assert_eq!(runs, 3, "replays and refusals never execute");
    }

    #[test]
    fn reconnect_resumes_and_prunes_acknowledged_replies() {
        let mut t = SessionTable::new();
        let h = t.hello(0, 0);
        for seq in 1..=3 {
            assert_eq!(t.admit(h.token, seq), Admission::Fresh);
            t.record(h.token, seq, affected(seq));
        }
        assert_eq!(t.cached_replies(h.token), 3);
        // Reconnect: client has fully processed replies 1 and 2.
        let h2 = t.hello(h.token, 2);
        assert!(h2.resumed);
        assert_eq!(h2.token, h.token);
        assert_eq!(h2.applied, 3);
        assert_eq!(t.cached_replies(h.token), 1);
        // Replaying seq 3 still works; seq 2 was acknowledged, so a
        // replay of it is a client bug and is refused, not re-executed.
        assert_eq!(t.admit(h.token, 3), Admission::Replay(affected(3)));
        assert!(matches!(t.admit(h.token, 2), Admission::Refused(_)));
    }

    #[test]
    fn reply_cache_is_bounded_across_a_long_session() {
        let mut t = SessionTable::new();
        let h = t.hello(0, 0);
        for seq in 1..=1_000 {
            assert_eq!(t.admit(h.token, seq), Admission::Fresh);
            t.record(h.token, seq, affected(seq));
            assert!(
                t.cached_replies(h.token) <= REPLY_CACHE_CAP,
                "cache exceeded the cap at seq {seq}"
            );
        }
        // The newest reply is always replayable; an ancient delayed
        // duplicate is refused — but never re-executed.
        assert_eq!(t.admit(h.token, 1_000), Admission::Replay(affected(1_000)));
        assert!(matches!(t.admit(h.token, 1), Admission::Refused(_)));
        assert_eq!(t.fresh, 1_000);
    }

    #[test]
    fn gaps_and_unknown_tokens_are_refused() {
        let mut t = SessionTable::new();
        let h = t.hello(0, 0);
        assert!(matches!(t.admit(h.token, 5), Admission::Refused(_)));
        assert_eq!(t.admit(999, 1), Admission::UnknownSession);
        assert_eq!(t.fresh, 0, "nothing executed");
    }

    #[test]
    fn unknown_token_in_hello_opens_a_fresh_session() {
        let mut t = SessionTable::new();
        let h = t.hello(424_242, 10);
        assert!(!h.resumed, "expired token must not resume");
        assert_eq!(h.applied, 0);
        assert_ne!(h.token, 424_242, "server chooses tokens");
    }

    #[test]
    fn idle_sessions_sweep_out_but_active_ones_survive() {
        let mut t = SessionTable::new();
        let a = t.hello(0, 0);
        let b = t.hello(0, 0);
        assert_ne!(a.token, b.token);
        for _ in 0..3 {
            t.sweep(5);
            assert_eq!(t.admit(a.token, 1), Admission::Fresh); // touch a
            assert!(matches!(t.admit(a.token, 99), Admission::Refused(_)));
        }
        // b has been idle 3 ticks, a 0. Two more ticks evict b at 5.
        assert_eq!(t.sweep(5), 0);
        assert_eq!(t.sweep(5), 1);
        assert_eq!(t.len(), 1);
        assert!(t.applied(a.token).is_some());
        assert_eq!(t.admit(b.token, 1), Admission::UnknownSession);
    }
}
