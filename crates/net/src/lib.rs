//! # exptime-net
//!
//! The network front-end for the exptime engine: a fault-tolerant
//! binary wire protocol with admission control, per-statement
//! deadlines, and chaos-proven exactly-once sessions.
//!
//! The pieces, bottom-up:
//!
//! * [`frame`] — the wire format: length-prefixed, CRC-framed messages
//!   reusing the WAL's codec discipline (`exptime-wal`), rejected under
//!   the same every-prefix / every-bit-flip regimen.
//! * [`error`] — stable numeric protocol error codes, partitioned into
//!   fatal (`1xxx`) and retryable (`2xxx`) bands.
//! * [`session`] — the exactly-once core: per-session sequence numbers,
//!   an applied high-water mark, a reply cache that turns
//!   retransmissions into cached-reply fetches instead of re-executions,
//!   and the one admit → execute → record step the server and the chaos
//!   harness both run.
//! * [`degrade`] — the paper's lever under overload: materialised
//!   results carry `texp(e)` and validity intervals, so a loaded server
//!   can serve cached reads it can *prove* still correct (or label
//!   covered-stale), instead of queueing reads behind writes.
//! * [`server`] — the TCP server: an acceptor and one thread per
//!   connection that serves its own statements under a bound on
//!   statements in flight, shedding with retry hints, deadline
//!   enforcement, and a graceful drain that loses zero acked writes.
//! * [`client`] — the reconnecting client: resumes its session by
//!   token, replays unacknowledged statements under the replica layer's
//!   [`RetryPolicy`](exptime_replica::RetryPolicy) backoff.
//! * [`chaos`] — a tick-synchronous harness pushing real encoded frames
//!   through a seeded [`FaultyLink`](exptime_replica::FaultyLink), the
//!   vehicle for the exactly-once property tests.
//!
//! See DESIGN.md §12 for the wire protocol specification.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod degrade;
pub mod error;
pub mod frame;
pub mod server;
pub mod session;

pub use chaos::{ChaosNet, ChaosNetReport};
pub use client::{ClientConfig, ClientError, ClientStats, NetClient};
pub use degrade::{DegradedRead, StaleCache, DEFAULT_STALE_CACHE_CAP};
pub use error::ErrorCode;
pub use frame::{decode_msg, encode_msg, write_msg, FrameReader, Msg, ReplyBody};
pub use server::{DrainReport, NetConfig, NetServer, NetStatus};
pub use session::{Admission, Handshake, SessionTable, REPLY_CACHE_CAP};
