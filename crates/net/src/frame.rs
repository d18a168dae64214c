//! The wire message format: length-prefixed, CRC-framed binary messages.
//!
//! Frames reuse the WAL's framing discipline byte-for-byte
//! (`exptime-wal`'s `record` module):
//!
//! ```text
//! | len: u32 LE | crc: u32 LE | payload: len bytes |
//! ```
//!
//! `crc` is CRC32 (IEEE) over the payload; `len` covers the payload
//! only. The payload is a tag byte followed by the message fields,
//! encoded with the same little-endian primitives the WAL uses
//! ([`put_u32`]/[`put_u64`]/[`put_str`]/[`put_time`]/[`put_values`] and
//! [`Cursor`] on the way back in). A torn, truncated, or bit-flipped
//! frame decodes to a [`DecodeError`], never to a wrong message — the
//! same every-prefix / every-bit-flip rejection regimen the WAL codec
//! is tested under applies here (see `tests/prop_net.rs`).

use exptime_core::time::Time;
use exptime_core::value::{Value, ValueType};
use exptime_wal::{
    crc32, put_str, put_time, put_u32, put_u64, put_value, Cursor, DecodeError, MAX_FRAME,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

// Message tag bytes. Stable wire contract: never renumber, only append.
const TAG_HELLO: u8 = 0x01;
const TAG_WELCOME: u8 = 0x02;
const TAG_STMT: u8 = 0x03;
const TAG_REPLY: u8 = 0x04;
const TAG_SHED: u8 = 0x05;
const TAG_BYE: u8 = 0x06;

// Reply body tag bytes.
const BODY_ROWS: u8 = 0x01;
const BODY_AFFECTED: u8 = 0x02;
const BODY_OK: u8 = 0x03;
const BODY_ERR: u8 = 0x04;

// Value type tag bytes (reply schema encoding).
const VT_INT: u8 = 0x00;
const VT_FLOAT: u8 = 0x01;
const VT_STR: u8 = 0x02;
const VT_BOOL: u8 = 0x03;

/// One protocol message. The protocol is client-driven: after the
/// `Hello`/`Welcome` handshake the client sends `Stmt` frames with
/// strictly increasing sequence numbers and the server answers each
/// with exactly one `Reply` (or a `Shed` admission refusal, which does
/// not consume the sequence number).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client opener. `token == 0` asks for a fresh session; a non-zero
    /// token resumes an existing one after a reconnect. `last_seq` is
    /// the highest sequence number whose reply the client has fully
    /// processed — the server prunes its reply cache up to it.
    Hello { token: u64, last_seq: u64 },
    /// Server handshake answer: the session token to use from now on and
    /// the highest statement sequence number already applied under it.
    /// The client replays everything after `applied`; the server's
    /// dedup makes the replay idempotent (exactly-once effects).
    Welcome { token: u64, applied: u64 },
    /// One SQL statement. `deadline_ms` is the wall-clock budget the
    /// client grants, measured from admission; `0` means no deadline.
    Stmt {
        seq: u64,
        deadline_ms: u32,
        sql: String,
    },
    /// The server's answer to the `Stmt` with the same `seq`.
    Reply { seq: u64, body: ReplyBody },
    /// Admission control refused the statement before execution (queue
    /// full, or the server is draining). The statement was *not*
    /// applied; the client should back off `retry_after_ms` and resend
    /// the same sequence number.
    Shed { seq: u64, retry_after_ms: u32 },
    /// Orderly goodbye (either direction). The session itself survives
    /// on the server for resumption until it idles out.
    Bye,
}

/// The outcome of one statement, as shipped to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// Query rows with per-tuple expiration times.
    Rows {
        /// Logical time the result is valid *as of*. Under degraded
        /// mode this may lag the server clock: the rows are a
        /// Schrödinger-covered stale read (see DESIGN.md §12).
        as_of: u64,
        /// `texp(e)` of the result expression (`u64::MAX` = `∞`): how
        /// long the client may itself cache these rows — unless the
        /// query had a `LIMIT`, whose truncated rows must not be
        /// expired forward (`texp` is the untruncated expression's).
        texp: u64,
        /// True when served from the degraded-mode stale cache rather
        /// than evaluated against the live engine.
        degraded: bool,
        /// Result schema: attribute names and types.
        schema: Vec<(String, ValueType)>,
        /// Rows, each with its expiration time.
        rows: Vec<(Vec<Value>, Time)>,
    },
    /// DML applied; row count.
    Affected(u64),
    /// DDL succeeded for the named object.
    Ok(String),
    /// The statement failed. `code` is a stable numeric protocol code
    /// (see [`crate::error::ErrorCode`]); `retry_after_ms` is non-zero
    /// when the condition is transient and the client should retry.
    Err {
        code: u16,
        retry_after_ms: u32,
        message: String,
    },
}

fn put_vtype(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Int => VT_INT,
        ValueType::Float => VT_FLOAT,
        ValueType::Str => VT_STR,
        ValueType::Bool => VT_BOOL,
    });
}

fn read_vtype(c: &mut Cursor<'_>) -> Result<ValueType, DecodeError> {
    match c.u8()? {
        VT_INT => Ok(ValueType::Int),
        VT_FLOAT => Ok(ValueType::Float),
        VT_STR => Ok(ValueType::Str),
        VT_BOOL => Ok(ValueType::Bool),
        _ => Err(DecodeError::BadPayload("unknown value type tag")),
    }
}

fn put_body(out: &mut Vec<u8>, body: &ReplyBody) {
    match body {
        ReplyBody::Rows {
            as_of,
            texp,
            degraded,
            schema,
            rows,
        } => {
            out.push(BODY_ROWS);
            put_u64(out, *as_of);
            put_u64(out, *texp);
            out.push(u8::from(*degraded));
            put_u32(out, schema.len() as u32);
            for (name, ty) in schema {
                put_str(out, name);
                put_vtype(out, *ty);
            }
            put_u32(out, rows.len() as u32);
            for (values, texp) in rows {
                put_u32(out, values.len() as u32);
                for v in values {
                    put_value(out, v);
                }
                put_time(out, *texp);
            }
        }
        ReplyBody::Affected(n) => {
            out.push(BODY_AFFECTED);
            put_u64(out, *n);
        }
        ReplyBody::Ok(name) => {
            out.push(BODY_OK);
            put_str(out, name);
        }
        ReplyBody::Err {
            code,
            retry_after_ms,
            message,
        } => {
            out.push(BODY_ERR);
            put_u32(out, u32::from(*code));
            put_u32(out, *retry_after_ms);
            put_str(out, message);
        }
    }
}

fn read_body(c: &mut Cursor<'_>) -> Result<ReplyBody, DecodeError> {
    match c.u8()? {
        BODY_ROWS => {
            let as_of = c.u64()?;
            let texp = c.u64()?;
            let degraded = c.u8()? != 0;
            let n_attrs = c.u32()? as usize;
            if n_attrs > MAX_FRAME {
                return Err(DecodeError::BadPayload("implausible schema arity"));
            }
            let mut schema = Vec::with_capacity(n_attrs.min(64));
            for _ in 0..n_attrs {
                let name = c.str()?;
                let ty = read_vtype(c)?;
                schema.push((name, ty));
            }
            let n_rows = c.u32()? as usize;
            if n_rows > MAX_FRAME {
                return Err(DecodeError::BadPayload("implausible row count"));
            }
            let mut rows = Vec::with_capacity(n_rows.min(1024));
            for _ in 0..n_rows {
                let arity = c.u32()? as usize;
                if arity > MAX_FRAME {
                    return Err(DecodeError::BadPayload("implausible row arity"));
                }
                let mut values = Vec::with_capacity(arity.min(64));
                for _ in 0..arity {
                    values.push(c.value()?);
                }
                let texp = c.time()?;
                rows.push((values, texp));
            }
            Ok(ReplyBody::Rows {
                as_of,
                texp,
                degraded,
                schema,
                rows,
            })
        }
        BODY_AFFECTED => Ok(ReplyBody::Affected(c.u64()?)),
        BODY_OK => Ok(ReplyBody::Ok(c.str()?)),
        BODY_ERR => {
            let code_raw = c.u32()?;
            let code = u16::try_from(code_raw)
                .map_err(|_| DecodeError::BadPayload("error code out of range"))?;
            let retry_after_ms = c.u32()?;
            let message = c.str()?;
            Ok(ReplyBody::Err {
                code,
                retry_after_ms,
                message,
            })
        }
        _ => Err(DecodeError::BadPayload("unknown reply body tag")),
    }
}

/// Encodes the message payload (no frame header).
#[must_use]
pub fn encode_payload(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match msg {
        Msg::Hello { token, last_seq } => {
            out.push(TAG_HELLO);
            put_u64(&mut out, *token);
            put_u64(&mut out, *last_seq);
        }
        Msg::Welcome { token, applied } => {
            out.push(TAG_WELCOME);
            put_u64(&mut out, *token);
            put_u64(&mut out, *applied);
        }
        Msg::Stmt {
            seq,
            deadline_ms,
            sql,
        } => {
            out.push(TAG_STMT);
            put_u64(&mut out, *seq);
            put_u32(&mut out, *deadline_ms);
            put_str(&mut out, sql);
        }
        Msg::Reply { seq, body } => {
            out.push(TAG_REPLY);
            put_u64(&mut out, *seq);
            put_body(&mut out, body);
        }
        Msg::Shed {
            seq,
            retry_after_ms,
        } => {
            out.push(TAG_SHED);
            put_u64(&mut out, *seq);
            put_u32(&mut out, *retry_after_ms);
        }
        Msg::Bye => out.push(TAG_BYE),
    }
    out
}

/// Decodes one payload (the bytes inside a verified frame).
///
/// # Errors
///
/// [`DecodeError::BadPayload`] on an unknown tag, truncation, or
/// trailing garbage.
pub fn decode_payload(payload: &[u8]) -> Result<Msg, DecodeError> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8()? {
        TAG_HELLO => Msg::Hello {
            token: c.u64()?,
            last_seq: c.u64()?,
        },
        TAG_WELCOME => Msg::Welcome {
            token: c.u64()?,
            applied: c.u64()?,
        },
        TAG_STMT => Msg::Stmt {
            seq: c.u64()?,
            deadline_ms: c.u32()?,
            sql: c.str()?,
        },
        TAG_REPLY => Msg::Reply {
            seq: c.u64()?,
            body: read_body(&mut c)?,
        },
        TAG_SHED => Msg::Shed {
            seq: c.u64()?,
            retry_after_ms: c.u32()?,
        },
        TAG_BYE => Msg::Bye,
        _ => return Err(DecodeError::BadPayload("unknown message tag")),
    };
    if !c.done() {
        return Err(DecodeError::BadPayload("trailing bytes"));
    }
    Ok(msg)
}

/// Encodes a complete frame: `len | crc | payload`.
#[must_use]
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame from the front of `bytes`, returning the message
/// and the number of bytes consumed.
///
/// # Errors
///
/// The same taxonomy as the WAL codec: [`DecodeError::ShortHeader`] /
/// [`DecodeError::TornPayload`] on truncation,
/// [`DecodeError::ImplausibleLength`] on a length above [`MAX_FRAME`],
/// [`DecodeError::BadCrc`] on corruption, [`DecodeError::BadPayload`]
/// on a structurally invalid payload.
pub fn decode_msg(bytes: &[u8]) -> Result<(Msg, usize), DecodeError> {
    if bytes.len() < 8 {
        return Err(DecodeError::ShortHeader);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME {
        return Err(DecodeError::ImplausibleLength(len as u64));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let end = 8 + len;
    if bytes.len() < end {
        return Err(DecodeError::TornPayload);
    }
    let payload = &bytes[8..end];
    if crc32(payload) != crc {
        return Err(DecodeError::BadCrc);
    }
    Ok((decode_payload(payload)?, end))
}

/// Writes one framed message to a stream.
///
/// # Errors
///
/// Propagates the underlying IO error (including write timeouts).
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    w.write_all(&encode_msg(msg))?;
    w.flush()
}

/// The frame reader: incremental, so it survives read timeouts.
///
/// The server uses a short read timeout as its drain-check cadence; a
/// reader that dropped its partially-read bytes on a timeout would lose
/// the prefix of a frame straddling it and desync the stream,
/// spuriously killing the connection on exactly the slow links this
/// layer is built for. A `FrameReader` keeps the bytes already read
/// across calls: a timeout (`WouldBlock`/`TimedOut`) still surfaces as
/// the error it is, but the next call resumes the same frame where it
/// left off. One reader per connection — a reconnect starts a new one.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether a partial frame is buffered — a timeout with bytes
    /// buffered means "peer stalled mid-frame", not "idle connection".
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads one framed message, resuming any partial frame left by an
    /// earlier timed-out call. `Ok(None)` on a clean EOF at a frame
    /// boundary (the peer closed between messages); EOF *inside* a frame
    /// is an error — the connection died mid-message.
    ///
    /// # Errors
    ///
    /// IO errors pass through (on `WouldBlock`/`TimedOut` the buffered
    /// prefix is retained for the next call); decode failures surface
    /// as [`io::ErrorKind::InvalidData`].
    pub fn read_msg<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Msg>> {
        loop {
            if self.buf.len() >= 8 {
                let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("implausible frame length {len}"),
                    ));
                }
                if self.buf.len() >= 8 + len {
                    return match decode_msg(&self.buf) {
                        Ok((msg, used)) => {
                            self.buf.drain(..used);
                            Ok(Some(msg))
                        }
                        Err(e) => Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad frame: {e:?}"),
                        )),
                    };
                }
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// How long a socket read polls before it parks in the kernel. Covers
/// a request/reply peer's turnaround and a write statement's execution;
/// an idle connection pays it once per read timeout.
const POLL_WINDOW: Duration = Duration::from_micros(50);

impl FrameReader {
    /// [`FrameReader::read_msg`] on a socket, polling (yielding between
    /// polls) for [`POLL_WINDOW`] before the blocking read. With one
    /// thread per connection a statement is two sleeps — the server's
    /// for the frame, the client's for the reply — and waking a parked
    /// thread costs microseconds on the CPU it last ran on but tens of
    /// them on an idle one, so without the poll a round trip's time
    /// depends on where the scheduler happened to put the two threads.
    /// A message that arrives inside the window finds its reader awake.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::read_msg`]; a read timeout surfaces from the
    /// blocking read that follows the poll.
    pub(crate) fn read_msg_polling(&mut self, stream: &mut TcpStream) -> io::Result<Option<Msg>> {
        stream.set_nonblocking(true)?;
        let start = Instant::now();
        let polled = loop {
            match self.read_msg(stream) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock && start.elapsed() < POLL_WINDOW =>
                {
                    std::thread::yield_now();
                }
                other => break other,
            }
        };
        stream.set_nonblocking(false)?;
        match polled {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.read_msg(stream),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::value::Value;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Hello {
                token: 0,
                last_seq: 0,
            },
            Msg::Hello {
                token: 0xdead_beef,
                last_seq: 41,
            },
            Msg::Welcome {
                token: 7,
                applied: 12,
            },
            Msg::Stmt {
                seq: 13,
                deadline_ms: 250,
                sql: "INSERT INTO t VALUES (1) EXPIRES IN 5 TICKS".into(),
            },
            Msg::Reply {
                seq: 13,
                body: ReplyBody::Affected(1),
            },
            Msg::Reply {
                seq: 14,
                body: ReplyBody::Ok("t".into()),
            },
            Msg::Reply {
                seq: 15,
                body: ReplyBody::Err {
                    code: 2003,
                    retry_after_ms: 50,
                    message: "shed".into(),
                },
            },
            Msg::Reply {
                seq: 16,
                body: ReplyBody::Rows {
                    as_of: 9,
                    texp: 42,
                    degraded: true,
                    schema: vec![
                        ("uid".into(), ValueType::Int),
                        ("name".into(), ValueType::Str),
                        ("score".into(), ValueType::Float),
                        ("ok".into(), ValueType::Bool),
                    ],
                    rows: vec![
                        (
                            vec![
                                Value::Int(-3),
                                Value::Str("αβ".into()),
                                Value::float(1.5),
                                Value::Bool(true),
                            ],
                            Time::new(17),
                        ),
                        (
                            vec![
                                Value::Int(4),
                                Value::Str(String::new().into()),
                                Value::float(-0.0),
                                Value::Bool(false),
                            ],
                            Time::INFINITY,
                        ),
                    ],
                },
            },
            Msg::Shed {
                seq: 99,
                retry_after_ms: 10,
            },
            Msg::Bye,
        ]
    }

    #[test]
    fn round_trip_every_message() {
        for msg in samples() {
            let frame = encode_msg(&msg);
            let (back, used) = decode_msg(&frame).expect("decode");
            assert_eq!(used, frame.len());
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_prefix_rejected() {
        for msg in samples() {
            let frame = encode_msg(&msg);
            for cut in 0..frame.len() {
                assert!(
                    decode_msg(&frame[..cut]).is_err(),
                    "prefix of len {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_rejected_or_differs() {
        for msg in samples() {
            let frame = encode_msg(&msg);
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[byte] ^= 1 << bit;
                    match decode_msg(&bad) {
                        // A flip in the length prefix can only shrink or
                        // grow the frame; both must fail, and do. A flip
                        // anywhere else must be caught by the CRC.
                        Err(_) => {}
                        Ok((m, _)) => panic!(
                            "bit flip at byte {byte} bit {bit} decoded as {m:?} (was {msg:?})"
                        ),
                    }
                }
            }
        }
    }

    /// A reader that yields at most `chunk` bytes per call and fails
    /// with a timeout between every two productive reads — the worst
    /// case of a frame dribbling in across the server's read-timeout
    /// cadence.
    struct Stutter<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        timeout_next: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.timeout_next && self.pos < self.data.len() {
                self.timeout_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "read timeout"));
            }
            self.timeout_next = true;
            let n = self.chunk.min(self.data.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_partial_frames_across_timeouts() {
        let mut bytes = Vec::new();
        for msg in samples() {
            write_msg(&mut bytes, &msg).unwrap();
        }
        for chunk in [1usize, 3, 7, 64] {
            let mut r = Stutter {
                data: &bytes,
                pos: 0,
                chunk,
                timeout_next: false,
            };
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            let mut timeouts = 0u32;
            loop {
                match reader.read_msg(&mut r) {
                    Ok(Some(m)) => got.push(m),
                    Ok(None) => break,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                    Err(e) => panic!("chunk {chunk}: {e}"),
                }
            }
            assert_eq!(got, samples(), "chunk size {chunk}");
            assert!(timeouts > 0, "the stutter must have fired");
            assert!(!reader.mid_frame(), "no leftover bytes after clean EOF");
        }
    }

    #[test]
    fn polling_read_parks_after_the_window_and_keeps_the_socket_blocking() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let frame = encode_msg(&Msg::Bye);
        let mut reader = FrameReader::new();
        // Nothing sent: the poll gives up, the blocking read times out.
        let err = reader.read_msg_polling(&mut rx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Half a frame, then the rest well past the window and a timeout.
        tx.write_all(&frame[..5]).unwrap();
        let err = reader.read_msg_polling(&mut rx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(reader.mid_frame(), "the prefix survives the timeout");
        tx.write_all(&frame[5..]).unwrap();
        assert_eq!(reader.read_msg_polling(&mut rx).unwrap(), Some(Msg::Bye));
        // The socket is back in blocking mode: a plain read waits out
        // its timeout instead of failing at once.
        let before = Instant::now();
        assert!(reader.read_msg(&mut rx).is_err());
        assert!(before.elapsed() >= Duration::from_millis(4));
        drop(tx);
        assert_eq!(reader.read_msg_polling(&mut rx).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frame_reader_clean_eof_vs_eof_mid_frame() {
        // A whole stream, one read call per message, then a clean EOF.
        let mut stream = Vec::new();
        for msg in samples() {
            write_msg(&mut stream, &msg).unwrap();
        }
        let mut reader = FrameReader::new();
        let mut r: &[u8] = &stream;
        for msg in samples() {
            assert_eq!(reader.read_msg(&mut r).unwrap(), Some(msg));
        }
        assert_eq!(reader.read_msg(&mut r).unwrap(), None, "clean EOF");
        let frame = encode_msg(&Msg::Bye);
        for cut in 1..frame.len() {
            let mut reader = FrameReader::new();
            let mut r: &[u8] = &frame[..cut];
            let err = reader.read_msg(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert!(reader.mid_frame(), "the prefix stays buffered");
        }
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let mut payload = encode_payload(&Msg::Bye);
        payload.push(0);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        assert!(matches!(
            decode_msg(&frame),
            Err(DecodeError::BadPayload("trailing bytes"))
        ));
    }
}
