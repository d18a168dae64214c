//! # exptime-telemetryd — the HTTP scrape plane
//!
//! A dependency-free HTTP/1.1 server (std `TcpListener`, one background
//! thread) that exposes a running engine's observability planes to
//! external scrapers:
//!
//! * `GET /metrics`  — every counter/gauge/histogram, Prometheus text
//!   format by default, JSON when the `Accept` header asks for it
//! * `GET /health`   — the staleness/SLO snapshot as JSON (or the
//!   human-readable rendering under `Accept: text/plain`)
//! * `GET /forecast` — the expiration-horizon forecast: log₂ buckets,
//!   per-table load, view refresh deadlines, storm warnings
//! * `GET /spans`    — the tracer's recent span ring
//! * `GET /profile`  — the query-profile rollup
//! * `GET /`         — a plain-text index of the above
//!
//! The server observes itself: every request lands in a per-endpoint
//! `http.<route>.latency_ns` histogram and `http.<route>.requests`
//! counter in the same registry it serves (so a scrape of `/metrics`
//! reports the cost of scraping `/metrics`), and each request is emitted
//! as an [`EventKind::HttpRequest`] observability event. Unknown paths
//! are bucketed under the `other` route so a hostile client cannot mint
//! unbounded label values from the wire.
//!
//! Telemetry *history* is not served here — it lives in the engine's
//! `_telemetry.*` system tables (see `exptime_engine::telemetry`), where
//! expiration times are the retention policy and plain SQL is the query
//! interface.

#![forbid(unsafe_code)]

use exptime_engine::SharedDatabase;
use exptime_obs::{
    expose_json, expose_prometheus, EventKind, JsonValue, MetricsRegistry, Obs, ProfileStats,
    Profiler, SpanRecord, Tracer, SPAN_RING_CAP,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection socket timeouts: a stalled scraper must not wedge the
/// (single-threaded, sequential) accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on a request head (request line + headers). Anything
/// longer is rejected with 431 before we buffer more of it.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Total deadline for receiving a complete request head. The per-read
/// [`IO_TIMEOUT`] only bounds each `read` call: a slowloris client
/// dripping one byte per just-under-two-seconds would otherwise hold
/// the single accept-loop thread indefinitely. The whole head must
/// arrive within this budget or the connection is dropped.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// The routes the server knows. Requests for anything else are served a
/// 404 and metered under the `other` route, so label cardinality stays
/// bounded no matter what paths arrive from the network.
const ROUTES: [&str; 6] = [
    "/",
    "/metrics",
    "/health",
    "/forecast",
    "/spans",
    "/profile",
];

/// A running scrape server; dropping (or [`TelemetrydHandle::stop`])
/// shuts it down and joins the thread.
pub struct TelemetrydHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetrydHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrydHandle")
            .field("addr", &self.addr)
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TelemetrydHandle {
    /// The address the listener actually bound (port 0 resolves here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Convenience `http://host:port` base URL for the bound address.
    #[must_use]
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops the server and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in `accept`; a throwaway connection from
        // here wakes it so it can observe the flag and exit.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(t) = self.join.take() {
            t.join().ok();
        }
    }
}

impl Drop for TelemetrydHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a request needs, captured once at startup. The metric,
/// event, span, and profile planes are lock-free `Arc` handles into the
/// engine's own registries — only `/health` and `/forecast` take the
/// database mutex, because those snapshots walk live table state.
struct ServerState {
    db: SharedDatabase,
    obs: Obs,
    registry: MetricsRegistry,
    tracer: Tracer,
    profiler: Profiler,
}

/// Starts the scrape server on `addr` (e.g. `127.0.0.1:9187`; port 0
/// picks a free port, reported by [`TelemetrydHandle::addr`]).
///
/// # Errors
///
/// Returns the bind error if the address is unavailable or malformed.
pub fn serve(db: &SharedDatabase, addr: &str) -> io::Result<TelemetrydHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = db.with(|d| ServerState {
        db: db.clone(),
        obs: d.obs().clone(),
        registry: d.metrics().clone(),
        tracer: d.tracer().clone(),
        profiler: d.profiler().clone(),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let join = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if flag.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // One connection at a time: scrapes are short, and the
            // engine behind /health is mutex-guarded anyway. A broken
            // client costs at most the socket timeout.
            let _ = state.handle(stream);
        }
    });
    Ok(TelemetrydHandle {
        addr,
        stop,
        join: Some(join),
    })
}

/// A parsed request head: just the parts this server routes on.
struct Request {
    method: String,
    path: String,
    accept: String,
}

/// One response about to hit the wire.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        let body = JsonValue::Object(vec![
            ("error".into(), JsonValue::String(message.into())),
            ("status".into(), JsonValue::Uint(u64::from(status))),
        ]);
        Response {
            status,
            content_type: "application/json",
            body: format!("{}\n", body.render()),
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

impl ServerState {
    fn handle(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let started = Instant::now();
        let (req, resp) = match read_head(&mut stream) {
            Ok(head) => match parse_request(&head) {
                Some(req) => {
                    let resp = self.route(&req);
                    (Some(req), resp)
                }
                None => (None, Response::error(400, "malformed request line")),
            },
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                (None, Response::error(431, "request head too large"))
            }
            Err(e) => return Err(e),
        };
        let out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            resp.status,
            status_text(resp.status),
            resp.content_type,
            resp.body.len(),
            resp.body
        );
        let written = stream
            .write_all(out.as_bytes())
            .and_then(|()| stream.flush());
        self.observe(req.as_ref(), resp.status, started.elapsed());
        written
    }

    /// The server watching itself: per-route latency + request counters
    /// in the registry it serves, plus an event on the obs stream. The
    /// label is always one of the fixed [`ROUTES`] (or `other`), never
    /// raw client input.
    fn observe(&self, req: Option<&Request>, status: u16, elapsed: Duration) {
        let route = match req {
            Some(r) if ROUTES.contains(&r.path.as_str()) => r.path.as_str(),
            _ => "other",
        };
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.registry
            .histogram(&format!("http.{route}.latency_ns"))
            .record(ns);
        self.registry
            .counter(&format!("http.{route}.requests"))
            .inc();
        self.obs.emit_with(None, || EventKind::HttpRequest {
            method: req.map_or_else(|| "?".into(), |r| r.method.clone()),
            path: route.to_string(),
            status,
            ns,
        });
    }

    fn route(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is supported");
        }
        let wants_json = req.accept.contains("application/json");
        let wants_text = req.accept.contains("text/plain");
        match req.path.as_str() {
            "/" => Response::ok("text/plain; charset=utf-8", index_page()),
            "/metrics" => {
                if wants_json {
                    Response::ok(
                        "application/json",
                        format!("{}\n", expose_json(&self.registry)),
                    )
                } else {
                    Response::ok(
                        "text/plain; version=0.0.4; charset=utf-8",
                        expose_prometheus(&self.registry),
                    )
                }
            }
            "/health" => {
                let health = self.db.with(|d| d.health());
                if wants_text && !wants_json {
                    Response::ok("text/plain; charset=utf-8", format!("{health}"))
                } else {
                    Response::ok(
                        "application/json",
                        format!("{}\n", health_json(&health).render()),
                    )
                }
            }
            "/forecast" => {
                let fc = self.db.with(|d| d.forecast());
                if wants_text && !wants_json {
                    Response::ok("text/plain; charset=utf-8", fc.render(40))
                } else {
                    Response::ok(
                        "application/json",
                        format!("{}\n", forecast_json(&fc).render()),
                    )
                }
            }
            "/spans" => {
                let spans = self.tracer.recent(SPAN_RING_CAP);
                let doc = spans_json(&spans, self.tracer.dropped());
                Response::ok("application/json", format!("{}\n", doc.render()))
            }
            "/profile" => {
                let stats = self.profiler.snapshot();
                Response::ok(
                    "application/json",
                    format!("{}\n", profile_json(&stats).render()),
                )
            }
            _ => Response::error(404, "unknown endpoint; GET / lists the available ones"),
        }
    }
}

fn index_page() -> String {
    "exptime-telemetryd\n\
     /metrics   counters, gauges, histograms (Prometheus text; JSON via Accept)\n\
     /health    staleness/SLO snapshot (JSON; text via Accept)\n\
     /forecast  expiration-horizon forecast (JSON; text via Accept)\n\
     /spans     recent tracing spans (JSON)\n\
     /profile   query-profile rollup (JSON)\n"
        .to_string()
}

/// Reads the request head (through the `\r\n\r\n` terminator), bounded
/// by [`MAX_HEAD_BYTES`]. Any body is ignored — every endpoint is a GET.
fn read_head(stream: &mut TcpStream) -> io::Result<String> {
    read_head_within(stream, HEAD_DEADLINE)
}

/// [`read_head`] with an explicit total deadline (tests inject a short
/// one so the slowloris rejection is provable without a 5s wait). A
/// client that is too slow gets one error kind, [`io::ErrorKind::TimedOut`],
/// whichever timer catches it: the total deadline, or the socket's own
/// read timeout — which the OS reports as `WouldBlock` on Linux, and which
/// is capped at the time remaining so no read waits past the deadline.
fn read_head_within(stream: &mut TcpStream, deadline: Duration) -> io::Result<String> {
    let too_slow = || {
        io::Error::new(
            io::ErrorKind::TimedOut,
            "request head did not complete within the deadline",
        )
    };
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let started = Instant::now();
    loop {
        let remaining = deadline
            .checked_sub(started.elapsed())
            .filter(|left| !left.is_zero())
            .ok_or_else(too_slow)?;
        let per_read = stream
            .read_timeout()?
            .map_or(remaining, |t| t.min(remaining));
        stream.set_read_timeout(Some(per_read))?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(too_slow());
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        // Cap before terminator: an oversized head is rejected even when
        // its final chunk happens to carry the `\r\n\r\n`.
        if buf.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Parses `METHOD /path HTTP/1.x` plus the `Accept` header; everything
/// else in the head is irrelevant to routing.
fn parse_request(head: &str) -> Option<Request> {
    let mut lines = head.lines();
    let mut first = lines.next()?.split_whitespace();
    let method = first.next()?.to_string();
    let target = first.next()?;
    first.next()?.starts_with("HTTP/").then_some(())?;
    // Strip any query string: routing is path-only.
    let path = target.split('?').next().unwrap_or(target).to_string();
    let accept = lines
        .take_while(|l| !l.trim().is_empty())
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("accept")
                .then(|| value.trim().to_ascii_lowercase())
        })
        .unwrap_or_default();
    Some(Request {
        method,
        path,
        accept,
    })
}

// ---------------------------------------------------------------------
// JSON projections of the engine's snapshot types. Built by hand (the
// repo has no serde); shapes are stable and covered by tests.
// ---------------------------------------------------------------------

fn opt_u64(v: Option<u64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::Uint)
}

fn hist_json(h: &exptime_obs::HistogramSnapshot) -> JsonValue {
    JsonValue::Object(vec![
        ("count".into(), JsonValue::Uint(h.count)),
        ("p50".into(), JsonValue::Float(h.p50())),
        ("p99".into(), JsonValue::Float(h.p99())),
    ])
}

/// The `/health` document: status, per-view staleness, SLO breach
/// counts, and the three latency distributions.
#[must_use]
pub fn health_json(h: &exptime_obs::Health) -> JsonValue {
    let views = h
        .views
        .iter()
        .map(|v| {
            JsonValue::Object(vec![
                ("view".into(), JsonValue::String(v.view.clone())),
                ("texp".into(), opt_u64(v.texp)),
                ("ttx".into(), v.ttx.map_or(JsonValue::Null, JsonValue::Int)),
                ("stale".into(), JsonValue::Bool(v.is_stale())),
                (
                    "last_decision".into(),
                    v.last_decision
                        .map_or(JsonValue::Null, |d| JsonValue::String(d.to_string())),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("status".into(), JsonValue::String(h.status.to_string())),
        ("now".into(), JsonValue::Uint(h.now)),
        ("views".into(), JsonValue::Array(views)),
        (
            "breaches".into(),
            JsonValue::Object(vec![
                (
                    "trigger_lateness".into(),
                    JsonValue::Uint(h.trigger_lateness_breaches),
                ),
                (
                    "refresh_latency".into(),
                    JsonValue::Uint(h.refresh_latency_breaches),
                ),
                ("resync_lag".into(), JsonValue::Uint(h.resync_lag_breaches)),
                ("total".into(), JsonValue::Uint(h.total_breaches())),
            ]),
        ),
        ("trigger_lateness".into(), hist_json(&h.trigger_lateness)),
        ("refresh_ns".into(), hist_json(&h.refresh_ns)),
        ("resync_lag".into(), hist_json(&h.resync_lag)),
    ])
}

fn horizon_json(fc: &exptime_obs::HorizonForecast) -> JsonValue {
    JsonValue::Object(vec![
        ("expiring".into(), JsonValue::Uint(fc.expiring())),
        ("eternal".into(), JsonValue::Uint(fc.eternal())),
        ("total".into(), JsonValue::Uint(fc.total())),
        (
            "buckets".into(),
            JsonValue::Array(fc.buckets().iter().map(|&b| JsonValue::Uint(b)).collect()),
        ),
    ])
}

/// The `/forecast` document: the merged horizon, per-table horizons,
/// view refresh deadlines, and storm warnings.
#[must_use]
pub fn forecast_json(fc: &exptime_engine::DbForecast) -> JsonValue {
    JsonValue::Object(vec![
        ("now".into(), JsonValue::Uint(fc.now)),
        ("horizon".into(), horizon_json(&fc.horizon)),
        (
            "tables".into(),
            JsonValue::Array(
                fc.tables
                    .iter()
                    .map(|(name, h)| {
                        JsonValue::Object(vec![
                            ("table".into(), JsonValue::String(name.clone())),
                            ("horizon".into(), horizon_json(h)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "views".into(),
            JsonValue::Array(
                fc.views
                    .iter()
                    .map(|(name, due)| {
                        JsonValue::Object(vec![
                            ("view".into(), JsonValue::String(name.clone())),
                            ("refresh_due_in".into(), opt_u64(*due)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "storms".into(),
            JsonValue::Array(
                fc.storms
                    .iter()
                    .map(|s| {
                        JsonValue::Object(vec![
                            ("bucket".into(), JsonValue::Uint(s.bucket as u64)),
                            ("lo".into(), JsonValue::Uint(s.lo)),
                            ("hi".into(), JsonValue::Uint(s.hi)),
                            ("predicted".into(), JsonValue::Uint(s.predicted)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `/spans` document: the tracer ring, oldest first, plus how many
/// older spans the ring has already evicted.
#[must_use]
pub fn spans_json(spans: &[SpanRecord], dropped: u64) -> JsonValue {
    let items = spans
        .iter()
        .map(|s| {
            JsonValue::Object(vec![
                ("id".into(), JsonValue::Uint(s.id)),
                ("parent".into(), opt_u64(s.parent)),
                ("name".into(), JsonValue::String(s.name.clone())),
                ("start_ns".into(), JsonValue::Uint(s.start_ns)),
                ("duration_ns".into(), JsonValue::Uint(s.duration_ns())),
                ("logical_time".into(), opt_u64(s.logical_time)),
                (
                    "attrs".into(),
                    JsonValue::Object(
                        s.attrs
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("count".into(), JsonValue::Uint(spans.len() as u64)),
        ("dropped".into(), JsonValue::Uint(dropped)),
        ("spans".into(), JsonValue::Array(items)),
    ])
}

/// The `/profile` document: always-on statement totals plus the sampled
/// per-operator aggregate.
#[must_use]
pub fn profile_json(p: &ProfileStats) -> JsonValue {
    JsonValue::Object(vec![
        ("statements".into(), JsonValue::Uint(p.statements)),
        ("sampled".into(), JsonValue::Uint(p.sampled)),
        ("rows_scanned".into(), JsonValue::Uint(p.rows_scanned)),
        (
            "tuples_materialized".into(),
            JsonValue::Uint(p.tuples_materialized),
        ),
        ("change_points".into(), JsonValue::Uint(p.change_points)),
        ("patch_ops".into(), JsonValue::Uint(p.patch_ops)),
        ("allocations".into(), JsonValue::Uint(p.allocations)),
        ("wall_ns".into(), JsonValue::Uint(p.wall_ns)),
        (
            "by_operator".into(),
            JsonValue::Array(
                p.by_operator
                    .iter()
                    .map(|(op, agg)| {
                        JsonValue::Object(vec![
                            ("operator".into(), JsonValue::String(op.clone())),
                            ("calls".into(), JsonValue::Uint(agg.calls)),
                            ("rows_out".into(), JsonValue::Uint(agg.rows_out)),
                            ("self_ns".into(), JsonValue::Uint(agg.self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "last".into(),
            p.last.as_ref().map_or(JsonValue::Null, |q| {
                JsonValue::Object(vec![
                    ("label".into(), JsonValue::String(q.label.clone())),
                    ("wall_ns".into(), JsonValue::Uint(q.wall_ns)),
                    ("rows_scanned".into(), JsonValue::Uint(q.rows_scanned)),
                ])
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_engine::{DbConfig, TelemetryConfig};
    use exptime_obs::parse_prometheus_text;

    fn demo_db() -> SharedDatabase {
        let config = DbConfig {
            telemetry: TelemetryConfig::enabled(4, 64),
            ..DbConfig::default()
        };
        let db = SharedDatabase::new(config);
        db.with(|d| d.tracer().enable());
        db.execute("CREATE TABLE pol (uid INT, deg INT)").unwrap();
        db.execute("INSERT INTO pol VALUES (1, 25) EXPIRES AT 10")
            .unwrap();
        db.execute("INSERT INTO pol VALUES (2, 35) EXPIRES NEVER")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        db.execute("SELECT * FROM hot").unwrap();
        // A TTL-policy table: the insert is clamped (30 → 10) and the
        // read after the tick slides it, so both `policy.*` counters are
        // non-zero in every scrape.
        db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING ON ACCESS CLAMP 1..10")
            .unwrap();
        db.execute("INSERT INTO sess VALUES (7)").unwrap();
        db.tick(5);
        db.execute("SELECT * FROM sess").unwrap();
        db
    }

    /// A minimal blocking HTTP client: one GET, full response as
    /// (status, headers, body).
    fn get(addr: SocketAddr, path: &str, accept: &str) -> (u16, String, String) {
        request(
            addr,
            &format!(
                "GET {path} HTTP/1.1\r\nHost: x\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"
            ),
        )
    }

    /// A slow-drip client that half-sends a request must be cut off by
    /// the total head deadline — the per-read timeout alone would let
    /// one byte per just-under-two-seconds pin the accept loop forever —
    /// and is reported as `TimedOut` even when, on a loaded host, a drip
    /// arrives late and the per-read timeout is what fires.
    #[test]
    fn slowloris_half_request_is_cut_off_by_the_head_deadline() {
        // Dripping: the total deadline fires. Silent after the first
        // bytes: the per-read timeout fires. Same error either way.
        for drip in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(50)))
                    .unwrap();
                read_head_within(&mut stream, Duration::from_millis(300))
            });
            let mut client = TcpStream::connect(addr).unwrap();
            // Half a request line, then a drip feed that never finishes
            // the head.
            client.write_all(b"GET /metr").unwrap();
            let started = Instant::now();
            for _ in 0..40 {
                if server.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
                if drip && client.write_all(b"i").is_err() {
                    break; // server hung up on us, as it should
                }
            }
            let result = server.join().unwrap();
            let waited = started.elapsed();
            let err = result.expect_err("half-sent head must not parse");
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "drip {drip}: {err}");
            assert!(
                waited < Duration::from_secs(3),
                "deadline must fire promptly, waited {waited:?}"
            );
        }
    }

    /// A head that completes *within* the deadline is unaffected.
    #[test]
    fn slow_but_complete_head_still_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            read_head_within(&mut stream, Duration::from_secs(2))
        });
        let mut client = TcpStream::connect(addr).unwrap();
        for part in ["GET / ", "HTTP/1.1\r\n", "Host: x\r\n", "\r\n"] {
            client.write_all(part.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let head = server.join().unwrap().expect("complete head parses");
        assert!(head.starts_with("GET / HTTP/1.1"));
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("header terminator");
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        (status, head.to_string(), body.to_string())
    }

    #[test]
    fn metrics_scrape_round_trips_through_the_parser() {
        let db = demo_db();
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let (status, head, body) = get(srv.addr(), "/metrics", "*/*");
        assert_eq!(status, 200);
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        let samples = parse_prometheus_text(&body).expect("valid exposition");
        assert!(samples.iter().any(|s| s.name == "exptime_db_inserts"));
        // The TTL policy layer's counters scrape too: the cross-table
        // totals (unlabelled) and the per-table series.
        for family in ["exptime_policy_sliding_touches", "exptime_policy_clamped"] {
            assert!(
                samples
                    .iter()
                    .any(|s| s.name == family && s.labels.is_empty() && s.value >= 1.0),
                "{family} total missing or zero:\n{body}"
            );
            assert!(
                samples.iter().any(|s| s.name == family
                    && s.labels.iter().any(|(k, v)| k == "table" && v == "sess")),
                "{family}{{table=\"sess\"}} missing:\n{body}"
            );
        }
        // The engine's sampler ran (tick 5, sample_every 4), so its own
        // counters are visible in the scrape.
        assert!(
            body.contains("exptime_telemetry_samples"),
            "sampler metrics missing:\n{body}"
        );
        // The scrape we just did is itself metered: scrape again and the
        // per-endpoint family shows up with the route label.
        let (_, _, body2) = get(srv.addr(), "/metrics", "*/*");
        assert!(
            body2.contains("exptime_http_requests{endpoint=\"/metrics\"}"),
            "{body2}"
        );
        assert!(body2.contains("exptime_http_latency_ns_bucket{endpoint=\"/metrics\""));
        parse_prometheus_text(&body2).expect("self-metrics still valid");
        srv.stop();
    }

    #[test]
    fn content_negotiation_and_json_endpoints() {
        let db = demo_db();
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let (status, head, body) = get(srv.addr(), "/metrics", "application/json");
        assert_eq!(status, 200);
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"counters\""), "{body}");

        let (status, _, body) = get(srv.addr(), "/health", "*/*");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        assert!(body.contains("\"view\": \"hot\""), "{body}");
        let (_, head, body) = get(srv.addr(), "/health", "text/plain");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("status: ok"), "{body}");

        let (status, _, body) = get(srv.addr(), "/forecast", "*/*");
        assert_eq!(status, 200);
        assert!(body.contains("\"horizon\""), "{body}");
        assert!(body.contains("\"table\": \"pol\""), "{body}");
        // _telemetry system tables are live rows: the forecast sees them.
        assert!(body.contains("_telemetry.metrics"), "{body}");

        let (status, _, body) = get(srv.addr(), "/spans", "*/*");
        assert_eq!(status, 200);
        assert!(body.contains("\"spans\""), "{body}");
        assert!(body.contains("sql"), "{body}");

        let (status, _, body) = get(srv.addr(), "/profile", "*/*");
        assert_eq!(status, 200);
        assert!(body.contains("\"statements\""), "{body}");

        let (status, _, body) = get(srv.addr(), "/", "*/*");
        assert_eq!(status, 200);
        assert!(body.contains("/metrics"), "{body}");
        srv.stop();
    }

    #[test]
    fn error_paths_are_metered_under_the_other_route() {
        let db = demo_db();
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let (status, _, body) = get(srv.addr(), "/nope", "*/*");
        assert_eq!(status, 404);
        assert!(body.contains("unknown endpoint"), "{body}");
        let (status, _, _) = request(srv.addr(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _, _) = request(srv.addr(), "garbage\r\n\r\n");
        assert_eq!(status, 400);
        // Hostile paths never mint label values: they land on `other`.
        let (_, _, body) = get(srv.addr(), "/metrics", "*/*");
        assert!(
            body.contains("exptime_http_requests{endpoint=\"other\"}"),
            "{body}"
        );
        assert!(!body.contains("nope"), "{body}");
        srv.stop();
    }

    #[test]
    fn oversized_request_heads_are_rejected() {
        let db = demo_db();
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let raw = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let (status, _, _) = request(srv.addr(), &raw);
        assert_eq!(status, 431);
        srv.stop();
    }

    #[test]
    fn requests_emit_observability_events() {
        let db = demo_db();
        let ring = db.with(|d| d.obs().install_ring(64));
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let _ = get(srv.addr(), "/health", "*/*");
        srv.stop();
        let events = ring.recent(64);
        let hit = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::HttpRequest { .. }))
            .expect("http_request event");
        let EventKind::HttpRequest {
            ref method,
            ref path,
            status,
            ..
        } = hit.kind
        else {
            unreachable!()
        };
        assert_eq!(method, "GET");
        assert_eq!(path, "/health");
        assert_eq!(status, 200);
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let db = demo_db();
        let srv = serve(&db, "127.0.0.1:0").unwrap();
        let addr = srv.addr();
        srv.stop();
        // The listener is gone: rebinding the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }
}
