//! Embedded observability endpoint: a dependency-free HTTP server plus
//! the plane that feeds it.
//!
//! [`ObsPlane`] is an [`EventSink`] that fans each per-period
//! [`ControlTrace`] into three consumers:
//!
//! 1. a [`SharedRecorder`] trace ring (served by `/trace`),
//! 2. a [`SharedDiagnostics`] controller-health engine (served by
//!    `/health`, `/ready`, and the `streamshed_diag_*` metric families),
//! 3. optionally a [`FlightRecorder`] — on a transition *into* an
//!    anomalous state the plane snapshots the ring + diagnostics to a
//!    JSONL bundle on disk.
//!
//! [`ObsServer`] is a deliberately small HTTP/1.0-style server on
//! [`std::net::TcpListener`]: one supervised accept thread, connections
//! handled serially (inherently bounded), per-connection read timeout,
//! request size cap, graceful shutdown by flag + self-connect. It serves:
//!
//! | endpoint | contract |
//! |---|---|
//! | `GET /metrics` | Prometheus text (engine counters + diagnostics families), always 200 |
//! | `GET /health` | [`DiagnosticsSnapshot`] JSON; **503 while `Diverging`**, 200 otherwise |
//! | `GET /ready` | `{"ready":…}`; 503 until the first control period has been observed |
//! | `GET /trace?last=N` | JSON array of the newest `N` ring records (default 64); `&format=csv` for CSV |
//! | `GET /profile` | per-stage latency shares and percentiles as JSON |
//!
//! Anything else is 404; non-GET methods are 405. The server never
//! panics the process: per-connection handling runs under
//! `catch_unwind`. The endpoint table itself is [`route_get`], a pure
//! function the network front door's listener calls too, so both ports
//! answer identically.
//!
//! [`ShardedEngine`](crate::shard::ShardedEngine) wires all of this up
//! behind an opt-in [`ObsOptions`] — see its `spawn_observed`
//! constructor.

use crate::diagnostics::{DiagnosticsConfig, DiagnosticsSnapshot, SharedDiagnostics};
use crate::flight::{FlightConfig, FlightRecorder};
use crate::telemetry::{ControlTrace, EventSink, SharedRecorder, SpanKind};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// HTTP server tuning.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address. Default `127.0.0.1:0` (loopback, OS-chosen port —
    /// read the real one from [`ObsServer::addr`]).
    pub addr: String,
    /// Per-connection read/write timeout (a stalled client cannot hold
    /// the serial accept loop hostage for longer than this).
    pub io_timeout: Duration,
    /// Maximum bytes of request head read before the connection is
    /// rejected with 431.
    pub max_request_bytes: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            io_timeout: Duration::from_millis(500),
            max_request_bytes: 8 * 1024,
        }
    }
}

/// Opt-in observability configuration for the engine's `spawn_observed`
/// constructor.
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// HTTP endpoint; `None` runs diagnostics + flight recording without
    /// a server.
    pub http: Option<HttpConfig>,
    /// Controller-health diagnostics tuning.
    pub diagnostics: DiagnosticsConfig,
    /// Capacity of the trace ring behind `/trace` and the flight
    /// recorder.
    pub trace_capacity: usize,
    /// Anomaly flight recorder; `None` disables bundle writing.
    pub flight: Option<FlightConfig>,
}

impl ObsOptions {
    /// Defaults for a delay target: HTTP on loopback, diagnostics tuned
    /// by [`DiagnosticsConfig::for_target`], a 1024-period ring, no
    /// flight recorder.
    pub fn for_target(target_delay: Duration) -> Self {
        Self {
            http: Some(HttpConfig::default()),
            diagnostics: DiagnosticsConfig::for_target(target_delay),
            trace_capacity: 1024,
            flight: None,
        }
    }

    /// Adds an anomaly flight recorder writing into `dir`.
    pub fn with_flight_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.flight = Some(FlightConfig::new(dir));
        self
    }

    /// Adds an anomaly flight recorder writing into a per-run
    /// subdirectory of `base` (see [`FlightConfig::for_run`]) — campaign
    /// hygiene: concurrent runs keep their own bundle retention instead
    /// of evicting each other in a shared directory.
    pub fn with_flight_run_dir(
        mut self,
        base: impl Into<std::path::PathBuf>,
        run_key: &str,
    ) -> Self {
        self.flight = Some(FlightConfig::for_run(base, run_key));
        self
    }

    /// Replaces the HTTP configuration (e.g. to pin a port).
    pub fn with_http_addr(mut self, addr: impl Into<String>) -> Self {
        let mut http = self.http.unwrap_or_default();
        http.addr = addr.into();
        self.http = Some(http);
        self
    }
}

// ---------------------------------------------------------------------------
// ObsPlane
// ---------------------------------------------------------------------------

/// Lock-free cache of the newest self-tuning telemetry, behind the
/// `streamshed_adapt_*` metric families. Written on every period whose
/// [`ControlTrace`] carries adaptive state (see
/// [`ControlTrace::has_adapt`]); never written by plain controllers, so
/// the families stay absent from `/metrics` until a self-tuning
/// strategy is actually driving the loop.
#[derive(Debug, Default)]
struct AdaptCache {
    /// `f64::to_bits` of the newest re-identified per-tuple cost, µs.
    cost_bits: AtomicU64,
    /// Gain generation (increments on every scheduler retune).
    generation: AtomicU64,
    /// Bumpless swaps performed.
    swaps: AtomicU64,
    /// Comparator arm index, offset by 1 (0 = none yet / not a
    /// comparator; the wire value is `arm + 1` so the atomic can stay
    /// unsigned).
    arm_plus_one: AtomicU64,
    /// Whether any adaptive trace has been observed.
    seen: AtomicBool,
}

/// The cloneable hub the engines feed per period and the HTTP endpoints
/// read. See the module docs for the fan-out.
#[derive(Debug, Clone)]
pub struct ObsPlane {
    recorder: SharedRecorder,
    diagnostics: SharedDiagnostics,
    flight: Option<Arc<Mutex<FlightRecorder>>>,
    periods: Arc<AtomicU64>,
    adapt: Arc<AdaptCache>,
    spans: crate::spans::SpanRegistry,
}

impl ObsPlane {
    /// Builds the plane from options (ignores `options.http`; the server
    /// is started separately so the plane works headless).
    pub fn new(options: &ObsOptions) -> Self {
        Self {
            recorder: SharedRecorder::with_capacity(options.trace_capacity),
            diagnostics: SharedDiagnostics::new(options.diagnostics.clone()),
            flight: options
                .flight
                .clone()
                .map(|cfg| Arc::new(Mutex::new(FlightRecorder::new(cfg)))),
            periods: Arc::new(AtomicU64::new(0)),
            adapt: Arc::new(AdaptCache::default()),
            spans: crate::spans::SpanRegistry::new(),
        }
    }

    /// The latency truth plane's span registry: engines register their
    /// worker / listener recorder slots here, and `/profile` plus the
    /// `streamshed_latency_*` families drain it.
    pub fn spans(&self) -> &crate::spans::SpanRegistry {
        &self.spans
    }

    /// The trace ring (e.g. to export after a run).
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// The controller-health engine.
    pub fn diagnostics(&self) -> &SharedDiagnostics {
        &self.diagnostics
    }

    /// Current health verdict.
    pub fn health(&self) -> DiagnosticsSnapshot {
        self.diagnostics.snapshot()
    }

    /// Flight bundles written so far (0 when no recorder is attached).
    pub fn flight_bundles_written(&self) -> u64 {
        self.flight
            .as_ref()
            .map(|f| crate::lock_unpoisoned(f).bundles_written())
            .unwrap_or(0)
    }

    /// Control periods observed (drives `/ready`).
    pub fn periods_observed(&self) -> u64 {
        self.periods.load(Ordering::Relaxed)
    }

    /// Appends the `streamshed_adapt_*` families to a Prometheus
    /// builder — the self-tuning plane's external surface: the current
    /// re-identified per-tuple cost ĉ, the gain generation, the bumpless
    /// swap count, and the comparator's active arm. Emits nothing until
    /// a self-tuning strategy has produced at least one trace.
    pub fn render_adapt_prom(&self, p: &mut crate::telemetry::PromText) {
        if !self.adapt.seen.load(Ordering::Relaxed) {
            return;
        }
        p.gauge(
            "adapt_cost_estimate_us",
            "Re-identified per-tuple cost estimate driving the gain scheduler, microseconds",
            f64::from_bits(self.adapt.cost_bits.load(Ordering::Relaxed)),
        )
        .gauge(
            "adapt_gain_generation",
            "Gain-schedule generation (increments on every pole-placement retune)",
            self.adapt.generation.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "adapt_swaps_total",
            "Bumpless controller-gain swaps performed",
            self.adapt.swaps.load(Ordering::Relaxed) as f64,
        )
        .gauge(
            "adapt_comparator_arm",
            "Active comparator arm index (-1 when the strategy is not the comparator)",
            self.adapt.arm_plus_one.load(Ordering::Relaxed) as f64 - 1.0,
        );
    }

    fn on_trace(&self, trace: &ControlTrace) {
        if trace.has_adapt() {
            self.adapt.cost_bits.store(trace.adapt_cost_us.to_bits(), Ordering::Relaxed);
            self.adapt.generation.store(trace.adapt_generation, Ordering::Relaxed);
            self.adapt.swaps.store(trace.adapt_swaps, Ordering::Relaxed);
            self.adapt
                .arm_plus_one
                .store((trace.adapt_arm + 1).max(0) as u64, Ordering::Relaxed);
            self.adapt.seen.store(true, Ordering::Relaxed);
        }
        let mut rec = self.recorder.clone();
        rec.record(trace);
        let transition = self.diagnostics.observe(trace);
        self.periods.fetch_add(1, Ordering::Relaxed);
        if let Some((_, to)) = transition {
            if to.is_anomalous() {
                if let Some(flight) = &self.flight {
                    let snap = self.diagnostics.snapshot();
                    let traces = self.recorder.snapshot();
                    let profile = self.spans.snapshot();
                    // The recorder's state is a few independent counters,
                    // valid even if an earlier bundle write panicked.
                    crate::lock_unpoisoned(flight).record_transition_profiled(
                        trace.k,
                        to,
                        &snap,
                        &traces,
                        Some(&profile),
                    );
                }
            }
        }
    }
}

impl EventSink for ObsPlane {
    fn record(&mut self, trace: &ControlTrace) {
        self.on_trace(trace);
    }

    fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        let mut rec = self.recorder.clone();
        rec.record_span(kind, nanos);
    }
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

/// Renders the `/metrics` body. The engines capture their own counters
/// in this closure (and append the diagnostics families), so the server
/// stays dumb.
pub type MetricsFn = Arc<dyn Fn() -> String + Send + Sync>;

/// The embedded HTTP endpoint. Owns one accept thread; dropped or
/// [`ObsServer::stop`]ped, it shuts the thread down gracefully.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `cfg.addr` and starts serving `plane` (with `metrics`
    /// rendering the `/metrics` body). Fails only on bind errors.
    pub fn start(cfg: HttpConfig, plane: ObsPlane, metrics: MetricsFn) -> std::io::Result<Self> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("streamshed-obs".into())
            .spawn(move || accept_loop(listener, cfg, plane, metrics, stop_t))
            .expect("spawn obs thread");
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the OS-chosen port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: flags the accept loop, wakes it with a
    /// self-connection, joins the thread. Idempotent.
    pub fn stop(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept; a failed connect means the listener
        // is already gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: HttpConfig,
    plane: ObsPlane,
    metrics: MetricsFn,
    stop: Arc<AtomicBool>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Supervised: a panic in request handling must not kill the
        // endpoint for the rest of the run.
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(stream, &cfg, &plane, &metrics)
        }));
        if result.is_err() {
            // Swallow and keep serving; the next scrape still works.
        }
    }
}

fn handle_connection(mut stream: TcpStream, cfg: &HttpConfig, plane: &ObsPlane, metrics: &MetricsFn) {
    let _ = stream.set_read_timeout(Some(cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    let (status, content_type, body) = match read_request_head(&mut stream, cfg.max_request_bytes) {
        Ok(line) => {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(target)) => {
                    let (path, query) = target.split_once('?').unwrap_or((target, ""));
                    route_get(Some(plane), metrics.as_ref(), path, query)
                }
                (Some(_), Some(_)) => error_response(405),
                _ => error_response(400),
            }
        }
        Err(status) => error_response(status),
    };
    let _ = stream.write_all(http_head(status, content_type, body.len()).as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Reads the request head (through the blank line), returning the
/// request line. Errors map to an HTTP status.
fn read_request_head(stream: &mut TcpStream, max_bytes: usize) -> Result<String, u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() >= max_bytes {
            return Err(431);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(408),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("").to_string();
    if line.is_empty() {
        Err(400)
    } else {
        Ok(line)
    }
}

/// `(status, content_type, body)` of one HTTP response.
pub type HttpResponse = (u16, &'static str, String);

/// Answers one `GET` for the observability endpoints — the single router
/// behind both [`ObsServer`] and the network front door's listener.
/// `metrics` renders the `/metrics` body; `plane` backs `/health`,
/// `/ready`, `/trace[?last=N][&format=csv]` and `/profile`, which are
/// 404 when no plane is attached. Pure: no I/O, so callers own the
/// socket (blocking here, nonblocking in the net plane).
pub fn route_get(
    plane: Option<&ObsPlane>,
    metrics: &dyn Fn() -> String,
    path: &str,
    query: &str,
) -> HttpResponse {
    const JSON: &str = "application/json";
    if path == "/metrics" {
        return (200, "text/plain; version=0.0.4; charset=utf-8", metrics());
    }
    let Some(plane) = plane else {
        return error_response(404);
    };
    match path {
        "/health" => {
            let snap = plane.health();
            (snap.http_status(), JSON, snap.to_json())
        }
        "/ready" => {
            let periods = plane.periods_observed();
            let ready = periods > 0;
            let body = format!("{{\"ready\":{ready},\"periods\":{periods}}}");
            (if ready { 200 } else { 503 }, JSON, body)
        }
        "/trace" => {
            // Hostile `last` values (overflowing digits, negatives, junk)
            // fall back to the default; anything larger than the ring is
            // clamped by the saturating skip below.
            let last = query_param(query, "last")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(64);
            let traces = plane.recorder().snapshot();
            let newest = &traces[traces.len().saturating_sub(last)..];
            if query_param(query, "format") == Some("csv") {
                return (200, "text/csv; charset=utf-8", crate::telemetry::export_csv(newest));
            }
            let items: Vec<String> = newest.iter().map(|t| t.to_jsonl()).collect();
            (200, JSON, format!("[{}]", items.join(",")))
        }
        "/profile" => (200, JSON, plane.spans().snapshot().to_json()),
        _ => error_response(404),
    }
}

/// Extracts `key=value` from a query string (no percent decoding — the
/// accepted parameters are plain integers and keywords).
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// The plain-text response for an error status: its reason phrase.
pub fn error_response(status: u16) -> HttpResponse {
    (status, "text/plain", reason_phrase(status).to_string())
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// The response head (status line + headers + blank line) for a body of
/// `len` bytes; every response closes its connection.
pub fn http_head(status: u16, content_type: &str, len: usize) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n",
        reason_phrase(status)
    )
}

// ---------------------------------------------------------------------------
// Minimal client (experiments, tests, CI smoke)
// ---------------------------------------------------------------------------

/// One blocking `GET` against an [`ObsServer`] (or anything speaking
/// HTTP/1.x), returning `(status, body)`. Deliberately minimal — just
/// enough for the self-monitoring experiment and the CI smoke test.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The observability attachment an engine holds when spawned observed:
/// the plane plus the optional HTTP server.
#[derive(Debug)]
pub struct ObsHandle {
    /// The plane the engine's tracing seam feeds.
    pub plane: ObsPlane,
    server: Option<ObsServer>,
}

impl ObsHandle {
    /// Builds the plane and (if configured) starts the HTTP server with
    /// the given `/metrics` renderer.
    pub fn start(options: &ObsOptions, metrics: MetricsFn) -> std::io::Result<Self> {
        let plane = ObsPlane::new(options);
        let server = match &options.http {
            Some(http) => Some(ObsServer::start(http.clone(), plane.clone(), metrics)?),
            None => None,
        };
        Ok(Self { plane, server })
    }

    /// Assembles a handle from an existing plane and server — for
    /// engines that must build the plane first (the traced hook captures
    /// it) and the server last (its `/metrics` closure captures engine
    /// internals that exist only after spawn).
    pub fn from_parts(plane: ObsPlane, server: Option<ObsServer>) -> Self {
        Self { plane, server }
    }

    /// The HTTP address, when a server is running.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Stops the HTTP server (the plane keeps working). Idempotent.
    pub fn stop(&mut self) {
        if let Some(s) = &mut self.server {
            s.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::HealthState;
    use crate::hook::{Decision, PeriodSnapshot};
    use crate::telemetry::PromText;
    use crate::time::{secs, SimTime};

    const TARGET: f64 = 2.0;

    fn options() -> ObsOptions {
        ObsOptions::for_target(Duration::from_secs(2))
    }

    fn trace(k: u64, y_s: f64, alpha: f64) -> ControlTrace {
        let snap = PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 100,
            admitted: 90,
            dropped_entry: 10,
            dropped_network: 0,
            completed: 80,
            outstanding: 10,
            queued_tuples: 10,
            queued_load_us: 1000.0,
            measured_cost_us: Some(100.0),
            mean_delay_ms: Some(y_s * 1e3),
            cpu_busy_us: 900_000,
        };
        let mut t = ControlTrace::capture(&snap, &Decision::entry(alpha), None, 100);
        t.y_hat_s = y_s;
        t.error_s = TARGET - y_s;
        t
    }

    fn start_server(plane: &ObsPlane) -> ObsServer {
        let metrics_plane = plane.clone();
        let metrics: MetricsFn = Arc::new(move || {
            let mut p = PromText::new("streamshed");
            p.counter("obs_test_scrapes_total", "test counter", 1.0);
            metrics_plane.health().render_prom(&mut p);
            p.finish()
        });
        ObsServer::start(HttpConfig::default(), plane.clone(), metrics).expect("bind")
    }

    #[test]
    fn endpoints_serve_metrics_health_ready_trace() {
        let plane = ObsPlane::new(&options());
        let mut server = start_server(&plane);
        let addr = server.addr();
        let t = Duration::from_secs(2);

        // Not ready before the first period.
        let (status, body) = http_get(addr, "/ready", t).unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"ready\":false"), "{body}");

        let mut sink = plane.clone();
        for k in 0..10 {
            sink.record(&trace(k, TARGET, 0.3));
        }

        let (status, body) = http_get(addr, "/ready", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\":true"));

        let (status, body) = http_get(addr, "/health", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"healthy\""), "{body}");

        let (status, body) = http_get(addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE streamshed_diag_state gauge"), "{body}");
        assert!(body.contains("streamshed_obs_test_scrapes_total 1"));

        let (status, body) = http_get(addr, "/trace?last=3", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        assert_eq!(body.matches("\"k\":").count(), 3, "{body}");
        assert!(body.contains("\"k\":9"), "newest retained: {body}");
        assert!(!body.contains("\"k\":6"), "older trimmed: {body}");

        let (status, _) = http_get(addr, "/nope", t).unwrap();
        assert_eq!(status, 404);

        server.stop();
        // Stopped server refuses (or resets) new connections.
        assert!(http_get(addr, "/health", Duration::from_millis(300)).is_err());
    }

    #[test]
    fn profile_endpoint_serves_span_snapshot() {
        let plane = ObsPlane::new(&options());
        let mut server = start_server(&plane);
        let addr = server.addr();
        let t = Duration::from_secs(2);

        // Empty registry still serves a valid shape.
        let (status, body) = http_get(addr, "/profile", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"stages\""), "{body}");
        assert!(body.contains("\"sojourn\""), "{body}");

        let h = plane.spans().handle("7");
        h.record(crate::spans::Stage::Execute, 2_000_000);
        h.record(crate::spans::Stage::RingWait, 1_000_000);
        h.record_sojourn(3_000_000);
        let (status, body) = http_get(addr, "/profile", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"execute\""), "{body}");
        assert!(body.contains("\"wall_share\""), "{body}");
        assert!(body.contains("\"labels\":{\"7\":"), "{body}");

        server.stop();
    }

    #[test]
    fn trace_csv_format_and_hostile_last_clamp() {
        let plane = ObsPlane::new(&options());
        let mut server = start_server(&plane);
        let addr = server.addr();
        let t = Duration::from_secs(2);
        let mut sink = plane.clone();
        for k in 0..5 {
            sink.record(&trace(k, TARGET, 0.3));
        }

        let (status, body) = http_get(addr, "/trace?last=2&format=csv", t).unwrap();
        assert_eq!(status, 200);
        let mut lines = body.lines();
        assert!(lines.next().unwrap_or("").starts_with("k,"), "{body}");
        assert_eq!(lines.count(), 2, "{body}");

        // Hostile `last` values: non-numeric falls back to the default,
        // oversized clamps to everything recorded — never a panic or an
        // out-of-bounds slice.
        for hostile in ["last=99999999999999999999", "last=-3", "last=abc", "last="] {
            let (status, body) =
                http_get(addr, &format!("/trace?{hostile}&format=csv"), t).unwrap();
            assert_eq!(status, 200, "{hostile}");
            assert_eq!(body.lines().count(), 6, "{hostile}: {body}");
        }
        let (status, body) = http_get(addr, "/trace?last=1000000", t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.matches("\"k\":").count(), 5, "{body}");

        server.stop();
    }

    #[test]
    fn router_without_a_plane_serves_metrics_only() {
        let metrics = || "m 1\n".to_string();
        assert_eq!(route_get(None, &metrics, "/metrics", "").2, "m 1\n");
        for path in ["/health", "/ready", "/trace", "/profile", "/nope"] {
            assert_eq!(route_get(None, &metrics, path, "").0, 404, "{path}");
        }
        let head = http_head(404, "text/plain", 9);
        assert!(head.starts_with("HTTP/1.1 404 Not Found\r\n"), "{head}");
        assert!(head.ends_with("Content-Length: 9\r\nConnection: close\r\n\r\n"), "{head}");
    }

    #[test]
    fn adapt_families_appear_only_once_a_self_tuner_reports() {
        let plane = ObsPlane::new(&options());
        let mut sink = plane.clone();

        // Plain traces leave the families absent entirely.
        sink.record(&trace(0, TARGET, 0.3));
        let mut p = PromText::new("streamshed");
        plane.render_adapt_prom(&mut p);
        assert_eq!(p.finish(), "", "no adapt families before a self-tuning trace");

        // An adaptive trace populates all four.
        let mut t = trace(1, TARGET, 0.3);
        t.adapt_cost_us = 10_210.5;
        t.adapt_generation = 2;
        t.adapt_swaps = 3;
        t.adapt_arm = 1;
        sink.record(&t);
        let mut p = PromText::new("streamshed");
        plane.render_adapt_prom(&mut p);
        let body = p.finish();
        assert!(body.contains("# TYPE streamshed_adapt_cost_estimate_us gauge"), "{body}");
        assert!(body.contains("streamshed_adapt_cost_estimate_us 10210.5"), "{body}");
        assert!(body.contains("streamshed_adapt_gain_generation 2"), "{body}");
        assert!(body.contains("# TYPE streamshed_adapt_swaps_total counter"), "{body}");
        assert!(body.contains("streamshed_adapt_swaps_total 3"), "{body}");
        assert!(body.contains("streamshed_adapt_comparator_arm 1"), "{body}");
    }

    #[test]
    fn health_turns_503_on_divergence() {
        let plane = ObsPlane::new(&options());
        let mut server = start_server(&plane);
        let addr = server.addr();
        let mut sink = plane.clone();
        for k in 0..20 {
            sink.record(&trace(k, 3.0 * TARGET, 0.5));
        }
        let (status, body) = http_get(addr, "/health", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"state\":\"diverging\""), "{body}");
        server.stop();
    }

    #[test]
    fn hostile_requests_do_not_kill_the_server() {
        let plane = ObsPlane::new(&options());
        let mut server = start_server(&plane);
        let addr = server.addr();
        let t = Duration::from_secs(2);

        // Oversized head.
        {
            let mut s = TcpStream::connect_timeout(&addr, t).unwrap();
            let junk = vec![b'a'; 32 * 1024];
            let _ = s.write_all(&junk);
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
        }
        // Garbage, then immediate close.
        {
            let mut s = TcpStream::connect_timeout(&addr, t).unwrap();
            let _ = s.write_all(b"\x00\xff\x00\xff");
        }
        // Wrong method.
        {
            let mut s = TcpStream::connect_timeout(&addr, t).unwrap();
            let _ = s.write_all(b"POST /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        }
        // Still serving.
        let (status, _) = http_get(addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn plane_writes_flight_bundle_on_anomalous_transition() {
        let dir = std::env::temp_dir().join(format!("streamshed_obs_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plane = ObsPlane::new(&options().with_flight_dir(&dir));
        let mut sink = plane.clone();
        // Saturation scenario: pinned high while violating.
        for k in 0..6 {
            sink.record(&trace(k, 2.0 * TARGET, 1.0));
        }
        assert_eq!(plane.health().state, HealthState::Saturated);
        assert_eq!(plane.flight_bundles_written(), 1);
        let bundles = crate::flight::list_bundles(&dir);
        assert_eq!(bundles.len(), 1);
        let body = std::fs::read_to_string(&bundles[0]).unwrap();
        let header = body.lines().next().unwrap();
        assert!(header.contains("\"state\":\"saturated\""));
        // The bundle snapshots the ring at the transition (period k=2,
        // when the pinned streak reaches 3): header + 3 traces.
        assert!(header.contains("\"traces\":3"), "{header}");
        assert_eq!(body.lines().count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_handle_headless_and_with_server() {
        let mut opts = options();
        opts.http = None;
        let metrics: MetricsFn = Arc::new(String::new);
        let mut headless = ObsHandle::start(&opts, Arc::clone(&metrics)).unwrap();
        assert!(headless.addr().is_none());
        headless.stop();

        let served = ObsHandle::start(&options(), metrics).unwrap();
        assert!(served.addr().is_some());
    }
}
