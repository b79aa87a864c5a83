//! The network front door: thread-per-core listeners feeding the
//! engine's batched admission path.
//!
//! Each worker thread owns a nonblocking clone of one shared listener
//! and runs a `poll(2)` event loop over its accepted connections. A
//! connection speaks either the binary protocol ([`crate::wire`]) or
//! HTTP/1.1 — sniffed from its first byte, which no HTTP method shares
//! with the frame magic — so one port serves ingest *and* the
//! observability endpoints.
//!
//! ## The admission path is the whole point
//!
//! A binary data frame is admitted without materializing tuples: an
//! unkeyed frame becomes one `offer_batch(count)` call (one shed pass +
//! one ring reservation per shard), and a keyed frame goes through
//! `offer_batch_keyed_with`, which consults the entry shedder *before*
//! each key is decoded — a shed arrival's key bytes are never even read
//! out of the receive buffer. Under overload, the marginal cost of shed
//! traffic is a 16-byte header parse per frame.
//!
//! ## Backpressure state machine (per connection)
//!
//! ```text
//!           reply fits            wbuf > max_write_buf
//!   OPEN ───────────────▶ OPEN ─────────────────────▶ PAUSED
//!    ▲   frame decoded,           (stop reading;        │
//!    │   engine ledger            peer's TCP window     │ wbuf flushed
//!    │   echoed per frame          eventually fills)    ▼
//!    └───────────────────────────────────────────── OPEN
//!
//!   OPEN/PAUSED ── wire error ──▶ CLOSING (error reply, flush, close)
//!   OPEN/PAUSED ── idle_timeout ─▶ CLOSED
//!   drain: listener closed; every conn flushes its replies and closes;
//!   workers join when conns are gone or drain_timeout ends.
//! ```
//!
//! Capacity refusals are *explicit*, mirroring the in-process four-bucket
//! ledger across the wire: every frame gets a reply echoing how many of
//! its tuples were accepted / shed / rejected-at-capacity /
//! rejected-closed, and a fleet above `max_conns` sees connections
//! closed at accept, not silent SYN drops.

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wire::{self, Reply, WireError};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamshed_engine::obs::{self, HttpResponse, MetricsFn, ObsPlane};
use streamshed_engine::shard::{BatchResult, ShardedEngine};
use streamshed_engine::spans::{SpanHandle, Stage};
use streamshed_engine::telemetry::PromText;

/// An engine front door the server can feed. Object-safe so a caller
/// can substitute an instrumented or fake door for the engine without a
/// type parameter infecting every handle.
pub trait FrontDoor: Send + Sync + 'static {
    /// Admits `n` anonymous tuples (one batched shed pass).
    fn offer_batch(&self, n: usize) -> BatchResult;
    /// Admits `n` keyed tuples with lazy key decode: `key_at(i)` is
    /// called only for arrivals the entry shedder admits.
    fn offer_batch_keyed_lazy(
        &self,
        n: usize,
        key_at: &mut dyn FnMut(usize) -> u64,
    ) -> BatchResult;
}

impl FrontDoor for ShardedEngine {
    fn offer_batch(&self, n: usize) -> BatchResult {
        ShardedEngine::offer_batch(self, n)
    }
    fn offer_batch_keyed_lazy(
        &self,
        n: usize,
        key_at: &mut dyn FnMut(usize) -> u64,
    ) -> BatchResult {
        self.offer_batch_keyed_with(n, key_at)
    }
}

/// Server tuning. The defaults suit a loopback CI host; production
/// knobs are the same fields, larger.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker event-loop threads; 0 means one per host core.
    pub workers: usize,
    /// Pin worker `i` to core `i % cores` (via `engine::affinity`).
    pub pin_workers: bool,
    /// Open-connection cap; accepts beyond it are closed immediately
    /// (counted in `streamshed_net_connections_rejected_total`).
    pub max_conns: usize,
    /// Per-frame tuple cap (oversized frames are refused from their
    /// header; bounds per-connection buffering).
    pub max_frame_tuples: u32,
    /// Write-buffer high water mark, bytes: above it the connection
    /// stops being read until replies flush (TCP backpressure).
    pub max_write_buf: usize,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Grace period for flushing replies at shutdown.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            pin_workers: false,
            max_conns: 16_384,
            max_frame_tuples: 16_384,
            max_write_buf: 256 * 1024,
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(2),
        }
    }
}

/// Observability passthrough: the engine's `/metrics` renderer plus the
/// plane behind `/health`, `/ready` and `/trace`. Build it from
/// [`ShardedEngine::metrics_fn`] and `engine.obs()`.
#[derive(Clone)]
pub struct NetObs {
    /// Renders the engine's `streamshed_*` families (the net plane
    /// appends its own `streamshed_net_*` families after it).
    pub metrics: MetricsFn,
    /// The diagnostics plane, when the engine was spawned observed.
    pub plane: Option<ObsPlane>,
}

/// Front-door counters, shared across workers and exported as
/// `streamshed_net_*` Prometheus families.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub connections_accepted: AtomicU64,
    /// Connections currently open (gauge).
    pub connections_open: AtomicU64,
    /// Connections closed (any reason).
    pub connections_closed: AtomicU64,
    /// Connections refused at the `max_conns` cap.
    pub connections_rejected: AtomicU64,
    /// Connections closed by the idle timeout.
    pub connections_idle_closed: AtomicU64,
    /// Well-formed data frames admitted.
    pub frames_received: AtomicU64,
    /// Frames refused for framing violations (connection then closes).
    pub frames_bad: AtomicU64,
    /// Backpressure replies written.
    pub replies_sent: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_read: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_written: AtomicU64,
    /// HTTP requests served (ingest + observability).
    pub http_requests: AtomicU64,
    /// Tuples offered through the network front door.
    pub tuples_offered: AtomicU64,
    /// ... of which dispatched into a shard ring.
    pub tuples_accepted: AtomicU64,
    /// ... of which dropped by the entry shedder.
    pub tuples_shed: AtomicU64,
    /// ... of which refused on full rings.
    pub tuples_rejected_capacity: AtomicU64,
    /// ... of which refused after close.
    pub tuples_rejected_closed: AtomicU64,
}

impl NetStats {
    fn add_result(&self, res: &BatchResult) {
        self.tuples_offered.fetch_add(res.offered, Ordering::Relaxed);
        self.tuples_accepted.fetch_add(res.dispatched, Ordering::Relaxed);
        self.tuples_shed.fetch_add(res.dropped_entry, Ordering::Relaxed);
        self.tuples_rejected_capacity
            .fetch_add(res.rejected_capacity, Ordering::Relaxed);
        self.tuples_rejected_closed
            .fetch_add(res.rejected_closed, Ordering::Relaxed);
    }

    fn close_conns(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.connections_closed.fetch_add(n, Ordering::Relaxed);
        let _ = self
            .connections_open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Renders the `streamshed_net_*` families. `listener` labels the
    /// info gauge with the bound address.
    pub fn render_prom(&self, listener: &str) -> String {
        const BUCKET_HELP: &str =
            "Tuples through the network front door, by admission bucket";
        let mut p = PromText::new("streamshed_net");
        let c = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64;
        p.gauge_labeled(
            "listener_info",
            "Bound listener address (as a label)",
            "addr",
            listener,
            1.0,
        )
        .counter(
            "connections_accepted_total",
            "Connections accepted by the front door",
            c(&self.connections_accepted),
        )
        .gauge(
            "connections_open",
            "Connections currently open",
            c(&self.connections_open),
        )
        .counter(
            "connections_closed_total",
            "Connections closed (any reason)",
            c(&self.connections_closed),
        )
        .counter(
            "connections_rejected_total",
            "Connections refused at the max_conns cap",
            c(&self.connections_rejected),
        )
        .counter(
            "connections_idle_closed_total",
            "Connections closed by the idle timeout",
            c(&self.connections_idle_closed),
        )
        .counter(
            "frames_received_total",
            "Well-formed data frames admitted",
            c(&self.frames_received),
        )
        .counter(
            "frames_bad_total",
            "Frames refused for framing violations",
            c(&self.frames_bad),
        )
        .counter(
            "replies_sent_total",
            "Backpressure replies written",
            c(&self.replies_sent),
        )
        .counter("bytes_read_total", "Bytes read off sockets", c(&self.bytes_read))
        .counter(
            "bytes_written_total",
            "Bytes written to sockets",
            c(&self.bytes_written),
        )
        .counter(
            "http_requests_total",
            "HTTP requests served (ingest + observability)",
            c(&self.http_requests),
        )
        .counter_labeled("tuples_total", BUCKET_HELP, "bucket", "offered", c(&self.tuples_offered))
        .counter_labeled("tuples_total", BUCKET_HELP, "bucket", "accepted", c(&self.tuples_accepted))
        .counter_labeled("tuples_total", BUCKET_HELP, "bucket", "shed", c(&self.tuples_shed))
        .counter_labeled(
            "tuples_total",
            BUCKET_HELP,
            "bucket",
            "rejected_capacity",
            c(&self.tuples_rejected_capacity),
        )
        .counter_labeled(
            "tuples_total",
            BUCKET_HELP,
            "bucket",
            "rejected_closed",
            c(&self.tuples_rejected_closed),
        );
        p.finish()
    }

    /// The front-door conservation law over the network counters.
    pub fn tuples_balance(&self) -> bool {
        let l = |v: &AtomicU64| v.load(Ordering::Relaxed);
        l(&self.tuples_offered)
            == l(&self.tuples_accepted)
                + l(&self.tuples_shed)
                + l(&self.tuples_rejected_capacity)
                + l(&self.tuples_rejected_closed)
    }
}

/// Handle to a running server; dropping it drains (like
/// [`NetServer::shutdown`], which is the explicit spelling).
pub struct NetServer {
    addr: SocketAddr,
    stats: Arc<NetStats>,
    drain: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `cfg.addr` and spawns the worker event loops over `door`.
    pub fn start(
        cfg: NetConfig,
        door: Arc<dyn FrontDoor>,
        obs: Option<NetObs>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(NetStats::default());
        let drain = Arc::new(AtomicBool::new(false));
        let workers_n = if cfg.workers == 0 {
            streamshed_engine::affinity::host_cores()
        } else {
            cfg.workers
        };
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let listener = listener.try_clone()?;
            let cfg = cfg.clone();
            let door = Arc::clone(&door);
            let obs = obs.clone();
            let stats = Arc::clone(&stats);
            let drain = Arc::clone(&drain);
            let spans = obs
                .as_ref()
                .and_then(|o| o.plane.as_ref())
                .map(|p| p.spans().frame_handle(&format!("net{i}")));
            let handle = std::thread::Builder::new()
                .name(format!("streamshed-net-{i}"))
                .spawn(move || {
                    if cfg.pin_workers {
                        let cores = streamshed_engine::affinity::host_cores();
                        streamshed_engine::affinity::pin_current_thread(i % cores);
                    }
                    Worker {
                        listener,
                        cfg,
                        door,
                        obs,
                        stats,
                        drain,
                        addr,
                        conns: Vec::new(),
                        pollfds: Vec::new(),
                        spans,
                    }
                    .run();
                })
                .expect("spawn net worker");
            workers.push(handle);
        }
        Ok(Self {
            addr,
            stats,
            drain,
            workers,
        })
    }

    /// The bound address (OS-chosen port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live front-door counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful drain: stop accepting, let workers process buffered
    /// frames and flush replies (bounded by `drain_timeout`), join.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        self.drain.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// What a connection turned out to speak.
enum Proto {
    /// First byte not seen yet.
    Unknown,
    /// The binary frame protocol.
    Binary,
    /// HTTP/1.1 (one request per connection, `Connection: close`).
    Http,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
    last_activity: Instant,
    proto: Proto,
    /// Flush `wbuf` then close (set on wire errors and HTTP completion).
    closing: bool,
}

struct Worker {
    listener: TcpListener,
    cfg: NetConfig,
    door: Arc<dyn FrontDoor>,
    obs: Option<NetObs>,
    stats: Arc<NetStats>,
    drain: Arc<AtomicBool>,
    addr: SocketAddr,
    conns: Vec<Conn>,
    pollfds: Vec<PollFd>,
    /// Latency-truth-plane slot for this listener thread (`netN`), fed
    /// from the engine's span registry when the engine runs observed:
    /// per-stage wire timings plus the per-frame read→reply-enqueued
    /// turnaround (recorded as the slot's sojourn histogram, the
    /// server-side anchor for the loadgen RTT cross-check).
    spans: Option<SpanHandle>,
}

impl Worker {
    fn run(&mut self) {
        let mut scratch = vec![0u8; 64 * 1024];
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let draining = self.drain.load(Ordering::Relaxed);
            if draining {
                if drain_deadline.is_none() {
                    drain_deadline = Some(Instant::now() + self.cfg.drain_timeout);
                }
                // Drop everything already flushed; give the rest more
                // poll rounds until the deadline.
                let before = self.conns.len();
                self.conns.retain(|c| !c.wbuf.is_empty());
                self.stats.close_conns((before - self.conns.len()) as u64);
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() || expired {
                    self.stats.close_conns(self.conns.len() as u64);
                    return;
                }
            }

            self.pollfds.clear();
            if !draining {
                self.pollfds.push(PollFd {
                    fd: self.listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            for c in &self.conns {
                let mut events = 0i16;
                // Backpressure: above the high-water mark the socket is
                // not read; the peer's sends eventually block on TCP.
                if !c.closing && c.wbuf.len() <= self.cfg.max_write_buf {
                    events |= POLLIN;
                }
                if !c.wbuf.is_empty() {
                    events |= POLLOUT;
                }
                self.pollfds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            sys::poll(&mut self.pollfds, 100);

            let mut at = 0usize;
            if !draining {
                if self.pollfds[0].revents & POLLIN != 0 {
                    self.accept_burst();
                }
                at = 1;
            }
            // Walk connections against their poll entries (same order;
            // one removal per round keeps the correspondence honest —
            // swap_remove would hand the swapped-in connection a dead
            // socket's revents).
            let mut i = 0usize;
            while i < self.conns.len() {
                let revents = self.pollfds.get(at + i).map_or(0, |p| p.revents);
                if self.service(i, revents, &mut scratch) {
                    self.conns.remove(i);
                    self.stats.close_conns(1);
                    break;
                }
                i += 1;
            }
            self.sweep_idle();
        }
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let open = self.stats.connections_open.load(Ordering::Relaxed);
                    if open as usize >= self.cfg.max_conns {
                        // Explicit refusal: close immediately rather
                        // than letting the fleet starve in SYN limbo.
                        self.stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.connections_open.fetch_add(1, Ordering::Relaxed);
                    self.conns.push(Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: VecDeque::new(),
                        last_activity: Instant::now(),
                        proto: Proto::Unknown,
                        closing: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Services one connection; returns `true` when it should be
    /// removed.
    fn service(&mut self, i: usize, revents: i16, scratch: &mut [u8]) -> bool {
        if revents & (POLLERR | POLLNVAL) != 0 {
            return true;
        }
        // Readable (or hangup with possibly-buffered final bytes).
        if revents & (POLLIN | POLLHUP) != 0 && !self.conns[i].closing {
            loop {
                let read_t0 = self.spans.as_ref().map(|_| Instant::now());
                let n = match self.conns[i].stream.read(scratch) {
                    Ok(0) => {
                        // Peer EOF: flush whatever replies remain, then
                        // close.
                        self.conns[i].closing = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                };
                if let (Some(h), Some(t0)) = (self.spans.as_ref(), read_t0) {
                    h.record(Stage::NetRead, t0.elapsed().as_nanos() as u64);
                }
                self.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                self.conns[i].last_activity = Instant::now();
                self.conns[i].rbuf.extend_from_slice(&scratch[..n]);
                if self.process(i) {
                    return true;
                }
                // Stop reading once backpressured; the rest stays in
                // the kernel buffer.
                if self.conns[i].wbuf.len() > self.cfg.max_write_buf || n < scratch.len() {
                    break;
                }
            }
        }
        if self.flush(i) {
            return true;
        }
        self.conns[i].closing && self.conns[i].wbuf.is_empty()
    }

    /// Decodes and admits everything buffered on connection `i`;
    /// returns `true` to drop the connection immediately.
    fn process(&mut self, i: usize) -> bool {
        if matches!(self.conns[i].proto, Proto::Unknown) {
            let Some(&first) = self.conns[i].rbuf.first() else {
                return false;
            };
            self.conns[i].proto = if first == wire::MAGIC0 {
                Proto::Binary
            } else {
                Proto::Http
            };
        }
        match self.conns[i].proto {
            Proto::Binary => self.process_binary(i),
            Proto::Http => self.process_http(i),
            Proto::Unknown => false,
        }
    }

    fn process_binary(&mut self, i: usize) -> bool {
        // Move the buffer out so frame decoding borrows a local slice
        // while the engine door and stats (fields of self) stay free.
        let rbuf = std::mem::take(&mut self.conns[i].rbuf);
        let mut replies: Vec<u8> = Vec::new();
        let mut consumed = 0usize;
        let mut closing = false;
        loop {
            if self.conns[i].wbuf.len() + replies.len() > self.cfg.max_write_buf {
                break; // backpressure: leave the rest buffered
            }
            // Per-frame wire staging: decode → admission → reply encode,
            // plus the frame's read→reply-enqueued turnaround closed as
            // the net slot's sojourn. Timestamps only exist when a span
            // slot is attached, so the unobserved hot path stays free of
            // clock reads.
            let frame_t0 = self.spans.as_ref().map(|_| Instant::now());
            match wire::decode_frame(&rbuf[consumed..], self.cfg.max_frame_tuples) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    let decode_done = frame_t0.map(|_| Instant::now());
                    // The admission call: shed decisions happen in here,
                    // *before* any key is read from the buffer.
                    let res = if frame.keyed {
                        self.door
                            .offer_batch_keyed_lazy(frame.count as usize, &mut |k| frame.key(k))
                    } else {
                        self.door.offer_batch(frame.count as usize)
                    };
                    let admit_done = frame_t0.map(|_| Instant::now());
                    consumed += used;
                    wire::encode_reply_into(
                        &mut replies,
                        &Reply {
                            status: Reply::STATUS_OK,
                            accepted: res.dispatched as u32,
                            shed: res.dropped_entry as u32,
                            rejected_capacity: res.rejected_capacity as u32,
                            rejected_closed: res.rejected_closed as u32,
                            seq: frame.seq,
                        },
                    );
                    if let (Some(h), Some(t0), Some(t1), Some(t2)) =
                        (self.spans.as_ref(), frame_t0, decode_done, admit_done)
                    {
                        let ns = |d: Duration| d.as_nanos() as u64;
                        h.record(Stage::Decode, ns(t1.duration_since(t0)));
                        h.record(Stage::Admission, ns(t2.duration_since(t1)));
                        h.record(Stage::Reply, ns(t2.elapsed()));
                        h.record_sojourn(ns(t0.elapsed()));
                    }
                    self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                    self.stats.replies_sent.fetch_add(1, Ordering::Relaxed);
                    self.stats.add_result(&res);
                }
                Err(err) => {
                    // Echo the seq when the header got far enough to
                    // carry one, so the client can attribute the error.
                    let rest = &rbuf[consumed..];
                    let seq = if rest.len() >= 16 {
                        u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"))
                    } else {
                        0
                    };
                    let status = match err {
                        WireError::Oversized { .. } => Reply::STATUS_OVERSIZED,
                        _ => Reply::STATUS_BAD_FRAME,
                    };
                    wire::encode_reply_into(
                        &mut replies,
                        &Reply {
                            status,
                            seq,
                            ..Reply::default()
                        },
                    );
                    self.stats.frames_bad.fetch_add(1, Ordering::Relaxed);
                    self.stats.replies_sent.fetch_add(1, Ordering::Relaxed);
                    closing = true; // desync: no resync attempted
                    break;
                }
            }
        }
        let conn = &mut self.conns[i];
        conn.wbuf.extend(replies);
        conn.rbuf = rbuf;
        if consumed > 0 {
            conn.rbuf.drain(..consumed);
        }
        if closing {
            conn.closing = true;
            conn.rbuf.clear();
        }
        false
    }

    fn process_http(&mut self, i: usize) -> bool {
        const MAX_HEAD: usize = 8 * 1024;
        const MAX_BODY: usize = 64 * 1024;
        let conn = &self.conns[i];
        let Some(head_end) = find_crlf2(&conn.rbuf) else {
            return conn.rbuf.len() > MAX_HEAD; // drop header floods
        };
        let head = String::from_utf8_lossy(&conn.rbuf[..head_end]).into_owned();
        let content_length = header_value(&head, "content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let (status, ctype, body) = if content_length > MAX_BODY {
            (413, "application/json", "{\"error\":\"body too large\"}".to_string())
        } else {
            let total = head_end + 4 + content_length;
            if self.conns[i].rbuf.len() < total {
                return false; // await the body
            }
            let body =
                String::from_utf8_lossy(&self.conns[i].rbuf[head_end + 4..total]).into_owned();
            self.conns[i].rbuf.drain(..total);
            self.stats.http_requests.fetch_add(1, Ordering::Relaxed);
            let mut line = head.lines().next().unwrap_or("").split_whitespace();
            let method = line.next().unwrap_or("").to_string();
            let target = line.next().unwrap_or("/").to_string();
            self.route_http(&method, &target, &body)
        };
        self.respond(i, status, ctype, &body);
        // One request per connection: close after the reply (the fleet
        // path is the binary protocol; HTTP is for humans and
        // scrapers).
        self.conns[i].closing = true;
        false
    }

    /// Answers one HTTP request: `POST /ingest` is the net plane's own;
    /// every `GET` goes through the engine's shared router, with the
    /// `streamshed_net_*` families appended to `/metrics`.
    fn route_http(&self, method: &str, target: &str, body: &str) -> HttpResponse {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        match (method, path) {
            ("POST", "/ingest") => {
                // Tuple count from ?count=N or a bare integer body.
                let count = obs::query_param(query, "count")
                    .and_then(|v| v.parse::<u64>().ok())
                    .or_else(|| body.trim().parse::<u64>().ok())
                    .unwrap_or(0);
                if count > u64::from(self.cfg.max_frame_tuples) {
                    return (413, "application/json", "{\"error\":\"count above cap\"}".into());
                }
                let res = self.door.offer_batch(count as usize);
                self.stats.add_result(&res);
                let json = format!(
                    "{{\"offered\":{},\"accepted\":{},\"shed\":{},\
                     \"rejected_capacity\":{},\"rejected_closed\":{}}}",
                    res.offered,
                    res.dispatched,
                    res.dropped_entry,
                    res.rejected_capacity,
                    res.rejected_closed
                );
                (200, "application/json", json)
            }
            ("GET", _) => {
                let metrics = || {
                    let mut text = self.obs.as_ref().map_or_else(String::new, |o| (o.metrics)());
                    text.push_str(&self.stats.render_prom(&self.addr.to_string()));
                    text
                };
                let plane = self.obs.as_ref().and_then(|o| o.plane.as_ref());
                obs::route_get(plane, &metrics, path, query)
            }
            _ => obs::error_response(405),
        }
    }

    fn respond(&mut self, i: usize, status: u16, content_type: &str, body: &str) {
        let conn = &mut self.conns[i];
        conn.wbuf.extend(obs::http_head(status, content_type, body.len()).bytes());
        conn.wbuf.extend(body.bytes());
    }

    /// Flushes as much of `wbuf` as the socket takes; returns `true`
    /// when the connection died writing.
    fn flush(&mut self, i: usize) -> bool {
        let conn = &mut self.conns[i];
        while !conn.wbuf.is_empty() {
            let (front, _) = conn.wbuf.as_slices();
            match conn.stream.write(front) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.wbuf.drain(..n);
                    self.stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        false
    }

    fn sweep_idle(&mut self) {
        let timeout = self.cfg.idle_timeout;
        let now = Instant::now();
        let before = self.conns.len();
        let stats = Arc::clone(&self.stats);
        self.conns.retain(|c| {
            let keep = now.duration_since(c.last_activity) < timeout;
            if !keep {
                stats.connections_idle_closed.fetch_add(1, Ordering::Relaxed);
            }
            keep
        });
        stats.close_conns((before - self.conns.len()) as u64);
    }
}

/// Finds the end of an HTTP head (`\r\n\r\n`), returning the offset of
/// its first byte.
fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Case-insensitive single-header lookup in a raw request head.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `streamshed_net_*` families survive a hostile listener
    /// label: backslash, double quote, and newline in the bound
    /// address are escaped per the exposition format, and the bucket
    /// series keep their label structure.
    #[test]
    fn net_prom_escapes_hostile_listener_label() {
        let stats = NetStats::default();
        stats.tuples_offered.store(7, Ordering::Relaxed);
        stats.tuples_accepted.store(7, Ordering::Relaxed);
        let text = stats.render_prom("evil\"addr\\with\nnewline");
        assert!(
            text.contains(
                "streamshed_net_listener_info{addr=\"evil\\\"addr\\\\with\\nnewline\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("streamshed_net_tuples_total{bucket=\"offered\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("streamshed_net_tuples_total{bucket=\"accepted\"} 7"),
            "{text}"
        );
        // Exactly one HELP/TYPE pair per family, newline-structured.
        let helps = text.lines().filter(|l| l.starts_with("# HELP")).count();
        let types = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(helps, types);
        assert!(stats.tuples_balance());
    }

    #[test]
    fn http_head_helpers() {
        assert_eq!(find_crlf2(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        let head = "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\nHost: x";
        assert_eq!(header_value(head, "content-length"), Some("5"));
        assert_eq!(header_value(head, "missing"), None);
    }
}
