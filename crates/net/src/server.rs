//! The network front door: thread-per-core listeners feeding the
//! engine's batched admission path.
//!
//! Each worker thread owns a nonblocking clone of one shared listener
//! and a level-triggered [`ReadySet`] (`epoll(7)` on Linux) in which the
//! listener and every connection the worker accepted are registered
//! once. A connection speaks either the binary protocol ([`crate::wire`])
//! or HTTP/1.1 — sniffed from its first byte, which no HTTP method
//! shares with the frame magic — so one port serves ingest *and* the
//! observability endpoints.
//!
//! ## A wake costs what is ready, and allocates nothing
//!
//! Connections live in a slab whose index is their readiness token. One
//! wait returns the ready tokens; only those are serviced, so thousands
//! of idle connections held beside two busy ones cost the busy ones
//! nothing. A connection's interest (`IN` unless closing or above
//! `max_write_buf`, `OUT` only while bytes are unsent) reaches the
//! kernel only when it changes, and one clock read per wake stamps
//! activity. The drain flag and the idle sweep ride the set's 100 ms
//! tick (a registered periodic timer), so a wait carries no timeout to
//! arm and cancel and no wake pays for the sweep.
//! Bytes are handled where they land: a read that starts on a frame
//! boundary is decoded straight from the worker's scratch buffer and
//! only an incomplete tail is copied into the connection's carry buffer;
//! replies are encoded into one flat per-connection buffer that the
//! flush writes from. The binary path creates no `Vec` or `String` per
//! read or per frame.
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
//!           reply fits           unsent > max_write_buf
//!   OPEN ───────────────▶ OPEN ─────────────────────▶ PAUSED
//!    ▲   frame decoded,           (stop reading and     │
//!    │   engine ledger            decoding; peer's TCP  │ flush brings
//!    │   echoed per frame         window fills)         ▼ unsent under
//!    └───────────────────────────────────────────── OPEN
//!        frames held back in the carry buffer are decoded first
//!
//!   OPEN/PAUSED ── wire error ──▶ CLOSING (error reply, flush, close)
//!   OPEN/PAUSED ── idle_timeout ─▶ CLOSED
//!   drain: listener unregistered; every conn flushes its replies and
//!   closes; workers join when conns are gone or drain_timeout ends.
//! ```
//!
//! Capacity refusals are *explicit*, mirroring the in-process four-bucket
//! ledger across the wire: every frame gets a reply echoing how many of
//! its tuples were accepted / shed / rejected-at-capacity /
//! rejected-closed, and a fleet above `max_conns` sees connections
//! closed at accept, not silent SYN drops.

use crate::sys::{ReadyEvent, ReadySet, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wire::{self, Reply, WireError};
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
            // Every worker accepts from its own clone of the one shared
            // listener, registered in its own readiness set.
            let listener = listener.try_clone()?;
            let mut ready = ReadySet::new(TICK)?;
            ready.add(listener.as_raw_fd(), LISTENER, POLLIN)?;
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
                        ready,
                        conns: Vec::new(),
                        free: Vec::new(),
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
    /// Carry buffer: bytes received but not yet consumed. Empty in the
    /// common case — a read that starts on a frame boundary is decoded
    /// from the worker's scratch buffer and only an incomplete tail (or
    /// frames held back by back-pressure) is copied here.
    rbuf: Vec<u8>,
    /// Replies, encoded in place; `wbuf[wpos..]` is still unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    proto: Proto,
    /// Flush `wbuf` then close (set on wire errors, peer EOF and HTTP
    /// completion).
    closing: bool,
    /// The interest currently registered with the worker's `ReadySet`.
    interest: i16,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// The live connection in slab slot `i` (the caller knows it is
/// occupied). A free function so the borrow covers the slab alone.
fn live(conns: &mut [Option<Conn>], i: usize) -> &mut Conn {
    conns[i].as_mut().expect("occupied slab slot")
}

/// Token of the shared listener in every worker's `ReadySet`;
/// connections use their slab index.
const LISTENER: usize = usize::MAX - 1;
/// The `ReadySet` tick: how long a worker sleeps at most, hence how
/// soon it notices the drain flag, and the idle sweep's period.
const TICK: Duration = Duration::from_millis(100);

struct Worker {
    listener: TcpListener,
    cfg: NetConfig,
    door: Arc<dyn FrontDoor>,
    obs: Option<NetObs>,
    stats: Arc<NetStats>,
    drain: Arc<AtomicBool>,
    addr: SocketAddr,
    ready: ReadySet,
    /// Connection slab: the index is the connection's `ReadySet` token.
    conns: Vec<Option<Conn>>,
    /// Vacant slab indices.
    free: Vec<usize>,
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
        let mut events = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        let mut next_sweep = Instant::now() + TICK;
        loop {
            if self.drain.load(Ordering::Relaxed) {
                let deadline = *drain_deadline.get_or_insert_with(|| {
                    // Stop accepting; the descriptor itself closes with
                    // the worker.
                    let _ = self.ready.remove(self.listener.as_raw_fd());
                    Instant::now() + self.cfg.drain_timeout
                });
                // Drop everything already flushed; give the rest more
                // rounds until the deadline.
                let expired = Instant::now() >= deadline;
                for i in 0..self.conns.len() {
                    if self.conns[i].as_ref().is_some_and(|c| expired || c.unsent() == 0) {
                        self.close(i);
                    }
                }
                if self.free.len() == self.conns.len() {
                    return;
                }
            }

            // A tick, or a negative return (EINTR), leaves `events`
            // empty: the wake goes straight back to the drain check.
            self.ready.wait(&mut events);
            // The one clock read of the wake: it stamps every serviced
            // connection's activity and times the sweep.
            let now = Instant::now();
            self.dispatch(&events, now, &mut scratch);
            if now >= next_sweep {
                self.sweep_idle(now);
                next_sweep = now + TICK;
            }
        }
    }

    /// Services one wait's batch of events. The listener goes last: a
    /// slot freed by a close is only reused once no event of the batch
    /// can still name it, so a stale `ERR|HUP` never reaches a fresh
    /// connection.
    fn dispatch(&mut self, events: &[ReadyEvent], now: Instant, scratch: &mut [u8]) {
        let mut accept = false;
        for ev in events {
            if ev.token == LISTENER {
                accept = true;
            } else if self.service(ev.token, ev.events, now, scratch) {
                self.close(ev.token);
            }
        }
        if accept {
            self.accept_burst(now);
        }
    }

    fn accept_burst(&mut self, now: Instant) {
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
                    let token = self.free.pop().unwrap_or(self.conns.len());
                    if self.ready.add(stream.as_raw_fd(), token, POLLIN).is_err() {
                        self.free.push(token);
                        continue;
                    }
                    self.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.connections_open.fetch_add(1, Ordering::Relaxed);
                    let conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_activity: now,
                        proto: Proto::Unknown,
                        closing: false,
                        interest: POLLIN,
                    };
                    if token == self.conns.len() {
                        self.conns.push(Some(conn));
                    } else {
                        self.conns[token] = Some(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Unregisters and drops connection `i`, returning its slot.
    fn close(&mut self, i: usize) {
        if let Some(conn) = self.conns[i].take() {
            let _ = self.ready.remove(conn.stream.as_raw_fd());
            self.free.push(i);
            self.stats.close_conns(1);
        }
    }

    /// Services one ready connection; returns `true` when it should be
    /// closed. An event for a vacant slot is ignored.
    fn service(&mut self, i: usize, revents: i16, now: Instant, scratch: &mut [u8]) -> bool {
        if !matches!(self.conns.get(i), Some(Some(_))) {
            return false;
        }
        if revents & (POLLERR | POLLNVAL) != 0 {
            return true;
        }
        // Readable (or hangup with possibly-buffered final bytes).
        if revents & (POLLIN | POLLHUP) != 0 && !live(&mut self.conns, i).closing {
            loop {
                let read_t0 = self.spans.as_ref().map(|_| Instant::now());
                let n = match live(&mut self.conns, i).stream.read(scratch) {
                    Ok(0) => {
                        // Peer EOF: flush whatever replies remain, then
                        // close.
                        live(&mut self.conns, i).closing = true;
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
                live(&mut self.conns, i).last_activity = now;
                if self.receive(i, &scratch[..n]) {
                    return true;
                }
                // Stop reading once backpressured; the rest stays in
                // the kernel buffer.
                if live(&mut self.conns, i).unsent() > self.cfg.max_write_buf || n < scratch.len() {
                    break;
                }
            }
        }
        // Flush, and whenever that brings the unsent bytes back under
        // the high-water mark, take up the frames back-pressure left in
        // the carry buffer — until one of the two stops making progress.
        // Nobody else would look at them before new bytes arrive.
        loop {
            if self.flush(i, now) {
                return true;
            }
            let conn = live(&mut self.conns, i);
            let held_back = matches!(conn.proto, Proto::Binary)
                && !conn.closing
                && !conn.rbuf.is_empty()
                && conn.unsent() <= self.cfg.max_write_buf;
            if !held_back || !self.process_carried(i) {
                break;
            }
        }
        let max_write_buf = self.cfg.max_write_buf;
        let conn = live(&mut self.conns, i);
        if conn.closing && conn.unsent() == 0 {
            return true;
        }
        // Interest follows the state machine and reaches the kernel only
        // when it changes. Backpressure: above the high-water mark the
        // socket is not read; the peer's sends eventually block on TCP.
        let mut interest = 0i16;
        if !conn.closing && conn.unsent() <= max_write_buf {
            interest |= POLLIN;
        }
        if conn.unsent() > 0 {
            interest |= POLLOUT;
        }
        if interest != conn.interest {
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            if self.ready.modify(fd, i, interest).is_err() {
                return true;
            }
        }
        false
    }

    /// Takes `bytes` just read off connection `i`; returns `true` to
    /// drop the connection immediately. Binary bytes that start on a
    /// frame boundary are decoded where they lie and only the unconsumed
    /// tail is carried over; otherwise they join the carry buffer first.
    fn receive(&mut self, i: usize, bytes: &[u8]) -> bool {
        let conn = live(&mut self.conns, i);
        if matches!(conn.proto, Proto::Unknown) {
            conn.proto = if bytes[0] == wire::MAGIC0 {
                Proto::Binary
            } else {
                Proto::Http
            };
        }
        match conn.proto {
            Proto::Binary if conn.rbuf.is_empty() => {
                let used = self.process_binary(i, bytes);
                live(&mut self.conns, i).rbuf.extend_from_slice(&bytes[used..]);
                false
            }
            Proto::Binary => {
                conn.rbuf.extend_from_slice(bytes);
                self.process_carried(i);
                false
            }
            Proto::Http => {
                conn.rbuf.extend_from_slice(bytes);
                self.process_http(i)
            }
            Proto::Unknown => unreachable!("sniffed above"),
        }
    }

    /// Decodes and admits the frames in connection `i`'s carry buffer;
    /// returns whether any were consumed.
    fn process_carried(&mut self, i: usize) -> bool {
        // Move the buffer out so the decoder borrows a local slice while
        // the connection's write buffer is appended to.
        let mut rbuf = std::mem::take(&mut live(&mut self.conns, i).rbuf);
        let used = self.process_binary(i, &rbuf);
        rbuf.drain(..used);
        live(&mut self.conns, i).rbuf = rbuf;
        used > 0
    }

    /// Decodes and admits whole frames from the front of `bytes`,
    /// encoding one reply per frame straight into connection `i`'s write
    /// buffer, until the bytes run out, the unsent replies pass the
    /// high-water mark, or a framing error condemns the connection.
    /// Returns how many bytes were consumed.
    fn process_binary(&mut self, i: usize, bytes: &[u8]) -> usize {
        let Self { cfg, door, stats, spans, conns, .. } = self;
        let conn = live(conns, i);
        let mut consumed = 0usize;
        while conn.unsent() <= cfg.max_write_buf {
            // Per-frame wire staging: decode → admission → reply encode,
            // plus the frame's read→reply-enqueued turnaround closed as
            // the net slot's sojourn. Timestamps only exist when a span
            // slot is attached, so the unobserved hot path stays free of
            // clock reads.
            let frame_t0 = spans.as_ref().map(|_| Instant::now());
            match wire::decode_frame(&bytes[consumed..], cfg.max_frame_tuples) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    let decode_done = frame_t0.map(|_| Instant::now());
                    // The admission call: shed decisions happen in here,
                    // *before* any key is read from the buffer.
                    let res = if frame.keyed {
                        door.offer_batch_keyed_lazy(frame.count as usize, &mut |k| frame.key(k))
                    } else {
                        door.offer_batch(frame.count as usize)
                    };
                    let admit_done = frame_t0.map(|_| Instant::now());
                    consumed += used;
                    wire::encode_reply_into(
                        &mut conn.wbuf,
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
                        (spans.as_ref(), frame_t0, decode_done, admit_done)
                    {
                        let t3 = Instant::now();
                        let ns = |d: Duration| d.as_nanos() as u64;
                        h.record(Stage::Decode, ns(t1.duration_since(t0)));
                        h.record(Stage::Admission, ns(t2.duration_since(t1)));
                        h.record(Stage::Reply, ns(t3.duration_since(t2)));
                        h.record_sojourn(ns(t3.duration_since(t0)));
                    }
                    stats.frames_received.fetch_add(1, Ordering::Relaxed);
                    stats.replies_sent.fetch_add(1, Ordering::Relaxed);
                    stats.add_result(&res);
                }
                Err(err) => {
                    // Echo the seq when the header got far enough to
                    // carry one, so the client can attribute the error.
                    let rest = &bytes[consumed..];
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
                        &mut conn.wbuf,
                        &Reply {
                            status,
                            seq,
                            ..Reply::default()
                        },
                    );
                    stats.frames_bad.fetch_add(1, Ordering::Relaxed);
                    stats.replies_sent.fetch_add(1, Ordering::Relaxed);
                    // Desync: no resync attempted, the rest is dropped.
                    conn.closing = true;
                    return bytes.len();
                }
            }
        }
        consumed
    }

    fn process_http(&mut self, i: usize) -> bool {
        const MAX_HEAD: usize = 8 * 1024;
        const MAX_BODY: usize = 64 * 1024;
        let rbuf = &self.conns[i].as_ref().expect("occupied slab slot").rbuf;
        let Some(head_end) = find_crlf2(rbuf) else {
            return rbuf.len() > MAX_HEAD; // drop header floods
        };
        let head = String::from_utf8_lossy(&rbuf[..head_end]).into_owned();
        let content_length = header_value(&head, "content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let (status, ctype, body) = if content_length > MAX_BODY {
            (413, "application/json", "{\"error\":\"body too large\"}".to_string())
        } else {
            let total = head_end + 4 + content_length;
            if rbuf.len() < total {
                return false; // await the body
            }
            let body = String::from_utf8_lossy(&rbuf[head_end + 4..total]).into_owned();
            live(&mut self.conns, i).rbuf.drain(..total);
            self.stats.http_requests.fetch_add(1, Ordering::Relaxed);
            let mut line = head.lines().next().unwrap_or("").split_whitespace();
            let method = line.next().unwrap_or("").to_string();
            let target = line.next().unwrap_or("/").to_string();
            self.route_http(&method, &target, &body)
        };
        // One request per connection: close after the reply (the fleet
        // path is the binary protocol; HTTP is for humans and
        // scrapers).
        let conn = live(&mut self.conns, i);
        conn.wbuf
            .extend_from_slice(obs::http_head(status, ctype, body.len()).as_bytes());
        conn.wbuf.extend_from_slice(body.as_bytes());
        conn.closing = true;
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

    /// Writes as much of the unsent replies as the socket takes; returns
    /// `true` when the connection died writing.
    fn flush(&mut self, i: usize, now: Instant) -> bool {
        let Self { stats, conns, .. } = self;
        let conn = live(conns, i);
        while conn.unsent() > 0 {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.wpos += n;
                    stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if conn.unsent() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos >= conn.unsent() {
            // Sent prefix at least as long as the unsent rest: dropping
            // it now moves each byte at most once per byte written.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        false
    }

    fn sweep_idle(&mut self, now: Instant) {
        for i in 0..self.conns.len() {
            let idle = self.conns[i]
                .as_ref()
                .is_some_and(|c| now.duration_since(c.last_activity) >= self.cfg.idle_timeout);
            if idle {
                self.stats.connections_idle_closed.fetch_add(1, Ordering::Relaxed);
                self.close(i);
            }
        }
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

    struct AcceptAll;

    impl FrontDoor for AcceptAll {
        fn offer_batch(&self, n: usize) -> BatchResult {
            BatchResult {
                offered: n as u64,
                dispatched: n as u64,
                ..BatchResult::default()
            }
        }
        fn offer_batch_keyed_lazy(
            &self,
            n: usize,
            _key_at: &mut dyn FnMut(usize) -> u64,
        ) -> BatchResult {
            self.offer_batch(n)
        }
    }

    /// A worker on a fresh loopback listener, driven by hand: the test
    /// calls `ready.wait` + `dispatch` where `run` would loop.
    fn hand_driven_worker() -> Worker {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut ready = ReadySet::new(Duration::from_millis(10)).unwrap();
        ready.add(listener.as_raw_fd(), LISTENER, POLLIN).unwrap();
        Worker {
            listener,
            cfg: NetConfig::default(),
            door: Arc::new(AcceptAll),
            obs: None,
            stats: Arc::new(NetStats::default()),
            drain: Arc::new(AtomicBool::new(false)),
            addr,
            ready,
            conns: Vec::new(),
            free: Vec::new(),
            spans: None,
        }
    }

    /// Waits until `tokens` are all ready at once (level-triggered, so
    /// readiness accumulates) and returns that batch.
    fn wait_for(w: &mut Worker, tokens: &[usize]) -> Vec<ReadyEvent> {
        let mut events = Vec::new();
        for _ in 0..500 {
            w.ready.wait(&mut events);
            if tokens.iter().all(|t| events.iter().any(|e| e.token == *t)) {
                return events;
            }
        }
        panic!("tokens {tokens:?} never ready together, last batch {events:?}");
    }

    /// A connection closes and another is accepted into its slab slot in
    /// one wake. Whatever else the batch holds for the freed token must
    /// not reach the newcomer: the listener is serviced last and events
    /// for a vacant slot are ignored.
    #[test]
    fn stale_event_for_a_freed_slot_spares_the_connection_accepted_into_it() {
        let mut w = hand_driven_worker();
        let mut scratch = vec![0u8; 4096];
        let a = TcpStream::connect(w.addr).unwrap();
        let batch = wait_for(&mut w, &[LISTENER]);
        w.dispatch(&batch, Instant::now(), &mut scratch);
        assert!(w.conns[0].is_some(), "A sits in slot 0");

        // A hangs up and B connects before the worker wakes.
        drop(a);
        let mut b = TcpStream::connect(w.addr).unwrap();
        let real = wait_for(&mut w, &[0, LISTENER]);
        let hangup = *real.iter().find(|e| e.token == 0).unwrap();
        // The worst order a batch could come in, plus a second event for
        // the freed token, as a kernel that queued one would deliver it.
        let batch = [
            ReadyEvent { token: LISTENER, events: POLLIN },
            hangup,
            ReadyEvent { token: 0, events: POLLERR | POLLHUP },
        ];
        w.dispatch(&batch, Instant::now(), &mut scratch);
        assert_eq!(w.stats.connections_closed.load(Ordering::Relaxed), 1, "A closed");
        assert_eq!(w.stats.connections_open.load(Ordering::Relaxed), 1, "B lives");
        assert!(w.conns[0].is_some() && w.conns.len() == 1, "B reuses slot 0");

        // And B is served.
        let mut frame = Vec::new();
        wire::encode_frame_into(&mut frame, 77, 5, None);
        b.write_all(&frame).unwrap();
        let batch = wait_for(&mut w, &[0]);
        w.dispatch(&batch, Instant::now(), &mut scratch);
        let mut reply = [0u8; wire::REPLY_LEN];
        b.read_exact(&mut reply).unwrap();
        let (reply, _) = wire::decode_reply(&reply).unwrap().unwrap();
        assert_eq!((reply.seq, reply.accepted), (77, 5));
    }

    #[test]
    fn http_head_helpers() {
        assert_eq!(find_crlf2(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        let head = "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\nHost: x";
        assert_eq!(header_value(head, "content-length"), Some("5"));
        assert_eq!(header_value(head, "missing"), None);
    }
}
