//! The benchmark's open-loop TCP load driver: one thread, non-blocking
//! sockets, a frame schedule precomputed from the seed.
//!
//! A frame is *due* at its schedule time and is stamped with that due
//! time; its reply RTT is `reply received − due`, so a stall is charged
//! to every frame it delays. The driver never waits for a reply before
//! sending, and reports how late it ran (`lag` = written − due).
//! `net::loadgen` is not used for timing: it stamps at enqueue rather
//! than at due time and services sockets on a 5 ms `poll` tick.

use crate::stats;
use crate::trace::{Span, SpanSink, SPAN_CAP};
use crate::Plan;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use streamshed_engine::Histo;
use streamshed_net::sys::{PollFd, POLLIN, POLLOUT};
use streamshed_net::wire::{self, Reply};

/// How long the driver waits for outstanding replies after the last
/// frame; tuples of frames still unanswered then count as failed.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// One kind of frame a load sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// Class name (`bulk`, `small`, `frame`).
    pub name: &'static str,
    /// Tuples in every frame of the class.
    pub tuples: u32,
    /// Pre-encoded frames the driver cycles through; only the header's
    /// sequence number is rewritten at send time.
    pub pool: Vec<Vec<u8>>,
    /// Connections the class's frames rotate over.
    pub conns: usize,
}

impl Class {
    /// A class of keyed frames: `pool` frames of `tuples` keys each,
    /// every key derived from `seed`.
    pub fn keyed(name: &'static str, tuples: u32, pool: usize, conns: usize, seed: u64) -> Self {
        let pool = (0..pool as u64)
            .map(|f| {
                let keys: Vec<u64> = (0..tuples as u64)
                    .map(|i| crate::mix(seed, f * tuples as u64 + i))
                    .collect();
                let mut buf = Vec::new();
                wire::encode_frame_into(&mut buf, 0, tuples, Some(&keys));
                buf
            })
            .collect();
        Self {
            name,
            tuples,
            pool,
            conns,
        }
    }

    /// A class of header-only (unkeyed) frames.
    pub fn unkeyed(name: &'static str, tuples: u32, conns: usize) -> Self {
        let mut buf = Vec::new();
        wire::encode_frame_into(&mut buf, 0, tuples, None);
        Self {
            name,
            tuples,
            pool: vec![buf],
            conns,
        }
    }
}

/// One scheduled frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrameDue {
    /// Due time, ns from the start of the run.
    pub due_ns: u64,
    /// Index into [`Load::classes`].
    pub class: u8,
}

/// Everything the driver sends: classes and the merged, sorted schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Load {
    /// Frame classes.
    pub classes: Vec<Class>,
    /// All frames, sorted by due time.
    pub frames: Vec<FrameDue>,
}

/// The four-bucket ledger as the driver sees it, from replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Tuples in frames queued for sending.
    pub offered: u64,
    /// Tuples answered `accepted`.
    pub accepted: u64,
    /// Tuples answered `shed`.
    pub shed: u64,
    /// Tuples answered `rejected_capacity`.
    pub rejected_capacity: u64,
    /// Tuples answered `rejected_closed`.
    pub rejected_closed: u64,
}

/// What the driver measured in one slice (frames assigned by due time).
#[derive(Debug, Clone, Default)]
pub struct SliceLoad {
    /// Reply RTT from due time, ns, all classes.
    pub rtt: Histo,
    /// Tuples of answered frames.
    pub answered_tuples: u64,
    /// Written − due, ns.
    pub lag: Histo,
}

/// The driver's account of a run.
#[derive(Debug, Default)]
pub struct DriverReport {
    /// Reply ledger over the whole run (warm-up included).
    pub ledger: Ledger,
    /// Frames queued for sending, whole run.
    pub frames_sent: u64,
    /// Tuples in frames answered with an error status or a reply that
    /// does not match the frame.
    pub error_tuples: u64,
    /// Tuples in frames still unanswered at the drain deadline.
    pub unanswered_tuples: u64,
    /// Per-slice measurements of the measured window.
    pub slices: Vec<SliceLoad>,
    /// Reply RTT by class over the measured window, ns.
    pub class_rtt: Vec<Histo>,
    /// Frames written in the measured window.
    pub window_frames: u64,
    /// CPU time of the whole process over the measured window, ns.
    pub process_cpu_ns: u64,
    /// CPU time of the driver thread over the measured window, ns.
    pub driver_cpu_ns: u64,
}

struct Inflight {
    seq: u64,
    due_ns: u64,
    written_ns: u64,
    class: u8,
    /// Ordinal of the frame within its class (names it in spans).
    ordinal: u64,
}

struct Conn {
    stream: TcpStream,
    /// Bytes accepted for sending; `out[flushed..]` is still unwritten.
    out: Vec<u8>,
    flushed: usize,
    /// Frames whose last byte sits at this offset of `out`, oldest first.
    unwritten: VecDeque<usize>,
    /// Frames sent (or queued) and not yet answered, oldest first; the
    /// last `unwritten.len()` of them are not fully written yet.
    inflight: VecDeque<Inflight>,
    rbuf: Vec<u8>,
}

/// The two driver spans of an answered frame; `origin` is the run's
/// start on the sink's clock.
fn push_frame_spans(sink: &SpanSink, origin: u64, class: &str, f: &Inflight, got_ns: u64) {
    let frame = Some(format!("{class}:{}", f.ordinal));
    sink.push(Span {
        name: "frame.due→written",
        start_ns: origin + f.due_ns,
        end_ns: origin + f.written_ns,
        parent: Some("frame"),
        frame: frame.clone(),
        attrs: String::new(),
    });
    sink.push(Span {
        name: "frame.written→reply",
        start_ns: origin + f.written_ns,
        end_ns: origin + got_ns,
        parent: Some("frame"),
        frame,
        attrs: String::new(),
    });
}

/// Sleeps until `timeout` passes or a socket in `fds` is ready.
#[cfg(target_os = "linux")]
fn wait(fds: &mut [PollFd], timeout: Duration) {
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `repr(C)`
    // pollfd-layout structs and `nfds` is its length; `ts` outlives the
    // call; a null signal mask leaves the thread's mask unchanged. A
    // failed call (EINTR) is a spurious wake-up, which the caller's loop
    // tolerates.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Without `ppoll` the driver sleeps blind and finds replies on waking.
#[cfg(not(target_os = "linux"))]
fn wait(fds: &mut [PollFd], timeout: Duration) {
    std::thread::sleep(timeout);
    for fd in fds {
        fd.revents = POLLIN;
    }
}

/// The driver's open connections, one group per class.
pub struct Driver {
    conns: Vec<Conn>,
    /// Index in `conns` of each class's first connection.
    first_conn: Vec<usize>,
}

impl Driver {
    /// Opens every class's connections to `addr` (part of set-up).
    pub fn connect(addr: SocketAddr, load: &Load) -> std::io::Result<Self> {
        let mut conns = Vec::new();
        let mut first_conn = Vec::new();
        for class in &load.classes {
            first_conn.push(conns.len());
            for _ in 0..class.conns {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                conns.push(Conn {
                    stream,
                    out: Vec::new(),
                    flushed: 0,
                    unwritten: VecDeque::new(),
                    inflight: VecDeque::new(),
                    rbuf: Vec::new(),
                });
            }
        }
        Ok(Self { conns, first_conn })
    }

    /// Drives `load` for `plan`'s warm-up and window, calling
    /// `at_boundary(i)` on this thread at the start of slice `i` (and
    /// once more at the end of the last slice).
    pub fn drive(
        self,
        load: &Load,
        plan: &Plan,
        sink: Option<&SpanSink>,
        mut at_boundary: impl FnMut(usize),
    ) -> std::io::Result<DriverReport> {
        let Self {
            mut conns,
            first_conn,
        } = self;
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let mut run = Run {
            load,
            sink,
            start: Instant::now(),
            warmup_ns: plan.warmup.as_nanos() as u64,
            slice_ns: plan.slice.as_nanos() as u64,
            slices: plan.slices,
            class_sent: vec![0; load.classes.len()],
            next_frame: 0,
            report: DriverReport {
                slices: vec![SliceLoad::default(); plan.slices],
                class_rtt: vec![Histo::new(); load.classes.len()],
                ..DriverReport::default()
            },
        };
        let mut scratch = vec![0u8; 64 * 1024];
        let mut next_boundary = 0usize;
        let mut cpu_at_start = (0u64, 0u64);
        let mut drain_deadline: Option<Instant> = None;

        loop {
            // Slice boundaries: read the engine (and the CPU clocks at the
            // window's two ends) on this thread, between frames.
            let now_ns = run.now_ns();
            while next_boundary <= plan.slices && now_ns >= run.boundary_ns(next_boundary) {
                if next_boundary == 0 {
                    cpu_at_start = (stats::process_cpu_ns(), stats::thread_cpu_ns());
                }
                if next_boundary == plan.slices {
                    run.report.process_cpu_ns = stats::process_cpu_ns() - cpu_at_start.0;
                    run.report.driver_cpu_ns = stats::thread_cpu_ns() - cpu_at_start.1;
                }
                at_boundary(next_boundary);
                next_boundary += 1;
            }

            run.queue_due(&mut conns, &first_conn, now_ns);
            for (conn, fd) in conns.iter_mut().zip(fds.iter_mut()) {
                run.flush(conn)?;
                fd.events = if conn.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
                if fd.revents & POLLIN != 0 {
                    run.read_replies(conn, &mut scratch)?;
                }
            }

            // Done when every frame is sent and answered (or the drain
            // deadline passed) and the last boundary was taken.
            let next_due = load.frames.get(run.next_frame).map(|f| f.due_ns);
            if next_due.is_none() && next_boundary > plan.slices {
                let deadline = *drain_deadline.get_or_insert(Instant::now() + DRAIN_DEADLINE);
                if conns.iter().all(|c| c.inflight.is_empty()) || Instant::now() >= deadline {
                    break;
                }
            }

            // Sleep until the next frame or boundary is due, or a reply
            // arrives.
            let now_ns = run.now_ns();
            let next_bound = (next_boundary <= plan.slices).then(|| run.boundary_ns(next_boundary));
            let wake_ns = [next_due, next_bound]
                .into_iter()
                .flatten()
                .fold(now_ns + 1_000_000, u64::min);
            wait(
                &mut fds,
                Duration::from_nanos(wake_ns.saturating_sub(now_ns)),
            );
        }

        let mut report = run.report;
        for f in conns.iter().flat_map(|c| &c.inflight) {
            report.unanswered_tuples += load.classes[f.class as usize].tuples as u64;
        }
        Ok(report)
    }
}

/// One drive of a load: what the loop's steps share.
struct Run<'a> {
    load: &'a Load,
    sink: Option<&'a SpanSink>,
    start: Instant,
    warmup_ns: u64,
    slice_ns: u64,
    slices: usize,
    /// Frames queued so far, per class.
    class_sent: Vec<u64>,
    /// Index in `load.frames` of the next frame to queue.
    next_frame: usize,
    report: DriverReport,
}

impl Run<'_> {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// When slice `i` starts (`i == slices`: when the window ends).
    fn boundary_ns(&self, i: usize) -> u64 {
        self.warmup_ns + self.slice_ns * i as u64
    }

    /// The slice a frame due at `due_ns` belongs to, if it is in the
    /// measured window.
    fn slice_of(&self, due_ns: u64) -> Option<usize> {
        (due_ns >= self.warmup_ns && due_ns < self.boundary_ns(self.slices))
            .then(|| ((due_ns - self.warmup_ns) / self.slice_ns) as usize)
    }

    /// Queues every frame due by `now_ns` on its class's next connection.
    fn queue_due(&mut self, conns: &mut [Conn], first_conn: &[usize], now_ns: u64) {
        while let Some(f) = self
            .load
            .frames
            .get(self.next_frame)
            .filter(|f| f.due_ns <= now_ns)
        {
            let class = &self.load.classes[f.class as usize];
            let ordinal = self.class_sent[f.class as usize];
            self.class_sent[f.class as usize] += 1;
            let conn = &mut conns[first_conn[f.class as usize] + ordinal as usize % class.conns];
            let seq = self.next_frame as u64;
            let at = conn.out.len();
            conn.out
                .extend_from_slice(&class.pool[ordinal as usize % class.pool.len()]);
            conn.out[at + 8..at + 16].copy_from_slice(&seq.to_le_bytes());
            conn.unwritten.push_back(conn.out.len());
            conn.inflight.push_back(Inflight {
                seq,
                due_ns: f.due_ns,
                written_ns: 0,
                class: f.class,
                ordinal,
            });
            self.report.frames_sent += 1;
            self.report.ledger.offered += class.tuples as u64;
            self.next_frame += 1;
        }
    }

    /// Writes what `conn` has queued and stamps the frames that went out.
    fn flush(&mut self, conn: &mut Conn) -> std::io::Result<()> {
        while conn.flushed < conn.out.len() {
            match conn.stream.write(&conn.out[conn.flushed..]) {
                Ok(n) => conn.flushed += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let written_ns = self.now_ns();
        while conn
            .unwritten
            .front()
            .is_some_and(|&end| end <= conn.flushed)
        {
            conn.unwritten.pop_front();
            let idx = conn.inflight.len() - conn.unwritten.len() - 1;
            let f = &mut conn.inflight[idx];
            f.written_ns = written_ns.max(f.due_ns);
            if let Some(s) = self.slice_of(f.due_ns) {
                self.report.window_frames += 1;
                self.report.slices[s].lag.record(f.written_ns - f.due_ns);
            }
        }
        if conn.flushed == conn.out.len() {
            conn.out.clear();
            conn.flushed = 0;
        }
        Ok(())
    }

    /// Reads every reply that has arrived on `conn` and books it against
    /// the oldest unanswered frame.
    fn read_replies(&mut self, conn: &mut Conn, scratch: &mut [u8]) -> std::io::Result<()> {
        loop {
            let n = match conn.stream.read(scratch) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed a driver connection",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let got_ns = self.now_ns();
            conn.rbuf.extend_from_slice(&scratch[..n]);
            let mut used = 0;
            while let Ok(Some((reply, len))) = wire::decode_reply(&conn.rbuf[used..]) {
                used += len;
                if let Some(f) = conn.inflight.pop_front() {
                    self.book(&reply, &f, got_ns);
                }
            }
            conn.rbuf.drain(..used);
            if n < scratch.len() {
                return Ok(());
            }
        }
    }

    /// Books `reply`, received at `got_ns`, against the frame `f` it
    /// answers.
    fn book(&mut self, reply: &Reply, f: &Inflight, got_ns: u64) {
        let class = &self.load.classes[f.class as usize];
        let tuples = class.tuples as u64;
        let report = &mut self.report;
        if reply.status != Reply::STATUS_OK || reply.seq != f.seq || reply.total() != tuples {
            report.error_tuples += tuples;
            return;
        }
        report.ledger.accepted += reply.accepted as u64;
        report.ledger.shed += reply.shed as u64;
        report.ledger.rejected_capacity += reply.rejected_capacity as u64;
        report.ledger.rejected_closed += reply.rejected_closed as u64;
        if let Some(sink) = self.sink.filter(|_| (f.ordinal as usize) < SPAN_CAP) {
            push_frame_spans(sink, sink.ns(self.start), class.name, f, got_ns);
        }
        if let Some(s) = self.slice_of(f.due_ns) {
            let rtt = got_ns.saturating_sub(f.due_ns);
            let report = &mut self.report;
            report.slices[s].rtt.record(rtt);
            report.slices[s].answered_tuples += tuples;
            report.class_rtt[f.class as usize].record(rtt);
        }
    }
}
