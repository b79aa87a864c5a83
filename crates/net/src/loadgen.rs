//! An open-loop client fleet for the network front door.
//!
//! Every connection runs from a *precomputed, seeded* frame schedule
//! (`workload::schedule` over Pareto ON/OFF or Poisson arrivals, or an
//! analytic uniform ramp), so a run's offered load is deterministic for
//! a given seed regardless of wall-clock jitter: frames go out at
//! schedule time whatever the replies say, because an overloaded server
//! does not slow the arrival process (the paper's overload regime). The
//! fleet is
//! thread-per-core: each worker thread owns a slice of the connections
//! and drives them through one `poll(2)` loop — tens of thousands of
//! concurrent sockets cost one thread each *per core*, not per
//! connection.
//!
//! The report carries the fleet-side view of the four-bucket admission
//! ledger, reconstructed purely from per-frame backpressure replies,
//! plus the conservation law across the network boundary:
//!
//! ```text
//! sent == accepted + shed + rejected_capacity + rejected_closed + lost
//! ```
//!
//! where `lost` counts tuples in frames that never got a reply
//! (connection died or the run's drain window expired). A clean run
//! against a live server has `lost == 0`, and the integration tests
//! additionally check the fleet's buckets equal the engine's own
//! front-door counters — the PR 8 `counters_balance` discipline, now
//! spanning two processes.

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wire::{self, Reply};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use streamshed_engine::telemetry::{write_json_object, Cell};
use streamshed_workload::{frame_schedule, uniform_schedule, FrameAt, PoissonTrace, WebLikeTrace};

/// Arrival process each connection draws its schedule from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Evenly spaced (analytic; no per-arrival memory).
    Uniform,
    /// Poisson at the per-connection mean rate.
    Poisson,
    /// Pareto ON/OFF web-like source (bursty, heavy-tailed).
    Web,
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Fleet size (concurrent connections).
    pub connections: usize,
    /// Worker threads; 0 means one per host core.
    pub threads: usize,
    /// Aggregate offered rate, tuples/s, split evenly across
    /// connections. 0 holds connections open without sending.
    pub rate: f64,
    /// Tuples per frame.
    pub batch: usize,
    /// Send-phase length, seconds.
    pub secs: f64,
    /// Master seed; connection `c` derives its own stream from it.
    pub seed: u64,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Send keyed frames (8 bytes/tuple) instead of header-only counts;
    /// keys are drawn deterministically from the connection seed.
    pub keyed: bool,
    /// Grace period after the send phase to collect outstanding
    /// replies.
    pub drain: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            connections: 1,
            threads: 0,
            rate: 1000.0,
            batch: 16,
            secs: 1.0,
            seed: 42,
            arrivals: Arrivals::Uniform,
            keyed: false,
            drain: Duration::from_secs(2),
        }
    }
}

/// Fleet-side outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Connections the config asked for.
    pub connections_target: usize,
    /// Connections that completed a TCP handshake.
    pub connections_established: usize,
    /// Established connections that died before the run ended.
    pub connections_lost: usize,
    /// Tuples enqueued in data frames.
    pub sent: u64,
    /// Tuples the server accepted (dispatched into shard rings).
    pub accepted: u64,
    /// Tuples the entry shedder dropped.
    pub shed: u64,
    /// Tuples refused on full rings.
    pub rejected_capacity: u64,
    /// Tuples refused after engine close.
    pub rejected_closed: u64,
    /// Tuples in frames that never got a reply.
    pub lost: u64,
    /// Data frames sent.
    pub frames_sent: u64,
    /// Replies received.
    pub replies: u64,
    /// Replies with a non-OK status (framing errors on our side — 0 in
    /// a healthy run).
    pub error_replies: u64,
    /// Wall-clock run length, seconds (send + drain actually used).
    pub elapsed_s: f64,
    /// `sent / elapsed`.
    pub send_rate_tps: f64,
    /// `accepted / elapsed`.
    pub accepted_rate_tps: f64,
    /// Jain fairness index over per-connection accepted ratios (1.0 =
    /// perfectly even service across the fleet).
    pub fairness_jain: f64,
    /// Coefficient of variation of per-connection shed ratios (small =
    /// the shedder is not picking on anyone).
    pub shed_ratio_cv: f64,
    /// Mean frame round-trip, ms.
    pub rtt_mean_ms: f64,
    /// Worst frame round-trip, ms.
    pub rtt_max_ms: f64,
    /// Median frame round-trip, ms.
    pub rtt_p50_ms: f64,
    /// 99th-percentile frame round-trip, ms.
    pub rtt_p99_ms: f64,
    /// 99.9th-percentile frame round-trip, ms.
    pub rtt_p999_ms: f64,
    /// The merged per-connection RTT histogram (µs values), for callers
    /// that want quantiles beyond the three exported above — e.g. the
    /// server-side sojourn cross-check in the experiments crate.
    pub rtt_histo: streamshed_engine::histo::Histo,
}

impl LoadgenReport {
    /// The conservation law across the network boundary.
    pub fn conserved(&self) -> bool {
        self.sent
            == self.accepted + self.shed + self.rejected_capacity + self.rejected_closed + self.lost
    }

    /// One-line JSON rendering (for the `loadgen` binary and CI lanes).
    pub fn to_json(&self) -> String {
        use Cell::{Bool, Fixed, U};
        let mut out = String::with_capacity(640);
        write_json_object(
            &mut out,
            [
                ("connections_target", U(self.connections_target as u64)),
                ("connections_established", U(self.connections_established as u64)),
                ("connections_lost", U(self.connections_lost as u64)),
                ("sent", U(self.sent)),
                ("accepted", U(self.accepted)),
                ("shed", U(self.shed)),
                ("rejected_capacity", U(self.rejected_capacity)),
                ("rejected_closed", U(self.rejected_closed)),
                ("lost", U(self.lost)),
                ("frames_sent", U(self.frames_sent)),
                ("replies", U(self.replies)),
                ("error_replies", U(self.error_replies)),
                ("elapsed_s", Fixed(self.elapsed_s, 3)),
                ("send_rate_tps", Fixed(self.send_rate_tps, 1)),
                ("accepted_rate_tps", Fixed(self.accepted_rate_tps, 1)),
                ("fairness_jain", Fixed(self.fairness_jain, 4)),
                ("shed_ratio_cv", Fixed(self.shed_ratio_cv, 4)),
                ("rtt_mean_ms", Fixed(self.rtt_mean_ms, 3)),
                ("rtt_max_ms", Fixed(self.rtt_max_ms, 3)),
                ("rtt_p50_ms", Fixed(self.rtt_p50_ms, 3)),
                ("rtt_p99_ms", Fixed(self.rtt_p99_ms, 3)),
                ("rtt_p999_ms", Fixed(self.rtt_p999_ms, 3)),
                ("conserved", Bool(self.conserved())),
            ],
        );
        out
    }
}

/// Per-connection fleet state.
struct ClientConn {
    stream: Option<TcpStream>,
    schedule: Vec<FrameAt>,
    next_frame: usize,
    seq_next: u64,
    /// In-flight frames awaiting replies, in order: `(seq, sent_at,
    /// tuples)`.
    outstanding: VecDeque<(u64, Instant, u32)>,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
    // Fleet-side ledger.
    sent: u64,
    accepted: u64,
    shed: u64,
    rejected_capacity: u64,
    rejected_closed: u64,
    frames_sent: u64,
    replies: u64,
    error_replies: u64,
    rtt_sum_us: u64,
    rtt_max_us: u64,
    /// Per-connection RTT histogram (µs), merged into the fleet report.
    rtt_histo: streamshed_engine::histo::Histo,
    dead: bool,
}

impl ClientConn {
    fn unanswered(&self) -> u64 {
        self.outstanding.iter().map(|(_, _, n)| u64::from(*n)).sum()
    }
}

/// Builds the deterministic schedule for connection `c` of the fleet.
fn schedule_for(cfg: &LoadgenConfig, c: usize) -> Vec<FrameAt> {
    if cfg.rate <= 0.0 || cfg.secs <= 0.0 {
        return Vec::new();
    }
    let per_conn = cfg.rate / cfg.connections as f64;
    let conn_seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(c as u64);
    match cfg.arrivals {
        Arrivals::Uniform => {
            uniform_schedule((per_conn * cfg.secs).round() as u64, cfg.secs, cfg.batch)
        }
        Arrivals::Poisson => {
            frame_schedule(&PoissonTrace::new(per_conn, conn_seed), cfg.secs, cfg.batch)
        }
        Arrivals::Web => {
            // One ON/OFF source per connection, duty-cycle-corrected so
            // the *mean* per-connection rate matches (defaults: 4 s ON /
            // 6 s OFF → duty 0.4).
            let trace = WebLikeTrace::builder()
                .sources(1)
                .on_rate(per_conn / 0.4)
                .seed(conn_seed)
                .build();
            frame_schedule(&trace, cfg.secs, cfg.batch)
        }
    }
}

/// Runs the fleet to completion and aggregates the report. Fails fast
/// when the process's fd budget cannot hold the fleet.
pub fn run(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    if let Some(limit) = sys::nofile_limit() {
        let need = cfg.connections as u64 + 64;
        if need > limit {
            return Err(std::io::Error::other(format!(
                "fleet of {} connections needs ~{need} fds but RLIMIT_NOFILE is {limit}; \
                 lower --connections or raise ulimit -n",
                cfg.connections
            )));
        }
    }
    let threads_n = if cfg.threads == 0 {
        streamshed_engine::affinity::host_cores().min(8)
    } else {
        cfg.threads
    };
    let threads_n = threads_n.min(cfg.connections.max(1));
    let start = Instant::now();
    let mut joins = Vec::with_capacity(threads_n);
    for t in 0..threads_n {
        // Connection c belongs to thread c % threads_n.
        let ids: Vec<usize> = (0..cfg.connections).skip(t).step_by(threads_n).collect();
        let cfg = cfg.clone();
        joins.push(
            std::thread::Builder::new()
                .name(format!("streamshed-loadgen-{t}"))
                .spawn(move || fleet_thread(&cfg, &ids, start))
                .expect("spawn loadgen thread"),
        );
    }
    let mut conns: Vec<ClientConn> = Vec::new();
    let mut established = 0usize;
    for j in joins {
        let (part, est) = j.join().expect("loadgen thread panicked");
        conns.extend(part);
        established += est;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut r = LoadgenReport {
        connections_target: cfg.connections,
        connections_established: established,
        elapsed_s: elapsed,
        ..LoadgenReport::default()
    };
    for c in &conns {
        r.sent += c.sent;
        r.accepted += c.accepted;
        r.shed += c.shed;
        r.rejected_capacity += c.rejected_capacity;
        r.rejected_closed += c.rejected_closed;
        r.lost += c.unanswered();
        r.frames_sent += c.frames_sent;
        r.replies += c.replies;
        r.error_replies += c.error_replies;
        if c.dead {
            r.connections_lost += 1;
        }
    }
    r.send_rate_tps = r.sent as f64 / elapsed.max(1e-9);
    r.accepted_rate_tps = r.accepted as f64 / elapsed.max(1e-9);
    let rtt_frames: u64 = conns.iter().map(|c| c.replies).sum();
    if rtt_frames > 0 {
        let sum: u64 = conns.iter().map(|c| c.rtt_sum_us).sum();
        r.rtt_mean_ms = sum as f64 / rtt_frames as f64 / 1000.0;
        r.rtt_max_ms = conns.iter().map(|c| c.rtt_max_us).max().unwrap_or(0) as f64 / 1000.0;
    }
    // Exact histogram merge across the fleet, then the tail quantiles.
    for c in &conns {
        r.rtt_histo.merge(&c.rtt_histo);
    }
    if r.rtt_histo.count() > 0 {
        r.rtt_p50_ms = r.rtt_histo.quantile(0.50) as f64 / 1000.0;
        r.rtt_p99_ms = r.rtt_histo.quantile(0.99) as f64 / 1000.0;
        r.rtt_p999_ms = r.rtt_histo.quantile(0.999) as f64 / 1000.0;
    }
    // Fairness across connections that actually offered load.
    let ratios: Vec<(f64, f64)> = conns
        .iter()
        .filter(|c| c.sent > 0)
        .map(|c| {
            (
                c.accepted as f64 / c.sent as f64,
                c.shed as f64 / c.sent as f64,
            )
        })
        .collect();
    if !ratios.is_empty() {
        let n = ratios.len() as f64;
        let sum: f64 = ratios.iter().map(|(a, _)| a).sum();
        let sq: f64 = ratios.iter().map(|(a, _)| a * a).sum();
        r.fairness_jain = if sq > 0.0 { sum * sum / (n * sq) } else { 1.0 };
        let shed_mean: f64 = ratios.iter().map(|(_, s)| s).sum::<f64>() / n;
        if shed_mean > 0.0 {
            let var: f64 =
                ratios.iter().map(|(_, s)| (s - shed_mean).powi(2)).sum::<f64>() / n;
            r.shed_ratio_cv = var.sqrt() / shed_mean;
        }
    } else {
        r.fairness_jain = 1.0;
    }
    Ok(r)
}

/// One fleet worker: connects its slice of the fleet, then drives every
/// connection through send/receive/drain. Returns per-connection states
/// plus how many established.
fn fleet_thread(cfg: &LoadgenConfig, ids: &[usize], start: Instant) -> (Vec<ClientConn>, usize) {
    let mut conns: Vec<ClientConn> = Vec::with_capacity(ids.len());
    let mut established = 0usize;
    for (k, &c) in ids.iter().enumerate() {
        // Ramp throttle: don't overrun the server's accept backlog.
        if k > 0 && k % 256 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stream = TcpStream::connect_timeout(&cfg.addr, Duration::from_secs(5))
            .and_then(|s| {
                s.set_nonblocking(true)?;
                let _ = s.set_nodelay(true);
                Ok(s)
            })
            .ok();
        if stream.is_some() {
            established += 1;
        }
        conns.push(ClientConn {
            stream,
            schedule: schedule_for(cfg, c),
            next_frame: 0,
            seq_next: (c as u64) << 32,
            outstanding: VecDeque::new(),
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            sent: 0,
            accepted: 0,
            shed: 0,
            rejected_capacity: 0,
            rejected_closed: 0,
            frames_sent: 0,
            replies: 0,
            error_replies: 0,
            rtt_sum_us: 0,
            rtt_max_us: 0,
            rtt_histo: streamshed_engine::histo::Histo::new(),
            dead: false,
        });
    }

    let send_deadline = start + Duration::from_secs_f64(cfg.secs.max(0.0));
    let hard_deadline = send_deadline + cfg.drain;
    let mut pollfds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut scratch = vec![0u8; 64 * 1024];
    let mut key_scratch: Vec<u64> = Vec::with_capacity(cfg.batch);
    loop {
        let now = Instant::now();
        let sending = now < send_deadline;
        // Enqueue due frames.
        for conn in conns.iter_mut() {
            if conn.dead || conn.stream.is_none() {
                continue;
            }
            let elapsed_us = now.duration_since(start).as_micros() as u64;
            while conn.next_frame < conn.schedule.len() {
                let f = conn.schedule[conn.next_frame];
                // Past the send deadline every remaining frame is due
                // by construction (schedules end at `secs`); flush them
                // so totals match the deterministic schedule.
                if sending && f.at_us > elapsed_us {
                    break;
                }
                if conn.wbuf.len() > 1 << 20 {
                    break; // pathological backlog; let it flush first
                }
                let seq = conn.seq_next;
                conn.seq_next += 1;
                let mut tmp = Vec::with_capacity(wire::DATA_HEADER + f.tuples as usize * 8);
                if cfg.keyed {
                    key_scratch.clear();
                    // Deterministic keys: splitmix over (seq, index).
                    for i in 0..f.tuples as u64 {
                        let mut z = seq
                            .wrapping_add(i)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        z ^= z >> 30;
                        key_scratch.push(z);
                    }
                    wire::encode_frame_into(&mut tmp, seq, f.tuples, Some(&key_scratch));
                } else {
                    wire::encode_frame_into(&mut tmp, seq, f.tuples, None);
                }
                conn.wbuf.extend(tmp);
                conn.outstanding.push_back((seq, now, f.tuples));
                conn.sent += u64::from(f.tuples);
                conn.frames_sent += 1;
                conn.next_frame += 1;
            }
        }

        // Poll the fleet.
        pollfds.clear();
        let mut any_alive = false;
        for conn in &conns {
            let Some(stream) = &conn.stream else {
                continue;
            };
            if conn.dead {
                continue;
            }
            any_alive = true;
            let mut events = POLLIN;
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd {
                fd: stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        if !any_alive {
            break;
        }
        sys::poll(&mut pollfds, 5);

        // Service I/O in pollfd order (alive conns only, same order as
        // built above).
        let mut p = 0usize;
        for conn in conns.iter_mut() {
            if conn.dead || conn.stream.is_none() {
                continue;
            }
            let revents = pollfds.get(p).map_or(0, |f| f.revents);
            p += 1;
            if revents & (POLLERR | POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            // Flush pending frames.
            if !conn.wbuf.is_empty() {
                let stream = conn.stream.as_mut().expect("checked above");
                while !conn.wbuf.is_empty() {
                    let (front, _) = conn.wbuf.as_slices();
                    match stream.write(front) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.wbuf.drain(..n);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
            }
            if conn.dead {
                continue;
            }
            // Read replies.
            if revents & (POLLIN | POLLHUP) != 0 {
                let stream = conn.stream.as_mut().expect("checked above");
                loop {
                    match stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            if n < scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                let now = Instant::now();
                let mut used = 0usize;
                while let Ok(Some((reply, n))) = wire::decode_reply(&conn.rbuf[used..]) {
                    used += n;
                    conn.replies += 1;
                    if reply.status != Reply::STATUS_OK {
                        conn.error_replies += 1;
                        // The server closes after an error reply; the
                        // outstanding tail becomes `lost`.
                        continue;
                    }
                    // Replies come back in frame order on a TCP stream.
                    if let Some((seq, sent_at, _tuples)) = conn.outstanding.pop_front() {
                        debug_assert_eq!(seq, reply.seq, "reply out of order");
                        let rtt = now.duration_since(sent_at).as_micros() as u64;
                        conn.rtt_sum_us += rtt;
                        conn.rtt_max_us = conn.rtt_max_us.max(rtt);
                        conn.rtt_histo.record(rtt);
                    }
                    conn.accepted += u64::from(reply.accepted);
                    conn.shed += u64::from(reply.shed);
                    conn.rejected_capacity += u64::from(reply.rejected_capacity);
                    conn.rejected_closed += u64::from(reply.rejected_closed);
                }
                if used > 0 {
                    conn.rbuf.drain(..used);
                }
            }
        }

        // Done when the schedule is exhausted and nothing is in flight,
        // or the drain window expires.
        let now = Instant::now();
        if now >= hard_deadline {
            break;
        }
        if now >= send_deadline {
            let all_done = conns.iter().all(|c| {
                c.dead
                    || c.stream.is_none()
                    || (c.next_frame >= c.schedule.len()
                        && c.outstanding.is_empty()
                        && c.wbuf.is_empty())
            });
            if all_done {
                break;
            }
        }
    }
    // Graceful goodbye: shut the write half so the server sees EOF and
    // drops the connection promptly.
    for conn in &mut conns {
        if let Some(s) = &conn.stream {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
    (conns, established)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_conserve() {
        let cfg = LoadgenConfig {
            connections: 8,
            rate: 800.0,
            secs: 2.0,
            batch: 16,
            seed: 7,
            arrivals: Arrivals::Poisson,
            ..LoadgenConfig::default()
        };
        for c in 0..8 {
            let a = schedule_for(&cfg, c);
            let b = schedule_for(&cfg, c);
            assert_eq!(a, b, "schedule must be a pure function of (cfg, conn)");
        }
        // Distinct connections get distinct arrival streams.
        assert_ne!(schedule_for(&cfg, 0), schedule_for(&cfg, 1));
    }

    #[test]
    fn zero_rate_holds_without_frames() {
        let cfg = LoadgenConfig {
            rate: 0.0,
            ..LoadgenConfig::default()
        };
        assert!(schedule_for(&cfg, 0).is_empty());
    }

    #[test]
    fn report_json_keeps_its_keys_and_precisions() {
        let r = LoadgenReport {
            sent: 12,
            elapsed_s: 1.23456,
            send_rate_tps: 9.75,
            fairness_jain: 0.5,
            rtt_p99_ms: 2.0,
            ..LoadgenReport::default()
        };
        let json = r.to_json();
        // No value is a string, so the keys are every other quoted run.
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(
            keys,
            [
                "connections_target",
                "connections_established",
                "connections_lost",
                "sent",
                "accepted",
                "shed",
                "rejected_capacity",
                "rejected_closed",
                "lost",
                "frames_sent",
                "replies",
                "error_replies",
                "elapsed_s",
                "send_rate_tps",
                "accepted_rate_tps",
                "fairness_jain",
                "shed_ratio_cv",
                "rtt_mean_ms",
                "rtt_max_ms",
                "rtt_p50_ms",
                "rtt_p99_ms",
                "rtt_p999_ms",
                "conserved",
            ]
        );
        for field in [
            "\"sent\":12,",
            "\"elapsed_s\":1.235,",
            "\"send_rate_tps\":9.8,",
            "\"fairness_jain\":0.5000,",
            "\"rtt_p99_ms\":2.000,",
            "\"conserved\":false}",
        ] {
            assert!(json.contains(field), "{field} in {json}");
        }
    }

    #[test]
    fn report_conservation_arithmetic() {
        let mut r = LoadgenReport {
            sent: 100,
            accepted: 60,
            shed: 30,
            rejected_capacity: 6,
            rejected_closed: 2,
            lost: 2,
            ..LoadgenReport::default()
        };
        assert!(r.conserved());
        r.lost = 1;
        assert!(!r.conserved());
        let json = r.to_json();
        assert!(json.contains("\"conserved\":false"));
        assert!(json.contains("\"sent\":100"));
    }
}
