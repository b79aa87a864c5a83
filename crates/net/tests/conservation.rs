//! End-to-end conservation across the network boundary.
//!
//! PR 8 proved the in-process front-door ledger: `offered ==
//! dropped_entry + rejected_at_capacity + rejected_closed +
//! Σdispatched`. This suite extends the law across a real TCP hop and
//! three independently-maintained ledgers:
//!
//! * the **client fleet's** ledger, accumulated from per-frame replies
//!   (`LoadgenReport`),
//! * the **listener's** ledger ([`NetStats`]), accumulated from
//!   `BatchResult`s at admission time,
//! * the **engine's** ledger (`ShardReport`), the ground truth counters.
//!
//! Every tuple a client sent must land in exactly one bucket of each,
//! and the three must agree exactly — any double count, lost reply, or
//! phantom admission breaks an equality below.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use streamshed_engine::hook::Decision;
use streamshed_engine::shard::{ShardConfig, ShardedEngine};
use streamshed_engine::worker::CostModel;
use streamshed_net::loadgen::{self, Arrivals, LoadgenConfig, Mode};
use streamshed_net::server::{NetConfig, NetServer};
use streamshed_net::wire::{self, Reply};

/// A fast engine that sheds a fixed fraction at entry — overload
/// behavior without waiting for a real controller to engage.
fn shedding_engine(alpha: f64) -> Arc<ShardedEngine> {
    let mut cfg = ShardConfig::demo(1);
    cfg.cost = Duration::ZERO;
    cfg.cost_model = CostModel::Spin;
    cfg.period = Duration::from_millis(10);
    Arc::new(ShardedEngine::spawn(cfg, move |_s: &_| Decision::entry(alpha)))
}

fn quiet_net_cfg() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        ..NetConfig::default()
    }
}

/// The tentpole invariant: fleet ledger == listener ledger == engine
/// ledger, bucket for bucket, with a nonzero shed bucket in play.
#[test]
fn three_ledgers_agree_exactly() {
    let engine = shedding_engine(0.3);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();

    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        connections: 4,
        rate: 20_000.0,
        batch: 64,
        secs: 0.6,
        seed: 7,
        mode: Mode::Open,
        arrivals: Arrivals::Poisson,
        keyed: true,
        ..LoadgenConfig::default()
    })
    .unwrap();

    assert_eq!(report.connections_established, 4);
    assert_eq!(report.error_replies, 0);
    assert!(report.sent > 0, "fleet sent nothing");
    assert!(report.shed > 0, "alpha=0.3 must shed: {report:?}");
    assert!(report.conserved(), "fleet ledger broken: {report:?}");

    // Loadgen's reply-derived buckets match the listener's admission
    // counters exactly — nothing else talked to this server.
    let l = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
    assert_eq!(report.accepted, l(&stats.tuples_accepted));
    assert_eq!(report.shed, l(&stats.tuples_shed));
    assert_eq!(report.rejected_capacity, l(&stats.tuples_rejected_capacity));
    assert_eq!(report.rejected_closed, l(&stats.tuples_rejected_closed));
    // Tuples the fleet counts as lost never reached admission.
    assert_eq!(report.sent - report.lost, l(&stats.tuples_offered));
    assert!(stats.tuples_balance());

    // The engine's ground-truth ledger agrees with both.
    server.shutdown();
    let engine_report = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still referenced"))
        .shutdown();
    assert!(engine_report.counters_balance());
    assert_eq!(engine_report.offered, report.sent - report.lost);
    assert_eq!(engine_report.dropped_entry, report.shed);
    assert_eq!(engine_report.rejected_at_capacity, report.rejected_capacity);
    assert_eq!(engine_report.rejected_closed, report.rejected_closed);
    let engine_accepted = engine_report.offered
        - engine_report.dropped_entry
        - engine_report.rejected_at_capacity
        - engine_report.rejected_closed;
    assert_eq!(engine_accepted, report.accepted);
}

/// A framing violation earns an error reply with the offending seq
/// echoed, the connection closes, and no tuples are admitted.
#[test]
fn bad_frame_replies_then_closes_without_admission() {
    let engine = shedding_engine(0.0);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    // A full 16-byte header with an unknown version: seq must echo.
    let mut bad = vec![wire::MAGIC0, wire::MAGIC1_DATA, 99, 0];
    bad.extend_from_slice(&42u32.to_le_bytes());
    bad.extend_from_slice(&0xABCD_u64.to_le_bytes());
    sock.write_all(&bad).unwrap();

    let mut buf = Vec::new();
    sock.read_to_end(&mut buf).unwrap(); // server closes after reply
    let (reply, used) = wire::decode_reply(&buf).unwrap().expect("an error reply");
    assert_eq!(used, buf.len(), "exactly one reply then EOF");
    assert_eq!(reply.status, Reply::STATUS_BAD_FRAME);
    assert_eq!(reply.seq, 0xABCD);
    assert_eq!(reply.total(), 0);
    assert_eq!(stats.frames_bad.load(Ordering::Relaxed), 1);
    assert_eq!(stats.tuples_offered.load(Ordering::Relaxed), 0);

    server.shutdown();
    drop(engine);
}

/// An oversized header is refused from its 16 bytes alone — the claimed
/// payload is never awaited, never buffered, never admitted.
#[test]
fn oversized_frame_rejected_from_header() {
    let engine = shedding_engine(0.0);
    let server = NetServer::start(
        NetConfig {
            max_frame_tuples: 64,
            ..quiet_net_cfg()
        },
        engine.clone(),
        None,
    )
    .unwrap();
    let stats = server.stats();

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let mut frame = Vec::new();
    // Keyed frame claiming 1M tuples (an 8 MB payload we never send).
    wire::encode_frame_into(&mut frame, 5, 0, Some(&[]));
    frame[4..8].copy_from_slice(&1_000_000u32.to_le_bytes());
    sock.write_all(&frame).unwrap();

    let mut buf = Vec::new();
    sock.read_to_end(&mut buf).unwrap();
    let (reply, _) = wire::decode_reply(&buf).unwrap().expect("an error reply");
    assert_eq!(reply.status, Reply::STATUS_OVERSIZED);
    assert_eq!(reply.seq, 5);
    assert_eq!(stats.tuples_offered.load(Ordering::Relaxed), 0);

    server.shutdown();
    drop(engine);
}

fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut sock = TcpStream::connect(addr).unwrap();
    write!(sock, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut text = String::new();
    sock.read_to_string(&mut text).unwrap();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// The HTTP side stays live while binary ingest is in flight: `/ingest`
/// admits through the same ledger, `/metrics` exports the
/// `streamshed_net_*` families mid-run.
#[test]
fn http_endpoints_live_during_binary_ingest() {
    let engine = shedding_engine(0.0);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();
    let addr = server.addr();

    // Keep a binary connection mid-stream (half a frame sent).
    let mut binary = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    wire::encode_frame_into(&mut frame, 1, 100, None);
    binary.write_all(&frame[..9]).unwrap();

    // POST /ingest admits via the same four-bucket ledger.
    let mut post = TcpStream::connect(addr).unwrap();
    write!(post, "POST /ingest?count=10 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut text = String::new();
    post.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("\"offered\":10"), "{text}");

    // /metrics carries the net families and the admitted count.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("streamshed_net_tuples_total"), "{body}");
    assert!(body.contains("streamshed_net_connections_accepted"), "{body}");

    // Unknown paths 404 without disturbing ingest.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // Now finish the binary frame: the half-open connection was
    // untouched by the HTTP traffic.
    binary.write_all(&frame[9..]).unwrap();
    let mut rbuf = [0u8; wire::REPLY_LEN];
    binary.read_exact(&mut rbuf).unwrap();
    let (reply, _) = wire::decode_reply(&rbuf).unwrap().unwrap();
    assert_eq!(reply.status, Reply::STATUS_OK);
    assert_eq!(reply.total(), 100);
    assert_eq!(stats.tuples_offered.load(Ordering::Relaxed), 110);

    server.shutdown();
    drop(engine);
}

/// Idle connections are reaped after the timeout and counted; active
/// ones are not.
#[test]
fn idle_timeout_reaps_silent_connections() {
    let engine = shedding_engine(0.0);
    let server = NetServer::start(
        NetConfig {
            idle_timeout: Duration::from_millis(150),
            ..quiet_net_cfg()
        },
        engine.clone(),
        None,
    )
    .unwrap();
    let stats = server.stats();

    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    // The server closes us: read returns 0 (EOF) well within 5 s.
    let n = idle.read(&mut buf).unwrap();
    assert_eq!(n, 0, "expected EOF from idle sweep");
    assert_eq!(stats.connections_idle_closed.load(Ordering::Relaxed), 1);

    server.shutdown();
    drop(engine);
}

/// Graceful drain: in-flight frames are answered and admitted before
/// the listener goes away; afterwards the port refuses new work.
#[test]
fn shutdown_drains_inflight_frames() {
    let engine = shedding_engine(0.0);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();
    let addr = server.addr();

    let mut sock = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    wire::encode_frame_into(&mut frame, 9, 50, None);
    sock.write_all(&frame).unwrap();
    // Wait for the reply so the frame is known-processed, then shut
    // down with the connection still open.
    let mut rbuf = [0u8; wire::REPLY_LEN];
    sock.read_exact(&mut rbuf).unwrap();
    let (reply, _) = wire::decode_reply(&rbuf).unwrap().unwrap();
    assert_eq!(reply.total(), 50);

    server.shutdown();
    assert_eq!(stats.tuples_offered.load(Ordering::Relaxed), 50);
    // The listener is gone: a fresh connect must fail (or be refused
    // on first read) — give the OS a beat to recycle the port.
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut b = [0u8; 1];
            assert!(
                matches!(s.read(&mut b), Ok(0) | Err(_)),
                "listener still serving after shutdown"
            );
        }
    }
    drop(engine);
}

/// Frames that back-pressure left in the carry buffer are taken up again
/// as soon as the flush makes room — not when the client next sends. A
/// client that writes one burst and then only reads gets every reply.
#[test]
fn frames_held_back_by_backpressure_are_answered_without_new_bytes() {
    const FRAMES: u64 = 2000;
    let engine = shedding_engine(0.0);
    let server = NetServer::start(
        NetConfig {
            max_write_buf: 4096,
            ..quiet_net_cfg()
        },
        engine.clone(),
        None,
    )
    .unwrap();

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut burst = Vec::new();
    for seq in 0..FRAMES {
        wire::encode_frame_into(&mut burst, seq, 3, None);
    }
    sock.write_all(&burst).unwrap();

    // 147 replies pass the 4 KiB mark; the other 1 853 frames must not
    // wait for bytes this client will never send.
    let mut replies = vec![0u8; FRAMES as usize * wire::REPLY_LEN];
    sock.read_exact(&mut replies)
        .expect("a reply to every frame while the client only reads");
    for (seq, chunk) in (0..FRAMES).zip(replies.chunks(wire::REPLY_LEN)) {
        let (reply, _) = wire::decode_reply(chunk).unwrap().unwrap();
        assert_eq!((reply.status, reply.seq, reply.total()), (Reply::STATUS_OK, seq, 3));
    }
    assert_eq!(server.stats().tuples_offered.load(Ordering::Relaxed), FRAMES * 3);

    server.shutdown();
    drop(engine);
}

/// Adds one reply's four buckets (accepted, shed, rejected at capacity,
/// rejected closed) to a fleet-side ledger.
fn add_buckets(fleet: &mut [u64; 4], reply: &Reply) {
    for (sum, part) in fleet.iter_mut().zip([
        reply.accepted,
        reply.shed,
        reply.rejected_capacity,
        reply.rejected_closed,
    ]) {
        *sum += u64::from(part);
    }
}

/// Shuts server and engine down and holds a reply-derived fleet ledger
/// against the listener's and the engine's, bucket for bucket.
fn assert_three_ledgers_agree(fleet: [u64; 4], server: NetServer, engine: Arc<ShardedEngine>) {
    let stats = server.stats();
    let l = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
    let listener = [
        l(&stats.tuples_accepted),
        l(&stats.tuples_shed),
        l(&stats.tuples_rejected_capacity),
        l(&stats.tuples_rejected_closed),
    ];
    assert_eq!(fleet, listener);
    assert!(stats.tuples_balance());
    assert!(fleet[1] > 0, "the engine's alpha must shed");
    assert_eq!(l(&stats.frames_bad), 0);
    server.shutdown();
    let report = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still referenced"))
        .shutdown();
    assert!(report.counters_balance());
    assert_eq!(report.offered, fleet.iter().sum::<u64>());
    assert_eq!(
        [report.dropped_entry, report.rejected_at_capacity, report.rejected_closed],
        fleet[1..]
    );
}

/// Spins until the listener has read `bytes` in total: the sync point
/// that makes "the server saw exactly this much" a fact, not a sleep.
fn await_bytes_read(stats: &streamshed_net::server::NetStats, bytes: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stats.bytes_read.load(Ordering::Relaxed) < bytes {
        assert!(std::time::Instant::now() < deadline, "listener stopped reading");
        std::thread::yield_now();
    }
}

/// Decode-in-place and the carry buffer are the same decoder: a keyed
/// 256-tuple frame, a header-only frame and half of a third, delivered
/// in two reads split at *every* byte offset, earn the replies of the
/// unsplit delivery, and fleet, listener and engine ledgers agree.
#[test]
fn every_split_offset_decodes_like_the_unsplit_delivery() {
    let engine = shedding_engine(0.3);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();

    let keys: Vec<u64> = (0..256u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut bytes = Vec::new();
    wire::encode_frame_into(&mut bytes, 1, 256, Some(&keys));
    wire::encode_frame_into(&mut bytes, 2, 16, None);
    let whole = bytes.len();
    wire::encode_frame_into(&mut bytes, 3, 4, Some(&keys[..4]));
    bytes.truncate(whole + 24); // header + one key of the third: never completed

    let (mut fleet, mut read_so_far) = ([0u64; 4], 0u64);
    // Offset 0 is the unsplit delivery the others are held against.
    for cut in 0..bytes.len() {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(&bytes[..cut]).unwrap();
        await_bytes_read(&stats, read_so_far + cut as u64);
        sock.write_all(&bytes[cut..]).unwrap();
        let mut replies = [0u8; 2 * wire::REPLY_LEN];
        sock.read_exact(&mut replies)
            .unwrap_or_else(|e| panic!("split at {cut}: {e}"));
        for (chunk, (seq, count)) in replies.chunks(wire::REPLY_LEN).zip([(1, 256), (2, 16)]) {
            let (reply, _) = wire::decode_reply(chunk).unwrap().unwrap();
            assert_eq!(
                (reply.status, reply.seq, reply.total()),
                (Reply::STATUS_OK, seq, count),
                "split at {cut}"
            );
            add_buckets(&mut fleet, &reply);
        }
        read_so_far += bytes.len() as u64;
        await_bytes_read(&stats, read_so_far);
    }

    assert_eq!(fleet.iter().sum::<u64>(), bytes.len() as u64 * (256 + 16));
    assert_three_ledgers_agree(fleet, server, engine);
}

/// The stalled reader (write-buffer high-water): a client that sends
/// without reading makes the listener stop reading its socket; when the
/// client drains, reading resumes, every frame is answered in order, and
/// the three ledgers agree exactly.
#[test]
fn stalled_reader_pauses_reads_at_high_water_then_drains_exactly() {
    use std::io::ErrorKind::WouldBlock;
    use std::time::Instant;
    const TUPLES: u32 = 7;
    const STILL: Duration = Duration::from_millis(300);
    let engine = shedding_engine(0.3);
    let server = NetServer::start(quiet_net_cfg(), engine.clone(), None).unwrap();
    let stats = server.stats();
    let bytes_read = || stats.bytes_read.load(Ordering::Relaxed);

    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_nonblocking(true).unwrap();
    let (mut pending, mut off) = (Vec::new(), 0usize);
    let (mut frames, mut sent) = (0u64, 0u64);
    let started = Instant::now();
    let mut last_growth = (bytes_read(), Instant::now());
    // Send without reading until the listener stops reading.
    loop {
        if off == pending.len() {
            (pending, off) = (Vec::new(), 0);
            for _ in 0..4096 {
                wire::encode_frame_into(&mut pending, frames, TUPLES, None);
                frames += 1;
            }
        }
        match sock.write(&pending[off..]) {
            Ok(n) => (off, sent) = (off + n, sent + n as u64),
            Err(e) if e.kind() == WouldBlock => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("send: {e}"),
        }
        let seen = bytes_read();
        if seen != last_growth.0 {
            last_growth = (seen, Instant::now());
        } else if sent > seen && last_growth.1.elapsed() >= STILL {
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "the listener never paused");
    }
    let paused_at = bytes_read();
    assert!(sent > paused_at, "bytes are waiting and the listener is not reading them");

    // Finish the frame in flight, drop the unsent rest of the chunk.
    let frame_end = off.div_ceil(wire::DATA_HEADER) * wire::DATA_HEADER;
    frames -= ((pending.len() - frame_end) / wire::DATA_HEADER) as u64;
    pending.truncate(frame_end);

    // Drain: read replies (and push the last partial frame out).
    let mut fleet = [0u64; 4];
    let (mut rbuf, mut answered) = (Vec::new(), 0u64);
    let mut chunk = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered < frames {
        assert!(Instant::now() < deadline, "{answered} of {frames} frames answered");
        if off < pending.len() {
            match sock.write(&pending[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == WouldBlock => {}
                Err(e) => panic!("send: {e}"),
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => panic!("server closed after {answered} of {frames} replies"),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == WouldBlock => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("recv: {e}"),
        }
        let mut used = 0;
        while let Some((reply, n)) = wire::decode_reply(&rbuf[used..]).unwrap() {
            used += n;
            assert_eq!(
                (reply.status, reply.seq, reply.total()),
                (Reply::STATUS_OK, answered, u64::from(TUPLES))
            );
            answered += 1;
            add_buckets(&mut fleet, &reply);
        }
        rbuf.drain(..used);
    }
    assert!(bytes_read() > paused_at, "reading resumed");
    assert_eq!(bytes_read(), frames * wire::DATA_HEADER as u64);

    assert_eq!(fleet.iter().sum::<u64>(), frames * u64::from(TUPLES));
    drop(sock);
    assert_three_ledgers_agree(fleet, server, engine);
}
