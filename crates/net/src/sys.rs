//! Minimal OS plumbing for the network plane: a registered readiness
//! set, `poll(2)`, signal flags, and the open-file rlimit.
//!
//! The crate forbids unsafe code by default; this module is the single
//! audited exception (mirroring `engine::affinity`), holding the direct
//! libc wrappers the vendored dependency set does not provide:
//!
//! * [`ReadySet`] — the server workers' level-triggered readiness set:
//!   `epoll(7)` on Linux, so a wake costs the kernel and the worker work
//!   proportional to the sockets that are *ready*, not to the sockets
//!   that are open (a worker holding thousands of idle connections
//!   beside two busy ones pays for two). Sockets are registered once
//!   under a caller-chosen token and their interest changed only when it
//!   changes; a registered periodic `timerfd` is the tick on which the
//!   worker checks its drain flag and sweeps idle connections, so no
//!   wait arms a timeout of its own. The set owns both descriptors and
//!   closes them on drop.
//! * [`poll`] — one-shot readiness over a caller-built set, for the
//!   loadgen fleet and the benchmark driver, which rebuild their
//!   interest every round anyway and wake on a timer, not on readiness.
//! * [`install_term_handlers`] — SIGTERM/SIGINT → a process-wide flag
//!   read via [`term_requested`], so `serve` can drain gracefully. A
//!   signal also interrupts a blocking wait (EINTR), which is exactly
//!   the wakeup the event loop needs.
//! * [`nofile_limit`] — `getrlimit(RLIMIT_NOFILE)`, so the loadgen can
//!   refuse fleet sizes the process could never hold instead of dying
//!   mid-ramp on EMFILE.
//!
//! Off Linux every wrapper degrades honestly: `ReadySet` keeps its
//! registrations in a vector and waits through `poll`, which reports all
//! requested events ready (callers fall through to their nonblocking
//! reads/writes and see `WouldBlock`, i.e. correctness is preserved at
//! the cost of spinning), signals are not installed, and the rlimit is
//! unknown.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// One entry of a [`poll`] set — ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (from `AsRawFd::as_raw_fd`).
    pub fd: i32,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events (kernel-filled; includes error conditions).
    pub revents: i16,
}

/// Readable (or a peer hangup pending read).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always polled implicitly).
pub const POLLERR: i16 = 0x008;
/// Peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Invalid fd in the set.
pub const POLLNVAL: i16 = 0x020;

/// Waits up to `timeout_ms` (−1 = forever) for readiness on `fds`.
/// Returns the number of ready entries, 0 on timeout, or a negative
/// value on error/EINTR — callers treat negatives as a spurious wakeup
/// and re-check their stop flags.
#[cfg(target_os = "linux")]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    if fds.is_empty() {
        // poll(2) with nfds 0 is a portable sleep; keep the semantics
        // without handing libc a dangling pointer.
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
        return 0;
    }
    // SAFETY: `fds` is a live, exclusive slice of `#[repr(C)]` PollFd
    // entries matching `struct pollfd`; the kernel writes only `revents`
    // within the `fds.len()` entries passed.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
}

/// Portable fallback: report every requested event as ready after a
/// short sleep. Callers' nonblocking I/O then observes `WouldBlock`,
/// degrading to a 1 ms-granularity spin — correct, just not efficient.
#[cfg(not(target_os = "linux"))]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
    std::thread::sleep(std::time::Duration::from_millis(
        timeout_ms.clamp(0, 1) as u64
    ));
    for f in fds.iter_mut() {
        f.revents = f.events;
    }
    fds.len() as i32
}

/// One ready socket reported by [`ReadySet::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The token the socket was registered under.
    pub token: usize,
    /// What it is ready for: [`POLLIN`] / [`POLLOUT`] as asked, plus
    /// [`POLLERR`] / [`POLLHUP`], which are reported unasked.
    pub events: i16,
}

/// Most events one [`ReadySet::wait`] hands back; sockets beyond it stay
/// ready (level-triggered) and come out of the next wait.
const MAX_EVENTS: usize = 256;

/// The token the set keeps for its own tick timer.
const TICK_TOKEN: usize = usize::MAX;

/// `struct epoll_event`: packed on x86-64 only, as the kernel ABI has it.
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// A level-triggered readiness set with a periodic tick: sockets are
/// registered once under a token, and [`ReadySet::wait`] returns only
/// the ready ones, so a wake costs O(ready), not O(registered).
/// Level-triggered means a socket left with unread bytes (or writable
/// with interest in `POLLOUT`) is reported again by the next wait — no
/// readiness is ever lost by servicing a socket partially.
///
/// A wait also returns, empty, at least once per tick, which is when
/// callers look at their stop flags and run their periodic work. On
/// Linux the tick is one registered periodic `timerfd`, not a timeout
/// on every wait: a timeout arms and cancels a kernel timer per wait,
/// which at tens of thousands of wakes a second was a measurable share
/// of a listener's CPU.
#[cfg(target_os = "linux")]
pub struct ReadySet {
    epfd: std::os::fd::OwnedFd,
    tick: std::fs::File,
    buf: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl ReadySet {
    const CTL_ADD: i32 = 1;
    const CTL_DEL: i32 = 2;
    const CTL_MOD: i32 = 3;

    /// An empty set ticking every `tick` (at least 1 ms). It owns one
    /// epoll and one timer descriptor, both closed on drop.
    pub fn new(tick: std::time::Duration) -> std::io::Result<Self> {
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
        use std::os::raw::c_long;
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        #[repr(C)]
        struct Itimerspec {
            it_interval: Timespec,
            it_value: Timespec,
        }
        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn timerfd_create(clockid: i32, flags: i32) -> i32;
            fn timerfd_settime(
                fd: i32,
                flags: i32,
                new_value: *const Itimerspec,
                old_value: *mut Itimerspec,
            ) -> i32;
        }
        const EPOLL_CLOEXEC: i32 = 0o2000000;
        const CLOCK_MONOTONIC: i32 = 1;
        const TFD_CLOEXEC: i32 = 0o2000000;
        const TFD_NONBLOCK: i32 = 0o4000;
        let owned = |fd: i32| {
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            // SAFETY: `fd` was just returned by the creating call, is
            // open, and is owned by nothing else.
            Ok(unsafe { OwnedFd::from_raw_fd(fd) })
        };
        // SAFETY: neither call takes a pointer; each returns a fresh
        // descriptor or -1.
        let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let timer = owned(unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) })?;
        let tick = tick.max(std::time::Duration::from_millis(1));
        let period = || Timespec {
            tv_sec: tick.as_secs() as c_long,
            tv_nsec: tick.subsec_nanos() as c_long,
        };
        let spec = Itimerspec {
            it_interval: period(),
            it_value: period(),
        };
        // SAFETY: `spec` is a live `struct itimerspec` the kernel only
        // reads; a null `old_value` is allowed.
        if unsafe { timerfd_settime(timer.as_raw_fd(), 0, &spec, std::ptr::null_mut()) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let set = Self {
            epfd,
            tick: std::fs::File::from(timer),
            buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        };
        set.ctl(Self::CTL_ADD, set.tick.as_raw_fd(), TICK_TOKEN, POLLIN)?;
        Ok(set)
    }

    fn ctl(&self, op: i32, fd: i32, token: usize, interest: i16) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        }
        // The POLL* bits this module exports equal their EPOLL* twins.
        let mut ev = EpollEvent {
            events: interest as u16 as u32,
            data: token as u64,
        };
        // SAFETY: `ev` is a live, exclusive `struct epoll_event` the
        // kernel only reads; a stale or foreign `fd` fails with EBADF /
        // ENOENT rather than touching memory.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` (any but `usize::MAX`, which the set
    /// keeps for its tick) with `interest` ([`POLLIN`] | [`POLLOUT`]).
    pub fn add(&mut self, fd: i32, token: usize, interest: i16) -> std::io::Result<()> {
        if token == TICK_TOKEN {
            return Err(std::io::ErrorKind::InvalidInput.into());
        }
        self.ctl(Self::CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest of a registered `fd`.
    pub fn modify(&mut self, fd: i32, token: usize, interest: i16) -> std::io::Result<()> {
        self.ctl(Self::CTL_MOD, fd, token, interest)
    }

    /// Unregisters `fd` (which must still be open).
    pub fn remove(&mut self, fd: i32) -> std::io::Result<()> {
        self.ctl(Self::CTL_DEL, fd, 0, 0)
    }

    /// Blocks until a socket is ready or the tick fires, and fills
    /// `ready` with the ready sockets (cleared first). Returns their
    /// number — 0 when only the tick fired — or a negative value on
    /// error/EINTR with `ready` empty; callers treat that as a spurious
    /// wakeup and re-check their stop flags.
    pub fn wait(&mut self, ready: &mut Vec<ReadyEvent>) -> i32 {
        use std::io::Read;
        use std::os::fd::AsRawFd;
        extern "C" {
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32)
                -> i32;
        }
        ready.clear();
        // SAFETY: `buf` is a live, exclusive slice of `struct
        // epoll_event`; the kernel writes at most `buf.len()` entries.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                -1,
            )
        };
        if n < 0 {
            return n;
        }
        for ev in &self.buf[..n as usize] {
            if ev.data == TICK_TOKEN as u64 {
                // Reading the expiry count is what clears the timer's
                // readiness; non-blocking, so a lost race reads nothing.
                let _ = self.tick.read(&mut [0u8; 8]);
            } else {
                ready.push(ReadyEvent {
                    token: ev.data as usize,
                    events: ev.events as i16,
                });
            }
        }
        ready.len() as i32
    }
}

/// Portable body: the registrations live in a vector and every wait is
/// one [`poll`] over all of them with the tick as its timeout —
/// O(registered), correct everywhere.
#[cfg(not(target_os = "linux"))]
pub struct ReadySet {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
    tick_ms: i32,
}

#[cfg(not(target_os = "linux"))]
impl ReadySet {
    /// An empty set ticking every `tick` (at least 1 ms).
    pub fn new(tick: std::time::Duration) -> std::io::Result<Self> {
        Ok(Self {
            fds: Vec::new(),
            tokens: Vec::new(),
            tick_ms: tick.as_millis().clamp(1, i32::MAX as u128) as i32,
        })
    }

    fn slot(&self, fd: i32) -> std::io::Result<usize> {
        self.fds
            .iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| std::io::ErrorKind::NotFound.into())
    }

    /// Registers `fd` under `token` (any but `usize::MAX`, which the set
    /// keeps for its tick) with `interest` ([`POLLIN`] | [`POLLOUT`]).
    pub fn add(&mut self, fd: i32, token: usize, interest: i16) -> std::io::Result<()> {
        if token == TICK_TOKEN {
            return Err(std::io::ErrorKind::InvalidInput.into());
        }
        self.fds.push(PollFd {
            fd,
            events: interest,
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Replaces the interest of a registered `fd`.
    pub fn modify(&mut self, fd: i32, token: usize, interest: i16) -> std::io::Result<()> {
        let at = self.slot(fd)?;
        self.fds[at].events = interest;
        self.tokens[at] = token;
        Ok(())
    }

    /// Unregisters `fd`.
    pub fn remove(&mut self, fd: i32) -> std::io::Result<()> {
        let at = self.slot(fd)?;
        self.fds.swap_remove(at);
        self.tokens.swap_remove(at);
        Ok(())
    }

    /// Blocks until a socket is ready or the tick passes, and fills
    /// `ready` with the ready sockets (cleared first); same contract as
    /// the Linux body.
    pub fn wait(&mut self, ready: &mut Vec<ReadyEvent>) -> i32 {
        ready.clear();
        let n = poll(&mut self.fds, self.tick_ms);
        if n < 0 {
            return n;
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents != 0 && ready.len() < MAX_EVENTS {
                ready.push(ReadyEvent {
                    token,
                    events: p.revents,
                });
            }
        }
        ready.len() as i32
    }
}

/// The process-wide termination flag. A static because signal handlers
/// cannot capture state; read through [`term_requested`].
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM + SIGINT handlers that set the process-wide flag
/// behind [`term_requested`]. Idempotent.
#[cfg(target_os = "linux")]
pub fn install_term_handlers() {
    extern "C" fn on_term(_sig: i32) {
        // Only async-signal-safe work: one relaxed store.
        TERM_FLAG.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_term` is `extern "C" fn(i32)` as signal(2) requires,
    // and its body is async-signal-safe (a single atomic store).
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

/// Signals are not installed off Linux; [`term_requested`] then only
/// reflects [`request_term`] calls (callers still honor their own
/// deadlines).
#[cfg(not(target_os = "linux"))]
pub fn install_term_handlers() {}

/// True once SIGTERM/SIGINT has been delivered (or [`request_term`]
/// called).
pub fn term_requested() -> bool {
    TERM_FLAG.load(Ordering::Relaxed)
}

/// Sets the termination flag programmatically — tests and in-process
/// embedders use this where a real signal would be delivered.
pub fn request_term() {
    TERM_FLAG.store(true, Ordering::Relaxed);
}

/// The soft open-files limit (`RLIMIT_NOFILE`), or `None` when unknown.
#[cfg(target_os = "linux")]
pub fn nofile_limit() -> Option<u64> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, exclusive `#[repr(C)]` buffer matching
    // `struct rlimit` (two u64s on 64-bit Linux); getrlimit only writes
    // into it.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0 {
        Some(lim.cur)
    } else {
        None
    }
}

/// Unknown off Linux.
#[cfg(not(target_os = "linux"))]
pub fn nofile_limit() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_times_out_on_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll(&mut fds, 10);
        // No pending connection: timeout (0) on Linux; the portable
        // fallback reports ready, which is also allowed.
        assert!(n >= 0);
    }

    #[test]
    fn poll_reports_readable_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut fds = [PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll(&mut fds, 1000);
        assert!(n >= 1, "pending accept must wake poll");
        assert!(fds[0].revents & POLLIN != 0);
    }

    #[test]
    fn poll_empty_set_sleeps() {
        let t = std::time::Instant::now();
        assert_eq!(poll(&mut [], 20), 0);
        assert!(t.elapsed() >= std::time::Duration::from_millis(15));
    }

    #[test]
    fn ready_set_reports_only_ready_tokens_and_follows_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let idle = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut set = ReadySet::new(std::time::Duration::from_millis(10)).unwrap();
        set.add(listener.as_raw_fd(), 7, POLLIN).unwrap();
        set.add(idle.as_raw_fd(), 8, POLLIN).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut ready = Vec::new();
        assert!(set.wait(&mut ready) >= 1, "pending accept must wake the set");
        let listener_ready = |r: &[ReadyEvent]| {
            r.iter().any(|e| e.token == 7 && e.events & POLLIN != 0)
        };
        assert!(listener_ready(&ready), "{ready:?}");
        // Level-triggered: not accepted, so still ready; interest
        // dropped, so silent; unregistered, so silent.
        set.wait(&mut ready);
        assert!(listener_ready(&ready), "{ready:?}");
        set.modify(listener.as_raw_fd(), 7, 0).unwrap();
        set.remove(idle.as_raw_fd()).unwrap();
        if cfg!(target_os = "linux") {
            assert_eq!(set.wait(&mut ready), 0, "only the tick ends this wait");
            assert!(ready.is_empty(), "{ready:?}");
        }
        assert!(set.add(idle.as_raw_fd(), usize::MAX, POLLIN).is_err(), "the tick's token");
        assert!(set.remove(idle.as_raw_fd()).is_err(), "removed twice");
    }

    /// A signal landing in a blocked wait returns negative with no
    /// events — the spurious wake on which a worker re-checks its drain
    /// flag.
    #[cfg(target_os = "linux")]
    #[test]
    fn wait_interrupted_by_a_signal_is_a_spurious_wake() {
        use std::os::unix::thread::JoinHandleExt;
        extern "C" fn ignore(_sig: i32) {}
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_kill(thread: usize, sig: i32) -> i32;
        }
        const SIGUSR1: i32 = 10;
        // SAFETY: `ignore` is `extern "C" fn(i32)` as signal(2) requires
        // and does nothing, which is async-signal-safe.
        unsafe { signal(SIGUSR1, ignore as *const () as usize) };
        let waiter = std::thread::spawn(|| {
            let mut set = ReadySet::new(std::time::Duration::from_secs(5)).unwrap();
            let mut ready = vec![ReadyEvent { token: 1, events: POLLIN }];
            let t0 = std::time::Instant::now();
            (set.wait(&mut ready), ready.len(), t0.elapsed())
        });
        // A signal that lands before the thread blocks interrupts
        // nothing, so keep sending until the wait has returned.
        while !waiter.is_finished() {
            // SAFETY: the handle is unjoined, so its pthread_t is valid.
            unsafe { pthread_kill(waiter.as_pthread_t() as usize, SIGUSR1) };
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (n, events, took) = waiter.join().unwrap();
        assert!(n < 0, "an interrupted wait returns negative, got {n}");
        assert_eq!(events, 0, "stale events must be cleared");
        assert!(took < std::time::Duration::from_secs(4), "ended by the tick: {took:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nofile_limit_known_on_linux() {
        let lim = nofile_limit().expect("getrlimit works on linux");
        assert!(lim >= 64, "implausibly small fd limit: {lim}");
    }
}
