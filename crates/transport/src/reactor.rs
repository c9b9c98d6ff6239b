//! A hand-rolled edge-triggered epoll reactor and its deadline set —
//! the readiness substrate under [`AsyncDriver`](crate::AsyncDriver).
//!
//! The workspace is fully vendored and offline, so there is no tokio,
//! no mio, and no libc: on Linux the reactor talks to `epoll` through
//! raw syscalls issued with inline assembly (the crate's single
//! `allow(unsafe_code)` scope), and everywhere else — or when the
//! kernel refuses `epoll_create1` — it degrades to a
//! short-sleep poller that reports every registered token as
//! maybe-ready. Spurious readiness is safe by construction: consumers
//! drive nonblocking try-I/O loops that simply find nothing to do.
//!
//! Two pieces:
//!
//! * [`Reactor`] — register an fd under a `u64` token, then
//!   [`wait`](Reactor::wait) for readiness [`ReactorEvent`]s.
//!   Registration is edge-triggered for both directions, so consumers
//!   must drain reads to `WouldBlock` and flush writes to `WouldBlock`
//!   on every event. Every connection is a socket, so file descriptors
//!   are all it ever waits on.
//! * [`Deadlines`] — an ordered set of `(deadline, slot)` carrying each
//!   connection's one armed deadline (a session's wall-clock budget,
//!   receive window or cancel-poll slice, or a pending connection's
//!   idle deadline): the reactor's way of imposing what a blocking
//!   receive gets from its socket's read timeout.

use std::collections::{BTreeSet, HashMap};
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::error::TransportError;

/// One readiness notification from [`Reactor::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReactorEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or the peer hung up / errored, which
    /// a read will surface).
    pub readable: bool,
    /// The fd's send buffer has room again.
    pub writable: bool,
}

/// Raw `epoll` syscalls, issued with inline assembly because the
/// vendored dependency set has no libc. This module is the only
/// `unsafe` surface in the crate; everything above it speaks safe
/// `RawFd` + `u64` tokens.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    use std::os::fd::RawFd;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    const EPOLL_CLOEXEC: u64 = 0x80000;
    const EINTR: i64 = 4;

    /// The kernel's event record. x86_64 declares it packed (a 12-byte
    /// struct); every other architecture uses natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 291;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_PWAIT: u64 = 281;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    /// `epoll_create1(EPOLL_CLOEXEC)`; `None` if the kernel refuses.
    pub fn epoll_create1() -> Option<RawFd> {
        // SAFETY: epoll_create1 takes one immediate flag argument and
        // touches no caller memory.
        let ret = unsafe { syscall(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        (ret >= 0).then_some(ret as RawFd)
    }

    /// `epoll_ctl(epfd, op, fd, event)`. `event` may be `None` for DEL.
    pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: Option<&mut EpollEvent>) -> i64 {
        let ptr = event.map_or(0u64, |e| e as *mut EpollEvent as u64);
        // SAFETY: `ptr` is either null (DEL) or a live &mut EpollEvent
        // that outlives the call; the kernel only reads it.
        unsafe { syscall(nr::EPOLL_CTL, epfd as u64, op as u64, fd as u64, ptr, 0, 0) }
    }

    /// `epoll_pwait(epfd, events, maxevents, timeout_ms, NULL, 0)`,
    /// retrying on `EINTR`. Returns the number of events filled.
    pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> i64 {
        loop {
            // SAFETY: `events` is a live mutable slice the kernel fills
            // up to `events.len()` records; the null sigmask makes
            // epoll_pwait behave exactly like epoll_wait.
            let ret = unsafe {
                syscall(
                    nr::EPOLL_PWAIT,
                    epfd as u64,
                    events.as_mut_ptr() as u64,
                    events.len() as u64,
                    timeout_ms as u64,
                    0,
                    0,
                )
            };
            if ret != -EINTR {
                return ret;
            }
        }
    }

    /// `close(fd)` — the epoll fd is not wrapped in any std type, so it
    /// must be released by hand when the reactor drops.
    pub fn close(fd: RawFd) {
        #[cfg(target_arch = "x86_64")]
        const CLOSE: u64 = 3;
        #[cfg(target_arch = "aarch64")]
        const CLOSE: u64 = 57;
        // SAFETY: close takes one fd argument and touches no memory.
        let _ = unsafe { syscall(CLOSE, fd as u64, 0, 0, 0, 0, 0) };
    }
}

/// Readiness backend: real epoll where available, a short-sleep poller
/// otherwise (non-Linux platforms, or kernels refusing `epoll_create1`).
#[derive(Debug)]
enum Backend {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Epoll { epfd: RawFd },
    /// Fallback: every registered token is reported maybe-ready after a
    /// bounded nap, which is correct (if less efficient) for consumers
    /// that probe with nonblocking try-I/O.
    Sleep,
}

/// An edge-triggered readiness reactor over raw fds.
///
/// Register sockets with [`register`](Reactor::register) (interest is
/// always read + write, edge-triggered), then loop on
/// [`wait`](Reactor::wait).
#[derive(Debug)]
pub struct Reactor {
    backend: Backend,
    /// Registered tokens and their fds — the sleep backend reports all
    /// of them on every wait.
    registered: HashMap<u64, RawFd>,
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

impl Reactor {
    /// Opens a reactor, choosing epoll when the platform offers it (it
    /// degrades to the sleep poller rather than fail).
    pub fn new() -> Self {
        Self {
            backend: Self::pick_backend(),
            registered: HashMap::new(),
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn pick_backend() -> Backend {
        match sys::epoll_create1() {
            Some(epfd) => Backend::Epoll { epfd },
            None => Backend::Sleep,
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    fn pick_backend() -> Backend {
        Backend::Sleep
    }

    /// Whether this reactor runs on real epoll (false: sleep fallback).
    pub fn is_epoll(&self) -> bool {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            matches!(self.backend, Backend::Epoll { .. })
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            false
        }
    }

    /// Registers `fd` under `token` with edge-triggered read + write
    /// interest. The fd must already be in nonblocking mode; the caller
    /// keeps ownership and must [`deregister`](Reactor::deregister)
    /// before closing it.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the kernel rejects the registration.
    pub fn register(&mut self, fd: RawFd, token: u64) -> Result<(), TransportError> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backend::Epoll { epfd } = self.backend {
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
                data: token,
            };
            let ret = sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev));
            if ret < 0 {
                return Err(TransportError::Io(format!(
                    "epoll_ctl(ADD, fd {fd}) failed with errno {}",
                    -ret
                )));
            }
        }
        self.registered.insert(token, fd);
        Ok(())
    }

    /// Removes `token`'s fd from the interest set. Harmless if the
    /// token was never registered.
    pub fn deregister(&mut self, token: u64) {
        if let Some(_fd) = self.registered.remove(&token) {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            if let Backend::Epoll { epfd } = self.backend {
                let _ = sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, _fd, None);
            }
        }
    }

    /// Blocks until readiness arrives or the timeout elapses, appending
    /// events to `out`. Returns the number of events appended.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<ReactorEvent>) -> usize {
        let before = out.len();
        match &self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Epoll { epfd } => {
                let timeout_ms: i32 = match timeout {
                    None => -1,
                    Some(t) if t.is_zero() => 0,
                    // Round sub-millisecond deadlines up to 1 ms so a
                    // short timed wait actually sleeps.
                    Some(t) => t.as_millis().max(1).min(i32::MAX as u128) as i32,
                };
                let mut buf = [sys::EpollEvent::default(); 64];
                let n = sys::epoll_wait(*epfd, &mut buf, timeout_ms);
                for ev in buf.iter().take(n.max(0) as usize) {
                    let token = ev.data;
                    let bits = ev.events;
                    let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                    out.push(ReactorEvent {
                        token,
                        // Hangups and errors surface through a read.
                        readable: bits & sys::EPOLLIN != 0 || hangup,
                        writable: bits & sys::EPOLLOUT != 0,
                    });
                }
            }
            Backend::Sleep => {
                // Bounded nap, then report everything maybe-ready.
                let nap = timeout.unwrap_or(SLEEP_SLICE).min(SLEEP_SLICE);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                out.extend(self.registered.keys().map(|&token| ReactorEvent {
                    token,
                    readable: true,
                    writable: true,
                }));
            }
        }
        out.len() - before
    }
}

/// The sleep backend's poll quantum.
const SLEEP_SLICE: Duration = Duration::from_millis(1);

impl Drop for Reactor {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backend::Epoll { epfd } = self.backend {
            sys::close(epfd);
        }
    }
}

/// The reactor's deadlines: an ordered set of `(deadline, slot)`, at
/// most one per connection slot. The connection remembers the one
/// deadline it armed, so [`arm`](Deadlines::arm) replaces that entry and
/// [`cancel`](Deadlines::cancel) removes it, and the set never holds
/// more entries than connections however often they re-arm.
/// [`next_due`](Deadlines::next_due) is the first entry, and
/// [`pop_due`](Deadlines::pop_due) hands each due entry back with the
/// deadline it was armed for.
#[derive(Debug, Default)]
pub(crate) struct Deadlines(BTreeSet<(Instant, u32)>);

impl Deadlines {
    /// Arms `slot` at `at`, replacing its deadline `armed` (if any),
    /// which then records `at`.
    pub(crate) fn arm(&mut self, slot: u32, armed: &mut Option<Instant>, at: Instant) {
        self.cancel(slot, armed);
        self.0.insert((at, slot));
        *armed = Some(at);
    }

    /// Removes `slot`'s deadline `armed`, if it has one.
    pub(crate) fn cancel(&mut self, slot: u32, armed: &mut Option<Instant>) {
        if let Some(at) = armed.take() {
            self.0.remove(&(at, slot));
        }
    }

    /// How long the reactor may sleep from `now` without missing a
    /// deadline; `None` when none is armed.
    pub(crate) fn next_due(&self, now: Instant) -> Option<Duration> {
        self.0
            .first()
            .map(|(at, _)| at.saturating_duration_since(now))
    }

    /// Removes the earliest deadline if it has passed at `now`, and
    /// returns it with its slot. The slot's owner must forget it.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<(Instant, u32)> {
        let (at, _) = self.0.first()?;
        if *at > now {
            return None;
        }
        self.0.pop_first()
    }

    /// The number of armed deadlines: at most one per slot.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn nb_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (server, client)
    }

    #[test]
    fn epoll_reports_readability_edge() {
        let mut reactor = Reactor::new();
        let (server, mut client) = nb_pair();
        reactor.register(server.as_raw_fd(), 7).expect("register");
        let mut events = Vec::new();
        // Nothing to read yet: a short wait stays quiet (epoll) or
        // reports a spurious ready (sleep backend) — either is legal,
        // so only the post-write behavior is asserted.
        client.write_all(b"x").expect("write");
        client.flush().expect("flush");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            reactor.wait(Some(Duration::from_millis(50)), &mut events);
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readiness never arrived");
        }
        reactor.deregister(7);
    }

    #[test]
    fn sleep_backend_reports_registered_tokens() {
        let mut reactor = Reactor::new();
        reactor.backend = Backend::Sleep;
        let (server, _client) = nb_pair();
        reactor.register(server.as_raw_fd(), 3).expect("register");
        let mut events = Vec::new();
        reactor.wait(Some(Duration::from_millis(1)), &mut events);
        assert!(
            events
                .iter()
                .any(|e| e.token == 3 && e.readable && e.writable),
            "sleep backend reports every token maybe-ready: {events:?}"
        );
    }

    #[test]
    fn edge_triggered_requires_draining() {
        let mut reactor = Reactor::new();
        if !reactor.is_epoll() {
            return; // Only meaningful on the epoll backend.
        }
        let (mut server, mut client) = nb_pair();
        reactor.register(server.as_raw_fd(), 9).expect("register");
        client.write_all(b"ab").expect("write");
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            reactor.wait(Some(Duration::from_millis(50)), &mut events);
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline);
        }
        // Drain to WouldBlock, as edge-triggered consumers must.
        let mut buf = [0u8; 16];
        loop {
            match server.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        // No new bytes → no new edge.
        events.clear();
        reactor.wait(Some(Duration::from_millis(30)), &mut events);
        assert!(
            events.iter().all(|e| e.token != 9 || !e.readable),
            "drained fd must not re-report readable without new data: {events:?}"
        );
    }

    #[test]
    fn deadlines_fire_in_order_and_a_re_arm_replaces() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let mut deadlines = Deadlines::default();
        let (mut one, mut two, mut far) = (None, None, None);
        deadlines.arm(1, &mut one, start + ms(30));
        deadlines.arm(2, &mut two, start + ms(40));
        deadlines.arm(3, &mut far, start + ms(1500));
        // Slot 1 re-armed earlier: the re-arm replaces its entry.
        deadlines.arm(1, &mut one, start + ms(8));
        assert_eq!(deadlines.len(), 3);

        let due = |deadlines: &mut Deadlines, at| {
            std::iter::from_fn(|| deadlines.pop_due(start + at))
                .map(|(_, slot)| slot)
                .collect::<Vec<_>>()
        };
        assert_eq!(due(&mut deadlines, ms(20)), [1]);
        assert_eq!(due(&mut deadlines, ms(1100)), [2]);
        assert_eq!(due(&mut deadlines, ms(1600)), [3]);
        assert_eq!(deadlines.len(), 0);
    }

    #[test]
    fn re_arming_keeps_one_entry_per_token_and_next_due_exact() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        let ms = Duration::from_millis;
        let mut armed = [None; 3];
        // 10⁵ arms over three slots, deadlines spread over 1.5 s.
        let at = |i: u64| start + ms(5 + (i * 7919) % 1500);
        for i in 0..100_000u64 {
            deadlines.arm((i % 3) as u32, &mut armed[(i % 3) as usize], at(i));
            assert!(deadlines.len() <= 3);
        }
        // The last arms left slots 0, 1 and 2 at these deadlines.
        let live = [99_999u64, 99_997, 99_998].map(at);
        let earliest = live.into_iter().min().expect("three slots");
        assert_eq!(deadlines.next_due(start), Some(earliest - start));
        // Cancelling the earliest slot moves `next_due` to the next one,
        // and nothing fires at its old deadline.
        let slot = live.iter().position(|d| *d == earliest).expect("present");
        deadlines.cancel(slot as u32, &mut armed[slot]);
        assert_eq!(deadlines.len(), 2);
        assert_eq!(deadlines.pop_due(earliest), None);
        let next = live
            .into_iter()
            .filter(|d| *d != earliest)
            .min()
            .expect("two left");
        assert_eq!(deadlines.next_due(earliest), Some(next - earliest));
        // Everything else fires once.
        let mut fired: Vec<u32> = std::iter::from_fn(|| deadlines.pop_due(start + ms(3000)))
            .map(|(_, slot)| slot)
            .collect();
        fired.sort_unstable();
        let want: Vec<u32> = (0..3).filter(|&s| s != slot as u32).collect();
        assert_eq!(fired, want);
        assert_eq!(deadlines.next_due(start), None);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        deadlines.arm(4, &mut None, start);
        assert_eq!(
            deadlines.next_due(start + Duration::from_millis(1)),
            Some(Duration::ZERO)
        );
        assert_eq!(deadlines.pop_due(start), Some((start, 4)));
    }

    #[test]
    fn a_fired_deadline_carries_its_due_time() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        let deadline = start + Duration::from_millis(8);
        deadlines.arm(6, &mut None, deadline);
        let now = start + Duration::from_millis(20);
        let (due, slot) = deadlines.pop_due(now).expect("due");
        assert_eq!((due, slot), (deadline, 6));
        assert_eq!(
            now.saturating_duration_since(due),
            Duration::from_millis(12)
        );
    }
}
