//! A hand-rolled edge-triggered epoll reactor and hashed timer wheel —
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
//! * [`TimerWheel`] — a 256-slot hashed wheel with millisecond-class
//!   granularity carrying per-session budget deadlines (wall-clock,
//!   per-receive, cancel-poll slices), at most one per token, replacing
//!   the per-thread blocking deadlines of the synchronous driver.

use std::collections::HashMap;
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

/// A hashed timer wheel: 256 slots of [`TimerWheel::GRANULARITY`]
/// covering the revolution ahead of the cursor, and one overflow slot
/// for deadlines farther out, carrying `(deadline, token, generation)`
/// entries. [`advance`](TimerWheel::advance) drains the slots the clock
/// has passed and reports which tokens are due.
///
/// A token has at most one entry: [`arm`](TimerWheel::arm) replaces the
/// token's previous entry and [`cancel`](TimerWheel::cancel) removes it,
/// both in O(1) through a per-token index, so the wheel never holds more
/// entries than tokens however often they are re-armed. An entry leaves
/// the wheel when it fires or is replaced. [`next_due`](TimerWheel::next_due)
/// reads an occupancy bitmap and each slot's earliest deadline, never
/// the entries themselves.
#[derive(Debug)]
pub struct TimerWheel {
    /// The wheel's `SLOTS` slots, then the overflow slot.
    slots: Vec<Vec<TimerEntry>>,
    /// Per wheel slot, a lower bound on its entries' deadlines: exact
    /// after an insert, and possibly early after a removal until
    /// `advance_timed` re-reads the slot as the current one. `None`
    /// while the slot is empty.
    earliest: Vec<Option<Instant>>,
    /// Bit `s` is set while wheel slot `s` holds an entry.
    occupied: [u64; Self::SLOTS / 64],
    /// Where each armed token's one entry sits: `(slot, position)`.
    index: HashMap<u64, (usize, usize)>,
    /// The slot index the wheel has advanced to.
    cursor: usize,
    /// The wall-clock time of the cursor's slot boundary.
    cursor_time: Instant,
}

#[derive(Clone, Copy, Debug)]
struct TimerEntry {
    deadline: Instant,
    token: u64,
    generation: u64,
}

impl TimerWheel {
    /// Slot width: deadlines are observed within one granule plus the
    /// reactor's wait latency, comfortably inside the 20 ms budget
    /// slices the blocking driver polls at.
    pub const GRANULARITY: Duration = Duration::from_millis(4);

    const SLOTS: usize = 256;

    /// The slot for deadlines at least one revolution past the cursor:
    /// re-sorted into the wheel each time the cursor wraps.
    const OVERFLOW: usize = Self::SLOTS;

    /// An empty wheel anchored at `now`.
    pub fn new(now: Instant) -> Self {
        Self {
            slots: vec![Vec::new(); Self::SLOTS + 1],
            earliest: vec![None; Self::SLOTS],
            occupied: [0; Self::SLOTS / 64],
            index: HashMap::new(),
            cursor: 0,
            cursor_time: now,
        }
    }

    /// Arms a timer for `token` (under `generation`) at `deadline`,
    /// replacing the token's previous entry, if any: only the latest
    /// arm of a token can fire. Deadlines already in the past land in
    /// the current slot and fire on the next
    /// [`advance`](TimerWheel::advance).
    pub fn arm(&mut self, deadline: Instant, token: u64, generation: u64) {
        self.cancel(token);
        self.insert(TimerEntry {
            deadline,
            token,
            generation,
        });
    }

    /// Removes `token`'s entry, if it has one.
    pub fn cancel(&mut self, token: u64) {
        let Some((slot, pos)) = self.index.remove(&token) else {
            return;
        };
        let entries = &mut self.slots[slot];
        entries.swap_remove(pos);
        if let Some(moved) = entries.get(pos) {
            self.index.insert(moved.token, (slot, pos));
        }
        if entries.is_empty() && slot != Self::OVERFLOW {
            self.earliest[slot] = None;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
    }

    /// Files `e` in the slot its deadline hashes to from the cursor.
    fn insert(&mut self, e: TimerEntry) {
        let offset = e.deadline.saturating_duration_since(self.cursor_time);
        let granules = offset.as_nanos() / Self::GRANULARITY.as_nanos();
        let slot = if granules < Self::SLOTS as u128 {
            let slot = (self.cursor + granules as usize) % Self::SLOTS;
            let earliest = &mut self.earliest[slot];
            *earliest = Some(earliest.map_or(e.deadline, |d| d.min(e.deadline)));
            self.occupied[slot / 64] |= 1 << (slot % 64);
            slot
        } else {
            Self::OVERFLOW
        };
        self.index.insert(e.token, (slot, self.slots[slot].len()));
        self.slots[slot].push(e);
    }

    /// Whether no entry is armed.
    pub fn is_idle(&self) -> bool {
        self.index.is_empty()
    }

    /// The number of armed entries: at most one per token.
    pub fn armed(&self) -> usize {
        self.index.len()
    }

    /// How long the reactor may sleep from `now` without missing a
    /// timer; `None` when the wheel is idle. This is the earliest
    /// deadline in the wheel's first occupied slot, or the cursor's
    /// next wrap if that comes first and the overflow slot holds an
    /// entry (the wrap is when overflow entries move into the wheel).
    /// It is never later than the earliest armed deadline. A slot whose
    /// earliest entry was cancelled or re-armed keeps that deadline as
    /// its bound until the cursor reaches it: the reactor then wakes
    /// once early, and [`advance`](TimerWheel::advance) re-reads the
    /// slot. It costs a scan of a 256-bit bitmap, whatever the number
    /// of entries.
    pub fn next_due(&self, now: Instant) -> Option<Duration> {
        let mut due = self.first_occupied().and_then(|slot| self.earliest[slot]);
        if !self.slots[Self::OVERFLOW].is_empty() {
            let wrap = self.cursor_time + Self::GRANULARITY * (Self::SLOTS - self.cursor) as u32;
            due = Some(due.map_or(wrap, |d| d.min(wrap)));
        }
        due.map(|d| d.saturating_duration_since(now))
    }

    /// The first occupied wheel slot at or after the cursor, in wheel
    /// order (which is deadline order).
    fn first_occupied(&self) -> Option<usize> {
        let words = self.occupied.len();
        let (start, bit) = (self.cursor / 64, self.cursor % 64);
        // The cursor's word from its bit on, the other words in order,
        // then the cursor's word below its bit.
        (0..=words).find_map(|i| {
            let w = (start + i) % words;
            let bits = match i {
                0 => self.occupied[w] & (!0u64 << bit),
                _ if i == words => self.occupied[w] & !(!0u64 << bit),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Advances the wheel to `now`, appending `(token, generation)` for
    /// every entry whose deadline has passed. A fired entry leaves the
    /// wheel.
    pub fn advance(&mut self, now: Instant, due: &mut Vec<(u64, u64)>) {
        let mut timed = Vec::new();
        self.advance_timed(now, &mut timed);
        due.extend(
            timed
                .into_iter()
                .map(|(token, generation, _)| (token, generation)),
        );
    }

    /// Like [`advance`](TimerWheel::advance), but each fired entry also
    /// carries the deadline it was armed for, so the caller can measure
    /// wheel drift (`now - deadline`) as a reactor health metric.
    pub fn advance_timed(&mut self, now: Instant, due: &mut Vec<(u64, u64, Instant)>) {
        loop {
            let slot_end = self.cursor_time + Self::GRANULARITY;
            if slot_end > now {
                break;
            }
            // Every entry of a passed slot is due: it was filed by a
            // deadline before the slot's end.
            let slot = self.cursor;
            if self.earliest[slot].take().is_some() {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                for e in self.slots[slot].drain(..) {
                    self.index.remove(&e.token);
                    due.push((e.token, e.generation, e.deadline));
                }
            }
            self.cursor = (self.cursor + 1) % Self::SLOTS;
            self.cursor_time = slot_end;
            if self.cursor == 0 {
                // A new revolution: overflow entries now less than one
                // revolution out move into the wheel.
                for e in std::mem::take(&mut self.slots[Self::OVERFLOW]) {
                    self.index.remove(&e.token);
                    self.insert(e);
                }
            }
        }
        // Also fire entries in the *current* slot whose deadline has
        // passed — sub-granule deadlines must not wait a revolution —
        // and re-read its earliest deadline.
        let slot = self.cursor;
        let mut earliest: Option<Instant> = None;
        let mut i = 0;
        while let Some(e) = self.slots[slot].get(i).copied() {
            if e.deadline <= now {
                self.cancel(e.token);
                due.push((e.token, e.generation, e.deadline));
            } else {
                earliest = Some(earliest.map_or(e.deadline, |d| d.min(e.deadline)));
                i += 1;
            }
        }
        self.earliest[slot] = earliest;
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
    fn timer_wheel_fires_in_order_and_respects_generations() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.arm(start + Duration::from_millis(8), 1, 0);
        wheel.arm(start + Duration::from_millis(40), 2, 0);
        // Token 1 re-armed under a newer generation: the re-arm replaces
        // the gen-0 entry, so only the live generation fires.
        wheel.arm(start + Duration::from_millis(8), 1, 1);
        assert_eq!(wheel.armed(), 2);

        let mut due = Vec::new();
        wheel.advance(start + Duration::from_millis(20), &mut due);
        assert_eq!(due, vec![(1, 1)]);

        due.clear();
        wheel.advance(start + Duration::from_millis(60), &mut due);
        assert_eq!(due, vec![(2, 0)]);
        assert!(wheel.is_idle());
    }

    #[test]
    fn re_arming_keeps_one_entry_per_token_and_next_due_exact() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let ms = Duration::from_millis;
        // 10⁵ arms over three tokens with rising generations, deadlines
        // spread over the revolution and past it into the overflow slot.
        for i in 0..100_000u64 {
            let deadline = start + ms(5 + (i * 7919) % 1500);
            wheel.arm(deadline, i % 3, i);
            assert!(wheel.armed() <= 3);
        }
        // The last arms left tokens 0, 1 and 2 at these deadlines.
        let last = |i: u64| start + ms(5 + (i * 7919) % 1500);
        let live = [99_999u64, 99_997, 99_998].map(last);
        let earliest = live.into_iter().min().expect("three tokens");
        assert!(earliest < start + ms(1024), "in the wheel: {earliest:?}");
        assert_eq!(wheel.next_due(start), Some(earliest - start));
        // Cancelling the earliest token moves `next_due` no earlier, and
        // one advance to that point fires nothing and re-reads the slot.
        let token = live.iter().position(|d| *d == earliest).expect("present") as u64;
        wheel.cancel(token);
        assert_eq!(wheel.armed(), 2);
        let mut due = Vec::new();
        wheel.advance(earliest, &mut due);
        assert!(due.is_empty(), "{due:?}");
        let next = live
            .into_iter()
            .filter(|d| *d != earliest)
            .min()
            .expect("two left");
        let bound = wheel.next_due(earliest).expect("armed");
        assert!(
            bound > Duration::ZERO && earliest + bound <= next,
            "{bound:?}"
        );
        // Everything fires once, under its latest generation only.
        wheel.advance(start + ms(3000), &mut due);
        due.sort_unstable();
        let mut want: Vec<(u64, u64)> = [(0, 99_999), (1, 99_997), (2, 99_998)]
            .into_iter()
            .filter(|&(t, _)| t != token)
            .collect();
        want.sort_unstable();
        assert_eq!(due, want);
        assert!(wheel.is_idle());
        assert_eq!(wheel.next_due(start), None);
    }

    #[test]
    fn timer_wheel_handles_far_deadlines_beyond_one_revolution() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        // > 256 slots * 4 ms = 1.024 s away: wraps the wheel.
        let far = start + Duration::from_millis(1500);
        wheel.arm(far, 5, 0);
        let mut due = Vec::new();
        wheel.advance(start + Duration::from_millis(1100), &mut due);
        assert!(due.is_empty(), "not due yet: {due:?}");
        assert!(!wheel.is_idle(), "re-armed for the next revolution");
        wheel.advance(start + Duration::from_millis(1600), &mut due);
        assert_eq!(due, vec![(5, 0)]);
    }

    #[test]
    fn timer_wheel_next_due_bounds_the_sleep() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        assert_eq!(wheel.next_due(start), None);
        wheel.arm(start + Duration::from_millis(12), 1, 0);
        let due = wheel.next_due(start).expect("armed");
        assert!(due <= Duration::from_millis(12), "{due:?}");
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.arm(start, 4, 2);
        let mut due = Vec::new();
        wheel.advance(start + Duration::from_millis(1), &mut due);
        assert_eq!(due, vec![(4, 2)]);
    }

    #[test]
    fn advance_timed_carries_the_armed_deadline() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let deadline = start + Duration::from_millis(8);
        wheel.arm(deadline, 6, 1);
        let mut due = Vec::new();
        let now = start + Duration::from_millis(20);
        wheel.advance_timed(now, &mut due);
        assert_eq!(due, vec![(6, 1, deadline)]);
        let drift = now.saturating_duration_since(due[0].2);
        assert_eq!(drift, Duration::from_millis(12));
    }
}
