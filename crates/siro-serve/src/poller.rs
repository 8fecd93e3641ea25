//! Readiness polling for the event engine: epoll, std-only, no new deps.
//!
//! The engine needs one thing from the OS: "block until any registered
//! socket is readable/writable, and tell me which". That is `epoll`. std
//! does not expose it, so this module declares the handful of symbols
//! directly with `extern "C"` — they live in the C runtime std already
//! links, so no `libc` crate (or any other dependency) is required. The
//! daemon is Linux-only: on any other target this module is a compile
//! error.
//!
//! A registration is one of two kinds:
//!
//! * **level-triggered** ([`Poller::register`]): an fd with unread bytes
//!   reports readable on every wait until drained. The reactor's
//!   listener and wake pipe use it.
//! * **one-shot** ([`Poller::register_oneshot`], `EPOLLONESHOT`): the
//!   registration reports at most one event, to one waiting thread, and
//!   is then disarmed until [`Poller::rearm`]. Every connection sits in
//!   one shared one-shot set that all pool threads wait on, so the thread
//!   that receives a connection's event owns it until it re-arms it: no
//!   two threads are woken for the same readiness.
//!
//! A poller can also watch another poller ([`Poller::nest`]): the nested
//! registration is one-shot, disarmed until [`Poller::arm_nested`], and
//! reports its token when any armed registration of the inner poller is
//! ready (an epoll fd polls readable while its set has a ready event).
//! The reactor watches the shared connection set this way, and only while
//! every worker is executing.
//!
//! Events carry one `u64` token per registration; interest is replaced
//! wholesale, not OR-ed. Errors and hangups fold into
//! `readable`/`writable`, and the caller discovers the condition from its
//! next `read`/`write`.
//!
//! Every method takes `&self` and may be called from any thread: pool
//! threads re-arm connections while others wait on the same set.

#[cfg(not(target_os = "linux"))]
compile_error!("siro-serve polls with epoll and builds only on Linux");

use std::ffi::c_int;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

/// Mirror of the kernel's `struct epoll_event`. Packed on x86-64, where
/// the kernel ABI leaves the u64 unaligned.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// The event mask for `interest`. Peer half-close (`EPOLLRDHUP`) is asked
/// for only with read interest: a level-triggered half-close would
/// otherwise re-fire forever on a connection that has stopped reading.
fn mask(interest: Interest, oneshot: bool) -> u32 {
    let mut m = if oneshot { EPOLLONESHOT } else { 0 };
    if interest.readable {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// What readiness a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed/errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Write-only interest (used while a stuffed connection is paused).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Whether the interest asks for nothing.
    pub fn is_none(self) -> bool {
        !self.readable && !self.writable
    }
}

/// One readiness event: the registered token plus what fired.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// Token supplied at registration.
    pub token: u64,
    /// Fd is readable, closed, or errored.
    pub readable: bool,
    /// Fd is writable or errored.
    pub writable: bool,
}

/// A readiness poller over raw fds: one epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    registered: AtomicUsize,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            registered: AtomicUsize::new(0),
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it. (Kernels
        // before 2.6.9 demanded a non-null event even for DEL.)
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Adds `fd` and counts it in the `registered_fds` gauge.
    fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)?;
        self.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Registers `fd` under `token`, level-triggered.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd is already registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.add(fd, token, mask(interest, false))
    }

    /// Registers `fd` under `token`, one-shot and armed with `interest`:
    /// its first event disarms it until [`Poller::rearm`].
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd is already registered).
    pub fn register_oneshot(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.add(fd, token, mask(interest, true))
    }

    /// Re-arms a one-shot registration with `interest`, whether or not
    /// its last event has fired. An fd that is ready at once reports at
    /// once.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd is not registered).
    pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, mask(interest, true))
    }

    /// Removes an fd from the poller.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd is not registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)?;
        self.registered.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Watches `inner` under `token`: one-shot, and disarmed until
    /// [`Poller::arm_nested`]. An armed nested registration reports its
    /// token (as readable) once any armed registration of `inner` is
    /// ready; the caller then takes the events with `inner.wait`.
    /// `inner` must not be `self`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn nest(&self, inner: &Poller, token: u64) -> io::Result<()> {
        self.add(inner.epfd, token, EPOLLONESHOT)
    }

    /// Arms (or disarms) the nested registration of `inner`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. `inner` is not nested here).
    pub fn arm_nested(&self, inner: &Poller, token: u64, armed: bool) -> io::Result<()> {
        let events = if armed {
            EPOLLONESHOT | EPOLLIN
        } else {
            EPOLLONESHOT
        };
        self.ctl(EPOLL_CTL_MOD, inner.epfd, token, events)
    }

    /// Number of currently registered fds (the `registered_fds` gauge).
    pub fn registered(&self) -> usize {
        self.registered.load(Ordering::Relaxed)
    }

    /// Blocks until at least one event fires or `timeout` elapses
    /// (`None` blocks indefinitely), and delivers at most `max` events
    /// (capped at 64) into `events` (which is cleared first). Returns the
    /// number of events delivered; `0` means the wait timed out.
    ///
    /// # Errors
    ///
    /// Propagates the OS error. `EINTR` is retried internally.
    pub fn wait(
        &self,
        events: &mut Vec<PollEvent>,
        max: usize,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round *up* so a 100 µs timeout does not become a hot spin.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
        let max = max.clamp(1, buf.len()) as c_int;
        let n = loop {
            // SAFETY: `buf` is a valid writable array of at least `max` events.
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), max, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            events.push(PollEvent {
                token,
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own `epfd` and close it exactly once.
        unsafe { close(self.epfd) };
    }
}

/// A self-pipe that interrupts a poller's wait from another thread:
/// [`Waker::wake`] leaves the read end readable until [`Waker::drain`].
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// Creates a waker.
    ///
    /// # Errors
    ///
    /// Propagates `socketpair` failure.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// Makes the read end readable. A full pipe is fine: a wake is
    /// already pending.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return,
            }
        }
    }
}

impl AsRawFd for Waker {
    /// The read end, to register with a poller.
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_times_out_with_no_events() {
        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);
        assert_eq!(poller.registered(), 0);
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let poller = Poller::new().expect("poller");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        assert_eq!(poller.registered(), 1);

        let mut events = Vec::new();
        // Nothing written yet: no event.
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);

        a.write_all(b"x").expect("write");
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: the byte is still unread, so it fires again.
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);

        poller.deregister(b.as_raw_fd()).expect("deregister");
        assert_eq!(poller.registered(), 0);
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn oneshot_delivers_to_one_waiter_then_rearm_switches_interest() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        a.write_all(b"x").expect("write");
        poller
            .register_oneshot(b.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        // Two threads wait on the same ready fd: exactly one hears it.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || {
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, 1, Some(Duration::from_millis(300)))
                        .expect("wait")
                })
            })
            .collect();
        let heard: usize = waiters.into_iter().map(|w| w.join().expect("join")).sum();
        assert_eq!(heard, 1, "a one-shot event reaches one waiter");

        // Re-armed for write only: the unread byte no longer reports.
        poller
            .rearm(b.as_raw_fd(), 1, Interest::WRITE)
            .expect("rearm");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        assert!(events[0].writable && !events[0].readable);
    }

    #[test]
    fn fired_oneshot_stays_silent_until_rearmed_and_then_reports_again() {
        let poller = Poller::new().expect("poller");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        a.write_all(b"x").expect("write");
        poller
            .register_oneshot(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        // The byte is still unread, yet the fired registration is silent.
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(20)))
            .expect("wait");
        assert_eq!(n, 0, "a fired one-shot stays silent");
        poller
            .rearm(b.as_raw_fd(), 7, Interest::READ)
            .expect("rearm");
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1, "re-arming a ready fd reports it again");
        assert_eq!(events[0].token, 7);
    }

    #[test]
    fn registration_from_another_thread_wakes_a_blocked_waiter() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        a.write_all(b"x").expect("write");
        let waiter = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                let mut events = Vec::new();
                let t0 = std::time::Instant::now();
                poller
                    .wait(&mut events, 1, Some(Duration::from_secs(5)))
                    .expect("wait");
                (events.first().map(|e| e.token), t0.elapsed())
            })
        };
        // Let the waiter block on the still-empty set first.
        std::thread::sleep(Duration::from_millis(50));
        poller
            .register_oneshot(b.as_raw_fd(), 3, Interest::READ)
            .expect("register");
        let (token, took) = waiter.join().expect("join");
        assert_eq!(token, Some(3));
        assert!(took < Duration::from_secs(2), "woke late: {took:?}");
    }

    #[test]
    fn nested_poller_reports_inner_readiness_while_armed() {
        let outer = Poller::new().expect("outer");
        let inner = Poller::new().expect("inner");
        outer.nest(&inner, 5).expect("nest");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        inner
            .register_oneshot(b.as_raw_fd(), 2, Interest::READ)
            .expect("register");
        a.write_all(b"x").expect("write");
        let mut events = Vec::new();
        let n = outer
            .wait(&mut events, 8, Some(Duration::from_millis(20)))
            .expect("wait");
        assert_eq!(n, 0, "disarmed nesting is silent");
        outer.arm_nested(&inner, 5, true).expect("arm");
        let n = outer
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 5);
        let n = inner
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("inner wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 2);
    }

    #[test]
    fn waker_interrupts_a_wait_until_drained() {
        let poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        poller
            .register(waker.as_raw_fd(), 4, Interest::READ)
            .expect("register");
        waker.wake();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        waker.drain();
        let n = poller
            .wait(&mut events, 8, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);
    }
}
