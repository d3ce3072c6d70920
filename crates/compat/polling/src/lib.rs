//! In-workspace mio-style readiness poller over Linux `epoll`.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! minimal reactor substrate the daemon needs (see `puddled::uds`):
//!
//! * [`Poller`] — an `epoll` instance: register file descriptors with a
//!   `u64` token and an [`Interest`] (readable / writable), level-triggered,
//!   then [`Poller::wait`] for [`Event`]s;
//! * [`Waker`] — an `eventfd`-backed cross-thread wakeup: any thread calls
//!   [`Waker::wake`] and the poller's `wait` returns with the waker's
//!   token; the poll loop calls [`Waker::drain`] to reset it.
//!
//! The API is deliberately tiny — exactly what a single-threaded event loop
//! with a worker pool needs — and every call is a thin wrapper over one
//! syscall.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness classes a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn epoll_bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            // RDHUP rides with read interest only: a registration that
            // masked reads (backpressure) must not keep being woken by a
            // level-triggered half-close it is not going to act on — that
            // would spin the poll loop until reads resume.
            bits |= libc::EPOLLIN | libc::EPOLLRDHUP;
        }
        if self.writable {
            bits |= libc::EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (includes peer hangup: a read will not block).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The kernel reported an error condition or hangup on the fd.
    pub error: bool,
}

fn cvt(rc: libc::c_int) -> io::Result<libc::c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// An `epoll` instance. Registrations are keyed by fd (the kernel's
/// semantics); the caller supplies a token that comes back in every event.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new poller.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no preconditions.
        let epfd = cvt(unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        // SAFETY: `ev` is a valid epoll_event for the duration of the call;
        // the kernel ignores it for EPOLL_CTL_DEL.
        cvt(unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for **level-triggered** readiness with `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, interest.epoll_bits(), token)
    }

    /// Changes an existing registration's interest/token (level-triggered).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, interest.epoll_bits(), token)
    }

    /// Removes `fd` from the poller. A closed fd is removed by the kernel
    /// automatically; calling this on one returns an error that callers may
    /// ignore.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses; `None` blocks indefinitely), filling `events`. Returns the
    /// number of events delivered.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: libc::c_int = match timeout {
            // Round up so a 1 ns timeout does not spin at 0 ms.
            Some(t) => t.as_millis().min(i32::MAX as u128).max(1) as libc::c_int,
            None => -1,
        };
        const CAP: usize = 256;
        let mut raw = [libc::epoll_event { events: 0, u64: 0 }; CAP];
        // SAFETY: `raw` is a valid buffer of CAP epoll_event records.
        let n = loop {
            match cvt(unsafe {
                libc::epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as libc::c_int, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: { ev.u64 },
                readable: bits & (libc::EPOLLIN | libc::EPOLLRDHUP | libc::EPOLLHUP) != 0,
                writable: bits & libc::EPOLLOUT != 0,
                error: bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this Poller and not used after drop.
        unsafe { libc::close(self.epfd) };
    }
}

/// A cross-thread wakeup for a [`Poller`] loop, backed by an `eventfd`.
///
/// Register [`Waker::fd`] with the poller (level-triggered, readable) under
/// a reserved token; any thread may then [`Waker::wake`] the loop, which
/// calls [`Waker::drain`] when it sees that token.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

// SAFETY: eventfd reads/writes are atomic syscalls on an fd owned for the
// waker's lifetime; no interior state.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates a new waker (unregistered; the caller adds [`Waker::fd`] to
    /// its poller).
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no preconditions.
        let fd = cvt(unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The eventfd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the poll loop. Cheap, async-signal-safe, callable from any
    /// thread; multiple wakes before a drain coalesce into one event.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a valid local to an owned eventfd.
        // The only failure mode is EAGAIN on counter overflow, which still
        // leaves the eventfd readable — the wake is delivered either way.
        unsafe { libc::write(self.fd, &one as *const u64 as *const libc::c_void, 8) };
    }

    /// Consumes pending wakes so the (level-triggered) eventfd stops
    /// reporting readable. Returns `true` if any wake was pending.
    pub fn drain(&self) -> bool {
        let mut val: u64 = 0;
        // SAFETY: reading 8 bytes into a valid local from an owned eventfd.
        let n = unsafe { libc::read(self.fd, &mut val as *mut u64 as *mut libc::c_void, 8) };
        n == 8 && val > 0
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this Waker and not used after drop.
        unsafe { libc::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn level_triggered_readable_until_drained() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = pair();
        poller.add(a.as_raw_fd(), 7, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing ready.
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
        b.write_all(b"hi").unwrap();
        // Level-triggered: reported again and again until the data is read.
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
        }
        let mut buf = [0u8; 8];
        let mut a_read = &a;
        assert_eq!(a_read.read(&mut buf).unwrap(), 2);
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn modify_switches_interest_to_writable() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.add(a.as_raw_fd(), 3, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
        // A socket with buffer space is immediately writable.
        poller.modify(a.as_raw_fd(), 4, Interest::WRITABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 4);
        assert!(events[0].writable);
        poller.delete(a.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn half_close_is_not_reported_while_reads_are_masked() {
        // A write-only registration (read interest dropped for
        // backpressure) must not be woken by the peer's half-close: RDHUP
        // is subscribed only together with read interest, otherwise a
        // level-triggered RDHUP the handler cannot act on would spin the
        // loop.
        let poller = Poller::new().unwrap();
        let (a, b) = pair();
        poller.add(a.as_raw_fd(), 6, Interest::WRITABLE).unwrap();
        b.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        // The socket is writable (buffer space), but the half-close alone
        // must not surface as readable.
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);
        // Re-enabling read interest surfaces the pending EOF.
        poller.modify(a.as_raw_fd(), 6, Interest::READABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);
        drop(b);
    }

    #[test]
    fn hangup_reports_readable_for_eof_detection() {
        let poller = Poller::new().unwrap();
        let (a, b) = pair();
        poller.add(a.as_raw_fd(), 5, Interest::READABLE).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].readable,
            "hangup must surface as readable so the loop reads the EOF"
        );
    }

    #[test]
    fn waker_wakes_from_another_thread_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            // Two wakes before the drain coalesce into one event.
            w.wake();
            w.wake();
        });
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        assert!(waker.drain());
        assert!(!waker.drain(), "drained waker has no pending wakes");
        poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(events.is_empty());
    }
}
