//! In-workspace stand-in for the `libc` crate (Linux x86_64/aarch64).
//!
//! The build environment has no access to crates.io, so this crate declares
//! exactly the C types, constants, and functions the workspace uses:
//! memory mapping (`mmap`/`munmap`/`msync`, `madvise` access advice and
//! prefaulting, `mincore` residency), `SO_PEERCRED` credential
//! lookup on UNIX sockets, epoll readiness notification + `eventfd` wakeups
//! (the `compat/polling` poller), `RLIMIT_NOFILE` adjustment (the
//! connection-scaling bench), and `lseek`'s hole reporting (sparse puddle
//! copies). Constant values match the Linux UAPI headers.

#![allow(non_camel_case_types)]

pub use core::ffi::c_void;

pub type c_int = i32;
pub type c_uint = u32;
pub type size_t = usize;
pub type ssize_t = isize;
pub type off_t = i64;
pub type socklen_t = u32;
pub type pid_t = i32;
pub type uid_t = u32;
pub type gid_t = u32;

// mmap protection bits (asm-generic/mman-common.h).
pub const PROT_NONE: c_int = 0x0;
pub const PROT_READ: c_int = 0x1;
pub const PROT_WRITE: c_int = 0x2;

// mmap flags (asm-generic/mman.h, identical on x86_64 and aarch64).
pub const MAP_SHARED: c_int = 0x01;
pub const MAP_PRIVATE: c_int = 0x02;
pub const MAP_FIXED: c_int = 0x10;
pub const MAP_ANONYMOUS: c_int = 0x20;
pub const MAP_NORESERVE: c_int = 0x4000;

/// Error return of `mmap`.
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

// msync flags.
pub const MS_SYNC: c_int = 4;

// madvise advice (asm-generic/mman-common.h).
pub const MADV_RANDOM: c_int = 1;
pub const MADV_POPULATE_WRITE: c_int = 23;

// Socket options (asm-generic/socket.h).
pub const SOL_SOCKET: c_int = 1;
pub const SO_PEERCRED: c_int = 17;

/// Kernel-reported peer credentials (`struct ucred`).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ucred {
    pub pid: pid_t,
    pub uid: uid_t,
    pub gid: gid_t,
}

// epoll (sys/epoll.h; eventpoll.h in the kernel UAPI).
pub const EPOLL_CLOEXEC: c_int = 0x8_0000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// One epoll readiness record. The kernel ABI packs the struct on x86_64
/// (no padding between `events` and `u64`); other architectures use natural
/// `repr(C)` layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

// eventfd (sys/eventfd.h).
pub const EFD_CLOEXEC: c_int = 0x8_0000;
pub const EFD_NONBLOCK: c_int = 0x800;

// Resource limits (sys/resource.h).
pub const RLIMIT_NOFILE: c_int = 7;

// lseek whence values for hole reporting (linux/fs.h), and the errno
// SEEK_DATA returns when no data follows the offset.
pub const SEEK_DATA: c_int = 3;
pub const SEEK_HOLE: c_int = 4;
pub const ENXIO: c_int = 6;

/// Resource limit pair (`struct rlimit`, 64-bit fields on LP64 Linux).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

extern "C" {
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn msync(addr: *mut c_void, len: size_t, flags: c_int) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn mincore(addr: *mut c_void, len: size_t, vec: *mut u8) -> c_int;
    pub fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut socklen_t,
    ) -> c_int;
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
    pub fn lseek(fd: c_int, offset: off_t, whence: c_int) -> off_t;
    pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_mmap_roundtrip() {
        // SAFETY: anonymous private mapping with no preconditions.
        unsafe {
            let p = mmap(
                core::ptr::null_mut(),
                4096,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            *(p as *mut u8) = 42;
            assert_eq!(*(p as *const u8), 42);
            assert_eq!(munmap(p, 4096), 0);
        }
    }

    #[test]
    fn eventfd_epoll_roundtrip() {
        // SAFETY: plain syscalls on freshly created fds, closed at the end.
        unsafe {
            let ep = epoll_create1(EPOLL_CLOEXEC);
            assert!(ep >= 0);
            let ev = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
            assert!(ev >= 0);
            let mut reg = epoll_event {
                events: EPOLLIN,
                u64: 42,
            };
            assert_eq!(epoll_ctl(ep, EPOLL_CTL_ADD, ev, &mut reg), 0);
            // Nothing ready yet.
            let mut out = [epoll_event { events: 0, u64: 0 }; 4];
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 0), 0);
            // A write makes the eventfd readable with our token.
            let one: u64 = 1;
            assert_eq!(write(ev, &one as *const u64 as *const c_void, 8), 8);
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 100), 1);
            assert_eq!({ out[0].u64 }, 42);
            let mut val: u64 = 0;
            assert_eq!(read(ev, &mut val as *mut u64 as *mut c_void, 8), 8);
            assert_eq!(val, 1);
            assert_eq!(close(ev), 0);
            assert_eq!(close(ep), 0);
        }
    }

    #[test]
    fn nofile_rlimit_is_readable() {
        let mut lim = rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid out-pointer.
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
        assert_eq!(rc, 0);
        assert!(lim.rlim_cur > 0 && lim.rlim_cur <= lim.rlim_max);
    }
}
