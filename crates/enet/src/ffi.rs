//! Raw Linux bindings for the epoll backend.
//!
//! The workspace vendors no crates, so `epoll(7)` is reached through
//! hand-written `extern "C"` declarations against the symbols every
//! Linux libc exports. This is the **only** module in the
//! crate containing `unsafe`; everything it exposes is a safe wrapper
//! returning [`std::io::Result`] over owned file descriptors.
//!
//! # Safety argument
//!
//! - `epoll_create1` returns an owned fd; [`OwnedFd`] closes it exactly
//!   once on drop and is `!Clone`, so no double-close.
//! - `epoll_ctl` only receives fds the caller owns (borrowed as
//!   `RawFd`), and a pointer to a stack-local [`EpollEvent`] that the
//!   kernel copies before the call returns — no retained pointers.
//! - `epoll_wait` writes into a caller-provided `&mut [EpollEvent]`
//!   whose length bounds `maxevents`, so the kernel can never write
//!   past the buffer.
//! - `EINTR` never escapes: waits report it as "zero events".

use std::io;
use std::os::unix::io::RawFd;

// x86_64 is the one Linux ABI where epoll_event is packed (no padding
// between the u32 mask and the u64 data); everywhere else it is a
// normally-aligned struct.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness mask.
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for filling wait buffers.
    pub const fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
}

/// A file descriptor this wrapper owns and closes exactly once.
#[derive(Debug)]
pub struct OwnedFd(RawFd);

impl OwnedFd {
    /// Take ownership of a descriptor returned by a raw syscall (used
    /// by `crate::uring_ffi` for the ring fd). The caller must not close
    /// `fd` itself afterwards.
    pub(crate) fn from_raw(fd: RawFd) -> OwnedFd {
        OwnedFd(fd)
    }

    /// The raw descriptor, for registration calls. The fd stays owned
    /// by `self`.
    pub fn raw(&self) -> RawFd {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // EINTR on close is unrecoverable by retry (the fd state is
        // unspecified); ignore errors as std does.
        unsafe { close(self.0) };
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Create an epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<OwnedFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) }).map(OwnedFd)
}

/// Add `fd` to `epfd` with `events` and the cookie `data`.
pub fn epoll_add(epfd: &OwnedFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
}

/// Change the event mask / cookie of an already-watched `fd`.
pub fn epoll_mod(epfd: &OwnedFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
}

/// Remove `fd` from `epfd`. `ENOENT`/`EBADF` are ignored — the socket
/// may already be closed, which removes it from every epoll set.
pub fn epoll_del(epfd: &OwnedFd, fd: RawFd) {
    let mut ev = EpollEvent::zeroed();
    let _ = unsafe { epoll_ctl(epfd.raw(), EPOLL_CTL_DEL, fd, &mut ev) };
}

/// Collect the events already pending, waiting for none (a zero
/// `epoll_wait` timeout). Returns how many entries of `events` were
/// filled; `EINTR` is reported as `Ok(0)`.
pub fn epoll_wait_into(epfd: &OwnedFd, events: &mut [EpollEvent]) -> io::Result<usize> {
    let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
    let ret = unsafe { epoll_wait(epfd.raw(), events.as_mut_ptr(), max, 0) };
    match cvt(ret) {
        Ok(n) => Ok(n as usize),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

/// Shrink a socket's kernel send/receive buffers to roughly `bytes`
/// (the kernel doubles and clamps the request). Used by the backend
/// conformance tests to force short writes with small payloads.
pub fn set_buf_sizes(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val = i32::try_from(bytes).unwrap_or(i32::MAX);
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let ret = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        cvt(ret)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_fd_round_trip_through_epoll() {
        let ep = epoll_create().expect("epoll_create1");
        let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
        epoll_add(&ep, rx.as_raw_fd(), EPOLLIN, 7).expect("epoll_ctl ADD");

        let mut buf = [EpollEvent::zeroed(); 4];
        let n = epoll_wait_into(&ep, &mut buf).unwrap();
        assert_eq!(n, 0, "nothing written, not readable");

        tx.write_all(b"x").unwrap();
        let n = epoll_wait_into(&ep, &mut buf).unwrap();
        assert_eq!(n, 1);
        let data = buf[0].data;
        assert_eq!(data, 7);

        rx.read_exact(&mut [0u8; 1]).unwrap();
        let n = epoll_wait_into(&ep, &mut buf).unwrap();
        assert_eq!(n, 0, "drained, quiet again");
    }

    #[test]
    fn del_of_unwatched_fd_is_harmless() {
        let ep = epoll_create().unwrap();
        let (_tx, rx) = UnixStream::pair().unwrap();
        epoll_del(&ep, rx.as_raw_fd());
    }
}
