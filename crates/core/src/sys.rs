//! The two Linux calls the worker's park step needs beyond `std`:
//! `eventfd(2)` — the per-worker wake channel a directed notify writes
//! to — and `ppoll(2)`, which blocks on that eventfd *together with* the
//! kernel objects (io_uring and epoll descriptors) the worker's actors
//! declared through [`crate::actor::Ctx::watch_fd`].
//!
//! Like `pin_to_cpu` in `runtime.rs` this goes straight to the symbols
//! every Linux libc exports; the workspace vendors no crates.
//!
//! # Safety argument
//!
//! - `eventfd` returns an owned descriptor; it is wrapped in a
//!   [`std::fs::File`] at once, which closes it exactly once on drop and
//!   supplies `read`/`write` — no raw descriptor I/O here.
//! - `ppoll` receives a pointer to a caller-owned `&mut [PollFd]` whose
//!   length is passed as `nfds`, and a pointer to a stack `Timespec`
//!   that outlives the call; the kernel retains neither.

use std::ffi::{c_long, c_ulong, c_void};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const POLLIN: i16 = 0x001;

extern "C" {
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// One `struct pollfd`, always polled for readability.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn readable(fd: RawFd) -> Self {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait_readable`] reported anything on this
    /// descriptor (readable, hung up or invalid — all end the wait).
    pub(crate) fn fired(&self) -> bool {
        self.revents != 0
    }
}

/// A non-blocking eventfd counter.
#[derive(Debug)]
pub(crate) struct EventFd(File);

impl EventFd {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointers are passed; a non-negative return is a
        // fresh descriptor nobody else owns.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `eventfd` and is owned here.
        Ok(EventFd(unsafe { File::from_raw_fd(fd) }))
    }

    pub(crate) fn raw(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    /// Make the counter readable. A saturated counter (`EAGAIN`) is
    /// already readable, so every error but `EINTR` counts as done.
    pub(crate) fn signal(&self) {
        while let Err(e) = (&self.0).write(&1u64.to_ne_bytes()) {
            if e.kind() != io::ErrorKind::Interrupted {
                return;
            }
        }
    }

    /// Reset the counter to zero; harmless when it already is.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        while let Err(e) = (&self.0).read(&mut buf) {
            if e.kind() != io::ErrorKind::Interrupted {
                return;
            }
        }
    }
}

/// Block until one of `fds` is readable or `timeout` elapses (`None`
/// blocks indefinitely); each entry's [`PollFd::fired`] says which.
/// `EINTR` and any other failure report "nothing fired": the caller's
/// loop re-polls its inputs either way.
pub(crate) fn wait_readable(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ts = timeout.map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let tsp = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs and its length is passed as `nfds`; `ts` lives on
    // this frame past the call; a null sigmask leaves signals alone.
    let ret = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            tsp,
            std::ptr::null(),
        )
    };
    if ret < 0 {
        for fd in fds {
            fd.revents = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn signal_ends_a_wait_and_drain_quiets_it() {
        let ev = EventFd::new().expect("eventfd");
        let mut fds = [PollFd::readable(ev.raw())];
        wait_readable(&mut fds, Some(Duration::from_millis(1)));
        assert!(!fds[0].fired(), "a fresh eventfd is not readable");

        ev.signal();
        ev.signal();
        let start = Instant::now();
        wait_readable(&mut fds, Some(Duration::from_secs(5)));
        assert!(fds[0].fired());
        assert!(start.elapsed() < Duration::from_secs(1));

        ev.drain();
        wait_readable(&mut fds, Some(Duration::from_millis(1)));
        assert!(!fds[0].fired(), "one drain resets any number of signals");
    }
}
