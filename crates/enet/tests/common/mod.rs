//! What the ring test suites share: waiting for completions the way a
//! worker does. A reap never blocks, so the wait sits between reaps — on
//! the ring's descriptor when it has one, a short sleep otherwise.

use std::time::{Duration, Instant};

use enet::{Completion, CompletionRing};

#[cfg(unix)]
fn wait_readable(fd: i32, timeout: Duration) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    // Safety: one valid, exclusively borrowed pollfd for the call. The
    // outcome is not needed: the caller reaps and checks either way.
    unsafe { poll(&mut pfd, 1, timeout.as_millis() as i32) };
}

#[cfg(not(unix))]
fn wait_readable(_fd: i32, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Reap until `want` completions have arrived (or a deadline passes).
pub fn reap_until(
    ring: &mut dyn CompletionRing,
    out: &mut Vec<Completion>,
    want: usize,
    name: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        ring.reap(out).unwrap();
        if out.len() >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "[{name}] reap timed out at {} of {want} completions",
            out.len()
        );
        match ring.wait_fd() {
            Some(fd) => wait_readable(fd, Duration::from_millis(20)),
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}
