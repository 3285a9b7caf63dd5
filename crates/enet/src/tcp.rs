//! The portable real-socket backend: `std::net` on localhost.
//!
//! Functionally interchangeable with [`crate::SimNet`]; it shows the
//! system actors driving genuine kernel sockets on any platform `std`
//! supports, which makes it the bottom rung of [`crate::auto_backend`].
//! The sockets live in the shared loopback table (`table.rs`); with no
//! kernel multiplexer to ask, its completion ring retries everything in
//! flight on every reap.

use std::sync::Arc;

use sgx_sim::CostHandle;

use crate::ops_ring::OpsRing;
use crate::table::{loopback_backend, SocketTable};

/// Real non-blocking TCP sockets bound to 127.0.0.1.
///
/// The `port` passed to [`NetBackend::listen`]/[`NetBackend::connect`] is
/// a *logical* port; the OS assigns an ephemeral port and the mapping is
/// kept internally, so tests never collide with other processes.
///
/// [`NetBackend::listen`]: crate::NetBackend::listen
/// [`NetBackend::connect`]: crate::NetBackend::connect
#[derive(Debug, Clone)]
pub struct TcpLoopback {
    table: Arc<SocketTable>,
}

impl TcpLoopback {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        TcpLoopback {
            table: SocketTable::new(costs, None),
        }
    }
}

loopback_backend!(TcpLoopback, |net| Box::new(OpsRing::new(net.clone(), None)));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ListenerId, NetBackend, NetError, RecvOutcome, SocketId};
    use std::io::Write;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    use sgx_sim::{CostModel, Platform};

    fn net() -> TcpLoopback {
        TcpLoopback::new(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        )
    }

    fn accept_one(n: &TcpLoopback, l: ListenerId) -> SocketId {
        loop {
            if let Some(s) = n.accept(l).unwrap() {
                break s;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn real_sockets_round_trip() {
        let n = net();
        let l = n.listen(5222).unwrap();
        let c = n.connect(5222).unwrap();
        // Accept may need a beat on a real kernel.
        let s = accept_one(&n, l);
        assert!(n.send(c, b"hello").unwrap() > 0);
        let mut buf = [0u8; 16];
        let got = loop {
            match n.recv(s, &mut buf).unwrap() {
                RecvOutcome::Data(k) => break k,
                RecvOutcome::WouldBlock => std::thread::yield_now(),
                RecvOutcome::Eof => panic!("unexpected eof"),
            }
        };
        assert_eq!(&buf[..got], b"hello");
        n.close(c).unwrap();
        n.close(s).unwrap();
        n.close_listener(l).unwrap();
    }

    #[test]
    fn closed_logical_port_can_be_relistened() {
        let n = net();
        let l1 = n.listen(5222).unwrap();
        n.close_listener(l1).unwrap();
        // Regression: the logical→OS port mapping used to leak, so this
        // second listen failed with PortInUse forever.
        let l2 = n.listen(5222).unwrap();
        let c = n.connect(5222).unwrap();
        let s = accept_one(&n, l2);
        n.close(c).unwrap();
        n.close(s).unwrap();
        n.close_listener(l2).unwrap();
        // Stale connects after the final close are refused again.
        assert!(matches!(
            n.connect(5222),
            Err(NetError::ConnectionRefused(5222))
        ));
    }

    /// Regression for the global-mutex-across-syscall bug: while one
    /// thread hammers a wedged socket (peer buffer full, never drained),
    /// an independent connection must still complete round-trips.
    #[test]
    fn stalled_socket_does_not_serialize_other_connections() {
        let n = net();
        let l = n.listen(7000).unwrap();

        // Connection A: fill the peer's buffers until send returns 0,
        // then keep retrying from a background thread.
        let a = n.connect(7000).unwrap();
        let _a_srv = accept_one(&n, l);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammer = {
            let n = n.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let chunk = [0u8; 64 * 1024];
                while !stop.load(Ordering::Relaxed) {
                    // Never drained by anyone: once both socket buffers
                    // fill this returns 0 every time.
                    let _ = n.send(a, &chunk);
                }
            })
        };

        // Connection B: must make progress concurrently.
        let b = n.connect(7000).unwrap();
        let b_srv = accept_one(&n, l);
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..100u8 {
            let msg = [i; 32];
            while n.send(b, &msg).unwrap() == 0 {
                assert!(Instant::now() < deadline, "writer starved by stalled peer");
                std::thread::yield_now();
            }
            let mut buf = [0u8; 32];
            let mut got = 0;
            while got < 32 {
                match n.recv(b_srv, &mut buf[got..]).unwrap() {
                    RecvOutcome::Data(k) => got += k,
                    RecvOutcome::WouldBlock => {
                        assert!(Instant::now() < deadline, "reader starved by stalled peer");
                        std::thread::yield_now();
                    }
                    RecvOutcome::Eof => panic!("unexpected eof"),
                }
            }
            assert_eq!(buf, msg);
        }

        stop.store(true, Ordering::Relaxed);
        hammer.join().unwrap();
    }

    #[test]
    fn close_while_peer_syscall_in_flight_is_safe() {
        // The map entry goes away immediately and the connection is shut
        // down, but the Arc handed to an in-flight syscall keeps the fd
        // alive (its number cannot be recycled under the syscall);
        // subsequent calls on the closed id fail cleanly.
        let n = net();
        let l = n.listen(7100).unwrap();
        let c = n.connect(7100).unwrap();
        let s = accept_one(&n, l);
        let held = n.table.socket(c).unwrap();
        n.close(c).unwrap();
        assert!(matches!(n.send(c, b"x"), Err(NetError::BadSocket)));
        // The held Arc still points at a live fd — of a connection that
        // is shut down, so the in-flight syscall ends with an error, not
        // on somebody else's socket.
        assert!(held.local_addr().is_ok());
        assert!((&*held).write(b"x").is_err());
        drop(held);
        n.close(s).unwrap();
        n.close_listener(l).unwrap();
    }

    #[test]
    fn enclave_code_cannot_use_real_sockets() {
        let p = Platform::builder().cost_model(CostModel::zero()).build();
        let n = TcpLoopback::new(p.costs());
        let e = p.create_enclave("svc", 0).unwrap();
        assert!(matches!(
            e.ecall(|| n.listen(1)),
            Err(NetError::TrustedDomain)
        ));
    }
}
