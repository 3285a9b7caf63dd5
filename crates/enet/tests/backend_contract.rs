//! Backend conformance suite: one parameterized set of trait-contract
//! checks, run identically against every [`NetBackend`] — `SimNet`,
//! `TcpLoopback`, and (on Linux) `EpollBackend` plus `UringBackend`
//! where the kernel's io_uring probe succeeds. A behavior difference
//! between backends is a bug in the backend, not in the caller; this
//! suite is what keeps the fault-injection and permutation tests (which
//! only run against sim) honest about the real backends.
//!
//! Two halves: the seven synchronous socket operations, then (the
//! `ring_*` tests) the [`CompletionRing`] every backend puts on top of
//! them — the one contract the system actors speak, whatever mechanism
//! sits beneath it.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::reap_until;

use eactors::arena::Arena;
use enet::{
    Completion, ListenerId, NetBackend, NetError, RecvOutcome, SimNet, SocketId, TcpLoopback,
};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// Every backend, by name, over a fresh platform each.
fn backends() -> Vec<(&'static str, Platform, Arc<dyn NetBackend>)> {
    let mut v: Vec<(&'static str, Platform, Arc<dyn NetBackend>)> = Vec::new();
    let p = platform();
    v.push(("sim", p.clone(), Arc::new(SimNet::new(p.costs()))));
    let p = platform();
    v.push(("tcp", p.clone(), Arc::new(TcpLoopback::new(p.costs()))));
    #[cfg(target_os = "linux")]
    {
        let p = platform();
        v.push((
            "epoll",
            p.clone(),
            Arc::new(enet::EpollBackend::new(p.costs())),
        ));
        match enet::UringBackend::probe() {
            Ok(()) => {
                let p = platform();
                v.push((
                    "uring",
                    p.clone(),
                    Arc::new(enet::UringBackend::new(p.costs())),
                ));
            }
            Err(reason) => eprintln!("skipping uring conformance: {reason}"),
        }
    }
    v
}

/// Backends configured for tiny socket buffers, to force short writes
/// with small payloads. `TcpLoopback` exposes no buffer knob, so the
/// partial-write test covers it by sheer volume instead.
fn small_buffer_backends() -> Vec<(&'static str, Arc<dyn NetBackend>, usize)> {
    let mut v: Vec<(&'static str, Arc<dyn NetBackend>, usize)> = Vec::new();
    let p = platform();
    v.push((
        "sim",
        Arc::new(SimNet::with_buffer_size(p.costs(), 8)),
        4 * 1024,
    ));
    let p = platform();
    v.push((
        "tcp",
        Arc::new(TcpLoopback::new(p.costs())),
        16 * 1024 * 1024,
    ));
    #[cfg(target_os = "linux")]
    {
        let p = platform();
        v.push((
            "epoll",
            Arc::new(enet::EpollBackend::with_buffer_size(p.costs(), 1)),
            256 * 1024,
        ));
        if enet::UringBackend::probe().is_ok() {
            let p = platform();
            v.push((
                "uring",
                Arc::new(enet::UringBackend::with_buffer_size(p.costs(), 1)),
                256 * 1024,
            ));
        } else {
            eprintln!("skipping uring small-buffer conformance: no io_uring");
        }
    }
    v
}

fn accept_one(net: &dyn NetBackend, l: ListenerId, name: &str) -> SocketId {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(s) = net.accept(l).unwrap() {
            return s;
        }
        assert!(Instant::now() < deadline, "[{name}] accept timed out");
        std::thread::yield_now();
    }
}

fn recv_all(net: &dyn NetBackend, s: SocketId, want: usize, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(want);
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while out.len() < want {
        match net.recv(s, &mut buf).unwrap() {
            RecvOutcome::Data(n) => out.extend_from_slice(&buf[..n]),
            RecvOutcome::WouldBlock => {
                assert!(Instant::now() < deadline, "[{name}] recv timed out");
                std::thread::yield_now();
            }
            RecvOutcome::Eof => panic!("[{name}] unexpected eof after {} bytes", out.len()),
        }
    }
    out
}

#[test]
fn round_trip_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(5222).unwrap();
        let c = net.connect(5222).unwrap();
        let s = accept_one(net.as_ref(), l, name);
        assert!(net.send(c, b"hello backend").unwrap() > 0, "[{name}]");
        let got = recv_all(net.as_ref(), s, 13, name);
        assert_eq!(got, b"hello backend", "[{name}]");
        // And the reverse direction.
        assert!(net.send(s, b"right back").unwrap() > 0, "[{name}]");
        let got = recv_all(net.as_ref(), c, 10, name);
        assert_eq!(got, b"right back", "[{name}]");
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

/// Short writes must resume exactly where they stopped: pump `total`
/// patterned bytes through a connection, draining the receiver only
/// when the sender stalls, and verify every byte in order.
#[test]
fn partial_write_resume_preserves_order() {
    for (name, net, total) in small_buffer_backends() {
        let l = net.listen(6000).unwrap();
        let c = net.connect(6000).unwrap();
        let s = accept_one(net.as_ref(), l, name);

        let pattern = |i: usize| (i % 251) as u8;
        let chunk: Vec<u8> = (0..8192).map(pattern).collect();
        let mut sent = 0usize;
        let mut received = Vec::with_capacity(total);
        let mut buf = vec![0u8; 8192];
        let mut stalled = false;
        let deadline = Instant::now() + Duration::from_secs(60);
        while sent < total {
            let want = (total - sent).min(chunk.len());
            // The chunk is offset so the pattern continues seamlessly.
            let view: Vec<u8> = (sent..sent + want).map(pattern).collect();
            let n = net.send(c, &view).unwrap();
            if n < want {
                stalled = true;
            }
            sent += n;
            if n == 0 {
                // Sender stalled: drain the receiver to make room.
                match net.recv(s, &mut buf).unwrap() {
                    RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                    RecvOutcome::WouldBlock => std::thread::yield_now(),
                    RecvOutcome::Eof => panic!("[{name}] premature eof"),
                }
            }
            assert!(Instant::now() < deadline, "[{name}] pump timed out");
        }
        assert!(
            stalled,
            "[{name}] test never hit a short write — raise `total`"
        );
        while received.len() < total {
            match net.recv(s, &mut buf).unwrap() {
                RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                RecvOutcome::WouldBlock => {
                    assert!(Instant::now() < deadline, "[{name}] drain timed out");
                    std::thread::yield_now();
                }
                RecvOutcome::Eof => panic!("[{name}] premature eof"),
            }
        }
        for (i, &b) in received.iter().enumerate() {
            assert_eq!(b, pattern(i), "[{name}] byte {i} corrupted");
        }
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn eof_after_close_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(7000).unwrap();
        let c = net.connect(7000).unwrap();
        let s = accept_one(net.as_ref(), l, name);
        assert!(net.send(c, b"last words").unwrap() > 0, "[{name}]");
        net.close(c).unwrap();
        // Buffered bytes drain first, then EOF — never an error.
        let got = recv_all(net.as_ref(), s, 10, name);
        assert_eq!(got, b"last words", "[{name}]");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = [0u8; 16];
        loop {
            match net.recv(s, &mut buf).unwrap() {
                RecvOutcome::Eof => break,
                RecvOutcome::WouldBlock => {
                    assert!(Instant::now() < deadline, "[{name}] eof timed out");
                    std::thread::yield_now();
                }
                RecvOutcome::Data(_) => panic!("[{name}] data after drained payload"),
            }
        }
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn bad_ids_report_bad_socket() {
    for (name, _p, net) in backends() {
        let bogus = SocketId(u64::MAX / 2);
        assert!(
            matches!(net.send(bogus, b"x"), Err(NetError::BadSocket)),
            "[{name}] send"
        );
        let mut buf = [0u8; 4];
        assert!(
            matches!(net.recv(bogus, &mut buf), Err(NetError::BadSocket)),
            "[{name}] recv"
        );
        assert!(
            matches!(net.close(bogus), Err(NetError::BadSocket)),
            "[{name}] close"
        );
        let bogus_l = ListenerId(u64::MAX / 2);
        assert!(
            matches!(net.accept(bogus_l), Err(NetError::BadSocket)),
            "[{name}] accept"
        );
        assert!(
            matches!(net.close_listener(bogus_l), Err(NetError::BadSocket)),
            "[{name}] close_listener"
        );
        // Closing twice is as bad as never opening.
        let l = net.listen(1).unwrap();
        let c = net.connect(1).unwrap();
        net.close(c).unwrap();
        assert!(
            matches!(net.close(c), Err(NetError::BadSocket)),
            "[{name}] double close"
        );
        net.close_listener(l).unwrap();
    }
}

#[test]
fn port_collision_and_refusal_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(4444).unwrap();
        assert!(
            matches!(net.listen(4444), Err(NetError::PortInUse(4444))),
            "[{name}] duplicate listen"
        );
        assert!(
            matches!(net.connect(4445), Err(NetError::ConnectionRefused(4445))),
            "[{name}] connect to nothing"
        );
        net.close_listener(l).unwrap();
    }
}

/// Regression (tcp.rs): `close_listener` used to leak the logical→OS
/// port mapping, so a re-listen on the same logical port failed with
/// `PortInUse` forever.
#[test]
fn close_then_relisten_reuses_logical_port() {
    for (name, _p, net) in backends() {
        for round in 0..3 {
            let l = net.listen(5222).unwrap();
            let c = net.connect(5222).unwrap();
            let s = accept_one(net.as_ref(), l, name);
            assert!(net.send(c, b"ping").unwrap() > 0, "[{name}] round {round}");
            let got = recv_all(net.as_ref(), s, 4, name);
            assert_eq!(got, b"ping", "[{name}] round {round}");
            net.close(c).unwrap();
            net.close(s).unwrap();
            net.close_listener(l).unwrap();
        }
        // After the final close nothing listens there.
        assert!(
            matches!(net.connect(5222), Err(NetError::ConnectionRefused(5222))),
            "[{name}] stale mapping survived close_listener"
        );
    }
}

#[test]
fn enclave_domain_rejected_on_every_backend() {
    for (name, p, net) in backends() {
        let l = net.listen(9100).unwrap();
        let c = net.connect(9100).unwrap();
        let enclave = p.create_enclave("contract", 0).unwrap();
        assert!(
            matches!(
                enclave.ecall(|| net.listen(9101)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] listen from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.connect(9100)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] connect from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.send(c, b"x")),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] send from enclave"
        );
        let mut buf = [0u8; 4];
        assert!(
            matches!(
                enclave.ecall(|| net.recv(c, &mut buf)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] recv from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.accept(l)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] accept from enclave"
        );
        assert!(
            matches!(enclave.ecall(|| net.close(c)), Err(NetError::TrustedDomain)),
            "[{name}] close from enclave"
        );
        // Outside the enclave the same handles still work.
        net.close(c).unwrap();
        net.close_listener(l).unwrap();
    }
}

// ---------------------------------------------------------------------
// The completion ring: one contract over every backend.
// ---------------------------------------------------------------------

/// A connected pair on a fresh listener of `net`: (listener, client end,
/// server end).
fn pair(net: &dyn NetBackend, name: &str) -> (ListenerId, SocketId, SocketId) {
    let l = net.listen(8000).unwrap();
    let c = net.connect(8000).unwrap();
    (l, c, accept_one(net, l, name))
}

/// The one finished receive in `out`: (socket, payload bytes or error).
fn take_recv(out: &mut Vec<Completion>, name: &str) -> (u64, Result<Vec<u8>, NetError>, Vec<u8>) {
    assert_eq!(out.len(), 1, "[{name}] exactly one completion");
    match out.pop().unwrap() {
        Completion::Recv {
            socket,
            mut node,
            offset,
            result,
        } => {
            let header = node.buffer_mut()[..offset].to_vec();
            let payload = result.map(|n| node.buffer_mut()[offset..offset + n].to_vec());
            (socket, payload, header)
        }
        other => panic!("[{name}] unexpected completion {other:?}"),
    }
}

/// Data that arrived before the receive was submitted completes it —
/// no new edge is needed — and a receive at an offset leaves the bytes
/// below it alone.
#[test]
fn ring_receive_completes_on_data_already_there_and_respects_the_offset() {
    for (name, _p, net) in backends() {
        let (_l, c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        // Four bytes of room per node, eight bytes on the wire: the first
        // completion proves the whole write arrived, so the second half
        // is already waiting when its receive goes in.
        let arena = Arena::new("ring-offset", 2, 8);
        assert_eq!(net.send(c, b"12345678").unwrap(), 8, "[{name}]");
        let mut out = Vec::new();
        for want in [&b"1234"[..], b"5678"] {
            let mut node = arena.try_pop().unwrap();
            node.buffer_mut()[..4].copy_from_slice(b"HEAD");
            ring.recv_into(s, node, 4).unwrap();
            reap_until(ring.as_mut(), &mut out, 1, name);
            let (socket, payload, header) = take_recv(&mut out, name);
            assert_eq!(socket, s.0, "[{name}]");
            assert_eq!(payload.unwrap(), want, "[{name}]");
            assert_eq!(header, b"HEAD", "[{name}] header bytes overwritten");
        }
    }
}

/// A send larger than the socket buffer stays inside the ring until the
/// last byte is out: one `Sent { Ok }`, bytes in order, and a second send
/// on the busy socket is refused with its node.
#[test]
fn ring_send_resumes_short_writes_and_surfaces_one_completion() {
    for (name, net, total) in small_buffer_backends() {
        // With the kernel buffers shrunk every window is a stall of tens
        // of milliseconds, so the pump test's volume would take half a
        // minute here. One loopback segment (64 KiB) is what the kernel
        // swallows whatever the buffer size; the rest shows the resume.
        let total = match name {
            "epoll" | "uring" => total * 3 / 8,
            _ => total,
        };
        let (_l, c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-big", 2, total);
        let pattern = |i: usize| (i % 251) as u8;
        let mut node = arena.try_pop().unwrap();
        for (i, b) in node.buffer_mut().iter_mut().enumerate() {
            *b = pattern(i);
        }
        node.set_len(total);
        ring.send_node(c, node, 0).unwrap();

        let mut out = Vec::new();
        ring.reap(&mut out).unwrap();
        assert!(
            out.is_empty(),
            "[{name}] nobody drains the peer yet — raise the payload"
        );
        let mut second = arena.try_pop().unwrap();
        second.write(b"queue-jumper");
        let (e, _node) = ring.send_node(c, second, 0).unwrap_err();
        assert!(matches!(e, NetError::WouldBlock), "[{name}] got {e:?}");

        let mut received = Vec::with_capacity(total);
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_secs(60);
        while received.len() < total {
            match net.recv(s, &mut buf).unwrap() {
                RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                RecvOutcome::WouldBlock => {
                    ring.reap(&mut out).unwrap();
                }
                RecvOutcome::Eof => panic!("[{name}] premature eof"),
            }
            assert!(Instant::now() < deadline, "[{name}] pump timed out");
        }
        reap_until(ring.as_mut(), &mut out, 1, name);
        assert_eq!(out.len(), 1, "[{name}] one completion per node");
        assert!(
            matches!(&out[0], Completion::Sent { socket, result: Ok(()), .. } if *socket == c.0),
            "[{name}] got {:?}",
            out[0]
        );
        for (i, &b) in received.iter().enumerate() {
            assert_eq!(b, pattern(i), "[{name}] byte {i} out of order");
        }
    }
}

/// One receive in flight per socket: the second is refused with its
/// node. Cancelling hands the first node back — as `Canceled` when
/// nothing arrived, never silently.
#[test]
fn ring_second_receive_is_refused_and_cancel_returns_the_node() {
    for (name, _p, net) in backends() {
        let (_l, _c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        // A two-node pool makes the leak check exact.
        let arena = Arena::new("ring-cancel", 2, 64);
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        let (e, node) = ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap_err();
        assert!(matches!(e, NetError::WouldBlock), "[{name}] got {e:?}");
        drop(node);

        let mut out = Vec::new();
        // Flush the submission; no data is coming, so nothing completes.
        ring.reap(&mut out).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        ring.reap(&mut out).unwrap();
        assert!(out.is_empty(), "[{name}]");
        assert_eq!(arena.free_nodes(), 1, "[{name}] one node is in flight");
        ring.cancel_recv(s);
        reap_until(ring.as_mut(), &mut out, 1, name);
        let (socket, payload, _) = take_recv(&mut out, name);
        assert_eq!(socket, s.0, "[{name}]");
        assert!(
            matches!(payload, Err(NetError::Canceled)),
            "[{name}] got {payload:?}"
        );
        assert_eq!(arena.free_nodes(), 2, "[{name}] cancelled node leaked");
        // The socket is still good for a new receive.
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
    }
}

/// A receive that loses the race against its cancellation still hands
/// its data over: either outcome, never neither, and no byte lost.
#[test]
fn ring_cancel_racing_data_loses_nothing() {
    for (name, _p, net) in backends() {
        let (_l, c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-race", 2, 64);
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        let mut out = Vec::new();
        ring.reap(&mut out).unwrap();
        assert_eq!(net.send(c, b"racer").unwrap(), 5, "[{name}]");
        ring.cancel_recv(s);
        reap_until(ring.as_mut(), &mut out, 1, name);
        let (_, payload, _) = take_recv(&mut out, name);
        match payload {
            Ok(bytes) => assert_eq!(bytes, b"racer", "[{name}]"),
            Err(NetError::Canceled) => {
                // The bytes stayed in the socket for the next receive.
                ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
                reap_until(ring.as_mut(), &mut out, 1, name);
                let (_, payload, _) = take_recv(&mut out, name);
                assert_eq!(payload.unwrap(), b"racer", "[{name}]");
            }
            Err(e) => panic!("[{name}] neither data nor Canceled: {e:?}"),
        }
    }
}

#[test]
fn ring_reports_eof_as_zero_bytes() {
    for (name, _p, net) in backends() {
        let (_l, c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-eof", 1, 64);
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        net.close(c).unwrap();
        let mut out = Vec::new();
        reap_until(ring.as_mut(), &mut out, 1, name);
        let (_, payload, _) = take_recv(&mut out, name);
        assert_eq!(payload.unwrap(), b"", "[{name}] EOF is Ok(0)");
    }
}

#[test]
fn ring_hands_nodes_of_unknown_ids_back() {
    for (name, _p, net) in backends() {
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-bogus", 1, 64);
        let bogus = SocketId(u64::MAX / 2);
        let (e, mut node) = ring
            .recv_into(bogus, arena.try_pop().unwrap(), 0)
            .unwrap_err();
        assert!(matches!(e, NetError::BadSocket), "[{name}] recv {e:?}");
        node.write(b"x");
        let (e, node) = ring.send_node(bogus, node, 0).unwrap_err();
        assert!(matches!(e, NetError::BadSocket), "[{name}] send {e:?}");
        drop(node);
        assert!(
            matches!(
                ring.accept(ListenerId(u64::MAX / 2)),
                Err(NetError::BadSocket)
            ),
            "[{name}] accept"
        );
        assert_eq!(arena.free_nodes(), 1, "[{name}] node leaked");
    }
}

/// A connection that was pending before the accept was armed, and one
/// that arrives after, both surface pre-accepted and usable.
#[test]
fn ring_accepts_pending_and_later_connections() {
    for (name, _p, net) in backends() {
        let l = net.listen(8100).unwrap();
        let mut ring = net.completion_ring();
        let first = net.connect(8100).unwrap();
        ring.accept(l).unwrap();
        ring.accept(l).unwrap(); // idempotent while armed
        let mut out = Vec::new();
        reap_until(ring.as_mut(), &mut out, 1, name);
        let second = net.connect(8100).unwrap();
        reap_until(ring.as_mut(), &mut out, 2, name);
        assert_eq!(out.len(), 2, "[{name}] one completion per connection");
        for (client, completion) in [first, second].into_iter().zip(out) {
            let Completion::Accepted { listener, socket } = completion else {
                panic!("[{name}] unexpected completion {completion:?}");
            };
            assert_eq!(listener, l.0, "[{name}]");
            assert!(net.send(client, b"hi").unwrap() > 0, "[{name}]");
            let got = recv_all(net.as_ref(), SocketId(socket), 2, name);
            assert_eq!(got, b"hi", "[{name}] accepted socket not adopted");
        }
    }
}

/// Every fallible ring entry point refuses enclave callers before it
/// does — or charges — anything.
#[test]
fn ring_refuses_enclave_callers_and_charges_them_nothing() {
    for (name, p, net) in backends() {
        let (l, _c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-enclave", 2, 64);
        let mut payload = arena.try_pop().unwrap();
        payload.write(b"x");
        let (recv_node, mut out) = (arena.try_pop().unwrap(), Vec::new());

        let enclave = p.create_enclave("ring", 4096).unwrap();
        let charged = p.stats().syscalls();
        let prev = sgx_sim::switch_domain(&p.costs(), enclave.domain());
        let accept = ring.accept(l);
        let recv = ring.recv_into(s, recv_node, 0);
        let send = ring.send_node(s, payload, 0);
        let reap = ring.reap(&mut out);
        sgx_sim::switch_domain(&p.costs(), prev);

        assert!(matches!(accept, Err(NetError::TrustedDomain)), "[{name}]");
        assert!(
            matches!(recv, Err((NetError::TrustedDomain, _))),
            "[{name}]"
        );
        assert!(
            matches!(send, Err((NetError::TrustedDomain, _))),
            "[{name}]"
        );
        assert!(matches!(reap, Err(NetError::TrustedDomain)), "[{name}]");
        assert_eq!(p.stats().syscalls(), charged, "[{name}] refusal charged");
    }
}

/// Keeping an operation in flight is not a system call: what a ring
/// charges is what it issues. For the rings without a kernel multiplexer
/// that is one plain operation per try — none while nothing is in flight.
#[test]
fn ring_without_a_descriptor_charges_one_syscall_per_try() {
    for (name, p, net) in backends() {
        let (_l, _c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        if ring.wait_fd().is_some() {
            continue;
        }
        let arena = Arena::new("ring-charge", 1, 64);
        let mut out = Vec::new();
        let charged = p.stats().syscalls();
        ring.reap(&mut out).unwrap();
        assert_eq!(p.stats().syscalls(), charged, "[{name}] idle reap charged");
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        assert_eq!(p.stats().syscalls() - charged, 1, "[{name}] submission");
        for _ in 0..10 {
            ring.reap(&mut out).unwrap();
        }
        assert_eq!(p.stats().syscalls() - charged, 11, "[{name}] retries");
        ring.cancel_recv(s);
        ring.reap(&mut out).unwrap();
        assert_eq!(p.stats().syscalls() - charged, 11, "[{name}] cancel");
    }
}

/// Whether `fd` polls readable within `timeout_ms`.
#[cfg(target_os = "linux")]
fn polls_readable(fd: i32, timeout_ms: i32) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is one valid, exclusively borrowed pollfd and `nfds`
    // says so; the kernel writes only `revents`.
    let n = unsafe { poll(&mut pfd, 1, timeout_ms) };
    n == 1 && pfd.revents & POLLIN != 0
}

/// The rings a worker can sleep on (epoll, io_uring) expose a descriptor
/// that is readable exactly while a reap would find something; the
/// others expose none and are paced by their worker.
#[cfg(target_os = "linux")]
#[test]
fn ring_descriptor_is_readable_while_completions_wait() {
    for (name, _p, net) in backends() {
        let (_l, c, s) = pair(net.as_ref(), name);
        let mut ring = net.completion_ring();
        let Some(fd) = ring.wait_fd() else {
            assert!(matches!(name, "sim" | "tcp"), "[{name}] must be pollable");
            continue;
        };
        assert!(matches!(name, "epoll" | "uring"), "[{name}] has no kernel");
        let arena = Arena::new("ring-fd", 1, 64);
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(ring.reap(&mut out).unwrap(), 0);
        assert!(!polls_readable(fd, 1), "[{name}] nothing pending");

        assert!(net.send(c, b"ping").unwrap() > 0, "[{name}]");
        assert!(polls_readable(fd, 5_000), "[{name}] news, not readable");
        assert_eq!(ring.reap(&mut out).unwrap(), 1);
        assert!(!polls_readable(fd, 1), "[{name}] reaped: quiet again");
    }
}
