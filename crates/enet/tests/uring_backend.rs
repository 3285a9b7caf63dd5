//! io_uring backend integration tests: syscall amortization, torn
//! submission under a tiny ring, cancellation returning nodes to their
//! pools, and an end-to-end echo service through a real [`Runtime`].
//!
//! Every test begins by probing the kernel and **skips with a message**
//! where io_uring is unavailable (seccomp'd CI runners, old kernels) —
//! absence of the facility must not read as a failure.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::arena::{Arena, Mbox};
use eactors::obs::MetricsRegistry;
use eactors::prelude::*;
use enet::{
    Completion, NetBackend, NetError, NetMsg, NetPort, RecvOutcome, SocketId, SystemActors,
    UringBackend,
};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// The probed backend, or `None` (with a skip message) when the kernel
/// lacks io_uring.
fn probe_backend(test: &str) -> Option<(Platform, UringBackend)> {
    match UringBackend::probe() {
        Ok(()) => {
            let p = platform();
            let net = UringBackend::new(p.costs());
            Some((p, net))
        }
        Err(reason) => {
            eprintln!("skipping {test}: io_uring unavailable ({reason})");
            None
        }
    }
}

/// `pairs` connected loopback socket pairs on one listener.
fn socket_pairs(net: &UringBackend, pairs: usize) -> Vec<(SocketId, SocketId)> {
    let l = net.listen(1).unwrap();
    (0..pairs)
        .map(|_| {
            let c = net.connect(1).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let s = loop {
                if let Some(s) = net.accept(l).unwrap() {
                    break s;
                }
                assert!(Instant::now() < deadline, "accept timed out");
                std::thread::yield_now();
            };
            (c, s)
        })
        .collect()
}

/// Reap until `want` completions have arrived (or a deadline passes).
fn reap_until(ring: &mut dyn enet::CompletionRing, completions: &mut Vec<Completion>, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while completions.len() < want {
        ring.reap(completions, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            Instant::now() < deadline,
            "reap timed out at {} of {want} completions",
            completions.len()
        );
    }
}

/// The tentpole claim, measured: data already waiting on N sockets is
/// collected with **fewer `io_uring_enter` calls than completions** —
/// the per-event syscall is gone.
#[test]
fn batched_receives_amortize_enter_syscalls() {
    const PAIRS: usize = 8;
    let Some((_p, net)) = probe_backend("batched_receives_amortize_enter_syscalls") else {
        return;
    };
    let mut ring = net.completion_ring().unwrap();
    let registry = MetricsRegistry::new();
    ring.bind_obs(&registry);

    let pairs = socket_pairs(&net, PAIRS);
    // Data is on the wire *before* any receive is submitted, so every
    // read completes inline during one submit-and-wait.
    for (i, (c, _s)) in pairs.iter().enumerate() {
        assert!(net.send(*c, format!("stanza-{i}").as_bytes()).unwrap() > 0);
    }
    std::thread::sleep(Duration::from_millis(50)); // let loopback settle

    let arena = Arena::new("uring-amortize", 32, 256);
    for (_c, s) in &pairs {
        let node = arena.try_pop().unwrap();
        ring.recv_into(*s, node, 0).unwrap();
    }
    let mut completions = Vec::new();
    reap_until(ring.as_mut(), &mut completions, PAIRS);

    let mut seen = 0;
    for c in &completions {
        if let Completion::Recv { result, .. } = c {
            assert!(matches!(result, Ok(n) if *n > 0));
            seen += 1;
        }
    }
    assert_eq!(seen, PAIRS);

    let sqe = registry.counter_value("net_sqe_submitted").unwrap();
    let cqe = registry.counter_value("net_cqe_reaped").unwrap();
    let enters = registry.counter_value("net_enter_syscalls").unwrap();
    assert!(sqe >= PAIRS as u64, "submitted {sqe} SQEs");
    assert!(cqe >= PAIRS as u64, "reaped {cqe} CQEs");
    assert!(
        enters < cqe,
        "no amortization: {enters} enters for {cqe} completions"
    );
}

/// Charged syscalls are real ones: over a receive submission, ten
/// thousand reaps that find nothing, a completion and a cancel, the
/// platform's syscall count moves exactly as `net_enter_syscalls` does.
/// Looking at the completion queue and queueing an operation are
/// user-space work; only an `io_uring_enter` enters the kernel.
#[test]
fn the_ring_charges_one_syscall_per_enter_and_nothing_else() {
    let Some((p, net)) = probe_backend("the_ring_charges_one_syscall_per_enter_and_nothing_else")
    else {
        return;
    };
    let mut ring = net.completion_ring().unwrap();
    let registry = MetricsRegistry::new();
    ring.bind_obs(&registry);
    let (c, s) = socket_pairs(&net, 1)[0];
    let arena = Arena::new("uring-charge", 4, 64);
    let enters = || registry.counter_value("net_enter_syscalls").unwrap();
    let mut completions = Vec::new();

    let (charged, entered) = (p.stats().syscalls(), enters());
    ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
    assert_eq!(p.stats().syscalls(), charged, "queueing is no syscall");
    for _ in 0..10_000 {
        assert_eq!(
            ring.reap(&mut completions, Some(Duration::ZERO)).unwrap(),
            0
        );
    }
    assert_eq!(
        enters() - entered,
        1,
        "one flush of the receive, then nothing to do"
    );
    assert_eq!(p.stats().syscalls() - charged, 1);

    let charged_before_send = p.stats().syscalls();
    assert!(net.send(c, b"x").unwrap() > 0);
    let sent = p.stats().syscalls() - charged_before_send;
    reap_until(ring.as_mut(), &mut completions, 1);
    ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
    ring.cancel_recv(s);
    reap_until(ring.as_mut(), &mut completions, 2);
    assert_eq!(
        p.stats().syscalls() - charged - sent,
        enters() - entered,
        "every charge is an enter and every enter is charged"
    );

    // The refusal comes first and costs nothing.
    let enclave = p.create_enclave("t", 4096).unwrap();
    let prev = sgx_sim::switch_domain(&p.costs(), enclave.domain());
    let (charged, entered) = (p.stats().syscalls(), enters());
    let refused = ring.reap(&mut completions, Some(Duration::ZERO));
    sgx_sim::switch_domain(&p.costs(), prev);
    assert!(matches!(refused, Err(NetError::TrustedDomain)));
    assert_eq!((p.stats().syscalls(), enters()), (charged, entered));
}

/// Torn submission: a 4-entry ring takes 16 concurrent operations. The
/// overflow parks in the backlog and drains across reaps — every
/// payload still arrives, no SQE is lost.
#[test]
fn tiny_ring_retries_backlogged_sqes_without_loss() {
    const PAIRS: usize = 16;
    if let Err(reason) = UringBackend::probe() {
        eprintln!("skipping tiny_ring_retries_backlogged_sqes_without_loss: {reason}");
        return;
    }
    let p = platform();
    let net = UringBackend::with_ring_entries(p.costs(), 4);
    let mut ring = net.completion_ring().unwrap();

    let pairs = socket_pairs(&net, PAIRS);
    for (i, (c, _s)) in pairs.iter().enumerate() {
        assert!(net.send(*c, format!("torn-{i:02}").as_bytes()).unwrap() > 0);
    }
    std::thread::sleep(Duration::from_millis(50));

    let arena = Arena::new("uring-torn", 32, 256);
    for (_c, s) in &pairs {
        let node = arena.try_pop().unwrap();
        ring.recv_into(*s, node, 0).unwrap();
    }
    let mut completions = Vec::new();
    reap_until(ring.as_mut(), &mut completions, PAIRS);

    // The ring reports lengths but leaves `set_len` to the READER, so
    // the payload is read straight from the node's buffer.
    let mut payloads: Vec<String> = Vec::new();
    for c in completions.drain(..) {
        if let Completion::Recv {
            mut node,
            offset,
            result: Ok(n),
            ..
        } = c
        {
            payloads
                .push(String::from_utf8_lossy(&node.buffer_mut()[offset..offset + n]).into_owned());
        }
    }
    payloads.sort();
    let want: Vec<String> = (0..PAIRS).map(|i| format!("torn-{i:02}")).collect();
    assert_eq!(payloads, want, "every backlogged receive must complete");
}

/// Cancelling an armed receive surfaces a completion carrying the node,
/// which recycles to its pool — cancellation leaks nothing.
#[test]
fn cancel_recv_returns_the_node_to_its_pool() {
    let Some((_p, net)) = probe_backend("cancel_recv_returns_the_node_to_its_pool") else {
        return;
    };
    let mut ring = net.completion_ring().unwrap();
    let pairs = socket_pairs(&net, 1);
    let (_c, s) = pairs[0];

    // A single-node pool makes the leak check exact.
    let arena = Arena::new("uring-cancel", 1, 256);
    let node = arena.try_pop().unwrap();
    ring.recv_into(s, node, 0).unwrap();
    assert!(
        arena.try_pop().is_none(),
        "the pool's one node is in flight"
    );

    let mut completions = Vec::new();
    // Flush the submission; no data is coming, so nothing completes yet.
    ring.reap(&mut completions, Some(Duration::from_millis(20)))
        .unwrap();
    ring.cancel_recv(s);
    reap_until(ring.as_mut(), &mut completions, 1);

    match &completions[0] {
        Completion::Recv { socket, result, .. } => {
            assert_eq!(*socket, s.0);
            assert!(
                matches!(result, Err(NetError::Io(_))),
                "expected ECANCELED, got {result:?}"
            );
        }
        other => panic!("unexpected completion {other:?}"),
    }
    completions.clear(); // drops the node, recycling it
    assert!(
        arena.try_pop().is_some(),
        "cancelled receive must return its node to the pool"
    );
}

/// Full echo loop over the uring completion backend: OPENER, ACCEPTER,
/// READER and WRITER as real deployment actors (their `ctor` declares
/// the ring descriptors, so their workers park on them), an echo actor
/// flipping `Data` into `Write` frames, and a kernel-socket client
/// thread.
#[test]
fn echo_service_over_uring_completion_backend() {
    use enet::data_frame_into_write;

    let Some((p, uring)) = probe_backend("echo_service_over_uring_completion_backend") else {
        return;
    };
    let net: Arc<dyn NetBackend> = Arc::new(uring.clone());
    let pool = Arena::new("pool", 256, 512);
    let sys = SystemActors::new(net, pool.clone());

    let replies: NetPort = Port::new(Mbox::new(pool, 64));
    let r = sys.dir.register(replies.mbox().clone());
    sys.opener_requests.send(&NetMsg::OpenListen {
        port: 5222,
        reply: r,
    });

    let accepter_rq = sys.accepter_requests.clone();
    let reader_rq = sys.reader_requests.clone();
    let writer_rq = sys.writer_requests.clone();

    const ROUNDS: usize = 50;
    let uring2 = uring.clone();
    let client: std::sync::Mutex<Option<std::thread::JoinHandle<()>>> = std::sync::Mutex::new(None);
    let mut echoes = 0usize;
    let driver = move |ctx: &mut Ctx| {
        let mut worked = false;
        while let Some(mut node) = replies.recv_node() {
            worked = true;
            let len = node.bytes().len();
            if data_frame_into_write(&mut node.buffer_mut()[..len]) {
                echoes += 1;
                let _ = writer_rq.send_node(node);
                continue;
            }
            match NetMsg::decode_from(node.bytes()) {
                Some(NetMsg::OpenOk { id, listener: true }) => {
                    accepter_rq.send(&NetMsg::WatchListener {
                        listener: id,
                        reply: r,
                    });
                    // Real client on a plain kernel socket, closed-loop:
                    // each request waits for its echo before the next.
                    let net = uring2.clone();
                    *client.lock().unwrap() = Some(std::thread::spawn(move || {
                        let c = net.connect(5222).unwrap();
                        let mut buf = [0u8; 64];
                        for i in 0..ROUNDS {
                            let msg = format!("echo-{i}");
                            while net.send(c, msg.as_bytes()).unwrap() == 0 {
                                std::thread::yield_now();
                            }
                            let mut got = 0;
                            while got < msg.len() {
                                match net.recv(c, &mut buf[got..]).unwrap() {
                                    RecvOutcome::Data(n) => got += n,
                                    RecvOutcome::WouldBlock => std::thread::yield_now(),
                                    RecvOutcome::Eof => panic!("premature eof"),
                                }
                            }
                            assert_eq!(&buf[..got], msg.as_bytes());
                        }
                    }));
                }
                Some(NetMsg::Accepted { socket, .. }) => {
                    reader_rq.send(&NetMsg::WatchSocket { socket, reply: r });
                }
                _ => {}
            }
        }
        if echoes >= ROUNDS {
            if let Some(t) = client.lock().unwrap().take() {
                t.join().unwrap();
            }
            ctx.shutdown();
            return Control::Park;
        }
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    };

    let mut b = DeploymentBuilder::new();
    let a1 = b.actor("opener", Placement::Untrusted, sys.opener);
    let a2 = b.actor("accepter", Placement::Untrusted, sys.accepter);
    let a3 = b.actor("reader", Placement::Untrusted, sys.reader);
    let a4 = b.actor("writer", Placement::Untrusted, sys.writer);
    let a5 = b.actor("driver", Placement::Untrusted, eactors::from_fn(driver));
    b.worker(&[a1, a2, a5]);
    b.worker(&[a3]);
    b.worker(&[a4]);
    Runtime::start(&p, b.build().expect("valid"))
        .expect("start")
        .join();
}
