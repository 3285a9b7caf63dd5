//! Integration tests of the networking system actors beyond the happy
//! path: batch subscriptions, multiple listeners, closer semantics and
//! real-socket interchangeability.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::actor::Actor;
use eactors::arena::{Arena, Mbox};
use eactors::prelude::*;
use enet::{
    BatchEntries, MboxDirectory, NetBackend, NetMsg, NetPort, RecvOutcome, SimNet, SystemActors,
    TcpLoopback,
};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// Every backend this host offers, by name, charging `p`.
fn backends(p: &Platform) -> Vec<(&'static str, Arc<dyn NetBackend>)> {
    let mut v: Vec<(&'static str, Arc<dyn NetBackend>)> = vec![
        ("sim", Arc::new(SimNet::new(p.costs()))),
        ("tcp", Arc::new(TcpLoopback::new(p.costs()))),
    ];
    #[cfg(target_os = "linux")]
    {
        v.push(("epoll", Arc::new(enet::EpollBackend::new(p.costs()))));
        match enet::UringBackend::probe() {
            Ok(()) => v.push(("uring", Arc::new(enet::UringBackend::new(p.costs())))),
            Err(why) => eprintln!("skipping the uring runs ({why})"),
        }
    }
    v
}

/// A connected pair on `net`: (client end, server end).
fn socket_pair(net: &dyn NetBackend, port: u16) -> (enet::SocketId, enet::SocketId) {
    let l = net.listen(port).unwrap();
    let c = net.connect(port).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(s) = net.accept(l).unwrap() {
            return (c, s);
        }
        assert!(Instant::now() < deadline, "accept timed out");
        std::thread::yield_now();
    }
}

/// Drive a single actor until `done` reports completion.
fn drive_actor(
    platform: &Platform,
    mut actor: impl Actor + 'static,
    done: impl FnMut(&mut Ctx) -> Control + Send + 'static,
) {
    let mut b = DeploymentBuilder::new();
    let a = b.actor(
        "subject",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| actor.body(ctx)),
    );
    let d = b.actor("checker", Placement::Untrusted, eactors::from_fn(done));
    b.worker(&[a, d]);
    Runtime::start(platform, b.build().expect("valid"))
        .expect("start")
        .join();
}

#[test]
fn reader_batch_subscription_serves_all_sockets() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 128, 256);
    let sys = SystemActors::new(net, pool.clone());

    // Three connected socket pairs.
    let l = sim.listen(9).unwrap();
    let mut pairs = Vec::new();
    for _ in 0..3 {
        let c = sim.connect(9).unwrap();
        let s = sim.accept(l).unwrap().unwrap();
        pairs.push((c, s));
    }

    // One reply port per server socket (the per-user mbox pattern).
    let replies: Vec<NetPort> = (0..3)
        .map(|_| Port::new(Mbox::new(pool.clone(), 16)))
        .collect();
    let entries: Vec<(u64, enet::MboxRef)> = pairs
        .iter()
        .zip(&replies)
        .map(|((_, s), port)| (s.0, sys.dir.register(port.mbox().clone())))
        .collect();
    assert!(sys.reader_requests.send(&NetMsg::WatchBatch {
        entries: BatchEntries::Slice(&entries),
    }));

    // Send distinct payloads from each client.
    for (i, (c, _)) in pairs.iter().enumerate() {
        sim.send(*c, format!("payload-{i}").as_bytes()).unwrap();
    }

    let replies2 = replies.clone();
    let mut got = [false; 3];
    drive_actor(&p, sys.reader, move |ctx| {
        for (i, port) in replies2.iter().enumerate() {
            let matched = port.recv(|m| match m {
                NetMsg::Data { payload, .. } => {
                    assert_eq!(payload, format!("payload-{i}").into_bytes());
                    true
                }
                _ => false,
            });
            if matched == Some(true) {
                got[i] = true;
            }
        }
        if got.iter().all(|&g| g) {
            ctx.shutdown();
            Control::Park
        } else {
            Control::Idle
        }
    });
}

#[test]
fn accepter_watches_multiple_listeners() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 64, 128);
    let sys = SystemActors::new(net, pool.clone());

    let l1 = sim.listen(100).unwrap();
    let l2 = sim.listen(200).unwrap();
    let replies: NetPort = Port::new(Mbox::new(pool, 16));
    let r = sys.dir.register(replies.mbox().clone());
    sys.accepter_requests.send(&NetMsg::WatchListener {
        listener: l1.0,
        reply: r,
    });
    sys.accepter_requests.send(&NetMsg::WatchListener {
        listener: l2.0,
        reply: r,
    });

    sim.connect(100).unwrap();
    sim.connect(200).unwrap();
    sim.connect(100).unwrap();

    let mut seen = Vec::new();
    drive_actor(&p, sys.accepter, move |ctx| {
        while let Some(Some(listener)) = replies.recv(|m| match m {
            NetMsg::Accepted { listener, .. } => Some(listener),
            _ => None,
        }) {
            seen.push(listener);
        }
        if seen.iter().filter(|&&l| l == l1.0).count() == 2
            && seen.iter().filter(|&&l| l == l2.0).count() == 1
        {
            ctx.shutdown();
            Control::Park
        } else {
            Control::Idle
        }
    });
}

#[test]
fn closer_closes_and_peer_sees_eof() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 16, 64);
    let sys = SystemActors::new(net, pool);

    let l = sim.listen(9).unwrap();
    let c = sim.connect(9).unwrap();
    let s = sim.accept(l).unwrap().unwrap();
    sys.closer_requests.send(&NetMsg::Close { socket: s.0 });

    let sim2 = sim.clone();
    drive_actor(&p, sys.closer, move |ctx| {
        let mut buf = [0u8; 8];
        match sim2.recv(c, &mut buf) {
            Ok(RecvOutcome::Eof) => {
                ctx.shutdown();
                Control::Park
            }
            _ => Control::Idle,
        }
    });
}

/// Regression: `Close` of a socket the READER still watches. The ring
/// may pin the descriptor (an epoll registration, an io_uring receive),
/// so dropping the table's handle alone left the connection open — the
/// peer saw no EOF until somebody sent `Unwatch`. Closing shuts the
/// connection down: the peer reads EOF and the subscriber is told, both
/// within a bounded wait, on every backend.
#[test]
fn close_of_a_watched_socket_reaches_the_peer_and_the_subscriber() {
    const BOUND: Duration = Duration::from_secs(5);
    let p = platform();
    for (name, net) in backends(&p) {
        let pool = Arena::new("pool", 64, 256);
        let sys = SystemActors::new(net.clone(), pool.clone());
        let (client, server) = socket_pair(net.as_ref(), 9);
        let replies: NetPort = Port::new(Mbox::new(pool, 16));
        let r = sys.dir.register(replies.mbox().clone());
        sys.reader_requests.send(&NetMsg::WatchSocket {
            socket: server.0,
            reply: r,
        });
        // A frame through the watch proves the READER holds the socket
        // (it re-arms in the pass that delivers).
        assert!(net.send(client, b"armed?").unwrap() > 0, "[{name}]");

        let closer_rq = sys.closer_requests.clone();
        let mut closed_at = None;
        let (mut peer_eof, mut told) = (false, false);
        let driver = move |ctx: &mut Ctx| {
            let Some(since) = closed_at else {
                if replies.recv(|m| matches!(m, NetMsg::Data { .. })) == Some(true) {
                    closer_rq.send(&NetMsg::Close { socket: server.0 });
                    closed_at = Some(Instant::now());
                }
                return Control::Idle;
            };
            told |= replies
                .recv(|m| matches!(m, NetMsg::SocketClosed { socket } if socket == server.0))
                == Some(true);
            peer_eof |= matches!(net.recv(client, &mut [0u8; 8]), Ok(RecvOutcome::Eof));
            if peer_eof && told {
                ctx.shutdown();
                return Control::Park;
            }
            assert!(
                since.elapsed() < BOUND,
                "[{name}] peer saw EOF: {peer_eof}, subscriber told: {told}"
            );
            Control::Idle
        };

        let mut b = DeploymentBuilder::new();
        let a_read = b.actor("reader", Placement::Untrusted, sys.reader);
        let a_close = b.actor("closer", Placement::Untrusted, sys.closer);
        let a_drive = b.actor("driver", Placement::Untrusted, eactors::from_fn(driver));
        b.worker(&[a_read]);
        b.worker(&[a_close, a_drive]);
        Runtime::start(&p, b.build().expect("valid"))
            .expect("start")
            .join();
    }
}

/// Regression: a second `WatchListener` for a watched listener used to
/// add a duplicate watch; connections kept going to the first reply
/// mbox, and when that was unregistered the sweep cancelled the accept —
/// the listener went deaf under a live subscription. A re-watch replaces
/// the reply, as it does for sockets.
#[test]
fn accepter_rewatch_moves_the_subscription() {
    let p = platform();
    for (name, net) in backends(&p) {
        let pool = Arena::new("pool", 64, 128);
        let sys = SystemActors::new(net.clone(), pool.clone());
        let l = net.listen(300).unwrap();
        let old: NetPort = Port::new(Mbox::new(pool.clone(), 16));
        let new: NetPort = Port::new(Mbox::new(pool, 16));
        let old_ref = sys.dir.register(old.mbox().clone());
        let new_ref = sys.dir.register(new.mbox().clone());
        for reply in [old_ref, new_ref] {
            sys.accepter_requests.send(&NetMsg::WatchListener {
                listener: l.0,
                reply,
            });
        }

        let dir = sys.dir.clone();
        let requests = sys.accepter_requests.clone();
        let mut connected = false;
        drive_actor(&p, sys.accepter, move |ctx| {
            if !connected {
                // Both requests are consumed before the old subscriber
                // leaves; only then does a client show up.
                if !requests.mbox().is_empty() {
                    return Control::Idle;
                }
                dir.unregister(old_ref);
                net.connect(300).unwrap();
                connected = true;
                return Control::Busy;
            }
            assert!(old.recv_node().is_none(), "[{name}] old mbox served");
            match new.recv(|m| matches!(m, NetMsg::Accepted { listener, .. } if listener == l.0)) {
                Some(true) => {
                    ctx.shutdown();
                    Control::Park
                }
                Some(false) => panic!("[{name}] unexpected message"),
                None => Control::Idle,
            }
        });
    }
}

/// The two-phase unwatch on every backend: whatever the socket produces
/// around an `Unwatch` reaches the subscriber *before* the `Unwatched`
/// ack or not at all — never after it.
#[test]
fn unwatched_ack_follows_in_flight_data_on_every_backend() {
    let p = platform();
    for (name, net) in backends(&p) {
        let pool = Arena::new("pool", 64, 256);
        let sys = SystemActors::new(net.clone(), pool.clone());
        let (client, server) = socket_pair(net.as_ref(), 9);
        let replies: NetPort = Port::new(Mbox::new(pool, 16));
        let r = sys.dir.register(replies.mbox().clone());
        sys.reader_requests.send(&NetMsg::WatchSocket {
            socket: server.0,
            reply: r,
        });
        assert!(net.send(client, b"first").unwrap() > 0, "[{name}]");

        let reader_rq = sys.reader_requests.clone();
        let (mut unwatch_sent, mut acked, mut quiet_passes) = (false, false, 0);
        drive_actor(&p, sys.reader, move |ctx| {
            enum Seen {
                Data,
                Ack,
                Other,
            }
            let seen = replies.recv(|m| match m {
                NetMsg::Data { .. } => Seen::Data,
                NetMsg::Unwatched { socket } if socket == server.0 => Seen::Ack,
                _ => Seen::Other,
            });
            match seen {
                Some(Seen::Data) if !unwatch_sent => {
                    // A receive is in flight again; race it.
                    reader_rq.send(&NetMsg::Unwatch { socket: server.0 });
                    assert!(net.send(client, b"late").unwrap() > 0, "[{name}]");
                    unwatch_sent = true;
                }
                Some(Seen::Data) => assert!(!acked, "[{name}] Data after Unwatched"),
                Some(Seen::Ack) => acked = true,
                Some(Seen::Other) => panic!("[{name}] unexpected message"),
                None if acked => {
                    quiet_passes += 1;
                    if quiet_passes > 50 {
                        ctx.shutdown();
                        return Control::Park;
                    }
                }
                None => {}
            }
            Control::Idle
        });
    }
}

#[test]
fn system_actors_work_over_real_tcp_sockets() {
    // The same actor set over the std::net loopback backend: backends
    // are interchangeable.
    let p = platform();
    let tcp = TcpLoopback::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(tcp.clone());
    let pool = Arena::new("pool", 64, 512);
    let sys = SystemActors::new(net, pool.clone());

    let replies: NetPort = Port::new(Mbox::new(pool, 32));
    let r = sys.dir.register(replies.mbox().clone());
    sys.opener_requests.send(&NetMsg::OpenListen {
        port: 777,
        reply: r,
    });

    // Run opener + accepter + reader together.
    let mut opener = sys.opener;
    let mut accepter = sys.accepter;
    let mut reader = sys.reader;
    let accepter_rq = sys.accepter_requests.clone();
    let reader_rq = sys.reader_requests.clone();

    enum Event {
        Listening(u64),
        Accepted(u64),
        Echoed,
        Other,
    }

    let tcp2 = tcp.clone();
    let mut client = None;
    let done = move |ctx: &mut Ctx| {
        let event = replies.recv(|m| match m {
            NetMsg::OpenOk { id, listener: true } => Event::Listening(id),
            NetMsg::Accepted { socket, .. } => Event::Accepted(socket),
            NetMsg::Data { payload, .. } => {
                assert_eq!(payload, b"over real tcp");
                Event::Echoed
            }
            _ => Event::Other,
        });
        match event {
            Some(Event::Listening(id)) => {
                accepter_rq.send(&NetMsg::WatchListener {
                    listener: id,
                    reply: r,
                });
                client = Some(tcp2.connect(777).unwrap());
                Control::Busy
            }
            Some(Event::Accepted(socket)) => {
                reader_rq.send(&NetMsg::WatchSocket { socket, reply: r });
                tcp2.send(client.unwrap(), b"over real tcp").unwrap();
                Control::Busy
            }
            Some(Event::Echoed) => {
                ctx.shutdown();
                Control::Park
            }
            _ => Control::Idle,
        }
    };

    let mut b = DeploymentBuilder::new();
    let a1 = b.actor(
        "opener",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| opener.body(ctx)),
    );
    let a2 = b.actor(
        "accepter",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| accepter.body(ctx)),
    );
    let a3 = b.actor(
        "reader",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| reader.body(ctx)),
    );
    let a4 = b.actor("driver", Placement::Untrusted, eactors::from_fn(done));
    b.worker(&[a1, a2, a3, a4]);
    Runtime::start(&p, b.build().expect("valid"))
        .expect("start")
        .join();
}

/// Full echo loop over every backend: OPENER, ACCEPTER, READER and
/// WRITER as real deployment actors (their `ctor` declares the ring
/// descriptors where there are any, so their workers park on them), an
/// echo actor flipping `Data` into `Write` frames, and a client thread on
/// the backend's plain socket operations.
#[test]
fn echo_service_over_every_backend() {
    let p = platform();
    for (name, net) in backends(&p) {
        echo_service(&p, name, net);
    }
}

fn echo_service(p: &Platform, name: &'static str, net: Arc<dyn NetBackend>) {
    use enet::data_frame_into_write;

    let pool = Arena::new("pool", 256, 512);
    let sys = SystemActors::new(net.clone(), pool.clone());

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
                    let net = net.clone();
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
                                    enet::RecvOutcome::Data(n) => got += n,
                                    enet::RecvOutcome::WouldBlock => std::thread::yield_now(),
                                    enet::RecvOutcome::Eof => panic!("premature eof"),
                                }
                            }
                            assert_eq!(&buf[..got], msg.as_bytes(), "[{name}]");
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
    Runtime::start(p, b.build().expect("valid"))
        .expect("start")
        .join();
}

/// Which two system actors share the worker under test; the remaining
/// ones ride the echo actor's worker.
#[cfg(target_os = "linux")]
#[derive(Clone, Copy)]
enum Siblings {
    ReaderWriter,
    AccepterReader,
}

/// Where the sibling tests' echo service listens.
#[cfg(target_os = "linux")]
const ECHO_PORT: u16 = 5223;

/// What the client thread of a sibling test does with the backend;
/// returns how long its timed part took.
#[cfg(target_os = "linux")]
type Client = fn(&dyn NetBackend) -> std::time::Duration;

/// An echo service whose workers may sleep for up to two seconds
/// (`net_park_cap`), driven by `client` from a thread outside the
/// runtime — so only kernel events can end a park of the worker under
/// test. Payloads starting with `!` are swallowed, not echoed. Returns
/// what `client` returns.
#[cfg(target_os = "linux")]
fn echo_service_with_long_park_cap(
    backend: Arc<dyn NetBackend>,
    siblings: Siblings,
    client: Client,
) -> std::time::Duration {
    use enet::data_frame_into_write;
    use std::sync::atomic::{AtomicBool, Ordering};

    let p = platform();
    let pool = Arena::new("pool", 256, 512);
    let sys = SystemActors::new(backend.clone(), pool.clone());
    let replies: NetPort = Port::new(Mbox::new(pool, 64));
    let r = sys.dir.register(replies.mbox().clone());
    sys.opener_requests.send(&NetMsg::OpenListen {
        port: ECHO_PORT,
        reply: r,
    });
    let (accepter_rq, reader_rq, writer_rq) = (
        sys.accepter_requests.clone(),
        sys.reader_requests.clone(),
        sys.writer_requests.clone(),
    );

    let finished = Arc::new(AtomicBool::new(false));
    let client = {
        let finished = finished.clone();
        std::thread::spawn(move || {
            let took = client(backend.as_ref());
            finished.store(true, Ordering::SeqCst);
            took
        })
    };
    let echo = move |ctx: &mut Ctx| {
        let mut worked = false;
        while let Some(mut node) = replies.recv_node() {
            worked = true;
            match NetMsg::decode_from(node.bytes()) {
                Some(NetMsg::OpenOk { id, listener: true }) => {
                    accepter_rq.send(&NetMsg::WatchListener {
                        listener: id,
                        reply: r,
                    });
                }
                Some(NetMsg::Accepted { socket, .. }) => {
                    reader_rq.send(&NetMsg::WatchSocket { socket, reply: r });
                }
                Some(NetMsg::Data { payload, .. }) if payload.first() != Some(&b'!') => {
                    let len = node.bytes().len();
                    assert!(data_frame_into_write(&mut node.buffer_mut()[..len]));
                    let _ = writer_rq.send_node(node);
                }
                _ => {}
            }
        }
        if finished.load(Ordering::SeqCst) {
            ctx.shutdown();
            Control::Park
        } else if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    };

    let mut b = DeploymentBuilder::new();
    b.idle_policy(IdlePolicy::default().with_net_park_cap(std::time::Duration::from_secs(2)));
    let a_open = b.actor("opener", Placement::Untrusted, sys.opener);
    let a_acc = b.actor("accepter", Placement::Untrusted, sys.accepter);
    let a_read = b.actor("reader", Placement::Untrusted, sys.reader);
    let a_write = b.actor("writer", Placement::Untrusted, sys.writer);
    let a_echo = b.actor("echo", Placement::Untrusted, eactors::from_fn(echo));
    match siblings {
        Siblings::ReaderWriter => {
            b.worker(&[a_read, a_write]);
            b.worker(&[a_open, a_acc, a_echo]);
        }
        Siblings::AccepterReader => {
            b.worker(&[a_acc, a_read]);
            b.worker(&[a_open, a_write, a_echo]);
        }
    }
    Runtime::start(&p, b.build().expect("valid"))
        .expect("start")
        .join();
    client.join().expect("client")
}

/// One echo of `msg` on `socket`, spinning on the non-blocking backend.
#[cfg(target_os = "linux")]
fn echo_once(net: &dyn NetBackend, socket: enet::SocketId, msg: &[u8]) {
    while net.send(socket, msg).unwrap() == 0 {
        std::thread::yield_now();
    }
    let mut buf = [0u8; 64];
    let mut got = 0;
    while got < msg.len() {
        match net.recv(socket, &mut buf[got..]).unwrap() {
            RecvOutcome::Data(n) => got += n,
            RecvOutcome::WouldBlock => std::thread::yield_now(),
            RecvOutcome::Eof => panic!("premature eof"),
        }
    }
    assert_eq!(&buf[..got], msg);
}

#[cfg(target_os = "linux")]
fn connect_when_listening(net: &dyn NetBackend) -> enet::SocketId {
    loop {
        match net.connect(ECHO_PORT) {
            Ok(socket) => return socket,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
}

/// Run `client` against the service over each real multiplexing backend
/// this kernel offers; every run must stay inside the budget.
#[cfg(target_os = "linux")]
fn sibling_test(name: &str, siblings: Siblings, client: Client) {
    use enet::{EpollBackend, UringBackend};
    const GAP_BUDGET: std::time::Duration = std::time::Duration::from_millis(1500);

    let epoll = Arc::new(EpollBackend::new(platform().costs()));
    let took = echo_service_with_long_park_cap(epoll, siblings, client);
    assert!(took < GAP_BUDGET, "{name} over epoll took {took:?}");
    if let Err(why) = UringBackend::probe() {
        eprintln!("{name}: skipping the uring half ({why})");
        return;
    }
    let uring = Arc::new(UringBackend::new(platform().costs()));
    let took = echo_service_with_long_park_cap(uring, siblings, client);
    assert!(took < GAP_BUDGET, "{name} over uring took {took:?}");
}

/// READER and WRITER on one worker, a two-second park cap, and a client
/// that leaves the service idle for 20 ms before each echo: the worker
/// parks in every gap, and each echo needs it woken twice — by the
/// socket (READER's multiplexer) and by the `Write` request (WRITER's
/// mbox). A one-way nudge ahead of each echo gives the READER work the
/// WRITER has no part in, so the two fall idle at different times. With
/// the worker waiting on everything at once the gaps add up to 1.1 s; a
/// WRITER asleep in its own multiplexer, blind to the READER's, holds
/// the echo for the whole cap.
#[cfg(target_os = "linux")]
#[test]
fn reader_and_writer_sharing_a_worker_do_not_blind_each_other() {
    sibling_test("reader+writer", Siblings::ReaderWriter, |net| {
        let socket = connect_when_listening(net);
        echo_once(net, socket, b"warm-up");
        let start = std::time::Instant::now();
        for i in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            while net.send(socket, b"!nudge").unwrap() == 0 {}
            std::thread::sleep(std::time::Duration::from_millis(2));
            echo_once(net, socket, format!("echo-{i}").as_bytes());
        }
        start.elapsed()
    });
}

/// ACCEPTER and READER on one worker: a connection arriving while the
/// worker is parked must wake it although it lands in the ACCEPTER's
/// multiplexer and no message is sent.
#[cfg(target_os = "linux")]
#[test]
fn accepter_and_reader_sharing_a_worker_do_not_blind_each_other() {
    sibling_test("accepter+reader", Siblings::AccepterReader, |net| {
        let first = connect_when_listening(net);
        echo_once(net, first, b"warm-up");
        let start = std::time::Instant::now();
        for i in 0..20 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let socket = net.connect(ECHO_PORT).expect("listening");
            echo_once(net, socket, format!("conn-{i}").as_bytes());
        }
        start.elapsed()
    });
}

#[test]
fn directory_shared_across_actor_sets() {
    // Two independent actor sets can share one MboxDirectory through the
    // same arena without handle collisions.
    let pool = Arena::new("pool", 16, 64);
    let dir = MboxDirectory::new();
    let handles: Vec<_> = (0..8)
        .map(|_| dir.register(Mbox::new(pool.clone(), 4)))
        .collect();
    let unique: std::collections::HashSet<_> = handles.iter().map(|h| h.0).collect();
    assert_eq!(unique.len(), 8);
    for h in &handles {
        assert!(dir.get(*h).is_some());
    }
}
