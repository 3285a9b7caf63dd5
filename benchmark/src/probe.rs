//! The probe pass: every P metric is a timed call into one layer's
//! public functions with workload-shaped inputs — warm-up, then the
//! median of nine timed batches. Run by `--trace` before the workload,
//! so the per-hop costs and the end-to-end figure they should add up to
//! come from the same process on the same host.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::arena::{Arena, Mbox, MboxKind};
use eactors::channel::ChannelPair;
use eactors::prelude::*;
use eactors::wake::WakeHub;
use eactors::wire::Wire;
use enet::{data_frame_into_write, NetBackend, NetMsg, NetPort, RecvOutcome, SimNet, SystemActors};
use pos::{PosConfig, PosEncryption, PosStore};
use sgx_sim::crypto::{SessionCipher, SessionKey};
use sgx_sim::{CostHandle, Platform};
use xmpp::stanza::Stanza;
use xmpp::wire::ConnCrypto;
use xmpp::{Member, ShardedDirectory};

use crate::gen::{kv_key, Rng, CHAT_BODY_BYTES, KV_KEYS, SMALL_BYTES};
use crate::stats::median;

/// Timed batches per probe; the reported value is their median.
pub const BATCHES: usize = 9;

/// Nominal cost of 1 000 charged cycles: 1 000 / 3.4 GHz.
pub const NOMINAL_NS_PER_KCYCLE: f64 = 1_000.0 / 3.4;

/// Warm up with one batch, then the median over [`BATCHES`] batches of
/// nanoseconds per call.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    let per: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&per)
}

/// What 1 000 charged cycles cost on this host right now, in ns. The
/// cost model calibrates its pause loop once per process; if that one
/// shot was disturbed, *every* charged number of the process is off.
pub fn charge_ns_per_kcycle(costs: &CostHandle) -> f64 {
    time_ns(2_000, || costs.charge(1_000))
}

fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(
            Instant::now() < deadline,
            "probe stalled waiting for {what}"
        );
        std::thread::yield_now();
    }
}

fn sgx_sim_probes(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    let costs = platform.costs();
    out.push(("sgx_sim.charge_ns_per_kcycle", charge_ns_per_kcycle(&costs)));
    let enclave = platform.create_enclave("probe", 1 << 20).expect("epc");
    out.push((
        "sgx_sim.ecall_roundtrip_ns",
        time_ns(200, || enclave.ecall(|| black_box(()))),
    ));
    let cipher = SessionCipher::new(SessionKey::derive(&[1, 2, 3]), costs);
    let plain = [0x5Au8; CHAT_BODY_BYTES];
    let mut sealed = [0u8; CHAT_BODY_BYTES + 64];
    let mut opened = [0u8; CHAT_BODY_BYTES];
    out.push((
        "sgx_sim.seal_open_150b_ns",
        time_ns(500, || {
            let n = cipher.seal(&plain, &mut sealed).expect("sized");
            cipher.open(&sealed[..n], &mut opened).expect("authentic");
        }),
    ));
}

fn core_probes(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    let pool = Arena::new("probe-pool", 64, 128);
    out.push((
        "core.arena_pop_free_ns",
        time_ns(20_000, || {
            drop(black_box(pool.try_pop().expect("free node")))
        }),
    ));
    for (name, kind) in [
        ("core.mbox_spsc_send_recv_ns", MboxKind::Spsc),
        ("core.mbox_mpsc_send_recv_ns", MboxKind::Mpsc),
    ] {
        let mbox = Mbox::with_kind(pool.clone(), 16, kind);
        let mut node = pool.try_pop();
        out.push((
            name,
            time_ns(20_000, || {
                mbox.send(node.take().expect("circulating node"))
                    .expect("room");
                node = mbox.recv();
            }),
        ));
    }
    let payload = [0xABu8; SMALL_BYTES];
    let key = SessionKey::derive(&[0x42]);
    for (name, pair) in [
        (
            "core.channel_plain_64b_ns",
            ChannelPair::plaintext(0, Arena::new("probe-plain", 16, 128)),
        ),
        (
            "core.channel_enc_64b_ns",
            ChannelPair::encrypted(1, Arena::new("probe-enc", 16, 128), &key, platform.costs()),
        ),
    ] {
        let (mut a, mut b) = pair.into_ends();
        out.push((
            name,
            time_ns(5_000, || {
                a.send(&payload).expect("send");
                b.recv_with(|m| black_box(m.len()))
                    .expect("recv")
                    .expect("queued");
            }),
        ));
    }

    // Cross-thread round trip over two SPSC mboxes, both sides spinning.
    let there = Mbox::with_kind(pool.clone(), 16, MboxKind::Spsc);
    let back = Mbox::with_kind(pool.clone(), 16, MboxKind::Spsc);
    let stop = Arc::new(AtomicBool::new(false));
    let peer = {
        let (there, back, stop) = (there.clone(), back.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match there.recv() {
                    Some(node) => back.send(node).expect("room"),
                    None => std::hint::spin_loop(),
                }
            }
        })
    };
    let mut node = pool.try_pop();
    out.push((
        "core.mbox_xthread_rtt_ns",
        time_ns(5_000, || {
            there
                .send(node.take().expect("circulating node"))
                .expect("room");
            node = loop {
                match back.recv() {
                    Some(n) => break Some(n),
                    None => std::hint::spin_loop(),
                }
            };
        }),
    ));
    stop.store(true, Ordering::Relaxed);
    peer.join().expect("mbox peer");

    out.push(("core.wake_park_notify_us", wake_park_notify_us()));
}

/// `WakeHub` park → notify → resume across two threads: from the
/// notifier's call to the sleeper running again.
fn wake_park_notify_us() -> f64 {
    let hub = WakeHub::new();
    let origin = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let woke_ns = Arc::new(AtomicU64::new(0));
    let sleeper = {
        let (hub, stop, woke_ns) = (hub.clone(), stop.clone(), woke_ns.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let seen = hub.prepare_park();
                if stop.load(Ordering::SeqCst) {
                    hub.cancel_park();
                    break;
                }
                hub.park(seen, None);
                woke_ns.store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
            }
        })
    };
    let mut lat_us = Vec::new();
    for _ in 0..3 * BATCHES + 3 {
        spin_until("the sleeper to park", || hub.sleepers() == 1);
        // Registered is not yet asleep: give it time to block.
        std::thread::sleep(Duration::from_micros(300));
        let before = woke_ns.load(Ordering::SeqCst);
        let t0 = origin.elapsed().as_nanos() as u64;
        hub.notify();
        spin_until("the sleeper to resume", || {
            woke_ns.load(Ordering::SeqCst) != before
        });
        lat_us.push(woke_ns.load(Ordering::SeqCst).saturating_sub(t0) as f64 / 1e3);
    }
    stop.store(true, Ordering::SeqCst);
    spin_until("the sleeper to exit", || {
        hub.notify_force();
        sleeper.is_finished()
    });
    sleeper.join().expect("sleeper");
    median(&lat_us[3..])
}

fn send_all(net: &dyn NetBackend, socket: enet::SocketId, msg: &[u8]) {
    let mut sent = 0;
    while sent < msg.len() {
        sent += net.send(socket, &msg[sent..]).expect("send");
    }
}

/// Spin until `n` bytes arrived on `socket`.
fn recv_exact(net: &dyn NetBackend, socket: enet::SocketId, buf: &mut [u8], n: usize) {
    let mut got = 0;
    while got < n {
        match net.recv(socket, &mut buf[got..n]).expect("recv") {
            RecvOutcome::Data(k) => got += k,
            RecvOutcome::WouldBlock => std::hint::spin_loop(),
            RecvOutcome::Eof => panic!("echo peer closed"),
        }
    }
}

/// The kernel floor: a 150 B echo over the raw backend, the driver on
/// both ends.
fn backend_probe(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    let msg = [0x6Du8; CHAT_BODY_BYTES];
    let mut buf = [0u8; CHAT_BODY_BYTES];
    let (net, _, _) = enet::auto_backend(platform.costs());
    let listener = net.listen(7001).expect("listen");
    let client = net.connect(7001).expect("connect");
    let mut server = None;
    spin_until("accept", || {
        server = net.accept(listener).expect("accept");
        server.is_some()
    });
    let server = server.expect("accepted");
    out.push((
        "enet.backend_rtt_us",
        time_ns(300, || {
            send_all(net.as_ref(), client, &msg);
            recv_exact(net.as_ref(), server, &mut buf, msg.len());
            send_all(net.as_ref(), server, &buf);
            recv_exact(net.as_ref(), client, &mut buf, msg.len());
        }) / 1e3,
    ));
    let _ = (
        net.close(client),
        net.close(server),
        net.close_listener(listener),
    );
}

/// An enclaved echo eactor behind OPENER/ACCEPTER/READER/WRITER, no
/// `xmpp`: what `enet` + `core` add on top of the backend. Also times
/// `Runtime::metrics()`, the live read path, on this running deployment.
fn actor_echo_probes(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    const PORT: u16 = 7002;
    let (net, _, _) = enet::auto_backend(platform.costs());
    let pool = Arena::new("probe-net", 256, 512);
    let sys = SystemActors::new(net.clone(), pool.clone());
    let replies: NetPort = Port::new(Mbox::new(pool, 64));
    let reply = sys.dir.register(replies.mbox().clone());
    sys.opener_requests
        .send(&NetMsg::OpenListen { port: PORT, reply });
    let (accepter_rq, reader_rq, writer_rq) = (
        sys.accepter_requests.clone(),
        sys.reader_requests.clone(),
        sys.writer_requests.clone(),
    );
    let echo = eactors::from_fn(move |_ctx| {
        let mut worked = false;
        while let Some(mut node) = replies.recv_node() {
            worked = true;
            let len = node.bytes().len();
            if data_frame_into_write(&mut node.buffer_mut()[..len]) {
                let _ = writer_rq.send_node(node);
                continue;
            }
            match NetMsg::decode_from(node.bytes()) {
                Some(NetMsg::OpenOk { id, listener: true }) => {
                    accepter_rq.send(&NetMsg::WatchListener {
                        listener: id,
                        reply,
                    });
                }
                Some(NetMsg::Accepted { socket, .. }) => {
                    reader_rq.send(&NetMsg::WatchSocket { socket, reply });
                }
                _ => {}
            }
        }
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    });
    let mut b = DeploymentBuilder::new();
    let enclave = b.enclave("probe-echo");
    let a_open = b.actor("opener", Placement::Untrusted, sys.opener);
    let a_acc = b.actor("accepter", Placement::Untrusted, sys.accepter);
    let a_read = b.actor("reader", Placement::Untrusted, sys.reader);
    let a_write = b.actor("writer", Placement::Untrusted, sys.writer);
    let a_echo = b.actor("echo", Placement::Enclave(enclave), echo);
    b.worker(&[a_open, a_acc]);
    b.worker(&[a_echo]);
    b.worker(&[a_read, a_write]);
    let runtime = Runtime::start(platform, b.build().expect("valid")).expect("start");

    let mut client = None;
    spin_until("the echo listener", || {
        client = net.connect(PORT).ok();
        client.is_some()
    });
    let client = client.expect("connected");
    let msg = [0x6Du8; CHAT_BODY_BYTES];
    let mut buf = [0u8; CHAT_BODY_BYTES];
    out.push((
        "enet.actor_echo_rtt_us",
        time_ns(200, || {
            send_all(net.as_ref(), client, &msg);
            recv_exact(net.as_ref(), client, &mut buf, msg.len());
        }) / 1e3,
    ));
    out.push((
        "obs.snapshot_ms",
        time_ns(20, || drop(black_box(runtime.metrics()))) / 1e6,
    ));
    let _ = net.close(client);
    runtime.shutdown();
    runtime.join();

    // Connection set-up and tear-down on the backend `churn` uses.
    let sim = SimNet::new(platform.costs());
    let listener = sim.listen(7003).expect("listen");
    out.push((
        "enet.backend_connect_close_us",
        time_ns(500, || {
            let c = sim.connect(7003).expect("connect");
            let s = sim.accept(listener).expect("accept").expect("pending");
            sim.close(c).expect("close");
            sim.close(s).expect("close");
        }) / 1e3,
    ));
}

fn xmpp_probes(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Rng::new(0x150);
    let mut body = Vec::new();
    rng.letters(&mut body, CHAT_BODY_BYTES);
    let stanza = Stanza::Message {
        to: "active0".into(),
        from: "active0".into(),
        body: String::from_utf8(body).expect("ascii"),
    };
    let xml = stanza.to_xml();
    out.push((
        "xmpp.stanza_parse_ns",
        time_ns(2_000, || drop(black_box(Stanza::parse(&xml)))),
    ));
    out.push((
        "xmpp.stanza_to_xml_ns",
        time_ns(2_000, || drop(black_box(stanza.to_xml()))),
    ));
    let crypto = ConnCrypto::for_user("active0", platform.costs());
    let mut frame = vec![0u8; crypto.frame_len(&xml)];
    out.push((
        "xmpp.frame_seal_150b_ns",
        time_ns(2_000, || {
            black_box(crypto.frame_into(&xml, &mut frame));
        }),
    ));
    let mut scratch = Vec::new();
    out.push((
        "xmpp.frame_open_150b_ns",
        time_ns(2_000, || {
            black_box(
                crypto
                    .open_into(&frame[4..], &mut scratch)
                    .expect("authentic")
                    .len(),
            );
        }),
    ));

    // The directory as `chat_*` populates it: one shard, 258 users.
    let dir = ShardedDirectory::with_capacity(1, 320, 320, || None);
    let reader = dir.reader();
    for i in 0..258u64 {
        dir.register_user(&reader, &format!("resident{i}"), i, 0)
            .expect("register");
    }
    out.push((
        "xmpp.dir_lookup_ns",
        time_ns(2_000, || {
            drop(black_box(dir.lookup_user(&reader, "resident128")))
        }),
    ));
    let slice = dir.slice(0);
    let slice_reader = slice.reader();
    out.push((
        "xmpp.dir_register_unregister_ns",
        time_ns(500, || {
            slice
                .register_user(&slice_reader, "churner", 999, 0)
                .expect("register");
            slice
                .unregister_user(&slice_reader, "churner")
                .expect("unregister");
            slice.store().clean();
        }),
    ));
    out.push((
        "xmpp.dir_join_leave_ns",
        time_ns(500, || {
            let member = Member {
                user: "churner".into(),
                socket: 999,
                instance: 0,
            };
            slice
                .join_group(&slice_reader, "room-7", member)
                .expect("join");
            slice
                .leave_group(&slice_reader, "room-7", "churner")
                .expect("leave");
            slice.store().clean();
        }),
    ));
}

/// `get` / `set` / `delete` on a store shaped like `pos_kv`'s, each
/// timed in batches of 64 calls.
fn pos_probes(platform: &Platform, out: &mut Vec<(&'static str, f64)>) {
    let store = PosStore::new(PosConfig {
        entries: 4 * KV_KEYS as u32,
        payload: 8 + SMALL_BYTES + 64,
        stacks: 256,
        encryption: Some(PosEncryption {
            key: SessionKey::derive(&[0x706F_735F_6B76]),
            costs: platform.costs(),
        }),
    });
    let reader = store.register_reader();
    let value = [0xC5u8; SMALL_BYTES];
    for k in 0..KV_KEYS {
        store.set(&reader, &kv_key(k), &value).expect("prefill");
    }
    let mut buf = [0u8; SMALL_BYTES];
    let mut next = 0usize;
    let mut key = move || {
        next = (next + 61) % KV_KEYS;
        kv_key(next)
    };
    out.push((
        "pos.get_ns",
        time_ns(64, || drop(black_box(store.get(&reader, &key(), &mut buf)))),
    ));
    out.push((
        "pos.set_ns",
        time_ns(64, || {
            store.set(&reader, &key(), &value).expect("set");
        }),
    ));
    store.clean_to_quiescence();
    out.push((
        "pos.delete_ns",
        time_ns(64, || {
            store.delete(&reader, &key()).expect("delete");
        }),
    ));
}

/// Run every probe once. Takes a few seconds.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let platform = Platform::builder().build();
    let mut out = Vec::new();
    sgx_sim_probes(&platform, &mut out);
    core_probes(&platform, &mut out);
    backend_probe(&platform, &mut out);
    actor_echo_probes(&platform, &mut out);
    xmpp_probes(&platform, &mut out);
    pos_probes(&platform, &mut out);
    out
}

/// The hop probes along a chat stanza's path through the service, for
/// `driver.budget_coverage`: the backend round trip (kernel both ways),
/// instance `open` → parse → lookup → `to_xml` → `seal`, and the mbox
/// hops READER → instance → WRITER.
pub fn stanza_path_us(probes: &[(&'static str, f64)]) -> f64 {
    let get = |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
    get("enet.backend_rtt_us")
        + (get("xmpp.frame_open_150b_ns")
            + get("xmpp.stanza_parse_ns")
            + get("xmpp.dir_lookup_ns")
            + get("xmpp.stanza_to_xml_ns")
            + get("xmpp.frame_seal_150b_ns")
            + 2.0 * get("core.mbox_mpsc_send_recv_ns")
            + 2.0 * get("core.arena_pop_free_ns"))
            / 1e3
}
