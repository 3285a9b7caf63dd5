//! An idle service is idle: with a session connected and nothing to say,
//! the service's workers sleep instead of polling.

use std::sync::Arc;
use std::time::{Duration, Instant};

use enet::{NetBackend, RecvOutcome, SimNet};
use sgx_sim::{CostModel, Platform};
use xmpp::stanza::Stanza;
use xmpp::wire::{encode_frame, FrameBuf};
use xmpp::{start_service, XmppConfig};

/// Passes all workers together may make in [`SILENCE`] when every ring
/// has a descriptor (io_uring, epoll): the COLLECTOR's worker wakes once
/// a millisecond, the other three at the 5 ms cap, two passes per wake —
/// 320 if nothing else happens (300 measured). At the parent commit all
/// four woke every 200 us `park_timeout` (2 100 measured).
const PASS_BOUND: u64 = 1_000;
/// The same when the rings have none (`SimNet`, plain TCP): the two
/// workers hosting READER, WRITER and ACCEPTER also retry every 200 us,
/// which cannot exceed 2 x 2 x 500 passes (1 400 measured; 2 750 at the
/// parent commit).
const PASS_BOUND_RETRIED: u64 = 2_200;
const SILENCE: Duration = Duration::from_millis(100);

fn handshake(net: &dyn NetBackend, user: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let socket = loop {
        match net.connect(5222) {
            Ok(s) => break s,
            Err(_) => {
                assert!(Instant::now() < deadline, "the service never listened");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let mut out = Vec::new();
    let stream = Stanza::Stream {
        from: user.into(),
        to: "srv".into(),
    };
    encode_frame(stream.to_xml().as_bytes(), &mut out);
    let mut sent = 0;
    while sent < out.len() {
        sent += net.send(socket, &out[sent..]).unwrap_or(0);
    }
    let mut frames = FrameBuf::new();
    let mut buf = [0u8; 512];
    loop {
        assert!(Instant::now() < deadline, "handshake timed out for {user}");
        match net.recv(socket, &mut buf) {
            Ok(RecvOutcome::Data(n)) => {
                frames.push(&buf[..n]);
                if let Some(frame) = frames.next_frame().unwrap() {
                    let xml = String::from_utf8(frame).unwrap();
                    assert!(matches!(Stanza::parse(&xml), Ok(Stanza::StreamOk { .. })));
                    return;
                }
            }
            Ok(RecvOutcome::Eof) => panic!("server closed during handshake"),
            _ => std::thread::sleep(Duration::from_micros(100)),
        }
    }
}

fn passes_in_silence(net: Arc<dyn NetBackend>, name: &str) {
    let p = Platform::builder().cost_model(CostModel::zero()).build();
    let svc = start_service(&p, net.clone(), &XmppConfig::default()).unwrap();
    handshake(net.as_ref(), "alice");
    let passes = || -> u64 {
        let snapshot = svc.runtime.obs_hub().registry().snapshot();
        let all = |suffix: &str| -> u64 {
            snapshot
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("worker_") && n.ends_with(suffix))
                .map(|(_, v)| *v)
                .sum()
        };
        // `_passes` also matches `_idle_passes`.
        all("_passes") - all("_idle_passes")
    };
    // Let the handshake's own tail (owed cleaner runs, idle budgets) end.
    std::thread::sleep(Duration::from_millis(20));
    let before = passes();
    std::thread::sleep(SILENCE);
    let made = passes() - before;
    let report = svc.shutdown();
    let bound = match name {
        "uring" | "epoll" => PASS_BOUND,
        _ => PASS_BOUND_RETRIED,
    };
    assert!(
        made < bound,
        "{name}: {made} passes in {SILENCE:?} of silence, bound {bound}"
    );
    assert_eq!(
        report.metrics.counter("trace_dropped"),
        Some(0),
        "{name}: the COLLECTOR's timer keeps up with the rings"
    );
}

#[test]
fn an_idle_service_is_idle() {
    let costs = || Platform::builder().build().costs();
    // Rings without a descriptor: READER, WRITER and ACCEPTER retry on a
    // timer.
    passes_in_silence(Arc::new(SimNet::new(costs())), "sim");
    // Real sockets, behind whatever multiplexer this host offers.
    let (net, name, _) = enet::auto_backend(costs());
    passes_in_silence(net, name);
}
