//! Integration: the same actor logic must behave identically under every
//! deployment policy — untrusted, one shared enclave, enclave-per-actor —
//! while the transition accounting reflects each choice (paper §3.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eactors::prelude::*;
use sgx_sim::{CostModel, Platform};

/// Counts messages relayed through a two-hop pipeline and returns the
/// receiver's checksum.
fn run_pipeline(placements: [Option<usize>; 3], enclaves: usize) -> (u64, u64) {
    let platform = Platform::builder().cost_model(CostModel::zero()).build();
    let mut b = DeploymentBuilder::new();
    // The transition counts below are of a worker that never parks (a
    // park leaves the enclave).
    b.idle_policy(IdlePolicy::spin_only());
    let slots: Vec<_> = (0..enclaves).map(|i| b.enclave(&format!("e{i}"))).collect();
    let place = |p: Option<usize>| match p {
        None => Placement::Untrusted,
        Some(i) => Placement::Enclave(slots[i]),
    };

    let total = 200u64;
    let mut next = 0u64;
    let source = b.actor(
        "source",
        place(placements[0]),
        eactors::from_fn(move |ctx| {
            if next == total {
                return Control::Park;
            }
            if ctx.channel(0).send(&next.to_le_bytes()).is_ok() {
                next += 1;
                Control::Busy
            } else {
                Control::Idle
            }
        }),
    );
    let relay = b.actor(
        "relay",
        place(placements[1]),
        eactors::from_fn(move |ctx| {
            let mut buf = [0u8; 8];
            match ctx.channel(0).try_recv(&mut buf) {
                Ok(Some(8)) => {
                    let v = u64::from_le_bytes(buf).wrapping_mul(3);
                    let _ = ctx.channel(1).send(&v.to_le_bytes());
                    Control::Busy
                }
                _ => Control::Idle,
            }
        }),
    );
    let checksum = Arc::new(AtomicU64::new(0));
    let sink_sum = checksum.clone();
    let mut got = 0u64;
    let sink = b.actor(
        "sink",
        place(placements[2]),
        eactors::from_fn(move |ctx| {
            let mut buf = [0u8; 8];
            match ctx.channel(0).try_recv(&mut buf) {
                Ok(Some(8)) => {
                    sink_sum.fetch_add(u64::from_le_bytes(buf), Ordering::Relaxed);
                    got += 1;
                    if got == total {
                        ctx.shutdown();
                        return Control::Park;
                    }
                    Control::Busy
                }
                _ => Control::Idle,
            }
        }),
    );
    b.channel(source, relay);
    b.channel(relay, sink);
    b.worker(&[source, relay, sink]);

    let before = platform.stats().transitions();
    let runtime = Runtime::start(&platform, b.build().expect("valid")).expect("start");
    runtime.join();
    let transitions = platform.stats().transitions() - before;
    (checksum.load(Ordering::Relaxed), transitions)
}

/// Sum of `v * 3` for `v` in `0..200`.
const EXPECTED: u64 = 3 * (199 * 200) / 2;

#[test]
fn untrusted_deployment_is_correct_and_transition_free() {
    let (sum, transitions) = run_pipeline([None, None, None], 0);
    assert_eq!(sum, EXPECTED);
    assert_eq!(transitions, 0);
}

#[test]
fn shared_enclave_deployment_is_correct_and_cheap() {
    let (sum, transitions) = run_pipeline([Some(0), Some(0), Some(0)], 1);
    assert_eq!(sum, EXPECTED);
    // Setup costs a constant handful of crossings (one in/out per actor
    // constructor plus the worker's entry and exit); the 200 messages
    // and 600+ body executions add none.
    assert!(
        transitions <= 10,
        "shared enclave must cost only constant setup crossings, got {transitions}"
    );
}

#[test]
fn enclave_per_actor_pays_per_pass_not_per_message() {
    let (sum, transitions) = run_pipeline([Some(0), Some(1), Some(2)], 3);
    assert_eq!(sum, EXPECTED);
    // Migrating a worker across three enclaves costs crossings per pass,
    // but correctness is untouched.
    assert!(transitions > 0);
}

#[test]
fn mixed_trusted_untrusted_is_correct() {
    let (sum, _) = run_pipeline([None, Some(0), None], 1);
    assert_eq!(sum, EXPECTED);
}

#[test]
fn dedicated_workers_reach_the_same_result() {
    // Same topology, one worker per actor: tests the concurrent path.
    let platform = Platform::builder().cost_model(CostModel::zero()).build();
    let mut b = DeploymentBuilder::new();
    let e = b.enclave("only");
    let total = 500u64;
    let mut next = 0u64;
    let source = b.actor(
        "source",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| {
            if next == total {
                return Control::Park;
            }
            match ctx.channel(0).send(&next.to_le_bytes()) {
                Ok(()) => {
                    next += 1;
                    Control::Busy
                }
                Err(_) => Control::Idle,
            }
        }),
    );
    let sum = Arc::new(AtomicU64::new(0));
    let sink_sum = sum.clone();
    let mut got = 0u64;
    let sink = b.actor(
        "sink",
        Placement::Enclave(e),
        eactors::from_fn(move |ctx| {
            let mut buf = [0u8; 8];
            match ctx.channel(0).try_recv(&mut buf) {
                Ok(Some(8)) => {
                    sink_sum.fetch_add(u64::from_le_bytes(buf), Ordering::Relaxed);
                    got += 1;
                    if got == total {
                        ctx.shutdown();
                        return Control::Park;
                    }
                    Control::Busy
                }
                _ => Control::Idle,
            }
        }),
    );
    b.channel(source, sink);
    b.worker(&[source]);
    b.worker(&[sink]);
    Runtime::start(&platform, b.build().expect("valid"))
        .expect("start")
        .join();
    assert_eq!(sum.load(Ordering::Relaxed), (0..500u64).sum::<u64>());
}

/// Every static map fig16 measures (48 XMPP eactors over 1, 2 or 16
/// enclaves on 3 workers) must be expressible as a [`PlacementPlan`],
/// and the plans' predicted per-pass crossings must rank the layouts
/// the way §6.4.3 measures them: more enclaves, more crossings.
#[test]
fn every_fig16_static_map_is_expressible_as_a_placement_plan() {
    use eactors::placement::PlanActor;
    use eactors::{PlacementPlan, PlanSpec};

    let mut crossings = Vec::new();
    for enclaves in [1usize, 2, 16] {
        // 16 instances x 3 trusted eactors; instance i lives in enclave
        // `i % enclaves` and on worker `i % 3` (the EA/3 layout).
        let actors: Vec<PlanActor> = (0..48)
            .map(|a| PlanActor {
                name: format!("xmpp-{a}"),
                enclave: Some((a / 3) % enclaves),
            })
            .collect();
        let spec = PlanSpec {
            actors,
            workers: 3,
            channels: (0..16)
                .flat_map(|i| [(3 * i, 3 * i + 1), (3 * i, 3 * i + 2)])
                .collect(),
            mboxes: Vec::new(),
        };
        let assignment: Vec<u32> = (0..48u32).map(|a| (a / 3) % 3).collect();
        let plan = PlacementPlan::derive(&spec, assignment).expect("fig16 map expressible");
        assert_eq!(plan.version(), 0);
        crossings.push(plan.predicted_crossings_per_pass(&spec));
    }
    assert_eq!(crossings[0], 0, "one shared enclave needs no crossings");
    assert!(
        crossings[0] < crossings[1] && crossings[1] < crossings[2],
        "crossings must grow with the enclave count, got {crossings:?}"
    );
}

/// A thousand random migrations of a live mbox-and-channel topology:
/// the cursor-protocol proofs must hold at every epoch (zero
/// `mbox_cardinality_violations`) and no node may leak — after a
/// quiesced drain and shutdown, every pool node is back on the free
/// list.
#[test]
fn thousand_random_migrations_keep_protocols_sound_and_leak_no_nodes() {
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    const MIGRATIONS: u64 = 1000;
    let platform = Platform::builder().cost_model(CostModel::zero()).build();
    let mut b = DeploymentBuilder::new();
    b.dynamic_placement();
    b.pool("pool", Placement::Untrusted, 32, 64);

    let quiesce = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));

    // Two producers into one bound mbox: co-located they prove SPSC,
    // split they force MPSC, so random assignments keep re-selecting the
    // cursor protocol with traffic in flight.
    let mut actors = Vec::new();
    for i in 0..2 {
        let quiesce = quiesce.clone();
        let sent = sent.clone();
        actors.push(b.actor(
            &format!("prod-{i}"),
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if quiesce.load(Ordering::Relaxed) {
                    return Control::Idle;
                }
                let Some(mut node) = Arc::clone(ctx.arena("pool").expect("pool")).try_pop() else {
                    return Control::Idle;
                };
                node.write(b"stress");
                match ctx.mbox("inbox").expect("inbox").send(node) {
                    Ok(()) => {
                        sent.fetch_add(1, Ordering::Relaxed);
                        Control::Busy
                    }
                    Err(_full) => Control::Idle,
                }
            }),
        ));
    }
    let received_c = received.clone();
    actors.push(b.actor(
        "cons",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| match ctx.mbox("inbox").expect("inbox").recv() {
            Some(node) => {
                assert_eq!(node.bytes(), b"stress");
                received_c.fetch_add(1, Ordering::Relaxed);
                Control::Busy
            }
            None => Control::Idle,
        }),
    ));
    b.mbox_bound("inbox", "pool", 16, &actors[0..2], &[actors[2]]);

    // A ping-pong channel pair rides along so migrations also exercise
    // the channel ends' producer/consumer claim resets.
    let quiesce_ping = quiesce.clone();
    let mut awaiting = false;
    let ping = b.actor(
        "ping",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| {
            let mut buf = [0u8; 16];
            if awaiting {
                match ctx.channel(0).try_recv(&mut buf) {
                    Ok(Some(_)) => {
                        awaiting = false;
                        Control::Busy
                    }
                    _ => Control::Idle,
                }
            } else if !quiesce_ping.load(Ordering::Relaxed) {
                match ctx.channel(0).send(b"ball") {
                    Ok(()) => {
                        awaiting = true;
                        Control::Busy
                    }
                    Err(_) => Control::Idle,
                }
            } else {
                Control::Idle
            }
        }),
    );
    let pong = b.actor(
        "pong",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| {
            let mut buf = [0u8; 16];
            match ctx.channel(0).try_recv(&mut buf) {
                Ok(Some(_)) => {
                    let _ = ctx.channel(0).send(b"ball");
                    Control::Busy
                }
                _ => Control::Idle,
            }
        }),
    );
    b.channel(ping, pong);
    actors.push(ping);
    actors.push(pong);

    b.worker(&actors[0..2]); // prod-0, prod-1
    b.worker(&[actors[2]]); // cons
    b.worker(&[ping, pong]);

    let rt = Runtime::start(&platform, b.build().expect("valid")).expect("start");
    let control = Arc::clone(rt.placement());
    let pool = Arc::clone(rt.arena("pool").expect("pool"));

    // xorshift64: deterministic random assignments, no external dep.
    let mut rng = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for step in 0..MIGRATIONS {
        let assignment: Vec<u32> = (0..actors.len()).map(|_| (next() % 3) as u32).collect();
        let target = control.submit(assignment).expect("sole submitter");
        assert!(
            control.wait_applied(target, Duration::from_secs(30)),
            "migration {step} stalled"
        );
    }
    assert_eq!(control.applied_epoch(), MIGRATIONS);

    // Quiesce the producers, then wait for the consumer to drain every
    // message still in flight (no stop-mid-epoch: the last epoch is
    // fully applied before shutdown, so no handoff strands).
    quiesce.store(true, Ordering::Relaxed);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while received.load(Ordering::Relaxed) < sent.load(Ordering::Relaxed) {
        assert!(std::time::Instant::now() < deadline, "drain stalled");
        std::thread::yield_now();
    }

    let metrics = rt.metrics();
    assert_eq!(
        metrics.counter("mbox_cardinality_violations").unwrap_or(0),
        0,
        "a cursor-protocol proof was violated during migration"
    );
    assert_eq!(
        metrics.counter("placement_epochs_applied"),
        Some(MIGRATIONS)
    );
    rt.shutdown();
    rt.join();
    // Worker exit drains every thread-local magazine, so all nodes must
    // be back on the pool's global free list.
    assert_eq!(
        pool.free_nodes(),
        pool.capacity() as usize,
        "pool nodes leaked across {MIGRATIONS} migrations"
    );
    assert!(sent.load(Ordering::Relaxed) > 0, "stress sent no traffic");
}

#[test]
fn dropping_a_runtime_signals_stop() {
    let platform = Platform::builder().cost_model(CostModel::zero()).build();
    let mut b = DeploymentBuilder::new();
    let spinner = b.actor(
        "spinner",
        Placement::Untrusted,
        eactors::from_fn(|_| Control::Busy),
    );
    b.worker(&[spinner]);
    let rt = Runtime::start(&platform, b.build().expect("valid")).expect("start");
    let token = rt.stop_token();
    assert!(!token.is_stopped());
    drop(rt);
    assert!(token.is_stopped(), "drop must signal the workers to stop");
}

#[test]
fn run_for_collects_a_report_after_the_deadline() {
    let platform = Platform::builder().cost_model(CostModel::zero()).build();
    let mut b = DeploymentBuilder::new();
    let spinner = b.actor(
        "spinner",
        Placement::Untrusted,
        eactors::from_fn(|_| Control::Busy),
    );
    b.worker(&[spinner]);
    let rt = Runtime::start(&platform, b.build().expect("valid")).expect("start");
    let report = rt.run_for(std::time::Duration::from_millis(30));
    assert!(report.total_executions() > 0);
    assert!(report.elapsed >= std::time::Duration::from_millis(30));
}
