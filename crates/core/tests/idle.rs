//! Idle costs nothing: a worker spends CPU only while one of its actors
//! has something to do, and is woken by exactly the three things an
//! actor can name — a message, a descriptor, a timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eactors::prelude::*;
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// A cap no test lives to see: what ends a park here is what the test
/// is about.
const NO_CAP: Duration = Duration::from_secs(600);

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

/// Drains `inbox` and stamps each arrival; promises that is all it does.
struct Consumer {
    arrivals: Arc<Mutex<Vec<Instant>>>,
}

impl Actor for Consumer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        match ctx.mbox("inbox").expect("declared").recv() {
            Some(_) => {
                self.arrivals.lock().unwrap().push(Instant::now());
                Control::Busy
            }
            None => Control::Idle,
        }
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn a_declared_worker_makes_no_pass_in_silence_and_runs_within_1ms_of_a_send() {
    let p = platform();
    let mut b = DeploymentBuilder::new();
    let policy = IdlePolicy::default().with_net_park_cap(NO_CAP);
    let park_timeout = policy.park_timeout.expect("the default polls");
    b.idle_policy(policy);
    b.pool("pool", Placement::Untrusted, 8, 64);

    // A sender on a worker of its own: when told to, stamps and sends.
    let go = Arc::new(AtomicBool::new(false));
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    let (flag, stamps) = (go.clone(), sent_at.clone());
    let sender = b.actor(
        "sender",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| {
            if !flag.swap(false, Ordering::SeqCst) {
                return Control::Idle;
            }
            let node = ctx.arena("pool").unwrap().try_pop().unwrap();
            stamps.lock().unwrap().push(Instant::now());
            ctx.mbox("inbox").unwrap().send(node).unwrap();
            Control::Busy
        }),
    );
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let consumer = b.actor(
        "consumer",
        Placement::Untrusted,
        Consumer {
            arrivals: arrivals.clone(),
        },
    );
    b.mbox_bound("inbox", "pool", 8, &[sender], &[consumer]);
    b.worker(&[sender]);
    b.worker(&[consumer]);
    let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
    let counter = |name: &str| rt.metrics().counter(name).unwrap_or(0);
    let arrived = || arrivals.lock().unwrap().len();

    const ROUNDS: usize = 5;
    let mut from_worker = Vec::new();
    let mut from_outside = Vec::new();
    let mut parks = 0;
    for round in 0..2 * ROUNDS {
        // Silence: once the consumer's worker has parked (again) it makes
        // no pass at all, for 50 times as long as an undeclared actor
        // would be left alone. (`parks` is counted after the last pass
        // before the sleep.)
        wait_until("the consumer's worker to park", || {
            counter("worker_1_parks") > parks
        });
        parks = counter("worker_1_parks");
        let passes = counter("worker_1_passes");
        std::thread::sleep(50 * park_timeout);
        assert_eq!(
            counter("worker_1_passes"),
            passes,
            "a worker of declared, mbox-only actors must sleep through silence"
        );
        // Then one message, from a worker or from this thread.
        let before = arrived();
        if round < ROUNDS {
            go.store(true, Ordering::SeqCst);
            wait_until("the worker's send to arrive", || arrived() > before);
            let sent = *sent_at.lock().unwrap().last().unwrap();
            from_worker.push(arrivals.lock().unwrap()[before] - sent);
        } else {
            let node = rt.arena("pool").unwrap().try_pop().unwrap();
            let sent = Instant::now();
            rt.mbox("inbox").unwrap().send(node).unwrap();
            wait_until("the outside send to arrive", || arrived() > before);
            from_outside.push(arrivals.lock().unwrap()[before] - sent);
        }
    }
    rt.shutdown();
    let report = rt.join();
    assert!(
        median(from_worker.clone()) < Duration::from_millis(1),
        "send from a worker to first body: {from_worker:?}"
    );
    assert!(
        median(from_outside.clone()) < Duration::from_millis(1),
        "send from outside the runtime to first body: {from_outside:?}"
    );
    // Every park of the consumer's worker was ended by a notify: the last
    // one by the shutdown, the others by a send each.
    let w = &report.workers[1];
    assert_eq!(w.parks, w.wakes);
    assert_eq!(report.metrics.counter("worker_1_park_ends_cap"), Some(0));
}

/// Runs once per `every` and stamps each execution; its only input is
/// that timer.
struct Ticker {
    every: Duration,
    runs: Arc<Mutex<Vec<Instant>>>,
}

impl Actor for Ticker {
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        self.runs.lock().unwrap().push(Instant::now());
        ctx.wake_after(self.every);
        Control::Idle
    }
}

#[test]
fn wake_after_fires_between_d_and_d_plus_1ms() {
    const D: Duration = Duration::from_millis(5);
    let p = platform();
    let mut b = DeploymentBuilder::new();
    // No spin or yield tier, no cap: the only thing that ends a park is
    // the timer.
    b.idle_policy(IdlePolicy::park_immediately().with_net_park_cap(NO_CAP));
    let runs = Arc::new(Mutex::new(Vec::new()));
    let ticker = b.actor(
        "ticker",
        Placement::Untrusted,
        Ticker {
            every: D,
            runs: runs.clone(),
        },
    );
    b.worker(&[ticker]);
    let report = Runtime::start(&p, b.build().unwrap())
        .unwrap()
        .run_for(20 * D);
    // Each park is preceded by the re-poll that armed the timer and
    // followed by the pass that finds it fired: the gap between those two
    // executions is the sleep.
    // (The last execution is the one the shutdown woke.)
    let runs = runs.lock().unwrap();
    let sleeps: Vec<Duration> = runs[..runs.len() - 1]
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|gap| *gap > D / 2)
        .collect();
    assert!(sleeps.len() >= 10, "the timer fired {} times", sleeps.len());
    assert!(
        sleeps.iter().all(|gap| *gap >= D),
        "a timer never fires early: {sleeps:?}"
    );
    assert!(
        median(sleeps.clone()) <= D + Duration::from_millis(1),
        "a timer fires within a millisecond of its deadline: {sleeps:?}"
    );
    let timer_ends = report.metrics.counter("worker_0_park_ends_timer").unwrap();
    assert!(timer_ends >= 10, "{timer_ends} parks ended by the timer");
    assert_eq!(report.metrics.counter("worker_0_park_ends_cap"), Some(0));
}

#[test]
fn an_undeclared_actor_is_still_polled_every_park_timeout() {
    const PARK_TIMEOUT: Duration = Duration::from_millis(1);
    let p = platform();
    let mut b = DeploymentBuilder::new();
    b.idle_policy(IdlePolicy {
        park_timeout: Some(PARK_TIMEOUT),
        ..IdlePolicy::default().with_net_park_cap(NO_CAP)
    });
    // A closure declares nothing, whatever it reads.
    let polled = b.actor(
        "polled",
        Placement::Untrusted,
        eactors::from_fn(|_| Control::Idle),
    );
    // Not even next to an actor that declared everything.
    let declared = b.actor(
        "declared",
        Placement::Untrusted,
        Consumer {
            arrivals: Arc::default(),
        },
    );
    b.pool("pool", Placement::Untrusted, 2, 64);
    b.mbox("inbox", "pool", 2);
    b.worker(&[polled, declared]);
    let report = Runtime::start(&p, b.build().unwrap())
        .unwrap()
        .run_for(100 * PARK_TIMEOUT);
    let w = &report.workers[0];
    // 100 timeouts fit; each costs its own length plus the way in and out.
    assert!(
        (40..=101).contains(&w.parks),
        "one park per park_timeout, got {}",
        w.parks
    );
    let by_cap = report.metrics.counter("worker_0_park_ends_cap").unwrap();
    assert!(by_cap + 1 >= w.parks, "{by_cap} of {} ran out", w.parks);
    let (_, polls) = &w.executions[0];
    assert!(*polls >= 2 * 40, "the closure ran {polls} times");
}

#[test]
fn the_idle_budget_is_honoured_in_time_with_1_and_with_8_actors() {
    const SPIN: Duration = Duration::from_millis(3);
    const YIELD: Duration = Duration::from_millis(3);
    for actors in [1usize, 8] {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.idle_policy(IdlePolicy {
            spin_for: SPIN,
            yield_for: YIELD,
            ..IdlePolicy::park_immediately()
        });
        let slots: Vec<_> = (0..actors)
            .map(|i| {
                b.actor(
                    &format!("idle-{i}"),
                    Placement::Untrusted,
                    eactors::from_fn(|_| Control::Idle),
                )
            })
            .collect();
        b.worker(&slots);
        let before = Instant::now();
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let started = Instant::now();
        while rt.sleeping_workers() == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        let parked = Instant::now();
        // Not a pass earlier than the budget, whatever a pass costs ...
        assert!(
            parked - before >= SPIN + YIELD,
            "{actors} actors: parked after {:?}",
            parked - before
        );
        // ... and not eight budgets later with eight actors (the slack is
        // for a yield that comes back late on a loaded host).
        assert!(
            parked - started < 4 * (SPIN + YIELD),
            "{actors} actors: parked after {:?}",
            parked - started
        );
        rt.shutdown();
        let report = rt.join();
        assert_eq!(report.workers[0].parks, 1);
    }
}
