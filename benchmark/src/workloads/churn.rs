//! `churn`: 1 000 session lifecycles per second, open loop, on `SimNet`
//! with `instances: 2`, `shards: 2`, `Assignment::ShardAffine`. Each
//! arrival does connect → `Stream` → `StreamOk` → sealed `Join` →
//! `Joined` → close, so the control path (ACCEPTER/CONNECTOR/CLOSER,
//! assignment, `DirShard` register/join/leave/unregister, POS
//! set/delete) does the work and the data path little.
//!
//! Sim on purpose: real sockets at this rate park ~20 k ports in
//! TIME_WAIT per run and would fail the tenth back-to-back run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use enet::{NetBackend, SimNet};
use sgx_sim::{CostHandle, Platform};
use xmpp::stanza::Stanza;
use xmpp::{start_service, Assignment, RunningService, ShardedReader, XmppConfig};

use super::client::{idle, stream_ok_socket, Client, Net, SETUP_TIMEOUT};
use super::{Bench, Metrics, Notes, Params, Recorder};
use crate::catalogue::{Load, Workload};
use crate::counters::Snap;
use crate::gen::{ChurnGen, ChurnOp};
use crate::pacer::{latency_ns, OpenLoop};
use crate::stats;

/// A session that has not finished within this long is a failed op.
const SESSION_TIMEOUT_NS: u64 = 1_000_000_000;
/// How long a closed session's directory entries may linger.
const LEAK_GRACE: Duration = Duration::from_secs(1);
/// One session in this many has its live directory entry read by the
/// driver. Sampled, because the read charges POS crypto to the platform
/// the service's counters are taken from.
const LIVE_CHECK_EVERY: u64 = 16;

#[derive(PartialEq)]
enum Step {
    AwaitStreamOk,
    AwaitJoined,
}

struct Session {
    op: u64,
    due_ns: u64,
    started_ns: u64,
    joined_sent_ns: u64,
    room: String,
    step: Step,
    client: Client,
}

pub struct Churn {
    seed: u64,
    rate: f64,
    gen: ChurnGen,
    next_op: u64,
    drives: u64,
    /// `(user, room)` of every session the driver closed, for the
    /// end-of-run leak check.
    closed: Vec<(String, String)>,
    runtime_start_ms: Vec<f64>,
    client_self_ns: u64,
    client_ops: u64,
}

pub struct Sys {
    platform: Platform,
    /// Pays for the client's own crypto, apart from the service's.
    client_costs: CostHandle,
    net: Net,
    svc: RunningService,
    reader: ShardedReader,
    sessions: Vec<Session>,
    /// The emptied twin of `sessions`, so polling never allocates.
    spare: Vec<Session>,
}

impl Churn {
    pub fn new(w: Workload, p: &Params) -> Churn {
        let Load::Open { rate } = w.load() else {
            unreachable!("churn is open loop")
        };
        Churn {
            seed: p.seed,
            rate,
            gen: ChurnGen::new(p.seed),
            next_op: 0,
            drives: 0,
            closed: Vec::new(),
            runtime_start_ms: Vec::new(),
            client_self_ns: 0,
            client_ops: 0,
        }
    }

    /// Open the next generated session: connect and send `Stream`.
    fn open(&mut self, sys: &mut Sys, due_ns: u64, rec: &mut Recorder) {
        let ChurnOp { user, room } = self.gen.next_op();
        let op = self.next_op;
        self.next_op += 1;
        rec.attempted += 1;
        let t0 = rec.now();
        rec.lag_ns.push(t0.saturating_sub(due_ns));
        let costs = sys.client_costs.clone();
        let mut client = match Client::connect(&sys.net, &user, costs, &mut rec.charges) {
            Ok(c) => c,
            Err(_) => {
                rec.failed += 1; // a refused connect is a failed op
                return;
            }
        };
        rec.tracer.child(op, "connect", "enet", t0);
        let t1 = rec.now();
        let _ = client.flush(&sys.net, &mut rec.charges);
        rec.tracer.child(op, "send", "enet", t1);
        self.client_self_ns += rec.now() - t0;
        sys.sessions.push(Session {
            op,
            due_ns,
            started_ns: t0,
            joined_sent_ns: 0,
            room,
            step: Step::AwaitStreamOk,
            client,
        });
    }

    /// Advance one session; `Some(ok)` once it is over.
    fn step(
        &mut self,
        sys_net: &Net,
        svc: &RunningService,
        reader: &ShardedReader,
        s: &mut Session,
        rec: &mut Recorder,
    ) -> Option<Result<(), String>> {
        let _ = s.client.flush(sys_net, &mut rec.charges);
        let t_recv = rec.now();
        match s.client.poll(sys_net, &mut rec.charges) {
            Ok(false) => return None,
            Ok(true) => {}
            Err(e) => return Some(Err(format!("session reset: {e}"))),
        }
        self.client_self_ns += rec.now() - t_recv;
        loop {
            let frame = match s.client.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return None,
                Err(e) => return Some(Err(format!("framing: {e}"))),
            };
            let t0 = rec.now();
            match s.step {
                Step::AwaitStreamOk => {
                    let socket = match stream_ok_socket(&frame) {
                        Ok(socket) => socket,
                        Err(e) => return Some(Err(e)),
                    };
                    rec.timed.push(("xmpp.handshake_us", t0 - s.started_ns));
                    if s.op.is_multiple_of(LIVE_CHECK_EVERY) {
                        // `StreamOk` is sent only once the owning shard
                        // confirmed the registration: the directory must
                        // resolve this user to the announced socket.
                        match svc.directory.lookup_user(reader, &s.client.name) {
                            Ok(Some(entry)) if entry.socket == socket => {}
                            other => {
                                return Some(Err(format!(
                                "stream-ok announced socket {socket}, the directory says {other:?}"
                            )))
                            }
                        }
                    }
                    s.client.queue_sealed(&Stanza::Join {
                        room: s.room.clone(),
                    });
                    rec.tracer.child(s.op, "seal_stanza", "xmpp", t0);
                    let t1 = rec.now();
                    let _ = s.client.flush(sys_net, &mut rec.charges);
                    rec.tracer.child(s.op, "send", "enet", t1);
                    s.joined_sent_ns = rec.now();
                    s.step = Step::AwaitJoined;
                    self.client_self_ns += s.joined_sent_ns - t0;
                }
                Step::AwaitJoined => {
                    let opened = s.client.open(&frame);
                    rec.tracer.child(s.op, "open_stanza", "xmpp", t0);
                    self.client_self_ns += rec.now() - t0;
                    return Some(match opened {
                        Ok(Stanza::Joined { room }) if room == s.room => {
                            rec.timed.push(("xmpp.join_us", t0 - s.joined_sent_ns));
                            Ok(())
                        }
                        Ok(other) => Err(format!("expected joined {:?}, got {other:?}", s.room)),
                        Err(e) => Err(format!("joined did not open: {e}")),
                    });
                }
            }
        }
    }

    /// Poll every open session once; finished ones are closed.
    fn pump(&mut self, sys: &mut Sys, rec: &mut Recorder) -> bool {
        let mut progressed = false;
        let mut open = std::mem::take(&mut sys.sessions);
        let mut kept = std::mem::take(&mut sys.spare);
        for mut session in open.drain(..) {
            let now = rec.now();
            let over = match self.step(&sys.net, &sys.svc, &sys.reader, &mut session, rec) {
                None if now - session.due_ns > SESSION_TIMEOUT_NS => {
                    Some(Err("session did not finish within 1 s".to_owned()))
                }
                other => other,
            };
            let Some(result) = over else {
                kept.push(session);
                continue;
            };
            progressed = true;
            let t_close = rec.now();
            let Session {
                op,
                due_ns,
                room,
                client,
                ..
            } = session;
            let user = client.name.clone();
            client.close(&sys.net, &mut rec.charges);
            rec.tracer.child(op, "close", "enet", t_close);
            let done = rec.now();
            self.client_self_ns += done - t_close;
            self.client_ops += 1;
            match result {
                Ok(()) => {
                    rec.completed += 1;
                    rec.samples.push((done, latency_ns(due_ns, done)));
                    rec.tracer.root(op, "session", due_ns, done);
                }
                Err(why) => {
                    rec.failed += 1;
                    rec.violation(format!("{user}: {why}"));
                }
            }
            self.closed.push((user, room));
        }
        sys.sessions = kept;
        sys.spare = open;
        progressed
    }

    /// One whole session, awaited: set-up's first verified op.
    fn first_session(&mut self, sys: &mut Sys, rec: &mut Recorder) {
        let done = rec.completed;
        let deadline = Instant::now() + SETUP_TIMEOUT;
        // The listener comes up asynchronously after start; until then
        // connects are refused.
        while sys.sessions.is_empty() && Instant::now() < deadline {
            let now = rec.now();
            self.open(sys, now, rec);
            idle();
        }
        while !sys.sessions.is_empty() && Instant::now() < deadline {
            if !self.pump(sys, rec) {
                idle();
            }
        }
        if rec.completed != done + 1 {
            rec.violation("set-up: the first session did not complete".to_owned());
        }
    }
}

impl Bench for Churn {
    type Sys = Sys;

    fn start(&mut self, _full: bool, rec: &mut Recorder) -> Sys {
        let platform = Platform::builder().build();
        let backend: Arc<dyn NetBackend> = Arc::new(SimNet::new(platform.costs()));
        let net = Net::new(backend.clone(), &platform.costs());
        let t = Instant::now();
        let svc = crate::host::spawn_apart(|| {
            start_service(
                &platform,
                backend,
                &XmppConfig {
                    instances: 2,
                    shards: 2,
                    assignment: Assignment::ShardAffine,
                    max_clients: 256,
                    ..XmppConfig::default()
                },
            )
        })
        .expect("valid service config");
        self.runtime_start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let reader = svc.directory.reader();
        let mut sys = Sys {
            platform,
            client_costs: Platform::builder().build().costs(),
            net,
            svc,
            reader,
            sessions: Vec::with_capacity(256),
            spare: Vec::with_capacity(256),
        };
        self.first_session(&mut sys, rec);
        sys
    }

    fn drive(&mut self, sys: &mut Sys, dur: Duration, rec: &mut Recorder) -> Duration {
        self.drives += 1;
        let mut clock = OpenLoop::new(self.seed.wrapping_add(self.drives), self.rate);
        let origin = rec.now();
        let until = dur.as_nanos() as u64;
        loop {
            let now = rec.now() - origin;
            let mut progressed = false;
            while let Some(due) = clock.pop_due(now, until) {
                self.open(sys, origin + due.due_ns, rec);
                progressed = true;
            }
            progressed |= self.pump(sys, rec);
            if rec.now() - origin >= until && sys.sessions.is_empty() {
                return dur;
            }
            if !progressed {
                idle();
            }
        }
    }

    fn snap(&self, sys: &Sys) -> Snap {
        Snap {
            platform: sys.platform.stats(),
            runtime: Some(sys.svc.runtime.metrics()),
        }
    }

    fn verify(&mut self, sys: &mut Sys, rec: &mut Recorder) {
        // Every session was closed by the driver: within the grace
        // period none of its users may still resolve, and none may
        // still sit in the room it joined.
        let deadline = Instant::now() + LEAK_GRACE;
        let mut left = std::mem::take(&mut self.closed);
        loop {
            left.retain(|(user, room)| {
                let resolves =
                    !matches!(sys.svc.directory.lookup_user(&sys.reader, user), Ok(None));
                let member = sys
                    .svc
                    .directory
                    .group_members(&sys.reader, room)
                    .map_or(true, |m| m.iter().any(|m| &m.user == user));
                resolves || member
            });
            if left.is_empty() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !left.is_empty() {
            rec.violation(format!(
                "{} closed sessions leaked directory entries, e.g. {:?}",
                left.len(),
                left[0]
            ));
        }
    }

    fn stop(&mut self, sys: Sys, rec: &mut Recorder) {
        for s in sys.sessions {
            s.client.close(&sys.net, &mut rec.charges);
        }
        rec.check_report(&sys.svc.shutdown());
    }

    fn extras(&self, rec: &Recorder) -> (Metrics, Notes) {
        (
            vec![
                (
                    "core.runtime_start_ms",
                    stats::median(&self.runtime_start_ms),
                ),
                (
                    "xmpp.handshake_us",
                    stats::median(&rec.timed_values("xmpp.handshake_us")) / 1e3,
                ),
                (
                    "xmpp.join_us",
                    stats::median(&rec.timed_values("xmpp.join_us")) / 1e3,
                ),
                (
                    "driver.client_self_us",
                    self.client_self_ns as f64 / 1e3 / self.client_ops.max(1) as f64,
                ),
            ],
            vec![
                ("backend".to_owned(), "sim".to_owned()),
                ("offered_rate".to_owned(), format!("{}/s", self.rate)),
            ],
        )
    }
}
