//! `chat_idle` and `chat_busy`: the XMPP service over real loopback
//! sockets (`enet::auto_backend`), `instances: 1`, 256 resident
//! handshaken idle sessions and 2 active connections sending 150 B
//! sealed self-addressed messages on a seeded Poisson schedule.
//!
//! Identical set-up, two rates: at 2 000 stanzas/s the mean gap
//! (500 us) exceeds `park_timeout` (200 us), so workers park between
//! stanzas and the wake path dominates; at 8 000 stanzas/s workers stay
//! hot and per-stanza CPU and queueing dominate.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use sgx_sim::Platform;
use xmpp::stanza::Stanza;
use xmpp::{start_service, RunningService, XmppConfig};

use super::client::{handshake_all, idle, Client, Net, SETUP_TIMEOUT};
use super::{Bench, Fault, Metrics, Notes, Params, Recorder};
use crate::catalogue::{Load, Workload};
use crate::counters::Snap;
use crate::gen::{ChatGen, SEQ_DIGITS};
use crate::pacer::{latency_ns, OpenLoop};
use crate::stats;

/// Idle resident sessions held open for the whole run.
pub const RESIDENTS: usize = 256;
/// Connections that carry the stanzas.
pub const ACTIVE: usize = 2;
/// A stanza not echoed within this long is a failed op.
const ECHO_TIMEOUT_NS: u64 = 1_000_000_000;
/// The op whose expected body the driver corrupts under
/// [`Fault::CorruptEcho`].
const CORRUPTED_OP: u64 = 500;

fn body_hash(body: &str) -> u64 {
    sgx_sim::crypto::digest(body.as_bytes())
}

/// A stanza sent and not yet echoed.
struct InFlight {
    op: u64,
    due_ns: u64,
    sent_ns: u64,
    seq: u64,
    hash: u64,
}

struct Active {
    client: Client,
    pending: VecDeque<InFlight>,
}

pub struct Chat {
    seed: u64,
    rate: f64,
    fault: Fault,
    gen: ChatGen,
    /// Ops issued so far; also the span id.
    next_op: u64,
    drives: u64,
    /// Driver time inside its own client calls (seal, send, recv that
    /// returned data, open, parse), for `driver.client_self_us`.
    client_self_ns: u64,
    client_ops: u64,
    runtime_start_ms: Vec<f64>,
    handshake_us: Vec<f64>,
    backend: String,
}

pub struct Sys {
    platform: Platform,
    net: Net,
    svc: RunningService,
    residents: Vec<Client>,
    active: Vec<Active>,
}

impl Chat {
    pub fn new(w: Workload, p: &Params) -> Chat {
        let Load::Open { rate } = w.load() else {
            unreachable!("chat workloads are open loop")
        };
        Chat {
            seed: p.seed,
            rate,
            fault: p.fault,
            gen: ChatGen::new(p.seed, ACTIVE),
            next_op: 0,
            drives: 0,
            client_self_ns: 0,
            client_ops: 0,
            runtime_start_ms: Vec::new(),
            handshake_us: Vec::new(),
            backend: String::new(),
        }
    }

    /// Seal and send the next generated stanza on its connection.
    fn send_next(&mut self, sys: &mut Sys, due_ns: u64, rec: &mut Recorder) {
        let gen_op = self.gen.next_op();
        let op = self.next_op;
        self.next_op += 1;
        rec.attempted += 1;
        let conn = &mut sys.active[gen_op.conn];
        let seq: u64 = gen_op.body[..SEQ_DIGITS].parse().expect("generated digits");
        let mut hash = body_hash(&gen_op.body);
        if self.fault == Fault::CorruptEcho && op == CORRUPTED_OP {
            hash ^= 1;
        }
        let stanza = Stanza::Message {
            to: conn.client.name.clone(),
            from: String::new(),
            body: gen_op.body,
        };
        let t0 = rec.now();
        rec.lag_ns.push(t0.saturating_sub(due_ns));
        conn.client.queue_sealed(&stanza);
        rec.tracer.child(op, "seal_stanza", "xmpp", t0);
        let t1 = rec.now();
        if let Err(e) = conn.client.flush(&sys.net, &mut rec.charges) {
            rec.violation(format!("send on {}: {e}", conn.client.name));
        }
        rec.tracer.child(op, "send", "enet", t1);
        let sent_ns = rec.now();
        self.client_self_ns += sent_ns - t0;
        conn.pending.push_back(InFlight {
            op,
            due_ns,
            sent_ns,
            seq,
            hash,
        });
    }

    /// Read one active connection and match every echo against the
    /// front of its FIFO: in order, exactly once, authentic, intact.
    fn receive(&mut self, sys: &mut Sys, idx: usize, rec: &mut Recorder) -> bool {
        let conn = &mut sys.active[idx];
        // A send error resurfaces from the read below.
        let _ = conn.client.flush(&sys.net, &mut rec.charges);
        let t_recv = rec.now();
        match conn.client.poll(&sys.net, &mut rec.charges) {
            Ok(false) => return false,
            Ok(true) => {}
            Err(e) => {
                rec.violation(format!("connection {} lost: {e}", conn.client.name));
                rec.failed += conn.pending.len() as u64;
                conn.pending.clear();
                return false;
            }
        }
        let readable_ns = rec.now();
        self.client_self_ns += readable_ns - t_recv;
        let mut first = true;
        loop {
            let frame = match conn.client.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    rec.violation(format!("framing on {}: {e}", conn.client.name));
                    break;
                }
            };
            let Some(sent) = conn.pending.pop_front() else {
                rec.violation(format!("{} got an echo nobody sent", conn.client.name));
                continue;
            };
            if first {
                rec.tracer.child(sent.op, "recv", "enet", t_recv);
                first = false;
            }
            let t_open = rec.now();
            let text = conn.client.open_text(&frame);
            rec.tracer.child(sent.op, "open_stanza", "xmpp", t_open);
            let t_parse = rec.now();
            let parsed = text.and_then(|x| Stanza::parse(&x).map_err(|e| format!("{e}")));
            rec.tracer.child(sent.op, "parse", "xmpp", t_parse);
            let done = rec.now();
            self.client_self_ns += done - t_open;
            self.client_ops += 1;
            let verdict = match parsed {
                Ok(Stanza::Message { from, body, .. }) => {
                    let seq = body.get(..SEQ_DIGITS).and_then(|s| s.parse::<u64>().ok());
                    if from != conn.client.name {
                        Err(format!(
                            "echo from {from:?}, expected {:?}",
                            conn.client.name
                        ))
                    } else if seq != Some(sent.seq) {
                        Err(format!("echo #{seq:?} arrived where #{} was due", sent.seq))
                    } else if body_hash(&body) != sent.hash {
                        Err(format!(
                            "echo #{} came back with a different body",
                            sent.seq
                        ))
                    } else {
                        Ok(())
                    }
                }
                Ok(other) => Err(format!("expected the echo of #{}, got {other:?}", sent.seq)),
                Err(e) => Err(format!("echo of #{} did not open: {e}", sent.seq)),
            };
            match verdict {
                Ok(()) => {
                    rec.completed += 1;
                    rec.samples.push((done, latency_ns(sent.due_ns, done)));
                    rec.timed.push((
                        "xmpp.service_residence_us",
                        readable_ns.saturating_sub(sent.sent_ns),
                    ));
                    rec.tracer.root(sent.op, "stanza", sent.due_ns, done);
                }
                Err(why) => {
                    rec.failed += 1;
                    rec.violation(format!("{}: {why}", conn.client.name));
                }
            }
        }
        true
    }

    /// One self-addressed message on `client`, awaited — set-up's first
    /// verified op and the residents' end-of-run liveness check.
    fn echo_once(sys_net: &Net, client: &mut Client, rec: &mut Recorder) -> Result<(), String> {
        let body = format!("probe-{}", client.name);
        client.queue_sealed(&Stanza::Message {
            to: client.name.clone(),
            from: String::new(),
            body: body.clone(),
        });
        let deadline = Instant::now() + SETUP_TIMEOUT;
        loop {
            client.flush(sys_net, &mut rec.charges)?;
            if !client.poll(sys_net, &mut rec.charges)? {
                if Instant::now() > deadline {
                    return Err(format!(
                        "{} heard no echo in {SETUP_TIMEOUT:?}",
                        client.name
                    ));
                }
                idle();
                continue;
            }
            if let Some(frame) = client.next_frame()? {
                return match client.open(&frame)? {
                    Stanza::Message { body: got, .. } if got == body => Ok(()),
                    other => Err(format!(
                        "{} expected its probe back, got {other:?}",
                        client.name
                    )),
                };
            }
        }
    }
}

impl Bench for Chat {
    type Sys = Sys;

    fn start(&mut self, full: bool, rec: &mut Recorder) -> Sys {
        let platform = Platform::builder().build();
        let (backend, name, reason) = enet::auto_backend(platform.costs());
        self.backend = format!("{name} ({reason})");
        let net = Net::new(backend.clone(), &platform.costs());
        let t = Instant::now();
        let svc = crate::host::spawn_apart(|| {
            start_service(
                &platform,
                backend,
                &XmppConfig {
                    instances: 1,
                    max_clients: (RESIDENTS + ACTIVE + 62) as u32,
                    ..XmppConfig::default()
                },
            )
        })
        .expect("valid service config");
        self.runtime_start_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // A platform of its own pays for the client's crypto, so it stays
        // out of the service's counters.
        let costs = Platform::builder().build().costs();
        let mut connect = |names: Vec<String>, rec: &mut Recorder| -> Vec<Client> {
            match handshake_all(&net, &names, &costs, 32, &mut rec.charges) {
                Ok((clients, took)) => {
                    self.handshake_us
                        .extend(took.iter().map(|d| d.as_secs_f64() * 1e6));
                    clients
                }
                Err(e) => {
                    rec.violation(format!("set-up: {e}"));
                    Vec::new()
                }
            }
        };
        let residents = if full {
            connect(
                (0..RESIDENTS).map(|i| format!("resident{i}")).collect(),
                rec,
            )
        } else {
            Vec::new()
        };
        let mut active: Vec<Active> =
            connect((0..ACTIVE).map(|i| format!("active{i}")).collect(), rec)
                .into_iter()
                .map(|client| Active {
                    client,
                    pending: VecDeque::with_capacity(1024),
                })
                .collect();
        if let Some(first) = active.first_mut() {
            if let Err(e) = Chat::echo_once(&net, &mut first.client, rec) {
                rec.violation(format!("set-up: {e}"));
            }
        }
        Sys {
            platform,
            net,
            svc,
            residents,
            active,
        }
    }

    fn drive(&mut self, sys: &mut Sys, dur: Duration, rec: &mut Recorder) -> Duration {
        if sys.active.len() < ACTIVE {
            return dur; // set-up already failed and said so
        }
        self.drives += 1;
        let mut clock = OpenLoop::new(self.seed.wrapping_add(self.drives), self.rate);
        let origin = rec.now();
        let until = dur.as_nanos() as u64;
        loop {
            let now = rec.now() - origin;
            let mut progressed = false;
            while let Some(due) = clock.pop_due(now, until) {
                self.send_next(sys, origin + due.due_ns, rec);
                progressed = true;
            }
            for idx in 0..ACTIVE {
                progressed |= self.receive(sys, idx, rec);
            }
            let now = rec.now();
            for conn in &mut sys.active {
                while conn
                    .pending
                    .front()
                    .is_some_and(|p| now - p.due_ns > ECHO_TIMEOUT_NS)
                {
                    let lost = conn.pending.pop_front().expect("front checked");
                    rec.failed += 1;
                    rec.violation(format!(
                        "{}: stanza #{} was never echoed within 1 s",
                        conn.client.name, lost.seq
                    ));
                }
            }
            if now - origin >= until && sys.active.iter().all(|c| c.pending.is_empty()) {
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
        // The residents were held open all along: each must still be a
        // live, registered session that gets its own message back.
        let net = &sys.net;
        for client in &mut sys.residents {
            if let Err(e) = Chat::echo_once(net, client, rec) {
                rec.violation(format!("resident check: {e}"));
            }
        }
        let stats = &sys.svc.stats;
        if stats.bad_frames.get() + stats.offline_drops.get() > 0 {
            rec.violation(format!(
                "the service counted {} bad frames and {} offline drops",
                stats.bad_frames.get(),
                stats.offline_drops.get()
            ));
        }
    }

    fn stop(&mut self, sys: Sys, rec: &mut Recorder) {
        for client in sys.residents {
            client.close(&sys.net, &mut rec.charges);
        }
        for conn in sys.active {
            conn.client.close(&sys.net, &mut rec.charges);
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
                ("xmpp.handshake_us", stats::median(&self.handshake_us)),
                (
                    "xmpp.service_residence_us",
                    stats::median(&rec.timed_values("xmpp.service_residence_us")) / 1e3,
                ),
                (
                    "driver.client_self_us",
                    self.client_self_ns as f64 / 1e3 / self.client_ops.max(1) as f64,
                ),
            ],
            vec![
                ("backend".to_owned(), self.backend.clone()),
                ("residents".to_owned(), RESIDENTS.to_string()),
                ("offered_rate".to_owned(), format!("{}/s", self.rate)),
            ],
        )
    }
}
