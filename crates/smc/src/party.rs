//! The EActors deployment of the secure-sum service (Figure 9a).
//!
//! Each party is an eactor in its own enclave; the ring links are
//! encrypted channels (keys from local attestation); a separate untrusted
//! driver actor paces rounds and collects results. Because every party
//! has its own worker, consecutive rounds *pipeline* through the ring —
//! the parallelism the paper credits for the EActors variant's advantage.

use std::sync::Arc;
use std::time::Instant;

use eactors::prelude::*;
use sgx_sim::sync::Mutex;
use sgx_sim::{Platform, TrustedRng};

use crate::protocol::{add_assign, sub_assign, update_secret, SumVec};
use crate::{SmcConfig, SmcError, SmcResult};

/// Control messages on the driver ↔ party-1 channel.
const START: &[u8] = b"S";

/// Party 1: masks with `Rnd`, starts rounds, unmasks results.
///
/// Channel slots (fixed by declaration order in [`run_ea`]):
/// 0 = ring out (to party 2), 1 = ring in (from party K), 2 = driver.
struct FirstParty {
    secret: Vec<u32>,
    dim: usize,
    dynamic: bool,
    pending_rnds: std::collections::VecDeque<Vec<u32>>,
    rng: Option<TrustedRng>,
    scratch_vec: Vec<u32>,
}

impl FirstParty {
    fn new(secret: Vec<u32>, dynamic: bool) -> Self {
        let dim = secret.len();
        FirstParty {
            secret,
            dim,
            dynamic,
            pending_rnds: std::collections::VecDeque::new(),
            rng: None,
            scratch_vec: vec![0u32; dim],
        }
    }
}

impl Actor for FirstParty {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.rng = ctx.enclave().cloned().map(TrustedRng::new);
        // Round requests and ring frames both arrive on channels.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let mut worked = false;

        // New round requests from the driver.
        loop {
            let mut start = [0u8; 1];
            match ctx.channel(2).try_recv(&mut start) {
                Ok(Some(_)) => {
                    // Refill Rnd through the slow trusted source — the
                    // bottleneck the paper identifies in §6.3.1.
                    let mut rnd = vec![0u32; self.dim];
                    if let Some(rng) = &self.rng {
                        rng.fill_u32(&mut rnd)
                            .expect("party runs inside its enclave");
                    }
                    self.scratch_vec.copy_from_slice(&rnd);
                    add_assign(&mut self.scratch_vec, &self.secret);
                    if self.dynamic {
                        update_secret(&mut self.secret);
                    }
                    // Encode straight into the channel node: no
                    // intermediate byte buffer.
                    ctx.typed_channel::<SumVec>(0)
                        .send(&SumVec::Elems(&self.scratch_vec))
                        .expect("ring channel sized for the in-flight window");
                    self.pending_rnds.push_back(rnd);
                    worked = true;
                }
                _ => break,
            }
        }

        // Completed rounds arriving from party K, decoded in place.
        loop {
            let scratch = &mut self.scratch_vec;
            match ctx
                .typed_channel::<SumVec>(1)
                .recv(|v| v.copy_into(scratch))
            {
                Ok(Some(ok)) => assert!(ok, "ring frame has the wrong dimension"),
                // Empty, or a tampered/corrupt frame (counted in the
                // endpoint's telemetry): nothing to unmask this pass.
                _ => break,
            }
            let rnd = self
                .pending_rnds
                .pop_front()
                .expect("a result implies a pending Rnd");
            sub_assign(&mut self.scratch_vec, &rnd);
            ctx.typed_channel::<SumVec>(2)
                .send(&SumVec::Elems(&self.scratch_vec))
                .expect("driver channel sized for the in-flight window");
            worked = true;
        }

        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// Parties 2..K: add the secret and forward around the ring.
///
/// Channel slots: 0 = ring in (from the previous party), 1 = ring out.
struct RingParty {
    secret: Vec<u32>,
    dynamic: bool,
    scratch_vec: Vec<u32>,
}

impl RingParty {
    fn new(secret: Vec<u32>, dynamic: bool) -> Self {
        let dim = secret.len();
        RingParty {
            secret,
            dynamic,
            scratch_vec: vec![0u32; dim],
        }
    }
}

impl Actor for RingParty {
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let mut worked = false;
        loop {
            let scratch = &mut self.scratch_vec;
            match ctx
                .typed_channel::<SumVec>(0)
                .recv(|v| v.copy_into(scratch))
            {
                Ok(Some(ok)) => assert!(ok, "ring frame has the wrong dimension"),
                _ => break,
            }
            add_assign(&mut self.scratch_vec, &self.secret);
            if self.dynamic {
                update_secret(&mut self.secret);
            }
            ctx.typed_channel::<SumVec>(1)
                .send(&SumVec::Elems(&self.scratch_vec))
                .expect("ring channel sized for the in-flight window");
            worked = true;
        }
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// The untrusted driver: paces rounds, optionally verifies results,
/// reports throughput.
struct Driver {
    config: SmcConfig,
    issued: u64,
    completed: u64,
    started_at: Option<Instant>,
    replicas: Vec<Vec<u32>>, // only when verifying
    scratch_vec: Vec<u32>,
    out: Arc<Mutex<Option<SmcResult>>>,
}

impl Actor for Driver {
    fn ctor(&mut self, ctx: &mut Ctx) {
        if self.config.verify {
            self.replicas = self.config.initial_secrets();
        }
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        if self.started_at.is_none() {
            self.started_at = Some(Instant::now());
            let window = self.config.inflight.min(self.config.rounds as usize).max(1);
            for _ in 0..window {
                ctx.channel(0).send(START).expect("driver channel");
                self.issued += 1;
            }
            return Control::Busy;
        }
        let mut worked = false;
        loop {
            let scratch = &mut self.scratch_vec;
            match ctx
                .typed_channel::<SumVec>(0)
                .recv(|v| v.copy_into(scratch))
            {
                Ok(Some(ok)) => assert!(ok, "result frame has the wrong dimension"),
                _ => break,
            }
            worked = true;
            self.completed += 1;
            if self.config.verify {
                let expected = crate::protocol::reference_sum(&self.replicas);
                assert_eq!(
                    self.scratch_vec, expected,
                    "secure sum diverged from reference at round {}",
                    self.completed
                );
                if self.config.dynamic {
                    for r in &mut self.replicas {
                        update_secret(r);
                    }
                }
            }
            if self.issued < self.config.rounds {
                ctx.channel(0).send(START).expect("driver channel");
                self.issued += 1;
            }
            if self.completed == self.config.rounds {
                let elapsed = self.started_at.expect("set on first body").elapsed();
                *self.out.lock() = Some(SmcResult {
                    rounds: self.config.rounds,
                    elapsed,
                    throughput_rps: self.config.rounds as f64 / elapsed.as_secs_f64(),
                });
                ctx.shutdown();
                return Control::Park;
            }
        }
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// Run the EActors secure-sum deployment and report its throughput.
///
/// Builds one enclave per party, encrypted ring channels, one worker per
/// party plus an untrusted driver worker; runs `config.rounds` rounds.
///
/// # Errors
///
/// [`SmcError`] on an invalid configuration or a platform failure.
///
/// # Examples
///
/// ```
/// use sgx_sim::{CostModel, Platform};
/// use smc::{run_ea, SmcConfig};
///
/// let platform = Platform::builder().cost_model(CostModel::zero()).build();
/// let result = run_ea(&platform, &SmcConfig {
///     parties: 3,
///     dim: 8,
///     rounds: 20,
///     verify: true,
///     ..SmcConfig::default()
/// })?;
/// assert_eq!(result.rounds, 20);
/// # Ok::<(), smc::SmcError>(())
/// ```
pub fn run_ea(platform: &Platform, config: &SmcConfig) -> Result<SmcResult, SmcError> {
    run_ea_idling(platform, config, IdlePolicy::default())
}

/// [`run_ea`] under a chosen idle policy (tests that count crossings
/// must keep the workers from parking: a park leaves the enclave).
pub(crate) fn run_ea_idling(
    platform: &Platform,
    config: &SmcConfig,
    idle: IdlePolicy,
) -> Result<SmcResult, SmcError> {
    config.validate()?;
    let secrets = config.initial_secrets();
    let payload = config.dim * 4 + 64; // room for the encryption framing
    let nodes = (config.inflight as u32 + 4).max(8);

    let mut b = DeploymentBuilder::new();
    b.idle_policy(idle);
    b.channel_defaults(ChannelOptions {
        nodes,
        payload,
        policy: EncryptionPolicy::Auto,
    });

    let enclaves: Vec<_> = (0..config.parties)
        .map(|i| b.enclave(&format!("party-{}", i + 1)))
        .collect();
    let mut actors = Vec::with_capacity(config.parties + 1);
    actors.push(b.actor(
        "party-1",
        Placement::Enclave(enclaves[0]),
        FirstParty::new(secrets[0].clone(), config.dynamic),
    ));
    for i in 1..config.parties {
        actors.push(b.actor(
            &format!("party-{}", i + 1),
            Placement::Enclave(enclaves[i]),
            RingParty::new(secrets[i].clone(), config.dynamic),
        ));
    }
    let out = Arc::new(Mutex::new(None));
    let driver = b.actor(
        "driver",
        Placement::Untrusted,
        Driver {
            config: config.clone(),
            issued: 0,
            completed: 0,
            started_at: None,
            replicas: Vec::new(),
            scratch_vec: vec![0u32; config.dim],
            out: out.clone(),
        },
    );

    // Ring channels in order: (P1,P2), (P2,P3), ..., (PK,P1); the driver
    // channel last. Slot layout per actor depends on this order — see the
    // actor docs above.
    for i in 0..config.parties {
        b.channel(actors[i], actors[(i + 1) % config.parties]);
    }
    b.channel(driver, actors[0]);

    for &a in &actors {
        b.worker(&[a]);
    }
    b.worker(&[driver]);

    let runtime = Runtime::start(platform, b.build()?)?;
    runtime.join();
    let result = out
        .lock()
        .take()
        .expect("driver stores a result before shutdown");
    Ok(result)
}
