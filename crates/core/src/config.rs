//! Deployment configuration: the paper's "special configuration file" as a
//! typed builder.
//!
//! EActors separates actor *code* from its *deployment policy* (§3.2): the
//! same actor can run untrusted or inside any enclave, co-located with
//! others or alone, executed by a dedicated worker or sharing one. This
//! module captures that policy. [`DeploymentBuilder`] declares enclaves,
//! actors, workers, channels and shared pools/mboxes; [`DeploymentBuilder::build`]
//! validates the topology and produces a [`Deployment`] that
//! [`crate::runtime::Runtime::start`] instantiates.
//!
//! For file-based configuration (the paper generates a source tree from a
//! config file; we load a JSON spec at startup instead) see
//! [`crate::spec`].

use std::sync::Arc;

use sgx_sim::crypto::SEAL_OVERHEAD;

use crate::actor::Actor;
use crate::error::ConfigError;
use crate::placement::{PlacementPlan, PlanActor, PlanMbox, PlanSpec};

/// Handle to a declared enclave (index into the deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveSlot(pub(crate) usize);

/// Handle to a declared actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorSlot(pub(crate) usize);

/// Where an actor (or a pool) is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Normal, unprotected execution — zero transition cost, no
    /// confidentiality.
    Untrusted,
    /// Inside the given enclave.
    Enclave(EnclaveSlot),
}

/// Whether a channel may encrypt transparently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncryptionPolicy {
    /// Encrypt exactly when the endpoints live in two *different*
    /// enclaves (the paper's default: protect inter-enclave messages from
    /// the untrusted runtime). Within one enclave, or when one side is
    /// untrusted anyway, plaintext is used.
    #[default]
    Auto,
    /// Never encrypt, even across enclaves (the paper's "configured as
    /// non-encrypted" escape hatch, used when the application encrypts at
    /// its own level).
    NeverEncrypt,
}

/// Sizing and policy for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelOptions {
    /// Nodes preallocated for this channel (shared by both directions).
    pub nodes: u32,
    /// Payload bytes per node.
    pub payload: usize,
    /// Transparent-encryption policy.
    pub policy: EncryptionPolicy,
}

impl Default for ChannelOptions {
    fn default() -> Self {
        ChannelOptions {
            nodes: 64,
            payload: 4096,
            policy: EncryptionPolicy::Auto,
        }
    }
}

/// What a worker does while none of its actors has anything to do.
///
/// A worker escalates through three tiers, measured in **time since its
/// last busy pass** (one clock read per idle pass, none on a busy one):
/// it **spins** for [`IdlePolicy::spin_for`] (cheapest resume, keeps the
/// cache hot), **yields** to the OS scheduler for a further
/// [`IdlePolicy::yield_for`], and then **parks** on its slot of the
/// runtime's wake hub (see [`crate::wake`]). Any busy pass starts over.
/// Only workers park; an actor body never blocks.
///
/// A park ends for one of three reasons, which is also what an actor can
/// name as its sources of input: a **message** (a peer's `Mbox::send` to
/// one of the worker's actors — a directed notify), a **descriptor** an
/// actor declared with [`crate::actor::Ctx::watch_fd`] turning readable,
/// or a **timer** an actor armed with [`crate::actor::Ctx::wake_after`].
/// When every live actor of the worker has declared that nothing else
/// feeds it ([`crate::actor::Ctx::event_driven`]; `watch_fd` implies it)
/// the park is bounded by [`IdlePolicy::net_park_cap`]; one undeclared
/// actor (any `from_fn` closure) and it is bounded by
/// [`IdlePolicy::park_timeout`] instead, the polling rate of an actor
/// the runtime knows nothing about.
///
/// # The two defaults
///
/// Spinning and yielding are rent, parking is the purchase: a park costs
/// the sleeper a futex or `ppoll` entry, the sender a wake-up call, and
/// the message the scheduler's latency in between — about 26 µs from
/// notify to the first pass on the 2-CPU reference host
/// (`core.wake_park_notify_us` in `benchmark/`). The ski-rental rule
/// says to rent until the rent paid equals that price and then buy,
/// which never costs more than twice the optimum: 4 µs of spinning (a
/// same-core hand-off completes within it; longer only starves the peer
/// that shares the CPU) plus 20 µs of yielding (which gives the CPU to
/// exactly that peer) make 24 µs. The budget is in time rather than in
/// passes so that it means the same on a worker with one actor and on a
/// worker with eight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdlePolicy {
    /// How long after its last busy pass a worker keeps spinning.
    pub spin_for: std::time::Duration,
    /// How long after the spin tier it keeps yielding before it parks.
    pub yield_for: std::time::Duration,
    /// Upper bound on one parked sleep of a worker that hosts an
    /// *undeclared* actor: one that did not call
    /// [`crate::actor::Ctx::event_driven`] or
    /// [`crate::actor::Ctx::watch_fd`] in its `ctor` (any `from_fn`
    /// closure). The runtime cannot know what such an actor polls, so
    /// this timeout is what serves it. `None` parks until a wake event —
    /// only safe when every input of every actor arrives through an
    /// mbox.
    pub park_timeout: Option<std::time::Duration>,
    /// Upper bound on one parked sleep of a worker whose live actors have
    /// all declared their inputs. Messages, declared descriptors and
    /// armed timers end that sleep directly, so the cap only bounds how
    /// long a signal none of them carries goes unserved: a send to an
    /// mbox whose consumer is not recorded (MPMC, or never received
    /// from) made by a thread outside the runtime. Lowering it trades
    /// idle wake-ups for worst-case latency on such signals.
    pub net_park_cap: std::time::Duration,
}

impl Default for IdlePolicy {
    fn default() -> Self {
        IdlePolicy {
            spin_for: std::time::Duration::from_micros(4),
            yield_for: std::time::Duration::from_micros(20),
            park_timeout: Some(std::time::Duration::from_micros(200)),
            net_park_cap: std::time::Duration::from_millis(5),
        }
    }
}

impl IdlePolicy {
    /// Never park: spin forever on idle passes (the pre-parking
    /// behaviour, for latency-critical deployments and for tests that
    /// assert a worker never leaves its enclave).
    pub fn spin_only() -> Self {
        IdlePolicy {
            spin_for: std::time::Duration::MAX,
            yield_for: std::time::Duration::ZERO,
            park_timeout: None,
            ..Self::default()
        }
    }

    /// Park as soon as one pass makes no progress, waiting indefinitely
    /// for a wake event (deterministic parking, used by tests and
    /// mbox-only deployments).
    pub fn park_immediately() -> Self {
        IdlePolicy {
            spin_for: std::time::Duration::ZERO,
            yield_for: std::time::Duration::ZERO,
            park_timeout: None,
            ..Self::default()
        }
    }

    /// This policy with the cap on a fully declared worker's park
    /// replaced (see [`IdlePolicy::net_park_cap`]).
    pub fn with_net_park_cap(mut self, cap: std::time::Duration) -> Self {
        self.net_park_cap = cap;
        self
    }
}

#[derive(Debug)]
pub(crate) struct EnclaveDecl {
    pub(crate) name: String,
    pub(crate) base_bytes: u64,
}

pub(crate) struct ActorDecl {
    pub(crate) name: String,
    pub(crate) placement: Placement,
    pub(crate) actor: Box<dyn Actor>,
}

impl std::fmt::Debug for ActorDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorDecl")
            .field("name", &self.name)
            .field("placement", &self.placement)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
pub(crate) struct WorkerDecl {
    pub(crate) actors: Vec<ActorSlot>,
    pub(crate) cpu: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct ChannelDecl {
    pub(crate) a: ActorSlot,
    pub(crate) b: ActorSlot,
    pub(crate) options: ChannelOptions,
}

#[derive(Debug)]
pub(crate) struct PoolDecl {
    pub(crate) name: String,
    pub(crate) region: Placement,
    pub(crate) nodes: u32,
    pub(crate) payload: usize,
}

#[derive(Debug)]
pub(crate) struct MboxDecl {
    pub(crate) name: String,
    pub(crate) pool: String,
    pub(crate) capacity: usize,
    /// Declared wire type when the mbox was introduced through
    /// [`DeploymentBuilder::port`]; `None` for untyped mboxes.
    pub(crate) message: Option<&'static str>,
    /// Actors declared to send into this mbox (`None` = unknown — any
    /// thread may send, e.g. a driver via [`crate::Runtime::mbox`]).
    pub(crate) producers: Option<Vec<ActorSlot>>,
    /// Actors declared to receive from this mbox (`None` = unknown).
    pub(crate) consumers: Option<Vec<ActorSlot>>,
}

/// Builder for a [`Deployment`].
///
/// # Examples
///
/// ```
/// use eactors::prelude::*;
///
/// struct Noop;
/// impl Actor for Noop {
///     fn body(&mut self, _ctx: &mut Ctx) -> Control {
///         Control::Park
///     }
/// }
///
/// let mut b = DeploymentBuilder::new();
/// let left = b.enclave("left");
/// let right = b.enclave("right");
/// let ping = b.actor("ping", Placement::Enclave(left), Noop);
/// let pong = b.actor("pong", Placement::Enclave(right), Noop);
/// b.channel(ping, pong);
/// b.worker(&[ping]);
/// b.worker(&[pong]);
/// let deployment = b.build()?;
/// # Ok::<(), eactors::ConfigError>(())
/// ```
#[derive(Debug, Default)]
pub struct DeploymentBuilder {
    enclaves: Vec<EnclaveDecl>,
    actors: Vec<ActorDecl>,
    workers: Vec<WorkerDecl>,
    channels: Vec<ChannelDecl>,
    pools: Vec<PoolDecl>,
    mboxes: Vec<MboxDecl>,
    channel_defaults: ChannelOptions,
    idle: Option<IdlePolicy>,
    dynamic: bool,
}

/// Default enclave size: the paper reports ~500 KiB for an XMPP-service
/// enclave including the framework (§6.1).
pub const DEFAULT_ENCLAVE_BYTES: u64 = 512 * 1024;

impl DeploymentBuilder {
    /// An empty deployment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an enclave with the default base size.
    pub fn enclave(&mut self, name: &str) -> EnclaveSlot {
        self.enclave_sized(name, DEFAULT_ENCLAVE_BYTES)
    }

    /// Declare an enclave whose code/data occupy `base_bytes` of EPC.
    pub fn enclave_sized(&mut self, name: &str, base_bytes: u64) -> EnclaveSlot {
        self.enclaves.push(EnclaveDecl {
            name: name.to_owned(),
            base_bytes,
        });
        EnclaveSlot(self.enclaves.len() - 1)
    }

    /// Declare an actor and where it runs.
    ///
    /// The placement is the *entire* difference between a trusted and an
    /// untrusted deployment of the same logic.
    pub fn actor(
        &mut self,
        name: &str,
        placement: Placement,
        actor: impl Actor + 'static,
    ) -> ActorSlot {
        self.actor_boxed(name, placement, Box::new(actor))
    }

    /// Declare an actor from an already boxed implementation (registry /
    /// spec loading path).
    pub fn actor_boxed(
        &mut self,
        name: &str,
        placement: Placement,
        actor: Box<dyn Actor>,
    ) -> ActorSlot {
        self.actors.push(ActorDecl {
            name: name.to_owned(),
            placement,
            actor,
        });
        ActorSlot(self.actors.len() - 1)
    }

    /// Declare a worker thread executing `actors` round-robin.
    pub fn worker(&mut self, actors: &[ActorSlot]) -> &mut Self {
        self.workers.push(WorkerDecl {
            actors: actors.to_vec(),
            cpu: None,
        });
        self
    }

    /// Declare a worker pinned to a CPU.
    pub fn worker_pinned(&mut self, actors: &[ActorSlot], cpu: usize) -> &mut Self {
        self.workers.push(WorkerDecl {
            actors: actors.to_vec(),
            cpu: Some(cpu),
        });
        self
    }

    /// Connect two actors with a channel using the builder's default
    /// [`ChannelOptions`].
    ///
    /// The channel appears as the next slot in each endpoint's channel
    /// list (declaration order).
    pub fn channel(&mut self, a: ActorSlot, b: ActorSlot) -> &mut Self {
        let options = self.channel_defaults;
        self.channel_with(a, b, options)
    }

    /// Connect two actors with explicit options.
    pub fn channel_with(
        &mut self,
        a: ActorSlot,
        b: ActorSlot,
        options: ChannelOptions,
    ) -> &mut Self {
        self.channels.push(ChannelDecl { a, b, options });
        self
    }

    /// Set the default options used by [`DeploymentBuilder::channel`].
    pub fn channel_defaults(&mut self, options: ChannelOptions) -> &mut Self {
        self.channel_defaults = options;
        self
    }

    /// Set the idle strategy all workers follow (defaults to
    /// [`IdlePolicy::default`]).
    pub fn idle_policy(&mut self, policy: IdlePolicy) -> &mut Self {
        self.idle = Some(policy);
        self
    }

    /// Declare a named shared pool of `nodes` nodes with `payload`-byte
    /// payloads, placed in `region` (untrusted memory or an enclave).
    pub fn pool(&mut self, name: &str, region: Placement, nodes: u32, payload: usize) -> &mut Self {
        self.pools.push(PoolDecl {
            name: name.to_owned(),
            region,
            nodes,
            payload,
        });
        self
    }

    /// Declare a COLLECTOR system actor (see
    /// [`crate::collect::CollectorActor`]): the untrusted drainer of the
    /// deployment's trace rings. Assign the returned slot to a worker
    /// like any other actor — preferably one that already hosts
    /// untrusted system actors.
    pub fn collector(&mut self) -> ActorSlot {
        let n = self.actors.len();
        self.actor(
            &format!("collector#{n}"),
            Placement::Untrusted,
            crate::collect::CollectorActor::new(),
        )
    }

    /// Enable dynamic placement: the built runtime accepts new
    /// [`crate::placement::PlacementPlan`]s at runtime through
    /// [`crate::placement::PlacementControl::submit`] and migrates actors
    /// between workers at safe points. Static deployments (the default)
    /// keep their build-time plan forever and reject submissions.
    ///
    /// With dynamic placement enabled, workers whose actors have all
    /// parked stay alive (idle, eventually parked on the wake hub)
    /// instead of exiting — a later plan may migrate live actors onto
    /// them.
    pub fn dynamic_placement(&mut self) -> &mut Self {
        self.dynamic = true;
        self
    }

    /// Declare a PLANNER system actor (see
    /// [`crate::placement::PlannerActor`]) and enable dynamic placement.
    /// Assign the returned slot to a worker like any other actor —
    /// preferably one hosting untrusted system actors, since the planner
    /// only reads the untrusted metrics registry.
    pub fn planner(&mut self, config: crate::placement::PlannerConfig) -> ActorSlot {
        self.dynamic = true;
        let n = self.actors.len();
        self.actor(
            &format!("planner#{n}"),
            Placement::Untrusted,
            crate::placement::PlannerActor::new(config),
        )
    }

    /// Declare a named shared mbox over the named pool.
    ///
    /// Without declared roles the mbox is instantiated fully general
    /// (MPMC): any actor or driver thread may send and receive. Declare
    /// the communicating actors with [`DeploymentBuilder::mbox_bound`]
    /// to let the runtime select a cheaper cursor protocol.
    pub fn mbox(&mut self, name: &str, pool: &str, capacity: usize) -> &mut Self {
        self.mboxes.push(MboxDecl {
            name: name.to_owned(),
            pool: pool.to_owned(),
            capacity,
            message: None,
            producers: None,
            consumers: None,
        });
        self
    }

    /// Declare a named shared mbox with its producer/consumer actors.
    ///
    /// [`DeploymentBuilder::build`] maps the declared actors onto their
    /// workers and records the resulting cardinality: one producing and
    /// one consuming worker yields an SPSC ring, a single consuming
    /// worker an MPSC queue, anything else the general MPMC queue. The
    /// declaration is a contract — only the listed actors (plus
    /// non-worker threads, whose access is sequential with worker
    /// execution) may touch the mbox; a violating worker trips
    /// [`crate::arena::mbox_cardinality_violations`].
    pub fn mbox_bound(
        &mut self,
        name: &str,
        pool: &str,
        capacity: usize,
        producers: &[ActorSlot],
        consumers: &[ActorSlot],
    ) -> &mut Self {
        self.mboxes.push(MboxDecl {
            name: name.to_owned(),
            pool: pool.to_owned(),
            capacity,
            message: None,
            producers: Some(producers.to_vec()),
            consumers: Some(consumers.to_vec()),
        });
        self
    }

    /// Declare a typed port: a named shared mbox whose messages are the
    /// wire type `T`.
    ///
    /// Functionally an mbox plus a contract — actors obtain it through
    /// [`crate::actor::Ctx::port`], which checks the requested type
    /// against this declaration and hands every user the same shared
    /// [`crate::wire::PortStats`], so backpressure drops and corrupt
    /// frames aggregate per port.
    pub fn port<T: crate::wire::Wire + 'static>(
        &mut self,
        name: &str,
        pool: &str,
        capacity: usize,
    ) -> &mut Self {
        self.mboxes.push(MboxDecl {
            name: name.to_owned(),
            pool: pool.to_owned(),
            capacity,
            message: Some(std::any::type_name::<T>()),
            producers: None,
            consumers: None,
        });
        self
    }

    /// Declare a typed port with its producer/consumer actors — the
    /// typed counterpart of [`DeploymentBuilder::mbox_bound`], enabling
    /// the cardinality-specialized cursor protocols for ports too.
    pub fn port_bound<T: crate::wire::Wire + 'static>(
        &mut self,
        name: &str,
        pool: &str,
        capacity: usize,
        producers: &[ActorSlot],
        consumers: &[ActorSlot],
    ) -> &mut Self {
        self.mboxes.push(MboxDecl {
            name: name.to_owned(),
            pool: pool.to_owned(),
            capacity,
            message: Some(std::any::type_name::<T>()),
            producers: Some(producers.to_vec()),
            consumers: Some(consumers.to_vec()),
        });
        self
    }

    /// Validate the topology and produce a runnable [`Deployment`].
    ///
    /// # Errors
    ///
    /// See [`ConfigError`]; typical failures are unassigned or
    /// double-assigned actors, dangling slots, duplicate names and
    /// channels whose payload cannot fit the encryption framing.
    pub fn build(self) -> Result<Deployment, ConfigError> {
        let n_actors = self.actors.len();
        let n_enclaves = self.enclaves.len();

        let mut names = std::collections::HashSet::new();
        for e in &self.enclaves {
            if !names.insert(format!("enclave/{}", e.name)) {
                return Err(ConfigError::DuplicateName(e.name.clone()));
            }
        }
        for a in &self.actors {
            if !names.insert(format!("actor/{}", a.name)) {
                return Err(ConfigError::DuplicateName(a.name.clone()));
            }
            if let Placement::Enclave(EnclaveSlot(i)) = a.placement {
                if i >= n_enclaves {
                    return Err(ConfigError::UnknownSlot("enclave", i));
                }
            }
        }
        for p in &self.pools {
            if !names.insert(format!("pool/{}", p.name)) {
                return Err(ConfigError::DuplicateName(p.name.clone()));
            }
            if let Placement::Enclave(EnclaveSlot(i)) = p.region {
                if i >= n_enclaves {
                    return Err(ConfigError::UnknownSlot("enclave", i));
                }
            }
        }
        for m in &self.mboxes {
            if !names.insert(format!("mbox/{}", m.name)) {
                return Err(ConfigError::DuplicateName(m.name.clone()));
            }
            if !self.pools.iter().any(|p| p.name == m.pool) {
                return Err(ConfigError::UnknownSlot("pool (by name)", 0));
            }
        }

        let mut assigned = vec![false; n_actors];
        for (wi, w) in self.workers.iter().enumerate() {
            if w.actors.is_empty() {
                return Err(ConfigError::EmptyWorker(wi));
            }
            for &ActorSlot(ai) in &w.actors {
                if ai >= n_actors {
                    return Err(ConfigError::UnknownSlot("actor", ai));
                }
                if assigned[ai] {
                    return Err(ConfigError::ActorDoubleAssigned(
                        self.actors[ai].name.clone(),
                    ));
                }
                assigned[ai] = true;
            }
        }
        if let Some(ai) = assigned.iter().position(|&a| !a) {
            return Err(ConfigError::ActorUnassigned(self.actors[ai].name.clone()));
        }

        for c in &self.channels {
            let (ActorSlot(a), ActorSlot(b)) = (c.a, c.b);
            if a >= n_actors {
                return Err(ConfigError::UnknownSlot("actor", a));
            }
            if b >= n_actors {
                return Err(ConfigError::UnknownSlot("actor", b));
            }
            if a == b {
                return Err(ConfigError::SelfChannel(self.actors[a].name.clone()));
            }
            let may_encrypt = c.options.policy == EncryptionPolicy::Auto
                && crate::config::cross_enclave(self.actors[a].placement, self.actors[b].placement);
            if may_encrypt && c.options.payload <= SEAL_OVERHEAD {
                return Err(ConfigError::PayloadTooSmall(c.options.payload));
            }
        }

        // Mbox role declarations must reference real actors before they
        // flow into the placement spec.
        for m in &self.mboxes {
            for roles in [&m.producers, &m.consumers].into_iter().flatten() {
                for &ActorSlot(ai) in roles {
                    if ai >= n_actors {
                        return Err(ConfigError::UnknownSlot("actor", ai));
                    }
                }
            }
        }

        // Split the validated topology into the immutable planning spec
        // and the initial (version 0) placement plan. The per-mbox
        // cursor-protocol proofs live on the plan — they are a function
        // of the actor→worker map, which may now change at runtime.
        // Channels need no proof entry: each direction has exactly one
        // producing and one consuming actor by construction, so the
        // runtime instantiates both direction mboxes as SPSC (and the
        // placement layer re-proves them per plan like everything else).
        let spec = Arc::new(PlanSpec {
            actors: self
                .actors
                .iter()
                .map(|a| PlanActor {
                    name: a.name.clone(),
                    enclave: match a.placement {
                        Placement::Enclave(EnclaveSlot(i)) => Some(i),
                        Placement::Untrusted => None,
                    },
                })
                .collect(),
            workers: self.workers.len(),
            channels: self.channels.iter().map(|c| (c.a.0, c.b.0)).collect(),
            mboxes: self
                .mboxes
                .iter()
                .map(|m| PlanMbox {
                    name: m.name.clone(),
                    producers: m
                        .producers
                        .as_ref()
                        .map(|v| v.iter().map(|s| s.0).collect()),
                    consumers: m
                        .consumers
                        .as_ref()
                        .map(|v| v.iter().map(|s| s.0).collect()),
                })
                .collect(),
        });
        let mut assignment = vec![0u32; n_actors];
        for (wi, w) in self.workers.iter().enumerate() {
            for &ActorSlot(ai) in &w.actors {
                assignment[ai] = wi as u32;
            }
        }
        let plan = PlacementPlan::derive(&spec, assignment)
            .expect("assignment validated against the same topology above");

        Ok(Deployment {
            enclaves: self.enclaves,
            actors: self.actors,
            workers: self.workers,
            channels: self.channels,
            pools: self.pools,
            mboxes: self.mboxes,
            idle: self.idle.unwrap_or_default(),
            spec,
            plan,
            dynamic: self.dynamic,
        })
    }
}

/// Whether two placements are in two different enclaves (the condition for
/// transparent channel encryption).
pub(crate) fn cross_enclave(a: Placement, b: Placement) -> bool {
    matches!((a, b), (Placement::Enclave(x), Placement::Enclave(y)) if x != y)
}

/// A validated deployment, ready for [`crate::runtime::Runtime::start`].
#[derive(Debug)]
pub struct Deployment {
    pub(crate) enclaves: Vec<EnclaveDecl>,
    pub(crate) actors: Vec<ActorDecl>,
    pub(crate) workers: Vec<WorkerDecl>,
    pub(crate) channels: Vec<ChannelDecl>,
    pub(crate) pools: Vec<PoolDecl>,
    pub(crate) mboxes: Vec<MboxDecl>,
    pub(crate) idle: IdlePolicy,
    /// The immutable planning topology extracted from the declarations.
    pub(crate) spec: Arc<PlanSpec>,
    /// The initial (version 0) placement plan, actor→worker plus the
    /// per-mbox cursor-protocol proofs.
    pub(crate) plan: PlacementPlan,
    /// Whether the runtime accepts plan submissions and migrates actors.
    pub(crate) dynamic: bool,
}

impl Deployment {
    /// Number of declared actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of declared enclaves.
    pub fn enclave_count(&self) -> usize {
        self.enclaves.len()
    }

    /// Number of declared workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The immutable topology the placement layer plans over.
    pub fn plan_spec(&self) -> &Arc<PlanSpec> {
        &self.spec
    }

    /// The initial placement plan derived from the worker declarations,
    /// including each named mbox's proven cursor protocol.
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Whether this deployment was built with
    /// [`DeploymentBuilder::dynamic_placement`].
    pub fn dynamic_placement_enabled(&self) -> bool {
        self.dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Control, Ctx};

    struct Noop;
    impl Actor for Noop {
        fn body(&mut self, _ctx: &mut Ctx) -> Control {
            Control::Park
        }
    }

    fn two_actor_builder() -> (DeploymentBuilder, ActorSlot, ActorSlot) {
        let mut b = DeploymentBuilder::new();
        let a = b.actor("a", Placement::Untrusted, Noop);
        let c = b.actor("b", Placement::Untrusted, Noop);
        (b, a, c)
    }

    #[test]
    fn valid_deployment_builds() {
        let (mut b, a, c) = two_actor_builder();
        b.channel(a, c);
        b.worker(&[a, c]);
        let d = b.build().unwrap();
        assert_eq!(d.actor_count(), 2);
        assert_eq!(d.worker_count(), 1);
    }

    #[test]
    fn unassigned_actor_rejected() {
        let (mut b, a, _c) = two_actor_builder();
        b.worker(&[a]);
        assert!(matches!(
            b.build(),
            Err(ConfigError::ActorUnassigned(name)) if name == "b"
        ));
    }

    #[test]
    fn double_assignment_rejected() {
        let (mut b, a, c) = two_actor_builder();
        b.worker(&[a, c]);
        b.worker(&[a]);
        assert!(matches!(
            b.build(),
            Err(ConfigError::ActorDoubleAssigned(_))
        ));
    }

    #[test]
    fn empty_worker_rejected() {
        let (mut b, a, c) = two_actor_builder();
        b.worker(&[a, c]);
        b.worker(&[]);
        assert!(matches!(b.build(), Err(ConfigError::EmptyWorker(1))));
    }

    #[test]
    fn self_channel_rejected() {
        let (mut b, a, c) = two_actor_builder();
        b.channel(a, a);
        b.worker(&[a, c]);
        assert!(matches!(b.build(), Err(ConfigError::SelfChannel(_))));
    }

    #[test]
    fn duplicate_actor_name_rejected() {
        let mut b = DeploymentBuilder::new();
        let a = b.actor("same", Placement::Untrusted, Noop);
        let c = b.actor("same", Placement::Untrusted, Noop);
        b.worker(&[a, c]);
        assert!(matches!(b.build(), Err(ConfigError::DuplicateName(_))));
    }

    #[test]
    fn tiny_payload_on_encryptable_channel_rejected() {
        let mut b = DeploymentBuilder::new();
        let e1 = b.enclave("e1");
        let e2 = b.enclave("e2");
        let a = b.actor("a", Placement::Enclave(e1), Noop);
        let c = b.actor("b", Placement::Enclave(e2), Noop);
        b.channel_with(
            a,
            c,
            ChannelOptions {
                nodes: 4,
                payload: 8,
                policy: EncryptionPolicy::Auto,
            },
        );
        b.worker(&[a, c]);
        assert!(matches!(b.build(), Err(ConfigError::PayloadTooSmall(8))));
    }

    #[test]
    fn tiny_payload_fine_when_never_encrypt() {
        let mut b = DeploymentBuilder::new();
        let e1 = b.enclave("e1");
        let e2 = b.enclave("e2");
        let a = b.actor("a", Placement::Enclave(e1), Noop);
        let c = b.actor("b", Placement::Enclave(e2), Noop);
        b.channel_with(
            a,
            c,
            ChannelOptions {
                nodes: 4,
                payload: 8,
                policy: EncryptionPolicy::NeverEncrypt,
            },
        );
        b.worker(&[a, c]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn cross_enclave_detection() {
        let e1 = Placement::Enclave(EnclaveSlot(0));
        let e2 = Placement::Enclave(EnclaveSlot(1));
        let u = Placement::Untrusted;
        assert!(cross_enclave(e1, e2));
        assert!(!cross_enclave(e1, e1));
        assert!(!cross_enclave(e1, u));
        assert!(!cross_enclave(u, u));
    }

    #[test]
    fn mbox_requires_declared_pool() {
        let (mut b, a, c) = two_actor_builder();
        b.worker(&[a, c]);
        b.mbox("inbox", "nosuchpool", 8);
        assert!(b.build().is_err());
    }
}
