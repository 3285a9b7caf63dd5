//! The eactor programming model: actors, execution context, control flow.
//!
//! An eactor (§3.1 of the paper) is a self-contained computational entity
//! with a **constructor** (runs once at startup, initialises private state
//! and communication channels) and a **body** (executed repeatedly by its
//! worker, reacting to messages). Actors never share state; all
//! interaction flows through channels, mboxes and the object store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sgx_sim::{CostHandle, Domain, Enclave};

use crate::arena::{Arena, Mbox};
use crate::channel::ChannelEnd;
use crate::wire::{Port, PortStats, TypedChannelEnd, Wire};

/// Identifier of an actor within a deployment (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// The raw index.
    pub fn as_raw(&self) -> u32 {
        self.0
    }
}

/// What an actor's body reports back to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Work was done; schedule eagerly.
    Busy,
    /// Nothing to do this round; the worker may yield after a fully idle
    /// pass.
    Idle,
    /// Never schedule this actor again (its job is finished).
    Park,
}

/// An eactor: user-defined state plus a constructor and a body function.
///
/// Mirrors the paper's C API (Listing 1) in Rust: the struct fields are
/// the `state`, [`Actor::ctor`] is the constructor and [`Actor::body`] the
/// body function. Implementations must be `Send` — the actor moves to its
/// worker thread — but never need to be `Sync`, because a single worker
/// executes it.
///
/// # Examples
///
/// ```
/// use eactors::actor::{Actor, Control, Ctx};
///
/// struct Ping { first: bool }
///
/// impl Actor for Ping {
///     fn ctor(&mut self, _ctx: &mut Ctx) {
///         self.first = true;
///     }
///
///     fn body(&mut self, ctx: &mut Ctx) -> Control {
///         let mut buf = [0u8; 64];
///         if self.first {
///             self.first = false;
///         } else {
///             // Receive a pong, or yield if none arrived yet.
///             match ctx.channel(0).try_recv(&mut buf) {
///                 Ok(Some(_)) => {}
///                 _ => return Control::Idle,
///             }
///         }
///         let _ = ctx.channel(0).send(b"ping");
///         Control::Busy
///     }
/// }
/// ```
pub trait Actor: Send {
    /// One-time initialisation, executed in the actor's protection domain
    /// before any body runs. This is also where an actor says what can
    /// wake it ([`Ctx::event_driven`], [`Ctx::watch_fd`]); one that says
    /// nothing is polled every
    /// [`crate::config::IdlePolicy::park_timeout`].
    fn ctor(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// One scheduling quantum: poll inputs, react, send outputs.
    ///
    /// Must not block — blocked threads cannot leave an enclave without a
    /// costly transition, which is exactly what EActors avoids.
    fn body(&mut self, ctx: &mut Ctx) -> Control;
}

/// Cooperative shutdown flag shared by a runtime and its workers.
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    flag: Arc<AtomicBool>,
}

impl StopToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signal every observer to stop.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::Release);
        // A parked worker cannot observe the flag until it wakes; when
        // stop is signalled from a worker thread, nudge this runtime's
        // wake hub. (The runtime's own shutdown paths notify explicitly.)
        crate::wake::notify_current();
    }

    /// Whether stop has been signalled.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Everything the framework provides to an actor at execution time.
///
/// Handed to [`Actor::ctor`] and [`Actor::body`]. Owns the actor's channel
/// endpoints and shares the deployment's named mboxes and pools.
#[derive(Debug)]
pub struct Ctx {
    pub(crate) id: ActorId,
    pub(crate) name: String,
    pub(crate) domain: Domain,
    pub(crate) enclave: Option<Enclave>,
    pub(crate) channels: Vec<ChannelEnd>,
    pub(crate) mboxes: Arc<HashMap<String, Arc<Mbox>>>,
    pub(crate) port_stats: Arc<HashMap<String, Arc<PortStats>>>,
    pub(crate) port_types: Arc<HashMap<String, &'static str>>,
    pub(crate) arenas: Arc<HashMap<String, Arc<Arena>>>,
    pub(crate) stop: StopToken,
    pub(crate) costs: CostHandle,
    pub(crate) wake: Arc<crate::wake::WakeHub>,
    pub(crate) obs: Arc<obs::ObsHub>,
    pub(crate) placement: Arc<crate::placement::PlacementControl>,
    pub(crate) idle: crate::config::IdlePolicy,
    /// Shared with the metrics registry as `actor_<name>_executions`; the
    /// registry entry and this handle are the same counter, so reports and
    /// exporters read the value the worker loop increments.
    pub(crate) executions: Arc<obs::Counter>,
    /// Kernel descriptors declared through [`Ctx::watch_fd`].
    pub(crate) wait_fds: Vec<i32>,
    /// Set by [`Ctx::event_driven`] (and [`Ctx::watch_fd`]).
    pub(crate) event_driven: bool,
    /// The shortest timer armed through [`Ctx::wake_after`] since the
    /// worker last cleared it (before the re-poll that precedes a park).
    pub(crate) wake_in: Option<Duration>,
}

impl Ctx {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protection domain this actor executes in.
    ///
    /// The same actor code observes `Untrusted` or `Enclave(_)` purely
    /// depending on deployment configuration.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The enclave this actor is deployed into, if any.
    ///
    /// Grants access to enclave services: the trusted RNG, sealing,
    /// attestation.
    pub fn enclave(&self) -> Option<&Enclave> {
        self.enclave.as_ref()
    }

    /// The endpoint of the actor's `slot`-th channel (declaration order).
    ///
    /// # Panics
    ///
    /// Panics if the actor has no channel in that slot — a wiring bug best
    /// caught loudly.
    pub fn channel(&mut self, slot: usize) -> &mut ChannelEnd {
        let n = self.channels.len();
        self.channels
            .get_mut(slot)
            .unwrap_or_else(|| panic!("actor has {n} channels, no slot {slot}"))
    }

    /// Number of channels wired to this actor.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// A named shared mbox declared in the deployment, if present.
    pub fn mbox(&self, name: &str) -> Option<&Arc<Mbox>> {
        self.mboxes.get(name)
    }

    /// A typed [`Port`] over a named shared mbox, if declared.
    ///
    /// Every port handed out for the same mbox name shares one
    /// [`PortStats`], so send drops and corrupt frames aggregate per
    /// mbox across all the actors using it. If the deployment declared
    /// the mbox as a port of a specific wire type
    /// ([`crate::config::DeploymentBuilder::port`]), requesting a
    /// different type panics — a wiring bug best caught loudly.
    pub fn port<T: Wire + 'static>(&self, name: &str) -> Option<Port<T>> {
        let mbox = self.mboxes.get(name)?.clone();
        if let Some(declared) = self.port_types.get(name) {
            let requested = std::any::type_name::<T>();
            assert!(
                *declared == requested,
                "mbox {name:?} is declared as a port of {declared}, not {requested}"
            );
        }
        let stats = self
            .port_stats
            .get(name)
            .cloned()
            .unwrap_or_else(|| Arc::new(PortStats::default()));
        Some(Port::with_stats(mbox, stats))
    }

    /// The shared [`PortStats`] of a named mbox, if declared.
    pub fn port_stats(&self, name: &str) -> Option<&Arc<PortStats>> {
        self.port_stats.get(name)
    }

    /// The typed view of the actor's `slot`-th channel.
    ///
    /// # Panics
    ///
    /// Panics if the actor has no channel in that slot, like
    /// [`Ctx::channel`].
    pub fn typed_channel<T: Wire>(&mut self, slot: usize) -> TypedChannelEnd<'_, T> {
        self.channel(slot).typed()
    }

    /// A named shared pool (arena) declared in the deployment, if present.
    pub fn arena(&self, name: &str) -> Option<&Arc<Arena>> {
        self.arenas.get(name)
    }

    /// Signal the whole runtime to stop after the current pass.
    pub fn shutdown(&self) {
        self.stop.stop();
    }

    /// Whether a shutdown has been signalled.
    pub fn stopping(&self) -> bool {
        self.stop.is_stopped()
    }

    /// The cost handle of the underlying platform (for explicit charges in
    /// system actors, e.g. syscalls).
    pub fn costs(&self) -> &CostHandle {
        &self.costs
    }

    /// The deployment's idle policy.
    pub fn idle_policy(&self) -> crate::config::IdlePolicy {
        self.idle
    }

    /// How many times this actor's body has run so far.
    pub fn executions(&self) -> u64 {
        self.executions.get()
    }

    /// Number of this runtime's workers currently parked on the wake hub.
    ///
    /// Lets an actor observe whether its peers have gone idle — useful in
    /// tests and in producers that batch work until a consumer sleeps.
    pub fn sleeping_workers(&self) -> usize {
        self.wake.sleepers()
    }

    /// Promise, once and from [`Actor::ctor`], that this actor needs no
    /// polling: every input it reacts to either arrives through an mbox
    /// or channel (whose `send` wakes the consuming worker), makes a
    /// descriptor declared with [`Ctx::watch_fd`] readable, or is a
    /// deadline the body arms with [`Ctx::wake_after`]. That includes
    /// what the actor *owes*: a body holding a message it could not send
    /// (full mbox, exhausted pool) must report [`Control::Busy`] or arm a
    /// timer, because nothing notifies a producer when a consumer frees
    /// room.
    ///
    /// A worker whose live actors have all made the promise parks until
    /// one of those three things happens, bounded only by
    /// [`crate::config::IdlePolicy::net_park_cap`]. An actor that does
    /// not make it — any [`from_fn`] closure — has its worker wake every
    /// [`crate::config::IdlePolicy::park_timeout`] to poll it.
    pub fn event_driven(&mut self) {
        self.event_driven = true;
    }

    /// Declare, once and from [`Actor::ctor`], a pollable kernel object
    /// (an io_uring or epoll descriptor) this actor takes input from
    /// besides its mboxes. The worker executing the actor adds `fd` to
    /// the single wait it blocks in when all its actors are idle, so the
    /// descriptor turning readable wakes the worker exactly like a
    /// message enqueue does; the body then finds the event with a
    /// non-blocking poll. `fd` must stay open as long as the actor
    /// lives. Implies [`Ctx::event_driven`].
    pub fn watch_fd(&mut self, fd: i32) {
        self.wait_fds.push(fd);
        self.event_driven = true;
    }

    /// Ask, from [`Actor::body`], to be run again no later than `after`
    /// from now even if no message and no descriptor wakes the worker:
    /// if the worker parks after this pass, it sleeps at most that long.
    /// This is how an [`Ctx::event_driven`] actor serves what is
    /// genuinely polled (a drain interval, a sync period, a ring without
    /// a descriptor).
    ///
    /// The timer is one-shot and belongs to this execution: the worker
    /// forgets every timer before the last pass it makes ahead of a
    /// park, so a body arms it on every execution that still wants it —
    /// with the time *remaining* to its deadline, which the actor keeps
    /// itself. Of several calls the shortest wins.
    pub fn wake_after(&mut self, after: Duration) {
        self.wake_in = Some(self.wake_in.map_or(after, |armed| armed.min(after)));
    }

    /// The deployment's observability hub: trace-ring registry plus the
    /// [`obs::MetricsRegistry`] every subsystem registers its counters
    /// and histograms with. System actors (notably
    /// [`crate::collect::CollectorActor`]) capture a clone in their ctor.
    pub fn obs_hub(&self) -> &Arc<obs::ObsHub> {
        &self.obs
    }

    /// The runtime's placement layer: the current
    /// [`crate::placement::PlacementPlan`], its epoch counters, and —
    /// on deployments built with
    /// [`crate::config::DeploymentBuilder::dynamic_placement`] — the
    /// [`crate::placement::PlacementControl::submit`] entry point system
    /// actors (notably [`crate::placement::PlannerActor`]) use to
    /// migrate actors between workers.
    pub fn placement(&self) -> &Arc<crate::placement::PlacementControl> {
        &self.placement
    }
}

/// Convenience: build an actor from a closure (for tests, examples and
/// small glue actors).
///
/// # Examples
///
/// ```
/// use eactors::actor::{from_fn, Control};
///
/// let mut countdown = 3;
/// let _actor = from_fn(move |_ctx| {
///     if countdown == 0 {
///         return Control::Park;
///     }
///     countdown -= 1;
///     Control::Busy
/// });
/// ```
pub fn from_fn<F>(f: F) -> FnActor<F>
where
    F: FnMut(&mut Ctx) -> Control + Send,
{
    FnActor { f }
}

/// Adapter turning a closure into an [`Actor`]. Built by [`from_fn`].
pub struct FnActor<F> {
    f: F,
}

impl<F> std::fmt::Debug for FnActor<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnActor").finish_non_exhaustive()
    }
}

impl<F> Actor for FnActor<F>
where
    F: FnMut(&mut Ctx) -> Control + Send,
{
    fn body(&mut self, ctx: &mut Ctx) -> Control {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_token_signals_all_clones() {
        let t = StopToken::new();
        let c = t.clone();
        assert!(!c.is_stopped());
        t.stop();
        assert!(c.is_stopped());
    }

    #[test]
    fn control_is_comparable() {
        assert_eq!(Control::Busy, Control::Busy);
        assert_ne!(Control::Busy, Control::Idle);
        assert_ne!(Control::Idle, Control::Park);
    }

    #[test]
    fn actor_id_roundtrip() {
        assert_eq!(ActorId(4).as_raw(), 4);
    }
}
