//! The EActors runtime: enclave creation, channel wiring, workers.
//!
//! [`Runtime::start`] instantiates a [`Deployment`] on a simulated SGX
//! [`Platform`]: it creates the enclaves, allocates all node arenas (in
//! the right memory region), establishes attested session keys for
//! cross-enclave channels, runs every actor's constructor inside its
//! protection domain, and finally spawns the workers.
//!
//! A **worker** is the framework abstraction for a POSIX thread (§3.2).
//! It executes its assigned actors' bodies round-robin; if all of them
//! live in the same enclave the worker never leaves it — zero transition
//! cost — whereas actors spread over several domains make the worker
//! migrate, paying crossings. That trade-off is the heart of the paper's
//! deployment experiments (Figures 16 and 17).
//!
//! Two scheduling refinements keep the worker loop cheap:
//!
//! * **Domain batching.** Each worker reorders its actors once at startup
//!   so all actors of one protection domain are contiguous (untrusted
//!   first, then enclaves in first-appearance order). A pass over actors
//!   spread across *k* domains then pays exactly *k* migrations instead
//!   of up to one per actor.
//! * **Idling bounded in time.** A worker measures how long it has been
//!   since its last busy pass and spins, then yields, then parks per the
//!   deployment's [`crate::config::IdlePolicy`] — a budget in
//!   microseconds, so it does not grow with the number of actors on the
//!   worker. The park is the **only** place a thread of the runtime
//!   blocks: one wait on the worker's slot of the runtime's
//!   [`crate::wake::WakeHub`] together with every kernel descriptor its
//!   actors declared ([`Ctx::watch_fd`]), for at most the earliest timer
//!   they armed ([`Ctx::wake_after`]); it is ended by a peer's
//!   `Mbox::send` to one of its actors, by one of those descriptors, or
//!   by that timer.
//!
//! The runtime also owns the deployment's observability: every worker
//! gets a fixed-size SPSC trace ring (preallocated here, in untrusted
//! memory, honouring the no-runtime-allocation rule), all reporting
//! counters live in one [`obs::MetricsRegistry`], and the
//! [`crate::collect::CollectorActor`] drains the rings. The
//! [`WorkerReport`] fields are read back from the registry — the worker
//! loop increments registry counters directly, so there is exactly one
//! owner and one read path per statistic.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sgx_sim::{attest, switch_domain, CostHandle, Domain, Enclave, Platform};

use crate::actor::{Actor, ActorId, Control, Ctx, StopToken};
use crate::arena::{self, Arena, MagazineStats, Mbox, MboxKind};
use crate::channel::{ChannelEnd, ChannelPair};
use crate::config::{cross_enclave, Deployment, Placement};
use crate::error::ConfigError;
use crate::wake::{self, ParkEnd, WakeHub, WorkerParker};

/// Per-worker execution statistics, reported by [`Runtime::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (declaration order).
    pub worker: usize,
    /// Total body executions, per assigned actor (name, count).
    pub executions: Vec<(String, u64)>,
    /// Full round-robin passes over the assigned actors.
    pub passes: u64,
    /// Passes in which no actor reported progress (the worker yielded).
    pub idle_passes: u64,
    /// Enclave boundary crossings this worker paid while migrating
    /// between its actors' domains (an enclave-to-enclave hop counts 2).
    pub transitions: u64,
    /// Domain switches between consecutively scheduled actors. With
    /// domain batching this is at most the number of distinct domains
    /// per pass.
    pub migrations: u64,
    /// Times this worker parked on the wake hub.
    pub parks: u64,
    /// Parks that ended in a wake event — a notify or a declared kernel
    /// descriptor turning readable — rather than an armed timer or the
    /// policy's bound (`worker_<i>_park_ends_{fd,timer,cap}` in the
    /// registry split the parks further).
    pub wakes: u64,
    /// Encrypted channel frames received by this worker's actors that
    /// failed authentication — forged or bit-flipped traffic, summed
    /// over the actors' channel endpoints.
    pub tampered_frames: u64,
    /// Authentic channel frames this worker's actors rejected at the
    /// typed codec layer (see [`crate::wire`]).
    pub corrupt_frames: u64,
}

/// What a finished runtime reports.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// One report per worker.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock time between start and the last worker exiting.
    pub elapsed: Duration,
    /// Final snapshot of the metrics registry, taken after the residual
    /// trace drain. The per-worker fields above are views of the same
    /// counters (`worker_<i>_passes` and friends); the snapshot
    /// additionally carries actor execution histograms, port/channel
    /// statistics and event totals, plus the JSON and Prometheus
    /// exporters.
    pub metrics: obs::MetricsSnapshot,
}

impl RuntimeReport {
    /// Total body executions across all workers and actors.
    pub fn total_executions(&self) -> u64 {
        self.workers
            .iter()
            .flat_map(|w| w.executions.iter().map(|(_, n)| n))
            .sum()
    }
}

/// Events one worker can buffer before the collector must drain; beyond
/// this, new events are counted as `trace_dropped` rather than blocking
/// the worker (tracing must never add synchronisation to the hot path).
const TRACE_RING_CAPACITY: usize = 4096;

/// One actor scheduled on a worker: the boxed actor, its context and
/// scheduling state. `pub(crate)` because entries travel between workers
/// through the placement layer's handoff slots during a migration epoch.
pub(crate) struct WorkerEntry {
    pub(crate) actor: Box<dyn Actor>,
    pub(crate) ctx: Ctx,
    pub(crate) parked: bool,
    /// Body execution time, log2 buckets (`actor_<name>_exec_cycles`).
    pub(crate) exec_hist: Arc<obs::Log2Hist>,
}

impl std::fmt::Debug for WorkerEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerEntry")
            .field("actor", &self.ctx.name)
            .field("parked", &self.parked)
            .finish_non_exhaustive()
    }
}

/// Order `entries` into the domain-batched schedule: bucket the actors
/// by protection domain (untrusted first, then enclaves by first
/// appearance, declaration order preserved within a domain) so one pass
/// over k domains pays k migrations instead of up to one per actor.
/// Re-applied after every placement migration — adopted actors join the
/// batch of their domain instead of appending an extra crossing.
fn sort_domain_batched(entries: &mut [WorkerEntry]) {
    let mut domain_order: Vec<Domain> = Vec::new();
    for e in entries.iter() {
        if !domain_order.contains(&e.ctx.domain) {
            domain_order.push(e.ctx.domain);
        }
    }
    domain_order.sort_by_key(|d| d.is_trusted());
    entries.sort_by_key(|e| {
        domain_order
            .iter()
            .position(|d| *d == e.ctx.domain)
            .expect("every entry domain was collected")
    });
}

/// What one round-robin pass over a worker's actors observed.
struct PassOutcome {
    any_busy: bool,
    all_parked: bool,
    stopped: bool,
}

/// Per-worker migration statistics threaded through [`run_pass`]. The
/// counters are registry entries (`worker_<i>_transitions` etc.), shared
/// rather than copied, so reports and exporters observe the live values.
struct PassCounters {
    transitions: Arc<obs::Counter>,
    migrations: Arc<obs::Counter>,
    /// Measured wall cost of each paying domain switch, in sim cycles
    /// (`worker_<i>_transition_cycles`).
    transition_cycles: Arc<obs::Log2Hist>,
}

/// Execute one round-robin pass: migrate to each live actor's domain,
/// run its body, tally crossings. Also used as the mandatory re-poll
/// between `WakeHub::prepare_park` and `WakeHub::park`.
fn run_pass(
    entries: &mut [WorkerEntry],
    stop: &StopToken,
    costs: &CostHandle,
    counters: &PassCounters,
) -> PassOutcome {
    let mut any_busy = false;
    let mut all_parked = true;
    // One relaxed load per pass decides whether to pay for clock reads
    // and ring pushes at all.
    let traced = cfg!(feature = "trace") && obs::enabled();
    for entry in entries.iter_mut() {
        if entry.parked {
            continue;
        }
        all_parked = false;
        // Migrate to the actor's domain; free when the previous actor
        // shared it (the domain-batched order makes that the common case).
        let crossings = sgx_sim::current_domain().crossings_to(entry.ctx.domain);
        if crossings > 0 {
            counters.transitions.add(u64::from(crossings));
            counters.migrations.inc();
            let before = if traced { obs::clock::now_cycles() } else { 0 };
            switch_domain(costs, entry.ctx.domain);
            if traced {
                let cost = obs::clock::now_cycles().saturating_sub(before);
                counters.transition_cycles.record(cost);
                obs::emit(
                    obs::EventKind::DomainCross,
                    entry.ctx.id.as_raw() as u16,
                    u64::from(crossings),
                    cost,
                );
            }
        } else {
            switch_domain(costs, entry.ctx.domain);
        }
        entry.ctx.executions.inc();
        let began = if traced { obs::clock::now_cycles() } else { 0 };
        match entry.actor.body(&mut entry.ctx) {
            Control::Busy => any_busy = true,
            Control::Idle => {}
            Control::Park => entry.parked = true,
        }
        if traced {
            let spent = obs::clock::now_cycles().saturating_sub(began);
            entry.exec_hist.record(spent);
            obs::emit(
                obs::EventKind::ExecEnd,
                entry.ctx.id.as_raw() as u16,
                spent,
                0,
            );
        }
        if stop.is_stopped() {
            return PassOutcome {
                any_busy,
                all_parked: false,
                stopped: true,
            };
        }
    }
    PassOutcome {
        any_busy,
        all_parked,
        stopped: false,
    }
}

/// A running EActors deployment.
///
/// Dropping a `Runtime` without calling [`Runtime::join`] signals stop
/// and detaches the workers. Prefer `join` (or [`Runtime::run_for`]) so
/// reports are collected.
///
/// # Examples
///
/// ```
/// use eactors::prelude::*;
/// use sgx_sim::Platform;
///
/// struct Once;
/// impl Actor for Once {
///     fn body(&mut self, _ctx: &mut Ctx) -> Control {
///         Control::Park
///     }
/// }
///
/// let platform = Platform::builder().build();
/// let mut b = DeploymentBuilder::new();
/// let e = b.enclave("only");
/// let a = b.actor("once", Placement::Enclave(e), Once);
/// b.worker(&[a]);
/// let runtime = Runtime::start(&platform, b.build()?)?;
/// let report = runtime.join();
/// assert_eq!(report.total_executions(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Runtime {
    stop: StopToken,
    hub: Arc<WakeHub>,
    obs: Arc<obs::ObsHub>,
    handles: Vec<std::thread::JoinHandle<WorkerReport>>,
    enclaves: Vec<Enclave>,
    mboxes: Arc<HashMap<String, Arc<Mbox>>>,
    arenas: Arc<HashMap<String, Arc<Arena>>>,
    placement: Arc<crate::placement::PlacementControl>,
    started: Instant,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.handles.len())
            .field("enclaves", &self.enclaves.len())
            .field("stopped", &self.stop.is_stopped())
            .finish()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // A dropped runtime must not leave workers spinning or parked:
        // signal stop and wake every sleeper; the detached threads observe
        // the flag on their next pass and exit.
        self.stop.stop();
        self.hub.notify();
    }
}

impl Runtime {
    /// Instantiate `deployment` on `platform` and start all workers.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Sgx`] if enclave creation or channel attestation
    /// fails (e.g. an EPC hard limit is exceeded).
    pub fn start(platform: &Platform, deployment: Deployment) -> Result<Self, ConfigError> {
        let stop = StopToken::new();
        let hub = WakeHub::with_workers(deployment.workers.len());
        let idle = deployment.idle;
        let costs = platform.costs();

        // Observability: the EACTORS_OBS env knob, one hub (and one
        // metrics registry) per runtime. Everything below registers its
        // counters here; trace rings are preallocated in step 6.
        obs::init_from_env();
        let obs_hub = obs::ObsHub::new();
        let registry = obs_hub.registry();
        hub.register_obs(registry);
        // Process-wide substrate counters, surfaced through this
        // runtime's registry: global-freelist CAS retries (magazine
        // efficiency) and single-side mbox protocol violations.
        registry.register_counter(
            "arena_freelist_cas_retries",
            Arc::clone(arena::freelist_cas_retries()),
        );
        registry.register_counter(
            "mbox_cardinality_violations",
            Arc::clone(arena::mbox_cardinality_violations()),
        );

        // 1. Enclaves.
        let mut enclaves = Vec::with_capacity(deployment.enclaves.len());
        for e in &deployment.enclaves {
            enclaves.push(platform.create_enclave(&e.name, e.base_bytes)?);
        }

        // 2. Named shared pools and mboxes.
        let mut arenas: HashMap<String, Arc<Arena>> = HashMap::new();
        for p in &deployment.pools {
            let arena = Arena::new(&p.name, p.nodes, p.payload);
            if let Placement::Enclave(slot) = p.region {
                enclaves[slot.0].grow(arena.memory_bytes());
            }
            arenas.insert(p.name.clone(), arena);
        }
        let mut mboxes: HashMap<String, Arc<Mbox>> = HashMap::new();
        let mut port_stats: HashMap<String, Arc<crate::wire::PortStats>> = HashMap::new();
        let mut port_types: HashMap<String, &'static str> = HashMap::new();
        let kind_selected = |kind: MboxKind| {
            let name = match kind {
                MboxKind::Spsc => "mbox_spsc_selected",
                MboxKind::Mpsc => "mbox_mpsc_selected",
                MboxKind::Mpmc => "mbox_mpmc_selected",
            };
            registry.counter(name).inc();
        };
        // Named mboxes in declaration order, parallel to the plan's
        // `mbox_kinds` — the placement leader re-selects their cursor
        // protocols through this vector at each migration barrier.
        let mut named_mboxes: Vec<Arc<Mbox>> = Vec::with_capacity(deployment.mboxes.len());
        for (mi, m) in deployment.mboxes.iter().enumerate() {
            let pool = arenas
                .get(&m.pool)
                .expect("validated by DeploymentBuilder::build");
            let kind = deployment.plan.mbox_kinds()[mi];
            kind_selected(kind);
            let mbox = Mbox::with_kind(pool.clone(), m.capacity, kind);
            named_mboxes.push(Arc::clone(&mbox));
            mboxes.insert(m.name.clone(), mbox);
            // One shared stats block per named mbox: every Ctx::port on
            // this name aggregates into the same counters, which are the
            // registry's `port_<name>_*` entries.
            let stats: Arc<crate::wire::PortStats> = Arc::new(Default::default());
            stats.register(registry, &format!("port_{}", m.name));
            port_stats.insert(m.name.clone(), stats);
            if let Some(message) = m.message {
                port_types.insert(m.name.clone(), message);
            }
        }

        // 3. Channels: allocate the arena in the right region, attest and
        // derive session keys for cross-enclave pairs.
        let mut actor_channels: Vec<Vec<ChannelEnd>> =
            (0..deployment.actors.len()).map(|_| Vec::new()).collect();
        for (ci, c) in deployment.channels.iter().enumerate() {
            let pa = deployment.actors[c.a.0].placement;
            let pb = deployment.actors[c.b.0].placement;
            let arena = Arena::new(&format!("channel#{ci}"), c.options.nodes, c.options.payload);
            match (pa, pb) {
                // Same enclave: the arena lives in that enclave's memory.
                (Placement::Enclave(x), Placement::Enclave(y)) if x == y => {
                    enclaves[x.0].grow(arena.memory_bytes());
                }
                // Otherwise the nodes live in untrusted shared memory.
                _ => {}
            }
            let encrypted =
                c.options.policy == crate::config::EncryptionPolicy::Auto && cross_enclave(pa, pb);
            let pair = if encrypted {
                let (ea, eb) = match (pa, pb) {
                    (Placement::Enclave(x), Placement::Enclave(y)) => {
                        (&enclaves[x.0], &enclaves[y.0])
                    }
                    _ => unreachable!("cross_enclave implies two enclave placements"),
                };
                let key = attest::establish_session(ea, eb, ci as u64)?;
                ChannelPair::encrypted_on_workers(ci as u32, arena, &key, costs.clone())
            } else {
                ChannelPair::plaintext_on_workers(ci as u32, arena)
            };
            // Each channel direction has exactly one producing and one
            // consuming actor, each pinned to a single worker — the
            // `_on_workers` constructors above therefore use the proven
            // SPSC mbox protocol for both directions.
            kind_selected(MboxKind::Spsc);
            kind_selected(MboxKind::Spsc);
            let (end_a, end_b) = pair.into_ends();
            end_a.register_obs(registry, &format!("channel{ci}a"));
            end_b.register_obs(registry, &format!("channel{ci}b"));
            actor_channels[c.a.0].push(end_a);
            actor_channels[c.b.0].push(end_b);
        }

        // 4. Build per-actor contexts. The placement control is shared by
        // every context (actors may inspect or, on dynamic deployments,
        // re-plan the placement) and by the worker loops below.
        let placement = crate::placement::PlacementControl::new(
            Arc::clone(&deployment.spec),
            deployment.plan.clone(),
            deployment.dynamic,
            named_mboxes,
            Arc::clone(&hub),
            stop.clone(),
            registry,
        );
        let mboxes = Arc::new(mboxes);
        let port_stats = Arc::new(port_stats);
        let port_types = Arc::new(port_types);
        let arenas = Arc::new(arenas);
        let mut ctxs: Vec<Option<Ctx>> = Vec::new();
        let mut channel_iter = actor_channels.into_iter();
        for (ai, a) in deployment.actors.iter().enumerate() {
            let (domain, enclave) = match a.placement {
                Placement::Untrusted => (Domain::Untrusted, None),
                Placement::Enclave(slot) => {
                    let e = enclaves[slot.0].clone();
                    (e.domain(), Some(e))
                }
            };
            ctxs.push(Some(Ctx {
                id: ActorId(ai as u32),
                name: a.name.clone(),
                domain,
                enclave,
                channels: channel_iter.next().expect("one channel vec per actor"),
                mboxes: Arc::clone(&mboxes),
                port_stats: Arc::clone(&port_stats),
                port_types: Arc::clone(&port_types),
                arenas: Arc::clone(&arenas),
                stop: stop.clone(),
                costs: costs.clone(),
                wake: Arc::clone(&hub),
                obs: Arc::clone(&obs_hub),
                placement: Arc::clone(&placement),
                idle,
                executions: registry.counter(&format!("actor_{}_executions", a.name)),
                wait_fds: Vec::new(),
                event_driven: false,
                wake_in: None,
            }));
        }

        // 5. Run constructors inside each actor's protection domain.
        let mut actors: Vec<Option<Box<dyn Actor>>> = deployment
            .actors
            .into_iter()
            .map(|a| Some(a.actor))
            .collect();
        for ai in 0..actors.len() {
            let ctx = ctxs[ai].as_mut().expect("ctx present until moved");
            let actor = actors[ai].as_mut().expect("actor present until moved");
            let prev = switch_domain(&costs, ctx.domain);
            actor.ctor(ctx);
            switch_domain(&costs, prev);
        }

        // 6. Spawn workers.
        let started = Instant::now();
        let mut handles = Vec::with_capacity(deployment.workers.len());
        for (wi, w) in deployment.workers.iter().enumerate() {
            let mut entries: Vec<WorkerEntry> = w
                .actors
                .iter()
                .map(|slot| {
                    let ctx = ctxs[slot.0].take().expect("single assignment validated");
                    let exec_hist = registry.hist(&format!("actor_{}_exec_cycles", ctx.name));
                    WorkerEntry {
                        actor: actors[slot.0].take().expect("single assignment validated"),
                        ctx,
                        parked: false,
                        exec_hist,
                    }
                })
                .collect();
            sort_domain_batched(&mut entries);
            // Worker statistics are live registry counters — the loop
            // below increments them in place and the report reads them
            // back, so `Runtime::metrics` observes running workers.
            let counters = PassCounters {
                transitions: registry.counter(&format!("worker_{wi}_transitions")),
                migrations: registry.counter(&format!("worker_{wi}_migrations")),
                transition_cycles: registry.hist(&format!("worker_{wi}_transition_cycles")),
            };
            let c_passes = registry.counter(&format!("worker_{wi}_passes"));
            let c_idle_passes = registry.counter(&format!("worker_{wi}_idle_passes"));
            let c_parks = registry.counter(&format!("worker_{wi}_parks"));
            let c_wakes = registry.counter(&format!("worker_{wi}_wakes"));
            // How each park ended: `wakes` are the notifies plus the
            // descriptors; the rest ran to an actor's timer or to the
            // policy's bound. (Names must not end in `_parks`/`_wakes`:
            // readers sum those suffixes over the workers.)
            let c_ends_fd = registry.counter(&format!("worker_{wi}_park_ends_fd"));
            let c_ends_timer = registry.counter(&format!("worker_{wi}_park_ends_timer"));
            let c_ends_cap = registry.counter(&format!("worker_{wi}_park_ends_cap"));
            // Wakes whose first pass found no actor with work.
            let c_empty_wakes = registry.counter(&format!("worker_{wi}_empty_wakes"));
            // Parks that also waited on a declared kernel descriptor.
            let c_net_park_waits = registry.counter("net_park_waits");
            // The trace ring is preallocated *here*, at deployment time,
            // in untrusted memory (like mboxes): the producing side emits
            // from inside enclaves without transitions or allocations.
            let (ring_producer, ring_consumer) = obs::TraceRing::with_capacity(TRACE_RING_CAPACITY);
            obs_hub.register_ring(wi as u16, ring_consumer);
            let queue_delay = registry.hist(&format!("worker_{wi}_queue_delay_cycles"));
            // Per-worker node magazine statistics live in the registry
            // under this worker's prefix, so hot-path increments stay on
            // this worker's cache lines.
            let magazine_stats =
                MagazineStats::default().register(registry, &format!("worker_{wi}"));
            let stop = stop.clone();
            let costs = costs.clone();
            let hub = Arc::clone(&hub);
            let placement = Arc::clone(&placement);
            let dynamic = deployment.dynamic;
            let cpu = w.cpu;
            let handle = std::thread::Builder::new()
                .name(format!("eactors-worker-{wi}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_to_cpu(cpu);
                    }
                    // Register this runtime's hub so Mbox::send on this
                    // thread wakes this runtime's parked workers, and the
                    // trace ring so mbox/channel layers can emit events
                    // without carrying handles through every call.
                    wake::set_current(Arc::clone(&hub));
                    obs::install_thread(ring_producer, Arc::clone(&queue_delay), wi as u16);
                    // Mark this thread as a runtime worker (enables
                    // single-side mbox protocol policing, and lets sends
                    // to the mboxes it drains wake this worker alone) and
                    // install its node magazines so steady-state
                    // alloc/free stays off the shared freelists.
                    arena::set_worker_token(hub.worker_token(wi));
                    arena::install_magazines(magazine_stats);
                    let mut parker = WorkerParker::new(Arc::clone(&hub), wi);
                    let mut just_woken = false;
                    // When the current run of idle passes began.
                    let mut idle_since: Option<Instant> = None;
                    let mut local_epoch = 0u64;
                    let yield_until = idle.spin_for.saturating_add(idle.yield_for);
                    while !stop.is_stopped() {
                        // Migration safe point: between passes, outside
                        // any actor body. Leave the enclave before
                        // blocking at the barrier, hand off departing
                        // actors, adopt incoming ones, re-batch.
                        if dynamic && placement.epoch_changed(local_epoch) {
                            switch_domain(&costs, Domain::Untrusted);
                            local_epoch = placement.rebalance(wi, &mut entries);
                            sort_domain_batched(&mut entries);
                            idle_since = None;
                            continue;
                        }
                        let out = run_pass(&mut entries, &stop, &costs, &counters);
                        c_passes.inc();
                        if out.stopped {
                            break;
                        }
                        // A static worker whose actors all parked exits;
                        // a dynamic one stays (idle, eventually parked on
                        // the hub) — a later plan may migrate live actors
                        // onto it, and the migration barrier counts it.
                        if out.all_parked && !dynamic {
                            break;
                        }
                        if std::mem::take(&mut just_woken) && !out.any_busy {
                            c_empty_wakes.inc();
                        }
                        if out.any_busy {
                            idle_since = None;
                            continue;
                        }
                        c_idle_passes.inc();
                        // The one clock read of an idle pass; a busy pass
                        // reads none.
                        let now = Instant::now();
                        let idle_for = now.duration_since(*idle_since.get_or_insert(now));
                        if idle_for < idle.spin_for {
                            std::hint::spin_loop();
                        } else if idle_for < yield_until {
                            std::thread::yield_now();
                        } else {
                            // Park tier. The wait covers the kernel
                            // descriptors of the live entries (collected
                            // afresh: entries retire and migrate); timers
                            // are forgotten here and armed again by the
                            // bodies of the re-poll below.
                            parker.clear_sources();
                            for e in entries.iter_mut().filter(|e| !e.parked) {
                                e.ctx.wake_in = None;
                                for &fd in &e.ctx.wait_fds {
                                    parker.add_source(fd);
                                }
                            }
                            // Register as a sleeper first, then re-poll
                            // every actor once: a send racing with the
                            // idle decision is either seen by that re-poll
                            // or its notify ends the park at once (see
                            // crate::wake for the protocol).
                            parker.prepare();
                            // A plan or a stop published between the
                            // loop-top checks and here must not be slept
                            // through: their notify claims a registered
                            // sleeper, and this re-check covers the one
                            // that registered too late to be seen.
                            if stop.is_stopped()
                                || (dynamic && placement.epoch_changed(local_epoch))
                            {
                                parker.cancel();
                                continue;
                            }
                            let out = run_pass(&mut entries, &stop, &costs, &counters);
                            c_passes.inc();
                            if out.stopped || (out.all_parked && !dynamic) {
                                parker.cancel();
                                break;
                            }
                            if out.any_busy {
                                parker.cancel();
                                idle_since = None;
                                continue;
                            }
                            c_idle_passes.inc();
                            // How long the sleep may last: to the earliest
                            // timer a body just armed, but no longer than
                            // the policy allows — the long cap only when
                            // every live actor declared its inputs,
                            // `park_timeout` as soon as one must be polled.
                            let mut declared = true;
                            let mut timer: Option<Duration> = None;
                            for e in entries.iter().filter(|e| !e.parked) {
                                declared &= e.ctx.event_driven;
                                if let Some(t) = e.ctx.wake_in {
                                    timer = Some(timer.map_or(t, |earliest| earliest.min(t)));
                                }
                            }
                            let bound = if declared {
                                Some(idle.net_park_cap)
                            } else {
                                idle.park_timeout
                            };
                            let timer_first = timer.is_some_and(|t| bound.map_or(true, |b| t <= b));
                            let timeout = if timer_first { timer } else { bound };
                            // Sleep outside any enclave: a blocked thread
                            // must not squat in enclave mode.
                            switch_domain(&costs, Domain::Untrusted);
                            // A parked worker must not squat on cached
                            // nodes either: peers starved of nodes could
                            // otherwise never send the wake-up message.
                            arena::drain_magazines();
                            c_parks.inc();
                            if parker.has_sources() {
                                c_net_park_waits.inc();
                            }
                            if cfg!(feature = "trace") {
                                obs::emit(obs::EventKind::Park, wi as u16, 0, 0);
                            }
                            let end = parker.park(timeout);
                            let woken = end != ParkEnd::TimedOut;
                            if woken {
                                c_wakes.inc();
                                just_woken = true;
                            }
                            match end {
                                ParkEnd::Notified => {}
                                ParkEnd::Descriptor => c_ends_fd.inc(),
                                ParkEnd::TimedOut if timer_first => c_ends_timer.inc(),
                                ParkEnd::TimedOut => c_ends_cap.inc(),
                            }
                            if cfg!(feature = "trace") {
                                obs::emit(obs::EventKind::Wake, wi as u16, u64::from(woken), 0);
                            }
                        }
                    }
                    switch_domain(&costs, Domain::Untrusted);
                    // Return every cached node to its global freelist
                    // before the thread exits: after join, free counts
                    // must equal the preallocated totals.
                    arena::uninstall_magazines();
                    arena::clear_worker_token();
                    obs::clear_thread();
                    WorkerReport {
                        worker: wi,
                        executions: entries
                            .iter()
                            .map(|e| (e.ctx.name.clone(), e.ctx.executions.get()))
                            .collect(),
                        passes: c_passes.get(),
                        idle_passes: c_idle_passes.get(),
                        transitions: counters.transitions.get(),
                        migrations: counters.migrations.get(),
                        parks: c_parks.get(),
                        wakes: c_wakes.get(),
                        tampered_frames: entries
                            .iter()
                            .flat_map(|e| e.ctx.channels.iter())
                            .map(|c| c.tampered_frames())
                            .sum(),
                        corrupt_frames: entries
                            .iter()
                            .flat_map(|e| e.ctx.channels.iter())
                            .map(|c| c.corrupt_frames())
                            .sum(),
                    }
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }

        Ok(Runtime {
            stop,
            hub,
            obs: obs_hub,
            handles,
            enclaves,
            mboxes,
            arenas,
            placement,
            started,
        })
    }

    /// The runtime's placement layer: read the current
    /// [`crate::placement::PlacementPlan`], and on deployments built with
    /// [`crate::config::DeploymentBuilder::dynamic_placement`] submit new
    /// plans ([`crate::placement::PlacementControl::submit`]) that migrate
    /// actors between workers at the next safe point.
    pub fn placement(&self) -> &Arc<crate::placement::PlacementControl> {
        &self.placement
    }

    /// The deployment's observability hub: ring registry plus the
    /// [`obs::MetricsRegistry`] every subsystem registered with. Clone
    /// the `Arc` to keep reading metrics after [`Runtime::join`].
    pub fn obs_hub(&self) -> &Arc<obs::ObsHub> {
        &self.obs
    }

    /// Drain any outstanding trace events and snapshot every counter and
    /// histogram. Safe to call while workers run (values are live) — but
    /// not concurrently with a deployed [`crate::collect::CollectorActor`]
    /// body, whose poll this duplicates.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.obs.poll();
        self.obs.registry().snapshot()
    }

    /// The stop token observed by all workers.
    ///
    /// Prefer [`Runtime::shutdown`] to stop the runtime: `stop()` on the
    /// token from a non-worker thread cannot wake parked workers, which
    /// then only notice the flag on their next (possibly timed-out) wake.
    pub fn stop_token(&self) -> StopToken {
        self.stop.clone()
    }

    /// Signal all workers to stop after their current pass, waking any
    /// that are parked.
    pub fn shutdown(&self) {
        self.stop.stop();
        // StopToken::stop only notifies the *caller's* hub (none on a
        // driver thread); wake this runtime's sleepers explicitly.
        self.hub.notify();
    }

    /// Number of workers currently parked (or committing to park) on the
    /// wake hub. Tests and benchmarks use this to wait for quiescence.
    pub fn sleeping_workers(&self) -> usize {
        self.hub.sleepers()
    }

    /// A named shared mbox declared in the deployment.
    pub fn mbox(&self, name: &str) -> Option<&Arc<Mbox>> {
        self.mboxes.get(name)
    }

    /// A named shared pool declared in the deployment.
    pub fn arena(&self, name: &str) -> Option<&Arc<Arena>> {
        self.arenas.get(name)
    }

    /// The instantiated enclaves, in declaration order.
    pub fn enclaves(&self) -> &[Enclave] {
        &self.enclaves
    }

    /// Wait until every worker exits (all actors parked, or a shutdown was
    /// signalled) and collect the report.
    pub fn join(mut self) -> RuntimeReport {
        let workers = std::mem::take(&mut self.handles)
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        // Residual drain: events emitted after the collector's last body
        // (or in deployments without one) still reach the registry.
        self.obs.poll();
        RuntimeReport {
            workers,
            elapsed: self.started.elapsed(),
            metrics: self.obs.registry().snapshot(),
        }
    }

    /// Let the deployment run for `duration`, then stop and join.
    pub fn run_for(self, duration: Duration) -> RuntimeReport {
        std::thread::sleep(duration);
        self.shutdown();
        self.join()
    }
}

/// Pin the calling thread to `cpu` (Linux only; no-op elsewhere or on
/// failure).
///
/// Issues the `sched_setaffinity` system call directly — the kernel ABI
/// (a 1024-bit CPU mask, tid 0 = caller) is stable, and going straight to
/// the syscall keeps the runtime free of C bindings.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn pin_to_cpu(cpu: usize) {
    const SETSIZE_BITS: usize = 1024;
    let mut mask = [0u64; SETSIZE_BITS / 64];
    let cpu = cpu % SETSIZE_BITS;
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    // Safety: the mask is properly sized and aligned and outlives the
    // call; pinning is best-effort, so the return value is ignored.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        {
            let mut ret: isize = 203; // __NR_sched_setaffinity
            std::arch::asm!(
                "syscall",
                inlateout("rax") ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            let _ = ret;
        }
        #[cfg(target_arch = "aarch64")]
        {
            let mut ret: usize = 0;
            std::arch::asm!(
                "svc 0",
                in("x8") 122usize, // __NR_sched_setaffinity
                inlateout("x0") ret,
                in("x1") std::mem::size_of_val(&mask),
                in("x2") mask.as_ptr(),
                options(nostack),
            );
            let _ = ret;
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn pin_to_cpu(_cpu: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::from_fn;
    use crate::config::{DeploymentBuilder, Placement};
    use sgx_sim::CostModel;

    fn platform() -> Platform {
        Platform::builder().cost_model(CostModel::zero()).build()
    }

    #[test]
    fn ping_pong_across_enclaves() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e1 = b.enclave("left");
        let e2 = b.enclave("right");

        let rounds = 100u32;
        let mut sent = 0u32;
        let mut first = true;
        let ping = b.actor(
            "ping",
            Placement::Enclave(e1),
            from_fn(move |ctx| {
                let mut buf = [0u8; 64];
                if first {
                    first = false;
                } else {
                    match ctx.channel(0).try_recv(&mut buf) {
                        Ok(Some(_)) => {}
                        _ => return Control::Idle,
                    }
                }
                if sent == rounds {
                    ctx.shutdown();
                    return Control::Park;
                }
                sent += 1;
                ctx.channel(0).send(b"ping").unwrap();
                Control::Busy
            }),
        );
        let pong = b.actor(
            "pong",
            Placement::Enclave(e2),
            from_fn(move |ctx| {
                let mut buf = [0u8; 64];
                match ctx.channel(0).try_recv(&mut buf) {
                    Ok(Some(n)) => {
                        assert_eq!(&buf[..n], b"ping");
                        ctx.channel(0).send(b"pong").unwrap();
                        Control::Busy
                    }
                    _ => Control::Idle,
                }
            }),
        );
        b.channel(ping, pong);
        b.worker(&[ping]);
        b.worker(&[pong]);

        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let report = rt.join();
        assert!(report.total_executions() > 0);
    }

    #[test]
    fn worker_confined_to_one_enclave_never_transitions_after_start() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e = b.enclave("only");
        let mut n = 0;
        let a = b.actor(
            "counter",
            Placement::Enclave(e),
            from_fn(move |_ctx| {
                n += 1;
                if n >= 1000 {
                    Control::Park
                } else {
                    Control::Busy
                }
            }),
        );
        b.worker(&[a]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let after_start = p.stats().transitions();
        let report = rt.join();
        // Worker enters once and exits once; 1000 bodies add nothing.
        assert!(p.stats().transitions() - after_start <= 2);
        assert_eq!(report.total_executions(), 1000);
    }

    #[test]
    fn worker_spanning_two_enclaves_pays_per_pass() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e1 = b.enclave("a");
        let e2 = b.enclave("b");
        let mk = |limit: u32| {
            let mut n = 0;
            from_fn(move |_ctx| {
                n += 1;
                if n >= limit {
                    Control::Park
                } else {
                    Control::Busy
                }
            })
        };
        let a = b.actor("a1", Placement::Enclave(e1), mk(100));
        let c = b.actor("a2", Placement::Enclave(e2), mk(100));
        b.worker(&[a, c]);
        let base = p.stats().transitions();
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let report = rt.join();
        // Each pass migrates e1 -> e2 (2 crossings) and back (2 more).
        assert!(p.stats().transitions() - base >= 100 * 2);
        // Domain batching: exactly 2 migrations per pass (into e1, into
        // e2), never more. Both actors stay Busy until they park at pass
        // 100, so the schedule is fully deterministic.
        let w = &report.workers[0];
        assert_eq!(w.migrations, 2 * 100);
        // First pass enters e1 from untrusted (1 crossing) then hops to
        // e2 (2); every later pass pays two enclave hops (4).
        assert_eq!(w.transitions, 3 + 99 * 4);
    }

    #[test]
    fn domain_batching_caps_crossings_at_k_plus_one_per_pass() {
        // Six actors over k = 3 domains, declared maximally interleaved:
        // [u, e1, e2, u, e1, e2]. Unbatched, one pass would pay
        // 1+2+1+1+2 = 7 crossings; batched ([u u e1 e1 e2 e2]) it pays
        // e2 -> u -> e1 -> e2 = 4 = k + 1.
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e1 = b.enclave("a");
        let e2 = b.enclave("b");
        let mk = || {
            let mut n = 0;
            from_fn(move |_ctx| {
                n += 1;
                if n >= 50 {
                    Control::Park
                } else {
                    Control::Busy
                }
            })
        };
        let slots = [
            b.actor("u1", Placement::Untrusted, mk()),
            b.actor("t1", Placement::Enclave(e1), mk()),
            b.actor("s1", Placement::Enclave(e2), mk()),
            b.actor("u2", Placement::Untrusted, mk()),
            b.actor("t2", Placement::Enclave(e1), mk()),
            b.actor("s2", Placement::Enclave(e2), mk()),
        ];
        b.worker(&slots);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let report = rt.join();
        let w = &report.workers[0];
        // 50 productive passes plus one final pass that observes every
        // actor parked (running no bodies, paying no crossings).
        assert_eq!(w.passes, 51);
        assert!(
            w.transitions <= 4 * w.passes,
            "k=3 domains must cost at most k+1 crossings per pass, got {} over {} passes",
            w.transitions,
            w.passes
        );
        // Exactly: the first pass starts untrusted (0 + 1 + 2 = 3), the
        // remaining 49 wrap around from e2 (1 + 1 + 2 = 4).
        assert_eq!(w.transitions, 3 + 49 * 4);
        assert_eq!(w.migrations, 2 + 49 * 3);
    }

    #[test]
    fn wake_on_send_resumes_parked_worker() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.idle_policy(crate::config::IdlePolicy::park_immediately());
        b.pool("pool", Placement::Untrusted, 8, 64);
        b.mbox("inbox", "pool", 8);

        // The producer spins until it *observes* the consumer's worker
        // parked, then sends one message. Only a wake event can deliver
        // it: park_immediately has no timeout.
        let producer = b.actor(
            "producer",
            Placement::Untrusted,
            from_fn(|ctx| {
                if ctx.sleeping_workers() == 0 {
                    return Control::Busy;
                }
                let pool = ctx.arena("pool").unwrap().clone();
                let mbox = ctx.mbox("inbox").unwrap().clone();
                let mut node = pool.try_pop().unwrap();
                node.write(b"wake up");
                mbox.send(node).unwrap();
                Control::Park
            }),
        );
        let consumer = b.actor(
            "consumer",
            Placement::Untrusted,
            from_fn(|ctx| {
                let mbox = ctx.mbox("inbox").unwrap().clone();
                match mbox.recv() {
                    Some(node) => {
                        assert_eq!(node.bytes(), b"wake up");
                        ctx.shutdown();
                        Control::Park
                    }
                    None => Control::Idle,
                }
            }),
        );
        b.worker(&[producer]);
        b.worker(&[consumer]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let report = rt.join();
        let consumer_worker = &report.workers[1];
        assert!(consumer_worker.parks >= 1, "consumer must have parked");
        assert!(
            consumer_worker.wakes >= 1,
            "consumer must have been woken by the send, not a timeout"
        );
    }

    #[test]
    fn a_send_wakes_only_the_consumers_worker() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.idle_policy(crate::config::IdlePolicy::park_immediately());
        b.pool("pool", Placement::Untrusted, 8, 64);
        let delivered = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicBool::new(false));

        // Worker 0 waits until workers 1 and 2 are past their pre-park
        // re-poll (`parks` is counted after it; with no timeout only a
        // wake can end those parks), then sends one message to the mbox
        // worker 1 drains.
        let flag = Arc::clone(&sent);
        let producer = b.actor(
            "producer",
            Placement::Untrusted,
            from_fn(move |ctx| {
                let registry = ctx.obs_hub().registry();
                let parked = |w| registry.counter_value(&format!("worker_{w}_parks")) == Some(1);
                if !(parked(1) && parked(2)) {
                    return Control::Busy;
                }
                let mut node = ctx.arena("pool").unwrap().try_pop().unwrap();
                node.write(b"for worker 1");
                ctx.mbox("inbox").unwrap().send(node).unwrap();
                flag.store(true, Ordering::SeqCst);
                Control::Park
            }),
        );
        let flag = Arc::clone(&delivered);
        let consumer = b.actor(
            "consumer",
            Placement::Untrusted,
            from_fn(move |ctx| match ctx.mbox("inbox").unwrap().recv() {
                Some(_) => {
                    flag.store(true, Ordering::SeqCst);
                    Control::Busy
                }
                None => Control::Idle,
            }),
        );
        let bystander = b.actor(
            "bystander",
            Placement::Untrusted,
            from_fn(|_| Control::Idle),
        );
        // One producer, one consumer: the builder proves the mbox SPSC,
        // whose consumer side records the draining worker.
        b.mbox_bound("inbox", "pool", 8, &[producer], &[consumer]);
        b.worker(&[producer]);
        b.worker(&[consumer]);
        b.worker(&[bystander]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        // The wake is counted after it is signalled: wait for the send
        // to return as well as for the message to arrive.
        while !(delivered.load(Ordering::SeqCst) && sent.load(Ordering::SeqCst)) {
            std::thread::yield_now();
        }
        let metrics = rt.metrics();
        assert_eq!(metrics.counter("worker_1_wakes"), Some(1));
        assert_eq!(metrics.counter("worker_2_parks"), Some(1));
        assert_eq!(
            metrics.counter("worker_2_wakes"),
            Some(0),
            "a send to worker 1's mbox must leave parked worker 2 asleep"
        );
        assert_eq!(metrics.counter("wake_directed"), Some(1));
        assert_eq!(metrics.counter("wake_broadcast"), Some(0));
        assert_eq!(metrics.counter("wake_notifies"), Some(1));
        assert_eq!(metrics.counter("worker_1_empty_wakes"), Some(0));
        // Shutdown is a broadcast: it does reach the bystander.
        rt.shutdown();
        let report = rt.join();
        assert_eq!(report.workers[2].wakes, 1);
        assert_eq!(report.metrics.counter("wake_broadcast"), Some(1));
    }

    #[test]
    fn parked_workers_charge_no_transitions() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.idle_policy(crate::config::IdlePolicy::park_immediately());
        let e1 = b.enclave("a");
        let e2 = b.enclave("b");
        // Two always-idle enclave actors: the worker migrates while
        // polling, then parks — and a parked worker must stop paying.
        let a = b.actor("i1", Placement::Enclave(e1), from_fn(|_| Control::Idle));
        let c = b.actor("i2", Placement::Enclave(e2), from_fn(|_| Control::Idle));
        b.worker(&[a, c]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        while rt.sleeping_workers() < 1 {
            std::thread::yield_now();
        }
        // Let the worker finish its pre-park re-poll and actually block.
        std::thread::sleep(Duration::from_millis(10));
        let parked_at = p.stats().transitions();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            p.stats().transitions(),
            parked_at,
            "a parked worker must not keep crossing enclave boundaries"
        );
        rt.shutdown();
        let report = rt.join();
        assert!(report.workers[0].parks >= 1);
    }

    #[test]
    fn ctor_runs_in_actor_domain() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e = b.enclave("home");

        struct DomainCheck {
            expected_trusted: bool,
        }
        impl Actor for DomainCheck {
            fn ctor(&mut self, ctx: &mut Ctx) {
                assert_eq!(
                    sgx_sim::current_domain().is_trusted(),
                    self.expected_trusted
                );
                assert_eq!(sgx_sim::current_domain(), ctx.domain());
            }
            fn body(&mut self, _ctx: &mut Ctx) -> Control {
                Control::Park
            }
        }

        let t = b.actor(
            "trusted",
            Placement::Enclave(e),
            DomainCheck {
                expected_trusted: true,
            },
        );
        let u = b.actor(
            "untrusted",
            Placement::Untrusted,
            DomainCheck {
                expected_trusted: false,
            },
        );
        b.worker(&[t, u]);
        Runtime::start(&p, b.build().unwrap()).unwrap().join();
    }

    #[test]
    fn named_mbox_and_pool_are_shared() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.pool("shared", Placement::Untrusted, 16, 64);
        b.mbox("inbox", "shared", 16);

        let producer = b.actor(
            "producer",
            Placement::Untrusted,
            from_fn(|ctx| {
                let pool = ctx.arena("shared").unwrap().clone();
                let mbox = ctx.mbox("inbox").unwrap().clone();
                let mut node = pool.try_pop().unwrap();
                node.write(b"hello");
                mbox.send(node).unwrap();
                Control::Park
            }),
        );
        let consumer = b.actor(
            "consumer",
            Placement::Untrusted,
            from_fn(|ctx| {
                let mbox = ctx.mbox("inbox").unwrap().clone();
                match mbox.recv() {
                    Some(node) => {
                        assert_eq!(node.bytes(), b"hello");
                        ctx.shutdown();
                        Control::Park
                    }
                    None => Control::Idle,
                }
            }),
        );
        b.worker(&[producer]);
        b.worker(&[consumer]);
        Runtime::start(&p, b.build().unwrap()).unwrap().join();
    }

    #[test]
    fn runtime_exposes_handles() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.pool("pool", Placement::Untrusted, 4, 32);
        b.mbox("mb", "pool", 4);
        let a = b.actor("a", Placement::Untrusted, from_fn(|_| Control::Park));
        b.worker(&[a]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        assert!(rt.mbox("mb").is_some());
        assert!(rt.arena("pool").is_some());
        assert!(rt.mbox("nope").is_none());
        assert!(!format!("{rt:?}").is_empty());
        rt.join();
    }

    #[test]
    fn shutdown_stops_busy_actors() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let a = b.actor("spinner", Placement::Untrusted, from_fn(|_| Control::Busy));
        b.worker(&[a]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        rt.shutdown();
        let report = rt.join();
        assert!(report.total_executions() > 0);
    }

    #[test]
    fn enclave_channel_arena_grows_enclave_memory() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let e = b.enclave_sized("big", 4096);
        let x = b.actor("x", Placement::Enclave(e), from_fn(|_| Control::Park));
        let y = b.actor("y", Placement::Enclave(e), from_fn(|_| Control::Park));
        b.channel(x, y);
        b.worker(&[x, y]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        // Same-enclave channel nodes live inside the enclave.
        assert!(rt.enclaves()[0].memory_bytes() > 4096);
        rt.join();
    }

    /// An endless ping-pong pair for migration tests: ping re-sends on
    /// every pong, so traffic flows until shutdown.
    fn echo_pair(
        b: &mut DeploymentBuilder,
    ) -> (crate::config::ActorSlot, crate::config::ActorSlot) {
        let mut first = true;
        let ping = b.actor(
            "ping",
            Placement::Untrusted,
            from_fn(move |ctx| {
                let mut buf = [0u8; 64];
                if first {
                    first = false;
                    ctx.channel(0).send(b"ping").unwrap();
                    return Control::Busy;
                }
                match ctx.channel(0).try_recv(&mut buf) {
                    Ok(Some(_)) => {
                        let _ = ctx.channel(0).send(b"ping");
                        Control::Busy
                    }
                    _ => Control::Idle,
                }
            }),
        );
        let pong = b.actor(
            "pong",
            Placement::Untrusted,
            from_fn(move |ctx| {
                let mut buf = [0u8; 64];
                match ctx.channel(0).try_recv(&mut buf) {
                    Ok(Some(_)) => {
                        let _ = ctx.channel(0).send(b"pong");
                        Control::Busy
                    }
                    _ => Control::Idle,
                }
            }),
        );
        b.channel(ping, pong);
        (ping, pong)
    }

    #[test]
    fn live_migration_moves_actors_and_traffic_continues() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.dynamic_placement();
        let (ping, pong) = echo_pair(&mut b);
        let keeper = b.actor("keeper", Placement::Untrusted, from_fn(|_| Control::Idle));
        b.worker(&[ping, pong]);
        b.worker(&[keeper]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let control = Arc::clone(rt.placement());
        assert!(control.dynamic());
        assert_eq!(control.current_plan().version(), 0);

        // Move pong (actor 1) to worker 1, then back, checking traffic
        // flows across each epoch.
        for (epoch, plan) in [[0u32, 1, 1], [0, 0, 1]].iter().enumerate() {
            let before = rt.metrics().counter("channel0a_sent_frames").unwrap_or(0);
            let target = control.submit(plan.to_vec()).unwrap();
            assert!(
                control.wait_applied(target, Duration::from_secs(10)),
                "epoch {} not applied",
                epoch + 1
            );
            assert_eq!(control.applied_epoch(), epoch as u64 + 1);
            assert_eq!(control.current_plan().version(), epoch as u64 + 1);
            assert_eq!(control.current_plan().assignment(), plan);
            // Traffic must resume on the new placement.
            let deadline = Instant::now() + Duration::from_secs(10);
            while rt.metrics().counter("channel0a_sent_frames").unwrap_or(0) <= before {
                assert!(Instant::now() < deadline, "no traffic after migration");
                std::thread::yield_now();
            }
        }
        let metrics = rt.metrics();
        assert_eq!(metrics.counter("placement_epochs_applied"), Some(2));
        assert_eq!(metrics.counter("placement_migrations"), Some(2));
        assert_eq!(metrics.counter("mbox_cardinality_violations"), Some(0));
        rt.shutdown();
        rt.join();
    }

    #[test]
    fn static_runtime_rejects_submissions() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        let a = b.actor("a", Placement::Untrusted, from_fn(|_| Control::Park));
        b.worker(&[a]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        assert!(matches!(
            rt.placement().submit(vec![0]),
            Err(crate::placement::PlanError::Static)
        ));
        rt.join();
    }

    #[test]
    fn migration_reselects_mbox_protocol_and_keeps_messages() {
        use crate::arena::MboxKind;
        let p = platform();
        let mut b = DeploymentBuilder::new();
        b.dynamic_placement();
        // Two producers on one worker + one consumer on the other: the
        // build-time proof selects SPSC; splitting the producers across
        // workers must downgrade it to MPSC at the migration barrier.
        let p1 = b.actor("p1", Placement::Untrusted, from_fn(|_| Control::Idle));
        let p2 = b.actor("p2", Placement::Untrusted, from_fn(|_| Control::Idle));
        let c1 = b.actor("c1", Placement::Untrusted, from_fn(|_| Control::Idle));
        b.pool("pool", Placement::Untrusted, 16, 64);
        b.mbox_bound("inbox", "pool", 16, &[p1, p2], &[c1]);
        b.worker(&[p1, p2]);
        b.worker(&[c1]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let mbox = Arc::clone(rt.mbox("inbox").unwrap());
        assert_eq!(mbox.kind(), MboxKind::Spsc);
        // Queue messages before the re-key: they must survive it.
        let arena = Arc::clone(rt.arena("pool").unwrap());
        for i in 0..3u8 {
            let mut node = arena.try_pop().unwrap();
            node.write(&[i]);
            mbox.send(node).unwrap();
        }
        let control = Arc::clone(rt.placement());
        let target = control.submit(vec![0, 1, 1]).unwrap();
        assert!(control.wait_applied(target, Duration::from_secs(10)));
        assert_eq!(mbox.kind(), MboxKind::Mpsc);
        assert_eq!(
            rt.metrics().counter("placement_reselections"),
            Some(1),
            "exactly the inbox changed protocol"
        );
        for i in 0..3u8 {
            let node = mbox.recv().expect("message survived the re-key");
            assert_eq!(node.bytes(), &[i]);
        }
        assert!(mbox.recv().is_none());
        rt.shutdown();
        rt.join();
    }

    #[test]
    fn planner_actor_isolates_hot_pair_automatically() {
        let p = platform();
        let mut b = DeploymentBuilder::new();
        // A busy echo pair plus the planner, all initially crammed onto
        // worker 0 with worker 1 idle; the planner should move the pair
        // (or itself) so the hot pair no longer shares with the planner.
        let (ping, pong) = echo_pair(&mut b);
        let planner = b.planner(crate::placement::PlannerConfig {
            interval: Duration::from_millis(2),
            min_improvement: 0.01,
            ..Default::default()
        });
        let idle = b.actor("filler", Placement::Untrusted, from_fn(|_| Control::Idle));
        b.worker(&[ping, pong, planner]);
        b.worker(&[idle]);
        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let control = Arc::clone(rt.placement());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let plan = control.current_plan();
            let a = plan.assignment();
            if plan.version() > 0 && a[0] == a[1] {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "planner produced no improved plan; current {a:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        rt.shutdown();
        rt.join();
    }
}
