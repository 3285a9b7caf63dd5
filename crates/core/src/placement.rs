//! Epoch-based placement: versioned actor→worker plans, offline planning
//! from metrics snapshots, and online migration at safe points.
//!
//! The paper's central claim is that actor placement is pure
//! *configuration* — yet a placement frozen at
//! [`crate::config::DeploymentBuilder::build`] must be guessed before the
//! workload is seen. This module splits a deployment into an immutable
//! topology ([`PlanSpec`]) and a mutable, versioned [`PlacementPlan`]
//! (the actor→worker map plus the per-mbox cursor-protocol proofs
//! derived from it), and provides two ways to produce new plans:
//!
//! * **offline** — [`plan_from_snapshot`] replays a recorded
//!   [`obs::MetricsSnapshot`] into a recommended map with predicted
//!   crossing counts, using a cost model over domain transitions,
//!   cross-worker traffic (queue delay) and load imbalance;
//! * **online** — a [`PlannerActor`] deployed like any system actor
//!   consumes registry snapshots each epoch and submits improved plans
//!   through [`PlacementControl::submit`]; the runtime's workers then
//!   migrate actors at the next safe point.
//!
//! # Safe-point protocol
//!
//! A submitted plan becomes the *pending* plan and bumps the target
//! epoch. Every worker observes the bump at the top of its pass loop
//! (parked workers are woken through
//! [`crate::wake::WakeHub::notify_force`]) and enters
//! [`PlacementControl::rebalance`]:
//!
//! 1. deposit every entry that moves away into the destination worker's
//!    handoff slot, resetting the worker-token claims of the channel
//!    mbox sides the migrating actor drives;
//! 2. flush its node magazines ([`crate::arena::drain_magazines`]) — a
//!    thread must not strand cached nodes across an ownership change;
//! 3. arrive at a barrier. The last worker to arrive becomes the
//!    **leader**: with every worker quiesced it re-proves and re-selects
//!    each named mbox's cursor protocol under the new placement
//!    ([`crate::arena::Mbox::reselect_kind`]), publishes the plan as
//!    current and stores the applied epoch;
//! 4. workers adopt their incoming entries, re-sort their domain-batched
//!    schedule and resume.
//!
//! Downgrades (SPSC→MPSC→MPMC) merely give up performance; upgrades are
//! only sound because step 3 runs strictly inside the barrier — no
//! cursor is mid-flight when the slot sequences are re-keyed. Outside a
//! barrier an upgrade would be unsound and is never performed.
//!
//! Non-worker threads (drivers using [`crate::Runtime::mbox`]) are bound
//! by the existing contract: their mbox access is sequential with worker
//! execution, which now includes migration epochs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::actor::{Actor, Control, Ctx, StopToken};
use crate::arena::{Mbox, MboxKind};
use crate::runtime::WorkerEntry;
use crate::wake::WakeHub;

/// Errors validating or submitting a placement plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The assignment length does not match the spec's actor count.
    WrongLength {
        /// Actors in the spec.
        expected: usize,
        /// Entries in the proposed assignment.
        got: usize,
    },
    /// An actor was assigned to a worker index that does not exist.
    WorkerOutOfRange {
        /// The offending actor index.
        actor: usize,
        /// The out-of-range worker.
        worker: usize,
        /// Number of workers in the spec.
        workers: usize,
    },
    /// A previous plan is still being applied; resubmit after it lands.
    Pending,
    /// The deployment was not built with dynamic placement
    /// ([`crate::config::DeploymentBuilder::dynamic_placement`]).
    Static,
    /// The runtime is shutting down.
    Stopped,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::WrongLength { expected, got } => {
                write!(f, "assignment covers {got} actors, spec has {expected}")
            }
            PlanError::WorkerOutOfRange {
                actor,
                worker,
                workers,
            } => write!(
                f,
                "actor {actor} assigned to worker {worker}, but only {workers} workers exist"
            ),
            PlanError::Pending => write!(f, "a submitted plan is still being applied"),
            PlanError::Static => write!(f, "deployment was built without dynamic placement"),
            PlanError::Stopped => write!(f, "runtime is stopping"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One actor of a [`PlanSpec`]: its name and protection domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanActor {
    /// Configured actor name (`actor_<name>_*` metric prefix).
    pub name: String,
    /// Enclave index (deployment declaration order), `None` = untrusted.
    pub enclave: Option<usize>,
}

/// One named mbox of a [`PlanSpec`]: the declared producer/consumer
/// actor roles its cursor-protocol proof is derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMbox {
    /// Mbox name (`port_<name>_*` metric prefix).
    pub name: String,
    /// Declared producing actors; `None` = any thread may send.
    pub producers: Option<Vec<usize>>,
    /// Declared consuming actors; `None` = any thread may receive.
    pub consumers: Option<Vec<usize>>,
}

/// The immutable topology a planner reasons over: actors with their
/// protection domains, the worker count, channel endpoints and declared
/// mbox roles. Extracted from the deployment at build time; placement
/// plans vary, the spec never does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpec {
    /// Declared actors, declaration order (= [`crate::actor::ActorId`]).
    pub actors: Vec<PlanActor>,
    /// Number of worker threads.
    pub workers: usize,
    /// Channel endpoint pairs `(actor_a, actor_b)`, declaration order
    /// (= the `channel<ci>{a,b}_*` metric prefixes).
    pub channels: Vec<(usize, usize)>,
    /// Named mboxes with their declared roles, declaration order.
    pub mboxes: Vec<PlanMbox>,
}

impl PlanSpec {
    /// Number of declared actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers
    }
}

/// Boundary crossings one full pass over a worker's actors pays under
/// domain batching: a cycle over `enclaves` distinct enclaves (plus the
/// untrusted domain if any actor is untrusted) costs `2 * enclaves`
/// crossings, except that a worker confined to one domain pays none.
fn worker_cycle_crossings(has_untrusted: bool, enclaves: usize) -> u64 {
    if enclaves == 0 || (enclaves == 1 && !has_untrusted) {
        0
    } else {
        2 * enclaves as u64
    }
}

/// A versioned actor→worker map plus the per-mbox cursor-protocol
/// proofs derived from it.
///
/// Plans are immutable once derived; the runtime swaps whole plans at
/// epoch boundaries. [`PlacementPlan::derive`] re-runs the same
/// cardinality proof that [`crate::config::DeploymentBuilder::build`]
/// performs for the initial placement, so a migrated deployment keeps
/// exactly the invariants a static one proves up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    pub(crate) version: u64,
    assignment: Vec<u32>,
    mbox_kinds: Vec<MboxKind>,
}

impl PlacementPlan {
    /// Validate `assignment` (actor index → worker index) against `spec`
    /// and derive the per-mbox cursor protocols it proves.
    ///
    /// # Errors
    ///
    /// [`PlanError::WrongLength`] / [`PlanError::WorkerOutOfRange`] when
    /// the assignment does not cover the spec.
    pub fn derive(spec: &PlanSpec, assignment: Vec<u32>) -> Result<PlacementPlan, PlanError> {
        if assignment.len() != spec.actors.len() {
            return Err(PlanError::WrongLength {
                expected: spec.actors.len(),
                got: assignment.len(),
            });
        }
        for (actor, &w) in assignment.iter().enumerate() {
            if w as usize >= spec.workers {
                return Err(PlanError::WorkerOutOfRange {
                    actor,
                    worker: w as usize,
                    workers: spec.workers,
                });
            }
        }
        let mbox_kinds = prove_mbox_kinds(spec, &assignment);
        Ok(PlacementPlan {
            version: 0,
            assignment,
            mbox_kinds,
        })
    }

    /// The plan's version: 0 for the initial build-time plan, the
    /// applying epoch for submitted plans.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The worker executing `actor` under this plan.
    pub fn worker_of(&self, actor: usize) -> usize {
        self.assignment[actor] as usize
    }

    /// The full actor→worker map.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The proven cursor protocol of every named mbox, declaration
    /// order.
    pub fn mbox_kinds(&self) -> &[MboxKind] {
        &self.mbox_kinds
    }

    /// Boundary crossings per full scheduling pass this plan predicts,
    /// summed over workers (domain batching assumed; see
    /// [`crate::runtime`]).
    pub fn predicted_crossings_per_pass(&self, spec: &PlanSpec) -> u64 {
        (0..spec.workers)
            .map(|w| {
                let mut has_untrusted = false;
                let mut enclaves: Vec<usize> = Vec::new();
                for (ai, a) in spec.actors.iter().enumerate() {
                    if self.assignment[ai] as usize != w {
                        continue;
                    }
                    match a.enclave {
                        None => has_untrusted = true,
                        Some(e) => {
                            if !enclaves.contains(&e) {
                                enclaves.push(e);
                            }
                        }
                    }
                }
                worker_cycle_crossings(has_untrusted, enclaves.len())
            })
            .sum()
    }

    /// The cost model: a dimensionless score combining normalized domain
    /// transitions, cross-worker traffic (which turns into queue delay)
    /// and load imbalance. Lower is better; only differences between
    /// plans over the *same* `spec` and `input` are meaningful.
    pub fn cost(&self, spec: &PlanSpec, input: &PlanInput, weights: &CostWeights) -> f64 {
        let crossings = self.predicted_crossings_per_pass(spec) as f64;
        let max_crossings = (2 * spec.actors.iter().filter(|a| a.enclave.is_some()).count()).max(1);
        let transition_term = crossings / max_crossings as f64;

        let total_traffic: u64 = input.channel_traffic.iter().sum::<u64>().max(1);
        let mut cross_traffic = 0u64;
        for (ci, &(a, b)) in spec.channels.iter().enumerate() {
            if self.assignment[a] != self.assignment[b] {
                cross_traffic += input.channel_traffic.get(ci).copied().unwrap_or(0);
            }
        }
        // Declared mbox role pairs that straddle workers add estimated
        // traffic (the registry has no per-mbox send counter; the
        // smaller endpoint's execution count bounds its throughput).
        for m in &spec.mboxes {
            if let (Some(ps), Some(cs)) = (&m.producers, &m.consumers) {
                for &p in ps {
                    for &c in cs {
                        if self.assignment[p] != self.assignment[c] {
                            cross_traffic += input
                                .actor_load
                                .get(p)
                                .copied()
                                .unwrap_or(0)
                                .min(input.actor_load.get(c).copied().unwrap_or(0));
                        }
                    }
                }
            }
        }
        let cross_term = cross_traffic as f64 / total_traffic as f64;

        let total_load: u64 = input.actor_load.iter().sum::<u64>().max(1);
        let mut worker_load = vec![0u64; spec.workers];
        for (ai, &w) in self.assignment.iter().enumerate() {
            worker_load[w as usize] += input.actor_load.get(ai).copied().unwrap_or(0);
        }
        let max_load = worker_load.iter().copied().max().unwrap_or(0) as f64;
        let imbalance_term = if spec.workers > 1 {
            let ideal = total_load as f64 / spec.workers as f64;
            ((max_load - ideal) / total_load as f64).max(0.0)
        } else {
            0.0
        };

        weights.transition * transition_term
            + weights.cross_worker * cross_term
            + weights.imbalance * imbalance_term
    }
}

/// Map the declared producer/consumer roles of every mbox in `spec`
/// onto the workers of `assignment` and prove each mbox's cardinality —
/// the same rules [`crate::config::DeploymentBuilder::build`] applies to
/// the initial placement: one producing and one consuming worker is
/// SPSC, a single consuming worker MPSC, anything else (including any
/// undeclared side that a driver thread may touch) the general MPMC.
pub(crate) fn prove_mbox_kinds(spec: &PlanSpec, assignment: &[u32]) -> Vec<MboxKind> {
    let distinct_workers = |slots: &[usize]| -> usize {
        let mut workers: Vec<u32> = Vec::new();
        for &ai in slots {
            let w = assignment[ai];
            if !workers.contains(&w) {
                workers.push(w);
            }
        }
        workers.len()
    };
    spec.mboxes
        .iter()
        .map(|m| match (&m.producers, &m.consumers) {
            (Some(p), Some(c)) => {
                let (pw, cw) = (distinct_workers(p), distinct_workers(c));
                if pw <= 1 && cw <= 1 {
                    MboxKind::Spsc
                } else if cw <= 1 {
                    MboxKind::Mpsc
                } else {
                    MboxKind::Mpmc
                }
            }
            (None, Some(c)) => {
                if distinct_workers(c) <= 1 {
                    MboxKind::Mpsc
                } else {
                    MboxKind::Mpmc
                }
            }
            // Producers known but consumers open: any thread may
            // receive, so only the general protocol is safe.
            (Some(_), None) | (None, None) => MboxKind::Mpmc,
        })
        .collect()
}

/// Relative weights of the three cost terms (each normalized to
/// roughly `0..=1` before weighting). The defaults favour eliminating
/// domain transitions and keeping chatty actors on one worker over
/// perfect load spread — the trade the paper's figure 16 measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of predicted boundary crossings per pass.
    pub transition: f64,
    /// Weight of message traffic crossing workers (queue delay).
    pub cross_worker: f64,
    /// Weight of worker load imbalance (lost parallelism).
    pub imbalance: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            transition: 1.0,
            cross_worker: 2.0,
            imbalance: 0.5,
        }
    }
}

/// The measured signals a plan is scored against, extracted from a
/// [`obs::MetricsSnapshot`] (offline: a whole recorded run; online: the
/// delta between two epoch snapshots).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanInput {
    /// Messages sent per channel (both directions summed), channel
    /// declaration order.
    pub channel_traffic: Vec<u64>,
    /// Body executions per actor, actor declaration order.
    pub actor_load: Vec<u64>,
}

impl PlanInput {
    /// Read the planner's signals out of `snapshot`: the
    /// `channel<ci>{a,b}_sent_frames` counters and the per-actor
    /// `actor_<name>_executions` counters.
    pub fn from_snapshot(spec: &PlanSpec, snapshot: &obs::MetricsSnapshot) -> PlanInput {
        let channel_traffic = (0..spec.channels.len())
            .map(|ci| {
                snapshot
                    .counter(&format!("channel{ci}a_sent_frames"))
                    .unwrap_or(0)
                    + snapshot
                        .counter(&format!("channel{ci}b_sent_frames"))
                        .unwrap_or(0)
            })
            .collect();
        let actor_load = spec
            .actors
            .iter()
            .map(|a| {
                snapshot
                    .counter(&format!("actor_{}_executions", a.name))
                    .unwrap_or(0)
            })
            .collect();
        PlanInput {
            channel_traffic,
            actor_load,
        }
    }

    /// The element-wise difference `later - self` (saturating), i.e. the
    /// traffic of one epoch given its boundary snapshots.
    pub fn delta(&self, later: &PlanInput) -> PlanInput {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            b.iter()
                .enumerate()
                .map(|(i, &v)| v.saturating_sub(a.get(i).copied().unwrap_or(0)))
                .collect()
        };
        PlanInput {
            channel_traffic: sub(&self.channel_traffic, &later.channel_traffic),
            actor_load: sub(&self.actor_load, &later.actor_load),
        }
    }

    /// Total channel messages in this input.
    pub fn total_traffic(&self) -> u64 {
        self.channel_traffic.iter().sum()
    }
}

/// A recommended plan with its score, returned by the planners.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The recommended plan.
    pub plan: PlacementPlan,
    /// Boundary crossings per pass the plan predicts.
    pub predicted_crossings_per_pass: u64,
    /// The plan's cost under the input it was planned for.
    pub cost: f64,
}

/// Offline planning: replay a recorded metrics snapshot (e.g. parsed
/// back from the JSON exporter via
/// [`obs::MetricsSnapshot::from_json`]) into a recommended placement.
pub fn plan_from_snapshot(spec: &PlanSpec, snapshot: &obs::MetricsSnapshot) -> Planned {
    plan_from_input(
        spec,
        &PlanInput::from_snapshot(spec, snapshot),
        &CostWeights::default(),
    )
}

/// Plan a placement for `spec` under the measured `input`.
///
/// Deterministic greedy clustering plus local search: chatty actor
/// pairs (by channel traffic, then declared mbox role pairs) are merged
/// into clusters unless that overloads a worker beyond what their
/// affinity justifies; clusters are then placed heaviest-first onto the
/// worker that minimizes the cost model, and a bounded sweep of
/// single-actor moves polishes the result.
pub fn plan_from_input(spec: &PlanSpec, input: &PlanInput, weights: &CostWeights) -> Planned {
    let n = spec.actors.len();
    let workers = spec.workers.max(1);

    // Affinity edges: (weight, a, b).
    let mut edges: Vec<(u64, usize, usize)> = Vec::new();
    for (ci, &(a, b)) in spec.channels.iter().enumerate() {
        let w = input.channel_traffic.get(ci).copied().unwrap_or(0);
        edges.push((w, a, b));
    }
    for m in &spec.mboxes {
        if let (Some(ps), Some(cs)) = (&m.producers, &m.consumers) {
            for &p in ps {
                for &c in cs {
                    let w = input
                        .actor_load
                        .get(p)
                        .copied()
                        .unwrap_or(0)
                        .min(input.actor_load.get(c).copied().unwrap_or(0));
                    edges.push((w, p, c));
                }
            }
        }
    }
    edges.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

    // Union-find clustering bounded by per-worker load, except that an
    // edge carrying most of its endpoints' activity always merges —
    // splitting a dedicated ping-pong pair across workers costs more
    // than any imbalance it fixes.
    let load = |ai: usize| input.actor_load.get(ai).copied().unwrap_or(0);
    let total_load: u64 = (0..n).map(load).sum();
    let cap = (total_load + total_load / 4) / workers as u64 + 1;
    let mut parent: Vec<usize> = (0..n).collect();
    let mut cluster_load: Vec<u64> = (0..n).map(load).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(w, a, b) in &edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            continue;
        }
        let merged = cluster_load[ra] + cluster_load[rb];
        let dominant = w > 0 && 2 * w >= load(a).min(load(b)).max(1);
        if merged <= cap || dominant {
            parent[rb] = ra;
            cluster_load[ra] = merged;
        }
    }

    // Gather clusters, heaviest first (stable on representative index).
    let mut clusters: Vec<(usize, Vec<usize>)> = Vec::new();
    for ai in 0..n {
        let r = find(&mut parent, ai);
        match clusters.iter_mut().find(|(rep, _)| *rep == r) {
            Some((_, members)) => members.push(ai),
            None => clusters.push((r, vec![ai])),
        }
    }
    clusters.sort_by(|a, b| {
        let (la, lb) = (cluster_load[a.0], cluster_load[b.0]);
        lb.cmp(&la).then(a.0.cmp(&b.0))
    });

    // Place clusters greedily onto the cost-minimizing worker.
    let mut assignment = vec![0u32; n];
    let mut placed: Vec<bool> = vec![false; n];
    for (_, members) in &clusters {
        let mut best = (f64::INFINITY, 0usize);
        for w in 0..workers {
            for &ai in members {
                assignment[ai] = w as u32;
            }
            // Score only over placed + this cluster: unplaced actors sit
            // on worker 0 by default, a harmless shared offset since
            // every candidate w sees the same residue.
            let plan = PlacementPlan {
                version: 0,
                assignment: assignment.clone(),
                mbox_kinds: Vec::new(),
            };
            let cost = plan.cost(spec, input, weights);
            if cost < best.0 {
                best = (cost, w);
            }
        }
        for &ai in members {
            assignment[ai] = best.1 as u32;
            placed[ai] = true;
        }
    }

    // Local search: bounded sweeps of single-actor moves.
    for _ in 0..3 {
        let mut improved = false;
        for ai in 0..n {
            let home = assignment[ai];
            let mut best = (
                PlacementPlan {
                    version: 0,
                    assignment: assignment.clone(),
                    mbox_kinds: Vec::new(),
                }
                .cost(spec, input, weights),
                home,
            );
            for w in 0..workers as u32 {
                if w == home {
                    continue;
                }
                assignment[ai] = w;
                let cost = PlacementPlan {
                    version: 0,
                    assignment: assignment.clone(),
                    mbox_kinds: Vec::new(),
                }
                .cost(spec, input, weights);
                if cost + 1e-12 < best.0 {
                    best = (cost, w);
                }
            }
            assignment[ai] = best.1;
            improved |= best.1 != home;
        }
        if !improved {
            break;
        }
    }

    let plan = PlacementPlan::derive(spec, assignment).expect("in-range by construction");
    let predicted = plan.predicted_crossings_per_pass(spec);
    let cost = plan.cost(spec, input, weights);
    Planned {
        plan,
        predicted_crossings_per_pass: predicted,
        cost,
    }
}

/// The runtime's shared placement state: the current and pending plans,
/// the epoch counters coordinating the migration barrier, and the
/// handoff slots entries travel through. One per
/// [`crate::runtime::Runtime`]; actors reach it via
/// [`crate::actor::Ctx::placement`], drivers via
/// [`crate::runtime::Runtime::placement`].
#[derive(Debug)]
pub struct PlacementControl {
    spec: Arc<PlanSpec>,
    dynamic: bool,
    current: Mutex<Arc<PlacementPlan>>,
    pending: Mutex<Option<Arc<PlacementPlan>>>,
    /// Epoch workers must reach; bumped by [`PlacementControl::submit`].
    target_epoch: AtomicU64,
    /// Epoch the leader last applied; equals `target_epoch` when no
    /// migration is in flight.
    applied_epoch: AtomicU64,
    /// Workers that reached the current barrier.
    arrived: AtomicUsize,
    /// Serializes leader election at the barrier.
    leader: Mutex<()>,
    /// Per-destination-worker handoff slots for migrating entries.
    pub(crate) handoff: Vec<Mutex<Vec<WorkerEntry>>>,
    /// Named mboxes in declaration order (parallel to
    /// [`PlacementPlan::mbox_kinds`]), re-keyed by the barrier leader.
    mboxes: Vec<Arc<Mbox>>,
    hub: Arc<WakeHub>,
    stop: StopToken,
    /// `placement_epochs_applied`: migrations completed.
    epochs_applied: Arc<obs::Counter>,
    /// `placement_migrations`: actor moves across all epochs.
    migrations: Arc<obs::Counter>,
    /// `placement_reselections`: mboxes whose cursor protocol changed.
    reselections: Arc<obs::Counter>,
    /// `placement_plan_version`: version of the current plan.
    plan_version: Arc<obs::Gauge>,
    /// `placement_predicted_crossings`: the current plan's predicted
    /// crossings per pass (fig16 compares this against measured
    /// transitions).
    predicted_crossings: Arc<obs::Gauge>,
}

impl PlacementControl {
    pub(crate) fn new(
        spec: Arc<PlanSpec>,
        initial: PlacementPlan,
        dynamic: bool,
        mboxes: Vec<Arc<Mbox>>,
        hub: Arc<WakeHub>,
        stop: StopToken,
        registry: &obs::MetricsRegistry,
    ) -> Arc<PlacementControl> {
        let workers = spec.workers;
        let predicted = initial.predicted_crossings_per_pass(&spec);
        let control = PlacementControl {
            spec,
            dynamic,
            current: Mutex::new(Arc::new(initial)),
            pending: Mutex::new(None),
            target_epoch: AtomicU64::new(0),
            applied_epoch: AtomicU64::new(0),
            arrived: AtomicUsize::new(0),
            leader: Mutex::new(()),
            handoff: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            mboxes,
            hub,
            stop,
            epochs_applied: registry.counter("placement_epochs_applied"),
            migrations: registry.counter("placement_migrations"),
            reselections: registry.counter("placement_reselections"),
            plan_version: registry.gauge("placement_plan_version"),
            predicted_crossings: registry.gauge("placement_predicted_crossings"),
        };
        control.plan_version.set(0);
        control.predicted_crossings.set(predicted);
        Arc::new(control)
    }

    /// The immutable topology plans are derived against.
    pub fn spec(&self) -> &Arc<PlanSpec> {
        &self.spec
    }

    /// Whether this deployment migrates actors at runtime. Static
    /// deployments still expose their (version 0) plan.
    pub fn dynamic(&self) -> bool {
        self.dynamic
    }

    /// The plan workers are currently executing.
    pub fn current_plan(&self) -> Arc<PlacementPlan> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The epoch of the last fully applied plan.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Acquire)
    }

    /// Whether a submitted plan has not yet been applied.
    pub fn pending(&self) -> bool {
        self.applied_epoch.load(Ordering::Acquire) != self.target_epoch.load(Ordering::Acquire)
    }

    /// Submit a new actor→worker assignment. Derives the mbox proofs,
    /// publishes the plan as pending and wakes every worker to the
    /// migration barrier. Returns the epoch at which the plan applies;
    /// poll [`PlacementControl::applied_epoch`] or call
    /// [`PlacementControl::wait_applied`] to observe completion.
    ///
    /// # Errors
    ///
    /// [`PlanError::Static`] on deployments without dynamic placement,
    /// [`PlanError::Pending`] while an earlier plan is mid-application,
    /// [`PlanError::Stopped`] during shutdown, and the
    /// [`PlacementPlan::derive`] validation errors.
    pub fn submit(&self, assignment: Vec<u32>) -> Result<u64, PlanError> {
        if !self.dynamic {
            return Err(PlanError::Static);
        }
        if self.stop.is_stopped() {
            return Err(PlanError::Stopped);
        }
        let mut plan = PlacementPlan::derive(&self.spec, assignment)?;
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        let target = self.target_epoch.load(Ordering::Acquire);
        if pending.is_some() || self.applied_epoch.load(Ordering::Acquire) != target {
            return Err(PlanError::Pending);
        }
        let next = target + 1;
        plan.version = next;
        *pending = Some(Arc::new(plan));
        drop(pending);
        self.target_epoch.store(next, Ordering::Release);
        // Force-wake: parked workers must reach the barrier even though
        // no message was sent (the eventcount's epoch is bumped
        // unconditionally so a worker mid-handshake cannot sleep
        // through the migration).
        self.hub.notify_force();
        Ok(next)
    }

    /// Block until `epoch` is applied or `timeout` elapses. Intended for
    /// tests and drivers; workers never call this.
    pub fn wait_applied(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_epoch.load(Ordering::Acquire) < epoch {
            if self.stop.is_stopped() || Instant::now() >= deadline {
                return self.applied_epoch.load(Ordering::Acquire) >= epoch;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Whether the worker-local epoch lags the target (one relaxed load;
    /// the worker loop polls this each pass when dynamic).
    #[inline]
    pub(crate) fn epoch_changed(&self, local: u64) -> bool {
        self.target_epoch.load(Ordering::Relaxed) != local
    }

    /// Worker-side migration handshake; see the module docs for the
    /// protocol. Returns the new local epoch. The caller must already
    /// have left any enclave (a thread must not block at the barrier in
    /// enclave mode) and re-sorts its domain-batched schedule after.
    pub(crate) fn rebalance(&self, wi: usize, entries: &mut Vec<WorkerEntry>) -> u64 {
        let target = self.target_epoch.load(Ordering::Acquire);
        let plan = {
            let pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            match pending.as_ref() {
                Some(p) => Arc::clone(p),
                // Shutdown raced the submit; adopt the epoch and move on.
                None => return target,
            }
        };
        // 1. Deposit departing entries (their mbox batches were fully
        // drained or retained inside the actor's own state — an entry
        // moves *between* body executions, never mid-body).
        let mut moved = 0u64;
        let mut i = 0;
        while i < entries.len() {
            let dest = plan.worker_of(entries[i].ctx.id.as_raw() as usize);
            if dest == wi {
                i += 1;
                continue;
            }
            let entry = entries.swap_remove(i);
            // The migrating actor's channel mbox sides are single-driven
            // by *this* (departing) worker; clear the worker-token
            // claims so the destination re-claims on first use.
            for ch in &entry.ctx.channels {
                ch.reset_placement_claims();
            }
            self.handoff[dest]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(entry);
            moved += 1;
        }
        if moved > 0 {
            self.migrations.add(moved);
        }
        // 2. Safe point: no cached nodes may cross an ownership change.
        crate::arena::drain_magazines();
        // 3. Barrier.
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            if self.applied_epoch.load(Ordering::Acquire) >= target {
                break;
            }
            if self.stop.is_stopped() {
                // Shutdown while the barrier forms: abandon the epoch;
                // entries stranded in handoff are dropped with the
                // runtime (their nodes return to the arenas).
                return target;
            }
            if self.arrived.load(Ordering::Acquire) >= self.spec.workers {
                if let Ok(_leader) = self.leader.try_lock() {
                    if self.applied_epoch.load(Ordering::Acquire) < target {
                        self.apply(target, &plan);
                    }
                    continue;
                }
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // 4. Adopt incoming entries.
        let mut incoming =
            std::mem::take(&mut *self.handoff[wi].lock().unwrap_or_else(|e| e.into_inner()));
        entries.append(&mut incoming);
        target
    }

    /// Leader-only: every live worker is quiesced at the barrier, so the
    /// mbox cursor protocols can be re-proved and re-keyed — including
    /// upgrades, which are only sound here.
    fn apply(&self, target: u64, plan: &Arc<PlacementPlan>) {
        for (mbox, &kind) in self.mboxes.iter().zip(plan.mbox_kinds()) {
            if mbox.kind() != kind {
                self.reselections.inc();
            }
            mbox.reselect_kind(kind);
        }
        self.plan_version.set(plan.version);
        self.predicted_crossings
            .set(plan.predicted_crossings_per_pass(&self.spec));
        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = Arc::clone(plan);
        *self.pending.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.arrived.store(0, Ordering::Release);
        self.epochs_applied.inc();
        self.applied_epoch.store(target, Ordering::Release);
        // Anyone who re-parked while the barrier formed observes the new
        // plan on their next pass; nudge them out now.
        self.hub.notify();
    }
}

/// Configuration of the online [`PlannerActor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Minimum wall time between replans (one registry snapshot each).
    pub interval: Duration,
    /// Hysteresis: a candidate plan must beat the current plan's cost by
    /// this fraction to be submitted (avoids migration thrash on noise).
    pub min_improvement: f64,
    /// Hysteresis in time: after submitting a plan, sit out this many
    /// planning intervals before submitting another. Traffic snapshots
    /// keep rolling during the cooldown, so the first post-cooldown plan
    /// still scores only fresh traffic — the knob bounds the migration
    /// *rate* without staling the planner's view. `0` replans every
    /// interval (the pre-cooldown behaviour).
    pub cooldown_intervals: u32,
    /// Cost model weights.
    pub weights: CostWeights,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            interval: Duration::from_millis(5),
            min_improvement: 0.1,
            cooldown_intervals: 0,
            weights: CostWeights::default(),
        }
    }
}

/// The PLANNER system actor: the online half of the placement layer.
///
/// Deployed like any actor (see
/// [`crate::config::DeploymentBuilder::planner`], which also enables
/// dynamic placement); each epoch it snapshots the metrics registry,
/// scores the current plan against the traffic of the elapsed epoch,
/// plans a better assignment with [`plan_from_input`] and submits it if
/// the improvement clears the configured hysteresis. Runs untrusted —
/// it touches only the untrusted metrics registry.
#[derive(Debug, Default)]
pub struct PlannerActor {
    config: PlannerConfig,
    state: Option<PlannerState>,
}

#[derive(Debug)]
struct PlannerState {
    control: Arc<PlacementControl>,
    obs: Arc<obs::ObsHub>,
    last_input: PlanInput,
    last_plan_at: Instant,
    /// Intervals left before another plan may be submitted.
    cooldown_left: u32,
}

impl PlannerActor {
    /// A planner with the given configuration.
    pub fn new(config: PlannerConfig) -> PlannerActor {
        PlannerActor {
            config,
            state: None,
        }
    }
}

impl Actor for PlannerActor {
    fn ctor(&mut self, ctx: &mut Ctx) {
        let control = Arc::clone(ctx.placement());
        let obs = Arc::clone(ctx.obs_hub());
        let last_input = PlanInput::from_snapshot(control.spec(), &obs.registry().snapshot());
        self.state = Some(PlannerState {
            control,
            obs,
            last_input,
            last_plan_at: Instant::now(),
            cooldown_left: 0,
        });
        // The planner's only input is its own interval.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let Some(state) = self.state.as_mut() else {
            return Control::Park;
        };
        let interval = self.config.interval;
        let waited = state.last_plan_at.elapsed();
        if waited < interval {
            ctx.wake_after(interval - waited);
            return Control::Idle;
        }
        // Every return below looks again an interval on; so does a plan
        // still being applied, whose completion nothing announces.
        ctx.wake_after(interval);
        if state.control.pending() {
            return Control::Idle;
        }
        let spec = Arc::clone(state.control.spec());
        let now = PlanInput::from_snapshot(&spec, &state.obs.registry().snapshot());
        let epoch_input = state.last_input.delta(&now);
        state.last_input = now;
        state.last_plan_at = Instant::now();
        if state.cooldown_left > 0 {
            // Cooling down: keep the traffic window rolling (done above)
            // but submit nothing this interval.
            state.cooldown_left -= 1;
            return Control::Idle;
        }
        if epoch_input.total_traffic() == 0 {
            return Control::Idle;
        }
        let candidate = plan_from_input(&spec, &epoch_input, &self.config.weights);
        let current = state.control.current_plan();
        let current_cost = current.cost(&spec, &epoch_input, &self.config.weights);
        if candidate.plan.assignment() != current.assignment()
            && candidate.cost < current_cost * (1.0 - self.config.min_improvement)
        {
            // Pending/Stopped races are benign: retry next epoch.
            if state
                .control
                .submit(candidate.plan.assignment().to_vec())
                .is_ok()
            {
                state.cooldown_left = self.config.cooldown_intervals;
            }
        }
        Control::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(actors: usize, workers: usize, enclaves: &[Option<usize>]) -> PlanSpec {
        PlanSpec {
            actors: (0..actors)
                .map(|i| PlanActor {
                    name: format!("a{i}"),
                    enclave: enclaves.get(i).copied().flatten(),
                })
                .collect(),
            workers,
            channels: Vec::new(),
            mboxes: Vec::new(),
        }
    }

    #[test]
    fn derive_validates_length_and_range() {
        let s = spec(2, 2, &[None, None]);
        assert!(matches!(
            PlacementPlan::derive(&s, vec![0]),
            Err(PlanError::WrongLength {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            PlacementPlan::derive(&s, vec![0, 5]),
            Err(PlanError::WorkerOutOfRange {
                actor: 1,
                worker: 5,
                workers: 2
            })
        ));
        let plan = PlacementPlan::derive(&s, vec![0, 1]).unwrap();
        assert_eq!(plan.worker_of(0), 0);
        assert_eq!(plan.worker_of(1), 1);
    }

    #[test]
    fn mbox_proofs_follow_the_assignment() {
        let mut s = spec(3, 2, &[None, None, None]);
        s.mboxes.push(PlanMbox {
            name: "inbox".into(),
            producers: Some(vec![0, 1]),
            consumers: Some(vec![2]),
        });
        // Producers on one worker, consumer on one: SPSC.
        let p = PlacementPlan::derive(&s, vec![0, 0, 1]).unwrap();
        assert_eq!(p.mbox_kinds(), &[MboxKind::Spsc]);
        // Producers split across workers: the proof degrades to MPSC.
        let p = PlacementPlan::derive(&s, vec![0, 1, 1]).unwrap();
        assert_eq!(p.mbox_kinds(), &[MboxKind::Mpsc]);
        // Consumer side undeclared: always MPMC.
        s.mboxes[0].consumers = None;
        let p = PlacementPlan::derive(&s, vec![0, 0, 1]).unwrap();
        assert_eq!(p.mbox_kinds(), &[MboxKind::Mpmc]);
    }

    #[test]
    fn predicted_crossings_per_pass_counts_domain_cycles() {
        // Two enclaves + one untrusted actor.
        let s = spec(3, 2, &[Some(0), Some(1), None]);
        // All on one worker: cycle over u, e0, e1 = 4 crossings.
        let p = PlacementPlan::derive(&s, vec![0, 0, 0]).unwrap();
        assert_eq!(p.predicted_crossings_per_pass(&s), 4);
        // Each enclave actor alone, untrusted with e0's worker: w0 pays
        // 2 (u<->e0), w1 pays 0 (confined to e1).
        let p = PlacementPlan::derive(&s, vec![0, 1, 0]).unwrap();
        assert_eq!(p.predicted_crossings_per_pass(&s), 2);
        // Enclave actors isolated per worker, untrusted on w1.
        let p = PlacementPlan::derive(&s, vec![0, 1, 1]).unwrap();
        assert_eq!(p.predicted_crossings_per_pass(&s), 2);
    }

    #[test]
    fn planner_co_locates_a_chatty_pair() {
        let mut s = spec(4, 2, &[Some(0), Some(0), Some(1), Some(1)]);
        s.channels.push((0, 1));
        s.channels.push((2, 3));
        let input = PlanInput {
            channel_traffic: vec![10_000, 9_000],
            actor_load: vec![10_000, 10_000, 9_000, 9_000],
        };
        let planned = plan_from_input(&s, &input, &CostWeights::default());
        let a = planned.plan.assignment();
        assert_eq!(a[0], a[1], "chatty pair 0-1 must share a worker");
        assert_eq!(a[2], a[3], "chatty pair 2-3 must share a worker");
        assert_ne!(a[0], a[2], "two busy pairs should use both workers");
        assert_eq!(planned.predicted_crossings_per_pass, 0);
    }

    #[test]
    fn planner_isolates_the_hot_pair_under_skew() {
        // Four pairs, each in its own enclave; pair 0 carries virtually
        // all the traffic. The planner should give it a worker of its
        // own rather than bundle it with cold pairs.
        let enclaves: Vec<Option<usize>> = (0..8).map(|i| Some(i / 2)).collect::<Vec<_>>();
        let mut s = spec(8, 2, &enclaves);
        for p in 0..4 {
            s.channels.push((2 * p, 2 * p + 1));
        }
        let input = PlanInput {
            channel_traffic: vec![100_000, 10, 10, 10],
            actor_load: vec![100_000, 100_000, 10, 10, 10, 10, 10, 10],
        };
        let planned = plan_from_input(&s, &input, &CostWeights::default());
        let a = planned.plan.assignment();
        assert_eq!(a[0], a[1], "hot pair stays together");
        let hot = a[0];
        for (cold, worker) in a.iter().enumerate().skip(2) {
            assert_ne!(
                *worker, hot,
                "cold actor {cold} must not share the hot pair's worker"
            );
        }
        // Hot worker confined to one enclave; the plan predicts zero
        // crossings for it.
        assert!(planned.predicted_crossings_per_pass <= 8);
    }

    #[test]
    fn plan_input_delta_saturates() {
        let a = PlanInput {
            channel_traffic: vec![10, 20],
            actor_load: vec![5],
        };
        let b = PlanInput {
            channel_traffic: vec![15, 18],
            actor_load: vec![9],
        };
        let d = a.delta(&b);
        assert_eq!(d.channel_traffic, vec![5, 0]);
        assert_eq!(d.actor_load, vec![4]);
        assert_eq!(d.total_traffic(), 5);
    }

    #[test]
    fn cost_prefers_co_location_of_traffic() {
        let mut s = spec(2, 2, &[None, None]);
        s.channels.push((0, 1));
        let input = PlanInput {
            channel_traffic: vec![1000],
            actor_load: vec![1000, 1000],
        };
        let together = PlacementPlan::derive(&s, vec![0, 0]).unwrap();
        let split = PlacementPlan::derive(&s, vec![0, 1]).unwrap();
        let w = CostWeights::default();
        assert!(
            together.cost(&s, &input, &w) < split.cost(&s, &input, &w),
            "all traffic crossing workers must cost more"
        );
    }

    #[test]
    fn plan_error_displays() {
        for e in [
            PlanError::WrongLength {
                expected: 2,
                got: 1,
            },
            PlanError::WorkerOutOfRange {
                actor: 0,
                worker: 9,
                workers: 2,
            },
            PlanError::Pending,
            PlanError::Static,
            PlanError::Stopped,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
