//! Wake-on-send worker parking: one slot per worker, woken by directed
//! notifies.
//!
//! A busy EActors worker polls its actors' inputs in a tight loop; when
//! every actor reports [`crate::actor::Control::Idle`] for long enough,
//! burning a core on empty polls is pure waste. The worker — and only
//! the worker, never an actor body — then *parks*: it blocks, outside
//! any enclave, until one of its actors has input again. [`WakeHub`]
//! holds one **slot per worker** for that.
//!
//! A worker with only mbox inputs sleeps on its slot's condition
//! variable. A worker whose actors declared kernel objects
//! ([`crate::actor::Ctx::watch_fd`]: an io_uring or epoll descriptor)
//! sleeps in a single `ppoll(2)` over those descriptors plus the slot's
//! eventfd, so a socket event and a message enqueue end the same wait.
//!
//! [`crate::arena::Mbox::send`] wakes **only the consumer's worker**: the
//! single-consumer mbox protocols record the consuming worker's token,
//! the token names a slot, and the send checks that one slot — a fence
//! and a load while that worker runs. Wakes whose target is unknown
//! (MPMC mboxes, no consumer seen yet), [`WakeHub::notify`] and
//! [`WakeHub::notify_force`] (shutdown, placement epochs) fall back to
//! waking every slot.
//!
//! One hub exists per [`crate::runtime::Runtime`]; worker threads register
//! it in a thread-local so the mbox layer can notify without carrying a
//! hub reference through every queue (mboxes are freely created outside
//! the runtime). A send from any other thread — a test driver, an
//! external poller, a worker of another runtime — misses that
//! thread-local and resolves the hub the consumer token names through a
//! process-wide registry of live hubs instead, so it wakes the consuming
//! worker all the same. What no sender can address is an mbox without a
//! recorded consumer (MPMC, or never received from) written by such a
//! thread; that, and inputs an actor polls without saying so, is what a
//! park's upper bound is for (see [`crate::config::IdlePolicy`]).
//!
//! # Protocol
//!
//! The classic eventcount handshake closes the race between "worker
//! decides queues are empty" and "sender enqueues right then":
//!
//! 1. worker: registers as sleeper (slot state `RUNNING` → `PARKED`),
//! 2. worker: polls **every** actor again,
//! 3. worker: if still idle, blocks until the slot turns `NOTIFIED`, a
//!    declared descriptor fires, or the timeout elapses.
//!
//! A sender either observes the registered sleeper (and moves the slot
//! to `NOTIFIED`, ending or preventing the sleep) or enqueued before
//! step 2's poll (and the worker sees the message). The `SeqCst` fences
//! on both sides make that disjunction total;
//! `tests/wake_slot_permutations.rs` explores every interleaving of it.
//! Only the notify that wins the `PARKED` → `NOTIFIED` exchange signals,
//! so a burst of sends to a sleeping worker costs one wake-up.
//!
//! Threads that are not workers park through the public
//! [`WakeHub::prepare_park`] / [`WakeHub::park`] pair on a shared
//! epoch-counting slot that only broadcast notifies reach.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::sys::{wait_readable, EventFd, PollFd};

thread_local! {
    static CURRENT: RefCell<Option<Arc<WakeHub>>> = const { RefCell::new(None) };
}

/// Every live hub that has worker slots, by id, for senders that are not
/// its workers. Touched when a runtime starts, when its hub is dropped,
/// and on that cold send path only.
static HUBS: Mutex<Vec<(u64, Weak<WakeHub>)>> = Mutex::new(Vec::new());

/// The live hub that issued `token`, if any.
fn hub_of(token: u64) -> Option<Arc<WakeHub>> {
    let id = token >> TOKEN_INDEX_BITS;
    let hubs = HUBS.lock().unwrap_or_else(|e| e.into_inner());
    // Only the match is upgraded, and it leaves this function: a hub's
    // last reference must never be dropped under the lock its `Drop`
    // takes.
    let (_, hub) = hubs.iter().find(|(hub_id, _)| *hub_id == id)?;
    hub.upgrade()
}

/// The worker is in (or between) passes.
const RUNNING: u32 = 0;
/// Registered sleeper that blocks (or is about to) on the condvar.
const PARKED: u32 = 1;
/// Registered sleeper that blocks (or is about to) in `ppoll` over the
/// slot's eventfd and its actors' descriptors.
const PARKED_FD: u32 = 2;
/// A notify claimed the sleeper; its signal is sent or on its way.
const NOTIFIED: u32 = 3;

/// Bits of a worker token that hold `worker index + 1`; the hub's id
/// sits above them.
const TOKEN_INDEX_BITS: u32 = 16;

#[derive(Debug, Default)]
struct WorkerSlot {
    state: AtomicU32,
    lock: Mutex<()>,
    cond: Condvar,
    /// Created by the owning worker before its first `PARKED_FD` park.
    #[cfg(target_os = "linux")]
    eventfd: std::sync::OnceLock<EventFd>,
}

impl WorkerSlot {
    /// Claim a registered sleeper and signal it. Returns whether this
    /// call did; a running or already notified worker is left alone.
    fn wake(&self) -> bool {
        let mut seen = self.state.load(Ordering::Relaxed);
        loop {
            if seen != PARKED && seen != PARKED_FD {
                return false;
            }
            match self.state.compare_exchange_weak(
                seen,
                NOTIFIED,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        #[cfg(target_os = "linux")]
        if seen == PARKED_FD {
            self.eventfd
                .get()
                .expect("a worker creates its eventfd before parking on it")
                .signal();
            return true;
        }
        // Taking the lock orders this signal after the sleeper's state
        // check under the same lock: it is either seen or waited for.
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cond.notify_one();
        true
    }

    fn wait_on_condvar(&self, timeout: Option<Duration>) {
        block_while(&self.lock, &self.cond, timeout, || {
            self.state.load(Ordering::SeqCst) == PARKED
        });
    }
}

/// Block on `cond` while `still` holds (checked under `lock`, so a
/// notifier that changes the condition and then signals under the same
/// lock is never missed), for at most `timeout`.
fn block_while(
    lock: &Mutex<()>,
    cond: &Condvar,
    timeout: Option<Duration>,
    mut still: impl FnMut() -> bool,
) {
    let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    match timeout {
        Some(t) => drop(cond.wait_timeout_while(guard, t, |_| still())),
        None => drop(cond.wait_while(guard, |_| still())),
    }
}

/// Per-worker park slots plus the shared slot of non-worker sleepers.
#[derive(Debug)]
pub struct WakeHub {
    /// Process-unique; the upper bits of this hub's worker tokens.
    id: u64,
    slots: Box<[WorkerSlot]>,
    /// Bumped by every broadcast notify; threads parked through
    /// [`WakeHub::park`] sleep only while this is unchanged.
    epoch: AtomicU64,
    /// Workers and other threads between registering and the end of
    /// their park.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    /// Notifies that actually woke sleepers. Shared with the
    /// deployment's metrics registry as `wake_notifies`; the two below
    /// split it by kind (`wake_directed`, `wake_broadcast`).
    notifies: Arc<obs::Counter>,
    directed: Arc<obs::Counter>,
    broadcast: Arc<obs::Counter>,
}

impl WakeHub {
    /// A fresh hub with no worker slots: every notify is a broadcast to
    /// the threads parked through [`WakeHub::park`].
    pub fn new() -> Arc<Self> {
        Self::with_workers(0)
    }

    /// A fresh hub with one park slot per worker.
    pub(crate) fn with_workers(workers: usize) -> Arc<Self> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        assert!(
            workers < (1 << TOKEN_INDEX_BITS),
            "worker tokens hold {TOKEN_INDEX_BITS} index bits"
        );
        let hub = Arc::new(WakeHub {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..workers).map(|_| WorkerSlot::default()).collect(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            notifies: Arc::default(),
            directed: Arc::default(),
            broadcast: Arc::default(),
        });
        if workers > 0 {
            let mut hubs = HUBS.lock().unwrap_or_else(|e| e.into_inner());
            hubs.push((hub.id, Arc::downgrade(&hub)));
        }
        hub
    }

    /// The token worker `wi` stamps on the single-consumer side of the
    /// mboxes it drains; [`notify_consumer`] maps it back to the slot.
    pub(crate) fn worker_token(&self, wi: usize) -> u64 {
        debug_assert!(wi < self.slots.len());
        self.id << TOKEN_INDEX_BITS | (wi as u64 + 1)
    }

    /// Workers and threads currently registered as (about to be) parked.
    pub fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Signal that new work exists somewhere: wake every parked worker
    /// and thread.
    ///
    /// Cheap when nobody sleeps — one fence plus one load.
    pub fn notify(&self) {
        // The fence orders the caller's queue publication before the
        // sleeper check (StoreLoad), pairing with the one in
        // `prepare_park` / `WorkerParker::prepare`.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_all(true);
        }
    }

    /// Wake every parked worker and thread *and* invalidate every
    /// in-flight [`WakeHub::prepare_park`] handshake, even with zero
    /// registered sleepers.
    ///
    /// [`WakeHub::notify`] may skip everything when it observes no
    /// sleepers — correct for message sends (the recipient's pre-park
    /// re-poll finds the message), but not for out-of-band conditions a
    /// re-poll cannot see. The placement layer uses this when publishing
    /// a new plan epoch; workers re-check the epoch after registering,
    /// and the unconditional epoch bump does the same for threads on the
    /// shared slot, whose `park(seen)` then returns immediately.
    pub fn notify_force(&self) {
        fence(Ordering::SeqCst);
        self.wake_all(self.sleepers.load(Ordering::Relaxed) > 0);
    }

    fn wake_all(&self, sleepers_observed: bool) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if sleepers_observed {
            self.notifies.inc();
            self.broadcast.inc();
        }
        {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cond.notify_all();
        }
        for slot in self.slots.iter() {
            slot.wake();
        }
    }

    /// Wake the worker `token` names, if it sleeps. Token 0 (consumer
    /// unknown) falls back to [`WakeHub::notify`]; a token another hub
    /// issued is handed to that hub.
    fn notify_worker(&self, token: u64) {
        if token == 0 {
            return self.notify();
        }
        if token >> TOKEN_INDEX_BITS != self.id {
            return notify_foreign(token);
        }
        let index = (token & ((1 << TOKEN_INDEX_BITS) - 1)) as usize;
        if index == 0 || index > self.slots.len() {
            return self.notify();
        }
        let slot = &self.slots[index - 1];
        // Same StoreLoad pairing as in `notify`.
        fence(Ordering::SeqCst);
        if slot.state.load(Ordering::Relaxed) != RUNNING && slot.wake() {
            self.notifies.inc();
            self.directed.inc();
        }
    }

    /// Notifies that woke at least one sleeper.
    pub fn notify_count(&self) -> u64 {
        self.notifies.get()
    }

    /// Expose the hub's counters in `registry` as `wake_notifies`,
    /// `wake_directed` and `wake_broadcast` (shared, not copied). Called
    /// once at runtime start.
    pub fn register_obs(&self, registry: &obs::MetricsRegistry) {
        registry.register_counter("wake_notifies", self.notifies.clone());
        registry.register_counter("wake_directed", self.directed.clone());
        registry.register_counter("wake_broadcast", self.broadcast.clone());
    }

    /// Register the calling (non-worker) thread as a sleeper on the
    /// shared slot and snapshot the epoch.
    ///
    /// The caller must poll its inputs once more before calling
    /// [`WakeHub::park`] with the returned snapshot, or call
    /// [`WakeHub::cancel_park`] if that poll found work.
    pub fn prepare_park(&self) -> u64 {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Order the sleeper registration before the caller's re-poll
        // (StoreLoad), pairing with `notify`.
        fence(Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }

    /// Deregister after `prepare_park` without sleeping.
    pub fn cancel_park(&self) {
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sleep until the epoch moves past `seen` or `timeout` elapses
    /// (`None` sleeps indefinitely). Returns `true` when woken by a
    /// notify, `false` on timeout. Deregisters the sleeper either way.
    pub fn park(&self, seen: u64, timeout: Option<Duration>) -> bool {
        let unchanged = || self.epoch.load(Ordering::SeqCst) == seen;
        block_while(&self.lock, &self.cond, timeout, unchanged);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        !unchanged()
    }
}

impl Drop for WakeHub {
    /// Leave the registry with the hub: a `Weak` left behind would keep
    /// the hub's allocation alive until the next runtime starts.
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            let mut hubs = HUBS.lock().unwrap_or_else(|e| e.into_inner());
            hubs.retain(|(id, _)| *id != self.id);
        }
    }
}

/// How a [`WorkerParker::park`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkEnd {
    /// A notify claimed the slot.
    Notified,
    /// A declared descriptor turned readable (and no notify came).
    Descriptor,
    /// Neither happened within the timeout.
    TimedOut,
}

/// A worker's handle on its own park slot: the worker-side half of the
/// protocol in the module docs, plus the kernel descriptors the next
/// park also waits on.
#[derive(Debug)]
pub(crate) struct WorkerParker {
    hub: Arc<WakeHub>,
    wi: usize,
    /// Empty, or the slot's eventfd followed by the declared descriptors.
    #[cfg(target_os = "linux")]
    fds: Vec<PollFd>,
}

impl WorkerParker {
    pub(crate) fn new(hub: Arc<WakeHub>, wi: usize) -> Self {
        WorkerParker {
            hub,
            wi,
            #[cfg(target_os = "linux")]
            fds: Vec::new(),
        }
    }

    fn slot(&self) -> &WorkerSlot {
        &self.hub.slots[self.wi]
    }

    /// Forget the kernel descriptors of the previous park.
    pub(crate) fn clear_sources(&mut self) {
        #[cfg(target_os = "linux")]
        self.fds.clear();
    }

    /// Also wait on `fd` in the next park. Dropped silently where the
    /// wait is unavailable (not Linux, or no eventfd to be had): the
    /// worker then parks on its condvar, bounded by `park_timeout`.
    pub(crate) fn add_source(&mut self, fd: i32) {
        #[cfg(target_os = "linux")]
        {
            if self.fds.is_empty() {
                let slot = &self.hub.slots[self.wi];
                if slot.eventfd.get().is_none() {
                    let Ok(eventfd) = EventFd::new() else {
                        return;
                    };
                    let _ = slot.eventfd.set(eventfd);
                }
                let eventfd = slot.eventfd.get().expect("set just above");
                self.fds.push(PollFd::readable(eventfd.raw()));
            }
            self.fds.push(PollFd::readable(fd));
        }
        #[cfg(not(target_os = "linux"))]
        let _ = fd;
    }

    /// Whether the next park waits on at least one kernel descriptor.
    pub(crate) fn has_sources(&self) -> bool {
        #[cfg(target_os = "linux")]
        return !self.fds.is_empty();
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// Register as a sleeper. The worker must run every actor once more
    /// before [`WorkerParker::park`], or [`WorkerParker::cancel`].
    pub(crate) fn prepare(&self) {
        self.hub.sleepers.fetch_add(1, Ordering::SeqCst);
        let state = if self.has_sources() {
            PARKED_FD
        } else {
            PARKED
        };
        self.slot().state.store(state, Ordering::SeqCst);
        // Order the registration before the re-poll (StoreLoad), pairing
        // with the fence in `notify` / `notify_worker`.
        fence(Ordering::SeqCst);
    }

    /// Deregister without sleeping. A notify that already claimed the
    /// slot may leave its eventfd signal behind; the next park absorbs
    /// it as one early return.
    pub(crate) fn cancel(&self) {
        self.slot().state.store(RUNNING, Ordering::SeqCst);
        self.hub.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until a notify claims the slot, a declared descriptor
    /// fires, or `timeout` elapses (`None` waits indefinitely).
    /// Deregisters either way.
    pub(crate) fn park(&mut self, timeout: Option<Duration>) -> ParkEnd {
        #[cfg(target_os = "linux")]
        let kernel_event = if self.fds.is_empty() {
            self.slot().wait_on_condvar(timeout);
            false
        } else {
            wait_readable(&mut self.fds, timeout);
            if self.fds[0].fired() {
                if let Some(eventfd) = self.slot().eventfd.get() {
                    eventfd.drain();
                }
            }
            self.fds[1..].iter().any(PollFd::fired)
        };
        #[cfg(not(target_os = "linux"))]
        let kernel_event = {
            self.slot().wait_on_condvar(timeout);
            false
        };
        let notified = self.slot().state.swap(RUNNING, Ordering::SeqCst) == NOTIFIED;
        self.hub.sleepers.fetch_sub(1, Ordering::SeqCst);
        if notified {
            ParkEnd::Notified
        } else if kernel_event {
            ParkEnd::Descriptor
        } else {
            ParkEnd::TimedOut
        }
    }
}

/// Install `hub` as the calling thread's notify target (worker threads
/// call this once at startup).
pub(crate) fn set_current(hub: Arc<WakeHub>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(hub));
}

/// Broadcast on the calling thread's hub, if one is installed.
pub(crate) fn notify_current() {
    CURRENT.with(|c| {
        if let Some(hub) = c.borrow().as_ref() {
            hub.notify();
        }
    });
}

/// Wake the worker that drains an mbox, given the consumer token the
/// mbox recorded (0 when it has none).
///
/// Called by the mbox layer after every successful enqueue. On a worker
/// thread this goes through its own hub; on any other thread the token
/// itself names the hub (token 0 names nobody: such a send notifies no
/// one).
#[inline]
pub(crate) fn notify_consumer(token: u64) {
    let on_worker = CURRENT.with(|c| match c.borrow().as_ref() {
        Some(hub) => {
            hub.notify_worker(token);
            true
        }
        None => false,
    });
    if !on_worker && token != 0 {
        notify_foreign(token);
    }
}

/// The cold path of [`notify_consumer`]: the sender is not a worker of
/// the hub that issued `token`.
#[cold]
fn notify_foreign(token: u64) {
    if let Some(hub) = hub_of(token) {
        hub.notify_worker(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn notify_without_sleepers_is_cheap_and_harmless() {
        let hub = WakeHub::new();
        hub.notify();
        assert_eq!(hub.epoch.load(Ordering::SeqCst), 0, "no sleeper, no bump");
        assert_eq!(hub.sleepers(), 0);
    }

    #[test]
    fn park_times_out_without_notify() {
        let hub = WakeHub::new();
        let seen = hub.prepare_park();
        assert_eq!(hub.sleepers(), 1);
        let woken = hub.park(seen, Some(Duration::from_millis(5)));
        assert!(!woken);
        assert_eq!(hub.sleepers(), 0);
    }

    #[test]
    fn cancel_park_deregisters() {
        let hub = WakeHub::new();
        let _seen = hub.prepare_park();
        hub.cancel_park();
        assert_eq!(hub.sleepers(), 0);
    }

    #[test]
    fn notify_wakes_a_parked_thread() {
        let hub = WakeHub::new();
        let parked = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let h = hub.clone();
            let p = parked.clone();
            let t = s.spawn(move || {
                let seen = h.prepare_park();
                p.store(1, Ordering::SeqCst);
                h.park(seen, None)
            });
            while parked.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            // Give the sleeper time to actually block, then wake it.
            std::thread::sleep(Duration::from_millis(5));
            hub.notify();
            assert!(
                t.join().expect("parker exits"),
                "woken by notify, not timeout"
            );
        });
        assert_eq!(hub.sleepers(), 0);
    }

    #[test]
    fn notify_force_bumps_epoch_without_sleepers() {
        let hub = WakeHub::new();
        let seen = hub.prepare_park();
        hub.cancel_park();
        // A plain notify with no sleepers would be skipped entirely; the
        // forced variant must invalidate the snapshot regardless.
        hub.notify_force();
        assert_eq!(hub.sleepers(), 0);
        let _ = hub.prepare_park();
        assert_ne!(hub.epoch.load(Ordering::SeqCst), seen);
        hub.cancel_park();
    }

    #[test]
    fn notify_between_prepare_and_park_prevents_sleep() {
        let hub = WakeHub::new();
        let seen = hub.prepare_park();
        hub.notify(); // sender observes the registered sleeper
        let start = Instant::now();
        assert!(hub.park(seen, None), "epoch moved; park must not block");
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn directed_notify_claims_only_the_named_slot() {
        let hub = WakeHub::with_workers(2);
        let (mut w0, mut w1) = (
            WorkerParker::new(hub.clone(), 0),
            WorkerParker::new(hub.clone(), 1),
        );
        w0.prepare();
        w1.prepare();
        assert_eq!(hub.sleepers(), 2);
        hub.notify_worker(hub.worker_token(1));
        assert_eq!(hub.slots[0].state.load(Ordering::SeqCst), PARKED);
        assert_eq!(hub.slots[1].state.load(Ordering::SeqCst), NOTIFIED);
        assert_eq!((hub.directed.get(), hub.broadcast.get()), (1, 0));
        // A second send to the same sleeper neither signals nor counts.
        hub.notify_worker(hub.worker_token(1));
        assert_eq!(hub.notify_count(), 1);
        assert_eq!(w1.park(None), ParkEnd::Notified, "claimed before blocking");
        assert_eq!(
            w0.park(Some(Duration::from_millis(2))),
            ParkEnd::TimedOut,
            "never notified"
        );
        assert_eq!(hub.sleepers(), 0);
    }

    #[test]
    fn an_unknown_consumer_falls_back_to_broadcast() {
        let hub = WakeHub::with_workers(1);
        let mut w0 = WorkerParker::new(hub.clone(), 0);
        w0.prepare();
        hub.notify_worker(0);
        assert_eq!(w0.park(None), ParkEnd::Notified);
        assert_eq!((hub.directed.get(), hub.broadcast.get()), (0, 1));
    }

    #[test]
    fn a_token_finds_its_hub_from_another_hubs_worker_and_from_no_worker() {
        let hub = WakeHub::with_workers(2);
        let other = WakeHub::with_workers(1);
        let mut w1 = WorkerParker::new(hub.clone(), 1);
        let mut bystander = WorkerParker::new(other.clone(), 0);
        // Sent by a worker of `other`: the token's hub is woken, the
        // sender's own is left alone.
        w1.prepare();
        bystander.prepare();
        other.notify_worker(hub.worker_token(1));
        assert_eq!(w1.park(None), ParkEnd::Notified);
        assert_eq!(
            bystander.park(Some(Duration::from_millis(2))),
            ParkEnd::TimedOut
        );
        // Sent by a thread that is no worker at all (this one).
        w1.prepare();
        notify_consumer(hub.worker_token(1));
        assert_eq!(w1.park(None), ParkEnd::Notified);
        assert_eq!((hub.directed.get(), hub.broadcast.get()), (2, 0));
        assert_eq!(other.notify_count(), 0);
        // A token whose hub is gone names nobody.
        let stale = other.worker_token(0);
        drop(bystander);
        drop(other);
        notify_consumer(stale);
        hub.notify_worker(stale);
        assert_eq!(hub.notify_count(), 2);
    }

    #[test]
    fn notify_force_claims_a_worker_between_prepare_and_park() {
        let hub = WakeHub::with_workers(1);
        let mut w0 = WorkerParker::new(hub.clone(), 0);
        hub.notify_force(); // nobody registered: only the epoch moves
        assert_eq!(hub.notify_count(), 0);
        w0.prepare();
        hub.notify_force();
        assert_eq!(
            w0.park(None),
            ParkEnd::Notified,
            "must not sleep through a forced notify"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_declared_descriptor_ends_the_park_like_a_notify_does() {
        let hub = WakeHub::with_workers(1);
        let mut w0 = WorkerParker::new(hub.clone(), 0);
        let source = EventFd::new().expect("eventfd");
        w0.add_source(source.raw());
        assert!(w0.has_sources());

        w0.prepare();
        assert_eq!(w0.park(Some(Duration::from_millis(2))), ParkEnd::TimedOut);

        w0.prepare();
        source.signal();
        assert_eq!(w0.park(None), ParkEnd::Descriptor);
        source.drain();

        w0.prepare();
        hub.notify_worker(hub.worker_token(0));
        assert_eq!(
            w0.park(None),
            ParkEnd::Notified,
            "directed notify through the eventfd"
        );
        // The wake was drained: the next park really sleeps.
        w0.prepare();
        assert_eq!(w0.park(Some(Duration::from_millis(2))), ParkEnd::TimedOut);

        w0.clear_sources();
        assert!(!w0.has_sources());
    }
}
