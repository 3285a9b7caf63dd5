//! The housekeeping eactor that recycles superseded store entries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::actor::{Actor, Control, Ctx};
use eactors::obs;

use crate::store::PosStore;

/// The paper's *Cleaner* (§4.1): an eactor that periodically scans each
/// store's retired list, unlinks superseded entries and returns them to
/// the storage pool once all connected readers have moved past the
/// update.
///
/// The cleaner runs *concurrently with mutators* — `PosStore::clean` is
/// epoch-protected, so no stop-the-world pause is needed — and it is
/// dirty-aware: a store is only visited while its
/// [`PosStore::dirty_epoch`] moves or its retired list is non-empty, so
/// quiescent stores cost nothing per pass. One [`Cleaner`] can service
/// many stores (e.g. every shard of a [`crate::PosShards`]).
///
/// Registry metrics: `pos_cleans` (passes that visited at least one
/// store) and `pos_cleaner_freed` (entries recycled).
///
/// # Examples
///
/// ```
/// use eactors::prelude::*;
/// use pos::{Cleaner, PosConfig, PosStore};
/// use sgx_sim::Platform;
///
/// let store = PosStore::new(PosConfig::default());
/// let platform = Platform::builder().build();
/// let mut b = DeploymentBuilder::new();
/// let every = std::time::Duration::from_millis(1);
/// let cleaner = b.actor("cleaner", Placement::Untrusted, Cleaner::new(store.clone(), every));
/// # let _ = cleaner;
/// ```
#[derive(Debug)]
pub struct Cleaner {
    slots: Vec<CleanSlot>,
    interval: Duration,
    next_pass: Instant,
    freed_total: u64,
    cleans: Arc<obs::Counter>,
    freed: Arc<obs::Counter>,
}

/// Passes a store stays armed after its dirty epoch moves (covers the
/// unlink pass, the grace period and the free pass).
const ARM_PASSES: u8 = 3;

#[derive(Debug)]
struct CleanSlot {
    store: Arc<PosStore>,
    /// Dirty epoch at the last visit; movement re-arms the slot.
    seen_epoch: u64,
    /// Remaining passes before the slot goes quiescent.
    armed: u8,
}

impl Cleaner {
    /// A cleaner for one `store` running a pass every `interval` — of
    /// time, so the reclaim rate does not depend on how often the
    /// hosting worker happens to run the body.
    pub fn new(store: Arc<PosStore>, interval: Duration) -> Self {
        Self::for_stores(vec![store], interval)
    }

    /// A cleaner servicing many stores round-robin in one pass.
    pub fn for_stores(stores: Vec<Arc<PosStore>>, interval: Duration) -> Self {
        Cleaner {
            slots: stores
                .into_iter()
                .map(|store| CleanSlot {
                    store,
                    seen_epoch: u64::MAX, // first pass always inspects
                    armed: ARM_PASSES,
                })
                .collect(),
            interval,
            next_pass: Instant::now(),
            freed_total: 0,
            cleans: Arc::new(obs::Counter::new()),
            freed: Arc::new(obs::Counter::new()),
        }
    }

    /// Entries freed so far.
    pub fn freed_total(&self) -> u64 {
        self.freed_total
    }
}

impl Actor for Cleaner {
    fn ctor(&mut self, ctx: &mut Ctx) {
        let registry = ctx.obs_hub().registry();
        self.cleans = registry.register_counter("pos_cleans", self.cleans.clone());
        self.freed = registry.register_counter("pos_cleaner_freed", self.freed.clone());
        // The stores change under the cleaner without a message; its
        // only wake source is its own interval.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let now = Instant::now();
        if now < self.next_pass {
            ctx.wake_after(self.next_pass - now);
            return Control::Idle;
        }
        self.next_pass = now + self.interval;
        ctx.wake_after(self.interval);
        let mut freed = 0usize;
        let mut visited = false;
        for slot in &mut self.slots {
            let dirty = slot.store.dirty_epoch();
            if dirty != slot.seen_epoch {
                slot.seen_epoch = dirty;
                slot.armed = ARM_PASSES;
            }
            // Pinned readers can stall the grace period past the armed
            // window; keep visiting while retirees remain.
            if slot.armed == 0 && !slot.store.retired.lock().is_empty() {
                slot.armed = 1;
            }
            if slot.armed == 0 {
                continue;
            }
            visited = true;
            let f = slot.store.clean();
            freed += f;
            if f > 0 {
                // Progress: stay armed, more may become freeable.
                slot.armed = ARM_PASSES;
            } else {
                slot.armed -= 1;
            }
        }
        if visited {
            self.cleans.inc();
        }
        self.freed_total += freed as u64;
        if freed > 0 {
            self.freed.add(freed as u64);
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PosConfig;
    use eactors::prelude::*;
    use sgx_sim::{CostModel, Platform};

    const EVERY: Duration = Duration::from_micros(100);

    fn tiny() -> Arc<PosStore> {
        PosStore::new(PosConfig {
            entries: 8,
            payload: 64,
            stacks: 2,
            encryption: None,
        })
    }

    #[test]
    fn cleaner_actor_recycles_entries() {
        let store = tiny();
        let reader = store.register_reader();
        // Five versions of the same key: four superseded.
        for i in 0..5u8 {
            store.set(&reader, b"k", &[i]).unwrap();
        }
        assert_eq!(store.free_entries(), 3);

        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let store2 = store.clone();
        let cleaner = b.actor("cleaner", Placement::Untrusted, Cleaner::new(store2, EVERY));
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn({
                let store = store.clone();
                move |ctx| {
                    if store.free_entries() >= 7 {
                        ctx.shutdown();
                        Control::Park
                    } else {
                        Control::Idle
                    }
                }
            }),
        );
        b.worker(&[cleaner, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();
        // Only the newest version remains.
        assert_eq!(store.free_entries(), 7);
        let mut buf = [0u8; 8];
        assert_eq!(store.get(&reader, b"k", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn one_cleaner_services_many_stores() {
        let stores: Vec<_> = (0..3).map(|_| tiny()).collect();
        for s in &stores {
            let r = s.register_reader();
            for i in 0..4u8 {
                s.set(&r, b"k", &[i]).unwrap();
            }
        }
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let cleaner = Cleaner::for_stores(stores.clone(), EVERY);
        let c = b.actor("cleaner", Placement::Untrusted, cleaner);
        let probe = stores.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if probe.iter().all(|s| s.free_entries() >= 7) {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[c, stopper]);
        let rt = Runtime::start(&platform, b.build().unwrap()).unwrap();
        let report = rt.join();
        for s in &stores {
            assert_eq!(s.free_entries(), 7);
        }
        assert!(report.metrics.counter("pos_cleaner_freed").unwrap_or(0) >= 9);
    }
}
