//! The Syncer: an untrusted eactor making store state durable.
//!
//! The paper's POS "allows us to avoid system calls besides infrequent
//! calls to make the in-memory state actually persistent (i.e. using
//! sync)" and notes that file-system storage is provided "by implementing
//! dedicated untrusted eactors that execute the necessary system calls"
//! (§4.1). The [`Syncer`] is that eactor: it periodically drains every
//! registered store's dirty state to disk, charging the syscall cost —
//! enclaved actors never touch the filesystem.
//!
//! Two durability paths per store:
//!
//! * **WAL-backed stores** (opened via [`PosStore::open_wal`]) get
//!   [`PosStore::wal_sync`]: pending delta records are appended and
//!   fsynced, and the log compacts into the image when it outgrows its
//!   threshold — `O(delta)` per pass instead of `O(store)`.
//! * **Plain stores** fall back to the whole-image
//!   `persist_with` path.
//!
//! Either way, a store whose [`PosStore::dirty_epoch`] has not moved
//! since its last successful sync (and whose WAL has no pending work) is
//! **skipped** — a quiescent store costs zero syscalls per pass.
//!
//! Failure handling: a store whose sync fails does **not** abort the
//! pass — the remaining stores are still written. The failed store backs
//! off (its retry is skipped for a doubling number of passes, capped at
//! [`MAX_BACKOFF_PASSES`]) so a persistently broken path cannot hog the
//! pass with syscalls, then is retried. WAL appends that fail keep their
//! records pending, in order. The Syncer consults the platform's
//! [`FaultPlan`] when one is attached, so crash tests can inject
//! failures at every step.
//!
//! Registry metrics: `pos_syncs`, `pos_failures`, `pos_sync_skips`,
//! `pos_wal_records`, `pos_wal_bytes`, `pos_wal_compactions`, the
//! `pos_wal_log_bytes` gauge, and one `pos_store_<name>_memory_bytes`
//! gauge per registered store.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::actor::{Actor, Control, Ctx};
use eactors::obs;
use sgx_sim::FaultPlan;

use crate::store::PosStore;

/// Upper bound on a failed store's backoff, in sync passes.
pub const MAX_BACKOFF_PASSES: u64 = 8;

#[derive(Debug)]
struct StoreSlot {
    store: Arc<PosStore>,
    /// Whole-image target; WAL slots carry their paths in the WalConfig
    /// and leave this empty.
    path: PathBuf,
    /// Passes to skip before the next retry (0 = attempt now).
    skip: u64,
    /// Backoff applied on the next failure; doubles per consecutive
    /// failure, capped at [`MAX_BACKOFF_PASSES`].
    penalty: u64,
    /// [`PosStore::dirty_epoch`] at the last successful sync; equal
    /// epochs mean the store is clean and the pass skips it.
    synced_epoch: u64,
}

impl StoreSlot {
    fn new(store: Arc<PosStore>, path: PathBuf) -> Self {
        StoreSlot {
            store,
            path,
            skip: 0,
            penalty: 1,
            synced_epoch: 0,
        }
    }

    /// Metric-name fragment for this store, derived from its file stem.
    fn metric_name(&self) -> String {
        let stem = self
            .store
            .wal_image_path()
            .unwrap_or(&self.path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "anon".to_owned());
        let mut name: String = stem
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if name.is_empty() {
            name.push_str("anon");
        }
        name
    }
}

/// Periodically persists registered stores (run it untrusted).
///
/// # Examples
///
/// ```
/// use pos::{PosConfig, PosStore, Syncer};
///
/// let store = PosStore::new(PosConfig::default());
/// let path = std::env::temp_dir().join("syncer-doc.pos");
/// let every = std::time::Duration::from_millis(10);
/// let syncer = Syncer::new(vec![(store, path.clone())], every);
/// # let _ = syncer;
/// # std::fs::remove_file(path).ok();
/// ```
#[derive(Debug)]
pub struct Syncer {
    slots: Vec<StoreSlot>,
    interval: Duration,
    next_pass: Instant,
    faults: FaultPlan,
    /// Shared with the deployment's metrics registry once the ctor runs;
    /// the same atomics either way.
    syncs: Arc<obs::Counter>,
    failures: Arc<obs::Counter>,
    skips: Arc<obs::Counter>,
    wal_records: Arc<obs::Counter>,
    wal_bytes: Arc<obs::Counter>,
    wal_compactions: Arc<obs::Counter>,
    wal_log_bytes: Arc<obs::Gauge>,
}

impl Syncer {
    /// A syncer persisting `stores` every `interval` — of time, so the
    /// durability lag does not depend on how often the hosting worker
    /// happens to run the body. Each store syncs through its WAL when
    /// one is attached, through a whole-image write to its path
    /// otherwise.
    pub fn new(stores: Vec<(Arc<PosStore>, PathBuf)>, interval: Duration) -> Self {
        Syncer {
            slots: stores
                .into_iter()
                .map(|(store, path)| StoreSlot::new(store, path))
                .collect(),
            interval,
            next_pass: Instant::now(),
            faults: FaultPlan::default(),
            syncs: Arc::new(obs::Counter::new()),
            failures: Arc::new(obs::Counter::new()),
            skips: Arc::new(obs::Counter::new()),
            wal_records: Arc::new(obs::Counter::new()),
            wal_bytes: Arc::new(obs::Counter::new()),
            wal_compactions: Arc::new(obs::Counter::new()),
            wal_log_bytes: Arc::new(obs::Gauge::new()),
        }
    }

    /// Add WAL-backed stores (opened via [`PosStore::open_wal`]); their
    /// file paths come from their [`crate::WalConfig`].
    pub fn with_wal_stores(mut self, stores: Vec<Arc<PosStore>>) -> Self {
        self.slots.extend(
            stores
                .into_iter()
                .map(|s| StoreSlot::new(s, PathBuf::new())),
        );
        self
    }

    /// Thread a fault-injection plan through every sync (typically
    /// `platform.faults()`), enabling the `pos.persist.*` and
    /// `pos.wal.*` failpoints.
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Shared counter of clean sync passes (no failures and no stores in
    /// backoff; skipped-clean stores count as success — they *are*
    /// durable).
    pub fn syncs(&self) -> Arc<obs::Counter> {
        self.syncs.clone()
    }

    /// Shared counter of failed sync attempts.
    pub fn failures(&self) -> Arc<obs::Counter> {
        self.failures.clone()
    }

    /// Shared counter of per-store skips (store clean, nothing to do).
    pub fn sync_skips(&self) -> Arc<obs::Counter> {
        self.skips.clone()
    }

    /// Shared counter of delta records made durable.
    pub fn wal_records(&self) -> Arc<obs::Counter> {
        self.wal_records.clone()
    }

    /// Shared counter of log compactions.
    pub fn wal_compactions(&self) -> Arc<obs::Counter> {
        self.wal_compactions.clone()
    }
}

impl Actor for Syncer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // Expose the counters under their registry names (shared, not
        // copied; an existing registration wins, so two syncers in one
        // deployment aggregate into the same counters).
        let registry = ctx.obs_hub().registry();
        self.syncs = registry.register_counter("pos_syncs", self.syncs.clone());
        self.failures = registry.register_counter("pos_failures", self.failures.clone());
        self.skips = registry.register_counter("pos_sync_skips", self.skips.clone());
        self.wal_records = registry.register_counter("pos_wal_records", self.wal_records.clone());
        self.wal_bytes = registry.register_counter("pos_wal_bytes", self.wal_bytes.clone());
        self.wal_compactions =
            registry.register_counter("pos_wal_compactions", self.wal_compactions.clone());
        self.wal_log_bytes =
            registry.register_gauge("pos_wal_log_bytes", self.wal_log_bytes.clone());
        // One memory gauge per store (geometry is fixed, so set-once).
        for slot in &self.slots {
            let gauge = registry.gauge(&format!("pos_store_{}_memory_bytes", slot.metric_name()));
            gauge.set(slot.store.memory_bytes());
        }
        // The stores change under the syncer without a message; its only
        // wake source is its own interval.
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
        debug_assert!(
            !ctx.domain().is_trusted(),
            "the Syncer performs system calls and must run untrusted"
        );
        let mut all_ok = true;
        let mut attempted = 0u64;
        let mut log_bytes = 0u64;
        let mut any_wal = false;
        for slot in &mut self.slots {
            if slot.skip > 0 {
                slot.skip -= 1;
                all_ok = false;
                continue;
            }
            // Read the dirty epoch *before* syncing; a mutation racing
            // the sync bumps it past the recorded value and forces a
            // re-sync next pass.
            let dirty = slot.store.dirty_epoch();
            let wal = slot.store.wal_attached();
            if wal {
                any_wal = true;
            }
            let clean = if wal {
                !slot.store.wal_needs_sync() && dirty == slot.synced_epoch
            } else {
                dirty == slot.synced_epoch
            };
            if clean {
                self.skips.inc();
                log_bytes += slot.store.wal_log_bytes();
                continue;
            }
            attempted += 1;
            ctx.costs().charge_syscall(); // the sync(2)-style call
            let outcome = if wal {
                slot.store.wal_sync(&self.faults).map(|stats| {
                    self.wal_records.add(stats.appended_records);
                    self.wal_bytes.add(stats.appended_bytes);
                    if stats.appended_records > 0 {
                        obs::emit(
                            obs::EventKind::WalAppend,
                            ctx.id().as_raw() as u16,
                            stats.appended_records,
                            stats.appended_bytes,
                        );
                    }
                    if stats.compacted_bytes > 0 {
                        self.wal_compactions.inc();
                        obs::emit(
                            obs::EventKind::PosCompact,
                            ctx.id().as_raw() as u16,
                            stats.compacted_bytes,
                            0,
                        );
                    }
                    log_bytes += stats.log_bytes;
                })
            } else {
                slot.store.persist_with(&slot.path, &self.faults)
            };
            match outcome {
                Ok(()) => {
                    slot.penalty = 1;
                    slot.synced_epoch = dirty;
                }
                Err(_) => {
                    self.failures.inc();
                    // A failed sync is where injected faults surface:
                    // record the trigger for crash-test traces.
                    obs::emit(obs::EventKind::FaultTrigger, ctx.id().as_raw() as u16, 1, 0);
                    slot.skip = slot.penalty;
                    slot.penalty = (slot.penalty * 2).min(MAX_BACKOFF_PASSES);
                    all_ok = false;
                    if wal {
                        log_bytes += slot.store.wal_log_bytes();
                    }
                }
            }
        }
        if any_wal {
            self.wal_log_bytes.set(log_bytes);
        }
        if all_ok {
            self.syncs.inc();
        }
        obs::emit(
            obs::EventKind::PosSync,
            ctx.id().as_raw() as u16,
            attempted,
            u64::from(all_ok),
        );
        if attempted > 0 {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PosConfig, PosStore, WalConfig};
    use eactors::prelude::*;
    use sgx_sim::{CostModel, Platform};

    const EVERY: Duration = Duration::from_micros(100);

    fn small_store() -> Arc<PosStore> {
        PosStore::new(PosConfig {
            entries: 32,
            payload: 64,
            stacks: 4,
            encryption: None,
        })
    }

    #[test]
    fn syncer_persists_live_updates_from_an_enclaved_writer() {
        let dir = std::env::temp_dir().join(format!("syncer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.pos");
        let store = small_store();

        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let e = b.enclave("writer-enclave");

        // An enclaved writer updating the store — no filesystem access.
        let store_w = store.clone();
        let mut i = 0u64;
        let writer = b.actor(
            "writer",
            Placement::Enclave(e),
            eactors::from_fn(move |_| {
                if i == 20 {
                    return Control::Park;
                }
                let r = store_w.register_reader();
                store_w.set(&r, b"progress", &i.to_le_bytes()).unwrap();
                store_w.clean();
                i += 1;
                Control::Busy
            }),
        );
        let syncer = Syncer::new(vec![(store.clone(), path.clone())], EVERY);
        let syncs = syncer.syncs();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let syncs2 = syncs.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if syncs2.get() >= 5 {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[writer]);
        b.worker(&[s, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();

        // The persisted image is loadable and holds a progress value.
        let reopened = PosStore::open(&path, None).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 8];
        assert!(reopened.get(&r, b"progress", &mut buf).unwrap().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let store = PosStore::new(PosConfig::default());
        let r = store.register_reader();
        store.set(&r, b"k", b"v").unwrap(); // dirty — gets attempted
        let bad_path = PathBuf::from("/nonexistent-dir-zzz/image.pos");
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let syncer = Syncer::new(vec![(store, bad_path)], EVERY);
        let failures = syncer.failures();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let failures2 = failures.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if failures2.get() >= 3 {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[s, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();
        assert!(failures.get() >= 3);
    }

    #[test]
    fn one_failing_store_does_not_starve_the_others() {
        let dir = std::env::temp_dir().join(format!("syncer-multi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good_path = dir.join("good.pos");
        std::fs::remove_file(&good_path).ok();
        let bad = PosStore::new(PosConfig::default());
        let rb = bad.register_reader();
        bad.set(&rb, b"k", b"v").unwrap(); // dirty — gets attempted
        let good = small_store();
        let r = good.register_reader();
        good.set(&r, b"k", b"v").unwrap();

        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        // The failing store is registered FIRST: pre-fix, its failure
        // aborted the pass and the good store was never written.
        let syncer = Syncer::new(
            vec![
                (bad, PathBuf::from("/nonexistent-dir-zzz/bad.pos")),
                (good.clone(), good_path.clone()),
            ],
            EVERY,
        );
        let failures = syncer.failures();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let failures2 = failures.clone();
        let probe_path = good_path.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if failures2.get() >= 2 && probe_path.exists() {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[s, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();

        let reopened = PosStore::open(&good_path, None).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 8];
        assert_eq!(reopened.get(&r, b"k", &mut buf).unwrap(), Some(1));
        assert!(failures.get() >= 2);
        std::fs::remove_file(&good_path).ok();
    }

    #[test]
    fn injected_persist_fault_recovers_on_retry() {
        let dir = std::env::temp_dir().join(format!("syncer-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faulty.pos");
        std::fs::remove_file(&path).ok();
        let store = small_store();
        let r = store.register_reader();
        store.set(&r, b"k", b"v").unwrap();

        let plan = FaultPlan::new();
        plan.fail_nth(crate::persist::failpoints::PERSIST_RENAME, 1);
        let platform = Platform::builder()
            .cost_model(CostModel::zero())
            .fault_plan(plan.clone())
            .build();
        let mut b = DeploymentBuilder::new();
        let syncer =
            Syncer::new(vec![(store, path.clone())], EVERY).with_fault_plan(platform.faults());
        let failures = syncer.failures();
        let syncs = syncer.syncs();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let syncs2 = syncs.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if syncs2.get() >= 1 {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[s, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();

        assert_eq!(failures.get(), 1, "one injected failure");
        assert_eq!(plan.trips(crate::persist::failpoints::PERSIST_RENAME), 1);
        let reopened = PosStore::open(&path, None).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 8];
        assert_eq!(reopened.get(&r, b"k", &mut buf).unwrap(), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_stores_are_skipped_dirty_stores_are_synced() {
        let dir = std::env::temp_dir().join(format!("syncer-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skip.pos");
        std::fs::remove_file(&path).ok();
        let store = small_store();
        let r = store.register_reader();
        store.set(&r, b"k", b"v").unwrap();

        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let syncer = Syncer::new(vec![(store.clone(), path.clone())], EVERY);
        let skips = syncer.sync_skips();
        let syncs = syncer.syncs();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let skips2 = skips.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                // Wait until the dirty store was written once and then
                // skipped on several subsequent passes.
                if skips2.get() >= 5 {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[s, stopper]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();

        assert!(path.exists(), "the one dirty write was persisted");
        assert!(skips.get() >= 5, "clean passes skipped the store");
        assert!(syncs.get() >= 5, "skipped-clean passes still count ok");
        // The file was written exactly once: its mtime-stable content
        // matches the single update.
        let reopened = PosStore::open(&path, None).unwrap();
        let r2 = reopened.register_reader();
        let mut buf = [0u8; 8];
        assert_eq!(reopened.get(&r2, b"k", &mut buf).unwrap(), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_store_syncs_deltas_through_the_actor() {
        let dir = std::env::temp_dir().join(format!("syncer-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = WalConfig::in_dir(&dir, "actor");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(
            cfg.clone(),
            PosConfig {
                entries: 64,
                payload: 64,
                stacks: 4,
                encryption: None,
            },
            1 << 24,
        )
        .unwrap();

        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        let e = b.enclave("writer-enclave");
        let store_w = store.clone();
        let mut i = 0u64;
        let writer = b.actor(
            "writer",
            Placement::Enclave(e),
            eactors::from_fn(move |_| {
                if i == 10 {
                    return Control::Park;
                }
                let r = store_w.register_reader();
                store_w.set(&r, b"progress", &i.to_le_bytes()).unwrap();
                store_w.clean();
                i += 1;
                Control::Busy
            }),
        );
        let syncer = Syncer::new(Vec::new(), EVERY).with_wal_stores(vec![store.clone()]);
        let records = syncer.wal_records();
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let records2 = records.clone();
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if records2.get() >= 10 {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[writer]);
        b.worker(&[s, stopper]);
        let rt = Runtime::start(&platform, b.build().unwrap()).unwrap();
        let report = rt.join();
        assert!(records.get() >= 10, "all deltas drained through the wal");
        assert!(
            report.metrics.counter("pos_wal_records").unwrap_or(0) >= 10,
            "wal counters live in the registry"
        );
        assert!(
            report
                .metrics
                .gauge("pos_store_actor_memory_bytes")
                .unwrap_or(0)
                > 0,
            "per-store memory gauge registered"
        );

        // Recovery sees every synced delta.
        let reopened = PosStore::open_wal(
            cfg,
            PosConfig {
                entries: 64,
                payload: 64,
                stacks: 4,
                encryption: None,
            },
            1 << 24,
        )
        .unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 8];
        assert_eq!(reopened.get(&r, b"progress", &mut buf).unwrap(), Some(8));
        assert_eq!(u64::from_le_bytes(buf), 9);
    }
}
