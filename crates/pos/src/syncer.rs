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
//! There is one durable-write path: the Syncer takes WAL-backed stores
//! only (opened via [`PosStore::open_wal`]) and calls
//! [`PosStore::wal_sync`] on each — pending delta records are appended
//! and fsynced, and the log compacts into the image when it outgrows its
//! threshold, `O(delta)` per pass instead of `O(store)`. The whole-image
//! write ([`PosStore::persist`]) is that compaction's primitive and the
//! way to take a one-off image; it is not a second way to run a Syncer.
//!
//! A store whose [`PosStore::dirty_epoch`] has not moved since its last
//! successful sync, and whose WAL has no pending work, is **skipped** —
//! a quiescent store costs zero syscalls per pass.
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
    fn new(store: Arc<PosStore>) -> Self {
        assert!(
            store.wal_attached(),
            "the Syncer syncs WAL-backed stores only: open the store with PosStore::open_wal"
        );
        StoreSlot {
            store,
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
            .and_then(|p| p.file_stem())
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
/// use pos::{PosConfig, PosStore, Syncer, WalConfig};
///
/// let files = WalConfig::in_dir(std::env::temp_dir(), "syncer-doc");
/// let store = PosStore::open_wal(files, PosConfig::default(), 1 << 24)?;
/// let every = std::time::Duration::from_millis(10);
/// let syncer = Syncer::new(vec![store], every);
/// # let _ = syncer;
/// # Ok::<(), pos::PosError>(())
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
    /// happens to run the body. Each store syncs through its WAL; its
    /// file paths come from its [`crate::WalConfig`].
    ///
    /// # Panics
    ///
    /// When a store has no WAL attached (it was not opened with
    /// [`PosStore::open_wal`]): there is nowhere to sync it to.
    pub fn new(stores: Vec<Arc<PosStore>>, interval: Duration) -> Self {
        Syncer {
            slots: stores.into_iter().map(StoreSlot::new).collect(),
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

    /// Thread a fault-injection plan through every sync (typically
    /// `platform.faults()`), enabling the `pos.wal.*` failpoints and,
    /// through compaction, the `pos.persist.*` ones.
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
            if !slot.store.wal_needs_sync() && dirty == slot.synced_epoch {
                self.skips.inc();
                continue;
            }
            attempted += 1;
            ctx.costs().charge_syscall(); // the sync(2)-style call
            match slot.store.wal_sync(&self.faults) {
                Ok(stats) => {
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
                }
            }
        }
        self.wal_log_bytes
            .set(self.slots.iter().map(|s| s.store.wal_log_bytes()).sum());
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
    use crate::persist::failpoints::PERSIST_RENAME;
    use crate::{PosConfig, PosStore, WalConfig};
    use eactors::prelude::*;
    use sgx_sim::{CostModel, Platform};

    const EVERY: Duration = Duration::from_micros(100);

    fn geometry() -> PosConfig {
        PosConfig {
            entries: 64,
            payload: 64,
            stacks: 4,
            encryption: None,
        }
    }

    /// `<tag>.{pos,wal}` in a directory of this test's own.
    fn files(tag: &str) -> WalConfig {
        let dir = std::env::temp_dir().join(format!("syncer-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        WalConfig::in_dir(dir, tag)
    }

    /// The same, in a directory that does not exist: opening writes
    /// nothing, every sync fails creating the log.
    fn unwritable_files() -> WalConfig {
        WalConfig::in_dir("/nonexistent-dir-zzz", "bad")
    }

    /// A fresh WAL-backed store over `cfg`'s files.
    fn wal_store(cfg: &WalConfig) -> Arc<PosStore> {
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap()
    }

    /// The same with one pending delta, `k = v`.
    fn dirty_store(cfg: &WalConfig) -> Arc<PosStore> {
        let store = wal_store(cfg);
        let r = store.register_reader();
        store.set(&r, b"k", b"v").unwrap();
        store
    }

    /// What recovery from `cfg`'s files reads under `key`.
    fn recovered(cfg: WalConfig, key: &[u8]) -> Option<Vec<u8>> {
        let reopened = PosStore::open_wal(cfg, geometry(), 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 8];
        let n = reopened.get(&r, key, &mut buf).unwrap()?;
        Some(buf[..n].to_vec())
    }

    /// Add `syncer` to `b` on one untrusted worker beside a stopper that
    /// shuts the runtime down once `done` holds, and run it.
    fn run_until(
        mut b: DeploymentBuilder,
        syncer: Syncer,
        mut done: impl FnMut() -> bool + Send + 'static,
    ) -> RuntimeReport {
        let s = b.actor("syncer", Placement::Untrusted, syncer);
        let stopper = b.actor(
            "stopper",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| {
                if done() {
                    ctx.shutdown();
                    Control::Park
                } else {
                    Control::Idle
                }
            }),
        );
        b.worker(&[s, stopper]);
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join()
    }

    #[test]
    #[should_panic(expected = "PosStore::open_wal")]
    fn a_store_without_a_wal_is_refused() {
        Syncer::new(vec![PosStore::new(geometry())], EVERY);
    }

    /// An enclaved writer — no filesystem access — storing `progress =
    /// 0..writes` into `store`, on a worker of its own beside the one
    /// `run_until` sets up.
    fn enclaved_writer(b: &mut DeploymentBuilder, store: Arc<PosStore>, writes: u64) {
        let e = b.enclave("writer-enclave");
        let mut i = 0u64;
        let writer = b.actor(
            "writer",
            Placement::Enclave(e),
            eactors::from_fn(move |_| {
                if i == writes {
                    return Control::Park;
                }
                let r = store.register_reader();
                store.set(&r, b"progress", &i.to_le_bytes()).unwrap();
                store.clean();
                i += 1;
                Control::Busy
            }),
        );
        b.worker(&[writer]);
    }

    #[test]
    fn syncer_persists_live_updates_from_an_enclaved_writer() {
        let cfg = files("live");
        let store = wal_store(&cfg);
        let mut b = DeploymentBuilder::new();
        enclaved_writer(&mut b, store.clone(), 20);
        let syncer = Syncer::new(vec![store], EVERY);
        let syncs = syncer.syncs();
        run_until(b, syncer, move || syncs.get() >= 5);
        // The files recover to a store holding a progress value.
        assert!(recovered(cfg, b"progress").is_some());
    }

    #[test]
    fn wal_store_syncs_deltas_through_the_actor() {
        let cfg = files("actor");
        let store = wal_store(&cfg);
        let mut b = DeploymentBuilder::new();
        enclaved_writer(&mut b, store.clone(), 10);
        let syncer = Syncer::new(vec![store], EVERY);
        let records = syncer.wal_records();
        let seen = records.clone();
        let report = run_until(b, syncer, move || seen.get() >= 10);
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
        assert_eq!(
            recovered(cfg, b"progress"),
            Some(9u64.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let syncer = Syncer::new(vec![dirty_store(&unwritable_files())], EVERY);
        let failures = syncer.failures();
        let seen = failures.clone();
        run_until(DeploymentBuilder::new(), syncer, move || seen.get() >= 3);
        assert!(failures.get() >= 3);
    }

    #[test]
    fn one_failing_store_does_not_starve_the_others() {
        let bad = dirty_store(&unwritable_files());
        let good_cfg = files("good");
        let good = dirty_store(&good_cfg);
        // The failing store is registered FIRST: pre-fix, its failure
        // aborted the pass and the good store was never written.
        let syncer = Syncer::new(vec![bad, good], EVERY);
        let failures = syncer.failures();
        let records = syncer.wal_records();
        let seen = failures.clone();
        run_until(DeploymentBuilder::new(), syncer, move || {
            seen.get() >= 2 && records.get() >= 1
        });
        assert_eq!(recovered(good_cfg, b"k"), Some(b"v".to_vec()));
        assert!(failures.get() >= 2);
    }

    #[test]
    fn injected_persist_fault_recovers_on_retry() {
        // A zero threshold makes the first sync compact, so the image
        // write's failpoints are reached through the Syncer.
        let mut cfg = files("faulty");
        cfg.compact_bytes = 0;
        let store = dirty_store(&cfg);

        let plan = FaultPlan::new();
        plan.fail_nth(PERSIST_RENAME, 1);
        let syncer = Syncer::new(vec![store], EVERY).with_fault_plan(plan.clone());
        let failures = syncer.failures();
        let compactions = syncer.wal_compactions();
        let seen = compactions.clone();
        run_until(DeploymentBuilder::new(), syncer, move || seen.get() >= 1);

        assert_eq!(failures.get(), 1, "one injected failure");
        assert_eq!(plan.trips(PERSIST_RENAME), 1);
        assert!(cfg.image_path.exists(), "the retried compaction landed");
        assert_eq!(recovered(cfg, b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn clean_stores_are_skipped_dirty_stores_are_synced() {
        let cfg = files("skip");
        let store = dirty_store(&cfg);
        let syncer = Syncer::new(vec![store], EVERY);
        let skips = syncer.sync_skips();
        let syncs = syncer.syncs();
        let records = syncer.wal_records();
        // Wait until the dirty store was written once and then skipped
        // on several subsequent passes.
        let seen = skips.clone();
        run_until(DeploymentBuilder::new(), syncer, move || seen.get() >= 5);

        assert!(skips.get() >= 5, "clean passes skipped the store");
        assert!(syncs.get() >= 5, "skipped-clean passes still count ok");
        assert_eq!(records.get(), 1, "the one delta was written exactly once");
        assert_eq!(recovered(cfg, b"k"), Some(b"v".to_vec()));
    }
}
