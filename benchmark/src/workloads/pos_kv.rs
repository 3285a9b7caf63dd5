//! `pos_kv`: an encrypted WAL-backed `PosStore` driven from one thread,
//! closed loop, no runtime. Seeded Zipf over 4 096 keys, 64 B values,
//! 50 % `get` / 45 % `set` / 5 % `delete`; `wal_sync` after every 64
//! mutations (an op is *acknowledged* when the sync covering it returns
//! `Ok`); `clean` on `Full` and every 1 024 ops; the library's default
//! `WalConfig` (compaction included). Afterwards the store
//! is dropped, reopened cold from its image and log, and compared key
//! for key against a shadow map. Only `pos` and `sgx_sim` crypto run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pos::{
    PosConfig, PosEncryption, PosError, PosStore, ReaderHandle, WalConfig, DEFAULT_COMPACT_BYTES,
};
use sgx_sim::crypto::SessionKey;
use sgx_sim::{FaultPlan, Platform};

use super::{Bench, Fault, Metrics, Notes, Params, Recorder};
use crate::counters::Snap;
use crate::gen::{kv_key, KvGen, KvOp, KV_KEYS, KV_SYNC_EVERY, SMALL_BYTES};
use crate::stats;

/// Ops between unconditional cleaner passes.
const CLEAN_EVERY: u64 = 1_024;
/// One op in this many gets its own span in a traced window.
const SPAN_EVERY: u64 = 64;
/// Validation budget for image and log on open.
const OPEN_BUDGET: u64 = 1 << 28;

/// What the last `drive` saw, for the `pos.*` per-layer metrics.
#[derive(Default)]
struct Window {
    ops: u64,
    syncs: u64,
    sync_us: Vec<f64>,
    records: u64,
    wal_bytes: u64,
    user_bytes: u64,
    compactions: u64,
    stall_ms: f64,
    clean_us: Vec<f64>,
    full_retries: u64,
    disk_bytes: u64,
    live_bytes: u64,
    memory_bytes: u64,
}

pub struct PosKv {
    fault: Fault,
    gen: KvGen,
    /// What every key must read as once the covering sync is durable.
    shadow: Vec<Option<[u8; SMALL_BYTES]>>,
    dir: PathBuf,
    platform: Platform,
    faults: FaultPlan,
    /// The reopened store has been compared with the shadow map.
    compared: bool,
    ops: u64,
    win: Window,
}

pub struct Sys {
    store: Arc<PosStore>,
    reader: ReaderHandle,
}

/// Whether a `get` result is what the shadow map holds for the key.
fn agrees(
    got: &Result<Option<usize>, PosError>,
    buf: &[u8; SMALL_BYTES],
    want: &Option<[u8; SMALL_BYTES]>,
) -> bool {
    match (got, want) {
        (Ok(None), None) => true,
        (Ok(Some(n)), Some(v)) => buf[..*n] == v[..],
        _ => false,
    }
}

impl PosKv {
    pub fn new(p: &Params) -> PosKv {
        PosKv {
            fault: p.fault,
            gen: KvGen::new(p.seed),
            shadow: vec![None; KV_KEYS],
            dir: crate::runner::out_dir().join(format!("pos_kv-{}", std::process::id())),
            platform: Platform::builder().build(),
            faults: FaultPlan::new(),
            compared: false,
            ops: 0,
            win: Window::default(),
        }
    }

    fn open(&self) -> Result<Arc<PosStore>, PosError> {
        PosStore::open_wal(
            WalConfig::in_dir(&self.dir, "kv"),
            PosConfig {
                entries: 4 * KV_KEYS as u32,
                payload: 8 + SMALL_BYTES + 64,
                stacks: 256,
                encryption: Some(PosEncryption {
                    key: SessionKey::derive(&[0x706F_735F_6B76]),
                    costs: self.platform.costs(),
                }),
            },
            OPEN_BUDGET,
        )
    }

    /// `set`/`delete` with the cleaner folded in: on `Full`, reclaim
    /// superseded versions (unlink pass, then free pass) and retry.
    fn mutate(&mut self, sys: &Sys, key: &[u8], value: Option<&[u8]>, rec: &mut Recorder) {
        loop {
            let result = match value {
                Some(v) => sys.store.set(&sys.reader, key, v),
                None => sys.store.delete(&sys.reader, key),
            };
            match result {
                Ok(()) => return,
                Err(PosError::Full) => {
                    self.win.full_retries += 1;
                    self.clean(sys, rec);
                    self.clean(sys, rec);
                }
                Err(e) => {
                    rec.violation(format!("write failed: {e}"));
                    return;
                }
            }
        }
    }

    fn clean(&mut self, sys: &Sys, rec: &mut Recorder) {
        let t = rec.now();
        sys.store.clean();
        rec.tracer.child(self.ops, "clean", "pos", t);
        self.win.clean_us.push((rec.now() - t) as f64 / 1e3);
    }

    /// Make everything staged durable; returns whether it is.
    fn sync(&mut self, sys: &Sys, rec: &mut Recorder) -> bool {
        let t = rec.now();
        let result = sys.store.wal_sync(&self.faults);
        rec.tracer.child(self.ops, "wal_sync", "pos", t);
        let took_ms = (rec.now() - t) as f64 / 1e6;
        match result {
            Ok(s) => {
                self.win.syncs += 1;
                self.win.sync_us.push(took_ms * 1e3);
                self.win.records += s.appended_records;
                self.win.wal_bytes += s.appended_bytes;
                if s.compacted_bytes > 0 {
                    self.win.compactions += 1;
                    self.win.stall_ms += took_ms;
                }
                true
            }
            Err(e) => {
                rec.violation(format!("wal_sync failed: {e}"));
                false
            }
        }
    }

    /// Apply one generated op; `true` if it mutated the store.
    fn apply(&mut self, sys: &Sys, op: KvOp, rec: &mut Recorder) -> bool {
        self.ops += 1;
        rec.attempted += 1;
        let spanned = rec.tracer.is_on() && self.ops.is_multiple_of(SPAN_EVERY);
        let t = if spanned { rec.now() } else { 0 };
        let (name, mutated) = match op {
            KvOp::Get { key } => {
                let mut buf = [0u8; SMALL_BYTES];
                let got = sys.store.get(&sys.reader, &kv_key(key), &mut buf);
                if !agrees(&got, &buf, &self.shadow[key]) {
                    rec.failed += 1;
                    rec.violation(format!(
                        "get key {key}: store says {got:?}, shadow disagrees"
                    ));
                }
                ("get", false)
            }
            KvOp::Set { key, value } => {
                self.mutate(sys, &kv_key(key), Some(&value), rec);
                self.shadow[key] = Some(value);
                self.win.user_bytes += (8 + SMALL_BYTES) as u64;
                ("set", true)
            }
            KvOp::Delete { key } => {
                self.mutate(sys, &kv_key(key), None, rec);
                self.shadow[key] = None;
                self.win.user_bytes += 8;
                ("delete", true)
            }
        };
        if spanned {
            rec.tracer.child(self.ops, name, "pos", t);
            rec.tracer.root(self.ops, "kv_op", t, rec.now());
        }
        if self.ops.is_multiple_of(CLEAN_EVERY) {
            self.clean(sys, rec);
        }
        mutated
    }

    /// One batch: ops until 64 mutations are staged, then the sync that
    /// acknowledges all of them.
    fn batch(&mut self, sys: &Sys, rec: &mut Recorder) {
        let mut batch_ops = 0;
        let mut staged = 0;
        let mut first_write_ns = None;
        while staged < KV_SYNC_EVERY {
            let op = self.gen.next_op();
            if first_write_ns.is_none() && !matches!(op, KvOp::Get { .. }) {
                first_write_ns = Some(rec.now());
            }
            staged += self.apply(sys, op, rec) as u64;
            batch_ops += 1;
        }
        if self.sync(sys, rec) {
            let done = rec.now();
            rec.completed += batch_ops;
            rec.samples
                .push((done, done - first_write_ns.expect("a batch has writes")));
        } else {
            rec.failed += batch_ops;
        }
        self.win.ops += batch_ops;
    }

    /// Every key of the reopened store against the shadow map.
    fn compare(&mut self, sys: &Sys, rec: &mut Recorder) {
        let mut wrong = 0;
        let mut buf = [0u8; SMALL_BYTES];
        for (key, want) in self.shadow.iter().enumerate() {
            let got = sys.store.get(&sys.reader, &kv_key(key), &mut buf);
            if !agrees(&got, &buf, want) {
                wrong += 1;
                if wrong == 1 {
                    rec.violation(format!(
                        "after reopen key {key} reads {got:?}, the last acknowledged sync left {}",
                        if want.is_some() { "a value" } else { "none" }
                    ));
                }
            }
        }
        if wrong > 1 {
            rec.violation(format!(
                "after reopen {wrong} keys differ from the shadow map"
            ));
        }
        self.compared = true;
    }
}

impl Bench for PosKv {
    type Sys = Sys;

    fn start(&mut self, full: bool, rec: &mut Recorder) -> Sys {
        if full {
            let _ = std::fs::remove_dir_all(&self.dir);
            std::fs::create_dir_all(&self.dir).expect("scratch dir under benchmark/out");
            self.shadow.fill(None);
        }
        let store = self.open().expect("open wal store");
        let sys = Sys {
            reader: store.register_reader(),
            store,
        };
        if full {
            // Pre-fill every key and reach a durable baseline, so the
            // window measures steady state.
            for key in 0..KV_KEYS {
                let value = self.gen.value();
                self.mutate(&sys, &kv_key(key), Some(&value), rec);
                self.shadow[key] = Some(value);
                if key as u64 % KV_SYNC_EVERY == KV_SYNC_EVERY - 1 {
                    self.sync(&sys, rec);
                }
            }
            while sys.store.wal_needs_sync() && self.sync(&sys, rec) {}
        }
        // First verified op.
        let mut buf = [0u8; SMALL_BYTES];
        let got = sys.store.get(&sys.reader, &kv_key(0), &mut buf);
        if !agrees(&got, &buf, &self.shadow[0]) {
            rec.violation(format!(
                "first read after open: {got:?} disagrees with the shadow map"
            ));
        }
        // The first reopen after the window is the untimed one.
        if !full && !self.compared {
            self.compare(&sys, rec);
        }
        sys
    }

    fn drive(&mut self, sys: &mut Sys, dur: Duration, rec: &mut Recorder) -> Duration {
        self.win = Window::default();
        let started = Instant::now();
        while started.elapsed() < dur {
            self.batch(sys, rec);
        }
        let spread = started.elapsed();
        let file_len = |name: &str| std::fs::metadata(self.dir.join(name)).map_or(0, |m| m.len());
        self.win.disk_bytes = file_len("kv.pos") + file_len("kv.wal");
        self.win.live_bytes =
            self.shadow.iter().flatten().count() as u64 * (8 + SMALL_BYTES) as u64;
        self.win.memory_bytes = sys.store.memory_bytes();
        spread
    }

    fn snap(&self, _sys: &Sys) -> Snap {
        Snap {
            platform: self.platform.stats(),
            runtime: None,
        }
    }

    fn verify(&mut self, sys: &mut Sys, rec: &mut Recorder) {
        // Where the window ended in the log's compaction cycle decides
        // how much a restart replays. Run on until the log grows past
        // half its compaction threshold, so every run restarts over a
        // typical log, not a lucky or an unlucky one. The window's own
        // figures are set aside meanwhile: `extras` reports the window.
        let window = std::mem::take(&mut self.win);
        let half = DEFAULT_COMPACT_BYTES / 2;
        let mut below = sys.store.wal_log_bytes() < half;
        for _ in 0..10_000 {
            self.batch(sys, rec);
            let now_below = sys.store.wal_log_bytes() < half;
            if below && !now_below {
                break;
            }
            below = now_below;
        }
        if self.fault == Fault::DropKey {
            // The store loses an acknowledged key behind the shadow
            // map's back; the reopen comparison must notice.
            let victim = self.shadow.iter().position(Option::is_some).unwrap_or(0);
            let _ = sys.store.delete(&sys.reader, &kv_key(victim));
        }
        while sys.store.wal_needs_sync() && self.sync(sys, rec) {}
        self.win = window;
        self.compared = false;
    }

    fn stop(&mut self, sys: Sys, _rec: &mut Recorder) {
        drop(sys);
    }

    fn extras(&self, _rec: &Recorder) -> (Metrics, Notes) {
        let w = &self.win;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        (
            vec![
                ("pos.clean_us", stats::median(&w.clean_us)),
                (
                    "pos.full_retries_per_kop",
                    per(w.full_retries as f64 * 1e3, w.ops as f64),
                ),
                ("pos.wal_sync_p50_us", stats::median(&w.sync_us)),
                (
                    "pos.records_per_sync",
                    per(w.records as f64, w.syncs as f64),
                ),
                ("pos.compactions", w.compactions as f64),
                ("pos.compaction_stall_ms", w.stall_ms),
                (
                    "pos.wal_bytes_per_user_byte",
                    per(w.wal_bytes as f64, w.user_bytes as f64),
                ),
                (
                    "pos.disk_bytes_per_live_byte",
                    per(w.disk_bytes as f64, w.live_bytes as f64),
                ),
                ("pos.memory_bytes", w.memory_bytes as f64),
            ],
            vec![
                (
                    "flush_policy".to_owned(),
                    format!("wal_sync every {KV_SYNC_EVERY} mutations"),
                ),
                ("syncs".to_owned(), w.syncs.to_string()),
                ("compactions".to_owned(), w.compactions.to_string()),
            ],
        )
    }
}

impl Drop for PosKv {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
