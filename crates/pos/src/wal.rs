//! The crash-consistent append-only delta log under a [`PosStore`].
//!
//! Whole-image persistence pays `O(store)` per sync — hopeless when one
//! roster update should cost one fsync of a few hundred bytes. A store
//! opened through [`PosStore::open_wal`] instead appends a framed delta
//! record per `set`/`delete`; the Syncer's `sync` becomes an append +
//! fsync of the log tail, and the full image is rewritten only when the
//! log grows past [`WalConfig::compact_bytes`] (compaction).
//!
//! # On-disk format
//!
//! The log starts with a 13-byte header (magic, version, flags); when the
//! store is encrypted a keyed tag over the header follows, so a log
//! written under a different key is rejected even when empty. Each record
//! is framed as
//!
//! ```text
//! [body_len: u32][crc64(body): u64][body]
//! ```
//!
//! where the body is `seq:u64, epoch:u64, kind:u8, klen:u32, key, value`
//! — sealed as one AEAD blob when the store is encrypted, so every record
//! carries a keyed MAC in addition to the CRC frame.
//!
//! # Crash consistency
//!
//! * A record is *durable* only once its fsync returns: the known-durable
//!   length is tracked, and any torn or unsynced tail is rewound
//!   (`set_len`) before the next append, so the log never contains a
//!   valid record after a torn one.
//! * On recovery the log is replayed over the image; a CRC or framing
//!   mismatch marks the torn tail, which is truncated away (prefix
//!   recovery). A record whose CRC matches but whose seal fails to
//!   authenticate is a tamper (or wrong key), not a crash, and rejects
//!   the whole log.
//!   Replay is two passes — *verify everything, apply the newest*: every
//!   record up to the torn tail goes through every check before anything
//!   is applied, then only the last record of each key is (a key's
//!   earlier records only build versions the closing clean frees). Any
//!   prefix of the log recovers to the state record-by-record replay
//!   gives; a store without a free entry for every surviving record is
//!   replayed record by record.
//! * Compaction orders image-then-truncate: the new image becomes durable
//!   via the tmp/fsync/rename path *before* the log is reset. A crash in
//!   between leaves the new image plus the full log — replay is
//!   idempotent (same records, same order), so recovery lands on the new
//!   state, never a mix.
//! * The compaction image is one cut of the store: the region is copied
//!   with the store's cleaner lock and this log's pending lock held (in
//!   that order), so no reclaim and no mutation runs beside the copy;
//!   checksum and file I/O happen after both are released.
//!
//! Every filesystem step consults the [`crate::failpoints`] sites
//! (`pos.wal.*` plus the `pos.persist.*` sites during compaction) on a
//! [`sgx_sim::FaultPlan`], so crash tests can kill the sync anywhere.

use std::collections::HashSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_sim::crypto::{SessionCipher, SEAL_OVERHEAD};
use sgx_sim::sync::Mutex;
use sgx_sim::FaultPlan;

use crate::error::PosError;
use crate::persist::{append_checksum, crc64, failpoints, write_image};
use crate::store::{PosConfig, PosStore};

/// Log file magic ("EAPOSW01").
const WAL_MAGIC: u64 = 0x4541_504F_5357_3031;
/// Log format version.
const WAL_VERSION: u32 = 1;
/// Header flag: record bodies are sealed and the header carries a tag.
const FLAG_ENCRYPTED: u8 = 1;
/// Header bytes before the optional keyed tag.
const HEADER_PLAIN: usize = 13;
/// Frame bytes before each record body (length + CRC64).
const FRAME_BYTES: usize = 12;
/// Fixed plaintext body bytes before the key (seq, epoch, kind, klen).
const BODY_FIXED: usize = 21;
/// Record kinds.
const KIND_SET: u8 = 0;
const KIND_DELETE: u8 = 1;

/// Default compaction threshold: fold the log into the image once its
/// record payload exceeds this many bytes.
pub const DEFAULT_COMPACT_BYTES: u64 = 1 << 20;

/// Where a WAL-backed store keeps its two files and when it compacts.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The V2 image file (the compaction target and recovery base).
    pub image_path: PathBuf,
    /// The append-only delta log.
    pub log_path: PathBuf,
    /// Compact once the log's record bytes exceed this threshold.
    pub compact_bytes: u64,
}

impl WalConfig {
    /// `<dir>/<name>.pos` + `<dir>/<name>.wal` with the default
    /// compaction threshold.
    pub fn in_dir(dir: impl AsRef<Path>, name: &str) -> Self {
        let dir = dir.as_ref();
        WalConfig {
            image_path: dir.join(format!("{name}.pos")),
            log_path: dir.join(format!("{name}.wal")),
            compact_bytes: DEFAULT_COMPACT_BYTES,
        }
    }
}

/// Encoded-but-not-yet-durable records, filled by mutators under the
/// store's wal lock and drained by the Syncer.
pub(crate) struct Pending {
    buf: Vec<u8>,
    records: u64,
    /// Plaintext body of the record being sealed (encrypted stores only);
    /// kept so a mutation allocates nothing once it has grown.
    plain: Vec<u8>,
}

/// Durable-file bookkeeping; only the (single) syncing thread takes this
/// lock across filesystem calls.
struct DurableLog {
    /// Known-durable log length (header included).
    bytes: u64,
    /// The log file exists and starts with a valid header.
    created: bool,
    /// Bytes past `bytes` are torn or of unknown durability and must be
    /// rewound before the next append.
    torn: bool,
}

/// What one [`PosStore::wal_sync`] pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalSync {
    /// Delta records made durable this pass.
    pub appended_records: u64,
    /// Bytes appended and fsynced this pass.
    pub appended_bytes: u64,
    /// Log payload bytes folded into the image (0 = no compaction ran).
    pub compacted_bytes: u64,
    /// Durable log length after the pass.
    pub log_bytes: u64,
}

pub(crate) struct Wal {
    config: WalConfig,
    header_len: u64,
    seq: AtomicU64,
    pending: Mutex<Pending>,
    file: Mutex<DurableLog>,
}

fn injected(site: &'static str) -> PosError {
    PosError::Io(std::io::Error::other(format!("fault injected at {site}")))
}

fn sync_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl Wal {
    fn new(config: WalConfig, encrypted: bool, next_seq: u64, bytes: u64, created: bool) -> Self {
        let header_len = if encrypted {
            (HEADER_PLAIN + 8) as u64
        } else {
            HEADER_PLAIN as u64
        };
        Wal {
            config,
            header_len,
            seq: AtomicU64::new(next_seq),
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                records: 0,
                plain: Vec::new(),
            }),
            file: Mutex::new(DurableLog {
                bytes,
                created,
                torn: false,
            }),
        }
    }

    pub(crate) fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending.lock()
    }

    /// Encode one delta record into the pending buffer. Caller holds the
    /// pending lock across the store's linearisation point.
    pub(crate) fn append_pending(
        &self,
        pending: &mut Pending,
        cipher: Option<&SessionCipher>,
        epoch: u64,
        tombstone: bool,
        key: &[u8],
        value: &[u8],
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (buf, plain) = (&mut pending.buf, &mut pending.plain);
        let encode = |out: &mut Vec<u8>| {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.push(if tombstone { KIND_DELETE } else { KIND_SET });
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        };
        // Reserve the frame, put the body behind it (sealed straight into
        // the buffer's tail when encrypted), then fill the frame in.
        let frame_at = buf.len();
        let body_at = frame_at + FRAME_BYTES;
        buf.resize(body_at, 0);
        match cipher {
            Some(c) => {
                plain.clear();
                encode(plain);
                buf.resize(body_at + SessionCipher::sealed_len(plain.len()), 0);
                c.seal(plain, &mut buf[body_at..])
                    .expect("seal into sized buffer");
            }
            None => encode(buf),
        }
        let body_len = (buf.len() - body_at) as u32;
        let crc = crc64(&buf[body_at..]);
        buf[frame_at..frame_at + 4].copy_from_slice(&body_len.to_le_bytes());
        buf[frame_at + 4..body_at].copy_from_slice(&crc.to_le_bytes());
        pending.records += 1;
    }

    fn header_bytes(&self, store: &PosStore) -> Vec<u8> {
        let mut h = Vec::with_capacity(self.header_len as usize);
        h.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        h.extend_from_slice(&WAL_VERSION.to_le_bytes());
        h.push(if store.encrypted() { FLAG_ENCRYPTED } else { 0 });
        if let Some(tag) = store.superblock_tag(&h[..HEADER_PLAIN]) {
            h.extend_from_slice(&tag.to_le_bytes());
        }
        h
    }

    /// Pending records, torn tail to repair, or compaction due?
    fn needs_sync(&self) -> bool {
        if self.pending.lock().records > 0 {
            return true;
        }
        let st = self.file.lock();
        st.torn
            || !st.created
            || st.bytes.saturating_sub(self.header_len) >= self.config.compact_bytes
    }

    fn log_bytes(&self) -> u64 {
        self.file.lock().bytes
    }

    fn sync(&self, store: &PosStore, faults: &FaultPlan) -> Result<WalSync, PosError> {
        // Drain under the pending lock, write without it: mutators keep
        // appending while the fsync runs.
        let (batch, records) = {
            let mut p = self.pending.lock();
            (
                std::mem::take(&mut p.buf),
                std::mem::replace(&mut p.records, 0),
            )
        };
        let mut st = self.file.lock();
        let mut durable = false;
        let result = self.sync_locked(&mut st, store, faults, &batch, records, &mut durable);
        drop(st);
        if !durable && !batch.is_empty() {
            // The batch never reached a successful fsync: put it back at
            // the FRONT of the pending buffer so record order (and hence
            // replay order) is preserved.
            let mut p = self.pending.lock();
            let mut restored = batch;
            restored.extend_from_slice(&p.buf);
            p.buf = restored;
            p.records += records;
        }
        result
    }

    fn sync_locked(
        &self,
        st: &mut DurableLog,
        store: &PosStore,
        faults: &FaultPlan,
        batch: &[u8],
        records: u64,
        durable: &mut bool,
    ) -> Result<WalSync, PosError> {
        let path = &self.config.log_path;
        if !st.created || !path.exists() {
            if faults.should_fail(failpoints::WAL_CREATE) {
                return Err(injected(failpoints::WAL_CREATE));
            }
            let header = self.header_bytes(store);
            let mut f = std::fs::File::create(path)?;
            f.write_all(&header)?;
            f.sync_all()?;
            sync_dir(path);
            st.bytes = header.len() as u64;
            st.created = true;
            st.torn = false;
        }
        let mut appended = 0u64;
        if !batch.is_empty() || st.torn {
            let mut f = std::fs::OpenOptions::new().write(true).open(path)?;
            if st.torn {
                // Rewind the torn/unsynced tail before appending.
                f.set_len(st.bytes)?;
                f.sync_all()?;
                st.torn = false;
            }
            if !batch.is_empty() {
                f.seek(SeekFrom::Start(st.bytes))?;
                if faults.should_fail(failpoints::WAL_APPEND) {
                    // Simulate a crash mid-append: half the batch lands.
                    let _ = f.write_all(&batch[..batch.len() / 2]);
                    let _ = f.sync_all();
                    st.torn = true;
                    return Err(injected(failpoints::WAL_APPEND));
                }
                if let Err(e) = f.write_all(batch) {
                    st.torn = true;
                    return Err(e.into());
                }
                if faults.should_fail(failpoints::WAL_SYNC) {
                    st.torn = true;
                    return Err(injected(failpoints::WAL_SYNC));
                }
                if let Err(e) = f.sync_all() {
                    st.torn = true;
                    return Err(e.into());
                }
                st.bytes += batch.len() as u64;
                appended = batch.len() as u64;
                *durable = true;
            }
        }
        let mut compacted = 0u64;
        let payload = st.bytes.saturating_sub(self.header_len);
        if payload >= self.config.compact_bytes {
            // The snapshot must be one cut of the store: with reclaim held
            // off (cleaner lock) and mutation held off (every `set`/`delete`
            // of a WAL-backed store runs under the pending lock), heads,
            // headers, payloads, free list and retired list all describe
            // the same instant. Lock order cleaner → pending; both are held
            // for the region copy only — checksum and file I/O come after.
            let mut image = {
                let _no_reclaim = store.lock_cleaner();
                let _no_mutation = self.pending.lock();
                store.image_body()
            };
            append_checksum(&mut image);
            // Image first (old-or-new via tmp/fsync/rename), truncate
            // second; a crash in between is healed by idempotent replay.
            write_image(&self.config.image_path, &image, faults)?;
            if faults.should_fail(failpoints::WAL_TRUNCATE) {
                return Err(injected(failpoints::WAL_TRUNCATE));
            }
            let header = self.header_bytes(store);
            let mut f = std::fs::File::create(path)?;
            f.write_all(&header)?;
            f.sync_all()?;
            st.bytes = header.len() as u64;
            compacted = payload;
        }
        Ok(WalSync {
            appended_records: records,
            appended_bytes: appended,
            compacted_bytes: compacted,
            log_bytes: st.bytes,
        })
    }
}

/// One authenticated record awaiting replay: where its key and value lie
/// in the staged plaintext.
struct Staged {
    delete: bool,
    /// No later record names the same key.
    newest: bool,
    key_at: usize,
    value_at: usize,
    end: usize,
}

/// Replay the delta log over a freshly restored store. Returns
/// `(next_seq, durable_bytes, created)`.
///
/// Two passes: *verify everything, apply the newest*. Every record up to
/// the torn tail is checked exactly as a record-by-record replay checks
/// it (frame, CRC, seal, body shape, strictly increasing sequence) before
/// anything is applied; then only the last record of each key is. Being
/// shadowed by a later record does not excuse a record from any check.
fn replay_log(
    store: &Arc<PosStore>,
    config: &WalConfig,
    budget: u64,
) -> Result<(u64, u64, bool), PosError> {
    let path = &config.log_path;
    if !path.exists() {
        return Ok((0, 0, false));
    }
    let meta = std::fs::metadata(path)?;
    if meta.len() > budget {
        return Err(PosError::Corrupt("delta log exceeds restore budget"));
    }
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    let header_len = if store.encrypted() {
        HEADER_PLAIN + 8
    } else {
        HEADER_PLAIN
    };
    if data.len() < header_len {
        // A crash inside log creation can leave an empty or torn header;
        // treat the log as absent and let the next sync rewrite it.
        return Ok((0, 0, false));
    }
    if u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) != WAL_MAGIC {
        return Err(PosError::Corrupt("bad log magic"));
    }
    if u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) != WAL_VERSION {
        return Err(PosError::Corrupt("unsupported log version"));
    }
    let flags = data[12];
    if flags & !FLAG_ENCRYPTED != 0 {
        return Err(PosError::Corrupt("unknown log flags"));
    }
    if (flags & FLAG_ENCRYPTED != 0) != store.encrypted() {
        return Err(PosError::Corrupt(if flags & FLAG_ENCRYPTED != 0 {
            "log is encrypted but the store is not"
        } else {
            "plaintext log for an encrypted store"
        }));
    }
    if store.encrypted() {
        let tag = u64::from_le_bytes(data[HEADER_PLAIN..header_len].try_into().expect("8 bytes"));
        match store.superblock_tag(&data[..HEADER_PLAIN]) {
            Some(expect) if expect == tag => {}
            _ => return Err(PosError::Corrupt("log header authentication failed")),
        }
    }
    // Pass one — verify everything. Walk the frames in order; every
    // CRC-whole record is authenticated and its plaintext staged, nothing
    // is applied yet.
    let mut staged: Vec<Staged> = Vec::new();
    // Opened bodies of an encrypted log, back to back (a plaintext log's
    // records are read where they lie). Plaintext is shorter than its
    // seal, so the log's length bounds it and the arena never regrows.
    let mut arena = vec![
        0u8;
        if store.encrypted() {
            data.len() - header_len
        } else {
            0
        }
    ];
    let mut arena_len = 0;
    let mut pos = header_len;
    let mut last_seq: Option<u64> = None;
    while pos < data.len() {
        let rest = &data[pos..];
        if rest.len() < FRAME_BYTES {
            break; // torn frame header
        }
        let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u64::from_le_bytes(rest[4..FRAME_BYTES].try_into().expect("8 bytes"));
        if body_len > rest.len() - FRAME_BYTES {
            break; // torn body
        }
        let body_at = pos + FRAME_BYTES;
        let body = &data[body_at..body_at + body_len];
        if crc64(body) != stored_crc {
            break; // torn tail
        }
        // From here on the record is CRC-whole, so any defect is tamper
        // (or a wrong key), not a crash: reject rather than truncate.
        let (at, plain_body) = match store.cipher() {
            Some(c) => {
                let at = arena_len;
                arena_len += body_len.saturating_sub(SEAL_OVERHEAD);
                c.open(body, &mut arena[at..arena_len])
                    .map_err(|_| PosError::Corrupt("log record authentication failed"))?;
                (at, &arena[at..arena_len])
            }
            None => (body_at, body),
        };
        if plain_body.len() < BODY_FIXED {
            return Err(PosError::Corrupt("log record too short"));
        }
        let seq = u64::from_le_bytes(plain_body[..8].try_into().expect("8 bytes"));
        let kind = plain_body[16];
        let klen =
            u32::from_le_bytes(plain_body[17..BODY_FIXED].try_into().expect("4 bytes")) as usize;
        if kind > KIND_DELETE {
            return Err(PosError::Corrupt("unknown log record kind"));
        }
        if plain_body.len() < BODY_FIXED + klen {
            return Err(PosError::Corrupt("log record key truncated"));
        }
        if matches!(last_seq, Some(p) if seq <= p) {
            return Err(PosError::Corrupt("log sequence regressed"));
        }
        last_seq = Some(seq);
        staged.push(Staged {
            delete: kind == KIND_DELETE,
            newest: false,
            key_at: at + BODY_FIXED,
            value_at: at + BODY_FIXED + klen,
            end: at + plain_body.len(),
        });
        pos = body_at + body_len;
    }
    let plain: &[u8] = if store.encrypted() { &arena } else { &data };

    // Which records survive: the last one of each key. A key's earlier
    // records only build versions the final clean throws away, and keys
    // do not interact, so applying the survivors in log order leaves every
    // key reading what applying all of them would. The one thing the
    // skipped records can change is how many entries are in use along the
    // way (a skipped delete would have made room), so the short cut is
    // taken only when it cannot run out: a free entry for every survivor.
    // A store fuller than that replays record by record.
    let mut keys = HashSet::with_capacity(staged.len());
    for rec in staged.iter_mut().rev() {
        rec.newest = keys.insert(&plain[rec.key_at..rec.value_at]);
    }
    let newest_only = store.free_entries() >= keys.len() as u64;
    drop(keys);

    // Pass two — apply, in log order.
    let reader = store.register_reader();
    for rec in staged.iter().filter(|rec| rec.newest || !newest_only) {
        let key = &plain[rec.key_at..rec.value_at];
        let value = &plain[rec.value_at..rec.end];
        let apply = |store: &PosStore| {
            if rec.delete {
                store.delete(&reader, key)
            } else {
                store.set(&reader, key, value)
            }
        };
        match apply(store) {
            // Replay pressure: superseded versions pile up faster than on
            // the live path. Reclaim (no concurrent readers) and retry.
            Err(PosError::Full) => {
                store.clean_to_quiescence();
                apply(store)?;
            }
            r => r?,
        }
    }
    if pos < data.len() {
        // Truncate the torn tail so later appends land after a clean
        // prefix.
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(pos as u64)?;
        f.sync_all()?;
    }
    store.clean_to_quiescence();
    Ok((last_seq.map(|s| s + 1).unwrap_or(0), pos as u64, true))
}

impl PosStore {
    /// Open (or create) a WAL-backed store: restore the image when
    /// present, replay the delta log over it, truncate any torn tail and
    /// attach the log so subsequent `set`/`delete` calls append deltas.
    ///
    /// `fresh` supplies the geometry (and encryption) for a first boot;
    /// when an image exists its geometry wins and only the encryption is
    /// taken from `fresh`. Both the image and the log are validated
    /// against `budget` before anything is allocated.
    ///
    /// # Errors
    ///
    /// [`PosError::Corrupt`] on a malformed, tampered or over-budget
    /// image or log; [`PosError::Io`] on filesystem failure.
    pub fn open_wal(
        config: WalConfig,
        fresh: PosConfig,
        budget: u64,
    ) -> Result<Arc<Self>, PosError> {
        let store = if config.image_path.exists() {
            let mut data = Vec::new();
            std::fs::File::open(&config.image_path)?.read_to_end(&mut data)?;
            Self::from_image_with_budget(&data, fresh.encryption, budget)?
        } else {
            Self::new(fresh)
        };
        let (next_seq, bytes, created) = replay_log(&store, &config, budget)?;
        let encrypted = store.encrypted();
        let wal = Wal::new(config, encrypted, next_seq, bytes, created);
        if store.wal.set(wal).is_err() {
            return Err(PosError::Corrupt("wal already attached"));
        }
        Ok(store)
    }

    /// Make pending delta records durable: append them to the log, fsync
    /// the tail, and compact into the image when the log has outgrown
    /// [`WalConfig::compact_bytes`]. The Syncer eactor calls this on the
    /// untrusted domain; enclaved mutators never issue the syscalls.
    ///
    /// Failed appends keep their records pending (order preserved) and
    /// rewind any torn tail on the next pass.
    ///
    /// # Errors
    ///
    /// [`PosError::Io`] on filesystem failure or an injected fault;
    /// [`PosError::Corrupt`] when no WAL is attached.
    pub fn wal_sync(&self, faults: &FaultPlan) -> Result<WalSync, PosError> {
        let wal = self.wal.get().ok_or(PosError::Corrupt("no wal attached"))?;
        wal.sync(self, faults)
    }

    /// Whether the attached WAL has work: pending records, a torn tail to
    /// repair, or a compaction due. `false` when no WAL is attached.
    pub fn wal_needs_sync(&self) -> bool {
        self.wal.get().is_some_and(|w| w.needs_sync())
    }

    /// Durable delta-log length in bytes (0 when no WAL is attached).
    pub fn wal_log_bytes(&self) -> u64 {
        self.wal.get().map(|w| w.log_bytes()).unwrap_or(0)
    }

    /// The attached WAL's image path (for maintenance-actor labelling).
    pub(crate) fn wal_image_path(&self) -> Option<&Path> {
        self.wal.get().map(|w| w.config.image_path.as_path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PosEncryption;
    use sgx_sim::crypto::SessionKey;
    use sgx_sim::{CostModel, Platform};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pos-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn geometry() -> PosConfig {
        PosConfig {
            entries: 64,
            payload: 128,
            stacks: 8,
            encryption: None,
        }
    }

    fn encryption() -> PosEncryption {
        PosEncryption {
            key: SessionKey::derive(&[9, 9, 9]),
            costs: Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        }
    }

    #[test]
    fn wal_round_trips_sets_and_deletes() {
        let dir = tmpdir("roundtrip");
        let cfg = WalConfig::in_dir(&dir, "rt");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"a", b"1").unwrap();
        store.set(&r, b"b", b"2").unwrap();
        store.set(&r, b"a", b"3").unwrap();
        store.delete(&r, b"b").unwrap();
        let faults = FaultPlan::default();
        let stats = store.wal_sync(&faults).unwrap();
        assert_eq!(stats.appended_records, 4);
        assert!(stats.appended_bytes > 0);
        drop(r);
        drop(store);

        // No image was ever written — state must come back from the log.
        assert!(!cfg.image_path.exists());
        let reopened = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(reopened.get(&r, b"a", &mut buf).unwrap(), Some(1));
        assert_eq!(&buf[..1], b"3");
        assert_eq!(reopened.get(&r, b"b", &mut buf).unwrap(), None);
    }

    #[test]
    fn unsynced_writes_are_lost_synced_writes_survive() {
        let dir = tmpdir("tail");
        let cfg = WalConfig::in_dir(&dir, "tail");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"durable", b"yes").unwrap();
        store.wal_sync(&FaultPlan::default()).unwrap();
        store.set(&r, b"volatile", b"gone").unwrap(); // never synced
        drop(r);
        drop(store);

        let reopened = PosStore::open_wal(cfg, geometry(), 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(reopened.get(&r, b"durable", &mut buf).unwrap(), Some(3));
        assert_eq!(reopened.get(&r, b"volatile", &mut buf).unwrap(), None);
    }

    #[test]
    fn compaction_folds_log_into_image() {
        let dir = tmpdir("compact");
        let mut cfg = WalConfig::in_dir(&dir, "cp");
        cfg.compact_bytes = 256; // compact aggressively
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        let faults = FaultPlan::default();
        let mut compactions = 0;
        for i in 0..32u32 {
            store.set(&r, b"counter", &i.to_le_bytes()).unwrap();
            store.clean();
            let stats = store.wal_sync(&faults).unwrap();
            if stats.compacted_bytes > 0 {
                compactions += 1;
                assert!(cfg.image_path.exists(), "compaction writes the image");
            }
        }
        assert!(compactions > 0, "small threshold must trigger compaction");
        assert!(store.wal_log_bytes() < 256 + 64, "log was reset");
        drop(r);
        drop(store);

        let reopened = PosStore::open_wal(cfg, geometry(), 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(reopened.get(&r, b"counter", &mut buf).unwrap(), Some(4));
        assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()), 31);
    }

    #[test]
    fn encrypted_wal_round_trips_and_rejects_wrong_key() {
        let dir = tmpdir("enc");
        let cfg = WalConfig::in_dir(&dir, "enc");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let mut geo = geometry();
        geo.encryption = Some(encryption());
        let store = PosStore::open_wal(cfg.clone(), geo, 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"secret", b"s3al3d").unwrap();
        store.wal_sync(&FaultPlan::default()).unwrap();
        drop(r);
        drop(store);

        let mut geo = geometry();
        geo.encryption = Some(encryption());
        let reopened = PosStore::open_wal(cfg.clone(), geo, 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(reopened.get(&r, b"secret", &mut buf).unwrap(), Some(6));

        let mut wrong = geometry();
        wrong.encryption = Some(PosEncryption {
            key: SessionKey::derive(&[1, 2, 3]),
            costs: Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        });
        let err = PosStore::open_wal(cfg, wrong, 1 << 24).unwrap_err();
        assert!(matches!(err, PosError::Corrupt(_)), "wrong key: {err:?}");
    }

    #[test]
    fn injected_append_fault_keeps_records_pending_and_recovers() {
        let dir = tmpdir("fault");
        let cfg = WalConfig::in_dir(&dir, "flt");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"k", b"v1").unwrap();

        let plan = FaultPlan::new();
        plan.fail_nth(failpoints::WAL_APPEND, 1);
        assert!(store.wal_sync(&plan).is_err(), "first append torn");
        assert!(store.wal_needs_sync(), "records stayed pending");
        // Retry repairs the torn tail and lands the batch.
        let stats = store.wal_sync(&plan).unwrap();
        assert_eq!(stats.appended_records, 1);
        drop(r);
        drop(store);

        let reopened = PosStore::open_wal(cfg, geometry(), 1 << 24).unwrap();
        let r = reopened.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(reopened.get(&r, b"k", &mut buf).unwrap(), Some(2));
        assert_eq!(&buf[..2], b"v1");
    }

    #[test]
    fn oversized_log_is_rejected_by_budget() {
        let dir = tmpdir("budget");
        let cfg = WalConfig::in_dir(&dir, "bud");
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"k", b"v").unwrap();
        store.wal_sync(&FaultPlan::default()).unwrap();
        drop(r);
        drop(store);
        let err = PosStore::open_wal(cfg, geometry(), 8).unwrap_err();
        assert!(matches!(err, PosError::Corrupt(_)));
    }
}
