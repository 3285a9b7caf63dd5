//! The Persistent Object Store proper.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use sgx_sim::crypto::{SessionCipher, SessionKey, SEAL_OVERHEAD};
use sgx_sim::sync::Mutex;
use sgx_sim::CostHandle;

use crate::epoch::{EpochState, ReaderHandle};
use crate::error::PosError;

/// Sentinel index: end of a list.
pub(crate) const NIL: u32 = u32::MAX;
/// Sentinel value length marking a deletion tombstone.
pub(crate) const TOMBSTONE: u32 = u32::MAX;

/// Entry life cycle states.
pub(crate) mod state {
    /// On the free list.
    pub const FREE: u8 = 0;
    /// Linked and current.
    pub const VALID: u8 = 1;
    /// Linked but superseded by a newer version (§4.1: old pairs remain in
    /// the stack for linearisability).
    pub const OUTDATED: u8 = 2;
    /// Removed from its stack; awaiting the grace period before reuse.
    pub const UNLINKED: u8 = 3;
}

pub(crate) struct EntryHeader {
    pub(crate) next: AtomicU32,
    pub(crate) state: AtomicU8,
    pub(crate) khash: AtomicU64,
    pub(crate) klen: AtomicU32,
    pub(crate) vlen: AtomicU32,
}

impl EntryHeader {
    fn empty(next: u32) -> Self {
        EntryHeader {
            next: AtomicU32::new(next),
            state: AtomicU8::new(state::FREE),
            khash: AtomicU64::new(0),
            klen: AtomicU32::new(0),
            vlen: AtomicU32::new(0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retired {
    pub(crate) idx: u32,
    pub(crate) epoch: u64,
    pub(crate) unlinked: bool,
}

/// Optional storage encryption (§4.1 "Storage encryption").
///
/// Keys are hashed through a keyed deterministic digest so lookups never
/// decrypt; pairs are stored as one combined sealed blob to preserve
/// integrity of the key/value binding.
pub struct PosEncryption {
    /// The store key (derive it inside an enclave; persist it sealed via
    /// [`PosStore::set_sealed_keys`]).
    pub key: SessionKey,
    /// Cost handle charging the simulated crypto expense.
    pub costs: CostHandle,
}

impl std::fmt::Debug for PosEncryption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PosEncryption").finish_non_exhaustive()
    }
}

/// Geometry and policy of a store.
#[derive(Debug)]
pub struct PosConfig {
    /// Number of preallocated entries.
    pub entries: u32,
    /// Payload bytes per entry (a pair needs `key + value` bytes, plus
    /// sealing overhead when encrypted).
    pub payload: usize,
    /// Number of hash stacks (the paper's B1..B32; more stacks = shorter
    /// scans).
    pub stacks: u32,
    /// Encrypt stored pairs.
    pub encryption: Option<PosEncryption>,
}

impl Default for PosConfig {
    fn default() -> Self {
        PosConfig {
            entries: 1024,
            payload: 256,
            stacks: 32,
            encryption: None,
        }
    }
}

/// A lean, concurrently accessible key-value store over a fixed memory
/// region (the paper's POS, §4.1).
///
/// * `set` pushes a new version onto the stack selected by the key hash —
///   writes are O(1) and old versions stay linked, which makes the store
///   linearisable without locks;
/// * `get` scans from the top, so the *newest* version wins and
///   frequently-updated keys are found fastest;
/// * superseded versions are recycled by [`PosStore::clean`] once every
///   concurrent reader has moved on (grace counters);
/// * the whole region can be [`PosStore::persist`]ed to a file and
///   [`PosStore::open`]ed after a reboot.
///
/// # Examples
///
/// ```
/// use pos::{PosConfig, PosStore};
///
/// let store = PosStore::new(PosConfig::default());
/// let reader = store.register_reader();
/// store.set(&reader, b"user:42", b"online")?;
/// let mut buf = [0u8; 64];
/// let n = store.get(&reader, b"user:42", &mut buf)?.expect("present");
/// assert_eq!(&buf[..n], b"online");
/// # Ok::<(), pos::PosError>(())
/// ```
pub struct PosStore {
    config_entries: u32,
    payload_size: usize,
    headers: Box<[EntryHeader]>,
    payload: Box<[std::cell::UnsafeCell<u8>]>,
    stack_heads: Box<[AtomicU32]>,
    /// Tagged (tag << 32 | idx) head of the free list.
    free_head: AtomicU64,
    free_count: AtomicU64,
    pub(crate) epochs: EpochState,
    pub(crate) retired: Mutex<Vec<Retired>>,
    cleaner_lock: Mutex<()>,
    cipher: Option<SessionCipher>,
    hash_seed: u64,
    sealed_keys: Mutex<Vec<u8>>,
    /// Attached delta log (set once by [`PosStore::open_wal`]).
    pub(crate) wal: std::sync::OnceLock<crate::wal::Wal>,
    /// Monotonic mutation counter; the Syncer/Cleaner compare it against
    /// the epoch they last serviced to skip clean stores.
    dirty: AtomicU64,
}

// Safety: payload bytes are only accessed by the exclusive owner of an
// entry (writer before publication, readers under epoch protection after).
unsafe impl Send for PosStore {}
unsafe impl Sync for PosStore {}

impl std::fmt::Debug for PosStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PosStore")
            .field("entries", &self.config_entries)
            .field("payload_size", &self.payload_size)
            .field("stacks", &self.stack_heads.len())
            .field("free_entries", &self.free_entries())
            .field("encrypted", &self.cipher.is_some())
            .finish()
    }
}

impl PosStore {
    /// Create an empty store with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized geometry.
    pub fn new(config: PosConfig) -> Arc<Self> {
        assert!(
            config.entries > 0 && config.entries < u32::MAX,
            "bad entry count"
        );
        assert!(config.payload > 0, "bad payload size");
        assert!(config.stacks > 0, "need at least one stack");
        let headers: Box<[EntryHeader]> = (0..config.entries)
            .map(|i| EntryHeader::empty(if i + 1 < config.entries { i + 1 } else { NIL }))
            .collect();
        let payload = (0..config.entries as usize * config.payload)
            .map(|_| std::cell::UnsafeCell::new(0))
            .collect();
        let stack_heads = (0..config.stacks).map(|_| AtomicU32::new(NIL)).collect();
        Arc::new(PosStore {
            config_entries: config.entries,
            payload_size: config.payload,
            headers,
            payload,
            stack_heads,
            free_head: AtomicU64::new(0),
            free_count: AtomicU64::new(config.entries as u64),
            epochs: EpochState::default(),
            retired: Mutex::new(Vec::new()),
            cleaner_lock: Mutex::new(()),
            cipher: config
                .encryption
                .map(|e| SessionCipher::new(e.key, e.costs)),
            hash_seed: 0x9053_7EED_0BA5_E64D,
            sealed_keys: Mutex::new(Vec::new()),
            wal: std::sync::OnceLock::new(),
            dirty: AtomicU64::new(0),
        })
    }

    /// Register a reader/writer; every actor accessing the store needs its
    /// own handle (see [`ReaderHandle`]).
    pub fn register_reader(&self) -> ReaderHandle {
        ReaderHandle::new(self.epochs.register())
    }

    /// Number of entries currently on the free list.
    pub fn free_entries(&self) -> u64 {
        self.free_count.load(Ordering::Relaxed)
    }

    /// Total preallocated entries.
    pub fn capacity(&self) -> u32 {
        self.config_entries
    }

    /// Per-entry payload capacity in bytes.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Whether pairs are stored encrypted.
    pub fn encrypted(&self) -> bool {
        self.cipher.is_some()
    }

    /// Store an opaque blob in the superblock's sealed-keys slot
    /// (typically an enclave-sealed encryption key, §4.1).
    pub fn set_sealed_keys(&self, blob: &[u8]) {
        *self.sealed_keys.lock() = blob.to_vec();
        self.dirty.fetch_add(1, Ordering::Release);
    }

    /// The blob stored via [`PosStore::set_sealed_keys`].
    pub fn sealed_keys(&self) -> Vec<u8> {
        self.sealed_keys.lock().clone()
    }

    fn hash_key(&self, key: &[u8]) -> u64 {
        match &self.cipher {
            Some(c) => c.det_digest(key),
            None => {
                // FNV-1a with a seed; plaintext stores need no keyed hash.
                let mut h = self.hash_seed ^ 0xcbf2_9ce4_8422_2325;
                for &b in key {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                h
            }
        }
    }

    fn stack_for(&self, khash: u64) -> &AtomicU32 {
        &self.stack_heads[(khash % self.stack_heads.len() as u64) as usize]
    }

    fn payload_slice(&self, idx: u32) -> *mut u8 {
        self.payload[idx as usize * self.payload_size].get()
    }

    fn pop_free(&self) -> Option<u32> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let tag = (head >> 32) as u32;
            let idx = head as u32;
            if idx == NIL {
                return None;
            }
            let next = self.headers[idx as usize].next.load(Ordering::Relaxed);
            let new = ((tag.wrapping_add(1) as u64) << 32) | next as u64;
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.fetch_sub(1, Ordering::Relaxed);
                    return Some(idx);
                }
                Err(h) => head = h,
            }
        }
    }

    pub(crate) fn push_free(&self, idx: u32) {
        self.headers[idx as usize]
            .state
            .store(state::FREE, Ordering::Release);
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let tag = (head >> 32) as u32;
            let top = head as u32;
            self.headers[idx as usize]
                .next
                .store(top, Ordering::Relaxed);
            let new = ((tag.wrapping_add(1) as u64) << 32) | idx as u64;
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(h) => head = h,
            }
        }
    }

    /// Encode a pair into entry `idx`, returning (klen, vlen) as stored.
    fn fill_entry(
        &self,
        idx: u32,
        khash: u64,
        key: &[u8],
        value: &[u8],
        vlen_meta: u32,
    ) -> Result<(), PosError> {
        let h = &self.headers[idx as usize];
        let buf =
            unsafe { std::slice::from_raw_parts_mut(self.payload_slice(idx), self.payload_size) };
        match &self.cipher {
            Some(cipher) => {
                // Combined pair: klen prefix + key + value, sealed as one.
                let mut plain = Vec::with_capacity(4 + key.len() + value.len());
                plain.extend_from_slice(&(key.len() as u32).to_le_bytes());
                plain.extend_from_slice(key);
                plain.extend_from_slice(value);
                let needed = plain.len() + SEAL_OVERHEAD;
                if needed > self.payload_size {
                    return Err(PosError::TooLarge {
                        needed,
                        capacity: self.payload_size,
                    });
                }
                let written = cipher.seal(&plain, buf)?;
                h.klen.store(written as u32, Ordering::Relaxed); // sealed blob length
            }
            None => {
                let needed = key.len() + value.len();
                if needed > self.payload_size {
                    return Err(PosError::TooLarge {
                        needed,
                        capacity: self.payload_size,
                    });
                }
                buf[..key.len()].copy_from_slice(key);
                buf[key.len()..needed].copy_from_slice(value);
                h.klen.store(key.len() as u32, Ordering::Relaxed);
            }
        }
        h.khash.store(khash, Ordering::Relaxed);
        h.vlen.store(vlen_meta, Ordering::Relaxed);
        Ok(())
    }

    /// Decode entry `idx`; returns `Some(value_len_written)` when the key
    /// matches, `None` otherwise. `out == None` checks the key only.
    fn read_entry(
        &self,
        idx: u32,
        key: &[u8],
        out: Option<&mut [u8]>,
    ) -> Result<Option<usize>, PosError> {
        let h = &self.headers[idx as usize];
        let buf = unsafe {
            std::slice::from_raw_parts(self.payload_slice(idx) as *const u8, self.payload_size)
        };
        match &self.cipher {
            Some(cipher) => {
                let sealed_len = h.klen.load(Ordering::Relaxed) as usize;
                let mut plain = vec![0u8; sealed_len.saturating_sub(SEAL_OVERHEAD)];
                cipher.open(&buf[..sealed_len], &mut plain)?;
                if plain.len() < 4 {
                    return Err(PosError::Corrupt("pair too short"));
                }
                let klen = u32::from_le_bytes([plain[0], plain[1], plain[2], plain[3]]) as usize;
                if plain.len() < 4 + klen {
                    return Err(PosError::Corrupt("pair key truncated"));
                }
                if &plain[4..4 + klen] != key {
                    return Ok(None);
                }
                let value = &plain[4 + klen..];
                match out {
                    Some(out) => {
                        if out.len() < value.len() {
                            return Err(PosError::BufferTooSmall {
                                needed: value.len(),
                                got: out.len(),
                            });
                        }
                        out[..value.len()].copy_from_slice(value);
                        Ok(Some(value.len()))
                    }
                    None => Ok(Some(0)),
                }
            }
            None => {
                let klen = h.klen.load(Ordering::Relaxed) as usize;
                if &buf[..klen] != key {
                    return Ok(None);
                }
                let vlen_meta = h.vlen.load(Ordering::Relaxed);
                let vlen = if vlen_meta == TOMBSTONE {
                    0
                } else {
                    vlen_meta as usize
                };
                match out {
                    Some(out) => {
                        if out.len() < vlen {
                            return Err(PosError::BufferTooSmall {
                                needed: vlen,
                                got: out.len(),
                            });
                        }
                        out[..vlen].copy_from_slice(&buf[klen..klen + vlen]);
                        Ok(Some(vlen))
                    }
                    None => Ok(Some(0)),
                }
            }
        }
    }

    fn set_inner(
        &self,
        reader: &ReaderHandle,
        key: &[u8],
        value: &[u8],
        vlen_meta: u32,
    ) -> Result<(), PosError> {
        let _pin = reader.pin(&self.epochs);
        let khash = self.hash_key(key);
        // With a delta log attached the pending-record lock is held across
        // the linearisation point *and* the record append, so the log
        // replays same-key versions in exactly the order the stack
        // published them (a replay of any log prefix is then a state the
        // store actually passed through).
        let mut wal_pending = self.wal.get().map(|w| w.lock_pending());
        let idx = self.pop_free().ok_or(PosError::Full)?;
        if let Err(e) = self.fill_entry(idx, khash, key, value, vlen_meta) {
            self.push_free(idx);
            return Err(e);
        }
        let h = &self.headers[idx as usize];
        h.state.store(state::VALID, Ordering::Release);

        // Push onto the key's stack (linearisation point).
        let head = self.stack_for(khash);
        let mut top = head.load(Ordering::Acquire);
        loop {
            h.next.store(top, Ordering::Relaxed);
            match head.compare_exchange_weak(top, idx, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(t) => top = t,
            }
        }

        // Mark superseded versions outdated (ease of cleaning, §4.1).
        let now = self.epochs.current();
        let mut cur = h.next.load(Ordering::Acquire);
        let mut newly_retired = Vec::new();
        while cur != NIL {
            let ch = &self.headers[cur as usize];
            if ch.khash.load(Ordering::Relaxed) == khash
                && ch
                    .state
                    .compare_exchange(
                        state::VALID,
                        state::OUTDATED,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                // Only retire entries whose key *actually* matches; a hash
                // collision must keep the colliding key alive.
                match self.read_entry(cur, key, None) {
                    Ok(Some(_)) => newly_retired.push(Retired {
                        idx: cur,
                        epoch: now,
                        unlinked: false,
                    }),
                    _ => {
                        // Collision or unreadable: restore.
                        ch.state.store(state::VALID, Ordering::Release);
                    }
                }
            }
            cur = ch.next.load(Ordering::Acquire);
        }
        if !newly_retired.is_empty() {
            self.retired.lock().extend(newly_retired);
        }
        if let Some(pending) = wal_pending.as_mut() {
            let wal = self.wal.get().expect("guard implies wal");
            wal.append_pending(
                pending,
                self.cipher.as_ref(),
                self.epochs.current(),
                vlen_meta == TOMBSTONE,
                key,
                value,
            );
        }
        drop(wal_pending);
        self.dirty.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Insert or update `key` → `value`.
    ///
    /// # Errors
    ///
    /// [`PosError::Full`] when no free entry remains,
    /// [`PosError::TooLarge`] when the pair exceeds the entry payload.
    pub fn set(&self, reader: &ReaderHandle, key: &[u8], value: &[u8]) -> Result<(), PosError> {
        self.set_inner(reader, key, value, value.len() as u32)
    }

    /// Delete `key` by inserting a tombstone version.
    ///
    /// Subsequent [`PosStore::get`] calls return `None`; the cleaner
    /// eventually reclaims the tombstone and every older version.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosStore::set`].
    pub fn delete(&self, reader: &ReaderHandle, key: &[u8]) -> Result<(), PosError> {
        self.set_inner(reader, key, b"", TOMBSTONE)
    }

    /// Look up the newest value for `key`, copying it into `out`.
    ///
    /// Returns `Ok(None)` when the key is absent or deleted;
    /// `Ok(Some(len))` with the value length otherwise.
    ///
    /// # Errors
    ///
    /// [`PosError::BufferTooSmall`] when `out` cannot hold the value;
    /// [`PosError::Crypto`] if a stored pair fails authentication.
    pub fn get(
        &self,
        reader: &ReaderHandle,
        key: &[u8],
        out: &mut [u8],
    ) -> Result<Option<usize>, PosError> {
        let _pin = reader.pin(&self.epochs);
        let khash = self.hash_key(key);
        let mut cur = self.stack_for(khash).load(Ordering::Acquire);
        while cur != NIL {
            let h = &self.headers[cur as usize];
            if h.khash.load(Ordering::Relaxed) == khash {
                let vlen_meta = h.vlen.load(Ordering::Relaxed);
                // `None` here is a hash collision; keep scanning.
                if let Some(n) = self.read_entry(cur, key, Some(out))? {
                    return Ok(if vlen_meta == TOMBSTONE {
                        None
                    } else {
                        Some(n)
                    });
                }
            }
            cur = h.next.load(Ordering::Acquire);
        }
        Ok(None)
    }

    /// Whether `key` currently has a (non-deleted) value.
    ///
    /// # Errors
    ///
    /// [`PosError::Crypto`] if a stored pair fails authentication.
    pub fn contains(&self, reader: &ReaderHandle, key: &[u8]) -> Result<bool, PosError> {
        let mut sink = vec![0u8; self.payload_size];
        Ok(self.get(reader, key, &mut sink)?.is_some())
    }

    /// One housekeeping pass (the paper's Cleaner eactor): unlink
    /// superseded entries and recycle those past their grace period.
    ///
    /// Returns the number of entries returned to the free list. Safe to
    /// call concurrently with readers and writers; concurrent cleaner
    /// passes serialise on an internal lock.
    pub fn clean(&self) -> usize {
        let _single = self.cleaner_lock.lock();
        self.epochs.advance();
        self.retire_spent_tombstones();
        let mut retired = std::mem::take(&mut *self.retired.lock());
        let mut freed = 0;
        let mut keep = Vec::with_capacity(retired.len());
        for mut r in retired.drain(..) {
            if !r.unlinked {
                self.unlink(r.idx);
                self.headers[r.idx as usize]
                    .state
                    .store(state::UNLINKED, Ordering::Release);
                // Grace restarts at unlink: readers that saw the entry
                // while it was linked must pass before reuse.
                r.unlinked = true;
                r.epoch = self.epochs.current();
                keep.push(r);
            } else if self.epochs.safe_to_free(r.epoch) {
                self.push_free(r.idx);
                freed += 1;
            } else {
                keep.push(r);
            }
        }
        let mut lock = self.retired.lock();
        // New retirees may have arrived while we worked; keep them too.
        keep.extend(lock.drain(..));
        *lock = keep;
        freed
    }

    /// Run [`PosStore::clean`] until nothing more can be freed (useful in
    /// tests and at shutdown when no readers are active).
    pub fn clean_to_quiescence(&self) -> usize {
        let mut total = 0;
        let mut idle_passes = 0;
        while idle_passes < 2 {
            let freed = self.clean();
            total += freed;
            if self.retired.lock().is_empty() {
                break;
            }
            // Unlinking and freeing happen on separate passes, so allow
            // one idle pass before concluding readers block progress.
            if freed == 0 {
                idle_passes += 1;
            } else {
                idle_passes = 0;
            }
        }
        total
    }

    /// Retire deletion tombstones that no longer shadow an older version
    /// (cleaner-only; caller holds the cleaner lock).
    ///
    /// A tombstone must stay linked while any same-key entry sits *behind*
    /// it in its chain — unlinking it early would resurrect the stale
    /// value for concurrent readers. Once the shadowed versions are gone,
    /// the tombstone itself is recyclable garbage.
    fn retire_spent_tombstones(&self) {
        let now = self.epochs.current();
        let mut newly_retired = Vec::new();
        for head in self.stack_heads.iter() {
            let mut cur = head.load(Ordering::Acquire);
            while cur != NIL {
                let h = &self.headers[cur as usize];
                let next = h.next.load(Ordering::Acquire);
                if h.vlen.load(Ordering::Relaxed) == TOMBSTONE
                    && h.state.load(Ordering::Acquire) == state::VALID
                {
                    let khash = h.khash.load(Ordering::Relaxed);
                    // Anything with the same hash behind us?
                    let mut scan = next;
                    let mut shadows = false;
                    while scan != NIL {
                        let sh = &self.headers[scan as usize];
                        if sh.khash.load(Ordering::Relaxed) == khash {
                            shadows = true;
                            break;
                        }
                        scan = sh.next.load(Ordering::Acquire);
                    }
                    if !shadows
                        && h.state
                            .compare_exchange(
                                state::VALID,
                                state::OUTDATED,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        newly_retired.push(Retired {
                            idx: cur,
                            epoch: now,
                            unlinked: false,
                        });
                    }
                }
                cur = next;
            }
        }
        if !newly_retired.is_empty() {
            self.retired.lock().extend(newly_retired);
        }
    }

    /// Unlink entry `idx` from its stack (cleaner-only; caller holds the
    /// cleaner lock).
    fn unlink(&self, idx: u32) {
        let khash = self.headers[idx as usize].khash.load(Ordering::Relaxed);
        let target_next = self.headers[idx as usize].next.load(Ordering::Acquire);
        let head = self.stack_for(khash);
        'retry: loop {
            let mut cur = head.load(Ordering::Acquire);
            if cur == idx {
                match head.compare_exchange(idx, target_next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return,
                    Err(_) => continue 'retry, // a push won; idx now has a predecessor
                }
            }
            while cur != NIL {
                let next = self.headers[cur as usize].next.load(Ordering::Acquire);
                if next == idx {
                    // Predecessors are only modified by the (single)
                    // cleaner, so a plain store is safe.
                    self.headers[cur as usize]
                        .next
                        .store(target_next, Ordering::Release);
                    return;
                }
                cur = next;
            }
            // Not found: already unlinked (defensive; should not happen).
            return;
        }
    }

    pub(crate) fn header(&self, idx: u32) -> &EntryHeader {
        &self.headers[idx as usize]
    }

    pub(crate) fn raw_payload(&self, idx: u32) -> &[u8] {
        unsafe {
            std::slice::from_raw_parts(self.payload_slice(idx) as *const u8, self.payload_size)
        }
    }

    /// Overwrite entry `idx`'s payload from `src` (image restore only —
    /// the store is under exclusive construction when this runs).
    pub(crate) fn load_payload(&self, idx: u32, src: &[u8]) {
        let n = src.len().min(self.payload_size);
        // Safety: single-threaded reconstruction; no entry is owned yet.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.payload_slice(idx), n) }
    }

    pub(crate) fn stack_heads(&self) -> &[AtomicU32] {
        &self.stack_heads
    }

    pub(crate) fn free_head_word(&self) -> u64 {
        self.free_head.load(Ordering::Acquire)
    }

    pub(crate) fn restore_free_head(&self, word: u64, count: u64) {
        self.free_head.store(word, Ordering::Release);
        self.free_count.store(count, Ordering::Release);
    }

    /// Keyed authentication tag over the image superblock (encrypted
    /// stores only — the "AEAD tag" of the durability model).
    pub(crate) fn superblock_tag(&self, superblock: &[u8]) -> Option<u64> {
        self.cipher.as_ref().map(|c| c.det_digest(superblock))
    }

    /// Structural validation of a just-restored store (image restore
    /// only; single-threaded, runs before the store is shared).
    ///
    /// The image comes from host-controlled storage, so every list it
    /// encodes is walked defensively: indices must be in range, chains
    /// must terminate (a crafted cycle would otherwise hang `get`), and
    /// the lengths of live entries must fit the payload region (an
    /// oversized `klen`/`vlen` would otherwise panic `read_entry`).
    /// Logical tearing from a concurrently-mutating snapshot is repaired
    /// where safe (the free count is recomputed from the walk) rather
    /// than rejected, since `persist` may legitimately race writers.
    pub(crate) fn validate_restored(&self) -> Result<(), PosError> {
        let entries = self.config_entries as usize;
        // Free list: bounded walk, in-range, acyclic; the counter is
        // recomputed from the walk.
        let mut on_free_list = vec![false; entries];
        let mut idx = self.free_head.load(Ordering::Acquire) as u32;
        let mut free_walk = 0u64;
        while idx != NIL {
            let i = idx as usize;
            if i >= entries {
                return Err(PosError::Corrupt("free-list index out of range"));
            }
            if std::mem::replace(&mut on_free_list[i], true) {
                return Err(PosError::Corrupt("free list is cyclic"));
            }
            free_walk += 1;
            idx = self.headers[i].next.load(Ordering::Acquire);
        }
        self.free_count.store(free_walk, Ordering::Release);
        // Stacks: bounded walks; live entries must have sane lengths.
        for head in self.stack_heads.iter() {
            let mut idx = head.load(Ordering::Acquire);
            let mut steps = 0usize;
            while idx != NIL {
                let i = idx as usize;
                if i >= entries {
                    return Err(PosError::Corrupt("stack index out of range"));
                }
                steps += 1;
                if steps > entries {
                    return Err(PosError::Corrupt("stack chain is cyclic"));
                }
                let h = &self.headers[i];
                let st = h.state.load(Ordering::Acquire);
                if st == state::VALID || st == state::OUTDATED {
                    let klen = h.klen.load(Ordering::Relaxed) as usize;
                    if klen > self.payload_size {
                        return Err(PosError::Corrupt("entry key length exceeds payload"));
                    }
                    let vlen_meta = h.vlen.load(Ordering::Relaxed);
                    if self.cipher.is_none()
                        && vlen_meta != TOMBSTONE
                        && klen + vlen_meta as usize > self.payload_size
                    {
                        return Err(PosError::Corrupt("entry value length exceeds payload"));
                    }
                }
                idx = h.next.load(Ordering::Acquire);
            }
        }
        Ok(())
    }

    /// Bytes of memory the store occupies (for EPC/host accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.config_entries as usize * (self.payload_size + std::mem::size_of::<EntryHeader>()))
            as u64
    }

    /// Monotonic mutation epoch: bumped on every successful `set`,
    /// `delete` or sealed-keys update. Maintenance actors compare it
    /// against the epoch they last serviced to skip clean stores.
    pub fn dirty_epoch(&self) -> u64 {
        self.dirty.load(Ordering::Acquire)
    }

    /// Hold off every reclaim ([`PosStore::clean`] serialises on this
    /// lock). The WAL's compaction takes it, then the pending lock, around
    /// its snapshot — the lock order is cleaner → pending.
    pub(crate) fn lock_cleaner(&self) -> std::sync::MutexGuard<'_, ()> {
        self.cleaner_lock.lock()
    }

    pub(crate) fn cipher(&self) -> Option<&SessionCipher> {
        self.cipher.as_ref()
    }

    /// Whether a delta log is attached (see [`PosStore::open_wal`]).
    pub fn wal_attached(&self) -> bool {
        self.wal.get().is_some()
    }
}
