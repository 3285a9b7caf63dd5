//! Persistence: dump and restore the store region.
//!
//! The paper's POS is a memory-mapped file that leans on the kernel page
//! cache, syncing only occasionally (§4.1). Without `mmap` in our
//! dependency budget we simulate the same life cycle with an explicit
//! binary image: [`PosStore::persist`] is the `sync`, [`PosStore::open`]
//! is the boot-time mapping. The on-disk layout mirrors Figure 4:
//! superblock (magic, version, flags, geometry, epoch), sealed keys,
//! stack heads, entry headers, payload region, and the retired list.
//!
//! # Durability and trust
//!
//! The image file lives on host-controlled storage, so persistence treats
//! it as adversarial input:
//!
//! * **Atomic replace** — [`PosStore::persist`] writes `<path>.tmp`,
//!   fsyncs, then renames over the target, so a crash at any point leaves
//!   either the old or the new image, never a torn mix.
//! * **Tamper evidence** — images end in a CRC64 over the whole image;
//!   encrypted stores additionally carry a keyed authentication tag over
//!   the superblock. [`PosStore::from_image`] verifies both before
//!   trusting any field.
//! * **Adversarial restore** — geometry is validated against the image
//!   length and a configurable memory budget before any allocation, and
//!   all lists are walked with cycle/bounds checks (see
//!   `PosStore::validate_restored`).
//! * **Fault injection** — [`PosStore::persist_with`] consults named
//!   failpoints (see [`failpoints`]) on a [`sgx_sim::FaultPlan`], so
//!   tests can kill the write at every step and prove recovery.
//!
//! [`PosStore::from_image`] reads the current image version only. A
//! reader that also took the pre-checksum layout would let whoever holds
//! the file pick the checks: rewrite the version word, drop the flags
//! byte, the tag and the trailer, and an encrypted store would load with
//! neither verified. Any other version is [`PosError::Corrupt`].

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sgx_sim::FaultPlan;

use crate::error::PosError;
use crate::store::{state, PosConfig, PosEncryption, PosStore, Retired, NIL};

const MAGIC: u64 = 0x4541_504F_5356_3031; // "EAPOSV01"
/// The one image version written and read: checksummed, flagged, tagged
/// when encrypted.
const VERSION: u32 = 2;
/// Superblock flag: payloads are sealed and a keyed tag follows the
/// retired list.
const FLAG_ENCRYPTED: u8 = 1;
/// Serialised bytes per entry header (next, state, khash, klen, vlen).
const HEADER_BYTES: u64 = 21;

/// Default cap on the memory a restored store may allocate (1 GiB).
///
/// [`PosStore::from_image`] rejects images whose declared geometry needs
/// more; use [`PosStore::from_image_with_budget`] to override.
pub const DEFAULT_RESTORE_BUDGET: u64 = 1 << 30;

/// Failpoint site names consulted by [`PosStore::persist_with`].
///
/// Arm them on a [`sgx_sim::FaultPlan`] to simulate a host crash at each
/// step of the sync: tmp-file creation, a torn mid-image write, the
/// fsync, or the final rename.
pub mod failpoints {
    /// Creating `<path>.tmp` fails.
    pub const PERSIST_CREATE: &str = "pos.persist.create";
    /// The image write tears halfway through (partial tmp file remains).
    pub const PERSIST_WRITE: &str = "pos.persist.write";
    /// The fsync of the tmp file fails.
    pub const PERSIST_SYNC: &str = "pos.persist.sync";
    /// The rename over the target fails (tmp file remains, target keeps
    /// the old image).
    pub const PERSIST_RENAME: &str = "pos.persist.rename";
    /// Creating the delta-log file (or rewriting its header) fails.
    pub const WAL_CREATE: &str = "pos.wal.create";
    /// The delta-log append tears halfway through (a torn record remains
    /// at the tail until the next sync repairs it).
    pub const WAL_APPEND: &str = "pos.wal.append";
    /// The fsync of the delta log fails (appended bytes are of unknown
    /// durability; they are rewound and re-appended on the next sync).
    pub const WAL_SYNC: &str = "pos.wal.sync";
    /// Truncating the delta log after a compaction fails (the new image
    /// and the full log coexist; replay is idempotent, so recovery sees
    /// the new state).
    pub const WAL_TRUNCATE: &str = "pos.wal.truncate";
}

/// CRC64 (ECMA-182, reflected) lookup tables, built at compile time.
///
/// `CRC64_TABLES[0]` is the classic byte table: entry `i` is the register
/// after shifting the byte `i` through eight zero bits. `CRC64_TABLES[k]`
/// is the same byte followed by `k` further zero *bytes*
/// (`T[k][i] = T[0][T[k-1][i] & 0xFF] ^ (T[k-1][i] >> 8)`). The CRC is
/// linear over GF(2), so the register after sixteen input bytes is the
/// XOR of each byte's contribution shifted through the bytes that follow
/// it — sixteen independent lookups instead of a sixteen-deep dependency
/// chain, which is all [`crc64`] changes about the byte loop.
static CRC64_TABLES: [[u64; 256]; 16] = {
    let mut tables = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte through the register: the loop the sliced kernel is
/// equivalent to, and its tail.
fn crc64_bytes(mut crc: u64, data: &[u8]) -> u64 {
    for &b in data {
        crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC64 (ECMA-182, reflected) of `data` — the checksum sealed into
/// store images and delta-log frames. Exposed so tools and tests can
/// re-frame tampered images.
///
/// Sixteen bytes per step (slice-by-16): the register is folded into the
/// first of two little-endian words, then every byte of both words is
/// looked up in the table for its distance from the end of the block.
/// Bit-identical to the byte-at-a-time loop on every input.
pub fn crc64(data: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let (lo, hi) = block.split_at(8);
        let a = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ crc;
        let b = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        // Byte `k` of `a` has fifteen minus `k` bytes behind it in the
        // block, byte `k` of `b` seven minus `k`.
        crc = 0;
        for k in 0..8 {
            crc ^=
                t[15 - k][(a >> (8 * k)) as u8 as usize] ^ t[7 - k][(b >> (8 * k)) as u8 as usize];
        }
    }
    !crc64_bytes(crc, blocks.remainder())
}

fn injected(site: &'static str) -> PosError {
    PosError::Io(std::io::Error::other(format!("fault injected at {site}")))
}

/// Seal `image` with its CRC64 trailer.
pub(crate) fn append_checksum(image: &mut Vec<u8>) {
    let crc = crc64(image);
    image.extend_from_slice(&crc.to_le_bytes());
}

/// Replace the file at `path` with `image`: `<path>.tmp`, fsync, rename,
/// directory sync, each step behind its `pos.persist.*` failpoint.
pub(crate) fn write_image(path: &Path, image: &[u8], faults: &FaultPlan) -> Result<(), PosError> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);

    if faults.should_fail(failpoints::PERSIST_CREATE) {
        return Err(injected(failpoints::PERSIST_CREATE));
    }
    let mut f = std::fs::File::create(&tmp)?;
    if faults.should_fail(failpoints::PERSIST_WRITE) {
        // Simulate a crash mid-write: half the image reaches the tmp
        // file, the target is untouched.
        f.write_all(&image[..image.len() / 2])?;
        let _ = f.sync_all();
        return Err(injected(failpoints::PERSIST_WRITE));
    }
    f.write_all(image)?;
    if faults.should_fail(failpoints::PERSIST_SYNC) {
        return Err(injected(failpoints::PERSIST_SYNC));
    }
    f.sync_all()?;
    drop(f);
    if faults.should_fail(failpoints::PERSIST_RENAME) {
        return Err(injected(failpoints::PERSIST_RENAME));
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best effort — some filesystems
    // do not support fsync on directories).
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PosError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(PosError::Corrupt("length overflow"))?;
        if end > self.data.len() {
            return Err(PosError::Corrupt("image truncated"));
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PosError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PosError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PosError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

impl PosStore {
    /// Serialise the whole store into a byte image (checksummed, and
    /// tagged when the store is encrypted).
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = self.image_body();
        append_checksum(&mut out);
        out
    }

    /// The image without its CRC64 trailer: one pass over the region,
    /// nothing else. This is the part of a snapshot that has to see the
    /// store standing still (the WAL's compaction holds its cut only
    /// across this copy); [`append_checksum`] and the file I/O need the
    /// bytes, not the store.
    pub(crate) fn image_body(&self) -> Vec<u8> {
        let entries = self.capacity();
        let payload = self.payload_size();
        let stacks = self.stack_heads();
        let mut out = Vec::with_capacity(64 + entries as usize * (payload + 21));
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&entries.to_le_bytes());
        out.extend_from_slice(&(payload as u64).to_le_bytes());
        out.extend_from_slice(&(stacks.len() as u32).to_le_bytes());
        out.push(if self.encrypted() { FLAG_ENCRYPTED } else { 0 });
        out.extend_from_slice(&self.epochs.current().to_le_bytes());
        out.extend_from_slice(&self.free_head_word().to_le_bytes());
        out.extend_from_slice(&self.free_entries().to_le_bytes());
        let sealed = self.sealed_keys();
        out.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
        out.extend_from_slice(&sealed);
        let superblock_end = out.len();
        for h in stacks {
            out.extend_from_slice(&h.load(Ordering::Acquire).to_le_bytes());
        }
        for i in 0..entries {
            let h = self.header(i);
            out.extend_from_slice(&h.next.load(Ordering::Acquire).to_le_bytes());
            out.push(h.state.load(Ordering::Acquire));
            out.extend_from_slice(&h.khash.load(Ordering::Relaxed).to_le_bytes());
            out.extend_from_slice(&h.klen.load(Ordering::Relaxed).to_le_bytes());
            out.extend_from_slice(&h.vlen.load(Ordering::Relaxed).to_le_bytes());
        }
        for i in 0..entries {
            out.extend_from_slice(self.raw_payload(i));
        }
        {
            let retired = self.retired.lock();
            out.extend_from_slice(&(retired.len() as u32).to_le_bytes());
            for r in retired.iter() {
                out.extend_from_slice(&r.idx.to_le_bytes());
                out.extend_from_slice(&r.epoch.to_le_bytes());
                out.push(r.unlinked as u8);
            }
        }
        if let Some(tag) = self.superblock_tag(&out[..superblock_end]) {
            out.extend_from_slice(&tag.to_le_bytes());
        }
        out
    }

    /// Write the store image to `path` (the paper's occasional `sync`).
    ///
    /// Crash-consistent: the image goes to `<path>.tmp` first, is fsynced,
    /// and is renamed over the target only once fully durable. A crash at
    /// any point leaves `path` holding either the previous image or the
    /// new one, never a torn mix.
    ///
    /// The image is read off the live region field by field, so it is a
    /// consistent cut only if nothing mutates or reclaims meanwhile:
    /// quiescing writers and cleaners is the caller's job for a bare
    /// `persist` (concurrent readers are harmless). A WAL-backed store
    /// needs no such care — [`PosStore::wal_sync`] takes its own cut when
    /// it compacts.
    ///
    /// # Errors
    ///
    /// [`PosError::Io`] on filesystem failure.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), PosError> {
        self.persist_with(path, &FaultPlan::default())
    }

    /// [`PosStore::persist`] with failpoints: each step consults `faults`
    /// (see [`failpoints`]) so tests can kill the sync mid-flight.
    ///
    /// # Errors
    ///
    /// [`PosError::Io`] on filesystem failure or an injected fault.
    pub fn persist_with(&self, path: impl AsRef<Path>, faults: &FaultPlan) -> Result<(), PosError> {
        write_image(path.as_ref(), &self.to_image(), faults)
    }

    /// Reconstruct a store from a byte image with the default
    /// [`DEFAULT_RESTORE_BUDGET`] memory cap.
    ///
    /// `encryption` must match what the store was created with (pass the
    /// key recovered from the sealed-keys blob). After a reboot no
    /// readers exist, so all pending retirees are reclaimed immediately.
    ///
    /// # Errors
    ///
    /// [`PosError::Corrupt`] on a malformed, truncated, tampered or
    /// oversized image.
    pub fn from_image(
        image: &[u8],
        encryption: Option<PosEncryption>,
    ) -> Result<Arc<Self>, PosError> {
        Self::from_image_with_budget(image, encryption, DEFAULT_RESTORE_BUDGET)
    }

    /// [`PosStore::from_image`] with an explicit memory budget: images
    /// whose declared geometry would allocate more than `budget` bytes
    /// are rejected as [`PosError::Corrupt`] before any allocation.
    ///
    /// # Errors
    ///
    /// [`PosError::Corrupt`] on a malformed, truncated, tampered or
    /// over-budget image.
    pub fn from_image_with_budget(
        image: &[u8],
        encryption: Option<PosEncryption>,
        budget: u64,
    ) -> Result<Arc<Self>, PosError> {
        let mut head = Cursor {
            data: image,
            pos: 0,
        };
        if head.u64()? != MAGIC {
            return Err(PosError::Corrupt("bad magic"));
        }
        if head.u32()? != VERSION {
            return Err(PosError::Corrupt("unsupported version"));
        }
        // Everything before the integrity trailer.
        let crc_at = image
            .len()
            .checked_sub(8)
            .filter(|&at| at >= head.pos)
            .ok_or(PosError::Corrupt("image truncated"))?;
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&image[crc_at..]);
        if crc64(&image[..crc_at]) != u64::from_le_bytes(stored) {
            return Err(PosError::Corrupt("checksum mismatch"));
        }
        let body = &image[..crc_at];
        let mut c = Cursor {
            data: body,
            pos: head.pos,
        };
        let entries = c.u32()?;
        let payload = c.u64()? as usize;
        let stacks = c.u32()?;
        let flags = c.u8()?;
        if flags & !FLAG_ENCRYPTED != 0 {
            return Err(PosError::Corrupt("unknown flags"));
        }
        if (flags & FLAG_ENCRYPTED != 0) != encryption.is_some() {
            return Err(PosError::Corrupt(if flags & FLAG_ENCRYPTED != 0 {
                "image is encrypted but no key was supplied"
            } else {
                "key supplied for a plaintext image"
            }));
        }
        if entries == 0 || payload == 0 || stacks == 0 {
            return Err(PosError::Corrupt("zero geometry"));
        }
        if entries == u32::MAX {
            return Err(PosError::Corrupt("entry count out of range"));
        }
        let epoch = c.u64()?;
        let free_head = c.u64()?;
        let free_count = c.u64()?;
        let sealed_len = c.u32()? as usize;

        // Validate the declared geometry against what the image actually
        // contains and the memory budget *before* allocating anything, so
        // an inflated header cannot OOM the restore.
        let payload_region = (entries as u64)
            .checked_mul(payload as u64)
            .ok_or(PosError::Corrupt("geometry overflow"))?;
        let declared = (sealed_len as u64)
            .checked_add(stacks as u64 * 4)
            .and_then(|n| n.checked_add(entries as u64 * HEADER_BYTES))
            .and_then(|n| n.checked_add(payload_region))
            .and_then(|n| n.checked_add(4)) // retired-list length field
            .ok_or(PosError::Corrupt("geometry overflow"))?;
        let remaining = (body.len() - c.pos) as u64;
        if declared > remaining {
            return Err(PosError::Corrupt("geometry exceeds image size"));
        }
        let header_mem = entries as u64 * std::mem::size_of::<crate::store::EntryHeader>() as u64;
        if payload_region.saturating_add(header_mem) > budget {
            return Err(PosError::Corrupt("geometry exceeds restore budget"));
        }

        let sealed = c.take(sealed_len)?.to_vec();
        let superblock_end = c.pos;

        let store = PosStore::new(PosConfig {
            entries,
            payload,
            stacks,
            encryption,
        });
        store.set_sealed_keys(&sealed);
        store.epochs.restore(epoch);
        for head in store.stack_heads() {
            let idx = c.u32()?;
            if idx != NIL && idx >= entries {
                return Err(PosError::Corrupt("stack head out of range"));
            }
            head.store(idx, Ordering::Release);
        }
        for i in 0..entries {
            let h = store.header(i);
            let next = c.u32()?;
            if next != NIL && next >= entries {
                return Err(PosError::Corrupt("entry link out of range"));
            }
            h.next.store(next, Ordering::Release);
            let st = c.u8()?;
            if st > state::UNLINKED {
                return Err(PosError::Corrupt("bad entry state"));
            }
            h.state.store(st, Ordering::Release);
            h.khash.store(c.u64()?, Ordering::Relaxed);
            h.klen.store(c.u32()?, Ordering::Relaxed);
            h.vlen.store(c.u32()?, Ordering::Relaxed);
        }
        for i in 0..entries {
            let src = c.take(payload)?;
            store.load_payload(i, src);
        }
        if (free_head as u32) != NIL && (free_head as u32) >= entries {
            return Err(PosError::Corrupt("free head out of range"));
        }
        if free_count > entries as u64 {
            return Err(PosError::Corrupt("free count exceeds capacity"));
        }
        store.restore_free_head(free_head, free_count);
        let n_retired = c.u32()? as usize;
        let mut retired = Vec::new();
        let mut seen = vec![false; entries as usize];
        // `n_retired` is untrusted, but each record consumes 13 bytes
        // from the cursor, so the loop is bounded by the image length.
        for _ in 0..n_retired {
            let idx = c.u32()?;
            if idx >= entries {
                return Err(PosError::Corrupt("retired index out of range"));
            }
            if std::mem::replace(&mut seen[idx as usize], true) {
                return Err(PosError::Corrupt("duplicate retired entry"));
            }
            retired.push(Retired {
                idx,
                epoch: c.u64()?,
                unlinked: c.u8()? != 0,
            });
        }
        *store.retired.lock() = retired;
        if flags & FLAG_ENCRYPTED != 0 {
            let tag = c.u64()?;
            match store.superblock_tag(&body[..superblock_end]) {
                Some(expect) if expect == tag => {}
                _ => return Err(PosError::Corrupt("superblock authentication failed")),
            }
        }
        if c.pos != body.len() {
            return Err(PosError::Corrupt("trailing bytes after image"));
        }
        store.validate_restored()?;
        // Fresh boot: no readers can be pinned, reclaim everything now.
        store.clean_to_quiescence();
        Ok(store)
    }

    /// Read a store image from `path` (the boot-time mapping).
    ///
    /// # Errors
    ///
    /// [`PosError::Io`] on filesystem failure, [`PosError::Corrupt`] on a
    /// malformed image.
    pub fn open(
        path: impl AsRef<Path>,
        encryption: Option<PosEncryption>,
    ) -> Result<Arc<Self>, PosError> {
        Self::open_with_budget(path, encryption, DEFAULT_RESTORE_BUDGET)
    }

    /// [`PosStore::open`] with an explicit restore memory budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosStore::from_image_with_budget`], plus
    /// [`PosError::Io`] on filesystem failure.
    pub fn open_with_budget(
        path: impl AsRef<Path>,
        encryption: Option<PosEncryption>,
        budget: u64,
    ) -> Result<Arc<Self>, PosError> {
        let mut data = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut data)?;
        Self::from_image_with_budget(&data, encryption, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalConfig;

    /// The definition, one bit at a time, no tables: what `crc64` has to
    /// equal on every input.
    fn crc64_reference(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in data {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xC96C_5795_D787_0F42
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn seeded(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc64_is_the_bytewise_function() {
        // CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // Every split of head block / whole blocks / tail, at every
        // alignment of the loads.
        let buf = seeded(96);
        for offset in 0..=15 {
            for len in 0..=80 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc64(data),
                    crc64_reference(data),
                    "len {len} at offset {offset}"
                );
            }
        }
        let big = seeded(1 << 20);
        assert_eq!(crc64(&big), crc64_reference(&big));
        assert_eq!(crc64(&big[3..]), crc64_reference(&big[3..]));
    }

    /// Image and log written by the commit before the sliced kernel
    /// (8 entries × 16 B, 2 stacks, plaintext): `a=1`, `b=2`, sync, image,
    /// then `a=3`, delete `b`, `c=4`, sync.
    const GOLDEN_IMAGE: [u8; 373] = [
        0x31, 0x30, 0x56, 0x53, 0x4f, 0x50, 0x41, 0x45, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
        0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x01, 0x4b, 0xce, 0xb3, 0xe3, 0x3e,
        0x1f, 0xd8, 0x3b, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
        0x01, 0xfe, 0xcf, 0xb3, 0xe3, 0x3e, 0x20, 0xd8, 0x3b, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x61, 0x31, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x62, 0x32, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xcd, 0xa4, 0x48, 0xcc, 0xbc, 0x32, 0xba, 0xd6,
    ];
    const GOLDEN_LOG: [u8; 187] = [
        0x31, 0x30, 0x57, 0x53, 0x4f, 0x50, 0x41, 0x45, 0x01, 0x00, 0x00, 0x00, 0x00, 0x17, 0x00,
        0x00, 0x00, 0x80, 0x1c, 0x25, 0x1a, 0x3a, 0x96, 0x22, 0xdc, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x61, 0x31, 0x17, 0x00, 0x00, 0x00, 0x35, 0xc2, 0x8b, 0xce, 0xbb, 0xbb, 0xe3, 0x23,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x62, 0x32, 0x17, 0x00, 0x00, 0x00, 0xf7, 0xd9, 0x15,
        0x86, 0xd0, 0x1b, 0x07, 0xa2, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x61, 0x33, 0x16, 0x00,
        0x00, 0x00, 0xeb, 0x0f, 0xf1, 0xab, 0x3b, 0xfc, 0xba, 0xce, 0x03, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00,
        0x00, 0x62, 0x17, 0x00, 0x00, 0x00, 0x1b, 0x2b, 0x42, 0x98, 0x75, 0x32, 0x95, 0x3a, 0x04,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x01, 0x00, 0x00, 0x00, 0x63, 0x34,
    ];

    fn golden_geometry() -> PosConfig {
        PosConfig {
            entries: 8,
            payload: 16,
            stacks: 2,
            encryption: None,
        }
    }

    fn golden_files(tag: &str) -> WalConfig {
        let dir = std::env::temp_dir().join(format!("pos-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        WalConfig::in_dir(&dir, "g")
    }

    #[test]
    fn files_written_before_the_sliced_kernel_still_open() {
        let files = golden_files("read");
        std::fs::write(&files.image_path, GOLDEN_IMAGE).unwrap();
        std::fs::write(&files.log_path, GOLDEN_LOG).unwrap();
        let store = PosStore::open_wal(files.clone(), golden_geometry(), 1 << 20).unwrap();
        let r = store.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(store.get(&r, b"a", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], b'3');
        assert_eq!(store.get(&r, b"b", &mut buf).unwrap(), None);
        assert_eq!(store.get(&r, b"c", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], b'4');
        // Nothing was torn: all five records were taken.
        assert_eq!(store.wal_log_bytes(), GOLDEN_LOG.len() as u64);

        // The image alone is the state at its cut.
        let image = PosStore::from_image(&GOLDEN_IMAGE, None).unwrap();
        let r = image.register_reader();
        assert_eq!(image.get(&r, b"a", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], b'1');
        assert_eq!(image.get(&r, b"b", &mut buf).unwrap(), Some(1));
        assert_eq!(image.get(&r, b"c", &mut buf).unwrap(), None);
    }

    #[test]
    fn the_same_history_writes_the_same_bytes() {
        // The other direction: what this commit writes is, byte for byte,
        // what the earlier reader was given.
        let files = golden_files("write");
        let store = PosStore::open_wal(files.clone(), golden_geometry(), 1 << 20).unwrap();
        let r = store.register_reader();
        let faults = FaultPlan::new();
        store.set(&r, b"a", b"1").unwrap();
        store.set(&r, b"b", b"2").unwrap();
        store.wal_sync(&faults).unwrap();
        store.persist(&files.image_path).unwrap();
        store.set(&r, b"a", b"3").unwrap();
        store.delete(&r, b"b").unwrap();
        store.set(&r, b"c", b"4").unwrap();
        store.wal_sync(&faults).unwrap();
        assert_eq!(std::fs::read(&files.image_path).unwrap(), GOLDEN_IMAGE);
        assert_eq!(std::fs::read(&files.log_path).unwrap(), GOLDEN_LOG);
    }
}
