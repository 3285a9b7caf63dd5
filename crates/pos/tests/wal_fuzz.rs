//! Log-aware crash and tamper fuzz of the POS delta log.
//!
//! The delta log lives on host-controlled storage (SGX threat model), so
//! these tests drive the recovery path through everything a hostile or
//! crashing host can leave behind:
//!
//! * **torn tails** — the log truncated at every sampled byte offset must
//!   recover a *prefix* of the write history (old-or-new per key, never a
//!   mix, never a panic);
//! * **bit flips** — a flipped byte either breaks the record CRC (treated
//!   as a torn tail: truncate, keep the prefix) or, with the CRC
//!   refreshed on an encrypted log, fails the record's seal and rejects
//!   the log as `Corrupt`;
//! * **wrong keys** — a log written under a different session key is
//!   rejected at the header tag, even when it contains zero records;
//! * **probabilistic soak** — a 1-2% fault plan over every WAL and
//!   persist failpoint while writing and syncing; whatever the crash
//!   schedule, reopening must land on a state equal to some prefix of
//!   the issued writes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use pos::failpoints::{
    PERSIST_RENAME, PERSIST_SYNC, PERSIST_WRITE, WAL_APPEND, WAL_CREATE, WAL_SYNC,
};
use pos::{crc64, PosConfig, PosError, PosStore, WalConfig};
use sgx_sim::crypto::SessionKey;
use sgx_sim::{CostModel, FaultPlan, Platform};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pos-walfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn geometry() -> PosConfig {
    PosConfig {
        entries: 64,
        payload: 128,
        stacks: 8,
        encryption: None,
    }
}

fn encryption(seed: &[u64]) -> pos::PosEncryption {
    pos::PosEncryption {
        key: SessionKey::derive(seed),
        costs: Platform::builder()
            .cost_model(CostModel::zero())
            .build()
            .costs(),
    }
}

/// Parse the frame boundaries of a plaintext log: offsets where each
/// record's frame begins, plus the end offset.
fn record_offsets(log: &[u8], header_len: usize) -> Vec<usize> {
    let mut offsets = vec![header_len];
    let mut pos = header_len;
    while pos + 12 <= log.len() {
        let body_len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + body_len;
        offsets.push(pos);
    }
    assert_eq!(pos, log.len(), "test log must end on a record boundary");
    offsets
}

/// Write `n` records (`k{i}` -> `v{i}`), one sync per record so every
/// record boundary is a durable point. Returns the log bytes.
fn build_log(cfg: &WalConfig, n: usize) -> Vec<u8> {
    let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    let faults = FaultPlan::new();
    for i in 0..n {
        store
            .set(&r, format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
        store.wal_sync(&faults).unwrap();
    }
    std::fs::read(&cfg.log_path).unwrap()
}

/// Assert the reopened store holds exactly records `0..prefix` of a
/// [`build_log`] history.
fn assert_is_prefix(store: &Arc<PosStore>, total: usize, prefix: usize) {
    let r = store.register_reader();
    let mut buf = [0u8; 32];
    for i in 0..total {
        let got = store.get(&r, format!("k{i}").as_bytes(), &mut buf).unwrap();
        if i < prefix {
            let n = got.unwrap_or_else(|| panic!("k{i} lost from a {prefix}-record prefix"));
            assert_eq!(&buf[..n], format!("v{i}").as_bytes(), "k{i} value mixed");
        } else {
            assert!(
                got.is_none(),
                "k{i} must not survive truncation at {prefix}"
            );
        }
    }
}

#[test]
fn torn_tail_at_every_sampled_offset_recovers_a_prefix() {
    let dir = test_dir("torn");
    let cfg = WalConfig::in_dir(&dir, "torn");
    const RECORDS: usize = 8;
    let log = build_log(&cfg, RECORDS);
    let offsets = record_offsets(&log, 13);
    assert_eq!(offsets.len(), RECORDS + 1);

    // Every byte length from empty file to full log, stepping through
    // each frame: whole-record boundaries recover that many records,
    // mid-record cuts recover the records before the cut.
    for cut in (0..=log.len()).step_by(5).chain(offsets.iter().copied()) {
        std::fs::write(&cfg.log_path, &log[..cut]).unwrap();
        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24)
            .unwrap_or_else(|e| panic!("cut at {cut} must recover, got {e}"));
        let whole = offsets
            .iter()
            .filter(|&&o| o <= cut)
            .count()
            .saturating_sub(1);
        assert_is_prefix(&store, RECORDS, whole);
        if cut >= offsets[0] {
            // The torn tail was truncated: the file now ends at the last
            // whole record, so a second open sees a clean log. (A cut
            // inside the header is treated as an absent log and left for
            // the next sync to rewrite.)
            assert_eq!(
                std::fs::metadata(&cfg.log_path).unwrap().len(),
                offsets[whole] as u64,
                "cut at {cut}: torn tail must be truncated to the last whole record"
            );
        }
        drop(store);
        let again = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        assert_is_prefix(&again, RECORDS, whole);
    }
}

#[test]
fn bit_flips_without_crc_refresh_recover_the_prefix_before_the_flip() {
    let dir = test_dir("flip");
    let cfg = WalConfig::in_dir(&dir, "flip");
    const RECORDS: usize = 6;
    let log = build_log(&cfg, RECORDS);
    let offsets = record_offsets(&log, 13);

    // Flip one bit inside each record (frame and body bytes alike): the
    // CRC no longer matches, so replay must stop *before* the flipped
    // record — prefix recovery, no panic, no mixed state.
    for rec in 0..RECORDS {
        for at in (offsets[rec]..offsets[rec + 1]).step_by(7) {
            let mut bad = log.clone();
            bad[at] ^= 1 << (at % 8);
            std::fs::write(&cfg.log_path, &bad).unwrap();
            match PosStore::open_wal(cfg.clone(), geometry(), 1 << 24) {
                Ok(store) => {
                    // A flip in the frame's length field can also shear
                    // the following records; the recovered state must
                    // still be a prefix no longer than `rec`.
                    let r = store.register_reader();
                    let mut buf = [0u8; 32];
                    for i in 0..rec {
                        let n = store
                            .get(&r, format!("k{i}").as_bytes(), &mut buf)
                            .unwrap()
                            .unwrap_or_else(|| panic!("flip at {at}: k{i} lost"));
                        assert_eq!(&buf[..n], format!("v{i}").as_bytes());
                    }
                }
                // A length-field flip may masquerade as a corrupt frame
                // whose CRC happens to cover a "record" that then fails
                // validation — rejection is also sound.
                Err(PosError::Corrupt(_)) => {}
                Err(e) => panic!("flip at {at}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn crc_refreshed_tamper_on_encrypted_log_is_rejected() {
    let dir = test_dir("sealed");
    let cfg = WalConfig::in_dir(&dir, "sealed");
    let mut geo = geometry();
    geo.encryption = Some(encryption(&[7, 7]));
    let store = PosStore::open_wal(cfg.clone(), geo, 1 << 24).unwrap();
    let r = store.register_reader();
    store.set(&r, b"secret", b"payload").unwrap();
    store.wal_sync(&FaultPlan::new()).unwrap();
    drop(r);
    drop(store);

    let log = std::fs::read(&cfg.log_path).unwrap();
    let header_len = 13 + 8; // encrypted header carries the keyed tag
    let body_len = u32::from_le_bytes(log[header_len..header_len + 4].try_into().unwrap()) as usize;
    let body_at = header_len + 12;
    // Flip a byte mid-body and refresh the frame CRC: the frame is now
    // self-consistent, so only the record's AEAD seal can catch it.
    for at in (body_at..body_at + body_len).step_by(5) {
        let mut forged = log.clone();
        forged[at] ^= 0x40;
        let crc = crc64(&forged[body_at..body_at + body_len]);
        forged[header_len + 4..header_len + 12].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&cfg.log_path, &forged).unwrap();
        let mut geo = geometry();
        geo.encryption = Some(encryption(&[7, 7]));
        let err = PosStore::open_wal(cfg.clone(), geo, 1 << 24).unwrap_err();
        assert!(
            matches!(err, PosError::Corrupt("log record authentication failed")),
            "refreshed-CRC tamper at {at} must fail authentication, got {err:?}"
        );
    }
}

#[test]
fn wrong_key_log_is_rejected_even_when_empty() {
    let dir = test_dir("wrongkey");
    // Write a log (with one record) under key A.
    let cfg_a = WalConfig::in_dir(&dir, "a");
    let mut geo = geometry();
    geo.encryption = Some(encryption(&[1]));
    let store = PosStore::open_wal(cfg_a.clone(), geo, 1 << 24).unwrap();
    let r = store.register_reader();
    store.set(&r, b"k", b"v").unwrap();
    store.wal_sync(&FaultPlan::new()).unwrap();
    drop(r);
    drop(store);

    // An empty log created under key B: header only, zero records.
    let cfg_b = WalConfig::in_dir(&dir, "b");
    let mut geo = geometry();
    geo.encryption = Some(encryption(&[2]));
    let store = PosStore::open_wal(cfg_b.clone(), geo, 1 << 24).unwrap();
    store.wal_sync(&FaultPlan::new()).unwrap(); // creates the header
    drop(store);

    // Key A's store handed key B's log (host swaps files): the header
    // tag must reject it before any record is even parsed.
    std::fs::copy(&cfg_b.log_path, &cfg_a.log_path).unwrap();
    let mut geo = geometry();
    geo.encryption = Some(encryption(&[1]));
    let err = PosStore::open_wal(cfg_a.clone(), geo, 1 << 24).unwrap_err();
    assert!(
        matches!(err, PosError::Corrupt("log header authentication failed")),
        "swapped log must fail the header tag, got {err:?}"
    );

    // A plaintext log for an encrypted store (and vice versa) is a flag
    // mismatch, also rejected.
    let cfg_c = WalConfig::in_dir(&dir, "c");
    let store = PosStore::open_wal(cfg_c.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    // A record makes the plaintext log longer than the encrypted header,
    // so the mismatch is caught by the flag check, not short-header
    // forgiveness.
    store.set(&r, b"k", b"v").unwrap();
    store.wal_sync(&FaultPlan::new()).unwrap();
    drop(r);
    drop(store);
    std::fs::copy(&cfg_c.log_path, &cfg_a.log_path).unwrap();
    let mut geo = geometry();
    geo.encryption = Some(encryption(&[1]));
    let err = PosStore::open_wal(cfg_a, geo, 1 << 24).unwrap_err();
    assert!(matches!(
        err,
        PosError::Corrupt("plaintext log for an encrypted store")
    ));
}

/// Model of the write history: apply ops `0..n` to a map.
fn state_after(ops: &[(String, Option<String>)], n: usize) -> HashMap<String, String> {
    let mut m = HashMap::new();
    for (k, v) in &ops[..n] {
        match v {
            Some(v) => {
                m.insert(k.clone(), v.clone());
            }
            None => {
                m.remove(k);
            }
        }
    }
    m
}

/// Read the full recovered state for the soak's key space.
fn recovered_state(store: &Arc<PosStore>, keys: usize) -> HashMap<String, String> {
    let r = store.register_reader();
    let mut buf = [0u8; 64];
    let mut m = HashMap::new();
    for k in 0..keys {
        let key = format!("key{k}");
        if let Some(n) = store.get(&r, key.as_bytes(), &mut buf).unwrap() {
            m.insert(key, String::from_utf8(buf[..n].to_vec()).unwrap());
        }
    }
    m
}

#[test]
fn probabilistic_fault_soak_recovers_a_write_prefix() {
    const KEYS: usize = 8;
    const OPS: usize = 160;
    for seed in 0..4u64 {
        let dir = test_dir(&format!("soak{seed}"));
        let mut cfg = WalConfig::in_dir(&dir, "soak");
        cfg.compact_bytes = 1024; // force compactions into the schedule
        let plan = FaultPlan::new();
        for site in [
            WAL_CREATE,
            WAL_APPEND,
            WAL_SYNC,
            PERSIST_WRITE,
            PERSIST_SYNC,
            PERSIST_RENAME,
        ] {
            plan.fail_with_probability(site, 0.02, seed);
        }

        let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
        let r = store.register_reader();
        let mut ops: Vec<(String, Option<String>)> = Vec::new();
        let mut durable_n = 0usize; // ops proven durable by a clean sync
        for i in 0..OPS {
            let key = format!("key{}", (i * 7 + seed as usize) % KEYS);
            if i % 11 == 10 {
                store.delete(&r, key.as_bytes()).unwrap();
                ops.push((key, None));
            } else {
                let value = format!("s{seed}v{i}");
                store.set(&r, key.as_bytes(), value.as_bytes()).unwrap();
                ops.push((key, Some(value)));
            }
            store.clean();
            if i % 3 == 2 {
                let issued = ops.len();
                if store.wal_sync(&plan).is_ok() {
                    durable_n = issued;
                }
            }
        }
        drop(r);
        drop(store); // crash: whatever the plan left on disk is the truth

        let store = PosStore::open_wal(cfg, geometry(), 1 << 24)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        let got = recovered_state(&store, KEYS);
        let matched = (durable_n..=ops.len())
            .find(|&n| state_after(&ops, n) == got)
            .unwrap_or_else(|| {
                panic!(
                    "seed {seed}: recovered state matches no write prefix \
                     >= {durable_n}: {got:?}"
                )
            });
        assert!(matched >= durable_n, "durable writes lost");
    }
}

/// Helper shared with the compaction-crash cases: the image+log pair in
/// `dir` must reopen to exactly the full write history.
fn assert_full_state(cfg: &WalConfig, writes: &[(String, String)]) {
    let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    let mut buf = [0u8; 64];
    let mut latest: HashMap<&str, &str> = HashMap::new();
    for (k, v) in writes {
        latest.insert(k, v);
    }
    for (k, v) in latest {
        let n = store
            .get(&r, k.as_bytes(), &mut buf)
            .unwrap()
            .unwrap_or_else(|| panic!("{k} lost"));
        assert_eq!(&buf[..n], v.as_bytes(), "{k} holds a stale or mixed value");
    }
}

#[test]
fn crash_between_compaction_image_and_log_truncate_is_idempotent() {
    let dir = test_dir("compact-crash");
    let mut cfg = WalConfig::in_dir(&dir, "cc");
    cfg.compact_bytes = 256;
    let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    let plan = FaultPlan::new();
    plan.fail_nth(pos::failpoints::WAL_TRUNCATE, 1);

    let mut writes = Vec::new();
    let mut tripped = false;
    for i in 0..64u32 {
        let (k, v) = (format!("key{}", i % 4), format!("v{i}"));
        store.set(&r, k.as_bytes(), v.as_bytes()).unwrap();
        writes.push((k, v));
        store.clean();
        match store.wal_sync(&plan) {
            Ok(_) => {}
            Err(e) => {
                // The injected crash: image renamed, log NOT truncated.
                assert!(matches!(e, PosError::Io(_)), "{e}");
                tripped = true;
                break;
            }
        }
    }
    assert!(tripped, "compaction threshold must trip the failpoint");
    assert!(cfg.image_path.exists(), "image landed before the crash");
    let log_len = std::fs::metadata(&cfg.log_path).unwrap().len();
    assert!(log_len > 13, "log kept its records past the crash");
    drop(r);
    drop(store);

    // New image + full log: replay is idempotent, state is exactly the
    // post-compaction state — never an error, never a mix.
    assert_full_state(&cfg, &writes);
}

#[test]
fn crash_during_compaction_image_rename_keeps_old_image_plus_log() {
    let dir = test_dir("rename-crash");
    let mut cfg = WalConfig::in_dir(&dir, "rn");
    cfg.compact_bytes = 256;
    let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    let plan = FaultPlan::new();
    plan.fail_nth(PERSIST_RENAME, 1);

    let mut writes = Vec::new();
    let mut tripped = false;
    for i in 0..64u32 {
        let (k, v) = (format!("key{}", i % 4), format!("v{i}"));
        store.set(&r, k.as_bytes(), v.as_bytes()).unwrap();
        writes.push((k, v));
        store.clean();
        if let Err(e) = store.wal_sync(&plan) {
            assert!(matches!(e, PosError::Io(_)), "{e}");
            tripped = true;
            break;
        }
    }
    assert!(tripped, "compaction must hit the rename failpoint");
    drop(r);
    drop(store);
    // Old image (or none) + the full log still reconstructs every write:
    // the records were durable before compaction began.
    assert_full_state(&cfg, &writes);
}

#[test]
fn soak_never_leaves_tmp_debris_that_validates() {
    // Any `.pos.tmp` left by a crashed compaction must never open as a
    // valid image (it may be torn at an arbitrary byte).
    let dir = test_dir("debris");
    let mut cfg = WalConfig::in_dir(&dir, "dbr");
    cfg.compact_bytes = 512;
    let plan = FaultPlan::new();
    plan.fail_with_probability(PERSIST_WRITE, 0.2, 99);
    plan.fail_with_probability(PERSIST_SYNC, 0.2, 7);
    let store = PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    for i in 0..96u32 {
        store.set(&r, b"churn", &i.to_le_bytes()).unwrap();
        store.clean();
        let _ = store.wal_sync(&plan);
    }
    let tmp = PathBuf::from(format!("{}.tmp", cfg.image_path.display()));
    if tmp.exists() {
        let data = std::fs::read(&tmp).unwrap();
        assert!(
            PosStore::from_image(&data, None).is_err(),
            "torn compaction tmp file must never validate"
        );
    }
}

// ---- newest-wins replay is sequential replay ------------------------------

/// Key space of the duplicate-heavy logs.
const DUP_KEYS: usize = 8;

/// xorshift64*: the generator behind the duplicate-heavy histories.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` sets and deletes (one in four) over [`DUP_KEYS`] keys, skewed so a
/// few keys take most of the records.
fn duplicate_heavy_ops(seed: u64, n: usize) -> Vec<(String, Option<String>)> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let pick = rng.next() as usize;
            let key = format!("key{}", (pick % DUP_KEYS) * (pick >> 8 & 1));
            let value = (rng.next() % 4 != 0).then(|| format!("s{seed}v{i}"));
            (key, value)
        })
        .collect()
}

fn dup_geometry(entries: u32, sealed_with: Option<&[u64]>) -> PosConfig {
    PosConfig {
        entries,
        payload: 128,
        stacks: 4,
        encryption: sealed_with.map(encryption),
    }
}

/// Apply `ops` to a live store, one sync per record so every record
/// boundary is a durable point; returns the log's length after each.
fn write_history(store: &Arc<PosStore>, ops: &[(String, Option<String>)]) -> Vec<u64> {
    let r = store.register_reader();
    let faults = FaultPlan::new();
    ops.iter()
        .map(|(k, v)| {
            match v {
                Some(v) => store.set(&r, k.as_bytes(), v.as_bytes()).unwrap(),
                None => store.delete(&r, k.as_bytes()).unwrap(),
            }
            // Room for the next version even in the tightest geometry.
            store.clean_to_quiescence();
            store.wal_sync(&faults).unwrap().log_bytes
        })
        .collect()
}

/// One duplicate-heavy history, cut everywhere. `base` ops are folded
/// into the image first (a compaction), `ops` stay in the log; the log
/// cut at every byte must reopen to exactly the model after `base` plus
/// the records that are whole.
fn every_cut_recovers_the_model_prefix(
    tag: &str,
    entries: u32,
    sealed_with: Option<&[u64]>,
    base: &[(String, Option<String>)],
    ops: &[(String, Option<String>)],
) {
    let dir = test_dir(tag);
    let mut cfg = WalConfig::in_dir(&dir, "dup");
    let open = |cfg: &WalConfig| {
        PosStore::open_wal(cfg.clone(), dup_geometry(entries, sealed_with), 1 << 24)
    };
    if !base.is_empty() {
        cfg.compact_bytes = 1; // the sync after the last base op compacts
        write_history(&open(&cfg).unwrap(), base);
        assert!(cfg.image_path.exists(), "base history must reach the image");
    }
    cfg.compact_bytes = u64::MAX; // `ops` stay in the log
    let header_len = if sealed_with.is_some() { 13 + 8 } else { 13 };
    let mut ends = vec![header_len as u64];
    ends.extend(write_history(&open(&cfg).unwrap(), ops));
    let log = std::fs::read(&cfg.log_path).unwrap();
    assert_eq!(*ends.last().unwrap(), log.len() as u64);

    let mut history = base.to_vec();
    history.extend_from_slice(ops);
    for cut in 0..=log.len() {
        std::fs::write(&cfg.log_path, &log[..cut]).unwrap();
        let store = open(&cfg).unwrap_or_else(|e| panic!("{tag}: cut at {cut}: {e}"));
        let whole = ends.iter().filter(|&&e| e <= cut as u64).count();
        let whole = whole.saturating_sub(1);
        assert_eq!(
            recovered_state(&store, DUP_KEYS),
            state_after(&history, base.len() + whole),
            "{tag}: cut at {cut} ({whole} whole records)"
        );
    }
}

#[test]
fn duplicate_heavy_logs_cut_anywhere_recover_the_model_prefix() {
    let fill: Vec<_> = (0..DUP_KEYS)
        .map(|k| (format!("key{k}"), Some(format!("base{k}"))))
        .collect();
    for (seed, sealed_with) in [(1u64, None), (2, Some(&[5u64, 5][..]))] {
        let kind = if sealed_with.is_some() {
            "enc"
        } else {
            "plain"
        };
        let ops = duplicate_heavy_ops(seed, 24);
        // Roomy, log only: the newest record of each key is all that is
        // applied.
        every_cut_recovers_the_model_prefix(&format!("dup-log-{kind}"), 64, sealed_with, &[], &ops);
        // Roomy, over an image that holds every key: image values are
        // shadowed by newest sets and newest deletes alike.
        every_cut_recovers_the_model_prefix(
            &format!("dup-img-{kind}"),
            64,
            sealed_with,
            &fill,
            &ops,
        );
        // Ten entries under eight live keys: record-by-record replay runs
        // out of entries and has to clean its way through.
        every_cut_recovers_the_model_prefix(
            &format!("dup-tight-{kind}"),
            10,
            sealed_with,
            &fill,
            &ops,
        );
    }
}

#[test]
fn a_newest_delete_hides_the_value_the_image_holds() {
    let dir = test_dir("newest-delete");
    let mut cfg = WalConfig::in_dir(&dir, "nd");
    cfg.compact_bytes = 1;
    let base = [
        ("gone".to_owned(), Some("in-image".to_owned())),
        ("back".to_owned(), Some("in-image".to_owned())),
    ];
    write_history(
        &PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap(),
        &base,
    );
    cfg.compact_bytes = u64::MAX;
    let ops = [
        ("gone".to_owned(), Some("rewritten".to_owned())),
        ("back".to_owned(), None),
        ("gone".to_owned(), None),
        ("back".to_owned(), Some("again".to_owned())),
        ("never".to_owned(), None),
    ];
    write_history(
        &PosStore::open_wal(cfg.clone(), geometry(), 1 << 24).unwrap(),
        &ops,
    );

    let image = PosStore::from_image(&std::fs::read(&cfg.image_path).unwrap(), None).unwrap();
    let r = image.register_reader();
    let mut buf = [0u8; 32];
    assert_eq!(image.get(&r, b"gone", &mut buf).unwrap(), Some(8));

    let store = PosStore::open_wal(cfg, geometry(), 1 << 24).unwrap();
    let r = store.register_reader();
    assert_eq!(store.get(&r, b"gone", &mut buf).unwrap(), None);
    assert_eq!(store.get(&r, b"never", &mut buf).unwrap(), None);
    assert_eq!(store.get(&r, b"back", &mut buf).unwrap(), Some(5));
    assert_eq!(&buf[..5], b"again");
}

#[test]
fn a_tampered_superseded_record_still_fails_the_open() {
    let dir = test_dir("shadowed");
    let cfg = WalConfig::in_dir(&dir, "sh");
    let sealed_with = [3u64, 1, 4];
    let open = || PosStore::open_wal(cfg.clone(), dup_geometry(64, Some(&sealed_with)), 1 << 24);
    let ops = [
        ("k".to_owned(), Some("first".to_owned())),
        ("k".to_owned(), Some("second".to_owned())),
        ("k".to_owned(), Some("third".to_owned())),
    ];
    let ends = write_history(&open().unwrap(), &ops);
    let log = std::fs::read(&cfg.log_path).unwrap();

    // Break the seal of the first and of the second record — both are
    // shadowed by the third — and refresh the frame CRC so only the
    // authentication can notice.
    let header_len = 13 + 8;
    for frame_at in [header_len, ends[0] as usize] {
        let body_at = frame_at + 12;
        let body_len = u32::from_le_bytes(log[frame_at..frame_at + 4].try_into().unwrap()) as usize;
        let mut forged = log.clone();
        forged[body_at + body_len / 2] ^= 0x01;
        let crc = crc64(&forged[body_at..body_at + body_len]);
        forged[frame_at + 4..body_at].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&cfg.log_path, &forged).unwrap();
        let err = open().unwrap_err();
        assert!(
            matches!(err, PosError::Corrupt("log record authentication failed")),
            "a shadowed record is still checked, got {err:?}"
        );
    }
    // Untouched, the same log opens to the newest value.
    std::fs::write(&cfg.log_path, &log).unwrap();
    let store = open().unwrap();
    let r = store.register_reader();
    let mut buf = [0u8; 32];
    assert_eq!(store.get(&r, b"k", &mut buf).unwrap(), Some(5));
    assert_eq!(&buf[..5], b"third");
}
