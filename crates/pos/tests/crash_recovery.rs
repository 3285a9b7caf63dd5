//! Crash-consistency and adversarial-image tests of POS persistence.
//!
//! The store image lives on host-controlled storage (SGX threat model),
//! so these tests prove two properties end to end:
//!
//! 1. **Crash safety** — killing `persist` at every failpoint leaves a
//!    file that `PosStore::open` recovers (the old image or the new one,
//!    never an error, never a torn mix);
//! 2. **Tamper evidence** — bit flips, truncations, trailing bytes,
//!    crafted cycles and inflated geometry are rejected as
//!    `PosError::Corrupt`, without panics or unbounded allocation.

use std::path::PathBuf;
use std::sync::Arc;

use pos::failpoints::{
    PERSIST_CREATE, PERSIST_RENAME, PERSIST_SYNC, PERSIST_WRITE, WAL_APPEND, WAL_CREATE, WAL_SYNC,
    WAL_TRUNCATE,
};
use pos::{crc64, PosConfig, PosError, PosStore, WalConfig};
use sgx_sim::FaultPlan;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pos-crash-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_store_config() -> PosConfig {
    PosConfig {
        entries: 16,
        payload: 64,
        stacks: 2,
        encryption: None,
    }
}

fn small_store() -> Arc<PosStore> {
    PosStore::new(small_store_config())
}

/// Re-seal a tampered V2 image: recompute the trailing CRC64 so only the
/// *semantic* tampering is under test, not the checksum.
fn refresh_crc(image: &mut [u8]) {
    let crc_at = image.len() - 8;
    let crc = crc64(&image[..crc_at]);
    image[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// Forge the pre-checksum V1 form of a V2 image, as whoever holds the
/// file could: version word rewritten, the flags byte (offset 28), the
/// keyed superblock tag of an encrypted store and the CRC trailer dropped.
fn v1_image(v2: &[u8], encrypted: bool) -> Vec<u8> {
    let trailer = if encrypted { 16 } else { 8 };
    let mut out = v2[..v2.len() - trailer].to_vec();
    out[8..12].copy_from_slice(&1u32.to_le_bytes());
    out.remove(28);
    out
}

#[test]
fn crash_at_every_persist_failpoint_recovers_old_or_new() {
    for site in [PERSIST_CREATE, PERSIST_WRITE, PERSIST_SYNC, PERSIST_RENAME] {
        let dir = test_dir("sites");
        let path = dir.join(format!("{}.pos", site.replace('.', "-")));
        std::fs::remove_file(&path).ok();

        let store = small_store();
        let r = store.register_reader();
        store.set(&r, b"k", b"old").unwrap();
        store.persist(&path).unwrap(); // durable baseline
        store.set(&r, b"k", b"new").unwrap();

        let plan = FaultPlan::new();
        plan.fail_nth(site, 1);
        let err = store.persist_with(&path, &plan).unwrap_err();
        assert!(matches!(err, PosError::Io(_)), "{site}: {err}");
        assert_eq!(plan.trips(site), 1, "{site} must have fired");

        // The target must still open and hold one of the two images.
        let reopened = PosStore::open(&path, None).unwrap_or_else(|e| {
            panic!("open after crash at {site} must succeed, got {e}");
        });
        let r2 = reopened.register_reader();
        let mut buf = [0u8; 8];
        let n = reopened.get(&r2, b"k", &mut buf).unwrap().unwrap();
        assert!(
            &buf[..n] == b"old" || &buf[..n] == b"new",
            "{site}: recovered value must be old or new, got {:?}",
            &buf[..n]
        );

        // The fault was one-shot: the retry completes and is durable.
        store.persist_with(&path, &plan).unwrap();
        let reopened = PosStore::open(&path, None).unwrap();
        let r3 = reopened.register_reader();
        let n = reopened.get(&r3, b"k", &mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"new");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn torn_tmp_write_leaves_target_intact() {
    let dir = test_dir("torn");
    let path = dir.join("torn.pos");
    std::fs::remove_file(&path).ok();
    let store = small_store();
    let r = store.register_reader();
    store.set(&r, b"k", b"old").unwrap();
    store.persist(&path).unwrap();
    let full_len = std::fs::metadata(&path).unwrap().len();

    store.set(&r, b"k", b"new").unwrap();
    let plan = FaultPlan::new();
    plan.fail_nth(PERSIST_WRITE, 1);
    store.persist_with(&path, &plan).unwrap_err();

    // Crash debris: a partial tmp file exists, but the target is whole.
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let tmp_len = std::fs::metadata(&tmp).unwrap().len();
    assert!(
        tmp_len < full_len,
        "tmp must be torn: {tmp_len} vs {full_len}"
    );
    assert!(
        PosStore::open(&tmp, None).is_err(),
        "the torn tmp file must never validate"
    );
    let reopened = PosStore::open(&path, None).unwrap();
    let r2 = reopened.register_reader();
    let mut buf = [0u8; 8];
    assert_eq!(reopened.get(&r2, b"k", &mut buf).unwrap(), Some(3));
    assert_eq!(&buf[..3], b"old");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}

#[test]
fn every_sampled_bit_flip_is_rejected() {
    let store = small_store();
    let r = store.register_reader();
    store.set(&r, b"alpha", b"1").unwrap();
    store.set(&r, b"beta", b"2").unwrap();
    store.set_sealed_keys(b"sealed");
    let image = store.to_image();

    for pos in (0..image.len()).step_by(7) {
        let mut bad = image.clone();
        bad[pos] ^= 1 << (pos % 8);
        match PosStore::from_image(&bad, None) {
            Err(PosError::Corrupt(_)) => {}
            other => panic!("bit flip at byte {pos} not rejected: {other:?}"),
        }
    }
}

#[test]
fn truncations_and_trailing_bytes_are_rejected() {
    let store = small_store();
    let image = store.to_image();
    for len in [0, 1, 7, 8, 11, 12, 28, 57, image.len() / 2, image.len() - 1] {
        assert!(
            matches!(
                PosStore::from_image(&image[..len], None),
                Err(PosError::Corrupt(_))
            ),
            "truncation to {len} bytes must be rejected"
        );
    }
    for extra in [1usize, 8, 64] {
        let mut long = image.clone();
        long.resize(image.len() + extra, 0xAB);
        assert!(
            matches!(PosStore::from_image(&long, None), Err(PosError::Corrupt(_))),
            "{extra} trailing bytes must be rejected"
        );
    }
}

#[test]
fn a_version_downgrade_does_not_shed_the_integrity_checks() {
    use sgx_sim::crypto::SessionKey;
    use sgx_sim::{CostModel, Platform};
    let costs = Platform::builder()
        .cost_model(CostModel::zero())
        .build()
        .costs();
    let key = SessionKey::derive(&[5]);
    let enc = || {
        Some(pos::PosEncryption {
            key: key.clone(),
            costs: costs.clone(),
        })
    };
    let store = PosStore::new(PosConfig {
        encryption: enc(),
        ..small_store_config()
    });
    let r = store.register_reader();
    store.set(&r, b"k", b"v").unwrap();
    let image = store.to_image();
    PosStore::from_image(&image, enc()).expect("the V2 image itself loads");

    // The V1 form carries no CRC, no flags and no tag to check: taking it
    // would load an encrypted store, with its key, unauthenticated.
    let forged = v1_image(&image, true);
    for encryption in [enc(), None] {
        assert!(matches!(
            PosStore::from_image(&forged, encryption),
            Err(PosError::Corrupt("unsupported version"))
        ));
    }
    let plain = v1_image(&small_store().to_image(), false);
    assert!(matches!(
        PosStore::from_image(&plain, None),
        Err(PosError::Corrupt("unsupported version"))
    ));
}

#[test]
fn inflated_geometry_is_rejected_without_allocation() {
    // A 100-byte "image" declaring ~200 TiB of payload: must fail fast on
    // the size precheck, never allocate.
    let mut image = Vec::new();
    image.extend_from_slice(&0x4541_504F_5356_3031u64.to_le_bytes());
    image.extend_from_slice(&2u32.to_le_bytes()); // version
    image.extend_from_slice(&(u32::MAX - 1).to_le_bytes()); // entries
    image.extend_from_slice(&(1u64 << 16).to_le_bytes()); // payload
    image.extend_from_slice(&8u32.to_le_bytes()); // stacks
    image.push(0); // flags: plaintext
    image.extend_from_slice(&0u64.to_le_bytes()); // epoch
    image.extend_from_slice(&0u64.to_le_bytes()); // free head
    image.extend_from_slice(&0u64.to_le_bytes()); // free count
    image.extend_from_slice(&0u32.to_le_bytes()); // sealed_len
    image.resize(100, 0);
    refresh_crc(&mut image);
    assert!(matches!(
        PosStore::from_image(&image, None),
        Err(PosError::Corrupt("geometry exceeds image size"))
    ));

    // Overflowing entries × payload must be caught by checked math.
    let mut overflow = image.clone();
    overflow[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // payload
    refresh_crc(&mut overflow);
    assert!(matches!(
        PosStore::from_image(&overflow, None),
        Err(PosError::Corrupt("geometry overflow"))
    ));
}

#[test]
fn restore_budget_is_enforced() {
    let store = small_store();
    let image = store.to_image();
    assert!(PosStore::from_image_with_budget(&image, None, 1 << 20).is_ok());
    assert!(matches!(
        PosStore::from_image_with_budget(&image, None, 256),
        Err(PosError::Corrupt("geometry exceeds restore budget"))
    ));
}

#[test]
fn huge_epoch_restores_in_constant_time() {
    // The epoch is stored directly, not replayed: patch the field
    // (offset 29) and re-seal the CRC.
    let store = small_store();
    let mut image = store.to_image();
    image[29..37].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    refresh_crc(&mut image);
    PosStore::from_image(&image, None).unwrap();
}

#[test]
fn crafted_free_list_cycle_is_rejected() {
    // Empty 4-entry store, 1 stack: free list is 0 → 1 → 2 → 3 → NIL.
    // Headers start at 57 (superblock) + 4 (one stack head); entry 1's
    // `next` field sits 21 bytes in. Point it back at entry 0.
    let store = PosStore::new(PosConfig {
        entries: 4,
        payload: 16,
        stacks: 1,
        encryption: None,
    });
    let mut image = store.to_image();
    let entry1_next = 57 + 4 + 21;
    image[entry1_next..entry1_next + 4].copy_from_slice(&0u32.to_le_bytes());
    refresh_crc(&mut image);
    assert!(matches!(
        PosStore::from_image(&image, None),
        Err(PosError::Corrupt("free list is cyclic"))
    ));
}

#[test]
fn crafted_oversized_entry_length_is_rejected() {
    // Link entry 0 into the stack as VALID with a key length beyond the
    // payload region — a lookup on the restored store would read out of
    // bounds if this were accepted.
    let store = PosStore::new(PosConfig {
        entries: 4,
        payload: 16,
        stacks: 1,
        encryption: None,
    });
    let mut image = store.to_image();
    image[57..61].copy_from_slice(&0u32.to_le_bytes()); // stack head → 0
    let entry0 = 57 + 4;
    image[entry0 + 4] = 1; // state = VALID
    image[entry0 + 13..entry0 + 17].copy_from_slice(&17u32.to_le_bytes()); // klen > payload
    refresh_crc(&mut image);
    assert!(matches!(
        PosStore::from_image(&image, None),
        Err(PosError::Corrupt("entry key length exceeds payload"))
    ));
}

#[test]
fn out_of_range_links_are_rejected() {
    let store = small_store();
    let mut image = store.to_image();
    // First stack head → far beyond the 16 entries.
    image[57..61].copy_from_slice(&999u32.to_le_bytes());
    refresh_crc(&mut image);
    assert!(matches!(
        PosStore::from_image(&image, None),
        Err(PosError::Corrupt("stack head out of range"))
    ));
}

#[test]
fn encrypted_images_authenticate_the_superblock() {
    use sgx_sim::crypto::SessionKey;
    use sgx_sim::{CostModel, Platform};
    let costs = Platform::builder()
        .cost_model(CostModel::zero())
        .build()
        .costs();
    let key = SessionKey::derive(&[11]);
    let store = PosStore::new(PosConfig {
        entries: 8,
        payload: 64,
        stacks: 2,
        encryption: Some(pos::PosEncryption {
            key: key.clone(),
            costs: costs.clone(),
        }),
    });
    let r = store.register_reader();
    store.set(&r, b"k", b"v").unwrap();
    let image = store.to_image();

    // Tamper with the epoch inside the superblock and re-seal the CRC:
    // only the keyed tag can catch this.
    let mut forged = image.clone();
    forged[29..37].copy_from_slice(&7u64.to_le_bytes());
    refresh_crc(&mut forged);
    let enc = || {
        Some(pos::PosEncryption {
            key: key.clone(),
            costs: costs.clone(),
        })
    };
    assert!(matches!(
        PosStore::from_image(&forged, enc()),
        Err(PosError::Corrupt("superblock authentication failed"))
    ));

    // Untampered image round-trips.
    let reopened = PosStore::from_image(&image, enc()).unwrap();
    let r2 = reopened.register_reader();
    let mut buf = [0u8; 8];
    assert_eq!(reopened.get(&r2, b"k", &mut buf).unwrap(), Some(1));
}

#[test]
fn encryption_flag_mismatches_are_rejected() {
    use sgx_sim::crypto::SessionKey;
    use sgx_sim::{CostModel, Platform};
    let costs = Platform::builder()
        .cost_model(CostModel::zero())
        .build()
        .costs();
    let key = SessionKey::derive(&[3]);

    let plain = small_store().to_image();
    assert!(matches!(
        PosStore::from_image(
            &plain,
            Some(pos::PosEncryption {
                key: key.clone(),
                costs: costs.clone()
            })
        ),
        Err(PosError::Corrupt("key supplied for a plaintext image"))
    ));

    let enc_store = PosStore::new(PosConfig {
        entries: 8,
        payload: 64,
        stacks: 2,
        encryption: Some(pos::PosEncryption { key, costs }),
    });
    let sealed = enc_store.to_image();
    assert!(matches!(
        PosStore::from_image(&sealed, None),
        Err(PosError::Corrupt(
            "image is encrypted but no key was supplied"
        ))
    ));
}

#[test]
fn crash_at_every_wal_failpoint_recovers_old_or_new() {
    // The delta-log analogue of the persist-site sweep above: kill the
    // sync at every WAL site (plus the persist sites compaction reuses)
    // and prove reopening always lands on "old" or "new" for the hot
    // key — never an error, never a mix, and a retried sync completes.
    for site in [
        WAL_CREATE,
        WAL_APPEND,
        WAL_SYNC,
        WAL_TRUNCATE,
        PERSIST_CREATE,
        PERSIST_WRITE,
        PERSIST_SYNC,
        PERSIST_RENAME,
    ] {
        let dir = test_dir("wal-sites");
        let tag = site.replace('.', "-");
        let mut cfg = WalConfig {
            image_path: dir.join(format!("{tag}.pos")),
            log_path: dir.join(format!("{tag}.wal")),
            compact_bytes: 192, // small enough that the sweep compacts
        };
        std::fs::remove_file(&cfg.image_path).ok();
        std::fs::remove_file(&cfg.log_path).ok();
        // The persist sites only fire during compaction; leave more room
        // so the first syncs (which must succeed to establish "old")
        // don't compact yet.
        if site.starts_with("pos.persist") || site == WAL_TRUNCATE {
            cfg.compact_bytes = 96;
        }

        let store = PosStore::open_wal(cfg.clone(), small_store_config(), 1 << 24).unwrap();
        let r = store.register_reader();
        store.set(&r, b"k", b"old").unwrap();
        let plan = FaultPlan::new();
        plan.fail_nth(site, 1);
        if site == WAL_CREATE {
            // Creation happens exactly once, on the first sync: the
            // "old" baseline for this site is the empty store.
            assert!(store.wal_sync(&plan).is_err(), "creation must crash");
        } else {
            store.wal_sync(&FaultPlan::new()).unwrap(); // durable baseline
        }

        let mut crashed = site == WAL_CREATE;
        for i in 0..16u32 {
            if crashed {
                break;
            }
            store.set(&r, b"k", b"new").unwrap();
            store.set(&r, b"pad", &[0u8; 24]).unwrap(); // grow toward compaction
            store.clean();
            if store.wal_sync(&plan).is_err() {
                crashed = true;
                break;
            }
            assert!(i < 15, "{site}: sweep must trip the failpoint");
        }
        assert!(crashed, "{site} must have fired");
        assert_eq!(plan.trips(site), 1, "{site} fired once");
        drop(r);
        drop(store);

        // Old-or-new after the crash.
        let reopened = PosStore::open_wal(cfg.clone(), small_store_config(), 1 << 24)
            .unwrap_or_else(|e| panic!("open after crash at {site} must succeed, got {e}"));
        let r2 = reopened.register_reader();
        let mut buf = [0u8; 8];
        match reopened.get(&r2, b"k", &mut buf).unwrap() {
            Some(n) => assert!(
                &buf[..n] == b"old" || &buf[..n] == b"new",
                "{site}: recovered value must be old or new, got {:?}",
                &buf[..n]
            ),
            // Only a crash at creation may lose "old": nothing was ever
            // durable there.
            None => assert_eq!(site, WAL_CREATE, "{site}: durable baseline lost"),
        }

        // The fault was one-shot: writing and syncing again converges on
        // "new" durably.
        reopened.set(&r2, b"k", b"new").unwrap();
        reopened.wal_sync(&plan).unwrap();
        drop(r2);
        drop(reopened);
        let finopen = PosStore::open_wal(cfg, small_store_config(), 1 << 24).unwrap();
        let r3 = finopen.register_reader();
        let n = finopen.get(&r3, b"k", &mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"new", "{site}: retry must be durable");
    }
}

#[test]
fn persist_round_trips_through_atomic_rename() {
    let dir = test_dir("atomic");
    let path = dir.join("atomic.pos");
    std::fs::remove_file(&path).ok();
    let store = small_store();
    let r = store.register_reader();
    for i in 0..5u8 {
        store.set(&r, b"seq", &[i]).unwrap();
        store.persist(&path).unwrap();
        // No tmp debris remains after a successful sync.
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let reopened = PosStore::open(&path, None).unwrap();
        let r2 = reopened.register_reader();
        let mut buf = [0u8; 4];
        assert_eq!(reopened.get(&r2, b"seq", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], i);
    }
    std::fs::remove_file(&path).ok();
}
