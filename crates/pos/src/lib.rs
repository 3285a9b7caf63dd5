//! # pos — the EActors Persistent Object Store
//!
//! A lean, concurrently accessible, optionally encrypted key-value store
//! over a fixed preallocated memory region, reproducing §4.1 of the
//! EActors paper (Sartakov et al., Middleware 2018).
//!
//! Design highlights, mirroring the paper:
//!
//! * keys map to a configurable number of **stacks**; `set` pushes a new
//!   version at the top and `get` scans from the top, so writes are O(1),
//!   the newest version always wins, and hot keys are found fastest;
//! * superseded versions *stay linked* until the **Cleaner** reclaims
//!   them after a grace period (every connected reader has moved on),
//!   which makes the store linearisable without any locking;
//! * optional **encryption** stores pairs as combined sealed blobs and
//!   compares keys through a keyed deterministic digest — lookups never
//!   decrypt non-matching entries;
//! * the whole region persists to a file ([`PosStore::persist`] /
//!   [`PosStore::open`]), standing in for the paper's memory-mapped file
//!   plus occasional `sync`; a running deployment keeps a store durable
//!   one way only — [`PosStore::open_wal`] and the [`Syncer`] eactor,
//!   which appends deltas and compacts them into that image.
//!
//! ```
//! use pos::{PosConfig, PosStore};
//!
//! let store = PosStore::new(PosConfig::default());
//! let reader = store.register_reader();
//! store.set(&reader, b"answer", b"42")?;
//! store.set(&reader, b"answer", b"43")?; // new version shadows the old
//! let mut buf = [0u8; 16];
//! assert_eq!(store.get(&reader, b"answer", &mut buf)?, Some(2));
//! assert_eq!(&buf[..2], b"43");
//! store.clean_to_quiescence(); // recycle the shadowed version
//! # Ok::<(), pos::PosError>(())
//! ```

#![warn(missing_docs)]

mod cleaner;
mod epoch;
mod error;
mod persist;
mod shard;
mod store;
mod syncer;
mod wal;

pub use cleaner::Cleaner;
pub use epoch::ReaderHandle;
pub use error::PosError;
pub use persist::{crc64, failpoints, DEFAULT_RESTORE_BUDGET};
pub use shard::{PosShards, ShardsReader};
pub use store::{PosConfig, PosEncryption, PosStore};
pub use syncer::{Syncer, MAX_BACKOFF_PASSES};
pub use wal::{WalConfig, WalSync, DEFAULT_COMPACT_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::crypto::SessionKey;
    use sgx_sim::{CostModel, Platform};

    fn small() -> std::sync::Arc<PosStore> {
        PosStore::new(PosConfig {
            entries: 32,
            payload: 128,
            stacks: 4,
            encryption: None,
        })
    }

    fn encrypted() -> std::sync::Arc<PosStore> {
        let costs = Platform::builder()
            .cost_model(CostModel::zero())
            .build()
            .costs();
        PosStore::new(PosConfig {
            entries: 32,
            payload: 128,
            stacks: 4,
            encryption: Some(PosEncryption {
                key: SessionKey::derive(&[7, 7, 7]),
                costs,
            }),
        })
    }

    #[test]
    fn get_missing_is_none() {
        let s = small();
        let r = s.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(s.get(&r, b"ghost", &mut buf).unwrap(), None);
    }

    #[test]
    fn set_get_update() {
        let s = small();
        let r = s.register_reader();
        s.set(&r, b"k1", b"v1").unwrap();
        s.set(&r, b"k2", b"v2").unwrap();
        s.set(&r, b"k1", b"v1-new").unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(s.get(&r, b"k1", &mut buf).unwrap(), Some(6));
        assert_eq!(&buf[..6], b"v1-new");
        assert_eq!(s.get(&r, b"k2", &mut buf).unwrap(), Some(2));
        assert_eq!(&buf[..2], b"v2");
    }

    #[test]
    fn delete_hides_key() {
        let s = small();
        let r = s.register_reader();
        s.set(&r, b"k", b"v").unwrap();
        s.delete(&r, b"k").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(s.get(&r, b"k", &mut buf).unwrap(), None);
        assert!(!s.contains(&r, b"k").unwrap());
        // Re-setting after delete works.
        s.set(&r, b"k", b"v2").unwrap();
        assert_eq!(s.get(&r, b"k", &mut buf).unwrap(), Some(2));
    }

    #[test]
    fn cleaning_reclaims_superseded_versions() {
        let s = small();
        let r = s.register_reader();
        for i in 0..10u8 {
            s.set(&r, b"hot", &[i]).unwrap();
        }
        assert_eq!(s.free_entries(), 22);
        let freed = s.clean_to_quiescence();
        assert_eq!(freed, 9);
        assert_eq!(s.free_entries(), 31);
        let mut buf = [0u8; 4];
        assert_eq!(s.get(&r, b"hot", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn full_store_reports_full_and_recovers_after_clean() {
        let s = PosStore::new(PosConfig {
            entries: 4,
            payload: 64,
            stacks: 1,
            encryption: None,
        });
        let r = s.register_reader();
        for i in 0..4u8 {
            s.set(&r, b"k", &[i]).unwrap();
        }
        assert!(matches!(s.set(&r, b"k", &[9]), Err(PosError::Full)));
        s.clean_to_quiescence();
        s.set(&r, b"k", &[9]).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.get(&r, b"k", &mut buf).unwrap(), Some(1));
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let s = small();
        let w = s.register_reader();
        s.set(&w, b"k", b"old").unwrap();
        s.set(&w, b"k", b"new").unwrap();

        // A reader parked mid-scan (simulated by an explicit pin).
        let r = s.register_reader();
        let pin = r.pin(&s.epochs);
        let freed = s.clean() + s.clean();
        assert_eq!(freed, 0, "pinned reader must block reuse");
        drop(pin);
        assert!(s.clean_to_quiescence() >= 1);
    }

    #[test]
    fn oversized_pair_rejected() {
        let s = small();
        let r = s.register_reader();
        let big = vec![0u8; 200];
        assert!(matches!(
            s.set(&r, b"k", &big),
            Err(PosError::TooLarge { .. })
        ));
        // Nothing leaked.
        assert_eq!(s.free_entries(), 32);
    }

    #[test]
    fn buffer_too_small_reported() {
        let s = small();
        let r = s.register_reader();
        s.set(&r, b"k", b"four").unwrap();
        let mut tiny = [0u8; 2];
        assert!(matches!(
            s.get(&r, b"k", &mut tiny),
            Err(PosError::BufferTooSmall { needed: 4, got: 2 })
        ));
    }

    #[test]
    fn encrypted_round_trip_and_update() {
        let s = encrypted();
        let r = s.register_reader();
        s.set(&r, b"secret", b"one").unwrap();
        s.set(&r, b"secret", b"two").unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(s.get(&r, b"secret", &mut buf).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"two");
        assert!(s.encrypted());
        // Cleaning works on encrypted stores too.
        assert_eq!(s.clean_to_quiescence(), 1);
    }

    #[test]
    fn encrypted_payload_not_plaintext() {
        let s = encrypted();
        let r = s.register_reader();
        s.set(&r, b"needle-key", b"needle-value").unwrap();
        // Scan raw memory as the OS would.
        let image = s.to_image();
        assert!(!image.windows(10).any(|w| w == b"needle-key"));
        assert!(!image.windows(12).any(|w| w == b"needle-value"));
    }

    #[test]
    fn persist_and_reopen_plaintext() {
        let dir = std::env::temp_dir().join(format!("pos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.pos");
        {
            let s = small();
            let r = s.register_reader();
            s.set(&r, b"a", b"1").unwrap();
            s.set(&r, b"b", b"2").unwrap();
            s.set(&r, b"a", b"1new").unwrap();
            s.delete(&r, b"b").unwrap();
            s.set_sealed_keys(b"sealed-blob");
            s.persist(&path).unwrap();
        }
        let s = PosStore::open(&path, None).unwrap();
        let r = s.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(s.get(&r, b"a", &mut buf).unwrap(), Some(4));
        assert_eq!(&buf[..4], b"1new");
        assert_eq!(s.get(&r, b"b", &mut buf).unwrap(), None);
        assert_eq!(s.sealed_keys(), b"sealed-blob");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_and_reopen_encrypted() {
        let dir = std::env::temp_dir().join(format!("pos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc.pos");
        let costs = Platform::builder()
            .cost_model(CostModel::zero())
            .build()
            .costs();
        let key = SessionKey::derive(&[9, 9]);
        {
            let s = PosStore::new(PosConfig {
                entries: 16,
                payload: 128,
                stacks: 2,
                encryption: Some(PosEncryption {
                    key: key.clone(),
                    costs: costs.clone(),
                }),
            });
            let r = s.register_reader();
            s.set(&r, b"k", b"v").unwrap();
            s.persist(&path).unwrap();
        }
        let s = PosStore::open(&path, Some(PosEncryption { key, costs })).unwrap();
        let r = s.register_reader();
        let mut buf = [0u8; 16];
        assert_eq!(s.get(&r, b"k", &mut buf).unwrap(), Some(1));
        assert_eq!(&buf[..1], b"v");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_with_wrong_key_is_rejected_at_restore() {
        let costs = Platform::builder()
            .cost_model(CostModel::zero())
            .build()
            .costs();
        let s = PosStore::new(PosConfig {
            entries: 16,
            payload: 128,
            stacks: 2,
            encryption: Some(PosEncryption {
                key: SessionKey::derive(&[1]),
                costs: costs.clone(),
            }),
        });
        let r = s.register_reader();
        s.set(&r, b"k", b"v").unwrap();
        let image = s.to_image();
        // Wrong key: the keyed superblock tag cannot be reproduced, so
        // the image is rejected before any field is trusted — the store
        // never opens with data it cannot authenticate.
        assert!(matches!(
            PosStore::from_image(
                &image,
                Some(PosEncryption {
                    key: SessionKey::derive(&[2]),
                    costs,
                }),
            ),
            Err(PosError::Corrupt("superblock authentication failed"))
        ));
    }

    #[test]
    fn corrupt_images_rejected() {
        let s = small();
        let image = s.to_image();
        assert!(matches!(
            PosStore::from_image(&image[..10], None),
            Err(PosError::Corrupt(_))
        ));
        let mut bad_magic = image.clone();
        bad_magic[0] ^= 1;
        assert!(matches!(
            PosStore::from_image(&bad_magic, None),
            Err(PosError::Corrupt(_))
        ));
    }

    #[test]
    fn concurrent_writers_and_readers_see_consistent_values() {
        let s = PosStore::new(PosConfig {
            entries: 4096,
            payload: 64,
            stacks: 8,
            encryption: None,
        });
        let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("key-{i}").into_bytes()).collect();
        std::thread::scope(|scope| {
            // Writers: each key counts up monotonically.
            for key in &keys {
                let s = s.clone();
                scope.spawn(move || {
                    let r = s.register_reader();
                    for v in 0..200u64 {
                        loop {
                            match s.set(&r, key, &v.to_le_bytes()) {
                                Ok(()) => break,
                                Err(PosError::Full) => {
                                    s.clean();
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }
                });
            }
            // Readers: values must never go backwards (linearisability).
            for key in &keys {
                let s = s.clone();
                scope.spawn(move || {
                    let r = s.register_reader();
                    let mut last = 0u64;
                    let mut buf = [0u8; 8];
                    for _ in 0..500 {
                        if let Some(8) = s.get(&r, key, &mut buf).unwrap() {
                            let v = u64::from_le_bytes(buf);
                            assert!(v >= last, "value went backwards: {v} < {last}");
                            last = v;
                        }
                    }
                });
            }
            // A cleaner racing with everyone.
            let s2 = s.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    s2.clean();
                }
            });
        });
        // Final state: every key holds its last value.
        let r = s.register_reader();
        let mut buf = [0u8; 8];
        for key in &keys {
            assert_eq!(s.get(&r, key, &mut buf).unwrap(), Some(8));
            assert_eq!(u64::from_le_bytes(buf), 199);
        }
        // After quiescence only one version per key remains.
        s.clean_to_quiescence();
        assert_eq!(s.free_entries(), 4096 - 8);
    }

    #[test]
    fn hash_collisions_keep_both_keys() {
        // One stack forces every key into the same chain.
        let s = PosStore::new(PosConfig {
            entries: 16,
            payload: 64,
            stacks: 1,
            encryption: None,
        });
        let r = s.register_reader();
        for i in 0..5u8 {
            s.set(&r, format!("key-{i}").as_bytes(), &[i]).unwrap();
        }
        let mut buf = [0u8; 4];
        for i in 0..5u8 {
            assert_eq!(
                s.get(&r, format!("key-{i}").as_bytes(), &mut buf).unwrap(),
                Some(1)
            );
            assert_eq!(buf[0], i);
        }
        // Updating one key must not disturb the others.
        s.set(&r, b"key-2", &[42]).unwrap();
        s.clean_to_quiescence();
        for i in 0..5u8 {
            let expect = if i == 2 { 42 } else { i };
            s.get(&r, format!("key-{i}").as_bytes(), &mut buf).unwrap();
            assert_eq!(buf[0], expect);
        }
    }

    #[test]
    fn debug_impl_nonempty() {
        let s = small();
        assert!(format!("{s:?}").contains("PosStore"));
    }

    #[test]
    fn memory_bytes_nonzero() {
        assert!(small().memory_bytes() > 0);
    }
}
