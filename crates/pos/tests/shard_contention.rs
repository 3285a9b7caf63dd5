//! Multi-thread contention stress over [`pos::PosShards`].
//!
//! Writers on disjoint key spaces hammer a sharded store while a cleaner
//! thread reclaims superseded versions and (in the WAL variant) a syncer
//! thread drains the delta logs — the full actor-concurrent maintenance
//! picture, compressed into raw threads so the stress is on the store
//! internals, not the scheduler. Debug builds run a scaled-down version;
//! CI runs the release profile for the real iteration counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pos::{PosConfig, PosError, PosShards, PosStore, WalConfig};
use sgx_sim::FaultPlan;

#[cfg(debug_assertions)]
const OPS_PER_THREAD: u32 = 300;
#[cfg(not(debug_assertions))]
const OPS_PER_THREAD: u32 = 5_000;

const THREADS: u32 = 4;
const SHARDS: usize = 4;

fn shard_config() -> PosConfig {
    PosConfig {
        entries: 512,
        payload: 64,
        stacks: 16,
        encryption: None,
    }
}

/// Spawn `THREADS` writers over `shards` (each on its own key space) with
/// a concurrent cleaner; returns when all writers finished and verifies
/// every thread's final values.
fn hammer(shards: Arc<PosShards>, with_deletes: bool) {
    let stop = Arc::new(AtomicBool::new(false));
    let cleaner = {
        let shards = Arc::clone(&shards);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut freed = 0usize;
            while !stop.load(Ordering::Acquire) {
                freed += shards.clean();
                std::thread::yield_now();
            }
            // Drain: unlink + grace + free passes after writers stop.
            for _ in 0..8 {
                freed += shards.clean();
            }
            freed
        })
    };

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let shards = Arc::clone(&shards);
            std::thread::spawn(move || {
                let r = shards.register_reader();
                let mut buf = [0u8; 64];
                for i in 0..OPS_PER_THREAD {
                    let key = format!("t{t}:k{}", i % 13);
                    loop {
                        match shards.set(&r, key.as_bytes(), &i.to_le_bytes()) {
                            Ok(()) => break,
                            // The cleaner lags the writers; give it room.
                            Err(PosError::Full) => std::thread::yield_now(),
                            Err(e) => panic!("writer {t}: {e}"),
                        }
                    }
                    if with_deletes && i % 17 == 16 {
                        // A delete writes a tombstone version, so it can
                        // also run out of entries under pressure.
                        loop {
                            match shards.delete(&r, key.as_bytes()) {
                                Ok(()) => break,
                                Err(PosError::Full) => std::thread::yield_now(),
                                Err(e) => panic!("writer {t}: delete {e}"),
                            }
                        }
                    }
                    // Read-your-writes through the contention.
                    if i % 7 == 0 {
                        let n = shards.get(&r, key.as_bytes(), &mut buf).unwrap();
                        if !(with_deletes && i % 17 == 16) {
                            let n = n.unwrap_or_else(|| panic!("writer {t}: lost {key}"));
                            assert_eq!(
                                u32::from_le_bytes(buf[..n].try_into().unwrap()),
                                i,
                                "writer {t}: stale read of {key}"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let freed = cleaner.join().unwrap();
    assert!(freed > 0, "cleaner must reclaim superseded versions");

    // Every thread's final value per key survived the churn.
    let r = shards.register_reader();
    let mut buf = [0u8; 64];
    for t in 0..THREADS {
        for k in 0..13u32 {
            let key = format!("t{t}:k{k}");
            // The last write of key k by thread t.
            let last = (0..OPS_PER_THREAD).rev().find(|i| i % 13 == k).unwrap();
            let deleted = with_deletes && last % 17 == 16;
            let got = shards.get(&r, key.as_bytes(), &mut buf).unwrap();
            if deleted {
                assert!(got.is_none(), "{key} must stay deleted");
            } else {
                let n = got.unwrap_or_else(|| panic!("{key} lost after the run"));
                assert_eq!(u32::from_le_bytes(buf[..n].try_into().unwrap()), last);
            }
        }
    }
}

#[test]
fn concurrent_writers_and_cleaner_never_corrupt_shards() {
    let shards = Arc::new(PosShards::new(SHARDS, |_| shard_config()));
    hammer(shards, true);
}

/// Whether a plaintext store image describes one instant of the store.
///
/// Taken with reclaim and mutation held off, a snapshot partitions the
/// entries: on the free list (state `FREE`), reachable from a stack
/// (`VALID`, or `OUTDATED` and then on the retired list as still linked),
/// or unlinked and waiting out its grace period (`UNLINKED`, on the
/// retired list as such) — nothing in two places, nothing nowhere. An
/// image read field by field off a store that writers and the Cleaner keep
/// changing breaks this within a few snapshots.
fn assert_consistent_cut(image: &[u8]) {
    const FREE: u8 = 0;
    const VALID: u8 = 1;
    const OUTDATED: u8 = 2;
    const UNLINKED: u8 = 3;
    const NIL: u32 = u32::MAX;
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    // Superblock: magic, version, entries, payload, stacks, flags, epoch,
    // free head, free count, sealed-keys length (none here).
    let entries = u32_at(12) as usize;
    let payload = u64_at(16) as usize;
    let stacks = u32_at(24) as usize;
    assert_eq!(image[28], 0, "the checker reads plaintext images");
    let free_head = u64_at(37) as u32;
    let free_count = u64_at(45);
    assert_eq!(u32_at(53), 0, "no sealed keys in this test");
    let heads_at = 57;
    let headers_at = heads_at + 4 * stacks;
    let next = |i: u32| u32_at(headers_at + 21 * i as usize);
    let state = |i: u32| image[headers_at + 21 * i as usize + 4];
    let retired_at = headers_at + entries * (21 + payload);

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Place {
        Nowhere,
        FreeList,
        Stack,
        Unlinked,
    }
    let mut place = vec![Place::Nowhere; entries];
    fn put(place: &mut [Place], i: u32, to: Place) {
        let was = std::mem::replace(&mut place[i as usize], to);
        assert_eq!(was, Place::Nowhere, "entry {i} is both {was:?} and {to:?}");
    }
    let mut on_free_list = 0;
    let mut i = free_head;
    while i != NIL {
        put(&mut place, i, Place::FreeList);
        assert_eq!(state(i), FREE, "entry {i} on the free list");
        on_free_list += 1;
        i = next(i);
    }
    assert_eq!(free_count, on_free_list, "free count against the free list");
    let mut linked_outdated = 0;
    for s in 0..stacks {
        let mut i = u32_at(heads_at + 4 * s);
        while i != NIL {
            put(&mut place, i, Place::Stack);
            let st = state(i);
            assert!(
                st == VALID || st == OUTDATED,
                "entry {i} linked in state {st}"
            );
            linked_outdated += (st == OUTDATED) as u32;
            i = next(i);
        }
    }
    let retired = u32_at(retired_at);
    for r in 0..retired as usize {
        let at = retired_at + 4 + 13 * r;
        let i = u32_at(at);
        if image[at + 12] != 0 {
            put(&mut place, i, Place::Unlinked);
            assert_eq!(state(i), UNLINKED, "entry {i} retired as unlinked");
        } else {
            assert_eq!(
                place[i as usize],
                Place::Stack,
                "entry {i} retired as linked"
            );
            assert_eq!(state(i), OUTDATED, "entry {i} retired as linked");
            linked_outdated -= 1;
        }
    }
    assert_eq!(
        linked_outdated, 0,
        "superseded entries missing from the retired list"
    );
    let lost = place.iter().filter(|&&p| p == Place::Nowhere).count();
    assert_eq!(lost, 0, "entries neither free, linked nor retired");
}

/// One WAL round: writers, cleaner and a syncer thread (compacting every
/// `compact_bytes`) over `stores` stores of geometry `config` in `dir`,
/// then a final drain, a crash-reopen and a check of every key. The
/// reopen runs under a watchdog: a snapshot whose retired list disagrees
/// with its headers replays into a cyclic chain, and the walk over it
/// must fail the test, not hang it.
fn wal_round(dir: &std::path::Path, stores: usize, config: fn() -> PosConfig, compact_bytes: u64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let dir = dir.to_path_buf();
    let image_dir = dir.clone();
    let open = move || {
        let stores = (0..stores)
            .map(|i| {
                PosStore::open_wal(
                    WalConfig {
                        compact_bytes,
                        ..WalConfig::in_dir(&dir, &format!("s{i}"))
                    },
                    config(),
                    1 << 28,
                )
                .unwrap()
            })
            .collect();
        Arc::new(PosShards::from_stores(stores))
    };
    let shards = open();

    // A syncer thread drains the delta logs concurrently with the
    // writers and the cleaner — the same three-way concurrency the
    // Syncer/Cleaner eactors run under one deployment.
    let stop = Arc::new(AtomicBool::new(false));
    let syncer = {
        let shards = Arc::clone(&shards);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let faults = FaultPlan::new();
            while !stop.load(Ordering::Acquire) {
                for (i, s) in shards.stores().iter().enumerate() {
                    if s.wal_needs_sync() && s.wal_sync(&faults).unwrap().compacted_bytes > 0 {
                        // Only this thread writes the image, so the file
                        // is the snapshot that compaction just took.
                        let image = std::fs::read(image_dir.join(format!("s{i}.pos"))).unwrap();
                        assert_consistent_cut(&image);
                    }
                }
                std::thread::yield_now();
            }
        })
    };
    hammer(Arc::clone(&shards), false);
    stop.store(true, Ordering::Release);
    syncer.join().unwrap();

    // Final drain, then crash-reopen: every shard must replay to the
    // exact final state.
    let faults = FaultPlan::new();
    for s in shards.stores() {
        s.wal_sync(&faults).unwrap();
    }
    drop(shards);
    let (done, reopened) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let reopened = open();
        let r = reopened.register_reader();
        let mut buf = [0u8; 64];
        let mut values = Vec::new();
        for t in 0..THREADS {
            for k in 0..13u32 {
                let key = format!("t{t}:k{k}");
                let got = reopened.get(&r, key.as_bytes(), &mut buf).unwrap();
                values.push((
                    key,
                    k,
                    got.map(|n| u32::from_le_bytes(buf[..n].try_into().unwrap())),
                ));
            }
        }
        let _ = done.send(values);
    });
    let values = reopened
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("reopening and reading every key back did not finish in 10 s");
    for (key, k, got) in values {
        let last = (0..OPS_PER_THREAD).rev().find(|i| i % 13 == k).unwrap();
        let got = got.unwrap_or_else(|| panic!("{key} lost across recovery"));
        assert_eq!(got, last, "{key} recovered a stale version");
    }
}

#[test]
fn wal_backed_shards_survive_contention_and_recover() {
    let dir = std::env::temp_dir().join(format!("pos-shardwal-{}", std::process::id()));
    wal_round(&dir, SHARDS, shard_config, 1 << 14);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction beside writers and the Cleaner takes one cut of the store.
/// A small store compacting every few dozen records snapshots hundreds
/// of times a round; read field by field off the moving region, one of
/// those snapshots sooner or later carried a retired list that disagreed
/// with its entry headers, and the reopen freed an entry that was still
/// linked.
#[test]
fn snapshots_taken_beside_writers_and_cleaner_are_consistent_cuts() {
    fn small() -> PosConfig {
        PosConfig {
            entries: 160,
            payload: 64,
            stacks: 4,
            encryption: None,
        }
    }
    let dir = std::env::temp_dir().join(format!("pos-cutwal-{}", std::process::id()));
    for _round in 0..25 {
        wal_round(&dir, 1, small, 1 << 10);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
