//! The Persistent Object Store (paper §4.1): encrypted key-value storage
//! shared by enclaved actors, with version cleaning and reboot recovery.
//!
//! ```text
//! cargo run --example keyvalue_store
//! ```

use pos::{Cleaner, PosConfig, PosEncryption, PosStore};
use sgx_sim::crypto::SessionKey;
use sgx_sim::{seal, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::builder().build();
    let enclave = platform.create_enclave("store-owner", 256 * 1024)?;

    // The store key lives inside the enclave; its sealed form survives
    // reboots in the store's superblock.
    let store_key = SessionKey::derive(&[platform.secret(), 0x4B_4559]);
    let store = PosStore::new(PosConfig {
        entries: 256,
        payload: 256,
        stacks: 16,
        encryption: Some(PosEncryption {
            key: store_key.clone(),
            costs: platform.costs(),
        }),
    });

    // Seal the key material into the superblock (simulated 32-byte blob).
    enclave.ecall(|| {
        let secret_blob = b"store-key-material-0123456789ab";
        let mut sealed = vec![0u8; seal::sealed_len(secret_blob.len())];
        seal::seal_data(&enclave, secret_blob, &mut sealed).expect("inside enclave");
        store.set_sealed_keys(&sealed);
    });

    let reader = store.register_reader();
    // Writes are O(1) pushes; updates shadow older versions.
    store.set(&reader, b"user:alice", b"online")?;
    store.set(&reader, b"user:bob", b"online")?;
    store.set(&reader, b"user:alice", b"away")?;
    store.delete(&reader, b"user:bob")?;

    let mut buf = [0u8; 64];
    let n = store
        .get(&reader, b"user:alice", &mut buf)?
        .expect("alice present");
    println!("alice -> {}", String::from_utf8_lossy(&buf[..n]));
    println!("bob   -> {:?}", store.get(&reader, b"user:bob", &mut buf)?);
    println!("free entries before cleaning: {}", store.free_entries());

    // The Cleaner reclaims shadowed versions once readers moved on.
    let cleaner = Cleaner::new(store.clone(), std::time::Duration::from_millis(1));
    let freed = store.clean_to_quiescence();
    println!(
        "cleaner reclaimed {freed} superseded entries (actor freed {} so far)",
        cleaner.freed_total()
    );
    println!("free entries after cleaning : {}", store.free_entries());

    // Persist ("sync" of the memory-mapped file) and reboot.
    let path = std::env::temp_dir().join("eactors-example.pos");
    store.persist(&path)?;
    let reopened = PosStore::open(
        &path,
        Some(PosEncryption {
            key: store_key,
            costs: platform.costs(),
        }),
    )?;
    let reader = reopened.register_reader();
    let n = reopened
        .get(&reader, b"user:alice", &mut buf)?
        .expect("state survived reboot");
    println!(
        "\nafter reboot: alice -> {}",
        String::from_utf8_lossy(&buf[..n])
    );
    // The sealed key blob is still recoverable inside the same enclave
    // identity.
    enclave.ecall(|| {
        let blob = reopened.sealed_keys();
        let mut out = vec![0u8; blob.len()];
        let n = seal::unseal_data(&enclave, &blob, &mut out).expect("same identity");
        println!(
            "unsealed key material: {}",
            String::from_utf8_lossy(&out[..n])
        );
    });
    std::fs::remove_file(&path).ok();
    Ok(())
}
