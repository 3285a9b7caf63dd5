//! The idle tests of `crates/core` and `crates/xmpp`, run by the root
//! package too so that the tier-1 command (`cargo test -q` at the root)
//! exercises them.

#[path = "../crates/core/tests/idle.rs"]
mod workers;

#[path = "../crates/xmpp/tests/idle_service.rs"]
mod service;
