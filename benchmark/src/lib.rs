//! The repo's one measuring stick.
//!
//! Six fixed workloads drive the program from outside — through the
//! public functions and public counters of `sgx_sim`, `eactors`,
//! `enet`, `xmpp`, `pos` and `obs` only — and report seven end-to-end
//! metrics per workload, a per-layer probe pass, per-layer counter
//! ratios and a driver-side span trace. See `README.md` for the metric
//! catalogue, the layer → end-to-end prediction table and the pinned
//! API surface.

pub mod alloc;
pub mod catalogue;
pub mod counters;
pub mod gen;
pub mod host;
pub mod pacer;
pub mod probe;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
