//! # eactors — an SGX-tailored actor framework
//!
//! A Rust reproduction of **EActors** (Sartakov, Brenner, Ben Mokhtar,
//! Bouchenak, Thomas, Kapitza: *EActors: Fast and flexible trusted
//! computing using SGX*, Middleware 2018), running on the simulated SGX
//! substrate provided by the [`sgx_sim`] crate.
//!
//! EActors makes multi-enclave programming cheap and flexible:
//!
//! * **Actors, not threads.** An *eactor* ([`actor::Actor`]) owns its
//!   state, reacts to messages and never blocks, so no SGX-hostile
//!   synchronisation (mutexes that exit the enclave) is needed.
//! * **Non-blocking messaging.** Preallocated nodes move through
//!   lock-free pools and mboxes ([`arena`]) — message exchange performs
//!   no system call and no execution-mode transition, whether the peers
//!   share an enclave, sit in two enclaves, or straddle the
//!   trusted/untrusted boundary.
//! * **Uniform channels.** A [`channel::ChannelEnd`] transparently
//!   encrypts payloads exactly when its endpoints live in different
//!   enclaves (keys agreed via local attestation), so actor code is
//!   location-independent.
//! * **Deployment as configuration.** A [`config::DeploymentBuilder`]
//!   assigns actors to enclaves, workers and CPUs — it is the one
//!   description of a deployment, and a JSON document
//!   ([`spec::DeploymentSpec`]) is read straight into its calls; moving
//!   an actor in or out of trusted execution changes *one line of
//!   configuration*, not the actor.
//! * **Workers.** Each [`runtime::Runtime`] worker executes its actors
//!   round-robin; a worker whose actors share one enclave never leaves
//!   it, eliminating the 8 000-cycle transition cost that dominates
//!   SGX SDK applications.
//!
//! ## Quick start
//!
//! ```
//! use eactors::prelude::*;
//! use sgx_sim::Platform;
//!
//! // A counter actor: counts to five, then parks and stops the runtime.
//! struct Counter {
//!     n: u32,
//! }
//!
//! impl Actor for Counter {
//!     fn body(&mut self, ctx: &mut Ctx) -> Control {
//!         self.n += 1;
//!         if self.n == 5 {
//!             ctx.shutdown();
//!             return Control::Park;
//!         }
//!         Control::Busy
//!     }
//! }
//!
//! let platform = Platform::builder().build();
//! let mut b = DeploymentBuilder::new();
//! let enclave = b.enclave("counter-enclave");
//! let counter = b.actor("counter", Placement::Enclave(enclave), Counter { n: 0 });
//! b.worker(&[counter]);
//!
//! let runtime = Runtime::start(&platform, b.build()?)?;
//! let report = runtime.join();
//! assert_eq!(report.total_executions(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod actor;
pub mod arena;
pub mod channel;
pub mod collect;
pub mod config;
mod error;
pub mod placement;
pub mod runtime;
pub mod spec;
#[cfg(target_os = "linux")]
mod sys;
pub mod wake;
pub mod wire;

/// The observability subsystem (re-exported from the `eactors-obs`
/// crate): SPSC trace rings, log2 histograms, the metrics registry and
/// JSON/Prometheus exporters. The runtime owns an [`obs::ObsHub`] per
/// deployment; see [`collect::CollectorActor`] for the draining side.
pub use obs;

/// Minimal dependency-free JSON (moved to the `eactors-obs` crate so the
/// metrics exporters can use it; re-exported here unchanged for specs
/// and existing callers).
pub use obs::json;

pub use actor::{from_fn, Actor, ActorId, Control, Ctx, StopToken};
pub use channel::{ChannelEnd, ChannelId};
pub use collect::CollectorActor;
pub use config::{
    ActorSlot, ChannelOptions, Deployment, DeploymentBuilder, EnclaveSlot, EncryptionPolicy,
    IdlePolicy, Placement,
};
pub use error::{ChannelError, ConfigError};
pub use placement::{
    plan_from_input, plan_from_snapshot, CostWeights, PlacementControl, PlacementPlan, PlanError,
    PlanInput, PlanSpec, PlannerActor, PlannerConfig,
};
pub use runtime::{Runtime, RuntimeReport, WorkerReport};
pub use wire::{Port, PortStats, TypedChannelEnd, Wire};

/// The commonly needed imports in one place.
pub mod prelude {
    pub use crate::actor::{from_fn, Actor, Control, Ctx, StopToken};
    pub use crate::channel::ChannelEnd;
    pub use crate::config::{
        ChannelOptions, DeploymentBuilder, EncryptionPolicy, IdlePolicy, Placement,
    };
    pub use crate::error::{ChannelError, ConfigError};
    pub use crate::placement::{
        plan_from_snapshot, PlacementControl, PlacementPlan, PlannerConfig,
    };
    pub use crate::runtime::{Runtime, RuntimeReport};
    pub use crate::wire::{Port, TypedChannelEnd, Wire};
}
