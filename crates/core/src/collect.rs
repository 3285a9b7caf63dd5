//! The COLLECTOR system actor: drains trace rings into the registry.
//!
//! Workers emit compact binary [`obs::Event`]s into per-worker SPSC rings
//! allocated in **untrusted** memory (like mboxes), so trusted producers
//! never leave their enclave to trace. Somebody still has to consume
//! those rings; that is this actor's job. Deployed untrusted (no
//! transition cost to read untrusted rings, and the aggregated metrics
//! are not secret — see the trust model in DESIGN.md), it folds every
//! drained event into the deployment's [`obs::MetricsRegistry`] via
//! [`obs::ObsHub::poll`].
//!
//! Add one with [`crate::config::DeploymentBuilder::collector`]; any
//! worker can host it, though co-locating it with other untrusted system
//! actors (as the XMPP service does) keeps enclave workers undisturbed.

use std::sync::Arc;

use crate::actor::{Actor, Control, Ctx};

/// System actor that periodically drains all registered trace rings.
///
/// Its body is one [`obs::ObsHub::poll`] call and always reports
/// [`Control::Idle`]: the rings are a *polled* input, so the hosting
/// worker's [`crate::config::IdlePolicy::park_timeout`] paces the drain
/// (every pass while a sibling actor is busy, every timeout otherwise).
/// Reporting `Busy` for a non-empty drain would keep the worker awake
/// for good — each of its own passes emits the events the next one
/// finds. Events a full ring turns away are counted as `trace_dropped`.
#[derive(Debug, Default)]
pub struct CollectorActor {
    hub: Option<Arc<obs::ObsHub>>,
}

impl CollectorActor {
    /// A collector; it binds to the deployment's hub in its ctor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Actor for CollectorActor {
    fn ctor(&mut self, ctx: &mut Ctx) {
        debug_assert!(
            !ctx.domain().is_trusted(),
            "the collector reads untrusted rings; deploy it Placement::Untrusted"
        );
        self.hub = Some(Arc::clone(ctx.obs_hub()));
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        self.hub.as_ref().expect("ctor ran before body").poll();
        Control::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeploymentBuilder, Placement};
    use crate::runtime::Runtime;
    use sgx_sim::{CostModel, Platform};

    #[test]
    fn collector_drains_traced_events_into_registry() {
        let p = Platform::builder().cost_model(CostModel::zero()).build();
        let mut b = DeploymentBuilder::new();
        b.pool("pool", Placement::Untrusted, 8, 64);
        b.mbox("inbox", "pool", 8);

        let producer = b.actor(
            "producer",
            Placement::Untrusted,
            crate::actor::from_fn(|ctx| {
                let pool = ctx.arena("pool").unwrap().clone();
                let mbox = ctx.mbox("inbox").unwrap().clone();
                let mut node = pool.try_pop().unwrap();
                node.write(b"traced");
                mbox.send(node).unwrap();
                Control::Park
            }),
        );
        let consumer = b.actor(
            "consumer",
            Placement::Untrusted,
            crate::actor::from_fn(|ctx| {
                let mbox = ctx.mbox("inbox").unwrap().clone();
                match mbox.recv() {
                    Some(node) => {
                        assert_eq!(node.bytes(), b"traced");
                        ctx.shutdown();
                        Control::Park
                    }
                    None => Control::Idle,
                }
            }),
        );
        let collector = b.collector();
        b.worker(&[producer, consumer, collector]);

        let rt = Runtime::start(&p, b.build().unwrap()).unwrap();
        let hub = Arc::clone(rt.obs_hub());
        rt.join();
        // Residual drain in join() guarantees the send/recv pair landed.
        assert!(hub.events_of(obs::EventKind::MboxSend) >= 1);
        assert!(hub.events_of(obs::EventKind::MboxRecv) >= 1);
        let snap = hub.registry().snapshot();
        assert!(snap.counter("events_mbox_send").unwrap_or(0) >= 1);
    }
}
