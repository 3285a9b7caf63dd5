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
use std::time::Duration;

use crate::actor::{Actor, Control, Ctx};

/// How long the trace rings may go undrained while the COLLECTOR's
/// worker has nothing else to do. A ring holds 4 096 events and a worker
/// that is not spinning on empty passes emits a few hundred per
/// millisecond at most, so a millisecond leaves an order of magnitude
/// of headroom (`trace_dropped` counts what a full ring turns away).
const DRAIN_INTERVAL: Duration = Duration::from_millis(1);

/// System actor that periodically drains all registered trace rings.
///
/// Its body is one [`obs::ObsHub::poll`] call and always reports
/// [`Control::Idle`]: the rings are a *polled* input, so the body arms
/// a 1 ms (`DRAIN_INTERVAL`) timer on every execution ([`Ctx::wake_after`]) —
/// the drain runs on every pass while a sibling actor keeps the worker
/// awake and once per interval otherwise. Reporting `Busy` for a
/// non-empty drain would keep the worker awake for good — each of its
/// own passes emits the events the next one finds.
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
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        self.hub.as_ref().expect("ctor ran before body").poll();
        ctx.wake_after(DRAIN_INTERVAL);
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
