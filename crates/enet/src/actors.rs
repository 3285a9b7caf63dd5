//! The untrusted networking system actors (paper §4.2, Figure 6).
//!
//! Five actors bridge the gap between enclaved application logic and the
//! kernel's TCP/IP stack: [`Opener`] creates sockets, [`Accepter`] takes
//! new connections from server sockets, [`Reader`] polls subscribed
//! sockets and forwards incoming bytes into per-user mboxes, [`Writer`]
//! transmits, and [`Closer`] tears sockets down. They always run
//! untrusted (the backend enforces it); application eactors talk to them
//! exclusively through typed [`Port`]s carrying [`NetMsg`], so an
//! enclaved actor gets network I/O without a single execution-mode
//! transition — and without a single heap allocation per message:
//!
//! * the READER receives straight into a node buffer of the reply mbox
//!   (the `Data` header is written first, the kernel fills the rest);
//! * the WRITER parks partially transmitted **nodes**, not copied bytes,
//!   so back-pressure costs no allocation either;
//! * every drop (full mbox, exhausted pool) and every undecodable frame
//!   is counted in the ports' [`PortStats`], aggregated by
//!   [`SystemActors::stats`].

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eactors::actor::{Actor, Control, Ctx};
use eactors::arena::{Mbox, Node};
use eactors::obs::Counter;
use eactors::wire::{Port, PortStats, Wire};

use crate::backend::{
    Completion, CompletionRing, Interest, ListenerId, NetBackend, NetError, ReadyEvent, ReadySet,
    RecvOutcome, SocketId,
};
use crate::dir::{MboxDirectory, MboxRef};
use crate::msg::{tag, NetMsg, DATA_HEADER};

/// Readiness events collected per pass.
const EVENT_BATCH: usize = 64;
/// Nodes received from one ready socket in one pass before it is
/// re-queued behind its peers (firehose fairness).
const READ_BUDGET: usize = 32;
/// Parked (partially written) nodes per socket before further writes to
/// it are dropped and counted rather than queued without bound.
const PENDING_CAP: usize = 1024;

fn event_buf() -> Vec<ReadyEvent> {
    vec![ReadyEvent::default(); EVENT_BATCH]
}

/// What a body reports after a pass: [`Control::Idle`] hands the waiting
/// to the worker.
fn busy_if(worked: bool) -> Control {
    if worked {
        Control::Busy
    } else {
        Control::Idle
    }
}

/// The kernel multiplexer a consumer drives, if the backend has one: a
/// completion ring where offered, else a readiness set, else neither
/// (the consumer polls its sockets).
type Multiplexers = (Option<Box<dyn CompletionRing>>, Option<Box<dyn ReadySet>>);

fn multiplexers(net: &dyn NetBackend) -> Multiplexers {
    match net.completion_ring() {
        Some(ring) => (Some(ring), None),
        None => (None, net.ready_set()),
    }
}

/// Ctor half of [`multiplexers`]: bind the ring's counters and declare
/// the multiplexer's descriptor to the worker, whose park then ends when
/// a socket has news. No system actor ever waits in its body — with a
/// declared descriptor it does not need to, and without one (polling
/// backends) the worker's `park_timeout` paces the polls.
fn declare_multiplexer(
    ctx: &mut Ctx,
    cring: &mut Option<Box<dyn CompletionRing>>,
    ready: &Option<Box<dyn ReadySet>>,
) {
    if let Some(ring) = cring.as_deref_mut() {
        ring.bind_obs(ctx.obs_hub().registry());
        ctx.watch_fd(ring.wait_fd());
    }
    if let Some(set) = ready {
        ctx.watch_fd(set.wait_fd());
    }
}

/// The typed port all networking traffic flows through: a
/// [`Port`] carrying [`NetMsg`] frames.
pub type NetPort = Port<NetMsg<'static>>;

/// Encode `msg` into a node from the mbox's arena and enqueue it,
/// counting any failure in `stats`.
///
/// Returns `false` — after [`PortStats::note_send_drop`] — when the pool
/// is exhausted, the mbox is full, or the payload does not fit in one
/// node; callers retry on their next execution. Prefer a long-lived
/// [`NetPort`] where possible; this helper serves producers that resolve
/// destination mboxes dynamically (e.g. through a [`MboxDirectory`]) and
/// share one telemetry block across them.
pub fn send_msg(mbox: &Arc<Mbox>, msg: &NetMsg<'_>, stats: &PortStats) -> bool {
    let len = msg.encoded_len();
    if len > mbox.arena().payload_size() {
        stats.note_send_drop();
        return false;
    }
    let Some(mut node) = mbox.arena().try_pop() else {
        stats.note_send_drop();
        return false;
    };
    let n = msg.encode_into(node.buffer_mut());
    node.set_len(n);
    if mbox.send(node).is_ok() {
        true
    } else {
        stats.note_send_drop();
        false
    }
}

/// Enqueue a [`NetMsg::Write`] whose `len`-byte payload is produced by
/// `fill` directly inside the node buffer — the zero-copy path for
/// services that frame or seal outgoing bytes (e.g. XMPP stanzas).
///
/// The WRITE header is written first, then `fill` runs exactly once over
/// the payload region. Returns `false` — after
/// [`PortStats::note_send_drop`] — when the pool is exhausted, the
/// payload does not fit in one node, or the mbox is full; `fill` is not
/// called in the first two cases.
pub fn send_write_with(
    port: &NetPort,
    socket: u64,
    len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> bool {
    let total = DATA_HEADER + len;
    let mbox = port.mbox();
    if total > mbox.arena().payload_size() {
        port.stats().note_send_drop();
        return false;
    }
    let Some(mut node) = mbox.arena().try_pop() else {
        port.stats().note_send_drop();
        return false;
    };
    let buf = node.buffer_mut();
    buf[0] = tag::WRITE;
    buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
    fill(&mut buf[DATA_HEADER..total]);
    node.set_len(total);
    port.send_node(node).is_ok()
}

/// The OPENER: creates server or client sockets on request.
pub struct Opener {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
}

impl std::fmt::Debug for Opener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Opener").finish_non_exhaustive()
    }
}

impl Opener {
    /// An OPENER serving requests from `requests`, counting undeliverable
    /// replies in `replies`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        Opener {
            net,
            requests,
            dir,
            replies,
        }
    }
}

impl Actor for Opener {
    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Opener {
            net,
            requests,
            dir,
            replies,
        } = self;
        let worked = requests.drain(|msg| {
            let (reply, response) = match msg {
                NetMsg::OpenListen { port, reply } => (
                    reply,
                    match net.listen(port) {
                        Ok(ListenerId(id)) => NetMsg::OpenOk { id, listener: true },
                        Err(_) => NetMsg::OpenFail { port },
                    },
                ),
                NetMsg::OpenConnect { port, reply } => (
                    reply,
                    match net.connect(port) {
                        Ok(SocketId(id)) => NetMsg::OpenOk {
                            id,
                            listener: false,
                        },
                        Err(_) => NetMsg::OpenFail { port },
                    },
                ),
                _ => return, // not ours; drop
            };
            if let Some(mbox) = dir.get(reply) {
                send_msg(&mbox, &response, replies);
            }
        }) > 0;
        busy_if(worked)
    }
}

struct AcceptWatch {
    listener: u64,
    reply: MboxRef,
    /// In readiness mode: an accept-edge fired (or the watch is new) and
    /// the backlog has not been drained since.
    ready: bool,
}

/// The ACCEPTER: polls watched server sockets and announces new
/// connections.
///
/// In completion mode (a backend with [`NetBackend::completion_ring`])
/// each watched listener is armed as a multishot accept in the ring and
/// connections arrive pre-accepted as [`Completion::Accepted`] — zero
/// `accept4` syscalls on this thread. In readiness mode each pass
/// drains only the listeners whose accept-edge fired, looping each
/// backlog until empty; with a polling backend every watched listener
/// is tried every pass.
pub struct Accepter {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: Vec<AcceptWatch>,
    ready: Option<Box<dyn ReadySet>>,
    cring: Option<Box<dyn CompletionRing>>,
    completions: Vec<Completion>,
    events: Vec<ReadyEvent>,
}

impl std::fmt::Debug for Accepter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accepter")
            .field("watches", &self.watches.len())
            .field("readiness", &self.ready.is_some())
            .finish_non_exhaustive()
    }
}

impl Accepter {
    /// An ACCEPTER taking `WatchListener` subscriptions from `requests`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        let (cring, ready) = multiplexers(net.as_ref());
        Accepter {
            net,
            requests,
            dir,
            replies,
            watches: Vec::new(),
            ready,
            cring,
            completions: Vec::new(),
            events: event_buf(),
        }
    }

    /// Completion-mode pass: reap accepted connections from the ring and
    /// forward them; drop watches whose subscriber vanished.
    fn service_ring(&mut self) -> bool {
        let Some(ring) = self.cring.as_deref_mut() else {
            return false;
        };
        let _ = ring.reap(&mut self.completions, Some(Duration::ZERO));
        let mut worked = false;
        for c in self.completions.drain(..) {
            match c {
                Completion::Accepted { listener, socket } => {
                    worked = true;
                    let mbox = self
                        .watches
                        .iter()
                        .find(|w| w.listener == listener)
                        .and_then(|w| self.dir.get(w.reply));
                    let delivered = match mbox {
                        Some(mbox) => {
                            send_msg(&mbox, &NetMsg::Accepted { listener, socket }, &self.replies)
                        }
                        None => false,
                    };
                    if !delivered {
                        // Subscriber gone or congested: the connection is
                        // in our hands; close it rather than leak it.
                        let _ = self.net.close(SocketId(socket));
                    }
                }
                Completion::AcceptFailed { listener } => {
                    worked = true;
                    self.watches.retain(|w| w.listener != listener);
                }
                _ => {}
            }
        }
        // Cancel watches whose reply mbox was dropped. The cancel is a
        // queued submission: report work so another pass flushes it.
        let dir = &self.dir;
        self.watches.retain(|w| {
            if dir.get(w.reply).is_some() {
                true
            } else {
                ring.cancel_accept(ListenerId(w.listener));
                worked = true;
                false
            }
        });
        worked
    }
}

impl Actor for Accepter {
    fn ctor(&mut self, ctx: &mut Ctx) {
        declare_multiplexer(ctx, &mut self.cring, &self.ready);
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Accepter {
            requests,
            watches,
            ready,
            cring,
            events,
            ..
        } = self;
        let mut worked = requests.drain(|msg| {
            if let NetMsg::WatchListener { listener, reply } = msg {
                if let Some(ring) = cring.as_deref_mut() {
                    // Arm the (multishot) accept; failures surface as
                    // AcceptFailed completions.
                    let _ = ring.accept(ListenerId(listener));
                } else if let Some(set) = ready.as_deref_mut() {
                    // Errors surface as accept failures below.
                    let _ = set.watch_listener(ListenerId(listener));
                }
                watches.push(AcceptWatch {
                    listener,
                    reply,
                    ready: true,
                });
            }
        }) > 0;
        if self.cring.is_some() {
            // Completion mode: connections arrive pre-accepted from the
            // ring; the polled accept loop below never runs.
            worked |= self.service_ring();
            return busy_if(worked);
        }
        // Collect accept-edges without blocking.
        if let Some(set) = ready.as_deref_mut() {
            if let Ok(n) = set.wait_ready(events, Some(Duration::ZERO)) {
                for ev in &events[..n] {
                    if ev.listener {
                        for w in watches.iter_mut() {
                            if w.listener == ev.id {
                                w.ready = true;
                            }
                        }
                    }
                }
            }
        }
        let readiness = self.ready.is_some();
        let replies = &self.replies;
        self.watches.retain_mut(|w| {
            let Some(mbox) = self.dir.get(w.reply) else {
                if let Some(set) = self.ready.as_deref_mut() {
                    set.unwatch_listener(ListenerId(w.listener));
                }
                return false;
            };
            if readiness && !w.ready {
                return true;
            }
            loop {
                match self.net.accept(ListenerId(w.listener)) {
                    Ok(Some(SocketId(socket))) => {
                        worked = true;
                        let listener = w.listener;
                        if !send_msg(&mbox, &NetMsg::Accepted { listener, socket }, replies) {
                            // Reply mbox congested: the connection stays in
                            // our hands; close it rather than leak it.
                            let _ = self.net.close(SocketId(socket));
                        }
                    }
                    Ok(None) => {
                        // Backlog drained: the next edge re-arms us.
                        w.ready = false;
                        return true;
                    }
                    Err(_) => {
                        if let Some(set) = self.ready.as_deref_mut() {
                            set.unwatch_listener(ListenerId(w.listener));
                        }
                        return false; // listener closed
                    }
                }
            }
        });
        busy_if(worked)
    }
}

struct ReadWatch {
    reply: MboxRef,
    /// Readiness mode: the socket sits in `ready_queue` (or must be
    /// re-queued); cleared when a drain hits `WouldBlock`. Completion
    /// mode reuses the flag for the arm queue (a submission is owed).
    queued: bool,
    /// Completion mode: a receive is in flight in the ring.
    inflight: bool,
    /// Completion mode: `Unwatch` arrived while a receive was in
    /// flight; the ack is deferred until that completion lands so the
    /// subscriber keeps the Data-before-Unwatched ordering.
    draining: bool,
}

/// Subscribe `socket` (shared by `WatchSocket` and `WatchBatch`).
///
/// A new watch always starts queued-ready: in readiness mode the first
/// pass drains it until `WouldBlock`, which makes any edge that fired
/// before the watch existed harmless.
fn add_read_watch(
    watches: &mut HashMap<u64, ReadWatch>,
    ready: &mut Option<Box<dyn ReadySet>>,
    ready_queue: &mut VecDeque<u64>,
    socket: u64,
    reply: MboxRef,
) {
    if let Some(set) = ready.as_deref_mut() {
        // A failed watch (socket already gone) still gets an entry: the
        // first drain observes the error and reports `SocketClosed`.
        let _ = set.watch(SocketId(socket), Interest::Read);
    }
    let entry = watches.entry(socket).or_insert(ReadWatch {
        reply,
        queued: false,
        inflight: false,
        draining: false,
    });
    entry.reply = reply;
    // A re-watch racing an `Unwatch` revives the subscription; the
    // superseded unwatch is revoked unacknowledged.
    entry.draining = false;
    if !entry.queued {
        entry.queued = true;
        ready_queue.push_back(socket);
    }
}

/// The READER: forwards received bytes from subscribed sockets.
///
/// Supports the paper's batch pattern: an application subscribes all of
/// its clients with one `WatchBatch` (or one `WatchSocket` each).
///
/// Zero-copy receive path: a node is popped from the reply mbox's arena,
/// the `Data` header written into it, and the kernel reads **directly
/// into the node payload** — the application then decodes the payload in
/// place. No intermediate buffer exists anywhere on the path.
///
/// # Polling vs. readiness
///
/// With a polling backend every watched socket takes one `recv` per
/// pass. When the backend provides a [`NetBackend::ready_set`], the
/// READER instead drives edge-triggered readiness events: only sockets
/// whose edge fired are drained (until `WouldBlock`, with a per-pass
/// fairness budget). With a [`NetBackend::completion_ring`] it submits
/// the receives itself and reaps them in batches. Either way a pass
/// that found nothing returns [`Control::Idle`] at once; the READER's
/// worker sleeps for it, on the multiplexer's descriptor beside the
/// request mbox (see [`Ctx::watch_fd`]).
///
/// # Backpressure
///
/// A socket whose reply mbox has no free node (or rejects the send)
/// stays in the ready queue and is retried next pass — TCP bytes are
/// never discarded once read. Failed deliveries of already-read frames
/// are counted in `net_dropped_reads` (see [`Reader::bind_obs`]).
pub struct Reader {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: HashMap<u64, ReadWatch>,
    /// `Unwatched` acks still owed; retried when the reply mbox is
    /// congested so the confirmation can never be lost.
    acks: Vec<(u64, MboxRef)>,
    ready: Option<Box<dyn ReadySet>>,
    cring: Option<Box<dyn CompletionRing>>,
    completions: Vec<Completion>,
    /// Sockets with an un-drained edge, serviced round-robin. In
    /// completion mode: sockets owing a receive submission (new watches,
    /// starved re-arms, just-delivered completions).
    ready_queue: VecDeque<u64>,
    events: Vec<ReadyEvent>,
    /// Data frames read from a socket but undeliverable to the reply
    /// mbox (mbox full after the node was filled).
    dropped: Arc<Counter>,
}

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("watches", &self.watches.len())
            .field("readiness", &self.ready.is_some())
            .finish_non_exhaustive()
    }
}

impl Reader {
    /// A READER taking `WatchSocket`/`WatchBatch`/`Unwatch` requests from
    /// `requests`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        let (cring, ready) = multiplexers(net.as_ref());
        Reader {
            net,
            requests,
            dir,
            replies,
            watches: HashMap::new(),
            acks: Vec::new(),
            ready,
            cring,
            completions: Vec::new(),
            ready_queue: VecDeque::new(),
            events: event_buf(),
            dropped: Arc::new(Counter::default()),
        }
    }

    /// Count undeliverable data frames in `registry` as
    /// `net_dropped_reads` (shared with every other reader that binds).
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.dropped = registry.counter("net_dropped_reads");
    }

    fn drain_requests(&mut self) -> bool {
        let Reader {
            requests,
            watches,
            acks,
            ready,
            cring,
            ready_queue,
            ..
        } = self;
        requests.drain(|msg| match msg {
            NetMsg::WatchSocket { socket, reply } => {
                add_read_watch(watches, ready, ready_queue, socket, reply);
            }
            NetMsg::WatchBatch { entries } => {
                // The paper's batch request: one message subscribes a
                // whole private client list.
                for (socket, reply) in entries.iter() {
                    add_read_watch(watches, ready, ready_queue, socket, reply);
                }
            }
            NetMsg::Unwatch { socket } => {
                // Ack the watch actually removed, to the mbox the watch
                // named. Any bytes the socket produced were delivered in
                // earlier passes, so FIFO on the reply mbox gives the
                // subscriber a hard Data-before-Unwatched ordering.
                if let Some(ring) = cring.as_deref_mut() {
                    // Completion mode: an in-flight receive may still
                    // surface data; defer the ack until it lands.
                    if let Some(w) = watches.get_mut(&socket) {
                        if w.inflight {
                            w.draining = true;
                            ring.cancel_recv(SocketId(socket));
                        } else {
                            let reply = w.reply;
                            watches.remove(&socket);
                            acks.push((socket, reply));
                        }
                    }
                } else if let Some(w) = watches.remove(&socket) {
                    acks.push((socket, w.reply));
                    if let Some(set) = ready.as_deref_mut() {
                        set.unwatch(SocketId(socket));
                    }
                }
            }
            _ => {}
        }) > 0
    }

    fn flush_acks(&mut self) -> bool {
        if self.acks.is_empty() {
            return false;
        }
        let (dir, replies) = (&self.dir, &self.replies);
        self.acks.retain(|&(socket, reply)| match dir.get(reply) {
            Some(mbox) => !send_msg(&mbox, &NetMsg::Unwatched { socket }, replies),
            None => false, // subscriber gone; nobody left to tell
        });
        true
    }

    /// Collect pending readiness events (readiness mode only),
    /// enqueueing each not-yet-queued socket.
    fn collect_events(&mut self) {
        let Some(set) = self.ready.as_deref_mut() else {
            return;
        };
        let Ok(n) = set.wait_ready(&mut self.events, Some(Duration::ZERO)) else {
            return;
        };
        for ev in &self.events[..n] {
            if ev.listener {
                continue;
            }
            if let Some(w) = self.watches.get_mut(&ev.id) {
                if !w.queued {
                    w.queued = true;
                    self.ready_queue.push_back(ev.id);
                }
            }
        }
    }

    /// Drain every currently-queued socket once (readiness mode).
    fn service_ready(&mut self) -> bool {
        let mut worked = false;
        let rounds = self.ready_queue.len();
        for _ in 0..rounds {
            let Some(socket) = self.ready_queue.pop_front() else {
                break;
            };
            let Some(w) = self.watches.get_mut(&socket) else {
                continue; // unwatched while queued
            };
            let Some(mbox) = self.dir.get(w.reply) else {
                self.watches.remove(&socket);
                if let Some(set) = self.ready.as_deref_mut() {
                    set.unwatch(SocketId(socket));
                }
                continue;
            };
            if mbox.arena().payload_size() <= DATA_HEADER {
                self.watches.remove(&socket);
                if let Some(set) = self.ready.as_deref_mut() {
                    set.unwatch(SocketId(socket));
                }
                continue;
            }
            let mut budget = READ_BUDGET;
            let outcome = loop {
                if budget == 0 {
                    break SocketPass::Requeue;
                }
                budget -= 1;
                // Receive directly into a node of the reply mbox: header
                // first, then the kernel fills the rest of the payload.
                let Some(mut node) = mbox.arena().try_pop() else {
                    // Back-pressure: the application owns every node
                    // right now. The socket stays queued — its bytes
                    // are in the kernel, not droppable.
                    break SocketPass::Requeue;
                };
                let buf = node.buffer_mut();
                buf[0] = tag::DATA;
                buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
                match self.net.recv(SocketId(socket), &mut buf[DATA_HEADER..]) {
                    Ok(RecvOutcome::Data(n)) => {
                        worked = true;
                        node.set_len(DATA_HEADER + n);
                        if mbox.send(node).is_err() {
                            self.replies.note_send_drop();
                            self.dropped.inc();
                        }
                    }
                    Ok(RecvOutcome::WouldBlock) => break SocketPass::Drained,
                    Ok(RecvOutcome::Eof) | Err(_) => {
                        worked = true;
                        let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
                        node.set_len(n);
                        if mbox.send(node).is_err() {
                            self.replies.note_send_drop();
                            self.dropped.inc();
                        }
                        break SocketPass::Closed;
                    }
                }
            };
            match outcome {
                SocketPass::Requeue => self.ready_queue.push_back(socket),
                SocketPass::Drained => {
                    if let Some(w) = self.watches.get_mut(&socket) {
                        w.queued = false;
                    }
                }
                SocketPass::Closed => {
                    self.watches.remove(&socket);
                    if let Some(set) = self.ready.as_deref_mut() {
                        set.unwatch(SocketId(socket));
                    }
                }
            }
        }
        worked
    }

    /// One poll-mode pass: one `recv` attempt per watched socket.
    fn service_polling(&mut self) -> bool {
        let mut worked = false;
        let (net, dir, replies, dropped) = (&self.net, &self.dir, &self.replies, &self.dropped);
        self.watches.retain(|&socket, w| {
            let Some(mbox) = dir.get(w.reply) else {
                return false;
            };
            if mbox.arena().payload_size() <= DATA_HEADER {
                return false;
            }
            let Some(mut node) = mbox.arena().try_pop() else {
                // Back-pressure: poll again once the application has
                // recycled some nodes.
                return true;
            };
            let buf = node.buffer_mut();
            buf[0] = tag::DATA;
            buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
            match net.recv(SocketId(socket), &mut buf[DATA_HEADER..]) {
                Ok(RecvOutcome::Data(n)) => {
                    worked = true;
                    node.set_len(DATA_HEADER + n);
                    if mbox.send(node).is_err() {
                        replies.note_send_drop();
                        dropped.inc();
                    }
                    true
                }
                Ok(RecvOutcome::WouldBlock) => true, // node returns to the pool
                Ok(RecvOutcome::Eof) | Err(_) => {
                    worked = true;
                    let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
                    node.set_len(n);
                    if mbox.send(node).is_err() {
                        replies.note_send_drop();
                        dropped.inc();
                    }
                    false
                }
            }
        });
        worked
    }

    /// Flush pending submissions and reap posted completions (completion
    /// mode) without blocking — at most one syscall, none when there is
    /// nothing to submit. Returns whether anything completed.
    fn reap_ring(&mut self) -> bool {
        let Some(ring) = self.cring.as_deref_mut() else {
            return false;
        };
        matches!(ring.reap(&mut self.completions, Some(Duration::ZERO)), Ok(n) if n > 0)
    }

    /// Queue `socket` for a receive submission (completion mode).
    fn requeue(&mut self, socket: u64) {
        if let Some(w) = self.watches.get_mut(&socket) {
            if !w.queued {
                w.queued = true;
                self.ready_queue.push_back(socket);
            }
        }
    }

    /// Submit receives for every socket in the arm queue (completion
    /// mode): new watches, starved retries, and sockets whose previous
    /// completion was just delivered. Starved sockets stay queued.
    /// Reports work whenever it queued a submission: the pass after a
    /// productive one is what flushes it to the kernel.
    fn service_arm(&mut self) -> bool {
        let mut worked = false;
        let rounds = self.ready_queue.len();
        for _ in 0..rounds {
            let Some(socket) = self.ready_queue.pop_front() else {
                break;
            };
            match self.try_arm(socket) {
                ArmOutcome::Armed => {
                    worked = true;
                    if let Some(w) = self.watches.get_mut(&socket) {
                        w.queued = false;
                    }
                }
                // Back-pressure: every node is checked out; retry once
                // the application recycles some.
                ArmOutcome::Starved => self.ready_queue.push_back(socket),
                ArmOutcome::Removed => worked = true,
            }
        }
        worked
    }

    /// One arm attempt: pop a node from the reply pool, write the Data
    /// header, and submit the receive aimed at the payload region.
    fn try_arm(&mut self, socket: u64) -> ArmOutcome {
        let Some(w) = self.watches.get_mut(&socket) else {
            return ArmOutcome::Removed; // unwatched while queued
        };
        if w.inflight || w.draining {
            return ArmOutcome::Armed;
        }
        let Some(mbox) = self.dir.get(w.reply) else {
            self.watches.remove(&socket);
            return ArmOutcome::Removed;
        };
        if mbox.arena().payload_size() <= DATA_HEADER {
            self.watches.remove(&socket);
            return ArmOutcome::Removed;
        }
        let Some(mut node) = mbox.arena().try_pop() else {
            return ArmOutcome::Starved;
        };
        let buf = node.buffer_mut();
        buf[0] = tag::DATA;
        buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
        let Some(ring) = self.cring.as_deref_mut() else {
            return ArmOutcome::Removed;
        };
        match ring.recv_into(SocketId(socket), node, DATA_HEADER) {
            Ok(()) => {
                w.inflight = true;
                ArmOutcome::Armed
            }
            // A receive is somehow already in flight; treat as armed.
            Err((NetError::WouldBlock, _node)) => ArmOutcome::Armed,
            Err((_, mut node)) => {
                // Unknown or dead socket: report closure with the node
                // already in hand.
                let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
                node.set_len(n);
                if mbox.send(node).is_err() {
                    self.replies.note_send_drop();
                    self.dropped.inc();
                }
                self.watches.remove(&socket);
                ArmOutcome::Removed
            }
        }
    }

    /// Deliver reaped receive completions (completion mode): data frames
    /// forwarded in place, EOF/errors become `SocketClosed`, drained
    /// unwatches get their deferred ack.
    fn service_completions(&mut self) -> bool {
        let mut worked = false;
        let mut comps = std::mem::take(&mut self.completions);
        for c in comps.drain(..) {
            let Completion::Recv {
                socket,
                mut node,
                offset,
                result,
            } = c
            else {
                continue;
            };
            worked = true;
            let Some(w) = self.watches.get_mut(&socket) else {
                continue; // watch gone; node recycles to its pool
            };
            w.inflight = false;
            let draining = w.draining;
            let reply = w.reply;
            match result {
                Ok(n) if n > 0 => {
                    node.set_len(offset + n);
                    match self.dir.get(reply) {
                        Some(mbox) => {
                            if mbox.send(node).is_err() {
                                self.replies.note_send_drop();
                                self.dropped.inc();
                            }
                            if draining {
                                self.watches.remove(&socket);
                                self.acks.push((socket, reply));
                            } else {
                                self.requeue(socket);
                            }
                        }
                        None => {
                            self.watches.remove(&socket);
                        }
                    }
                }
                // Our own cancel raced a re-watch: the subscription is
                // live again, just re-arm.
                Err(ref e) if !draining && is_canceled(e) => self.requeue(socket),
                Ok(_) | Err(_) => {
                    // EOF or socket error.
                    self.watches.remove(&socket);
                    if draining {
                        self.acks.push((socket, reply));
                    } else if let Some(mbox) = self.dir.get(reply) {
                        let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
                        node.set_len(n);
                        if mbox.send(node).is_err() {
                            self.replies.note_send_drop();
                            self.dropped.inc();
                        }
                    }
                }
            }
        }
        self.completions = comps; // keep the allocation
        worked
    }
}

/// Completion-mode outcome of one [`Reader::try_arm`].
enum ArmOutcome {
    /// A receive is (now) in flight.
    Armed,
    /// No free node; stay queued and retry next pass.
    Starved,
    /// The watch was dropped (subscriber gone, socket dead).
    Removed,
}

/// Whether `e` is the `-ECANCELED` produced by our own
/// [`CompletionRing::cancel_recv`].
fn is_canceled(e: &NetError) -> bool {
    const ECANCELED: i32 = 125;
    matches!(e, NetError::Io(io) if io.raw_os_error() == Some(ECANCELED))
}

enum SocketPass {
    /// Budget or nodes ran out with bytes likely left; stay queued.
    Requeue,
    /// `WouldBlock`: the edge is consumed, wait for the next one.
    Drained,
    /// EOF or error: watch removed, `SocketClosed` sent.
    Closed,
}

impl Actor for Reader {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // The registry returns one shared counter per name, so every
        // reader in the deployment increments the same atomic.
        self.dropped = ctx.obs_hub().registry().counter("net_dropped_reads");
        declare_multiplexer(ctx, &mut self.cring, &self.ready);
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let mut worked = self.drain_requests();
        worked |= self.flush_acks();
        if self.cring.is_some() {
            worked |= self.service_arm();
            worked |= self.reap_ring();
            worked |= self.service_completions();
            worked |= self.service_arm();
        } else if self.ready.is_some() {
            self.collect_events();
            worked |= self.service_ready();
        } else {
            return busy_if(worked | self.service_polling());
        }
        // Sockets still queued are starved of reply nodes (or out of
        // budget): back-pressure resolves by nodes recycling, which no
        // wait can observe, so they keep the actor hot.
        busy_if(worked || !self.ready_queue.is_empty())
    }
}

/// Per-socket parked output (short-write resume state).
#[derive(Default)]
struct PendingWrites {
    /// Parked nodes with their resume offsets, oldest first.
    queue: VecDeque<(Node, usize)>,
    /// Completion mode: a send for this socket is inside the ring; the
    /// next queued frame is submitted when its completion lands.
    inflight: bool,
    /// Readiness mode: waiting for an `EPOLLOUT` edge; skip the socket
    /// until it fires.
    awaiting_edge: bool,
}

/// The WRITER: transmits `Write` payloads, preserving per-socket order
/// under partial writes.
///
/// A partially transmitted message is parked as its **node** plus a byte
/// offset — nothing is copied into side buffers, and a parked node keeps
/// back-pressure honest by staying checked out of its pool.
///
/// In readiness mode a short write subscribes the socket for
/// `EPOLLOUT` and the retry waits for the edge instead of re-trying the
/// kernel every pass; like the [`Reader`], an idle WRITER returns
/// [`Control::Idle`] and leaves the waiting to its worker.
///
/// Backpressure never blocks the worker: a socket whose parked queue
/// exceeds [`PENDING_CAP`] nodes has further writes dropped and counted
/// (`net_dropped_writes`, see [`Writer::bind_obs`]), as are writes to
/// sockets that died mid-queue.
pub struct Writer {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    pending: HashMap<u64, PendingWrites>,
    batch: Vec<Node>,
    ready: Option<Box<dyn ReadySet>>,
    events: Vec<ReadyEvent>,
    /// Completion mode (preferred over `ready` when the backend offers
    /// it): sends are submitted into the ring, short writes resume
    /// inside it.
    cring: Option<Box<dyn CompletionRing>>,
    /// Scratch buffer for reaped completions.
    completions: Vec<Completion>,
    /// Write frames dropped instead of queued (dead socket, or per-socket
    /// pending cap exceeded).
    dropped: Arc<Counter>,
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer")
            .field("pending_sockets", &self.pending.len())
            .field("readiness", &self.ready.is_some())
            .finish_non_exhaustive()
    }
}

impl Writer {
    /// A WRITER draining `Write` messages from `requests`.
    pub fn new(net: Arc<dyn NetBackend>, requests: NetPort) -> Self {
        let (cring, ready) = multiplexers(net.as_ref());
        Writer {
            net,
            requests,
            pending: HashMap::new(),
            batch: Vec::new(),
            ready,
            events: event_buf(),
            cring,
            completions: Vec::new(),
            dropped: Arc::new(Counter::default()),
        }
    }

    /// Count dropped write frames in `registry` as `net_dropped_writes`
    /// (shared with every other writer that binds).
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.dropped = registry.counter("net_dropped_writes");
    }

    /// Collect pending `EPOLLOUT` edges, clearing `awaiting_edge` on the
    /// sockets that became writable.
    fn collect_events(&mut self) {
        let Some(set) = self.ready.as_deref_mut() else {
            return;
        };
        let Ok(n) = set.wait_ready(&mut self.events, Some(Duration::ZERO)) else {
            return;
        };
        for ev in &self.events[..n] {
            if ev.listener {
                continue;
            }
            if ev.writable || ev.hup {
                if let Some(p) = self.pending.get_mut(&ev.id) {
                    p.awaiting_edge = false;
                }
            }
        }
    }

    fn flush(&mut self) -> bool {
        let mut progressed = false;
        let (net, ready, dropped) = (&self.net, &mut self.ready, &self.dropped);
        self.pending.retain(|&socket, p| {
            if p.awaiting_edge {
                return true; // wait for EPOLLOUT instead of re-trying
            }
            while let Some((node, offset)) = p.queue.front_mut() {
                match net.send(SocketId(socket), &node.bytes()[*offset..]) {
                    Ok(0) => {
                        // Peer buffer still full. With readiness, ask for
                        // the writability edge (registering an already-
                        // writable fd fires immediately, so no lost edge).
                        if let Some(set) = ready.as_deref_mut() {
                            if set.watch(SocketId(socket), Interest::Write).is_ok() {
                                p.awaiting_edge = true;
                            }
                        }
                        return true;
                    }
                    Ok(n) => {
                        progressed = true;
                        *offset += n;
                        if *offset == node.bytes().len() {
                            p.queue.pop_front(); // node recycles to its pool
                        }
                    }
                    Err(_) => {
                        // Socket gone; every parked frame is lost.
                        dropped.add(p.queue.len() as u64);
                        if let Some(set) = ready.as_deref_mut() {
                            set.unwatch(SocketId(socket));
                        }
                        return false;
                    }
                }
            }
            // Fully drained: stop watching for writability.
            if let Some(set) = ready.as_deref_mut() {
                set.unwatch(SocketId(socket));
            }
            false
        });
        progressed
    }

    fn intake(&mut self) -> bool {
        const BATCH: usize = 32;
        let mut worked = false;
        let Writer {
            net,
            requests,
            pending,
            batch,
            ready,
            dropped,
            ..
        } = self;
        while requests.mbox().recv_batch(batch, BATCH) > 0 {
            worked = true;
            for node in batch.drain(..) {
                // `Write` payloads sit at a fixed offset in the frame, so
                // the node itself is the transmit buffer.
                let socket = match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::Write { socket, .. }) => socket,
                    Some(_) => continue, // not ours; drop
                    None => {
                        requests.stats().note_corrupt_frame();
                        continue;
                    }
                };
                if let Some(p) = pending.get_mut(&socket) {
                    // Order must be preserved behind earlier pending bytes.
                    if p.queue.len() >= PENDING_CAP {
                        dropped.inc(); // bounded memory beats a blocked worker
                        continue;
                    }
                    p.queue.push_back((node, DATA_HEADER));
                    continue;
                }
                let mut offset = DATA_HEADER;
                while offset < node.bytes().len() {
                    match net.send(SocketId(socket), &node.bytes()[offset..]) {
                        Ok(0) => {
                            // Peer buffer full: park the node for later.
                            let p = pending.entry(socket).or_default();
                            p.queue.push_back((node, offset));
                            if let Some(set) = ready.as_deref_mut() {
                                if set.watch(SocketId(socket), Interest::Write).is_ok() {
                                    p.awaiting_edge = true;
                                }
                            }
                            break;
                        }
                        Ok(n) => offset += n,
                        Err(_) => {
                            // Socket is gone; drop the frame and count it.
                            dropped.inc();
                            break;
                        }
                    }
                }
            }
        }
        worked
    }

    /// Flush pending submissions and reap posted completions (completion
    /// mode) without blocking — at most one syscall, none when there is
    /// nothing to submit. Returns whether anything completed.
    fn reap_ring(&mut self) -> bool {
        let Some(ring) = self.cring.as_deref_mut() else {
            return false;
        };
        matches!(ring.reap(&mut self.completions, Some(Duration::ZERO)), Ok(n) if n > 0)
    }

    /// Hand `node` to the ring as a send on `socket` (completion mode).
    /// Short writes resume inside the ring, so per-socket order needs no
    /// readiness edge — just one in-flight send and a FIFO behind it.
    fn submit_send(&mut self, socket: u64, node: Node) {
        let Some(ring) = self.cring.as_deref_mut() else {
            return;
        };
        match ring.send_node(SocketId(socket), node, DATA_HEADER) {
            Ok(()) => {
                self.pending.entry(socket).or_default().inflight = true;
            }
            // Defensive: a send is somehow already in flight; keep order
            // by parking the frame at the head of the queue.
            Err((NetError::WouldBlock, node)) => {
                let p = self.pending.entry(socket).or_default();
                p.inflight = true;
                p.queue.push_front((node, DATA_HEADER));
            }
            Err((_, _node)) => {
                // Socket gone; the frame and everything parked behind it
                // are lost.
                self.dropped.inc();
                if let Some(p) = self.pending.remove(&socket) {
                    self.dropped.add(p.queue.len() as u64);
                }
            }
        }
    }

    /// Completion-mode intake: decode `Write` frames and submit each
    /// node to the ring, or park it behind the socket's in-flight send.
    fn intake_ring(&mut self) -> bool {
        const BATCH: usize = 32;
        let mut worked = false;
        let mut drained = std::mem::take(&mut self.batch);
        while self.requests.mbox().recv_batch(&mut drained, BATCH) > 0 {
            worked = true;
            for node in drained.drain(..) {
                let socket = match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::Write { socket, .. }) => socket,
                    Some(_) => continue, // not ours; drop
                    None => {
                        self.requests.stats().note_corrupt_frame();
                        continue;
                    }
                };
                if node.bytes().len() <= DATA_HEADER {
                    continue; // empty payload: nothing to transmit
                }
                if let Some(p) = self.pending.get_mut(&socket) {
                    if p.inflight || !p.queue.is_empty() {
                        // Order must be preserved behind earlier bytes.
                        if p.queue.len() >= PENDING_CAP {
                            self.dropped.inc(); // bounded memory wins
                        } else {
                            p.queue.push_back((node, DATA_HEADER));
                        }
                        continue;
                    }
                }
                self.submit_send(socket, node);
            }
        }
        self.batch = drained;
        worked
    }

    /// Deliver reaped send completions (completion mode): a finished
    /// send releases its socket's next parked frame into the ring; a
    /// failed one retires the socket and counts its parked frames.
    fn service_send_completions(&mut self) -> bool {
        let mut worked = false;
        let mut comps = std::mem::take(&mut self.completions);
        for c in comps.drain(..) {
            let Completion::Sent { socket, result, .. } = c else {
                continue;
            };
            worked = true;
            let Some(p) = self.pending.get_mut(&socket) else {
                continue;
            };
            p.inflight = false;
            match result {
                Ok(()) => {
                    if let Some((node, _)) = p.queue.pop_front() {
                        self.submit_send(socket, node);
                    } else {
                        self.pending.remove(&socket);
                    }
                }
                Err(_) => {
                    self.dropped.inc();
                    if let Some(p) = self.pending.remove(&socket) {
                        self.dropped.add(p.queue.len() as u64);
                    }
                }
            }
        }
        self.completions = comps; // keep the allocation
        worked
    }
}

impl Actor for Writer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.dropped = ctx.obs_hub().registry().counter("net_dropped_writes");
        declare_multiplexer(ctx, &mut self.cring, &self.ready);
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let worked = if self.cring.is_some() {
            // Submissions queued here (a completion releasing the next
            // parked frame, fresh intake) make the pass productive; the
            // pass that follows flushes them in its reap.
            self.reap_ring() | self.service_send_completions() | self.intake_ring()
        } else {
            self.collect_events();
            self.flush() | self.intake()
        };
        busy_if(worked)
    }
}

/// The CLOSER: closes sockets on request.
pub struct Closer {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
}

impl std::fmt::Debug for Closer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Closer").finish_non_exhaustive()
    }
}

impl Closer {
    /// A CLOSER draining `Close` messages from `requests`.
    pub fn new(net: Arc<dyn NetBackend>, requests: NetPort) -> Self {
        Closer { net, requests }
    }
}

impl Actor for Closer {
    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Closer { net, requests } = self;
        let worked = requests.drain(|msg| {
            if let NetMsg::Close { socket } = msg {
                let _ = net.close(SocketId(socket));
            }
        }) > 0;
        busy_if(worked)
    }
}

/// Aggregated telemetry snapshot of the networking layer — see
/// [`SystemActors::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStats {
    /// Application messages dropped on the five request ports
    /// (back-pressure towards the system actors).
    pub request_drops: u64,
    /// Frames that failed to decode as [`NetMsg`] and were discarded
    /// instead of silently swallowed.
    pub corrupt_frames: u64,
    /// Replies and `Data` frames the system actors could not deliver to
    /// application mboxes (congestion on the way back).
    pub reply_drops: u64,
    /// Data frames read from a socket but undeliverable to the reply
    /// mbox (READER backpressure degradation).
    pub dropped_reads: u64,
    /// Write frames discarded instead of queued — dead socket or
    /// per-socket pending cap exceeded (WRITER backpressure degradation).
    pub dropped_writes: u64,
}

/// Convenience bundle wiring all five system actors into a deployment.
///
/// Creates the request ports (backed by a shared untrusted pool), the
/// [`MboxDirectory`], and the actor instances. The caller decides which
/// workers execute them. Each request port's [`PortStats`] is shared with
/// every clone handed to the application, so drop and corruption counts
/// are visible per mbox; [`SystemActors::stats`] aggregates them.
pub struct SystemActors {
    /// The shared mbox directory for reply routing.
    pub dir: Arc<MboxDirectory>,
    /// Request port of the OPENER.
    pub opener_requests: NetPort,
    /// Request port of the ACCEPTER.
    pub accepter_requests: NetPort,
    /// Request port of the READER.
    pub reader_requests: NetPort,
    /// Request port of the WRITER.
    pub writer_requests: NetPort,
    /// Request port of the CLOSER.
    pub closer_requests: NetPort,
    /// Telemetry of the reply direction (system actors → application).
    pub reply_stats: Arc<PortStats>,
    /// The OPENER actor, ready to be added to a deployment.
    pub opener: Opener,
    /// The ACCEPTER actor.
    pub accepter: Accepter,
    /// The READER actor.
    pub reader: Reader,
    /// The WRITER actor.
    pub writer: Writer,
    /// The CLOSER actor.
    pub closer: Closer,
}

impl std::fmt::Debug for SystemActors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemActors").finish_non_exhaustive()
    }
}

impl SystemActors {
    /// Build the standard networking actor set over `net`.
    ///
    /// `pool` provides the nodes for all five request mboxes; size its
    /// payload for the largest `Write` the application sends.
    pub fn new(net: Arc<dyn NetBackend>, pool: Arc<eactors::arena::Arena>) -> Self {
        let dir = Arc::new(MboxDirectory::new());
        let cap = pool.capacity() as usize;
        // Each request mbox is drained by exactly one system actor (and
        // that actor runs on one worker), so the single-consumer cursor
        // protocol applies; producers are open — any actor may request.
        let mpsc = |pool: Arc<eactors::arena::Arena>| {
            Mbox::with_kind(pool, cap, eactors::arena::MboxKind::Mpsc)
        };
        let opener_requests: NetPort = Port::new(mpsc(pool.clone()));
        let accepter_requests: NetPort = Port::new(mpsc(pool.clone()));
        let reader_requests: NetPort = Port::new(mpsc(pool.clone()));
        let writer_requests: NetPort = Port::new(mpsc(pool.clone()));
        let closer_requests: NetPort = Port::new(mpsc(pool));
        let reply_stats = Arc::new(PortStats::default());
        SystemActors {
            opener: Opener::new(
                net.clone(),
                opener_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            accepter: Accepter::new(
                net.clone(),
                accepter_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            reader: Reader::new(
                net.clone(),
                reader_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            writer: Writer::new(net.clone(), writer_requests.clone()),
            closer: Closer::new(net, closer_requests.clone()),
            dir,
            opener_requests,
            accepter_requests,
            reader_requests,
            writer_requests,
            closer_requests,
            reply_stats,
        }
    }

    /// Expose the networking telemetry in `registry`: the five request
    /// ports as `net_<actor>_requests_*`, the reply direction as
    /// `net_replies_*`. The registered counters are the live atomics the
    /// actors increment (shared, not copied), so [`SystemActors::stats`]
    /// and the registry exporters always agree.
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.reader.bind_obs(registry);
        self.writer.bind_obs(registry);
        self.opener_requests
            .stats()
            .register(registry, "net_opener_requests");
        self.accepter_requests
            .stats()
            .register(registry, "net_accepter_requests");
        self.reader_requests
            .stats()
            .register(registry, "net_reader_requests");
        self.writer_requests
            .stats()
            .register(registry, "net_writer_requests");
        self.closer_requests
            .stats()
            .register(registry, "net_closer_requests");
        self.reply_stats.register(registry, "net_replies");
    }

    /// Aggregate the drop and corruption counters of the five request
    /// ports and the reply path into one snapshot.
    pub fn stats(&self) -> NetStats {
        let ports = [
            &self.opener_requests,
            &self.accepter_requests,
            &self.reader_requests,
            &self.writer_requests,
            &self.closer_requests,
        ];
        NetStats {
            request_drops: ports.iter().map(|p| p.stats().send_drops()).sum(),
            corrupt_frames: ports
                .iter()
                .map(|p| p.stats().corrupt_frames())
                .sum::<u64>()
                + self.reply_stats.corrupt_frames(),
            reply_drops: self.reply_stats.send_drops(),
            dropped_reads: self.reader.dropped.get(),
            dropped_writes: self.writer.dropped.get(),
        }
    }
}
