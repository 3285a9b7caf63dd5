//! The untrusted networking system actors (paper §4.2, Figure 6).
//!
//! Five actors bridge the gap between enclaved application logic and the
//! kernel's TCP/IP stack: [`Opener`] creates sockets, [`Accepter`] takes
//! new connections from server sockets, [`Reader`] receives on subscribed
//! sockets and forwards incoming bytes into per-user mboxes, [`Writer`]
//! transmits, and [`Closer`] tears sockets down. They always run
//! untrusted (the backend enforces it); application eactors talk to them
//! exclusively through typed [`Port`]s carrying [`NetMsg`], so an
//! enclaved actor gets network I/O without a single execution-mode
//! transition — and without a single heap allocation per message:
//!
//! * the READER receives straight into a node buffer of the reply mbox
//!   (the `Data` header is written first, the kernel fills the rest);
//! * the WRITER hands its ring the request **node** itself, so a partial
//!   transmission parks no copied bytes and back-pressure costs no
//!   allocation either;
//! * every drop (full mbox, exhausted pool) and every undecodable frame
//!   is counted in the ports' [`PortStats`], aggregated by
//!   [`SystemActors::stats`].
//!
//! READER, WRITER and ACCEPTER speak one I/O contract, the backend's
//! [`CompletionRing`]: operations go in with their nodes, completions
//! come out with them. Which mechanism sits beneath the ring — io_uring,
//! epoll edges, plain retries — is the backend's business; nothing here
//! branches on it.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eactors::actor::{Actor, Control, Ctx};
use eactors::arena::{Mbox, Node};
use eactors::obs::Counter;
use eactors::wire::{Port, PortStats, Wire};

use crate::backend::{Completion, CompletionRing, ListenerId, NetBackend, NetError, SocketId};
use crate::dir::{MboxDirectory, MboxRef};
use crate::msg::{tag, NetMsg, DATA_HEADER};

/// Frames parked per socket behind its in-flight send before further
/// writes to it are dropped and counted rather than queued without bound.
const PENDING_CAP: usize = 1024;

/// What a body reports after a pass: [`Control::Idle`] hands the waiting
/// to the worker.
fn busy_if(worked: bool) -> Control {
    if worked {
        Control::Busy
    } else {
        Control::Idle
    }
}

/// How often a ring with nothing pollable beneath it (`SimNet`,
/// `TcpLoopback`) has its operations retried while its worker has
/// nothing else to do.
const RETRY_INTERVAL: Duration = Duration::from_micros(200);

/// Ctor half of owning a ring: bind its counters and tell the worker
/// what wakes this actor besides its request mbox — the ring's
/// descriptor, whose readability then ends the worker's park, or, for a
/// ring that has none, a [`RETRY_INTERVAL`] timer the body arms on every
/// execution ([`pace`]). Returns whether the ring needs that timer. No
/// system actor ever waits in its body.
fn declare_ring(ctx: &mut Ctx, ring: &mut dyn CompletionRing) -> bool {
    ring.bind_obs(ctx.obs_hub().registry());
    match ring.wait_fd() {
        Some(fd) => {
            ctx.watch_fd(fd);
            false
        }
        None => {
            ctx.event_driven();
            true
        }
    }
}

/// Body half: re-arm the retry timer of a ring without a descriptor.
fn pace(ctx: &mut Ctx, retried: bool) {
    if retried {
        ctx.wake_after(RETRY_INTERVAL);
    }
}

/// Flush `ring`'s pending submissions and reap posted completions into
/// `out` without blocking. Returns whether anything completed.
fn reap_now(ring: &mut dyn CompletionRing, out: &mut Vec<Completion>) -> bool {
    matches!(ring.reap(out), Ok(n) if n > 0)
}

/// The typed port all networking traffic flows through: a
/// [`Port`] carrying [`NetMsg`] frames.
pub type NetPort = Port<NetMsg<'static>>;

/// Encode `msg` into a node from the mbox's arena and enqueue it,
/// counting any failure in `stats`.
///
/// Returns `false` — after [`PortStats::note_send_drop`] — when the pool
/// is exhausted, the mbox is full, or the payload does not fit in one
/// node. The system actors resolve reply mboxes dynamically (through the
/// [`MboxDirectory`]) and share one telemetry block across them, which a
/// long-lived [`NetPort`] cannot express.
fn send_msg(mbox: &Arc<Mbox>, msg: &NetMsg<'_>, stats: &PortStats) -> bool {
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
    fn ctor(&mut self, ctx: &mut Ctx) {
        // Requests are the only input; replies that cannot be delivered
        // are dropped and counted, never retried.
        ctx.event_driven();
    }

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
}

/// The ACCEPTER: announces new connections on watched server sockets.
///
/// Each watched listener is armed in the ring and connections arrive
/// pre-accepted as [`Completion::Accepted`], already adopted into the
/// backend's socket table.
pub struct Accepter {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: Vec<AcceptWatch>,
    ring: Box<dyn CompletionRing>,
    /// Set by `ctor` when the ring has no descriptor (see [`declare_ring`]).
    retried: bool,
    completions: Vec<Completion>,
}

impl std::fmt::Debug for Accepter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accepter")
            .field("watches", &self.watches.len())
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
        let ring = net.completion_ring();
        Accepter {
            net,
            requests,
            dir,
            replies,
            watches: Vec::new(),
            ring,
            retried: false,
            completions: Vec::new(),
        }
    }

    /// Reap accepted connections from the ring and forward them; drop
    /// watches whose subscriber vanished.
    fn service_ring(&mut self) -> bool {
        let ring = self.ring.as_mut();
        reap_now(ring, &mut self.completions);
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
        self.retried = declare_ring(ctx, self.ring.as_mut());
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        pace(ctx, self.retried);
        let Accepter {
            requests,
            watches,
            ring,
            ..
        } = self;
        let worked = requests.drain(|msg| {
            if let NetMsg::WatchListener { listener, reply } = msg {
                // A re-watch replaces the subscriber, as for sockets.
                if let Some(w) = watches.iter_mut().find(|w| w.listener == listener) {
                    w.reply = reply;
                    return;
                }
                // A listener that cannot be armed never produces
                // anything; there is nothing to keep a watch for.
                if ring.accept(ListenerId(listener)).is_ok() {
                    watches.push(AcceptWatch { listener, reply });
                }
            }
        }) > 0;
        busy_if(worked | self.service_ring())
    }
}

struct ReadWatch {
    reply: MboxRef,
    /// The socket sits in `arm_queue`: a receive submission is owed.
    queued: bool,
    /// A receive is in flight in the ring.
    inflight: bool,
    /// `Unwatch` arrived while a receive was in flight; the ack is
    /// deferred until that completion lands so the subscriber keeps the
    /// Data-before-Unwatched ordering.
    draining: bool,
}

/// Subscribe `socket` (shared by `WatchSocket` and `WatchBatch`). A new
/// watch starts queued for its first receive submission.
fn add_read_watch(
    watches: &mut HashMap<u64, ReadWatch>,
    arm_queue: &mut VecDeque<u64>,
    socket: u64,
    reply: MboxRef,
) {
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
        arm_queue.push_back(socket);
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
/// # One receive in flight per socket
///
/// For every watched socket the READER keeps one receive submitted in
/// its ring, each holding one node of the subscriber's reply pool; a
/// completion is delivered and the socket re-armed. A pass that found
/// nothing returns [`Control::Idle`] at once; the READER's worker sleeps
/// for it, on the ring's descriptor beside the request mbox (see
/// [`Ctx::watch_fd`]).
///
/// # Backpressure
///
/// A socket whose reply pool has no free node stays in the arm queue
/// and is retried next pass — its bytes wait in the kernel, never read
/// into nowhere. The pool must therefore hold one node per watched
/// socket on top of what the subscriber has checked out. Failed
/// deliveries of already-read frames are counted in `net_dropped_reads`.
pub struct Reader {
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: HashMap<u64, ReadWatch>,
    /// `Unwatched` acks still owed; retried when the reply mbox is
    /// congested so the confirmation can never be lost.
    acks: Vec<(u64, MboxRef)>,
    ring: Box<dyn CompletionRing>,
    /// Set by `ctor` when the ring has no descriptor (see [`declare_ring`]).
    retried: bool,
    completions: Vec<Completion>,
    /// Sockets owing a receive submission (new watches, starved
    /// re-arms, just-delivered completions), serviced round-robin.
    arm_queue: VecDeque<u64>,
    /// Data frames read from a socket but undeliverable to the reply
    /// mbox (mbox full after the node was filled).
    dropped: Arc<Counter>,
}

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("watches", &self.watches.len())
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
        Reader {
            requests,
            dir,
            replies,
            watches: HashMap::new(),
            acks: Vec::new(),
            ring: net.completion_ring(),
            retried: false,
            completions: Vec::new(),
            arm_queue: VecDeque::new(),
            dropped: Arc::new(Counter::default()),
        }
    }

    fn drain_requests(&mut self) -> bool {
        let Reader {
            requests,
            watches,
            acks,
            ring,
            arm_queue,
            ..
        } = self;
        requests.drain(|msg| match msg {
            NetMsg::WatchSocket { socket, reply } => {
                add_read_watch(watches, arm_queue, socket, reply);
            }
            NetMsg::WatchBatch { entries } => {
                // The paper's batch request: one message subscribes a
                // whole private client list.
                for (socket, reply) in entries.iter() {
                    add_read_watch(watches, arm_queue, socket, reply);
                }
            }
            NetMsg::Unwatch { socket } => {
                // Ack the watch actually removed, to the mbox the watch
                // named. An in-flight receive may still surface data:
                // the ack is deferred until it lands, so FIFO on the
                // reply mbox gives the subscriber a hard
                // Data-before-Unwatched ordering.
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

    /// Hand a filled node to the subscriber; a full mbox drops the frame
    /// (the bytes were already read) and counts it.
    fn deliver(&self, mbox: &Mbox, node: Node) {
        if mbox.send(node).is_err() {
            self.replies.note_send_drop();
            self.dropped.inc();
        }
    }

    /// Tell the subscriber the socket is gone, in the node in hand.
    fn deliver_closed(&self, mbox: &Mbox, mut node: Node, socket: u64) {
        let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
        node.set_len(n);
        self.deliver(mbox, node);
    }

    /// Queue `socket` for a receive submission.
    fn requeue(&mut self, socket: u64) {
        if let Some(w) = self.watches.get_mut(&socket) {
            if !w.queued {
                w.queued = true;
                self.arm_queue.push_back(socket);
            }
        }
    }

    /// Submit receives for every socket in the arm queue: new watches,
    /// starved retries, and sockets whose previous completion was just
    /// delivered. Starved sockets stay queued. Reports work whenever it
    /// queued a submission: the pass after a productive one is what
    /// flushes it to the kernel.
    fn service_arm(&mut self) -> bool {
        let mut worked = false;
        let rounds = self.arm_queue.len();
        for _ in 0..rounds {
            let Some(socket) = self.arm_queue.pop_front() else {
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
                ArmOutcome::Starved => self.arm_queue.push_back(socket),
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
        match self.ring.recv_into(SocketId(socket), node, DATA_HEADER) {
            Ok(()) => {
                w.inflight = true;
                ArmOutcome::Armed
            }
            // A receive is somehow already in flight; treat as armed.
            Err((NetError::WouldBlock, _node)) => ArmOutcome::Armed,
            Err((_, node)) => {
                // Unknown or dead socket: report closure with the node
                // already in hand.
                self.deliver_closed(&mbox, node, socket);
                self.watches.remove(&socket);
                ArmOutcome::Removed
            }
        }
    }

    /// Deliver reaped receive completions: data frames forwarded in place,
    /// EOF/errors become `SocketClosed`, drained unwatches get their
    /// deferred ack.
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
                            self.deliver(&mbox, node);
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
                Err(NetError::Canceled) if !draining => self.requeue(socket),
                Ok(_) | Err(_) => {
                    // EOF or socket error.
                    self.watches.remove(&socket);
                    if draining {
                        self.acks.push((socket, reply));
                    } else if let Some(mbox) = self.dir.get(reply) {
                        self.deliver_closed(&mbox, node, socket);
                    }
                }
            }
        }
        self.completions = comps; // keep the allocation
        worked
    }
}

/// Outcome of one [`Reader::try_arm`].
enum ArmOutcome {
    /// A receive is (now) in flight.
    Armed,
    /// No free node; stay queued and retry next pass.
    Starved,
    /// The watch was dropped (subscriber gone, socket dead).
    Removed,
}

impl Actor for Reader {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // The registry returns one shared counter per name, so every
        // reader in the deployment increments the same atomic.
        self.dropped = ctx.obs_hub().registry().counter("net_dropped_reads");
        self.retried = declare_ring(ctx, self.ring.as_mut());
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        pace(ctx, self.retried);
        let mut worked = self.drain_requests();
        worked |= self.flush_acks();
        worked |= self.service_arm();
        worked |= reap_now(self.ring.as_mut(), &mut self.completions);
        worked |= self.service_completions();
        worked |= self.service_arm();
        // Sockets still queued are starved of reply nodes: back-pressure
        // resolves by nodes recycling, which no wait can observe, so
        // they keep the actor hot.
        busy_if(worked || !self.arm_queue.is_empty())
    }
}

/// The WRITER: transmits `Write` payloads, preserving per-socket order
/// under partial writes.
///
/// The request **node** itself goes into the ring — nothing is copied
/// into side buffers — and the ring resumes a partial transmission where
/// it stopped, surfacing one completion per frame. Per-socket order
/// therefore needs only one in-flight send and a FIFO of parked nodes
/// behind it; a parked node keeps back-pressure honest by staying checked
/// out of its pool. Like the [`Reader`], an idle WRITER returns
/// [`Control::Idle`] and leaves the waiting to its worker.
///
/// Backpressure never blocks the worker: a socket whose parked queue
/// exceeds [`PENDING_CAP`] nodes has further writes dropped and counted
/// (`net_dropped_writes`), as are writes to sockets that died mid-queue.
pub struct Writer {
    requests: NetPort,
    /// Sockets with a send inside the ring, each with the frames parked
    /// behind it, oldest first; the next one is submitted when the
    /// completion lands.
    pending: HashMap<u64, VecDeque<Node>>,
    batch: Vec<Node>,
    ring: Box<dyn CompletionRing>,
    /// Set by `ctor` when the ring has no descriptor (see [`declare_ring`]).
    retried: bool,
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
            .finish_non_exhaustive()
    }
}

impl Writer {
    /// A WRITER draining `Write` messages from `requests`.
    pub fn new(net: Arc<dyn NetBackend>, requests: NetPort) -> Self {
        Writer {
            requests,
            pending: HashMap::new(),
            batch: Vec::new(),
            ring: net.completion_ring(),
            retried: false,
            completions: Vec::new(),
            dropped: Arc::new(Counter::default()),
        }
    }

    /// Hand `node` to the ring as a send on `socket`.
    fn submit_send(&mut self, socket: u64, node: Node) {
        match self.ring.send_node(SocketId(socket), node, DATA_HEADER) {
            Ok(()) => {
                self.pending.entry(socket).or_default();
            }
            // Defensive: a send is somehow already in flight; keep order
            // by parking the frame at the head of the queue.
            Err((NetError::WouldBlock, node)) => {
                self.pending.entry(socket).or_default().push_front(node);
            }
            Err((_, _node)) => {
                // Socket gone; the frame and everything parked behind it
                // are lost.
                self.dropped.inc();
                if let Some(queue) = self.pending.remove(&socket) {
                    self.dropped.add(queue.len() as u64);
                }
            }
        }
    }

    /// Decode `Write` frames and submit each node to the ring, or park it
    /// behind the socket's in-flight send. `Write` payloads sit at a fixed
    /// offset in the frame, so the node itself is the transmit buffer.
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
                match self.pending.get_mut(&socket) {
                    // Order must be preserved behind earlier bytes.
                    Some(queue) if queue.len() >= PENDING_CAP => {
                        self.dropped.inc(); // bounded memory wins
                    }
                    Some(queue) => queue.push_back(node),
                    None => self.submit_send(socket, node),
                }
            }
        }
        self.batch = drained;
        worked
    }

    /// Deliver reaped send completions: a finished send releases its
    /// socket's next parked frame into the ring; a failed one retires the
    /// socket and counts its parked frames.
    fn service_send_completions(&mut self) -> bool {
        let mut worked = false;
        let mut comps = std::mem::take(&mut self.completions);
        for c in comps.drain(..) {
            let Completion::Sent { socket, result, .. } = c else {
                continue;
            };
            worked = true;
            let Some(queue) = self.pending.get_mut(&socket) else {
                continue;
            };
            match result {
                Ok(()) => match queue.pop_front() {
                    Some(node) => self.submit_send(socket, node),
                    None => {
                        self.pending.remove(&socket);
                    }
                },
                Err(_) => {
                    // The frame and everything parked behind it are lost.
                    self.dropped.add(1 + queue.len() as u64);
                    self.pending.remove(&socket);
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
        self.retried = declare_ring(ctx, self.ring.as_mut());
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        pace(ctx, self.retried);
        // Submissions queued here (a completion releasing the next parked
        // frame, fresh intake) make the pass productive; the pass that
        // follows flushes them in its reap.
        let worked = reap_now(self.ring.as_mut(), &mut self.completions)
            | self.service_send_completions()
            | self.intake_ring();
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
    fn ctor(&mut self, ctx: &mut Ctx) {
        ctx.event_driven();
    }

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
