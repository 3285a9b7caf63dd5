//! The EActors XMPP service (paper §5.1, Figure 7).
//!
//! The service is decomposed into an enclaved **CONNECTOR** — which
//! drives the ACCEPTOR, performs the stream handshake and records
//! connections in the shared Online list — and `N` **XMPP instances**,
//! each an (optionally enclaved) eactor with its own untrusted READER and
//! WRITER system actors. Instances fetch their assigned clients, batch
//! their socket subscriptions to the READER, and route messages:
//! one-to-one by directory lookup (possibly across instances), and
//! one-to-many by decrypting once and re-encrypting for every room member
//! — the paper's group-chat confinement.
//!
//! All messaging rides the [`eactors::wire`] layer: network traffic moves
//! through typed [`NetPort`]s, assignments through a [`Port`] carrying
//! the borrowed [`AssignMsg`] codec, and outgoing stanzas are sealed
//! directly into WRITER nodes via [`enet::send_write_with`] — the steady
//! state allocates nothing per message at the framing layer.
//!
//! Deployment knobs reproduce the paper's experiments: instance count
//! (Fig 14), trusted vs untrusted execution (Fig 15/17) and how instances
//! map onto enclaves (Fig 16).

use std::collections::HashMap;
use std::sync::Arc;

use eactors::arena::{Arena, Mbox, Node};
use eactors::obs;
use eactors::prelude::*;
use eactors::wire::{Port, PortStats, Wire};
use enet::{
    send_write_with, BatchEntries, MboxDirectory, MboxRef, NetBackend, NetMsg, NetPort,
    SystemActors,
};
use sgx_sim::crypto::SessionKey;
use sgx_sim::Platform;

use crate::shard::{
    now_ns, shard_reply_name, shard_reply_pool_name, shard_rq_name, shard_rq_pool_name, DirShard,
    OwnedShardMsg, ShardMsg, ShardReply, ShardedDirectory, ShardedReader,
};
use crate::stanza::Stanza;
use crate::wire::{ConnCrypto, Frame, FrameBuf};
use crate::XmppError;

/// How XMPP instances map onto enclaves (Fig 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveLayout {
    /// All instances (and the CONNECTOR) share one enclave; shared state
    /// needs no encryption.
    Single,
    /// One enclave per instance (plus one for the CONNECTOR); shared
    /// state crosses enclave boundaries encrypted.
    PerInstance,
    /// Instances spread over `n` enclaves round-robin.
    Count(usize),
}

/// How the CONNECTOR assigns authenticated clients to instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Spread clients round-robin (the one-to-one experiments).
    RoundRobin,
    /// Confine each group to one instance: user names of the form
    /// `g<k>-...` land on instance `k % instances` (the group-chat
    /// experiments — each room's chat runs in its dedicated eactor and
    /// enclave).
    ByRoomTag,
    /// Place each user on the instance that co-hosts their directory
    /// shard (shard `s` rides the worker of instance `s % instances`),
    /// so the session's own Register/Unregister never cross a worker —
    /// the hash keeps the load spread as evenly as round-robin. Falls
    /// back to round-robin when the shard count does not cover the
    /// instances uniformly (`shards % instances != 0`).
    ShardAffine,
}

/// Deployment configuration of the messaging service.
#[derive(Debug, Clone)]
pub struct XmppConfig {
    /// Number of XMPP instances (each with its own READER and WRITER).
    pub instances: usize,
    /// Run the CONNECTOR and XMPP eactors inside enclaves.
    pub trusted: bool,
    /// Instance → enclave mapping (only meaningful when trusted).
    pub enclave_layout: EnclaveLayout,
    /// Client → instance assignment policy.
    pub assignment: Assignment,
    /// Port the service listens on.
    pub port: u16,
    /// Service-level connection encryption (the paper's design; disable
    /// only for ablations).
    pub wire_crypto: bool,
    /// Expected concurrent clients (sizes pools and the directory).
    pub max_clients: u32,
    /// Number of directory shard actors partitioning the hot state by
    /// user/room hash; `0` picks one shard per instance.
    pub shards: usize,
    /// Execute each instance's READER and WRITER on one shared worker
    /// (the paper's EA/3-style pairing) instead of two.
    pub shared_net_worker: bool,
    /// The server's XMPP domain name.
    pub server_name: String,
}

impl Default for XmppConfig {
    fn default() -> Self {
        XmppConfig {
            instances: 1,
            trusted: true,
            enclave_layout: EnclaveLayout::PerInstance,
            assignment: Assignment::RoundRobin,
            port: 5222,
            wire_crypto: true,
            max_clients: 128,
            shards: 0,
            shared_net_worker: true,
            server_name: "eactors.example".into(),
        }
    }
}

/// Live counters exported by a running service.
///
/// Registered in the deployment's [`obs::MetricsRegistry`] as
/// `xmpp_*` when the CONNECTOR's ctor runs; the registry entries share
/// these atomics, so snapshots and these handles always agree.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Sessions successfully established.
    pub sessions: Arc<obs::Counter>,
    /// One-to-one messages routed.
    pub o2o_routed: Arc<obs::Counter>,
    /// Group messages fanned out (one per delivered copy).
    pub o2m_delivered: Arc<obs::Counter>,
    /// Messages dropped because the recipient was offline.
    pub offline_drops: Arc<obs::Counter>,
    /// Malformed or unauthenticated frames dropped.
    pub bad_frames: Arc<obs::Counter>,
}

impl ServiceStats {
    /// Expose every counter in `registry` under its `xmpp_*` name
    /// (shared, not copied).
    pub fn register(&self, registry: &obs::MetricsRegistry) {
        registry.register_counter("xmpp_sessions", self.sessions.clone());
        registry.register_counter("xmpp_o2o_routed", self.o2o_routed.clone());
        registry.register_counter("xmpp_o2m_delivered", self.o2m_delivered.clone());
        registry.register_counter("xmpp_offline_drops", self.offline_drops.clone());
        registry.register_counter("xmpp_bad_frames", self.bad_frames.clone());
    }
}

/// Nodes claimed per `recv_batch` call when draining assignments.
const ASSIGN_BATCH: usize = 32;

/// Nodes claimed per `recv_batch` call when draining socket data.
const DATA_BATCH: usize = 32;

/// Assignment message: CONNECTOR → instance, a borrowed [`Wire`] view
/// (`socket`, then `u16`-length-prefixed user name and leftover bytes).
struct AssignMsg<'a> {
    socket: u64,
    user: &'a str,
    leftover: &'a [u8],
}

/// The typed port carrying [`AssignMsg`] frames.
type AssignPort = Port<AssignMsg<'static>>;

impl<'m> Wire for AssignMsg<'m> {
    type View<'a> = AssignMsg<'a>;

    fn encoded_len(&self) -> usize {
        12 + self.user.len() + self.leftover.len()
    }

    fn encode_into(&self, out: &mut [u8]) -> usize {
        debug_assert!(self.user.len() <= u16::MAX as usize);
        debug_assert!(self.leftover.len() <= u16::MAX as usize);
        out[..8].copy_from_slice(&self.socket.to_le_bytes());
        out[8..10].copy_from_slice(&(self.user.len() as u16).to_le_bytes());
        let mut pos = 10;
        out[pos..pos + self.user.len()].copy_from_slice(self.user.as_bytes());
        pos += self.user.len();
        out[pos..pos + 2].copy_from_slice(&(self.leftover.len() as u16).to_le_bytes());
        pos += 2;
        out[pos..pos + self.leftover.len()].copy_from_slice(self.leftover);
        pos + self.leftover.len()
    }

    fn decode_from(data: &[u8]) -> Option<AssignMsg<'_>> {
        let socket = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
        let ulen = u16::from_le_bytes([*data.get(8)?, *data.get(9)?]) as usize;
        let user = std::str::from_utf8(data.get(10..10 + ulen)?).ok()?;
        let pos = 10 + ulen;
        let llen = u16::from_le_bytes([*data.get(pos)?, *data.get(pos + 1)?]) as usize;
        if data.len() != pos + 2 + llen {
            return None;
        }
        Some(AssignMsg {
            socket,
            user,
            leftover: &data[pos + 2..],
        })
    }
}

/// Instance choice for an authenticated `user` (free function so the
/// CONNECTOR's drain closure can call it over disjoint field borrows).
fn pick_instance(
    assignment: Assignment,
    rr_next: &mut usize,
    instances: usize,
    shards: usize,
    user: &str,
) -> usize {
    match assignment {
        Assignment::RoundRobin => {
            let i = *rr_next;
            *rr_next = (*rr_next + 1) % instances;
            i
        }
        Assignment::ShardAffine => {
            if shards % instances == 0 {
                crate::shard::shard_of(user, shards) % instances
            } else {
                pick_instance(Assignment::RoundRobin, rr_next, instances, shards, user)
            }
        }
        Assignment::ByRoomTag => user
            .strip_prefix('g')
            .and_then(|rest| rest.split('-').next())
            .and_then(|tag| tag.parse::<usize>().ok())
            .map(|k| k % instances)
            .unwrap_or_else(|| {
                (sgx_sim::crypto::digest(user.as_bytes()) % instances as u64) as usize
            }),
    }
}

/// The enclaved CONNECTOR: listens, accepts, performs the stream
/// handshake and hands authenticated clients to their instance.
///
/// The handoff is two-phase: after parsing the stream header the
/// CONNECTOR unwatches the socket and parks the connection in `handoff`;
/// only the READER's `Unwatched` ack — which, by reply-mbox FIFO, sorts
/// after every `Data` frame the READER already delivered — triggers the
/// actual assignment. Without the ack, a READER mid-poll on another
/// worker could deliver post-handshake bytes *here* after the assignment
/// left, and they would be silently lost (the seed's rare 1-CPU hang).
struct Connector {
    port: u16,
    listening: bool,
    reply: NetPort,
    reply_ref: MboxRef,
    opener_rq: NetPort,
    accepter_rq: NetPort,
    reader_rq: NetPort,
    closer_rq: NetPort,
    assigns: Arc<Vec<AssignPort>>,
    assignment: Assignment,
    /// Directory shard count (the `ShardAffine` placement key).
    shards: usize,
    rr_next: usize,
    pending: HashMap<u64, FrameBuf>,
    /// Authenticated connections awaiting the READER's `Unwatched` ack:
    /// socket → (user, buffered post-handshake bytes).
    handoff: HashMap<u64, (String, FrameBuf)>,
    /// Unwatch requests that hit a full READER port, retried every pass.
    unwatch_retry: Vec<u64>,
    /// Per-shard session gauges (owned by the shards); the CONNECTOR
    /// derives the imbalance gauge from them.
    shard_sessions: Vec<Arc<obs::Gauge>>,
    imbalance: Arc<obs::Gauge>,
    stats: Arc<ServiceStats>,
}

impl Actor for Connector {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // Expose the service counters and the CONNECTOR-side request
        // ports under stable registry names (the counters themselves are
        // shared with the registry, not copied).
        let registry = ctx.obs_hub().registry();
        self.stats.register(registry);
        self.opener_rq
            .stats()
            .register(registry, "xmpp_conn_opener");
        self.accepter_rq
            .stats()
            .register(registry, "xmpp_conn_accepter");
        self.reader_rq
            .stats()
            .register(registry, "xmpp_conn_reader");
        self.closer_rq
            .stats()
            .register(registry, "xmpp_conn_closer");
        registry.register_gauge("xmpp_shard_imbalance", self.imbalance.clone());
        // Everything the CONNECTOR reacts to is a reply on its mbox. (The
        // imbalance gauge it also derives is refreshed whenever it runs,
        // at the latest every `IdlePolicy::net_park_cap`.)
        ctx.event_driven();
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        if !self.listening {
            self.listening = true;
            self.opener_rq.send(&NetMsg::OpenListen {
                port: self.port,
                reply: self.reply_ref,
            });
            return Control::Busy;
        }
        // Unwatch requests parked on READER congestion go out first so an
        // acked handoff can never be starved by a fresh one.
        if !self.unwatch_retry.is_empty() {
            let reader_rq = &self.reader_rq;
            self.unwatch_retry
                .retain(|&socket| !reader_rq.send(&NetMsg::Unwatch { socket }));
        }
        // Batched drain: one cursor claim covers a whole run of replies
        // (accept storms arrive in bursts). Destructure so the closure
        // borrows fields disjointly from the reply port.
        let Connector {
            reply,
            reply_ref,
            accepter_rq,
            reader_rq,
            closer_rq,
            assigns,
            assignment,
            shards,
            rr_next,
            pending,
            handoff,
            unwatch_retry,
            stats,
            ..
        } = self;
        let reply_ref = *reply_ref;
        let assignment = *assignment;
        let shards = *shards;
        let worked = reply.drain(|msg| {
            match msg {
                NetMsg::OpenOk { id, listener: true } => {
                    accepter_rq.send(&NetMsg::WatchListener {
                        listener: id,
                        reply: reply_ref,
                    });
                }
                NetMsg::Accepted { socket, .. } => {
                    pending.insert(socket, FrameBuf::new());
                    reader_rq.send(&NetMsg::WatchSocket {
                        socket,
                        reply: reply_ref,
                    });
                }
                NetMsg::Data { socket, payload } => {
                    if let Some((_, fb)) = handoff.get_mut(&socket) {
                        // Post-handshake bytes the READER read before it
                        // processed our unwatch; they travel with the
                        // assignment once the ack arrives.
                        fb.push(payload);
                        return;
                    }
                    let Some(fb) = pending.get_mut(&socket) else {
                        return;
                    };
                    fb.push(payload);
                    // The handshake frame is plaintext; parse it in place.
                    let stanza = fb.next_frame_with(|frame| {
                        std::str::from_utf8(frame)
                            .ok()
                            .and_then(|xml| Stanza::parse(xml).ok())
                    });
                    match stanza {
                        Ok(Some(Some(Stanza::Stream { from, .. })))
                            if from.len() <= u16::MAX as usize =>
                        {
                            let fb = pending.remove(&socket).expect("checked present above");
                            if !reader_rq.send(&NetMsg::Unwatch { socket }) {
                                unwatch_retry.push(socket);
                            }
                            // Park until the READER acks: assignment must
                            // not race bytes still in the READER's hands.
                            handoff.insert(socket, (from, fb));
                        }
                        Ok(Some(_)) => {
                            stats.bad_frames.inc();
                            pending.remove(&socket);
                            reader_rq.send(&NetMsg::Unwatch { socket });
                            closer_rq.send(&NetMsg::Close { socket });
                        }
                        Ok(None) => {}
                        Err(_) => {
                            pending.remove(&socket);
                            reader_rq.send(&NetMsg::Unwatch { socket });
                            closer_rq.send(&NetMsg::Close { socket });
                        }
                    }
                }
                NetMsg::Unwatched { socket } => {
                    // The READER has let go: every byte it read is in our
                    // hands, so the assignment carries the complete
                    // leftover and nothing can be lost.
                    let Some((user, mut fb)) = handoff.remove(&socket) else {
                        return;
                    };
                    let leftover = fb.take_remaining();
                    let instance = pick_instance(assignment, rr_next, assigns.len(), shards, &user);
                    let sent = leftover.len() <= u16::MAX as usize
                        && assigns[instance].send(&AssignMsg {
                            socket,
                            user: &user,
                            leftover: &leftover,
                        });
                    if !sent {
                        // Assignment failed (congestion): drop the
                        // connection. The failure itself is counted
                        // in the assign port's send-drop telemetry.
                        closer_rq.send(&NetMsg::Close { socket });
                    }
                }
                NetMsg::SocketClosed { socket } => {
                    pending.remove(&socket);
                    handoff.remove(&socket);
                }
                _ => {}
            }
        }) > 0;
        // Shard balance is a cheap max-min over the shared gauges; the
        // CONNECTOR recomputes it whenever it runs.
        if self.shard_sessions.len() > 1 {
            let (mut min, mut max) = (u64::MAX, 0u64);
            for g in &self.shard_sessions {
                let v = g.get();
                min = min.min(v);
                max = max.max(v);
            }
            self.imbalance.set(max.saturating_sub(min));
        }
        // An `Unwatch` still owed keeps the actor hot: the READER frees
        // room in its port without telling anyone.
        if worked || !self.unwatch_retry.is_empty() {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

struct Session {
    user: String,
    crypto: ConnCrypto,
    frames: FrameBuf,
    rooms: Vec<String>,
}

/// What one drained data node asks the instance to do, extracted before
/// the node's borrow ends so `&mut self` methods can run afterwards.
enum DataEvent {
    Pump(u64),
    Closed(u64),
    Corrupt,
    Ignore,
}

/// A shard confirmation extracted from a reply drain, processed once the
/// port borrow ends.
enum ReplyEvent {
    Registered(u64),
    Joined(u64, String),
}

/// One XMPP protocol instance (the paper's `XMPP #i` eactor).
///
/// Directory writes no longer touch the store directly: they travel as
/// [`ShardMsg`] frames to the owning shard actor, and session-visible
/// effects (stream-ok, joined echo) wait for the shard's confirmation —
/// so a client that saw the acknowledgement knows the directory write is
/// globally visible, exactly as with the seed's synchronous writes.
struct XmppInstance {
    index: u32,
    wire_crypto: bool,
    shards: usize,
    directory: ShardedDirectory,
    dir_reader: Option<ShardedReader>,
    /// Assigned clients whose `Register` is still in flight; activated
    /// (stream-ok, READER subscription) on the shard's `Registered`.
    pending: HashMap<u64, Session>,
    sessions: HashMap<u64, Session>,
    out_crypto: HashMap<String, ConnCrypto>,
    data: NetPort,
    data_ref: MboxRef,
    reader_rq: NetPort,
    writers: Arc<Vec<NetPort>>,
    assign: AssignPort,
    /// Request port per shard (fetched from the deployment in `ctor`).
    shard_rqs: Vec<Port<ShardMsg<'static>>>,
    /// Reply port per shard (this instance's SPSC end).
    shard_replies: Vec<Port<ShardReply<'static>>>,
    /// Shard writes parked on a full request port, retried every pass.
    shard_backlog: Vec<(usize, OwnedShardMsg)>,
    /// Reusable node batches, event scratch and decrypt scratch: the
    /// steady state loops allocate nothing per message.
    reply_events: Vec<ReplyEvent>,
    assign_nodes: Vec<Node>,
    data_nodes: Vec<Node>,
    open_scratch: Vec<u8>,
    stats: Arc<ServiceStats>,
}

impl XmppInstance {
    /// Route a directory write to its owning shard, parking it for retry
    /// when the shard's request port is momentarily full.
    fn send_shard(&mut self, msg: OwnedShardMsg) {
        let s = self.directory.shard_of(msg.shard_key());
        if msg.view().encoded_len() > self.shard_rqs[s].mbox().arena().payload_size() {
            // Can never fit a node (an absurd room name): dropping beats
            // retrying forever.
            self.stats.bad_frames.inc();
            return;
        }
        if !self.shard_backlog.is_empty() || !self.shard_rqs[s].send(&msg.view()) {
            // Behind an existing backlog, preserve our send order.
            self.shard_backlog.push((s, msg));
        }
    }

    fn write_to(
        &mut self,
        costs: &sgx_sim::CostHandle,
        user: &str,
        socket: u64,
        instance: u32,
        xml: &str,
    ) {
        if !self.out_crypto.contains_key(user) {
            let crypto = if self.wire_crypto {
                ConnCrypto::for_user(user, costs.clone())
            } else {
                ConnCrypto::plaintext()
            };
            self.out_crypto.insert(user.to_owned(), crypto);
        }
        let crypto = &self.out_crypto[user];
        // Seal the stanza directly into the WRITER's node: one copy, no
        // intermediate frame buffer.
        send_write_with(
            &self.writers[instance as usize],
            socket,
            crypto.frame_len(xml),
            |out| {
                crypto.frame_into(xml, out);
            },
        );
    }

    fn handle_stanza(&mut self, ctx: &Ctx, socket: u64, stanza: Stanza) {
        let costs = ctx.costs().clone();
        let (sender, instance) = {
            let Some(s) = self.sessions.get(&socket) else {
                return;
            };
            (s.user.clone(), self.index)
        };
        match stanza {
            Stanza::Message { to, body, .. } => {
                if let Some(room) = Stanza::room_of(&to).map(str::to_owned) {
                    // One-to-many: decrypt once (already done), re-encrypt
                    // per member (§5.1: a dedicated enclave per group).
                    let reader = self.dir_reader.as_ref().expect("ctor ran");
                    let members = self
                        .directory
                        .group_members(reader, &room)
                        .unwrap_or_default();
                    let xml = Stanza::Message {
                        to: Stanza::room_address(&room),
                        from: sender.clone(),
                        body,
                    }
                    .to_xml();
                    for m in members {
                        self.write_to(&costs, &m.user, m.socket, m.instance, &xml);
                        self.stats.o2m_delivered.inc();
                    }
                } else {
                    // One-to-one: resolve the recipient anywhere in the
                    // service and route through its owning WRITER.
                    let reader = self.dir_reader.as_ref().expect("ctor ran");
                    match self.directory.lookup_user(reader, &to) {
                        Ok(Some(entry)) => {
                            let xml = Stanza::Message {
                                to: to.clone(),
                                from: sender,
                                body,
                            }
                            .to_xml();
                            self.write_to(&costs, &to, entry.socket, entry.instance, &xml);
                            self.stats.o2o_routed.inc();
                        }
                        _ => {
                            self.stats.offline_drops.inc();
                        }
                    }
                }
            }
            Stanza::Join { room } => {
                if let Some(s) = self.sessions.get_mut(&socket) {
                    if !s.rooms.contains(&room) {
                        s.rooms.push(room.clone());
                    }
                }
                // Membership is owned by the room's shard; the joined
                // echo waits for its confirmation so a client that saw
                // it can rely on the membership being visible.
                self.send_shard(OwnedShardMsg::Join {
                    sent_ns: now_ns(),
                    socket,
                    instance,
                    room,
                    user: sender,
                });
            }
            Stanza::Presence { .. } => {
                // Presence is recorded implicitly by the directory; no
                // broadcast in this subset.
            }
            Stanza::Iq { id, kind, query } => {
                if kind == "get" {
                    let xml = Stanza::Iq {
                        id,
                        kind: "result".into(),
                        query,
                    }
                    .to_xml();
                    self.write_to(&costs, &sender, socket, instance, &xml);
                }
            }
            // Stream management stanzas are not valid mid-session.
            Stanza::Stream { .. }
            | Stanza::StreamOk { .. }
            | Stanza::StreamError { .. }
            | Stanza::Joined { .. } => {
                self.stats.bad_frames.inc();
            }
        }
    }

    fn drop_session(&mut self, socket: u64) {
        if let Some(session) = self.sessions.remove(&socket) {
            self.send_shard(OwnedShardMsg::Unregister {
                sent_ns: now_ns(),
                socket,
                user: session.user.clone(),
            });
            for room in session.rooms {
                self.send_shard(OwnedShardMsg::Leave {
                    sent_ns: now_ns(),
                    room,
                    user: session.user.clone(),
                });
            }
        }
    }

    fn pump_frames(&mut self, ctx: &Ctx, socket: u64) {
        loop {
            // Open and parse the next frame in place: the payload is
            // decrypted into the reusable scratch (or borrowed directly
            // when plaintext); only the parsed stanza is owned.
            let outcome = {
                let scratch = &mut self.open_scratch;
                let Some(session) = self.sessions.get_mut(&socket) else {
                    return;
                };
                let Session { crypto, frames, .. } = session;
                frames.next_frame_with(|payload| {
                    crypto
                        .open_into(payload, scratch)
                        .ok()
                        .and_then(|xml| Stanza::parse(xml).ok())
                })
            };
            match outcome {
                Ok(None) => return,
                Ok(Some(Some(stanza))) => self.handle_stanza(ctx, socket, stanza),
                Ok(Some(None)) => {
                    self.stats.bad_frames.inc();
                }
                Err(_) => {
                    self.stats.bad_frames.inc();
                    self.drop_session(socket);
                    return;
                }
            }
        }
    }
}

impl Actor for XmppInstance {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.dir_reader = Some(self.directory.reader());
        self.shard_rqs = (0..self.shards)
            .map(|s| {
                ctx.port(&shard_rq_name(s))
                    .expect("shard request port declared by start_service")
            })
            .collect();
        self.shard_replies = (0..self.shards)
            .map(|s| {
                ctx.port(&shard_reply_name(s, self.index as usize))
                    .expect("shard reply port declared by start_service")
            })
            .collect();
        let registry = ctx.obs_hub().registry();
        self.data
            .stats()
            .register(registry, &format!("xmpp_data_{}", self.index));
        self.assign
            .stats()
            .register(registry, &format!("xmpp_assign_{}", self.index));
        // Assignments, socket data and shard confirmations all arrive on
        // mboxes; the one thing owed, `shard_backlog`, reports `Busy`.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        let mut worked = false;

        // Shard writes parked on congestion go out first, in order.
        if !self.shard_backlog.is_empty() {
            worked = true;
            let rqs = &self.shard_rqs;
            let mut blocked = false;
            self.shard_backlog.retain(|(s, msg)| {
                // Once one send blocks, keep everything behind it.
                blocked = blocked || !rqs[*s].send(&msg.view());
                blocked
            });
        }

        // Shard confirmations: activations and joined echoes. Extracted
        // into owned events first because processing needs `&mut self`.
        let mut events = std::mem::take(&mut self.reply_events);
        {
            let replies = &mut self.shard_replies;
            for port in replies.iter_mut() {
                worked |= port.drain(|msg| match msg {
                    ShardReply::Registered { socket } => {
                        events.push(ReplyEvent::Registered(socket));
                    }
                    ShardReply::Joined { socket, room } => {
                        events.push(ReplyEvent::Joined(socket, room.to_owned()));
                    }
                }) > 0;
            }
        }
        let mut batch: Vec<(u64, MboxRef)> = Vec::new();
        for ev in events.drain(..) {
            match ev {
                ReplyEvent::Registered(socket) => {
                    // The directory write is applied and visible: the
                    // session goes live — subscribe its socket, complete
                    // the handshake, pump any leftover stanzas.
                    let Some(session) = self.pending.remove(&socket) else {
                        continue;
                    };
                    self.sessions.insert(socket, session);
                    self.stats.sessions.inc();
                    batch.push((socket, self.data_ref));
                    // Acknowledge the stream (plaintext, completing the
                    // handshake) through our own WRITER, framed directly
                    // in the node.
                    let ok = Stanza::StreamOk {
                        id: format!("s{socket}"),
                    }
                    .to_xml();
                    let frame = Frame(ok.as_bytes());
                    send_write_with(
                        &self.writers[self.index as usize],
                        socket,
                        frame.encoded_len(),
                        |out| {
                            frame.encode_into(out);
                        },
                    );
                    // Any stanzas that raced the handshake.
                    self.pump_frames(ctx, socket);
                }
                ReplyEvent::Joined(socket, room) => {
                    let Some(user) = self.sessions.get(&socket).map(|s| s.user.clone()) else {
                        continue; // left before the echo; nothing to say
                    };
                    let xml = Stanza::Joined { room }.to_xml();
                    self.write_to(ctx.costs(), &user, socket, self.index, &xml);
                }
            }
        }
        self.reply_events = events;

        // Newly assigned clients (the PCL refresh: fetch the users this
        // instance serves, then batch-subscribe their sockets). Claimed
        // in batches so one cursor update covers a whole burst of
        // assignments.
        let assign_mbox = Arc::clone(self.assign.mbox());
        let mut nodes = std::mem::take(&mut self.assign_nodes);
        while assign_mbox.recv_batch(&mut nodes, ASSIGN_BATCH) > 0 {
            worked = true;
            for node in nodes.drain(..) {
                // Decode the borrowed view, take ownership of what
                // outlives the node, then recycle it before touching
                // session state.
                let parsed = AssignMsg::decode_from(node.bytes()).map(|m| {
                    let mut frames = FrameBuf::new();
                    frames.push(m.leftover);
                    (m.socket, m.user.to_owned(), frames)
                });
                drop(node);
                let Some((socket, user, frames)) = parsed else {
                    self.assign.stats().note_corrupt_frame();
                    continue;
                };
                let crypto = if self.wire_crypto {
                    ConnCrypto::for_user(&user, ctx.costs().clone())
                } else {
                    ConnCrypto::plaintext()
                };
                // Park the session and ask the owning shard to register
                // it; the stream-ok waits for the confirmation.
                self.pending.insert(
                    socket,
                    Session {
                        user: user.clone(),
                        crypto,
                        frames,
                        rooms: Vec::new(),
                    },
                );
                self.send_shard(OwnedShardMsg::Register {
                    sent_ns: now_ns(),
                    socket,
                    instance: self.index,
                    user,
                });
            }
        }
        self.assign_nodes = nodes;
        if !batch.is_empty() {
            // One batch request subscribes the whole refreshed PCL
            // (§5.1.2); fall back to per-socket subscriptions if the
            // batch does not fit a node.
            if !self.reader_rq.send(&NetMsg::WatchBatch {
                entries: BatchEntries::Slice(&batch),
            }) {
                for &(socket, reply) in &batch {
                    self.reader_rq.send(&NetMsg::WatchSocket { socket, reply });
                }
            }
        }

        // Incoming data from our READER, drained in batches straight out
        // of the arena nodes.
        let data_mbox = Arc::clone(self.data.mbox());
        let mut nodes = std::mem::take(&mut self.data_nodes);
        while data_mbox.recv_batch(&mut nodes, DATA_BATCH) > 0 {
            worked = true;
            for node in nodes.drain(..) {
                let event = match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::Data { socket, payload }) => {
                        match self.sessions.get_mut(&socket) {
                            Some(session) => {
                                session.frames.push(payload);
                                DataEvent::Pump(socket)
                            }
                            None => DataEvent::Ignore,
                        }
                    }
                    Some(NetMsg::SocketClosed { socket }) => DataEvent::Closed(socket),
                    Some(_) => DataEvent::Ignore,
                    None => DataEvent::Corrupt,
                };
                drop(node);
                match event {
                    DataEvent::Pump(socket) => self.pump_frames(ctx, socket),
                    DataEvent::Closed(socket) => self.drop_session(socket),
                    DataEvent::Corrupt => self.data.stats().note_corrupt_frame(),
                    DataEvent::Ignore => {}
                }
            }
        }
        self.data_nodes = nodes;

        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// A started messaging service: the runtime plus its shared state.
pub struct RunningService {
    /// The EActors runtime executing the service.
    pub runtime: Runtime,
    /// The shared Online list / group directory, partitioned by
    /// user/room hash.
    pub directory: ShardedDirectory,
    /// Live counters.
    pub stats: Arc<ServiceStats>,
}

impl std::fmt::Debug for RunningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningService").finish_non_exhaustive()
    }
}

impl RunningService {
    /// Stop the service and wait for its workers.
    pub fn shutdown(self) -> RuntimeReport {
        self.runtime.shutdown();
        self.runtime.join()
    }
}

/// Start the messaging service on `platform` over `net`.
///
/// # Errors
///
/// [`XmppError`] on an invalid configuration or a platform failure.
pub fn start_service(
    platform: &Platform,
    net: Arc<dyn NetBackend>,
    config: &XmppConfig,
) -> Result<RunningService, XmppError> {
    if config.instances == 0 {
        return Err(XmppError::NoInstances);
    }
    let stats = Arc::new(ServiceStats::default());
    let shards = if config.shards == 0 {
        config.instances
    } else {
        config.shards
    };

    // Shared Online list, partitioned by user/room hash: encrypted when
    // it crosses enclave boundaries (encryption state is per slice).
    let multi_enclave = config.trusted
        && !matches!(config.enclave_layout, EnclaveLayout::Single)
        && config.instances > 1;
    let encryption = || {
        multi_enclave.then(|| pos::PosEncryption {
            key: SessionKey::derive(&[platform.secret(), 0x0D12_EC70]),
            costs: platform.costs(),
        })
    };
    let directory =
        ShardedDirectory::with_capacity(shards, config.max_clients, config.max_clients, encryption);

    let mut b = DeploymentBuilder::new();

    // Enclaves.
    let enclave_count = if !config.trusted {
        0
    } else {
        match config.enclave_layout {
            EnclaveLayout::Single => 1,
            EnclaveLayout::PerInstance => config.instances + 1,
            EnclaveLayout::Count(n) => n.max(1),
        }
    };
    let enclaves: Vec<_> = (0..enclave_count)
        .map(|i| b.enclave(&format!("xmpp-enclave-{i}")))
        .collect();
    let placement_of = |slot: usize| -> Placement {
        if !config.trusted {
            Placement::Untrusted
        } else {
            Placement::Enclave(enclaves[slot % enclaves.len()])
        }
    };
    // Connector uses the last enclave slot; instances 0..N map onto the
    // remaining ones (with Single everything coincides).
    let connector_placement = placement_of(enclave_count.saturating_sub(1));

    // Per-instance node pools and typed ports.
    let per_instance_nodes =
        ((config.max_clients as usize * 6 / config.instances) as u32 + 256).next_power_of_two();
    let dir_handles = Arc::new(MboxDirectory::new());
    let net_reply_stats = Arc::new(PortStats::default());
    let mut writers_vec: Vec<NetPort> = Vec::with_capacity(config.instances);
    let mut assigns_vec: Vec<AssignPort> = Vec::with_capacity(config.instances);
    let mut instance_parts = Vec::with_capacity(config.instances);
    for i in 0..config.instances {
        let pool = Arena::new(&format!("xmpp-pool-{i}"), per_instance_nodes, 2048);
        let cap = per_instance_nodes as usize;
        // Every per-instance port has exactly one consuming actor (the
        // instance, its reader, or its writer), so the single-consumer
        // cursor protocol applies; producers stay open (connector,
        // system actors, sibling instances).
        let mpsc = |pool: Arc<Arena>| Mbox::with_kind(pool, cap, eactors::arena::MboxKind::Mpsc);
        let data: NetPort = Port::new(mpsc(pool.clone()));
        let data_ref = dir_handles.register(data.mbox().clone());
        let reader_rq: NetPort = Port::new(mpsc(pool.clone()));
        let writer_rq: NetPort = Port::new(mpsc(pool.clone()));
        let assign: AssignPort = Port::new(mpsc(pool.clone()));
        writers_vec.push(writer_rq.clone());
        assigns_vec.push(assign.clone());
        instance_parts.push((data, data_ref, reader_rq, writer_rq, assign));
    }
    let writers = Arc::new(writers_vec);
    let assigns = Arc::new(assigns_vec);

    // Connector's system actor set (OPENER, ACCEPTER, handshake READER,
    // CLOSER share the connector pool).
    let conn_pool = Arena::new(
        "connector-pool",
        (config.max_clients * 4).next_power_of_two(),
        1024,
    );
    let conn_sys = SystemActors::new(net.clone(), conn_pool.clone());
    // Replies are consumed only by the connector actor; any system
    // actor may produce them.
    let conn_reply: NetPort = Port::with_stats(
        Mbox::with_kind(
            conn_pool.clone(),
            conn_pool.capacity() as usize,
            eactors::arena::MboxKind::Mpsc,
        ),
        conn_sys.reply_stats.clone(),
    );
    let conn_reply_ref = conn_sys.dir.register(conn_reply.mbox().clone());

    // One session gauge per shard, shared between the owning shard actor
    // (writer) and the CONNECTOR (imbalance derivation).
    let shard_sessions: Vec<Arc<obs::Gauge>> =
        (0..shards).map(|_| Arc::new(obs::Gauge::new())).collect();

    let connector = Connector {
        port: config.port,
        listening: false,
        reply: conn_reply,
        reply_ref: conn_reply_ref,
        opener_rq: conn_sys.opener_requests.clone(),
        accepter_rq: conn_sys.accepter_requests.clone(),
        reader_rq: conn_sys.reader_requests.clone(),
        closer_rq: conn_sys.closer_requests.clone(),
        assigns: assigns.clone(),
        assignment: config.assignment,
        shards,
        rr_next: 0,
        pending: HashMap::new(),
        handoff: HashMap::new(),
        unwatch_retry: Vec::new(),
        shard_sessions: shard_sessions.clone(),
        imbalance: Arc::new(obs::Gauge::new()),
        stats: stats.clone(),
    };

    let a_connector = b.actor("connector", connector_placement, connector);
    let a_c_open = b.actor("conn-opener", Placement::Untrusted, conn_sys.opener);
    let a_c_acc = b.actor("conn-accepter", Placement::Untrusted, conn_sys.accepter);
    let a_c_read = b.actor("conn-reader", Placement::Untrusted, conn_sys.reader);
    let a_c_write = b.actor("conn-writer", Placement::Untrusted, conn_sys.writer);
    let a_c_close = b.actor("conn-closer", Placement::Untrusted, conn_sys.closer);
    b.worker(&[a_connector]);
    // The COLLECTOR rides the untrusted system-actor worker: it drains
    // the deployment's trace rings without disturbing enclave workers.
    let a_collector = b.collector();
    b.worker(&[
        a_c_open,
        a_c_acc,
        a_c_read,
        a_c_write,
        a_c_close,
        a_collector,
    ]);

    // XMPP instances, each with a dedicated READER and WRITER. Actors
    // are declared first (their slots parameterize the shard ports'
    // producer/consumer proof), workers after the shard actors exist so
    // each shard can ride its hosting instance's worker.
    let mut xmpp_slots = Vec::with_capacity(config.instances);
    let mut net_slots = Vec::with_capacity(config.instances);
    for (i, (data, data_ref, reader_rq, writer_rq, assign)) in
        instance_parts.into_iter().enumerate()
    {
        let instance = XmppInstance {
            index: i as u32,
            wire_crypto: config.wire_crypto,
            shards,
            directory: directory.clone(),
            dir_reader: None,
            pending: HashMap::new(),
            sessions: HashMap::new(),
            out_crypto: HashMap::new(),
            data,
            data_ref,
            reader_rq: reader_rq.clone(),
            writers: writers.clone(),
            assign,
            shard_rqs: Vec::new(),
            shard_replies: Vec::new(),
            shard_backlog: Vec::new(),
            reply_events: Vec::new(),
            assign_nodes: Vec::new(),
            data_nodes: Vec::new(),
            open_scratch: Vec::new(),
            stats: stats.clone(),
        };
        xmpp_slots.push(b.actor(&format!("xmpp-{i}"), placement_of(i), instance));
        let a_r = b.actor(
            &format!("reader-{i}"),
            Placement::Untrusted,
            enet::Reader::new(
                net.clone(),
                reader_rq,
                dir_handles.clone(),
                net_reply_stats.clone(),
            ),
        );
        let a_w = b.actor(
            &format!("writer-{i}"),
            Placement::Untrusted,
            enet::Writer::new(net.clone(), writer_rq),
        );
        net_slots.push((a_r, a_w));
    }

    // Directory shard actors: shard `s` rides the worker (and enclave)
    // of instance `s % instances`, so with one shard per instance the
    // request path never crosses a protection domain.
    let shard_slots: Vec<_> = (0..shards)
        .map(|s| {
            let host = s % config.instances;
            b.actor(
                &format!("dir-shard-{s}"),
                placement_of(host),
                DirShard::new(
                    s,
                    directory.slice(s).clone(),
                    config.instances,
                    shard_sessions[s].clone(),
                ),
            )
        })
        .collect();

    for (i, &(a_r, a_w)) in net_slots.iter().enumerate() {
        let mut crew = vec![xmpp_slots[i]];
        crew.extend(
            (0..shards)
                .filter(|s| s % config.instances == i)
                .map(|s| shard_slots[s]),
        );
        b.worker(&crew);
        if config.shared_net_worker {
            b.worker(&[a_r, a_w]);
        } else {
            b.worker(&[a_r]);
            b.worker(&[a_w]);
        }
    }

    // Declared shard ports: the builder proves the request side MPSC
    // (SPSC with a single instance) and every reply side SPSC — zero
    // consumer CAS on the hot path — and each shard draws replies from
    // its own pool so reply fan-in cannot converge on one arena.
    let shard_pool_nodes =
        ((config.max_clients as usize * 4 / shards) as u32 + 64).next_power_of_two();
    for (s, &shard_slot) in shard_slots.iter().enumerate() {
        // Sized so any user name that fit an assignment also fits its
        // Register (2048-byte assign payload plus the shard header).
        b.pool(
            &shard_rq_pool_name(s),
            Placement::Untrusted,
            shard_pool_nodes,
            2304,
        );
        b.pool(
            &shard_reply_pool_name(s),
            Placement::Untrusted,
            shard_pool_nodes,
            2304,
        );
        b.port_bound::<ShardMsg<'static>>(
            &shard_rq_name(s),
            &shard_rq_pool_name(s),
            shard_pool_nodes as usize,
            &xmpp_slots,
            &[shard_slot],
        );
        for (i, &xmpp_slot) in xmpp_slots.iter().enumerate() {
            b.port_bound::<ShardReply<'static>>(
                &shard_reply_name(s, i),
                &shard_reply_pool_name(s),
                shard_pool_nodes as usize,
                &[shard_slot],
                &[xmpp_slot],
            );
        }
    }

    let runtime = Runtime::start(platform, b.build()?)?;
    Ok(RunningService {
        runtime,
        directory,
        stats,
    })
}
