//! User-hash sharding of the XMPP hot state.
//!
//! The seed service kept one [`Directory`] (over one [`pos::PosStore`])
//! shared by the CONNECTOR and every XMPP instance, and the fig11/fig14
//! trajectories show the cost: throughput *drops* as workers grow because
//! every registration, lookup and room update contends on the same store
//! and the same reply arena. This module partitions that hot state into
//! `N` **shard actors**, each owning one directory slice:
//!
//! * users are keyed by `digest(user) % shards`, rooms by
//!   `digest(room) % shards` — the partition is total and stable, so a
//!   name resolves to exactly one shard from any instance;
//! * all **writes** travel as [`ShardMsg`] frames over one MPSC port per
//!   shard, declared with its producers and consumers so the deployment
//!   proves the consumer side runs without CAS (SPSC when a single
//!   instance co-places with the shard);
//! * **reads** stay synchronous: a [`ShardedReader`] holds one POS reader
//!   handle per slice, so the o2o/o2m fast paths never wait on a shard
//!   round-trip;
//! * each shard confirms session-visible writes ([`ShardReply`]) through
//!   a per-instance SPSC reply port drawing from the shard's **own reply
//!   pool**, so reply fan-in no longer converges on one global arena;
//! * each shard owns its telemetry: an `xmpp_shard_<i>_sessions` gauge
//!   and an `xmpp_shard_<i>_queue_delay_ns` histogram in the deployment's
//!   [`obs::MetricsRegistry`].
//!
//! The shard actors also run the POS incremental cleaner over their slice
//! during idle passes, so long connect/disconnect churn (the load
//! harness's ≥100k sessions) cannot exhaust a slice's store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::actor::{Actor, Control, Ctx};
use eactors::obs;
use eactors::wire::{Port, Wire};
use pos::PosError;

use crate::directory::{Directory, DirectoryReader, Member, UserEntry};

/// The shard owning `name` (a user or room) out of `shards` slices.
///
/// Total and stable: every name maps to exactly one shard, and the
/// mapping depends only on the name and the shard count.
pub fn shard_of(name: &str, shards: usize) -> usize {
    (sgx_sim::crypto::digest(name.as_bytes()) % shards.max(1) as u64) as usize
}

/// Monotonic nanoseconds since the first call — stamps [`ShardMsg`]
/// frames so shards can histogram their queueing delay.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Registry/port naming helpers — one place so the builder, the actors
/// and the tests agree.
pub(crate) fn shard_rq_name(shard: usize) -> String {
    format!("xmpp-shard-rq-{shard}")
}

/// Reply port of `shard` towards `instance`.
pub(crate) fn shard_reply_name(shard: usize, instance: usize) -> String {
    format!("xmpp-shard-re-{shard}-{instance}")
}

/// Node pool feeding a shard's request port.
pub(crate) fn shard_rq_pool_name(shard: usize) -> String {
    format!("xmpp-shard-rq-pool-{shard}")
}

/// Node pool feeding a shard's reply ports (its own, per the design:
/// reply fan-in must not converge on a shared arena).
pub(crate) fn shard_reply_pool_name(shard: usize) -> String {
    format!("xmpp-shard-re-pool-{shard}")
}

/// The directory partitioned into per-shard slices.
///
/// Clones share the slices. Reads go straight to the owning slice via a
/// [`ShardedReader`]; writes in a running service travel through the
/// shard actors instead (the slice write methods here exist for tests
/// and tools that run without a deployment).
#[derive(Debug, Clone)]
pub struct ShardedDirectory {
    slices: Arc<Vec<Directory>>,
    /// The same stores bundled for maintenance wiring: hand
    /// [`Self::pos`] to one `pos::Syncer`/`pos::Cleaner` instead of
    /// registering each slice by hand.
    stores: Arc<pos::PosShards>,
}

/// Per-slice POS reader handles (one set per reading actor).
#[derive(Debug)]
pub struct ShardedReader {
    readers: Vec<DirectoryReader>,
}

impl ShardedDirectory {
    /// A directory of `shards` slices sized for `users` concurrent users
    /// in total and groups of up to `group_size` members. `encryption` is
    /// invoked once per slice (encryption state is per-store).
    pub fn with_capacity(
        shards: usize,
        users: u32,
        group_size: u32,
        mut encryption: impl FnMut() -> Option<pos::PosEncryption>,
    ) -> Self {
        let shards = shards.max(1);
        // Hashing spreads unevenly; give each slice slack over users/N.
        let per_slice = (users / shards as u32 + 1).saturating_mul(2).max(16);
        Self::from_shards(pos::PosShards::new(shards, |_| {
            Directory::config_for(per_slice, group_size, encryption())
        }))
    }

    /// A directory over already-opened shard stores — e.g. WAL-backed
    /// slices recovered via [`pos::PosStore::open_wal`]. Store order is
    /// the slice order; it must match the order the images/logs were
    /// written under, because [`shard_of`] routes names positionally.
    pub fn from_shards(stores: pos::PosShards) -> Self {
        let slices = stores
            .stores()
            .iter()
            .map(|s| Directory::from_store(s.clone()))
            .collect();
        ShardedDirectory {
            slices: Arc::new(slices),
            stores: Arc::new(stores),
        }
    }

    /// The shard stores as one bundle, in slice order — for wiring every
    /// slice into a single `pos::Syncer` / `pos::Cleaner` and for
    /// aggregate accounting (`memory_bytes`, `free_entries`).
    pub fn pos(&self) -> &pos::PosShards {
        &self.stores
    }

    /// Number of slices.
    pub fn shards(&self) -> usize {
        self.slices.len()
    }

    /// The shard owning `name` (see [`shard_of`]).
    pub fn shard_of(&self, name: &str) -> usize {
        shard_of(name, self.slices.len())
    }

    /// The `i`-th slice.
    pub fn slice(&self, i: usize) -> &Directory {
        &self.slices[i]
    }

    /// Register one reader handle per slice.
    pub fn reader(&self) -> ShardedReader {
        ShardedReader {
            readers: self.slices.iter().map(Directory::reader).collect(),
        }
    }

    /// Where `user` is connected, if online (reads the owning slice).
    ///
    /// # Errors
    ///
    /// Propagates [`PosError`].
    pub fn lookup_user(
        &self,
        r: &ShardedReader,
        user: &str,
    ) -> Result<Option<UserEntry>, PosError> {
        let s = self.shard_of(user);
        self.slices[s].lookup_user(&r.readers[s], user)
    }

    /// Current members of `room` (reads the owning slice).
    ///
    /// # Errors
    ///
    /// Propagates [`PosError`].
    pub fn group_members(&self, r: &ShardedReader, room: &str) -> Result<Vec<Member>, PosError> {
        let s = self.shard_of(room);
        self.slices[s].group_members(&r.readers[s], room)
    }

    /// Direct write into the owning slice — bypasses the shard actors;
    /// for tests and tools only.
    ///
    /// # Errors
    ///
    /// Propagates [`PosError`].
    pub fn register_user(
        &self,
        r: &ShardedReader,
        user: &str,
        socket: u64,
        instance: u32,
    ) -> Result<(), PosError> {
        let s = self.shard_of(user);
        self.slices[s].register_user(&r.readers[s], user, socket, instance)
    }

    /// Direct removal from the owning slice — tests and tools only.
    ///
    /// # Errors
    ///
    /// Propagates [`PosError`].
    pub fn unregister_user(&self, r: &ShardedReader, user: &str) -> Result<(), PosError> {
        let s = self.shard_of(user);
        self.slices[s].unregister_user(&r.readers[s], user)
    }
}

/// A write request routed to the shard owning its key: `Register` /
/// `Unregister` shard by **user**, `Join` / `Leave` by **room**.
///
/// Borrowed [`Wire`] view — strings are `u16`-length-prefixed slices of
/// the node payload; `sent_ns` carries the [`now_ns`] send stamp for the
/// shard's queue-delay histogram.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ShardMsg<'a> {
    /// Record `user` as connected on `socket`, owned by `instance`.
    Register {
        sent_ns: u64,
        socket: u64,
        instance: u32,
        user: &'a str,
    },
    /// Forget `user`'s connection **iff** it still names `socket` —
    /// carrying the socket makes a stale disconnect racing a fresh
    /// reconnect harmless.
    Unregister {
        sent_ns: u64,
        socket: u64,
        user: &'a str,
    },
    /// Add `user` to `room`.
    Join {
        sent_ns: u64,
        socket: u64,
        instance: u32,
        room: &'a str,
        user: &'a str,
    },
    /// Remove `user` from `room`.
    Leave {
        sent_ns: u64,
        room: &'a str,
        user: &'a str,
    },
}

/// A shard's confirmation of a session-visible write, sent to the
/// owning instance's reply port: the instance defers the client-visible
/// acknowledgement (stream-ok / joined echo) until the directory write
/// is actually applied, preserving the seed's ordering guarantees.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ShardReply<'a> {
    /// The `Register` for `socket` was applied.
    Registered { socket: u64 },
    /// The `Join` of `socket` into `room` was applied.
    Joined { socket: u64, room: &'a str },
}

mod tag {
    pub const REGISTER: u8 = 1;
    pub const UNREGISTER: u8 = 2;
    pub const JOIN: u8 = 3;
    pub const LEAVE: u8 = 4;
    pub const REGISTERED: u8 = 1;
    pub const JOINED: u8 = 2;
}

fn put_str(out: &mut [u8], at: usize, s: &str) -> usize {
    debug_assert!(s.len() <= u16::MAX as usize);
    out[at..at + 2].copy_from_slice(&(s.len() as u16).to_le_bytes());
    out[at + 2..at + 2 + s.len()].copy_from_slice(s.as_bytes());
    at + 2 + s.len()
}

fn get_str(data: &[u8], at: usize) -> Option<(&str, usize)> {
    let len = u16::from_le_bytes([*data.get(at)?, *data.get(at + 1)?]) as usize;
    let s = std::str::from_utf8(data.get(at + 2..at + 2 + len)?).ok()?;
    Some((s, at + 2 + len))
}

fn get_u64(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(at..at + 8)?.try_into().ok()?))
}

fn get_u32(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?))
}

impl<'m> Wire for ShardMsg<'m> {
    type View<'a> = ShardMsg<'a>;

    fn encoded_len(&self) -> usize {
        match self {
            ShardMsg::Register { user, .. } => 1 + 8 + 8 + 4 + 2 + user.len(),
            ShardMsg::Unregister { user, .. } => 1 + 8 + 8 + 2 + user.len(),
            ShardMsg::Join { room, user, .. } => 1 + 8 + 8 + 4 + 2 + room.len() + 2 + user.len(),
            ShardMsg::Leave { room, user, .. } => 1 + 8 + 2 + room.len() + 2 + user.len(),
        }
    }

    fn encode_into(&self, out: &mut [u8]) -> usize {
        match *self {
            ShardMsg::Register {
                sent_ns,
                socket,
                instance,
                user,
            } => {
                out[0] = tag::REGISTER;
                out[1..9].copy_from_slice(&sent_ns.to_le_bytes());
                out[9..17].copy_from_slice(&socket.to_le_bytes());
                out[17..21].copy_from_slice(&instance.to_le_bytes());
                put_str(out, 21, user)
            }
            ShardMsg::Unregister {
                sent_ns,
                socket,
                user,
            } => {
                out[0] = tag::UNREGISTER;
                out[1..9].copy_from_slice(&sent_ns.to_le_bytes());
                out[9..17].copy_from_slice(&socket.to_le_bytes());
                put_str(out, 17, user)
            }
            ShardMsg::Join {
                sent_ns,
                socket,
                instance,
                room,
                user,
            } => {
                out[0] = tag::JOIN;
                out[1..9].copy_from_slice(&sent_ns.to_le_bytes());
                out[9..17].copy_from_slice(&socket.to_le_bytes());
                out[17..21].copy_from_slice(&instance.to_le_bytes());
                let at = put_str(out, 21, room);
                put_str(out, at, user)
            }
            ShardMsg::Leave {
                sent_ns,
                room,
                user,
            } => {
                out[0] = tag::LEAVE;
                out[1..9].copy_from_slice(&sent_ns.to_le_bytes());
                let at = put_str(out, 9, room);
                put_str(out, at, user)
            }
        }
    }

    fn decode_from(data: &[u8]) -> Option<ShardMsg<'_>> {
        let (&t, _) = data.split_first()?;
        Some(match t {
            tag::REGISTER => {
                let (user, end) = get_str(data, 21)?;
                if end != data.len() {
                    return None;
                }
                ShardMsg::Register {
                    sent_ns: get_u64(data, 1)?,
                    socket: get_u64(data, 9)?,
                    instance: get_u32(data, 17)?,
                    user,
                }
            }
            tag::UNREGISTER => {
                let (user, end) = get_str(data, 17)?;
                if end != data.len() {
                    return None;
                }
                ShardMsg::Unregister {
                    sent_ns: get_u64(data, 1)?,
                    socket: get_u64(data, 9)?,
                    user,
                }
            }
            tag::JOIN => {
                let (room, at) = get_str(data, 21)?;
                let (user, end) = get_str(data, at)?;
                if end != data.len() {
                    return None;
                }
                ShardMsg::Join {
                    sent_ns: get_u64(data, 1)?,
                    socket: get_u64(data, 9)?,
                    instance: get_u32(data, 17)?,
                    room,
                    user,
                }
            }
            tag::LEAVE => {
                let (room, at) = get_str(data, 9)?;
                let (user, end) = get_str(data, at)?;
                if end != data.len() {
                    return None;
                }
                ShardMsg::Leave {
                    sent_ns: get_u64(data, 1)?,
                    room,
                    user,
                }
            }
            _ => return None,
        })
    }
}

impl<'m> Wire for ShardReply<'m> {
    type View<'a> = ShardReply<'a>;

    fn encoded_len(&self) -> usize {
        match self {
            ShardReply::Registered { .. } => 1 + 8,
            ShardReply::Joined { room, .. } => 1 + 8 + 2 + room.len(),
        }
    }

    fn encode_into(&self, out: &mut [u8]) -> usize {
        match *self {
            ShardReply::Registered { socket } => {
                out[0] = tag::REGISTERED;
                out[1..9].copy_from_slice(&socket.to_le_bytes());
                9
            }
            ShardReply::Joined { socket, room } => {
                out[0] = tag::JOINED;
                out[1..9].copy_from_slice(&socket.to_le_bytes());
                put_str(out, 9, room)
            }
        }
    }

    fn decode_from(data: &[u8]) -> Option<ShardReply<'_>> {
        let (&t, rest) = data.split_first()?;
        Some(match t {
            tag::REGISTERED if rest.len() == 8 => ShardReply::Registered {
                socket: get_u64(data, 1)?,
            },
            tag::JOINED => {
                let (room, end) = get_str(data, 9)?;
                if end != data.len() {
                    return None;
                }
                ShardReply::Joined {
                    socket: get_u64(data, 1)?,
                    room,
                }
            }
            _ => return None,
        })
    }
}

/// An owned [`ShardMsg`] — what producers park when a shard's request
/// port is momentarily full, retried on the next pass.
#[derive(Debug, Clone)]
pub(crate) enum OwnedShardMsg {
    Register {
        sent_ns: u64,
        socket: u64,
        instance: u32,
        user: String,
    },
    Unregister {
        sent_ns: u64,
        socket: u64,
        user: String,
    },
    Join {
        sent_ns: u64,
        socket: u64,
        instance: u32,
        room: String,
        user: String,
    },
    Leave {
        sent_ns: u64,
        room: String,
        user: String,
    },
}

impl OwnedShardMsg {
    /// The name that picks the owning shard: the user for connection
    /// state, the room for membership state.
    pub(crate) fn shard_key(&self) -> &str {
        match self {
            OwnedShardMsg::Register { user, .. } | OwnedShardMsg::Unregister { user, .. } => user,
            OwnedShardMsg::Join { room, .. } | OwnedShardMsg::Leave { room, .. } => room,
        }
    }

    /// The borrowed wire view.
    pub(crate) fn view(&self) -> ShardMsg<'_> {
        match *self {
            OwnedShardMsg::Register {
                sent_ns,
                socket,
                instance,
                ref user,
            } => ShardMsg::Register {
                sent_ns,
                socket,
                instance,
                user,
            },
            OwnedShardMsg::Unregister {
                sent_ns,
                socket,
                ref user,
            } => ShardMsg::Unregister {
                sent_ns,
                socket,
                user,
            },
            OwnedShardMsg::Join {
                sent_ns,
                socket,
                instance,
                ref room,
                ref user,
            } => ShardMsg::Join {
                sent_ns,
                socket,
                instance,
                room,
                user,
            },
            OwnedShardMsg::Leave {
                sent_ns,
                ref room,
                ref user,
            } => ShardMsg::Leave {
                sent_ns,
                room,
                user,
            },
        }
    }
}

/// An owned [`ShardReply`] parked for retry when an instance's reply
/// port is momentarily full.
#[derive(Debug, Clone)]
enum OwnedReply {
    Registered { socket: u64 },
    Joined { socket: u64, room: String },
}

impl OwnedReply {
    fn view(&self) -> ShardReply<'_> {
        match *self {
            OwnedReply::Registered { socket } => ShardReply::Registered { socket },
            OwnedReply::Joined { socket, ref room } => ShardReply::Joined { socket, room },
        }
    }
}

/// How long a shard that owes its slice cleaner runs waits between two
/// of them (and after the write that made it owe them).
const CLEAN_EVERY: Duration = Duration::from_micros(250);

/// Cleaner runs owed after a write: unlink, grace and free take
/// separate passes over the store.
const CLEANS_PER_WRITE: u8 = 3;

/// The shard actor: single writer of one directory slice.
///
/// Drains its request port (proven MPSC — or SPSC when co-placed with a
/// single instance — by the deployment's cardinality inference), applies
/// each write to its slice, histograms the queueing delay, and confirms
/// session-visible writes through per-instance SPSC reply ports.
pub(crate) struct DirShard {
    index: usize,
    slice: Directory,
    instances: usize,
    reader: Option<DirectoryReader>,
    rq: Option<Port<ShardMsg<'static>>>,
    replies: Vec<Port<ShardReply<'static>>>,
    backlog: Vec<(usize, OwnedReply)>,
    /// Shared with the CONNECTOR, which derives the imbalance gauge.
    sessions: Arc<obs::Gauge>,
    queue_delay: Option<Arc<obs::Log2Hist>>,
    /// Cleaner runs still owed after the last applied write, and when
    /// the next is due. A quiescent shard owes none and skips `clean()`
    /// entirely (it takes the store's cleaner lock and advances the
    /// epoch even with nothing retired — waste that multiplies with the
    /// shard count on small hosts).
    pending_cleans: u8,
    next_clean: Instant,
}

impl DirShard {
    pub(crate) fn new(
        index: usize,
        slice: Directory,
        instances: usize,
        sessions: Arc<obs::Gauge>,
    ) -> Self {
        DirShard {
            index,
            slice,
            instances,
            reader: None,
            rq: None,
            replies: Vec::new(),
            backlog: Vec::new(),
            sessions,
            queue_delay: None,
            pending_cleans: 0,
            next_clean: Instant::now(),
        }
    }
}

impl std::fmt::Debug for DirShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirShard")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

impl Actor for DirShard {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.reader = Some(self.slice.reader());
        self.rq = Some(
            ctx.port(&shard_rq_name(self.index))
                .expect("shard request port declared by start_service"),
        );
        self.replies = (0..self.instances)
            .map(|i| {
                ctx.port(&shard_reply_name(self.index, i))
                    .expect("shard reply port declared by start_service")
            })
            .collect();
        let registry = ctx.obs_hub().registry();
        registry.register_gauge(
            &format!("xmpp_shard_{}_sessions", self.index),
            self.sessions.clone(),
        );
        self.queue_delay =
            Some(registry.hist(&format!("xmpp_shard_{}_queue_delay_ns", self.index)));
        // Requests arrive on the shard's port; owed replies report
        // `Busy`, owed cleaner runs arm a timer.
        ctx.event_driven();
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        // Parked replies first: FIFO towards each instance is preserved
        // because new replies for an instance only go out behind its
        // backlog (see `reply` below).
        let had_backlog = !self.backlog.is_empty();
        if had_backlog {
            let replies = &self.replies;
            self.backlog.retain(|(i, r)| !replies[*i].send(&r.view()));
        }

        let DirShard {
            slice,
            reader,
            rq,
            replies,
            backlog,
            sessions,
            queue_delay,
            ..
        } = self;
        let reader = reader.as_ref().expect("ctor ran");
        let rq = rq.as_mut().expect("ctor ran");
        let queue_delay = queue_delay.as_ref().expect("ctor ran");
        let mut reply = |instance: u32, r: OwnedReply| {
            let i = instance as usize % replies.len();
            if !backlog.is_empty() || !replies[i].send(&r.view()) {
                backlog.push((i, r));
            }
        };
        let worked = rq.drain(|msg| match msg {
            ShardMsg::Register {
                sent_ns,
                socket,
                instance,
                user,
            } => {
                queue_delay.record(now_ns().saturating_sub(sent_ns));
                let existed = matches!(slice.lookup_user(reader, user), Ok(Some(_)));
                // A full slice is tolerated like the seed tolerated a full
                // store: the session still runs, lookups simply miss.
                let _ = slice.register_user(reader, user, socket, instance);
                if !existed {
                    sessions.inc();
                }
                reply(instance, OwnedReply::Registered { socket });
            }
            ShardMsg::Unregister {
                sent_ns,
                socket,
                user,
            } => {
                queue_delay.record(now_ns().saturating_sub(sent_ns));
                // Only drop the entry this disconnect actually owns: a
                // stale disconnect racing a reconnect must not erase the
                // fresh registration.
                if let Ok(Some(e)) = slice.lookup_user(reader, user) {
                    if e.socket == socket {
                        let _ = slice.unregister_user(reader, user);
                        sessions.dec();
                    }
                }
            }
            ShardMsg::Join {
                sent_ns,
                socket,
                instance,
                room,
                user,
            } => {
                queue_delay.record(now_ns().saturating_sub(sent_ns));
                let _ = slice.join_group(
                    reader,
                    room,
                    Member {
                        user: user.to_owned(),
                        socket,
                        instance,
                    },
                );
                reply(
                    instance,
                    OwnedReply::Joined {
                        socket,
                        room: room.to_owned(),
                    },
                );
            }
            ShardMsg::Leave {
                sent_ns,
                room,
                user,
            } => {
                queue_delay.record(now_ns().saturating_sub(sent_ns));
                let _ = slice.leave_group(reader, room, user);
            }
        }) > 0;

        // Housekeeping: amortised incremental cleaning keeps churn (the
        // load harness's connect/disconnect mix) from exhausting the
        // slice's store. Writes retire store entries, so each one owes a
        // few runs, spaced in time whether the shard is loaded or not. A
        // quiescent shard owes none, reads no clock, arms no timer and
        // stays off the cleaner lock entirely.
        if worked || self.pending_cleans > 0 {
            let now = Instant::now();
            if self.pending_cleans == 0 {
                self.next_clean = now + CLEAN_EVERY;
            }
            if worked {
                self.pending_cleans = CLEANS_PER_WRITE;
            }
            if now >= self.next_clean {
                self.next_clean = now + CLEAN_EVERY;
                if self.slice.store().clean() > 0 {
                    // Progress: more may become freeable.
                    self.pending_cleans = CLEANS_PER_WRITE;
                } else {
                    self.pending_cleans -= 1;
                }
            }
            if self.pending_cleans > 0 {
                ctx.wake_after(self.next_clean.saturating_duration_since(now));
            }
        }
        if worked || had_backlog {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_and_total() {
        for shards in [1usize, 2, 3, 8] {
            let mut hit = vec![0usize; shards];
            for i in 0..1000 {
                let name = format!("user-{i}");
                let s = shard_of(&name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&name, shards), "stable");
                hit[s] += 1;
            }
            assert!(
                hit.iter().all(|&n| n > 0),
                "1000 names must touch all {shards} shards: {hit:?}"
            );
        }
    }

    #[test]
    fn shard_msg_round_trips() {
        let msgs = [
            ShardMsg::Register {
                sent_ns: 7,
                socket: 42,
                instance: 3,
                user: "alice",
            },
            ShardMsg::Unregister {
                sent_ns: 9,
                socket: 42,
                user: "alice",
            },
            ShardMsg::Join {
                sent_ns: 1,
                socket: 2,
                instance: 0,
                room: "tea",
                user: "bob",
            },
            ShardMsg::Leave {
                sent_ns: u64::MAX,
                room: "",
                user: "x",
            },
        ];
        for msg in &msgs {
            let mut buf = vec![0u8; msg.encoded_len()];
            assert_eq!(msg.encode_into(&mut buf), buf.len());
            assert_eq!(ShardMsg::decode_from(&buf).as_ref(), Some(msg));
            // Truncation and padding must both reject.
            assert!(ShardMsg::decode_from(&buf[..buf.len() - 1]).is_none());
            let mut padded = buf.clone();
            padded.push(0);
            assert!(ShardMsg::decode_from(&padded).is_none());
        }
        assert!(ShardMsg::decode_from(&[]).is_none());
        assert!(ShardMsg::decode_from(&[99, 0, 0]).is_none());
    }

    #[test]
    fn shard_reply_round_trips() {
        let msgs = [
            ShardReply::Registered { socket: 11 },
            ShardReply::Joined {
                socket: 5,
                room: "tea",
            },
        ];
        for msg in &msgs {
            let mut buf = vec![0u8; msg.encoded_len()];
            assert_eq!(msg.encode_into(&mut buf), buf.len());
            assert_eq!(ShardReply::decode_from(&buf).as_ref(), Some(msg));
            assert!(ShardReply::decode_from(&buf[..buf.len() - 1]).is_none());
            let mut padded = buf.clone();
            padded.push(0);
            assert!(ShardReply::decode_from(&padded).is_none());
        }
    }

    #[test]
    fn sharded_directory_reads_route_to_owning_slice() {
        let dir = ShardedDirectory::with_capacity(4, 64, 8, || None);
        let r = dir.reader();
        for i in 0..32 {
            let user = format!("u{i}");
            dir.register_user(&r, &user, i, (i % 3) as u32).unwrap();
        }
        for i in 0..32 {
            let user = format!("u{i}");
            let e = dir.lookup_user(&r, &user).unwrap().unwrap();
            assert_eq!(e.socket, i);
            // The entry lives in exactly the owning slice.
            let own = dir.shard_of(&user);
            for s in 0..dir.shards() {
                let direct = dir.slice(s).lookup_user(&r.readers[s], &user).unwrap();
                assert_eq!(direct.is_some(), s == own);
            }
        }
        dir.unregister_user(&r, "u0").unwrap();
        assert!(dir.lookup_user(&r, "u0").unwrap().is_none());
    }

    #[test]
    fn pos_bundle_covers_every_slice() {
        let dir = ShardedDirectory::with_capacity(3, 32, 4, || None);
        assert_eq!(dir.pos().shard_count(), 3);
        // Bundle order is slice order: the store behind slice i is the
        // i-th store of the bundle (required for Syncer labelling and
        // WAL recovery to land on the right slice).
        for i in 0..3 {
            assert!(Arc::ptr_eq(dir.slice(i).store(), dir.pos().store(i)));
        }
        assert!(dir.pos().memory_bytes() > 0);
    }

    #[test]
    fn wal_backed_shards_recover_directory_state() {
        let base = std::env::temp_dir().join(format!("xmpp-shard-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let faults = sgx_sim::FaultPlan::new();
        let open = |shards: usize| {
            let stores = (0..shards)
                .map(|i| {
                    pos::PosStore::open_wal(
                        pos::WalConfig::in_dir(&base, &format!("slice{i}")),
                        Directory::config_for(32, 4, None),
                        1 << 24,
                    )
                    .unwrap()
                })
                .collect();
            ShardedDirectory::from_shards(pos::PosShards::from_stores(stores))
        };

        let dir = open(2);
        let r = dir.reader();
        for i in 0..12u64 {
            dir.register_user(&r, &format!("u{i}"), i, 0).unwrap();
        }
        dir.unregister_user(&r, "u3").unwrap();
        for s in dir.pos().stores() {
            s.wal_sync(&faults).unwrap();
        }

        // "Crash": drop everything and reopen from image + log alone.
        drop(r);
        drop(dir);
        let dir = open(2);
        let r = dir.reader();
        for i in 0..12u64 {
            let got = dir.lookup_user(&r, &format!("u{i}")).unwrap();
            if i == 3 {
                assert!(got.is_none(), "u3 was unregistered before the crash");
            } else {
                assert_eq!(got.map(|e| e.socket), Some(i));
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
