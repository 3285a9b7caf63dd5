//! The non-blocking-operations adapter: a [`CompletionRing`] over the
//! plain [`NetBackend`] `accept`/`recv`/`send` calls.
//!
//! Completion is the most general I/O shape: a backend that can only be
//! *asked* (`SimNet`, `TcpLoopback`) or that only *signals readiness*
//! (`EpollBackend`) becomes a completion source by doing the operation
//! itself when its trigger fires. The rule is one sentence: **an
//! operation is tried when it is submitted, stays in flight with its
//! node when the backend says `WouldBlock`, and is tried again by a
//! later reap** — every reap for a backend without an [`Edges`] source,
//! the reaps that harvest an edge for its socket otherwise.
//!
//! No edge can be lost. An operation is only ever in flight after a try
//! that found the socket not ready, and the socket was registered with
//! the edge source no later than right after that try (a registration
//! reports a socket that is already ready), so whatever makes it ready
//! afterwards fires an edge that a reap will see. An edge that fires
//! while nothing is in flight may be thrown away: the next submission is
//! tried first — a fresh submission is ready once.
//!
//! Because every try is the backend's own operation, its checks stay
//! where they are: the enclave refusal, one charged syscall per call
//! (none for keeping an operation in flight), `SimNet`'s failpoints,
//! `retry_intr`.

use std::collections::HashMap;
use std::fmt;

use eactors::arena::Node;

use crate::backend::{
    untrusted, Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId,
};

/// What an [`Edge`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Source {
    /// A connected socket ([`SocketId::0`]).
    Socket(u64),
    /// A listener ([`ListenerId::0`]).
    Listener(u64),
}

/// One harvested readiness edge: `source` may have become readable
/// (data, a pending connection, EOF) and/or writable, or is `dead` (hung
/// up or in error — both directions are worth one last try).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) source: Source,
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) dead: bool,
}

/// A source of edge-triggered readiness (one `epoll` instance) that
/// tells an [`OpsRing`] which in-flight operations are worth retrying.
pub(crate) trait Edges: Send + fmt::Debug {
    /// Collect read (`write == false`) or write edges of `source` from
    /// now on. A source that is ready right now fires at once. No-op
    /// when already collected.
    fn watch(&mut self, source: Source, write: bool) -> Result<(), NetError>;

    /// Stop collecting edges of `source` and let go of it.
    fn forget(&mut self, source: Source);

    /// Append the edges that fired since the last call, waiting for
    /// none.
    fn harvest(&mut self, fired: &mut Vec<Edge>) -> Result<(), NetError>;

    /// A descriptor that polls readable while a harvest would find
    /// edges.
    fn wait_fd(&self) -> i32;
}

/// The adapter (see the module docs). `N` is a handle on the backend
/// whose operations it calls.
#[derive(Debug)]
pub(crate) struct OpsRing<N> {
    net: N,
    edges: Option<Box<dyn Edges>>,
    /// Operations in flight, by socket and direction (`true`: a send):
    /// the node, and where the operation stands — the offset a receive
    /// was submitted at, the next byte a send transmits (short writes
    /// resume there; the consumer only sees full transmissions).
    ops: HashMap<(u64, bool), (Node, usize)>,
    /// Listeners being accepted on.
    accepts: Vec<u64>,
    /// Finished operations the next reap hands out.
    done: Vec<Completion>,
    /// Scratch: what the current reap retries.
    fired: Vec<Edge>,
}

impl<N: NetBackend> OpsRing<N> {
    /// A ring over `net`, retrying what `edges` reports — or, without
    /// an edge source, everything in flight on every reap.
    pub(crate) fn new(net: N, edges: Option<Box<dyn Edges>>) -> Self {
        OpsRing {
            net,
            edges,
            ops: HashMap::new(),
            accepts: Vec::new(),
            done: Vec::new(),
            fired: Vec::new(),
        }
    }

    fn watch(&mut self, source: Source, write: bool) -> Result<(), NetError> {
        match self.edges.as_deref_mut() {
            Some(edges) => edges.watch(source, write),
            None => Ok(()),
        }
    }

    fn forget(&mut self, source: Source) {
        if let Some(edges) = self.edges.as_deref_mut() {
            edges.forget(source);
        }
    }

    /// One try of a receive into `node` at `*pos`, or of pushing a send
    /// forward from `*pos` until the node is out or the socket takes no
    /// more. `None` while the socket is not ready; else the bytes received
    /// (0: EOF), `Ok` for a node fully sent, or why the operation ended.
    fn attempt(
        net: &N,
        socket: u64,
        send: bool,
        node: &mut Node,
        pos: &mut usize,
    ) -> Option<Result<usize, NetError>> {
        if !send {
            return match net.recv(SocketId(socket), &mut node.buffer_mut()[*pos..]) {
                Ok(RecvOutcome::WouldBlock) => None,
                Ok(RecvOutcome::Data(n)) => Some(Ok(n)),
                Ok(RecvOutcome::Eof) => Some(Ok(0)),
                Err(e) => Some(Err(e)),
            };
        }
        let bytes = node.bytes();
        while *pos < bytes.len() {
            match net.send(SocketId(socket), &bytes[*pos..]) {
                Ok(0) => return None,
                Ok(n) => *pos += n,
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok(bytes.len()))
    }

    /// An operation ended. Socket ids are never reused, so a socket that
    /// reported EOF or an error has no further use for its edges.
    fn finish(
        &mut self,
        socket: u64,
        send: bool,
        node: Node,
        pos: usize,
        result: Result<usize, NetError>,
    ) {
        if !matches!(result, Ok(n) if n > 0) {
            self.forget(Source::Socket(socket));
        }
        self.done.push(if send {
            Completion::Sent {
                socket,
                node,
                result: result.map(drop),
            }
        } else {
            Completion::Recv {
                socket,
                node,
                offset: pos,
                result,
            }
        });
    }

    /// Submission: the operation is tried at once — a fresh submission
    /// is ready once — and stays in flight if the socket is not ready.
    fn submit(
        &mut self,
        socket: u64,
        send: bool,
        mut node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = untrusted() {
            return Err((e, node));
        }
        let room = if send {
            offset < node.len()
        } else {
            offset < node.arena().payload_size()
        };
        debug_assert!(room, "nothing to transfer at this offset");
        if !room || self.ops.contains_key(&(socket, send)) {
            return Err((NetError::WouldBlock, node));
        }
        let mut pos = offset;
        match Self::attempt(&self.net, socket, send, &mut node, &mut pos) {
            // An id the backend does not know is handed straight back.
            Some(Err(NetError::BadSocket)) if pos == offset => {
                return Err((NetError::BadSocket, node))
            }
            Some(result) => self.finish(socket, send, node, pos, result),
            None => match self.watch(Source::Socket(socket), send) {
                Ok(()) => {
                    self.ops.insert((socket, send), (node, pos));
                }
                Err(e) => return Err((e, node)),
            },
        }
        Ok(())
    }

    /// Take every pending connection of `listener`; `Err` when the
    /// listener is gone.
    fn drain_backlog(&mut self, listener: u64) -> Result<(), NetError> {
        while let Some(SocketId(socket)) = self.net.accept(ListenerId(listener))? {
            self.done.push(Completion::Accepted { listener, socket });
        }
        Ok(())
    }

    /// Retry what `edge` says may have become possible.
    fn retry(&mut self, edge: Edge) {
        let socket = match edge.source {
            Source::Listener(listener) => {
                if self.accepts.contains(&listener) && self.drain_backlog(listener).is_err() {
                    self.cancel_accept(ListenerId(listener));
                    self.done.push(Completion::AcceptFailed { listener });
                }
                return;
            }
            Source::Socket(socket) => socket,
        };
        for send in [false, true] {
            let fired = if send { edge.writable } else { edge.readable };
            if !fired {
                continue;
            }
            let Some((node, pos)) = self.ops.get_mut(&(socket, send)) else {
                continue;
            };
            if let Some(result) = Self::attempt(&self.net, socket, send, node, pos) {
                let (node, pos) = self.ops.remove(&(socket, send)).expect("in flight above");
                self.finish(socket, send, node, pos, result);
            }
        }
        // A closed socket whose edges are still collected but which has
        // nothing in flight to report the closure through.
        if edge.dead
            && !(self.ops.contains_key(&(socket, false)) || self.ops.contains_key(&(socket, true)))
        {
            self.forget(edge.source);
        }
    }
}

impl<N: NetBackend> CompletionRing for OpsRing<N> {
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError> {
        untrusted()?;
        if self.accepts.contains(&listener.0) {
            return Ok(());
        }
        self.drain_backlog(listener.0)?;
        self.watch(Source::Listener(listener.0), false)?;
        self.accepts.push(listener.0);
        Ok(())
    }

    fn cancel_accept(&mut self, listener: ListenerId) {
        self.accepts.retain(|&l| l != listener.0);
        self.forget(Source::Listener(listener.0));
    }

    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        self.submit(socket.0, false, node, offset)
    }

    fn cancel_recv(&mut self, socket: SocketId) {
        // Nothing was read, so nothing is lost: whatever arrives stays
        // in the socket for the next receive.
        if let Some((node, offset)) = self.ops.remove(&(socket.0, false)) {
            self.forget(Source::Socket(socket.0));
            self.done.push(Completion::Recv {
                socket: socket.0,
                node,
                offset,
                result: Err(NetError::Canceled),
            });
        }
    }

    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        self.submit(socket.0, true, node, offset)
    }

    fn reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, NetError> {
        untrusted()?;
        let before = out.len();
        out.append(&mut self.done);
        self.fired.clear();
        match self.edges.as_deref_mut() {
            Some(edges) => edges.harvest(&mut self.fired)?,
            None => {
                let all = |source, write: bool| Edge {
                    source,
                    readable: !write,
                    writable: write,
                    dead: false,
                };
                let accepts = self.accepts.iter();
                self.fired
                    .extend(accepts.map(|&l| all(Source::Listener(l), false)));
                self.fired
                    .extend(self.ops.keys().map(|&(s, w)| all(Source::Socket(s), w)));
            }
        }
        for i in 0..self.fired.len() {
            self.retry(self.fired[i]);
        }
        out.append(&mut self.done);
        Ok(out.len() - before)
    }

    fn wait_fd(&self) -> Option<i32> {
        self.edges.as_deref().map(Edges::wait_fd)
    }
}
