//! The network backend abstraction.
//!
//! Enclaves cannot issue system calls, so all networking in EActors runs
//! in untrusted *system actors* (§4.2). This module defines the socket
//! interface those actors program against, in two halves. [`NetBackend`]
//! is the synchronous socket table: seven non-blocking operations, one
//! system call each. [`CompletionRing`] is the data path: READER, WRITER
//! and ACCEPTER each own one ring, move their buffer nodes into it with
//! an operation and get them back in a [`Completion`]. Every backend
//! offers both — [`crate::SimNet`] (in-process TCP with a syscall cost
//! model), [`crate::TcpLoopback`], `EpollBackend` and `UringBackend`
//! (real loopback sockets) — and differs only in what sits beneath the
//! ring: an io_uring instance, or the plain operations retried by the
//! adapter in `ops_ring.rs`, on every reap or when an `epoll` edge fires.
//! No call in either half waits: a ring is reaped by an actor body, and
//! the waiting belongs to the body's worker ([`CompletionRing::wait_fd`]).

use std::fmt;

use eactors::arena::Node;
use eactors::obs::MetricsRegistry;

/// Identifier of a connected socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

/// Identifier of a listening (server) socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub u64);

/// Outcome of a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// `n` bytes were copied into the buffer.
    Data(usize),
    /// No data available right now.
    WouldBlock,
    /// The peer closed the connection and the buffer is drained.
    Eof,
}

/// Errors from network operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A system call was attempted from inside an enclave. Real enclaves
    /// cannot do this; the simulation turns the mistake into a loud error
    /// instead of a silent OCall.
    TrustedDomain,
    /// The port is already in use.
    PortInUse(u16),
    /// Nothing listens on the port.
    ConnectionRefused(u16),
    /// The socket or listener id is unknown or already closed.
    BadSocket,
    /// The peer's receive buffer is full (back-pressure; retry).
    WouldBlock,
    /// The operation was withdrawn by [`CompletionRing::cancel_recv`]
    /// before it transferred anything.
    Canceled,
    /// An OS-level error from the real-socket backend.
    Io(std::io::Error),
    /// A scripted failure from a fault-injection plan fired at the named
    /// failpoint site (simulation backend only).
    Injected(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::TrustedDomain => {
                write!(f, "network system calls must run in untrusted actors")
            }
            NetError::PortInUse(p) => write!(f, "port {p} is already in use"),
            NetError::ConnectionRefused(p) => write!(f, "connection refused on port {p}"),
            NetError::BadSocket => write!(f, "unknown or closed socket"),
            NetError::WouldBlock => write!(f, "operation would block"),
            NetError::Canceled => write!(f, "operation canceled"),
            NetError::Io(e) => write!(f, "socket i/o error: {e}"),
            NetError::Injected(site) => write!(f, "fault injected at {site}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A non-blocking TCP-like transport.
///
/// All methods are callable from any thread; every call models one system
/// call (and is rejected when issued from enclave code).
pub trait NetBackend: Send + Sync + fmt::Debug {
    /// Open a server socket on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] when the port is taken,
    /// [`NetError::TrustedDomain`] from enclave code.
    fn listen(&self, port: u16) -> Result<ListenerId, NetError>;

    /// Open a client connection to `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] when nothing listens there.
    fn connect(&self, port: u16) -> Result<SocketId, NetError>;

    /// Accept one pending connection, or `None` when the backlog is
    /// empty.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener.
    fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError>;

    /// Send up to `data.len()` bytes; returns how many were accepted
    /// (0 when the peer's buffer is full).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for a closed socket.
    fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError>;

    /// Receive into `buf` without blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown socket.
    fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError>;

    /// Close a socket (the peer observes EOF after draining).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown socket.
    fn close(&self, socket: SocketId) -> Result<(), NetError>;

    /// Close a listener.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener.
    fn close_listener(&self, listener: ListenerId) -> Result<(), NetError>;

    /// Create a completion ring over this backend's sockets: the one
    /// data path READER, WRITER and ACCEPTER speak. Each call returns an
    /// independent ring, so a consumer's completions are never stolen by
    /// another. A real-socket backend whose kernel object (io_uring
    /// instance, epoll set) cannot be created hands back the polled
    /// adapter over its own socket table instead of failing.
    fn completion_ring(&self) -> Box<dyn CompletionRing>;
}

/// One finished operation reaped from a [`CompletionRing`].
///
/// Buffers travel as arena [`Node`]s in both directions: a receive is
/// submitted *with* the node the kernel fills, and every completion
/// hands the node back — ownership is never ambiguous, and a dropped
/// completion simply recycles its node to the pool.
#[derive(Debug)]
#[non_exhaustive]
pub enum Completion {
    /// A watched listener produced a connection, already adopted into
    /// the backend's socket table under `socket`.
    Accepted {
        /// The listener ([`ListenerId::0`]) the connection arrived on.
        listener: u64,
        /// The new socket ([`SocketId::0`]), nonblocking and adopted.
        socket: u64,
    },
    /// The accept stream on `listener` died (listener closed or a fatal
    /// accept error); the watch is gone and must be re-submitted if
    /// still wanted.
    AcceptFailed {
        /// The listener whose watch ended.
        listener: u64,
    },
    /// A [`CompletionRing::recv_into`] finished. On `Ok(n)` the kernel
    /// filled `node` bytes `offset..offset + n` (`n == 0` is EOF); the
    /// node's length is **not** set — the consumer owns framing. `Err`
    /// reports a dead socket, or [`NetError::Canceled`] after a
    /// [`CompletionRing::cancel_recv`].
    Recv {
        /// The socket the receive was submitted on.
        socket: u64,
        /// The buffer node, returned to the caller.
        node: Node,
        /// The offset the receive was submitted with.
        offset: usize,
        /// Bytes received, or why the operation ended.
        result: Result<usize, NetError>,
    },
    /// A [`CompletionRing::send_node`] finished. `Ok` means the node's
    /// payload was **fully** transmitted — short writes are resumed
    /// inside the ring, never surfaced. `Err` reports a dead socket
    /// with the unsent node returned.
    Sent {
        /// The socket the send was submitted on.
        socket: u64,
        /// The transmitted (or abandoned) node, returned to the caller.
        node: Node,
        /// Success, or why transmission stopped.
        result: Result<(), NetError>,
    },
}

/// A per-consumer submission/completion engine.
///
/// Each consumer (READER, WRITER, ACCEPTER) drives its own ring, so
/// completions are never stolen between actors. The consumer *submits*
/// operations (with their buffers) and later *reaps* their completions;
/// what happens in between is the backend's business — an io_uring
/// instance takes the whole batch in one `io_uring_enter`, the adapter
/// over the plain [`NetBackend`] operations tries each one when it is
/// submitted and again when a reap finds it worth retrying.
///
/// At most one receive and one send may be in flight per socket per
/// ring (the actors' natural discipline); a second submission fails
/// with [`NetError::WouldBlock`]. Every fallible entry point refuses
/// enclave callers with [`NetError::TrustedDomain`] before anything
/// else, and only system calls actually issued are charged to the
/// platform — queueing an operation never is.
pub trait CompletionRing: Send + fmt::Debug {
    /// Keep accepting on `listener`, posting [`Completion::Accepted`]
    /// per connection until cancelled or [`Completion::AcceptFailed`].
    /// Idempotent while armed.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener,
    /// [`NetError::TrustedDomain`] from enclave code.
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError>;

    /// Stop accepting on `listener`. Unknown ids are a no-op. Already
    /// accepted-but-unreaped connections still surface as
    /// [`Completion::Accepted`] (close them if unwanted).
    fn cancel_accept(&mut self, listener: ListenerId);

    /// Submit one receive on `socket` into `node` at byte `offset`
    /// (room above the caller's frame header). The node is pinned
    /// inside the ring until its [`Completion::Recv`] is reaped.
    ///
    /// # Errors
    ///
    /// The node is handed back with [`NetError::BadSocket`] (unknown
    /// socket), [`NetError::WouldBlock`] (a receive is already in
    /// flight), or [`NetError::TrustedDomain`].
    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)>;

    /// Cancel the in-flight receive on `socket`, if any. The node comes
    /// back through [`Completion::Recv`] — with real data if the
    /// receive won the race, as [`NetError::Canceled`] otherwise. No-op
    /// when nothing is in flight.
    fn cancel_recv(&mut self, socket: SocketId);

    /// Submit the transmission of `node.bytes()[offset..]` on `socket`.
    /// The ring owns the node until [`Completion::Sent`], resuming
    /// short writes internally so per-socket ordering holds as long as
    /// the caller serializes sends per socket (one in flight each).
    ///
    /// # Errors
    ///
    /// The node is handed back with [`NetError::BadSocket`],
    /// [`NetError::WouldBlock`] (a send is already in flight on this
    /// socket), or [`NetError::TrustedDomain`].
    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)>;

    /// Flush pending submissions and reap finished completions into
    /// `out` (appended). Returns how many completions were appended —
    /// possibly none: a reap never blocks. An actor body calls it, and
    /// a body must not wait; the consumer's worker does the waiting, on
    /// [`CompletionRing::wait_fd`] or a timer.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on ring failure, [`NetError::TrustedDomain`]
    /// from enclave code.
    fn reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, NetError>;

    /// A pollable descriptor that reads ready while a
    /// [`CompletionRing::reap`] would return completions (the io_uring
    /// or epoll instance itself). The consumer declares it with
    /// [`eactors::actor::Ctx::watch_fd`] so its worker's park ends when
    /// a socket has news. `None` means nothing pollable exists: the
    /// consumer paces its reaps with a timer
    /// ([`eactors::actor::Ctx::wake_after`]).
    fn wait_fd(&self) -> Option<i32>;

    /// Bind the ring's counters, if it keeps any, into `registry` (the
    /// io_uring ring: `net_sqe_submitted`, `net_cqe_reaped`,
    /// `net_enter_syscalls` and the `net_uring_batch` histogram). Rings of one deployment share the named atomics.
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}
}

/// Enclave code cannot reach the kernel — not even to queue work for it.
/// Every backend and ring entry point asks this first, before it charges
/// or looks up anything.
pub(crate) fn untrusted() -> Result<(), NetError> {
    if sgx_sim::current_domain().is_trusted() {
        return Err(NetError::TrustedDomain);
    }
    Ok(())
}
