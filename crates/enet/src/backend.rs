//! The network backend abstraction.
//!
//! Enclaves cannot issue system calls, so all networking in EActors runs
//! in untrusted *system actors* (§4.2). This module defines the socket
//! interface those actors program against. Two backends implement it:
//! [`crate::SimNet`] (an in-process TCP-like substrate with a syscall
//! cost model — used by the benchmarks so thousands of emulated clients
//! fit on one machine) and [`crate::TcpLoopback`] (real `std::net`
//! sockets on localhost).

use std::fmt;
use std::time::Duration;

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

/// What a readiness consumer wants to hear about for one socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable / EOF / error events (READER side).
    Read,
    /// Writable events (WRITER side, after a short write).
    Write,
}

/// One edge-triggered readiness event from [`ReadySet::wait_ready`].
///
/// Edge semantics: the consumer must drain the socket (read or write
/// until [`NetError::WouldBlock`]) before the next event for it can
/// fire. Events are level-collapsed per wait — one event may cover any
/// number of underlying arrivals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The watched socket or listener id ([`SocketId::0`] /
    /// [`ListenerId::0`]).
    pub id: u64,
    /// `id` names a listener (accept-readiness) rather than a socket.
    pub listener: bool,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// Buffer space is available for writing.
    pub writable: bool,
    /// The peer hung up or the socket errored; drain then close.
    pub hup: bool,
}

/// A per-consumer readiness multiplexer (one `epoll` instance).
///
/// Each consumer (READER, WRITER, ACCEPTER) owns its own set so events
/// are never stolen between actors: the same socket may be watched for
/// [`Interest::Read`] in one set and [`Interest::Write`] in another.
/// Watches are edge-triggered; a freshly added watch should be treated
/// as ready once and drained, which makes "event fired before the watch
/// existed" races harmless.
pub trait ReadySet: Send + fmt::Debug {
    /// Watch `socket` for `interest` events. Adding an already-ready
    /// socket produces an event on the next wait.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown socket.
    fn watch(&mut self, socket: SocketId, interest: Interest) -> Result<(), NetError>;

    /// Stop watching `socket`. Unknown ids are a no-op (the socket may
    /// already be closed).
    fn unwatch(&mut self, socket: SocketId);

    /// Watch `listener` for accept-readiness.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener.
    fn watch_listener(&mut self, listener: ListenerId) -> Result<(), NetError>;

    /// Stop watching `listener`. Unknown ids are a no-op.
    fn unwatch_listener(&mut self, listener: ListenerId);

    /// Block up to `timeout` for events, writing them into `events`
    /// (caller-owned — no allocation). Returns the number written; `0`
    /// on timeout. A `None` timeout blocks until an event. `EINTR` is
    /// absorbed (reported as `0`). The system actors only ever pass a
    /// zero timeout — an actor body must not block; their worker does
    /// the waiting, on [`ReadySet::wait_fd`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on multiplexer failure,
    /// [`NetError::TrustedDomain`] from enclave code.
    fn wait_ready(
        &mut self,
        events: &mut [ReadyEvent],
        timeout: Option<Duration>,
    ) -> Result<usize, NetError>;

    /// A pollable descriptor that reads ready while a zero-timeout
    /// [`ReadySet::wait_ready`] would report events (the epoll instance
    /// itself). The consumer declares it with
    /// [`eactors::actor::Ctx::watch_fd`] so its worker's park ends when
    /// a watched socket has news.
    fn wait_fd(&self) -> i32;
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

    /// Create a readiness multiplexer over this backend's sockets, or
    /// `None` when the backend only supports polling ([`crate::SimNet`],
    /// [`crate::TcpLoopback`]). Consumers that get `None` fall back to
    /// iterating their watch lists every pass.
    fn ready_set(&self) -> Option<Box<dyn ReadySet>> {
        None
    }

    /// Create a completion ring over this backend's sockets, or `None`
    /// when the backend has no submission-queue engine (every backend
    /// except `UringBackend`). Consumers prefer a completion ring over a
    /// [`NetBackend::ready_set`]: instead of "wait for readiness, then
    /// one syscall per event", they submit the operations themselves and
    /// reap finished ones in batches — at most one syscall per *batch*.
    fn completion_ring(&self) -> Option<Box<dyn CompletionRing>> {
        None
    }
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
    /// reports a dead socket or a cancellation
    /// ([`CompletionRing::cancel_recv`]).
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

/// A per-consumer submission/completion engine (one io_uring instance).
///
/// Mirrors [`ReadySet`]'s ownership model — each consumer (READER,
/// WRITER, ACCEPTER) drives its own ring, so completions are never
/// stolen between actors — but inverts the control flow: the consumer
/// *submits* operations (with their buffers) and later *reaps* their
/// completions, instead of waiting for readiness and then issuing one
/// syscall per ready socket.
///
/// At most one receive and one send may be in flight per socket per
/// ring (the actors' natural discipline); a second submission fails
/// with [`NetError::WouldBlock`]. Submissions are *published* locally
/// and handed to the kernel in the next [`CompletionRing::reap`] — one
/// `io_uring_enter` covers the whole batch, and a reap that finds
/// already-posted completions costs **zero** syscalls.
pub trait CompletionRing: Send + fmt::Debug {
    /// Keep accepting on `listener`, posting [`Completion::Accepted`]
    /// per connection until cancelled or [`Completion::AcceptFailed`].
    /// Uses multishot accept where the kernel supports it, transparent
    /// oneshot re-arm otherwise. Idempotent while armed.
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
    /// receive won the race, as an `Err` otherwise. No-op when nothing
    /// is in flight.
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
    /// `out` (appended), blocking up to `timeout` when it is not zero
    /// and nothing has completed yet. Returns how many completions were
    /// appended; `0` on timeout. The whole call issues **at most one**
    /// `io_uring_enter`, and none at all with nothing to submit and a
    /// zero timeout — then it is a user-space look at the completion
    /// queue. Exactly the enters issued are charged to the platform as
    /// syscalls (and counted in `net_enter_syscalls`); queueing an
    /// operation is never one. The system actors only ever pass a zero
    /// timeout — an actor body must not block; their worker does the
    /// waiting, on [`CompletionRing::wait_fd`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on ring failure, [`NetError::TrustedDomain`]
    /// from enclave code.
    fn reap(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError>;

    /// A pollable descriptor that reads ready while completions wait
    /// to be reaped (the ring itself); same contract as
    /// [`ReadySet::wait_fd`].
    fn wait_fd(&self) -> i32;

    /// Bind the ring's counters into `registry`:
    /// `net_sqe_submitted`, `net_cqe_reaped`, `net_enter_syscalls` and
    /// the `net_uring_batch` completion-batch histogram. Rings of one
    /// deployment share the named atomics.
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}
}
