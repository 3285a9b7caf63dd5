//! The io_uring completion backend — real loopback sockets driven by a
//! submission queue instead of per-event syscalls.
//!
//! [`crate::EpollBackend`] already amortised *wakeups* (one `epoll_wait`
//! covers many ready sockets), but every ready socket still costs its
//! own `recvfrom`/`sendto`/`accept4`. This backend removes those too:
//! consumers submit the operations themselves — reads aimed directly at
//! reply-pool [`Node`] memory, accepts armed multishot — and a single
//! `io_uring_enter(2)` both flushes the whole submission batch and reaps
//! every finished completion. A reap that finds already-posted CQEs
//! costs **zero** syscalls.
//!
//! The synchronous socket operations are the shared loopback table's
//! (`table.rs`), as for every real-socket backend; only what sits
//! beneath [`crate::NetBackend::completion_ring`] differs — here a
//! [`UringRing`], the one ring that is not the `ops_ring.rs` adapter.
//!
//! # Buffer ownership
//!
//! Every submitted operation pins its resources until the CQE is
//! reaped: the [`Node`] lives in the ring's in-flight map (arena slab
//! memory is stable — `Box<[UnsafeCell<u8>]>` never moves) and the
//! `Arc<TcpStream>`/`Arc<TcpListener>` handle pins the fd against
//! close-and-reuse. That is the entire [`crate::uring_ffi::SqeBuf`]
//! contract. The table's `close` `shutdown(2)`s the socket, so pinned
//! in-flight operations complete (EOF / `EPIPE`) instead of idling
//! forever on a half-dead fd.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::sync::Arc;

use eactors::arena::Node;
use eactors::obs::{Counter, Log2Hist, MetricsRegistry};
use sgx_sim::CostHandle;

use crate::backend::{untrusted, Completion, CompletionRing, ListenerId, NetError, SocketId};
use crate::ops_ring::OpsRing;
use crate::table::{loopback_backend, SocketTable};
use crate::uring_ffi::{self, IoUringCqe, IoUringSqe, Ring, SqeBuf, IORING_CQE_F_MORE};

/// Default SQ depth per ring. 256 slots cover the deepest consumer
/// (READER: one recv per watched socket) at the benchmark's per-worker
/// fan-in; the ring flushes-and-retries transparently beyond that.
const DEFAULT_RING_ENTRIES: u32 = 256;

// Cookie layout: operation kind in the top byte, backend id below.
// Backend ids are sequential from 1 and never approach 2^56.
const K_SHIFT: u32 = 56;
const K_MASK: u64 = 0xff << K_SHIFT;
const K_RECV: u64 = 1 << K_SHIFT;
const K_SEND: u64 = 2 << K_SHIFT;
const K_ACCEPT: u64 = 3 << K_SHIFT;
const K_CANCEL: u64 = 4 << K_SHIFT;

// Negated-errno values surfaced in CQE results.
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EINVAL: i32 = 22;
const ECONNABORTED: i32 = 103;
const ECANCELED: i32 = 125;

fn os_err(negated: i32) -> NetError {
    NetError::Io(std::io::Error::from_raw_os_error(-negated))
}

/// Real loopback TCP with an io_uring completion engine.
///
/// Construction always succeeds; ring availability is only decided when
/// a consumer asks for its [`NetBackend::completion_ring`] — where the
/// kernel refuses, the consumer gets the polled adapter over the same
/// socket table — and [`UringBackend::probe`] lets callers decide up
/// front.
///
/// [`NetBackend::completion_ring`]: crate::NetBackend::completion_ring
#[derive(Debug, Clone)]
pub struct UringBackend {
    table: Arc<SocketTable>,
    /// SQ depth for rings created from this backend (tests shrink it to
    /// force flush-and-retry submission).
    ring_entries: u32,
}

impl UringBackend {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        UringBackend {
            table: SocketTable::new(costs, None),
            ring_entries: DEFAULT_RING_ENTRIES,
        }
    }

    /// Like [`UringBackend::new`], but every socket's kernel buffers are
    /// shrunk to roughly `bytes` — used by tests to force short writes.
    pub fn with_buffer_size(costs: CostHandle, bytes: usize) -> Self {
        UringBackend {
            table: SocketTable::new(costs, Some(bytes)),
            ring_entries: DEFAULT_RING_ENTRIES,
        }
    }

    /// Like [`UringBackend::new`], but rings get `entries` SQ slots —
    /// used by tests to force the full-SQ flush-and-retry path.
    pub fn with_ring_entries(costs: CostHandle, entries: u32) -> Self {
        UringBackend {
            table: SocketTable::new(costs, None),
            ring_entries: entries,
        }
    }

    /// Whether the running kernel can drive this backend (trial
    /// `io_uring_setup` plus feature and opcode checks).
    ///
    /// # Errors
    ///
    /// A human-readable reason, suitable for a fallback log line.
    pub fn probe() -> Result<(), String> {
        uring_ffi::probe()
    }
}

loopback_backend!(UringBackend, |net| {
    match UringRing::new(net.table.clone(), net.ring_entries) {
        Ok(ring) => Box::new(ring),
        Err(_) => Box::new(OpsRing::new(net.clone(), None)),
    }
});

/// An in-flight receive: the node the kernel writes into, pinned with
/// the stream whose fd the SQE names.
#[derive(Debug)]
struct InflightRecv {
    node: Node,
    offset: usize,
    _stream: Arc<TcpStream>,
}

/// An in-flight send, with resume progress for short writes.
#[derive(Debug)]
struct InflightSend {
    node: Node,
    /// First payload byte of this transmission.
    offset: usize,
    /// Bytes already acknowledged by prior (short) completions.
    sent: usize,
    _stream: Arc<TcpStream>,
}

/// An armed accept watch.
#[derive(Debug)]
struct AcceptWatch {
    listener: Arc<TcpListener>,
    /// Still trying multishot; downgraded once on `EINVAL`.
    multishot: bool,
    /// [`CompletionRing::cancel_accept`] was called — never re-arm.
    cancelled: bool,
}

/// One consumer's io_uring instance (see module docs).
#[derive(Debug)]
struct UringRing {
    table: Arc<SocketTable>,
    ring: Ring,
    recvs: HashMap<u64, InflightRecv>,
    sends: HashMap<u64, InflightSend>,
    accepts: HashMap<u64, AcceptWatch>,
    /// SQEs that did not fit the SQ even after a flush (kernel EAGAIN);
    /// drained FIFO so kernel-observed submission order is preserved.
    backlog: VecDeque<IoUringSqe>,
    sqe_submitted: Arc<Counter>,
    cqe_reaped: Arc<Counter>,
    enter_syscalls: Arc<Counter>,
    batch_hist: Arc<Log2Hist>,
}

impl UringRing {
    fn new(table: Arc<SocketTable>, entries: u32) -> std::io::Result<Self> {
        let ring = Ring::new(entries)?;
        Ok(UringRing {
            table,
            ring,
            recvs: HashMap::new(),
            sends: HashMap::new(),
            accepts: HashMap::new(),
            backlog: VecDeque::new(),
            sqe_submitted: Arc::new(Counter::new()),
            cqe_reaped: Arc::new(Counter::new()),
            enter_syscalls: Arc::new(Counter::new()),
            batch_hist: Arc::new(Log2Hist::new()),
        })
    }

    /// Queue one SQE, preserving FIFO order past a full SQ.
    fn queue_sqe(&mut self, sqe: IoUringSqe) {
        if self.backlog.is_empty() && self.ring.push(&sqe) {
            return;
        }
        self.backlog.push_back(sqe);
        self.pump_backlog();
    }

    /// Move backlogged SQEs into the SQ, flushing (one submit-only
    /// enter frees every slot) when it fills. Leftovers stay queued for
    /// the next reap — a torn submission loses nothing.
    fn pump_backlog(&mut self) {
        while let Some(sqe) = self.backlog.front() {
            if self.ring.push(sqe) {
                self.backlog.pop_front();
                continue;
            }
            match self.enter() {
                Ok(0) | Err(_) => return, // kernel EAGAIN/EBUSY or a ring error; the next reap retries
                Ok(_) => {}
            }
        }
    }

    /// The one place this ring enters the kernel: every
    /// `io_uring_enter` is charged as a syscall and counted, and nothing
    /// else is.
    fn enter(&mut self) -> std::io::Result<u32> {
        self.table.charge_syscall();
        self.enter_syscalls.inc();
        let consumed = self.ring.enter()?;
        self.sqe_submitted.add(u64::from(consumed));
        Ok(consumed)
    }

    /// (Re-)arm the accept submission for `id` using the watch's current
    /// multishot mode. Cancelled watches are dropped instead.
    fn arm_accept(&mut self, id: u64) {
        let Some(watch) = self.accepts.get(&id) else {
            return;
        };
        if watch.cancelled {
            self.accepts.remove(&id);
            return;
        }
        let sqe = IoUringSqe::accept(watch.listener.as_raw_fd(), watch.multishot, K_ACCEPT | id);
        self.queue_sqe(sqe);
    }

    /// Build the receive SQE for an in-flight entry (initial submission
    /// and the `EINTR`/`EAGAIN` resubmission share it).
    fn recv_sqe(&mut self, id: u64) -> IoUringSqe {
        let fl = self.recvs.get_mut(&id).expect("in-flight recv exists");
        let size = fl.node.arena().payload_size();
        let buf = SqeBuf {
            // Safety contract of SqeBuf: the node sits in `self.recvs`
            // until its CQE is reaped, and arena slabs never move.
            ptr: unsafe { fl.node.buffer_mut().as_mut_ptr().add(fl.offset) },
            len: (size - fl.offset) as u32,
        };
        IoUringSqe::recv(fl._stream.as_raw_fd(), buf, K_RECV | id)
    }

    /// Build the (re)send SQE for an in-flight entry at its current
    /// resume position.
    fn send_sqe(&self, id: u64) -> IoUringSqe {
        let fl = self.sends.get(&id).expect("in-flight send exists");
        let bytes = fl.node.bytes();
        let pos = fl.offset + fl.sent;
        let buf = SqeBuf {
            // Safety contract of SqeBuf: pinned in `self.sends` until
            // the final CQE.
            ptr: unsafe { bytes.as_ptr().add(pos).cast_mut() },
            len: (bytes.len() - pos) as u32,
        };
        IoUringSqe::send(fl._stream.as_raw_fd(), buf, K_SEND | id)
    }

    /// Drain every posted CQE (zero syscalls), returning how many were
    /// processed.
    fn drain_cq(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut n = 0;
        while let Some(cqe) = self.ring.pop_cqe() {
            n += 1;
            self.process_cqe(cqe, out);
        }
        n
    }

    fn process_cqe(&mut self, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let id = cqe.user_data & !K_MASK;
        match cqe.user_data & K_MASK {
            // ASYNC_CANCEL's own result (0 / -ENOENT / -EALREADY) says
            // nothing the target's CQE does not; ignore it.
            K_CANCEL => {}
            K_RECV => self.on_recv_cqe(id, cqe, out),
            K_SEND => self.on_send_cqe(id, cqe, out),
            K_ACCEPT => self.on_accept_cqe(id, cqe, out),
            _ => {}
        }
    }

    fn on_recv_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        if !self.recvs.contains_key(&id) {
            return;
        }
        if cqe.res < 0 && matches!(-cqe.res, EINTR | EAGAIN) {
            // io_uring normally parks nonblocking socket ops internally,
            // but a spurious EAGAIN is harmless to resubmit.
            let sqe = self.recv_sqe(id);
            self.queue_sqe(sqe);
            return;
        }
        let fl = self.recvs.remove(&id).expect("checked above");
        let result = match cqe.res {
            n if n >= 0 => Ok(n as usize),
            n if -n == ECANCELED => Err(NetError::Canceled),
            n => Err(os_err(n)),
        };
        out.push(Completion::Recv {
            socket: id,
            node: fl.node,
            offset: fl.offset,
            result,
        });
    }

    fn on_send_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let Some(fl) = self.sends.get_mut(&id) else {
            return;
        };
        if cqe.res > 0 {
            fl.sent += cqe.res as usize;
            if fl.offset + fl.sent < fl.node.len() {
                // Short write: resume from the new position inside the
                // ring — the consumer only ever sees full transmissions.
                let sqe = self.send_sqe(id);
                self.queue_sqe(sqe);
                return;
            }
            let fl = self.sends.remove(&id).expect("checked above");
            out.push(Completion::Sent {
                socket: id,
                node: fl.node,
                result: Ok(()),
            });
            return;
        }
        if cqe.res == 0 || matches!(-cqe.res, EINTR | EAGAIN) {
            let sqe = self.send_sqe(id);
            self.queue_sqe(sqe);
            return;
        }
        let fl = self.sends.remove(&id).expect("checked above");
        out.push(Completion::Sent {
            socket: id,
            node: fl.node,
            result: Err(os_err(cqe.res)),
        });
    }

    fn on_accept_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let Some(watch) = self.accepts.get_mut(&id) else {
            // Watch already dropped; a raced-in connection would leak
            // its fd — close it.
            if cqe.res >= 0 {
                drop(unsafe { TcpStream::from_raw_fd(cqe.res) });
            }
            return;
        };
        let cancelled = watch.cancelled;
        let still_armed = cqe.flags & IORING_CQE_F_MORE != 0;
        if cqe.res >= 0 {
            // Safety: a successful accept CQE transfers ownership of a
            // fresh fd; `adopt` (or the drop below) closes it once.
            let stream = unsafe { TcpStream::from_raw_fd(cqe.res) };
            if let Ok(socket) = self.table.adopt(stream) {
                out.push(Completion::Accepted {
                    listener: id,
                    socket,
                });
            }
            if cancelled {
                self.accepts.remove(&id);
            } else if !still_armed {
                self.arm_accept(id);
            }
            return;
        }
        if cancelled {
            self.accepts.remove(&id);
            return;
        }
        match -cqe.res {
            EINVAL if watch.multishot => {
                // Pre-5.19 kernel: downgrade to oneshot and re-arm.
                watch.multishot = false;
                self.arm_accept(id);
            }
            // Transient per-connection failures; the listener is fine.
            ECONNABORTED | EINTR | EAGAIN | ECANCELED => self.arm_accept(id),
            _ => {
                self.accepts.remove(&id);
                out.push(Completion::AcceptFailed { listener: id });
            }
        }
    }
}

impl CompletionRing for UringRing {
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError> {
        untrusted()?;
        if let Some(watch) = self.accepts.get_mut(&listener.0) {
            watch.cancelled = false; // re-accept before the cancel landed
            return Ok(());
        }
        let l = self.table.listener(listener)?;
        self.accepts.insert(
            listener.0,
            AcceptWatch {
                listener: l,
                multishot: true,
                cancelled: false,
            },
        );
        self.arm_accept(listener.0);
        Ok(())
    }

    fn cancel_accept(&mut self, listener: ListenerId) {
        if let Some(watch) = self.accepts.get_mut(&listener.0) {
            if watch.cancelled {
                return;
            }
            watch.cancelled = true;
            let sqe = IoUringSqe::cancel(K_ACCEPT | listener.0, K_CANCEL | listener.0);
            self.queue_sqe(sqe);
        }
    }

    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = untrusted() {
            return Err((e, node));
        }
        if self.recvs.contains_key(&socket.0) {
            return Err((NetError::WouldBlock, node));
        }
        if offset >= node.arena().payload_size() {
            debug_assert!(false, "recv_into offset leaves no room");
            return Err((NetError::WouldBlock, node));
        }
        let stream = match self.table.socket(socket) {
            Ok(s) => s,
            Err(e) => return Err((e, node)),
        };
        self.recvs.insert(
            socket.0,
            InflightRecv {
                node,
                offset,
                _stream: stream,
            },
        );
        let sqe = self.recv_sqe(socket.0);
        self.queue_sqe(sqe);
        Ok(())
    }

    fn cancel_recv(&mut self, socket: SocketId) {
        if self.recvs.contains_key(&socket.0) {
            let sqe = IoUringSqe::cancel(K_RECV | socket.0, K_CANCEL | socket.0);
            self.queue_sqe(sqe);
        }
    }

    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = untrusted() {
            return Err((e, node));
        }
        if self.sends.contains_key(&socket.0) {
            return Err((NetError::WouldBlock, node));
        }
        if offset >= node.len() {
            debug_assert!(false, "send_node with nothing to send");
            return Err((NetError::WouldBlock, node));
        }
        let stream = match self.table.socket(socket) {
            Ok(s) => s,
            Err(e) => return Err((e, node)),
        };
        self.sends.insert(
            socket.0,
            InflightSend {
                node,
                offset,
                sent: 0,
                _stream: stream,
            },
        );
        let sqe = self.send_sqe(socket.0);
        self.queue_sqe(sqe);
        Ok(())
    }

    fn reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, NetError> {
        untrusted()?;
        self.pump_backlog();
        let before = out.len();
        // Phase 1: already-posted completions — zero syscalls.
        let mut raw = self.drain_cq(out);
        // Phase 2: at most one enter, and only when it has something to
        // do — submissions to flush or overflowed CQEs to fetch.
        if self.ring.pending_submissions() > 0 || self.ring.cq_overflowed() {
            self.enter().map_err(NetError::Io)?;
            raw += self.drain_cq(out);
        }
        if raw > 0 {
            self.cqe_reaped.add(raw as u64);
            self.batch_hist.record(raw as u64);
        }
        Ok(out.len() - before)
    }

    fn wait_fd(&self) -> Option<i32> {
        Some(self.ring.raw_fd())
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        // register_counter returns the previously registered atomic when
        // the name is taken — rings of one deployment share counters.
        self.sqe_submitted =
            registry.register_counter("net_sqe_submitted", self.sqe_submitted.clone());
        self.cqe_reaped = registry.register_counter("net_cqe_reaped", self.cqe_reaped.clone());
        self.enter_syscalls =
            registry.register_counter("net_enter_syscalls", self.enter_syscalls.clone());
        self.batch_hist = registry.hist("net_uring_batch");
    }
}
