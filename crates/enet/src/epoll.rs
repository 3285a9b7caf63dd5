//! Edge-triggered readiness backend over Linux `epoll(7)`.
//!
//! The sockets are the shared loopback table's (`table.rs`); what this
//! backend adds is the trigger beneath its completion ring. Each ring
//! owns one epoll instance ([`EpollEdges`]) and the adapter in
//! `ops_ring.rs` retries only the in-flight operations whose socket an
//! edge fired for — one `epoll_wait` per reap instead of one `recv` per
//! watched socket. The epoll instance is itself pollable (readable while
//! its ready list is not empty), so it is the ring's `wait_fd`: the
//! consumer's worker sleeps on it beside the mboxes.
//!
//! A socket is registered the first time an operation on it finds it not
//! ready and stays registered across operations, so the steady state of
//! a watched socket costs no `epoll_ctl` at all (why no edge is lost:
//! `ops_ring.rs`). The registration holds an [`Arc`] on the stream, which
//! keeps the fd number from being recycled while the kernel still knows
//! it under this socket's cookie; the adapter forgets it when a receive
//! reports EOF or an error, on cancellation, or when a hang-up edge finds
//! nothing in flight.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

use sgx_sim::CostHandle;

use crate::backend::{CompletionRing, ListenerId, NetError, SocketId};
use crate::ffi;
use crate::ops_ring::{Edge, Edges, OpsRing, Source};
use crate::table::{loopback_backend, SocketTable};

/// Epoll-event cookie tag marking a listener id (socket ids are
/// sequential and never reach this bit).
const LISTENER_TAG: u64 = 1 << 63;
/// Stack batch size for one `epoll_wait`; truncated events stay on the
/// kernel's ready list and surface on the next wait.
const WAIT_BATCH: usize = 64;

/// Real loopback TCP with edge-triggered `epoll` readiness.
#[derive(Debug, Clone)]
pub struct EpollBackend {
    table: Arc<SocketTable>,
}

impl EpollBackend {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        EpollBackend {
            table: SocketTable::new(costs, None),
        }
    }

    /// Like [`EpollBackend::new`], but every socket's kernel send and
    /// receive buffers are shrunk to roughly `bytes` — the conformance
    /// suite uses this to force partial writes with small payloads.
    pub fn with_buffer_size(costs: CostHandle, bytes: usize) -> Self {
        EpollBackend {
            table: SocketTable::new(costs, Some(bytes)),
        }
    }
}

loopback_backend!(EpollBackend, |net| {
    // Without an epoll instance the ring still works: it polls.
    let edges = EpollEdges::new(net.table.clone()).ok();
    let edges = edges.map(|e| Box::new(e) as Box<dyn Edges>);
    Box::new(OpsRing::new(net.clone(), edges)) as Box<dyn CompletionRing>
});

/// One ring's epoll instance (see module docs).
#[derive(Debug)]
struct EpollEdges {
    table: Arc<SocketTable>,
    epfd: ffi::OwnedFd,
    /// Registered streams with their current event mask.
    sockets: HashMap<u64, (Arc<TcpStream>, u32)>,
    listeners: HashMap<u64, Arc<TcpListener>>,
}

impl EpollEdges {
    fn new(table: Arc<SocketTable>) -> std::io::Result<Self> {
        Ok(EpollEdges {
            table,
            epfd: ffi::epoll_create()?,
            sockets: HashMap::new(),
            listeners: HashMap::new(),
        })
    }

    fn del(&self, fd: i32) {
        self.table.charge_syscall();
        ffi::epoll_del(&self.epfd, fd);
    }
}

impl Edges for EpollEdges {
    fn watch(&mut self, source: Source, write: bool) -> Result<(), NetError> {
        let mask = if write {
            ffi::EPOLLOUT | ffi::EPOLLET
        } else {
            ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLET
        };
        match source {
            Source::Socket(id) => {
                if let Some((stream, cur)) = self.sockets.get_mut(&id) {
                    if *cur & mask != mask {
                        self.table.syscall()?;
                        ffi::epoll_mod(&self.epfd, stream.as_raw_fd(), *cur | mask, id)?;
                        *cur |= mask;
                    }
                    return Ok(());
                }
                let stream = self.table.socket(SocketId(id))?;
                self.table.syscall()?;
                ffi::epoll_add(&self.epfd, stream.as_raw_fd(), mask, id)?;
                self.sockets.insert(id, (stream, mask));
            }
            Source::Listener(id) => {
                if !self.listeners.contains_key(&id) {
                    let listener = self.table.listener(ListenerId(id))?;
                    self.table.syscall()?;
                    ffi::epoll_add(&self.epfd, listener.as_raw_fd(), mask, id | LISTENER_TAG)?;
                    self.listeners.insert(id, listener);
                }
            }
        }
        Ok(())
    }

    fn forget(&mut self, source: Source) {
        // Delete while the handle still pins the fd number.
        match source {
            Source::Socket(id) => {
                if let Some((stream, _)) = self.sockets.remove(&id) {
                    self.del(stream.as_raw_fd());
                }
            }
            Source::Listener(id) => {
                if let Some(listener) = self.listeners.remove(&id) {
                    self.del(listener.as_raw_fd());
                }
            }
        }
    }

    fn harvest(&mut self, fired: &mut Vec<Edge>) -> Result<(), NetError> {
        self.table.syscall()?;
        let mut raw = [ffi::EpollEvent::zeroed(); WAIT_BATCH];
        let n = ffi::epoll_wait_into(&self.epfd, &mut raw)?;
        fired.extend(raw[..n].iter().map(|ev| {
            let (mask, data) = (ev.events, ev.data);
            let dead = mask & (ffi::EPOLLHUP | ffi::EPOLLERR) != 0;
            Edge {
                source: if data & LISTENER_TAG != 0 {
                    Source::Listener(data & !LISTENER_TAG)
                } else {
                    Source::Socket(data)
                },
                readable: dead || mask & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                writable: dead || mask & ffi::EPOLLOUT != 0,
                dead,
            }
        }));
        Ok(())
    }

    fn wait_fd(&self) -> i32 {
        self.epfd.raw()
    }
}
