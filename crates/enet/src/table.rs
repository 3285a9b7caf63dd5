//! The loopback socket table every real-socket backend wraps.
//!
//! [`crate::TcpLoopback`], `EpollBackend` and `UringBackend` serve the
//! same `std::net` sockets on 127.0.0.1 through the same seven
//! [`crate::NetBackend`] operations; this is their one definition. The
//! backends differ only in the [`crate::CompletionRing`] they put on top.
//!
//! # Locking discipline
//!
//! The id→socket maps are behind mutexes, but no lock is ever held
//! across a kernel syscall: handles are stored as [`Arc`]s and cloned
//! out under the lock, then the guard is dropped before `read`/`write`/
//! `accept` run. One peer stalling in the kernel therefore cannot
//! serialize the other network actors. A ring may hold further clones of
//! a stream (an io_uring operation in flight, an epoll registration), so
//! the fd number cannot be recycled under it; [`SocketTable::close`]
//! therefore shuts the connection down before dropping the table's
//! handle — the peer sees EOF at once and those operations complete,
//! whoever still pins the descriptor.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_sim::sync::Mutex;
use sgx_sim::CostHandle;

use crate::backend::{untrusted, ListenerId, NetError, RecvOutcome, SocketId};
use crate::ioutil::retry_intr;

/// Non-blocking TCP sockets bound to 127.0.0.1, by backend id.
///
/// The `port` passed to `listen`/`connect` is a *logical* port; the OS
/// assigns an ephemeral port and the mapping is kept here, so tests never
/// collide with other processes.
#[derive(Debug)]
pub(crate) struct SocketTable {
    costs: CostHandle,
    next_id: AtomicU64,
    /// id -> (listener, logical port) — the port rides along so
    /// `close_listener` can free the logical mapping.
    listeners: Mutex<HashMap<u64, (Arc<TcpListener>, u16)>>,
    ports: Mutex<HashMap<u16, u16>>, // logical port -> OS port
    sockets: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Forced kernel buffer size for new sockets (tests use a small one
    /// to provoke short writes).
    #[cfg(target_os = "linux")]
    buf_bytes: Option<usize>,
}

impl SocketTable {
    /// An empty table charging syscalls through `costs`; `buf_bytes`
    /// shrinks every socket's kernel send and receive buffers to roughly
    /// that size (Linux only).
    pub(crate) fn new(costs: CostHandle, buf_bytes: Option<usize>) -> Arc<Self> {
        #[cfg(not(target_os = "linux"))]
        let _ = buf_bytes;
        Arc::new(SocketTable {
            costs,
            next_id: AtomicU64::new(1),
            listeners: Mutex::new(HashMap::new()),
            ports: Mutex::new(HashMap::new()),
            sockets: Mutex::new(HashMap::new()),
            #[cfg(target_os = "linux")]
            buf_bytes,
        })
    }

    /// One real system call is about to be issued on behalf of untrusted
    /// code: refuse enclave callers, then charge it.
    pub(crate) fn syscall(&self) -> Result<(), NetError> {
        untrusted()?;
        self.costs.charge_syscall();
        Ok(())
    }

    /// Charge a system call whose caller already passed [`untrusted`].
    #[cfg(target_os = "linux")]
    pub(crate) fn charge_syscall(&self) {
        self.costs.charge_syscall();
    }

    /// The stream behind `id`, pinned for as long as the clone lives.
    pub(crate) fn socket(&self, id: SocketId) -> Result<Arc<TcpStream>, NetError> {
        self.sockets
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(NetError::BadSocket)
    }

    /// The listener behind `id`, pinned for as long as the clone lives.
    pub(crate) fn listener(&self, id: ListenerId) -> Result<Arc<TcpListener>, NetError> {
        self.listeners
            .lock()
            .get(&id.0)
            .map(|(l, _)| l.clone())
            .ok_or(NetError::BadSocket)
    }

    /// Take a connected stream into the table: non-blocking, no Nagle,
    /// the forced buffer size if one is set.
    pub(crate) fn adopt(&self, stream: TcpStream) -> Result<u64, NetError> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        #[cfg(target_os = "linux")]
        if let Some(bytes) = self.buf_bytes {
            use std::os::unix::io::AsRawFd;
            crate::ffi::set_buf_sizes(stream.as_raw_fd(), bytes)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, Arc::new(stream));
        Ok(id)
    }

    pub(crate) fn listen(&self, port: u16) -> Result<ListenerId, NetError> {
        self.syscall()?;
        let mut ports = self.ports.lock();
        if ports.contains_key(&port) {
            return Err(NetError::PortInUse(port));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let os_port = listener.local_addr()?.port();
        ports.insert(port, os_port);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.listeners.lock().insert(id, (Arc::new(listener), port));
        Ok(ListenerId(id))
    }

    pub(crate) fn connect(&self, port: u16) -> Result<SocketId, NetError> {
        self.syscall()?;
        let os_port = *self
            .ports
            .lock()
            .get(&port)
            .ok_or(NetError::ConnectionRefused(port))?;
        let stream = retry_intr(|| TcpStream::connect((Ipv4Addr::LOCALHOST, os_port)))
            .map_err(|_| NetError::ConnectionRefused(port))?;
        self.adopt(stream).map(SocketId)
    }

    pub(crate) fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError> {
        self.syscall()?;
        let l = self.listener(listener)?;
        match retry_intr(|| l.accept()) {
            Ok((stream, _)) => self.adopt(stream).map(|id| Some(SocketId(id))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    pub(crate) fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError> {
        self.syscall()?;
        let s = self.socket(socket)?;
        match retry_intr(|| (&*s).write(data)) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    pub(crate) fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError> {
        self.syscall()?;
        let s = self.socket(socket)?;
        match retry_intr(|| (&*s).read(buf)) {
            Ok(0) => Ok(RecvOutcome::Eof),
            Ok(n) => Ok(RecvOutcome::Data(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(RecvOutcome::WouldBlock),
            Err(e) => Err(e.into()),
        }
    }

    pub(crate) fn close(&self, socket: SocketId) -> Result<(), NetError> {
        self.syscall()?;
        let stream = self
            .sockets
            .lock()
            .remove(&socket.0)
            .ok_or(NetError::BadSocket)?;
        // A ring may pin the fd past this call (see the module docs):
        // the shutdown is what the peer and those operations observe.
        let _ = stream.shutdown(Shutdown::Both);
        Ok(())
    }

    pub(crate) fn close_listener(&self, listener: ListenerId) -> Result<(), NetError> {
        self.syscall()?;
        let (_listener, logical_port) = self
            .listeners
            .lock()
            .remove(&listener.0)
            .ok_or(NetError::BadSocket)?;
        // Free the logical port mapping so the port can be re-listened.
        self.ports.lock().remove(&logical_port);
        Ok(())
    }
}

/// Implement [`crate::NetBackend`] for a backend that wraps an
/// `Arc<SocketTable>` in its `table` field: the seven socket operations
/// are the table's, `completion_ring` is `$ring` applied to the backend.
macro_rules! loopback_backend {
    ($backend:ty, $ring:expr) => {
        impl $crate::backend::NetBackend for $backend {
            fn listen(&self, port: u16) -> Result<$crate::ListenerId, $crate::NetError> {
                self.table.listen(port)
            }
            fn connect(&self, port: u16) -> Result<$crate::SocketId, $crate::NetError> {
                self.table.connect(port)
            }
            fn accept(
                &self,
                listener: $crate::ListenerId,
            ) -> Result<Option<$crate::SocketId>, $crate::NetError> {
                self.table.accept(listener)
            }
            fn send(
                &self,
                socket: $crate::SocketId,
                data: &[u8],
            ) -> Result<usize, $crate::NetError> {
                self.table.send(socket, data)
            }
            fn recv(
                &self,
                socket: $crate::SocketId,
                buf: &mut [u8],
            ) -> Result<$crate::RecvOutcome, $crate::NetError> {
                self.table.recv(socket, buf)
            }
            fn close(&self, socket: $crate::SocketId) -> Result<(), $crate::NetError> {
                self.table.close(socket)
            }
            fn close_listener(&self, listener: $crate::ListenerId) -> Result<(), $crate::NetError> {
                self.table.close_listener(listener)
            }
            fn completion_ring(&self) -> Box<dyn $crate::CompletionRing> {
                let ring: fn(&$backend) -> Box<dyn $crate::CompletionRing> = $ring;
                ring(self)
            }
        }
    };
}
pub(crate) use loopback_backend;
