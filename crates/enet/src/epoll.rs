//! Edge-triggered readiness backend over Linux `epoll(7)`.
//!
//! Same socket contract as [`crate::TcpLoopback`] (real `std::net`
//! loopback sockets, logical-port indirection, no lock held across a
//! syscall), plus the [`ReadySet`] readiness API so the READER/WRITER
//! system actors can sleep in `epoll_wait` instead of polling every
//! watched socket each pass.
//!
//! # Readiness model
//!
//! Every consumer gets its **own** epoll instance from
//! [`NetBackend::ready_set`] — a READER watching a socket for input and
//! a WRITER watching the same socket for output never steal each
//! other's events. Watches are edge-triggered (`EPOLLET`): an event
//! means "state changed, drain until `WouldBlock`". Consumers must
//! treat a fresh watch as ready once, which also closes the race where
//! an edge fires before the watch exists (`EPOLL_CTL_ADD` of an
//! already-ready fd queues an event immediately).
//!
//! The consumers never sleep in [`ReadySet::wait_ready`]: an epoll
//! instance is itself pollable (readable while its ready list is not
//! empty), so each consumer declares [`ReadySet::wait_fd`] to its worker
//! and the worker's one park covers it beside the mboxes.
//!
//! A set holds an [`Arc`] on every stream it watches, so a racing
//! `close` cannot recycle an fd number that is still registered; the fd
//! actually closes (and drops out of the epoll set) when the last
//! holder lets go.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sgx_sim::sync::Mutex;
use sgx_sim::{current_domain, CostHandle};

use crate::backend::{
    Interest, ListenerId, NetBackend, NetError, ReadyEvent, ReadySet, RecvOutcome, SocketId,
};
use crate::ffi;
use crate::ioutil::retry_intr;

/// Epoll-event cookie tag marking a listener id (socket ids are
/// sequential and never reach this bit).
const LISTENER_TAG: u64 = 1 << 63;
/// Stack batch size for one `epoll_wait`; truncated events stay on the
/// kernel's ready list and surface on the next wait.
const WAIT_BATCH: usize = 64;

/// Real loopback TCP with edge-triggered `epoll` readiness.
#[derive(Debug, Clone)]
pub struct EpollBackend {
    inner: Arc<EpollInner>,
}

#[derive(Debug)]
struct EpollInner {
    costs: CostHandle,
    next_id: AtomicU64,
    listeners: Mutex<HashMap<u64, (Arc<TcpListener>, u16)>>,
    ports: Mutex<HashMap<u16, u16>>, // logical port -> OS port
    sockets: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Forced kernel buffer size for new sockets (tests use a small one
    /// to provoke short writes).
    buf_bytes: Option<usize>,
}

impl EpollInner {
    fn syscall(&self) -> Result<(), NetError> {
        if current_domain().is_trusted() {
            return Err(NetError::TrustedDomain);
        }
        self.costs.charge_syscall();
        Ok(())
    }

    fn socket(&self, id: SocketId) -> Result<Arc<TcpStream>, NetError> {
        self.sockets
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(NetError::BadSocket)
    }

    fn adopt(&self, stream: TcpStream) -> Result<u64, NetError> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        if let Some(bytes) = self.buf_bytes {
            ffi::set_buf_sizes(stream.as_raw_fd(), bytes)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, Arc::new(stream));
        Ok(id)
    }
}

impl EpollBackend {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        Self::build(costs, None)
    }

    /// Like [`EpollBackend::new`], but every socket's kernel send and
    /// receive buffers are shrunk to roughly `bytes` — the conformance
    /// suite uses this to force partial writes with small payloads.
    pub fn with_buffer_size(costs: CostHandle, bytes: usize) -> Self {
        Self::build(costs, Some(bytes))
    }

    fn build(costs: CostHandle, buf_bytes: Option<usize>) -> Self {
        EpollBackend {
            inner: Arc::new(EpollInner {
                costs,
                next_id: AtomicU64::new(1),
                listeners: Mutex::new(HashMap::new()),
                ports: Mutex::new(HashMap::new()),
                sockets: Mutex::new(HashMap::new()),
                buf_bytes,
            }),
        }
    }
}

impl NetBackend for EpollBackend {
    fn listen(&self, port: u16) -> Result<ListenerId, NetError> {
        self.inner.syscall()?;
        let mut ports = self.inner.ports.lock();
        if ports.contains_key(&port) {
            return Err(NetError::PortInUse(port));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let os_port = listener.local_addr()?.port();
        ports.insert(port, os_port);
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .listeners
            .lock()
            .insert(id, (Arc::new(listener), port));
        Ok(ListenerId(id))
    }

    fn connect(&self, port: u16) -> Result<SocketId, NetError> {
        self.inner.syscall()?;
        let os_port = *self
            .inner
            .ports
            .lock()
            .get(&port)
            .ok_or(NetError::ConnectionRefused(port))?;
        let stream = retry_intr(|| TcpStream::connect((Ipv4Addr::LOCALHOST, os_port)))
            .map_err(|_| NetError::ConnectionRefused(port))?;
        self.inner.adopt(stream).map(SocketId)
    }

    fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError> {
        self.inner.syscall()?;
        let l = self
            .inner
            .listeners
            .lock()
            .get(&listener.0)
            .map(|(l, _)| l.clone())
            .ok_or(NetError::BadSocket)?;
        match retry_intr(|| l.accept()) {
            Ok((stream, _)) => self.inner.adopt(stream).map(|id| Some(SocketId(id))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError> {
        self.inner.syscall()?;
        let s = self.inner.socket(socket)?;
        match retry_intr(|| (&*s).write(data)) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError> {
        self.inner.syscall()?;
        let s = self.inner.socket(socket)?;
        match retry_intr(|| (&*s).read(buf)) {
            Ok(0) => Ok(RecvOutcome::Eof),
            Ok(n) => Ok(RecvOutcome::Data(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(RecvOutcome::WouldBlock),
            Err(e) => Err(e.into()),
        }
    }

    fn close(&self, socket: SocketId) -> Result<(), NetError> {
        self.inner.syscall()?;
        self.inner
            .sockets
            .lock()
            .remove(&socket.0)
            .map(drop)
            .ok_or(NetError::BadSocket)
    }

    fn close_listener(&self, listener: ListenerId) -> Result<(), NetError> {
        self.inner.syscall()?;
        let (_listener, logical_port) = self
            .inner
            .listeners
            .lock()
            .remove(&listener.0)
            .ok_or(NetError::BadSocket)?;
        self.inner.ports.lock().remove(&logical_port);
        Ok(())
    }

    fn ready_set(&self) -> Option<Box<dyn ReadySet>> {
        EpollSet::new(self.inner.clone())
            .ok()
            .map(|s| Box::new(s) as Box<dyn ReadySet>)
    }
}

/// One consumer's epoll instance (see module docs).
#[derive(Debug)]
struct EpollSet {
    inner: Arc<EpollInner>,
    epfd: ffi::OwnedFd,
    /// Watched streams with their current event mask. Holding the `Arc`
    /// pins the fd for the lifetime of the watch (no fd-number reuse
    /// while registered).
    watched: HashMap<u64, (Arc<TcpStream>, u32)>,
    watched_listeners: HashMap<u64, Arc<TcpListener>>,
}

impl EpollSet {
    fn new(inner: Arc<EpollInner>) -> std::io::Result<Self> {
        Ok(EpollSet {
            inner,
            epfd: ffi::epoll_create()?,
            watched: HashMap::new(),
            watched_listeners: HashMap::new(),
        })
    }
}

impl ReadySet for EpollSet {
    fn watch(&mut self, socket: SocketId, interest: Interest) -> Result<(), NetError> {
        self.inner.syscall()?;
        let mask = match interest {
            Interest::Read => ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLET,
            Interest::Write => ffi::EPOLLOUT | ffi::EPOLLET,
        };
        if let Some((stream, cur)) = self.watched.get_mut(&socket.0) {
            let merged = *cur | mask;
            ffi::epoll_mod(&self.epfd, stream.as_raw_fd(), merged, socket.0)?;
            *cur = merged;
            return Ok(());
        }
        let stream = self.inner.socket(socket)?;
        ffi::epoll_add(&self.epfd, stream.as_raw_fd(), mask, socket.0)?;
        self.watched.insert(socket.0, (stream, mask));
        Ok(())
    }

    fn unwatch(&mut self, socket: SocketId) {
        if let Some((stream, _)) = self.watched.remove(&socket.0) {
            ffi::epoll_del(&self.epfd, stream.as_raw_fd());
        }
    }

    fn watch_listener(&mut self, listener: ListenerId) -> Result<(), NetError> {
        self.inner.syscall()?;
        if self.watched_listeners.contains_key(&listener.0) {
            return Ok(());
        }
        let l = self
            .inner
            .listeners
            .lock()
            .get(&listener.0)
            .map(|(l, _)| l.clone())
            .ok_or(NetError::BadSocket)?;
        ffi::epoll_add(
            &self.epfd,
            l.as_raw_fd(),
            ffi::EPOLLIN | ffi::EPOLLET,
            listener.0 | LISTENER_TAG,
        )?;
        self.watched_listeners.insert(listener.0, l);
        Ok(())
    }

    fn unwatch_listener(&mut self, listener: ListenerId) {
        if let Some(l) = self.watched_listeners.remove(&listener.0) {
            ffi::epoll_del(&self.epfd, l.as_raw_fd());
        }
    }

    fn wait_ready(
        &mut self,
        events: &mut [ReadyEvent],
        timeout: Option<Duration>,
    ) -> Result<usize, NetError> {
        self.inner.syscall()?;
        let mut raw = [ffi::EpollEvent::zeroed(); WAIT_BATCH];
        let cap = raw.len().min(events.len());
        if cap == 0 {
            return Ok(0);
        }
        let n = ffi::epoll_wait_into(&self.epfd, &mut raw[..cap], timeout)?;
        for (out, ev) in events.iter_mut().zip(&raw[..n]) {
            let (mask, data) = (ev.events, ev.data);
            *out = ReadyEvent {
                id: data & !LISTENER_TAG,
                listener: data & LISTENER_TAG != 0,
                readable: mask & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                writable: mask & ffi::EPOLLOUT != 0,
                hup: mask & (ffi::EPOLLHUP | ffi::EPOLLERR) != 0,
            };
        }
        Ok(n)
    }

    fn wait_fd(&self) -> i32 {
        self.epfd.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{CostModel, Platform};
    use std::time::Instant;

    fn net() -> EpollBackend {
        EpollBackend::new(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        )
    }

    fn accept_one(n: &EpollBackend, l: ListenerId) -> SocketId {
        loop {
            if let Some(s) = n.accept(l).unwrap() {
                break s;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn readiness_reports_data_arrival() {
        let n = net();
        let l = n.listen(1).unwrap();
        let c = n.connect(1).unwrap();
        let s = accept_one(&n, l);

        let mut set = n.ready_set().expect("epoll backend has readiness");
        set.watch(s, Interest::Read).unwrap();

        let mut events = [ReadyEvent {
            id: 0,
            listener: false,
            readable: false,
            writable: false,
            hup: false,
        }; 8];
        // Nothing sent yet: drain any spurious initial state first.
        while set
            .wait_ready(&mut events, Some(Duration::from_millis(1)))
            .unwrap()
            > 0
        {}

        assert!(n.send(c, b"ping").unwrap() > 0);
        let got = set
            .wait_ready(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(got >= 1, "edge for arrived data");
        assert_eq!(events[0].id, s.0);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(4));
    }

    #[test]
    fn listener_readiness_fires_on_pending_connection() {
        let n = net();
        let l = n.listen(2).unwrap();
        let mut set = n.ready_set().unwrap();
        set.watch_listener(l).unwrap();

        let _c = n.connect(2).unwrap();
        let mut events = [ReadyEvent {
            id: 0,
            listener: false,
            readable: false,
            writable: false,
            hup: false,
        }; 8];
        let got = set
            .wait_ready(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(got >= 1);
        assert!(events[0].listener);
        assert_eq!(events[0].id, l.0);
        assert!(n.accept(l).unwrap().is_some());
    }

    #[test]
    fn the_set_itself_polls_readable_while_events_are_pending() {
        let n = net();
        let l = n.listen(4).unwrap();
        let c = n.connect(4).unwrap();
        let s = accept_one(&n, l);
        let mut set = n.ready_set().unwrap();
        set.watch(s, Interest::Read).unwrap();
        let mut events = [ReadyEvent::default(); 8];
        while set.wait_ready(&mut events, Some(Duration::ZERO)).unwrap() > 0 {}

        // An outer epoll over the set's descriptor stands in for the
        // worker's wait.
        let outer = ffi::epoll_create().unwrap();
        ffi::epoll_add(&outer, set.wait_fd(), ffi::EPOLLIN, 1).unwrap();
        let mut raw = [ffi::EpollEvent::zeroed(); 2];
        let quiet = ffi::epoll_wait_into(&outer, &mut raw, Some(Duration::from_millis(1)));
        assert_eq!(quiet.unwrap(), 0, "nothing pending, not readable");

        assert!(n.send(c, b"ping").unwrap() > 0);
        let fired = ffi::epoll_wait_into(&outer, &mut raw, Some(Duration::from_secs(5)));
        assert_eq!(fired.unwrap(), 1, "a pending edge makes the set readable");
        assert_eq!(
            set.wait_ready(&mut events, Some(Duration::ZERO)).unwrap(),
            1
        );
        let quiet = ffi::epoll_wait_into(&outer, &mut raw, Some(Duration::from_millis(1)));
        assert_eq!(quiet.unwrap(), 0, "harvested: quiet again");
    }

    #[test]
    fn hup_reported_after_peer_close() {
        let n = net();
        let l = n.listen(3).unwrap();
        let c = n.connect(3).unwrap();
        let s = accept_one(&n, l);
        let mut set = n.ready_set().unwrap();
        set.watch(s, Interest::Read).unwrap();
        n.close(c).unwrap();
        let mut events = [ReadyEvent {
            id: 0,
            listener: false,
            readable: false,
            writable: false,
            hup: false,
        }; 8];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = set
                .wait_ready(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events[..got].iter().any(|e| e.id == s.0 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "no readiness after peer close");
        }
        let mut buf = [0u8; 8];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Eof);
    }
}
