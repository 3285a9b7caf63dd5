//! Nodes, pools and mboxes: the allocation-free messaging substrate.
//!
//! The lower layer of EActors (§3.3 of the paper) exchanges *nodes* —
//! fixed-size memory objects preallocated at system start. A **pool** holds
//! free nodes with LIFO semantics; an **mbox** carries filled nodes between
//! actors with FIFO semantics. Both are concurrently accessible by multiple
//! producers and consumers without system calls: the paper builds them on
//! Hardware Lock Elision, this reproduction uses lock-free atomics (a
//! tag-protected Treiber stack for the pool free list, a bounded MPMC
//! sequence queue for mboxes), which preserves the property that matters —
//! message exchange never triggers an execution-mode transition.
//!
//! An [`Arena`] owns the node storage and its free list. [`Node`] is an
//! owning handle: popping transfers ownership to the caller, dropping
//! returns the node to its arena's free list, and sending through an
//! [`Mbox`] hands it to the receiver. Payload bytes are therefore never
//! aliased by two owners.
//!
//! # Examples
//!
//! ```
//! use eactors::arena::{Arena, Mbox};
//!
//! let arena = Arena::new("demo", 8, 64);
//! let mbox = Mbox::new(arena.clone(), 8);
//!
//! let mut node = arena.try_pop().expect("fresh arena has free nodes");
//! node.write(b"hello");
//! mbox.send(node).expect("mbox has room");
//!
//! let got = mbox.recv().expect("message queued");
//! assert_eq!(got.bytes(), b"hello");
//! // Dropping `got` returns the node to the arena's free list.
//! ```

use std::cell::{Cell, RefCell, UnsafeCell};
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use obs::Counter;

use crate::wake;

/// Sentinel index marking the end of the free list.
const NIL: u32 = u32::MAX;

/// Capped exponential backoff for CAS retry loops: a failed
/// compare-exchange means another thread just won the cache line, so
/// spinning tighter only prolongs the ping-pong. Each retry doubles the
/// number of `spin_loop` hints up to a small cap (no yielding — these
/// loops are obstruction-free and finish in a few retries).
struct Backoff(u32);

impl Backoff {
    const MAX_SHIFT: u32 = 6;

    fn new() -> Backoff {
        Backoff(0)
    }

    #[inline]
    fn spin(&mut self) {
        for _ in 0..(1u32 << self.0) {
            std::hint::spin_loop();
        }
        if self.0 < Self::MAX_SHIFT {
            self.0 += 1;
        }
    }
}

/// Process-global tally of failed freelist CAS attempts across all
/// arenas (pop, push and the chain variants). `Runtime::start` registers
/// it in the deployment's [`MetricsRegistry`](obs::MetricsRegistry) as
/// `freelist_cas_retries`; steady-state magazine traffic keeps it flat.
pub fn freelist_cas_retries() -> &'static Arc<Counter> {
    static RETRIES: OnceLock<Arc<Counter>> = OnceLock::new();
    RETRIES.get_or_init(|| Arc::new(Counter::new()))
}

/// Process-global tally of detected mbox cardinality violations: a
/// second worker thread drove the single-producer or single-consumer
/// side of a specialized mbox. Registered as
/// `mbox_cardinality_violations`; any non-zero value is a deployment
/// bug (debug builds also assert).
pub fn mbox_cardinality_violations() -> &'static Arc<Counter> {
    static VIOLATIONS: OnceLock<Arc<Counter>> = OnceLock::new();
    VIOLATIONS.get_or_init(|| Arc::new(Counter::new()))
}

thread_local! {
    /// Non-zero exactly on runtime worker threads; used by specialized
    /// mboxes to attribute sends/recvs to a worker. Non-worker threads
    /// (deployment ctors, drivers, tests) are exempt from cardinality
    /// checks — the deployment proof is about actor placement on
    /// workers, and non-worker access is sequential with the worker
    /// lifecycle.
    static WORKER_TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// Mark the current thread as a runtime worker. `token` is non-zero and
/// unique to the worker ([`crate::wake::WakeHub::worker_token`]): the
/// single-consumer side of an mbox records it, and sends hand it back
/// to the wake hub to wake exactly that worker.
pub(crate) fn set_worker_token(token: u64) {
    let _ = WORKER_TOKEN.try_with(|t| t.set(token));
}

/// Clear the current thread's worker mark.
pub(crate) fn clear_worker_token() {
    let _ = WORKER_TOKEN.try_with(|t| t.set(0));
}

#[inline]
fn worker_token() -> u64 {
    WORKER_TOKEN.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Per-thread node magazines.
//
// A magazine is a small thread-local LIFO of free node indices for one
// arena. With magazines installed (runtime workers install them at
// spawn), steady-state alloc/free never touches the shared `free_head`
// cache line: pops are served from the magazine, frees deposit into it,
// and only an empty/full magazine exchanges a *pre-linked chain* of
// nodes with the global freelist in a single CAS. Recycled nodes stay
// hot in the allocating worker's cache.
//
// Ownership invariant: indices in a magazine are **allocated** from the
// global freelist's point of view (`free_nodes()` excludes them) and are
// owned by the installing thread alone. Magazines must be flushed
// whenever the thread stops being a live allocator: workers drain before
// parking and uninstall (flush + drop) at exit, and `MagazineSet::drop`
// flushes on thread death, so no node outlives its thread in a cache.
// ---------------------------------------------------------------------------

/// Upper bound on cached nodes per (thread, arena) pair.
pub const MAGAZINE_MAX: usize = 32;

/// Shared counter handles for magazine telemetry. `Runtime::start`
/// registers one set per worker (`worker_<i>_magazine_*`) so the hot
/// path never shares a counter cache line across workers.
#[derive(Debug, Clone, Default)]
pub struct MagazineStats {
    /// Pops served from the thread-local magazine (no shared-line touch).
    pub hits: Arc<Counter>,
    /// Pops that fell through to the global freelist.
    pub misses: Arc<Counter>,
    /// Chain refills popped from the global freelist (one CAS each).
    pub refills: Arc<Counter>,
    /// Chain flushes pushed back to the global freelist (one CAS each).
    pub flushes: Arc<Counter>,
}

impl MagazineStats {
    /// Register the four counters as `<prefix>_magazine_{hits,misses,refills,flushes}`,
    /// adopting already-registered counters if the names are taken.
    pub fn register(&self, registry: &obs::MetricsRegistry, prefix: &str) -> MagazineStats {
        MagazineStats {
            hits: registry.register_counter(&format!("{prefix}_magazine_hits"), self.hits.clone()),
            misses: registry
                .register_counter(&format!("{prefix}_magazine_misses"), self.misses.clone()),
            refills: registry
                .register_counter(&format!("{prefix}_magazine_refills"), self.refills.clone()),
            flushes: registry
                .register_counter(&format!("{prefix}_magazine_flushes"), self.flushes.clone()),
        }
    }
}

/// One thread's cache of free nodes for one arena.
struct Magazine {
    arena: Arc<Arena>,
    /// LIFO stack of cached free indices; capacity fixed at creation so
    /// steady-state pushes never reallocate.
    slots: Vec<u32>,
    /// `min(MAGAZINE_MAX, arena capacity / 4)`; 0 disables caching for
    /// tiny pools so back-pressure semantics are unchanged (a magazine
    /// may never strand enough nodes to starve other threads).
    cap: usize,
}

/// All magazines of one thread plus its telemetry handles.
struct MagazineSet {
    mags: Vec<Magazine>,
    stats: MagazineStats,
}

impl Drop for MagazineSet {
    fn drop(&mut self) {
        // A thread must never take cached nodes to its grave.
        for mag in &mut self.mags {
            if !mag.slots.is_empty() {
                mag.arena.push_chain(&mag.slots);
                mag.slots.clear();
            }
        }
    }
}

fn magazine_for<'a>(mags: &'a mut Vec<Magazine>, arena: &Arc<Arena>) -> &'a mut Magazine {
    if let Some(i) = mags.iter().position(|m| Arc::ptr_eq(&m.arena, arena)) {
        return &mut mags[i];
    }
    let cap = (arena.capacity() as usize / 4).min(MAGAZINE_MAX);
    mags.push(Magazine {
        arena: Arc::clone(arena),
        slots: Vec::with_capacity(cap),
        cap,
    });
    mags.last_mut().expect("just pushed")
}

thread_local! {
    static MAGAZINES: RefCell<Option<MagazineSet>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's magazine set (`None` when not installed,
/// re-entered, or during thread teardown — callers fall back to the
/// global freelist, which is always correct).
fn with_magazines<R>(f: impl FnOnce(Option<&mut MagazineSet>) -> R) -> R {
    let mut f = Some(f);
    match MAGAZINES.try_with(|tls| match tls.try_borrow_mut() {
        Ok(mut set) => (f.take().expect("once"))(set.as_mut()),
        Err(_) => (f.take().expect("once"))(None),
    }) {
        Ok(r) => r,
        Err(_) => (f.take().expect("once"))(None),
    }
}

/// Enable per-arena node magazines on the current thread, flushing any
/// previously installed set. Runtime workers call this at spawn; other
/// threads (tests, embedders) may opt in too.
pub fn install_magazines(stats: MagazineStats) {
    let _ = MAGAZINES.try_with(|tls| {
        *tls.borrow_mut() = Some(MagazineSet {
            mags: Vec::new(),
            stats,
        });
    });
}

/// Flush every cached node back to its arena's global freelist, keeping
/// the magazines installed (they refill on the next pop). Workers call
/// this before parking so an idle thread holds no nodes.
pub fn drain_magazines() {
    with_magazines(|set| {
        if let Some(set) = set {
            let MagazineSet { mags, stats } = &mut *set;
            for mag in mags {
                if !mag.slots.is_empty() {
                    mag.arena.push_chain(&mag.slots);
                    mag.slots.clear();
                    stats.flushes.inc();
                }
            }
        }
    });
}

/// Flush and remove the current thread's magazines entirely. Workers
/// call this at exit; afterwards alloc/free go straight to the global
/// freelist again.
pub fn uninstall_magazines() {
    let _ = MAGAZINES.try_with(|tls| {
        tls.borrow_mut().take(); // Drop flushes
    });
}

/// Aligns a hot atomic to its own cache line so concurrent writers of
/// *adjacent* fields (producers on `enqueue_pos`, consumers on
/// `dequeue_pos`; poppers on `free_head`, the counter on `free_count`) do
/// not false-share a line and invalidate each other on every operation.
#[repr(align(64))]
#[derive(Debug)]
struct CachePadded<T>(T);

/// Packs a (tag, index) pair into a single atomic word; the tag defeats
/// ABA on the free-list head.
#[inline]
fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

struct NodeSlot {
    /// Next node in the free list (NIL when not free).
    next: AtomicU64, // only low 32 bits used; atomic for cross-thread visibility
    /// Valid payload length; written by the owner, read by the next owner.
    len: UnsafeCell<usize>,
    /// Sim-cycle stamp of the last mbox send of this node, read by the
    /// receiver to compute queueing delay. It lives here — not on
    /// [`Node`] — because only the node *index* crosses an mbox slot,
    /// and it is synchronised by the same release/acquire pair as `len`.
    stamp: UnsafeCell<u64>,
}

/// A preallocated region of fixed-size message nodes plus its free list.
///
/// Arenas are created per deployment region: a *public* arena lives in
/// untrusted memory (usable by any actor), a *private* arena belongs to
/// one enclave. The arena hands every node index to exactly one owner at a
/// time, which is what makes the unsynchronised payload access in
/// [`Node`] sound.
pub struct Arena {
    name: String,
    payload_size: usize,
    slots: Box<[NodeSlot]>,
    payload: Box<[UnsafeCell<u8>]>,
    /// Tagged head of the LIFO free list (the paper's "pool").
    free_head: CachePadded<AtomicU64>,
    free_count: CachePadded<AtomicUsize>,
}

// Safety: nodes are owned by one thread at a time; the free list and
// counters are atomics.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// Preallocate `count` nodes of `payload_size` bytes each.
    ///
    /// This is the only allocation the messaging substrate ever performs;
    /// it happens at deployment time, keeping the runtime allocation-free
    /// as required for performance-friendly EPC usage.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0, `count >= u32::MAX`, or `payload_size` is 0.
    pub fn new(name: &str, count: u32, payload_size: usize) -> Arc<Self> {
        assert!(count > 0, "arena needs at least one node");
        assert!(count < u32::MAX, "arena too large");
        assert!(payload_size > 0, "payload size must be non-zero");
        let slots: Box<[NodeSlot]> = (0..count)
            .map(|i| NodeSlot {
                next: AtomicU64::new(if i + 1 < count {
                    (i + 1) as u64
                } else {
                    NIL as u64
                }),
                len: UnsafeCell::new(0),
                stamp: UnsafeCell::new(0),
            })
            .collect();
        let payload: Box<[UnsafeCell<u8>]> = (0..count as usize * payload_size)
            .map(|_| UnsafeCell::new(0))
            .collect();
        Arc::new(Arena {
            name: name.to_owned(),
            payload_size,
            slots,
            payload,
            free_head: CachePadded(AtomicU64::new(pack(0, 0))),
            free_count: CachePadded(AtomicUsize::new(count as usize)),
        })
    }

    /// The arena's configured payload capacity per node, in bytes.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Total number of nodes.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Nodes currently on the global free list.
    ///
    /// Concurrent pops/pushes make this an instantaneous approximation.
    /// Nodes cached in thread-local magazines count as *allocated*; they
    /// return here when their thread drains ([`drain_magazines`]) or
    /// exits.
    pub fn free_nodes(&self) -> usize {
        self.free_count.0.load(Ordering::Relaxed)
    }

    /// The name given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes of memory this arena occupies (for EPC accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.slots.len() * (std::mem::size_of::<NodeSlot>() + self.payload_size)) as u64
    }

    /// Pop a free node (LIFO), transferring ownership to the caller.
    ///
    /// Returns `None` when the pool is exhausted — the caller should retry
    /// later (back-pressure), exactly as eactors do when a pool runs dry.
    ///
    /// On threads with magazines installed (runtime workers) the pop is
    /// served from the thread-local cache when possible; otherwise it
    /// goes to the global freelist.
    pub fn try_pop(self: &Arc<Self>) -> Option<Node> {
        with_magazines(|set| match set {
            Some(set) => self.pop_cached(set),
            None => self.pop_global(),
        })
    }

    /// Magazine fast path: hit the thread-local LIFO, refilling a chain
    /// from the global freelist (one CAS) when it runs empty.
    fn pop_cached(self: &Arc<Self>, set: &mut MagazineSet) -> Option<Node> {
        let MagazineSet { mags, stats } = set;
        let mag = magazine_for(mags, self);
        if let Some(idx) = mag.slots.pop() {
            stats.hits.inc();
            return Some(Node {
                arena: Arc::clone(self),
                idx,
            });
        }
        stats.misses.inc();
        if mag.cap == 0 {
            return self.pop_global();
        }
        let (head, n) = self.try_pop_chain(mag.cap.div_ceil(2))?;
        stats.refills.inc();
        // We own the chain now; everything behind its head is cached.
        let mut idx = head;
        for _ in 1..n {
            idx = self.slots[idx as usize].next.load(Ordering::Relaxed) as u32;
            mag.slots.push(idx);
        }
        // The magazine was empty, so reversing restores LIFO hotness:
        // the node nearest the old freelist head pops first.
        mag.slots.reverse();
        Some(Node {
            arena: Arc::clone(self),
            idx: head,
        })
    }

    /// Pop directly from the global freelist.
    fn pop_global(self: &Arc<Self>) -> Option<Node> {
        let mut backoff = Backoff::new();
        let mut head = self.free_head.0.load(Ordering::Acquire);
        loop {
            let (tag, idx) = unpack(head);
            if idx == NIL {
                return None;
            }
            let next = self.slots[idx as usize].next.load(Ordering::Relaxed) as u32;
            match self.free_head.0.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), next),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.0.fetch_sub(1, Ordering::Relaxed);
                    return Some(Node {
                        arena: Arc::clone(self),
                        idx,
                    });
                }
                Err(h) => {
                    freelist_cas_retries().inc();
                    backoff.spin();
                    head = h;
                }
            }
        }
    }

    /// Pop up to `max` nodes from the free list as one still-linked
    /// chain with a **single** successful CAS. Returns the chain's head
    /// index and length; the caller owns the chain and walks it via the
    /// `next` links (valid until the nodes are reused).
    ///
    /// The pre-CAS walk reads `next` links that a concurrent pop may be
    /// recycling; that is harmless — any concurrent freelist operation
    /// bumps the head tag and fails our CAS, and the walk is bounded by
    /// `max` so even a stale cycle cannot hang it.
    fn try_pop_chain(&self, max: usize) -> Option<(u32, usize)> {
        debug_assert!(max >= 1);
        let mut backoff = Backoff::new();
        let mut head = self.free_head.0.load(Ordering::Acquire);
        loop {
            let (tag, first) = unpack(head);
            if first == NIL {
                return None;
            }
            let mut tail = first;
            let mut n = 1usize;
            while n < max {
                let next = self.slots[tail as usize].next.load(Ordering::Relaxed) as u32;
                if next == NIL {
                    break;
                }
                tail = next;
                n += 1;
            }
            let rest = self.slots[tail as usize].next.load(Ordering::Relaxed) as u32;
            match self.free_head.0.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), rest),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.0.fetch_sub(n, Ordering::Relaxed);
                    return Some((first, n));
                }
                Err(h) => {
                    freelist_cas_retries().inc();
                    backoff.spin();
                    head = h;
                }
            }
        }
    }

    /// Push a pre-linked chain of node indices onto the free list with a
    /// **single** successful CAS. `chain[0]` becomes the new head;
    /// `chain` entries must be owned by the caller and distinct.
    fn push_chain(&self, chain: &[u32]) {
        debug_assert!(!chain.is_empty());
        // Link the interior once; only the tail→old-head link is
        // (re)written inside the retry loop.
        for w in chain.windows(2) {
            self.slots[w[0] as usize]
                .next
                .store(w[1] as u64, Ordering::Relaxed);
        }
        let first = chain[0];
        let last = *chain.last().expect("non-empty chain");
        let mut backoff = Backoff::new();
        let mut head = self.free_head.0.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(head);
            self.slots[last as usize]
                .next
                .store(top as u64, Ordering::Relaxed);
            match self.free_head.0.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), first),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.0.fetch_add(chain.len(), Ordering::Relaxed);
                    return;
                }
                Err(h) => {
                    freelist_cas_retries().inc();
                    backoff.spin();
                    head = h;
                }
            }
        }
    }

    /// Return a freed node index, depositing into the thread's magazine
    /// when one is installed (flushing the cold half on overflow) and
    /// falling back to the global freelist otherwise.
    fn free_index(self: &Arc<Self>, idx: u32) {
        with_magazines(|set| match set {
            Some(set) => {
                let MagazineSet { mags, stats } = set;
                let mag = magazine_for(mags, self);
                if mag.cap == 0 {
                    self.push_free(idx);
                    return;
                }
                if mag.slots.len() == mag.cap {
                    // Flush the cold (bottom) half in one chain push,
                    // keeping the hot top of the LIFO local.
                    let flush = mag.cap.div_ceil(2);
                    self.push_chain(&mag.slots[..flush]);
                    mag.slots.drain(..flush);
                    stats.flushes.inc();
                }
                mag.slots.push(idx);
            }
            None => self.push_free(idx),
        })
    }

    /// Push a node index back on the free list (LIFO).
    fn push_free(&self, idx: u32) {
        let mut backoff = Backoff::new();
        let mut head = self.free_head.0.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(head);
            self.slots[idx as usize]
                .next
                .store(top as u64, Ordering::Relaxed);
            match self.free_head.0.compare_exchange_weak(
                head,
                pack(tag.wrapping_add(1), idx),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_count.0.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(h) => {
                    freelist_cas_retries().inc();
                    backoff.spin();
                    head = h;
                }
            }
        }
    }

    #[inline]
    fn payload_ptr(&self, idx: u32) -> *mut u8 {
        // Safety: index validity is guaranteed by Node construction.
        self.payload[idx as usize * self.payload_size].get()
    }

    #[inline]
    fn len_ptr(&self, idx: u32) -> *mut usize {
        self.slots[idx as usize].len.get()
    }

    #[inline]
    fn stamp_ptr(&self, idx: u32) -> *mut u64 {
        self.slots[idx as usize].stamp.get()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("name", &self.name)
            .field("capacity", &self.capacity())
            .field("payload_size", &self.payload_size)
            .field("free_nodes", &self.free_nodes())
            .finish()
    }
}

/// An owned message node.
///
/// Exactly one `Node` exists per arena slot that is not on a free list or
/// in an mbox; payload access therefore needs no synchronisation. Dropping
/// a node returns it to its arena's pool — the paper's "return the node
/// back to the pool" step happens automatically.
pub struct Node {
    arena: Arc<Arena>,
    idx: u32,
}

// Safety: exclusive ownership of the slot travels with the Node value.
unsafe impl Send for Node {}

impl Node {
    /// The valid payload bytes.
    pub fn bytes(&self) -> &[u8] {
        // Safety: we own the slot; len was set by the previous owner or us.
        unsafe {
            let len = *self.arena.len_ptr(self.idx);
            std::slice::from_raw_parts(self.arena.payload_ptr(self.idx), len)
        }
    }

    /// The full payload buffer (capacity bytes), for in-place writes.
    ///
    /// Pair with [`Node::set_len`] to mark how many bytes are valid.
    pub fn buffer_mut(&mut self) -> &mut [u8] {
        // Safety: we own the slot exclusively.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.arena.payload_ptr(self.idx),
                self.arena.payload_size,
            )
        }
    }

    /// Number of valid payload bytes.
    pub fn len(&self) -> usize {
        unsafe { *self.arena.len_ptr(self.idx) }
    }

    /// Whether the node carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark the first `len` bytes of the buffer as valid payload.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the arena's payload size.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.arena.payload_size, "payload overflow");
        unsafe { *self.arena.len_ptr(self.idx) = len }
    }

    /// Copy `data` into the node and set its length.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the arena's payload size.
    pub fn write(&mut self, data: &[u8]) {
        assert!(
            data.len() <= self.arena.payload_size,
            "payload overflow: {} > {}",
            data.len(),
            self.arena.payload_size
        );
        self.buffer_mut()[..data.len()].copy_from_slice(data);
        self.set_len(data.len());
    }

    /// The arena this node belongs to.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Detach the index, suppressing the drop-return (mbox transfer).
    fn into_raw(self) -> u32 {
        let this = ManuallyDrop::new(self);
        let idx = this.idx;
        // Safety: `this` is never dropped, so ownership of the Arc is
        // moved out and released here instead.
        drop(unsafe { std::ptr::read(&this.arena) });
        idx
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("arena", &self.arena.name)
            .field("idx", &self.idx)
            .field("len", &self.len())
            .finish()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.arena.free_index(self.idx);
    }
}

/// Producer/consumer cardinality of an mbox, as proven by the
/// deployment graph (or declared by library wiring that owns both
/// sides).
///
/// The cardinality selects the cursor protocol: `Spsc` runs a plain
/// head/tail ring (Acquire/Release publication, **no** sequence CAS),
/// `Mpsc` keeps the Vyukov producer path but gives the single consumer
/// a CAS-free dequeue, and `Mpmc` is the fully general sequence queue.
/// The single-threaded sides are guarded at runtime: worker threads
/// stamp a token on first use and a second worker on the same side
/// bumps [`mbox_cardinality_violations`] (and asserts in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MboxKind {
    /// Exactly one producing and one consuming worker.
    Spsc = 0,
    /// Many producers, exactly one consuming worker.
    Mpsc = 1,
    /// The general case (the safe default).
    #[default]
    Mpmc = 2,
}

impl MboxKind {
    #[inline]
    fn from_u8(v: u8) -> MboxKind {
        match v {
            0 => MboxKind::Spsc,
            1 => MboxKind::Mpsc,
            _ => MboxKind::Mpmc,
        }
    }
}

/// A FIFO mailbox carrying nodes of one arena.
///
/// Lock-free: `send` and `recv` are a handful of atomic operations — no
/// mutexes, no system calls, no execution-mode transitions, regardless
/// of which protection domains the communicating actors live in. This is
/// the property that lets EActors messages cross enclave boundaries
/// cheaply.
///
/// By default the mbox is a bounded MPMC sequence queue; deployments
/// that prove a tighter cardinality instantiate the cheaper protocols
/// via [`Mbox::with_kind`] (see [`MboxKind`]).
pub struct Mbox {
    arena: Arc<Arena>,
    slots: Box<[MboxSlot]>,
    mask: usize,
    /// The selected cursor protocol ([`MboxKind`] as `u8`). Atomic so the
    /// placement layer can re-select it at a migration barrier; hot paths
    /// read it relaxed (re-selection happens only while every worker is
    /// quiesced, so a worker never races its own kind).
    kind: AtomicU8,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
    /// Worker token of the single producer (Spsc) — 0 until first use.
    producer_thread: AtomicU64,
    /// Worker token of the single consumer (Spsc/Mpsc) — 0 until first use.
    consumer_thread: AtomicU64,
}

struct MboxSlot {
    sequence: AtomicUsize,
    value: UnsafeCell<u32>,
}

// Safety: standard Vyukov bounded MPMC queue invariants; the Spsc/Mpsc
// specializations additionally rely on the deployment-proven single
// producer/consumer, which the worker-token assertion polices.
unsafe impl Send for Mbox {}
unsafe impl Sync for Mbox {}

impl Mbox {
    /// Create a general (MPMC) mbox for nodes of `arena` holding up to
    /// `capacity` messages (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(arena: Arc<Arena>, capacity: usize) -> Arc<Self> {
        Mbox::with_kind(arena, capacity, MboxKind::Mpmc)
    }

    /// Create an mbox specialized to a proven producer/consumer
    /// cardinality. Callers must guarantee the cardinality holds (the
    /// runtime derives it from the deployment graph); a violated
    /// single-threaded side is detected per [`MboxKind`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_kind(arena: Arc<Arena>, capacity: usize, kind: MboxKind) -> Arc<Self> {
        assert!(capacity > 0, "mbox capacity must be non-zero");
        let cap = capacity.next_power_of_two();
        let slots: Box<[MboxSlot]> = (0..cap)
            .map(|i| MboxSlot {
                sequence: AtomicUsize::new(i),
                value: UnsafeCell::new(NIL),
            })
            .collect();
        Arc::new(Mbox {
            arena,
            slots,
            mask: cap - 1,
            kind: AtomicU8::new(kind as u8),
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
            producer_thread: AtomicU64::new(0),
            consumer_thread: AtomicU64::new(0),
        })
    }

    /// The cursor protocol currently selected for this mbox.
    pub fn kind(&self) -> MboxKind {
        MboxKind::from_u8(self.kind.load(Ordering::Relaxed))
    }

    /// Re-prove and re-select the cursor protocol under a new placement.
    ///
    /// # Safety contract (not `unsafe`, but load-bearing)
    ///
    /// Must only be called while **every** thread that drives this mbox
    /// is quiesced (the placement migration barrier): the SPSC protocol
    /// ignores slot sequences, so switching into or out of it re-keys
    /// every slot's sequence to the canonical Vyukov numbering for the
    /// current cursors — racing an in-flight send or recv would corrupt
    /// the ring. Downgrades (e.g. Spsc→Mpsc) would be safe to apply live,
    /// but upgrades are only sound inside the barrier, which is where the
    /// runtime performs both. Mpsc↔Mpmc switches maintain sequences
    /// identically and need no re-key. Worker-token claims on the
    /// single-threaded sides are reset either way, so the post-migration
    /// owners re-claim on first use.
    pub(crate) fn reselect_kind(&self, new: MboxKind) {
        self.producer_thread.store(0, Ordering::Relaxed);
        self.consumer_thread.store(0, Ordering::Relaxed);
        let old = self.kind();
        if old == new {
            return;
        }
        if old == MboxKind::Spsc || new == MboxKind::Spsc {
            let head = self.dequeue_pos.0.load(Ordering::Relaxed);
            let tail = self.enqueue_pos.0.load(Ordering::Relaxed);
            let occupied = tail.wrapping_sub(head);
            for o in 0..self.slots.len() {
                let p = head.wrapping_add(o);
                let seq = if o < occupied { p.wrapping_add(1) } else { p };
                self.slots[p & self.mask]
                    .sequence
                    .store(seq, Ordering::Relaxed);
            }
        }
        self.kind.store(new as u8, Ordering::Release);
    }

    /// Forget the single-producer worker-token claim (placement layer:
    /// the claiming worker hands the producing actor to another worker).
    pub(crate) fn reset_producer_claim(&self) {
        self.producer_thread.store(0, Ordering::Relaxed);
    }

    /// Forget the single-consumer worker-token claim.
    pub(crate) fn reset_consumer_claim(&self) {
        self.consumer_thread.store(0, Ordering::Relaxed);
    }

    /// The arena whose nodes this mbox carries.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Police a single-threaded side: the first worker thread claims it;
    /// any other worker thread is a deployment-proof violation. Threads
    /// without a worker token (ctors, drivers, tests) are exempt — their
    /// access is sequential with worker execution.
    #[inline]
    fn note_single_side(&self, side: &AtomicU64, which: &str) {
        let me = worker_token();
        if me == 0 {
            return;
        }
        let prev = side.load(Ordering::Relaxed);
        if prev == me {
            return;
        }
        if prev == 0
            && side
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        mbox_cardinality_violations().inc();
        debug_assert!(
            false,
            "mbox cardinality violation: a second worker drove the single-{which} side \
             of a {:?} mbox over arena {:?}",
            self.kind(),
            self.arena.name
        );
    }

    /// Tell the wake hub a message is queued for whoever drains this
    /// mbox: the recorded single consumer, or (token 0: MPMC, or nobody
    /// has received yet) every parked worker.
    #[inline]
    fn notify_consumer(&self) {
        wake::notify_consumer(self.consumer_thread.load(Ordering::Relaxed));
    }

    /// Emit the recv-side trace events for a node we now own.
    #[inline]
    fn trace_recv(&self, idx: u32) {
        if cfg!(feature = "trace") && obs::enabled() {
            // Safety: the node is ours now; stamp and len were published
            // with it.
            let (sent, len) = unsafe { (*self.arena.stamp_ptr(idx), *self.arena.len_ptr(idx)) };
            let delay = obs::clock::now_cycles().saturating_sub(sent);
            obs::note_queue_delay(delay);
            obs::emit(obs::EventKind::MboxRecv, 0, len as u64, delay);
        }
    }

    /// Maximum number of queued messages.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of queued messages.
    ///
    /// # Approximation contract
    ///
    /// The two cursors are read with relaxed ordering and not as one
    /// atomic snapshot, so under concurrent traffic the value can lag
    /// either side: a send racing the `enqueue_pos` read may be missed, a
    /// recv racing the `dequeue_pos` read may be double-counted. Both
    /// skews are clamped into `0..=capacity()` — a momentary `tail <
    /// head` observation reports 0 (not a huge underflowed count), and an
    /// `enqueue_pos` read far ahead of a stale `dequeue_pos` reports at
    /// most the capacity. The value is exact whenever no send or recv is
    /// in flight.
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.0.load(Ordering::Relaxed);
        let head = self.dequeue_pos.0.load(Ordering::Relaxed);
        tail.saturating_sub(head).min(self.capacity())
    }

    /// Whether the mbox currently holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue `node` (FIFO). On a full mbox the node is handed back so
    /// the sender can apply back-pressure.
    ///
    /// # Errors
    ///
    /// Returns `Err(node)` if the mbox is full or the node belongs to a
    /// different arena.
    pub fn send(&self, node: Node) -> Result<(), Node> {
        if !Arc::ptr_eq(&node.arena, &self.arena) {
            return Err(node);
        }
        let traced = cfg!(feature = "trace") && obs::enabled();
        let len = if traced { node.len() } else { 0 };
        if traced {
            // Safety: we still own the node; the stamp is published to
            // the receiver by the Release store below, exactly like the
            // payload.
            unsafe { *self.arena.stamp_ptr(node.idx) = obs::clock::now_cycles() };
        }
        match self.kind() {
            MboxKind::Spsc => self.send_spsc(node, traced, len),
            _ => self.send_shared(node, traced, len),
        }
    }

    /// SPSC enqueue: plain head/tail cursors, no sequence CAS. The
    /// Release store of `enqueue_pos` publishes the slot value and the
    /// node's payload/len/stamp to the (single) consumer's Acquire load.
    fn send_spsc(&self, node: Node, traced: bool, len: usize) -> Result<(), Node> {
        self.note_single_side(&self.producer_thread, "producer");
        let tail = self.enqueue_pos.0.load(Ordering::Relaxed);
        let head = self.dequeue_pos.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            return Err(node); // full
        }
        let slot = &self.slots[tail & self.mask];
        // Safety: the single producer owns [head+cap, ∞) slot writes;
        // this slot is free because tail - head < capacity.
        unsafe { *slot.value.get() = node.into_raw() };
        self.enqueue_pos
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        self.notify_consumer();
        if traced {
            obs::emit(obs::EventKind::MboxSend, 0, len as u64, 0);
        }
        Ok(())
    }

    /// Vyukov MPMC enqueue (also the producer path of `Mpsc`).
    fn send_shared(&self, node: Node, traced: bool, len: usize) -> Result<(), Node> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub(pos as isize) {
                0 => {
                    match self.enqueue_pos.0.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // Safety: we won the slot; no other thread
                            // touches value until sequence advances.
                            unsafe { *slot.value.get() = node.into_raw() };
                            slot.sequence.store(pos + 1, Ordering::Release);
                            // Wake the consumer's worker if it parked —
                            // cheap (fence + load) while it runs or when
                            // the sender is not a worker.
                            self.notify_consumer();
                            if traced {
                                obs::emit(obs::EventKind::MboxSend, 0, len as u64, 0);
                            }
                            return Ok(());
                        }
                        Err(p) => pos = p,
                    }
                }
                d if d < 0 => return Err(node), // full
                _ => pos = self.enqueue_pos.0.load(Ordering::Relaxed),
            }
        }
    }

    /// Dequeue the oldest message, or `None` when the mbox is empty.
    pub fn recv(&self) -> Option<Node> {
        match self.kind() {
            MboxKind::Spsc => self.recv_spsc(),
            MboxKind::Mpsc => self.recv_mpsc(),
            MboxKind::Mpmc => self.recv_shared(),
        }
    }

    /// SPSC dequeue: plain cursors, no CAS. The Release store of
    /// `dequeue_pos` keeps the slot read ordered before the producer's
    /// Acquire load sees the slot as free again.
    fn recv_spsc(&self) -> Option<Node> {
        self.note_single_side(&self.consumer_thread, "consumer");
        let head = self.dequeue_pos.0.load(Ordering::Relaxed);
        let tail = self.enqueue_pos.0.load(Ordering::Acquire);
        if head == tail {
            return None; // empty
        }
        let slot = &self.slots[head & self.mask];
        // Safety: tail moved past this slot, so the producer published it
        // and will not touch it again until head advances.
        let idx = unsafe { *slot.value.get() };
        self.dequeue_pos
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        self.trace_recv(idx);
        Some(Node {
            arena: Arc::clone(&self.arena),
            idx,
        })
    }

    /// MPSC dequeue: the sequence protocol detects published slots (the
    /// producers still race on `enqueue_pos`), but the single consumer
    /// advances `dequeue_pos` with a plain store instead of a CAS.
    fn recv_mpsc(&self) -> Option<Node> {
        self.note_single_side(&self.consumer_thread, "consumer");
        let pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        let seq = slot.sequence.load(Ordering::Acquire);
        if (seq as isize).wrapping_sub((pos + 1) as isize) < 0 {
            return None; // not yet published
        }
        // Safety: the sequence says the producer published this slot and
        // we are the only consumer.
        let idx = unsafe { *slot.value.get() };
        slot.sequence.store(pos + self.mask + 1, Ordering::Release);
        self.dequeue_pos.0.store(pos + 1, Ordering::Relaxed);
        self.trace_recv(idx);
        Some(Node {
            arena: Arc::clone(&self.arena),
            idx,
        })
    }

    /// Vyukov MPMC dequeue.
    fn recv_shared(&self) -> Option<Node> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub((pos + 1) as isize) {
                0 => {
                    match self.dequeue_pos.0.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // Safety: we won the slot.
                            let idx = unsafe { *slot.value.get() };
                            slot.sequence.store(pos + self.mask + 1, Ordering::Release);
                            self.trace_recv(idx);
                            return Some(Node {
                                arena: Arc::clone(&self.arena),
                                idx,
                            });
                        }
                        Err(p) => pos = p,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.dequeue_pos.0.load(Ordering::Relaxed),
            }
        }
    }

    /// Dequeue up to `max` messages with **one** cursor CAS, appending
    /// them to `out` in FIFO order. Returns how many were received.
    ///
    /// The batched counterpart of [`Mbox::recv`]: consumers draining a
    /// busy mbox (the enet system actors, the XMPP instance mux) pay the
    /// cursor contention once per batch instead of once per message.
    pub fn recv_batch(&self, out: &mut Vec<Node>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        match self.kind() {
            MboxKind::Spsc => self.recv_batch_spsc(out, max),
            MboxKind::Mpsc => self.recv_batch_mpsc(out, max),
            MboxKind::Mpmc => self.recv_batch_shared(out, max),
        }
    }

    /// SPSC batch dequeue: one Acquire tail read, one Release head
    /// publish, no CAS at all.
    fn recv_batch_spsc(&self, out: &mut Vec<Node>, max: usize) -> usize {
        self.note_single_side(&self.consumer_thread, "consumer");
        let head = self.dequeue_pos.0.load(Ordering::Relaxed);
        let tail = self.enqueue_pos.0.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head).min(max);
        if n == 0 {
            return 0; // empty
        }
        out.reserve(n);
        for i in 0..n {
            let slot = &self.slots[(head + i) & self.mask];
            // Safety: the Acquire tail read published every slot in
            // [head, tail); the single producer will not reuse them
            // until the Release publish below.
            let idx = unsafe { *slot.value.get() };
            self.trace_recv(idx);
            out.push(Node {
                arena: Arc::clone(&self.arena),
                idx,
            });
        }
        self.dequeue_pos.0.store(head + n, Ordering::Release);
        n
    }

    /// MPSC batch dequeue: sequence-checked per slot, but the single
    /// consumer publishes `dequeue_pos` with a plain store.
    fn recv_batch_mpsc(&self, out: &mut Vec<Node>, max: usize) -> usize {
        self.note_single_side(&self.consumer_thread, "consumer");
        let pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        let mut n = 0;
        while n < max {
            let slot = &self.slots[(pos + n) & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            if (seq as isize).wrapping_sub((pos + n + 1) as isize) < 0 {
                break; // not yet published
            }
            // Safety: published slot, single consumer.
            let idx = unsafe { *slot.value.get() };
            slot.sequence
                .store(pos + n + self.mask + 1, Ordering::Release);
            self.trace_recv(idx);
            out.push(Node {
                arena: Arc::clone(&self.arena),
                idx,
            });
            n += 1;
        }
        if n > 0 {
            self.dequeue_pos.0.store(pos + n, Ordering::Relaxed);
        }
        n
    }

    /// Vyukov MPMC batch dequeue.
    fn recv_batch_shared(&self, out: &mut Vec<Node>, max: usize) -> usize {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        'claim: loop {
            // A ready slot's sequence equals position + 1; producers only
            // advance sequences towards that value, so an observed-ready
            // run stays ready until we claim it (any competing consumer
            // must move `dequeue_pos` first, failing our CAS).
            let mut n = 0;
            while n < max {
                let slot = &self.slots[(pos + n) & self.mask];
                let seq = slot.sequence.load(Ordering::Acquire);
                match (seq as isize).wrapping_sub((pos + n + 1) as isize) {
                    0 => n += 1,
                    d if d < 0 => break, // empty from here
                    _ => {
                        // Another consumer overtook us; re-read the cursor.
                        pos = self.dequeue_pos.0.load(Ordering::Relaxed);
                        continue 'claim;
                    }
                }
            }
            if n == 0 {
                return 0; // empty
            }
            match self.dequeue_pos.0.compare_exchange_weak(
                pos,
                pos + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    out.reserve(n);
                    let traced = cfg!(feature = "trace") && obs::enabled();
                    let now = if traced { obs::clock::now_cycles() } else { 0 };
                    for i in 0..n {
                        let slot = &self.slots[(pos + i) & self.mask];
                        // Safety: we claimed [pos, pos+n); each slot was
                        // observed ready for this lap.
                        let idx = unsafe { *slot.value.get() };
                        slot.sequence
                            .store(pos + i + self.mask + 1, Ordering::Release);
                        if traced {
                            // Safety: the node is ours now.
                            let (sent, len) =
                                unsafe { (*self.arena.stamp_ptr(idx), *self.arena.len_ptr(idx)) };
                            let delay = now.saturating_sub(sent);
                            obs::note_queue_delay(delay);
                            obs::emit(obs::EventKind::MboxRecv, 0, len as u64, delay);
                        }
                        out.push(Node {
                            arena: Arc::clone(&self.arena),
                            idx,
                        });
                    }
                    return n;
                }
                Err(p) => pos = p,
            }
        }
    }
}

impl std::fmt::Debug for Mbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mbox")
            .field("arena", &self.arena.name)
            .field("capacity", &self.capacity())
            .field("kind", &self.kind())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn arena_pops_every_node_once() {
        let arena = Arena::new("t", 16, 8);
        let mut nodes = Vec::new();
        let mut seen = HashSet::new();
        while let Some(n) = arena.try_pop() {
            assert!(seen.insert(n.idx), "duplicate node handed out");
            nodes.push(n);
        }
        assert_eq!(nodes.len(), 16);
        assert_eq!(arena.free_nodes(), 0);
        drop(nodes);
        assert_eq!(arena.free_nodes(), 16);
    }

    #[test]
    fn pool_is_lifo() {
        let arena = Arena::new("t", 4, 8);
        let a = arena.try_pop().unwrap();
        let a_idx = a.idx;
        drop(a);
        let b = arena.try_pop().unwrap();
        assert_eq!(b.idx, a_idx, "free list should be LIFO");
    }

    #[test]
    fn node_write_and_read() {
        let arena = Arena::new("t", 2, 16);
        let mut n = arena.try_pop().unwrap();
        n.write(b"abcdef");
        assert_eq!(n.bytes(), b"abcdef");
        assert_eq!(n.len(), 6);
        assert!(!n.is_empty());
        n.set_len(3);
        assert_eq!(n.bytes(), b"abc");
    }

    #[test]
    #[should_panic(expected = "payload overflow")]
    fn oversized_write_panics() {
        let arena = Arena::new("t", 1, 4);
        let mut n = arena.try_pop().unwrap();
        n.write(b"too long for four bytes");
    }

    #[test]
    fn mbox_fifo_order() {
        let arena = Arena::new("t", 8, 8);
        let mbox = Mbox::new(arena.clone(), 8);
        for i in 0..5u8 {
            let mut n = arena.try_pop().unwrap();
            n.write(&[i]);
            mbox.send(n).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(mbox.recv().unwrap().bytes(), &[i]);
        }
        assert!(mbox.recv().is_none());
    }

    #[test]
    fn mbox_full_returns_node() {
        let arena = Arena::new("t", 4, 8);
        let mbox = Mbox::new(arena.clone(), 2);
        mbox.send(arena.try_pop().unwrap()).unwrap();
        mbox.send(arena.try_pop().unwrap()).unwrap();
        let extra = arena.try_pop().unwrap();
        let back = mbox.send(extra).unwrap_err();
        drop(back);
        assert_eq!(arena.free_nodes(), 2);
    }

    #[test]
    fn mbox_rejects_foreign_arena_nodes() {
        let a1 = Arena::new("a1", 2, 8);
        let a2 = Arena::new("a2", 2, 8);
        let mbox = Mbox::new(a1, 2);
        let foreign = a2.try_pop().unwrap();
        assert!(mbox.send(foreign).is_err());
    }

    #[test]
    fn len_travels_with_node_through_mbox() {
        let arena = Arena::new("t", 2, 32);
        let mbox = Mbox::new(arena.clone(), 2);
        let mut n = arena.try_pop().unwrap();
        n.write(b"payload!");
        mbox.send(n).unwrap();
        let got = mbox.recv().unwrap();
        assert_eq!(got.len(), 8);
        assert_eq!(got.bytes(), b"payload!");
    }

    #[test]
    fn concurrent_pool_no_loss_no_duplication() {
        let arena = Arena::new("t", 128, 8);
        let threads = 8;
        let iters = 20_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        if let Some(n) = arena.try_pop() {
                            std::hint::black_box(&n);
                            drop(n);
                        }
                    }
                });
            }
        });
        assert_eq!(arena.free_nodes(), 128);
        // All 128 nodes are still distinct.
        let mut seen = HashSet::new();
        let mut nodes = Vec::new();
        while let Some(n) = arena.try_pop() {
            assert!(seen.insert(n.idx));
            nodes.push(n);
        }
        assert_eq!(nodes.len(), 128);
    }

    #[test]
    fn concurrent_mbox_delivers_every_message_once() {
        let arena = Arena::new("t", 1024, 16);
        let mbox = Mbox::new(arena.clone(), 1024);
        let producers = 4;
        let per_producer = 5_000u64;
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let arena = arena.clone();
                let mbox = mbox.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        let tag = (p as u64) << 32 | i;
                        loop {
                            match arena.try_pop() {
                                Some(mut n) => {
                                    n.write(&tag.to_le_bytes());
                                    let mut node = n;
                                    loop {
                                        match mbox.send(node) {
                                            Ok(()) => break,
                                            Err(back) => {
                                                node = back;
                                                std::hint::spin_loop();
                                            }
                                        }
                                    }
                                    break;
                                }
                                None => std::hint::spin_loop(),
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let mbox = mbox.clone();
                let received = &received;
                s.spawn(move || {
                    let total = producers as u64 * per_producer;
                    let mut local = Vec::new();
                    loop {
                        {
                            let r = received.lock().unwrap();
                            if r.len() as u64 + local.len() as u64 >= total {
                                // may overshoot; final check below
                            }
                        }
                        match mbox.recv() {
                            Some(n) => {
                                let mut b = [0u8; 8];
                                b.copy_from_slice(n.bytes());
                                local.push(u64::from_le_bytes(b));
                            }
                            None => {
                                let mut r = received.lock().unwrap();
                                r.extend(local.drain(..));
                                if r.len() as u64 >= total {
                                    break;
                                }
                                drop(r);
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        let r = received.into_inner().unwrap();
        assert_eq!(r.len(), (producers as u64 * per_producer) as usize);
        let unique: HashSet<_> = r.iter().collect();
        assert_eq!(unique.len(), r.len(), "duplicated delivery");
        assert_eq!(arena.free_nodes(), 1024, "leaked nodes");
    }

    #[test]
    fn recv_batch_drains_in_order() {
        let arena = Arena::new("t", 16, 8);
        let mbox = Mbox::new(arena.clone(), 16);
        for i in 0..10u8 {
            let mut n = arena.try_pop().unwrap();
            n.write(&[i]);
            mbox.send(n).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(mbox.recv_batch(&mut out, 4), 4);
        assert_eq!(mbox.recv_batch(&mut out, 100), 6);
        assert_eq!(mbox.recv_batch(&mut out, 4), 0);
        let got: Vec<u8> = out.iter().map(|n| n.bytes()[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        drop(out);
        assert_eq!(arena.free_nodes(), 16);
    }

    #[test]
    fn concurrent_batch_mbox_delivers_every_message_once() {
        let arena = Arena::new("t", 512, 16);
        let mbox = Mbox::new(arena.clone(), 512);
        let producers = 4;
        let per_producer = 4_000u64;
        let total = producers as u64 * per_producer;
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..producers {
                let arena = arena.clone();
                let mbox = mbox.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        let mut n = loop {
                            match arena.try_pop() {
                                Some(n) => break n,
                                None => std::hint::spin_loop(),
                            }
                        };
                        n.write(&(((p as u64) << 32 | i).to_le_bytes()));
                        while let Err(back) = mbox.send(n) {
                            n = back;
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let mbox = mbox.clone();
                let received = &received;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut nodes = Vec::new();
                    loop {
                        if mbox.recv_batch(&mut nodes, 16) > 0 {
                            for n in nodes.drain(..) {
                                let mut b = [0u8; 8];
                                b.copy_from_slice(n.bytes());
                                local.push(u64::from_le_bytes(b));
                            }
                        } else {
                            let mut r = received.lock().unwrap();
                            r.extend(local.drain(..));
                            if r.len() as u64 >= total {
                                break;
                            }
                            drop(r);
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let r = received.into_inner().unwrap();
        assert_eq!(r.len(), total as usize);
        let unique: HashSet<_> = r.iter().collect();
        assert_eq!(unique.len(), r.len(), "duplicated delivery");
        assert_eq!(arena.free_nodes(), 512, "leaked nodes");
    }

    #[test]
    fn len_is_clamped_to_capacity_range() {
        let arena = Arena::new("t", 8, 8);
        let mbox = Mbox::new(arena.clone(), 8);
        assert_eq!(mbox.len(), 0);
        for _ in 0..3 {
            mbox.send(arena.try_pop().unwrap()).unwrap();
        }
        assert_eq!(mbox.len(), 3);
        while mbox.recv().is_some() {}
        assert_eq!(mbox.len(), 0);
        assert!(mbox.len() <= mbox.capacity());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let arena = Arena::new("t", 4, 8);
        let mbox = Mbox::new(arena, 5);
        assert_eq!(mbox.capacity(), 8);
    }

    #[test]
    fn debug_output_nonempty() {
        let arena = Arena::new("t", 2, 8);
        let mbox = Mbox::new(arena.clone(), 2);
        let n = arena.try_pop().unwrap();
        assert!(!format!("{arena:?}{mbox:?}{n:?}").is_empty());
    }

    #[test]
    fn memory_bytes_scales_with_count_and_payload() {
        let small = Arena::new("s", 8, 64);
        let big = Arena::new("b", 8, 256);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
