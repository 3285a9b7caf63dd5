//! Raw Linux bindings for the io_uring backend.
//!
//! Like [`crate::ffi`], the workspace vendors no crates, so `io_uring`
//! is reached through hand-written `extern "C"` declarations against
//! `syscall(2)` and `mmap(2)` — the three io_uring syscalls share their
//! numbers across every 64-bit Linux architecture. This module and
//! `ffi` are the only ones in the crate containing `unsafe`; everything
//! exposed is a safe wrapper over an owned [`Ring`].
//!
//! # Ring protocol
//!
//! `io_uring_setup(2)` returns a file descriptor plus kernel-chosen
//! offsets into two shared memory regions the caller `mmap`s: the
//! **submission queue** (SQ) and the **completion queue** (CQ), both
//! power-of-two circular buffers indexed by free-running `u32`
//! head/tail counters masked on access.
//!
//! * SQ: the application is the producer. [`Ring::push`] loads the
//!   kernel-owned `head` with `Acquire` (space check), writes the SQE
//!   and its index into the array slot at `tail & mask`, then publishes
//!   with a `Release` store of `tail + 1` — the kernel's `Acquire` load
//!   of `tail` in `io_uring_enter(2)` therefore observes fully-written
//!   SQEs only.
//! * CQ: the kernel is the producer. [`Ring::pop_cqe`] loads the
//!   kernel-owned `tail` with `Acquire` (pairs with the kernel's
//!   `Release` publication), reads the CQE at `head & mask`, then
//!   frees the slot with a `Release` store of `head + 1`.
//!
//! # Safety argument
//!
//! - The ring fd is an [`OwnedFd`] (closed exactly once); the three
//!   `mmap` regions are owned by the `Ring` and unmapped on drop,
//!   *after* the fd closes — a dropped `Ring` cannot leave the kernel a
//!   live producer into unmapped memory, and no raw region pointer
//!   escapes this module.
//! - Head/tail/flags words live inside the shared maps; they are only
//!   dereferenced as `AtomicU32` through pointers derived from the
//!   kernel-provided offsets, which the kernel guarantees are aligned.
//! - Buffer pointers placed into SQEs are the **caller's** liability:
//!   [`Ring::push`] is safe because it merely copies the SQE; the
//!   caller promises (via [`SqeBuf`]'s contract, enforced in
//!   `crate::uring`) that each buffer outlives its operation. The
//!   backend pins every in-flight buffer (arena nodes held in maps,
//!   `Arc<TcpStream>` handles) until its CQE is reaped.
//! - [`Ring::enter`] never waits: it hands the kernel what was published
//!   and returns. Waiting for completions is the worker's business (it
//!   polls [`Ring::raw_fd`]), never the ring's.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::ffi::OwnedFd;

// The io_uring syscalls entered the kernel after the architectures
// unified their tables; the numbers are identical everywhere Linux
// supports Rust's tier-1 64-bit targets.
const SYS_IO_URING_SETUP: i64 = 425;
const SYS_IO_URING_ENTER: i64 = 426;
const SYS_IO_URING_REGISTER: i64 = 427;

// mmap offsets selecting which ring region a map names.
const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x800_0000;
const IORING_OFF_SQES: i64 = 0x1000_0000;

// io_uring_params.features bits this module relies on.
/// SQ and CQ ring share one mmap (kernel ≥ 5.4).
pub const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
/// CQEs are never silently dropped on CQ overflow (kernel ≥ 5.5).
pub const IORING_FEAT_NODROP: u32 = 1 << 1;

// io_uring_enter flags.
const IORING_ENTER_GETEVENTS: u32 = 1 << 0;

// io_uring_register opcodes.
const IORING_REGISTER_PROBE: u32 = 8;

// SQ ring flags (read back through sq_off.flags).
/// The CQ ring overflowed and the kernel holds back-logged CQEs; an
/// `io_uring_enter` flushes them.
pub const IORING_SQ_CQ_OVERFLOW: u32 = 1 << 1;

// CQE flags.
/// More completions from the same multishot submission will follow; the
/// absence of this bit on a multishot CQE means re-arm is required.
pub const IORING_CQE_F_MORE: u32 = 1 << 1;

// Opcodes used by the backend.
/// No-op, completes immediately (tests, ring liveness).
#[cfg_attr(not(test), allow(dead_code))]
pub const IORING_OP_NOP: u8 = 0;
/// `accept4(2)` (multishot-capable since 5.19).
pub const IORING_OP_ACCEPT: u8 = 13;
/// Cancel a previously submitted operation by `user_data`.
pub const IORING_OP_ASYNC_CANCEL: u8 = 14;
/// `recv(2)`.
pub const IORING_OP_RECV: u8 = 27;
/// `send(2)`.
pub const IORING_OP_SEND: u8 = 26;

/// `sqe.ioprio` bit requesting multishot accept.
const IORING_ACCEPT_MULTISHOT: u16 = 1 << 0;

const MSG_NOSIGNAL: u32 = 0x4000;
const SOCK_CLOEXEC: u32 = 0o2000000;
const SOCK_NONBLOCK: u32 = 0o4000;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 0x01;
const MAP_POPULATE: i32 = 0x8000;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EBUSY: i32 = 16;

#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct IoUringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// One submission queue entry — the modern 64-byte layout shared by all
/// opcodes (unions flattened to the fields this backend uses).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct IoUringSqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    /// union { off, addr2 }
    off: u64,
    /// union { addr, splice_off_in }
    addr: u64,
    len: u32,
    /// union { rw_flags, poll32_events, accept_flags, msg_flags, ... }
    op_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    addr3: u64,
    pad2: u64,
}

/// A buffer pointer/length pair destined for an SQE.
///
/// Contract (upheld by `crate::uring`, see the module safety argument):
/// the memory stays valid and exclusively reserved for the kernel from
/// [`Ring::push`] until the operation's CQE is reaped or the ring fd is
/// closed.
#[derive(Debug, Clone, Copy)]
pub struct SqeBuf {
    /// Start of the buffer.
    pub ptr: *mut u8,
    /// Usable length in bytes.
    pub len: u32,
}

impl IoUringSqe {
    /// An all-zero SQE (opcode NOP, fd 0).
    pub const fn zeroed() -> Self {
        IoUringSqe {
            opcode: 0,
            flags: 0,
            ioprio: 0,
            fd: 0,
            off: 0,
            addr: 0,
            len: 0,
            op_flags: 0,
            user_data: 0,
            buf_index: 0,
            personality: 0,
            splice_fd_in: 0,
            addr3: 0,
            pad2: 0,
        }
    }

    /// The completion cookie this SQE was built with.
    #[allow(dead_code)]
    pub fn user_data(&self) -> u64 {
        self.user_data
    }

    /// A no-op that completes immediately with `res == 0`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn nop(user_data: u64) -> Self {
        IoUringSqe {
            opcode: IORING_OP_NOP,
            user_data,
            ..Self::zeroed()
        }
    }

    /// `recv(fd, buf, len, 0)`.
    pub fn recv(fd: i32, buf: SqeBuf, user_data: u64) -> Self {
        IoUringSqe {
            opcode: IORING_OP_RECV,
            fd,
            addr: buf.ptr as u64,
            len: buf.len,
            user_data,
            ..Self::zeroed()
        }
    }

    /// `send(fd, buf, len, MSG_NOSIGNAL)` — no `SIGPIPE` on a dead peer.
    pub fn send(fd: i32, buf: SqeBuf, user_data: u64) -> Self {
        IoUringSqe {
            opcode: IORING_OP_SEND,
            fd,
            addr: buf.ptr as u64,
            len: buf.len,
            op_flags: MSG_NOSIGNAL,
            user_data,
            ..Self::zeroed()
        }
    }

    /// `accept4(fd, NULL, NULL, SOCK_CLOEXEC | SOCK_NONBLOCK)`.
    ///
    /// With `multishot` the submission stays armed and posts one CQE per
    /// accepted connection until it errors or the kernel clears
    /// [`IORING_CQE_F_MORE`]; kernels before 5.19 fail it with `EINVAL`,
    /// which the backend downgrades to oneshot.
    pub fn accept(fd: i32, multishot: bool, user_data: u64) -> Self {
        IoUringSqe {
            opcode: IORING_OP_ACCEPT,
            fd,
            ioprio: if multishot {
                IORING_ACCEPT_MULTISHOT
            } else {
                0
            },
            op_flags: SOCK_CLOEXEC | SOCK_NONBLOCK,
            user_data,
            ..Self::zeroed()
        }
    }

    /// Cancel the in-flight operation submitted with `target` as its
    /// `user_data`. The target completes with `-ECANCELED` (or its real
    /// result if it raced ahead); this SQE completes with `0`, `-ENOENT`
    /// or `-EALREADY`, all of which callers may ignore.
    pub fn cancel(target: u64, user_data: u64) -> Self {
        IoUringSqe {
            opcode: IORING_OP_ASYNC_CANCEL,
            addr: target,
            user_data,
            ..Self::zeroed()
        }
    }
}

/// One completion queue entry.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct IoUringCqe {
    /// The cookie of the submission this completes.
    pub user_data: u64,
    /// Operation result: `>= 0` on success (bytes moved, accepted fd,
    /// poll mask…), a negated errno on failure.
    pub res: i32,
    /// CQE flags ([`IORING_CQE_F_MORE`] and friends).
    pub flags: u32,
}

#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct ProbeOp {
    op: u8,
    resv: u8,
    flags: u16,
    resv2: u32,
}

const IO_URING_OP_SUPPORTED: u16 = 1 << 0;
const PROBE_OPS: usize = 64;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct UringProbe {
    last_op: u8,
    ops_len: u8,
    resv: u16,
    resv2: [u32; 3],
    ops: [ProbeOp; PROBE_OPS],
}

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn mmap(addr: usize, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> usize;
    fn munmap(addr: usize, len: usize) -> i32;
}

fn cvt(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One `mmap`ed ring region, unmapped exactly once on drop.
#[derive(Debug)]
struct MmapRegion {
    ptr: usize,
    len: usize,
}

impl MmapRegion {
    fn map(fd: i32, len: usize, offset: i64) -> io::Result<MmapRegion> {
        let ptr = unsafe {
            mmap(
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                offset,
            )
        };
        if ptr == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion { ptr, len })
    }

    /// # Safety
    ///
    /// `offset + size_of::<T>()` must lie within the mapping and be
    /// properly aligned for `T` (the kernel-provided ring offsets are).
    unsafe fn at<T>(&self, offset: u32) -> *mut T {
        debug_assert!(offset as usize + std::mem::size_of::<T>() <= self.len);
        (self.ptr + offset as usize) as *mut T
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        unsafe { munmap(self.ptr, self.len) };
    }
}

/// Cached pointers into the SQ ring map.
#[derive(Debug)]
struct SqPointers {
    head: *const AtomicU32,
    tail: *const AtomicU32,
    flags: *const AtomicU32,
    array: *mut u32,
    mask: u32,
    entries: u32,
}

/// Cached pointers into the CQ ring map.
#[derive(Debug)]
struct CqPointers {
    head: *const AtomicU32,
    tail: *const AtomicU32,
    cqes: *const IoUringCqe,
    mask: u32,
}

/// An owned io_uring instance: the ring fd plus its mapped SQ/CQ/SQE
/// regions. See the module docs for the head/tail protocol and the
/// safety argument. `Ring` is intentionally **not** `Sync` — exactly one
/// consumer drives each ring, which is what makes the unsynchronised
/// local tail mirror sound.
#[derive(Debug)]
pub struct Ring {
    // Field order = drop order: close the fd (kernel stops producing)
    // before the maps go away.
    fd: OwnedFd,
    sq: SqPointers,
    cq: CqPointers,
    sqes_ptr: *mut IoUringSqe,
    _sq_region: MmapRegion,
    _cq_region: Option<MmapRegion>,
    _sqe_region: MmapRegion,
    features: u32,
    /// Mirror of the SQ tail (we are the only producer).
    local_tail: u32,
    /// SQEs published to the ring but not yet passed to `enter`.
    to_submit: u32,
}

// Safety: the raw pointers target the rings' shared maps, which live
// and die with the struct; &mut-only mutation plus the Acquire/Release
// head-tail protocol make a move to another thread sound.
unsafe impl Send for Ring {}

impl Ring {
    /// Create a ring with (at least) `entries` SQ slots.
    ///
    /// # Errors
    ///
    /// `ENOSYS` on kernels without io_uring, `EPERM` when sysctl
    /// `io_uring_disabled` forbids it, `ENOMEM` under mlock limits —
    /// callers treat any error as "backend unavailable".
    pub fn new(entries: u32) -> io::Result<Ring> {
        let mut params = IoUringParams::default();
        let fd = cvt(unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                entries as usize,
                std::ptr::addr_of_mut!(params) as usize,
            )
        })? as i32;
        let fd = OwnedFd::from_raw(fd);

        let sq_len = params.sq_off.array as usize + params.sq_entries as usize * 4;
        let cq_len = params.cq_off.cqes as usize
            + params.cq_entries as usize * std::mem::size_of::<IoUringCqe>();
        let single = params.features & IORING_FEAT_SINGLE_MMAP != 0;
        let sq_region = MmapRegion::map(
            fd.raw(),
            if single { sq_len.max(cq_len) } else { sq_len },
            IORING_OFF_SQ_RING,
        )?;
        let cq_region = if single {
            None
        } else {
            Some(MmapRegion::map(fd.raw(), cq_len, IORING_OFF_CQ_RING)?)
        };
        let sqe_region = MmapRegion::map(
            fd.raw(),
            params.sq_entries as usize * std::mem::size_of::<IoUringSqe>(),
            IORING_OFF_SQES,
        )?;

        // Safety: offsets come from the kernel for these exact maps.
        let (sq, cq, sqes_ptr) = unsafe {
            let cq_map = cq_region.as_ref().unwrap_or(&sq_region);
            (
                SqPointers {
                    head: sq_region.at(params.sq_off.head),
                    tail: sq_region.at(params.sq_off.tail),
                    flags: sq_region.at(params.sq_off.flags),
                    array: sq_region.at(params.sq_off.array),
                    mask: *sq_region.at::<u32>(params.sq_off.ring_mask),
                    entries: *sq_region.at::<u32>(params.sq_off.ring_entries),
                },
                CqPointers {
                    head: cq_map.at(params.cq_off.head),
                    tail: cq_map.at(params.cq_off.tail),
                    cqes: cq_map.at(params.cq_off.cqes),
                    mask: *cq_map.at::<u32>(params.cq_off.ring_mask),
                },
                sqe_region.at::<IoUringSqe>(0),
            )
        };
        let local_tail = unsafe { &*sq.tail }.load(Ordering::Relaxed);
        Ok(Ring {
            fd,
            sq,
            cq,
            sqes_ptr,
            _sq_region: sq_region,
            _cq_region: cq_region,
            _sqe_region: sqe_region,
            features: params.features,
            local_tail,
            to_submit: 0,
        })
    }

    /// The ring's descriptor: pollable, readable while the CQ holds
    /// unreaped entries. Stays owned by `self`.
    pub fn raw_fd(&self) -> i32 {
        self.fd.raw()
    }

    /// The `io_uring_params.features` bits the kernel reported.
    pub fn features(&self) -> u32 {
        self.features
    }

    /// SQ slots currently free.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn sq_space(&self) -> u32 {
        let head = unsafe { &*self.sq.head }.load(Ordering::Acquire);
        self.sq.entries - self.local_tail.wrapping_sub(head)
    }

    /// SQEs published but not yet handed to the kernel via [`Ring::enter`].
    pub fn pending_submissions(&self) -> u32 {
        self.to_submit
    }

    /// Publish one SQE. Returns `false` when the SQ is full — the caller
    /// should [`Ring::enter`] (freeing every slot) and retry; nothing is
    /// lost on a `false` return.
    pub fn push(&mut self, sqe: &IoUringSqe) -> bool {
        let head = unsafe { &*self.sq.head }.load(Ordering::Acquire);
        if self.local_tail.wrapping_sub(head) >= self.sq.entries {
            return false;
        }
        let idx = self.local_tail & self.sq.mask;
        // Safety: idx < entries bounds both arrays; the slot is free
        // (between kernel head and our tail) so no concurrent access.
        unsafe {
            *self.sqes_ptr.add(idx as usize) = *sqe;
            *self.sq.array.add(idx as usize) = idx;
        }
        self.local_tail = self.local_tail.wrapping_add(1);
        // Release-publish: the kernel's Acquire load of the tail sees
        // the SQE and array writes above.
        unsafe { &*self.sq.tail }.store(self.local_tail, Ordering::Release);
        self.to_submit += 1;
        true
    }

    /// One `io_uring_enter(2)`: submit every published SQE and fetch
    /// what is already complete (`GETEVENTS` with `min_complete == 0`
    /// moves overflowed CQEs into the ring and waits for nothing).
    /// Returns the number of SQEs the kernel consumed. `EINTR` is
    /// retried; `EAGAIN`/`EBUSY` (kernel out of internal resources)
    /// report `Ok(0)` with the unconsumed SQEs still queued for the next
    /// call.
    pub fn enter(&mut self) -> io::Result<u32> {
        loop {
            let ret = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.fd.raw() as usize,
                    self.to_submit as usize,
                    0usize,
                    IORING_ENTER_GETEVENTS as usize,
                    0usize,
                    0usize,
                )
            };
            if ret >= 0 {
                let consumed = ret as u32;
                self.to_submit -= consumed.min(self.to_submit);
                return Ok(consumed);
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(EINTR) => continue,
                Some(EAGAIN) | Some(EBUSY) => return Ok(0),
                _ => return Err(err),
            }
        }
    }

    /// Reap one CQE, or `None` when the CQ is empty.
    pub fn pop_cqe(&mut self) -> Option<IoUringCqe> {
        // We are the only head-writer; Relaxed read of our own store.
        let head = unsafe { &*self.cq.head }.load(Ordering::Relaxed);
        // Acquire pairs with the kernel's Release tail publication.
        let tail = unsafe { &*self.cq.tail }.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // Safety: head != tail means the kernel published this slot.
        let cqe = unsafe { *self.cq.cqes.add((head & self.cq.mask) as usize) };
        // Release frees the slot back to the kernel.
        unsafe { &*self.cq.head }.store(head.wrapping_add(1), Ordering::Release);
        Some(cqe)
    }

    /// Whether the kernel holds back-logged CQEs after a CQ overflow
    /// (`NODROP` kernels park them internally; an enter flushes them
    /// into the ring).
    pub fn cq_overflowed(&self) -> bool {
        let flags = unsafe { &*self.sq.flags }.load(Ordering::Acquire);
        flags & IORING_SQ_CQ_OVERFLOW != 0
    }

    /// Whether the kernel supports every opcode in `ops`
    /// (`IORING_REGISTER_PROBE`).
    ///
    /// # Errors
    ///
    /// `EINVAL` on pre-5.6 kernels without the probe registration.
    pub fn supports(&self, ops: &[u8]) -> io::Result<bool> {
        let mut probe = UringProbe {
            last_op: 0,
            ops_len: 0,
            resv: 0,
            resv2: [0; 3],
            ops: [ProbeOp::default(); PROBE_OPS],
        };
        cvt(unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                self.fd.raw() as usize,
                IORING_REGISTER_PROBE as usize,
                std::ptr::addr_of_mut!(probe) as usize,
                PROBE_OPS,
            )
        })?;
        Ok(ops.iter().all(|&op| {
            probe
                .ops
                .get(op as usize)
                .is_some_and(|p| p.flags & IO_URING_OP_SUPPORTED != 0)
        }))
    }
}

/// The running kernel's release string (`uname -r` equivalent), for
/// probe diagnostics and benchmark metadata.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Probe whether this kernel can drive the uring backend: one trial
/// `io_uring_setup`, the feature bits the backend relies on, and an
/// opcode probe for everything the completion path submits.
///
/// # Errors
///
/// A human-readable reason (logged by `Backend::auto` fallback).
pub fn probe() -> Result<(), String> {
    let kernel = kernel_release();
    let ring =
        Ring::new(8).map_err(|e| format!("io_uring_setup failed on kernel {kernel}: {e}"))?;
    if ring.features() & IORING_FEAT_NODROP == 0 {
        return Err(format!("kernel {kernel} lacks IORING_FEAT_NODROP"));
    }
    let needed = [
        IORING_OP_ACCEPT,
        IORING_OP_ASYNC_CANCEL,
        IORING_OP_RECV,
        IORING_OP_SEND,
    ];
    match ring.supports(&needed) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!("kernel {kernel} io_uring lacks required opcodes")),
        Err(e) => Err(format!(
            "io_uring opcode probe failed on kernel {kernel}: {e}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_or_skip(entries: u32) -> Option<Ring> {
        match probe() {
            Ok(()) => Some(Ring::new(entries).expect("probe passed, setup works")),
            Err(reason) => {
                eprintln!("skipping io_uring test: {reason}");
                None
            }
        }
    }

    #[test]
    fn nop_round_trip() {
        let Some(mut ring) = ring_or_skip(8) else {
            return;
        };
        assert!(ring.push(&IoUringSqe::nop(77)));
        assert_eq!(ring.pending_submissions(), 1);
        let consumed = ring.enter().unwrap();
        assert_eq!(consumed, 1);
        assert_eq!(ring.pending_submissions(), 0);
        let cqe = ring.pop_cqe().expect("nop completes");
        assert_eq!(cqe.user_data, 77);
        assert_eq!(cqe.res, 0);
        assert!(ring.pop_cqe().is_none());
    }

    #[test]
    fn full_sq_reports_false_then_recovers_after_enter() {
        let Some(mut ring) = ring_or_skip(2) else {
            return;
        };
        let entries = ring.sq.entries;
        for i in 0..entries {
            assert!(ring.push(&IoUringSqe::nop(u64::from(i))), "slot {i}");
        }
        assert!(!ring.push(&IoUringSqe::nop(999)), "SQ full");
        assert_eq!(ring.sq_space(), 0);
        ring.enter().unwrap();
        assert!(ring.push(&IoUringSqe::nop(999)), "space after enter");
        // All NOPs (including the retried one) complete, none lost.
        ring.enter().unwrap();
        let mut got = Vec::new();
        while let Some(cqe) = ring.pop_cqe() {
            got.push(cqe.user_data);
        }
        assert_eq!(got.len(), entries as usize + 1);
        assert!(got.contains(&999));
    }

    #[test]
    fn cq_overflow_is_flushed_by_the_next_enter() {
        let Some(mut ring) = ring_or_skip(2) else {
            return;
        };
        // Complete more NOPs than the CQ (twice the SQ) holds, reaping none.
        let total = 3 * ring.sq.entries;
        for i in 0..total {
            if !ring.push(&IoUringSqe::nop(u64::from(i))) {
                ring.enter().unwrap();
                assert!(ring.push(&IoUringSqe::nop(u64::from(i))));
            }
        }
        ring.enter().unwrap();
        assert!(ring.cq_overflowed(), "the kernel holds CQEs back");
        let mut got = 0;
        while ring.pop_cqe().is_some() {
            got += 1;
        }
        assert!(got < total);
        ring.enter().unwrap();
        while ring.pop_cqe().is_some() {
            got += 1;
        }
        assert_eq!(got, total, "no completion lost to the overflow");
        assert!(!ring.cq_overflowed());
    }

    #[test]
    fn probe_reports_this_kernels_verdict() {
        // Must never panic; either outcome is fine, the reason must be
        // non-empty on failure.
        match probe() {
            Ok(()) => {}
            Err(reason) => assert!(!reason.is_empty()),
        }
    }
}
