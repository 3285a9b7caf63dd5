//! A counting global allocator for the paper's no-runtime-allocation
//! claim. It forwards to the system allocator and, only while armed
//! (the traced window), counts allocations made by threads other than
//! the driver's — the program's own worker threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator cannot allocate or recurse.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

pub struct CountingAlloc;

#[inline]
fn note() {
    if ARMED.load(Ordering::Relaxed) && !EXEMPT.with(Cell::get) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping beside it touches only atomics and a
// const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Exempt the calling thread (the driver) from the count.
pub fn exempt_this_thread() {
    EXEMPT.with(|e| e.set(true));
}

/// Start counting; returns the count so far.
pub fn arm() -> u64 {
    ARMED.store(true, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed)
}

/// Stop counting; returns the count so far.
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_other_threads_only_while_armed() {
        let churn = |n: usize| {
            for _ in 0..n {
                drop(std::hint::black_box(Vec::<u8>::with_capacity(16)));
            }
        };
        exempt_this_thread();
        let before = arm();
        let worker = std::thread::spawn(move || churn(10_000));
        churn(1_000_000);
        worker.join().unwrap();
        let counted = disarm() - before;
        // Other tests' threads allocate too, but nowhere near a million
        // times: the worker's allocations count, this thread's do not.
        assert!(
            counted >= 10_000,
            "the worker's allocations must count: {counted}"
        );
        assert!(
            counted < 1_000_000,
            "the exempt thread must not count: {counted}"
        );
        let idle = disarm();
        churn(100);
        assert_eq!(disarm(), idle, "nothing counts while disarmed");
    }
}
