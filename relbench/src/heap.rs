//! Peak heap bytes held in large allocations by the whole process (the
//! server under test runs in it), counted by a wrapper around the system
//! allocator. Unlike resident memory, the count does not depend on how the
//! allocator's arenas happen to be spread over threads.
//!
//! Only allocations of at least [`LARGE`] bytes are counted: they hold the
//! domain-sized buffers (histograms, observations, strategy scratch) where
//! work moved into memory shows, and they are rare enough that counting
//! them costs nothing measurable. Counting every allocation put two
//! contended atomic operations on each of the service's many small ones
//! and cut keyed release throughput by about a third.
//!
//! The benchmark's own sample storage grows with the number of ops, so a
//! faster build would hold more of it; it allocates and frees it inside
//! [`uncounted`], which leaves it out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest allocation counted, in bytes.
pub const LARGE: usize = 64 << 10;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's large allocations and frees left out of
/// the count. Memory allocated inside must be freed inside as well.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = UNCOUNTED.with(|u| u.replace(true));
    let value = f();
    UNCOUNTED.with(|u| u.set(was));
    value
}

fn counted() -> bool {
    UNCOUNTED.try_with(|u| !u.get()).unwrap_or(true)
}

fn grow(bytes: usize) {
    if bytes >= LARGE && counted() {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if bytes >= LARGE && counted() {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, which is `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Starts the peak over from the bytes live now, so what set-up made and
/// freed again does not count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most bytes live at once in large allocations since the last
/// [`reset_peak`], less `bench_bytes` the benchmark itself held all along
/// (its exact-answer state), in MiB.
pub fn peak_mb(bench_bytes: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(bench_bytes) as f64 / (1024.0 * 1024.0)
}
