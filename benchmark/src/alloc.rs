//! A counting global allocator for the traced run.
//!
//! Outside `trace` the counter is off and every call is one relaxed load and
//! a branch in front of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator with optional counting.
pub struct Counting;

// Statistics only: no other data is published through these, so `Relaxed`
// suffices (the benchmark is single-threaded anyway).
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative allocation statistics since [`start`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live byte count seen. Frees of memory allocated before
    /// [`start`] count against it, so start before building what you measure.
    pub peak_live: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK_LIVE.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// The counters as they stand.
pub fn snapshot() -> AllocStats {
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK_LIVE.load(Relaxed).max(0) as u64,
    }
}

/// Switches counting off and returns the final counters.
pub fn stop() -> AllocStats {
    ENABLED.store(false, Relaxed);
    snapshot()
}
