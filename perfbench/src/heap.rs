//! Byte-counting global allocator: the high-water scheme of
//! `crates/bench/benches/streaming_memory.rs`, copied so the benchmark
//! binary can report `peak_heap_mib` without touching that bench.
//!
//! The binary installs [`MeteredAllocator`] as its global allocator;
//! anything else linking this library (the tests) keeps the system
//! allocator and reads zero peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting live bytes and their high-water mark.
pub struct MeteredAllocator;

static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout, so `System` upholds the `GlobalAlloc` contract;
// the counters are plain statistics that publish no other data, so
// `Relaxed` ordering suffices. `MeteredAllocator` has no fields.
unsafe impl GlobalAlloc for MeteredAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let now =
            CURRENT_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let now = CURRENT_BYTES.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Start a metering window: the peak restarts from the bytes live now,
/// which are returned as the window's baseline.
pub fn start_window() -> u64 {
    let baseline = CURRENT_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(baseline, Ordering::SeqCst);
    baseline
}

/// Peak heap growth since [`start_window`] returned `baseline`, in bytes.
pub fn peak_since(baseline: u64) -> u64 {
    PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(baseline)
}
