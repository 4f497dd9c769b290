//! An opt-in counting global allocator — the steady-state allocation
//! audit technique, packaged.
//!
//! Install it per binary (typically an integration-test binary, since it
//! counts for the whole process):
//!
//! ```ignore
//! use fgbd_oracle::alloc::AllocGauge;
//!
//! #[global_allocator]
//! static GLOBAL: AllocGauge = AllocGauge::new();
//!
//! let before = GLOBAL.thread_allocs();
//! // ... hot section ...
//! let during = GLOBAL.thread_allocs() - before;
//! ```
//!
//! Two things are tracked, each one relaxed atomic RMW per operation:
//!
//! * allocation *events* (alloc, realloc, alloc_zeroed) — the
//!   steady-state "does this loop allocate?" audit. Events are also
//!   counted per thread ([`AllocGauge::thread_allocs`]): the test harness
//!   runs the tests of one binary on parallel threads, so a section
//!   audits its own thread's count, not the process total;
//! * *live bytes* and their high-water mark — the bounded-memory audit
//!   the online monitor's flat-memory test uses ([`AllocGauge::peak_bytes`]
//!   relative to a [`AllocGauge::reset_peak`] baseline approximates VmHWM
//!   without reading `/proc`, and works on any platform).
//!
//! The gauge is always live once installed; it does not consult
//! `fgbd_obsv::enabled` because the counting itself is the opt-in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocation events made by this thread. Const-initialised and
    /// without a destructor, so the allocator can touch it at any point of
    /// a thread's life without allocating or registering TLS teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counting wrapper around the [`System`] allocator.
#[derive(Debug)]
pub struct AllocGauge {
    allocs: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl AllocGauge {
    /// A zeroed gauge, usable in `#[global_allocator]` position.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> AllocGauge {
        AllocGauge {
            allocs: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Total allocation events since process start.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Allocation events made by the calling thread since it started —
    /// unaffected by what other threads allocate meanwhile.
    pub fn thread_allocs(&self) -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`AllocGauge::live_bytes`] since process start
    /// (or the last [`AllocGauge::reset_peak`]).
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current live size, so a test
    /// can measure the peak of one section in isolation.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    #[inline]
    fn count_event(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // `try_with`: never panic inside the allocator, even if the slot
        // were unavailable during thread teardown.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    #[inline]
    fn grow(&self, bytes: u64) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    #[inline]
    fn shrink(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: defers to `System` for every operation; only adds counters.
unsafe impl GlobalAlloc for AllocGauge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count_event();
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrink(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count_event();
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Success moves the block: the old size is gone, the new size
            // is live. (On failure the original block stays untouched.)
            self.shrink(layout.size() as u64);
            self.grow(new_size as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count_event();
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size() as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_counts_through_the_global_alloc_interface() {
        // Not installed as the global allocator here; exercise the trait
        // directly so the test stays hermetic.
        let gauge = AllocGauge::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let mine_before = gauge.thread_allocs();
        unsafe {
            let p = gauge.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(gauge.live_bytes(), 64);
            let p = gauge.realloc(p, layout, 128);
            assert!(!p.is_null());
            assert_eq!(gauge.live_bytes(), 128);
            gauge.dealloc(p, Layout::from_size_align(128, 8).unwrap());
            let q = gauge.alloc_zeroed(layout);
            assert!(!q.is_null());
            gauge.dealloc(q, layout);
        }
        assert_eq!(gauge.allocs(), 3);
        assert_eq!(gauge.thread_allocs() - mine_before, 3);
        // Another thread's events reach the process total, not this
        // thread's count.
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let before = gauge.thread_allocs();
                let p = gauge.alloc(layout);
                assert!(!p.is_null());
                gauge.dealloc(p, layout);
                assert_eq!(gauge.thread_allocs() - before, 1);
            });
        });
        assert_eq!(gauge.allocs(), 4);
        assert_eq!(gauge.thread_allocs() - mine_before, 3);
        assert_eq!(gauge.live_bytes(), 0);
        // Peak saw the 128-byte realloc high point and survives the frees…
        assert_eq!(gauge.peak_bytes(), 128);
        // …until reset re-anchors it at the (now zero) live size.
        gauge.reset_peak();
        assert_eq!(gauge.peak_bytes(), 0);
    }
}
