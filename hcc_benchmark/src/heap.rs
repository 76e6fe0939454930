//! Live-heap accounting behind `peak_heap_mb`: the system allocator
//! wrapped with two counters.
//!
//! The kernel's peak-RSS mark is no measure of one iteration: the
//! allocator keeps freed pages, and the resident total varies by several
//! percent between identical processes. Counting the bytes the program
//! holds gives the same peak for the same inputs in every process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`], counting live bytes and their peak.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // The plain load skips the read-modify-write on the common path.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        new
    }
}

/// Restarts the peak from the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_an_allocation_that_is_gone() {
        reset_peak();
        let block = vec![7u8; 1 << 20];
        let during = LIVE.load(Relaxed);
        std::hint::black_box(&block);
        drop(block);
        // Other test threads allocate and free too, so only a lower
        // bound holds.
        assert!(during >= 1 << 20);
        assert!(peak() >= during);
    }
}
