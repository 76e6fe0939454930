//! A live-byte counting allocator shared by the heap-guard suites. A
//! suite that declares `mod heap;` installs it as its global allocator,
//! so each such binary should hold one test: no other test's
//! allocations then share the counters.

// Each suite reads only the measurements it gates.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`], counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations of at least [`LARGE_FROM`] bytes, for [`count_large`].
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Counts an allocation of `bytes` if it is large.
fn note(bytes: usize) {
    if bytes >= LARGE_FROM.load(Relaxed) {
        LARGE.fetch_add(1, Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
            note(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
            note(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => {
                    grow(more);
                    note(new_size);
                }
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f`'s heap use reached beyond what was live before it, at its
/// peak and once it returned (what its result still holds).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub peak: usize,
    pub held: usize,
}

/// Runs `f`, measuring its [`Usage`].
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let value = f();
    let usage = Usage {
        peak: PEAK.load(Relaxed) - before,
        held: LIVE.load(Relaxed).saturating_sub(before),
    };
    (value, usage)
}

/// Runs `f`, counting its allocations of at least `bytes` bytes (a
/// `realloc` that grows to that size counts as one).
pub fn count_large<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, usize) {
    LARGE.store(0, Relaxed);
    LARGE_FROM.store(bytes, Relaxed);
    let value = f();
    LARGE_FROM.store(usize::MAX, Relaxed);
    (value, LARGE.load(Relaxed))
}
