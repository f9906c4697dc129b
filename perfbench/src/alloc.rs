//! A counting global allocator: live heap bytes and their high-water
//! mark, so a layer call can report the heap it peaked at beside the
//! OS's resident-set high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to the system allocator and counts bytes in flight.
pub struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let now = CURRENT.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// only and never influence the pointers handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (and so from `System`)
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator and the caller
        // guarantees `new_size` is valid for `layout`'s alignment.
        let q = unsafe { System.realloc(ptr, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

/// Highest live heap byte count since the process started.
pub fn peak() -> u64 {
    PEAK.load(Relaxed) as u64
}

/// Runs `f` and returns its result with the heap peak reached during the
/// call, measured above the live bytes at entry. Meant for calls made one
/// at a time from one thread; the process-wide peak survives the window.
pub fn window<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let outer = PEAK.load(Relaxed);
    let start = CURRENT.load(Relaxed);
    PEAK.store(start, Relaxed);
    let out = f();
    let inner = PEAK.load(Relaxed);
    PEAK.fetch_max(outer, Relaxed);
    (out, inner.saturating_sub(start) as u64)
}
