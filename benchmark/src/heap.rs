//! A counting global allocator: the benchmark's memory metric is the peak
//! of live heap bytes, an exact count, not the resident-set high-water
//! mark. `VmHWM` follows glibc's placement decisions — on this code it
//! moves by up to 16 % with the length of an environment string (see
//! README.md) — so it cannot carry a 10 % bound; live bytes can.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Keeps a counter on a cache line of its own: `LIVE` is written by every
/// rank thread on every allocation, `PEAK` almost never.
#[repr(align(64))]
struct Counter(AtomicUsize);

// Relaxed everywhere: the counters are statistics and publish no other data.
static LIVE: Counter = Counter(AtomicUsize::new(0));
static PEAK: Counter = Counter(AtomicUsize::new(0));

pub struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.0.fetch_add(by, Relaxed) + by;
    if live > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters never touch
// the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, forwarded.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, forwarded.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.0.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.0.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// The most heap bytes that were live at once since the process started.
pub fn peak_bytes() -> usize {
    PEAK.0.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation_after_it_is_freed() {
        let before = peak_bytes();
        let size = before + (8 << 20);
        let v = std::hint::black_box(vec![1u8; size]);
        drop(v);
        let after = peak_bytes();
        assert!(after >= size, "peak {after} misses a {size}-byte allocation");
    }
}
