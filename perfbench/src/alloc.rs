//! A counting global allocator: exact per-thread host-cost counters.
//!
//! Every allocation, reallocation and byte requested on the calling thread
//! is counted, together with the live heap and its peak. The counters are
//! thread-local, so `cargo test`'s parallel test threads and the test
//! harness itself never leak into a measurement. This is deliberately not
//! simcore's `prof-alloc` feature: enabling that feature anywhere in a build
//! adds an `alloc` section to every profile report the simulator renders.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator. Installed as the global allocator by the crate root.
pub struct CountingAlloc;

/// Cumulative counters of the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// `alloc` and `alloc_zeroed` calls.
    pub allocs: u64,
    /// `realloc` calls.
    pub reallocs: u64,
    /// Bytes requested: each allocation's size plus each reallocation's new
    /// size.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter deltas from `earlier` to `self`.
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs - earlier.allocs,
            reallocs: self.reallocs - earlier.reallocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Heap operations: allocations plus reallocations.
    pub fn ops(self) -> u64 {
        self.allocs + self.reallocs
    }
}

thread_local! {
    // Const-initialized `Cell`s of `Copy` types register no destructor and
    // never allocate, so the allocator can touch them at any point of a
    // thread's life without recursing into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(by)));
}

fn adjust_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        adjust_live(layout.size() as i64);
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        adjust_live(layout.size() as i64);
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        adjust_live(-(layout.size() as i64));
        // SAFETY: the caller meets the requirements of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS, 1);
        bump(&BYTES, new_size as u64);
        adjust_live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller meets the requirements of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's cumulative counters.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Restarts peak tracking at the current live heap and returns that level.
pub fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.with(Cell::get)
}
