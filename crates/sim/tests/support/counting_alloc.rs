//! A counting global allocator for the no-allocation pins. Every
//! `alloc` and `realloc` the current thread makes bumps a thread-local
//! counter, and every byte it allocates or frees moves a thread-local
//! live-bytes count with its high-water mark, so a test measures what a
//! closure really allocated, and how much heap it held at once, instead
//! of asking the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached since `peak_live_bytes` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live-bytes count by `delta`, raising its peak.
fn moved(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        moved(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        moved(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, returning its result and the number of heap allocations
/// (`alloc` + `realloc`) the calling thread made meanwhile.
pub fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (result, ALLOCS.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the most heap the calling thread
/// held meanwhile beyond what it held when `f` started, in bytes. A
/// `realloc` counts as its new size replacing its old one.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.with(Cell::get);
    let outer = PEAK.with(|peak| peak.replace(base));
    let result = f();
    let peak = PEAK.with(|peak| peak.replace(outer.max(peak.get())));
    (result, (peak - base) as u64)
}

/// Bytes the calling thread has allocated and not freed.
#[allow(dead_code)] // not every test binary that includes this file reads it
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
