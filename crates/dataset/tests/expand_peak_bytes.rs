//! Peak-memory guard for trace expansion.
//!
//! `PacketTrace::expand` emits packets in arrival order while it draws
//! them, holding back only the packets still in flight, instead of
//! drawing the whole trace and sorting it (a stable sort's scratch is a
//! second copy of the trace). A thread-local counting global allocator
//! tracks live bytes and their high-water mark; the mark during an
//! expansion must stay close to the bytes of the trace it returns, and
//! those bytes are its packets alone, 32 a packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use taurus_dataset::{KddGenerator, PacketTrace, TraceConfig, TracePacket};

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    /// Adds `grow` bytes and removes `shrink` bytes from this thread's
    /// live total, raising the high-water mark as needed.
    fn record(grow: usize, shrink: usize) {
        let live = LIVE.with(|l| {
            let live = (l.get() + grow as u64).saturating_sub(shrink as u64);
            l.set(live);
            live
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping only
// touches const-initialized thread-locals (no lazy init, no recursion
// into the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the most bytes this thread held
/// live at once while it ran, beyond what was live before the call.
fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

#[test]
fn expanding_holds_little_beyond_the_trace_it_returns() {
    // The records are the caller's input: live before the call, moved
    // in, and freed inside it. So the peak counted here is only what
    // `expand` allocates, and the trace it returns is only its packets.
    let records = KddGenerator::new(42).take(6_000);
    let config = TraceConfig { seed: 42 ^ 0xBEEF, ..TraceConfig::default() };
    let (trace, extra) = peak_bytes_of(|| PacketTrace::expand(records, &config));
    let own = (trace.packets.capacity() * size_of::<TracePacket>()) as u64;
    assert!(trace.packets.len() > 50_000, "a trace of realistic size");
    assert_eq!(own, trace.packets.len() as u64 * 32, "the trace owns exactly 32 B a packet");
    assert!(
        extra * 4 <= own * 5,
        "expand peaked at {extra} B live for a {own} B trace ({:.2}x > 1.25x)",
        extra as f64 / own as f64
    );
}
