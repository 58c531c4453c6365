//! Allocation-regression guard for float training: `Mlp::train` sizes
//! its working set (activations, deltas, gradient banks, the shuffle
//! order) once per call, so its allocation count depends on the model's
//! depth and not on how many samples, batches or epochs it runs — and
//! a thread-local counting global allocator asserts exactly that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_ml::{Mlp, MlpConfig, TrainParams};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    fn record() {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping only
// touches const-initialized thread-locals (no lazy init, no recursion
// into the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// Allocations of one `train` call on a fresh model.
fn train_allocations(cfg: &MlpConfig, x: &[Vec<f32>], y: &[usize], params: &TrainParams) -> u64 {
    let mut mlp = Mlp::new(cfg, 3);
    allocations_in(|| {
        mlp.train(x, y, params);
    })
}

#[test]
fn training_allocates_per_call_not_per_sample() {
    // The paper's anomaly DNN (four layers) on 500 rows: 16 batches an
    // epoch, the last one ragged.
    let mut rng = StdRng::seed_from_u64(1);
    let x: Vec<Vec<f32>> =
        (0..500).map(|_| (0..6).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    let y: Vec<usize> = (0..500).map(|i| i % 2).collect();
    let cfg = MlpConfig::anomaly_dnn();
    let one = train_allocations(&cfg, &x, &y, &TrainParams { epochs: 1, ..TrainParams::default() });
    let five =
        train_allocations(&cfg, &x, &y, &TrainParams { epochs: 5, ..TrainParams::default() });
    let whole = train_allocations(
        &cfg,
        &x,
        &y,
        &TrainParams { epochs: 1, batch_size: 500, ..TrainParams::default() },
    );
    assert_eq!(one, five, "5 epochs allocated {five} times, 1 epoch {one}");
    assert_eq!(one, whole, "batches of 500 allocated {whole} times, batches of 32 {one}");
    // The shuffle order, the two delta buffers and 4 × 4 per-layer
    // buffers, plus the four `Vec`s holding those.
    assert!(one <= 32, "one train call allocated {one} times");
}
