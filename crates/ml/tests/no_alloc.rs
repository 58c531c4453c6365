//! Allocation-regression guards for float training and calibration.
//!
//! `Mlp::train` sizes its working set (the lane batch, deltas, gradient
//! banks, the shuffle order) once per call, so its allocation count
//! depends on the model's depth and not on how many samples, batches or
//! epochs it runs, and its bytes beyond the shuffle order on the batch
//! size and layer widths alone. `QuantizedMlp::quantize` folds each
//! activation range as the calibration rows go through, so its bytes do
//! not grow with the row count. A thread-local counting global allocator
//! asserts all three.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_ml::{Mlp, MlpConfig, QuantizedMlp, TrainParams};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    /// Counts one allocation call of `bytes` requested bytes.
    fn record(bytes: usize) {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
                BYTES.with(|b| b.set(b.get() + bytes as u64));
            }
        });
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping only
// touches const-initialized thread-locals (no lazy init, no recursion
// into the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocation calls, requested bytes)` made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), BYTES.with(|b| b.get()))
}

/// `rows` rows of the AD DNN's six uniform features and alternating
/// labels.
fn rows(rows: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = (0..rows).map(|_| (0..6).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    (x, (0..rows).map(|i| i % 2).collect())
}

/// Allocations of one `train` call on a fresh model.
fn train_allocations(x: &[Vec<f32>], y: &[usize], params: &TrainParams) -> (u64, u64) {
    let mut mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 3);
    allocations_in(|| {
        mlp.train(x, y, params);
    })
}

#[test]
fn training_allocates_per_call_not_per_sample() {
    // The paper's anomaly DNN (four layers) on 500 rows: 16 batches an
    // epoch, the last one ragged.
    let (x, y) = rows(500);
    let (one, _) = train_allocations(&x, &y, &TrainParams { epochs: 1, ..TrainParams::default() });
    let (five, _) = train_allocations(&x, &y, &TrainParams { epochs: 5, ..TrainParams::default() });
    let whole = TrainParams { epochs: 1, batch_size: 500, ..TrainParams::default() };
    let (whole, _) = train_allocations(&x, &y, &whole);
    assert_eq!(one, five, "5 epochs allocated {five} times, 1 epoch {one}");
    assert_eq!(one, whole, "batches of 500 allocated {whole} times, batches of 32 {one}");
    // The shuffle order, the lane batch's input and 2 × 4 per-layer
    // activation buffers, the two delta buffers, the input chunks, the
    // softmax scratch and 2 × 4 gradient banks, plus the four `Vec`s
    // holding those.
    assert!(one <= 32, "one train call allocated {one} times");
}

#[test]
fn training_bytes_beyond_the_shuffle_order_grow_with_neither_rows_nor_epochs() {
    // Beyond the shuffle order (one `usize` per row), one call's bytes
    // are its lanes × widest-layer working set and the gradient banks.
    let order = |rows: usize| (rows * std::mem::size_of::<usize>()) as u64;
    let params = TrainParams { epochs: 1, ..TrainParams::default() };
    let (small_x, small_y) = rows(500);
    let (large_x, large_y) = rows(5_000);
    let (_, small) = train_allocations(&small_x, &small_y, &params);
    let (_, large) = train_allocations(&large_x, &large_y, &params);
    let (_, longer) = train_allocations(&small_x, &small_y, &TrainParams { epochs: 4, ..params });
    assert_eq!(small - order(500), large - order(5_000), "500 rows vs 5,000 rows");
    assert_eq!(small, longer, "1 epoch vs 4 epochs");
    // 32 lanes of the widest layer (12 units) is 1.5 KiB a buffer; the
    // whole working set stays within a few of those.
    assert!(small - order(500) <= 16 * 1024, "{} bytes", small - order(500));
}

#[test]
fn quantization_bytes_do_not_grow_with_calibration_rows() {
    let (x, y) = rows(2_000);
    let mut mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 3);
    mlp.train(&x, &y, &TrainParams { epochs: 1, ..TrainParams::default() });
    let quantize = |rows: usize| allocations_in(|| drop(QuantizedMlp::quantize(&mlp, &x[..rows])));
    let (_, few) = quantize(200);
    let (_, many) = quantize(2_000);
    assert_eq!(few, many, "200 calibration rows took {few} bytes, 2,000 took {many}");
}
