//! Allocation-regression guard for the CGRA hot path: after warm-up,
//! [`CgraSim::process_into`] must perform **zero** heap allocations per
//! packet — the whole point of the precompiled [`ExecPlan`] slab design.
//!
//! A counting global allocator (thread-local, so parallel test threads
//! in this binary cannot interfere) wraps the system allocator; the
//! steady-state loop replays packets through every microbenchmark
//! program, a recurrent state graph and an MLP of fused dense layers,
//! and asserts the counter stayed at zero; the across-packets
//! [`CgraSim::process_verdicts`] is held to the same, around live
//! program swaps.
//!
//! [`CgraSim::process_into`]: taurus_cgra::CgraSim::process_into
//! [`CgraSim::process_verdicts`]: taurus_cgra::CgraSim::process_verdicts
//! [`ExecPlan`]: taurus_cgra

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taurus_cgra::{CgraSim, PreparedProgram, PACKETS};
use taurus_compiler::{compile, CompileOptions, GridConfig};
use taurus_fixed::quant::Requantizer;
use taurus_ir::{microbench, GraphBuilder, MapOp};

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

/// Runs `f` with allocation counting enabled on this thread and returns
/// how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

#[test]
fn steady_state_process_into_allocates_nothing() {
    for name in microbench::ALL_MICROBENCHMARKS {
        let g = microbench::by_name(name);
        let p = compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
        let mut sim = CgraSim::new(&p);
        let w = g.input_width();
        let inputs: Vec<Vec<i32>> = (0..8)
            .map(|k| (0..w).map(|j| ((k * 31 + j * 7) % 255) as i32 - 127).collect())
            .collect();

        // Warm-up: grows the output buffers to steady state.
        let mut outputs = Vec::new();
        for x in &inputs {
            sim.process_into(x, &mut outputs);
        }

        let n = allocations_in(|| {
            for _ in 0..20 {
                for x in &inputs {
                    sim.process_into(x, &mut outputs);
                }
            }
        });
        assert_eq!(n, 0, "{name}: steady-state process_into allocated {n} times");
    }
}

#[test]
fn steady_state_recurrent_state_program_allocates_nothing() {
    // A stateful accumulator exercises StateRead/StateWrite commit paths.
    let mut b = GraphBuilder::new();
    let x = b.input(4);
    let s = b.state("acc", 4);
    let prev = b.state_read(s);
    let sum = b.map(MapOp::Add, x, prev);
    let wr = b.state_write(s, sum);
    let top = b.reduce(taurus_ir::ReduceOp::Max, wr);
    b.output(wr);
    b.output(top);
    let g = b.finish().expect("valid");
    let p = compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
    let mut sim = CgraSim::new(&p);

    let mut outputs = Vec::new();
    for k in 0..4 {
        sim.process_into(&[k, k + 1, k + 2, k + 3], &mut outputs);
    }
    let n = allocations_in(|| {
        for k in 0..200 {
            sim.process_into(&[k, -k, k / 2, 1], &mut outputs);
        }
    });
    assert_eq!(n, 0, "stateful steady state allocated {n} times");
}

#[test]
fn retargeting_between_programs_of_one_shape_allocates_nothing() {
    // A live model update swaps two handles and rewinds the buffers the
    // simulator already owns: same shape in, same shape out, nothing
    // compiled, nothing allocated — stateful program included.
    let mut b = GraphBuilder::new();
    let x = b.input(4);
    let s = b.state("acc", 4);
    let prev = b.state_read(s);
    let sum = b.map(MapOp::Add, x, prev);
    let wr = b.state_write(s, sum);
    b.output(wr);
    let g = b.finish().expect("valid");
    let compile = || compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
    let (first, second) = (PreparedProgram::new(compile()), PreparedProgram::new(compile()));
    let mut sim = CgraSim::shared(first.clone());
    let mut outputs = Vec::new();
    sim.process_into(&[1, 2, 3, 4], &mut outputs);

    let n = allocations_in(|| {
        for k in 0..50 {
            sim.retarget(if k % 2 == 0 { second.clone() } else { first.clone() });
            sim.process_into(&[k, 1, 2, 3], &mut outputs);
        }
    });
    assert_eq!(n, 0, "retarget allocated {n} times");
    assert_eq!(outputs, vec![vec![49, 1, 2, 3]], "state restarted at every swap");
}

/// The AD-DNN's shape, lowered as the frontend lowers an MLP: each
/// layer `map_reduce_rows → add_bias → requant → lookup`, which the plan
/// runs as one dense op with the requant → LUT fused, every hidden
/// layer's input proven int8. `salt` varies the weights, not the shape.
fn mlp(salt: usize) -> taurus_compiler::GridProgram {
    let widths = [6, 12, 6, 3, 1];
    let mut b = GraphBuilder::new();
    let mut h = b.input(widths[0]);
    for (l, pair) in widths.windows(2).enumerate() {
        let (cols, rows) = (pair[0], pair[1]);
        let w = b.weights(
            format!("l{l}"),
            rows,
            cols,
            (0..rows * cols).map(|i| ((i + salt) * 37 % 255) as i8).collect(),
        );
        let dot = b.map_reduce_rows(w, h, 3);
        let biased = b.add_bias(dot, (0..rows as i32).map(|r| r * 101 - 400).collect());
        let pre = b.requant(biased, Requantizer::from_real_multiplier(0.004, -3));
        let table = b.lut((0..256).map(|i| ((i - 128) / 2) as i8).collect());
        h = b.lookup(pre, table);
    }
    b.output(h);
    let g = b.finish().expect("valid");
    compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits")
}

#[test]
fn steady_state_fused_dense_chain_allocates_nothing() {
    let mut sim = CgraSim::new(&mlp(0));
    let inputs: Vec<Vec<i32>> =
        (0..8).map(|k| (0..6).map(|j| ((k * 31 + j * 7) % 255) - 127).collect()).collect();

    let mut outputs = Vec::new();
    for x in &inputs {
        sim.process_into(x, &mut outputs);
    }
    let n = allocations_in(|| {
        for _ in 0..20 {
            for x in &inputs {
                sim.process_into(x, &mut outputs);
                sim.process_verdict(x);
            }
        }
    });
    assert_eq!(n, 0, "fused dense chain: steady-state process_into allocated {n} times");
}

#[test]
fn process_verdicts_across_packets_and_retargets_allocate_nothing() {
    // The across-packets kernel runs out of the lanes the simulator
    // sized when it was built, and a live swap between two programs of
    // one shape rewinds them in place: a whole group, a ragged one and
    // a lone packet, around every swap.
    let (first, second) = (PreparedProgram::new(mlp(0)), PreparedProgram::new(mlp(5)));
    let mut sim = CgraSim::shared(first.clone());
    // The across-packets kernel is AVX2; without it every plan runs
    // packet by packet.
    #[cfg(target_arch = "x86_64")]
    assert_eq!(sim.runs_across_packets(), std::arch::is_x86_feature_detected!("avx2"));
    if !sim.runs_across_packets() {
        return;
    }
    let rows: Vec<Vec<i32>> =
        (0..8).map(|k| (0..6).map(|j| ((k * 31 + j * 7) % 255) - 127).collect()).collect();
    let codes: Vec<[i32; PACKETS]> = (0..6).map(|j| core::array::from_fn(|p| rows[p][j])).collect();
    let mut verdicts = [0; PACKETS];
    sim.process_verdicts(&codes, &mut verdicts);

    let n = allocations_in(|| {
        for k in 0..50 {
            sim.retarget(if k % 2 == 0 { second.clone() } else { first.clone() });
            sim.process_verdicts(&codes, &mut verdicts);
            sim.process_verdicts(&codes, &mut verdicts[..5]);
            sim.process_verdicts(&codes, &mut verdicts[..1]);
        }
    });
    assert_eq!(n, 0, "process_verdicts and retarget allocated {n} times");
    let mut fresh = CgraSim::shared(first);
    let want: Vec<i64> = rows.iter().map(|x| i64::from(fresh.process_verdict(x))).collect();
    sim.process_verdicts(&codes, &mut verdicts);
    assert_eq!(verdicts[..], want, "the last swap left the first program in place");
}
