//! Simulator of the Taurus MapReduce block.
//!
//! Executes a compiled [`GridProgram`] the way the hardware would: each
//! placed unit fires in dataflow order and evaluates its configured
//! operation (SIMD map chain, dot-product row group, LUT access, state
//! read/write). The pipeline is static, so its timing is the program's:
//! the simulator reports the compiler's [`TimingReport`] (§5.1.3's
//! 1 GHz, 5-cycle-MapReduce, ~5-cycles-per-movement costs) rather than
//! walking the placed dataflow a second time.
//!
//! # The compiled execution plan
//!
//! The pipeline is static: the firing order and every operand location
//! depend only on the program, never on a packet's values.
//! [`PreparedProgram::new`] therefore compiles the unit list once into
//! an `ExecPlan` — a dense `NodeId → (offset, width)`
//! slot map into one reusable `i32` slab plus a flattened op schedule
//! with all graph lookups (weight banks, biases, requantizers, LUT ids,
//! const vectors) resolved up front — and the per-packet path executes
//! that plan by reading and writing slab slices in place. A dense layer
//! is **one** op of that schedule: the dot-product node, the bias and
//! requant the compiler fused into its CUs and the activation LUT that
//! consumes them run as reduce → requantize → look up over `i16`
//! column-pair weight panels, straight into the layer's output region.
//! On x86-64 the reduction is one SSE2 multiply-add-pairs per
//! two columns and four rows, column pairs outermost over groups of up
//! to four panels, so each input pair is broadcast once per group; a
//! fused requantize → LUT runs on each four-row panel in a register,
//! with the requantizer's lane constants built with the plan. An input
//! the plan proves int8 (a `Requant`, `Lut` or `GreaterZero` node: every
//! hidden layer of an MLP) skips the per-call check that picks the
//! reduction. The private `simd` module holds the vector steps and their
//! plain-Rust twins for every other target.
//!
//! [`CgraSim::process_verdicts`] runs a plan of dense layers **across
//! packets** instead: eight packets at a time, one per `i32` lane of an
//! AVX2 register, each row's weight pair broadcast from a second copy of
//! the bank and each activation one gather from a widened table, both
//! built with the plan. That is the engine worker's form on a CPU with
//! AVX2, which the plan checks for once; [`CgraSim::process_verdict`]
//! stays the per-packet one, and the only one without AVX2.
//! Steady-state
//! [`CgraSim::process_into`] performs **zero heap allocations** (pinned
//! by the counting-allocator test in `tests/no_alloc.rs`), where the
//! previous implementation built a `HashMap` of lane vectors per packet
//! and copied every operand on consumption.
//!
//! Two properties are enforced by this crate's tests and the cross-crate
//! integration suite:
//!
//! 1. **Value equivalence** — outputs are bit-identical to the
//!    `taurus-ir` reference interpreter (and hence to the `taurus-ml`
//!    integer golden models) for every supported program, including
//!    time-multiplexed (under-unrolled) and recurrent (LSTM) ones.
//! 2. **One timing model** — every packet's latency is the compiler's
//!    static [`TimingReport`] `latency_cycles` (all recurrence steps
//!    included): the one longest-path walk over the placed units is
//!    the compiler's timing pass, and nothing here repeats it.
//!
//! [`TimingReport`]: taurus_compiler::TimingReport

mod simd;

use std::sync::Arc;

use taurus_compiler::vu::VuKind;
use taurus_compiler::GridProgram;
use taurus_fixed::quant::Requantizer;
use taurus_ir::graph::Operand;
use taurus_ir::{eval_map, eval_reduce, Graph, MapOp, NodeId, Op, ReduceOp};

/// Result of processing one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketResult {
    /// Program outputs, in declaration order.
    pub outputs: Vec<Vec<i32>>,
    /// Ingress-to-egress latency in cycles (all recurrence steps
    /// included): the program's static `timing.latency_cycles`.
    pub latency_cycles: u32,
}

/// A node's value region inside the slab: `slab[off..off + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    off: u32,
    len: u32,
}

impl Slot {
    #[inline]
    fn range(self) -> core::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// Rows a [`DenseOp`] reduces together: one panel of accumulators. Four
/// `i32` lanes are one vector register of every x86-64 and aarch64
/// target, and the paper's dense layers are 1–12 rows tall: a wider
/// panel would mostly multiply padding.
const PANEL: usize = 4;

/// Panels a [`DenseOp`] reduces in one pass over the columns: one group.
/// Its accumulators (twice that for a split reduction) and the
/// broadcast input pair stay within SSE2's sixteen vector registers.
const GROUP: usize = 4;

/// Packets the across-packets kernel ([`CgraSim::process_verdicts`])
/// runs at once: one `i32` lane each of an AVX2 register.
pub const PACKETS: usize = 8;

/// One dense layer as the grid runs it — reduce → bias → requantize →
/// activation — as **one** op: a dot-product (or squared-distance) node
/// with the bias and requant the compiler fused into its CUs and the
/// LUT that consumes them. Every stage after the reduction is optional.
/// Only the last node of the chain gets a slab value; the nodes folded
/// into it have no other reader.
///
/// The int8 bank is laid out for SSE2's multiply-add-pairs at plan-build
/// time: `i16` **column pairs of [`PANEL`] rows**, zero past the last
/// row and column, so one [`simd::madd`] advances a panel's four
/// accumulators by two columns. The panels run in groups of up to
/// [`GROUP`], column pairs outermost, so each input pair is built and
/// broadcast once per group; the bank is stored in that order (group by
/// group, then pair by pair, then panel by panel: `[i16; 8]` entry
/// `2l + c` of a panel `p` is row `p·PANEL + l`, column `2k + c`).
/// Everything else about a row moves into its accumulator's start value,
/// by identities of wrapping `i32` arithmetic (the ring ℤ/2³², where the
/// order of summation cannot change a bit either):
///
/// - MatVec: `Σⱼ w·(x − zp) = Σⱼ w·x − zp·Σⱼ w`, so `init = bias − zp·Σⱼ w`;
/// - SqDist: `Σⱼ (x − w)² = Σⱼ (−2w)·x + Σⱼ w² + Σⱼ x²`, so the bank holds
///   `−2w` (which fits `i16`), `init = bias + Σⱼ w²`, and the per-call
///   `Σⱼ x²` is added to every row.
///
/// Both are then the same reduction, `init + Σⱼ bank·x`.
///
/// Across packets ([`DenseOp::run_across`]) the lanes hold packets
/// instead of rows, so the weights are the broadcast operand: the bank
/// is kept a second time as `row_pairs`, each row's column pair as the
/// one word a broadcast reads.
#[derive(Debug, Clone)]
struct DenseOp {
    /// The bank, group-major as above (`panels · pairs`).
    bank: Vec<[i16; 2 * PANEL]>,
    /// The bank for the across-packets kernel, row-major (`rows ·
    /// pairs`): entry `r · pairs + k` is row `r`'s columns `2k` and
    /// `2k + 1` as one `pmaddwd` pair, `w₂ₖ & 0xFFFF | w₂ₖ₊₁ << 16`.
    row_pairs: Vec<i32>,
    /// Accumulator start per padded row, as above, plus the offset a
    /// [`Tail::Panels`] requantizer reads (`simd::Requant4::OFFSET`).
    init: Vec<i32>,
    /// Bank columns (= input width).
    cols: usize,
    /// Input vector location.
    input: Slot,
    /// The input is a `Requant`, `Lut` or `GreaterZero` node, whose lanes
    /// fit int8 by construction: no per-call check of the `i16` fit.
    int8_input: bool,
    /// Squared-distance rather than dot-product rows: add `Σⱼ x²`.
    sqdist: bool,
    /// What runs on the accumulators.
    tail: Tail,
    /// The last chain node's region, one lane per bank row.
    dst: Slot,
}

/// The stages of a [`DenseOp`] after the reduction.
#[derive(Debug, Clone)]
enum Tail {
    /// Requantize → LUT on each panel while it is still in a register:
    /// the requantizer is one the vector form computes exactly, prepared
    /// with the plan, and its `packs` saturation is the LUT's clamp. The
    /// table comes twice: widened for the across-packets form's gather
    /// ([`simd::widen`]), and byte-indexed for the per-packet form.
    Panels(simd::Requant4, Box<[i32; 256]>, Box<[i8; 256]>),
    /// Any other chain: optional requant, then optional LUT, as one
    /// scalar loop over the rows in place.
    Rows(Option<Requantizer>, Option<Box<[i8; 256]>>),
}

impl DenseOp {
    /// The whole layer: reduce every panel over the columns straight
    /// into the destination region, then the tail.
    fn run(&self, slab: &mut [i32]) {
        let (lo, hi) = slab.split_at_mut(self.dst.off as usize);
        // Slots are padded to whole panels, so an odd-width input has a
        // pad lane to complete its last pair; that column's weights are
        // zero, so whatever the lane holds adds nothing.
        let x = &lo[self.input.off as usize..][..self.cols.next_multiple_of(2)];
        let (panels, _) = hi[..self.init.len()].as_chunks_mut::<PANEL>();
        let (requant, lut) = match &self.tail {
            Tail::Panels(rq, _, table) => {
                return self.reduce(x, panels, |acc| {
                    rq.apply(acc).map(|code| i32::from(table[usize::from(code as u8)]))
                });
            }
            Tail::Rows(requant, lut) => (requant, lut),
        };
        self.reduce(x, panels, |acc| acc);
        let rows = &mut hi[..self.dst.len as usize];
        // The requantizer by value: a slab store cannot alias a local,
        // so its fields stay in registers across the loop.
        match (*requant, lut) {
            (Some(rq), Some(table)) => {
                for a in rows {
                    *a = lut_lookup(table, i32::from(rq.apply(*a)));
                }
            }
            (Some(rq), None) => {
                for a in rows {
                    *a = i32::from(rq.apply(*a));
                }
            }
            (None, Some(table)) => {
                for a in rows {
                    *a = lut_lookup(table, *a);
                }
            }
            (None, None) => {}
        }
    }

    /// Stores `tail(init + Σⱼ bank·x)` for every panel. `pmaddwd` takes
    /// `i16` lanes, so the input picks the reduction: every live lane
    /// fits `i16` (each pair sum then stays below 2²⁴) — known at plan
    /// build for an int8 input, checked per call for any other — or the
    /// lanes split as `x = lo + hi·2¹⁶` and the reduction runs twice.
    #[inline(always)]
    fn reduce(
        &self,
        x: &[i32],
        panels: &mut [[i32; PANEL]],
        tail: impl Fn([i32; PANEL]) -> [i32; PANEL],
    ) {
        let live = &x[..self.cols];
        let base = if self.sqdist {
            live.iter().fold(0i32, |s, &v| s.wrapping_add(v.wrapping_mul(v)))
        } else {
            0
        };
        if self.int8_input || live.iter().all(|&v| i16::try_from(v).is_ok()) {
            self.reduce_groups::<false>(x, base, panels, tail);
        } else {
            self.reduce_groups::<true>(x, base, panels, tail);
        }
    }

    /// Runs the panels in groups of [`GROUP`], then one group of the
    /// rest: [`reduce_group`] for each.
    #[inline(always)]
    fn reduce_groups<const SPLIT: bool>(
        &self,
        x: &[i32],
        base: i32,
        panels: &mut [[i32; PANEL]],
        tail: impl Fn([i32; PANEL]) -> [i32; PANEL],
    ) {
        let (xs, _) = x.as_chunks::<2>();
        let (init, _) = self.init.as_chunks::<PANEL>();
        let (full, rest) = panels.as_chunks_mut::<GROUP>();
        let (init_full, init_rest) = init.as_chunks::<GROUP>();
        let mut bank = self.bank.as_slice();
        for (out, init) in full.iter_mut().zip(init_full) {
            let (group, next) = bank.split_at(GROUP * xs.len());
            bank = next;
            reduce_group::<GROUP, SPLIT>(xs, group, init, base, &tail, out);
        }
        match rest.len() {
            0 => {}
            1 => reduce_group::<1, SPLIT>(xs, bank, init_rest, base, &tail, rest),
            2 => reduce_group::<2, SPLIT>(xs, bank, init_rest, base, &tail, rest),
            _ => reduce_group::<3, SPLIT>(xs, bank, init_rest, base, &tail, rest),
        }
    }

    /// The whole layer for a group of packets, one lane each: the AVX2
    /// body ([`simd::Avx2::dense`]) reduces every row straight into its
    /// destination lane and runs a [`Tail::Panels`] tail there; a
    /// [`Tail::Rows`] tail runs here, on the stored accumulators.
    /// `pairs` is scratch for the group's input pairs, at least twice
    /// this op's column pairs long.
    fn run_across(
        &self,
        avx2: simd::Avx2,
        slab: &mut [[i32; PACKETS]],
        pairs: &mut [[i32; PACKETS]],
    ) {
        let (lo, hi) = slab.split_at_mut(self.dst.off as usize);
        // An odd-width input's pad lane completes its last pair, as in
        // `run`; across packets it stays zero.
        let x = &lo[self.input.off as usize..][..self.cols.next_multiple_of(2)];
        let rows = &mut hi[..self.dst.len as usize];
        avx2.dense(self, x, pairs, rows);
        let Tail::Rows(requant, lut) = &self.tail else { return };
        // `run`'s tail loops, written out again: one helper for both
        // changed the per-packet `exec_step`'s register allocation.
        let rows = rows.as_flattened_mut();
        match (*requant, lut) {
            (Some(rq), Some(table)) => {
                for a in rows {
                    *a = lut_lookup(table, i32::from(rq.apply(*a)));
                }
            }
            (Some(rq), None) => {
                for a in rows {
                    *a = i32::from(rq.apply(*a));
                }
            }
            (None, Some(table)) => {
                for a in rows {
                    *a = lut_lookup(table, *a);
                }
            }
            (None, None) => {}
        }
    }
}

/// The one reduction loop: `out[p] = tail(init[p] + base + Σ bank·x)` for
/// a group of `G` panels, column pairs outermost, so each input pair
/// `xs[k]` is built and broadcast once for the group while its `G`
/// accumulators stay in registers. `bank` holds the group's entries pair
/// by pair. With `SPLIT`, the low halves (`lo`, sign-extended) and the
/// high halves (`hi = (x − lo) >> 16`) reduce side by side and meet as
/// `acc + (acc_hi << 16)`, exact mod 2³².
#[inline(always)]
fn reduce_group<const G: usize, const SPLIT: bool>(
    xs: &[[i32; 2]],
    bank: &[[i16; 2 * PANEL]],
    init: &[[i32; PANEL]],
    base: i32,
    tail: &impl Fn([i32; PANEL]) -> [i32; PANEL],
    out: &mut [[i32; PANEL]],
) {
    let high = |v: i32| v.wrapping_sub(i32::from(v as i16)) >> 16;
    let (bank, _) = bank.as_chunks::<G>();
    let (init, out) = (&init[..G], &mut out[..G]);
    let mut acc: [[i32; PANEL]; G] =
        core::array::from_fn(|p| init[p].map(|v| v.wrapping_add(base)));
    let mut acc_hi = [[0; PANEL]; G];
    for (w, &[a, b]) in bank.iter().zip(xs) {
        // `pmaddwd` reads the pair's low halves: `lo`.
        let lo = simd::pair(a, b);
        for p in 0..G {
            acc[p] = simd::madd(acc[p], &w[p], lo);
        }
        if SPLIT {
            let hi = simd::pair(high(a), high(b));
            for p in 0..G {
                acc_hi[p] = simd::madd(acc_hi[p], &w[p], hi);
            }
        }
    }
    for ((o, acc), acc_hi) in out.iter_mut().zip(acc).zip(acc_hi) {
        *o = tail(if SPLIT {
            core::array::from_fn(|l| acc[l].wrapping_add(acc_hi[l] << 16))
        } else {
            acc
        });
    }
}

/// A graph LUT as the fixed-size table the exec loop indexes unchecked,
/// **byte-indexed**: entry `code as u8` holds code `code`'s value.
fn lut_table(graph: &Graph, id: taurus_ir::LutId) -> Box<[i8; 256]> {
    let lut = graph.lut(id);
    assert_eq!(lut.len(), 256, "luts have 256 entries");
    Box::new(core::array::from_fn(|b| lut[b ^ 0x80]))
}

/// A 256-entry LUT access: out-of-range codes clamp to the table ends.
#[inline]
fn lut_lookup(table: &[i8; 256], v: i32) -> i32 {
    i32::from(table[usize::from(v.clamp(-128, 127) as u8)])
}

/// One precompiled firing: every graph lookup already resolved, every
/// operand a slab slice.
#[derive(Debug, Clone)]
enum PlanOp {
    /// Load the packet's feature vector (the PHV interface).
    Input { dst: Slot },
    /// Materialize a constant vector.
    Const { values: Vec<i32>, dst: Slot },
    /// Element-wise map with a node operand (`b.len == 1` broadcasts).
    MapNode { op: MapOp, a: Slot, b: Slot, dst: Slot },
    /// Element-wise map with a constant operand (`len == 1` broadcasts).
    MapConst { op: MapOp, a: Slot, values: Vec<i32>, dst: Slot },
    /// Reduce a vector to one lane.
    Reduce { op: ReduceOp, src: Slot, dst_off: u32 },
    /// A dot-product / squared-distance node with everything fused
    /// onto it.
    Dense(DenseOp),
    /// `dst = src + bias` (standalone, unfused bias).
    AddBias { bias: Vec<i32>, src: Slot, dst: Slot },
    /// Requantize `i32` accumulators to int8 codes (standalone).
    Requant { requant: Requantizer, src: Slot, dst: Slot },
    /// 256-entry LUT lookup (table resolved at plan-build time).
    Lut { table: Box<[i8; 256]>, src: Slot, dst: Slot },
    /// Lane-wise `> 0`.
    GreaterZero { src: Slot, dst: Slot },
    /// Static routing: copy `len` lanes from `src_off` to `dst_off`
    /// (slice extraction and single-input concats).
    Copy { src_off: u32, len: u32, dst_off: u32 },
    /// Concatenate several regions into `dst`, in order.
    Concat { srcs: Vec<Slot>, dst: Slot },
    /// Read a persistent state vector into the slab.
    StateRead { state: u32, dst: Slot },
    /// Stage a persistent state write (committed at end of step) and
    /// pass the value through.
    StateWrite { state: u32, src: Slot, dst: Slot },
}

/// The compiled per-packet schedule for one [`GridProgram`]: built once
/// in [`PreparedProgram::new`], executed allocation-free per packet.
#[derive(Debug)]
struct ExecPlan {
    /// Flattened firing schedule in unit (level, index) order.
    ops: Vec<PlanOp>,
    /// Output node regions, in declaration order.
    outputs: Vec<Slot>,
    /// Total slab length (sum of panel-padded node widths).
    slab_len: usize,
    /// Width of the program's input node.
    input_width: usize,
    /// Recurrence steps per packet (the graph's `sequence_steps`).
    steps: u32,
    /// The across-packets form, and the input pairs it builds for its
    /// widest dense op, twice over (a split reduction's high halves);
    /// `None` unless the plan runs across packets: the CPU has AVX2, and
    /// the plan is one step, no state, and only `Input` and `Dense` ops,
    /// each of the latter over some columns.
    across: Option<(simd::Avx2, usize)>,
}

impl ExecPlan {
    /// Compiles a program's unit list into the flat schedule. The
    /// firing order and slot layout mirror the original event-driven
    /// loop exactly — this is a staging transformation, not a semantic
    /// one.
    fn compile(program: &GridProgram) -> Self {
        let graph = &program.graph;
        let units = &program.units;

        // Dense NodeId → slab slot map. Regions are padded to whole
        // panels so a `DenseOp` stores every panel whole; the pad lanes
        // belong to no node and are never read.
        let mut slots = Vec::with_capacity(graph.nodes().len());
        let mut off = 0u32;
        for node in graph.nodes() {
            slots.push(Slot { off, len: node.width as u32 });
            off += (node.width as u32).next_multiple_of(PANEL as u32);
        }
        let slot = |id: NodeId| slots[id.0 as usize];

        // Topological firing order (by placement level), as before.
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| (program.placement.levels[i], i));

        // Readers per node (an output is a reader): what decides whether
        // a chain node's own slab value may be elided.
        let mut readers = vec![0u32; graph.nodes().len()];
        for id in (0..graph.nodes().len() as u32).map(NodeId) {
            for operand in graph.operands(id) {
                readers[operand.0 as usize] += 1;
            }
        }
        for &out in graph.outputs() {
            readers[out.0 as usize] += 1;
        }

        // Flatten the schedule. Lane-split units list the same node more
        // than once across units, and physical CUs split a dot node's
        // rows across units (the paper's lane budget); evaluation is
        // idempotent dataflow, so each node is scheduled once — a dot
        // node at its first firing, as one op over its whole bank.
        let mut ops = Vec::new();
        let mut scheduled = vec![false; graph.nodes().len()];
        for &i in &order {
            let vu = &units[i];
            match vu.kind {
                VuKind::Interface => {
                    let id = vu.nodes[0];
                    if !scheduled[id.0 as usize] {
                        scheduled[id.0 as usize] = true;
                        ops.push(PlanOp::Input { dst: slot(id) });
                    }
                }
                VuKind::WeightMu => {}
                VuKind::DotCu => {
                    for rw in &vu.row_work {
                        if scheduled[rw.node.0 as usize] {
                            continue;
                        }
                        scheduled[rw.node.0 as usize] = true;
                        if let Some(lut) = Self::compile_dense(graph, rw, &readers, &slot, &mut ops)
                        {
                            scheduled[lut.0 as usize] = true;
                        }
                    }
                }
                VuKind::Wire | VuKind::Cu | VuKind::LutCu | VuKind::StateMu => {
                    for &nid in &vu.nodes {
                        if scheduled[nid.0 as usize] {
                            continue;
                        }
                        scheduled[nid.0 as usize] = true;
                        ops.push(Self::compile_node(graph, nid, &slot));
                    }
                }
            }
        }

        let outputs = graph.outputs().iter().map(|&o| slot(o)).collect();
        let steps = graph.sequence_steps() as u32;
        let across_pairs = ops.iter().try_fold(0, |widest, op| match op {
            PlanOp::Input { .. } => Some(widest),
            PlanOp::Dense(d) if d.cols > 0 => Some(widest.max(2 * d.cols.div_ceil(2))),
            _ => None,
        });
        ExecPlan {
            across: across_pairs
                .filter(|_| steps == 1 && graph.states().is_empty() && graph.input_width() > 0)
                .and_then(|pairs| Some((simd::Avx2::detect()?, pairs))),
            ops,
            outputs,
            slab_len: off as usize,
            input_width: graph.input_width(),
            steps,
        }
    }

    /// Emits the one op of a dot node. Of the chain the compiler fused
    /// onto it, a leading bias becomes the accumulator start and a
    /// requant right after the op's own; whatever else the chain holds
    /// follows as standalone ops. When the whole chain folded and its
    /// value has no reader but a LUT, that LUT folds in too and is
    /// returned so the caller retires its units: a chain end that is
    /// also a program output, or feeds a second consumer, keeps its
    /// slab value and leaves the LUT a standalone op.
    fn compile_dense(
        graph: &Graph,
        rw: &taurus_compiler::vu::RowWork,
        readers: &[u32],
        slot: &dyn Fn(NodeId) -> Slot,
        ops: &mut Vec<PlanOp>,
    ) -> Option<NodeId> {
        let (bank, input, zero_point, sqdist) = match graph.node(rw.node).op {
            Op::MatVec { weights, zero_point, input } => (weights, input, zero_point, false),
            Op::SqDist { weights, input } => (weights, input, 0, true),
            _ => unreachable!("dot row work on non-dot node"),
        };
        let bank = graph.weight(bank);
        let padded = bank.rows.next_multiple_of(PANEL);
        let (panels, pairs) = (padded / PANEL, bank.cols.div_ceil(2));
        let mut entries = vec![[0i16; 2 * PANEL]; panels * pairs];
        let mut row_pairs = vec![0i32; bank.rows * pairs];
        let mut init = vec![0i32; padded];
        for (r, start) in init.iter_mut().enumerate().take(bank.rows) {
            let row = bank.row(r);
            // Panel `p` is number `p − first` of the group starting at
            // panel `first`, which holds `size` panels.
            let p = r / PANEL;
            let first = p / GROUP * GROUP;
            let size = (panels - first).min(GROUP);
            for (j, &w) in row.iter().enumerate() {
                let w = i16::from(w);
                let w = if sqdist { -2 * w } else { w };
                entries[first * pairs + j / 2 * size + (p - first)][2 * (r % PANEL) + j % 2] = w;
                row_pairs[r * pairs + j / 2] |=
                    if j % 2 == 0 { i32::from(w as u16) } else { i32::from(w) << 16 };
            }
            let row = row.iter().map(|&w| i32::from(w));
            *start = if sqdist {
                row.fold(0i32, |s, w| s.wrapping_add(w * w))
            } else {
                row.fold(0i32, i32::wrapping_add).wrapping_mul(zero_point).wrapping_neg()
            };
        }

        let mut requant = None;
        let mut last = rw.node;
        let mut chain = rw.fused.iter().copied().peekable();
        if let Some(Op::AddBias { bias, .. }) = chain.peek().map(|&f| &graph.node(f).op) {
            for (start, &b) in init.iter_mut().zip(bias) {
                *start = start.wrapping_add(b);
            }
            last = chain.next().expect("peeked");
        }
        if let Some(Op::Requant { requant: rq, .. }) = chain.peek().map(|&f| &graph.node(f).op) {
            requant = Some(*rq);
            last = chain.next().expect("peeked");
        }
        let rest: Vec<NodeId> = chain.collect();

        let lut = if rest.is_empty() && readers[last.0 as usize] == 1 {
            (last.0 + 1..graph.nodes().len() as u32).map(NodeId).find_map(|n| {
                match graph.node(n).op {
                    Op::Lut { lut, input } if input == last => Some((n, lut)),
                    _ => None,
                }
            })
        } else {
            None
        };
        let table = lut.map(|(_, table)| lut_table(graph, table));
        let tail = match (requant.and_then(simd::Requant4::new), table) {
            (Some(rq), Some(table)) => {
                for start in &mut init {
                    *start = start.wrapping_add(simd::Requant4::OFFSET);
                }
                Tail::Panels(rq, simd::widen(&table), table)
            }
            (_, table) => Tail::Rows(requant, table),
        };
        ops.push(PlanOp::Dense(DenseOp {
            bank: entries,
            row_pairs,
            init,
            cols: bank.cols,
            input: slot(input),
            // Their values are int8 codes (or 0/1), and a node this op
            // reads has a slab value: one folded into another op has no
            // reader outside it.
            int8_input: matches!(
                graph.node(input).op,
                Op::Requant { .. } | Op::Lut { .. } | Op::GreaterZero { .. }
            ),
            sqdist,
            tail,
            dst: slot(lut.map_or(last, |(node, _)| node)),
        }));
        ops.extend(rest.into_iter().map(|f| Self::compile_node(graph, f, slot)));
        lut.map(|(node, _)| node)
    }

    fn compile_node(graph: &Graph, id: NodeId, slot: &dyn Fn(NodeId) -> Slot) -> PlanOp {
        let dst = slot(id);
        match &graph.node(id).op {
            Op::Input { .. } => unreachable!("input handled by the interface unit"),
            Op::Const { values } => PlanOp::Const { values: values.clone(), dst },
            Op::Map { op, a, b } => match b {
                Operand::Node(n) => PlanOp::MapNode { op: *op, a: slot(*a), b: slot(*n), dst },
                Operand::Const(c) => {
                    PlanOp::MapConst { op: *op, a: slot(*a), values: c.clone(), dst }
                }
            },
            Op::Reduce { op, input } => {
                PlanOp::Reduce { op: *op, src: slot(*input), dst_off: dst.off }
            }
            Op::MatVec { .. } | Op::SqDist { .. } => {
                unreachable!("dot nodes handled by DotCu units")
            }
            Op::AddBias { bias, input } => {
                PlanOp::AddBias { bias: bias.clone(), src: slot(*input), dst }
            }
            Op::Requant { requant, input } => {
                PlanOp::Requant { requant: *requant, src: slot(*input), dst }
            }
            Op::Lut { lut, input } => {
                PlanOp::Lut { table: lut_table(graph, *lut), src: slot(*input), dst }
            }
            Op::GreaterZero { input } => PlanOp::GreaterZero { src: slot(*input), dst },
            Op::Concat { inputs } => {
                // Concat of one input is a plain copy; wider concats are
                // emitted as one op that walks the pieces at exec time.
                if let [single] = inputs.as_slice() {
                    let src = slot(*single);
                    PlanOp::Copy { src_off: src.off, len: src.len, dst_off: dst.off }
                } else {
                    PlanOp::Concat { srcs: inputs.iter().map(|&n| slot(n)).collect(), dst }
                }
            }
            Op::Slice { input, start, len } => PlanOp::Copy {
                src_off: slot(*input).off + *start as u32,
                len: *len as u32,
                dst_off: dst.off,
            },
            Op::StateRead { state } => PlanOp::StateRead { state: state.0, dst },
            Op::StateWrite { state, input } => {
                PlanOp::StateWrite { state: state.0, src: slot(*input), dst }
            }
        }
    }
}

/// A compiled program together with its `ExecPlan`: prepared **once**
/// wherever the program is (an app's registration, a control plane
/// preparing a live update) and shared by handle with every simulator
/// that runs it — cloning is two reference-count bumps, so installing a
/// prepared program on N replicas compiles nothing N times.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Arc<GridProgram>,
    plan: Arc<ExecPlan>,
}

impl PreparedProgram {
    /// Compiles `program`'s execution plan.
    pub fn new(program: impl Into<Arc<GridProgram>>) -> Self {
        let program = program.into();
        let plan = Arc::new(ExecPlan::compile(&program));
        Self { program, plan }
    }

    /// The shared program handle.
    pub fn program(&self) -> &Arc<GridProgram> {
        &self.program
    }
}

impl core::ops::Deref for PreparedProgram {
    type Target = GridProgram;

    fn deref(&self) -> &GridProgram {
        &self.program
    }
}

impl From<Arc<GridProgram>> for PreparedProgram {
    fn from(program: Arc<GridProgram>) -> Self {
        Self::new(program)
    }
}

impl From<GridProgram> for PreparedProgram {
    fn from(program: GridProgram) -> Self {
        Self::new(program)
    }
}

/// The simulator: owns persistent state, shares the prepared program
/// (by handle, so many simulators/switches run one compilation and one
/// plan without borrow lifetimes), and streams packets through the
/// precompiled `ExecPlan`.
#[derive(Debug, Clone)]
pub struct CgraSim {
    /// The program and its compiled schedule (per-program,
    /// allocation-free per packet).
    prepared: PreparedProgram,
    /// Persistent state vectors (survive across packets, like MU-resident
    /// LSTM state).
    state: Vec<Vec<i32>>,
    /// The reusable value slab all plan ops read and write.
    slab: Vec<i32>,
    /// Staged state writes (committed at end of each recurrence step).
    pending: Vec<Vec<i32>>,
    pending_written: Vec<bool>,
    /// The across-packets kernel's slab: the plan's slots, lane `p` of
    /// each holding packet `p` of a group (empty unless the plan runs
    /// across packets).
    lanes: Vec<[i32; PACKETS]>,
    /// The across-packets kernel's input pairs.
    pairs: Vec<[i32; PACKETS]>,
}

impl CgraSim {
    /// Creates a simulator with zero-initialized state from a borrowed
    /// program (cloned into shared ownership; use [`CgraSim::shared`] to
    /// avoid the copy when an `Arc` is already at hand).
    pub fn new(program: &GridProgram) -> Self {
        Self::shared(program.clone())
    }

    /// Creates a simulator sharing an already-compiled program. A bare
    /// program handle gets its execution plan compiled here; a
    /// [`PreparedProgram`] brings its own.
    pub fn shared(program: impl Into<PreparedProgram>) -> Self {
        let mut sim = Self {
            prepared: program.into(),
            state: Vec::new(),
            slab: Vec::new(),
            pending: Vec::new(),
            pending_written: Vec::new(),
            lanes: Vec::new(),
            pairs: Vec::new(),
        };
        sim.restart();
        sim
    }

    /// Points the simulator at another prepared program — a live model
    /// update, as if the grid's weight memories were rewritten.
    /// Persistent state restarts zeroed (it was computed under the old
    /// weights), exactly as on a fresh simulator; the slab and state
    /// buffers are reused, so a swap between programs of one shape
    /// allocates nothing.
    pub fn retarget(&mut self, program: PreparedProgram) {
        self.prepared = program;
        self.restart();
    }

    /// Sizes and zeroes every buffer for `self.prepared`, keeping
    /// whatever capacity is already there.
    fn restart(&mut self) {
        let states = self.prepared.program.graph.states();
        for buffers in [&mut self.state, &mut self.pending] {
            buffers.resize_with(states.len(), Vec::new);
            for (buf, s) in buffers.iter_mut().zip(states) {
                buf.clear();
                buf.resize(s.width, 0);
            }
        }
        self.pending_written.clear();
        self.pending_written.resize(states.len(), false);
        self.slab.clear();
        self.slab.resize(self.prepared.plan.slab_len, 0);
        let plan = &self.prepared.plan;
        let (lanes, pairs) = plan.across.map_or((0, 0), |(_, pairs)| (plan.slab_len, pairs));
        self.lanes.clear();
        self.lanes.resize(lanes, [0; PACKETS]);
        self.pairs.clear();
        self.pairs.resize(pairs, [0; PACKETS]);
    }

    /// The prepared program this simulator executes.
    pub fn prepared(&self) -> &PreparedProgram {
        &self.prepared
    }

    /// The compiled program this simulator executes.
    pub fn program(&self) -> &Arc<GridProgram> {
        &self.prepared.program
    }

    /// Current persistent state (for tests).
    pub fn state(&self) -> &[Vec<i32>] {
        &self.state
    }

    /// Processes one packet (all recurrence steps), returning outputs and
    /// the program's latency.
    ///
    /// # Panics
    ///
    /// Panics if `input` width differs from the program's input node.
    pub fn process(&mut self, input: &[i32]) -> PacketResult {
        let mut outputs = Vec::new();
        let latency_cycles = self.process_into(input, &mut outputs);
        PacketResult { outputs, latency_cycles }
    }

    /// Processes one packet, writing outputs into caller-owned buffers
    /// (cleared and refilled; capacity is reused across packets, so the
    /// steady state allocates nothing). Returns the program's
    /// ingress-to-egress latency in cycles, `timing.latency_cycles`.
    ///
    /// All recurrence steps execute over the same slab; only the final
    /// step's outputs are gathered — a recurrent program no longer
    /// materializes (and discards) every intermediate step's outputs.
    ///
    /// # Panics
    ///
    /// Panics if `input` width differs from the program's input node.
    pub fn process_into(&mut self, input: &[i32], outputs: &mut Vec<Vec<i32>>) -> u32 {
        self.run_packet(input);
        outputs.resize_with(self.plan().outputs.len(), Vec::new);
        for (buf, slot) in outputs.iter_mut().zip(&self.plan().outputs) {
            buf.clear();
            buf.extend_from_slice(&self.slab[slot.range()]);
        }
        self.prepared.timing.latency_cycles
    }

    /// Processes one packet and returns the verdict lane — lane 0 of the
    /// first output (anomaly score code, class index, …) — read where
    /// the plan left it: nothing is gathered. 0 for a program whose
    /// first output is empty.
    ///
    /// # Panics
    ///
    /// Panics if `input` width differs from the program's input node.
    pub fn process_verdict(&mut self, input: &[i32]) -> i32 {
        self.run_packet(input);
        self.plan().outputs.first().and_then(|s| self.slab[s.range()].first()).copied().unwrap_or(0)
    }

    /// Whether this program runs across packets, so
    /// [`CgraSim::process_verdicts`] takes it: a plan made only of its
    /// input and dense layers, one step and no state (every MLP), on a
    /// CPU with AVX2.
    pub fn runs_across_packets(&self) -> bool {
        self.plan().across.is_some()
    }

    /// [`CgraSim::process_verdict`] for one group of at most
    /// [`PACKETS`] packets, lane-major: `codes[k][p]` is input code `k`
    /// of packet `p`, and `verdicts[p]` receives packet `p`'s verdict
    /// lane, widened. Bit-identical to calling `process_verdict` on each
    /// packet in order; lanes past `verdicts.len()` are computed on and
    /// not reported.
    ///
    /// The group runs **across packets**, one packet per `i32` lane of an
    /// AVX2 register: the codes are the input slot's lanes as they are,
    /// each row's weight pairs are broadcast once for the whole group and
    /// each layer is one pass over its rows, so no packet pays for a
    /// partly empty panel.
    ///
    /// # Panics
    ///
    /// Panics unless the program runs across packets
    /// ([`CgraSim::runs_across_packets`]), `codes` has its input width
    /// and `verdicts` holds at most [`PACKETS`] packets.
    pub fn process_verdicts(&mut self, codes: &[[i32; PACKETS]], verdicts: &mut [i64]) {
        let Some((avx2, _)) = self.plan().across else {
            panic!("the program runs packet by packet")
        };
        assert_eq!(codes.len(), self.plan().input_width, "input width mismatch");
        assert!(verdicts.len() <= PACKETS, "a group holds {PACKETS} packets");
        let Self { prepared, lanes, pairs, .. } = self;
        let plan = &prepared.plan;
        for op in &plan.ops {
            match op {
                PlanOp::Input { dst } => lanes[dst.range()].copy_from_slice(codes),
                PlanOp::Dense(dense) => dense.run_across(avx2, lanes, pairs),
                _ => unreachable!("an across-packets plan holds only input and dense ops"),
            }
        }
        let Some(&out) = plan.outputs.first().filter(|s| s.len > 0) else {
            verdicts.fill(0);
            return;
        };
        for (verdict, &lane) in verdicts.iter_mut().zip(&lanes[out.off as usize]) {
            *verdict = i64::from(lane);
        }
    }

    /// All recurrence steps of one packet over the slab.
    fn run_packet(&mut self, input: &[i32]) {
        let steps = self.plan().steps;
        assert_eq!(input.len(), self.plan().input_width, "input width mismatch");
        for _ in 0..steps {
            self.exec_step(input);
        }
    }

    fn plan(&self) -> &ExecPlan {
        &self.prepared.plan
    }

    /// One recurrence step: runs the precompiled schedule over the slab,
    /// then commits staged state writes.
    ///
    /// Slots are assigned in topological (= node) order, so every
    /// operand region lies strictly below its consumer's own region;
    /// [`dst_split`] exploits that to hand each op disjoint
    /// source/destination slices — the inner loops are plain slice zips
    /// the compiler can keep in registers and autovectorize.
    fn exec_step(&mut self, input: &[i32]) {
        let Self { prepared, state, slab, pending, pending_written, .. } = self;
        for op in &prepared.plan.ops {
            match op {
                PlanOp::Input { dst } => slab[dst.range()].copy_from_slice(input),
                PlanOp::Const { values, dst } => slab[dst.range()].copy_from_slice(values),
                PlanOp::MapNode { op, a, b, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    let av = slot_in(lo, *a);
                    let bv = slot_in(lo, *b);
                    if let [scalar] = bv {
                        for (o, &x) in d.iter_mut().zip(av) {
                            *o = eval_map(*op, x, *scalar);
                        }
                    } else {
                        for ((o, &x), &y) in d.iter_mut().zip(av).zip(bv) {
                            *o = eval_map(*op, x, y);
                        }
                    }
                }
                PlanOp::MapConst { op, a, values, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    let av = slot_in(lo, *a);
                    if let [scalar] = values.as_slice() {
                        for (o, &x) in d.iter_mut().zip(av) {
                            *o = eval_map(*op, x, *scalar);
                        }
                    } else {
                        for ((o, &x), &y) in d.iter_mut().zip(av).zip(values) {
                            *o = eval_map(*op, x, y);
                        }
                    }
                }
                PlanOp::Reduce { op, src, dst_off } => {
                    slab[*dst_off as usize] = eval_reduce(*op, &slab[src.range()]);
                }
                PlanOp::Dense(dense) => dense.run(slab),
                PlanOp::AddBias { bias, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for ((o, &v), &b) in d.iter_mut().zip(slot_in(lo, *src)).zip(bias) {
                        *o = v.wrapping_add(b);
                    }
                }
                PlanOp::Requant { requant, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        *o = i32::from(requant.apply(v));
                    }
                }
                PlanOp::Lut { table, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        *o = lut_lookup(table, v);
                    }
                }
                PlanOp::GreaterZero { src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        *o = i32::from(v > 0);
                    }
                }
                PlanOp::Copy { src_off, len, dst_off } => {
                    let (s, l) = (*src_off as usize, *len as usize);
                    slab.copy_within(s..s + l, *dst_off as usize);
                }
                PlanOp::Concat { srcs, dst } => {
                    let mut d = dst.off as usize;
                    for s in srcs {
                        slab.copy_within(s.range(), d);
                        d += s.len as usize;
                    }
                }
                PlanOp::StateRead { state: idx, dst } => {
                    slab[dst.range()].copy_from_slice(&state[*idx as usize]);
                }
                PlanOp::StateWrite { state: idx, src, dst } => {
                    let i = *idx as usize;
                    pending[i].copy_from_slice(&slab[src.range()]);
                    pending_written[i] = true;
                    slab.copy_within(src.range(), dst.off as usize);
                }
            }
        }
        // Commit state at end of step (reads within the step saw the
        // previous packet/step's values). A stateless program — every
        // feed-forward model — has nothing staged and skips the walk.
        if state.is_empty() {
            return;
        }
        for (i, written) in pending_written.iter_mut().enumerate() {
            if *written {
                state[i].copy_from_slice(&pending[i]);
                *written = false;
            }
        }
    }
}

/// Splits the slab at a destination slot: everything below `dst` (where
/// all of the op's operands live, by topological slot assignment) and
/// `dst`'s own lanes as a mutable slice.
#[inline]
fn dst_split(slab: &mut [i32], dst: Slot) -> (&[i32], &mut [i32]) {
    let (lo, hi) = slab.split_at_mut(dst.off as usize);
    (lo, &mut hi[..dst.len as usize])
}

/// A slot's lanes within the lower slab half returned by [`dst_split`].
#[inline]
fn slot_in(lo: &[i32], s: Slot) -> &[i32] {
    &lo[s.off as usize..][..s.len as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taurus_compiler::{compile, CompileOptions, GridConfig};
    use taurus_ir::{microbench, Graph, GraphBuilder, Interpreter, MapOp};

    /// [`CgraSim::process_verdicts`] over `rows` (each `width` codes
    /// wide) in groups of [`PACKETS`], through one lane-major buffer:
    /// lanes past a group's packets keep the previous group's codes.
    fn in_groups(sim: &mut CgraSim, rows: &[Vec<i32>], width: usize) -> Vec<i64> {
        let mut codes = vec![[0; PACKETS]; width];
        let mut verdicts = vec![0; rows.len()];
        for (group, out) in rows.chunks(PACKETS).zip(verdicts.chunks_mut(PACKETS)) {
            for (p, row) in group.iter().enumerate() {
                for (lane, &v) in codes.iter_mut().zip(row) {
                    lane[p] = v;
                }
            }
            sim.process_verdicts(&codes, out);
        }
        verdicts
    }

    fn compile_default(g: &Graph) -> GridProgram {
        compile(g, &GridConfig::default(), &CompileOptions::default()).expect("fits")
    }

    fn assert_equiv(g: &Graph, inputs: &[Vec<i32>]) {
        let p = compile_default(g);
        let mut sim = CgraSim::new(&p);
        let mut interp = Interpreter::new(g);
        for x in inputs {
            let got = sim.process(x);
            let want = interp.run(x);
            assert_eq!(got.outputs, want, "input {x:?}");
        }
    }

    #[test]
    fn microbenchmarks_match_interpreter() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let g = microbench::by_name(name);
            let w = g.input_width();
            let inputs: Vec<Vec<i32>> = (0..20)
                .map(|k| (0..w).map(|j| ((k * 37 + j * 11) % 255) as i32 - 127).collect())
                .collect();
            assert_equiv(&g, &inputs);
        }
    }

    #[test]
    fn conv_time_multiplexed_values_match_fully_unrolled() {
        let g = microbench::conv1d();
        let x: Vec<i32> = (0..9).map(|i| i * 3 - 10).collect();
        let mut expected = None;
        for unroll in [1usize, 2, 4, 8] {
            let p = compile(
                &g,
                &GridConfig::default(),
                &CompileOptions { unroll: Some(unroll), max_cus: None },
            )
            .expect("fits");
            let mut sim = CgraSim::new(&p);
            let out = sim.process(&x).outputs;
            match &expected {
                None => expected = Some(out),
                Some(e) => assert_eq!(&out, e, "unroll {unroll}"),
            }
        }
    }

    #[test]
    fn measured_latency_matches_static_report() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let g = microbench::by_name(name);
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let x = vec![1i32; g.input_width()];
            let r = sim.process(&x);
            assert_eq!(r.latency_cycles, p.timing.latency_cycles, "{name}");
        }
    }

    #[test]
    fn state_persists_across_packets() {
        let mut b = GraphBuilder::new();
        let x = b.input(1);
        let s = b.state("acc", 1);
        let prev = b.state_read(s);
        let sum = b.map(MapOp::Add, x, prev);
        let wr = b.state_write(s, sum);
        b.output(wr);
        let g = b.finish().expect("valid");
        let p = compile_default(&g);
        let mut sim = CgraSim::new(&p);
        assert_eq!(sim.process(&[5]).outputs, vec![vec![5]]);
        assert_eq!(sim.process(&[3]).outputs, vec![vec![8]]);
        assert_eq!(sim.state(), &[vec![8]]);
    }

    #[test]
    fn a_retargeted_simulator_is_a_fresh_one() {
        // A live program swap must leave nothing of the old program
        // behind — persistent state included — whatever the two shapes
        // are: walk one simulator through every microbenchmark (and a
        // stateful accumulator, twice, so its state has to restart)
        // and compare each stop with a simulator built there.
        let mut b = GraphBuilder::new();
        let x = b.input(4);
        let s = b.state("acc", 4);
        let prev = b.state_read(s);
        let sum = b.map(MapOp::Add, x, prev);
        let wr = b.state_write(s, sum);
        b.output(wr);
        let stateful = b.finish().expect("valid");
        let mut graphs = vec![stateful.clone()];
        graphs.extend(microbench::ALL_MICROBENCHMARKS.iter().map(|n| microbench::by_name(n)));
        graphs.push(stateful);

        let mut sim = CgraSim::new(&compile_default(&graphs[0]));
        sim.process(&[1, 2, 3, 4]);
        for g in &graphs[1..] {
            let prepared = PreparedProgram::new(compile_default(g));
            sim.retarget(prepared.clone());
            let mut fresh = CgraSim::shared(prepared.clone());
            assert!(Arc::ptr_eq(sim.program(), prepared.program()));
            for k in 0..3 {
                let x: Vec<i32> =
                    (0..g.input_width() as i32).map(|j| k * 29 + j * 5 - 40).collect();
                assert_eq!(sim.process(&x), fresh.process(&x));
                assert_eq!(sim.state(), fresh.state());
            }
        }
    }

    #[test]
    fn process_into_reuses_buffers_and_matches_process() {
        let g = microbench::inner_product();
        let p = compile_default(&g);
        let mut a = CgraSim::new(&p);
        let mut b = CgraSim::new(&p);
        let mut outputs = Vec::new();
        for k in 0..10 {
            let x: Vec<i32> = (0..16).map(|j| k * 13 + j - 20).collect();
            let latency = a.process_into(&x, &mut outputs);
            let want = b.process(&x);
            assert_eq!(outputs, want.outputs);
            assert_eq!(latency, want.latency_cycles);
            let ptr_before = outputs[0].as_ptr();
            let latency2 = a.process_into(&x, &mut outputs);
            assert_eq!(latency2, latency);
            assert_eq!(outputs[0].as_ptr(), ptr_before, "buffer reused in place");
        }
    }

    /// An MLP lowered the way the frontend lowers one: per layer
    /// `map_reduce_rows → add_bias → requant → lookup`, weights and
    /// biases from a seeded stream.
    fn stacked_mlp(widths: &[usize]) -> Graph {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut b = GraphBuilder::new();
        let mut h = b.input(widths[0]);
        for (l, pair) in widths.windows(2).enumerate() {
            let (cols, rows) = (pair[0], pair[1]);
            let w = b.weights(
                format!("l{l}"),
                rows,
                cols,
                (0..rows * cols).map(|_| next() as i8).collect(),
            );
            let dot = b.map_reduce_rows(w, h, (next() % 16) as i32 - 8);
            let biased =
                b.add_bias(dot, (0..rows).map(|_| (next() % 2001) as i32 - 1000).collect());
            let rq = taurus_fixed::quant::Requantizer::from_real_multiplier(0.004, -3);
            let pre = b.requant(biased, rq);
            let table = b.lut((0..256).map(|i| ((i - 128) / 2) as i8).collect());
            h = b.lookup(pre, table);
        }
        b.output(h);
        b.finish().expect("valid")
    }

    #[test]
    fn an_mlp_plan_is_one_dense_op_per_layer_with_its_tail_fused() {
        // The AD-DNN's shape. A lowering change that leaves a layer's
        // requant or LUT as an op of its own, or loses the int8 proof of
        // a hidden layer's input, costs a large share of the packet:
        // pin the plan, not just its values.
        let g = stacked_mlp(&[6, 12, 6, 3, 1]);
        let prepared = PreparedProgram::new(compile_default(&g));
        let ops = &prepared.plan.ops;
        assert!(matches!(ops[0], PlanOp::Input { .. }), "{:?}", ops[0]);
        let dense: Vec<&DenseOp> = ops[1..]
            .iter()
            .map(|op| match op {
                PlanOp::Dense(d) => d,
                other => panic!("expected only dense ops after the input, got {other:?}"),
            })
            .collect();
        assert_eq!(dense.len(), 4);
        for d in &dense {
            assert!(matches!(d.tail, Tail::Panels(..)), "requant → LUT not fused: {:?}", d.tail);
        }
        let proven: Vec<bool> = dense.iter().map(|d| d.int8_input).collect();
        assert_eq!(
            proven,
            [false, true, true, true],
            "the input is unproven, every hidden layer int8"
        );
        let x = [3, -7, 127, -128, 0, 55];
        assert_eq!(
            CgraSim::new(&compile_default(&g)).process(&x).outputs,
            Interpreter::new(&g).run(&x)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_random_map_chains_match_interpreter(
            ops in proptest::collection::vec(0usize..5, 1..12),
            consts in proptest::collection::vec(-20i32..20, 12),
            input in proptest::collection::vec(-100i32..100, 8),
        ) {
            let mut b = GraphBuilder::new();
            let x = b.input(8);
            let mut h = x;
            for (k, &o) in ops.iter().enumerate() {
                let c = consts[k % consts.len()];
                h = match o {
                    0 => b.map_const(MapOp::Add, h, vec![c]),
                    1 => b.map_const(MapOp::Sub, h, vec![c]),
                    2 => b.map_const(MapOp::Mul, h, vec![c.clamp(-3, 3)]),
                    3 => b.map_const(MapOp::Max, h, vec![c]),
                    4 => b.map_const(MapOp::Shr, h, vec![(c.unsigned_abs() % 4) as i32]),
                    _ => unreachable!(),
                };
            }
            let r = b.reduce(taurus_ir::ReduceOp::Add, h);
            b.output(h);
            b.output(r);
            let g = b.finish().expect("valid");
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let mut interp = Interpreter::new(&g);
            prop_assert_eq!(sim.process(&input).outputs, interp.run(&input));
        }

        /// The ExecPlan equivalence net over the op families the map
        /// chains above don't reach: dense ops — dot-product/sq-dist
        /// banks of one to many panels with every subset of the
        /// bias → requant → LUT pipeline fused on, a bias *after* the
        /// requant (a fused chain the op does not fold), and a
        /// pre-activation value that must survive the fusion because
        /// it is also an output or has a second consumer — plus
        /// persistent state accumulation and wire ops (concat/slice),
        /// fed packets that carry `i32::MIN`/`i32::MAX` lanes and lanes
        /// on both sides of the `i16` bound that picks the split
        /// reduction, over banks that may hold only −128 and 127 (so a
        /// sq-dist bank's `−2w` reaches 256). Every output bit-identical
        /// to the `taurus-ir` reference interpreter across a stream of
        /// packets.
        #[test]
        fn prop_random_dot_programs_match_interpreter(
            rows in 1usize..41,
            cols in 1usize..9,
            weights in proptest::collection::vec(-128i32..128, 320),
            bias in proptest::collection::vec(-500i32..500, 80),
            zp in -8i32..8,
            mult in 0.01f64..1.5,
            rq_zp in -10i32..10,
            lut_mul in 1i32..7,
            extreme_weights in proptest::any::<bool>(),
            use_sqdist in proptest::any::<bool>(),
            use_bias in proptest::any::<bool>(),
            use_requant in proptest::any::<bool>(),
            use_late_bias in proptest::any::<bool>(),
            use_lut in proptest::any::<bool>(),
            pre_is_output in proptest::any::<bool>(),
            pre_has_second_reader in proptest::any::<bool>(),
            use_state in proptest::any::<bool>(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(-100i32..100, 9), 1..5),
            // Per lane of the first packet: an index into `EXTREMES`, or
            // past it to keep the lane.
            extremes in proptest::collection::vec(0usize..11, 9),
        ) {
            const EXTREMES: [i32; 7] = [i32::MIN, i32::MAX, 32767, -32768, 32768, -32769, 65535];
            let mut b = GraphBuilder::new();
            let x_full = b.input(cols);
            let w = b.weights(
                "w",
                rows,
                cols,
                weights[..rows * cols]
                    .iter()
                    .map(|&v| match (extreme_weights, v < 0) {
                        (false, _) => v as i8,
                        (true, true) => i8::MIN,
                        (true, false) => i8::MAX,
                    })
                    .collect(),
            );
            let mut h = if use_sqdist {
                b.sq_dist_rows(w, x_full)
            } else {
                b.map_reduce_rows(w, x_full, zp)
            };
            if use_bias {
                h = b.add_bias(h, bias[..rows].to_vec());
            }
            if use_requant {
                let rq = taurus_fixed::quant::Requantizer::from_real_multiplier(mult, rq_zp);
                h = b.requant(h, rq);
            }
            if use_late_bias {
                h = b.add_bias(h, bias[40..40 + rows].to_vec());
            }
            let pre = h;
            if use_lut {
                let table: Vec<i8> = (0..256)
                    .map(|i| (((i - 128) * lut_mul) % 127) as i8)
                    .collect();
                let t = b.lut(table);
                h = b.lookup(pre, t);
            }
            if use_state {
                let s = b.state("acc", rows);
                let prev = b.state_read(s);
                let sum = b.map(MapOp::Add, h, prev);
                h = b.state_write(s, sum);
            }
            let red = b.reduce(taurus_ir::ReduceOp::Max, h);
            let gz = b.greater_zero(h);
            let cat = b.concat(vec![h, gz]);
            let sl = b.slice(cat, rows / 2, rows);
            b.output(h);
            b.output(red);
            b.output(sl);
            if pre_is_output {
                b.output(pre);
            }
            if pre_has_second_reader {
                let second = b.greater_zero(pre);
                b.output(second);
            }
            let g = b.finish().expect("valid");
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let mut verdict_sim = CgraSim::new(&p);
            let mut interp = Interpreter::new(&g);
            let mut inputs = inputs;
            for (lane, &e) in inputs[0].iter_mut().zip(&extremes) {
                if let Some(&v) = EXTREMES.get(e) {
                    *lane = v;
                }
            }
            for x in &inputs {
                let want = interp.run(&x[..cols]);
                prop_assert_eq!(verdict_sim.process_verdict(&x[..cols]), want[0][0]);
                prop_assert_eq!(sim.process(&x[..cols]).outputs, want);
            }
        }

        /// Two dense layers, the second fed by one of three inputs: the
        /// first layer's fused requant → LUT (a `Lut` node), an unfused
        /// `Requant` node (the biased sum is also an output, so the
        /// compiler stops the chain there), or a bias added after the
        /// requant — not provably int8, so it keeps the per-call `i16`
        /// check, and its ±100 000 lanes need the split reduction. Rows
        /// run to 40 on both layers, so a layer is several groups of
        /// four panels plus a remainder, and the `EXTREMES` lanes go to
        /// the first layer's input. Every output bit-identical to the
        /// interpreter.
        #[test]
        fn prop_stacked_dense_layers_match_interpreter(
            rows in 1usize..41,
            rows2 in 1usize..41,
            cols in 1usize..9,
            weights in proptest::collection::vec(-128i32..128, 320),
            weights2 in proptest::collection::vec(-128i32..128, 1600),
            bias in proptest::collection::vec(-5000i32..5000, 80),
            late in proptest::collection::vec(-100_000i32..100_000, 40),
            zp in -8i32..8,
            mult in 0.0001f64..0.9,
            mult2 in 0.0001f64..0.9,
            source in 0usize..3,
            inputs in proptest::collection::vec(
                proptest::collection::vec(-100i32..100, 9), 1..5),
            extremes in proptest::collection::vec(0usize..11, 9),
        ) {
            const EXTREMES: [i32; 7] = [i32::MIN, i32::MAX, 32767, -32768, 32768, -32769, 65535];
            let rq = |m: f64| taurus_fixed::quant::Requantizer::from_real_multiplier(m, 3);
            let mut b = GraphBuilder::new();
            let x = b.input(cols);
            let w = b.weights(
                "w",
                rows,
                cols,
                weights[..rows * cols].iter().map(|&v| v as i8).collect(),
            );
            let dot = b.map_reduce_rows(w, x, zp);
            let biased = b.add_bias(dot, bias[..rows].to_vec());
            let table = b.lut((0..256).map(|i| (((i - 128) * 3) % 127) as i8).collect());
            let h = match source {
                0 => {
                    let pre = b.requant(biased, rq(mult));
                    b.lookup(pre, table)
                }
                1 => {
                    b.output(biased);
                    b.requant(biased, rq(mult))
                }
                _ => {
                    let pre = b.requant(biased, rq(mult));
                    b.add_bias(pre, late[..rows].to_vec())
                }
            };
            let w2 = b.weights(
                "w2",
                rows2,
                rows,
                weights2[..rows2 * rows].iter().map(|&v| v as i8).collect(),
            );
            let dot2 = b.map_reduce_rows(w2, h, -zp);
            let biased2 = b.add_bias(dot2, bias[40..40 + rows2].to_vec());
            let pre2 = b.requant(biased2, rq(mult2));
            let out = b.lookup(pre2, table);
            b.output(out);
            b.output(h);
            let g = b.finish().expect("valid");
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let proven: Vec<bool> = sim
                .plan()
                .ops
                .iter()
                .filter_map(|op| match op {
                    PlanOp::Dense(d) => Some(d.int8_input),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(proven, [false, source != 2]);
            let mut verdict_sim = CgraSim::new(&p);
            let mut interp = Interpreter::new(&g);
            let mut inputs = inputs;
            for (lane, &e) in inputs[0].iter_mut().zip(&extremes) {
                if let Some(&v) = EXTREMES.get(e) {
                    *lane = v;
                }
            }
            for x in &inputs {
                let want = interp.run(&x[..cols]);
                prop_assert_eq!(verdict_sim.process_verdict(&x[..cols]), want[0][0]);
                prop_assert_eq!(sim.process(&x[..cols]).outputs, want);
            }
        }

        /// The group kernel against the per-packet one: a chain
        /// of one to four dense layers, each a dot-product or
        /// squared-distance bank of one to twelve rows, with or without
        /// a bias, and a requantizer the vector tail takes (below one),
        /// one it does not (above one: `Tail::Rows`), or none, with or
        /// without a LUT — then optionally a map or a state accumulator
        /// after it, which make the plan one that does not run across
        /// packets (its engine runs it row by row). One to twenty
        /// packets, so whole groups of
        /// eight, ragged tails and lone packets all run; the first
        /// layer's lanes include `EXTREMES`, outside `i16` (the split
        /// reduction) or not, and each group's lanes past its packets hold
        /// the previous group's codes. Every verdict bit-identical to
        /// `process_verdict` on each row in order. On a CPU with AVX2 a
        /// dense chain must run across packets, so the comparison cannot
        /// pass by falling back; without it no plan does.
        #[test]
        fn prop_process_verdicts_match_process_verdict(
            depth in 1usize..5,
            heights in proptest::collection::vec(1usize..13, 4),
            requants in proptest::collection::vec(0usize..4, 4),
            multipliers in proptest::collection::vec(0i32..i32::MAX, 4),
            narrow in proptest::collection::vec(0u32..21, 4),
            shifts in proptest::collection::vec(0i32..5, 4),
            zero_points in proptest::collection::vec(-16i32..16, 4),
            luts in proptest::collection::vec(0usize..3, 4),
            flags in proptest::collection::vec(proptest::any::<bool>(), 12),
            cols in 1usize..9,
            weights in proptest::collection::vec(-128i32..128, 144),
            bias in proptest::collection::vec(-5000i32..5000, 12),
            zp in -8i32..8,
            after in 0usize..3,
            packets in proptest::collection::vec(
                proptest::collection::vec(-100i32..100, 8), 1..21),
            extremes in proptest::collection::vec(0usize..14, 8 * 20),
        ) {
            const EXTREMES: [i32; 7] = [i32::MIN, i32::MAX, 32767, -32768, 32768, -32769, 65535];
            let mut b = GraphBuilder::new();
            let x = b.input(cols);
            let mut h = x;
            let mut width = cols;
            let table = b.lut((0..256).map(|i| (((i - 128) * 5) % 127) as i8).collect());
            for l in 0..depth {
                let (rows, rq, lut) = (heights[l], requants[l], luts[l]);
                let (sqdist, use_bias, wide) = (flags[3 * l], flags[3 * l + 1], flags[3 * l + 2]);
                let w = b.weights(
                    format!("l{l}"),
                    rows,
                    width,
                    (0..rows * width)
                        .map(|k| weights[(k * 7 + l * 13) % weights.len()] as i8)
                        .collect(),
                );
                h = if sqdist { b.sq_dist_rows(w, h) } else { b.map_reduce_rows(w, h, zp) };
                if use_bias {
                    h = b.add_bias(h, bias[..rows].to_vec());
                }
                // 0: none; 1: the vector tail's range, drawn: a Q31
                // multiplier of any magnitude and a small shift keep the
                // codes small, so half-way ties on both sides of the sign
                // edge of `acc·M + 2³⁰` reach the verdict; 2 and 3: above
                // the range.
                let zero_point = zero_points[l];
                let requantizer = match rq {
                    0 => None,
                    1 => Some(Requantizer {
                        multiplier: multipliers[l] >> narrow[l],
                        shift: shifts[l],
                        zero_point,
                    }),
                    _ => Some(Requantizer::from_real_multiplier([1.5, 40.0][rq - 2], zero_point)),
                };
                if let Some(requantizer) = requantizer {
                    h = b.requant(h, requantizer);
                }
                if lut > 0 || (wide && rq == 0) {
                    h = b.lookup(h, table);
                }
                width = rows;
            }
            match after {
                1 => h = b.map_const(MapOp::Max, h, vec![3]),
                2 => {
                    let s = b.state("acc", width);
                    let prev = b.state_read(s);
                    let sum = b.map(MapOp::Add, h, prev);
                    h = b.state_write(s, sum);
                }
                _ => {}
            }
            b.output(h);
            let g = b.finish().expect("valid");
            let p = PreparedProgram::new(compile_default(&g));
            let mut batch = CgraSim::shared(p.clone());
            let mut single = CgraSim::shared(p);
            let only_dense = batch
                .plan()
                .ops
                .iter()
                .all(|op| matches!(op, PlanOp::Input { .. } | PlanOp::Dense(_)));
            let avx2 = simd::Avx2::detect().is_some();
            prop_assert_eq!(batch.runs_across_packets(), avx2 && only_dense && after != 2);
            if after == 0 {
                prop_assert!(only_dense, "a dense chain is only dense ops");
            }
            let mut lanes = extremes.iter().map(|&e| EXTREMES.get(e));
            let rows: Vec<Vec<i32>> = packets
                .iter()
                .map(|x| x[..cols].iter().map(|&v| *lanes.next().flatten().unwrap_or(&v)).collect())
                .collect();
            let verdicts = |sim: &mut CgraSim| -> Vec<i64> {
                rows.iter().map(|x| i64::from(sim.process_verdict(x))).collect()
            };
            if batch.runs_across_packets() {
                let want = verdicts(&mut single);
                prop_assert_eq!(in_groups(&mut batch, &rows, cols), want);
                // Again, on lanes that hold the first call's values.
                let want = verdicts(&mut single);
                prop_assert_eq!(in_groups(&mut batch, &rows, cols), want);
            }
        }
    }
}
