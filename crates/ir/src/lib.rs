//! The MapReduce dataflow IR for per-packet ML (§3.3 of the paper).
//!
//! Taurus programs are nested parallel patterns — `Map` (element-wise
//! vector ops) and `Reduce` (associative vector-to-scalar ops) — plus
//! weight memories, lookup tables, and out-of-band state. The paper
//! expresses them in a P4 control block (Fig. 4); here the same programs
//! are built with a Rust builder whose structure mirrors that syntax, and
//! are represented as an explicit dataflow graph the compiler can split,
//! unroll, place, and route onto the CGRA grid.
//!
//! Value model: every edge carries a fixed-width vector of `i32` *lanes*.
//! Quantized int8 codes travel in lanes (range-restricted); reductions and
//! biases use the full `i32` accumulator range — exactly the datapath of
//! an 8-bit CU with wide accumulators. Operation semantics are defined
//! once, in [`interp`]; the CGRA simulator must match them bit-for-bit.
//!
//! - [`graph`]: nodes, weight banks, LUTs, state, and the [`graph::Graph`]
//!   container with validation.
//! - [`builder`]: the Fig.-4-shaped construction API.
//! - [`interp`]: the reference interpreter (golden model).
//! - [`kernels`]: the vectorizable fixed-point inner-loop kernels
//!   (chunked multi-accumulator MatVec/SqDist rows, pre-widened row
//!   groups) shared by the interpreter and the CGRA simulator.
//! - [`microbench`]: Table 6's microbenchmark programs (inner product,
//!   Conv1D, and the seven activation implementations).

pub mod builder;
pub mod graph;
pub mod interp;
pub mod kernels;
pub mod microbench;

pub use builder::GraphBuilder;
pub use graph::{Graph, LutId, MapOp, Node, NodeId, Op, ReduceOp, StateId, WeightId};
pub use interp::{eval_map, eval_reduce, Interpreter};
pub use kernels::{matvec_row, sqdist_row};
