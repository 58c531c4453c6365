//! Dataflow-graph representation of MapReduce programs.

use taurus_fixed::quant::Requantizer;

/// Identifies a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a weight bank within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightId(pub u32);

/// Identifies a 256-entry lookup table within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutId(pub u32);

/// Identifies a persistent state vector within a [`Graph`] (e.g. LSTM
/// hidden state, kept in MUs across packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub u32);

/// Element-wise (map) operations. Two-operand ops take the second operand
/// from another node or a constant vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapOp {
    /// Lane-wise wrapping addition.
    Add,
    /// Lane-wise wrapping subtraction.
    Sub,
    /// Lane-wise wrapping multiplication.
    Mul,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
    /// Arithmetic shift right by the second operand (clamped to 0..=31).
    Shr,
    /// Arithmetic shift left by the second operand (clamped to 0..=31).
    Shl,
}

/// Vector-to-scalar (reduce) operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of lanes (wrapping).
    Add,
    /// Minimum lane value.
    Min,
    /// Maximum lane value.
    Max,
    /// Index of the minimum lane (first on ties).
    ArgMin,
    /// Index of the maximum lane (first on ties).
    ArgMax,
}

/// The second operand of a two-input map.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Another node's output (must have equal width, or width 1 for a
    /// broadcast scalar).
    Node(NodeId),
    /// A constant vector (width must match, or length 1 for broadcast).
    Const(Vec<i32>),
}

/// A dataflow operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The packet's feature vector (int8 codes in lanes).
    Input {
        /// Number of features.
        width: usize,
    },
    /// A constant vector.
    Const {
        /// Lane values.
        values: Vec<i32>,
    },
    /// Element-wise operation.
    Map {
        /// The operation.
        op: MapOp,
        /// First operand.
        a: NodeId,
        /// Second operand (node or constant).
        b: Operand,
    },
    /// Reduction to a single lane.
    Reduce {
        /// The reduction.
        op: ReduceOp,
        /// Input vector.
        input: NodeId,
    },
    /// Fused per-row dot product against a weight bank with zero-point
    /// correction: `out[r] = Σ_j W[r,j]·(x[j] − zero_point)`.
    ///
    /// This is the paper's perceptron pattern (Fig. 3): a map of
    /// multiplications followed by an adder-tree reduce, replicated over
    /// the bank's rows (the outer map over neurons).
    MatVec {
        /// Weight bank (`rows × cols` int8).
        weights: WeightId,
        /// Input zero point.
        zero_point: i32,
        /// Input vector (width = bank cols).
        input: NodeId,
    },
    /// Per-row squared distance against a weight bank:
    /// `out[r] = Σ_j (x[j] − W[r,j])²` (KMeans/RBF pattern).
    SqDist {
        /// Weight bank holding the centroids/support vectors.
        weights: WeightId,
        /// Input vector (width = bank cols).
        input: NodeId,
    },
    /// Adds a constant `i32` bias vector.
    AddBias {
        /// Bias values (width must match input).
        bias: Vec<i32>,
        /// Input vector.
        input: NodeId,
    },
    /// Requantizes `i32` accumulators to int8 codes (clamped to
    /// `[-128, 127]`).
    Requant {
        /// The rescale parameters.
        requant: Requantizer,
        /// Input vector.
        input: NodeId,
    },
    /// 256-entry int8→int8 lookup; input lanes are clamped to code range
    /// before indexing.
    Lut {
        /// The table.
        lut: LutId,
        /// Input vector.
        input: NodeId,
    },
    /// Lane-wise `input > 0 ? 1 : 0`.
    GreaterZero {
        /// Input vector.
        input: NodeId,
    },
    /// Concatenates vectors in order.
    Concat {
        /// Inputs (at least one).
        inputs: Vec<NodeId>,
    },
    /// Extracts `len` lanes starting at `start`.
    Slice {
        /// Input vector.
        input: NodeId,
        /// First lane.
        start: usize,
        /// Number of lanes.
        len: usize,
    },
    /// Reads a persistent state vector (value from the previous packet).
    StateRead {
        /// The state.
        state: StateId,
    },
    /// Writes a persistent state vector (visible to the next packet);
    /// passes its input through unchanged.
    StateWrite {
        /// The state.
        state: StateId,
        /// New value (width must match the state).
        input: NodeId,
    },
}

/// A node: an [`Op`] plus its statically known output width.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Output width in lanes.
    pub width: usize,
    /// Outer-loop iteration this node belongs to, if any. Nodes sharing a
    /// tag form one iteration body; the compiler may time-multiplex
    /// iterations onto fewer CUs (Table 7's unrolling axis).
    pub iter_tag: Option<u32>,
}

/// An int8 weight bank (stored in MUs on hardware).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightBank {
    /// Debug name.
    pub name: String,
    /// Row-major data.
    pub data: Vec<i8>,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

impl WeightBank {
    /// One row of the bank.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// A persistent state vector.
#[derive(Debug, Clone, PartialEq)]
pub struct StateBank {
    /// Debug name.
    pub name: String,
    /// Width in lanes.
    pub width: usize,
}

/// A complete MapReduce program.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) weights: Vec<WeightBank>,
    pub(crate) luts: Vec<Vec<i8>>,
    pub(crate) states: Vec<StateBank>,
    pub(crate) outputs: Vec<NodeId>,
    /// Number of outer-loop iterations that can be unrolled (e.g. conv
    /// output positions). 1 means no outer loop.
    pub(crate) outer_iters: usize,
    /// Number of serial recurrence steps executed per packet (LSTM history
    /// windows). State feedback makes these inherently sequential, which
    /// is why Table 5's LSTM runs below line rate.
    pub(crate) sequence_steps: usize,
}

impl Graph {
    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Weight banks.
    pub fn weights(&self) -> &[WeightBank] {
        &self.weights
    }

    /// One weight bank.
    pub fn weight(&self, id: WeightId) -> &WeightBank {
        &self.weights[id.0 as usize]
    }

    /// Lookup tables (each 256 entries).
    pub fn luts(&self) -> &[Vec<i8>] {
        &self.luts
    }

    /// One lookup table.
    pub fn lut(&self, id: LutId) -> &[i8] {
        &self.luts[id.0 as usize]
    }

    /// Persistent states.
    pub fn states(&self) -> &[StateBank] {
        &self.states
    }

    /// Output nodes, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Declared outer-loop iteration count (Table 7's unrolling axis).
    pub fn outer_iters(&self) -> usize {
        self.outer_iters
    }

    /// Serial recurrence steps per packet (1 for feed-forward models).
    pub fn sequence_steps(&self) -> usize {
        self.sequence_steps
    }

    /// Total weight-bank bytes (int8 entries).
    pub fn weight_bytes(&self) -> usize {
        self.weights.iter().map(|w| w.data.len()).sum()
    }

    /// The input node's width.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no input (validated graphs always do).
    pub fn input_width(&self) -> usize {
        self.nodes
            .iter()
            .find_map(|n| match n.op {
                Op::Input { width } => Some(width),
                _ => None,
            })
            .expect("validated graph has an input")
    }

    /// Nodes in topological (= construction) order feeding each node's
    /// operands before it; construction order guarantees this because
    /// builders can only reference existing nodes.
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The operand node ids of a node.
    pub fn operands(&self, id: NodeId) -> Vec<NodeId> {
        match &self.node(id).op {
            Op::Input { .. } | Op::Const { .. } | Op::StateRead { .. } => vec![],
            Op::Map { a, b, .. } => {
                let mut v = vec![*a];
                if let Operand::Node(n) = b {
                    v.push(*n);
                }
                v
            }
            Op::Reduce { input, .. }
            | Op::MatVec { input, .. }
            | Op::SqDist { input, .. }
            | Op::AddBias { input, .. }
            | Op::Requant { input, .. }
            | Op::Lut { input, .. }
            | Op::GreaterZero { input }
            | Op::Slice { input, .. }
            | Op::StateWrite { input, .. } => vec![*input],
            Op::Concat { inputs } => inputs.clone(),
        }
    }

    /// Validates structural invariants: operand ordering, width
    /// consistency, and id ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n_inputs = self.nodes.iter().filter(|n| matches!(n.op, Op::Input { .. })).count();
        if n_inputs != 1 {
            return Err(format!("graph must have exactly one input node, has {n_inputs}"));
        }
        if self.outputs.is_empty() {
            return Err("graph has no outputs".into());
        }
        if self.outer_iters == 0 {
            return Err("outer_iters must be at least 1".into());
        }
        if self.sequence_steps == 0 {
            return Err("sequence_steps must be at least 1".into());
        }
        for lut in &self.luts {
            if lut.len() != 256 {
                return Err(format!("lut must have 256 entries, has {}", lut.len()));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for dep in self.operands(id) {
                if dep.0 as usize >= i {
                    return Err(format!("node {i} references later node {}", dep.0));
                }
            }
            let w = |nid: NodeId| self.nodes[nid.0 as usize].width;
            let want = node.width;
            let check = |cond: bool, msg: &str| -> Result<(), String> {
                if cond {
                    Ok(())
                } else {
                    Err(format!("node {i}: {msg}"))
                }
            };
            match &node.op {
                Op::Input { width } => {
                    check(want == *width, "width mismatch with declared size")?;
                }
                Op::Slice { input, start, len } => {
                    check(want == *len, "slice width = len")?;
                    check(start + len <= w(*input), "slice in bounds")?;
                }
                Op::Const { values } => check(want == values.len(), "const width")?,
                Op::Map { a, b, .. } => {
                    check(w(*a) == want, "map input width")?;
                    match b {
                        Operand::Node(n) => {
                            check(w(*n) == want || w(*n) == 1, "map operand width")?
                        }
                        Operand::Const(c) => {
                            check(c.len() == want || c.len() == 1, "map const width")?
                        }
                    }
                }
                Op::Reduce { .. } => check(want == 1, "reduce emits one lane")?,
                Op::MatVec { weights, input, .. } => {
                    let bank = &self.weights[weights.0 as usize];
                    check(w(*input) == bank.cols, "matvec input width = bank cols")?;
                    check(want == bank.rows, "matvec output width = bank rows")?;
                }
                Op::SqDist { weights, input } => {
                    let bank = &self.weights[weights.0 as usize];
                    check(w(*input) == bank.cols, "sqdist input width = bank cols")?;
                    check(want == bank.rows, "sqdist output width = bank rows")?;
                }
                Op::AddBias { bias, input } => {
                    check(w(*input) == want && bias.len() == want, "bias width")?;
                }
                Op::Requant { input, .. } | Op::Lut { input, .. } | Op::GreaterZero { input } => {
                    check(w(*input) == want, "unary width")?
                }
                Op::Concat { inputs } => {
                    let total: usize = inputs.iter().map(|&n| w(n)).sum();
                    check(total == want, "concat width = sum of inputs")?;
                }
                Op::StateRead { state } => {
                    check(self.states[state.0 as usize].width == want, "state width")?;
                }
                Op::StateWrite { state, input } => {
                    check(
                        self.states[state.0 as usize].width == w(*input) && want == w(*input),
                        "state write width",
                    )?;
                }
            }
        }
        Ok(())
    }
}
