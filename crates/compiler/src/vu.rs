//! Lowering IR graphs to virtual units (VUs).
//!
//! A VU is one physical resource instance on the fabric: a compute unit
//! configured with a fused op chain or a dot-product row group, a memory
//! unit holding weights / LUTs / state, or a zero-cost wire (slice and
//! concat are static routing, not compute). Lowering performs the §4
//! splitting rules:
//!
//! - one CU per dot-product *row* (a neuron's map-multiply + adder-tree
//!   reduce, with any following bias/requant fused into its tail stages);
//! - element-wise chains fused up to the CU stage budget, lane-split when
//!   wider than the CU;
//! - LUT activations as an address CU paired with a table MU;
//! - outer-loop iterations merged onto fewer physical CUs when the unroll
//!   factor is below the iteration count (Table 7), and dot rows
//!   time-multiplexed when a model exceeds the CU budget (how the LSTM
//!   fits a 90-CU grid).

use std::collections::HashMap;

use taurus_ir::{Graph, NodeId, Op};

use crate::config::{CompileOptions, GridConfig};
use crate::program::CompileError;

/// Identifies a virtual unit within a [`crate::GridProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VuId(pub u32);

/// The physical flavour of a virtual unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VuKind {
    /// The PHV ingress interface (produces the input vector).
    Interface,
    /// Static routing only (slice/concat/const); occupies no cell.
    Wire,
    /// A compute unit running a fused element-wise / reduce chain.
    Cu,
    /// A compute unit computing dot-product or squared-distance rows.
    DotCu,
    /// A compute unit performing a LUT lookup (address calc + MU access).
    LutCu,
    /// A memory unit holding a weight bank or lookup table.
    WeightMu,
    /// A memory unit holding persistent state (reads and writes).
    StateMu,
}

impl VuKind {
    /// Whether this unit occupies a CU cell.
    pub fn is_cu(self) -> bool {
        matches!(self, VuKind::Cu | VuKind::DotCu | VuKind::LutCu)
    }

    /// Whether this unit occupies an MU cell.
    pub fn is_mu(self) -> bool {
        matches!(self, VuKind::WeightMu | VuKind::StateMu)
    }
}

/// Dot-product row work assigned to one [`VuKind::DotCu`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowWork {
    /// The `MatVec` or `SqDist` node.
    pub node: NodeId,
    /// Row indices this CU computes.
    pub rows: Vec<usize>,
    /// Bias/requant nodes fused into this CU's tail stages, in order.
    pub fused: Vec<NodeId>,
}

/// One virtual unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Vu {
    /// Flavour.
    pub kind: VuKind,
    /// Debug label.
    pub label: String,
    /// Fully evaluated nodes, in topological order (empty for `DotCu`).
    pub nodes: Vec<NodeId>,
    /// Row work (non-empty only for `DotCu`).
    pub row_work: Vec<RowWork>,
    /// Producer units this unit consumes values from.
    pub deps: Vec<VuId>,
    /// SIMD lanes in use.
    pub lanes_used: usize,
    /// Pipeline stages in use.
    pub stages_used: usize,
    /// Initiation interval contribution: cycles of CU occupancy per packet.
    pub ii: u32,
    /// Fill latency in cycles (set by the timing pass).
    pub latency: u32,
    /// `(node, lanes)` made available by this unit.
    pub produces: Vec<(NodeId, Vec<usize>)>,
}

impl Vu {
    fn new(kind: VuKind, label: String) -> Self {
        Self {
            kind,
            label,
            nodes: Vec::new(),
            row_work: Vec::new(),
            deps: Vec::new(),
            lanes_used: 0,
            stages_used: 0,
            ii: 1,
            latency: 0,
            produces: Vec::new(),
        }
    }
}

/// Per-op stage cost when fusing element-wise chains.
fn op_stage_cost(op: &Op) -> usize {
    match op {
        Op::Requant { .. } => 2,
        _ => 1,
    }
}

fn is_elementwise(op: &Op) -> bool {
    matches!(op, Op::Map { .. } | Op::GreaterZero { .. } | Op::AddBias { .. } | Op::Requant { .. })
}

struct Lowering<'g> {
    graph: &'g Graph,
    grid: GridConfig,
    vus: Vec<Vu>,
    /// node → (vu, lanes) producers.
    producers: HashMap<NodeId, Vec<(VuId, Vec<usize>)>>,
    /// Consumer counts (outputs count as one consumer).
    consumers: HashMap<NodeId, usize>,
    /// Nodes already covered (evaluated or folded into a DotCu).
    covered: Vec<bool>,
    /// Weight bank → MU VU.
    weight_mus: HashMap<u32, VuId>,
    /// LUT id → MU VU.
    lut_mus: HashMap<u32, VuId>,
    rows_per_cu: usize,
}

impl<'g> Lowering<'g> {
    fn push(&mut self, vu: Vu) -> VuId {
        let id = VuId(self.vus.len() as u32);
        self.vus.push(vu);
        id
    }

    fn producer_vus(&self, node: NodeId) -> Vec<VuId> {
        let mut v: Vec<VuId> = self
            .producers
            .get(&node)
            .map(|ps| ps.iter().map(|(id, _)| *id).collect())
            .unwrap_or_default();
        v.sort();
        v.dedup();
        v
    }

    fn record_produce(&mut self, node: NodeId, vu: VuId, lanes: Vec<usize>) {
        self.producers.entry(node).or_default().push((vu, lanes.clone()));
        self.vus[vu.0 as usize].produces.push((node, lanes));
    }

    fn weight_mu(&mut self, bank: u32) -> VuId {
        if let Some(&id) = self.weight_mus.get(&bank) {
            return id;
        }
        let name = self.graph.weights()[bank as usize].name.clone();
        let id = self.push(Vu::new(VuKind::WeightMu, format!("mu:{name}")));
        self.weight_mus.insert(bank, id);
        id
    }

    fn lut_mu(&mut self, lut: u32) -> VuId {
        if let Some(&id) = self.lut_mus.get(&lut) {
            return id;
        }
        let id = self.push(Vu::new(VuKind::WeightMu, format!("mu:lut{lut}")));
        self.lut_mus.insert(lut, id);
        id
    }

    /// Whether unit `a` transitively depends on unit `b`.
    fn depends_on(&self, a: VuId, b: VuId) -> bool {
        if a == b {
            return true;
        }
        let mut stack = vec![a];
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            for &d in &self.vus[v.0 as usize].deps {
                if d == b {
                    return true;
                }
                stack.push(d);
            }
        }
        false
    }

    /// Attempts to fuse an element-wise node into its producer chain.
    fn try_fuse(&mut self, id: NodeId) -> bool {
        let node = self.graph.node(id);
        if !is_elementwise(&node.op) || node.width > self.grid.lanes {
            return false;
        }
        let operands = self.graph.operands(id);
        if operands.is_empty() || operands.len() > 2 {
            return false;
        }
        // Find a chain operand: single consumer, produced by a lone Cu with
        // spare stages (binary maps may chain through either operand; the
        // other one rides the CU's second input bus).
        'candidates: for (ci, &c) in operands.iter().enumerate() {
            if self.consumers.get(&c).copied().unwrap_or(0) != 1 {
                continue;
            }
            let pvs = self.producer_vus(c);
            let [pv] = pvs.as_slice() else { continue };
            let pv = *pv;
            let p = &self.vus[pv.0 as usize];
            if p.kind != VuKind::Cu
                || p.stages_used + op_stage_cost(&node.op) > self.grid.stages
                || p.lanes_used != node.width
                || self.graph.node(*p.nodes.last().expect("cu has nodes")).iter_tag != node.iter_tag
            {
                continue;
            }
            // The other operand (if any) must be routable onto the CU
            // without creating a dependency cycle.
            let mut extra_deps = Vec::new();
            if operands.len() == 2 {
                let other = operands[1 - ci];
                let ops = self.producer_vus(other);
                if ops.is_empty() || ops.iter().any(|&o| self.depends_on(o, pv)) {
                    continue 'candidates;
                }
                extra_deps = ops;
            }
            let cost = op_stage_cost(&node.op);
            let p = &mut self.vus[pv.0 as usize];
            p.nodes.push(id);
            p.stages_used += cost;
            for d in extra_deps {
                if d != pv && !p.deps.contains(&d) {
                    p.deps.push(d);
                }
            }
            self.covered[id.0 as usize] = true;
            self.record_produce(id, pv, (0..node.width).collect());
            return true;
        }
        false
    }

    /// Creates a standalone CU (or lane-split CUs) for an element-wise,
    /// reduce, or state node.
    fn emit_cu(&mut self, id: NodeId) {
        let node = self.graph.node(id).clone();
        let operands = self.graph.operands(id);
        let width = node.width;
        let lanes = self.grid.lanes;
        let splits =
            if is_elementwise(&node.op) && width > lanes { width.div_ceil(lanes) } else { 1 };
        for s in 0..splits {
            let lane_lo = s * lanes;
            let lane_hi = ((s + 1) * lanes).min(width);
            let mut vu = Vu::new(VuKind::Cu, format!("cu:n{}[{}..{}]", id.0, lane_lo, lane_hi));
            vu.nodes.push(id);
            vu.lanes_used = lane_hi - lane_lo;
            vu.stages_used = op_stage_cost(&node.op).max(1);
            for op in &operands {
                for p in self.producer_vus(*op) {
                    if !vu.deps.contains(&p) {
                        vu.deps.push(p);
                    }
                }
            }
            let vid = self.push(vu);
            self.record_produce(id, vid, (lane_lo..lane_hi).collect());
        }
        self.covered[id.0 as usize] = true;
    }

    fn emit_wire(&mut self, id: NodeId) {
        let operands = self.graph.operands(id);
        let width = self.graph.node(id).width;
        let mut vu = Vu::new(VuKind::Wire, format!("wire:n{}", id.0));
        vu.nodes.push(id);
        vu.lanes_used = width.min(self.grid.lanes);
        for op in &operands {
            for p in self.producer_vus(*op) {
                if !vu.deps.contains(&p) {
                    vu.deps.push(p);
                }
            }
        }
        let vid = self.push(vu);
        self.record_produce(id, vid, (0..width).collect());
        self.covered[id.0 as usize] = true;
    }

    /// Lowers a MatVec/SqDist with fused bias/requant chain into per-row
    /// DotCus.
    fn emit_dot(&mut self, id: NodeId) {
        let node = self.graph.node(id).clone();
        let (bank_id, input) = match node.op {
            Op::MatVec { weights, input, .. } => (weights.0, input),
            Op::SqDist { weights, input } => (weights.0, input),
            _ => unreachable!("emit_dot on non-dot node"),
        };
        let bank = &self.graph.weights()[bank_id as usize];
        let rows = bank.rows;
        let cols = bank.cols;
        let chunks = cols.div_ceil(self.grid.lanes) as u32;

        // Fuse a following AddBias and/or Requant if each link is
        // single-consumer and untagged-compatible.
        let mut fused = Vec::new();
        let mut tail = id;
        loop {
            if self.consumers.get(&tail).copied().unwrap_or(0) != 1 {
                break;
            }
            let next = (0..self.graph.nodes().len() as u32).map(NodeId).find(|&n| {
                self.graph.operands(n).contains(&tail)
                    && matches!(self.graph.node(n).op, Op::AddBias { .. } | Op::Requant { .. })
                    && self.graph.node(n).iter_tag == node.iter_tag
            });
            match next {
                Some(n) if fused.len() < 2 => {
                    fused.push(n);
                    tail = n;
                }
                _ => break,
            }
        }
        let final_node = tail;

        let mu = self.weight_mu(bank_id);
        let input_producers = self.producer_vus(input);
        let rpc = self.rows_per_cu.max(1);
        let mut r = 0usize;
        while r < rows {
            let hi = (r + rpc).min(rows);
            let assigned: Vec<usize> = (r..hi).collect();
            let mut vu = Vu::new(VuKind::DotCu, format!("dot:n{}[r{}..{}]", id.0, r, hi));
            vu.row_work.push(RowWork { node: id, rows: assigned.clone(), fused: fused.clone() });
            vu.lanes_used = cols.min(self.grid.lanes);
            vu.stages_used = self.grid.stages.min(2 + fused.len() + 1);
            vu.ii = (assigned.len() as u32) * chunks;
            vu.deps = input_producers.clone();
            vu.deps.push(mu);
            let vid = self.push(vu);
            self.record_produce(final_node, vid, assigned);
            r = hi;
        }
        self.covered[id.0 as usize] = true;
        for f in &fused {
            self.covered[f.0 as usize] = true;
        }
    }

    fn emit_lut(&mut self, id: NodeId) {
        let node = self.graph.node(id).clone();
        let Op::Lut { lut, input } = node.op else { unreachable!("emit_lut on non-lut node") };
        let width = node.width;
        let lanes = self.grid.lanes;
        let mu = self.lut_mu(lut.0);
        let splits = width.div_ceil(lanes).max(1);
        for s in 0..splits {
            let lane_lo = s * lanes;
            let lane_hi = ((s + 1) * lanes).min(width);
            let mut vu = Vu::new(VuKind::LutCu, format!("lut:n{}[{}..{}]", id.0, lane_lo, lane_hi));
            vu.nodes.push(id);
            vu.lanes_used = lane_hi - lane_lo;
            vu.stages_used = 2;
            vu.deps = self.producer_vus(input);
            vu.deps.push(mu);
            let vid = self.push(vu);
            self.record_produce(id, vid, (lane_lo..lane_hi).collect());
        }
        self.covered[id.0 as usize] = true;
    }

    fn emit_state(&mut self, id: NodeId) {
        let node = self.graph.node(id).clone();
        let width = node.width;
        let mut vu = Vu::new(VuKind::StateMu, format!("state:n{}", id.0));
        vu.nodes.push(id);
        vu.lanes_used = width.min(self.grid.lanes);
        if let Op::StateWrite { input, .. } = node.op {
            vu.deps = self.producer_vus(input);
        }
        let vid = self.push(vu);
        self.record_produce(id, vid, (0..width).collect());
        self.covered[id.0 as usize] = true;
    }
}

/// Rough per-node CU estimate, used to pick the time-multiplexing factor
/// before lowering.
fn estimate_cus(graph: &Graph, grid: &GridConfig) -> usize {
    let mut total = 0usize;
    for node in graph.nodes() {
        total += match &node.op {
            Op::MatVec { weights, .. } | Op::SqDist { weights, .. } => {
                graph.weights()[weights.0 as usize].rows
            }
            Op::Map { .. } | Op::GreaterZero { .. } => node.width.div_ceil(grid.lanes),
            Op::Reduce { .. } | Op::Lut { .. } => 1,
            _ => 0,
        };
    }
    total.max(1)
}

/// Lowers a graph to virtual units.
///
/// # Errors
///
/// Returns [`CompileError::GridCapacity`] if even fully time-multiplexed
/// units exceed the grid.
pub fn lower(
    graph: &Graph,
    grid: &GridConfig,
    options: &CompileOptions,
) -> Result<Vec<Vu>, CompileError> {
    // Consumer counts (outputs count once each).
    let mut consumers: HashMap<NodeId, usize> = HashMap::new();
    for id in graph.topo_order() {
        for dep in graph.operands(id) {
            *consumers.entry(dep).or_default() += 1;
        }
    }
    for &out in graph.outputs() {
        *consumers.entry(out).or_default() += 1;
    }

    let max_cus = options.max_cus.unwrap_or(grid.cu_cells());
    let estimate = estimate_cus(graph, grid);
    let rows_per_cu = estimate.div_ceil(max_cus);

    let mut lw = Lowering {
        graph,
        grid: grid.clone(),
        vus: Vec::new(),
        producers: HashMap::new(),
        consumers,
        covered: vec![false; graph.nodes().len()],
        weight_mus: HashMap::new(),
        lut_mus: HashMap::new(),
        rows_per_cu,
    };

    for id in graph.topo_order() {
        if lw.covered[id.0 as usize] {
            continue;
        }
        let node = graph.node(id);
        match &node.op {
            Op::Input { width } => {
                let mut vu = Vu::new(VuKind::Interface, "phv-in".into());
                vu.nodes.push(id);
                vu.lanes_used = (*width).min(grid.lanes);
                let vid = lw.push(vu);
                lw.record_produce(id, vid, (0..*width).collect());
                lw.covered[id.0 as usize] = true;
            }
            Op::Const { .. } | Op::Slice { .. } | Op::Concat { .. } => lw.emit_wire(id),
            Op::Map { .. } | Op::GreaterZero { .. } | Op::AddBias { .. } | Op::Requant { .. } => {
                if !lw.try_fuse(id) {
                    lw.emit_cu(id);
                }
            }
            Op::Reduce { .. } => lw.emit_cu(id),
            Op::MatVec { .. } | Op::SqDist { .. } => lw.emit_dot(id),
            Op::Lut { .. } => lw.emit_lut(id),
            Op::StateRead { .. } | Op::StateWrite { .. } => lw.emit_state(id),
        }
    }

    debug_assert!(lw.covered.iter().all(|&c| c), "every node lowered");
    let mut vus = lw.vus;

    // Outer-loop time multiplexing (Table 7): merge iteration slots.
    let n_tags = graph.outer_iters();
    let unroll = options.unroll.unwrap_or(n_tags).clamp(1, n_tags);
    if n_tags > 1 && unroll < n_tags {
        vus = merge_iterations(graph, vus, n_tags, unroll);
    }

    let cu_count = vus.iter().filter(|v| v.kind.is_cu()).count();
    if cu_count > grid.cu_cells() {
        return Err(CompileError::GridCapacity(format!(
            "needs {cu_count} CUs but the grid has {}",
            grid.cu_cells()
        )));
    }
    let mu_count = vus.iter().filter(|v| v.kind.is_mu()).count();
    if mu_count > grid.mu_cells() {
        return Err(CompileError::GridCapacity(format!(
            "needs {mu_count} MUs but the grid has {}",
            grid.mu_cells()
        )));
    }
    Ok(vus)
}

/// Merges per-iteration VUs onto `unroll` physical slots: iteration `t`
/// maps to slot `t % unroll`, and the j-th VU of every iteration in a
/// slot shares one physical CU (initiation interval multiplies).
fn merge_iterations(graph: &Graph, vus: Vec<Vu>, n_tags: usize, unroll: usize) -> Vec<Vu> {
    // Group tagged CU-kind VUs by (tag, ordinal within tag).
    let tag_of = |vu: &Vu| -> Option<u32> {
        let first = vu.nodes.first().or_else(|| vu.row_work.first().map(|rw| &rw.node))?;
        graph.node(*first).iter_tag
    };
    let mut per_tag: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, vu) in vus.iter().enumerate() {
        if vu.kind.is_cu() {
            if let Some(t) = tag_of(vu) {
                per_tag.entry(t).or_default().push(i);
            }
        }
    }
    // Structural alignment check: every tag must have the same VU count.
    let mut counts: Vec<usize> = per_tag.values().map(Vec::len).collect();
    counts.dedup();
    if per_tag.len() != n_tags || counts.len() != 1 {
        // Bodies are not structurally identical; keep full unrolling.
        return vus;
    }

    let body_len = counts[0];
    let mut merged_into: HashMap<usize, usize> = HashMap::new(); // old idx → canonical old idx
    for slot in 0..unroll {
        #[allow(clippy::needless_range_loop)] // `j` indexes every tag's unit list in lockstep
        for j in 0..body_len {
            let members: Vec<usize> = (0..n_tags)
                .filter(|t| t % unroll == slot)
                .map(|t| per_tag[&(t as u32)][j])
                .collect();
            let canon = members[0];
            for &m in &members[1..] {
                merged_into.insert(m, canon);
            }
        }
    }

    // Build the new VU list.
    let mut new_index: HashMap<usize, usize> = HashMap::new();
    let mut out: Vec<Vu> = Vec::new();
    for (i, vu) in vus.iter().enumerate() {
        if merged_into.contains_key(&i) {
            continue;
        }
        new_index.insert(i, out.len());
        out.push(vu.clone());
    }
    // Fold merged members into their canonical units.
    for (i, vu) in vus.iter().enumerate() {
        if let Some(&canon) = merged_into.get(&i) {
            let tgt = &mut out[new_index[&canon]];
            tgt.nodes.extend(vu.nodes.iter().copied());
            tgt.row_work.extend(vu.row_work.iter().cloned());
            tgt.produces.extend(vu.produces.iter().cloned());
            tgt.deps.extend(vu.deps.iter().copied());
            tgt.ii += vu.ii;
            tgt.label = format!("{}+", tgt.label);
        }
    }
    // Remap deps.
    let remap = |id: VuId, new_index: &HashMap<usize, usize>, merged: &HashMap<usize, usize>| {
        let mut idx = id.0 as usize;
        while let Some(&c) = merged.get(&idx) {
            idx = c;
        }
        VuId(new_index[&idx] as u32)
    };
    for vu in &mut out {
        let mut deps: Vec<VuId> =
            vu.deps.iter().map(|&d| remap(d, &new_index, &merged_into)).collect();
        deps.sort();
        deps.dedup();
        vu.deps = deps;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_ir::microbench;

    fn lower_default(g: &Graph) -> Vec<Vu> {
        lower(g, &GridConfig::default(), &CompileOptions::default()).expect("fits")
    }

    #[test]
    fn inner_product_is_one_cu_one_mu() {
        let vus = lower_default(&microbench::inner_product());
        let cus = vus.iter().filter(|v| v.kind.is_cu()).count();
        let mus = vus.iter().filter(|v| v.kind.is_mu()).count();
        assert_eq!(cus, 1);
        assert_eq!(mus, 1);
    }

    #[test]
    fn relu_is_one_cu_no_mu() {
        let vus = lower_default(&microbench::relu());
        assert_eq!(vus.iter().filter(|v| v.kind.is_cu()).count(), 1);
        assert_eq!(vus.iter().filter(|v| v.kind.is_mu()).count(), 0);
    }

    #[test]
    fn leaky_relu_fuses_into_one_cu() {
        let vus = lower_default(&microbench::leaky_relu());
        assert_eq!(vus.iter().filter(|v| v.kind.is_cu()).count(), 1, "shift+max fuse");
    }

    #[test]
    fn exp_sigmoid_uses_more_cus_than_pw() {
        let exp = lower_default(&microbench::sigmoid_exp());
        let pw = lower_default(&microbench::sigmoid_pw());
        let count = |vus: &[Vu]| vus.iter().filter(|v| v.kind.is_cu()).count();
        assert!(count(&exp) > count(&pw), "{} vs {}", count(&exp), count(&pw));
    }

    #[test]
    fn act_lut_uses_cu_and_mu() {
        let vus = lower_default(&microbench::act_lut());
        assert_eq!(vus.iter().filter(|v| v.kind == VuKind::LutCu).count(), 1);
        assert_eq!(vus.iter().filter(|v| v.kind.is_mu()).count(), 1);
    }

    #[test]
    fn conv_fully_unrolled_has_8_dot_cus() {
        let vus = lower_default(&microbench::conv1d());
        let dots = vus.iter().filter(|v| v.kind == VuKind::DotCu).count();
        assert_eq!(dots, 8);
        assert!(vus.iter().filter(|v| v.kind.is_cu()).all(|v| v.ii == 1));
    }

    #[test]
    fn conv_unroll_1_time_multiplexes_to_one_cu() {
        let g = microbench::conv1d();
        let vus =
            lower(&g, &GridConfig::default(), &CompileOptions { unroll: Some(1), max_cus: None })
                .expect("fits");
        let dots: Vec<&Vu> = vus.iter().filter(|v| v.kind == VuKind::DotCu).collect();
        assert_eq!(dots.len(), 1);
        assert_eq!(dots[0].ii, 8, "8 iterations share one CU");
    }

    #[test]
    fn conv_unroll_2_has_two_dot_cus_ii_4() {
        let g = microbench::conv1d();
        let vus =
            lower(&g, &GridConfig::default(), &CompileOptions { unroll: Some(2), max_cus: None })
                .expect("fits");
        let dots: Vec<&Vu> = vus.iter().filter(|v| v.kind == VuKind::DotCu).collect();
        assert_eq!(dots.len(), 2);
        assert!(dots.iter().all(|d| d.ii == 4));
    }

    #[test]
    fn every_node_is_produced_exactly_where_consumed() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let g = microbench::by_name(name);
            let vus = lower_default(&g);
            // Every output node is produced by some VU across all lanes.
            for &out in g.outputs() {
                let mut lanes: Vec<usize> = vus
                    .iter()
                    .flat_map(|v| v.produces.iter())
                    .filter(|(n, _)| *n == out)
                    .flat_map(|(_, ls)| ls.iter().copied())
                    .collect();
                lanes.sort_unstable();
                lanes.dedup();
                assert_eq!(lanes.len(), g.node(out).width, "{name}: output fully produced");
            }
        }
    }

    #[test]
    fn deps_reference_valid_units() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let vus = lower_default(&microbench::by_name(name));
            for vu in &vus {
                for d in &vu.deps {
                    assert!((d.0 as usize) < vus.len(), "{name}");
                }
            }
        }
    }
}
