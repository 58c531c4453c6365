//! Compiled-program container and reports.

use core::fmt;

use taurus_ir::Graph;

use crate::config::GridConfig;
use crate::place::Placement;
use crate::vu::Vu;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The input graph failed validation.
    InvalidGraph(String),
    /// The program does not fit the grid even after time-multiplexing.
    GridCapacity(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidGraph(msg) => write!(f, "invalid graph: {msg}"),
            CompileError::GridCapacity(msg) => write!(f, "grid capacity exceeded: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Resource usage of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceReport {
    /// Physical compute units used.
    pub cus: usize,
    /// Physical memory units used (weight banks, LUTs, state).
    pub mus: usize,
    /// Functional units doing useful work (Σ lanes×stages over CUs).
    pub active_fus: usize,
    /// Total FUs in the used CUs (lanes × stages × CUs).
    pub total_fus: usize,
    /// Weight + LUT bytes resident in MUs.
    pub memory_bytes: usize,
}

/// End-to-end timing of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Ingress-to-egress latency in cycles.
    pub latency_cycles: u32,
    /// Latency in nanoseconds at the configured clock.
    pub latency_ns: f64,
    /// Cycles between successive packets (1 = line rate).
    pub initiation_interval: u32,
    /// `1 / initiation_interval`, the Table 7 "Line Rate" column.
    pub line_rate_fraction: f64,
}

/// A fully compiled MapReduce program: lowered units, placement, timing,
/// and resources — everything the CGRA simulator and hardware model need.
#[derive(Debug, Clone, PartialEq)]
pub struct GridProgram {
    /// The source graph (owned copy; programs outlive builders).
    pub graph: Graph,
    /// Lowered virtual units in topological order.
    pub units: Vec<Vu>,
    /// Grid placement.
    pub placement: Placement,
    /// Timing analysis.
    pub timing: TimingReport,
    /// Resource usage.
    pub resources: ResourceReport,
    /// The grid this program was compiled for.
    pub grid: GridConfig,
}

/// Computes the resource report for lowered units.
pub fn resource_report(graph: &Graph, vus: &[Vu], grid: &GridConfig) -> ResourceReport {
    let cus = vus.iter().filter(|v| v.kind.is_cu()).count();
    // Weight banks may span multiple MUs when larger than one MU's SRAM.
    let mut mus = 0usize;
    for bank in graph.weights() {
        mus += bank.data.len().div_ceil(grid.mu_bytes()).max(1);
    }
    mus += graph.luts().len(); // one (partial) MU per table
    mus += usize::from(!graph.states().is_empty()); // state shares one MU
    let active_fus: usize =
        vus.iter().filter(|v| v.kind.is_cu()).map(|v| v.lanes_used * v.stages_used.max(1)).sum();
    let total_fus = cus * grid.lanes * grid.stages;
    let memory_bytes = graph.weight_bytes() + graph.luts().len() * 256;
    ResourceReport { cus, mus, active_fus, total_fus, memory_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::config::CompileOptions;
    use taurus_ir::microbench;

    #[test]
    fn inner_product_report() {
        let g = microbench::inner_product();
        let p = compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
        assert_eq!(p.resources.cus, 1);
        assert_eq!(p.resources.mus, 1);
        assert_eq!(p.resources.memory_bytes, 16);
        assert!(p.resources.active_fus > 0);
        assert!(p.resources.active_fus <= p.resources.total_fus);
    }

    #[test]
    fn error_display() {
        let e = CompileError::GridCapacity("needs 200 CUs".into());
        assert!(e.to_string().contains("grid capacity"));
        let e = CompileError::InvalidGraph("no outputs".into());
        assert!(e.to_string().contains("invalid graph"));
    }
}
