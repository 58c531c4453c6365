//! Adapter: the CGRA simulator as the pipeline's inference engine.

use taurus_cgra::{CgraSim, PreparedProgram};
use taurus_pisa::InferenceEngine;

/// Runs a compiled MapReduce program as the pipeline's ML block. The
/// engine owns (a shared handle to) its compiled program, so switches
/// built around it carry no borrow lifetimes; it reports the program's
/// measured ingress-to-egress latency so end-to-end packet latency
/// accounting matches the ASIC analysis.
#[derive(Debug)]
pub struct CgraEngine {
    sim: CgraSim,
    latency_ns: u64,
    /// [`InferenceEngine::infer_batch`]'s verdict lanes, before they
    /// widen to the pipeline's `i64`.
    verdicts: Vec<i32>,
}

impl CgraEngine {
    /// Wraps a compiled program. Accepts a [`PreparedProgram`] (shared
    /// as is) or anything convertible into one — an owned
    /// [`taurus_compiler::GridProgram`] or an `Arc` of one, whose
    /// execution plan is then compiled here.
    pub fn new(program: impl Into<PreparedProgram>) -> Self {
        let program = program.into();
        Self {
            latency_ns: program.timing.latency_ns.round() as u64,
            sim: CgraSim::shared(program),
            verdicts: Vec::new(),
        }
    }

    /// Hot-swaps the compiled program (a live model update): the
    /// simulator is retargeted at the new program and its already
    /// compiled plan, exactly as if the grid's weight memories were
    /// rewritten — a handle swap, nothing is compiled or allocated here.
    /// Persistent model state (e.g. MU-resident recurrent state)
    /// restarts zeroed — it was computed under the old weights.
    pub fn swap_program(&mut self, program: PreparedProgram) {
        self.latency_ns = program.timing.latency_ns.round() as u64;
        self.sim.retarget(program);
    }

    /// The underlying simulator (e.g., to inspect persistent state).
    pub fn sim(&self) -> &CgraSim {
        &self.sim
    }
}

impl InferenceEngine for CgraEngine {
    fn infer(&mut self, features: &[i32]) -> i64 {
        i64::from(self.sim.process_verdict(features))
    }

    /// [`CgraSim::process_verdicts`]: across packets when the program
    /// is a stack of dense layers, row by row otherwise.
    fn infer_batch(&mut self, rows: &[Vec<i32>], out: &mut [i64]) {
        self.verdicts.resize(rows.len(), 0);
        self.sim.process_verdicts(rows, &mut self.verdicts);
        for (o, &v) in out.iter_mut().zip(&self.verdicts) {
            *o = i64::from(v);
        }
    }

    /// Only a program the across-packets kernel runs gains from a batch.
    fn has_batch_kernel(&self) -> bool {
        self.sim.runs_across_packets()
    }

    fn latency_ns(&self) -> u64 {
        self.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taurus_compiler::{compile, CompileOptions, GridConfig};
    use taurus_ir::microbench;

    #[test]
    fn engine_reports_program_latency_and_output() {
        let g = microbench::inner_product();
        let p = compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
        let latency = p.timing.latency_ns.round() as u64;
        let mut e = CgraEngine::new(p);
        let out = e.infer(&[1; 16]);
        // Weights are (i % 5) − 2 summed over 16 lanes with x = 1.
        let expect: i64 = (0..16).map(|i| (i % 5) - 2).sum();
        assert_eq!(out, expect);
        assert_eq!(e.latency_ns(), latency);
    }

    #[test]
    fn engine_shares_programs_without_borrows() {
        let g = microbench::inner_product();
        let p = Arc::new(
            compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits"),
        );
        let mut a = CgraEngine::new(Arc::clone(&p));
        let mut b = CgraEngine::new(Arc::clone(&p));
        assert_eq!(a.infer(&[1; 16]), b.infer(&[1; 16]));
        assert!(Arc::ptr_eq(a.sim().program(), b.sim().program()), "one shared compilation");
    }
}
