//! Adapter: the CGRA simulator as the pipeline's inference engine.

use taurus_cgra::{CgraSim, PreparedProgram};
use taurus_pisa::{CodeGroup, InferenceEngine, BATCH_PACKETS};

/// Runs a compiled MapReduce program as the pipeline's ML block. The
/// engine owns (a shared handle to) its compiled program, so switches
/// built around it carry no borrow lifetimes; it reports the program's
/// measured ingress-to-egress latency so end-to-end packet latency
/// accounting matches the ASIC analysis.
#[derive(Debug)]
pub struct CgraEngine {
    sim: CgraSim,
    latency_ns: u64,
}

impl CgraEngine {
    /// Wraps a compiled program. Accepts a [`PreparedProgram`] (shared
    /// as is) or anything convertible into one — an owned
    /// [`taurus_compiler::GridProgram`] or an `Arc` of one, whose
    /// execution plan is then compiled here.
    pub fn new(program: impl Into<PreparedProgram>) -> Self {
        let program = program.into();
        Self { latency_ns: program.timing.latency_ns.round() as u64, sim: CgraSim::shared(program) }
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

    /// [`CgraSim::process_verdicts`] on the group's lanes when the
    /// program runs across packets (a stack of dense layers), otherwise
    /// [`InferenceEngine::infer`] on each row.
    fn infer_batch(&mut self, group: &mut CodeGroup, out: &mut [i64; BATCH_PACKETS]) {
        if self.sim.runs_across_packets() {
            self.sim.process_verdicts(group.lanes(), &mut out[..group.rows()]);
            return;
        }
        for (p, verdict) in out[..group.rows()].iter_mut().enumerate() {
            *verdict = self.infer(group.row(p));
        }
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
    fn a_group_gives_each_rows_verdict_across_packets_or_not() {
        // inner_product is one dense layer (across packets where the
        // CPU has AVX2); relu is a map (row by row).
        for (g, across) in [(microbench::inner_product(), true), (microbench::relu(), false)] {
            let width = g.input_width();
            let p = compile(&g, &GridConfig::default(), &CompileOptions::default()).expect("fits");
            let (mut single, mut batch) = (CgraEngine::new(p.clone()), CgraEngine::new(p));
            #[cfg(target_arch = "x86_64")]
            assert_eq!(
                batch.sim().runs_across_packets(),
                across && std::arch::is_x86_feature_detected!("avx2")
            );
            let rows: Vec<Vec<i32>> = (0..BATCH_PACKETS as i32)
                .map(|r| (0..width as i32).map(|k| (r * 7 + k * 3) % 11 - 5).collect())
                .collect();
            for len in 1..=BATCH_PACKETS {
                let mut group = CodeGroup::new(width);
                rows[..len].iter().for_each(|row| group.push(row));
                let mut out = [i64::MIN; BATCH_PACKETS];
                batch.infer_batch(&mut group, &mut out);
                let want: Vec<i64> = rows[..len].iter().map(|row| single.infer(row)).collect();
                assert_eq!(out[..len], want[..], "{len} rows, across {across}");
                assert!(out[len..].iter().all(|&v| v == i64::MIN), "the rest left as it was");
            }
        }
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
