//! The repo benchmark: the estimator, span log, workloads and harness
//! passes shared by the `gate` (end-to-end, untraced) and `probe`
//! (per-layer, traced) binaries. See `README.md` for what is measured
//! and why.

pub mod cli;
pub mod estimator;
pub mod harness;
pub mod host;
pub mod report;
pub mod spans;
pub mod workload;

use std::path::PathBuf;

/// Direction of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value the metric may get worse by.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order. `BENCHMARK.json` carries
/// the same table (a unit test keeps the two in step); `run.sh --repeat`
/// judges two sets against these bounds.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "switch_pps", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "stream_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "f1", unit: "ratio", better: Better::Higher, bound: 0.1 },
    EndToEnd { name: "model_latency", unit: "sim_ns", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric as `BENCHMARK.json` declares it. Per-layer
/// metrics have no bound: they explain a move of an end-to-end metric,
/// they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Module path of the layer plus what is measured.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Timed through the quiet estimator: a `<name>_p50` twin (the
    /// per-block median composite) is reported right after it.
    pub twin: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, twin: true }
}

const fn plain(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, twin: false }
}

/// The per-layer metrics, in reporting order. `_ns` values of the
/// ladder and stream layers are per trace packet (so layers add up to
/// the packet); kernel, channel and control-plane probes are per call.
pub const PER_LAYER: [PerLayer; 52] = [
    // Standalone kernels under the engine and the formatter.
    timed("ir.kernels.matvec_rows_wide_ns", "ns"),
    timed("cgra.process_into_ns", "ns"),
    timed("pisa.registers.encode_dnn6_ns", "ns"),
    // The ladder: the packet path replayed layer by layer.
    timed("core.ingest.observe_ns", "ns"),
    timed("pisa.flow_table.access_ns", "ns"),
    timed("pisa.registers.windows_observe_ns", "ns"),
    timed("core.ingest.to_packet_ns", "ns"),
    timed("pisa.parser.parse_into_ns", "ns"),
    timed("pisa.mat.apply_ns", "ns"),
    timed("pisa.registers.observe_prepared_ns", "ns"),
    timed("core.apps.formatter_ns", "ns"),
    timed("core.engine.infer_ns", "ns"),
    timed("pisa.phv.set_ml_ns", "ns"),
    // The same packets through the assembled paths.
    timed("pisa.pipeline.process_prepared_ns", "ns"),
    timed("core.switch.process_prepared_verdict_ns", "ns"),
    timed("core.switch.process_trace_verdict_ns", "ns"),
    plain("core.switch.unattributed_ns", "ns", Better::Lower),
    plain("trace_overhead_share", "ratio", Better::Lower),
    plain("core.switch.block_ns_p50", "ns", Better::Lower),
    plain("core.switch.block_ns_p99", "ns", Better::Lower),
    plain("core.switch.block_samples", "count", Better::Higher),
    plain("core.switch.ml_share", "ratio", Better::Lower),
    timed("core.switch.report_us", "us"),
    timed("core.switch.install_update_us", "us"),
    // Flow-table behaviour on this workload.
    plain("pisa.flow_table.way0_share", "ratio", Better::Higher),
    plain("pisa.flow_table.start_share", "ratio", Better::Lower),
    plain("pisa.flow_table.capacity_evictions", "count", Better::Lower),
    plain("pisa.flow_table.occupancy", "count", Better::Lower),
    // Ingest frontier and the pipelined-ingest stages.
    timed("core.ingest.admit_ns", "ns"),
    timed("runtime.pipeline.parse_packet_ns", "ns"),
    timed("runtime.pipeline.resolve_and_count_ns", "ns"),
    timed("runtime.pipeline.steer_copy_ns", "ns"),
    // The channel.
    timed("runtime.spsc.same_thread_ns", "ns"),
    timed("runtime.spsc.pingpong_us", "us"),
    timed("runtime.spsc.handoff_ns_per_batch", "ns"),
    // The resident service.
    timed("runtime.service.feed_ns_per_pkt", "ns"),
    timed("runtime.service.drain_us", "us"),
    timed("runtime.service.reset_us", "us"),
    timed("runtime.service.install_us", "us"),
    plain("runtime.service.install_us_p99", "us", Better::Lower),
    plain("runtime.service.burst_rtt_us_p50", "us", Better::Lower),
    plain("runtime.service.burst_rtt_us_p99", "us", Better::Lower),
    plain("runtime.service.burst_rtt_samples", "count", Better::Higher),
    plain("runtime.service.cpu_ns_per_pkt", "ns", Better::Lower),
    plain("runtime.service.allocs_per_mpkt", "count", Better::Lower),
    plain("runtime.runtime.pkts_per_batch", "count", Better::Higher),
    plain("runtime.runtime.balance", "ratio", Better::Higher),
    // Set-up.
    plain("ml.train_s", "s", Better::Lower),
    timed("compiler.compile_ms", "ms"),
    plain("dataset.expand_s", "s", Better::Lower),
    timed("runtime.service.build_ms", "ms"),
    timed("runtime.service.shutdown_ms", "ms"),
];

/// Where a run leaves its files: `benchmark/out/` of the checkout the
/// binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_the_same_end_to_end_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for m in END_TO_END {
            let better = if m.better == Better::Higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks `{entry}`");
        }
        for m in PER_LAYER {
            for name in
                std::iter::once(m.name.to_string()).chain(m.twin.then(|| format!("{}_p50", m.name)))
            {
                let better = if m.better == Better::Higher { "higher" } else { "lower" };
                let entry = format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                    m.unit
                );
                assert!(text.contains(&entry), "BENCHMARK.json lacks `{entry}`");
            }
        }
        for (name, _) in workload::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\": ")), "{name}");
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", cli::DEFAULT_SECONDS)));
    }
}
