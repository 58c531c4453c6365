//! The paper's §5.2.2 case study end to end: train the 4-layer
//! anomaly-detection DNN on synthetic NSL-KDD-like traffic, deploy it as
//! an int8 MapReduce program on the switch, and compare per-packet
//! detection against the sampled control-plane baseline.
//!
//! Run with: `cargo run --release --example anomaly_detection`

use taurus_core::apps::SynFloodDetector;
use taurus_core::e2e::{build_detector_from_trace, run_table8};
use taurus_core::SwitchBuilder;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};

fn main() {
    // 1. Train on stream features extracted by the same register-stage
    //    logic the switch runs (the paper's methodology: model and data
    //    plane see identical features).
    println!("training the 6 → 12 → 6 → 3 → 1 DNN on stream features…");
    let detector = build_detector_from_trace(7, 2_000);
    println!(
        "offline F1 = {:.1} (paper: 71.1); weights = {} B (vs ~12 MB of flow rules, §3)",
        detector.offline_f1,
        detector.weight_bytes()
    );
    println!(
        "compiled DNN: {} CUs, {} MUs, {:.0} ns latency (paper: 221 ns), line rate 1/{}",
        detector.program.resources.cus,
        detector.program.resources.mus,
        detector.program.timing.latency_ns,
        detector.program.timing.initiation_interval
    );

    // 2. Build an evaluation trace the detector has never seen.
    let records = KddGenerator::new(99).take(1_200);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 99, ..Default::default() });
    println!(
        "\nevaluation trace: {} packets ({:.1}% anomalous) at {:.1} Gb/s",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        trace.rate_gbps()
    );

    // 3. Taurus vs control-plane baseline at two sampling rates.
    let rows = run_table8(&detector, &trace, &[1e-4, 1e-2]);
    for row in &rows {
        println!(
            "\nsampling {:>5.0e}: baseline detected {:6.3}% (F1 {:5.2}) after {:5.1} ms \
             sample-to-rule",
            row.sampling_rate,
            row.baseline.detected_pct,
            row.baseline.f1_percent,
            row.baseline.all_ms,
        );
        println!(
            "               Taurus   detected {:6.2}% (F1 {:5.2}) at {:.0} ns per packet",
            row.taurus.detected_pct, row.taurus.f1_percent, row.taurus.mean_latency_ns,
        );
        let ratio = row.taurus.detected_pct / row.baseline.detected_pct.max(1e-6);
        println!("               → Taurus catches {ratio:.0}× more anomalous packets");
    }

    // 4. The same switch hosts a second app (Table 1's DoS row) beside
    //    the DNN — one SwitchBuilder, per-app counters.
    let mut switch = SwitchBuilder::new()
        .register(&detector)
        .register(&SynFloodDetector::default_deployment())
        .build();
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }
    println!("\nmulti-app deployment over the same trace:");
    for app in switch.report().apps {
        println!(
            "  {:>17}: {:6} pkts, {:6} through ML, {:5} dropped",
            app.name, app.counters.packets, app.counters.ml_packets, app.counters.dropped
        );
    }
}
