//! Multi-app hosting: the paper's central claim (Table 1, Fig. 6) is
//! that *one* data-plane architecture serves *many* per-packet ML
//! applications. This example builds one switch hosting the §5.2.2
//! anomaly-detection DNN and the SYN-flood scorer side by side — and a
//! second switch running the same apps on the threshold backend to show
//! engine selection.
//!
//! Run with: `cargo run --release --example multi_app`

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, SwitchBuilder};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};

fn main() {
    println!("training the anomaly-detection DNN…");
    let detector = AnomalyDetector::train_default(11, 2_000);
    let syn_flood = SynFloodDetector::default_deployment();
    println!(
        "compiled apps: DNN {:.0} ns / {} CUs, SYN scorer {:.0} ns / {} CUs",
        detector.program.timing.latency_ns,
        detector.program.resources.cus,
        syn_flood.program.timing.latency_ns,
        syn_flood.program.resources.cus,
    );

    // One switch, two apps, both on the cycle-level CGRA simulator.
    let mut switch = SwitchBuilder::new().register(&detector).register(&syn_flood).build();

    let records = KddGenerator::new(12).take(800);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 12, ..Default::default() });
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }

    println!(
        "\n{} packets through {} hosted apps; {} dropped by the combined verdict",
        trace.packets.len(),
        switch.app_count(),
        switch.report().dropped
    );
    println!("per-app counters (independent pipelines):");
    for app in switch.report().apps {
        println!(
            "  {:>17} [{:?}, {:?}]: {:6} pkts, {:6} ML, {:5} dropped",
            app.name,
            app.reaction,
            app.policy,
            app.counters.packets,
            app.counters.ml_packets,
            app.counters.dropped
        );
    }
    println!("slowest hosted ML block: {} ns per packet", switch.ml_latency_ns());

    // Engine selection: the same apps deploy onto the threshold backend
    // (a heuristic baseline — no compiled program executed).
    let mut heuristic = SwitchBuilder::new()
        .backend(EngineBackend::Threshold)
        .register(&detector)
        .register(&syn_flood)
        .build();
    for tp in &trace.packets {
        heuristic.process_trace_verdict(tp);
    }
    println!(
        "\nthreshold-backend deployment drops {} (heuristic, {} ns ML path)",
        heuristic.report().dropped,
        heuristic.ml_latency_ns()
    );
}
