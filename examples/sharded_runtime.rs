//! Sharded multi-core hosting: scale one Taurus deployment across N
//! switch replicas without changing its semantics. The runtime routes
//! packets by flow-consistent hashing, batches them over bounded SPSC
//! queues to one worker thread per shard, and merges the per-shard
//! reports — and the merged report equals the single-threaded switch's
//! report *exactly* (this example checks it).
//!
//! The trace is fed in fixed-size segments via `PacketTrace::batches`,
//! the streaming-driver pattern: workers and flow state stay resident
//! across `feed` calls, so a driver never has to hold a whole trace —
//! and exactness still holds end to end.
//!
//! Run with: `cargo run --release --example sharded_runtime`

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::SwitchBuilder;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::RuntimeBuilder;

const SEGMENT: usize = 4_096;

fn main() {
    println!("training the anomaly-detection DNN…");
    let detector = AnomalyDetector::train_default(11, 2_000);
    let syn_flood = SynFloodDetector::default_deployment();

    let records = KddGenerator::new(99).take(2_000);
    let trace = PacketTrace::expand(records, &TraceConfig::default());
    println!(
        "trace: {} packets, {:.1}% anomalous\n",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0
    );

    // The sequential reference device.
    let mut switch = SwitchBuilder::new().register(&detector).register(&syn_flood).build();
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }
    let golden = switch.report();

    // The same deployment, sharded 4 ways, fed as a stream of
    // fixed-size ingest segments.
    let mut runtime = RuntimeBuilder::new()
        .shards(4)
        .batch_size(128)
        .register(&detector)
        .register(&syn_flood)
        .build();
    let mut segments = 0usize;
    for segment in trace.batches(SEGMENT) {
        runtime.feed(segment);
        segments += 1;
    }
    let report = runtime.drain();
    println!("streamed {segments} segments of <= {SEGMENT} packets\n");

    println!("shard  packets  dropped  flagged");
    for s in &report.shards {
        // `s.report` is the replica's cumulative view since build.
        println!(
            "{:>5}  {:>7}  {:>7}  {:>7}",
            s.shard, s.report.packets, s.report.dropped, s.report.flagged
        );
    }
    println!(
        "\nmerged: {} packets, {} ML packets, {} dropped, {} flagged",
        report.merged.packets,
        report.merged.ml_packets,
        report.merged.dropped,
        report.merged.flagged
    );
    for app in &report.merged.apps {
        println!(
            "  {:<18} packets {:>6}  ml {:>6}  dropped {:>6}",
            app.name, app.counters.packets, app.counters.ml_packets, app.counters.dropped
        );
    }

    assert_eq!(report.merged, golden, "sharding must not change semantics");
    println!("\nexact: merged report == sequential switch report ✓");
}
