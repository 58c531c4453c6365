//! Online training against the live sharded deployment (§5.2.3): a
//! fresh, untrained DNN is installed on the running switch, the control
//! plane samples telemetry from the same stream the switch serves,
//! trains with real SGD, and hot-swaps each round's weights onto every
//! shard at the same global packet index. Reported is the **deployed**
//! F1 — scored from the verdicts the data plane actually issued per
//! model segment — over virtual (trace) time.
//!
//! Two properties are hard-asserted:
//!
//! - **determinism across shards** — the full deployment report
//!   (curve, per-segment confusion, merged counters) is bit-identical
//!   at 1, 2, and 4 shards;
//! - **convergence** — the deployed-F1 curve trends upward from the
//!   untrained starting point and the final model performs on par with
//!   an offline-trained deployment.
//!
//! Run with: `cargo run --release -p taurus-bench --bin online`
//! (append `-- --smoke` for the small CI configuration).

use taurus_bench::{f, print_table, save_json};
use taurus_controlplane::training::TrainingRunConfig;
use taurus_core::e2e::build_detector_from_packets;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::mlp::MlpConfig;
use taurus_ml::Mlp;
use taurus_runtime::{run_online_deployment, DeploymentConfig};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (train_n, trace_n, rounds, buffer) =
        if smoke { (500, 300, 8, 128) } else { (1_500, 1_200, 12, 128) };

    // A mostly-benign mixture (≈25 % anomalous packets instead of the
    // default ≈47 %) with little class overlap: with a high attack base
    // rate an untrained drop-everything model already scores a
    // deceptively decent F1, and with the default 22 % stealthy-attack
    // rate even offline training tops out too low for a convergence
    // curve to be visible. Fig. 13 needs a learnable workload.
    let priors = [0.75, 0.14, 0.07, 0.03, 0.01];
    let gen = |seed: u64| KddGenerator::new(seed).with_priors(priors).with_overlap(0.04, 0.05);

    // The deployment shape (standardizer, pipeline, app identity) comes
    // from an offline-trained detector; the *deployed weights* start
    // from a fresh random init and must earn their F1 online.
    println!("building the anomaly-detection deployment ({train_n} records)…");
    let train_records = gen(91).take(train_n);
    let train_trace =
        PacketTrace::expand(train_records, &TraceConfig { seed: 91, ..Default::default() });
    let app = build_detector_from_packets(&train_trace, 91);
    let records = gen(92).take(trace_n);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 92, ..Default::default() });
    println!(
        "serving trace: {} packets, {:.1}% anomalous; offline reference F1 {:.1}",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        app.offline_f1
    );
    let fresh = Mlp::new(&MlpConfig::anomaly_dnn(), 9);

    let config = |shards: usize| DeploymentConfig {
        // The paper's experiment watches minutes of 5 Gb/s traffic; this
        // synthetic trace spans ~1 ms of virtual time at the same rate
        // (a few thousand packets), so the modeled control-plane costs
        // are scaled down ~1000x to keep the experiment's *structure* —
        // several train+install rounds landing mid-stream while the old
        // model keeps serving. Lowering the offered rate instead would
        // silently wreck the 5 ms time-window features the DNN relies on.
        training: TrainingRunConfig {
            sampling_rate: 0.5,
            buffer_size: buffer,
            batch_size: 32,
            epochs: 12,
            lr: 0.08,
            train_ms_per_batch: 0.8e-3,
            install_ms: 3e-3,
            rounds,
            seed: 5,
            ..TrainingRunConfig::default()
        },
        shards,
        batch_size: 64,
    };

    // The tentpole check: the same deployment on 1, 2, and 4 shards
    // must produce bit-identical reports — live weight swaps preserve
    // the runtime's exactness guarantee.
    let mut reports = Vec::new();
    for shards in SHARD_COUNTS {
        let report = run_online_deployment(&app, &fresh, &trace, &config(shards));
        println!(
            "shards {shards}: {} rounds installed, final deployed F1 {:.1}",
            report.rounds.len(),
            report.final_f1()
        );
        reports.push(report);
    }
    let golden = &reports[0];
    for (shards, report) in SHARD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            report.curve, golden.curve,
            "deployed-F1 curve diverged at {shards} shards — the update barrier leaked"
        );
        assert_eq!(report.runtime.segments, golden.runtime.segments);
        assert_eq!(report.runtime.merged, golden.runtime.merged);
        assert_eq!(report.rounds, golden.rounds);
    }

    let mut rows = Vec::new();
    for (i, p) in golden.curve.iter().enumerate() {
        let (version, installed_at) = if i == 0 {
            (1, 0)
        } else {
            (golden.rounds[i - 1].version, golden.rounds[i - 1].installed_at_packet)
        };
        rows.push(vec![
            i.to_string(),
            version.to_string(),
            installed_at.to_string(),
            f(p.time_s * 1e3, 3),
            golden.runtime.segments[i].total().to_string(),
            f(p.f1_percent, 1),
            f(golden.runtime.segments[i].detected_percent(), 1),
        ]);
    }
    print_table(
        "Online deployment: per-segment F1 of the live model (shards 1/2/4 bit-identical)",
        &["Segment", "Version", "Installed@pkt", "end t (ms)", "Packets", "F1", "Detected %"],
        &rows,
    );

    // Convergence: the deployed model must improve on its untrained
    // starting point and end in the neighbourhood of the offline F1.
    let first = golden.curve.first().expect("nonempty curve").f1_percent;
    let last = golden.final_f1();
    println!(
        "\ndeployed F1: {first:.1} (untrained, segment 0) → {last:.1} (final segment); \
         offline reference {:.1}",
        app.offline_f1
    );
    assert!(
        golden.rounds.len() >= rounds.min(3),
        "expected at least {} installed rounds, got {}",
        rounds.min(3),
        golden.rounds.len()
    );
    assert!(last > first + 5.0, "online training must lift deployed F1 ({first:.1} → {last:.1})");
    assert!(
        last > 0.5 * app.offline_f1,
        "deployed F1 {last:.1} should approach the offline reference {:.1}",
        app.offline_f1
    );
    // Trend, not strict monotonicity (SGD on small buffers is noisy):
    // the later half of the curve must dominate the earlier half.
    let mid = golden.curve.len() / 2;
    let mean = |ps: &[taurus_controlplane::ConvergencePoint]| {
        ps.iter().map(|p| p.f1_percent).sum::<f64>() / ps.len().max(1) as f64
    };
    assert!(
        mean(&golden.curve[mid..]) > mean(&golden.curve[..mid]),
        "deployed-F1 curve must trend upward: {:?}",
        golden.curve.iter().map(|p| p.f1_percent as i64).collect::<Vec<_>>()
    );

    save_json("online_deployment", golden);
    println!(
        "determinism: deployment reports matched bit-for-bit at every shard count \
         ({} model installs over {:.2} ms of trace time)",
        golden.rounds.len(),
        golden.curve.last().map_or(0.0, |p| p.time_s * 1e3)
    );
}
