//! Table 8: end-to-end anomaly detection — control-plane baseline vs
//! Taurus, over the same trace, at sampling rates 10⁻⁵ … 10⁻².

use taurus_bench::{f, print_table};
use taurus_core::e2e::{build_detector_from_trace, run_table8};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};

fn main() {
    println!("Training the anomaly-detection DNN on stream features…");
    let detector = build_detector_from_trace(1001, 3_000);
    println!("offline F1 = {:.1} (paper: 71.1)", detector.offline_f1);

    let records = KddGenerator::new(2002).take(12_000);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 2002, ..Default::default() });
    println!(
        "evaluation trace: {} packets, {:.1}% anomalous, {:.1} Gb/s",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        trace.rate_gbps()
    );

    let rows_data = run_table8(&detector, &trace, &[1e-5, 1e-4, 1e-3, 1e-2]);
    let paper: &[(f64, f64, f64, f64, f64)] = &[
        // (rate, baseline detected %, taurus detected %, baseline F1, taurus F1)
        (1e-5, 0.781, 58.2, 1.549, 71.1),
        (1e-4, 2.553, 58.2, 4.944, 71.1),
        (1e-3, 0.015, 58.2, 0.031, 71.1),
        (1e-2, 0.000, 58.2, 0.001, 71.1),
    ];

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .zip(paper)
        .map(|(r, &(_, p_det_b, p_det_t, p_f1_b, p_f1_t))| {
            vec![
                format!("{:.0e}", r.sampling_rate),
                f(r.baseline.xdp_batch, 0),
                f(r.baseline.rem_batch, 0),
                f(r.baseline.xdp_ms, 0),
                f(r.baseline.db_ms, 0),
                f(r.baseline.ml_ms, 0),
                f(r.baseline.install_ms, 0),
                f(r.baseline.all_ms, 0),
                format!("{:.3} ({p_det_b})", r.baseline.detected_pct),
                format!("{:.1} ({p_det_t})", r.taurus.detected_pct),
                format!("{:.3} ({p_f1_b})", r.baseline.f1_percent),
                format!("{:.1} ({p_f1_t})", r.taurus.f1_percent),
            ]
        })
        .collect();
    print_table(
        "Table 8: baseline batches/latency and detection vs Taurus (paper values in parens)",
        &[
            "Sampling",
            "XDP",
            "Rem.",
            "XDP ms",
            "DB ms",
            "ML ms",
            "Inst ms",
            "All ms",
            "Base det%",
            "Taurus det%",
            "Base F1",
            "Taurus F1",
        ],
        &rows,
    );
    let ratio = rows_data
        .iter()
        .map(|r| r.taurus.detected_pct / r.baseline.detected_pct.max(1e-6))
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nTaurus detects >= {ratio:.0}x more anomalous packets than the baseline at every\n\
         sampling rate (paper: two orders of magnitude); mean switch latency {:.0} ns.",
        rows_data[0].taurus.mean_latency_ns
    );
    taurus_bench::save_json("table8", &rows_data);
}
