//! Table 2: unbatched inference latency on control-plane accelerators.
//!
//! Paper values are carried as calibrated constants (we own none of the
//! devices); a live measurement of unbatched inference on this host's
//! CPU cross-checks the order of magnitude. Either way, the gap to the
//! 221 ns data-plane DNN is 3–6 orders of magnitude.

use taurus_bench::{f, print_table};
use taurus_controlplane::accelerator::{measure_host_unbatched, Accelerator};
use taurus_ml::mlp::MlpConfig;
use taurus_ml::Mlp;

fn main() {
    let mut rows: Vec<Vec<String>> = Accelerator::ALL
        .iter()
        .map(|a| {
            vec![a.name().to_string(), f(a.latency_ms(), 2), "paper (calibrated constant)".into()]
        })
        .collect();

    let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 0);
    let host_ms = measure_host_unbatched(&mlp, &[0.3; 6], 10_000);
    rows.push(vec!["This host (bare Rust fwd)".into(), f(host_ms, 4), "measured live".into()]);

    print_table(
        "Table 2: inference time for control-plane accelerators (batch = 1)",
        &["Accelerator", "Latency (ms)", "Source"],
        &rows,
    );
    println!(
        "\nData-plane DNN on Taurus: ~221 ns (paper) — even the fastest control-plane\n\
         option is >10^3x slower; framework-laden stacks are >10^6x slower."
    );
}
