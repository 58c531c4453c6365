//! Table 5: performance and resource overheads of the application models
//! (KMeans, SVM, DNN, LSTM) plus the full 12×10 grid, against a 500 mm² /
//! 270 W four-pipeline reference switch.

use taurus_bench::{f, print_table, table5_models};
use taurus_compiler::GridConfig;
use taurus_hw_model::{grid_report, model_report, SwitchChip};

fn main() {
    let grid = GridConfig::default();
    let chip = SwitchChip::default();
    let mut rows = Vec::new();

    for (name, paper_ns, paper_mm2, program) in table5_models() {
        let hw = model_report(&program.resources, &grid, &chip, 0.1);
        let rate = if program.timing.initiation_interval == 1 {
            "1.00".to_string()
        } else {
            "—".to_string()
        };
        rows.push(vec![
            name.to_string(),
            rate,
            f(program.timing.latency_ns, 0),
            f(paper_ns, 0),
            f(hw.area_mm2, 2),
            f(paper_mm2, 1),
            f(hw.area_overhead_pct, 2),
            f(hw.power_mw, 0),
            f(hw.power_overhead_pct, 2),
            program.resources.cus.to_string(),
            program.resources.mus.to_string(),
        ]);
    }

    let gr = grid_report(&grid, &chip, 0.1);
    rows.push(vec![
        "12x10 Grid".into(),
        String::new(),
        String::new(),
        String::new(),
        f(gr.area_mm2, 2),
        "4.8".into(),
        f(gr.area_overhead_pct, 2),
        f(gr.power_mw, 0),
        f(gr.power_overhead_pct, 2),
        grid.cu_cells().to_string(),
        grid.mu_cells().to_string(),
    ]);

    print_table(
        "Table 5: application models — performance and resource overheads",
        &[
            "App Model",
            "GPkt/s",
            "ns",
            "paper ns",
            "mm2",
            "paper",
            "+area%",
            "mW",
            "+pwr%",
            "CUs",
            "MUs",
        ],
        &rows,
    );
    println!(
        "\nPaper anchors: grid 4.8 mm2, +3.8% area, +2.8% power; KMeans 61 ns/0.3 mm2,\n\
         SVM 83 ns/0.6 mm2, DNN 221 ns/1.0 mm2, LSTM 805 ns/3.0 mm2 (not line rate)."
    );
}
