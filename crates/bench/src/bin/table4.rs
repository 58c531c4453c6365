//! Table 4: per-FU area and power at the target design (16 lanes ×
//! 4 stages) across precisions — the hardware model's calibration
//! anchors, printed with the paper's published values.

use taurus_bench::{f, print_table};
use taurus_hw_model::{fu_area_um2, fu_power_uw, CuGeometry, Precision};

fn main() {
    let g = CuGeometry::PAPER;
    let rows: Vec<Vec<String>> = [
        (Precision::Fix8, "fix8", 670.0, 456.0),
        (Precision::Fix16, "fix16", 1338.0, 887.0),
        (Precision::Fix32, "fix32", 2949.0, 2341.0),
    ]
    .iter()
    .map(|&(p, name, paper_area, paper_power)| {
        vec![
            name.to_string(),
            f(fu_area_um2(g, p), 0),
            f(paper_area, 0),
            f(fu_power_uw(g, p, 0.1), 0),
            f(paper_power, 0),
        ]
    })
    .collect();
    print_table(
        "Table 4: per-FU area & power at 16 lanes / 4 stages (10% switching)",
        &["Precision", "Area (um2)", "paper", "Power (uW)", "paper"],
        &rows,
    );
}
