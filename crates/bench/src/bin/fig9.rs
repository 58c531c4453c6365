//! Figure 9: per-FU area and power across CU configurations
//! (lanes ∈ {4, 8, 16, 32} × stages ∈ {2, 3, 4, 6}, fix8).

use taurus_bench::{f, print_table};
use taurus_hw_model::{fu_area_um2, fu_power_uw, CuGeometry, Precision};

fn main() {
    let lanes = [4usize, 8, 16, 32];
    let stages = [2usize, 3, 4, 6];

    let area_rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|&l| {
            let mut row = vec![l.to_string()];
            for &s in &stages {
                row.push(f(fu_area_um2(CuGeometry { lanes: l, stages: s }, Precision::Fix8), 0));
            }
            row
        })
        .collect();
    print_table(
        "Figure 9a: area per FU (um2) — rows: lanes, cols: stages",
        &["lanes\\stages", "2", "3", "4", "6"],
        &area_rows,
    );

    let power_rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|&l| {
            let mut row = vec![l.to_string()];
            for &s in &stages {
                row.push(f(
                    fu_power_uw(CuGeometry { lanes: l, stages: s }, Precision::Fix8, 0.1) / 1e3,
                    3,
                ));
            }
            row
        })
        .collect();
    print_table(
        "Figure 9b: power per FU (mW, 10% switching) — rows: lanes, cols: stages",
        &["lanes\\stages", "2", "3", "4", "6"],
        &power_rows,
    );
    println!("\nPaper shape: per-FU cost falls as lanes amortize control (16 lanes/4 stages\nchosen: 670 um2, 456 uW).");
}
