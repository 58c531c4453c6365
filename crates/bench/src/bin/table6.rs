//! Table 6: area and latency of each microbenchmark at line rate in a
//! 16-lane, four-stage CU.

use taurus_bench::{f, print_table};
use taurus_compiler::{compile, CompileOptions, GridConfig};
use taurus_hw_model::{cu_area_mm2, mu_area_mm2, CuGeometry, Precision};
use taurus_ir::microbench;

fn main() {
    let grid = GridConfig::default();
    let geom = CuGeometry { lanes: grid.lanes, stages: grid.stages };
    let paper: &[(&str, f64, f64)] = &[
        ("Conv1D", 1.57, 122.0),
        ("Inner Product", 0.04, 23.0),
        ("ReLU", 0.04, 22.0),
        ("LeakyReLU", 0.04, 22.0),
        ("TanhExp", 0.26, 69.0),
        ("SigmoidExp", 0.31, 73.0),
        ("TanhPW", 0.13, 38.0),
        ("SigmoidPW", 0.17, 46.0),
        ("ActLUT", 0.12, 36.0),
    ];

    let mut rows = Vec::new();
    for &(name, paper_mm2, paper_ns) in paper {
        let g = microbench::by_name(name);
        let p = compile(&g, &grid, &CompileOptions::default()).expect("fits");
        let area = p.resources.cus as f64 * cu_area_mm2(geom, Precision::Fix8)
            + p.resources.mus as f64 * mu_area_mm2(grid.mu_banks, grid.mu_bank_entries);
        rows.push(vec![
            name.to_string(),
            f(area, 3),
            f(paper_mm2, 2),
            f(p.timing.latency_ns, 0),
            f(paper_ns, 0),
            p.resources.cus.to_string(),
            p.resources.mus.to_string(),
        ]);
    }
    print_table(
        "Table 6: microbenchmark area & latency at line rate (1 GPkt/s)",
        &["ubmark", "mm2", "paper", "ns", "paper", "CUs", "MUs"],
        &rows,
    );
}
