//! Figure 10: total area for each activation function vs CU stage count
//! (2, 3, 4, 6), all at line rate.

use taurus_bench::{f, print_table};
use taurus_compiler::{compile, CompileOptions, GridConfig};
use taurus_hw_model::{cu_area_mm2, mu_area_mm2, CuGeometry, Precision};
use taurus_ir::microbench;

fn main() {
    let acts = ["ReLU", "LeakyReLU", "TanhExp", "SigmoidExp", "TanhPW", "SigmoidPW", "ActLUT"];
    let stage_counts = [2usize, 3, 4, 6];

    let mut rows = Vec::new();
    for name in acts {
        let mut row = vec![name.to_string()];
        for &stages in &stage_counts {
            let grid = GridConfig { stages, ..GridConfig::default() };
            let g = microbench::by_name(name);
            match compile(&g, &grid, &CompileOptions::default()) {
                Ok(p) => {
                    let geom = CuGeometry { lanes: grid.lanes, stages };
                    let area = p.resources.cus as f64 * cu_area_mm2(geom, Precision::Fix8)
                        + p.resources.mus as f64 * mu_area_mm2(grid.mu_banks, grid.mu_bank_entries);
                    row.push(f(area, 3));
                }
                Err(_) => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    print_table(
        "Figure 10: activation-function area (mm2) vs CU stage count, at line rate",
        &["activation", "2 stages", "3 stages", "4 stages", "6 stages"],
        &rows,
    );
    println!(
        "\nPaper shape: exp-series variants cost 2-5x the piecewise ones; shallow\n\
         activations (ReLU) waste stages as depth grows; LUT stays small."
    );
}
