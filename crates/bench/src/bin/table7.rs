//! Table 7: throughput and area scaling of microbenchmarks with
//! unrolling factors 1–8 (Conv1D's outer loop; the inner product has no
//! outer loop and always runs at line rate).

use taurus_bench::{f, print_table};
use taurus_compiler::{compile, CompileOptions, GridConfig};
use taurus_hw_model::{cu_area_mm2, mu_area_mm2, CuGeometry, Precision};
use taurus_ir::microbench;

fn main() {
    let grid = GridConfig::default();
    let geom = CuGeometry { lanes: grid.lanes, stages: grid.stages };
    let area_of = |p: &taurus_compiler::GridProgram| {
        p.resources.cus as f64 * cu_area_mm2(geom, Precision::Fix8)
            + p.resources.mus as f64 * mu_area_mm2(grid.mu_banks, grid.mu_bank_entries)
    };

    let paper_conv: &[(usize, &str, f64)] =
        &[(1, "1/8", 0.19), (2, "1/4", 0.44), (4, "1/2", 0.93), (8, "1", 1.57)];
    let mut rows = Vec::new();
    let conv = microbench::conv1d();
    for &(unroll, paper_rate, paper_mm2) in paper_conv {
        let p = compile(&conv, &grid, &CompileOptions { unroll: Some(unroll), max_cus: None })
            .expect("fits");
        let rate = p.timing.line_rate_fraction;
        rows.push(vec![
            "Conv1D".into(),
            unroll.to_string(),
            format!("1/{}", p.timing.initiation_interval),
            paper_rate.to_string(),
            f(area_of(&p), 3),
            f(paper_mm2, 2),
        ]);
        let _ = rate;
    }
    let ip =
        compile(&microbench::inner_product(), &grid, &CompileOptions::default()).expect("fits");
    rows.push(vec![
        "Inner Product".into(),
        "-".into(),
        "1".into(),
        "1".into(),
        f(area_of(&ip), 3),
        "0.04".into(),
    ]);
    print_table(
        "Table 7: throughput & area scaling with unrolling",
        &["ubmark", "Unroll", "Line Rate", "paper", "Area (mm2)", "paper"],
        &rows,
    );
}
