//! §5.1.4: Taurus vs MAT-only ML implementations (N2Net, IIsy).
//!
//! Prints the paper's comparison: published MAT consumption of the
//! MAT-only designs against the iso-area MAT equivalent of the compiled
//! Taurus models (paper: 48 MATs for the N2Net DNN vs 3 for Taurus).

use taurus_bench::{f, print_table, table5_models};
use taurus_compiler::GridConfig;
use taurus_hw_model::mat_compare::comparison;
use taurus_hw_model::{model_report, SwitchChip};

fn main() {
    let grid = GridConfig::default();
    let chip = SwitchChip::default();
    let models = table5_models();
    let area = |name: &str| {
        models
            .iter()
            .find(|(n, ..)| n.contains(name))
            .map(|(.., p)| model_report(&p.resources, &grid, &chip, 0.1).area_mm2)
            .expect("model present")
    };
    let rows_data = comparison(area("DNN"), area("SVM"), area("KMeans"), &chip);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.model.to_string(),
                f(r.mat_only_mats, 0),
                f(r.taurus_iso_mats, 2),
                f(r.mat_only_mats / r.taurus_iso_mats.max(1e-9), 0),
            ]
        })
        .collect();
    print_table(
        "§5.1.4: MAT-only ML vs Taurus (iso-area MAT equivalents)",
        &["MAT-only design", "Model", "MATs", "Taurus MATs", "advantage x"],
        &rows,
    );
    println!("\nPaper: N2Net needs 48 MATs for the anomaly DNN — Taurus consumes ~3 iso-area\nMATs; IIsy's SVM/KMeans need 8/2 MATs vs ~1 for Taurus.");
}
