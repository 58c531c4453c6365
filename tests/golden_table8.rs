//! Golden snapshot of the Table 8 end-to-end metrics.
//!
//! The whole stack — synthetic KDD records, trace expansion, stream
//! feature extraction, DNN training, int8 quantization, MapReduce
//! compilation, cycle-level CGRA simulation, and the control-plane
//! baseline's event simulation — is deterministic by construction
//! (seeded vendored RNG, no hash-map iteration in any result path).
//! This test pins that property end to end: a small `run_table8`
//! configuration's rows, rendered with `{:#?}` (Rust's `Debug` prints
//! every `f64` in its shortest round-trip form), must equal *exactly*
//! the bytes stored in `results/table8_golden.txt`.
//!
//! If an intentional change shifts the numbers (model tweaks, feature
//! changes, baseline scheduling), regenerate the fixture and commit it:
//!
//! ```bash
//! TAURUS_REGEN_GOLDEN=1 cargo test --test golden_table8
//! ```
//!
//! An *unintentional* diff here means a semantics change leaked into
//! the data path — treat it like a failing determinism test.

use std::path::PathBuf;

use taurus::core::e2e::{build_detector_from_trace, run_table8};
use taurus::dataset::kdd::KddGenerator;
use taurus::dataset::trace::{PacketTrace, TraceConfig};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join("table8_golden.txt")
}

fn rendered_rows() -> String {
    let detector = build_detector_from_trace(4242, 600);
    let records = KddGenerator::new(777).take(250);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 777, ..Default::default() });
    let rows = run_table8(&detector, &trace, &[1e-3, 1e-2]);
    assert_eq!(rows.len(), 2);
    format!("{rows:#?}\n")
}

#[test]
fn table8_metrics_match_the_golden_fixture_bit_for_bit() {
    let rendered = rendered_rows();
    let path = fixture_path();
    if std::env::var_os("TAURUS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             `TAURUS_REGEN_GOLDEN=1 cargo test --test golden_table8`",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "Table 8 metrics diverged from results/table8_golden.txt — if intentional, \
         regenerate with `TAURUS_REGEN_GOLDEN=1 cargo test --test golden_table8`"
    );
}

#[test]
fn table8_run_is_reproducible_within_a_process() {
    // The snapshot's premise: two identical runs produce identical bytes.
    assert_eq!(rendered_rows(), rendered_rows());
}
