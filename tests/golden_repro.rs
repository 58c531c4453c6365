//! Golden renderings of every experiment in `taurus_bench::repro`.
//!
//! What `repro <name>` prints is pinned byte for byte in
//! `results/repro/<name>.txt`, and the small online deployment's report,
//! rendered with `{:#?}`, in `results/online_deployment.txt`. Each table
//! prints our numbers beside the paper's, so a compiler, quantizer or
//! hardware-model change that moves a reproduced number fails the test
//! named after its table.
//! A line ending in [`LIVE`] (Table 2's host timing) is not pinned.
//!
//! If an intentional change moves a number, regenerate and commit:
//!
//! ```bash
//! TAURUS_REGEN_GOLDEN=1 cargo test --release --test golden_repro -- --include-ignored
//! ```
//!
//! The experiments that train for seconds in a debug build are ignored
//! there; `cargo test --release --test golden_repro -- --include-ignored`
//! runs them all.

use std::path::{Path, PathBuf};

use taurus_bench::repro::{self, OnlineSize, EXPERIMENTS, LIVE};

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn text_fixture(name: &str) -> PathBuf {
    results().join("repro").join(format!("{name}.txt"))
}

/// Compares `rendered` with the fixture at `path`, or rewrites the
/// fixture under `TAURUS_REGEN_GOLDEN`.
fn check(path: &Path, rendered: &str) {
    if std::env::var_os("TAURUS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e})", path.display()));
    assert_eq!(
        rendered,
        golden,
        "rendering diverged from {} — if intentional, regenerate with \
         `TAURUS_REGEN_GOLDEN=1 cargo test --release --test golden_repro -- --include-ignored`",
        path.display()
    );
}

/// Runs experiment `name` and pins its rendering, less any [`LIVE`] line.
fn pin(name: &str) {
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name).expect("experiment exists");
    let mut out = String::new();
    run(&mut out);
    let pinned: String =
        out.split_inclusive('\n').filter(|line| !line.trim_end().ends_with(LIVE)).collect();
    check(&text_fixture(name), &pinned);
}

macro_rules! golden {
    ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
        /// The experiments pinned as text.
        const PINNED: &[&str] = &[$(stringify!($name)),*];

        $(
            #[test]
            $(#[$attr])*
            fn $name() {
                pin(stringify!($name));
            }
        )*
    };
}

golden!(
    table1,
    table2,
    #[cfg_attr(debug_assertions, ignore = "trains three IoT DNNs: ≈ 8 s in debug")]
    table3,
    table4,
    table5,
    table6,
    table7,
    #[cfg_attr(debug_assertions, ignore = "serves a 169k-packet trace: ≈ 7 s in debug")]
    table8,
    fig9,
    fig10,
    #[cfg_attr(debug_assertions, ignore = "four 25-round online-training runs: ≈ 11 s in debug")]
    fig13,
    #[cfg_attr(debug_assertions, ignore = "four 20-round online-training runs: ≈ 11 s in debug")]
    fig14,
    mat_only,
    throughput,
);

/// `repro online` runs [`OnlineSize::FULL`]; the pinned report is the
/// small run's, which asserts the same shard invariance and convergence.
#[test]
fn online() {
    let mut out = String::new();
    let report = repro::online(&mut out, OnlineSize::SMOKE);
    check(&results().join("online_deployment.txt"), &format!("{report:#?}\n"));
}

#[test]
fn every_experiment_is_pinned() {
    for &(name, _) in EXPERIMENTS {
        assert!(
            name == "online" || PINNED.contains(&name),
            "experiment `{name}` has no golden test in tests/golden_repro.rs"
        );
    }
}
