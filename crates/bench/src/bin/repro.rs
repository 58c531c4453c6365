//! Regenerates the paper's tables and figures.
//!
//! `repro <name>…` runs the named experiments in order, `repro all` runs
//! every one, and `repro` alone lists the names. The experiments and
//! their dispatch table are `taurus_bench::repro`.
//!
//! Run with: `cargo run --release -p taurus-bench --bin repro -- table5`

use taurus_bench::repro::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("usage: repro <name>… | all");
        for (name, _) in EXPERIMENTS {
            println!("  {name}");
        }
        return;
    }
    // Resolve every name before running anything: a typo in the last
    // argument should not cost the runs before it.
    let mut runs = Vec::new();
    for arg in &args {
        if arg == "all" {
            runs.extend(EXPERIMENTS);
        } else if let Some(experiment) = EXPERIMENTS.iter().find(|(name, _)| name == arg) {
            runs.push(experiment);
        } else {
            eprintln!("repro: no experiment named `{arg}`; run `repro` for the list");
            std::process::exit(2);
        }
    }
    for (_, run) in runs {
        let mut out = String::new();
        run(&mut out);
        print!("{out}");
    }
}
