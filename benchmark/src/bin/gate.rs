//! The end-to-end gate: untraced, timed from outside, judged by
//! `BENCHMARK.json`.
//!
//! `gate --workload W --seed N --seconds S --trace 0` measures one
//! workload and prints the contract's JSON result as its last line
//! (`--trace 1` hands over to the `probe` binary next to it). Without
//! `--workload` it runs the full set — every workload untraced, then
//! traced — and with `--repeat 2` judges two sets against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use taurus_benchmark::cli::Args;
use taurus_benchmark::estimator::BlockSamples;
use taurus_benchmark::harness::{self, names, Recorder, Untimed};
use taurus_benchmark::host::{self, Host};
use taurus_benchmark::report::{self, Metric};
use taurus_benchmark::workload::{Workload, WORKLOADS};
use taurus_benchmark::{out_dir, END_TO_END};
use taurus_core::SwitchReport;

/// Switch/stream slice pairs per run: each cell samples the whole run
/// rather than one contiguous stretch of it.
const ROUNDS: u32 = 10;
/// Share of a round the sequential switch gets. Its 256-packet blocks
/// settle quickly; the two-thread stream needs the samples.
const SWITCH_SHARE: f64 = 0.3;
/// Cold launches timed for `setup_s`, strictly one at a time and spread
/// over the rounds: at least the first number, then more while the
/// budget lasts, up to the second (a 40 ms set-up gets 25 chances at a
/// quiet moment, a 0.5 s one 6).
const SETUP_LAUNCHES: (usize, usize) = (5, 25);
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// The gate's cells: one clock pair per block, nothing else.
#[derive(Default)]
struct Cells {
    switch: BlockSamples,
    stream: BlockSamples,
}

impl Recorder for Cells {
    /// `(is the stream cell, block, start)`.
    type Token = Option<(bool, usize, Instant)>;

    fn begin(&mut self, name: &'static str, block: usize) -> Self::Token {
        let stream = match name {
            names::SWITCH_BLOCK => false,
            names::STREAM_BLOCK => true,
            _ => return None,
        };
        Some((stream, block, Instant::now()))
    }

    fn end(&mut self, token: Self::Token) {
        if let Some((stream, block, start)) = token {
            let ns = start.elapsed().as_nanos() as u64;
            if stream { &mut self.stream } else { &mut self.switch }.push(block, ns);
        }
    }
}

/// A workload after the set-up a user pays: inputs generated, model
/// trained and compiled, the sequential oracle computed, and one stream
/// pass through a freshly built service checked against it.
struct Prepared {
    w: Workload,
    shards: usize,
    oracle: SwitchReport,
    model_latency_ns: u64,
    f1: f64,
    /// Packets of the first stream pass that missed the oracle.
    failed: u64,
}

fn prepare(name: &str, seed: u64, host: &Host) -> Result<Prepared, String> {
    let w = Workload::build(name, seed)?;
    let shards = host.shards();
    let mut switch = harness::build_switch(&w);
    let model_latency_ns = switch.ml_latency_ns();
    let oracle = harness::switch_pass(&w, &mut switch, &mut w.update.clone(), &mut Untimed);
    let mut runtime = harness::build_runtime(&w, shards);
    let outcome = harness::stream_pass(&w, &mut runtime, &mut w.update.clone(), &mut Untimed);
    runtime.shutdown();
    let failed = outcome.failed_packets(&w, &oracle);
    Ok(Prepared { shards, oracle, model_latency_ns, f1: outcome.confusion.f1(), failed, w })
}

struct Measured {
    cells: Cells,
    attempted: u64,
    failed: u64,
}

/// One round: a switch slice, then a stream slice, `round` seconds
/// together. Every slice builds a fresh device, runs one untimed warm-up
/// pass (a freshly built `StreamingRuntime` occasionally lands in a slow
/// park/wake regime for its whole life; rebuilding per slice keeps one
/// such instance from owning the run), then whole timed passes until the
/// slice is over.
fn measure_round(p: &Prepared, m: &mut Measured, round: Duration) {
    let packets = p.w.trace.packets.len() as u64;

    let deadline = Instant::now() + round.mul_f64(SWITCH_SHARE);
    let mut switch = harness::build_switch(&p.w);
    let mut update = p.w.update.clone();
    harness::switch_pass(&p.w, &mut switch, &mut update, &mut Untimed);
    loop {
        let report = harness::switch_pass(&p.w, &mut switch, &mut update, &mut m.cells);
        m.attempted += packets;
        if report != p.oracle {
            m.failed += packets;
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let deadline = Instant::now() + round.mul_f64(1.0 - SWITCH_SHARE);
    let mut runtime = harness::build_runtime(&p.w, p.shards);
    let mut update = p.w.update.clone();
    harness::stream_pass(&p.w, &mut runtime, &mut update, &mut Untimed);
    loop {
        let outcome = harness::stream_pass(&p.w, &mut runtime, &mut update, &mut m.cells);
        m.attempted += packets;
        m.failed += outcome.failed_packets(&p.w, &p.oracle);
        if Instant::now() >= deadline {
            break;
        }
    }
    runtime.shutdown();
}

/// Launches this binary `--setup-only` and returns `(wall seconds from
/// spawn to exit, the child's peak RSS in MB)`.
fn launch_setup(name: &str, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", name, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot launch the set-up child: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("set-up child failed ({})", out.status));
    }
    let rss = String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_mb ")?.trim().parse::<f64>().ok())
        .ok_or("set-up child printed no peak_rss_mb")?;
    Ok((secs, rss))
}

fn pps(packets: usize, ns: u64) -> f64 {
    packets as f64 / (ns as f64 / 1e9)
}

fn print_header(args: &Args, host: &Host, what: &str) {
    println!(
        "# {what}: seed {} | host nproc {} `{}` | shards {} parse_workers 0 batch {} | closed \
         loop, 1 client",
        args.seed,
        host.nproc,
        host.cpu_model,
        host.shards(),
        harness::BATCH_SIZE
    );
    if host.oversubscribed() {
        eprintln!(
            "warning: 1 ingest thread + {} shard(s) exceed {} core(s); stream numbers measure \
             the scheduler and do not compare with a multi-core host",
            host.shards(),
            host.nproc
        );
    }
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let host = Host::detect();
    print_header(args, &host, &format!("gate {name}"));

    if args.check {
        let p = prepare(name, args.seed, &host)?;
        println!(
            "check {name}: {} of {} packets missed the oracle",
            p.failed,
            p.w.trace.packets.len()
        );
        return Ok(p.failed == 0);
    }

    let (rounds, round) = if args.smoke {
        (1, Duration::from_millis(600))
    } else {
        (ROUNDS, Duration::from_secs(args.seconds) / ROUNDS)
    };

    let p = prepare(name, args.seed, &host)?;
    let mut m = Measured { cells: Cells::default(), attempted: 0, failed: 0 };
    // Cold set-up launches go between the rounds, while this process
    // idles: each round may spend its share of the budget on them.
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    for r in 1..=rounds {
        while !args.smoke && setups.len() < SETUP_LAUNCHES.1 && spent < SETUP_BUDGET * r / rounds {
            let started = Instant::now();
            setups.push(launch_setup(name, args.seed)?);
            spent += started.elapsed();
        }
        measure_round(&p, &mut m, round);
    }
    while !args.smoke && setups.len() < SETUP_LAUNCHES.0 {
        setups.push(launch_setup(name, args.seed)?);
    }
    let packets = p.w.trace.packets.len();
    println!(
        "# {rounds} rounds x ({:.2} s switch + {:.2} s stream) | passes per cell: switch {} stream \
         {} | {packets} packets per pass | {} set-up launches",
        round.mul_f64(SWITCH_SHARE).as_secs_f64(),
        round.mul_f64(1.0 - SWITCH_SHARE).as_secs_f64(),
        m.cells.switch.passes(),
        m.cells.stream.passes(),
        setups.len()
    );

    let mut metrics = vec![
        Metric::new("switch_pps", pps(packets, m.cells.switch.quiet_ns()), "1/s"),
        Metric::new("stream_pps", pps(packets, m.cells.stream.quiet_ns()), "1/s"),
        Metric::new("f1", p.f1, "ratio"),
        Metric::new("model_latency", p.model_latency_ns as f64, "sim_ns"),
    ];
    if !setups.is_empty() {
        let mut secs: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let mut rss: Vec<f64> = setups.iter().map(|s| s.1).collect();
        secs.sort_by(f64::total_cmp);
        rss.sort_by(f64::total_cmp);
        metrics.push(Metric::new("peak_rss_mb", rss[rss.len() / 2], "MB"));
        // Second-smallest launch: a whole launch cannot be cut into
        // blocks, so this is as quiet as set-up gets.
        metrics.push(Metric::new("setup_s", secs[1], "s"));
    }
    debug_assert!(
        args.smoke || metrics.iter().map(|m| &m.name).eq(END_TO_END.iter().map(|e| e.name))
    );

    report::print_table(&format!("{name}: end to end"), &metrics);
    report::print_table(
        &format!("{name}: noise level of this run (per-block median composites, ungated)"),
        &[
            Metric::new("switch_pps_p50", pps(packets, m.cells.switch.median_ns()), "1/s"),
            Metric::new("stream_pps_p50", pps(packets, m.cells.stream.median_ns()), "1/s"),
        ],
    );
    let (attempted, failed) = (m.attempted, m.failed + p.failed);
    println!("  ops_attempted {attempted}  ops_failed {failed}");

    if !args.smoke {
        report::write_tsv(&out_dir().join(format!("{name}.e2e.tsv")), &metrics)
            .map_err(|e| format!("cannot write the result file: {e}"))?;
        println!("{}", report::result_line(failed == 0, attempted, failed, &metrics));
    }
    Ok(failed == 0)
}

fn setup_only(name: &str, seed: u64) -> Result<bool, String> {
    let p = prepare(name, seed, &Host::detect())?;
    println!("peak_rss_mb {}", host::peak_rss_mb());
    Ok(p.failed == 0)
}

/// Hands this invocation to the `probe` binary built next to this one.
fn run_probe() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let probe = exe.with_file_name("probe");
    Command::new(&probe)
        .args(std::env::args().skip(1))
        .status()
        .map(|s| s.success())
        .map_err(|e| format!("cannot launch {}: {e}", probe.display()))
}

/// Runs every workload untraced then traced, `repeat` times, each as a
/// child process of its own, and judges repeated sets against the
/// bounds.
fn run_set(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let traced = !args.check && !args.smoke;
    let mut sets: Vec<BTreeMap<(&str, String), f64>> = Vec::new();
    let mut ok = true;
    for set in 0..args.repeat {
        let mut values = BTreeMap::new();
        let mut json = Vec::new();
        for (name, _) in WORKLOADS {
            let mut child_args = vec![
                "--workload".to_string(),
                name.to_string(),
                "--seed".to_string(),
                args.seed.to_string(),
                "--seconds".to_string(),
                args.seconds.to_string(),
            ];
            child_args.extend(args.check.then(|| "--check".to_string()));
            child_args.extend(args.smoke.then(|| "--smoke".to_string()));
            for trace in ["0", "1"].into_iter().take(if traced { 2 } else { 1 }) {
                let status = Command::new(&exe)
                    .args(&child_args)
                    .args(["--trace", trace])
                    .status()
                    .map_err(|e| format!("cannot launch {}: {e}", exe.display()))?;
                ok &= status.success();
            }
            if traced {
                let e2e = report::read_tsv(&out_dir().join(format!("{name}.e2e.tsv")))?;
                let layers = report::read_tsv(&out_dir().join(format!("{name}.layers.tsv")))?;
                for m in &e2e {
                    values.insert((name, m.name.clone()), m.value);
                }
                json.push(format!(
                    "  {}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
                    report::json_string(name),
                    report::metrics_object(&e2e),
                    report::metrics_object(&layers)
                ));
            }
        }
        if traced {
            let host = Host::detect();
            let text = format!(
                "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"cpu_model\": {}, \"shards\": \
                 {}, \"workloads\": {{\n{}\n}}}}\n",
                args.seed,
                args.seconds,
                host.nproc,
                report::json_string(&host.cpu_model),
                host.shards(),
                json.join(",\n")
            );
            let path = out_dir().join(format!("set-{set}.json"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("\nwrote {}", path.display());
        }
        sets.push(values);
    }

    for (i, later) in sets.iter().enumerate().skip(1) {
        println!("\n== repeatability: set {i} against set 0 (relative difference / bound)");
        for ((workload, metric), &a) in &sets[0] {
            let Some(e) = END_TO_END.iter().find(|e| e.name == metric) else { continue };
            let b = later[&(*workload, metric.clone())];
            let diff = (b - a).abs() / a.abs();
            let verdict = if diff <= e.bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= e.bound;
            println!(
                "  {workload:<12} {metric:<14} {a:>16.4} {b:>16.4}  {diff:.4} / {}  {verdict}",
                e.bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gate: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) if args.setup_only => setup_only(name, args.seed),
        Some(_) if args.trace => run_probe(),
        Some(name) => run_workload(&args, name),
        None => run_set(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::FAILURE
        }
    }
}
