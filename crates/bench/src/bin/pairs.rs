//! Alternating parent/change runs of the repo benchmark, summarised per
//! end-to-end metric: the protocol behind every speed claim.
//!
//! `pairs <parent-gate> <change-gate> --workload W --pairs N --seed S
//! [--benchmark PATH]` runs two prebuilt `gate` binaries (each built
//! from its own tree with `benchmark/run.sh`, into its own
//! `CARGO_TARGET_DIR`) one after the other, N times: odd pairs the
//! parent first, even pairs the change first. Each run is `gate
//! --workload W --seed S --seconds T --trace 0`, and its last stdout
//! line is the flat result JSON. The end-to-end metrics, their bounds
//! and the run length T come from `BENCHMARK.json` at the repo root, so
//! both sides always run as long as the benchmark does.
//!
//! Per metric it prints the parent's median and quartiles, the change's
//! median, their ratio and the pairs the change won, then every run's
//! reading in pair order. It exits 1 when a metric's change median is
//! worse than the parent's by more than its bound or a run failed an
//! operation, and 2 on a usage or run error.
//!
//! Run with: `cargo run --release -p taurus-bench --bin pairs --
//! ../parent/target/release/gate target/release/gate --workload ad-dnn
//! --pairs 10 --seed 42`

use std::process::{Command, ExitCode};

/// A JSON value, as far as the two files read here need one.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader { s: text.as_bytes(), i: 0 };
        let value = reader.value()?;
        reader.ws();
        match reader.s.get(reader.i) {
            None => Ok(value),
            Some(_) => Err(format!("trailing text at byte {}", reader.i)),
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("no `{key}` field"))
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn text(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A recursive-descent reader over one JSON text.
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected text at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
                self.eat(b'}')?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
                self.eat(b']')?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                let number = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                number
                    .parse()
                    .map(Json::Num)
                    .map_err(|e| format!("`{number}` at byte {start}: {e}"))
            }
            None => Err("unexpected end of text".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else { return Err("unterminated string".into()) };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else { return Err("dangling escape".into()) };
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(c),
            }
        }
    }
}

/// What one `gate` run reports: its failed operations and each metric's
/// value (`None` where the run printed `null`).
#[derive(Debug, PartialEq)]
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, Option<f64>)>,
}

impl RunResult {
    /// The result in a run's last stdout line.
    fn read(line: &str) -> Result<Self, String> {
        let json = Json::parse(line)?;
        let count = |key| json.field(key)?.num().ok_or_else(|| format!("`{key}` is no number"));
        let Json::Obj(metrics) = json.field("metrics")? else {
            return Err("`metrics` is no object".to_string());
        };
        Ok(Self {
            correct: json.field("correct")? == &Json::Bool(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| Ok((name.clone(), m.field("value")?.num())))
                .collect::<Result<_, String>>()?,
        })
    }

    /// Whether the run failed an operation or its check.
    fn failed_any(&self) -> bool {
        !self.correct || self.failed > 0.0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).and_then(|(_, v)| *v)
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    higher_is_better: bool,
    /// The largest relative worsening of the change's median that
    /// passes.
    bound: f64,
}

/// `BENCHMARK.json`'s end-to-end metrics and its run length in seconds.
fn read_bounds(text: &str) -> Result<(Vec<Bound>, u64), String> {
    let json = Json::parse(text)?;
    let Json::Arr(list) = json.field("end_to_end")? else {
        return Err("`end_to_end` is no list".to_string());
    };
    let bounds = list
        .iter()
        .map(|m| {
            let better = m.field("better")?.text().ok_or("`better` is no string")?;
            Ok(Bound {
                name: m.field("name")?.text().ok_or("`name` is no string")?.to_string(),
                higher_is_better: match better {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m.field("bound")?.num().ok_or("`bound` is no number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let seconds = json.field("run_seconds")?.num().filter(|s| *s >= 0.0 && s.fract() == 0.0);
    Ok((bounds, seconds.ok_or("`run_seconds` is no whole number")? as u64))
}

/// `p`-quantile of sorted values, interpolated between neighbours.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * p;
    let (lo, hi) = (sorted[h.floor() as usize], sorted[h.ceil() as usize]);
    lo + (h - h.floor()) * (hi - lo)
}

/// One metric over the pairs that read it in both runs.
#[derive(Debug, PartialEq)]
struct Summary {
    pairs: usize,
    parent: [f64; 3],
    change: f64,
    ahead: usize,
    regressed: bool,
}

fn summarise(bound: &Bound, readings: &[(Option<f64>, Option<f64>)]) -> Option<Summary> {
    let both: Vec<(f64, f64)> = readings.iter().filter_map(|&(p, c)| Some((p?, c?))).collect();
    if both.is_empty() {
        return None;
    }
    let sorted = |pick: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = both.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (parent, change) = (sorted(|r| r.0), sorted(|r| r.1));
    let parent = [0.25, 0.5, 0.75].map(|p| quantile(&parent, p));
    let change = quantile(&change, 0.5);
    let better = |c: f64, p: f64| if bound.higher_is_better { c > p } else { c < p };
    let limit = if bound.higher_is_better { 1.0 - bound.bound } else { 1.0 + bound.bound };
    Some(Summary {
        pairs: both.len(),
        parent,
        change,
        ahead: both.iter().filter(|&&(p, c)| better(c, p)).count(),
        regressed: better(parent[1] * limit, change),
    })
}

struct Args {
    gates: [String; 2],
    workload: String,
    pairs: usize,
    seed: u64,
    benchmark: String,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut gates, mut workload, mut pairs, mut seed) = (Vec::new(), None, None, None);
        let mut benchmark = None;
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} wants a value"));
            match arg.as_str() {
                "--workload" => workload = Some(value()?),
                "--pairs" => pairs = Some(value()?.parse().map_err(|e| format!("--pairs: {e}"))?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--benchmark" => benchmark = Some(value()?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => gates.push(arg),
            }
        }
        let gates: [String; 2] =
            gates.try_into().map_err(|_| "name two gate binaries: parent, then change")?;
        let benchmark_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Ok(Self {
            gates,
            workload: workload.ok_or("--workload is required")?,
            pairs: pairs.filter(|&n| n > 0).ok_or("--pairs N (N ≥ 1) is required")?,
            seed: seed.ok_or("--seed is required")?,
            benchmark: benchmark.unwrap_or_else(|| benchmark_json.to_string()),
        })
    }
}

/// One `gate` run; its result line.
fn run(gate: &str, args: &Args, seconds: u64) -> Result<RunResult, String> {
    let out = Command::new(gate)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{gate}: {e}"))?;
    read_run(out.status.code(), &String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{gate}: {e}"))
}

/// A run's result from its exit code and stdout. `gate` exits 1 both
/// when an operation failed (after printing its result line, which
/// counts them) and on an error (with no result line), so a run that
/// exited 0 or 1 is read from its last line, and only a line that does
/// not read, or another exit, is an error.
fn read_run(code: Option<i32>, stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    match code {
        Some(0 | 1) => RunResult::read(line).map_err(|e| format!("last line `{line}`: {e}")),
        code => Err(format!("exited with {code:?}: {line}")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pairs: {e}");
            eprintln!(
                "usage: pairs <parent-gate> <change-gate> --workload W --pairs N --seed S \
                 [--benchmark BENCHMARK.json]"
            );
            return ExitCode::from(2);
        }
    };
    let read = std::fs::read_to_string(&args.benchmark).map_err(|e| e.to_string());
    let (bounds, seconds) = match read.and_then(|text| read_bounds(&text)) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("pairs: {}: {e}", args.benchmark);
            return ExitCode::from(2);
        }
    };
    let mut runs: Vec<[RunResult; 2]> = Vec::new();
    for pair in 1..=args.pairs {
        // Odd pairs run the parent first, even pairs the change.
        let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
        let mut results = [None, None];
        for side in order {
            match run(&args.gates[side], &args, seconds) {
                Ok(result) => results[side] = Some(result),
                Err(e) => {
                    eprintln!("pairs: pair {pair}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let [Some(parent), Some(change)] = results else { unreachable!("both sides ran") };
        let line = |r: &RunResult| {
            bounds
                .iter()
                .map(|b| format!("{} {}", b.name, show(r.value(&b.name))))
                .collect::<Vec<_>>()
        };
        eprintln!("pair {pair}/{}: parent {}", args.pairs, line(&parent).join(", "));
        eprintln!("pair {pair}/{}: change {}", args.pairs, line(&change).join(", "));
        runs.push([parent, change]);
    }

    println!(
        "pairs: {} vs {}, workload {}, seed {}, {} pairs of {seconds} s runs, odd pairs parent first",
        args.gates[0], args.gates[1], args.workload, args.seed, args.pairs
    );
    let mut failed = false;
    for [parent, change] in &runs {
        for (side, r) in [("parent", parent), ("change", change)] {
            if r.failed_any() {
                println!("{side} run failed {} of {} operations", r.failed, r.attempted);
                failed = true;
            }
        }
    }
    let mut regressed = false;
    for bound in &bounds {
        let readings: Vec<_> =
            runs.iter().map(|[p, c]| (p.value(&bound.name), c.value(&bound.name))).collect();
        let Some(s) = summarise(bound, &readings) else {
            println!("{}: no pair read it", bound.name);
            continue;
        };
        regressed |= s.regressed;
        let [q1, median, q3] = s.parent;
        println!(
            "{}: parent {} [{} – {}] (IQR {}) → change {} ({:.3}×, change ahead {}/{}; bound {}, {})",
            bound.name,
            show(Some(median)),
            show(Some(q1)),
            show(Some(q3)),
            show(Some(q3 - q1)),
            show(Some(s.change)),
            s.change / median,
            s.ahead,
            s.pairs,
            bound.bound,
            if s.regressed { "REGRESSED" } else { "within" },
        );
        for (side, pick) in [("parent", 0), ("change", 1)] {
            let values: Vec<String> =
                readings.iter().map(|r| show(if pick == 0 { r.0 } else { r.1 })).collect();
            println!("    {side}: {}", values.join(" "));
        }
    }
    if regressed || failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// A reading to four significant figures, `-` where there is none.
fn show(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v.abs() >= 1e4 => format!("{:.4e}", v),
        Some(v) => format!("{:.4}", v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last stdout line of a `gate --workload ad-dnn --seed 42
    /// --seconds 6 --trace 0` run.
    const CAPTURED: &str = "{\"correct\": true, \"attempted\": 49999635, \"failed\": 0, \
        \"metrics\": {\"switch_pps\": {\"value\": 8727869.388457127, \"unit\": \"1/s\"}, \
        \"stream_pps\": {\"value\": 11118127.775711589, \"unit\": \"1/s\"}, \
        \"f1\": {\"value\": 0.6553977310688563, \"unit\": \"ratio\"}, \
        \"model_latency\": {\"value\": 127, \"unit\": \"sim_ns\"}, \
        \"peak_rss_mb\": {\"value\": 8.37890625, \"unit\": \"MB\"}, \
        \"setup_s\": {\"value\": 0.097659198, \"unit\": \"s\"}}}";

    #[test]
    fn a_captured_result_line_reads_back() {
        let r = RunResult::read(CAPTURED).expect("a result line");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (49_999_635.0, 0.0));
        let names: Vec<&str> = r.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let want = ["switch_pps", "stream_pps", "f1", "model_latency", "peak_rss_mb", "setup_s"];
        assert_eq!(names, want);
        assert_eq!(r.value("stream_pps"), Some(11_118_127.775711589));
        assert_eq!(r.value("model_latency"), Some(127.0));
        assert_eq!(r.value("setup_s"), Some(0.097659198));
        // A non-finite value prints as `null`; a missing metric is absent.
        let null = CAPTURED.replace("0.6553977310688563", "null");
        assert_eq!(RunResult::read(&null).expect("still a line").value("f1"), None);
        assert_eq!(r.value("no_such_metric"), None);
        assert!(RunResult::read("  ops_attempted 10  ops_failed 0").is_err());
    }

    #[test]
    fn a_run_that_failed_operations_is_read_and_counts_as_failed() {
        // `gate` prints its result line and exits 1 when operations
        // failed: that run is read, and it makes `pairs` exit 1.
        let failing = CAPTURED.replace("\"failed\": 0", "\"failed\": 3");
        let stdout = format!("  ops_attempted 49999635  ops_failed 3\n{failing}\n");
        let r = read_run(Some(1), &stdout).expect("a failed run still reads");
        assert_eq!(r.failed, 3.0);
        assert!(r.failed_any());
        assert!(!read_run(Some(0), &format!("{CAPTURED}\n")).expect("a clean run").failed_any());
        // An error exit prints no result line; a signal has no code.
        assert!(read_run(Some(1), "gate: unknown workload\n").is_err());
        assert!(read_run(Some(2), &failing).is_err());
        assert!(read_run(None, &failing).is_err());
    }

    #[test]
    fn the_bounds_read_back() {
        let text = r#"{
          "command": ["bash", "benchmark/run.sh"],
          "paths": ["benchmark"],
          "run_seconds": 20,
          "end_to_end": [
            {"name": "stream_pps", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
          ],
          "per_layer": [{"name": "x", "unit": "ns", "better": "lower"}]
        }"#;
        let (bounds, seconds) = read_bounds(text).expect("a benchmark declaration");
        assert_eq!(seconds, 20);
        let bound = |name: &str, higher_is_better, bound| Bound {
            name: name.to_string(),
            higher_is_better,
            bound,
        };
        assert_eq!(bounds, [bound("stream_pps", true, 0.25), bound("setup_s", false, 0.25)]);
        // The repo's own declaration reads, with the contract's six.
        let repo = include_str!("../../../../BENCHMARK.json");
        let (bounds, _) = read_bounds(repo).expect("the repo's declaration");
        assert_eq!(bounds.len(), 6);
    }

    #[test]
    fn a_summary_counts_wins_and_flags_a_regression_past_the_bound() {
        let higher = Bound { name: "stream_pps".into(), higher_is_better: true, bound: 0.25 };
        let pairs: Vec<_> = [(10.0, 12.0), (11.0, 12.5), (9.0, 8.0), (10.5, 13.0)]
            .map(|(p, c)| (Some(p), Some(c)))
            .into();
        let s = summarise(&higher, &pairs).expect("four pairs");
        assert_eq!(s.parent, [9.75, 10.25, 10.625]);
        assert_eq!((s.change, s.ahead, s.pairs, s.regressed), (12.25, 3, 4, false));
        // Lower is better: the same readings are a 1.195× worsening,
        // inside a 0.25 bound and past a 0.1 one.
        let lower = |bound| Bound { name: "setup_s".into(), higher_is_better: false, bound };
        let s = summarise(&lower(0.25), &pairs).expect("four pairs");
        assert_eq!((s.ahead, s.regressed), (1, false));
        assert!(summarise(&lower(0.1), &pairs).expect("four pairs").regressed);
        // A pair missing either reading does not count.
        let gaps = [(Some(1.0), None), (None, Some(2.0))];
        assert_eq!(summarise(&higher, &gaps), None);
    }

    #[test]
    fn strings_and_nesting_read() {
        let json = Json::parse(r#" {"a": [1, -2.5e3, "x\"\\A"], "b": {}, "c": [] } "#);
        assert_eq!(
            json,
            Ok(Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Str("x\"\\A".into())])
                ),
                ("b".into(), Json::Obj(vec![])),
                ("c".into(), Json::Arr(vec![])),
            ]))
        );
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
    }
}
