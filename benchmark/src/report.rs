//! Named metrics and the three forms they leave the harness in: a
//! human-readable table, a tab-separated file the set runner reads
//! back, and the one-line JSON result the benchmark contract asks for.
//! The JSON is written by the small encoder below — the vendored
//! `serde_json` shim cannot serialize, and the gate must not depend on
//! `taurus-bench`.

use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self { name: name.into(), value, unit: unit.to_string() }
    }
}

/// A JSON string literal (metric names, units and host strings are
/// ASCII, but `/proc/cpuinfo` is outside input: escape it properly).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (Rust prints the
/// shortest string that round-trips); non-finite values have no JSON
/// form and become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result object, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// Prints every metric by name with its unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("\n== {title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Writes `name<TAB>value<TAB>unit` lines, creating the directory.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the file.
pub fn write_tsv(path: &Path, metrics: &[Metric]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for m in metrics {
        writeln!(text, "{}\t{}\t{}", m.name, m.value, m.unit).expect("String write");
    }
    std::fs::write(path, text)
}

/// Reads back the metrics written by [`write_tsv`].
///
/// # Errors
///
/// I/O errors, or a line that is not `name<TAB>number<TAB>unit`.
pub fn read_tsv(path: &Path) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut fields = line.split('\t');
            let name = fields.next().filter(|n| !n.is_empty());
            let value = fields.next().and_then(|v| v.parse::<f64>().ok());
            match (name, value, fields.next()) {
                (Some(name), Some(value), Some(unit)) => Ok(Metric::new(name, value, unit)),
                _ => Err(format!("{}: malformed line `{line}`", path.display())),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric::new("stream_pps", 1234.5, "1/s"), Metric::new("setup_s", 0.25, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"stream_pps\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_escape_and_non_finite_numbers_become_null() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
