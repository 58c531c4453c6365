//! The workspace's serializer: a deterministic JSON encoder for
//! experiment artifacts.
//!
//! Every result file under `results/` — including the golden Table 8
//! snapshot — is a [`ToJson`] impl rendered by [`crate::save_json`].
//! Determinism is the point: object keys are emitted in declaration
//! order, floats use Rust's shortest round-trip formatting, and there
//! is no hash-map anywhere, so the same run produces the same bytes.

use taurus_controlplane::baseline::BaselineReport;
use taurus_controlplane::training::ConvergencePoint;
use taurus_core::e2e::{Table8Row, TaurusEvalReport};
use taurus_core::{AppCounters, AppReport, ReactionTime, SwitchReport, VerdictPolicy};
use taurus_ml::BinaryMetrics;
use taurus_runtime::{
    DeploymentReport, DeploymentRound, OverloadReport, QuarantineCounts, RuntimeReport, ShardStats,
};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (most counters).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Finite double (non-finite values render as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with *ordered* keys.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders pretty-printed JSON: one key or element per line, 2-space
    /// indent, `"key": value`, and `[]` / `{}` for empty containers.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format_f64(*v));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    out.push('"');
                    out.push_str(key);
                    out.push_str("\": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Shortest round-trip float formatting; integral doubles keep a `.0`
/// (`321.0`, not `321`), so a float field never reads as an integer.
fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Types that render themselves as a [`Json`] tree.
pub trait ToJson {
    /// Builds the value tree.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for BaselineReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("xdp_batch", Json::Float(self.xdp_batch)),
            ("rem_batch", Json::Float(self.rem_batch)),
            ("xdp_ms", Json::Float(self.xdp_ms)),
            ("db_ms", Json::Float(self.db_ms)),
            ("ml_ms", Json::Float(self.ml_ms)),
            ("install_ms", Json::Float(self.install_ms)),
            ("all_ms", Json::Float(self.all_ms)),
            ("detected_pct", Json::Float(self.detected_pct)),
            ("f1_percent", Json::Float(self.f1_percent)),
            ("rules_installed", Json::UInt(self.rules_installed as u64)),
            ("sampled", Json::UInt(self.sampled as u64)),
        ])
    }
}

impl ToJson for TaurusEvalReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("detected_pct", Json::Float(self.detected_pct)),
            ("f1_percent", Json::Float(self.f1_percent)),
            ("mean_latency_ns", Json::Float(self.mean_latency_ns)),
            ("packets", Json::UInt(self.packets as u64)),
        ])
    }
}

impl ToJson for Table8Row {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("sampling_rate", Json::Float(self.sampling_rate)),
            ("baseline", self.baseline.to_json()),
            ("taurus", self.taurus.to_json()),
        ])
    }
}

impl ToJson for AppCounters {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("packets", Json::UInt(self.packets)),
            ("ml_packets", Json::UInt(self.ml_packets)),
            ("dropped", Json::UInt(self.dropped)),
            ("flagged", Json::UInt(self.flagged)),
        ])
    }
}

impl ToJson for AppReport {
    fn to_json(&self) -> Json {
        let reaction = match self.reaction {
            ReactionTime::PerPacket => "per-packet",
            ReactionTime::PerFlowlet => "per-flowlet",
            ReactionTime::PerFlow => "per-flow",
            ReactionTime::PerMicroburst => "per-microburst",
        };
        let policy = match self.policy {
            VerdictPolicy::Enforce => "enforce",
            VerdictPolicy::Observe => "observe",
        };
        Json::Object(vec![
            ("name", Json::Str(self.name.clone())),
            ("reaction", Json::Str(reaction.into())),
            ("policy", Json::Str(policy.into())),
            ("counters", self.counters.to_json()),
        ])
    }
}

impl ToJson for SwitchReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("packets", Json::UInt(self.packets)),
            ("ml_packets", Json::UInt(self.ml_packets)),
            ("dropped", Json::UInt(self.dropped)),
            ("flagged", Json::UInt(self.flagged)),
            ("evictions", Json::UInt(self.evictions)),
            ("apps", self.apps.to_json()),
        ])
    }
}

impl ToJson for ShardStats {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("shard", Json::UInt(self.shard as u64)),
            ("packets", Json::UInt(self.packets)),
            ("batches", Json::UInt(self.batches)),
            ("report", self.report.to_json()),
        ])
    }
}

impl ToJson for BinaryMetrics {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("tp", Json::UInt(self.tp)),
            ("fp", Json::UInt(self.fp)),
            ("tn", Json::UInt(self.tn)),
            ("fn", Json::UInt(self.fn_)),
            ("f1_percent", Json::Float(self.f1_percent())),
            ("detected_pct", Json::Float(self.detected_percent())),
        ])
    }
}

impl ToJson for QuarantineCounts {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("zero_length", Json::UInt(self.zero_length)),
            ("truncated", Json::UInt(self.truncated)),
            ("oversized", Json::UInt(self.oversized)),
            ("garbage_port", Json::UInt(self.garbage_port)),
            ("unknown_protocol", Json::UInt(self.unknown_protocol)),
            ("non_monotonic_ts", Json::UInt(self.non_monotonic_ts)),
        ])
    }
}

impl ToJson for OverloadReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("degraded_verdicts", Json::UInt(self.degraded_verdicts)),
            ("degraded_anomalous", Json::UInt(self.degraded_anomalous)),
            ("per_shard", Json::Array(self.per_shard.iter().map(|&n| Json::UInt(n)).collect())),
            ("quarantine", self.quarantine.to_json()),
        ])
    }
}

impl ToJson for RuntimeReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("merged", self.merged.to_json()),
            ("shards", self.shards.to_json()),
            ("segments", self.segments.to_json()),
        ];
        // A run in which the admission layer did nothing renders
        // byte-for-byte like a report from before the section existed.
        if !self.overload.is_empty() {
            fields.push(("overload", self.overload.to_json()));
        }
        Json::Object(fields)
    }
}

impl ToJson for ConvergencePoint {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("time_s", Json::Float(self.time_s)),
            ("f1_percent", Json::Float(self.f1_percent)),
        ])
    }
}

impl ToJson for DeploymentRound {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("round", Json::UInt(self.round as u64)),
            ("version", Json::UInt(self.version)),
            ("triggered_at_packet", Json::UInt(self.triggered_at_packet)),
            ("installed_at_packet", Json::UInt(self.installed_at_packet)),
            ("install_time_s", Json::Float(self.install_time_s)),
            ("train_loss", Json::Float(f64::from(self.train_loss))),
        ])
    }
}

impl ToJson for DeploymentReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("curve", self.curve.to_json()),
            ("rounds", self.rounds.to_json()),
            ("final_version", Json::UInt(self.final_version)),
            ("runtime", self.runtime.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_runtime::FaultReport;

    #[test]
    fn rendering_is_deterministic_and_shaped_like_json() {
        let row = Table8Row {
            sampling_rate: 1e-3,
            baseline: BaselineReport {
                xdp_batch: 1.5,
                rem_batch: 2.0,
                xdp_ms: 0.25,
                db_ms: 1.0,
                ml_ms: 3.0,
                install_ms: 0.5,
                all_ms: 4.75,
                detected_pct: 0.015,
                f1_percent: 0.031,
                rules_installed: 3,
                sampled: 17,
            },
            taurus: TaurusEvalReport {
                detected_pct: 58.2,
                f1_percent: 71.1,
                mean_latency_ns: 321.0,
                packets: 12_345,
            },
        };
        let a = vec![row.clone()].to_json().pretty();
        let b = vec![row].to_json().pretty();
        assert_eq!(a, b);
        assert!(a.starts_with("[\n  {\n    \"sampling_rate\": 0.001,"), "{a}");
        assert!(a.contains("\"mean_latency_ns\": 321.0"), "integral floats keep .0: {a}");
        assert!(a.contains("\"rules_installed\": 3"));
        assert!(a.trim_end().ends_with(']'));
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn switch_reports_render_with_ordered_keys() {
        let report = SwitchReport {
            packets: 10,
            ml_packets: 8,
            dropped: 2,
            flagged: 1,
            evictions: 0,
            apps: vec![AppReport {
                name: "anomaly-detection".into(),
                reaction: ReactionTime::PerPacket,
                policy: VerdictPolicy::Enforce,
                counters: AppCounters { packets: 10, ml_packets: 8, dropped: 2, flagged: 1 },
            }],
            ..SwitchReport::default()
        };
        let s = report.to_json().pretty();
        let packets_at = s.find("\"packets\"").unwrap();
        let apps_at = s.find("\"apps\"").unwrap();
        assert!(packets_at < apps_at, "declaration order preserved: {s}");
        assert!(s.contains("\"policy\": \"enforce\""));
        assert!(s.contains("\"reaction\": \"per-packet\""));
    }

    fn fields(json: &Json) -> &[(&'static str, Json)] {
        match json {
            Json::Object(fields) => fields,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn keys(json: &Json) -> Vec<&'static str> {
        fields(json).iter().map(|&(key, _)| key).collect()
    }

    #[test]
    fn runtime_reports_render_the_overload_section_only_when_the_admission_layer_acted() {
        let mut report = RuntimeReport {
            merged: SwitchReport::default(),
            shards: Vec::new(),
            segments: vec![BinaryMetrics::default()],
            faults: FaultReport::default(),
            overload: OverloadReport::default(),
        };
        assert_eq!(keys(&report.to_json()), ["merged", "shards", "segments"]);

        report.overload = OverloadReport {
            degraded_verdicts: 3,
            per_shard: vec![2, 1],
            quarantine: QuarantineCounts { truncated: 1, ..QuarantineCounts::default() },
            ..OverloadReport::default()
        };
        let json = report.to_json();
        assert_eq!(keys(&json), ["merged", "shards", "segments", "overload"]);
        let overload = &fields(&json)[3].1;
        let field = |key| &fields(overload).iter().find(|(k, _)| *k == key).unwrap().1;
        assert_eq!(
            keys(overload),
            ["degraded_verdicts", "degraded_anomalous", "per_shard", "quarantine"]
        );
        assert_eq!(*field("degraded_verdicts"), Json::UInt(3));
        assert_eq!(*field("per_shard"), Json::Array(vec![Json::UInt(2), Json::UInt(1)]));
        assert!(json.pretty().contains("\"truncated\": 1,"));
    }
}
