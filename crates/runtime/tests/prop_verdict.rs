//! Property tests for the multi-app verdict algebra and its sharded
//! execution.
//!
//! Pinned properties:
//! 1. The combined verdict is the **max-severity vote over enforcing
//!    apps** (`Drop > Flag > Forward`), whatever each app votes.
//! 2. It is **invariant under registration order**.
//! 3. **Observe-only apps never change it** — any roster of observers
//!    can be added without affecting forwarding.
//! 4. The sharded runtime preserves all of the above **exactly**: its
//!    merged report equals the sequential switch's for arbitrary
//!    shard/batch/queue geometry (power-of-two shard counts).

use std::sync::Arc;

use proptest::prelude::*;
use taurus_core::apps::SynFloodDetector;
use taurus_core::{
    EngineBackend, FormatterFactory, ReactionTime, SwitchBuilder, TaurusApp, TaurusSwitch,
    VerdictPolicy,
};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_pisa::mat::MatchTable;
use taurus_pisa::registers::{FlowFeatures, PacketObs};
use taurus_pisa::{Field, Packet, Verdict};
use taurus_runtime::RuntimeBuilder;

/// A test app that votes a fixed verdict on every packet (its single
/// post table writes the decision field unconditionally).
struct FixedApp {
    name: String,
    verdict: Verdict,
    policy: VerdictPolicy,
}

impl FixedApp {
    /// Decodes one generated spec: verdict = `code % 3`, enforcing for
    /// `code < 3`.
    fn from_spec(index: usize, code: usize) -> Self {
        let verdict = Verdict::from_code((code % 3) as i64);
        let policy = if code < 3 { VerdictPolicy::Enforce } else { VerdictPolicy::Observe };
        Self { name: format!("fixed-{index}"), verdict, policy }
    }
}

impl TaurusApp for FixedApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn reaction_time(&self) -> ReactionTime {
        ReactionTime::PerPacket
    }

    fn feature_count(&self) -> usize {
        1
    }

    fn formatter_factory(&self) -> FormatterFactory {
        Arc::new(|| {
            Box::new(|f: &FlowFeatures, out: &mut Vec<i32>| out.push(f.packets.min(127) as i32))
        })
    }

    fn post_tables(&self, _backend: EngineBackend) -> Vec<MatchTable> {
        // No entries: every lookup writes the default, this app's vote.
        vec![MatchTable::new("fixed-verdict", Field::MlOut, Field::Decision, self.verdict.code())]
    }

    fn verdict_policy(&self) -> VerdictPolicy {
        self.policy
    }
}

fn build_switch(apps: &[FixedApp]) -> TaurusSwitch {
    apps.iter()
        .fold(SwitchBuilder::new(), |b, app| b.register_on(app, EngineBackend::Threshold))
        .build()
}

fn tcp_probe() -> (Packet, PacketObs) {
    let pkt = Packet::tcp(10, 20, 40_000, 80, 0x10, 200);
    let obs = PacketObs {
        flow_key: 42,
        dst_key: 7,
        srv_key: 9,
        reverse: false,
        is_flow_start: true,
        len: 200,
        tcp_flags: 0x10,
        proto: 6,
        ts_ns: 1_000,
    };
    (pkt, obs)
}

/// The specified semantics, computed independently of the switch.
fn expected_verdict(apps: &[FixedApp]) -> Verdict {
    apps.iter()
        .filter(|a| a.policy == VerdictPolicy::Enforce)
        .map(|a| a.verdict)
        .fold(Verdict::Forward, Verdict::max_severity)
}

/// Deterministic Fisher–Yates driven by a generated seed (the vendored
/// proptest has no shuffle strategy).
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combined_verdict_is_max_severity_over_enforcing_apps(
        specs in collection::vec(0usize..6, 1..6),
    ) {
        let apps: Vec<FixedApp> =
            specs.iter().enumerate().map(|(i, &c)| FixedApp::from_spec(i, c)).collect();
        let mut switch = build_switch(&apps);
        let (pkt, obs) = tcp_probe();
        let r = switch.process_prepared_verdict(&pkt, obs, 0, 0);
        prop_assert_eq!(r.verdict, expected_verdict(&apps), "specs {:?}", specs);
        // Every app's own vote is reported unchanged, enforcing or not:
        // after one packet its counters hold exactly that vote.
        let report = switch.report();
        prop_assert_eq!(report.apps.len(), apps.len());
        for (app, reported) in apps.iter().zip(&report.apps) {
            let c = reported.counters;
            let vote = match (c.dropped, c.flagged) {
                (1, 0) => Verdict::Drop,
                (0, 1) => Verdict::Flag,
                (0, 0) => Verdict::Forward,
                counts => panic!("one packet, two votes: {counts:?}"),
            };
            prop_assert_eq!(c.packets, 1);
            prop_assert_eq!(vote, app.verdict);
        }
    }

    #[test]
    fn combined_verdict_is_invariant_under_registration_order(
        specs in collection::vec(0usize..6, 1..6),
        order_seed in any::<u64>(),
    ) {
        let apps: Vec<FixedApp> =
            specs.iter().enumerate().map(|(i, &c)| FixedApp::from_spec(i, c)).collect();
        let permuted = shuffled(
            specs.iter().enumerate().map(|(i, &c)| FixedApp::from_spec(i, c)).collect(),
            order_seed,
        );
        let (pkt, obs) = tcp_probe();
        let a = build_switch(&apps).process_prepared_verdict(&pkt, obs, 0, 0);
        let b = build_switch(&permuted).process_prepared_verdict(&pkt, obs, 0, 0);
        prop_assert_eq!(a.verdict, b.verdict, "order changed the verdict: {:?}", specs);
        prop_assert_eq!(a.latency_ns, b.latency_ns);
        prop_assert_eq!(a.bypassed, b.bypassed);
    }

    #[test]
    fn observe_only_apps_never_change_the_verdict(
        enforcing in collection::vec(0usize..3, 1..4),
        observers in collection::vec(0usize..3, 1..4),
    ) {
        let base: Vec<FixedApp> =
            enforcing.iter().enumerate().map(|(i, &c)| FixedApp::from_spec(i, c)).collect();
        // The same roster plus arbitrary observe-only voters.
        let mut extended: Vec<FixedApp> =
            enforcing.iter().enumerate().map(|(i, &c)| FixedApp::from_spec(i, c)).collect();
        extended.extend(observers.iter().enumerate().map(|(i, &c)| FixedApp {
            name: format!("observer-{i}"),
            verdict: Verdict::from_code(c as i64),
            policy: VerdictPolicy::Observe,
        }));
        let (pkt, obs) = tcp_probe();
        let without = build_switch(&base).process_prepared_verdict(&pkt, obs, 0, 0);
        let with = build_switch(&extended).process_prepared_verdict(&pkt, obs, 0, 0);
        prop_assert_eq!(
            without.verdict,
            with.verdict,
            "observers changed forwarding: {:?} + {:?}",
            enforcing,
            observers
        );
    }
}

proptest! {
    // Trace expansion per case makes these heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_runtime_matches_sequential_for_arbitrary_geometry(
        seed in 0u64..1_000,
        n_records in 30usize..120,
        shard_pow in 0u32..4,
        batch_size in 1usize..100,
        queue_depth in 1usize..6,
    ) {
        let syn = SynFloodDetector::default_deployment();
        let records = KddGenerator::new(seed).take(n_records);
        let trace = PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() });

        let mut sequential =
            SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        for tp in &trace.packets {
            sequential.process_trace_verdict(tp);
        }

        let mut rt = RuntimeBuilder::new()
            .shards(1 << shard_pow)
            .batch_size(batch_size)
            .queue_depth(queue_depth)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        prop_assert_eq!(
            report.merged,
            sequential.report(),
            "shards={} batch={} depth={}",
            1 << shard_pow,
            batch_size,
            queue_depth
        );
    }
}
