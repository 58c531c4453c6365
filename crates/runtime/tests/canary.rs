//! The canary/rollback lifecycle suite: a canaried install must be
//! probationary (only the canary shards run the candidate), its
//! verdict must be a pure function of the merged probation metrics,
//! a tripped guardrail must restore the canary shards **bit-exactly**
//! (the fleet afterwards is indistinguishable from one that never saw
//! the candidate), and all of it must be invariant to shard geometry.

use std::time::Duration;

use proptest::prelude::*;
use taurus_core::apps::SynFloodDetector;
use taurus_core::EngineBackend;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::{
    CanaryDecision, CanaryGuardrails, FaultPlan, InstallError, RuntimeBuilder, ShardError,
    StreamingRuntime,
};

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

fn build_service(shards: usize, syn: &SynFloodDetector) -> StreamingRuntime {
    RuntimeBuilder::new()
        .shards(shards)
        .batch_size(16)
        .register_on(syn, EngineBackend::Threshold)
        .build()
}

#[test]
fn a_sane_canary_promotes_fleet_wide() {
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 71);
    let mut service = build_service(4, &syn);
    // Same cutoff as the incumbent: canary and control behave
    // identically, so any metric gap is pure slice noise — the canary
    // group sees different flows than the control group. Guardrails
    // are sized for that noise at this probation length (the groups'
    // F1 differs by ~13pp on a 200-record slice even with identical
    // models).
    let guardrails =
        CanaryGuardrails { max_f1_drop: 25.0, max_positive_rate_delta: 0.25, min_samples: 100 };
    let candidate = syn.retune(40, 1, EngineBackend::Threshold);
    service.begin_canary(&candidate, 2).expect("fresh rollout");
    assert!(service.canary_active());
    service.feed(&trace.packets);
    let verdict = service.conclude_canary(&guardrails).expect("concludes");
    assert_eq!(verdict.decision, CanaryDecision::Promote);
    assert_eq!(verdict.app, "syn-flood");
    assert_eq!(verdict.version, 1);
    assert!(!service.canary_active());
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 1)], "promoted fleet-wide");
    let report = service.drain();
    assert_eq!(report.merged.packets, trace.packets.len() as u64);
    assert_eq!(report.faults.rollbacks_taken, 0);
    assert_eq!(report.faults.canary_verdicts, vec![verdict]);
    assert!(report.faults.records.is_empty(), "a clean promote is not a fault");
    // Canary events split segments on *every* shard at the same two
    // barriers (begin, conclude): pre-probation, probation, post.
    assert_eq!(report.segments.len(), 3);
    assert_eq!(report.segments[0].total(), 0, "probation began before any traffic");
    assert_eq!(report.segments[1].total(), trace.packets.len() as u64);
}

#[test]
fn a_bad_canary_rolls_back_and_the_fleet_matches_a_never_installed_run() {
    // The acceptance pin: canary a deliberately bad model (negative
    // cutoff: drops every packet), let the positive-rate guardrail trip,
    // and verify the post-rollback fleet is *byte-identical* to one
    // that never saw the candidate — same validation report, same
    // versions, bit for bit.
    let syn = SynFloodDetector::default_deployment();
    let probation = kdd_trace(150, 72);
    let validation = kdd_trace(150, 73);

    let mut subject = build_service(4, &syn);
    let bad = syn.retune(-1_000, 1, EngineBackend::Threshold);
    subject.begin_canary(&bad, 1).expect("fresh rollout");
    subject.feed(&probation.packets);
    let verdict = subject.conclude_canary(&CanaryGuardrails::default()).expect("concludes");
    assert_eq!(verdict.decision, CanaryDecision::Rollback, "dropping everything must trip");
    let probation_report = subject.drain();
    assert_eq!(probation_report.faults.rollbacks_taken, 1);
    assert_eq!(probation_report.faults.canary_verdicts.len(), 1);
    assert_eq!(probation_report.faults.worker_restarts, 0, "rollback is not a fault recovery");
    assert_eq!(
        subject.app_versions(),
        vec![("syn-flood".to_string(), 0)],
        "rollback rewinds the version so a fixed candidate can reuse it"
    );

    // Control runtime: identical lifecycle, no canary ever.
    let mut control = build_service(4, &syn);
    control.feed(&probation.packets);
    control.drain();

    // Both fleets now validate on fresh state; the reports must agree
    // byte for byte — registers, counters, segments, versions.
    subject.reset();
    control.reset();
    subject.feed(&validation.packets);
    control.feed(&validation.packets);
    let subject_report = subject.drain();
    let control_report = control.drain();
    assert_eq!(subject_report, control_report, "rollback must be bit-exact");
    assert_eq!(subject.app_versions(), control.app_versions());
}

#[test]
fn promote_then_validate_matches_a_direct_install() {
    // Promotion ends in the same fleet state as installing the update
    // outright: the canary detour is invisible after a reset.
    let syn = SynFloodDetector::default_deployment();
    let probation = kdd_trace(120, 74);
    let validation = kdd_trace(120, 75);
    let candidate = syn.retune(55, 1, EngineBackend::Threshold);

    // Permissive guardrails: this test is about post-promotion state
    // equivalence, not the verdict itself.
    let guardrails =
        CanaryGuardrails { max_f1_drop: 100.0, max_positive_rate_delta: 1.0, min_samples: 1 };

    let mut canaried = build_service(3, &syn);
    canaried.begin_canary(&candidate, 1).expect("fresh rollout");
    canaried.feed(&probation.packets);
    let verdict = canaried.conclude_canary(&guardrails).expect("concludes");
    assert_eq!(verdict.decision, CanaryDecision::Promote);
    canaried.drain();

    let mut direct = build_service(3, &syn);
    direct.install_update(&candidate).expect("fresh version");
    direct.feed(&probation.packets);
    direct.drain();

    canaried.reset();
    direct.reset();
    canaried.feed(&validation.packets);
    direct.feed(&validation.packets);
    let a = canaried.drain();
    let b = direct.drain();
    assert_eq!(a.merged, b.merged);
    assert_eq!(a.segments, b.segments);
    assert_eq!(canaried.app_versions(), direct.app_versions());
}

#[test]
fn canary_probation_serializes_against_other_installs() {
    let syn = SynFloodDetector::default_deployment();
    let mut service = build_service(2, &syn);
    let candidate = syn.retune(40, 1, EngineBackend::Threshold);
    service.begin_canary(&candidate, 1).expect("fresh rollout");
    // A second rollout and a direct install must both wait.
    let again = service.begin_canary(&candidate, 1).expect_err("one rollout at a time");
    assert_eq!(again, InstallError::CanaryActive);
    let direct = service
        .install_update(&syn.retune(50, 2, EngineBackend::Threshold))
        .expect_err("no installs mid-probation");
    assert_eq!(direct, InstallError::CanaryActive);
    // Concluding with no probation traffic fails safe: thin evidence
    // rolls back.
    let verdict = service.conclude_canary(&CanaryGuardrails::default()).expect("concludes");
    assert_eq!(verdict.decision, CanaryDecision::Rollback, "no evidence ⇒ no promotion");
    let none = service.conclude_canary(&CanaryGuardrails::default()).expect_err("already over");
    assert_eq!(none, InstallError::NoCanary);
    // With the probation over, normal installs flow again.
    service.install_update(&syn.retune(50, 2, EngineBackend::Threshold)).expect("fleet is free");
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 2)]);
}

#[test]
fn a_rejected_candidate_leaves_the_fleet_untouched() {
    let syn = SynFloodDetector::default_deployment();
    let mut service = build_service(2, &syn);
    service.install_update(&syn.retune(45, 3, EngineBackend::Threshold)).expect("fresh version");
    // Version 3 again: stale, rejected feeder-side before any replica
    // changes.
    let err = service
        .begin_canary(&syn.retune(45, 3, EngineBackend::Threshold), 1)
        .expect_err("stale candidate");
    assert!(err.to_string().contains("stale update"), "{err}");
    assert!(!service.canary_active());
    let trace = kdd_trace(80, 76);
    service.feed(&trace.packets);
    let report = service.drain();
    assert_eq!(report.merged.packets, trace.packets.len() as u64);
    assert_eq!(report.segments.len(), 1, "no canary barriers were planted");
    assert!(report.faults.is_empty());
}

#[test]
fn a_failed_conclusion_keeps_the_rollout_in_flight_until_a_drain_recovers_it() {
    // The metrics barrier times out on a stalled control shard. The
    // rollout must survive the error: a forgotten one would leave the
    // canary shard running the candidate under a mirror that says v0.
    let syn = SynFloodDetector::default_deployment();
    let probation = kdd_trace(20, 77);
    let validation = kdd_trace(100, 78);
    let build = |plan: FaultPlan| {
        RuntimeBuilder::new()
            .shards(2)
            .batch_size(16)
            .queue_depth(64)
            .spare_replicas(1)
            .control_timeout(Duration::from_millis(100))
            .fault_plan(plan)
            .register_on(&syn, EngineBackend::Threshold)
            .build()
    };
    let mut subject = build(FaultPlan::new().stall(0, 0, Duration::from_secs(1)));
    let mut twin = build(FaultPlan::new());
    let bad = syn.retune(-1_000, 1, EngineBackend::Threshold);
    subject.begin_canary(&bad, 1).expect("fresh rollout");
    subject.feed(&probation.packets);
    twin.feed(&probation.packets);
    let err = subject.conclude_canary(&CanaryGuardrails::default()).expect_err("stalled shard");
    assert!(matches!(err, InstallError::Shard(ShardError::Unresponsive { shard: 0, .. })), "{err}");
    assert!(subject.canary_active(), "a failed conclusion leaves the rollout in flight");
    let direct = subject.install_update(&syn.retune(50, 2, EngineBackend::Threshold));
    assert_eq!(direct, Err(InstallError::CanaryActive));

    // Recovery: a drain replaces the out-of-protocol shard, then the
    // rollout concludes (thin evidence after the drain ⇒ rollback).
    std::thread::sleep(Duration::from_millis(1_200));
    let recovered = subject.drain();
    assert_eq!(recovered.faults.worker_restarts, 1);
    twin.drain();
    let verdict = subject.conclude_canary(&CanaryGuardrails::default()).expect("concludes");
    assert_eq!(verdict.decision, CanaryDecision::Rollback);
    assert!(!subject.canary_active());
    subject.drain();

    subject.reset();
    twin.reset();
    subject.feed(&validation.packets);
    twin.feed(&validation.packets);
    assert_eq!(subject.drain().merged, twin.drain().merged, "shard 1 was rolled back");
    assert_eq!(subject.app_versions(), twin.app_versions());
}

#[test]
fn a_canary_shard_respawned_mid_probation_lands_on_the_verdict_side() {
    // Shard 2 is the canary shard and panics mid-probation. Its spare
    // must run the candidate for the rest of the probation and then
    // follow the verdict like every other canary shard.
    let syn = SynFloodDetector::default_deployment();
    let first = kdd_trace(80, 79);
    let second = kdd_trace(80, 80);
    let validation = kdd_trace(100, 81);
    let cases = [
        (-1_000, CanaryGuardrails::default(), CanaryDecision::Rollback),
        (
            55,
            CanaryGuardrails { max_f1_drop: 100.0, max_positive_rate_delta: 1.0, min_samples: 1 },
            CanaryDecision::Promote,
        ),
    ];
    for (cutoff, guardrails, expected) in cases {
        let candidate = syn.retune(cutoff, 1, EngineBackend::Threshold);
        let mut subject = RuntimeBuilder::new()
            .shards(3)
            .batch_size(16)
            .spare_replicas(1)
            .fault_plan(FaultPlan::new().engine_panic(2, 10))
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let mut twin = build_service(3, &syn);
        if expected == CanaryDecision::Promote {
            twin.install_update(&candidate).expect("fresh version");
        }
        subject.begin_canary(&candidate, 1).expect("fresh rollout");
        subject.feed(&first.packets);
        assert_eq!(subject.drain().faults.worker_restarts, 1, "the canary shard was respawned");
        subject.feed(&second.packets);
        let verdict = subject.conclude_canary(&guardrails).expect("concludes");
        assert_eq!(verdict.decision, expected);
        assert!(verdict.canary.total() > 0, "the spare served probation traffic");
        subject.drain();
        for trace in [&first, &second] {
            twin.feed(&trace.packets);
            twin.drain();
        }

        subject.reset();
        twin.reset();
        subject.feed(&validation.packets);
        twin.feed(&validation.packets);
        assert_eq!(subject.drain().merged, twin.drain().merged, "{expected:?}");
        assert_eq!(subject.app_versions(), twin.app_versions(), "{expected:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Geometry invariance: for random traces, the canary *decision*
    /// and the post-decision validation report are bit-identical across
    /// shard counts {1,2,3,5,8}. The scenarios are decisive by
    /// construction — a model that drops everything under real
    /// guardrails (always rolls back), and an incumbent-equivalent
    /// model under permissive guardrails (always promotes) — because for *borderline* candidates the shard split
    /// itself changes which flows sit in each group, and no controller
    /// can be geometry-blind about genuinely slice-dependent evidence.
    /// (The single-shard fleet has no control group — its own
    /// pre-canary segment is the baseline — yet must still agree.)
    #[test]
    fn canary_decisions_and_aftermath_are_geometry_invariant(
        seed in 0u64..1_000,
        rolls_back in any::<bool>(),
    ) {
        let syn = SynFloodDetector::default_deployment();
        let baseline = kdd_trace(100, seed);
        let probation = kdd_trace(120, seed.wrapping_add(3));
        let validation = kdd_trace(120, seed.wrapping_add(7));
        // Drop-everything cutoff vs incumbent-equivalent cutoff.
        let cutoff = if rolls_back { -1_000 } else { 40 };
        let guardrails = if rolls_back {
            CanaryGuardrails::default()
        } else {
            // Permissive: slice noise between the groups never trips.
            CanaryGuardrails { max_f1_drop: 1_000.0, max_positive_rate_delta: 2.0, min_samples: 1 }
        };
        let candidate = syn.retune(cutoff, 1, EngineBackend::Threshold);
        let expected =
            if rolls_back { CanaryDecision::Rollback } else { CanaryDecision::Promote };
        let mut golden: Option<(_, _)> = None;
        for shards in [1usize, 2, 3, 5, 8] {
            let mut service = build_service(shards, &syn);
            // Baseline traffic before the rollout so even the
            // single-shard fleet has a pre-canary segment to
            // compare against.
            service.feed(&baseline.packets);
            service.begin_canary(&candidate, 1).expect("fresh rollout");
            service.feed(&probation.packets);
            let verdict = service.conclude_canary(&guardrails).expect("concludes");
            prop_assert_eq!(verdict.decision, expected, "shards={}", shards);
            service.drain();
            service.reset();
            service.feed(&validation.packets);
            let after = service.drain();
            prop_assert!(after.faults.is_empty());
            let key = (after.merged.clone(), after.segments.clone());
            match &golden {
                None => golden = Some(key),
                Some(g) => {
                    prop_assert!(g == &key, "shards={}: validation reports diverged", shards)
                }
            }
        }
    }
}
