//! Adversarial ingest: malformed trace records must cost exactly one
//! quarantine counter — never a panic, never a state mutation — and the
//! accounting must be identical under every shard geometry.
//!
//! The oracle is the frontier itself: replay the same
//! [`IngestValidator`] sequentially over the corrupted stream to
//! enumerate the admitted sub-stream and the per-reason counts, then
//! demand the runtime's merged report equal the sequential switch fed
//! only the survivors. This makes even the validator's deliberate edge
//! cases (a wire-valid garbage timestamp that cascades quarantines
//! behind it, a replay restart that rewinds the clock) part of the pin
//! rather than a special case.

use proptest::prelude::*;
use taurus_core::apps::SynFloodDetector;
use taurus_core::ingest::{IngestError, IngestValidator};
use taurus_core::{EngineBackend, SwitchBuilder, SwitchReport};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_runtime::{QuarantineCounts, RuntimeBuilder, RuntimeReport};

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

/// One adversarial edit: corrupt the packet at (roughly) `at` in one of
/// the ways a damaged capture would.
fn corrupt(packets: &mut [TracePacket], at: usize, kind: u8) {
    let i = at % packets.len();
    match kind {
        0 => packets[i].len = 0,
        1 => packets[i].len = 1 + (at as u16 % 62), // 1..=62: truncated
        2 => packets[i].len = 2000u16.saturating_add(at as u16), // past the MTU
        3 => packets[i].tuple.src_port = 0,         // garbage on TCP/UDP, legal on ICMP
        4 => packets[i].tuple.proto = 99,
        5 => {
            // A mid-range timestamp regression: corrupt, not a restart
            // (restarts rewind to at-or-before the feed's opening
            // timestamp, which mutation 6 exercises via the cascade).
            if i > 0 {
                packets[i].ts_ns = packets[i - 1].ts_ns.saturating_sub(1);
            }
        }
        _ => packets[i].ts_ns = u64::MAX, // wire-valid garbage clock: admitted, cascades
    }
}

/// Replays the real frontier sequentially: the admitted sub-stream and
/// the per-reason quarantine counts the runtime must reproduce.
fn frontier_oracle(packets: &[TracePacket]) -> (Vec<TracePacket>, QuarantineCounts) {
    let mut validator = IngestValidator::new();
    let mut admitted = Vec::with_capacity(packets.len());
    let mut counts = QuarantineCounts::default();
    for tp in packets {
        match validator.admit(tp) {
            Ok(()) => admitted.push(*tp),
            Err(IngestError::ZeroLength) => counts.zero_length += 1,
            Err(IngestError::Truncated { .. }) => counts.truncated += 1,
            Err(IngestError::Oversized { .. }) => counts.oversized += 1,
            Err(IngestError::GarbagePort) => counts.garbage_port += 1,
            Err(IngestError::UnknownProtocol { .. }) => counts.unknown_protocol += 1,
            Err(IngestError::NonMonotonicTimestamp) => counts.non_monotonic_ts += 1,
        }
    }
    (admitted, counts)
}

fn sequential_report(syn: &SynFloodDetector, packets: &[TracePacket]) -> SwitchReport {
    let mut switch = SwitchBuilder::new().register_on(syn, EngineBackend::Threshold).build();
    for tp in packets {
        switch.process_trace_verdict(tp);
    }
    switch.report()
}

fn run(syn: &SynFloodDetector, shards: usize, packets: &[TracePacket]) -> RuntimeReport {
    let mut rt = RuntimeBuilder::new()
        .shards(shards)
        .batch_size(16)
        .register_on(syn, EngineBackend::Threshold)
        .build();
    rt.feed(packets);
    rt.drain()
}

proptest! {
    // Each case runs two threaded runtimes; keep the count modest so
    // the suite stays fast on small CI hosts.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn corrupted_streams_quarantine_identically_across_ingest_modes(
        seed in 0u64..1_000,
        n_records in 20usize..60,
        edit_sites in proptest::collection::vec(0usize..10_000, 1..24),
        edit_kinds in proptest::collection::vec(0u8..7, 1..24),
    ) {
        let syn = SynFloodDetector::default_deployment();
        let mut packets = kdd_trace(n_records, seed).packets;
        // Pairs up to the shorter list: the edit set itself is arbitrary.
        for (&at, &kind) in edit_sites.iter().zip(&edit_kinds) {
            corrupt(&mut packets, at, kind);
        }

        let (admitted, counts) = frontier_oracle(&packets);
        let golden = sequential_report(&syn, &admitted);

        for shards in [1usize, 3] {
            // The hard property is "no panic"; the exact one is that
            // every geometry reproduces the sequential frontier bit for bit.
            let report = run(&syn, shards, &packets);
            prop_assert_eq!(
                report.overload.quarantine, counts,
                "quarantine accounting diverged at shards={}", shards
            );
            prop_assert_eq!(
                &report.merged, &golden,
                "merged report diverged from the filtered oracle at shards={}", shards
            );
            prop_assert_eq!(
                report.merged.packets + report.overload.quarantine.total(),
                packets.len() as u64,
                "conservation: admitted + quarantined == offered"
            );
            prop_assert_eq!(report.overload.degraded_verdicts, 0, "quarantine is not degrading");
        }
    }
}

#[test]
fn each_quarantine_reason_lands_in_its_own_counter() {
    // A deterministic end-to-end pin, one malformation per reason, at
    // known positions — so a counter regression names itself.
    let syn = SynFloodDetector::default_deployment();
    let mut packets = kdd_trace(60, 7).packets;
    assert!(packets.len() > 40, "trace long enough to spread malformations");
    packets[5].len = 0; // zero_length
    packets[10].len = 32; // truncated
    packets[15].len = 4000; // oversized
    packets[20].tuple.proto = 6; // garbage_port needs TCP...
    packets[20].tuple.src_port = 0;
    packets[25].tuple.proto = 250; // unknown_protocol

    // non_monotonic_ts: a mid-range regression — strictly after the
    // feed's opening timestamp, strictly before its predecessor.
    let start = packets[0].ts_ns;
    let mid = packets[29].ts_ns;
    assert!(mid > start + 1, "trace timestamps advance");
    packets[30].ts_ns = (start + mid) / 2 + 1;

    let (admitted, counts) = frontier_oracle(&packets);
    assert_eq!(counts.zero_length, 1);
    assert_eq!(counts.truncated, 1);
    assert_eq!(counts.oversized, 1);
    assert_eq!(counts.garbage_port, 1);
    assert_eq!(counts.unknown_protocol, 1);
    assert_eq!(counts.non_monotonic_ts, 1);
    assert_eq!(admitted.len(), packets.len() - 6);
    let golden = sequential_report(&syn, &admitted);

    for shards in [1usize, 3, 5] {
        let report = run(&syn, shards, &packets);
        assert_eq!(report.overload.quarantine, counts, "counters diverged at shards={shards}");
        assert_eq!(report.merged, golden);
        // Quarantined packets still occupy their stream indices.
        assert_eq!(report.merged.packets, admitted.len() as u64);
    }
}

#[test]
fn a_fully_garbage_stream_is_refused_without_a_panic() {
    // Every packet malformed: the runtime must come back with an empty
    // merged report and a full quarantine ledger — the degenerate case
    // a panic would hide in.
    let syn = SynFloodDetector::default_deployment();
    let mut packets = kdd_trace(30, 9).packets;
    for (i, tp) in packets.iter_mut().enumerate() {
        match i % 3 {
            0 => tp.len = 0,
            1 => tp.tuple.proto = 200,
            _ => tp.len = 9000,
        }
    }

    let report = run(&syn, 2, &packets);
    assert_eq!(report.merged.packets, 0, "nothing survives the frontier");
    assert_eq!(report.overload.quarantine.total(), packets.len() as u64);
    assert_eq!(report.overload.refused(), packets.len() as u64);
}
