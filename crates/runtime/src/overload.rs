//! Overload control: what the fleet does *between* saturation and
//! recovery.
//!
//! Taurus's core contract is that the switch never drops below line
//! rate — packets the ML pipeline cannot serve still traverse the MATs
//! and get a safe default action (§4: the per-packet ML path is an
//! *augmentation* of a line-rate switch, not a gate in front of it).
//! The runtime's steer stage violated that under pressure: every lane
//! `send` spins-then-parks, so one saturated shard backpressured the
//! whole fleet into a stall. This module makes the response to
//! saturation a typed, deterministic policy:
//!
//! - [`OverloadPolicy::Block`] — the historical behavior and the
//!   default. Ingest waits for the slow shard; nothing is ever
//!   bypassed; reports stay byte-identical to pre-overload runs.
//! - [`OverloadPolicy::Degrade`] — the paper-faithful mode: over-budget
//!   packets bypass the ML engine and receive the cheap line-rate
//!   default verdict ([`taurus_pisa::Verdict::line_rate_default`]),
//!   counted as `degraded_verdicts`, per home shard, in
//!   [`OverloadReport`]. They are never written into any worker's flow
//!   registers, so a later recovery or rollback stays bit-exact —
//!   degraded packets leave no model-visible residue.
//!
//! **Determinism.** Real lane occupancy is timing-dependent, so the
//! runtime recognizes two kinds of over-budget packet. *Injected*
//! saturation ([`crate::FaultPlan::saturate_shard`]) is a pure
//! predicate of (home shard, global stream index): it replays exactly
//! under any shard geometry or feed slicing, and a
//! single-threaded oracle can enumerate the degraded set — that is
//! what the pinning tests key on. *Organic* saturation (a lane that
//! really stayed full past its patience, observed at a batch barrier)
//! degrades a whole staged batch at once; its accounting flows into
//! the same report but depends on real timing, so benchmarks assert
//! conservation (admitted + degraded == offered), not exact membership.
//!
//! The quarantine counters of the hardened ingest frontier
//! ([`taurus_core::IngestValidator`]) also land here: a malformed
//! packet is refused before any stateful ingest under *every* policy,
//! Block included — validation is about input trust, not load.

use std::time::Duration;

use taurus_core::ingest::IngestError;

use crate::fault::IngestFaults;

/// What the steer stage does when a shard's lane is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Wait for the slow shard (the historical behavior): ingest
    /// backpressures, nothing is bypassed, reports are byte-identical
    /// to pre-overload runs. Injected saturation windows are ignored —
    /// there is no admission decision to force.
    #[default]
    Block,
    /// Line-rate bypass: an over-budget packet skips the ML engine and
    /// receives [`taurus_pisa::Verdict::line_rate_default`] instead,
    /// accounted in [`OverloadReport::degraded_verdicts`]. It is never
    /// written into any worker's flow registers.
    Degrade {
        /// How long a batch send may wait on a full lane before the
        /// staged batch is degraded. `Duration::ZERO` means a single
        /// immediate attempt; a patience past the clock's range waits
        /// without a deadline.
        patience: Duration,
    },
}

impl OverloadPolicy {
    /// `true` for the historical blocking behavior.
    pub fn is_block(&self) -> bool {
        matches!(self, OverloadPolicy::Block)
    }

    /// The configured lane patience (`None` under [`OverloadPolicy::Block`],
    /// which waits forever).
    pub fn patience(&self) -> Option<Duration> {
        match self {
            OverloadPolicy::Block => None,
            OverloadPolicy::Degrade { patience } => Some(*patience),
        }
    }
}

/// Per-reason quarantine counters for the hardened ingest frontier —
/// one field per [`IngestError`] variant, fixed order, so rendered
/// reports are stable across runs and geometries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineCounts {
    /// Zero-length flow records.
    pub zero_length: u64,
    /// Truncated wire lengths (shorter than the Ethernet minimum).
    pub truncated: u64,
    /// Oversized wire lengths (longer than the MTU).
    pub oversized: u64,
    /// TCP/UDP packets carrying a zero port.
    pub garbage_port: u64,
    /// Protocol numbers outside the trace vocabulary.
    pub unknown_protocol: u64,
    /// Timestamps that ran backwards within a feed.
    pub non_monotonic_ts: u64,
}

impl QuarantineCounts {
    fn record(&mut self, err: IngestError) {
        match err {
            IngestError::ZeroLength => self.zero_length += 1,
            IngestError::Truncated { .. } => self.truncated += 1,
            IngestError::Oversized { .. } => self.oversized += 1,
            IngestError::GarbagePort => self.garbage_port += 1,
            IngestError::UnknownProtocol { .. } => self.unknown_protocol += 1,
            IngestError::NonMonotonicTimestamp => self.non_monotonic_ts += 1,
        }
    }

    /// Total quarantined packets across all reasons.
    pub fn total(&self) -> u64 {
        self.zero_length
            + self.truncated
            + self.oversized
            + self.garbage_port
            + self.unknown_protocol
            + self.non_monotonic_ts
    }
}

/// The `overload` section of a [`crate::runtime::RuntimeReport`]: what
/// the admission layer did since the last drain.
///
/// A run that never degraded or quarantined anything equals
/// `OverloadReport::default()`, so such runs compare bit-identical to
/// reports from before this section existed (the same contract as
/// [`crate::FaultReport`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadReport {
    /// Packets handed the line-rate default verdict by
    /// [`OverloadPolicy::Degrade`] instead of an ML verdict.
    pub degraded_verdicts: u64,
    /// Ground-truth-anomalous packets among the degraded ones — what
    /// slipped past the ML path while the fleet rode out the overload.
    pub degraded_anomalous: u64,
    /// Degraded packets per home shard: one entry per shard, or empty
    /// when nothing was degraded.
    pub per_shard: Vec<u64>,
    /// Malformed packets refused at the ingest frontier, by reason.
    pub quarantine: QuarantineCounts,
}

impl OverloadReport {
    /// `true` when the admission layer did nothing: the report equals
    /// its default.
    pub fn is_empty(&self) -> bool {
        *self == OverloadReport::default()
    }

    /// Total packets refused an ML verdict: degraded + quarantined.
    /// Offered packets always satisfy `processed + refused() == offered`.
    pub fn refused(&self) -> u64 {
        self.degraded_verdicts + self.quarantine.total()
    }
}

/// The ingest side's overload state: the policy, the armed saturation
/// windows, and the running accounting for the next drain's report.
///
/// This lives on the *ingest* thread, never in an engine worker — so a
/// shard that degrades and then panics recovers with its counters
/// intact (the supervisor replaces the worker; the accounting was never
/// inside it). Every counter is sized at construction and zeroed in
/// place at each drain, so a degraded feed allocates nothing.
#[derive(Debug)]
pub(crate) struct OverloadState {
    policy: OverloadPolicy,
    faults: IngestFaults,
    degraded_verdicts: u64,
    degraded_anomalous: u64,
    per_shard: Vec<u64>,
    quarantine: QuarantineCounts,
}

impl OverloadState {
    pub(crate) fn new(policy: OverloadPolicy, faults: IngestFaults, shards: usize) -> Self {
        Self {
            policy,
            faults,
            degraded_verdicts: 0,
            degraded_anomalous: 0,
            per_shard: vec![0; shards],
            quarantine: QuarantineCounts::default(),
        }
    }

    pub(crate) fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Whether this packet is over budget by injected saturation. Only
    /// `Degrade` consults the windows: `Block` has no admission
    /// decision to force.
    pub(crate) fn saturated(&self, shard: usize, index: u64) -> bool {
        !self.policy.is_block() && self.faults.is_armed() && self.faults.saturated(shard, index)
    }

    /// Accounts one packet degraded to the line-rate default verdict.
    // Cold on purpose: it runs only under saturation, and inlined into
    // the per-packet ingest loop (`Ingest::merge_packet`) and
    // `Steer::flush` it cost the benchmark's `ad-dnn/stream_pps` about
    // 7 %.
    #[cold]
    pub(crate) fn record_bypass(&mut self, shard: usize, anomalous: bool) {
        self.degraded_verdicts += 1;
        self.degraded_anomalous += u64::from(anomalous);
        self.per_shard[shard] += 1;
    }

    /// Accounts one quarantined packet.
    pub(crate) fn record_quarantine(&mut self, err: IngestError) {
        self.quarantine.record(err);
    }

    /// Assembles the accounting into a report section and zeroes it in
    /// place for the next drain; `per_shard` is copied out only when
    /// something was degraded.
    pub(crate) fn take_report(&mut self) -> OverloadReport {
        let per_shard =
            if self.degraded_verdicts > 0 { self.per_shard.clone() } else { Vec::new() };
        self.per_shard.fill(0);
        OverloadReport {
            degraded_verdicts: std::mem::take(&mut self.degraded_verdicts),
            degraded_anomalous: std::mem::take(&mut self.degraded_anomalous),
            per_shard,
            quarantine: std::mem::take(&mut self.quarantine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn policy_defaults_to_block_with_infinite_patience() {
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::Block);
        assert!(OverloadPolicy::Block.is_block());
        assert_eq!(OverloadPolicy::Block.patience(), None);
        let degrade = OverloadPolicy::Degrade { patience: Duration::from_micros(50) };
        assert!(!degrade.is_block());
        assert_eq!(degrade.patience(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn empty_report_is_default_and_total_refusals_add_up() {
        assert!(OverloadReport::default().is_empty());
        let mut q = QuarantineCounts::default();
        q.record(IngestError::ZeroLength);
        q.record(IngestError::NonMonotonicTimestamp);
        q.record(IngestError::NonMonotonicTimestamp);
        assert_eq!(q.total(), 3);
        let r = OverloadReport { degraded_verdicts: 5, quarantine: q, ..OverloadReport::default() };
        assert!(!r.is_empty());
        assert_eq!(r.refused(), 8);
    }

    #[test]
    fn block_policy_never_consults_saturation_windows() {
        let faults = FaultPlan::new().saturate_shard(0, 0, 100).for_ingest();
        let blocking = OverloadState::new(OverloadPolicy::Block, faults.clone(), 64);
        assert!(!blocking.saturated(0, 5), "Block ignores injected saturation");
        let degrading =
            OverloadState::new(OverloadPolicy::Degrade { patience: Duration::ZERO }, faults, 64);
        assert!(degrading.saturated(0, 5));
        assert!(!degrading.saturated(1, 5));
    }

    #[test]
    fn accounting_is_per_shard_and_zeroed_in_place() {
        let faults = FaultPlan::new().for_ingest();
        let mut s =
            OverloadState::new(OverloadPolicy::Degrade { patience: Duration::ZERO }, faults, 4);
        s.record_bypass(2, true);
        s.record_bypass(2, false);
        s.record_bypass(0, false);
        s.record_quarantine(IngestError::GarbagePort);
        let r = s.take_report();
        assert_eq!(r.degraded_verdicts, 3);
        assert_eq!(r.degraded_anomalous, 1);
        assert_eq!(r.per_shard, vec![1, 0, 2, 0], "one entry per shard");
        assert_eq!(r.quarantine.garbage_port, 1);
        // take_report resets: the next drain starts clean, and a drain
        // that degraded nothing reports no per-shard entries at all.
        assert!(s.take_report().is_empty());
        s.record_quarantine(IngestError::ZeroLength);
        assert!(s.take_report().per_shard.is_empty());
        s.record_bypass(3, false);
        assert_eq!(s.take_report().per_shard, vec![0, 0, 0, 1], "earlier drains' counts are gone");
    }
}
