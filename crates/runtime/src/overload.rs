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
//!   default. Ingest waits for the slow shard; nothing is ever dropped;
//!   reports stay byte-identical to pre-overload runs.
//! - [`OverloadPolicy::Shed`] — admission control at the steer stage:
//!   a packet bound for a lane that stayed full past the configured
//!   patience is dropped before steering, accounted per shard and per
//!   flow bucket in [`OverloadReport`].
//! - [`OverloadPolicy::Degrade`] — the paper-faithful mode: over-budget
//!   packets bypass the ML engine and receive the cheap line-rate
//!   default verdict ([`taurus_pisa::Verdict::line_rate_default`]),
//!   counted as `degraded_verdicts`. They are never written into any
//!   worker's flow registers, so a later recovery or rollback stays
//!   bit-exact — degraded packets leave no model-visible residue.
//!
//! **Determinism.** Real lane occupancy is timing-dependent, so the
//! runtime recognizes two kinds of over-budget packet. *Injected*
//! saturation ([`crate::FaultPlan::saturate_shard`]) is a pure
//! predicate of (home shard, global stream index): it replays exactly
//! under any shard geometry or feed slicing, and a
//! single-threaded oracle can enumerate the shed set — that is what the
//! pinning tests key on. *Organic* saturation (a lane that really
//! stayed full past its patience, observed at a batch barrier) sheds a
//! whole staged batch at once; its accounting flows into the same
//! report but depends on real timing, so benchmarks assert conservation
//! (admitted + shed == offered), not exact membership.
//!
//! The quarantine counters of the hardened ingest frontier
//! ([`taurus_core::IngestValidator`]) also land here: a malformed
//! packet is refused before any stateful ingest under *every* policy,
//! Block included — validation is about input trust, not load.

use std::collections::HashMap;
use std::time::Duration;

use taurus_core::ingest::IngestError;
use taurus_pisa::SlotIndex;

use crate::fault::IngestFaults;

/// What the steer stage does when a shard's lane is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Wait for the slow shard (the historical behavior): ingest
    /// backpressures, nothing is dropped, reports are byte-identical to
    /// pre-overload runs. Injected saturation windows are ignored —
    /// there is no admission decision to force.
    #[default]
    Block,
    /// Admission control: an over-budget packet is dropped before
    /// steering and accounted in [`OverloadReport::shed_packets`].
    Shed {
        /// How long a batch send may wait on a full lane before the
        /// staged batch is shed. `Duration::ZERO` means a single
        /// immediate attempt.
        patience: Duration,
    },
    /// Line-rate bypass: an over-budget packet skips the ML engine and
    /// receives [`taurus_pisa::Verdict::line_rate_default`] instead,
    /// accounted in [`OverloadReport::degraded_verdicts`]. It is never
    /// written into any worker's flow registers.
    Degrade {
        /// How long a batch send may wait on a full lane before the
        /// staged batch is degraded. `Duration::ZERO` means a single
        /// immediate attempt.
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
            OverloadPolicy::Shed { patience } | OverloadPolicy::Degrade { patience } => {
                Some(*patience)
            }
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
/// A run that never shed, degraded, or quarantined anything equals
/// `OverloadReport::default()`, so such runs compare bit-identical to
/// reports from before this section existed (the same contract as
/// [`crate::FaultReport`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadReport {
    /// Packets dropped by [`OverloadPolicy::Shed`] admission control.
    pub shed_packets: u64,
    /// Packets handed the line-rate default verdict by
    /// [`OverloadPolicy::Degrade`] instead of an ML verdict.
    pub degraded_verdicts: u64,
    /// Ground-truth-anomalous packets among the degraded ones — what
    /// slipped past the ML path while the fleet rode out the overload.
    pub degraded_anomalous: u64,
    /// Shed + degraded packets per home shard (indexed by shard; empty
    /// when nothing was shed or degraded).
    pub per_shard: Vec<u64>,
    /// Shed + degraded packets per flow bucket
    /// (`flow_key % route_slots`), sorted by bucket, zero buckets
    /// omitted.
    pub flow_buckets: Vec<(u64, u64)>,
    /// Malformed packets refused at the ingest frontier, by reason.
    pub quarantine: QuarantineCounts,
}

impl OverloadReport {
    /// `true` when the admission layer did nothing: the report equals
    /// its default.
    pub fn is_empty(&self) -> bool {
        *self == OverloadReport::default()
    }

    /// Total packets refused an ML verdict: shed + degraded +
    /// quarantined. Offered packets always satisfy
    /// `processed + refused() == offered`.
    pub fn refused(&self) -> u64 {
        self.shed_packets + self.degraded_verdicts + self.quarantine.total()
    }
}

/// The ingest side's overload state: the policy, the armed saturation
/// windows, and the running accounting for the next drain's report.
///
/// This lives on the *ingest* thread, never in an engine worker — so a
/// shard that sheds and then panics recovers with its shed counters
/// intact (the supervisor replaces the worker; the accounting was never
/// inside it).
#[derive(Debug)]
pub(crate) struct OverloadState {
    policy: OverloadPolicy,
    faults: IngestFaults,
    /// `flow_key ↦ flow_key % route_slots`: routing's own slot.
    route_slots: SlotIndex,
    shed_packets: u64,
    degraded_verdicts: u64,
    degraded_anomalous: u64,
    per_shard: Vec<u64>,
    flow_buckets: HashMap<u64, u64>,
    quarantine: QuarantineCounts,
}

impl OverloadState {
    pub(crate) fn new(policy: OverloadPolicy, faults: IngestFaults, route_slots: usize) -> Self {
        Self {
            policy,
            faults,
            route_slots: SlotIndex::of(route_slots),
            shed_packets: 0,
            degraded_verdicts: 0,
            degraded_anomalous: 0,
            per_shard: Vec::new(),
            flow_buckets: HashMap::new(),
            quarantine: QuarantineCounts::default(),
        }
    }

    pub(crate) fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Whether this packet is over budget by injected saturation. Only
    /// non-blocking policies consult the windows: `Block` has no
    /// admission decision to force.
    pub(crate) fn saturated(&self, shard: usize, index: u64) -> bool {
        !self.policy.is_block() && self.faults.is_armed() && self.faults.saturated(shard, index)
    }

    /// Accounts one over-budget packet under the active policy (a shed
    /// drop or a degraded line-rate verdict).
    pub(crate) fn record_bypass(&mut self, shard: usize, flow_key: u64, anomalous: bool) {
        match self.policy {
            OverloadPolicy::Block => return, // unreachable by construction
            OverloadPolicy::Shed { .. } => self.shed_packets += 1,
            OverloadPolicy::Degrade { .. } => {
                self.degraded_verdicts += 1;
                if anomalous {
                    self.degraded_anomalous += 1;
                }
            }
        }
        if self.per_shard.len() <= shard {
            self.per_shard.resize(shard + 1, 0);
        }
        self.per_shard[shard] += 1;
        *self.flow_buckets.entry(self.route_slots.reduce(flow_key) as u64).or_insert(0) += 1;
    }

    /// Accounts one quarantined packet.
    pub(crate) fn record_quarantine(&mut self, err: IngestError) {
        self.quarantine.record(err);
    }

    /// Assembles (and resets) the accounting into a report section;
    /// `shards` fixes the `per_shard` length for geometry-stable output
    /// whenever anything was shed or degraded.
    pub(crate) fn take_report(&mut self, shards: usize) -> OverloadReport {
        let mut per_shard = std::mem::take(&mut self.per_shard);
        if !per_shard.is_empty() && per_shard.len() < shards {
            per_shard.resize(shards, 0);
        }
        let mut flow_buckets: Vec<(u64, u64)> =
            std::mem::take(&mut self.flow_buckets).into_iter().filter(|&(_, n)| n > 0).collect();
        flow_buckets.sort_unstable();
        OverloadReport {
            shed_packets: std::mem::take(&mut self.shed_packets),
            degraded_verdicts: std::mem::take(&mut self.degraded_verdicts),
            degraded_anomalous: std::mem::take(&mut self.degraded_anomalous),
            per_shard,
            flow_buckets,
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
        let shed = OverloadPolicy::Shed { patience: Duration::from_micros(50) };
        assert!(!shed.is_block());
        assert_eq!(shed.patience(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn empty_report_is_default_and_total_refusals_add_up() {
        assert!(OverloadReport::default().is_empty());
        let mut q = QuarantineCounts::default();
        q.record(IngestError::ZeroLength);
        q.record(IngestError::NonMonotonicTimestamp);
        q.record(IngestError::NonMonotonicTimestamp);
        assert_eq!(q.total(), 3);
        let r = OverloadReport {
            shed_packets: 2,
            degraded_verdicts: 5,
            quarantine: q,
            ..OverloadReport::default()
        };
        assert!(!r.is_empty());
        assert_eq!(r.refused(), 10);
    }

    #[test]
    fn block_policy_never_consults_saturation_windows() {
        let faults = FaultPlan::new().saturate_shard(0, 0, 100).for_ingest();
        let blocking = OverloadState::new(OverloadPolicy::Block, faults.clone(), 64);
        assert!(!blocking.saturated(0, 5), "Block ignores injected saturation");
        let shedding =
            OverloadState::new(OverloadPolicy::Shed { patience: Duration::ZERO }, faults, 64);
        assert!(shedding.saturated(0, 5));
        assert!(!shedding.saturated(1, 5));
    }

    #[test]
    fn accounting_is_per_policy_per_shard_and_per_bucket() {
        let faults = FaultPlan::new().for_ingest();
        let mut s =
            OverloadState::new(OverloadPolicy::Degrade { patience: Duration::ZERO }, faults, 8);
        s.record_bypass(2, 10, true); // bucket 2
        s.record_bypass(2, 11, false); // bucket 3
        s.record_bypass(0, 18, false); // bucket 2 again
        s.record_quarantine(IngestError::GarbagePort);
        let r = s.take_report(4);
        assert_eq!(r.degraded_verdicts, 3);
        assert_eq!(r.degraded_anomalous, 1);
        assert_eq!(r.shed_packets, 0);
        assert_eq!(r.per_shard, vec![1, 0, 2, 0], "padded to the geometry");
        assert_eq!(r.flow_buckets, vec![(2, 2), (3, 1)], "sorted, zeros omitted");
        assert_eq!(r.quarantine.garbage_port, 1);
        // take_report resets: the next drain starts clean.
        assert!(s.take_report(4).is_empty());
    }
}
