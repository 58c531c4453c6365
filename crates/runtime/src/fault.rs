//! The fleet-operations layer: typed control-plane errors,
//! deterministic fault injection, canary guardrails, and the `faults`
//! section of [`crate::runtime::RuntimeReport`].
//!
//! Taurus's operational story (§5.2.3) installs retrained models while
//! the data plane serves line-rate traffic. The rest of this crate
//! proves update *exactness* — an install lands at one global packet
//! index on every shard. This module adds update *safety*:
//!
//! - [`InstallError`] / [`ShardError`]: the control-plane paths that
//!   used to panic on a dead shard now return typed errors, so a
//!   degraded fleet keeps serving.
//! - [`FaultPlan`]: deterministic fault injection — engine panics and
//!   stalled shards at exact (shard, global stream index) points, and
//!   ingest-side saturation windows. The existing
//!   `catch_unwind`/poisoned-run machinery becomes directly drivable
//!   instead of merely stress-tested.
//! - [`CanaryGuardrails`] + [`canary_decision`]: the promote/rollback
//!   decision for a canaried install, a pure function of merged
//!   per-segment [`BinaryMetrics`] — no wall clocks, no shard
//!   geometry, so the verdict is deterministic and geometry-invariant.
//! - [`FaultReport`]: what actually happened — worker restarts,
//!   batches dropped while degraded, rollbacks taken, canary verdicts
//!   — merged into every drain's report with exact semantics.

use std::time::Duration;

use taurus_core::UpdateError;
use taurus_ml::BinaryMetrics;

/// What kind of fault a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRecordKind {
    /// An engine worker panicked mid-run (caught, surfaced at drain).
    WorkerPanic,
    /// A shard failed to reply to a control-plane request within the
    /// watchdog timeout.
    Unresponsive,
    /// An in-band update failed to install on a shard at drain time.
    InstallFailed,
    /// A shard could not be recovered (no spare replica left); its lane
    /// is closed and it serves no further traffic.
    ShardLost,
}

/// One diagnosed fault: which shard, what kind, and a human-readable
/// detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The shard the fault was observed on.
    pub shard: usize,
    /// The fault class.
    pub kind: FaultRecordKind,
    /// Diagnostic detail (panic message, timeout duration, ...).
    pub detail: String,
}

/// The verdict of a concluded canary probation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryDecision {
    /// Guardrails held: the update is promoted fleet-wide.
    Promote,
    /// A guardrail tripped: the canary shards roll back to their
    /// captured rollback points.
    Rollback,
}

/// One concluded canary: what was on trial, what the segments showed,
/// and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryVerdictRecord {
    /// The app the canaried update targeted.
    pub app: String,
    /// The canaried update's version.
    pub version: u64,
    /// The verdict.
    pub decision: CanaryDecision,
    /// Probation-window confusion merged across the canary shards (the
    /// shards running the new model).
    pub canary: BinaryMetrics,
    /// Probation-window confusion merged across the control shards
    /// (still on the incumbent model).
    pub control: BinaryMetrics,
}

/// The `faults` section of a [`crate::runtime::RuntimeReport`]: what
/// went wrong (and what recovered) since the last drain.
///
/// A fault-free run is `FaultReport::default()` — so reports from runs
/// that never faulted compare bit-identical to reports from before this
/// section existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Engine workers respawned from a spare replica after a panic or
    /// a watchdog timeout.
    pub worker_restarts: u64,
    /// Batches a poisoned worker drained-and-discarded while degraded
    /// (between its panic and its drain/respawn).
    pub batches_dropped: u64,
    /// Canaried installs rolled back by a tripped guardrail.
    pub rollbacks_taken: u64,
    /// Packets refused at ingest because their home shard was lost
    /// (see [`FaultRecordKind::ShardLost`]): they hold their stream
    /// index but reach no engine and leave no ingest-side state.
    pub lost_shard_packets: u64,
    /// Concluded canaries, in conclusion order.
    pub canary_verdicts: Vec<CanaryVerdictRecord>,
    /// Diagnosed faults, in observation order.
    pub records: Vec<FaultRecord>,
}

impl FaultReport {
    /// `true` when nothing faulted: the report equals its default.
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }
}

/// Guardrails a canaried update must hold during probation.
///
/// The decision compares the canary shards' probation segment against
/// the control shards' (see [`canary_decision`]): both metrics come
/// from the same probation window over disjoint shard subsets of the
/// same stream, so systematic model regressions show up as deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryGuardrails {
    /// Maximum tolerated F1 drop, in percentage points, of canary
    /// versus control before the canary rolls back.
    pub max_f1_drop: f64,
    /// Maximum tolerated absolute difference in positive rate
    /// (`(tp + fp) / total`) between canary and control — catches a
    /// model that suddenly drops everything (or nothing) even when F1
    /// is degenerate on the window.
    pub max_positive_rate_delta: f64,
    /// Minimum decided packets required on *both* sides; thinner
    /// evidence rolls back (fail safe, never fail open).
    pub min_samples: u64,
}

impl Default for CanaryGuardrails {
    fn default() -> Self {
        Self { max_f1_drop: 5.0, max_positive_rate_delta: 0.10, min_samples: 1 }
    }
}

fn positive_rate(m: &BinaryMetrics) -> f64 {
    let total = m.total();
    if total == 0 {
        return 0.0;
    }
    (m.tp + m.fp) as f64 / total as f64
}

/// The canary promote/rollback decision: a **pure function** of the
/// merged probation metrics and the guardrails. No clocks, no
/// geometry, no randomness — two fleets with different shard counts
/// that observed the same merged metrics reach the same verdict.
///
/// Rolls back when the probation window is too thin on either side
/// ([`CanaryGuardrails::min_samples`]), when the canary's F1 falls more
/// than [`CanaryGuardrails::max_f1_drop`] percentage points below the
/// control's, or when the positive rates diverge by more than
/// [`CanaryGuardrails::max_positive_rate_delta`]. Promotes otherwise.
pub fn canary_decision(
    canary: &BinaryMetrics,
    control: &BinaryMetrics,
    guardrails: &CanaryGuardrails,
) -> CanaryDecision {
    if canary.total() < guardrails.min_samples || control.total() < guardrails.min_samples {
        return CanaryDecision::Rollback;
    }
    if control.f1_percent() - canary.f1_percent() > guardrails.max_f1_drop {
        return CanaryDecision::Rollback;
    }
    if (positive_rate(canary) - positive_rate(control)).abs() > guardrails.max_positive_rate_delta {
        return CanaryDecision::Rollback;
    }
    CanaryDecision::Promote
}

/// A shard-level control-plane failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard's worker is gone: its lane is closed.
    Dead {
        /// The shard.
        shard: usize,
    },
    /// The shard did not reply within the watchdog timeout.
    Unresponsive {
        /// The shard.
        shard: usize,
        /// How long the control plane waited.
        waited: Duration,
    },
}

impl ShardError {
    /// The shard the failure was observed on.
    pub fn shard(&self) -> usize {
        match self {
            ShardError::Dead { shard } | ShardError::Unresponsive { shard, .. } => *shard,
        }
    }
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardError::Dead { shard } => {
                write!(f, "engine worker {shard} is dead (its lane is closed)")
            }
            ShardError::Unresponsive { shard, waited } => write!(
                f,
                "engine worker {shard} did not reply within {} ms (stalled or wedged)",
                waited.as_millis()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Why a fleet-level install / canary operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The update itself was rejected (unknown app, stale version,
    /// backend mismatch) — fleet state is untouched.
    Rejected(UpdateError),
    /// A shard failed mid-protocol; see the carried [`ShardError`] and
    /// the drain's [`FaultReport`] for what degraded.
    Shard(ShardError),
    /// A canary probation is already running; conclude it first.
    CanaryActive,
    /// No canary probation is running; nothing to conclude.
    NoCanary,
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            // Forward the UpdateError's text verbatim: callers match on
            // substrings like "stale update".
            InstallError::Rejected(e) => write!(f, "{e}"),
            InstallError::Shard(e) => write!(f, "{e}"),
            InstallError::CanaryActive => {
                write!(f, "a canary probation is already running; conclude it before installing")
            }
            InstallError::NoCanary => write!(f, "no canary probation is running"),
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstallError::Rejected(e) => Some(e),
            InstallError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UpdateError> for InstallError {
    fn from(e: UpdateError) -> Self {
        InstallError::Rejected(e)
    }
}

impl From<ShardError> for InstallError {
    fn from(e: ShardError) -> Self {
        InstallError::Shard(e)
    }
}

/// What a packet-indexed injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    /// Panic inside the engine worker's batch loop (exercises the
    /// `catch_unwind` containment + supervised respawn path).
    Panic,
    /// Sleep this long before processing the packet (exercises the
    /// control-plane watchdog).
    Stall(Duration),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PacketFault {
    /// Global stream index at (or after) which the fault fires. `>=`
    /// rather than `==` so an index that lands between batches — or on
    /// a packet routed to another shard — still fires on the target
    /// shard's next packet, keeping plans robust to routing.
    at_index: u64,
    action: FaultAction,
}

/// A window of injected saturation: every packet whose home shard is
/// `shard` and whose global stream index lies in `[from, from + len)`
/// is treated as over budget by [`crate::OverloadPolicy::Degrade`].
///
/// Unlike the worker-side packet faults, saturation is consulted on the
/// *ingest* side, before steering — a pure predicate of
/// (home shard, global index), so an overload episode replays exactly:
/// the same plan against the same stream degrades the same packets under
/// any shard geometry or feed slicing, and a single-threaded oracle can
/// enumerate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SaturationWindow {
    shard: usize,
    from: u64,
    len: u64,
}

/// A deterministic fault-injection plan, set on
/// [`crate::runtime::RuntimeBuilder::fault_plan`]. Faults key on
/// (shard, global stream index): the same plan against the same stream
/// fires at the same packets, every run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// (shard, packet fault) pairs.
    packet: Vec<(usize, PacketFault)>,
    /// Injected ingest-side saturation windows.
    saturate: Vec<SaturationWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects an engine panic on `shard` at the first of its packets
    /// with global stream index `>= at_index`.
    pub fn engine_panic(mut self, shard: usize, at_index: u64) -> Self {
        self.packet.push((shard, PacketFault { at_index, action: FaultAction::Panic }));
        self
    }

    /// Stalls `shard` for `pause` at the first of its packets with
    /// global stream index `>= at_index`.
    pub fn stall(mut self, shard: usize, at_index: u64, pause: Duration) -> Self {
        self.packet.push((shard, PacketFault { at_index, action: FaultAction::Stall(pause) }));
        self
    }

    /// Marks `shard` saturated for the `len` packets with global stream
    /// index in `[from, from + len)` that are home-routed to it. Under
    /// [`crate::OverloadPolicy::Degrade`] those packets are degraded to
    /// the line-rate default verdict deterministically — the
    /// replayable stand-in for a lane that filled past its
    /// patience. A `Block` fleet ignores saturation entirely (there is
    /// no admission decision to force).
    pub fn saturate_shard(mut self, shard: usize, from: u64, len: u64) -> Self {
        self.saturate.push(SaturationWindow { shard, from, len });
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.packet.is_empty() && self.saturate.is_empty()
    }

    /// Splits out the faults armed for one shard (the worker carries
    /// them into its loop).
    pub(crate) fn for_shard(&self, shard: usize) -> WorkerFaults {
        WorkerFaults {
            packet: self.packet.iter().filter(|(s, _)| *s == shard).map(|&(_, f)| f).collect(),
        }
    }

    /// Splits out the ingest-side faults (the saturation windows the
    /// steer stage consults before routing).
    pub(crate) fn for_ingest(&self) -> IngestFaults {
        IngestFaults { windows: self.saturate.clone() }
    }
}

/// One worker's armed faults, consumed inside its loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerFaults {
    packet: Vec<PacketFault>,
}

impl WorkerFaults {
    /// Empty (the respawn path: a recovered worker re-arms nothing).
    pub(crate) fn none() -> Self {
        Self::default()
    }

    /// Fires at most one armed packet fault whose index has arrived.
    /// Called per packet *inside* the worker's `catch_unwind`, so an
    /// injected panic takes exactly the organic containment path.
    pub(crate) fn check_packet(&mut self, index: u64) {
        let Some(pos) = self.packet.iter().position(|f| index >= f.at_index) else {
            return;
        };
        let fault = self.packet.swap_remove(pos);
        match fault.action {
            FaultAction::Panic => panic!("injected engine fault at stream index {index}"),
            FaultAction::Stall(pause) => std::thread::sleep(pause),
        }
    }

    /// Whether [`WorkerFaults::check_packet`] would fire at `index`.
    pub(crate) fn due(&self, index: u64) -> bool {
        self.packet.iter().any(|f| index >= f.at_index)
    }

    /// Cheap emptiness check so the hot batch loop can skip the scan.
    pub(crate) fn is_armed(&self) -> bool {
        !self.packet.is_empty()
    }
}

/// The ingest side's armed faults: saturation windows, consulted per
/// packet (home shard, global index) before steering.
#[derive(Debug, Clone, Default)]
pub(crate) struct IngestFaults {
    windows: Vec<SaturationWindow>,
}

impl IngestFaults {
    /// Cheap emptiness check so the hot ingest loop can skip the scan.
    pub(crate) fn is_armed(&self) -> bool {
        !self.windows.is_empty()
    }

    /// Whether a packet home-routed to `shard` at global stream index
    /// `index` falls in an injected saturation window. Pure: no state
    /// consumed, so every geometry and feed slicing sees the same
    /// answer.
    pub(crate) fn saturated(&self, shard: usize, index: u64) -> bool {
        self.windows.iter().any(|w| w.shard == shard && index >= w.from && index - w.from < w.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(tp: u64, fp: u64, tn: u64, fn_: u64) -> BinaryMetrics {
        BinaryMetrics { tp, fp, tn, fn_ }
    }

    #[test]
    fn canary_decision_promotes_matching_models() {
        let g = CanaryGuardrails::default();
        let m = metrics(40, 5, 50, 5);
        assert_eq!(canary_decision(&m, &m, &g), CanaryDecision::Promote);
    }

    #[test]
    fn canary_decision_rolls_back_an_f1_collapse() {
        let g = CanaryGuardrails::default();
        let control = metrics(40, 5, 50, 5);
        // The canary stopped catching positives: F1 collapses.
        let canary = metrics(2, 5, 50, 43);
        assert_eq!(canary_decision(&canary, &control, &g), CanaryDecision::Rollback);
    }

    #[test]
    fn canary_decision_rolls_back_a_positive_rate_blowup() {
        // F1 guardrail loosened to isolate the positive-rate one.
        let g = CanaryGuardrails { max_f1_drop: 100.0, ..CanaryGuardrails::default() };
        let control = metrics(10, 2, 85, 3);
        // The canary drops nearly everything.
        let canary = metrics(13, 80, 7, 0);
        assert_eq!(canary_decision(&canary, &control, &g), CanaryDecision::Rollback);
    }

    #[test]
    fn canary_decision_fails_safe_on_thin_evidence() {
        let g = CanaryGuardrails { min_samples: 10, ..CanaryGuardrails::default() };
        let thin = metrics(1, 0, 1, 0);
        let fat = metrics(40, 5, 50, 5);
        assert_eq!(canary_decision(&thin, &fat, &g), CanaryDecision::Rollback);
        assert_eq!(canary_decision(&fat, &thin, &g), CanaryDecision::Rollback);
        assert_eq!(canary_decision(&fat, &fat, &g), CanaryDecision::Promote);
    }

    #[test]
    fn worker_faults_fire_once_at_or_after_their_index() {
        let plan = FaultPlan::new().stall(2, 10, Duration::from_millis(1)).engine_panic(1, 5);
        assert!(!plan.is_empty());
        // Shard 2 only sees its own stall.
        let mut faults = plan.for_shard(2);
        assert!(faults.is_armed());
        faults.check_packet(9); // below the index: nothing
        assert!(faults.is_armed());
        faults.check_packet(11); // fires (>=), disarms
        assert!(!faults.is_armed());
        faults.check_packet(12); // fired already: nothing
                                 // Shard 0 has nothing armed.
        assert!(!plan.for_shard(0).is_armed());
    }

    #[test]
    #[should_panic(expected = "injected engine fault at stream index 7")]
    fn injected_panics_carry_their_index() {
        let mut faults = FaultPlan::new().engine_panic(0, 7).for_shard(0);
        faults.check_packet(7);
    }

    #[test]
    fn saturation_windows_are_pure_half_open_ranges() {
        let plan = FaultPlan::new().saturate_shard(1, 10, 5).saturate_shard(0, 100, 1);
        assert!(!plan.is_empty());
        let faults = plan.for_ingest();
        assert!(faults.is_armed());
        // Half-open [10, 15) on shard 1 only.
        assert!(!faults.saturated(1, 9));
        assert!(faults.saturated(1, 10));
        assert!(faults.saturated(1, 14));
        assert!(!faults.saturated(1, 15));
        assert!(!faults.saturated(0, 12), "other shards unaffected");
        assert!(faults.saturated(0, 100));
        // Pure: asking twice gives the same answer (nothing disarms).
        assert!(faults.saturated(1, 10));
        // Worker-side faults are untouched by saturation windows.
        assert!(!plan.for_shard(1).is_armed());
        assert!(!FaultPlan::new().for_ingest().is_armed());
    }

    #[test]
    fn install_error_display_forwards_update_error_text() {
        let e = InstallError::Rejected(UpdateError::StaleVersion {
            app: "syn-flood".into(),
            installed: 3,
            offered: 3,
        });
        assert!(e.to_string().contains("stale update"), "{e}");
        let s = InstallError::Shard(ShardError::Unresponsive {
            shard: 2,
            waited: Duration::from_millis(50),
        });
        assert!(s.to_string().contains("did not reply within 50 ms"), "{s}");
    }
}
