//! The control plane. Every control action is an in-band message at a
//! stream index that no worker acknowledges, its verdict rendered
//! feeder-side from the version mirror: installs and the canary alike
//! (each canary worker keeps its own rollback point). The canary's
//! probation metrics are the one reply the control plane reads.

use std::ops::Range;
use std::sync::Arc;

use taurus_core::ModelUpdate;
use taurus_ml::BinaryMetrics;

use super::worker::WorkerReply;
use super::{CanaryRun, StreamingRuntime};
use crate::fault::{
    canary_decision, CanaryDecision, CanaryGuardrails, CanaryVerdictRecord, InstallError,
    ShardError,
};
use crate::pipeline::steer::ShardMsg;
use crate::spsc::RecvTimeoutError;

impl StreamingRuntime {
    /// Waits for `shard`'s next reply, bounded by the control timeout.
    ///
    /// # Errors
    ///
    /// [`ShardError::Unresponsive`] when the watchdog expires,
    /// [`ShardError::Dead`] when the reply lane closed.
    pub(super) fn await_reply(&self, shard: usize) -> Result<WorkerReply, ShardError> {
        self.lanes[shard].replies.recv_timeout(self.control_timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                ShardError::Unresponsive { shard, waited: self.control_timeout }
            }
            RecvTimeoutError::Disconnected => ShardError::Dead { shard },
        })
    }

    /// Sends `msg()` in-band on every live lane in `shards`. A closed
    /// lane never keeps the others from getting theirs.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] naming the first closed lane.
    fn broadcast(
        &self,
        shards: Range<usize>,
        msg: impl Fn() -> ShardMsg,
    ) -> Result<(), ShardError> {
        let mut first_dead = Ok(());
        for shard in shards.filter(|&shard| !self.lanes[shard].lost) {
            if self.lanes[shard].tx.send(msg()).is_err() {
                first_dead = first_dead.and(Err(ShardError::Dead { shard }));
            }
        }
        first_dead
    }

    /// Installs a model update on every live shard *now* — at the
    /// current stream barrier: after everything already fed, before
    /// anything fed next — and returns as soon as it is queued: the
    /// degenerate case of [`StreamingRuntime::schedule_update`], at
    /// [`StreamingRuntime::stream_position`]. The accept/reject verdict
    /// is rendered here, from the service's mirror of what the
    /// (identical) replicas run, by the same
    /// [`taurus_core::check_install`] they apply; the `Arc`-shared
    /// update then rides every live lane in-band and each worker
    /// applies it at that FIFO position. No worker is waited for, so
    /// the call costs at most one batch of lane backpressure. Unlike a
    /// scheduled update it opens no metrics segment. Retired shards are
    /// skipped.
    ///
    /// A replica that refuses an update this call accepted (the mirror
    /// drifted — a bug) poisons its run and surfaces at the next
    /// [`StreamingRuntime::drain`], like any in-band failure; a stalled
    /// worker is the drain watchdog's to find.
    ///
    /// # Errors
    ///
    /// [`InstallError::Rejected`] is the verdict (see
    /// [`taurus_core::TaurusSwitch::install_update`]) — nothing was
    /// sent; [`InstallError::Shard`] means a live shard's lane is
    /// closed — its worker is dead, shards before it did get the
    /// update, and the next drain diagnoses it and re-syncs the mirror;
    /// [`InstallError::CanaryActive`] means a canary rollout must be
    /// concluded first.
    pub fn install_update(&mut self, update: &ModelUpdate) -> Result<(), InstallError> {
        if self.canary.is_some() {
            return Err(InstallError::CanaryActive);
        }
        self.deployed.check(update)?;
        let shared = Arc::new(update.clone());
        self.ingest.steer.flush_and_update(&self.lanes, &shared, false)?;
        self.deployed.note(&shared, self.supervised);
        Ok(())
    }

    /// Starts a canary rollout: installs `update` on the **last**
    /// `canary_shards` shards (clamped to `1..=shards`; shard 0 always
    /// stays in the control group) at the current stream barrier, and
    /// returns once it is queued — verdict and delivery as
    /// [`StreamingRuntime::install_update`], except that each canary
    /// worker first captures a bit-exact rollback point of its own.
    /// Every shard takes a synchronized segment boundary, so from this
    /// barrier on, every shard's *current* segment isolates probation
    /// traffic. Conclude with [`StreamingRuntime::conclude_canary`]
    /// before the next drain.
    ///
    /// # Errors
    ///
    /// [`InstallError::CanaryActive`] if a rollout is already in
    /// flight; [`InstallError::Rejected`] if the candidate is invalid
    /// (unknown app, stale version, wrong backend — in that order) —
    /// nothing was sent; [`InstallError::Shard`] when a live shard's
    /// lane is closed — the rollout is in flight anyway, for
    /// [`StreamingRuntime::conclude_canary`] to settle.
    pub fn begin_canary(
        &mut self,
        update: &ModelUpdate,
        canary_shards: usize,
    ) -> Result<(), InstallError> {
        if self.canary.is_some() {
            return Err(InstallError::CanaryActive);
        }
        self.deployed.check(update)?;
        let shards = self.lanes.len();
        let first_canary = shards - canary_shards.clamp(1, shards);
        self.ingest.steer.flush_partials(&self.lanes)?;
        let update = Arc::new(update.clone());
        self.canary = Some(CanaryRun { update: Arc::clone(&update), first_canary });
        let sent = self.broadcast(first_canary..shards, || ShardMsg::Canary(Arc::clone(&update)));
        let _ = self.broadcast(0..shards, || ShardMsg::MarkSegment);
        Ok(sent?)
    }

    /// Whether a canary rollout is currently in flight.
    pub fn canary_active(&self) -> bool {
        self.canary.is_some()
    }

    /// The probation read, at one barrier: asks every live shard for
    /// its last two segments' confusion, then collects every reply, and
    /// returns (canary current, control current, fleet previous).
    ///
    /// # Errors
    ///
    /// The first [`ShardError`] met, once every reply has been awaited.
    fn probation_metrics(&self, first_canary: usize) -> Result<[BinaryMetrics; 3], ShardError> {
        let shards = 0..self.lanes.len();
        let mut result = self.broadcast(shards.clone(), || ShardMsg::Metrics);
        let [mut canary, mut control, mut before] = [BinaryMetrics::default(); 3];
        for shard in shards.filter(|&shard| !self.lanes[shard].lost) {
            match self.await_reply(shard) {
                Ok(WorkerReply::Metrics { previous, current }) => {
                    before.absorb(&previous);
                    if shard >= first_canary { &mut canary } else { &mut control }.absorb(&current);
                }
                Ok(_) => result = result.and(Err(ShardError::Dead { shard })),
                Err(e) => result = result.and(Err(e)),
            }
        }
        result.map(|()| [canary, control, before])
    }

    /// Ends the probation window at the current stream barrier and
    /// decides the rollout: merges the probation-window confusion of
    /// the canary shards against the control group (see
    /// [`canary_decision`] — a pure function of the merged metrics, so
    /// the verdict is invariant to shard geometry for models the two
    /// groups score identically). **Promote** installs the candidate on
    /// the control shards; **Rollback** has every canary shard restore
    /// its own captured point, bit-exactly. Both go in-band, with no
    /// ack. Either way the fleet is uniform again and the verdict lands
    /// in the next drain's [`crate::RuntimeReport::faults`].
    ///
    /// With a single shard there is no control group; the shard's own
    /// pre-canary segment is the baseline instead.
    ///
    /// # Errors
    ///
    /// [`InstallError::NoCanary`] without a rollout in flight;
    /// [`InstallError::Shard`] on a dead or unresponsive shard. The
    /// rollout then stays in flight: recover with
    /// [`StreamingRuntime::drain`], which replaces the shard, and
    /// conclude again.
    pub fn conclude_canary(
        &mut self,
        guardrails: &CanaryGuardrails,
    ) -> Result<CanaryVerdictRecord, InstallError> {
        let first_canary = self.canary.as_ref().ok_or(InstallError::NoCanary)?.first_canary;
        self.ingest.steer.flush_partials(&self.lanes)?;
        let [canary_now, control_now, fleet_before] = self.probation_metrics(first_canary)?;
        let run = self.canary.take().expect("checked above");
        let control = if first_canary == 0 { fleet_before } else { control_now };
        let decision = canary_decision(&canary_now, &control, guardrails);
        let rollback = decision == CanaryDecision::Rollback;
        // A closed lane here is the next drain's to diagnose; the spare
        // it respawns replays the history the mirror now holds.
        if rollback {
            let _ = self.broadcast(0..first_canary, || ShardMsg::MarkSegment);
            self.fault_acc.rollbacks_taken += 1;
        } else {
            let update =
                || ShardMsg::Update { update: Arc::clone(&run.update), open_segment: true };
            let _ = self.broadcast(0..first_canary, update);
            self.deployed.note(&run.update, self.supervised);
        }
        let _ = self.broadcast(first_canary..self.lanes.len(), || ShardMsg::Conclude { rollback });
        let record = CanaryVerdictRecord {
            app: run.update.app.clone(),
            version: run.update.version,
            decision,
            canary: canary_now,
            control,
        };
        self.fault_acc.canary_verdicts.push(record.clone());
        Ok(record)
    }
}
