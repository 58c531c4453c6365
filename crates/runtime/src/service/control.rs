//! The control plane. An install is a barrier message: the verdict is
//! rendered feeder-side from the version mirror, the update is enqueued
//! in-band on every live lane, and nobody waits for a worker
//! ([`StreamingRuntime::install_update`]). The canary protocol is the
//! one synchronous part — it needs rollback points and probation
//! metrics *back* from the shards — built on one request/reply exchange
//! ([`StreamingRuntime::request`]).

use std::sync::Arc;

use taurus_core::{ModelUpdate, RollbackPoint};
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

    /// One control-plane exchange: sends `msg` in-band on `shard`'s
    /// lane and waits for the reply.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] when either lane is closed,
    /// [`ShardError::Unresponsive`] when the watchdog expires.
    fn request(&self, shard: usize, msg: ShardMsg) -> Result<WorkerReply, ShardError> {
        self.lanes[shard].tx.send(msg).map_err(|_| ShardError::Dead { shard })?;
        self.await_reply(shard)
    }

    /// [`StreamingRuntime::request`] for a canary promote/rollback,
    /// which a worker acknowledges with [`WorkerReply::Install`]. The
    /// canary shards already vetted the candidate, and a rollback point
    /// restores the replica it was captured from, so a replica refusing
    /// here means the fleet has diverged: it is reported, not dropped.
    fn request_ack(&self, shard: usize, msg: ShardMsg) -> Result<(), InstallError> {
        match self.request(shard, msg)? {
            WorkerReply::Install(result) => result.map_err(InstallError::Rejected),
            _ => Err(ShardError::Dead { shard }.into()),
        }
    }

    /// Shards still serving (not retired).
    fn live_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lanes.len()).filter(|&shard| !self.lanes[shard].lost)
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
    /// stays in the control group) at the current stream barrier, after
    /// capturing a bit-exact rollback point on each. Control shards
    /// take a synchronized segment boundary, so from this barrier on,
    /// every shard's *current* segment isolates probation traffic.
    /// Conclude with [`StreamingRuntime::conclude_canary`] before the
    /// next drain.
    ///
    /// # Errors
    ///
    /// [`InstallError::CanaryActive`] if a rollout is already in
    /// flight; [`InstallError::Rejected`] if the candidate is invalid
    /// (stale version, wrong backend, no formatter factory to capture a
    /// rollback point from) — the fleet is untouched in that case;
    /// [`InstallError::Shard`] on a dead or unresponsive shard.
    pub fn begin_canary(
        &mut self,
        update: &ModelUpdate,
        canary_shards: usize,
    ) -> Result<(), InstallError> {
        if self.canary.is_some() {
            return Err(InstallError::CanaryActive);
        }
        let shards = self.lanes.len();
        let first_canary = shards - canary_shards.clamp(1, shards);
        self.ingest.steer.flush_partials(&self.lanes)?;
        let shared = Arc::new(update.clone());
        let mut points: Vec<(usize, RollbackPoint)> = Vec::new();
        for shard in first_canary..shards {
            match self.request(shard, ShardMsg::CanaryInstall(Arc::clone(&shared)))? {
                WorkerReply::Canary(Ok(point)) => points.push((shard, *point)),
                WorkerReply::Canary(Err(e)) => {
                    // Replicas are identical, so the first canary shard
                    // vets the candidate for all of them: a rejection
                    // lands here before any other replica changed. (If
                    // a later shard disagreed anyway, restore the ones
                    // already switched.)
                    for (s, p) in points {
                        let _ = self.request_ack(s, ShardMsg::Rollback(Box::new(p)));
                    }
                    return Err(InstallError::Rejected(e));
                }
                _ => return Err(ShardError::Dead { shard }.into()),
            }
        }
        // Synchronized segment boundary on the control shards: segment
        // lists stay aligned across the fleet and each shard's current
        // segment now covers exactly the probation window.
        self.mark_segment(0..first_canary);
        self.canary = Some(CanaryRun { update: shared, first_canary, points });
        Ok(())
    }

    /// Opens a fresh metrics segment on `shards` without installing
    /// anything (fire-and-forget; a retired lane just refuses it).
    fn mark_segment(&self, shards: std::ops::Range<usize>) {
        for lane in &self.lanes[shards] {
            let _ = lane.tx.send(ShardMsg::MarkSegment);
        }
    }

    /// Whether a canary rollout is currently in flight.
    pub fn canary_active(&self) -> bool {
        self.canary.is_some()
    }

    /// Ends the probation window at the current stream barrier and
    /// decides the rollout: merges the probation-window confusion of
    /// the canary shards against the control group (see
    /// [`canary_decision`] — a pure function of the merged metrics, so
    /// the verdict is invariant to shard geometry for models the two
    /// groups score identically). **Promote** installs the candidate on
    /// the control shards; **Rollback** restores every canary shard
    /// from its captured point, bit-exactly. Either way the fleet is
    /// uniform again and the verdict lands in the next drain's
    /// [`crate::RuntimeReport::faults`].
    ///
    /// With a single shard there is no control group; the shard's own
    /// pre-canary segment is the baseline instead.
    ///
    /// # Errors
    ///
    /// [`InstallError::NoCanary`] without a rollout in flight;
    /// [`InstallError::Shard`] on a dead or unresponsive shard.
    pub fn conclude_canary(
        &mut self,
        guardrails: &CanaryGuardrails,
    ) -> Result<CanaryVerdictRecord, InstallError> {
        let run = self.canary.take().ok_or(InstallError::NoCanary)?;
        self.ingest.steer.flush_partials(&self.lanes)?;
        let mut canary_now = BinaryMetrics::default();
        let mut control_now = BinaryMetrics::default();
        let mut fleet_before = BinaryMetrics::default();
        for shard in self.live_shards() {
            let WorkerReply::Metrics { previous, current } =
                self.request(shard, ShardMsg::Metrics)?
            else {
                return Err(ShardError::Dead { shard }.into());
            };
            fleet_before.absorb(&previous);
            if shard >= run.first_canary {
                canary_now.absorb(&current);
            } else {
                control_now.absorb(&current);
            }
        }
        let control = if run.first_canary == 0 { fleet_before } else { control_now };
        let decision = canary_decision(&canary_now, &control, guardrails);
        let shards = self.lanes.len();
        match decision {
            CanaryDecision::Promote => {
                for shard in self.live_shards().take_while(|&s| s < run.first_canary) {
                    self.request_ack(shard, ShardMsg::Promote(Arc::clone(&run.update)))?;
                }
                self.mark_segment(run.first_canary..shards);
                self.deployed.note(&run.update, self.supervised);
            }
            CanaryDecision::Rollback => {
                for (shard, point) in &run.points {
                    if self.lanes[*shard].lost {
                        continue;
                    }
                    self.request_ack(*shard, ShardMsg::Rollback(Box::new(point.clone())))?;
                }
                self.mark_segment(0..run.first_canary);
                self.fault_acc.rollbacks_taken += 1;
            }
        }
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
