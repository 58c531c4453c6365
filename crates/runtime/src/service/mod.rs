//! The long-lived streaming service: resident engine workers behind a
//! push-style ingest API. The paper's device serves traffic
//! *indefinitely*, and so does this — the one runtime type of the
//! crate:
//!
//! - **Resident engine workers** (`worker.rs`). One OS thread per shard
//!   is spawned at construction, *owns* its [`TaurusSwitch`] replica,
//!   and stays alive across feeds — no per-run thread spawn/join (or
//!   its allocations) in the steady state.
//! - **Push-style ingest** (`feed.rs`). [`StreamingRuntime::feed`]
//!   pushes a slice of the stream through the one ingest loop, on the
//!   calling thread, with bounded-SPSC backpressure. Partial batches
//!   are flushed at every feed boundary, so the engines observe each
//!   feed completely.
//! - **Asynchronous updates.** One install path: an `Arc`-shared update
//!   enqueued in-band on every lane, applied by each worker at exactly
//!   that FIFO position, acknowledged by nobody.
//!   [`StreamingRuntime::schedule_update`] places the barrier at a
//!   *global stream index* (monotone across feeds);
//!   [`StreamingRuntime::install_update`] places it at the current
//!   position, after rendering the accept/reject verdict feeder-side
//!   from the `Deployed` mirror — it returns once the update is
//!   queued, and the pipeline never empties for it (`control.rs`, which
//!   also hosts the canary protocol: in-band too, with the probation
//!   metrics its one reply).
//! - **Deterministic drain** (`drain.rs`). [`StreamingRuntime::drain`]
//!   installs any still-pending updates, flushes every staged partial
//!   batch, and barriers on every worker for a snapshot: the merged
//!   [`RuntimeReport`] is bit-identical to the sequential switch over
//!   the concatenation of all feeds since the last drain, however the
//!   stream was sliced into feeds (batch counts aside — feed boundaries
//!   flush partial batches early). [`StreamingRuntime::shutdown`] is
//!   drain + worker join.
//!
//! A worker panic is contained (see `worker.rs`) and surfaces at the
//! next drain, which re-raises it on the caller's thread — or, with
//! spare replicas configured, turns it into fault accounting and a
//! respawn. [`StreamingRuntime::reset`] clears the poisoned state and
//! the service keeps serving.
//!
//! [`RuntimeReport`]: crate::runtime::RuntimeReport

mod control;
mod drain;
pub(crate) mod feed;
pub(crate) mod worker;

use std::sync::Arc;
use std::time::Duration;

use taurus_core::{
    check_install, EngineKind, EngineUpdate, ModelUpdate, TaurusSwitch, UpdateError,
};

use crate::fault::{FaultPlan, FaultReport};
use crate::overload::OverloadPolicy;
use crate::pipeline::steer::ShardMsg;
use feed::Ingest;
use worker::{spawn_worker, Lane};

/// A persistent streaming host for [`TaurusSwitch`] replicas: resident
/// engine workers, push-style feeds, asynchronous model updates, and a
/// deterministic drain/shutdown. Built by
/// [`crate::runtime::RuntimeBuilder::build`].
///
/// Flow state is long-lived: like a [`TaurusSwitch`], successive feeds
/// accumulate registers, flow-start bookkeeping, and counters; call
/// [`StreamingRuntime::reset`] between independent experiments.
///
/// ```
/// use taurus_core::apps::SynFloodDetector;
/// use taurus_core::EngineBackend;
/// use taurus_dataset::kdd::KddGenerator;
/// use taurus_dataset::trace::{PacketTrace, TraceConfig};
/// use taurus_runtime::RuntimeBuilder;
///
/// let syn = SynFloodDetector::default_deployment();
/// let mut service = RuntimeBuilder::new()
///     .shards(2)
///     .register_on(&syn, EngineBackend::Threshold)
///     .build();
///
/// let records = KddGenerator::new(7).take(60);
/// let trace = PacketTrace::expand(records, &TraceConfig::default());
/// service.feed(&trace.packets);
/// service.feed(&trace.packets); // workers stay resident between feeds
/// let report = service.shutdown();
/// assert_eq!(report.merged.packets, 2 * trace.packets.len() as u64);
/// ```
pub struct StreamingRuntime {
    /// Per-shard lane ends; the supervisor swaps an entry when it
    /// respawns or retires that shard's worker.
    lanes: Vec<Lane>,
    /// Every worker thread ever spawned (serving or replaced), joined
    /// at teardown.
    handles: Vec<std::thread::JoinHandle<()>>,
    queue_depth: usize,
    /// Everything order-bound on the ingest side (see `feed.rs`).
    ingest: Ingest,
    /// What the fleet runs.
    deployed: Deployed,
    /// Spare replicas for supervised recovery: cold switches built from
    /// the same roster, consumed (newest first) when a faulted worker
    /// is respawned. Empty ⇒ legacy panic-at-drain semantics.
    spares: Vec<TaurusSwitch>,
    /// Whether supervision was requested at build time (spares > 0).
    /// Stays true after the spares run out so fault accounting (rather
    /// than a re-raised panic) remains the drain's contract.
    supervised: bool,
    /// How long a control-plane reply (drain snapshot, canary probation
    /// metrics) may take before the shard is declared unresponsive.
    control_timeout: Duration,
    /// Fault accounting accumulated since the last drain.
    fault_acc: FaultReport,
    /// The in-flight canary rollout, if any.
    canary: Option<CanaryRun>,
}

/// The fleet's installed models, as the service tracks them.
struct Deployed {
    /// Mirror of the fleet's installed versions (all replicas agree by
    /// construction), refreshed from a healthy snapshot at every drain.
    versions: Vec<(String, u64)>,
    /// Each app's engine kind and whether its active formatter has a
    /// factory, parallel to `versions`: with them, everything a
    /// replica's install or canary verdict depends on.
    hosting: Vec<(EngineKind, bool)>,
    /// What a cold spare must replay to reach the fleet's current
    /// models: the accepted updates folded to one effective update per
    /// app. Installs are per-app and every field is last-writer-wins,
    /// so the fold lands a replica where the full install sequence
    /// would. Stays empty on an unsupervised fleet, which never
    /// respawns.
    history: Vec<ModelUpdate>,
}

impl Deployed {
    /// The verdict every replica will render for `update`, over the
    /// mirror: the same [`check_install`] a [`TaurusSwitch`] runs, after
    /// (for a `canary`) the factory check a replica's capture runs
    /// first.
    fn check(&self, update: &ModelUpdate, canary: bool) -> Result<(), UpdateError> {
        let hosted = self
            .versions
            .iter()
            .zip(&self.hosting)
            .find(|((name, _), _)| *name == update.app)
            .map(|((_, version), &(kind, restorable))| (*version, kind, restorable));
        if canary && matches!(hosted, Some((_, _, false))) {
            return Err(UpdateError::UnrestorableFormatter { app: update.app.clone() });
        }
        check_install(update, hosted.map(|(version, kind, _)| (version, kind)))
    }

    /// Records a scheduled update that reached its barrier. One the
    /// replicas will refuse leaves the mirror alone: it poisons their
    /// runs and surfaces at the next drain.
    fn note_scheduled(&mut self, update: &ModelUpdate, keep_history: bool) {
        if self.check(update, false).is_ok() {
            self.note(update, keep_history);
        }
    }

    /// Records an update the fleet accepted; `keep_history` is the
    /// service's `supervised` flag.
    fn note(&mut self, update: &ModelUpdate, keep_history: bool) {
        if let Some(i) = self.versions.iter().position(|(name, _)| *name == update.app) {
            self.versions[i].1 = update.version;
            self.hosting[i].1 |= update.formatter.is_some();
        }
        if !keep_history {
            return;
        }
        let Some(folded) = self.history.iter_mut().find(|h| h.app == update.app) else {
            self.history.push(update.clone());
            return;
        };
        folded.version = update.version;
        if !matches!(update.engine, EngineUpdate::KeepEngine) {
            folded.engine = update.engine.clone();
        }
        // The optional parts: the newest `Some` wins.
        folded.formatter = update.formatter.clone().or(folded.formatter.take());
        folded.post_tables = update.post_tables.clone().or(folded.post_tables.take());
        folded.weights = update.weights.clone().or(folded.weights.take());
    }
}

/// An in-flight canary rollout: the candidate update and the shard
/// split. The rollback points stay with the canary workers.
struct CanaryRun {
    update: Arc<ModelUpdate>,
    /// Shards `first_canary..shards` run the candidate; `0..first_canary`
    /// stay on the incumbent as the control group.
    first_canary: usize,
}

impl StreamingRuntime {
    /// Spawns the resident workers, each owning one replica. Called by
    /// the builder after validation.
    pub(crate) fn new(
        switches: Vec<TaurusSwitch>,
        spares: Vec<TaurusSwitch>,
        queue_depth: usize,
        control_timeout: Duration,
        faults: &FaultPlan,
        ingest: Ingest,
    ) -> Self {
        let versions = switches.first().map(TaurusSwitch::app_versions).unwrap_or_default();
        let hosting = switches.first().map(TaurusSwitch::install_facts).unwrap_or_default();
        let (lanes, handles) = switches
            .into_iter()
            .enumerate()
            .map(|(shard, switch)| spawn_worker(switch, queue_depth, faults.for_shard(shard)))
            .unzip();
        Self {
            lanes,
            handles,
            queue_depth,
            ingest,
            deployed: Deployed { versions, hosting, history: Vec::new() },
            supervised: !spares.is_empty(),
            spares,
            control_timeout,
            fault_acc: FaultReport::default(),
            canary: None,
        }
    }

    /// Number of shards (resident switch replicas / worker threads).
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Packets per ingest batch.
    pub fn batch_size(&self) -> usize {
        self.ingest.steer.batch_size()
    }

    /// Global stream position: packets offered across all feeds since
    /// construction — the stream index the next fed packet will get
    /// (monotone — [`StreamingRuntime::reset`] clears flow state, not
    /// the stream clock).
    pub fn stream_position(&self) -> u64 {
        self.ingest.position
    }

    /// The configured [`OverloadPolicy`]: what the steer stage does
    /// when a shard's lane is saturated.
    pub fn overload_policy(&self) -> OverloadPolicy {
        self.ingest.steer.overload.policy()
    }

    /// Installed model versions per app (registration order). All
    /// shards agree by construction; this reads the service's mirror,
    /// which every install advances and every drain re-syncs from a
    /// healthy shard.
    pub fn app_versions(&self) -> Vec<(String, u64)> {
        self.deployed.versions.clone()
    }

    /// Clears every replica's flow state and counters (including any
    /// caught panic) plus the shared ingest state. Installed models and
    /// their versions survive, as do scheduled updates and the stream
    /// position — reset separates experiment phases, it does not roll
    /// back deployments or rewind the stream clock. The reset message
    /// travels in-band, so it takes effect after everything already fed
    /// (and installed) and before anything fed next.
    pub fn reset(&mut self) {
        for lane in &self.lanes {
            let _ = lane.tx.send(ShardMsg::Reset);
        }
        self.ingest.reset();
    }

    /// Closes every lane (ending the worker loops) and joins every
    /// worker thread ever spawned.
    fn join_workers(&mut self) {
        self.lanes.clear();
        for worker in self.handles.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for StreamingRuntime {
    /// Tears down without a report (no-op after
    /// [`StreamingRuntime::shutdown`]). A caught worker panic dies with
    /// the service — dropping instead of draining is the "I don't care
    /// about the outcome" path.
    fn drop(&mut self) {
        self.join_workers();
    }
}

impl core::fmt::Debug for StreamingRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamingRuntime")
            .field("shards", &self.shard_count())
            .field("batch_size", &self.batch_size())
            .field("stream_position", &self.stream_position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use taurus_core::apps::SynFloodDetector;
    use taurus_core::{EngineBackend, EngineUpdate, ModelUpdate, TaurusApp};

    use crate::RuntimeBuilder;

    #[test]
    fn update_history_is_folded_per_app_and_kept_only_under_supervision() {
        // A resident service installs models indefinitely; what it
        // retains for rehydrating spares must not grow with the install
        // count — and an unsupervised fleet, which never respawns,
        // retains nothing.
        let syn = SynFloodDetector::default_deployment();
        let tables = syn.post_tables(EngineBackend::Threshold);
        for spares in [0usize, 1] {
            let mut rt = RuntimeBuilder::new()
                .shards(2)
                .spare_replicas(spares)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            for version in 1..=100u64 {
                let update = if version % 3 == 0 {
                    ModelUpdate {
                        engine: EngineUpdate::KeepEngine,
                        post_tables: Some(tables.clone().into()),
                        ..ModelUpdate::retune_threshold(syn.name(), version, 0)
                    }
                } else {
                    syn.retune(30 + version as i64, version, EngineBackend::Threshold)
                };
                rt.install_update(&update).expect("fresh version");
            }
            assert_eq!(rt.app_versions(), vec![(syn.name().to_string(), 100)]);
            let history = &rt.deployed.history;
            if spares == 0 {
                assert!(history.is_empty(), "nothing ever reads an unsupervised history");
                continue;
            }
            assert_eq!(history.len(), 1, "one effective update per app");
            let folded = &history[0];
            assert_eq!(folded.version, 100, "newest version");
            // Version 100 is a retune, so its cutoff is the newest
            // non-KeepEngine engine; the tables came from version 99.
            let newest = syn.retune(130, 100, EngineBackend::Threshold);
            assert_eq!(format!("{:?}", folded.engine), format!("{:?}", newest.engine));
            assert_eq!(folded.post_tables.as_ref().map(|t| t.len()), Some(tables.len()));
        }
    }
}
