//! [`TaurusSwitch`]: the assembled per-packet ML device (Fig. 6), now
//! hosting any number of [`TaurusApp`]s side by side.
//!
//! Construction goes through [`SwitchBuilder`]: pick a pipeline config
//! and an engine backend, register apps (each contributes its engine,
//! feature formatter, and MATs), and build. The switch owns everything —
//! no borrow lifetimes — because engines share compiled programs via
//! `Arc` ([`crate::engine::CgraEngine`]).

use taurus_dataset::trace::TracePacket;
use taurus_pisa::pipeline::PipelineResult;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{Packet, PipelineConfig, PreparedInput, TaurusPipeline, Verdict, BATCH_PACKETS};

use crate::app::{BoxedEngine, EngineBackend, ReactionTime, TaurusApp, VerdictPolicy};
use crate::apps::AnomalyDetector;
use crate::ingest::{to_packet, ObsBuilder};
use crate::update::{
    check_install, EngineKind, EngineUpdate, FormatterFactory, ModelUpdate, UpdateError,
};

/// Per-app counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppCounters {
    /// Packets this app's pipeline processed.
    pub packets: u64,
    /// Packets that visited this app's MapReduce block.
    pub ml_packets: u64,
    /// Packets this app voted to drop.
    pub dropped: u64,
    /// Packets this app voted to flag.
    pub flagged: u64,
}

impl AppCounters {
    /// Counts one packet's outcome with no branch on it (a group's
    /// results follow its engine call, where no earlier branch predicts
    /// them): `Verdict`'s discriminants are 0 (forward), 1 (drop) and 2
    /// (flag).
    #[inline]
    fn tally(&mut self, verdict: Verdict, bypassed: bool) {
        let code = verdict as u64;
        self.packets += 1;
        self.ml_packets += u64::from(!bypassed);
        self.dropped += code & 1;
        self.flagged += code >> 1;
    }

    /// Adds another counter set into this one (merging shard reports).
    pub fn absorb(&mut self, other: &AppCounters) {
        self.packets += other.packets;
        self.ml_packets += other.ml_packets;
        self.dropped += other.dropped;
        self.flagged += other.flagged;
    }
}

/// One hosted app's identity and counters, as reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReport {
    /// The app's [`TaurusApp::name`].
    pub name: String,
    /// Its declared reaction-time class.
    pub reaction: ReactionTime,
    /// Whether its verdicts are enforced or observe-only.
    pub policy: VerdictPolicy,
    /// Its counters.
    pub counters: AppCounters,
}

/// Aggregate switch counters plus the per-app breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SwitchReport {
    /// Packets processed by the switch.
    pub packets: u64,
    /// Packets that visited at least one app's MapReduce block.
    pub ml_packets: u64,
    /// Packets dropped by the combined verdict.
    pub dropped: u64,
    /// Packets flagged (but forwarded) by the combined verdict.
    pub flagged: u64,
    /// Flow-table slots evicted by idle timeout across all hosted apps
    /// (0 unless `PipelineConfig::idle_timeout_ns` is set).
    pub evictions: u64,
    /// Flow-table occupants evicted because their bucket filled, across
    /// all hosted apps (keyed flow tables only; 0 direct-mapped).
    pub capacity_evictions: u64,
    /// Flow-table slots currently holding a stamped occupant, summed
    /// across hosted apps (0 for direct-mapped tables with the idle
    /// timer off, which never stamp).
    pub flow_occupancy: u64,
    /// Flow-table accesses resolved per probe position, summed across
    /// hosted apps (keyed flow tables: one cell per way; empty
    /// direct-mapped).
    pub probe_hist: Vec<u64>,
    /// Per-app identities and counters, in registration order.
    pub apps: Vec<AppReport>,
}

/// Why two [`SwitchReport`]s could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportMergeError {
    /// No reports were supplied to [`SwitchReport::merged`].
    Empty,
    /// The app rosters differ (count, order, name, reaction, or policy):
    /// the reports describe different switch configurations.
    AppMismatch {
        /// Index into `apps` where the rosters first diverge (or the
        /// shorter roster's length).
        index: usize,
    },
}

impl core::fmt::Display for ReportMergeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReportMergeError::Empty => write!(f, "cannot merge an empty set of switch reports"),
            ReportMergeError::AppMismatch { index } => write!(
                f,
                "switch reports host different apps (first divergence at roster index {index}); \
                 only replicas of the same switch configuration can be merged"
            ),
        }
    }
}

impl std::error::Error for ReportMergeError {}

impl SwitchReport {
    /// Merges another replica's report into this one: counters add up,
    /// app rosters must match exactly (same apps, same order).
    ///
    /// # Errors
    ///
    /// [`ReportMergeError::AppMismatch`] if the rosters differ — merging
    /// reports of differently configured switches would be meaningless.
    pub fn merge(&mut self, other: &SwitchReport) -> Result<(), ReportMergeError> {
        let divergence = self.apps.iter().zip(&other.apps).position(|(a, b)| {
            a.name != b.name || a.reaction != b.reaction || a.policy != b.policy
        });
        if let Some(index) = divergence {
            return Err(ReportMergeError::AppMismatch { index });
        }
        if self.apps.len() != other.apps.len() {
            let index = self.apps.len().min(other.apps.len());
            return Err(ReportMergeError::AppMismatch { index });
        }
        self.packets += other.packets;
        self.ml_packets += other.ml_packets;
        self.dropped += other.dropped;
        self.flagged += other.flagged;
        self.evictions += other.evictions;
        self.capacity_evictions += other.capacity_evictions;
        self.flow_occupancy += other.flow_occupancy;
        if self.probe_hist.len() < other.probe_hist.len() {
            self.probe_hist.resize(other.probe_hist.len(), 0);
        }
        for (mine, theirs) in self.probe_hist.iter_mut().zip(&other.probe_hist) {
            *mine += theirs;
        }
        for (mine, theirs) in self.apps.iter_mut().zip(&other.apps) {
            mine.counters.absorb(&theirs.counters);
        }
        Ok(())
    }

    /// Merges a set of replica reports into one global report (the
    /// sharded runtime's merge step).
    ///
    /// # Errors
    ///
    /// [`ReportMergeError::Empty`] when `reports` yields nothing;
    /// [`ReportMergeError::AppMismatch`] when rosters differ.
    pub fn merged<'a>(
        reports: impl IntoIterator<Item = &'a SwitchReport>,
    ) -> Result<SwitchReport, ReportMergeError> {
        let mut it = reports.into_iter();
        let mut acc = it.next().ok_or(ReportMergeError::Empty)?.clone();
        for r in it {
            acc.merge(r)?;
        }
        Ok(acc)
    }
}

/// The combined outcome of pushing one packet through every hosted app.
/// Per-app votes are counted, not returned: see [`SwitchReport::apps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchVerdict {
    /// The combined forwarding decision: the strictest verdict among
    /// enforcing apps (`Drop > Flag > Forward`).
    pub verdict: Verdict,
    /// End-to-end latency, ns: apps run in parallel hardware, so this is
    /// the slowest app pipeline's latency.
    pub latency_ns: u64,
    /// Whether every hosted app bypassed its ML block.
    pub bypassed: bool,
}

impl SwitchVerdict {
    /// A packet's combined outcome before any app has voted.
    const UNVOTED: Self = Self { verdict: Verdict::Forward, latency_ns: 0, bypassed: true };
}

/// Counts one app's result for a packet in the app's counters and folds
/// it into the packet's combined outcome.
#[inline]
fn vote(
    counters: &mut AppCounters,
    policy: VerdictPolicy,
    r: &PipelineResult,
    combined: &mut SwitchVerdict,
) {
    counters.tally(r.verdict, r.bypassed);
    combined.bypassed &= r.bypassed;
    if policy == VerdictPolicy::Enforce {
        combined.verdict = combined.verdict.max_severity(r.verdict);
    }
    combined.latency_ns = combined.latency_ns.max(r.latency_ns);
}

struct HostedApp {
    name: String,
    reaction: ReactionTime,
    policy: VerdictPolicy,
    pipeline: TaurusPipeline<BoxedEngine>,
    counters: AppCounters,
    /// Installed model version: 0 for the build-time model, then the
    /// version of the last [`ModelUpdate`] applied.
    version: u64,
    /// What kind of engine the pipeline hosts (fixed at build: updates
    /// rewire an engine, never replace it).
    engine_kind: EngineKind,
    /// Factory of the *currently active* formatter: seeded from
    /// [`TaurusApp::formatter_factory`] at registration and replaced
    /// whenever an applied update carries a formatter.
    formatter_origin: FormatterFactory,
}

impl HostedApp {
    /// Applies a checked update, in the order
    /// [`TaurusSwitch::install_update`] documents.
    fn apply(&mut self, update: &ModelUpdate) {
        update.engine.apply_to(self.pipeline.engine_mut().as_mut().as_any_mut());
        if let Some(factory) = &update.formatter {
            self.pipeline.set_formatter(factory());
            self.formatter_origin = FormatterFactory::clone(factory);
        }
        if let Some(tables) = &update.post_tables {
            self.pipeline.post_tables = tables.to_vec();
        }
        self.version = update.version;
    }
}

/// Builds a [`TaurusSwitch`]: configuration, engine backend selection,
/// and app registration.
///
/// ```
/// use taurus_core::apps::SynFloodDetector;
/// use taurus_core::SwitchBuilder;
///
/// let mut switch = SwitchBuilder::new()
///     .register(&SynFloodDetector::default_deployment())
///     .build();
/// assert_eq!(switch.report().apps.len(), 1);
/// ```
#[derive(Default)]
pub struct SwitchBuilder {
    config: PipelineConfig,
    backend: EngineBackend,
    apps: Vec<RegisteredApp>,
}

/// Rejected registration: an app with this name is already hosted on the
/// switch being built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateAppError {
    /// The contested [`TaurusApp::name`].
    pub name: String,
}

impl core::fmt::Display for DuplicateAppError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "duplicate app name `{}`: every TaurusApp on one switch needs a unique name \
             (SwitchReport.apps and report merging are keyed by it)",
            self.name
        )
    }
}

impl std::error::Error for DuplicateAppError {}

struct RegisteredApp {
    name: String,
    reaction: ReactionTime,
    policy: VerdictPolicy,
    feature_count: usize,
    engine: BoxedEngine,
    formatter: FormatterFactory,
    pre_tables: Vec<taurus_pisa::mat::MatchTable>,
    post_tables: Vec<taurus_pisa::mat::MatchTable>,
}

impl SwitchBuilder {
    /// Starts a builder with the default pipeline config and the CGRA
    /// simulator backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pipeline configuration shared by all hosted apps (the
    /// per-app feature width comes from each app).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the engine backend for subsequently registered apps.
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Registers an app on the currently selected backend. The app is
    /// only read, never moved: it can be registered on many switches.
    ///
    /// # Panics
    ///
    /// Panics if an app with the same [`TaurusApp::name`] is already
    /// registered (see [`SwitchBuilder::try_register_on`] for the
    /// non-panicking form).
    pub fn register(self, app: &dyn TaurusApp) -> Self {
        let backend = self.backend;
        self.register_on(app, backend)
    }

    /// Registers an app on an explicit backend (mix CGRA-simulated and
    /// threshold apps on one switch).
    ///
    /// # Panics
    ///
    /// Panics if an app with the same [`TaurusApp::name`] is already
    /// registered (see [`SwitchBuilder::try_register_on`] for the
    /// non-panicking form).
    pub fn register_on(self, app: &dyn TaurusApp, backend: EngineBackend) -> Self {
        self.try_register_on(app, backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers an app on an explicit backend, rejecting duplicates.
    ///
    /// # Errors
    ///
    /// [`DuplicateAppError`] if an app with the same
    /// [`TaurusApp::name`] is already registered — per-app counters,
    /// reports, and report merging are keyed by name, so two apps
    /// sharing one would make [`SwitchReport::apps`] ambiguous.
    pub fn try_register_on(
        mut self,
        app: &dyn TaurusApp,
        backend: EngineBackend,
    ) -> Result<Self, DuplicateAppError> {
        if self.apps.iter().any(|r| r.name == app.name()) {
            return Err(DuplicateAppError { name: app.name().to_string() });
        }
        self.apps.push(RegisteredApp {
            name: app.name().to_string(),
            reaction: app.reaction_time(),
            policy: app.verdict_policy(),
            feature_count: app.feature_count(),
            engine: app.build_engine(backend),
            formatter: app.formatter_factory(),
            pre_tables: app.pre_tables(),
            post_tables: app.post_tables(backend),
        });
        Ok(self)
    }

    /// Builds the switch.
    ///
    /// # Panics
    ///
    /// Panics if no app was registered — a Taurus switch without an app
    /// is just a PISA switch.
    pub fn build(self) -> TaurusSwitch {
        assert!(!self.apps.is_empty(), "register at least one TaurusApp before build()");
        let config = self.config;
        let apps = self
            .apps
            .into_iter()
            .map(|mut r| {
                let app_config =
                    PipelineConfig { feature_count: r.feature_count, ..config.clone() };
                let engine_kind = EngineKind::of(r.engine.as_mut().as_any_mut());
                let mut pipeline = TaurusPipeline::new(app_config, r.engine, (r.formatter)());
                pipeline.pre_tables = r.pre_tables;
                pipeline.post_tables = r.post_tables;
                HostedApp {
                    name: r.name,
                    reaction: r.reaction,
                    policy: r.policy,
                    pipeline,
                    counters: AppCounters::default(),
                    version: 0,
                    engine_kind,
                    formatter_origin: r.formatter,
                }
            })
            .collect();
        // Keyed flow tables resolve flow starts by table miss, so the
        // ingest builder keeps no per-connection first-seen set at all —
        // O(1) ingest memory regardless of stream length.
        let obs_builder = match config.flow_table {
            taurus_pisa::FlowTableKind::Keyed { .. } => ObsBuilder::untracked(),
            taurus_pisa::FlowTableKind::DirectMapped => ObsBuilder::new(),
        };
        TaurusSwitch { apps, obs_builder, aggregate: AppCounters::default() }
    }
}

/// A Taurus switch hosting one or more per-packet ML applications, each
/// on its own pipeline instance (PISA stages + MapReduce block), with
/// independent counters and a combined forwarding verdict.
pub struct TaurusSwitch {
    apps: Vec<HostedApp>,
    obs_builder: ObsBuilder,
    /// Device-level counters from the *combined* per-packet outcome
    /// (unions across apps — not derivable from per-app counters).
    aggregate: AppCounters,
}

impl TaurusSwitch {
    /// Convenience: a single-app switch running the anomaly detector on
    /// the CGRA simulator (the paper's §5.2.2 deployment).
    pub fn new(detector: &AnomalyDetector) -> Self {
        SwitchBuilder::new().register(detector).build()
    }

    /// Processes one raw packet with its register-stage observation
    /// through every hosted app.
    #[inline]
    pub fn process(&mut self, pkt: &Packet, obs: PacketObs) -> SwitchVerdict {
        self.run_apps(|app| app.pipeline.process(pkt, obs))
    }

    /// Processes one raw packet whose cross-flow window counts were
    /// computed upstream; every app probes its own flow directory.
    #[inline]
    pub fn process_prepared_verdict(
        &mut self,
        pkt: &Packet,
        obs: PacketObs,
        dst_count: u64,
        srv_count: u64,
    ) -> SwitchVerdict {
        self.run_apps(|app| app.pipeline.process_prepared(pkt, obs, dst_count, srv_count))
    }

    /// Processes one trace packet: derives its packet and register-stage
    /// observation at ingest, then runs [`TaurusSwitch::process`].
    #[inline]
    pub fn process_trace_verdict(&mut self, tp: &TracePacket) -> SwitchVerdict {
        let pkt = to_packet(tp);
        let obs = self.obs_builder.observe(tp);
        self.process(&pkt, obs)
    }

    /// Processes a batch of packets whose register slots and cross-flow
    /// window counts were decided upstream, in global arrival order,
    /// calling `each(packet, verdict)` in stream order: the sharded
    /// runtime worker's entry. One op serves every app: the roster
    /// shares one [`PipelineConfig`]. Verdicts, counters and the report
    /// are what [`TaurusSwitch::process_prepared_verdict`] gives over a
    /// directory of the same geometry.
    ///
    /// The batch runs in groups of [`BATCH_PACKETS`]: every app runs
    /// the group through [`TaurusPipeline::process_prepared_batch`], in
    /// registration order, and each result folds into its packet's
    /// combined verdict as it comes; the last app's result completes it,
    /// so the packet's aggregate counts and `each` follow at once.
    #[inline]
    pub fn process_prepared_batch<P: PreparedInput>(
        &mut self,
        packets: &[P],
        mut each: impl FnMut(&P, SwitchVerdict),
    ) {
        let (last, others) = self.apps.split_last_mut().expect("a switch hosts an app");
        for group in packets.chunks(BATCH_PACKETS) {
            let mut combined = [SwitchVerdict::UNVOTED; BATCH_PACKETS];
            for HostedApp { pipeline, counters, policy, .. } in others.iter_mut() {
                let mut tally = *counters;
                pipeline.process_prepared_batch(group, |i, r| {
                    vote(&mut tally, *policy, &r, &mut combined[i]);
                });
                *counters = tally;
            }
            let HostedApp { pipeline, counters, policy, .. } = &mut *last;
            let (mut tally, mut aggregate) = (*counters, self.aggregate);
            let policy = *policy;
            pipeline.process_prepared_batch(group, |i, r| {
                let mut v = combined[i];
                vote(&mut tally, policy, &r, &mut v);
                aggregate.tally(v.verdict, v.bypassed);
                each(&group[i], v);
            });
            (*counters, self.aggregate) = (tally, aggregate);
        }
    }

    /// The per-packet loop: runs every hosted app, maintains per-app and
    /// aggregate counters, and combines enforcing verdicts.
    #[inline]
    fn run_apps(&mut self, mut run: impl FnMut(&mut HostedApp) -> PipelineResult) -> SwitchVerdict {
        let mut combined = SwitchVerdict::UNVOTED;
        for app in &mut self.apps {
            let r = run(app);
            vote(&mut app.counters, app.policy, &r, &mut combined);
        }
        self.aggregate.tally(combined.verdict, combined.bypassed);
        combined
    }

    /// Clears flow state and counters (between experiment phases).
    pub fn reset(&mut self) {
        for app in &mut self.apps {
            app.pipeline.reset_state();
            app.counters = AppCounters::default();
        }
        self.obs_builder.reset();
        self.aggregate = AppCounters::default();
    }

    /// Aggregate counters (combined-verdict unions) plus the per-app
    /// breakdown.
    pub fn report(&self) -> SwitchReport {
        let mut report = SwitchReport {
            packets: self.aggregate.packets,
            ml_packets: self.aggregate.ml_packets,
            dropped: self.aggregate.dropped,
            flagged: self.aggregate.flagged,
            apps: self
                .apps
                .iter()
                .map(|app| AppReport {
                    name: app.name.clone(),
                    reaction: app.reaction,
                    policy: app.policy,
                    counters: app.counters,
                })
                .collect(),
            ..SwitchReport::default()
        };
        for registers in self.apps.iter().map(|app| app.pipeline.flow_registers()) {
            report.evictions += registers.idle_evictions();
            report.capacity_evictions += registers.capacity_evictions();
            report.flow_occupancy += registers.occupancy();
            let hist = registers.probe_hist();
            report.probe_hist.resize(report.probe_hist.len().max(hist.len()), 0);
            for (a, h) in report.probe_hist.iter_mut().zip(hist) {
                *a += h;
            }
        }
        report
    }

    /// Installs a live model update on one hosted app: the engine is
    /// rewired first (program swap on CGRA engines, in-place cutoff
    /// edits on threshold engines), then the feature formatter and
    /// postprocessing MATs are replaced if the update carries them,
    /// and finally the app's version becomes the update's.
    ///
    /// Installation is transactional: every failure path is checked
    /// before any state is mutated, so an erroring install leaves the
    /// switch exactly as it was. Flow registers, counters, and
    /// cross-flow windows are untouched — packets in flight keep their
    /// accumulated features and only the model interpreting them
    /// changes, the paper's no-loss weight-install semantics.
    ///
    /// # Errors
    ///
    /// [`UpdateError::UnknownApp`] when no hosted app matches,
    /// [`UpdateError::StaleVersion`] unless `update.version` strictly
    /// exceeds the installed version, and
    /// [`UpdateError::BackendMismatch`] when the engine update's kind
    /// does not fit the hosted engine (e.g. a compiled program offered
    /// to a threshold backend).
    pub fn install_update(&mut self, update: &ModelUpdate) -> Result<(), UpdateError> {
        let app = self.apps.iter_mut().find(|a| a.name == update.app);
        check_install(update, app.as_ref().map(|a| (a.version, a.engine_kind)))?;
        app.expect("check_install rejects an unknown app").apply(update);
        Ok(())
    }

    /// Captures one hosted app's current model as a [`ModelUpdate`]
    /// with every part present — the engine state (program handle or
    /// threshold), the factory of the active formatter, the
    /// postprocessing MATs and the installed version — taken just
    /// before a risky install (a canary) so
    /// [`TaurusSwitch::rollback_to`] can undo it, bit-exactly.
    ///
    /// The capture is cheap: compiled programs are shared by `Arc`,
    /// thresholds are plain values, MATs are small tables, and the
    /// formatter is captured as the factory it was built from rather
    /// than by copying the (uncloneable) closure.
    ///
    /// # Errors
    ///
    /// [`UpdateError::UnknownApp`] when no hosted app matches.
    pub fn capture_rollback(&mut self, app_name: &str) -> Result<ModelUpdate, UpdateError> {
        let app = self.hosted(app_name)?;
        Ok(ModelUpdate {
            app: app.name.clone(),
            version: app.version,
            engine: EngineUpdate::capture(app.pipeline.engine_mut().as_mut().as_any_mut()),
            formatter: Some(FormatterFactory::clone(&app.formatter_origin)),
            post_tables: Some(app.pipeline.post_tables.as_slice().into()),
        })
    }

    /// Restores one hosted app to a point captured by
    /// [`TaurusSwitch::capture_rollback`]: the same apply as
    /// [`TaurusSwitch::install_update`], minus its version guard. Flow
    /// registers, counters, and cross-flow windows are untouched — only
    /// the model interpreting the features changes.
    ///
    /// Unlike installs, rollback deliberately *rewinds* the version
    /// counter: a canary that installed v5 and rolled back reports the
    /// prior version again, so the control plane can re-offer a fixed
    /// v6 later without tripping the stale-version guard on replicas
    /// that never saw v5.
    ///
    /// # Errors
    ///
    /// [`UpdateError::UnknownApp`] when no hosted app matches the
    /// point's app, [`UpdateError::BackendMismatch`] when the captured
    /// engine state does not fit the hosted engine (only possible if
    /// the point came from a differently configured switch). Both leave
    /// the switch untouched.
    pub fn rollback_to(&mut self, point: &ModelUpdate) -> Result<(), UpdateError> {
        let app = self.hosted(&point.app)?;
        if !point.engine.fits(app.engine_kind) {
            return Err(UpdateError::BackendMismatch { app: app.name.clone() });
        }
        app.apply(point);
        Ok(())
    }

    /// The hosted app named `name`.
    fn hosted(&mut self, name: &str) -> Result<&mut HostedApp, UpdateError> {
        let unknown = || UpdateError::UnknownApp { app: name.to_string() };
        self.apps.iter_mut().find(|a| a.name == name).ok_or_else(unknown)
    }

    /// The installed model version of one hosted app (0 until the first
    /// update), or `None` for an unknown name.
    pub fn app_version(&self, app: &str) -> Option<u64> {
        self.apps.iter().find(|a| a.name == app).map(|a| a.version)
    }

    /// Installed model versions of every hosted app, in registration
    /// order.
    pub fn app_versions(&self) -> Vec<(String, u64)> {
        self.apps.iter().map(|a| (a.name.clone(), a.version)).collect()
    }

    /// Per hosted app, in registration order: its [`EngineKind`]. With
    /// [`TaurusSwitch::app_versions`], everything [`check_install`]
    /// needs to render a verdict for this switch from outside it.
    pub fn engine_kinds(&self) -> Vec<EngineKind> {
        self.apps.iter().map(|a| a.engine_kind).collect()
    }

    /// Number of hosted apps.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The slowest hosted ML block's per-packet latency in nanoseconds
    /// (apps run in parallel, so this bounds the ML path).
    pub fn ml_latency_ns(&self) -> u64 {
        use taurus_pisa::InferenceEngine;
        self.apps.iter().map(|a| a.pipeline.engine().latency_ns()).max().unwrap_or(0)
    }
}

impl core::fmt::Debug for TaurusSwitch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaurusSwitch")
            .field("apps", &self.apps.iter().map(|a| a.name.as_str()).collect::<Vec<_>>())
            .field("packets", &self.aggregate.packets)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{BoxedEngine, EngineBackend};
    use crate::apps::SynFloodDetector;
    use crate::update::FormatterFactory;
    use taurus_dataset::kdd::{FeatureView, KddGenerator};
    use taurus_dataset::trace::{PacketTrace, TraceConfig};
    use taurus_pisa::SlotOp;

    /// One packet's outcome in full: the switch's verdict and every
    /// hosted app's pipeline result, model output included.
    type Outcome = (SwitchVerdict, Vec<PipelineResult>);

    /// Runs the switch's per-packet loop, keeping each app's result.
    fn outcome(
        switch: &mut TaurusSwitch,
        mut run: impl FnMut(&mut HostedApp) -> PipelineResult,
    ) -> Outcome {
        let mut per_app = Vec::new();
        let verdict = switch.run_apps(|app| {
            let r = run(app);
            per_app.push(r);
            r
        });
        (verdict, per_app)
    }

    /// [`TaurusSwitch::process_trace_verdict`], keeping each app's result.
    fn trace_outcome(switch: &mut TaurusSwitch, tp: &TracePacket) -> Outcome {
        let pkt = to_packet(tp);
        let obs = switch.obs_builder.observe(tp);
        outcome(switch, |app| app.pipeline.process(&pkt, obs))
    }

    #[test]
    fn switch_processes_a_trace() {
        let detector = AnomalyDetector::train_default(3, 1_500);
        let mut switch = TaurusSwitch::new(&detector);
        let records = KddGenerator::new(11).take(60);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in trace.packets.iter().take(500) {
            let r = switch.process_trace_verdict(tp);
            assert!(r.latency_ns > 0);
        }
        let report = switch.report();
        assert!(report.packets > 0);
        assert!(report.ml_packets > 0, "TCP/UDP packets visit the model");
        // ML latency is the compiled DNN's latency: order 100–300 ns.
        assert!((50..=400).contains(&switch.ml_latency_ns()), "{}", switch.ml_latency_ns());
    }

    #[test]
    fn icmp_bypasses() {
        let detector = AnomalyDetector::train_default(4, 1_000);
        let mut switch = TaurusSwitch::new(&detector);
        let records = KddGenerator::new(12).take(200);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let icmp = trace.packets.iter().find(|p| p.tuple.proto == 1);
        if let Some(tp) = icmp {
            let r = switch.process_trace_verdict(tp);
            assert!(r.bypassed);
        }
    }

    #[test]
    fn reset_clears_counters() {
        let detector = AnomalyDetector::train_default(5, 1_000);
        let mut switch = TaurusSwitch::new(&detector);
        let records = KddGenerator::new(13).take(20);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in trace.packets.iter().take(50) {
            switch.process_trace_verdict(tp);
        }
        assert!(switch.report().packets > 0);
        switch.reset();
        let report = switch.report();
        assert_eq!(report.packets, 0);
        assert!(report.apps.iter().all(|a| a.counters == AppCounters::default()));
    }

    #[test]
    fn builder_hosts_two_apps_with_independent_counters() {
        let detector = AnomalyDetector::train_default(6, 1_500);
        let syn = SynFloodDetector::default_deployment();
        let mut switch = SwitchBuilder::new().register(&detector).register(&syn).build();
        assert_eq!(switch.app_count(), 2);

        let records = KddGenerator::new(14).take(80);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in trace.packets.iter().take(800) {
            switch.process_trace_verdict(tp);
        }

        let report = switch.report();
        let roster: Vec<_> = report.apps.iter().map(|a| (a.name.as_str(), a.policy)).collect();
        assert_eq!(
            roster,
            [("anomaly-detection", VerdictPolicy::Enforce), ("syn-flood", VerdictPolicy::Enforce)]
        );
        // Both apps saw every packet, on their own pipelines.
        assert_eq!(report.apps[0].counters.packets, report.packets);
        assert_eq!(report.apps[1].counters.packets, report.packets);
        // The DNN takes TCP+UDP, the SYN app TCP only: counters diverge.
        assert!(report.apps[0].counters.ml_packets >= report.apps[1].counters.ml_packets);
        // Aggregates are combined-verdict unions: at least the strictest
        // single app, at most the sum of all enforcing apps.
        let per_app_dropped: Vec<u64> = report.apps.iter().map(|a| a.counters.dropped).collect();
        assert!(report.dropped >= *per_app_dropped.iter().max().unwrap());
        assert!(report.dropped <= per_app_dropped.iter().sum::<u64>());
        assert_eq!(report.ml_packets, report.apps[0].counters.ml_packets, "union of ML visits");
        // Aggregate ML latency is the slowest app (the DNN ≫ the scorer).
        assert_eq!(switch.ml_latency_ns(), detector.program.timing.latency_ns.round() as u64);
    }

    #[test]
    fn mixed_backends_on_one_switch() {
        let syn = SynFloodDetector::default_deployment();
        let detector = AnomalyDetector::train_default(7, 1_000);
        let mut switch = SwitchBuilder::new()
            .register_on(&detector, EngineBackend::CgraSim)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let records = KddGenerator::new(15).take(40);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in trace.packets.iter().take(200) {
            switch.process_trace_verdict(tp);
        }
        // The threshold engine reports 1 ns; the DNN dominates.
        assert!(switch.ml_latency_ns() > 1);
        assert!(switch.report().apps[1].counters.packets > 0);
    }

    #[test]
    #[should_panic(expected = "at least one TaurusApp")]
    fn build_without_apps_panics() {
        let _ = SwitchBuilder::new().build();
    }

    #[test]
    fn try_register_rejects_duplicate_app_names() {
        let syn = SynFloodDetector::default_deployment();
        let again = SynFloodDetector::new(10); // different config, same name
        let b = match SwitchBuilder::new().try_register_on(&syn, EngineBackend::Threshold) {
            Ok(b) => b,
            Err(e) => panic!("first registration must succeed: {e}"),
        };
        let err = match b.try_register_on(&again, EngineBackend::Threshold) {
            Ok(_) => panic!("expected duplicate rejection"),
            Err(e) => e,
        };
        assert_eq!(err.name, "syn-flood");
        assert!(err.to_string().contains("duplicate app name `syn-flood`"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate app name `syn-flood`")]
    fn register_panics_on_duplicate_app_names() {
        let syn = SynFloodDetector::default_deployment();
        let again = SynFloodDetector::new(10);
        let _ = SwitchBuilder::new()
            .register_on(&syn, EngineBackend::Threshold)
            .register_on(&again, EngineBackend::Threshold);
    }

    #[test]
    fn reports_merge_counters_and_reject_mismatched_rosters() {
        let syn = SynFloodDetector::default_deployment();
        let detector = AnomalyDetector::train_default(8, 1_000);
        let build = || {
            SwitchBuilder::new()
                .register_on(&detector, EngineBackend::Threshold)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        };
        let mut a = build();
        let mut b = build();
        let records = KddGenerator::new(16).take(60);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let (left, right) = trace.packets.split_at(trace.packets.len() / 2);
        for tp in left {
            a.process_trace_verdict(tp);
        }
        for tp in right {
            b.process_trace_verdict(tp);
        }
        let merged = SwitchReport::merged([&a.report(), &b.report()]).expect("same roster");
        assert_eq!(merged.packets, trace.packets.len() as u64);
        assert_eq!(
            merged.apps[0].counters.packets,
            a.report().apps[0].counters.packets + b.report().apps[0].counters.packets
        );
        assert_eq!(merged.apps[1].name, "syn-flood");

        // Roster mismatch: a single-app switch cannot merge with a two-app one.
        let single = SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        let err = SwitchReport::merged([&a.report(), &single.report()]).unwrap_err();
        assert_eq!(err, ReportMergeError::AppMismatch { index: 0 });
        assert_eq!(SwitchReport::merged([]).unwrap_err(), ReportMergeError::Empty);
    }

    /// Version 1 of `detector`'s model, retrained for five epochs on
    /// `rows` fresh KDD rows drawn with `seed`.
    fn retrained_update(detector: &AnomalyDetector, seed: u64, rows: usize) -> ModelUpdate {
        let mut retrained = detector.float_model.clone();
        let mut ds = KddGenerator::new(seed).binary_dataset(rows, FeatureView::Dnn6);
        detector.standardizer.apply(&mut ds);
        let params = taurus_ml::TrainParams { epochs: 5, ..Default::default() };
        retrained.train(ds.features(), ds.labels(), &params);
        detector.prepare_update(&retrained, ds.features(), 1)
    }

    #[test]
    fn install_update_swaps_the_cgra_program_live() {
        let detector = AnomalyDetector::train_default(31, 1_200);
        let mut switch = TaurusSwitch::new(&detector);
        assert_eq!(switch.app_version("anomaly-detection"), Some(0));

        // Retrain the float model so the new program behaves differently.
        let update = retrained_update(&detector, 32, 500);

        let records = KddGenerator::new(33).take(120);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let before: Vec<_> =
            trace.packets.iter().map(|tp| switch.process_trace_verdict(tp).verdict).collect();

        switch.install_update(&update).expect("CGRA program swap");
        assert_eq!(switch.app_version("anomaly-detection"), Some(1));
        assert_eq!(switch.app_versions(), vec![("anomaly-detection".to_string(), 1)]);

        // Same stream again: flow state persisted across the install,
        // but a different model now interprets the features.
        let mut replay = ObsBuilder::new();
        let _ = &mut replay;
        let after: Vec<_> =
            trace.packets.iter().map(|tp| switch.process_trace_verdict(tp).verdict).collect();
        assert_eq!(before.len(), after.len());
        // Counters kept accumulating across the swap — no reset, no loss.
        assert_eq!(switch.report().packets, 2 * trace.packets.len() as u64);
    }

    #[test]
    fn install_update_rejects_unknown_stale_and_mismatched() {
        use crate::update::{ModelUpdate, UpdateError};

        let syn = SynFloodDetector::default_deployment();
        let mut switch = SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();

        // Unknown app.
        let err =
            switch.install_update(&ModelUpdate::retune_threshold("no-such-app", 1, 5)).unwrap_err();
        assert_eq!(err, UpdateError::UnknownApp { app: "no-such-app".into() });

        // In-place threshold edit works on the heuristic backend…
        switch.install_update(&syn.retune(30, 2, EngineBackend::Threshold)).expect("retune");
        assert_eq!(switch.app_version("syn-flood"), Some(2));

        // …but stale/equal versions are rejected and leave state alone.
        let err = switch.install_update(&syn.retune(20, 2, EngineBackend::Threshold)).unwrap_err();
        assert_eq!(
            err,
            UpdateError::StaleVersion { app: "syn-flood".into(), installed: 2, offered: 2 }
        );
        assert_eq!(switch.app_version("syn-flood"), Some(2));

        // A compiled-program update cannot land on a threshold engine —
        // including a CgraSim retune mistakenly aimed at this
        // deployment, whose raw-score MAT would otherwise silently
        // never fire against the heuristic's 0/1 output.
        let err = switch.install_update(&syn.retune(30, 3, EngineBackend::CgraSim)).unwrap_err();
        assert_eq!(err, UpdateError::BackendMismatch { app: "syn-flood".into() });
        assert_eq!(switch.app_version("syn-flood"), Some(2), "failed install mutated nothing");
        assert!(err.to_string().contains("different engine backend"), "{err}");
    }

    #[test]
    fn rollback_round_trip_is_bit_exact_against_a_never_updated_control() {
        // Golden round-trip: capture → install a retrained model →
        // rollback, then verify the switch is indistinguishable from a
        // control switch that never installed anything — per-packet
        // verdicts and latencies included, not just counters.
        let detector = AnomalyDetector::train_default(41, 1_200);
        let mut subject = TaurusSwitch::new(&detector);
        let mut control = TaurusSwitch::new(&detector);

        let update = retrained_update(&detector, 42, 400);

        let records = KddGenerator::new(43).take(120);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let (probation, suffix) = trace.packets.split_at(trace.packets.len() / 2);

        let point = subject.capture_rollback("anomaly-detection").expect("capturable");
        subject.install_update(&update).expect("canary install");
        assert_eq!(subject.app_version("anomaly-detection"), Some(1));
        // Probation traffic runs under the new model on the subject and
        // the old model on the control: flow registers advance
        // identically (verdicts never feed back into flow state).
        for tp in probation {
            let _ = subject.process_trace_verdict(tp);
            let _ = control.process_trace_verdict(tp);
        }
        subject.rollback_to(&point).expect("rollback restores");
        assert_eq!(subject.app_version("anomaly-detection"), Some(0), "version rewinds");

        // From here on the two switches must agree on *everything*.
        for tp in suffix {
            assert_eq!(trace_outcome(&mut subject, tp), trace_outcome(&mut control, tp));
        }
        // A second capture still works: rollback restored the factory.
        let again = subject.capture_rollback("anomaly-detection").expect("still capturable");
        assert_eq!(again.version, 0);
    }

    #[test]
    fn capture_rollback_rejects_unknown_apps() {
        let syn = SynFloodDetector::default_deployment();
        let mut switch = SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        let err = switch.capture_rollback("no-such-app").unwrap_err();
        assert_eq!(err, crate::update::UpdateError::UnknownApp { app: "no-such-app".into() });
        // Threshold-backend capture works and round-trips the cutoff.
        let point = switch.capture_rollback("syn-flood").expect("threshold capture");
        switch.install_update(&syn.retune(999, 7, EngineBackend::Threshold)).expect("retune");
        switch.rollback_to(&point).expect("rollback");
        assert_eq!(switch.app_version("syn-flood"), Some(0));
    }

    #[test]
    fn a_capture_is_a_complete_portable_model() {
        use taurus_pisa::pipeline::anomaly_post_table;

        let detector = AnomalyDetector::train_default(41, 1_200);
        let syn = SynFloodDetector::default_deployment();
        let dnn_update = retrained_update(&detector, 42, 400);
        // On the heuristic backend: a new cutoff, the retrained model's
        // formatter and a different verdict MAT.
        let dnn_heuristic = ModelUpdate {
            engine: EngineUpdate::Threshold(-3),
            post_tables: Some([anomaly_post_table(0)].into()),
            ..dnn_update.clone()
        };
        let trace = PacketTrace::expand(KddGenerator::new(43).take(150), &TraceConfig::default());
        let cases: [(&dyn TaurusApp, EngineBackend, ModelUpdate); 4] = [
            (&detector, EngineBackend::CgraSim, dnn_update),
            (&detector, EngineBackend::Threshold, dnn_heuristic),
            (&syn, EngineBackend::CgraSim, syn.retune(5, 1, EngineBackend::CgraSim)),
            (&syn, EngineBackend::Threshold, syn.retune(5, 1, EngineBackend::Threshold)),
        ];
        let run = |switch: &mut TaurusSwitch| -> Vec<Outcome> {
            switch.reset();
            trace.packets.iter().map(|tp| trace_outcome(switch, tp)).collect()
        };
        for (app, backend, other) in cases {
            let build = || SwitchBuilder::new().register_on(app, backend).build();
            let (mut source, mut replica) = (build(), build());
            let mut capture = source.capture_rollback(app.name()).expect("hosted");
            assert!(capture.formatter.is_some(), "{} on {backend:?}", app.name());
            assert!(capture.post_tables.is_some(), "{} on {backend:?}", app.name());
            assert!(!matches!(capture.engine, EngineUpdate::KeepEngine), "{}", app.name());

            replica.install_update(&other).expect("a different model");
            let reference = run(&mut source);
            assert_ne!(run(&mut replica), reference, "{} on {backend:?}", app.name());
            capture.version = 2;
            replica.install_update(&capture).expect("the capture installs like any update");
            assert_eq!(run(&mut replica), reference, "{} on {backend:?}", app.name());
            assert_eq!(replica.app_version(app.name()), Some(2));
        }

        // A CGRA capture does not fit a threshold engine, and the refusal
        // leaves the switch as it was.
        for app in [&detector as &dyn TaurusApp, &syn] {
            let mut cgra = SwitchBuilder::new().register_on(app, EngineBackend::CgraSim).build();
            let point = cgra.capture_rollback(app.name()).expect("hosted");
            let build = || SwitchBuilder::new().register_on(app, EngineBackend::Threshold).build();
            let (mut subject, mut control) = (build(), build());
            assert_eq!(
                subject.rollback_to(&point),
                Err(UpdateError::BackendMismatch { app: app.name().to_string() })
            );
            assert_eq!(subject.app_version(app.name()), Some(0));
            assert_eq!(run(&mut subject), run(&mut control), "{}", app.name());
        }
    }

    #[test]
    fn syn_cutoff_at_i64_min_drops_every_ml_packet_on_the_threshold_backend() {
        // The heuristic fires strictly above `threshold - 1`, which must
        // saturate: a wrapped cutoff of `i64::MAX` would drop nothing.
        let trace = PacketTrace::expand(KddGenerator::new(3).take(200), &TraceConfig::default());
        let run = |switch: &mut TaurusSwitch| {
            for tp in &trace.packets {
                switch.process_trace_verdict(tp);
            }
            switch.report().apps[0].counters
        };
        let built = SynFloodDetector::new(i64::MIN);
        let mut switch = SwitchBuilder::new().register_on(&built, EngineBackend::Threshold).build();
        let counters = run(&mut switch);
        assert!(counters.ml_packets > 0);
        assert_eq!(counters.dropped, counters.ml_packets, "built with cutoff i64::MIN");

        let syn = SynFloodDetector::default_deployment();
        let mut switch = SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        switch.install_update(&syn.retune(i64::MIN, 1, EngineBackend::Threshold)).expect("retune");
        let counters = run(&mut switch);
        assert_eq!(counters.dropped, counters.ml_packets, "retuned to cutoff i64::MIN");
    }

    #[test]
    fn threshold_retune_changes_the_verdict_boundary_in_place() {
        let syn = SynFloodDetector::default_deployment();
        // CGRA deployment: the cutoff lives in the post MAT.
        let mut switch = SwitchBuilder::new().register(&syn).build();
        let records = KddGenerator::new(34).take(200);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in &trace.packets {
            switch.process_trace_verdict(tp);
        }
        let strict_drops = switch.report().dropped;
        switch.reset();
        // Retune to an unreachable cutoff: nothing can drop any more.
        switch.install_update(&syn.retune(i64::MAX, 1, EngineBackend::CgraSim)).expect("retune");
        for tp in &trace.packets {
            switch.process_trace_verdict(tp);
        }
        assert!(strict_drops > 0, "baseline cutoff drops something");
        assert_eq!(switch.report().dropped, 0, "retuned cutoff drops nothing");
    }

    #[test]
    fn process_prepared_with_shared_windows_matches_process() {
        use taurus_pisa::{CrossFlowWindows, FlowTable, FlowTableKind};

        let detector = AnomalyDetector::train_default(9, 1_200);
        let syn = SynFloodDetector::default_deployment();
        let records = KddGenerator::new(18).take(120);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for kind in [FlowTableKind::DirectMapped, FlowTableKind::Keyed { buckets: 16, ways: 2 }] {
            let config = PipelineConfig { flow_table: kind, ..PipelineConfig::default() };
            let build = || {
                SwitchBuilder::new()
                    .config(config.clone())
                    .register(&detector)
                    .register(&syn)
                    .build()
            };
            let (mut classic, mut split, mut public, mut slotted) =
                (build(), build(), build(), build());
            let keyed = kind != FlowTableKind::DirectMapped;
            let mut obs_builder = if keyed { ObsBuilder::untracked() } else { ObsBuilder::new() };
            let mut windows = CrossFlowWindows::new(config.flow_slots, config.window_ns);
            // One directory in front of the slot entry, as the runtime's
            // ingest runs it.
            let mut directory = FlowTable::with_kind(kind, config.flow_slots, 0);
            for tp in &trace.packets {
                let a = trace_outcome(&mut classic, tp);
                let mut obs = obs_builder.observe(tp);
                let op = directory.op(obs.flow_key, obs.ts_ns);
                if keyed {
                    obs.is_flow_start = op.access.is_start();
                }
                let (d, s) = windows.observe(&obs);
                let pkt = to_packet(tp);
                let b = outcome(&mut split, |app| app.pipeline.process_prepared(&pkt, obs, d, s));
                // Every app's model output agrees, not just the verdict.
                assert_eq!(a, b, "{kind:?}");
                assert_eq!(public.process_prepared_verdict(&pkt, obs, d, s), b.0);
                let mut got = Vec::new();
                let one = Prepared { pkt, op, obs, counts: (d, s) };
                slotted.process_prepared_batch(std::slice::from_ref(&one), |_, v| got.push(v));
                assert_eq!(got, [b.0], "{kind:?}");
            }
            assert_eq!(classic.report(), split.report(), "{kind:?}");
            assert_eq!(public.report(), split.report(), "{kind:?}");
            assert_eq!(slotted.report(), split.report(), "{kind:?}");
        }
    }

    /// One packet as the runtime hands it to a worker: the input of
    /// [`TaurusSwitch::process_prepared_batch`].
    #[derive(Clone)]
    struct Prepared {
        pkt: Packet,
        op: SlotOp,
        obs: PacketObs,
        counts: (u64, u64),
    }

    impl PreparedInput for Prepared {
        fn packet(&self) -> &Packet {
            &self.pkt
        }

        fn slot_op(&self) -> SlotOp {
            self.op
        }

        fn obs(&self) -> PacketObs {
            self.obs
        }

        fn window_counts(&self) -> (u64, u64) {
            self.counts
        }
    }

    /// An app with an observe-only verdict policy.
    struct Observer<'a>(&'a AnomalyDetector);

    impl TaurusApp for Observer<'_> {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn reaction_time(&self) -> ReactionTime {
            self.0.reaction_time()
        }

        fn feature_count(&self) -> usize {
            self.0.feature_count()
        }

        fn build_engine(&self, backend: EngineBackend) -> BoxedEngine {
            self.0.build_engine(backend)
        }

        fn formatter_factory(&self) -> FormatterFactory {
            self.0.formatter_factory()
        }

        fn post_tables(&self, backend: EngineBackend) -> Vec<taurus_pisa::MatchTable> {
            self.0.post_tables(backend)
        }

        fn verdict_policy(&self) -> VerdictPolicy {
            VerdictPolicy::Observe
        }
    }

    #[test]
    fn the_batch_entry_matches_the_per_packet_entry() {
        use taurus_pisa::{CrossFlowWindows, FlowTable};

        let detector = AnomalyDetector::train_default(9, 1_200);
        let syn = SynFloodDetector::default_deployment();
        let config = PipelineConfig::default();
        let mut obs_builder = ObsBuilder::new();
        let mut windows = CrossFlowWindows::new(config.flow_slots, config.window_ns);
        // Direct-mapped with the idle timer off, an op depends on its
        // packet alone, so any subset of the stream keeps its ops.
        let mut directory = FlowTable::with_kind(config.flow_table, config.flow_slots, 0);
        let trace = PacketTrace::expand(KddGenerator::new(21).take(150), &TraceConfig::default());
        let prepared: Vec<Prepared> = trace
            .packets
            .iter()
            .map(|tp| {
                let obs = obs_builder.observe(tp);
                let op = directory.op(obs.flow_key, obs.ts_ns);
                Prepared { pkt: to_packet(tp), op, obs, counts: windows.observe(&obs) }
            })
            .collect();
        // Only packets the AD DNN's selection table bypasses: every
        // group of the batch entry calls its engine on no row at all.
        let bypassing: Vec<Prepared> =
            prepared.iter().filter(|p| p.pkt.proto == 1).cloned().collect();
        assert!(bypassing.len() > 2 * BATCH_PACKETS, "the trace carries ICMP");
        let dnn: &dyn Fn() -> TaurusSwitch = &|| SwitchBuilder::new().register(&detector).build();
        let two_apps: &dyn Fn() -> TaurusSwitch =
            &|| SwitchBuilder::new().register(&detector).register(&syn).build();
        // The across-packets kernel next to the threshold engine's.
        let mixed: &dyn Fn() -> TaurusSwitch = &|| {
            SwitchBuilder::new()
                .register(&detector)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        };
        let threshold: &dyn Fn() -> TaurusSwitch =
            &|| SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        // Observe-only apps fold into no combined verdict, in front of
        // the last app and as the last app.
        let (low, observer) = (SynFloodDetector::new(5), Observer(&detector));
        let observing: &dyn Fn() -> TaurusSwitch = &|| {
            SwitchBuilder::new()
                .register(&observer)
                .register_on(&low, EngineBackend::Threshold)
                .build()
        };
        let observed_last: &dyn Fn() -> TaurusSwitch = &|| {
            SwitchBuilder::new()
                .register_on(&low, EngineBackend::Threshold)
                .register(&observer)
                .build()
        };
        let cases = [
            ("AD DNN", dnn, prepared.as_slice()),
            ("AD DNN + SYN", two_apps, &prepared),
            ("AD DNN + SYN on the threshold backend", mixed, &prepared),
            ("an observing AD DNN + SYN", observing, &prepared),
            ("SYN + an observing AD DNN", observed_last, &prepared),
            ("every packet bypassed", dnn, &bypassing),
            ("SYN on the threshold backend", threshold, &prepared),
        ];
        for (name, build, packets) in cases {
            let (mut single, mut batched) = (build(), build());
            let want: Vec<SwitchVerdict> = packets
                .iter()
                .map(|p| single.process_prepared_verdict(&p.pkt, p.obs, p.counts.0, p.counts.1))
                .collect();
            // Whole groups, ragged tails and lone packets.
            let mut got = Vec::new();
            let mut rest = packets;
            for len in [256, 13, 1, 8, 5].into_iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, next) = rest.split_at(len.min(rest.len()));
                batched.process_prepared_batch(batch, |p, v| got.push((p.pkt.clone(), v)));
                rest = next;
            }
            let (order, got): (Vec<Packet>, Vec<SwitchVerdict>) = got.into_iter().unzip();
            assert!(order.iter().eq(packets.iter().map(|p| &p.pkt)), "{name}: stream order");
            assert_eq!(got, want, "{name}");
            assert_eq!(batched.report(), single.report(), "{name}");
        }
    }
}
