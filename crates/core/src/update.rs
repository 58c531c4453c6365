//! Live model updates: [`ModelUpdate`], the versioned artifact the
//! control plane installs onto running switches (§5.2.3, Figs. 13–14).
//!
//! The paper's operational claim is that retrained weights reach the
//! data plane at flow-rule latency with no packet loss. This module
//! defines what actually crosses that boundary: a named, versioned
//! bundle of
//!
//! - an [`EngineUpdate`]: a freshly compiled MapReduce program *and
//!   its execution plan* to swap into CGRA engines by handle, a new
//!   cutoff for threshold engines (updated in place), or "keep the
//!   engine" (formatter/table-only updates),
//! - optionally a new feature-formatter factory (quantization ranges
//!   move with the weights) and new postprocessing MATs (the verdict
//!   threshold lives in the model's output code domain).
//!
//! An update is *prepared once* (quantize + compile + plan on the
//! control plane — see [`crate::apps::AnomalyDetector::prepare_update`])
//! and then installed on any number of replicas: every part is behind a
//! shared handle, so cloning an update copies no weights and all shards
//! of a sharded runtime run the one compiled program and plan.
//! Installation is transactional per app — [`check_install`] renders
//! the verdict before any mutation, so a failed install leaves the
//! switch untouched — and versions are strictly increasing, which lets
//! a distributed installer reason about which replicas have converged.
//! The verdict needs only the hosted app's installed version and
//! [`EngineKind`], so an installer that mirrors those (the sharded
//! runtime's feeder) renders it without asking a replica.
//!
//! A rollback point is a [`ModelUpdate`] too, with every part present
//! (see [`crate::switch::TaurusSwitch::capture_rollback`]).

use std::any::Any;
use std::sync::Arc;

use taurus_cgra::PreparedProgram;
use taurus_pisa::mat::MatchTable;
use taurus_pisa::pipeline::{FeatureFormatter, ThresholdEngine};
use taurus_pisa::LinearThresholdEngine;

use crate::engine::CgraEngine;

/// Builds fresh [`FeatureFormatter`]s for an update: each replica's
/// pipeline needs its own boxed closure, so updates carry the factory
/// rather than one formatter instance.
pub type FormatterFactory = Arc<dyn Fn() -> FeatureFormatter + Send + Sync>;

/// How an update changes the hosted app's inference engine.
#[derive(Clone)]
pub enum EngineUpdate {
    /// Swap in a freshly compiled MapReduce program (CGRA engines): the
    /// engine retargets its shared handle — one compilation and one
    /// execution plan serve every replica.
    Program(PreparedProgram),
    /// Rewrite a threshold engine's cutoff in place (the
    /// [`taurus_pisa::pipeline::ThresholdEngine`] /
    /// [`taurus_pisa::LinearThresholdEngine`] backends).
    Threshold(i64),
    /// Leave the engine untouched (formatter- or table-only updates).
    KeepEngine,
}

impl core::fmt::Debug for EngineUpdate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineUpdate::Program(p) => {
                write!(f, "Program(latency {} ns)", p.timing.latency_ns.round())
            }
            EngineUpdate::Threshold(t) => write!(f, "Threshold({t})"),
            EngineUpdate::KeepEngine => write!(f, "KeepEngine"),
        }
    }
}

impl EngineUpdate {
    /// Whether an engine of `kind` can take this update.
    pub(crate) fn fits(&self, kind: EngineKind) -> bool {
        match self {
            EngineUpdate::Program(_) => kind == EngineKind::Cgra,
            EngineUpdate::Threshold(_) => kind == EngineKind::Threshold,
            EngineUpdate::KeepEngine => true,
        }
    }

    /// Rewires `engine`. The caller has already matched the update
    /// against the engine's [`EngineKind`] ([`check_install`], or
    /// [`EngineUpdate::fits`] directly), which is what keeps installs
    /// transactional.
    pub(crate) fn apply_to(&self, engine: &mut dyn Any) {
        const CHECKED: &str = "the caller matched the update against the engine kind";
        match self {
            EngineUpdate::Program(program) => {
                engine.downcast_mut::<CgraEngine>().expect(CHECKED).swap_program(program.clone());
            }
            EngineUpdate::Threshold(t) => *threshold_of(engine).expect(CHECKED) = *t,
            EngineUpdate::KeepEngine => {}
        }
    }

    /// The engine's current state in update form (what a rollback
    /// restores). An exotic backend that cannot be snapshotted is left
    /// alone on rollback: `KeepEngine`.
    pub(crate) fn capture(engine: &mut dyn Any) -> Self {
        if let Some(cgra) = engine.downcast_mut::<CgraEngine>() {
            return EngineUpdate::Program(cgra.sim().prepared().clone());
        }
        threshold_of(engine).map_or(EngineUpdate::KeepEngine, |t| EngineUpdate::Threshold(*t))
    }
}

/// The cutoff of either threshold backend.
fn threshold_of(engine: &mut dyn Any) -> Option<&mut i64> {
    if engine.is::<ThresholdEngine>() {
        engine.downcast_mut::<ThresholdEngine>().map(|e| &mut e.threshold)
    } else {
        engine.downcast_mut::<LinearThresholdEngine>().map(|e| &mut e.threshold)
    }
}

/// What an [`EngineUpdate`] has to match on the hosting side: the one
/// fact about a hosted engine an install verdict depends on. It is
/// fixed at registration — updates rewire an engine, never replace it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// A [`CgraEngine`]: takes program swaps.
    Cgra,
    /// [`ThresholdEngine`] or [`LinearThresholdEngine`]: takes in-place
    /// cutoff edits.
    Threshold,
    /// Any other backend: only [`EngineUpdate::KeepEngine`] fits.
    Other,
}

impl EngineKind {
    /// Classifies a hosted engine.
    pub(crate) fn of(engine: &mut dyn Any) -> Self {
        if engine.is::<CgraEngine>() {
            EngineKind::Cgra
        } else if threshold_of(engine).is_some() {
            EngineKind::Threshold
        } else {
            EngineKind::Other
        }
    }
}

/// The accept/reject verdict of installing `update`, given what hosts
/// its app: `(installed version, engine kind)`, or `None` when no app
/// of that name is hosted. [`crate::switch::TaurusSwitch::install_update`]
/// calls this before mutating anything, and so does any installer that
/// mirrors a fleet's versions — one function, so the two cannot drift.
///
/// # Errors
///
/// In this order: [`UpdateError::UnknownApp`],
/// [`UpdateError::StaleVersion`] unless the version strictly increases,
/// [`UpdateError::BackendMismatch`] when the engine update's kind does
/// not fit the hosted engine.
pub fn check_install(
    update: &ModelUpdate,
    hosted: Option<(u64, EngineKind)>,
) -> Result<(), UpdateError> {
    let app = || update.app.clone();
    let (installed, kind) = hosted.ok_or_else(|| UpdateError::UnknownApp { app: app() })?;
    if update.version <= installed {
        return Err(UpdateError::StaleVersion { app: app(), installed, offered: update.version });
    }
    if !update.engine.fits(kind) {
        return Err(UpdateError::BackendMismatch { app: app() });
    }
    Ok(())
}

/// A versioned model update for one hosted app. Cloning is shallow:
/// every bulky part sits behind a shared handle.
#[derive(Clone)]
pub struct ModelUpdate {
    /// Target app ([`crate::app::TaurusApp::name`]).
    pub app: String,
    /// Strictly increasing per-app version; installs of a version at or
    /// below the installed one are rejected (idempotence under retry,
    /// and no accidental rollback through a reordered channel).
    pub version: u64,
    /// The engine-side change.
    pub engine: EngineUpdate,
    /// Replacement feature formatter, if quantization ranges moved with
    /// the weights.
    pub formatter: Option<FormatterFactory>,
    /// Replacement postprocessing MATs, if the verdict threshold moved
    /// with the model's output quantization. Each replica installs its
    /// own copy.
    pub post_tables: Option<Arc<[MatchTable]>>,
}

impl ModelUpdate {
    /// A minimal threshold retune: update the engine cutoff in place,
    /// keep formatter and tables.
    pub fn retune_threshold(app: impl Into<String>, version: u64, threshold: i64) -> Self {
        Self {
            app: app.into(),
            version,
            engine: EngineUpdate::Threshold(threshold),
            formatter: None,
            post_tables: None,
        }
    }
}

impl core::fmt::Debug for ModelUpdate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModelUpdate")
            .field("app", &self.app)
            .field("version", &self.version)
            .field("engine", &self.engine)
            .field("new_formatter", &self.formatter.is_some())
            .field("new_post_tables", &self.post_tables.as_ref().map(|t| t.len()))
            .finish()
    }
}

/// Why a [`ModelUpdate`] could not be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// No hosted app has the update's name.
    UnknownApp {
        /// The update's target name.
        app: String,
    },
    /// The update's version is not greater than the installed one.
    StaleVersion {
        /// The app.
        app: String,
        /// Version currently installed.
        installed: u64,
        /// Version the update offered.
        offered: u64,
    },
    /// The engine update does not match the hosted engine's backend
    /// (e.g. a compiled program offered to a threshold engine).
    BackendMismatch {
        /// The app.
        app: String,
    },
}

impl core::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpdateError::UnknownApp { app } => {
                write!(f, "no app named `{app}` is hosted on this switch")
            }
            UpdateError::StaleVersion { app, installed, offered } => write!(
                f,
                "stale update for `{app}`: version {offered} offered but {installed} already \
                 installed (versions must strictly increase)"
            ),
            UpdateError::BackendMismatch { app } => write!(
                f,
                "update for `{app}` targets a different engine backend than the hosted one \
                 (program swaps need a CGRA engine; threshold edits need a threshold engine)"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}
