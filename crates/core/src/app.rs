//! The first-class application API: [`TaurusApp`].
//!
//! The paper's core claim (Table 1, Fig. 6) is that *one* data-plane
//! architecture hosts *many* per-packet ML applications. This module
//! makes that claim an API: an application is a self-contained bundle of
//!
//! - a model/engine factory ([`TaurusApp::build_engine`], selecting the
//!   cycle-level CGRA simulator or the threshold heuristic),
//! - a feature spec ([`TaurusApp::feature_count`]) and formatter
//!   ([`TaurusApp::formatter`], raw register-stage features → int8
//!   codes),
//! - pre/post match-action tables ([`TaurusApp::pre_tables`],
//!   [`TaurusApp::post_tables`]),
//! - a verdict policy ([`TaurusApp::verdict_policy`]) and its Table 1
//!   reaction-time class ([`TaurusApp::reaction_time`]).
//!
//! The switch ([`crate::switch::SwitchBuilder`]) instantiates one
//! pipeline per registered app and hosts them side by side, each with
//! independent counters — the multi-tenant deployment Fig. 6 sketches.

use std::sync::Arc;

use taurus_compiler::GridProgram;
use taurus_pisa::mat::MatchTable;
use taurus_pisa::pipeline::{ml_bypass_table, InferenceEngine, ThresholdEngine};

pub use crate::apps::ReactionTime;
use crate::engine::CgraEngine;

/// Which inference backend executes an app's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineBackend {
    /// The cycle-level CGRA simulator running the app's compiled
    /// MapReduce program (the paper's hardware path).
    #[default]
    CgraSim,
    /// The trivial sum-vs-threshold engine ([`ThresholdEngine`]) — a
    /// heuristic baseline and a fast stand-in for tests.
    Threshold,
}

/// How an app's per-packet decision affects forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerdictPolicy {
    /// The app's postprocessing MATs write the decision field and the
    /// switch enforces it (drop/flag packets).
    #[default]
    Enforce,
    /// The app observes and counts but never alters forwarding
    /// (monitoring/telemetry deployments).
    Observe,
}

/// An inference engine as hosted on a switch: inference plus the
/// downcast hook live model updates use to reach the concrete engine
/// (program swap on [`crate::engine::CgraEngine`], in-place threshold
/// edits on the heuristic engines). Implemented automatically for every
/// `InferenceEngine + Send + 'static` type.
pub trait SwitchEngine: InferenceEngine + Send {
    /// The engine as [`Any`](std::any::Any), so [`crate::update::ModelUpdate`]
    /// installation can downcast to the concrete backend type.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<E: InferenceEngine + Send + 'static> SwitchEngine for E {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A type-erased inference engine, so one switch hosts heterogeneous
/// backends.
pub type BoxedEngine = Box<dyn SwitchEngine>;

pub use taurus_pisa::pipeline::FeatureFormatter;

/// One per-packet ML application, ready to be hosted on a switch.
///
/// Implementations bundle everything [`crate::switch::SwitchBuilder`]
/// needs; registering an app never moves it, so the same app can be
/// deployed on any number of switches.
pub trait TaurusApp {
    /// Short stable identifier (used for per-app counters and reports).
    fn name(&self) -> &str;

    /// The Table 1 reaction-time class this app demands.
    fn reaction_time(&self) -> ReactionTime;

    /// Number of feature codes handed to the inference engine.
    fn feature_count(&self) -> usize;

    /// The app's compiled MapReduce program, if it has one (required by
    /// the [`EngineBackend::CgraSim`] backend).
    fn program(&self) -> Option<Arc<GridProgram>> {
        None
    }

    /// Decision threshold for the [`EngineBackend::Threshold`] backend
    /// (flag when the feature sum exceeds it).
    fn heuristic_threshold(&self) -> i64 {
        0
    }

    /// Builds the app's inference engine on the selected backend.
    ///
    /// # Panics
    ///
    /// The default implementation panics if the CGRA backend is selected
    /// but [`TaurusApp::program`] returns `None`.
    fn build_engine(&self, backend: EngineBackend) -> BoxedEngine {
        match backend {
            EngineBackend::CgraSim => {
                let program = self.program().unwrap_or_else(|| {
                    panic!(
                        "app `{}` has no compiled program; use EngineBackend::Threshold",
                        self.name()
                    )
                });
                Box::new(CgraEngine::new(program))
            }
            EngineBackend::Threshold => {
                Box::new(ThresholdEngine { threshold: self.heuristic_threshold() })
            }
        }
    }

    /// Creates a fresh feature formatter for one hosted pipeline.
    fn formatter(&self) -> FeatureFormatter;

    /// A factory that can rebuild this app's formatter later, enabling
    /// bit-exact rollback ([`crate::switch::TaurusSwitch::capture_rollback`]
    /// needs to re-create the formatter that was active at capture
    /// time). Defaults to `None`: such apps still install and update
    /// normally but cannot anchor a rollback point until an installed
    /// [`crate::update::ModelUpdate`] carries a factory.
    fn formatter_factory(&self) -> Option<crate::update::FormatterFactory> {
        None
    }

    /// Preprocessing MATs (bypass decision, metadata). Defaults to the
    /// standard only-TCP/UDP-visit-the-model selection.
    fn pre_tables(&self) -> Vec<MatchTable> {
        vec![ml_bypass_table()]
    }

    /// Postprocessing MATs (verdict thresholding, queue selection) for
    /// the selected backend. The verdict threshold lives in the engine's
    /// *output* domain, so it depends on the backend: a compiled model
    /// emits score codes, while [`ThresholdEngine`] emits 0/1.
    fn post_tables(&self, backend: EngineBackend) -> Vec<MatchTable>;

    /// How the app's decision affects forwarding. Defaults to
    /// [`VerdictPolicy::Enforce`].
    fn verdict_policy(&self) -> VerdictPolicy {
        VerdictPolicy::Enforce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_pisa::pipeline::anomaly_post_table;

    struct TinyApp;

    impl TaurusApp for TinyApp {
        fn name(&self) -> &str {
            "tiny"
        }

        fn reaction_time(&self) -> ReactionTime {
            ReactionTime::PerPacket
        }

        fn feature_count(&self) -> usize {
            2
        }

        fn heuristic_threshold(&self) -> i64 {
            10
        }

        fn formatter(&self) -> FeatureFormatter {
            Box::new(|f, out| {
                out.extend_from_slice(&[f.packets.min(127) as i32, f.syn_only.min(127) as i32]);
            })
        }

        fn post_tables(&self, _backend: EngineBackend) -> Vec<MatchTable> {
            vec![anomaly_post_table(1)]
        }
    }

    #[test]
    fn default_engine_factory_builds_threshold_backend() {
        let mut e = TinyApp.build_engine(EngineBackend::Threshold);
        assert_eq!(e.infer(&[6, 5]), 1, "sum 11 > threshold 10");
        assert_eq!(e.infer(&[5, 5]), 0);
        assert_eq!(e.latency_ns(), 1);
    }

    #[test]
    #[should_panic(expected = "no compiled program")]
    fn cgra_backend_requires_a_program() {
        let _ = TinyApp.build_engine(EngineBackend::CgraSim);
    }
}
