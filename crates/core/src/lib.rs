//! Taurus: a per-packet ML data plane — the integration crate.
//!
//! This crate assembles the full system the paper describes: the PISA
//! pipeline (`taurus-pisa`) around the compiled MapReduce block executed
//! by the cycle-level CGRA simulator (`taurus-cgra`), with models trained
//! and quantized by `taurus-ml`, lowered by `taurus-compiler`, and
//! costed by `taurus-hw-model`.
//!
//! - [`app`]: the [`app::TaurusApp`] trait — one per-packet ML
//!   application as a self-contained bundle (engine factory, feature
//!   formatter, MATs, verdict policy, reaction time).
//! - [`apps`]: the in-network application registry (Table 1) and the
//!   concrete apps: the anomaly-detection DNN (§5.2.2) and the
//!   SYN-flood scorer (Table 1's DoS row).
//! - [`engine`]: the [`engine::CgraEngine`] adapter that plugs the CGRA
//!   simulator into a pipeline's inference slot (owns its compiled
//!   program via `Arc` — no borrow lifetimes).
//! - [`ingest`]: the trace → data-plane front end ([`ingest::to_packet`]
//!   and [`ingest::ObsBuilder`]), shared by the sequential switch, the
//!   e2e harness, and the sharded runtime so every consumer derives
//!   identical register-stage observations.
//! - [`switch`]: [`switch::TaurusSwitch`] and [`switch::SwitchBuilder`],
//!   the public per-packet device API (Fig. 6's full pipeline, bypass
//!   included), hosting any number of apps side by side.
//! - [`update`]: live model updates ([`update::ModelUpdate`]) — the
//!   one versioned model record: what the control plane installs onto
//!   running switches ([`switch::TaurusSwitch::install_update`]) and
//!   what a rollback restores: program swap for CGRA engines, in-place
//!   edits for threshold engines, new formatter/MATs when quantization
//!   ranges move.
//! - [`e2e`]: the end-to-end experiment harness comparing Taurus against
//!   the control-plane baseline over identical traces (Table 8).
//!
//! # Quickstart
//!
//! ```
//! use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
//! use taurus_core::{e2e, SwitchBuilder};
//! use taurus_dataset::kdd::KddGenerator;
//! use taurus_dataset::trace::{PacketTrace, TraceConfig};
//!
//! // Train + quantize + compile the paper's anomaly-detection DNN on a
//! // small synthetic workload, then push a fresh trace through the switch.
//! let detector = AnomalyDetector::train_default(42, 2_000);
//! let records = KddGenerator::new(99).take(500);
//! let trace = PacketTrace::expand(records, &TraceConfig { seed: 99, ..Default::default() });
//! let report = e2e::run_taurus(&detector, &trace);
//! assert!(report.f1_percent > 0.0);
//!
//! // The same switch can host more apps, each with its own counters.
//! let switch = SwitchBuilder::new()
//!     .register(&detector)
//!     .register(&SynFloodDetector::default_deployment())
//!     .build();
//! assert_eq!(switch.report().apps.len(), 2);
//! ```

pub mod app;
pub mod apps;
pub mod e2e;
pub mod engine;
pub mod ingest;
pub mod switch;
pub mod update;

pub use app::{
    BoxedEngine, EngineBackend, FeatureFormatter, SwitchEngine, TaurusApp, VerdictPolicy,
};
pub use apps::{AnomalyDetector, ReactionTime, SynFloodDetector};
pub use engine::CgraEngine;
pub use ingest::{IngestError, IngestValidator, ObsBuilder};
pub use switch::{
    AppCounters, AppReport, DuplicateAppError, ReportMergeError, SwitchBuilder, SwitchReport,
    SwitchVerdict, TaurusSwitch,
};
pub use update::{
    check_install, EngineKind, EngineUpdate, FormatterFactory, ModelUpdate, UpdateError,
};
