//! # taurus-runtime — the sharded multi-core switch runtime
//!
//! The paper's Taurus device processes every packet through per-packet
//! ML at line rate; one simulated [`TaurusSwitch`] on one thread cannot
//! come close. This crate is the execution layer above the single
//! device: one runtime type, [`StreamingRuntime`], hosts **N
//! independent switch replicas** on resident worker threads, routes
//! packets **flow-consistently by register slot** ([`shard_of`]:
//! `flow_key % flow_slots` folded onto the shard count — by *bucket*
//! under a keyed flow table — so flows that share per-flow state share
//! a shard for any shard count), feeds workers **fixed-size batches
//! over bounded SPSC channels** ([`spsc`]), and **merges** the
//! per-shard [`SwitchReport`]s into one global report.
//!
//! The load-bearing property is *exactness*: on the same trace, the
//! merged report equals the sequential switch's report bit for bit —
//! counters, drops, flags (see [`runtime`] module docs for why, and
//! `tests/determinism.rs` for the pinning suite). Parallelism changes
//! the wall clock, never the semantics.
//!
//! The service is push-style and long-lived ([`service`]): engine
//! workers are spawned once and stay resident across
//! [`StreamingRuntime::feed`] / [`StreamingRuntime::drain`] cycles
//! ([`StreamingRuntime::run_trace`] is one of each), and one ingest
//! loop on the feeding thread — parse, merge, steer, packet by packet
//! ([`pipeline`]) — serves every geometry.
//!
//! The runtime also serves **live model updates**: a
//! [`taurus_core::ModelUpdate`] scheduled via
//! [`StreamingRuntime::schedule_update`] is applied on every shard at
//! the same global stream index (an in-band message at a batch
//! boundary), extending the exactness guarantee across weight swaps;
//! [`StreamingRuntime::install_update`] is the same barrier at the
//! current position, its verdict rendered feeder-side, nobody waited
//! for; the canary protocol ([`StreamingRuntime::begin_canary`] /
//! [`StreamingRuntime::conclude_canary`]) is in-band too, its probation
//! metrics the one reply the control plane reads; and
//! [`deploy::run_online_deployment`] closes the §5.2.3 loop by training
//! online against the live runtime and measuring the *deployed* F1.
//!
//! Flow state stays bounded on endless streams: the per-flow table
//! supports idle-timeout eviction
//! ([`taurus_pisa::PipelineConfig::idle_timeout_ns`]), and the keyed
//! set-associative flow table ([`taurus_pisa::FlowTableKind::Keyed`])
//! keeps per-flow counters in `buckets × ways` keyed entries with
//! oldest-last-seen replacement, resolves flow starts by table-miss
//! semantics (deleting the unbounded per-connection seen-set from
//! ingest), and routes by *bucket* so sharding stays exact —
//! replacement only ever involves one bucket, and a bucket lives on
//! one shard (`tests/keyed.rs` pins the sweep).
//!
//! ```
//! use taurus_core::apps::SynFloodDetector;
//! use taurus_core::EngineBackend;
//! use taurus_dataset::kdd::KddGenerator;
//! use taurus_dataset::trace::{PacketTrace, TraceConfig};
//! use taurus_runtime::RuntimeBuilder;
//!
//! let syn = SynFloodDetector::default_deployment();
//! let mut runtime = RuntimeBuilder::new()
//!     .shards(4)
//!     .batch_size(32)
//!     .register_on(&syn, EngineBackend::Threshold)
//!     .build();
//!
//! let records = KddGenerator::new(7).take(100);
//! let trace = PacketTrace::expand(records, &TraceConfig::default());
//! let report = runtime.run_trace(&trace);
//! assert_eq!(report.merged.packets, trace.packets.len() as u64);
//! ```
//!
//! [`TaurusSwitch`]: taurus_core::TaurusSwitch
//! [`SwitchReport`]: taurus_core::SwitchReport

pub mod deploy;
pub mod fault;
pub mod overload;
pub mod pipeline;
pub mod runtime;
pub mod service;
pub mod spsc;

pub use deploy::{run_online_deployment, DeploymentConfig, DeploymentReport, DeploymentRound};
pub use fault::{
    canary_decision, CanaryDecision, CanaryGuardrails, CanaryVerdictRecord, FaultPlan, FaultRecord,
    FaultRecordKind, FaultReport, InstallError, ShardError,
};
pub use overload::{OverloadPolicy, OverloadReport, QuarantineCounts};
pub use pipeline::{parse_packet, resolve_and_count, ParsedSlot};
pub use runtime::{
    shard_of, BuildError, PreparedPacket, RuntimeBuilder, RuntimeReport, ShardStats,
};
pub use service::StreamingRuntime;
