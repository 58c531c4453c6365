//! Software PISA switch pipeline: parser, MATs, registers, scheduler.
//!
//! Taurus reuses a standard PISA (Protocol-Independent Switch
//! Architecture) pipeline for everything except inference (§4, Fig. 6):
//! packets parse into PHVs, preprocessing MATs and stateful registers
//! extract and format features, the MapReduce block (or a bypass path)
//! produces a verdict, postprocessing MATs turn it into a forwarding
//! decision, and a scheduler drains queues. This crate implements that
//! substrate in software with the same structural budgets the paper
//! cites (Tofino-like ops-per-stage limits, exact/LPM/ternary/range
//! matching, register arrays indexed by five-tuple hash).
//!
//! - [`packet`]: Ethernet/IPv4/TCP/UDP packets with byte-level
//!   serialization (built on `bytes`).
//! - [`phv`]: the Packet Header Vector, a fixed-layout field container.
//! - [`parser`]: the parse-graph state machine (wire bytes → PHV).
//! - [`mat`]: match-action tables with VLIW action budgets.
//! - [`range_table`]: monotone `u64 → code` step functions compiled to
//!   sorted thresholds — the preprocessing MAT behind feature formatters.
//! - [`registers`]: stateful register arrays and the flow-feature
//!   extractor used by the anomaly-detection application (§5.2.2).
//! - [`slot_index`]: `key mod len` for one table, as a mask when the
//!   length is a power of two — behind every table above.
//! - [`sched`]: FIFO queues, the round-robin ML/bypass join, and a
//!   strict-priority + deficit-round-robin egress scheduler.
//! - [`pipeline`]: the assembled Taurus data plane with per-block latency
//!   accounting and a pluggable inference engine.

pub mod flow_table;
pub mod mat;
pub mod packet;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod range_table;
pub mod registers;
pub mod sched;
pub mod slot_index;

pub use flow_table::{Access, FlowEntry, FlowTable, FlowTableKind};
pub use mat::{Action, MatchKind, MatchTable, VliwOp};
pub use packet::Packet;
pub use parser::Parser;
pub use phv::{Field, Phv};
pub use pipeline::{
    FeatureFormatter, InferenceEngine, LinearThresholdEngine, PipelineConfig, PipelineResult,
    TaurusPipeline, ThresholdEngine, Verdict,
};
pub use range_table::{RangeTable, RangeTableError};
pub use registers::{CrossFlowWindows, FlowFeatures, FlowTracker, PacketObs, RegisterArray};
pub use slot_index::SlotIndex;
