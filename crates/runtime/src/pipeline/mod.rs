//! The two halves of one packet's ingest, and the steer stage behind
//! them.
//!
//! ```text
//!            ┌──────────────────────────────────────────┐   PreparedPacket   ┌───────────────┐
//!  trace ──▶ │ feeding thread: parse → merge → steer    │ ─────batches─────▶ │ engine worker │
//!  (slices)  │ order-free    order-bound   home shard's │   (recycled-arena  │     0..S      │
//!            │ keys + route  windows+seen  staging slot │     SPSC lanes)    │  MATs + CGRA  │
//!            └──────────────────────────────────────────┘                    └───────────────┘
//! ```
//!
//! Every packet is *parsed* (`stage.rs`: wire form, register keys, home
//! shard — packet-local, no shared state) and then *merged* (`steer.rs`:
//! the flow directory's slot op, flow-start resolution and the one shared
//! `CrossFlowWindows` walk, in global arrival order) by the thread that
//! called `feed`, right before it is written into its home shard's
//! staging arena. The loop that
//! strings the two together — with the update barrier, the ingest
//! frontier and admission in between — is `Ingest::merge_packet`
//! (`service/feed.rs`); there is no other ingest driver.
//!
//! [`parse_packet`] and [`resolve_and_count`] expose the same two
//! functions over a caller-held [`ParsedSlot`], for callers that time
//! or test a half on its own.
//!
//! # Update barrier
//!
//! Scheduled updates key on *global packet index*, so the merge step
//! applies the barrier per packet: flush every staged partial batch,
//! then enqueue the update in-band on every engine lane.

pub mod stage;
pub mod steer;

pub use stage::{parse_packet, ParsedSlot};
pub use steer::resolve_and_count;
