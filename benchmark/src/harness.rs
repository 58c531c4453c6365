//! The two passes every number is taken from, written once so the
//! untraced gate and the traced probe drive the system identically.
//!
//! This is the whole surface the end-to-end gate touches:
//! `SwitchBuilder`, `TaurusSwitch::{process_trace_verdict,
//! install_update, reset, report, ml_latency_ns}`,
//! `RuntimeBuilder::{shards, parse_workers, batch_size, config,
//! register_on, build_streaming}` and `StreamingRuntime::{feed, drain,
//! reset, install_update, shutdown}`. A later PR that deletes anything
//! else costs a probe, never the gate.

use taurus_core::{ModelUpdate, SwitchBuilder, SwitchReport, TaurusSwitch};
use taurus_ml::BinaryMetrics;
use taurus_runtime::{RuntimeBuilder, RuntimeReport, StreamingRuntime};

use crate::workload::Workload;

/// Packets per ingest→worker batch (the load shape is part of the
/// benchmark definition, like the workloads).
pub const BATCH_SIZE: usize = 256;

/// Packets per timed block of the sequential pass. The quiet estimator
/// is steady when a block fits inside the host's quiet moments: at 4096
/// packets `switch_pps` spread 2–8 % between runs of one binary, at 256
/// it spreads 0.2–1 %. One `Instant` pair per 256 packets costs the
/// cheapest workload under 0.3 ns per packet.
pub const SWITCH_BLOCK: usize = 256;

/// Span / cell names of the harness calls.
pub mod names {
    /// [`super::SWITCH_BLOCK`] packets through `process_trace_verdict`
    /// (+ the chunk's install, on its last block).
    pub const SWITCH_BLOCK: &str = "switch.block";
    pub const SWITCH_INSTALL: &str = "core.switch.install_update";
    pub const SWITCH_RESET: &str = "core.switch.reset";
    /// One `feed` plus the barrier that ends its chunk (`drain`, or the
    /// install on `ad-dnn-live`): what `stream_pps` sums.
    pub const STREAM_BLOCK: &str = "stream.block";
    pub const FEED: &str = "runtime.service.feed";
    pub const INSTALL: &str = "runtime.service.install_update";
    pub const DRAIN: &str = "runtime.service.drain";
    pub const RESET: &str = "runtime.service.reset";
}

/// Where a pass reports its timed regions. `begin` reads the clock last
/// and `end` reads it first; a recorder that does not care about a name
/// returns a token without touching the clock.
pub trait Recorder {
    type Token;
    fn begin(&mut self, name: &'static str, block: usize) -> Self::Token;
    fn end(&mut self, token: Self::Token);
}

/// Warm-up, set-up and oracle passes: nothing is timed.
pub struct Untimed;

impl Recorder for Untimed {
    type Token = ();
    fn begin(&mut self, _: &'static str, _: usize) {}
    fn end(&mut self, (): ()) {}
}

/// The sequential device: one `TaurusSwitch` on the calling thread.
pub fn build_switch(w: &Workload) -> TaurusSwitch {
    SwitchBuilder::new().config(w.config.clone()).register_on(w.app(), w.backend).build()
}

/// The resident service: inline ingest on the calling thread, `shards`
/// engine workers behind SPSC lanes with `Block` backpressure.
pub fn build_runtime(w: &Workload, shards: usize) -> StreamingRuntime {
    RuntimeBuilder::new()
        .shards(shards)
        .parse_workers(0)
        .batch_size(BATCH_SIZE)
        .config(w.config.clone())
        .register_on(w.app(), w.backend)
        .build_streaming()
}

/// One sequential pass: `reset`, then the trace packet by packet
/// through `process_trace_verdict` in [`SWITCH_BLOCK`]-packet blocks;
/// a live workload installs after every chunk, inside that chunk's last
/// block.
pub fn switch_pass<R: Recorder>(
    w: &Workload,
    switch: &mut TaurusSwitch,
    update: &mut ModelUpdate,
    rec: &mut R,
) -> SwitchReport {
    let t = rec.begin(names::SWITCH_RESET, 0);
    switch.reset();
    rec.end(t);
    let mut index = 0;
    for chunk in w.trace.packets.chunks(w.chunk) {
        let mut blocks = chunk.chunks(SWITCH_BLOCK).peekable();
        while let Some(packets) = blocks.next() {
            let block = rec.begin(names::SWITCH_BLOCK, index);
            for tp in packets {
                std::hint::black_box(switch.process_trace_verdict(tp));
            }
            if w.live && blocks.peek().is_none() {
                update.version += 1;
                let t = rec.begin(names::SWITCH_INSTALL, index);
                switch.install_update(update).expect("a fresh version of a hosted app installs");
                rec.end(t);
            }
            rec.end(block);
            index += 1;
        }
    }
    switch.report()
}

/// What one stream pass produced, summed over its drains.
#[derive(Default)]
pub struct StreamOutcome {
    /// The final drain's merged report (replica reports are cumulative
    /// since `reset`, so this covers the whole pass).
    pub merged: SwitchReport,
    /// Packets refused an ML verdict: shed, degraded or quarantined.
    pub refused: u64,
    /// Deployed verdicts against ground truth, every segment of every
    /// drain.
    pub confusion: BinaryMetrics,
    /// `(packets, batches)` per shard.
    pub shard_load: Vec<(u64, u64)>,
}

impl StreamOutcome {
    fn absorb(&mut self, report: RuntimeReport) {
        self.refused += report.overload.refused();
        for segment in &report.segments {
            self.confusion.absorb(segment);
        }
        self.shard_load.resize(report.shards.len().max(self.shard_load.len()), (0, 0));
        for s in &report.shards {
            self.shard_load[s.shard].0 += s.packets;
            self.shard_load[s.shard].1 += s.batches;
        }
        self.merged = report.merged;
    }

    /// Packets of this pass that did not get the sequential oracle's
    /// treatment: everything refused, plus the whole pass if the merged
    /// report differs from the oracle's in any bit.
    pub fn failed_packets(&self, w: &Workload, oracle: &SwitchReport) -> u64 {
        if self.merged == *oracle {
            self.refused
        } else {
            w.trace.packets.len() as u64
        }
    }
}

/// One stream pass: `reset`, then chunk by chunk `feed` + barrier, then
/// a final `drain`. Closed loop, one client: the next call starts when
/// the previous returns, and `Block` backpressure paces `feed`.
///
/// Each block ends on a barrier — `drain` (a report every chunk), or on
/// a live workload the install itself, which waits for everything
/// queued — so a block's time is all of its packets' time. A `feed`
/// alone returns once its packets are *queued*: without the barrier,
/// backpressure moves time between the feeds of a pass, per-feed blocks
/// let the quiet composite pick every feed's luckiest queue state (it
/// read 17 Mpkt/s on a service whose best whole pass ran at 11), and a
/// whole pass as one block is too long to fit the host's quiet moments
/// (12–22 % spread between runs of one binary).
pub fn stream_pass<R: Recorder>(
    w: &Workload,
    runtime: &mut StreamingRuntime,
    update: &mut ModelUpdate,
    rec: &mut R,
) -> StreamOutcome {
    let t = rec.begin(names::RESET, 0);
    runtime.reset();
    rec.end(t);
    let mut outcome = StreamOutcome::default();
    let mut blocks = 0;
    for (i, chunk) in w.trace.packets.chunks(w.chunk).enumerate() {
        let block = rec.begin(names::STREAM_BLOCK, i);
        let t = rec.begin(names::FEED, i);
        runtime.feed(chunk);
        rec.end(t);
        if w.live {
            update.version += 1;
            let t = rec.begin(names::INSTALL, i);
            runtime.install_update(update).expect("a fresh version of a hosted app installs");
            rec.end(t);
            rec.end(block);
        } else {
            let t = rec.begin(names::DRAIN, i);
            let report = runtime.drain();
            rec.end(t);
            rec.end(block);
            outcome.absorb(report);
        }
        blocks = i + 1;
    }
    if w.live {
        let block = rec.begin(names::STREAM_BLOCK, blocks);
        let t = rec.begin(names::DRAIN, blocks);
        let report = runtime.drain();
        rec.end(t);
        rec.end(block);
        outcome.absorb(report);
    }
    outcome
}
