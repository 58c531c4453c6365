//! In-memory spans for the traced run: one span around every harness
//! call into a layer, kept in a preallocated `Vec` and written out when
//! the run ends. Every per-layer timing the probe binary reports is
//! derived from these spans, so the trace file and the printed metrics
//! cannot disagree.

use std::fmt::Write as _;
use std::time::Instant;

use crate::estimator::BlockSamples;

/// Index of a span in its log.
pub type SpanId = u32;
/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: SpanId,
    /// Layer name: module path plus function (`pisa.parser.parse_into`).
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Block index within the pass (the quiet composite groups on it).
    pub block: u32,
    /// Whether the span goes into the trace file (the first pass of
    /// every phase does; later passes only feed the estimator).
    pub keep: bool,
}

/// A fixed-capacity span log. The capacity is reserved up front so the
/// timed regions never allocate; a full log refuses new spans and the
/// phase that hit the limit ends early.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// Whether fewer than `n` more spans fit.
    pub fn lacks_room_for(&self, n: usize) -> bool {
        self.spans.capacity() - self.spans.len() < n
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span: reads the clock last, so bookkeeping stays outside
    /// the interval.
    ///
    /// # Panics
    ///
    /// Panics when the log is full (callers check
    /// [`SpanLog::lacks_room_for`] once per pass, outside timed code).
    pub fn begin(
        &mut self,
        parent: SpanId,
        name: &'static str,
        block: usize,
        keep: bool,
    ) -> SpanId {
        assert!(self.spans.len() < self.spans.capacity(), "span log full");
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { parent, name, start_ns: 0, end_ns: 0, block: block as u32, keep });
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes a span: reads the clock first.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        block: usize,
        keep: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(parent, name, block, keep);
        let r = f();
        self.end(id);
        r
    }

    /// Durations of every span called `name`, grouped by block index.
    pub fn cell(&self, name: &str) -> BlockSamples {
        let mut cell = BlockSamples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            cell.push(s.block as usize, s.end_ns - s.start_ns);
        }
        cell
    }

    /// Writes the kept spans as a JSON array of
    /// `{id, parent, name, start_ns, end_ns, self_ns, block}`.
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("[\n");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.keep) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"block\": {}}}",
                s.name, s.start_ns, s.end_ns, self_ns[id], s.block
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, name: "t", start_ns, end_ns, block: 0, keep: true }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(NO_PARENT, 0, 100), // root
            span(0, 10, 30),         // child
            span(0, 40, 60),         // child
            span(1, 15, 20),         // grandchild: only shrinks span 1
        ];
        assert_eq!(self_times(&spans), vec![60, 15, 20, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = [
            span(NO_PARENT, 100, 200),
            span(0, 110, 150),
            span(0, 140, 170), // overlaps the previous child by 10
            span(0, 190, 250), // overhangs the parent by 50
            span(0, 120, 130), // nested inside the first child's cover
        ];
        // Cover: [110,170) = 60 plus [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn log_groups_durations_by_block_and_writes_only_kept_spans() {
        let mut log = SpanLog::with_capacity(8);
        for pass in 0..2 {
            for block in 0..3 {
                log.time(NO_PARENT, "layer", block, pass == 0, || std::hint::black_box(block));
            }
        }
        assert!(log.lacks_room_for(3));
        assert!(!log.lacks_room_for(2));
        let cell = log.cell("layer");
        assert_eq!(cell.passes(), 2);
        assert!(log.cell("other").is_empty());
        let json = log.to_json();
        assert_eq!(json.matches("\"name\": \"layer\"").count(), 3);
        assert!(json.contains("\"parent\": null"));
    }
}
