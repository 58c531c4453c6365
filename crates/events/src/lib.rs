//! Discrete-event simulation kernel for Taurus end-to-end experiments.
//!
//! The paper's §5.2 evaluation compares a per-packet data plane against a
//! control-plane loop whose behaviour is dominated by latency structure:
//! sampling, batching, database writes, batched inference, and rule
//! installation, all happening concurrently with traffic. This crate
//! provides the minimal deterministic event queue those simulations run
//! on: a nanosecond virtual clock and a binary-heap scheduler with stable
//! FIFO tie-breaking (events at the same timestamp pop in scheduling
//! order), so simulation results are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use taurus_events::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { PacketArrival, RuleInstalled }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimTime::from_micros(3), Ev::RuleInstalled);
//! q.schedule_in(SimTime::from_nanos(100), Ev::PacketArrival);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::PacketArrival);
//! assert_eq!(t.as_nanos(), 100);
//! assert_eq!(q.now(), t);
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use std::collections::BinaryHeap;

/// A point (or span) of virtual time, in nanoseconds.
///
/// The paper's quantities span nine orders of magnitude — nanosecond CU
/// pipelines (Table 6) up to half-second control-plane latencies
/// (Table 8) — all of which fit comfortably in a `u64` nanosecond count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds (rounds to nanoseconds;
    /// negative values clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self` (use
    /// [`SimTime::saturating_sub`] when order is unknown).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // FIFO order among equal timestamps.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list with a virtual clock.
///
/// Popping an event advances the clock to that event's timestamp. Events
/// scheduled for identical times are delivered in the order they were
/// scheduled.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), now: SimTime::ZERO, seq: 0 }
    }

    /// Current virtual time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`EventQueue::now`]; scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {now}",
            now = self.now
        );
        self.heap.push(Scheduled { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Schedules `event` after a `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_conversions() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_millis(1).as_millis_f64(), 1.0);
    }

    #[test]
    fn display_chooses_units() {
        assert_eq!(SimTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500µs");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_nanos(), 42);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "first");
        q.pop();
        q.schedule_in(SimTime::from_nanos(50), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_nanos(), 150);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_nanos(t), t);
            }
            let mut last = 0u64;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t.as_nanos() >= last);
                last = t.as_nanos();
            }
        }

        #[test]
        fn prop_all_events_delivered(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_nanos(t), ());
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            prop_assert_eq!(n, times.len());
        }
    }
}
