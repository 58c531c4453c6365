//! A bounded single-producer / single-consumer channel.
//!
//! The runtime's ingest side feeds each engine worker over exactly one
//! of these: bounded so a slow shard back-pressures ingest instead of
//! ballooning memory (the software analogue of a switch's ingress
//! queues), SPSC because routing is deterministic — every packet has
//! exactly one home shard. The steer stage (`crate::pipeline`) builds
//! both of its lane kinds on this primitive: the ingest→engine steer
//! lanes and their recycle returns — each pair is
//! single-producer/single-consumer by construction (one feeding
//! thread, one engine per steer lane).
//!
//! Implemented on `Mutex<VecDeque>` + two condvars rather than a
//! lock-free ring: the payload is a whole packet batch, so the channel
//! is traversed once per *batch*, not per packet, and lock cost is
//! amortized away. Endpoints are deliberately `!Clone`.
//!
//! Blocked endpoints **spin briefly before parking**: when the peer is
//! one batch away from making room (the common hot-path case — cheap
//! engines drain batches in microseconds), a few polling retries with
//! yields avoid the full park/unpark round trip through the scheduler
//! that used to dominate the channel cost at high shard counts. The
//! spin is bounded (`SPIN_TRIES`) and yields the core on every
//! iteration, so oversubscribed configurations (more shards than
//! cores) degrade to the old park-immediately behavior after a few
//! scheduling quanta rather than burning the peer's CPU.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Bounded polling retries before a blocked endpoint parks on its
/// condvar. Each retry yields, so the worst case adds a handful of
/// scheduler quanta, never a busy-wait.
const SPIN_TRIES: u32 = 32;

/// Recovers the guard from a poisoned lock instead of panicking.
///
/// The channel's invariants are a `VecDeque` plus two liveness booleans
/// — every mutation is a single push/pop/store, so a peer that panicked
/// *while holding the lock* still left the state coherent. Unwrapping
/// the poison keeps one panicked endpoint from cascading a second panic
/// through every other channel user (the supervised-recovery paths need
/// the surviving side to keep draining).
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The send half failed because the receiver is gone; returns the
/// unsent value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The receive half failed because the channel is empty and the sender
/// is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing buffered right now; the sender is still alive.
    Empty,
    /// Nothing buffered and the sender is gone — nothing will ever
    /// arrive.
    Disconnected,
}

/// Why [`Sender::send_timeout`] gave up; carries the unsent value back
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The channel stayed full past the deadline; the receiver is still
    /// alive. This is the overload-control signal: a lane that would
    /// not accept a batch within the configured patience.
    Timeout(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// Why [`Receiver::recv_timeout`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the deadline; the sender is still alive.
    /// The caller decides whether that is a stalled peer (watchdog
    /// diagnostics) or just a quiet channel.
    Timeout,
    /// The channel is empty and the sender is gone.
    Disconnected,
}

struct State<T> {
    buf: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The producing endpoint. Dropping it closes the channel: the receiver
/// drains what was sent, then sees [`RecvError`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming endpoint. Dropping it makes further sends fail fast.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC channel holding at most `capacity` in-flight
/// items.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-depth queue would deadlock the
/// non-rendezvous protocol).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "spsc channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity),
            sender_alive: true,
            receiver_alive: true,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// The instant `timeout` from now, or `None` — wait without a deadline
/// — when that lies beyond what [`Instant`] can represent.
fn deadline(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

impl<T> Shared<T> {
    /// The one wait loop behind every blocking call: returns the locked
    /// state once `ready` holds, or `None` once `deadline` has passed.
    /// Up to [`SPIN_TRIES`] failed checks release the lock and yield
    /// (see the module docs) before the endpoint parks on `wake`; a
    /// spurious or timed-out wake just re-checks. Without a deadline
    /// the clock is never read; with one, every failed check reads it,
    /// so a zero timeout is a single attempt.
    fn wait(
        &self,
        wake: &Condvar,
        deadline: Option<Instant>,
        ready: impl Fn(&State<T>) -> bool,
    ) -> Option<MutexGuard<'_, State<T>>> {
        let mut spins = 0;
        let mut state = recover(self.state.lock());
        loop {
            if ready(&state) {
                return Some(state);
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                return None;
            }
            state = if spins < SPIN_TRIES {
                spins += 1;
                drop(state);
                std::hint::spin_loop();
                std::thread::yield_now();
                recover(self.state.lock())
            } else if let Some(remaining) = remaining {
                wake.wait_timeout(state, remaining).unwrap_or_else(PoisonError::into_inner).0
            } else {
                recover(wake.wait(state))
            };
        }
    }
}

impl<T> Sender<T> {
    /// Queues `value` once there is room, waiting until `deadline`
    /// (forever without one).
    fn send_by(&self, value: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
        let shared = &*self.shared;
        let unblocked = |s: &State<T>| !s.receiver_alive || s.buf.len() < shared.capacity;
        let Some(mut state) = shared.wait(&shared.not_full, deadline, unblocked) else {
            return Err(SendTimeoutError::Timeout(value));
        };
        if !state.receiver_alive {
            return Err(SendTimeoutError::Disconnected(value));
        }
        state.buf.push_back(value);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Sends one item, spinning briefly and then blocking while the
    /// channel is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] carrying the item back if the receiver was dropped.
    // Out of line on purpose, like `Receiver::recv`: the callers are
    // the per-packet ingest loop (through the steer stage's flush) and
    // the engine worker's batch loop, and inlining these wrappers there
    // (with the message's drop glue on the error path) cost the
    // benchmark's `syn-thresh/stream_pps` about 10 % (`send`) and 4 %
    // (`recv`).
    #[inline(never)]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_by(value, None).map_err(|e| match e {
            SendTimeoutError::Disconnected(v) | SendTimeoutError::Timeout(v) => SendError(v),
        })
    }

    /// Sends one item, giving up after `timeout`.
    ///
    /// This is the patience flavor of [`Sender::send`]: the steer stage
    /// uses it under [`crate::OverloadPolicy::Degrade`], so a saturated
    /// shard costs ingest at most the configured patience per batch
    /// instead of backpressuring the whole fleet into a stall. A zero
    /// timeout is a single immediate attempt, without the spin phase's
    /// yields; a timeout past the clock's range (`Duration::MAX`) is no
    /// deadline at all.
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::Timeout`] if the channel stayed full past the
    /// deadline, [`SendTimeoutError::Disconnected`] if the receiver was
    /// dropped; both carry the item back.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_by(value, deadline(timeout))
    }
}

impl<T> Receiver<T> {
    /// Pops the oldest buffered item, telling the sender there is room.
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let value = state.buf.pop_front()?;
        self.shared.not_full.notify_one();
        Some(value)
    }

    /// Takes the next item, waiting until `deadline` (forever without
    /// one). Buffered items are drained before a dropped sender is
    /// reported.
    fn recv_by(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let unblocked = |s: &State<T>| !s.buf.is_empty() || !s.sender_alive;
        let mut state = self
            .shared
            .wait(&self.shared.not_empty, deadline, unblocked)
            .ok_or(RecvTimeoutError::Timeout)?;
        self.pop(&mut state).ok_or(RecvTimeoutError::Disconnected)
    }

    /// Receives the next item, spinning briefly and then blocking while
    /// the channel is empty.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is empty *and* the sender was
    /// dropped — in-flight items are always drained first.
    #[inline(never)] // see `Sender::send`
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_by(None).map_err(|_| RecvError)
    }

    /// Receives the next item if one is already buffered, never
    /// blocking (and never spinning) — the ingest thread polls its
    /// recycle lanes with this between batches.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is buffered,
    /// [`TryRecvError::Disconnected`] when additionally the sender is
    /// gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = recover(self.shared.state.lock());
        if let Some(v) = self.pop(&mut state) {
            return Ok(v);
        }
        if !state.sender_alive {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Receives the next item, giving up after `timeout`.
    ///
    /// This is the watchdog flavor of [`Receiver::recv`]: the service's
    /// control plane uses it when awaiting a reply from an engine worker
    /// that may have stalled or died mid-protocol, so a wedged shard
    /// yields a diagnostic instead of hanging `drain()` forever. Same
    /// drain-first semantics as `recv` — buffered items are returned
    /// even after the sender is gone — and the same single attempt at a
    /// zero timeout, and the same deadline-free wait past the clock's
    /// range, as [`Sender::send_timeout`].
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived within the
    /// deadline, [`RecvTimeoutError::Disconnected`] once the channel is
    /// empty and the sender was dropped.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_by(deadline(timeout))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = recover(self.shared.state.lock());
        state.sender_alive = false;
        drop(state);
        self.shared.not_empty.notify_all();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = recover(self.shared.state.lock());
        state.receiver_alive = false;
        state.buf.clear(); // sender's items will never be consumed
        drop(state);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn drained_then_closed() {
        let (tx, rx) = channel(8);
        tx.send("a").unwrap();
        tx.send("b").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert_eq!(rx.recv(), Ok("b"));
        assert_eq!(rx.recv(), Err(RecvError), "closed after drain");
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = channel(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn bounded_send_blocks_until_receiver_drains() {
        let (tx, rx) = channel(1);
        tx.send(0u64).unwrap();
        let producer = thread::spawn(move || {
            // This second send must block until the consumer pops.
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn cross_thread_stress_preserves_order() {
        let (tx, rx) = channel(3);
        let n = 10_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send(i).unwrap();
            }
        });
        for expect in 0..n {
            assert_eq!(rx.recv(), Ok(expect));
        }
        assert_eq!(rx.recv(), Err(RecvError));
        producer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = channel::<u8>(0);
    }

    #[test]
    fn sender_dropped_while_receiver_is_mid_drain() {
        // The receiver is actively consuming when the sender goes away:
        // everything already sent must still arrive, in order, and only
        // then does RecvError surface — no deadlock, no lost items.
        let (tx, rx) = channel(2);
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
            // tx dropped here, quite possibly while the receiver is
            // blocked inside recv() waiting for item 100.
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
            // Let the sender race ahead and (eventually) die while we
            // are mid-drain.
            if got.len() % 10 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError), "closed stays closed");
    }

    #[test]
    fn receiver_dropped_while_sender_is_blocked_on_a_full_queue() {
        // The sender is parked in send() on a full channel when the
        // receiver disappears: it must wake up with SendError (carrying
        // the unsent value back) instead of deadlocking forever.
        let (tx, rx) = channel(1);
        tx.send(0u64).unwrap();
        let producer = thread::spawn(move || {
            // The channel is full: this blocks until the receiver drops.
            tx.send(1)
        });
        thread::sleep(Duration::from_millis(20)); // let the sender park
        drop(rx);
        let result = producer.join().unwrap();
        assert_eq!(result, Err(SendError(1)), "blocked sender wakes with its value back");
    }

    #[test]
    fn try_recv_never_blocks_and_reports_both_empty_states() {
        let (tx, rx) = channel(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "empty, sender alive");
        tx.send(5u32).unwrap();
        assert_eq!(rx.try_recv(), Ok(5));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "empty, sender gone");
    }

    #[test]
    fn try_recv_drains_in_flight_items_before_reporting_disconnect() {
        let (tx, rx) = channel(4);
        tx.send("a").unwrap();
        tx.send("b").unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok("a"));
        assert_eq!(rx.try_recv(), Ok("b"));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn receiver_dropped_with_items_still_queued_fails_subsequent_sends_fast() {
        let (tx, rx) = channel(4);
        tx.send("queued").unwrap();
        drop(rx);
        // Not blocked — the queue had room — but the receiver is gone:
        // the send must fail immediately rather than buffer into a void.
        assert_eq!(tx.send("after"), Err(SendError("after")));
    }

    #[test]
    fn send_timeout_expires_on_a_full_live_channel() {
        let (tx, rx) = channel(1);
        tx.send(0u8).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(
            tx.send_timeout(1, Duration::from_millis(30)),
            Err(SendTimeoutError::Timeout(1)),
            "value comes back after the patience runs out"
        );
        assert!(start.elapsed() >= Duration::from_millis(30), "deadline honored");
        drop(rx);
    }

    #[test]
    fn send_timeout_with_zero_patience_is_a_single_attempt() {
        let (tx, rx) = channel(1);
        assert_eq!(tx.send_timeout(7u64, Duration::ZERO), Ok(()), "room: immediate success");
        assert_eq!(
            tx.send_timeout(8, Duration::ZERO),
            Err(SendTimeoutError::Timeout(8)),
            "full: immediate refusal, no 32-yield spin"
        );
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn send_timeout_succeeds_when_the_receiver_drains_within_the_deadline() {
        let (tx, rx) = channel(1);
        tx.send(0u32).unwrap();
        let consumer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(0));
            rx // keep the receiver alive past the send
        });
        assert_eq!(tx.send_timeout(1, Duration::from_secs(5)), Ok(()));
        let rx = consumer.join().unwrap();
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn send_timeout_wakes_with_disconnect_when_the_receiver_drops() {
        // The sender is parked inside send_timeout on a full channel
        // when the receiver disappears: it must wake with Disconnected
        // (not run out the clock, not deadlock).
        let (tx, rx) = channel(1);
        tx.send(0u64).unwrap();
        let producer = thread::spawn(move || tx.send_timeout(1, Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(20)); // let the sender park
        let start = std::time::Instant::now();
        drop(rx);
        let result = producer.join().unwrap();
        assert_eq!(result, Err(SendTimeoutError::Disconnected(1)));
        assert!(start.elapsed() < Duration::from_secs(5), "woken, not timed out");
    }

    #[test]
    fn recv_timeout_expires_on_a_quiet_live_channel() {
        let (tx, rx) = channel::<u8>(2);
        let start = std::time::Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(30), "deadline honored");
        drop(tx);
    }

    #[test]
    fn recv_timeout_with_zero_patience_is_a_single_attempt() {
        let (tx, rx) = channel(1);
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout),
            "empty: immediate refusal, no 32-yield spin"
        );
        tx.send(7u64).unwrap();
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(7), "buffered: immediate success");
    }

    #[test]
    fn timeouts_beyond_the_clock_range_wait_without_a_deadline() {
        // `Instant::now() + Duration::MAX` overflows; the endpoints must
        // treat such a timeout as "no deadline", not panic.
        let (tx, rx) = channel(1);
        assert_eq!(tx.send_timeout(1u8, Duration::MAX), Ok(()), "room: immediate success");
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1), "buffered: immediate success");
        tx.send(2).unwrap(); // full: only the dropped receiver can end the wait
        drop(rx);
        assert_eq!(tx.send_timeout(3, Duration::MAX), Err(SendTimeoutError::Disconnected(3)));
        let (tx, rx) = channel::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::MAX), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn recv_timeout_returns_items_that_arrive_before_the_deadline() {
        let (tx, rx) = channel(2);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(42u32).unwrap();
            tx // keep the sender alive past the recv
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        drop(producer.join().unwrap());
    }

    #[test]
    fn recv_timeout_drains_then_reports_disconnect() {
        let (tx, rx) = channel(4);
        tx.send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("a"));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected),
            "disconnect reported immediately, not after the timeout"
        );
    }
}
