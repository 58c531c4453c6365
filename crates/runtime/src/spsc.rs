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
//! amortized away. A ring would also need raw access to its slots,
//! which the house rules allow only in the CGRA's SIMD kernels.
//! Endpoints are deliberately `!Clone`.
//!
//! What the lock does cost is its cache line. The two endpoints run on
//! different cores, and every acquisition moves the mutex's line to the
//! acquiring core. A blocked sender that re-locks to ask "is there room
//! yet?" takes that line away from the receiver that is about to pop,
//! and the pop then pays for getting it back. So a blocked endpoint
//! takes the lock to act, not to ask:
//!
//! - **Progress counters.** Each endpoint publishes a count of its own
//!   progress: the sender counts items sent, the receiver items popped,
//!   and closing an endpoint bumps its count once more. An endpoint
//!   whose check failed reads its peer's count under the lock, then
//!   polls it and takes the lock again only once it has moved. A call
//!   that finds the lane ready reads no count at all. Each count is
//!   written by its own endpoint alone, so a publish is a plain load
//!   and store, not a locked read-modify-write (one shared `fetch_add`
//!   counter made a same-thread send + recv ≈ 10–15 ns slower on a
//!   2-vCPU x86 host). Each count sits on a cache line of its own, so
//!   polling it never pulls the mutex's line or the other count away
//!   from the core that writes them. And each is stored *after* the
//!   endpoint releases the mutex, so a poller that sees the count move
//!   finds the lock free rather than spinning on it while the
//!   publisher finishes its critical section.
//! - **Parking.** A wake costs more than the lock:
//!   `Condvar::notify_one` makes a `FUTEX_WAKE` system call even when
//!   nothing waits (≈ 240 ns on a 2-vCPU x86 host, against ≈ 20 ns for
//!   an uncontended lock and unlock). So an endpoint marks itself
//!   parked, under the lock, just before it waits on its condvar and
//!   clears the mark when it wakes, and its peer notifies only while
//!   the mark is set. Both sides read and write the marks under the one
//!   mutex, and a condvar wait releases that mutex atomically, so a
//!   wake-up cannot be lost. Dropping an endpoint still wakes every
//!   waiter unconditionally.
//!
//! The counters are hints and nothing more. An endpoint decides that it
//! can go on only from the state under the lock, and it re-checks that
//! state under the lock before it parks, so a publish that was missed
//! or raced costs at most the rest of the spin phase, never a wake-up.
//!
//! Blocked endpoints **spin briefly before parking**: when the peer is
//! one batch away from making room (the common hot-path case — cheap
//! engines drain batches in microseconds), polling the peer's counter
//! avoids the full park/unpark round trip through the scheduler. The
//! spin is bounded: at most `SPIN_TRIES` rounds of at most
//! `SPIN_TRIES` polls each, with a `spin_loop` hint between polls and
//! a yield of the core after every round in which the counter stood
//! still. So oversubscribed configurations (more shards than cores)
//! degrade to parking after a few scheduling quanta rather than
//! burning the peer's CPU.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Polling rounds before a blocked endpoint parks on its condvar, and
/// polls per round. A round whose polls all find the peer's counter
/// unmoved yields the core, so the worst case adds a handful of
/// scheduler quanta, never an unbounded busy-wait. 64 makes the spin
/// phase ≈ 100 µs on a 2-vCPU x86 host: long enough to ride out the gap
/// a drain barrier leaves between two batches, because an endpoint
/// that parks lets its vCPU go idle, and waking it back costs more than
/// the spin (half this measured 0.95× the stream rate).
const SPIN_TRIES: u32 = 64;

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
    /// The sender is waiting on `not_full`: a pop must notify it.
    sender_parked: bool,
    /// The receiver is waiting on `not_empty`: a send must notify it.
    receiver_parked: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// Items sent, plus one for the sender's close; the sender alone
    /// writes it.
    sent: Progress,
    /// Items popped, plus one for the receiver's close; the receiver
    /// alone writes it.
    popped: Progress,
}

/// One endpoint's progress count (see the module docs), on a cache line
/// of its own.
#[derive(Default)]
#[repr(align(64))]
struct Progress(AtomicU64);

impl Progress {
    /// Counts one step of the owning endpoint. Call it after releasing
    /// the mutex. One writer, so a load and a store make the increment.
    fn publish(&self) {
        self.0.store(self.0.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
    }

    /// The count now. Acquire: whatever the peer did under the lock
    /// before it published this count is visible to a lock taken after.
    fn read(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// One polling round: up to [`SPIN_TRIES`] reads until the count
    /// differs from `seen`. Returns whether it moved.
    fn moved_from(&self, seen: u64) -> bool {
        for _ in 0..SPIN_TRIES {
            if self.read() != seen {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }
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
            sender_parked: false,
            receiver_parked: false,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        sent: Progress::default(),
        popped: Progress::default(),
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
    /// After a failed check the endpoint releases the lock and polls
    /// `peer`, its peer's progress count (see the module docs), for up
    /// to [`SPIN_TRIES`] rounds, yielding after each round the count
    /// stood still, and re-locks as soon as the count moves or the
    /// rounds run out. Once they have run out, the endpoint parks on
    /// `wake`, with its `parked` mark set for the length of the wait; a
    /// spurious or timed-out wake just re-checks. Without a deadline
    /// the clock is never read; with one, every failed check and every
    /// polling round reads it, so a zero timeout is a single attempt.
    fn wait(
        &self,
        wake: &Condvar,
        parked: fn(&mut State<T>) -> &mut bool,
        peer: &Progress,
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
            if spins < SPIN_TRIES {
                // Read under the lock, after the failed check: the peer
                // publishes each later step after it takes and releases
                // this lock, so every such step moves the count past
                // `seen`. A ready call never reads the peer's line.
                let seen = peer.read();
                drop(state);
                while spins < SPIN_TRIES {
                    spins += 1;
                    if peer.moved_from(seen) {
                        break;
                    }
                    std::thread::yield_now();
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                }
                state = recover(self.state.lock());
                continue;
            }
            *parked(&mut state) = true;
            state = match remaining {
                Some(remaining) => {
                    wake.wait_timeout(state, remaining).unwrap_or_else(PoisonError::into_inner).0
                }
                None => recover(wake.wait(state)),
            };
            *parked(&mut state) = false;
        }
    }
}

impl<T> Sender<T> {
    /// Queues `value` once there is room, waiting until `deadline`
    /// (forever without one).
    fn send_by(&self, value: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
        let shared = &*self.shared;
        let unblocked = |s: &State<T>| !s.receiver_alive || s.buf.len() < shared.capacity;
        let parked: fn(&mut State<T>) -> &mut bool = |s| &mut s.sender_parked;
        let Some(mut state) =
            shared.wait(&shared.not_full, parked, &shared.popped, deadline, unblocked)
        else {
            return Err(SendTimeoutError::Timeout(value));
        };
        if !state.receiver_alive {
            return Err(SendTimeoutError::Disconnected(value));
        }
        state.buf.push_back(value);
        if state.receiver_parked {
            shared.not_empty.notify_one();
        }
        drop(state);
        shared.sent.publish();
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
    /// Pops the oldest buffered item, telling a parked sender there is
    /// room, and publishes the pop once the lock is released.
    fn pop(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
        let value = state.buf.pop_front()?;
        if state.sender_parked {
            self.shared.not_full.notify_one();
        }
        drop(state);
        self.shared.popped.publish();
        Some(value)
    }

    /// Takes the next item, waiting until `deadline` (forever without
    /// one). Buffered items are drained before a dropped sender is
    /// reported.
    fn recv_by(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let unblocked = |s: &State<T>| !s.buf.is_empty() || !s.sender_alive;
        let parked: fn(&mut State<T>) -> &mut bool = |s| &mut s.receiver_parked;
        let shared = &*self.shared;
        let state = shared
            .wait(&shared.not_empty, parked, &shared.sent, deadline, unblocked)
            .ok_or(RecvTimeoutError::Timeout)?;
        self.pop(state).ok_or(RecvTimeoutError::Disconnected)
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
        let state = recover(self.shared.state.lock());
        // `pop` releases the lock: read liveness under it first, so an
        // empty lane reports the sender as it was at the same instant.
        let sender_alive = state.sender_alive;
        match self.pop(state) {
            Some(v) => Ok(v),
            None if sender_alive => Err(TryRecvError::Empty),
            None => Err(TryRecvError::Disconnected),
        }
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
        self.shared.sent.publish();
        self.shared.not_empty.notify_all();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = recover(self.shared.state.lock());
        state.receiver_alive = false;
        state.buf.clear(); // sender's items will never be consumed
        drop(state);
        self.shared.popped.publish();
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// How long a woken endpoint may take before the test calls its
    /// wake-up lost.
    const WAKE_DEADLINE: Duration = Duration::from_secs(20);

    /// Runs `f` on its own thread; the returned receiver yields its
    /// result. Waiting on it with a deadline turns a lost wake-up into
    /// a failure instead of a hung suite.
    fn spawn_endpoint<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::sync::mpsc::Receiver<R> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || done_tx.send(f()));
        done_rx
    }

    /// Blocks until the endpoint whose mark `parked` reads has spun out
    /// and parked on its condvar.
    fn until_parked<T>(shared: &Shared<T>, parked: fn(&State<T>) -> bool) {
        let start = std::time::Instant::now();
        while !parked(&recover(shared.state.lock())) {
            assert!(start.elapsed() < WAKE_DEADLINE, "the endpoint never parked");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn woken<R>(done: &std::sync::mpsc::Receiver<R>) -> R {
        done.recv_timeout(WAKE_DEADLINE).expect("lost wake-up: the parked endpoint never woke")
    }

    #[test]
    fn a_receiver_parked_on_an_empty_lane_is_woken_by_a_send() {
        let (tx, rx) = channel::<u32>(2);
        let shared = Arc::clone(&tx.shared);
        let done = spawn_endpoint(move || rx.recv());
        until_parked(&shared, |s| s.receiver_parked);
        tx.send(7).unwrap();
        assert_eq!(woken(&done), Ok(7));
        assert!(!recover(shared.state.lock()).receiver_parked, "cleared on waking");
    }

    #[test]
    fn a_sender_parked_on_a_full_lane_is_woken_by_a_pop() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(0).unwrap();
        let shared = Arc::clone(&rx.shared);
        let done = spawn_endpoint(move || tx.send(1).map(|()| tx));
        until_parked(&shared, |s| s.sender_parked);
        assert_eq!(rx.recv(), Ok(0), "the pop makes room");
        let tx = woken(&done).expect("the receiver is alive");
        assert!(!recover(shared.state.lock()).sender_parked, "cleared on waking");
        assert_eq!(rx.recv(), Ok(1));
        drop(tx);
    }

    #[test]
    fn timed_waits_parked_past_the_spin_phase_are_woken_by_their_peer() {
        // Receiver: `recv_timeout` parks with a deadline far beyond the
        // test's, so only the send can end its wait in time.
        let (tx, rx) = channel::<u32>(1);
        let shared = Arc::clone(&tx.shared);
        let done =
            spawn_endpoint(move || rx.recv_timeout(Duration::from_secs(600)).map(|v| (v, rx)));
        until_parked(&shared, |s| s.receiver_parked);
        tx.send(3).unwrap();
        let (value, rx) = woken(&done).expect("woken before the deadline");
        assert_eq!(value, 3);

        // Sender: `send_timeout` parks on the full lane until a
        // `try_recv` pops.
        tx.send(4).unwrap();
        let done =
            spawn_endpoint(move || tx.send_timeout(5, Duration::from_secs(600)).map(|()| tx));
        until_parked(&shared, |s| s.sender_parked);
        assert_eq!(rx.try_recv(), Ok(4));
        let tx = woken(&done).expect("woken before the deadline");
        assert_eq!(rx.recv(), Ok(5));
        drop(tx);
    }

    #[test]
    fn a_two_thread_ping_pong_completes() {
        // Each message waits for its echo, so every round trip finds
        // one side parked or about to park: a lost wake-up anywhere in
        // 10^5 of them stalls the exchange.
        const ROUNDS: u64 = 100_000;
        let (ping_tx, ping_rx) = channel::<u64>(1);
        let (pong_tx, pong_rx) = channel::<u64>(1);
        let echo = spawn_endpoint(move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v + 1).unwrap();
            }
        });
        let done = spawn_endpoint(move || {
            for i in 0..ROUNDS {
                ping_tx.send(2 * i).unwrap();
                assert_eq!(pong_rx.recv(), Ok(2 * i + 1));
            }
        });
        let limit = Duration::from_secs(120);
        done.recv_timeout(limit).expect("the ping-pong stalled: a wake-up was lost");
        echo.recv_timeout(limit).expect("the echo ends when the pinger hangs up");
    }

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
        let shared = Arc::clone(&tx.shared);
        let producer = spawn_endpoint(move || {
            // This second send must block until the consumer pops.
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        until_parked(&shared, |s| s.sender_parked);
        let consumer = spawn_endpoint(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        assert_eq!(woken(&consumer), vec![0, 1, 2]);
        woken(&producer);
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
        let producer = spawn_endpoint(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
            // tx dropped here, quite possibly while the receiver is
            // blocked inside recv() waiting for item 100.
        });
        let consumer = spawn_endpoint(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
                // Let the sender race ahead and (eventually) die while
                // we are mid-drain.
                if got.len() % 10 == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            }
            (got, rx)
        });
        let (got, rx) = woken(&consumer);
        woken(&producer);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError), "closed stays closed");
    }

    /// Runs `wait` on its own thread and calls `close` a couple of
    /// microseconds after that thread starts to wait, over a few
    /// trials: past its first check, far from the end of its spin
    /// phase, so the close lands while it polls. `parked` reads the
    /// endpoint's mark just before the close; at least one trial must
    /// catch it unparked, or the test never reached the poll phase.
    /// The endpoint's result must arrive by the deadline in every
    /// trial.
    fn close_while_polling<E: Send + 'static, R: Send + 'static>(
        open: impl Fn() -> (E, Arc<Shared<u64>>, Box<dyn FnOnce()>),
        wait: fn(E) -> R,
        parked: fn(&State<u64>) -> bool,
        check: impl Fn(R),
    ) {
        use std::sync::atomic::AtomicBool;
        const TRIALS: usize = 20;
        let mut caught_polling = 0;
        for _ in 0..TRIALS {
            let (endpoint, shared, close) = open();
            let waiting = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&waiting);
            let done = spawn_endpoint(move || {
                flag.store(true, Ordering::Release);
                wait(endpoint)
            });
            while !waiting.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let started = Instant::now();
            while started.elapsed() < Duration::from_micros(2) {
                std::hint::spin_loop();
            }
            if !parked(&recover(shared.state.lock())) {
                caught_polling += 1;
            }
            close();
            check(woken(&done));
        }
        assert!(caught_polling > 0, "no trial closed the lane before the endpoint parked");
    }

    #[test]
    fn a_spinning_sender_on_a_full_lane_gets_its_value_back_when_the_receiver_drops() {
        close_while_polling(
            || {
                let (tx, rx) = channel::<u64>(1);
                tx.send(0).unwrap();
                let shared = Arc::clone(&tx.shared);
                (tx, shared, Box::new(move || drop(rx)))
            },
            |tx| tx.send(1),
            |s| s.sender_parked,
            |result| assert_eq!(result, Err(SendError(1))),
        );
    }

    #[test]
    fn a_spinning_receiver_gets_recv_error_when_the_sender_drops() {
        close_while_polling(
            || {
                let (tx, rx) = channel::<u64>(1);
                let shared = Arc::clone(&rx.shared);
                (rx, shared, Box::new(move || drop(tx)))
            },
            |rx| rx.recv(),
            |s| s.receiver_parked,
            |result| assert_eq!(result, Err(RecvError)),
        );
    }

    #[test]
    fn each_endpoint_publishes_its_sends_its_pops_and_its_close() {
        let (tx, rx) = channel(4);
        let shared = Arc::clone(&tx.shared);
        tx.send(1u8).unwrap();
        tx.send_timeout(2, Duration::ZERO).unwrap();
        tx.send(3).unwrap();
        assert_eq!(shared.sent.read(), 3);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(shared.popped.read(), 3, "an empty poll pops nothing");
        drop(tx);
        assert_eq!(shared.sent.read(), 4, "closing counts once");
        drop(rx);
        assert_eq!(shared.popped.read(), 4, "closing counts once");

        let (tx, rx) = channel(1);
        let shared = Arc::clone(&tx.shared);
        drop(rx);
        assert_eq!(tx.send(5u8), Err(SendError(5)));
        assert_eq!(shared.sent.read(), 0, "a refused send sent nothing");
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
    fn a_receiver_parked_on_an_empty_lane_gets_recv_error_when_the_sender_drops() {
        let (tx, rx) = channel::<u64>(1);
        let shared = Arc::clone(&tx.shared);
        let done = spawn_endpoint(move || rx.recv());
        until_parked(&shared, |s| s.receiver_parked);
        drop(tx);
        assert_eq!(woken(&done), Err(RecvError), "the close wakes the parked receiver");
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
            "full: immediate refusal, no spin phase"
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
            "empty: immediate refusal, no spin phase"
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
