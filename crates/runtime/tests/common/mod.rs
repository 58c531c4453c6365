//! Helpers shared by the runtime's integration suites.

use std::time::{Duration, Instant};

/// Runs `f` on a watchdog thread so a deadlocked path fails the test
/// instead of hanging the suite.
pub fn within(timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let start = Instant::now();
    let handle = std::thread::spawn(f);
    while !handle.is_finished() {
        assert!(start.elapsed() < timeout, "run deadlocked (> {timeout:?})");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("watchdogged closure panicked");
}
