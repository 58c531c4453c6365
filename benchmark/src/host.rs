//! Host fingerprint and process accounting, read from `/proc`.

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` (honours cgroup limits and
    /// affinity masks).
    pub nproc: usize,
    pub cpu_model: String,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self { nproc, cpu_model }
    }

    /// Engine shards for this host: one core stays with the ingest
    /// (harness) thread, the rest — at most four — host workers, so the
    /// threads that spin never outnumber the cores.
    pub fn shards(&self) -> usize {
        self.nproc.saturating_sub(1).clamp(1, 4)
    }

    /// Whether even one shard plus the ingest thread exceeds the cores
    /// (a 1-core host): stream numbers then measure the scheduler.
    pub fn oversubscribed(&self) -> bool {
        1 + self.shards() > self.nproc
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time (user + system, all threads, children excluded) this
/// process has consumed, in seconds at the kernel's 10 ms tick — read
/// over multi-second windows only. 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed by the Linux ABI
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the full line.
            let rest = &text[text.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}
