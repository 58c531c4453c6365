//! The quiet-composite estimator every timed metric goes through.
//!
//! Noise on the shared hosts this runs on is additive and episodic: a
//! neighbour steals cycles for seconds at a time, roughly doubling the
//! cost of IPC-heavy code, while the program's own cost is the floor
//! under it. Medians therefore track the neighbour and low quantiles
//! track the program. A timed pass is cut into fixed blocks, every block
//! index collects one sample per pass, and the reported time of a pass
//! is the sum over block indices of a low quantile of that index's
//! samples — each block gets to pick its own quiet moment, so one noisy
//! episode cannot poison the whole pass the way it poisons a per-pass
//! minimum.

/// The quantile the quiet estimator reads.
pub const QUIET_Q: f64 = 0.02;
/// The quiet estimator never reads below this rank (1-based): the two
/// smallest samples of a block are where timer glitches and lucky
/// partial blocks live.
pub const QUIET_MIN_RANK: usize = 3;

/// Nearest-rank quantile: the `ceil(q·n)`-th smallest sample (1-based,
/// clamped into the sample).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quiet value of a sorted sample: its 2nd percentile by nearest
/// rank, but never below the 3rd-smallest sample (or the largest, if
/// there are fewer than three).
pub fn quiet(sorted: &[u64]) -> u64 {
    assert!(!sorted.is_empty(), "quiet value of an empty sample");
    let rank = (QUIET_Q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(QUIET_MIN_RANK).min(sorted.len()) - 1]
}

/// The median by nearest rank.
pub fn median(sorted: &[u64]) -> u64 {
    nearest_rank(sorted, 0.5)
}

/// Nanosecond samples of one measurement cell, one row per block index,
/// one column per pass.
#[derive(Debug, Clone, Default)]
pub struct BlockSamples {
    blocks: Vec<Vec<u64>>,
}

impl BlockSamples {
    /// An empty cell; rows appear as block indices are pushed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample for `block`.
    pub fn push(&mut self, block: usize, ns: u64) {
        if self.blocks.len() <= block {
            self.blocks.resize_with(block + 1, Vec::new);
        }
        self.blocks[block].push(ns);
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(Vec::is_empty)
    }

    /// Complete passes recorded: the sample count of the least-sampled
    /// block index.
    pub fn passes(&self) -> usize {
        self.blocks.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Sum over block indices of `pick` applied to that index's sorted
    /// samples: the composite time of one pass.
    fn composite(&self, pick: fn(&[u64]) -> u64) -> u64 {
        self.blocks
            .iter()
            .filter(|samples| !samples.is_empty())
            .map(|samples| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                pick(&sorted)
            })
            .sum()
    }

    /// The quiet composite: what one pass costs when every block runs
    /// in its own quiet moment.
    pub fn quiet_ns(&self) -> u64 {
        self.composite(quiet)
    }

    /// The per-block median composite — printed next to every quiet
    /// value so the noise level of a run is visible.
    pub fn median_ns(&self) -> u64 {
        self.composite(median)
    }

    /// Every sample of every block, sorted: for metrics that describe
    /// one call (an install, a burst round trip) rather than a pass.
    pub fn sorted_samples(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.blocks.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_ceil_qn_th_smallest() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5);
        assert_eq!(nearest_rank(&s, 0.51), 6);
        assert_eq!(nearest_rank(&s, 0.99), 10);
        assert_eq!(nearest_rank(&s, 1.0), 10);
        assert_eq!(nearest_rank(&s, 0.0), 1, "rank clamps up to the smallest sample");
        assert_eq!(nearest_rank(&[7], 0.02), 7);
    }

    #[test]
    fn quiet_is_p2_but_never_below_the_third_smallest() {
        let small: Vec<u64> = (1..=10).collect();
        assert_eq!(quiet(&small), 3, "ceil(0.02*10) = 1 is lifted to rank 3");
        let large: Vec<u64> = (1..=400).collect();
        assert_eq!(quiet(&large), 8, "ceil(0.02*400) = 8");
        assert_eq!(quiet(&[5, 9]), 9, "fewer than three samples: the largest");
    }

    #[test]
    fn quiet_composite_lets_each_block_pick_its_own_quiet_pass() {
        // Three blocks, five passes; a noisy episode (+1000) covers a
        // different pass range in each block.
        let mut cell = BlockSamples::new();
        let noisy = [[0, 1], [2, 3], [3, 4]];
        for pass in 0..5 {
            for (block, noisy_passes) in noisy.iter().enumerate() {
                let base = 100 * (block as u64 + 1);
                let extra = if noisy_passes.contains(&pass) { 1000 } else { 0 };
                cell.push(block, base + extra);
            }
        }
        assert_eq!(cell.passes(), 5);
        // Every block has three quiet samples, so rank 3 is still quiet.
        assert_eq!(cell.quiet_ns(), 100 + 200 + 300);
        // No single pass was quiet in all three blocks.
        assert_eq!(cell.median_ns(), 100 + 200 + 300);
        cell.push(0, 1100);
        cell.push(0, 1100);
        assert_eq!(cell.median_ns(), 1100 + 200 + 300, "block 0 is now mostly noisy");
        assert_eq!(cell.quiet_ns(), 100 + 200 + 300, "the quiet composite is unmoved");
        assert_eq!(cell.passes(), 5);
        assert_eq!(cell.sorted_samples().len(), 17);
    }
}
