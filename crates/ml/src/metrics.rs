//! Classification metrics: accuracy, precision/recall/F1, confusion.
//!
//! The paper reports anomaly-detection quality as an F1 score (§5.2.2,
//! Table 8), counting "identified anomalies, missed anomalies, and benign
//! packets incorrectly marked as anomalous". The paper prints F1 scaled
//! to 0–100 (e.g. 71.1); [`BinaryMetrics::f1_percent`] matches that
//! convention.

/// Binary-classification counts (positive class = anomalous).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl BinaryMetrics {
    /// Accumulates one observation.
    pub fn record(&mut self, predicted_positive: bool, actually_positive: bool) {
        match (predicted_positive, actually_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Adds another confusion count into this one (merging per-shard
    /// measurements of one packet population).
    pub fn absorb(&mut self, other: &BinaryMetrics) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Builds metrics from parallel prediction/label iterators.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (bool, bool)>) -> Self {
        let mut m = Self::default();
        for (p, a) in pairs {
            m.record(p, a);
        }
        m
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Accuracy in `[0, 1]` (0 on empty).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// Precision in `[0, 1]` (0 when nothing predicted positive).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall (detection rate) in `[0, 1]` (0 when no positives exist).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// F1 in `[0, 1]`.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// F1 scaled to 0–100, the paper's reporting convention.
    pub fn f1_percent(&self) -> f64 {
        self.f1() * 100.0
    }

    /// Fraction of actual positives detected, as a percentage
    /// (Table 8's "Detected (%)" column).
    pub fn detected_percent(&self) -> f64 {
        self.recall() * 100.0
    }
}

/// A k×k multiclass confusion matrix (`rows = truth`, `cols = predicted`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty k-class matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one class");
        Self { k, counts: vec![0; k * k] }
    }

    /// Accumulates one observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.k && predicted < self.k, "class index out of range");
        self.counts[truth * self.k + predicted] += 1;
    }

    /// Count for a (truth, predicted) cell.
    pub fn get(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.k + predicted]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.k
    }

    /// Overall accuracy (0 on empty).
    pub fn accuracy(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.k).map(|i| self.get(i, i)).sum();
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_counts_route_correctly() {
        let m =
            BinaryMetrics::from_pairs([(true, true), (true, false), (false, false), (false, true)]);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (1, 1, 1, 1));
        assert_eq!(m.total(), 4);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.f1(), 0.5);
        assert_eq!(m.f1_percent(), 50.0);
    }

    #[test]
    fn perfect_classifier() {
        let m = BinaryMetrics::from_pairs((0..10).map(|i| (i % 2 == 0, i % 2 == 0)));
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.detected_percent(), 100.0);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let m = BinaryMetrics::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.f1(), 0.0);
        let never_pos = BinaryMetrics::from_pairs([(false, true), (false, false)]);
        assert_eq!(never_pos.precision(), 0.0);
        assert_eq!(never_pos.f1(), 0.0);
    }

    #[test]
    fn confusion_counts_and_accuracy() {
        let mut c = ConfusionMatrix::new(3);
        for _ in 0..8 {
            c.record(0, 0);
        }
        c.record(0, 1);
        c.record(1, 1);
        c.record(2, 2);
        assert_eq!(c.get(0, 0), 8);
        assert_eq!(c.get(0, 1), 1);
        assert!((c.accuracy() - 10.0 / 11.0).abs() < 1e-9);
        assert_eq!(c.classes(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn confusion_rejects_bad_index() {
        let mut c = ConfusionMatrix::new(2);
        c.record(2, 0);
    }
}
