//! KMeans clustering (k-means++ init, Lloyd iterations).
//!
//! Table 5's `IoT KMeans` model classifies device traffic with 11
//! features into five categories; inference is "find the nearest
//! centroid", which maps to MapReduce as per-centroid squared-distance
//! (map subtract, map square, reduce add) followed by an arg-min
//! reduction — exactly how the frontend lowers it onto CUs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linalg::{argmin, sq_dist};

/// A trained KMeans model: `k` centroids of dimension `d`.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f32>>,
}

impl KMeans {
    /// Fits `k` centroids with k-means++ initialization and at most
    /// `max_iters` Lloyd iterations.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `data` is empty, or `data.len() < k`.
    pub fn fit(data: &[Vec<f32>], k: usize, max_iters: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(data.len() >= k, "need at least k points, got {}", data.len());
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f32> = data
                .iter()
                .map(|p| centroids.iter().map(|c| sq_dist(p, c)).fold(f32::INFINITY, f32::min))
                .collect();
            let total: f32 = d2.iter().sum();
            if total <= 0.0 {
                // All points coincide with centroids: duplicate one.
                centroids.push(centroids[0].clone());
                continue;
            }
            let mut target = rng.gen::<f32>() * total;
            let mut chosen = data.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            centroids.push(data[chosen].clone());
        }

        // Lloyd iterations.
        let dim = data[0].len();
        let mut assignment = vec![0usize; data.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (a, p) in assignment.iter_mut().zip(data) {
                let best = argmin(&centroids.iter().map(|c| sq_dist(p, c)).collect::<Vec<_>>());
                if best != *a {
                    *a = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let mut sums = vec![vec![0.0f32; dim]; k];
            let mut counts = vec![0usize; k];
            for (&a, p) in assignment.iter().zip(data) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for ((c, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    *c = sum.iter().map(|&s| s / count as f32).collect();
                }
            }
        }
        Self { centroids }
    }

    /// Fits one centroid per class from labelled data (nearest-class-mean
    /// classifier — the supervised use of KMeans in the paper's IoT
    /// application).
    ///
    /// # Panics
    ///
    /// Panics if any class has no examples.
    pub fn fit_supervised(x: &[Vec<f32>], y: &[usize], classes: usize) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        let dim = x[0].len();
        let mut sums = vec![vec![0.0f32; dim]; classes];
        let mut counts = vec![0usize; classes];
        for (xi, &yi) in x.iter().zip(y) {
            counts[yi] += 1;
            for (s, &v) in sums[yi].iter_mut().zip(xi) {
                *s += v;
            }
        }
        let centroids = sums
            .into_iter()
            .zip(&counts)
            .enumerate()
            .map(|(c, (sum, &count))| {
                assert!(count > 0, "class {c} has no examples");
                sum.into_iter().map(|s| s / count as f32).collect()
            })
            .collect();
        Self { centroids }
    }

    /// The centroids.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.centroids[0].len()
    }

    /// Index of the nearest centroid.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmin(&self.centroids.iter().map(|c| sq_dist(x, c)).collect::<Vec<_>>())
    }

    /// Clustering accuracy against labels when centroids are class-aligned.
    pub fn accuracy(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        x.iter().zip(y).filter(|(xi, &yi)| self.predict(xi) == yi).count() as f64 / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            x.push(vec![
                centers[c][0] + rng.gen_range(-1.0..1.0),
                centers[c][1] + rng.gen_range(-1.0..1.0),
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (x, _) = blobs();
        let km = KMeans::fit(&x, 3, 50, 1);
        assert_eq!(km.k(), 3);
        // Each fitted centroid is within 1.0 of a true center.
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for c in km.centroids() {
            let near = centers.iter().any(|t| sq_dist(c, t) < 1.0);
            assert!(near, "centroid {c:?} not near any true center");
        }
    }

    #[test]
    fn supervised_fit_classifies_blobs() {
        let (x, y) = blobs();
        let km = KMeans::fit_supervised(&x, &y, 3);
        assert!(km.accuracy(&x, &y) > 0.99);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, _) = blobs();
        assert_eq!(KMeans::fit(&x, 3, 50, 7), KMeans::fit(&x, 3, 50, 7));
    }

    #[test]
    fn predict_is_nearest() {
        let km = KMeans::fit_supervised(&[vec![0.0, 0.0], vec![5.0, 5.0]], &[0, 1], 2);
        assert_eq!(km.predict(&[1.0, 1.0]), 0);
        assert_eq!(km.predict(&[4.0, 4.0]), 1);
        assert_eq!(km.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "at least k points")]
    fn rejects_k_larger_than_data() {
        let _ = KMeans::fit(&[vec![0.0]], 2, 10, 0);
    }

    #[test]
    fn duplicate_points_do_not_hang() {
        let data = vec![vec![1.0, 1.0]; 10];
        let km = KMeans::fit(&data, 3, 10, 0);
        assert_eq!(km.k(), 3);
        assert_eq!(km.predict(&[1.0, 1.0]), 0);
    }
}
