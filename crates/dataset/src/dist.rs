//! Seeded samplers for the distributions the generators need.
//!
//! `rand` 0.8 ships only uniform/Bernoulli sampling without the
//! `rand_distr` companion crate; rather than widen the dependency set,
//! the handful of classical samplers used by the data generators are
//! implemented here (Box–Muller normal, lognormal, inverse-CDF
//! exponential, Knuth/normal-approx Poisson, inverse-CDF Pareto).

use rand::Rng;

/// Samples a standard normal via Box–Muller.
pub fn normal_std<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, sd²)`.
///
/// # Panics
///
/// Panics if `sd` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    assert!(sd >= 0.0, "standard deviation must be non-negative, got {sd}");
    mean + sd * normal_std(rng)
}

/// Samples a lognormal with the given parameters of the underlying normal.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples `Exp(rate)` (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive, got {rate}");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Samples `Poisson(lambda)`.
///
/// Uses Knuth's product method for small `lambda` and a rounded normal
/// approximation above 30 (error is immaterial for workload synthesis).
///
/// # Panics
///
/// Panics if `lambda` is negative.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let limit = (-lambda).exp();
    let mut product: f64 = rng.gen();
    let mut count = 0u64;
    while product > limit {
        product *= rng.gen::<f64>();
        count += 1;
    }
    count
}

/// Picks an index from a slice of non-negative weights.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(!weights.is_empty() && total > 0.0, "weights must be non-empty with positive sum");
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDA7A)
    }

    fn mean_sd(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let (m, s) = mean_sd(&samples);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
        assert!((s - 2.0).abs() < 0.1, "sd {s}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 0.5)).collect();
        let (m, _) = mean_sd(&samples);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut r = rng();
        let small: Vec<f64> = (0..20_000).map(|_| poisson(&mut r, 3.0) as f64).collect();
        let (m, _) = mean_sd(&small);
        assert!((m - 3.0).abs() < 0.15, "mean {m}");
        let large: Vec<f64> = (0..20_000).map(|_| poisson(&mut r, 100.0) as f64).collect();
        let (ml, sl) = mean_sd(&large);
        assert!((ml - 100.0).abs() < 1.0, "mean {ml}");
        assert!((sl - 10.0).abs() < 0.5, "sd {sl}");
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut r = rng();
        let samples: Vec<f64> = (0..10_000).map(|_| lognormal(&mut r, 0.0, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let (m, _) = mean_sd(&samples);
        // E[lognormal(0,1)] = exp(0.5) ≈ 1.6487
        assert!((m - 1.6487).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn determinism_under_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| poisson(&mut r, 5.0)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| poisson(&mut r, 5.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn weighted_index_rejects_zero_weights() {
        weighted_index(&mut rng(), &[0.0, 0.0]);
    }
}
