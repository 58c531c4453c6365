//! Table 2: unbatched inference latency on control-plane accelerators.
//!
//! The paper benchmarks the anomaly-detection DNN with batch size 1 on a
//! vectorized Xeon, a Tesla T4, and a Cloud TPU v2-8, finding 0.67 ms,
//! 1.15 ms, and 3.51 ms respectively — dominated by framework/offload
//! setup overhead, not math. We have none of those devices, so the three
//! published numbers are carried as calibrated model constants
//! ([`Accelerator::latency_ms`]), and [`measure_host_unbatched`] provides
//! the cross-check the substitution rule asks for: an actual wall-clock
//! measurement of unbatched inference on *this* machine (which should
//! land well below the framework-laden numbers, since our inference is a
//! bare Rust loop — the comparison of interest is "milliseconds-ish vs
//! Taurus's nanoseconds", which holds either way).

use std::time::Instant;

use taurus_ml::Mlp;

/// A control-plane inference device from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accelerator {
    /// Vectorized CPU (Broadwell Xeon).
    BroadwellXeon,
    /// NVIDIA Tesla T4 GPU.
    TeslaT4,
    /// Google Cloud TPU v2-8.
    CloudTpuV28,
}

impl Accelerator {
    /// All Table 2 rows, in order.
    pub const ALL: [Accelerator; 3] =
        [Accelerator::BroadwellXeon, Accelerator::TeslaT4, Accelerator::CloudTpuV28];

    /// Display name matching the paper's row label.
    pub fn name(self) -> &'static str {
        match self {
            Accelerator::BroadwellXeon => "Broadwell Xeon",
            Accelerator::TeslaT4 => "Tesla T4 GPU",
            Accelerator::CloudTpuV28 => "Cloud TPU v2-8",
        }
    }

    /// Unbatched inference latency for the anomaly-detection DNN,
    /// including framework setup overhead (Table 2's measured values,
    /// used as calibrated constants).
    pub fn latency_ms(self) -> f64 {
        match self {
            Accelerator::BroadwellXeon => 0.67,
            Accelerator::TeslaT4 => 1.15,
            Accelerator::CloudTpuV28 => 3.51,
        }
    }

    /// Latency in nanoseconds (for comparisons against data-plane cycle
    /// counts).
    pub fn latency_ns(self) -> f64 {
        self.latency_ms() * 1e6
    }
}

/// Measures actual unbatched (batch = 1) float inference latency of a
/// model on the host CPU, in milliseconds per inference, averaged over
/// `iters` runs.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn measure_host_unbatched(model: &Mlp, input: &[f32], iters: usize) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    // Warm-up to populate caches.
    let mut sink = 0.0f32;
    for _ in 0..10 {
        sink += model.forward(input)[0];
    }
    let start = Instant::now();
    for _ in 0..iters {
        sink += model.forward(input)[0];
    }
    let elapsed = start.elapsed();
    // Keep the sink live so the loop cannot be optimized out.
    std::hint::black_box(sink);
    elapsed.as_secs_f64() * 1e3 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_ml::mlp::MlpConfig;

    #[test]
    fn table2_constants() {
        assert_eq!(Accelerator::BroadwellXeon.latency_ms(), 0.67);
        assert_eq!(Accelerator::TeslaT4.latency_ms(), 1.15);
        assert_eq!(Accelerator::CloudTpuV28.latency_ms(), 3.51);
        assert_eq!(Accelerator::ALL.len(), 3);
        assert_eq!(Accelerator::BroadwellXeon.name(), "Broadwell Xeon");
        assert_eq!(Accelerator::TeslaT4.latency_ns(), 1.15e6);
    }

    #[test]
    fn host_measurement_is_positive_and_fast() {
        let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 0);
        let ms = measure_host_unbatched(&mlp, &[0.1; 6], 100);
        assert!(ms > 0.0);
        // A bare Rust MLP forward must beat the framework-laden 0.67 ms.
        assert!(ms < 0.67, "host inference {ms} ms");
    }

    #[test]
    fn cpu_is_fastest_control_plane_option() {
        // The paper's point: even the *fastest* control-plane option is
        // ~6 orders of magnitude slower than a 221 ns data-plane pass.
        let fastest = Accelerator::ALL.iter().map(|a| a.latency_ns()).fold(f64::INFINITY, f64::min);
        assert!(fastest / 221.0 > 3_000.0);
    }
}
