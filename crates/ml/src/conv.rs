//! 1-D convolution — Table 6's `Conv1D` linear microbenchmark.
//!
//! The paper's microbenchmark is a one-dimensional convolution with eight
//! outputs and a kernel dimension of two, "frequently used to find
//! spatial or temporal correlations". §5.1.3 notes it maps *poorly* to
//! vectorized MapReduce (many small inner reductions), which is exactly
//! the behaviour the compiler benches reproduce in Table 7.

/// A valid-padding 1-D convolution: `y[i] = Σ_k w[k]·x[i+k] + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1D {
    /// Kernel taps.
    pub kernel: Vec<f32>,
    /// Bias added to every output.
    pub bias: f32,
}

impl Conv1D {
    /// Creates a convolution from kernel taps and a bias.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty.
    pub fn new(kernel: Vec<f32>, bias: f32) -> Self {
        assert!(!kernel.is_empty(), "kernel must be non-empty");
        Self { kernel, bias }
    }

    /// The Table 6 microbenchmark shape: kernel size 2; an input of 9
    /// yields 8 outputs.
    pub fn paper_microbench() -> Self {
        Self::new(vec![0.5, -0.25], 0.1)
    }

    /// Number of outputs for a given input length (valid padding).
    pub fn output_len(&self, input_len: usize) -> usize {
        input_len.saturating_sub(self.kernel.len() - 1)
    }

    /// Applies the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the input is shorter than the kernel.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert!(x.len() >= self.kernel.len(), "input shorter than kernel");
        (0..self.output_len(x.len()))
            .map(|i| {
                self.kernel.iter().enumerate().map(|(k, &w)| w * x[i + k]).sum::<f32>() + self.bias
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_convolution() {
        let c = Conv1D::new(vec![1.0, -1.0], 0.0);
        // Differences of adjacent elements.
        assert_eq!(c.forward(&[1.0, 3.0, 6.0, 10.0]), vec![-2.0, -3.0, -4.0]);
    }

    #[test]
    fn bias_is_added() {
        let c = Conv1D::new(vec![1.0], 5.0);
        assert_eq!(c.forward(&[1.0, 2.0]), vec![6.0, 7.0]);
    }

    #[test]
    fn paper_shape_has_8_outputs_from_9_inputs() {
        let c = Conv1D::paper_microbench();
        assert_eq!(c.kernel.len(), 2);
        assert_eq!(c.output_len(9), 8);
        assert_eq!(c.forward(&[0.0; 9]).len(), 8);
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn rejects_short_input() {
        let _ = Conv1D::new(vec![1.0, 1.0, 1.0], 0.0).forward(&[1.0]);
    }
}
