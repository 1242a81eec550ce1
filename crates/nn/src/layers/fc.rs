//! Fully connected (linear) layer.

use rand::Rng;

use greuse_tensor::{gemm_bt_f32_into, Tensor};

use crate::init::he_normal;
use crate::{NnError, Result};

/// A fully connected layer `y = W x + b` with `W` of shape
/// `(out_features, in_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Layer name (diagnostics only; reuse is not applied to FC layers —
    /// the paper notes they are accuracy-sensitive, §3.1).
    pub name: String,
    /// Weight matrix `(out_features, in_features)`.
    pub weights: Tensor<f32>,
    /// Bias vector.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient.
    pub grad_weights: Tensor<f32>,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
    cache: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a He-initialized linear layer.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Linear {
            name: name.into(),
            weights: he_normal(&[out_features, in_features], in_features, rng),
            bias: vec![0.0; out_features],
            grad_weights: Tensor::zeros(&[out_features, in_features]),
            grad_bias: vec![0.0; out_features],
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// Pure inference pass: `y = x × Wᵀ + b` as one packed GEMM row
    /// (`m = 1`). Each output sums its products in ascending order and
    /// adds the bias afterwards, so logits equal a per-row dot-product
    /// loop under `==`; the two can differ bitwise only in the sign of an
    /// exactly-zero sum (the packed kernel starts from `+0.0`, see
    /// `greuse_tensor`'s `pack` module).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on a length mismatch.
    pub fn forward(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.in_features() {
            return Err(NnError::BadInput {
                expected: format!("{} features for fc {}", self.in_features(), self.name),
                actual: vec![x.len()],
            });
        }
        let (in_f, out_f) = (self.in_features(), self.out_features());
        let mut y = vec![0.0f32; out_f];
        gemm_bt_f32_into(x, self.weights.as_slice(), &mut y, 1, in_f, out_f)?;
        for (yo, b) in y.iter_mut().zip(&self.bias) {
            *yo += b;
        }
        Ok(y)
    }

    /// Training pass (caches the input).
    ///
    /// # Errors
    ///
    /// Same as [`Linear::forward`].
    pub fn forward_train(&mut self, x: &[f32]) -> Result<Vec<f32>> {
        let y = self.forward(x)?;
        self.cache = Some(x.to_vec());
        Ok(y)
    }

    /// Backward pass: accumulates gradients, returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Protocol`] without a preceding `forward_train`,
    /// or [`NnError::BadInput`] on a gradient length mismatch.
    pub fn backward(&mut self, grad_out: &[f32]) -> Result<Vec<f32>> {
        let x = self.cache.take().ok_or_else(|| NnError::Protocol {
            detail: format!("fc {} backward without forward_train", self.name),
        })?;
        if grad_out.len() != self.out_features() {
            return Err(NnError::BadInput {
                expected: format!("{} grads for fc {}", self.out_features(), self.name),
                actual: vec![grad_out.len()],
            });
        }
        let (out_f, in_f) = (self.out_features(), self.in_features());
        let mut dx = vec![0.0f32; in_f];
        #[allow(clippy::needless_range_loop)] // o indexes three parallel arrays
        for o in 0..out_f {
            let g = grad_out[o];
            self.grad_bias[o] += g;
            if g == 0.0 {
                continue;
            }
            let wrow = self.weights.row(o).to_vec();
            let grow = self.grad_weights.row_mut(o);
            for i in 0..in_f {
                grow[i] += g * x[i];
                dx[i] += g * wrow[i];
            }
        }
        Ok(dx)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights.map_inplace(|_| 0.0);
        for b in &mut self.grad_bias {
            *b = 0.0;
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The per-row dot-product loop `forward` used before it ran through
    /// the packed GEMM — the reference it must stay equal to.
    fn forward_reference(fc: &Linear, x: &[f32]) -> Vec<f32> {
        let mut y = fc.bias.clone();
        for (o, yo) in y.iter_mut().enumerate() {
            let row = fc.weights.row(o);
            *yo += row.iter().zip(x.iter()).map(|(w, v)| w * v).sum::<f32>();
        }
        y
    }

    #[test]
    fn forward_matches_per_row_reference() {
        // Shapes across the kernel's 4-row tiles and k-blocks, with
        // post-ReLU-like inputs (exact zeros) and a zero-bias layer.
        let mut rng = SmallRng::seed_from_u64(5);
        for &(in_f, out_f) in &[(1usize, 1usize), (7, 3), (48, 10), (1100, 13), (4096, 192)] {
            let mut fc = Linear::new("f", in_f, out_f, &mut rng);
            fc.bias = (0..out_f).map(|o| o as f32 * 0.25 - 1.0).collect();
            let x: Vec<f32> = (0..in_f)
                .map(|i| ((i as f32 * 0.37).sin()).max(0.0))
                .collect();
            let y = fc.forward(&x).unwrap();
            let want = forward_reference(&fc, &x);
            assert_eq!(y, want, "{in_f}->{out_f}");
            // Bitwise too wherever the sum is not an exact zero.
            for (a, b) in y.iter().zip(&want) {
                assert!(*a == 0.0 || a.to_bits() == b.to_bits(), "{in_f}->{out_f}");
            }
        }
        // All-zero input: every sum is exactly zero; equal under `==`.
        let fc = Linear::new("f", 16, 5, &mut rng);
        let x = vec![0.0f32; 16];
        assert_eq!(fc.forward(&x).unwrap(), forward_reference(&fc, &x));
    }

    #[test]
    fn forward_known_values() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut fc = Linear::new("f", 2, 2, &mut rng);
        fc.weights = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        fc.bias = vec![0.5, -0.5];
        let y = fc.forward(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut fc = Linear::new("f", 4, 3, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).sin()).collect();
        let y = fc.forward_train(&x).unwrap();
        let dx = fc.backward(&y).unwrap(); // quadratic loss grad = y
        let loss = |fc: &Linear, x: &[f32]| -> f32 {
            let y = fc.forward(x).unwrap();
            0.5 * y.iter().map(|v| v * v).sum::<f32>()
        };
        let eps = 1e-3;
        // Weight gradient.
        for &wi in &[0usize, 5, 11] {
            let orig = fc.weights.as_slice()[wi];
            fc.weights.as_mut_slice()[wi] = orig + eps;
            let lp = loss(&fc, &x);
            fc.weights.as_mut_slice()[wi] = orig - eps;
            let lm = loss(&fc, &x);
            fc.weights.as_mut_slice()[wi] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - fc.grad_weights.as_slice()[wi]).abs() < 1e-2 * (1.0 + fd.abs()));
        }
        // Input gradient.
        for xi in 0..4 {
            let mut xp = x.clone();
            xp[xi] += eps;
            let mut xm = x.clone();
            xm[xi] -= eps;
            let fd = (loss(&fc, &xp) - loss(&fc, &xm)) / (2.0 * eps);
            assert!((fd - dx[xi]).abs() < 1e-2 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn protocol_and_shape_errors() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut fc = Linear::new("f", 3, 2, &mut rng);
        assert!(matches!(
            fc.backward(&[1.0, 1.0]),
            Err(NnError::Protocol { .. })
        ));
        assert!(matches!(fc.forward(&[1.0]), Err(NnError::BadInput { .. })));
        let _ = fc.forward_train(&[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(fc.backward(&[1.0]), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn zero_grad_resets() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut fc = Linear::new("f", 2, 2, &mut rng);
        let y = fc.forward_train(&[1.0, -1.0]).unwrap();
        let _ = fc.backward(&y).unwrap();
        fc.zero_grad();
        assert_eq!(fc.grad_weights.norm_sq(), 0.0);
        assert!(fc.grad_bias.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn param_count() {
        let mut rng = SmallRng::seed_from_u64(4);
        let fc = Linear::new("f", 10, 5, &mut rng);
        assert_eq!(fc.param_count(), 55);
    }
}
