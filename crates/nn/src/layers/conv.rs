//! 2-D convolution via im2col + GEMM, with explicit backward.

use rand::Rng;

use greuse_tensor::{col2im_accumulate, gemm_bt_f32, gemm_f32, im2col, ConvSpec, Tensor};

use crate::backend::ConvBackend;
use crate::init::he_normal;
use crate::{NnError, Result};

/// Output positions per block of [`Conv2d`]'s bias epilogue.
const EPILOGUE_BLOCK: usize = 32;

/// A convolution layer: weights `(M, C*kh*kw)` and a per-filter bias.
///
/// Inference lowers to `im2col` followed by a [`ConvBackend`]-provided
/// matrix product; training uses the dense path and caches the im2col
/// matrix for the backward pass.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Layer name used by backends for per-layer reuse-pattern lookup.
    pub name: String,
    /// Convolution geometry.
    pub spec: ConvSpec,
    /// Weight matrix `(out_channels, patch_len)`.
    pub weights: Tensor<f32>,
    /// Per-filter bias.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient (same shape as `weights`).
    pub grad_weights: Tensor<f32>,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x_cols: Tensor<f32>,
    in_h: usize,
    in_w: usize,
}

impl Conv2d {
    /// Creates a He-initialized convolution layer.
    pub fn new(name: impl Into<String>, spec: ConvSpec, rng: &mut impl Rng) -> Self {
        let k = spec.patch_len();
        Conv2d {
            name: name.into(),
            spec,
            weights: he_normal(&[spec.out_channels, k], k, rng),
            bias: vec![0.0; spec.out_channels],
            grad_weights: Tensor::zeros(&[spec.out_channels, k]),
            grad_bias: vec![0.0; spec.out_channels],
            cache: None,
        }
    }

    /// Pure inference pass; `x` is `(C, H, W)`, output `(M, oh, ow)`.
    ///
    /// # Errors
    ///
    /// Propagates shape/geometry errors from im2col and the backend.
    pub fn forward(&self, x: &Tensor<f32>, backend: &dyn ConvBackend) -> Result<Tensor<f32>> {
        let dims = x.shape().dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                expected: format!("rank-3 input for conv {}", self.name),
                actual: dims.to_vec(),
            });
        }
        let (h, w) = (dims[1], dims[2]);
        let (oh, ow) = self.spec.output_hw(h, w)?;
        let x_cols = im2col(x, &self.spec)?;
        // Route through the `_into` seam so backends with reusable
        // workspaces (the reuse executor) skip per-call allocations.
        let mut y = Tensor::zeros(&[oh * ow, self.spec.out_channels]);
        backend.conv_gemm_into(&self.name, &self.spec, &x_cols, &self.weights, &mut y)?;
        Ok(self.finish_output(&y, oh, ow))
    }

    /// Training pass: dense compute, caches the im2col matrix.
    ///
    /// # Errors
    ///
    /// Propagates shape/geometry errors.
    pub fn forward_train(&mut self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let dims = x.shape().dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                expected: format!("rank-3 input for conv {}", self.name),
                actual: dims.to_vec(),
            });
        }
        let (h, w) = (dims[1], dims[2]);
        let (oh, ow) = self.spec.output_hw(h, w)?;
        let x_cols = im2col(x, &self.spec)?;
        let y = gemm_bt_f32(&x_cols, &self.weights)?;
        let out = self.finish_output(&y, oh, ow);
        self.cache = Some(Cache {
            x_cols,
            in_h: h,
            in_w: w,
        });
        Ok(out)
    }

    /// Straight-through training pass: the forward GEMM routes through
    /// `backend` (e.g. a reuse backend, so the network *trains under the
    /// approximation* as TREC does), while the cached im2col matrix keeps
    /// the backward pass exact — the straight-through estimator.
    ///
    /// # Errors
    ///
    /// Propagates shape/geometry errors.
    pub fn forward_train_with(
        &mut self,
        x: &Tensor<f32>,
        backend: &dyn ConvBackend,
    ) -> Result<Tensor<f32>> {
        let dims = x.shape().dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                expected: format!("rank-3 input for conv {}", self.name),
                actual: dims.to_vec(),
            });
        }
        let (h, w) = (dims[1], dims[2]);
        let (oh, ow) = self.spec.output_hw(h, w)?;
        let x_cols = im2col(x, &self.spec)?;
        let y = backend.conv_gemm(&self.name, &self.spec, &x_cols, &self.weights)?;
        let out = self.finish_output(&y, oh, ow);
        self.cache = Some(Cache {
            x_cols,
            in_h: h,
            in_w: w,
        });
        Ok(out)
    }

    /// Reshapes the `N x M` GEMM output to `(M, oh, ow)` and adds bias.
    ///
    /// Runs over blocks of [`EPILOGUE_BLOCK`] positions: each block's
    /// rows of `y` stay in L1 while every channel writes one contiguous
    /// run of the output. A block of fewer than 8 positions (a tail, or a
    /// map as small as ResNet's 2×2 `conv5_x`) is too short to pay for
    /// that per-channel run and goes row by row instead.
    fn finish_output(&self, y: &Tensor<f32>, oh: usize, ow: usize) -> Tensor<f32> {
        let m = self.spec.out_channels;
        let n = oh * ow;
        let mut out = Tensor::zeros(&[m, oh, ow]);
        let out_s = out.as_mut_slice();
        for (block, rows) in y.as_slice().chunks(EPILOGUE_BLOCK * m.max(1)).enumerate() {
            let p0 = block * EPILOGUE_BLOCK;
            if rows.len() < 8 * m {
                for (j, row) in rows.chunks_exact(m).enumerate() {
                    for (ch, (&v, &b)) in row.iter().zip(&self.bias).enumerate() {
                        out_s[ch * n + p0 + j] = v + b;
                    }
                }
                continue;
            }
            for (ch, &b) in self.bias.iter().enumerate() {
                let dst = &mut out_s[ch * n + p0..];
                for (d, row) in dst.iter_mut().zip(rows.chunks_exact(m)) {
                    *d = row[ch] + b;
                }
            }
        }
        out
    }

    /// Backward pass: accumulates `grad_weights`/`grad_bias` and returns
    /// the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Protocol`] when called without a preceding
    /// [`Conv2d::forward_train`].
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        let cache = self.cache.take().ok_or_else(|| NnError::Protocol {
            detail: format!("conv {} backward without forward_train", self.name),
        })?;
        let m = self.spec.out_channels;
        let dims = grad_out.shape().dims();
        if dims.len() != 3 || dims[0] != m {
            return Err(NnError::BadInput {
                expected: format!("rank-3 grad with {m} channels for conv {}", self.name),
                actual: dims.to_vec(),
            });
        }
        let (oh, ow) = (dims[1], dims[2]);
        let n = oh * ow;
        // grad_out as N x M (positions x channels).
        let mut dy = Tensor::zeros(&[n, m]);
        {
            let dy_s = dy.as_mut_slice();
            let g_s = grad_out.as_slice();
            for ch in 0..m {
                for pos in 0..n {
                    dy_s[pos * m + ch] = g_s[ch * n + pos];
                }
            }
        }
        // dW = dYᵀ × X  (M x K); db = column sums of dY.
        let dw = gemm_f32(&dy.transpose(), &cache.x_cols)?;
        self.grad_weights.add_assign(&dw)?;
        for ch in 0..m {
            let mut s = 0.0;
            for pos in 0..n {
                s += dy[[pos, ch]];
            }
            self.grad_bias[ch] += s;
        }
        // dX_cols = dY × W (N x K) → col2im.
        let dx_cols = gemm_f32(&dy, &self.weights)?;
        let dx = col2im_accumulate(&dx_cols, &self.spec, cache.in_h, cache.in_w)?;
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
    use crate::backend::DenseBackend;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn loss(out: &Tensor<f32>) -> f32 {
        // Simple quadratic loss: 0.5 * sum(y^2); gradient is y itself.
        0.5 * out.norm_sq()
    }

    #[test]
    fn forward_matches_forward_train() {
        let mut rng = SmallRng::seed_from_u64(0);
        let spec = ConvSpec::new(2, 3, 3, 3).with_padding(1);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_fn(&[2, 6, 6], |i| ((i as f32) * 0.13).sin());
        let a = conv.forward(&x, &DenseBackend).unwrap();
        let b = conv.forward_train(&x).unwrap();
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_is_added() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = ConvSpec::new(1, 2, 1, 1);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        conv.weights.map_inplace(|_| 0.0);
        conv.bias = vec![1.5, -0.5];
        let x = Tensor::zeros(&[1, 3, 3]);
        let y = conv.forward(&x, &DenseBackend).unwrap();
        assert!((y[[0, 1, 1]] - 1.5).abs() < 1e-6);
        assert!((y[[1, 2, 0]] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = ConvSpec::new(2, 2, 3, 3);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_fn(&[2, 5, 5], |i| ((i as f32) * 0.31).cos());
        let y = conv.forward_train(&x).unwrap();
        let _ = conv.backward(&y.clone()).unwrap(); // dL/dy = y for quadratic loss
        let eps = 1e-3;
        for &wi in &[0usize, 5, 17, 30] {
            let orig = conv.weights.as_slice()[wi];
            conv.weights.as_mut_slice()[wi] = orig + eps;
            let lp = loss(&conv.forward(&x, &DenseBackend).unwrap());
            conv.weights.as_mut_slice()[wi] = orig - eps;
            let lm = loss(&conv.forward(&x, &DenseBackend).unwrap());
            conv.weights.as_mut_slice()[wi] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = conv.grad_weights.as_slice()[wi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "wi={wi}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = ConvSpec::new(1, 2, 3, 3).with_padding(1);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_fn(&[1, 4, 4], |i| ((i as f32) * 0.7).sin());
        let y = conv.forward_train(&x).unwrap();
        let dx = conv.backward(&y).unwrap();
        let eps = 1e-3;
        for &xi in &[0usize, 5, 11, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[xi] += eps;
            let lp = loss(&conv.forward(&xp, &DenseBackend).unwrap());
            let mut xm = x.clone();
            xm.as_mut_slice()[xi] -= eps;
            let lm = loss(&conv.forward(&xm, &DenseBackend).unwrap());
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.as_slice()[xi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "xi={xi}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn bias_gradient_matches_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(4);
        let spec = ConvSpec::new(1, 2, 2, 2);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_fn(&[1, 4, 4], |i| (i as f32 * 0.21).sin());
        let y = conv.forward_train(&x).unwrap();
        let _ = conv.backward(&y).unwrap();
        let eps = 1e-3;
        for ch in 0..2 {
            let orig = conv.bias[ch];
            conv.bias[ch] = orig + eps;
            let lp = loss(&conv.forward(&x, &DenseBackend).unwrap());
            conv.bias[ch] = orig - eps;
            let lm = loss(&conv.forward(&x, &DenseBackend).unwrap());
            conv.bias[ch] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = conv.grad_bias[ch];
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + fd.abs()),
                "ch={ch}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut conv = Conv2d::new("c", ConvSpec::new(1, 1, 2, 2), &mut rng);
        let g = Tensor::zeros(&[1, 3, 3]);
        assert!(matches!(conv.backward(&g), Err(NnError::Protocol { .. })));
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = SmallRng::seed_from_u64(6);
        let spec = ConvSpec::new(1, 1, 2, 2);
        let mut conv = Conv2d::new("c", spec, &mut rng);
        let x = Tensor::from_fn(&[1, 3, 3], |i| i as f32);
        let y = conv.forward_train(&x).unwrap();
        let _ = conv.backward(&y).unwrap();
        assert!(conv.grad_weights.norm_sq() > 0.0);
        conv.zero_grad();
        assert_eq!(conv.grad_weights.norm_sq(), 0.0);
        assert!(conv.grad_bias.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn rejects_rank2_input() {
        let mut rng = SmallRng::seed_from_u64(7);
        let conv = Conv2d::new("c", ConvSpec::new(1, 1, 2, 2), &mut rng);
        let x = Tensor::zeros(&[3, 3]);
        assert!(matches!(
            conv.forward(&x, &DenseBackend),
            Err(NnError::BadInput { .. })
        ));
    }
}
