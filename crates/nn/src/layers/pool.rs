//! Pooling layers: 2-D max pooling and global average pooling.

use greuse_tensor::Tensor;

use crate::{NnError, Result};

/// Max pooling with a square window and equal stride.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Window size (and stride).
    pub size: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_dims: [usize; 3],
}

impl MaxPool2d {
    /// Creates a pooling layer with window = stride = `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be positive");
        MaxPool2d { size, cache: None }
    }

    /// Output spatial size for an `h x w` input (floor division; trailing
    /// rows/columns that do not fill a window are dropped, as in CMSIS-NN).
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.size, w / self.size)
    }

    /// Pools `x`; with `track` also returns each output's argmax input
    /// offset (the training cache), otherwise an empty vector.
    fn pool(&self, x: &Tensor<f32>, track: bool) -> Result<(Tensor<f32>, Vec<usize>)> {
        let dims = x.shape().dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                expected: "rank-3 input for maxpool".into(),
                actual: dims.to_vec(),
            });
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let (oh, ow) = self.output_hw(h, w);
        if oh == 0 || ow == 0 {
            return Err(NnError::BadInput {
                expected: format!("input at least {0}x{0} for maxpool", self.size),
                actual: dims.to_vec(),
            });
        }
        let mut out = Tensor::zeros(&[c, oh, ow]);
        let mut argmax = if track {
            vec![0usize; c * oh * ow]
        } else {
            Vec::new()
        };
        let xs = x.as_slice();
        let outs = out.as_mut_slice();
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..self.size {
                        for kx in 0..self.size {
                            let iy = oy * self.size + ky;
                            let ix = ox * self.size + kx;
                            let i = (ch * h + iy) * w + ix;
                            if xs[i] > best {
                                best = xs[i];
                                best_i = i;
                            }
                        }
                    }
                    let o = (ch * oh + oy) * ow + ox;
                    outs[o] = best;
                    if track {
                        argmax[o] = best_i;
                    }
                }
            }
        }
        Ok((out, argmax))
    }

    /// Pure inference pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on a non-rank-3 or too-small input.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(self.pool(x, false)?.0)
    }

    /// Training pass (caches argmax positions).
    ///
    /// # Errors
    ///
    /// Same as [`MaxPool2d::forward`].
    pub fn forward_train(&mut self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let dims = x.shape().dims().to_vec();
        let (out, argmax) = self.pool(x, true)?;
        self.cache = Some(PoolCache {
            argmax,
            in_dims: [dims[0], dims[1], dims[2]],
        });
        Ok(out)
    }

    /// Backward pass: routes each gradient to its argmax position.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Protocol`] without a preceding `forward_train`.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        let cache = self.cache.take().ok_or_else(|| NnError::Protocol {
            detail: "maxpool backward without forward_train".into(),
        })?;
        let mut dx = Tensor::zeros(&cache.in_dims);
        let dx_s = dx.as_mut_slice();
        for (g, &i) in grad_out.as_slice().iter().zip(cache.argmax.iter()) {
            dx_s[i] += g;
        }
        Ok(dx)
    }
}

/// Global average pooling: `(C, H, W) -> C` feature vector.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache: Option<[usize; 3]>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool { cache: None }
    }

    /// Pure inference pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for a non-rank-3 input.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<Vec<f32>> {
        let dims = x.shape().dims();
        if dims.len() != 3 {
            return Err(NnError::BadInput {
                expected: "rank-3 input for global avg pool".into(),
                actual: dims.to_vec(),
            });
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let inv = 1.0 / (h * w) as f32;
        let xs = x.as_slice();
        Ok((0..c)
            .map(|ch| xs[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() * inv)
            .collect())
    }

    /// Training pass (caches the input dimensions).
    ///
    /// # Errors
    ///
    /// Same as [`GlobalAvgPool::forward`].
    pub fn forward_train(&mut self, x: &Tensor<f32>) -> Result<Vec<f32>> {
        let dims = x.shape().dims();
        let y = self.forward(x)?;
        self.cache = Some([dims[0], dims[1], dims[2]]);
        Ok(y)
    }

    /// Backward pass: spreads each channel gradient uniformly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Protocol`] without a preceding `forward_train`.
    pub fn backward(&mut self, grad_out: &[f32]) -> Result<Tensor<f32>> {
        let [c, h, w] = self.cache.take().ok_or_else(|| NnError::Protocol {
            detail: "global avg pool backward without forward_train".into(),
        })?;
        let inv = 1.0 / (h * w) as f32;
        let mut dx = Tensor::zeros(&[c, h, w]);
        let dx_s = dx.as_mut_slice();
        for ch in 0..c {
            let g = grad_out[ch] * inv;
            for v in &mut dx_s[ch * h * w..(ch + 1) * h * w] {
                *v = g;
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0f32, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let pool = MaxPool2d::new(2);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_drops_trailing() {
        let x = Tensor::from_fn(&[1, 5, 5], |i| i as f32);
        let pool = MaxPool2d::new(2);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0f32, 9.0, 2.0, 3.0], &[1, 2, 2]).unwrap();
        let mut pool = MaxPool2d::new(2);
        let _ = pool.forward_train(&x).unwrap();
        let g = Tensor::from_vec(vec![5.0f32], &[1, 1, 1]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_too_small_errors() {
        let x = Tensor::<f32>::zeros(&[1, 1, 1]);
        assert!(MaxPool2d::new(2).forward(&x).is_err());
    }

    #[test]
    fn gap_averages() {
        let x =
            Tensor::from_vec(vec![1.0f32, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[2, 2, 2]).unwrap();
        let gap = GlobalAvgPool::new();
        assert_eq!(gap.forward(&x).unwrap(), vec![4.0, 2.0]);
    }

    #[test]
    fn gap_backward_uniform() {
        let x = Tensor::<f32>::zeros(&[1, 2, 2]);
        let mut gap = GlobalAvgPool::new();
        let _ = gap.forward_train(&x).unwrap();
        let dx = gap.backward(&[8.0]).unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn protocol_errors() {
        let mut pool = MaxPool2d::new(2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1])).is_err());
        let mut gap = GlobalAvgPool::new();
        assert!(gap.backward(&[1.0]).is_err());
    }
}
