//! Model quantization, mirroring the paper's two schemes:
//!
//! * **Fixed-point Q7** (§5.1): weights stored as 8-bit fixed point, the
//!   CMSIS-NN default. We quantize-and-dequantize weights in place
//!   ("simulated quantization"), so the accuracy impact is real while the
//!   arithmetic stays `f32`; the MCU cost model independently charges
//!   8/16-bit SIMD cycle costs.
//! * **INT8 linear** (§5.3.8): affine quantization of weights *and*
//!   activations; activation quantization is applied at the im2col matrix
//!   via a decorating [`ConvBackend`].

use greuse_tensor::{
    dequantize_linear, quantize_linear, ConvSpec, LinearQuantParams, Tensor, TensorError, Q7,
};
use serde::{Deserialize, Serialize};

use crate::backend::ConvBackend;
use crate::network::Network;
use crate::Result;

/// Which quantization scheme to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantMode {
    /// Fixed-point Q7 weights (per-layer fractional bits).
    FixedPointQ7,
    /// INT8 linear (affine) weights.
    Int8Linear,
}

/// Per-layer record of the quantization applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerQuantInfo {
    /// Layer name.
    pub layer: String,
    /// Scheme applied.
    pub mode: QuantMode,
    /// Mean absolute weight error introduced.
    pub mean_abs_error: f32,
}

/// Quantizes every convolution's weights in place (round-trip through the
/// 8-bit representation) and returns per-layer error statistics.
///
/// # Errors
///
/// Propagates quantization-parameter errors (e.g. an all-zero layer under
/// INT8 linear gets a degenerate range and is left untouched instead).
pub fn quantize_weights(net: &mut dyn Network, mode: QuantMode) -> Result<Vec<LayerQuantInfo>> {
    let mut infos = Vec::new();
    for conv in net.convs_mut() {
        let absmax = conv
            .weights
            .as_slice()
            .iter()
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        if absmax == 0.0 {
            infos.push(LayerQuantInfo {
                layer: conv.name.clone(),
                mode,
                mean_abs_error: 0.0,
            });
            continue;
        }
        let before = conv.weights.clone();
        match mode {
            QuantMode::FixedPointQ7 => {
                let fmt = Q7::fitting(absmax);
                conv.weights = fmt.dequantize_tensor(&fmt.quantize_tensor(&conv.weights));
            }
            QuantMode::Int8Linear => {
                let params = LinearQuantParams::symmetric(absmax).map_err(crate::NnError::from)?;
                conv.weights = dequantize_linear(&quantize_linear(&conv.weights, &params));
            }
        }
        let err: f32 = before
            .as_slice()
            .iter()
            .zip(conv.weights.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / before.len() as f32;
        infos.push(LayerQuantInfo {
            layer: conv.name.clone(),
            mode,
            mean_abs_error: err,
        });
    }
    Ok(infos)
}

/// Per-layer parameters produced by [`ptq_int8`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerInt8Params {
    /// Layer name.
    pub layer: String,
    /// Symmetric weight parameters (`zero_point == 0`); the scale maps
    /// the layer's absmax weight to code ±127.
    pub weight_params: LinearQuantParams,
    /// Mean absolute weight error introduced by rounding to the grid.
    pub mean_abs_error: f32,
}

/// Post-training quantization for the int8 execution path: rounds every
/// convolution's trained weights to their **symmetric int8 grid** in
/// place and returns the per-layer parameters.
///
/// The int8 executor derives its weight parameters from the weights it
/// is given (symmetric, absmax → ±127). Running this pass first makes
/// the f32 network hold exactly the dequantized int8 weights, so f32
/// inference, accuracy evaluation, and the quantized backend all see the
/// same effective weights — and because the grid's absmax is preserved
/// by rounding, the executor re-derives the *same* scale, making this
/// pass **idempotent**: a second call changes nothing.
///
/// All-zero layers quantize to all-zero codes under a degenerate scale
/// and are reported with `mean_abs_error == 0`.
///
/// # Errors
///
/// Propagates quantization-parameter errors (non-finite weights).
pub fn ptq_int8(net: &mut dyn Network) -> Result<Vec<LayerInt8Params>> {
    let mut infos = Vec::new();
    for conv in net.convs_mut() {
        let absmax = conv
            .weights
            .as_slice()
            .iter()
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        let params = LinearQuantParams::symmetric(absmax.max(f32::MIN_POSITIVE))
            .map_err(crate::NnError::from)?;
        let before = conv.weights.clone();
        conv.weights = dequantize_linear(&quantize_linear(&conv.weights, &params));
        let err: f32 = before
            .as_slice()
            .iter()
            .zip(conv.weights.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / before.len().max(1) as f32;
        infos.push(LayerInt8Params {
            layer: conv.name.clone(),
            weight_params: params,
            mean_abs_error: err,
        });
    }
    Ok(infos)
}

/// A backend decorator that quantizes the im2col activations with INT8
/// linear quantization before delegating — the activation half of §5.3.8.
#[derive(Debug)]
pub struct Int8ActivationBackend<B> {
    inner: B,
}

impl<B: ConvBackend> Int8ActivationBackend<B> {
    /// Wraps an inner backend.
    pub fn new(inner: B) -> Self {
        Int8ActivationBackend { inner }
    }

    /// Returns the wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: ConvBackend> ConvBackend for Int8ActivationBackend<B> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> std::result::Result<Tensor<f32>, TensorError> {
        let absmax = x.as_slice().iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        if absmax == 0.0 {
            return self.inner.conv_gemm(layer, spec, x, weights);
        }
        let params = LinearQuantParams::symmetric(absmax)?;
        let xq = dequantize_linear(&quantize_linear(x, &params));
        self.inner.conv_gemm(layer, spec, &xq, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::models::CifarNet;
    use crate::Network;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn q7_quantization_bounds_weight_error() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut net = CifarNet::new(10, &mut rng);
        let infos = quantize_weights(&mut net, QuantMode::FixedPointQ7).unwrap();
        assert_eq!(infos.len(), 2);
        for info in &infos {
            assert!(
                info.mean_abs_error < 0.02,
                "{}: {}",
                info.layer,
                info.mean_abs_error
            );
        }
    }

    #[test]
    fn int8_quantization_changes_little() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = CifarNet::new(10, &mut rng);
        let x = Tensor::from_fn(&[3, 32, 32], |i| (i as f32 * 0.01).sin());
        let before = net.forward(&x, &DenseBackend).unwrap();
        quantize_weights(&mut net, QuantMode::Int8Linear).unwrap();
        let after = net.forward(&x, &DenseBackend).unwrap();
        let before_top = before
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let after_top = after
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        // 8-bit weights should rarely flip the argmax of a random net.
        assert_eq!(before_top, after_top);
    }

    #[test]
    fn activation_backend_close_to_dense() {
        let mut rng = SmallRng::seed_from_u64(2);
        let net = CifarNet::new(10, &mut rng);
        let x = Tensor::from_fn(&[3, 32, 32], |i| (i as f32 * 0.013).cos());
        let dense = net.forward(&x, &DenseBackend).unwrap();
        let quant = net
            .forward(&x, &Int8ActivationBackend::new(DenseBackend))
            .unwrap();
        let max_logit = dense.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        for (a, b) in dense.iter().zip(quant.iter()) {
            assert!((a - b).abs() < 0.25 * max_logit.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn ptq_int8_rounds_to_grid_and_is_idempotent() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = CifarNet::new(10, &mut rng);
        let infos = ptq_int8(&mut net).unwrap();
        assert_eq!(infos.len(), 2);
        // Every weight now sits on its layer's int8 grid.
        for (conv, info) in net.convs().iter().zip(&infos) {
            assert_eq!(info.weight_params.zero_point, 0);
            for &w in conv.weights.as_slice() {
                let code = w / info.weight_params.scale;
                assert!((code - code.round()).abs() < 1e-3, "off-grid weight {w}");
                assert!(code.round().abs() <= 127.0);
            }
            assert!(info.mean_abs_error <= info.weight_params.scale / 2.0 + 1e-6);
        }
        // Second pass re-derives the same parameters and moves nothing.
        let before: Vec<Tensor<f32>> = net.convs().iter().map(|c| c.weights.clone()).collect();
        let again = ptq_int8(&mut net).unwrap();
        for ((conv, prev), (i1, i2)) in net
            .convs()
            .iter()
            .zip(&before)
            .zip(infos.iter().zip(&again))
        {
            assert_eq!(i1.weight_params, i2.weight_params, "{}", i1.layer);
            assert_eq!(&conv.weights, prev, "{} weights moved", i1.layer);
            assert_eq!(i2.mean_abs_error, 0.0);
        }
    }

    #[test]
    fn ptq_int8_handles_all_zero_layers() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut net = CifarNet::new(10, &mut rng);
        for conv in net.convs_mut() {
            conv.weights.map_inplace(|_| 0.0);
        }
        let infos = ptq_int8(&mut net).unwrap();
        assert!(infos.iter().all(|i| i.mean_abs_error == 0.0));
        assert!(net
            .convs()
            .iter()
            .all(|c| c.weights.as_slice().iter().all(|&w| w == 0.0)));
    }

    #[test]
    fn zero_weights_left_untouched() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = CifarNet::new(10, &mut rng);
        for conv in net.convs_mut() {
            conv.weights.map_inplace(|_| 0.0);
        }
        let infos = quantize_weights(&mut net, QuantMode::Int8Linear).unwrap();
        assert!(infos.iter().all(|i| i.mean_abs_error == 0.0));
    }
}
