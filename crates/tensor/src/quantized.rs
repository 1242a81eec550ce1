//! Fixed-point (Q7) and INT8 linear quantization, mirroring the two
//! quantization schemes evaluated in the paper (§5.1 fixed point,
//! §5.3.8 INT8 linear).

use serde::{Deserialize, Serialize};

use crate::{Tensor, TensorError};

/// A quantized `i8` tensor together with its quantization parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTensor {
    /// Quantized storage.
    pub values: Tensor<i8>,
    /// Parameters needed to dequantize.
    pub params: LinearQuantParams,
}

/// Affine (scale/zero-point) quantization parameters:
/// `real = scale * (q - zero_point)`.
///
/// Fixed-point Q7 is the special case `scale = 2^-frac_bits`,
/// `zero_point = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearQuantParams {
    /// Multiplicative scale (must be positive).
    pub scale: f32,
    /// Zero point in the quantized domain.
    pub zero_point: i32,
}

impl LinearQuantParams {
    /// Derives symmetric parameters covering `[-absmax, absmax]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when `absmax` is not
    /// finite and positive.
    pub fn symmetric(absmax: f32) -> Result<Self, TensorError> {
        if !absmax.is_finite() || absmax <= 0.0 {
            return Err(TensorError::InvalidQuantization {
                detail: format!("absmax must be finite and positive, got {absmax}"),
            });
        }
        Ok(LinearQuantParams {
            scale: absmax / 127.0,
            zero_point: 0,
        })
    }

    /// Derives asymmetric parameters covering `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when the range is empty
    /// or non-finite.
    pub fn asymmetric(min: f32, max: f32) -> Result<Self, TensorError> {
        if !min.is_finite() || !max.is_finite() || max <= min {
            return Err(TensorError::InvalidQuantization {
                detail: format!("invalid range [{min}, {max}]"),
            });
        }
        let scale = (max - min) / 255.0;
        let zero_point = (-128.0 - min / scale).round() as i32;
        Ok(LinearQuantParams {
            scale,
            zero_point: zero_point.clamp(-128, 127),
        })
    }
}

/// The Q7 fixed-point format: `frac_bits` fractional bits,
/// `real = q / 2^frac_bits`. CMSIS-NN's default weight format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Q7 {
    /// Number of fractional bits (0..=7).
    pub frac_bits: u8,
}

impl Q7 {
    /// Creates a Q7 format.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when `frac_bits > 7`.
    pub fn new(frac_bits: u8) -> Result<Self, TensorError> {
        if frac_bits > 7 {
            return Err(TensorError::InvalidQuantization {
                detail: format!("Q7 supports at most 7 fractional bits, got {frac_bits}"),
            });
        }
        Ok(Q7 { frac_bits })
    }

    /// Chooses the most precise format that can represent `absmax`.
    pub fn fitting(absmax: f32) -> Q7 {
        let mut frac_bits = 7u8;
        while frac_bits > 0 {
            let max_repr = 127.0 / f32::from(1u8 << frac_bits) * 1.0;
            if absmax <= max_repr {
                break;
            }
            frac_bits -= 1;
        }
        Q7 { frac_bits }
    }

    /// Quantizes a real value (round-to-nearest, saturating).
    pub fn quantize(&self, v: f32) -> i8 {
        let scaled = v * f32::from(1u16 << self.frac_bits);
        scaled.round().clamp(-128.0, 127.0) as i8
    }

    /// Dequantizes back to a real value.
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) / f32::from(1u16 << self.frac_bits)
    }

    /// Quantizes a whole tensor.
    pub fn quantize_tensor(&self, t: &Tensor<f32>) -> Tensor<i8> {
        Tensor::from_fn(t.shape().dims(), |i| self.quantize(t.as_slice()[i]))
    }

    /// Dequantizes a whole tensor.
    pub fn dequantize_tensor(&self, t: &Tensor<i8>) -> Tensor<f32> {
        Tensor::from_fn(t.shape().dims(), |i| self.dequantize(t.as_slice()[i]))
    }

    /// Worst-case absolute rounding error of this format (half a step).
    pub fn max_rounding_error(&self) -> f32 {
        0.5 / f32::from(1u16 << self.frac_bits)
    }
}

/// Asymmetric `u8` activation quantization parameters:
/// `real = scale * (q - zero_point)` with `q`, `zero_point` in `0..=255`.
///
/// Activations are unsigned in the int8 pipeline so the packed GEMM can
/// pair them with signed `i8` weights (the CMSIS-NN / gemmlowp operand
/// convention). The representable range always contains `0.0` so that
/// zero-padding in the quantized im2col is exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActQuantParams {
    /// Multiplicative scale (positive).
    pub scale: f32,
    /// Zero point in the quantized domain.
    pub zero_point: u8,
}

impl ActQuantParams {
    /// Derives parameters covering `[min, max]`, widened to include `0.0`.
    ///
    /// A degenerate range (`min == max == 0`) yields the identity-ish
    /// `scale = 1, zero_point = 0` so all-zero activations stay exact.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when the range is
    /// non-finite or inverted.
    pub fn from_range(min: f32, max: f32) -> Result<Self, TensorError> {
        if !min.is_finite() || !max.is_finite() || max < min {
            return Err(TensorError::InvalidQuantization {
                detail: format!("invalid activation range [{min}, {max}]"),
            });
        }
        let lo = min.min(0.0);
        let hi = max.max(0.0);
        if hi == lo {
            return Ok(ActQuantParams {
                scale: 1.0,
                zero_point: 0,
            });
        }
        let scale = (hi - lo) / 255.0;
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as u8;
        Ok(ActQuantParams { scale, zero_point })
    }

    /// Derives parameters from observed data (its min/max, widened to
    /// include `0.0`). Empty or all-zero data quantizes exactly to the
    /// zero point.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when the data contains
    /// non-finite values.
    pub fn from_data(xs: &[f32]) -> Result<Self, TensorError> {
        let (lo, hi) = crate::simd::min_max_f32(xs);
        ActQuantParams::from_range(lo, hi)
    }

    /// Quantizes a real value (round-to-nearest, saturating).
    #[inline]
    pub fn quantize(&self, v: f32) -> u8 {
        let q = (v / self.scale).round() + f32::from(self.zero_point);
        q.clamp(0.0, 255.0) as u8
    }

    /// Dequantizes back to a real value.
    #[inline]
    pub fn dequantize(&self, q: u8) -> f32 {
        self.scale * (f32::from(q) - f32::from(self.zero_point))
    }
}

/// Quantizes a slice of activations into a caller-owned `u8` buffer
/// (allocation-free; `out.len()` must equal `xs.len()`). Dispatches to
/// the vectorized tiers of the `simd` module; the result is bit-identical
/// to calling [`ActQuantParams::quantize`] per element.
pub fn quantize_u8_into(xs: &[f32], params: &ActQuantParams, out: &mut [u8]) {
    debug_assert_eq!(xs.len(), out.len());
    crate::simd::quantize_u8_slice(xs, params.scale, params.zero_point, out);
}

/// Quantizes a slice with INT8 linear parameters into a caller-owned
/// buffer (allocation-free counterpart of [`quantize_linear`]).
pub fn quantize_linear_into(xs: &[f32], params: &LinearQuantParams, out: &mut [i8]) {
    debug_assert_eq!(xs.len(), out.len());
    for (dst, &v) in out.iter_mut().zip(xs) {
        let q = (v / params.scale).round() as i32 + params.zero_point;
        *dst = q.clamp(-128, 127) as i8;
    }
}

/// Fixed-point requantizer: maps `i32` GEMM accumulators to `i8` outputs
/// by multiplying with a real factor `m ∈ (0, 1)` expressed as a Q31
/// mantissa and a right shift (gemmlowp's `M = M0 · 2^-s`, `M0 ∈ [0.5,
/// 1)`), then rounding half away from zero and saturating to `i8`.
///
/// The effective multiplier is `multiplier / 2^shift` exactly; callers
/// that need the applied factor (for error analysis or tests) read it via
/// [`Requant::effective_multiplier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// Q31 mantissa, in `[2^30, 2^31)`.
    multiplier: i32,
    /// Total right shift applied after the `i64` product (≥ 31).
    shift: u32,
}

impl Requant {
    /// Builds a requantizer for `real_multiplier`, which must lie in
    /// `(0, 1)` — the usual `s_a · s_w / s_out` with the output scale
    /// chosen to cover the accumulator range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantization`] when the multiplier is
    /// not in `(0, 1)` or is too small to represent (`< 2^-31`).
    pub fn new(real_multiplier: f32) -> Result<Self, TensorError> {
        if !real_multiplier.is_finite() || real_multiplier <= 0.0 || real_multiplier >= 1.0 {
            return Err(TensorError::InvalidQuantization {
                detail: format!("requant multiplier must be in (0, 1), got {real_multiplier}"),
            });
        }
        // Decompose m = m0 * 2^-e with m0 in [0.5, 1).
        let mut e = 0u32;
        let mut m0 = f64::from(real_multiplier);
        while m0 < 0.5 {
            m0 *= 2.0;
            e += 1;
            if e > 31 {
                return Err(TensorError::InvalidQuantization {
                    detail: format!("requant multiplier {real_multiplier} underflows Q31"),
                });
            }
        }
        let mut mantissa = (m0 * f64::from(1u32 << 31)).round() as i64;
        if mantissa == 1i64 << 31 {
            // Rounded up to 1.0: renormalize to 0.5 with one less shift.
            mantissa = 1i64 << 30;
            if e == 0 {
                return Err(TensorError::InvalidQuantization {
                    detail: format!("requant multiplier {real_multiplier} rounds to 1.0"),
                });
            }
            e -= 1;
        }
        Ok(Requant {
            multiplier: mantissa as i32,
            shift: 31 + e,
        })
    }

    /// The exact factor this requantizer applies: `multiplier / 2^shift`.
    pub fn effective_multiplier(&self) -> f64 {
        f64::from(self.multiplier) / f64::from(self.shift).exp2()
    }

    /// The raw `(multiplier, shift)` pair for the crate's vectorized
    /// requantize kernel.
    #[inline]
    pub(crate) fn parts(&self) -> (i32, u32) {
        (self.multiplier, self.shift)
    }

    /// Requantizes one accumulator: `sat_i8(round(acc · m))` with
    /// round-half-away-from-zero — bit-exact against an `f64` reference
    /// using [`Requant::effective_multiplier`], because the `i64` product
    /// `acc · multiplier` is exact and the rounding shift mirrors
    /// `f64::round`.
    #[inline]
    pub fn apply(&self, acc: i32) -> i8 {
        let prod = i64::from(acc) * i64::from(self.multiplier);
        let s = self.shift;
        debug_assert!((31..=62).contains(&s), "shift {s} out of range");
        let nudge = 1i64 << (s - 1);
        let rounded = if prod >= 0 {
            (prod + nudge) >> s
        } else {
            -((-prod + nudge) >> s)
        };
        rounded.clamp(-128, 127) as i8
    }
}

/// Requantizes a full accumulator buffer into a caller-owned `i8` buffer
/// (allocation-free). Dispatches to the vectorized tiers in
/// the `simd` module; bit-identical to [`Requant::apply`] per element.
/// Telemetry span: `quant.requant`.
pub fn requantize_i8_into(acc: &[i32], rq: &Requant, out: &mut [i8]) {
    debug_assert_eq!(acc.len(), out.len());
    let _span = greuse_telemetry::span!("quant.requant");
    let (multiplier, shift) = rq.parts();
    crate::simd::requantize_i8_slice(acc, multiplier, shift, out);
}

/// Quantizes a tensor with INT8 linear (affine) quantization.
pub fn quantize_linear(t: &Tensor<f32>, params: &LinearQuantParams) -> QTensor {
    let values = Tensor::from_fn(t.shape().dims(), |i| {
        let q = (t.as_slice()[i] / params.scale).round() as i32 + params.zero_point;
        q.clamp(-128, 127) as i8
    });
    QTensor {
        values,
        params: *params,
    }
}

/// Dequantizes an INT8-linear tensor back to `f32`.
pub fn dequantize_linear(q: &QTensor) -> Tensor<f32> {
    Tensor::from_fn(q.values.shape().dims(), |i| {
        q.params.scale * (i32::from(q.values.as_slice()[i]) - q.params.zero_point) as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn q7_roundtrip_error_bounded() {
        let fmt = Q7::new(7).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let v: f32 = rng.gen_range(-0.99..0.99);
            let err = (fmt.dequantize(fmt.quantize(v)) - v).abs();
            assert!(err <= fmt.max_rounding_error() + 1e-6);
        }
    }

    #[test]
    fn q7_saturates() {
        let fmt = Q7::new(7).unwrap();
        assert_eq!(fmt.quantize(10.0), 127);
        assert_eq!(fmt.quantize(-10.0), -128);
    }

    #[test]
    fn q7_fitting_picks_precise_format() {
        assert_eq!(Q7::fitting(0.5).frac_bits, 7);
        assert!(Q7::fitting(8.0).frac_bits < 7);
        let fmt = Q7::fitting(8.0);
        // Must be able to represent 8.0 without saturation error > step.
        let back = fmt.dequantize(fmt.quantize(8.0));
        assert!((back - 8.0).abs() <= 127.0); // representable at all
    }

    #[test]
    fn q7_rejects_too_many_bits() {
        assert!(Q7::new(8).is_err());
    }

    #[test]
    fn linear_symmetric_roundtrip() {
        let params = LinearQuantParams::symmetric(2.0).unwrap();
        let t = Tensor::from_vec(vec![-2.0f32, -1.0, 0.0, 1.0, 2.0], &[5]).unwrap();
        let q = quantize_linear(&t, &params);
        let back = dequantize_linear(&q);
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= params.scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn linear_asymmetric_covers_range() {
        let params = LinearQuantParams::asymmetric(0.0, 6.0).unwrap();
        let t = Tensor::from_vec(vec![0.0f32, 3.0, 6.0], &[3]).unwrap();
        let q = quantize_linear(&t, &params);
        let back = dequantize_linear(&q);
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= params.scale + 1e-5);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(LinearQuantParams::symmetric(0.0).is_err());
        assert!(LinearQuantParams::symmetric(f32::NAN).is_err());
        assert!(LinearQuantParams::asymmetric(3.0, 1.0).is_err());
    }

    #[test]
    fn act_params_include_zero_and_roundtrip() {
        let p = ActQuantParams::from_range(0.5, 6.0).unwrap();
        // Range widened to [0, 6]; zero must quantize exactly.
        assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
        for &v in &[0.5f32, 1.7, 3.0, 5.99] {
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale / 2.0 + 1e-6, "v={v} err={err}");
        }
        // Saturation outside the covered range.
        assert_eq!(p.quantize(-100.0), 0);
        assert_eq!(p.quantize(100.0), 255);
    }

    #[test]
    fn act_params_degenerate_all_zero() {
        let p = ActQuantParams::from_data(&[0.0, 0.0]).unwrap();
        assert_eq!(p.quantize(0.0), p.zero_point);
        assert_eq!(p.dequantize(p.zero_point), 0.0);
        assert!(ActQuantParams::from_range(f32::NAN, 1.0).is_err());
    }

    #[test]
    fn requant_matches_f64_reference_exactly() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let m: f32 = rng.gen_range(1e-6f32..0.999);
            let rq = Requant::new(m).unwrap();
            let em = rq.effective_multiplier();
            for _ in 0..200 {
                let acc: i32 = rng.gen_range(-1_000_000..1_000_000);
                let want = (f64::from(acc) * em).round().clamp(-128.0, 127.0) as i8;
                assert_eq!(rq.apply(acc), want, "m={m} acc={acc}");
            }
        }
    }

    #[test]
    fn requant_saturates_at_i8_bounds() {
        let rq = Requant::new(0.5).unwrap();
        assert_eq!(rq.apply(i32::MAX), 127);
        assert_eq!(rq.apply(i32::MIN), -128);
        assert_eq!(rq.apply(254), 127);
        assert_eq!(rq.apply(255), 127); // would round to 128 → saturates
        assert_eq!(rq.apply(-256), -128);
        assert_eq!(rq.apply(-257), -128);
    }

    #[test]
    fn requant_rejects_out_of_range_multipliers() {
        assert!(Requant::new(0.0).is_err());
        assert!(Requant::new(1.0).is_err());
        assert!(Requant::new(-0.5).is_err());
        assert!(Requant::new(f32::NAN).is_err());
    }

    #[test]
    fn tensor_quantize_shapes_preserved() {
        let fmt = Q7::new(6).unwrap();
        let t = Tensor::<f32>::zeros(&[2, 3, 4]);
        let q = fmt.quantize_tensor(&t);
        assert_eq!(q.shape().dims(), &[2, 3, 4]);
        let d = fmt.dequantize_tensor(&q);
        assert_eq!(d.shape().dims(), &[2, 3, 4]);
    }
}
