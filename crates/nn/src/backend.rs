//! Convolution execution backends.
//!
//! Every convolution layer lowers to `Y = X × Wᵀ` on its im2col matrix
//! `X` (`N x K`) and weight matrix `W` (`M x K`). A [`ConvBackend`] owns
//! that multiplication, which is exactly the seam where the paper's reuse
//! runtime plugs in: the `greuse` crate implements this trait with
//! clustering + centroid GEMM + recovery.

use parking_lot_shim::Mutex;

use greuse_tensor::{gemm_bt_f32, gemm_bt_f32_into, ConvSpec, Tensor, TensorError};

// `parking_lot` is only needed by the core crate; keep this substrate's
// dependency surface minimal with a std shim exposing the same call shape.
mod parking_lot_shim {
    pub struct Mutex<T>(std::sync::Mutex<T>);
    impl<T> Mutex<T> {
        pub fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|p| p.into_inner())
        }
    }
    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Mutex({:?})", self.lock())
        }
    }
    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }
}

/// Executes the post-`im2col` matrix product of one convolution layer.
///
/// `layer` names the convolution (e.g. `"conv2"`, `"fire3.expand3x3"`),
/// letting a backend apply per-layer reuse patterns — the paper selects a
/// pattern per layer (§5.1). `x` is `N x K` (rows = output positions),
/// `weights` is `M x K`; the result must be `N x M`.
pub trait ConvBackend: Sync {
    /// Computes `Y = X × Wᵀ` (an `N x M` tensor).
    ///
    /// # Errors
    ///
    /// Implementations return tensor-level errors for malformed operands.
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError>;

    /// Computes `Y = X × Wᵀ` into a caller-provided `N x M` tensor.
    ///
    /// Backends with reusable scratch state override this to skip the
    /// per-call output allocation; the default delegates to
    /// [`ConvBackend::conv_gemm`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvBackend::conv_gemm`], plus a shape
    /// mismatch when `y` is not `N x M`.
    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let out = self.conv_gemm(layer, spec, x, weights)?;
        if y.shape() != out.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "conv_gemm_into",
                expected: out.shape().dims().to_vec(),
                actual: y.shape().dims().to_vec(),
            });
        }
        *y = out;
        Ok(())
    }
}

/// The exact dense baseline: a plain GEMM, equivalent to CMSIS-NN's
/// `arm_convolve` kernels up to arithmetic type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseBackend;

impl ConvBackend for DenseBackend {
    fn conv_gemm(
        &self,
        _layer: &str,
        _spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        // X × Wᵀ without materializing the transpose: the GEMM reads the
        // M x K weight rows in place and packs only the activations.
        gemm_bt_f32(x, weights)
    }

    /// Writes the packed `X × Wᵀ` straight into `y` — the same kernel and
    /// summation order as [`DenseBackend::conv_gemm`], so bit-identical,
    /// with no second `N x M` tensor.
    fn conv_gemm_into(
        &self,
        _layer: &str,
        _spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let rank2 = x.shape().rank() == 2 && weights.shape().rank() == 2;
        if !rank2 || x.cols() != weights.cols() {
            // The allocating path owns the operand-shape error.
            return gemm_bt_f32(x, weights).map(|_| ());
        }
        let (n, k, m) = (x.rows(), x.cols(), weights.rows());
        if y.shape().dims() != [n, m] {
            return Err(TensorError::ShapeMismatch {
                op: "conv_gemm_into",
                expected: vec![n, m],
                actual: y.shape().dims().to_vec(),
            });
        }
        gemm_bt_f32_into(x.as_slice(), weights.as_slice(), y.as_mut_slice(), n, k, m)
    }
}

/// One recorded convolution call (shapes only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvCall {
    /// Layer name as reported by the model.
    pub layer: String,
    /// Convolution geometry.
    pub spec: ConvSpec,
    /// Rows of the im2col matrix (`N` = output positions).
    pub n: usize,
    /// Columns of the im2col matrix (`K = D_in`).
    pub k: usize,
    /// Output channels (`M = D_out`).
    pub m: usize,
}

/// A backend that executes densely but records every convolution call —
/// used to enumerate a model's conv layers and their GEMM shapes, which
/// feeds the MCU latency model and the pattern-selection workflow.
#[derive(Debug, Default)]
pub struct RecordingBackend {
    calls: Mutex<Vec<ConvCall>>,
}

impl RecordingBackend {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RecordingBackend {
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Returns the calls recorded so far, in execution order.
    pub fn calls(&self) -> Vec<ConvCall> {
        self.calls.lock().clone()
    }

    /// Clears the recording.
    pub fn reset(&self) {
        self.calls.lock().clear();
    }
}

impl ConvBackend for RecordingBackend {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        self.calls.lock().push(ConvCall {
            layer: layer.to_string(),
            spec: *spec,
            n: x.rows(),
            k: x.cols(),
            m: weights.rows(),
        });
        DenseBackend.conv_gemm(layer, spec, x, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dense_backend_is_plain_gemm() {
        let mut rng = SmallRng::seed_from_u64(0);
        let x = Tensor::from_fn(&[6, 4], |_| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(&[3, 4], |_| rng.gen_range(-1.0f32..1.0));
        let spec = ConvSpec::new(1, 3, 2, 2);
        let y = DenseBackend.conv_gemm("c", &spec, &x, &w).unwrap();
        let want = greuse_tensor::gemm_f32(&x, &w.transpose()).unwrap();
        assert_eq!(y, want);
    }

    #[test]
    fn conv_gemm_into_default_matches_and_checks_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let x = Tensor::from_fn(&[6, 4], |_| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(&[3, 4], |_| rng.gen_range(-1.0f32..1.0));
        let spec = ConvSpec::new(1, 3, 2, 2);
        let mut y = Tensor::<f32>::zeros(&[6, 3]);
        DenseBackend
            .conv_gemm_into("c", &spec, &x, &w, &mut y)
            .unwrap();
        let want = DenseBackend.conv_gemm("c", &spec, &x, &w).unwrap();
        assert_eq!(y, want);
        let mut bad = Tensor::<f32>::zeros(&[6, 4]);
        assert!(DenseBackend
            .conv_gemm_into("c", &spec, &x, &w, &mut bad)
            .is_err());
    }

    #[test]
    fn recording_backend_records_shapes() {
        let rec = RecordingBackend::new();
        let x = Tensor::<f32>::zeros(&[6, 4]);
        let w = Tensor::<f32>::zeros(&[3, 4]);
        let spec = ConvSpec::new(1, 3, 2, 2);
        rec.conv_gemm("conv1", &spec, &x, &w).unwrap();
        rec.conv_gemm("conv2", &spec, &x, &w).unwrap();
        let calls = rec.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].layer, "conv1");
        assert_eq!(calls[0].n, 6);
        assert_eq!(calls[0].k, 4);
        assert_eq!(calls[0].m, 3);
        rec.reset();
        assert!(rec.calls().is_empty());
    }
}
