//! The executor seam: what the guarded backend, the batch executor and
//! the serve engine need from a workspace, implemented once by the f32
//! [`ExecWorkspace`] and once by the int8 [`QuantWorkspace`]. Everything
//! above this trait — guard sequence, statistics, pooling, per-image
//! isolation — is written once, generic over the workspace.

use std::cell::RefCell;

use greuse_tensor::{gemm_bt_f32_into_with, ConvSpec, Tensor, TensorError};

use crate::backend::boundary_error;
use crate::exec::{ExecWorkspace, QuantWorkspace, ReuseStats};
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::{GreuseError, Result};

thread_local! {
    /// One workspace of each kind per thread driving batches. Pool
    /// workers are persistent, so these stay warm (sized, permutations
    /// compiled, int8 weight codes resident) across batches — a parallel
    /// batch's steady state allocates nothing.
    static BATCH_WS: RefCell<ExecWorkspace> = RefCell::new(ExecWorkspace::new());
    static BATCH_QWS: RefCell<QuantWorkspace> = RefCell::new(QuantWorkspace::new());
}

/// A workspace one layer call runs on: the f32 [`ExecWorkspace`] or the
/// int8 [`QuantWorkspace`]. Not nameable outside the crate; it only
/// selects which of the two a generic backend or dispatch drives.
pub trait LayerExecutor: Default + Send {
    /// Whether an unpatterned layer runs on this workspace. The int8
    /// workspace keeps each layer's quantized weights resident, so every
    /// layer goes through it; f32 layers without a pattern run through
    /// the stateless `DenseBackend` with no workspace checkout.
    const DENSE_IN_WORKSPACE: bool;

    /// Runs one layer's `Y ≈ X × Wᵀ` into `y` (`N x M`, row-major).
    /// `pattern: None` runs it dense: the exact packed
    /// [`gemm_bt_f32_into_with`] for f32, the dense-quantized u8×i8 GEMM
    /// for int8.
    #[allow(clippy::too_many_arguments)] // operands + spec + pattern + hashes + layer key
    fn run_layer(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        spec: Option<&ConvSpec>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        layer: &str,
        y: &mut [f32],
    ) -> Result<ReuseStats>;

    /// Maps an error of [`LayerExecutor::run_layer`] onto the
    /// tensor-level seam of `ConvBackend`.
    fn tensor_error(e: GreuseError) -> TensorError;

    /// Enables or disables the temporal cache (no-op when unchanged).
    fn set_cache(&mut self, enabled: bool);

    /// Runs `f` on this thread's batch workspace.
    fn with_batch<R>(f: impl FnOnce(&mut Self) -> R) -> R;
}

/// Checks `w` (`M x K`) and `y` (`N x M`) against the `N x K` input,
/// returning `(n, k, m)`.
pub(crate) fn gemm_dims(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    y: &[f32],
) -> Result<(usize, usize, usize)> {
    let (n, k) = (x.rows(), x.cols());
    if w.shape().rank() != 2 || w.cols() != k {
        return Err(GreuseError::InvalidPattern {
            detail: format!(
                "weight matrix {:?} incompatible with im2col width {k}",
                w.shape().dims()
            ),
        });
    }
    let m = w.rows();
    if y.len() != n * m {
        return Err(GreuseError::InvalidPattern {
            detail: format!("output buffer holds {} elements, need {}", y.len(), n * m),
        });
    }
    Ok((n, k, m))
}

impl LayerExecutor for ExecWorkspace {
    const DENSE_IN_WORKSPACE: bool = false;

    fn run_layer(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        spec: Option<&ConvSpec>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        layer: &str,
        y: &mut [f32],
    ) -> Result<ReuseStats> {
        if let Some(p) = pattern {
            return self.execute_into(x, w, spec, p, hashes, layer, y);
        }
        let (n, k, m) = gemm_dims(x, w, y)?;
        gemm_bt_f32_into_with(x.as_slice(), w.as_slice(), y, n, k, m, self.gemm_scratch())?;
        let mut stats = ReuseStats::default();
        stats.ops.gemm_macs = (n * k * m) as u64;
        Ok(stats)
    }

    fn tensor_error(e: GreuseError) -> TensorError {
        boundary_error(e)
    }

    fn set_cache(&mut self, enabled: bool) {
        self.set_temporal_cache(enabled);
    }

    fn with_batch<R>(f: impl FnOnce(&mut Self) -> R) -> R {
        BATCH_WS.with(|ws| f(&mut ws.borrow_mut()))
    }
}

impl LayerExecutor for QuantWorkspace {
    const DENSE_IN_WORKSPACE: bool = true;

    fn run_layer(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        _spec: Option<&ConvSpec>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        layer: &str,
        y: &mut [f32],
    ) -> Result<ReuseStats> {
        self.execute_into(x, w, pattern, hashes, layer, y)
    }

    fn tensor_error(e: GreuseError) -> TensorError {
        match e {
            GreuseError::Tensor(t) => t,
            other => TensorError::InvalidQuantization {
                detail: format!("quantized backend: {other}"),
            },
        }
    }

    fn set_cache(&mut self, enabled: bool) {
        self.set_temporal_cache(enabled);
    }

    fn with_batch<R>(f: impl FnOnce(&mut Self) -> R) -> R {
        BATCH_QWS.with(|ws| f(&mut ws.borrow_mut()))
    }
}
