//! # greuse-tensor
//!
//! Dense-tensor substrate for the `greuse` workspace: shapes, row-major
//! tensors over `f32`/`i8`/`i32`, GEMM kernels (floating point and
//! CMSIS-NN-style fixed point), the `im2col` expansion that turns
//! convolution into matrix multiplication, and permutation utilities used
//! by generalized-reuse reorders.
//!
//! The crate deliberately implements everything from scratch (no BLAS, no
//! ndarray): the paper's reuse transformations operate directly on the
//! `im2col` matrix layout, so owning that representation end-to-end keeps
//! the three views (image / im2col / memory) of the paper in one place.
//!
//! ## Example
//!
//! ```
//! use greuse_tensor::{Tensor, ConvSpec, im2col};
//!
//! # fn main() -> Result<(), greuse_tensor::TensorError> {
//! // A 3-channel 8x8 image and a 3x3 convolution with 4 filters.
//! let spec = ConvSpec::new(3, 4, 3, 3).with_stride(1).with_padding(1);
//! let image = Tensor::zeros(&[3, 8, 8]);
//! let x = im2col(&image, &spec)?; // (out_h*out_w) x (3*3*3)
//! assert_eq!(x.shape().dims(), &[64, 27]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod conv;
mod error;
mod gemm;
mod im2col;
mod pack;
mod perm;
mod pool;
mod qgemm;
mod quantized;
mod shape;
mod simd;
mod stats;
mod tensor;

pub use conv::{conv2d_naive, ConvSpec};
pub use error::TensorError;
pub use gemm::{
    gemm_bt_f32, gemm_bt_f32_into, gemm_bt_f32_into_with, gemm_bt_f32_strided_into_with, gemm_f32,
    gemm_f32_into, gemm_f32_into_with, gemm_f32_parallel, gemm_q7, gemm_ref_f32, matvec_f32,
    matvec_f32_into_with, Gemm,
};
pub use im2col::{
    col2im_accumulate, im2col, im2col_into, im2col_permuted, im2col_q8_into, Im2colLayout,
};
pub use pack::{GemmScratch, MR, NR};
pub use perm::Permutation;
pub use pool::WorkerPool;
pub use qgemm::{apply_zero_point, gemm_q8_into_with, gemm_q8_ref, weight_row_sums_into};
pub use quantized::{
    dequantize_linear, quantize_linear, quantize_linear_into, quantize_u8_into, requantize_i8_into,
    ActQuantParams, LinearQuantParams, QTensor, Requant, Q7,
};
pub use shape::Shape;
pub use simd::{
    accumulate_u8_i32, add_assign_f32, add_assign_i32, dequantize_u8_slice, min_max_f32,
    recover_rows_f32, recover_rows_i32, scatter_accumulate_u8_i32,
};
pub use stats::{covariance, frobenius_norm_sq, max_eigenvalue, mean_rows};
pub use tensor::{Element, Tensor};

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
