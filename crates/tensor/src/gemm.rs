//! General matrix multiplication kernels.
//!
//! Two families are provided:
//!
//! * [`gemm_bt_f32`] and its `_into` variants — `C = A × Bᵀ` through the
//!   packed, register-blocked `f32` pipeline (see the `pack` module),
//!   which reads the weight rows of `Bᵀ` in place. Every floating-point
//!   product runs here: convolution, `Linear`, LSH projection and the
//!   reuse executors' centroid GEMMs. [`gemm_f32`] is the one allocating
//!   convenience for a row-major `B`: it transposes `B` and calls
//!   [`gemm_bt_f32`]. Parallelism lives one level up, in the batch
//!   executor, not inside a product.
//! * [`gemm_q7`] — a CMSIS-NN-style fixed-point kernel: `i8` (Q7) operands,
//!   `i32` accumulation, with a right-shift requantization, mirroring the
//!   `arm_convolve_*` kernels the paper runs on Cortex-M.
//!
//! The pre-packing scalar kernel survives as [`gemm_ref_f32`] so benches
//! can quantify the microkernel win and tests can pin bit-compatibility.

use std::cell::RefCell;

use crate::pack::{gemm_packed_bt, GemmScratch};
use crate::{Tensor, TensorError};

/// Block sizes of the scalar reference kernel ([`gemm_ref_f32`]);
/// correctness does not depend on these values.
const BLOCK_M: usize = 32;
const BLOCK_N: usize = 64;
const BLOCK_K: usize = 64;

thread_local! {
    /// Per-thread pack buffers backing the scratch-less entry points.
    static GEMM_TLS: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

fn with_tls_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    GEMM_TLS.with(|s| f(&mut s.borrow_mut()))
}

fn check_rank2(
    op: &'static str,
    a: &Tensor<f32>,
    b: &Tensor<f32>,
) -> Result<(usize, usize, usize), TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: vec![2, 2],
            actual: vec![a.shape().rank(), b.shape().rank()],
        });
    }
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: vec![m, k, n],
            actual: vec![m, k2, n],
        });
    }
    Ok((m, k, n))
}

fn check_lens(
    op: &'static str,
    a: &[f32],
    b_len: usize,
    c: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    if a.len() != m * k || b_len != k * n || c.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: vec![m * k, k * n, m * n],
            actual: vec![a.len(), b_len, c.len()],
        });
    }
    Ok(())
}

/// Computes `C = A × B` for row-major rank-2 `f32` tensors: transposes
/// `B` (allocating) and runs [`gemm_bt_f32`].
///
/// Per-element sums accumulate in strictly ascending `k` order from
/// `+0.0`, so the result is bit-identical to a naive triple loop (see the
/// `pack` module).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the operands are not rank-2
/// or the inner dimensions disagree.
pub fn gemm_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    check_rank2("gemm_f32", a, b)?;
    gemm_bt_f32(a, &b.transpose())
}

/// Computes `C = A × Bᵀ` where `bt` is the row-major `n x k` matrix whose
/// transpose participates in the product.
///
/// The rows of `bt` are read in place and only `a` is packed (see
/// the `pack` module), so neither a transposed copy nor a per-call repack
/// of `bt` is ever made — this is how weight matrices (stored
/// `out_channels x k`) and LSH projection matrices (`H x L`) are applied.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the operands are not rank-2
/// or `a.cols() != bt.cols()`.
pub fn gemm_bt_f32(a: &Tensor<f32>, bt: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    let (ad, btd) = (a.shape().dims(), bt.shape().dims());
    if ad.len() != 2 || btd.len() != 2 || ad[1] != btd[1] {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_bt_f32",
            expected: ad.to_vec(),
            actual: btd.to_vec(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), bt.rows());
    let mut c = Tensor::zeros(&[m, n]);
    with_tls_scratch(|scratch| {
        gemm_packed_bt(
            a.as_slice(),
            bt.as_slice(),
            k,
            c.as_mut_slice(),
            m,
            k,
            n,
            scratch,
        );
    });
    Ok(c)
}

/// [`gemm_bt_f32`] into a caller-provided buffer: `C = A × Bᵀ` with
/// `A`: `m x k`, `bt`: `n x k`, `C`: `m x n`. `c` is overwritten (its prior
/// contents are never read) and the pack buffers live in thread-local
/// storage, so the result is bit-identical to [`gemm_bt_f32`] and nothing
/// is allocated in steady state.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a slice length disagrees
/// with its dimensions.
pub fn gemm_bt_f32_into(
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    check_lens("gemm_bt_f32_into", a, bt.len(), c, m, k, n)?;
    with_tls_scratch(|scratch| {
        gemm_packed_bt(a, bt, k, c, m, k, n, scratch);
    });
    Ok(())
}

/// [`gemm_bt_f32`] over raw slices with caller-owned pack buffers:
/// `C = A × Bᵀ` with `A`: `m x k`, `bt`: `n x k`, `C`: `m x n` — the
/// contiguous case (`ldb = k`) of [`gemm_bt_f32_strided_into_with`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `bt` holds fewer than
/// `n * k` elements or `a` / `c` disagree with their dimensions.
pub fn gemm_bt_f32_into_with(
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    gemm_bt_f32_strided_into_with(a, bt, k, c, m, k, n, scratch)
}

/// [`gemm_bt_f32_into_with`] over `n` rows of `bt` that start `ldb`
/// elements apart: `C = A × Bᵀ` with `A`: `m x k`, `C`: `m x n`, and
/// `Bᵀ[j][kk] = bt[j * ldb + kk]` (`ldb >= k`).
///
/// This multiplies by a column slice `col0..col0 + k` of a wider row-major
/// matrix `W` without copying it: pass `&w[col0..]` with `ldb` = `W`'s
/// width. The kernel reads the slice's rows in place, so the result is
/// bit-identical to [`gemm_bt_f32_into_with`] on a compacted copy.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `ldb < k`, `bt` is too
/// short for `n` rows at stride `ldb`, or `a` / `c` disagree with their
/// dimensions.
#[allow(clippy::too_many_arguments)] // three operands + stride + three dims + scratch
pub fn gemm_bt_f32_strided_into_with(
    a: &[f32],
    bt: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    let bt_needed = if n == 0 { 0 } else { (n - 1) * ldb + k };
    if ldb < k || bt.len() < bt_needed {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_bt_f32_strided_into_with",
            expected: vec![n, k, ldb, bt_needed],
            actual: vec![bt.len()],
        });
    }
    check_lens("gemm_bt_f32_strided_into_with", a, k * n, c, m, k, n)?;
    gemm_packed_bt(a, bt, ldb, c, m, k, n, scratch);
    Ok(())
}

/// The pre-packing scalar blocked kernel, kept as a reference point.
///
/// This is the kernel `gemm_f32` used before the packed pipeline: cache
/// blocked with an i-k-j inner ordering and a per-element `a == 0.0`
/// skip. Benches compare against it to quantify the packed pipeline's
/// win; tests pin the packed kernel's bit-compatibility with it.
///
/// # Errors
///
/// Same conditions as [`gemm_f32`].
pub fn gemm_ref_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    let (m, k, n) = check_rank2("gemm_ref_f32", a, b)?;
    let mut c = Tensor::zeros(&[m, n]);
    gemm_block(a.as_slice(), b.as_slice(), c.as_mut_slice(), k, n, 0, m);
    Ok(c)
}

/// Blocked scalar GEMM on raw slices over rows `row0..row1` of `a`/`c`.
fn gemm_block(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize, row0: usize, row1: usize) {
    for i0 in (row0..row1).step_by(BLOCK_M) {
        let i1 = (i0 + BLOCK_M).min(row1);
        for k0 in (0..k).step_by(BLOCK_K) {
            let k1 = (k0 + BLOCK_K).min(k);
            for j0 in (0..n).step_by(BLOCK_N) {
                let j1 = (j0 + BLOCK_N).min(n);
                for i in i0..i1 {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n + j0..i * n + j1];
                    for kk in k0..k1 {
                        let aval = a_row[kk];
                        if aval == 0.0 {
                            continue;
                        }
                        let b_row = &b[kk * n + j0..kk * n + j1];
                        for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
                            *cv += aval * bv;
                        }
                    }
                }
            }
        }
    }
}

/// CMSIS-NN-style fixed-point GEMM: `C = requant(A × B)` where `A` and `B`
/// hold Q7 (`i8`) values, products accumulate in `i32`, and the result is
/// arithmetic-shifted right by `out_shift` bits then saturated back to Q7.
///
/// This models the `arm_fully_connected_q7` / `arm_convolve_HWC_q7` kernels
/// (16-bit SIMD MACs on Cortex-M4/M7) at the arithmetic level.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on incompatible operands.
pub fn gemm_q7(a: &Tensor<i8>, b: &Tensor<i8>, out_shift: u8) -> Result<Tensor<i8>, TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_q7",
            expected: vec![2, 2],
            actual: vec![a.shape().rank(), b.shape().rank()],
        });
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_q7",
            expected: vec![m, k, n],
            actual: vec![m, k2, n],
        });
    }
    let mut c = Tensor::<i8>::zeros(&[m, n]);
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let c_s = c.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc: i32 = 0;
            for kk in 0..k {
                acc += i32::from(a_s[i * k + kk]) * i32::from(b_s[kk * n + j]);
            }
            let shifted = acc >> out_shift;
            c_s[i * n + j] = shifted.clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i8;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn naive(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[[i, kk]] * b[[kk, j]];
                }
                c[[i, j]] = s;
            }
        }
        c
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_into_matches_allocating_kernel_bitwise() {
        let a = rand_mat(37, 41, 1);
        let bt = rand_mat(29, 41, 2);
        let want = gemm_bt_f32(&a, &bt).unwrap();
        let mut c = vec![f32::NAN; 37 * 29];
        gemm_bt_f32_into(a.as_slice(), bt.as_slice(), &mut c, 37, 41, 29).unwrap();
        assert_eq!(bits(&c), bits(want.as_slice()));
    }

    #[test]
    fn gemm_into_with_matches_tls_path_bitwise() {
        let a = rand_mat(19, 23, 12);
        let bt = rand_mat(17, 23, 13);
        let mut want = vec![f32::NAN; 19 * 17];
        gemm_bt_f32_into(a.as_slice(), bt.as_slice(), &mut want, 19, 23, 17).unwrap();
        let mut scratch = GemmScratch::new();
        let mut c = vec![f32::NAN; 19 * 17];
        gemm_bt_f32_into_with(
            a.as_slice(),
            bt.as_slice(),
            &mut c,
            19,
            23,
            17,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(bits(&c), bits(&want));
    }

    #[test]
    fn gemm_into_rejects_bad_lengths() {
        let mut scratch = GemmScratch::new();
        // (a, bt, c) lengths for m = 2, k = 3, n = 2: one of them off each.
        for (a_len, bt_len, c_len) in [(6, 6, 5), (5, 6, 4), (6, 5, 4), (6, 6, 3)] {
            let (a, bt) = (vec![0.0f32; a_len], vec![0.0f32; bt_len]);
            let mut c = vec![0.0f32; c_len];
            assert!(gemm_bt_f32_into(&a, &bt, &mut c, 2, 3, 2).is_err());
            assert!(gemm_bt_f32_into_with(&a, &bt, &mut c, 2, 3, 2, &mut scratch).is_err());
        }
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_matches_naive_small() {
        let a = rand_mat(7, 5, 1);
        let b = rand_mat(5, 9, 2);
        let c = gemm_f32(&a, &b).unwrap();
        let r = naive(&a, &b);
        assert_eq!(c.as_slice(), r.as_slice());
    }

    #[test]
    fn gemm_matches_naive_blocked_sizes() {
        // Sizes straddling the block boundaries.
        let a = rand_mat(65, 70, 3);
        let b = rand_mat(70, 130, 4);
        let c = gemm_f32(&a, &b).unwrap();
        let r = naive(&a, &b);
        assert_eq!(c.as_slice(), r.as_slice());
    }

    #[test]
    fn gemm_matches_scalar_reference_bitwise() {
        let a = rand_mat(53, 38, 21);
        let b = rand_mat(38, 67, 22);
        let packed = gemm_f32(&a, &b).unwrap();
        let scalar = gemm_ref_f32(&a, &b).unwrap();
        assert_eq!(packed.as_slice(), scalar.as_slice());
    }

    #[test]
    fn gemm_bt_matches_materialized_transpose_bitwise() {
        let a = rand_mat(14, 26, 30);
        let bt = rand_mat(9, 26, 31); // n x k
        let via_bt = gemm_bt_f32(&a, &bt).unwrap();
        let want = naive(&a, &bt.transpose());
        assert_eq!(bits(via_bt.as_slice()), bits(want.as_slice()));
        assert_eq!(via_bt.shape().dims(), &[14, 9]);
    }

    /// Operands of rank 1 and rank 3 as well as a rank-2 inner-dimension
    /// mismatch, on both sides.
    fn bad_operand_pairs() -> Vec<(Tensor<f32>, Tensor<f32>)> {
        let m = rand_mat(3, 4, 32);
        let (v, cube) = (Tensor::zeros(&[4]), Tensor::zeros(&[2, 3, 4]));
        vec![
            (m.clone(), v.clone()),
            (v, m.clone()),
            (m.clone(), cube.clone()),
            (cube, m),
        ]
    }

    #[test]
    fn gemm_bt_rejects_bad_shapes() {
        let a = rand_mat(3, 4, 32);
        let bt = rand_mat(5, 3, 33);
        assert!(gemm_bt_f32(&a, &bt).is_err());
        for (a, bt) in bad_operand_pairs() {
            assert!(matches!(
                gemm_bt_f32(&a, &bt),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = rand_mat(3, 4, 7);
        let b = rand_mat(5, 2, 8);
        assert!(gemm_f32(&a, &b).is_err());
        for (a, b) in bad_operand_pairs() {
            assert!(matches!(
                gemm_f32(&a, &b),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    fn identity_is_noop() {
        let a = rand_mat(6, 6, 9);
        let eye = Tensor::from_fn(&[6, 6], |i| if i / 6 == i % 6 { 1.0 } else { 0.0 });
        let c = gemm_f32(&a, &eye).unwrap();
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// `y = A x` as a one-row transposed GEMM (`yᵀ = xᵀ Aᵀ`, `m = 1`)
    /// against the one-column row-major product.
    #[test]
    fn matvec_matches_gemm_bitwise() {
        let a = rand_mat(8, 5, 10);
        let x: Vec<f32> = (0..5).map(|i| i as f32 * 0.3 - 1.0).collect();
        let xm = Tensor::from_vec(x.clone(), &[5, 1]).unwrap();
        let via_gemm = gemm_f32(&a, &xm).unwrap();
        assert_eq!(bits(via_gemm.as_slice()), bits(naive(&a, &xm).as_slice()));

        let mut scratch = GemmScratch::new();
        let mut y = vec![f32::NAN; 8];
        gemm_bt_f32_into_with(&x, a.as_slice(), &mut y, 1, 5, 8, &mut scratch).unwrap();
        assert_eq!(bits(&y), bits(via_gemm.as_slice()));
    }

    #[test]
    fn matvec_rejects_bad_len() {
        let a = rand_mat(4, 4, 11);
        let mut y = vec![0.0f32; 4];
        let mut scratch = GemmScratch::new();
        let short = [1.0, 2.0];
        assert!(
            gemm_bt_f32_into_with(&short, a.as_slice(), &mut y, 1, 4, 4, &mut scratch).is_err()
        );
        let row = Tensor::from_vec(short.to_vec(), &[1, 2]).unwrap();
        assert!(gemm_bt_f32(&row, &a).is_err());
    }

    #[test]
    fn q7_gemm_basic() {
        // [1 2; 3 4] x [1 0; 0 1] = same, no shift.
        let a = Tensor::from_vec(vec![1i8, 2, 3, 4], &[2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1i8, 0, 0, 1], &[2, 2]).unwrap();
        let c = gemm_q7(&a, &eye, 0).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn q7_gemm_saturates() {
        let a = Tensor::from_vec(vec![127i8, 127], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![127i8, 127], &[2, 1]).unwrap();
        let c = gemm_q7(&a, &b, 0).unwrap();
        assert_eq!(c.as_slice(), &[127]); // clamped, not wrapped
        let c_shift = gemm_q7(&a, &b, 8).unwrap();
        assert_eq!(c_shift.as_slice(), &[126]); // (127*127*2)>>8 = 126
    }

    #[test]
    fn q7_gemm_rejects_bad_shapes() {
        let a = Tensor::<i8>::zeros(&[2, 3]);
        let b = Tensor::<i8>::zeros(&[4, 2]);
        assert!(gemm_q7(&a, &b, 0).is_err());
    }
}
