//! General matrix multiplication kernels.
//!
//! Two families are provided:
//!
//! * [`gemm_f32`] / [`gemm_f32_parallel`] — packed, register-blocked `f32`
//!   kernels (see [`crate::pack`]) used for training and for
//!   floating-point reuse experiments. The parallel variant dispatches
//!   row blocks onto the persistent [`WorkerPool`](crate::WorkerPool).
//! * [`gemm_q7`] — a CMSIS-NN-style fixed-point kernel: `i8` (Q7) operands,
//!   `i32` accumulation, with a right-shift requantization, mirroring the
//!   `arm_convolve_*` kernels the paper runs on Cortex-M.
//!
//! The pre-packing scalar kernel survives as [`gemm_ref_f32`] so benches
//! can quantify the microkernel win and tests can pin bit-compatibility.

use std::cell::RefCell;

use crate::pack::{gemm_packed, gemm_packed_bt, GemmScratch, MR};
use crate::pool::WorkerPool;
use crate::{Tensor, TensorError};

/// Block sizes of the scalar reference kernel ([`gemm_ref_f32`]);
/// correctness does not depend on these values.
const BLOCK_M: usize = 32;
const BLOCK_N: usize = 64;
const BLOCK_K: usize = 64;

thread_local! {
    /// Per-thread pack buffers backing the scratch-less entry points.
    /// Pool worker threads are persistent, so this reaches a
    /// zero-allocation steady state on the parallel path too.
    static GEMM_TLS: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

fn with_tls_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    GEMM_TLS.with(|s| f(&mut s.borrow_mut()))
}

/// Marker struct grouping the GEMM entry points for documentation purposes.
///
/// ```
/// use greuse_tensor::{Gemm, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
/// let c = Gemm::f32(&a, &b).unwrap();
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gemm;

impl Gemm {
    /// Convenience wrapper over [`gemm_f32`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible operands.
    pub fn f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
        gemm_f32(a, b)
    }
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

/// Computes `C = A × B` for row-major rank-2 `f32` tensors via the packed
/// microkernel pipeline.
///
/// Per-element sums accumulate in strictly ascending `k` order, so the
/// result is bit-identical to a naive triple loop (see the `pack` module).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the operands are not rank-2
/// or the inner dimensions disagree.
pub fn gemm_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    let (m, k, n) = check_rank2("gemm_f32", a, b)?;
    let mut c = Tensor::zeros(&[m, n]);
    with_tls_scratch(|scratch| {
        gemm_packed(
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
            m,
            k,
            n,
            scratch,
        );
    });
    Ok(c)
}

/// Computes `C = A × B` into a caller-provided buffer, allocating nothing
/// in steady state (pack buffers live in thread-local storage).
///
/// Operands are raw row-major slices with explicit dimensions
/// (`A`: `m x k`, `B`: `k x n`, `C`: `m x n`). `c` is zeroed before
/// accumulation, so the result equals [`gemm_f32`] exactly (same packed
/// kernel, same summation order).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a slice length disagrees
/// with its dimensions.
pub fn gemm_f32_into(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    check_lens("gemm_f32_into", a, b.len(), c, m, k, n)?;
    c.fill(0.0);
    with_tls_scratch(|scratch| {
        gemm_packed(a, b, c, m, k, n, scratch);
    });
    Ok(())
}

/// [`gemm_f32_into`] with caller-owned pack buffers — the steady-state
/// entry point for executors whose workspace owns a [`GemmScratch`].
///
/// # Errors
///
/// Same conditions as [`gemm_f32_into`].
pub fn gemm_f32_into_with(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    check_lens("gemm_f32_into_with", a, b.len(), c, m, k, n)?;
    c.fill(0.0);
    gemm_packed(a, b, c, m, k, n, scratch);
    Ok(())
}

/// Computes `C = A × Bᵀ` where `bt` is the row-major `n x k` matrix whose
/// transpose participates in the product.
///
/// The rows of `bt` are read in place and only `a` is packed (see
/// the `pack` module), so neither a transposed copy nor a per-call repack
/// of `bt` is ever made — this is how weight matrices (stored
/// `out_channels x k`) and LSH projection matrices (`H x L`) are applied.
/// Bit-identical to `gemm_f32(a, bt.transpose())`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the operands are not rank-2
/// or `a.cols() != bt.cols()`.
pub fn gemm_bt_f32(a: &Tensor<f32>, bt: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    if a.shape().rank() != 2 || bt.shape().rank() != 2 || a.cols() != bt.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_bt_f32",
            expected: vec![a.rows(), a.cols(), bt.rows()],
            actual: vec![bt.cols(), bt.rows()],
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

/// Wraps a raw `*mut f32` so disjoint row ranges of `C` can be written
/// from pool workers.
struct SendPtr(*mut f32);
// SAFETY: every task writes a disjoint row range; see gemm_f32_parallel.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Multi-threaded variant of [`gemm_f32`]: splits rows of `A` into
/// microkernel-aligned blocks dispatched onto the persistent
/// [`WorkerPool`]. Each output row is computed exactly as in the
/// sequential kernel (row blocks are independent), so the result is
/// bit-identical to [`gemm_f32`] regardless of scheduling.
///
/// # Errors
///
/// Same conditions as [`gemm_f32`].
pub fn gemm_f32_parallel(
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    threads: usize,
) -> Result<Tensor<f32>, TensorError> {
    let (m, k, n) = check_rank2("gemm_f32_parallel", a, b)?;
    let threads = threads.max(1).min(m.max(1));
    if threads <= 1 || m <= MR {
        return gemm_f32(a, b);
    }
    let mut c = Tensor::zeros(&[m, n]);
    let pool = WorkerPool::global();
    let width = threads.min(pool.workers() + 1);
    // A few row blocks per participant so claim-based stealing can
    // balance uneven progress, each a multiple of MR for full tiles.
    let chunk = m.div_ceil(width * 2).div_ceil(MR).max(1) * MR;
    let n_tasks = m.div_ceil(chunk);
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let cp = SendPtr(c.as_mut_slice().as_mut_ptr());
    pool.run_tasks(n_tasks, width, &|t| {
        let r0 = t * chunk;
        let rows = chunk.min(m - r0);
        // SAFETY: tasks cover disjoint row ranges [r0, r0 + rows) of `C`,
        // and `c` outlives the (blocking) run_tasks call.
        let c_chunk = unsafe { std::slice::from_raw_parts_mut(cp.get().add(r0 * n), rows * n) };
        with_tls_scratch(|scratch| {
            gemm_packed(
                &a_s[r0 * k..(r0 + rows) * k],
                b_s,
                c_chunk,
                rows,
                k,
                n,
                scratch,
            );
        });
    });
    Ok(c)
}

/// The pre-packing scalar blocked kernel, kept as a reference point.
///
/// This is the kernel `gemm_f32` used before the packed pipeline: cache
/// blocked with an i-k-j inner ordering and a per-element `a == 0.0`
/// skip. Benches compare against it to quantify the microkernel win;
/// tests pin the packed kernel's bit-compatibility with it.
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

/// Computes `y = A × x` for a rank-2 `A` and vector `x`, through the
/// packed microkernel pipeline (the `n = 1` GEMM case), so matrix-vector
/// products share the summation order — and bit-compatibility — of
/// [`gemm_f32`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x.len() != A.cols()`.
pub fn matvec_f32(a: &Tensor<f32>, x: &[f32]) -> Result<Vec<f32>, TensorError> {
    if a.shape().rank() != 2 || a.cols() != x.len() {
        return Err(TensorError::ShapeMismatch {
            op: "matvec_f32",
            expected: vec![a.cols()],
            actual: vec![x.len()],
        });
    }
    let (m, k) = (a.rows(), a.cols());
    let mut y = vec![0.0f32; m];
    with_tls_scratch(|scratch| {
        gemm_packed(a.as_slice(), x, &mut y, m, k, 1, scratch);
    });
    Ok(y)
}

/// [`matvec_f32`] into a caller-provided buffer with caller-owned pack
/// buffers: `y = A × x` with `A`: `m x k`, `x`: `k`, `y`: `m`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a slice length disagrees
/// with its dimensions.
pub fn matvec_f32_into_with(
    a: &[f32],
    x: &[f32],
    y: &mut [f32],
    m: usize,
    k: usize,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    check_lens("matvec_f32_into_with", a, x.len(), y, m, k, 1)?;
    y.fill(0.0);
    gemm_packed(a, x, y, m, k, 1, scratch);
    Ok(())
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

    #[test]
    fn gemm_into_matches_allocating_kernel_bitwise() {
        let a = rand_mat(37, 41, 1);
        let b = rand_mat(41, 29, 2);
        let want = gemm_f32(&a, &b).unwrap();
        let mut c = vec![f32::NAN; 37 * 29];
        gemm_f32_into(a.as_slice(), b.as_slice(), &mut c, 37, 41, 29).unwrap();
        assert_eq!(&c[..], want.as_slice());
    }

    #[test]
    fn gemm_into_with_matches_tls_path_bitwise() {
        let a = rand_mat(19, 23, 12);
        let b = rand_mat(23, 17, 13);
        let want = gemm_f32(&a, &b).unwrap();
        let mut scratch = GemmScratch::new();
        let mut c = vec![f32::NAN; 19 * 17];
        gemm_f32_into_with(a.as_slice(), b.as_slice(), &mut c, 19, 23, 17, &mut scratch).unwrap();
        assert_eq!(&c[..], want.as_slice());
    }

    #[test]
    fn gemm_into_rejects_bad_lengths() {
        let a = vec![0.0f32; 6];
        let b = vec![0.0f32; 6];
        let mut c = vec![0.0f32; 5];
        assert!(gemm_f32_into(&a, &b, &mut c, 2, 3, 2).is_err());
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
        let via_t = gemm_f32(&a, &bt.transpose()).unwrap();
        assert_eq!(via_bt.as_slice(), via_t.as_slice());
        assert_eq!(via_bt.shape().dims(), &[14, 9]);

        let mut scratch = GemmScratch::new();
        let mut c = vec![f32::NAN; 14 * 9];
        gemm_bt_f32_into_with(a.as_slice(), bt.as_slice(), &mut c, 14, 26, 9, &mut scratch)
            .unwrap();
        assert_eq!(&c[..], via_bt.as_slice());

        let mut c = vec![f32::NAN; 14 * 9];
        gemm_bt_f32_into(a.as_slice(), bt.as_slice(), &mut c, 14, 26, 9).unwrap();
        assert_eq!(&c[..], via_bt.as_slice());
        assert!(gemm_bt_f32_into(a.as_slice(), bt.as_slice(), &mut c[1..], 14, 26, 9).is_err());
    }

    #[test]
    fn gemm_bt_rejects_bad_shapes() {
        let a = rand_mat(3, 4, 32);
        let bt = rand_mat(5, 3, 33);
        assert!(gemm_bt_f32(&a, &bt).is_err());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let a = rand_mat(97, 33, 5);
        let b = rand_mat(33, 41, 6);
        let s = gemm_f32(&a, &b).unwrap();
        for threads in [2, 3, 4, 16] {
            let p = gemm_f32_parallel(&a, &b, threads).unwrap();
            assert_eq!(s.as_slice(), p.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = rand_mat(3, 4, 7);
        let b = rand_mat(5, 2, 8);
        assert!(gemm_f32(&a, &b).is_err());
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

    #[test]
    fn matvec_matches_gemm_bitwise() {
        let a = rand_mat(8, 5, 10);
        let x: Vec<f32> = (0..5).map(|i| i as f32 * 0.3 - 1.0).collect();
        let xm = Tensor::from_vec(x.clone(), &[5, 1]).unwrap();
        let via_gemm = gemm_f32(&a, &xm).unwrap();
        let via_mv = matvec_f32(&a, &x).unwrap();
        assert_eq!(via_gemm.as_slice(), &via_mv[..]);

        let mut scratch = GemmScratch::new();
        let mut y = vec![f32::NAN; 8];
        matvec_f32_into_with(a.as_slice(), &x, &mut y, 8, 5, &mut scratch).unwrap();
        assert_eq!(&y[..], &via_mv[..]);
    }

    #[test]
    fn matvec_rejects_bad_len() {
        let a = rand_mat(4, 4, 11);
        assert!(matvec_f32(&a, &[1.0, 2.0]).is_err());
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
