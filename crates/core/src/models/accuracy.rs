//! The analytic accuracy model (§4.1).
//!
//! For vertical reuse within one panel `X_k` with weight slice `W_k`, the
//! approximation error of replacing neuron vectors by their centroids is
//! rigorously bounded by the paper's eigenvalue form
//!
//! ```text
//! ‖Y_k − Ŷ_k‖²_F ≤ ‖W_k‖²_F · Σ_i λ_max^(i_k) · m_{i_k}
//! ```
//!
//! where `λ_max^(i)` is the largest eigenvalue of cluster `i`'s covariance
//! and `m_i` its size (rows of a panel partition across clusters, and the
//! squared Frobenius norm decomposes exactly over output columns).
//!
//! Two refinements keep the bound *sound* in the generalized setting:
//!
//! * **Across panels** the per-panel errors add *before* squaring
//!   (`Y − Ŷ = Σ_k E_k` over the same output block), so the total uses
//!   the triangle inequality: `‖Y − Ŷ‖_F ≤ Σ_k ‖E_k‖_F`, i.e. the bound
//!   is `(Σ_k √bound_k)²`. (The paper's summed form is the special case
//!   of orthogonal panel errors.)
//! * **2-D neuron blocks** reshape before multiplying, so the flattened
//!   covariance's `λ_max` no longer applies; the bound falls back to the
//!   per-cluster *scatter* `S_i = Σ_{x∈i} ‖x − c_i‖² = m_i·tr(Σ_i)`
//!   (which dominates `m_i λ_max`), via `‖D W_kᵀ‖_F ≤ ‖D‖_F ‖W_k‖_F`.
//!
//! The per-cluster quantities come from a *lightweight* pass —
//! random-hash clustering on sample data — exactly as the paper's
//! profiling stage prescribes. The same pass also yields the redundancy
//! ratio `r_t` used by the latency model, so one profile feeds both
//! models.

use serde::{Deserialize, Serialize};

use greuse_lsh::{cluster_rows, cluster_vectors, Clustering};
use greuse_tensor::{covariance, max_eigenvalue, Tensor};

use crate::exec::ExecWorkspace;
use crate::hash_provider::HashProvider;
use crate::pattern::{ReuseDirection, ReusePattern};
use crate::reorder::{column_permutation, row_permutation};
use crate::Result;

/// Power-iteration budget for per-cluster top eigenvalues; ranking
/// patterns only needs ~2 significant digits.
const EIG_ITERS: usize = 40;

/// Output of the lightweight profiling pass: the accuracy bound and the
/// redundancy ratio, measured together.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyEstimate {
    /// Upper bound on `‖Y − Ŷ‖²_F`.
    pub error_bound: f64,
    /// Neuron vectors profiled.
    pub n_vectors: u64,
    /// Clusters found.
    pub n_clusters: u64,
    /// Redundancy ratio `r_t = 1 − n_c/n`.
    pub redundancy_ratio: f64,
}

/// Runs the lightweight profiling pass for `pattern` on one im2col matrix
/// `x` (`N x K`) and weights `w` (`M x K`), producing the §4.1 error
/// bound and the §4.2 redundancy ratio.
///
/// # Errors
///
/// Returns pattern-validation or tensor-shape errors.
pub fn accuracy_bound(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<AccuracyEstimate> {
    let (n, k) = (x.rows(), x.cols());
    pattern.validate(n, k)?;
    if w.shape().rank() != 2 || w.cols() != k {
        return Err(crate::GreuseError::InvalidPattern {
            detail: format!("weights {:?} do not match K={k}", w.shape().dims()),
        });
    }

    // Materialize reorders so the profiled clusters match execution.
    let (x_work, w_work) = apply_reorders(x, w, pattern, None)?;

    match pattern.direction {
        ReuseDirection::Vertical => vertical_bound(&x_work, &w_work, pattern, hashes),
        ReuseDirection::Horizontal => horizontal_bound(&x_work, &w_work, pattern, hashes),
    }
}

/// Spec-aware variant of [`accuracy_bound`]: channel-aware reuse orders
/// (channel-first, kernel-transpose) need the convolution geometry to
/// materialize the same column permutation the executor applies.
///
/// # Errors
///
/// Same conditions as [`accuracy_bound`].
pub fn accuracy_bound_with_spec(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    spec: &greuse_tensor::ConvSpec,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<AccuracyEstimate> {
    let (n, k) = (x.rows(), x.cols());
    pattern.validate(n, k)?;
    if w.shape().rank() != 2 || w.cols() != k {
        return Err(crate::GreuseError::InvalidPattern {
            detail: format!("weights {:?} do not match K={k}", w.shape().dims()),
        });
    }
    let (x_work, w_work) = apply_reorders(x, w, pattern, Some(spec))?;
    match pattern.direction {
        ReuseDirection::Vertical => vertical_bound(&x_work, &w_work, pattern, hashes),
        ReuseDirection::Horizontal => horizontal_bound(&x_work, &w_work, pattern, hashes),
    }
}

fn apply_reorders(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    spec: Option<&greuse_tensor::ConvSpec>,
) -> Result<(Tensor<f32>, Tensor<f32>)> {
    use greuse_tensor::ConvSpec;
    let k = x.cols();
    let mut xr = x.clone();
    let mut wr = w.clone();
    if pattern.order.needs_layout_pass() {
        // Without the conv geometry, channel-aware orders degenerate to
        // the identity; spec-aware callers must pass the real spec so the
        // profiled clusters match execution.
        let fallback = ConvSpec::new(k, 1, 1, 1);
        let perm = column_permutation(pattern.order, spec.unwrap_or(&fallback));
        xr = perm.apply_cols(&xr)?;
        wr = perm.apply_cols(&wr)?;
    }
    if pattern.row_order.needs_layout_pass() {
        let perm = row_permutation(pattern.row_order, x.rows(), 1);
        xr = perm.apply_rows(&xr)?;
    }
    Ok((xr, wr))
}

/// The paper's eigenvalue term `Σ_i λ_max^(i) m_i` (1-D neuron vectors).
fn cluster_lambda_scatter(vectors: &Tensor<f32>, clustering: &Clustering) -> Result<f64> {
    let dim = vectors.cols();
    let mut total = 0.0f64;
    for c in 0..clustering.num_clusters() {
        let members = clustering.members(c);
        if members.len() < 2 {
            continue; // singleton clusters contribute zero error
        }
        let mut group = Tensor::zeros(&[members.len(), dim]);
        for (i, &m) in members.iter().enumerate() {
            group.row_mut(i).copy_from_slice(vectors.row(m));
        }
        let cov = covariance(&group)?;
        let lambda = max_eigenvalue(&cov, EIG_ITERS)?;
        total += f64::from(lambda) * members.len() as f64;
    }
    Ok(total)
}

/// Exact per-cluster scatter `S_i = Σ_{x∈i} ‖x − c_i‖²`, returned per
/// cluster (used by the 2-D-block and horizontal bounds).
fn cluster_exact_scatter(vectors: &Tensor<f32>, clustering: &Clustering) -> Vec<f64> {
    let dim = vectors.cols();
    let mut out = vec![0.0f64; clustering.num_clusters()];
    for (c, s) in out.iter_mut().enumerate() {
        let members = clustering.members(c);
        if members.len() < 2 {
            continue;
        }
        let mut centroid = vec![0.0f64; dim];
        for &m in members {
            for (cv, v) in centroid.iter_mut().zip(vectors.row(m)) {
                *cv += f64::from(*v);
            }
        }
        let inv = 1.0 / members.len() as f64;
        for cv in &mut centroid {
            *cv *= inv;
        }
        for &m in members {
            for (cv, v) in centroid.iter().zip(vectors.row(m)) {
                let d = f64::from(*v) - cv;
                *s += d * d;
            }
        }
    }
    out
}

fn vertical_bound(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<AccuracyEstimate> {
    let (n, k) = (x.rows(), x.cols());
    let l = pattern.l.min(k);
    let b = pattern.block_rows.min(n).max(1);
    let m = w.rows();
    let mut bound_sqrt = 0.0f64;
    let mut n_vectors = 0u64;
    let mut n_clusters = 0u64;
    let mut panel = 0usize;
    let mut col0 = 0usize;
    while col0 < k {
        let col1 = (col0 + l).min(k);
        let lw = col1 - col0;
        // ‖W_k‖²_F of the panel's weight slice.
        let mut wk_norm = 0.0f64;
        for r in 0..m {
            for v in &w.row(r)[col0..col1] {
                wk_norm += f64::from(v * v);
            }
        }
        let full_blocks = n / b;
        if full_blocks > 0 {
            let dim = b * lw;
            let mut blocks = Tensor::zeros(&[full_blocks, dim]);
            for g in 0..full_blocks {
                let dst = blocks.row_mut(g);
                for br in 0..b {
                    dst[br * lw..(br + 1) * lw].copy_from_slice(&x.row(g * b + br)[col0..col1]);
                }
            }
            let family = hashes.family("profile", panel, pattern.h, &blocks)?;
            let clustering = cluster_rows(&blocks, &family)?;
            n_vectors += full_blocks as u64;
            n_clusters += clustering.num_clusters() as u64;
            let scatter = if b == 1 {
                // Paper's eigenvalue form (rigorous for 1-D vectors).
                cluster_lambda_scatter(&blocks, &clustering)?
            } else {
                // 2-D blocks: exact-scatter fallback (see module docs).
                cluster_exact_scatter(&blocks, &clustering).iter().sum()
            };
            // Panel errors add before squaring across panels: triangle.
            bound_sqrt += (wk_norm * scatter).sqrt();
        }
        panel += 1;
        col0 = col1;
    }
    let redundancy_ratio = if n_vectors == 0 {
        0.0
    } else {
        1.0 - n_clusters as f64 / n_vectors as f64
    };
    Ok(AccuracyEstimate {
        error_bound: bound_sqrt * bound_sqrt,
        n_vectors,
        n_clusters,
        redundancy_ratio,
    })
}

fn horizontal_bound(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<AccuracyEstimate> {
    let (n, k) = (x.rows(), x.cols());
    let l = pattern.l.min(n);
    // For horizontal reuse the roles swap: the clustered vectors are
    // column segments and the multiplied weights are the columns of W.
    // Per panel i and cluster c: ‖E_{i,c}‖_F ≤ √(S_c) · √(Σ_{j∈c}‖w_j‖²)
    // (sub-multiplicativity); clusters share the panel's output rows, so
    // the per-panel bound is (Σ_c ...)²; panels occupy disjoint output
    // rows, so panel bounds add exactly.
    let m = w.rows();
    let mut bound = 0.0f64;
    let mut n_vectors = 0u64;
    let mut n_clusters = 0u64;
    let mut panel = 0usize;
    let mut row0 = 0usize;
    while row0 < n {
        let row1 = (row0 + l).min(n);
        let lh = row1 - row0;
        let mut cols = Tensor::zeros(&[k, lh]);
        for j in 0..k {
            for (idx, r) in (row0..row1).enumerate() {
                cols[[j, idx]] = x.row(r)[j];
            }
        }
        let family = hashes.family("profile", panel, pattern.h, &cols)?;
        let col_vecs: Vec<Vec<f32>> = (0..k).map(|j| cols.row(j).to_vec()).collect();
        let clustering = cluster_vectors(&col_vecs, &family)?;
        n_vectors += k as u64;
        n_clusters += clustering.num_clusters() as u64;
        let scatters = cluster_exact_scatter(&cols, &clustering);
        let mut panel_sqrt = 0.0f64;
        for (c, s_c) in scatters.iter().enumerate() {
            if *s_c == 0.0 {
                continue;
            }
            // ‖V_c‖²_F = Σ_{j∈c} ‖W[:, j]‖².
            let mut wn_c = 0.0f64;
            for &j in clustering.members(c) {
                for mm in 0..m {
                    let v = f64::from(w[[mm, j]]);
                    wn_c += v * v;
                }
            }
            panel_sqrt += (s_c * wn_c).sqrt();
        }
        bound += panel_sqrt * panel_sqrt;
        panel += 1;
        row0 = row1;
    }
    let redundancy_ratio = if n_vectors == 0 {
        0.0
    } else {
        1.0 - n_clusters as f64 / n_vectors as f64
    };
    Ok(AccuracyEstimate {
        error_bound: bound,
        n_vectors,
        n_clusters,
        redundancy_ratio,
    })
}

/// Actually executes the pattern and measures `‖Y − Ŷ‖²_F` — the quantity
/// the bound controls. Used to validate the model and in ablation benches.
///
/// # Errors
///
/// Propagates executor errors.
pub fn measured_error(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<f64> {
    let exact = greuse_tensor::gemm_bt_f32(x, w)?;
    let approx = ExecWorkspace::new().execute(x, w, None, pattern, hashes, "profile")?;
    let mut err = 0.0f64;
    for (a, b) in exact.as_slice().iter().zip(approx.y.as_slice()) {
        let d = f64::from(a - b);
        err += d * d;
    }
    Ok(err)
}

/// Spec-aware variant of [`measured_error`]: the paper's profiling stage
/// runs "lightweight deep reuse" on sample data — this is that
/// measurement, with channel-aware reorders materialized exactly as the
/// deployment executor will.
///
/// # Errors
///
/// Propagates executor errors.
pub fn measured_error_with_spec(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    spec: &greuse_tensor::ConvSpec,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<f64> {
    let exact = greuse_tensor::gemm_bt_f32(x, w)?;
    let approx = ExecWorkspace::new().execute(x, w, Some(spec), pattern, hashes, "profile")?;
    let mut err = 0.0f64;
    for (a, b) in exact.as_slice().iter().zip(approx.y.as_slice()) {
        let d = f64::from(a - b);
        err += d * d;
    }
    Ok(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0f32..1.0))
    }

    /// Redundant matrix: rows are noisy copies of a few prototypes.
    fn redundant(n: usize, k: usize, protos: usize, noise: f32, seed: u64) -> Tensor<f32> {
        let base = rand_mat(protos, k, seed);
        let mut rng = SmallRng::seed_from_u64(seed + 99);
        Tensor::from_fn(&[n, k], |i| {
            let (r, c) = (i / k, i % k);
            base[[r % protos, c]] + rng.gen_range(-noise..noise.max(1e-9))
        })
    }

    #[test]
    fn bound_dominates_measured_error_vertical() {
        let hashes = RandomHashProvider::new(1);
        for seed in 0..5u64 {
            let x = redundant(48, 24, 5, 0.05, seed);
            let w = rand_mat(8, 24, seed + 50);
            let p = ReusePattern::conventional(8, 3);
            let est = accuracy_bound(&x, &w, &p, &hashes).unwrap();
            let measured = measured_error(&x, &w, &p, &hashes).unwrap();
            assert!(
                est.error_bound * 1.05 + 1e-6 >= measured,
                "seed {seed}: bound {} < measured {measured}",
                est.error_bound
            );
        }
    }

    #[test]
    fn bound_dominates_measured_error_horizontal() {
        let hashes = RandomHashProvider::new(2);
        for seed in 0..5u64 {
            let x = redundant(48, 24, 5, 0.05, seed + 10);
            let w = rand_mat(8, 24, seed + 60);
            let p = ReusePattern::conventional(16, 3).with_direction(ReuseDirection::Horizontal);
            let est = accuracy_bound(&x, &w, &p, &hashes).unwrap();
            let measured = measured_error(&x, &w, &p, &hashes).unwrap();
            assert!(
                est.error_bound * 1.05 + 1e-6 >= measured,
                "seed {seed}: bound {} < measured {measured}",
                est.error_bound
            );
        }
    }

    #[test]
    fn zero_noise_duplicates_give_zero_bound() {
        let hashes = RandomHashProvider::new(3);
        let x = redundant(32, 16, 4, 0.0, 7);
        let w = rand_mat(4, 16, 8);
        let p = ReusePattern::conventional(16, 4);
        let est = accuracy_bound(&x, &w, &p, &hashes).unwrap();
        assert!(est.error_bound < 1e-6, "bound {}", est.error_bound);
        assert!(est.redundancy_ratio > 0.8);
    }

    #[test]
    fn noisier_data_larger_bound() {
        let hashes = RandomHashProvider::new(4);
        let w = rand_mat(4, 16, 9);
        let p = ReusePattern::conventional(16, 2);
        let quiet = accuracy_bound(&redundant(32, 16, 4, 0.01, 11), &w, &p, &hashes)
            .unwrap()
            .error_bound;
        let noisy = accuracy_bound(&redundant(32, 16, 4, 0.3, 11), &w, &p, &hashes)
            .unwrap()
            .error_bound;
        assert!(noisy > quiet);
    }

    #[test]
    fn profile_matches_executor_redundancy() {
        // The profiling pass must see the same clusters the executor sees
        // (same provider, same slicing).
        let hashes = RandomHashProvider::new(5);
        let x = redundant(40, 20, 4, 0.02, 13);
        let w = rand_mat(4, 20, 14);
        let p = ReusePattern::conventional(10, 3);
        let est = accuracy_bound(&x, &w, &p, &hashes).unwrap();
        let exec = ExecWorkspace::new()
            .execute(&x, &w, None, &p, &hashes, "profile")
            .unwrap();
        assert_eq!(est.n_vectors, exec.stats.n_vectors);
        // Provider families are keyed by layer ("profile" both times), so
        // cluster counts must agree exactly.
        assert_eq!(est.n_clusters, exec.stats.n_clusters);
    }
}
