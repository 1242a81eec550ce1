//! Principal directions via power iteration with deflation, computed
//! directly on the (centered) data matrix — no `L x L` covariance is
//! materialized, so the routine stays cheap even for `L = 1600`
//! (CifarNet Conv2).

use greuse_tensor::{mean_rows, Tensor, TensorError};

/// Computes the top `k` principal directions of the rows of `samples`
/// (`n x L`), returned as a `k x L` matrix of unit vectors.
///
/// Power iteration on `Σ = XᵀX/n` is performed implicitly as
/// `v ← Xᵀ(X v)`; after each direction converges, its variance is deflated
/// by projecting the data away from it.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for non-rank-2 or empty input.
pub fn top_principal_directions(
    samples: &Tensor<f32>,
    k: usize,
    iters: usize,
) -> Result<Tensor<f32>, TensorError> {
    let mean = mean_rows(samples)?;
    let (n, l) = (samples.rows(), samples.cols());
    // Centered copy (n x L).
    let mut x: Vec<f32> = Vec::with_capacity(n * l);
    for r in 0..n {
        for (v, m) in samples.row(r).iter().zip(mean.iter()) {
            x.push(v - m);
        }
    }
    // Column-major copy of the same data (L x n), refreshed after each
    // deflation, so `X v` streams whole columns.
    let mut xt = vec![0.0f32; l * n];
    let k = k.min(l);
    let mut dirs = Tensor::zeros(&[k, l]);
    let mut u = vec![0.0f32; n];
    let mut w = vec![0.0f32; l];
    for d in 0..k {
        for (r, row) in x.chunks_exact(l).enumerate() {
            for (j, &xv) in row.iter().enumerate() {
                xt[j * n + r] = xv;
            }
        }
        // Deterministic start vector, varied per direction.
        let mut v: Vec<f32> = (0..l)
            .map(|i| (((i + 7 * d + 1) as f32 * 12.9898).sin() * 43758.547).fract() + 0.05)
            .collect();
        normalize(&mut v);
        for _ in 0..iters.max(1) {
            // u = X v  (n). Each u[r] sums its L products in ascending
            // order from 0.0 — the summation order of `gemm_bt_f32*`, so
            // bit-identical to it — while the column walk lets the update
            // vectorize across rows.
            u.fill(0.0);
            for (col, &vk) in xt.chunks_exact(n).zip(v.iter()) {
                for (uv, &xv) in u.iter_mut().zip(col) {
                    *uv += xv * vk;
                }
            }
            // w = Xᵀ u  (L)
            w.fill(0.0);
            for (uv, row) in u.iter().zip(x.chunks_exact(l)) {
                if *uv == 0.0 {
                    continue;
                }
                for (wv, rv) in w.iter_mut().zip(row.iter()) {
                    *wv += uv * rv;
                }
            }
            if normalize(&mut w) < 1e-20 {
                // Remaining variance is zero; keep an arbitrary unit vector.
                w.fill(0.0);
                w[d % l] = 1.0;
            }
            std::mem::swap(&mut v, &mut w);
        }
        // Deflate: remove the component along v from every row.
        for row in x.chunks_exact_mut(l) {
            let proj: f32 = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
            for (rv, vv) in row.iter_mut().zip(v.iter()) {
                *rv -= proj * vv;
            }
        }
        dirs.row_mut(d).copy_from_slice(&v);
    }
    Ok(dirs)
}

fn normalize(v: &mut [f32]) -> f32 {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-20 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_dominant_axis() {
        // Data spread along e0 with tiny noise on e1.
        let mut rng = SmallRng::seed_from_u64(2);
        let t = Tensor::from_fn(&[100, 3], |i| {
            let col = i % 3;
            match col {
                0 => rng.gen_range(-5.0..5.0),
                1 => rng.gen_range(-0.01..0.01),
                _ => 0.0,
            }
        });
        let dirs = top_principal_directions(&t, 1, 100).unwrap();
        let v = dirs.row(0);
        assert!(
            v[0].abs() > 0.99,
            "dominant direction should be e0, got {v:?}"
        );
    }

    #[test]
    fn directions_are_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = Tensor::from_fn(&[60, 6], |_| rng.gen_range(-1.0f32..1.0));
        let dirs = top_principal_directions(&t, 3, 80).unwrap();
        for i in 0..3 {
            let ni: f32 = dirs.row(i).iter().map(|x| x * x).sum();
            assert!((ni - 1.0).abs() < 1e-3, "row {i} not unit: {ni}");
            for j in 0..i {
                let dot: f32 = dirs
                    .row(i)
                    .iter()
                    .zip(dirs.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(dot.abs() < 5e-2, "rows {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn k_clamped_to_dimension() {
        let t = Tensor::from_fn(&[10, 2], |i| i as f32);
        let dirs = top_principal_directions(&t, 5, 20).unwrap();
        assert_eq!(dirs.rows(), 2);
    }

    #[test]
    fn constant_data_yields_unit_vectors() {
        let t = Tensor::full(&[8, 4], 3.0f32);
        let dirs = top_principal_directions(&t, 2, 10).unwrap();
        for i in 0..2 {
            let n: f32 = dirs.row(i).iter().map(|x| x * x).sum();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_empty() {
        let t = Tensor::<f32>::zeros(&[0, 4]);
        assert!(top_principal_directions(&t, 1, 10).is_err());
    }

    /// The power iteration with `X v` through the packed GEMM (one row,
    /// `vᵀ Xᵀ`) and per-iteration buffers — the reference the column-walk
    /// loop must match bit for bit.
    fn packed_reference(samples: &Tensor<f32>, k: usize, iters: usize) -> Tensor<f32> {
        use greuse_tensor::{gemm_bt_f32_into_with, GemmScratch};
        let mean = mean_rows(samples).unwrap();
        let (n, l) = (samples.rows(), samples.cols());
        let mut x: Vec<f32> = Vec::with_capacity(n * l);
        for r in 0..n {
            for (v, m) in samples.row(r).iter().zip(mean.iter()) {
                x.push(v - m);
            }
        }
        let k = k.min(l);
        let mut dirs = Tensor::zeros(&[k, l]);
        let mut u = vec![0.0f32; n];
        let mut gemm = GemmScratch::new();
        for d in 0..k {
            let mut v: Vec<f32> = (0..l)
                .map(|i| (((i + 7 * d + 1) as f32 * 12.9898).sin() * 43758.547).fract() + 0.05)
                .collect();
            normalize(&mut v);
            for _ in 0..iters.max(1) {
                gemm_bt_f32_into_with(&v, &x, &mut u, 1, l, n, &mut gemm).unwrap();
                let mut w = vec![0.0f32; l];
                for (r, uv) in u.iter().enumerate() {
                    if *uv == 0.0 {
                        continue;
                    }
                    for (wv, rv) in w.iter_mut().zip(&x[r * l..(r + 1) * l]) {
                        *wv += uv * rv;
                    }
                }
                if normalize(&mut w) < 1e-20 {
                    w = vec![0.0; l];
                    w[d % l] = 1.0;
                }
                v = w;
            }
            for r in 0..n {
                let row = &mut x[r * l..(r + 1) * l];
                let proj: f32 = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
                for (rv, vv) in row.iter_mut().zip(v.iter()) {
                    *rv -= proj * vv;
                }
            }
            dirs.row_mut(d).copy_from_slice(&v);
        }
        dirs
    }

    #[test]
    fn matches_packed_matvec_reference_bitwise() {
        // Odd row counts (partial weight-row panels), a long row (L = 300),
        // zero columns (exact-zero projections), and constant data.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut cases: Vec<Tensor<f32>> = [(1, 5), (7, 3), (61, 8), (200, 27), (33, 300)]
            .iter()
            .map(|&(n, l)| Tensor::from_fn(&[n, l], |_| rng.gen_range(-2.0f32..2.0)))
            .collect();
        cases.push(Tensor::from_fn(&[40, 6], |i| {
            if i % 6 < 2 {
                0.0
            } else {
                (i % 5) as f32
            }
        }));
        cases.push(Tensor::full(&[9, 4], 1.5f32));
        for t in &cases {
            let got = top_principal_directions(t, 6, 25).unwrap();
            let want = packed_reference(t, 6, 25);
            let bits =
                |d: &Tensor<f32>| d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "shape {:?}", t.shape().dims());
        }
    }
}
