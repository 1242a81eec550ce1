//! Hash families and signatures (sign random projection, Equation 1).

use rand::Rng;
use rand_distr_shim::StandardNormal;
use serde::{Deserialize, Serialize};

use greuse_tensor::{gemm_bt_f32_into_with, GemmScratch, Tensor, TensorError};

use crate::pca::top_principal_directions;

/// `rand`'s `StandardNormal` lives in `rand_distr`; avoid the extra
/// dependency with a Box–Muller shim.
mod rand_distr_shim {
    use rand::distributions::Distribution;
    use rand::Rng;

    /// Standard normal distribution via Box–Muller.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StandardNormal;

    impl Distribution<f32> for StandardNormal {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
        }
    }
}

/// An `H`-bit LSH signature (`H <= 64`).
///
/// Bit `i` is the output of the `i`-th hash function `h_v(x) = [v·x > 0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Signature(pub u64);

impl Signature {
    /// Number of bits that differ between two signatures.
    pub fn hamming_distance(&self, other: &Signature) -> u32 {
        (self.0 ^ other.0).count_ones()
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

/// `true` when two signature slices are equal element-wise — the
/// temporal-reuse tile diff: a panel whose per-unit signatures match the
/// previous frame's is a *candidate* for reusing the cached clustering.
///
/// Equal signatures do **not** imply equal data (the sign projection is
/// many-to-one and the leader walk measures real distances), so callers
/// that need bit-identical results must still validate the underlying
/// rows before committing to a cached grouping.
pub fn signatures_match(a: &[Signature], b: &[Signature]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// A family of `H` hash vectors, each of length `L` (the neuron-vector /
/// granularity length). Hashing an input vector costs `H·L` MACs — the
/// `X_i · Hash` overhead term of the paper's latency model (§4.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashFamily {
    /// `H x L` matrix of hash vectors.
    vectors: Tensor<f32>,
}

impl HashFamily {
    /// Random Gaussian hash vectors — the paper's "lightweight deep reuse"
    /// configuration used during profiling. Purely linear, so signatures
    /// are scale-invariant: positive scaling of the input never flips a
    /// bit. Magnitude separation is the clustering layer's job (see
    /// `refine_threshold` in this crate).
    ///
    /// # Panics
    ///
    /// Panics if `h == 0`, `h > 64`, or `l == 0`.
    pub fn random(h: usize, l: usize, rng: &mut impl Rng) -> Self {
        assert!(h > 0 && h <= 64, "H must be in 1..=64, got {h}");
        assert!(l > 0, "L must be positive");
        let vectors = Tensor::random(&[h, l], &StandardNormal, rng);
        HashFamily { vectors }
    }

    /// Data-adapted hash vectors: the top `h` principal directions of the
    /// sampled neuron vectors in `samples` (`n x L`). Stand-in for TREC's
    /// learned hashing — splits along the directions of maximum variance,
    /// which empirically yields tighter clusters (lower `λ_max`) and a
    /// higher redundancy ratio than random projections.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `samples` is not rank 2
    /// or has no rows, and [`TensorError::InvalidPermutation`] never.
    ///
    /// # Panics
    ///
    /// Panics if `h == 0` or `h > 64`.
    pub fn data_adapted(samples: &Tensor<f32>, h: usize) -> Result<Self, TensorError> {
        assert!(h > 0 && h <= 64, "H must be in 1..=64, got {h}");
        let dirs = top_principal_directions(samples, h, 60)?;
        Ok(HashFamily { vectors: dirs })
    }

    /// Wraps an explicit `H x L` matrix of hash vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a non-rank-2 matrix,
    /// an empty family, or `H > 64`.
    pub fn from_matrix(vectors: Tensor<f32>) -> Result<Self, TensorError> {
        if vectors.shape().rank() != 2 || vectors.rows() == 0 || vectors.rows() > 64 {
            return Err(TensorError::ShapeMismatch {
                op: "HashFamily::from_matrix",
                expected: vec![64, 0],
                actual: vectors.shape().dims().to_vec(),
            });
        }
        Ok(HashFamily { vectors })
    }

    /// Number of hash functions `H`.
    pub fn h(&self) -> usize {
        self.vectors.rows()
    }

    /// Input-vector length `L`.
    pub fn l(&self) -> usize {
        self.vectors.cols()
    }

    /// The underlying `H x L` matrix.
    pub fn matrix(&self) -> &Tensor<f32> {
        &self.vectors
    }

    /// Hashes one vector to its signature.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.l()`.
    pub fn hash(&self, x: &[f32]) -> Signature {
        assert_eq!(x.len(), self.l(), "input length must equal L");
        let mut bits = 0u64;
        for i in 0..self.h() {
            let row = self.vectors.row(i);
            let dot: f32 = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
            if dot > 0.0 {
                bits |= 1 << i;
            }
        }
        Signature(bits)
    }

    /// Hashes `n` contiguous rows of `x` (each of length `L`) in one
    /// batched projection GEMM: `dots = X × Vᵀ` through the packed
    /// microkernel, then a sign extraction per row.
    ///
    /// Signatures are **bit-identical** to calling [`HashFamily::hash`]
    /// per row: the packed GEMM accumulates each dot product in strictly
    /// ascending `k` order from `0.0`, exactly like the per-row
    /// `iter().zip().map().sum()` fold, and the sign test (`dot > 0.0`,
    /// Equation 1) is applied to bit-equal dot values.
    ///
    /// `out` is cleared and refilled; `scratch` holds the dot buffer and
    /// pack buffers, so repeated calls at steady batch sizes allocate
    /// nothing (beyond `out`'s first growth).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.len() != n * L`.
    pub fn hash_rows_into(
        &self,
        x: &[f32],
        n: usize,
        out: &mut Vec<Signature>,
        scratch: &mut SigScratch,
    ) -> Result<(), TensorError> {
        let (h, l) = (self.h(), self.l());
        if x.len() != n * l {
            return Err(TensorError::ShapeMismatch {
                op: "HashFamily::hash_rows_into",
                expected: vec![n, l],
                actual: vec![x.len()],
            });
        }
        if scratch.dots.len() < n * h {
            scratch.dots.resize(n * h, 0.0);
        }
        let dots = &mut scratch.dots[..n * h];
        gemm_bt_f32_into_with(x, self.vectors.as_slice(), dots, n, l, h, &mut scratch.gemm)?;
        out.clear();
        out.extend(dots.chunks_exact(h).map(|row| {
            let mut bits = 0u64;
            for (i, d) in row.iter().enumerate() {
                if *d > 0.0 {
                    bits |= 1 << i;
                }
            }
            Signature(bits)
        }));
        Ok(())
    }

    /// Allocating convenience over [`HashFamily::hash_rows_into`]: hashes
    /// every row of a rank-2 tensor whose width equals `L`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x` is not rank 2 or
    /// its width differs from `L`.
    pub fn hash_rows(&self, x: &Tensor<f32>) -> Result<Vec<Signature>, TensorError> {
        if x.shape().rank() != 2 || x.cols() != self.l() {
            return Err(TensorError::ShapeMismatch {
                op: "HashFamily::hash_rows",
                expected: vec![self.l()],
                actual: x.shape().dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity(x.rows());
        let mut scratch = SigScratch::new();
        self.hash_rows_into(x.as_slice(), x.rows(), &mut out, &mut scratch)?;
        Ok(out)
    }

    /// MAC count of hashing `n` vectors (the clustering overhead charged by
    /// the latency model).
    pub fn hashing_macs(&self, n: usize) -> u64 {
        n as u64 * self.h() as u64 * self.l() as u64
    }
}

/// Reusable buffers for [`HashFamily::hash_rows_into`]: the `n x H` dot
/// matrix plus the GEMM pack buffers. Grow-only, so batched hashing at
/// steady shapes is allocation-free.
#[derive(Debug, Default)]
pub struct SigScratch {
    dots: Vec<f32>,
    gemm: GemmScratch,
}

impl SigScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SigScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn signature_hamming() {
        assert_eq!(Signature(0b1010).hamming_distance(&Signature(0b0110)), 2);
        assert_eq!(Signature(7).hamming_distance(&Signature(7)), 0);
    }

    #[test]
    fn hash_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let f = HashFamily::random(8, 16, &mut rng);
        let x: Vec<f32> = (0..16).map(|i| (i as f32).cos()).collect();
        assert_eq!(f.hash(&x), f.hash(&x));
    }

    #[test]
    fn identical_vectors_identical_signatures() {
        let mut rng = SmallRng::seed_from_u64(4);
        let f = HashFamily::random(16, 8, &mut rng);
        let x = vec![0.5f32; 8];
        let y = x.clone();
        assert_eq!(f.hash(&x), f.hash(&y));
    }

    #[test]
    fn opposite_vectors_differ() {
        let mut rng = SmallRng::seed_from_u64(5);
        let f = HashFamily::random(16, 8, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| (i as f32 + 1.0).sin()).collect();
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        // Antipodal points flip every strictly-nonzero bit.
        assert!(f.hash(&x).hamming_distance(&f.hash(&neg)) >= 12);
    }

    #[test]
    fn nearby_vectors_close_signatures() {
        let mut rng = SmallRng::seed_from_u64(6);
        let f = HashFamily::random(32, 16, &mut rng);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut y = x.clone();
        for v in &mut y {
            *v += 1e-4;
        }
        assert!(f.hash(&x).hamming_distance(&f.hash(&y)) <= 2);
    }

    #[test]
    fn hashing_macs_formula() {
        let mut rng = SmallRng::seed_from_u64(7);
        let f = HashFamily::random(4, 10, &mut rng);
        assert_eq!(f.hashing_macs(100), 100 * 4 * 10);
    }

    #[test]
    fn from_matrix_validates() {
        assert!(HashFamily::from_matrix(Tensor::zeros(&[65, 4])).is_err());
        assert!(HashFamily::from_matrix(Tensor::zeros(&[0, 4])).is_err());
        assert!(HashFamily::from_matrix(Tensor::zeros(&[4, 4])).is_ok());
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn hash_panics_on_wrong_len() {
        let mut rng = SmallRng::seed_from_u64(8);
        let f = HashFamily::random(4, 10, &mut rng);
        let _ = f.hash(&[1.0, 2.0]);
    }

    #[test]
    fn batched_hash_identical_to_per_row() {
        let mut rng = SmallRng::seed_from_u64(21);
        // Shapes around microkernel tile edges, plus H=64 (full-width
        // signatures) and n=1 (degenerate batch).
        for &(h, l, n) in &[
            (1usize, 1usize, 1usize),
            (8, 16, 33),
            (17, 5, 9),
            (64, 48, 96),
            (31, 7, 4),
        ] {
            let f = HashFamily::random(h, l, &mut rng);
            let x = Tensor::random(
                &[n, l],
                &rand::distributions::Uniform::new(-2.0f32, 2.0),
                &mut rng,
            );
            let per_row: Vec<Signature> = (0..n).map(|r| f.hash(x.row(r))).collect();
            let batched = f.hash_rows(&x).unwrap();
            assert_eq!(batched, per_row, "H={h} L={l} n={n}");

            let mut scratch = SigScratch::new();
            let mut out = Vec::new();
            f.hash_rows_into(x.as_slice(), n, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, per_row, "H={h} L={l} n={n} (into)");
        }
    }

    #[test]
    fn hash_rows_validates_shapes() {
        let mut rng = SmallRng::seed_from_u64(22);
        let f = HashFamily::random(4, 6, &mut rng);
        assert!(f.hash_rows(&Tensor::zeros(&[3, 5])).is_err());
        let mut scratch = SigScratch::new();
        let mut out = Vec::new();
        assert!(f
            .hash_rows_into(&[0.0; 11], 2, &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn signatures_match_is_elementwise_equality() {
        let a = [Signature(1), Signature(2), Signature(3)];
        assert!(signatures_match(
            &a,
            &[Signature(1), Signature(2), Signature(3)]
        ));
        assert!(!signatures_match(
            &a,
            &[Signature(1), Signature(9), Signature(3)]
        ));
        assert!(!signatures_match(&a, &a[..2]));
        assert!(signatures_match(&[], &[]));
    }

    #[test]
    fn data_adapted_has_requested_shape() {
        let mut rng = SmallRng::seed_from_u64(9);
        let samples = Tensor::random(
            &[40, 12],
            &rand::distributions::Uniform::new(-1.0f32, 1.0),
            &mut rng,
        );
        let f = HashFamily::data_adapted(&samples, 5).unwrap();
        assert_eq!(f.h(), 5);
        assert_eq!(f.l(), 12);
    }
}
