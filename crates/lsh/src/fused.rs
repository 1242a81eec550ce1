//! The fused hash-and-norm panel source: the one way the executors hash.
//!
//! Clustering a panel needs each unit's signature (a projection onto `H`
//! hash vectors) and the panel's mean unit norm (which sizes the
//! refinement radius). [`ClusterScratch::cluster`] computes them in two
//! more walks over the units after they are gathered: a packed
//! projection GEMM, then a norm scan. [`FusedPanelSource`] does both in
//! **one sweep** over the freshly gathered, cache-hot panel
//! ([`FusedPanelSource::feed_rows`]), accumulating the `H` projection
//! lanes and the f64 norm total unit by unit. The signatures and the
//! refinement radius then go to [`ClusterScratch::cluster_presigned`].
//!
//! Everything is **bit-identical** to [`ClusterScratch::cluster`], which
//! stays as the reference the tests compare against:
//!
//! * each projection lane accumulates `v · vt[k]` in strictly ascending
//!   element order from `0.0` with separate multiply and add — exactly
//!   the op sequence of [`HashFamily::hash`]'s per-row fold and of the
//!   packed [`HashFamily::hash_rows_into`] projection;
//! * the norm total replicates the reference `mean_norm_rows` scan: per-unit
//!   `f64` sum of squares in element order, square root, `f64` sum over
//!   units in order, divided by the count and truncated to `f32`;
//! * grouping runs through [`ClusterScratch::cluster_presigned`], the
//!   same single-pass leader walk [`ClusterScratch::cluster`] uses.
//!
//! All buffers are grow-only, so per-panel reuse at steady shapes is
//! allocation-free.
//!
//! [`ClusterScratch::cluster`]: crate::ClusterScratch::cluster
//! [`ClusterScratch::cluster_presigned`]: crate::ClusterScratch::cluster_presigned

use crate::cluster::refine_threshold;
use crate::family::{HashFamily, Signature};

/// Streaming hash/norm accumulator for one panel of neuron vectors.
///
/// Lifecycle per panel: [`FusedPanelSource::begin_panel`], then the
/// panel's units through [`FusedPanelSource::feed_rows`] (in one call or
/// several, in unit order); finally read [`FusedPanelSource::signatures`]
/// and [`FusedPanelSource::tau`].
#[derive(Debug, Default)]
pub struct FusedPanelSource {
    /// `L x H` transposed copy of the family matrix, so the per-element
    /// lane update reads `H` contiguous coefficients.
    vt: Vec<f32>,
    /// `L x 8` zero-padded transpose (built when `H <= 8`): one aligned
    /// 8-coefficient load per element for the vectorized batched sweep.
    vt8: Vec<f32>,
    /// The `H` dot-product lanes of the unit currently in flight.
    lanes: Vec<f32>,
    /// Completed signatures, in unit order.
    sigs: Vec<Signature>,
    /// Running `f64` sum of completed unit norms (reference scan order).
    norm_total: f64,
    /// Running `f64` sum of squares of the unit in flight.
    sumsq: f64,
    h: usize,
    dim: usize,
    fed: usize,
    units: usize,
}

impl FusedPanelSource {
    /// Creates an empty source; buffers grow on first use.
    pub fn new() -> Self {
        FusedPanelSource::default()
    }

    /// Pre-sizes the internal buffers for panels of up to `units` units
    /// of length `dim` under `h` hash functions, so later
    /// [`FusedPanelSource::begin_panel`]/[`FusedPanelSource::feed_rows`]
    /// sweeps allocate nothing — the workspace-prepare hook behind the
    /// executors' zero-allocation steady state.
    pub fn reserve(&mut self, h: usize, dim: usize, units: usize) {
        self.vt.reserve((h * dim).saturating_sub(self.vt.len()));
        if h <= 8 {
            self.vt8.reserve((8 * dim).saturating_sub(self.vt8.len()));
        }
        self.lanes.reserve(h.saturating_sub(self.lanes.len()));
        self.sigs.reserve(units.saturating_sub(self.sigs.len()));
    }

    /// Arms the source for a panel of units of length `family.l()`,
    /// transposing the family matrix into the streaming-friendly layout.
    pub fn begin_panel(&mut self, family: &HashFamily) {
        let (h, l) = (family.h(), family.l());
        self.h = h;
        self.dim = l;
        self.vt.clear();
        self.vt.resize(h * l, 0.0);
        let m = family.matrix().as_slice();
        for j in 0..h {
            for k in 0..l {
                self.vt[k * h + j] = m[j * l + k];
            }
        }
        self.vt8.clear();
        if h <= 8 {
            self.vt8.resize(8 * l, 0.0);
            for k in 0..l {
                self.vt8[k * 8..k * 8 + h].copy_from_slice(&self.vt[k * h..(k + 1) * h]);
            }
        }
        self.lanes.clear();
        self.lanes.resize(h, 0.0);
        self.sigs.clear();
        self.norm_total = 0.0;
        self.sumsq = 0.0;
        self.fed = 0;
        self.units = 0;
    }

    /// Streams the next `vals.len()` elements of the current unit: the
    /// scalar tier of [`FusedPanelSource::feed_rows`].
    #[inline]
    fn feed(&mut self, vals: &[f32]) {
        let h = self.h;
        debug_assert!(self.fed + vals.len() <= self.dim, "unit overflow");
        let mut base = self.fed * h;
        for &v in vals {
            let coeffs = &self.vt[base..base + h];
            for (lane, &c) in self.lanes.iter_mut().zip(coeffs) {
                *lane += v * c;
            }
            self.sumsq += f64::from(v) * f64::from(v);
            base += h;
        }
        self.fed += vals.len();
    }

    /// Streams `n` complete units (each `dim` contiguous elements of
    /// `rows`) through the sweep in one batched call — the executor
    /// entry point once a panel has been materialized. The scalar tier
    /// folds each unit element by element; the AVX2 tier is
    /// **bit-identical** to it: it interleaves four units per pass (to
    /// hide the latency of each unit's sequential `f64` norm chain) but
    /// keeps every unit's lane and norm accumulation in exactly the
    /// scalar per-unit order, and unit results are committed in unit
    /// order.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds exactly `n` units of the armed family's
    /// length.
    pub fn feed_rows(&mut self, rows: &[f32], n: usize) {
        assert_eq!(
            rows.len(),
            n * self.dim,
            "feed_rows: rows must hold n units"
        );
        if self.dim == 0 {
            for _ in 0..n {
                self.finish_unit();
            }
            return;
        }
        #[allow(unused_mut)]
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if self.h <= 8 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 is detected, and `rows` holds `n` units of
            // `dim` elements (asserted above), which bounds every read of
            // the kernel.
            done = unsafe { self.feed_rows_avx2_h8(rows, n) };
        }
        for row in rows[done * self.dim..n * self.dim].chunks_exact(self.dim) {
            self.feed(row);
            self.finish_unit();
        }
    }

    /// Four-unit-interleaved AVX2 sweep for `H <= 8`: each unit's lanes
    /// live in one YMM register (upper lanes padded with zero
    /// coefficients), the four `f64` sum-of-squares chains share one
    /// YMM, and `VSQRTPD` is IEEE-exact like `f64::sqrt` — so every
    /// per-unit operation sequence matches the scalar tier bit for bit.
    /// Returns the number of units consumed (a multiple of 4).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `rows` must hold at least `n * dim`
    /// elements, and a panel with `H <= 8` must be armed (so `vt8` holds
    /// `8 * dim` coefficients).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn feed_rows_avx2_h8(&mut self, rows: &[f32], n: usize) -> usize {
        use std::arch::x86_64::*;
        let dim = self.dim;
        let groups = n / 4;
        if groups == 0 {
            return 0;
        }
        let vt8 = self.vt8.as_ptr();
        let rp = rows.as_ptr();
        let zero = _mm256_setzero_ps();
        let sigmask = (1u64 << self.h) - 1;
        for g in 0..groups {
            let r0 = rp.add(g * 4 * dim);
            let r1 = r0.add(dim);
            let r2 = r1.add(dim);
            let r3 = r2.add(dim);
            let mut acc0 = zero;
            let mut acc1 = zero;
            let mut acc2 = zero;
            let mut acc3 = zero;
            let mut sq = _mm256_setzero_pd();
            for e in 0..dim {
                let c = _mm256_loadu_ps(vt8.add(e * 8));
                let x0 = *r0.add(e);
                let x1 = *r1.add(e);
                let x2 = *r2.add(e);
                let x3 = *r3.add(e);
                // Separate multiply and add — the scalar fold's op
                // sequence, no FMA contraction.
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(x0), c));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(x1), c));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(x2), c));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(x3), c));
                // f32 → f64 widening is exact, so one 4-lane convert is
                // bit-identical to four scalar `f64::from` calls.
                let xd = _mm256_cvtps_pd(_mm_setr_ps(x0, x1, x2, x3));
                sq = _mm256_add_pd(sq, _mm256_mul_pd(xd, xd));
            }
            let mut norms = [0.0f64; 4];
            _mm256_storeu_pd(norms.as_mut_ptr(), _mm256_sqrt_pd(sq));
            for (acc, &norm) in [acc0, acc1, acc2, acc3].iter().zip(&norms) {
                // `d > 0.0` is false for NaN lanes under _CMP_GT_OQ,
                // matching the scalar sign extraction; padded lanes are
                // masked off.
                let gt = _mm256_cmp_ps(*acc, zero, _CMP_GT_OQ);
                let bits = (_mm256_movemask_ps(gt) as u32 as u64) & sigmask;
                self.sigs.push(Signature(bits));
                self.norm_total += norm;
            }
        }
        self.units += groups * 4;
        groups * 4
    }

    /// Completes the unit in flight: extracts its signature from the
    /// lane signs (Equation 1, `dot > 0`) and folds its norm into the
    /// panel total.
    ///
    /// # Panics
    ///
    /// Debug-asserts that exactly `dim` elements were fed.
    #[inline]
    fn finish_unit(&mut self) {
        debug_assert_eq!(self.fed, self.dim, "unit incomplete");
        let mut bits = 0u64;
        for (i, &d) in self.lanes.iter().enumerate() {
            if d > 0.0 {
                bits |= 1 << i;
            }
        }
        self.sigs.push(Signature(bits));
        self.norm_total += self.sumsq.sqrt();
        self.sumsq = 0.0;
        self.lanes.fill(0.0);
        self.fed = 0;
        self.units += 1;
    }

    /// Signatures of all completed units, in unit order — bit-identical
    /// to [`HashFamily::hash`] over the same vectors.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// Mean Euclidean norm of the completed units — bit-identical to the
    /// reference norm scan over the same vectors.
    pub fn mean_norm(&self) -> f32 {
        if self.units == 0 {
            return 0.0;
        }
        (self.norm_total / self.units as f64) as f32
    }

    /// The scatter-refinement radius for the completed panel
    /// ([`refine_threshold`] over [`FusedPanelSource::mean_norm`]).
    pub fn tau(&self) -> f32 {
        refine_threshold(self.mean_norm(), self.h)
    }

    /// Number of completed units.
    pub fn num_units(&self) -> usize {
        self.units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_rows, ClusterScratch};
    use greuse_tensor::{
        dequantize_u8_slice, quantize_u8_into, ActQuantParams, Tensor, TensorError,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    impl FusedPanelSource {
        /// A full sweep over `n` contiguous rows of `data`, each
        /// `family.l()` long.
        fn sweep_rows(
            &mut self,
            data: &[f32],
            n: usize,
            family: &HashFamily,
        ) -> Result<(), TensorError> {
            let l = family.l();
            if data.len() != n * l {
                return Err(TensorError::ShapeMismatch {
                    op: "FusedPanelSource::sweep_rows",
                    expected: vec![n, l],
                    actual: vec![data.len()],
                });
            }
            self.begin_panel(family);
            self.feed_rows(data, n);
            Ok(())
        }
    }

    #[test]
    fn fused_signatures_bit_identical_to_staged() {
        let mut rng = SmallRng::seed_from_u64(51);
        for &(h, l, n) in &[
            (1usize, 1usize, 1usize),
            (4, 24, 64),
            (17, 5, 9),
            (64, 48, 96),
        ] {
            let family = HashFamily::random(h, l, &mut rng);
            let x = Tensor::random(
                &[n, l],
                &rand::distributions::Uniform::new(-2.0f32, 2.0),
                &mut rng,
            );
            let mut src = FusedPanelSource::new();
            src.sweep_rows(x.as_slice(), n, &family).unwrap();
            let staged: Vec<Signature> = (0..n).map(|r| family.hash(x.row(r))).collect();
            assert_eq!(src.signatures(), &staged[..], "H={h} L={l} n={n}");
        }
    }

    #[test]
    fn fused_feed_in_segments_matches_whole_rows() {
        let mut rng = SmallRng::seed_from_u64(52);
        let family = HashFamily::random(8, 20, &mut rng);
        let x = Tensor::random(
            &[10, 20],
            &rand::distributions::Uniform::new(-1.0f32, 1.0),
            &mut rng,
        );
        let mut whole = FusedPanelSource::new();
        whole.sweep_rows(x.as_slice(), 10, &family).unwrap();
        let mut seg = FusedPanelSource::new();
        seg.begin_panel(&family);
        for r in 0..10 {
            let row = x.row(r);
            // Ragged segment boundaries: 7 + 7 + 6.
            seg.feed(&row[..7]);
            seg.feed(&row[7..14]);
            seg.feed(&row[14..]);
            seg.finish_unit();
        }
        assert_eq!(seg.signatures(), whole.signatures());
        assert_eq!(seg.mean_norm().to_bits(), whole.mean_norm().to_bits());
    }

    #[test]
    fn fused_cluster_presigned_matches_staged_cluster() {
        let mut rng = SmallRng::seed_from_u64(53);
        for h in [1usize, 3, 8, 32] {
            let mut frng = SmallRng::seed_from_u64(h as u64 + 400);
            let family = HashFamily::random(h, 10, &mut frng);
            let x = Tensor::random(
                &[120, 10],
                &rand::distributions::Uniform::new(-2.0f32, 2.0),
                &mut rng,
            );
            let mut staged = ClusterScratch::new();
            staged.cluster(x.as_slice(), 120, &family).unwrap();

            let mut src = FusedPanelSource::new();
            src.sweep_rows(x.as_slice(), 120, &family).unwrap();
            let mut fused = ClusterScratch::new();
            fused
                .cluster_presigned(x.as_slice(), 120, 10, src.signatures(), src.tau())
                .unwrap();

            assert_eq!(fused.assignments(), staged.assignments(), "H={h}");
            assert_eq!(fused.sizes(), staged.sizes(), "H={h}");
            assert_eq!(fused.num_clusters(), staged.num_clusters(), "H={h}");
            // And both agree with the allocating reference path.
            let want = cluster_rows(&x, &family).unwrap();
            assert_eq!(fused.assignments(), want.assignments(), "H={h}");
        }
    }

    #[test]
    fn fused_q8_matches_staged_q8() {
        let mut rng = SmallRng::seed_from_u64(54);
        let family = HashFamily::random(6, 12, &mut rng);
        let n = 48usize;
        let x = Tensor::random(
            &[n, 12],
            &rand::distributions::Uniform::new(-1.5f32, 1.5),
            &mut rng,
        );
        let params = ActQuantParams::from_data(x.as_slice()).unwrap();
        let mut q = vec![0u8; n * 12];
        quantize_u8_into(x.as_slice(), &params, &mut q);

        // Reference: the per-element dequantization, clustered by the
        // reference clusterer.
        let want: Vec<f32> = q.iter().map(|&v| params.dequantize(v)).collect();
        let mut reference = ClusterScratch::new();
        reference.cluster(&want, n, &family).unwrap();

        // The int8 sweep's path: dequantize the panel's codes in one
        // vectorized pass, then stream the dequantized units.
        let mut deq = vec![0.0f32; n * 12];
        dequantize_u8_slice(&q, params.scale, params.zero_point, &mut deq);
        let mut src = FusedPanelSource::new();
        src.begin_panel(&family);
        src.feed_rows(&deq, n);
        let mut fused = ClusterScratch::new();
        fused
            .cluster_presigned(&deq, n, 12, src.signatures(), src.tau())
            .unwrap();
        assert_eq!(fused.assignments(), reference.assignments());
        assert_eq!(fused.sizes(), reference.sizes());
    }

    #[test]
    fn feed_rows_bit_identical_to_per_unit_feed() {
        let mut rng = SmallRng::seed_from_u64(56);
        // H straddling the vectorized tier's H <= 8 cutoff, unit counts
        // exercising every 4-interleave remainder.
        for &(h, l, n) in &[
            (4usize, 24usize, 13usize),
            (5, 7, 16),
            (8, 24, 3),
            (8, 1, 9),
            (12, 10, 14),
        ] {
            let family = HashFamily::random(h, l, &mut rng);
            let x = Tensor::random(
                &[n, l],
                &rand::distributions::Uniform::new(-2.0f32, 2.0),
                &mut rng,
            );
            let mut batched = FusedPanelSource::new();
            batched.begin_panel(&family);
            batched.feed_rows(x.as_slice(), n);
            let mut scalar = FusedPanelSource::new();
            scalar.begin_panel(&family);
            for r in 0..n {
                scalar.feed(x.row(r));
                scalar.finish_unit();
            }
            assert_eq!(
                batched.signatures(),
                scalar.signatures(),
                "H={h} L={l} n={n}"
            );
            assert_eq!(
                batched.mean_norm().to_bits(),
                scalar.mean_norm().to_bits(),
                "H={h} L={l} n={n}"
            );
            assert_eq!(batched.num_units(), n);
        }
    }

    #[test]
    fn sweep_rows_validates_length() {
        let mut rng = SmallRng::seed_from_u64(55);
        let family = HashFamily::random(4, 6, &mut rng);
        let mut src = FusedPanelSource::new();
        assert!(src.sweep_rows(&[0.0; 11], 2, &family).is_err());
    }
}
