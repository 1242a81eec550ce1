//! Reuse executors: approximate `Y = X × Wᵀ` under a [`ReusePattern`].
//!
//! The entry point is [`execute_reuse`]. It materializes the pattern's
//! row/column reorders (Insight-2), dispatches on the reuse direction
//! (vertical per Fig. 3, horizontal per Fig. 7), and returns both the
//! approximated output and the execution statistics (cluster counts,
//! redundancy ratio `r_t`, and per-phase operation counts feeding the
//! MCU latency model).
//!
//! All entry points drive one engine: the panel executor in
//! [`workspace`], which walks the im2col matrix panel by panel and keeps
//! every intermediate in an [`ExecWorkspace`] arena. [`execute_reuse`]
//! constructs a throwaway workspace per call; callers that need a layer
//! name or a conv spec call [`ExecWorkspace::execute`], and callers with
//! a steady shape (backends, batch loops) hold a workspace and call
//! [`ExecWorkspace::execute_into`] for allocation-free repeats.

// The executor sits on data-dependent paths: a stray `.unwrap()` here
// turns a malformed input into a panic instead of a typed error, which is
// exactly what the resilience guard exists to prevent. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod batch;
mod cache;
mod horizontal;
mod quant;
mod seam;
mod vertical;
mod workspace;

pub use batch::{execute_reuse_batch, execute_reuse_images, BatchExecutor, BatchStacking};
pub use quant::QuantWorkspace;
pub use seam::LayerExecutor;
pub use workspace::ExecWorkspace;

use serde::{Deserialize, Serialize};

use greuse_mcu::PhaseOps;
use greuse_tensor::Tensor;

use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::Result;

/// Statistics of one reuse execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Total neuron vectors (or 2-D neuron blocks) clustered, summed over
    /// panels — the paper's `n`.
    pub n_vectors: u64,
    /// Total clusters — the paper's `n_c`.
    pub n_clusters: u64,
    /// The redundancy ratio `r_t = 1 − n_c/n` (§4.2).
    pub redundancy_ratio: f64,
    /// Per-phase operation counts for the MCU latency model.
    pub ops: PhaseOps,
    /// Temporal-cache panel hits: the panel replayed a cached clustering
    /// and centroid-GEMM output (zero when the cache is disabled).
    pub cache_hits: u64,
    /// Temporal-cache panel misses: the cache was enabled but the panel
    /// ran the cold path (first frame, changed signatures, a call that
    /// built its hash families, or a fault kept the probe from running).
    pub cache_misses: u64,
    /// Temporal-cache invalidations: signatures matched a cached frame
    /// but the data did not bit-compare equal, evicting the entry.
    pub cache_invalidations: u64,
}

impl ReuseStats {
    pub(crate) fn finish(mut self) -> Self {
        self.redundancy_ratio = greuse_mcu::redundancy_ratio(self.n_vectors, self.n_clusters);
        self
    }

    /// Folds another run's counters into this one: vector/cluster counts
    /// and per-phase op counts are summed, and `redundancy_ratio` is
    /// recomputed from the summed totals (it is not a mean of ratios).
    /// Folding every per-image `ReuseStats` of a batch yields exactly the
    /// batch-level totals the batch executors report.
    pub fn merge(&mut self, other: &ReuseStats) {
        self.n_vectors += other.n_vectors;
        self.n_clusters += other.n_clusters;
        self.ops = self.ops.combined(&other.ops);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.redundancy_ratio = greuse_mcu::redundancy_ratio(self.n_vectors, self.n_clusters);
    }

    /// Fraction of probed panels that hit the temporal cache
    /// (`hits / (hits + misses + invalidations)`), or `0.0` when the
    /// cache never probed — the measured `warm_frac` feeding
    /// [`greuse_mcu::McuSpec::latency_streamed`].
    pub fn warm_hit_fraction(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.cache_invalidations;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The result of a reuse execution: the approximated `N x M` output and
/// the statistics of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseOutput {
    /// Approximated GEMM output (`N x M`, original row order).
    pub y: Tensor<f32>,
    /// Execution statistics.
    pub stats: ReuseStats,
}

/// Executes `Y ≈ X × Wᵀ` under `pattern`, clustering with families from
/// `hashes`. `x` is the im2col matrix (`N x K`, default channel-last
/// layout), `w` the weight matrix (`M x K`).
///
/// The output rows are returned in the **original** row order regardless
/// of the pattern's row reorder.
///
/// # Errors
///
/// Returns [`crate::GreuseError::InvalidPattern`] when the pattern cannot
/// apply to the layer's dimensions, and propagates tensor-shape errors.
pub fn execute_reuse(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<ReuseOutput> {
    ExecWorkspace::new().execute(x, w, None, pattern, hashes, "layer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use crate::pattern::{ReuseOrder, RowOrder};
    use greuse_tensor::gemm_f32;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0f32..1.0))
    }

    fn max_abs_diff(a: &Tensor<f32>, b: &Tensor<f32>) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// X with duplicated rows: reuse must be exact.
    fn duplicated_rows(n: usize, k: usize, distinct: usize, seed: u64) -> Tensor<f32> {
        let base = rand_mat(distinct, k, seed);
        Tensor::from_fn(&[n, k], |i| {
            let row = i / k;
            base.as_slice()[(row % distinct) * k + (i % k)]
        })
    }

    #[test]
    fn vertical_exact_on_duplicated_rows() {
        let x = duplicated_rows(32, 24, 4, 1);
        let w = rand_mat(8, 24, 2);
        let pattern = ReusePattern::conventional(24, 8); // whole-row vectors
        let hashes = RandomHashProvider::new(3);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-4);
        assert!(
            out.stats.redundancy_ratio >= 0.8,
            "r_t {}",
            out.stats.redundancy_ratio
        );
    }

    #[test]
    fn vertical_panelled_exact_on_duplicated_rows() {
        let x = duplicated_rows(32, 24, 4, 3);
        let w = rand_mat(8, 24, 4);
        let pattern = ReusePattern::conventional(8, 8); // three panels
        let hashes = RandomHashProvider::new(5);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-4);
    }

    #[test]
    fn vertical_ragged_panels_and_blocks() {
        // K = 25 with L = 8 leaves a remainder panel; N = 30 with
        // block_rows = 4 leaves a remainder block.
        let x = duplicated_rows(30, 25, 3, 5);
        let w = rand_mat(6, 25, 6);
        let pattern = ReusePattern::conventional(8, 10).with_block_rows(4);
        let hashes = RandomHashProvider::new(7);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        // Blocks mix different rows, so only duplicated *block groups*
        // collapse; with distinct=3 and b=4 the block pattern repeats
        // every 12 rows (gcd effects) — accuracy should still be near
        // exact because identical blocks cluster together and centroids
        // of identical blocks are exact.
        assert!(max_abs_diff(&out.y, &exact) < 1.0);
        assert!(out.y.rows() == 30 && out.y.cols() == 6);
    }

    #[test]
    fn horizontal_exact_on_duplicated_columns() {
        // Duplicated columns of X: horizontal reuse folds them exactly.
        let base = rand_mat(16, 6, 8);
        let x = Tensor::from_fn(&[16, 24], |i| {
            let (r, c) = (i / 24, i % 24);
            base[[r, c % 6]]
        });
        let w = rand_mat(5, 24, 9);
        let pattern =
            ReusePattern::conventional(16, 8).with_direction(crate::ReuseDirection::Horizontal);
        let hashes = RandomHashProvider::new(11);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-3);
        assert!(out.stats.redundancy_ratio > 0.5);
    }

    #[test]
    fn high_h_approaches_exact() {
        // With H = 64 random hashes, distinct vectors almost surely land
        // in singleton clusters -> near-exact output.
        let x = rand_mat(40, 16, 12);
        let w = rand_mat(6, 16, 13);
        let pattern = ReusePattern::conventional(16, 64);
        let hashes = RandomHashProvider::new(14);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-3);
        assert!(out.stats.redundancy_ratio < 0.2);
    }

    #[test]
    fn low_h_coarser_clusters_higher_rt() {
        let x = rand_mat(64, 16, 15);
        let w = rand_mat(4, 16, 16);
        let hashes = RandomHashProvider::new(17);
        let rt_low = execute_reuse(&x, &w, &ReusePattern::conventional(16, 1), &hashes)
            .unwrap()
            .stats
            .redundancy_ratio;
        let rt_high = execute_reuse(&x, &w, &ReusePattern::conventional(16, 32), &hashes)
            .unwrap()
            .stats
            .redundancy_ratio;
        assert!(
            rt_low > rt_high,
            "H=1 rt {rt_low} should exceed H=32 rt {rt_high}"
        );
    }

    #[test]
    fn column_reorder_preserves_exact_product() {
        // With singleton clusters (H=64) a column reorder must not change
        // the (near-exact) result: X and W are permuted identically.
        let x = rand_mat(30, 20, 18);
        let w = rand_mat(5, 20, 19);
        let hashes = RandomHashProvider::new(20);
        let p = ReusePattern::conventional(20, 64).with_order(ReuseOrder::Random(9));
        let out = execute_reuse(&x, &w, &p, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-3);
    }

    #[test]
    fn row_reorder_output_back_in_original_order() {
        let x = rand_mat(24, 12, 21);
        let w = rand_mat(3, 12, 22);
        let hashes = RandomHashProvider::new(23);
        let p = ReusePattern::conventional(12, 64).with_row_order(RowOrder::Random(4));
        let out = execute_reuse(&x, &w, &p, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        assert!(max_abs_diff(&out.y, &exact) < 1e-3);
    }

    #[test]
    fn stats_ops_populated() {
        let x = duplicated_rows(32, 24, 4, 24);
        let w = rand_mat(8, 24, 25);
        let pattern = ReusePattern::conventional(8, 4);
        let hashes = RandomHashProvider::new(26);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let ops = out.stats.ops;
        assert_eq!(ops.transform_elems, 32 * 24);
        assert!(ops.clustering_macs > 0);
        assert!(ops.clustering_vectors > 0);
        assert!(ops.gemm_macs > 0);
        assert!(ops.recover_elems > 0);
        // Reuse must do fewer GEMM MACs than dense on redundant input.
        assert!(ops.gemm_macs < (32 * 24 * 8) as u64);
    }

    #[test]
    fn layout_passes_counted_in_transform() {
        let x = rand_mat(16, 12, 27);
        let w = rand_mat(3, 12, 28);
        let hashes = RandomHashProvider::new(29);
        let base = execute_reuse(&x, &w, &ReusePattern::conventional(12, 4), &hashes)
            .unwrap()
            .stats
            .ops
            .transform_elems;
        let with_col = execute_reuse(
            &x,
            &w,
            &ReusePattern::conventional(12, 4).with_order(ReuseOrder::Random(1)),
            &hashes,
        )
        .unwrap()
        .stats
        .ops
        .transform_elems;
        assert_eq!(with_col, 2 * base);
        let with_both = execute_reuse(
            &x,
            &w,
            &ReusePattern::conventional(12, 4)
                .with_order(ReuseOrder::Random(1))
                .with_row_order(RowOrder::Random(2)),
            &hashes,
        )
        .unwrap()
        .stats
        .ops
        .transform_elems;
        assert_eq!(with_both, 3 * base);
    }

    #[test]
    fn incompatible_weights_rejected() {
        let x = rand_mat(8, 10, 30);
        let w = rand_mat(3, 12, 31);
        let hashes = RandomHashProvider::new(32);
        assert!(execute_reuse(&x, &w, &ReusePattern::conventional(5, 4), &hashes).is_err());
    }

    #[test]
    fn workspace_reuse_across_calls_matches_fresh_workspace() {
        // A single workspace driven across different patterns, layers and
        // shapes must give exactly the results of fresh executions.
        let hashes = RandomHashProvider::new(33);
        let cases = [
            (
                duplicated_rows(32, 24, 4, 34),
                rand_mat(8, 24, 35),
                ReusePattern::conventional(8, 4),
            ),
            (
                rand_mat(30, 20, 36),
                rand_mat(5, 20, 37),
                ReusePattern::conventional(20, 8)
                    .with_order(ReuseOrder::Random(3))
                    .with_row_order(RowOrder::Random(4)),
            ),
            (
                rand_mat(16, 24, 38),
                rand_mat(5, 24, 39),
                ReusePattern::conventional(16, 8).with_direction(crate::ReuseDirection::Horizontal),
            ),
        ];
        let mut ws = ExecWorkspace::new();
        for (i, (x, w, p)) in cases.iter().enumerate() {
            let layer = format!("layer{i}");
            // Run twice through the shared workspace: second call hits the
            // prepared steady state.
            let first = ws.execute(x, w, None, p, &hashes, &layer).unwrap();
            let second = ws.execute(x, w, None, p, &hashes, &layer).unwrap();
            let fresh = ExecWorkspace::new()
                .execute(x, w, None, p, &hashes, &layer)
                .unwrap();
            assert_eq!(first.y, fresh.y, "case {i} first call");
            assert_eq!(second.y, fresh.y, "case {i} steady-state call");
            assert_eq!(first.stats, fresh.stats, "case {i} stats");
            assert_eq!(second.stats, fresh.stats, "case {i} steady-state stats");
        }
    }

    #[test]
    fn execute_into_rejects_wrong_output_len() {
        let x = rand_mat(8, 10, 40);
        let w = rand_mat(3, 10, 41);
        let hashes = RandomHashProvider::new(42);
        let mut ws = ExecWorkspace::new();
        let mut y = vec![0.0f32; 8 * 3 - 1];
        let p = ReusePattern::conventional(5, 4);
        assert!(ws
            .execute_into(&x, &w, None, &p, &hashes, "l", &mut y)
            .is_err());
    }
}
