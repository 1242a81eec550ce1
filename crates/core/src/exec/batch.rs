//! Batch-level reuse: the paper's pattern-3 (Fig. 4 / Fig. 6(e)).
//!
//! When several images are processed together, their im2col matrices can
//! be stacked into one batch matrix, and a *row reorder* of that stack
//! interleaves rows of different images — so one neuron block spans tiles
//! of two (or more) images, exactly the pattern-3 definition. Clustering
//! then discovers similarity *across* images as well as within them.
//!
//! For per-image execution over many images this module also provides the
//! throughput paths: [`execute_reuse_images`] drives one reused
//! [`ExecWorkspace`] over the batch (allocation-free after the first
//! image) and is the sequential reference, and [`BatchExecutor`] fans
//! images out over the persistent [`WorkerPool`] — the pool's threads
//! park between batches (no per-call spawning) and each keeps a
//! **thread-local workspace** that stays warm across batches. Per-image
//! statistics land in indexed slots and are combined in image order, so
//! outputs and totals are **bit-identical** to the sequential path no
//! matter which thread ran which image.

use greuse_tensor::{Permutation, Tensor, WorkerPool};

use crate::exec::{ExecWorkspace, LayerExecutor, ReuseOutput, ReuseStats};
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::{GreuseError, Result};

/// How the rows of the stacked batch matrix are ordered before reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchStacking {
    /// Images concatenated one after another (no cross-image blocks).
    Sequential,
    /// Rows interleaved round-robin across images: row `i` of image 0,
    /// row `i` of image 1, ... — a 2-D neuron block of height ≥ 2 now
    /// spans the *same position in different images* (pattern-3).
    Interleaved,
}

impl BatchStacking {
    /// The row permutation from sequential stacking to this ordering,
    /// for `images` matrices of `rows_per_image` rows each.
    pub fn permutation(&self, images: usize, rows_per_image: usize) -> Permutation {
        let n = images * rows_per_image;
        match self {
            BatchStacking::Sequential => Permutation::identity(n),
            BatchStacking::Interleaved => {
                let mut map = Vec::with_capacity(n);
                for r in 0..rows_per_image {
                    for img in 0..images {
                        map.push(img * rows_per_image + r);
                    }
                }
                Permutation::from_vec(map).expect("round-robin interleave is a bijection")
            }
        }
    }
}

/// Executes reuse over a batch of im2col matrices (all `N x K`) stacked
/// under the given ordering, returning one [`ReuseOutput`] per image (in
/// input order) plus the shared statistics.
///
/// # Errors
///
/// Returns [`GreuseError::InvalidPattern`] for an empty batch or
/// mismatched matrix shapes, and propagates executor errors.
pub fn execute_reuse_batch(
    xs: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
    stacking: BatchStacking,
) -> Result<(Vec<Tensor<f32>>, ReuseOutput)> {
    let (n, k) = check_uniform(xs)?;
    // Stack sequentially, then apply the batch ordering.
    let images = xs.len();
    let mut stacked = Tensor::zeros(&[images * n, k]);
    for (i, x) in xs.iter().enumerate() {
        for r in 0..n {
            stacked.row_mut(i * n + r).copy_from_slice(x.row(r));
        }
    }
    let perm = stacking.permutation(images, n);
    let ordered = perm.apply_rows(&stacked).map_err(GreuseError::from)?;

    let out = ExecWorkspace::new().execute(&ordered, w, None, pattern, hashes, "batch")?;

    // Un-stack: invert the ordering, then split per image.
    let y = perm
        .inverse()
        .apply_rows(&out.y)
        .map_err(GreuseError::from)?;
    let m = w.rows();
    let mut per_image = Vec::with_capacity(images);
    for i in 0..images {
        let mut yi = Tensor::zeros(&[n, m]);
        for r in 0..n {
            yi.row_mut(r).copy_from_slice(y.row(i * n + r));
        }
        per_image.push(yi);
    }
    Ok((per_image, out))
}

fn check_uniform(xs: &[Tensor<f32>]) -> Result<(usize, usize)> {
    let first = xs.first().ok_or_else(|| GreuseError::InvalidPattern {
        detail: "empty batch".into(),
    })?;
    let (n, k) = (first.rows(), first.cols());
    for x in xs {
        if x.shape().dims() != [n, k] {
            return Err(GreuseError::InvalidPattern {
                detail: format!(
                    "batch matrices must share one shape; got {:?} and {:?}",
                    first.shape().dims(),
                    x.shape().dims()
                ),
            });
        }
    }
    Ok((n, k))
}

/// Executes reuse independently per image (no cross-image stacking),
/// driving one reused [`ExecWorkspace`] over the whole batch — after the
/// first image the per-call heap traffic is just the output tensors.
/// Returns the outputs (in input order) and the batch-total statistics
/// (counter sums; `redundancy_ratio` recomputed from the totals).
///
/// # Errors
///
/// Returns [`GreuseError::InvalidPattern`] for an empty batch or
/// mismatched matrix shapes, and propagates executor errors.
pub fn execute_reuse_images(
    xs: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
) -> Result<(Vec<Tensor<f32>>, ReuseStats)> {
    let (n, _) = check_uniform(xs)?;
    let m = w.rows();
    let mut ws = ExecWorkspace::new();
    let mut ys = Vec::with_capacity(xs.len());
    let mut total = ReuseStats::default();
    for x in xs {
        let mut y = Tensor::zeros(&[n, m]);
        let s = ws.execute_into(x, w, None, pattern, hashes, "batch", y.as_mut_slice())?;
        total.merge(&s);
        ys.push(y);
    }
    Ok((ys, total.finish()))
}

/// Wraps a raw `*mut T` so pool tasks can write disjoint elements of a
/// caller-owned slice (task `i` touches only index `i`).
struct SendPtr<T>(*mut T);
// SAFETY: every task dereferences a distinct index; see `run_batch`.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs one image's execution with panic isolation: a panic anywhere in
/// the per-image pipeline is caught at the task boundary and converted
/// to [`GreuseError::WorkerPanic`], so it poisons only this image's slot
/// instead of unwinding through the worker pool and aborting the batch.
/// Thread-local workspaces are safe to reuse afterwards — every call
/// rewrites the transient scratch slices it reads, and a layer's resident
/// entry only ever gains complete per-panel hash families and
/// cache entries committed after a panel finished, so no partial state
/// survives the unwind. Under `fault-inject` the image index is
/// published to the harness so image-scoped fault rules match
/// deterministically regardless of which pool thread runs the task.
fn run_isolated(
    layer: &str,
    image: usize,
    body: impl FnOnce() -> Result<ReuseStats>,
) -> Result<ReuseStats> {
    #[cfg(feature = "fault-inject")]
    let prev = crate::faults::set_current_image(Some(image));
    // AssertUnwindSafe: the captured output slice and thread-local
    // workspace are only observed again after being fully rewritten
    // (scratch is rewritten by every call, resident entries hold only
    // completed per-panel state; a poisoned slot's output is never
    // read), so no broken invariant is witnessed across the catch.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    #[cfg(feature = "fault-inject")]
    crate::faults::set_current_image(prev);
    result.unwrap_or_else(|_payload| {
        Err(GreuseError::WorkerPanic {
            layer: layer.into(),
            image,
        })
    })
}

/// Persistent parallel batch executor over the [`WorkerPool`].
///
/// Owns the per-image statistic slots (grow-only) and writes outputs into
/// caller-provided tensors, so once the slot vector and every
/// thread-local workspace have reached their steady size, a whole
/// parallel batch performs **no heap allocation**. Images are dispatched
/// onto the global [`WorkerPool`] by index; each image's execution is
/// independent of workspace history, and totals are folded in image
/// order, so outputs and statistics are bit-identical to
/// [`execute_reuse_images`] regardless of scheduling.
#[derive(Default)]
pub struct BatchExecutor {
    slots: Vec<Result<ReuseStats>>,
    temporal_cache: bool,
}

impl BatchExecutor {
    /// Creates an executor; slot storage grows on first use.
    pub fn new() -> Self {
        BatchExecutor::default()
    }

    /// Enables (or disables) the cross-call reuse cache (see
    /// [`crate::exec::ExecWorkspace::set_temporal_cache`]) on every
    /// thread-local workspace this executor drives. The flag is applied
    /// inside each task, so it reaches whichever pool thread claims an
    /// image; a workspace already in the requested state is
    /// left untouched (toggling resets its cache). With the cache on and
    /// a single batcher thread, panel clusterings survive *across*
    /// batches — the serve layer's cross-request reuse. Off by default:
    /// the one-shot batch paths keep their stateless semantics.
    pub fn set_temporal_cache(&mut self, enabled: bool) {
        self.temporal_cache = enabled;
    }

    /// Whether cross-call caching is applied to driven workspaces.
    pub fn temporal_cache_enabled(&self) -> bool {
        self.temporal_cache
    }

    /// Dispatches `images` panic-isolated tasks over the pool, writing
    /// per-image results into `self.slots[..images]`. `body(i, y)` runs
    /// with the thread's image context set to `i`.
    fn run_batch_tasks(
        &mut self,
        images: usize,
        threads: usize,
        layer: &str,
        ys: &mut [Tensor<f32>],
        body: &(dyn Fn(usize, &mut [f32]) -> Result<ReuseStats> + Sync),
    ) {
        if self.slots.len() < images {
            self.slots.resize_with(images, || Ok(ReuseStats::default()));
        }
        for slot in &mut self.slots[..images] {
            *slot = Ok(ReuseStats::default());
        }
        let slots = SendPtr(self.slots.as_mut_ptr());
        let ys_ptr = SendPtr(ys.as_mut_ptr());
        let width = threads.clamp(1, images);
        WorkerPool::global().run_tasks(images, width, &|i| {
            // SAFETY: task `i` is claimed exactly once, so these are the
            // only references to element `i`; both vectors outlive the
            // (blocking) run_tasks call.
            let y = unsafe { &mut *ys_ptr.get().add(i) };
            let slot = unsafe { &mut *slots.get().add(i) };
            *slot = run_isolated(layer, i, || body(i, y.as_mut_slice()));
        });
    }

    /// Folds `self.slots[..images]` in image order, aborting on the
    /// first error (the semantics of the all-or-first-error paths).
    fn fold_slots(&mut self, images: usize) -> Result<ReuseStats> {
        let mut total = ReuseStats::default();
        for slot in &mut self.slots[..images] {
            match std::mem::replace(slot, Ok(ReuseStats::default())) {
                Ok(s) => total.merge(&s),
                Err(e) => return Err(e),
            }
        }
        Ok(total.finish())
    }

    /// Takes `self.slots[..images]` as per-image results, in image
    /// order — one `Ok(stats)` or typed error per slot.
    fn take_slots(&mut self, images: usize) -> Vec<Result<ReuseStats>> {
        self.slots[..images]
            .iter_mut()
            .map(|slot| std::mem::replace(slot, Ok(ReuseStats::default())))
            .collect()
    }

    /// Deterministically warms the thread-local workspace of **every**
    /// pool thread (and the caller) on every image of `xs`.
    ///
    /// [`BatchExecutor::execute`] warms workspaces lazily — a thread's
    /// workspace grows the first time that thread happens to claim an
    /// image, which depends on scheduling; buffer sizes also depend on
    /// data (an image with more clusters needs larger centroid storage).
    /// Call this once before a steady-state section (or an
    /// allocation-counting test) to pin the warm-up: it dispatches one
    /// barrier task per pool thread, and each task runs the whole batch,
    /// so every thread's workspace reaches the batch's maximum size.
    ///
    /// # Errors
    ///
    /// Propagates the first per-thread executor error.
    pub fn warm(
        &mut self,
        xs: &[Tensor<f32>],
        w: &Tensor<f32>,
        pattern: &ReusePattern,
        hashes: &dyn HashProvider,
    ) -> Result<()> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, _) = check_uniform(xs)?;
        let warm_one = || {
            ExecWorkspace::with_batch(|ws| {
                let mut y = vec![0.0f32; n * w.rows()];
                for x in xs {
                    ws.execute_into(x, w, None, pattern, hashes, "batch", &mut y)?;
                }
                Ok(())
            })
        };
        let pool = WorkerPool::global();
        let width = pool.workers() + 1;
        if width <= 1 || WorkerPool::in_task() {
            // Nested dispatch runs inline, where a cross-thread barrier
            // would spin forever; warming this thread is all we can do.
            return warm_one();
        }
        if self.slots.len() < width {
            self.slots.resize_with(width, || Ok(ReuseStats::default()));
        }
        let slots = SendPtr(self.slots.as_mut_ptr());
        let arrived = AtomicUsize::new(0);
        pool.run_tasks(width, width, &|i| {
            // Barrier: no task finishes until every task has started, so
            // each of the `width` threads claims exactly one task. The
            // spin is bounded — if a worker is never scheduled the
            // barrier degrades to warming fewer threads, not a hang.
            arrived.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while arrived.load(Ordering::SeqCst) < width && spins < 5_000_000 {
                std::thread::yield_now();
                spins += 1;
            }
            let slot = unsafe { &mut *slots.get().add(i) };
            *slot = warm_one().map(|()| ReuseStats::default());
        });
        for slot in &mut self.slots[..width] {
            std::mem::replace(slot, Ok(ReuseStats::default()))?;
        }
        Ok(())
    }

    /// Executes reuse per image across the worker pool, writing image
    /// `i`'s output into `ys[i]` (which must be an `N x M` tensor) and
    /// returning the batch-total statistics. `threads <= 1` runs inline
    /// on the caller (still through the thread-local workspace).
    ///
    /// A panic inside one image's execution is caught at the task
    /// boundary and poisons only that image's slot: the rest of the
    /// batch completes (their outputs are valid), and the panic surfaces
    /// as [`GreuseError::WorkerPanic`] naming the image instead of
    /// unwinding through the pool.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidPattern`] for an empty/ragged batch
    /// or when `ys.len() != xs.len()`, and propagates the first
    /// per-image executor error (in image order).
    pub fn execute(
        &mut self,
        xs: &[Tensor<f32>],
        w: &Tensor<f32>,
        pattern: &ReusePattern,
        hashes: &dyn HashProvider,
        threads: usize,
        ys: &mut [Tensor<f32>],
    ) -> Result<ReuseStats> {
        self.dispatch::<ExecWorkspace>(xs, w, Some(pattern), hashes, threads, "batch", ys)?;
        self.fold_slots(xs.len())
    }

    /// Per-request variant of [`BatchExecutor::execute`]: instead of
    /// aborting the whole batch on the first error, every image's
    /// outcome is returned in its own slot — `Ok(stats)` with `ys[i]`
    /// valid, or that image's typed error (`WorkerPanic`, guard
    /// rejection, ...) with `ys[i]` unspecified. The serving layer maps
    /// each slot onto one request's response, so one poisoned request
    /// fails alone while its batch-mates succeed. `layer` labels the
    /// execution (it becomes the workspace cache key component and the
    /// `WorkerPanic` layer), letting a server key its shared cache per
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidPattern`] for an empty/ragged batch
    /// or a `ys` length mismatch — defects of the batch as a whole.
    /// Per-image failures land in the returned slots, not here.
    #[allow(clippy::too_many_arguments)] // batch operands + threading + layer key
    pub fn execute_each(
        &mut self,
        xs: &[Tensor<f32>],
        w: &Tensor<f32>,
        pattern: &ReusePattern,
        hashes: &dyn HashProvider,
        threads: usize,
        layer: &str,
        ys: &mut [Tensor<f32>],
    ) -> Result<Vec<Result<ReuseStats>>> {
        self.execute_each_in::<ExecWorkspace>(xs, w, Some(pattern), hashes, threads, layer, ys)
    }

    /// [`BatchExecutor::execute_each`] on workspace type `W`, with
    /// `pattern: None` running every image dense (see
    /// [`LayerExecutor::run_layer`]). Images run on each thread's batch
    /// workspace of type `W`.
    ///
    /// `layer` keys that workspace's resident state. For int8 that
    /// includes the codes of `w`, cached per `(layer, n, k, m, pattern)`
    /// and a fingerprint of `w` sampled from 64 evenly strided elements:
    /// other weights under a known layer name rebuild the codes, but a
    /// change confined to unsampled elements is not seen, and the stale
    /// codes are used. Use one layer name per weight tensor.
    #[allow(clippy::too_many_arguments)] // batch operands + threading + layer key
    pub(crate) fn execute_each_in<W: LayerExecutor>(
        &mut self,
        xs: &[Tensor<f32>],
        w: &Tensor<f32>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        threads: usize,
        layer: &str,
        ys: &mut [Tensor<f32>],
    ) -> Result<Vec<Result<ReuseStats>>> {
        self.dispatch::<W>(xs, w, pattern, hashes, threads, layer, ys)?;
        Ok(self.take_slots(xs.len()))
    }

    #[allow(clippy::too_many_arguments)] // batch operands + threading + layer key
    fn dispatch<W: LayerExecutor>(
        &mut self,
        xs: &[Tensor<f32>],
        w: &Tensor<f32>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        threads: usize,
        layer: &str,
        ys: &mut [Tensor<f32>],
    ) -> Result<()> {
        check_uniform(xs)?;
        if ys.len() != xs.len() {
            return Err(GreuseError::InvalidPattern {
                detail: format!("{} output tensors for {} images", ys.len(), xs.len()),
            });
        }
        let want_cache = self.temporal_cache;
        self.run_batch_tasks(xs.len(), threads, layer, ys, &|i, y| {
            W::with_batch(|ws| {
                ws.set_cache(want_cache);
                ws.run_layer(&xs[i], w, None, pattern, hashes, layer, y)
            })
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QuantWorkspace;
    use crate::hash_provider::RandomHashProvider;
    use greuse_tensor::gemm_f32;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn interleave_permutation_round_robin() {
        let p = BatchStacking::Interleaved.permutation(2, 3);
        // Sequential rows [a0 a1 a2 b0 b1 b2] -> [a0 b0 a1 b1 a2 b2].
        assert_eq!(p.as_slice(), &[0, 3, 1, 4, 2, 5]);
        assert!(BatchStacking::Sequential.permutation(2, 3).is_identity());
    }

    #[test]
    fn batch_reuse_matches_per_image_order() {
        // With H = 64 (singleton clusters) both stackings reproduce the
        // exact per-image GEMM.
        let xs = vec![
            rand_mat(12, 10, 1),
            rand_mat(12, 10, 2),
            rand_mat(12, 10, 3),
        ];
        let w = rand_mat(4, 10, 4);
        let hashes = RandomHashProvider::new(5);
        let pattern = ReusePattern::conventional(10, 64);
        for stacking in [BatchStacking::Sequential, BatchStacking::Interleaved] {
            let (ys, _) = execute_reuse_batch(&xs, &w, &pattern, &hashes, stacking).unwrap();
            assert_eq!(ys.len(), 3);
            for (x, y) in xs.iter().zip(ys.iter()) {
                let exact = gemm_f32(x, &w.transpose()).unwrap();
                for (a, b) in y.as_slice().iter().zip(exact.as_slice()) {
                    assert!((a - b).abs() < 1e-3, "{stacking:?}");
                }
            }
        }
    }

    #[test]
    fn cross_image_redundancy_found_by_interleaving() {
        // Two images whose rows cycle through the same 4 prototypes:
        // an interleaved 2-row block pairs the prototype at position r of
        // both images, so blocks repeat with period 4 — 4 clusters over
        // 16 blocks (r_t = 0.75), and identical blocks make the result
        // exact (pattern-3 reuse across images).
        let protos = rand_mat(4, 8, 7);
        let image = Tensor::from_fn(&[16, 8], |i| {
            let (r, c) = (i / 8, i % 8);
            protos[[r % 4, c]]
        });
        let xs = vec![image.clone(), image.clone()];
        let w = rand_mat(3, 8, 8);
        let hashes = RandomHashProvider::new(9);
        let pattern = ReusePattern::conventional(8, 6).with_block_rows(2);
        let (ys, inter) =
            execute_reuse_batch(&xs, &w, &pattern, &hashes, BatchStacking::Interleaved).unwrap();
        assert!(
            inter.stats.redundancy_ratio >= 0.7,
            "interleaved r_t {} should reflect the period-4 prototypes",
            inter.stats.redundancy_ratio
        );
        // Identical blocks cluster; centroid of identical = original.
        let exact = gemm_f32(&image, &w.transpose()).unwrap();
        for y in &ys {
            for (p, q) in y.as_slice().iter().zip(exact.as_slice()) {
                assert!((p - q).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn empty_and_ragged_batches_rejected() {
        let w = rand_mat(3, 8, 1);
        let hashes = RandomHashProvider::new(2);
        let pattern = ReusePattern::conventional(8, 4);
        assert!(
            execute_reuse_batch(&[], &w, &pattern, &hashes, BatchStacking::Sequential).is_err()
        );
        assert!(execute_reuse_images(&[], &w, &pattern, &hashes).is_err());
        let xs = vec![rand_mat(8, 8, 3), rand_mat(9, 8, 4)];
        assert!(
            execute_reuse_batch(&xs, &w, &pattern, &hashes, BatchStacking::Sequential).is_err()
        );
        // Outputs sized per image, so only the ragged check can reject.
        for threads in [1, 2] {
            assert!(BatchExecutor::new()
                .execute(&[], &w, &pattern, &hashes, threads, &mut [])
                .is_err());
            let mut ys = [Tensor::zeros(&[8, 3]), Tensor::zeros(&[9, 3])];
            assert!(BatchExecutor::new()
                .execute(&xs, &w, &pattern, &hashes, threads, &mut ys)
                .is_err());
        }
    }

    #[test]
    fn images_totals_are_per_image_sums() {
        let xs: Vec<Tensor<f32>> = (0..4).map(|i| rand_mat(18, 12, 40 + i)).collect();
        let w = rand_mat(5, 12, 50);
        let hashes = RandomHashProvider::new(51);
        let pattern = ReusePattern::conventional(6, 3);
        let (ys, total) = execute_reuse_images(&xs, &w, &pattern, &hashes).unwrap();
        assert_eq!(ys.len(), 4);
        let mut n_vectors = 0;
        let mut n_clusters = 0;
        for (x, y) in xs.iter().zip(&ys) {
            let single = ExecWorkspace::new()
                .execute(x, &w, None, &pattern, &hashes, "batch")
                .unwrap();
            assert_eq!(&single.y, y, "per-image output must match single-image run");
            n_vectors += single.stats.n_vectors;
            n_clusters += single.stats.n_clusters;
        }
        assert_eq!(total.n_vectors, n_vectors);
        assert_eq!(total.n_clusters, n_clusters);
        assert_eq!(
            total.redundancy_ratio,
            greuse_mcu::redundancy_ratio(n_vectors, n_clusters)
        );
    }

    #[test]
    fn quantized_batch_keys_weights_by_layer_name() {
        // Two same-shape weight tensors run back to back on one thread
        // under their own layer names: the second call must see its own
        // weights, not int8 codes cached for the first.
        let xs: Vec<Tensor<f32>> = (0..2).map(|i| rand_mat(24, 16, 60 + i)).collect();
        let (w1, w2) = (rand_mat(6, 16, 70), rand_mat(6, 16, 71));
        let hashes = RandomHashProvider::new(72);
        for pattern in [None, Some(ReusePattern::conventional(8, 2))] {
            let mut want: Vec<Tensor<f32>> = (0..2).map(|_| Tensor::zeros(&[24, 6])).collect();
            let mut fresh = QuantWorkspace::new();
            for (x, y) in xs.iter().zip(&mut want) {
                fresh
                    .execute_into(x, &w2, pattern.as_ref(), &hashes, "w2", y.as_mut_slice())
                    .unwrap();
            }
            let mut exec = BatchExecutor::new();
            let mut ys: Vec<Tensor<f32>> = (0..2).map(|_| Tensor::zeros(&[24, 6])).collect();
            for (w, layer) in [(&w1, "w1"), (&w2, "w2")] {
                let slots = exec
                    .execute_each_in::<QuantWorkspace>(
                        &xs,
                        w,
                        pattern.as_ref(),
                        &hashes,
                        1,
                        layer,
                        &mut ys,
                    )
                    .unwrap();
                assert!(slots.iter().all(Result::is_ok), "{slots:?}");
            }
            assert_eq!(ys, want, "pattern {pattern:?}");
        }
    }

    #[test]
    fn quantized_batch_bit_identical_to_sequential() {
        // The int8 batch path must match a sequential QuantWorkspace
        // loop bit for bit at any thread count, with and without a
        // reuse pattern.
        let xs: Vec<Tensor<f32>> = (0..5).map(|i| rand_mat(24, 16, 80 + i)).collect();
        let w = rand_mat(6, 16, 90);
        let hashes = RandomHashProvider::new(91);
        for pattern in [None, Some(ReusePattern::conventional(8, 2))] {
            let mut ws = QuantWorkspace::new();
            let mut seq_ys: Vec<Tensor<f32>> =
                (0..xs.len()).map(|_| Tensor::zeros(&[24, 6])).collect();
            let mut seq_stats = ReuseStats::default();
            for (x, y) in xs.iter().zip(&mut seq_ys) {
                let s = ws
                    .execute_into(x, &w, pattern.as_ref(), &hashes, "batch", y.as_mut_slice())
                    .unwrap();
                seq_stats.merge(&s);
            }
            for threads in [1, 2, 5] {
                let mut par_ys: Vec<Tensor<f32>> =
                    (0..xs.len()).map(|_| Tensor::zeros(&[24, 6])).collect();
                let mut par_stats = ReuseStats::default();
                for slot in BatchExecutor::new()
                    .execute_each_in::<QuantWorkspace>(
                        &xs,
                        &w,
                        pattern.as_ref(),
                        &hashes,
                        threads,
                        "batch",
                        &mut par_ys,
                    )
                    .unwrap()
                {
                    par_stats.merge(&slot.unwrap());
                }
                assert_eq!(seq_ys, par_ys, "outputs differ at {threads} threads");
                assert_eq!(
                    (seq_stats.n_vectors, seq_stats.n_clusters, seq_stats.ops),
                    (par_stats.n_vectors, par_stats.n_clusters, par_stats.ops),
                    "stats differ at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn run_isolated_converts_panic_to_worker_panic() {
        // Silence the default panic hook for the intentional panic.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = run_isolated("serve/cifarnet", 3, || panic!("boom"));
        std::panic::set_hook(prev_hook);
        match r {
            Err(GreuseError::WorkerPanic { layer, image }) => {
                assert_eq!(layer, "serve/cifarnet");
                assert_eq!(image, 3);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(run_isolated("batch", 0, || Ok(ReuseStats::default())).is_ok());
    }

    #[test]
    fn execute_each_matches_execute_and_reports_per_slot() {
        let xs: Vec<Tensor<f32>> = (0..4).map(|i| rand_mat(20, 12, 100 + i)).collect();
        let w = rand_mat(5, 12, 110);
        let hashes = RandomHashProvider::new(111);
        let pattern = ReusePattern::conventional(6, 3);
        let mut all_ys: Vec<Tensor<f32>> = (0..4).map(|_| Tensor::zeros(&[20, 5])).collect();
        let total = BatchExecutor::new()
            .execute(&xs, &w, &pattern, &hashes, 2, &mut all_ys)
            .unwrap();
        // Same layer label: hash families are keyed on it, so only an
        // identical label is bit-comparable with `execute`.
        let mut each_ys: Vec<Tensor<f32>> = (0..4).map(|_| Tensor::zeros(&[20, 5])).collect();
        let slots = BatchExecutor::new()
            .execute_each(&xs, &w, &pattern, &hashes, 2, "batch", &mut each_ys)
            .unwrap();
        assert_eq!(all_ys, each_ys);
        assert_eq!(slots.len(), 4);
        let mut folded = ReuseStats::default();
        for s in &slots {
            folded.merge(s.as_ref().unwrap());
        }
        assert_eq!(folded.finish(), total);
        // Whole-batch defects stay on the outer Result.
        assert!(BatchExecutor::new()
            .execute_each(&xs, &w, &pattern, &hashes, 2, "serve", &mut each_ys[..2])
            .is_err());
    }

    #[test]
    fn temporal_cache_flag_reaches_thread_local_workspaces() {
        // Same batch twice through one executor with the cache on and a
        // single thread: the second pass must be all warm hits. A third
        // pass with the flag off must not see (or grow) the cache.
        let xs: Vec<Tensor<f32>> = (0..3).map(|_| rand_mat(24, 12, 7)).collect();
        let w = rand_mat(5, 12, 8);
        let hashes = RandomHashProvider::new(9);
        let pattern = ReusePattern::conventional(6, 3);
        let mut ys: Vec<Tensor<f32>> = (0..3).map(|_| Tensor::zeros(&[24, 5])).collect();
        let mut ex = BatchExecutor::new();
        ex.set_temporal_cache(true);
        assert!(ex.temporal_cache_enabled());
        let cold = ex
            .execute_each(&xs, &w, &pattern, &hashes, 1, "serve", &mut ys)
            .unwrap();
        let cold_hits: u64 = cold.iter().map(|s| s.as_ref().unwrap().cache_hits).sum();
        let warm = ex
            .execute_each(&xs, &w, &pattern, &hashes, 1, "serve", &mut ys)
            .unwrap();
        let warm_total = warm
            .iter()
            .fold(ReuseStats::default(), |mut acc, s| {
                acc.merge(s.as_ref().unwrap());
                acc
            })
            .finish();
        assert!(
            warm_total.cache_hits > cold_hits,
            "second identical pass must hit the cross-call cache \
             (cold {cold_hits}, warm {})",
            warm_total.cache_hits
        );
        ex.set_temporal_cache(false);
        let off = ex
            .execute_each(&xs, &w, &pattern, &hashes, 1, "serve", &mut ys)
            .unwrap();
        assert!(off
            .iter()
            .all(|s| s.as_ref().unwrap().cache_hits == 0 && s.as_ref().unwrap().cache_misses == 0));
    }

    #[test]
    fn parallel_batch_bit_identical_to_sequential() {
        // Acceptance criterion: on a fixed seed the parallel path must
        // produce bit-identical outputs AND ReuseStats totals.
        let xs: Vec<Tensor<f32>> = (0..7).map(|i| rand_mat(24, 16, 60 + i)).collect();
        let w = rand_mat(6, 16, 70);
        let hashes = RandomHashProvider::new(71);
        let pattern = ReusePattern::conventional(8, 2).with_block_rows(2);
        let (seq_ys, seq_stats) = execute_reuse_images(&xs, &w, &pattern, &hashes).unwrap();
        for threads in [1, 2, 3, 7, 16] {
            let mut par_ys: Vec<Tensor<f32>> =
                (0..xs.len()).map(|_| Tensor::zeros(&[24, 6])).collect();
            let par_stats = BatchExecutor::new()
                .execute(&xs, &w, &pattern, &hashes, threads, &mut par_ys)
                .unwrap();
            assert_eq!(seq_ys, par_ys, "outputs differ at {threads} threads");
            assert_eq!(seq_stats, par_stats, "stats differ at {threads} threads");
        }
    }
}
