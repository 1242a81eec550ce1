//! [`GuardedBackend`]: plugs per-layer reuse patterns into any
//! `greuse-nn` network by implementing its [`ConvBackend`] seam, over
//! either executor: [`ReuseBackend`] runs the f32 [`ExecWorkspace`],
//! [`QuantizedBackend`] the int8 [`QuantWorkspace`]. Both are the same
//! type, so the policy around the executor is written once: the pattern
//! table, the atomic statistics, the telemetry tags, the workspace pool
//! and the guard sequence (validate and sanitize, the accuracy-bound
//! ceiling, run, the break-even fallback, record).
//!
//! Layers without an assigned pattern run dense, so partial deployments
//! (e.g. "reuse only on conv2") are expressed naturally: f32 through
//! [`DenseBackend`] with no workspace checkout, int8 through the
//! dense-quantized GEMM of a pooled workspace (whose resident entry holds
//! the layer's weight codes). A guard fallback recomputes the call the
//! same dense way, so its output is bit-identical to the unpatterned
//! layer's on either element type.
//!
//! The backend is built for concurrent inference: statistics live in
//! per-layer **atomic accumulators** (one fixed slot per patterned layer,
//! created at build time — no lock, no map mutation on the hot path).
//! Executor state comes from a pool of workspaces, which serves two
//! purposes. Parallel callers each check out their own workspace, so
//! they never contend on one scratch arena. And each workspace keeps one
//! resident entry per layer (permutations or weight codes, hash
//! families, histogram handles) next to one shared scratch arena, so a
//! single-threaded network forward — which checks the same workspace out
//! for every layer in turn — selects each layer's prepared state instead
//! of rebuilding it, and runs the fused pipeline from the second image on.
//!
//! One guard sequence serves both element types, so for either:
//!
//! * [`GuardedBackend::stats`] lists a layer once it has run *or* fallen
//!   back (an accuracy-bound fallback skips the executor, `calls == 0`);
//! * [`LayerStats::wall_ns`] times the reuse executor only, never the
//!   dense recompute of a fallback, and a fallback call records the
//!   counts of the reuse attempt whose `r_t` triggered it;
//! * [`GuardConfig::max_error_bound`], the `Im2col` fault point and
//!   [`GuardedBackend::layer_probe`] apply;
//! * guard rejections are [`TensorError::InvalidInput`]. Executor errors
//!   keep their element's variant: `InvalidInput` for f32,
//!   [`TensorError::InvalidQuantization`] for int8.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use greuse_mcu::PhaseOps;
use greuse_nn::{ConvBackend, DenseBackend};
use greuse_tensor::{ConvSpec, Tensor, TensorError};

use crate::exec::{ExecWorkspace, LayerExecutor, QuantWorkspace, ReuseStats};
use crate::guard::{
    apply_non_finite_policy, should_fall_back, validate_gemm_operands, FallbackReason, GuardConfig,
};
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;

/// Maps runtime errors onto the tensor-level seam of [`ConvBackend`]:
/// tensor causes pass through unchanged, everything else becomes a typed
/// [`TensorError::InvalidInput`] carrying the full message.
pub(crate) fn boundary_error(e: crate::GreuseError) -> TensorError {
    match e {
        crate::GreuseError::Tensor(t) => t,
        other => TensorError::InvalidInput {
            op: "reuse backend",
            detail: other.to_string(),
        },
    }
}

/// Accumulated per-layer execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Images (calls) processed.
    pub calls: u64,
    /// Summed operation counts across calls.
    pub ops: PhaseOps,
    /// Summed neuron vectors.
    pub n_vectors: u64,
    /// Summed clusters.
    pub n_clusters: u64,
    /// Summed host wall time spent in the reuse executor, nanoseconds.
    /// Host-side observability only — MCU latency comes from the model.
    pub wall_ns: u64,
    /// Calls recomputed through the exact dense path by the guard (see
    /// [`GuardConfig::fallback`]).
    pub fallbacks: u64,
}

impl LayerStats {
    /// Mean redundancy ratio across calls.
    pub fn redundancy_ratio(&self) -> f64 {
        greuse_mcu::redundancy_ratio(self.n_vectors, self.n_clusters)
    }

    /// Folds another accumulation into this one (plain counter sums).
    /// Folding per-image snapshots equals accumulating all images into
    /// one `LayerStats`.
    pub fn merge(&mut self, other: &LayerStats) {
        self.calls += other.calls;
        self.ops = self.ops.combined(&other.ops);
        self.n_vectors += other.n_vectors;
        self.n_clusters += other.n_clusters;
        self.wall_ns += other.wall_ns;
        self.fallbacks += other.fallbacks;
    }

    /// Mean per-image operation counts.
    pub fn mean_ops(&self) -> PhaseOps {
        if self.calls == 0 {
            return PhaseOps::default();
        }
        let c = self.calls;
        PhaseOps {
            transform_elems: self.ops.transform_elems / c,
            clustering_macs: self.ops.clustering_macs / c,
            clustering_vectors: self.ops.clustering_vectors / c,
            gemm_macs: self.ops.gemm_macs / c,
            recover_elems: self.ops.recover_elems / c,
        }
    }
}

/// Lock-free per-layer accumulator: one atomic counter per statistic.
/// Counters are independent `Relaxed` adds — totals are exact because
/// every count is a plain sum, and snapshots are taken between inference
/// runs (the backend never promises a mid-call-consistent snapshot).
#[derive(Debug, Default)]
struct AtomicLayerStats {
    calls: AtomicU64,
    transform_elems: AtomicU64,
    clustering_macs: AtomicU64,
    clustering_vectors: AtomicU64,
    gemm_macs: AtomicU64,
    recover_elems: AtomicU64,
    n_vectors: AtomicU64,
    n_clusters: AtomicU64,
    wall_ns: AtomicU64,
    fallbacks: AtomicU64,
    /// Code of the *last* [`FallbackReason`]; zero while the layer has
    /// never fallen back.
    fallback_reason: AtomicU32,
    /// `f64::to_bits` of the layer's input redundancy probe, captured on
    /// the layer's first reuse call; zero while unset (the probe is
    /// strictly positive, so zero is unambiguous).
    probe_bits: AtomicU64,
}

impl AtomicLayerStats {
    fn record(&self, s: &ReuseStats, wall_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        self.transform_elems
            .fetch_add(s.ops.transform_elems, Ordering::Relaxed);
        self.clustering_macs
            .fetch_add(s.ops.clustering_macs, Ordering::Relaxed);
        self.clustering_vectors
            .fetch_add(s.ops.clustering_vectors, Ordering::Relaxed);
        self.gemm_macs.fetch_add(s.ops.gemm_macs, Ordering::Relaxed);
        self.recover_elems
            .fetch_add(s.ops.recover_elems, Ordering::Relaxed);
        self.n_vectors.fetch_add(s.n_vectors, Ordering::Relaxed);
        self.n_clusters.fetch_add(s.n_clusters, Ordering::Relaxed);
    }

    fn record_fallback(&self, reason: FallbackReason) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.fallback_reason.store(reason as u32, Ordering::Relaxed);
        // Reason-labeled series next to the aggregate `exec.fallback`
        // counter, so dashboards can tell break-even demotions from
        // accuracy-bound ones.
        match reason {
            FallbackReason::LowRedundancy => {
                greuse_telemetry::counter!(r#"guard.fallback{reason="low_rt"}"#).add(1);
            }
            FallbackReason::AccuracyBound => {
                greuse_telemetry::counter!(r#"guard.fallback{reason="accuracy_bound"}"#).add(1);
            }
        }
    }

    fn fallback_reason(&self) -> Option<FallbackReason> {
        FallbackReason::from_code(self.fallback_reason.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> LayerStats {
        LayerStats {
            calls: self.calls.load(Ordering::Relaxed),
            ops: PhaseOps {
                transform_elems: self.transform_elems.load(Ordering::Relaxed),
                clustering_macs: self.clustering_macs.load(Ordering::Relaxed),
                clustering_vectors: self.clustering_vectors.load(Ordering::Relaxed),
                gemm_macs: self.gemm_macs.load(Ordering::Relaxed),
                recover_elems: self.recover_elems.load(Ordering::Relaxed),
            },
            n_vectors: self.n_vectors.load(Ordering::Relaxed),
            n_clusters: self.n_clusters.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.transform_elems.store(0, Ordering::Relaxed);
        self.clustering_macs.store(0, Ordering::Relaxed);
        self.clustering_vectors.store(0, Ordering::Relaxed);
        self.gemm_macs.store(0, Ordering::Relaxed);
        self.recover_elems.store(0, Ordering::Relaxed);
        self.n_vectors.store(0, Ordering::Relaxed);
        self.n_clusters.store(0, Ordering::Relaxed);
        self.wall_ns.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        self.fallback_reason.store(0, Ordering::Relaxed);
        // The probe survives resets on purpose: it describes the input
        // distribution, not the counted work, and profiling warm-up would
        // otherwise discard it.
    }
}

/// A checkout pool of executor workspaces. Concurrent callers each take
/// their own; a single-threaded caller gets the same warm workspace back
/// on every call.
struct WorkspacePool<W>(Mutex<Vec<W>>);

impl<W> Default for WorkspacePool<W> {
    fn default() -> Self {
        WorkspacePool(Mutex::new(Vec::new()))
    }
}

impl<W: Default> WorkspacePool<W> {
    /// Runs `f` on a checked-out workspace and returns it to the pool.
    fn with<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        let mut ws = self.0.lock().pop().unwrap_or_default();
        let out = f(&mut ws);
        self.0.lock().push(ws);
        out
    }
}

/// A patterned layer: its pattern, telemetry tag and accumulator.
#[derive(Debug)]
struct PatternedLayer {
    pattern: ReusePattern,
    /// Telemetry tag (1-based, assignment order). Spans recorded while
    /// the layer executes carry it, letting exporters attribute phase
    /// time to layers.
    tag: u32,
    stats: AtomicLayerStats,
}

/// A convolution backend that applies reuse patterns per layer on the
/// workspace type `W`, behind the resilience guard. Use it through its
/// two instances, [`ReuseBackend`] (f32) and [`QuantizedBackend`]
/// (int8); see the module docs.
pub struct GuardedBackend<P: HashProvider, W = ExecWorkspace> {
    layers: HashMap<String, PatternedLayer>,
    hashes: P,
    workspaces: WorkspacePool<W>,
    guard: GuardConfig,
}

/// The f32 guarded backend: reuse on patterned layers, [`DenseBackend`]
/// elsewhere.
pub type ReuseBackend<P> = GuardedBackend<P, ExecWorkspace>;

/// The int8 guarded backend: every convolution GEMM runs through the
/// [`QuantWorkspace`] pipeline — activations quantized per call
/// (asymmetric `u8`), weights per layer (symmetric `i8`, resident in the
/// pooled workspace), `i32` accumulation, requantized back to `f32`.
/// Patterned layers run the quantized reuse walk (LSH over dequantized
/// neuron blocks, integer centroid folding, packed u8×i8 centroid GEMM);
/// the others run one dense u8×i8 GEMM.
pub type QuantizedBackend<P> = GuardedBackend<P, QuantWorkspace>;

impl<P: HashProvider, W: LayerExecutor> GuardedBackend<P, W> {
    /// Creates a backend with no patterns assigned (all layers dense)
    /// and the guard disabled.
    pub fn new(hashes: P) -> Self {
        GuardedBackend {
            layers: HashMap::new(),
            hashes,
            workspaces: WorkspacePool::default(),
            guard: GuardConfig::off(),
        }
    }

    /// Sets the guard configuration (builder style): operand validation
    /// at the backend boundary plus automatic dense fallback when the
    /// measured `r_t` does not clear the latency-model break-even.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// The active guard configuration.
    pub fn guard_config(&self) -> &GuardConfig {
        &self.guard
    }

    /// Why the layer last fell back to dense (`None` = never).
    pub fn layer_fallback_reason(&self, layer: &str) -> Option<FallbackReason> {
        self.layers.get(layer)?.stats.fallback_reason()
    }

    /// Assigns a pattern to a layer (builder style). Reassigning a layer
    /// keeps its tag and statistics. The int8 executor runs
    /// default-layout vertical patterns; it runs horizontal patterns
    /// dense-quantized and rejects layout reorders at execution time.
    pub fn with_pattern(mut self, layer: impl Into<String>, pattern: ReusePattern) -> Self {
        let tag = self.layers.len() as u32 + 1;
        match self.layers.entry(layer.into()) {
            Entry::Occupied(mut e) => e.get_mut().pattern = pattern,
            Entry::Vacant(e) => {
                e.insert(PatternedLayer {
                    pattern,
                    tag,
                    stats: AtomicLayerStats::default(),
                });
            }
        }
        self
    }

    /// Assigns patterns for many layers at once.
    pub fn with_patterns<I, S>(mut self, patterns: I) -> Self
    where
        I: IntoIterator<Item = (S, ReusePattern)>,
        S: Into<String>,
    {
        for (layer, p) in patterns {
            self = self.with_pattern(layer, p);
        }
        self
    }

    /// The pattern assigned to a layer, if any.
    pub fn pattern(&self, layer: &str) -> Option<&ReusePattern> {
        self.layers.get(layer).map(|l| &l.pattern)
    }

    /// Per-layer statistics accumulated so far (executed reuse layers
    /// only — a patterned layer that has not run yet is absent; a layer
    /// that only ever fell back to dense is present with `calls == 0`).
    pub fn stats(&self) -> HashMap<String, LayerStats> {
        self.layers
            .iter()
            .map(|(layer, l)| (layer.clone(), l.stats.snapshot()))
            .filter(|(_, s)| s.calls > 0 || s.fallbacks > 0)
            .collect()
    }

    /// Statistics of one layer (`None` until it has executed with reuse
    /// or fallen back at least once).
    pub fn layer_stats(&self, layer: &str) -> Option<LayerStats> {
        self.layers
            .get(layer)
            .map(|l| l.stats.snapshot())
            .filter(|s| s.calls > 0 || s.fallbacks > 0)
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&self) {
        for l in self.layers.values() {
            l.stats.reset();
        }
    }

    /// The hash provider in use.
    pub fn hash_provider(&self) -> &P {
        &self.hashes
    }

    /// The telemetry tag attached to a patterned layer's spans.
    pub fn layer_tag(&self, layer: &str) -> Option<u32> {
        self.layers.get(layer).map(|l| l.tag)
    }

    /// The layer's input redundancy probe (`redundancy_probe`)
    /// captured on its first reuse call — the *predicted* `r_t` that the
    /// drift report compares against the measured ratio. `None` until the
    /// layer has executed with reuse.
    pub fn layer_probe(&self, layer: &str) -> Option<f64> {
        let bits = self
            .layers
            .get(layer)?
            .stats
            .probe_bits
            .load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Runs one call through the guard into `y`: `entry` is the layer's
    /// pattern entry, `None` for an unpatterned layer that runs on the
    /// workspace (int8 dense-quantized).
    ///
    /// With an active [`GuardConfig`] the operands are validated first
    /// (typed errors instead of panics deep in the pipeline), and a
    /// patterned call is recomputed dense — bit-identical to the
    /// unpatterned layer — when the §4.1 error bound exceeds the
    /// configured ceiling or the measured `r_t` does not clear the
    /// latency-model break-even.
    fn run(
        &self,
        layer: &str,
        entry: Option<&PatternedLayer>,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut [f32],
    ) -> Result<(), TensorError> {
        #[cfg(feature = "fault-inject")]
        let corrupted = {
            use crate::faults::{corrupt_slice, fire, FaultAction, FaultPoint};
            match fire(FaultPoint::Im2col) {
                Some(FaultAction::Panic) => panic!("fault-inject: panic at `im2col` boundary"),
                Some(
                    a @ (FaultAction::CorruptNan | FaultAction::CorruptInf | FaultAction::Saturate),
                ) => {
                    let mut c = x.clone();
                    corrupt_slice(a, c.as_mut_slice());
                    Some(c)
                }
                _ => None,
            }
        };
        #[cfg(feature = "fault-inject")]
        let x = corrupted.as_ref().unwrap_or(x);

        let mut sanitized = None;
        if self.guard.is_active() {
            validate_gemm_operands(layer, x, weights).map_err(boundary_error)?;
            sanitized = apply_non_finite_policy(layer, "activation", x, self.guard.policy)
                .map_err(boundary_error)?;
        }
        let x = sanitized.as_ref().unwrap_or(x);
        self.workspaces.with(|ws| match entry {
            Some(entry) => self.run_patterned(ws, layer, entry, spec, x, weights, y),
            None => self.run_dense(ws, layer, spec, x, weights, y),
        })
    }

    /// The guarded reuse call on a checked-out workspace: the accuracy
    /// bound check, the executor run, the break-even fallback, and the
    /// record.
    #[allow(clippy::too_many_arguments)]
    fn run_patterned(
        &self,
        ws: &mut W,
        layer: &str,
        entry: &PatternedLayer,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut [f32],
    ) -> Result<(), TensorError> {
        let pattern = &entry.pattern;
        if let (true, Some(ceiling)) = (self.guard.fallback, self.guard.max_error_bound) {
            let est = crate::models::accuracy::accuracy_bound_with_spec(
                x,
                weights,
                spec,
                pattern,
                &self.hashes,
            )
            .map_err(boundary_error)?;
            if est.error_bound > ceiling {
                self.run_dense(ws, layer, spec, x, weights, y)?;
                record_fallback(entry, FallbackReason::AccuracyBound);
                return Ok(());
            }
        }

        let prev_tag = greuse_telemetry::set_tag(entry.tag);
        let started = Instant::now();
        let result = ws.run_layer(
            x,
            weights,
            Some(spec),
            Some(pattern),
            &self.hashes,
            layer,
            y,
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        greuse_telemetry::set_tag(prev_tag);
        let stats = result.map_err(W::tensor_error)?;

        let below_breakeven = if self.guard.fused_breakeven {
            crate::guard::should_fall_back_fused(pattern, weights.rows(), stats.redundancy_ratio)
        } else {
            should_fall_back(pattern, weights.rows(), stats.redundancy_ratio)
        };
        if self.guard.fallback && below_breakeven {
            self.run_dense(ws, layer, spec, x, weights, y)?;
            record_fallback(entry, FallbackReason::LowRedundancy);
        }
        entry.stats.record(&stats, wall_ns);
        if entry.stats.probe_bits.load(Ordering::Relaxed) == 0 {
            let probe = redundancy_probe(x);
            entry
                .stats
                .probe_bits
                .store(probe.to_bits(), Ordering::Relaxed);
        }
        Ok(())
    }

    /// The dense run straight into `y`: the exact packed `X × Wᵀ` that
    /// [`DenseBackend`] runs (f32) or the dense-quantized GEMM (int8),
    /// borrowing the workspace's buffers, so it allocates nothing.
    fn run_dense(
        &self,
        ws: &mut W,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut [f32],
    ) -> Result<(), TensorError> {
        ws.run_layer(x, weights, Some(spec), None, &self.hashes, layer, y)
            .map(drop)
            .map_err(W::tensor_error)
    }
}

/// Records one dense fallback (f32 or int8) on the `exec.fallback`
/// counter and the layer's accumulator.
fn record_fallback(entry: &PatternedLayer, reason: FallbackReason) {
    greuse_telemetry::counter!("exec.fallback").add(1);
    entry.stats.record_fallback(reason);
}

/// A redundancy probe: a single-pass estimate of how self-similar the
/// rows of an im2col matrix are, in `[0, 1]` (1 = every row equals the
/// running mean). Cost: one pass over the matrix — negligible next to
/// the layer's GEMM.
fn redundancy_probe(x: &Tensor<f32>) -> f64 {
    let (n, k) = (x.rows(), x.cols());
    if n == 0 || k == 0 {
        return 0.0;
    }
    // Mean row and mean squared deviation, normalized by the mean row
    // energy: a scale-free "how far are rows from their average".
    let mut mean = vec![0.0f64; k];
    for r in 0..n {
        for (m, v) in mean.iter_mut().zip(x.row(r)) {
            *m += f64::from(*v);
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mean_energy: f64 = mean.iter().map(|m| m * m).sum::<f64>().max(1e-12);
    let mut dev = 0.0f64;
    for r in 0..n {
        for (m, v) in mean.iter().zip(x.row(r)) {
            let d = f64::from(*v) - m;
            dev += d * d;
        }
    }
    let rel = dev / (n as f64 * mean_energy);
    1.0 / (1.0 + rel)
}

impl<P: HashProvider, W: LayerExecutor> ConvBackend for GuardedBackend<P, W> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        let entry = self.layers.get(layer);
        if entry.is_none() && !W::DENSE_IN_WORKSPACE {
            return DenseBackend.conv_gemm(layer, spec, x, weights);
        }
        let mut y = Tensor::zeros(&[x.rows(), weights.rows()]);
        self.run(layer, entry, spec, x, weights, y.as_mut_slice())?;
        Ok(y)
    }

    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let entry = self.layers.get(layer);
        if entry.is_none() && !W::DENSE_IN_WORKSPACE {
            return DenseBackend.conv_gemm_into(layer, spec, x, weights, y);
        }
        let (n, m) = (x.rows(), weights.rows());
        if y.shape().dims() != [n, m] {
            return Err(TensorError::ShapeMismatch {
                op: "conv_gemm_into",
                expected: vec![n, m],
                actual: y.shape().dims().to_vec(),
            });
        }
        self.run(layer, entry, spec, x, weights, y.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    //! Every scenario runs on both element types: each `#[test]` below
    //! calls its generic scenario once with the f32 [`ExecWorkspace`] and
    //! once with the int8 [`QuantWorkspace`]; [`Flavor`] holds what the
    //! two are expected to differ in.
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use greuse_nn::{models::CifarNet, Network};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Per-element expectations against the exact f32 dense network.
    trait Flavor: LayerExecutor + 'static {
        /// Bound on `|logit − f32 dense logit|` as a fraction of the
        /// output scale with no pattern; `None` = bit-identical.
        const DENSE_TOL: Option<f32>;
        /// The same bound with conv1 under a high-`H` pattern.
        const PATTERN_TOL: f32;
    }

    impl Flavor for ExecWorkspace {
        const DENSE_TOL: Option<f32> = None;
        const PATTERN_TOL: f32 = 0.05;
    }

    impl Flavor for QuantWorkspace {
        // int8 conv layers drift from f32, but logits must stay close on
        // the scale of the output.
        const DENSE_TOL: Option<f32> = Some(0.15);
        const PATTERN_TOL: f32 = 0.2;
    }

    /// Declares each test as its scenario run on both element types.
    macro_rules! on_both {
        ($($test:ident => $scenario:ident),* $(,)?) => {$(
            #[test]
            fn $test() {
                $scenario::<ExecWorkspace>();
                $scenario::<QuantWorkspace>();
            }
        )*};
    }

    on_both! {
        no_patterns_matches_dense_exactly => no_patterns,
        high_h_pattern_close_to_dense => high_h_pattern,
        stats_accumulate_and_reset => stats_accumulate_and_reset_on,
        with_patterns_bulk => patterns_bulk,
        concurrent_inference_sums_stats_exactly => concurrent_inference,
        guarded_low_rt_layer_falls_back_to_exact_dense => low_rt_fallback,
        accuracy_bound_ceiling_forces_pre_exec_fallback => accuracy_bound_fallback,
        strict_guard_rejects_and_sanitize_recovers_non_finite => non_finite_policies,
        guard_rejects_mismatched_operands_with_typed_error => mismatched_operands,
    }

    fn fresh<W: Flavor>(seed: u64) -> GuardedBackend<RandomHashProvider, W> {
        GuardedBackend::new(RandomHashProvider::new(seed))
    }

    fn net_and_image() -> (CifarNet, Tensor<f32>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = CifarNet::new(10, &mut rng);
        let image = Tensor::from_fn(&[3, 32, 32], |i| ((i / 97) as f32 * 0.3).sin());
        (net, image)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol * scale, "{x} vs {y}");
        }
    }

    fn no_patterns<W: Flavor>() {
        let (net, image) = net_and_image();
        let backend = fresh::<W>(1);
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        match W::DENSE_TOL {
            None => assert_eq!(a, b),
            Some(tol) => assert_close(a.as_slice(), b.as_slice(), tol),
        }
        assert!(backend.stats().is_empty());
    }

    fn high_h_pattern<W: Flavor>() {
        let (net, image) = net_and_image();
        let backend = fresh::<W>(2).with_pattern("conv1", ReusePattern::conventional(25, 48));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        assert_close(a.as_slice(), b.as_slice(), W::PATTERN_TOL);
        let stats = backend.layer_stats("conv1").unwrap();
        assert_eq!(stats.calls, 1);
        assert!(stats.n_vectors > 0);
        assert_eq!(backend.layer_tag("conv1"), Some(1));
        assert!(backend.layer_probe("conv1").is_some_and(|p| p > 0.0));
    }

    fn stats_accumulate_and_reset_on<W: Flavor>() {
        let (net, image) = net_and_image();
        let backend = fresh::<W>(3).with_pattern("conv1", ReusePattern::conventional(15, 2));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &backend).unwrap();
        assert_eq!(a, b);
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 2);
        assert!(s.redundancy_ratio() > 0.0);
        let mean = s.mean_ops();
        assert_eq!(mean.transform_elems, s.ops.transform_elems / 2);
        backend.reset_stats();
        assert!(backend.stats().is_empty());
        assert!(backend.layer_stats("conv1").is_none());
    }

    fn patterns_bulk<W: Flavor>() {
        let backend = fresh::<W>(4).with_patterns([
            ("conv1", ReusePattern::conventional(15, 2)),
            ("conv2", ReusePattern::conventional(20, 3)),
        ]);
        assert!(backend.pattern("conv1").is_some());
        assert!(backend.pattern("conv2").is_some());
        assert!(backend.pattern("conv3").is_none());
    }

    fn concurrent_inference<W: Flavor>() {
        // Four threads × three images each through one shared backend:
        // the atomic accumulators must count every call, and concurrent
        // workspace checkout must not corrupt outputs.
        let (net, image) = net_and_image();
        let backend = fresh::<W>(5).with_pattern("conv1", ReusePattern::conventional(15, 2));
        let reference = net.forward(&image, &backend).unwrap();
        backend.reset_stats();
        crossbeam::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..3 {
                        let y = net.forward(&image, &backend).unwrap();
                        assert_eq!(y, reference);
                    }
                });
            }
        })
        .unwrap();
        let stats = backend.layer_stats("conv1").unwrap();
        assert_eq!(stats.calls, 12);
        let single = {
            backend.reset_stats();
            let _ = net.forward(&image, &backend).unwrap();
            backend.layer_stats("conv1").unwrap()
        };
        assert_eq!(stats.n_vectors, 12 * single.n_vectors);
        assert_eq!(stats.ops.gemm_macs, 12 * single.ops.gemm_macs);
    }

    /// Synthetic conv1-shaped GEMM operands (N=1024, K=75, M=64) with
    /// low redundancy, for exercising the guard without a full network.
    fn synthetic_gemm() -> (ConvSpec, Tensor<f32>, Tensor<f32>) {
        let spec = greuse_nn::models::CifarNet::conv1_spec();
        let x = Tensor::from_fn(&[1024, 75], |i| ((i % 193) as f32 * 0.17).sin());
        let w = Tensor::from_fn(&[64, 75], |i| ((i % 41) as f32 * 0.23).cos());
        (spec, x, w)
    }

    fn low_rt_fallback<W: Flavor>() {
        // H = 64 = D_out puts the break-even at r_t = 1.0, which no input
        // can clear: the guard must recompute densely on every call,
        // bit-identical to the unpatterned layer (DenseBackend for f32,
        // the dense-quantized GEMM for int8).
        let (spec, x, w) = synthetic_gemm();
        let guarded = || {
            fresh::<W>(7)
                .with_pattern("conv1", ReusePattern::conventional(25, 64))
                .with_guard(GuardConfig::strict())
        };
        let plain = fresh::<W>(7);
        let b = guarded();
        let y = b.conv_gemm("conv1", &spec, &x, &w).unwrap();
        let dense = plain.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(y, dense); // bit-identical, not just close
        assert_eq!(b.layer_stats("conv1").unwrap().fallbacks, 1);
        assert_eq!(
            b.layer_fallback_reason("conv1"),
            Some(FallbackReason::LowRedundancy)
        );
        // The same through a whole network forward (fresh backends: an
        // int8 workspace keeps the codes of the weights it saw first for
        // each layer name and shape).
        let (net, image) = net_and_image();
        let b = guarded();
        let a = net.forward(&image, &b).unwrap();
        assert_eq!(a, net.forward(&image, &fresh::<W>(7)).unwrap());
        let s = b.layer_stats("conv1").unwrap();
        assert!(s.fallbacks >= 1, "fallbacks = {}", s.fallbacks);
        // Without the guard the same pattern must NOT fall back.
        let unguarded = fresh::<W>(7).with_pattern("conv1", ReusePattern::conventional(25, 64));
        let _ = unguarded.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(unguarded.layer_stats("conv1").unwrap().fallbacks, 0);
        assert_eq!(unguarded.layer_fallback_reason("conv1"), None);
    }

    fn accuracy_bound_fallback<W: Flavor>() {
        let (spec, x, w) = synthetic_gemm();
        let backend = fresh::<W>(8)
            .with_pattern("conv1", ReusePattern::conventional(25, 8))
            .with_guard(GuardConfig::strict().with_max_error_bound(0.0));
        let y = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
        let dense = fresh::<W>(8).conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(y, dense);
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 0, "bound breach must skip the reuse executor");
        assert_eq!(s.fallbacks, 1);
        assert_eq!(
            backend.layer_fallback_reason("conv1"),
            Some(FallbackReason::AccuracyBound)
        );
    }

    fn non_finite_policies<W: Flavor>() {
        let (spec, mut x, w) = synthetic_gemm();
        x.as_mut_slice()[10] = f32::NAN;
        x.as_mut_slice()[500] = f32::INFINITY;
        let strict = fresh::<W>(9)
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::strict());
        let err = strict.conv_gemm("conv1", &spec, &x, &w).unwrap_err();
        assert!(matches!(err, TensorError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
        let sane = fresh::<W>(9)
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::sanitize());
        let y = sane.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    fn mismatched_operands<W: Flavor>() {
        let (spec, x, _) = synthetic_gemm();
        let w_bad = Tensor::from_fn(&[64, 74], |i| i as f32);
        let backend = fresh::<W>(10)
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::strict());
        let err = backend.conv_gemm("conv1", &spec, &x, &w_bad).unwrap_err();
        assert!(matches!(err, TensorError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("inner dimensions"), "{err}");
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn flat_matrix(n: usize, k: usize) -> Tensor<f32> {
        // All rows identical: probe should be ~1.
        Tensor::from_fn(&[n, k], |i| ((i % k) as f32 * 0.3).sin())
    }

    fn noisy_matrix(n: usize, k: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[n, k], |_| rng.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn probe_separates_redundant_from_random() {
        let high = redundancy_probe(&flat_matrix(32, 16));
        let low = redundancy_probe(&noisy_matrix(32, 16, 1));
        assert!(
            high > 0.95,
            "identical rows should probe near 1, got {high}"
        );
        assert!(
            low < high,
            "random rows {low} must probe below identical {high}"
        );
    }

    #[test]
    fn probe_is_scale_free() {
        let base = flat_matrix(16, 8);
        let mut scaled = base.clone();
        scaled.scale(7.0);
        let a = redundancy_probe(&base);
        let b = redundancy_probe(&scaled);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn probe_empty_is_zero() {
        assert_eq!(redundancy_probe(&Tensor::zeros(&[0, 4])), 0.0);
    }
}
