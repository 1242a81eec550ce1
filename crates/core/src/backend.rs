//! [`ReuseBackend`]: plugs per-layer reuse patterns into any `greuse-nn`
//! network by implementing its [`ConvBackend`] seam. Layers without an
//! assigned pattern run dense, so partial deployments (e.g. "reuse only
//! on conv2") are expressed naturally.
//!
//! The backend is built for concurrent inference: statistics live in
//! per-layer **atomic accumulators** (one fixed slot per patterned layer,
//! created at build time — no lock, no map mutation on the hot path).
//! Executor state comes from a pool of [`ExecWorkspace`]s, which serves
//! two purposes. Parallel callers each check out their own workspace, so
//! they never contend on one scratch arena. And each workspace keeps one
//! resident entry per patterned layer (permutations, hash families,
//! histogram handles) next to one shared scratch arena, so a
//! single-threaded network forward — which checks the same workspace out
//! for every layer in turn — selects each layer's prepared state instead
//! of rebuilding it, and runs the fused pipeline from the second image on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use greuse_mcu::PhaseOps;
use greuse_nn::{ConvBackend, DenseBackend};
use greuse_telemetry::Counter;
use greuse_tensor::{gemm_bt_f32_into_with, ConvSpec, Tensor, TensorError};

use crate::exec::{ExecWorkspace, ReuseStats};
use crate::guard::{
    apply_non_finite_policy, should_fall_back, validate_gemm_operands, FallbackReason, GuardConfig,
};
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;

/// Counts every guarded dense fallback across all backends (f32 and
/// int8) on the `exec.fallback` telemetry counter.
static FALLBACKS: Counter = Counter::new("exec.fallback");

/// Records one dense fallback on the shared telemetry counter.
pub(crate) fn count_fallback() {
    FALLBACKS.add(1);
}

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
pub(crate) struct AtomicLayerStats {
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
    pub(crate) probe_bits: AtomicU64,
}

impl AtomicLayerStats {
    pub(crate) fn record(&self, s: &ReuseStats, wall_ns: u64) {
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

    pub(crate) fn record_fallback(&self, reason: FallbackReason) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.fallback_reason.store(reason as u32, Ordering::Relaxed);
        // Reason-labeled series next to the aggregate `exec.fallback`
        // counter, so dashboards can tell break-even demotions from
        // accuracy-bound ones. Shared by the f32 and int8 backends.
        match reason {
            FallbackReason::LowRedundancy => {
                greuse_telemetry::counter!(r#"guard.fallback{reason="low_rt"}"#).add(1);
            }
            FallbackReason::AccuracyBound => {
                greuse_telemetry::counter!(r#"guard.fallback{reason="accuracy_bound"}"#).add(1);
            }
        }
    }

    pub(crate) fn fallback_reason(&self) -> Option<FallbackReason> {
        FallbackReason::from_code(self.fallback_reason.load(Ordering::Relaxed))
    }

    pub(crate) fn snapshot(&self) -> LayerStats {
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

    pub(crate) fn reset(&self) {
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

/// A convolution backend that applies reuse patterns per layer.
pub struct ReuseBackend<P: HashProvider> {
    patterns: HashMap<String, ReusePattern>,
    hashes: P,
    stats: HashMap<String, AtomicLayerStats>,
    /// Telemetry tag per patterned layer (1-based, assignment order).
    /// Spans recorded while a layer executes carry its tag, letting
    /// exporters attribute phase time to layers.
    tags: HashMap<String, u32>,
    workspaces: Mutex<Vec<ExecWorkspace>>,
    guard: GuardConfig,
}

impl<P: HashProvider> ReuseBackend<P> {
    /// Creates a backend with no patterns assigned (all layers dense)
    /// and the guard disabled.
    pub fn new(hashes: P) -> Self {
        ReuseBackend {
            patterns: HashMap::new(),
            hashes,
            stats: HashMap::new(),
            tags: HashMap::new(),
            workspaces: Mutex::new(Vec::new()),
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
        self.stats.get(layer)?.fallback_reason()
    }

    /// Assigns a pattern to a layer (builder style).
    pub fn with_pattern(mut self, layer: impl Into<String>, pattern: ReusePattern) -> Self {
        let layer = layer.into();
        self.stats.entry(layer.clone()).or_default();
        let next_tag = self.tags.len() as u32 + 1;
        self.tags.entry(layer.clone()).or_insert(next_tag);
        self.patterns.insert(layer, pattern);
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
        self.patterns.get(layer)
    }

    /// Per-layer statistics accumulated so far (executed reuse layers
    /// only — a patterned layer that has not run yet is absent; a layer
    /// that only ever fell back to dense is present with `calls == 0`).
    pub fn stats(&self) -> HashMap<String, LayerStats> {
        self.stats
            .iter()
            .map(|(layer, acc)| (layer.clone(), acc.snapshot()))
            .filter(|(_, s)| s.calls > 0 || s.fallbacks > 0)
            .collect()
    }

    /// Statistics of one layer (`None` until it has executed with reuse
    /// or fallen back at least once).
    pub fn layer_stats(&self, layer: &str) -> Option<LayerStats> {
        self.stats
            .get(layer)
            .map(AtomicLayerStats::snapshot)
            .filter(|s| s.calls > 0 || s.fallbacks > 0)
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&self) {
        for acc in self.stats.values() {
            acc.reset();
        }
    }

    /// The hash provider in use.
    pub fn hash_provider(&self) -> &P {
        &self.hashes
    }

    /// The telemetry tag attached to a patterned layer's spans.
    pub fn layer_tag(&self, layer: &str) -> Option<u32> {
        self.tags.get(layer).copied()
    }

    /// The layer's input redundancy probe ([`crate::redundancy_probe`])
    /// captured on its first reuse call — the *predicted* `r_t` that the
    /// drift report compares against the measured ratio. `None` until the
    /// layer has executed with reuse.
    pub fn layer_probe(&self, layer: &str) -> Option<f64> {
        let bits = self.stats.get(layer)?.probe_bits.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Runs the reuse executor for a patterned layer, writing into `y`.
    ///
    /// With an active [`GuardConfig`] the operands are validated first
    /// (typed errors instead of panics deep in the pipeline), and the
    /// call is recomputed through the exact dense path — bit-identical to
    /// [`DenseBackend`] — when the measured `r_t` does not clear the
    /// latency-model break-even or the §4.1 error bound exceeds the
    /// configured ceiling.
    fn run_reuse(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        pattern: &ReusePattern,
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

        let mut ws = self.workspaces.lock().pop().unwrap_or_default();
        let result = self.run_in(&mut ws, layer, spec, x, weights, pattern, y);
        self.workspaces.lock().push(ws);
        result
    }

    /// The guarded reuse call on a checked-out workspace: the accuracy
    /// bound check, the executor run, and either dense fallback (whose
    /// GEMM borrows the workspace's pack buffers).
    #[allow(clippy::too_many_arguments)]
    fn run_in(
        &self,
        ws: &mut ExecWorkspace,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        pattern: &ReusePattern,
        y: &mut [f32],
    ) -> Result<(), TensorError> {
        if self.guard.fallback {
            if let Some(ceiling) = self.guard.max_error_bound {
                let est = crate::models::accuracy::accuracy_bound_with_spec(
                    x,
                    weights,
                    spec,
                    pattern,
                    &self.hashes,
                )
                .map_err(boundary_error)?;
                if est.error_bound > ceiling {
                    return self.dense_fallback(
                        ws,
                        layer,
                        x,
                        weights,
                        y,
                        FallbackReason::AccuracyBound,
                    );
                }
            }
        }

        let tag = self.tags.get(layer).copied().unwrap_or(0);
        let prev_tag = greuse_telemetry::set_tag(tag);
        let started = Instant::now();
        let result = ws.execute_into(x, weights, Some(spec), pattern, &self.hashes, layer, y);
        let wall_ns = started.elapsed().as_nanos() as u64;
        greuse_telemetry::set_tag(prev_tag);
        let stats = result.map_err(boundary_error)?;
        if let Some(acc) = self.stats.get(layer) {
            acc.record(&stats, wall_ns);
            if acc.probe_bits.load(Ordering::Relaxed) == 0 {
                let probe = crate::redundancy_probe(x);
                acc.probe_bits.store(probe.to_bits(), Ordering::Relaxed);
            }
        }
        let below_breakeven = if self.guard.fused_breakeven {
            crate::guard::should_fall_back_fused(pattern, weights.rows(), stats.redundancy_ratio)
        } else {
            should_fall_back(pattern, weights.rows(), stats.redundancy_ratio)
        };
        if self.guard.fallback && below_breakeven {
            return self.dense_fallback(ws, layer, x, weights, y, FallbackReason::LowRedundancy);
        }
        Ok(())
    }

    /// Recomputes the call through the exact dense GEMM (the same packed
    /// `X × Wᵀ` kernel that [`DenseBackend`] runs, bit for bit) straight
    /// into `y`, overwriting the reuse output, and records the fallback
    /// on the `exec.fallback` counter and the layer's accumulator. The
    /// pack buffers come from the layer's workspace, so a fallback
    /// allocates nothing.
    fn dense_fallback(
        &self,
        ws: &mut ExecWorkspace,
        layer: &str,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut [f32],
        reason: FallbackReason,
    ) -> Result<(), TensorError> {
        let (n, k, m) = (x.rows(), x.cols(), weights.rows());
        gemm_bt_f32_into_with(
            x.as_slice(),
            weights.as_slice(),
            y,
            n,
            k,
            m,
            ws.gemm_scratch(),
        )?;
        count_fallback();
        if let Some(acc) = self.stats.get(layer) {
            acc.record_fallback(reason);
        }
        Ok(())
    }
}

impl<P: HashProvider> ConvBackend for ReuseBackend<P> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        match self.patterns.get(layer) {
            None => DenseBackend.conv_gemm(layer, spec, x, weights),
            Some(pattern) => {
                let mut y = Tensor::zeros(&[x.rows(), weights.rows()]);
                self.run_reuse(layer, spec, x, weights, pattern, y.as_mut_slice())?;
                Ok(y)
            }
        }
    }

    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        match self.patterns.get(layer) {
            None => DenseBackend.conv_gemm_into(layer, spec, x, weights, y),
            Some(pattern) => {
                let (n, m) = (x.rows(), weights.rows());
                if y.shape().dims() != [n, m] {
                    return Err(TensorError::ShapeMismatch {
                        op: "conv_gemm_into",
                        expected: vec![n, m],
                        actual: y.shape().dims().to_vec(),
                    });
                }
                self.run_reuse(layer, spec, x, weights, pattern, y.as_mut_slice())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use greuse_nn::{models::CifarNet, Network};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net_and_image() -> (CifarNet, Tensor<f32>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = CifarNet::new(10, &mut rng);
        let image = Tensor::from_fn(&[3, 32, 32], |i| ((i / 97) as f32 * 0.3).sin());
        (net, image)
    }

    #[test]
    fn no_patterns_matches_dense_exactly() {
        let (net, image) = net_and_image();
        let backend = ReuseBackend::new(RandomHashProvider::new(1));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        assert_eq!(a, b);
        assert!(backend.stats().is_empty());
    }

    #[test]
    fn high_h_pattern_close_to_dense() {
        let (net, image) = net_and_image();
        let backend = ReuseBackend::new(RandomHashProvider::new(2))
            .with_pattern("conv1", ReusePattern::conventional(25, 48));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.05 * scale, "{x} vs {y}");
        }
        let stats = backend.layer_stats("conv1").unwrap();
        assert_eq!(stats.calls, 1);
        assert!(stats.n_vectors > 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (net, image) = net_and_image();
        let backend = ReuseBackend::new(RandomHashProvider::new(3))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
        let _ = net.forward(&image, &backend).unwrap();
        let _ = net.forward(&image, &backend).unwrap();
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 2);
        assert!(s.redundancy_ratio() > 0.0);
        let mean = s.mean_ops();
        assert_eq!(mean.transform_elems, s.ops.transform_elems / 2);
        backend.reset_stats();
        assert!(backend.stats().is_empty());
        assert!(backend.layer_stats("conv1").is_none());
    }

    #[test]
    fn with_patterns_bulk() {
        let backend = ReuseBackend::new(RandomHashProvider::new(4)).with_patterns([
            ("conv1", ReusePattern::conventional(15, 2)),
            ("conv2", ReusePattern::conventional(20, 3)),
        ]);
        assert!(backend.pattern("conv1").is_some());
        assert!(backend.pattern("conv2").is_some());
        assert!(backend.pattern("conv3").is_none());
    }

    #[test]
    fn concurrent_inference_sums_stats_exactly() {
        // Four threads × three images each through one shared backend:
        // the atomic accumulators must count every call, and concurrent
        // workspace checkout must not corrupt outputs.
        let (net, image) = net_and_image();
        let backend = ReuseBackend::new(RandomHashProvider::new(5))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
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

    #[test]
    fn guarded_low_rt_layer_falls_back_to_exact_dense() {
        let (spec, x, w) = synthetic_gemm();
        // H = 64 = D_out puts the break-even at r_t = 1.0, which no input
        // can clear: the guard must recompute densely on every call.
        let backend = ReuseBackend::new(RandomHashProvider::new(7))
            .with_pattern("conv1", ReusePattern::conventional(25, 64))
            .with_guard(GuardConfig::strict());
        let y = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
        let dense = DenseBackend.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(y, dense); // bit-identical, not just close
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.fallbacks, 1);
        assert_eq!(
            backend.layer_fallback_reason("conv1"),
            Some(FallbackReason::LowRedundancy)
        );
        // Without the guard the same pattern must NOT fall back.
        let unguarded = ReuseBackend::new(RandomHashProvider::new(7))
            .with_pattern("conv1", ReusePattern::conventional(25, 64));
        let _ = unguarded.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(unguarded.layer_stats("conv1").unwrap().fallbacks, 0);
        assert_eq!(unguarded.layer_fallback_reason("conv1"), None);
    }

    #[test]
    fn accuracy_bound_ceiling_forces_pre_exec_fallback() {
        let (spec, x, w) = synthetic_gemm();
        let backend = ReuseBackend::new(RandomHashProvider::new(8))
            .with_pattern("conv1", ReusePattern::conventional(25, 8))
            .with_guard(GuardConfig::strict().with_max_error_bound(0.0));
        let y = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
        let dense = DenseBackend.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert_eq!(y, dense);
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 0, "bound breach must skip the reuse executor");
        assert_eq!(s.fallbacks, 1);
        assert_eq!(
            backend.layer_fallback_reason("conv1"),
            Some(FallbackReason::AccuracyBound)
        );
    }

    #[test]
    fn strict_guard_rejects_and_sanitize_recovers_non_finite() {
        let (spec, mut x, w) = synthetic_gemm();
        x.as_mut_slice()[10] = f32::NAN;
        x.as_mut_slice()[500] = f32::INFINITY;
        let strict = ReuseBackend::new(RandomHashProvider::new(9))
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::strict());
        let err = strict.conv_gemm("conv1", &spec, &x, &w).unwrap_err();
        assert!(matches!(err, TensorError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
        let sane = ReuseBackend::new(RandomHashProvider::new(9))
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::sanitize());
        let y = sane.conv_gemm("conv1", &spec, &x, &w).unwrap();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn guard_rejects_mismatched_operands_with_typed_error() {
        let (spec, x, _) = synthetic_gemm();
        let w_bad = Tensor::from_fn(&[64, 74], |i| i as f32);
        let backend = ReuseBackend::new(RandomHashProvider::new(10))
            .with_pattern("conv1", ReusePattern::conventional(15, 2))
            .with_guard(GuardConfig::strict());
        let err = backend.conv_gemm("conv1", &spec, &x, &w_bad).unwrap_err();
        assert!(matches!(err, TensorError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("inner dimensions"), "{err}");
    }
}
