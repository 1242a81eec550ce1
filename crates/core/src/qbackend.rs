//! [`QuantizedBackend`]: the int8 sibling of [`crate::ReuseBackend`].
//!
//! Every convolution GEMM — patterned or not — runs through the
//! [`QuantWorkspace`] int8 pipeline: activations are quantized per call
//! (asymmetric `u8`), weights per layer (symmetric `i8`), and the
//! product accumulates in `i32` before requantizing back to `f32` for
//! the surrounding network. Layers with an assigned vertical pattern run
//! the quantized reuse walk (LSH over dequantized-on-the-fly neuron
//! blocks, integer centroid folding, packed u8×i8 centroid GEMM); layers
//! without one run one dense u8×i8 GEMM. Statistics use the same
//! lock-free per-layer accumulators and telemetry tags as the f32
//! backend.
//!
//! Workspaces come from a pool, as in the f32 backend: concurrent
//! callers never share a scratch arena, and each pooled
//! [`QuantWorkspace`] keeps one resident entry per layer — the layer's
//! `i8` weight codes and row sums, hash families, and histogram handles —
//! beside one scratch arena shared by all layers. A single-threaded
//! forward therefore quantizes each layer's weights once, not once per
//! call, and patterned layers run the fused pipeline from the second
//! image on.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::Mutex;

use greuse_nn::ConvBackend;
use greuse_tensor::{ConvSpec, Tensor, TensorError};

use crate::backend::{boundary_error, count_fallback, AtomicLayerStats, LayerStats};
use crate::exec::QuantWorkspace;
use crate::guard::{
    apply_non_finite_policy, should_fall_back, validate_gemm_operands, FallbackReason, GuardConfig,
};
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;

/// A convolution backend that runs every layer through the int8 pipeline
/// and applies quantized reuse patterns per layer.
pub struct QuantizedBackend<P: HashProvider> {
    patterns: HashMap<String, ReusePattern>,
    hashes: P,
    stats: HashMap<String, AtomicLayerStats>,
    /// Telemetry tag per patterned layer (1-based, assignment order) —
    /// same scheme as [`crate::ReuseBackend`].
    tags: HashMap<String, u32>,
    workspaces: Mutex<Vec<QuantWorkspace>>,
    guard: GuardConfig,
}

impl<P: HashProvider> QuantizedBackend<P> {
    /// Creates a backend with no patterns assigned: every convolution
    /// runs dense-quantized. The guard starts disabled.
    pub fn new(hashes: P) -> Self {
        QuantizedBackend {
            patterns: HashMap::new(),
            hashes,
            stats: HashMap::new(),
            tags: HashMap::new(),
            workspaces: Mutex::new(Vec::new()),
            guard: GuardConfig::off(),
        }
    }

    /// Sets the guard configuration (builder style): operand validation
    /// before quantization plus automatic dense-quantized fallback when
    /// a patterned layer's measured `r_t` misses the break-even.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// The active guard configuration.
    pub fn guard_config(&self) -> &GuardConfig {
        &self.guard
    }

    /// Why the layer last fell back to dense-quantized (`None` = never).
    pub fn layer_fallback_reason(&self, layer: &str) -> Option<FallbackReason> {
        self.stats.get(layer)?.fallback_reason()
    }

    /// Assigns a pattern to a layer (builder style). The quantized
    /// executor supports default-layout vertical patterns; horizontal
    /// patterns fall back to dense-quantized and patterns with layout
    /// reorders are rejected at execution time.
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

    /// Per-layer statistics accumulated so far (patterned layers that
    /// have executed at least once).
    pub fn stats(&self) -> HashMap<String, LayerStats> {
        self.stats
            .iter()
            .map(|(layer, acc)| (layer.clone(), acc.snapshot()))
            .filter(|(_, s)| s.calls > 0)
            .collect()
    }

    /// Statistics of one layer (`None` until it has executed with a
    /// pattern assigned).
    pub fn layer_stats(&self, layer: &str) -> Option<LayerStats> {
        self.stats
            .get(layer)
            .map(AtomicLayerStats::snapshot)
            .filter(|s| s.calls > 0)
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

    /// Runs the quantized executor, writing into `y`. `pattern` is
    /// `None` for dense-quantized layers.
    ///
    /// With an active [`GuardConfig`] the f32 operands are validated
    /// before quantization, and a patterned call whose measured `r_t`
    /// misses the break-even is re-run with no pattern — identical to an
    /// unpatterned layer's dense int8 path.
    fn run_quantized(
        &self,
        layer: &str,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        pattern: Option<&ReusePattern>,
        y: &mut [f32],
    ) -> Result<(), TensorError> {
        let mut sanitized = None;
        if self.guard.is_active() {
            validate_gemm_operands(layer, x, weights).map_err(boundary_error)?;
            sanitized = apply_non_finite_policy(layer, "activation", x, self.guard.policy)
                .map_err(boundary_error)?;
        }
        let x = sanitized.as_ref().unwrap_or(x);
        let mut ws = self.workspaces.lock().pop().unwrap_or_default();
        let tag = self.tags.get(layer).copied().unwrap_or(0);
        let prev_tag = greuse_telemetry::set_tag(tag);
        let started = Instant::now();
        let mut result = ws.execute_into(x, weights, pattern, &self.hashes, layer, y);
        let needs_fallback = match (&result, pattern) {
            (Ok(stats), Some(p)) => {
                let below = if self.guard.fused_breakeven {
                    crate::guard::should_fall_back_fused(p, weights.rows(), stats.redundancy_ratio)
                } else {
                    should_fall_back(p, weights.rows(), stats.redundancy_ratio)
                };
                self.guard.fallback && below
            }
            _ => false,
        };
        if needs_fallback {
            result = ws.execute_into(x, weights, None, &self.hashes, layer, y);
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        greuse_telemetry::set_tag(prev_tag);
        self.workspaces.lock().push(ws);
        let stats = result.map_err(|e| match e {
            crate::GreuseError::Tensor(t) => t,
            other => TensorError::InvalidQuantization {
                detail: format!("quantized backend: {other}"),
            },
        })?;
        if needs_fallback {
            count_fallback();
            if let Some(acc) = self.stats.get(layer) {
                acc.record_fallback(FallbackReason::LowRedundancy);
            }
        }
        if let Some(acc) = self.stats.get(layer) {
            acc.record(&stats, wall_ns);
            if acc.probe_bits.load(Ordering::Relaxed) == 0 {
                let probe = crate::redundancy_probe(x);
                acc.probe_bits.store(probe.to_bits(), Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

impl<P: HashProvider> ConvBackend for QuantizedBackend<P> {
    fn conv_gemm(
        &self,
        layer: &str,
        _spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        let mut y = Tensor::zeros(&[x.rows(), weights.rows()]);
        self.run_quantized(
            layer,
            x,
            weights,
            self.patterns.get(layer),
            y.as_mut_slice(),
        )?;
        Ok(y)
    }

    fn conv_gemm_into(
        &self,
        layer: &str,
        _spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let (n, m) = (x.rows(), weights.rows());
        if y.shape().dims() != [n, m] {
            return Err(TensorError::ShapeMismatch {
                op: "conv_gemm_into",
                expected: vec![n, m],
                actual: y.shape().dims().to_vec(),
            });
        }
        self.run_quantized(
            layer,
            x,
            weights,
            self.patterns.get(layer),
            y.as_mut_slice(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use greuse_nn::{models::CifarNet, DenseBackend, Network};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net_and_image() -> (CifarNet, Tensor<f32>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = CifarNet::new(10, &mut rng);
        let image = Tensor::from_fn(&[3, 32, 32], |i| ((i / 97) as f32 * 0.3).sin());
        (net, image)
    }

    #[test]
    fn quantized_dense_close_to_f32_dense() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(1));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        // int8 conv layers drift from f32, but logits must stay close on
        // the scale of the output.
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.15 * scale, "{x} vs {y}");
        }
        assert!(backend.stats().is_empty());
    }

    #[test]
    fn patterned_layer_records_stats_and_stays_close() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(2))
            .with_pattern("conv1", ReusePattern::conventional(25, 48));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.2 * scale, "{x} vs {y}");
        }
        let stats = backend.layer_stats("conv1").unwrap();
        assert_eq!(stats.calls, 1);
        assert!(stats.n_vectors > 0);
        assert_eq!(backend.layer_tag("conv1"), Some(1));
    }

    #[test]
    fn deterministic_across_calls_and_stats_reset() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(3))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &backend).unwrap();
        assert_eq!(a, b);
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 2);
        backend.reset_stats();
        assert!(backend.stats().is_empty());
    }

    #[test]
    fn concurrent_inference_is_stable() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(5))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
        let reference = net.forward(&image, &backend).unwrap();
        backend.reset_stats();
        crossbeam::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..2 {
                        let y = net.forward(&image, &backend).unwrap();
                        assert_eq!(y, reference);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(backend.layer_stats("conv1").unwrap().calls, 8);
    }

    #[test]
    fn guarded_quantized_layer_falls_back_to_dense_quantized() {
        let (net, image) = net_and_image();
        // H = 64 = D_out: break-even r_t = 1.0, unreachable, so every
        // guarded call must re-run the dense int8 path — identical to an
        // unpatterned quantized backend.
        let guarded = QuantizedBackend::new(RandomHashProvider::new(6))
            .with_pattern("conv1", ReusePattern::conventional(25, 64))
            .with_guard(GuardConfig::strict());
        let plain = QuantizedBackend::new(RandomHashProvider::new(6));
        let a = net.forward(&image, &guarded).unwrap();
        let b = net.forward(&image, &plain).unwrap();
        assert_eq!(a, b);
        let s = guarded.layer_stats("conv1").unwrap();
        assert!(s.fallbacks >= 1, "fallbacks = {}", s.fallbacks);
        assert_eq!(
            guarded.layer_fallback_reason("conv1"),
            Some(FallbackReason::LowRedundancy)
        );
    }
}
