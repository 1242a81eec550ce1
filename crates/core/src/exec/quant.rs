//! The int8 panel executor: vertical reuse over quantized activations.
//!
//! Per call the activations are quantized to asymmetric `u8` (per-tensor
//! scale + zero point, range observed from the data) and the weights to
//! symmetric `i8` (cached per workspace key). The panel walk is the f32
//! executor's own driver ([`super::vertical`]) run over `u8` neuron
//! blocks; its `u8` hooks dequantize blocks for hashing and refinement
//! (so clustering sees exactly the values the f32 pipeline would see
//! after quantization noise), fold centroids as the integer rounded mean
//! of the member codes, and run the centroid GEMM as the packed u8×i8
//! kernel with `i32` accumulators ([`greuse_tensor::gemm_q8_into_with`]).
//! A reuse entry stores its weight codes panel-major, so each panel's
//! `M x lw` slice is contiguous for that kernel.
//!
//! The activation zero point is folded out once, after all panels: every
//! output row receives exactly one contribution per panel (centroid or
//! tail), so the full-`K` weight row sums absorb the correction (see
//! `qgemm`'s module docs). Outputs are requantized to `i8` with a
//! fixed-point [`Requant`] whose output scale is chosen from the
//! accumulator range, then dequantized to `f32` for the caller.
//!
//! Telemetry spans: `quant.pack` (operand quantization + packing inside
//! the kernel), `quant.kernel` (microkernel sweeps), `quant.requant`
//! (scale scan, requantization, and the final dequantize), plus the
//! structural `exec.gather` / `exec.cluster` / `exec.fold` /
//! `exec.recover` spans shared with the f32 executor.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::{
    apply_zero_point, gemm_q8_into_with, quantize_linear_into, quantize_u8_into,
    requantize_i8_into, weight_row_sums_into, ActQuantParams, LinearQuantParams, Requant, Tensor,
};

use crate::exec::cache::ReuseCache;
use crate::exec::vertical::vertical_into;
use crate::exec::workspace::{grow, select_entry, PanelBuffers, PanelIter};
use crate::exec::ReuseStats;
use crate::hash_provider::HashProvider;
use crate::pattern::{ReuseDirection, ReusePattern};
use crate::Result;

/// What a quantized layer entry was built for.
#[derive(Debug, Clone, PartialEq)]
struct QKey {
    layer: String,
    n: usize,
    k: usize,
    m: usize,
    pattern: Option<ReusePattern>,
    /// [`weights_fingerprint`] of the weights the codes were made from.
    weights: u64,
}

impl QKey {
    fn is(
        &self,
        layer: &str,
        n: usize,
        k: usize,
        m: usize,
        pattern: Option<&ReusePattern>,
        weights: u64,
    ) -> bool {
        self.layer == layer
            && self.n == n
            && self.k == k
            && self.m == m
            && self.pattern.as_ref() == pattern
            && self.weights == weights
    }

    /// Whether this entry occupies the slot a call of `layer` under
    /// `pattern` would use: one slot per layer name *and* mode (reuse or
    /// dense-quantized), so a guard's dense re-run of a patterned layer
    /// does not evict the layer's reuse state.
    fn same_slot(&self, layer: &str, pattern: Option<&ReusePattern>) -> bool {
        self.layer == layer && self.pattern.is_some() == pattern.is_some()
    }
}

/// Content fingerprint of a weight tensor: its length mixed with the bit
/// patterns of up to 64 evenly strided elements. It keys an entry's
/// weight codes on the weights themselves, so a second tensor of the same
/// shape under a known layer name rebuilds the entry instead of computing
/// with the first tensor's codes. The address is deliberately not used:
/// a caller may pass a fresh copy of the same weights on every call.
fn weights_fingerprint(w: &[f32]) -> u64 {
    const SAMPLES: usize = 64;
    let stride = (w.len() / SAMPLES).max(1);
    w.iter()
        .step_by(stride)
        .take(SAMPLES)
        .fold(w.len() as u64, |h, v| {
            (h.rotate_left(23) ^ u64::from(v.to_bits())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
}

/// Layer-resident int8 state, built once per key: the quantized weights
/// and their row sums, the per-panel hash families, the temporal cache
/// with the activation params its entries were built under, and the
/// latency-histogram handles.
#[derive(Debug)]
struct QLayer {
    key: QKey,
    /// Quantized weights (`M x K` codes, symmetric): row-major for the
    /// dense-quantized GEMM, panel-major for a vertical pattern (each
    /// panel's `M x lw` codes contiguous, rows at stride `lw`).
    w_q: Vec<i8>,
    w_scale: f32,
    /// Per-output-channel weight code sums over full `K`.
    w_sums: Vec<i32>,
    families: Vec<HashFamily>,
    /// Temporal (cross-call) reuse cache over quantized unit codes; the
    /// cached accumulators are the pre-zero-point panel GEMM outputs.
    cache: Option<ReuseCache<u8, i32>>,
    /// Activation params the cache entries were built under. The
    /// clustering operates on *dequantized* values, so a params change
    /// makes cached groupings describe different real data even when the
    /// codes match — the whole cache is cleared.
    cache_params: Option<ActQuantParams>,
    /// Per-call latency histograms for this layer, `[warm, fused, build]`.
    lat: [&'static greuse_telemetry::metrics::Hist; 3],
}

impl QLayer {
    fn new(
        layer: &str,
        w: &Tensor<f32>,
        weights: u64,
        n: usize,
        pattern: Option<&ReusePattern>,
        temporal_cache: bool,
    ) -> Result<Self> {
        let (m, k) = (w.rows(), w.cols());
        // Symmetric per-tensor weight quantization, once per key.
        let (w_q, w_scale, w_sums) = {
            let _pack = greuse_telemetry::span!("quant.pack");
            let absmax = w.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let params = LinearQuantParams::symmetric(absmax.max(f32::MIN_POSITIVE))?;
            let mut w_q = vec![0i8; m * k];
            let mut w_sums = vec![0i32; m];
            quantize_linear_into(w.as_slice(), &params, &mut w_q);
            weight_row_sums_into(&w_q, m, k, &mut w_sums);
            let w_q = match pattern.filter(|p| p.direction == ReuseDirection::Vertical) {
                Some(p) => panel_major(&w_q, m, k, p.l.min(k)),
                None => w_q,
            };
            (w_q, params.scale, w_sums)
        };
        let cache = temporal_cache.then(|| ReuseCache::for_pattern(pattern, n, k, m));
        Ok(QLayer {
            key: QKey {
                layer: layer.to_string(),
                n,
                k,
                m,
                pattern: pattern.copied(),
                weights,
            },
            w_q,
            w_scale,
            w_sums,
            families: Vec::new(),
            cache,
            cache_params: None,
            lat: crate::exec::workspace::layer_latency_hists(layer, "int8"),
        })
    }
}

/// Re-lays row-major `m x k` weight codes panel-major for panels of width
/// `l`: panel `[c0, c1)` becomes the contiguous `m x (c1 - c0)` block at
/// offset `m * c0`.
fn panel_major(w_q: &[i8], m: usize, k: usize, l: usize) -> Vec<i8> {
    let mut out = Vec::with_capacity(m * k);
    for panel in PanelIter::new(k, l) {
        for r in 0..m {
            out.extend_from_slice(&w_q[r * k + panel.start..r * k + panel.end]);
        }
    }
    out
}

/// Reusable int8-executor state, split like [`super::ExecWorkspace`]:
/// **layer-resident** entries (one per layer name: quantized weights, row
/// sums, hash families, temporal cache) and one **transient scratch
/// arena** shared by every layer (quantized activations, the `i32`
/// accumulator, panel buffers, clustering scratch, fused-sweep source).
///
/// Create once (or check out from a pool), then call
/// [`QuantWorkspace::execute_into`] repeatedly, for one layer or for a
/// whole network. A known layer only selects its entry; the entry is
/// rebuilt in place when that layer's key changes. A layer keeps
/// separate reuse and dense-quantized entries, so the guard's dense
/// re-run of a patterned call leaves the reuse entry (and its cached
/// families) in place. The scratch only
/// grows, so the workspace reaches a zero-allocation steady state once
/// every layer has run (with a data-independent hash provider).
///
/// Weight quantization is cached on the key, which includes a sampled
/// fingerprint of the weights: other weights under a known layer name
/// and shape rebuild the entry. The fingerprint reads 64 strided
/// elements, so two tensors that differ only between the samples still
/// share an entry; a layer's weights are assumed stable across calls.
#[derive(Debug, Default)]
pub struct QuantWorkspace {
    /// Layer-resident state, at most one entry per layer name and mode.
    layers: Vec<QLayer>,
    /// The entry the last `prepare()` selected.
    active: usize,
    /// Quantized activations (`N x K` codes).
    x_q: Vec<u8>,
    /// Raw-product accumulator (`N x M`).
    acc: Vec<i32>,
    /// Requantized output codes (`N x M`).
    out_q: Vec<i8>,
    /// Panel-walk scratch over `u8` codes (the dense path uses only its
    /// GEMM pack buffers).
    buf: PanelBuffers<u8>,
    scratch: ClusterScratch,
    fused: FusedPanelSource,
    temporal_cache: bool,
}

impl QuantWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        QuantWorkspace::default()
    }

    /// Enables or disables the temporal (cross-call) reuse cache. Off by
    /// default; see [`super::ExecWorkspace::set_temporal_cache`] — hits
    /// are validated by exact code comparison, so results never change.
    pub fn set_temporal_cache(&mut self, enabled: bool) {
        if enabled == self.temporal_cache {
            return;
        }
        self.temporal_cache = enabled;
        self.layers.clear();
    }

    /// Whether the temporal reuse cache is enabled.
    pub fn temporal_cache_enabled(&self) -> bool {
        self.temporal_cache
    }

    /// Prepares the workspace for one layer's quantized GEMM and selects
    /// that layer's entry: on first sight of the layer (or when its key
    /// changed) quantizes the weights and resolves the histogram handles;
    /// in every case grows the shared scratch to fit, so a later
    /// [`QuantWorkspace::execute_into`] on the same key allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GreuseError::InvalidPattern`] when the pattern
    /// cannot apply to the dimensions or requests a layout reorder (the
    /// quantized path clusters in the default layout), and
    /// [`greuse_tensor::TensorError::InvalidQuantization`] for weights
    /// with no representable range.
    pub fn prepare(
        &mut self,
        layer: &str,
        w: &Tensor<f32>,
        n: usize,
        pattern: Option<&ReusePattern>,
    ) -> Result<()> {
        let (m, k) = (w.rows(), w.cols());
        if let Some(p) = pattern {
            p.validate(n, k)?;
            if p.order.needs_layout_pass() || p.row_order.needs_layout_pass() {
                return Err(crate::GreuseError::InvalidPattern {
                    detail: format!(
                        "quantized path supports only default-layout patterns, got {p:?}"
                    ),
                });
            }
        }
        grow(&mut self.x_q, n * k);
        grow(&mut self.acc, n * m);
        grow(&mut self.out_q, n * m);
        if let Some(p) = pattern.filter(|p| p.direction == ReuseDirection::Vertical) {
            self.buf.reserve_vertical(&mut self.fused, n, k, m, p);
        }

        let temporal_cache = self.temporal_cache;
        let weights = weights_fingerprint(w.as_slice());
        self.active = select_entry(
            &mut self.layers,
            self.active,
            |s| s.key.is(layer, n, k, m, pattern, weights),
            |s| s.key.same_slot(layer, pattern),
            || QLayer::new(layer, w, weights, n, pattern, temporal_cache),
        )?;
        Ok(())
    }

    /// Executes `Y ≈ X × Wᵀ` through the int8 pipeline into the
    /// caller-provided `y` buffer (`N x M` row-major, `f32`), returning
    /// the run's statistics.
    ///
    /// With `pattern: None` the layer runs dense-quantized (one packed
    /// u8×i8 GEMM). A vertical pattern runs the reuse path; horizontal
    /// patterns fall back to dense-quantized (the int8 executor
    /// implements the paper's M-1 direction).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GreuseError::InvalidPattern`] for incompatible
    /// shapes or patterns, and propagates tensor/quantization errors.
    pub fn execute_into(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        pattern: Option<&ReusePattern>,
        hashes: &dyn HashProvider,
        layer: &str,
        y: &mut [f32],
    ) -> Result<ReuseStats> {
        let (n, k, m) = crate::exec::seam::gemm_dims(x, w, y)?;
        self.prepare(layer, w, n, pattern)?;

        // Ends into the layer's latency histogram, resolved in `prepare`,
        // so the steady state stays alloc-free.
        let layer_span = greuse_telemetry::span!("exec.layer", timed: true);
        let QuantWorkspace {
            layers,
            active,
            x_q,
            acc,
            out_q,
            buf,
            scratch,
            fused,
            ..
        } = self;
        let state = &mut layers[*active];
        let built = state.families.is_empty();

        // Per-call activation quantization (dynamic range).
        let x_q = &mut x_q[..n * k];
        let params = {
            let _pack = greuse_telemetry::span!("quant.pack");
            let params = ActQuantParams::from_data(x.as_slice())?;
            quantize_u8_into(x.as_slice(), &params, x_q);
            params
        };

        // Cached clusterings were computed on values dequantized under
        // the params of their frame; new params mean the same codes map
        // to different reals, so every entry is stale.
        if let Some(cache) = state.cache.as_mut() {
            let same = state.cache_params.is_some_and(|p| {
                p.scale.to_bits() == params.scale.to_bits() && p.zero_point == params.zero_point
            });
            if !same {
                cache.clear();
                state.cache_params = Some(params);
            }
        }

        let mut stats = ReuseStats::default();
        let acc = &mut acc[..n * m];
        match pattern.filter(|p| p.direction == ReuseDirection::Vertical) {
            Some(p) => {
                // Accumulates raw panel products; the zero point is folded
                // out once, below.
                acc.fill(0);
                vertical_into(
                    x_q,
                    &state.w_q,
                    n,
                    k,
                    m,
                    p,
                    hashes,
                    layer,
                    &params,
                    buf,
                    scratch,
                    &mut state.families,
                    fused,
                    state.cache.as_mut(),
                    acc,
                    &mut stats,
                )?;
            }
            None => {
                gemm_q8_into_with(x_q, &state.w_q, acc, n, k, m, &mut buf.gemm);
                stats.ops.gemm_macs += (n * k * m) as u64;
            }
        }

        apply_zero_point(acc, n, m, params.zero_point, &state.w_sums);

        // Requantize: output scale covers the accumulator range.
        #[cfg(feature = "fault-inject")]
        crate::faults::panic_point(crate::faults::FaultPoint::QuantRequant, "quant.requant");
        let max_abs = {
            let _rq = greuse_telemetry::span!("quant.requant");
            acc.iter().fold(0i32, |a, &v| a.max(v.abs()))
        };
        let real = f64::from(params.scale) * f64::from(state.w_scale);
        if max_abs == 0 {
            y.fill(0.0);
        } else if max_abs <= 127 {
            // Codes already fit i8: identity requantization, output scale
            // is the product scale itself.
            let _rq = greuse_telemetry::span!("quant.requant");
            for (dst, &a) in y.iter_mut().zip(acc.iter()) {
                *dst = (real * f64::from(a)) as f32;
            }
        } else {
            let rq = Requant::new((127.0 / max_abs as f64) as f32)?;
            let out_q = &mut out_q[..n * m];
            requantize_i8_into(acc, &rq, out_q);
            let out_scale = real / rq.effective_multiplier();
            let _rq = greuse_telemetry::span!("quant.requant");
            for (dst, &q) in y.iter_mut().zip(out_q.iter()) {
                *dst = (out_scale * f64::from(q)) as f32;
            }
        }

        // Transformation phase: one im2col-equivalent pass plus the
        // quantization pass over the activations.
        stats.ops.transform_elems = 2 * (n * k) as u64;
        layer_span.finish(state.lat[crate::exec::workspace::latency_mode_index(&stats, built)]);
        Ok(stats.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
    use crate::pattern::ReusePattern;
    use greuse_tensor::gemm_bt_f32;

    fn operands(n: usize, k: usize, m: usize) -> (Tensor<f32>, Tensor<f32>) {
        let x = Tensor::from_fn(&[n, k], |i| ((i % 101) as f32 * 0.13).sin());
        let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
        (x, w)
    }

    /// Worst-case |error| of the dense int8 path against exact f32:
    /// activation rounding (s_a/2 per element) through the weights, weight
    /// rounding (s_w/2) through the activations, plus the output step.
    fn dense_tolerance(x: &Tensor<f32>, w: &Tensor<f32>, y: &[f32]) -> f32 {
        let k = x.cols() as f32;
        let ax = x.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let aw = w.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let ay = y.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let s_a = 2.0 * ax / 255.0;
        let s_w = aw / 127.0;
        k * (s_a / 2.0 * aw + s_w / 2.0 * ax) + ay / 127.0
    }

    #[test]
    fn dense_quantized_close_to_f32() {
        let (n, k, m) = (48, 32, 8);
        let (x, w) = operands(n, k, m);
        let exact = gemm_bt_f32(&x, &w).unwrap();
        let hashes = RandomHashProvider::new(1);
        let mut ws = QuantWorkspace::new();
        let mut y = vec![0.0f32; n * m];
        let stats = ws
            .execute_into(&x, &w, None, &hashes, "conv1", &mut y)
            .unwrap();
        assert_eq!(stats.ops.gemm_macs, (n * k * m) as u64);
        let tol = dense_tolerance(&x, &w, exact.as_slice());
        for (a, b) in y.iter().zip(exact.as_slice()) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn reuse_quantized_exact_on_duplicated_rows_up_to_quantization() {
        // Duplicated rows quantize to identical codes, cluster together,
        // and fold exactly — the reuse machinery adds no error on top of
        // quantization, so the int8 reuse path must stay within the
        // dense-quantization tolerance of the exact f32 product.
        let (n, k, m, distinct) = (64, 48, 8, 8);
        let base = Tensor::from_fn(&[distinct, k], |i| ((i % 101) as f32 * 0.13).sin());
        let x = Tensor::from_fn(&[n, k], |i| {
            let (r, c) = (i / k, i % k);
            base.as_slice()[(r % distinct) * k + c]
        });
        let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
        let exact = gemm_bt_f32(&x, &w).unwrap();
        let pattern = ReusePattern::conventional(16, 8);
        let hashes = RandomHashProvider::new(7);
        let mut ws = QuantWorkspace::new();
        let mut y = vec![0.0f32; n * m];
        let stats = ws
            .execute_into(&x, &w, Some(&pattern), &hashes, "conv1", &mut y)
            .unwrap();
        assert!(stats.n_vectors > 0);
        assert!(
            stats.redundancy_ratio > 0.5,
            "r_t {}",
            stats.redundancy_ratio
        );
        let tol = dense_tolerance(&x, &w, exact.as_slice());
        for (a, b) in y.iter().zip(exact.as_slice()) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn repeated_calls_are_deterministic() {
        let (n, k, m) = (32, 24, 6);
        let (x, w) = operands(n, k, m);
        let pattern = ReusePattern::conventional(12, 4).with_block_rows(2);
        let hashes = RandomHashProvider::new(3);
        let mut ws = QuantWorkspace::new();
        let mut y1 = vec![0.0f32; n * m];
        let mut y2 = vec![0.0f32; n * m];
        let s1 = ws
            .execute_into(&x, &w, Some(&pattern), &hashes, "c", &mut y1)
            .unwrap();
        let s2 = ws
            .execute_into(&x, &w, Some(&pattern), &hashes, "c", &mut y2)
            .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn rejects_layout_reorders_and_bad_shapes() {
        use crate::pattern::ReuseOrder;
        let (x, w) = operands(16, 12, 4);
        let hashes = RandomHashProvider::new(5);
        let mut ws = QuantWorkspace::new();
        let mut y = vec![0.0f32; 16 * 4];
        let p = ReusePattern::conventional(6, 4).with_order(ReuseOrder::ChannelFirst);
        assert!(ws
            .execute_into(&x, &w, Some(&p), &hashes, "c", &mut y)
            .is_err());
        let mut short = vec![0.0f32; 7];
        assert!(ws
            .execute_into(&x, &w, None, &hashes, "c", &mut short)
            .is_err());
    }

    #[test]
    fn layers_share_scratch_and_keep_resident_state() {
        let (xa, wa) = operands(64, 48, 8);
        let (xb, wb) = operands(30, 20, 6);
        let pa = ReusePattern::conventional(16, 4);
        let hashes = RandomHashProvider::new(4);
        let mut ws = QuantWorkspace::new();
        let mut ya = vec![0.0f32; 64 * 8];
        let mut yb = vec![0.0f32; 30 * 6];
        for _ in 0..3 {
            let sa = ws
                .execute_into(&xa, &wa, Some(&pa), &hashes, "a", &mut ya)
                .unwrap();
            // The guard's dense re-run of a patterned layer takes its own
            // slot, leaving the reuse entry's families in place.
            ws.execute_into(&xa, &wa, None, &hashes, "a", &mut ya)
                .unwrap();
            ws.execute_into(&xb, &wb, None, &hashes, "b", &mut yb)
                .unwrap();
            let mut fresh_y = vec![0.0f32; ya.len()];
            let fresh = QuantWorkspace::new()
                .execute_into(&xa, &wa, Some(&pa), &hashes, "a", &mut fresh_y)
                .unwrap();
            assert_eq!(sa, fresh);
            let mut y = vec![0.0f32; ya.len()];
            ws.execute_into(&xa, &wa, Some(&pa), &hashes, "a", &mut y)
                .unwrap();
            assert_eq!(y, fresh_y);
        }
        assert_eq!(ws.layers.len(), 3);
        let reuse = ws.layers.iter().find(|s| s.key.pattern.is_some()).unwrap();
        assert!(!reuse.families.is_empty());
    }

    #[test]
    fn horizontal_pattern_falls_back_to_dense() {
        use crate::pattern::ReuseDirection;
        let (n, k, m) = (24, 16, 4);
        let (x, w) = operands(n, k, m);
        let hashes = RandomHashProvider::new(2);
        let mut ws = QuantWorkspace::new();
        let mut y = vec![0.0f32; n * m];
        let p = ReusePattern::conventional(8, 4).with_direction(ReuseDirection::Horizontal);
        let stats = ws
            .execute_into(&x, &w, Some(&p), &hashes, "c", &mut y)
            .unwrap();
        assert_eq!(stats.n_vectors, 0);
        assert_eq!(stats.ops.gemm_macs, (n * k * m) as u64);
    }
}
