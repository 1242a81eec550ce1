//! What one workload run produces, and the small statistics it needs.

use greuse::serve::ServeStats;
use greuse_mcu::PhaseOps;

use crate::mcycles;
use crate::phase::PhaseStats;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Items (images or requests) attempted in the timed phase.
    pub attempted: u64,
    /// Items that failed: an error, a non-finite output, an output that
    /// differs from the verified reference run, or a non-`Ok` response.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line: layer
    /// tables, host-noise diagnostics.
    pub notes: Vec<String>,
}

impl Report {
    /// A run that could not set its workload up: one failed attempt and
    /// no metrics.
    pub fn setup_failure(workload: &str, error: &str) -> Self {
        Report {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: vec![format!("{workload}: set-up failed: {error}")],
        }
    }

    /// Value of the metric named `name`, if present.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every attempted item succeeded and every metric is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end_metrics(
    setup_s: f64,
    plain: &PhaseStats,
    top1_agree: f64,
    mean_rel_err: f64,
    mcu_ms: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("cpu_ms_p50", plain.cpu_ms_p50, "ms"),
        metric("cpu_ms_p90", plain.cpu_ms_p90, "ms"),
        metric("images_per_cpu_s", plain.items_per_cpu_s(), "1/s"),
        metric("top1_agree", top1_agree, "share"),
        metric("out_snr_db", snr_db(mean_rel_err), "dB"),
        metric("mcu_f469_mcycles", mcycles(mcu_ms), "Mcycle"),
        metric("peak_heap_kb", plain.peak_heap_kb, "KiB"),
    ]
}

/// What a traced run measures per layer, filled in by each workload.
/// Whatever a workload lacks stays 0. Times are CPU milliseconds per
/// item at nominal host speed.
#[derive(Debug, Clone, Default)]
pub struct LayerValues {
    /// `(r_t, clusters per item)` of the first two patterned layers, in
    /// execution order.
    pub slots: [(f64, f64); 2],
    /// The paper's Table 3 phase counts per item, summed over the
    /// patterned layers.
    pub ops: PhaseOps,
    /// Calls the guard recomputed densely.
    pub fallbacks: u64,
    /// Reuse-executor time over the traced items' wall time.
    pub exec_wall_share: f64,
    /// Time inside the backend.
    pub backend_ms: f64,
    /// Backend CPU over the traced items' raw CPU.
    pub backend_share: f64,
    /// Time inside the costliest layer.
    pub top_ms: f64,
    /// Allocations per item.
    pub allocs: f64,
    /// Backend calls per item.
    pub conv_calls: f64,
    /// GEMM MACs per item on unpatterned layers, and their rate.
    pub dense_macs: f64,
    /// Giga-MACs per CPU second on unpatterned layers.
    pub dense_gmacs_per_cpu_s: f64,
    /// Modeled F469 milliseconds per item: all layers dense, as run, and
    /// the costliest layer as run.
    pub mcu_dense_ms: f64,
    /// See `mcu_dense_ms`.
    pub mcu_ms: f64,
    /// See `mcu_dense_ms`.
    pub mcu_top_ms: f64,
    /// Server counters.
    pub serve: ServeStats,
    /// Temporal-cache hits over lookups.
    pub hit_share: f64,
    /// CPU seconds of input generation.
    pub gen_s: f64,
    /// `cpu_ms_p50` of the untraced half, for `trace.overhead`.
    pub untraced_p50: f64,
}

impl LayerValues {
    /// The per-layer metrics of a traced run whose traced half is
    /// `traced`, in `BENCHMARK.json` order.
    pub fn metrics(&self, traced: &PhaseStats) -> Vec<Metric> {
        let items = traced.items.max(1) as f64;
        let tiny = f64::MIN_POSITIVE;
        let s = &self.serve;
        let served = (s.completed + s.failed) as f64;
        let mut out = Vec::new();
        for (i, (r_t, clusters)) in self.slots.iter().enumerate() {
            out.push(metric(format!("exec.p{}.r_t", i + 1), *r_t, "ratio"));
            out.push(metric(
                format!("exec.p{}.clusters", i + 1),
                *clusters,
                "count",
            ));
        }
        out.extend([
            metric(
                "exec.transform_elems",
                self.ops.transform_elems as f64,
                "count",
            ),
            metric(
                "exec.clustering_macs",
                self.ops.clustering_macs as f64,
                "count",
            ),
            metric("exec.gemm_macs", self.ops.gemm_macs as f64, "count"),
            metric("exec.recover_elems", self.ops.recover_elems as f64, "count"),
            metric("exec.fallbacks", self.fallbacks as f64, "count"),
            metric("exec.wall_share", self.exec_wall_share, "share"),
            metric("backend.cpu_ms", self.backend_ms, "ms"),
            metric("backend.share", self.backend_share, "share"),
            metric("backend.top.cpu_ms", self.top_ms, "ms"),
            metric(
                "nn.cpu_ms",
                traced.cpu_s * 1e3 / items - self.backend_ms,
                "ms",
            ),
            metric("nn.allocs_per_image", self.allocs, "count"),
            metric("nn.conv_calls", self.conv_calls, "count"),
            metric("tensor.dense_macs", self.dense_macs, "count"),
            metric(
                "tensor.dense_gmacs_per_cpu_s",
                self.dense_gmacs_per_cpu_s,
                "GMAC/s",
            ),
            metric(
                "mcu.dense_f469_mcycles",
                mcycles(self.mcu_dense_ms),
                "Mcycle",
            ),
            metric(
                "mcu.speedup_f469",
                self.mcu_dense_ms / self.mcu_ms.max(tiny),
                "ratio",
            ),
            metric("mcu.top.f469_mcycles", mcycles(self.mcu_top_ms), "Mcycle"),
            metric(
                "mcu.top.measured_over_modeled",
                self.top_ms / self.mcu_top_ms.max(tiny),
                "ratio",
            ),
            metric(
                "serve.mean_batch",
                served / (s.batches as f64).max(1.0),
                "count",
            ),
            metric("serve.batches", s.batches as f64, "count"),
            metric("cache.hit_share", self.hit_share, "share"),
            metric("serve.shed", s.shed as f64, "count"),
            metric("serve.deadline_missed", s.deadline_missed as f64, "count"),
            metric("serve.failed", s.failed as f64, "count"),
            metric("serve.served_dense", s.served_dense as f64, "count"),
            metric("serve.breaker_trips", s.breaker_trips as f64, "count"),
            metric("data.gen_ms", self.gen_s * 1e3, "ms"),
            metric("host.speed", traced.speed, "ratio"),
            metric("host.raw_cpu_ms_p50", traced.raw_cpu_ms_p50, "ms"),
            metric("host.steal_share", traced.steal_share, "share"),
            metric("host.wall_ms_p50", traced.wall_ms_p50, "ms"),
            metric("host.wall_over_cpu", traced.wall_over_cpu(), "ratio"),
            metric(
                "trace.overhead",
                traced.cpu_ms_p50 / self.untraced_p50.max(tiny) - 1.0,
                "ratio",
            ),
        ]);
        out
    }
}

/// Linear-interpolated quantile `q` (`0..=1`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Index of the largest value (first on ties).
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// `‖y − y_ref‖₂ / ‖y_ref‖₂`, accumulated in f64.
pub fn rel_err(y: &[f32], y_ref: &[f32]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (a, b) in y.iter().zip(y_ref) {
        let d = f64::from(*a) - f64::from(*b);
        num += d * d;
        den += f64::from(*b) * f64::from(*b);
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

/// Relative error below which f32 outputs cannot be told apart from
/// their reference: one unit in the 24th significant bit.
pub const F32_RESOLUTION: f64 = 1.0 / (1u64 << 24) as f64;

/// Output agreement in decibels: `−20·log10(mean relative error)`,
/// capped at the f32 resolution (an exact match reads ≈144.5 dB), so
/// the value is finite and non-zero on exact and approximate backends
/// alike.
pub fn snr_db(mean_rel_err: f64) -> f64 {
    -20.0 * mean_rel_err.max(F32_RESOLUTION).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn snr_is_capped_and_monotone() {
        assert!((snr_db(0.0) - 144.49).abs() < 0.01);
        assert!((snr_db(0.1) - 20.0).abs() < 1e-9);
        assert!(snr_db(0.01) > snr_db(0.1));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.5, "ms"), metric("b", 2.0, "count")],
            notes: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
