//! Per-layer observability reports: measured reuse statistics next to the
//! latency model's predictions, with a drift flag where the model
//! mispredicts — the paper's model-validation loop (§4.2 / Fig. 14)
//! turned into a runtime feature.
//!
//! [`network_report`] walks a network's conv layers and joins three data
//! sources per layer: the backend's atomic [`LayerStats`] accumulators
//! (measured `r_t`, op counts, host wall time), the backend's input
//! redundancy probe (the *predicted* `r_t`), and the telemetry event ring
//! (per-phase span time, attributed to layers by tag). Both the measured
//! ops and the predicted pattern are pushed through the same
//! [`LatencyModel`], so `measured_model_ms` and `predicted_model_ms` are
//! directly comparable MCU milliseconds; their relative gap is `drift`.

use greuse_mcu::Board;
use greuse_nn::Network;

use crate::backend::{LayerStats, ReuseBackend};
use crate::hash_provider::HashProvider;
use crate::models::latency::LatencyModel;
use crate::pattern::ReusePattern;
use greuse_telemetry::json;

/// Version stamped into every JSON report; bump when the schema changes.
/// v2 added the guard's `fallbacks` / `fallback_reason` per-layer fields.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// Layers whose model prediction deviates from the measured-op latency by
/// more than this relative fraction are flagged as drifting.
pub const DRIFT_THRESHOLD: f64 = 0.25;

/// One conv layer's measured-vs-predicted record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// Im2col rows (`N`, output positions).
    pub n: usize,
    /// Im2col columns (`K = D_in`).
    pub k: usize,
    /// Output channels (`M = D_out`).
    pub m: usize,
    /// Reuse calls recorded (zero for dense-only layers).
    pub calls: u64,
    /// Measured redundancy ratio `r_t = 1 − n_c/n` from executed totals.
    pub measured_rt: f64,
    /// Predicted `r_t` from the input redundancy probe (first call).
    pub predicted_rt: f64,
    /// Total neuron vectors clustered across calls.
    pub n_vectors: u64,
    /// Total clusters across calls.
    pub n_clusters: u64,
    /// Mean FLOPs actually executed per call (2 × measured MACs).
    pub flops_executed: u64,
    /// FLOPs of the dense GEMM for the same layer (2·N·K·M).
    pub flops_dense: u64,
    /// Mean host wall time per reuse call, milliseconds.
    pub wall_ms: f64,
    /// MCU latency from the *measured* mean op counts, milliseconds.
    pub measured_model_ms: f64,
    /// MCU latency the model *predicted* from the probe `r_t`, ms.
    pub predicted_model_ms: f64,
    /// Span time per phase attributed to this layer, `(name, ns)` sorted
    /// by name. Parent phases contain their children (`exec.cluster`
    /// includes `lsh.hash`/`lsh.group`; `exec.gemm` includes
    /// `gemm.pack`/`gemm.kernel`), so entries are not disjoint.
    pub phase_ns: Vec<(String, u64)>,
    /// `|predicted − measured| / measured` over the model latencies.
    pub drift: f64,
    /// True when `drift > DRIFT_THRESHOLD` (and the layer executed).
    pub drift_flagged: bool,
    /// Calls the guard recomputed through the exact dense path.
    pub fallbacks: u64,
    /// Stable name of the last fallback cause (`"low_rt"` /
    /// `"accuracy_bound"`), empty when the layer never fell back.
    pub fallback_reason: String,
}

impl LayerReport {
    /// Builds one layer's record from accumulated stats. `stats` may be
    /// the zero default for layers that never executed with reuse; such
    /// layers report dimensions and dense FLOPs only and are never
    /// flagged.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stats(
        layer: impl Into<String>,
        n: usize,
        k: usize,
        m: usize,
        pattern: Option<&ReusePattern>,
        stats: &LayerStats,
        predicted_rt: f64,
        phase_ns: Vec<(String, u64)>,
        model: &LatencyModel,
        fallback_reason: Option<crate::guard::FallbackReason>,
    ) -> LayerReport {
        let mean = stats.mean_ops();
        let measured_model_ms = if stats.calls > 0 {
            model.from_ops(&mean).total_ms()
        } else {
            0.0
        };
        let predicted_model_ms = match pattern {
            Some(p) if stats.calls > 0 => model.predict(n, k, m, p, predicted_rt).total_ms(),
            _ => 0.0,
        };
        let drift = if measured_model_ms > 0.0 {
            (predicted_model_ms - measured_model_ms).abs() / measured_model_ms
        } else {
            0.0
        };
        LayerReport {
            layer: layer.into(),
            n,
            k,
            m,
            calls: stats.calls,
            measured_rt: stats.redundancy_ratio(),
            predicted_rt,
            n_vectors: stats.n_vectors,
            n_clusters: stats.n_clusters,
            flops_executed: 2 * (mean.gemm_macs + mean.clustering_macs),
            flops_dense: 2 * (n * k * m) as u64,
            wall_ms: if stats.calls > 0 {
                stats.wall_ns as f64 / stats.calls as f64 / 1e6
            } else {
                0.0
            },
            measured_model_ms,
            predicted_model_ms,
            phase_ns,
            drift,
            drift_flagged: stats.calls > 0 && drift > DRIFT_THRESHOLD,
            fallbacks: stats.fallbacks,
            fallback_reason: fallback_reason
                .map(|r| r.as_str().to_string())
                .unwrap_or_default(),
        }
    }
}

/// A whole network's profile: one [`LayerReport`] per conv layer plus the
/// global telemetry counters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Model name.
    pub model: String,
    /// Board whose latency model produced the prediction columns.
    pub board: Board,
    /// Images profiled.
    pub samples: u64,
    /// Per-layer records, in network order.
    pub layers: Vec<LayerReport>,
    /// Global counters (pool utilization, training loops), `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Spans lost to event-ring overflow; nonzero means phase timings
    /// undercount and the ring capacity should be raised.
    pub dropped_events: u64,
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

impl NetworkReport {
    /// Serializes to the schema-versioned JSON snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.layers.len() * 512);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n  \"kind\": \"greuse-profile\",\n",
            self.schema_version
        ));
        out.push_str(&format!("  \"model\": {},\n", json::quote(&self.model)));
        out.push_str(&format!(
            "  \"board\": {},\n",
            json::quote(&self.board.to_string())
        ));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped_events));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json::quote(name), value));
        }
        out.push_str("},\n  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"layer\": {}, ", json::quote(&l.layer)));
            out.push_str(&format!("\"n\": {}, \"k\": {}, \"m\": {}, ", l.n, l.k, l.m));
            out.push_str(&format!("\"calls\": {}, ", l.calls));
            out.push_str(&format!("\"measured_rt\": {}, ", json_num(l.measured_rt)));
            out.push_str(&format!("\"predicted_rt\": {}, ", json_num(l.predicted_rt)));
            out.push_str(&format!(
                "\"n_vectors\": {}, \"n_clusters\": {}, ",
                l.n_vectors, l.n_clusters
            ));
            out.push_str(&format!(
                "\"flops_executed\": {}, \"flops_dense\": {}, ",
                l.flops_executed, l.flops_dense
            ));
            out.push_str(&format!("\"wall_ms\": {}, ", json_num(l.wall_ms)));
            out.push_str(&format!(
                "\"measured_model_ms\": {}, \"predicted_model_ms\": {}, ",
                json_num(l.measured_model_ms),
                json_num(l.predicted_model_ms)
            ));
            out.push_str("\"phase_ns\": {");
            for (j, (name, ns)) in l.phase_ns.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json::quote(name), ns));
            }
            out.push_str("}, ");
            out.push_str(&format!("\"drift\": {}, ", json_num(l.drift)));
            out.push_str(&format!("\"drift_flagged\": {}, ", l.drift_flagged));
            out.push_str(&format!("\"fallbacks\": {}, ", l.fallbacks));
            out.push_str(&format!(
                "\"fallback_reason\": {}",
                json::quote(&l.fallback_reason)
            ));
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Validates a serialized report against the v2 schema: version match,
    /// required fields with the right types on every layer entry.
    pub fn validate_json(src: &str) -> Result<(), String> {
        let v = json::parse(src)?;
        let version = v
            .get("schema_version")
            .and_then(json::Value::as_u64)
            .ok_or("missing schema_version")?;
        if version != REPORT_SCHEMA_VERSION as u64 {
            return Err(format!(
                "schema_version {version} != supported {REPORT_SCHEMA_VERSION}"
            ));
        }
        if v.get("kind").and_then(json::Value::as_str) != Some("greuse-profile") {
            return Err("kind must be \"greuse-profile\"".into());
        }
        for key in ["model", "board"] {
            if v.get(key).and_then(json::Value::as_str).is_none() {
                return Err(format!("missing string field {key}"));
            }
        }
        for key in ["samples", "dropped_events"] {
            if v.get(key).and_then(json::Value::as_u64).is_none() {
                return Err(format!("missing integer field {key}"));
            }
        }
        v.get("counters")
            .and_then(json::Value::as_object)
            .ok_or("missing counters object")?;
        let layers = v
            .get("layers")
            .and_then(json::Value::as_array)
            .ok_or("missing layers array")?;
        if layers.is_empty() {
            return Err("layers array is empty".into());
        }
        for (i, l) in layers.iter().enumerate() {
            if l.get("layer").and_then(json::Value::as_str).is_none() {
                return Err(format!("layer[{i}]: missing layer name"));
            }
            for key in [
                "n",
                "k",
                "m",
                "calls",
                "n_vectors",
                "n_clusters",
                "flops_executed",
                "flops_dense",
                "fallbacks",
            ] {
                if l.get(key).and_then(json::Value::as_u64).is_none() {
                    return Err(format!("layer[{i}]: missing integer field {key}"));
                }
            }
            for key in [
                "measured_rt",
                "predicted_rt",
                "wall_ms",
                "measured_model_ms",
                "predicted_model_ms",
                "drift",
            ] {
                if l.get(key).and_then(json::Value::as_f64).is_none() {
                    return Err(format!("layer[{i}]: missing numeric field {key}"));
                }
            }
            if l.get("drift_flagged")
                .and_then(json::Value::as_bool)
                .is_none()
            {
                return Err(format!("layer[{i}]: missing boolean drift_flagged"));
            }
            if l.get("phase_ns").and_then(json::Value::as_object).is_none() {
                return Err(format!("layer[{i}]: missing phase_ns object"));
            }
            if l.get("fallback_reason")
                .and_then(json::Value::as_str)
                .is_none()
            {
                return Err(format!("layer[{i}]: missing string fallback_reason"));
            }
        }
        Ok(())
    }
}

/// Aggregates span durations by name for one telemetry tag, sorted by
/// phase name for deterministic output.
fn phase_times(events: &[greuse_telemetry::SpanEvent], tag: u32) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for e in events.iter().filter(|e| e.tag == tag) {
        match totals.iter_mut().find(|(name, _)| name == e.name) {
            Some((_, ns)) => *ns += e.dur_ns,
            None => totals.push((e.name.to_string(), e.dur_ns)),
        }
    }
    totals.sort();
    totals
}

/// Builds a [`NetworkReport`] for every conv layer of `net` from the
/// backend's accumulated statistics and the current telemetry snapshot.
/// Call after the profiled run completes (and telemetry is disabled) so
/// the event ring is quiescent.
pub fn network_report<P: HashProvider>(
    net: &dyn Network,
    backend: &ReuseBackend<P>,
    board: Board,
    samples: u64,
) -> NetworkReport {
    let model = LatencyModel::new(board);
    let events = greuse_telemetry::events();
    let layers = net
        .conv_layers()
        .into_iter()
        .map(|info| {
            let (n, k, m) = (info.gemm_n(), info.gemm_k(), info.gemm_m());
            let stats = backend.layer_stats(&info.name).unwrap_or_default();
            let predicted_rt = backend.layer_probe(&info.name).unwrap_or(0.0);
            let phase_ns = backend
                .layer_tag(&info.name)
                .map(|tag| phase_times(&events, tag))
                .unwrap_or_default();
            let pattern = backend.pattern(&info.name).copied();
            let fallback_reason = backend.layer_fallback_reason(&info.name);
            LayerReport::from_stats(
                info.name,
                n,
                k,
                m,
                pattern.as_ref(),
                &stats,
                predicted_rt,
                phase_ns,
                &model,
                fallback_reason,
            )
        })
        .collect();
    NetworkReport {
        schema_version: REPORT_SCHEMA_VERSION,
        model: net.name().to_string(),
        board,
        samples,
        layers,
        counters: greuse_telemetry::metrics::snapshot()
            .counters
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        dropped_events: greuse_telemetry::dropped_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse_mcu::PhaseOps;

    fn sample_stats() -> LayerStats {
        LayerStats {
            calls: 2,
            ops: PhaseOps {
                transform_elems: 2 * 64 * 48,
                clustering_macs: 2 * 9000,
                clustering_vectors: 2 * 64,
                gemm_macs: 2 * 40_000,
                recover_elems: 2 * 64 * 8,
            },
            n_vectors: 128,
            n_clusters: 40,
            wall_ns: 3_000_000,
            fallbacks: 0,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let pattern = ReusePattern::conventional(16, 4);
        let model = LatencyModel::new(Board::Stm32F469i);
        let layer = LayerReport::from_stats(
            "conv1",
            64,
            48,
            8,
            Some(&pattern),
            &sample_stats(),
            0.7,
            vec![("exec.cluster".into(), 1000), ("exec.gemm".into(), 2000)],
            &model,
            Some(crate::guard::FallbackReason::LowRedundancy),
        );
        assert!((layer.measured_rt - (1.0 - 40.0 / 128.0)).abs() < 1e-12);
        assert_eq!(layer.flops_dense, 2 * 64 * 48 * 8);
        assert!(layer.wall_ms > 0.0);
        let report = NetworkReport {
            schema_version: REPORT_SCHEMA_VERSION,
            model: "testnet".into(),
            board: Board::Stm32F469i,
            samples: 2,
            layers: vec![layer],
            counters: vec![("pool.jobs".into(), 3)],
            dropped_events: 0,
        };
        let json_text = report.to_json();
        NetworkReport::validate_json(&json_text).expect("emitted report must match its schema");
        let v = json::parse(&json_text).unwrap();
        let l0 = &v.get("layers").unwrap().as_array().unwrap()[0];
        assert_eq!(l0.get("calls").and_then(json::Value::as_u64), Some(2));
        assert_eq!(
            l0.get("phase_ns")
                .and_then(|p| p.get("exec.gemm"))
                .and_then(json::Value::as_u64),
            Some(2000)
        );
        assert_eq!(l0.get("fallbacks").and_then(json::Value::as_u64), Some(0));
        assert_eq!(
            l0.get("fallback_reason").and_then(json::Value::as_str),
            Some("low_rt")
        );
    }

    #[test]
    fn validate_rejects_wrong_version_and_missing_fields() {
        assert!(NetworkReport::validate_json("{\"schema_version\": 999}").is_err());
        assert!(NetworkReport::validate_json("not json").is_err());
        let missing_layers = format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"kind\": \"greuse-profile\", \
             \"model\": \"m\", \"board\": \"b\", \"samples\": 1, \"dropped_events\": 0, \
             \"counters\": {{}}, \"layers\": []}}"
        );
        assert!(NetworkReport::validate_json(&missing_layers).is_err());
    }

    #[test]
    fn drift_flags_only_executed_mispredicting_layers() {
        let model = LatencyModel::new(Board::Stm32F469i);
        let pattern = ReusePattern::conventional(16, 4);
        // Never-executed layer: zero stats, never flagged.
        let idle = LayerReport::from_stats(
            "conv9",
            64,
            48,
            8,
            Some(&pattern),
            &LayerStats::default(),
            0.0,
            Vec::new(),
            &model,
            None,
        );
        assert_eq!(idle.calls, 0);
        assert!(!idle.drift_flagged);
        assert_eq!(idle.drift, 0.0);

        // A probe r_t wildly above the measured ratio must flag.
        let skewed = LayerReport::from_stats(
            "conv1",
            64,
            48,
            8,
            Some(&pattern),
            &sample_stats(),
            0.999,
            Vec::new(),
            &model,
            None,
        );
        // measured ratio is ~0.69; the model at r_t=0.999 predicts far
        // less centroid-GEMM work than was measured.
        assert!(skewed.drift > 0.0);
    }
}
