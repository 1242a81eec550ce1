//! The analytical–empirical reuse-pattern selection workflow (§4.3,
//! Fig. 8): generate candidates from a [`Scope`], profile them cheaply
//! with random-hash clustering, prune with the two analytic models, then
//! fully check only the promising set and report the Pareto optimals.

pub mod reproduce;

pub use reproduce::{
    reproduce_network, run_reproduction, LayerCross, NetworkReproduction, ReproduceConfig,
    ReproduceReport,
};

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use greuse_mcu::{Board, PhaseOps};
use greuse_nn::{ConvBackend, ConvLayerInfo, Example, Network};
use greuse_tensor::{ConvSpec, Tensor, TensorError};

use crate::backend::ReuseBackend;
use crate::hash_provider::{AdaptedHashProvider, RandomHashProvider};
use crate::models::accuracy::{accuracy_bound_with_spec, measured_error_with_spec};
use crate::models::latency::LatencyModel;
use crate::pattern::ReusePattern;
use crate::scope::Scope;
use crate::select::{pareto_front, rank_patterns, PatternScore, SelectionStrategy};
use crate::{GreuseError, Result};

/// Configuration of the selection workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Candidate-generation scope.
    pub scope: Scope,
    /// Target board for latency predictions.
    pub board: Board,
    /// Number of promising patterns to carry into the full check.
    pub prune_to: usize,
    /// Training images profiled by the lightweight pass.
    pub profile_samples: usize,
    /// RNG seed for the lightweight (random-hash) profiling.
    pub seed: u64,
    /// Profile with data-adapted hashing (matching the full check) instead
    /// of random hashing. The paper profiles with random vectors because
    /// its learned vectors require training; our data-adapted stand-in is
    /// training-free, so deployment-matched profiling is the default.
    pub profile_adapted: bool,
    /// Run the logit-divergence probe and the full check with data-adapted
    /// hashing — the deployment configuration the selection is meant to
    /// predict. `false` freezes seeded random families instead (the
    /// paper's lightweight configuration), trading some clustering
    /// quality for a large constant-factor saving on wide layers, where
    /// re-deriving principal directions per panel dominates the forward.
    pub deploy_adapted: bool,
}

impl WorkflowConfig {
    /// Hash provider matching the deployment configuration this workflow
    /// evaluates (see [`WorkflowConfig::deploy_adapted`]).
    pub fn deploy_provider(&self) -> crate::EitherHashProvider {
        if self.deploy_adapted {
            crate::EitherHashProvider::adapted()
        } else {
            crate::EitherHashProvider::random(self.seed)
        }
    }
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            scope: Scope::default_scope(),
            board: Board::Stm32F469i,
            prune_to: 5,
            profile_samples: 2,
            seed: 0xA5A5,
            profile_adapted: true,
            deploy_adapted: true,
        }
    }
}

/// Fully-measured results of one pattern (the "full check" stage).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredResult {
    /// Test accuracy of the network with this pattern on the layer.
    pub accuracy: f64,
    /// Per-image layer latency on the configured board (ms), from
    /// executor-measured operation counts.
    pub latency_ms: f64,
    /// Measured redundancy ratio.
    pub redundancy_ratio: f64,
}

/// Everything known about one candidate pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternEvaluation {
    /// The pattern.
    pub pattern: ReusePattern,
    /// Analytic error bound (lightweight profile).
    pub error_bound: f64,
    /// Sample-measured `‖Y − Ŷ‖²_F` on the profiling images — the
    /// "lightweight empirical measurement" the paper's profiling stage
    /// performs; a far sharper ranking signal than the bound.
    pub sample_error: f64,
    /// Mean squared divergence of the network's logits on the profiling
    /// images when this pattern is applied, vs dense execution. Unlike the
    /// matrix-level error, this sees *structured* approximation error
    /// (e.g. horizontal folding corrupts logits coherently); it is the
    /// primary pruning signal.
    pub logit_divergence: f64,
    /// Profiled redundancy ratio.
    pub redundancy_ratio: f64,
    /// Model-predicted layer latency (ms).
    pub predicted_latency_ms: f64,
    /// Model-predicted speedup over the dense baseline.
    pub predicted_speedup: f64,
    /// Full-check measurements (only for promising patterns).
    pub measured: Option<MeasuredResult>,
}

/// Wall-clock timing of the exploration stages (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplorationTiming {
    /// Lightweight profiling time.
    pub profiling: Duration,
    /// Analytic pruning time.
    pub prune: Duration,
    /// Full empirical check time.
    pub full_check: Duration,
}

/// Result of selecting patterns for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSelection {
    /// The layer's static description.
    pub layer: ConvLayerInfo,
    /// All candidates with their analytic scores; promising ones carry
    /// `measured` results.
    pub evaluations: Vec<PatternEvaluation>,
    /// Indices (into `evaluations`) of the model-pruned promising set.
    pub promising: Vec<usize>,
    /// Indices of the measured Pareto-optimal patterns
    /// (latency-ascending).
    pub pareto: Vec<usize>,
    /// Stage timings.
    pub timing: ExplorationTiming,
}

impl LayerSelection {
    /// The measured Pareto point with the highest accuracy.
    pub fn best_accuracy(&self) -> Option<&PatternEvaluation> {
        self.pareto
            .iter()
            .map(|&i| &self.evaluations[i])
            .max_by(|a, b| {
                let aa = a.measured.map(|m| m.accuracy).unwrap_or(0.0);
                let bb = b.measured.map(|m| m.accuracy).unwrap_or(0.0);
                aa.total_cmp(&bb)
            })
    }

    /// The measured Pareto point with the lowest latency.
    pub fn best_latency(&self) -> Option<&PatternEvaluation> {
        self.pareto.first().map(|&i| &self.evaluations[i])
    }
}

/// A backend that runs densely while capturing the im2col matrices of one
/// target layer — how the profiling stage obtains layer inputs for any
/// depth of the network.
pub struct CaptureBackend {
    target: String,
    captured: Mutex<Vec<Tensor<f32>>>,
}

impl CaptureBackend {
    /// Creates a capture backend for the named layer.
    pub fn new(target: impl Into<String>) -> Self {
        CaptureBackend {
            target: target.into(),
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Returns the captured matrices (in call order).
    pub fn into_captured(self) -> Vec<Tensor<f32>> {
        self.captured.into_inner()
    }
}

impl ConvBackend for CaptureBackend {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> std::result::Result<Tensor<f32>, TensorError> {
        if layer == self.target {
            self.captured.lock().push(x.clone());
        }
        greuse_nn::DenseBackend.conv_gemm(layer, spec, x, weights)
    }
}

/// Captures the im2col inputs of `layer` for up to `max_samples` images.
///
/// # Errors
///
/// Propagates forward errors; fails if the layer never executed.
pub fn capture_im2col(
    net: &dyn Network,
    layer: &str,
    data: &[Example],
    max_samples: usize,
) -> Result<Vec<Tensor<f32>>> {
    let backend = CaptureBackend::new(layer);
    for (image, _) in data.iter().take(max_samples.max(1)) {
        let _ = net.forward(image, &backend)?;
    }
    let captured = backend.into_captured();
    if captured.is_empty() {
        return Err(GreuseError::InvalidWorkflow {
            detail: format!("layer {layer} never executed during capture"),
        });
    }
    Ok(captured)
}

/// Looks up a layer's weights by name.
fn layer_weights(net: &dyn Network, layer: &str) -> Result<Tensor<f32>> {
    net.convs()
        .into_iter()
        .find(|c| c.name == layer)
        .map(|c| c.weights.clone())
        .ok_or_else(|| GreuseError::InvalidWorkflow {
            detail: format!("unknown layer {layer}"),
        })
}

/// Runs the full selection workflow for one layer of a trained network.
///
/// `train_data` feeds the lightweight profiling pass (§4.3 conducts
/// selection on the training set); `test_data` is used only by the full
/// check of the pruned promising set.
///
/// # Errors
///
/// Propagates profiling/evaluation errors; fails on an unknown layer or
/// an empty candidate set.
pub fn select_patterns_for_layer(
    net: &dyn Network,
    layer: &str,
    train_data: &[Example],
    test_data: &[Example],
    config: &WorkflowConfig,
) -> Result<LayerSelection> {
    let info = net
        .conv_layers()
        .into_iter()
        .find(|i| i.name == layer)
        .ok_or_else(|| GreuseError::InvalidWorkflow {
            detail: format!("unknown layer {layer}"),
        })?;
    let (n, k, m) = (info.gemm_n(), info.gemm_k(), info.gemm_m());
    let candidates = config.scope.candidates(n, k);
    if candidates.is_empty() {
        return Err(GreuseError::InvalidWorkflow {
            detail: format!("scope generates no valid candidates for {layer} (N={n}, K={k})"),
        });
    }

    // Stage 1: lightweight profiling (§4.1/§4.3): the analytic bound and
    // redundancy ratio per candidate, plus two cheap empirical signals on
    // the profiling images — the matrix-level error and the network-level
    // logit divergence (profile_samples images, no training, no test set).
    let t0 = Instant::now();
    let profile_span = greuse_telemetry::span!("workflow.profile");
    let samples = capture_im2col(net, layer, train_data, config.profile_samples)?;
    let profile_images: Vec<&Example> = train_data
        .iter()
        .take(config.profile_samples.max(1))
        .collect();
    let dense_logits: Vec<Vec<f32>> = profile_images
        .iter()
        .map(|(image, _)| net.forward(image, &greuse_nn::DenseBackend))
        .collect::<std::result::Result<_, _>>()?;
    let weights = layer_weights(net, layer)?;
    let random_provider = RandomHashProvider::new(config.seed);
    let adapted_provider = AdaptedHashProvider::new();
    let lightweight: &dyn crate::HashProvider = if config.profile_adapted {
        &adapted_provider
    } else {
        &random_provider
    };
    let model = LatencyModel::new(config.board);
    let mut evaluations: Vec<PatternEvaluation> = Vec::with_capacity(candidates.len());
    for pattern in &candidates {
        let mut bound = 0.0f64;
        let mut sample_error = 0.0f64;
        let mut rt = 0.0f64;
        for x in &samples {
            let est = accuracy_bound_with_spec(x, &weights, &info.spec, pattern, lightweight)?;
            bound += est.error_bound;
            rt += est.redundancy_ratio;
            sample_error +=
                measured_error_with_spec(x, &weights, &info.spec, pattern, lightweight)?;
        }
        bound /= samples.len() as f64;
        sample_error /= samples.len() as f64;
        rt /= samples.len() as f64;
        // Network-level probe: forward the profile images with the
        // candidate applied to this layer only.
        let probe_backend =
            crate::ReuseBackend::new(config.deploy_provider()).with_pattern(layer, *pattern);
        let mut logit_divergence = 0.0f64;
        for ((image, _), dense) in profile_images.iter().zip(dense_logits.iter()) {
            let logits = net.forward(image, &probe_backend)?;
            let mse: f64 = logits
                .iter()
                .zip(dense.iter())
                .map(|(a, b)| f64::from(a - b).powi(2))
                .sum::<f64>()
                / logits.len().max(1) as f64;
            logit_divergence += mse;
        }
        logit_divergence /= profile_images.len().max(1) as f64;
        let predicted = model.predict(n, k, m, pattern, rt).total_ms();
        let speedup = model.dense(n, k, m).total_ms() / predicted;
        evaluations.push(PatternEvaluation {
            pattern: *pattern,
            error_bound: bound,
            sample_error,
            logit_divergence,
            redundancy_ratio: rt,
            predicted_latency_ms: predicted,
            predicted_speedup: speedup,
            measured: None,
        });
    }
    drop(profile_span);
    let profiling = t0.elapsed();

    // Stage 2: analytic pruning — keep the model-Pareto set, but drop
    // points whose profiled error explodes relative to the best candidate
    // (the min-latency corner of a Pareto front can be arbitrarily bad on
    // the other axis; an error 30x the best is never worth checking), and
    // fill up to `prune_to` with the best analytic ranks.
    let t1 = Instant::now();
    let prune_span = greuse_telemetry::span!("workflow.prune");
    let points: Vec<(f64, f64)> = evaluations
        .iter()
        .map(|e| (e.predicted_latency_ms, -e.logit_divergence)) // high "accuracy" = low divergence
        .collect();
    let min_error = evaluations
        .iter()
        .map(|e| e.logit_divergence)
        .fold(f64::INFINITY, f64::min)
        .max(1e-12);
    let mut promising: Vec<usize> = pareto_front(&points)
        .into_iter()
        .filter(|&i| evaluations[i].logit_divergence <= 30.0 * min_error)
        .collect();
    if promising.len() > config.prune_to {
        promising.truncate(config.prune_to);
    } else if promising.len() < config.prune_to {
        let scores: Vec<PatternScore> = evaluations
            .iter()
            .map(|e| PatternScore {
                error_bound: e.logit_divergence,
                redundancy_ratio: e.redundancy_ratio,
                predicted_latency_ms: e.predicted_latency_ms,
            })
            .collect();
        for i in rank_patterns(SelectionStrategy::Analytic, &scores) {
            if promising.len() >= config.prune_to {
                break;
            }
            if !promising.contains(&i) {
                promising.push(i);
            }
        }
    }
    drop(prune_span);
    let prune = t1.elapsed();

    // Stage 3: full check of the promising set (data-adapted hashing —
    // the stand-in for TREC's learned hash vectors).
    let t2 = Instant::now();
    let check_span = greuse_telemetry::span!("workflow.check");
    let results: Vec<(usize, MeasuredResult)> = {
        let eval_one = |idx: usize| -> Result<(usize, MeasuredResult)> {
            let pattern = evaluations[idx].pattern;
            let backend = ReuseBackend::new(config.deploy_provider()).with_pattern(layer, pattern);
            let mut correct = 0usize;
            for (image, label) in test_data {
                let logits = net.forward(image, &backend)?;
                let pred = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if pred == *label {
                    correct += 1;
                }
            }
            let stats = backend.layer_stats(layer).unwrap_or_default();
            let latency_ms = model.from_ops(&stats.mean_ops()).total_ms();
            Ok((
                idx,
                MeasuredResult {
                    accuracy: correct as f64 / test_data.len().max(1) as f64,
                    latency_ms,
                    redundancy_ratio: stats.redundancy_ratio(),
                },
            ))
        };
        // Evaluate promising patterns in parallel. Each worker writes its
        // own pre-allocated slot — no lock, and the results come back in
        // deterministic `promising` order.
        let mut slots: Vec<Option<Result<(usize, MeasuredResult)>>> =
            (0..promising.len()).map(|_| None).collect();
        crossbeam::scope(|s| {
            for (slot, &idx) in slots.iter_mut().zip(&promising) {
                let eval_one = &eval_one;
                s.spawn(move |_| {
                    *slot = Some(eval_one(idx));
                });
            }
        })
        .map_err(|_| GreuseError::InvalidWorkflow {
            detail: "evaluation thread panicked".into(),
        })?;
        let mut out = Vec::new();
        for r in slots {
            out.push(r.ok_or_else(|| GreuseError::InvalidWorkflow {
                detail: "evaluation worker exited without a result".into(),
            })??);
        }
        out
    };
    for (idx, measured) in results {
        evaluations[idx].measured = Some(measured);
    }
    drop(check_span);
    let full_check = t2.elapsed();

    // Measured Pareto front over the fully-checked patterns.
    let measured_points: Vec<(usize, (f64, f64))> = promising
        .iter()
        .filter_map(|&i| {
            evaluations[i]
                .measured
                .map(|mr| (i, (mr.latency_ms, mr.accuracy)))
        })
        .collect();
    let front = pareto_front(&measured_points.iter().map(|(_, p)| *p).collect::<Vec<_>>());
    let pareto: Vec<usize> = front.into_iter().map(|fi| measured_points[fi].0).collect();

    Ok(LayerSelection {
        layer: info,
        evaluations,
        promising,
        pareto,
        timing: ExplorationTiming {
            profiling,
            prune,
            full_check,
        },
    })
}

/// End-to-end network latency on a board: reuse layers use their measured
/// mean operation counts, all other conv layers are charged dense, and
/// fully-connected parameters are charged as one MAC each.
pub fn network_latency(
    net: &dyn Network,
    backend_stats: &std::collections::HashMap<String, crate::backend::LayerStats>,
    board: Board,
) -> f64 {
    let model = LatencyModel::new(board);
    let mut total = 0.0f64;
    let mut conv_params = 0usize;
    for info in net.conv_layers() {
        let ms = match backend_stats.get(&info.name) {
            Some(stats) if stats.calls > 0 => model.from_ops(&stats.mean_ops()).total_ms(),
            _ => model
                .dense(info.gemm_n(), info.gemm_k(), info.gemm_m())
                .total_ms(),
        };
        total += ms;
    }
    for conv in net.convs() {
        conv_params += conv.param_count();
    }
    // FC/other parameters: everything the conv layers do not own.
    let fc_macs = total_params(net).saturating_sub(conv_params) as u64;
    total += model
        .from_ops(&PhaseOps {
            gemm_macs: fc_macs,
            ..PhaseOps::default()
        })
        .total_ms();
    total
}

fn total_params(net: &dyn Network) -> usize {
    // Conv parameters are directly visible; FC parameters are estimated
    // from the network's visit order only when it is trainable. For the
    // latency model the conv + classifier-head approximation suffices:
    // use conv params plus the documented classifier sizes.
    let conv: usize = net.convs().iter().map(|c| c.param_count()).sum();
    // Estimate head params as 2% of conv params when unknown; this only
    // offsets every latency equally and cancels in speedup ratios.
    conv + conv / 50
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse_data::SyntheticDataset;
    use greuse_nn::models::CifarNet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_setup() -> (CifarNet, Vec<Example>, Vec<Example>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = CifarNet::new(10, &mut rng);
        let data = SyntheticDataset::cifar_like(3);
        let (train, test) = data.train_test(4, 6, 5);
        (net, train, test)
    }

    #[test]
    fn capture_backend_collects_target_layer() {
        let (net, train, _) = small_setup();
        let xs = capture_im2col(&net, "conv2", &train, 2).unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].shape().dims(), &[256, 1600]);
        assert!(capture_im2col(&net, "nonexistent", &train, 1).is_err());
    }

    #[test]
    fn selection_workflow_runs_end_to_end() {
        let (net, train, test) = small_setup();
        let config = WorkflowConfig {
            scope: Scope {
                ls: vec![15, 25],
                hs: vec![2, 4],
                ..Scope::default_scope()
            },
            prune_to: 3,
            profile_samples: 1,
            ..WorkflowConfig::default()
        };
        let sel = select_patterns_for_layer(&net, "conv1", &train, &test, &config).unwrap();
        assert!(!sel.evaluations.is_empty());
        assert_eq!(sel.promising.len(), 3);
        assert!(!sel.pareto.is_empty());
        // Promising patterns carry measurements; others do not.
        for &i in &sel.promising {
            assert!(sel.evaluations[i].measured.is_some());
        }
        let measured_count = sel
            .evaluations
            .iter()
            .filter(|e| e.measured.is_some())
            .count();
        assert_eq!(measured_count, 3);
        // Timing populated.
        assert!(sel.timing.profiling > Duration::ZERO);
        // Pareto accessors.
        assert!(sel.best_accuracy().is_some());
        assert!(sel.best_latency().is_some());
    }

    #[test]
    fn unknown_layer_rejected() {
        let (net, train, test) = small_setup();
        let config = WorkflowConfig::default();
        assert!(select_patterns_for_layer(&net, "convX", &train, &test, &config).is_err());
    }

    #[test]
    fn network_latency_reuse_below_dense() {
        let (net, _, test) = small_setup();
        let dense_stats = std::collections::HashMap::new();
        let dense_ms = network_latency(&net, &dense_stats, Board::Stm32F469i);
        // Run with an aggressive reuse pattern on conv2 (the big layer).
        let backend = ReuseBackend::new(AdaptedHashProvider::new())
            .with_pattern("conv2", ReusePattern::conventional(20, 1));
        for (image, _) in test.iter().take(2) {
            let _ = net.forward(image, &backend).unwrap();
        }
        let reuse_ms = network_latency(&net, &backend.stats(), Board::Stm32F469i);
        assert!(
            reuse_ms < dense_ms,
            "reuse {reuse_ms} ms should beat dense {dense_ms} ms"
        );
    }
}
