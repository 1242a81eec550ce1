//! Per-input adaptive pattern selection.
//!
//! §4's strategy discussion: "Ideally, the reuse pattern selection shall
//! be done for every input, but it could introduce too much runtime
//! overhead. In practice, an MCU device often works in a certain
//! environment…" — the paper therefore selects per dataset. This module
//! implements the middle ground the paper leaves as future work: a
//! *cheap* per-input switch between a small set of pre-selected patterns,
//! driven by an O(N·K) redundancy probe of the input's im2col matrix
//! (far cheaper than one hashing pass, let alone re-selection).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use greuse_nn::{ConvBackend, DenseBackend};
use greuse_tensor::{ConvSpec, Tensor, TensorError};

use crate::backend::{boundary_error, WorkspacePool};
use crate::exec::ExecWorkspace;
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;

/// A redundancy probe: a single-pass estimate of how self-similar the
/// rows of an im2col matrix are, in `[0, 1]` (1 = every row equals the
/// running mean). Cost: one pass over the matrix — negligible next to
/// the layer's GEMM.
pub fn redundancy_probe(x: &Tensor<f32>) -> f64 {
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

/// Per-layer adaptive policy: thresholds on the probe choose between an
/// aggressive pattern (high redundancy), a conservative pattern, and
/// dense execution (low redundancy, where reuse cannot pay for itself —
/// the key condition of §4.2 fails on such inputs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Pattern used when the probe exceeds `aggressive_above`.
    pub aggressive: ReusePattern,
    /// Pattern used when the probe is between the two thresholds.
    pub conservative: ReusePattern,
    /// Probe threshold above which the aggressive pattern applies.
    pub aggressive_above: f64,
    /// Probe threshold below which the layer runs dense.
    pub dense_below: f64,
}

/// Which arm the policy chose for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyChoice {
    /// Aggressive reuse.
    Aggressive,
    /// Conservative reuse.
    Conservative,
    /// Dense execution.
    Dense,
}

impl AdaptivePolicy {
    /// The arm for a given probe value.
    pub fn choose(&self, probe: f64) -> PolicyChoice {
        if probe >= self.aggressive_above {
            PolicyChoice::Aggressive
        } else if probe < self.dense_below {
            PolicyChoice::Dense
        } else {
            PolicyChoice::Conservative
        }
    }
}

/// A backend that probes each input and dispatches per the policy.
/// Layers without a policy run dense. Reuse calls run on workspaces
/// checked out of a pool, as in [`crate::ReuseBackend`], so a layer's
/// hash families stay resident while its chosen pattern does not change.
pub struct AdaptiveBackend<P: HashProvider> {
    policies: std::collections::HashMap<String, AdaptivePolicy>,
    hashes: P,
    decisions: Mutex<Vec<(String, PolicyChoice, f64)>>,
    workspaces: WorkspacePool<ExecWorkspace>,
}

impl<P: HashProvider> AdaptiveBackend<P> {
    /// Creates a backend with no policies (all layers dense).
    pub fn new(hashes: P) -> Self {
        AdaptiveBackend {
            policies: std::collections::HashMap::new(),
            hashes,
            decisions: Mutex::new(Vec::new()),
            workspaces: WorkspacePool::default(),
        }
    }

    /// Installs a policy for a layer (builder style).
    pub fn with_policy(mut self, layer: impl Into<String>, policy: AdaptivePolicy) -> Self {
        self.policies.insert(layer.into(), policy);
        self
    }

    /// The `(layer, choice, probe)` log of every dispatched call.
    pub fn decisions(&self) -> Vec<(String, PolicyChoice, f64)> {
        self.decisions.lock().clone()
    }
}

impl<P: HashProvider> ConvBackend for AdaptiveBackend<P> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> std::result::Result<Tensor<f32>, TensorError> {
        let Some(policy) = self.policies.get(layer) else {
            return DenseBackend.conv_gemm(layer, spec, x, weights);
        };
        let probe = redundancy_probe(x);
        let choice = policy.choose(probe);
        self.decisions
            .lock()
            .push((layer.to_string(), choice, probe));
        let pattern = match choice {
            PolicyChoice::Dense => return DenseBackend.conv_gemm(layer, spec, x, weights),
            PolicyChoice::Aggressive => policy.aggressive,
            PolicyChoice::Conservative => policy.conservative,
        };
        self.workspaces
            .with(|ws| ws.execute(x, weights, Some(spec), &pattern, &self.hashes, layer))
            .map(|out| out.y)
            .map_err(boundary_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_provider::RandomHashProvider;
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

    #[test]
    fn policy_thresholds() {
        let p = AdaptivePolicy {
            aggressive: ReusePattern::conventional(8, 1),
            conservative: ReusePattern::conventional(8, 6),
            aggressive_above: 0.8,
            dense_below: 0.3,
        };
        assert_eq!(p.choose(0.9), PolicyChoice::Aggressive);
        assert_eq!(p.choose(0.5), PolicyChoice::Conservative);
        assert_eq!(p.choose(0.1), PolicyChoice::Dense);
    }

    #[test]
    fn backend_dispatches_by_input() {
        let policy = AdaptivePolicy {
            aggressive: ReusePattern::conventional(8, 2),
            conservative: ReusePattern::conventional(8, 8),
            aggressive_above: 0.9,
            dense_below: 0.2,
        };
        let backend = AdaptiveBackend::new(RandomHashProvider::new(3)).with_policy("c", policy);
        let spec = ConvSpec::new(1, 4, 2, 4);
        let w = noisy_matrix(4, 8, 9);
        // Redundant input -> aggressive arm.
        let _ = backend
            .conv_gemm("c", &spec, &flat_matrix(16, 8), &w)
            .unwrap();
        // Random input with moderate self-similarity -> conservative or
        // dense, but never aggressive.
        let _ = backend
            .conv_gemm("c", &spec, &noisy_matrix(16, 8, 5), &w)
            .unwrap();
        let decisions = backend.decisions();
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].1, PolicyChoice::Aggressive);
        assert_ne!(decisions[1].1, PolicyChoice::Aggressive);
        // Unmanaged layers run dense and are not logged.
        let _ = backend
            .conv_gemm("other", &spec, &flat_matrix(16, 8), &w)
            .unwrap();
        assert_eq!(backend.decisions().len(), 2);
    }

    #[test]
    fn executor_errors_keep_their_message() {
        let policy = AdaptivePolicy {
            aggressive: ReusePattern::conventional(8, 2),
            conservative: ReusePattern::conventional(8, 8),
            aggressive_above: 0.9,
            dense_below: 0.2,
        };
        let backend = AdaptiveBackend::new(RandomHashProvider::new(3)).with_policy("c", policy);
        let spec = ConvSpec::new(1, 4, 2, 4);
        // Weights one column short of the im2col width: the executor
        // rejects the operands with a pattern error, not a tensor error.
        let err = backend
            .conv_gemm("c", &spec, &flat_matrix(16, 8), &noisy_matrix(4, 7, 9))
            .unwrap_err();
        assert!(matches!(err, TensorError::InvalidInput { .. }), "{err}");
        assert!(
            err.to_string().contains("incompatible with im2col width 8"),
            "{err}"
        );
    }

    #[test]
    fn pooled_workspace_repeats_bit_identically() {
        // The second call of a layer finds its hash families resident in
        // the pooled workspace; it must equal the first call, which built
        // them.
        let policy = AdaptivePolicy {
            aggressive: ReusePattern::conventional(8, 2),
            conservative: ReusePattern::conventional(8, 8),
            aggressive_above: 0.9,
            dense_below: 0.2,
        };
        let backend = AdaptiveBackend::new(RandomHashProvider::new(4)).with_policy("c", policy);
        let spec = ConvSpec::new(1, 4, 2, 4);
        let (x, w) = (flat_matrix(16, 8), noisy_matrix(4, 8, 9));
        let first = backend.conv_gemm("c", &spec, &x, &w).unwrap();
        let second = backend.conv_gemm("c", &spec, &x, &w).unwrap();
        let fresh = ExecWorkspace::new()
            .execute(
                &x,
                &w,
                Some(&spec),
                &policy.aggressive,
                &RandomHashProvider::new(4),
                "c",
            )
            .unwrap();
        assert_eq!(first, fresh.y);
        assert_eq!(second, fresh.y);
    }
}
