//! The compute side of the server: one admitted batch in, one typed
//! outcome per request out.
//!
//! [`Engine`] wraps a [`BatchExecutor`] with a fixed model geometry (one
//! GEMM-shaped layer: the serving unit the reuse pipeline operates on)
//! and two paths: the reuse pipeline (shared temporal cache keyed by the
//! model's layer label) and the dense fallback the breaker flips to —
//! the same batch dispatch with no pattern: plain GEMM for f32,
//! dense-quantized for int8, with no clustering and no reuse-pipeline
//! fault surface. Both paths isolate each request's panics, and the
//! backend picks the executor's workspace type in one place.
//! Responses carry an FNV-1a checksum of the output instead of the
//! output itself: the chaos suite's bitwise-equivalence assertions and
//! the load generator need identity, not payload.

use greuse_tensor::Tensor;

use crate::exec::{BatchExecutor, ExecWorkspace, QuantWorkspace};
use crate::hash_provider::RandomHashProvider;
use crate::pattern::ReusePattern;
use crate::{GreuseError, Result};

/// Which numeric backend serves requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// f32 reuse pipeline (dense fallback: exact f32 GEMM).
    F32,
    /// int8 quantized pipeline (dense fallback: dense-quantized GEMM).
    Int8,
}

impl std::str::FromStr for ServeBackend {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "f32" => Ok(ServeBackend::F32),
            "int8" => Ok(ServeBackend::Int8),
            other => Err(format!(
                "unknown backend `{other}` (expected `f32` or `int8`)"
            )),
        }
    }
}

impl std::fmt::Display for ServeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeBackend::F32 => "f32",
            ServeBackend::Int8 => "int8",
        })
    }
}

/// The served model: one layer's GEMM geometry plus its weights and
/// reuse pattern. `layer` doubles as the shared-cache key, so two
/// servers for different models never collide.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Cache/label key, e.g. `serve/cifarnet/conv2`.
    pub layer: String,
    /// im2col rows per request (output positions).
    pub n: usize,
    /// im2col columns (patch length `D_in`).
    pub k: usize,
    /// Output channels `D_out`.
    pub m: usize,
    /// Weight matrix `(m, k)`.
    pub weights: Tensor<f32>,
    /// Reuse pattern selected for the layer.
    pub pattern: ReusePattern,
}

impl ModelSpec {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidWorkflow`] on a shape mismatch.
    pub fn validate(&self) -> Result<()> {
        if self.weights.shape().dims() != [self.m, self.k] {
            return Err(GreuseError::InvalidWorkflow {
                detail: format!(
                    "serve weights must be ({}, {}), got {:?}",
                    self.m,
                    self.k,
                    self.weights.shape().dims()
                ),
            });
        }
        if self.n == 0 || self.k == 0 || self.m == 0 {
            return Err(GreuseError::InvalidWorkflow {
                detail: format!(
                    "serve geometry must be nonzero, got {}x{}x{}",
                    self.n, self.k, self.m
                ),
            });
        }
        Ok(())
    }

    /// Elements per request input (`n * k`).
    pub fn input_len(&self) -> usize {
        self.n * self.k
    }
}

/// See the module docs.
pub struct Engine {
    spec: ModelSpec,
    backend: ServeBackend,
    threads: usize,
    executor: BatchExecutor,
    hashes: RandomHashProvider,
    /// Reusable per-slot output tensors (grow-only, like the executor's
    /// stat slots).
    ys: Vec<Tensor<f32>>,
}

impl Engine {
    /// Builds an engine. `cache` enables the cross-request temporal
    /// cache on the executor's thread-local workspaces; `threads` is the
    /// per-batch fan-out (1 = inline on the batcher thread, which keeps
    /// the shared cache on a single workspace — the cross-request reuse
    /// configuration).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelSpec::validate`].
    pub fn new(
        spec: ModelSpec,
        backend: ServeBackend,
        cache: bool,
        threads: usize,
        hash_seed: u64,
    ) -> Result<Self> {
        spec.validate()?;
        let mut executor = BatchExecutor::new();
        executor.set_temporal_cache(cache);
        Ok(Engine {
            spec,
            backend,
            threads: threads.max(1),
            executor,
            hashes: RandomHashProvider::new(hash_seed),
            ys: Vec::new(),
        })
    }

    /// The served model spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The serving backend.
    pub fn backend(&self) -> ServeBackend {
        self.backend
    }

    /// Validates one request input against the model geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidInput`] naming the layer.
    pub fn check_input(&self, input: &Tensor<f32>) -> Result<()> {
        if input.shape().dims() != [self.spec.n, self.spec.k] {
            return Err(GreuseError::InvalidInput {
                layer: self.spec.layer.clone(),
                detail: format!(
                    "expected a {}x{} input, got {:?}",
                    self.spec.n,
                    self.spec.k,
                    input.shape().dims()
                ),
            });
        }
        Ok(())
    }

    /// Executes one admitted batch and returns one outcome per request,
    /// in order: `Ok(checksum)` of that request's output, or its typed
    /// error. `dense` selects the breaker-open fallback path.
    ///
    /// Whole-batch defects (ragged inputs — impossible when every input
    /// passed [`Engine::check_input`]) are replicated onto every slot, so
    /// the caller always gets `xs.len()` outcomes.
    pub fn run_batch(&mut self, xs: &[Tensor<f32>], dense: bool) -> Vec<Result<u64>> {
        if xs.is_empty() {
            return Vec::new();
        }
        if self.ys.len() < xs.len() {
            let (n, m) = (self.spec.n, self.spec.m);
            self.ys.resize_with(xs.len(), || Tensor::zeros(&[n, m]));
        }
        // The server-scoped fault point: fires once per reuse batch
        // (stall schedules slow the pipeline here; the dense path never
        // fires it, which is what lets the breaker recover).
        #[cfg(feature = "fault-inject")]
        if !dense {
            crate::faults::stall_point(crate::faults::FaultPoint::ServeBatch);
        }
        let pattern = (!dense).then_some(&self.spec.pattern);
        let (weights, hashes, layer) = (&self.spec.weights, &self.hashes, self.spec.layer.as_str());
        let ys = &mut self.ys[..xs.len()];
        let outcomes = match self.backend {
            ServeBackend::F32 => self.executor.execute_each_in::<ExecWorkspace>(
                xs,
                weights,
                pattern,
                hashes,
                self.threads,
                layer,
                ys,
            ),
            ServeBackend::Int8 => self.executor.execute_each_in::<QuantWorkspace>(
                xs,
                weights,
                pattern,
                hashes,
                self.threads,
                layer,
                ys,
            ),
        };
        match outcomes {
            Ok(slots) => slots
                .into_iter()
                .zip(ys.iter())
                .map(|(r, y)| r.map(|_stats| checksum_f32(y.as_slice())))
                .collect(),
            Err(e) => xs.iter().map(|_| Err(e.clone())).collect(),
        }
    }
}

/// FNV-1a over the bit patterns of `data` — the response identity used
/// by the bitwise-equivalence assertions (JSON float round-trips are
/// not bit-faithful; a checksum over `to_bits` is).
pub fn checksum_f32(data: &[f32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse_tensor::gemm_bt_f32;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0f32..1.0))
    }

    fn spec(n: usize, k: usize, m: usize) -> ModelSpec {
        ModelSpec {
            layer: "serve/test".into(),
            n,
            k,
            m,
            weights: rand_mat(m, k, 5),
            pattern: ReusePattern::conventional(k.min(8), 4),
        }
    }

    #[test]
    fn checksum_distinguishes_bit_patterns() {
        assert_eq!(checksum_f32(&[1.0, 2.0]), checksum_f32(&[1.0, 2.0]));
        assert_ne!(checksum_f32(&[1.0, 2.0]), checksum_f32(&[2.0, 1.0]));
        // -0.0 and +0.0 compare equal as floats but are different bits.
        assert_ne!(checksum_f32(&[0.0]), checksum_f32(&[-0.0]));
    }

    #[test]
    fn reuse_and_dense_paths_serve_batches() {
        let spec = spec(16, 12, 5);
        let w = spec.weights.clone();
        for backend in [ServeBackend::F32, ServeBackend::Int8] {
            let mut engine = Engine::new(spec.clone(), backend, true, 1, 42).unwrap();
            let xs: Vec<Tensor<f32>> = (0..3).map(|i| rand_mat(16, 12, 20 + i)).collect();
            let reuse = engine.run_batch(&xs, false);
            assert_eq!(reuse.len(), 3);
            assert!(reuse.iter().all(Result::is_ok), "{backend}: {reuse:?}");
            let dense = engine.run_batch(&xs, true);
            assert!(dense.iter().all(Result::is_ok), "{backend}: {dense:?}");
            // Determinism: the same batch on the same path reproduces
            // its checksums.
            assert_eq!(engine.run_batch(&xs, true), dense);
        }
        // The f32 dense path is the exact GEMM.
        let mut engine = Engine::new(spec.clone(), ServeBackend::F32, false, 1, 42).unwrap();
        let x = rand_mat(16, 12, 99);
        let got = engine.run_batch(std::slice::from_ref(&x), true);
        let exact = gemm_bt_f32(&x, &w).unwrap();
        assert_eq!(got[0].as_ref().unwrap(), &checksum_f32(exact.as_slice()));
    }

    #[test]
    fn input_validation_names_the_layer() {
        let engine = Engine::new(spec(16, 12, 5), ServeBackend::F32, false, 1, 1).unwrap();
        let err = engine.check_input(&rand_mat(4, 4, 0)).unwrap_err();
        match err {
            GreuseError::InvalidInput { layer, detail } => {
                assert_eq!(layer, "serve/test");
                assert!(detail.contains("16x12"));
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn bad_geometry_rejected_at_build() {
        let mut s = spec(16, 12, 5);
        s.weights = rand_mat(5, 11, 1);
        assert!(Engine::new(s, ServeBackend::F32, false, 1, 1).is_err());
    }
}
