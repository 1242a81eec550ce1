//! Phase-level operation counts and their latency on a given core.

use serde::{Deserialize, Serialize};

use crate::spec::McuSpec;

/// Operation counts of one convolution layer execution, split into the
/// paper's four phases (Table 3): transformation, clustering, GEMM and
/// recovery. A dense (no-reuse) execution simply has zero clustering and
/// recovery work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseOps {
    /// Elements moved by im2col plus any reuse-order layout permutation.
    pub transform_elems: u64,
    /// Multiply-accumulates of the hashing matrix product `X_i · Hash`.
    pub clustering_macs: u64,
    /// Number of neuron vectors pushed through online clustering.
    pub clustering_vectors: u64,
    /// Multiply-accumulates of the (centroid) GEMM.
    pub gemm_macs: u64,
    /// Elements written while recovering/duplicating centroid results.
    pub recover_elems: u64,
}

/// Fraction of the hashing MAC cycles hidden by the fused
/// hash-during-pack pipeline.
///
/// The staged pipeline pays for the hashing projection as a standalone
/// packed GEMM: pack the unit matrix, multiply, read the sign bits. The
/// fused pipeline folds the projection into the gather sweep the executor
/// performs anyway — each activation element updates the `H` projection
/// lanes while it is resident in registers, so the projection's memory
/// traffic (one full read of the unit matrix plus the pack write) and the
/// pack bookkeeping disappear; only the raw multiply-adds remain. On the
/// calibrated cores roughly half of the staged hashing cost is that
/// hidden traffic, hence 0.5. The discount deliberately leaves the other
/// half on the books: fused lane updates issue as scalar/short-vector
/// MACs rather than the packed kernel's peak-rate sweeps.
pub const FUSED_HASH_HIDDEN_FRAC: f64 = 0.5;

impl PhaseOps {
    /// Ops of a dense convolution with GEMM dimensions `N x K x M`
    /// (no clustering, no recovery).
    pub fn dense_conv(n: usize, k: usize, m: usize) -> Self {
        PhaseOps {
            transform_elems: (n * k) as u64,
            clustering_macs: 0,
            clustering_vectors: 0,
            gemm_macs: (n * k * m) as u64,
            recover_elems: 0,
        }
    }

    /// Element-wise sum (e.g. across the layers of a network).
    pub fn combined(&self, other: &PhaseOps) -> PhaseOps {
        PhaseOps {
            transform_elems: self.transform_elems + other.transform_elems,
            clustering_macs: self.clustering_macs + other.clustering_macs,
            clustering_vectors: self.clustering_vectors + other.clustering_vectors,
            gemm_macs: self.gemm_macs + other.gemm_macs,
            recover_elems: self.recover_elems + other.recover_elems,
        }
    }

    /// Total MACs across compute phases.
    pub fn total_macs(&self) -> u64 {
        self.clustering_macs + self.gemm_macs
    }

    /// The same counts as executed by the fused hash-during-pack
    /// pipeline: hashing MACs are discounted by
    /// [`FUSED_HASH_HIDDEN_FRAC`] (the traffic share hidden inside the
    /// gather sweep); every other phase is unchanged.
    pub fn fused(&self) -> PhaseOps {
        PhaseOps {
            clustering_macs: (self.clustering_macs as f64 * (1.0 - FUSED_HASH_HIDDEN_FRAC)).ceil()
                as u64,
            ..*self
        }
    }

    /// The same counts as executed by the streaming pipeline with a
    /// temporal reuse cache hitting on a `warm_frac` fraction of panels
    /// (`0.0..=1.0`), on top of the fused discount.
    ///
    /// A warm panel is recognized by comparing its bytes with the cached
    /// copy and replays its cached clustering and centroid-GEMM output:
    /// the hashing projection, the leader walk, the centroid fold, and
    /// the centroid GEMM are all skipped. Amortized over a stream,
    /// clustering MACs, clustering vectors, and GEMM MACs all shrink to
    /// their cold fraction `1 − warm_frac`; transformation and recovery
    /// run on every frame regardless.
    pub fn streamed(&self, warm_frac: f64) -> PhaseOps {
        let cold = (1.0 - warm_frac).clamp(0.0, 1.0);
        let fused = self.fused();
        PhaseOps {
            clustering_macs: (fused.clustering_macs as f64 * cold).ceil() as u64,
            clustering_vectors: (fused.clustering_vectors as f64 * cold).ceil() as u64,
            gemm_macs: (fused.gemm_macs as f64 * cold).ceil() as u64,
            ..fused
        }
    }
}

/// The paper's redundancy ratio `r_t = 1 − n_c / n` (§4.2): the fraction
/// of neuron vectors eliminated by clustering `n` vectors into `n_c`
/// clusters. Zero when nothing was clustered — the single definition used
/// by executor statistics and backend accumulators alike.
pub fn redundancy_ratio(n_vectors: u64, n_clusters: u64) -> f64 {
    if n_vectors == 0 {
        0.0
    } else {
        1.0 - n_clusters as f64 / n_vectors as f64
    }
}

/// Latency of one layer (or a whole network) split by phase, in
/// milliseconds — the unit the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseLatency {
    /// im2col + layout transformation.
    pub transform_ms: f64,
    /// LSH hashing + online clustering.
    pub clustering_ms: f64,
    /// The (centroid) GEMM.
    pub gemm_ms: f64,
    /// Output recovery/duplication.
    pub recover_ms: f64,
}

impl PhaseLatency {
    /// Total latency.
    pub fn total_ms(&self) -> f64 {
        self.transform_ms + self.clustering_ms + self.gemm_ms + self.recover_ms
    }

    /// Element-wise sum.
    pub fn combined(&self, other: &PhaseLatency) -> PhaseLatency {
        PhaseLatency {
            transform_ms: self.transform_ms + other.transform_ms,
            clustering_ms: self.clustering_ms + other.clustering_ms,
            gemm_ms: self.gemm_ms + other.gemm_ms,
            recover_ms: self.recover_ms + other.recover_ms,
        }
    }
}

/// Int8 MAC-rate multiplier over the baseline calibration: SMLAD issues
/// two 16-bit multiply-accumulates per cycle on sign-extended int8
/// operands, doubling the sustained MAC rate of the q15/f32-emulation
/// path the base model is calibrated to.
pub const INT8_MAC_FACTOR: f64 = 2.0;

/// Int8 memory-traffic multiplier: quantized elements are one byte, so
/// the memory-bound phases (im2col/layout moves, recovery writes,
/// clustering bookkeeping) stream half the bytes of the 16-bit-widened
/// baseline — their per-element cycle costs halve.
pub const INT8_MEM_FACTOR: f64 = 0.5;

impl McuSpec {
    /// Latency of the given operation counts on this core.
    ///
    /// Compute phases (hashing MACs, GEMM MACs) run at
    /// `macs_per_cycle · issue_factor`; memory-bound phases (transform,
    /// recovery, clustering bookkeeping) scale with `issue_factor` via
    /// the dual-issued load/store stream.
    pub fn latency(&self, ops: &PhaseOps) -> PhaseLatency {
        let mac_rate = self.macs_per_cycle * self.issue_factor;
        let mem_scale = 1.0 / self.issue_factor;
        let transform_cycles =
            ops.transform_elems as f64 * self.transform_cycles_per_elem * mem_scale;
        let clustering_cycles = ops.clustering_macs as f64 / mac_rate
            + ops.clustering_vectors as f64 * self.cluster_overhead_cycles * mem_scale;
        let gemm_cycles = ops.gemm_macs as f64 / mac_rate;
        let recover_cycles = ops.recover_elems as f64 * self.recover_cycles_per_elem * mem_scale;
        PhaseLatency {
            transform_ms: self.cycles_to_ms(transform_cycles),
            clustering_ms: self.cycles_to_ms(clustering_cycles),
            gemm_ms: self.cycles_to_ms(gemm_cycles),
            recover_ms: self.cycles_to_ms(recover_cycles),
        }
    }

    /// Latency of the given operation counts executed through the int8
    /// pipeline on this core.
    ///
    /// Feed it the op counts reported by the quantized executor (its
    /// `gemm_macs` count u8×i8 products, `clustering_macs` the hashing
    /// MACs over dequantized blocks, `transform_elems` the im2col plus
    /// quantization passes). Compute phases speed up by
    /// [`INT8_MAC_FACTOR`] (SMLAD dual MAC) and memory-bound phases by
    /// `1 /` [`INT8_MEM_FACTOR`] (one-byte elements) relative to
    /// [`McuSpec::latency`] — the CMSIS-NN q7-vs-q15 calibration.
    pub fn latency_int8(&self, ops: &PhaseOps) -> PhaseLatency {
        let mac_rate = self.macs_per_cycle * self.issue_factor * INT8_MAC_FACTOR;
        let mem_scale = INT8_MEM_FACTOR / self.issue_factor;
        let transform_cycles =
            ops.transform_elems as f64 * self.transform_cycles_per_elem * mem_scale;
        let clustering_cycles = ops.clustering_macs as f64 / mac_rate
            + ops.clustering_vectors as f64 * self.cluster_overhead_cycles * mem_scale;
        let gemm_cycles = ops.gemm_macs as f64 / mac_rate;
        let recover_cycles = ops.recover_elems as f64 * self.recover_cycles_per_elem * mem_scale;
        PhaseLatency {
            transform_ms: self.cycles_to_ms(transform_cycles),
            clustering_ms: self.cycles_to_ms(clustering_cycles),
            gemm_ms: self.cycles_to_ms(gemm_cycles),
            recover_ms: self.cycles_to_ms(recover_cycles),
        }
    }

    /// [`McuSpec::latency`] under the fused hash-during-pack pipeline:
    /// hashing MACs cost `1 −` [`FUSED_HASH_HIDDEN_FRAC`] of their
    /// staged cycles (see [`PhaseOps::fused`]).
    pub fn latency_fused(&self, ops: &PhaseOps) -> PhaseLatency {
        self.latency(&ops.fused())
    }

    /// [`McuSpec::latency_int8`] under the fused pipeline (see
    /// [`PhaseOps::fused`]).
    pub fn latency_int8_fused(&self, ops: &PhaseOps) -> PhaseLatency {
        self.latency_int8(&ops.fused())
    }

    /// Amortized per-frame latency of a streaming workload whose temporal
    /// cache hits on a `warm_frac` fraction of panels (see
    /// [`PhaseOps::streamed`]). `warm_frac = 0` reduces to
    /// [`McuSpec::latency_fused`].
    pub fn latency_streamed(&self, ops: &PhaseOps, warm_frac: f64) -> PhaseLatency {
        self.latency(&ops.streamed(warm_frac))
    }

    /// Int8 variant of [`McuSpec::latency_streamed`].
    pub fn latency_int8_streamed(&self, ops: &PhaseOps, warm_frac: f64) -> PhaseLatency {
        self.latency_int8(&ops.streamed(warm_frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Board;

    #[test]
    fn redundancy_ratio_formula() {
        assert_eq!(redundancy_ratio(0, 0), 0.0);
        assert_eq!(redundancy_ratio(10, 10), 0.0);
        assert!((redundancy_ratio(100, 25) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dense_conv_ops_formula() {
        let ops = PhaseOps::dense_conv(1024, 75, 64);
        assert_eq!(ops.transform_elems, 1024 * 75);
        assert_eq!(ops.gemm_macs, 1024 * 75 * 64);
        assert_eq!(ops.clustering_macs, 0);
    }

    #[test]
    fn calibration_near_table3_conv1() {
        // CifarNet Conv1 with a typical reuse config (L=20, H=3, r_t≈0.95):
        // paper Table 3 reports ≈ 15.8 / 17.3 / 3.8 / 13.15 ms on the F4.
        let f4 = Board::Stm32F469i.spec();
        let n: u64 = 1024;
        let k: u64 = 75;
        let m: u64 = 64;
        let l: u64 = 20;
        let h: u64 = 3;
        let sub = k.div_ceil(l); // ceil(75/20) = 4 submatrices
        let vectors = n * sub;
        let n_c = vectors / 20; // r_t = 0.95
        let ops = PhaseOps {
            transform_elems: n * k,
            clustering_macs: vectors * h * l,
            clustering_vectors: vectors,
            gemm_macs: n_c * l * m,
            recover_elems: n * m * sub,
        };
        let lat = f4.latency(&ops);
        assert!(
            (lat.transform_ms - 15.8).abs() < 4.0,
            "transform {}",
            lat.transform_ms
        );
        assert!(
            (lat.clustering_ms - 17.3).abs() < 5.0,
            "clustering {}",
            lat.clustering_ms
        );
        assert!((lat.gemm_ms - 3.8).abs() < 2.0, "gemm {}", lat.gemm_ms);
        assert!(
            (lat.recover_ms - 13.15).abs() < 4.0,
            "recover {}",
            lat.recover_ms
        );
        assert!(
            (lat.total_ms() - 50.0).abs() < 10.0,
            "total {}",
            lat.total_ms()
        );
    }

    #[test]
    fn f7_about_twice_as_fast_as_f4() {
        // §5.2: the F7's end-to-end time is less than half the F4's.
        let ops = PhaseOps::dense_conv(1024, 75, 64);
        let f4 = Board::Stm32F469i.spec().latency(&ops).total_ms();
        let f7 = Board::Stm32F767zi.spec().latency(&ops).total_ms();
        let ratio = f4 / f7;
        assert!(ratio > 1.8 && ratio < 2.3, "F4/F7 ratio {ratio}");
    }

    #[test]
    fn latency_monotone_in_ops() {
        let f4 = Board::Stm32F469i.spec();
        let small = PhaseOps::dense_conv(100, 10, 10);
        let large = PhaseOps::dense_conv(200, 10, 10);
        assert!(f4.latency(&large).total_ms() > f4.latency(&small).total_ms());
    }

    #[test]
    fn combined_adds() {
        let a = PhaseOps::dense_conv(10, 10, 10);
        let c = a.combined(&a);
        assert_eq!(c.gemm_macs, 2 * a.gemm_macs);
        let f4 = Board::Stm32F469i.spec();
        let la = f4.latency(&a);
        let lc = la.combined(&la);
        assert!((lc.total_ms() - 2.0 * la.total_ms()).abs() < 1e-12);
    }

    #[test]
    fn int8_latency_applies_documented_factors() {
        let f4 = Board::Stm32F469i.spec();
        let ops = PhaseOps {
            transform_elems: 10_000,
            clustering_macs: 50_000,
            clustering_vectors: 400,
            gemm_macs: 1_000_000,
            recover_elems: 20_000,
        };
        let f32_lat = f4.latency(&ops);
        let i8_lat = f4.latency_int8(&ops);
        // Pure-MAC phase: exactly INT8_MAC_FACTOR faster.
        assert!((f32_lat.gemm_ms / i8_lat.gemm_ms - INT8_MAC_FACTOR).abs() < 1e-9);
        // Pure-memory phases: exactly 1/INT8_MEM_FACTOR faster.
        assert!((f32_lat.transform_ms / i8_lat.transform_ms - 1.0 / INT8_MEM_FACTOR).abs() < 1e-9);
        assert!((f32_lat.recover_ms / i8_lat.recover_ms - 1.0 / INT8_MEM_FACTOR).abs() < 1e-9);
        // Mixed clustering phase lands between the two factors.
        let cluster_speedup = f32_lat.clustering_ms / i8_lat.clustering_ms;
        assert!(cluster_speedup >= INT8_MAC_FACTOR.min(1.0 / INT8_MEM_FACTOR) - 1e-9);
        assert!(cluster_speedup <= INT8_MAC_FACTOR.max(1.0 / INT8_MEM_FACTOR) + 1e-9);
        assert!(i8_lat.total_ms() < f32_lat.total_ms());
    }

    #[test]
    fn int8_latency_monotone_and_zero_on_empty() {
        let f7 = Board::Stm32F767zi.spec();
        assert_eq!(f7.latency_int8(&PhaseOps::default()).total_ms(), 0.0);
        let small = PhaseOps::dense_conv(100, 10, 10);
        let large = PhaseOps::dense_conv(200, 10, 10);
        assert!(f7.latency_int8(&large).total_ms() > f7.latency_int8(&small).total_ms());
    }

    #[test]
    fn streamed_ops_scale_cold_fraction() {
        let ops = PhaseOps {
            transform_elems: 10_000,
            clustering_macs: 40_000,
            clustering_vectors: 1_000,
            gemm_macs: 2_000_000,
            recover_elems: 20_000,
        };
        // warm_frac = 0 reduces exactly to the fused counts.
        assert_eq!(ops.streamed(0.0), ops.fused());
        let s = ops.streamed(0.75);
        assert_eq!(
            s.clustering_macs,
            (ops.fused().clustering_macs as f64 * 0.25).ceil() as u64
        );
        assert_eq!(s.clustering_vectors, 250);
        assert_eq!(s.gemm_macs, 500_000);
        assert_eq!(s.transform_elems, ops.transform_elems);
        assert_eq!(s.recover_elems, ops.recover_elems);
        // Fully warm: only the always-on phases remain.
        let w = ops.streamed(1.0);
        assert_eq!(w.clustering_macs, 0);
        assert_eq!(w.clustering_vectors, 0);
        assert_eq!(w.gemm_macs, 0);
        // Out-of-range fractions clamp instead of wrapping.
        assert_eq!(ops.streamed(2.0), ops.streamed(1.0));
        assert_eq!(ops.streamed(-1.0), ops.streamed(0.0));
    }

    #[test]
    fn streamed_latency_monotone_in_warm_fraction() {
        let f4 = Board::Stm32F469i.spec();
        let ops = PhaseOps {
            transform_elems: 10_000,
            clustering_macs: 40_000,
            clustering_vectors: 1_000,
            gemm_macs: 2_000_000,
            recover_elems: 20_000,
        };
        let cold = f4.latency_streamed(&ops, 0.0).total_ms();
        let half = f4.latency_streamed(&ops, 0.5).total_ms();
        let warm = f4.latency_streamed(&ops, 0.95).total_ms();
        assert!((cold - f4.latency_fused(&ops).total_ms()).abs() < 1e-12);
        assert!(cold > half && half > warm, "{cold} > {half} > {warm}");
        let i8_cold = f4.latency_int8_streamed(&ops, 0.0).total_ms();
        let i8_warm = f4.latency_int8_streamed(&ops, 0.95).total_ms();
        assert!(i8_cold > i8_warm);
        assert!((i8_cold - f4.latency_int8_fused(&ops).total_ms()).abs() < 1e-12);
    }

    #[test]
    fn reuse_saves_when_key_condition_holds() {
        // §4.2 key condition: H/D_out < r_t implies reuse beats dense.
        let (n, k, m) = (1024usize, 1600usize, 64usize);
        let l = 20u64;
        let h = 1u64; // H/D_out = 1/64
        let r_t = 0.9; // >> 1/64
        let sub = (k as u64).div_ceil(l);
        let vectors = n as u64 * sub;
        let n_c = ((1.0 - r_t) * vectors as f64) as u64;
        let reuse_ops = PhaseOps {
            transform_elems: (n * k) as u64,
            clustering_macs: vectors * h * l,
            clustering_vectors: vectors,
            gemm_macs: n_c * l * m as u64,
            recover_elems: n as u64 * m as u64 * sub,
        };
        let dense_ops = PhaseOps::dense_conv(n, k, m);
        let f4 = Board::Stm32F469i.spec();
        assert!(
            f4.latency(&reuse_ops).total_ms() < f4.latency(&dense_ops).total_ms(),
            "reuse should win under the key condition"
        );
    }
}
