//! # greuse — Generalized Reuse Patterns for Efficient DNN on Microcontrollers
//!
//! Reproduction of the ASPLOS'25 paper by Liu, Ren and Shen. The crate
//! implements:
//!
//! * **Generalized reuse patterns** ([`ReusePattern`]): the 3-D reuse
//!   space of *reuse order* (row/column reorders of the im2col matrix,
//!   §3.3), *reuse direction* (vertical M-1 / horizontal M-2, §3.4) and
//!   *reuse granularity* (1-D neuron vectors generalized to 2-D neuron
//!   blocks, §3.5);
//! * **Reuse executors** ([`execute_reuse`]) that approximate a
//!   convolution's post-im2col GEMM by LSH clustering + centroid GEMM +
//!   recovery, exactly as Figures 3 and 7 describe;
//! * **Analytic models** ([`accuracy_bound`], [`LatencyModel`]) bounding
//!   a pattern's accuracy loss via the squared Frobenius norm /
//!   eigenvalue bound of §4.1 and predicting its latency from the
//!   redundancy ratio of §4.2;
//! * **The analytic–empirical selection workflow** ([`workflow`]) of
//!   §4.3: generate candidates from a [`Scope`], profile cheaply, prune
//!   with the models, then fully check only the promising set;
//! * **A [`ReuseBackend`]** plugging per-layer patterns into any
//!   `greuse-nn` network, so end-to-end accuracy under reuse is a real
//!   measured quantity.
//!
//! ## Quickstart
//!
//! ```
//! use greuse::{execute_reuse, HashProvider, RandomHashProvider, ReusePattern};
//! use greuse_tensor::{gemm_f32, Tensor};
//!
//! # fn main() -> Result<(), greuse::GreuseError> {
//! // A 64x32 im2col matrix with duplicated rows (lots of redundancy).
//! let base = Tensor::from_fn(&[8, 32], |i| ((i % 97) as f32 * 0.21).sin());
//! let x = Tensor::from_fn(&[64, 32], |i| base.as_slice()[i % 256]);
//! let w = Tensor::from_fn(&[16, 32], |i| ((i % 31) as f32 * 0.13).cos());
//!
//! let pattern = ReusePattern::conventional(16, 4); // deep-reuse baseline
//! let hashes = RandomHashProvider::new(7);
//! let out = execute_reuse(&x, &w, &pattern, &hashes)?;
//! let exact = gemm_f32(&x, &w.transpose())?;
//! assert!(out.stats.redundancy_ratio > 0.5); // found the duplicates
//! # let _ = exact;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backend;
mod error;
mod exec;
#[cfg(feature = "fault-inject")]
pub mod faults;
mod guard;
mod hash_provider;
mod models;
mod ood;
mod pattern;
mod plan;
#[cfg(test)]
mod qbackend;
mod reorder;
mod report;
mod scope;
mod select;
pub mod serve;
pub mod workflow;

pub use backend::{GuardedBackend, LayerStats, QuantizedBackend, ReuseBackend};
pub use error::GreuseError;
pub use exec::{
    execute_reuse, execute_reuse_batch, execute_reuse_images, BatchExecutor, BatchStacking,
    ExecWorkspace, QuantWorkspace, ReuseOutput, ReuseStats,
};
pub use guard::{
    breakeven_rt, breakeven_rt_fused, first_non_finite, sanitize_non_finite, should_fall_back,
    should_fall_back_fused, validate_gemm_operands, FallbackReason, GuardConfig, GuardPolicy,
};
pub use hash_provider::{
    AdaptedHashProvider, EitherHashProvider, HashProvider, RandomHashProvider,
};
pub use models::accuracy::{
    accuracy_bound, accuracy_bound_with_spec, measured_error, measured_error_with_spec,
    AccuracyEstimate,
};
pub use models::latency::{
    key_condition_holds, key_condition_holds_fused, LatencyModel, PatternOps,
};
pub use ood::{max_softmax_detection, OodReport};
pub use pattern::{ReuseDirection, ReuseOrder, ReusePattern, RowOrder};
pub use plan::DeploymentPlan;
pub use reorder::{column_permutation, row_permutation};
pub use report::{
    network_report, LayerReport, NetworkReport, DRIFT_THRESHOLD, REPORT_SCHEMA_VERSION,
};
pub use scope::Scope;
pub use select::{pareto_front, rank_patterns, PatternScore, SelectionStrategy};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, GreuseError>;
