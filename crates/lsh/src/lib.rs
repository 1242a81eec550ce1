//! # greuse-lsh
//!
//! Locality-sensitive hashing and online clustering, the engine behind
//! reuse-based DNN inference (paper §2 and §3.1).
//!
//! A [`HashFamily`] holds `H` hash vectors of length `L`; each input vector
//! maps to an `H`-bit [`Signature`] by the sign of `v·x` (Equation 1 of the
//! paper). Vectors with equal signatures fall into the same cluster; the
//! centroid of each cluster stands in for its members during GEMM.
//!
//! Two ways to obtain hash vectors are provided, mirroring the paper:
//!
//! * [`HashFamily::random`] — random Gaussian projections, used by the
//!   lightweight profiling pass of the analytic models (§4.1);
//! * [`HashFamily::data_adapted`] — vectors aligned with the top principal
//!   directions of sampled neuron vectors, our stand-in for TREC's
//!   *learned* hash vectors (higher and more stable redundancy ratio at
//!   equal error; see DESIGN.md substitution table).
//!
//! ## Example
//!
//! ```
//! use greuse_lsh::{HashFamily, cluster_rows};
//! use greuse_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SmallRng::seed_from_u64(0);
//! // Two copies of the same 4 rows: at most 4 clusters can emerge.
//! let base = Tensor::from_fn(&[4, 8], |i| (i as f32 * 0.37).sin());
//! let mut data = base.as_slice().to_vec();
//! data.extend_from_slice(base.as_slice());
//! let x = Tensor::from_vec(data, &[8, 8])?;
//! let family = HashFamily::random(3, 8, &mut rng);
//! let clustering = cluster_rows(&x, &family)?;
//! assert!(clustering.num_clusters() <= 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cluster;
mod family;
mod fused;
mod pca;

pub use cluster::{
    cluster_rows, cluster_vectors, refine_threshold, ClusterScratch, Clustering, SigBuildHasher,
    SigHasher,
};
pub use family::{signatures_match, HashFamily, SigScratch, Signature};
pub use fused::FusedPanelSource;
pub use pca::top_principal_directions;
