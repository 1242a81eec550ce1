//! # greuse-nn
//!
//! A from-scratch CNN substrate: layers with explicit forward/backward
//! passes, SGD training, the four DNNs the paper evaluates (CifarNet,
//! ZfNet, SqueezeNet with/without bypass) plus ResNet-18, and the model
//! transformations the paper applies before deployment (fixed-point and
//! INT8 linear quantization, channel pruning, conv+BN fusion) together
//! with FLOPs accounting and a small hyper-parameter grid search.
//!
//! The crate exists because the paper's reuse runtime must sit *inside*
//! convolution: every convolution layer routes its post-`im2col` GEMM
//! through a [`ConvBackend`], and the `greuse` core crate supplies a
//! backend that replaces the dense GEMM with clustering + centroid GEMM +
//! recovery. [`DenseBackend`] is the exact baseline (CMSIS-NN-style dense
//! convolution).
//!
//! ## Example
//!
//! ```
//! use greuse_nn::{models::CifarNet, DenseBackend, Network};
//! use greuse_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SmallRng::seed_from_u64(0);
//! let net = CifarNet::new(10, &mut rng);
//! let image = Tensor::zeros(&[3, 32, 32]);
//! let logits = net.forward(&image, &DenseBackend)?;
//! assert_eq!(logits.len(), 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backend;
mod error;
mod flops;
mod hpo;
mod init;
pub mod layers;
mod loss;
pub mod models;
mod network;
mod optim;
mod prune;
pub mod quant;
mod state;
mod train;

pub use backend::{ConvBackend, ConvCall, DenseBackend, RecordingBackend};
pub use error::NnError;
pub use flops::{model_flops, FlopsBreakdown};
pub use hpo::{grid_search, HpoConfig, HpoResult};
pub use init::he_normal;
pub use loss::{softmax, softmax_cross_entropy, SoftmaxCrossEntropy};
pub use network::{ConvLayerInfo, Network, TrainableNetwork};
pub use optim::{LrSchedule, Sgd, SgdConfig};
pub use prune::{prune_channels, PruneReport};
pub use quant::{ptq_int8, LayerInt8Params};
pub use state::StateDict;
pub use train::{
    evaluate_accuracy, evaluate_dense, fine_tune_epoch_with, train_epoch, EvalSummary, Example,
    TrainReport, Trainer, TrainerConfig,
};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NnError>;
