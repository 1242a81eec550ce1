//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer offers:
//!
//! * `forward(&self, x, backend)` — a pure inference pass (convolutions
//!   route their GEMM through the [`crate::ConvBackend`]);
//! * `forward_train(&mut self, x)` — a caching pass used during training;
//! * `backward(&mut self, grad_out)` — consumes the cache, accumulates
//!   parameter gradients, and returns the input gradient.
//!
//! Backward passes are verified against finite differences in the tests.

mod activation;
mod batchnorm;
mod conv;
mod fc;
mod pool;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use fc::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};
