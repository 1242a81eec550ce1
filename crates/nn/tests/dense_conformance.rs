//! Dense-path conformance: whole-network logits through [`DenseBackend`]
//! (the `X × Wᵀ` GEMM that reads weight rows in place and packs at most
//! the activations) must be **bitwise** equal to those of a backend
//! that materializes `Wᵀ` and runs the scalar reference kernel
//! [`gemm_ref_f32`].
//!
//! Both sum every output element's `k` products in ascending order from
//! `+0.0` with separate multiply and add; the reference's skip of
//! `a == 0.0` terms cannot change a sum that starts at `+0.0`. ResNet-18
//! at paper scale covers every shape class of the dense path: many
//! activation rows (early layers, lane-packed activations), inner
//! dimensions past one k-block, and fewer rows than one lane panel. The
//! 2 × 2 `conv5_x` maps (4 rows) and the classifier (1 row) take the
//! weight-stationary kernel on AVX2 hosts, with 8 output channels in the
//! lanes and nothing packed, and the lane-packed kernel elsewhere.

use greuse_nn::models::{ZooModel, ZooScale};
use greuse_nn::{ConvBackend, DenseBackend};
use greuse_tensor::{gemm_ref_f32, ConvSpec, Tensor, TensorError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `Y = X × Wᵀ` through the pre-packing scalar kernel on an explicit
/// transpose.
struct ReferenceBackend;

impl ConvBackend for ReferenceBackend {
    fn conv_gemm(
        &self,
        _layer: &str,
        _spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        gemm_ref_f32(x, &weights.transpose())
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_dense_matches_reference(model: ZooModel, images: usize, seed: u64) {
    let net = model.build(ZooScale::Paper, 10, seed);
    let shape = net.input_shape();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD5);
    for i in 0..images {
        let x = Tensor::from_fn(&shape, |_| rng.gen_range(-1.0f32..1.0));
        let dense = net.forward(&x, &DenseBackend).expect("dense forward");
        let reference = net
            .forward(&x, &ReferenceBackend)
            .expect("reference forward");
        assert_eq!(
            bits(&dense),
            bits(&reference),
            "{} image {i}: dense {dense:?} vs reference {reference:?}",
            model.id()
        );
    }
}

#[test]
fn resnet18_dense_logits_bitwise_equal_reference() {
    assert_dense_matches_reference(ZooModel::ResNet18, 2, 11);
}

#[test]
fn cifarnet_dense_logits_bitwise_equal_reference() {
    assert_dense_matches_reference(ZooModel::CifarNet, 4, 12);
}
