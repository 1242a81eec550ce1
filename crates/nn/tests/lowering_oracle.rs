//! Lowering oracle: every convolution geometry of the model zoo, run
//! through `Conv2d::forward` on [`DenseBackend`] (im2col expansion, packed
//! GEMM, bias epilogue), must equal the direct nested-loop convolution
//! [`conv2d_naive`] plus bias.
//!
//! `dense_conformance` cannot see a lowering bug, because both of its
//! sides share the im2col expansion and the epilogue; this oracle shares
//! neither. Both sides sum each output's products in ascending
//! `(ch, ky, kx)` order from `+0.0` and then add the bias once. The naive
//! kernel skips padding terms, where the GEMM adds `±0.0` products, so an
//! exact-zero sum can differ in its sign only: the comparison is `==`,
//! not bitwise.

use greuse_nn::layers::Conv2d;
use greuse_nn::models::{ZooModel, ZooScale};
use greuse_nn::DenseBackend;
use greuse_tensor::{conv2d_naive, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs one layer with a random input and random bias on both sides.
fn assert_lowering_matches_naive(
    model: ZooModel,
    conv: &Conv2d,
    input_hw: (usize, usize),
    rng: &mut SmallRng,
) {
    let spec = conv.spec;
    let mut conv = conv.clone();
    conv.bias = (0..spec.out_channels)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Tensor::from_fn(&[spec.in_channels, input_hw.0, input_hw.1], |_| {
        rng.gen_range(-1.0f32..1.0)
    });
    let lowered = conv.forward(&x, &DenseBackend).expect("lowered forward");
    let mut naive = conv2d_naive(&x, &conv.weights, &spec).expect("naive conv");
    let (oh, ow) = spec.output_hw(input_hw.0, input_hw.1).unwrap();
    for (i, v) in naive.as_mut_slice().iter_mut().enumerate() {
        *v += conv.bias[i / (oh * ow)];
    }
    assert_eq!(
        lowered.shape(),
        naive.shape(),
        "{} {}",
        model.id(),
        conv.name
    );
    for (i, (a, b)) in lowered.as_slice().iter().zip(naive.as_slice()).enumerate() {
        assert!(
            a == b,
            "{} {} ({spec:?}, input {input_hw:?}) element {i}: lowered {a} vs naive {b}",
            model.id(),
            conv.name
        );
    }
}

#[test]
fn every_zoo_conv_lowering_equals_naive_conv() {
    let mut rng = SmallRng::seed_from_u64(0x10E);
    let mut seen = Vec::new();
    for model in ZooModel::all() {
        let net = model.build(ZooScale::Paper, 10, 3);
        let infos = net.conv_layers();
        let convs = net.convs();
        assert_eq!(infos.len(), convs.len(), "{}", model.id());
        for (info, conv) in infos.iter().zip(convs) {
            assert_eq!(info.name, conv.name);
            let geometry = (info.spec, info.input_hw);
            if !seen.contains(&geometry) {
                assert_lowering_matches_naive(model, conv, info.input_hw, &mut rng);
                seen.push(geometry);
            }
        }
    }
    // 1x1, 3x3, 5x5 and 7x7 kernels, strides 1 and 2, paddings 0 to 3.
    assert!(seen.len() >= 30, "only {} geometries checked", seen.len());
}
