//! Network-level tests of [`crate::QuantizedBackend`], the int8 instance of
//! [`crate::GuardedBackend`]: logits stay close to f32 dense, patterned
//! layers record statistics, inference is deterministic and thread-safe,
//! and a guarded low-r_t layer falls back to the dense int8 path.
//!
//! The backend itself lives in `backend.rs`; this module holds tests only.

#[cfg(test)]
mod tests {
    use crate::guard::{FallbackReason, GuardConfig};
    use crate::hash_provider::RandomHashProvider;
    use crate::pattern::ReusePattern;
    use crate::QuantizedBackend;
    use greuse_nn::{models::CifarNet, ConvBackend, DenseBackend, Network};
    use greuse_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net_and_image() -> (CifarNet, Tensor<f32>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = CifarNet::new(10, &mut rng);
        let image = Tensor::from_fn(&[3, 32, 32], |i| ((i / 97) as f32 * 0.3).sin());
        (net, image)
    }

    #[test]
    fn quantized_dense_close_to_f32_dense() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(1));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        // int8 conv layers drift from f32, but logits must stay close on
        // the scale of the output.
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.15 * scale, "{x} vs {y}");
        }
        assert!(backend.stats().is_empty());
    }

    #[test]
    fn patterned_layer_records_stats_and_stays_close() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(2))
            .with_pattern("conv1", ReusePattern::conventional(25, 48));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &DenseBackend).unwrap();
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.2 * scale, "{x} vs {y}");
        }
        let stats = backend.layer_stats("conv1").unwrap();
        assert_eq!(stats.calls, 1);
        assert!(stats.n_vectors > 0);
        assert_eq!(backend.layer_tag("conv1"), Some(1));
    }

    #[test]
    fn deterministic_across_calls_and_stats_reset() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(3))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
        let a = net.forward(&image, &backend).unwrap();
        let b = net.forward(&image, &backend).unwrap();
        assert_eq!(a, b);
        let s = backend.layer_stats("conv1").unwrap();
        assert_eq!(s.calls, 2);
        backend.reset_stats();
        assert!(backend.stats().is_empty());
    }

    #[test]
    fn concurrent_inference_is_stable() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(5))
            .with_pattern("conv1", ReusePattern::conventional(15, 2));
        let reference = net.forward(&image, &backend).unwrap();
        backend.reset_stats();
        crossbeam::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..2 {
                        let y = net.forward(&image, &backend).unwrap();
                        assert_eq!(y, reference);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(backend.layer_stats("conv1").unwrap().calls, 8);
    }

    #[test]
    fn other_weights_under_a_known_layer_name_rebuild_the_codes() {
        let (net, image) = net_and_image();
        let backend = QuantizedBackend::new(RandomHashProvider::new(7));
        // A synthetic GEMM named and shaped like CifarNet's conv1
        // (1024 x 75 x 64) but with other weights runs first, so the
        // forward's conv1 finds an entry of its name and shape.
        let x = Tensor::from_fn(&[1024, 75], |i| (i as f32 * 0.13).sin());
        let w = Tensor::from_fn(&[64, 75], |i| (i as f32 * 0.29).cos());
        backend
            .conv_gemm("conv1", &CifarNet::conv1_spec(), &x, &w)
            .unwrap();
        let got = net.forward(&image, &backend).unwrap();
        let fresh = QuantizedBackend::new(RandomHashProvider::new(7));
        assert_eq!(got, net.forward(&image, &fresh).unwrap());
    }

    #[test]
    fn guarded_quantized_layer_falls_back_to_dense_quantized() {
        let (net, image) = net_and_image();
        // H = 64 = D_out: break-even r_t = 1.0, unreachable, so every
        // guarded call must re-run the dense int8 path — identical to an
        // unpatterned quantized backend.
        let guarded = QuantizedBackend::new(RandomHashProvider::new(6))
            .with_pattern("conv1", ReusePattern::conventional(25, 64))
            .with_guard(GuardConfig::strict());
        let plain = QuantizedBackend::new(RandomHashProvider::new(6));
        let a = net.forward(&image, &guarded).unwrap();
        let b = net.forward(&image, &plain).unwrap();
        assert_eq!(a, b);
        let s = guarded.layer_stats("conv1").unwrap();
        assert!(s.fallbacks >= 1, "fallbacks = {}", s.fallbacks);
        assert_eq!(
            guarded.layer_fallback_reason("conv1"),
            Some(FallbackReason::LowRedundancy)
        );
    }
}
