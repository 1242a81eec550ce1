//! Property-based tests for the generalized-reuse core: executor
//! invariants, analytic-model domination, and reorder algebra.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use greuse::{
    accuracy_bound, column_permutation, execute_reuse, execute_reuse_images, measured_error,
    pareto_front, row_permutation, ExecWorkspace, GuardConfig, PatternOps, RandomHashProvider,
    ReuseBackend, ReuseDirection, ReuseOrder, ReusePattern, ReuseStats, RowOrder,
};
use greuse_nn::ConvBackend;
use greuse_tensor::{gemm_f32, ConvSpec, Tensor};

/// A matrix with controlled redundancy: rows are noisy copies of a few
/// prototypes.
fn redundant(n: usize, k: usize, protos: usize, noise: f32, seed: u64) -> Tensor<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = Tensor::from_fn(&[protos.max(1), k], |_| rng.gen_range(-1.0f32..1.0));
    Tensor::from_fn(&[n, k], |i| {
        let (r, c) = (i / k, i % k);
        base[[r % protos.max(1), c]]
            + if noise > 0.0 {
                rng.gen_range(-noise..noise)
            } else {
                0.0
            }
    })
}

fn arb_pattern(n: usize, k: usize) -> impl Strategy<Value = ReusePattern> {
    (
        prop_oneof![
            Just(ReuseOrder::ChannelLast),
            Just(ReuseOrder::Tiled(3)),
            (0u32..100).prop_map(ReuseOrder::Random),
        ],
        prop_oneof![
            Just(RowOrder::Natural),
            Just(RowOrder::SpatialTiles(2)),
            (0u32..100).prop_map(RowOrder::Random),
        ],
        prop_oneof![
            Just(ReuseDirection::Vertical),
            Just(ReuseDirection::Horizontal)
        ],
        1usize..=16,
        1usize..=3,
        1usize..=16,
    )
        .prop_map(move |(order, row_order, direction, l, b, h)| {
            let block_rows = if direction == ReuseDirection::Horizontal {
                1
            } else {
                b
            };
            let l = match direction {
                ReuseDirection::Vertical => l.min(k).max(1),
                ReuseDirection::Horizontal => l.min(n).max(1),
            };
            ReusePattern {
                order,
                row_order,
                direction,
                l,
                block_rows,
                h,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executor_output_shape_and_rt_range(
        seed in any::<u64>(),
        pattern in arb_pattern(24, 18),
    ) {
        let x = redundant(24, 18, 5, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let w = Tensor::from_fn(&[7, 18], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 2);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        prop_assert_eq!(out.y.shape().dims(), &[24, 7]);
        prop_assert!(out.y.as_slice().iter().all(|v| v.is_finite()));
        let rt = out.stats.redundancy_ratio;
        prop_assert!((0.0..=1.0).contains(&rt), "rt {rt}");
        prop_assert!(out.stats.n_clusters <= out.stats.n_vectors);
    }

    #[test]
    fn zero_noise_duplicates_are_exact(
        seed in any::<u64>(),
        l in 3usize..=18,
        h in 1usize..=8,
    ) {
        // A single prototype row repeated: every cluster contains only
        // copies of that row, so any vertical 1-D pattern reproduces the
        // exact GEMM. (With several prototypes a small H may merge
        // *different* rows into one cluster — approximation, not error.)
        let x = redundant(24, 18, 1, 0.0, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let w = Tensor::from_fn(&[5, 18], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 4);
        let pattern = ReusePattern::conventional(l, h);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        let exact = gemm_f32(&x, &w.transpose()).unwrap();
        for (a, b) in out.y.as_slice().iter().zip(exact.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn bound_dominates_measured(
        seed in any::<u64>(),
        pattern in arb_pattern(24, 18),
    ) {
        let x = redundant(24, 18, 5, 0.08, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 5);
        let w = Tensor::from_fn(&[5, 18], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 6);
        let est = accuracy_bound(&x, &w, &pattern, &hashes).unwrap();
        let measured = measured_error(&x, &w, &pattern, &hashes).unwrap();
        // f32 accumulation slack: 5% + epsilon.
        prop_assert!(
            est.error_bound * 1.05 + 1e-4 >= measured,
            "bound {} < measured {measured} for {pattern}",
            est.error_bound
        );
    }

    #[test]
    fn derived_ops_match_executor_structure(
        seed in any::<u64>(),
        l in 2usize..=18,
        h in 1usize..=8,
        b in 1usize..=3,
    ) {
        let x = redundant(24, 18, 5, 0.02, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let w = Tensor::from_fn(&[5, 18], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 8);
        let pattern = ReusePattern::conventional(l, h).with_block_rows(b);
        let out = execute_reuse(&x, &w, &pattern, &hashes).unwrap();
        // The analytic model with the measured r_t must reproduce the
        // executor's clustering costs exactly and bound GEMM costs.
        let derived = PatternOps::derive(24, 18, 5, &pattern, out.stats.redundancy_ratio);
        prop_assert_eq!(derived.ops.clustering_vectors, out.stats.ops.clustering_vectors);
        prop_assert_eq!(derived.ops.clustering_macs, out.stats.ops.clustering_macs);
        prop_assert_eq!(derived.ops.transform_elems, out.stats.ops.transform_elems);
        prop_assert_eq!(derived.ops.recover_elems, out.stats.ops.recover_elems);
    }

    #[test]
    fn per_image_stats_fold_to_batch_totals(
        seed in any::<u64>(),
        images in 2usize..5,
        l in 2usize..=18,
        h in 1usize..=8,
        b in 1usize..=3,
    ) {
        // Folding per-image `ReuseStats` with `merge` must reproduce the
        // batch executor's report exactly: counters are sums and `r_t`
        // is recomputed from the summed totals, never averaged.
        let pattern = ReusePattern::conventional(l, h).with_block_rows(b);
        let hashes = RandomHashProvider::new(seed ^ 10);
        let mut rng = StdRng::seed_from_u64(seed ^ 11);
        let w = Tensor::from_fn(&[5, 18], |_| rng.gen_range(-1.0f32..1.0));
        let xs: Vec<Tensor<f32>> = (0..images)
            .map(|i| redundant(24, 18, 4, 0.03, seed.wrapping_add(i as u64)))
            .collect();

        let (ys, batch_stats) = execute_reuse_images(&xs, &w, &pattern, &hashes).unwrap();

        let mut folded = ReuseStats::default();
        for (x, y) in xs.iter().zip(&ys) {
            // Same layer name as the batch path, so the per-panel hash
            // families (and therefore the clustering) are identical.
            let single = ExecWorkspace::new()
                .execute(x, &w, None, &pattern, &hashes, "batch")
                .unwrap();
            prop_assert_eq!(&single.y, y);
            folded.merge(&single.stats);
        }

        prop_assert_eq!(folded, batch_stats);
        if folded.n_vectors > 0 {
            let from_totals = 1.0 - folded.n_clusters as f64 / folded.n_vectors as f64;
            prop_assert!((folded.redundancy_ratio - from_totals).abs() < 1e-12);
        }
    }

    #[test]
    fn column_permutations_bijective(
        c in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        seed in 0u32..50,
    ) {
        let spec = ConvSpec::new(c, 1, kh, kw);
        for order in [
            ReuseOrder::ChannelLast,
            ReuseOrder::ChannelFirst,
            ReuseOrder::KernelTranspose,
            ReuseOrder::Tiled(3),
            ReuseOrder::Random(seed),
        ] {
            let p = column_permutation(order, &spec);
            prop_assert_eq!(p.len(), spec.patch_len());
            prop_assert!(p.compose(&p.inverse()).unwrap().is_identity());
        }
    }

    #[test]
    fn row_permutations_bijective(h in 1usize..8, w in 1usize..8, t in 1u8..4) {
        for order in [RowOrder::Natural, RowOrder::SpatialTiles(t), RowOrder::Random(7)] {
            let p = row_permutation(order, h, w);
            prop_assert_eq!(p.len(), h * w);
            prop_assert!(p.compose(&p.inverse()).unwrap().is_identity());
        }
    }

    #[test]
    fn column_reorder_round_trips(
        c in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        n in 1usize..10,
        seed in 0u32..50,
        data_seed in any::<u64>(),
    ) {
        // apply ∘ invert = id on actual matrices, for every column order.
        let spec = ConvSpec::new(c, 1, kh, kw);
        let k = spec.patch_len();
        let mut rng = StdRng::seed_from_u64(data_seed);
        let x = Tensor::from_fn(&[n, k], |_| rng.gen_range(-5.0f32..5.0));
        for order in [
            ReuseOrder::ChannelLast,
            ReuseOrder::ChannelFirst,
            ReuseOrder::KernelTranspose,
            ReuseOrder::Tiled(3),
            ReuseOrder::Random(seed),
        ] {
            let p = column_permutation(order, &spec);
            let back = p.inverse().apply_cols(&p.apply_cols(&x).unwrap()).unwrap();
            prop_assert_eq!(back.as_slice(), x.as_slice());
        }
    }

    #[test]
    fn row_reorder_round_trips(
        h in 1usize..8,
        w in 1usize..8,
        m in 1usize..10,
        t in 1u8..4,
        seed in 0u32..50,
        data_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let x = Tensor::from_fn(&[h * w, m], |_| rng.gen_range(-5.0f32..5.0));
        for order in [RowOrder::Natural, RowOrder::SpatialTiles(t), RowOrder::Random(seed)] {
            let p = row_permutation(order, h, w);
            let back = p.inverse().apply_rows(&p.apply_rows(&x).unwrap()).unwrap();
            prop_assert_eq!(back.as_slice(), x.as_slice());
        }
    }

    #[test]
    fn composed_reorders_round_trip(
        c in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        oh in 1usize..6,
        ow in 1usize..6,
        t in 1u8..4,
        seed in 0u32..50,
        data_seed in any::<u64>(),
    ) {
        // A full layout transform is a row perm composed with a column
        // perm; undoing both (in either order — they act on different
        // axes) must restore the original im2col matrix. Composition of
        // two column perms must also invert correctly:
        // (p ∘ q)⁻¹ = q⁻¹ ∘ p⁻¹.
        let spec = ConvSpec::new(c, 1, kh, kw);
        let k = spec.patch_len();
        let mut rng = StdRng::seed_from_u64(data_seed);
        let x = Tensor::from_fn(&[oh * ow, k], |_| rng.gen_range(-5.0f32..5.0));

        let pc = column_permutation(ReuseOrder::Random(seed), &spec);
        let pr = row_permutation(RowOrder::SpatialTiles(t), oh, ow);
        let fwd = pr.apply_rows(&pc.apply_cols(&x).unwrap()).unwrap();
        let back = pc
            .inverse()
            .apply_cols(&pr.inverse().apply_rows(&fwd).unwrap())
            .unwrap();
        prop_assert_eq!(back.as_slice(), x.as_slice());

        let q = column_permutation(ReuseOrder::Tiled(3), &spec);
        let composed = pc.compose(&q).unwrap();
        prop_assert!(composed
            .compose(&q.inverse().compose(&pc.inverse()).unwrap())
            .unwrap()
            .is_identity());
        let via_composed = composed.apply_cols(&x).unwrap();
        // `pc.compose(&q)` applies `q` first, then `pc`.
        let via_steps = pc.apply_cols(&q.apply_cols(&x).unwrap()).unwrap();
        prop_assert_eq!(via_composed.as_slice(), via_steps.as_slice());
        let undone = composed.inverse().apply_cols(&via_composed).unwrap();
        prop_assert_eq!(undone.as_slice(), x.as_slice());
    }

    #[test]
    fn pareto_front_is_nondominated(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..30),
    ) {
        let front = pareto_front(&points);
        prop_assert!(!front.is_empty());
        // No front point is dominated by any other point.
        for &i in &front {
            for (j, &(lat, acc)) in points.iter().enumerate() {
                if i == j { continue; }
                let (li, ai) = points[i];
                let dominated = (lat < li && acc >= ai) || (lat <= li && acc > ai);
                prop_assert!(!dominated, "front point {i} dominated by {j}");
            }
        }
        // Front is sorted by latency.
        for w in front.windows(2) {
            prop_assert!(points[w[0]].0 <= points[w[1]].0);
        }
    }

    #[test]
    fn sanitize_guard_yields_finite_outputs(
        seed in any::<u64>(),
        n_bad in 1usize..30,
        h in 1usize..=8,
    ) {
        // However many NaN/Inf values land in the activations, a
        // sanitize-guarded backend must complete with an all-finite
        // output (whether the call runs reuse or the dense fallback).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = redundant(64, 75, 4, 0.05, seed);
        for _ in 0..n_bad {
            let i = rng.gen_range(0..x.as_slice().len());
            x.as_mut_slice()[i] =
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
        }
        let w = Tensor::from_fn(&[8, 75], |i| (i as f32 * 0.3).cos());
        let spec = greuse_nn::models::CifarNet::conv1_spec();
        let backend = ReuseBackend::new(RandomHashProvider::new(1))
            .with_pattern("conv", ReusePattern::conventional(25, h))
            .with_guard(GuardConfig::sanitize());
        let y = backend.conv_gemm("conv", &spec, &x, &w).unwrap();
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
