//! Property-based tests for the tensor substrate.

use proptest::prelude::*;

use greuse_tensor::{
    col2im_accumulate, conv2d_naive, gemm_bt_f32, gemm_bt_f32_into, gemm_bt_f32_strided_into_with,
    gemm_f32, gemm_q8_into_with, gemm_q8_ref, im2col, ActQuantParams, ConvSpec, GemmScratch,
    Permutation, Requant, Shape, Tensor, MR, NR, Q7,
};

fn small_mat(max_r: usize, max_c: usize) -> impl Strategy<Value = Tensor<f32>> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).unwrap())
    })
}

/// Naive triple-loop reference: strictly ascending-`k`, left-associated
/// accumulation per output element — the summation order the packed
/// microkernel is documented to preserve bit for bit.
fn gemm_naive(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a[[i, kk]] * b[[kk, j]];
            }
            c[[i, j]] = s;
        }
    }
    c
}

/// GEMM operand pairs whose shapes straddle the microkernel tile edges
/// (`MR`/`NR` multiples ± remainders) and include degenerate 1s, with
/// occasional all-zero operands.
fn tile_edge_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(MR),
        Just(MR + 1),
        Just(NR),
        Just(NR + 3),
        2usize..=40,
    ]
}

fn gemm_pair() -> impl Strategy<Value = (Tensor<f32>, Tensor<f32>)> {
    (
        tile_edge_dim(),
        tile_edge_dim(),
        tile_edge_dim(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_flat_map(|(m, k, n, zero_a, zero_b)| {
            let a = if zero_a {
                Just(vec![0.0f32; m * k]).boxed()
            } else {
                proptest::collection::vec(-10.0f32..10.0, m * k).boxed()
            };
            let b = if zero_b {
                Just(vec![0.0f32; k * n]).boxed()
            } else {
                proptest::collection::vec(-10.0f32..10.0, k * n).boxed()
            };
            (a, b).prop_map(move |(da, db)| {
                (
                    Tensor::from_vec(da, &[m, k]).unwrap(),
                    Tensor::from_vec(db, &[k, n]).unwrap(),
                )
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shape_offset_unravel_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4), pick in any::<u64>()) {
        let shape = Shape::new(&dims);
        let flat = (pick as usize) % shape.len();
        let idx = shape.unravel(flat).unwrap();
        prop_assert_eq!(shape.offset(&idx).unwrap(), flat);
    }

    #[test]
    fn permutation_roundtrip_rows(t in small_mat(8, 8), seed in any::<u64>()) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let p = Permutation::random(t.rows(), &mut rng);
        let back = p.inverse().apply_rows(&p.apply_rows(&t).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn permutation_roundtrip_cols(t in small_mat(8, 8), seed in any::<u64>()) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let p = Permutation::random(t.cols(), &mut rng);
        let back = p.inverse().apply_cols(&p.apply_cols(&t).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn permutation_preserves_multiset(t in small_mat(6, 6), seed in any::<u64>()) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let p = Permutation::random(t.cols(), &mut rng);
        let permuted = p.apply_cols(&t).unwrap();
        let mut a: Vec<u32> = t.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut b: Vec<u32> = permuted.as_slice().iter().map(|v| v.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gemm_identity(t in small_mat(10, 10)) {
        let n = t.cols();
        let eye = Tensor::from_fn(&[n, n], |i| if i / n == i % n { 1.0 } else { 0.0 });
        let out = gemm_f32(&t, &eye).unwrap();
        for (a, b) in out.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_distributes_over_addition(seed in any::<u64>()) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        use rand::Rng;
        let a = Tensor::from_fn(&[5, 4], |_| rng.gen_range(-2.0f32..2.0));
        let b1 = Tensor::from_fn(&[4, 3], |_| rng.gen_range(-1.0f32..1.0));
        let b2 = Tensor::from_fn(&[4, 3], |_| rng.gen_range(-1.0f32..1.0));
        let mut sum = b1.clone();
        sum.add_assign(&b2).unwrap();
        let lhs = gemm_f32(&a, &sum).unwrap();
        let mut rhs = gemm_f32(&a, &b1).unwrap();
        rhs.add_assign(&gemm_f32(&a, &b2).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_gemm_equals_direct_conv(
        c in 1usize..3,
        m in 1usize..3,
        hw in 4usize..8,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        use rand::Rng;
        let spec = ConvSpec::new(c, m, 3, 3).with_padding(pad);
        let img = Tensor::from_fn(&[c, hw, hw], |_| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(&[m, spec.patch_len()], |_| rng.gen_range(-1.0f32..1.0));
        let x = im2col(&img, &spec).unwrap();
        let y = gemm_f32(&x, &w.transpose()).unwrap();
        let direct = conv2d_naive(&img, &w, &spec).unwrap();
        let (oh, ow) = spec.output_hw(hw, hw).unwrap();
        for mm in 0..m {
            for oy in 0..oh {
                for ox in 0..ow {
                    let a = y[[oy * ow + ox, mm]];
                    let b = direct[[mm, oy, ox]];
                    prop_assert!((a - b).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn col2im_adjoint_property(hw in 5usize..8, seed in any::<u64>()) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        use rand::Rng;
        let spec = ConvSpec::new(2, 1, 3, 3).with_padding(1);
        let img = Tensor::from_fn(&[2, hw, hw], |_| rng.gen_range(-1.0f32..1.0));
        let x = im2col(&img, &spec).unwrap();
        let y = Tensor::from_fn(x.shape().dims(), |_| rng.gen_range(-1.0f32..1.0));
        let lhs: f32 = x.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im_accumulate(&y, &spec, hw, hw).unwrap();
        let rhs: f32 = img.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn q7_roundtrip_error_bounded(v in -0.99f32..0.99, bits in 1u8..=7) {
        let fmt = Q7::new(bits).unwrap();
        let err = (fmt.dequantize(fmt.quantize(v)) - v).abs();
        prop_assert!(err <= fmt.max_rounding_error() + 1e-6);
    }

    #[test]
    fn transpose_involution(t in small_mat(7, 9)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn packed_gemm_equals_naive_bitwise(pair in gemm_pair()) {
        let (a, b) = (&pair.0, &pair.1);
        let packed = gemm_f32(a, b).unwrap();
        let naive = gemm_naive(a, b);
        prop_assert_eq!(packed.as_slice(), naive.as_slice());
    }

    #[test]
    fn gemm_bt_equals_naive_on_transpose_bitwise(pair in gemm_pair()) {
        let (a, b) = (&pair.0, &pair.1);
        let bt = b.transpose();
        let via_bt = gemm_bt_f32(a, &bt).unwrap();
        let naive = gemm_naive(a, b);
        prop_assert_eq!(via_bt.as_slice(), naive.as_slice());
    }

    #[test]
    fn quantize_dequantize_error_at_most_half_scale(
        vals in proptest::collection::vec(-8.0f32..8.0, 1..64),
    ) {
        let p = ActQuantParams::from_data(&vals).unwrap();
        for &v in &vals {
            // Every observed value is inside the covered range, so the
            // round trip is pure rounding: error ≤ scale / 2.
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            prop_assert!(err <= p.scale / 2.0 + 1e-6, "v={v} err={err} scale={}", p.scale);
        }
    }

    #[test]
    fn packed_q8_gemm_equals_naive_i32_bitwise(
        m in tile_edge_dim(),
        k in tile_edge_dim(),
        n in tile_edge_dim(),
        seed in any::<u64>(),
    ) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<u8> = (0..m * k).map(|_| rng.gen_range(0u8..=255)).collect();
        let bt: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-128i8..=127)).collect();
        let want = gemm_q8_ref(&a, &bt, m, k, n);
        let mut c = vec![0i32; m * n];
        let mut scratch = GemmScratch::new();
        gemm_q8_into_with(&a, &bt, &mut c, m, k, n, &mut scratch);
        prop_assert_eq!(c, want);
    }

    #[test]
    fn requant_saturating_rounds_at_i8_boundaries(
        m in 1e-6f32..0.999,
        acc in any::<i32>(),
    ) {
        let rq = Requant::new(m).unwrap();
        let want = (f64::from(acc) * rq.effective_multiplier())
            .round()
            .clamp(-128.0, 127.0) as i8;
        prop_assert_eq!(rq.apply(acc), want);
        // Explicit boundary probes: first codes past each end saturate.
        let em = rq.effective_multiplier();
        let hi = (127.5 / em).ceil() as i64;
        if hi <= i64::from(i32::MAX) {
            prop_assert_eq!(rq.apply(hi as i32), 127);
        }
        let lo = (-128.5 / em).floor() as i64;
        if lo >= i64::from(i32::MIN) {
            prop_assert_eq!(rq.apply(lo as i32), -128);
        }
    }

    /// `y = A x` both ways round: a one-column row-major product and a
    /// one-row transposed product (`yᵀ = xᵀ Aᵀ`, as `Linear` runs it).
    #[test]
    fn matvec_equals_naive_bitwise(a in small_mat(24, 24)) {
        let x: Vec<f32> = (0..a.cols()).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let xm = Tensor::from_vec(x.clone(), &[a.cols(), 1]).unwrap();
        let naive = gemm_naive(&a, &xm);
        let y = gemm_f32(&a, &xm).unwrap();
        prop_assert_eq!(naive.as_slice(), y.as_slice());
        let xr = Tensor::from_vec(x, &[1, a.cols()]).unwrap();
        let yt = gemm_bt_f32(&xr, &a).unwrap();
        prop_assert_eq!(naive.as_slice(), yt.as_slice());
    }
}

/// Deterministic values in `[-10, 10)` with roughly one in eight exactly
/// zero (post-ReLU activations), for operands too large to draw
/// element-wise.
fn seeded_vals(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 61) == 0 {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 20.0 - 10.0
            }
        })
        .collect()
}

/// Activation-row counts on the transposed path: fewer rows than one
/// lane panel, one panel exactly, and up to 130 rows, which crosses the
/// lane block whatever its size up to 128 rows. The exact block edges
/// are pinned by the `pack` unit tests.
fn bt_rows_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..NR, Just(NR), (NR + 1)..=130]
}

/// Inner dimensions from tiny to 2100, past two k-blocks of any size up
/// to 1024.
fn bt_inner_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=9, 10usize..=2100]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_bt_equals_naive_bitwise_on_transposed_path_edges(
        m in bt_rows_dim(),
        k in bt_inner_dim(),
        n in 1usize..=(3 * MR + 1),
        pad in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Weight rows at stride ldb = k + pad: n < MR and partial
        // MR tiles, m < NR and partial lane panels, k across the
        // k-block, m across the lane block.
        let ldb = k + pad;
        let a = Tensor::from_vec(seeded_vals(m * k, seed), &[m, k]).unwrap();
        let bt_strided = seeded_vals((n - 1) * ldb + k, seed ^ 0xB7);
        let b = Tensor::from_fn(&[k, n], |i| bt_strided[(i % n) * ldb + i / n]);
        let naive = gemm_naive(&a, &b);

        let mut scratch = GemmScratch::new();
        let mut c = vec![f32::NAN; m * n];
        gemm_bt_f32_strided_into_with(a.as_slice(), &bt_strided, ldb, &mut c, m, k, n, &mut scratch)
            .unwrap();
        prop_assert_eq!(&c[..], naive.as_slice());

        let bt = b.transpose();
        let via_bt = gemm_bt_f32(&a, &bt).unwrap();
        prop_assert_eq!(via_bt.as_slice(), naive.as_slice());
        let mut c = vec![f32::NAN; m * n];
        gemm_bt_f32_into(a.as_slice(), bt.as_slice(), &mut c, m, k, n).unwrap();
        prop_assert_eq!(&c[..], naive.as_slice());
    }
}
