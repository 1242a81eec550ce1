//! Property-based equivalence of the executors' calls, which all hash
//! through one path.
//!
//! Every panel is hashed by the fused sweep (each gathered panel hashed
//! and norm-scanned in one pass, its signatures fed to the clusterer via
//! `cluster_presigned`), whatever the call. What differs between calls
//! is where the hash families come from: a fresh workspace's first call
//! builds them, later calls of a data-independent provider find them
//! resident (and may read int8 codes in place), and a data-dependent
//! provider is asked for them on every call. The contract is
//! **bit-identity** across all of these: identical output bits and
//! identical `ReuseStats` for every shape, pattern, reorder, direction
//! and block height. (The test names keep the word *staged*, the name of
//! the first-call pipeline these properties were first written against.)
//!
//! On the int8 path the same property holds, and the output must
//! additionally stay within the documented worst-case quantization
//! tolerance of the f32 reference — the same bound the golden-vector
//! conformance suite enforces.
//!
//! The first two properties compare a fresh workspace's first call with
//! the same workspace's second call and with the first call of a second
//! fresh workspace; the last two compare a data-dependent provider's
//! calls with a data-independent run of the same families.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use greuse::{
    ExecWorkspace, HashProvider, QuantWorkspace, RandomHashProvider, ReuseDirection, ReuseOrder,
    ReusePattern, ReuseStats, RowOrder,
};
use greuse_lsh::HashFamily;
use greuse_tensor::{gemm_ref_f32, Tensor};

/// Serves [`RandomHashProvider`]'s families but reports them as data
/// dependent, so the executors ask it on every call and never keep a
/// family resident — the path a data-adapted provider takes, with
/// families a data-independent run can be compared against bit for bit.
struct DataDependent(RandomHashProvider);

impl HashProvider for DataDependent {
    fn family(
        &self,
        layer: &str,
        panel: usize,
        h: usize,
        data: &Tensor<f32>,
    ) -> greuse::Result<HashFamily> {
        self.0.family(layer, panel, h, data)
    }

    fn name(&self) -> &'static str {
        "random-as-data-dependent"
    }
}

/// A matrix with controlled redundancy: rows are noisy copies of a few
/// prototypes (same construction as the core property suite).
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

/// Randomized GEMM shape plus a pattern valid for it. Shapes are small
/// enough for 32 cases but deliberately not multiples of the block
/// height, so ragged panel widths and tail rows are exercised.
fn arb_case() -> impl Strategy<Value = (usize, usize, usize, ReusePattern)> {
    (8usize..=33, 6usize..=25, 3usize..=9)
        .prop_flat_map(|(n, k, m)| (Just(n), Just(k), Just(m), arb_pattern(n, k)))
}

/// Documented worst-case dense-quantization tolerance (the bound the
/// golden conformance suite derives in its module docs).
fn quant_tolerance(x: &Tensor<f32>, w: &Tensor<f32>, y: &[f32]) -> f32 {
    let k = x.cols() as f32;
    let ax = x.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let aw = w.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let ay = y.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let s_a = 2.0 * ax / 255.0;
    let s_w = aw / 127.0;
    k * (s_a / 2.0 * aw + s_w / 2.0 * ax) + ay / 127.0
}

/// Scalar-reference `x · wᵀ`, the f32 ground truth for the int8 bound.
fn reference_output(x: &Tensor<f32>, w: &Tensor<f32>) -> Tensor<f32> {
    let (m, k) = (w.rows(), w.cols());
    let wt = Tensor::from_fn(&[k, m], |i| {
        let (r, c) = (i / m, i % m);
        w.as_slice()[c * k + r]
    });
    gemm_ref_f32(x, &wt).expect("reference gemm")
}

/// Requires `other`'s output bits and stats to equal the first run's.
fn check_identical(
    first: &(Vec<f32>, ReuseStats),
    other: &(Vec<f32>, ReuseStats),
    what: &str,
    pattern: &ReusePattern,
) -> Result<(), TestCaseError> {
    for (i, (a, b)) in first.0.iter().zip(&other.0).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "y[{}] diverged: first call {} vs {} {} under {}",
            i,
            a,
            what,
            b,
            pattern
        );
    }
    prop_assert_eq!(first.1, other.1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_f32_bit_identical_to_staged(
        seed in any::<u64>(),
        case in arb_case(),
    ) {
        let (n, k, m, pattern) = case;
        let x = redundant(n, k, 5, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let w = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 2);

        let run = |ws: &mut ExecWorkspace| {
            let mut y = vec![0.0f32; n * m];
            let stats = ws
                .execute_into(&x, &w, None, &pattern, &hashes, "prop", &mut y)
                .unwrap();
            (y, stats)
        };
        let mut ws = ExecWorkspace::new();
        let first = run(&mut ws);
        let resident = run(&mut ws);
        let fresh = run(&mut ExecWorkspace::new());
        for (what, other) in [("resident", &resident), ("fresh first call", &fresh)] {
            check_identical(&first, other, what, &pattern)?;
        }
    }

    #[test]
    fn fused_int8_bit_identical_to_staged_and_within_tolerance(
        seed in any::<u64>(),
        n in 8usize..=33,
        k in 6usize..=25,
        m in 3usize..=9,
        l in 2usize..=16,
        b in 1usize..=3,
        h in 1usize..=12,
    ) {
        // The int8 executor implements the vertical (M-1) direction;
        // other directions run dense-quantized, where there is nothing
        // to hash.
        let pattern = ReusePattern::conventional(l.min(k), h).with_block_rows(b);
        let x = redundant(n, k, 4, 0.03, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let w = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let hashes = RandomHashProvider::new(seed ^ 4);

        let run = |ws: &mut QuantWorkspace| {
            let mut y = vec![0.0f32; n * m];
            let stats = ws
                .execute_into(&x, &w, Some(&pattern), &hashes, "prop", &mut y)
                .unwrap();
            (y, stats)
        };
        let mut ws = QuantWorkspace::new();
        let first = run(&mut ws);
        let resident = run(&mut ws);
        let fresh = run(&mut QuantWorkspace::new());
        // Gathered or read in place, the codes are dequantized with one
        // expression, so the int8 path is bit-identical too, not merely
        // tolerance-close.
        for (what, other) in [("resident", &resident), ("fresh first call", &fresh)] {
            check_identical(&first, other, what, &pattern)?;
        }

        // And the resident path stays within the documented quantization
        // bound of the f32 reference (same bound as the golden
        // conformance suite). The bound covers quantization error only,
        // so it is checked on exact-duplicate activations where the
        // clustering itself is lossless — noisy prototypes above stress
        // bit-identity, not the accuracy bound.
        let xd = redundant(n, k, 1, 0.0, seed ^ 5);
        let mut yd = vec![0.0f32; n * m];
        for _ in 0..2 {
            ws
                .execute_into(&xd, &w, Some(&pattern), &hashes, "prop-exact", &mut yd)
                .unwrap();
        }
        let reference = reference_output(&xd, &w);
        let tol = quant_tolerance(&xd, &w, reference.as_slice());
        let worst = yd
            .iter()
            .zip(reference.as_slice())
            .map(|(a, r)| (a - r).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            worst <= tol,
            "int8 output deviates {} from the f32 reference (tolerance {})",
            worst,
            tol
        );
    }

    #[test]
    fn data_dependent_f32_bit_identical_to_resident(
        seed in any::<u64>(),
        case in arb_case(),
    ) {
        let (n, k, m, pattern) = case;
        let x = redundant(n, k, 5, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 6);
        let w = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let resident = RandomHashProvider::new(seed ^ 7);
        let dependent = DataDependent(RandomHashProvider::new(seed ^ 7));

        let run = |ws: &mut ExecWorkspace, hashes: &dyn HashProvider| {
            let mut y = vec![0.0f32; n * m];
            let stats = ws
                .execute_into(&x, &w, None, &pattern, hashes, "prop", &mut y)
                .unwrap();
            (y, stats)
        };
        let mut ws = ExecWorkspace::new();
        let first = run(&mut ws, &resident);
        let second = run(&mut ws, &resident);
        let mut dws = ExecWorkspace::new();
        for call in ["first", "second"] {
            let what = format!("data-dependent {call} call");
            check_identical(&first, &run(&mut dws, &dependent), &what, &pattern)?;
        }
        check_identical(&first, &second, "resident", &pattern)?;
    }

    #[test]
    fn data_dependent_int8_bit_identical_to_resident(
        seed in any::<u64>(),
        n in 8usize..=33,
        k in 6usize..=25,
        m in 3usize..=9,
        l in 2usize..=16,
        b in 1usize..=3,
        h in 1usize..=12,
        horizontal in any::<bool>(),
    ) {
        // Horizontal patterns run dense-quantized on the int8 executor;
        // they are kept to pin that the provider kind does not change it.
        let pattern = if horizontal {
            ReusePattern::conventional(l.min(n), h).with_direction(ReuseDirection::Horizontal)
        } else {
            ReusePattern::conventional(l.min(k), h).with_block_rows(b)
        };
        let x = redundant(n, k, 4, 0.03, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 8);
        let w = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let resident = RandomHashProvider::new(seed ^ 9);
        let dependent = DataDependent(RandomHashProvider::new(seed ^ 9));

        let run = |ws: &mut QuantWorkspace, hashes: &dyn HashProvider| {
            let mut y = vec![0.0f32; n * m];
            let stats = ws
                .execute_into(&x, &w, Some(&pattern), hashes, "prop", &mut y)
                .unwrap();
            (y, stats)
        };
        let mut ws = QuantWorkspace::new();
        let first = run(&mut ws, &resident);
        let second = run(&mut ws, &resident);
        let mut dws = QuantWorkspace::new();
        for call in ["first", "second"] {
            let what = format!("data-dependent {call} call");
            check_identical(&first, &run(&mut dws, &dependent), &what, &pattern)?;
        }
        check_identical(&first, &second, "resident", &pattern)?;
    }
}
