//! Golden-vector conformance suite for the execution paths.
//!
//! Each case is a small conv-layer-shaped GEMM (`y = x · wᵀ`) with inputs
//! generated from a fixed seed through the workspace's vendored `rand`
//! shim, so the operands are bit-reproducible everywhere. The committed
//! fixture under `tests/golden/` stores the f32 output of the scalar
//! reference kernel as hex `u32` bit patterns, one word per line.
//!
//! The suite pins two contracts:
//!
//! 1. **f32 bit-exactness.** The production packed f32 GEMM
//!    ([`gemm_bt_f32`]) must reproduce the committed bits exactly, and the
//!    committed bits must equal a fresh [`gemm_ref_f32`] run — so neither
//!    the packed pipeline nor the scalar reference can drift without a
//!    fixture update showing up in review.
//! 2. **int8 tolerance.** The quantized executor ([`QuantWorkspace`]) must
//!    stay within the documented worst-case quantization tolerance of the
//!    committed f32 output:
//!    `k·(s_a/2·max|w| + s_w/2·max|x|) + max|y|/127`, where
//!    `s_a = 2·max|x|/255` (asymmetric u8 activations) and
//!    `s_w = max|w|/127` (symmetric i8 weights). Patterned cases use
//!    duplicated activation rows, which quantize to identical codes and
//!    cluster exactly, so the reuse walk adds no error beyond quantization
//!    and the same bound applies.
//!
//! 3. **Reuse-executor output bits.** The `reuse_*` fixtures pin the
//!    output bits and [`ReuseStats`] of [`ExecWorkspace`] and
//!    [`QuantWorkspace`] under four [`RandomHashProvider`] patterns
//!    (vertical at block height 1 and 2, horizontal, reordered), on the
//!    first call of a fresh workspace (hash families built) and on the
//!    second (families resident). They were generated before the
//!    executors moved to a single hashing path, so they hold the
//!    executors to the outputs of the code they replaced.
//!
//! Regenerate fixtures (after an *intentional* numeric change) with:
//!
//! ```text
//! cargo test -p greuse --test golden_conformance -- --ignored regenerate
//! ```

use greuse::{
    ExecWorkspace, QuantWorkspace, RandomHashProvider, ReuseDirection, ReuseOrder, ReusePattern,
    ReuseStats, RowOrder,
};
use greuse_tensor::{gemm_bt_f32, gemm_ref_f32, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// One golden case: a conv-layer-shaped GEMM with a fixed seed.
struct Case {
    /// Fixture name (file stem under `tests/golden/`).
    name: &'static str,
    /// GEMM rows: output positions of the conv layer.
    n: usize,
    /// GEMM depth: `kh·kw·c_in` of the conv layer.
    k: usize,
    /// GEMM columns: output channels.
    m: usize,
    /// Distinct activation rows; rows repeat modulo this so patterned
    /// cases cluster exactly. Equal to `n` for fully random inputs.
    distinct: usize,
    /// Reuse pattern `(L, H)` for the int8 check, `None` for dense int8.
    pattern: Option<(usize, usize)>,
    /// Seed for both operand generators.
    seed: u64,
}

/// 3×3×3 conv (k = 27) under a vertical pattern; 5×5×3 conv (k = 75)
/// under a wider pattern; 3×3×4 conv (k = 36) through the dense int8
/// path with fully random rows.
const CASES: &[Case] = &[
    Case {
        name: "conv3x3c3_v9h8",
        n: 32,
        k: 27,
        m: 8,
        distinct: 8,
        pattern: Some((9, 8)),
        seed: 11,
    },
    Case {
        name: "conv5x5c3_v25h10",
        n: 48,
        k: 75,
        m: 16,
        distinct: 12,
        pattern: Some((25, 10)),
        seed: 12,
    },
    Case {
        name: "conv3x3c4_dense",
        n: 64,
        k: 36,
        m: 12,
        distinct: 64,
        pattern: None,
        seed: 13,
    },
];

/// Deterministic operands for a case: `distinct` base activation rows
/// repeated modulo, and a fully random `m×k` weight matrix.
fn operands(case: &Case) -> (Tensor<f32>, Tensor<f32>) {
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let base: Vec<f32> = (0..case.distinct * case.k)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Tensor::from_fn(&[case.n, case.k], |i| {
        let (r, c) = (i / case.k, i % case.k);
        base[(r % case.distinct) * case.k + c]
    });
    let w = Tensor::from_fn(&[case.m, case.k], |_| rng.gen_range(-1.0f32..1.0));
    (x, w)
}

/// Documented worst-case dense-quantization tolerance (see module docs).
fn quant_tolerance(x: &Tensor<f32>, w: &Tensor<f32>, y: &[f32]) -> f32 {
    let k = x.cols() as f32;
    let ax = x.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let aw = w.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let ay = y.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let s_a = 2.0 * ax / 255.0;
    let s_w = aw / 127.0;
    k * (s_a / 2.0 * aw + s_w / 2.0 * ax) + ay / 127.0
}

fn fixture_path(case: &Case) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.txt", case.name))
}

/// Parses a fixture: `#` comment lines, then one hex `u32` per line.
fn read_fixture(case: &Case) -> Vec<f32> {
    let path = fixture_path(case);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            f32::from_bits(
                u32::from_str_radix(l, 16)
                    .unwrap_or_else(|e| panic!("bad hex word `{l}` in {}: {e}", path.display())),
            )
        })
        .collect()
}

/// Scalar-reference output `x · wᵀ` via `gemm_ref_f32` on a transposed
/// weight view — the source of truth the fixtures were generated from.
fn reference_output(x: &Tensor<f32>, w: &Tensor<f32>) -> Tensor<f32> {
    let (m, k) = (w.rows(), w.cols());
    let wt = Tensor::from_fn(&[k, m], |i| {
        let (r, c) = (i / m, i % m);
        w.as_slice()[c * k + r]
    });
    gemm_ref_f32(x, &wt).expect("reference gemm")
}

#[test]
fn golden_f32_path_bit_identical_to_reference() {
    for case in CASES {
        let (x, w) = operands(case);
        let golden = read_fixture(case);
        assert_eq!(golden.len(), case.n * case.m, "{}: fixture size", case.name);
        let reference = reference_output(&x, &w);
        let packed = gemm_bt_f32(&x, &w).expect("packed gemm");
        for (i, ((&g, &r), &p)) in golden
            .iter()
            .zip(reference.as_slice())
            .zip(packed.as_slice())
            .enumerate()
        {
            assert_eq!(
                g.to_bits(),
                r.to_bits(),
                "{}[{i}]: committed fixture diverged from gemm_ref_f32 ({g} vs {r})",
                case.name
            );
            assert_eq!(
                g.to_bits(),
                p.to_bits(),
                "{}[{i}]: packed f32 path diverged from the golden bits ({g} vs {p})",
                case.name
            );
        }
    }
}

#[test]
fn golden_int8_within_documented_tolerance() {
    for case in CASES {
        let (x, w) = operands(case);
        let golden = read_fixture(case);
        let tol = quant_tolerance(&x, &w, &golden);
        let pattern = case.pattern.map(|(l, h)| ReusePattern::conventional(l, h));
        let hashes = RandomHashProvider::new(case.seed);
        let mut ws = QuantWorkspace::new();
        let mut y = vec![0.0f32; case.n * case.m];
        let stats = ws
            .execute_into(&x, &w, pattern.as_ref(), &hashes, case.name, &mut y)
            .expect("quantized execute");
        if pattern.is_some() {
            assert!(
                stats.redundancy_ratio > 0.5,
                "{}: duplicated rows must cluster (r_t = {})",
                case.name,
                stats.redundancy_ratio
            );
        }
        let worst = y
            .iter()
            .zip(&golden)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= tol,
            "{}: int8 output deviates {worst} from the golden f32 output (tolerance {tol})",
            case.name
        );
    }
}

/// One pinned reuse-executor case: noisy copies of a few prototype rows
/// (so clustering both merges and refines), run under `pattern`.
struct ReuseCase {
    /// Fixture stem: `reuse_<name>_f32` / `reuse_<name>_int8`.
    name: &'static str,
    n: usize,
    k: usize,
    m: usize,
    pattern: ReusePattern,
    /// Whether the int8 executor accepts the pattern (it rejects layout
    /// reorders; horizontal patterns run dense-quantized).
    int8: bool,
    seed: u64,
}

/// Ragged panels and tails throughout; `H` on both sides of the fused
/// sweep's 8-lane vector tier.
fn reuse_cases() -> Vec<ReuseCase> {
    vec![
        ReuseCase {
            name: "vertical_b1",
            n: 40,
            k: 27,
            m: 8,
            pattern: ReusePattern::conventional(9, 10),
            int8: true,
            seed: 21,
        },
        ReuseCase {
            name: "vertical_b2",
            n: 37,
            k: 30,
            m: 6,
            pattern: ReusePattern::conventional(12, 5).with_block_rows(2),
            int8: true,
            seed: 22,
        },
        ReuseCase {
            name: "horizontal",
            n: 30,
            k: 24,
            m: 6,
            pattern: ReusePattern::conventional(8, 4).with_direction(ReuseDirection::Horizontal),
            int8: true,
            seed: 23,
        },
        ReuseCase {
            name: "reordered",
            n: 36,
            k: 25,
            m: 7,
            pattern: ReusePattern::conventional(10, 12)
                .with_order(ReuseOrder::Random(7))
                .with_row_order(RowOrder::Random(3)),
            int8: false,
            seed: 24,
        },
    ]
}

/// Operands of a reuse case: rows are noisy copies of 5 prototypes.
fn reuse_operands(case: &ReuseCase) -> (Tensor<f32>, Tensor<f32>) {
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let base: Vec<f32> = (0..5 * case.k)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Tensor::from_fn(&[case.n, case.k], |i| {
        let (r, c) = (i / case.k, i % case.k);
        base[(r % 5) * case.k + c] + rng.gen_range(-0.05f32..0.05)
    });
    let w = Tensor::from_fn(&[case.m, case.k], |_| rng.gen_range(-1.0f32..1.0));
    (x, w)
}

/// Two calls of one layer on one fresh workspace: `(output, stats)` each.
type Calls = Vec<(Vec<f32>, ReuseStats)>;

fn run_reuse_f32(case: &ReuseCase) -> Calls {
    let (x, w) = reuse_operands(case);
    let hashes = RandomHashProvider::new(case.seed);
    let mut ws = ExecWorkspace::new();
    (0..2)
        .map(|_| {
            let mut y = vec![0.0f32; case.n * case.m];
            let stats = ws
                .execute_into(&x, &w, None, &case.pattern, &hashes, case.name, &mut y)
                .expect("f32 reuse execute");
            (y, stats)
        })
        .collect()
}

fn run_reuse_int8(case: &ReuseCase) -> Calls {
    let (x, w) = reuse_operands(case);
    let hashes = RandomHashProvider::new(case.seed);
    let mut ws = QuantWorkspace::new();
    (0..2)
        .map(|_| {
            let mut y = vec![0.0f32; case.n * case.m];
            let stats = ws
                .execute_into(&x, &w, Some(&case.pattern), &hashes, case.name, &mut y)
                .expect("int8 reuse execute");
            (y, stats)
        })
        .collect()
}

/// The executor runs of a case, by fixture stem.
fn reuse_runs(case: &ReuseCase) -> Vec<(String, Calls)> {
    let mut runs = vec![(format!("reuse_{}_f32", case.name), run_reuse_f32(case))];
    if case.int8 {
        runs.push((format!("reuse_{}_int8", case.name), run_reuse_int8(case)));
    }
    runs
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.txt"))
}

/// Parses a reuse fixture: `#` comments, then per call a `call <i>` line,
/// a `stats <Debug of ReuseStats>` line and one hex `u32` per output.
fn read_reuse_fixture(stem: &str) -> Vec<(Vec<u32>, String)> {
    let path = golden_path(stem);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let mut calls: Vec<(Vec<u32>, String)> = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with("call ") {
            calls.push((Vec::new(), String::new()));
        } else if let Some(stats) = line.strip_prefix("stats ") {
            calls.last_mut().expect("stats before call").1 = stats.to_string();
        } else {
            let word = u32::from_str_radix(line, 16)
                .unwrap_or_else(|e| panic!("bad hex word `{line}` in {}: {e}", path.display()));
            calls.last_mut().expect("word before call").0.push(word);
        }
    }
    calls
}

#[test]
fn golden_reuse_outputs_bit_identical() {
    for case in reuse_cases() {
        for (stem, calls) in reuse_runs(&case) {
            let golden = read_reuse_fixture(&stem);
            assert_eq!(golden.len(), calls.len(), "{stem}: call count");
            for (call, ((want, want_stats), (y, stats))) in golden.iter().zip(&calls).enumerate() {
                assert_eq!(
                    &format!("{stats:?}"),
                    want_stats,
                    "{stem}: call {} stats",
                    call + 1
                );
                assert_eq!(want.len(), y.len(), "{stem}: call {} size", call + 1);
                for (i, (&g, v)) in want.iter().zip(y).enumerate() {
                    assert_eq!(
                        g,
                        v.to_bits(),
                        "{stem}: call {} y[{i}] diverged from the golden bits ({} vs {v})",
                        call + 1,
                        f32::from_bits(g)
                    );
                }
            }
        }
    }
}

/// Fixture generator — run explicitly after an intentional numeric
/// change; never part of the normal test run.
#[test]
#[ignore = "writes tests/golden/ fixtures; run on intentional numeric changes only"]
fn regenerate_golden_reuse_fixtures() {
    for case in reuse_cases() {
        for (stem, calls) in reuse_runs(&case) {
            let mut text = format!(
                "# greuse golden reuse output `{stem}`: output bits and ReuseStats of two calls\n\
                 # n={} k={} m={} pattern={} seed={}\n\
                 # regenerate: cargo test -p greuse --test golden_conformance -- --ignored regenerate\n",
                case.n, case.k, case.m, case.pattern, case.seed
            );
            for (i, (y, stats)) in calls.iter().enumerate() {
                text.push_str(&format!("call {}\nstats {stats:?}\n", i + 1));
                for v in y {
                    text.push_str(&format!("{:08x}\n", v.to_bits()));
                }
            }
            std::fs::write(golden_path(&stem), text).expect("write fixture");
        }
    }
}

/// Fixture generator — run explicitly after an intentional numeric
/// change; never part of the normal test run.
#[test]
#[ignore = "writes tests/golden/ fixtures; run on intentional numeric changes only"]
fn regenerate_golden_fixtures() {
    for case in CASES {
        let (x, w) = operands(case);
        let reference = reference_output(&x, &w);
        let mut text = String::new();
        text.push_str(&format!(
            "# greuse golden vector `{}` — f32 bits of gemm_ref_f32(x, wT)\n",
            case.name
        ));
        text.push_str(&format!(
            "# n={} k={} m={} distinct={} pattern={:?} seed={}\n",
            case.n, case.k, case.m, case.distinct, case.pattern, case.seed
        ));
        text.push_str("# regenerate: cargo test -p greuse --test golden_conformance -- --ignored regenerate\n");
        for v in reference.as_slice() {
            text.push_str(&format!("{:08x}\n", v.to_bits()));
        }
        std::fs::write(fixture_path(case), text).expect("write fixture");
    }
}
