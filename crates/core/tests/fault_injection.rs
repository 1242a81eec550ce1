//! End-to-end fault-injection suite (run with `--features fault-inject`).
//!
//! Exercises the resilience stack against deterministically scheduled
//! faults: forced-degenerate clustering must route through the guard's
//! exact dense fallback, an injected worker panic must poison only its
//! own batch image, corruption at the backend boundary must be rejected
//! (strict) or scrubbed (sanitize), and every schedule must reproduce
//! bit-exactly from its seed.
//!
//! The fault plan and telemetry counters are process-global, so every
//! test serializes on [`SUITE_LOCK`].

#![cfg(feature = "fault-inject")]

use std::sync::{Mutex, MutexGuard};

use greuse::faults::{self, FaultAction, FaultPlan, FaultPoint, FiredFault};
use greuse::{
    execute_reuse_images, BatchExecutor, FallbackReason, GreuseError, GuardConfig,
    QuantizedBackend, RandomHashProvider, ReuseBackend, ReusePattern,
};
use greuse_nn::{models::CifarNet, ConvBackend, DenseBackend};
use greuse_tensor::{ConvSpec, Tensor};

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// conv1-shaped GEMM operands (N=1024, K=75, M=64) whose rows cycle
/// through 16 prototypes, so healthy clustering finds r_t ≈ 0.98 — far
/// above the H/M = 2/64 break-even of the test pattern. Only an injected
/// fault can push the guarded path below break-even.
fn redundant_gemm() -> (ConvSpec, Tensor<f32>, Tensor<f32>) {
    let spec = CifarNet::conv1_spec();
    let x = Tensor::from_fn(&[1024, 75], |i| {
        let (r, c) = (i / 75, i % 75);
        (((r % 16) * 75 + c) as f32 * 0.13).sin()
    });
    let w = Tensor::from_fn(&[64, 75], |i| (i as f32 * 0.29).cos());
    (spec, x, w)
}

fn fallback_count() -> u64 {
    greuse_telemetry::counter!("exec.fallback").get()
}

/// Acceptance (a): a forced-degenerate clustering (every vector its own
/// cluster, r_t = 0) must trigger the guard's dense fallback — output
/// bit-identical to [`DenseBackend`] — and emit the `exec.fallback`
/// telemetry event with the `low_rt` reason.
#[test]
fn degenerate_clustering_falls_back_to_exact_dense() {
    let _l = lock();
    greuse_telemetry::enable();
    let (spec, x, w) = redundant_gemm();
    let pattern = ReusePattern::conventional(25, 2);
    let backend = ReuseBackend::new(RandomHashProvider::new(7))
        .with_pattern("conv1", pattern)
        .with_guard(GuardConfig::strict());

    // Healthy run: the prototype redundancy clears break-even, no fallback.
    let _healthy = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
    assert_eq!(backend.layer_stats("conv1").unwrap().fallbacks, 0);
    assert_eq!(backend.layer_fallback_reason("conv1"), None);

    let dense = DenseBackend.conv_gemm("conv1", &spec, &x, &w).unwrap();
    let before = fallback_count();
    faults::install(FaultPlan::new().inject(FaultPoint::LshHash, FaultAction::DegenerateClusters));
    let faulted = backend.conv_gemm("conv1", &spec, &x, &w).unwrap();
    let log = faults::fired();
    faults::clear();

    assert_eq!(
        faulted, dense,
        "fallback output must be bit-identical to the dense backend"
    );
    let stats = backend.layer_stats("conv1").unwrap();
    assert_eq!(stats.fallbacks, 1);
    assert_eq!(
        backend.layer_fallback_reason("conv1"),
        Some(FallbackReason::LowRedundancy)
    );
    assert_eq!(
        fallback_count(),
        before + 1,
        "exec.fallback must count the event"
    );
    assert!(
        !log.is_empty() && log.iter().all(|f| f.point_idx == 1),
        "only lsh.hash rules were scheduled: {log:?}"
    );
}

/// Acceptance (b): a panic injected into one batch image must fail only
/// that image — the rest of the batch completes with outputs identical
/// to an unfaulted run, and the error surfaces as
/// [`GreuseError::WorkerPanic`] naming the image.
#[test]
fn worker_panic_poisons_only_that_image() {
    let _l = lock();
    let xs: Vec<Tensor<f32>> = (0..4)
        .map(|i| Tensor::from_fn(&[24, 16], move |j| ((i * 384 + j) as f32 * 0.17).sin()))
        .collect();
    let w = Tensor::from_fn(&[6, 16], |i| (i as f32 * 0.11).cos());
    let hashes = RandomHashProvider::new(5);
    let pattern = ReusePattern::conventional(8, 2);
    let (clean_ys, _) = execute_reuse_images(&xs, &w, &pattern, &hashes).unwrap();

    faults::install(FaultPlan::new().inject_image(FaultPoint::ExecFold, 2, FaultAction::Panic));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut ys: Vec<Tensor<f32>> = (0..4).map(|_| Tensor::zeros(&[24, 6])).collect();
    let err = BatchExecutor::new()
        .execute(&xs, &w, &pattern, &hashes, 2, &mut ys)
        .unwrap_err();
    std::panic::set_hook(prev_hook);
    let log = faults::fired();
    faults::clear();

    match err {
        GreuseError::WorkerPanic { layer, image } => {
            assert_eq!(layer, "batch");
            assert_eq!(image, 2);
        }
        other => panic!("expected WorkerPanic for image 2, got {other:?}"),
    }
    for (i, (got, want)) in ys.iter().zip(&clean_ys).enumerate() {
        if i != 2 {
            assert_eq!(got, want, "image {i} must complete bit-identically");
        }
    }
    assert!(
        !log.is_empty() && log.iter().all(|f| f.image == 2),
        "the fault must fire only in image 2's context: {log:?}"
    );
}

/// Corruption injected at the im2col boundary: the strict guard rejects
/// it with a typed non-finite error, and the sanitize guard scrubs it so
/// the same faulted call completes with an all-finite output.
#[test]
fn strict_rejects_and_sanitize_recovers_injected_corruption() {
    let _l = lock();
    let (spec, x, w) = redundant_gemm();
    let pattern = ReusePattern::conventional(25, 2);
    faults::install(FaultPlan::new().inject(FaultPoint::Im2col, FaultAction::CorruptNan));

    let strict = ReuseBackend::new(RandomHashProvider::new(9))
        .with_pattern("conv1", pattern)
        .with_guard(GuardConfig::strict());
    let err = strict.conv_gemm("conv1", &spec, &x, &w).unwrap_err();
    assert!(err.to_string().contains("non-finite"), "{err}");

    let sanitize = ReuseBackend::new(RandomHashProvider::new(9))
        .with_pattern("conv1", ReusePattern::conventional(25, 2))
        .with_guard(GuardConfig::sanitize());
    let y = sanitize.conv_gemm("conv1", &spec, &x, &w).unwrap();
    faults::clear();
    assert!(y.as_slice().iter().all(|v| v.is_finite()));
}

/// Acceptance (c): a seeded schedule drives the same faults on every
/// run — the fired log is bit-identical across runs of the same seed and
/// differs across seeds.
#[test]
fn seeded_schedule_reproduces_bit_exactly() {
    let _l = lock();
    let (spec, x, w) = redundant_gemm();
    let drive = |seed: u64| -> Vec<FiredFault> {
        faults::install(FaultPlan::seeded(seed, 6));
        // Unguarded backends: corrupted values flow through (this test
        // asserts reproducibility, not recovery), and errors are ignored.
        let f32_bk = ReuseBackend::new(RandomHashProvider::new(3))
            .with_pattern("conv1", ReusePattern::conventional(25, 2));
        let q_bk = QuantizedBackend::new(RandomHashProvider::new(3))
            .with_pattern("conv1", ReusePattern::conventional(25, 2));
        for _ in 0..4 {
            let _ = f32_bk.conv_gemm("conv1", &spec, &x, &w);
            let _ = q_bk.conv_gemm("conv1", &spec, &x, &w);
        }
        let log = faults::fired();
        faults::clear();
        log
    };
    let a = drive(42);
    let b = drive(42);
    assert_eq!(a, b, "same seed must reproduce the same failures");
    assert!(!a.is_empty(), "seed 42 must fire at least one fault here");
    let c = drive(43);
    assert_ne!(a, c, "a different seed must schedule different failures");
}
