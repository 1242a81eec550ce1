//! Temporal-cache equivalence suite: an executor with the cross-call
//! centroid cache enabled must be bitwise indistinguishable from the
//! same executor with the cache disabled, on every frame of a stream —
//! for identical frames (all warm hits), fully-perturbed frames (no
//! hit ever survives), and every perturbation rate in between, on both
//! the f32 and int8 executors.
//!
//! With `--features fault-inject`, the suite additionally pins the
//! never-commit-under-fault rule: a degenerate-clustering fault active
//! during a call must keep that call's clustering out of the cache, so
//! no later frame can replay poisoned state. The fault plan is
//! process-global, so every test serializes on [`SUITE_LOCK`]: a
//! property case running beside the faulted test would otherwise see
//! its fault fire in one of its two A/B runs and diverge.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use greuse::{ExecWorkspace, QuantWorkspace, RandomHashProvider, ReusePattern};
use greuse_data::FrameStream;
use greuse_tensor::Tensor;

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Materializes `count` frames of a tile-perturbed prototype stream.
fn frames(
    n: usize,
    k: usize,
    distinct: usize,
    tile: usize,
    rate: f64,
    seed: u64,
    count: usize,
) -> Vec<Tensor<f32>> {
    let mut stream = FrameStream::new(n, k, distinct, tile, rate, seed);
    (0..count)
        .map(|_| {
            let t = Tensor::from_vec(stream.frame().to_vec(), &[n, k]).unwrap();
            stream.advance();
            t
        })
        .collect()
}

/// Runs every frame through one f32 workspace in order; returns each
/// frame's output and the summed stats.
fn drive_f32(
    frames: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    cache: bool,
) -> (Vec<Vec<f32>>, greuse::ReuseStats) {
    let hashes = RandomHashProvider::new(7);
    let mut ws = ExecWorkspace::new();
    ws.set_temporal_cache(cache);
    let (n, m) = (frames[0].rows(), w.rows());
    let mut y = vec![0.0f32; n * m];
    let mut total = greuse::ReuseStats::default();
    let outputs = frames
        .iter()
        .map(|x| {
            let stats = ws
                .execute_into(x, w, None, pattern, &hashes, "stream", &mut y)
                .unwrap();
            total.merge(&stats);
            y.clone()
        })
        .collect();
    (outputs, total)
}

/// Same, through one int8 workspace.
fn drive_int8(
    frames: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    cache: bool,
) -> (Vec<Vec<f32>>, greuse::ReuseStats) {
    let hashes = RandomHashProvider::new(7);
    let mut ws = QuantWorkspace::new();
    ws.set_temporal_cache(cache);
    let (n, m) = (frames[0].rows(), w.rows());
    let mut y = vec![0.0f32; n * m];
    let mut total = greuse::ReuseStats::default();
    let outputs = frames
        .iter()
        .map(|x| {
            let stats = ws
                .execute_into(x, w, Some(pattern), &hashes, "stream", &mut y)
                .unwrap();
            total.merge(&stats);
            y.clone()
        })
        .collect();
    (outputs, total)
}

fn assert_bitwise_eq(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (fa, fb)) in a.iter().zip(b).enumerate() {
        assert_eq!(fa.len(), fb.len());
        for (j, (x, y)) in fa.iter().zip(fb).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: frame {i} element {j} diverged: {x} vs {y}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache-on and cache-off runs over the same frame stream produce
    /// bitwise-identical outputs at every perturbation rate — the cache
    /// may only ever change cost, never results. The endpoints are
    /// weighted in explicitly: rate 0 (every steady frame a warm hit)
    /// and rate 1 (every tile dirty every frame, the forced-invalidation
    /// regime).
    #[test]
    fn cache_never_changes_results(
        seed in any::<u64>(),
        rate in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..=1.0],
        tiles in 2usize..=4,
        l in 4usize..=10,
        h in 1usize..=6,
        b in 1usize..=2,
        distinct in 1usize..=8,
    ) {
        let _l = lock();
        let (n, k) = (32usize, tiles * l);
        let pattern = ReusePattern::conventional(l, h).with_block_rows(b);
        let xs = frames(n, k, distinct, l, rate, seed, 6);
        let w = Tensor::from_fn(&[12, k], |i| ((i % 37) as f32 * 0.29).cos());

        let (warm_f32, warm_stats) = drive_f32(&xs, &w, &pattern, true);
        let (cold_f32, cold_stats) = drive_f32(&xs, &w, &pattern, false);
        assert_bitwise_eq(&warm_f32, &cold_f32, "f32");
        // A disabled cache must never probe.
        prop_assert_eq!(
            cold_stats.cache_hits + cold_stats.cache_misses + cold_stats.cache_invalidations,
            0
        );
        // Redundancy accounting must agree call-for-call: warm replays
        // restore the cold clustering, they do not invent one.
        prop_assert_eq!(warm_stats.n_vectors, cold_stats.n_vectors);
        prop_assert_eq!(warm_stats.n_clusters, cold_stats.n_clusters);

        let (warm_q, _) = drive_int8(&xs, &w, &pattern, true);
        let (cold_q, _) = drive_int8(&xs, &w, &pattern, false);
        assert_bitwise_eq(&warm_q, &cold_q, "int8");
    }

    /// An unperturbed stream must go fully warm: once the layer has
    /// built its families (frame 0) and stored (frame 1), every later
    /// frame hits on every panel, and no hit is ever invalidated.
    #[test]
    fn identical_frames_go_fully_warm(
        seed in any::<u64>(),
        tiles in 2usize..=4,
        distinct in 1usize..=8,
    ) {
        let _l = lock();
        let (n, l, h) = (32usize, 8usize, 4usize);
        let k = tiles * l;
        let pattern = ReusePattern::conventional(l, h);
        let xs = frames(n, k, distinct, l, 0.0, seed, 6);
        let w = Tensor::from_fn(&[12, k], |i| ((i % 37) as f32 * 0.29).cos());

        let (_, stats) = drive_f32(&xs, &w, &pattern, true);
        // Frames 2..6 probe every panel; frame 1's sweep stored them all.
        prop_assert_eq!(stats.cache_hits, (4 * tiles) as u64);
        prop_assert_eq!(stats.cache_invalidations, 0);

        let (_, qstats) = drive_int8(&xs, &w, &pattern, true);
        prop_assert_eq!(qstats.cache_hits, (4 * tiles) as u64);
        prop_assert_eq!(qstats.cache_invalidations, 0);
    }

    /// At rate 1.0 every tile of every frame is rewritten, so no probe
    /// may ever hit: the cache degenerates to the cold fused path.
    #[test]
    fn fully_perturbed_frames_never_hit(
        seed in any::<u64>(),
        tiles in 2usize..=4,
    ) {
        let _l = lock();
        let (n, l, h) = (32usize, 8usize, 4usize);
        let k = tiles * l;
        let pattern = ReusePattern::conventional(l, h);
        let xs = frames(n, k, 8, l, 1.0, seed, 6);
        let w = Tensor::from_fn(&[12, k], |i| ((i % 37) as f32 * 0.29).cos());

        let (_, stats) = drive_f32(&xs, &w, &pattern, true);
        prop_assert_eq!(stats.cache_hits, 0);

        let (_, qstats) = drive_int8(&xs, &w, &pattern, true);
        prop_assert_eq!(qstats.cache_hits, 0);
    }
}

/// The outputs and summed stats of one executor driven over a stream.
#[cfg(feature = "fault-inject")]
type Drive =
    fn(&[Tensor<f32>], &Tensor<f32>, &ReusePattern, bool) -> (Vec<Vec<f32>>, greuse::ReuseStats);

/// Never-commit-under-fault: with a degenerate-clustering fault firing
/// on every hash call, the executor `drive` runs must keep every
/// clustering out of the cache (no probe can ever hit poisoned state),
/// outputs must stay bitwise identical to the cache-disabled run under
/// the same fault schedule, and once the fault clears the cache must
/// resume hitting from fresh, healthy state.
#[cfg(feature = "fault-inject")]
fn assert_never_commits_under_fault(drive: Drive, what: &str) {
    use greuse::faults::{self, FaultAction, FaultPlan, FaultPoint};

    let _l = lock();
    let (n, l, h, tiles) = (32usize, 8usize, 4usize, 3usize);
    let k = tiles * l;
    let pattern = ReusePattern::conventional(l, h);
    let xs = frames(n, k, 4, l, 0.0, 99, 6);
    let w = Tensor::from_fn(&[12, k], |i| ((i % 37) as f32 * 0.29).cos());

    // A/B under the identical fault schedule: install, run, clear.
    let drive_faulted = |cache: bool| {
        faults::install(
            FaultPlan::new().inject(FaultPoint::LshHash, FaultAction::DegenerateClusters),
        );
        let out = drive(&xs, &w, &pattern, cache);
        faults::clear();
        out
    };
    let (warm, warm_stats) = drive_faulted(true);
    let (cold, _) = drive_faulted(false);
    assert_bitwise_eq(
        &warm,
        &cold,
        &format!("{what} under degenerate-clustering fault"),
    );
    assert_eq!(
        warm_stats.cache_hits, 0,
        "{what}: a faulted clustering must never be stored, so nothing can hit"
    );

    // Fault cleared: the same workspace pattern goes warm again from
    // healthy clusterings only.
    let (_, healthy_stats) = drive(&xs, &w, &pattern, true);
    assert!(
        healthy_stats.cache_hits > 0,
        "{what}: cache must resume hitting once the fault is gone"
    );
}

#[cfg(feature = "fault-inject")]
#[test]
fn faulted_clusterings_are_never_committed() {
    assert_never_commits_under_fault(drive_f32, "f32");
}

/// The int8 twin: the shared panel walk fires the same fault points and
/// applies the same commit gate to `u8` codes (block height 1, so the
/// fused path reads the codes in place).
#[cfg(feature = "fault-inject")]
#[test]
fn faulted_int8_clusterings_are_never_committed() {
    assert_never_commits_under_fault(drive_int8, "int8");
}

/// The `cache.{hit,miss,invalidate}` telemetry counters are added once per
/// call from the call's `ReuseStats`: over a partly perturbed stream their
/// deltas equal the summed stats, on both executors.
#[cfg(feature = "telemetry")]
#[test]
fn cache_counters_equal_summed_stats() {
    use greuse_telemetry::metrics::{Counter, Metric};

    let _l = lock();
    let read = || ["cache.hit", "cache.miss", "cache.invalidate"].map(|k| Counter::lookup(k).get());
    let (n, l, h, tiles) = (32usize, 8usize, 4usize, 3usize);
    let k = tiles * l;
    let pattern = ReusePattern::conventional(l, h);
    let mut xs = frames(n, k, 4, l, 0.3, 11, 12);
    // Alternating the sign of one zero keeps every f32 signature and
    // radius but not the bits, so the f32 run also invalidates.
    for (i, x) in xs.iter_mut().enumerate() {
        x.as_mut_slice()[0] = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let w = Tensor::from_fn(&[12, k], |i| ((i % 37) as f32 * 0.29).cos());

    greuse_telemetry::enable();
    for (what, int8) in [("f32", false), ("int8", true)] {
        let before = read();
        let (_, stats) = if int8 {
            drive_int8(&xs, &w, &pattern, true)
        } else {
            drive_f32(&xs, &w, &pattern, true)
        };
        let after = read();
        assert!(stats.cache_hits > 0, "{what}: the run must go warm");
        assert!(stats.cache_misses > 0, "{what}: the stream must change");
        assert!(
            int8 || stats.cache_invalidations > 0,
            "f32: the zero's sign must invalidate"
        );
        assert_eq!(
            [0, 1, 2].map(|i| after[i] - before[i]),
            [
                stats.cache_hits,
                stats.cache_misses,
                stats.cache_invalidations
            ],
            "{what}: counter deltas must equal the summed stats"
        );
    }
    greuse_telemetry::disable();
}
