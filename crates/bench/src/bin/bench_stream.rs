//! Streaming-workload benchmark: per-frame latency of the reuse
//! executors with the temporal (cross-call) cache on a correlated frame
//! stream, against the cache-disabled and dense baselines. Emits
//! `BENCH_stream.json` in the current directory.
//!
//! ```text
//! cargo run --release -p greuse-bench --bin bench_stream \
//!     [-- --quick] [-- --check] [-- --quant-baseline BENCH_quant.json]
//! ```
//!
//! Every run verifies that cache-on and cache-off outputs are bitwise
//! identical frame-by-frame, on both the f32 and int8 executors, at a
//! low perturbation rate (mostly warm hits) **and** at rate 1.0 (every
//! tile perturbed every frame, so the cache is forced cold/invalidated
//! continuously) — the cache may only ever change cost, never results.
//!
//! With `--check` the process additionally exits nonzero unless, at a
//! perturbation rate of 5%:
//! - the warm (cache-on) steady-state frame beats the cache-off frame
//!   by ≥ 1.3x on both executors,
//! - the warm int8 frame beats the dense int8 path by ≥ 1.3x, and
//! - fully-warm calls (every panel a cache hit) perform zero heap
//!   allocations.
//!
//! `--quant-baseline FILE` cross-checks this binary's cache-disabled
//! int8 per-call time on `BENCH_quant`'s acceptance shape against that
//! file's `exec_reuse_secs` (same executor, same shape): the two must
//! agree within a 2x noise envelope, catching accidental divergence
//! between the two harnesses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use greuse::{ExecWorkspace, LatencyModel, QuantWorkspace, RandomHashProvider, ReusePattern};
use greuse_bench::{board_from_args, quick_mode};
use greuse_data::FrameStream;
use greuse_tensor::Tensor;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Frames 0-2 are structurally cold: the first call (builds the hash
/// families; the cache does not engage), the first call with resident
/// families (first cache store), and the first possible hit. Steady
/// state is everything after.
const WARMUP_FRAMES: usize = 3;

/// Materializes `count` frames of a stream up front, so frame
/// generation never pollutes the timed or allocation-counted region.
fn materialize(
    n: usize,
    k: usize,
    distinct: usize,
    tile: usize,
    rate: f64,
    seed: u64,
    count: usize,
) -> Vec<Tensor<f32>> {
    let mut stream = FrameStream::new(n, k, distinct, tile, rate, seed);
    let mut frames = Vec::with_capacity(count);
    for _ in 0..count {
        frames.push(Tensor::from_vec(stream.frame().to_vec(), &[n, k]).expect("frame tensor"));
        stream.advance();
    }
    frames
}

/// One streaming run: every frame through one executor, in order.
/// Returns the best steady-state per-frame time, the summed stats, the
/// allocations per steady-state call, and every frame's output.
struct StreamRun {
    best_frame_secs: f64,
    allocs_per_call: f64,
    warm_hit_fraction: f64,
    redundancy_ratio: f64,
    outputs: Vec<Vec<f32>>,
}

fn run_f32(
    frames: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: &ReusePattern,
    cache: bool,
    reps: usize,
) -> StreamRun {
    let hashes = RandomHashProvider::new(7);
    let mut ws = ExecWorkspace::new();
    ws.set_temporal_cache(cache);
    let (n, m) = (frames[0].rows(), w.rows());
    let mut y = vec![0.0f32; n * m];
    let mut total = greuse::ReuseStats::default();
    let mut best = f64::INFINITY;
    let mut steady_allocs = 0u64;
    let mut warm_calls = 0u64;
    let mut outputs = Vec::with_capacity(frames.len());
    for (i, x) in frames.iter().enumerate() {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let stats = ws
            .execute_into(x, w, None, pattern, &hashes, "stream", &mut y)
            .expect("f32 stream frame");
        let dt = t0.elapsed().as_secs_f64();
        let da = ALLOCS.load(Ordering::Relaxed) - a0;
        if i >= WARMUP_FRAMES {
            best = best.min(dt);
            // The zero-alloc guarantee covers fully-warm calls. A frame
            // with a perturbed tile re-clusters that panel and may grow
            // a cache buffer, which is expected and amortized.
            if stats.cache_misses == 0 && stats.cache_invalidations == 0 {
                steady_allocs += da;
                warm_calls += 1;
            }
        }
        total.merge(&stats);
        outputs.push(y.clone());
    }
    // Timing-only replays: the stream is deterministic, so replaying it
    // through the same workspace repeats the exact warm/cold work; the
    // best-of-reps minimum is stable enough for the 1.3x gates.
    for _ in 1..reps {
        for (i, x) in frames.iter().enumerate() {
            let t0 = Instant::now();
            ws.execute_into(x, w, None, pattern, &hashes, "stream", &mut y)
                .expect("f32 stream frame");
            if i >= WARMUP_FRAMES {
                best = best.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    StreamRun {
        best_frame_secs: best,
        allocs_per_call: per_warm_call(steady_allocs, warm_calls),
        warm_hit_fraction: total.warm_hit_fraction(),
        redundancy_ratio: total.redundancy_ratio,
        outputs,
    }
}

fn per_warm_call(allocs: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        allocs as f64 / calls as f64
    }
}

fn run_int8(
    frames: &[Tensor<f32>],
    w: &Tensor<f32>,
    pattern: Option<&ReusePattern>,
    cache: bool,
    reps: usize,
) -> StreamRun {
    let hashes = RandomHashProvider::new(7);
    let mut ws = QuantWorkspace::new();
    ws.set_temporal_cache(cache);
    let (n, m) = (frames[0].rows(), w.rows());
    let mut y = vec![0.0f32; n * m];
    let mut total = greuse::ReuseStats::default();
    let mut best = f64::INFINITY;
    let mut steady_allocs = 0u64;
    let mut warm_calls = 0u64;
    let mut outputs = Vec::with_capacity(frames.len());
    for (i, x) in frames.iter().enumerate() {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let stats = ws
            .execute_into(x, w, pattern, &hashes, "stream", &mut y)
            .expect("int8 stream frame");
        let dt = t0.elapsed().as_secs_f64();
        let da = ALLOCS.load(Ordering::Relaxed) - a0;
        if i >= WARMUP_FRAMES {
            best = best.min(dt);
            if stats.cache_misses == 0 && stats.cache_invalidations == 0 {
                steady_allocs += da;
                warm_calls += 1;
            }
        }
        total.merge(&stats);
        outputs.push(y.clone());
    }
    // Timing-only replays: the stream is deterministic, so replaying it
    // through the same workspace repeats the exact warm/cold work; the
    // best-of-reps minimum is stable enough for the 1.3x gates.
    for _ in 1..reps {
        for (i, x) in frames.iter().enumerate() {
            let t0 = Instant::now();
            ws.execute_into(x, w, pattern, &hashes, "stream", &mut y)
                .expect("int8 stream frame");
            if i >= WARMUP_FRAMES {
                best = best.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    StreamRun {
        best_frame_secs: best,
        allocs_per_call: per_warm_call(steady_allocs, warm_calls),
        warm_hit_fraction: total.warm_hit_fraction(),
        redundancy_ratio: total.redundancy_ratio,
        outputs,
    }
}

/// Warm-mode per-frame latency percentiles `[p50, p95, p99]` in ns for
/// one backend, read from the metrics registry after the instrumented
/// replay. `None` when telemetry is compiled out or nothing recorded.
fn frame_percentiles(backend: &str) -> Option<[u64; 3]> {
    let key = format!("exec.layer_latency{{layer=\"stream\",backend=\"{backend}\",mode=\"warm\"}}");
    greuse_telemetry::metrics::snapshot()
        .hists
        .into_iter()
        .find(|s| s.key == key && s.count > 0)
        .map(|s| [s.quantile(0.5), s.quantile(0.95), s.quantile(0.99)])
}

/// Frame-by-frame bitwise comparison of two runs' outputs.
fn bit_identical(a: &StreamRun, b: &StreamRun) -> bool {
    a.outputs.len() == b.outputs.len()
        && a.outputs.iter().zip(&b.outputs).all(|(fa, fb)| {
            fa.len() == fb.len() && fa.iter().zip(fb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn main() {
    let quick = quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let quant_baseline = args
        .iter()
        .position(|a| a == "--quant-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (n, k, m, distinct) = (256usize, 96usize, 64usize, 32usize);
    let rate = 0.05f64;
    let frames_n = if quick { 16 } else { 48 };
    // Tile width == L so one perturbed tile invalidates exactly one
    // cache panel.
    let pattern = ReusePattern::conventional(24, 4);
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());

    println!("=== streaming temporal-reuse benchmark ===");
    println!(
        "{frames_n} frames of {n}x{k}, weights {m}x{k}, {pattern}, \
         perturbation rate {rate}"
    );

    let frames = materialize(n, k, distinct, pattern.l, rate, 42, frames_n);
    let reps = if quick { 3 } else { 5 };

    // --- f32 executor: cache on vs off over the identical stream ---
    let f32_warm = run_f32(&frames, &w, &pattern, true, reps);
    let f32_cold = run_f32(&frames, &w, &pattern, false, reps);
    let f32_warm_over_cold = f32_cold.best_frame_secs / f32_warm.best_frame_secs;
    let f32_identical = bit_identical(&f32_warm, &f32_cold);

    // --- int8 executor: cache on vs off, plus the dense int8 baseline ---
    let q_warm = run_int8(&frames, &w, Some(&pattern), true, reps);
    let q_cold = run_int8(&frames, &w, Some(&pattern), false, reps);
    let q_dense = run_int8(&frames, &w, None, false, reps);
    let q_warm_over_cold = q_cold.best_frame_secs / q_warm.best_frame_secs;
    let q_reuse_over_dense = q_dense.best_frame_secs / q_warm.best_frame_secs;
    let q_identical = bit_identical(&q_warm, &q_cold);

    // --- forced invalidation: rate 1.0 perturbs every tile every frame,
    // so the cache never hits and must match the cold path exactly ---
    let storm = materialize(n, k, distinct, pattern.l, 1.0, 43, WARMUP_FRAMES + 5);
    let storm_f32_on = run_f32(&storm, &w, &pattern, true, 1);
    let storm_f32_off = run_f32(&storm, &w, &pattern, false, 1);
    let storm_q_on = run_int8(&storm, &w, Some(&pattern), true, 1);
    let storm_q_off = run_int8(&storm, &w, Some(&pattern), false, 1);
    let storm_f32_identical = bit_identical(&storm_f32_on, &storm_f32_off);
    let storm_q_identical = bit_identical(&storm_q_on, &storm_q_off);
    assert!(
        storm_f32_on.warm_hit_fraction == 0.0 && storm_q_on.warm_hit_fraction == 0.0,
        "rate-1.0 stream must never produce a warm hit"
    );

    let allocs_warm = f32_warm.allocs_per_call.max(q_warm.allocs_per_call);

    println!(
        "f32:  warm {:.1} us/frame, cache-off {:.1} us/frame ({:.2}x), \
         warm-hit fraction {:.3}, bit-identical: {}",
        f32_warm.best_frame_secs * 1e6,
        f32_cold.best_frame_secs * 1e6,
        f32_warm_over_cold,
        f32_warm.warm_hit_fraction,
        f32_identical
    );
    println!(
        "int8: warm {:.1} us/frame, cache-off {:.1} us/frame ({:.2}x), \
         dense {:.1} us/frame (reuse {:.2}x dense), bit-identical: {}",
        q_warm.best_frame_secs * 1e6,
        q_cold.best_frame_secs * 1e6,
        q_warm_over_cold,
        q_dense.best_frame_secs * 1e6,
        q_reuse_over_dense,
        q_identical
    );
    println!(
        "forced invalidation (rate 1.0): f32 bit-identical {}, int8 bit-identical {}",
        storm_f32_identical, storm_q_identical
    );
    println!("allocs/call on the warm path: {allocs_warm:.2}");

    let board = board_from_args();
    let model = LatencyModel::new(board);
    let modeled_fused = model
        .predict_fused(n, k, m, &pattern, f32_warm.redundancy_ratio)
        .total_ms();
    let modeled_streamed = model
        .predict_streamed(
            n,
            k,
            m,
            &pattern,
            f32_warm.redundancy_ratio,
            f32_warm.warm_hit_fraction,
        )
        .total_ms();
    println!(
        "modeled on {board}: fused {modeled_fused:.2} ms -> streamed {modeled_streamed:.2} ms \
         at warm-hit fraction {:.3}",
        f32_warm.warm_hit_fraction
    );

    // --- optional cross-check against BENCH_quant's executor numbers ---
    let mut quant_agreement = String::from("null");
    let mut quant_mismatch = false;
    if let Some(path) = &quant_baseline {
        // BENCH_quant's acceptance shape and redundancy structure: a
        // static input (rate 0) with 16 distinct rows, pattern (24, 4),
        // m = 32 — the cache-disabled executor here is the same code
        // measured there.
        let qframes = materialize(256, 96, 16, 24, 0.0, 44, WARMUP_FRAMES + 8);
        let qw = Tensor::from_fn(&[32, 96], |i| ((i % 37) as f32 * 0.29).cos());
        let ours = run_int8(&qframes, &qw, Some(&pattern), false, reps).best_frame_secs;
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading quant baseline {path}: {e}"));
        let v = greuse_telemetry::json::parse(&src)
            .unwrap_or_else(|e| panic!("quant baseline {path} is not valid JSON: {e}"));
        let theirs = greuse_bench::record::read_metric(&v, "exec_reuse_secs")
            .unwrap_or_else(|| panic!("quant baseline {path}: missing exec_reuse_secs"));
        let ratio = ours / theirs;
        quant_agreement = format!("{ratio}");
        quant_mismatch = !(0.5..=2.0).contains(&ratio);
        println!(
            "cache-disabled int8 per-call vs {path}: {:.1} us here vs {:.1} us there \
             (ratio {ratio:.2}, noise envelope 0.5-2.0)",
            ours * 1e6,
            theirs * 1e6
        );
    }

    // --- per-frame latency distributions, via the metrics registry ---
    // One untimed instrumented replay with capture on: the timed
    // sections above stay telemetry-free, while the history record
    // still carries the full percentile set the regression tracker
    // diffs. (With telemetry compiled out these metrics are nulled.)
    greuse_telemetry::reset();
    greuse_telemetry::enable();
    let _ = run_f32(&frames, &w, &pattern, true, 1);
    let _ = run_int8(&frames, &w, Some(&pattern), true, 1);
    greuse_telemetry::disable();
    let f32_pct = frame_percentiles("f32");
    let q_pct = frame_percentiles("int8");

    let mut rec = greuse_bench::record::BenchRecord::new("stream")
        .param("frames", frames_n as f64)
        .param("rows", n as f64)
        .param("cols", k as f64)
        .param("out_channels", m as f64)
        .param("distinct_rows", distinct as f64)
        .param("perturbation_rate", rate)
        .param("l", pattern.l as f64)
        .param("h", pattern.h as f64)
        .metric("f32_warm_frame_secs", f32_warm.best_frame_secs)
        .metric("f32_cold_frame_secs", f32_cold.best_frame_secs)
        .metric("f32_warm_over_cold", f32_warm_over_cold)
        .metric("f32_warm_hit_fraction", f32_warm.warm_hit_fraction)
        .metric("int8_warm_frame_secs", q_warm.best_frame_secs)
        .metric("int8_cold_frame_secs", q_cold.best_frame_secs)
        .metric("int8_warm_over_cold", q_warm_over_cold)
        .metric("int8_dense_frame_secs", q_dense.best_frame_secs)
        .metric("reuse_over_dense", q_reuse_over_dense)
        .metric("int8_warm_hit_fraction", q_warm.warm_hit_fraction)
        .metric("allocs_per_call", allocs_warm)
        .metric("redundancy_ratio", f32_warm.redundancy_ratio)
        .metric("modeled_fused_ms", modeled_fused)
        .metric("modeled_streamed_ms", modeled_streamed);
    for (backend, pct) in [("f32", &f32_pct), ("int8", &q_pct)] {
        rec = match pct {
            Some([p50, p95, p99]) => rec
                .metric(&format!("{backend}_warm_frame_p50_ns"), *p50 as f64)
                .metric(&format!("{backend}_warm_frame_p95_ns"), *p95 as f64)
                .metric(&format!("{backend}_warm_frame_p99_ns"), *p99 as f64),
            None => rec.nulled_metric(
                &format!("{backend}_warm_frame_p50_ns"),
                "telemetry_compiled_out",
            ),
        };
    }
    rec = match quant_agreement.parse::<f64>() {
        Ok(r) => rec.metric("quant_baseline_ratio", r),
        Err(_) => rec.nulled_metric("quant_baseline_ratio", "no_baseline_supplied"),
    };
    rec.flag("f32_bit_identical", f32_identical)
        .flag("int8_bit_identical", q_identical)
        .flag("forced_invalidation_f32_bit_identical", storm_f32_identical)
        .flag("forced_invalidation_int8_bit_identical", storm_q_identical)
        .write();

    // Correctness invariants hold unconditionally, --check or not.
    assert!(
        f32_identical,
        "f32 cache-on outputs diverged from cache-off"
    );
    assert!(q_identical, "int8 cache-on outputs diverged from cache-off");
    assert!(
        storm_f32_identical && storm_q_identical,
        "forced-invalidation outputs diverged from the cold fused path"
    );

    if check {
        let mut failures = Vec::new();
        if f32_warm_over_cold < 1.3 {
            failures.push(format!(
                "f32 warm frame only {f32_warm_over_cold:.2}x cache-off (need 1.3x)"
            ));
        }
        if q_warm_over_cold < 1.3 {
            failures.push(format!(
                "int8 warm frame only {q_warm_over_cold:.2}x cache-off (need 1.3x)"
            ));
        }
        if q_reuse_over_dense < 1.3 {
            failures.push(format!(
                "int8 warm frame only {q_reuse_over_dense:.2}x dense (need 1.3x)"
            ));
        }
        if allocs_warm != 0.0 {
            failures.push(format!(
                "warm path performed {allocs_warm:.2} allocations per call (need 0)"
            ));
        }
        if quant_mismatch {
            failures.push(format!(
                "cache-disabled per-call disagrees with the quant baseline \
                 (ratio {quant_agreement})"
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "check passed: warm {f32_warm_over_cold:.2}x/{q_warm_over_cold:.2}x cold, \
             {q_reuse_over_dense:.2}x dense, 0 allocs/call, outputs bit-identical"
        );
    }
}
