//! Execution-engine benchmark: steady-state allocation count per call
//! and batch throughput (images/sec) of the panel executor, single
//! thread vs the parallel batch path. Emits `BENCH_exec.json` in the
//! current directory.
//!
//! ```text
//! cargo run --release -p greuse-bench --bin bench_exec [-- --quick] [-- --check]
//! ```
//!
//! With `--check` the process exits nonzero when the pool-based parallel
//! batch path fails to beat the sequential path (speedup < 1.0) on a
//! host with at least two hardware threads. A single hardware thread
//! cannot overlap compute at all, so the speedup there is scheduling
//! noise — the assertion is skipped outright; the envelope's
//! `host.hw_threads` and the `parallel_speedup_gate` note record which
//! regime produced the numbers.
//!
//! `--overhead-against FILE` compares this run's single-thread
//! throughput against a previously written `BENCH_exec.json` (typically
//! a `--no-default-features` build with telemetry compiled out). Under
//! `--check` the run fails when this build is more than 2% slower — the
//! disabled-telemetry overhead budget. `--reps N` overrides the sample
//! count (best-of-N); on contended hosts more reps stabilise the min.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use greuse::{
    execute_reuse_images, BatchExecutor, ExecWorkspace, RandomHashProvider, ReusePattern,
};
use greuse_bench::quick_mode;
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

/// Synthetic im2col batch with plenty of row redundancy (so the reuse
/// path has real work to skip, like a natural image would).
fn batch(images: usize, n: usize, k: usize) -> Vec<Tensor<f32>> {
    (0..images)
        .map(|img| {
            let protos = 6 + img % 3;
            Tensor::from_fn(&[n, k], |i| {
                let (r, c) = (i / k, i % k);
                (((r % protos) * 131 + c * 31 + img * 17) as f32 * 0.113).sin()
            })
        })
        .collect()
}

fn main() {
    let quick = quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let overhead_against = args
        .iter()
        .position(|a| a == "--overhead-against")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps_override = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok());
    let (images, n, k, m, mut reps) = if quick {
        (8, 96, 48, 16, 3)
    } else {
        (32, 256, 96, 32, 10)
    };
    if overhead_against.is_some() {
        // Best-of-N against another process's best-of-N: take more
        // samples so the min is stable enough for a 2% gate.
        reps = reps.max(6);
    }
    if let Some(r) = reps_override {
        reps = r.max(1);
    }
    let pattern = ReusePattern::conventional(16, 4).with_block_rows(2);
    let hashes = RandomHashProvider::new(7);
    let xs = batch(images, n, k);
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());

    // --- Allocations per call in steady state (single image) ---
    let mut ws = ExecWorkspace::new();
    let mut y = vec![0.0f32; n * m];
    ws.execute_into(&xs[0], &w, None, &pattern, &hashes, "bench", &mut y)
        .expect("warm-up");
    let calls = 100u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..calls {
        ws.execute_into(&xs[0], &w, None, &pattern, &hashes, "bench", &mut y)
            .expect("steady-state call");
    }
    let allocs_per_call = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / calls as f64;

    // --- Batch throughput, single thread vs parallel ---
    // At least 2 so the pool path actually runs even on a single-core
    // host (threads=1 runs every image inline on the caller).
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = hw_threads.max(2);
    let mut seq_best = f64::INFINITY;
    let mut par_best = f64::INFINITY;
    let mut seq_stats = None;
    let mut par_stats = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (_, s) = execute_reuse_images(&xs, &w, &pattern, &hashes).expect("sequential batch");
        seq_best = seq_best.min(t0.elapsed().as_secs_f64());
        seq_stats = Some(s);

        // A fresh executor and output tensors per rep, allocated inside
        // the timed region, so the parallel side pays the same per-call
        // output allocations as the sequential side.
        let t0 = Instant::now();
        let mut ys: Vec<Tensor<f32>> = (0..images).map(|_| Tensor::zeros(&[n, m])).collect();
        let s = BatchExecutor::new()
            .execute(&xs, &w, &pattern, &hashes, threads, &mut ys)
            .expect("parallel batch");
        par_best = par_best.min(t0.elapsed().as_secs_f64());
        par_stats = Some(s);
    }
    let seq_stats = seq_stats.expect("reps > 0");
    let par_stats = par_stats.expect("reps > 0");
    assert_eq!(
        seq_stats, par_stats,
        "parallel batch stats must be bit-identical to sequential"
    );

    let seq_ips = images as f64 / seq_best;
    let par_ips = images as f64 / par_best;
    // On a single hardware thread the measured ratio is scheduling noise,
    // not a speedup: represent it as absent so no downstream path — JSON
    // emission or the --check gate — can accidentally treat the noise as
    // a measurement.
    let speedup: Option<f64> = (hw_threads >= 2).then(|| par_ips / seq_ips);

    println!("=== Execution engine benchmark ===");
    println!("batch: {images} images of {n}x{k}, weights {m}x{k}, {pattern}");
    println!("allocs/call (steady state): {allocs_per_call:.2}");
    println!("single-thread:  {seq_ips:>8.1} images/sec");
    println!("parallel ({threads} threads, {hw_threads} hw): {par_ips:>8.1} images/sec");
    match speedup {
        Some(s) => println!("speedup: {s:.2}x"),
        None => println!(
            "speedup: n/a ({:.2}x measured, but oversubscribed on 1 hw thread)",
            par_ips / seq_ips
        ),
    }
    println!(
        "redundancy ratio (batch total): {:.3}",
        seq_stats.redundancy_ratio
    );

    let telemetry_enabled = cfg!(feature = "telemetry");
    let speedup_gate = if speedup.is_some() {
        "enforced"
    } else {
        "skipped_single_core"
    };
    // The pool still runs on a single hardware thread (threads is raised
    // to 2 so the machinery and the stats bit-identity check are
    // exercised), but the field is nulled rather than published as a
    // misleading number; the envelope's `host.hw_threads` plus the
    // handling note let a comparison distinguish "unmeasurable host"
    // from a regression.
    let mut rec = greuse_bench::record::BenchRecord::new("exec")
        .param("images", images as f64)
        .param("rows", n as f64)
        .param("cols", k as f64)
        .param("out_channels", m as f64)
        // Machine-dependent, so a note rather than an exact-match param.
        .note("threads", threads.to_string())
        .metric("allocs_per_call", allocs_per_call)
        .metric("single_thread_images_per_sec", seq_ips)
        .metric("parallel_images_per_sec", par_ips);
    rec = match speedup {
        Some(s) => rec.metric("parallel_speedup", s),
        None => rec.nulled_metric("parallel_speedup", "nulled_oversubscribed"),
    };
    rec.metric("redundancy_ratio", seq_stats.redundancy_ratio)
        .note("parallel_speedup_gate", speedup_gate)
        .flag("telemetry_enabled", telemetry_enabled)
        .flag("stats_bit_identical", true)
        .write();

    if let Some(path) = &overhead_against {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let v = greuse_telemetry::json::parse(&src)
            .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
        let base_ips = greuse_bench::record::read_metric(&v, "single_thread_images_per_sec")
            .unwrap_or_else(|| panic!("baseline {path}: missing single_thread_images_per_sec"));
        let overhead = (base_ips - seq_ips) / base_ips;
        println!(
            "telemetry overhead vs {path}: {:+.2}% single-thread \
             (baseline {base_ips:.1} -> this build {seq_ips:.1} images/sec)",
            overhead * 100.0
        );
        if check && overhead > 0.02 {
            eprintln!(
                "CHECK FAILED: this build is {:.2}% slower than the baseline \
                 (budget: 2%); disabled telemetry must stay near-free",
                overhead * 100.0
            );
            std::process::exit(1);
        }
        if check {
            println!("check passed: overhead {:.2}% <= 2%", overhead * 100.0);
        }
    }

    if check {
        // With real hardware parallelism the pool must win outright. On
        // a single hardware thread the speedup is None — the gate never
        // sees a noise value, by construction.
        match speedup {
            None => println!(
                "check SKIPPED: parallel speedup gate needs >= 2 hardware threads \
                 (host has {hw_threads}); recorded parallel_speedup_gate = \"{speedup_gate}\""
            ),
            Some(s) if s < 1.0 => {
                eprintln!(
                    "CHECK FAILED: parallel speedup {s:.3} < required 1.00 \
                     ({hw_threads} hardware threads)"
                );
                std::process::exit(1);
            }
            Some(s) => println!("check passed: speedup {s:.3} >= 1.00"),
        }
    }
}
