//! Kernel benchmark: GFLOP/s of the packed GEMM microkernel against the
//! pre-pack scalar reference, single thread and pool-parallel, the
//! transposed GEMM every dense convolution and `Linear` layer runs
//! (`C = A × Bᵀ`, weights read in place) on network layer shapes, plus
//! LSH hashing throughput batched vs per-row. Emits `BENCH_gemm.json` in
//! the current directory.
//!
//! ```text
//! cargo run --release -p greuse-bench --bin bench_gemm [-- --quick] [-- --check]
//! ```
//!
//! Every shape's packed result is asserted bit for bit against the scalar
//! reference (the transposed shapes on an explicit transpose of the
//! weights), so a mismatch panics in any mode. With `--check` the process
//! also exits nonzero when the packed kernel fails to reach 2x the scalar
//! reference on the 96x48x16 shape, or when batched hashing fails to beat
//! per-row hashing.

use std::time::Instant;

use greuse_bench::quick_mode;
use greuse_lsh::{HashFamily, SigScratch};
use greuse_tensor::{
    gemm_bt_f32_into_with, gemm_f32, gemm_f32_parallel, gemm_ref_f32, GemmScratch, Tensor,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / secs / 1e9
}

fn main() {
    let quick = quick_mode();
    let check = std::env::args().any(|a| a == "--check");
    // The 96x48x16 shape is the acceptance shape (a CifarNet-ish im2col
    // panel); the larger shape shows blocked-cache behaviour.
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(96, 48, 16)]
    } else {
        &[(96, 48, 16), (256, 128, 64)]
    };
    let (gemm_reps, hash_reps) = if quick { (50, 30) } else { (200, 100) };
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = hw_threads.max(2);
    let mut rng = SmallRng::seed_from_u64(11);

    println!("=== GEMM kernel benchmark ===");
    let mut shape_json = Vec::new();
    let mut first_ratio = 0.0f64;
    for &(m, k, n) in shapes {
        let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-1.0f32..1.0));

        // Warm the pack buffers and the worker pool outside the timers.
        let want = gemm_ref_f32(&a, &b).expect("scalar reference");
        let got = gemm_f32(&a, &b).expect("packed gemm");
        assert_eq!(got, want, "packed kernel must match the scalar reference");
        gemm_f32_parallel(&a, &b, threads).expect("parallel warm-up");

        let t_ref = best_of(gemm_reps, || {
            std::hint::black_box(gemm_ref_f32(&a, &b).unwrap());
        });
        let t_packed = best_of(gemm_reps, || {
            std::hint::black_box(gemm_f32(&a, &b).unwrap());
        });
        let t_par = best_of(gemm_reps, || {
            std::hint::black_box(gemm_f32_parallel(&a, &b, threads).unwrap());
        });

        let (g_ref, g_packed, g_par) = (
            gflops(m, k, n, t_ref),
            gflops(m, k, n, t_packed),
            gflops(m, k, n, t_par),
        );
        let ratio = g_packed / g_ref;
        if first_ratio == 0.0 {
            first_ratio = ratio;
        }
        println!("{m}x{k}x{n}:");
        println!("  scalar reference: {g_ref:>7.3} GFLOP/s");
        println!("  packed (1 thread): {g_packed:>6.3} GFLOP/s  ({ratio:.2}x scalar)");
        println!("  packed (pool, {threads} threads): {g_par:>6.3} GFLOP/s");
        shape_json.push(format!(
            "    {{\n      \"m\": {m},\n      \"k\": {k},\n      \"n\": {n},\n      \"scalar_gflops\": {g_ref},\n      \"packed_gflops\": {g_packed},\n      \"parallel_gflops\": {g_par},\n      \"packed_over_scalar\": {ratio}\n    }}"
        ));
    }

    // --- Transposed GEMM `C = A × Bᵀ` on layer shapes (m activation rows,
    // k, n weight rows): below 8 rows the AVX2 tier runs the
    // weight-stationary kernel, from 8 rows on the lane-packed one.
    let bt_shapes: &[(&str, usize, usize, usize)] = &[
        ("resnet18.conv5_x", 4, 4608, 512),
        ("cifarnet.fc1", 1, 4096, 192),
        ("resnet18.conv3_x", 64, 1152, 128),
    ];
    let bt_reps = if quick { 10 } else { 50 };
    let mut bt_json = Vec::new();
    let mut bt_scratch = GemmScratch::new();
    for &(layer, m, k, n) in bt_shapes {
        let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0f32..1.0));
        let w = Tensor::from_fn(&[n, k], |_| rng.gen_range(-1.0f32..1.0));
        let wt = w.transpose();
        let want = gemm_ref_f32(&a, &wt).expect("scalar reference");
        let mut c = vec![0.0f32; m * n];
        let mut run = |c: &mut [f32]| {
            gemm_bt_f32_into_with(a.as_slice(), w.as_slice(), c, m, k, n, &mut bt_scratch)
                .expect("transposed gemm");
        };
        run(&mut c);
        assert!(
            c.iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "transposed kernel must match the scalar reference bit for bit on {layer} {m}x{k}x{n}"
        );
        let t_ref = best_of(bt_reps, || {
            std::hint::black_box(gemm_ref_f32(&a, &wt).unwrap());
        });
        let t_bt = best_of(bt_reps, || {
            run(&mut c);
            std::hint::black_box(&c);
        });
        let (g_ref, g_bt) = (gflops(m, k, n, t_ref), gflops(m, k, n, t_bt));
        let ratio = g_bt / g_ref;
        println!("{layer} {m}x{k}x{n} (C = A x B^T, bitwise equal):");
        println!("  scalar reference: {g_ref:>7.3} GFLOP/s");
        println!("  transposed (1 thread): {g_bt:>6.3} GFLOP/s  ({ratio:.2}x scalar)");
        bt_json.push(format!(
            "    {{\n      \"layer\": \"{layer}\",\n      \"m\": {m},\n      \"k\": {k},\n      \"n\": {n},\n      \"scalar_gflops\": {g_ref},\n      \"transposed_gflops\": {g_bt},\n      \"transposed_over_scalar\": {ratio}\n    }}"
        ));
    }

    // --- LSH hashing throughput: one projection GEMM vs a dot per row ---
    let (rows, l, h) = if quick { (256, 48, 16) } else { (2048, 96, 24) };
    let family = HashFamily::random(h, l, &mut rng);
    let x: Vec<f32> = (0..rows * l).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut sigs = Vec::new();
    let mut scratch = SigScratch::new();
    family
        .hash_rows_into(&x, rows, &mut sigs, &mut scratch)
        .expect("warm-up");
    let t_batched = best_of(hash_reps, || {
        family
            .hash_rows_into(&x, rows, &mut sigs, &mut scratch)
            .unwrap();
        std::hint::black_box(&sigs);
    });
    let t_per_row = best_of(hash_reps, || {
        sigs.clear();
        for r in 0..rows {
            sigs.push(family.hash(&x[r * l..(r + 1) * l]));
        }
        std::hint::black_box(&sigs);
    });
    let batched_rps = rows as f64 / t_batched;
    let per_row_rps = rows as f64 / t_per_row;
    let hash_ratio = batched_rps / per_row_rps;
    println!("hashing {rows} rows, L={l}, H={h}:");
    println!("  per-row: {per_row_rps:>12.0} rows/sec");
    println!("  batched: {batched_rps:>12.0} rows/sec  ({hash_ratio:.2}x)");

    greuse_bench::record::BenchRecord::new("gemm")
        // Machine-dependent, so a note rather than an exact-match param.
        .note("threads", threads.to_string())
        .param("hash_rows", rows as f64)
        .param("hash_l", l as f64)
        .param("hash_h", h as f64)
        .metric("first_shape_packed_over_scalar", first_ratio)
        .metric("hash_per_row_rows_per_sec", per_row_rps)
        .metric("hash_batched_rows_per_sec", batched_rps)
        .metric("hash_batched_over_per_row", hash_ratio)
        .raw("gemm", format!("[\n{}\n  ]", shape_json.join(",\n")))
        .raw("gemm_bt", format!("[\n{}\n  ]", bt_json.join(",\n")))
        .write();

    if check {
        let mut failed = false;
        if first_ratio < 2.0 {
            eprintln!(
                "CHECK FAILED: packed kernel is only {first_ratio:.2}x the scalar \
                 reference on 96x48x16 (need 2.0x)"
            );
            failed = true;
        }
        if hash_ratio < 1.0 {
            eprintln!("CHECK FAILED: batched hashing is {hash_ratio:.2}x per-row (need >= 1.0x)");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: packed {first_ratio:.2}x scalar, batched hash {hash_ratio:.2}x, \
             {} transposed shapes bitwise equal",
            bt_shapes.len()
        );
    }
}
