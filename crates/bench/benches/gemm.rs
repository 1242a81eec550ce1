//! GEMM kernel benchmarks: f32 and CMSIS-NN-style fixed-point Q7, at the
//! layer shapes of the evaluated networks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greuse_tensor::{gemm_f32, gemm_q7, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    Tensor::from_fn(&[r, c], |_| rng.gen_range(-1.0f32..1.0))
}

fn rand_q7(r: usize, c: usize, seed: u64) -> Tensor<i8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    Tensor::from_fn(&[r, c], |_| rng.gen_range(-127i8..=127))
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // (N, K, M): CifarNet conv1, conv2 shapes.
    for &(n, k, m) in &[(1024usize, 75usize, 64usize), (256, 1600, 64)] {
        let a = rand_mat(n, k, 1);
        let b = rand_mat(k, m, 2);
        group.bench_with_input(
            BenchmarkId::new("f32", format!("{n}x{k}x{m}")),
            &(),
            |bch, _| bch.iter(|| gemm_f32(&a, &b).unwrap()),
        );
        let aq = rand_q7(n, k, 3);
        let bq = rand_q7(k, m, 4);
        group.bench_with_input(
            BenchmarkId::new("q7", format!("{n}x{k}x{m}")),
            &(),
            |bch, _| bch.iter(|| gemm_q7(&aq, &bq, 8).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm
}
criterion_main!(benches);
