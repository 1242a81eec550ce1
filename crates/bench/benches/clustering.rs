//! LSH hashing + online clustering benchmarks at typical (n, L, H)
//! operating points, plus random vs data-adapted family construction,
//! plus the leader walk alone (`cluster_presigned`) at the panel shapes
//! of the whole-network workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greuse_lsh::{
    cluster_rows, refine_threshold, top_principal_directions, ClusterScratch, HashFamily,
};
use greuse_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn redundant(n: usize, l: usize, protos: usize, seed: u64) -> Tensor<f32> {
    noisy_prototypes(n, l, protos, 0.02, seed)
}

/// `n` rows cycling through `protos` uniform random prototypes, each
/// element jittered by up to `±noise`.
fn noisy_prototypes(n: usize, l: usize, protos: usize, noise: f32, seed: u64) -> Tensor<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = Tensor::from_fn(&[protos, l], |_| rng.gen_range(-1.0f32..1.0));
    Tensor::from_fn(&[n, l], |i| {
        let (r, c) = (i / l, i % l);
        base[[r % protos, c]] + rng.gen_range(-noise..noise)
    })
}

/// The leader walk alone: signatures and the refinement radius are
/// computed once outside the timed loop, as the fused sweep hands them
/// to the executors. Operating points are the panels of the perfbench
/// workloads: serve-f32 (CifarNet conv2, L32/H4, few distinct rows per
/// panel), cifarnet-f32 conv1 (L25/H4) and squeezenet-int8 fire
/// expand3x3 (L16/H4); the jitter spreads each bucket over several
/// leaders, so the walk compares against more than the first one.
fn bench_leader_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("leader_walk");
    group.sample_size(200);
    let regimes = [
        ("serve", 256usize, 32usize, 8usize, 0.02f32),
        ("cifarnet_conv1", 1024, 25, 64, 0.35),
        ("squeezenet", 256, 16, 32, 0.35),
    ];
    for (name, n, l, protos, noise) in regimes {
        let data = noisy_prototypes(n, l, protos, noise, 5);
        let mut rng = SmallRng::seed_from_u64(13);
        let family = HashFamily::random(4, l, &mut rng);
        let sigs = family.hash_rows(&data).unwrap();
        let norms: f64 = (0..n)
            .map(|r| {
                let row = data.row(r).iter().map(|v| f64::from(*v) * f64::from(*v));
                row.sum::<f64>().sqrt()
            })
            .sum();
        let tau = refine_threshold((norms / n as f64) as f32, family.h());
        let mut scratch = ClusterScratch::new();
        group.bench_with_input(
            BenchmarkId::new("cluster_presigned", format!("{name}_n{n}_L{l}_H4")),
            &(),
            |bch, _| {
                bch.iter(|| {
                    scratch
                        .cluster_presigned(data.as_slice(), n, l, &sigs, tau)
                        .unwrap();
                    scratch.num_clusters()
                })
            },
        );
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for &(n, l, h) in &[(4096usize, 20usize, 3usize), (1024, 75, 6), (256, 300, 5)] {
        let data = redundant(n, l, 32, 7);
        let mut rng = SmallRng::seed_from_u64(11);
        let family = HashFamily::random(h, l, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("cluster_rows", format!("n{n}_L{l}_H{h}")),
            &(),
            |bch, _| bch.iter(|| cluster_rows(&data, &family).unwrap()),
        );
    }
    // Family construction: random vs data-adapted (the "learned" stand-in).
    let data = redundant(512, 75, 32, 9);
    group.bench_function("family_random_H6_L75", |bch| {
        bch.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            HashFamily::random(6, 75, &mut rng)
        })
    });
    group.bench_function("family_adapted_H6_L75", |bch| {
        bch.iter(|| HashFamily::data_adapted(&data, 6).unwrap())
    });
    group.bench_function("pca_top3_512x75", |bch| {
        bch.iter(|| top_principal_directions(&data, 3, 40).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_clustering, bench_leader_walk
}
criterion_main!(benches);
