//! Acceptance: a whole-network forward keeps each patterned layer's
//! executor state resident.
//!
//! Backends check one pooled workspace out for every layer of a forward.
//! The workspace keeps a resident entry per layer beside one shared
//! scratch arena, so after warm-up a forward must neither allocate inside
//! any `conv_gemm_into` call nor rebuild a patterned layer's hash
//! families, and its logits must match a freshly built backend bit for
//! bit.
//!
//! This is its own test binary because it reads the process-global
//! `exec.layer_latency` histograms and counts allocations per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use greuse::{GuardConfig, QuantizedBackend, RandomHashProvider, ReuseBackend, ReusePattern};
use greuse_data::SyntheticDataset;
use greuse_nn::models::{ZooModel, ZooScale};
use greuse_nn::{ptq_int8, ConvBackend, Network};
use greuse_tensor::{ConvSpec, Tensor, TensorError};

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it never allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far. Per-thread, so the
/// other test in this binary cannot disturb a measurement.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// A pass-through backend that counts the allocations made inside the
/// wrapped backend's `conv_gemm_into`.
struct Counting<'a> {
    inner: &'a dyn ConvBackend,
    allocs: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn ConvBackend) -> Self {
        Counting {
            inner,
            allocs: AtomicU64::new(0),
        }
    }
}

impl ConvBackend for Counting<'_> {
    fn conv_gemm(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        self.inner.conv_gemm(layer, spec, x, weights)
    }

    fn conv_gemm_into(
        &self,
        layer: &str,
        spec: &ConvSpec,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        y: &mut Tensor<f32>,
    ) -> Result<(), TensorError> {
        let before = thread_allocs();
        let out = self.inner.conv_gemm_into(layer, spec, x, weights, y);
        self.allocs
            .fetch_add(thread_allocs() - before, Ordering::Relaxed);
        out
    }
}

/// Samples recorded so far on one layer's `exec.layer_latency` series.
fn latency_count(layer: &str, backend: &str, mode: &str) -> u64 {
    greuse_telemetry::metrics::hist_labeled(
        "exec.layer_latency",
        &[("layer", layer), ("backend", backend), ("mode", mode)],
    )
    .snapshot()
    .count
}

const FORWARDS: usize = 5;

/// Runs the steady-state protocol on one network/backend pair: two
/// warm-up forwards, then `FORWARDS` counted forwards over fresh images,
/// each checked bitwise against a freshly built backend's first forward.
/// Returns the exercised backend for stat checks.
fn check_network<B: ConvBackend>(
    net: &dyn Network,
    build: impl Fn() -> B,
    images: &[Tensor<f32>],
    patterned: &[&str],
    backend_label: &str,
) -> B {
    greuse_telemetry::enable();
    let backend = build();
    for x in &images[..2] {
        net.forward(x, &backend).unwrap();
    }
    let build_before: Vec<u64> = patterned
        .iter()
        .map(|l| latency_count(l, backend_label, "build"))
        .collect();
    let fused_before: Vec<u64> = patterned
        .iter()
        .map(|l| latency_count(l, backend_label, "fused"))
        .collect();

    let counting = Counting::new(&backend);
    let logits: Vec<Vec<f32>> = images[2..]
        .iter()
        .map(|x| net.forward(x, &counting).unwrap())
        .collect();
    assert_eq!(
        counting.allocs.load(Ordering::Relaxed),
        0,
        "conv_gemm_into allocated after warm-up ({backend_label})"
    );

    for (i, layer) in patterned.iter().enumerate() {
        assert_eq!(
            latency_count(layer, backend_label, "build"),
            build_before[i],
            "{layer} rebuilt its hash families after warm-up"
        );
        if cfg!(feature = "telemetry") {
            assert_eq!(
                latency_count(layer, backend_label, "fused") - fused_before[i],
                FORWARDS as u64,
                "{layer} must run fused on every steady-state forward"
            );
        }
    }

    // A fresh backend builds each layer's hash families on its first
    // call; the resident state must reproduce it bit for bit.
    for (x, got) in images[2..].iter().zip(&logits) {
        let fresh = net.forward(x, &build()).unwrap();
        assert_eq!(&fresh, got, "resident state changed the logits");
    }
    backend
}

fn images(dataset: SyntheticDataset, seed: u64) -> Vec<Tensor<f32>> {
    dataset
        .generate(2 + FORWARDS, seed)
        .into_iter()
        .map(|(x, _)| x)
        .collect()
}

#[test]
fn cifarnet_reuse_backend_stays_resident() {
    let net = ZooModel::CifarNet.build(ZooScale::Paper, 10, 1);
    let images = images(SyntheticDataset::cifar_like(3), 5);
    let build = || {
        ReuseBackend::new(RandomHashProvider::new(11))
            .with_guard(GuardConfig::strict())
            .with_patterns([
                ("conv1", ReusePattern::conventional(25, 4)),
                ("conv2", ReusePattern::conventional(32, 4)),
            ])
    };
    let backend = check_network(net.as_ref(), build, &images, &["conv1", "conv2"], "f32");
    for layer in ["conv1", "conv2"] {
        let stats = backend.layer_stats(layer).unwrap();
        assert_eq!(stats.calls, (2 + FORWARDS) as u64, "{layer}");
        assert_eq!(stats.fallbacks, 0, "{layer}");
    }
}

#[test]
fn squeezenet_quantized_backend_stays_resident() {
    let mut net = ZooModel::SqueezeNetVanilla.build(ZooScale::Paper, 10, 1);
    ptq_int8(net.as_mut()).unwrap();
    let images = images(SyntheticDataset::svhn_like(3), 5);
    let patterned = ["fire2.expand3x3", "fire3.expand3x3"];
    let build = || {
        QuantizedBackend::new(RandomHashProvider::new(11))
            .with_guard(GuardConfig::strict())
            .with_patterns(
                patterned
                    .iter()
                    .map(|&l| (l, ReusePattern::conventional(16, 4))),
            )
    };
    let backend = check_network(net.as_ref(), build, &images, &patterned, "int8");
    for layer in patterned {
        let stats = backend.layer_stats(layer).unwrap();
        assert_eq!(stats.calls, (2 + FORWARDS) as u64, "{layer}");
        assert_eq!(stats.fallbacks, 0, "{layer}");
    }
}
