//! Acceptance: single-image reuse execution through an [`ExecWorkspace`]
//! performs **zero heap allocations** in steady state.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! call sizes the workspace (and the data-independent hash provider fills
//! its per-panel family cache), repeated `execute_into` calls on the same
//! key must not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use greuse::{
    BatchExecutor, ExecWorkspace, QuantWorkspace, RandomHashProvider, ReuseDirection, ReusePattern,
};
use greuse_tensor::{ConvSpec, Tensor};

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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn assert_zero_alloc_steady_state(pattern: ReusePattern, spec: Option<&ConvSpec>) {
    let (n, k, m) = (64usize, 48usize, 8usize);
    let hashes = RandomHashProvider::new(7);
    let x = Tensor::from_fn(&[n, k], |i| ((i % 101) as f32 * 0.13).sin());
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
    let mut y = vec![0.0f32; n * m];

    let mut ws = ExecWorkspace::new();
    // Warm-up: sizes buffers, builds permutations, caches hash families.
    let warm = ws
        .execute_into(&x, &w, spec, &pattern, &hashes, "conv1", &mut y)
        .unwrap();

    let before = allocs();
    let mut repeat = warm;
    for _ in 0..5 {
        repeat = ws
            .execute_into(&x, &w, spec, &pattern, &hashes, "conv1", &mut y)
            .unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state execute_into allocated ({:?})",
        pattern
    );
    assert_eq!(repeat, warm, "steady-state runs must be deterministic");
}

/// The int8 executor re-quantizes activations on every call, but all of
/// its buffers (quantized operands, i32 accumulators, packed panels,
/// cluster scratch, cached hash families) are sized by the warm-up call —
/// so its steady state must be allocation-free too, patterned or dense.
fn assert_quantized_steady_state(pattern: Option<ReusePattern>) {
    let (n, k, m) = (64usize, 48usize, 8usize);
    let hashes = RandomHashProvider::new(7);
    let x = Tensor::from_fn(&[n, k], |i| ((i % 101) as f32 * 0.13).sin());
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
    let mut y = vec![0.0f32; n * m];

    let mut ws = QuantWorkspace::new();
    let warm = ws
        .execute_into(&x, &w, pattern.as_ref(), &hashes, "conv1", &mut y)
        .unwrap();

    let before = allocs();
    let mut repeat = warm;
    for _ in 0..5 {
        repeat = ws
            .execute_into(&x, &w, pattern.as_ref(), &hashes, "conv1", &mut y)
            .unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state quantized execute_into allocated ({:?})",
        pattern
    );
    assert_eq!(repeat, warm, "steady-state runs must be deterministic");
}

/// The pool-based parallel batch path must also stop allocating once the
/// executor's slot vector, the output tensors, and every pool thread's
/// thread-local workspace have been sized by a warm-up batch.
///
/// Worker threads are spawned lazily by the global pool on the first
/// dispatch, so the warm-up run also absorbs thread-stack and
/// workspace-growth allocations.
fn assert_parallel_batch_steady_state() {
    let (images, n, k, m, threads) = (6usize, 64usize, 48usize, 8usize, 2usize);
    let pattern = ReusePattern::conventional(16, 4);
    let hashes = RandomHashProvider::new(7);
    let xs: Vec<Tensor<f32>> = (0..images)
        .map(|img| Tensor::from_fn(&[n, k], |i| (((i + img * 131) % 101) as f32 * 0.13).sin()))
        .collect();
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
    let mut ys: Vec<Tensor<f32>> = (0..images).map(|_| Tensor::zeros(&[n, m])).collect();

    let mut exec = BatchExecutor::new();
    // Deterministically size every pool thread's workspace — lazy warm-up
    // depends on which thread claims which image, which is scheduling
    // noise an allocation counter must not be exposed to.
    exec.warm(&xs, &w, &pattern, &hashes).unwrap();
    let warm = exec
        .execute(&xs, &w, &pattern, &hashes, threads, &mut ys)
        .unwrap();

    let before = allocs();
    let mut repeat = warm;
    for _ in 0..5 {
        repeat = exec
            .execute(&xs, &w, &pattern, &hashes, threads, &mut ys)
            .unwrap();
    }
    let after = allocs();
    assert_eq!(after - before, 0, "steady-state parallel batch allocated");
    assert_eq!(repeat, warm, "steady-state batches must be deterministic");
}

/// The temporal cache's warm path must be allocation-free too: after
/// the family-building call, the storing call, and the first hit have
/// sized the cache, repeated identical frames replay cached centroid
/// outputs without allocating — on both executors.
fn assert_temporal_cache_steady_state() {
    let (n, k, m) = (64usize, 48usize, 8usize);
    let pattern = ReusePattern::conventional(12, 4);
    let hashes = RandomHashProvider::new(7);
    let x = Tensor::from_fn(&[n, k], |i| ((i % 101) as f32 * 0.13).sin());
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
    let mut y = vec![0.0f32; n * m];

    let mut ws = ExecWorkspace::new();
    ws.set_temporal_cache(true);
    let mut warm = Default::default();
    for _ in 0..3 {
        warm = ws
            .execute_into(&x, &w, None, &pattern, &hashes, "conv1", &mut y)
            .unwrap();
    }
    assert!(warm.cache_hits > 0, "third identical frame must hit");
    let before = allocs();
    for _ in 0..5 {
        let repeat = ws
            .execute_into(&x, &w, None, &pattern, &hashes, "conv1", &mut y)
            .unwrap();
        assert!(repeat.cache_hits > 0, "steady frames must stay warm");
    }
    assert_eq!(allocs() - before, 0, "warm f32 cache replay allocated");

    let mut qws = QuantWorkspace::new();
    qws.set_temporal_cache(true);
    let mut qwarm = Default::default();
    for _ in 0..3 {
        qwarm = qws
            .execute_into(&x, &w, Some(&pattern), &hashes, "conv1", &mut y)
            .unwrap();
    }
    assert!(qwarm.cache_hits > 0, "third identical int8 frame must hit");
    let before = allocs();
    for _ in 0..5 {
        let repeat = qws
            .execute_into(&x, &w, Some(&pattern), &hashes, "conv1", &mut y)
            .unwrap();
        assert!(repeat.cache_hits > 0, "steady int8 frames must stay warm");
    }
    assert_eq!(allocs() - before, 0, "warm int8 cache replay allocated");
}

// One test function, not five: the allocation counter is process-global,
// and the libtest harness runs `#[test]`s concurrently — parallel cases
// would count each other's warm-up allocations.
#[test]
fn steady_state_allocates_nothing() {
    use greuse::{ReuseOrder, RowOrder};

    // Conventional vertical reuse.
    assert_zero_alloc_steady_state(ReusePattern::conventional(16, 4), None);
    // Ragged panels (K=48, L=20) and ragged blocks (N=64, b=3).
    assert_zero_alloc_steady_state(ReusePattern::conventional(20, 4).with_block_rows(3), None);
    // Horizontal (M-2) direction.
    assert_zero_alloc_steady_state(
        ReusePattern::conventional(16, 4).with_direction(ReuseDirection::Horizontal),
        None,
    );
    // Spec-aware column reorder plus row reorder (fused gather path).
    let spec = ConvSpec::new(3, 8, 4, 4);
    assert_eq!(spec.patch_len(), 48);
    assert_zero_alloc_steady_state(
        ReusePattern::conventional(16, 4)
            .with_order(ReuseOrder::ChannelFirst)
            .with_row_order(RowOrder::SpatialTiles(2)),
        Some(&spec),
    );
    // Pool-based parallel batch path.
    assert_parallel_batch_steady_state();
    // Quantized executor: dense int8 and the int8 reuse walk.
    assert_quantized_steady_state(None);
    assert_quantized_steady_state(Some(ReusePattern::conventional(16, 4)));
    // Temporal cache's warm replay path.
    assert_temporal_cache_steady_state();

    // Telemetry enabled: spans write to preallocated ring slots and
    // counters to static atomics, so the instrumented steady state must
    // also be allocation-free. The in-case warm-up call absorbs the
    // one-time span-name interning and counter registration; ring
    // overflow drops events rather than growing.
    greuse_telemetry::install(1 << 15);
    greuse_telemetry::enable();
    assert_zero_alloc_steady_state(ReusePattern::conventional(16, 4), None);
    assert_parallel_batch_steady_state();
    assert_quantized_steady_state(None);
    assert_quantized_steady_state(Some(ReusePattern::conventional(16, 4)));
    greuse_telemetry::disable();
    #[cfg(feature = "telemetry")]
    assert!(
        !greuse_telemetry::events().is_empty(),
        "instrumented run must have recorded spans"
    );
}
