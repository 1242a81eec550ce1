//! Proves the `capture`-off build of spans, `counter!` / `gauge!` /
//! `hist!` (and the metrics registry behind them) is a true no-op:
//! zero-sized metric and handle types, no allocation, no recorded state.
//! Built and run by CI as
//! `cargo test -p greuse-telemetry --no-default-features`; with the
//! default `capture` feature on, this file compiles to nothing.
#![cfg(not(feature = "capture"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn capture_off_metrics_are_true_no_ops() {
    use greuse_telemetry::metrics::{self, Counter, Gauge, Handle, Hist};

    // The stub types are zero-sized — the compile-time half of the
    // guarantee: a `Hist` reference carries no state to update.
    assert_eq!(std::mem::size_of::<Hist>(), 0);
    assert_eq!(std::mem::size_of::<Gauge>(), 0);
    assert_eq!(std::mem::size_of::<Counter>(), 0);
    assert_eq!(std::mem::size_of::<Handle<Hist>>(), 0);
    assert_eq!(std::mem::size_of::<Handle<Gauge>>(), 0);
    assert_eq!(std::mem::size_of::<Handle<Counter>>(), 0);
    assert_eq!(std::mem::size_of::<greuse_telemetry::SpanGuard>(), 0);

    // Enabling is itself a no-op with capture off, and recording through
    // every surface allocates nothing.
    greuse_telemetry::enable();
    assert!(!greuse_telemetry::enabled());

    let h = greuse_telemetry::hist!("noop.latency");
    let g = greuse_telemetry::gauge!("noop.gauge");
    let dynamic = metrics::hist_labeled("noop.labeled", &[("k", "v")]);
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        h.record_ns(i);
        dynamic.record_ns(i * 3);
        g.set(i as f64);
        greuse_telemetry::counter!("noop.count").add(1);
        let _span = greuse_telemetry::span!("noop.span");
        greuse_telemetry::span!("noop.timed", timed: true).finish(h);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "capture-off recording must not allocate");

    // And nothing was recorded anywhere.
    assert_eq!(h.snapshot().count, 0);
    assert_eq!(g.get(), 0.0);
    let snap = metrics::snapshot();
    assert!(snap.hists.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(greuse_telemetry::events().is_empty());
    assert!(snap.counters.is_empty());
}
