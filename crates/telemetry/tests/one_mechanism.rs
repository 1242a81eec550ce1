//! The one telemetry mechanism with capture on and a ring installed: a
//! span ended into a histogram feeds the ring event and the sample from
//! one clock pair, counters share one series per key, and one `reset`
//! clears everything.
#![cfg(feature = "capture")]

use std::sync::{Mutex, MutexGuard};

use greuse_telemetry::metrics::{self, Counter, Gauge, Hist, Metric};

/// Serializes the tests: they enable, disable and reset process-global
/// state.
fn setup() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    greuse_telemetry::install(1024);
    greuse_telemetry::reset();
    guard
}

#[test]
fn finished_span_gives_ring_and_histogram_one_duration() {
    let _l = setup();
    let hist = Hist::lookup("one.finish_latency");
    greuse_telemetry::enable();
    let span = greuse_telemetry::span!("one.finish", timed: true);
    std::thread::sleep(std::time::Duration::from_millis(1));
    span.finish(hist);
    greuse_telemetry::disable();

    let evs: Vec<_> = greuse_telemetry::events()
        .into_iter()
        .filter(|e| e.name == "one.finish")
        .collect();
    assert_eq!(evs.len(), 1, "finish records the ring event once");
    let s = hist.snapshot();
    assert_eq!(s.count, 1);
    assert!(evs[0].dur_ns >= 1_000_000);
    assert_eq!(s.sum_ns, evs[0].dur_ns);
    assert_eq!((s.min_ns, s.max_ns), (evs[0].dur_ns, evs[0].dur_ns));
}

#[test]
fn counter_sites_sharing_a_key_are_one_series() {
    let _l = setup();
    greuse_telemetry::enable();
    greuse_telemetry::counter!("one.shared").add(2);
    greuse_telemetry::counter!("one.shared").add(3);
    greuse_telemetry::disable();

    assert!(std::ptr::eq(
        greuse_telemetry::counter!("one.shared"),
        Counter::lookup("one.shared")
    ));
    let series: Vec<_> = metrics::snapshot()
        .counters
        .into_iter()
        .filter(|(key, _)| *key == "one.shared")
        .collect();
    assert_eq!(series, vec![("one.shared", 5)]);
}

#[test]
fn one_reset_clears_ring_drops_and_every_metric() {
    let _l = setup();
    greuse_telemetry::enable();
    for _ in 0..1100 {
        let _s = greuse_telemetry::span!("one.flood");
    }
    greuse_telemetry::counter!("one.reset_count").add(7);
    greuse_telemetry::gauge!("one.reset_gauge").set(3.5);
    greuse_telemetry::hist!("one.reset_latency").record_ns(42);
    greuse_telemetry::disable();
    assert!(!greuse_telemetry::events().is_empty());
    assert!(greuse_telemetry::dropped_events() > 0);
    assert_eq!(Counter::lookup("one.reset_count").get(), 7);
    assert_eq!(Gauge::lookup("one.reset_gauge").get(), 3.5);
    assert_eq!(Hist::lookup("one.reset_latency").snapshot().count, 1);

    greuse_telemetry::reset();
    assert!(greuse_telemetry::events().is_empty());
    assert_eq!(greuse_telemetry::dropped_events(), 0);
    let snap = metrics::snapshot();
    assert!(snap.counters.iter().all(|&(_, v)| v == 0));
    assert!(snap.gauges.iter().all(|&(_, v)| v == 0.0));
    assert!(snap.hists.iter().all(|h| h.count == 0));
    // Registrations survive the reset: the series stay exported.
    assert!(snap.counters.contains(&("one.reset_count", 0)));
    assert!(snap.hists.iter().any(|h| h.key == "one.reset_latency"));
}
