//! Capture enabled with no event ring installed, as `greuse serve` and
//! `greuse stream` run: a plain span has nowhere to record and records
//! nothing, while a span ended into a histogram still samples it. Its own
//! test binary, because a ring, once installed, stays for the process.
#![cfg(feature = "capture")]

use greuse_telemetry::metrics::{Hist, Metric};

#[test]
fn without_a_ring_only_histogram_spans_record() {
    greuse_telemetry::enable();
    let hist = Hist::lookup("no_ring.latency");
    {
        let _plain = greuse_telemetry::span!("no_ring.plain");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let timed = greuse_telemetry::span!("no_ring.timed", timed: true);
    std::thread::sleep(std::time::Duration::from_millis(1));
    timed.finish(hist);
    greuse_telemetry::disable();

    assert!(greuse_telemetry::events().is_empty());
    assert_eq!(greuse_telemetry::dropped_events(), 0);
    let s = hist.snapshot();
    assert_eq!(s.count, 1, "the histogram span samples without a ring");
    assert!(s.min_ns >= 1_000_000, "sample covers the 1 ms sleep");

    // Nothing was held back for a ring installed later.
    assert!(greuse_telemetry::install(16));
    assert!(greuse_telemetry::events().is_empty());
}
