//! Lightweight, feature-gated telemetry for the reuse pipeline: one span
//! mechanism and one metrics registry, both cheap enough to leave in
//! production builds.
//!
//! - [`span!`] — an RAII timer tied to a `&'static str` call-site name.
//!   While capture is disabled (the default at runtime, or compiled out when
//!   the `capture` feature is off) entering a span is a single relaxed
//!   atomic load plus a branch: no clock read, no allocation. A span reads
//!   the clock only when it has somewhere to record: the event ring, or a
//!   histogram it ends into ([`SpanGuard::finish`]; declare such a span
//!   with `span!(name, timed: true)`). One clock pair then feeds both.
//! - [`counter!`], [`gauge!`] and [`hist!`] — per-call-site lazy handles
//!   ([`metrics::Handle`]) into the one [`metrics`] registry, where a key
//!   names one series whichever call sites record into it.
//!
//! Completed spans land in a fixed-capacity lock-free ring preallocated by
//! [`install`]; once the ring is full further events are dropped and counted
//! ([`dropped_events`]), never allocated. Span names are interned into small
//! `u32` ids on first recorded use, so the steady state records three atomic
//! stores per span and nothing else. This is what lets the zero-allocation
//! steady-state tests in `greuse-core` run with capture enabled.
//!
//! [`reset`] clears the ring and zeroes every metric. Snapshots are taken
//! after [`disable`] via [`events`] and [`metrics::snapshot`], and exported
//! with [`chrome_trace`] (Chrome trace-event JSON, loadable in
//! `chrome://tracing` or Perfetto), [`prom::render`], or serialized by
//! callers using the [`json`] helpers.

#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod metrics;
pub mod prom;

#[cfg(feature = "capture")]
use std::cell::Cell;
#[cfg(feature = "capture")]
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(feature = "capture")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "capture")]
use std::time::Instant;

use metrics::Hist;

/// One completed span occurrence, decoded from the event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Call-site name (e.g. `"exec.cluster"`).
    pub name: &'static str,
    /// Tag that was active on the recording thread (see [`set_tag`]);
    /// zero means untagged. Backends tag work with a per-layer id.
    pub tag: u32,
    /// Telemetry-local id of the recording thread (1-based, assigned on
    /// first record; unrelated to OS thread ids).
    pub tid: u32,
    /// Start time in nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Declares a span call-site and returns an RAII guard timing the enclosing
/// scope. Bind it to keep it alive: `let _span = telemetry::span!("phase");`.
/// With `timed: true` the span reads the clock whenever capture is active,
/// ring or not, so [`SpanGuard::finish`] can end it into a histogram:
/// `let s = telemetry::span!("exec.layer", timed: true); …; s.finish(hist);`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, timed: false)
    };
    ($name:expr, timed: $timed:expr) => {{
        static META: $crate::SpanMeta = $crate::SpanMeta::new($name);
        $crate::SpanGuard::enter(&META, $timed)
    }};
}

/// Declares a counter call-site and returns the `&'static Counter`
/// registered under the key: `telemetry::counter!("pool.jobs").add(1);`.
/// Like [`gauge!`] and [`hist!`], the site holds a [`metrics::Handle`]:
/// the registry lookup runs once, after that it is one atomic load.
#[macro_export]
macro_rules! counter {
    ($key:expr) => {{
        static HANDLE: $crate::metrics::Handle<$crate::metrics::Counter> =
            $crate::metrics::Handle::new($key);
        HANDLE.get()
    }};
}

/// Declares a gauge call-site and returns the `&'static Gauge` registered
/// under the key: `telemetry::gauge!("pool.workers").set(n as f64);`.
#[macro_export]
macro_rules! gauge {
    ($key:expr) => {{
        static HANDLE: $crate::metrics::Handle<$crate::metrics::Gauge> =
            $crate::metrics::Handle::new($key);
        HANDLE.get()
    }};
}

/// Declares a histogram call-site and returns the `&'static Hist`
/// registered under the key:
/// `telemetry::hist!("serve.request_latency").record_ns(dur);`.
///
/// The key may carry a canonical label block when the series is statically
/// known: `hist!(r#"cache.panel_latency{result="hit"}"#)`. Dynamically
/// labeled series go through [`metrics::hist_labeled`] from a setup phase
/// instead.
#[macro_export]
macro_rules! hist {
    ($key:expr) => {{
        static HANDLE: $crate::metrics::Handle<$crate::metrics::Hist> =
            $crate::metrics::Handle::new($key);
        HANDLE.get()
    }};
}

// ---------------------------------------------------------------------------
// Capture-enabled implementation.
// ---------------------------------------------------------------------------

#[cfg(feature = "capture")]
mod state {
    use super::*;

    pub(crate) struct Slot {
        /// `name_id << 32 | tag << 16 | tid`; zero while unwritten.
        pub(crate) meta: AtomicU64,
        pub(crate) start: AtomicU64,
        pub(crate) dur: AtomicU64,
    }

    pub(crate) struct Ring {
        pub(crate) slots: Vec<Slot>,
        pub(crate) next: AtomicUsize,
        pub(crate) dropped: AtomicU64,
    }

    pub(crate) static RING: OnceLock<Ring> = OnceLock::new();
    pub(crate) static ACTIVE: AtomicBool = AtomicBool::new(false);
    pub(crate) static EPOCH: OnceLock<Instant> = OnceLock::new();
    pub(crate) static NEXT_TID: AtomicU32 = AtomicU32::new(1);
    pub(crate) static SPAN_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

    thread_local! {
        pub(crate) static TID: Cell<u32> = const { Cell::new(0) };
        pub(crate) static TAG: Cell<u32> = const { Cell::new(0) };
    }

    pub(crate) fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Telemetry-local id of the calling thread, assigned on first use.
    pub(crate) fn tid() -> u32 {
        TID.with(|t| {
            let v = t.get();
            if v != 0 {
                v
            } else {
                let v = NEXT_TID
                    .fetch_add(1, Ordering::Relaxed)
                    .min(u16::MAX as u32);
                t.set(v);
                v
            }
        })
    }

    /// Appends one span to the ring, interning its name on first use; a
    /// no-op without a ring.
    pub(crate) fn record(meta: &'static SpanMeta, start_ns: u64, dur_ns: u64) {
        let Some(ring) = RING.get() else { return };
        let name_id = meta.id();
        let idx = ring.next.fetch_add(1, Ordering::Relaxed);
        if idx >= ring.slots.len() {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tid = tid();
        let tag = TAG.with(Cell::get) & 0xFFFF;
        let slot = &ring.slots[idx];
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        let meta = ((name_id as u64) << 32) | ((tag as u64) << 16) | (tid as u64 & 0xFFFF);
        // Release pairs with the Acquire in `events()`: a nonzero meta
        // publishes the start/dur stores above.
        slot.meta.store(meta, Ordering::Release);
    }
}

/// Per-call-site span metadata; created by the [`span!`] macro.
#[cfg(feature = "capture")]
pub struct SpanMeta {
    name: &'static str,
    id: AtomicU32,
}

#[cfg(feature = "capture")]
impl SpanMeta {
    /// Const constructor used by [`span!`]; the id is interned lazily on the
    /// first record so inactive call-sites cost nothing.
    pub const fn new(name: &'static str) -> Self {
        SpanMeta {
            name,
            id: AtomicU32::new(0),
        }
    }

    fn id(&'static self) -> u32 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let mut names = state::SPAN_NAMES
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        // Double-check under the lock: another thread may have interned us.
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        names.push(self.name);
        let id = names.len() as u32; // ids are 1-based; 0 means "unwritten"
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

/// RAII guard created by [`span!`]; records one [`SpanEvent`] when it
/// drops or [finishes](SpanGuard::finish), if it started timing.
#[cfg(feature = "capture")]
pub struct SpanGuard {
    meta: Option<&'static SpanMeta>,
    start_ns: u64,
}

#[cfg(feature = "capture")]
impl SpanGuard {
    /// Starts timing if capture is active and the span has somewhere to
    /// record: an installed ring, or, when `timed`, the histogram
    /// [`SpanGuard::finish`] will end it into. Otherwise returns an inert
    /// guard with no clock read; while capture is inactive that costs one
    /// relaxed load and a branch.
    #[inline]
    pub fn enter(meta: &'static SpanMeta, timed: bool) -> SpanGuard {
        if !state::ACTIVE.load(Ordering::Relaxed) || !(timed || state::RING.get().is_some()) {
            return SpanGuard {
                meta: None,
                start_ns: 0,
            };
        }
        SpanGuard {
            meta: Some(meta),
            start_ns: state::now_ns(),
        }
    }

    /// Ends the span: records its ring event (with a ring installed) and
    /// the same duration as one sample of `hist`. No-op on an inert guard.
    #[inline]
    pub fn finish(mut self, hist: &Hist) {
        if let Some(dur) = self.end() {
            hist.record(dur);
        }
    }

    /// Stops the clock and records the ring event; returns the duration,
    /// or `None` if the guard never started or already ended.
    fn end(&mut self) -> Option<u64> {
        let meta = self.meta.take()?;
        let dur = state::now_ns().saturating_sub(self.start_ns);
        state::record(meta, self.start_ns, dur);
        Some(dur)
    }
}

#[cfg(feature = "capture")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end();
    }
}

/// Preallocates the event ring with capacity for `capacity` spans and pins
/// the clock epoch. One-shot: returns `false` (leaving the original ring in
/// place) if a collector was already installed.
#[cfg(feature = "capture")]
pub fn install(capacity: usize) -> bool {
    let _ = state::EPOCH.set(Instant::now());
    let mut slots = Vec::with_capacity(capacity);
    for _ in 0..capacity {
        slots.push(state::Slot {
            meta: AtomicU64::new(0),
            start: AtomicU64::new(0),
            dur: AtomicU64::new(0),
        });
    }
    state::RING
        .set(state::Ring {
            slots,
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
        .is_ok()
}

/// Turns capture on. Spans and metrics record until [`disable`].
#[cfg(feature = "capture")]
pub fn enable() {
    state::ACTIVE.store(true, Ordering::Relaxed);
}

/// Turns capture off; snapshots should be taken after this returns (and
/// after in-flight worker tasks finish) so the ring is quiescent.
#[cfg(feature = "capture")]
pub fn disable() {
    state::ACTIVE.store(false, Ordering::Relaxed);
}

/// Whether capture is currently active.
#[cfg(feature = "capture")]
pub fn enabled() -> bool {
    state::ACTIVE.load(Ordering::Relaxed)
}

/// Clears the event ring and the drop count, and zeroes every registered
/// counter, gauge and histogram (they stay registered).
#[cfg(feature = "capture")]
pub fn reset() {
    if let Some(ring) = state::RING.get() {
        for slot in &ring.slots[..ring.next.load(Ordering::Relaxed).min(ring.slots.len())] {
            slot.meta.store(0, Ordering::Relaxed);
        }
        ring.next.store(0, Ordering::Relaxed);
        ring.dropped.store(0, Ordering::Relaxed);
    }
    metrics::zero_all();
}

/// Sets the calling thread's tag (attached to every span it records) and
/// returns the previous tag. Backends tag execution with a per-layer id so
/// exporters can attribute phase time to layers.
#[cfg(feature = "capture")]
pub fn set_tag(tag: u32) -> u32 {
    state::TAG.with(|t| t.replace(tag))
}

/// Number of spans dropped because the ring filled up.
#[cfg(feature = "capture")]
pub fn dropped_events() -> u64 {
    state::RING
        .get()
        .map_or(0, |r| r.dropped.load(Ordering::Relaxed))
}

/// Decodes the event ring into a snapshot, in record order. Slots claimed
/// but not yet fully written are skipped.
#[cfg(feature = "capture")]
pub fn events() -> Vec<SpanEvent> {
    let Some(ring) = state::RING.get() else {
        return Vec::new();
    };
    let names = state::SPAN_NAMES
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let used = ring.next.load(Ordering::Relaxed).min(ring.slots.len());
    let mut out = Vec::with_capacity(used);
    for slot in &ring.slots[..used] {
        let meta = slot.meta.load(Ordering::Acquire);
        let name_id = (meta >> 32) as u32;
        if name_id == 0 || name_id as usize > names.len() {
            continue;
        }
        out.push(SpanEvent {
            name: names[name_id as usize - 1],
            tag: ((meta >> 16) & 0xFFFF) as u32,
            tid: (meta & 0xFFFF) as u32,
            start_ns: slot.start.load(Ordering::Relaxed),
            dur_ns: slot.dur.load(Ordering::Relaxed),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Capture-disabled stubs: identical API shapes, all no-ops, so call-sites
// compile unchanged and the optimizer erases them.
// ---------------------------------------------------------------------------

/// Per-call-site span metadata (inert: the `capture` feature is off).
#[cfg(not(feature = "capture"))]
pub struct SpanMeta {
    /// Call-site name; kept for API parity.
    pub name: &'static str,
}

#[cfg(not(feature = "capture"))]
impl SpanMeta {
    /// Const constructor used by [`span!`].
    pub const fn new(name: &'static str) -> Self {
        SpanMeta { name }
    }
}

/// Inert span guard (the `capture` feature is off).
#[cfg(not(feature = "capture"))]
pub struct SpanGuard;

#[cfg(not(feature = "capture"))]
impl SpanGuard {
    /// No-op.
    #[inline(always)]
    pub fn enter(_meta: &'static SpanMeta, _timed: bool) -> SpanGuard {
        SpanGuard
    }

    /// No-op.
    #[inline(always)]
    pub fn finish(self, _hist: &Hist) {}
}

/// No-op; returns `false` (nothing to install).
#[cfg(not(feature = "capture"))]
pub fn install(_capacity: usize) -> bool {
    false
}

/// No-op.
#[cfg(not(feature = "capture"))]
pub fn enable() {}

/// No-op.
#[cfg(not(feature = "capture"))]
pub fn disable() {}

/// Always `false`.
#[cfg(not(feature = "capture"))]
pub fn enabled() -> bool {
    false
}

/// No-op.
#[cfg(not(feature = "capture"))]
pub fn reset() {}

/// No-op; always returns zero.
#[cfg(not(feature = "capture"))]
pub fn set_tag(_tag: u32) -> u32 {
    0
}

/// Always zero.
#[cfg(not(feature = "capture"))]
pub fn dropped_events() -> u64 {
    0
}

/// Always empty.
#[cfg(not(feature = "capture"))]
pub fn events() -> Vec<SpanEvent> {
    Vec::new()
}

/// Renders the current event snapshot in Chrome trace-event format
/// (`chrome://tracing` / Perfetto loadable). Every span becomes a complete
/// (`"ph":"X"`) event with microsecond timestamps; the layer tag rides in
/// `args.tag`.
pub fn chrome_trace() -> String {
    let evs = events();
    let mut out = String::with_capacity(64 + evs.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"greuse\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"tag\":{}}}}}",
            json::quote(e.name),
            e.tid,
            e.start_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.tag
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Serializes the unit tests that read or write process-global state:
/// [`reset`] zeroes every registered metric, and the libtest harness runs
/// `#[test]`s concurrently.
#[cfg(all(test, feature = "capture"))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[cfg(all(test, feature = "capture"))]
mod tests {
    use super::*;

    // One test function: install is one-shot, so the ring's whole life
    // (empty, recording, overflow, reset) is one sequence.
    #[test]
    fn capture_round_trip() {
        let _l = test_lock();
        assert!(install(64));
        assert!(!install(64), "install must be one-shot");
        assert!(!enabled());

        // Inactive spans and counters record nothing.
        {
            let _s = span!("test.idle");
            counter!("test.idle_count").add(3);
        }
        assert!(events().is_empty());

        enable();
        let prev = set_tag(7);
        assert_eq!(prev, 0);
        {
            let _s = span!("test.work");
            counter!("test.count").add(2);
            counter!("test.count").add(1);
        }
        set_tag(0);
        disable();

        let evs = events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "test.work");
        assert_eq!(evs[0].tag, 7);
        assert!(evs[0].tid >= 1);
        let counts = metrics::snapshot().counters;
        assert!(counts.contains(&("test.count", 3)));
        // The inactive counter registered (first `add`) but never counted.
        assert!(counts.contains(&("test.idle_count", 0)));

        let trace = chrome_trace();
        let v = json::parse(&trace).expect("trace must be valid JSON");
        let evs_json = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(evs_json.len(), 1);
        assert_eq!(
            evs_json[0].get("name").and_then(json::Value::as_str),
            Some("test.work")
        );
        assert_eq!(
            evs_json[0].get("ph").and_then(json::Value::as_str),
            Some("X")
        );

        // Overflow drops, never grows.
        reset();
        enable();
        for _ in 0..100 {
            let _s = span!("test.flood");
        }
        disable();
        assert_eq!(events().len(), 64);
        assert_eq!(dropped_events(), 36);

        reset();
        assert!(events().is_empty());
        assert_eq!(dropped_events(), 0);
        assert!(metrics::snapshot().counters.contains(&("test.count", 0)));
    }
}
