//! The metrics registry: counters, gauges and lock-free log-linear
//! latency histograms under one naming scheme, one per-call-site handle
//! type ([`Handle`]) and one reset ([`crate::reset`]).
//!
//! A metric key is either a bare name (`pool.job_latency`) or a name with a
//! canonical label block (`exec.layer_latency{layer="conv1",backend="f32",
//! mode="warm"}`). Labels are part of the key string — the registry does no
//! label algebra at record time, so the hot path is label-free. A key names
//! one series: every call site that looks it up shares the one metric.
//!
//! Metrics are registered on first lookup ([`Metric::lookup`], or the
//! first [`Handle::get`] of a [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge) or [`hist!`](crate::hist) site), which is the
//! only allocating step; recording never allocates and is a no-op while
//! capture is inactive. [`snapshot`] reads everything at once.
//!
//! ## Histogram design
//!
//! [`Hist`] buckets nanosecond values on a log-linear grid: values below 32
//! get exact unit buckets; above that, each power-of-two octave is split
//! into 32 linear sub-buckets, which bounds the relative quantile error at
//! half a sub-bucket width — ≤ 1/64 ≈ 1.6%. The grid covers `[0, 2^40)` ns
//! (~18 minutes); larger values clamp into the top bucket. The true
//! minimum and maximum are tracked exactly, so `quantile(0.0)` and
//! `quantile(1.0)` are exact, and interior quantiles are clamped into
//! `[min, max]`.
//!
//! Recording is a handful of relaxed `fetch_add`s into one of
//! [`NSHARDS`] shards selected by the recording thread's telemetry id, so
//! concurrent writers rarely share cache lines. Shard storage is allocated
//! once when the histogram is registered. Samples come from
//! [`Hist::record_ns`] or from a span ended into the histogram
//! ([`SpanGuard::finish`](crate::SpanGuard::finish)).
//!
//! Snapshots merge the shards bucket-wise; the merge is a plain vector sum
//! and therefore associative and commutative, which the tests pin down.
//!
//! When the `capture` feature is off every type here is an inert stub:
//! [`Counter`], [`Gauge`], [`Hist`] and [`Handle`] are zero-sized, the
//! macros resolve to references to unit values, and `add` / `set` /
//! `record_ns` are empty inline functions the optimizer erases.

#[cfg(feature = "capture")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "capture")]
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of per-histogram shards; writers pick `tid % NSHARDS`.
pub const NSHARDS: usize = 4;

/// Unit buckets below this value; also the linear sub-bucket count per
/// octave above it. Must be a power of two.
const LINEAR: u64 = 32;
/// log2(LINEAR).
const LINEAR_BITS: u32 = 5;
/// Values at or above `2^MAX_OCTAVE` clamp into the top bucket.
const MAX_OCTAVE: u32 = 40;
/// Total bucket count: 32 exact unit buckets + 35 octaves × 32 sub-buckets.
const NBUCKETS: usize = LINEAR as usize + ((MAX_OCTAVE - LINEAR_BITS) as usize) * LINEAR as usize;

/// Maps a nanosecond value to its bucket index.
#[cfg(feature = "capture")]
fn bucket_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_OCTAVE) - 1);
    if v < LINEAR {
        return v as usize;
    }
    let oct = 63 - v.leading_zeros(); // >= LINEAR_BITS
    let sub = (v >> (oct - LINEAR_BITS)) & (LINEAR - 1);
    LINEAR as usize + ((oct - LINEAR_BITS) as usize) * LINEAR as usize + sub as usize
}

/// Midpoint representative of a bucket, used for quantile extraction.
fn bucket_value(idx: usize) -> u64 {
    if idx < LINEAR as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR as usize;
    let oct = LINEAR_BITS + (rel / LINEAR as usize) as u32;
    let sub = (rel % LINEAR as usize) as u64;
    let width = 1u64 << (oct - LINEAR_BITS);
    (1u64 << oct) + sub * width + width / 2
}

/// Splits a metric key into its name and `key="value"` label pairs.
/// `exec.latency{layer="c1",mode="warm"}` → `("exec.latency",
/// [("layer","c1"),("mode","warm")])`. Keys without a label block return an
/// empty label list; a malformed block is returned as zero labels rather
/// than an error (the key is still usable as an opaque identity).
pub fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = key.find('{') else {
        return (key, Vec::new());
    };
    let name = &key[..open];
    let Some(body) = key[open + 1..].strip_suffix('}') else {
        return (key, Vec::new());
    };
    let mut labels = Vec::new();
    for pair in body.split(',') {
        if pair.is_empty() {
            continue;
        }
        let Some((k, v)) = pair.split_once('=') else {
            return (key, Vec::new());
        };
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(v);
        labels.push((k, v));
    }
    (name, labels)
}

/// Builds the canonical key string for a name plus label pairs. Labels are
/// kept in the order given — call-sites must use one consistent order per
/// metric name so identical series map to identical keys.
pub fn make_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Point-in-time copy of one histogram, mergeable across histograms of the
/// same key (or across processes, once deserialized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Full metric key, labels included.
    pub key: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded values, ns.
    pub sum_ns: u64,
    /// Exact minimum recorded value, ns (0 when `count == 0`).
    pub min_ns: u64,
    /// Exact maximum recorded value, ns.
    pub max_ns: u64,
    /// Per-bucket sample counts on the log-linear grid.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// An empty snapshot for `key`.
    pub fn empty(key: &str) -> Self {
        HistSnapshot {
            key: key.to_string(),
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: vec![0; NBUCKETS],
        }
    }

    /// Bucket-wise sum of two snapshots. Associative and commutative: the
    /// buckets add element-wise, `count`/`sum` add, and min/max combine by
    /// min/max — so shards (and runs) can be merged in any grouping.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets = self.buckets.clone();
        for (b, o) in buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        let min_ns = match (self.count, other.count) {
            (0, _) => other.min_ns,
            (_, 0) => self.min_ns,
            _ => self.min_ns.min(other.min_ns),
        };
        HistSnapshot {
            key: self.key.clone(),
            count: self.count + other.count,
            sum_ns: self.sum_ns + other.sum_ns,
            min_ns,
            max_ns: self.max_ns.max(other.max_ns),
            buckets,
        }
    }

    /// Value at quantile `q` in `[0, 1]`, in ns. `q = 0` returns the exact
    /// minimum and `q = 1` the exact maximum; interior quantiles carry the
    /// grid's ≤ 1/64 relative error and are clamped into `[min, max]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // max-then-min (not `clamp`): a snapshot taken mid-record
                // can transiently hold min > max, which `clamp` panics on.
                return bucket_value(i).max(self.min_ns).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean recorded value, ns. 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Everything the registry holds at one instant, in registration order
/// per kind. Empty histograms (count 0) are included so exporters render
/// stable series.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(key, value)` of every counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(key, value)` of every gauge.
    pub gauges: Vec<(&'static str, f64)>,
    /// Every histogram, shards merged.
    pub hists: Vec<HistSnapshot>,
}

/// A kind of metric the registry holds: [`Counter`], [`Gauge`] or
/// [`Hist`].
pub trait Metric: Sync + 'static {
    /// The metric registered under `key`, created (key copied and leaked)
    /// on first lookup. That first lookup allocates: resolve from setup or
    /// `prepare()` phases, or per call site through a [`Handle`] (the
    /// [`counter!`](crate::counter), [`gauge!`](crate::gauge) and
    /// [`hist!`](crate::hist) macros).
    fn lookup(key: &str) -> &'static Self;
}

// ---------------------------------------------------------------------------
// Capture-enabled implementation.
// ---------------------------------------------------------------------------

#[cfg(feature = "capture")]
struct Shard {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

#[cfg(feature = "capture")]
impl Shard {
    fn new() -> Shard {
        let mut counts = Vec::with_capacity(NBUCKETS);
        counts.resize_with(NBUCKETS, || AtomicU64::new(0));
        Shard {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing count. Obtain one from the
/// [`counter!`](crate::counter) macro or [`Metric::lookup`].
#[cfg(feature = "capture")]
pub struct Counter {
    key: &'static str,
    value: AtomicU64,
}

#[cfg(feature = "capture")]
impl Counter {
    /// Full metric key.
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Adds `n` while capture is active (one relaxed load and a branch
    /// otherwise).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram of nanosecond values. Obtain one from
/// the [`hist!`](crate::hist) macro, [`hist_labeled`] or
/// [`Metric::lookup`]; record with [`Hist::record_ns`], or end a span into
/// it with [`SpanGuard::finish`](crate::SpanGuard::finish).
#[cfg(feature = "capture")]
pub struct Hist {
    key: &'static str,
    shards: [Shard; NSHARDS],
    /// Exact extrema of all recorded values; `min` starts at `u64::MAX`.
    min: AtomicU64,
    max: AtomicU64,
}

#[cfg(feature = "capture")]
impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Hist").field(&self.key).finish()
    }
}

#[cfg(feature = "capture")]
impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.key).finish()
    }
}

#[cfg(feature = "capture")]
impl Hist {
    /// Full metric key, labels included.
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Records one nanosecond value while capture is active; no-op (one
    /// relaxed load and a branch) otherwise. Never allocates.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if crate::enabled() {
            self.record(ns);
        }
    }

    /// Records unconditionally into the calling thread's shard.
    #[inline]
    pub(crate) fn record(&self, ns: u64) {
        self.record_shard(crate::state::tid() as usize, ns);
    }

    fn record_shard(&self, idx: usize, ns: u64) {
        let shard = &self.shards[idx % NSHARDS];
        shard.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Merges all shards into a [`HistSnapshot`].
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::empty(self.key);
        for shard in &self.shards {
            for (b, c) in out.buckets.iter_mut().zip(shard.counts.iter()) {
                *b += c.load(Ordering::Relaxed);
            }
            out.count += shard.count.load(Ordering::Relaxed);
            out.sum_ns += shard.sum.load(Ordering::Relaxed);
        }
        if out.count > 0 {
            // A snapshot racing an in-flight record can observe the bucket
            // increments before the extrema updates; normalize so the
            // invariant min ≤ max always holds in the snapshot.
            out.max_ns = self.max.load(Ordering::Relaxed);
            out.min_ns = self.min.load(Ordering::Relaxed).min(out.max_ns);
        }
        out
    }

    /// Snapshot of a single shard (merge-associativity tests).
    #[cfg(test)]
    fn shard_snapshot(&self, idx: usize) -> HistSnapshot {
        let mut out = HistSnapshot::empty(self.key);
        let shard = &self.shards[idx];
        for (b, c) in out.buckets.iter_mut().zip(shard.counts.iter()) {
            *b += c.load(Ordering::Relaxed);
        }
        out.count = shard.count.load(Ordering::Relaxed);
        out.sum_ns = shard.sum.load(Ordering::Relaxed);
        if out.count > 0 {
            // Extrema are tracked per-histogram, not per-shard; reconstruct
            // loose per-shard bounds from the bucket grid for merge tests.
            let lo = out.buckets.iter().position(|&c| c > 0).unwrap_or(0);
            let hi = out.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
            out.min_ns = bucket_value(lo);
            out.max_ns = bucket_value(hi);
        }
        out
    }

    fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counts.iter() {
                c.store(0, Ordering::Relaxed);
            }
            shard.count.store(0, Ordering::Relaxed);
            shard.sum.store(0, Ordering::Relaxed);
        }
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A last-value gauge storing an `f64`. Obtain one from the
/// [`gauge!`](crate::gauge) macro or [`Metric::lookup`].
#[cfg(feature = "capture")]
pub struct Gauge {
    key: &'static str,
    bits: AtomicU64,
}

#[cfg(feature = "capture")]
impl Gauge {
    /// Full metric key.
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Stores `v` while capture is active (one relaxed store).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The one metrics registry: every counter, gauge and histogram, leaked
/// on registration and never removed.
#[cfg(feature = "capture")]
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    hists: Vec<&'static Hist>,
}

#[cfg(feature = "capture")]
static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    hists: Vec::new(),
});

#[cfg(feature = "capture")]
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Finds `key` in `list`, or leaks a copy of the key and the metric
/// `new` builds for it and appends that.
#[cfg(feature = "capture")]
fn intern<M>(
    list: &mut Vec<&'static M>,
    key: &str,
    key_of: fn(&M) -> &str,
    new: impl FnOnce(&'static str) -> M,
) -> &'static M {
    if let Some(m) = list.iter().find(|m| key_of(m) == key) {
        return m;
    }
    let m: &'static M = Box::leak(Box::new(new(Box::leak(key.into()))));
    list.push(m);
    m
}

#[cfg(feature = "capture")]
impl Metric for Counter {
    fn lookup(key: &str) -> &'static Self {
        intern(&mut registry().counters, key, Counter::key, |key| Counter {
            key,
            value: AtomicU64::new(0),
        })
    }
}

#[cfg(feature = "capture")]
impl Metric for Gauge {
    fn lookup(key: &str) -> &'static Self {
        intern(&mut registry().gauges, key, Gauge::key, |key| Gauge {
            key,
            bits: AtomicU64::new(0f64.to_bits()),
        })
    }
}

#[cfg(feature = "capture")]
impl Metric for Hist {
    fn lookup(key: &str) -> &'static Self {
        intern(&mut registry().hists, key, Hist::key, |key| Hist {
            key,
            shards: std::array::from_fn(|_| Shard::new()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        })
    }
}

/// Looks up (or creates) the histogram for `name` with `labels`, building
/// the canonical key with [`make_key`]. Allocates the key string on every
/// call — cold paths only; cache the returned handle.
#[cfg(feature = "capture")]
pub fn hist_labeled(name: &str, labels: &[(&str, &str)]) -> &'static Hist {
    Hist::lookup(&make_key(name, labels))
}

/// Snapshots every registered metric.
#[cfg(feature = "capture")]
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        counters: reg.counters.iter().map(|c| (c.key, c.get())).collect(),
        gauges: reg.gauges.iter().map(|g| (g.key, g.get())).collect(),
        hists: reg.hists.iter().map(|h| h.snapshot()).collect(),
    }
}

/// Zeroes every registered metric; the registrations stay. Called by
/// [`crate::reset`].
#[cfg(feature = "capture")]
pub(crate) fn zero_all() {
    let reg = registry();
    for c in &reg.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in &reg.gauges {
        g.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for h in &reg.hists {
        h.reset();
    }
}

/// Per-call-site lazy handle behind the [`counter!`](crate::counter),
/// [`gauge!`](crate::gauge) and [`hist!`](crate::hist) macros: the
/// registry lookup (and its one-time allocation) happens on the first
/// [`Handle::get`], whether or not capture is active, so it lands in
/// warm-up; after that the handle is a single atomic load.
#[cfg(feature = "capture")]
pub struct Handle<M: 'static> {
    key: &'static str,
    cell: OnceLock<&'static M>,
}

#[cfg(feature = "capture")]
impl<M: Metric> Handle<M> {
    /// Const constructor used by the macros.
    pub const fn new(key: &'static str) -> Self {
        Handle {
            key,
            cell: OnceLock::new(),
        }
    }

    /// Resolves (once) and returns the metric.
    #[inline]
    pub fn get(&self) -> &'static M {
        self.cell.get_or_init(|| M::lookup(self.key))
    }
}

// ---------------------------------------------------------------------------
// Capture-disabled stubs: zero-sized types, empty inline bodies.
// ---------------------------------------------------------------------------

/// Inert counter (the `capture` feature is off). Zero-sized.
#[cfg(not(feature = "capture"))]
#[derive(Debug)]
pub struct Counter;

#[cfg(not(feature = "capture"))]
impl Counter {
    /// Always the empty key.
    pub fn key(&self) -> &'static str {
        ""
    }

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Always zero.
    pub fn get(&self) -> u64 {
        0
    }
}

/// Inert histogram (the `capture` feature is off). Zero-sized.
#[cfg(not(feature = "capture"))]
#[derive(Debug)]
pub struct Hist;

#[cfg(not(feature = "capture"))]
impl Hist {
    /// Always the empty key.
    pub fn key(&self) -> &'static str {
        ""
    }

    /// No-op.
    #[inline(always)]
    pub fn record_ns(&self, _ns: u64) {}

    /// Always empty.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot::empty("")
    }
}

/// Inert gauge (the `capture` feature is off). Zero-sized.
#[cfg(not(feature = "capture"))]
#[derive(Debug)]
pub struct Gauge;

#[cfg(not(feature = "capture"))]
impl Gauge {
    /// Always the empty key.
    pub fn key(&self) -> &'static str {
        ""
    }

    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}

    /// Always zero.
    pub fn get(&self) -> f64 {
        0.0
    }
}

#[cfg(not(feature = "capture"))]
impl Metric for Counter {
    #[inline(always)]
    fn lookup(_key: &str) -> &'static Self {
        &Counter
    }
}

#[cfg(not(feature = "capture"))]
impl Metric for Gauge {
    #[inline(always)]
    fn lookup(_key: &str) -> &'static Self {
        &Gauge
    }
}

#[cfg(not(feature = "capture"))]
impl Metric for Hist {
    #[inline(always)]
    fn lookup(_key: &str) -> &'static Self {
        &Hist
    }
}

/// Always the shared inert histogram; never allocates.
#[cfg(not(feature = "capture"))]
#[inline(always)]
pub fn hist_labeled(_name: &str, _labels: &[(&str, &str)]) -> &'static Hist {
    &Hist
}

/// Always empty.
#[cfg(not(feature = "capture"))]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Inert handle behind the metric macros (the `capture` feature is off).
/// Zero-sized.
#[cfg(not(feature = "capture"))]
pub struct Handle<M: 'static>(std::marker::PhantomData<&'static M>);

#[cfg(not(feature = "capture"))]
impl<M: Metric> Handle<M> {
    /// Const constructor used by the macros.
    pub const fn new(_key: &'static str) -> Self {
        Handle(std::marker::PhantomData)
    }

    /// Always the shared inert metric.
    #[inline(always)]
    pub fn get(&self) -> &'static M {
        M::lookup("")
    }
}

#[cfg(all(test, feature = "capture"))]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        // Unit buckets are exact.
        for v in 0..LINEAR {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
        // Monotone over a log sweep, representative within 1/64 relative
        // error of any value mapping into the bucket.
        let mut last = 0usize;
        let mut v = 1u64;
        while v < (1u64 << 41) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket index must be monotone");
            assert!(b < NBUCKETS);
            last = b;
            if (LINEAR..(1u64 << MAX_OCTAVE)).contains(&v) {
                let rep = bucket_value(b);
                let err = (rep as f64 - v as f64).abs() / v as f64;
                assert!(err <= 1.0 / 64.0 + 1e-12, "v={v} rep={rep} err={err}");
            }
            v = v * 13 / 11 + 1;
        }
        // Top clamp: anything ≥ 2^40 lands in the last bucket.
        assert_eq!(bucket_of(1u64 << MAX_OCTAVE), NBUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let _l = crate::test_lock();
        let h = Hist::lookup("test.quantiles");
        // 1..=1000 µs in ns, recorded across shards round-robin.
        for i in 1..=1000u64 {
            h.record_shard(i as usize, i * 1_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.quantile(0.0), 1_000);
        assert_eq!(s.quantile(1.0), 1_000_000, "max must be exact");
        for (q, expect) in [(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = s.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err <= 1.0 / 64.0 + 1e-3, "q={q} got={got} err={err}");
        }
        let mean = s.mean();
        assert!((mean - 500_500.0).abs() / 500_500.0 < 1e-9);
    }

    #[test]
    fn shard_merge_is_associative_and_matches_full_snapshot() {
        let _l = crate::test_lock();
        let h = Hist::lookup("test.merge");
        for i in 0..400u64 {
            h.record_shard(i as usize, (i * 37) % 100_000 + 1);
        }
        let parts: Vec<HistSnapshot> = (0..NSHARDS).map(|i| h.shard_snapshot(i)).collect();
        // ((a ⊕ b) ⊕ c) ⊕ d  ==  a ⊕ (b ⊕ (c ⊕ d))
        let left = parts[0].merge(&parts[1]).merge(&parts[2]).merge(&parts[3]);
        let right = parts[0].merge(&parts[1].merge(&parts[2].merge(&parts[3])));
        assert_eq!(left.buckets, right.buckets);
        assert_eq!(left.count, right.count);
        assert_eq!(left.sum_ns, right.sum_ns);
        assert_eq!(left.min_ns, right.min_ns);
        assert_eq!(left.max_ns, right.max_ns);
        // Commutative too.
        let swapped = parts[3].merge(&parts[2]).merge(&parts[1]).merge(&parts[0]);
        assert_eq!(left.buckets, swapped.buckets);
        assert_eq!(left.count, swapped.count);
        // And the bucket-wise merge reproduces the full snapshot's counts.
        let full = h.snapshot();
        assert_eq!(left.buckets, full.buckets);
        assert_eq!(left.count, full.count);
        assert_eq!(left.sum_ns, full.sum_ns);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let _l = crate::test_lock();
        let h = Hist::lookup("test.threads");
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let h = Hist::lookup("test.threads");
                    for i in 0..1000u64 {
                        h.record(t * 1_000 + i + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8_000);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 8_000);
    }

    #[test]
    fn keys_round_trip_through_make_and_split() {
        let _l = crate::test_lock();
        let key = make_key(
            "exec.layer_latency",
            &[("layer", "conv1"), ("backend", "f32"), ("mode", "warm")],
        );
        assert_eq!(
            key,
            "exec.layer_latency{layer=\"conv1\",backend=\"f32\",mode=\"warm\"}"
        );
        let (name, labels) = split_key(&key);
        assert_eq!(name, "exec.layer_latency");
        assert_eq!(
            labels,
            vec![("layer", "conv1"), ("backend", "f32"), ("mode", "warm")]
        );
        assert_eq!(split_key("pool.job_latency"), ("pool.job_latency", vec![]));
        // Same key → same histogram instance.
        let a = hist_labeled("test.identity", &[("k", "v")]);
        let b = hist_labeled("test.identity", &[("k", "v")]);
        assert!(std::ptr::eq(a, b));
    }
}
