//! Persistent per-panel reuse cache for temporal (cross-call) reuse.
//!
//! Streaming workloads feed near-identical inputs call after call, yet the
//! executors re-cluster every panel from scratch. A [`ReuseCache`] keeps
//! the previous call's per-panel state — unit signatures, refinement
//! radius, clustering (assignments + sizes), the raw unit data, and the
//! centroid-GEMM output — so a panel whose input is *unchanged* replays
//! the cached grouping and accumulators instead of re-clustering and
//! re-multiplying.
//!
//! Correctness is guard-validated, never assumed: equal signatures do not
//! imply equal data (the sign projection is many-to-one and the leader
//! walk measures real distances), so [`ReuseCache::probe`] only reports
//! [`Probe::Hit`] after an exact **bitwise** comparison of the panel's
//! unit data against the cached copy. Anything less falls back to the
//! full re-cluster path, which is bit-identical to running cold — a stale
//! cache can therefore never change results, only cost.
//!
//! Storage is flat arenas sized once by [`ReuseCache::reserve`] (called
//! from the workspaces' `prepare`); probing and storing never allocate,
//! preserving the executors' zero-allocation steady state.

use greuse_lsh::{signatures_match, Signature};

use crate::exec::workspace::Panel;
use crate::pattern::{ReuseDirection, ReusePattern};

/// Element types the cache can compare bit-exactly.
///
/// `f32` compares raw bit patterns (`to_bits`), not `PartialEq`: under
/// `==`, `-0.0 == 0.0` and `NaN != NaN`, either of which would let a hit
/// diverge from (or never match) the cold path. `u8` codes compare
/// directly.
pub(crate) trait CacheElem: Copy + Default {
    /// `true` when the equal-length slices `a` and `b` have identical
    /// bit patterns element for element.
    fn bits_eq(a: &[Self], b: &[Self]) -> bool;
}

impl CacheElem for f32 {
    /// Branch-free over the row (no early exit per element), so the
    /// compare vectorizes; the probe still stops at the first differing
    /// row.
    #[inline]
    fn bits_eq(a: &[Self], b: &[Self]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .fold(true, |eq, (x, y)| eq & (x.to_bits() == y.to_bits()))
    }
}

impl CacheElem for u8 {
    #[inline]
    fn bits_eq(a: &[Self], b: &[Self]) -> bool {
        a == b
    }
}

/// Outcome of probing one panel against the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// No valid entry for this panel (first frame, or invalidated).
    Cold,
    /// Signatures (or the refinement radius) differ — the tile changed.
    ChangedSigs,
    /// Signatures matched but the underlying data did not: a hash
    /// collision across frames. The entry is invalidated.
    ChangedData,
    /// Bitwise-identical panel: the cached clustering and centroid-GEMM
    /// output may be replayed outright.
    Hit,
}

/// Per-panel temporal cache: `T` is the unit-data element (`f32` codes
/// for the float executor, `u8` codes for int8), `A` the centroid-GEMM
/// accumulator element (`f32` / `i32`).
///
/// Layout (all arenas indexed by panel ordinal `p`, `units` blocks per
/// panel, blocks of `b` rows, panel widths summing to `k`):
///
/// - `sigs`/`assignments`: `p * units ..` (always `units` entries);
/// - `sizes`: `p * units ..` with `n_clusters[p]` live entries;
/// - `data`: `units * b * panel.start ..` (each panel's region is
///   `units * b * lw` elements, contiguous by unit row);
/// - `yc`: `p * units * b * m ..` with `n_clusters[p] * b * m` live.
#[derive(Debug, Default)]
pub(crate) struct ReuseCache<T, A> {
    valid: Vec<bool>,
    sigs: Vec<Signature>,
    taus: Vec<f32>,
    assignments: Vec<usize>,
    sizes: Vec<usize>,
    n_clusters: Vec<usize>,
    data: Vec<T>,
    yc: Vec<A>,
    units: usize,
    b: usize,
    m: usize,
}

impl<T: CacheElem, A: Copy + Default> ReuseCache<T, A> {
    /// A cache for an `n x k` activation matrix against `m` outputs,
    /// sized for `pattern`'s vertical walk (empty for any other pattern:
    /// only the vertical walk probes the cache).
    pub(crate) fn for_pattern(
        pattern: Option<&ReusePattern>,
        n: usize,
        k: usize,
        m: usize,
    ) -> Self {
        let mut cache = ReuseCache::default();
        if let Some(p) = pattern.filter(|p| p.direction == ReuseDirection::Vertical) {
            let l = p.l.min(k);
            let b = p.block_rows.min(n);
            // Panel widths sum to k, so one `full_blocks * b * k` arena
            // holds every panel's unit data.
            cache.reserve(k.div_ceil(l), n / b, b, k, m);
        }
        cache
    }

    /// Sizes every arena for `panels` panels of `units` blocks (`b` rows
    /// each) over a `k`-wide im2col matrix and `m` output channels, and
    /// invalidates all entries. Grow-only in practice (workspaces call it
    /// on key changes); after it returns, probe/store never allocate.
    pub(crate) fn reserve(&mut self, panels: usize, units: usize, b: usize, k: usize, m: usize) {
        self.units = units;
        self.b = b;
        self.m = m;
        self.valid.clear();
        self.valid.resize(panels, false);
        self.sigs.resize(panels * units, Signature(0));
        self.taus.resize(panels, 0.0);
        self.assignments.resize(panels * units, 0);
        self.sizes.resize(panels * units, 0);
        self.n_clusters.resize(panels, 0);
        self.data.resize(units * b * k, T::default());
        self.yc.resize(panels * units * b * m, A::default());
    }

    /// Invalidates every entry (the data arenas are kept).
    pub(crate) fn clear(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
    }

    /// Data-only fast probe: `true` when `panel` holds a valid entry
    /// whose unit data equals `data` bit for bit (same row layout as
    /// [`ReuseCache::probe`]). The entry's signatures and radius are pure
    /// functions of that data under the layer's fixed hash families, so
    /// such a tile is a [`Probe::Hit`] *before* it is hashed: callers
    /// check this first and hash only the tiles it rejects.
    pub(crate) fn hit(&self, panel: Panel, data: &[T], row_stride: usize, row_len: usize) -> bool {
        self.valid.get(panel.index).copied().unwrap_or(false)
            && self.data_matches(panel, data, row_stride, row_len)
    }

    fn data_matches(&self, panel: Panel, data: &[T], row_stride: usize, row_len: usize) -> bool {
        let off = self.units * self.b * panel.start;
        (0..self.units).all(|g| {
            let row = &data[g * row_stride..g * row_stride + row_len];
            let cached = &self.data[off + g * row_len..off + (g + 1) * row_len];
            T::bits_eq(row, cached)
        })
    }

    /// Probes `panel` against the cache. The panel's unit `g` is
    /// `data[g * row_stride ..][..row_len]` with `row_len == b * lw`; a
    /// [`Probe::Hit`] certifies those rows bit-identical to the cached
    /// frame. [`Probe::ChangedData`] invalidates the entry as a side
    /// effect (its clustering no longer describes any live frame).
    pub(crate) fn probe(
        &mut self,
        panel: Panel,
        sigs: &[Signature],
        tau: f32,
        data: &[T],
        row_stride: usize,
        row_len: usize,
    ) -> Probe {
        let p = panel.index;
        if !self.valid.get(p).copied().unwrap_or(false) {
            return Probe::Cold;
        }
        let cached_sigs = &self.sigs[p * self.units..p * self.units + self.units];
        if self.taus[p].to_bits() != tau.to_bits() || !signatures_match(sigs, cached_sigs) {
            return Probe::ChangedSigs;
        }
        if !self.data_matches(panel, data, row_stride, row_len) {
            self.valid[p] = false;
            return Probe::ChangedData;
        }
        Probe::Hit
    }

    /// Commits one panel's cold-path results: signatures, radius, the raw
    /// unit data, the clustering, and the centroid-GEMM output `yc`
    /// (`n_c * b * m` accumulators). Callers must only store results that
    /// came from a genuine, uncorrupted cold run — everything a later
    /// [`Probe::Hit`] replays is taken from here verbatim.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store(
        &mut self,
        panel: Panel,
        sigs: &[Signature],
        tau: f32,
        data: &[T],
        row_stride: usize,
        row_len: usize,
        assignments: &[usize],
        sizes: &[usize],
        yc: &[A],
    ) {
        let p = panel.index;
        debug_assert_eq!(sigs.len(), self.units);
        debug_assert_eq!(assignments.len(), self.units);
        debug_assert_eq!(yc.len(), sizes.len() * self.b * self.m);
        self.sigs[p * self.units..p * self.units + self.units].copy_from_slice(sigs);
        self.taus[p] = tau;
        let off = self.units * self.b * panel.start;
        for g in 0..self.units {
            self.data[off + g * row_len..off + (g + 1) * row_len]
                .copy_from_slice(&data[g * row_stride..g * row_stride + row_len]);
        }
        self.assignments[p * self.units..p * self.units + self.units].copy_from_slice(assignments);
        self.sizes[p * self.units..p * self.units + sizes.len()].copy_from_slice(sizes);
        self.n_clusters[p] = sizes.len();
        self.yc[p * self.units * self.b * self.m..][..yc.len()].copy_from_slice(yc);
        self.valid[p] = true;
    }

    /// Cached assignments of `panel` (one per unit).
    pub(crate) fn assignments(&self, panel: usize) -> &[usize] {
        &self.assignments[panel * self.units..(panel + 1) * self.units]
    }

    /// Cached cluster sizes of `panel` (`n_clusters` entries).
    pub(crate) fn sizes(&self, panel: usize) -> &[usize] {
        &self.sizes[panel * self.units..panel * self.units + self.n_clusters[panel]]
    }

    /// Cached centroid-GEMM output of `panel` (first `len` accumulators).
    pub(crate) fn yc(&self, panel: usize, len: usize) -> &[A] {
        let off = panel * self.units * self.b * self.m;
        &self.yc[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel(index: usize, start: usize, end: usize) -> Panel {
        Panel { index, start, end }
    }

    fn sigs(v: &[u64]) -> Vec<Signature> {
        v.iter().map(|&b| Signature(b)).collect()
    }

    #[test]
    fn cold_until_stored_then_hits() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(2, 3, 1, 8, 2);
        let p = panel(0, 0, 4);
        let s = sigs(&[1, 2, 3]);
        let data = [0.5f32; 12];
        assert_eq!(c.probe(p, &s, 0.1, &data, 4, 4), Probe::Cold);
        c.store(p, &s, 0.1, &data, 4, 4, &[0, 1, 0], &[2, 1], &[1.0; 4]);
        assert_eq!(c.probe(p, &s, 0.1, &data, 4, 4), Probe::Hit);
        assert_eq!(c.assignments(0), &[0, 1, 0]);
        assert_eq!(c.sizes(0), &[2, 1]);
        assert_eq!(c.yc(0, 4), &[1.0; 4]);
        // The second panel is independent and still cold.
        assert_eq!(c.probe(panel(1, 4, 8), &s, 0.1, &data, 4, 4), Probe::Cold);
    }

    #[test]
    fn signature_and_tau_changes_miss() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(1, 2, 1, 4, 1);
        let p = panel(0, 0, 4);
        let data = [1.0f32; 8];
        c.store(p, &sigs(&[7, 7]), 0.5, &data, 4, 4, &[0, 0], &[2], &[3.0]);
        assert_eq!(
            c.probe(p, &sigs(&[7, 8]), 0.5, &data, 4, 4),
            Probe::ChangedSigs
        );
        assert_eq!(
            c.probe(p, &sigs(&[7, 7]), 0.25, &data, 4, 4),
            Probe::ChangedSigs
        );
        // A signature miss does not invalidate; the original frame still hits.
        assert_eq!(c.probe(p, &sigs(&[7, 7]), 0.5, &data, 4, 4), Probe::Hit);
    }

    #[test]
    fn hit_checks_validity_and_data_only() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(2, 2, 1, 8, 1);
        let p = panel(0, 0, 4);
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let s = sigs(&[7, 9]);
        assert!(!c.hit(p, &data, 4, 4), "no entry stored yet");
        c.store(p, &s, 0.5, &data, 4, 4, &[0, 1], &[1, 1], &[3.0, 4.0]);
        assert!(c.hit(p, &data, 4, 4));
        assert!(
            !c.hit(panel(1, 4, 8), &data, 4, 4),
            "other panel stays cold"
        );
        let mut changed = data;
        changed[6] = -7.0;
        assert!(!c.hit(p, &changed, 4, 4));
        let mut signed_zero = data;
        signed_zero[0] = 0.0;
        c.store(
            p,
            &s,
            0.5,
            &signed_zero,
            4,
            4,
            &[0, 1],
            &[1, 1],
            &[3.0, 4.0],
        );
        signed_zero[0] = -0.0;
        assert!(!c.hit(p, &signed_zero, 4, 4), "-0.0 must not match 0.0");
        // A rejected hit followed by the full probe classifies as before.
        assert_eq!(c.probe(p, &s, 0.5, &signed_zero, 4, 4), Probe::ChangedData);
        assert!(!c.hit(p, &data, 4, 4), "invalidated entry never hits");
    }

    #[test]
    fn data_mismatch_invalidates() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(1, 2, 1, 4, 1);
        let p = panel(0, 0, 4);
        let data = [1.0f32; 8];
        c.store(p, &sigs(&[7, 7]), 0.5, &data, 4, 4, &[0, 0], &[2], &[3.0]);
        let mut changed = data;
        changed[5] = 2.0; // same sigs claimed, different bits
        assert_eq!(
            c.probe(p, &sigs(&[7, 7]), 0.5, &changed, 4, 4),
            Probe::ChangedData
        );
        // Invalidation is sticky: even the original data is now cold.
        assert_eq!(c.probe(p, &sigs(&[7, 7]), 0.5, &data, 4, 4), Probe::Cold);
    }

    #[test]
    fn f32_comparison_is_bitwise() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(1, 1, 1, 2, 1);
        let p = panel(0, 0, 2);
        let s = sigs(&[1]);
        c.store(p, &s, 0.1, &[0.0, f32::NAN], 2, 2, &[0], &[1], &[0.0]);
        // -0.0 == 0.0 under PartialEq but differs bitwise: must not hit.
        assert_eq!(
            c.probe(p, &s, 0.1, &[-0.0, f32::NAN], 2, 2),
            Probe::ChangedData
        );
    }

    #[test]
    fn strided_rows_compare_against_contiguous_cache() {
        // The int8 direct path probes rows strided through x_q.
        let mut c: ReuseCache<u8, i32> = ReuseCache::default();
        c.reserve(1, 2, 1, 3, 1);
        let p = panel(0, 0, 3);
        // Two rows of width 3 at stride 5.
        let strided = [1u8, 2, 3, 99, 99, 4, 5, 6, 99, 99];
        c.store(
            p,
            &sigs(&[1, 2]),
            0.0,
            &strided,
            5,
            3,
            &[0, 1],
            &[1, 1],
            &[10, 20],
        );
        assert_eq!(c.probe(p, &sigs(&[1, 2]), 0.0, &strided, 5, 3), Probe::Hit);
        let contiguous = [1u8, 2, 3, 4, 5, 6];
        assert_eq!(
            c.probe(p, &sigs(&[1, 2]), 0.0, &contiguous, 3, 3),
            Probe::Hit
        );
    }

    #[test]
    fn reserve_and_clear_invalidate() {
        let mut c: ReuseCache<f32, f32> = ReuseCache::default();
        c.reserve(1, 1, 1, 2, 1);
        let p = panel(0, 0, 2);
        let s = sigs(&[1]);
        c.store(p, &s, 0.1, &[1.0, 2.0], 2, 2, &[0], &[1], &[0.5]);
        c.clear();
        assert_eq!(c.probe(p, &s, 0.1, &[1.0, 2.0], 2, 2), Probe::Cold);
        c.store(p, &s, 0.1, &[1.0, 2.0], 2, 2, &[0], &[1], &[0.5]);
        c.reserve(1, 1, 1, 2, 1);
        assert_eq!(c.probe(p, &s, 0.1, &[1.0, 2.0], 2, 2), Probe::Cold);
    }
}
