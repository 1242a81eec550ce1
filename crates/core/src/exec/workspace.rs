//! The panel executor's reusable workspace.
//!
//! [`ExecWorkspace`] splits executor state in two. **Layer-resident**
//! entries, one per layer name, hold what depends only on a layer's
//! `(layer, dims, pattern, spec)` key: the compiled reorder permutations,
//! the per-panel hash families, the temporal cache, and the latency
//! histogram handles. One **transient scratch arena** — the reordered
//! operand copies, gathered reuse units, centroids, the centroid-GEMM
//! output, the clustering scratch, and the fused-sweep source — is shared
//! by every layer; it only grows (to the largest layer seen) and each call
//! slices it to its exact size. A network forward therefore walks its
//! layers through one workspace without rebuilding anything: after every
//! layer has run once, [`ExecWorkspace::execute_into`] performs **zero
//! heap allocations** (with a data-independent hash provider; data-adapted
//! providers recompute families from the data each call and therefore
//! allocate inside the provider). Every call, first or not and whatever
//! the provider, hashes each panel the same way: one fused sweep, then
//! grouping from its signatures.
//!
//! [`PanelIter`] is the shared panel walk driving both reuse directions:
//! vertical slices the im2col matrix's *columns* into panels of width
//! `L`, horizontal slices its *rows* into panels of height `L`. The two
//! kernels in `vertical.rs`/`horizontal.rs` differ only in how a panel's
//! reuse units are gathered and how centroid results are applied; the
//! reorder → cluster → centroid-GEMM plumbing is common and lives here.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::{ConvSpec, GemmScratch, Permutation, Tensor, TensorError};

use crate::exec::cache::ReuseCache;
use crate::exec::horizontal::horizontal_into;
use crate::exec::vertical::{vertical_into, PanelElem};
use crate::exec::{ReuseOutput, ReuseStats};
use crate::hash_provider::HashProvider;
use crate::pattern::{ReuseDirection, ReusePattern};
use crate::reorder::{column_permutation, row_permutation};
use crate::Result;

/// One panel of a [`PanelIter`] walk: a half-open index range plus the
/// panel's ordinal (used to key per-panel hash families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Panel {
    /// Ordinal of this panel (0-based).
    pub index: usize,
    /// First index covered (column for vertical, row for horizontal).
    pub start: usize,
    /// One past the last index covered.
    pub end: usize,
}

impl Panel {
    /// Number of indices covered (`≤ L`; smaller only for the last panel).
    pub fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Iterator slicing `0..total` into consecutive panels of at most `step`
/// indices — the panel walk shared by the vertical (columns of width `L`)
/// and horizontal (rows of height `L`) executors.
#[derive(Debug, Clone)]
pub(crate) struct PanelIter {
    total: usize,
    step: usize,
    pos: usize,
    index: usize,
}

impl PanelIter {
    /// Panels of at most `step` indices over `0..total`.
    pub fn new(total: usize, step: usize) -> Self {
        PanelIter {
            total,
            step: step.max(1),
            pos: 0,
            index: 0,
        }
    }
}

impl Iterator for PanelIter {
    type Item = Panel;

    fn next(&mut self) -> Option<Panel> {
        if self.pos >= self.total {
            return None;
        }
        let panel = Panel {
            index: self.index,
            start: self.pos,
            end: (self.pos + self.step).min(self.total),
        };
        self.pos = panel.end;
        self.index += 1;
        Some(panel)
    }
}

/// What a layer entry was built for: the workspace key.
#[derive(Debug, Clone, PartialEq)]
struct WsKey {
    layer: String,
    n: usize,
    k: usize,
    m: usize,
    pattern: ReusePattern,
    spec: Option<ConvSpec>,
}

impl WsKey {
    fn is(
        &self,
        layer: &str,
        n: usize,
        k: usize,
        m: usize,
        pattern: &ReusePattern,
        spec: Option<&ConvSpec>,
    ) -> bool {
        self.layer == layer
            && self.n == n
            && self.k == k
            && self.m == m
            && self.pattern == *pattern
            && self.spec.as_ref() == spec
    }
}

/// Layer-resident executor state: everything that depends only on the
/// layer's key, built once by [`ExecWorkspace::prepare`] and kept across
/// calls — the compiled permutations, the per-panel hash families (whose
/// presence lets a call skip building them and engages the temporal
/// cache), the temporal cache, and the latency-histogram handles.
#[derive(Debug)]
struct LayerState {
    key: WsKey,
    col_perm: Option<Permutation>,
    row_perm: Option<Permutation>,
    families: Vec<HashFamily>,
    cache: Option<ReuseCache<f32, f32>>,
    /// Per-call latency histograms for this layer, `[warm, fused, build]`.
    /// Resolved here (registry lookup builds a key string) so
    /// `execute_into` only records.
    lat: [&'static greuse_telemetry::metrics::Hist; 3],
}

impl LayerState {
    fn new(
        layer: &str,
        n: usize,
        k: usize,
        m: usize,
        pattern: &ReusePattern,
        spec: Option<&ConvSpec>,
        temporal_cache: bool,
    ) -> Self {
        let col_perm = pattern.order.needs_layout_pass().then(|| match spec {
            Some(s) => column_permutation(pattern.order, s),
            // The executor only knows K; synthesize a pseudo-spec with a
            // 1x1 kernel (matching `execute_reuse`'s behaviour).
            None => column_permutation(pattern.order, &ConvSpec::new(k, 1, 1, 1)),
        });
        let row_perm = pattern.row_order.needs_layout_pass().then(|| {
            let (oh, ow) = match spec {
                Some(_) => output_hw_for_rows(n).unwrap_or((n, 1)),
                None => (n, 1),
            };
            row_permutation(pattern.row_order, oh, ow)
        });
        let cache = temporal_cache.then(|| ReuseCache::for_pattern(Some(pattern), n, k, m));
        LayerState {
            key: WsKey {
                layer: layer.to_string(),
                n,
                k,
                m,
                pattern: *pattern,
                spec: spec.copied(),
            },
            col_perm,
            row_perm,
            families: Vec::new(),
            cache,
            lat: layer_latency_hists(layer, "f32"),
        }
    }
}

/// Per-panel scratch buffers shared by the direction kernels, over the
/// walk's element `E` (`f32`, or `u8` codes for the int8 executor). All
/// are plain arenas sliced to the exact per-panel size at use.
#[derive(Debug, Default)]
pub(crate) struct PanelBuffers<E: PanelElem> {
    /// Gathered reuse units, one per row (vertical: 2-D blocks flattened;
    /// horizontal: panel columns).
    pub units: Vec<E>,
    /// Horizontal: cluster centroids (`n_c x lh`); vertical `u8`: the
    /// fold's integer centroid sums (`n_c x dim`).
    pub centroids: Vec<E::Acc>,
    /// Vertical: stacked centroid blocks (`n_c·b x lw`); horizontal: the
    /// centroid matrix transposed (`lh x n_c`).
    pub stacked: Vec<E>,
    /// Vertical: centroid-GEMM output.
    pub yc: Vec<E::Acc>,
    /// Horizontal: folded weights, transposed (`M x n_c`).
    pub folded: Vec<f32>,
    /// Vertical: ragged-tail rows (`tail x lw`).
    pub tail: Vec<E>,
    /// Vertical: tail GEMM output (`tail x M`).
    pub yt: Vec<E::Acc>,
    /// Vertical `u8`: dequantized units the fused sweep hashes and the
    /// refinement walk measures (`full_blocks x dim`).
    pub deq: Vec<f32>,
    /// Pack buffers for the centroid/tail GEMMs.
    pub gemm: GemmScratch,
}

impl<E: PanelElem> PanelBuffers<E> {
    /// Grows the buffers (and the fused-sweep source) to fit a vertical
    /// walk of an `n x k` activation matrix against `m` outputs.
    pub(crate) fn reserve_vertical(
        &mut self,
        fused: &mut FusedPanelSource,
        n: usize,
        k: usize,
        m: usize,
        pattern: &ReusePattern,
    ) {
        let l = pattern.l.min(k);
        let b = pattern.block_rows.min(n);
        let full_blocks = n / b;
        let dim = b * l;
        let tail = n - full_blocks * b;
        grow(&mut self.units, full_blocks * dim);
        if E::CODES {
            grow(&mut self.centroids, full_blocks * dim);
        }
        grow(&mut self.stacked, full_blocks * dim);
        grow(&mut self.yc, full_blocks * b * m);
        if E::CODES {
            grow(&mut self.deq, full_blocks * dim);
        }
        grow(&mut self.tail, tail * l);
        grow(&mut self.yt, tail * m);
        fused.reserve(pattern.h, dim, full_blocks);
    }
}

/// Grows `buf` to at least `len` elements, never shrinking it. Transient
/// scratch is sized to the largest layer a workspace has seen and sliced
/// to each call's exact size, so switching layers costs no resize and no
/// zero-fill.
pub(crate) fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Picks the resident entry for a call — the one-key-per-layer policy
/// shared by the f32 and int8 workspaces. The last selected entry is
/// checked first (consecutive calls of one layer); otherwise the entry in
/// the call's slot is selected when its key matches, rebuilt in place
/// when it does not, and a new entry is appended only for a slot not seen
/// before. Returns the entry's index.
pub(crate) fn select_entry<T>(
    entries: &mut Vec<T>,
    active: usize,
    is_key: impl Fn(&T) -> bool,
    same_slot: impl Fn(&T) -> bool,
    build: impl FnOnce() -> Result<T>,
) -> Result<usize> {
    if entries.get(active).is_some_and(&is_key) {
        return Ok(active);
    }
    Ok(match entries.iter().position(same_slot) {
        Some(i) if is_key(&entries[i]) => i,
        Some(i) => {
            entries[i] = build()?;
            i
        }
        None => {
            entries.push(build()?);
            entries.len() - 1
        }
    })
}

/// Reusable executor state in two parts: **layer-resident** entries (one
/// per layer name, holding the per-key constants — permutations, cached
/// hash families, temporal cache, histogram handles) and one **transient
/// scratch arena** (reorder buffers, panel buffers, clustering scratch,
/// fused-sweep source) shared by every layer.
///
/// Create once (or check out from a pool), then call
/// [`ExecWorkspace::execute_into`] repeatedly — for one layer or for every
/// layer of a network in turn. Calling a known layer only selects its
/// entry; an entry is rebuilt (in place) only when that layer's
/// `(dims, pattern, spec)` key changes. The scratch only ever grows, to
/// the largest layer seen, so the workspace reaches a zero-allocation
/// steady state once every layer has run.
#[derive(Debug, Default)]
pub struct ExecWorkspace {
    /// Layer-resident state, at most one entry per layer name.
    layers: Vec<LayerState>,
    /// The entry the last `prepare()` selected.
    active: usize,
    x_buf: Vec<f32>,
    w_buf: Vec<f32>,
    y_buf: Vec<f32>,
    buf: PanelBuffers<f32>,
    scratch: ClusterScratch,
    fused: FusedPanelSource,
    temporal_cache: bool,
}

impl ExecWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        ExecWorkspace::default()
    }

    /// Enables or disables the temporal (cross-call) reuse cache. Off by
    /// default. When enabled, panels whose input is bit-identical to the
    /// previous call *of the same layer* replay the cached clustering and
    /// centroid-GEMM output instead of re-clustering — results are
    /// unchanged either way (hits are validated by exact data
    /// comparison), only the cost shrinks. Toggling drops every layer
    /// entry so the next call of each layer re-prepares (and sizes its
    /// cache) up front.
    pub fn set_temporal_cache(&mut self, enabled: bool) {
        if enabled == self.temporal_cache {
            return;
        }
        self.temporal_cache = enabled;
        self.layers.clear();
    }

    /// Whether the temporal reuse cache is enabled.
    pub fn temporal_cache_enabled(&self) -> bool {
        self.temporal_cache
    }

    /// The shared GEMM pack buffers, lent to the exact dense product an
    /// unpatterned run (the guard's fallback, the serve dense path) does
    /// on this workspace.
    pub(crate) fn gemm_scratch(&mut self) -> &mut GemmScratch {
        &mut self.buf.gemm
    }

    /// Prepares the workspace for one layer's GEMM and selects that
    /// layer's entry: on first sight of the layer (or when its key
    /// changed) compiles the pattern's row/column permutations and
    /// resolves the layer's histogram handles; in every case grows the
    /// shared scratch to fit, so a later [`ExecWorkspace::execute_into`]
    /// on the same key allocates nothing. Called implicitly by
    /// `execute_into`; call it explicitly to front-load the work (e.g.
    /// from a deployment plan).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GreuseError::InvalidPattern`] when the pattern
    /// cannot apply to the dimensions.
    pub fn prepare(
        &mut self,
        layer: &str,
        n: usize,
        k: usize,
        m: usize,
        pattern: &ReusePattern,
        spec: Option<&ConvSpec>,
    ) -> Result<()> {
        pattern.validate(n, k)?;
        let (col_perm, row_perm) = (
            pattern.order.needs_layout_pass(),
            pattern.row_order.needs_layout_pass(),
        );
        if col_perm || row_perm {
            grow(&mut self.x_buf, n * k);
        }
        if col_perm {
            grow(&mut self.w_buf, m * k);
        }
        if row_perm {
            grow(&mut self.y_buf, n * m);
        }
        let buf = &mut self.buf;
        match pattern.direction {
            ReuseDirection::Vertical => buf.reserve_vertical(&mut self.fused, n, k, m, pattern),
            ReuseDirection::Horizontal => {
                let l = pattern.l.min(n);
                grow(&mut buf.units, k * l);
                grow(&mut buf.centroids, k * l);
                grow(&mut buf.stacked, l * k);
                grow(&mut buf.folded, k * m);
                self.fused.reserve(pattern.h, l, k);
            }
        }

        let temporal_cache = self.temporal_cache;
        self.active = select_entry(
            &mut self.layers,
            self.active,
            |s| s.key.is(layer, n, k, m, pattern, spec),
            |s| s.key.layer == layer,
            || {
                Ok(LayerState::new(
                    layer,
                    n,
                    k,
                    m,
                    pattern,
                    spec,
                    temporal_cache,
                ))
            },
        )?;
        Ok(())
    }

    /// Executes `Y ≈ X × Wᵀ` under `pattern` into a new output tensor —
    /// [`ExecWorkspace::execute_into`] plus the output allocation. `spec`
    /// selects spec-aware column permutations (channel-first etc. need
    /// the conv geometry); `layer` keys the provider's hash families.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecWorkspace::execute_into`].
    pub fn execute(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        spec: Option<&ConvSpec>,
        pattern: &ReusePattern,
        hashes: &dyn HashProvider,
        layer: &str,
    ) -> Result<ReuseOutput> {
        let mut y = Tensor::zeros(&[x.rows(), w.rows()]);
        let stats = self.execute_into(x, w, spec, pattern, hashes, layer, y.as_mut_slice())?;
        Ok(ReuseOutput { y, stats })
    }

    /// Executes `Y ≈ X × Wᵀ` under `pattern` into the caller-provided
    /// `y` buffer (`N x M` row-major, original row order), returning the
    /// run's statistics. Allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GreuseError::InvalidPattern`] when the pattern or
    /// buffer sizes cannot apply to the operands, and propagates
    /// tensor-shape errors.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_into(
        &mut self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        spec: Option<&ConvSpec>,
        pattern: &ReusePattern,
        hashes: &dyn HashProvider,
        layer: &str,
        y: &mut [f32],
    ) -> Result<ReuseStats> {
        let (n, k, m) = crate::exec::seam::gemm_dims(x, w, y)?;
        self.prepare(layer, n, k, m, pattern, spec)?;

        // Ends into the layer's latency histogram, resolved in `prepare`,
        // so the steady state stays alloc-free.
        let layer_span = greuse_telemetry::span!("exec.layer", timed: true);

        let ExecWorkspace {
            layers,
            active,
            x_buf,
            w_buf,
            y_buf,
            buf,
            scratch,
            fused,
            ..
        } = self;
        let LayerState {
            col_perm,
            row_perm,
            families,
            cache,
            lat,
            ..
        } = &mut layers[*active];

        // Materialize the reuse order as explicit reorders (Insight-2).
        // Both reorders fuse into a single gather pass; the latency model
        // still charges one transformation pass per reorder below.
        let mut layout_passes = 0u64;
        let reorder_span = greuse_telemetry::span!("exec.reorder");
        let x_src = x.as_slice();
        // Scratch buffers are sized for the largest layer seen; every use
        // slices them to this call's exact size.
        let x_work: &[f32] = match (&*col_perm, &*row_perm) {
            (None, None) => x_src,
            (Some(cp), None) => {
                let x_buf = &mut x_buf[..n * k];
                cp.apply_cols_into(x_src, n, x_buf)?;
                x_buf
            }
            (None, Some(rp)) => {
                let x_buf = &mut x_buf[..n * k];
                rp.apply_rows_into(x_src, k, x_buf)?;
                x_buf
            }
            (Some(cp), Some(rp)) => {
                let x_buf = &mut x_buf[..n * k];
                for (i, &sr) in rp.as_slice().iter().enumerate() {
                    let src_row = &x_src[sr * k..(sr + 1) * k];
                    let dst_row = &mut x_buf[i * k..(i + 1) * k];
                    for (d, &sc) in dst_row.iter_mut().zip(cp.as_slice()) {
                        *d = src_row[sc];
                    }
                }
                x_buf
            }
        };
        if col_perm.is_some() {
            layout_passes += 1;
        }
        if row_perm.is_some() {
            layout_passes += 1;
        }
        // The column reorder must hit X and W identically so the exact
        // product is unchanged; only the reuse-unit contents change.
        let w_work: &[f32] = match &*col_perm {
            Some(cp) => {
                let w_buf = &mut w_buf[..m * k];
                cp.apply_cols_into(w.as_slice(), m, w_buf)?;
                w_buf
            }
            None => w.as_slice(),
        };
        drop(reorder_span);

        // A call that finds no resident families builds them (a first
        // call, or any call of a data-dependent provider); label the
        // series accordingly.
        let built = families.is_empty();

        let mut stats = ReuseStats::default();
        {
            let y_work: &mut [f32] = match &*row_perm {
                Some(_) => &mut y_buf[..n * m],
                None => y,
            };
            y_work.fill(0.0);
            match pattern.direction {
                ReuseDirection::Vertical => vertical_into(
                    x_work,
                    w_work,
                    n,
                    k,
                    m,
                    pattern,
                    hashes,
                    layer,
                    &(),
                    buf,
                    scratch,
                    families,
                    fused,
                    cache.as_mut(),
                    y_work,
                    &mut stats,
                )?,
                ReuseDirection::Horizontal => horizontal_into(
                    x_work, w_work, n, k, m, pattern, hashes, layer, buf, scratch, families, fused,
                    y_work, &mut stats,
                )?,
            }
        }

        // Restore the original row order: working row `i` is original row
        // `perm[i]`, so scatter rather than build the inverse permutation.
        if let Some(rp) = &*row_perm {
            let _scatter = greuse_telemetry::span!("exec.scatter");
            for (i, &orig) in rp.as_slice().iter().enumerate() {
                y[orig * m..(orig + 1) * m].copy_from_slice(&y_buf[i * m..(i + 1) * m]);
            }
        }

        // Transformation phase: the base im2col pass plus one pass per
        // layout permutation (the paper includes reorder costs, §5.1).
        stats.ops.transform_elems = (n * k) as u64 * (1 + layout_passes);
        layer_span.finish(lat[latency_mode_index(&stats, built)]);
        Ok(stats.finish())
    }
}

/// Resolves the `[warm, fused, build]` per-layer latency histograms under
/// the canonical `exec.layer_latency{layer=..,backend=..,mode=..}` keys.
/// Allocates (key strings + first-use shard storage) — prepare-phase only.
pub(crate) fn layer_latency_hists(
    layer: &str,
    backend: &str,
) -> [&'static greuse_telemetry::metrics::Hist; 3] {
    ["warm", "fused", "build"].map(|m| {
        greuse_telemetry::metrics::hist_labeled(
            "exec.layer_latency",
            &[("layer", layer), ("backend", backend), ("mode", m)],
        )
    })
}

/// Which latency series a finished call belongs to: fully warm calls
/// (every panel replayed from the temporal cache) report as `warm`; a
/// call that `built` its hash families reports as `build`; every other
/// call hashed under resident families and reports as `fused`.
pub(crate) fn latency_mode_index(stats: &ReuseStats, built: bool) -> usize {
    if stats.cache_hits > 0 && stats.cache_misses == 0 && stats.cache_invalidations == 0 {
        0
    } else if built {
        2
    } else {
        1
    }
}

/// Looks up (or fetches and caches) the hash family for one panel.
///
/// Data-independent providers are asked once per panel per workspace key;
/// the family is then served from the workspace cache with no provider
/// round-trip (no key-string allocation, no family clone). Data-dependent
/// providers see the gathered unit matrix (dequantized, for codes) on
/// every call.
///
/// # Errors
///
/// Propagates provider errors, and returns a shape mismatch when the
/// family's vector length is not the panel's unit length `dim` (the
/// fused sweep reads exactly `dim` elements per unit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_family<'a, E: PanelElem>(
    families: &'a mut Vec<HashFamily>,
    owned: &'a mut Option<HashFamily>,
    hashes: &dyn HashProvider,
    layer: &str,
    panel: usize,
    h: usize,
    units: &[E],
    rows: usize,
    dim: usize,
    ctx: &E::Ctx,
) -> Result<&'a HashFamily> {
    let family = if hashes.data_independent() {
        if families.len() <= panel {
            debug_assert_eq!(families.len(), panel, "panels are visited in order");
            let data = E::family_data(units, rows, dim, ctx)?;
            families.push(hashes.family(layer, panel, h, &data)?);
        }
        &families[panel]
    } else {
        let data = E::family_data(units, rows, dim, ctx)?;
        owned.insert(hashes.family(layer, panel, h, &data)?)
    };
    if family.l() != dim {
        return Err(TensorError::ShapeMismatch {
            op: "panel_family",
            expected: vec![dim],
            actual: vec![family.l()],
        }
        .into());
    }
    Ok(family)
}

/// Recovers a conv output grid from a row count: the executor does not
/// know the input H/W, but output grids in this workspace are square or
/// near-square, so take the tallest factorization `h <= w`.
pub(crate) fn output_hw_for_rows(n: usize) -> Option<(usize, usize)> {
    let mut best = None;
    let mut h = 1usize;
    while h * h <= n {
        if n.is_multiple_of(h) {
            best = Some((h, n / h));
        }
        h += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_iter_covers_range_without_overlap() {
        let panels: Vec<Panel> = PanelIter::new(25, 8).collect();
        assert_eq!(panels.len(), 4);
        assert_eq!(
            panels[0],
            Panel {
                index: 0,
                start: 0,
                end: 8
            }
        );
        assert_eq!(
            panels[3],
            Panel {
                index: 3,
                start: 24,
                end: 25
            }
        );
        assert_eq!(panels.iter().map(Panel::len).sum::<usize>(), 25);
        assert!(panels.iter().all(|p| p.len() > 0));
    }

    #[test]
    fn panel_iter_exact_division_and_empty() {
        assert_eq!(PanelIter::new(24, 8).count(), 3);
        assert_eq!(PanelIter::new(0, 8).count(), 0);
        // step 0 is clamped to 1 rather than looping forever.
        assert_eq!(PanelIter::new(3, 0).count(), 3);
    }

    /// Runs one call of `layer` on `ws` and on a fresh workspace; both
    /// must agree bit for bit.
    fn run_both(
        ws: &mut ExecWorkspace,
        layer: &str,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        pattern: &ReusePattern,
    ) -> Vec<f32> {
        let hashes = crate::RandomHashProvider::new(3);
        let mut y = vec![0.0f32; x.rows() * w.rows()];
        let s = ws
            .execute_into(x, w, None, pattern, &hashes, layer, &mut y)
            .unwrap();
        let mut fresh_y = vec![0.0f32; y.len()];
        let fresh = ExecWorkspace::new()
            .execute_into(x, w, None, pattern, &hashes, layer, &mut fresh_y)
            .unwrap();
        assert_eq!(s, fresh, "{layer}");
        assert_eq!(y, fresh_y, "{layer}");
        y
    }

    #[test]
    fn alternating_layers_stay_resident_and_match_fresh() {
        let xa = Tensor::from_fn(&[64, 48], |i| ((i % 101) as f32 * 0.13).sin());
        let wa = Tensor::from_fn(&[8, 48], |i| ((i % 37) as f32 * 0.29).cos());
        let xb = Tensor::from_fn(&[30, 20], |i| ((i % 53) as f32 * 0.41).sin());
        let wb = Tensor::from_fn(&[6, 20], |i| ((i % 29) as f32 * 0.17).cos());
        let pa = ReusePattern::conventional(16, 4);
        let pb = ReusePattern::conventional(10, 3).with_block_rows(2);
        let mut ws = ExecWorkspace::new();
        for _ in 0..3 {
            run_both(&mut ws, "a", &xa, &wa, &pa);
            run_both(&mut ws, "b", &xb, &wb, &pb);
        }
        assert_eq!(ws.layers.len(), 2);
        assert!(ws.layers.iter().all(|s| !s.families.is_empty()));
        // A changed key replaces the layer's entry instead of adding one.
        let pb2 = ReusePattern::conventional(20, 2);
        run_both(&mut ws, "b", &xb, &wb, &pb2);
        assert_eq!(ws.layers.len(), 2);
        run_both(&mut ws, "a", &xa, &wa, &pa);
    }

    #[test]
    fn output_hw_takes_tallest_factorization() {
        assert_eq!(output_hw_for_rows(36), Some((6, 6)));
        assert_eq!(output_hw_for_rows(30), Some((5, 6)));
        assert_eq!(output_hw_for_rows(7), Some((1, 7)));
    }
}
