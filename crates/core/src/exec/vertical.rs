//! Vertical reuse (the paper's M-1 direction, Fig. 3), generalized to
//! 2-D neuron blocks (§3.3).
//!
//! The im2col matrix is sliced into vertical panels of width `L` (the
//! shared [`PanelIter`] walk). Within a panel, the reuse unit is a block
//! of `block_rows` consecutive rows × `L` columns (`block_rows = 1` is
//! the conventional neuron vector). Blocks are clustered by LSH; each
//! cluster's centroid block multiplies the panel's weight slice once, and
//! the result is duplicated to every member (the *recovery* step). Panel
//! results accumulate into `Y`.
//!
//! One driver, [`vertical_into`], runs this walk for both executors: over
//! `f32` activations for [`super::ExecWorkspace`] and over `u8`
//! activation codes for [`super::QuantWorkspace`]. The per-panel
//! sequence — gather, family lookup, fault point, the fused hash sweep,
//! temporal-cache hit/probe/restore, grouping, stats, fold, centroid
//! GEMM, recovery, cache commit, ragged tail — is written once; only the
//! element-specific steps sit behind the [`PanelElem`] hooks.
//!
//! The kernel is a workspace function: every intermediate lives in the
//! caller's [`PanelBuffers`] arena and nothing is allocated here, which
//! is what makes the executors' steady state allocation-free.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::{
    add_assign_f32, add_assign_i32, dequantize_u8_slice, gemm_bt_f32_strided_into_with,
    gemm_q8_into_with, recover_rows_f32, recover_rows_i32, scatter_accumulate_u8_i32,
    ActQuantParams, GemmScratch, Tensor,
};

use crate::exec::cache::{CacheElem, Probe, ReuseCache};
use crate::exec::workspace::{panel_family, Panel, PanelBuffers, PanelIter};
use crate::exec::ReuseStats;
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::Result;

/// The element a vertical panel walk runs over: `f32` activations, or
/// the int8 executor's `u8` activation codes. Each hook is one step that
/// differs between the two; everything else is [`vertical_into`].
///
/// Strided unit views (`rows`, `stride`, `width`) address unit `g` as
/// `rows[g * stride..][..width]`: gathered units are contiguous
/// (`stride == width == dim`), units read in place are rows of the
/// activation matrix (`stride == K`).
pub(crate) trait PanelElem: CacheElem {
    /// Weight element: `f32`, or symmetric `i8` codes.
    type W;
    /// GEMM accumulator (`f32` / `i32`), also the centroid-fold staging.
    type Acc: Copy + Default;
    /// What maps an element to the real value the hash sees: nothing for
    /// `f32`, the activation quantization params for `u8`.
    type Ctx;
    /// `u8` codes: hashed through a dequantized `f32` staging copy
    /// (`deq`), folded through integer sums (`centroids`), and read in
    /// place (no gather) on fused panels of block height 1.
    const CODES: bool;

    /// The real-valued unit matrix a hash provider builds a family from.
    fn family_data(units: &[Self], rows: usize, dim: usize, ctx: &Self::Ctx)
        -> Result<Tensor<f32>>;

    /// The values the fused sweep hashes and the leader walk measures:
    /// the units themselves, or their dequantization into `deq`.
    fn hash_rows<'a>(
        rows: &'a [Self],
        stride: usize,
        n: usize,
        dim: usize,
        deq: &'a mut [f32],
        ctx: &Self::Ctx,
    ) -> &'a [f32];

    /// Writes the centroid of every cluster of `scratch`, stacked
    /// `(n_c·b) x lw` (a block's rows are already row-contiguous), into
    /// `stacked`; `sums` is the whole `centroids` staging arena.
    fn fold(
        scratch: &ClusterScratch,
        rows: &[Self],
        stride: usize,
        dim: usize,
        sums: &mut [Self::Acc],
        stacked: &mut [Self],
    ) -> Result<()>;

    /// `out = a × Wpᵀ` for `rows` rows of the panel's width, where `Wp`
    /// is `panel`'s slice of the `m x K` weights.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        a: &[Self],
        w: &[Self::W],
        panel: Panel,
        k: usize,
        out: &mut [Self::Acc],
        rows: usize,
        m: usize,
        gemm: &mut GemmScratch,
    ) -> Result<()>;

    /// Recovery: adds cluster `assign[g]`'s `b x m` result rows to block
    /// `g`'s rows of `y`.
    fn recover(y: &mut [Self::Acc], yc: &[Self::Acc], assign: &[usize], b: usize, m: usize);

    /// `dst += src`, for the exactly computed ragged tail.
    fn add_assign(dst: &mut [Self::Acc], src: &[Self::Acc]);

    /// Applies a payload-corrupting fault to the gathered units, before
    /// they are hashed.
    #[cfg(feature = "fault-inject")]
    fn corrupt(action: crate::faults::FaultAction, units: &mut [Self]);
}

impl PanelElem for f32 {
    type W = f32;
    type Acc = f32;
    type Ctx = ();
    const CODES: bool = false;

    fn family_data(units: &[f32], rows: usize, dim: usize, _: &()) -> Result<Tensor<f32>> {
        Ok(Tensor::from_vec(
            units[..rows * dim].to_vec(),
            &[rows, dim],
        )?)
    }

    fn hash_rows<'a>(
        rows: &'a [f32],
        stride: usize,
        n: usize,
        dim: usize,
        _deq: &'a mut [f32],
        _: &(),
    ) -> &'a [f32] {
        debug_assert_eq!(stride, dim, "f32 units are always gathered");
        &rows[..n * dim]
    }

    fn fold(
        scratch: &ClusterScratch,
        rows: &[f32],
        stride: usize,
        dim: usize,
        _sums: &mut [f32],
        stacked: &mut [f32],
    ) -> Result<()> {
        debug_assert_eq!(stride, dim, "f32 units are always gathered");
        Ok(scratch.centroids_into(rows, dim, stacked)?)
    }

    fn gemm(
        a: &[f32],
        w: &[f32],
        panel: Panel,
        k: usize,
        out: &mut [f32],
        rows: usize,
        m: usize,
        gemm: &mut GemmScratch,
    ) -> Result<()> {
        // The panel's weight slice W[:, start..end] (M rows of lw at
        // stride K), multiplied in place as Wpᵀ — never copied.
        let wp = &w[panel.start..];
        Ok(gemm_bt_f32_strided_into_with(
            a,
            wp,
            k,
            out,
            rows,
            panel.len(),
            m,
            gemm,
        )?)
    }

    fn recover(y: &mut [f32], yc: &[f32], assign: &[usize], b: usize, m: usize) {
        recover_rows_f32(y, yc, assign, b, m);
    }

    fn add_assign(dst: &mut [f32], src: &[f32]) {
        add_assign_f32(dst, src);
    }

    #[cfg(feature = "fault-inject")]
    fn corrupt(action: crate::faults::FaultAction, units: &mut [f32]) {
        crate::faults::corrupt_slice(action, units);
    }
}

/// The int8 executor's element. Clustering sees exactly the values the
/// f32 pipeline would see after quantization noise (the sweep hashes the
/// codes dequantized with the expression of `ActQuantParams::dequantize`);
/// the fold is the integer rounded mean of the member codes; the centroid
/// GEMM is the packed u8×i8 kernel with `i32` accumulators over the
/// layer's panel-major weight codes.
impl PanelElem for u8 {
    type W = i8;
    type Acc = i32;
    type Ctx = ActQuantParams;
    const CODES: bool = true;

    fn family_data(
        units: &[u8],
        rows: usize,
        dim: usize,
        params: &ActQuantParams,
    ) -> Result<Tensor<f32>> {
        Ok(Tensor::from_fn(&[rows, dim], |i| {
            params.dequantize(units[i])
        }))
    }

    fn hash_rows<'a>(
        rows: &'a [u8],
        stride: usize,
        n: usize,
        dim: usize,
        deq: &'a mut [f32],
        params: &ActQuantParams,
    ) -> &'a [f32] {
        // One vectorized pass over the panel's codes; the hash and norm
        // scan then read the result while it is still cache-hot.
        let deq = &mut deq[..n * dim];
        if stride == dim {
            dequantize_u8_slice(&rows[..n * dim], params.scale, params.zero_point, deq);
        } else {
            for (g, d) in deq.chunks_exact_mut(dim).enumerate() {
                let row = &rows[g * stride..g * stride + dim];
                dequantize_u8_slice(row, params.scale, params.zero_point, d);
            }
        }
        deq
    }

    fn fold(
        scratch: &ClusterScratch,
        rows: &[u8],
        stride: usize,
        dim: usize,
        sums: &mut [i32],
        stacked: &mut [u8],
    ) -> Result<()> {
        // A centroid's code is the rounded mean of its members' codes,
        // which equals quantizing the mean of the dequantized members (the
        // affine map commutes with averaging) up to one rounding step.
        let sums = &mut sums[..stacked.len()];
        sums.fill(0);
        scatter_accumulate_u8_i32(rows, stride, dim, scratch.assignments(), sums);
        for (c, &size) in scratch.sizes().iter().enumerate() {
            let sz = size as i32;
            let src = &sums[c * dim..(c + 1) * dim];
            let dst = &mut stacked[c * dim..(c + 1) * dim];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = ((s + sz / 2) / sz) as u8;
            }
        }
        Ok(())
    }

    fn gemm(
        a: &[u8],
        w: &[i8],
        panel: Panel,
        _k: usize,
        out: &mut [i32],
        rows: usize,
        m: usize,
        gemm: &mut GemmScratch,
    ) -> Result<()> {
        // Panel-major weight codes: the panel's M x lw block is
        // contiguous, rows at stride lw (qgemm's Bᵀ).
        let wp = &w[m * panel.start..m * panel.end];
        gemm_q8_into_with(a, wp, out, rows, panel.len(), m, gemm);
        Ok(())
    }

    fn recover(acc: &mut [i32], yc: &[i32], assign: &[usize], b: usize, m: usize) {
        recover_rows_i32(acc, yc, assign, b, m);
    }

    fn add_assign(dst: &mut [i32], src: &[i32]) {
        add_assign_i32(dst, src);
    }

    /// Payload-corrupting actions have no `u8` meaning: the fault fires
    /// (so the panel is still kept out of the cache) but the codes stay.
    #[cfg(feature = "fault-inject")]
    fn corrupt(_: crate::faults::FaultAction, _: &mut [u8]) {}
}

/// Runs the vertical reuse walk of `y += x × wᵀ` (`x` is `N x K`, `y` is
/// `N x M` and zeroed by the caller) for either element of
/// [`PanelElem`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn vertical_into<E: PanelElem>(
    x: &[E],
    w: &[E::W],
    n: usize,
    k: usize,
    m: usize,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
    layer: &str,
    ctx: &E::Ctx,
    buf: &mut PanelBuffers<E>,
    scratch: &mut ClusterScratch,
    families: &mut Vec<HashFamily>,
    fsrc: &mut FusedPanelSource,
    mut cache: Option<&mut ReuseCache<E, E::Acc>>,
    y: &mut [E::Acc],
    stats: &mut ReuseStats,
) -> Result<()> {
    let l = pattern.l.min(k);
    let b = pattern.block_rows.min(n);
    let full_blocks = n / b;
    let tail_rows = n - full_blocks * b;
    // Resolved on every call, capture on or off, so the one-time registry
    // allocation lands during warm-up rather than inside a measured
    // steady-state window.
    let [hit_hist, miss_hist] = if E::CODES {
        [
            greuse_telemetry::hist!(r#"cache.panel_latency{backend="int8",result="hit"}"#),
            greuse_telemetry::hist!(r#"cache.panel_latency{backend="int8",result="miss"}"#),
        ]
    } else {
        [
            greuse_telemetry::hist!(r#"cache.panel_latency{backend="f32",result="hit"}"#),
            greuse_telemetry::hist!(r#"cache.panel_latency{backend="f32",result="miss"}"#),
        ]
    };
    let (hits0, misses0, invalidations0) = (
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_invalidations,
    );
    let PanelBuffers {
        units: units_buf,
        centroids: sums_buf,
        stacked: stacked_buf,
        yc: yc_buf,
        tail: tail_buf,
        yt: yt_buf,
        deq,
        gemm,
        ..
    } = buf;

    for panel in PanelIter::new(k, l) {
        let (col0, col1, lw) = (panel.start, panel.end, panel.len());

        if full_blocks > 0 {
            // Gather block vectors: full_blocks x (b*lw), then hash and
            // norm-scan the (cache-hot) panel in one batched sweep.
            let dim = b * lw;
            // A data-independent provider's family stays resident from
            // the layer's second call on. Residency gates two things, and
            // neither is how the panel is hashed: reading codes in place
            // (at block height 1 every unit of a code matrix is a
            // contiguous row slice of `x`, but a family built now would
            // need the gathered units), and the temporal cache.
            let resident = hashes.data_independent() && families.len() > panel.index;
            let in_place = E::CODES && resident && b == 1;
            if !in_place {
                let _gather = greuse_telemetry::span!("exec.gather");
                let units = &mut units_buf[..full_blocks * dim];
                for g in 0..full_blocks {
                    let dst = &mut units[g * dim..(g + 1) * dim];
                    for br in 0..b {
                        let row = (g * b + br) * k;
                        dst[br * lw..(br + 1) * lw].copy_from_slice(&x[row + col0..row + col1]);
                    }
                }
            }
            let mut owned = None;
            let family = panel_family(
                families,
                &mut owned,
                hashes,
                layer,
                panel.index,
                pattern.h,
                &units_buf[..full_blocks * dim],
                full_blocks,
                dim,
                ctx,
            )?;
            // A corrupting fault rewrites the gathered units before the
            // sweep, so the corrupted data is what gets hashed.
            #[cfg(feature = "fault-inject")]
            let injected = crate::faults::fire(crate::faults::FaultPoint::LshHash);
            #[cfg(feature = "fault-inject")]
            match injected {
                Some(crate::faults::FaultAction::Panic) => {
                    panic!("fault-inject: panic at `lsh.hash`")
                }
                Some(action) => E::corrupt(action, &mut units_buf[..full_blocks * dim]),
                None => {}
            }
            #[cfg(feature = "fault-inject")]
            let fault_clean = injected.is_none();
            #[cfg(not(feature = "fault-inject"))]
            let fault_clean = true;
            // The unit rows as the sweep, the cache and the fold see them:
            // strided in `x` when read in place, gathered otherwise.
            let (rows, stride, width) = if in_place {
                (&x[col0..], k, lw)
            } else {
                (&units_buf[..full_blocks * dim], dim, dim)
            };

            // Temporal-reuse fast path: a tile bitwise equal to its cached
            // copy has the cached signatures and radius as well (pure
            // functions of the data under this layer's fixed families; the
            // int8 executor clears the cache when its quantization params
            // change), so it replays without being hashed. Every other
            // tile is hashed.
            let cache_gate = resident && fault_clean;
            let tile_hit = cache_gate
                && cache
                    .as_deref()
                    .is_some_and(|c| c.hit(panel, rows, stride, width));
            let mut hashed: &[f32] = &[];
            if !tile_hit {
                let _fused = greuse_telemetry::span!("exec.fused_pack_hash");
                fsrc.begin_panel(family);
                hashed = E::hash_rows(rows, stride, full_blocks, dim, deq, ctx);
                fsrc.feed_rows(hashed, full_blocks);
            }

            // Per-panel latency, split by cache outcome: with a cache the
            // span ends into its hit or miss histogram. The panel is
            // coarse (cluster + fold + GEMM + recover) so two clock reads
            // amortize.
            let panel_span = greuse_telemetry::span!("exec.panel", timed: cache.is_some());

            // Temporal-reuse probe: with the family resident and no fault
            // fired this panel, an unchanged tile (validated bitwise — see
            // `cache.rs`) replays its cached clustering and centroid-GEMM
            // output outright; a rejected tile is classified from its
            // fresh signatures.
            let mut warm = false;
            if let Some(c) = cache.as_deref_mut() {
                if cache_gate {
                    let probe = if tile_hit {
                        Probe::Hit
                    } else {
                        c.probe(panel, fsrc.signatures(), fsrc.tau(), rows, stride, width)
                    };
                    match probe {
                        Probe::Hit => {
                            let _warm = greuse_telemetry::span!("exec.warm_cluster");
                            scratch.restore(c.assignments(panel.index), c.sizes(panel.index));
                            stats.cache_hits += 1;
                            warm = true;
                        }
                        Probe::ChangedData => {
                            stats.cache_invalidations += 1;
                        }
                        Probe::Cold | Probe::ChangedSigs => {
                            stats.cache_misses += 1;
                        }
                    }
                } else {
                    stats.cache_misses += 1;
                }
            }

            if !warm {
                {
                    let _cluster = greuse_telemetry::span!("exec.cluster");
                    scratch.cluster_presigned(
                        hashed,
                        full_blocks,
                        dim,
                        fsrc.signatures(),
                        fsrc.tau(),
                    )?;
                }
                #[cfg(feature = "fault-inject")]
                if injected == Some(crate::faults::FaultAction::DegenerateClusters) {
                    scratch.force_singletons(full_blocks);
                }
            }
            let n_c = scratch.num_clusters();
            stats.n_vectors += full_blocks as u64;
            stats.n_clusters += n_c as u64;
            // A warm hit replays its panel unhashed and skips the leader
            // walk, so neither is charged.
            if !warm {
                stats.ops.clustering_vectors += full_blocks as u64;
                stats.ops.clustering_macs += family.hashing_macs(full_blocks);
            }

            if warm {
                // Replay the cached centroid-GEMM output: fold and GEMM
                // are skipped entirely, only recovery runs.
                let _recover = greuse_telemetry::span!("exec.recover");
                if let Some(c) = cache.as_deref() {
                    E::recover(
                        &mut y[..full_blocks * b * m],
                        c.yc(panel.index, n_c * b * m),
                        scratch.assignments(),
                        b,
                        m,
                    );
                }
            } else {
                // Centroid blocks, stacked as (n_c * b) x lw.
                {
                    let _fold = greuse_telemetry::span!("exec.fold");
                    #[cfg(feature = "fault-inject")]
                    crate::faults::panic_point(crate::faults::FaultPoint::ExecFold, "exec.fold");
                    E::fold(
                        scratch,
                        rows,
                        stride,
                        dim,
                        sums_buf,
                        &mut stacked_buf[..n_c * dim],
                    )?;
                }
                // Centroid GEMM: (n_c*b) x lw × Wpᵀ (lw x M).
                let yc = &mut yc_buf[..n_c * b * m];
                {
                    let _gemm = greuse_telemetry::span!("exec.gemm");
                    E::gemm(&stacked_buf[..n_c * dim], w, panel, k, yc, n_c * b, m, gemm)?;
                }
                stats.ops.gemm_macs += (n_c * b * lw * m) as u64;

                // Recovery: duplicate each cluster's block result to members.
                {
                    let _recover = greuse_telemetry::span!("exec.recover");
                    E::recover(
                        &mut y[..full_blocks * b * m],
                        yc,
                        scratch.assignments(),
                        b,
                        m,
                    );
                }
                // Commit to the cache only results of a genuine,
                // fault-free cold run under a resident family: everything
                // a later hit replays must be exactly what the cold path
                // produced.
                if cache_gate {
                    if let Some(c) = cache.as_deref_mut() {
                        c.store(
                            panel,
                            fsrc.signatures(),
                            fsrc.tau(),
                            rows,
                            stride,
                            width,
                            scratch.assignments(),
                            scratch.sizes(),
                            &yc_buf[..n_c * b * m],
                        );
                    }
                }
            }
            stats.ops.recover_elems += (full_blocks * b * m) as u64;
            if cache.is_some() {
                panel_span.finish(if warm { hit_hist } else { miss_hist });
            }
        }

        if tail_rows > 0 {
            // Exact computation for the ragged tail.
            let tail = &mut tail_buf[..tail_rows * lw];
            {
                let _gather = greuse_telemetry::span!("exec.gather");
                for r in 0..tail_rows {
                    let row = (full_blocks * b + r) * k;
                    tail[r * lw..(r + 1) * lw].copy_from_slice(&x[row + col0..row + col1]);
                }
            }
            let yt = &mut yt_buf[..tail_rows * m];
            {
                let _gemm = greuse_telemetry::span!("exec.gemm");
                E::gemm(tail, w, panel, k, yt, tail_rows, m, gemm)?;
            }
            stats.ops.gemm_macs += (tail_rows * lw * m) as u64;
            {
                let _recover = greuse_telemetry::span!("exec.recover");
                for r in 0..tail_rows {
                    let dst = &mut y[(full_blocks * b + r) * m..(full_blocks * b + r + 1) * m];
                    E::add_assign(dst, &yt[r * m..(r + 1) * m]);
                }
            }
            stats.ops.recover_elems += (tail_rows * m) as u64;
        }
    }

    // The call's cache outcomes, counted once. A series registers on its
    // first nonzero count, so a scrape lists only outcomes that happened.
    if stats.cache_hits > hits0 {
        greuse_telemetry::counter!("cache.hit").add(stats.cache_hits - hits0);
    }
    if stats.cache_misses > misses0 {
        greuse_telemetry::counter!("cache.miss").add(stats.cache_misses - misses0);
    }
    if stats.cache_invalidations > invalidations0 {
        greuse_telemetry::counter!("cache.invalidate")
            .add(stats.cache_invalidations - invalidations0);
    }
    Ok(())
}
