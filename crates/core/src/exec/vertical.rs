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
//! The kernel is a workspace function: every intermediate lives in the
//! caller's [`PanelBuffers`] arena and nothing is allocated here, which
//! is what makes the executor's steady state allocation-free.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::{add_assign_f32, gemm_bt_f32_strided_into_with, recover_rows_f32};

use crate::exec::cache::{Probe, ReuseCache};
use crate::exec::workspace::{panel_family, PanelBuffers, PanelIter, PipelineMode};
use crate::exec::ReuseStats;
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::Result;

#[allow(clippy::too_many_arguments)]
pub(crate) fn vertical_into(
    x: &[f32],
    w: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
    layer: &str,
    buf: &mut PanelBuffers,
    scratch: &mut ClusterScratch,
    families: &mut Vec<HashFamily>,
    fsrc: &mut FusedPanelSource,
    mode: PipelineMode,
    mut cache: Option<&mut ReuseCache<f32, f32>>,
    y: &mut [f32],
    stats: &mut ReuseStats,
) -> Result<()> {
    let l = pattern.l.min(k);
    let b = pattern.block_rows.min(n);
    let full_blocks = n / b;
    let tail_rows = n - full_blocks * b;

    // Resolved unconditionally so the one-time registry allocation lands
    // during warm-up rather than inside a measured steady-state window
    // (same idiom as `Counter` registration).
    let hit_hist = greuse_telemetry::hist!(r#"cache.panel_latency{backend="f32",result="hit"}"#);
    let miss_hist = greuse_telemetry::hist!(r#"cache.panel_latency{backend="f32",result="miss"}"#);

    for panel in PanelIter::new(k, l) {
        let (col0, col1, lw) = (panel.start, panel.end, panel.len());
        // The panel's weight slice W[:, col0..col1] (M rows of lw at
        // stride K), multiplied in place as Wpᵀ — never copied.
        let wp = &w[col0..];

        if full_blocks > 0 {
            // Gather block vectors: full_blocks x (b*lw). With the fused
            // pipeline and a cached family, the gathered (cache-hot) panel
            // is then hashed and norm-scanned in one batched sweep instead
            // of two more passes (packed-projection hash, norm scan).
            let dim = b * lw;
            let units = &mut buf.units[..full_blocks * dim];
            let fused_ready = mode == PipelineMode::Fused
                && hashes.data_independent()
                && families.len() > panel.index;
            {
                let _gather = greuse_telemetry::span!("exec.gather");
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
                units,
                full_blocks,
                dim,
            )?;
            #[cfg(feature = "fault-inject")]
            let injected = {
                use crate::faults::{corrupt_slice, fire, FaultAction, FaultPoint};
                let action = fire(FaultPoint::LshHash);
                match action {
                    Some(FaultAction::Panic) => panic!("fault-inject: panic at `lsh.hash`"),
                    Some(
                        c @ (FaultAction::CorruptNan
                        | FaultAction::CorruptInf
                        | FaultAction::Saturate),
                    ) => corrupt_slice(c, units),
                    _ => {}
                }
                action
            };
            // A corrupting fault rewrites the gathered units; hash the
            // corrupted data through the staged path so the fault is
            // observed exactly as in staged mode.
            #[cfg(feature = "fault-inject")]
            let fused_ready = fused_ready
                && !matches!(
                    injected,
                    Some(
                        crate::faults::FaultAction::CorruptNan
                            | crate::faults::FaultAction::CorruptInf
                            | crate::faults::FaultAction::Saturate
                    )
                );
            #[cfg(feature = "fault-inject")]
            let fault_clean = injected.is_none();
            #[cfg(not(feature = "fault-inject"))]
            let fault_clean = true;
            let units = &buf.units[..full_blocks * dim];

            // Temporal-reuse fast path: a tile bitwise equal to its cached
            // copy has the cached signatures and radius as well (pure
            // functions of the data under this layer's fixed families), so
            // it replays without being hashed. Every other tile is hashed.
            let tile_hit = fused_ready
                && fault_clean
                && cache
                    .as_deref()
                    .is_some_and(|c| c.hit(panel, units, dim, dim));
            if fused_ready && !tile_hit {
                let _fused = greuse_telemetry::span!("exec.fused_pack_hash");
                fsrc.begin_panel(family);
                fsrc.feed_rows(units, full_blocks);
            }

            // Per-panel latency, split by cache outcome. Clock reads only
            // with an active cache and capture on; the panel is coarse
            // (cluster + fold + GEMM + recover) so two reads amortize.
            let panel_t0 =
                (cache.is_some() && greuse_telemetry::enabled()).then(std::time::Instant::now);

            // Temporal-reuse probe: with no fault fired this panel, an
            // unchanged tile (validated bitwise — see `cache.rs`) replays
            // its cached clustering and centroid-GEMM output outright; a
            // rejected tile is classified from its fresh signatures.
            let mut warm = false;
            if let Some(c) = cache.as_deref_mut() {
                if fused_ready && fault_clean {
                    let probe = if tile_hit {
                        Probe::Hit
                    } else {
                        c.probe(panel, fsrc.signatures(), fsrc.tau(), units, dim, dim)
                    };
                    match probe {
                        Probe::Hit => {
                            let _warm = greuse_telemetry::span!("exec.warm_cluster");
                            scratch.restore(c.assignments(panel.index), c.sizes(panel.index));
                            stats.cache_hits += 1;
                            greuse_telemetry::counter!("cache.hit").add(1);
                            warm = true;
                        }
                        Probe::ChangedData => {
                            stats.cache_invalidations += 1;
                            greuse_telemetry::counter!("cache.invalidate").add(1);
                        }
                        Probe::Cold | Probe::ChangedSigs => {
                            stats.cache_misses += 1;
                            greuse_telemetry::counter!("cache.miss").add(1);
                        }
                    }
                } else {
                    stats.cache_misses += 1;
                    greuse_telemetry::counter!("cache.miss").add(1);
                }
            }

            if !warm {
                {
                    let _cluster = greuse_telemetry::span!("exec.cluster");
                    if fused_ready {
                        scratch.cluster_presigned(
                            units,
                            full_blocks,
                            dim,
                            fsrc.signatures(),
                            fsrc.tau(),
                        )?;
                    } else {
                        scratch.cluster(units, full_blocks, family)?;
                    }
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
                    recover_rows_f32(
                        &mut y[..full_blocks * b * m],
                        c.yc(panel.index, n_c * b * m),
                        scratch.assignments(),
                        b,
                        m,
                    );
                }
            } else {
                // Centroid blocks, then stacked as (n_c * b) x lw.
                {
                    let _fold = greuse_telemetry::span!("exec.fold");
                    #[cfg(feature = "fault-inject")]
                    crate::faults::panic_point(crate::faults::FaultPoint::ExecFold, "exec.fold");
                    let centroids = &mut buf.centroids[..n_c * dim];
                    scratch.centroids_into(units, dim, centroids)?;
                    let stacked = &mut buf.stacked[..n_c * b * lw];
                    for c in 0..n_c {
                        for br in 0..b {
                            stacked[(c * b + br) * lw..(c * b + br + 1) * lw].copy_from_slice(
                                &centroids[c * dim + br * lw..c * dim + (br + 1) * lw],
                            );
                        }
                    }
                }
                let stacked = &buf.stacked[..n_c * b * lw];
                // Centroid GEMM: (n_c*b) x lw × Wpᵀ (lw x M).
                let yc = &mut buf.yc[..n_c * b * m];
                {
                    let _gemm = greuse_telemetry::span!("exec.gemm");
                    let rows = n_c * b;
                    gemm_bt_f32_strided_into_with(stacked, wp, k, yc, rows, lw, m, &mut buf.gemm)?;
                }
                stats.ops.gemm_macs += (n_c * b * lw * m) as u64;

                // Recovery: duplicate each cluster's block result to members.
                {
                    let _recover = greuse_telemetry::span!("exec.recover");
                    recover_rows_f32(
                        &mut y[..full_blocks * b * m],
                        yc,
                        scratch.assignments(),
                        b,
                        m,
                    );
                }
                // Commit to the cache only results of a genuine,
                // fault-free cold run with fused signatures: everything a
                // later hit replays must be exactly what the cold path
                // produced.
                if fused_ready && fault_clean {
                    if let Some(c) = cache.as_deref_mut() {
                        c.store(
                            panel,
                            fsrc.signatures(),
                            fsrc.tau(),
                            units,
                            dim,
                            dim,
                            scratch.assignments(),
                            scratch.sizes(),
                            &buf.yc[..n_c * b * m],
                        );
                    }
                }
            }
            stats.ops.recover_elems += (full_blocks * b * m) as u64;
            if let Some(t0) = panel_t0 {
                let hist = if warm { hit_hist } else { miss_hist };
                hist.record_ns(t0.elapsed().as_nanos() as u64);
            }
        }

        if tail_rows > 0 {
            // Exact computation for the ragged tail.
            let tail = &mut buf.tail[..tail_rows * lw];
            {
                let _gather = greuse_telemetry::span!("exec.gather");
                for r in 0..tail_rows {
                    let row = (full_blocks * b + r) * k;
                    tail[r * lw..(r + 1) * lw].copy_from_slice(&x[row + col0..row + col1]);
                }
            }
            let yt = &mut buf.yt[..tail_rows * m];
            {
                let _gemm = greuse_telemetry::span!("exec.gemm");
                gemm_bt_f32_strided_into_with(tail, wp, k, yt, tail_rows, lw, m, &mut buf.gemm)?;
            }
            stats.ops.gemm_macs += (tail_rows * lw * m) as u64;
            {
                let _recover = greuse_telemetry::span!("exec.recover");
                for r in 0..tail_rows {
                    let dst = &mut y[(full_blocks * b + r) * m..(full_blocks * b + r + 1) * m];
                    add_assign_f32(dst, &yt[r * m..(r + 1) * m]);
                }
            }
            stats.ops.recover_elems += (tail_rows * m) as u64;
        }
    }

    Ok(())
}
