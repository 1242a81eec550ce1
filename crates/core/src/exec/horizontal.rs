//! Horizontal reuse (the paper's M-2 direction, Fig. 7).
//!
//! The im2col matrix is sliced into horizontal panels of `L` rows (the
//! shared [`PanelIter`] walk). Within a panel `X_i` (`L x K`), the neuron
//! vectors are the panel's *columns* (length `L`). If columns `j` and `k`
//! are similar, distributivity gives `x_j·w_j + x_k·w_k ≈ c × (w_j + w_k)`
//! with `c` the centroid — so the weight matrix is *folded* (summed by
//! cluster) instead of the output being duplicated. `Y_i = X_i^c × W_i^c`,
//! written straight into the panel's rows of `Y`.
//!
//! Like the vertical kernel, this is a workspace function: all
//! intermediates live in the caller's [`PanelBuffers`] arena.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::gemm_bt_f32_into_with;

use crate::exec::workspace::{panel_family, PanelBuffers, PanelIter};
use crate::exec::ReuseStats;
use crate::hash_provider::HashProvider;
use crate::pattern::ReusePattern;
use crate::Result;

#[allow(clippy::too_many_arguments)]
pub(crate) fn horizontal_into(
    x: &[f32],
    w: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pattern: &ReusePattern,
    hashes: &dyn HashProvider,
    layer: &str,
    buf: &mut PanelBuffers<f32>,
    scratch: &mut ClusterScratch,
    families: &mut Vec<HashFamily>,
    fsrc: &mut FusedPanelSource,
    y: &mut [f32],
    stats: &mut ReuseStats,
) -> Result<()> {
    let l = pattern.l.min(n);

    for panel in PanelIter::new(n, l) {
        let (row0, lh) = (panel.start, panel.len());

        // Column vectors of the panel: k vectors of length lh, gathered as
        // rows of the unit matrix (the transposed panel).
        let units = &mut buf.units[..k * lh];
        {
            let _gather = greuse_telemetry::span!("exec.gather");
            for j in 0..k {
                for r in 0..lh {
                    units[j * lh + r] = x[(row0 + r) * k + j];
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
            k,
            lh,
            &(),
        )?;
        // See vertical.rs: a corrupting fault rewrites the units before
        // the sweep hashes them.
        #[cfg(feature = "fault-inject")]
        let injected = {
            use crate::faults::{corrupt_slice, fire, FaultAction, FaultPoint};
            let action = fire(FaultPoint::LshHash);
            match action {
                Some(FaultAction::Panic) => panic!("fault-inject: panic at `lsh.hash`"),
                Some(c) => corrupt_slice(c, units),
                None => {}
            }
            action
        };
        {
            let _fused = greuse_telemetry::span!("exec.fused_pack_hash");
            fsrc.begin_panel(family);
            fsrc.feed_rows(units, k);
        }
        {
            let _cluster = greuse_telemetry::span!("exec.cluster");
            scratch.cluster_presigned(units, k, lh, fsrc.signatures(), fsrc.tau())?;
        }
        #[cfg(feature = "fault-inject")]
        if injected == Some(crate::faults::FaultAction::DegenerateClusters) {
            scratch.force_singletons(k);
        }
        let n_c = scratch.num_clusters();
        stats.n_vectors += k as u64;
        stats.n_clusters += n_c as u64;
        stats.ops.clustering_vectors += k as u64;
        stats.ops.clustering_macs += family.hashing_macs(k);

        let fold_span = greuse_telemetry::span!("exec.fold");
        #[cfg(feature = "fault-inject")]
        crate::faults::panic_point(crate::faults::FaultPoint::ExecFold, "exec.fold");
        // Centroid matrix X_i^c: lh x n_c (centroids as columns).
        let centroids = &mut buf.centroids[..n_c * lh];
        scratch.centroids_into(units, lh, centroids)?;
        let xc = &mut buf.stacked[..lh * n_c];
        for c in 0..n_c {
            for r in 0..lh {
                xc[r * n_c + c] = centroids[c * lh + r];
            }
        }

        // Folded weights, transposed: W_i^cᵀ is M x n_c, slot [mm][c] =
        // Σ_{j∈c} W[mm][j], summed over ascending j.
        let wct = &mut buf.folded[..m * n_c];
        wct.fill(0.0);
        let assign = scratch.assignments();
        for (dst, w_row) in wct.chunks_exact_mut(n_c).zip(w.chunks_exact(k)) {
            for (&c, &wv) in assign.iter().zip(w_row) {
                dst[c] += wv;
            }
        }
        // Weight folding costs one add per weight element.
        stats.ops.gemm_macs += (k * m) as u64;
        drop(fold_span);

        // Y_i = X_i^c × W_i^c : lh x M, into the panel's contiguous rows
        // of Y, so there is nothing left to recover.
        {
            let _gemm = greuse_telemetry::span!("exec.gemm");
            let yi = &mut y[row0 * m..(row0 + lh) * m];
            gemm_bt_f32_into_with(xc, wct, yi, lh, n_c, m, &mut buf.gemm)?;
        }
        stats.ops.gemm_macs += (lh * n_c * m) as u64;
        // The MCU model still charges the recover copy an MCU kernel makes.
        stats.ops.recover_elems += (lh * m) as u64;
    }

    Ok(())
}
