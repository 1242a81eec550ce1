//! Horizontal reuse (the paper's M-2 direction, Fig. 7).
//!
//! The im2col matrix is sliced into horizontal panels of `L` rows (the
//! shared [`PanelIter`] walk). Within a panel `X_i` (`L x K`), the neuron
//! vectors are the panel's *columns* (length `L`). If columns `j` and `k`
//! are similar, distributivity gives `x_j·w_j + x_k·w_k ≈ c × (w_j + w_k)`
//! with `c` the centroid — so the weight matrix is *folded* (summed by
//! cluster) instead of the output being duplicated. `Y_i = X_i^c × W_i^c`,
//! and the panel results are concatenated.
//!
//! Like the vertical kernel, this is a workspace function: all
//! intermediates live in the caller's [`PanelBuffers`] arena.

use greuse_lsh::{ClusterScratch, FusedPanelSource, HashFamily};
use greuse_tensor::gemm_f32_into_with;

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

        // Folded weights W_i^c: n_c x M, row c = Σ_{j∈c} W[:, j]ᵀ = Σ w_j
        // where w_j is the j-th column of W (M x K).
        let wc = &mut buf.folded[..n_c * m];
        wc.fill(0.0);
        for (j, &c) in scratch.assignments().iter().enumerate() {
            let dst = &mut wc[c * m..(c + 1) * m];
            for (mm, d) in dst.iter_mut().enumerate() {
                *d += w[mm * k + j];
            }
        }
        // Weight folding costs one add per weight element.
        stats.ops.gemm_macs += (k * m) as u64;
        drop(fold_span);

        // Y_i = X_i^c × W_i^c : lh x M.
        let yi = &mut buf.yc[..lh * m];
        {
            let _gemm = greuse_telemetry::span!("exec.gemm");
            gemm_f32_into_with(xc, wc, yi, lh, n_c, m, &mut buf.gemm)?;
        }
        stats.ops.gemm_macs += (lh * n_c * m) as u64;

        {
            let _recover = greuse_telemetry::span!("exec.recover");
            for r in 0..lh {
                y[(row0 + r) * m..(row0 + r + 1) * m].copy_from_slice(&yi[r * m..(r + 1) * m]);
            }
        }
        stats.ops.recover_elems += (lh * m) as u64;
    }

    Ok(())
}
