//! Packed, register-blocked GEMM pipelines.
//!
//! The scalar blocked kernel the crate started with streams `B` rows from
//! their row-major location and carries a per-element `a == 0.0` branch
//! in the inner loop — both defeat vectorization. This module implements
//! two packing pipelines instead, one per operand layout.
//!
//! **Row-major `C = A × B`** ([`gemm_packed`], `gemm_f32*`, `matvec_f32*`):
//!
//! 1. `A` is packed into **row panels** of [`MR`] rows: panel `p` holds
//!    rows `p·MR..p·MR+MR`, stored k-major (`ap[kk·MR + r]`), zero-padded
//!    when fewer than `MR` rows remain.
//! 2. `B` is packed into **column panels** of [`NR`] columns, stored
//!    k-major (`bp[kk·NR + c]`), zero-padded likewise.
//! 3. The [`microkernel`] multiplies one `MR x NR` tile, holding the
//!    `MR·NR` accumulators in locals so LLVM keeps them in SIMD registers
//!    and vectorizes the `NR`-wide inner updates (no zero-check branch).
//!
//! **Transposed `C = A × Bᵀ`** ([`gemm_packed_bt`], `gemm_bt_f32*`): every
//! dense convolution (`Y = X × Wᵀ`, `W` stored `M x K`) and every batched
//! hash projection runs here. The roles of the operands are swapped so
//! that the weights, which never change between calls and in deep layers
//! are far larger than the activations, are **never packed**:
//!
//! 1. `A` (the im2col rows) is packed into **lane panels** of [`NR`] rows,
//!    stored k-major (`ap[kk·NR + l]`), zero-padded — the `A` rows become
//!    the vector lanes of the tile.
//! 2. `Bᵀ` (the weights) is read **in place**: the [`microkernel_bt`]
//!    walks [`MR`] weight rows through row pointers with a row stride,
//!    broadcasting one element of each per k-step. The stride lets a
//!    caller multiply by a column slice of a wider matrix (the vertical
//!    reuse panel) without copying it.
//! 3. Each `MR x NR` accumulator tile covers `MR` output columns × `NR`
//!    output rows, i.e. it is `C`'s tile transposed; the AVX2 kernel
//!    loads and stores it with an in-register 4×8 transpose.
//!
//! Each kernel call streams `MR` weight-row segments from separate pages,
//! so this path uses a longer k-block ([`KC_BT`]) and keeps the lane pack
//! buffer at the same 128 KiB cap by narrowing the lane block
//! ([`NC_BT`]). On AVX2 every full 8-row lane panel is packed 8 k-steps at
//! a time through an in-register 8×8 transpose; the scalar [`pack_b`]
//! packs partial panels, k tails, and everything on the portable tier.
//!
//! **Weight-stationary `C = A × Bᵀ` for fewer than [`NR`] rows of `A`**
//! (same entry point, AVX2 only): with `m < NR` activation rows a lane
//! panel would leave most of its lanes empty — ResNet-18's 2×2 `conv5_x`
//! maps have 4 rows and every `Linear` layer has 1. The operands swap
//! roles again:
//!
//! 1. The lanes hold [`NR`] **weight rows** (output channels). Each group
//!    of 8 k-steps is loaded from the 8 rows **in place** and turned into
//!    8 per-k vectors by the same 8×8 register transpose the lane pack
//!    uses; a k tail is a masked load.
//! 2. Each `A` row keeps one 8-channel accumulator (up to 7), and each of
//!    its elements is broadcast against the per-k weight vector.
//! 3. An accumulator is 8 consecutive columns of one `C` row, so it is
//!    stored directly. Missing weight rows in the last channel panel
//!    alias row 0 and their lanes are masked off on store.
//!
//! Nothing is packed and no scratch is touched. The whole `k` range runs
//! in one pass, so there is no k-blocking.
//!
//! # Summation order (bit-compatibility)
//!
//! Every output element accumulates its `k` products in **strictly
//! ascending, left-associated order**, exactly like the naive triple loop
//! `for kk { c[i][j] += a[i][kk] * b[kk][j] }`, on every pipeline: the
//! accumulator tile is *loaded from `C`* at the start of each `k` block
//! and stored back after it, so blocking over `k` never re-associates the
//! sum, and products and sums are rounded separately (no FMA). Results
//! are therefore bit-identical to a naive reference (and to the
//! pre-packing scalar kernel) up to `-0.0` vs `+0.0` — the old kernel
//! skipped `a == 0.0` terms entirely, while these add the exact `0.0`
//! product, which can turn `-0.0` into `+0.0` (equal under `==`).
//!
//! The weight-stationary path keeps the same per-element sum: each lane
//! of an accumulator is one `C[i][j]`, which starts at `+0.0` and adds
//! `w[j][kk] * a[i][kk]` for `kk = 0, 1, …, k-1` in turn. The register
//! transpose only moves values, never combines them, and the product
//! keeps the weight as the first operand, as the lane kernel does.
//! Without k-blocking the sum is never stored and reloaded, but that
//! round trip is exact, so the bits match the lane path and the naive
//! loop (including `+0.0` for a sum of `-0.0` products).
//!
//! Packing is staged through a [`GemmScratch`], which callers own (the
//! executors keep one inside their workspace) so steady-state GEMM calls
//! allocate nothing.

/// Microkernel tile height: rows of `A` per panel on the row-major path,
/// weight rows broadcast per tile on the transposed path.
pub const MR: usize = 4;
/// Microkernel tile width: the vector lanes of the tile — columns of `B`
/// on the row-major path, rows of `A` on the transposed path. One AVX2
/// (two SSE) vector of `f32`; with [`MR`]` = 4` the accumulator tile
/// occupies 4 of the 16 x86-64 vector registers, leaving room for the
/// lane vector and the broadcast values.
pub const NR: usize = 8;
/// `k`-dimension block of the row-major path: one packed `A` panel
/// (`MR x KC`) is 4 KiB.
pub const KC: usize = 256;
/// Rows of `A` packed per block on the row-major path (`MC x KC` = 64 KiB,
/// L2-resident).
pub const MC: usize = 64;
/// Columns of `B` packed per block on the row-major path (`KC x NC` =
/// 128 KiB).
pub const NC: usize = 128;
/// `k`-dimension block of the transposed path. Each tile reads `MR`
/// weight-row segments in place, so a longer block amortizes the start of
/// those streams; on ResNet-18 a 1024 block ran the dense network about a
/// third faster than 256.
pub(crate) const KC_BT: usize = 1024;
/// Rows of `A` packed per block on the transposed path (`NC_BT x KC_BT` =
/// 128 KiB, the same cap as the row-major path's `B` block).
pub(crate) const NC_BT: usize = 32;

/// Reusable packing buffers for the GEMM pipelines.
///
/// Buffers only ever grow, so a scratch driven over a stable set of
/// shapes reaches a zero-allocation steady state after the first call.
#[derive(Debug, Default)]
pub struct GemmScratch {
    /// `MR`-row panels of `A` (row-major path only).
    a_pack: Vec<f32>,
    /// `NR`-lane panels: `B` columns on the row-major path, `A` rows on
    /// the transposed path.
    b_pack: Vec<f32>,
    /// `u8` activation panels for the quantized pipeline
    /// ([`crate::qgemm`]), same `MR`-row k-major layout as `a_pack`.
    pub(crate) a_pack_q: Vec<u8>,
    /// `i8` weight panels for the quantized pipeline, same `NR`-column
    /// k-major layout as `b_pack`.
    pub(crate) b_pack_q: Vec<i8>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }

    /// Grows a buffer to `len` without ever shrinking it.
    pub(crate) fn ensure<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
        if buf.len() < len {
            buf.resize(len, T::default());
        }
    }
}

/// How a lane-packed operand is laid out in memory.
#[derive(Debug, Clone, Copy)]
enum BLayout<'a> {
    /// `b[kk * n + j]` — a row-major `k x n` matrix (`B` of the row-major
    /// path).
    RowMajor(&'a [f32]),
    /// `b[j * k + kk]` — a row-major `n x k` matrix read as its transpose
    /// (`A` of the transposed path, whose rows become lanes).
    Transposed(&'a [f32]),
}

impl BLayout<'_> {
    #[inline]
    fn get(&self, kk: usize, j: usize, k: usize, n: usize) -> f32 {
        match self {
            BLayout::RowMajor(b) => b[kk * n + j],
            BLayout::Transposed(b) => {
                let _ = n;
                b[j * k + kk]
            }
        }
    }
}

/// Packs rows `i0..i0+mc` of `A` (`m x k` row-major), k-columns
/// `p0..p0+kc`, into `MR`-row panels (k-major inside each panel).
fn pack_a(a: &[f32], k: usize, i0: usize, mc: usize, p0: usize, kc: usize, ap: &mut [f32]) {
    let panels = mc.div_ceil(MR);
    for panel in 0..panels {
        let r0 = panel * MR;
        let rows = MR.min(mc - r0);
        let dst = &mut ap[panel * MR * kc..(panel + 1) * MR * kc];
        for kk in 0..kc {
            let col = &mut dst[kk * MR..kk * MR + MR];
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < rows {
                    a[(i0 + r0 + r) * k + p0 + kk]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs k-rows `p0..p0+kc`, columns `j0..j0+nc` of `B` into `NR`-column
/// panels (k-major inside each panel).
#[allow(clippy::too_many_arguments)] // five block offsets + two dims + dst
fn pack_b(
    b: BLayout<'_>,
    k: usize,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    bp: &mut [f32],
) {
    let panels = nc.div_ceil(NR);
    for panel in 0..panels {
        let c0 = panel * NR;
        let cols = NR.min(nc - c0);
        let dst = &mut bp[panel * NR * kc..(panel + 1) * NR * kc];
        for kk in 0..kc {
            let row = &mut dst[kk * NR..kk * NR + NR];
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = if c < cols {
                    b.get(p0 + kk, j0 + c0 + c, k, n)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Multiplies one packed `MR x NR` tile over `kc` k-steps, accumulating
/// into the `rows x cols` top-left corner of the `C` tile at `c` (row
/// stride `ldc`). The accumulator tile is loaded from `C` first, so
/// calling this once per `k` block preserves the strictly ascending
/// summation order.
#[inline]
fn microkernel(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if rows == MR && cols == NR && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 was just detected, the packers guarantee
        // `kc * MR` / `kc * NR` packed elements, and a full tile means
        // all `MR` rows of `NR` columns are in bounds of `c`.
        unsafe { microkernel_avx2(ap, bp, kc, c, ldc) };
        return;
    }
    microkernel_generic(ap, bp, kc, c, ldc, rows, cols);
}

/// Portable tile kernel — also the edge-tile path (`rows < MR` or
/// `cols < NR`) on x86-64.
#[inline]
fn microkernel_generic(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..rows {
        acc[r][..cols].copy_from_slice(&c[r * ldc..r * ldc + cols]);
    }
    // Padded A rows / B columns are zeroed by the packers, so the spare
    // accumulator lanes stay exactly 0.0 and are simply never stored.
    for (ac, bc) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = ac[r];
            for (j, slot) in acc_row.iter_mut().enumerate() {
                *slot += av * bc[j];
            }
        }
    }
    for r in 0..rows {
        c[r * ldc..r * ldc + cols].copy_from_slice(&acc[r][..cols]);
    }
}

/// Full-tile AVX2 kernel: one 8-lane `ymm` accumulator per `A` row.
///
/// Uses separate `vmulps` + `vaddps` — **never FMA** — so every product
/// is rounded before it is added, exactly as in the scalar expression
/// `acc += a * b`. Combined with the ascending-`k` packed layout this
/// keeps the result bit-identical to [`microkernel_generic`] and to the
/// naive triple loop.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `ap.len() >= kc * MR`,
/// `bp.len() >= kc * NR`, and `c[(MR-1)*ldc + NR - 1]` is in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let cp = c.as_mut_ptr();
    let mut acc0 = _mm256_loadu_ps(cp);
    let mut acc1 = _mm256_loadu_ps(cp.add(ldc));
    let mut acc2 = _mm256_loadu_ps(cp.add(2 * ldc));
    let mut acc3 = _mm256_loadu_ps(cp.add(3 * ldc));
    let mut a = ap.as_ptr();
    let mut b = bp.as_ptr();
    for _ in 0..kc {
        let bv = _mm256_loadu_ps(b);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&*a), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(1)), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(2)), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&*a.add(3)), bv));
        a = a.add(MR);
        b = b.add(NR);
    }
    _mm256_storeu_ps(cp, acc0);
    _mm256_storeu_ps(cp.add(ldc), acc1);
    _mm256_storeu_ps(cp.add(2 * ldc), acc2);
    _mm256_storeu_ps(cp.add(3 * ldc), acc3);
}

/// Packed GEMM over raw slices: `C += A × B` for rows `0..m` of `A`/`C`,
/// with `B` a row-major `k x n` matrix.
///
/// `c` must be pre-zeroed by the caller when a plain product (not an
/// accumulation) is wanted; [`crate::gemm_f32_into`] does exactly that.
pub(crate) fn gemm_packed(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Zero-length inner dimension: nothing accumulates.
        return;
    }
    let kc_max = k.min(KC);
    let nc_max = n.min(NC);
    GemmScratch::ensure(&mut scratch.a_pack, MC.min(m).div_ceil(MR) * MR * kc_max);
    GemmScratch::ensure(&mut scratch.b_pack, nc_max.div_ceil(NR) * NR * kc_max);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            {
                let _pack = greuse_telemetry::span!("gemm.pack");
                pack_b(
                    BLayout::RowMajor(b),
                    k,
                    n,
                    pc,
                    kc,
                    jc,
                    nc,
                    &mut scratch.b_pack,
                );
            }
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                {
                    let _pack = greuse_telemetry::span!("gemm.pack");
                    pack_a(a, k, ic, mc, pc, kc, &mut scratch.a_pack);
                }
                let _kernel = greuse_telemetry::span!("gemm.kernel");
                let a_panels = mc.div_ceil(MR);
                let b_panels = nc.div_ceil(NR);
                for jr in 0..b_panels {
                    let j0 = jr * NR;
                    let cols = NR.min(nc - j0);
                    let bp = &scratch.b_pack[jr * NR * kc..(jr + 1) * NR * kc];
                    for ir in 0..a_panels {
                        let i0 = ir * MR;
                        let rows = MR.min(mc - i0);
                        let ap = &scratch.a_pack[ir * MR * kc..(ir + 1) * MR * kc];
                        let base = (ic + i0) * n + jc + j0;
                        microkernel(ap, bp, kc, &mut c[base..], n, rows, cols);
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Packed transposed-B GEMM over raw slices: `C = A × Bᵀ` with `A` a
/// row-major `m x k` matrix, `C` row-major `m x n`, and `Bᵀ` given as `n`
/// rows of `k` elements whose starts are `ldb` apart (`bt[j·ldb + kk]`,
/// `ldb >= k`).
///
/// Only `A` is packed (into `NR`-lane panels); the rows of `bt` are read
/// in place by [`microkernel_bt`]. With fewer than `NR` rows of `A` on
/// AVX2, nothing is packed: [`gemm_ws_avx2`] puts weight rows in the
/// lanes instead.
///
/// `c` is overwritten and need not be zeroed: the first `k` block starts
/// every tile at `0.0` (exactly what a pre-zeroed `C` would hold) and
/// later blocks load it from `C`, so the summation order is that of the
/// naive loop.
#[allow(clippy::too_many_arguments)] // three operands + stride + three dims + scratch
pub(crate) fn gemm_packed_bt(
    a: &[f32],
    bt: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Zero-length inner dimension: every sum is empty.
        c[..m * n].fill(0.0);
        return;
    }
    // The kernels below read and write through raw pointers within these
    // bounds.
    assert!(ldb >= k && bt.len() >= (n - 1) * ldb + k);
    assert!(a.len() >= m * k && c.len() >= m * n);
    #[cfg(target_arch = "x86_64")]
    if m < NR && std::arch::is_x86_feature_detected!("avx2") {
        let _kernel = greuse_telemetry::span!("gemm.kernel");
        // SAFETY: AVX2 was just detected, `1 <= m < NR`, `k, n >= 1`, and
        // the operand lengths are asserted above.
        unsafe { gemm_ws_avx2(a, bt, ldb, c, m, k, n) };
        return;
    }
    let kc_max = k.min(KC_BT);
    GemmScratch::ensure(&mut scratch.b_pack, m.min(NC_BT).div_ceil(NR) * NR * kc_max);

    let mut ic = 0;
    while ic < m {
        let mc = NC_BT.min(m - ic);
        let lane_panels = mc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC_BT.min(k - pc);
            {
                let _pack = greuse_telemetry::span!("gemm.pack");
                pack_lanes(a, k, m, pc, kc, ic, mc, &mut scratch.b_pack);
            }
            let _kernel = greuse_telemetry::span!("gemm.kernel");
            // Weight rows outermost: each MR-row segment is fetched once per
            // block and stays L1-resident across the block's lane panels.
            let mut jr = 0;
            while jr < n {
                let rows = MR.min(n - jr);
                let w = &bt[jr * ldb + pc..];
                for lp in 0..lane_panels {
                    let l0 = lp * NR;
                    let cols = NR.min(mc - l0);
                    let ap = &scratch.b_pack[lp * NR * kc..(lp + 1) * NR * kc];
                    let base = (ic + l0) * n + jr;
                    let c_tile = &mut c[base..];
                    microkernel_bt(w, ldb, ap, kc, pc > 0, c_tile, n, rows, cols);
                }
                jr += MR;
            }
            pc += kc;
        }
        ic += mc;
    }
}

/// Packs rows `i0..i0+mc` of `A` (`m x k` row-major), k-columns
/// `p0..p0+kc`, into `NR`-lane panels — the layout [`pack_b`] gives
/// `BLayout::Transposed(a)`. On AVX2 the full 8-row panels go through
/// [`pack_lanes_avx2`]; a partial last panel, and every panel on the
/// portable tier, go through the scalar [`pack_b`].
#[allow(clippy::too_many_arguments)] // operand + two dims + two block offsets + dst
fn pack_lanes(
    a: &[f32],
    k: usize,
    m: usize,
    p0: usize,
    kc: usize,
    i0: usize,
    mc: usize,
    bp: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    let vec_rows = if std::arch::is_x86_feature_detected!("avx2") {
        let full = mc - mc % NR;
        assert!(a.len() >= (i0 + mc) * k && p0 + kc <= k);
        // SAFETY: AVX2 was just detected and `full % NR == 0`; rows
        // `i0..i0 + full` of `A` and k-columns `p0..p0 + kc` are in bounds
        // (asserted above); `pack_lanes_avx2` slices `bp` to `full * kc`
        // with a bounds check.
        unsafe { pack_lanes_avx2(a, k, p0, kc, i0, full, bp) };
        full
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let vec_rows = 0;
    if vec_rows < mc {
        let rest = &mut bp[vec_rows * kc..];
        let rows = mc - vec_rows;
        pack_b(
            BLayout::Transposed(a),
            k,
            m,
            p0,
            kc,
            i0 + vec_rows,
            rows,
            rest,
        );
    }
}

/// AVX2 lane pack of `rows` (a multiple of `NR`) full rows of `A` starting
/// at row `i0`: each 8-row × 8-k block is loaded row by row and stored
/// k by k through [`transpose8x8`]; a `kc % 8` tail is copied element by
/// element. Fills exactly what [`pack_b`] fills for those panels.
///
/// # Safety
///
/// AVX2 must be available, `rows % NR == 0`,
/// `a.len() >= (i0 + rows) * k`, `p0 + kc <= k`, and
/// `bp.len() >= rows * kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_lanes_avx2(
    a: &[f32],
    k: usize,
    p0: usize,
    kc: usize,
    i0: usize,
    rows: usize,
    bp: &mut [f32],
) {
    use std::arch::x86_64::*;
    let k8 = kc - kc % 8;
    for (panel, dst) in bp[..rows * kc].chunks_exact_mut(NR * kc).enumerate() {
        let src = &a[(i0 + panel * NR) * k + p0..];
        let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
        for kk in (0..k8).step_by(8) {
            let mut v = [_mm256_setzero_ps(); NR];
            for (l, vl) in v.iter_mut().enumerate() {
                *vl = _mm256_loadu_ps(s.add(l * k + kk));
            }
            for (step, &t) in transpose8x8(v).iter().enumerate() {
                _mm256_storeu_ps(d.add((kk + step) * NR), t);
            }
        }
        for kk in k8..kc {
            for l in 0..NR {
                dst[kk * NR + l] = src[l * k + kk];
            }
        }
    }
}

/// Multiplies `rows` in-place weight rows (`w[r·ldb + kk]`) by one packed
/// `NR`-lane panel over `kc` k-steps, accumulating into the `C` tile at
/// `c` (row stride `ldc`): lane `l` of weight row `r` lands in
/// `c[l·ldc + r]`, for `r < rows`, `l < cols`. With `load` the tile is
/// loaded from `C` first (otherwise it starts at `0.0`), so calling this
/// once per `k` block preserves the strictly ascending summation order.
#[allow(clippy::too_many_arguments)] // two operands + strides + tile extent
#[inline]
fn microkernel_bt(
    w: &[f32],
    ldb: usize,
    ap: &[f32],
    kc: usize,
    load: bool,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert!((1..=MR).contains(&rows) && (1..=NR).contains(&cols));
    debug_assert!(w.len() >= (rows - 1) * ldb + kc && ap.len() >= kc * NR);
    debug_assert!(c.len() >= (cols - 1) * ldc + rows);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 was just detected, and the asserted bounds are
        // guaranteed by `gemm_packed_bt`'s blocking.
        unsafe { microkernel_bt_avx2(w, ldb, ap, kc, load, c, ldc, rows, cols) };
        return;
    }
    microkernel_bt_generic(w, ldb, ap, kc, load, c, ldc, rows, cols);
}

/// Portable transposed-tile kernel (non-x86-64 hosts and hosts without
/// AVX2).
#[allow(clippy::too_many_arguments)] // two operands + strides + tile extent
#[inline]
fn microkernel_bt_generic(
    w: &[f32],
    ldb: usize,
    ap: &[f32],
    kc: usize,
    load: bool,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if load {
        for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
            for (l, slot) in acc_row.iter_mut().enumerate().take(cols) {
                *slot = c[l * ldc + r];
            }
        }
    }
    // Padded lanes are zeroed by the packer, so they stay exactly 0.0 and
    // are simply never stored.
    for (kk, lanes) in ap.chunks_exact(NR).take(kc).enumerate() {
        for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
            let wv = w[r * ldb + kk];
            for (slot, &av) in acc_row.iter_mut().zip(lanes) {
                *slot += wv * av;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        for (l, &v) in acc_row.iter().enumerate().take(cols) {
            c[l * ldc + r] = v;
        }
    }
}

/// In-lane 4×4 transpose of four 8-lane vectors: with `y[i]` holding
/// `[p_i | q_i]` (two rows of four), the result holds
/// `[p_0[j] p_1[j] p_2[j] p_3[j] | q_0[j] q_1[j] q_2[j] q_3[j]]` in slot
/// `j`. It is its own inverse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose4_in_lanes(y: [std::arch::x86_64::__m256; 4]) -> [std::arch::x86_64::__m256; 4] {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(y[0], y[1]);
    let t1 = _mm256_unpackhi_ps(y[0], y[1]);
    let t2 = _mm256_unpacklo_ps(y[2], y[3]);
    let t3 = _mm256_unpackhi_ps(y[2], y[3]);
    [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ]
}

/// 8×8 register transpose: with `v[r]` holding row `r` of an 8×8 block,
/// slot `s` of the result holds column `s` (`[v[0][s], …, v[7][s]]`). Two
/// [`transpose4_in_lanes`] passes transpose the four 4×4 quadrants in
/// place, and a 128-bit lane exchange swaps the off-diagonal ones. Only
/// moves values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8x8(v: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let lo = transpose4_in_lanes([v[0], v[1], v[2], v[3]]);
    let hi = transpose4_in_lanes([v[4], v[5], v[6], v[7]]);
    [
        _mm256_permute2f128_ps::<0x20>(lo[0], hi[0]),
        _mm256_permute2f128_ps::<0x20>(lo[1], hi[1]),
        _mm256_permute2f128_ps::<0x20>(lo[2], hi[2]),
        _mm256_permute2f128_ps::<0x20>(lo[3], hi[3]),
        _mm256_permute2f128_ps::<0x31>(lo[0], hi[0]),
        _mm256_permute2f128_ps::<0x31>(lo[1], hi[1]),
        _mm256_permute2f128_ps::<0x31>(lo[2], hi[2]),
        _mm256_permute2f128_ps::<0x31>(lo[3], hi[3]),
    ]
}

/// Weight-stationary AVX2 GEMM for `m < NR` activation rows: `C = A × Bᵀ`
/// over the full `k` with nothing packed (see the module docs). Dispatches
/// to [`gemm_ws_rows`] with the row count as a constant, so the
/// accumulators live in registers.
///
/// # Safety
///
/// AVX2 must be available, `1 <= m < NR`, `a.len() >= m * k`,
/// `c.len() >= m * n`, `k >= 1`, `n >= 1`, and
/// `bt.len() >= (n - 1) * ldb + k`.
#[allow(clippy::too_many_arguments)] // three operands + stride + three dims
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_ws_avx2(
    a: &[f32],
    bt: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match m {
        1 => gemm_ws_rows::<1>(a, bt, ldb, c, k, n),
        2 => gemm_ws_rows::<2>(a, bt, ldb, c, k, n),
        3 => gemm_ws_rows::<3>(a, bt, ldb, c, k, n),
        4 => gemm_ws_rows::<4>(a, bt, ldb, c, k, n),
        5 => gemm_ws_rows::<5>(a, bt, ldb, c, k, n),
        6 => gemm_ws_rows::<6>(a, bt, ldb, c, k, n),
        7 => gemm_ws_rows::<7>(a, bt, ldb, c, k, n),
        _ => unreachable!("the weight-stationary path takes 1..NR rows, got {m}"),
    }
}

/// [`gemm_ws_avx2`] for `M` activation rows: one 8-channel accumulator per
/// row, per panel of [`NR`] weight rows. Multiply and add stay separate
/// (no FMA) and the weight is the first multiply operand, as in
/// [`microkernel_bt_avx2`], so each lane's sum is the naive loop's.
///
/// # Safety
///
/// As [`gemm_ws_avx2`], with `m = M`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_ws_rows<const M: usize>(
    a: &[f32],
    bt: &[f32],
    ldb: usize,
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let k8 = k - k % 8;
    // Lane s of the tail mask is set for the k-steps left after `k8`.
    let k_mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((k - k8) as i32), lane);
    let (ap, cp) = (a.as_ptr(), c.as_mut_ptr());
    for j0 in (0..n).step_by(NR) {
        let rows = NR.min(n - j0);
        // Missing weight rows alias row 0; their lanes are never stored.
        let mut w = [bt.as_ptr().add(j0 * ldb); NR];
        for (r, wr) in w.iter_mut().enumerate().take(rows).skip(1) {
            *wr = wr.add(r * ldb);
        }
        let mut acc = [_mm256_setzero_ps(); M];
        for kk in (0..k8).step_by(8) {
            let mut v = [_mm256_setzero_ps(); NR];
            for (vr, wr) in v.iter_mut().zip(&w) {
                *vr = _mm256_loadu_ps(wr.add(kk));
            }
            ws_steps(&mut acc, &transpose8x8(v), ap, k, kk, NR);
        }
        if k8 < k {
            let mut v = [_mm256_setzero_ps(); NR];
            for (vr, wr) in v.iter_mut().zip(&w) {
                *vr = _mm256_maskload_ps(wr.add(k8), k_mask);
            }
            ws_steps(&mut acc, &transpose8x8(v), ap, k, k8, k - k8);
        }
        let c_mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(rows as i32), lane);
        for (i, &v) in acc.iter().enumerate() {
            let dst = cp.add(i * n + j0);
            if rows == NR {
                _mm256_storeu_ps(dst, v);
            } else {
                _mm256_maskstore_ps(dst, c_mask, v);
            }
        }
    }
}

/// Adds k-steps `kk..kk + steps` to the weight-stationary accumulators:
/// `acc[i] += wt[s] * a[i][kk + s]` for each step `s` in order, with
/// `wt[s]` the 8 channels' weights at k-step `kk + s`.
///
/// # Safety
///
/// AVX2 must be available, `steps <= NR`, and `a[i * lda + kk + s]` in
/// bounds for `i < M`, `s < steps`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn ws_steps<const M: usize>(
    acc: &mut [std::arch::x86_64::__m256; M],
    wt: &[std::arch::x86_64::__m256; NR],
    a: *const f32,
    lda: usize,
    kk: usize,
    steps: usize,
) {
    use std::arch::x86_64::*;
    for (s, &wv) in wt.iter().enumerate().take(steps) {
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let av = _mm256_broadcast_ss(&*a.add(i * lda + kk + s));
            *acc_i = _mm256_add_ps(*acc_i, _mm256_mul_ps(wv, av));
        }
    }
}

/// AVX2 transposed-tile kernel: one 8-lane `ymm` accumulator per weight
/// row, each lane one row of `A`.
///
/// The `C` tile (`NR` rows of `MR` columns) is brought into the
/// accumulators (when `load`; otherwise they start at zero) by loading
/// its rows `l` and `l + 4` into the halves of one register and
/// transposing the four registers in lanes, and goes back out the same
/// way — no scratch tile. Missing weight rows (`rows < MR`) alias row 0
/// and their `C` columns are masked off, so those accumulators are
/// computed but never stored; missing lanes (`cols < NR`) start at zero
/// and are skipped on store.
///
/// Uses separate `vmulps` + `vaddps` — **never FMA** — so every product
/// is rounded before it is added, exactly as in the scalar expression
/// `acc += w * a`; the result is bit-identical to
/// [`microkernel_bt_generic`] and to the naive triple loop.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `1 <= rows <= MR`,
/// `1 <= cols <= NR`, `w.len() >= (rows - 1) * ldb + kc`,
/// `ap.len() >= kc * NR`, and `c.len() >= (cols - 1) * ldc + rows`.
#[allow(clippy::too_many_arguments)] // two operands + strides + tile extent
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_bt_avx2(
    w: &[f32],
    ldb: usize,
    ap: &[f32],
    kc: usize,
    load: bool,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    let cp = c.as_mut_ptr();
    // Lane r of the mask is set for the C columns this tile owns.
    let mask = _mm_cmpgt_epi32(_mm_set1_epi32(rows as i32), _mm_setr_epi32(0, 1, 2, 3));
    let mut y = [_mm256_setzero_ps(); MR];
    if load {
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = load_tile_row(cp, i, ldc, rows, cols, mask);
            let hi = load_tile_row(cp, i + 4, ldc, rows, cols, mask);
            *yi = _mm256_set_m128(hi, lo);
        }
        y = transpose4_in_lanes(y);
    }
    let [mut acc0, mut acc1, mut acc2, mut acc3] = y;

    let w0 = w.as_ptr();
    let row = |r: usize| if r < rows { w0.add(r * ldb) } else { w0 };
    let (w0, w1, w2, w3) = (row(0), row(1), row(2), row(3));
    let a = ap.as_ptr();
    for kk in 0..kc {
        let av = _mm256_loadu_ps(a.add(kk * NR));
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&*w0.add(kk)), av));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&*w1.add(kk)), av));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&*w2.add(kk)), av));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&*w3.add(kk)), av));
    }

    let out = transpose4_in_lanes([acc0, acc1, acc2, acc3]);
    for (i, &o) in out.iter().enumerate() {
        store_tile_row(cp, i, ldc, rows, cols, mask, _mm256_castps256_ps128(o));
        store_tile_row(
            cp,
            i + 4,
            ldc,
            rows,
            cols,
            mask,
            _mm256_extractf128_ps::<1>(o),
        );
    }
}

/// Loads the `rows` owned columns of `C` tile row `l` (zero when the
/// tile has no row `l`), for [`microkernel_bt_avx2`].
///
/// # Safety
///
/// AVX2 must be available and, for `l < cols`, `c[l·ldc..l·ldc + rows]`
/// in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_tile_row(
    c: *const f32,
    l: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    mask: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    if l >= cols {
        _mm_setzero_ps()
    } else if rows == MR {
        _mm_loadu_ps(c.add(l * ldc))
    } else {
        _mm_maskload_ps(c.add(l * ldc), mask)
    }
}

/// Stores the `rows` owned columns of `C` tile row `l` (nothing when the
/// tile has no row `l`), for [`microkernel_bt_avx2`].
///
/// # Safety
///
/// Same as [`load_tile_row`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_tile_row(
    c: *mut f32,
    l: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
    mask: std::arch::x86_64::__m128i,
    v: std::arch::x86_64::__m128,
) {
    use std::arch::x86_64::*;
    if l >= cols {
        return;
    }
    if rows == MR {
        _mm_storeu_ps(c.add(l * ldc), v);
    } else {
        _mm_maskstore_ps(c.add(l * ldc), mask, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn packed_matches_naive_bitwise_across_block_edges() {
        let mut scratch = GemmScratch::new();
        // Shapes straddling MR/NR/KC/MC/NC boundaries, plus degenerate 1s.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 9),
            (MR, KC + 3, NR),
            (MC + 2, 17, NC + 5),
            (96, 48, 16),
        ] {
            let a = fill(m * k, (m * 31 + k) as u64);
            let b = fill(k * n, (k * 17 + n) as u64);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            gemm_packed(&a, &b, &mut c, m, k, n, &mut scratch);
            assert_eq!(c, want, "{m}x{k}x{n}");
        }
    }

    /// `bt` (`n` rows of `k` at stride `ldb`) as a row-major `k x n` `B`.
    fn untranspose(bt: &[f32], ldb: usize, k: usize, n: usize) -> Vec<f32> {
        (0..k * n).map(|i| bt[(i % n) * ldb + i / n]).collect()
    }

    #[test]
    fn transposed_b_matches_rowmajor() {
        let (m, k, n) = (13, 21, 11);
        let a = fill(m * k, 1);
        let bt = fill(n * k, 2); // n x k, read as its transpose (k x n)
        let b = untranspose(&bt, k, k, n);
        let mut scratch = GemmScratch::new();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm_packed(&a, &b, &mut c1, m, k, n, &mut scratch);
        gemm_packed_bt(&a, &bt, k, &mut c2, m, k, n, &mut scratch);
        assert_eq!(c1, c2);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transposed_path_matches_naive_bitwise_across_block_edges() {
        let mut scratch = GemmScratch::new();
        // Partial weight-row tiles (n % MR, n % NR), partial lane panels
        // (m % NR), k across KC_BT and off multiples of 8, m across NC_BT,
        // strided weight rows, and every activation row count below NR
        // (the weight-stationary path on AVX2).
        let mut shapes = vec![
            (1usize, 1usize, 1usize, 0usize),
            (3, 5, 7, 0),
            (NR, 8, MR, 0),
            (NR + 1, 9, MR + 3, 2),
            (4, KC_BT + 3, 10, 0),
            (NC_BT + 5, 17, 6, 5),
            (2 * NC_BT, 2 * KC_BT + 1, MR + 1, 1),
            (1, 300, 9, 0),
            (2 * NR, 2 * NR + 3, NR + 1, 3),
        ];
        for m in 1..NR {
            shapes.extend([
                (m, 8, NR, 0),
                (m, 13, 2 * NR + 3, 4),
                (m, KC_BT + 5, NR - 1, 1),
                (m, 64, 2 * NR, 0),
            ]);
        }
        for (m, k, n, pad) in shapes {
            let ldb = k + pad;
            let a = fill(m * k, (m * 31 + k) as u64);
            let bt = fill((n - 1) * ldb + k, (k * 17 + n) as u64);
            let want = naive(&a, &untranspose(&bt, ldb, k, n), m, k, n);
            let mut c = vec![f32::NAN; m * n];
            gemm_packed_bt(&a, &bt, ldb, &mut c, m, k, n, &mut scratch);
            assert_eq!(bits(&c), bits(&want), "{m}x{k}x{n} ldb {ldb}");
            let mut g = vec![0.0f32; m * n];
            gemm_via_generic_kernel(&a, &bt, ldb, &mut g, m, k, n);
            assert_eq!(bits(&g), bits(&want), "generic {m}x{k}x{n} ldb {ldb}");
        }
    }

    /// With fewer than `NR` activation rows the AVX2 tier takes the
    /// weight-stationary path (the test above pins its bits on random
    /// operands). A sum whose products are all `-0.0` must read `+0.0`
    /// there too, as on the portable kernel: every sum starts at `+0.0`.
    #[test]
    fn weight_stationary_sums_of_negative_zero_products_are_positive_zero() {
        let mut scratch = GemmScratch::new();
        for m in 1..NR {
            for &(k, n, pad) in &[
                (1usize, 1usize, 0usize),
                (7, 9, 1),
                (24, 16, 0),
                (37, 21, 3),
            ] {
                let ldb = k + pad;
                let w = fill((n - 1) * ldb + k, (n * 13 + k) as u64);
                // +0.0 against negative weights, and -0.0 against positive.
                let neg: Vec<f32> = w.iter().map(|v| -v.abs() - 1.0).collect();
                let pos: Vec<f32> = w.iter().map(|v| v.abs() + 1.0).collect();
                for (a, bt) in [(0.0f32, &neg), (-0.0, &pos)] {
                    let a = vec![a; m * k];
                    let mut c = vec![f32::NAN; m * n];
                    gemm_packed_bt(&a, bt, ldb, &mut c, m, k, n, &mut scratch);
                    assert!(c.iter().all(|v| v.to_bits() == 0), "{m}x{k}x{n}: {c:?}");
                    let mut g = vec![f32::NAN; m * n];
                    gemm_via_generic_kernel(&a, bt, ldb, &mut g, m, k, n);
                    assert_eq!(bits(&c), bits(&g), "{m}x{k}x{n} ldb {ldb}");
                }
            }
        }
    }

    #[test]
    fn lane_pack_matches_scalar_pack_b() {
        // Full panels, a partial last panel (rows % NR), kc tails
        // (kc % 8) and an interior k block (p0 > 0).
        for &(m, k, p0, kc, i0, mc) in &[
            (NR, 8usize, 0usize, 8usize, 0usize, NR),
            (3 * NR + 5, 29, 3, 21, 2, 2 * NR + 3),
            (NR - 1, 13, 0, 13, 0, NR - 1),
            (2 * NR, 40, 16, 19, NR, NR),
            (NR + 2, 5, 1, 4, 0, NR + 2),
        ] {
            let a = fill(m * k, (m + k) as u64);
            let len = mc.div_ceil(NR) * NR * kc;
            let mut want = vec![f32::NAN; len];
            pack_b(BLayout::Transposed(&a), k, m, p0, kc, i0, mc, &mut want);
            let mut got = vec![f32::NAN; len];
            pack_lanes(&a, k, m, p0, kc, i0, mc, &mut got);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{m}x{k} rows {i0}+{mc} k {p0}+{kc}"
            );
        }
    }

    /// Drives [`microkernel_bt_generic`] over the same blocking as
    /// [`gemm_packed_bt`], so the portable kernel is checked on hosts
    /// where the AVX2 one is dispatched.
    fn gemm_via_generic_kernel(
        a: &[f32],
        bt: &[f32],
        ldb: usize,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut lanes = vec![0.0f32; m.div_ceil(NR) * NR * k];
        pack_b(BLayout::Transposed(a), k, m, 0, k, 0, m, &mut lanes);
        for jr in (0..n).step_by(MR) {
            for lp in 0..m.div_ceil(NR) {
                let ap = &lanes[lp * NR * k..(lp + 1) * NR * k];
                let (rows, cols) = (MR.min(n - jr), NR.min(m - lp * NR));
                let base = lp * NR * n + jr;
                microkernel_bt_generic(
                    &bt[jr * ldb..],
                    ldb,
                    ap,
                    k,
                    false,
                    &mut c[base..],
                    n,
                    rows,
                    cols,
                );
            }
        }
    }

    #[test]
    fn all_zero_operands_give_zero() {
        let mut scratch = GemmScratch::new();
        let a = vec![0.0f32; 6 * 10];
        let b = vec![0.0f32; 10 * 9];
        let mut c = vec![0.0f32; 6 * 9];
        gemm_packed(&a, &b, &mut c, 6, 10, 9, &mut scratch);
        assert!(c.iter().all(|v| *v == 0.0));
    }
}
