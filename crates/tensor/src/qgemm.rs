//! Packed u8×i8 GEMM with `i32` accumulators — the integer core of the
//! quantized pipeline.
//!
//! Operands follow the CMSIS-NN / gemmlowp convention: activations are
//! asymmetric `u8` (`real = s_a · (q - zp_a)`), weights are symmetric
//! `i8` (`real = s_w · q`, zero point 0). The kernel computes the **raw**
//! product `C[i][j] = Σ_kk a[i][kk] · w[j][kk]` over the stored `u8`/`i8`
//! codes; the activation zero point is folded out afterwards with the
//! row-sum identity
//!
//! ```text
//! Σ (a - zp_a) · w  =  Σ a·w  -  zp_a · Σ w
//! ```
//!
//! (see [`weight_row_sums_into`] / [`apply_zero_point`]), so the inner
//! loop carries no subtraction. Accumulation is exact: `|a·w| ≤ 255·128`
//! and the `i32` accumulator holds `k ≤ 65 000` such products without
//! overflow — far beyond any layer in the paper's models.
//!
//! The pipeline packs both operands: `A` into [`MR`]-row panels and the
//! weights into [`NR`]-column panels, staged in [`GemmScratch`]
//! (`a_pack_q` / `b_pack_q`) and blocked `NC → KC → MC` (outer to inner).
//! Integer addition is associative, so no summation-order discipline is
//! needed for reproducibility: results are bit-identical to the naive
//! triple loop [`gemm_q8_ref`] by construction (exact integer math).
//!
//! Telemetry spans: `quant.pack` around panel packing, `quant.kernel`
//! around the microkernel sweep.

use crate::pack::{GemmScratch, MR, NR};

/// `k`-dimension block: one packed `A` panel (`MR x KC`) is 1 KiB.
const KC: usize = 256;
/// Rows of `A` packed per block (`MC x KC` = 16 KiB).
const MC: usize = 64;
/// Weight columns packed per block (`KC x NC` = 32 KiB).
const NC: usize = 128;

/// Packs rows `i0..i0+mc` of the `u8` activation matrix (`m x k`
/// row-major), k-columns `p0..p0+kc`, into `MR`-row panels (k-major).
/// Padding lanes are zeroed; their products land in accumulator lanes
/// the microkernel never stores.
fn pack_a_q8(a: &[u8], k: usize, i0: usize, mc: usize, p0: usize, kc: usize, ap: &mut [u8]) {
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
                    0
                };
            }
        }
    }
}

/// Packs k-columns `p0..p0+kc`, rows `j0..j0+nc` of the transposed `i8`
/// weight matrix (`n x k` row-major, read as `Bᵀ`) into `NR`-column
/// panels (k-major).
fn pack_b_q8(bt: &[i8], k: usize, p0: usize, kc: usize, j0: usize, nc: usize, bp: &mut [i8]) {
    let panels = nc.div_ceil(NR);
    for panel in 0..panels {
        let c0 = panel * NR;
        let cols = NR.min(nc - c0);
        let dst = &mut bp[panel * NR * kc..(panel + 1) * NR * kc];
        for kk in 0..kc {
            let row = &mut dst[kk * NR..kk * NR + NR];
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = if c < cols {
                    bt[(j0 + c0 + c) * k + p0 + kk]
                } else {
                    0
                };
            }
        }
    }
}

/// Multiplies one packed `MR x NR` tile over `kc` k-steps, accumulating
/// into the `rows x cols` corner of the `i32` `C` tile at `c` (row
/// stride `ldc`). Same load-accumulate-store shape as the f32
/// microkernel; the `i32` widening happens on the operands so every
/// product is exact.
#[inline]
fn microkernel_q8(
    ap: &[u8],
    bp: &[i8],
    kc: usize,
    c: &mut [i32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if rows == MR && cols == NR && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 was just detected, the packers guarantee
        // `kc * MR` / `kc * NR` packed elements, and a full tile means
        // all `MR` rows of `NR` columns are in bounds of `c`.
        unsafe { microkernel_q8_avx2(ap, bp, kc, c, ldc) };
        return;
    }
    microkernel_q8_generic(ap, bp, kc, c, ldc, rows, cols);
}

/// Portable tile kernel — also the edge-tile path (`rows < MR` or
/// `cols < NR`) on x86-64.
#[inline]
fn microkernel_q8_generic(
    ap: &[u8],
    bp: &[i8],
    kc: usize,
    c: &mut [i32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0i32; NR]; MR];
    for r in 0..rows {
        acc[r][..cols].copy_from_slice(&c[r * ldc..r * ldc + cols]);
    }
    for (ac, bc) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = i32::from(ac[r]);
            for (j, slot) in acc_row.iter_mut().enumerate() {
                *slot += av * i32::from(bc[j]);
            }
        }
    }
    for r in 0..rows {
        c[r * ldc..r * ldc + cols].copy_from_slice(&acc[r][..cols]);
    }
}

/// Full-tile AVX2 kernel: one 8-lane `i32` `ymm` accumulator per `A`
/// row, processing **two k-steps per iteration** with `vpmaddwd`.
///
/// For a k-pair `(k0, k1)`, lane `j` holds the `i16` pair
/// `(b[k0][j], b[k1][j])` (bytes interleaved with `vpunpcklbw`, then
/// sign-extended) and the matching activation pair `(a[r][k0],
/// a[r][k1])` is broadcast as one `u32`. `vpmaddwd` computes
/// `a0·b0 + a1·b1` exactly in `i32` — `u8 × i8` products fit `i16×i16`
/// with no saturation (unlike `vpmaddubsw`), so the result is
/// bit-identical to [`microkernel_q8_generic`]: integer addition is
/// associative and nothing overflows (`2·255·128 « 2³¹`). A trailing
/// odd `k` falls back to widened `vpmulld`.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `ap.len() >= kc * MR`,
/// `bp.len() >= kc * NR`, and `c[(MR-1)*ldc + NR - 1]` is in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_q8_avx2(ap: &[u8], bp: &[i8], kc: usize, c: &mut [i32], ldc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    let cp = c.as_mut_ptr();
    let mut acc0 = _mm256_loadu_si256(cp as *const __m256i);
    let mut acc1 = _mm256_loadu_si256(cp.add(ldc) as *const __m256i);
    let mut acc2 = _mm256_loadu_si256(cp.add(2 * ldc) as *const __m256i);
    let mut acc3 = _mm256_loadu_si256(cp.add(3 * ldc) as *const __m256i);
    let mut a = ap.as_ptr();
    let mut b = bp.as_ptr();
    for _ in 0..kc / 2 {
        // Interleave the two k-rows of B bytewise, then sign-extend:
        // 16 i16 lanes = 8 pairs (b[k0][j], b[k1][j]).
        let b0 = _mm_loadl_epi64(b as *const __m128i);
        let b1 = _mm_loadl_epi64(b.add(NR) as *const __m128i);
        let bv = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
        // Activation pair (a[r][k0], a[r][k1]) as two positive i16 in
        // one broadcast u32 (u8 codes, so no sign issues).
        let pair = |lo: u8, hi: u8| -> i32 { (u32::from(lo) | (u32::from(hi) << 16)) as i32 };
        let a0 = _mm256_set1_epi32(pair(*a, *a.add(MR)));
        let a1 = _mm256_set1_epi32(pair(*a.add(1), *a.add(MR + 1)));
        let a2 = _mm256_set1_epi32(pair(*a.add(2), *a.add(MR + 2)));
        let a3 = _mm256_set1_epi32(pair(*a.add(3), *a.add(MR + 3)));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, bv));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, bv));
        acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(a2, bv));
        acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(a3, bv));
        a = a.add(2 * MR);
        b = b.add(2 * NR);
    }
    if kc % 2 == 1 {
        let b8 = _mm_loadl_epi64(b as *const __m128i);
        let bv = _mm256_cvtepi8_epi32(b8);
        let a0 = _mm256_set1_epi32(i32::from(*a));
        let a1 = _mm256_set1_epi32(i32::from(*a.add(1)));
        let a2 = _mm256_set1_epi32(i32::from(*a.add(2)));
        let a3 = _mm256_set1_epi32(i32::from(*a.add(3)));
        acc0 = _mm256_add_epi32(acc0, _mm256_mullo_epi32(a0, bv));
        acc1 = _mm256_add_epi32(acc1, _mm256_mullo_epi32(a1, bv));
        acc2 = _mm256_add_epi32(acc2, _mm256_mullo_epi32(a2, bv));
        acc3 = _mm256_add_epi32(acc3, _mm256_mullo_epi32(a3, bv));
    }
    _mm256_storeu_si256(cp as *mut __m256i, acc0);
    _mm256_storeu_si256(cp.add(ldc) as *mut __m256i, acc1);
    _mm256_storeu_si256(cp.add(2 * ldc) as *mut __m256i, acc2);
    _mm256_storeu_si256(cp.add(3 * ldc) as *mut __m256i, acc3);
}

/// Packed quantized GEMM over raw slices: `C = A × Bᵀ` in the stored
/// code domain, where `a` is `m x k` `u8` row-major and `bt` is `n x k`
/// `i8` row-major (weights-as-stored). `c` (`m x n` `i32`) is zeroed
/// first. The activation zero point is **not** applied here — fold it
/// out afterwards with [`apply_zero_point`].
///
/// # Panics
///
/// Debug-asserts slice lengths; like the f32 raw-slice path, callers go
/// through shape-checked wrappers.
pub fn gemm_q8_into_with(
    a: &[u8],
    bt: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Small products (per-panel centroid GEMMs, ragged tails) are
    // dominated by packing; below this many MACs a direct accumulation
    // is cheaper, and integer adds make it bit-identical to the packed
    // path. Products stay in range: k <= 16384 here, and
    // 16384 * 255 * 128 < 2^31.
    const SMALL_GEMM_MACS: usize = 16384;
    if m * n * k <= SMALL_GEMM_MACS {
        let _kernel = greuse_telemetry::span!("quant.kernel");
        #[cfg(target_arch = "x86_64")]
        if k >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            // Safety: AVX2 just detected; slice bounds checked above.
            unsafe { gemm_q8_small_avx2(a, bt, c, m, k, n) };
            return;
        }
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            let arow = &a[i * k..(i + 1) * k];
            for (slot, brow) in crow.iter_mut().zip(bt.chunks_exact(k)) {
                let mut s = 0i32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    s += i32::from(av) * i32::from(bv);
                }
                *slot = s;
            }
        }
        return;
    }
    let kc_max = k.min(KC);
    let nc_max = n.min(NC);
    GemmScratch::ensure(&mut scratch.a_pack_q, MC.min(m).div_ceil(MR) * MR * kc_max);
    GemmScratch::ensure(&mut scratch.b_pack_q, nc_max.div_ceil(NR) * NR * kc_max);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            {
                let _pack = greuse_telemetry::span!("quant.pack");
                pack_b_q8(bt, k, pc, kc, jc, nc, &mut scratch.b_pack_q);
            }
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                {
                    let _pack = greuse_telemetry::span!("quant.pack");
                    pack_a_q8(a, k, ic, mc, pc, kc, &mut scratch.a_pack_q);
                }
                let _kernel = greuse_telemetry::span!("quant.kernel");
                let a_panels = mc.div_ceil(MR);
                let b_panels = nc.div_ceil(NR);
                for jr in 0..b_panels {
                    let j0 = jr * NR;
                    let cols = NR.min(nc - j0);
                    let bp = &scratch.b_pack_q[jr * NR * kc..(jr + 1) * NR * kc];
                    for ir in 0..a_panels {
                        let i0 = ir * MR;
                        let rows = MR.min(mc - i0);
                        let ap = &scratch.a_pack_q[ir * MR * kc..(ir + 1) * MR * kc];
                        let base = (ic + i0) * n + jc + j0;
                        microkernel_q8(ap, bp, kc, &mut c[base..], n, rows, cols);
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Direct dot-product kernel for the small-GEMM path (no packing):
/// four `Bᵀ` rows share each 16-wide activation load, `vpmaddwd` pairs
/// `u8 × i8` products into `i32` lanes (`255·128` fits `i16 × i16` with
/// no saturation), and a `hadd` tree collapses the four accumulators
/// into one `xmm` of four outputs. Integer adds are associative and
/// nothing overflows, so the result is bit-identical to the naive
/// triple loop regardless of summation order.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and the slice-length invariants
/// of [`gemm_q8_into_with`] hold (`a: m·k`, `bt: n·k`, `c: m·n`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_q8_small_avx2(a: &[u8], bt: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    let k16 = k / 16 * 16;
    let k8 = if k - k16 >= 8 { k16 + 8 } else { k16 };
    let ap = a.as_ptr();
    let bp = bt.as_ptr();
    for i in 0..m {
        let arow = ap.add(i * k);
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let mut acc = [_mm256_setzero_si256(); 4];
            let mut kk = 0;
            while kk < k16 {
                let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(arow.add(kk) as *const __m128i));
                for (t, lane) in acc.iter_mut().enumerate() {
                    let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        bp.add((j + t) * k + kk) as *const __m128i
                    ));
                    *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(va, vb));
                }
                kk += 16;
            }
            if k8 > k16 {
                let va = _mm_cvtepu8_epi16(_mm_loadl_epi64(arow.add(kk) as *const __m128i));
                for (t, lane) in acc.iter_mut().enumerate() {
                    let vb = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                        bp.add((j + t) * k + kk) as *const __m128i
                    ));
                    let prod = _mm256_set_m128i(_mm_setzero_si128(), _mm_madd_epi16(va, vb));
                    *lane = _mm256_add_epi32(*lane, prod);
                }
            }
            // hadd(acc0,acc1) per 128-bit lane pairs within-register sums;
            // a second hadd leaves [ΣA,ΣB,ΣC,ΣD] split across lanes.
            let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let h = _mm256_hadd_epi32(h01, h23);
            let sum = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
            let mut out = [0i32; 4];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, sum);
            for (t, o) in out.iter_mut().enumerate() {
                for kt in k8..k {
                    *o += i32::from(*arow.add(kt)) * i32::from(*bp.add((j + t) * k + kt));
                }
            }
            crow[j..j + 4].copy_from_slice(&out);
            j += 4;
        }
        while j < n {
            let mut s = 0i32;
            for kt in 0..k {
                s += i32::from(*arow.add(kt)) * i32::from(*bp.add(j * k + kt));
            }
            crow[j] = s;
            j += 1;
        }
    }
}

/// Naive i32 reference for the packed kernel: `C[i][j] = Σ a[i][kk] ·
/// bt[j][kk]` in plain ascending order. The packed path must match this
/// **bit-identically** (exact integer math).
pub fn gemm_q8_ref(a: &[u8], bt: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0i32;
            for kk in 0..k {
                s += i32::from(a[i * k + kk]) * i32::from(bt[j * k + kk]);
            }
            c[i * n + j] = s;
        }
    }
    c
}

/// Per-output-channel weight code sums `Σ_kk w[j][kk]` for the zero-point
/// fold ([`apply_zero_point`]). `bt` is `n x k` row-major, `out.len() ==
/// n`.
pub fn weight_row_sums_into(bt: &[i8], n: usize, k: usize, out: &mut [i32]) {
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), n);
    for (dst, row) in out.iter_mut().zip(bt.chunks_exact(k)) {
        *dst = row.iter().map(|&v| i32::from(v)).sum();
    }
}

/// Folds the activation zero point out of raw accumulators in place:
/// `c[i][j] -= zp_a · row_sums[j]`, turning `Σ a·w` into `Σ (a - zp_a)
/// · w`. After this, `real C = s_a · s_w · c`.
pub fn apply_zero_point(c: &mut [i32], m: usize, n: usize, a_zp: u8, row_sums: &[i32]) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(row_sums.len(), n);
    let zp = i32::from(a_zp);
    if zp == 0 {
        return;
    }
    for row in c.chunks_exact_mut(n) {
        for (slot, &ws) in row.iter_mut().zip(row_sums) {
            *slot -= zp * ws;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_u8(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn fill_i8(len: usize, seed: u64) -> Vec<i8> {
        fill_u8(len, seed).into_iter().map(|v| v as i8).collect()
    }

    #[test]
    fn packed_q8_matches_naive_across_block_edges() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 9),
            (MR, KC + 3, NR),
            (MC + 2, 17, NC + 5),
            (96, 48, 16),
        ] {
            let a = fill_u8(m * k, (m * 31 + k) as u64);
            let bt = fill_i8(n * k, (k * 17 + n) as u64);
            let want = gemm_q8_ref(&a, &bt, m, k, n);
            let mut c = vec![0i32; m * n];
            gemm_q8_into_with(&a, &bt, &mut c, m, k, n, &mut scratch);
            assert_eq!(c, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn small_gemm_matches_naive_across_k_and_n_tails() {
        // Shapes that stay under SMALL_GEMM_MACS and exercise the direct
        // kernel's 16-chunk / 8-chunk / scalar-tail k splits and the
        // 4-column / remainder n splits.
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[
            (3usize, 7usize, 5usize),
            (4, 8, 4),
            (5, 15, 6),
            (2, 16, 9),
            (3, 17, 3),
            (16, 24, 32),
            (7, 31, 5),
            (2, 33, 7),
        ] {
            assert!(m * n * k <= 16384);
            let a = fill_u8(m * k, (m * 131 + k * 7 + n) as u64);
            let bt = fill_i8(n * k, (k * 113 + m) as u64);
            let want = gemm_q8_ref(&a, &bt, m, k, n);
            let mut c = vec![0i32; m * n];
            gemm_q8_into_with(&a, &bt, &mut c, m, k, n, &mut scratch);
            assert_eq!(c, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_point_fold_matches_direct_subtraction() {
        let (m, k, n) = (6usize, 11usize, 5usize);
        let zp = 131u8;
        let a = fill_u8(m * k, 9);
        let bt = fill_i8(n * k, 10);
        let mut sums = vec![0i32; n];
        weight_row_sums_into(&bt, n, k, &mut sums);
        let mut c = gemm_q8_ref(&a, &bt, m, k, n);
        apply_zero_point(&mut c, m, n, zp, &sums);
        // Direct: subtract the zero point from every activation first.
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i32;
                for kk in 0..k {
                    s += (i32::from(a[i * k + kk]) - i32::from(zp)) * i32::from(bt[j * k + kk]);
                }
                assert_eq!(c[i * n + j], s);
            }
        }
    }

    #[test]
    fn degenerate_dims_give_zero() {
        let mut scratch = GemmScratch::new();
        let mut c = vec![7i32; 6];
        gemm_q8_into_with(&[], &fill_i8(0, 1), &mut c, 2, 0, 3, &mut scratch);
        assert!(c.iter().all(|&v| v == 0));
    }
}
