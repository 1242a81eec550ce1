//! Runtime-dispatched SIMD kernels for the element-wise phases of the
//! pipeline: activation quantization, requantization, dequantization and
//! the fold/scatter accumulate loops.
//!
//! Every kernel has two tiers, selected **per call** at runtime:
//!
//! * an **AVX2 tier** (`x86_64` only, guarded by
//!   `is_x86_feature_detected!("avx2")`) written with explicit
//!   intrinsics, next to the existing AVX2 GEMM microkernels in
//!   [`crate::qgemm`];
//! * a **portable tier**: straight-line chunked scalar code with no
//!   target-specific intrinsics, shaped so LLVM's auto-vectorizer can
//!   lift it on any architecture. On non-x86 targets this is the only
//!   tier.
//!
//! Both tiers are **bit-identical** to the reference scalar expressions
//! in [`crate::quantized`] — the AVX2 paths replicate `f32::round`'s
//! round-half-away-from-zero with a truncate/compare sequence and the
//! requantizer's sign-aware nudge with magnitude arithmetic, rather than
//! using the hardware's round-half-even conversions. Tests pin this
//! equivalence over exhaustive edge values.

/// `dst[i] += src[i]` over `f32` slices — the vectorized scatter/recover
/// accumulate (`exec.recover` / `exec.scatter` phases).
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn add_assign_f32(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { add_assign_f32_avx2(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] += src[i]` over `i32` slices — the quantized recover
/// accumulate.
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn add_assign_i32(dst: &mut [i32], src: &[i32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { add_assign_i32_avx2(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Simultaneous `(min, max)` fold over `xs`, both seeded with `0.0` —
/// the activation-range scan behind
/// [`crate::ActQuantParams::from_data`].
///
/// Matches the sequential `f32::min`/`f32::max` fold on every input:
/// both operators ignore a NaN operand (the other argument is returned,
/// and the AVX2 tier keeps the data in the first `MINPS`/`MAXPS` operand
/// so hardware NaN handling agrees), infinities propagate, and min/max
/// reductions are order-insensitive, so the lane-parallel reduction
/// returns the same extrema. The sign of a zero extremum may differ
/// between tiers; `from_range` is insensitive to it.
pub fn min_max_f32(xs: &[f32]) -> (f32, f32) {
    #[cfg(target_arch = "x86_64")]
    if xs.len() >= 16 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads in bounds.
        return unsafe { min_max_f32_avx2(xs) };
    }
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &v in xs {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// `dst[i] += i32::from(src[i])` — the widening accumulate of the
/// integer centroid fold (`exec.fold` on the int8 path).
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn accumulate_u8_i32(src: &[u8], dst: &mut [i32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { accumulate_u8_i32_avx2(src, dst) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += i32::from(s);
    }
}

/// Batched centroid fold: for each of `n` rows,
/// `dst[assign[i] * width ..][j] += i32::from(src[i * stride + j])` for
/// `j < width` — the whole scatter-accumulate of a panel in one call,
/// so the vector tier is dispatched once instead of per row. Integer
/// adds make both tiers bit-identical to the per-row
/// [`accumulate_u8_i32`] loop.
///
/// # Panics
///
/// Debug-asserts the buffers cover the accessed ranges.
pub fn scatter_accumulate_u8_i32(
    src: &[u8],
    stride: usize,
    width: usize,
    assign: &[usize],
    dst: &mut [i32],
) {
    debug_assert!(assign.is_empty() || (assign.len() - 1) * stride + width <= src.len());
    #[cfg(target_arch = "x86_64")]
    if width >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { scatter_accumulate_u8_i32_avx2(src, stride, width, assign, dst) };
        return;
    }
    for (i, &c) in assign.iter().enumerate() {
        let row = &src[i * stride..i * stride + width];
        let out = &mut dst[c * width..(c + 1) * width];
        for (d, &s) in out.iter_mut().zip(row) {
            *d += i32::from(s);
        }
    }
}

/// Batched cluster-result recovery over `f32` outputs: for each of the
/// `assign.len()` blocks, `y[(i*b + br) * m ..][j] += yc[(assign[i]*b +
/// br) * m ..][j]` — one dispatch per panel instead of one per row.
/// Bit-identical to the per-row [`add_assign_f32`] loop (the same single
/// add per element).
///
/// # Panics
///
/// Panics when `y` or `yc` does not cover the accessed ranges.
pub fn recover_rows_f32(y: &mut [f32], yc: &[f32], assign: &[usize], b: usize, m: usize) {
    assert!(assign.len() * b * m <= y.len(), "output too short");
    #[cfg(target_arch = "x86_64")]
    if m >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected and the output range asserted above; the
        // kernel asserts each cluster index against `yc`.
        unsafe { recover_rows_f32_avx2(y, yc, assign, b, m) };
        return;
    }
    for (g, &c) in assign.iter().enumerate() {
        let dst = &mut y[g * b * m..(g + 1) * b * m];
        let src = &yc[c * b * m..(c + 1) * b * m];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// Batched cluster-result recovery: for each of the `assign.len()`
/// blocks, `acc[(i*b + br) * m ..][j] += yc[(assign[i]*b + br) * m ..][j]`
/// — every member block receives its centroid's accumulator rows in one
/// call. Bit-identical to the per-row [`add_assign_i32`] loop.
///
/// # Panics
///
/// Panics when `acc` or `yc` does not cover the accessed ranges.
pub fn recover_rows_i32(acc: &mut [i32], yc: &[i32], assign: &[usize], b: usize, m: usize) {
    assert!(assign.len() * b * m <= acc.len(), "output too short");
    #[cfg(target_arch = "x86_64")]
    if m >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { recover_rows_i32_avx2(acc, yc, assign, b, m) };
        return;
    }
    for (g, &c) in assign.iter().enumerate() {
        let dst = &mut acc[g * b * m..(g + 1) * b * m];
        let src = &yc[c * b * m..(c + 1) * b * m];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// Dequantizes `u8` activation codes: `out[i] = scale * (f32::from(q) -
/// f32::from(zero_point))` — bit-identical to
/// [`crate::ActQuantParams::dequantize`] per element (separate subtract
/// and multiply, no FMA contraction).
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn dequantize_u8_slice(qs: &[u8], scale: f32, zero_point: u8, out: &mut [f32]) {
    debug_assert_eq!(qs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if qs.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { dequantize_u8_avx2(qs, scale, zero_point, out) };
        return;
    }
    let zp = f32::from(zero_point);
    for (d, &q) in out.iter_mut().zip(qs) {
        *d = scale * (f32::from(q) - zp);
    }
}

/// Quantizes activations to asymmetric `u8` codes, bit-identical to
/// [`crate::ActQuantParams::quantize`] per element: `((v /
/// scale).round() + zp).clamp(0, 255) as u8` with
/// round-half-away-from-zero.
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn quantize_u8_slice(xs: &[f32], scale: f32, zero_point: u8, out: &mut [u8]) {
    debug_assert_eq!(xs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if xs.len() >= 32 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { quantize_u8_avx2(xs, scale, zero_point, out) };
        return;
    }
    quantize_u8_portable(xs, scale, zero_point, out);
}

#[inline]
fn quantize_u8_portable(xs: &[f32], scale: f32, zero_point: u8, out: &mut [u8]) {
    let zp = f32::from(zero_point);
    for (d, &v) in out.iter_mut().zip(xs) {
        let q = (v / scale).round() + zp;
        *d = q.clamp(0.0, 255.0) as u8;
    }
}

/// Requantizes `i32` accumulators to `i8` with a Q31 fixed-point
/// multiplier, bit-identical to [`crate::Requant::apply`] per element
/// (`shift` must be in `31..=62`, `multiplier` in `[2^30, 2^31)`).
#[inline]
pub(crate) fn requantize_i8_slice(acc: &[i32], multiplier: i32, shift: u32, out: &mut [i8]) {
    debug_assert_eq!(acc.len(), out.len());
    debug_assert!((31..=62).contains(&shift));
    #[cfg(target_arch = "x86_64")]
    if acc.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads/writes in bounds.
        unsafe { requantize_i8_avx2(acc, multiplier, shift, out) };
        return;
    }
    requantize_i8_portable(acc, multiplier, shift, out);
}

#[inline]
fn requantize_i8_portable(acc: &[i32], multiplier: i32, shift: u32, out: &mut [i8]) {
    let nudge = 1i64 << (shift - 1);
    for (d, &v) in out.iter_mut().zip(acc) {
        let prod = i64::from(v) * i64::from(multiplier);
        let rounded = if prod >= 0 {
            (prod + nudge) >> shift
        } else {
            -((-prod + nudge) >> shift)
        };
        *d = rounded.clamp(-128, 127) as i8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_f32_avx2(dst: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
        i += 8;
    }
    while i < n {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_i32_avx2(dst: &mut [i32], src: &[i32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
        let s = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_add_epi32(d, s));
        i += 8;
    }
    while i < n {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scatter_accumulate_u8_i32_avx2(
    src: &[u8],
    stride: usize,
    width: usize,
    assign: &[usize],
    dst: &mut [i32],
) {
    use std::arch::x86_64::*;
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    for (i, &c) in assign.iter().enumerate() {
        debug_assert!(i * stride + width <= src.len());
        debug_assert!((c + 1) * width <= dst.len());
        let rp = sp.add(i * stride);
        let op = dp.add(c * width);
        let mut j = 0;
        while j + 8 <= width {
            let codes = _mm_loadl_epi64(rp.add(j) as *const __m128i);
            let wide = _mm256_cvtepu8_epi32(codes);
            let d = _mm256_loadu_si256(op.add(j) as *const __m256i);
            _mm256_storeu_si256(op.add(j) as *mut __m256i, _mm256_add_epi32(d, wide));
            j += 8;
        }
        while j < width {
            *op.add(j) += i32::from(*rp.add(j));
            j += 1;
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2, and `assign.len() * b * m <= y.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn recover_rows_f32_avx2(y: &mut [f32], yc: &[f32], assign: &[usize], b: usize, m: usize) {
    use std::arch::x86_64::*;
    let bm = b * m;
    let yp = y.as_mut_ptr();
    let cp = yc.as_ptr();
    for (g, &c) in assign.iter().enumerate() {
        // The output range was checked once by the caller; a block index
        // past the centroid rows would read out of bounds.
        assert!((c + 1) * bm <= yc.len(), "cluster index out of range");
        let dp = yp.add(g * bm);
        let sp = cp.add(c * bm);
        let mut j = 0;
        while j + 8 <= bm {
            let d = _mm256_loadu_ps(dp.add(j));
            let s = _mm256_loadu_ps(sp.add(j));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, s));
            j += 8;
        }
        while j < bm {
            *dp.add(j) += *sp.add(j);
            j += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn recover_rows_i32_avx2(acc: &mut [i32], yc: &[i32], assign: &[usize], b: usize, m: usize) {
    use std::arch::x86_64::*;
    let bm = b * m;
    let ap = acc.as_mut_ptr();
    let yp = yc.as_ptr();
    for (g, &c) in assign.iter().enumerate() {
        // The output range was checked once by the caller; a block index
        // past the centroid rows would read out of bounds.
        assert!((c + 1) * bm <= yc.len(), "cluster index out of range");
        let dp = ap.add(g * bm);
        let sp = yp.add(c * bm);
        let mut j = 0;
        while j + 8 <= bm {
            let d = _mm256_loadu_si256(dp.add(j) as *const __m256i);
            let s = _mm256_loadu_si256(sp.add(j) as *const __m256i);
            _mm256_storeu_si256(dp.add(j) as *mut __m256i, _mm256_add_epi32(d, s));
            j += 8;
        }
        while j < bm {
            *dp.add(j) += *sp.add(j);
            j += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_max_f32_avx2(xs: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let p = xs.as_ptr();
    // Two accumulator pairs break the MINPS/MAXPS dependency chains.
    let mut lo0 = _mm256_setzero_ps();
    let mut hi0 = _mm256_setzero_ps();
    let mut lo1 = _mm256_setzero_ps();
    let mut hi1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        let a = _mm256_loadu_ps(p.add(i));
        let b = _mm256_loadu_ps(p.add(i + 8));
        // Data in the first operand: MINPS/MAXPS return the second
        // operand when either is NaN, so NaN inputs are skipped exactly
        // like the scalar `f32::min`/`f32::max` fold (the accumulators
        // start at 0.0 and therefore never hold NaN).
        lo0 = _mm256_min_ps(a, lo0);
        hi0 = _mm256_max_ps(a, hi0);
        lo1 = _mm256_min_ps(b, lo1);
        hi1 = _mm256_max_ps(b, hi1);
        i += 16;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_min_ps(lo0, lo1));
    let mut lo = lanes.iter().fold(0.0f32, |a, &v| a.min(v));
    _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_max_ps(hi0, hi1));
    let mut hi = lanes.iter().fold(0.0f32, |a, &v| a.max(v));
    while i < n {
        lo = lo.min(*p.add(i));
        hi = hi.max(*p.add(i));
        i += 1;
    }
    (lo, hi)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_u8_i32_avx2(src: &[u8], dst: &mut [i32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let codes = _mm_loadl_epi64(sp.add(i) as *const __m128i);
        let wide = _mm256_cvtepu8_epi32(codes);
        let d = _mm256_loadu_si256(dp.add(i) as *const __m256i);
        _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_add_epi32(d, wide));
        i += 8;
    }
    while i < n {
        *dp.add(i) += i32::from(*sp.add(i));
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_u8_avx2(qs: &[u8], scale: f32, zero_point: u8, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = qs.len();
    let sp = qs.as_ptr();
    let dp = out.as_mut_ptr();
    let vscale = _mm256_set1_ps(scale);
    let vzp = _mm256_set1_ps(f32::from(zero_point));
    let mut i = 0;
    while i + 8 <= n {
        let codes = _mm_loadl_epi64(sp.add(i) as *const __m128i);
        let wide = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes));
        // Separate subtract and multiply — same op order as the scalar
        // `scale * (f32::from(q) - zp)`, no FMA contraction.
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(vscale, _mm256_sub_ps(wide, vzp)));
        i += 8;
    }
    let zp = f32::from(zero_point);
    while i < n {
        *dp.add(i) = scale * (f32::from(*sp.add(i)) - zp);
        i += 1;
    }
}

/// Rounds 8 lanes half-away-from-zero: `trunc(x)` plus a `±1` step where
/// `|x - trunc(x)| >= 0.5`. The fraction `x - trunc(x)` is exact for
/// `|x| < 2^23` (Sterbenz), and for larger `|x|` the fraction is zero, so
/// this matches `f32::round` on every input (NaN propagates).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn round_half_away_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let tr = _mm256_round_ps(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    let frac = _mm256_sub_ps(x, tr);
    let sign_mask = _mm256_set1_ps(-0.0);
    let absfrac = _mm256_andnot_ps(sign_mask, frac);
    let need = _mm256_cmp_ps(absfrac, _mm256_set1_ps(0.5), _CMP_GE_OQ);
    let step = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(x, sign_mask));
    _mm256_add_ps(tr, _mm256_and_ps(need, step))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_u8_avx2(xs: &[f32], scale: f32, zero_point: u8, out: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let sp = xs.as_ptr();
    let dp = out.as_mut_ptr();
    let vscale = _mm256_set1_ps(scale);
    let vzp = _mm256_set1_ps(f32::from(zero_point));
    let vzero = _mm256_setzero_ps();
    let vmax = _mm256_set1_ps(255.0);
    // Restores sequential order after the lane-interleaving packs below.
    let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let quant8 = |p: *const f32| -> __m256i {
        let q = _mm256_add_ps(
            round_half_away_avx2(_mm256_div_ps(_mm256_loadu_ps(p), vscale)),
            vzp,
        );
        // max(q, 0) returns the second operand on NaN, matching the
        // scalar `NaN.clamp(..) as u8 == 0` saturating cast.
        let clamped = _mm256_min_ps(_mm256_max_ps(q, vzero), vmax);
        // Lanes are integral in [0, 255]; the convert is exact.
        _mm256_cvtps_epi32(clamped)
    };
    let mut i = 0;
    while i + 32 <= n {
        let a = quant8(sp.add(i));
        let b = quant8(sp.add(i + 8));
        let c = quant8(sp.add(i + 16));
        let d = quant8(sp.add(i + 24));
        let ab = _mm256_packs_epi32(a, b);
        let cd = _mm256_packs_epi32(c, d);
        let bytes = _mm256_packus_epi16(ab, cd);
        let ordered = _mm256_permutevar8x32_epi32(bytes, order);
        _mm256_storeu_si256(dp.add(i) as *mut __m256i, ordered);
        i += 32;
    }
    let zp = f32::from(zero_point);
    while i < n {
        let q = (*sp.add(i) / scale).round() + zp;
        *dp.add(i) = q.clamp(0.0, 255.0) as u8;
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_i8_avx2(acc: &[i32], multiplier: i32, shift: u32, out: &mut [i8]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let sp = acc.as_ptr();
    let dp = out.as_mut_ptr();
    let vmult = _mm256_set1_epi64x(i64::from(multiplier));
    let vnudge = _mm256_set1_epi64x(1i64 << (shift - 1));
    // Magnitudes are capped at 128 while still in the 64-bit domain so
    // the 32-bit narrowing below cannot truncate; the final signed
    // min(127) reproduces the scalar asymmetric clamp [-128, 127].
    let cap = _mm256_set1_epi64x(128);
    let vshift = _mm_cvtsi32_si128(shift as i32);
    let scale4 = |mag: __m256i| -> __m256i {
        let prod = _mm256_mul_epu32(mag, vmult);
        let shifted = _mm256_srl_epi64(_mm256_add_epi64(prod, vnudge), vshift);
        let over = _mm256_cmpgt_epi64(shifted, cap);
        _mm256_blendv_epi8(shifted, cap, over)
    };
    let mut i = 0;
    let mut tmp = [0i32; 8];
    while i + 8 <= n {
        let v = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        let sign = _mm256_srai_epi32(v, 31);
        // |i32::MIN| wraps to 0x8000_0000, which the unsigned widening
        // below reads as the correct magnitude 2^31.
        let absv = _mm256_sub_epi32(_mm256_xor_si256(v, sign), sign);
        let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(absv));
        let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(absv, 1));
        let rlo = scale4(lo);
        let rhi = scale4(hi);
        // Narrow u64 → u32 (values ≤ 128 fit) and reunite the 8 lanes.
        let pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let lo32 = _mm256_permutevar8x32_epi32(rlo, pick);
        let hi32 = _mm256_permutevar8x32_epi32(rhi, pick);
        let mag = _mm256_inserti128_si256(lo32, _mm256_castsi256_si128(hi32), 1);
        let signed = _mm256_sub_epi32(_mm256_xor_si256(mag, sign), sign);
        let clamped = _mm256_min_epi32(signed, _mm256_set1_epi32(127));
        _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, clamped);
        for (j, &t) in tmp.iter().enumerate() {
            *dp.add(i + j) = t as i8;
        }
        i += 8;
    }
    let nudge = 1i64 << (shift - 1);
    while i < n {
        let prod = i64::from(*sp.add(i)) * i64::from(multiplier);
        let rounded = if prod >= 0 {
            (prod + nudge) >> shift
        } else {
            -((-prod + nudge) >> shift)
        };
        *dp.add(i) = rounded.clamp(-128, 127) as i8;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActQuantParams, Requant};

    fn edge_values() -> Vec<f32> {
        let mut vs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.499_999_97,
            -0.499_999_97,
            0.500_000_06,
            127.5,
            128.5,
            254.5,
            255.5,
            -300.0,
            300.0,
            1e9,
            -1e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        let mut state = 0x1234_5678_u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = (state >> 32) as u32;
            let v = f32::from_bits(bits);
            vs.push(if v.is_finite() { v % 1024.0 } else { v });
        }
        vs
    }

    #[test]
    fn quantize_slice_matches_scalar_reference() {
        for &(scale, zp) in &[(0.013f32, 97u8), (1.0, 0), (0.5, 255), (3.7, 12)] {
            let params = ActQuantParams {
                scale,
                zero_point: zp,
            };
            let xs = edge_values();
            let mut got = vec![0u8; xs.len()];
            quantize_u8_slice(&xs, scale, zp, &mut got);
            for (i, (&v, &g)) in xs.iter().zip(&got).enumerate() {
                assert_eq!(g, params.quantize(v), "scale={scale} zp={zp} i={i} v={v}");
            }
            // Also drive the portable tier explicitly.
            let mut portable = vec![0u8; xs.len()];
            quantize_u8_portable(&xs, scale, zp, &mut portable);
            assert_eq!(portable, got);
        }
    }

    #[test]
    fn dequantize_slice_matches_scalar_reference() {
        let params = ActQuantParams {
            scale: 0.173,
            zero_point: 129,
        };
        let qs: Vec<u8> = (0..=255).chain(0..=255).map(|v| v as u8).collect();
        let mut got = vec![0.0f32; qs.len()];
        dequantize_u8_slice(&qs, params.scale, params.zero_point, &mut got);
        for (&q, &g) in qs.iter().zip(&got) {
            assert_eq!(g.to_bits(), params.dequantize(q).to_bits());
        }
    }

    #[test]
    fn requantize_slice_matches_requant_apply() {
        for &m in &[0.9999f32, 0.5, 0.013, 1e-6, 0.25000003] {
            let rq = Requant::new(m).unwrap();
            let (mult, shift) = rq.parts();
            let mut accs: Vec<i32> = vec![
                0,
                1,
                -1,
                127,
                -128,
                255,
                -256,
                i32::MAX,
                i32::MIN,
                i32::MAX - 1,
                i32::MIN + 1,
            ];
            let mut state = 0xdead_beef_u64;
            for _ in 0..4096 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                accs.push((state >> 32) as i32);
            }
            let mut got = vec![0i8; accs.len()];
            requantize_i8_slice(&accs, mult, shift, &mut got);
            for (&a, &g) in accs.iter().zip(&got) {
                assert_eq!(g, rq.apply(a), "m={m} acc={a}");
            }
            let mut portable = vec![0i8; accs.len()];
            requantize_i8_portable(&accs, mult, shift, &mut portable);
            assert_eq!(portable, got);
        }
    }

    #[test]
    fn scatter_accumulate_and_recover_match_per_row_loops() {
        // Strided source rows (width 13 < stride 17 exercises the
        // remainder lanes and the stride handling).
        let (rows, stride, width) = (29usize, 17usize, 13usize);
        let src: Vec<u8> = (0..rows * stride).map(|i| (i * 31 % 256) as u8).collect();
        let assign: Vec<usize> = (0..rows).map(|i| i % 5).collect();
        let mut got = vec![3i32; 5 * width];
        scatter_accumulate_u8_i32(&src, stride, width, &assign, &mut got);
        let mut want = vec![3i32; 5 * width];
        for (i, &c) in assign.iter().enumerate() {
            accumulate_u8_i32(
                &src[i * stride..i * stride + width],
                &mut want[c * width..(c + 1) * width],
            );
        }
        assert_eq!(got, want);

        let (blocks, b, m) = (21usize, 2usize, 9usize);
        let yc: Vec<i32> = (0..5 * b * m).map(|i| i as i32 * 7 - 40).collect();
        let mut acc = vec![-2i32; blocks * b * m];
        let mut acc_want = acc.clone();
        recover_rows_i32(&mut acc, &yc, &assign[..blocks], b, m);
        for (g, &c) in assign[..blocks].iter().enumerate() {
            for br in 0..b {
                add_assign_i32(
                    &mut acc_want[(g * b + br) * m..(g * b + br + 1) * m],
                    &yc[(c * b + br) * m..(c * b + br + 1) * m],
                );
            }
        }
        assert_eq!(acc, acc_want);

        let ycf: Vec<f32> = (0..5 * b * m).map(|i| i as f32 * 0.37 - 4.0).collect();
        let mut yf: Vec<f32> = (0..blocks * b * m).map(|i| (i as f32).sin()).collect();
        let mut yf_want = yf.clone();
        recover_rows_f32(&mut yf, &ycf, &assign[..blocks], b, m);
        for (g, &c) in assign[..blocks].iter().enumerate() {
            for br in 0..b {
                add_assign_f32(
                    &mut yf_want[(g * b + br) * m..(g * b + br + 1) * m],
                    &ycf[(c * b + br) * m..(c * b + br + 1) * m],
                );
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&yf), bits(&yf_want));
    }

    #[test]
    fn min_max_matches_scalar_fold() {
        // Edge values include NaN (must be skipped), ±Inf (must
        // propagate) and signed zeros (extremum sign is unobservable
        // through `==`).
        let xs = edge_values();
        for len in [0usize, 1, 7, 15, 16, 17, 100, xs.len()] {
            let slice = &xs[..len];
            let (lo, hi) = min_max_f32(slice);
            let mut rlo = 0.0f32;
            let mut rhi = 0.0f32;
            for &v in slice {
                rlo = rlo.min(v);
                rhi = rhi.max(v);
            }
            assert!(
                lo == rlo && hi == rhi,
                "len={len}: ({lo},{hi}) vs ({rlo},{rhi})"
            );
        }
        // All-NaN data must fold to the 0.0 seeds, not NaN.
        assert_eq!(min_max_f32(&[f32::NAN; 40]), (0.0, 0.0));
    }

    #[test]
    fn accumulate_and_add_assign_match_scalar() {
        let n = 173; // odd length exercises the remainder loops
        let src_u8: Vec<u8> = (0..n).map(|i| (i * 7 % 256) as u8).collect();
        let mut dst = vec![5i32; n];
        accumulate_u8_i32(&src_u8, &mut dst);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, 5 + i32::from(src_u8[i]));
        }
        let src_f: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let mut dst_f = vec![1.0f32; n];
        add_assign_f32(&mut dst_f, &src_f);
        for (i, &d) in dst_f.iter().enumerate() {
            assert_eq!(d.to_bits(), (1.0f32 + src_f[i]).to_bits());
        }
        let src_i: Vec<i32> = (0..n as i32).collect();
        let mut dst_i = vec![-3i32; n];
        add_assign_i32(&mut dst_i, &src_i);
        for (i, &d) in dst_i.iter().enumerate() {
            assert_eq!(d, -3 + i as i32);
        }
    }
}
