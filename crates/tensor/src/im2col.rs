//! The `im2col` expansion: from the paper's *image view* to its
//! *im2col (matrix) view*.
//!
//! The default mapping follows the paper's Figure 6(b): one row of the
//! matrix holds all values of one receptive-field tile, laid out **channel
//! by channel** ("channel-last" in the paper's terminology — the kernel
//! window coordinates vary fastest within each channel segment).

use serde::{Deserialize, Serialize};

use crate::{ConvSpec, Element, Tensor, TensorError};

/// How the columns of the im2col matrix are ordered.
///
/// Both layouts contain exactly the same values per row; they differ in the
/// column permutation, which is precisely the paper's "reuse order" lever
/// (Figure 6(b) vs Figure 6(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Im2colLayout {
    /// `(channel, ky, kx)` — channel varies slowest. The paper's default
    /// (Fig. 6(b)); a contiguous segment of a row is a tile of one channel.
    #[default]
    ChannelLast,
    /// `(ky, kx, channel)` — channel varies fastest (Fig. 6(d)); a
    /// contiguous segment of a row covers one pixel across all channels.
    ChannelFirst,
}

impl Im2colLayout {
    /// Maps `(channel, ky, kx)` to a column index under this layout.
    pub fn column(&self, spec: &ConvSpec, ch: usize, ky: usize, kx: usize) -> usize {
        match self {
            Im2colLayout::ChannelLast => {
                ch * spec.kernel_h * spec.kernel_w + ky * spec.kernel_w + kx
            }
            Im2colLayout::ChannelFirst => (ky * spec.kernel_w + kx) * spec.in_channels + ch,
        }
    }

    /// The column permutation `p` such that
    /// `layout_col = p[channel_last_col]`.
    pub fn permutation_from_default(&self, spec: &ConvSpec) -> Vec<usize> {
        let mut p = vec![0usize; spec.patch_len()];
        for ch in 0..spec.in_channels {
            for ky in 0..spec.kernel_h {
                for kx in 0..spec.kernel_w {
                    let default_col = Im2colLayout::ChannelLast.column(spec, ch, ky, kx);
                    p[default_col] = self.column(spec, ch, ky, kx);
                }
            }
        }
        p
    }
}

/// Expands a `(C, H, W)` image into the `(out_h*out_w) x (C*kh*kw)` im2col
/// matrix using the default channel-last layout.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for a non-rank-3 input or channel
/// mismatch, and propagates geometry errors from [`ConvSpec::output_hw`].
pub fn im2col(input: &Tensor<f32>, spec: &ConvSpec) -> Result<Tensor<f32>, TensorError> {
    let g = Geometry::of(input, spec, "im2col")?;
    let mut out = Tensor::zeros(&[g.oh * g.ow, spec.patch_len()]);
    let _span = greuse_telemetry::span!("im2col");
    expand_channel_last(input.as_slice(), &g, spec, 0.0, out.as_mut_slice());
    Ok(out)
}

/// Expands into a caller-provided buffer under an explicit column layout.
/// The buffer must hold exactly `(out_h*out_w) * patch_len` elements.
///
/// Exposing the buffer lets the reuse runtime fuse the paper's reorder into
/// the expansion instead of permuting afterwards.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the input or buffer size is
/// wrong, and propagates geometry errors.
pub fn im2col_into(
    input: &Tensor<f32>,
    spec: &ConvSpec,
    layout: Im2colLayout,
    out: &mut [f32],
) -> Result<(), TensorError> {
    expand_into(input, 0.0, spec, layout, out, "im2col_into")
}

/// Quantized (`u8`) variant of [`im2col_into`]: expands an already
/// quantized `(C, H, W)` image, writing `zero_point` into padding slots —
/// the quantized code for `0.0`, so the expansion commutes with
/// quantization: `im2col_q8(quantize(x)) == quantize(im2col(x))`
/// elementwise.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the input or buffer size is
/// wrong, and propagates geometry errors.
pub fn im2col_q8_into(
    input: &Tensor<u8>,
    zero_point: u8,
    spec: &ConvSpec,
    layout: Im2colLayout,
    out: &mut [u8],
) -> Result<(), TensorError> {
    expand_into(input, zero_point, spec, layout, out, "im2col_q8_into")
}

/// Expands into a caller-provided buffer with an arbitrary **column
/// permutation fused into the expansion**: output column `j` receives the
/// value that the default (channel-last) layout would place at column
/// `perm[j]`. One pass instead of im2col + a separate permute —
/// the "fused reorder" variant of DESIGN.md's ablation 1.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the input, buffer, or
/// permutation length is wrong, and propagates geometry errors.
pub fn im2col_permuted(
    input: &Tensor<f32>,
    spec: &ConvSpec,
    perm: &crate::Permutation,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let op = "im2col_permuted";
    let g = Geometry::of(input, spec, op)?;
    check_len(op, spec.patch_len(), perm.len())?;
    check_len(op, g.oh * g.ow * spec.patch_len(), out.len())?;
    let _span = greuse_telemetry::span!("im2col");
    // Inverse map: where does default column d land in the output?
    let inv = perm.inverse();
    let dest = inv.as_slice();
    expand_scalar(input.as_slice(), &g, spec, 0.0, out, |ch, ky, kx| {
        dest[Im2colLayout::ChannelLast.column(spec, ch, ky, kx)]
    });
    Ok(())
}

/// Validated expansion geometry: input `(c, h, w)` and output map
/// `(oh, ow)`.
struct Geometry {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl Geometry {
    fn of<T: Element>(
        input: &Tensor<T>,
        spec: &ConvSpec,
        op: &'static str,
    ) -> Result<Self, TensorError> {
        let dims = input.shape().dims();
        if dims.len() != 3 || dims[0] != spec.in_channels {
            return Err(TensorError::ShapeMismatch {
                op,
                expected: vec![spec.in_channels],
                actual: dims.to_vec(),
            });
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let (oh, ow) = spec.output_hw(h, w)?;
        Ok(Geometry { c, h, w, oh, ow })
    }
}

fn check_len(op: &'static str, expected: usize, actual: usize) -> Result<(), TensorError> {
    if expected == actual {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op,
            expected: vec![expected],
            actual: vec![actual],
        })
    }
}

/// The shared body of [`im2col_into`] and [`im2col_q8_into`]: validates,
/// then runs the structured kernel for the default layout and the scalar
/// loop for any other.
fn expand_into<T: Element>(
    input: &Tensor<T>,
    pad: T,
    spec: &ConvSpec,
    layout: Im2colLayout,
    out: &mut [T],
    op: &'static str,
) -> Result<(), TensorError> {
    let g = Geometry::of(input, spec, op)?;
    check_len(op, g.oh * g.ow * spec.patch_len(), out.len())?;
    let _span = greuse_telemetry::span!("im2col");
    match layout {
        Im2colLayout::ChannelLast => expand_channel_last(input.as_slice(), &g, spec, pad, out),
        Im2colLayout::ChannelFirst => {
            expand_scalar(input.as_slice(), &g, spec, pad, out, |ch, ky, kx| {
                layout.column(spec, ch, ky, kx)
            })
        }
    }
    Ok(())
}

/// The per-element expansion: every `(position, ch, ky, kx)` tests the
/// image bounds and writes to the column `col(ch, ky, kx)` picks. It
/// serves the non-default layouts and is the oracle the structured kernel
/// is tested against.
fn expand_scalar<T: Copy>(
    src: &[T],
    g: &Geometry,
    spec: &ConvSpec,
    pad: T,
    out: &mut [T],
    col: impl Fn(usize, usize, usize) -> usize,
) {
    let k = spec.patch_len();
    let p = spec.padding as isize;
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let base = (oy * g.ow + ox) * k;
            for ch in 0..g.c {
                for ky in 0..spec.kernel_h {
                    let iy = (oy * spec.stride + ky) as isize - p;
                    for kx in 0..spec.kernel_w {
                        let ix = (ox * spec.stride + kx) as isize - p;
                        out[base + col(ch, ky, kx)] =
                            if iy < 0 || ix < 0 || iy >= g.h as isize || ix >= g.w as isize {
                                pad
                            } else {
                                src[(ch * g.h + iy as usize) * g.w + ix as usize]
                            };
                    }
                }
            }
        }
    }
}

/// The channel-last expansion as block moves: a 1×1 kernel is a blocked
/// transpose, any other kernel copies each `kw`-long window line whole.
/// Writes every element of `out` exactly as [`expand_scalar`] does.
fn expand_channel_last<T: Element>(
    src: &[T],
    g: &Geometry,
    spec: &ConvSpec,
    pad: T,
    out: &mut [T],
) {
    if out.is_empty() {
        return;
    }
    match (spec.kernel_h, spec.kernel_w) {
        (1, 1) => transpose_1x1(src, g, spec, pad, out),
        (3, 3) => expand_windows::<T, 3>(src, g, spec, pad, out),
        (5, 5) => expand_windows::<T, 5>(src, g, spec, pad, out),
        (7, 7) => expand_windows::<T, 7>(src, g, spec, pad, out),
        _ => expand_windows::<T, 0>(src, g, spec, pad, out),
    }
}

/// Writes each output position's row in `(ch, ky)` order. `K` is the
/// side of a square kernel as a constant (0 takes `kh × kw` from `spec`),
/// so a window line is one fixed-width copy. A window inside the image
/// copies its `kh` lines per channel with no test; otherwise rows above
/// or below the image are filled with `pad` in one block per channel,
/// and only windows that cross the left or right border test each
/// column.
fn expand_windows<T: Copy, const K: usize>(
    src: &[T],
    g: &Geometry,
    spec: &ConvSpec,
    pad: T,
    out: &mut [T],
) {
    let (kh, kw) = if K == 0 {
        (spec.kernel_h, spec.kernel_w)
    } else {
        (K, K)
    };
    let (s, p) = (spec.stride, spec.padding);
    let win = kh * kw;
    let plane = g.h * g.w;
    // Extent of one window in a channel plane, from its top-left pixel.
    let span = (kh - 1) * g.w + kw;
    for (oy, rows) in out.chunks_exact_mut(g.ow * g.c * win).enumerate() {
        // Window rows ky_lo..ky_hi lie inside the image.
        let top = oy * s;
        let ky_lo = p.saturating_sub(top).min(kh);
        let ky_hi = (g.h + p).saturating_sub(top).clamp(ky_lo, kh);
        for (ox, row) in rows.chunks_exact_mut(g.c * win).enumerate() {
            let left = ox * s;
            let interior = left >= p && left - p + kw <= g.w;
            if interior && ky_lo == 0 && ky_hi == kh {
                let first = (top - p) * g.w + left - p;
                for (window, chan) in row.chunks_exact_mut(win).zip(src.chunks_exact(plane)) {
                    let patch = &chan[first..first + span];
                    for ky in 0..kh {
                        window[ky * kw..][..kw].copy_from_slice(&patch[ky * g.w..][..kw]);
                    }
                }
                continue;
            }
            for (window, chan) in row.chunks_exact_mut(win).zip(src.chunks_exact(plane)) {
                window[..ky_lo * kw].fill(pad);
                window[ky_hi * kw..].fill(pad);
                for ky in ky_lo..ky_hi {
                    let line = &chan[(top + ky - p) * g.w..][..g.w];
                    let dst = &mut window[ky * kw..][..kw];
                    if interior {
                        dst.copy_from_slice(&line[left - p..][..kw]);
                    } else {
                        for (kx, d) in dst.iter_mut().enumerate() {
                            // Left of the image wraps to a huge index.
                            let ix = (left + kx).wrapping_sub(p);
                            *d = if ix < g.w { line[ix] } else { pad };
                        }
                    }
                }
            }
        }
    }
}

/// A 1×1 convolution's expansion: the `(C, H·W)` image transposed to
/// `(positions, C)`, reading every `stride`-th pixel. Without stride or
/// padding the whole map is one run of positions; otherwise each output
/// row is, and positions in the padding get `pad` in whole rows.
fn transpose_1x1<T: Element>(src: &[T], g: &Geometry, spec: &ConvSpec, pad: T, out: &mut [T]) {
    let (c, s, p) = (g.c, spec.stride, spec.padding);
    let plane = g.h * g.w;
    if s == 1 && p == 0 {
        return transpose_run(src, plane, 0, 1, c, out);
    }
    // Output columns ox_lo..ox_hi read inside the image.
    let ox_lo = p.div_ceil(s).min(g.ow);
    let ox_hi = (g.w + p).div_ceil(s).clamp(ox_lo, g.ow);
    for (oy, rows) in out.chunks_exact_mut(g.ow * c).enumerate() {
        let iy = (oy * s).wrapping_sub(p);
        if iy >= g.h {
            rows.fill(pad);
            continue;
        }
        rows[..ox_lo * c].fill(pad);
        rows[ox_hi * c..].fill(pad);
        let first = iy * g.w + ox_lo * s - p;
        transpose_run(src, plane, first, s, c, &mut rows[ox_lo * c..ox_hi * c]);
    }
}

/// Transposes a run of positions into `out` (`positions × c`): position
/// `j` of channel `ch` is `src[ch * plane + first + j * step]`. Full 8×8
/// tiles go through a register block, so a tile's 8 source lines and 8
/// destination rows stay in L1; edges are copied one element at a time.
fn transpose_run<T: Element>(
    src: &[T],
    plane: usize,
    first: usize,
    step: usize,
    c: usize,
    out: &mut [T],
) {
    const B: usize = 8;
    for (tile, block) in out.chunks_mut(B * c).enumerate() {
        let off = first + tile * B * step;
        let mut ch0 = 0;
        if block.len() == B * c {
            while ch0 + B <= c {
                let mut t = [[T::ZERO; B]; B];
                for (i, ti) in t.iter_mut().enumerate() {
                    let line = &src[(ch0 + i) * plane + off..][..(B - 1) * step + 1];
                    for (j, v) in ti.iter_mut().enumerate() {
                        *v = line[j * step];
                    }
                }
                for (j, dst) in block.chunks_exact_mut(c).enumerate() {
                    for (i, d) in dst[ch0..ch0 + B].iter_mut().enumerate() {
                        *d = t[i][j];
                    }
                }
                ch0 += B;
            }
        }
        for ch in ch0..c {
            let line = &src[ch * plane + off..];
            for (j, dst) in block.chunks_exact_mut(c).enumerate() {
                dst[ch] = line[j * step];
            }
        }
    }
}

/// Scatter-accumulates an im2col-shaped gradient back to image shape
/// (the adjoint of [`im2col`]); required by convolution backprop.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `cols` does not have the
/// im2col shape for `(spec, h, w)`.
pub fn col2im_accumulate(
    cols: &Tensor<f32>,
    spec: &ConvSpec,
    h: usize,
    w: usize,
) -> Result<Tensor<f32>, TensorError> {
    let (oh, ow) = spec.output_hw(h, w)?;
    let k = spec.patch_len();
    let dims = cols.shape().dims();
    if dims.len() != 2 || dims[0] != oh * ow || dims[1] != k {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_accumulate",
            expected: vec![oh * ow, k],
            actual: dims.to_vec(),
        });
    }
    let mut img = Tensor::zeros(&[spec.in_channels, h, w]);
    let pad = spec.padding as isize;
    let img_s = img.as_mut_slice();
    let col_s = cols.as_slice();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let base = row * k;
            for ch in 0..spec.in_channels {
                for ky in 0..spec.kernel_h {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel_w {
                        let ix = (ox * spec.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let col = Im2colLayout::ChannelLast.column(spec, ch, ky, kx);
                        img_s[(ch * h + iy as usize) * w + ix as usize] += col_s[base + col];
                    }
                }
            }
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_naive, gemm_f32};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_image(c: usize, h: usize, w: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_fn(&[c, h, w], |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn im2col_gemm_matches_naive_conv() {
        for &(pad, stride) in &[(0usize, 1usize), (1, 1), (2, 2)] {
            let spec = ConvSpec::new(3, 4, 3, 3)
                .with_padding(pad)
                .with_stride(stride);
            let img = rand_image(3, 9, 9, 42 + pad as u64 + stride as u64);
            let mut rng = SmallRng::seed_from_u64(11);
            let weights = Tensor::from_fn(&[4, spec.patch_len()], |_| rng.gen_range(-1.0f32..1.0));
            let x = im2col(&img, &spec).unwrap();
            let y = gemm_f32(&x, &weights.transpose()).unwrap(); // N x M
            let reference = conv2d_naive(&img, &weights, &spec).unwrap();
            let (oh, ow) = spec.output_hw(9, 9).unwrap();
            for m in 0..4 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let a = y[[oy * ow + ox, m]];
                        let b = reference[[m, oy, ox]];
                        assert!((a - b).abs() < 1e-4, "pad={pad} stride={stride}");
                    }
                }
            }
        }
    }

    #[test]
    fn channel_first_is_column_permutation_of_default() {
        let spec = ConvSpec::new(2, 1, 2, 2);
        let img = rand_image(2, 4, 4, 3);
        let default = im2col(&img, &spec).unwrap();
        let (oh, ow) = spec.output_hw(4, 4).unwrap();
        let mut cf = vec![0.0f32; oh * ow * spec.patch_len()];
        im2col_into(&img, &spec, Im2colLayout::ChannelFirst, &mut cf).unwrap();
        let p = Im2colLayout::ChannelFirst.permutation_from_default(&spec);
        for row in 0..oh * ow {
            for col in 0..spec.patch_len() {
                let want = default[[row, col]];
                let got = cf[row * spec.patch_len() + p[col]];
                assert_eq!(want, got);
            }
        }
    }

    #[test]
    fn layouts_preserve_row_multiset() {
        let spec = ConvSpec::new(3, 1, 3, 3);
        let img = rand_image(3, 5, 5, 9);
        let a = im2col(&img, &spec).unwrap();
        let (oh, ow) = spec.output_hw(5, 5).unwrap();
        let mut b = vec![0.0f32; oh * ow * spec.patch_len()];
        im2col_into(&img, &spec, Im2colLayout::ChannelFirst, &mut b).unwrap();
        for row in 0..oh * ow {
            let mut ra: Vec<_> = a.row(row).iter().map(|v| v.to_bits()).collect();
            let mut rb: Vec<_> = b[row * spec.patch_len()..(row + 1) * spec.patch_len()]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            ra.sort_unstable();
            rb.sort_unstable();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn quantized_im2col_commutes_with_quantization() {
        use crate::{quantize_u8_into, ActQuantParams};
        let spec = ConvSpec::new(2, 1, 3, 3).with_padding(1);
        let img = rand_image(2, 6, 6, 33);
        let params = ActQuantParams::from_data(img.as_slice()).unwrap();
        // Quantize-then-expand.
        let mut q_img = Tensor::<u8>::zeros(&[2, 6, 6]);
        quantize_u8_into(img.as_slice(), &params, q_img.as_mut_slice());
        let (oh, ow) = spec.output_hw(6, 6).unwrap();
        let mut q_cols = vec![0u8; oh * ow * spec.patch_len()];
        im2col_q8_into(
            &q_img,
            params.zero_point,
            &spec,
            Im2colLayout::ChannelLast,
            &mut q_cols,
        )
        .unwrap();
        // Expand-then-quantize.
        let cols = im2col(&img, &spec).unwrap();
        let mut want = vec![0u8; q_cols.len()];
        quantize_u8_into(cols.as_slice(), &params, &mut want);
        assert_eq!(q_cols, want);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        let spec = ConvSpec::new(2, 1, 3, 3).with_padding(1);
        let img = rand_image(2, 6, 6, 21);
        let x = im2col(&img, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(22);
        let y = Tensor::from_fn(x.shape().dims(), |_| rng.gen_range(-1.0f32..1.0));
        let lhs: f32 = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im_accumulate(&y, &spec, 6, 6).unwrap();
        let rhs: f32 = img
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    /// A geometry for the bitwise property: kernels 1..=7 with `kh` and
    /// `kw` drawn apart (1×1 in a quarter of the cases), stride 1..=3,
    /// padding 0..=3 (so also at or above the kernel size), inputs from
    /// the smallest valid size (below the kernel when padded) up, and
    /// channel counts on both sides of the 8-wide transpose block.
    fn geometry() -> impl Strategy<Value = (ConvSpec, usize, usize)> {
        let kernel = prop_oneof![
            Just((1usize, 1usize)),
            (1usize..=7, 1usize..=7),
            (1usize..=7, 1usize..=7),
            (1usize..=7, 1usize..=7),
        ];
        (
            kernel,
            1usize..=19,
            1usize..=3,
            0usize..=3,
            0usize..10,
            0usize..10,
        )
            .prop_map(|((kh, kw), c, stride, pad, dh, dw)| {
                let spec = ConvSpec::new(c, 1, kh, kw)
                    .with_stride(stride)
                    .with_padding(pad);
                let h = kh.saturating_sub(2 * pad).max(1) + dh;
                let w = kw.saturating_sub(2 * pad).max(1) + dw;
                (spec, h, w)
            })
    }

    /// The scalar loop under the default layout: the oracle.
    fn oracle<T: Element>(input: &Tensor<T>, spec: &ConvSpec, pad: T) -> Vec<T> {
        let g = Geometry::of(input, spec, "oracle").unwrap();
        let mut out = vec![T::ZERO; g.oh * g.ow * spec.patch_len()];
        expand_scalar(input.as_slice(), &g, spec, pad, &mut out, |ch, ky, kx| {
            Im2colLayout::ChannelLast.column(spec, ch, ky, kx)
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn structured_expansion_matches_scalar_bitwise(
            geom in geometry(),
            seed in any::<u64>(),
            zero_point in 1u8..=255,
        ) {
            let (spec, h, w) = geom;
            let mut rng = SmallRng::seed_from_u64(seed);
            let c = spec.in_channels;
            // Arbitrary bit patterns, salted with NaN payloads and -0.0.
            let specials = [f32::from_bits(0x7fc0_1234), f32::from_bits(0xff80_0001), -0.0];
            let img = Tensor::from_fn(&[c, h, w], |i| match i % 4 {
                0 => specials[rng.gen_range(0..specials.len())],
                _ => f32::from_bits(rng.gen()),
            });
            let want = oracle(&img, &spec, 0.0);
            // A sentinel start value shows any element the kernel skips.
            let mut got = vec![f32::from_bits(0xdead_beef); want.len()];
            im2col_into(&img, &spec, Im2colLayout::ChannelLast, &mut got).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(bits(im2col(&img, &spec).unwrap().as_slice()), bits(&want));

            let q_img = Tensor::from_fn(&[c, h, w], |_| rng.gen::<u32>() as u8);
            let want = oracle(&q_img, &spec, zero_point);
            let mut got = vec![zero_point.wrapping_add(1); want.len()];
            im2col_q8_into(&q_img, zero_point, &spec, Im2colLayout::ChannelLast, &mut got)
                .unwrap();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn buffer_size_checked() {
        let spec = ConvSpec::new(1, 1, 2, 2);
        let img = rand_image(1, 4, 4, 5);
        let mut small = vec![0.0f32; 3];
        assert!(im2col_into(&img, &spec, Im2colLayout::ChannelLast, &mut small).is_err());
    }

    #[test]
    fn rejects_channel_mismatch() {
        let spec = ConvSpec::new(4, 1, 2, 2);
        let img = rand_image(2, 4, 4, 6);
        assert!(im2col(&img, &spec).is_err());
    }

    #[test]
    fn fused_permuted_matches_eager() {
        use crate::Permutation;
        let spec = ConvSpec::new(3, 1, 3, 3).with_padding(1);
        let img = rand_image(3, 6, 6, 77);
        let default = im2col(&img, &spec).unwrap();
        let mut rng = SmallRng::seed_from_u64(78);
        let perm = Permutation::random(spec.patch_len(), &mut rng);
        let eager = perm.apply_cols(&default).unwrap();
        let (oh, ow) = spec.output_hw(6, 6).unwrap();
        let mut fused = vec![0.0f32; oh * ow * spec.patch_len()];
        im2col_permuted(&img, &spec, &perm, &mut fused).unwrap();
        assert_eq!(eager.as_slice(), &fused[..]);
    }

    #[test]
    fn fused_permuted_identity_is_plain_im2col() {
        use crate::Permutation;
        let spec = ConvSpec::new(2, 1, 2, 2);
        let img = rand_image(2, 4, 4, 79);
        let default = im2col(&img, &spec).unwrap();
        let (oh, ow) = spec.output_hw(4, 4).unwrap();
        let mut fused = vec![0.0f32; oh * ow * spec.patch_len()];
        im2col_permuted(
            &img,
            &spec,
            &Permutation::identity(spec.patch_len()),
            &mut fused,
        )
        .unwrap();
        assert_eq!(default.as_slice(), &fused[..]);
    }

    #[test]
    fn fused_permuted_validates() {
        use crate::Permutation;
        let spec = ConvSpec::new(1, 1, 2, 2);
        let img = rand_image(1, 4, 4, 80);
        let mut small = vec![0.0f32; 3];
        let id = Permutation::identity(4);
        assert!(im2col_permuted(&img, &spec, &id, &mut small).is_err());
        let wrong = Permutation::identity(5);
        let mut buf = vec![0.0f32; 9 * 4];
        assert!(im2col_permuted(&img, &spec, &wrong, &mut buf).is_err());
    }
}
