//! Host-speed reference: a fixed kernel owned by the benchmark, not by
//! the program under test, timed right before every measured item on
//! the same CPU.
//!
//! On a shared VM the vCPU's speed swings by up to 1.7× over seconds
//! (the physical core's other hyperthread, turbo, memory traffic of
//! neighbours), and CPU time cannot see that: the process is charged for
//! every cycle it ran, however slowly. The reference kernel slows down
//! with the host, so an item's CPU time scaled by
//! `NOMINAL_MS / reference time` is its CPU time at a fixed host speed.
//! The kernel mixes the two kinds of work the workloads do: packed-GEMM
//! style FMA on cache-resident panels, and im2col-style strided copies
//! and streaming reads over a few MiB. Every part is limited by
//! throughput, as the workloads are; a part limited by the latency of
//! one dependency chain barely slows when the host does. Because the
//! kernel is the benchmark's own code, a change to the program never
//! moves it.

use std::hint::black_box;

use crate::clock::process_cpu_ns;

/// CPU milliseconds the reference kernel takes at nominal host speed
/// (its fast-state time on a 2.1 GHz Sapphire Rapids KVM guest).
/// Reported times are scaled to it.
pub const NOMINAL_MS: f64 = 0.36;

/// The host speed factor of a reference run that took `ms`: 1.0 at
/// nominal speed, below 1 when the host runs slow.
pub fn speed_of(ms: f64) -> f64 {
    NOMINAL_MS / ms.max(1e-6)
}

/// Dimension of the scalar matrix product.
const N: usize = 64;
/// Packed panels of the FMA kernel: `PANELS` × (4 × `K` + 8 × `K`) floats.
const PANELS: usize = 16;
const K: usize = 256;
/// Plane of the strided copy.
const PLANE_W: usize = 512;
const PLANE_H: usize = 256;
/// Floats streamed once per run (1 MiB).
const STREAM: usize = 1 << 18;

/// The reference kernel's operands, allocated once.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    pa: Vec<f32>,
    pb: Vec<f32>,
    plane: Vec<f32>,
    cols: Vec<f32>,
    stream: Vec<f32>,
}

fn filled(len: usize, k: f32) -> Vec<f32> {
    (0..len).map(|i| ((i % 97) as f32 * k).sin()).collect()
}

impl Reference {
    /// Allocates and fills the operands.
    pub fn new() -> Self {
        Reference {
            a: filled(N * N, 0.13),
            b: filled(N * N, 0.29),
            c: vec![0.0; N * N],
            pa: filled(PANELS * 4 * K, 0.11),
            pb: filled(PANELS * 8 * K, 0.23),
            plane: filled(PLANE_W * (PLANE_H + 2), 0.31),
            cols: vec![0.0; PLANE_H * PLANE_W / 2 * 3],
            stream: filled(STREAM, 0.07),
        }
    }

    /// Runs the kernel once and returns its CPU milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let t0 = process_cpu_ns();
        self.matmul();
        self.fma();
        self.strided();
        black_box(self.stream_sum());
        (process_cpu_ns() - t0) as f64 * 1e-6
    }

    /// Sums the stream into 32 independent lanes, so the adds run at
    /// load throughput. A serial `f32` sum is one chain of dependent
    /// adds; it measures add latency, which a slow host barely moves.
    fn stream_sum(&self) -> f32 {
        let mut lanes = [0.0f32; 32];
        for chunk in self.stream.chunks_exact(32) {
            for (lane, v) in lanes.iter_mut().zip(chunk) {
                *lane += v;
            }
        }
        lanes.iter().sum()
    }

    /// Scalar 64³ matrix product, four times.
    fn matmul(&mut self) {
        for _ in 0..4 {
            self.c.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for (c, b) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *c += aik * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
    }

    /// A 4×8 register-blocked FMA sweep over packed panels, four times.
    fn fma(&self) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports AVX2 and FMA (checked above), and
            // the panels hold exactly PANELS · 4K and PANELS · 8K floats.
            unsafe { fma_panels(&self.pa, &self.pb) };
        }
    }

    /// im2col-style gather: three rows of a 3-wide window per output.
    fn strided(&mut self) {
        let mut o = 0;
        for r in 0..PLANE_H {
            for c in (0..PLANE_W - 2).step_by(2) {
                for dy in 0..3 {
                    let base = (r + dy) * PLANE_W + c;
                    self.cols[o] = self.plane[base] + self.plane[base + 2];
                    o += 1;
                }
            }
        }
        black_box(&mut self.cols);
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA, `pa` must hold `PANELS · 4 · K`
/// floats and `pb` `PANELS · 8 · K` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_panels(pa: &[f32], pb: &[f32]) {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
    };
    let mut acc = [_mm256_setzero_ps(); 8];
    for _ in 0..4 {
        for (a, b) in pa.chunks_exact(4 * K).zip(pb.chunks_exact(8 * K)) {
            for k in 0..K {
                // SAFETY: `k * 8 + 8 <= 8K = b.len()`.
                let bv = _mm256_loadu_ps(b.as_ptr().add(k * 8));
                for r in 0..4 {
                    let av = _mm256_broadcast_ss(&a[k * 4 + r]);
                    acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                    acc[r + 4] = _mm256_fmadd_ps(av, bv, acc[r + 4]);
                }
            }
        }
        black_box(&mut acc);
    }
}

/// Pins this process (every thread it has and will start) to the CPU it
/// runs on now, so the reference kernel and the measured work share one
/// CPU and therefore one host speed. Returns the CPU, or `None` when
/// pinning is not possible.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1u64 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is
    // the calling thread, whose mask new threads inherit.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let mut r = Reference::new();
        let s = speed_of(r.run_ms());
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
