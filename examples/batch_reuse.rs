//! Batch (pattern-3) reuse: reuse units spanning several images via
//! batch row-interleaving (Fig. 4 pattern-3 / Fig. 6(e) row reorder).
//!
//! Run with:
//! ```text
//! cargo run --release -p greuse-examples --bin batch_reuse
//! ```

use greuse::{execute_reuse_batch, AdaptedHashProvider, BatchStacking, ReusePattern};
use greuse_data::SyntheticDataset;
use greuse_tensor::{gemm_f32, im2col, ConvSpec, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ConvSpec::new(3, 32, 5, 5).with_padding(2);
    let mut rng = SmallRng::seed_from_u64(3);
    let weights = Tensor::from_fn(&[32, spec.patch_len()], |_| rng.gen_range(-0.4f32..0.4));

    println!("batch reuse across consecutive frames");
    // Consecutive frames of a static scene: nearly identical images.
    let camera = SyntheticDataset::cifar_like(7);
    let base = camera.generate(1, 5).remove(0).0;
    let frames: Vec<Tensor<f32>> = (0..4)
        .map(|_| {
            let mut f = base.clone();
            for v in f.as_mut_slice() {
                *v += rng.gen_range(-0.01..0.01);
            }
            im2col(&f, &spec).expect("im2col")
        })
        .collect();
    // 2-D neuron blocks couple consecutive rows, so the stacking order
    // decides whether a block spans one frame or two (pattern-3).
    let pattern = ReusePattern::conventional(25, 8).with_block_rows(2);
    let hashes = AdaptedHashProvider::new();
    for stacking in [BatchStacking::Sequential, BatchStacking::Interleaved] {
        let (ys, out) = execute_reuse_batch(&frames, &weights, &pattern, &hashes, stacking)?;
        // Error vs exact per-frame GEMM.
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for (x, y) in frames.iter().zip(ys.iter()) {
            let exact = gemm_f32(x, &weights.transpose())?;
            for (a, b) in exact.as_slice().iter().zip(y.as_slice()) {
                err += f64::from(a - b).powi(2);
                norm += f64::from(*a).powi(2);
            }
        }
        println!(
            "  {:?}: r_t = {:.3}, relative error = {:.2e}",
            stacking,
            out.stats.redundancy_ratio,
            (err / norm).sqrt()
        );
    }
    // Clustering runs over the whole stack, so sequential blocks already
    // match the same block of the other frames; interleaving changes only
    // which rows share a block, and on these frames does not raise r_t.
    println!("\ninterleaved 2-row blocks span the same position of two frames (pattern-3);");
    println!("sequential blocks span adjacent rows of one frame.");
    Ok(())
}
