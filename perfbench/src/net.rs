//! The whole-network workloads: image in, logits out, one image at a
//! time on one thread, through the backend each workload names.

use std::collections::HashMap;

use greuse::serve::checksum_f32;
use greuse::workflow::network_latency;
use greuse::{
    GuardConfig, LatencyModel, LayerStats, QuantizedBackend, RandomHashProvider, ReuseBackend,
    ReusePattern,
};
use greuse_data::SyntheticDataset;
use greuse_mcu::Board;
use greuse_nn::models::{ZooModel, ZooScale};
use greuse_nn::{ptq_int8, ConvBackend, DenseBackend, Network, TrainableNetwork};
use greuse_tensor::Tensor;

use crate::calib::Reference;
use crate::phase::{cpu_timed, timed_setups, Phase, PhaseStats, RunConfig};
use crate::report::{argmax, end_to_end_metrics, rel_err, LayerValues, Report};
use crate::timed::{LayerTime, Timed};
use crate::{DATA_SEED, HASH_SEED, MODEL_SEED};

/// Which backend a workload runs every convolution through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `ReuseBackend`: f32 reuse on patterned layers, dense elsewhere.
    Reuse,
    /// `QuantizedBackend` after int8 PTQ: every layer int8, reuse on
    /// patterned layers.
    Quantized,
    /// `DenseBackend`: the packed f32 GEMM on every layer.
    Dense,
}

/// A whole-network workload definition.
#[derive(Debug, Clone, Copy)]
pub struct NetWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Network (always built at paper scale).
    pub model: ZooModel,
    /// Input generator.
    pub dataset: fn(u64) -> SyntheticDataset,
    /// Backend.
    pub backend: BackendKind,
    /// Reuse patterns, `(layer, L, H)` as `ReusePattern::conventional`,
    /// in execution order.
    pub patterns: &'static [(&'static str, usize, usize)],
    /// Distinct images cycled through the timed phase.
    pub images: usize,
}

enum Backend {
    Reuse(ReuseBackend<RandomHashProvider>),
    Quantized(QuantizedBackend<RandomHashProvider>),
    Dense(DenseBackend),
}

impl Backend {
    fn build(w: &NetWorkload) -> Self {
        let patterns = w
            .patterns
            .iter()
            .map(|&(layer, l, h)| (layer, ReusePattern::conventional(l, h)));
        // The guard recomputes a call densely when its measured r_t does
        // not clear the F469 break-even, and rejects non-finite operands.
        let guard = GuardConfig::strict();
        match w.backend {
            BackendKind::Reuse => Backend::Reuse(
                ReuseBackend::new(RandomHashProvider::new(HASH_SEED))
                    .with_guard(guard)
                    .with_patterns(patterns),
            ),
            BackendKind::Quantized => Backend::Quantized(
                QuantizedBackend::new(RandomHashProvider::new(HASH_SEED))
                    .with_guard(guard)
                    .with_patterns(patterns),
            ),
            BackendKind::Dense => Backend::Dense(DenseBackend),
        }
    }

    fn conv(&self) -> &dyn ConvBackend {
        match self {
            Backend::Reuse(b) => b,
            Backend::Quantized(b) => b,
            Backend::Dense(b) => b,
        }
    }

    fn stats(&self) -> HashMap<String, LayerStats> {
        match self {
            Backend::Reuse(b) => b.stats(),
            Backend::Quantized(b) => b.stats(),
            Backend::Dense(_) => HashMap::new(),
        }
    }

    fn reset_stats(&self) {
        match self {
            Backend::Reuse(b) => b.reset_stats(),
            Backend::Quantized(b) => b.reset_stats(),
            Backend::Dense(_) => {}
        }
    }
}

/// A network and backend ready to serve images.
struct Ready {
    net: Box<dyn TrainableNetwork>,
    backend: Backend,
}

/// Set-up: build the model, quantize it for int8, build the backend, and
/// run one warm-up image (hash families, workspace growth).
fn setup(w: &NetWorkload, warm: &Tensor<f32>) -> Result<Ready, String> {
    let mut net = w.model.build(ZooScale::Paper, 10, MODEL_SEED);
    if w.backend == BackendKind::Quantized {
        ptq_int8(net.as_mut()).map_err(|e| format!("ptq: {e}"))?;
    }
    let backend = Backend::build(w);
    net.forward(warm, backend.conv())
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(Ready { net, backend })
}

/// Verified outputs of one pass over the image set with the workload's
/// backend, next to the exact dense f32 reference.
struct Verified {
    checksums: Vec<u64>,
    failed: u64,
    top1_agree: f64,
    mean_rel_err: f64,
    stats: HashMap<String, LayerStats>,
}

fn verify(ready: &Ready, images: &[Tensor<f32>]) -> Verified {
    let Ready { net, backend } = ready;
    backend.reset_stats();
    let (mut failed, mut agree, mut err_sum) = (0u64, 0usize, 0.0f64);
    let mut checksums = Vec::with_capacity(images.len());
    for x in images {
        let out = net.forward(x, backend.conv());
        let reference = net.forward(x, &DenseBackend);
        match (out, reference) {
            (Ok(y), Ok(r)) if y.iter().all(|v| v.is_finite()) => {
                agree += usize::from(argmax(&y) == argmax(&r));
                err_sum += rel_err(&y, &r);
                checksums.push(checksum_f32(&y));
            }
            _ => {
                failed += 1;
                checksums.push(0);
            }
        }
    }
    let n = images.len().max(1) as f64;
    Verified {
        checksums,
        failed,
        top1_agree: agree as f64 / n,
        mean_rel_err: err_sum / n,
        stats: backend.stats(),
    }
}

/// Runs the timed loop over `images` through `conv`, counting an output
/// as failed unless it repeats its verified checksum bit for bit.
fn timed_loop(
    net: &dyn Network,
    conv: &dyn ConvBackend,
    images: &[Tensor<f32>],
    checksums: &[u64],
    seconds: f64,
    reference: Reference,
) -> (PhaseStats, u64, Reference) {
    let mut phase = Phase::start(seconds, reference);
    let mut failed = 0u64;
    let mut i = 0usize;
    while phase.running() {
        let k = i % images.len();
        let clock = phase.item();
        let out = net.forward(&images[k], conv);
        phase.done(clock, 1);
        if !matches!(&out, Ok(y) if checksum_f32(y) == checksums[k]) {
            failed += 1;
        }
        i += 1;
    }
    let (stats, reference) = phase.finish();
    (stats, failed, reference)
}

/// The workload's `n` input images for `seed`: drawn from the dataset's
/// fixed class dictionaries, with labels cycling through the classes.
pub fn images(w: &NetWorkload, seed: u64, n: usize) -> Vec<Tensor<f32>> {
    (w.dataset)(DATA_SEED)
        .generate(n, seed)
        .into_iter()
        .map(|(x, _)| x)
        .collect()
}

/// Runs one whole-network workload with `setups` set-ups (at least one)
/// and `n_images` distinct images (at least one).
pub fn run(w: &NetWorkload, cfg: &RunConfig, setups: usize, n_images: usize) -> Report {
    let mut reference = Reference::new();
    let (images, gen_s) = cpu_timed(&mut reference, || images(w, cfg.seed, n_images));

    let (ready, setup_s) = match timed_setups(&mut reference, setups, || setup(w, &images[0])) {
        Ok(r) => r,
        Err(e) => return Report::setup_failure(w.name, &e),
    };
    let verified = verify(&ready, &images);
    let mcu_ms = network_latency(ready.net.as_ref(), &verified.stats, Board::Stm32F469i);

    let mut notes = vec![format!(
        "{}: {} images (seed {}), {} patterned layers, setup {} runs",
        w.name,
        images.len(),
        cfg.seed,
        w.patterns.len(),
        setups
    )];
    notes.extend(pattern_notes(w, ready.net.as_ref(), &verified.stats));

    ready.backend.reset_stats();
    let half = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (plain, plain_failed, reference) = timed_loop(
        ready.net.as_ref(),
        ready.backend.conv(),
        &images,
        &verified.checksums,
        half,
        reference,
    );
    let mut report = Report {
        attempted: images.len() as u64 + plain.items as u64,
        failed: verified.failed + plain_failed,
        metrics: Vec::new(),
        notes,
    };
    if !cfg.trace {
        report.notes.push(plain.noise_note());
        report.metrics = end_to_end_metrics(
            setup_s,
            &plain,
            verified.top1_agree,
            verified.mean_rel_err,
            mcu_ms,
        );
        return report;
    }

    // Traced half: the same loop through the timing wrapper.
    ready.backend.reset_stats();
    let timed = Timed::new(ready.backend.conv());
    let (traced, traced_failed, _) = timed_loop(
        ready.net.as_ref(),
        &timed,
        &images,
        &verified.checksums,
        half,
        reference,
    );
    report.attempted += traced.items as u64;
    report.failed += traced_failed;
    report.notes.push(traced.noise_note());
    let layers = timed.layers();
    let values = LayerValues {
        mcu_ms,
        gen_s,
        untraced_p50: plain.cpu_ms_p50,
        ..layer_values(w, &ready, &verified, &traced, &layers)
    };
    report.metrics = values.metrics(&traced);
    report.notes.extend(layer_table(&layers, traced.items));
    report
}

/// The per-layer view of the traced half: executor stats of the
/// verified pass, backend times from the wrapper, modeled costs.
fn layer_values(
    w: &NetWorkload,
    ready: &Ready,
    verified: &Verified,
    traced: &PhaseStats,
    layers: &[LayerTime],
) -> LayerValues {
    let items = traced.items.max(1) as f64;
    // Layer CPU times are scaled to nominal host speed like item times.
    let per = |ns: u64| ns as f64 * 1e-6 * traced.scale() / items;
    let patterned = |name: &str| w.patterns.iter().any(|p| p.0 == name);
    let mut slots = [(0.0, 0.0); 2];
    for (slot, p) in slots.iter_mut().zip(w.patterns) {
        if let Some(s) = verified.stats.get(p.0).filter(|s| s.calls > 0) {
            *slot = (s.redundancy_ratio(), s.n_clusters as f64 / s.calls as f64);
        }
    }
    // Table 3 phase counts, mean per image over the verified pass.
    let ops = verified
        .stats
        .values()
        .map(LayerStats::mean_ops)
        .fold(greuse_mcu::PhaseOps::default(), |a, b| a.combined(&b));
    let exec_wall_ns: u64 = ready.backend.stats().values().map(|s| s.wall_ns).sum();
    let backend_ns: u64 = layers.iter().map(|l| l.cpu_ns).sum();
    let top = layers.iter().max_by_key(|l| l.cpu_ns);
    let (dense_macs, dense_ns) = layers
        .iter()
        .filter(|l| !patterned(&l.name))
        .fold((0u64, 0u64), |(m, t), l| (m + l.macs, t + l.cpu_ns));

    let net = ready.net.as_ref();
    let model = LatencyModel::new(Board::Stm32F469i);
    let mcu_top_ms = top.map_or(0.0, |l| match verified.stats.get(&l.name) {
        Some(s) if s.calls > 0 => model.from_ops(&s.mean_ops()).total_ms(),
        _ => net
            .conv_layers()
            .iter()
            .find(|i| i.name == l.name)
            .map_or(0.0, |i| {
                model.dense(i.gemm_n(), i.gemm_k(), i.gemm_m()).total_ms()
            }),
    });
    LayerValues {
        slots,
        ops,
        fallbacks: verified.stats.values().map(|s| s.fallbacks).sum(),
        exec_wall_share: exec_wall_ns as f64 * 1e-9 / traced.wall_s.max(f64::MIN_POSITIVE),
        backend_ms: per(backend_ns),
        backend_share: backend_ns as f64 * 1e-9 / traced.raw_cpu_s.max(f64::MIN_POSITIVE),
        top_ms: top.map_or(0.0, |l| per(l.cpu_ns)),
        allocs: traced.allocs as f64 / items,
        conv_calls: layers.iter().map(|l| l.calls).sum::<u64>() as f64 / items,
        dense_macs: dense_macs as f64 / items,
        dense_gmacs_per_cpu_s: if dense_ns == 0 {
            0.0
        } else {
            dense_macs as f64 / (dense_ns as f64 * traced.scale())
        },
        mcu_dense_ms: network_latency(net, &HashMap::new(), Board::Stm32F469i),
        mcu_top_ms,
        ..LayerValues::default()
    }
}

/// One line per patterned layer: shape, pattern, measured r_t against
/// the F469 break-even, and modeled cost.
fn pattern_notes(
    w: &NetWorkload,
    net: &dyn Network,
    stats: &HashMap<String, LayerStats>,
) -> Vec<String> {
    let model = LatencyModel::new(Board::Stm32F469i);
    let infos = net.conv_layers();
    w.patterns
        .iter()
        .map(|&(layer, l, h)| {
            let info = infos.iter().find(|i| i.name == layer);
            let (n, k, m) = info.map_or((0, 0, 0), |i| (i.gemm_n(), i.gemm_k(), i.gemm_m()));
            let s = stats.get(layer).copied().unwrap_or_default();
            let breakeven = h as f64 / m.max(1) as f64;
            format!(
                "  {layer} [{n}x{k}x{m}] L{l}/H{h}: r_t {:.4} (break-even {:.4}{}), \
                 F469 {:.3} ms reuse vs {:.3} ms dense, fallbacks {}",
                s.redundancy_ratio(),
                breakeven,
                if s.redundancy_ratio() > breakeven {
                    ""
                } else {
                    " NOT MET"
                },
                model.from_ops(&s.mean_ops()).total_ms(),
                model.dense(n, k, m).total_ms(),
                s.fallbacks
            )
        })
        .collect()
}

/// Host CPU per layer of the traced phase, most expensive first.
fn layer_table(layers: &[LayerTime], items: usize) -> Vec<String> {
    let mut sorted: Vec<&LayerTime> = layers.iter().collect();
    sorted.sort_by_key(|l| std::cmp::Reverse(l.cpu_ns));
    let items = items.max(1) as f64;
    sorted
        .iter()
        .take(8)
        .map(|l| {
            format!(
                "  layer {:<20} {:>8.3} ms/image CPU, {:>6.2} GMAC/s",
                l.name,
                l.cpu_ns as f64 * 1e-6 / items,
                l.macs as f64 / l.cpu_ns.max(1) as f64
            )
        })
        .collect()
}
