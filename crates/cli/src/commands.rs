//! CLI subcommand implementations.

use greuse::{
    workflow::reproduce::{reproduce_network, ReproduceConfig, ReproduceReport},
    workflow::{network_latency, select_patterns_for_layer, WorkflowConfig},
    AdaptedHashProvider, DeploymentPlan, ExecWorkspace, GuardConfig, GuardPolicy, LatencyModel,
    QuantWorkspace, QuantizedBackend, RandomHashProvider, ReuseBackend, ReusePattern, ReuseStats,
    Scope,
};
use greuse_bench::network::{bench_record, render_results_md};
use greuse_data::{FrameStream, SyntheticDataset};
use greuse_mcu::{inference_energy_mj, Board, PhaseOps};
use greuse_nn::{
    evaluate_accuracy, evaluate_dense, models::zoo::ZooModel, models::zoo::ZooScale, ptq_int8,
    StateDict, TrainableNetwork, Trainer, TrainerConfig,
};
use greuse_tensor::Tensor;
use std::collections::HashMap;

use crate::args::Options;

/// Top-level usage text.
pub const USAGE: &str = "\
greuse — generalized reuse patterns for DNN inference on MCUs

USAGE:
  greuse train    --model <cifarnet|zfnet|squeezenet|squeezenet-bypass|resnet18>
                  [--epochs N] [--samples N] [--out FILE]
  greuse eval     --model <...> [--weights FILE] [--reuse L,H | --plan FILE]
                  [--board f4|f7] [--samples N]
  greuse select   --model <...> [--weights FILE] --layer NAME
                  [--prune-to N] [--board f4|f7] [--plan-out FILE] [--all]
  greuse simulate --n N --k K --m M [--rt R] [--l L] [--h H] [--board f4|f7]
  greuse scope    --n N --k K
  greuse profile  --model <...> [--weights FILE] [--reuse L,H] [--samples N]
                  [--board f4|f7] [--out FILE] [--trace FILE] [--validate]
  greuse infer    --model <...> [--weights FILE] [--backend f32|int8]
                  [--reuse L,H] [--samples N] [--board f4|f7]
                  [--guard strict|sanitize|off]
  greuse stream   --n N --k K --m M [--frames N] [--rate R] [--distinct D]
                  [--l L] [--h H] [--backend f32|int8] [--no-cache]
                  [--board f4|f7] [--seed S] [--serve HOST:PORT]
                  [--watch] [--frame-delay-ms N]
  greuse serve    HOST:PORT [--model <...>] [--backend f32|int8] [--smoke]
                  [--max-batch N] [--max-delay-ms N] [--queue-cap N]
                  [--deadline-ms N] [--slo-ms N] [--window N] [--trip-after N]
                  [--cooldown-ms N] [--no-cache] [--distinct D] [--seed S]
  greuse bench-serve --addr HOST:PORT [--unloaded-rps R] [--secs S]
                  [--threads T] [--deadline-ms N] [--p99-budget X]
                  [--check] [--stop-server]
  greuse monitor  [--addr HOST:PORT] [--watch] [--interval-ms N] [--validate]
  greuse bench-compare --baseline FILE [--dir DIR] [--write-baseline FILE]
                  [--portable] [--perturb bench:metric:FACTOR]
  greuse reproduce [--smoke] [--out FILE] [--models a,b] [--no-check]
  greuse help";

type AnyNet = Box<dyn TrainableNetwork>;

fn build_model(name: &str, seed: u64) -> Result<AnyNet, String> {
    ZooModel::parse(name)
        .map(|m| m.build(ZooScale::Paper, 10, seed))
        .ok_or_else(|| format!("unknown model `{name}`"))
}

/// Synthetic dataset matching the network's input geometry (64×64 models
/// like ResNet-18 get the ImageNet-64-like generator).
fn dataset_for(net: &dyn TrainableNetwork, seed: u64) -> SyntheticDataset {
    if net.input_shape() == [3, 64, 64] {
        SyntheticDataset::imagenet64_like(seed)
    } else {
        SyntheticDataset::cifar_like(seed)
    }
}

fn board(opts: &Options) -> Board {
    match opts.get_or("board", "f4") {
        "f7" => Board::Stm32F767zi,
        _ => Board::Stm32F469i,
    }
}

fn load_weights(net: &mut dyn TrainableNetwork, opts: &Options) -> Result<(), String> {
    if let Some(path) = opts.get("weights") {
        let dict = StateDict::load(path).map_err(|e| e.to_string())?;
        dict.restore(net).map_err(|e| e.to_string())?;
        println!("loaded {} parameters from {path}", dict.param_count());
    }
    Ok(())
}

/// Parses `--guard strict|sanitize|off` into a backend [`GuardConfig`]
/// (fallback to the dense path is enabled whenever the policy is active).
fn parse_guard(opts: &Options) -> Result<GuardConfig, String> {
    match opts.get("guard") {
        None => Ok(GuardConfig::off()),
        Some(s) => s.parse::<GuardPolicy>().map(GuardConfig::from_policy),
    }
}

fn parse_reuse(opts: &Options) -> Result<Option<(usize, usize)>, String> {
    let Some(spec) = opts.get("reuse") else {
        return Ok(None);
    };
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 2 {
        return Err(format!("--reuse expects L,H (e.g. 20,3), got `{spec}`"));
    }
    let l = parts[0]
        .parse()
        .map_err(|_| format!("bad L in --reuse `{spec}`"))?;
    let h = parts[1]
        .parse()
        .map_err(|_| format!("bad H in --reuse `{spec}`"))?;
    Ok(Some((l, h)))
}

/// `greuse train` — train a model on synthetic data and save a state dict.
pub fn train(opts: &Options) -> Result<(), String> {
    let model = opts.require("model")?;
    let epochs: usize = opts.num("epochs", 3)?;
    let samples: usize = opts.num("samples", 200)?;
    let out = opts.get_or("out", "model.grsd");
    let mut net = build_model(model, opts.num("seed", 42u64)?)?;
    let (train_set, test_set) = dataset_for(net.as_ref(), opts.num("data-seed", 2024u64)?)
        .train_test(samples, samples / 4, 17);
    println!("training {model}: {epochs} epochs on {samples} synthetic images...");
    let mut trainer = Trainer::new(TrainerConfig::fast(epochs, 0.01));
    let report = trainer
        .train(net.as_mut(), &train_set)
        .map_err(|e| e.to_string())?;
    println!("final train accuracy: {:.3}", report.final_accuracy());
    let eval = evaluate_dense(net.as_ref(), &test_set).map_err(|e| e.to_string())?;
    println!("held-out accuracy:    {:.3}", eval.accuracy);
    StateDict::capture(net.as_mut())
        .save(out)
        .map_err(|e| e.to_string())?;
    println!("weights saved to {out}");
    Ok(())
}

/// `greuse eval` — accuracy + modeled latency, dense or under reuse.
pub fn eval(opts: &Options) -> Result<(), String> {
    let model = opts.require("model")?;
    let samples: usize = opts.num("samples", 80)?;
    let mut net = build_model(model, opts.num("seed", 42u64)?)?;
    load_weights(net.as_mut(), opts)?;
    let test = dataset_for(net.as_ref(), opts.num("data-seed", 2024u64)?).generate(samples, 18);
    let b = board(opts);
    if let Some(path) = opts.get("plan") {
        let plan = DeploymentPlan::load(path).map_err(|e| e.to_string())?;
        let backend = plan.to_backend(AdaptedHashProvider::new());
        let eval = evaluate_accuracy(net.as_ref(), &backend, &test).map_err(|e| e.to_string())?;
        let ms = network_latency(net.as_ref(), &backend.stats(), b);
        let dense_ms = network_latency(net.as_ref(), &HashMap::new(), b);
        println!(
            "plan {path} ({} layers): accuracy {:.3}, latency {ms:.1} ms on {b} ({:.2}x vs dense)",
            plan.len(),
            eval.accuracy,
            dense_ms / ms
        );
        for (layer, stats) in backend.stats() {
            println!("  {layer}: r_t = {:.3}", stats.redundancy_ratio());
        }
        return Ok(());
    }
    match parse_reuse(opts)? {
        None => {
            let eval = evaluate_dense(net.as_ref(), &test).map_err(|e| e.to_string())?;
            let ms = network_latency(net.as_ref(), &HashMap::new(), b);
            println!(
                "dense: accuracy {:.3}, latency {ms:.1} ms on {b}",
                eval.accuracy
            );
            println!(
                "energy per inference: {:.1} mJ",
                b.power().active_watts * ms
            );
        }
        Some((l, h)) => {
            let backend = {
                let mut bk = ReuseBackend::new(AdaptedHashProvider::new());
                for info in net.conv_layers() {
                    if info.gemm_k() >= 27 {
                        bk = bk.with_pattern(
                            info.name.clone(),
                            ReusePattern::conventional(l.min(info.gemm_k()), h),
                        );
                    }
                }
                bk
            };
            let eval =
                evaluate_accuracy(net.as_ref(), &backend, &test).map_err(|e| e.to_string())?;
            let ms = network_latency(net.as_ref(), &backend.stats(), b);
            let dense_ms = network_latency(net.as_ref(), &HashMap::new(), b);
            println!(
                "reuse L={l} H={h}: accuracy {:.3}, latency {ms:.1} ms on {b} ({:.2}x vs dense)",
                eval.accuracy,
                dense_ms / ms
            );
            for (layer, stats) in backend.stats() {
                println!("  {layer}: r_t = {:.3}", stats.redundancy_ratio());
            }
        }
    }
    Ok(())
}

/// `greuse select` — run the §4.3 workflow on one layer.
pub fn select(opts: &Options) -> Result<(), String> {
    let model = opts.require("model")?;
    let layer = opts.require("layer")?;
    let mut net = build_model(model, opts.num("seed", 42u64)?)?;
    load_weights(net.as_mut(), opts)?;
    let data = dataset_for(net.as_ref(), opts.num("data-seed", 2024u64)?);
    let (train_set, test_set) = data.train_test(8, opts.num("samples", 40)?, 19);
    let config = WorkflowConfig {
        scope: Scope::default_scope(),
        board: board(opts),
        prune_to: opts.num("prune-to", 5)?,
        profile_samples: 2,
        seed: 7,
        profile_adapted: true,
        deploy_adapted: true,
    };
    let sel = select_patterns_for_layer(net.as_ref(), layer, &train_set, &test_set, &config)
        .map_err(|e| e.to_string())?;
    println!(
        "{} candidates scored analytically; {} fully checked; timings: profile {:.2?}, prune {:.2?}, check {:.2?}",
        sel.evaluations.len(),
        sel.promising.len(),
        sel.timing.profiling,
        sel.timing.prune,
        sel.timing.full_check
    );
    if opts.flag("all") {
        println!("\nall analytic scores (sample error ascending):");
        let mut by_err: Vec<_> = sel.evaluations.iter().collect();
        by_err.sort_by(|a, b| a.sample_error.total_cmp(&b.sample_error));
        for e in by_err {
            println!(
                "  {:<28} err {:.1}  bound {:.1}  r_t {:.3}  predicted {:.2} ms",
                e.pattern.label(),
                e.sample_error,
                e.error_bound,
                e.redundancy_ratio,
                e.predicted_latency_ms
            );
        }
    }
    println!("\nPareto-optimal patterns for {layer}:");
    for &i in &sel.pareto {
        let e = &sel.evaluations[i];
        let m = e.measured.expect("pareto points are measured");
        println!(
            "  {:<28} accuracy {:.3}  latency {:.2} ms  r_t {:.3}",
            e.pattern.label(),
            m.accuracy,
            m.latency_ms,
            m.redundancy_ratio
        );
    }
    if let Some(path) = opts.get("plan-out") {
        let best = sel
            .best_accuracy()
            .ok_or("no measured pattern to write into the plan")?;
        let mut plan = DeploymentPlan::new(model);
        plan.set(layer, best.pattern);
        plan.save(path).map_err(|e| e.to_string())?;
        println!(
            "\nwrote {} ({} entry) — evaluate with `greuse eval --plan {}`",
            path,
            plan.len(),
            path
        );
    }
    Ok(())
}

/// `greuse simulate` — the latency/energy calculator for one layer.
pub fn simulate(opts: &Options) -> Result<(), String> {
    let n: usize = opts
        .require("n")?
        .parse()
        .map_err(|_| "--n expects a number")?;
    let k: usize = opts
        .require("k")?
        .parse()
        .map_err(|_| "--k expects a number")?;
    let m: usize = opts
        .require("m")?
        .parse()
        .map_err(|_| "--m expects a number")?;
    let b = board(opts);
    let model = LatencyModel::new(b);
    let dense = model.dense(n, k, m);
    println!("layer N={n} K={k} M={m} on {b}");
    println!(
        "dense:  {:.2} ms  ({:.2} mJ)",
        dense.total_ms(),
        inference_energy_mj(b, &dense)
    );
    let rt: f64 = opts.num("rt", 0.95)?;
    let l: usize = opts.num("l", (k / 4).clamp(1, 64))?;
    let h: usize = opts.num("h", 3)?;
    let pattern = ReusePattern::conventional(l.min(k), h);
    let reuse = model.predict(n, k, m, &pattern, rt);
    println!(
        "reuse (L={l}, H={h}, r_t={rt}): {:.2} ms  ({:.2} mJ)  -> {:.2}x speedup",
        reuse.total_ms(),
        inference_energy_mj(b, &reuse),
        dense.total_ms() / reuse.total_ms()
    );
    println!(
        "  phases: transform {:.2} / cluster {:.2} / gemm {:.2} / recover {:.2} ms",
        reuse.transform_ms, reuse.clustering_ms, reuse.gemm_ms, reuse.recover_ms
    );
    println!(
        "key condition H/D_out < r_t: {}",
        greuse::key_condition_holds(h, m, rt)
    );
    let spec = b.spec();
    let sram = greuse_mcu::activation_bytes(n, k, m, 1);
    match spec.check_memory(m * k, sram) {
        Ok(rep) => println!(
            "memory: flash {:.1}% / SRAM {:.1}%",
            rep.flash_utilization() * 100.0,
            rep.sram_utilization() * 100.0
        ),
        Err(e) => println!("memory: {e}"),
    }
    let _ = PhaseOps::default();
    Ok(())
}

/// `greuse profile` — run instrumented inference and emit both exporters:
/// the schema-versioned JSON snapshot and a Chrome trace-event file.
pub fn profile(opts: &Options) -> Result<(), String> {
    let model = opts.require("model")?;
    let samples: usize = opts.num("samples", 4)?;
    let out = opts.get_or("out", "profile.json");
    let trace_path = opts.get_or("trace", "trace.json");
    let b = board(opts);
    let mut net = build_model(model, opts.num("seed", 42u64)?)?;
    load_weights(net.as_mut(), opts)?;
    let (l, h) = parse_reuse(opts)?.unwrap_or((20, 3));
    // Every conv layer gets a pattern so every row of the report carries a
    // measured r_t — profiling wants coverage, not deployment heuristics.
    let mut backend = ReuseBackend::new(AdaptedHashProvider::new());
    for info in net.conv_layers() {
        backend = backend.with_pattern(
            info.name.clone(),
            ReusePattern::conventional(l.min(info.gemm_k()).max(1), h),
        );
    }
    let data =
        dataset_for(net.as_ref(), opts.num("data-seed", 2024u64)?).generate(samples.max(1), 21);

    // 1M-slot ring (~24 MB host memory): adapted hash families issue many
    // small packed GEMMs per panel, so span volume runs well past 100k
    // events per image. Overflow drops events (reported) rather than
    // growing, but a full ring means truncated phase timings.
    greuse_telemetry::install(1 << 20);
    // Warm-up pass: workspace growth, span-name interning and counter
    // registration all allocate lazily; run them outside the recording.
    net.forward(&data[0].0, &backend)
        .map_err(|e| e.to_string())?;
    backend.reset_stats();
    greuse_telemetry::reset();
    greuse_telemetry::enable();
    for (image, _) in &data {
        net.forward(image, &backend).map_err(|e| e.to_string())?;
    }
    greuse_telemetry::disable();

    let report = greuse::network_report(net.as_ref(), &backend, b, data.len() as u64);
    let json_text = report.to_json();
    let trace_text = greuse_telemetry::chrome_trace();
    if opts.flag("validate") {
        greuse::NetworkReport::validate_json(&json_text)
            .map_err(|e| format!("profile JSON failed schema validation: {e}"))?;
        greuse_telemetry::json::parse(&trace_text)
            .map_err(|e| format!("chrome trace is not valid JSON: {e}"))?;
        println!(
            "validated: report matches schema v{}",
            report.schema_version
        );
    }
    std::fs::write(out, &json_text).map_err(|e| format!("writing {out}: {e}"))?;
    std::fs::write(trace_path, &trace_text).map_err(|e| format!("writing {trace_path}: {e}"))?;

    println!(
        "profiled {model} on {} images (reuse L={l} H={h}, board {b})",
        report.samples
    );
    println!(
        "{:<12} {:>5} {:>8} {:>8} {:>9} {:>10} {:>10}  drift",
        "layer", "calls", "meas_rt", "pred_rt", "wall_ms", "meas_ms", "pred_ms"
    );
    for lr in &report.layers {
        println!(
            "{:<12} {:>5} {:>8.3} {:>8.3} {:>9.3} {:>10.3} {:>10.3}  {}",
            lr.layer,
            lr.calls,
            lr.measured_rt,
            lr.predicted_rt,
            lr.wall_ms,
            lr.measured_model_ms,
            lr.predicted_model_ms,
            if lr.drift_flagged {
                format!("DRIFT {:.0}%", lr.drift * 100.0)
            } else {
                format!("{:.0}%", lr.drift * 100.0)
            }
        );
    }
    if report.dropped_events > 0 {
        println!(
            "warning: {} spans dropped (event ring full); phase timings undercount",
            report.dropped_events
        );
    }
    println!("report -> {out}\ntrace  -> {trace_path} (chrome://tracing / perfetto)");
    Ok(())
}

/// `greuse infer` — run inference with a selectable numeric backend.
///
/// `--backend f32` (default) uses the exact dense path, or the f32 reuse
/// executor when `--reuse L,H` is given. `--backend int8` first snaps the
/// weights to the symmetric int8 grid (post-training quantization), then
/// routes every convolution through the quantized executor; with
/// `--reuse L,H` the patterned layers additionally run the int8 reuse
/// walk. Accuracy is always reported against the same synthetic set, and
/// int8 runs also report the worst logit deviation from the f32 dense
/// path so quantization drift is visible at the CLI.
pub fn infer(opts: &Options) -> Result<(), String> {
    let model = opts.require("model")?;
    let samples: usize = opts.num("samples", 16)?;
    let backend_name = opts.get_or("backend", "f32").to_string();
    let mut net = build_model(model, opts.num("seed", 42u64)?)?;
    load_weights(net.as_mut(), opts)?;
    let test = dataset_for(net.as_ref(), opts.num("data-seed", 2024u64)?).generate(samples, 23);
    let reuse = parse_reuse(opts)?;
    let guard = parse_guard(opts)?;
    let b = board(opts);
    // Pattern assignment is shape-driven, so it can be computed up front
    // (PTQ below changes values, not layer geometry).
    let assigned: Vec<(String, ReusePattern)> = match reuse {
        None => Vec::new(),
        Some((l, h)) => net
            .conv_layers()
            .into_iter()
            .filter(|info| info.gemm_k() >= 27)
            .map(|info| {
                let l = l.min(info.gemm_k());
                (info.name, ReusePattern::conventional(l, h))
            })
            .collect(),
    };
    match backend_name.as_str() {
        "f32" => {
            let t0 = std::time::Instant::now();
            let (eval, stats) = match reuse {
                None => (
                    evaluate_dense(net.as_ref(), &test).map_err(|e| e.to_string())?,
                    HashMap::new(),
                ),
                Some(_) => {
                    let bk = ReuseBackend::new(AdaptedHashProvider::new())
                        .with_patterns(assigned.clone())
                        .with_guard(guard);
                    let eval =
                        evaluate_accuracy(net.as_ref(), &bk, &test).map_err(|e| e.to_string())?;
                    (eval, bk.stats())
                }
            };
            let per_image_ms = t0.elapsed().as_secs_f64() * 1e3 / samples.max(1) as f64;
            println!(
                "f32 backend: accuracy {:.3} on {samples} images ({per_image_ms:.2} ms/image host wall)",
                eval.accuracy
            );
            for (layer, s) in &stats {
                if s.fallbacks > 0 {
                    println!(
                        "  {layer}: r_t = {:.3} ({} dense fallbacks)",
                        s.redundancy_ratio(),
                        s.fallbacks
                    );
                } else {
                    println!("  {layer}: r_t = {:.3}", s.redundancy_ratio());
                }
            }
        }
        "int8" => {
            // Snap weights to the symmetric int8 grid before running, so
            // the executor's per-layer weight quantization is exact and a
            // second pass would be a no-op.
            let ptq = ptq_int8(net.as_mut()).map_err(|e| e.to_string())?;
            let worst = ptq.iter().map(|p| p.mean_abs_error).fold(0.0f32, f32::max);
            println!(
                "post-training quantization: {} layers snapped to int8 (worst mean |err| {worst:.2e})",
                ptq.len()
            );
            let bk = QuantizedBackend::new(AdaptedHashProvider::new())
                .with_patterns(assigned)
                .with_guard(guard);
            let t0 = std::time::Instant::now();
            let eval = evaluate_accuracy(net.as_ref(), &bk, &test).map_err(|e| e.to_string())?;
            let per_image_ms = t0.elapsed().as_secs_f64() * 1e3 / samples.max(1) as f64;
            let dense = evaluate_dense(net.as_ref(), &test).map_err(|e| e.to_string())?;
            let mut max_dev = 0.0f32;
            if let Some((image, _)) = test.first() {
                let a = net.forward(image, &bk).map_err(|e| e.to_string())?;
                let d = net
                    .forward(image, &greuse_nn::DenseBackend)
                    .map_err(|e| e.to_string())?;
                for (x, y) in a.iter().zip(d.iter()) {
                    max_dev = max_dev.max((x - y).abs());
                }
            }
            println!(
                "int8 backend: accuracy {:.3} on {samples} images ({per_image_ms:.2} ms/image host wall)",
                eval.accuracy
            );
            println!(
                "  f32 dense accuracy {:.3}; max logit deviation on first image {max_dev:.4}",
                dense.accuracy
            );
            for (layer, s) in &bk.stats() {
                // Per-image int8 latency from the MCU model's dual-MAC /
                // half-bandwidth factors, using the recorded phase ops.
                let ms = b.spec().latency_int8(&s.ops).total_ms() / s.calls.max(1) as f64;
                if s.fallbacks > 0 {
                    println!(
                        "  {layer}: r_t = {:.3}, modeled int8 latency {ms:.2} ms/image on {b} ({} dense fallbacks)",
                        s.redundancy_ratio(),
                        s.fallbacks
                    );
                } else {
                    println!(
                        "  {layer}: r_t = {:.3}, modeled int8 latency {ms:.2} ms/image on {b}",
                        s.redundancy_ratio()
                    );
                }
            }
        }
        other => {
            return Err(format!(
                "unknown backend `{other}` (expected `f32` or `int8`)"
            ))
        }
    }
    Ok(())
}

/// `greuse stream` — run a correlated frame stream through the reuse
/// executor with the temporal (cross-call) cache and report warm-path
/// behaviour: cache hit/miss/invalidate counters, the warm-hit fraction,
/// host wall time split into cold (first frames) and steady state,
/// per-layer latency percentiles (warm vs cold) from the metrics
/// registry, and the modeled on-device latency of dense vs. fused vs.
/// streamed execution. `--no-cache` disables the cache for A/B
/// comparison; results are bit-identical either way (hits are validated
/// by exact data comparison), only the cost changes.
///
/// `--serve HOST:PORT` exposes the live metrics registry at
/// `http://HOST:PORT/metrics` (Prometheus text format) for the duration
/// of the run; `--frame-delay-ms` paces the stream so there is
/// something to scrape, and `--watch` prints live percentiles as the
/// stream advances (see also `greuse monitor --watch`).
pub fn stream(opts: &Options) -> Result<(), String> {
    let n: usize = opts.num("n", 256)?;
    let k: usize = opts.num("k", 96)?;
    let m: usize = opts.num("m", 64)?;
    let frames: usize = opts.num("frames", 30)?.max(3);
    let rate: f64 = opts.num("rate", 0.05)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--rate must be in [0, 1], got {rate}"));
    }
    let distinct: usize = opts.num("distinct", 32usize.min(n))?;
    let l: usize = opts.num("l", 24)?.min(k).max(1);
    let h: usize = opts.num("h", 4)?;
    let seed: u64 = opts.num("seed", 42u64)?;
    let backend_name = opts.get_or("backend", "f32").to_string();
    let cache_on = !opts.flag("no-cache");
    let watch = opts.flag("watch");
    let frame_delay_ms: u64 = opts.num("frame-delay-ms", 0u64)?;
    let b = board(opts);

    // Live metrics: distributions record only while capture is on.
    greuse_telemetry::reset();
    greuse_telemetry::enable();
    let server = match opts.get("serve") {
        None => None,
        Some(addr) => {
            let srv = greuse_telemetry::http::serve(addr)
                .map_err(|e| greuse::serve::bind_error(addr, &e).to_string())?;
            println!("serving metrics at http://{}/metrics", srv.local_addr());
            Some(srv)
        }
    };

    let pattern = ReusePattern::conventional(l, h);
    // Tile width == panel width L, so one perturbed tile maps to exactly
    // one cache panel.
    let mut frames_src = FrameStream::new(n, k, distinct.clamp(1, n), l, rate, seed);
    let w = Tensor::from_fn(&[m, k], |i| ((i % 37) as f32 * 0.29).cos());
    let hashes = RandomHashProvider::new(seed);
    let mut y = vec![0.0f32; n * m];
    let mut total = ReuseStats::default();
    // Frames 1-2 are structurally cold (family caching + first cache
    // store); steady state is everything after.
    let mut cold_ms = 0.0f64;
    let mut steady_ms = 0.0f64;
    let mut exec_f32 = ExecWorkspace::new();
    let mut exec_q8 = QuantWorkspace::new();
    match backend_name.as_str() {
        "f32" => exec_f32.set_temporal_cache(cache_on),
        "int8" => exec_q8.set_temporal_cache(cache_on),
        other => {
            return Err(format!(
                "unknown backend `{other}` (expected `f32` or `int8`)"
            ))
        }
    }
    for frame in 0..frames {
        let x =
            Tensor::from_vec(frames_src.frame().to_vec(), &[n, k]).map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let stats = match backend_name.as_str() {
            "f32" => exec_f32
                .execute_into(&x, &w, None, &pattern, &hashes, "stream", &mut y)
                .map_err(|e| e.to_string())?,
            _ => exec_q8
                .execute_into(&x, &w, Some(&pattern), &hashes, "stream", &mut y)
                .map_err(|e| e.to_string())?,
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if frame < 2 {
            cold_ms += ms;
        } else {
            steady_ms += ms;
        }
        total.merge(&stats);
        frames_src.advance();
        if frame_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(frame_delay_ms));
        }
        if watch && (frame % 10 == 9 || frame + 1 == frames) {
            let line = latency_snapshot("stream", &backend_name, "warm")
                .map(|s| {
                    format!(
                        "warm p50 {:.1} us, p95 {:.1} us, p99 {:.1} us over {} frames",
                        s.quantile(0.5) as f64 / 1e3,
                        s.quantile(0.95) as f64 / 1e3,
                        s.quantile(0.99) as f64 / 1e3,
                        s.count
                    )
                })
                .unwrap_or_else(|| "no warm frames yet".into());
            println!(
                "  frame {:>4}/{frames}: warm-hit fraction {:.3}; {line}",
                frame + 1,
                total.warm_hit_fraction()
            );
        }
    }
    greuse_telemetry::disable();

    let warm_frac = total.warm_hit_fraction();
    println!(
        "stream N={n} K={k} M={m} L={l} H={h}: {frames} frames at perturbation rate {rate} \
         ({} backend, cache {})",
        backend_name,
        if cache_on { "on" } else { "off" }
    );
    println!(
        "  r_t = {:.3}; cache: {} hits / {} misses / {} invalidations (warm-hit fraction {:.3})",
        total.redundancy_ratio,
        total.cache_hits,
        total.cache_misses,
        total.cache_invalidations,
        warm_frac
    );
    println!(
        "  host wall: cold {:.3} ms/frame (first 2), steady {:.3} ms/frame (last {})",
        cold_ms / 2.0,
        steady_ms / (frames - 2) as f64,
        frames - 2
    );
    let model = LatencyModel::new(b);
    let dense = model.dense(n, k, m).total_ms();
    let fused = model
        .predict_fused(n, k, m, &pattern, total.redundancy_ratio)
        .total_ms();
    let streamed = model
        .predict_streamed(n, k, m, &pattern, total.redundancy_ratio, warm_frac)
        .total_ms();
    println!(
        "  modeled on {b}: dense {dense:.2} ms, fused {fused:.2} ms ({:.2}x), \
         streamed {streamed:.2} ms ({:.2}x)",
        dense / fused,
        dense / streamed
    );

    // Per-layer latency percentiles from the metrics registry: the warm
    // (fully cache-hit) mode against the cold modes (the first call,
    // which builds the hash families, and fused cache-miss frames), plus
    // the per-panel hit/miss split.
    println!("  per-layer latency (layer \"stream\", backend {backend_name}):");
    for mode in ["warm", "fused", "build"] {
        match latency_snapshot("stream", &backend_name, mode) {
            Some(s) => println!(
                "    {:<6} {:>6} frames: p50 {:>9.1} us  p95 {:>9.1} us  p99 {:>9.1} us  max {:>9.1} us",
                mode,
                s.count,
                s.quantile(0.5) as f64 / 1e3,
                s.quantile(0.95) as f64 / 1e3,
                s.quantile(0.99) as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            ),
            None => println!("    {mode:<6}      0 frames"),
        }
    }
    for result in ["hit", "miss"] {
        let key = format!("cache.panel_latency{{backend=\"{backend_name}\",result=\"{result}\"}}");
        if let Some(s) = greuse_telemetry::metrics::snapshot()
            .hists
            .into_iter()
            .find(|s| s.key == key && s.count > 0)
        {
            println!(
                "    panel {result:<4} {:>8} panels: p50 {:>7.2} us  p99 {:>7.2} us",
                s.count,
                s.quantile(0.5) as f64 / 1e3,
                s.quantile(0.99) as f64 / 1e3,
            );
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

/// Snapshot of one `exec.layer_latency` series, if it recorded anything.
fn latency_snapshot(
    layer: &str,
    backend: &str,
    mode: &str,
) -> Option<greuse_telemetry::metrics::HistSnapshot> {
    let key =
        format!("exec.layer_latency{{layer=\"{layer}\",backend=\"{backend}\",mode=\"{mode}\"}}");
    greuse_telemetry::metrics::snapshot()
        .hists
        .into_iter()
        .find(|s| s.key == key && s.count > 0)
}

/// `greuse monitor` — scrape a live `/metrics` endpoint (typically one
/// exposed by `greuse stream --serve`).
///
/// Default (or `--once`): fetch once and print the Prometheus text
/// body. `--watch` refreshes a terminal view of the sample lines every
/// `--interval-ms` until the endpoint goes away or the process is
/// interrupted. `--validate` additionally checks the body against the
/// Prometheus text exposition grammar and fails on violations.
pub fn monitor(opts: &Options) -> Result<(), String> {
    let addr = opts.get_or("addr", "127.0.0.1:9898");
    let interval_ms: u64 = opts.num("interval-ms", 1000u64)?;
    let validate = opts.flag("validate");
    let watch = opts.flag("watch");
    let fetch = || -> Result<String, String> {
        let (status, body) = greuse_telemetry::http::get(addr, "/metrics")
            .map_err(|e| format!("fetching http://{addr}/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("http://{addr}/metrics returned HTTP {status}"));
        }
        if validate {
            greuse_telemetry::prom::validate(&body)
                .map_err(|e| format!("/metrics body violates the Prometheus text format: {e}"))?;
        }
        Ok(body)
    };
    if !watch {
        let body = fetch()?;
        print!("{body}");
        if validate {
            println!("# body is valid Prometheus text format");
        }
        return Ok(());
    }
    let mut refreshes = 0u64;
    loop {
        let body = fetch()?;
        // ANSI clear + home: a terminal dashboard, not a scrollback log.
        print!("\x1b[2J\x1b[H");
        println!(
            "greuse monitor — http://{addr}/metrics (refresh {refreshes}, every {interval_ms} ms; ctrl-c to quit)\n"
        );
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            println!("{line}");
        }
        refreshes += 1;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One tolerance band of a bench-compare baseline.
struct Band {
    value: f64,
    rel_tol: f64,
    abs_tol: f64,
    direction: String,
}

impl Band {
    /// Checks `current` against the band. `Ok(None)` means pass,
    /// `Ok(Some(msg))` an informational note, `Err(msg)` a regression.
    fn check(&self, current: f64) -> Result<Option<String>, String> {
        let slack = self.rel_tol * self.value.abs() + self.abs_tol;
        let delta = (current - self.value) / if self.value != 0.0 { self.value } else { 1.0 };
        let detail = format!(
            "baseline {:.6} -> current {:.6} ({:+.1}%)",
            self.value,
            current,
            delta * 100.0
        );
        match self.direction.as_str() {
            "higher" if current < self.value - slack => {
                Err(format!("regressed below band: {detail}"))
            }
            "lower" if current > self.value + slack => {
                Err(format!("regressed above band: {detail}"))
            }
            "equal" if (current - self.value).abs() > slack => {
                Err(format!("drifted out of band: {detail}"))
            }
            "info" => Ok(Some(detail)),
            _ => Ok(None),
        }
    }
}

/// Derives the default tolerance band for a metric from its name. In
/// `portable` mode, machine-dependent wall-clock and throughput metrics
/// are demoted to informational so a committed baseline stays
/// meaningful across hosts, while deterministic quantities and
/// relative speedups keep enforcement.
fn default_band(key: &str, value: f64, portable: bool) -> Band {
    let band = |direction: &str, rel_tol: f64, abs_tol: f64| Band {
        value,
        rel_tol,
        abs_tol,
        direction: direction.into(),
    };
    if key == "allocs_per_call" {
        // Zero-alloc steady state is exact, not a noisy measurement.
        return band("lower", 0.0, 0.0);
    }
    if key.contains("fraction") || key.contains("redundancy") {
        // Seeded and deterministic: drift means behaviour changed.
        return band("equal", 0.02, 1e-9);
    }
    if key.contains("modeled_ms") || key.contains("f4_over_f7") {
        // MCU-model latencies derive from seeded operation counts, not
        // wall clocks — enforceable even in portable baselines.
        return band("equal", 0.05, 1e-6);
    }
    if key.contains("accuracy") {
        // Seeded data + seeded weights: allow one test-image flip at the
        // smoke split size, fail on anything larger.
        return band("equal", 0.0, 0.17);
    }
    if key.ends_with("_ns") || key.ends_with("_secs") || key.ends_with("_ms") {
        return if portable {
            band("info", 0.0, 0.0)
        } else {
            band("lower", 0.08, 0.0)
        };
    }
    if key.contains("per_sec") || key.contains("gflops") {
        return if portable {
            band("info", 0.0, 0.0)
        } else {
            band("higher", 0.25, 0.0)
        };
    }
    if key.contains("over") || key.contains("speedup") {
        let rel = if portable { 0.40 } else { 0.25 };
        return band("higher", rel, 0.0);
    }
    band("info", 0.0, 0.0)
}

/// `greuse bench-compare` — diff the current `BENCH_*.json` records in
/// `--dir` against a baseline with per-metric tolerance bands, exiting
/// nonzero on any regression.
///
/// `--write-baseline FILE` instead generates a baseline from the
/// current records (with `--portable` demoting machine-dependent
/// absolute numbers to informational). `--perturb bench:metric:FACTOR`
/// multiplies one current value before comparison — a synthetic
/// regression for self-testing the gate.
pub fn bench_compare(opts: &Options) -> Result<(), String> {
    use greuse_telemetry::json::{self, Value};
    let dir = opts.get_or("dir", ".");
    let portable = opts.flag("portable");
    let read_bench = |bench: &str| -> Result<Value, String> {
        let path = format!("{dir}/BENCH_{bench}.json");
        let src = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let v = json::parse(&src).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        match v.get("schema_version").and_then(Value::as_u64) {
            Some(1) => Ok(v),
            Some(other) => Err(format!("{path}: schema version {other}, expected 1")),
            None => Err(format!("{path}: not a schema-versioned bench record")),
        }
    };

    if let Some(out) = opts.get("write-baseline") {
        // Collect every schema-1 record in the directory.
        let mut benches: Vec<(String, Value)> = Vec::new();
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("reading {dir}: {e}"))?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|f| {
                f.strip_prefix("BENCH_")
                    .and_then(|s| s.strip_suffix(".json"))
                    .map(String::from)
            })
            .collect();
        entries.sort();
        for bench in entries {
            match read_bench(&bench) {
                Ok(v) => benches.push((bench, v)),
                Err(e) => eprintln!("warning: skipping {bench}: {e}"),
            }
        }
        if benches.is_empty() {
            return Err(format!("no schema-versioned BENCH_*.json records in {dir}"));
        }
        let mut body = String::from("{\n  \"schema_version\": 1,\n  \"benches\": {\n");
        for (bi, (bench, v)) in benches.iter().enumerate() {
            body.push_str(&format!("    {}: {{\n", json::quote(bench)));
            let params: Vec<(String, f64)> = map_entries(v.get("params"));
            body.push_str("      \"params\": {");
            let rendered: Vec<String> = params
                .iter()
                .map(|(key, val)| format!("{}: {val}", json::quote(key)))
                .collect();
            body.push_str(&rendered.join(", "));
            body.push_str("},\n      \"metrics\": {\n");
            let metrics: Vec<(String, f64)> = map_entries(v.get("metrics"));
            let rendered: Vec<String> = metrics
                .iter()
                .map(|(key, val)| {
                    let band = default_band(key, *val, portable);
                    format!(
                        "        {}: {{\"value\": {val}, \"rel_tol\": {}, \"abs_tol\": {}, \"direction\": {}}}",
                        json::quote(key),
                        band.rel_tol,
                        band.abs_tol,
                        json::quote(&band.direction)
                    )
                })
                .collect();
            body.push_str(&rendered.join(",\n"));
            body.push_str("\n      }\n    }");
            body.push_str(if bi + 1 < benches.len() { ",\n" } else { "\n" });
        }
        body.push_str("  }\n}\n");
        json::parse(&body).map_err(|e| format!("generated baseline is invalid JSON: {e}"))?;
        std::fs::write(out, &body).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote baseline {out} covering {} benches{}",
            benches.len(),
            if portable { " (portable bands)" } else { "" }
        );
        return Ok(());
    }

    let baseline_path = opts.require("baseline")?;
    let perturb = match opts.get("perturb") {
        None => None,
        Some(spec) => {
            let parts: Vec<&str> = spec.split(':').collect();
            let [bench, metric, factor] = parts.as_slice() else {
                return Err(format!(
                    "--perturb expects bench:metric:FACTOR, got `{spec}`"
                ));
            };
            let factor: f64 = factor
                .parse()
                .map_err(|_| format!("bad factor in --perturb `{spec}`"))?;
            Some((bench.to_string(), metric.to_string(), factor))
        }
    };
    let src = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading baseline {baseline_path}: {e}"))?;
    let base =
        json::parse(&src).map_err(|e| format!("baseline {baseline_path}: invalid JSON: {e}"))?;
    if base.get("schema_version").and_then(Value::as_u64) != Some(1) {
        return Err(format!(
            "baseline {baseline_path}: unsupported schema version"
        ));
    }
    let benches = base
        .get("benches")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("baseline {baseline_path}: missing `benches`"))?;

    let (mut checked, mut skipped) = (0usize, 0usize);
    let mut failures: Vec<String> = Vec::new();
    for (bench, spec) in benches {
        let current = read_bench(bench)?;
        for (key, want) in map_entries(spec.get("params")) {
            match current
                .get("params")
                .and_then(|p| p.get(&key))
                .and_then(Value::as_f64)
            {
                Some(got) if got == want => checked += 1,
                Some(got) => failures.push(format!(
                    "{bench}: param {key} mismatch (baseline {want}, current {got}) — \
                     runs are not comparable"
                )),
                None => failures.push(format!("{bench}: param {key} missing from current run")),
            }
        }
        let Some(metric_specs) = spec.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (key, bspec) in metric_specs {
            let band = Band {
                value: bspec
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("baseline {bench}.{key}: missing numeric `value`"))?,
                rel_tol: bspec.get("rel_tol").and_then(Value::as_f64).unwrap_or(0.0),
                abs_tol: bspec.get("abs_tol").and_then(Value::as_f64).unwrap_or(0.0),
                direction: bspec
                    .get("direction")
                    .and_then(Value::as_str)
                    .unwrap_or("info")
                    .to_string(),
            };
            let mut cur = current
                .get("metrics")
                .and_then(|ms| ms.get(key))
                .and_then(Value::as_f64);
            if cur.is_none() {
                // A nulled metric with a recorded handling note means
                // "unmeasurable on this host" (e.g. parallel speedup
                // with one hardware thread), not a regression.
                let handling = current
                    .get("notes")
                    .and_then(|ns| ns.get(&format!("{key}_handling")))
                    .and_then(Value::as_str);
                match handling {
                    Some(reason) => {
                        println!("SKIP  {bench}.{key}: {reason}");
                        skipped += 1;
                        continue;
                    }
                    None => {
                        failures.push(format!(
                            "{bench}: metric {key} missing without a handling note"
                        ));
                        continue;
                    }
                }
            }
            if let Some((pb, pm, factor)) = &perturb {
                if pb == bench && pm == key {
                    cur = cur.map(|v| v * factor);
                    println!("PERTURB {bench}.{key} by x{factor} (synthetic)");
                }
            }
            let cur = cur.expect("checked above");
            match band.check(cur) {
                Ok(None) => {
                    checked += 1;
                }
                Ok(Some(info)) => {
                    println!("INFO  {bench}.{key}: {info}");
                    checked += 1;
                }
                Err(msg) => failures.push(format!("{bench}.{key}: {msg}")),
            }
        }
    }
    for f in &failures {
        eprintln!("FAIL  {f}");
    }
    println!(
        "bench-compare: {checked} checks passed, {skipped} skipped, {} failed",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} metric(s) regressed against {baseline_path}",
            failures.len()
        ))
    }
}

/// Numeric entries of a JSON object, in file order.
fn map_entries(v: Option<&greuse_telemetry::json::Value>) -> Vec<(String, f64)> {
    use greuse_telemetry::json::Value;
    v.and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect()
        })
        .unwrap_or_default()
}

/// `greuse scope` — show the candidate space for a layer shape.
pub fn scope(opts: &Options) -> Result<(), String> {
    let n: usize = opts
        .require("n")?
        .parse()
        .map_err(|_| "--n expects a number")?;
    let k: usize = opts
        .require("k")?
        .parse()
        .map_err(|_| "--k expects a number")?;
    let default = Scope::default_scope();
    let conventional = Scope::conventional_scope();
    println!(
        "layer N={n} K={k}: default scope {} Cartesian -> {} valid candidates; conventional scope {} valid",
        default.cartesian_size(),
        default.candidates(n, k).len(),
        conventional.candidates(n, k).len()
    );
    for c in default.candidates(n, k).iter().take(10) {
        println!("  {c}");
    }
    println!("  ...");
    Ok(())
}

/// `greuse reproduce` — the whole-network reproduction sweep: every zoo
/// model through train/surrogate → int8 PTQ → §4.3 selection → MCU-model
/// measurement on both boards. Writes the markdown report (`--out`,
/// default `RESULTS.md`) and `BENCH_network.json`, then gates on the
/// paper's shape unless `--no-check` is given.
pub fn reproduce(opts: &Options) -> Result<(), String> {
    let config = if opts.flag("smoke") {
        ReproduceConfig::smoke()
    } else {
        ReproduceConfig::full()
    };
    let out = opts.get_or("out", "RESULTS.md");
    let models: Vec<ZooModel> = match opts.get("models") {
        Some(list) => list.split(',').filter_map(ZooModel::parse).collect(),
        None => ZooModel::all().to_vec(),
    };
    if models.is_empty() {
        return Err("--models matched no zoo model".into());
    }
    println!(
        "reproduce: scale={}, {} network(s), boards f4+f7",
        config.scale.id(),
        models.len()
    );
    let mut networks = Vec::new();
    for model in models {
        let t = std::time::Instant::now();
        let net = reproduce_network(model, &config).map_err(|e| e.to_string())?;
        println!(
            "  {:<22} dense {:8.2} ms  reuse {:8.2} ms  speedup {:.2}x  \
             acc {:.3}/{:.3}/{:.3}  ({:.1}s)",
            net.label,
            net.dense_ms[0],
            net.reuse_ms[0],
            net.speedup(0),
            net.accuracy_dense,
            net.accuracy_reuse,
            net.accuracy_int8,
            t.elapsed().as_secs_f64(),
        );
        networks.push(net);
    }
    let report = ReproduceReport { config, networks };
    std::fs::write(out, render_results_md(&report)).map_err(|e| format!("writing {out}: {e}"))?;
    bench_record(&report).write();
    println!("wrote {out} and BENCH_network.json");
    if !opts.flag("no-check") {
        let passed = report.check_paper_shape().map_err(|e| e.to_string())?;
        for p in &passed {
            println!("  OK {p}");
        }
        println!("paper-shape check: {} assertions passed", passed.len());
    }
    Ok(())
}
