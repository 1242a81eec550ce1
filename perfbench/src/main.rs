//! `perfbench`: the whole-network benchmark of greuse.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cifarnet-f32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload in this process with one inference thread, times
//! every item with process CPU time, checks every output against a
//! verified reference, and prints as its last line one JSON object:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). It exits non-zero when any item failed.
//! See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod calib;
mod clock;
mod net;
mod phase;
mod report;
mod serve;
mod timed;

use greuse_data::SyntheticDataset;
use greuse_nn::models::ZooModel;

use net::{BackendKind, NetWorkload};
use phase::RunConfig;
use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed of every model's initial weights (models are part of the
/// workload definition; only inputs follow `--seed`).
pub const MODEL_SEED: u64 = 7;

/// Seed of each dataset's class tile dictionaries (part of the workload
/// definition, like the model); `--seed` draws the images from them.
pub const DATA_SEED: u64 = 11;

/// Seed of the frozen random LSH projections, so clustering depends on
/// neither the data nor the workspace that runs it.
pub const HASH_SEED: u64 = 0xA5A5;

/// Set-ups per run; `setup_s` is their median CPU time at nominal host
/// speed.
const SETUPS: usize = 5;

/// Modeled milliseconds on the STM32F469I as millions of its cycles.
pub fn mcycles(ms: f64) -> f64 {
    ms * 1e-3 * greuse_mcu::Board::Stm32F469i.spec().clock_hz * 1e-6
}

/// Every workload the benchmark knows.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Net(NetWorkload),
    Serve,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Net(NetWorkload {
        name: "cifarnet-f32",
        model: ZooModel::CifarNet,
        dataset: SyntheticDataset::cifar_like,
        backend: BackendKind::Reuse,
        patterns: &[("conv1", 25, 4), ("conv2", 32, 4)],
        images: 512,
    }),
    Workload::Net(NetWorkload {
        name: "squeezenet-int8",
        model: ZooModel::SqueezeNetVanilla,
        dataset: SyntheticDataset::svhn_like,
        backend: BackendKind::Quantized,
        patterns: &[("fire2.expand3x3", 16, 4), ("fire3.expand3x3", 16, 4)],
        images: 64,
    }),
    Workload::Net(NetWorkload {
        name: "resnet18-dense",
        model: ZooModel::ResNet18,
        dataset: SyntheticDataset::imagenet64_like,
        backend: BackendKind::Dense,
        patterns: &[],
        images: 16,
    }),
    Workload::Serve,
];

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Net(w) => w.name,
            Workload::Serve => serve::NAME,
        }
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        match self {
            Workload::Net(w) => net::run(w, cfg, SETUPS, w.images),
            Workload::Serve => serve::run(cfg, SETUPS),
        }
    }
}

fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name() == name)
}

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(Workload::name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if calib::pin_to_current_cpu().is_none() {
        eprintln!("perfbench: could not pin to one CPU; host-speed scaling is less exact");
    }
    let report = workload.run(&cfg);
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}: attempted {}, succeeded {}, failed {}",
        workload.name(),
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed
    );
    println!("{}", report.json());
    if !report.correct() {
        eprintln!("perfbench: {} failed its correctness gate", workload.name());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run small enough for a test: one set-up, 50 ms, and two images
    /// for the whole-network workloads.
    fn tiny(w: Workload, seed: u64, trace: bool) -> Report {
        let cfg = RunConfig {
            seed,
            seconds: 0.05,
            trace,
        };
        match w {
            Workload::Net(n) => net::run(&n, &cfg, 1, 2),
            Workload::Serve => serve::run(&cfg, 1),
        }
    }

    /// End-to-end metrics that depend on the seed alone, never on timing.
    const SEEDED: [&str; 3] = ["top1_agree", "out_snr_db", "mcu_f469_mcycles"];

    /// Per-layer metrics that depend on the seed alone: r_t, op counts,
    /// modeled cost, cache hits, and the serving batch size.
    const SEEDED_TRACED: [&str; 13] = [
        "exec.p1.r_t",
        "exec.p1.clusters",
        "exec.p2.r_t",
        "exec.p2.clusters",
        "exec.transform_elems",
        "exec.clustering_macs",
        "exec.gemm_macs",
        "exec.recover_elems",
        "exec.fallbacks",
        "mcu.dense_f469_mcycles",
        "mcu.speedup_f469",
        "cache.hit_share",
        "serve.mean_batch",
    ];

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn listed(section: &str) -> Vec<String> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn one_seed_repeats_bit_for_bit_and_prints_every_listed_metric() {
        for w in WORKLOADS {
            for (trace, seeded, section) in [
                (false, &SEEDED[..], "end_to_end"),
                (true, &SEEDED_TRACED[..], "per_layer"),
            ] {
                let a = tiny(w, 3, trace);
                let b = tiny(w, 3, trace);
                assert!(a.correct() && b.correct(), "{}: {:?}", w.name(), a.notes);
                let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, listed(section), "{} trace={trace}", w.name());
                for name in seeded {
                    assert_eq!(
                        a.get(name).map(f64::to_bits),
                        b.get(name).map(f64::to_bits),
                        "{} {name}",
                        w.name()
                    );
                }
                if let (Workload::Serve, true) = (w, trace) {
                    assert_eq!(a.get("serve.mean_batch"), Some(serve::BURST as f64));
                }
            }
        }
    }

    #[test]
    fn the_seed_and_only_the_seed_picks_the_inputs() {
        for w in WORKLOADS {
            let inputs = |seed| match w {
                Workload::Net(n) => net::images(&n, seed, 2),
                Workload::Serve => serve::requests(seed, 0).unwrap(),
            };
            assert_eq!(inputs(3), inputs(3), "{}", w.name());
            assert_ne!(inputs(3), inputs(4), "{}", w.name());
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload serve-f32 --trace 2")).is_err());
        let (w, cfg) =
            parse_args(&args("--workload serve-f32 --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w.name(), "serve-f32");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
    }
}
