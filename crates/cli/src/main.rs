//! `greuse` — command-line front end for the generalized-reuse workspace.
//!
//! ```text
//! greuse train    --model cifarnet --epochs 3 --samples 200 --out model.grsd
//! greuse eval     --model cifarnet --weights model.grsd [--reuse L,H] [--board f4|f7]
//! greuse select   --model cifarnet --weights model.grsd --layer conv2 [--prune-to 5]
//! greuse simulate --n 256 --k 1600 --m 64 [--rt 0.95] [--l 20] [--h 3] [--board f4]
//! greuse scope    --n 1024 --k 75
//! greuse profile  --model cifarnet --samples 4 --out profile.json --trace trace.json
//! greuse infer    --model cifarnet --backend int8 [--reuse L,H] [--samples N]
//!                 [--guard strict|sanitize|off]
//! greuse stream   --n 256 --k 96 --m 64 [--frames 30] [--rate 0.05]
//!                 [--backend f32|int8] [--no-cache] [--serve HOST:PORT]
//!                 [--watch] [--frame-delay-ms N]
//! greuse serve    HOST:PORT --model cifarnet [--backend f32|int8] [--max-batch N]
//!                 [--max-delay-ms N] [--queue-cap N] [--deadline-ms N]
//!                 [--slo-ms N] [--no-cache] [--smoke]
//! greuse bench-serve --addr HOST:PORT [--unloaded-rps N] [--secs N]
//!                 [--threads N] [--deadline-ms N] [--check] [--stop-server]
//! greuse monitor  [--addr HOST:PORT] [--watch] [--interval-ms N] [--validate]
//! greuse bench-compare --baseline FILE [--dir DIR] [--write-baseline FILE]
//!                 [--portable] [--perturb bench:metric:FACTOR]
//! greuse reproduce [--smoke] [--out FILE] [--models a,b] [--no-check]
//! ```
//!
//! Datasets are the workspace's seeded synthetic generators, so every
//! command is reproducible offline.

mod args;
mod commands;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let opts = args::Options::parse(rest);
    let result = match cmd.as_str() {
        "train" => commands::train(&opts),
        "eval" => commands::eval(&opts),
        "select" => commands::select(&opts),
        "simulate" => commands::simulate(&opts),
        "scope" => commands::scope(&opts),
        "profile" => commands::profile(&opts),
        "infer" => commands::infer(&opts),
        "stream" => commands::stream(&opts),
        // `serve` takes a positional HOST:PORT, so it parses the raw
        // argument slice itself.
        "serve" => serve::serve(rest),
        "bench-serve" => serve::bench_serve(&opts),
        "monitor" => commands::monitor(&opts),
        "bench-compare" => commands::bench_compare(&opts),
        "reproduce" => commands::reproduce(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
