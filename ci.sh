#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc stays warning-free (broken or private intra-doc links, ambiguous
# or redundant link targets). `--lib` skips the CLI binary, whose doc
# output would collide with the `greuse` library's (both are `greuse`).
echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --lib

echo "==> cargo test"
cargo test -q --workspace

# perfbench (the whole-network benchmark) is a package of its own, outside
# the workspace, so the steps above never build it: an API change that
# breaks the benchmark would otherwise pass. Its self-tests also check
# that its timing wrapper is bit-transparent on the f32 and int8 backends.
echo "==> perfbench build + self-tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# The Pareto front is the pruning primitive every selection result and
# the whole-network gate sit on; run its property suite explicitly so a
# failure is attributed to the invariant, not buried in the workspace run.
echo "==> pareto_front property suite"
cargo test -q -p greuse --test pareto_props

# The capture-off build must keep the whole telemetry surface (spans,
# counters, histograms, gauges) a true zero-cost no-op; the crate's
# no_op test asserts zero-sized types and a zero-allocation hot loop.
echo "==> telemetry capture-off no-op suite"
cargo test -q -p greuse-telemetry --no-default-features

echo "==> golden-vector conformance suite"
cargo test -q -p greuse --test golden_conformance

# One hashing path, whatever the call: a fresh workspace's first call
# (which builds the hash families) must equal, bit for bit and in
# ReuseStats, the same workspace's second call (families resident), a
# second fresh workspace, and a provider that reports its families as
# data dependent, on the f32 and int8 executors.
echo "==> first-call/resident/data-dependent equivalence suite"
cargo test -q -p greuse --test fused_equivalence

# Whole-network dense conformance: ResNet-18 (paper scale) and CifarNet
# logits through DenseBackend's packed X·Wᵀ GEMM (weights read in place,
# only activations packed) must equal, bit for bit, a backend running the
# scalar reference kernel on an explicit transpose.
echo "==> dense-path conformance suite"
cargo test -q -p greuse-nn --test dense_conformance

# Lowering oracle: every conv geometry of the five zoo models through
# Conv2d::forward (structured im2col, dense GEMM, blocked bias epilogue)
# must equal the direct nested-loop convolution plus bias. Unlike the
# dense-path suite above, the two sides share no lowering code.
echo "==> conv lowering oracle"
cargo test -q -p greuse-nn --test lowering_oracle

# Whole-network steady state: every layer of a CifarNet (f32) and a
# SqueezeNet (int8) forward keeps its executor state resident, so after
# warm-up no conv GEMM allocates and no patterned layer rebuilds its
# hash families (no `mode="build"` latency sample). A return of per-call
# workspace rebuilds fails here by name.
echo "==> whole-network steady-state suite"
cargo test -q -p greuse --test network_steady_state

echo "==> fault-injection suite (guarded fallback, panic isolation, determinism)"
cargo test -q -p greuse --features fault-inject --test fault_injection
cargo test -q -p greuse --features fault-inject --lib faults

# The executor and guard modules carry in-source
# `#![cfg_attr(not(test), deny(clippy::unwrap_used))]` gates; running
# clippy with fault-inject enabled lints the hook sites those gates cover.
echo "==> clippy with fault-inject (includes scoped unwrap gate)"
cargo clippy -q -p greuse --features fault-inject --all-targets -- -D warnings

# Line coverage is advisory-but-gated: cargo-llvm-cov is not part of the
# minimal toolchain image, so skip (loudly) when absent instead of
# failing CI on machines without it. The baseline is a conservative
# floor for the current suite; raise it as coverage grows, lower it
# only with a written justification.
COVERAGE_BASELINE=70.0
if command -v cargo-llvm-cov >/dev/null 2>&1; then
  echo "==> cargo llvm-cov (line coverage >= ${COVERAGE_BASELINE}%)"
  COVERAGE=$(cargo llvm-cov --workspace --summary-only --json \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["data"][0]["totals"]["lines"]["percent"])')
  echo "line coverage: ${COVERAGE}%"
  python3 -c "import sys; sys.exit(0 if float('${COVERAGE}') >= float('${COVERAGE_BASELINE}') else 1)" \
    || { echo "coverage ${COVERAGE}% below baseline ${COVERAGE_BASELINE}%"; exit 1; }
else
  echo "==> cargo llvm-cov not installed; skipping coverage gate (baseline ${COVERAGE_BASELINE}%)"
fi

# The overhead gate compares wall-clock across two processes, and on a
# contended host a run can be slowed arbitrarily by neighbours — noise
# only ever makes a build look slower, never faster. One clean
# baseline/instrumented pair therefore proves the budget holds; retry
# the pair (compiles already warm, so each attempt is just the two
# measured runs back to back) before declaring a regression.
echo "==> bench_exec --quick --check (parallel batch + telemetry overhead gates)"
cargo build -q --release -p greuse-bench --bin bench_exec --no-default-features
cargo build -q --release -p greuse-bench --bin bench_exec
overhead_ok=0
for attempt in 1 2 3 4 5; do
  GREUSE_BENCH_HISTORY=off cargo run -q --release -p greuse-bench \
    --bin bench_exec --no-default-features -- --quick --reps 8
  mv BENCH_exec.json BENCH_exec.baseline.json
  if cargo run -q --release -p greuse-bench --bin bench_exec -- \
      --quick --check --reps 8 --overhead-against BENCH_exec.baseline.json; then
    overhead_ok=1
    break
  fi
  echo "bench_exec overhead gate attempt ${attempt}/5 failed; retrying (host noise)"
done
rm -f BENCH_exec.baseline.json
if [ "${overhead_ok}" != 1 ]; then
  echo "bench_exec overhead gate failed on all attempts"
  exit 1
fi

echo "==> bench_gemm --quick --check (packed kernel + batched hashing gates; transposed conv5_x/fc1/conv3_x shapes bitwise vs scalar reference)"
cargo run -q --release -p greuse-bench --bin bench_gemm -- --quick --check

# The 256x96x32 sweep shape sits deliberately near the fused break-even
# point (predicted margin only a few percent), so host noise can flip
# the measured dense/reuse ratio; retry like the overhead gate above.
echo "==> bench_quant --quick --check --check-breakeven (int8 kernel >= 1.5x f32 scalar gate + fused break-even shape sweep)"
quant_ok=0
for attempt in 1 2 3; do
  if cargo run -q --release -p greuse-bench --bin bench_quant -- \
      --quick --check --check-breakeven; then
    quant_ok=1
    break
  fi
  echo "bench_quant break-even gate attempt ${attempt}/3 failed; retrying (host noise)"
done
if [ "${quant_ok}" != 1 ]; then
  echo "bench_quant break-even gate failed on all attempts"
  exit 1
fi

# Runs after bench_quant so BENCH_quant.json exists for the
# cache-disabled-executor cross-check.
echo "==> bench_stream --quick --check (temporal cache: warm >= 1.3x cold, zero-alloc warm path, cache-on == cache-off bitwise)"
cargo run -q --release -p greuse-bench --bin bench_stream -- \
  --quick --check --quant-baseline BENCH_quant.json

echo "==> bench-compare (cross-run regression tracking vs committed baseline)"
cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
  --baseline results/bench_baseline.json

# Deterministic self-test of the gate itself: a baseline written from
# the current records must pass an identical re-run, and a synthetic
# 15% latency regression (well past the 8% band) must fail it.
echo "==> bench-compare self-test (identical pass, perturbed fail)"
cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
  --write-baseline bench_selftest_baseline.json
cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
  --baseline bench_selftest_baseline.json
if cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
    --baseline bench_selftest_baseline.json \
    --perturb stream:f32_warm_frame_secs:1.15 > /dev/null 2>&1; then
  echo "bench-compare self-test FAILED: synthetic 15% regression not flagged"
  exit 1
fi
rm -f bench_selftest_baseline.json

# Whole-network reproduction gate: drive all five zoo networks through
# train -> int8 -> §4.3 selection -> MCU model on both boards at smoke
# scale, then hold the emitted BenchRecord against the committed
# portable baseline. Budget: < 60 s (the smoke sweep itself runs in
# ~3 s release; the bound leaves 20x headroom for slow hosts). All
# gated metrics are modeled from op counts, so the step is
# deterministic across machines.
echo "==> greuse reproduce --smoke (whole-network paper-shape + regression gate)"
REPRO_DIR=$(mktemp -d)
(cd "${REPRO_DIR}" && GREUSE_BENCH_HISTORY=off \
  "${OLDPWD}/target/release/greuse" reproduce --smoke --out RESULTS_smoke.md)
cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
  --baseline results/bench_network_baseline.json --dir "${REPRO_DIR}"
rm -rf "${REPRO_DIR}"

echo "==> live /metrics endpoint (greuse stream --serve scraped by greuse monitor --validate)"
cargo build -q --release -p greuse-cli
./target/release/greuse stream --frames 200 --frame-delay-ms 5 \
  --serve 127.0.0.1:19898 > /dev/null &
STREAM_PID=$!
sleep 1
./target/release/greuse monitor --addr 127.0.0.1:19898 --validate > /dev/null
wait "$STREAM_PID"

echo "==> stream-cache equivalence suite (incl. never-commit-under-fault)"
cargo test -q -p greuse --features fault-inject --test stream_cache

echo "==> serve chaos suite (panic isolation, breaker lifecycle, cache equivalence under fault)"
cargo test -q -p greuse --features fault-inject --test serve_chaos

# The serving gate drives a real server over loopback: boot at a
# deliberately tiny capacity (queue-cap == max-batch == 2, one engine
# thread) so bench-serve's stress phase, fired at threads / unloaded p50
# (about 16 requests in flight whatever the host's speed), overloads it
# several times over, then hold bench-serve's degradation criteria (nonzero
# shed under overload, admitted p99 within 3x unloaded, error rate
# bounded) and the emitted BenchRecord against the committed portable
# baseline. The latency phases are host-sensitive, so retry like the
# other wall-clock gates; the record is written into a scratch dir so
# it never leaks into the main bench-compare sweep above.
echo "==> greuse serve + bench-serve (overload shedding + p99 degradation gate)"
SERVE_ADDR=127.0.0.1:19899
SERVE_DIR=$(mktemp -d)
./target/release/greuse serve "${SERVE_ADDR}" --model cifarnet --smoke \
  --queue-cap 2 --max-batch 2 --threads 1 > "${SERVE_DIR}/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 50); do
  if ./target/release/greuse monitor --addr "${SERVE_ADDR}" --validate \
      > /dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
serve_ok=0
for attempt in 1 2 3; do
  if (cd "${SERVE_DIR}" && GREUSE_BENCH_HISTORY=off \
      "${OLDPWD}/target/release/greuse" bench-serve --addr "${SERVE_ADDR}" \
      --unloaded-rps 80 --secs 2 --threads 16 --deadline-ms 25 \
      --check); then
    serve_ok=1
    break
  fi
  echo "bench-serve gate attempt ${attempt}/3 failed; retrying (host noise)"
done
# Scrape the live serve.* metrics through the exposition validator,
# then drain: the raw /dev/tcp POST avoids needing a curl binary.
./target/release/greuse monitor --addr "${SERVE_ADDR}" --validate > /dev/null
printf 'POST /shutdown HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}' \
  > "/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR#*:}" || true
wait "${SERVE_PID}"
if [ "${serve_ok}" != 1 ]; then
  echo "bench-serve degradation gate failed on all attempts"
  exit 1
fi
cargo run -q --release -p greuse-cli --bin greuse -- bench-compare \
  --baseline results/bench_serve_baseline.json --dir "${SERVE_DIR}"
rm -rf "${SERVE_DIR}"

echo "==> greuse profile (exporters + schema validation)"
cargo run -q --release -p greuse-cli --bin greuse -- profile \
  --model cifarnet --samples 2 --out PROFILE_ci.json --trace TRACE_ci.json --validate
rm -f PROFILE_ci.json TRACE_ci.json

echo "CI OK"
