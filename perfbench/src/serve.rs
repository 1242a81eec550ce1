//! The serving workload: an in-process `Server` wrapping CifarNet's conv2
//! GEMM, fed by one closed-loop client that submits a burst of requests
//! back to back and waits for every response before building the next
//! burst. Every request id is sent once, in increasing order, as
//! `greuse bench-serve` sends them.

use std::time::Duration;

use greuse::serve::{
    checksum_f32, BreakerConfig, Engine, ModelSpec, Response, ResponseStatus, ServeBackend,
    ServeConfig, ServeStats, Server, Ticket,
};
use greuse::{
    BatchExecutor, LatencyModel, LayerStats, RandomHashProvider, ReusePattern, ReuseStats,
};
use greuse_data::RequestPool;
use greuse_mcu::Board;
use greuse_nn::models::{ZooModel, ZooScale};
use greuse_tensor::{gemm_bt_f32, Tensor};

use crate::calib::Reference;
use crate::clock::{find_thread, thread_cpu_ns};
use crate::phase::{cpu_timed, timed_setups, Phase, RunConfig};
use crate::report::{argmax, end_to_end_metrics, rel_err, LayerValues, Report};
use crate::{HASH_SEED, MODEL_SEED};

/// Workload name.
pub const NAME: &str = "serve-f32";
/// Layer of paper-scale CifarNet whose GEMM is served.
const LAYER: &str = "conv2";
/// Its reuse pattern `(L, H)`, as `ReusePattern::conventional`.
const PATTERN: (usize, usize) = (32, 4);
/// Requests per burst; also the server's batch size.
pub const BURST: usize = 8;
/// Distinct prototype rows in the request pool.
const DISTINCT: usize = 8;
/// Bursts of the replay that gives the accuracy, op-count and cache
/// metrics: the first ones the timed phase sends.
const REPLAY_BURSTS: usize = 16;
/// The burst that warms each server up, far from those the timed phase
/// sends.
const WARM_BURST: u64 = 1 << 40;
/// Name the server gives its batcher thread.
const BATCHER_THREAD: &str = "greuse-serve-batcher";

/// The requests of burst `b`: ids `b · BURST` to `b · BURST + BURST − 1`.
fn burst(pool: &RequestPool, b: u64) -> Vec<Tensor<f32>> {
    (0..BURST as u64)
        .map(|i| {
            Tensor::from_vec(
                pool.request(b * BURST as u64 + i),
                &[pool.rows(), pool.cols()],
            )
            .expect("pool requests have the pool's shape")
        })
        .collect()
}

/// The requests of burst `b` for `seed`, as the client sends them.
#[cfg(test)]
pub fn requests(seed: u64, b: u64) -> Result<Vec<Tensor<f32>>, String> {
    let spec = model_spec()?;
    Ok(burst(&RequestPool::new(spec.n, spec.k, DISTINCT, seed), b))
}

fn config() -> ServeConfig {
    // One burst is one batch: the batcher collects until it holds
    // `BURST` requests, which arrive back to back. Deadline and SLO sit
    // far above any expected latency, so neither degradation step fires
    // on a healthy run.
    ServeConfig {
        max_batch: BURST,
        max_delay: Duration::from_secs(1),
        queue_cap: 4 * BURST,
        default_deadline: Duration::from_secs(60),
        breaker: BreakerConfig {
            slo: Duration::from_secs(30),
            ..BreakerConfig::default()
        },
    }
}

/// Builds the served model: the layer's weights from paper-scale CifarNet.
fn model_spec() -> Result<ModelSpec, String> {
    let net = ZooModel::CifarNet.build(ZooScale::Paper, 10, MODEL_SEED);
    let idx = net
        .conv_layers()
        .iter()
        .position(|i| i.name == LAYER)
        .ok_or_else(|| format!("cifarnet has no layer {LAYER}"))?;
    let info = &net.conv_layers()[idx];
    Ok(ModelSpec {
        layer: format!("serve/cifarnet/{LAYER}"),
        n: info.gemm_n(),
        k: info.gemm_k(),
        m: info.gemm_m(),
        weights: net.convs()[idx].weights.clone(),
        pattern: ReusePattern::conventional(PATTERN.0, PATTERN.1),
    })
}

fn submit_burst(server: &Server, xs: Vec<Tensor<f32>>) -> Vec<Response> {
    let tickets: Vec<Ticket> = xs.into_iter().map(|x| server.submit(x, None)).collect();
    tickets.into_iter().map(Ticket::wait).collect()
}

/// Set-up: build the model and the cache-on engine, start the server,
/// and serve the warm-up burst (hash families, workspace growth).
fn setup(pool: &RequestPool) -> Result<Server, String> {
    let engine = Engine::new(model_spec()?, ServeBackend::F32, true, 1, HASH_SEED)
        .map_err(|e| format!("engine: {e}"))?;
    let server = Server::start(engine, config());
    let responses = submit_burst(&server, burst(pool, WARM_BURST));
    if let Some(bad) = responses.iter().find(|r| r.status != ResponseStatus::Ok) {
        return Err(format!("warm-up burst: {:?}", bad.status));
    }
    Ok(server)
}

/// The cache-off engine's checksum of each request of burst `b` (`None`
/// where it failed): the bitwise oracle of every served response.
fn cache_off(engine: &mut Engine, pool: &RequestPool, b: u64) -> Vec<Option<u64>> {
    engine
        .run_batch(&burst(pool, b), false)
        .into_iter()
        .map(Result::ok)
        .collect()
}

/// Served checksums (`None` for a response that is not `Ok`) of bursts
/// `first ..`, checked against the cache-off engine: the failures.
fn check(engine: &mut Engine, pool: &RequestPool, first: u64, served: &[Vec<Option<u64>>]) -> u64 {
    served
        .iter()
        .zip(first..)
        .map(|(got, b)| {
            let want = cache_off(engine, pool, b);
            got.iter()
                .zip(&want)
                .filter(|(g, w)| g.is_none() || g != w)
                .count() as u64
        })
        .sum()
}

/// A cache-on replay of the first bursts the server serves, against the
/// exact GEMM: accuracy, op counts and cache hits.
struct Replay {
    failed: u64,
    top1_agree: f64,
    mean_rel_err: f64,
    stats: ReuseStats,
    requests: u64,
}

fn replay(spec: &ModelSpec, pool: &RequestPool, engine: &mut Engine) -> Replay {
    let mut executor = BatchExecutor::new();
    executor.set_temporal_cache(true);
    let hashes = RandomHashProvider::new(HASH_SEED);
    let mut ys: Vec<Tensor<f32>> = (0..BURST)
        .map(|_| Tensor::zeros(&[spec.n, spec.m]))
        .collect();
    let mut stats = ReuseStats::default();
    let (mut failed, mut rows, mut rows_agree, mut err_sum, mut requests) =
        (0u64, 0usize, 0usize, 0.0f64, 0u64);
    // The warm-up burst runs first and uncounted, so the cache starts
    // where the server's does.
    for b in std::iter::once(WARM_BURST).chain(0..REPLAY_BURSTS as u64) {
        let xs = burst(pool, b);
        let slots = executor.execute_each(
            &xs,
            &spec.weights,
            &spec.pattern,
            &hashes,
            1,
            &spec.layer,
            &mut ys,
        );
        if b == WARM_BURST {
            continue;
        }
        let Ok(slots) = slots else {
            failed += xs.len() as u64;
            continue;
        };
        let want = cache_off(engine, pool, b);
        for (i, slot) in slots.iter().enumerate() {
            let y = ys[i].as_slice();
            let ok =
                slot.is_ok() && y.iter().all(|v| v.is_finite()) && want[i] == Some(checksum_f32(y));
            if !ok {
                failed += 1;
                continue;
            }
            if let Ok(s) = slot {
                stats.merge(s);
            }
            let exact = gemm_bt_f32(&xs[i], &spec.weights).expect("validated shapes");
            for (yr, er) in y.chunks(spec.m).zip(exact.as_slice().chunks(spec.m)) {
                rows += 1;
                rows_agree += usize::from(argmax(yr) == argmax(er));
            }
            err_sum += rel_err(y, exact.as_slice());
            requests += 1;
        }
    }
    Replay {
        failed,
        top1_agree: rows_agree as f64 / rows.max(1) as f64,
        mean_rel_err: err_sum / requests.max(1) as f64,
        stats,
        requests,
    }
}

/// Runs the serving workload with `setups` set-ups (at least one).
pub fn run(cfg: &RunConfig, setups: usize) -> Report {
    let spec = match model_spec() {
        Ok(s) => s,
        Err(e) => return Report::setup_failure(NAME, &e),
    };
    let mut reference = Reference::new();
    let (pool, gen_s) = cpu_timed(&mut reference, || {
        RequestPool::new(spec.n, spec.k, DISTINCT, cfg.seed)
    });

    // Dropping a server shuts it down, so only the last one runs on.
    let (server, setup_s) = match timed_setups(&mut reference, setups, || setup(&pool)) {
        Ok(r) => r,
        Err(e) => return Report::setup_failure(NAME, &e),
    };
    let mut oracle = Engine::new(spec.clone(), ServeBackend::F32, false, 1, HASH_SEED)
        .expect("spec validated by set-up");
    let replay = replay(&spec, &pool, &mut oracle);
    let replayed = LayerStats {
        calls: replay.requests,
        ops: replay.stats.ops,
        n_vectors: replay.stats.n_vectors,
        n_clusters: replay.stats.n_clusters,
        ..LayerStats::default()
    };
    let modeled = LatencyModel::new(Board::Stm32F469i);
    let mean_ops = replayed.mean_ops();
    let mcu_ms = modeled.from_ops(&mean_ops).total_ms();
    let dense_ms = modeled.dense(spec.n, spec.k, spec.m).total_ms();
    let notes = vec![
        format!(
            "{NAME}: bursts of {BURST} distinct requests (seed {}), {} [{}x{}x{}] L{}/H{}, \
             setup {} runs",
            cfg.seed, spec.layer, spec.n, spec.k, spec.m, PATTERN.0, PATTERN.1, setups
        ),
        format!(
            "  r_t {:.4} (break-even {:.4}), F469 {:.3} ms reuse vs {:.3} ms dense per request",
            replayed.redundancy_ratio(),
            PATTERN.1 as f64 / spec.m as f64,
            mcu_ms,
            dense_ms
        ),
    ];

    let half = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // Bursts `first ..` in order, each request once; returns the served
    // checksums, checked after the phase so the check is not timed.
    let serve_phase = |seconds: f64, reference: Reference, first: u64| {
        let mut phase = Phase::start(seconds, reference);
        let mut served: Vec<Vec<Option<u64>>> = Vec::new();
        while phase.running() {
            let xs = burst(&pool, first + served.len() as u64);
            let clock = phase.item();
            let responses = submit_burst(&server, xs);
            phase.done(clock, BURST);
            served.push(
                responses
                    .iter()
                    .map(|r| r.checksum.filter(|_| r.status == ResponseStatus::Ok))
                    .collect(),
            );
        }
        let (stats, reference) = phase.finish();
        (stats, served, reference)
    };
    let (plain, served, reference) = serve_phase(half, reference, 0);
    let mut report = Report {
        attempted: (REPLAY_BURSTS * BURST + plain.items) as u64,
        failed: replay.failed + check(&mut oracle, &pool, 0, &served),
        metrics: Vec::new(),
        notes,
    };
    if !cfg.trace {
        report.notes.push(serve_note(&server.shutdown()));
        report.notes.push(plain.noise_note());
        report.metrics = end_to_end_metrics(
            setup_s,
            &plain,
            replay.top1_agree,
            replay.mean_rel_err,
            mcu_ms,
        );
        return report;
    }

    // Traced half: the batcher thread's own CPU clock splits each
    // request's CPU into compute (batcher) and client + queue (the rest).
    let batcher = find_thread(BATCHER_THREAD);
    let batcher_cpu = || batcher.and_then(thread_cpu_ns).unwrap_or(0);
    let b0 = batcher_cpu();
    let first = served.len() as u64;
    let (traced, served, _) = serve_phase(half, reference, first);
    let batcher_ns = batcher_cpu().saturating_sub(b0);
    let stats = server.shutdown();
    report.attempted += traced.items as u64;
    report.failed += check(&mut oracle, &pool, first, &served);
    report.notes.push(serve_note(&stats));
    report.notes.push(traced.noise_note());

    let items = traced.items.max(1) as f64;
    let backend_ms = batcher_ns as f64 * 1e-6 * traced.scale() / items;
    let lookups = replay.stats.cache_hits + replay.stats.cache_misses;
    let values = LayerValues {
        slots: [
            (
                replayed.redundancy_ratio(),
                replayed.n_clusters as f64 / replayed.calls.max(1) as f64,
            ),
            (0.0, 0.0),
        ],
        ops: mean_ops,
        exec_wall_share: batcher_ns as f64 * 1e-9 / traced.wall_s.max(f64::MIN_POSITIVE),
        backend_ms,
        backend_share: batcher_ns as f64 * 1e-9 / traced.raw_cpu_s.max(f64::MIN_POSITIVE),
        top_ms: backend_ms,
        allocs: traced.allocs as f64 / items,
        conv_calls: 1.0,
        mcu_dense_ms: dense_ms,
        mcu_ms,
        mcu_top_ms: mcu_ms,
        serve: stats,
        hit_share: replay.stats.cache_hits as f64 / lookups.max(1) as f64,
        gen_s,
        untraced_p50: plain.cpu_ms_p50,
        ..LayerValues::default()
    };
    report.metrics = values.metrics(&traced);
    report
}

fn serve_note(s: &ServeStats) -> String {
    format!(
        "  server: admitted {} completed {} failed {} shed {} deadline-missed {} batches {} \
         dense {} breaker-trips {}",
        s.admitted,
        s.completed,
        s.failed,
        s.shed,
        s.deadline_missed,
        s.batches,
        s.served_dense,
        s.breaker_trips
    )
}
