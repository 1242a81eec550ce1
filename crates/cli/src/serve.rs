//! `greuse serve` and `greuse bench-serve` — the HTTP face of the
//! deadline-aware batching server in `greuse::serve`, and its open-loop
//! load generator.
//!
//! The server side wires four endpoints onto the telemetry crate's
//! listener ([`greuse_telemetry::http::serve_with`]):
//!
//! - `POST /infer` `{"seed": N, "deadline_ms": D?}` — expand the seed
//!   through the shared [`RequestPool`], run it through the batching
//!   server, answer `200` (checksum), `503` (shed/draining), `504`
//!   (deadline missed before compute) or `500` (typed execution error).
//! - `GET /metrics` — live Prometheus text (`serve.*` series included).
//! - `GET /healthz` — liveness plus draining state.
//! - `POST /shutdown` — graceful drain: stop admitting, finish what was
//!   admitted, flush final metrics, exit.
//!
//! Requests travel as seeds, not payloads: both ends hold the same
//! seeded pool, so a 20-byte body names a full activation matrix
//! bitwise-identically on both sides (see `greuse-data`'s `RequestPool`
//! docs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use greuse::serve::{
    bind_error, BreakerConfig, Engine, ModelSpec, ResponseStatus, ServeBackend, ServeConfig, Server,
};
use greuse::ReusePattern;
use greuse_bench::record::BenchRecord;
use greuse_data::RequestPool;
use greuse_nn::{models::zoo::ZooModel, models::zoo::ZooScale};
use greuse_telemetry::http::{self, HttpRequest, HttpResponse};
use greuse_telemetry::json::{self, Value};
use greuse_tensor::Tensor;

use crate::args::Options;

/// `greuse serve HOST:PORT --model <zoo-id> --backend f32|int8 ...`.
/// The address is positional (first argument); everything after parses
/// as `--key value` options.
pub fn serve(args: &[String]) -> Result<(), String> {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(
            "serve needs a positional HOST:PORT (e.g. `greuse serve 127.0.0.1:9890 \
                    --model cifarnet`)"
                .into(),
        );
    };
    let addr = addr.clone();
    let opts = Options::parse(&args[1..]);

    let model_name = opts.get_or("model", "cifarnet").to_string();
    let backend: ServeBackend = opts
        .get_or("backend", "f32")
        .parse()
        .map_err(|e: String| e)?;
    let scale = if opts.flag("smoke") {
        ZooScale::Smoke
    } else {
        ZooScale::Paper
    };
    let seed: u64 = opts.num("seed", 42u64)?;
    let cache_on = !opts.flag("no-cache");
    let cfg = ServeConfig {
        max_batch: opts.num("max-batch", 8usize)?.max(1),
        max_delay: Duration::from_millis(opts.num("max-delay-ms", 2u64)?),
        queue_cap: opts.num("queue-cap", 64usize)?.max(1),
        default_deadline: Duration::from_millis(opts.num("deadline-ms", 250u64)?.max(1)),
        breaker: BreakerConfig {
            slo: Duration::from_millis(opts.num("slo-ms", 50u64)?.max(1)),
            window: opts.num("window", 32usize)?.max(1),
            trip_after: opts.num("trip-after", 3usize)?.max(1),
            cooldown: Duration::from_millis(opts.num("cooldown-ms", 1000u64)?.max(1)),
        },
    };

    // Serve the model's heaviest convolution: the layer where reuse
    // matters. Its im2col geometry defines the request shape.
    let net = ZooModel::parse(&model_name)
        .map(|m| m.build(scale, 10, seed))
        .ok_or_else(|| format!("unknown model `{model_name}`"))?;
    let (info, conv) = {
        let infos = net.conv_layers();
        let convs = net.convs();
        let (idx, info) = infos
            .iter()
            .enumerate()
            .max_by_key(|(_, i)| i.gemm_n() * i.gemm_k() * i.gemm_m())
            .ok_or_else(|| format!("model `{model_name}` has no conv layers"))?;
        (info.clone(), convs[idx].weights.clone())
    };
    let (n, k, m) = (info.gemm_n(), info.gemm_k(), info.gemm_m());
    let l: usize = opts.num("l", 24usize.min(k))?.clamp(1, k);
    let h: usize = opts.num("h", 4usize)?.max(1);
    let spec = ModelSpec {
        layer: format!("serve/{model_name}/{}", info.name),
        n,
        k,
        m,
        weights: conv,
        pattern: ReusePattern::conventional(l, h),
    };
    // Batch-mates execute in parallel over the worker pool, so a full
    // batch costs roughly one request's latency — that (plus the bounded
    // queue) is what keeps admitted p99 near the unloaded p99 under
    // overload. threads=1 funnels every request through one thread-local
    // workspace instead, maximizing cross-request cache hits.
    let threads: usize = opts.num(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get().min(4)),
    )?;
    let engine =
        Engine::new(spec, backend, cache_on, threads.max(1), seed).map_err(|e| e.to_string())?;
    let distinct: usize = opts.num("distinct", 8usize)?.clamp(1, n);
    let pool = Arc::new(RequestPool::new(n, k, distinct, seed));

    greuse_telemetry::reset();
    greuse_telemetry::enable();
    let server = Arc::new(Server::start(engine, cfg.clone()));
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    // Mutex-wrapped because the handler must be `Sync` and connection
    // threads may race on /shutdown.
    let stop_tx = std::sync::Mutex::new(stop_tx);
    let handler = {
        let server = Arc::clone(&server);
        let pool = Arc::clone(&pool);
        Arc::new(move |req: &HttpRequest| route(req, &server, &pool, &stop_tx))
    };
    let http = http::serve_with(&addr, handler).map_err(|e| bind_error(&addr, &e).to_string())?;
    println!(
        "serving {model_name} ({}) layer {} [{n}x{k}x{m}] on http://{} — \
         POST /infer {{\"seed\": N}}, GET /metrics, POST /shutdown",
        backend,
        info.name,
        http.local_addr()
    );
    println!(
        "  max-batch {} max-delay {:?} queue-cap {} deadline {:?} slo {:?} cache {} threads {}",
        cfg.max_batch,
        cfg.max_delay,
        cfg.queue_cap,
        cfg.default_deadline,
        cfg.breaker.slo,
        if cache_on { "on" } else { "off" },
        threads.max(1)
    );

    // Block until a /shutdown arrives, then drain (rung 4).
    let _ = stop_rx.recv();
    println!("shutdown requested — draining admitted requests");
    let stats = server.shutdown();
    http.shutdown();
    print_final(&stats);
    greuse_telemetry::disable();
    Ok(())
}

/// Request router for the serve endpoints (parse failures never reach
/// here — the listener answers those itself).
fn route(
    req: &HttpRequest,
    server: &Server,
    pool: &RequestPool,
    stop: &std::sync::Mutex<mpsc::Sender<()>>,
) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/infer") => infer(req, server, pool),
        ("POST", "/shutdown") => {
            if let Ok(tx) = stop.lock() {
                let _ = tx.send(());
            }
            HttpResponse::json(200, "{\"status\": \"draining\"}")
        }
        ("GET", "/healthz") => HttpResponse::json(
            200,
            format!(
                "{{\"status\": \"ok\", \"draining\": {}, \"queue_depth\": {}}}",
                server.is_draining(),
                server.queue_depth()
            ),
        ),
        ("GET", "/metrics") => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: greuse_telemetry::prom::render(),
        },
        ("GET", "/") => HttpResponse::text(
            200,
            "greuse serve — POST /infer, GET /metrics, GET /healthz, POST /shutdown\n",
        ),
        ("GET", _) => HttpResponse::text(404, "not found\n"),
        _ => HttpResponse::text(405, "method not allowed\n"),
    }
}

fn infer(req: &HttpRequest, server: &Server, pool: &RequestPool) -> HttpResponse {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return HttpResponse::json(400, "{\"error\": \"body is not UTF-8\"}"),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return HttpResponse::json(400, format!("{{\"error\": {}}}", json::quote(&e))),
    };
    let Some(seed) = parsed.get("seed").and_then(Value::as_u64) else {
        return HttpResponse::json(400, "{\"error\": \"missing numeric `seed`\"}");
    };
    let deadline = parsed
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis);
    let input = Tensor::from_vec(pool.request(seed), &[pool.rows(), pool.cols()])
        .expect("pool emits rows*cols elements");
    let resp = server.submit(input, deadline).wait();
    let latency_us = resp.latency.as_micros();
    match resp.status {
        ResponseStatus::Ok => HttpResponse::json(
            200,
            format!(
                "{{\"status\": \"ok\", \"checksum\": \"{:016x}\", \"dense\": {}, \
                 \"latency_us\": {latency_us}}}",
                resp.checksum.unwrap_or(0),
                resp.dense
            ),
        ),
        ResponseStatus::Shed => HttpResponse::json(
            503,
            format!("{{\"status\": \"shed\", \"latency_us\": {latency_us}}}"),
        ),
        ResponseStatus::ShuttingDown => HttpResponse::json(503, "{\"status\": \"shutting_down\"}"),
        ResponseStatus::DeadlineMiss => HttpResponse::json(
            504,
            format!("{{\"status\": \"deadline_miss\", \"latency_us\": {latency_us}}}"),
        ),
        ResponseStatus::Failed => {
            let msg = resp
                .error
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown".into());
            HttpResponse::json(
                500,
                format!(
                    "{{\"status\": \"error\", \"error\": {}, \"latency_us\": {latency_us}}}",
                    json::quote(&msg)
                ),
            )
        }
    }
}

/// Final stats + latency flush printed at graceful shutdown.
fn print_final(stats: &greuse::serve::ServeStats) {
    println!(
        "final: {} admitted, {} ok ({} dense), {} failed, {} shed, {} deadline-missed, \
         {} batches, {} breaker trips",
        stats.admitted,
        stats.completed,
        stats.served_dense,
        stats.failed,
        stats.shed,
        stats.deadline_missed,
        stats.batches,
        stats.breaker_trips
    );
    if let Some(s) = greuse_telemetry::metrics::snapshot()
        .hists
        .into_iter()
        .find(|s| s.key == greuse::serve::METRIC_REQUEST_LATENCY && s.count > 0)
    {
        println!(
            "final: request latency p50 {:.1} us, p99 {:.1} us over {} requests",
            s.quantile(0.5) as f64 / 1e3,
            s.quantile(0.99) as f64 / 1e3,
            s.count
        );
    }
}

/// One phase's client-side observations.
struct PhaseResult {
    /// Latencies (ns) of `200` responses only — admitted and computed.
    ok_ns: Vec<u64>,
    sent: u64,
    ok: u64,
    shed: u64,
    deadline_missed: u64,
    errors: u64,
    elapsed: Duration,
}

impl PhaseResult {
    fn p(&mut self, q: f64) -> f64 {
        if self.ok_ns.is_empty() {
            return f64::NAN;
        }
        self.ok_ns.sort_unstable();
        let idx = ((self.ok_ns.len() as f64 * q) as usize).min(self.ok_ns.len() - 1);
        self.ok_ns[idx] as f64 / 1e9
    }

    fn rate(&self, count: u64) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            count as f64 / self.sent as f64
        }
    }
}

/// Fires requests at `rps` total for `secs`, spread over `threads`
/// senders with fixed per-thread pacing (open-loop up to one in-flight
/// request per sender: a slow response delays only that sender's lane,
/// the other lanes keep firing on schedule).
fn run_phase(
    addr: &str,
    rps: f64,
    secs: f64,
    threads: usize,
    deadline_ms: u64,
    ids: &Arc<AtomicU64>,
) -> PhaseResult {
    let interval = Duration::from_secs_f64(threads as f64 / rps.max(1.0));
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    let mut handles = Vec::new();
    for t in 0..threads.max(1) {
        let addr = addr.to_string();
        let ids = Arc::clone(ids);
        handles.push(std::thread::spawn(move || {
            let mut ok_ns = Vec::new();
            let (mut sent, mut ok, mut shed, mut missed, mut errors) = (0u64, 0, 0, 0, 0);
            // Stagger lanes so the aggregate stream is evenly spaced.
            let mut next = started + interval.mul_f64(t as f64 / threads.max(1) as f64);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                if next > now {
                    std::thread::sleep(next - now);
                }
                next += interval;
                let id = ids.fetch_add(1, Ordering::Relaxed);
                let body = format!("{{\"seed\": {id}, \"deadline_ms\": {deadline_ms}}}");
                let t0 = Instant::now();
                sent += 1;
                match http::post(&addr, "/infer", &body) {
                    Ok((200, _)) => {
                        ok += 1;
                        ok_ns.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    }
                    Ok((503, _)) => shed += 1,
                    Ok((504, _)) => missed += 1,
                    _ => errors += 1,
                }
            }
            (ok_ns, sent, ok, shed, missed, errors)
        }));
    }
    let mut result = PhaseResult {
        ok_ns: Vec::new(),
        sent: 0,
        ok: 0,
        shed: 0,
        deadline_missed: 0,
        errors: 0,
        elapsed: Duration::ZERO,
    };
    for h in handles {
        let (ns, sent, ok, shed, missed, errors) = h.join().expect("sender thread");
        result.ok_ns.extend(ns);
        result.sent += sent;
        result.ok += ok;
        result.shed += shed;
        result.deadline_missed += missed;
        result.errors += errors;
    }
    result.elapsed = started.elapsed();
    result
}

/// `greuse bench-serve --addr HOST:PORT` — two-phase open-loop load
/// test against a running `greuse serve`: an unloaded phase for the
/// baseline p50/p99, then a stress phase exercising the shed and
/// deadline paths. The stress rate is derived from the unloaded p50:
/// `threads / p50` fires each sender again as soon as an unloaded answer
/// would return, so about `threads` requests stay in flight however fast
/// the host serves. Writes the schema-v1
/// `BENCH_serve.json`; `--check` gates the graceful-degradation
/// acceptance criteria (nonzero shed under overload, stress p99 of
/// admitted requests within 3× the unloaded p99).
pub fn bench_serve(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?.to_string();
    let unloaded_rps: f64 = opts.num("unloaded-rps", 30.0f64)?;
    let secs: f64 = opts.num("secs", 3.0f64)?;
    let threads: usize = opts.num("threads", 8usize)?.max(1);
    let deadline_ms: u64 = opts.num("deadline-ms", 100u64)?.max(1);
    let p99_budget: f64 = opts.num("p99-budget", 3.0f64)?;

    let (status, body) = http::get(&addr, "/healthz")
        .map_err(|e| format!("cannot reach greuse serve at {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}/healthz answered {status}: {}", body.trim()));
    }

    let ids = Arc::new(AtomicU64::new(1));
    // Determinism probe: the same seed must reproduce its checksum when
    // both answers came off the same path (reuse vs dense differ by
    // design — the fallback trades the approximation away).
    let probe = |seed: u64| -> Result<(String, bool), String> {
        let (status, body) = http::post(
            &addr,
            "/infer",
            &format!("{{\"seed\": {seed}, \"deadline_ms\": 2000}}"),
        )
        .map_err(|e| format!("probe request failed: {e}"))?;
        if status != 200 {
            return Err(format!("probe answered {status}: {}", body.trim()));
        }
        let v = json::parse(&body).map_err(|e| format!("probe body: {e}"))?;
        Ok((
            v.get("checksum")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            v.get("dense").and_then(Value::as_bool).unwrap_or(false),
        ))
    };
    let (c1, d1) = probe(0)?;
    let (c2, d2) = probe(0)?;
    if d1 == d2 && c1 != c2 {
        return Err(format!(
            "nondeterministic server: seed 0 answered {c1} then {c2} on the same path"
        ));
    }

    println!("phase 1: unloaded at {unloaded_rps:.0} rps for {secs}s");
    let mut unloaded = run_phase(&addr, unloaded_rps, secs, threads, deadline_ms, &ids);
    let (u_p50, u_p99) = (unloaded.p(0.5), unloaded.p(0.99));
    println!(
        "  {} sent, {} ok, {} shed, {} missed, {} errors — p50 {:.2} ms, p99 {:.2} ms",
        unloaded.sent,
        unloaded.ok,
        unloaded.shed,
        unloaded.deadline_missed,
        unloaded.errors,
        u_p50 * 1e3,
        u_p99 * 1e3
    );
    if unloaded.ok == 0 {
        return Err("unloaded phase completed zero requests — server broken or unreachable".into());
    }

    let stress_rps = threads as f64 / u_p50;
    println!("phase 2: stress at {stress_rps:.0} rps (threads / unloaded p50) for {secs}s");
    let mut stress = run_phase(&addr, stress_rps, secs, threads, deadline_ms, &ids);
    let s_p99 = stress.p(0.99);
    let images_per_sec = stress.ok as f64 / stress.elapsed.as_secs_f64();
    let p99_ratio = s_p99 / u_p99;
    println!(
        "  {} sent, {} ok ({images_per_sec:.1} images/sec), {} shed ({:.1}%), {} missed, \
         {} errors — p99 {:.2} ms ({p99_ratio:.2}x unloaded)",
        stress.sent,
        stress.ok,
        stress.shed,
        stress.rate(stress.shed) * 100.0,
        stress.deadline_missed,
        stress.errors,
        s_p99 * 1e3
    );

    let record = BenchRecord::new("serve")
        .param("unloaded_rps", unloaded_rps)
        .param("secs", secs)
        .param("threads", threads as f64)
        .param("deadline_ms", deadline_ms as f64)
        .metric("unloaded_p50_secs", u_p50)
        .metric("unloaded_p99_secs", u_p99)
        .metric("stress_rps", stress_rps)
        .metric("stress_p99_secs", s_p99)
        .metric("stress_p99_ratio", p99_ratio)
        .metric("images_per_sec", images_per_sec)
        .metric("shed_rate", stress.rate(stress.shed))
        .metric("deadline_miss_rate", stress.rate(stress.deadline_missed))
        .metric("error_rate", stress.rate(stress.errors))
        .flag("checked", opts.flag("check"));
    record.write();

    if opts.flag("stop-server") {
        let _ = http::post(&addr, "/shutdown", "{}");
        println!("sent /shutdown to {addr}");
    }

    if opts.flag("check") {
        let mut failures = Vec::new();
        if stress.shed + stress.deadline_missed == 0 {
            failures.push(format!(
                "overload produced zero shed/deadline-missed requests at {stress_rps:.0} rps — \
                 not actually overloaded; raise --threads or shrink --queue-cap"
            ));
        }
        if !(p99_ratio.is_finite() && p99_ratio <= p99_budget) {
            failures.push(format!(
                "admitted p99 under stress is {p99_ratio:.2}x unloaded (budget {p99_budget}x) — \
                 graceful degradation failed"
            ));
        }
        if stress.errors > stress.sent / 10 {
            failures.push(format!(
                "{} of {} stress requests errored — server unhealthy under load",
                stress.errors, stress.sent
            ));
        }
        if !failures.is_empty() {
            return Err(failures.join("; "));
        }
        println!("check: degradation criteria hold (shed under overload, p99 within budget)");
    }
    Ok(())
}
