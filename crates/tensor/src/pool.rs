//! Persistent worker pool for data-parallel loops.
//!
//! The previous parallel paths spawned scoped threads on every call
//! (`crossbeam::scope`), which on short batches costs more than the work
//! itself — `BENCH_exec.json` recorded a 0.82× "speedup". This pool spawns
//! its threads **once** ([`WorkerPool::global`]) and parks them on a
//! condvar between jobs, so dispatching a batch is a mutex lock, a
//! generation bump, and a wake — no thread creation, and **no heap
//! allocation**: the job is published as a type-erased borrowed closure
//! pointer and tasks are claimed from a shared atomic counter.
//!
//! Work is distributed by **work-stealing over task indices**: the caller
//! participates too, looping `next.fetch_add(1)` until the task range is
//! drained. On a single-core host the caller typically drains the whole
//! range itself before a worker is even scheduled, so parallel entry
//! points degrade gracefully instead of paying per-call spawn latency.
//!
//! Worker threads are persistent, so `thread_local!` caches inside tasks
//! (GEMM pack buffers, executor workspaces) stay warm across batches —
//! this is what makes the parallel steady state allocation-free.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use greuse_telemetry::metrics::{Counter, Gauge, Handle, Hist};

thread_local! {
    /// Set while this thread is executing pool tasks; nested
    /// [`WorkerPool::run_tasks`] calls then run inline instead of
    /// re-entering the dispatch protocol (which would deadlock on the
    /// dispatch mutex).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Type-erased pointer to the caller's task closure. The lifetime is
/// erased when publishing; validity is guaranteed because `run_tasks`
/// does not return until every worker has finished the generation.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and outlives the job by the completion-latch argument above.
unsafe impl Send for JobPtr {}

struct Slot {
    /// Incremented once per job; workers wait for it to change.
    generation: u64,
    /// Current job, `Some` for the whole lifetime of a generation.
    job: Option<JobPtr>,
    /// Workers that have not yet finished the current generation.
    remaining: usize,
    /// The first worker panic's payload, captured so the caller can
    /// rethrow the *original* panic (message intact) exactly once.
    /// Later worker panics in the same generation are dropped.
    panic_payload: Option<Box<dyn Any + Send>>,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Next unclaimed task index for the current job.
    next: AtomicUsize,
    /// Total task count for the current job.
    n_tasks: AtomicUsize,
}

impl Shared {
    /// Claims and runs task indices until the range is drained; returns
    /// how many this thread executed (telemetry: caller-drain share).
    fn drain(&self, task: &(dyn Fn(usize) + Sync)) -> u64 {
        let n = self.n_tasks.load(Ordering::Acquire);
        let mut done = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            task(i);
            done += 1;
        }
        done
    }
}

// Pool metrics. Module-level handles (rather than macro call-sites) so
// `with_workers` can register them all at pool creation: registration is
// the one allocating step, and pinning it to pool spawn keeps it out of
// every steady-state measurement window.
static JOBS: Handle<Counter> = Handle::new("pool.jobs");
static TASKS_CALLER: Handle<Counter> = Handle::new("pool.tasks.caller");
static TASKS_WORKER: Handle<Counter> = Handle::new("pool.tasks.worker");
static PARKS: Handle<Counter> = Handle::new("pool.parks");
static WAKES: Handle<Counter> = Handle::new("pool.wakes");
/// Wall time of each dispatched job (publish → completion latch), ns.
static JOB_LATENCY: Handle<Hist> = Handle::new("pool.job_latency");
/// Worker-thread count, exported so a scrape can normalize job latency.
static WORKERS_GAUGE: Handle<Gauge> = Handle::new("pool.workers");

/// A pool of persistent worker threads parked between jobs.
///
/// Obtain the process-wide instance with [`WorkerPool::global`]; it is
/// sized to the host (`available_parallelism - 1` workers, minimum one)
/// because the dispatching thread always participates in the work.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes jobs: one batch owns the pool at a time.
    dispatch: Mutex<()>,
    workers: usize,
}

static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// Returns the process-wide pool, spawning its workers on first use.
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| {
            let hw = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            WorkerPool::with_workers(hw.saturating_sub(1).max(1))
        })
    }

    fn with_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                remaining: 0,
                panic_payload: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            n_tasks: AtomicUsize::new(0),
        });
        // Register every pool metric now so the one-time registration
        // allocation happens here, never during a measured job.
        JOBS.get();
        TASKS_CALLER.get();
        TASKS_WORKER.get();
        PARKS.get();
        WAKES.get();
        JOB_LATENCY.get();
        WORKERS_GAUGE.get();
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("greuse-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        WorkerPool {
            shared,
            dispatch: Mutex::new(()),
            workers,
        }
    }

    /// Number of worker threads (excluding the participating caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True while the current thread is executing a pool task. In that
    /// state a nested [`WorkerPool::run_tasks`] runs inline, so callers
    /// relying on genuine multi-thread dispatch (e.g. per-thread cache
    /// warm-up barriers) must fall back to single-thread behaviour.
    pub fn in_task() -> bool {
        IN_POOL.with(|f| f.get())
    }

    /// Runs `task(0..n_tasks)` across the pool, blocking until every
    /// index has completed. `width` caps the desired concurrency: with
    /// `width <= 1` (or a single task, or when called from inside a pool
    /// task) the loop runs inline on the caller with zero overhead.
    ///
    /// Tasks must be independent; indices are claimed dynamically, so no
    /// ordering between them may be assumed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any task to the caller (after all other
    /// workers have finished the job, so no borrow outlives the call).
    /// A panic in the caller's own drain takes precedence; otherwise the
    /// first captured worker payload is rethrown exactly once with
    /// [`resume_unwind`], so the original panic message survives.
    pub fn run_tasks(&self, n_tasks: usize, width: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        if width <= 1 || n_tasks == 1 || IN_POOL.with(|f| f.get()) {
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        // All pool locks tolerate poisoning: a propagated task panic
        // unwinds through `run_tasks` while guards are live, which would
        // otherwise wedge the process-global pool for every later batch.
        // The protected state stays consistent across a panic — `dispatch`
        // guards no data, and `slot` is re-published from scratch each
        // generation — so recovering the inner guard is sound.
        let _own = self.dispatch.lock().unwrap_or_else(|p| p.into_inner());
        let job_span = greuse_telemetry::span!("pool.job", timed: true);
        self.shared.n_tasks.store(n_tasks, Ordering::Release);
        self.shared.next.store(0, Ordering::Release);
        // SAFETY: lifetime erasure only; the completion latch below keeps
        // the borrow alive for as long as any worker can dereference it.
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task as *const (dyn Fn(usize) + Sync))
        });
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            slot.job = Some(job);
            slot.remaining = self.workers;
            slot.generation += 1;
            self.shared.work_cv.notify_all();
        }
        JOBS.get().add(1);
        WORKERS_GAUGE.get().set(self.workers as f64);
        // The caller works too; a panic here must still wait out the
        // workers before unwinding frees the task closure.
        IN_POOL.with(|f| f.set(true));
        let mine = catch_unwind(AssertUnwindSafe(|| self.shared.drain(task)));
        IN_POOL.with(|f| f.set(false));
        if let Ok(done) = &mine {
            TASKS_CALLER.get().add(*done);
        }
        let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
        while slot.remaining > 0 {
            slot = self
                .shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(|p| p.into_inner());
        }
        slot.job = None;
        let worker_payload = slot.panic_payload.take();
        drop(slot);
        job_span.finish(JOB_LATENCY.get());
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_payload {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            if slot.generation == last_gen {
                PARKS.get().add(1);
                while slot.generation == last_gen {
                    slot = shared.work_cv.wait(slot).unwrap_or_else(|p| p.into_inner());
                }
                WAKES.get().add(1);
            }
            last_gen = slot.generation;
            slot.job.expect("job published with generation")
        };
        IN_POOL.with(|f| f.set(true));
        // SAFETY: the dispatcher blocks on the `remaining` latch, so the
        // closure behind `job` is alive until we decrement below.
        let result = catch_unwind(AssertUnwindSafe(|| shared.drain(unsafe { &*job.0 })));
        IN_POOL.with(|f| f.set(false));
        if let Ok(done) = &result {
            TASKS_WORKER.get().add(*done);
        }
        let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(payload) = result {
            if slot.panic_payload.is_none() {
                slot.panic_payload = Some(payload);
            }
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        WorkerPool::global().run_tasks(hits.len(), 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn width_one_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        WorkerPool::global().run_tasks(8, 1, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let total = AtomicUsize::new(0);
        WorkerPool::global().run_tasks(4, 8, &|_| {
            WorkerPool::global().run_tasks(4, 8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_payload_propagates_once_with_message() {
        // Whichever thread claims the poisoned index, the caller must
        // observe the original payload (not a generic assert), and the
        // pool must stay usable afterwards.
        let result = std::panic::catch_unwind(|| {
            WorkerPool::global().run_tasks(64, 4, &|i| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
            });
        });
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 13 exploded"), "payload lost: {msg:?}");
        let total = AtomicUsize::new(0);
        WorkerPool::global().run_tasks(8, 4, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pool_survives_many_batches() {
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            WorkerPool::global().run_tasks(16, 4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 16);
    }
}
