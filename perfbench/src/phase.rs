//! The timed phase shared by every workload: a CPU-time budget, per-item
//! CPU and wall samples, and the heap, allocation and host-noise
//! counters around them.
//!
//! Every reported time is process CPU time scaled to nominal host speed
//! by the reference kernel of [`crate::calib`]. The kernel is sampled
//! before an item once [`SAMPLE_NS`] of CPU have passed since its last
//! run, and once after the last item; each item is scaled by the kernel
//! time interpolated at its position between the two samples around it.
//! Most items therefore run on the program's own cache state, not on
//! the one the kernel leaves behind. The raw CPU and wall times are kept
//! as diagnostics.

use std::time::Instant;

use crate::alloc;
use crate::calib::{speed_of, Reference};
use crate::clock::{process_cpu_ns, HostTicks};
use crate::report::quantile;

/// Settings of one benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// CPU seconds the timed phase measures (split evenly between the
    /// untraced and traced phases in a traced run).
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Raw CPU nanoseconds of measured work after which the next item is
/// preceded by a reference-kernel sample.
const SAMPLE_NS: u64 = 25_000_000;

/// CPU seconds of `f` at nominal host speed (scaled by reference runs
/// right before and after it), with its result.
pub fn cpu_timed<T>(reference: &mut Reference, f: impl FnOnce() -> T) -> (T, f64) {
    let before = reference.run_ms();
    let t0 = process_cpu_ns();
    let out = f();
    let secs = (process_cpu_ns() - t0) as f64 * 1e-9;
    let speed = speed_of((before + reference.run_ms()) / 2.0);
    (out, secs * speed)
}

/// Runs `setup` `n` times (`n` ≥ 1), dropping each result before the
/// next run, and returns the last result with `setup_s`: the median raw
/// CPU seconds of the runs, scaled by the square root of the median host
/// speed the reference kernel read right before and right after each.
/// A set-up evicts the kernel's operands, so one kernel run next to it
/// reads anywhere from 0.4 to 1.0 of nominal speed; the median over all
/// of them is steady. The square root is there because set-up work,
/// much of it scalar weight initialisation and allocation, slows by
/// about 1.4× in the host's slow state, where the kernel slows by 1.9×.
pub fn timed_setups<T>(
    reference: &mut Reference,
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (mut raw_s, mut speeds, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..n {
        drop(last.take());
        speeds.push(speed_of(reference.run_ms()));
        let t0 = process_cpu_ns();
        let out = setup()?;
        raw_s.push((process_cpu_ns() - t0) as f64 * 1e-9);
        speeds.push(speed_of(reference.run_ms()));
        last = Some(out);
    }
    let ready = last.expect("callers ask for at least one set-up");
    Ok((ready, quantile(&raw_s, 0.5) * quantile(&speeds, 0.5).sqrt()))
}

/// A running timed phase.
pub struct Phase {
    seconds: f64,
    cpu0: u64,
    wall0: Instant,
    ticks0: HostTicks,
    allocs0: u64,
    reference: Reference,
    /// Reference-kernel samples: the unit they ran before (the unit
    /// count, for the one after the last unit) and their milliseconds.
    samples: Vec<(usize, f64)>,
    /// Raw CPU nanoseconds measured since the last sample.
    unsampled_ns: u64,
    /// Raw CPU and wall milliseconds and item count of each unit.
    units: Vec<(f64, f64, usize)>,
}

/// Item timing taken by [`Phase::item`].
pub struct ItemClock {
    cpu0: u64,
    wall0: Instant,
}

impl Phase {
    /// Starts a phase with a budget of `seconds` of process CPU time.
    /// Peak-heap tracking restarts here, so set-up and warm-up are not
    /// charged to it.
    pub fn start(seconds: f64, reference: Reference) -> Self {
        alloc::reset_peak();
        Phase {
            seconds,
            cpu0: process_cpu_ns(),
            wall0: Instant::now(),
            ticks0: HostTicks::now(),
            allocs0: alloc::allocations(),
            reference,
            samples: Vec::new(),
            unsampled_ns: 0,
            units: Vec::new(),
        }
    }

    /// Whether budget is left. A wall-clock cap of three times the budget
    /// (plus slack) bounds the run on a badly oversubscribed host.
    pub fn running(&self) -> bool {
        let cpu = (process_cpu_ns() - self.cpu0) as f64 * 1e-9;
        cpu < self.seconds && self.wall0.elapsed().as_secs_f64() < 3.0 * self.seconds + 5.0
    }

    /// Samples the reference kernel when due, then starts timing one
    /// unit of work.
    pub fn item(&mut self) -> ItemClock {
        if self.samples.is_empty() || self.unsampled_ns >= SAMPLE_NS {
            self.samples
                .push((self.units.len(), self.reference.run_ms()));
            self.unsampled_ns = 0;
        }
        ItemClock {
            cpu0: process_cpu_ns(),
            wall0: Instant::now(),
        }
    }

    /// Records the unit started by `clock` as `items` items of equal cost
    /// (a serving burst counts once per request).
    pub fn done(&mut self, clock: ItemClock, items: usize) {
        let raw_ns = process_cpu_ns() - clock.cpu0;
        self.unsampled_ns += raw_ns;
        let wall_ms = clock.wall0.elapsed().as_secs_f64() * 1e3;
        self.units
            .push((raw_ns as f64 * 1e-6, wall_ms, items.max(1)));
    }

    /// Ends the phase, handing the reference kernel back.
    ///
    /// Each unit is scaled by the host speed at its midpoint, linearly
    /// interpolated between the samples before and after it. A unit
    /// with samples right before and right after it gets their mean.
    pub fn finish(mut self) -> (PhaseStats, Reference) {
        self.samples
            .push((self.units.len(), self.reference.run_ms()));
        let (mut cpu_ms, mut raw_cpu_ms, mut wall_ms, mut speeds) =
            (vec![], vec![], vec![], vec![]);
        let mut seg = 0;
        for (i, &(raw, wall, items)) in self.units.iter().enumerate() {
            while self.samples[seg + 1].0 <= i {
                seg += 1;
            }
            let ((a, ms_a), (b, ms_b)) = (self.samples[seg], self.samples[seg + 1]);
            let t = (i - a) as f64 + 0.5;
            let speed = speed_of(ms_a + (ms_b - ms_a) * t / (b - a) as f64);
            speeds.push(speed);
            let per = items as f64;
            for _ in 0..items {
                cpu_ms.push(raw * speed / per);
                raw_cpu_ms.push(raw / per);
                wall_ms.push(wall / per);
            }
        }
        let stats = PhaseStats {
            items: cpu_ms.len(),
            cpu_ms_p50: quantile(&cpu_ms, 0.5),
            cpu_ms_p90: quantile(&cpu_ms, 0.9),
            cpu_s: cpu_ms.iter().sum::<f64>() * 1e-3,
            raw_cpu_ms_p50: quantile(&raw_cpu_ms, 0.5),
            raw_cpu_s: raw_cpu_ms.iter().sum::<f64>() * 1e-3,
            speed: quantile(&speeds, 0.5),
            wall_ms_p50: quantile(&wall_ms, 0.5),
            wall_s: wall_ms.iter().sum::<f64>() * 1e-3,
            steal_share: HostTicks::now().steal_share_since(&self.ticks0),
            allocs: alloc::allocations() - self.allocs0,
            peak_heap_kb: alloc::peak_bytes() as f64 / 1024.0,
        };
        (stats, self.reference)
    }
}

/// Summary of a finished [`Phase`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Items measured.
    pub items: usize,
    /// Median CPU milliseconds per item at nominal host speed.
    pub cpu_ms_p50: f64,
    /// 90th-percentile CPU milliseconds per item at nominal host speed.
    pub cpu_ms_p90: f64,
    /// CPU seconds at nominal host speed summed over measured items.
    pub cpu_s: f64,
    /// Median raw (unscaled) CPU milliseconds per item (diagnostic).
    pub raw_cpu_ms_p50: f64,
    /// Raw CPU seconds summed over measured items (diagnostic).
    pub raw_cpu_s: f64,
    /// Median host speed factor over the phase (diagnostic).
    pub speed: f64,
    /// Median wall milliseconds per item (diagnostic only).
    pub wall_ms_p50: f64,
    /// Wall seconds summed over measured items (diagnostic only).
    pub wall_s: f64,
    /// Host steal share over the phase (diagnostic only).
    pub steal_share: f64,
    /// Allocations made during the phase.
    pub allocs: u64,
    /// Peak live heap during the phase, KiB.
    pub peak_heap_kb: f64,
}

impl PhaseStats {
    /// Items per CPU second.
    pub fn items_per_cpu_s(&self) -> f64 {
        self.items as f64 / self.cpu_s.max(f64::MIN_POSITIVE)
    }

    /// Scaled over raw CPU time of the measured items: the factor that
    /// takes a CPU time measured inside them to nominal host speed.
    pub fn scale(&self) -> f64 {
        self.cpu_s / self.raw_cpu_s.max(f64::MIN_POSITIVE)
    }

    /// Wall time over raw CPU time of the measured items (diagnostic).
    pub fn wall_over_cpu(&self) -> f64 {
        self.wall_s / self.raw_cpu_s.max(f64::MIN_POSITIVE)
    }

    /// The host-noise line printed with every run.
    pub fn noise_note(&self) -> String {
        format!(
            "host: speed {:.3} of nominal, raw CPU p50 {:.3} ms/item, steal {:.2}% of host CPU, \
             wall p50 {:.3} ms/item, wall/cpu {:.3} (diagnostics, not metrics)",
            self.speed,
            self.raw_cpu_ms_p50,
            self.steal_share * 100.0,
            self.wall_ms_p50,
            self.wall_over_cpu()
        )
    }
}
