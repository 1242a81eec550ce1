//! CPU clocks and host-noise probes.
//!
//! Every benchmark timing is CPU time read through `clock_gettime`, so a
//! vCPU that loses time to steal (the hypervisor running someone else)
//! does not inflate the figures: with paravirtual time accounting the
//! stolen slices are not charged to the process. Wall clock is read next
//! to it only as a diagnostic, together with the host's steal share.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`: CPU time of every thread
/// of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clock_id: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU nanoseconds consumed by this process so far.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("CLOCK_PROCESS_CPUTIME_ID is always available")
}

/// CPU nanoseconds consumed so far by thread `tid` of this process, or
/// `None` if the thread is gone.
///
/// Linux encodes a thread's CPU clock as `(!tid << 3) | 6` (per-thread,
/// scheduler clock): the value glibc's `pthread_getcpuclockid` returns.
pub fn thread_cpu_ns(tid: i32) -> Option<u64> {
    read_clock((!tid << 3) | 6)
}

/// The id of the thread of this process named `name` (as truncated to
/// 15 bytes by the kernel), if one exists.
pub fn find_thread(name: &str) -> Option<i32> {
    let short = &name[..name.len().min(15)];
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == short {
            return entry.file_name().to_str()?.parse().ok();
        }
    }
    None
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Reads the counters now (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so sum the first eight.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i * i));
        }
        std::hint::black_box(acc);
        assert!(process_cpu_ns() > t0);
    }

    #[test]
    fn named_thread_clock_is_readable() {
        let handle = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(|| std::thread::sleep(std::time::Duration::from_millis(200)))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let tid = find_thread("perfbench-probe").expect("thread is listed");
        assert!(thread_cpu_ns(tid).is_some());
        handle.join().unwrap();
    }
}
