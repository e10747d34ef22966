//! Host clocks, run-health readings and the back-to-back repetition loop.
//!
//! Every workload of the benchmark is a deterministic computation, so host
//! noise (a neighbour on a shared core, a frequency dip, a hypervisor steal)
//! can only *add* time to a repetition.  [`repeat`] therefore runs the timed
//! phase back to back until the run's time budget is spent and keeps every
//! repetition; the reported `wall_s`/`cpu_s` come from the fastest one, and
//! the spread between the fastest and the slowest is reported as run health.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc files and the 64-bit Linux timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
const M_MMAP_THRESHOLD: i32 = -3;

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`: CPU time of every thread of
/// the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by the whole process (all threads).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux, checked by the `compile_error!` above) for the whole call,
    // and the clock id is a constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Serve every allocation of 128 KiB or more from its own mapping, always.
/// By default glibc raises this threshold each time such a mapping is freed,
/// so where a large buffer lives, and whether growing it copies it within
/// the heap (holding old and new copies at once), depends on the history of
/// the process.  Pinned, the peak resident set follows the program's live
/// data.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only sets an allocator parameter; glibc accepts it
    // at any time, with allocations live.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// One `Key: value kB` style field of `/proc/self/status`, as a number.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads currently alive in this process.
pub fn thread_count() -> u64 {
    proc_status_field("Threads").unwrap_or(0)
}

/// Hypervisor steal ticks summed over all CPUs (`/proc/stat`, `cpu` line).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The one-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall time of a fixed integer loop (fastest of three): a yardstick for how
/// fast this host ran while the workload was measured.
pub fn reference_loop() -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..(1u64 << 25) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
            start.elapsed()
        })
        .min()
        .expect("three samples")
}

/// Host wall time and process CPU time of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall: Duration,
    pub cpu: Duration,
}

/// Run `work` back to back until `budget` is spent (and at least `min_reps`
/// times), timing each call.  `prepare` builds each call's input outside the
/// timed region; `check` inspects each call's output outside it too.
pub fn repeat<I, R>(
    budget: Duration,
    min_reps: usize,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I) -> R,
    mut check: impl FnMut(R),
) -> Vec<Rep> {
    const MAX_REPS: usize = 1000;
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let input = prepare();
        let t0 = Instant::now();
        let c0 = process_cpu();
        let output = std::hint::black_box(work(input));
        let cpu = process_cpu() - c0;
        let wall = t0.elapsed();
        reps.push(Rep { wall, cpu });
        check(output);
        // Stop when another repetition of the same length would overrun.
        let done = started.elapsed() + wall > budget || reps.len() >= MAX_REPS;
        if reps.len() >= min_reps && done {
            return reps;
        }
    }
}

/// Index of the fastest repetition (by wall time).
pub fn fastest_index(reps: &[Rep]) -> usize {
    (0..reps.len())
        .min_by_key(|&i| reps[i].wall)
        .expect("repeat runs at least once")
}

/// The fastest repetition (by wall time).
pub fn fastest(reps: &[Rep]) -> Rep {
    reps[fastest_index(reps)]
}

/// The slowest repetition (by wall time).
pub fn slowest(reps: &[Rep]) -> Rep {
    *reps
        .iter()
        .max_by_key(|r| r.wall)
        .expect("repeat runs at least once")
}

/// Median of `samples` (upper median for an even count).
pub fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// 64-bit FNV-1a: a stable digest of simulated counters and rendered output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        // A separator, so ("ab", "c") and ("a", "bc") digest differently.
        self.write(&[0xFF]);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_honours_the_minimum_and_the_budget() {
        let reps = repeat(Duration::ZERO, 3, || (), |()| 1u32, |_| {});
        assert_eq!(reps.len(), 3);
        let reps = repeat(Duration::from_millis(20), 1, || (), |()| 1u32, |_| {});
        assert!(reps.len() > 1, "a trivial call fits many times in 20 ms");
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let c0 = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > c0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::default();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.hex(), b.hex());
    }
}
