//! CPU clocks, the benchmark's only `unsafe` code.
//!
//! On a shared host other tenants take the CPU away in episodes (steal
//! time), and wall time then measures them as much as the program. The
//! CPU time the kernel charges to this process or thread excludes stolen
//! time, so the batch workloads and every set-up are timed with it.
//!
//! `std` has no CPU clock; `clock_gettime` comes from the C library
//! `std` already links. Linux-only, like the event loop it measures;
//! the constants and the `timespec` layout are the 64-bit Linux ABI.

use std::time::{Duration, Instant};

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for
    // the duration of the call, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(
        rc,
        0,
        "clock_gettime({clock}) failed: {}",
        std::io::Error::last_os_error()
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds used so far by this process, all threads together.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Repeated set-ups, each timed in process CPU seconds.
///
/// The host's speed per CPU-second changes from one second to the next,
/// so an end-to-end run repeats its set-up for at least [`SETUP_SPAN`]
/// and [`SETUP_MIN`] times, and `setup_s` is the fastest repetition. A
/// traced run, which does not report `setup_s`, sets up once.
pub struct Setups {
    start: Instant,
    once: bool,
    samples: Vec<f64>,
}

/// Least number of set-ups in an end-to-end run.
pub const SETUP_MIN: usize = 3;
/// Least wall time the set-ups of an end-to-end run span.
pub const SETUP_SPAN: Duration = Duration::from_secs(2);

impl Setups {
    /// No set-up timed yet; `once` for a traced run.
    pub fn new(once: bool) -> Setups {
        Setups {
            start: Instant::now(),
            once,
            samples: Vec::new(),
        }
    }

    /// Whether to set up once more.
    pub fn again(&self) -> bool {
        let n = self.samples.len();
        if self.once {
            n == 0
        } else {
            n < SETUP_MIN || self.start.elapsed() < SETUP_SPAN
        }
    }

    /// Runs one set-up, timing it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu = process_cpu_s();
        let out = f();
        self.samples.push(process_cpu_s() - cpu);
        out
    }

    /// CPU seconds of each set-up, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let (p1, t1) = (process_cpu_s(), thread_cpu_s());
        assert!(t1 > t0, "thread clock advances");
        assert!(
            p1 - p0 >= t1 - t0 - 1e-3,
            "the process clock includes this thread"
        );
    }

    #[test]
    fn a_traced_run_sets_up_once() {
        let mut once = Setups::new(true);
        while once.again() {
            once.time(|| ());
        }
        assert_eq!(once.samples().len(), 1);
        let mut timed = Setups::new(false);
        timed.time(|| ());
        assert!(timed.again(), "fewer than SETUP_MIN set-ups");
    }
}
