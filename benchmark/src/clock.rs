//! The clock the cold workloads are timed with: CPU time of the whole
//! process.
//!
//! A cold solve runs on one thread (the shipped presets ground with one
//! thread) and does no I/O, so on an idle host its CPU time and its wall
//! time agree. On a shared host they part: the hypervisor hands the vCPU
//! to other tenants for stretches the guest kernel books as steal time,
//! which wall time counts and CPU time does not. CPU time of the whole
//! process, not of the calling thread, so that work a later change moves
//! onto other threads is still counted.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, summed over its threads.
pub(crate) fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Run `f` and return its result with the CPU time it took.
pub(crate) fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = cpu_now();
    let out = f();
    (out, cpu_now().saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        // Other tests of this process may run meanwhile; they are tiny.
        let ((), slept) = cpu_timed(|| std::thread::sleep(Duration::from_millis(200)));
        assert!(slept < Duration::from_millis(100), "a sleep took {slept:?}");
        let start = cpu_now();
        let wall = std::time::Instant::now();
        while cpu_now() - start < Duration::from_millis(20) {
            assert!(
                wall.elapsed() < Duration::from_secs(10),
                "CPU time does not advance"
            );
        }
    }
}
