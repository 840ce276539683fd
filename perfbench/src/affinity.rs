//! Pins the benchmark process to one CPU.
//!
//! On a small shared host the second CPU's speed varies with its
//! neighbours' load: a 128-core full-library explore took 17–23 s
//! across runs on two CPUs (the swap sweep's two workers wait on the
//! slower one), and 24.3 s within 0.1 % pinned to one. So every
//! workload runs on one CPU, and the mapper's sweep, which sizes itself
//! by `available_parallelism`, runs one worker.

use std::mem::size_of_val;

/// A `cpu_set_t` as glibc lays it out: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it spawns later) to
/// the lowest-numbered CPU it may run on, and returns that CPU's index
/// and how many CPUs it could use before.
///
/// # Errors
///
/// The OS error when the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Result<(usize, usize), String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let count = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let cpu = (0..allowed.len() * 64)
        .find(|&i| allowed[i / 64] & (1 << (i % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((cpu, count))
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinned_threads_see_one_cpu() {
        // A thread of its own, so the test harness's threads keep theirs.
        std::thread::scope(|s| {
            s.spawn(|| {
                let (_, before) = super::pin_to_one_cpu().expect("affinity is settable");
                assert!(before >= 1);
                let now = std::thread::available_parallelism().map_or(0, |n| n.get());
                assert_eq!(now, 1);
            });
        });
    }
}
