//! Host-speed calibration.
//!
//! On a shared host a vCPU's speed drifts: the same single-threaded
//! work takes up to 1.6–2× as long in a slow stretch, with no steal
//! time and CPU time equal to wall time, and the stretches last from
//! seconds to minutes. Raw seconds then move more between two sets of
//! runs than any change worth measuring.
//!
//! So the benchmark pins itself, and with it the `qserve` child it
//! spawns, to one CPU, and times a fixed kernel of its own on that CPU
//! between jobs. Every reported time is scaled by `REF_KERNEL_S` ÷ the
//! mean of the kernel samples right before and right after it: seconds
//! as they would read when the host runs the kernel at its reference
//! speed. The kernel calls no code of the repository, so a change to
//! the program moves the jobs and not the kernel.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The kernel's time on the development VM (2 vCPUs of an Intel Xeon
/// host) in its fast stretches. With it, scaled seconds equal raw
/// seconds there.
pub const REF_KERNEL_S: f64 = 0.0075;

/// Pins the calling process (and every thread and process it starts
/// afterwards) to the lowest-numbered CPU it may run on; returns it.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    // SAFETY: the mask buffer is valid for its full size in bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; pid 0 is the calling thread, whose mask new
    // threads and child processes inherit.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// The kernel: hash-map updates and small vector growth and release,
/// the allocation-heavy, branchy shape of the optimizer's own work. Of
/// the kernels tried (complex 8×8 matrix products, table walks of
/// 256 KiB and 8 MiB, maps of 1k and 32k keys, vectors of random
/// sizes) this one's time tracked a fixed optimizer job's time most
/// closely through the host's slow and fast stretches.
fn kernel() -> usize {
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut x = 1u64;
    for i in 0..360_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bucket = map.entry(x & 4095).or_default();
        bucket.push(i);
        if bucket.len() > 8 {
            bucket.clear();
        }
    }
    map.len()
}

/// Seconds one kernel run takes now.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// Scales each of `times` by `REF_KERNEL_S` ÷ the mean of the kernel
/// samples around it: `kernel[k]` was taken right before `times[k]`
/// and `kernel[k + 1]` right after it.
pub fn scaled(times: &[f64], kernel: &[f64]) -> Vec<f64> {
    assert_eq!(
        kernel.len(),
        times.len() + 1,
        "one kernel sample around each time"
    );
    times
        .iter()
        .zip(kernel.windows(2))
        .map(|(t, k)| t * REF_KERNEL_S / (0.5 * (k[0] + k[1])))
        .collect()
}
