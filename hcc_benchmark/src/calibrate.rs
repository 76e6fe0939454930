//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the same binary runs up to twice as slow from one
//! minute to the next, so raw wall times of two runs of the same code
//! can differ by more than any useful regression bound. Each iteration
//! is therefore bracketed by runs of a fixed kernel built from the
//! standard library only, which no change to the lab can speed up or
//! slow down, and the gated times are wall times scaled by
//! `REFERENCE_MS / kernel time`: host time on a reference host. The raw
//! wall times are reported next to them.
//!
//! The kernel is byte hashing plus a sort and map inserts over
//! cache-resident data: on a 2-vCPU Xeon VM its ratio to each workload
//! varied 1–3% (interquartile) across runs whose raw times varied 4–7%.
//! A kernel chasing pointers through 4 MiB tracked far worse (11–18%), so
//! memory-latency work is deliberately left out. The price: when
//! neighbours contend for memory the workloads slow more than the
//! kernel, and calibrated times still drift (storm: +19% while raw time
//! rose 86%).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host (2 × Intel Xeon vCPU
/// at 2.0 GHz), so calibrated times read in that host's ms.
pub const REFERENCE_MS: f64 = 1.3;

/// Runs the kernel once and returns its wall time.
pub fn kernel() -> Duration {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let bytes: Vec<u8> = (0..64 * 1024).map(|_| next() as u8).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..4 {
        for &b in &bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut keys: Vec<u64> = (0..32 * 1024).map(|_| next()).collect();
    keys.sort_unstable();
    let map: HashMap<u64, u64> = keys.iter().take(8 * 1024).map(|&k| (k, h ^ k)).collect();
    black_box((h, &keys, &map));
    t.elapsed()
}

/// One kernel run per this much iteration time, up to [`MAX_RUNS`]: a
/// single run varies by ±20% on a busy host, and a long iteration (serve
/// takes ~0.4 s) has few iterations per run to average that out.
const SAMPLE_EVERY_MS: u128 = 25;

/// Most kernel runs on each side of one timed region.
pub const MAX_RUNS: usize = 16;

/// Kernel runs on each side of an iteration that takes about `iteration`.
pub fn runs_for(iteration: Duration) -> usize {
    (iteration.as_millis() / SAMPLE_EVERY_MS).clamp(1, MAX_RUNS as u128) as usize
}

/// The median time of `runs` kernel runs.
pub fn sample(runs: usize) -> Duration {
    let mut times: Vec<Duration> = (0..runs.max(1)).map(|_| kernel()).collect();
    times.sort();
    times[times.len() / 2]
}

/// Scales a host time measured between kernel samples of `before` and
/// `after` to the reference host.
pub fn to_reference(host: Duration, before: Duration, after: Duration) -> Duration {
    let kernel_ms = (before + after).as_secs_f64() * 1e3 / 2.0;
    host.mul_f64(REFERENCE_MS / kernel_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        // A host taking twice the reference time for the kernel is half
        // as fast: its 40 ms are the reference host's 20 ms.
        let slow = Duration::from_secs_f64(2.0 * REFERENCE_MS / 1e3);
        let scaled = to_reference(Duration::from_millis(40), slow, slow);
        assert!((scaled.as_secs_f64() - 0.020).abs() < 1e-9, "{scaled:?}");
        assert!(sample(3) > Duration::ZERO);
    }

    #[test]
    fn longer_iterations_take_more_kernel_runs() {
        let ms = Duration::from_millis;
        assert_eq!(runs_for(ms(11)), 1);
        assert_eq!(runs_for(ms(100)), 4);
        assert_eq!(runs_for(ms(450)), MAX_RUNS);
    }
}
