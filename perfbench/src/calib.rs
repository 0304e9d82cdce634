//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed as a whole: for
//! minutes at a time every timing, from a crawl to a tight loop, reads about
//! 1.6× slower. No statistic over one run can undo a run that lies entirely
//! in a slow phase, so each run also times a fixed kernel, which no change
//! to the program can touch, between its repetitions. A slowdown is the
//! kernel's time (fast-side quartile, like every timing) over
//! [`REFERENCE_S`], and each reported timing is adjusted by it: times are
//! divided by it, rates multiplied. The raw values and the slowdowns are in
//! the run record.
//!
//! Each core also changes speed on its own, for seconds at a time, so a
//! sample runs the kernel on as many threads at once as the workload has
//! workers: a crawl repetition is adjusted by how fast its cores were
//! together, a single-threaded timing by how fast one core was.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's time on the reference host (2-vCPU VM) in its fast phase.
/// It only sets the unit; comparisons between runs do not depend on it.
pub const REFERENCE_S: f64 = 0.001_9;

/// Deterministic work in the vein of the crawl's: formatting strings,
/// ordered-map inserts and lookups, sorting.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut keys = Vec::with_capacity(4000);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("k{:x}", x % 5000);
        *map.entry(key.clone()).or_insert(0u64) += i;
        keys.push(key);
    }
    keys.sort_unstable();
    keys.iter().fold(0, |acc, k| acc ^ map[k])
}

fn timed_kernel() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64()
}

fn slowdown(times: &[f64]) -> f64 {
    match stats::fast_time(times) {
        t if t > 0.0 => t / REFERENCE_S,
        _ => 1.0,
    }
}

/// The kernel's timings over one run.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Every thread's time of every sample.
    pub thread_s: Vec<f64>,
    /// Per sample, the mean of its threads' times.
    pub sample_s: Vec<f64>,
}

impl Calibration {
    /// Time the kernel on `threads` threads at once.
    pub fn sample(&mut self, threads: usize) {
        let times: Vec<f64> = std::thread::scope(|s| {
            let running: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(timed_kernel)).collect();
            running
                .into_iter()
                .map(|t| t.join().expect("calibration kernel panicked"))
                .collect()
        });
        self.sample_s
            .push(times.iter().sum::<f64>() / times.len() as f64);
        self.thread_s.extend(times);
    }

    /// How much slower than the reference host one core was.
    pub fn core_slowdown(&self) -> f64 {
        slowdown(&self.thread_s)
    }

    /// How much slower than the reference host the cores sampled together
    /// were.
    pub fn cores_slowdown(&self) -> f64 {
        slowdown(&self.sample_s)
    }
}
