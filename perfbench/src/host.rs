//! Host-speed reference: a fixed kernel owned by the benchmark, timed
//! between units, that the end-to-end timings are scaled by.
//!
//! On a shared virtual machine the program's speed swings with what other
//! tenants do, in phases that last longer than a run (`README.md`, "Host,
//! noise and bounds", gives the measurements), so the spread across runs
//! would be the host's, not the program's. The kernel here does the kind
//! of work the program does (hash-map and B-tree inserts and lookups on
//! fresh allocations, a few MiB in all), so it slows down with the
//! program. Each time metric is reported as it would read were the kernel
//! taking [`REFERENCE_S`].
//!
//! The kernel always does the same work, never changes with the program
//! under test, and is timed warm (after one untimed call), so what the
//! program left in the caches and the heap moves it as little as possible.

use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The kernel time the reported metrics are scaled to: about its time on
/// the benchmark's host when no other tenant slows it down.
pub const REFERENCE_S: f64 = 0.015;

/// Timed calls per sample (after one untimed warm-up call); a sample is
/// their median.
const CALLS_PER_SAMPLE: usize = 3;

/// The reference kernel: seeded inserts into a hash map of vectors and a
/// B-tree map, interleaved lookups, then a sort. The same work on every
/// call.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut lists: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..60_000u32 {
        let k = next() % 20_000;
        lists.entry(k).or_default().push(i);
        *tree.entry(next() % 30_000).or_insert(0) += k;
        if i % 3 == 0 {
            if let Some(v) = lists.get(&(next() % 20_000)) {
                acc = acc.wrapping_add(v.len() as u64);
            }
        }
    }
    let mut sums: Vec<u64> = tree.values().copied().collect();
    sums.sort_unstable();
    acc.wrapping_add(sums[sums.len() / 2])
        .wrapping_add(lists.len() as u64)
}

/// Times the kernel once untimed, then [`CALLS_PER_SAMPLE`] times.
fn timed_calls() -> Vec<f64> {
    std::hint::black_box(kernel());
    (0..CALLS_PER_SAMPLE)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Samples of the kernel's time taken through one run.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::on_threads(1)
    }
}

impl HostSpeed {
    /// A sampler that runs the kernel on `threads` threads at once, as a
    /// workload running on that many threads loads the host.
    pub fn on_threads(threads: usize) -> HostSpeed {
        HostSpeed {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Times the kernel on each thread once untimed, then
    /// [`CALLS_PER_SAMPLE`] times, and records the median of all timed
    /// calls.
    pub fn sample(&mut self) {
        let times: Vec<f64> = if self.threads == 1 {
            timed_calls()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|_| scope.spawn(timed_calls))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("reference kernel thread"))
                    .collect()
            })
        };
        self.samples.push(median(&times));
    }

    /// Takes `n` samples.
    pub fn sample_times(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median kernel time over the run, in seconds.
    pub fn reference_s(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than [`REFERENCE_S`] the host ran the kernel
    /// during this run (1 with no samples).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.reference_s() / REFERENCE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_call() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        h.samples = vec![0.030, 0.015, 0.045];
        assert!((h.slowdown() - 2.0).abs() < 1e-12);
        h.sample();
        assert_eq!(h.samples.len(), 4);
        assert!(h.samples[3] > 0.0);
        let mut two = HostSpeed::on_threads(2);
        two.sample();
        assert!(two.slowdown() > 0.0);
    }
}
