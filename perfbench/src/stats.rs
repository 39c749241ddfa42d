//! Metric arithmetic and the result line: medians, rates, digests, seeded
//! orders, peak memory, and the one-line JSON the runner prints.

use crate::host::HostSpeed;
use std::fmt::Write as _;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run: units attempted and failed, plus the
/// metrics of the requested kind (end-to-end or per-layer).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units executed (every pass counts each unit again).
    pub attempted: u64,
    /// Units whose output check, determinism check or replay check failed.
    pub failed: u64,
    /// Why each failed unit failed (printed to stderr, never to stdout).
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one unit; a non-empty `problem` marks it failed.
    pub fn record(&mut self, unit: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{unit}: {p}"));
        }
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value cannot be written as
    /// JSON, so it is written as 0 and the run is reported incorrect.
    pub fn json_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The end-to-end metrics of a timed run, in `BENCHMARK.json` order. The
/// two timings, measured as `units_per_s` and `setup_s`, are scaled to
/// the host's reference speed (see [`HostSpeed`]) while the timed passes
/// (`timed`) and the set-up (`setup`) ran; the measured values go to
/// standard error.
pub fn end_to_end(
    units_per_s: f64,
    setup_s: f64,
    timed: &HostSpeed,
    setup: &HostSpeed,
) -> Vec<Metric> {
    eprintln!(
        "rtlock-perfbench: measured units_per_s {units_per_s:.6} setup_s {setup_s:.6}; \
         reference kernel {:.6} s and {:.6} s (slowdown {:.4} and {:.4})",
        timed.reference_s(),
        setup.reference_s(),
        timed.slowdown(),
        setup.slowdown()
    );
    vec![
        Metric {
            name: "units_per_s",
            value: units_per_s * timed.slowdown(),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: setup_s / setup.slowdown(),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Units per second when each unit is a fixed input timed several times:
/// the unit count over the sum of each unit's median time, so one slow
/// repetition of one unit does not move the rate.
pub fn rate_of_unit_medians(times_per_unit: &[Vec<f64>]) -> f64 {
    let total: f64 = times_per_unit.iter().map(|t| median(t)).sum();
    if total > 0.0 {
        times_per_unit.len() as f64 / total
    } else {
        0.0
    }
}

/// 64-bit FNV-1a digest of a canonical rendering.
pub fn digest(text: &str) -> u64 {
    digest_bytes(text.as_bytes())
}

/// 64-bit FNV-1a digest of raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: derives independent 64-bit values from a seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn unit_median_rate_ignores_one_slow_repetition() {
        // Two units of 1 s and 2 s; one repetition of the first is slow.
        let times = vec![vec![1.0, 1.0, 9.0], vec![2.0, 2.0, 2.0]];
        assert!((rate_of_unit_medians(&times) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rate_of_unit_medians(&[]), 0.0);
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(7, 42);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert_eq!(a, shuffled(7, 42));
        assert!(
            (0..16).any(|s| shuffled(7, s) != a),
            "the seed changes the order"
        );
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.record("u", None);
        o.metrics.push(Metric {
            name: "units_per_s",
            value: 1.25,
            unit: "1/s",
        });
        o.metrics.push(Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
        });
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"units_per_s\": \
             {\"value\": 1.25, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.record("v", Some("bad key".into()));
        assert!(o
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        let mut clean = Outcome::default();
        clean.record("u", None);
        clean.metrics.push(Metric {
            name: "x",
            value: f64::INFINITY,
            unit: "s",
        });
        assert!(clean.json_line().contains("\"correct\": false"));
        assert!(clean.json_line().contains("\"value\": 0.0"));
    }

    #[test]
    fn digest_and_mix_are_stable() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest("a"), digest("b"));
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
