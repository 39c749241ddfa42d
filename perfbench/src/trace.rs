//! The traced run's recorder: spans timed around calls into the program's
//! public functions, and counters, kept in memory and reported once at
//! the end as the per-layer metrics.
//!
//! Timed runs never create a recorder, so they pay nothing for tracing.

use crate::stats::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit, in the
/// order of `BENCHMARK.json`. A traced run reports all of them; a layer
/// the workload does not exercise reads 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flow.elaborate_s", "s"),
    ("flow.prelint_s", "s"),
    ("flow.enumerate_s", "s"),
    ("flow.database_s", "s"),
    ("flow.select_s", "s"),
    ("flow.transform_s", "s"),
    ("flow.verify_s", "s"),
    ("flow.scanlock_s", "s"),
    ("flow.postlint_s", "s"),
    ("flow.analyze_s", "s"),
    ("db.case_synth_s", "s"),
    ("db.ppa_s", "s"),
    ("db.corruption_sim_s", "s"),
    ("db.ml_probe_s", "s"),
    ("flow.candidates", "count"),
    ("flow.viable_cases", "count"),
    ("flow.key_bits", "count"),
    ("flow.locked_gates", "count"),
    ("attack.rounds_s", "s"),
    ("attack.outside_rounds_s", "s"),
    ("attack.round_p50_s", "s"),
    ("attack.round_max_s", "s"),
    ("attack.encode_copy_s", "s"),
    ("attack.oracle_query_s", "s"),
    ("attack.keycheck_s", "s"),
    ("attack.dips", "count"),
    ("attack.oracle_queries", "count"),
    ("attack.keys_found", "count"),
    ("attack.capped", "count"),
    ("campaign.lock_s", "s"),
    ("campaign.surface_s", "s"),
    ("campaign.portfolio_s", "s"),
    ("campaign.journal_append_s", "s"),
    ("portfolio.bmc_s", "s"),
    ("portfolio.bmc_dis", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("exec.speedup_2v1", "ratio"),
    ("flow.sat_probe_repeatable", "bool"),
    ("trace.overhead_frac", "ratio"),
];

/// Accumulated span seconds and counter values by metric name.
#[derive(Debug, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f`, adds its wall time to span `name`, and returns its value
    /// with the seconds it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.add(name, secs);
        (out, secs)
    }

    /// Adds `value` to metric `name` (spans and counters alike).
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Current value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_every_metric_is_reported() {
        let mut t = Trace::default();
        let (v, secs) = t.span("flow.verify_s", || 7);
        assert_eq!(v, 7);
        t.span("flow.verify_s", || ());
        assert!(t.get("flow.verify_s") >= secs);
        t.add("attack.dips", 3.0);
        t.add("attack.dips", 2.0);
        t.set("cache.hit_rate", 0.5);
        let m = t.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter().find(|x| x.name == "attack.dips").unwrap().value,
            5.0
        );
        assert_eq!(
            m.iter()
                .find(|x| x.name == "exec.speedup_2v1")
                .unwrap()
                .value,
            0.0
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
