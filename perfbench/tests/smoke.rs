//! One-unit smoke runs of every workload with all checks on, timed and
//! traced. Run with `cargo test --release` (the debug build is slow).

use rtlock_perfbench::trace::PER_LAYER;
use rtlock_perfbench::{run, Settings, Workload};

fn smoke(workload: Workload, design: &'static str, trace: bool) {
    let settings = Settings {
        trace,
        ..Settings::smoke(workload, design)
    };
    let out = run(&settings);
    assert!(
        out.correct(),
        "{} {design}: {:?}",
        workload.name(),
        out.failures
    );
    assert!(out.attempted >= 1);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if trace {
        assert_eq!(names, PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    } else {
        assert_eq!(names, ["units_per_s", "setup_s", "peak_rss_mb"]);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
    }
}

fn metric(out: &rtlock_perfbench::stats::Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect("metric reported")
}

#[test]
fn lock_smoke() {
    smoke(Workload::Lock, "b05", false);
}

#[test]
fn lock_traced_replay_matches_and_covers_the_unit() {
    let out = run(&Settings {
        trace: true,
        ..Settings::smoke(Workload::Lock, "fibo")
    });
    assert!(out.correct(), "{:?}", out.failures);
    assert!(metric(&out, "flow.database_s") > 0.0);
    assert!(metric(&out, "db.case_synth_s") > 0.0);
    assert!(metric(&out, "flow.key_bits") > 0.0);
}

#[test]
fn attack_key_recovery_smoke() {
    smoke(Workload::Attack, "fibo", false);
    smoke(Workload::Attack, "b05", true);
}

#[test]
fn attack_capped_smoke() {
    smoke(Workload::Attack, "b15", false);
    let out = run(&Settings {
        trace: true,
        ..Settings::smoke(Workload::Attack, "b15")
    });
    assert!(out.correct(), "{:?}", out.failures);
    assert_eq!(metric(&out, "attack.capped"), 1.0);
    assert_eq!(metric(&out, "attack.keys_found"), 0.0);
}

#[test]
fn campaign_smoke() {
    smoke(Workload::Campaign, "fibo", false);
    let out = run(&Settings {
        trace: true,
        ..Settings::smoke(Workload::Campaign, "fibo")
    });
    assert!(out.correct(), "{:?}", out.failures);
    assert_eq!(metric(&out, "journal.appends"), 1.0);
    assert!(metric(&out, "cache.hits") + metric(&out, "cache.misses") > 0.0);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
        assert!(
            text.contains(&entry),
            "BENCHMARK.json lacks per-layer metric {name}"
        );
    }
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())),
            "{}",
            w.name()
        );
    }
    for name in ["units_per_s", "setup_s", "peak_rss_mb"] {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\":")),
            "{name}"
        );
    }
}
