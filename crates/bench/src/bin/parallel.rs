//! Parallel-substrate benchmark: the full-catalog lock+attack run at
//! several worker counts, recorded as `BENCH_parallel.json`.
//!
//! Each selected design is locked and portfolio-attacked at several seeds
//! (independent tasks), first sequentially and then on the executor's
//! scoped workers. The merged reports must be byte-identical at every
//! worker count — the benchmark doubles as a determinism check on real
//! workloads — and the JSON records the wall-clock per worker count plus
//! the 4-vs-1 speedup headline.
//!
//! Knobs: `RTLOCK_DESIGNS` (default `b05,b14,b15` for this harness),
//! `RTLOCK_BENCH_SEEDS` seeds per design (default 2),
//! `RTLOCK_BENCH_WORKERS` (default `1,2,4`), `RTLOCK_TIMEOUT_SECS`
//! per-attack budget (default 15 for this harness), `RTLOCK_BENCH_OUT`
//! output path (default `BENCH_parallel.json`).

use rtlock::{lock_catalog_parallel, CatalogEntry, CatalogJob, DesignStatus, RunBudget};
use rtlock_attacks::{AttackConfig, BmcConfig, PortfolioConfig};
use rtlock_bench::{rtlock_config, selected_designs};
use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    // Default differs from the other binaries' subset: fibo's BMC break
    // time sits right at the attack budget, so its outcome flips with CPU
    // contention and muddies the scaling numbers. b05 breaks decisively,
    // b14/b15 decisively resist.
    if std::env::var("RTLOCK_DESIGNS").is_err() {
        std::env::set_var("RTLOCK_DESIGNS", "b05,b14,b15");
    }
    let designs = selected_designs();
    let seeds = env_usize("RTLOCK_BENCH_SEEDS", 2);
    let timeout = Duration::from_secs(env_usize("RTLOCK_TIMEOUT_SECS", 15) as u64);
    let workers: Vec<usize> = std::env::var("RTLOCK_BENCH_WORKERS")
        .unwrap_or_else(|_| "1,2,4".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path =
        std::env::var("RTLOCK_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());

    let mut entries = Vec::new();
    // Longest-task-first: the catalog lists designs smallest-first, but
    // makespan on the pool is best when the big resisting designs (whose
    // attacks run to the wall-clock budget) open their windows earliest,
    // letting the small compute-bound tasks overlap them.
    for name in designs.iter().rev() {
        let bench = rtlock_designs::by_name(name)
            .unwrap_or_else(|| panic!("unknown design `{name}`"));
        let module = bench.module().expect("benchmarks parse");
        for s in 0..seeds {
            // Scan locking on (the paper's RTLock configuration): the
            // attacker gets no scan key, so the portfolio fights the
            // sequential surface with BMC under the wall-clock budget.
            // Database probes off to keep the lock stage lean — this
            // harness measures the parallel substrate, not probe cost.
            let mut config = rtlock_config(name, true);
            config.database.sat_probe = false;
            config.database.ml_probe = false;
            config.database.cosim_cycles = 12;
            config.database.corruption_samples = 1;
            config.verify_cycles = 16;
            config.seed = config.seed.wrapping_add(s as u64);
            entries.push(CatalogEntry {
                name: format!("{name}#s{s}"),
                module: module.clone(),
                config,
            });
        }
    }
    let job = CatalogJob {
        entries,
        budget: RunBudget::unlimited(),
        portfolio: Some(PortfolioConfig {
            sat: AttackConfig {
                max_iterations: 1_000_000,
                timeout: Some(timeout),
                ..AttackConfig::default()
            },
            bmc: BmcConfig {
                max_iterations: 1_000_000,
                timeout: Some(timeout),
                ..BmcConfig::default()
            },
            ..PortfolioConfig::default()
        }),
        retry: rtlock_store::RetryPolicy::default(),
        cache: None,
    };

    eprintln!(
        "parallel bench: {} tasks ({} designs x {} seeds), attack timeout {:?}, workers {:?}",
        job.entries.len(),
        designs.len(),
        seeds,
        timeout,
        workers,
    );

    let mut runs = Vec::new();
    let mut reference: Option<String> = None;
    for &w in &workers {
        let started = Instant::now();
        let report = lock_catalog_parallel(&job, &Executor::new(w), &CancelToken::unlimited());
        let elapsed = started.elapsed().as_secs_f64();
        // Wall-clock attack budgets make timed-out iteration counts
        // CPU-share dependent, so only the flow lines are compared here;
        // full byte-identity under iteration budgets is proved by
        // tests/parallel_determinism.rs.
        let flow_lines: String = report
            .canonical()
            .lines()
            .filter(|l| !l.starts_with("attack."))
            .collect::<Vec<_>>()
            .join("\n");
        match &reference {
            None => reference = Some(flow_lines),
            Some(r) => assert_eq!(
                &flow_lines, r,
                "flow report diverged from the first run at {w} workers"
            ),
        }
        let broken = report
            .designs
            .iter()
            .filter(|(_, st)| match st {
                DesignStatus::Done(d) => d.verdict.as_ref().is_some_and(|v| v.broken),
                _ => false,
            })
            .count();
        eprintln!(
            "  workers={w}: {elapsed:.2}s, {}/{} locked, {broken} broken",
            report.completed(),
            report.designs.len(),
        );
        runs.push((w, elapsed, report.completed(), broken));
    }

    let time_at = |n: usize| runs.iter().find(|(w, ..)| *w == n).map(|(_, t, ..)| *t);
    let speedup = match (time_at(1), time_at(4)) {
        (Some(t1), Some(t4)) if t4 > 0.0 => Some(t1 / t4),
        _ => None,
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"parallel_catalog\",\n");
    let _ = writeln!(
        json,
        "  \"designs\": [{}],",
        designs.iter().map(|d| format!("\"{d}\"")).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"seeds_per_design\": {seeds},");
    let _ = writeln!(json, "  \"tasks\": {},", job.entries.len());
    let _ = writeln!(json, "  \"attack_timeout_secs\": {},", timeout.as_secs());
    json.push_str("  \"runs\": [\n");
    for (i, (w, t, completed, broken)) in runs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {w}, \"seconds\": {t:.3}, \"locked\": {completed}, \"broken\": {broken}}}"
        );
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    match speedup {
        Some(s) => {
            let _ = writeln!(json, "  \"speedup_4_vs_1\": {s:.2}");
        }
        None => json.push_str("  \"speedup_4_vs_1\": null\n"),
    }
    json.push_str("}\n");

    rtlock_store::atomic_write(&out_path, &json).expect("write BENCH_parallel.json");
    eprintln!("wrote {out_path}");
    if let Some(s) = speedup {
        println!("speedup 4 vs 1 workers: {s:.2}x");
    }
}
