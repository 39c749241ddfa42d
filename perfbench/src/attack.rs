//! The `attack` workload: the attacker's path.
//!
//! A unit is one `rtlock_attacks::sat_attack` run, on one thread, against
//! the full-scan view of a design locked RTLock* (scan locking off, so the
//! scan view is exposed). The locks happen in set-up.
//!
//! * b05 and fibo run until the attack recovers a key, so miter build,
//!   the final UNSAT proof and key extraction dominate them. The
//!   recovered key must be functionally correct (`key_accuracy` 1.0).
//! * b14 and b15 are stopped by `max_iterations` below each design's
//!   solve cliff, so DIP rounds on one growing incremental miter dominate
//!   them. A capped unit must stop exactly at its cap.
//!
//! The seed picks each design's lock variant from a list whose every
//! entry has been run at its cap (see `README.md`) and sets the unit order.

use crate::host::HostSpeed;
use crate::lock::{self, Unit};
use crate::stats::{end_to_end, median, mix, rate_of_unit_medians, shuffled, Outcome};
use crate::trace::Trace;
use crate::{more_passes, repeated_setup, Ledger, Settings, Workload};
use rtlock::AttackSurface;
use rtlock_attacks::{key_accuracy, sat_attack, AttackConfig, AttackOutcome, CombOracle};
use rtlock_netlist::{CnfBuilder, Netlist};
use std::time::{Duration, Instant};

/// One attack target: the locked and original scan views of a design.
pub struct Target {
    /// Design name.
    pub name: &'static str,
    /// Scan view of the locked design (key inputs marked).
    pub locked: Netlist,
    /// Scan view of the original design (the oracle).
    pub original: Netlist,
    /// DIP cap (`max_iterations`), or `None` to run to key recovery.
    pub cap: Option<usize>,
}

/// A design of an attack workload, its DIP cap, and the lock variants the
/// seed chooses from.
struct Design {
    name: &'static str,
    cap: Option<usize>,
    variants: &'static [u64],
}

/// The designs of the workload. b05 and fibo run to key recovery; their
/// listed variants all select the paper configuration's cases, so every
/// seed attacks locks of equal cost (variants 2, 5 and 6 select other
/// cases and need one DIP more or less). b14 and b15 are capped below
/// their solve cliffs and have one verified variant each, so every seed
/// does the same work on them: b14 variant 4 reaches 150 DIPs and b15
/// variant 5 reaches 10 DIPs without a cliff, while the solve cliffs of
/// other variants sit below or just above these caps (see `README.md`).
const DESIGNS: [Design; 4] = [
    Design {
        name: "b05",
        cap: None,
        variants: &[0, 1, 3, 4, 7],
    },
    Design {
        name: "fibo",
        cap: None,
        variants: &[0, 1, 3, 4, 7],
    },
    Design {
        name: "b14",
        cap: Some(100),
        variants: &[4],
    },
    Design {
        name: "b15",
        cap: Some(8),
        variants: &[5],
    },
];

/// Patterns the key check simulates.
const KEYCHECK_PATTERNS: usize = 256;

/// A unit running past this is reported failed (a solve cliff was hit).
const GUARD: Duration = Duration::from_secs(60);

/// The designs of the run `s`.
fn designs(s: &Settings) -> Vec<&'static Design> {
    DESIGNS.iter().filter(|d| s.includes(d.name)).collect()
}

/// The lock units behind the targets of the run `s`.
fn lock_units(s: &Settings) -> Vec<Unit> {
    let seed = s.seed;
    designs(s)
        .into_iter()
        .map(|d| {
            lock::setup(&[d.name], false, lock::variant_of(seed, d.variants))
                .pop()
                .expect("one unit")
        })
        .collect()
}

/// Turns a locked design into its attack target.
fn target_of(d: &Design, locked: &rtlock::LockedDesign) -> Result<Target, String> {
    match locked.attack_surface(None).map_err(|e| e.to_string())? {
        AttackSurface::CombinationalViews { locked, original } => Ok(Target {
            name: d.name,
            locked,
            original,
            cap: d.cap,
        }),
        AttackSurface::SequentialOnly { .. } => Err("scan view not exposed".into()),
    }
}

/// Locks every design of the run and builds the attack targets.
pub fn setup(s: &Settings) -> Result<Vec<Target>, String> {
    designs(s)
        .into_iter()
        .zip(lock_units(s))
        .map(|(d, unit)| {
            let locked = lock::lock_unit(&unit).map_err(|e| format!("{}: lock: {e}", d.name))?;
            target_of(d, &locked)
        })
        .collect()
}

/// The attack configuration of a target: the DIP cap, no cache, and the
/// guard deadline.
fn attack_config(t: &Target) -> AttackConfig {
    AttackConfig {
        max_iterations: t.cap.unwrap_or(10_000),
        timeout: Some(GUARD),
        ..AttackConfig::default()
    }
}

/// Checks one outcome: a correct key for uncapped targets, an exact stop
/// at the cap for capped ones.
fn check(t: &Target, o: &AttackOutcome, seed: u64) -> Result<(), String> {
    match (t.cap, o) {
        (None, AttackOutcome::KeyFound { key, .. }) => {
            let acc = key_accuracy(&t.locked, &t.original, key, KEYCHECK_PATTERNS, seed);
            if acc == 1.0 {
                Ok(())
            } else {
                Err(format!("recovered key has accuracy {acc}"))
            }
        }
        (
            Some(cap),
            AttackOutcome::TimedOut {
                iterations,
                elapsed,
                stats,
            },
        ) if *elapsed < GUARD => {
            if *iterations == cap + 1 && stats.dips_accepted == cap {
                Ok(())
            } else {
                Err(format!(
                    "stopped at {iterations} solves / {} DIPs, cap {cap}",
                    stats.dips_accepted
                ))
            }
        }
        (_, o) => Err(format!("unexpected outcome {}", o.canonical())),
    }
}

/// Runs the `attack` workload.
pub fn run(s: &Settings) -> Outcome {
    if s.trace {
        return run_traced(s);
    }
    let mut setup_host = HostSpeed::default();
    let (targets, setup_s) = repeated_setup(s.setup_reps, &mut setup_host, || setup(s));
    let mut out = Outcome::default();
    let targets = match targets {
        Ok(t) => t,
        Err(e) => {
            out.record("setup", Some(e));
            return out;
        }
    };
    let order = shuffled(targets.len(), mix(s.seed, 0xA77A));
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let mut times = vec![Vec::new(); targets.len()];
    let mut host = HostSpeed::default();
    let start = Instant::now();
    'timed: for pass in 0.. {
        for &i in &order {
            if !more_passes(pass, start, s.seconds) {
                break 'timed;
            }
            let t = &targets[i];
            let t0 = Instant::now();
            let outcome = sat_attack(&t.locked, &t.original, &attack_config(t));
            times[i].push(t0.elapsed().as_secs_f64());
            let problem = match ledger.check(t.name, &outcome.canonical()) {
                // Identical output to a checked pass needs no second check.
                Ok(false) => None,
                Ok(true) => check(t, &outcome, s.seed).err(),
                Err(e) => Some(e),
            };
            out.record(t.name, problem);
            host.sample();
        }
    }
    ledger.save();
    out.metrics = end_to_end(rate_of_unit_medians(&times), setup_s, &host, &setup_host);
    out
}

/// The traced run: the set-up locks go through the stage replay, then
/// each target is attacked once untraced and once traced. Round spans
/// come from `AttackStats::round_wall_clock` and `elapsed`.
fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let mut lock_ledger = Ledger::open(None, Workload::Lock, s.seed);
    let (mut lock_mono, mut lock_replay) = (0.0, 0.0);
    let mut targets = Vec::new();
    for (d, unit) in designs(s).into_iter().zip(lock_units(s)) {
        let locked = lock::traced_unit(
            &unit,
            &mut lock_ledger,
            &mut trace,
            &mut lock_mono,
            &mut lock_replay,
        )
        .and_then(|l| target_of(d, &l));
        match locked {
            Ok(t) => targets.push(t),
            Err(e) => out.record(d.name, Some(format!("set-up lock: {e}"))),
        }
    }

    let (mut mono_s, mut traced_s) = (0.0, 0.0);
    let mut rounds = Vec::new();
    let (mut encode, mut query) = (Vec::new(), Vec::new());
    for &i in &shuffled(targets.len(), mix(s.seed, 0xA77A)) {
        let t = &targets[i];
        let t0 = Instant::now();
        let mono = sat_attack(&t.locked, &t.original, &attack_config(t));
        mono_s += t0.elapsed().as_secs_f64();
        let mut problem = ledger.check(t.name, &mono.canonical()).err();

        let t1 = Instant::now();
        let traced = sat_attack(&t.locked, &t.original, &attack_config(t));
        let wall = t1.elapsed().as_secs_f64();
        traced_s += wall;
        if traced.canonical() != mono.canonical() {
            problem.get_or_insert_with(|| "traced attack differs from the untraced one".into());
        }
        let (elapsed, stats) = match &traced {
            AttackOutcome::KeyFound { elapsed, stats, .. }
            | AttackOutcome::TimedOut { elapsed, stats, .. } => (*elapsed, stats.clone()),
            other => {
                out.record(
                    t.name,
                    Some(format!("unexpected outcome {}", other.canonical())),
                );
                continue;
            }
        };
        let round_s: Vec<f64> = stats
            .round_wall_clock
            .iter()
            .map(Duration::as_secs_f64)
            .collect();
        let in_rounds: f64 = round_s.iter().sum();
        trace.add("attack.rounds_s", in_rounds);
        trace.add("attack.outside_rounds_s", elapsed.as_secs_f64() - in_rounds);
        rounds.extend(round_s);
        if elapsed.as_secs_f64() < crate::lock::MIN_COVERAGE * wall {
            problem.get_or_insert_with(|| "attack spans cover too little of the unit".into());
        }
        let (checked, _) = trace.span("attack.keycheck_s", || check(t, &traced, s.seed));
        if let Err(e) = checked {
            problem.get_or_insert(e);
        }
        trace.add("attack.dips", stats.dips_accepted as f64);
        trace.add("attack.oracle_queries", stats.oracle_queries as f64);
        let found = matches!(traced, AttackOutcome::KeyFound { .. });
        trace.add(
            if found {
                "attack.keys_found"
            } else {
                "attack.capped"
            },
            1.0,
        );
        encode.push(encode_copy_s(t));
        query.push(oracle_query_s(t, s.seed));
        out.record(t.name, problem);
    }
    ledger.save();
    trace.set("attack.round_p50_s", median(&rounds));
    trace.set(
        "attack.round_max_s",
        rounds.iter().copied().fold(0.0, f64::max),
    );
    trace.set("attack.encode_copy_s", median(&encode));
    trace.set("attack.oracle_query_s", median(&query));
    trace.set("trace.overhead_frac", traced_s / mono_s - 1.0);
    trace.set("flow.sat_probe_repeatable", lock::sat_probe_repeatable());
    out.metrics = trace.metrics();
    out
}

/// Median time of one `CnfBuilder::encode_comb` copy of the locked view
/// (the attack encodes two copies per DIP round).
fn encode_copy_s(t: &Target) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let mut cnf = CnfBuilder::new();
            let ins: Vec<i32> = t.locked.inputs().iter().map(|_| cnf.fresh_var()).collect();
            let start = Instant::now();
            let vars = cnf.encode_comb(&t.locked, &ins, &[]);
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(vars);
            secs
        })
        .collect();
    median(&times)
}

/// Median time of one `CombOracle::query_bits` call on the original view
/// (the attack queries once per DIP round).
fn oracle_query_s(t: &Target, seed: u64) -> f64 {
    let mut oracle = CombOracle::new(&t.original);
    let inputs = t.original.inputs().to_vec();
    let times: Vec<f64> = (0..32u64)
        .map(|q| {
            let pattern: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(k, &g)| (g, mix(seed ^ q, k as u64) & 1 == 1))
                .collect();
            let start = Instant::now();
            let answer = oracle.query_bits(&pattern);
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(answer);
            secs
        })
        .collect();
    median(&times)
}
