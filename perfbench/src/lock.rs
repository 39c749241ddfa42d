//! The `lock` workload: the designer's path.
//!
//! A unit is one design locked by `rtlock::lock_governed` with
//! `RunBudget::unlimited()`, no artifact cache, one thread, scan locking
//! on, and the SAT probe off. The seed sets each unit's flow and database
//! seeds (through one of the [`VARIANTS`]) and the unit order.
//!
//! Checks: the flow returns a design with no degradation; its canonical
//! output (report, key, locked RTL) repeats on every pass and run; and the
//! locked netlist under the returned key matches the reference netlist
//! under gate-level sequential simulation.
//!
//! The traced run replays each unit stage by stage through the public
//! stage functions, asserts the replay equals `lock_governed`, and breaks
//! the Database stage down per case.

use crate::host::HostSpeed;
use crate::stats::{end_to_end, mix, rate_of_unit_medians, shuffled, Outcome};
use crate::trace::Trace;
use crate::{more_passes, repeated_setup, Ledger, Settings};
use rtlock::candidates::{enumerate_bounded, Candidate};
use rtlock::database::{build_database_governed_cached, Database, DatabaseConfig};
use rtlock::flow::FlowReport;
use rtlock::scan_lock::{insert_scan_lock, ScanPolicy};
use rtlock::select::{select_greedy, select_ilp_bounded, SelectOutcome};
use rtlock::transforms::{apply, apply_all, mark_key_inputs, KeyAllocator};
use rtlock::verify::{try_cosim_bounded, try_wrong_key_corruption, wrong_key_corruption};
use rtlock::{lock_governed, LockedDesign, RtlLockConfig, RunBudget};
use rtlock_artifacts::{cached_elaborate, cached_optimize};
use rtlock_attacks::{scope_attack, sequential_key_accuracy};
use rtlock_governor::CancelToken;
use rtlock_lint::{lint_selected_bounded, LintPhase, LintReport, LintTarget};
use rtlock_netlist::ppa::{analyze as ppa_analyze, PpaConfig};
use rtlock_netlist::Netlist;
use rtlock_rtl::fsm::Fsm;
use rtlock_rtl::Module;
use rtlock_synth::{elaborate, optimize, scan, scan_view};
use std::fmt::Write as _;
use std::time::Instant;

/// The designs of the `lock` workload (an aes128 lock takes 26 s, more
/// than a whole run).
pub const DESIGNS: [&str; 5] = ["b05", "fibo", "b14", "b15", "sha1"];

/// The flow/database seed variants a seed maps onto (`seed % len`).
/// Every design locks without failure under each of them, and a whole
/// pass costs the same under each within a few percent. Of 0..16, the
/// flow's dataflow gate rejects the b15 lock of variants 3 and 4 (K002, a
/// degenerate key gate), and variants 1, 8, 11, 13, 14 and 15 lock in
/// noticeably more or less time, mostly through the b15 ILP (see
/// `README.md`).
pub const VARIANTS: &[u64] = &[0, 2, 5, 6, 7, 9, 10, 12];

/// Gate-level check: random sequential traces per unit, cycles per trace.
const CHECK_TRACES: usize = 4;
const CHECK_CYCLES: usize = 32;

/// Spans must cover at least this share of each replayed unit's time.
pub const MIN_COVERAGE: f64 = 0.9;

/// The benchmark's flow configuration of `name` in seed variant
/// `variant`: the paper's per-design configuration
/// (`rtlock_bench::rtlock_config`) with the SAT probe off, and flow and
/// database seeds derived from the variant (variant 0 keeps the
/// configuration's own seeds).
pub fn config(name: &str, with_scan: bool, variant: u64) -> RtlLockConfig {
    let mut c = rtlock_bench::rtlock_config(name, with_scan);
    c.database.sat_probe = false;
    if variant != 0 {
        c.seed = mix(variant, 0x10C4);
        c.database.seed = mix(variant, 0xDB);
    }
    c
}

/// One design to lock, with the reference netlist its check needs.
pub struct Unit {
    /// Design name.
    pub name: &'static str,
    /// Parsed RTL.
    pub module: Module,
    /// Flow configuration.
    pub config: RtlLockConfig,
    /// The original design, elaborated and optimized.
    pub reference: Netlist,
}

/// The variant a seed maps onto.
pub fn variant_of(seed: u64, variants: &[u64]) -> u64 {
    variants[(seed % variants.len() as u64) as usize]
}

/// Parses every design and synthesizes its reference netlist.
pub fn setup(names: &[&'static str], with_scan: bool, variant: u64) -> Vec<Unit> {
    names
        .iter()
        .map(|&name| {
            let (module, reference) = rtlock_bench::prepare(name);
            Unit {
                name,
                module,
                config: config(name, with_scan, variant),
                reference,
            }
        })
        .collect()
}

/// Locks one unit the way the workload times it.
pub fn lock_unit(unit: &Unit) -> Result<LockedDesign, rtlock::LockError> {
    lock_governed(&unit.module, &unit.config, &RunBudget::unlimited())
}

fn bits(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The canonical rendering of a flow report: every field except the
/// stage outcomes (which carry no timing but describe how, not what).
pub fn report_canonical(r: &FlowReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "candidates={} viable={} ilp={} selected={:?} applied={:?} key_bits={}",
        r.candidates_enumerated, r.viable_cases, r.used_ilp, r.selected, r.applied, r.key_bits
    );
    let _ = writeln!(
        s,
        "mismatch={:?} corruption={:?} partial={} degradations={:?}",
        r.verified_mismatch_rate, r.corruption, r.partial_verification, r.degradations
    );
    let _ = writeln!(s, "pre_lint={:?}", r.pre_lint);
    let _ = writeln!(s, "post_lint={:?}", r.post_lint);
    let _ = writeln!(s, "analysis={:?}", r.analysis);
    s
}

/// The canonical output of a lock: the flow report, the key, the scan
/// policy and a digest of the locked RTL.
pub fn canonical(
    report: &FlowReport,
    key: &[bool],
    scan: Option<&ScanPolicy>,
    locked: &Module,
) -> String {
    let mut s = report_canonical(report);
    let _ = writeln!(s, "key={} scan={scan:?}", bits(key));
    let _ = writeln!(
        s,
        "rtl={:016x}",
        crate::stats::digest(&rtlock_rtl::print(locked))
    );
    s
}

/// Canonical output of a monolithic lock result.
pub fn canonical_of(d: &LockedDesign) -> String {
    canonical(&d.report, &d.key, d.scan_policy.as_ref(), &d.locked)
}

/// The per-unit checks of a finished lock: no degradation, a clean
/// verification, the determinism ledger, and (the first time the unit is
/// seen in a run) the gate-level check. Returns the locked netlist's gate
/// count when the gate-level check ran.
pub fn check_lock(
    unit: &Unit,
    result: &Result<LockedDesign, rtlock::LockError>,
    ledger: &mut Ledger,
) -> Result<Option<usize>, String> {
    let d = result.as_ref().map_err(|e| format!("lock failed: {e}"))?;
    if !d.report.degradations.is_empty() {
        return Err(format!("degraded: {:?}", d.report.degradations));
    }
    if d.report.verified_mismatch_rate != 0.0 || d.report.partial_verification {
        return Err("verification incomplete or mismatching".into());
    }
    if !ledger.check(unit.name, &canonical_of(d))? {
        return Ok(None);
    }
    let n = d
        .locked_netlist()
        .map_err(|e| format!("locked netlist: {e}"))?;
    if n.key_inputs.len() != d.key.len() {
        return Err(format!(
            "{} key inputs for a {}-bit key",
            n.key_inputs.len(),
            d.key.len()
        ));
    }
    let acc = sequential_key_accuracy(
        &n,
        &unit.reference,
        &d.key,
        CHECK_TRACES,
        CHECK_CYCLES,
        0x5EED,
    );
    if acc != 1.0 {
        return Err(format!(
            "gate-level accuracy under the returned key is {acc}"
        ));
    }
    Ok(Some(n.logic_count()))
}

/// Runs the `lock` workload.
pub fn run(s: &Settings) -> Outcome {
    if s.trace {
        return run_traced(s);
    }
    let names: Vec<&'static str> = DESIGNS.into_iter().filter(|d| s.includes(d)).collect();
    let mut setup_host = HostSpeed::default();
    let (units, setup_s) = repeated_setup(s.setup_reps, &mut setup_host, || {
        setup(&names, true, variant_of(s.seed, VARIANTS))
    });
    let order = shuffled(units.len(), mix(s.seed, 0x0DE5));
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let mut out = Outcome::default();
    let mut times = vec![Vec::new(); units.len()];
    let mut host = HostSpeed::default();
    let start = Instant::now();
    'timed: for pass in 0.. {
        for &i in &order {
            if !more_passes(pass, start, s.seconds) {
                break 'timed;
            }
            let unit = &units[i];
            let t0 = Instant::now();
            let result = lock_unit(unit);
            times[i].push(t0.elapsed().as_secs_f64());
            out.record(unit.name, check_lock(unit, &result, &mut ledger).err());
            host.sample();
        }
    }
    ledger.save();
    out.metrics = end_to_end(rate_of_unit_medians(&times), setup_s, &host, &setup_host);
    out
}

/// The traced run: for each unit, the monolithic lock (for the overhead
/// baseline and the checks), then the stage replay and the per-case
/// database breakdown.
fn run_traced(s: &Settings) -> Outcome {
    let names: Vec<&'static str> = DESIGNS.into_iter().filter(|d| s.includes(d)).collect();
    let units = setup(&names, true, variant_of(s.seed, VARIANTS));
    let order = shuffled(units.len(), mix(s.seed, 0x0DE5));
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let (mut mono_s, mut replay_s) = (0.0, 0.0);
    for &i in &order {
        let unit = &units[i];
        let problem = traced_unit(unit, &mut ledger, &mut trace, &mut mono_s, &mut replay_s).err();
        out.record(unit.name, problem);
    }
    ledger.save();
    trace.set("trace.overhead_frac", replay_s / mono_s - 1.0);
    trace.set("flow.sat_probe_repeatable", sat_probe_repeatable());
    out.metrics = trace.metrics();
    out
}

/// Locks one unit monolithically and checks it, then replays it stage by
/// stage (asserting equality and span coverage) and breaks its database
/// down per case. Adds the unit's counts to `trace`; returns the
/// monolithic result for callers that need the locked design.
pub fn traced_unit(
    unit: &Unit,
    ledger: &mut Ledger,
    trace: &mut Trace,
    mono_s: &mut f64,
    replay_s: &mut f64,
) -> Result<LockedDesign, String> {
    let t0 = Instant::now();
    let result = lock_unit(unit);
    *mono_s += t0.elapsed().as_secs_f64();
    let gates = check_lock(unit, &result, ledger)?;
    let mono = result.map_err(|e| e.to_string())?;

    let t1 = Instant::now();
    let replayed = replay(&unit.module, &unit.config, trace)?;
    let wall = t1.elapsed().as_secs_f64();
    *replay_s += wall;
    let replay_canonical = canonical(
        &replayed.report,
        &replayed.key,
        replayed.scan_policy.as_ref(),
        &replayed.locked,
    );
    if replay_canonical != canonical_of(&mono) {
        return Err("stage replay differs from lock_governed".into());
    }
    if replayed.span_s < MIN_COVERAGE * wall {
        return Err(format!(
            "stage spans cover {:.3} of {:.3} s",
            replayed.span_s, wall
        ));
    }
    database_breakdown(unit, &replayed, trace)?;

    trace.add(
        "flow.candidates",
        replayed.report.candidates_enumerated as f64,
    );
    trace.add("flow.viable_cases", replayed.report.viable_cases as f64);
    trace.add("flow.key_bits", replayed.report.key_bits as f64);
    let gates = match gates {
        Some(g) => g,
        None => mono
            .locked_netlist()
            .map_err(|e| e.to_string())?
            .logic_count(),
    };
    trace.add("flow.locked_gates", gates as f64);
    Ok(mono)
}

/// What the stage replay produced.
pub struct Replayed {
    /// The report `lock_governed` would return (stage outcomes left empty).
    pub report: FlowReport,
    /// The functional key.
    pub key: Vec<bool>,
    /// The scan policy, when scan locking ran.
    pub scan_policy: Option<ScanPolicy>,
    /// The locked RTL.
    pub locked: Module,
    /// Enumerated candidates and FSMs, and the case database.
    pub candidates: Vec<Candidate>,
    fsms: Vec<Fsm>,
    database: Database,
    /// Seconds inside stage spans.
    pub span_s: f64,
}

/// Replays `lock_governed` (unbudgeted, uncached, no faults) through the
/// public stage functions, one span per stage. Any outcome for which the
/// governed flow would degrade or fail is returned as an error.
pub fn replay(
    module: &Module,
    config: &RtlLockConfig,
    trace: &mut Trace,
) -> Result<Replayed, String> {
    let tok = CancelToken::unlimited();
    let mut span_s = 0.0;

    let (elab, t) = trace.span("flow.elaborate_s", || cached_elaborate(None, module, &tok));
    span_s += t;
    let elab = elab.map_err(|e| format!("synthesis: {e}"))?;

    let (pre, t) = trace.span("flow.prelint_s", || {
        let target = LintTarget::full(module, &elab).with_phase(LintPhase::PreLock);
        lint_selected_bounded(&target, &tok, |id| !id.starts_with('K'))
    });
    span_s += t;
    gate_ok("pre-lock lint", &pre)?;

    let ((candidates, fsms, complete), t) = trace.span("flow.enumerate_s", || {
        enumerate_bounded(module, &config.enumeration, &tok)
    });
    span_s += t;
    if !complete || candidates.is_empty() {
        return Err("enumeration incomplete or empty".into());
    }

    let ((database, db_complete), t) = trace.span("flow.database_s", || {
        build_database_governed_cached(module, &candidates, &fsms, &config.database, &tok, None)
    });
    span_s += t;
    if !db_complete || database.viable_cases().count() == 0 {
        return Err("database degraded or without viable cases".into());
    }

    let ((selected, used_ilp), t) = trace.span("flow.select_s", || {
        match select_ilp_bounded(&database, &candidates, &config.spec, &tok) {
            SelectOutcome::Selected(s) if !s.is_empty() => (s, true),
            SelectOutcome::TimedOut => (Vec::new(), false),
            _ if config.greedy_fallback => {
                (select_greedy(&database, &candidates, &config.spec), false)
            }
            _ => (Vec::new(), false),
        }
    });
    span_s += t;
    if selected.is_empty() {
        return Err("selection infeasible".into());
    }

    let ((mut locked, applied, key), t) = trace.span("flow.transform_s", || {
        let mut locked = module.clone();
        let mut keys = KeyAllocator::new();
        let chosen: Vec<Candidate> = selected.iter().map(|&i| candidates[i].clone()).collect();
        let applied_local = apply_all(&mut locked, &chosen, &fsms, &mut keys);
        let applied: Vec<usize> = applied_local.iter().map(|&k| selected[k]).collect();
        (locked, applied, keys.correct_key().to_vec())
    });
    span_s += t;
    if key.is_empty() {
        return Err("no key bits applied".into());
    }

    let (verdict, t) = trace.span("flow.verify_s", || {
        let cosim = try_cosim_bounded(
            module,
            &locked,
            &key,
            config.verify_cycles,
            config.seed,
            &tok,
        )?;
        let corruption = try_wrong_key_corruption(
            module,
            &locked,
            &key,
            3,
            config.verify_cycles,
            config.seed,
            &tok,
        )?;
        Ok::<_, String>((cosim, corruption))
    });
    span_s += t;
    let (cosim, corruption) = verdict?;
    if cosim.mismatch_rate > 0.0 || !cosim.complete || !corruption.complete {
        return Err("verification mismatching or partial".into());
    }

    let (policy, t) = trace.span("flow.scanlock_s", || match &config.scan {
        Some(sc) => insert_scan_lock(&mut locked, sc)
            .map(Some)
            .map_err(|e| e.message),
        None => Ok(None),
    });
    span_s += t;
    let scan_policy = policy?;

    let (post, t) = trace.span("flow.postlint_s", || {
        let n = synthesize_locked(&locked, scan_policy.as_ref())?;
        let target = LintTarget::full(&locked, &n)
            .with_phase(LintPhase::PostLock)
            .with_scan_locked(scan_policy.is_some());
        let mut rep = lint_selected_bounded(&target, &tok, |id| !id.starts_with('K'));
        rep.dedup_against(&[&pre]);
        Ok::<_, String>(rep)
    });
    span_s += t;
    let post = post?;
    gate_ok("post-lock lint", &post)?;

    let (analysis, t) = trace.span("flow.analyze_s", || {
        let n = synthesize_locked(&locked, scan_policy.as_ref())?;
        let target = LintTarget::full(&locked, &n)
            .with_phase(LintPhase::Analyze)
            .with_scan_locked(scan_policy.is_some());
        let mut rep = lint_selected_bounded(&target, &tok, |id| id.starts_with('K'));
        rep.dedup_against(&[&pre, &post]);
        Ok::<_, String>(rep)
    });
    span_s += t;
    let analysis = analysis?;
    gate_ok("dataflow analysis", &analysis)?;

    let report = FlowReport {
        candidates_enumerated: candidates.len(),
        viable_cases: database.viable_cases().count(),
        used_ilp,
        selected,
        applied,
        key_bits: key.len(),
        verified_mismatch_rate: cosim.mismatch_rate,
        corruption: corruption.corruption,
        degradations: Vec::new(),
        partial_verification: false,
        pre_lint: Some(pre),
        post_lint: Some(post),
        analysis: Some(analysis),
        stage_outcomes: Vec::new(),
    };
    Ok(Replayed {
        report,
        key,
        scan_policy,
        locked,
        candidates,
        fsms,
        database,
        span_s,
    })
}

/// A lint gate passes when it skipped no rule and found nothing denied.
fn gate_ok(gate: &str, rep: &LintReport) -> Result<(), String> {
    if rep.skipped.is_empty() && rep.is_clean() {
        Ok(())
    } else {
        Err(format!("{gate} gate rejected or skipped rules"))
    }
}

/// Synthesizes locked RTL the way the post-lock gates do: elaborate,
/// optimize, mark key inputs, rebuild the partial scan chain.
fn synthesize_locked(locked: &Module, policy: Option<&ScanPolicy>) -> Result<Netlist, String> {
    let mut n = elaborate(locked).map_err(|e| format!("synthesis: {e}"))?;
    optimize(&mut n);
    mark_key_inputs(&mut n);
    if let Some(policy) = policy {
        let mut chain = Vec::new();
        for name in &policy.scanned_registers {
            for ff in n.dffs() {
                if let Some(gn) = n.gate_name(ff) {
                    if gn == name || gn.starts_with(&format!("{name}[")) {
                        chain.push(ff);
                    }
                }
            }
        }
        n.scan_chain.clear();
        scan::insert_scan(&mut n, &chain);
    }
    Ok(n)
}

/// Recomputes every full database row from its parts — per-case
/// synthesis, PPA, wrong-key co-simulation and the SCOPE probe — under
/// the `db.*` spans, and checks each part against the row the flow
/// stored.
fn database_breakdown(unit: &Unit, r: &Replayed, trace: &mut Trace) -> Result<(), String> {
    let tok = CancelToken::unlimited();
    let cfg: &DatabaseConfig = &unit.config.database;
    let module = &unit.module;
    let (base, _) = trace.span("db.case_synth_s", || {
        let elabbed = cached_elaborate(None, module, &tok).map_err(|e| e.to_string())?;
        let (mut n, _) = cached_optimize(None, &elabbed, &tok);
        let netlist = n.clone();
        // The database builds the original's scan view for the SAT probes
        // even with the probe off; time it so the spans cover the stage.
        scan::insert_full_scan(&mut n);
        let _view = scan_view(&n);
        Ok::<_, String>(netlist)
    });
    let base = base?;
    let (base_area, _) = trace.span("db.ppa_s", || {
        ppa_analyze(&base, &PpaConfig::default()).area_um2
    });

    for (i, cand) in r.candidates.iter().enumerate() {
        let row = &r.database.cases[i];
        let mut locked = module.clone();
        let mut keys = KeyAllocator::new();
        if apply(&mut locked, cand, &r.fsms, &mut keys).is_err() {
            if row.viable {
                return Err(format!("case {i}: transform fails but the row is viable"));
            }
            continue;
        }
        let key = keys.correct_key().to_vec();
        let seed = cfg.seed.wrapping_add(i as u64);
        let (netlist, _) = trace.span("db.case_synth_s", || {
            cached_elaborate(None, &locked, &tok)
                .ok()
                .map(|e| cached_optimize(None, &e, &tok).0)
        });
        let Some(netlist) = netlist else {
            if row.viable {
                return Err(format!(
                    "case {i}: does not synthesize but the row is viable"
                ));
            }
            continue;
        };
        let (area, _) = trace.span("db.ppa_s", || {
            ppa_analyze(&netlist, &PpaConfig::default()).area_um2
        });
        let overhead = if base_area > 0.0 {
            (area - base_area) / base_area * 100.0
        } else {
            0.0
        };
        let (corruption, _) = trace.span("db.corruption_sim_s", || {
            wrong_key_corruption(
                module,
                &locked,
                &key,
                cfg.corruption_samples,
                cfg.cosim_cycles,
                seed,
            )
        });
        let ml_bias =
            if cfg.ml_probe && matches!(cand, Candidate::Constant { .. }) && corruption > 0.0 {
                trace
                    .span("db.ml_probe_s", || {
                        let mut probe = netlist.clone();
                        mark_key_inputs(&mut probe);
                        (scope_attack(&probe, &key).accuracy - 0.5).abs()
                    })
                    .0
            } else {
                0.0
            };
        if row.key_size != key.len()
            || row.area_overhead_pct != overhead
            || row.corruption != corruption
            || row.ml_bias != ml_bias
        {
            return Err(format!(
                "case {i}: recomputed parts differ from the database row"
            ));
        }
    }
    Ok(())
}

/// Locks b05 twice with the unmodified paper configuration (SAT probe on)
/// and reports 1 when the two canonical outputs agree, 0 when they do not.
/// The probe scores case resilience in measured microseconds
/// (`crates/core/src/database.rs`, `full_row`), so it is expected to read
/// 0 until that score is made deterministic.
pub fn sat_probe_repeatable() -> f64 {
    let (module, _) = rtlock_bench::prepare("b05");
    let config = rtlock_bench::rtlock_config("b05", true);
    let once =
        || lock_governed(&module, &config, &RunBudget::unlimited()).map(|d| canonical_of(&d));
    match (once(), once()) {
        (Ok(a), Ok(b)) if a == b => 1.0,
        _ => 0.0,
    }
}
