//! The `campaign` workload: the journaled catalog run.
//!
//! A unit is one design through `rtlock::lock_catalog_resumable`: the
//! governed lock (scan locking on, SAT probe off) and then the default
//! attack portfolio, with BMC bounded by a DIS count and no timeout. One
//! pass runs every unit on `Executor::new(2)` with a fresh on-disk
//! `CampaignJournal` and a fresh in-memory `ArtifactStore`.
//!
//! Set-up locks every unit once, uncached, for the references the checks
//! need: the flow report each catalog design must reproduce, and the
//! sequential netlists that BMC keys are checked against.
//!
//! Checks: every design completes without degradation and reproduces its
//! reference flow report; a BMC key passes `sequential_key_accuracy`
//! 1.0 (keys are compared functionally, not bit for bit); a BMC run that
//! finds no key stops exactly at the DIS cap; the reopened journal holds
//! one `design_finished` event per design; canonical bodies repeat on every
//! pass and run.

use crate::host::HostSpeed;
use crate::lock::{self, Unit};
use crate::stats::{end_to_end, median, mix, shuffled, Outcome};
use crate::trace::Trace;
use crate::{more_passes, repeated_setup, Ledger, Settings};
use rtlock::journal::{design_finished_event, KIND_DESIGN_FINISHED};
use rtlock::{
    lock_catalog_resumable, lock_governed_cached, AttackSurface, CampaignJournal, CatalogEntry,
    CatalogJob, CatalogReport, DesignStatus, DesignSummary, RunBudget,
};
use rtlock_artifacts::ArtifactStore;
use rtlock_attacks::bmc_attack::BmcConfig;
use rtlock_attacks::portfolio::{portfolio_attack_sequential, PortfolioTarget};
use rtlock_attacks::{
    sequential_key_accuracy, AttackOutcome, MemberOutcome, PortfolioConfig, PortfolioMember,
};
use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use rtlock_netlist::Netlist;
use rtlock_store::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The designs of a pass; each runs at two seed variants.
pub const DESIGNS: [&str; 3] = ["fibo", "b14", "b15"];

/// Pairs of lock variants (from [`lock::VARIANTS`]) a seed maps onto
/// (`seed % len`). Both pairs run the whole pipeline at the DIS cap with
/// BMC runs of like cost and like peak memory.
pub const VARIANT_PAIRS: &[[u64; 2]] = &[[0, 2], [7, 9]];

/// BMC stops after this many distinguishing input sequences.
pub const DIS_CAP: usize = 4;

/// Executor workers of a timed pass.
pub const WORKERS: usize = 2;

/// Host-speed samples after each timed pass. A pass lasts several
/// seconds, about as long as the few units after each of which `lock`
/// and `attack` take one sample.
const SAMPLES_PER_PASS: usize = 3;

/// One catalog entry with the references its checks need.
pub struct Entry {
    /// The catalog entry the pass runs, named `design@variant`.
    pub entry: CatalogEntry,
    /// The flow report the entry must reproduce, rendered canonically.
    pub report: String,
    /// The sequential locked netlist (key inputs marked).
    pub locked: Netlist,
    /// The original sequential netlist.
    pub original: Netlist,
}

/// The portfolio every pass runs: the default members, BMC bounded by
/// [`DIS_CAP`] with no timeout.
pub fn portfolio() -> PortfolioConfig {
    PortfolioConfig {
        bmc: BmcConfig {
            max_iterations: DIS_CAP,
            timeout: None,
            ..BmcConfig::default()
        },
        ..PortfolioConfig::default()
    }
}

/// Locks every entry of the run once (uncached, on [`WORKERS`] workers)
/// for the references. A smoke run keeps one variant of one design.
pub fn setup(s: &Settings) -> Result<Vec<Entry>, String> {
    let pair = VARIANT_PAIRS[(s.seed % VARIANT_PAIRS.len() as u64) as usize];
    let variants = if s.only.is_some() {
        &pair[..1]
    } else {
        &pair[..]
    };
    let names: Vec<&'static str> = DESIGNS.into_iter().filter(|d| s.includes(d)).collect();
    // Design-major order: the two variants of a design run side by side
    // on the two workers, so the pairing (and the peak memory) repeats.
    let units: Vec<(Unit, u64)> = names
        .iter()
        .flat_map(|&name| {
            variants
                .iter()
                .map(move |&v| (lock::setup(&[name], true, v).pop().expect("one unit"), v))
        })
        .collect();
    Executor::new(WORKERS)
        .map(&CancelToken::unlimited(), units, |_, (unit, variant), _| {
            reference_entry(unit, variant)
        })
        .into_iter()
        .map(|r| r.map_err(|e| format!("reference lock task: {e:?}"))?)
        .collect()
}

fn reference_entry(unit: Unit, variant: u64) -> Result<Entry, String> {
    let name = format!("{}@{variant}", unit.name);
    let locked = lock::lock_unit(&unit).map_err(|e| format!("{name}: reference lock: {e}"))?;
    let (seq_locked, seq_original) = match locked.attack_surface(None).map_err(|e| e.to_string())? {
        AttackSurface::SequentialOnly { locked, original } => (locked, original),
        AttackSurface::CombinationalViews { .. } => return Err(format!("{name}: scan not locked")),
    };
    let entry = CatalogEntry {
        name,
        module: unit.module,
        config: unit.config,
    };
    Ok(Entry {
        entry,
        report: lock::report_canonical(&locked.report),
        locked: seq_locked,
        original: seq_original,
    })
}

/// What one pass produced.
pub struct Pass {
    /// The merged catalog report.
    pub report: CatalogReport,
    /// Wall time of `lock_catalog_resumable`.
    pub wall_s: f64,
    /// Artifact cache counters after the pass.
    pub cache: rtlock_artifacts::CacheStats,
    /// `design_finished` events per design index in the reopened journal.
    pub finished: Vec<usize>,
    /// Events in the reopened journal.
    pub appends: usize,
    /// Journal size on disk.
    pub bytes: u64,
}

/// Runs one catalog pass on `workers` workers with a fresh journal at
/// `journal` and a fresh in-memory cache.
pub fn run_pass(entries: &[Entry], workers: usize, journal: &Path) -> Result<Pass, String> {
    let _ = std::fs::remove_file(journal);
    let io = |e: std::io::Error| format!("journal {}: {e}", journal.display());
    let (mut wal, recovery) = CampaignJournal::open(journal).map_err(io)?;
    let cache = Arc::new(ArtifactStore::in_memory());
    let job = CatalogJob {
        entries: entries.iter().map(|e| e.entry.clone()).collect(),
        budget: RunBudget::unlimited(),
        portfolio: Some(portfolio()),
        retry: RetryPolicy::default(),
        cache: Some(Arc::clone(&cache)),
    };
    let executor = Executor::new(workers);
    let start = Instant::now();
    let report = lock_catalog_resumable(
        &job,
        &executor,
        &CancelToken::unlimited(),
        &mut wal,
        &recovery.events,
    );
    let wall_s = start.elapsed().as_secs_f64();
    drop(wal);
    let (_, reopened) = CampaignJournal::open(journal).map_err(io)?;
    let mut finished = vec![0; entries.len()];
    for e in reopened
        .events
        .iter()
        .filter(|e| e.kind == KIND_DESIGN_FINISHED)
    {
        if let Some(i) = e
            .get_parsed::<usize>("index")
            .filter(|&i| i < finished.len())
        {
            finished[i] += 1;
        }
    }
    let bytes = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(journal);
    Ok(Pass {
        report,
        wall_s,
        cache: cache.stats(),
        finished,
        appends: reopened.events.len(),
        bytes,
    })
}

/// Checks design `i` of a pass; returns its canonical body on success.
fn check_design(e: &Entry, i: usize, pass: &Pass, seed: u64) -> Result<String, String> {
    let (_, status) = &pass.report.designs[i];
    if pass.finished[i] != 1 {
        return Err(format!(
            "journal holds {} design_finished events",
            pass.finished[i]
        ));
    }
    let DesignStatus::Done(summary) = status else {
        return Err(format!(
            "did not complete: {}",
            status.canonical_body().trim()
        ));
    };
    check_summary(e, summary, seed)?;
    Ok(status.canonical_body())
}

/// Checks a completed design against its references.
fn check_summary(e: &Entry, summary: &DesignSummary, seed: u64) -> Result<(), String> {
    if !summary.report.degradations.is_empty() {
        return Err(format!("degraded: {:?}", summary.report.degradations));
    }
    if lock::report_canonical(&summary.report) != e.report {
        return Err("flow report differs from the reference lock".into());
    }
    let verdict = summary.verdict.as_ref().ok_or("no portfolio verdict")?;
    let bmc = verdict.outcomes.iter().find_map(|(m, o)| match (m, o) {
        (PortfolioMember::Bmc, MemberOutcome::Attack(a)) => Some(a),
        _ => None,
    });
    match bmc {
        Some(AttackOutcome::KeyFound { key, .. }) => {
            let acc = sequential_key_accuracy(&e.locked, &e.original, key, 8, 64, seed);
            if acc != 1.0 {
                return Err(format!("BMC key has sequential accuracy {acc}"));
            }
        }
        Some(AttackOutcome::TimedOut { iterations, .. }) if *iterations == DIS_CAP + 1 => {}
        Some(other) => return Err(format!("BMC: {}", other.canonical())),
        None => return Err("BMC did not run".into()),
    }
    Ok(())
}

fn journal_path(s: &Settings, tag: &str) -> PathBuf {
    let dir = s.state_dir.clone().unwrap_or_else(std::env::temp_dir);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("campaign-{}-{tag}.journal", std::process::id()))
}

/// Checks every design of a pass into `out`.
fn check_pass(entries: &[Entry], pass: &Pass, ledger: &mut Ledger, out: &mut Outcome, seed: u64) {
    for (i, e) in entries.iter().enumerate() {
        let problem = check_design(e, i, pass, seed)
            .and_then(|body| ledger.check(&e.entry.name, &body).map(|_| ()));
        out.record(&e.entry.name, problem.err());
    }
}

/// Runs the `campaign` workload.
pub fn run(s: &Settings) -> Outcome {
    if s.trace {
        return run_traced(s);
    }
    let mut setup_host = HostSpeed::on_threads(WORKERS);
    let (entries, setup_s) = repeated_setup(s.setup_reps, &mut setup_host, || setup(s));
    let mut out = Outcome::default();
    let entries = match entries {
        Ok(e) => e,
        Err(e) => {
            out.record("setup", Some(e));
            return out;
        }
    };
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let journal = journal_path(s, "timed");
    let mut walls = Vec::new();
    let mut host = HostSpeed::on_threads(WORKERS);
    let start = Instant::now();
    let mut pass = 0;
    while more_passes(pass, start, s.seconds) {
        match run_pass(&entries, WORKERS, &journal) {
            Ok(p) => {
                walls.push(p.wall_s);
                check_pass(&entries, &p, &mut ledger, &mut out, s.seed);
            }
            Err(e) => out.record("pass", Some(e)),
        }
        host.sample_times(SAMPLES_PER_PASS);
        pass += 1;
    }
    ledger.save();
    let wall = median(&walls);
    let rate = if wall > 0.0 {
        entries.len() as f64 / wall
    } else {
        0.0
    };
    out.metrics = end_to_end(rate, setup_s, &host, &setup_host);
    out
}

/// The traced run: one pass at two workers (cache and journal counters),
/// one at one worker (`exec.speedup_2v1`), then a one-thread replay of
/// every design through `lock_governed_cached`, `attack_surface`,
/// `portfolio_attack_sequential` and `CampaignJournal::append`, checked
/// against the catalog's canonical body.
fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let entries = match setup(s) {
        Ok(e) => e,
        Err(e) => {
            out.record("setup", Some(e));
            return out;
        }
    };
    let mut trace = Trace::default();
    let mut ledger = Ledger::open(s.state_dir.as_deref(), s.workload, s.seed);
    let journal = journal_path(s, "traced");
    let (two, one) = match (
        run_pass(&entries, WORKERS, &journal),
        run_pass(&entries, 1, &journal),
    ) {
        (Ok(two), Ok(one)) => (two, one),
        (Err(e), _) | (_, Err(e)) => {
            out.record("pass", Some(e));
            return out;
        }
    };
    check_pass(&entries, &two, &mut ledger, &mut out, s.seed);
    check_pass(&entries, &one, &mut ledger, &mut out, s.seed);
    trace.set("cache.hits", two.cache.hits as f64);
    trace.set("cache.misses", two.cache.misses as f64);
    trace.set("cache.hit_rate", two.cache.hit_rate());
    trace.set("journal.appends", two.appends as f64);
    trace.set("journal.bytes", two.bytes as f64);
    trace.set("exec.speedup_2v1", one.wall_s / two.wall_s);

    let replay_s = replay(
        &entries,
        &two.report,
        &journal,
        &mut trace,
        &mut out,
        s.seed,
    );
    ledger.save();
    trace.set("trace.overhead_frac", replay_s / one.wall_s - 1.0);
    trace.set("flow.sat_probe_repeatable", lock::sat_probe_repeatable());
    out.metrics = trace.metrics();
    out
}

/// Replays every design on this thread with spans around each public
/// call; returns the replay's total wall time.
fn replay(
    entries: &[Entry],
    reference: &CatalogReport,
    journal: &Path,
    trace: &mut Trace,
    out: &mut Outcome,
    seed: u64,
) -> f64 {
    let _ = std::fs::remove_file(journal);
    let mut wal = match CampaignJournal::open(journal) {
        Ok((wal, _)) => wal,
        Err(e) => {
            out.record("replay", Some(format!("journal: {e}")));
            return 0.0;
        }
    };
    let cache = Arc::new(ArtifactStore::in_memory());
    let mut portfolio = portfolio();
    portfolio.cache = Some(Arc::clone(&cache));
    let token = CancelToken::unlimited();
    let mut total = 0.0;
    for &i in &shuffled(entries.len(), mix(seed, 0xCA4F)) {
        let e = &entries[i];
        let start = Instant::now();
        let result = replay_design(e, i, &cache, &portfolio, &token, &mut wal, trace);
        let wall = start.elapsed().as_secs_f64();
        total += wall;
        let problem = result.and_then(|(body, spans, summary)| {
            check_summary(e, &summary, seed)?;
            if body != reference.designs[i].1.canonical_body() {
                return Err("replay differs from the catalog's canonical body".into());
            }
            if spans < lock::MIN_COVERAGE * wall {
                return Err(format!("spans cover {spans:.3} of {wall:.3} s"));
            }
            Ok(())
        });
        out.record(&e.entry.name, problem.err());
    }
    drop(wal);
    let _ = std::fs::remove_file(journal);
    total
}

/// One design of the replay: returns its canonical body, the seconds its
/// spans cover, and its summary.
fn replay_design(
    e: &Entry,
    i: usize,
    cache: &Arc<ArtifactStore>,
    portfolio: &PortfolioConfig,
    token: &CancelToken,
    wal: &mut CampaignJournal,
    trace: &mut Trace,
) -> Result<(String, f64, DesignSummary), String> {
    let budget = RunBudget {
        cancel: Some(token.clone()),
        ..RunBudget::unlimited()
    };
    let (locked, t_lock) = trace.span("campaign.lock_s", || {
        lock_governed_cached(
            &e.entry.module,
            &e.entry.config,
            &budget,
            Some(Arc::clone(cache)),
        )
    });
    let locked = locked.map_err(|err| format!("lock: {err}"))?;
    let (surface, t_surface) = trace.span("campaign.surface_s", || locked.attack_surface(None));
    let surface = surface.map_err(|err| format!("attack surface: {err}"))?;
    let target = match &surface {
        AttackSurface::CombinationalViews { locked, original } => PortfolioTarget {
            comb: Some((locked, original)),
            seq: None,
        },
        AttackSurface::SequentialOnly { locked, original } => PortfolioTarget {
            comb: None,
            seq: Some((locked, original)),
        },
    };
    let (verdict, t_portfolio) = trace.span("campaign.portfolio_s", || {
        portfolio_attack_sequential(&target, portfolio, &token.child())
    });
    for (member, outcome) in &verdict.outcomes {
        if let (
            PortfolioMember::Bmc,
            MemberOutcome::Attack(
                AttackOutcome::KeyFound { elapsed, stats, .. }
                | AttackOutcome::TimedOut { elapsed, stats, .. },
            ),
        ) = (member, outcome)
        {
            trace.add("portfolio.bmc_s", elapsed.as_secs_f64());
            trace.add("portfolio.bmc_dis", stats.dips_accepted as f64);
        }
    }
    let summary = DesignSummary {
        key_bits: locked.key.len(),
        report: locked.report,
        verdict: Some(verdict),
    };
    let body = DesignStatus::Done(Box::new(summary.clone())).canonical_body();
    let (appended, t_append) = trace.span("campaign.journal_append_s", || {
        wal.append(&design_finished_event(i, &e.entry.name, true, &body))
    });
    appended.map_err(|err| format!("journal append: {err}"))?;
    Ok((body, t_lock + t_surface + t_portfolio + t_append, summary))
}
