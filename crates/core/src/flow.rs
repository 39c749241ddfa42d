//! The end-to-end RTLock flow (the seven steps of Section III-A,
//! bracketed by a pre-lock and a post-lock lint gate) and the
//! [`LockedDesign`] artifact it produces.

use crate::candidates::{enumerate_bounded, Candidate, EnumConfig};
use crate::database::{build_database_governed_cached, Database, DatabaseConfig};
use crate::governor::{Degradation, Fault, Governor, RunBudget, Stage, StageOutcome};
use crate::scan_lock::{insert_scan_lock, ScanLockConfig, ScanPolicy};
use crate::select::{select_greedy, select_ilp_bounded, SelectOutcome, SelectionSpec};
use crate::transforms::{apply_all, inject_sabotage, mark_key_inputs, KeyAllocator};
use crate::verify::{try_cosim_bounded, try_wrong_key_corruption, CorruptionOutcome, CosimOutcome};
use rtlock_artifacts::{cached_elaborate, cached_optimize, cached_scoap, ArtifactStore};
use rtlock_governor::CancelToken;
use rtlock_lint::{lint_selected_bounded, Diagnostic, LintPhase, LintReport, LintTarget};
use rtlock_netlist::Netlist;
use rtlock_p1735::envelope::{protect, Grant};
use rtlock_rtl::{print as print_rtl, Module};
use rtlock_synth::{elaborate, optimize, scan, scan_view};
use std::fmt;
use std::sync::Arc;

/// Full flow configuration.
#[derive(Debug, Clone)]
pub struct RtlLockConfig {
    /// Candidate enumeration limits (step 2).
    pub enumeration: EnumConfig,
    /// Database construction (step 3).
    pub database: DatabaseConfig,
    /// Designer specification for selection (step 4).
    pub spec: SelectionSpec,
    /// Fall back to greedy selection when the ILP is infeasible.
    pub greedy_fallback: bool,
    /// Partial scan + scan locking (step 7); `None` skips it ("RTLock*"
    /// configurations of Tables III/IV).
    pub scan: Option<ScanLockConfig>,
    /// Co-simulation cycles for final verification (step 6).
    pub verify_cycles: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RtlLockConfig {
    fn default() -> Self {
        RtlLockConfig {
            enumeration: EnumConfig::default(),
            database: DatabaseConfig::default(),
            spec: SelectionSpec::default(),
            greedy_fallback: true,
            scan: Some(ScanLockConfig::default()),
            verify_cycles: 48,
            seed: 0x10C4,
        }
    }
}

/// Error from the locking flow.
#[derive(Debug, Clone, PartialEq)]
pub enum LockError {
    /// No candidate survived (nothing to lock).
    NoCandidates,
    /// Selection infeasible and greedy fallback disabled or empty.
    SelectionInfeasible,
    /// The combined locked design failed verification.
    VerificationFailed {
        /// Mismatch rate observed under the correct key.
        mismatch_rate: f64,
    },
    /// Scan locking failed.
    Scan(String),
    /// Synthesis of the locked design failed.
    Synthesis(String),
    /// Co-simulation could not run (e.g. a combinational loop).
    Simulation(String),
    /// A stage panicked; the flow caught the unwind at the stage boundary.
    StagePanic {
        /// The stage whose body panicked.
        stage: Stage,
        /// The panic payload's message, best effort.
        message: String,
    },
    /// A stage with no cheaper fallback ran out of budget.
    Timeout {
        /// The stage that could not complete in time.
        stage: Stage,
    },
    /// A lint gate found `Deny`-severity defects and aborted the flow.
    LintRejected {
        /// Which gate rejected ([`Stage::PreLint`], [`Stage::PostLint`],
        /// or the dataflow [`Stage::Analyze`] gate).
        stage: Stage,
        /// The `Deny` findings (the full report, warnings included, is on
        /// [`FlowReport`] when the flow returns one).
        findings: Vec<Diagnostic>,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::NoCandidates => write!(f, "no viable locking candidates"),
            LockError::SelectionInfeasible => write!(f, "selection specification infeasible"),
            LockError::VerificationFailed { mismatch_rate } => {
                write!(f, "locked design diverges under the correct key (rate {mismatch_rate})")
            }
            LockError::Scan(m) => write!(f, "scan locking: {m}"),
            LockError::Synthesis(m) => write!(f, "synthesis: {m}"),
            LockError::Simulation(m) => write!(f, "co-simulation: {m}"),
            LockError::StagePanic { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            LockError::Timeout { stage } => write!(f, "stage {stage} ran out of budget"),
            LockError::LintRejected { stage, findings } => {
                write!(f, "{stage} gate rejected the design ({} deny finding(s)", findings.len())?;
                if let Some(first) = findings.first() {
                    write!(f, "; first: {first}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for LockError {}

impl LockError {
    /// How a retry supervisor should treat this error. Stage panics and
    /// budget exhaustion are [`Transient`](rtlock_store::ErrorClass) — a
    /// re-run with a fresh budget can succeed. Everything structural
    /// (nothing to lock, infeasible spec, verification/lint rejection,
    /// synthesis or simulation failure) is deterministic for a given
    /// design and so [`Permanent`](rtlock_store::ErrorClass): retrying
    /// burns budget to reach the same error.
    pub fn error_class(&self) -> rtlock_store::ErrorClass {
        match self {
            LockError::StagePanic { .. } | LockError::Timeout { .. } => {
                rtlock_store::ErrorClass::Transient
            }
            LockError::NoCandidates
            | LockError::SelectionInfeasible
            | LockError::VerificationFailed { .. }
            | LockError::Scan(_)
            | LockError::Synthesis(_)
            | LockError::Simulation(_)
            | LockError::LintRejected { .. } => rtlock_store::ErrorClass::Permanent,
        }
    }
}

/// Flow report (step-by-step numbers for the paper tables).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Candidates enumerated.
    pub candidates_enumerated: usize,
    /// Cases that were viable in the database.
    pub viable_cases: usize,
    /// Whether the ILP (vs greedy fallback) produced the selection.
    pub used_ilp: bool,
    /// Selected candidate indices.
    pub selected: Vec<usize>,
    /// Candidates actually applied (site conflicts may drop some).
    pub applied: Vec<usize>,
    /// Functional key length.
    pub key_bits: usize,
    /// Correct-key mismatch rate from final co-simulation (must be 0).
    pub verified_mismatch_rate: f64,
    /// Wrong-key output corruption estimate.
    pub corruption: f64,
    /// Graceful degradations recorded by the governor (empty on an
    /// ungoverned or fully in-budget run).
    pub degradations: Vec<Degradation>,
    /// `true` when verification was cut short by the budget: the mismatch
    /// and corruption numbers then cover fewer cycles/samples than
    /// requested.
    pub partial_verification: bool,
    /// Pre-lock lint gate report (`None` when the gate was skipped by a
    /// fault injection or an exhausted budget).
    pub pre_lint: Option<LintReport>,
    /// Post-lock lint gate report (`None` when skipped). Findings already
    /// present in the pre-lock report are deduplicated away — only what
    /// the lock introduced remains.
    pub post_lint: Option<LintReport>,
    /// Whole-design dataflow analysis report — the `K` rules over the
    /// locked netlist's key-taint, constant/X, and scan-reachability
    /// fixpoints (`None` when the stage was skipped). Deduplicated
    /// against both lint gates.
    pub analysis: Option<LintReport>,
    /// Terminal status of every stage that executed, in flow order — a
    /// tolerated stage panic appears here with its captured payload
    /// message, not just as a generic flag.
    pub stage_outcomes: Vec<StageOutcome>,
}

/// The artifact of a completed RTLock run.
#[derive(Debug, Clone)]
pub struct LockedDesign {
    /// The original RTL.
    pub original: Module,
    /// The locked (and possibly scan-locked) RTL.
    pub locked: Module,
    /// The functional locking key.
    pub key: Vec<bool>,
    /// Scan policy when scan locking was requested.
    pub scan_policy: Option<ScanPolicy>,
    /// Applied candidates.
    pub applied: Vec<Candidate>,
    /// The offline case database (for reports/benches).
    pub database: Database,
    /// Flow statistics.
    pub report: FlowReport,
    /// Artifact cache the flow ran with; the accessors
    /// ([`LockedDesign::locked_netlist`], [`LockedDesign::attack_surface`],
    /// …) reuse it so their re-synthesis hits instead of recomputing.
    /// `None` on uncached runs — results are byte-identical either way.
    cache: Option<Arc<ArtifactStore>>,
}

/// What an oracle-guided attacker can reach.
#[derive(Debug, Clone)]
pub enum AttackSurface {
    /// Scan access granted: combinational full-scan views of the locked
    /// and original designs (key inputs marked on the locked view).
    CombinationalViews {
        /// Scan view of the locked netlist.
        locked: Netlist,
        /// Scan view of the original netlist.
        original: Netlist,
    },
    /// Scan access denied by scan locking: only sequential I/O access
    /// remains (BMC territory).
    SequentialOnly {
        /// The locked sequential netlist (key inputs marked).
        locked: Netlist,
        /// The original sequential netlist.
        original: Netlist,
    },
}

impl LockedDesign {
    /// Synthesizes the locked RTL (key inputs marked, partial scan chain
    /// recorded per the scan policy).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Synthesis`] on elaboration failure.
    pub fn locked_netlist(&self) -> Result<Netlist, LockError> {
        synthesize_locked(
            &self.locked,
            self.scan_policy.as_ref(),
            self.cache.as_deref(),
            &CancelToken::unlimited(),
        )
    }

    /// Synthesizes the original RTL.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Synthesis`] on elaboration failure.
    pub fn original_netlist(&self) -> Result<Netlist, LockError> {
        let cache = self.cache.as_deref();
        let token = CancelToken::unlimited();
        match cache {
            None => {
                let mut n =
                    elaborate(&self.original).map_err(|e| LockError::Synthesis(e.to_string()))?;
                optimize(&mut n);
                Ok(n)
            }
            Some(_) => {
                let n = cached_elaborate(cache, &self.original, &token)
                    .map_err(|e| LockError::Synthesis(e.to_string()))?;
                Ok(cached_optimize(cache, &n, &token).0)
            }
        }
    }

    /// The artifact cache this design was produced with, if any.
    pub fn artifact_cache(&self) -> Option<&Arc<ArtifactStore>> {
        self.cache.as_ref()
    }

    /// The attack surface an oracle-guided adversary sees. With scan
    /// locking active, scan access requires the correct scan key; without
    /// it (or with the right key) the full-scan combinational views are
    /// exposed.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Synthesis`] on elaboration failure.
    pub fn attack_surface(&self, scan_key: Option<&[bool]>) -> Result<AttackSurface, LockError> {
        let mut locked = self.locked_netlist()?;
        let original = self.original_netlist()?;
        let scan_unlocked = match &self.scan_policy {
            None => true,
            Some(policy) => scan_key.is_some_and(|k| k == policy.scan_key.as_slice()),
        };
        if scan_unlocked {
            scan::insert_full_scan(&mut locked);
            let mut lv = scan_view(&locked).netlist;
            mark_key_inputs(&mut lv);
            let mut orig_scanned = original;
            scan::insert_full_scan(&mut orig_scanned);
            let ov = scan_view(&orig_scanned).netlist;
            Ok(AttackSurface::CombinationalViews { locked: lv, original: ov })
        } else {
            Ok(AttackSurface::SequentialOnly { locked, original })
        }
    }

    /// Exports the locked RTL as a P1735 envelope for the given tool
    /// grants (step "IP encryption for integration/verification").
    pub fn export_p1735(&self, grants: &[Grant], rng: &mut impl rand::Rng) -> String {
        protect(&print_rtl(&self.locked), grants, rng)
    }

    /// Exports the synthesized locked netlist in ISCAS-89 `.bench` format
    /// with `keyinput*` conventions, for cross-checking against external
    /// attack tools (e.g. the original SAT-attack binary of \[38\]).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Synthesis`] on elaboration failure.
    pub fn export_bench(&self) -> Result<String, LockError> {
        Ok(rtlock_netlist::to_bench(&self.locked_netlist()?))
    }
}

/// Synthesizes a locked module (key inputs marked, partial scan chain
/// rebuilt per the policy). Shared by [`LockedDesign::locked_netlist`]
/// and the post-lock lint gate, so both analyze the identical netlist.
/// The expensive elaborate/optimize steps route through the artifact
/// cache when one is supplied; the cheap key-marking and scan rebuild
/// always run, so the result is identical with the cache hot, cold, or
/// absent.
fn synthesize_locked(
    locked: &Module,
    scan_policy: Option<&ScanPolicy>,
    cache: Option<&ArtifactStore>,
    token: &CancelToken,
) -> Result<Netlist, LockError> {
    let mut n = match cache {
        None => {
            let mut n = elaborate(locked).map_err(|e| LockError::Synthesis(e.to_string()))?;
            optimize(&mut n);
            n
        }
        Some(_) => {
            let elabbed = cached_elaborate(cache, locked, token)
                .map_err(|e| LockError::Synthesis(e.to_string()))?;
            cached_optimize(cache, &elabbed, token).0
        }
    };
    mark_key_inputs(&mut n);
    if let Some(policy) = scan_policy {
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

/// Runs the complete RTLock flow on a module, unbounded.
///
/// Equivalent to [`lock_governed`] with [`RunBudget::unlimited`] — no
/// deadlines, no fault injections, only panic isolation at the stage
/// boundaries.
///
/// # Errors
///
/// See [`LockError`]; the common failure is an infeasible
/// [`SelectionSpec`] with `greedy_fallback` disabled.
pub fn lock(module: &Module, config: &RtlLockConfig) -> Result<LockedDesign, LockError> {
    lock_governed(module, config, &RunBudget::unlimited())
}

/// Runs the complete RTLock flow under a [`RunBudget`].
///
/// Every stage — the seven locking steps, the two lint gates, and the
/// final dataflow analysis gate — executes through the
/// [`Governor`]: its body is panic-isolated
/// (a panic becomes [`LockError::StagePanic`]), it polls a cancel token
/// tightened to the stage's soft deadline, and when a budget fires the
/// flow degrades along a fixed ladder instead of failing outright:
///
/// * enumeration returns the candidates collected so far;
/// * database probing drops SAT/ML probes in favor of structural
///   estimates;
/// * an out-of-budget ILP falls back to greedy selection (when
///   `greedy_fallback` allows it);
/// * verification returns a reduced-cycle verdict flagged via
///   [`FlowReport::partial_verification`].
///
/// Cheap must-run stages (transform, scan locking) always execute; only
/// the first stage refuses to start on an already-expired budget. Each
/// degradation is recorded in [`FlowReport::degradations`].
///
/// # Errors
///
/// All of [`lock`]'s errors, plus [`LockError::StagePanic`] and
/// [`LockError::Timeout`] when a stage without a fallback runs dry.
pub fn lock_governed(
    module: &Module,
    config: &RtlLockConfig,
    budget: &RunBudget,
) -> Result<LockedDesign, LockError> {
    lock_governed_cached(module, config, budget, None)
}

/// [`lock_governed`] with a content-addressed artifact cache.
///
/// The Elaborate stage, the post-lock/analysis synthesis, the per-case
/// database synthesis, and the lint gates' SCOAP profiles all consult
/// `cache` before recomputing. The determinism contract holds: the
/// returned [`LockedDesign`] and [`FlowReport`] are byte-identical
/// whether the cache is cold, hot, shared with other runs, or absent —
/// only the cache's own hit/miss counters differ. Cache lookups are
/// bounded by the stage's [`CancelToken`] and degrade to recomputation
/// under the stage's own budget, never to partial artifacts.
///
/// # Errors
///
/// Same as [`lock_governed`].
pub fn lock_governed_cached(
    module: &Module,
    config: &RtlLockConfig,
    budget: &RunBudget,
    cache: Option<Arc<ArtifactStore>>,
) -> Result<LockedDesign, LockError> {
    let cache_ref = cache.as_deref();
    let mut gov = Governor::start(budget.clone());

    // Step 1: elaborate — validates the original synthesizes before any
    // expensive work starts. The netlist feeds the pre-lock lint gate; an
    // elaboration *failure* is held until after that gate so structural
    // defects surface as findings, not as an opaque synthesis error.
    let empty_elab = gov.fault_plan().has(Stage::Elaborate, Fault::EmptyResult);
    let elab = gov.run_stage(Stage::Elaborate, |token| {
        if empty_elab {
            return Err(LockError::Synthesis("injected fault: elaboration produced nothing".into()));
        }
        if token.should_stop().is_some() {
            return Err(LockError::Timeout { stage: Stage::Elaborate });
        }
        Ok(cached_elaborate(cache_ref, module, token)
            .map_err(|e| LockError::Synthesis(e.to_string())))
    })?;

    // Pre-lock lint gate: refuse structurally broken inputs before any
    // locking work is spent on them. The gate is advisory machinery, so a
    // panic *inside the linter* is tolerated — the flow degrades with the
    // captured payload (surfaced in the stage outcomes) rather than
    // failing a lockable design.
    let skip_pre = gov.fault_plan().has(Stage::PreLint, Fault::EmptyResult);
    let pre_lint = match gov.run_stage(Stage::PreLint, |token| {
        if skip_pre {
            return Ok(None);
        }
        let mut target = match &elab {
            Ok(n) => LintTarget::full(module, n),
            Err(_) => LintTarget::rtl(module),
        }
        .with_phase(LintPhase::PreLock);
        if let (Some(_), Ok(n)) = (cache_ref, &elab) {
            // Seed the gate's SCOAP profile from the cache so the Y rules
            // don't recompute it per run (same profile the post-lock and
            // analysis gates reuse when the lock is a no-op).
            target = target.with_scoap(cached_scoap(cache_ref, n, token));
        }
        Ok(Some(lint_selected_bounded(&target, token, |id| !id.starts_with('K'))))
    }) {
        Ok(rep) => rep,
        Err(LockError::StagePanic { message, .. }) => {
            gov.degrade(Stage::PreLint, format!("pre-lock lint gate panicked ({message}); gate skipped"));
            None
        }
        Err(e) => return Err(e),
    };
    match &pre_lint {
        Some(rep) => {
            if !rep.skipped.is_empty() {
                gov.degrade(
                    Stage::PreLint,
                    format!("{} lint rule(s) skipped past the deadline", rep.skipped.len()),
                );
            }
            if !rep.is_clean() {
                return Err(LockError::LintRejected { stage: Stage::PreLint, findings: rep.denials() });
            }
        }
        None if skip_pre => gov.degrade(Stage::PreLint, "pre-lock lint skipped (injected empty result)"),
        None => {}
    }
    // The gate had nothing to say about an un-synthesizable input (or was
    // skipped): fail with the elaboration error itself.
    elab?;

    // Step 2: enumerate candidates (budget cuts the list short).
    let empty_enum = gov.fault_plan().has(Stage::Enumerate, Fault::EmptyResult);
    let (candidates, fsms, enum_complete) = gov.run_stage(Stage::Enumerate, |token| {
        if empty_enum {
            return Ok((Vec::new(), Vec::new(), true));
        }
        Ok(enumerate_bounded(module, &config.enumeration, token))
    })?;
    if !enum_complete {
        if candidates.is_empty() {
            return Err(LockError::Timeout { stage: Stage::Enumerate });
        }
        gov.degrade(
            Stage::Enumerate,
            format!("enumeration cut short at {} candidates", candidates.len()),
        );
    }
    if candidates.is_empty() {
        return Err(LockError::NoCandidates);
    }

    // Step 3: offline database (budget degrades probes to structural
    // estimates).
    let empty_db = gov.fault_plan().has(Stage::Database, Fault::EmptyResult);
    let (database, db_complete) = gov.run_stage(Stage::Database, |token| {
        if empty_db {
            return Ok((Database::default(), true));
        }
        Ok(build_database_governed_cached(
            module,
            &candidates,
            &fsms,
            &config.database,
            token,
            cache_ref,
        ))
    })?;
    if !db_complete {
        gov.degrade(Stage::Database, "attack probes replaced by structural estimates past the deadline");
    }
    if database.viable_cases().count() == 0 {
        return Err(LockError::NoCandidates);
    }

    // Step 4: ILP selection (budget falls back to greedy).
    let empty_sel = gov.fault_plan().has(Stage::Select, Fault::EmptyResult);
    let outcome = gov.run_stage(Stage::Select, |token| {
        if empty_sel {
            return Ok(SelectOutcome::Selected(Vec::new()));
        }
        Ok(select_ilp_bounded(&database, &candidates, &config.spec, token))
    })?;
    let (selected, used_ilp) = match outcome {
        SelectOutcome::Selected(s) if !s.is_empty() => (s, true),
        SelectOutcome::TimedOut if !config.greedy_fallback => {
            return Err(LockError::Timeout { stage: Stage::Select })
        }
        other => {
            if !config.greedy_fallback {
                return Err(LockError::SelectionInfeasible);
            }
            if other == SelectOutcome::TimedOut {
                gov.degrade(Stage::Select, "ILP out of budget; greedy selection substituted");
            }
            let g = select_greedy(&database, &candidates, &config.spec);
            if g.is_empty() {
                return Err(LockError::SelectionInfeasible);
            }
            (g, false)
        }
    };

    // Step 5: update RTL. Cheap and mandatory — runs even past the
    // budget so the work above is never wasted.
    let empty_transform = gov.fault_plan().has(Stage::Transform, Fault::EmptyResult);
    let sabotage = gov.fault_plan().has(Stage::Transform, Fault::Sabotage);
    let (mut locked, applied, key) = gov.run_stage(Stage::Transform, |_| {
        let mut locked = module.clone();
        let mut keys = KeyAllocator::new();
        if empty_transform {
            return Ok((locked, Vec::new(), Vec::new()));
        }
        let chosen: Vec<Candidate> = selected.iter().map(|&i| candidates[i].clone()).collect();
        let applied_local = apply_all(&mut locked, &chosen, &fsms, &mut keys);
        let applied: Vec<usize> = applied_local.iter().map(|&k| selected[k]).collect();
        if sabotage {
            // A key gate on a constant net: invisible to correct-key
            // verification, caught only by the post-lock lint gate.
            inject_sabotage(&mut locked, &mut keys);
        }
        Ok((locked, applied, keys.correct_key().to_vec()))
    })?;
    if key.is_empty() {
        return Err(LockError::NoCandidates);
    }

    // Step 6: verification (budget yields a partial verdict).
    let empty_verify = gov.fault_plan().has(Stage::Verify, Fault::EmptyResult);
    let (cosim, corruption) = gov.run_stage(Stage::Verify, |token| {
        if empty_verify {
            return Ok((
                CosimOutcome { mismatch_rate: 0.0, cycles_run: 0, complete: false },
                CorruptionOutcome { corruption: 0.0, samples_run: 0, complete: false },
            ));
        }
        let cosim = try_cosim_bounded(module, &locked, &key, config.verify_cycles, config.seed, token)
            .map_err(LockError::Simulation)?;
        let corruption =
            try_wrong_key_corruption(module, &locked, &key, 3, config.verify_cycles, config.seed, token)
                .map_err(LockError::Simulation)?;
        Ok((cosim, corruption))
    })?;
    if cosim.mismatch_rate > 0.0 {
        return Err(LockError::VerificationFailed { mismatch_rate: cosim.mismatch_rate });
    }
    let partial_verification = !cosim.complete || !corruption.complete;
    if partial_verification {
        gov.degrade(
            Stage::Verify,
            format!(
                "partial verdict: {}/{} cycles, {}/3 wrong-key samples",
                cosim.cycles_run, config.verify_cycles, corruption.samples_run
            ),
        );
    }

    // Step 7: partial scan + scan locking. Also cheap and mandatory.
    let skip_scan = gov.fault_plan().has(Stage::ScanLock, Fault::EmptyResult);
    let scan_policy = gov.run_stage(Stage::ScanLock, |_| match &config.scan {
        Some(sc) if !skip_scan => {
            insert_scan_lock(&mut locked, sc).map(Some).map_err(|e| LockError::Scan(e.message))
        }
        _ => Ok(None),
    })?;
    if skip_scan && config.scan.is_some() {
        gov.degrade(Stage::ScanLock, "scan locking skipped (injected empty result)");
    }

    // Post-lock lint gate: key- and scan-aware rules over the locked
    // design. Skipped (with a recorded degradation) when the budget is
    // already exhausted — synthesizing the locked netlist is not free.
    // The dataflow `K` rules are excluded here: they run in their own
    // governed `analyze` stage below.
    let skip_post = gov.fault_plan().has(Stage::PostLint, Fault::EmptyResult);
    let mut post_panicked = false;
    let mut post_lint = match gov.run_stage(Stage::PostLint, |token| {
        if skip_post || token.should_stop().is_some() {
            return Ok(None);
        }
        let n = synthesize_locked(&locked, scan_policy.as_ref(), cache_ref, token)?;
        let mut target = LintTarget::full(&locked, &n)
            .with_phase(LintPhase::PostLock)
            .with_scan_locked(scan_policy.is_some());
        if cache_ref.is_some() {
            // One SCOAP profile per distinct netlist: the gates' Y/S rules
            // otherwise each recompute it per target.
            target = target.with_scoap(cached_scoap(cache_ref, &n, token));
        }
        Ok(Some(lint_selected_bounded(&target, token, |id| !id.starts_with('K'))))
    }) {
        Ok(rep) => rep,
        Err(LockError::StagePanic { message, .. }) => {
            post_panicked = true;
            gov.degrade(Stage::PostLint, format!("post-lock lint gate panicked ({message}); gate skipped"));
            None
        }
        Err(e) => return Err(e),
    };
    match &post_lint {
        Some(rep) => {
            if !rep.skipped.is_empty() {
                gov.degrade(
                    Stage::PostLint,
                    format!("{} lint rule(s) skipped past the deadline", rep.skipped.len()),
                );
            }
            if !rep.is_clean() {
                return Err(LockError::LintRejected { stage: Stage::PostLint, findings: rep.denials() });
            }
        }
        None if post_panicked => {}
        None => gov.degrade(
            Stage::PostLint,
            if skip_post {
                "post-lock lint skipped (injected empty result)"
            } else {
                "post-lock lint skipped: budget exhausted"
            },
        ),
    }
    // Both gates run the same rules over overlapping views: keep only
    // what the lock introduced on the post-lock report.
    if let (Some(post), Some(pre)) = (post_lint.as_mut(), pre_lint.as_ref()) {
        post.dedup_against(&[pre]);
    }

    // Dataflow analysis gate: the fixpoint-backed `K` rules (key taint,
    // ternary constant propagation, scan reachability) over the locked
    // design — the deepest and most expensive check, so it runs last and
    // is skipped on an exhausted budget like the post-lock gate.
    let skip_analyze = gov.fault_plan().has(Stage::Analyze, Fault::EmptyResult);
    let mut analyze_panicked = false;
    let mut analysis = match gov.run_stage(Stage::Analyze, |token| {
        if skip_analyze || token.should_stop().is_some() {
            return Ok(None);
        }
        let n = synthesize_locked(&locked, scan_policy.as_ref(), cache_ref, token)?;
        let mut target = LintTarget::full(&locked, &n)
            .with_phase(LintPhase::Analyze)
            .with_scan_locked(scan_policy.is_some());
        if cache_ref.is_some() {
            target = target.with_scoap(cached_scoap(cache_ref, &n, token));
        }
        Ok(Some(lint_selected_bounded(&target, token, |id| id.starts_with('K'))))
    }) {
        Ok(rep) => rep,
        Err(LockError::StagePanic { message, .. }) => {
            analyze_panicked = true;
            gov.degrade(Stage::Analyze, format!("dataflow analysis panicked ({message}); stage skipped"));
            None
        }
        Err(e) => return Err(e),
    };
    match &analysis {
        Some(rep) => {
            if !rep.skipped.is_empty() {
                gov.degrade(
                    Stage::Analyze,
                    format!("{} dataflow rule(s) skipped past the deadline", rep.skipped.len()),
                );
            }
            if !rep.is_clean() {
                return Err(LockError::LintRejected { stage: Stage::Analyze, findings: rep.denials() });
            }
        }
        None if analyze_panicked => {}
        None => gov.degrade(
            Stage::Analyze,
            if skip_analyze {
                "dataflow analysis skipped (injected empty result)"
            } else {
                "dataflow analysis skipped: budget exhausted"
            },
        ),
    }
    if let Some(rep) = analysis.as_mut() {
        let earlier: Vec<&LintReport> = pre_lint.iter().chain(post_lint.iter()).collect();
        rep.dedup_against(&earlier);
    }

    let report = FlowReport {
        candidates_enumerated: candidates.len(),
        viable_cases: database.viable_cases().count(),
        used_ilp,
        selected: selected.clone(),
        applied: applied.clone(),
        key_bits: key.len(),
        verified_mismatch_rate: cosim.mismatch_rate,
        corruption: corruption.corruption,
        degradations: gov.take_degradations(),
        partial_verification,
        pre_lint,
        post_lint,
        analysis,
        stage_outcomes: gov.take_stage_outcomes(),
    };
    let applied_candidates = applied.iter().map(|&i| candidates[i].clone()).collect();
    Ok(LockedDesign {
        original: module.clone(),
        locked,
        key,
        scan_policy,
        applied: applied_candidates,
        database,
        report,
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_rtl::parse;

    const SRC: &str = "module t(input clk, input rst, input go, input [7:0] d, output reg [7:0] y, output busy);\n\
        reg [1:0] st; reg [1:0] st_next;\n\
        assign busy = st != 2'd0;\n\
        always @(*) begin\n\
          st_next = st;\n\
          case (st)\n\
            2'd0: begin if (go) st_next = 2'd1; end\n\
            2'd1: begin st_next = 2'd2; end\n\
            2'd2: begin st_next = 2'd0; end\n\
          endcase\n\
        end\n\
        always @(posedge clk or posedge rst) begin\n\
          if (rst) begin st <= 2'd0; y <= 8'd0; end\n\
          else begin\n\
            st <= st_next;\n\
            if (st == 2'd1) y <= (d + 8'd37) ^ 8'h5A;\n\
          end\n\
        end\nendmodule";

    fn quick() -> RtlLockConfig {
        RtlLockConfig {
            database: DatabaseConfig { sat_probe: false, cosim_cycles: 16, corruption_samples: 1, ..DatabaseConfig::default() },
            spec: SelectionSpec {
                min_resilience: 150.0,
                max_area_pct: 30.0,
                min_key_bits: 4,
                ..SelectionSpec::default()
            },
            verify_cycles: 24,
            ..RtlLockConfig::default()
        }
    }

    #[test]
    fn full_flow_produces_verified_locked_design() {
        let m = parse(SRC).unwrap();
        let out = lock(&m, &quick()).unwrap();
        assert!(out.report.key_bits >= 2, "key: {}", out.report.key_bits);
        assert_eq!(out.report.verified_mismatch_rate, 0.0);
        assert!(out.report.corruption > 0.0);
        assert!(out.scan_policy.is_some());
        assert!(!out.applied.is_empty());
        // Locked netlist has the key inputs marked.
        let n = out.locked_netlist().unwrap();
        assert_eq!(n.key_inputs.len(), out.key.len());
        assert!(!n.scan_chain.is_empty(), "partial scan recorded");
    }

    #[test]
    fn attack_surface_depends_on_scan_key() {
        let m = parse(SRC).unwrap();
        let out = lock(&m, &quick()).unwrap();
        let policy = out.scan_policy.clone().unwrap();
        match out.attack_surface(None).unwrap() {
            AttackSurface::SequentialOnly { .. } => {}
            other => panic!("expected sequential-only, got {other:?}"),
        }
        let mut wrong = policy.scan_key.clone();
        wrong[0] = !wrong[0];
        assert!(matches!(out.attack_surface(Some(&wrong)).unwrap(), AttackSurface::SequentialOnly { .. }));
        match out.attack_surface(Some(&policy.scan_key)).unwrap() {
            AttackSurface::CombinationalViews { locked, .. } => {
                assert!(locked.dffs().is_empty(), "scan view is combinational");
                assert_eq!(locked.key_inputs.len(), out.key.len());
            }
            other => panic!("expected views, got {other:?}"),
        }
    }

    #[test]
    fn no_scan_config_exposes_views_directly() {
        let m = parse(SRC).unwrap();
        let cfg = RtlLockConfig { scan: None, ..quick() };
        let out = lock(&m, &cfg).unwrap();
        assert!(out.scan_policy.is_none());
        assert!(matches!(out.attack_surface(None).unwrap(), AttackSurface::CombinationalViews { .. }));
    }

    #[test]
    fn p1735_export_wraps_locked_rtl() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rtlock_p1735::envelope::{Envelope, Permissions, ToolSession};
        use rtlock_p1735::rsa::generate_keypair;

        let m = parse(SRC).unwrap();
        let out = lock(&m, &quick()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let kp = generate_keypair(512, &mut rng);
        let text = out.export_p1735(
            &[Grant { tool: "Verifier".into(), public_key: kp.public, permissions: Permissions::simulation_only() }],
            &mut rng,
        );
        assert!(!text.contains("lock_key"), "envelope hides the locked RTL");
        let env = Envelope::parse(&text).unwrap();
        let tool = ToolSession { tool: "Verifier".into(), private_key: kp.private };
        let ip = tool.open(&env).unwrap();
        // The tool can parse and simulate internally.
        let ok = ip.with_source(|src| rtlock_rtl::parse(src).is_ok());
        assert!(ok);
    }

    #[test]
    fn infeasible_spec_without_fallback_errors() {
        let m = parse(SRC).unwrap();
        let mut cfg = quick();
        cfg.spec.min_resilience = 1e12;
        cfg.greedy_fallback = false;
        assert_eq!(lock(&m, &cfg).unwrap_err(), LockError::SelectionInfeasible);
    }
}
