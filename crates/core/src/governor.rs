//! Resource-governed flow execution: run budgets, per-stage deadlines,
//! panic isolation and deterministic fault injection.
//!
//! The seven-step flow ([`crate::flow::lock_governed`]) runs every stage
//! through this module's harness:
//!
//! * a [`RunBudget`] carries one wall-clock budget for the whole run plus
//!   optional per-stage soft deadlines; each stage receives a
//!   [`CancelToken`](rtlock_governor::CancelToken) tightened to the earlier
//!   of the two, and the long-running engines (synthesis fixpoint, ILP
//!   branch-and-bound, SAT probes, ATPG, co-simulation) poll it
//!   cooperatively;
//! * every stage body executes under [`std::panic::catch_unwind`], so a
//!   bug in one engine surfaces as a structured
//!   [`LockError::StagePanic`](crate::flow::LockError::StagePanic) instead
//!   of tearing down the caller;
//! * when a soft deadline fires, the flow degrades instead of failing —
//!   ILP falls back to greedy selection, database probing falls back to
//!   structural estimates, verification returns a reduced-cycle verdict —
//!   and each such step is recorded as a [`Degradation`] in the final
//!   [`FlowReport`](crate::flow::FlowReport);
//! * a [`FaultPlan`] injects panics, timeouts or empty results at any
//!   named stage, deterministically, so the degradation ladder itself is
//!   testable.

use rtlock_exec::panic_message;
use rtlock_governor::{CancelToken, Deadline};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The stages of the RTLock flow, in execution order: the seven locking
/// steps plus the two lint gates that bracket them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Step 1: elaborate the original RTL (validates it synthesizes).
    Elaborate,
    /// Pre-lock lint gate: static analysis of the input module and its
    /// elaborated netlist before any locking work is spent on it.
    PreLint,
    /// Step 2: enumerate locking candidates.
    Enumerate,
    /// Step 3: build the offline case database (synthesis + attack probes).
    Database,
    /// Step 4: ILP case selection.
    Select,
    /// Step 5: apply the locking transforms to the RTL.
    Transform,
    /// Step 6: co-simulation verification.
    Verify,
    /// Step 7: partial scan insertion + scan locking.
    ScanLock,
    /// Post-lock lint gate: static analysis of the locked design (key and
    /// scan rules included) before it is handed back.
    PostLint,
    /// Whole-design dataflow analysis gate: the fixpoint-backed `K` rules
    /// (key taint, constant/X propagation, scan reachability) over the
    /// locked netlist. The most expensive gate, so it runs last.
    Analyze,
}

impl Stage {
    /// All stages, in flow order.
    pub const ALL: [Stage; 10] = [
        Stage::Elaborate,
        Stage::PreLint,
        Stage::Enumerate,
        Stage::Database,
        Stage::Select,
        Stage::Transform,
        Stage::Verify,
        Stage::ScanLock,
        Stage::PostLint,
        Stage::Analyze,
    ];

    /// Stable lowercase name (used in reports and fault plans).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Elaborate => "elaborate",
            Stage::PreLint => "pre_lint",
            Stage::Enumerate => "enumerate",
            Stage::Database => "database",
            Stage::Select => "select",
            Stage::Transform => "transform",
            Stage::Verify => "verify",
            Stage::ScanLock => "scan_lock",
            Stage::PostLint => "post_lint",
            Stage::Analyze => "analyze",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault the harness can inject at a stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The stage body panics (exercises the `catch_unwind` isolation).
    Panic,
    /// The stage behaves as if its deadline already expired when it
    /// started (exercises the degradation ladder without sleeping).
    Timeout,
    /// The stage produces an empty result (no candidates, no viable rows,
    /// empty selection — whatever "empty" means for that stage).
    EmptyResult,
    /// The stage deliberately corrupts its own output (currently only
    /// meaningful at [`Stage::Transform`], where it plants a key gate on a
    /// constant-driven net; a no-op elsewhere). Exercises the post-lock
    /// lint gate: the sabotage passes functional verification with the
    /// correct key but must be rejected by rule `C002`.
    Sabotage,
    /// The *process* aborts immediately after the stage body finishes —
    /// after its result was computed, before the flow can act on it.
    /// This is the crash-injection primitive the kill-and-resume harness
    /// uses: the campaign journal has recorded everything up to and
    /// including this stage, and recovery must resume from there.
    ///
    /// Deliberately **not** part of the pool [`FaultPlan::seeded`] draws
    /// from: a seeded chaos plan degrades in-process, it never takes the
    /// test runner down with it.
    CrashAfter,
}

impl Fault {
    const ALL: [Fault; 4] = [Fault::Panic, Fault::Timeout, Fault::EmptyResult, Fault::Sabotage];
}

/// A deterministic fault-injection plan: which [`Fault`] (if any) to
/// trigger at each stage. Used by the robustness test-suite to prove every
/// stage degrades into a structured error or a flagged result.
///
/// Besides the static injections, a plan can carry *transient* faults: a
/// `(stage, fault)` pair armed for a bounded number of runs. Each
/// [`Governor::start`] resolves the plan — consuming one charge from
/// every armed transient — so a flow retried under the same (cloned)
/// budget fails the first N attempts and succeeds afterwards. That is
/// exactly the shape the retry supervisor's acceptance test needs, and
/// because clones share the underlying counters, the charge accounting
/// is per-plan, not per-clone.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    injections: Vec<(Stage, Fault)>,
    transients: Vec<TransientFault>,
}

/// A fault armed for a bounded number of [`Governor::start`] resolutions.
#[derive(Debug, Clone)]
struct TransientFault {
    stage: Stage,
    fault: Fault,
    /// Charges left. Shared across clones: a budget cloned per retry
    /// attempt decrements the same counter.
    remaining: Arc<AtomicUsize>,
}

/// Equality ignores the live charge counters (two plans with the same
/// static and transient configuration compare equal even mid-burn); the
/// counters are runtime state, not plan identity.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.injections == other.injections
            && self.transients.len() == other.transients.len()
            && self
                .transients
                .iter()
                .zip(&other.transients)
                .all(|(a, b)| a.stage == b.stage && a.fault == b.fault)
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an injection (builder-style).
    #[must_use]
    pub fn inject(mut self, stage: Stage, fault: Fault) -> FaultPlan {
        self.injections.push((stage, fault));
        self
    }

    /// Arms `fault` at `stage` for the next `times` governed runs
    /// (builder-style). Each [`Governor::start`] burns one charge; once
    /// the counter hits zero the fault stops firing. Clones of the plan
    /// share the counter.
    #[must_use]
    pub fn inject_transient(mut self, stage: Stage, fault: Fault, times: usize) -> FaultPlan {
        self.transients.push(TransientFault {
            stage,
            fault,
            remaining: Arc::new(AtomicUsize::new(times)),
        });
        self
    }

    /// Snapshots the plan for one run: static injections pass through and
    /// every transient with charges left burns one and joins them. The
    /// resolved plan is purely static, so every `has`/`fault_at` query
    /// within the run sees one consistent answer no matter how many times
    /// a stage consults it.
    pub fn resolve(&self) -> FaultPlan {
        let mut injections = self.injections.clone();
        for t in &self.transients {
            let fired = t
                .remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                .is_ok();
            if fired {
                injections.push((t.stage, t.fault));
            }
        }
        FaultPlan { injections, transients: Vec::new() }
    }

    /// A plan with one pseudo-random `(stage, fault)` pair derived from
    /// `seed` (SplitMix64 — same seed, same plan, on every platform).
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let stage = Stage::ALL[(next() % Stage::ALL.len() as u64) as usize];
        let fault = Fault::ALL[(next() % Fault::ALL.len() as u64) as usize];
        FaultPlan::none().inject(stage, fault)
    }

    /// The fault planned for `stage`, if any (first match wins).
    pub fn fault_at(&self, stage: Stage) -> Option<Fault> {
        self.injections.iter().find(|(s, _)| *s == stage).map(|&(_, f)| f)
    }

    /// Whether `stage` has `fault` planned.
    pub fn has(&self, stage: Stage, fault: Fault) -> bool {
        self.fault_at(stage) == Some(fault)
    }
}

/// Resource budget for one flow run.
///
/// `Default` is fully unbounded with no injections — [`crate::flow::lock`]
/// uses exactly that, so ungoverned callers pay only a handful of atomic
/// loads.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock budget for the whole run (`None` = unbounded). The flow
    /// aims to return — with a result, a degraded result, or a structured
    /// error — within a small multiple of this (cooperative checks sit at
    /// loop boundaries, so one in-flight unit of work can overshoot).
    pub wall_clock: Option<Duration>,
    /// Per-stage soft deadlines. A stage whose soft deadline fires
    /// degrades (greedy selection, structural estimates, partial
    /// verification) rather than failing the run.
    pub stage_timeouts: Vec<(Stage, Duration)>,
    /// Deterministic fault injections (testing/chaos harness).
    pub fault_plan: FaultPlan,
    /// External cancellation: when set, the run token derives from this
    /// token, so firing it (e.g. from a parallel catalog worker's pool)
    /// stops the flow at the next cooperative check exactly like an
    /// expired wall clock.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// No limits, no injections.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// A budget bounded only by total wall-clock time.
    pub fn with_wall_clock(limit: Duration) -> RunBudget {
        RunBudget { wall_clock: Some(limit), ..RunBudget::default() }
    }

    /// Adds a per-stage soft deadline (builder-style).
    #[must_use]
    pub fn stage_timeout(mut self, stage: Stage, limit: Duration) -> RunBudget {
        self.stage_timeouts.push((stage, limit));
        self
    }

    /// Attaches a fault plan (builder-style).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> RunBudget {
        self.fault_plan = plan;
        self
    }

    /// Attaches an external cancel token (builder-style).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> RunBudget {
        self.cancel = Some(token.clone());
        self
    }

    /// The soft deadline duration configured for `stage`, if any.
    fn stage_limit(&self, stage: Stage) -> Option<Duration> {
        self.stage_timeouts.iter().find(|(s, _)| *s == stage).map(|&(_, d)| d)
    }
}

/// The runtime companion of a [`RunBudget`]: owns the run-wide cancel
/// token and records [`Degradation`]s as stages fall back.
#[derive(Debug)]
pub struct Governor {
    budget: RunBudget,
    run_token: CancelToken,
    degradations: Vec<Degradation>,
    stage_outcomes: Vec<StageOutcome>,
}

/// Terminal status of one executed stage, recorded by
/// [`Governor::run_stage`] and surfaced on
/// [`FlowReport::stage_outcomes`](crate::flow::FlowReport::stage_outcomes).
#[derive(Debug, Clone, PartialEq)]
pub enum StageStatus {
    /// The stage body returned `Ok`.
    Ok,
    /// The stage body returned a structured error (rendered).
    Failed(String),
    /// The stage body panicked; the captured payload message — not just a
    /// flag — so a report of a run that tolerated the panic (e.g. a lint
    /// gate) still says *what* blew up.
    Panicked(String),
}

/// One stage's recorded terminal status.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// The stage that ran.
    pub stage: Stage,
    /// How its body ended.
    pub status: StageStatus,
}

/// One graceful-degradation event: a stage hit its budget (or an injected
/// fault) and the flow substituted a cheaper strategy instead of failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The stage that degraded.
    pub stage: Stage,
    /// What was substituted, human-readable.
    pub detail: String,
}

impl Governor {
    /// Starts governing a run: the wall-clock budget begins now, and the
    /// fault plan is resolved — each armed transient fault burns one
    /// charge here, so the plan is static for the run's duration.
    pub fn start(mut budget: RunBudget) -> Governor {
        budget.fault_plan = budget.fault_plan.resolve();
        let deadline = Deadline::within(budget.wall_clock);
        let run_token = match &budget.cancel {
            Some(t) => t.tightened(deadline),
            None => CancelToken::with_deadline(deadline),
        };
        Governor { budget, run_token, degradations: Vec::new(), stage_outcomes: Vec::new() }
    }

    /// The run-wide cancel token (shared flag; wall-clock deadline).
    pub fn run_token(&self) -> &CancelToken {
        &self.run_token
    }

    /// The token a stage should poll: the run token tightened to the
    /// stage's soft deadline. An injected [`Fault::Timeout`] yields an
    /// already-expired deadline — the stage then behaves exactly as if its
    /// time ran out, with no sleeping and no wall-clock dependence.
    pub fn stage_token(&self, stage: Stage) -> CancelToken {
        let soft = if self.budget.fault_plan.has(stage, Fault::Timeout) {
            Deadline::after(Duration::ZERO)
        } else {
            Deadline::within(self.budget.stage_limit(stage))
        };
        self.run_token.tightened(soft)
    }

    /// The fault plan in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.budget.fault_plan
    }

    /// Records a graceful degradation.
    pub fn degrade(&mut self, stage: Stage, detail: impl Into<String>) {
        self.degradations.push(Degradation { stage, detail: detail.into() });
    }

    /// Degradations recorded so far (drained into the final report).
    pub fn take_degradations(&mut self) -> Vec<Degradation> {
        std::mem::take(&mut self.degradations)
    }

    /// Stage outcomes recorded so far (drained into the final report).
    pub fn take_stage_outcomes(&mut self) -> Vec<StageOutcome> {
        std::mem::take(&mut self.stage_outcomes)
    }

    /// Runs a stage body with panic isolation. An injected
    /// [`Fault::Panic`] panics *inside* the guarded region, so injection
    /// exercises the same recovery path a real bug would. The stage's
    /// terminal status (including a captured panic's payload message) is
    /// recorded for [`Governor::take_stage_outcomes`], and an injected
    /// [`Fault::CrashAfter`] aborts the process once the body has
    /// finished — the crash-injection hook of the kill-and-resume
    /// harness.
    ///
    /// `AssertUnwindSafe` is sound here because every stage body either
    /// owns its inputs or only reads shared state; on unwind the flow
    /// aborts (or degrades) without reusing partially-mutated values.
    pub fn run_stage<T>(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&CancelToken) -> Result<T, crate::flow::LockError>,
    ) -> Result<T, crate::flow::LockError> {
        let token = self.stage_token(stage);
        let inject_panic = self.budget.fault_plan.has(stage, Fault::Panic);
        let out = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: panic at stage {stage}");
            }
            body(&token)
        }))
        .unwrap_or_else(|payload| {
            // `&*payload`, not `&payload`: the latter would make the Box
            // itself the `dyn Any` and every downcast would miss.
            Err(crate::flow::LockError::StagePanic { stage, message: panic_message(&*payload) })
        });
        let status = match &out {
            Ok(_) => StageStatus::Ok,
            Err(crate::flow::LockError::StagePanic { message, .. }) => {
                StageStatus::Panicked(message.clone())
            }
            Err(e) => StageStatus::Failed(e.to_string()),
        };
        self.stage_outcomes.push(StageOutcome { stage, status });
        if self.budget.fault_plan.has(stage, Fault::CrashAfter) {
            eprintln!("injected fault: crash after stage {stage}");
            std::process::abort();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::LockError;

    #[test]
    fn stage_names_are_stable_and_unique() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Stage::ALL.len());
        assert_eq!(format!("{}", Stage::ScanLock), "scan_lock");
    }

    #[test]
    fn fault_plan_lookup() {
        let plan = FaultPlan::none()
            .inject(Stage::Select, Fault::Timeout)
            .inject(Stage::Verify, Fault::Panic);
        assert_eq!(plan.fault_at(Stage::Select), Some(Fault::Timeout));
        assert!(plan.has(Stage::Verify, Fault::Panic));
        assert_eq!(plan.fault_at(Stage::Database), None);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(FaultPlan::seeded(7), FaultPlan::seeded(7));
        // Over a seed range, every fault kind shows up (coverage of the
        // selection logic, not a statistical claim).
        let kinds: std::collections::HashSet<_> =
            (0..64u64).filter_map(|s| FaultPlan::seeded(s).injections.first().map(|&(_, f)| f)).collect();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn run_stage_catches_real_panics() {
        let mut gov = Governor::start(RunBudget::unlimited());
        let out: Result<(), _> = gov.run_stage(Stage::Transform, |_| panic!("boom {}", 42));
        match out {
            Err(LockError::StagePanic { stage, message }) => {
                assert_eq!(stage, Stage::Transform);
                assert!(message.contains("boom 42"), "{message}");
            }
            other => panic!("expected StagePanic, got {other:?}"),
        }
    }

    #[test]
    fn run_stage_injects_panics_inside_the_guard() {
        let budget =
            RunBudget::unlimited().with_faults(FaultPlan::none().inject(Stage::Database, Fault::Panic));
        let mut gov = Governor::start(budget);
        let out = gov.run_stage(Stage::Database, |_| Ok(1));
        assert!(
            matches!(out, Err(LockError::StagePanic { stage: Stage::Database, .. })),
            "got {out:?}"
        );
        // Other stages are unaffected.
        assert_eq!(gov.run_stage(Stage::Select, |_| Ok(2)).unwrap(), 2);
    }

    #[test]
    fn injected_timeout_expires_stage_token_immediately() {
        let budget =
            RunBudget::unlimited().with_faults(FaultPlan::none().inject(Stage::Select, Fault::Timeout));
        let gov = Governor::start(budget);
        assert!(gov.stage_token(Stage::Select).should_stop().is_some());
        assert!(gov.stage_token(Stage::Verify).should_stop().is_none());
    }

    #[test]
    fn stage_token_combines_run_and_stage_deadlines() {
        let budget = RunBudget::with_wall_clock(Duration::from_secs(3600))
            .stage_timeout(Stage::Verify, Duration::ZERO);
        let gov = Governor::start(budget);
        assert!(gov.run_token().should_stop().is_none());
        assert!(gov.stage_token(Stage::Verify).should_stop().is_some());
        assert!(gov.stage_token(Stage::Database).should_stop().is_none());
        // Cancelling the run fires every stage token.
        gov.run_token().cancel();
        assert!(gov.stage_token(Stage::Database).should_stop().is_some());
    }

    #[test]
    fn transient_faults_burn_one_charge_per_start() {
        let plan = FaultPlan::none().inject_transient(Stage::Verify, Fault::Panic, 2);
        let budget = RunBudget::unlimited().with_faults(plan);
        // First two governed runs see the fault; the third does not. The
        // cloned budgets share the charge counter.
        for expect_fault in [true, true, false] {
            let mut gov = Governor::start(budget.clone());
            let out = gov.run_stage(Stage::Verify, |_| Ok(()));
            assert_eq!(
                matches!(out, Err(LockError::StagePanic { .. })),
                expect_fault,
                "got {out:?}"
            );
        }
    }

    #[test]
    fn resolve_folds_transients_into_static_injections() {
        let plan = FaultPlan::none()
            .inject(Stage::Select, Fault::Timeout)
            .inject_transient(Stage::Verify, Fault::EmptyResult, 1);
        let first = plan.resolve();
        assert!(first.has(Stage::Select, Fault::Timeout));
        assert!(first.has(Stage::Verify, Fault::EmptyResult));
        let second = plan.resolve();
        assert!(second.has(Stage::Select, Fault::Timeout), "static injections persist");
        assert_eq!(second.fault_at(Stage::Verify), None, "charge exhausted");
    }

    #[test]
    fn seeded_plans_never_draw_crash_after() {
        // CrashAfter aborts the whole process; a seeded chaos plan must
        // never pick it.
        for seed in 0..256u64 {
            let plan = FaultPlan::seeded(seed);
            for stage in Stage::ALL {
                assert_ne!(plan.fault_at(stage), Some(Fault::CrashAfter), "seed {seed}");
            }
        }
    }

    #[test]
    fn stage_outcomes_record_status_and_panic_payload() {
        let budget =
            RunBudget::unlimited().with_faults(FaultPlan::none().inject(Stage::Verify, Fault::Panic));
        let mut gov = Governor::start(budget);
        let _ = gov.run_stage(Stage::Elaborate, |_| Ok(1));
        let _: Result<(), _> =
            gov.run_stage(Stage::Select, |_| Err(LockError::SelectionInfeasible));
        let _ = gov.run_stage(Stage::Verify, |_| Ok(2));
        let outcomes = gov.take_stage_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].status, StageStatus::Ok);
        assert!(matches!(&outcomes[1].status, StageStatus::Failed(m) if m.contains("infeasible")));
        match &outcomes[2].status {
            StageStatus::Panicked(m) => {
                assert!(m.contains("injected fault: panic at stage verify"), "{m}")
            }
            other => panic!("expected panic payload, got {other:?}"),
        }
        assert!(gov.take_stage_outcomes().is_empty(), "drained");
    }

    #[test]
    fn degradations_accumulate_and_drain() {
        let mut gov = Governor::start(RunBudget::unlimited());
        gov.degrade(Stage::Select, "greedy fallback");
        gov.degrade(Stage::Verify, "partial cycles");
        let d = gov.take_degradations();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].stage, Stage::Select);
        assert!(gov.take_degradations().is_empty());
    }
}
