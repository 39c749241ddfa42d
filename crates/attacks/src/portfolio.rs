//! Deterministic portfolio attack: run the attack suite in priority
//! order, keep the first decisive verdict.
//!
//! A portfolio runs several attacks on the same locked design under one
//! budget and reports the highest-priority decisive answer:
//!
//! * Members are listed in **priority order** (index 0 strongest claim).
//! * A member **resolves** when it produces a decisive break — a recovered
//!   key, a successful point-function removal, or a feasible bypass.
//!   Timeouts, infeasibility and foiled analyses do not resolve.
//! * The **winner** is the lowest-index member that resolved. Members at
//!   higher indices never run and are reported as
//!   [`MemberOutcome::Skipped`].
//! * Members at indices *below* the winner ran to their natural outcomes,
//!   which appear in the verdict.
//!
//! The verdict depends only on the member outcomes, so
//! [`PortfolioVerdict::canonical`] is identical at every thread count of
//! the catalog that calls [`portfolio_attack_sequential`] — which the
//! determinism suite asserts through the catalog report. Wall-clock
//! fields (`elapsed`) are excluded from the canonical form; callers that
//! want determinism must also budget members by iteration counts, not
//! timeouts.

use crate::bmc_attack::{bmc_attack, BmcConfig};
use crate::bypass::{bypass_estimate, BypassEstimate};
use crate::removal::{removal_attack, RemovalOutcome};
use crate::sat_attack::{sat_attack, AttackConfig, AttackOutcome};
use rtlock_artifacts::ArtifactStore;
use rtlock_governor::CancelToken;
use rtlock_netlist::Netlist;
use std::fmt::Write as _;
use std::sync::Arc;

/// One attack in the portfolio, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioMember {
    /// Oracle-guided SAT attack on the combinational scan view.
    Sat,
    /// Oracle-guided BMC attack on the sequential surface.
    Bmc,
    /// SPS removal analysis on the combinational scan view.
    Removal,
    /// Bypass feasibility estimate on the combinational scan view.
    Bypass,
}

impl PortfolioMember {
    /// Stable lower-case name used in the canonical verdict form.
    pub fn name(&self) -> &'static str {
        match self {
            PortfolioMember::Sat => "sat",
            PortfolioMember::Bmc => "bmc",
            PortfolioMember::Removal => "removal",
            PortfolioMember::Bypass => "bypass",
        }
    }
}

/// The attack surfaces a portfolio run can reach. Mirrors
/// `AttackSurface` in the core flow: scan access yields combinational
/// views, locked scan leaves only the sequential netlists.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioTarget<'a> {
    /// Combinational full-scan views `(locked, original)`, if scan access
    /// is available.
    pub comb: Option<(&'a Netlist, &'a Netlist)>,
    /// Sequential netlists `(locked, original)` for BMC, if available.
    pub seq: Option<(&'a Netlist, &'a Netlist)>,
}

/// Portfolio configuration: member list (priority order) plus per-member
/// budgets. For deterministic verdicts budget by iterations, not wall
/// clock.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Members to run, strongest claim first.
    pub members: Vec<PortfolioMember>,
    /// SAT attack limits. Its `cancel` field is overridden by the
    /// portfolio's per-member child token.
    pub sat: AttackConfig,
    /// BMC attack limits. Its `cancel` field is likewise overridden.
    pub bmc: BmcConfig,
    /// Simulation rounds (×64 patterns) for removal and bypass analyses.
    pub sim_samples: usize,
    /// Skew threshold for removal candidate selection.
    pub skew_threshold: f64,
    /// Residual error tolerated by a removal "recovery".
    pub removal_tolerance: f64,
    /// Seed for the simulation-based members.
    pub seed: u64,
    /// Artifact cache handed to members that encode CNF (currently the
    /// SAT attack, unless its own `sat.cache` is already set). Verdicts
    /// are byte-identical with or without it.
    pub cache: Option<Arc<ArtifactStore>>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            members: vec![
                PortfolioMember::Sat,
                PortfolioMember::Bmc,
                PortfolioMember::Removal,
                PortfolioMember::Bypass,
            ],
            sat: AttackConfig::default(),
            bmc: BmcConfig::default(),
            sim_samples: 8,
            skew_threshold: 0.45,
            removal_tolerance: 0.0,
            seed: 0xD15_EA5E,
            cache: None,
        }
    }
}

/// What one portfolio member reported.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberOutcome {
    /// A SAT or BMC attack outcome.
    Attack(AttackOutcome),
    /// A removal analysis outcome.
    Removal(RemovalOutcome),
    /// A bypass feasibility estimate.
    Bypass(BypassEstimate),
    /// The surface this member needs is not part of the target.
    Unavailable(String),
    /// Never started because a higher-priority member resolved first.
    Skipped,
}

impl MemberOutcome {
    /// The canonical text rendering used inside
    /// [`PortfolioVerdict::canonical`] — wall-clock free and stable.
    pub fn canonical(&self) -> String {
        canonical_outcome(self)
    }
}

/// The combined, scheduling-independent result of a portfolio run.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioVerdict {
    /// Index (into `outcomes`) of the lowest-priority-number member that
    /// resolved, if any.
    pub winner: Option<usize>,
    /// Whether the design was broken (some member resolved).
    pub broken: bool,
    /// The recovered key, when the winner produced one.
    pub key: Option<Vec<bool>>,
    /// Per-member outcomes in priority order; members after the winner
    /// are [`MemberOutcome::Skipped`].
    pub outcomes: Vec<(PortfolioMember, MemberOutcome)>,
}

impl PortfolioVerdict {
    /// A canonical text rendering excluding every wall-clock field, so two
    /// runs with identical member outcomes serialize identically no matter
    /// how they were scheduled.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        match self.winner {
            Some(w) => {
                let _ = writeln!(s, "winner: {} ({})", w, self.outcomes[w].0.name());
            }
            None => s.push_str("winner: none\n"),
        }
        let _ = writeln!(s, "broken: {}", self.broken);
        match &self.key {
            Some(k) => {
                let _ = writeln!(s, "key: {}", bits(k));
            }
            None => s.push_str("key: -\n"),
        }
        for (m, o) in &self.outcomes {
            let _ = writeln!(s, "{}: {}", m.name(), canonical_outcome(o));
        }
        s
    }
}

fn bits(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn canonical_outcome(o: &MemberOutcome) -> String {
    match o {
        // Attack outcomes render through [`AttackOutcome::canonical`],
        // which surfaces the deterministic counters (oracle queries,
        // simulated patterns, accepted/rejected DIPs) and excludes every
        // wall-clock field by construction.
        MemberOutcome::Attack(a) => a.canonical(),
        MemberOutcome::Removal(RemovalOutcome::Recovered { gate, error_rate }) => {
            format!("removal-recovered(gate={}, error_rate={error_rate:.6})", gate.index())
        }
        MemberOutcome::Removal(RemovalOutcome::Foiled { tried, best_error_rate }) => {
            format!("removal-foiled(tried={tried}, best_error_rate={best_error_rate:.6})")
        }
        MemberOutcome::Bypass(est) => format!(
            "bypass(corrupted_fraction={:.6}, feasible={})",
            est.corrupted_fraction, est.feasible
        ),
        MemberOutcome::Unavailable(reason) => format!("unavailable({reason})"),
        MemberOutcome::Skipped => "skipped".into(),
    }
}

/// Whether an outcome is a decisive break (see the module docs).
fn resolves(o: &MemberOutcome) -> bool {
    match o {
        MemberOutcome::Attack(AttackOutcome::KeyFound { .. }) => true,
        MemberOutcome::Removal(RemovalOutcome::Recovered { .. }) => true,
        MemberOutcome::Bypass(est) => est.feasible,
        _ => false,
    }
}

fn outcome_key(o: &MemberOutcome) -> Option<Vec<bool>> {
    match o {
        MemberOutcome::Attack(AttackOutcome::KeyFound { key, .. }) => Some(key.clone()),
        _ => None,
    }
}

/// Runs one member to its natural completion under `token`.
fn run_member(
    member: PortfolioMember,
    target: &PortfolioTarget<'_>,
    config: &PortfolioConfig,
    token: &CancelToken,
) -> MemberOutcome {
    match member {
        PortfolioMember::Sat => match target.comb {
            Some((locked, original)) => {
                let cfg = AttackConfig {
                    cancel: Some(token.clone()),
                    cache: config.sat.cache.clone().or_else(|| config.cache.clone()),
                    ..config.sat.clone()
                };
                MemberOutcome::Attack(sat_attack(locked, original, &cfg))
            }
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
        PortfolioMember::Bmc => match target.seq {
            Some((locked, original)) => {
                let cfg = BmcConfig { cancel: Some(token.clone()), ..config.bmc.clone() };
                MemberOutcome::Attack(bmc_attack(locked, original, &cfg))
            }
            None => MemberOutcome::Unavailable("no sequential surface".into()),
        },
        PortfolioMember::Removal => match target.comb {
            Some((locked, original)) => MemberOutcome::Removal(removal_attack(
                locked,
                original,
                config.skew_threshold,
                config.removal_tolerance,
                config.sim_samples,
                config.seed,
            )),
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
        PortfolioMember::Bypass => match target.comb {
            Some((locked, original)) => {
                if locked.key_inputs.is_empty() {
                    return MemberOutcome::Unavailable("no key inputs".into());
                }
                let wrong_key = vec![false; locked.key_inputs.len()];
                MemberOutcome::Bypass(bypass_estimate(
                    locked,
                    original,
                    &wrong_key,
                    config.sim_samples,
                    config.seed,
                ))
            }
            None => MemberOutcome::Unavailable("no combinational scan view".into()),
        },
    }
}

fn assemble_verdict(
    members: &[PortfolioMember],
    outcomes: Vec<MemberOutcome>,
    winner: Option<usize>,
) -> PortfolioVerdict {
    let key = winner.and_then(|w| outcome_key(&outcomes[w]));
    PortfolioVerdict {
        winner,
        broken: winner.is_some(),
        key,
        outcomes: members.iter().copied().zip(outcomes).collect(),
    }
}

/// Runs the members of `config.members` in priority order, each under
/// its own child of `token`, and stops at the first resolution (see the
/// module docs).
pub fn portfolio_attack_sequential(
    target: &PortfolioTarget<'_>,
    config: &PortfolioConfig,
    token: &CancelToken,
) -> PortfolioVerdict {
    let mut outcomes = Vec::with_capacity(config.members.len());
    let mut winner = None;
    for (i, &member) in config.members.iter().enumerate() {
        if winner.is_some() {
            outcomes.push(MemberOutcome::Skipped);
            continue;
        }
        let outcome = run_member(member, target, config, &token.child());
        if resolves(&outcome) {
            winner = Some(i);
        }
        outcomes.push(outcome);
    }
    assemble_verdict(&config.members, outcomes, winner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::GateKind;

    /// y = (a & b) ^ (c | d) locked with two XOR/XNOR key gates — breakable
    /// by the SAT attack, foiled removal, infeasible bypass.
    fn comb_pair(key: &[bool]) -> (Netlist, Netlist) {
        let mut orig = Netlist::new("orig");
        let a = orig.add_input("a");
        let b = orig.add_input("b");
        let c = orig.add_input("c");
        let d = orig.add_input("d");
        let ab = orig.add_gate(GateKind::And, vec![a, b]);
        let cd = orig.add_gate(GateKind::Or, vec![c, d]);
        let y = orig.add_gate(GateKind::Xor, vec![ab, cd]);
        orig.add_output("y", y);

        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a");
        let b = locked.add_input("b");
        let c = locked.add_input("c");
        let d = locked.add_input("d");
        let k0 = locked.add_input("keyinput0");
        locked.mark_key_input(k0);
        let k1 = locked.add_input("keyinput1");
        locked.mark_key_input(k1);
        let ab = locked.add_gate(GateKind::And, vec![a, b]);
        let ab_l = if key[0] {
            locked.add_gate(GateKind::Xnor, vec![ab, k0])
        } else {
            locked.add_gate(GateKind::Xor, vec![ab, k0])
        };
        let cd = locked.add_gate(GateKind::Or, vec![c, d]);
        let cd_l = if key[1] {
            locked.add_gate(GateKind::Xnor, vec![cd, k1])
        } else {
            locked.add_gate(GateKind::Xor, vec![cd, k1])
        };
        let y = locked.add_gate(GateKind::Xor, vec![ab_l, cd_l]);
        locked.add_output("y", y);
        (locked, orig)
    }

    fn quick_config() -> PortfolioConfig {
        PortfolioConfig {
            sat: AttackConfig { max_iterations: 1_000, ..AttackConfig::default() },
            sim_samples: 4,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn sat_wins_on_a_breakable_combinational_target() {
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let verdict =
            portfolio_attack_sequential(&target, &cfg, &CancelToken::unlimited());
        assert!(verdict.broken);
        assert_eq!(verdict.winner, Some(0));
        // The two-XOR locking admits complement key pairs, so check the
        // recovered key functionally instead of bit-for-bit.
        let key = verdict.key.as_deref().expect("winner recovered a key");
        assert_eq!(crate::sat_attack::key_accuracy(&locked, &orig, key, 64, 7), 1.0);
        // Everything after the winner is skipped.
        for (_, o) in &verdict.outcomes[1..] {
            assert_eq!(*o, MemberOutcome::Skipped);
        }
    }

    #[test]
    fn no_surface_means_nothing_resolves() {
        let target = PortfolioTarget { comb: None, seq: None };
        let cfg = quick_config();
        let verdict = portfolio_attack_sequential(&target, &cfg, &CancelToken::unlimited());
        assert!(!verdict.broken);
        assert_eq!(verdict.winner, None);
        assert!(verdict
            .outcomes
            .iter()
            .all(|(_, o)| matches!(o, MemberOutcome::Unavailable(_))));
    }

    #[test]
    fn run_wide_cancellation_reaches_every_member() {
        // Key [true, false]: the all-false bypass probe key fully corrupts
        // the output, so no simulation-only member can trivially resolve.
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let token = CancelToken::unlimited();
        token.cancel();
        let verdict = portfolio_attack_sequential(&target, &cfg, &token);
        assert!(!verdict.broken, "cancelled run must not claim a break: {verdict:?}");
        assert!(matches!(
            verdict.outcomes[0].1,
            MemberOutcome::Attack(AttackOutcome::TimedOut { .. })
        ));
    }

    #[test]
    fn canonical_form_contains_no_wall_clock() {
        let (locked, orig) = comb_pair(&[true, false]);
        let target = PortfolioTarget { comb: Some((&locked, &orig)), seq: None };
        let cfg = quick_config();
        let verdict = portfolio_attack_sequential(&target, &cfg, &CancelToken::unlimited());
        let canon = verdict.canonical();
        assert!(!canon.contains("elapsed"), "{canon}");
        assert!(canon.starts_with("winner: "), "{canon}");
    }
}
