//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015 — \[4\]/\[38\]
//! in the paper).
//!
//! Finds the locking key of a *combinational* (scan-accessible) locked
//! circuit by iteratively discovering distinguishing input patterns (DIPs):
//! a miter of two key-differentiated copies yields an input on which some
//! pair of keys disagrees; the oracle's answer for that input rules out all
//! keys in the wrong equivalence class. When no DIP remains, any key
//! consistent with the accumulated I/O constraints is functionally correct.
//!
//! Sequential circuits must be attacked through their scan view
//! ([`rtlock_synth::scan_view`]); if flip-flops remain (partial scan or
//! locked scan access), the attack refuses — exactly the protection RTLock's
//! scan locking provides.

use crate::oracle::CombOracle;
use rtlock_artifacts::{encode_comb_cached, ArtifactStore};
use rtlock_governor::{CancelToken, Deadline};
use rtlock_netlist::{CnfBuilder, GateId, Netlist};
use rtlock_sat::{Budget, Lit, SatBackend, SolveResult, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attack resource limits.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Maximum number of DIP iterations.
    pub max_iterations: usize,
    /// Wall-clock limit for the whole attack.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation: a fired token stops the attack at the next
    /// solver restart or DIP boundary with [`AttackOutcome::TimedOut`].
    /// This is how a portfolio run interrupts a losing attack mid-solve.
    pub cancel: Option<CancelToken>,
    /// Content-addressed artifact cache for the Tseitin encodings the
    /// attack re-derives on every circuit copy (two miter copies plus two
    /// per DIP). A hit replays the exact clause list and variable numbering
    /// a direct encode would produce, so the attack outcome is identical
    /// with or without the cache. `None` encodes directly.
    pub cache: Option<Arc<ArtifactStore>>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig { max_iterations: 10_000, timeout: None, cancel: None, cache: None }
    }
}

/// The token an attack polls: its cancel token tightened to its
/// wall-clock timeout, or a pure deadline token without one.
pub(crate) fn stop_token(cancel: Option<&CancelToken>, timeout: Option<Duration>) -> CancelToken {
    let deadline = Deadline::within(timeout);
    match cancel {
        Some(t) => t.tightened(deadline),
        None => CancelToken::with_deadline(deadline),
    }
}

/// Counters an attack accumulates while it runs.
///
/// The counter fields (`oracle_queries`, `patterns_simulated`,
/// `dips_accepted`, `dips_rejected`) are deterministic for a given attack
/// configuration — identical across worker counts, cache modes and reruns
/// — and so are safe to surface in canonical (journaled, diffable)
/// renderings. `round_wall_clock` is wall-clock telemetry and must stay
/// out of every canonical form, like `elapsed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackStats {
    /// Oracle invocations: one per distinguishing input pattern (or, for
    /// BMC, per distinguishing input sequence).
    pub oracle_queries: usize,
    /// Input patterns evaluated by bit-parallel simulation. No attack
    /// simulates patterns, so this reads 0 everywhere. It stays because
    /// campaign journals store canonical bodies verbatim: dropping it from
    /// the `simulated=…` fragment would change the journal format.
    pub patterns_simulated: usize,
    /// Distinguishing patterns whose I/O constraints entered the miter.
    pub dips_accepted: usize,
    /// Candidate patterns discarded before entering the miter. Every
    /// attack accepts each pattern it mines, so this reads 0 everywhere;
    /// it stays in the `dips=A+R` fragment for the same journal-format
    /// reason as `patterns_simulated`.
    pub dips_rejected: usize,
    /// Wall-clock time of each DIP round, in round order. Telemetry only:
    /// never part of canonical renderings.
    pub round_wall_clock: Vec<Duration>,
}

impl AttackStats {
    /// Folds another attack's counters into this one (partitioned attacks
    /// report the aggregate); round wall clocks concatenate in order.
    pub fn absorb(&mut self, other: &AttackStats) {
        self.oracle_queries += other.oracle_queries;
        self.patterns_simulated += other.patterns_simulated;
        self.dips_accepted += other.dips_accepted;
        self.dips_rejected += other.dips_rejected;
        self.round_wall_clock.extend(other.round_wall_clock.iter().copied());
    }

    /// The deterministic counters as a canonical fragment. Excludes every
    /// wall-clock field by construction.
    pub fn canonical(&self) -> String {
        format!(
            "queries={}, simulated={}, dips={}+{}",
            self.oracle_queries, self.patterns_simulated, self.dips_accepted, self.dips_rejected
        )
    }
}

/// Result of an attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// A functionally correct key was recovered.
    KeyFound {
        /// Recovered key bits, in `key_inputs` order.
        key: Vec<bool>,
        /// DIP iterations used.
        iterations: usize,
        /// Wall-clock time spent.
        elapsed: Duration,
        /// Deterministic counters plus per-round telemetry.
        stats: AttackStats,
    },
    /// The budget ran out first (counts as "not broken" in Table III).
    TimedOut {
        /// DIP iterations completed.
        iterations: usize,
        /// Wall-clock time spent.
        elapsed: Duration,
        /// Deterministic counters plus per-round telemetry.
        stats: AttackStats,
    },
    /// The attack does not apply (no key inputs, or sequential elements
    /// without scan access).
    Infeasible {
        /// Why the attack cannot run.
        reason: String,
    },
    /// The attack machinery itself failed — e.g. the SAT model lacked an
    /// assignment for a variable the attack must read. Unlike
    /// [`AttackOutcome::Infeasible`] this indicates a bug or an
    /// inconsistent encoding, never a property of the target, so callers
    /// must not score it as "resisted".
    Error {
        /// What went wrong.
        reason: String,
    },
}

impl AttackOutcome {
    /// The recovered key, if any.
    pub fn key(&self) -> Option<&[bool]> {
        match self {
            AttackOutcome::KeyFound { key, .. } => Some(key),
            _ => None,
        }
    }

    /// The attack statistics, if this outcome carries them.
    pub fn stats(&self) -> Option<&AttackStats> {
        match self {
            AttackOutcome::KeyFound { stats, .. } | AttackOutcome::TimedOut { stats, .. } => {
                Some(stats)
            }
            _ => None,
        }
    }

    /// Canonical wall-clock-free rendering: everything about the outcome
    /// that is deterministic for a fixed attack configuration (key bits,
    /// iteration count, deterministic counters) and nothing that is not
    /// (`elapsed`, per-round wall clock). Two runs of the same attack at
    /// different worker counts must render identically — this is the
    /// string the parallel-determinism suite pins.
    pub fn canonical(&self) -> String {
        match self {
            AttackOutcome::KeyFound { key, iterations, stats, .. } => {
                let bits: String = key.iter().map(|&b| if b { '1' } else { '0' }).collect();
                format!("key-found(key={bits}, iterations={iterations}, {})", stats.canonical())
            }
            AttackOutcome::TimedOut { iterations, stats, .. } => {
                format!("timed-out(iterations={iterations}, {})", stats.canonical())
            }
            AttackOutcome::Infeasible { reason } => format!("infeasible({reason})"),
            AttackOutcome::Error { reason } => format!("error({reason})"),
        }
    }
}

/// Runs the SAT attack on `locked` (combinational, key inputs marked)
/// against an oracle built from the unlocked `original` netlist.
///
/// Input and output correspondence is by name: every non-key input and
/// every output of `locked` must exist in `original`.
pub fn sat_attack(locked: &Netlist, original: &Netlist, config: &AttackConfig) -> AttackOutcome {
    sat_attack_with::<Solver>(locked, original, config)
}

/// [`sat_attack`] parameterized over the solver backend. The attack loop,
/// miter encoding and DIP schedule are identical for every backend; only
/// the solving engine differs — which is what lets the bench harness
/// demand identical recovered keys from the arena core and the frozen
/// [`rtlock_sat::baseline`] solver while timing both.
pub fn sat_attack_with<S: SatBackend>(
    locked: &Netlist,
    original: &Netlist,
    config: &AttackConfig,
) -> AttackOutcome {
    let start = Instant::now();
    let mut oracle = CombOracle::new(original);
    let problem = match AttackProblem::build(locked, &oracle) {
        Ok(p) => p,
        Err(outcome) => return outcome,
    };
    let mut cnf = CnfBuilder::new();
    let mut solver = S::new();
    let mut drained = 0usize;
    let cache = config.cache.as_deref();
    let token = stop_token(config.cancel.as_ref(), config.timeout);

    // Shared x variables and two key copies.
    let x_vars: Vec<i32> = problem.data_inputs.iter().map(|_| cnf.fresh_var()).collect();
    let k1: Vec<i32> = locked.key_inputs.iter().map(|_| cnf.fresh_var()).collect();
    let k2: Vec<i32> = locked.key_inputs.iter().map(|_| cnf.fresh_var()).collect();

    let vars1 =
        encode_comb_cached(cache, &mut cnf, locked, &problem.assemble(&k1, &x_vars), &[], &token);
    let vars2 =
        encode_comb_cached(cache, &mut cnf, locked, &problem.assemble(&k2, &x_vars), &[], &token);

    // Miter: some output differs — guarded by an activation literal so the
    // final key-extraction solve can drop it.
    let mut diffs = Vec::new();
    for (_, drv) in locked.outputs() {
        let d = cnf.xor_lit(vars1[drv.index()], vars2[drv.index()]);
        diffs.push(d);
    }
    let any_diff = cnf.or_lit(&diffs);
    let act = cnf.fresh_var();
    cnf.add_clause(&[-act, any_diff]);

    sync(&cnf, &mut solver, &mut drained);

    let mut iterations = 0usize;
    let mut stats = AttackStats::default();
    let mut round_start = Instant::now();
    loop {
        solver.set_budget(Budget::cancellable(&token));
        let res = solver.solve(&[Lit::from_dimacs(act)]);
        match res {
            SolveResult::Unknown => {
                return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
            }
            SolveResult::Unsat => {
                // No DIP left: any consistent key is correct.
                match solver.solve(&[]) {
                    SolveResult::Sat => {}
                    // Budget/cancel fired during key extraction: this is
                    // exhaustion, not a property of the target — reporting
                    // it as Infeasible would let a retry supervisor treat
                    // a slow run as a permanent miter defect.
                    SolveResult::Unknown => {
                        return AttackOutcome::TimedOut {
                            iterations,
                            elapsed: start.elapsed(),
                            stats,
                        };
                    }
                    SolveResult::Unsat => {
                        return AttackOutcome::Infeasible {
                            reason: "I/O constraints inconsistent (oracle/netlist mismatch?)".into(),
                        };
                    }
                }
                let key = match model_bits(&solver, &k1) {
                    Ok(bits) => bits,
                    Err(missing) => {
                        return AttackOutcome::Error {
                            reason: format!(
                                "SAT model lacks an assignment for key bit {missing}; \
                                 refusing to fabricate key bits"
                            ),
                        }
                    }
                };
                return AttackOutcome::KeyFound { key, iterations, elapsed: start.elapsed(), stats };
            }
            SolveResult::Sat => {
                iterations += 1;
                if iterations > config.max_iterations {
                    return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
                }
                // Extract the DIP and ask the oracle.
                let dip = match model_bits(&solver, &x_vars) {
                    Ok(bits) => bits,
                    Err(missing) => {
                        return AttackOutcome::Error {
                            reason: format!(
                                "SAT model lacks an assignment for DIP input {missing}; \
                                 refusing to fabricate a distinguishing pattern"
                            ),
                        }
                    }
                };
                let answer = oracle.query_bits(&problem.bind_pattern(&dip));
                stats.oracle_queries += 1;

                // Constrain both key copies to produce the oracle's answer
                // on this DIP, using two fresh circuit copies.
                for keys in [&k1, &k2] {
                    encode_dip_constraint(
                        &mut cnf, cache, &problem, keys, &dip, &answer, &token,
                    );
                }
                stats.dips_accepted += 1;
                stats.round_wall_clock.push(round_start.elapsed());
                round_start = Instant::now();
                sync(&cnf, &mut solver, &mut drained);
            }
        }
        if token.should_stop().is_some() {
            return AttackOutcome::TimedOut { iterations, elapsed: start.elapsed(), stats };
        }
    }
}

/// One locked-input slot: where the literal for that input position comes
/// from when a circuit copy is assembled.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// `key_inputs[i]` — take the i-th literal of the key vector.
    Key(usize),
    /// The i-th data (non-key) input — take the i-th x/pattern literal.
    Data(usize),
}

/// Everything about a locked/original pair the attack resolves *once*:
/// input partition, the input→slot table every circuit copy is assembled
/// through (replacing the old O(inputs × key_bits) `position()` scans per
/// copy), and the index-based oracle binding (replacing the per-DIP
/// name-map rescan).
pub(crate) struct AttackProblem<'n> {
    pub(crate) locked: &'n Netlist,
    /// Non-key inputs of `locked`, in input order.
    pub(crate) data_inputs: Vec<GateId>,
    /// Per locked output: does the oracle share it (by name)?
    pub(crate) shared_outputs: Vec<bool>,
    /// Per locked input position: key index or data index.
    pub(crate) slots: Vec<Slot>,
    /// Per data input: the oracle-side input id, if the oracle knows it
    /// (scan controls and the like exist only on the locked design).
    pub(crate) oracle_bind: Vec<Option<GateId>>,
    /// Per locked output: position in the oracle's answer vector.
    pub(crate) answer_pos: Vec<Option<usize>>,
}

impl<'n> AttackProblem<'n> {
    /// Resolves the problem structure, or the `Infeasible` outcome that
    /// explains why the attack cannot run.
    pub(crate) fn build(
        locked: &'n Netlist,
        oracle: &CombOracle<'_>,
    ) -> Result<AttackProblem<'n>, AttackOutcome> {
        if locked.key_inputs.is_empty() {
            return Err(AttackOutcome::Infeasible { reason: "no key inputs".into() });
        }
        if !locked.dffs().is_empty() {
            return Err(AttackOutcome::Infeasible {
                reason: "sequential elements without scan access; SAT attack requires full scan"
                    .into(),
            });
        }
        let data_inputs: Vec<GateId> =
            locked.inputs().iter().copied().filter(|g| !locked.key_inputs.contains(g)).collect();
        // Inputs the oracle does not know (scan controls and the like,
        // present only on the locked design) are still attacker-controlled
        // variables; they are simply not forwarded to the oracle. Likewise
        // only outputs the oracle shares are constrained by its answers.
        let shared_outputs: Vec<bool> = locked
            .outputs()
            .iter()
            .map(|(name, _)| oracle.netlist().outputs().iter().any(|(n, _)| n == name))
            .collect();
        if !shared_outputs.iter().any(|&s| s) {
            return Err(AttackOutcome::Infeasible {
                reason: "no outputs shared with the oracle".into(),
            });
        }
        let key_pos: std::collections::HashMap<GateId, usize> =
            locked.key_inputs.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let data_pos: std::collections::HashMap<GateId, usize> =
            data_inputs.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let slots: Vec<Slot> = locked
            .inputs()
            .iter()
            .map(|g| match key_pos.get(g) {
                Some(&ki) => Slot::Key(ki),
                None => Slot::Data(data_pos[g]),
            })
            .collect();
        let oracle_bind: Vec<Option<GateId>> = data_inputs
            .iter()
            .map(|&g| locked.gate_name(g).and_then(|n| oracle.input_id(n)))
            .collect();
        let answer_pos: Vec<Option<usize>> =
            locked.outputs().iter().map(|(name, _)| oracle.output_position(name)).collect();
        Ok(AttackProblem { locked, data_inputs, shared_outputs, slots, oracle_bind, answer_pos })
    }

    /// Literal vector for one circuit copy: `keys` for key positions, `xs`
    /// for data positions, via the precomputed slot table.
    pub(crate) fn assemble(&self, keys: &[i32], xs: &[i32]) -> Vec<i32> {
        self.slots
            .iter()
            .map(|s| match *s {
                Slot::Key(ki) => keys[ki],
                Slot::Data(xi) => xs[xi],
            })
            .collect()
    }

    /// The oracle assignment for a concrete data-input pattern.
    pub(crate) fn bind_pattern(&self, dip: &[bool]) -> Vec<(GateId, bool)> {
        self.oracle_bind
            .iter()
            .zip(dip)
            .filter_map(|(bind, &v)| bind.map(|g| (g, v)))
            .collect()
    }
}

/// Encodes one I/O constraint copy: a fresh circuit copy with inputs
/// hardwired to `dip` under key literals `keys`, with every shared output
/// asserted to the oracle's `answer`.
pub(crate) fn encode_dip_constraint(
    cnf: &mut CnfBuilder,
    cache: Option<&ArtifactStore>,
    problem: &AttackProblem<'_>,
    keys: &[i32],
    dip: &[bool],
    answer: &[bool],
    token: &CancelToken,
) {
    let xin: Vec<i32> = dip
        .iter()
        .map(|&v| {
            let var = cnf.fresh_var();
            cnf.assert_lit(if v { var } else { -var });
            var
        })
        .collect();
    let vars = encode_comb_cached(
        cache,
        cnf,
        problem.locked,
        &problem.assemble(keys, &xin),
        &[],
        token,
    );
    for (oi, (_, drv)) in problem.locked.outputs().iter().enumerate() {
        if !problem.shared_outputs[oi] {
            continue; // locked-only output: the oracle has no answer
        }
        let Some(ai) = problem.answer_pos[oi] else { continue };
        let lit = vars[drv.index()];
        cnf.assert_lit(if answer[ai] { lit } else { -lit });
    }
}

/// Reads the model values for `vars` (DIMACS numbering) after a
/// [`SolveResult::Sat`] answer. `Err(i)` reports the position of the first
/// variable the model does not assign — the caller must surface that as an
/// [`AttackOutcome::Error`], never substitute a default: a fabricated key
/// bit silently turns "attack machinery broke" into a plausible-looking
/// wrong key.
pub(crate) fn model_bits<S: SatBackend>(solver: &S, vars: &[i32]) -> Result<Vec<bool>, usize> {
    vars.iter()
        .enumerate()
        .map(|(i, &v)| solver.value(rtlock_sat::Var(v as u32 - 1)).ok_or(i))
        .collect()
}

/// Feeds the clauses `cnf` gained since the last call into `solver`;
/// `drained` counts the clauses already fed.
pub(crate) fn sync<S: SatBackend>(cnf: &CnfBuilder, solver: &mut S, drained: &mut usize) {
    solver.reserve_vars(cnf.num_vars());
    let clauses = cnf.clauses();
    for c in &clauses[*drained..] {
        solver.add_dimacs_clause(c);
    }
    *drained = clauses.len();
}

/// Hardwires a key into a locked netlist (no optimization).
///
/// # Panics
///
/// Panics if `key.len()` differs from the number of key inputs.
pub fn apply_key(locked: &Netlist, key: &[bool]) -> Netlist {
    assert_eq!(key.len(), locked.key_inputs.len(), "key length mismatch");
    let mut n = locked.clone();
    let kins = n.key_inputs.clone();
    for (&g, &v) in kins.iter().zip(key) {
        n.convert_input_to_const(g, v);
    }
    n
}

/// Checks a recovered key by random co-simulation of the keyed locked
/// netlist against the original: returns the fraction of matching output
/// bits over `patterns` random input vectors (1.0 = functionally
/// equivalent on the sample).
pub fn key_accuracy(locked: &Netlist, original: &Netlist, key: &[bool], patterns: usize, seed: u64) -> f64 {
    use rtlock_netlist::NetSim;
    let keyed = apply_key(locked, key);
    let mut oracle = CombOracle::new(original);
    let mut sim = NetSim::new(&keyed).expect("acyclic");
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut total = 0usize;
    let mut matching = 0usize;
    for _ in 0..patterns {
        let named: Vec<(String, bool)> = keyed
            .inputs()
            .iter()
            .map(|&g| (keyed.gate_name(g).unwrap_or("").to_owned(), next() & 1 == 1))
            .collect();
        for (&g, (_, v)) in keyed.inputs().iter().zip(&named) {
            sim.set_input(g, if *v { u64::MAX } else { 0 });
        }
        sim.eval_comb();
        let answer = oracle.query(&named);
        for ((name, drv), _) in keyed.outputs().iter().zip(0..) {
            let got = sim.value(*drv) & 1 == 1;
            let expect = answer.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(false);
            total += 1;
            matching += usize::from(got == expect);
        }
    }
    if total == 0 {
        1.0
    } else {
        matching as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::GateKind;

    /// y = (a & b) ^ (c | d), locked with XOR/XNOR key gates.
    fn build_pair(key: &[bool]) -> (Netlist, Netlist) {
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
        let mut keys = Vec::new();
        for i in 0..key.len() {
            let k = locked.add_input(format!("keyinput{i}"));
            locked.mark_key_input(k);
            keys.push(k);
        }
        let ab = locked.add_gate(GateKind::And, vec![a, b]);
        // Key gate 0 on ab: XOR if key bit 0 else XNOR.
        let ab_l = if key[0] {
            locked.add_gate(GateKind::Xnor, vec![ab, keys[0]])
        } else {
            locked.add_gate(GateKind::Xor, vec![ab, keys[0]])
        };
        let cd = locked.add_gate(GateKind::Or, vec![c, d]);
        let cd_l = if key.len() > 1 {
            if key[1] {
                locked.add_gate(GateKind::Xnor, vec![cd, keys[1]])
            } else {
                locked.add_gate(GateKind::Xor, vec![cd, keys[1]])
            }
        } else {
            cd
        };
        let y = locked.add_gate(GateKind::Xor, vec![ab_l, cd_l]);
        locked.add_output("y", y);
        (locked, orig)
    }

    #[test]
    fn recovers_two_bit_key() {
        for key in [[false, false], [false, true], [true, false], [true, true]] {
            let (locked, orig) = build_pair(&key);
            let out = sat_attack(&locked, &orig, &AttackConfig::default());
            match out {
                AttackOutcome::KeyFound { key: found, .. } => {
                    assert_eq!(key_accuracy(&locked, &orig, &found, 64, 7), 1.0, "key {key:?} -> {found:?}");
                }
                other => panic!("attack failed for {key:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn refuses_sequential_netlists() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let k = n.add_input("keyinput0");
        n.mark_key_input(k);
        let x = n.add_gate(GateKind::Xor, vec![a, k]);
        let ff = n.add_gate(GateKind::Dff { init: false }, vec![x]);
        n.add_output("q", ff);
        let out = sat_attack(&n, &n, &AttackConfig::default());
        assert!(matches!(out, AttackOutcome::Infeasible { .. }));
    }

    #[test]
    fn refuses_keyless_netlists() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.add_output("y", a);
        assert!(matches!(sat_attack(&n, &n, &AttackConfig::default()), AttackOutcome::Infeasible { .. }));
    }

    #[test]
    fn iteration_budget_respected() {
        let (locked, orig) = build_pair(&[true, false]);
        let out = sat_attack(&locked, &orig, &AttackConfig { max_iterations: 0, timeout: None, ..Default::default() });
        // Either it needed no DIPs (unlikely) or it hits the budget.
        assert!(matches!(out, AttackOutcome::TimedOut { .. } | AttackOutcome::KeyFound { .. }));
    }

    #[test]
    fn missing_model_assignment_is_an_error_not_a_zero_bit() {
        // A variable the solver never saw has no model value; the old
        // `unwrap_or(false)` fabricated a zero key bit here.
        let mut s = Solver::new();
        s.add_dimacs_clause(&[1]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(model_bits(&s, &[1]), Ok(vec![true]));
        assert_eq!(model_bits(&s, &[1, 7]), Err(1), "var 7 is unassigned");
    }

    #[test]
    fn attack_error_outcome_carries_no_key() {
        let out = AttackOutcome::Error { reason: "model hole".into() };
        assert_eq!(out.key(), None);
    }

    #[test]
    fn pre_cancelled_token_times_the_attack_out() {
        let (locked, orig) = build_pair(&[true, false]);
        let token = rtlock_governor::CancelToken::unlimited();
        token.cancel();
        let cfg = AttackConfig { cancel: Some(token), ..AttackConfig::default() };
        let out = sat_attack(&locked, &orig, &cfg);
        assert!(
            matches!(out, AttackOutcome::TimedOut { iterations: 0, .. }),
            "cancelled before the first solve: {out:?}"
        );
    }

    #[test]
    fn canonical_rendering_excludes_wall_clock_fields() {
        // Two outcomes that differ ONLY in wall-clock telemetry must
        // render identically — the canonical form is what the journal
        // replays and the determinism suite diffs.
        let stats_fast = AttackStats {
            oracle_queries: 3,
            patterns_simulated: 128,
            dips_accepted: 2,
            dips_rejected: 1,
            round_wall_clock: vec![Duration::from_millis(5), Duration::from_millis(7)],
        };
        let stats_slow = AttackStats {
            round_wall_clock: vec![Duration::from_secs(60); 9],
            ..stats_fast.clone()
        };
        let fast = AttackOutcome::KeyFound {
            key: vec![true, false],
            iterations: 2,
            elapsed: Duration::from_millis(12),
            stats: stats_fast.clone(),
        };
        let slow = AttackOutcome::KeyFound {
            key: vec![true, false],
            iterations: 2,
            elapsed: Duration::from_secs(999),
            stats: stats_slow.clone(),
        };
        assert_eq!(fast.canonical(), slow.canonical());
        assert!(!fast.canonical().to_lowercase().contains("elapsed"), "{}", fast.canonical());
        let t_fast = AttackOutcome::TimedOut {
            iterations: 4,
            elapsed: Duration::from_millis(3),
            stats: stats_fast,
        };
        let t_slow =
            AttackOutcome::TimedOut { iterations: 4, elapsed: Duration::from_secs(10), stats: stats_slow };
        assert_eq!(t_fast.canonical(), t_slow.canonical());
        // But the deterministic counters DO show up.
        assert!(fast.canonical().contains("queries=3, simulated=128, dips=2+1"), "{}", fast.canonical());
    }

    #[test]
    fn stats_absorb_sums_counters_and_concatenates_rounds() {
        let mut a = AttackStats {
            oracle_queries: 1,
            patterns_simulated: 64,
            dips_accepted: 1,
            dips_rejected: 0,
            round_wall_clock: vec![Duration::from_millis(1)],
        };
        let b = AttackStats {
            oracle_queries: 2,
            patterns_simulated: 0,
            dips_accepted: 3,
            dips_rejected: 4,
            round_wall_clock: vec![Duration::from_millis(2), Duration::from_millis(3)],
        };
        a.absorb(&b);
        assert_eq!(a.oracle_queries, 3);
        assert_eq!(a.patterns_simulated, 64);
        assert_eq!(a.dips_accepted, 4);
        assert_eq!(a.dips_rejected, 4);
        assert_eq!(a.round_wall_clock.len(), 3);
    }

    #[test]
    fn apply_key_hardwires_constants() {
        let (locked, orig) = build_pair(&[true, true]);
        let keyed = apply_key(&locked, &[true, true]);
        assert!(keyed.key_inputs.is_empty());
        assert_eq!(key_accuracy(&locked, &orig, &[true, true], 32, 3), 1.0);
        assert!(key_accuracy(&locked, &orig, &[false, true], 32, 3) < 1.0, "wrong key corrupts");
    }
}
