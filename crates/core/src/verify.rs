//! Design verification (step 6): does the locked RTL behave identically to
//! the original under the correct key, and differently under wrong keys?
//!
//! Two methods, as in the paper: simulation-based functional verification
//! and exhaustive logical equivalence checking (a SAT miter over the
//! full-scan combinational views).

use crate::transforms::is_key_input_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlock_governor::CancelToken;
use rtlock_netlist::CnfBuilder;
use rtlock_rtl::sim::Simulator;
use rtlock_rtl::{Bv, Dir, Module, NetId, ProcessKind};
use rtlock_sat::{SolveResult, Solver};
use rtlock_synth::{elaborate, optimize, scan, scan_view};

/// Splits a flat key-bit vector across the locked module's key ports (in
/// port order), returning `(port name, value)` pairs.
///
/// # Panics
///
/// Panics if `key` has fewer bits than the module's key ports.
pub fn key_port_values(locked: &Module, key: &[bool]) -> Vec<(String, Bv)> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for &p in &locked.ports {
        let net = locked.net(p);
        if net.dir == Some(Dir::Input) && is_key_input_name(&net.name) {
            let mut v = Bv::zeros(net.width);
            for i in 0..net.width {
                v.set(i, key[cursor]);
                cursor += 1;
            }
            out.push((net.name.clone(), v));
        }
    }
    out
}

/// Total key length of a locked module.
pub fn key_length(locked: &Module) -> usize {
    locked
        .ports
        .iter()
        .filter(|&&p| locked.net(p).dir == Some(Dir::Input) && is_key_input_name(&locked.net(p).name))
        .map(|&p| locked.width(p))
        .sum()
}

/// Outcome of a (possibly budget-cut) co-simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosimOutcome {
    /// Fraction of mismatching output-port samples over the cycles run.
    pub mismatch_rate: f64,
    /// Cycles actually simulated (`== requested` when `complete`).
    pub cycles_run: usize,
    /// `false` when the cancel token cut the run short; the verdict then
    /// covers only `cycles_run` cycles and must be flagged as partial.
    pub complete: bool,
}

/// Random co-simulation: drives both designs with identical stimulus for
/// `cycles` cycles (reset asserted for the first two) and returns the
/// fraction of mismatching output-port samples. `0.0` means equivalent on
/// the sample.
///
/// # Panics
///
/// Panics if a simulator hits a combinational loop (locked designs are
/// produced by our own transforms, so this indicates an internal bug).
/// Flow code uses [`try_cosim_bounded`] instead, which surfaces the
/// failure as an error.
pub fn cosim_mismatch_rate(
    original: &Module,
    locked: &Module,
    key: &[bool],
    cycles: usize,
    seed: u64,
) -> f64 {
    match try_cosim_bounded(original, locked, key, cycles, seed, &CancelToken::unlimited()) {
        Ok(out) => out.mismatch_rate,
        Err(e) => panic!("co-simulation failed: {e}"),
    }
}

/// Bounded fallible co-simulation — like [`cosim_mismatch_rate`] but
/// simulator failures (combinational loops) come back as `Err` instead of
/// a panic. Polls `cancel` every cycle and, when it fires, returns the
/// verdict over the cycles completed so far with
/// [`CosimOutcome::complete`] cleared.
///
/// # Errors
///
/// Returns a message naming the failing design and net on simulator
/// failure (combinational loop).
pub fn try_cosim_bounded(
    original: &Module,
    locked: &Module,
    key: &[bool],
    cycles: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Result<CosimOutcome, String> {
    let mut sim_o = Simulator::new(original);
    let mut sim_l = Simulator::new(locked);
    let id = |m: &Module, name: &str| m.find_net(name).unwrap_or_else(|| panic!("no net named `{name}`"));
    // Key ports are the key-prefixed inputs that exist *only* in the
    // locked design; an input the original also has is ordinary stimulus.
    let key_values: Vec<(NetId, Bv)> = {
        let locked_only = |name: &str| original.find_net(name).is_none();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        for &p in &locked.ports {
            let net = locked.net(p);
            if net.dir == Some(Dir::Input) && is_key_input_name(&net.name) && locked_only(&net.name) {
                let mut v = Bv::zeros(net.width);
                for i in 0..net.width {
                    v.set(i, key[cursor]);
                    cursor += 1;
                }
                out.push((p, v));
            }
        }
        out
    };

    let clocks: Vec<NetId> = original
        .procs
        .iter()
        .filter_map(|p| match &p.kind {
            ProcessKind::Seq { clock, .. } => Some(*clock),
            _ => None,
        })
        .collect();
    let resets: Vec<(NetId, bool)> = original
        .procs
        .iter()
        .filter_map(|p| match &p.kind {
            ProcessKind::Seq { reset: Some(r), .. } => Some((r.net, r.active_high)),
            _ => None,
        })
        .collect();
    // Each stimulus input as (original id, locked id, width, the reset's
    // active level when the input is a reset).
    let inputs: Vec<(NetId, NetId, usize, Option<bool>)> = original
        .ports
        .iter()
        .copied()
        .filter(|&p| original.net(p).dir == Some(Dir::Input) && !clocks.contains(&p))
        .map(|p| {
            let reset = resets.iter().find(|(r, _)| *r == p).map(|&(_, ah)| ah);
            (p, id(locked, &original.net(p).name), original.width(p), reset)
        })
        .collect();
    let outputs: Vec<(NetId, NetId)> = original
        .ports
        .iter()
        .copied()
        .filter(|&p| original.net(p).dir == Some(Dir::Output))
        .map(|p| (p, id(locked, &original.net(p).name)))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0usize;
    let mut mismatched = 0usize;
    let mut cycles_run = 0usize;
    for cycle in 0..cycles {
        if cancel.should_stop().is_some() {
            break;
        }
        let in_reset = cycle < 2;
        for &(in_o, in_l, width, reset) in &inputs {
            let value = if let Some(ah) = reset {
                Bv::from_u64(1, u64::from(in_reset == ah))
            } else {
                let mut v = Bv::zeros(width);
                for i in 0..width {
                    v.set(i, rng.gen_bool(0.5));
                }
                v
            };
            sim_o.set(in_o, value.clone());
            sim_l.set(in_l, value);
        }
        for (port, value) in &key_values {
            sim_l.set(*port, value.clone());
        }
        sim_o.step().map_err(|e| format!("original design: {e}"))?;
        sim_l.step().map_err(|e| format!("locked design: {e}"))?;
        cycles_run += 1;
        total += outputs.len();
        mismatched += outputs.iter().filter(|&&(out_o, out_l)| sim_o.get(out_o) != sim_l.get(out_l)).count();
    }
    let mismatch_rate = if total == 0 { 0.0 } else { mismatched as f64 / total as f64 };
    Ok(CosimOutcome { mismatch_rate, cycles_run, complete: cycles_run == cycles })
}

/// Average output corruption over `samples` random wrong keys (each
/// differing from the correct key in at least one bit).
///
/// # Panics
///
/// Panics on simulator failure; flow code uses
/// [`try_wrong_key_corruption`] instead.
pub fn wrong_key_corruption(
    original: &Module,
    locked: &Module,
    correct_key: &[bool],
    samples: usize,
    cycles: usize,
    seed: u64,
) -> f64 {
    match try_wrong_key_corruption(
        original,
        locked,
        correct_key,
        samples,
        cycles,
        seed,
        &CancelToken::unlimited(),
    ) {
        Ok(outcome) => outcome.corruption,
        Err(e) => panic!("co-simulation failed: {e}"),
    }
}

/// Outcome of a (possibly budget-cut) wrong-key corruption measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionOutcome {
    /// Average output corruption over the samples completed.
    pub corruption: f64,
    /// Wrong-key samples fully measured.
    pub samples_run: usize,
    /// `false` when the cancel token cut sampling short.
    pub complete: bool,
}

/// Bounded fallible wrong-key corruption: polls `cancel` between samples
/// (and per cycle inside each sample) and averages over what completed.
///
/// # Errors
///
/// Returns a message naming the failing design and net on simulator
/// failure.
pub fn try_wrong_key_corruption(
    original: &Module,
    locked: &Module,
    correct_key: &[bool],
    samples: usize,
    cycles: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Result<CorruptionOutcome, String> {
    if correct_key.is_empty() {
        return Ok(CorruptionOutcome { corruption: 0.0, samples_run: 0, complete: true });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
    let mut acc = 0.0;
    let mut samples_run = 0usize;
    let want = samples.max(1);
    for s in 0..want {
        if cancel.should_stop().is_some() {
            break;
        }
        let mut wrong: Vec<bool> = correct_key.to_vec();
        let mut flipped = false;
        for b in wrong.iter_mut() {
            if rng.gen_bool(0.5) {
                *b = !*b;
                flipped = true;
            }
        }
        if !flipped {
            let i = rng.gen_range(0..wrong.len());
            wrong[i] = !wrong[i];
        }
        let outcome =
            try_cosim_bounded(original, locked, &wrong, cycles, seed.wrapping_add(s as u64), cancel)?;
        if !outcome.complete {
            break;
        }
        acc += outcome.mismatch_rate;
        samples_run += 1;
    }
    let corruption = if samples_run == 0 { 0.0 } else { acc / samples_run as f64 };
    Ok(CorruptionOutcome { corruption, samples_run, complete: samples_run == want })
}

/// Formal equivalence check of the full-scan combinational views via a SAT
/// miter with the key asserted. Returns `Some(true)` when proved
/// equivalent, `Some(false)` with a counterexample found, or `None` when
/// the check does not apply (port mismatch).
pub fn formal_equivalence(original: &Module, locked: &Module, key: &[bool]) -> Option<bool> {
    let prep = |m: &Module| {
        let mut n = elaborate(m).ok()?;
        optimize(&mut n);
        scan::insert_full_scan(&mut n);
        Some(scan_view(&n).netlist)
    };
    let orig = prep(original)?;
    let mut lock = prep(locked)?;
    crate::transforms::mark_key_inputs(&mut lock);
    if lock.key_inputs.len() != key.len() {
        return None;
    }

    let mut cnf = CnfBuilder::new();
    // Shared variables for every original input, by name.
    let orig_in: Vec<i32> = orig.inputs().iter().map(|_| cnf.fresh_var()).collect();
    let vars_o = cnf.encode_comb(&orig, &orig_in, &[]);
    let lock_in: Vec<i32> = lock
        .inputs()
        .iter()
        .map(|&g| {
            let name = lock.gate_name(g).unwrap_or("");
            if let Some(ki) = lock.key_inputs.iter().position(|k| *k == g) {
                let v = cnf.fresh_var();
                cnf.assert_lit(if key[ki] { v } else { -v });
                v
            } else {
                match orig.inputs().iter().position(|&og| orig.gate_name(og) == Some(name)) {
                    Some(i) => orig_in[i],
                    None => cnf.fresh_var(), // locked-only input (e.g. scan controls)
                }
            }
        })
        .collect();
    let vars_l = cnf.encode_comb(&lock, &lock_in, &[]);

    let mut diffs = Vec::new();
    for (name, drv_o) in orig.outputs() {
        if let Some((_, drv_l)) = lock.outputs().iter().find(|(n, _)| n == name) {
            diffs.push(cnf.xor_lit(vars_o[drv_o.index()], vars_l[drv_l.index()]));
        }
    }
    if diffs.is_empty() {
        return None;
    }
    let any = cnf.or_lit(&diffs);
    cnf.assert_lit(any);

    let mut solver = Solver::new();
    solver.reserve_vars(cnf.num_vars());
    for c in cnf.clauses() {
        solver.add_dimacs_clause(c);
    }
    match solver.solve(&[]) {
        SolveResult::Unsat => Some(true),
        SolveResult::Sat => Some(false),
        SolveResult::Unknown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate, EnumConfig};
    use crate::transforms::{apply, KeyAllocator};
    use rtlock_rtl::parse;

    const SRC: &str = "module t(input clk, input rst, input [7:0] a, input [7:0] b, output reg [7:0] y);\n\
        always @(posedge clk or posedge rst) begin\n\
          if (rst) y <= 8'd0; else y <= (a + b) * 8'd3;\n\
        end\nendmodule";

    #[test]
    fn identical_designs_cosim_clean() {
        let m = parse(SRC).unwrap();
        assert_eq!(cosim_mismatch_rate(&m, &m, &[], 30, 1), 0.0);
    }

    #[test]
    fn locked_design_verifies_with_correct_key_only() {
        let original = parse(SRC).unwrap();
        let mut locked = original.clone();
        let (cands, fsms) = enumerate(&original, &EnumConfig::default());
        let arith = cands
            .iter()
            .find(|c| matches!(c, crate::candidates::Candidate::Arithmetic { .. }))
            .expect("arith candidate");
        let mut keys = KeyAllocator::new();
        apply(&mut locked, arith, &fsms, &mut keys).unwrap();
        let key = keys.correct_key().to_vec();
        assert_eq!(key.len(), 2, "arithmetic locks use an entangled pair");

        assert_eq!(cosim_mismatch_rate(&original, &locked, &key, 40, 2), 0.0, "correct key");
        // Entangled pair: flipping BOTH bits preserves the XNOR condition
        // (an equivalent key); flipping ONE corrupts.
        let both_flipped: Vec<bool> = key.iter().map(|b| !b).collect();
        assert_eq!(cosim_mismatch_rate(&original, &locked, &both_flipped, 40, 2), 0.0, "equivalent key class");
        let mut one_flipped = key.clone();
        one_flipped[0] = !one_flipped[0];
        assert!(cosim_mismatch_rate(&original, &locked, &one_flipped, 40, 2) > 0.2, "wrong key corrupts");
    }

    #[test]
    fn formal_check_proves_correct_key() {
        let original = parse(SRC).unwrap();
        let mut locked = original.clone();
        let (cands, fsms) = enumerate(&original, &EnumConfig::default());
        let c = cands
            .iter()
            .find(|c| matches!(c, crate::candidates::Candidate::Constant { .. }))
            .expect("constant candidate");
        let mut keys = KeyAllocator::new();
        apply(&mut locked, c, &fsms, &mut keys).unwrap();
        let key = keys.correct_key().to_vec();
        assert_eq!(formal_equivalence(&original, &locked, &key), Some(true));
        let wrong: Vec<bool> = key.iter().map(|b| !b).collect();
        assert_eq!(formal_equivalence(&original, &locked, &wrong), Some(false));
    }

    #[test]
    fn bounded_cosim_reports_partial_verdict() {
        use rtlock_governor::{CancelToken, Deadline};
        let m = parse(SRC).unwrap();
        let token = CancelToken::with_deadline(Deadline::after(std::time::Duration::ZERO));
        let out = try_cosim_bounded(&m, &m, &[], 30, 1, &token).unwrap();
        assert!(!out.complete);
        assert_eq!(out.cycles_run, 0);
        assert_eq!(out.mismatch_rate, 0.0);
        let full = try_cosim_bounded(&m, &m, &[], 30, 1, &CancelToken::unlimited()).unwrap();
        assert!(full.complete);
        assert_eq!(full.cycles_run, 30);
    }

    #[test]
    fn try_cosim_surfaces_comb_loops_as_errors() {
        // x = !x is a combinational loop: the simulator cannot settle.
        let looped = parse(
            "module l(input a, output y);\n  wire x;\n  assign x = ~x;\n  assign y = x & a;\nendmodule",
        )
        .unwrap();
        let err =
            try_cosim_bounded(&looped, &looped, &[], 4, 1, &CancelToken::unlimited()).unwrap_err();
        assert_eq!(err, "original design: combinational loop involving net `x`");
    }

    #[test]
    fn bounded_corruption_flags_incomplete_sampling() {
        use rtlock_governor::CancelToken;
        let m = parse(SRC).unwrap();
        let token = CancelToken::unlimited();
        token.cancel();
        let out = try_wrong_key_corruption(&m, &m, &[true, false], 3, 10, 1, &token).unwrap();
        assert!(!out.complete);
        assert_eq!(out.samples_run, 0);
        assert_eq!(out.corruption, 0.0);
    }

    #[test]
    fn key_port_values_split_correctly() {
        let original = parse(SRC).unwrap();
        let mut locked = original.clone();
        let (cands, fsms) = enumerate(&original, &EnumConfig::default());
        let mut keys = KeyAllocator::new();
        let mut applied = 0;
        for c in &cands {
            if matches!(c, crate::candidates::Candidate::Constant { .. }) && applied < 2
                && apply(&mut locked, c, &fsms, &mut keys).is_ok() {
                    applied += 1;
                }
        }
        let key = keys.correct_key().to_vec();
        assert_eq!(key_length(&locked), key.len());
        let ports = key_port_values(&locked, &key);
        let total: usize = ports.iter().map(|(_, v)| v.width()).sum();
        assert_eq!(total, key.len());
    }
}
