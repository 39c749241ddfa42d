//! Standalone netlist optimization passes.
//!
//! Used in two roles:
//! 1. post-elaboration cleanup (idempotent after the builder's on-the-fly
//!    folding), and
//! 2. *re-synthesis* inside the SWEEP/SCOPE attacks, which hardwire a key
//!    bit to a constant and measure how much the netlist shrinks — the
//!    constant-propagation signal those attacks learn from.
//!
//! Passes: constant folding, buffer/double-inverter collapse, algebraic
//! one-input simplifications, structural hashing, dead-gate sweeping.
//! Iterates to a fixpoint.

use crate::strash::StrashTable;
use rtlock_governor::CancelToken;
use rtlock_netlist::{GateId, GateKind, Netlist};

/// Deliberate-miscompile injection for the differential fuzzing harness.
///
/// `rtlock-fuzz` needs a known-bad optimizer to prove the cross-layer
/// oracle actually catches miscompiles end-to-end (find → diverge →
/// shrink). When armed, the inverted-select mux rewrite in [`optimize`]
/// absorbs the select inverter **without swapping the data legs** — a
/// classic polarity bug that silently corrupts any design whose ternary
/// condition elaborates to an inverter-driven mux select.
///
/// The flag is process-global and off by default; nothing in the
/// production flow arms it. Only the fuzz harness CLI
/// (`rtlock-fuzz --inject-opt-bug`) and its acceptance tests do.
pub mod inject {
    use std::sync::atomic::{AtomicBool, Ordering};

    static OPT_MUX_BUG: AtomicBool = AtomicBool::new(false);

    /// Arms (or disarms) the deliberate inverted-select miscompile.
    pub fn set_opt_mux_bug(enabled: bool) {
        OPT_MUX_BUG.store(enabled, Ordering::SeqCst);
    }

    /// Whether the miscompile is currently armed.
    pub fn opt_mux_bug() -> bool {
        OPT_MUX_BUG.load(Ordering::SeqCst)
    }
}

/// Statistics from an optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Gates removed by all passes combined.
    pub gates_removed: usize,
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// `true` when a [`CancelToken`] stopped the fixpoint before
    /// convergence. The netlist is still functionally correct (every pass
    /// is semantics-preserving), just less optimized.
    pub interrupted: bool,
}

/// Optimizes a netlist in place to a fixpoint.
///
/// # Examples
///
/// ```
/// use rtlock_netlist::{Netlist, GateKind};
/// use rtlock_synth::optimize;
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let one = n.add_gate(GateKind::Const1, vec![]);
/// let x = n.add_gate(GateKind::And, vec![a, one]);   // folds to a
/// let nn = n.add_gate(GateKind::Not, vec![x]);
/// let y = n.add_gate(GateKind::Not, vec![nn]);       // double inverter
/// n.add_output("y", y);
/// let stats = optimize(&mut n);
/// assert!(stats.gates_removed >= 3);
/// assert_eq!(n.logic_count(), 0, "y == a directly");
/// ```
pub fn optimize(netlist: &mut Netlist) -> OptStats {
    optimize_bounded(netlist, &CancelToken::unlimited())
}

/// Like [`optimize`], but polls `cancel` between fixpoint iterations and
/// stops early (with [`OptStats::interrupted`] set) when asked. Each pass
/// is semantics-preserving, so an interrupted run leaves a correct — merely
/// under-optimized — netlist.
pub fn optimize_bounded(netlist: &mut Netlist, cancel: &CancelToken) -> OptStats {
    let mut stats = OptStats::default();
    let before_total = netlist.len();
    loop {
        if cancel.should_stop().is_some() {
            stats.interrupted = true;
            break;
        }
        stats.iterations += 1;
        let changed_fold = fold_pass(netlist);
        let changed_hash = strash_pass(netlist);
        let removed = netlist.sweep_dead();
        if !changed_fold && !changed_hash && removed == 0 {
            break;
        }
        if stats.iterations > 50 {
            break; // safety net; passes should converge long before this
        }
    }
    stats.gates_removed = before_total.saturating_sub(netlist.len());
    stats
}

fn const_of(netlist: &Netlist, g: GateId) -> Option<bool> {
    match netlist.gate(g).kind {
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
        _ => None,
    }
}

/// Per-pass cache of the shared constant gates (a linear scan per fold is
/// quadratic on large netlists).
#[derive(Default, Clone, Copy)]
struct ConstCache {
    zero: Option<GateId>,
    one: Option<GateId>,
}

impl ConstCache {
    fn scan(netlist: &Netlist) -> ConstCache {
        let mut c = ConstCache::default();
        for id in netlist.ids() {
            match netlist.gate(id).kind {
                GateKind::Const0 if c.zero.is_none() => c.zero = Some(id),
                GateKind::Const1 if c.one.is_none() => c.one = Some(id),
                _ => {}
            }
        }
        c
    }

    fn get(&mut self, netlist: &mut Netlist, value: bool) -> GateId {
        let slot = if value { &mut self.one } else { &mut self.zero };
        match *slot {
            Some(g) => g,
            None => {
                let kind = if value { GateKind::Const1 } else { GateKind::Const0 };
                let g = netlist.add_gate(kind, vec![]);
                *slot = Some(g);
                g
            }
        }
    }
}

/// Follows `alias` from `g` to the gate that finally replaces it.
fn resolve(alias: &[GateId], mut g: GateId) -> GateId {
    while alias[g.index()] != g {
        g = alias[g.index()];
    }
    g
}

/// Rewrites every fanin, output driver and output port bit through
/// `alias`, in place.
fn rewrite_through(netlist: &mut Netlist, alias: &[GateId]) {
    for id in netlist.ids() {
        for f in &mut netlist.gate_mut(id).fanin {
            *f = resolve(alias, *f);
        }
    }
    for i in 0..netlist.outputs().len() {
        let drv = netlist.outputs()[i].1;
        let r = resolve(alias, drv);
        if r != drv {
            netlist.replace_output_driver(i, r);
        }
    }
    // Port groups track driver gates too and must follow the aliases,
    // or sweep_dead would see dangling ids.
    for p in &mut netlist.output_ports {
        for b in &mut p.bits {
            *b = resolve(alias, *b);
        }
    }
}

/// A fold's replacement for the gate being visited.
enum Replacement {
    Gate(GateId),
    Const(bool),
    Invert(GateId),
}

/// One constant-folding / algebraic pass. Returns `true` if anything
/// changed.
fn fold_pass(netlist: &mut Netlist) -> bool {
    let order = match netlist.topo_order() {
        Ok(o) => o,
        Err(_) => return false,
    };
    // alias[g] = the gate g should be replaced by. Gates the pass adds get
    // identity entries as they appear.
    let mut alias: Vec<GateId> = netlist.ids().collect();
    let mut consts_cache = ConstCache::scan(netlist);
    let mut changed = false;

    for id in order {
        let kind = netlist.gate(id).kind;
        if !kind.is_logic() {
            continue;
        }
        // Resolve fanins through aliases first, in place.
        let mut fanin = [GateId(0); 3];
        let pins = netlist.gate(id).fanin.len();
        for (slot, f) in fanin.iter_mut().zip(&mut netlist.gate_mut(id).fanin) {
            let r = resolve(&alias, *f);
            if r != *f {
                *f = r;
                changed = true;
            }
            *slot = r;
        }
        let mut consts = [None; 3];
        for (c, &f) in consts.iter_mut().zip(&fanin[..pins]) {
            *c = const_of(netlist, f);
        }

        let simplification: Option<Replacement> = match kind {
            // Fully constant gate.
            _ if consts[..pins].iter().all(Option::is_some) => {
                let ins = consts.map(|c| c == Some(true));
                Some(Replacement::Const(kind.eval(&ins[..pins])))
            }
            GateKind::Buf => Some(Replacement::Gate(fanin[0])),
            GateKind::Not => {
                if netlist.gate(fanin[0]).kind == GateKind::Not {
                    Some(Replacement::Gate(netlist.gate(fanin[0]).fanin[0]))
                } else {
                    None
                }
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let (a, b) = (fanin[0], fanin[1]);
                let invert_out = matches!(kind, GateKind::Nand | GateKind::Nor);
                let is_and = matches!(kind, GateKind::And | GateKind::Nand);
                let absorbing = !is_and; // OR absorbs on 1, AND on 0
                let one_sided = |c: bool, other: GateId| -> Replacement {
                    if c == absorbing {
                        // Absorbing input: result is the absorbing constant.
                        if invert_out {
                            Replacement::Const(!absorbing)
                        } else {
                            Replacement::Const(absorbing)
                        }
                    } else if invert_out {
                        Replacement::Invert(other)
                    } else {
                        Replacement::Gate(other)
                    }
                };
                match (consts[0], consts[1]) {
                    (Some(c), None) => Some(one_sided(c, b)),
                    (None, Some(c)) => Some(one_sided(c, a)),
                    _ if a == b => {
                        if invert_out {
                            Some(Replacement::Invert(a))
                        } else {
                            Some(Replacement::Gate(a))
                        }
                    }
                    _ => None,
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let (a, b) = (fanin[0], fanin[1]);
                let invert_out = kind == GateKind::Xnor;
                match (consts[0], consts[1]) {
                    (Some(c), None) => {
                        if c == invert_out {
                            Some(Replacement::Gate(b))
                        } else {
                            Some(Replacement::Invert(b))
                        }
                    }
                    (None, Some(c)) => {
                        if c == invert_out {
                            Some(Replacement::Gate(a))
                        } else {
                            Some(Replacement::Invert(a))
                        }
                    }
                    _ if a == b => Some(Replacement::Const(invert_out)),
                    _ => None,
                }
            }
            GateKind::Mux => {
                let (s, a, b) = (fanin[0], fanin[1], fanin[2]);
                match consts[0] {
                    Some(false) => Some(Replacement::Gate(a)),
                    Some(true) => Some(Replacement::Gate(b)),
                    None if a == b => Some(Replacement::Gate(a)),
                    // Inverted select: swap the data legs and absorb the NOT.
                    None if netlist.gate(s).kind == GateKind::Not => {
                        let inner = netlist.gate(s).fanin[0];
                        let legs = &mut netlist.gate_mut(id).fanin;
                        legs[0] = inner;
                        if !inject::opt_mux_bug() {
                            legs.swap(1, 2);
                        }
                        changed = true;
                        None
                    }
                    None => match (consts[1], consts[2]) {
                        (Some(false), Some(true)) => Some(Replacement::Gate(s)),
                        (Some(true), Some(false)) => Some(Replacement::Invert(s)),
                        _ => None,
                    },
                }
            }
            _ => None,
        };
        if let Some(r) = simplification {
            let new = match r {
                Replacement::Gate(g) => g,
                Replacement::Const(v) => consts_cache.get(netlist, v),
                Replacement::Invert(g) => netlist.add_gate(GateKind::Not, vec![g]),
            };
            // Newly created gates need identity alias entries.
            alias.extend((alias.len()..netlist.len()).map(|i| GateId(i as u32)));
            alias[id.index()] = new;
            changed = true;
        }
    }
    if changed {
        rewrite_through(netlist, &alias);
    }
    changed
}

/// Structural-hashing pass merging identical gates. Returns `true` if
/// anything changed.
fn strash_pass(netlist: &mut Netlist) -> bool {
    let order = match netlist.topo_order() {
        Ok(o) => o,
        Err(_) => return false,
    };
    let mut alias: Vec<GateId> = netlist.ids().collect();
    let mut seen = StrashTable::with_capacity(netlist.len());
    let mut changed = false;
    for id in order {
        let gate = netlist.gate(id);
        if !gate.kind.is_logic() {
            continue;
        }
        let mut fanin = [GateId(0); 3];
        let fanin = &mut fanin[..gate.fanin.len()];
        for (slot, &f) in fanin.iter_mut().zip(&gate.fanin) {
            *slot = resolve(&alias, f);
        }
        // Canonicalize commutative operands.
        if matches!(
            gate.kind,
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor | GateKind::Xor | GateKind::Xnor
        ) {
            fanin.sort_unstable();
        }
        let prev = seen.find_or_insert_with(gate.kind, fanin, || id);
        if prev != id {
            alias[id.index()] = prev;
            changed = true;
        }
    }
    if changed {
        rewrite_through(netlist, &alias);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::NetSim;

    #[test]
    fn constant_propagation_collapses_cone() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let zero = n.add_gate(GateKind::Const0, vec![]);
        let and = n.add_gate(GateKind::And, vec![a, zero]);
        let or = n.add_gate(GateKind::Or, vec![and, a]);
        n.add_output("y", or);
        optimize(&mut n);
        assert_eq!(n.logic_count(), 0, "y == a");
        assert_eq!(n.outputs()[0].1, a);
    }

    #[test]
    fn key_gate_with_correct_constant_vanishes() {
        // XOR(x, 0) -> x : the SWEEP/SCOPE signal.
        let mut n = Netlist::new("t");
        let x = n.add_input("x");
        let k = n.add_input("k");
        let g = n.add_gate(GateKind::Xor, vec![x, k]);
        n.add_output("y", g);
        let mut correct = n.clone();
        correct.convert_input_to_const(correct.find_input("k").unwrap(), false);
        optimize(&mut correct);
        assert_eq!(correct.logic_count(), 0, "correct key removes the key gate");
        let mut wrong = n.clone();
        wrong.convert_input_to_const(wrong.find_input("k").unwrap(), true);
        optimize(&mut wrong);
        assert_eq!(wrong.logic_count(), 1, "wrong key leaves an inverter");
    }

    #[test]
    fn strash_merges_duplicate_cones() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, vec![a, b]);
        let g2 = n.add_gate(GateKind::And, vec![b, a]);
        let x = n.add_gate(GateKind::Xor, vec![g1, g2]);
        n.add_output("y", x);
        optimize(&mut n);
        // xor(g,g) = 0 so everything folds away.
        assert_eq!(n.logic_count(), 0);
    }

    #[test]
    fn optimization_preserves_function() {
        // Random-ish circuit; compare sim before/after on several patterns.
        let mut n = Netlist::new("t");
        let ins: Vec<GateId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        let one = n.add_gate(GateKind::Const1, vec![]);
        let g1 = n.add_gate(GateKind::Nand, vec![ins[0], ins[1]]);
        let g2 = n.add_gate(GateKind::Xor, vec![g1, ins[2]]);
        let g3 = n.add_gate(GateKind::And, vec![g2, one]);
        let g4 = n.add_gate(GateKind::Mux, vec![ins[3], g3, g1]);
        let g5 = n.add_gate(GateKind::Nor, vec![g4, ins[4]]);
        let g6 = n.add_gate(GateKind::Xnor, vec![g5, ins[5]]);
        let g7 = n.add_gate(GateKind::Not, vec![g6]);
        let g8 = n.add_gate(GateKind::Not, vec![g7]);
        n.add_output("y", g8);

        let reference = n.clone();
        optimize(&mut n);
        assert!(n.len() < reference.len());

        let mut simr = NetSim::new(&reference).unwrap();
        let mut simo = NetSim::new(&n).unwrap();
        for pattern in 0..64u64 {
            let bits: Vec<bool> = (0..6).map(|i| pattern >> i & 1 == 1).collect();
            simr.set_inputs_bool(&bits);
            simo.set_inputs_bool(&bits);
            simr.eval_comb();
            simo.eval_comb();
            assert_eq!(simr.outputs()[0] & 1, simo.outputs()[0] & 1, "pattern {pattern}");
        }
    }

    #[test]
    fn dff_cones_survive() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff { init: false }, vec![a]);
        let x = n.add_gate(GateKind::Xor, vec![ff, a]);
        n.add_output("y", x);
        optimize(&mut n);
        assert_eq!(n.dffs().len(), 1);
        assert_eq!(n.logic_count(), 1);
    }

    #[test]
    fn expired_token_stops_before_first_pass() {
        use rtlock_governor::{CancelToken, Deadline};
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let zero = n.add_gate(GateKind::Const0, vec![]);
        let and = n.add_gate(GateKind::And, vec![a, zero]);
        n.add_output("y", and);
        let snapshot = n.clone();
        let token = CancelToken::with_deadline(Deadline::after(std::time::Duration::ZERO));
        let stats = optimize_bounded(&mut n, &token);
        assert!(stats.interrupted);
        assert_eq!(stats.iterations, 0);
        assert_eq!(n, snapshot, "interrupted run leaves the netlist intact");
        // The unlimited run still converges afterwards.
        let stats = optimize_bounded(&mut n, &CancelToken::unlimited());
        assert!(!stats.interrupted);
        assert_eq!(n.logic_count(), 0);
    }

    #[test]
    fn cancelled_token_stops_immediately() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, vec![a]);
        n.add_output("y", g);
        let token = CancelToken::unlimited();
        token.cancel();
        assert!(optimize_bounded(&mut n, &token).interrupted);
    }

    #[test]
    fn idempotent() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, vec![a, b]);
        n.add_output("y", g);
        optimize(&mut n);
        let snapshot = n.clone();
        let stats = optimize(&mut n);
        assert_eq!(n, snapshot);
        assert_eq!(stats.gates_removed, 0);
    }
}
