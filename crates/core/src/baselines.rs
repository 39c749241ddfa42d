//! Gate-level baseline locking techniques for the comparative rows of
//! Tables III and IV: RND and MUX2 \[3\], SLL \[31\], TOC_MUX / TOC_XOR \[39\],
//! and IOLTS \[40\].
//!
//! Each locker inserts key gates post-synthesis until a target area
//! overhead (the paper fixes 15 % across techniques) is reached, then
//! returns the locked netlist and the correct key.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlock_netlist::ppa::area_um2;
use rtlock_netlist::{GateId, GateKind, Netlist};

/// The baseline techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Random XOR/XNOR insertion (EPIC-style).
    Rnd,
    /// Key-controlled 2:1 muxes between true and decoy nets.
    Mux2,
    /// Interference-aware XOR/XNOR insertion ("secure logic locking").
    Sll,
    /// Fault-analysis guided MUX insertion.
    TocMux,
    /// Fault-analysis guided XOR/XNOR insertion.
    TocXor,
    /// AND/OR key-gate insertion (IOLTS'14).
    Iolts,
}

impl BaselineKind {
    /// All techniques in Table III order.
    pub fn all() -> [BaselineKind; 6] {
        [
            BaselineKind::Rnd,
            BaselineKind::Mux2,
            BaselineKind::Sll,
            BaselineKind::TocMux,
            BaselineKind::TocXor,
            BaselineKind::Iolts,
        ]
    }

    /// Table-row name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Rnd => "RND",
            BaselineKind::Mux2 => "MUX2",
            BaselineKind::Sll => "SLL",
            BaselineKind::TocMux => "TOC_MUX",
            BaselineKind::TocXor => "TOC_XOR",
            BaselineKind::Iolts => "IOLTS",
        }
    }
}

/// A gate-level-locked netlist plus its correct key.
#[derive(Debug, Clone)]
pub struct BaselineLocked {
    /// The locked netlist (key inputs marked, in key order).
    pub netlist: Netlist,
    /// Correct key bits.
    pub key: Vec<bool>,
    /// Technique used.
    pub kind: BaselineKind,
    /// Achieved area overhead in percent.
    pub area_overhead_pct: f64,
}

/// Locks `original` with `kind` until `target_overhead_pct` area overhead
/// is reached (or `max_key_bits` as a safety bound).
///
/// # Panics
///
/// Panics if the original netlist is cyclic or has no logic gates.
pub fn lock_baseline(
    original: &Netlist,
    kind: BaselineKind,
    target_overhead_pct: f64,
    max_key_bits: usize,
    seed: u64,
) -> BaselineLocked {
    let mut rng = StdRng::seed_from_u64(seed);
    let base_area = area_um2(original);
    assert!(base_area > 0.0, "empty netlist");
    let mut n = original.clone();
    let mut key = Vec::new();

    // Candidate insertion points, ranked per technique.
    let mut sites = rank_sites(&n, kind, &mut rng);
    let mut site_cursor = 0usize;

    while key.len() < max_key_bits {
        let area = area_um2(&n);
        if (area - base_area) / base_area * 100.0 >= target_overhead_pct {
            break;
        }
        if site_cursor >= sites.len() {
            // Re-rank over the grown netlist.
            sites = rank_sites(&n, kind, &mut rng);
            site_cursor = 0;
            if sites.is_empty() {
                break;
            }
        }
        let target = sites[site_cursor];
        site_cursor += 1;
        if !n.gate(target).kind.is_logic() && n.gate(target).kind != GateKind::Input {
            continue;
        }
        let bit_index = key.len();
        let k = n.add_input(format!("keyinput{bit_index}"));
        n.mark_key_input(k);
        match kind {
            BaselineKind::Rnd | BaselineKind::Sll | BaselineKind::TocXor => {
                let correct = rng.gen_bool(0.5);
                let gate = if correct {
                    n.add_gate(GateKind::Xnor, vec![target, k])
                } else {
                    n.add_gate(GateKind::Xor, vec![target, k])
                };
                n.replace_uses(target, gate, &[gate]);
                key.push(correct);
            }
            BaselineKind::Mux2 | BaselineKind::TocMux => {
                let decoy = random_other_net(&n, target, &mut rng);
                let correct = rng.gen_bool(0.5);
                let gate = if correct {
                    n.add_gate(GateKind::Mux, vec![k, decoy, target]) // sel=1 -> target
                } else {
                    n.add_gate(GateKind::Mux, vec![k, target, decoy])
                };
                n.replace_uses(target, gate, &[gate]);
                key.push(correct);
            }
            BaselineKind::Iolts => {
                // AND with key (correct 1) or OR with key (correct 0).
                let use_and = rng.gen_bool(0.5);
                let gate = if use_and {
                    n.add_gate(GateKind::And, vec![target, k])
                } else {
                    n.add_gate(GateKind::Or, vec![target, k])
                };
                n.replace_uses(target, gate, &[gate]);
                key.push(use_and);
            }
        }
    }
    let area = area_um2(&n);
    BaselineLocked {
        netlist: n,
        key,
        kind,
        area_overhead_pct: (area - base_area) / base_area * 100.0,
    }
}

/// A random net outside `avoid`'s transitive fanout cone (a decoy inside
/// the cone would create a combinational cycle through the mux).
fn random_other_net(n: &Netlist, avoid: GateId, rng: &mut StdRng) -> GateId {
    let fanouts = n.fanouts();
    let mut cone = std::collections::HashSet::from([avoid]);
    let mut stack = vec![avoid];
    while let Some(g) = stack.pop() {
        for &f in &fanouts[g.index()] {
            // Flip-flops cut combinational paths.
            if !n.gate(f).kind.is_dff() && cone.insert(f) {
                stack.push(f);
            }
        }
    }
    let pool: Vec<GateId> = n
        .ids()
        .filter(|&g| {
            !cone.contains(&g)
                && (n.gate(g).kind.is_logic() || n.gate(g).kind == GateKind::Input)
                && !n.key_inputs.contains(&g)
        })
        .collect();
    if pool.is_empty() {
        avoid
    } else {
        pool[rng.gen_range(0..pool.len())]
    }
}

/// Ranks candidate nets for key-gate insertion, technique-specific.
fn rank_sites(n: &Netlist, kind: BaselineKind, rng: &mut StdRng) -> Vec<GateId> {
    let mut logic: Vec<GateId> = n
        .ids()
        .filter(|&g| {
            (n.gate(g).kind.is_logic() || n.gate(g).kind == GateKind::Input)
                && !n.key_inputs.contains(&g)
        })
        .collect();
    match kind {
        BaselineKind::Rnd | BaselineKind::Mux2 | BaselineKind::Iolts => {
            // Uniform random order.
            for i in (1..logic.len()).rev() {
                logic.swap(i, rng.gen_range(0..=i));
            }
        }
        BaselineKind::Sll => {
            // Interference heuristic: high fanout first, deep second.
            let fanouts = n.fanouts();
            let levels = n.levelize().unwrap_or_else(|_| vec![0; n.len()]);
            logic.sort_by_key(|g| {
                std::cmp::Reverse((fanouts[g.index()].len() as u32) * 16 + levels[g.index()].min(15))
            });
        }
        BaselineKind::TocMux | BaselineKind::TocXor => {
            // Fault-impact heuristic: how many output bits flip when the
            // net is stuck, over random patterns (the "fault analysis" of
            // [39]).
            let impact = fault_impact(n, rng.gen());
            logic.sort_by_key(|g| std::cmp::Reverse(impact[g.index()]));
        }
    }
    logic.truncate(1024);
    logic
}

/// Popcount of output flips when each net is forced to its complement,
/// over one 64-lane random block.
fn fault_impact(n: &Netlist, seed: u64) -> Vec<u64> {
    use rtlock_netlist::NetSim;
    let Ok(mut sim) = NetSim::new(n) else {
        return vec![0; n.len()];
    };
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &i in n.inputs() {
        let r = next();
        sim.set_input(i, r);
    }
    sim.reset();
    sim.step();
    let good: Vec<u64> = n.outputs().iter().map(|&(_, g)| sim.value(g)).collect();
    let fanouts = n.fanouts();
    let order = n.topo_order().unwrap_or_else(|_| n.ids().collect());
    let mut impact = vec![0u64; n.len()];
    for site in n.ids() {
        if !n.gate(site).kind.is_logic() {
            continue;
        }
        // Cone re-simulation with the site inverted.
        let mut vals: Vec<u64> = n.ids().map(|g| sim.value(g)).collect();
        vals[site.index()] = !vals[site.index()];
        let mut cone = std::collections::HashSet::new();
        let mut stack = vec![site];
        while let Some(g) = stack.pop() {
            for &f in &fanouts[g.index()] {
                if cone.insert(f) {
                    stack.push(f);
                }
            }
        }
        for &g in &order {
            if !cone.contains(&g) || !n.gate(g).kind.is_logic() {
                continue;
            }
            let ins: Vec<u64> = n.gate(g).fanin.iter().map(|f| vals[f.index()]).collect();
            vals[g.index()] = n.gate(g).kind.eval64(&ins);
        }
        let mut flips = 0u64;
        for (i, &(_, drv)) in n.outputs().iter().enumerate() {
            flips += (vals[drv.index()] ^ good[i]).count_ones() as u64;
        }
        impact[site.index()] = flips;
    }
    impact
}

/// Applies the correct key and checks functional equivalence on random
/// patterns (sanity helper shared by tests and benches).
pub fn baseline_is_sound(locked: &BaselineLocked, original: &Netlist, patterns: usize, seed: u64) -> bool {
    rtlock_attacks::key_accuracy(&locked.netlist, original, &locked.key, patterns, seed) == 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_synth::{elaborate, optimize};

    fn sample_netlist() -> Netlist {
        let m = rtlock_rtl::parse(
            "module t(input [7:0] a, input [7:0] b, output [7:0] s, output [7:0] x);\n\
             assign s = a + b;\n assign x = (a ^ b) & 8'h7F;\nendmodule",
        )
        .unwrap();
        let mut n = elaborate(&m).unwrap();
        optimize(&mut n);
        n
    }

    #[test]
    fn every_baseline_locks_soundly() {
        let orig = sample_netlist();
        for kind in BaselineKind::all() {
            let locked = lock_baseline(&orig, kind, 15.0, 64, 42);
            assert!(!locked.key.is_empty(), "{kind:?} inserted keys");
            assert!(
                baseline_is_sound(&locked, &orig, 32, 7),
                "{kind:?} must be functionally correct under its key"
            );
            assert_eq!(locked.netlist.key_inputs.len(), locked.key.len());
        }
    }

    #[test]
    fn wrong_key_corrupts() {
        let orig = sample_netlist();
        for kind in BaselineKind::all() {
            let locked = lock_baseline(&orig, kind, 15.0, 64, 43);
            let mut wrong = locked.key.clone();
            for b in wrong.iter_mut() {
                *b = !*b;
            }
            let acc = rtlock_attacks::key_accuracy(&locked.netlist, &orig, &wrong, 32, 9);
            assert!(acc < 1.0, "{kind:?}: all-flipped key must corrupt, acc={acc}");
        }
    }

    #[test]
    fn overhead_reaches_target() {
        let orig = sample_netlist();
        let locked = lock_baseline(&orig, BaselineKind::Rnd, 15.0, 256, 44);
        assert!(locked.area_overhead_pct >= 14.0, "got {}", locked.area_overhead_pct);
        // Larger budget -> more key bits.
        let bigger = lock_baseline(&orig, BaselineKind::Rnd, 30.0, 256, 44);
        assert!(bigger.key.len() > locked.key.len());
    }

    #[test]
    fn key_bits_capped() {
        let orig = sample_netlist();
        let locked = lock_baseline(&orig, BaselineKind::TocXor, 90.0, 10, 45);
        assert_eq!(locked.key.len(), 10);
    }

    #[test]
    fn optimization_does_not_break_locked_netlists() {
        // The ML attacks re-optimize locked netlists; make sure that is
        // sound for baseline-locked circuits too.
        let orig = sample_netlist();
        let locked = lock_baseline(&orig, BaselineKind::Iolts, 15.0, 64, 46);
        let mut opt = locked.netlist.clone();
        optimize(&mut opt);
        let acc = rtlock_attacks::key_accuracy(&opt, &orig, &locked.key, 32, 11);
        assert_eq!(acc, 1.0);
    }
}
