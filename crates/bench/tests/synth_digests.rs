//! Regression pins for the synthesis kernels on real catalog designs.
//!
//! For each design this asserts the byte hash of the netlist `elaborate()`
//! returns, the byte hash after `optimize()`, and the optimizer's
//! `OptStats`. For one constant case of b05 it also asserts the SCOPE
//! feature delta of every key bit, which re-runs `optimize()` on the locked
//! netlist with each key bit hardwired to 0 and to 1. The hashes cover every
//! gate id, fanin order, name and port, so a change to the builder's
//! structural hashing, the optimizer's passes or their visit order fails
//! this test. A change that alters the netlists on purpose must update the
//! values here.

use rtlock::candidates::enumerate;
use rtlock::transforms::{apply, mark_key_inputs, KeyAllocator};
use rtlock_artifacts::bytes_hash;
use rtlock_attacks::features::key_bit_delta;
use rtlock_netlist::{codec, Netlist};
use rtlock_synth::{elaborate, optimize};

fn digest(n: &Netlist) -> String {
    format!("{:032x}", bytes_hash(&codec::encode(n)))
}

/// Asserts `(elaborated hash, optimized hash, gates_removed, iterations)`
/// of the catalog design `name`.
fn assert_pinned(name: &str, elaborated: &str, optimized: &str, gates_removed: usize, iterations: usize) {
    let module = rtlock_designs::by_name(name).expect("catalog design").module().expect("parses");
    let mut n = elaborate(&module).expect("synthesizes");
    let elaborated_hash = digest(&n);
    let stats = optimize(&mut n);
    assert!(!stats.interrupted);
    assert_eq!(
        (elaborated_hash.as_str(), digest(&n).as_str(), stats.gates_removed, stats.iterations),
        (elaborated, optimized, gates_removed, iterations),
        "{name}: (elaborated, optimized, gates_removed, iterations)"
    );
}

#[test]
fn b05_synthesis_is_pinned() {
    assert_pinned("b05", "869f1f6f23a17c6ee906ceade1906797", "d12143f76de6afd5c1904d7f81c261b1", 1, 2);
}

#[test]
fn fibo_synthesis_is_pinned() {
    assert_pinned("fibo", "232a0b019095ebb9c05739754d1f4b0f", "78f0d2885fe0f19e1b6867f583be4553", 0, 2);
}

#[test]
fn b14_synthesis_is_pinned() {
    assert_pinned("b14", "ed63c150f422c7f4b0515a1bf6ef7c7e", "ed63c150f422c7f4b0515a1bf6ef7c7e", 0, 1);
}

#[test]
fn b15_synthesis_is_pinned() {
    assert_pinned("b15", "d8a636a395a16c6619a22bc49a4ee426", "122de2eacb359e529f4387e7b5ab9509", 2, 2);
}

#[test]
fn sha1_synthesis_is_pinned() {
    assert_pinned("sha1", "fa469b29b1d7fd3e8d9d21d1efc674ae", "fa469b29b1d7fd3e8d9d21d1efc674ae", 0, 1);
}

/// The SCOPE probe's per-bit feature deltas on b05's candidate 35, an
/// 8-bit substituted constant, computed as the case database computes
/// them. Its deltas are nonzero on most bits and several features, so a
/// resynthesis that keeps or drops one more gate changes them.
#[test]
fn b05_constant_case_scope_deltas_are_pinned() {
    let module = rtlock_designs::by_name("b05").expect("catalog design").module().expect("parses");
    let config = rtlock_bench::rtlock_config("b05", true);
    let (candidates, fsms) = enumerate(&module, &config.enumeration);
    let cand = &candidates[35];
    assert_eq!(cand.label(), "const 8'b11000010 Substitute");
    let mut locked = module.clone();
    apply(&mut locked, cand, &fsms, &mut KeyAllocator::new()).expect("applies");
    let mut n = elaborate(&locked).expect("synthesizes");
    optimize(&mut n);
    let key_bits = mark_key_inputs(&mut n);
    let deltas: Vec<String> = (0..key_bits).map(|bit| format!("{:?}", key_bit_delta(&n, bit))).collect();
    assert_eq!(
        deltas,
        [
            "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]",
            "[-3.0, -1.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -3.0]",
            "[-2.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -2.0]",
            "[8.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0, 3.0, 0.0, 0.0, 0.0, 8.0]",
            "[6.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 6.0]",
            "[4.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 4.0]",
            "[-3.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -3.0]",
            "[-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]",
        ]
    );
}
