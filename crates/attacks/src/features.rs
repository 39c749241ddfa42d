//! Synthesis-report feature extraction shared by the SWEEP and SCOPE
//! constant-propagation attacks (\[18\], \[37\] in the paper).
//!
//! Both attacks hardwire one key-bit hypothesis at a time, re-run synthesis
//! optimization, and compare synthesis features between the `0` and `1`
//! hypotheses. The feature vector mirrors the report fields the original
//! tools consume (area, per-cell counts, depth, net count).

use rtlock_netlist::{GateKind, Netlist};
use rtlock_synth::optimize;

/// Number of features in a [`FeatureVec`].
pub const NUM_FEATURES: usize = 12;

/// A fixed-size synthesis feature vector.
pub type FeatureVec = [f64; NUM_FEATURES];

/// Extracts the feature vector of a netlist.
pub fn features(netlist: &Netlist) -> FeatureVec {
    // Cell counts in feature order: INV, BUF, AND2, NAND2, OR2, NOR2, XOR2,
    // XNOR2, MUX2.
    let mut cells = [0usize; 9];
    for id in netlist.ids() {
        let slot = match netlist.gate(id).kind {
            GateKind::Not => 0,
            GateKind::Buf => 1,
            GateKind::And => 2,
            GateKind::Nand => 3,
            GateKind::Or => 4,
            GateKind::Nor => 5,
            GateKind::Xor => 6,
            GateKind::Xnor => 7,
            GateKind::Mux => 8,
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff { .. } => continue,
        };
        cells[slot] += 1;
    }
    let mut f = [0.0; NUM_FEATURES];
    f[0] = netlist.logic_count() as f64;
    for (x, &n) in f[1..10].iter_mut().zip(&cells) {
        *x = n as f64;
    }
    f[10] = netlist.depth().unwrap_or(0) as f64;
    f[11] = netlist.len() as f64;
    f
}

/// Hardwires key bit `bit` of `locked` to `value`, re-optimizes, and
/// returns the resulting features ("constant propagation synthesis run").
///
/// # Panics
///
/// Panics if `bit` is out of range.
pub fn resynth_features(locked: &Netlist, bit: usize, value: bool) -> FeatureVec {
    let mut n = locked.clone();
    let key = n.key_inputs[bit];
    n.convert_input_to_const(key, value);
    optimize(&mut n);
    features(&n)
}

/// The per-bit feature delta `f(k=1) − f(k=0)` that both attacks classify.
pub fn key_bit_delta(locked: &Netlist, bit: usize) -> FeatureVec {
    let f0 = resynth_features(locked, bit, false);
    let f1 = resynth_features(locked, bit, true);
    let mut d = [0.0; NUM_FEATURES];
    for i in 0..NUM_FEATURES {
        d[i] = f1[i] - f0[i];
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::{GateKind, Netlist};

    fn xor_locked() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k = n.add_input("keyinput0");
        n.mark_key_input(k);
        let g = n.add_gate(GateKind::And, vec![a, b]);
        let kg = n.add_gate(GateKind::Xor, vec![g, k]);
        n.add_output("y", kg);
        n
    }

    #[test]
    fn features_count_cells() {
        let n = xor_locked();
        let f = features(&n);
        assert_eq!(f[0], 2.0, "two logic gates");
        assert_eq!(f[7], 1.0, "one xor");
    }

    #[test]
    fn resynth_shrinks_under_correct_hypothesis() {
        let n = xor_locked();
        let f0 = resynth_features(&n, 0, false);
        let f1 = resynth_features(&n, 0, true);
        // Correct key is 0 (XOR passthrough): gate count drops to 1.
        assert_eq!(f0[0], 1.0);
        // Wrong hypothesis leaves an extra inverter.
        assert_eq!(f1[0], 2.0);
    }

    #[test]
    fn delta_sign_reflects_asymmetry() {
        let n = xor_locked();
        let d = key_bit_delta(&n, 0);
        assert!(d[0] > 0.0, "k=1 netlist is larger for an XOR key gate with key 0");
    }
}
