//! Hash-consing gate builder with on-the-fly constant folding.
//!
//! Every gate created through [`GateBuilder`] is structurally hashed and
//! algebraically simplified, so elaboration directly produces a reasonably
//! optimized netlist — mimicking what a synthesis tool's technology-
//! independent optimization achieves. This matters for the paper's ML-attack
//! argument: key gates inserted *at RTL* are optimized together with the
//! rest of the design instead of being bolted onto an already-minimal
//! netlist.

use crate::strash::StrashTable;
use rtlock_netlist::{GateId, GateKind, Netlist};

/// Netlist construction wrapper with structural hashing.
///
/// # Examples
///
/// ```
/// use rtlock_synth::GateBuilder;
///
/// let mut b = GateBuilder::new("demo");
/// let x = b.input("x");
/// let y = b.input("y");
/// let g1 = b.and(x, y);
/// let g2 = b.and(y, x);
/// assert_eq!(g1, g2, "commutative ops are hash-consed");
/// let t = b.constant(true);
/// assert_eq!(b.and(x, t), x, "AND with 1 folds away");
/// ```
#[derive(Debug, Clone)]
pub struct GateBuilder {
    netlist: Netlist,
    strash: StrashTable,
    zero: Option<GateId>,
    one: Option<GateId>,
}

impl GateBuilder {
    /// Creates a builder for a new netlist.
    pub fn new(name: impl Into<String>) -> GateBuilder {
        GateBuilder::from_netlist(Netlist::new(name))
    }

    /// Wraps an existing netlist (hash table starts empty, so only new
    /// gates get consed).
    pub fn from_netlist(netlist: Netlist) -> GateBuilder {
        GateBuilder { netlist, strash: StrashTable::default(), zero: None, one: None }
    }

    /// Finishes building, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Read access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access (port bookkeeping, outputs, key marking).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        self.netlist.add_input(name)
    }

    /// The shared constant gate for `value`.
    pub fn constant(&mut self, value: bool) -> GateId {
        if value {
            if let Some(g) = self.one {
                return g;
            }
            let g = self.netlist.add_gate(GateKind::Const1, vec![]);
            self.one = Some(g);
            g
        } else {
            if let Some(g) = self.zero {
                return g;
            }
            let g = self.netlist.add_gate(GateKind::Const0, vec![]);
            self.zero = Some(g);
            g
        }
    }

    fn const_of(&self, g: GateId) -> Option<bool> {
        match self.netlist.gate(g).kind {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            _ => None,
        }
    }

    fn raw(&mut self, kind: GateKind, fanin: &[GateId]) -> GateId {
        self.strash.find_or_insert_with(kind, fanin, || self.netlist.add_gate(kind, fanin.to_vec()))
    }

    /// Inverter with folding (`!!a = a`, constants fold).
    pub fn not(&mut self, a: GateId) -> GateId {
        if let Some(c) = self.const_of(a) {
            return self.constant(!c);
        }
        if self.netlist.gate(a).kind == GateKind::Not {
            return self.netlist.gate(a).fanin[0];
        }
        self.raw(GateKind::Not, &[a])
    }

    /// 2-input AND with folding.
    pub fn and(&mut self, a: GateId, b: GateId) -> GateId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => return self.constant(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.raw(GateKind::And, &[x, y])
    }

    /// 2-input OR with folding.
    pub fn or(&mut self, a: GateId, b: GateId) -> GateId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => return self.constant(true),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.raw(GateKind::Or, &[x, y])
    }

    /// 2-input XOR with folding.
    pub fn xor(&mut self, a: GateId, b: GateId) -> GateId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.constant(false);
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.raw(GateKind::Xor, &[x, y])
    }

    /// XNOR via XOR + NOT (keeps the hash-cons space small).
    pub fn xnor(&mut self, a: GateId, b: GateId) -> GateId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// NAND via AND + NOT.
    pub fn nand(&mut self, a: GateId, b: GateId) -> GateId {
        let x = self.and(a, b);
        self.not(x)
    }

    /// NOR via OR + NOT.
    pub fn nor(&mut self, a: GateId, b: GateId) -> GateId {
        let x = self.or(a, b);
        self.not(x)
    }

    /// 2:1 mux (`sel ? b : a`) with folding.
    pub fn mux(&mut self, sel: GateId, a: GateId, b: GateId) -> GateId {
        if let Some(c) = self.const_of(sel) {
            return if c { b } else { a };
        }
        if a == b {
            return a;
        }
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), Some(true)) => return sel,
            (Some(true), Some(false)) => return self.not(sel),
            (Some(false), None) => return self.and(sel, b),
            (None, Some(false)) => {
                let ns = self.not(sel);
                return self.and(ns, a);
            }
            (Some(true), None) => {
                let ns = self.not(sel);
                return self.or(ns, b);
            }
            (None, Some(true)) => return self.or(sel, a),
            _ => {}
        }
        self.raw(GateKind::Mux, &[sel, a, b])
    }

    /// Creates a flip-flop with a placeholder D pin (wire it later with
    /// [`GateBuilder::set_dff_input`]). Flip-flops are never hash-consed.
    pub fn dff(&mut self, init: bool, name: impl Into<String>) -> GateId {
        let placeholder = self.constant(false);
        self.netlist.add_named_gate(GateKind::Dff { init }, vec![placeholder], name)
    }

    /// Connects a flip-flop's D pin.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop.
    pub fn set_dff_input(&mut self, dff: GateId, d: GateId) {
        assert!(self.netlist.gate(dff).kind.is_dff(), "{dff} is not a flip-flop");
        self.netlist.gate_mut(dff).fanin[0] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_shared() {
        let mut b = GateBuilder::new("t");
        assert_eq!(b.constant(true), b.constant(true));
        assert_eq!(b.constant(false), b.constant(false));
        assert_ne!(b.constant(true), b.constant(false));
    }

    #[test]
    fn folding_rules() {
        let mut b = GateBuilder::new("t");
        let x = b.input("x");
        let t = b.constant(true);
        let f = b.constant(false);
        assert_eq!(b.and(x, f), f);
        assert_eq!(b.or(x, t), t);
        assert_eq!(b.xor(x, f), x);
        let nx = b.not(x);
        assert_eq!(b.xor(x, t), nx);
        assert_eq!(b.not(nx), x, "double negation");
        assert_eq!(b.and(x, x), x);
        let zero = b.xor(x, x);
        assert_eq!(b.const_of(zero), Some(false));
    }

    #[test]
    fn mux_folds() {
        let mut b = GateBuilder::new("t");
        let s = b.input("s");
        let x = b.input("x");
        let t = b.constant(true);
        let f = b.constant(false);
        assert_eq!(b.mux(t, x, f), f, "const select picks branch");
        assert_eq!(b.mux(s, x, x), x);
        assert_eq!(b.mux(s, f, t), s, "0/1 mux is the select itself");
        let and_sx = b.and(s, x);
        assert_eq!(b.mux(s, f, x), and_sx);
    }

    #[test]
    fn strash_dedupes_structurally() {
        let mut b = GateBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.xor(x, y);
        let g2 = b.xor(y, x);
        assert_eq!(g1, g2);
        let n1 = b.nand(x, y);
        let n2 = b.nand(x, y);
        assert_eq!(n1, n2);
        assert_eq!(b.netlist().logic_count(), 3, "one xor, one and, one shared not");
    }

    #[test]
    fn dffs_not_consed() {
        let mut b = GateBuilder::new("t");
        let d1 = b.dff(false, "r0");
        let d2 = b.dff(false, "r1");
        assert_ne!(d1, d2);
        let x = b.input("x");
        b.set_dff_input(d1, x);
        assert_eq!(b.netlist().gate(d1).fanin[0], x);
    }
}
