//! The gate-level netlist data structure.

use crate::gate::{Gate, GateId, GateKind};
use std::fmt;

/// Error raised when combinational gates form a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// A gate on the cycle.
    pub gate: GateId,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational cycle through gate {}", self.gate)
    }
}

impl std::error::Error for CycleError {}

/// A multi-bit port: a named group of single-bit nets, LSB first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (RTL net name).
    pub name: String,
    /// Bit nets, least significant first.
    pub bits: Vec<GateId>,
}

/// A flat single-output gate-level netlist.
///
/// Gates are stored in an append-only array; a gate's output net shares its
/// [`GateId`]. Primary inputs are gates of kind [`GateKind::Input`]; primary
/// outputs are named references to driver gates. Flip-flops use an implicit
/// global clock.
///
/// # Examples
///
/// ```
/// use rtlock_netlist::{Netlist, GateKind};
///
/// let mut n = Netlist::new("toy");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate(GateKind::Nand, vec![a, b]);
/// n.add_output("y", g);
/// assert_eq!(n.logic_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    gates: Vec<Gate>,
    gate_names: Vec<Option<String>>,
    /// Primary inputs in creation order.
    inputs: Vec<GateId>,
    /// Primary outputs: (name, driver).
    outputs: Vec<(String, GateId)>,
    /// Multi-bit input port groups (for interfacing with RTL-level values).
    pub input_ports: Vec<Port>,
    /// Multi-bit output port groups.
    pub output_ports: Vec<Port>,
    /// Inputs that are locking-key bits, in key order.
    pub key_inputs: Vec<GateId>,
    /// Scan-chain order over flip-flop gates (empty when no scan inserted).
    pub scan_chain: Vec<GateId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            gate_names: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            input_ports: Vec::new(),
            output_ports: Vec::new(),
            key_inputs: Vec::new(),
            scan_chain: Vec::new(),
        }
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(Gate::new(GateKind::Input, Vec::new()), Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Adds a gate and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the fanin count does not match the gate kind's arity or a
    /// fanin id is out of range.
    pub fn add_gate(&mut self, kind: GateKind, fanin: Vec<GateId>) -> GateId {
        for &f in &fanin {
            assert!(f.index() < self.gates.len(), "fanin {f} out of range");
        }
        self.push(Gate::new(kind, fanin), None)
    }

    /// Adds a named gate (flip-flops keep their RTL register names this way).
    pub fn add_named_gate(&mut self, kind: GateKind, fanin: Vec<GateId>, name: impl Into<String>) -> GateId {
        let id = self.add_gate(kind, fanin);
        self.gate_names[id.index()] = Some(name.into());
        id
    }

    fn push(&mut self, gate: Gate, name: Option<String>) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(gate);
        self.gate_names.push(name);
        id
    }

    /// Declares a primary output driven by `driver`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: GateId) {
        self.outputs.push((name.into(), driver));
    }

    /// Rebuilds a netlist from its raw fields (the exact byte codec's
    /// decoder, which must reproduce states — like the input order after
    /// [`Netlist::cut_dff`] — that the public construction API cannot).
    /// The caller ([`crate::codec::decode`]) validates all invariants.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        name: String,
        gates: Vec<Gate>,
        gate_names: Vec<Option<String>>,
        inputs: Vec<GateId>,
        outputs: Vec<(String, GateId)>,
        input_ports: Vec<Port>,
        output_ports: Vec<Port>,
        key_inputs: Vec<GateId>,
        scan_chain: Vec<GateId>,
    ) -> Netlist {
        Netlist {
            name,
            gates,
            gate_names,
            inputs,
            outputs,
            input_ports,
            output_ports,
            key_inputs,
            scan_chain,
        }
    }

    /// Marks an existing input as a key bit (appended to the key order).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not an [`GateKind::Input`] gate.
    pub fn mark_key_input(&mut self, input: GateId) {
        assert_eq!(self.gates[input.index()].kind, GateKind::Input, "key bits must be primary inputs");
        self.key_inputs.push(input);
    }

    /// The gate record.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate (used by optimization and locking passes).
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// Gate name if one was recorded.
    pub fn gate_name(&self, id: GateId) -> Option<&str> {
        self.gate_names[id.index()].as_deref()
    }

    /// Assigns a name to a gate.
    pub fn set_gate_name(&mut self, id: GateId, name: impl Into<String>) {
        self.gate_names[id.index()] = Some(name.into());
    }

    /// Total number of gates including inputs and constants.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// All gate ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Primary inputs in creation order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs as (name, driver) pairs.
    pub fn outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Looks up an input by name.
    pub fn find_input(&self, name: &str) -> Option<GateId> {
        self.inputs.iter().copied().find(|&i| self.gate_name(i) == Some(name))
    }

    /// All flip-flop gates in creation order.
    pub fn dffs(&self) -> Vec<GateId> {
        self.ids().filter(|&id| self.gates[id.index()].kind.is_dff()).collect()
    }

    /// Number of combinational logic gates (the paper's `#Gate` column).
    pub fn logic_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_logic()).count()
    }

    /// Fanout lists: for each gate, which gates read it.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for id in self.ids() {
            for &f in &self.gates[id.index()].fanin {
                out[f.index()].push(id);
            }
        }
        out
    }

    /// Levelizes combinational logic: level 0 for inputs/constants/DFF
    /// outputs, `1 + max(fanin)` otherwise. Returns per-gate levels.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if combinational gates form a cycle.
    pub fn levelize(&self) -> Result<Vec<u32>, CycleError> {
        let mut level = vec![u32::MAX; self.gates.len()];
        // Iterative DFS to avoid stack overflow on deep netlists.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark = vec![Mark::White; self.gates.len()];
        // One DFS stack for every root; each walk leaves it empty.
        let mut stack: Vec<(GateId, usize)> = Vec::new();
        for root in self.ids() {
            if mark[root.index()] == Mark::Black {
                continue;
            }
            stack.push((root, 0));
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                let g = &self.gates[node.index()];
                let sequential_source = !g.kind.is_logic();
                if *child == 0 {
                    if mark[node.index()] == Mark::Black {
                        stack.pop();
                        continue;
                    }
                    mark[node.index()] = Mark::Grey;
                    if sequential_source {
                        level[node.index()] = 0;
                        mark[node.index()] = Mark::Black;
                        stack.pop();
                        continue;
                    }
                }
                if *child < g.fanin.len() {
                    let next = g.fanin[*child];
                    *child += 1;
                    match mark[next.index()] {
                        Mark::White => stack.push((next, 0)),
                        Mark::Grey => return Err(CycleError { gate: next }),
                        Mark::Black => {}
                    }
                } else {
                    let lv = g.fanin.iter().map(|f| level[f.index()]).max().unwrap_or(0) + 1;
                    level[node.index()] = lv;
                    mark[node.index()] = Mark::Black;
                    stack.pop();
                }
            }
        }
        Ok(level)
    }

    /// Topological order of all gates (sources first): by level, and by id
    /// within a level.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if combinational gates form a cycle.
    pub fn topo_order(&self) -> Result<Vec<GateId>, CycleError> {
        let levels = self.levelize()?;
        // Stable counting sort: next[l] is the next free slot of level l.
        let top = levels.iter().copied().max().map_or(0, |l| l as usize + 1);
        let mut next = vec![0usize; top + 1];
        for &l in &levels {
            next[l as usize + 1] += 1;
        }
        for l in 1..next.len() {
            next[l] += next[l - 1];
        }
        let mut order = vec![GateId(0); levels.len()];
        for (id, &l) in self.ids().zip(&levels) {
            order[next[l as usize]] = id;
            next[l as usize] += 1;
        }
        Ok(order)
    }

    /// Logic depth (maximum combinational level).
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if combinational gates form a cycle.
    pub fn depth(&self) -> Result<u32, CycleError> {
        Ok(self.levelize()?.into_iter().filter(|&l| l != u32::MAX).max().unwrap_or(0))
    }

    /// Gates reachable backwards from outputs and DFF data pins (the live
    /// set). Inputs are always considered live.
    pub fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        for &i in &self.inputs {
            live[i.index()] = true;
        }
        // A gate's fanin joins the worklist when the gate becomes live; for
        // a flip-flop that is its D pin, so next-state logic is live exactly
        // when its flip-flop is. Inputs have no fanin.
        let mut stack: Vec<GateId> = self.outputs.iter().map(|&(_, g)| g).collect();
        while let Some(g) = stack.pop() {
            if live[g.index()] {
                continue;
            }
            live[g.index()] = true;
            stack.extend(self.gates[g.index()].fanin.iter().filter(|f| !live[f.index()]));
        }
        live
    }

    /// Removes gates not in the live set, remapping ids and preserving
    /// inputs, port groups, key order and scan order. Returns the number of
    /// gates removed.
    pub fn sweep_dead(&mut self) -> usize {
        let live = self.live_set();
        let removed = live.iter().filter(|&&l| !l).count();
        if removed == 0 {
            return 0;
        }
        let mut remap: Vec<Option<GateId>> = vec![None; self.gates.len()];
        let mut new_gates = Vec::with_capacity(self.gates.len() - removed);
        let mut new_names = Vec::with_capacity(self.gates.len() - removed);
        let gates = std::mem::take(&mut self.gates);
        let names = std::mem::take(&mut self.gate_names);
        for (id, (gate, name)) in gates.into_iter().zip(names).enumerate() {
            if live[id] {
                remap[id] = Some(GateId(new_gates.len() as u32));
                new_gates.push(gate);
                new_names.push(name);
            }
        }
        for g in &mut new_gates {
            for f in &mut g.fanin {
                *f = remap[f.index()].expect("live gate has live fanin");
            }
        }
        let map = |id: GateId| remap[id.index()].expect("mapped id was live");
        self.inputs = self.inputs.iter().map(|&i| map(i)).collect();
        self.outputs = self.outputs.iter().map(|(n, g)| (n.clone(), map(*g))).collect();
        self.key_inputs = self.key_inputs.iter().map(|&k| map(k)).collect();
        self.scan_chain = self.scan_chain.iter().filter(|s| live[s.index()]).map(|&s| map(s)).collect();
        for p in self.input_ports.iter_mut().chain(self.output_ports.iter_mut()) {
            for b in &mut p.bits {
                *b = map(*b);
            }
        }
        self.gates = new_gates;
        self.gate_names = new_names;
        removed
    }

    /// Converts a primary input into a constant (used by the SWEEP/SCOPE
    /// attacks to hardwire a key-bit hypothesis before re-optimizing).
    /// The gate id stays valid; the input is removed from the input list
    /// and from the key list.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not an input gate.
    pub fn convert_input_to_const(&mut self, input: GateId, value: bool) {
        assert_eq!(self.gates[input.index()].kind, GateKind::Input, "{input} is not an input");
        self.gates[input.index()].kind = if value { GateKind::Const1 } else { GateKind::Const0 };
        self.inputs.retain(|&i| i != input);
        self.key_inputs.retain(|&k| k != input);
        for p in &mut self.input_ports {
            p.bits.retain(|&b| b != input);
        }
        self.input_ports.retain(|p| !p.bits.is_empty());
    }

    /// Cuts a flip-flop for a scan view: the flop becomes a fresh primary
    /// input (pseudo-PI) and its former D driver is returned so the caller
    /// can expose it as a pseudo-PO.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop.
    pub fn cut_dff(&mut self, dff: GateId, name: impl Into<String>) -> GateId {
        assert!(self.gates[dff.index()].kind.is_dff(), "{dff} is not a flip-flop");
        let d = self.gates[dff.index()].fanin[0];
        self.gates[dff.index()] = Gate::new(GateKind::Input, Vec::new());
        self.gate_names[dff.index()] = Some(name.into());
        self.inputs.push(dff);
        self.scan_chain.retain(|&s| s != dff);
        d
    }

    /// Keeps only the primary outputs `keep` accepts (by name and
    /// driver), preserving relative order. Output *port groups* whose bits
    /// all disappear are dropped too. Used by the dataflow-pruned SAT
    /// attack to restrict a locked netlist to the outputs one key
    /// partition can influence.
    pub fn retain_outputs(&mut self, mut keep: impl FnMut(&str, GateId) -> bool) {
        self.outputs.retain(|(name, drv)| keep(name, *drv));
        let kept: std::collections::HashSet<GateId> =
            self.outputs.iter().map(|&(_, g)| g).collect();
        for p in &mut self.output_ports {
            p.bits.retain(|b| kept.contains(b));
        }
        self.output_ports.retain(|p| !p.bits.is_empty());
    }

    /// Replaces the driver of output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_output_driver(&mut self, index: usize, driver: GateId) {
        self.outputs[index].1 = driver;
    }

    /// Redirects every use of `old` (gate fanins and output drivers) to
    /// `new`, except inside the gates listed in `except`. This is the core
    /// primitive of key-gate insertion: create the key gate reading `old`,
    /// then splice it into all of `old`'s former fanout.
    ///
    /// Returns the number of pins rewired.
    pub fn replace_uses(&mut self, old: GateId, new: GateId, except: &[GateId]) -> usize {
        let mut count = 0;
        for id in 0..self.gates.len() {
            if except.contains(&GateId(id as u32)) || GateId(id as u32) == new {
                continue;
            }
            for f in &mut self.gates[id].fanin {
                if *f == old {
                    *f = new;
                    count += 1;
                }
            }
        }
        for (_, drv) in &mut self.outputs {
            if *drv == old {
                *drv = new;
                count += 1;
            }
        }
        for p in &mut self.output_ports {
            for b in &mut p.bits {
                if *b == old {
                    *b = new;
                }
            }
        }
        count
    }

    /// Emits the netlist as structural Verilog (for inspection/interop).
    pub fn to_structural_verilog(&self) -> String {
        let mut s = String::new();
        let net = |id: GateId| format!("n{}", id.0);
        let in_names: Vec<String> = self.inputs.iter().map(|&i| net(i)).collect();
        let out_names: Vec<String> = self.outputs.iter().map(|(n, _)| n.clone()).collect();
        s.push_str(&format!(
            "module {}(clk, {});\n  input clk;\n",
            self.name,
            in_names.iter().chain(out_names.iter()).cloned().collect::<Vec<_>>().join(", ")
        ));
        for n in &in_names {
            s.push_str(&format!("  input {n};\n"));
        }
        for n in &out_names {
            s.push_str(&format!("  output {n};\n"));
        }
        for id in self.ids() {
            let g = &self.gates[id.index()];
            if g.kind == GateKind::Input {
                continue;
            }
            s.push_str(&format!("  wire {};\n", net(id)));
        }
        for id in self.ids() {
            let g = &self.gates[id.index()];
            let pins: Vec<String> = g.fanin.iter().map(|&f| net(f)).collect();
            match g.kind {
                GateKind::Input => {}
                GateKind::Const0 => s.push_str(&format!("  assign {} = 1'b0;\n", net(id))),
                GateKind::Const1 => s.push_str(&format!("  assign {} = 1'b1;\n", net(id))),
                GateKind::Dff { .. } => s.push_str(&format!(
                    "  {} u{}(.CK(clk), .D({}), .Q({}));\n",
                    g.kind.cell_name(),
                    id.0,
                    pins[0],
                    net(id)
                )),
                _ => s.push_str(&format!(
                    "  {} u{}({}, {});\n",
                    g.kind.cell_name(),
                    id.0,
                    net(id),
                    pins.join(", ")
                )),
            }
        }
        for (name, drv) in &self.outputs {
            s.push_str(&format!("  assign {name} = {};\n", net(*drv)));
        }
        s.push_str("endmodule\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn half_adder() -> Netlist {
        let mut n = Netlist::new("ha");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_gate(GateKind::Xor, vec![a, b]);
        let c = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("s", s);
        n.add_output("c", c);
        n
    }

    #[test]
    fn counts() {
        let n = half_adder();
        assert_eq!(n.len(), 4);
        assert_eq!(n.logic_count(), 2);
    }

    #[test]
    fn levelize_orders_gates() {
        let mut n = half_adder();
        let s_drv = n.outputs()[0].1;
        let inv = n.add_gate(GateKind::Not, vec![s_drv]);
        n.add_output("ns", inv);
        let lv = n.levelize().unwrap();
        assert_eq!(lv[0], 0);
        assert_eq!(lv[s_drv.index()], 1);
        assert_eq!(lv[inv.index()], 2);
        assert_eq!(n.depth().unwrap(), 2);
    }

    #[test]
    fn cycle_detected() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        // Build g1 = AND(a, g2); g2 = NOT(g1) by patching fanin.
        let g1 = n.add_gate(GateKind::And, vec![a, a]);
        let g2 = n.add_gate(GateKind::Not, vec![g1]);
        n.gate_mut(g1).fanin[1] = g2;
        n.add_output("y", g2);
        assert!(n.levelize().is_err());
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut n = Netlist::new("seq");
        let d = n.add_input("d");
        let q = n.add_gate(GateKind::Dff { init: false }, vec![d]);
        let x = n.add_gate(GateKind::Xor, vec![q, d]);
        // Feed DFF from its own output's logic: q' = xor(q, d).
        n.gate_mut(q).fanin[0] = x;
        n.add_output("y", q);
        assert!(n.levelize().is_ok(), "DFF must break the loop");
        assert_eq!(n.dffs(), vec![q]);
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut n = half_adder();
        let a = n.inputs()[0];
        let dead = n.add_gate(GateKind::Not, vec![a]);
        let _dead2 = n.add_gate(GateKind::Not, vec![dead]);
        assert_eq!(n.len(), 6);
        let removed = n.sweep_dead();
        assert_eq!(removed, 2);
        assert_eq!(n.len(), 4);
        assert_eq!(n.outputs().len(), 2);
        // Ids stay valid after remap.
        assert_eq!(n.gate(n.outputs()[0].1).kind, GateKind::Xor);
    }

    #[test]
    fn sweep_keeps_dff_cones() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, vec![a]);
        let ff = n.add_gate(GateKind::Dff { init: true }, vec![inv]);
        n.add_output("q", ff);
        assert_eq!(n.sweep_dead(), 0, "everything is live through the DFF");
    }

    #[test]
    fn key_inputs_preserved_by_sweep() {
        let mut n = half_adder();
        let k = n.add_input("keyinput0");
        n.mark_key_input(k);
        let s = n.outputs()[0].1;
        let locked = n.add_gate(GateKind::Xor, vec![s, k]);
        n.replace_output_driver(0, locked);
        let _dead = n.add_gate(GateKind::Not, vec![k]);
        n.sweep_dead();
        assert_eq!(n.key_inputs.len(), 1);
        assert_eq!(n.gate_name(n.key_inputs[0]), Some("keyinput0"));
    }

    #[test]
    fn structural_verilog_mentions_cells() {
        let n = half_adder();
        let v = n.to_structural_verilog();
        assert!(v.contains("XOR2_X1"));
        assert!(v.contains("module ha"));
    }

    #[test]
    fn find_input_by_name() {
        let n = half_adder();
        assert_eq!(n.find_input("b"), Some(GateId(1)));
        assert_eq!(n.find_input("zz"), None);
    }

    /// A seeded acyclic netlist with many gates per level, flip-flops fed
    /// back from later logic, inverters appended after the gates that read
    /// them (as the optimizer's folds append them), and dead logic.
    fn random_netlist(seed: u64) -> Netlist {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new("rand");
        let inputs: Vec<GateId> = (0..rng.gen_range(1..6)).map(|i| n.add_input(format!("i{i}"))).collect();
        n.add_gate(GateKind::Const1, vec![]);
        let dffs: Vec<GateId> =
            (0..rng.gen_range(0..4)).map(|_| n.add_gate(GateKind::Dff { init: rng.gen() }, vec![inputs[0]])).collect();
        let kinds = [GateKind::Buf, GateKind::Not, GateKind::And, GateKind::Xor, GateKind::Nor, GateKind::Mux];
        for _ in 0..rng.gen_range(10..60) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let fanin = (0..kind.arity()).map(|_| GateId(rng.gen_range(0..n.len() as u32))).collect();
            let g = n.add_gate(kind, fanin);
            if rng.gen_bool(0.2) {
                // Splice a fresh inverter into one of g's pins; it reads
                // only gates g could already read, so no cycle forms.
                let pin = rng.gen_range(0..kind.arity());
                let inv = n.add_gate(GateKind::Not, vec![GateId(rng.gen_range(0..g.0))]);
                n.gate_mut(g).fanin[pin] = inv;
            }
        }
        for &d in &dffs {
            n.gate_mut(d).fanin[0] = GateId(rng.gen_range(0..n.len() as u32));
        }
        for o in 0..rng.gen_range(1..4) {
            n.add_output(format!("o{o}"), GateId(rng.gen_range(0..n.len() as u32)));
        }
        n
    }

    #[test]
    fn topo_order_is_the_stable_sort_by_level() {
        let (mut ties, mut later_fanin, mut feedback) = (0, 0, 0);
        for seed in 0..200 {
            let n = random_netlist(seed);
            let levels = n.levelize().expect("acyclic");
            let mut expected: Vec<GateId> = n.ids().collect();
            expected.sort_by_key(|g| levels[g.index()]);
            assert_eq!(n.topo_order().expect("acyclic"), expected, "seed {seed}");

            let mut per_level = HashMap::new();
            for &l in &levels {
                *per_level.entry(l).or_insert(0) += 1;
            }
            ties += per_level.values().filter(|&&c| c > 1).count();
            for id in n.ids() {
                let fanin = &n.gate(id).fanin;
                later_fanin += fanin.iter().filter(|f| f.0 > id.0).count();
                if n.gate(id).kind.is_dff() {
                    feedback += fanin.iter().filter(|f| n.gate(**f).kind.is_logic()).count();
                }
            }
        }
        assert!(ties > 0 && later_fanin > 0 && feedback > 0, "{ties} {later_fanin} {feedback}");
    }

    #[test]
    fn levelize_and_live_set_match_their_definitions() {
        for seed in 0..200 {
            let n = random_netlist(seed);
            // Level: 0 at sources, 1 + the deepest fanin otherwise,
            // iterated to its fixpoint.
            let mut levels = vec![0u32; n.len()];
            let mut moved = true;
            while moved {
                moved = false;
                for id in n.ids().filter(|&id| n.gate(id).kind.is_logic()) {
                    let l = 1 + n.gate(id).fanin.iter().map(|f| levels[f.index()]).max().unwrap_or(0);
                    moved |= l != levels[id.index()];
                    levels[id.index()] = l;
                }
            }
            assert_eq!(n.levelize().expect("acyclic"), levels, "seed {seed}");

            // Live: inputs and output drivers, closed under fanin.
            let mut live = vec![false; n.len()];
            for g in n.inputs().iter().copied().chain(n.outputs().iter().map(|&(_, g)| g)) {
                live[g.index()] = true;
            }
            let mut moved = true;
            while moved {
                moved = false;
                for id in n.ids() {
                    if live[id.index()] {
                        for f in &n.gate(id).fanin {
                            moved |= !std::mem::replace(&mut live[f.index()], true);
                        }
                    }
                }
            }
            assert_eq!(n.live_set(), live, "seed {seed}");
        }
    }
}
