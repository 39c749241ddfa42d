//! Power/performance/area model.
//!
//! A stand-in for post-layout analysis with a commercial flow on the
//! NanGate 15 nm library (what the paper uses for Table VI). Per-cell area,
//! intrinsic delay and switching energy constants approximate that library's
//! X1 drive cells; absolute numbers are indicative, but *relative* overheads
//! (locked vs original) — which is what Table VI reports — are meaningful.

use crate::gate::GateKind;
use crate::netlist::Netlist;
use crate::sim::NetSim;

/// Per-cell characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Intrinsic delay in ns.
    pub delay_ns: f64,
    /// Dynamic energy per output toggle in fJ.
    pub energy_fj: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
}

/// Returns the library entry for a gate kind.
pub fn cell_spec(kind: GateKind) -> CellSpec {
    // Loosely calibrated to NanGate 15 nm OCL X1 cells.
    match kind {
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            CellSpec { area_um2: 0.0, delay_ns: 0.0, energy_fj: 0.0, leakage_nw: 0.0 }
        }
        GateKind::Buf => CellSpec { area_um2: 0.196, delay_ns: 0.011, energy_fj: 0.35, leakage_nw: 1.3 },
        GateKind::Not => CellSpec { area_um2: 0.147, delay_ns: 0.007, energy_fj: 0.25, leakage_nw: 1.0 },
        GateKind::And => CellSpec { area_um2: 0.294, delay_ns: 0.016, energy_fj: 0.55, leakage_nw: 1.9 },
        GateKind::Nand => CellSpec { area_um2: 0.245, delay_ns: 0.012, energy_fj: 0.45, leakage_nw: 1.6 },
        GateKind::Or => CellSpec { area_um2: 0.294, delay_ns: 0.017, energy_fj: 0.55, leakage_nw: 1.9 },
        GateKind::Nor => CellSpec { area_um2: 0.245, delay_ns: 0.013, energy_fj: 0.45, leakage_nw: 1.6 },
        GateKind::Xor => CellSpec { area_um2: 0.441, delay_ns: 0.022, energy_fj: 0.85, leakage_nw: 2.8 },
        GateKind::Xnor => CellSpec { area_um2: 0.441, delay_ns: 0.022, energy_fj: 0.85, leakage_nw: 2.8 },
        GateKind::Mux => CellSpec { area_um2: 0.539, delay_ns: 0.024, energy_fj: 0.95, leakage_nw: 3.2 },
        GateKind::Dff { .. } => CellSpec { area_um2: 1.176, delay_ns: 0.045, energy_fj: 2.6, leakage_nw: 7.5 },
    }
}

/// Extra area of a scan flip-flop over a plain one (the built-in scan mux).
pub const SCAN_DFF_AREA_PREMIUM_UM2: f64 = 0.35;
/// Extra intrinsic delay a scan mux adds in front of a scanned flop.
pub const SCAN_DFF_DELAY_PREMIUM_NS: f64 = 0.006;

/// A post-"layout" PPA report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaReport {
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
    /// Total power (dynamic + leakage) in mW at the given clock.
    pub power_mw: f64,
}

impl PpaReport {
    /// Percentage overhead of `self` relative to `base`, per metric:
    /// `(area %, delay %, power %)`.
    pub fn overhead_vs(&self, base: &PpaReport) -> (f64, f64, f64) {
        let pct = |a: f64, b: f64| if b == 0.0 { 0.0 } else { (a - b) / b * 100.0 };
        (
            pct(self.area_um2, base.area_um2),
            pct(self.delay_ns, base.delay_ns),
            pct(self.power_mw, base.power_mw),
        )
    }
}

/// Analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaConfig {
    /// Clock frequency in MHz for dynamic power.
    pub clock_mhz: f64,
    /// Simulation rounds for activity estimation.
    pub activity_rounds: usize,
    /// PRNG seed for activity estimation.
    pub seed: u64,
}

impl Default for PpaConfig {
    fn default() -> Self {
        PpaConfig { clock_mhz: 500.0, activity_rounds: 64, seed: 0xC0FFEE }
    }
}

/// Total cell area in µm²: the sum of cell areas, plus the scan-mux
/// premium for every scanned flop. This is [`analyze`]'s `area_um2`, bit
/// for bit, without its timing pass and activity simulation.
pub fn area_um2(netlist: &Netlist) -> f64 {
    let mut area = 0.0;
    for id in netlist.ids() {
        area += cell_spec(netlist.gate(id).kind).area_um2;
    }
    area + netlist.scan_chain.len() as f64 * SCAN_DFF_AREA_PREMIUM_UM2
}

/// Computes the PPA report for a netlist.
///
/// Area is [`area_um2`]; delay is the worst combinational path through
/// per-cell intrinsic delays plus a flop premium when its start/end points
/// are scanned; power combines activity-weighted dynamic energy at
/// `clock_mhz` with cell leakage.
pub fn analyze(netlist: &Netlist, config: &PpaConfig) -> PpaReport {
    let area = area_um2(netlist);

    // Critical path via DP over topological order.
    let mut arrival = vec![0.0f64; netlist.len()];
    let order = netlist.topo_order().unwrap_or_else(|_| netlist.ids().collect());
    let scan_premium = |id| {
        if netlist.scan_chain.contains(&id) {
            SCAN_DFF_DELAY_PREMIUM_NS
        } else {
            0.0
        }
    };
    for &id in &order {
        let g = netlist.gate(id);
        let spec = cell_spec(g.kind);
        let at = if g.kind.is_logic() {
            g.fanin.iter().map(|f| arrival[f.index()]).fold(0.0, f64::max) + spec.delay_ns
        } else if g.kind.is_dff() {
            spec.delay_ns + scan_premium(id)
        } else {
            0.0
        };
        arrival[id.index()] = at;
    }
    // Paths end at DFF D pins and primary outputs; collect after all
    // arrivals are final (DFFs are level-0 sources and would otherwise be
    // visited before their fanin cones).
    let mut worst: f64 = 0.0;
    for &id in &order {
        let g = netlist.gate(id);
        if g.kind.is_dff() {
            let d_arr = arrival[g.fanin[0].index()];
            worst = worst.max(d_arr + cell_spec(g.kind).delay_ns + scan_premium(id));
        }
    }
    for &(_, drv) in netlist.outputs() {
        worst = worst.max(arrival[drv.index()]);
    }

    // Power.
    let mut power_mw = 0.0;
    match NetSim::new(netlist) {
        Ok(mut sim) => {
            let act = sim.toggle_activity(config.activity_rounds, config.seed);
            for id in netlist.ids() {
                let spec = cell_spec(netlist.gate(id).kind);
                // energy_fj * toggles/cycle * cycles/sec = fJ/s = 1e-12 mW
                power_mw += spec.energy_fj * act[id.index()] * config.clock_mhz * 1e6 * 1e-12;
                power_mw += spec.leakage_nw * 1e-6;
            }
        }
        Err(_) => {
            for id in netlist.ids() {
                let spec = cell_spec(netlist.gate(id).kind);
                power_mw += spec.energy_fj * 0.1 * config.clock_mhz * 1e6 * 1e-12 + spec.leakage_nw * 1e-6;
            }
        }
    }

    PpaReport { area_um2: area, delay_ns: worst, power_mw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::Netlist;

    fn chain(len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut cur = a;
        for _ in 0..len {
            cur = n.add_gate(GateKind::Nand, vec![cur, b]);
        }
        n.add_output("y", cur);
        n
    }

    #[test]
    fn area_scales_with_gate_count() {
        let small = analyze(&chain(4), &PpaConfig::default());
        let large = analyze(&chain(40), &PpaConfig::default());
        assert!(large.area_um2 > small.area_um2 * 5.0);
    }

    #[test]
    fn delay_scales_with_depth() {
        let shallow = analyze(&chain(4), &PpaConfig::default());
        let deep = analyze(&chain(40), &PpaConfig::default());
        assert!((deep.delay_ns / shallow.delay_ns) > 5.0);
    }

    #[test]
    fn scan_premium_adds_area() {
        let mut n = Netlist::new("t");
        let d = n.add_input("d");
        let q = n.add_gate(GateKind::Dff { init: false }, vec![d]);
        n.add_output("q", q);
        let plain = analyze(&n, &PpaConfig::default());
        let mut scanned = n.clone();
        scanned.scan_chain = vec![q];
        let scan = analyze(&scanned, &PpaConfig::default());
        assert!(scan.area_um2 > plain.area_um2);
    }

    #[test]
    fn area_um2_is_the_report_area() {
        let mut n = chain(12);
        let d = n.add_gate(GateKind::Dff { init: false }, vec![n.outputs()[0].1]);
        n.scan_chain = vec![d];
        assert_eq!(area_um2(&n).to_bits(), analyze(&n, &PpaConfig::default()).area_um2.to_bits());
    }

    #[test]
    fn overhead_is_relative() {
        let base = PpaReport { area_um2: 100.0, delay_ns: 1.0, power_mw: 2.0 };
        let bigger = PpaReport { area_um2: 115.0, delay_ns: 1.1, power_mw: 2.0 };
        let (a, d, p) = bigger.overhead_vs(&base);
        assert!((a - 15.0).abs() < 1e-9);
        assert!((d - 10.0).abs() < 1e-6);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn power_positive_for_active_circuit() {
        let r = analyze(&chain(10), &PpaConfig::default());
        assert!(r.power_mw > 0.0);
    }

    #[test]
    fn sequential_paths_counted() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let mut cur = a;
        for _ in 0..8 {
            cur = n.add_gate(GateKind::Xor, vec![cur, a]);
        }
        let ff = n.add_gate(GateKind::Dff { init: false }, vec![cur]);
        n.add_output("q", ff);
        let r = analyze(&n, &PpaConfig::default());
        assert!(r.delay_ns > 8.0 * 0.02, "path into the flop dominates");
    }
}
