//! Fault-coverage estimation with graceful ATPG→SCOAP degradation.
//!
//! Scan-policy evaluation wants the fault coverage of a (scan-view)
//! netlist. The exact answer comes from [`rtlock_atpg::run_atpg`], which
//! can be expensive; when its budget fires mid-run
//! ([`AtpgReport::aborted_early`](rtlock_atpg::AtpgReport::aborted_early))
//! this module substitutes a SCOAP-only structural estimate instead of
//! reporting the misleading partial number.

use rtlock_atpg::{run_atpg, AtpgConfig};
use rtlock_netlist::{scoap, Netlist};

/// A fault-coverage number plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityEstimate {
    /// Estimated fault coverage in `0..=1`.
    pub coverage: f64,
    /// `true` when the number came from a completed ATPG run; `false`
    /// when the run aborted on its budget and the SCOAP structural
    /// estimate was substituted.
    pub exact: bool,
}

/// SCOAP opacity above which a net is considered hard for ATPG. The
/// engine's default backtrack budget resolves nets well past this, so the
/// estimate is deliberately conservative only on deeply buried logic.
const HARD_OPACITY: u64 = 64;

/// Runs ATPG under `config` (including its cancel token); if the engine
/// aborts early, falls back to the SCOAP estimate of
/// [`scoap_coverage_estimate`].
pub fn coverage_with_fallback(
    netlist: &Netlist,
    key_constraint_sets: &[Vec<bool>],
    config: &AtpgConfig,
) -> TestabilityEstimate {
    let report = run_atpg(netlist, key_constraint_sets, config);
    if !report.aborted_early {
        return TestabilityEstimate { coverage: report.fault_coverage(), exact: true };
    }
    TestabilityEstimate { coverage: scoap_coverage_estimate(netlist), exact: false }
}

/// Structural coverage estimate: the fraction of nets whose combined
/// SCOAP controllability + observability cost stays below
/// `HARD_OPACITY` (64). No patterns are generated — this is the degraded
/// answer when the ATPG budget is gone.
pub fn scoap_coverage_estimate(netlist: &Netlist) -> f64 {
    let measures = scoap::analyze(netlist);
    let total = netlist.len();
    if total == 0 {
        return 1.0;
    }
    let easy = netlist.ids().filter(|&g| measures.opacity(g) < HARD_OPACITY).count();
    easy as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_governor::{CancelToken, Deadline};
    use rtlock_synth::{elaborate, optimize, scan, scan_view};
    use std::time::Duration;

    fn comb_view() -> Netlist {
        let m = rtlock_rtl::parse(
            "module t(input clk, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(posedge clk) y <= (a + b) ^ {a[1], b[2], a[3], b[0]};\nendmodule",
        )
        .unwrap();
        let mut n = elaborate(&m).unwrap();
        optimize(&mut n);
        scan::insert_full_scan(&mut n);
        scan_view(&n).netlist
    }

    #[test]
    fn completed_atpg_is_reported_exact() {
        let n = comb_view();
        let est = coverage_with_fallback(&n, &[], &AtpgConfig::default());
        assert!(est.exact);
        assert!(est.coverage > 0.9, "coverage {}", est.coverage);
    }

    #[test]
    fn aborted_atpg_falls_back_to_scoap() {
        let n = comb_view();
        let cfg = AtpgConfig {
            cancel: CancelToken::with_deadline(Deadline::after(Duration::ZERO)),
            ..AtpgConfig::default()
        };
        let est = coverage_with_fallback(&n, &[], &cfg);
        assert!(!est.exact, "expired budget must be flagged as an estimate");
        assert!(est.coverage > 0.0 && est.coverage <= 1.0, "estimate {}", est.coverage);
        assert_eq!(est.coverage, scoap_coverage_estimate(&n));
    }
}
