//! Regression pins for the attack outcomes on real catalog designs.
//!
//! Each design is locked under its paper configuration
//! (`rtlock_bench::rtlock_config`) with the SAT and ML probes off, and the
//! exact canonical outcome of one attack is asserted: the recovered key,
//! the DIP count and the deterministic counters. The outcome depends on
//! every decision the solver makes, so any change to the solver's default
//! search, the miter encoding or the DIP loop fails this test. A change
//! that alters the outcome on purpose must update the strings here.

use rtlock::{AttackSurface, LockedDesign};
use rtlock_attacks::bmc_attack::BmcConfig;
use rtlock_attacks::portfolio::{
    portfolio_attack_sequential, PortfolioConfig, PortfolioMember, PortfolioTarget,
};
use rtlock_attacks::{sat_attack, AttackConfig};
use rtlock_governor::CancelToken;

/// Locks `name` under its paper configuration, probes off.
fn lock(name: &str, with_scan: bool) -> LockedDesign {
    let mut config = rtlock_bench::rtlock_config(name, with_scan);
    config.database.sat_probe = false;
    config.database.ml_probe = false;
    let module = rtlock_designs::by_name(name).expect("catalog design").module().expect("parses");
    rtlock::lock(&module, &config).expect("locks")
}

/// The canonical `sat_attack` outcome on the full-scan view of `name`
/// locked without scan locking.
fn sat_outcome(name: &str) -> String {
    match lock(name, false).attack_surface(None).expect("surface") {
        AttackSurface::CombinationalViews { locked, original } => {
            sat_attack(&locked, &original, &AttackConfig::default()).canonical()
        }
        AttackSurface::SequentialOnly { .. } => panic!("{name}: scan view not exposed"),
    }
}

#[test]
fn sat_attack_outcome_on_b05_is_pinned() {
    assert_eq!(
        sat_outcome("b05"),
        "key-found(key=010101111010101111, iterations=3, queries=3, simulated=0, dips=3+0)"
    );
}

#[test]
fn sat_attack_outcome_on_fibo_is_pinned() {
    assert_eq!(
        sat_outcome("fibo"),
        "key-found(key=111101100010010111, iterations=3, queries=3, simulated=0, dips=3+0)"
    );
}

#[test]
fn bmc_member_outcome_on_scan_locked_fibo_is_pinned() {
    let (locked, original) = match lock("fibo", true).attack_surface(None).expect("surface") {
        AttackSurface::SequentialOnly { locked, original } => (locked, original),
        AttackSurface::CombinationalViews { .. } => panic!("fibo: scan not locked"),
    };
    let target = PortfolioTarget { comb: None, seq: Some((&locked, &original)) };
    let config = PortfolioConfig {
        bmc: BmcConfig { max_iterations: 4, timeout: None, ..BmcConfig::default() },
        ..PortfolioConfig::default()
    };
    let verdict = portfolio_attack_sequential(&target, &config, &CancelToken::unlimited());
    let bmc = config.members.iter().position(|&m| m == PortfolioMember::Bmc).expect("bmc member");
    assert_eq!(verdict.winner, Some(bmc));
    assert_eq!(
        verdict.outcomes[bmc].1.canonical(),
        "key-found(key=111101100010010111, iterations=3, queries=3, simulated=0, dips=3+0)"
    );
}
