//! Governor × executor interaction properties: any combination of injected
//! stage fault, worker count, and cancellation timing must leave every
//! design slot in a structured state — `Done`, `Failed` with a typed
//! [`LockError`], or `Cancelled` — and must never surface a worker panic
//! or deadlock the executor.
//!
//! This is the cross-layer companion to `crates/core/tests/governor_faults.rs`:
//! that suite proves each stage fault is absorbed in isolation; this one
//! proves the absorption survives being raced across the executor's scoped
//! fan-out loop (worker threads pulling designs from one shared cursor)
//! while an external token fires at an arbitrary point.

use proptest::prelude::*;
use rtlock_exec::Executor;
use rtlock_governor::CancelToken;
use rtlock_repro::rtlock::database::DatabaseConfig;
use rtlock_repro::rtlock::governor::{Fault, FaultPlan, Stage};
use rtlock_repro::rtlock::select::SelectionSpec;
use rtlock_repro::rtlock::{
    lock_catalog_parallel, CatalogEntry, CatalogJob, DesignStatus, LockError, RtlLockConfig,
    RunBudget,
};
use std::time::Duration;

const FAULTS: [Fault; 4] = [Fault::Panic, Fault::Timeout, Fault::EmptyResult, Fault::Sabotage];

fn tiny_module(tag: u8) -> rtlock_repro::rtl::Module {
    rtlock_repro::rtl::parse(&format!(
        r#"
module gp{tag}(input clk, input rst, input [7:0] d, output reg [7:0] y);
  always @(posedge clk or posedge rst) begin
    if (rst) y <= 8'd0; else y <= (d + 8'd{}) ^ 8'h4{};
  end
endmodule"#,
        23 + tag,
        tag % 10
    ))
    .expect("module parses")
}

fn quick_config() -> RtlLockConfig {
    RtlLockConfig {
        database: DatabaseConfig { sat_probe: false, ..DatabaseConfig::default() },
        spec: SelectionSpec {
            min_resilience: 30.0,
            max_area_pct: 40.0,
            ..SelectionSpec::default()
        },
        verify_cycles: 16,
        scan: None,
        ..RtlLockConfig::default()
    }
}

/// A `Failed` slot must carry one of the flow's typed errors — the
/// catch-all here is deliberate exhaustiveness: constructing the variant
/// proves the error is structured, not a stringly panic.
fn assert_structured(name: &str, err: &LockError) {
    match err {
        LockError::NoCandidates
        | LockError::SelectionInfeasible
        | LockError::VerificationFailed { .. }
        | LockError::Scan(_)
        | LockError::Synthesis(_)
        | LockError::Simulation(_)
        | LockError::StagePanic { .. }
        | LockError::Timeout { .. }
        | LockError::LintRejected { .. } => {}
    }
    let _ = name;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_cancel_interleaving_stays_structured(
        stage_idx in 0usize..Stage::ALL.len(),
        fault_idx in 0usize..FAULTS.len(),
        threads in 1usize..5,
        cancel_sel in 0u8..5,
        cancel_delay_raw in 0u64..400,
    ) {
        // sel 0 = no external cancel; otherwise fire after the delay.
        let cancel_delay_us = (cancel_sel > 0).then_some(cancel_delay_raw);
        let stage = Stage::ALL[stage_idx];
        let fault = FAULTS[fault_idx];
        let job = CatalogJob {
            entries: (0..3)
                .map(|i| CatalogEntry {
                    name: format!("gp{i}"),
                    module: tiny_module(i),
                    config: quick_config(),
                })
                .collect(),
            budget: RunBudget::unlimited()
                .with_faults(FaultPlan::none().inject(stage, fault)),
            portfolio: None,
            retry: rtlock_store::RetryPolicy::default(),
            cache: None,
        };

        let token = CancelToken::unlimited();
        let canceller = cancel_delay_us.map(|us| {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(us));
                token.cancel();
            })
        });

        let report = lock_catalog_parallel(&job, &Executor::new(threads), &token);
        if let Some(h) = canceller {
            h.join().expect("canceller thread");
        }

        prop_assert_eq!(report.designs.len(), 3, "every slot accounted for");
        for (name, status) in &report.designs {
            match status {
                DesignStatus::Done(_) | DesignStatus::Cancelled(_) => {}
                DesignStatus::Failed(err) => assert_structured(name, err),
                DesignStatus::Replayed(r) => {
                    return Err(TestCaseError::fail(format!(
                        "design {name}: replayed status from a run with no journal: {r:?}"
                    )));
                }
                DesignStatus::Panicked(msg) => {
                    return Err(TestCaseError::fail(format!(
                        "design {name}: panic escaped the governor into the executor \
                         (stage {stage}, fault {fault:?}): {msg}"
                    )));
                }
            }
        }

        // An injected panic in particular must come back as the typed
        // StagePanic error attributed to the right stage — on every
        // design that got far enough to run it. The lint gates are the
        // exception: a panicking gate is skipped (degradation recorded,
        // stage outcome `Panicked`), not a failed flow.
        if fault == Fault::Panic && cancel_delay_us.is_none() {
            for (name, status) in &report.designs {
                match status {
                    DesignStatus::Done(summary)
                        if matches!(stage, Stage::PreLint | Stage::PostLint) =>
                    {
                        let outcome = summary
                            .report
                            .stage_outcomes
                            .iter()
                            .find(|o| o.stage == stage)
                            .unwrap_or_else(|| panic!("{name}: no outcome for {stage}"));
                        prop_assert!(
                            matches!(
                                &outcome.status,
                                rtlock_repro::rtlock::governor::StageStatus::Panicked(_)
                            ),
                            "{}: lint-gate panic not recorded in stage outcomes: {:?}",
                            name,
                            outcome
                        );
                    }
                    DesignStatus::Failed(LockError::StagePanic { stage: s, .. }) => {
                        prop_assert_eq!(*s, stage, "{}: panic attributed to wrong stage", name);
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "design {name}: injected panic at {stage} was swallowed: {other:?}"
                        )));
                    }
                }
            }
        }
    }
}
