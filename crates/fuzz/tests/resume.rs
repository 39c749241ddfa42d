//! Checkpoint/resume acceptance for the fuzzing campaign: a journaled
//! run interrupted after any prefix of its chunk completions resumes to
//! a report byte-identical to an uninterrupted run — divergence text
//! included — at any job count.
//!
//! The optimizer-miscompile injection flag is process-global, so this
//! file runs as its own test binary (like `injected_bug.rs`) and its tests
//! serialize on one mutex.

use rtlock::journal::CampaignJournal;
use rtlock_fuzz::oracle::OracleConfig;
use rtlock_fuzz::{run_fuzz, run_fuzz_resumable, FuzzConfig, FuzzReport};
use rtlock_governor::CancelToken;
use rtlock_synth::opt::inject;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the binary: one test arms the injection flag, which must
/// not leak into the other test's campaign.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

type Digest = (u64, u64, bool, Vec<(u64, String, String, String)>);

fn digest(r: &FuzzReport) -> Digest {
    (
        r.executed,
        r.incomplete,
        r.cancelled,
        r.divergences
            .iter()
            .map(|d| (d.seed, d.layer.to_string(), d.detail.clone(), d.shrunk_source.clone()))
            .collect(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtlock_fuzz_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_journaled(cfg: &FuzzConfig, path: &Path, jobs: usize) -> FuzzReport {
    let (mut journal, recovery) = CampaignJournal::open(path).expect("open journal");
    run_fuzz_resumable(
        cfg,
        &rtlock_exec::Executor::new(jobs),
        &CancelToken::unlimited(),
        &mut journal,
        &recovery.events,
    )
}

#[test]
fn resumed_campaign_is_byte_identical_at_any_prefix() {
    let _guard = serial();
    // Armed miscompile so the journal carries real divergences (detail +
    // shrunk source) through the replay path, not just counters.
    let cfg = FuzzConfig {
        seed: 1,
        iters: 40,
        oracle: OracleConfig { check_locked: false, ..OracleConfig::default() },
        ..FuzzConfig::default()
    };
    inject::set_opt_mux_bug(true);
    let outcome = std::panic::catch_unwind(|| {
        let baseline = run_fuzz(&cfg, &CancelToken::unlimited());
        assert!(
            !baseline.divergences.is_empty(),
            "armed bug must diverge for the replay path to be exercised"
        );

        let dir = temp_dir("prefix");
        let full_path = dir.join("full.journal");
        let full = run_journaled(&cfg, &full_path, 2);
        assert_eq!(digest(&full), digest(&baseline), "fresh journaled run");

        // Replay from every interruption point: a journal holding the
        // first k events is exactly what a kill after the k-th append
        // leaves behind (the store heals any torn tail first).
        let (_, recovery) = CampaignJournal::open(&full_path).expect("reopen");
        let events = recovery.events;
        assert!(!events.is_empty());
        for k in 0..=events.len() {
            let path = dir.join(format!("prefix{k}.journal"));
            {
                let (mut journal, _) = CampaignJournal::open(&path).expect("open prefix");
                for event in &events[..k] {
                    journal.append(event).expect("seed prefix");
                }
            }
            for jobs in [1, 3] {
                let resumed = run_journaled(&cfg, &path, jobs);
                assert_eq!(
                    digest(&resumed),
                    digest(&baseline),
                    "prefix {k}/{} jobs {jobs}",
                    events.len()
                );
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    });
    inject::set_opt_mux_bug(false);
    if let Err(p) = outcome {
        std::panic::resume_unwind(p);
    }
}

#[test]
fn fully_replayed_campaign_executes_nothing_new() {
    let _guard = serial();
    let cfg = FuzzConfig { seed: 5, iters: 24, ..FuzzConfig::default() };
    let dir = temp_dir("noop");
    let path = dir.join("fuzz.journal");
    let first = run_journaled(&cfg, &path, 2);

    let (mut journal, recovery) = CampaignJournal::open(&path).expect("reopen");
    let resumed = run_fuzz_resumable(
        &cfg,
        &rtlock_exec::Executor::new(2),
        &CancelToken::unlimited(),
        &mut journal,
        &recovery.events,
    );
    assert_eq!(digest(&resumed), digest(&first));
    assert_eq!(journal.appended(), 0, "a fully replayed campaign appends nothing");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
