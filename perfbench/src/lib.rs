//! Deterministic benchmark of the RTLock reproduction.
//!
//! Three workloads, each doing fixed work and checking every output:
//!
//! * [`lock`] — the designer's path: `lock_governed` on five designs;
//! * [`attack`] — the SAT attack until it recovers a key (b05, fibo), or
//!   up to a DIP cap below each design's solve cliff (b14, b15);
//! * [`campaign`] — the journaled catalog: lock plus the attack
//!   portfolio over two workers, with the artifact cache.
//!
//! Nothing runs against a wall-clock budget: attacks stop at DIP or DIS
//! counts, and the SAT probe of the case database (which scores cases by
//! measured time) is off. The benchmark times calls into public functions
//! from outside; timed runs record no spans, and a separate traced run
//! (`--trace 1`) replays each unit through the stage-level entry points
//! and reports the per-layer metrics of [`trace::PER_LAYER`].

pub mod attack;
pub mod campaign;
pub mod host;
pub mod lock;
pub mod stats;
pub mod trace;

use host::HostSpeed;
use stats::{digest, digest_bytes, median, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lock_governed` on b05, fibo, b14, b15 and sha1.
    Lock,
    /// `sat_attack` on the RTLock* scan views of b05 and fibo (to key
    /// recovery) and of b14 and b15 (stopped at a DIP cap).
    Attack,
    /// `lock_catalog_resumable` with the portfolio on two workers.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Lock, Workload::Attack, Workload::Campaign];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lock => "lock",
            Workload::Attack => "attack",
            Workload::Campaign => "campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed passes run (whole passes; at least one).
    pub seconds: f64,
    /// Run the traced pass instead of the timed passes.
    pub trace: bool,
    /// Directory for cross-run state (canonical digests per seed) and
    /// scratch files; `None` keeps everything in memory and uses no files.
    pub state_dir: Option<PathBuf>,
    /// Least number of set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Restricts the run to this design (smoke runs); `None` runs all.
    pub only: Option<&'static str>,
}

impl Settings {
    /// Settings for a one-unit smoke run of `design`: one pass, one
    /// set-up, no files.
    pub fn smoke(workload: Workload, design: &'static str) -> Settings {
        Settings {
            workload,
            seed: 0,
            seconds: 0.0,
            trace: false,
            state_dir: None,
            setup_reps: 1,
            only: Some(design),
        }
    }

    /// Whether `design` takes part in this run.
    pub fn includes(&self, design: &str) -> bool {
        self.only.is_none_or(|d| d == design)
    }
}

/// Runs one benchmark run and returns its outcome (metrics included).
pub fn run(s: &Settings) -> Outcome {
    match s.workload {
        Workload::Lock => lock::run(s),
        Workload::Attack => attack::run(s),
        Workload::Campaign => campaign::run(s),
    }
}

/// Set-up repeats until it has run this long in total (a cheap set-up is
/// repeated more often so its median is not one scheduler hiccup)...
const SETUP_MIN_TOTAL_S: f64 = 1.0;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 25;
/// Host-speed samples on each side of the set-up (a set-up is one timing
/// bracketed by samples, where a timed pass has one sample per unit).
const SETUP_SAMPLES: usize = 3;

/// Runs `setup` at least `reps` times (and at least once), repeating a
/// cheap set-up until it has run for a second; returns the last result
/// with the median set-up time in seconds. Samples the host's speed into
/// `host` [`SETUP_SAMPLES`] times just before and just after, so the
/// set-up time is scaled by the host's speed while it ran.
pub fn repeated_setup<T>(
    reps: usize,
    host: &mut HostSpeed,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    host.sample_times(SETUP_SAMPLES);
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1)
        || (reps > 1
            && times.len() < SETUP_MAX_REPS
            && times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S)
    {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    host.sample_times(SETUP_SAMPLES);
    (last.expect("set-up ran at least once"), median(&times))
}

/// Keeps timed work going until `seconds` have elapsed since `start`;
/// the first pass always runs to its end. The per-unit workloads ask
/// before every unit, so a run stops at most one unit after its time.
pub fn more_passes(pass: usize, start: Instant, seconds: f64) -> bool {
    pass == 0 || start.elapsed() < Duration::from_secs_f64(seconds.max(0.0))
}

/// The determinism ledger: each unit's canonical output must be the same
/// on every pass of a run and on every run of the same seed by the same
/// program. The digests of earlier runs live in the state directory, in
/// a file keyed by workload, seed and a digest of the running executable,
/// so a rebuilt program starts a fresh ledger.
#[derive(Debug)]
pub struct Ledger {
    seen: BTreeMap<String, u64>,
    stored: BTreeMap<String, u64>,
    path: Option<PathBuf>,
}

impl Ledger {
    /// Opens the ledger of `workload` at `seed`, loading earlier digests.
    pub fn open(state_dir: Option<&Path>, workload: Workload, seed: u64) -> Ledger {
        let path = state_dir.map(|d| {
            let exe = std::env::current_exe()
                .and_then(std::fs::read)
                .unwrap_or_default();
            let program = digest_bytes(&exe);
            d.join(format!("{}-{seed}-{program:016x}.digests", workload.name()))
        });
        let stored = path
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|text| {
                text.lines()
                    .filter_map(|l| {
                        let (unit, hex) = l.split_once('\t')?;
                        Some((unit.to_owned(), u64::from_str_radix(hex, 16).ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ledger {
            seen: BTreeMap::new(),
            stored,
            path,
        }
    }

    /// Checks one unit's canonical output; returns the problem, if any.
    /// The first call for a unit in this run returns `Ok(true)`.
    pub fn check(&mut self, unit: &str, canonical: &str) -> Result<bool, String> {
        let d = digest(canonical);
        if let Some(&before) = self.stored.get(unit) {
            if before != d {
                return Err(format!(
                    "canonical output {d:016x} differs from an earlier run of this seed ({before:016x})"
                ));
            }
        }
        match self.seen.get(unit) {
            None => {
                self.seen.insert(unit.to_owned(), d);
                Ok(true)
            }
            Some(&before) if before == d => Ok(false),
            Some(&before) => Err(format!(
                "canonical output {d:016x} differs from an earlier pass ({before:016x})"
            )),
        }
    }

    /// Stores this run's digests for later runs of the same seed; a
    /// failure to store is reported and does not fail the run.
    pub fn save(&self) {
        if let Err(e) = self.write() {
            eprintln!("rtlock-perfbench: cannot store canonical digests: {e}");
        }
    }

    /// Writes the digests (to a temporary file, then renamed, so a killed
    /// run leaves no torn file). Units already stored keep their first
    /// digest.
    fn write(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut all = self.stored.clone();
        for (unit, d) in &self.seen {
            all.entry(unit.clone()).or_insert(*d);
        }
        if all == self.stored {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text: String = all
            .iter()
            .map(|(u, d)| format!("{u}\t{d:016x}\n"))
            .collect();
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn repeated_setup_repeats_cheap_setups_and_reports_the_median() {
        let mut host = HostSpeed::default();
        let mut calls = 0;
        let (last, secs) = repeated_setup(1, &mut host, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (1, 1));
        assert!(secs >= 0.0);
        let mut cheap = 0;
        repeated_setup(3, &mut host, || cheap += 1);
        assert_eq!(cheap, SETUP_MAX_REPS);
        let mut slow = 0;
        repeated_setup(3, &mut host, || {
            slow += 1;
            std::thread::sleep(Duration::from_millis(400));
        });
        assert_eq!(slow, 3);
    }

    #[test]
    fn ledger_flags_changes_between_passes_and_runs() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = Ledger::open(Some(&dir), Workload::Lock, 7);
        assert_eq!(first.check("b05", "key=1"), Ok(true));
        assert_eq!(first.check("b05", "key=1"), Ok(false));
        assert!(first.check("b05", "key=0").is_err());
        first.write().unwrap();
        let mut second = Ledger::open(Some(&dir), Workload::Lock, 7);
        assert_eq!(second.check("b05", "key=1"), Ok(true));
        assert!(second.check("fibo", "x").is_ok());
        let mut other = Ledger::open(Some(&dir), Workload::Lock, 7);
        assert!(
            other.check("b05", "key=0").is_err(),
            "a later run of the seed disagrees"
        );
        let mut other_seed = Ledger::open(Some(&dir), Workload::Lock, 8);
        assert_eq!(other_seed.check("b05", "key=0"), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
