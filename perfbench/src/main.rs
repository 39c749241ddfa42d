//! Command-line runner of the benchmark.
//!
//! ```text
//! rtlock-perfbench --workload <lock|attack|campaign>
//!                  --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output (see
//! `README.md`); failures are explained on standard error. Cross-run
//! state (canonical digests per seed) and scratch files live in
//! `.perfbench_state/` under the working directory.

use rtlock_perfbench::{run, Settings, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rtlock-perfbench --workload <lock|attack|campaign> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Least set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        state_dir: Some(PathBuf::from(".perfbench_state")),
        setup_reps: SETUP_REPS,
        only: None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rtlock-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&settings);
    for f in &outcome.failures {
        eprintln!("rtlock-perfbench: FAILED {f}");
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
