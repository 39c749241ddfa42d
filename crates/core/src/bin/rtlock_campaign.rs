//! `rtlock-campaign` — journaled catalog campaigns with checkpoint/resume.
//!
//! ```text
//! rtlock-campaign --journal <file> [--designs a,b,c | --tiny N]
//!                 [--threads N] [--retries N] [--retry-base-ms MS]
//!                 [--attacks] [--out FILE] [--crash-after-events N]
//! ```
//!
//! Runs the lock→verify(→attack) pipeline over a set of designs,
//! checkpointing every design's final status into a crash-safe journal.
//! Rerunning the same command with the same journal resumes: completed
//! designs replay from the journal byte-for-byte and only the rest
//! execute. The canonical report (stdout, or `--out` via an atomic
//! write) is identical whether the campaign ran uninterrupted or was
//! killed and resumed any number of times, at any thread count.
//!
//! `--crash-after-events N` arms the crash-injection hook: the process
//! aborts right after the N-th journal append. The crash-recovery suite
//! drives kill-and-resume cycles through it.
//!
//! Exit codes: 0 = every design completed, 1 = some design failed,
//! 2 = usage or journal I/O error.

use rtlock::database::DatabaseConfig;
use rtlock::journal::CampaignJournal;
use rtlock::select::SelectionSpec;
use rtlock::{
    lock_catalog_resumable, CatalogEntry, CatalogJob, RtlLockConfig, RunBudget,
};
use rtlock_governor::CancelToken;
use rtlock_store::RetryPolicy;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: rtlock-campaign --journal <file> [options]

options:
  --journal <file>    campaign journal (created if missing; an existing
                      journal resumes the campaign it records)
  --designs <a,b,c>   named benchmarks from the design catalog
  --tiny <n>          n built-in synthetic designs (self-test corpus)
  --threads <n>       worker threads (default 1; 0 = one per core; at
                      most 256)
  --retries <n>       max attempts per design (default 1 = no retry)
  --retry-base-ms <n> base backoff in milliseconds (default 10)
  --attacks           run the attack portfolio on each locked design
  --out <file>        write the canonical report here (atomic) instead
                      of stdout
  --crash-after-events <n>
                      abort() after the n-th journal append (crash-
                      recovery self-test)
  --help              print this help
";

struct Args {
    journal: std::path::PathBuf,
    designs: Vec<String>,
    tiny: usize,
    threads: usize,
    retries: u32,
    retry_base_ms: u64,
    attacks: bool,
    out: Option<std::path::PathBuf>,
    crash_after: Option<u64>,
}

/// Parses the arguments after the program name. `Err("")` asks for the
/// help text; any other `Err` is a usage error.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut journal = None;
    let mut designs = Vec::new();
    let mut tiny = 0usize;
    let mut threads = 1usize;
    let mut retries = 1u32;
    let mut retry_base_ms = 10u64;
    let mut attacks = false;
    let mut out = None;
    let mut crash_after = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--journal" => journal = Some(value(&mut i, "--journal")?.into()),
            "--designs" => {
                designs = value(&mut i, "--designs")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--tiny" => {
                tiny = value(&mut i, "--tiny")?.parse().map_err(|e| format!("--tiny: {e}"))?;
            }
            "--threads" => {
                threads =
                    value(&mut i, "--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--retries" => {
                retries =
                    value(&mut i, "--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--retry-base-ms" => {
                retry_base_ms = value(&mut i, "--retry-base-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-base-ms: {e}"))?;
            }
            "--attacks" => attacks = true,
            "--out" => out = Some(value(&mut i, "--out")?.into()),
            "--crash-after-events" => {
                crash_after = Some(
                    value(&mut i, "--crash-after-events")?
                        .parse()
                        .map_err(|e| format!("--crash-after-events: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    let journal = journal.ok_or("--journal is required")?;
    if designs.is_empty() && tiny == 0 {
        return Err("need --designs or --tiny".into());
    }
    if threads > rtlock_exec::MAX_THREADS {
        return Err(format!("--threads: at most {} workers", rtlock_exec::MAX_THREADS));
    }
    Ok(Args { journal, designs, tiny, threads, retries, retry_base_ms, attacks, out, crash_after })
}

/// A small synthetic design corpus: deterministic, quick to lock, shaped
/// like the catalog determinism tests' modules.
fn tiny_entry(index: usize) -> CatalogEntry {
    let source = format!(
        r#"
module tiny{index}(input clk, input rst, input [7:0] d, output reg [7:0] y);
  always @(posedge clk or posedge rst) begin
    if (rst) y <= 8'd0; else y <= (d + 8'd{}) ^ 8'h2{};
  end
endmodule"#,
        13 + index,
        index % 10
    );
    let config = RtlLockConfig {
        database: DatabaseConfig { sat_probe: false, ..DatabaseConfig::default() },
        spec: SelectionSpec {
            min_resilience: 30.0,
            max_area_pct: 40.0,
            ..SelectionSpec::default()
        },
        verify_cycles: 16,
        scan: None,
        ..RtlLockConfig::default()
    };
    CatalogEntry {
        name: format!("tiny{index}"),
        module: rtlock_rtl::parse(&source).expect("tiny module parses"),
        config,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("rtlock-campaign: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut entries = Vec::new();
    for name in &args.designs {
        match CatalogEntry::benchmark(name, RtlLockConfig::default()) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                eprintln!("rtlock-campaign: {e}");
                return ExitCode::from(2);
            }
        }
    }
    entries.extend((0..args.tiny).map(tiny_entry));

    let job = CatalogJob {
        entries,
        budget: RunBudget::unlimited(),
        portfolio: if args.attacks { Some(Default::default()) } else { None },
        retry: RetryPolicy {
            max_attempts: args.retries.max(1),
            base_delay: Duration::from_millis(args.retry_base_ms),
            ..RetryPolicy::default()
        },
        cache: None,
    };

    let (mut journal, recovery) = match CampaignJournal::open(&args.journal) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("rtlock-campaign: cannot open journal {}: {e}", args.journal.display());
            return ExitCode::from(2);
        }
    };
    if !recovery.events.is_empty() {
        eprintln!(
            "rtlock-campaign: resuming from {} ({} events recovered{})",
            args.journal.display(),
            recovery.events.len(),
            if recovery.torn_tail { ", torn tail healed" } else { "" },
        );
    }
    if let Some(n) = args.crash_after {
        journal.set_crash_after(n);
    }

    let executor = if args.threads == 0 {
        rtlock_exec::Executor::machine_sized()
    } else {
        rtlock_exec::Executor::new(args.threads)
    };
    let report = lock_catalog_resumable(
        &job,
        &executor,
        &CancelToken::unlimited(),
        &mut journal,
        &recovery.events,
    );

    let replayed = report
        .designs
        .iter()
        .filter(|(_, st)| matches!(st, rtlock::DesignStatus::Replayed(_)))
        .count();
    eprintln!(
        "rtlock-campaign: {} designs, {} completed, {} replayed from journal, {} retries recorded",
        report.designs.len(),
        report.completed(),
        replayed,
        report.retries.len(),
    );

    let canonical = report.canonical();
    match &args.out {
        Some(path) => {
            if let Err(e) = rtlock_store::atomic_write(path, &canonical) {
                eprintln!("rtlock-campaign: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("rtlock-campaign: wrote report -> {}", path.display());
        }
        None => print!("{canonical}"),
    }

    if report.completed() == report.designs.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(threads: usize) -> Result<Args, String> {
        let argv = ["--journal", "c.journal", "--tiny", "1", "--threads", &threads.to_string()];
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn thread_counts_up_to_the_cap_are_accepted() {
        for threads in [0, 1, 8, rtlock_exec::MAX_THREADS] {
            assert_eq!(parse(threads).expect("valid thread count").threads, threads);
        }
    }

    #[test]
    fn thread_counts_above_the_cap_are_usage_errors() {
        for threads in [rtlock_exec::MAX_THREADS + 1, 100_000, usize::MAX] {
            let err = parse(threads).err().expect("rejected");
            assert!(err.starts_with("--threads: at most"), "{err}");
        }
    }
}
