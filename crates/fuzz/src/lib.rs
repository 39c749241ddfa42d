//! Cross-layer differential fuzzing and formal equivalence harness.
//!
//! See DESIGN.md §9 for the architecture. In short: a seed-driven
//! generator ([`gen`]) produces random RTL modules biased toward
//! optimizer-rewritten constructs; a five-layer oracle ([`oracle`]) runs
//! each module through RTL simulation, elaborated-netlist simulation,
//! optimized-netlist simulation, scan-view sequential emulation, and a
//! locked-with-correct-key cosimulation on shared random stimulus, plus a
//! SAT miter between the pre- and post-optimization netlists; a greedy
//! minimizer ([`shrink`]) reduces divergent modules; and [`corpus`]
//! persists shrunk divergences as regression inputs.
//!
//! ```
//! use rtlock_fuzz::{run_fuzz, FuzzConfig};
//! use rtlock_governor::CancelToken;
//!
//! let cfg = FuzzConfig { seed: 7, iters: 3, ..FuzzConfig::default() };
//! let report = run_fuzz(&cfg, &CancelToken::unlimited());
//! assert_eq!(report.executed, 3);
//! assert!(report.divergences.is_empty());
//! ```

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use gen::{generate, render, GenConfig, GenModule};
pub use oracle::{check_module, check_source, Layer, OracleConfig, Verdict};
pub use shrink::shrink;

use rtlock_governor::CancelToken;

/// Configuration for a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` uses a stream derived from `(seed, i)`.
    pub seed: u64,
    /// Number of modules to generate and check.
    pub iters: u64,
    /// Generator shape limits.
    pub gen: GenConfig,
    /// Oracle settings (cycles, stimulus vectors, layer toggles).
    pub oracle: OracleConfig,
    /// Directory to persist shrunk divergences into (`None` = don't).
    pub corpus_dir: Option<std::path::PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            iters: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            corpus_dir: None,
        }
    }
}

/// One divergence found during a campaign.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the iteration that produced the module.
    pub seed: u64,
    /// Layer that disagreed with the RTL reference.
    pub layer: Layer,
    /// Human-readable detail from the oracle.
    pub detail: String,
    /// Shrunk module source.
    pub shrunk_source: String,
    /// Line count of the shrunk source.
    pub shrunk_lines: usize,
    /// Path the reproducer was persisted to, if a corpus dir was set.
    pub persisted: Option<std::path::PathBuf>,
}

/// Summary of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations actually executed (may be short of the request when
    /// cancelled by budget).
    pub executed: u64,
    /// Iterations skipped because the oracle could not complete a layer
    /// (e.g. SAT budget exhausted) — counted, never silently dropped.
    pub incomplete: u64,
    /// Divergences found (post-shrink).
    pub divergences: Vec<Divergence>,
    /// Whether the campaign stopped early on cancellation.
    pub cancelled: bool,
}

/// Runs a fuzzing campaign. Checks `cancel` between iterations so a
/// governor wall-clock budget bounds the campaign.
pub fn run_fuzz(cfg: &FuzzConfig, cancel: &CancelToken) -> FuzzReport {
    run_range(cfg, 0..cfg.iters, cancel)
}

/// Runs the iterations in `range` of the campaign described by `cfg`.
/// Campaign state is per-iteration, so disjoint ranges compose: their
/// reports merge (in range order) into exactly the single-range report.
fn run_range(cfg: &FuzzConfig, range: std::ops::Range<u64>, cancel: &CancelToken) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in range {
        if cancel.should_stop().is_some() {
            report.cancelled = true;
            break;
        }
        let iter_seed = cfg.seed.wrapping_mul(0x1000_0000_0000_0001).wrapping_add(i);
        let module = gen::generate(iter_seed, &cfg.gen);
        match oracle::check_module(&module, iter_seed, &cfg.oracle) {
            Verdict::Pass => {}
            Verdict::Incomplete(_) => report.incomplete += 1,
            Verdict::Diverged { layer, detail } => {
                let shrunk = shrink::shrink(&module, iter_seed, &cfg.oracle, cancel);
                let shrunk_source = gen::render(&shrunk);
                let shrunk_lines = shrunk_source.lines().count();
                let persisted = cfg.corpus_dir.as_ref().and_then(|dir| {
                    corpus::persist(dir, iter_seed, layer, &shrunk_source).ok()
                });
                report.divergences.push(Divergence {
                    seed: iter_seed,
                    layer,
                    detail,
                    shrunk_source,
                    shrunk_lines,
                    persisted,
                });
            }
        }
        report.executed += 1;
    }
    report
}

/// Iterations per parallel work unit. Fixed (not derived from the thread
/// count) so the chunk boundaries — and therefore the merged report — are
/// a function of the campaign alone.
const CHUNK_ITERS: u64 = 8;

/// Runs a fuzzing campaign across `executor`'s workers.
///
/// The iteration space is cut into fixed-size contiguous chunks, each
/// chunk runs independently (iteration `i` derives its own seed stream, so
/// chunks share no state), and the per-chunk reports are merged in chunk
/// order. An uncancelled parallel campaign therefore produces a report —
/// and, via the post-merge persistence pass, a corpus directory —
/// identical to [`run_fuzz`]'s at any thread count. Under cancellation the
/// chunks stop independently, so only the *set* of completed iterations
/// may differ from a sequential run.
///
/// Corpus persistence happens after the merge, in iteration order; the
/// file contents depend only on `(layer, seed, shrunk source)`, so the
/// directory is byte-identical to a sequential campaign's.
pub fn run_fuzz_parallel(
    cfg: &FuzzConfig,
    executor: &rtlock_exec::Executor,
    cancel: &CancelToken,
) -> FuzzReport {
    let nothing_to_replay = vec![None; chunk_ranges(cfg).len()];
    fuzz_chunks(cfg, executor, cancel, nothing_to_replay, |_, _| {})
}

/// Event kind marking a chunk's divergences durable (one per divergence,
/// appended *before* the chunk's completion marker).
pub const KIND_FUZZ_DIV: &str = "fuzz_div";
/// Event kind marking a chunk complete; only chunks with this marker are
/// replayed on resume.
pub const KIND_FUZZ_CHUNK: &str = "fuzz_chunk";

/// [`run_fuzz_parallel`] with checkpoint/resume through a campaign
/// journal: chunks whose completion marker was recovered are **replayed**
/// from the journal (verbatim divergence text, no re-execution), the rest
/// run normally and journal themselves as they finish. A campaign killed
/// mid-run therefore loses at most its in-flight chunks, and
/// `interrupt → resume` yields a report — and corpus directory — byte-
/// identical to an uninterrupted run at any job count.
///
/// Chunks that stopped on cancellation are *not* journaled (they are not
/// final); journal append errors are reported to stderr and the run
/// continues unjournaled, exactly like the catalog runner.
pub fn run_fuzz_resumable(
    cfg: &FuzzConfig,
    executor: &rtlock_exec::Executor,
    cancel: &CancelToken,
    journal: &mut rtlock::journal::CampaignJournal,
    recovered: &[rtlock_store::Event],
) -> FuzzReport {
    let prior = replayed_chunks(cfg, recovered, chunk_ranges(cfg).len());
    let sink = std::sync::Mutex::new(journal);
    fuzz_chunks(cfg, executor, cancel, prior, |chunk_index, chunk| {
        let mut journal = sink.lock().expect("journal lock");
        let mut append = |e: &rtlock_store::Event| {
            if let Err(err) = journal.append(e) {
                eprintln!("fuzz journal: append failed ({err}); continuing unjournaled");
            }
        };
        for d in &chunk.divergences {
            append(
                &rtlock_store::Event::new(KIND_FUZZ_DIV)
                    .field("chunk", chunk_index.to_string())
                    .field("seed", d.seed.to_string())
                    .field("layer", d.layer.name())
                    .field("detail", &d.detail)
                    .field("source", &d.shrunk_source),
            );
        }
        append(
            &rtlock_store::Event::new(KIND_FUZZ_CHUNK)
                .field("index", chunk_index.to_string())
                .field("executed", chunk.executed.to_string())
                .field("incomplete", chunk.incomplete.to_string()),
        );
    })
}

/// The campaign's iteration space cut into `CHUNK_ITERS`-sized contiguous
/// ranges, in iteration order.
fn chunk_ranges(cfg: &FuzzConfig) -> Vec<std::ops::Range<u64>> {
    (0..cfg.iters)
        .step_by(CHUNK_ITERS.max(1) as usize)
        .map(|lo| lo..(lo + CHUNK_ITERS).min(cfg.iters))
        .collect()
}

/// The shared engine behind the parallel runners: runs every chunk whose
/// `prior` slot is empty on `executor`, hands each chunk that finished
/// uncancelled to `on_chunk` (on its worker, with the chunk index), then
/// merges replayed and fresh chunk reports in chunk order and persists
/// the corpus in iteration order on the calling thread.
fn fuzz_chunks<O>(
    cfg: &FuzzConfig,
    executor: &rtlock_exec::Executor,
    cancel: &CancelToken,
    prior: Vec<Option<FuzzReport>>,
    on_chunk: O,
) -> FuzzReport
where
    O: Fn(usize, &FuzzReport) + Sync,
{
    let chunks = chunk_ranges(cfg);
    debug_assert_eq!(prior.len(), chunks.len());
    // Workers fuzz without persisting; the merge pass below writes the
    // corpus in iteration order on the calling thread.
    let worker_cfg = FuzzConfig { corpus_dir: None, ..cfg.clone() };
    let todo: Vec<usize> = (0..chunks.len()).filter(|&i| prior[i].is_none()).collect();
    let results = executor.map(cancel, todo, |_, chunk_index, token| {
        let chunk = run_range(&worker_cfg, chunks[chunk_index].clone(), token);
        if !chunk.cancelled && token.should_stop().is_none() {
            on_chunk(chunk_index, &chunk);
        }
        chunk
    });

    let mut fresh = results.into_iter();
    let mut report = FuzzReport::default();
    for slot in prior {
        let chunk = match slot {
            Some(replay) => replay,
            None => match fresh.next().expect("one result per chunk that ran") {
                Ok(chunk) => chunk,
                Err(rtlock_exec::TaskError::Cancelled(_)) => {
                    report.cancelled = true;
                    continue;
                }
                // The pool already drained cleanly; surface the worker's
                // panic to the caller just as a sequential run would have.
                Err(rtlock_exec::TaskError::Panicked(msg)) => {
                    panic!("fuzz worker panicked: {msg}")
                }
            },
        };
        report.executed += chunk.executed;
        report.incomplete += chunk.incomplete;
        report.divergences.extend(chunk.divergences);
        report.cancelled |= chunk.cancelled;
    }
    if let Some(dir) = &cfg.corpus_dir {
        for d in &mut report.divergences {
            d.persisted = corpus::persist(dir, d.seed, d.layer, &d.shrunk_source).ok();
        }
    }
    report
}

/// Decodes recovered journal events into per-chunk replay slots. Only
/// chunks whose `fuzz_chunk` marker landed are replayed; their
/// divergences are keyed by seed (at-least-once replay may duplicate
/// them — re-runs are deterministic, so the last record wins) and
/// ordered by iteration number.
fn replayed_chunks(
    cfg: &FuzzConfig,
    events: &[rtlock_store::Event],
    chunk_count: usize,
) -> Vec<Option<FuzzReport>> {
    use std::collections::HashMap;
    let mut divs: HashMap<usize, HashMap<u64, Divergence>> = HashMap::new();
    let mut done: Vec<Option<(u64, u64)>> = vec![None; chunk_count];
    for event in events {
        if event.kind == KIND_FUZZ_DIV {
            let (Some(chunk), Some(seed), Some(layer), Some(detail), Some(source)) = (
                event.get_parsed::<usize>("chunk"),
                event.get_parsed::<u64>("seed"),
                event.get("layer").and_then(Layer::from_name),
                event.get("detail"),
                event.get("source"),
            ) else {
                continue;
            };
            if chunk >= chunk_count {
                continue;
            }
            divs.entry(chunk).or_default().insert(
                seed,
                Divergence {
                    seed,
                    layer,
                    detail: detail.to_owned(),
                    shrunk_source: source.to_owned(),
                    shrunk_lines: source.lines().count(),
                    persisted: None,
                },
            );
        } else if event.kind == KIND_FUZZ_CHUNK {
            let (Some(index), Some(executed), Some(incomplete)) = (
                event.get_parsed::<usize>("index"),
                event.get_parsed::<u64>("executed"),
                event.get_parsed::<u64>("incomplete"),
            ) else {
                continue;
            };
            if index < chunk_count {
                done[index] = Some((executed, incomplete));
            }
        }
    }
    done.into_iter()
        .enumerate()
        .map(|(i, marker)| {
            let (executed, incomplete) = marker?;
            let mut divergences: Vec<Divergence> =
                divs.remove(&i).map(|m| m.into_values().collect()).unwrap_or_default();
            // Iteration order within the chunk: iteration `n` has seed
            // `base * M + n` (wrapping), so recovering `n` sorts exactly
            // as the original run emitted.
            let base = cfg.seed.wrapping_mul(0x1000_0000_0000_0001);
            divergences.sort_by_key(|d| d.seed.wrapping_sub(base));
            Some(FuzzReport { executed, incomplete, divergences, cancelled: false })
        })
        .collect()
}

/// Serializes every unit test of this crate: two of them arm the
/// process-global injected optimizer bug (`rtlock_synth::opt::inject`),
/// which must not leak into a test running the optimizer concurrently.
/// The gate guards no data, so a lock poisoned by a failed test is taken
/// over rather than failing every later test.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_reports_no_divergences() {
        let _guard = crate::serial();
        let cfg = FuzzConfig { iters: 25, ..FuzzConfig::default() };
        let report = run_fuzz(&cfg, &CancelToken::unlimited());
        assert_eq!(report.executed, 25);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences: {:?}",
            report.divergences.iter().map(|d| (d.seed, d.layer)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let _guard = crate::serial();
        let cfg = FuzzConfig { iters: 20, ..FuzzConfig::default() };
        let reference = run_fuzz(&cfg, &CancelToken::unlimited());
        let digest = |r: &FuzzReport| {
            (
                r.executed,
                r.incomplete,
                r.cancelled,
                r.divergences
                    .iter()
                    .map(|d| (d.seed, d.layer, d.detail.clone(), d.shrunk_source.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        for threads in [1, 2, 4] {
            let par = run_fuzz_parallel(
                &cfg,
                &rtlock_exec::Executor::new(threads),
                &CancelToken::unlimited(),
            );
            assert_eq!(digest(&par), digest(&reference), "threads={threads}");
        }
    }

    #[test]
    fn cancelled_campaign_stops_early() {
        let _guard = crate::serial();
        let cfg = FuzzConfig { iters: 1000, ..FuzzConfig::default() };
        let cancel = CancelToken::unlimited();
        cancel.cancel();
        let report = run_fuzz(&cfg, &cancel);
        assert!(report.cancelled);
        assert_eq!(report.executed, 0);
    }
}
