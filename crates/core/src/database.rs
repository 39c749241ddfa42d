//! Offline case database (step 3): synthesize and attack every candidate
//! individually, recording key size, area overhead, attack resilience and
//! output corruptibility. The ILP (step 4) selects from these rows.
//!
//! The paper measures SAT/BMC CPU time per case with commercial tooling;
//! here each case is probed with the real [`rtlock_attacks::sat_attack()`]
//! under a small budget, and FSM cases additionally earn a structural
//! BMC-depth bonus (deep states force deeper unrolling — Section IV).

use crate::candidates::Candidate;
use crate::transforms::{apply, mark_key_inputs, KeyAllocator};
use crate::verify::wrong_key_corruption;
use rtlock_artifacts::{cached_elaborate, cached_optimize, ArtifactStore};
use rtlock_attacks::ml::scope_attack;
use rtlock_attacks::{sat_attack, AttackConfig, AttackOutcome};
use rtlock_governor::CancelToken;
use rtlock_netlist::ppa::area_um2;
use rtlock_rtl::fsm::Fsm;
use rtlock_rtl::Module;
use rtlock_synth::{scan, scan_view};
use std::fmt;
use std::time::Duration;

/// Metrics of one locking case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseMetrics {
    /// Index into the candidate list this row describes.
    pub candidate_index: usize,
    /// Key bits consumed.
    pub key_size: usize,
    /// Post-synthesis area overhead in percent.
    pub area_overhead_pct: f64,
    /// Attack-resilience score (µs of SAT attack time, floor 1; timeout
    /// maps to the budget; plus the structural BMC bonus).
    pub resilience: f64,
    /// Output corruption under wrong keys (0..1).
    pub corruption: f64,
    /// Constant-propagation leak: |SCOPE accuracy − 0.5| on the single-case
    /// netlist (0 = ML-resilient; probed for constant cases, 0 by
    /// construction for entangled arithmetic/FSM pairs).
    pub ml_bias: f64,
    /// `true` when the case is usable (applied cleanly, corrupts, and does
    /// not leak to constant-propagation attacks).
    pub viable: bool,
    /// Human-readable label.
    pub label: String,
}

/// The assembled database.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Database {
    /// One row per candidate (same order).
    pub cases: Vec<CaseMetrics>,
}

/// Database construction configuration.
#[derive(Debug, Clone, Copy)]
pub struct DatabaseConfig {
    /// Probe each case with the real SAT attack (otherwise use the
    /// structural estimate only — much faster for large designs).
    pub sat_probe: bool,
    /// Probe constant cases with SCOPE and reject leaky ones (per-bit
    /// re-synthesis; disable on very large designs).
    pub ml_probe: bool,
    /// Viability threshold on [`CaseMetrics::ml_bias`].
    pub max_ml_bias: f64,
    /// Per-case SAT probe budget.
    pub probe_timeout: Duration,
    /// Co-simulation cycles for the corruption measure.
    pub cosim_cycles: usize,
    /// Wrong keys sampled for the corruption measure.
    pub corruption_samples: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            sat_probe: true,
            ml_probe: true,
            max_ml_bias: 0.26,
            probe_timeout: Duration::from_millis(250),
            cosim_cycles: 24,
            corruption_samples: 2,
            seed: 0xDB,
        }
    }
}

impl Database {
    /// Rows that can actually be used by selection.
    pub fn viable_cases(&self) -> impl Iterator<Item = &CaseMetrics> {
        self.cases.iter().filter(|c| c.viable)
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut s = String::from("# rtlock case database v2\n");
        for c in &self.cases {
            // `{}` on f64 prints the shortest round-trippable form.
            s.push_str(&format!(
                "case\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                c.candidate_index,
                c.key_size,
                c.area_overhead_pct,
                c.resilience,
                c.corruption,
                c.ml_bias,
                u8::from(c.viable),
                c.label
            ));
        }
        s
    }

    /// Parses the text format produced by [`Database::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Database, ParseDatabaseError> {
        let mut cases = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = |what: &str| ParseDatabaseError { line: ln + 1, message: what.to_string() };
            if fields.len() < 9 || fields[0] != "case" {
                return Err(bad("expected 9 tab-separated fields starting with `case`"));
            }
            cases.push(CaseMetrics {
                candidate_index: fields[1].parse().map_err(|_| bad("bad candidate index"))?,
                key_size: fields[2].parse().map_err(|_| bad("bad key size"))?,
                area_overhead_pct: fields[3].parse().map_err(|_| bad("bad area"))?,
                resilience: fields[4].parse().map_err(|_| bad("bad resilience"))?,
                corruption: fields[5].parse().map_err(|_| bad("bad corruption"))?,
                ml_bias: fields[6].parse().map_err(|_| bad("bad ml bias"))?,
                viable: fields[7] == "1",
                label: fields[8..].join("\t"),
            });
        }
        Ok(Database { cases })
    }
}

/// Error parsing a serialized database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDatabaseError {
    /// 1-based line number.
    pub line: usize,
    /// What was malformed.
    pub message: String,
}

impl fmt::Display for ParseDatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "database line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDatabaseError {}

/// Builds the database by evaluating every candidate in isolation.
pub fn build_database(
    original: &Module,
    candidates: &[Candidate],
    fsms: &[Fsm],
    config: &DatabaseConfig,
) -> Database {
    let unlimited = CancelToken::unlimited();
    build_database_governed_cached(original, candidates, fsms, config, &unlimited, None).0
}

/// Budget-aware database construction. Every candidate always gets a row,
/// but once `cancel` fires the remaining candidates are characterized in a
/// degraded, synthesis-free mode: resilience falls back to the structural
/// estimate, the SAT/ML probes and per-case synthesis are skipped (area
/// overhead is reported as 0), and corruption is measured with a single
/// short RTL co-simulation. The second element is `false` when any row was
/// produced in degraded mode.
///
/// With a content-addressed artifact `cache`, the base synthesis and
/// every candidate's per-case elaborate/optimize consult it first. Rows
/// are byte-identical with the cache hot, cold, or absent.
pub fn build_database_governed_cached(
    original: &Module,
    candidates: &[Candidate],
    fsms: &[Fsm],
    config: &DatabaseConfig,
    cancel: &CancelToken,
    cache: Option<&ArtifactStore>,
) -> (Database, bool) {
    let mut degraded = cancel.should_stop().is_some();
    // Base synthesis for the area reference, plus (only when the SAT probe
    // is on) the original scan view the probes compare against — neither
    // is needed (or affordable) in degraded mode.
    let mut base = None;
    if !degraded {
        match cached_elaborate(cache, original, cancel) {
            Ok(elabbed) => {
                let (mut n, _) = cached_optimize(cache, &elabbed, cancel);
                let base_area = area_um2(&n);
                let orig_view = config.sat_probe.then(|| {
                    scan::insert_full_scan(&mut n);
                    scan_view(&n).netlist
                });
                base = Some((base_area, orig_view));
            }
            Err(_) => {
                return (
                    Database {
                        cases: candidates
                            .iter()
                            .enumerate()
                            .map(|(i, c)| unusable(i, c, "original does not synthesize"))
                            .collect(),
                    },
                    true,
                )
            }
        }
    }

    let mut cases = Vec::with_capacity(candidates.len());
    for (i, cand) in candidates.iter().enumerate() {
        if !degraded && cancel.should_stop().is_some() {
            degraded = true;
        }
        let mut locked = original.clone();
        let mut keys = KeyAllocator::new();
        if apply(&mut locked, cand, fsms, &mut keys).is_err() {
            cases.push(unusable(i, cand, "transform failed"));
            continue;
        }
        let key = keys.correct_key().to_vec();
        let seed = config.seed.wrapping_add(i as u64);
        let row = match (&base, degraded) {
            (Some((base_area, orig_view)), false) => full_row(
                original, &locked, cand, fsms, &key, i, seed, *base_area, orig_view.as_ref(), config,
                cancel, cache,
            ),
            _ => degraded_row(original, &locked, cand, fsms, &key, i, seed, config),
        };
        cases.push(row);
    }
    (Database { cases }, !degraded)
}

/// Full candidate characterization: per-case synthesis, area measurement,
/// corruption co-simulation and the configured SAT/ML probes. `orig_view`
/// is the original's scan view, present exactly when the SAT probe is on.
#[allow(clippy::too_many_arguments)]
fn full_row(
    original: &Module,
    locked: &Module,
    cand: &Candidate,
    fsms: &[Fsm],
    key: &[bool],
    i: usize,
    seed: u64,
    base_area: f64,
    orig_view: Option<&rtlock_netlist::Netlist>,
    config: &DatabaseConfig,
    cancel: &CancelToken,
    cache: Option<&ArtifactStore>,
) -> CaseMetrics {
    let Ok(elabbed) = cached_elaborate(cache, locked, cancel) else {
        return unusable(i, cand, "locked RTL does not synthesize");
    };
    let (netlist, _) = cached_optimize(cache, &elabbed, cancel);
    let area = area_um2(&netlist);
    let area_overhead_pct = if base_area > 0.0 { (area - base_area) / base_area * 100.0 } else { 0.0 };

    let corruption =
        wrong_key_corruption(original, locked, key, config.corruption_samples, config.cosim_cycles, seed);

    // Constant-propagation probe: lock the case, mark the keys, run
    // SCOPE. Entangled pairs (arith/FSM) are immune by construction.
    let ml_bias = if config.ml_probe && matches!(cand, Candidate::Constant { .. }) && corruption > 0.0 {
        let mut probe = netlist.clone();
        mark_key_inputs(&mut probe);
        let report = scope_attack(&probe, key);
        (report.accuracy - 0.5).abs()
    } else {
        0.0
    };

    let mut resilience = structural_bonus(cand, fsms);
    if let Some(orig_view) = orig_view.filter(|_| corruption > 0.0) {
        let mut view = {
            let mut n = netlist.clone();
            scan::insert_full_scan(&mut n);
            scan_view(&n).netlist
        };
        mark_key_inputs(&mut view);
        let outcome = sat_attack(
            &view,
            orig_view,
            &AttackConfig {
                max_iterations: 10_000,
                timeout: Some(config.probe_timeout),
                ..AttackConfig::default()
            },
        );
        let micros = match outcome {
            AttackOutcome::KeyFound { elapsed, .. } => elapsed.as_micros() as f64,
            AttackOutcome::TimedOut { elapsed, .. } => elapsed.as_micros() as f64 * 4.0,
            AttackOutcome::Infeasible { .. } | AttackOutcome::Error { .. } => {
                config.probe_timeout.as_micros() as f64
            }
        };
        resilience += micros.max(1.0);
    }

    CaseMetrics {
        candidate_index: i,
        key_size: key.len(),
        area_overhead_pct,
        resilience,
        corruption,
        ml_bias,
        viable: corruption > 0.0 && ml_bias <= config.max_ml_bias,
        label: cand.label(),
    }
}

/// Degraded, synthesis-free characterization used once the budget fired:
/// structural resilience, zero (unknown) area, one short RTL co-simulation
/// for corruption, no probes.
#[allow(clippy::too_many_arguments)]
fn degraded_row(
    original: &Module,
    locked: &Module,
    cand: &Candidate,
    fsms: &[Fsm],
    key: &[bool],
    i: usize,
    seed: u64,
    config: &DatabaseConfig,
) -> CaseMetrics {
    let cycles = config.cosim_cycles.min(8);
    let corruption = match crate::verify::try_wrong_key_corruption(
        original,
        locked,
        key,
        1,
        cycles,
        seed,
        &CancelToken::unlimited(),
    ) {
        Ok(outcome) => outcome.corruption,
        Err(_) => return unusable(i, cand, "degraded co-simulation failed"),
    };
    CaseMetrics {
        candidate_index: i,
        key_size: key.len(),
        area_overhead_pct: 0.0,
        resilience: structural_bonus(cand, fsms),
        corruption,
        ml_bias: 0.0,
        viable: corruption > 0.0,
        label: cand.label(),
    }
}

fn unusable(i: usize, cand: &Candidate, _why: &str) -> CaseMetrics {
    CaseMetrics {
        candidate_index: i,
        key_size: cand.key_size(),
        area_overhead_pct: 0.0,
        resilience: 0.0,
        corruption: 0.0,
        ml_bias: 1.0,
        viable: false,
        label: cand.label(),
    }
}

/// Structural BMC-resilience bonus: FSM cases on deeper states force
/// deeper unrolling; arithmetic cases on wide operators create harder
/// instances.
fn structural_bonus(cand: &Candidate, fsms: &[Fsm]) -> f64 {
    match cand {
        Candidate::Fsm { fsm_index, kind } => {
            let depth = fsms
                .get(*fsm_index)
                .map(|f| {
                    let depths = f.depth_from_initial();
                    let of = |s: &rtlock_rtl::Bv| {
                        depths.iter().find(|(x, _)| x == s).and_then(|(_, d)| *d).unwrap_or(0)
                    };
                    match kind {
                        crate::candidates::FsmLockKind::InitLock => 1,
                        crate::candidates::FsmLockKind::IncorrectTransition { from, .. } => of(from),
                        crate::candidates::FsmLockKind::SkipState { skipped, .. } => of(skipped),
                        crate::candidates::FsmLockKind::BypassState { detoured, .. } => of(detoured),
                        crate::candidates::FsmLockKind::InherentSignal { .. } => 2,
                    }
                })
                .unwrap_or(0);
            50.0 * (1 + depth) as f64
        }
        Candidate::Arithmetic { op, .. } => {
            if matches!(op, rtlock_rtl::BinaryOp::Shl | rtlock_rtl::BinaryOp::Shr) {
                40.0
            } else {
                25.0
            }
        }
        Candidate::Constant { key_bits, .. } => 10.0 * *key_bits as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate, EnumConfig};
    use rtlock_rtl::parse;

    const SRC: &str = "module t(input clk, input rst, input go, input [7:0] d, output reg [7:0] y);\n\
        reg [1:0] st; reg [1:0] st_next;\n\
        always @(*) begin\n\
          st_next = st;\n\
          case (st)\n\
            2'd0: begin if (go) st_next = 2'd1; end\n\
            2'd1: begin st_next = 2'd2; end\n\
            2'd2: begin st_next = 2'd0; end\n\
          endcase\n\
        end\n\
        always @(posedge clk or posedge rst) begin\n\
          if (rst) begin st <= 2'd0; y <= 8'd0; end\n\
          else begin\n\
            st <= st_next;\n\
            if (st == 2'd1) y <= (d + 8'd37) ^ 8'h5A;\n\
          end\n\
        end\nendmodule";

    fn quick_config() -> DatabaseConfig {
        DatabaseConfig {
            sat_probe: false,
            ml_probe: false,
            cosim_cycles: 16,
            corruption_samples: 1,
            ..DatabaseConfig::default()
        }
    }

    #[test]
    fn database_rows_align_with_candidates() {
        let m = parse(SRC).unwrap();
        let (cands, fsms) = enumerate(&m, &EnumConfig::default());
        let db = build_database(&m, &cands, &fsms, &quick_config());
        assert_eq!(db.cases.len(), cands.len());
        assert!(db.viable_cases().count() >= 4, "several viable cases: {}", db.viable_cases().count());
        for c in db.viable_cases() {
            assert!(c.corruption > 0.0);
            assert!(c.resilience > 0.0);
            assert!(c.key_size >= 1);
        }
    }

    #[test]
    fn sat_probe_measures_time() {
        let m = parse(SRC).unwrap();
        let (cands, fsms) = enumerate(&m, &EnumConfig::default());
        // Probe just the first few candidates to keep the test fast.
        let few: Vec<_> = cands.into_iter().take(4).collect();
        let db = build_database(&m, &few, &fsms, &DatabaseConfig { sat_probe: true, ..quick_config() });
        for c in db.viable_cases() {
            assert!(c.resilience >= 1.0, "{}: {}", c.label, c.resilience);
        }
    }

    #[test]
    fn governed_build_degrades_but_covers_every_candidate() {
        use rtlock_governor::{CancelToken, Deadline};
        let m = parse(SRC).unwrap();
        let (cands, fsms) = enumerate(&m, &EnumConfig::default());
        let expired = CancelToken::with_deadline(Deadline::after(Duration::ZERO));
        let (db, complete) = build_database_governed_cached(
            &m,
            &cands,
            &fsms,
            &DatabaseConfig { sat_probe: true, ml_probe: true, ..quick_config() },
            &expired,
            None,
        );
        assert!(!complete, "expired token must flag the build incomplete");
        assert_eq!(db.cases.len(), cands.len(), "every candidate still gets a row");
        assert!(db.viable_cases().count() >= 1, "degraded rows remain usable");
        // Degraded mode skips probes: resilience is exactly the structural
        // estimate and no ML bias is recorded.
        for c in &db.cases {
            assert_eq!(c.resilience, structural_bonus(&cands[c.candidate_index], &fsms));
            assert_eq!(c.ml_bias, 0.0);
        }
    }

    #[test]
    fn text_codec_round_trips() {
        let m = parse(SRC).unwrap();
        let (cands, fsms) = enumerate(&m, &EnumConfig::default());
        let db = build_database(&m, &cands, &fsms, &quick_config());
        let text = db.to_text();
        let back = Database::from_text(&text).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(Database::from_text("case\tnot-a-number").is_err());
        assert!(Database::from_text("# only comments\n").unwrap().cases.is_empty());
    }

    #[test]
    fn fsm_cases_earn_depth_bonus() {
        let m = parse(SRC).unwrap();
        let (cands, fsms) = enumerate(&m, &EnumConfig::default());
        let db = build_database(&m, &cands, &fsms, &quick_config());
        let fsm_res: Vec<f64> = db
            .cases
            .iter()
            .filter(|c| matches!(cands[c.candidate_index], Candidate::Fsm { .. }) && c.viable)
            .map(|c| c.resilience)
            .collect();
        assert!(!fsm_res.is_empty());
        assert!(fsm_res.iter().all(|&r| r >= 50.0));
    }
}
