//! Case selection (step 4): the ILP of Equations 1–2, plus a greedy
//! baseline used by the selection ablation bench.
//!
//! * resilience row: `Σ Tᵢ·Cᵢ · (1 + addedRes%) ≥ T_spec`
//! * area row: `Σ Aᵢ·Cᵢ · (1 − sharedOv%) ≤ A_spec`
//! * mutual exclusion: `Σⱼ C_pj ≤ 1` per locking point `p`
//! * optional key-size floor: `Σ kᵢ·Cᵢ ≥ K_spec`
//! * objective: `min Σ Cᵢ`

use crate::candidates::Candidate;
use crate::database::Database;
use rtlock_governor::CancelToken;
use rtlock_ilp::{IlpProblem, Sense};
use std::collections::HashMap;

/// Designer specification (the constraint side of Equation 1).
#[derive(Debug, Clone, Copy)]
pub struct SelectionSpec {
    /// Minimum combined attack resilience (same units as the database's
    /// resilience score).
    pub min_resilience: f64,
    /// Maximum combined area overhead in percent.
    pub max_area_pct: f64,
    /// Minimum total key bits (0 disables the row).
    pub min_key_bits: usize,
    /// The paper's "(% added Res.)" correction for merged cases, 10–20.
    pub added_res_pct: f64,
    /// The paper's "(% shared Ov.)" correction for shared hardware, 10–20.
    pub shared_ov_pct: f64,
}

impl Default for SelectionSpec {
    fn default() -> Self {
        SelectionSpec {
            min_resilience: 100.0,
            max_area_pct: 15.0,
            min_key_bits: 0,
            added_res_pct: 15.0,
            shared_ov_pct: 15.0,
        }
    }
}

/// How a bounded selection attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectOutcome {
    /// A (proven or incumbent) selection was found.
    Selected(Vec<usize>),
    /// The budget fired before any feasible selection was found; nothing
    /// is proven — callers should fall back to greedy selection.
    TimedOut,
    /// The specification is proven infeasible.
    Infeasible,
}

/// Selects cases with the ILP. Returns candidate indices, or `None` when
/// the specification is infeasible. The ILP search is node-budgeted: when
/// the budget runs out, the indices are its best incumbent, which may not
/// be optimal.
pub fn select_ilp(db: &Database, candidates: &[Candidate], spec: &SelectionSpec) -> Option<Vec<usize>> {
    match select_ilp_bounded(db, candidates, spec, &CancelToken::unlimited()) {
        SelectOutcome::Selected(sel) => Some(sel),
        SelectOutcome::TimedOut | SelectOutcome::Infeasible => None,
    }
}

/// Budget-aware ILP selection: the branch-and-bound polls `cancel` and, if
/// stopped before finding any feasible cover, reports
/// [`SelectOutcome::TimedOut`] so the caller can degrade to greedy
/// selection instead of treating the spec as infeasible. A search stopped
/// by `cancel` or by the ILP's node budget after finding a cover reports
/// its best incumbent as [`SelectOutcome::Selected`], like a proven
/// optimum.
pub fn select_ilp_bounded(
    db: &Database,
    candidates: &[Candidate],
    spec: &SelectionSpec,
    cancel: &CancelToken,
) -> SelectOutcome {
    let rows: Vec<&crate::database::CaseMetrics> = db.viable_cases().collect();
    if rows.is_empty() {
        return SelectOutcome::Infeasible;
    }
    let mut p = IlpProblem::minimize(vec![1.0; rows.len()]);
    let res_scale = 1.0 + spec.added_res_pct / 100.0;
    let ov_scale = 1.0 - spec.shared_ov_pct / 100.0;
    p.add_constraint(
        rows.iter().enumerate().map(|(v, c)| (v, c.resilience * res_scale)).collect(),
        Sense::Ge,
        spec.min_resilience,
    );
    p.add_constraint(
        rows.iter().enumerate().map(|(v, c)| (v, c.area_overhead_pct * ov_scale)).collect(),
        Sense::Le,
        spec.max_area_pct,
    );
    if spec.min_key_bits > 0 {
        p.add_constraint(
            rows.iter().enumerate().map(|(v, c)| (v, c.key_size as f64)).collect(),
            Sense::Ge,
            spec.min_key_bits as f64,
        );
    }
    // Mutual exclusion per locking point.
    let mut by_point: HashMap<String, Vec<usize>> = HashMap::new();
    for (v, c) in rows.iter().enumerate() {
        by_point.entry(candidates[c.candidate_index].point_id()).or_default().push(v);
    }
    for group in by_point.values() {
        if group.len() > 1 {
            p.add_mutual_exclusion(group);
        }
    }
    let outcome = p.solve_with(cancel);
    match outcome.solution {
        Some(sol) => SelectOutcome::Selected(
            sol.assignment
                .iter()
                .enumerate()
                .filter(|(_, &x)| x)
                .map(|(v, _)| rows[v].candidate_index)
                .collect(),
        ),
        // No feasible cover found: only a *complete* search proves
        // infeasibility; an interrupted one proves nothing.
        None if outcome.complete => SelectOutcome::Infeasible,
        None => SelectOutcome::TimedOut,
    }
}

/// Greedy alternative (best resilience-per-area first) for the ablation
/// study; respects mutual exclusion and the area budget, stops once the
/// resilience and key targets are met.
pub fn select_greedy(db: &Database, candidates: &[Candidate], spec: &SelectionSpec) -> Vec<usize> {
    let mut rows: Vec<&crate::database::CaseMetrics> = db.viable_cases().collect();
    rows.sort_by(|a, b| {
        let ra = a.resilience / a.area_overhead_pct.max(0.1);
        let rb = b.resilience / b.area_overhead_pct.max(0.1);
        rb.total_cmp(&ra)
    });
    let res_scale = 1.0 + spec.added_res_pct / 100.0;
    let ov_scale = 1.0 - spec.shared_ov_pct / 100.0;
    let mut chosen = Vec::new();
    let mut used_points = Vec::new();
    let mut res = 0.0;
    let mut area = 0.0;
    let mut key_bits = 0usize;
    for c in rows {
        let point = candidates[c.candidate_index].point_id();
        if used_points.contains(&point) {
            continue;
        }
        if area + c.area_overhead_pct * ov_scale > spec.max_area_pct {
            continue;
        }
        chosen.push(c.candidate_index);
        used_points.push(point);
        res += c.resilience * res_scale;
        area += c.area_overhead_pct * ov_scale;
        key_bits += c.key_size;
        if res >= spec.min_resilience && key_bits >= spec.min_key_bits {
            break;
        }
    }
    chosen.sort();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{Candidate, ConstMode};
    use crate::database::{CaseMetrics, Database};
    use rtlock_rtl::cdfg::SiteLoc;
    use rtlock_rtl::Bv;

    fn fake_candidate(i: usize) -> Candidate {
        Candidate::Constant {
            loc: SiteLoc::Assign { index: i },
            ordinal: 0,
            value: Bv::from_u64(8, 7),
            mode: ConstMode::XorMask,
            key_bits: 4,
        }
    }

    fn row(i: usize, res: f64, area: f64, keys: usize) -> CaseMetrics {
        CaseMetrics {
            candidate_index: i,
            key_size: keys,
            area_overhead_pct: area,
            resilience: res,
            corruption: 0.5,
            ml_bias: 0.0,
            viable: true,
            label: format!("c{i}"),
        }
    }

    #[test]
    fn ilp_picks_minimum_cases() {
        let candidates: Vec<Candidate> = (0..4).map(fake_candidate).collect();
        let db = Database {
            cases: vec![row(0, 80.0, 6.0, 4), row(1, 30.0, 2.0, 4), row(2, 60.0, 5.0, 4), row(3, 10.0, 1.0, 4)],
        };
        let spec = SelectionSpec {
            min_resilience: 100.0,
            max_area_pct: 12.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        let sel = select_ilp(&db, &candidates, &spec).unwrap();
        assert_eq!(sel, vec![0, 2], "two cheapest-count covering cases");
    }

    #[test]
    fn mutual_exclusion_respected() {
        // Candidates 0 and 1 share the same locking point.
        let mut candidates: Vec<Candidate> = (0..3).map(fake_candidate).collect();
        candidates[1] = match fake_candidate(0) {
            Candidate::Constant { loc, ordinal, value, key_bits, .. } => {
                Candidate::Constant { loc, ordinal, value, mode: ConstMode::Substitute, key_bits }
            }
            _ => unreachable!(),
        };
        let db = Database { cases: vec![row(0, 60.0, 3.0, 4), row(1, 60.0, 3.0, 4), row(2, 60.0, 3.0, 4)] };
        let spec = SelectionSpec {
            min_resilience: 110.0,
            max_area_pct: 20.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        let sel = select_ilp(&db, &candidates, &spec).unwrap();
        assert!(!(sel.contains(&0) && sel.contains(&1)), "exclusive cases: {sel:?}");
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn infeasible_spec_returns_none() {
        let candidates: Vec<Candidate> = (0..2).map(fake_candidate).collect();
        let db = Database { cases: vec![row(0, 10.0, 10.0, 4), row(1, 10.0, 10.0, 4)] };
        let spec = SelectionSpec {
            min_resilience: 1000.0,
            max_area_pct: 5.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        assert!(select_ilp(&db, &candidates, &spec).is_none());
    }

    #[test]
    fn corrections_change_feasibility() {
        let candidates: Vec<Candidate> = (0..2).map(fake_candidate).collect();
        let db = Database { cases: vec![row(0, 50.0, 8.0, 4), row(1, 45.0, 8.0, 4)] };
        // Without addedRes: 95 < 100 infeasible; with 10%: 104.5 feasible.
        let strict = SelectionSpec {
            min_resilience: 100.0,
            max_area_pct: 16.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        assert!(select_ilp(&db, &candidates, &strict).is_none());
        let with_bonus = SelectionSpec { added_res_pct: 10.0, ..strict };
        assert!(select_ilp(&db, &candidates, &with_bonus).is_some());
    }

    #[test]
    fn greedy_respects_budget_and_exclusion() {
        let candidates: Vec<Candidate> = (0..4).map(fake_candidate).collect();
        let db = Database {
            cases: vec![row(0, 80.0, 6.0, 4), row(1, 30.0, 2.0, 4), row(2, 60.0, 5.0, 4), row(3, 10.0, 1.0, 4)],
        };
        let spec = SelectionSpec {
            min_resilience: 1e9, // unreachable: greedy packs the budget
            max_area_pct: 8.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        let sel = select_greedy(&db, &candidates, &spec);
        let area: f64 = sel
            .iter()
            .map(|&i| db.cases.iter().find(|c| c.candidate_index == i).unwrap().area_overhead_pct)
            .sum();
        assert!(area <= 8.0 + 1e-9, "area {area}");
        assert!(!sel.is_empty());
    }

    #[test]
    fn bounded_select_reports_timeout_not_infeasible() {
        use rtlock_governor::{CancelToken, Deadline};
        use std::time::Duration;
        let candidates: Vec<Candidate> = (0..4).map(fake_candidate).collect();
        let db = Database {
            cases: vec![row(0, 80.0, 6.0, 4), row(1, 30.0, 2.0, 4), row(2, 60.0, 5.0, 4), row(3, 10.0, 1.0, 4)],
        };
        let spec = SelectionSpec {
            min_resilience: 100.0,
            max_area_pct: 12.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        let expired = CancelToken::with_deadline(Deadline::after(Duration::ZERO));
        assert_eq!(select_ilp_bounded(&db, &candidates, &spec, &expired), SelectOutcome::TimedOut);
        // The same spec with an unlimited token is solvable — the timeout
        // verdict came from the budget, not the model.
        assert!(matches!(
            select_ilp_bounded(&db, &candidates, &spec, &CancelToken::unlimited()),
            SelectOutcome::Selected(_)
        ));
    }

    #[test]
    fn bounded_select_proves_infeasibility_when_complete() {
        use rtlock_governor::CancelToken;
        let candidates: Vec<Candidate> = (0..2).map(fake_candidate).collect();
        let db = Database { cases: vec![row(0, 10.0, 10.0, 4), row(1, 10.0, 10.0, 4)] };
        let spec = SelectionSpec {
            min_resilience: 1000.0,
            max_area_pct: 5.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 0,
        };
        assert_eq!(
            select_ilp_bounded(&db, &candidates, &spec, &CancelToken::unlimited()),
            SelectOutcome::Infeasible
        );
    }

    #[test]
    fn key_floor_forces_more_cases() {
        let candidates: Vec<Candidate> = (0..3).map(fake_candidate).collect();
        let db = Database { cases: vec![row(0, 200.0, 2.0, 4), row(1, 5.0, 2.0, 4), row(2, 5.0, 2.0, 4)] };
        let spec = SelectionSpec {
            min_resilience: 100.0,
            max_area_pct: 20.0,
            added_res_pct: 0.0,
            shared_ov_pct: 0.0,
            min_key_bits: 12,
        };
        let sel = select_ilp(&db, &candidates, &spec).unwrap();
        assert_eq!(sel.len(), 3, "key floor requires all three");
    }
}
