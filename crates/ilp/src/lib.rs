//! 0/1 integer linear programming by branch-and-bound.
//!
//! RTLock's step 4 ("Selection of Cases") formulates locking-candidate
//! selection as an ILP (\[33\] in the paper): binary variables select locking
//! cases, `≥` rows enforce the attack-resilience target, `≤` rows cap the
//! area budget, mutual-exclusion rows keep at most one case per locking
//! point, and the objective minimizes the number (or cost) of selected
//! cases.
//!
//! The solver is a depth-first branch-and-bound with constraint-slack
//! pruning, capped at a fixed node budget. A search that ends within the
//! budget is exact: its solution is optimal and a `None` proves the
//! problem infeasible. A search that runs out of budget returns the best
//! incumbent it found, which may be suboptimal; [`IlpOutcome::complete`]
//! tells the two apart. Whether a search finishes depends on how early the
//! bounds prune, not only on the size: under the paper configuration the
//! b14 selection finishes in a few hundred thousand nodes, while b15's (47
//! variables) uses up the budget and selects the budget-cut incumbent.
//!
//! # Examples
//!
//! ```
//! use rtlock_ilp::{IlpProblem, Sense};
//!
//! // Pick a cheapest subset with total value >= 10.
//! let mut p = IlpProblem::minimize(vec![3.0, 5.0, 4.0]);
//! p.add_constraint(vec![(0, 6.0), (1, 8.0), (2, 5.0)], Sense::Ge, 10.0);
//! let sol = p.solve().expect("feasible");
//! assert_eq!(sol.assignment, vec![true, false, true]);
//! assert_eq!(sol.objective, 7.0);
//! ```

#![warn(missing_docs)]

use rtlock_governor::CancelToken;
use std::fmt;

/// Constraint direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ coeffs·x ≤ rhs`
    Le,
    /// `Σ coeffs·x ≥ rhs`
    Ge,
}

/// One linear constraint over binary variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients as `(variable, coefficient)`.
    pub coeffs: Vec<(usize, f64)>,
    /// Direction.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    fn check(&self, x: &[bool]) -> bool {
        let lhs: f64 = self.coeffs.iter().map(|&(i, c)| if x[i] { c } else { 0.0 }).sum();
        match self.sense {
            Sense::Le => lhs <= self.threshold(),
            Sense::Ge => lhs >= self.threshold(),
        }
    }

    /// The right-hand side with its `1e-9` tolerance: a `≤` row holds when
    /// its left-hand side is at most this, a `≥` row when it is at least
    /// this.
    fn threshold(&self) -> f64 {
        match self.sense {
            Sense::Le => self.rhs + 1e-9,
            Sense::Ge => self.rhs - 1e-9,
        }
    }

    /// Whether the row can still hold once the free variables take their
    /// most favourable values, with the bounds summed from scratch.
    fn slack_feasible(&self, x: &[bool], fixed: &[bool]) -> bool {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &(i, coeff) in &self.coeffs {
            if fixed[i] {
                if x[i] {
                    lo += coeff;
                    hi += coeff;
                }
            } else {
                lo += coeff.min(0.0);
                hi += coeff.max(0.0);
            }
        }
        match self.sense {
            Sense::Le => lo <= self.threshold(),
            Sense::Ge => hi >= self.threshold(),
        }
    }
}

/// A 0/1 minimization problem.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpProblem {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Value of each binary variable.
    pub assignment: Vec<bool>,
    /// Objective value `Σ cᵢ·xᵢ`.
    pub objective: f64,
}

/// Result of a budget-aware solve ([`IlpProblem::solve_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IlpOutcome {
    /// The best feasible assignment found, if any.
    pub solution: Option<IlpSolution>,
    /// `true` when the search ran to exhaustion: the solution is proven
    /// optimal, and `None` proves infeasibility. `false` means the node
    /// budget or the cancel token cut the search short — the solution (if
    /// any) is an incumbent, and `None` proves nothing.
    pub complete: bool,
}

/// Error for malformed constraint references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarOutOfRange {
    /// The offending variable index.
    pub var: usize,
}

impl fmt::Display for VarOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "variable x{} out of range", self.var)
    }
}

impl std::error::Error for VarOutOfRange {}

impl IlpProblem {
    /// Creates a problem minimizing `Σ objective[i]·x[i]`.
    pub fn minimize(objective: Vec<f64>) -> IlpProblem {
        IlpProblem { objective, constraints: Vec::new() }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, sense: Sense, rhs: f64) {
        for &(i, _) in &coeffs {
            assert!(i < self.num_vars(), "variable x{i} out of range");
        }
        self.constraints.push(Constraint { coeffs, sense, rhs });
    }

    /// Adds `Σ x[i] ≤ 1` over the given variables (mutual exclusion — at
    /// most one locking case per locking point).
    pub fn add_mutual_exclusion(&mut self, vars: &[usize]) {
        let coeffs = vars.iter().map(|&v| (v, 1.0)).collect();
        self.add_constraint(coeffs, Sense::Le, 1.0);
    }

    /// Solves within a budget of 4,000,000 branch nodes. Returns the
    /// optimum when the search finishes within the budget, and `None` when
    /// it proves the problem infeasible. When the budget runs out first,
    /// returns the best incumbent found so far, which may be suboptimal,
    /// or `None` if it found none; use [`IlpProblem::solve_with`] to learn
    /// whether the search finished.
    ///
    /// Branch-and-bound: depth-first over variables, pruning on (a) an
    /// incumbent bound using the sum of negative remaining coefficients and
    /// (b) per-constraint slack infeasibility. Variables are ordered by
    /// decreasing |objective|, then by decreasing total `≥`-row
    /// contribution, so feasible covers are found early. Each row keeps
    /// its slack bounds up to date as variables are fixed and released,
    /// and a node re-checks only the rows of the variable fixed last.
    pub fn solve(&self) -> Option<IlpSolution> {
        self.solve_with(&CancelToken::unlimited()).solution
    }

    /// Solves under a cooperative [`CancelToken`] (polled every few
    /// thousand branch nodes) in addition to the node budget, reporting
    /// whether the search completed. An interrupted search returns the
    /// best incumbent found so far — possibly `None`, which then proves
    /// nothing about feasibility.
    pub fn solve_with(&self, cancel: &CancelToken) -> IlpOutcome {
        self.search(cancel, Self::NODE_BUDGET).0
    }

    /// Node budget for [`IlpProblem::solve`].
    const NODE_BUDGET: u64 = 4_000_000;

    /// How often (in nodes) the cancel token is polled. Power of two so
    /// the check is a mask, keeping `Instant::now()` off the hot path.
    const CANCEL_POLL_MASK: u64 = 0xFFF;

    /// Branch order: largest |objective| first, then largest coverage of
    /// `≥` rows, so bounds and feasibility bite early.
    fn branch_order(&self) -> Vec<usize> {
        let n = self.num_vars();
        let mut ge_weight = vec![0.0f64; n];
        for c in &self.constraints {
            if c.sense == Sense::Ge {
                for &(i, coeff) in &c.coeffs {
                    ge_weight[i] += coeff.max(0.0);
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.objective[b]
                .abs()
                .total_cmp(&self.objective[a].abs())
                .then(ge_weight[b].total_cmp(&ge_weight[a]))
        });
        order
    }

    /// The search behind [`IlpProblem::solve_with`], cut after
    /// `node_budget` nodes. Also returns the search state, for its
    /// counters.
    fn search<'a>(&self, cancel: &'a CancelToken, node_budget: u64) -> (IlpOutcome, Search<'a>) {
        let mut search = Search::new(self, cancel, node_budget);
        // One up-front poll so an already-fired token (zero deadline,
        // fault injection) stops even problems too small to hit the
        // in-search poll interval.
        if cancel.should_stop().is_some() {
            return (IlpOutcome { solution: None, complete: false }, search);
        }
        let plan = Plan::new(self);
        let mut best: Option<IlpSolution> = None;
        self.branch(&plan, 0, 0.0, &mut best, &mut search);
        (IlpOutcome { solution: best, complete: !search.stopped }, search)
    }

    /// Records a leaf's assignment when it beats the incumbent.
    fn record_leaf(&self, x: &[bool], cost: f64, best: &mut Option<IlpSolution>) {
        debug_assert!(self.constraints.iter().all(|c| c.check(x)));
        if best.as_ref().is_none_or(|b| cost < b.objective - 1e-9) {
            *best = Some(IlpSolution { assignment: x.to_vec(), objective: cost });
        }
    }

    /// Which value of `v` to explore first: the cheaper branch; before any
    /// incumbent exists, selecting first so a feasible cover appears
    /// quickly.
    fn value_order(&self, v: usize, has_incumbent: bool) -> [bool; 2] {
        if self.objective[v] >= 0.0 && has_incumbent {
            [false, true]
        } else {
            [true, false]
        }
    }

    /// Whether row `r` can still hold: its incremental bound decides when
    /// it lies clearly on one side of the threshold, and the from-scratch
    /// sum decides within `band` of it, so every decision is the one the
    /// from-scratch sum makes.
    fn row_feasible(&self, plan: &Plan, r: usize, search: &mut Search<'_>) -> bool {
        let c = &self.constraints[r];
        let threshold = c.threshold();
        let bound = match c.sense {
            Sense::Le => search.lo[r],
            Sense::Ge => search.hi[r],
        };
        // NaN (an infinite coefficient) also falls through to the re-sum.
        if (bound - threshold).abs() > plan.band[r] {
            return match c.sense {
                Sense::Le => bound <= threshold,
                Sense::Ge => bound >= threshold,
            };
        }
        search.rechecks += 1;
        c.slack_feasible(&search.x, &search.fixed)
    }

    fn branch(
        &self,
        plan: &Plan,
        depth: usize,
        cost: f64,
        best: &mut Option<IlpSolution>,
        search: &mut Search<'_>,
    ) {
        if !search.enter_node() {
            return;
        }
        // Objective bound: remaining free vars can only lower the cost by
        // the sum of their negative coefficients.
        if let Some(b) = best {
            if cost + plan.free_gain[depth] >= b.objective - 1e-9 {
                return;
            }
        }
        // Constraint slack pruning. The parent passed every row, and only
        // the rows of the variable it fixed have changed since.
        let feasible = match depth.checked_sub(1) {
            None => (0..self.constraints.len()).all(|r| self.row_feasible(plan, r, search)),
            Some(d) => plan.rows_of[plan.order[d]].iter().all(|&r| self.row_feasible(plan, r, search)),
        };
        if !feasible {
            return;
        }
        if depth == plan.order.len() {
            self.record_leaf(&search.x, cost, best);
            return;
        }
        let v = plan.order[depth];
        search.fixed[v] = true;
        for val in self.value_order(v, best.is_some()) {
            let mark = search.fix(v, val, &plan.occurrences[v]);
            let dc = if val { self.objective[v] } else { 0.0 };
            self.branch(plan, depth + 1, cost + dc, best, search);
            search.restore(mark);
        }
        search.x[v] = false;
        search.fixed[v] = false;
    }
}

/// What the search precomputes once per solve.
struct Plan {
    /// Branch order over the variables.
    order: Vec<usize>,
    /// `free_gain[d]`: how far the variables `order[d..]` can still lower
    /// the cost (the sum of their negative objective coefficients).
    free_gain: Vec<f64>,
    /// Per variable: its occurrences as `(row, coefficient)`, in row and
    /// then coefficient order. A row may hold a variable more than once.
    occurrences: Vec<Vec<(usize, f64)>>,
    /// Per variable: the distinct rows it occurs in.
    rows_of: Vec<Vec<usize>>,
    /// Per row: `1e-12·(1 + Σ|coeff|)`. Within this distance of the
    /// threshold the row is re-summed from scratch. The rounding error of
    /// the incremental bounds stays far below it for rows of up to a few
    /// thousand coefficients.
    band: Vec<f64>,
}

impl Plan {
    fn new(p: &IlpProblem) -> Plan {
        let n = p.num_vars();
        let order = p.branch_order();
        // The same sum for every suffix that a per-node sum would take,
        // so the bound is bit-identical.
        let free_gain = (0..=n).map(|d| order[d..].iter().map(|&i| p.objective[i].min(0.0)).sum()).collect();
        let mut occurrences = vec![Vec::new(); n];
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, c) in p.constraints.iter().enumerate() {
            for &(i, coeff) in &c.coeffs {
                occurrences[i].push((r, coeff));
                if rows_of[i].last() != Some(&r) {
                    rows_of[i].push(r);
                }
            }
        }
        let band = p
            .constraints
            .iter()
            .map(|c| 1e-12 * (1.0 + c.coeffs.iter().map(|&(_, coeff)| coeff.abs()).sum::<f64>()))
            .collect();
        Plan { order, free_gain, occurrences, rows_of, band }
    }
}

/// Mutable search state threaded through [`IlpProblem::branch`].
struct Search<'a> {
    nodes: u64,
    node_budget: u64,
    /// Rows decided by the from-scratch sum because their incremental
    /// bound lay within the band of the threshold.
    rechecks: u64,
    stopped: bool,
    cancel: &'a CancelToken,
    x: Vec<bool>,
    fixed: Vec<bool>,
    /// Per row: the least (`lo`) and greatest (`hi`) value its left-hand
    /// side can still take under the current partial assignment.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// `(row, lo, hi)` saved before each update and restored, newest
    /// first, on backtrack. Restoring rather than subtracting keeps the
    /// bounds free of drift over millions of nodes.
    trail: Vec<(usize, f64, f64)>,
}

impl<'a> Search<'a> {
    /// A search at the root: every variable free.
    fn new(p: &IlpProblem, cancel: &'a CancelToken, node_budget: u64) -> Search<'a> {
        let n = p.num_vars();
        let (lo, hi) = p
            .constraints
            .iter()
            .map(|c| {
                c.coeffs.iter().fold((0.0f64, 0.0f64), |(lo, hi), &(_, coeff)| {
                    (lo + coeff.min(0.0), hi + coeff.max(0.0))
                })
            })
            .unzip();
        Search {
            nodes: 0,
            node_budget,
            rechecks: 0,
            stopped: false,
            cancel,
            x: vec![false; n],
            fixed: vec![false; n],
            lo,
            hi,
            trail: Vec::new(),
        }
    }

    /// Counts a node and applies the node budget and the cancel poll;
    /// `false` once the search has stopped.
    fn enter_node(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        self.nodes += 1;
        if self.nodes > self.node_budget
            || (self.nodes & IlpProblem::CANCEL_POLL_MASK == 0 && self.cancel.should_stop().is_some())
        {
            self.stopped = true;
            return false;
        }
        true
    }

    /// Sets `x[v] = val` and moves each occurrence of `v` from its free
    /// contribution to its fixed one, one occurrence after another.
    /// Returns the trail mark to [`Search::restore`] to.
    fn fix(&mut self, v: usize, val: bool, occurrences: &[(usize, f64)]) -> usize {
        let mark = self.trail.len();
        self.x[v] = val;
        for &(r, coeff) in occurrences {
            self.trail.push((r, self.lo[r], self.hi[r]));
            if val {
                self.lo[r] += coeff.max(0.0);
                self.hi[r] += coeff.min(0.0);
            } else {
                self.lo[r] -= coeff.min(0.0);
                self.hi[r] -= coeff.max(0.0);
            }
        }
        mark
    }

    /// Restores the bounds saved since `mark`, newest first.
    fn restore(&mut self, mark: usize) {
        for (r, lo, hi) in self.trail.drain(mark..).rev() {
            self.lo[r] = lo;
            self.hi[r] = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_minimum_is_all_zero() {
        let p = IlpProblem::minimize(vec![1.0, 2.0, 3.0]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.assignment, vec![false, false, false]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn covers_resilience_target_cheaply() {
        // RTLock-shaped: resilience >= 100, area <= 20, min #cases.
        let mut p = IlpProblem::minimize(vec![1.0, 1.0, 1.0, 1.0]);
        p.add_constraint(vec![(0, 80.0), (1, 30.0), (2, 60.0), (3, 10.0)], Sense::Ge, 100.0);
        p.add_constraint(vec![(0, 12.0), (1, 4.0), (2, 9.0), (3, 2.0)], Sense::Le, 20.0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.objective, 2.0, "two cases suffice");
        // 0+2: res 140, area 21 > 20 -> infeasible; must be 0+1 (110, 16).
        assert_eq!(sol.assignment, vec![true, true, false, false]);
    }

    #[test]
    fn mutual_exclusion_respected() {
        let mut p = IlpProblem::minimize(vec![1.0, 1.0, 1.0]);
        p.add_constraint(vec![(0, 5.0), (1, 5.0), (2, 5.0)], Sense::Ge, 10.0);
        p.add_mutual_exclusion(&[0, 1]);
        let sol = p.solve().unwrap();
        assert!(!(sol.assignment[0] && sol.assignment[1]));
        assert_eq!(sol.objective, 2.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut p = IlpProblem::minimize(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 3.0);
        assert!(p.solve().is_none());
    }

    #[test]
    fn negative_costs_turn_variables_on() {
        let p = IlpProblem::minimize(vec![-2.0, 1.0, -0.5]);
        let sol = p.solve().unwrap();
        assert_eq!(sol.assignment, vec![true, false, true]);
        assert_eq!(sol.objective, -2.5);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut seed = 0x1234_5678u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..50 {
            let n = 8;
            let obj: Vec<f64> = (0..n).map(|_| (rnd() % 21) as f64 - 10.0).collect();
            let mut p = IlpProblem::minimize(obj.clone());
            let mut cons = Vec::new();
            for _ in 0..4 {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for i in 0..n {
                    if rnd() % 2 == 0 {
                        coeffs.push((i, (rnd() % 11) as f64 - 5.0));
                    }
                }
                if coeffs.is_empty() {
                    continue;
                }
                let sense = if rnd() % 2 == 0 { Sense::Le } else { Sense::Ge };
                let rhs = (rnd() % 11) as f64 - 5.0;
                p.add_constraint(coeffs.clone(), sense, rhs);
                cons.push((coeffs, sense, rhs));
            }
            // Brute force.
            let mut best: Option<(f64, u32)> = None;
            for mask in 0..1u32 << n {
                let x: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                let ok = cons.iter().all(|(coeffs, sense, rhs)| {
                    let lhs: f64 = coeffs.iter().map(|&(i, c)| if x[i] { c } else { 0.0 }).sum();
                    match sense {
                        Sense::Le => lhs <= rhs + 1e-9,
                        Sense::Ge => lhs >= rhs - 1e-9,
                    }
                });
                if ok {
                    let cost: f64 = (0..n).map(|i| if x[i] { obj[i] } else { 0.0 }).sum();
                    if best.is_none() || cost < best.expect("set").0 - 1e-9 {
                        best = Some((cost, mask));
                    }
                }
            }
            let sol = p.solve();
            match (best, sol) {
                (None, None) => {}
                (Some((cost, _)), Some(s)) => {
                    assert!((cost - s.objective).abs() < 1e-6, "objective mismatch: {cost} vs {}", s.objective)
                }
                (b, s) => panic!("feasibility mismatch: brute {b:?} vs bb {:?}", s.map(|s| s.objective)),
            }
        }
    }

    #[test]
    fn solve_with_unlimited_token_is_complete() {
        let mut p = IlpProblem::minimize(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 5.0), (1, 5.0)], Sense::Ge, 5.0);
        let out = p.solve_with(&CancelToken::unlimited());
        assert!(out.complete);
        assert_eq!(out.solution.unwrap().objective, 1.0);
    }

    #[test]
    fn expired_token_yields_incomplete_outcome() {
        use rtlock_governor::Deadline;
        let mut p = IlpProblem::minimize(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 5.0), (1, 5.0)], Sense::Ge, 5.0);
        let token = CancelToken::with_deadline(Deadline::after(std::time::Duration::ZERO));
        let out = p.solve_with(&token);
        assert!(!out.complete, "expired deadline must not claim optimality");
        assert!(out.solution.is_none());
    }

    #[test]
    fn incomplete_infeasible_proves_nothing() {
        // Same infeasible problem as `infeasible_returns_none`, but with a
        // cancelled token: `complete` distinguishes "proved infeasible"
        // from "gave up".
        let mut p = IlpProblem::minimize(vec![1.0, 1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Ge, 3.0);
        let exhaustive = p.solve_with(&CancelToken::unlimited());
        assert!(exhaustive.complete && exhaustive.solution.is_none());
        let token = CancelToken::unlimited();
        token.cancel();
        let cut = p.solve_with(&token);
        assert!(!cut.complete && cut.solution.is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_variable() {
        let mut p = IlpProblem::minimize(vec![1.0]);
        p.add_constraint(vec![(3, 1.0)], Sense::Le, 1.0);
    }

    impl IlpProblem {
        /// The search with every row and the free gain summed from scratch
        /// at every node: the reference the incremental search must match
        /// node for node.
        fn search_reference<'a>(&self, cancel: &'a CancelToken, node_budget: u64) -> (IlpOutcome, Search<'a>) {
            let mut search = Search::new(self, cancel, node_budget);
            if cancel.should_stop().is_some() {
                return (IlpOutcome { solution: None, complete: false }, search);
            }
            let order = self.branch_order();
            let mut best = None;
            self.branch_reference(&order, 0, 0.0, &mut best, &mut search);
            (IlpOutcome { solution: best, complete: !search.stopped }, search)
        }

        fn branch_reference(
            &self,
            order: &[usize],
            depth: usize,
            cost: f64,
            best: &mut Option<IlpSolution>,
            search: &mut Search<'_>,
        ) {
            if !search.enter_node() {
                return;
            }
            let free_gain: f64 = order[depth..].iter().map(|&i| self.objective[i].min(0.0)).sum();
            if let Some(b) = best {
                if cost + free_gain >= b.objective - 1e-9 {
                    return;
                }
            }
            if !self.constraints.iter().all(|c| c.slack_feasible(&search.x, &search.fixed)) {
                return;
            }
            if depth == order.len() {
                self.record_leaf(&search.x, cost, best);
                return;
            }
            let v = order[depth];
            search.fixed[v] = true;
            for val in self.value_order(v, best.is_some()) {
                search.x[v] = val;
                let dc = if val { self.objective[v] } else { 0.0 };
                self.branch_reference(order, depth + 1, cost + dc, best, search);
            }
            search.x[v] = false;
            search.fixed[v] = false;
        }
    }

    /// xorshift64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }

        /// A fractional coefficient in about [-5, 15]; most are positive,
        /// like the database's resilience, area and key-size columns.
        fn coeff(&mut self) -> f64 {
            (self.below(2001) as f64 - 500.0) / 97.0
        }
    }

    /// A random selection-shaped instance: 4–18 variables, unit or
    /// fractional (partly negative) objective, 1–4 general rows of mixed
    /// sense with fractional and negative coefficients and sometimes
    /// repeated variables, and up to 2 mutual-exclusion rows. Two rows in
    /// three get a right-hand side one tolerance away from a subset sum of
    /// their coefficients, so that bounds land on the threshold itself.
    fn random_instance(rng: &mut Rng) -> IlpProblem {
        let n = 4 + rng.below(15) as usize;
        let objective = if rng.one_in(2) { vec![1.0; n] } else { (0..n).map(|_| rng.coeff()).collect() };
        let mut p = IlpProblem::minimize(objective);
        for _ in 0..1 + rng.below(4) {
            let mut coeffs = Vec::new();
            for i in 0..n {
                if rng.one_in(2) {
                    coeffs.push((i, rng.coeff()));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            if rng.one_in(3) {
                for _ in 0..1 + rng.below(3) {
                    let (i, _) = coeffs[rng.below(coeffs.len() as u64) as usize];
                    coeffs.insert(rng.below(coeffs.len() as u64 + 1) as usize, (i, rng.coeff()));
                }
            }
            let sense = if rng.one_in(2) { Sense::Le } else { Sense::Ge };
            let rhs = if rng.one_in(3) {
                rng.coeff() * 3.0
            } else {
                let subset: f64 = coeffs.iter().filter(|_| rng.one_in(2)).map(|&(_, c)| c).sum();
                match sense {
                    Sense::Le => subset - 1e-9,
                    Sense::Ge => subset + 1e-9,
                }
            };
            p.add_constraint(coeffs, sense, rhs);
        }
        for _ in 0..rng.below(3) {
            let mut group: Vec<usize> = (0..2 + rng.below(3)).map(|_| rng.below(n as u64) as usize).collect();
            group.sort_unstable();
            group.dedup();
            p.add_mutual_exclusion(&group);
        }
        p
    }

    #[test]
    fn incremental_search_matches_the_reference_node_for_node() {
        let token = CancelToken::unlimited();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut cut, mut infeasible, mut rechecks) = (0, 0, 0);
        for round in 0..3000 {
            let p = random_instance(&mut rng);
            // Every third search runs under a small budget, so searches
            // cut short are compared too.
            let budget = if round % 3 == 2 { 1 + rng.below(300) } else { IlpProblem::NODE_BUDGET };
            let (fast, fast_search) = p.search(&token, budget);
            let (slow, slow_search) = p.search_reference(&token, budget);
            assert_eq!(fast_search.nodes, slow_search.nodes, "instance {round}: node count");
            assert_eq!(fast, slow, "instance {round}: outcome");
            cut += usize::from(!fast.complete);
            infeasible += usize::from(fast.complete && fast.solution.is_none());
            rechecks += fast_search.rechecks;
        }
        // The sample must reach the cut, infeasible and near-threshold
        // paths for the comparison to cover them.
        assert!(cut > 100, "budget-cut searches: {cut}");
        assert!(infeasible > 100, "infeasible instances: {infeasible}");
        assert!(rechecks > 100, "rows re-summed near their threshold: {rechecks}");
    }

    #[test]
    fn repeated_variable_occurrences_accumulate() {
        // x0 occurs twice in the first row: 3·x0 − 2·x0 + x1 ≥ 1.5 needs
        // both x0 and x1 (1 + 1 = 2), not x0 alone (1).
        let mut p = IlpProblem::minimize(vec![1.0, 1.0, 5.0]);
        p.add_constraint(vec![(0, 3.0), (1, 1.0), (0, -2.0)], Sense::Ge, 1.5);
        p.add_constraint(vec![(2, 1.0), (0, 0.5), (2, -1.0)], Sense::Le, 0.5);
        let token = CancelToken::unlimited();
        let (fast, fast_search) = p.search(&token, IlpProblem::NODE_BUDGET);
        let (slow, slow_search) = p.search_reference(&token, IlpProblem::NODE_BUDGET);
        assert_eq!((fast.clone(), fast_search.nodes), (slow, slow_search.nodes));
        assert_eq!(fast.solution.unwrap().assignment, vec![true, true, false]);
    }
}
