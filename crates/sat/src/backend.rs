//! Solver-backend abstraction.
//!
//! The attacks are written against this trait instead of a concrete
//! solver so the same attack loop can run on the modern arena core, the
//! frozen [`crate::baseline`] reference, or any future backend — which is
//! what lets the bench harness demand *identical recovered keys* from two
//! implementations, not just similar timings.

use crate::solver::{Budget, Stats};
use crate::types::{Lit, SolveResult, Var};

/// The incremental CNF-solver interface the rest of the workspace
/// consumes: DIMACS-style clause loading, assumption-based solving under a
/// [`Budget`], and model readback.
pub trait SatBackend {
    /// Creates an empty solver.
    fn new() -> Self;
    /// Ensures at least `n` variables exist.
    fn reserve_vars(&mut self, n: usize);
    /// Number of variables.
    fn num_vars(&self) -> usize;
    /// Adds a clause in DIMACS literals, allocating variables on demand;
    /// `false` means the formula is now trivially UNSAT.
    fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool;
    /// Adds a clause of [`Lit`]s; `false` means trivially UNSAT.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;
    /// Sets the resource budget for subsequent solves.
    fn set_budget(&mut self, budget: Budget);
    /// Cumulative statistics.
    fn stats(&self) -> Stats;
    /// Solves under assumptions.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult;
    /// Model value of `var` after a SAT answer.
    fn value(&self, var: Var) -> Option<bool>;
}

impl SatBackend for crate::Solver {
    fn new() -> Self {
        crate::Solver::new()
    }
    fn reserve_vars(&mut self, n: usize) {
        crate::Solver::reserve_vars(self, n);
    }
    fn num_vars(&self) -> usize {
        crate::Solver::num_vars(self)
    }
    fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool {
        crate::Solver::add_dimacs_clause(self, lits)
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        crate::Solver::add_clause(self, lits)
    }
    fn set_budget(&mut self, budget: Budget) {
        crate::Solver::set_budget(self, budget);
    }
    fn stats(&self) -> Stats {
        crate::Solver::stats(self)
    }
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        crate::Solver::solve(self, assumptions)
    }
    fn value(&self, var: Var) -> Option<bool> {
        crate::Solver::value(self, var)
    }
}

impl SatBackend for crate::baseline::Solver {
    fn new() -> Self {
        crate::baseline::Solver::new()
    }
    fn reserve_vars(&mut self, n: usize) {
        crate::baseline::Solver::reserve_vars(self, n);
    }
    fn num_vars(&self) -> usize {
        crate::baseline::Solver::num_vars(self)
    }
    fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool {
        crate::baseline::Solver::add_dimacs_clause(self, lits)
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        crate::baseline::Solver::add_clause(self, lits)
    }
    fn set_budget(&mut self, budget: Budget) {
        crate::baseline::Solver::set_budget(self, budget);
    }
    fn stats(&self) -> Stats {
        crate::baseline::Solver::stats(self)
    }
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        crate::baseline::Solver::solve(self, assumptions)
    }
    fn value(&self, var: Var) -> Option<bool> {
        crate::baseline::Solver::value(self, var)
    }
}
