//! A from-scratch CDCL SAT solver.
//!
//! This is the decision engine behind the oracle-guided SAT attack, the BMC
//! attack and the formal equivalence checks of the RTLock reproduction —
//! the role MiniSat plays inside the original attack tool of Subramanyan et
//! al. (\[4\], \[38\] in the paper).
//!
//! Features: a flat `u32` clause arena (`clause_db`) with tombstone
//! deletion and compacting GC, two-watched-literal propagation with
//! blocker literals, VSIDS branching with phase saving, first-UIP clause
//! learning with recursive minimization, LBD ("glue") tracking with
//! glucose-style learnt reduction and restart signalling alongside Luby
//! (`reduce`), inter-restart inprocessing (`simplify`), incremental
//! solving under assumptions, and conflict/propagation/wall-clock budgets
//! so attack experiments can enforce the paper's timeout regime. The
//! pre-arena solver is preserved in [`baseline`] as the differential
//! oracle, and [`SatBackend`] abstracts over both.
//!
//! # Examples
//!
//! ```
//! use rtlock_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! // (x1 | x2) & (!x1 | x2) & (x1 | !x2)  =>  x1 = x2 = 1
//! s.add_dimacs_clause(&[1, 2]);
//! s.add_dimacs_clause(&[-1, 2]);
//! s.add_dimacs_clause(&[1, -2]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(rtlock_sat::Var(0)), Some(true));
//! assert_eq!(s.value(rtlock_sat::Var(1)), Some(true));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod baseline;
mod clause_db;
mod reduce;
mod simplify;
pub mod solver;
pub mod types;

pub use backend::SatBackend;
pub use solver::{Budget, Solver, Stats, INPROCESS_MIN_VARS};
pub use types::{Lit, SolveResult, Var};
