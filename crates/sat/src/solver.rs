//! The CDCL solver.
//!
//! The clause database is the flat arena of the `clause_db` module; learnt
//! clauses carry their literal-block distance (LBD, "glue") and the learnt
//! set is periodically reduced by glue (`reduce`); cheap
//! inprocessing runs between restarts (`simplify`). The search
//! itself is classic CDCL: two-watched-literal propagation with blocker
//! literals, VSIDS decisions with phase saving, first-UIP learning with
//! recursive clause minimization, and Luby restarts tightened by a
//! glue-EMA signal.
//!
//! Determinism contract: a solve is a pure function of the clause/variable
//! insertion sequence and the budget — same input and budget produce the
//! same verdict, the same [`Stats`] and the same model, bit for bit. No
//! randomness, no hashing, and only integer arithmetic in the restart and
//! reduction policies. (Wall-clock deadlines and cancel tokens are the
//! deliberate exception: they exist to cut searches short.)

use crate::clause_db::{CRef, ClauseDB, CREF_NONE};
use crate::reduce::LbdQueue;
use crate::types::{Lit, SolveResult, Var};
use rtlock_governor::CancelToken;
use std::time::Instant;

/// Resource limits for a solve call. The solver checks the budget at every
/// restart boundary and returns [`SolveResult::Unknown`] when exceeded.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum number of conflicts.
    pub max_conflicts: Option<u64>,
    /// Maximum number of unit propagations.
    pub max_propagations: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: a fired token stops the solve at the next
    /// restart boundary with [`SolveResult::Unknown`]. This is how a
    /// portfolio executor interrupts a losing solver mid-search — a
    /// deadline alone cannot be fired early from another thread.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Limit by conflict count only.
    pub fn conflicts(n: u64) -> Budget {
        Budget { max_conflicts: Some(n), ..Budget::default() }
    }

    /// Limit by a shared wall-clock [`Deadline`](rtlock_governor::Deadline)
    /// only (an unbounded deadline yields an unlimited budget).
    pub fn until(deadline: rtlock_governor::Deadline) -> Budget {
        Budget { deadline: deadline.as_instant(), ..Budget::default() }
    }

    /// Limit by a [`CancelToken`]: both its deadline and its (possibly
    /// cross-thread) cancel flag bound the solve.
    pub fn cancellable(token: &CancelToken) -> Budget {
        Budget {
            deadline: token.deadline().as_instant(),
            cancel: Some(token.clone()),
            ..Budget::default()
        }
    }

    /// Attaches a cancel token to an existing budget (builder-style).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Budget {
        self.cancel = Some(token.clone());
        self
    }

    pub(crate) fn exceeded(&self, stats: &Stats) -> bool {
        if let Some(mc) = self.max_conflicts {
            if stats.conflicts >= mc {
                return true;
            }
        }
        if let Some(mp) = self.max_propagations {
            if stats.propagations >= mp {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return true;
            }
        }
        false
    }
}

/// Search statistics, cumulative over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: u64,
    /// Learnt-database reduction passes.
    pub reduces: u64,
    /// Learnt clauses dropped by reduction.
    pub removed_learnts: u64,
    /// Inter-restart simplification passes that did work.
    pub simplifies: u64,
    /// Arena garbage collections (compactions).
    pub gc_runs: u64,
    /// Literals removed by recursive conflict-clause minimization.
    pub minimized_lits: u64,
    /// Models checked against the full clause arena (debug builds run the
    /// check on every SAT answer; release builds only count explicit
    /// [`Solver::verify_model`] calls).
    pub verified_models: u64,
}

/// One watch-list entry: the clause plus a cached "blocker" literal from
/// it. If the blocker is already true the clause is satisfied and the
/// arena is never touched — the hot-path win of the MiniSat watcher scheme.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: CRef,
    pub(crate) blocker: Lit,
}

/// A CDCL SAT solver: two-watched-literal propagation over a flat clause
/// arena, VSIDS decisions with phase saving, first-UIP clause learning
/// with recursive minimization, LBD-driven learnt-clause reduction, Luby +
/// glue-EMA restarts, inter-restart simplification, and incremental
/// solving under assumptions.
///
/// # Examples
///
/// ```
/// use rtlock_sat::{Solver, SolveResult, Var};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// // Incremental: now assume b is false.
/// assert_eq!(s.solve(&[b.negative()]), SolveResult::Unsat);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    pub(crate) db: ClauseDB,
    pub(crate) watches: Vec<Vec<Watcher>>,
    pub(crate) assign: Vec<i8>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<CRef>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    pub(crate) phase: Vec<bool>,
    pub(crate) heap: Vec<Var>,
    pub(crate) heap_pos: Vec<usize>,
    pub(crate) ok: bool,
    pub(crate) stats: Stats,
    pub(crate) budget: Budget,
    pub(crate) seen: Vec<u8>,
    pub(crate) model: Vec<i8>,
    /// Per-decision-level stamps for LBD computation.
    pub(crate) lbd_stamp: Vec<u64>,
    pub(crate) lbd_counter: u64,
    /// Recent-glue window driving the EMA restart signal.
    pub(crate) lbd_queue: LbdQueue,
    /// Lifetime sum of learnt-clause LBDs (the EMA baseline).
    pub(crate) lbd_sum: u64,
    /// Learnt-count threshold for the next reduction (grows geometrically).
    pub(crate) reduce_limit: u64,
    /// Trail length after the last simplification pass.
    pub(crate) simplified_at: usize,
    /// Scratch stack for recursive clause minimization.
    pub(crate) analyze_stack: Vec<Lit>,
    /// Instances with fewer variables than this skip the glue-EMA restart
    /// signal, learnt-database reduction and inter-restart inprocessing:
    /// on tiny formulas the bookkeeping costs more than the search it
    /// saves (the php4/php5 regression vs the pre-arena baseline).
    /// `0` disables the gate (always inprocess).
    pub(crate) inproc_min_vars: usize,
}

const HEAP_NONE: usize = usize::MAX;

/// Default variable-count floor for inprocessing (glue-EMA restarts,
/// learnt reduction, inter-restart simplification). Chosen from the
/// DIMACS bench corpus: php(4→3)/php(5→4) (12/20 vars) regressed vs the
/// pre-arena baseline purely on bookkeeping, while php(6→5) (30 vars) and
/// php(7→6) (42 vars) profit from the full machinery.
pub const INPROCESS_MIN_VARS: usize = 28;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDB::default(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            ok: true,
            stats: Stats::default(),
            budget: Budget::unlimited(),
            seen: Vec::new(),
            model: Vec::new(),
            lbd_stamp: vec![0],
            lbd_counter: 0,
            lbd_queue: LbdQueue::default(),
            lbd_sum: 0,
            reduce_limit: 2000,
            simplified_at: 0,
            analyze_stack: Vec::new(),
            inproc_min_vars: INPROCESS_MIN_VARS,
        }
    }

    /// Sets the resource budget for subsequent [`Solver::solve`] calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Sets the variable-count threshold below which the solver skips
    /// glue-EMA restarts, learnt reduction and inter-restart
    /// simplification. `0` disables the gate; the default is
    /// [`INPROCESS_MIN_VARS`].
    #[cfg(test)]
    pub fn set_inprocessing_threshold(&mut self, vars: usize) {
        self.inproc_min_vars = vars;
    }

    /// `true` when this instance is below the inprocessing threshold.
    #[inline]
    pub(crate) fn inprocessing_gated(&self) -> bool {
        self.num_vars() < self.inproc_min_vars
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(CREF_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(0);
        self.heap_pos.push(HEAP_NONE);
        self.lbd_stamp.push(0);
        self.heap_insert(v);
        v
    }

    /// Ensures at least `n` variables exist (for DIMACS-style loading).
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds a clause given in DIMACS literals, allocating variables on
    /// demand. Returns `false` if the formula is now trivially UNSAT.
    pub fn add_dimacs_clause(&mut self, lits: &[i32]) -> bool {
        let max_var = lits.iter().map(|l| l.unsigned_abs() as usize).max().unwrap_or(0);
        self.reserve_vars(max_var);
        let converted: Vec<Lit> = lits.iter().map(|&l| Lit::from_dimacs(l)).collect();
        self.add_clause(&converted)
    }

    /// Adds a clause. Must be called at decision level 0 (i.e. between
    /// solve calls). Returns `false` if the formula is now trivially UNSAT.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search or with unallocated variables.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause must be called at level 0");
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable {}", l.var());
        }
        // Simplify: sort/dedup, drop false lits, detect tautology/satisfied.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut out = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.contains(&!l) {
                return true; // tautology
            }
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop falsified literal
                None => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], CREF_NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&out, false);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let cref = self.db.alloc(lits, learnt);
        self.watches[lits[0].index()].push(Watcher { cref, blocker: lits[1] });
        self.watches[lits[1].index()].push(Watcher { cref, blocker: lits[0] });
        if learnt {
            self.stats.learnts += 1;
        }
        cref
    }

    /// The model value of a variable after a [`SolveResult::Sat`] answer;
    /// `None` if the variable did not occur in the search.
    pub fn value(&self, var: Var) -> Option<bool> {
        let v = self.model.get(var.index()).copied().unwrap_or(0);
        match v {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    fn assigned_value(&self, var: Var) -> Option<bool> {
        match self.assign[var.index()] {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    pub(crate) fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.assigned_value(lit.var()).map(|v| lit.apply(v))
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn enqueue(&mut self, lit: Lit, reason: CRef) {
        debug_assert_eq!(self.lit_value(lit), None);
        let v = lit.var();
        self.assign[v.index()] = if lit.is_positive() { 1 } else { -1 };
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = lit.is_positive();
        self.trail.push(lit);
    }

    /// Propagates enqueued assignments; returns a conflicting clause.
    pub(crate) fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Blocker already true: clause satisfied, arena untouched.
                if self.lit_value(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalize: the falsified watch sits at position 1.
                if self.db.lit(cref, 0) == false_lit {
                    self.db.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(cref, 1), false_lit);
                let first = self.db.lit(cref, 0);
                let next_w = Watcher { cref, blocker: first };
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[j] = next_w;
                    j += 1;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let size = self.db.size(cref);
                for k in 2..size {
                    let l = self.db.lit(cref, k);
                    if self.lit_value(l) != Some(false) {
                        self.db.swap_lits(cref, 1, k);
                        self.watches[l.index()].push(next_w);
                        i += 1;
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                ws[j] = next_w;
                j += 1;
                i += 1;
                if self.lit_value(first) == Some(false) {
                    // Conflict: keep the rest of the list and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, cref);
                }
            }
            ws.truncate(j);
            let existing = std::mem::take(&mut self.watches[false_lit.index()]);
            ws.extend(existing);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    pub(crate) fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    pub(crate) fn backtrack_to(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = 0;
            self.reason[v.index()] = CREF_NONE;
            if self.heap_pos[v.index()] == HEAP_NONE {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    // ---- VSIDS order heap --------------------------------------------

    /// Max-heap order with a total comparison (`total_cmp` is NaN-proof)
    /// and a variable-index tie-break so the branching order is fully
    /// deterministic even when activities collide (e.g. right after a
    /// rescale or on fresh variables).
    fn heap_less(&self, a: Var, b: Var) -> bool {
        match self.activity[a.index()].total_cmp(&self.activity[b.index()]) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a.0 < b.0,
        }
    }

    fn heap_insert(&mut self, v: Var) {
        debug_assert_eq!(self.heap_pos[v.index()], HEAP_NONE);
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a].index()] = a;
        self.heap_pos[self.heap[b].index()] = b;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = HEAP_NONE;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    pub(crate) fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            self.rescale_activities();
        }
        let pos = self.heap_pos[v.index()];
        if pos != HEAP_NONE {
            self.heap_sift_up(pos);
        }
    }

    /// Rescales every activity and the increment by 1e-100, preserving
    /// relative order. Called from [`Solver::bump_var`] when an activity
    /// crosses 1e100 and from [`Solver::decay_activities`] when the
    /// increment itself threatens to overflow to `inf` (an `inf - inf` or
    /// `inf * 0` later would mint the NaNs that break heap comparators).
    fn rescale_activities(&mut self) {
        for a in &mut self.activity {
            *a *= 1e-100;
        }
        self.var_inc *= 1e-100;
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        if self.var_inc > 1e100 {
            self.rescale_activities();
        }
    }

    // ---- conflict analysis --------------------------------------------

    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Distinct decision levels among `lits` (the literal-block distance),
    /// computed with per-level stamps in O(|lits|).
    pub(crate) fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for &l in lits {
            let lv = self.level[l.var().index()] as usize;
            if lv > 0 && self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP analysis with recursive minimization; returns the learnt
    /// clause (asserting literal first), the backjump level, and the LBD.
    fn analyze(&mut self, mut conflict: CRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = Vec::with_capacity(8);
        learnt.push(Lit::from_code(0)); // slot 0: the asserting literal
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();

        loop {
            debug_assert!(conflict != CREF_NONE, "non-decision must have a reason");
            let size = self.db.size(conflict);
            let start = usize::from(p.is_some());
            for i in start..size {
                let q = self.db.lit(conflict, i);
                let v = q.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    self.seen[v.index()] = 1;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail at the current level.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] != 0 {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            p = Some(pl);
            self.seen[pl.var().index()] = 0;
            path -= 1;
            if path == 0 {
                break;
            }
            conflict = self.reason[pl.var().index()];
        }
        learnt[0] = !p.expect("first UIP");

        // Recursive minimization: drop literals implied by the rest.
        let mut to_clear: Vec<Var> = learnt[1..].iter().map(|l| l.var()).collect();
        let mut abstract_levels = 0u32;
        for &l in &learnt[1..] {
            abstract_levels |= self.abstract_level(l.var());
        }
        let mut kept = Vec::with_capacity(learnt.len());
        kept.push(learnt[0]);
        for &l in learnt.iter().skip(1) {
            if self.reason[l.var().index()] == CREF_NONE
                || !self.lit_redundant(l, abstract_levels, &mut to_clear)
            {
                kept.push(l);
            } else {
                self.stats.minimized_lits += 1;
            }
        }
        let mut learnt = kept;
        for v in to_clear {
            self.seen[v.index()] = 0;
        }

        let lbd = self.compute_lbd(&learnt);

        // Backjump level = second-highest level in the clause; its literal
        // moves to slot 1 so both watches are sound after the jump.
        let mut backjump = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            backjump = self.level[learnt[1].var().index()];
        }
        (learnt, backjump, lbd)
    }

    /// MiniSat's recursive redundancy check: `p` can be dropped from the
    /// learnt clause if every literal reachable through its reason chain is
    /// already in the clause (seen) or sits at level 0. `to_clear` collects
    /// the extra `seen` marks so the caller can wipe them.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<Var>) -> bool {
        let mut stack = std::mem::take(&mut self.analyze_stack);
        stack.clear();
        stack.push(p);
        let top = to_clear.len();
        let mut redundant = true;
        'walk: while let Some(q) = stack.pop() {
            let cref = self.reason[q.var().index()];
            debug_assert!(cref != CREF_NONE);
            let size = self.db.size(cref);
            for i in 1..size {
                let l = self.db.lit(cref, i);
                let v = l.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    if self.reason[v.index()] != CREF_NONE
                        && (self.abstract_level(v) & abstract_levels) != 0
                    {
                        self.seen[v.index()] = 1;
                        stack.push(l);
                        to_clear.push(v);
                    } else {
                        // A decision (or a foreign level) blocks the chain:
                        // undo the marks made during this probe.
                        for &u in &to_clear[top..] {
                            self.seen[u.index()] = 0;
                        }
                        to_clear.truncate(top);
                        redundant = false;
                        break 'walk;
                    }
                }
            }
        }
        stack.clear();
        self.analyze_stack = stack;
        redundant
    }

    // ---- model self-check ------------------------------------------------

    /// Checks the most recent model against every live clause in the
    /// arena. Debug builds run this on every SAT answer (and panic on
    /// failure); harnesses may call it directly. Counted in
    /// [`Stats::verified_models`].
    pub fn verify_model(&mut self) -> bool {
        self.stats.verified_models += 1;
        let model = &self.model;
        let lit_true = |l: Lit| match model.get(l.var().index()).copied().unwrap_or(0) {
            1 => l.is_positive(),
            -1 => !l.is_positive(),
            _ => false,
        };
        // Level-0 facts must be reflected in the model, too.
        for &l in &self.trail {
            if self.level[l.var().index()] == 0 && !lit_true(l) {
                return false;
            }
        }
        for cref in self.db.refs() {
            let size = self.db.size(cref);
            if !(0..size).any(|i| lit_true(self.db.lit(cref, i))) {
                return false;
            }
        }
        true
    }

    // ---- main search -----------------------------------------------------

    /// Solves under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with the model readable via
    /// [`Solver::value`], [`SolveResult::Unsat`] if no assignment extends
    /// the assumptions, or [`SolveResult::Unknown`] when the budget runs
    /// out. The solver can be reused (and extended with clauses) after any
    /// result.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        // An already-exhausted budget (expired deadline, fired cancel
        // token) stops the solve before any search, so cancellation is
        // deterministic even on instances that would solve conflict-free.
        if self.budget.exceeded(&self.stats) {
            return SolveResult::Unknown;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        if !self.inprocessing_gated() {
            self.simplify_db();
            if !self.ok {
                return SolveResult::Unsat;
            }
        }

        let mut luby_index = 0u64;
        loop {
            let restart_budget = 100 * luby(luby_index);
            luby_index += 1;
            match self.search(restart_budget, assumptions) {
                Some(r) => {
                    if r == SolveResult::Sat {
                        self.model = self.assign.clone();
                        if cfg!(debug_assertions) {
                            assert!(
                                self.verify_model(),
                                "SAT model fails the clause-arena self-check"
                            );
                        }
                    }
                    self.backtrack_to(0);
                    return r;
                }
                None => {
                    self.stats.restarts += 1;
                    self.lbd_queue.clear();
                    self.backtrack_to(0);
                    if self.budget.exceeded(&self.stats) {
                        return SolveResult::Unknown;
                    }
                    // Inprocessing between restarts: fold the top-level
                    // facts learnt so far into the arena. Gated off on
                    // small instances, where the pass costs more than the
                    // propagation it saves.
                    if !self.inprocessing_gated() {
                        self.simplify_db();
                        if !self.ok {
                            return SolveResult::Unsat;
                        }
                    }
                }
            }
        }
    }

    /// Runs until `conflict_budget` conflicts (restart), a glue-EMA
    /// restart, a result, or a budget stop. `None` means "restart".
    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        let gated = self.inprocessing_gated();
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                // Never backjump into the assumption levels with a learnt
                // unit that contradicts them: analyze and jump; if the
                // asserting level is inside assumptions, re-deciding will
                // detect the contradiction below.
                let (learnt, backjump, lbd) = self.analyze(conflict);
                if !gated {
                    self.lbd_queue.push(lbd);
                    self.lbd_sum += u64::from(lbd);
                }
                self.backtrack_to(backjump);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == Some(false) {
                        self.ok = self.decision_level() > 0;
                        return Some(SolveResult::Unsat);
                    }
                    if self.lit_value(learnt[0]).is_none() {
                        self.enqueue(learnt[0], CREF_NONE);
                    }
                } else {
                    let cref = self.attach_clause(&learnt, true);
                    self.db.set_lbd(cref, lbd);
                    self.enqueue(learnt[0], cref);
                }
                self.decay_activities();
                if conflicts_here >= conflict_budget
                    || (!gated && self.glue_restart_signal())
                    || self.budget.exceeded(&self.stats)
                {
                    return None; // restart / budget check
                }
                if !gated && self.stats.learnts >= self.reduce_limit {
                    self.reduce_db();
                }
            } else {
                // Assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        Some(true) => {
                            self.new_decision_level();
                            continue;
                        }
                        Some(false) => return Some(SolveResult::Unsat),
                        None => {
                            self.new_decision_level();
                            self.enqueue(a, CREF_NONE);
                            continue;
                        }
                    }
                }
                // Pick a branching variable: the VSIDS top.
                let next = loop {
                    match self.heap_pop() {
                        Some(v) if self.assign[v.index()] == 0 => break Some(v),
                        Some(_) => continue,
                        None => break None,
                    }
                };
                match next {
                    None => return Some(SolveResult::Sat),
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let lit = Lit::new(v, self.phase[v.index()]);
                        self.enqueue(lit, CREF_NONE);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed.
pub(crate) fn luby(i: u64) -> u64 {
    let mut x = i + 1;
    loop {
        let k = 64 - x.leading_zeros() as u64;
        if x == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(dimacs: &[i32]) -> Vec<Lit> {
        dimacs.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[vars[0].positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(vars[19]), Some(true));
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is UNSAT (odd cycle).
        let mut s = Solver::new();
        s.reserve_vars(3);
        let xor1 = |s: &mut Solver, a: i32, b: i32| {
            s.add_dimacs_clause(&[a, b]);
            s.add_dimacs_clause(&[-a, -b]);
        };
        xor1(&mut s, 1, 2);
        xor1(&mut s, 2, 3);
        xor1(&mut s, 1, 3);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // Pigeon i in hole j: var p(i,j) = 3i + j + 1 (DIMACS).
        let mut s = Solver::new();
        let p = |i: i32, j: i32| 3 * i + j + 1;
        for i in 0..4 {
            s.add_dimacs_clause(&[p(i, 0), p(i, 1), p(i, 2)]);
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_are_incremental() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(&[a.negative()]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve(&[a.negative(), b.negative()]), SolveResult::Unsat);
        // Solver still usable with other assumptions.
        assert_eq!(s.solve(&[b.negative()]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn clauses_addable_between_solves() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[a.negative()]);
        s.add_clause(&[b.negative()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Deterministic pseudo-random 3-SAT instances, checked against the
        // returned model.
        let mut seed = 0xDEADBEEFu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..30 {
            let nv = 12;
            let nc = 40;
            let mut s = Solver::new();
            s.reserve_vars(nv);
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rnd() % nv as u64) as i32 + 1;
                    let sign = if rnd() % 2 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c.clone());
                s.add_dimacs_clause(&c);
            }
            if s.solve(&[]) == SolveResult::Sat {
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let val = s.value(Var(l.unsigned_abs() - 1)).unwrap_or(false);
                        (l > 0) == val
                    });
                    assert!(ok, "model violates clause {c:?}");
                }
            }
        }
    }

    #[test]
    fn budget_returns_unknown() {
        // A hard instance (pigeonhole 8 into 7) with a tiny budget.
        let mut s = Solver::new();
        let holes = 7i32;
        let p = |i: i32, j: i32| holes * i + j + 1;
        for i in 0..8 {
            let clause: Vec<i32> = (0..holes).map(|j| p(i, j)).collect();
            s.add_dimacs_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..8 {
                for i2 in (i1 + 1)..8 {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
        s.set_budget(Budget::conflicts(10));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // Raising the budget finishes the proof.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&lits(&[1, 1, 2])));
        assert!(s.add_clause(&lits(&[1, -1])), "tautology accepted and ignored");
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let _ = (a, b);
    }

    #[test]
    fn at_most_one_constraints() {
        // Exactly-one over 5 vars has exactly 5 models; enumerate by
        // blocking clauses.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        let all: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        s.add_clause(&all);
        for i in 0..5 {
            for j in (i + 1)..5 {
                s.add_clause(&[vars[i].negative(), vars[j].negative()]);
            }
        }
        let mut models = 0;
        while s.solve(&[]) == SolveResult::Sat {
            models += 1;
            assert!(models <= 5, "too many models");
            let block: Vec<Lit> = vars
                .iter()
                .map(|&v| if s.value(v) == Some(true) { v.negative() } else { v.positive() })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(models, 5);
    }

    // ---- VSIDS hazard regressions (satellite: activity/heap audit) -----

    #[test]
    fn activity_rescale_at_1e100_keeps_everything_finite() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        // Drive the increment and one activity to the rescale threshold.
        s.var_inc = 9e99;
        s.activity[vars[3].index()] = 9e99;
        s.bump_var(vars[3]); // crosses 1e100 -> rescale fires
        for (i, &a) in s.activity.iter().enumerate() {
            assert!(a.is_finite(), "activity[{i}] = {a} not finite");
            assert!(!a.is_nan());
        }
        assert!(s.var_inc.is_finite() && s.var_inc > 0.0);
        // The bumped variable still outranks the untouched ones.
        assert_eq!(s.heap[0], vars[3]);
    }

    #[test]
    fn decay_rescales_before_var_inc_overflows() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.var_inc = 1e100;
        for _ in 0..64 {
            s.decay_activities();
        }
        assert!(s.var_inc.is_finite(), "var_inc overflowed to {}", s.var_inc);
    }

    #[test]
    fn heap_comparator_is_a_total_order_with_index_tie_break() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // Equal activities: lower index wins, deterministically.
        assert!(s.heap_less(a, b));
        assert!(!s.heap_less(b, a));
        assert!(s.heap_less(a, c) && s.heap_less(b, c));
        // A genuinely larger activity dominates regardless of index.
        s.activity[c.index()] = 1.0;
        assert!(s.heap_less(c, a));
    }

    #[test]
    fn conflict_involving_unit_reasons_analyzes_correctly() {
        // Level-0 facts (units) appear inside reason clauses during
        // analysis; their CREF_NONE reasons must never be dereferenced.
        let mut s = Solver::new();
        s.reserve_vars(5);
        s.add_dimacs_clause(&[1]); // unit fact u
        s.add_dimacs_clause(&[-1, -2, 3]); // with u: 2 -> 3
        s.add_dimacs_clause(&[-1, -3, 4]); // with u: 3 -> 4
        s.add_dimacs_clause(&[-1, -3, -4, 5]); // with u: 3,4 -> 5
        s.add_dimacs_clause(&[-4, -5]); // conflict once 4,5 hold
        // Under the assumption x2, propagation reaches the conflict whose
        // reason clauses all contain the level-0 literal -1.
        assert_eq!(s.solve(&[Lit::from_dimacs(2)]), SolveResult::Unsat);
        // Without the assumption the instance is satisfiable and the model
        // honors the unit.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var(0)), Some(true));
    }

    // ---- model self-check regressions ----------------------------------

    #[test]
    fn verified_models_counter_advances() {
        let mut s = Solver::new();
        s.add_dimacs_clause(&[1, 2]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let before = s.stats().verified_models;
        assert!(s.verify_model());
        assert_eq!(s.stats().verified_models, before + 1);
    }

    #[test]
    fn corrupted_arena_is_caught_by_the_self_check() {
        let mut s = Solver::new();
        s.reserve_vars(3);
        s.add_dimacs_clause(&[1, 2]);
        s.add_dimacs_clause(&[2, 3]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.verify_model(), "uncorrupted arena passes");
        // Corrupt the first live clause so the stored model falsifies it:
        // overwrite both literals with the negation of a model-true var.
        let cref = s.db.refs().next().expect("a live clause");
        let v = (0..3)
            .map(Var)
            .find(|&v| s.value(v).is_some())
            .expect("model assigns a variable");
        let falsified = Lit::new(v, !s.value(v).expect("assigned"));
        s.db.set_lit(cref, 0, falsified);
        s.db.set_lit(cref, 1, falsified);
        assert!(!s.verify_model(), "corrupted arena must be caught");
    }

    // ---- arena-management behaviour ------------------------------------

    #[test]
    fn reduction_fires_and_keeps_verdicts_on_a_hard_instance() {
        // php(7->6) generates far more than `reduce_limit` learnts when the
        // limit is tightened, forcing reduce + GC through their paces.
        let mut s = Solver::new();
        s.reduce_limit = 64;
        let holes = 6i32;
        let p = |i: i32, j: i32| holes * i + j + 1;
        for i in 0..=holes {
            let clause: Vec<i32> = (0..holes).map(|j| p(i, j)).collect();
            s.add_dimacs_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..=holes {
                for i2 in (i1 + 1)..=holes {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.reduces > 0, "reduction never fired: {st:?}");
        assert!(st.removed_learnts > 0);
    }

    /// php(p → p-1) pigeonhole clauses, UNSAT for every p.
    fn php(s: &mut Solver, pigeons: i32) {
        let holes = pigeons - 1;
        let p = |i: i32, j: i32| holes * i + j + 1;
        for i in 0..=holes {
            let clause: Vec<i32> = (0..holes).map(|j| p(i, j)).collect();
            s.add_dimacs_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..=holes {
                for i2 in (i1 + 1)..=holes {
                    s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                }
            }
        }
    }

    #[test]
    fn small_instance_gate_skips_inprocessing_without_changing_verdicts() {
        // php(5→4) is 20 vars — under the default gate.
        let gated = {
            let mut s = Solver::new();
            php(&mut s, 5);
            let r = s.solve(&[]);
            (r, s.stats())
        };
        let ungated = {
            let mut s = Solver::new();
            s.set_inprocessing_threshold(0);
            php(&mut s, 5);
            let r = s.solve(&[]);
            (r, s.stats())
        };
        assert_eq!(gated.0, SolveResult::Unsat);
        assert_eq!(ungated.0, SolveResult::Unsat);
        assert_eq!(gated.1.simplifies, 0, "gated run must not simplify");
        assert_eq!(gated.1.reduces, 0, "gated run must not reduce");
    }

    #[test]
    fn determinism_same_input_same_stats_and_model() {
        let build = || {
            let mut s = Solver::new();
            let mut seed = 0x5EEDu64;
            let mut rnd = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            s.reserve_vars(16);
            for _ in 0..70 {
                let c: Vec<i32> = (0..3)
                    .map(|_| {
                        let v = (rnd() % 16) as i32 + 1;
                        if rnd() % 2 == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect();
                s.add_dimacs_clause(&c);
            }
            let r = s.solve(&[]);
            let model: Vec<Option<bool>> = (0..16).map(|v| s.value(Var(v))).collect();
            (r, s.stats(), model)
        };
        assert_eq!(build(), build());
    }
}
