//! Cycle-accurate two-state simulator for the RTL IR.
//!
//! The simulator is the *oracle* of the oracle-guided threat model: attacks
//! query it with input patterns and observe outputs. It is also used by the
//! RTLock verification step (step 6 of the flow) to check functional
//! equivalence under the correct key and output corruption under wrong keys.
//!
//! Semantics: registers assigned in clocked processes hold state across
//! [`Simulator::step`]; all other nets are recomputed to a combinational
//! fixpoint each evaluation. Clocked processes use non-blocking assignment
//! semantics, combinational processes blocking semantics.
//!
//! [`Simulator::settle`] reaches that fixpoint by sweeps: each sweep runs
//! every continuous assign in declaration order, then every combinational
//! process in declaration order. Only those statements write nets during a
//! sweep, so the simulator records their target nets once, in the order a
//! sweep first writes them, and each sweep compares only those nets against
//! a snapshot taken before it. The fixpoint is the first sweep that leaves
//! all of them unchanged. After `nets + 2` sweeps without one, settling
//! fails with a [`CombLoopError`] naming the first of those nets that the
//! last sweep changed.

use crate::ast::*;
use crate::bv::Bv;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Error raised when combinational logic does not reach a fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombLoopError {
    /// Name of the first net, in sweep order, that the last sweep changed
    /// when the iteration budget ran out.
    pub net: String,
}

impl fmt::Display for CombLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational loop involving net `{}`", self.net)
    }
}

impl std::error::Error for CombLoopError {}

/// Interpreter state for one module.
///
/// # Examples
///
/// ```
/// use rtlock_rtl::{parse, sim::Simulator, bv::Bv};
///
/// let m = parse("module t(input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule")?;
/// let mut sim = Simulator::new(&m);
/// sim.set_by_name("a", Bv::from_u64(4, 6));
/// sim.settle()?;
/// assert_eq!(sim.get_by_name("y"), Bv::from_u64(4, 7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    module: &'m Module,
    values: Vec<Bv>,
    /// Nets that behave as state (assigned by clocked processes).
    state_nets: Vec<bool>,
    /// Nets a settle sweep writes (continuous assigns and combinational
    /// processes), in the order a sweep first writes them.
    comb_nets: Vec<NetId>,
    /// Values of `comb_nets` before the current sweep.
    snapshot: Vec<Bv>,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator with all nets zeroed.
    pub fn new(module: &'m Module) -> Self {
        let values: Vec<Bv> = module.nets.iter().map(|n| Bv::zeros(n.width)).collect();
        let mut state_nets = vec![false; module.nets.len()];
        let mut mark_state = |net: NetId| state_nets[net.index()] = true;
        for p in &module.procs {
            if matches!(p.kind, ProcessKind::Seq { .. }) {
                for_each_assigned(&p.body, &mut mark_state);
                for_each_assigned(&p.reset_body, &mut mark_state);
            }
        }
        let mut comb_nets = Vec::new();
        let mut seen = vec![false; module.nets.len()];
        let mut note = |net: NetId| {
            if !std::mem::replace(&mut seen[net.index()], true) {
                comb_nets.push(net);
            }
        };
        for a in &module.assigns {
            note(a.lhs.net);
        }
        for p in &module.procs {
            if matches!(p.kind, ProcessKind::Comb) {
                for_each_assigned(&p.body, &mut note);
            }
        }
        let snapshot = comb_nets.iter().map(|n| values[n.index()].clone()).collect();
        Simulator { module, values, state_nets, comb_nets, snapshot }
    }

    /// The module under simulation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// `true` if `net` holds sequential state.
    pub fn is_state(&self, net: NetId) -> bool {
        self.state_nets[net.index()]
    }

    /// Sets a net's current value (typically an input).
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the net width.
    pub fn set(&mut self, net: NetId, value: Bv) {
        assert_eq!(value.width(), self.module.width(net), "width mismatch setting {}", self.module.net(net).name);
        self.values[net.index()] = value;
    }

    /// Sets a net by name.
    ///
    /// # Panics
    ///
    /// Panics if no net has that name or on width mismatch.
    pub fn set_by_name(&mut self, name: &str, value: Bv) {
        let id = self.module.find_net(name).unwrap_or_else(|| panic!("no net named `{name}`"));
        self.set(id, value);
    }

    /// Reads a net's current value.
    pub fn get(&self, net: NetId) -> &Bv {
        &self.values[net.index()]
    }

    /// Reads a net by name.
    ///
    /// # Panics
    ///
    /// Panics if no net has that name.
    pub fn get_by_name(&self, name: &str) -> Bv {
        let id = self.module.find_net(name).unwrap_or_else(|| panic!("no net named `{name}`"));
        self.values[id.index()].clone()
    }

    /// Applies every clocked process's reset body and settles combinational
    /// logic. Call once before a simulation run.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if combinational logic oscillates.
    pub fn reset(&mut self) -> Result<(), CombLoopError> {
        for p in &self.module.procs {
            if let ProcessKind::Seq { .. } = p.kind {
                let mut staged = Vec::new();
                self.exec_nonblocking(&p.reset_body, &mut staged);
                for (lv, v) in staged {
                    self.write_lvalue(&lv, v);
                }
            }
        }
        self.settle()
    }

    /// Recomputes combinational nets to a fixpoint with current inputs and
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if no fixpoint is reached within the
    /// iteration budget (2 + number of nets).
    pub fn settle(&mut self) -> Result<(), CombLoopError> {
        let budget = self.module.nets.len() + 2;
        let mut changed = None;
        for _ in 0..budget {
            for (snap, net) in self.snapshot.iter_mut().zip(&self.comb_nets) {
                snap.clone_from(&self.values[net.index()]);
            }
            for a in &self.module.assigns {
                let v = self.eval(&a.rhs);
                self.write_lvalue(&a.lhs, v);
            }
            for p in &self.module.procs {
                if matches!(p.kind, ProcessKind::Comb) {
                    self.exec_blocking(&p.body);
                }
            }
            changed = self.comb_nets.iter().zip(&self.snapshot).find(|(n, snap)| self.values[n.index()] != **snap);
            if changed.is_none() {
                return Ok(());
            }
        }
        let net = changed.map(|(n, _)| self.module.net(*n).name.clone()).unwrap_or_default();
        Err(CombLoopError { net })
    }

    /// Advances one clock cycle: settles, evaluates clocked processes with
    /// non-blocking semantics, commits state, settles again.
    ///
    /// Reset nets referenced by [`ResetSpec`]s are honored: when a process's
    /// reset is active, its reset body is applied instead of its main body.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if combinational logic oscillates.
    pub fn step(&mut self) -> Result<(), CombLoopError> {
        self.settle()?;
        let mut staged = Vec::new();
        for p in &self.module.procs {
            if let ProcessKind::Seq { reset, .. } = &p.kind {
                let in_reset = reset.as_ref().is_some_and(|r| {
                    let v = self.values[r.net.index()].reduce_or();
                    v == r.active_high
                });
                if in_reset {
                    self.exec_nonblocking(&p.reset_body, &mut staged);
                } else {
                    self.exec_nonblocking(&p.body, &mut staged);
                }
            }
        }
        for (lv, v) in staged {
            self.write_lvalue(&lv, v);
        }
        self.settle()
    }

    /// Runs a whole input trace: for each cycle, applies the input map,
    /// steps the clock, and records the listed outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if combinational logic oscillates.
    pub fn run_trace(
        &mut self,
        trace: &[HashMap<NetId, Bv>],
        observe: &[NetId],
    ) -> Result<Vec<Vec<Bv>>, CombLoopError> {
        let mut out = Vec::with_capacity(trace.len());
        for cycle in trace {
            for (&net, v) in cycle {
                self.set(net, v.clone());
            }
            self.step()?;
            out.push(observe.iter().map(|&o| self.values[o.index()].clone()).collect());
        }
        Ok(out)
    }

    fn write_lvalue(&mut self, lv: &Lvalue, value: Bv) {
        match lv.range {
            None => {
                self.values[lv.net.index()] = fitted(Cow::Owned(value), self.module.width(lv.net)).into_owned();
            }
            Some((hi, lo)) => {
                let v = fitted(Cow::Owned(value), hi - lo + 1);
                let slot = &mut self.values[lv.net.index()];
                for i in lo..=hi {
                    let bit = v.bit(i - lo);
                    slot.set(i, bit);
                }
            }
        }
    }

    fn exec_blocking(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, rhs } => {
                    let v = self.eval(rhs);
                    self.write_lvalue(lhs, v);
                }
                Stmt::If { cond, then_, else_ } => {
                    if self.value_of(cond).reduce_or() {
                        self.exec_blocking(then_);
                    } else {
                        self.exec_blocking(else_);
                    }
                }
                Stmt::Case { subject, arms, default } => {
                    let subj = self.value_of(subject);
                    match matching_arm(arms, &subj) {
                        Some(a) => self.exec_blocking(&a.body),
                        None => self.exec_blocking(default),
                    }
                }
            }
        }
    }

    fn exec_nonblocking(&self, stmts: &[Stmt], staged: &mut Vec<(Lvalue, Bv)>) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, rhs } => {
                    staged.push((lhs.clone(), self.eval(rhs)));
                }
                Stmt::If { cond, then_, else_ } => {
                    if self.value_of(cond).reduce_or() {
                        self.exec_nonblocking(then_, staged);
                    } else {
                        self.exec_nonblocking(else_, staged);
                    }
                }
                Stmt::Case { subject, arms, default } => {
                    let subj = self.value_of(subject);
                    match matching_arm(arms, &subj) {
                        Some(a) => self.exec_nonblocking(&a.body, staged),
                        None => self.exec_nonblocking(default, staged),
                    }
                }
            }
        }
    }

    /// Evaluates an expression against current net values.
    pub fn eval(&self, e: &Expr) -> Bv {
        match e {
            Expr::Const(c) => c.clone(),
            Expr::Ref(n) => self.values[n.index()].clone(),
            Expr::Slice { net, hi, lo } => self.values[net.index()].slice(*hi, *lo),
            Expr::IndexDyn { net, index } => {
                let idx = self.value_of(index).to_u64_lossy() as usize;
                let v = &self.values[net.index()];
                if idx < v.width() {
                    Bv::from_bool(v.bit(idx))
                } else {
                    Bv::zeros(1)
                }
            }
            Expr::Unary { op, arg } => {
                let a = self.value_of(arg);
                match op {
                    UnaryOp::Not => a.not(),
                    UnaryOp::LogicNot => Bv::from_bool(!a.reduce_or()),
                    UnaryOp::Neg => a.neg(),
                    UnaryOp::RedAnd => Bv::from_bool(a.reduce_and()),
                    UnaryOp::RedOr => Bv::from_bool(a.reduce_or()),
                    UnaryOp::RedXor => Bv::from_bool(a.reduce_xor()),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, b) = (self.value_of(lhs), self.value_of(rhs));
                let w = a.width().max(b.width());
                let (a, b) = (fitted(a, w), fitted(b, w));
                match op {
                    BinaryOp::And => a.and(&b),
                    BinaryOp::Or => a.or(&b),
                    BinaryOp::Xor => a.xor(&b),
                    BinaryOp::Xnor => a.xor(&b).not(),
                    BinaryOp::Add => a.add(&b),
                    BinaryOp::Sub => a.sub(&b),
                    BinaryOp::Mul => a.mul(&b),
                    BinaryOp::Shl => a.shl(b.to_u64_lossy().min(w as u64) as usize),
                    BinaryOp::Shr => a.shr(b.to_u64_lossy().min(w as u64) as usize),
                    BinaryOp::Eq => Bv::from_bool(a == b),
                    BinaryOp::Ne => Bv::from_bool(a != b),
                    BinaryOp::Lt => Bv::from_bool(a.ult(&b)),
                    BinaryOp::Le => Bv::from_bool(!b.ult(&a)),
                    BinaryOp::Gt => Bv::from_bool(b.ult(&a)),
                    BinaryOp::Ge => Bv::from_bool(!a.ult(&b)),
                    BinaryOp::LogicAnd => Bv::from_bool(a.reduce_or() && b.reduce_or()),
                    BinaryOp::LogicOr => Bv::from_bool(a.reduce_or() || b.reduce_or()),
                }
            }
            Expr::Ternary { cond, then_, else_ } => {
                let (t, f) = (self.value_of(then_), self.value_of(else_));
                let w = t.width().max(f.width());
                let taken = if self.value_of(cond).reduce_or() { t } else { f };
                fitted(taken, w).into_owned()
            }
            Expr::Concat(parts) => {
                let mut it = parts.iter().map(|p| self.value_of(p));
                let first = it.next().expect("concat is non-empty").into_owned();
                it.fold(first, |acc, v| acc.concat(&v))
            }
            Expr::Repeat { times, expr } => self.value_of(expr).repeat(*times),
        }
    }

    /// Evaluates an operand, borrowing a constant's or a net's value
    /// instead of copying it.
    fn value_of<'a>(&'a self, e: &'a Expr) -> Cow<'a, Bv> {
        match e {
            Expr::Const(c) => Cow::Borrowed(c),
            Expr::Ref(n) => Cow::Borrowed(&self.values[n.index()]),
            _ => Cow::Owned(self.eval(e)),
        }
    }
}

/// `value` zero-extended or truncated to `width`, without a copy when it
/// already has that width.
fn fitted(value: Cow<'_, Bv>, width: usize) -> Cow<'_, Bv> {
    if value.width() == width {
        value
    } else {
        Cow::Owned(value.resize(width))
    }
}

/// The first arm with a label that, resized to the subject's width, equals
/// the subject.
fn matching_arm<'a>(arms: &'a [CaseArm], subject: &Bv) -> Option<&'a CaseArm> {
    arms.iter().find(|a| a.labels.iter().any(|l| *fitted(Cow::Borrowed(l), subject.width()) == *subject))
}

/// Calls `f` on the target net of every assignment in `stmts`, in
/// statement order, descending into `if` and `case` bodies.
fn for_each_assigned(stmts: &[Stmt], f: &mut impl FnMut(NetId)) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, .. } => f(lhs.net),
            Stmt::If { then_, else_, .. } => {
                for_each_assigned(then_, f);
                for_each_assigned(else_, f);
            }
            Stmt::Case { arms, default, .. } => {
                for a in arms {
                    for_each_assigned(&a.body, f);
                }
                for_each_assigned(default, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn combinational_add() {
        let m =
            parse("module t(input [7:0] a, input [7:0] b, output [7:0] y); assign y = a + b; endmodule").unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("a", Bv::from_u64(8, 250));
        s.set_by_name("b", Bv::from_u64(8, 10));
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_u64(8, 4));
    }

    #[test]
    fn chained_assigns_reach_fixpoint() {
        let m = parse(
            "module t(input a, output y); wire w1; wire w2; assign w2 = ~w1; assign w1 = a; assign y = w2; endmodule",
        )
        .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("a", Bv::from_bool(true));
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_bool(false));
    }

    #[test]
    fn comb_loop_detected() {
        let m = parse("module t(output y); wire w; assign w = ~w; assign y = w; endmodule").unwrap();
        let mut s = Simulator::new(&m);
        assert!(s.settle().is_err());
    }

    #[test]
    fn comb_loop_error_names_the_oscillating_net() {
        // `a` is an input and `y` only follows `x`: the loop is `x = ~x`.
        let m = parse("module l(input a, output y); wire x; assign x = ~x; assign y = x & a; endmodule").unwrap();
        for a in [false, true] {
            let mut s = Simulator::new(&m);
            s.set_by_name("a", Bv::from_bool(a));
            assert_eq!(s.settle(), Err(CombLoopError { net: "x".into() }), "a = {a}");
        }
    }

    #[test]
    fn settle_carries_a_process_output_into_an_earlier_assign() {
        // The first sweep leaves `y` unchanged and changes only `p`; `y`
        // must still pick up `p` in the next sweep.
        let m = parse("module t(input a, output y); reg p; assign y = p; always @(*) p = ~a; endmodule").unwrap();
        let mut s = Simulator::new(&m);
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_bool(true));
    }

    #[test]
    fn case_labels_are_resized_to_the_subject() {
        // The parser sizes labels to the subject; a module built directly
        // may not. A 1-bit label zero-extends, a 3-bit one truncates.
        let mut m = parse("module t(input [1:0] s, output reg y); endmodule").unwrap();
        let (s_id, y_id) = (m.find_net("s").unwrap(), m.find_net("y").unwrap());
        let set_y = |v: bool| vec![Stmt::Assign { lhs: Lvalue::whole(y_id), rhs: Expr::Const(Bv::from_bool(v)) }];
        m.procs.push(Process {
            kind: ProcessKind::Comb,
            body: vec![Stmt::Case {
                subject: Expr::net(s_id),
                arms: vec![CaseArm { labels: vec![Bv::from_bool(true), Bv::from_u64(3, 0b110)], body: set_y(true) }],
                default: set_y(false),
            }],
            reset_body: Vec::new(),
        });
        let mut sim = Simulator::new(&m);
        for (s, y) in [(0, false), (1, true), (2, true), (3, false)] {
            sim.set_by_name("s", Bv::from_u64(2, s));
            sim.settle().unwrap();
            assert_eq!(sim.get_by_name("y"), Bv::from_bool(y), "s = {s}");
        }
    }

    #[test]
    fn settle_fixpoint_ignores_a_value_restored_within_the_sweep() {
        // The process writes `n` twice per sweep; only its value at the
        // sweep's end counts, so the first sweep after a change settles.
        let m = parse(
            "module t(input [1:0] s, output reg [1:0] n);\n\
             always @(*) begin n = 2'd3; case (s) 2'd1: n = 2'd2; default: n = s; endcase end\nendmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&m);
        for (s, n) in [(0, 0), (1, 2), (2, 2), (3, 3)] {
            sim.set_by_name("s", Bv::from_u64(2, s));
            sim.settle().unwrap();
            assert_eq!(sim.get_by_name("n"), Bv::from_u64(2, n), "s = {s}");
        }
    }

    #[test]
    fn counter_counts() {
        let m = parse(
            "module t(input clk, input rst, output reg [3:0] q);\n\
             always @(posedge clk or posedge rst) begin if (rst) q <= 4'd0; else q <= q + 4'd1; end\nendmodule",
        )
        .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("rst", Bv::from_bool(true));
        s.reset().unwrap();
        s.step().unwrap();
        assert_eq!(s.get_by_name("q"), Bv::from_u64(4, 0), "held in reset");
        s.set_by_name("rst", Bv::from_bool(false));
        for _ in 0..5 {
            s.step().unwrap();
        }
        assert_eq!(s.get_by_name("q"), Bv::from_u64(4, 5));
    }

    #[test]
    fn nonblocking_swaps() {
        let m = parse(
            "module t(input clk, output reg a, output reg b);\n\
             always @(posedge clk) begin a <= b; b <= a; end\nendmodule",
        )
        .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("a", Bv::from_bool(true));
        s.set_by_name("b", Bv::from_bool(false));
        s.step().unwrap();
        assert_eq!(s.get_by_name("a"), Bv::from_bool(false));
        assert_eq!(s.get_by_name("b"), Bv::from_bool(true));
    }

    #[test]
    fn fsm_walks_states() {
        let m = parse(
            "module t(input clk, input rst, input go, output reg [1:0] s);\n\
             reg [1:0] s_next;\n\
             always @(*) begin\n\
               s_next = s;\n\
               case (s)\n\
                 2'd0: begin if (go) s_next = 2'd1; end\n\
                 2'd1: begin s_next = 2'd2; end\n\
                 2'd2: begin s_next = 2'd0; end\n\
               endcase\n\
             end\n\
             always @(posedge clk or posedge rst) begin if (rst) s <= 2'd0; else s <= s_next; end\nendmodule",
        )
        .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("rst", Bv::from_bool(true));
        s.reset().unwrap();
        s.set_by_name("rst", Bv::from_bool(false));
        s.set_by_name("go", Bv::from_bool(false));
        s.step().unwrap();
        assert_eq!(s.get_by_name("s"), Bv::from_u64(2, 0), "stays without go");
        s.set_by_name("go", Bv::from_bool(true));
        s.step().unwrap();
        assert_eq!(s.get_by_name("s"), Bv::from_u64(2, 1));
        s.step().unwrap();
        assert_eq!(s.get_by_name("s"), Bv::from_u64(2, 2));
        s.step().unwrap();
        assert_eq!(s.get_by_name("s"), Bv::from_u64(2, 0));
    }

    #[test]
    fn part_select_assignment() {
        let m = parse(
            "module t(input [1:0] a, output [3:0] y); assign y[1:0] = a; assign y[3:2] = ~a; endmodule",
        )
        .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("a", Bv::from_u64(2, 0b01));
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_u64(4, 0b1001));
    }

    #[test]
    fn dynamic_index_reads_selected_bit() {
        let m = parse("module t(input [7:0] a, input [2:0] i, output y); assign y = a[i]; endmodule").unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("a", Bv::from_u64(8, 0b0010_0000));
        s.set_by_name("i", Bv::from_u64(3, 5));
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_bool(true));
    }

    #[test]
    fn run_trace_records_outputs() {
        let m = parse(
            "module t(input clk, input rst, input d, output reg q);\n\
             always @(posedge clk or posedge rst) begin if (rst) q <= 1'b0; else q <= d; end\nendmodule",
        )
        .unwrap();
        let d = m.find_net("d").unwrap();
        let rst = m.find_net("rst").unwrap();
        let q = m.find_net("q").unwrap();
        let mut s = Simulator::new(&m);
        s.reset().unwrap();
        let mk = |dv: bool, rv: bool| {
            let mut h = HashMap::new();
            h.insert(d, Bv::from_bool(dv));
            h.insert(rst, Bv::from_bool(rv));
            h
        };
        let trace = vec![mk(true, false), mk(false, false), mk(true, true)];
        let outs = s.run_trace(&trace, &[q]).unwrap();
        assert_eq!(outs[0][0], Bv::from_bool(true));
        assert_eq!(outs[1][0], Bv::from_bool(false));
        assert_eq!(outs[2][0], Bv::from_bool(false), "reset wins");
    }

    #[test]
    fn ternary_width_balancing() {
        let m = parse("module t(input c, input [3:0] a, output [3:0] y); assign y = c ? a : 1'b1; endmodule")
            .unwrap();
        let mut s = Simulator::new(&m);
        s.set_by_name("c", Bv::from_bool(false));
        s.set_by_name("a", Bv::from_u64(4, 9));
        s.settle().unwrap();
        assert_eq!(s.get_by_name("y"), Bv::from_u64(4, 1));
    }
}
