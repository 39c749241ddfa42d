//! Seed-driven random RTL generation.
//!
//! The generator emits well-formed modules in the Verilog-2001 subset the
//! RTLock front end supports: continuous assignments over a signal DAG,
//! optional clocked registers with asynchronous reset, and an optional
//! case-based FSM idiom. Expression generation is deliberately biased
//! toward the constructs the synthesis optimizer rewrites — XOR chains,
//! constant operands, muxes with (often inverted) selects, and shared
//! subexpressions via wire reuse — because those rewrite rules are where
//! miscompiles hide.
//!
//! Modules are produced as a structured [`GenModule`] (not raw text) so
//! the shrinker can mutate them, and rendered to Verilog by [`render`].
//! Rendering is a pure function of the structure: same seed, same bytes.

use crate::rng::FuzzRng;

/// Tunable size/shape limits for generation.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum data inputs (at least 2 are always generated).
    pub max_inputs: usize,
    /// Maximum intermediate wires.
    pub max_wires: usize,
    /// Maximum registers (clk/rst appear only when registers do).
    pub max_regs: usize,
    /// Maximum output ports (at least 1).
    pub max_outputs: usize,
    /// Maximum expression tree depth.
    pub max_depth: usize,
    /// Percent chance the module is sequential.
    pub seq_chance: u64,
    /// Percent chance a sequential module also gets a case-based FSM.
    pub fsm_chance: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_inputs: 5,
            max_wires: 10,
            max_regs: 3,
            max_outputs: 4,
            max_depth: 4,
            seq_chance: 60,
            fsm_chance: 40,
        }
    }
}

/// A named signal with a width (an input, wire, or register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Verilog identifier.
    pub name: String,
    /// Width in bits.
    pub width: usize,
}

/// Generated expression tree. Signal references are indices into
/// [`GenModule::signals`]; every node has an exact width by construction,
/// so rendered assignments never rely on implicit resizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GExpr {
    /// Sized constant `width'd value`.
    Const {
        /// Width in bits (≤ 63).
        width: usize,
        /// Value, already masked to `width` bits.
        value: u64,
    },
    /// Whole-signal reference.
    Ref(usize),
    /// Constant part-select `sig[hi:lo]`.
    Slice {
        /// Referenced signal.
        sig: usize,
        /// High bit (inclusive).
        hi: usize,
        /// Low bit (inclusive).
        lo: usize,
    },
    /// Dynamic bit-select `sig[index]` (1-bit result).
    IndexDyn {
        /// Indexed signal.
        sig: usize,
        /// Index expression.
        index: Box<GExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator token (`~`, `!`, `-`, `&`, `|`, `^`).
        op: GUnOp,
        /// Operand.
        a: Box<GExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: GBinOp,
        /// Left operand.
        a: Box<GExpr>,
        /// Right operand.
        b: Box<GExpr>,
    },
    /// Conditional `cond ? t : e`.
    Mux {
        /// 1-bit condition.
        cond: Box<GExpr>,
        /// Then-leg.
        t: Box<GExpr>,
        /// Else-leg.
        e: Box<GExpr>,
    },
}

/// Unary operators the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GUnOp {
    /// Bitwise NOT, width-preserving.
    Not,
    /// Logical NOT, 1-bit.
    LogicNot,
    /// Arithmetic negate, width-preserving.
    Neg,
    /// AND-reduction, 1-bit.
    RedAnd,
    /// OR-reduction, 1-bit.
    RedOr,
    /// XOR-reduction, 1-bit.
    RedXor,
}

/// Binary operators the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GBinOp {
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^`
    Xnor,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==` (1-bit)
    Eq,
    /// `!=` (1-bit)
    Ne,
    /// `<` (1-bit)
    Lt,
    /// `>` (1-bit)
    Gt,
    /// `&&` (1-bit)
    LogicAnd,
    /// `||` (1-bit)
    LogicOr,
}

impl GBinOp {
    fn token(self) -> &'static str {
        match self {
            GBinOp::And => "&",
            GBinOp::Or => "|",
            GBinOp::Xor => "^",
            GBinOp::Xnor => "~^",
            GBinOp::Add => "+",
            GBinOp::Sub => "-",
            GBinOp::Mul => "*",
            GBinOp::Shl => "<<",
            GBinOp::Shr => ">>",
            GBinOp::Eq => "==",
            GBinOp::Ne => "!=",
            GBinOp::Lt => "<",
            GBinOp::Gt => ">",
            GBinOp::LogicAnd => "&&",
            GBinOp::LogicOr => "||",
        }
    }

    /// `true` for operators whose result is always 1 bit.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            GBinOp::Eq | GBinOp::Ne | GBinOp::Lt | GBinOp::Gt | GBinOp::LogicAnd | GBinOp::LogicOr
        )
    }
}

/// A wire definition: `assign signals[sig] = expr;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDef {
    /// Defined signal index.
    pub sig: usize,
    /// Driving expression (same width as the signal).
    pub expr: GExpr,
}

/// A register definition inside the single clocked process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegDef {
    /// Defined signal index.
    pub sig: usize,
    /// Reset value.
    pub init: u64,
    /// Next-state expression (same width as the signal).
    pub next: GExpr,
}

/// The case-based FSM idiom: a 2-bit `state` register plus a
/// combinational process computing `state_n` through a `case`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmDef {
    /// Signal index of the `state` register (width 2).
    pub state: usize,
    /// Signal index of the `state_n` combinational reg (width 2).
    pub state_n: usize,
    /// Case arms: `(label, next-state expression)`.
    pub arms: Vec<(u64, GExpr)>,
}

/// A generated module: structured enough to shrink, renderable to Verilog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenModule {
    /// Module name.
    pub name: String,
    /// Signal table; the first [`GenModule::n_inputs`] entries are inputs.
    pub signals: Vec<Signal>,
    /// Number of data-input signals (clk/rst are not in the table).
    pub n_inputs: usize,
    /// Wire definitions in dependency order.
    pub wires: Vec<WireDef>,
    /// Register definitions.
    pub regs: Vec<RegDef>,
    /// Optional FSM idiom.
    pub fsm: Option<FsmDef>,
    /// Output ports: `(port name, driven signal index)`.
    pub outputs: Vec<(String, usize)>,
    /// Signals promoted to input ports by the shrinker (registers or FSM
    /// state demoted to free inputs — keeps a non-constant signal while
    /// deleting the sequential machinery that produced it).
    pub extra_inputs: Vec<usize>,
    /// Indices (`< n_inputs`) of original inputs the shrinker suppressed
    /// because nothing references them.
    pub dropped_inputs: Vec<usize>,
}

impl GenModule {
    /// `true` when the module needs clk/rst ports.
    pub fn is_sequential(&self) -> bool {
        !self.regs.is_empty() || self.fsm.is_some()
    }

    /// Exact width of an expression under this module's signal table.
    pub fn expr_width(&self, e: &GExpr) -> usize {
        match e {
            GExpr::Const { width, .. } => *width,
            GExpr::Ref(s) => self.signals[*s].width,
            GExpr::Slice { hi, lo, .. } => hi - lo + 1,
            GExpr::IndexDyn { .. } => 1,
            GExpr::Unary { op, a } => match op {
                GUnOp::Not | GUnOp::Neg => self.expr_width(a),
                GUnOp::LogicNot | GUnOp::RedAnd | GUnOp::RedOr | GUnOp::RedXor => 1,
            },
            GExpr::Binary { op, a, b } => {
                if op.is_predicate() {
                    1
                } else {
                    self.expr_width(a).max(self.expr_width(b))
                }
            }
            GExpr::Mux { t, e, .. } => self.expr_width(t).max(self.expr_width(e)),
        }
    }
}

const WIDTHS: &[usize] = &[1, 1, 2, 4, 8];

struct Gen<'a> {
    rng: FuzzRng,
    cfg: &'a GenConfig,
    module: GenModule,
}

impl Gen<'_> {
    /// A biased constant value for `width` bits: corner values (all-zeros,
    /// all-ones, one) show up often because they are what the optimizer's
    /// folding rules key on.
    fn const_value(&mut self, width: usize) -> u64 {
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        match self.rng.below(10) {
            0 | 1 => 0,
            2 | 3 => mask,
            4 => 1 & mask,
            _ => self.rng.next_u64() & mask,
        }
    }

    /// Signals in `scope` whose width is exactly `w`.
    fn refs_of_width(&self, scope: &[usize], w: usize) -> Vec<usize> {
        scope.iter().copied().filter(|&s| self.module.signals[s].width == w).collect()
    }

    /// A leaf expression of exact width `w` over `scope`.
    fn gen_leaf(&mut self, w: usize, scope: &[usize]) -> GExpr {
        let exact = self.refs_of_width(scope, w);
        let wider: Vec<usize> =
            scope.iter().copied().filter(|&s| self.module.signals[s].width > w).collect();
        let roll = self.rng.below(10);
        if roll < 5 && !exact.is_empty() {
            GExpr::Ref(*self.rng.pick(&exact))
        } else if roll < 7 && !wider.is_empty() {
            let sig = *self.rng.pick(&wider);
            let max_lo = self.module.signals[sig].width - w;
            let lo = self.rng.below(max_lo as u64 + 1) as usize;
            GExpr::Slice { sig, hi: lo + w - 1, lo }
        } else {
            GExpr::Const { width: w, value: self.const_value(w) }
        }
    }

    /// A 1-bit condition expression; biased toward negations so the
    /// optimizer's inverted-mux-select rewrite gets exercised constantly.
    fn gen_cond(&mut self, depth: usize, scope: &[usize]) -> GExpr {
        let inner = self.gen_expr(1, depth, scope);
        if self.rng.chance(45) {
            let op = if self.rng.chance(50) { GUnOp::Not } else { GUnOp::LogicNot };
            GExpr::Unary { op, a: Box::new(inner) }
        } else {
            inner
        }
    }

    /// An expression of exact width `w`, at most `depth` levels deep.
    fn gen_expr(&mut self, w: usize, depth: usize, scope: &[usize]) -> GExpr {
        if depth == 0 || self.rng.chance(18) {
            return self.gen_leaf(w, scope);
        }
        // Weighted construct menu. XOR chains, constant operands and muxes
        // dominate on purpose (see module docs).
        let roll = self.rng.below(100);
        if roll < 22 {
            // XOR/XNOR, with a constant operand 40% of the time.
            let op = if self.rng.chance(75) { GBinOp::Xor } else { GBinOp::Xnor };
            let a = self.gen_expr(w, depth - 1, scope);
            let b = if self.rng.chance(40) {
                GExpr::Const { width: w, value: self.const_value(w) }
            } else {
                self.gen_expr(w, depth - 1, scope)
            };
            GExpr::Binary { op, a: Box::new(a), b: Box::new(b) }
        } else if roll < 40 {
            // Mux with a (frequently inverted) 1-bit select.
            let cond = self.gen_cond(depth - 1, scope);
            let t = self.gen_expr(w, depth - 1, scope);
            let e = self.gen_expr(w, depth - 1, scope);
            GExpr::Mux { cond: Box::new(cond), t: Box::new(t), e: Box::new(e) }
        } else if roll < 54 {
            let op = *self.rng.pick(&[GBinOp::And, GBinOp::Or]);
            let a = self.gen_expr(w, depth - 1, scope);
            let b = if self.rng.chance(30) {
                GExpr::Const { width: w, value: self.const_value(w) }
            } else {
                self.gen_expr(w, depth - 1, scope)
            };
            GExpr::Binary { op, a: Box::new(a), b: Box::new(b) }
        } else if roll < 68 {
            let op = *self.rng.pick(&[GBinOp::Add, GBinOp::Add, GBinOp::Sub, GBinOp::Mul]);
            let a = self.gen_expr(w, depth - 1, scope);
            let b = self.gen_expr(w, depth - 1, scope);
            GExpr::Binary { op, a: Box::new(a), b: Box::new(b) }
        } else if roll < 76 {
            // Shift by a small constant amount (amount width ≤ w keeps the
            // result width at w).
            let op = if self.rng.chance(50) { GBinOp::Shl } else { GBinOp::Shr };
            let aw = w.min(3);
            let amount = GExpr::Const { width: aw, value: self.rng.below(1 << aw as u64) };
            let a = self.gen_expr(w, depth - 1, scope);
            GExpr::Binary { op, a: Box::new(a), b: Box::new(amount) }
        } else if roll < 84 {
            let op = if self.rng.chance(70) { GUnOp::Not } else { GUnOp::Neg };
            GExpr::Unary { op, a: Box::new(self.gen_expr(w, depth - 1, scope)) }
        } else if w == 1 {
            // 1-bit-only constructs: predicates, reductions, dynamic index.
            let roll1 = self.rng.below(10);
            if roll1 < 4 {
                let op = *self.rng.pick(&[
                    GBinOp::Eq,
                    GBinOp::Ne,
                    GBinOp::Lt,
                    GBinOp::Gt,
                    GBinOp::LogicAnd,
                    GBinOp::LogicOr,
                ]);
                let wa = *self.rng.pick(WIDTHS);
                let wb = if op == GBinOp::LogicAnd || op == GBinOp::LogicOr || self.rng.chance(70) {
                    wa
                } else {
                    *self.rng.pick(WIDTHS)
                };
                let a = self.gen_expr(wa, depth - 1, scope);
                let b = self.gen_expr(wb, depth - 1, scope);
                GExpr::Binary { op, a: Box::new(a), b: Box::new(b) }
            } else if roll1 < 7 {
                let op = *self.rng.pick(&[GUnOp::RedAnd, GUnOp::RedOr, GUnOp::RedXor]);
                let wa = *self.rng.pick(&[2usize, 4, 8]);
                GExpr::Unary { op, a: Box::new(self.gen_expr(wa, depth - 1, scope)) }
            } else {
                let wide: Vec<usize> =
                    scope.iter().copied().filter(|&s| self.module.signals[s].width > 1).collect();
                if let Some(&sig) = wide.first() {
                    // Index width sized so every representable index is in
                    // range (signal widths are powers of two).
                    let iw = (self.module.signals[sig].width - 1).max(1).ilog2() as usize + 1;
                    let index = self.gen_expr(iw, 1, scope);
                    GExpr::IndexDyn { sig, index: Box::new(index) }
                } else {
                    self.gen_leaf(1, scope)
                }
            }
        } else {
            self.gen_leaf(w, scope)
        }
    }
}

/// Generates a module from a seed. Deterministic: the same
/// `(seed, config)` yields a structurally equal module.
pub fn generate(seed: u64, cfg: &GenConfig) -> GenModule {
    let mut g = Gen {
        rng: FuzzRng::derive(seed, 0x67656e),
        cfg,
        module: GenModule {
            name: format!("fz{seed:x}"),
            signals: Vec::new(),
            n_inputs: 0,
            wires: Vec::new(),
            regs: Vec::new(),
            fsm: None,
            outputs: Vec::new(),
            extra_inputs: Vec::new(),
            dropped_inputs: Vec::new(),
        },
    };

    // Inputs.
    let n_inputs = 2 + g.rng.below(cfg.max_inputs.saturating_sub(1) as u64) as usize;
    for i in 0..n_inputs {
        let width = *g.rng.pick(WIDTHS);
        g.module.signals.push(Signal { name: format!("i{i}"), width });
    }
    g.module.n_inputs = n_inputs;

    let sequential = g.rng.chance(cfg.seq_chance) && cfg.max_regs > 0;
    let with_fsm = sequential && g.rng.chance(cfg.fsm_chance);

    // Declare registers (and the FSM state pair) before wires so wire
    // expressions can reference them: registers are state, so this cannot
    // create combinational cycles.
    let n_regs = if sequential { 1 + g.rng.below(g.cfg.max_regs as u64) as usize } else { 0 };
    let mut reg_sigs = Vec::new();
    for i in 0..n_regs {
        let width = *g.rng.pick(WIDTHS);
        let sig = g.module.signals.len();
        g.module.signals.push(Signal { name: format!("r{i}"), width });
        reg_sigs.push(sig);
    }
    let fsm_sigs = if with_fsm {
        let state = g.module.signals.len();
        g.module.signals.push(Signal { name: "state".into(), width: 2 });
        let state_n = g.module.signals.len();
        g.module.signals.push(Signal { name: "state_n".into(), width: 2 });
        Some((state, state_n))
    } else {
        None
    };

    // Wires: each may reference inputs, registers, the FSM state, and
    // earlier wires (a DAG by construction).
    let mut scope: Vec<usize> = (0..n_inputs).collect();
    scope.extend(&reg_sigs);
    if let Some((state, _)) = fsm_sigs {
        scope.push(state);
    }
    let n_wires = 2 + g.rng.below(cfg.max_wires.saturating_sub(1) as u64) as usize;
    let wire_base = g.module.signals.len();
    for i in 0..n_wires {
        let width = *g.rng.pick(WIDTHS);
        let sig = g.module.signals.len();
        g.module.signals.push(Signal { name: format!("w{i}"), width });
        let expr = g.gen_expr(width, cfg.max_depth, &scope);
        g.module.wires.push(WireDef { sig, expr });
        scope.push(sig);
    }

    // Register next-state expressions may reference everything except
    // `state_n` (kept private to the FSM update to rule out cycles).
    for &sig in &reg_sigs {
        let width = g.module.signals[sig].width;
        let init = g.const_value(width);
        let next = g.gen_expr(width, cfg.max_depth, &scope);
        g.module.regs.push(RegDef { sig, init, next });
    }

    // FSM arms.
    if let Some((state, state_n)) = fsm_sigs {
        let n_states = 3 + g.rng.below(2); // 3 or 4
        let mut arms = Vec::new();
        for label in 0..n_states {
            if g.rng.chance(85) {
                let expr = if g.rng.chance(45) {
                    GExpr::Const { width: 2, value: g.rng.below(n_states) }
                } else {
                    let cond = g.gen_cond(2, &scope);
                    let t = GExpr::Const { width: 2, value: g.rng.below(n_states) };
                    let e = GExpr::Const { width: 2, value: g.rng.below(n_states) };
                    GExpr::Mux { cond: Box::new(cond), t: Box::new(t), e: Box::new(e) }
                };
                arms.push((label, expr));
            }
        }
        g.module.fsm = Some(FsmDef { state, state_n, arms });
    }

    // Outputs: prefer late wires (deep cones) and registers, one signal
    // each; at least one output always exists.
    let n_outputs = 1 + g.rng.below(cfg.max_outputs as u64) as usize;
    let mut candidates: Vec<usize> = (wire_base..g.module.signals.len()).rev().collect();
    candidates.extend(reg_sigs.iter().rev());
    if let Some((state, _)) = fsm_sigs {
        candidates.push(state);
    }
    for (k, &sig) in candidates.iter().take(n_outputs).enumerate() {
        g.module.outputs.push((format!("o{k}"), sig));
    }

    g.module
}

fn range_str(width: usize) -> String {
    if width == 1 {
        String::new()
    } else {
        format!(" [{}:0]", width - 1)
    }
}

fn expr_str(m: &GenModule, e: &GExpr) -> String {
    match e {
        GExpr::Const { width, value } => format!("{width}'d{value}"),
        GExpr::Ref(s) => m.signals[*s].name.clone(),
        GExpr::Slice { sig, hi, lo } => format!("{}[{hi}:{lo}]", m.signals[*sig].name),
        GExpr::IndexDyn { sig, index } => {
            format!("{}[{}]", m.signals[*sig].name, expr_str(m, index))
        }
        GExpr::Unary { op, a } => {
            let t = match op {
                GUnOp::Not => "~",
                GUnOp::LogicNot => "!",
                GUnOp::Neg => "-",
                GUnOp::RedAnd => "&",
                GUnOp::RedOr => "|",
                GUnOp::RedXor => "^",
            };
            format!("{t}({})", expr_str(m, a))
        }
        GExpr::Binary { op, a, b } => {
            format!("({} {} {})", expr_str(m, a), op.token(), expr_str(m, b))
        }
        GExpr::Mux { cond, t, e } => {
            format!("(({}) ? ({}) : ({}))", expr_str(m, cond), expr_str(m, t), expr_str(m, e))
        }
    }
}

/// Renders a [`GenModule`] to Verilog text. Pure: equal modules render to
/// identical bytes.
pub fn render(m: &GenModule) -> String {
    let mut out = String::new();
    let mut ports: Vec<String> = Vec::new();
    if m.is_sequential() {
        ports.push("input clk".into());
        ports.push("input rst".into());
    }
    for (i, s) in m.signals[..m.n_inputs].iter().enumerate() {
        if m.dropped_inputs.contains(&i) {
            continue;
        }
        ports.push(format!("input{} {}", range_str(s.width), s.name));
    }
    for &sig in &m.extra_inputs {
        let s = &m.signals[sig];
        ports.push(format!("input{} {}", range_str(s.width), s.name));
    }
    for (name, sig) in &m.outputs {
        ports.push(format!("output{} {}", range_str(m.signals[*sig].width), name));
    }
    out.push_str(&format!("module {}(\n  {}\n);\n", m.name, ports.join(",\n  ")));

    for d in &m.wires {
        let s = &m.signals[d.sig];
        out.push_str(&format!("  wire{} {};\n", range_str(s.width), s.name));
    }
    for r in &m.regs {
        let s = &m.signals[r.sig];
        out.push_str(&format!("  reg{} {};\n", range_str(s.width), s.name));
    }
    if let Some(f) = &m.fsm {
        out.push_str("  reg [1:0] state;\n  reg [1:0] state_n;\n");
        let _ = f;
    }

    for d in &m.wires {
        out.push_str(&format!("  assign {} = {};\n", m.signals[d.sig].name, expr_str(m, &d.expr)));
    }
    for (name, sig) in &m.outputs {
        out.push_str(&format!("  assign {} = {};\n", name, m.signals[*sig].name));
    }

    if let Some(f) = &m.fsm {
        out.push_str("  always @(*) begin\n    state_n = state;\n    case (state)\n");
        for (label, expr) in &f.arms {
            out.push_str(&format!("      2'd{label}: state_n = {};\n", expr_str(m, expr)));
        }
        out.push_str("      default: state_n = 2'd0;\n    endcase\n  end\n");
    }

    if m.is_sequential() {
        out.push_str("  always @(posedge clk or posedge rst) begin\n    if (rst) begin\n");
        for r in &m.regs {
            let s = &m.signals[r.sig];
            out.push_str(&format!("      {} <= {}'d{};\n", s.name, s.width, r.init));
        }
        if m.fsm.is_some() {
            out.push_str("      state <= 2'd0;\n");
        }
        out.push_str("    end else begin\n");
        for r in &m.regs {
            out.push_str(&format!(
                "      {} <= {};\n",
                m.signals[r.sig].name,
                expr_str(m, &r.next)
            ));
        }
        if m.fsm.is_some() {
            out.push_str("      state <= state_n;\n");
        }
        out.push_str("    end\n  end\n");
    }

    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let _guard = crate::serial();
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a, b);
            assert_eq!(render(&a), render(&b));
        }
    }

    #[test]
    fn generated_modules_parse() {
        let _guard = crate::serial();
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let m = generate(seed, &cfg);
            let src = render(&m);
            if let Err(e) = rtlock_rtl::parse(&src) {
                panic!("seed {seed} failed to parse: {e}\n{src}");
            }
        }
    }

    #[test]
    fn generated_modules_elaborate() {
        let _guard = crate::serial();
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let m = generate(seed, &cfg);
            let src = render(&m);
            let parsed = rtlock_rtl::parse(&src).expect("parses");
            if let Err(e) = rtlock_synth::elaborate(&parsed) {
                panic!("seed {seed} failed to elaborate: {e}\n{src}");
            }
        }
    }

    #[test]
    fn seeds_produce_distinct_modules() {
        let _guard = crate::serial();
        let cfg = GenConfig::default();
        let a = render(&generate(1, &cfg));
        let b = render(&generate(2, &cfg));
        assert_ne!(a, b);
    }
}
