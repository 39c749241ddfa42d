//! Whole-design static dataflow analyses for the RTLock flow.
//!
//! The crate provides a deterministic worklist fixed-point engine and three
//! lattice domains evaluated over gate netlists
//! ([`NetAnalysis`]) and RTL modules ([`RtlAnalysis`]):
//!
//! 1. **Key taint** — forward per-key-bit dependence sets: which nets *may*
//!    depend on which key bits (an over-approximation; its complement — a
//!    net reported untainted by bit `k` — is a proof of independence).
//! 2. **Ternary constant/X propagation** — abstract interpretation over
//!    `{0, 1, X}` proving nets constant under *all* key and input
//!    valuations, plus per-key-bit cofactor runs (bit pinned to 0 and to 1,
//!    everything else `X`) exposing gates that reduce to a bare key wire.
//! 3. **Scan reachability** — backward observability from primary outputs
//!    and scan-chain cells, and forward controllability from primary
//!    inputs and scan-chain cells.
//!
//! Every domain is a finite monotone lattice, so the worklist converges to
//! the unique least fixed point: results are independent of iteration
//! order, threads, and seeds (the determinism contract the K-series lint
//! rules and the fuzz harness rely on). Long runs are cooperatively
//! bounded: the `*_bounded` entry points poll a
//! [`CancelToken`](rtlock_governor::CancelToken) and return `None` when it
//! fires, never a partial result.
//!
//! # Examples
//!
//! Key taint over three gates, `y = (a & b) ^ k0` and `z = !(a & b)`:
//! only `y` may depend on the key bit.
//!
//! ```
//! use rtlock_dataflow::analyze_netlist;
//! use rtlock_netlist::{GateKind, Netlist};
//!
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let k = n.add_input("keyinput0");
//! n.mark_key_input(k);
//! let ab = n.add_gate(GateKind::And, vec![a, b]);
//! let y = n.add_gate(GateKind::Xor, vec![ab, k]);
//! let z = n.add_gate(GateKind::Not, vec![ab]);
//! n.add_output("y", y);
//! n.add_output("z", z);
//!
//! let facts = analyze_netlist(&n);
//! assert_eq!(facts.taint_bits(y), vec![0]);
//! assert!(facts.taint_is_empty(ab) && facts.taint_is_empty(z));
//! assert!(facts.key_observable(0), "y is a primary output");
//! ```

#![warn(missing_docs)]

pub mod netflow;
pub mod rtlflow;
pub mod taint;
pub mod ternary;

pub use netflow::{analyze_netlist, analyze_netlist_bounded, NetAnalysis};
pub use rtlflow::{analyze_module, RtlAnalysis};
pub use taint::TaintMatrix;
pub use ternary::Ternary;
