//! RTL-to-gates synthesis for the RTLock reproduction.
//!
//! Stands in for the commercial flow (Synopsys DC on NanGate 15 nm) the
//! paper uses: [`elaborate()`] bit-blasts the RTL IR into the gate library,
//! [`optimize`] performs technology-independent cleanup (and powers the
//! constant-propagation step of the SWEEP/SCOPE attacks), and [`scan`]
//! provides scan insertion, stitching, reordering and the attacker-visible
//! scan view.
//!
//! # Examples
//!
//! ```
//! use rtlock_synth::{elaborate, optimize, scan};
//!
//! let m = rtlock_rtl::parse(r#"
//! module c(input clk, input rst, input [3:0] d, output reg [3:0] q);
//!   always @(posedge clk or posedge rst) begin
//!     if (rst) q <= 4'd0; else q <= q + d;
//!   end
//! endmodule"#)?;
//! let mut n = elaborate(&m)?;
//! optimize(&mut n);
//! scan::insert_full_scan(&mut n);
//! assert_eq!(n.dffs().len(), 4);
//! assert_eq!(n.scan_chain.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod elaborate;
pub mod io;
pub mod lower;
pub mod opt;
pub mod scan;
mod strash;

pub use builder::GateBuilder;
pub use elaborate::{elaborate, SynthError};
pub use opt::{optimize, optimize_bounded, OptStats};
pub use scan::{scan_view, ScanView};
