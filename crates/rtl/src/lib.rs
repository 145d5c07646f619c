//! RTL generation for Core Access Switches — the paper's generator tool.
//!
//! §3.3 of the paper: *"A CAS architecture generator has been developed. It
//! takes as parameters the N and P values, and provides a VHDL description
//! of the CAS, which can be synthesized with a commercial synthesis tool.
//! This generator is written in C, however, we have considered an
//! alternative way of generation, which consists in describing a CAS
//! architecture in generic VHDL."*
//!
//! This crate reproduces all three generation paths in Rust:
//!
//! * [`vhdl::generate_vhdl`] — per-(N, P) behavioural VHDL with an explicit
//!   `case` decode of every switch scheme (the C generator's output),
//! * [`vhdl::generate_generic_vhdl`] — the "generic VHDL" alternative: one
//!   parameterized architecture that unranks the opcode at elaboration time,
//! * [`verilog::generate_verilog`] — the same behavioural machine in
//!   Verilog-2001 for flows without VHDL front-ends,
//! * [`structural`] — gate-level structural emission from a synthesized
//!   [`casbus_netlist::Netlist`] (the paper's "highly optimized gate level
//!   description" future-work variant).
//!
//! There is no VHDL simulator in this workspace; the [`lint`] module
//! provides a structural sanity checker (balanced constructs, declared
//! identifiers, complete scheme decode) that the test suite and the
//! `generate_rtl` example run over every generated description. The
//! *behaviour* the RTL encodes is the routing rule of the behavioural
//! [`casbus::Cas`], which the gate-level netlists in `casbus-netlist` are
//! checked against clock by clock.
//!
//! # Example
//!
//! ```
//! use casbus::{CasGeometry, SchemeSet};
//! use casbus_rtl::vhdl;
//!
//! let set = SchemeSet::enumerate(CasGeometry::new(4, 2)?)?;
//! let text = vhdl::generate_vhdl(&set);
//! assert!(text.contains("entity cas_n4_p2"));
//! # Ok::<(), casbus::CasError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod structural;
pub mod verilog;
pub mod vhdl;

pub use lint::{lint_vhdl, LintIssue};
