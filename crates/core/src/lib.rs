//! # CAS-BUS: a scalable and reconfigurable test access mechanism
//!
//! This crate is the heart of the reproduction of *"CAS-BUS: A Scalable and
//! Reconfigurable Test Access Mechanism for Systems on a Chip"*
//! (M. Benabdenbi, W. Maroufi, M. Marzouki, DATE 2000).
//!
//! The CAS-BUS TAM is built from two elements (paper §2):
//!
//! * a serial **test bus** of `N` wires threading the whole SoC,
//! * one **Core Access Switch** ([`Cas`]) per wrapped core, which connects
//!   `P` of the `N` wires to the core's test terminals and lets the
//!   remaining `N − P` wires bypass it.
//!
//! Each CAS holds a `k`-bit instruction register loaded serially over bus
//! wire 0 during the CONFIGURATION phase; `k = ⌈log₂ m⌉` where `m` is the
//! number of instructions (paper §3.2). Under the paper's switching
//! heuristic — *"when an input `e_i` is switched to an output `o_j`, the
//! corresponding `i_j` CAS input is switched to the `s_i` output"* — a TEST
//! instruction is an ordered injective assignment of the `P` core port pairs
//! onto the `N` bus wires, so
//!
//! ```text
//! m = N!/(N−P)! + 2        (TEST schemes + BYPASS + CONFIGURATION)
//! ```
//!
//! which reproduces every `(m, k)` row of the paper's Table 1 exactly
//! (e.g. `N=8, P=4`: `8·7·6·5 + 2 = 1682`, `k = 11`).
//!
//! ## Quick start
//!
//! ```
//! use casbus::{CasGeometry, SchemeSet, Cas, CasInstruction};
//!
//! // The N=4, P=2 CAS of Table 1: m = 14, k = 4.
//! let geometry = CasGeometry::new(4, 2)?;
//! assert_eq!(geometry.combination_count(), 14);
//! assert_eq!(geometry.instruction_width(), 4);
//!
//! // Enumerate its switch schemes and build the behavioural switch.
//! let schemes = SchemeSet::enumerate(geometry)?;
//! let mut cas = Cas::new(schemes);
//! cas.load_instruction(&CasInstruction::Bypass);
//! # Ok::<(), casbus::CasError>(())
//! ```
//!
//! The routing rule has one behavioural encoding,
//! [`Cas::clock_in_place`]. The gate-level synthesis in `casbus-netlist`
//! is checked against it clock by clock, the RTL emitters in `casbus-rtl`
//! describe the same rule in VHDL and Verilog, and [`RouteTable`] records
//! only which TEST CASes own their wires: the one routing fact the
//! compiled engines in `casbus-sim` read.
//!
//! The higher layers: [`CasChain`] chains CASes on the test bus,
//! [`Tam`] assembles the whole mechanism for a
//! [`SocDescription`](casbus_soc::SocDescription), and the sibling crates
//! provide wrappers (`casbus-p1500`), gate-level synthesis
//! (`casbus-netlist`), VHDL/Verilog generation (`casbus-rtl`), scheduling
//! (`casbus-controller`) and end-to-end simulation (`casbus-sim`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod chain;
pub mod config;
pub mod error;
pub mod geometry;
pub mod instruction;
pub mod route;
pub mod switch;
pub mod tam;

pub use cas::{Cas, CasControl, CasMode, CasOutput};
pub use chain::CasChain;
pub use config::ConfigStream;
pub use error::CasError;
pub use geometry::CasGeometry;
pub use instruction::CasInstruction;
pub use route::{CacheStats, RouteTable, RouteTableCache, WaveKey};
pub use switch::{SchemeSet, SwitchScheme};
pub use tam::{Tam, TamConfiguration};
