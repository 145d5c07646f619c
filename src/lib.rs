//! Umbrella crate for the CAS-BUS reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that the integration
//! tests in `tests/` and the runnable examples in `examples/` can reach the
//! whole system through a single dependency.
//!
//! The individual crates:
//!
//! * [`casbus`] — the CAS-BUS TAM itself (the paper's contribution),
//! * [`casbus_netlist`] — gate-level synthesis, simulation and area models,
//! * [`casbus_rtl`] — VHDL/Verilog generation,
//! * [`casbus_p1500`] — P1500-style core test wrappers,
//! * [`casbus_soc`] — the SoC description substrate,
//! * [`casbus_tpg`] — bit vectors, LFSRs, MISRs and signatures,
//! * [`casbus_controller`] — the central SoC test controller,
//! * [`casbus_sim`] — the cycle-accurate end-to-end simulator,
//! * [`casbus_obs`] — observability: VCD waveforms, trace events, metrics.

#![forbid(unsafe_code)]

pub use casbus;
pub use casbus_controller;
pub use casbus_netlist;
pub use casbus_obs;
pub use casbus_p1500;
pub use casbus_rtl;
pub use casbus_sim;
pub use casbus_soc;
pub use casbus_tpg;

/// The README's Rust snippets, compiled by `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
