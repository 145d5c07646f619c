//! Cycle-accurate end-to-end simulation of CAS-BUS test sessions.
//!
//! This crate closes the loop of the reproduction: behavioural cores
//! (`casbus-soc`) sit inside P1500 wrappers (`casbus-p1500`), which hang off
//! Core Access Switches on the test bus (`casbus`), sequenced by test
//! programs (`casbus-controller`), with sources and sinks from `casbus-tpg`.
//! Every bit of test data travels the same path it would on silicon:
//!
//! ```text
//! source → e wires → CAS → wrapper parallel port → scan chains/BIST
//!        ← s wires ← CAS ← wrapper parallel port ←
//! ```
//!
//! The simulator inserts one retiming register between each wrapper's
//! parallel output and its CAS core-side input (a standard TAM pipelining
//! choice); golden references are computed through the same convention, so
//! comparisons are bit-exact.
//!
//! What you can do with it:
//!
//! * [`SocSimulator`] — configure the TAM + wrappers and drive raw data
//!   clocks,
//! * [`session`] — run a complete, verified test session for any core
//!   (scan, BIST, memory march, external, hierarchical) and get a
//!   [`SessionReport`] with cycle counts and a pass/fail verdict,
//! * [`report::run_program`] — execute a whole scheduled
//!   [`TestProgram`](casbus_controller::TestProgram) (concurrent cores and
//!   all) and get per-core verdicts plus the measured SoC test time; the
//!   run's cycle counters stay on the simulator for
//!   [`SocSimulator::export_metrics`],
//! * [`search::run_program_searched`] — let the controller's annealed
//!   search pick the schedule whose program books the fewest cycles,
//!   gate the winner (the only plan it simulates) bit-exactly against
//!   the reference interpreter, and publish the search telemetry into the
//!   caller's registry,
//! * [`fleet::FleetRunner`] — compile one test program once and serve it
//!   across thousands of simulated devices on a persistent worker pool,
//!   streaming per-device pass/fail reports and a fleet yield summary,
//! * [`engine_packed::PackedDeviceEngine`] — the fleet's packed
//!   device-parallel mode: up to 64 defective devices of one core, from
//!   anywhere in a lot, share one word-level execution, each device one
//!   bit-lane, with per-device reports extracted bit-identical to the
//!   scalar path and reported in 64-die cohorts,
//! * [`monitor::FleetMonitor`] — watch an in-flight fleet run live:
//!   streaming health snapshots (yield, throughput, latency quantiles,
//!   stragglers) over a bounded channel, plus flight-recorder dumps of the
//!   failing dies, made by replaying them,
//! * [`floor::TestFloor`] — multi-tenant serving: run several heterogeneous
//!   lots ([`floor::LotSpec`]) concurrently on one shared worker pool and
//!   one route cache, weighted-fair by lot priority, each lot's
//!   reports bit-identical to a standalone [`fleet::FleetRunner`] run,
//! * [`admission::AdmissionPolicy`] — yield-driven admission control for
//!   the floor: pause a lot whose rolling yield collapses, without
//!   perturbing co-tenants,
//! * fault injection — flip a core defect on and watch the session fail.
//!
//! One device runs on one thread: an engine runs a step's concurrent
//! sessions one after another, and the paper's concurrency (cores tested
//! at once on disjoint CAS wire windows) is reproduced exactly in cycle
//! arithmetic. Host threads serve many devices at once (fleets, floors) on
//! one persistent [`WorkerPool`], the crate's only parallelism.
//!
//! # Example
//!
//! ```
//! use casbus_sim::{SocSimulator, session};
//! use casbus_soc::catalog;
//!
//! let soc = catalog::figure2b_bist_soc();
//! let mut sim = SocSimulator::new(&soc, 3)?;
//! let report = session::run_core_session(&mut sim, "bist8")?;
//! assert!(report.verdict.is_pass());
//! # Ok::<(), casbus_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bus_core;
pub mod engine;
pub mod engine_packed;
pub mod fleet;
pub mod floor;
pub mod interconnect;
pub mod monitor;
pub mod pool;
pub mod report;
pub mod search;
pub mod session;
pub mod simulator;

pub use admission::{AdmissionAction, AdmissionController, AdmissionEvent, AdmissionPolicy};
pub use bus_core::SystemBusCore;
pub use engine::CompiledEngine;
pub use engine_packed::PackedDeviceEngine;
pub use fleet::{DeviceReport, FaultKind, FleetReport, FleetRunner, InjectedFault, VariationSpec};
pub use floor::{FloorReport, LotReport, LotSpec, TestFloor};
pub use interconnect::run_interconnect_extest;
pub use monitor::{DeviceDump, FleetMonitor, FleetSnapshot, LotTracker, MonitorConfig, Straggler};
pub use pool::{LaneId, WorkerPool};
pub use report::{run_program, run_program_reference, SocTestReport};
pub use search::{run_program_searched, CompiledValidator};
pub use session::{run_core_session, ClockKind, SessionReport};
pub use simulator::{SimError, SocSimulator};
