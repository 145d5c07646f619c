//! The central SoC test controller and test-programming layer.
//!
//! Paper §2: *"All test control signals, either for the CAS or for the
//! testable cores, are connected to a central SoC test controller which is
//! in charge of synchronizing test data and control."* And §4 describes what
//! the *test programmer* does with the reconfigurable TAM: balance scan
//! chains, sequence several TAM configurations within one test program, and
//! run maintenance tests on some cores while others keep operating.
//!
//! This crate implements that layer:
//!
//! * [`schedule`] — wire-allocation scheduling: pack core tests onto the
//!   `N`-wire bus over time (greedy strip packing) or serially, giving the
//!   test-time-vs-`N` trade-off of §3.2/§4,
//! * [`search`] — schedule search: an annealed local search seeded from
//!   the heuristics that ranks plans by the cycles their program books,
//! * [`balance`] — the §4 scan-chain balancing optimization,
//! * [`program`] — executable test programs: a sequence of TAM
//!   configurations plus matching wrapper instructions,
//! * [`maintenance`] — §4 maintenance-test planning (test a subset while
//!   the rest runs in mission mode).
//!
//! A core's test time is the cycle count of the session its test method
//! runs, which `casbus-soc` defines (`TestMethod::session`,
//! `CoreDescription::test_time`): the schedulers book exactly what the
//! simulator runs. `casbus-sim` sequences the programs this crate builds:
//! its `SocSimulator::configure` runs each step's CONFIGURATION phase and
//! its engines run the TEST phase, counting every cycle.
//!
//! # Example
//!
//! ```
//! use casbus_controller::schedule;
//! use casbus_soc::catalog;
//!
//! let soc = catalog::figure1_soc();
//! let wide = schedule::packed_schedule(&soc, 8)?;
//! let narrow = schedule::packed_schedule(&soc, 4)?;
//! assert!(wide.makespan() <= narrow.makespan(), "wider bus, shorter test");
//! # Ok::<(), casbus_controller::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod maintenance;
pub mod program;
pub mod schedule;
pub mod search;

pub use balance::{balance_chains, repartition_flops};
pub use maintenance::MaintenancePlan;
pub use program::{CompiledProgram, TestProgram, TestStep};
pub use schedule::{Schedule, ScheduleError, ScheduledTest};
pub use search::{
    search_schedule, search_schedule_metered, search_schedule_with, CandidateValidator,
    SearchBudget,
};
