//! System-on-chip description substrate for the CAS-BUS reproduction.
//!
//! The CAS-BUS paper assumes an SoC assembled from reusable IP cores, each
//! wrapped by a P1500-style wrapper and served by one Core Access Switch.
//! This crate provides everything "around" the TAM:
//!
//! * **Static descriptions** ([`CoreDescription`], [`SocDescription`]): which
//!   cores exist, how each is tested (paper Fig. 2: scan, BIST, external
//!   source/sink, hierarchical), how many test ports (`P`) each needs, and
//!   whether the system bus is itself wrapped and CASed (paper Fig. 1).
//! * **The test-time model** ([`TestMethod::session`], [`SessionShape`],
//!   [`CoreDescription::test_time`]): the session each test method runs.
//!   The schedulers book its cycles and the simulator runs it, so a test
//!   program runs the cycles it books.
//! * **Behavioural models** ([`models`]): executable cores implementing
//!   [`casbus_p1500::TestableCore`], with real scan chains, a real LFSR/MISR
//!   BIST engine, a memory with march-style self test, and hierarchical
//!   cores embedding sub-cores — so the whole test session can be simulated
//!   bit by bit.
//! * **Catalogue** ([`catalog`]): the six-core SoC of the paper's Figure 1,
//!   one SoC per Figure 2 test type, and a random SoC generator for
//!   benchmarks.
//!
//! # Example
//!
//! ```
//! use casbus_soc::catalog;
//!
//! let soc = catalog::figure1_soc();
//! assert_eq!(soc.cores().len(), 6);
//! assert!(soc.system_bus().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod core;
pub mod models;
pub mod soc;

pub use crate::core::{CoreDescription, CoreId, SessionShape, TestMethod};
pub use crate::soc::{SocBuilder, SocDescription, SocError, SystemBusDescription};
