//! Test pattern generation substrate for the CAS-BUS reproduction.
//!
//! The CAS-BUS paper (Benabdenbi et al., DATE 2000) treats *test sources*
//! that generate stimuli and *test sinks* that compact or compare responses
//! (P1500 terminology) as outside the test access mechanism: the bus only
//! carries their bits. This crate holds the bit-level pieces the simulator
//! builds them from:
//!
//! * [`BitVec`] — a compact bit vector used as the common serial-data currency
//!   across the whole workspace,
//! * [`Polynomial`] — feedback polynomials over GF(2) with a table of
//!   primitive polynomials,
//! * [`Lfsr`] — Fibonacci linear feedback shift registers, the stimulus
//!   source of every session and of the BIST engines (Fig. 2 (b)),
//! * [`Misr`] and [`golden_signature`] — multiple-input signature
//!   registers, the BIST engines' response sink,
//! * [`lanes`] — lane-parallel word utilities (broadcast, 64×64 bit
//!   transpose, per-lane stream extraction, a bit-sliced MISR) backing
//!   packed device-parallel simulation,
//! * [`Verdict`] — the pass/fail outcome of a session.
//!
//! # Example
//!
//! ```
//! use casbus_tpg::{BitVec, Lfsr, Misr, Polynomial};
//!
//! // A maximal-length 8-bit LFSR feeding a one-input MISR of the same width.
//! let poly = Polynomial::primitive(8).expect("table covers degree 8");
//! let mut lfsr = Lfsr::fibonacci(poly.clone(), 0x5a).expect("non-zero seed");
//! let mut misr = Misr::new(poly, 1).expect("one input fits");
//! for _ in 0..255 {
//!     misr.absorb(&BitVec::repeat(lfsr.step(), 1));
//! }
//! assert_ne!(misr.signature().to_u64(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod lanes;
pub mod lfsr;
pub mod misr;
pub mod poly;
pub mod signature;
pub mod verdict;

pub use bits::{BitVec, ParseBitVecError};
pub use lfsr::{Lfsr, LfsrError};
pub use misr::{Misr, MisrError};
pub use poly::{Polynomial, PolynomialError};
pub use signature::golden_signature;
pub use verdict::Verdict;
