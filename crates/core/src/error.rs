//! Errors raised by the CAS-BUS core library.

use std::fmt;

/// Errors raised while building or operating a CAS-BUS TAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasError {
    /// `P` or `N` violated `1 ≤ P ≤ N`.
    BadGeometry {
        /// Requested bus width.
        n: usize,
        /// Requested switched-wire count.
        p: usize,
    },
    /// Enumerating all switch schemes for this geometry would exceed the
    /// enumeration budget (`N!/(N−P)!` schemes).
    TooManySchemes {
        /// Requested bus width.
        n: usize,
        /// Requested switched-wire count.
        p: usize,
        /// The scheme count that was refused.
        count: u128,
    },
    /// A scheme index was out of range for the geometry.
    SchemeIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of schemes available.
        available: usize,
    },
    /// A scheme mapped two ports to one wire, or used a wire ≥ N.
    InvalidScheme(String),
    /// The test bus is narrower than a core requires.
    BusTooNarrow {
        /// The core that does not fit.
        core: String,
        /// Wires the core needs.
        needed: usize,
        /// Available bus width.
        n: usize,
    },
    /// A test declared a wire count other than its CAS's `P`: the CAS
    /// switches all `P` of its wires in TEST mode, whatever the test says.
    TestWidthMismatch {
        /// Index of the CAS.
        cas: usize,
        /// Wires the CAS switches.
        p: usize,
        /// Wires the test declared.
        wires: usize,
    },
    /// A TAM configuration named a CAS index that does not exist.
    UnknownCas(usize),
    /// A configuration supplied the wrong number of instructions.
    ConfigurationLengthMismatch {
        /// Instructions supplied.
        got: usize,
        /// CASes on the bus.
        expected: usize,
    },
}

impl fmt::Display for CasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadGeometry { n, p } => {
                write!(
                    f,
                    "invalid CAS geometry: need 1 <= P <= N, got N={n}, P={p}"
                )
            }
            Self::TooManySchemes { n, p, count } => write!(
                f,
                "geometry N={n}, P={p} has {count} switch schemes, beyond the enumeration budget"
            ),
            Self::SchemeIndexOutOfRange { index, available } => {
                write!(f, "scheme index {index} out of range ({available} schemes)")
            }
            Self::InvalidScheme(msg) => write!(f, "invalid switch scheme: {msg}"),
            Self::BusTooNarrow { core, needed, n } => write!(
                f,
                "core {core:?} needs {needed} test wires but the bus is only {n} wide"
            ),
            Self::TestWidthMismatch { cas, p, wires } => write!(
                f,
                "CAS {cas} switches P={p} wires but its test declares {wires}"
            ),
            Self::UnknownCas(idx) => write!(f, "no CAS at index {idx}"),
            Self::ConfigurationLengthMismatch { got, expected } => write!(
                f,
                "configuration has {got} instructions for {expected} CASes"
            ),
        }
    }
}

impl std::error::Error for CasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let cases: Vec<(CasError, &str)> = vec![
            (CasError::BadGeometry { n: 2, p: 3 }, "N=2, P=3"),
            (
                CasError::TooManySchemes {
                    n: 20,
                    p: 10,
                    count: 670442572800,
                },
                "670442572800",
            ),
            (CasError::UnknownCas(7), "index 7"),
            (
                CasError::TestWidthMismatch {
                    cas: 1,
                    p: 4,
                    wires: 1,
                },
                "CAS 1 switches P=4 wires but its test declares 1",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let err: Box<dyn std::error::Error> = Box::new(CasError::UnknownCas(0));
        assert!(!err.to_string().is_empty());
    }
}
