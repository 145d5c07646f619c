//! Feedback polynomials over GF(2) for LFSRs and MISRs.

use std::fmt;

/// A characteristic polynomial over GF(2), `x^deg + … + 1`.
///
/// The polynomial is stored as a tap mask: bit `i` of `taps` set means the
/// term `x^(i+1)` is present, for `i + 1 < deg`. The leading term `x^deg`
/// and the constant term `1` are implicit — every valid feedback polynomial
/// has both.
///
/// # Examples
///
/// ```
/// use casbus_tpg::Polynomial;
///
/// // x^4 + x + 1, the classic maximal-length degree-4 polynomial.
/// let p = Polynomial::from_exponents(4, &[1]).unwrap();
/// assert_eq!(p.degree(), 4);
/// assert!(p.has_term(1));
/// assert!(p.has_term(4));  // leading term is implicit
/// assert!(p.has_term(0));  // constant term is implicit
/// assert!(!p.has_term(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polynomial {
    degree: u32,
    /// Bit `i` ⇒ term `x^(i+1)` present (`1 ≤ i+1 < degree`).
    taps: u64,
}

/// Error constructing a [`Polynomial`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolynomialError {
    /// The degree was zero or exceeded the supported maximum of 64.
    BadDegree(u32),
    /// A tap exponent was outside the open interval `(0, degree)`.
    BadExponent {
        /// The offending exponent.
        exponent: u32,
        /// Degree of the polynomial under construction.
        degree: u32,
    },
    /// No primitive polynomial of the requested degree is tabulated.
    NoPrimitive(u32),
}

impl fmt::Display for PolynomialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadDegree(d) => write!(f, "polynomial degree {d} not in 1..=64"),
            Self::BadExponent { exponent, degree } => {
                write!(
                    f,
                    "tap exponent {exponent} not strictly between 0 and {degree}"
                )
            }
            Self::NoPrimitive(d) => write!(f, "no tabulated primitive polynomial of degree {d}"),
        }
    }
}

impl std::error::Error for PolynomialError {}

/// Tabulated primitive polynomials (maximal-length LFSR feedback) for degrees
/// 1..=32. Each entry lists the intermediate tap exponents (the `x^deg` and
/// `1` terms being implicit). Taken from the standard tables used in BIST
/// literature (e.g. Bardell, McAnney & Savir, *Built-In Test for VLSI*).
const PRIMITIVE_TAPS: [&[u32]; 32] = [
    &[],          // x + 1
    &[1],         // x^2 + x + 1
    &[1],         // x^3 + x + 1
    &[1],         // x^4 + x + 1
    &[2],         // x^5 + x^2 + 1
    &[1],         // x^6 + x + 1
    &[1],         // x^7 + x + 1
    &[6, 5, 1],   // x^8 + x^6 + x^5 + x + 1
    &[4],         // x^9 + x^4 + 1
    &[3],         // x^10 + x^3 + 1
    &[2],         // x^11 + x^2 + 1
    &[7, 4, 3],   // x^12 + x^7 + x^4 + x^3 + 1
    &[4, 3, 1],   // x^13 + x^4 + x^3 + x + 1
    &[12, 11, 1], // x^14 + x^12 + x^11 + x + 1
    &[1],         // x^15 + x + 1
    &[5, 3, 2],   // x^16 + x^5 + x^3 + x^2 + 1
    &[3],         // x^17 + x^3 + 1
    &[7],         // x^18 + x^7 + 1
    &[6, 5, 1],   // x^19 + x^6 + x^5 + x + 1
    &[3],         // x^20 + x^3 + 1
    &[2],         // x^21 + x^2 + 1
    &[1],         // x^22 + x + 1
    &[5],         // x^23 + x^5 + 1
    &[4, 3, 1],   // x^24 + x^4 + x^3 + x + 1
    &[3],         // x^25 + x^3 + 1
    &[8, 7, 1],   // x^26 + x^8 + x^7 + x + 1
    &[8, 7, 1],   // x^27 + x^8 + x^7 + x + 1
    &[3],         // x^28 + x^3 + 1
    &[2],         // x^29 + x^2 + 1
    &[16, 15, 1], // x^30 + x^16 + x^15 + x + 1
    &[3],         // x^31 + x^3 + 1
    &[28, 27, 1], // x^32 + x^28 + x^27 + x + 1
];

impl Polynomial {
    /// Builds a polynomial of the given `degree` with the listed intermediate
    /// tap `exponents`. The `x^degree` and constant terms are implicit.
    ///
    /// # Errors
    ///
    /// Returns [`PolynomialError::BadDegree`] if `degree` is 0 or greater
    /// than 64, and [`PolynomialError::BadExponent`] if any exponent is not
    /// strictly between 0 and `degree`.
    pub fn from_exponents(degree: u32, exponents: &[u32]) -> Result<Self, PolynomialError> {
        if degree == 0 || degree > 64 {
            return Err(PolynomialError::BadDegree(degree));
        }
        let mut taps = 0u64;
        for &exponent in exponents {
            if exponent == 0 || exponent >= degree {
                return Err(PolynomialError::BadExponent { exponent, degree });
            }
            taps |= 1 << (exponent - 1);
        }
        Ok(Self { degree, taps })
    }

    /// Returns the tabulated primitive (maximal-length) polynomial of the
    /// given degree.
    ///
    /// # Errors
    ///
    /// Returns [`PolynomialError::NoPrimitive`] for degrees outside `1..=32`.
    ///
    /// ```
    /// use casbus_tpg::Polynomial;
    /// let p = Polynomial::primitive(16).unwrap();
    /// assert_eq!(p.degree(), 16);
    /// ```
    pub fn primitive(degree: u32) -> Result<Self, PolynomialError> {
        let idx = degree
            .checked_sub(1)
            .ok_or(PolynomialError::NoPrimitive(degree))?;
        let taps = PRIMITIVE_TAPS
            .get(idx as usize)
            .ok_or(PolynomialError::NoPrimitive(degree))?;
        Self::from_exponents(degree, taps)
    }

    /// Degree of the polynomial (the LFSR length it describes).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Whether the term `x^exponent` is present. The leading and constant
    /// terms are always present.
    pub fn has_term(&self, exponent: u32) -> bool {
        if exponent == 0 || exponent == self.degree {
            return true;
        }
        if exponent > self.degree {
            return false;
        }
        self.taps >> (exponent - 1) & 1 == 1
    }

    /// Exponents of all present terms, descending, including the implicit
    /// leading and constant terms.
    pub fn exponents(&self) -> Vec<u32> {
        let mut out = vec![self.degree];
        for e in (1..self.degree).rev() {
            if self.has_term(e) {
                out.push(e);
            }
        }
        out.push(0);
        out
    }
}

impl fmt::Display for Polynomial {
    /// Formats as `x^8 + x^6 + x^5 + x + 1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for e in self.exponents() {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            match e {
                0 => f.write_str("1")?,
                1 => f.write_str("x")?,
                _ => write!(f, "x^{e}")?,
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polynomial({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_exponents_basic() {
        let p = Polynomial::from_exponents(4, &[1]).unwrap();
        assert_eq!(p.degree(), 4);
        assert_eq!(p.exponents(), vec![4, 1, 0]);
    }

    #[test]
    fn degree_zero_rejected() {
        assert_eq!(
            Polynomial::from_exponents(0, &[]),
            Err(PolynomialError::BadDegree(0))
        );
    }

    #[test]
    fn degree_over_64_rejected() {
        assert_eq!(
            Polynomial::from_exponents(65, &[]),
            Err(PolynomialError::BadDegree(65))
        );
    }

    #[test]
    fn exponent_at_degree_rejected() {
        assert_eq!(
            Polynomial::from_exponents(4, &[4]),
            Err(PolynomialError::BadExponent {
                exponent: 4,
                degree: 4
            })
        );
    }

    #[test]
    fn exponent_zero_rejected() {
        assert!(Polynomial::from_exponents(4, &[0]).is_err());
    }

    #[test]
    fn primitive_table_covers_1_to_32() {
        for degree in 1..=32 {
            let p =
                Polynomial::primitive(degree).unwrap_or_else(|e| panic!("degree {degree}: {e}"));
            assert_eq!(p.degree(), degree);
        }
    }

    #[test]
    fn primitive_out_of_table() {
        assert_eq!(
            Polynomial::primitive(0),
            Err(PolynomialError::NoPrimitive(0))
        );
        assert_eq!(
            Polynomial::primitive(33),
            Err(PolynomialError::NoPrimitive(33))
        );
    }

    #[test]
    fn display_formats_terms() {
        let p = Polynomial::primitive(8).unwrap();
        assert_eq!(p.to_string(), "x^8 + x^6 + x^5 + x + 1");
        let p1 = Polynomial::primitive(1).unwrap();
        assert_eq!(p1.to_string(), "x + 1");
    }

    #[test]
    fn has_term_implicit_terms() {
        let p = Polynomial::primitive(5).unwrap(); // x^5 + x^2 + 1
        assert!(p.has_term(5));
        assert!(p.has_term(2));
        assert!(p.has_term(0));
        assert!(!p.has_term(3));
        assert!(!p.has_term(6));
    }
}
