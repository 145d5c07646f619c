//! Signature analysis helpers.

use crate::bits::BitVec;
use crate::misr::{Misr, MisrError};
use crate::poly::Polynomial;

/// Computes the fault-free ("golden") signature for a sequence of parallel
/// response words compacted by a MISR with the given polynomial.
///
/// Every word must have the same width, which becomes the MISR's parallel
/// input count.
///
/// # Errors
///
/// Returns a [`MisrError`] if the word width is zero or exceeds the
/// polynomial degree.
///
/// # Panics
///
/// Panics if the response words have inconsistent widths.
///
/// # Examples
///
/// ```
/// use casbus_tpg::{golden_signature, Polynomial, BitVec};
///
/// let words: Vec<BitVec> = vec!["1010".parse().unwrap(), "0110".parse().unwrap()];
/// let sig = golden_signature(&Polynomial::primitive(8).unwrap(), &words).unwrap();
/// assert_eq!(sig.len(), 8);
/// ```
pub fn golden_signature(poly: &Polynomial, responses: &[BitVec]) -> Result<BitVec, MisrError> {
    let width = responses.first().map_or(1, BitVec::len) as u32;
    let mut misr = Misr::new(poly.clone(), width.max(1))?;
    for word in responses {
        misr.absorb(word);
    }
    Ok(misr.signature())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_signature_deterministic() {
        let poly = Polynomial::primitive(12).unwrap();
        let words: Vec<BitVec> = (0..40u64).map(|v| BitVec::from_u64(v * 7, 12)).collect();
        assert_eq!(
            golden_signature(&poly, &words).unwrap(),
            golden_signature(&poly, &words).unwrap()
        );
    }

    #[test]
    fn golden_signature_detects_change() {
        let poly = Polynomial::primitive(12).unwrap();
        let words: Vec<BitVec> = (0..40u64).map(|v| BitVec::from_u64(v * 7, 12)).collect();
        let mut corrupted = words.clone();
        corrupted[13].toggle(5);
        assert_ne!(
            golden_signature(&poly, &words).unwrap(),
            golden_signature(&poly, &corrupted).unwrap()
        );
    }

    #[test]
    fn golden_signature_empty_stream() {
        let poly = Polynomial::primitive(8).unwrap();
        let sig = golden_signature(&poly, &[]).unwrap();
        assert_eq!(sig.count_ones(), 0);
    }

    #[test]
    fn golden_signature_rejects_overwide_words() {
        let poly = Polynomial::primitive(4).unwrap();
        let words = vec![BitVec::zeros(8)];
        assert!(golden_signature(&poly, &words).is_err());
    }
}
