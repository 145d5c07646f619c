//! Multiple-input signature registers (test sinks).

use std::fmt;

use crate::bits::BitVec;
use crate::poly::Polynomial;

/// Error constructing a [`Misr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MisrError {
    /// The number of parallel inputs exceeded the register width.
    TooManyInputs {
        /// Register width (polynomial degree).
        width: u32,
        /// Requested parallel input count.
        inputs: u32,
    },
    /// Zero parallel inputs requested.
    NoInputs,
}

impl fmt::Display for MisrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyInputs { width, inputs } => {
                write!(f, "{inputs} parallel inputs exceed MISR width {width}")
            }
            Self::NoInputs => f.write_str("a MISR needs at least one input"),
        }
    }
}

impl std::error::Error for MisrError {}

/// A multiple-input signature register: an internal-XOR LFSR whose stages
/// additionally XOR in parallel response bits every clock.
///
/// The register compacts an arbitrarily long response stream into a
/// `width`-bit signature. With a primitive feedback polynomial the
/// probability that a faulty stream aliases to the fault-free signature is
/// approximately `2^−width`, and a single flipped response bit never
/// aliases.
///
/// # Examples
///
/// ```
/// use casbus_tpg::{Misr, Polynomial, BitVec};
///
/// let mut misr = Misr::new(Polynomial::primitive(8).unwrap(), 4).unwrap();
/// misr.absorb(&"1011".parse::<BitVec>().unwrap());
/// misr.absorb(&"0010".parse::<BitVec>().unwrap());
/// let signature = misr.signature();
/// assert_eq!(signature.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    poly: Polynomial,
    inputs: u32,
    state: u64,
    mask: u64,
}

impl Misr {
    /// Creates a MISR with `inputs` parallel input taps, one per stage
    /// starting from stage 0. The register starts in the all-zero state.
    ///
    /// # Errors
    ///
    /// Returns [`MisrError::NoInputs`] when `inputs` is zero, and
    /// [`MisrError::TooManyInputs`] when `inputs` exceeds the polynomial
    /// degree.
    pub fn new(poly: Polynomial, inputs: u32) -> Result<Self, MisrError> {
        if inputs == 0 {
            return Err(MisrError::NoInputs);
        }
        let width = poly.degree();
        if inputs > width {
            return Err(MisrError::TooManyInputs { width, inputs });
        }
        let mut mask = 0u64;
        for e in 1..=width {
            if poly.has_term(e) {
                mask |= 1 << (e - 1);
            }
        }
        Ok(Self {
            poly,
            inputs,
            state: 0,
            mask,
        })
    }

    /// Absorbs one clock's worth of parallel response bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the configured input count.
    pub fn absorb(&mut self, bits: &BitVec) {
        assert_eq!(
            bits.len(),
            self.inputs as usize,
            "MISR configured for {} inputs, got {}",
            self.inputs,
            bits.len()
        );
        // Internal-XOR shift: the mask includes the x^degree term, which
        // re-inserts the feedback into the vacated MSB.
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= self.mask;
        }
        // Parallel injection into the low stages.
        self.state ^= bits.to_u64();
    }

    /// The current signature, stage 0 first.
    pub fn signature(&self) -> BitVec {
        BitVec::from_u64(self.state, self.poly.degree() as usize)
    }

    /// Clears the register back to the all-zero state.
    pub fn reset(&mut self) {
        self.state = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::Lfsr;

    fn misr8() -> Misr {
        Misr::new(Polynomial::primitive(8).unwrap(), 8).unwrap()
    }

    #[test]
    fn zero_inputs_rejected() {
        assert_eq!(
            Misr::new(Polynomial::primitive(4).unwrap(), 0),
            Err(MisrError::NoInputs)
        );
    }

    #[test]
    fn too_many_inputs_rejected() {
        assert_eq!(
            Misr::new(Polynomial::primitive(4).unwrap(), 5),
            Err(MisrError::TooManyInputs {
                width: 4,
                inputs: 5
            })
        );
    }

    #[test]
    fn zero_stream_keeps_zero_signature() {
        let mut m = misr8();
        for _ in 0..100 {
            m.absorb(&BitVec::zeros(8));
        }
        assert_eq!(m.signature().count_ones(), 0);
    }

    #[test]
    fn signature_is_deterministic() {
        let mut a = misr8();
        let mut b = misr8();
        for i in 0..50u64 {
            let word = BitVec::from_u64(i.wrapping_mul(0x9e37_79b9), 8);
            a.absorb(&word);
            b.absorb(&word);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_error_changes_signature() {
        // Linearity: a single flipped response bit always changes the
        // signature (the error polynomial is non-zero and shorter than the
        // period).
        for flip_at in [0usize, 7, 31, 99] {
            let mut good = misr8();
            let mut bad = misr8();
            for clk in 0..100usize {
                let mut word = BitVec::from_u64((clk as u64).wrapping_mul(77), 8);
                let good_word = word.clone();
                if clk == flip_at {
                    word.set(3, !word.get(3).unwrap());
                }
                good.absorb(&good_word);
                bad.absorb(&word);
            }
            assert_ne!(good.signature(), bad.signature(), "flip at clock {flip_at}");
        }
    }

    #[test]
    fn absorb_wrong_width_panics() {
        let mut m = misr8();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.absorb(&BitVec::zeros(4));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reset_clears_state() {
        let mut m = misr8();
        m.absorb(&BitVec::ones(8));
        m.reset();
        assert_eq!(m.signature().count_ones(), 0);
    }

    #[test]
    fn compacting_lfsr_stream_gives_stable_golden_signature() {
        // A BIST session: LFSR feeds core feeds MISR. Identity "core".
        let poly = Polynomial::primitive(16).unwrap();
        let run = || {
            let mut lfsr = Lfsr::fibonacci(poly.clone(), 0xace1).unwrap();
            let mut misr = Misr::new(poly.clone(), 1).unwrap();
            for _ in 0..1000 {
                misr.absorb(&BitVec::repeat(lfsr.step(), 1));
            }
            misr.signature()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_streams_rarely_collide() {
        // Sanity (not a proof): 64 distinct short streams give 64 distinct
        // signatures for a 16-bit MISR.
        let poly = Polynomial::primitive(16).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in 0..64u64 {
            let mut m = Misr::new(poly.clone(), 16).unwrap();
            for clk in 0..32 {
                m.absorb(&BitVec::from_u64(s.wrapping_mul(0x12345) ^ clk, 16));
            }
            seen.insert(m.signature().to_u64());
        }
        assert_eq!(seen.len(), 64);
    }
}
