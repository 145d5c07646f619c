//! Linear feedback shift registers (test sources).

use std::fmt;

use crate::bits::BitVec;
use crate::poly::Polynomial;

/// Error constructing an [`Lfsr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfsrError {
    /// An all-zero seed locks the register in the zero state.
    ZeroSeed,
    /// The seed had bits above the register width.
    SeedTooWide {
        /// Register width in bits.
        width: u32,
        /// The offending seed.
        seed: u64,
    },
}

impl fmt::Display for LfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroSeed => f.write_str("all-zero LFSR seed is a lock-up state"),
            Self::SeedTooWide { width, seed } => {
                write!(f, "seed {seed:#x} does not fit in {width} bits")
            }
        }
    }
}

impl std::error::Error for LfsrError {}

/// An external-XOR (Fibonacci) linear feedback shift register over GF(2),
/// up to 64 stages.
///
/// With a [primitive](Polynomial::primitive) feedback polynomial and any
/// non-zero seed the output sequence has the maximal period `2^deg − 1`.
///
/// Bit 0 of the state is the output stage; the register shifts towards bit 0.
///
/// # Examples
///
/// ```
/// use casbus_tpg::{Lfsr, Polynomial};
///
/// let poly = Polynomial::primitive(4).unwrap(); // x^4 + x + 1
/// let mut lfsr = Lfsr::fibonacci(poly, 0b0001).unwrap();
/// assert_eq!(lfsr.period(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    poly: Polynomial,
    state: u64,
    seed: u64,
    mask: u64,
}

impl Lfsr {
    /// Creates an external-XOR (Fibonacci) LFSR: one XOR tree over the
    /// tapped stages feeds the last stage.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::ZeroSeed`] for a zero seed and
    /// [`LfsrError::SeedTooWide`] if the seed does not fit in
    /// `poly.degree()` bits.
    pub fn fibonacci(poly: Polynomial, seed: u64) -> Result<Self, LfsrError> {
        if seed == 0 {
            return Err(LfsrError::ZeroSeed);
        }
        let width = poly.degree();
        if width < 64 && seed >> width != 0 {
            return Err(LfsrError::SeedTooWide { width, seed });
        }
        let mask = fibonacci_mask(&poly);
        Ok(Self {
            poly,
            state: seed,
            seed,
            mask,
        })
    }

    /// Advances one clock and returns the output bit (stage 0 before the
    /// shift).
    pub fn step(&mut self) -> bool {
        let width = self.poly.degree();
        let out = self.state & 1 == 1;
        let fb = (self.state & self.mask).count_ones() & 1;
        self.state >>= 1;
        self.state |= u64::from(fb) << (width - 1);
        out
    }

    /// Advances up to 64 clocks and packs the output bits into a word,
    /// first output in the LSB.
    ///
    /// Behaviourally identical to calling [`Lfsr::step`] `cycles` times
    /// (the bit-serial path is kept as the reference and an equivalence
    /// test pins the two together), but runs entirely on the compiled
    /// `u64` tap mask with no per-bit allocation, so pattern generation
    /// keeps up with the word-level session engine.
    ///
    /// # Panics
    ///
    /// Panics if `cycles > 64`.
    pub fn step_word(&mut self, cycles: usize) -> u64 {
        assert!(
            cycles <= 64,
            "step_word supports at most 64 cycles, got {cycles}"
        );
        let width = self.poly.degree();
        let mut out = 0u64;
        for t in 0..cycles {
            out |= (self.state & 1) << t;
            let fb = (self.state & self.mask).count_ones() & 1;
            self.state >>= 1;
            self.state |= u64::from(fb) << (width - 1);
        }
        out
    }

    /// Advances `n` clocks and collects the output bits.
    pub fn step_n(&mut self, n: usize) -> BitVec {
        let mut out = BitVec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let chunk = remaining.min(64);
            out.push_word(self.step_word(chunk), chunk);
            remaining -= chunk;
        }
        out
    }

    /// Current register state, stage 0 in the LSB.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Resets the register to its construction seed.
    pub fn reset(&mut self) {
        self.state = self.seed;
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.poly.degree()
    }

    /// Computes the state period from the current state by stepping until the
    /// state recurs. Runs in `O(period)`; intended for registers of ~24 bits
    /// or fewer.
    /// # Panics
    ///
    /// Panics (instead of looping forever) if the state fails to recur
    /// within `2^width` steps — impossible for the invertible update rules
    /// this type constructs, so a panic indicates a library bug.
    pub fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state;
        let cap = if self.width() >= 63 {
            u64::MAX
        } else {
            1u64 << (self.width() + 1)
        };
        let mut count = 0u64;
        loop {
            probe.step();
            count += 1;
            if probe.state == start {
                return count;
            }
            assert!(
                count < cap,
                "LFSR state failed to recur within 2^{} steps — non-invertible update",
                self.width() + 1
            );
        }
    }

    /// Whether the register reaches the maximal period `2^width − 1` from its
    /// current state. Same cost caveat as [`Lfsr::period`].
    pub fn is_maximal_length(&self) -> bool {
        let width = self.width();
        width < 64 && self.period() == (1u64 << width) - 1
    }
}

/// Fibonacci (external-XOR) tap mask for a right-shifting register: bit
/// `degree − e` set for every polynomial term `x^e`, `1 ≤ e ≤ degree` —
/// so the output stage (bit 0, from the `x^degree` term) is always tapped,
/// which keeps the state map invertible.
fn fibonacci_mask(poly: &Polynomial) -> u64 {
    let mut mask = 0u64;
    for e in 1..=poly.degree() {
        if poly.has_term(e) {
            mask |= 1 << (poly.degree() - e);
        }
    }
    mask
}

impl Iterator for Lfsr {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_rejected() {
        let poly = Polynomial::primitive(4).unwrap();
        assert_eq!(Lfsr::fibonacci(poly, 0), Err(LfsrError::ZeroSeed));
    }

    #[test]
    fn wide_seed_rejected() {
        let poly = Polynomial::primitive(4).unwrap();
        assert_eq!(
            Lfsr::fibonacci(poly, 0x10),
            Err(LfsrError::SeedTooWide {
                width: 4,
                seed: 0x10
            })
        );
    }

    #[test]
    fn fibonacci_primitive_is_maximal() {
        for degree in [2u32, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16] {
            let poly = Polynomial::primitive(degree).unwrap();
            let lfsr = Lfsr::fibonacci(poly, 1).unwrap();
            assert!(lfsr.is_maximal_length(), "fibonacci degree {degree}");
        }
    }

    #[test]
    fn non_primitive_has_short_period() {
        // x^4 + x^2 + 1 = (x^2+x+1)^2 is not primitive.
        let poly = Polynomial::from_exponents(4, &[2]).unwrap();
        let lfsr = Lfsr::fibonacci(poly, 1).unwrap();
        assert!(lfsr.period() < 15);
    }

    #[test]
    fn visits_all_nonzero_states() {
        let poly = Polynomial::primitive(5).unwrap();
        let mut lfsr = Lfsr::fibonacci(poly, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..31 {
            assert!(seen.insert(lfsr.state()), "state repeated early");
            lfsr.step();
        }
        assert_eq!(seen.len(), 31);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn reset_restores_seed() {
        let poly = Polynomial::primitive(8).unwrap();
        let mut lfsr = Lfsr::fibonacci(poly, 0xa5).unwrap();
        let first = lfsr.step_n(16);
        lfsr.reset();
        assert_eq!(lfsr.step_n(16), first);
    }

    #[test]
    fn step_n_length() {
        let poly = Polynomial::primitive(6).unwrap();
        let mut lfsr = Lfsr::fibonacci(poly, 3).unwrap();
        assert_eq!(lfsr.step_n(100).len(), 100);
    }

    #[test]
    fn output_is_pseudorandom_balanced() {
        // Over a full period a maximal LFSR outputs 2^(n-1) ones.
        let poly = Polynomial::primitive(10).unwrap();
        let mut lfsr = Lfsr::fibonacci(poly, 1).unwrap();
        let bits = lfsr.step_n(1023);
        assert_eq!(bits.count_ones(), 512);
    }

    #[test]
    fn iterator_yields_bits() {
        let poly = Polynomial::primitive(4).unwrap();
        let lfsr = Lfsr::fibonacci(poly, 1).unwrap();
        let taken: Vec<bool> = lfsr.take(5).collect();
        assert_eq!(taken.len(), 5);
    }

    #[test]
    fn step_word_matches_bit_serial_reference() {
        for degree in [3u32, 8, 16, 24] {
            let poly = Polynomial::primitive(degree).unwrap();
            let mut fast = Lfsr::fibonacci(poly, 0b101).unwrap();
            let mut slow = fast.clone();
            for cycles in [0usize, 1, 7, 13, 64] {
                let word = fast.step_word(cycles);
                let mut reference = 0u64;
                for t in 0..cycles {
                    if slow.step() {
                        reference |= 1 << t;
                    }
                }
                assert_eq!(word, reference, "degree {degree} cycles {cycles}");
                assert_eq!(fast.state(), slow.state(), "state after {cycles} cycles");
            }
        }
    }

    #[test]
    fn step_n_crosses_word_boundaries() {
        let poly = Polynomial::primitive(16).unwrap();
        let mut fast = Lfsr::fibonacci(poly.clone(), 0xace1).unwrap();
        let mut slow = Lfsr::fibonacci(poly, 0xace1).unwrap();
        let bits = fast.step_n(200);
        let reference: BitVec = (0..200).map(|_| slow.step()).collect();
        assert_eq!(bits, reference);
    }

    #[test]
    fn degree_one_toggles() {
        let poly = Polynomial::primitive(1).unwrap();
        let mut lfsr = Lfsr::fibonacci(poly, 1).unwrap();
        assert_eq!(lfsr.period(), 1);
        assert!(lfsr.step());
        assert!(lfsr.step());
    }
}
