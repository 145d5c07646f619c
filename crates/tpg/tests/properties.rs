//! Property-based tests of the TPG substrate invariants.

use casbus_tpg::{golden_signature, BitVec, Lfsr, Misr, Polynomial};
use proptest::prelude::*;

fn bits(len: std::ops::Range<usize>) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Push/get/pop agree with a Vec<bool> reference model.
    #[test]
    fn bitvec_matches_reference_model(ops in proptest::collection::vec(any::<Option<bool>>(), 0..200)) {
        let mut sut = BitVec::new();
        let mut model: Vec<bool> = Vec::new();
        for op in ops {
            match op {
                Some(bit) => {
                    sut.push(bit);
                    model.push(bit);
                }
                None => {
                    prop_assert_eq!(sut.pop(), model.pop());
                }
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        for (i, &bit) in model.iter().enumerate() {
            prop_assert_eq!(sut.get(i), Some(bit));
        }
        prop_assert_eq!(sut.count_ones(), model.iter().filter(|&&b| b).count());
    }

    /// Display → parse is the identity.
    #[test]
    fn bitvec_display_parse_roundtrip(v in bits(0..128)) {
        let parsed: BitVec = v.to_string().parse().expect("only 0/1 characters");
        prop_assert_eq!(parsed, v);
    }

    /// Double reversal is the identity; slicing is consistent with get.
    #[test]
    fn bitvec_reverse_and_slice(v in bits(1..100), start_frac in 0.0f64..1.0, len_frac in 0.0f64..1.0) {
        prop_assert_eq!(v.reversed().reversed(), v.clone());
        let start = (start_frac * v.len() as f64) as usize;
        let len = (len_frac * (v.len() - start) as f64) as usize;
        let slice = v.slice(start, len);
        for i in 0..len {
            prop_assert_eq!(slice.get(i), v.get(start + i));
        }
    }

    /// XOR is an involution and hamming distance is symmetric.
    #[test]
    fn bitvec_xor_involution(a in bits(1..80), seed in any::<u64>()) {
        let b: BitVec = (0..a.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        prop_assert_eq!(a.xor(&b).xor(&b), a.clone());
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
    }

    /// An LFSR over a primitive polynomial visits 2^d − 1 states from any
    /// non-zero seed.
    #[test]
    fn lfsr_maximal_from_any_seed(degree in 2u32..11, seed in 1u64..2048) {
        let poly = Polynomial::primitive(degree).expect("tabulated");
        let seed = seed & ((1 << degree) - 1);
        prop_assume!(seed != 0);
        let lfsr = Lfsr::fibonacci(poly, seed).expect("valid seed");
        prop_assert_eq!(lfsr.period(), (1u64 << degree) - 1);
    }

    /// The MISR is linear: absorbing (a XOR b) equals the XOR of the states
    /// reached absorbing a and b separately.
    #[test]
    fn misr_is_linear(
        words_a in proptest::collection::vec(any::<u8>(), 1..40),
        words_b_seed in any::<u64>(),
    ) {
        let poly = Polynomial::primitive(8).expect("tabulated");
        let absorb = |words: &[u8]| {
            let mut m = Misr::new(poly.clone(), 8).expect("width ok");
            for &w in words {
                m.absorb(&BitVec::from_u64(u64::from(w), 8));
            }
            m.signature().to_u64()
        };
        let words_b: Vec<u8> = words_a
            .iter()
            .enumerate()
            .map(|(i, _)| (words_b_seed >> (i % 57)) as u8)
            .collect();
        let xored: Vec<u8> = words_a.iter().zip(&words_b).map(|(a, b)| a ^ b).collect();
        prop_assert_eq!(absorb(&xored), absorb(&words_a) ^ absorb(&words_b));
    }

    /// Any single-bit corruption in a response stream changes the golden
    /// signature (error polynomials shorter than the period never alias).
    #[test]
    fn single_bit_corruption_never_aliases(
        len in 1usize..60,
        flip_word_frac in 0.0f64..1.0,
        flip_bit in 0usize..12,
        seed in any::<u64>(),
    ) {
        let poly = Polynomial::primitive(12).expect("tabulated");
        let words: Vec<BitVec> = (0..len)
            .map(|i| BitVec::from_u64(seed.rotate_left(i as u32 * 7), 12))
            .collect();
        let mut corrupted = words.clone();
        let at = (flip_word_frac * len as f64) as usize % len;
        corrupted[at].toggle(flip_bit % 12);
        prop_assert_ne!(
            golden_signature(&poly, &words).expect("fits"),
            golden_signature(&poly, &corrupted).expect("fits")
        );
    }
}
