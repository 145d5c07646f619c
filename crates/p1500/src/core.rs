//! The interface a wrapped core exposes to its P1500 wrapper.

use casbus_tpg::BitVec;

/// Behavioural interface of an embedded core as seen from its test wrapper.
///
/// The CAS-BUS transports serial test data; what the data *means* depends on
/// the core's test method (paper Fig. 2):
///
/// * a scannable core exposes `P` scan chains, one per test port,
/// * a BISTed core exposes one port carrying start/seed bits in and
///   signature bits out,
/// * a memory or logic core under external test exposes ports matching its
///   source/sink arrangement.
///
/// Implementations live in `casbus-soc` (behavioural models) so that this
/// crate stays a pure wrapper library.
///
/// `Send` is a supertrait so that disjoint per-core test sessions can run
/// on worker threads; every model is plain owned data, so this costs
/// implementations nothing.
pub trait TestableCore: Send {
    /// The core's instance name.
    fn name(&self) -> &str;

    /// Number of parallel test ports (the `P` of the CAS that will serve
    /// this core). At least 1.
    fn test_ports(&self) -> usize;

    /// Advances one *test* clock: `inputs` carries one bit per test port
    /// into the core (scan-in, BIST control, …) and `outputs` receives one
    /// bit per port out (scan-out, signature bits, …).
    ///
    /// `outputs` is the caller's buffer: whatever length and bits it held
    /// before, it holds exactly [`test_ports`](TestableCore::test_ports)
    /// bits afterwards, and a caller that passes the same buffer every
    /// clock makes the clock allocation-free. This is the one per-clock
    /// method a model implements; [`test_clock`](TestableCore::test_clock)
    /// and the provided [`test_clock_words`](TestableCore::test_clock_words)
    /// are built on it.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `inputs.len() != self.test_ports()`.
    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec);

    /// [`test_clock_into`](TestableCore::test_clock_into) into a fresh
    /// vector.
    ///
    /// # Panics
    ///
    /// As [`test_clock_into`](TestableCore::test_clock_into).
    fn test_clock(&mut self, inputs: &BitVec) -> BitVec {
        let mut outputs = BitVec::new();
        self.test_clock_into(inputs, &mut outputs);
        outputs
    }

    /// Advances one *functional* clock while under test: captures the
    /// combinational response into the scan elements (scan capture cycle) or
    /// advances the BIST engine's functional phase.
    fn capture_clock(&mut self);

    /// Total number of test clocks needed to shift one full pattern through
    /// the longest internal chain (the per-pattern serial depth).
    fn scan_depth(&self) -> usize;

    /// Puts the core back into its power-on state.
    fn reset(&mut self);

    /// Advances up to 64 *test* clocks at once. `inputs` holds one plane
    /// per test port; bit `t` of plane `j` is the port-`j` input at cycle
    /// `t`. The returned planes carry the outputs in the same layout.
    ///
    /// The provided implementation simply loops over
    /// [`test_clock_into`](TestableCore::test_clock_into) with one reused
    /// output buffer, so every model stays bit-exact by construction;
    /// models with word-level internal state (e.g. scan chains stored as
    /// `BitVec`s) override this to shift whole words.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.test_ports()` or `cycles > 64`.
    fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.test_ports(),
            "one input plane per test port"
        );
        assert!(
            cycles <= 64,
            "test_clock_words supports at most 64 cycles, got {cycles}"
        );
        let mut outs = vec![0u64; inputs.len()];
        let mut wpi = BitVec::zeros(inputs.len());
        let mut wpo = BitVec::new();
        for t in 0..cycles {
            for (j, plane) in inputs.iter().enumerate() {
                wpi.set(j, (plane >> t) & 1 == 1);
            }
            self.test_clock_into(&wpi, &mut wpo);
            for (j, out) in outs.iter_mut().enumerate() {
                if wpo.get(j) == Some(true) {
                    *out |= 1 << t;
                }
            }
        }
        outs
    }
}

impl<T: TestableCore + ?Sized> TestableCore for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn test_ports(&self) -> usize {
        (**self).test_ports()
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        (**self).test_clock_into(inputs, outputs)
    }

    fn capture_clock(&mut self) {
        (**self).capture_clock()
    }

    fn scan_depth(&self) -> usize {
        (**self).scan_depth()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    // Explicit delegation so a boxed model's word-level override is used
    // instead of the provided bit-serial loop.
    fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        (**self).test_clock_words(inputs, cycles)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A minimal in-crate core model: `ports` independent shift registers of
    /// equal `depth`, with capture complementing every bit (so that capture
    /// effects are observable).
    #[derive(Debug, Clone)]
    pub struct ShiftCore {
        name: String,
        chains: Vec<BitVec>,
    }

    impl ShiftCore {
        pub fn new(name: &str, ports: usize, depth: usize) -> Self {
            Self {
                name: name.to_owned(),
                chains: vec![BitVec::zeros(depth); ports],
            }
        }

        pub fn chain(&self, idx: usize) -> &BitVec {
            &self.chains[idx]
        }
    }

    impl TestableCore for ShiftCore {
        fn name(&self) -> &str {
            &self.name
        }

        fn test_ports(&self) -> usize {
            self.chains.len()
        }

        fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
            assert_eq!(inputs.len(), self.chains.len());
            outputs.clear();
            for (chain, bit) in self.chains.iter_mut().zip(inputs.iter()) {
                outputs.push(chain.scan_shift_word(u64::from(bit), 1) == 1);
            }
        }

        fn capture_clock(&mut self) {
            for chain in &mut self.chains {
                for i in 0..chain.len() {
                    chain.toggle(i);
                }
            }
        }

        fn scan_depth(&self) -> usize {
            self.chains.iter().map(BitVec::len).max().unwrap_or(0)
        }

        fn reset(&mut self) {
            for chain in &mut self.chains {
                *chain = BitVec::zeros(chain.len());
            }
        }
    }

    #[test]
    fn shift_core_roundtrip() {
        let mut core = ShiftCore::new("u0", 2, 3);
        assert_eq!(core.test_ports(), 2);
        assert_eq!(core.scan_depth(), 3);
        // Shift "1,0,1" into chain 0 and "0,1,1" into chain 1.
        let ins = ["10", "01", "11"];
        for s in ins {
            core.test_clock(&s.parse().unwrap());
        }
        assert_eq!(
            core.chain(0).to_string(),
            "101".chars().rev().collect::<String>()
        );
        core.reset();
        assert_eq!(core.chain(0).count_ones(), 0);
    }

    #[test]
    fn capture_complements() {
        let mut core = ShiftCore::new("u0", 1, 2);
        core.capture_clock();
        assert_eq!(core.chain(0).to_string(), "11");
    }

    #[test]
    fn default_test_clock_words_matches_serial_loop() {
        let mut word_core = ShiftCore::new("u0", 2, 5);
        let mut bit_core = ShiftCore::new("u0", 2, 5);
        let planes = [0x5a5a_f0f0_1234_8001u64, 0x0ff0_55aa_9999_c3c3];
        let out_planes = word_core.test_clock_words(&planes, 64);
        for t in 0..64usize {
            let mut wpi = BitVec::new();
            for plane in &planes {
                wpi.push((plane >> t) & 1 == 1);
            }
            let wpo = bit_core.test_clock(&wpi);
            for (j, plane) in out_planes.iter().enumerate() {
                assert_eq!((plane >> t) & 1 == 1, wpo.get(j).unwrap(), "cycle {t}");
            }
        }
        assert_eq!(word_core.chain(0), bit_core.chain(0));
        assert_eq!(word_core.chain(1), bit_core.chain(1));
    }

    #[test]
    fn boxed_core_delegates() {
        let mut boxed: Box<dyn TestableCore> = Box::new(ShiftCore::new("u1", 1, 1));
        assert_eq!(boxed.name(), "u1");
        assert_eq!(boxed.test_ports(), 1);
        let out = boxed.test_clock(&"1".parse().unwrap());
        assert_eq!(out.len(), 1);
        boxed.capture_clock();
        boxed.reset();
        assert_eq!(boxed.scan_depth(), 1);
    }
}
