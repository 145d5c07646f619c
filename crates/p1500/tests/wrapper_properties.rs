//! Property-based tests of the P1500 wrapper invariants.

use casbus_p1500::{
    BoundaryRegister, TestableCore, Wir, Wrapper, WrapperControl, WrapperInstruction,
};
use casbus_tpg::BitVec;
use proptest::prelude::*;

/// A minimal deterministic core for wrapper-level properties.
#[derive(Debug, Clone)]
struct EchoCore {
    chains: Vec<BitVec>,
}

impl EchoCore {
    fn new(ports: usize, depth: usize) -> Self {
        Self {
            chains: vec![BitVec::zeros(depth); ports],
        }
    }
}

impl TestableCore for EchoCore {
    fn name(&self) -> &str {
        "echo"
    }

    fn test_ports(&self) -> usize {
        self.chains.len()
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        outputs.clear();
        for (chain, bit) in self.chains.iter_mut().zip(inputs.iter()) {
            let depth = chain.len();
            outputs.push(chain.get(depth - 1).expect("non-empty"));
            let mut next = BitVec::with_capacity(depth);
            next.push(bit);
            for i in 0..depth - 1 {
                next.push(chain.get(i).expect("in range"));
            }
            *chain = next;
        }
    }

    fn capture_clock(&mut self) {}

    fn scan_depth(&self) -> usize {
        self.chains.first().map_or(0, BitVec::len)
    }

    fn reset(&mut self) {
        for chain in &mut self.chains {
            *chain = BitVec::zeros(chain.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The WIR activates exactly the last fully-shifted opcode, regardless
    /// of what was shifted before.
    #[test]
    fn wir_activates_last_opcode(noise in proptest::collection::vec(any::<bool>(), 0..20), pick in 0usize..5) {
        let target = WrapperInstruction::ALL[pick];
        let mut wir = Wir::new();
        for bit in noise {
            wir.shift(bit);
        }
        for bit in target.opcode_bits().iter() {
            wir.shift(bit);
        }
        wir.update();
        prop_assert_eq!(wir.instruction(), target);
    }

    /// Boundary register shifting is a pure delay line: after `len` shifts,
    /// the first `len` input bits come out, reversed capture order aside.
    #[test]
    fn wbr_is_a_delay_line(inputs in 1usize..6, outputs in 0usize..6, stream in proptest::collection::vec(any::<bool>(), 1..40)) {
        let mut wbr = BoundaryRegister::new(inputs, outputs);
        let depth = wbr.len();
        let mut seen = Vec::new();
        for &bit in &stream {
            seen.push(wbr.shift(bit));
        }
        for (t, &out) in seen.iter().enumerate() {
            let expected = if t < depth { false } else { stream[t - depth] };
            prop_assert_eq!(out, expected, "clock {}", t);
        }
    }

    /// INTEST scan through the wrapper returns every stimulus after the
    /// chain depth, untouched, for any chain geometry.
    #[test]
    fn intest_roundtrip(ports in 1usize..4, depth in 1usize..12, seed in any::<u64>()) {
        let mut wrapper = Wrapper::new(EchoCore::new(ports, depth), 2, 2);
        wrapper.apply_instruction(WrapperInstruction::IntestScan);
        let ctrl = WrapperControl::shift_data();
        let stimuli: Vec<BitVec> = (0..depth)
            .map(|t| (0..ports).map(|j| (seed >> ((t * ports + j) % 64)) & 1 == 1).collect())
            .collect();
        for stim in &stimuli {
            wrapper.clock_parallel(stim, &ctrl);
        }
        for stim in &stimuli {
            let out = wrapper.clock_parallel(&BitVec::zeros(ports), &ctrl);
            prop_assert_eq!(&out, stim);
        }
    }

    /// Bypass keeps the serial path exactly one flip-flop long.
    #[test]
    fn bypass_is_single_cycle(stream in proptest::collection::vec(any::<bool>(), 1..30)) {
        let mut wrapper = Wrapper::new(EchoCore::new(1, 4), 1, 1);
        wrapper.apply_instruction(WrapperInstruction::Bypass);
        let ctrl = WrapperControl::shift_data();
        let mut last = false;
        for &bit in &stream {
            let out = wrapper.clock_serial(bit, &ctrl);
            prop_assert_eq!(out, last);
            last = bit;
        }
    }

    /// Mode changes never corrupt the core state: loading a new WIR opcode
    /// leaves the chains exactly as they were.
    #[test]
    fn wir_load_preserves_core_state(stim in proptest::collection::vec(any::<bool>(), 1..10)) {
        let mut wrapper = Wrapper::new(EchoCore::new(1, 10), 1, 1);
        wrapper.apply_instruction(WrapperInstruction::IntestScan);
        for &bit in &stim {
            let mut v = BitVec::new();
            v.push(bit);
            wrapper.clock_parallel(&v, &WrapperControl::shift_data());
        }
        let before = wrapper.core().chains[0].clone();
        wrapper.apply_instruction(WrapperInstruction::Bypass);
        wrapper.apply_instruction(WrapperInstruction::IntestScan);
        prop_assert_eq!(&wrapper.core().chains[0], &before);
    }
}
