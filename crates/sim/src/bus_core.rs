//! The behavioural model behind the wrapped system bus (paper Fig. 1).

use casbus_p1500::TestableCore;
use casbus_tpg::BitVec;

/// The system bus as a testable entity: when the functional bus is wrapped
/// by a P1500 wrapper it gets its own CAS and is tested like an interconnect
/// — serially, one wire. The model is a 1-deep pipeline echoing its input
/// (a wire under test *is* a delay-free conductor; the register is the
/// wrapper-side retiming stage).
///
/// A bridging/stuck defect can be injected to verify the session catches it.
#[derive(Debug, Clone)]
pub struct SystemBusCore {
    name: String,
    stage: bool,
    stuck: Option<bool>,
}

impl SystemBusCore {
    /// Creates a healthy bus model.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            stage: false,
            stuck: None,
        }
    }

    /// Injects a stuck-at defect on the bus conductor.
    pub fn inject_stuck(&mut self, value: bool) {
        self.stuck = Some(value);
    }
}

impl TestableCore for SystemBusCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        1
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), 1, "the bus model has one serial port");
        outputs.clear();
        outputs.push(self.stage);
        self.stage = match self.stuck {
            Some(v) => v,
            None => inputs.get(0).expect("one bit"),
        };
    }

    fn capture_clock(&mut self) {}

    fn scan_depth(&self) -> usize {
        1
    }

    fn reset(&mut self) {
        self.stage = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 1 000 steps of a seeded mix on a bus model — test clocks with a
    /// random bit, interleaved with captures, resets and stuck-at
    /// injections — each clocking into a buffer of the wrong length with
    /// every bit set. Asserts every output is one bit wide and returns a
    /// 64-bit fold of them.
    fn fold_stale_clocks(seed: u64) -> u64 {
        let mut bus = SystemBusCore::new("sysbus");
        let mut state = seed;
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for step in 0..1_000 {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let roll = state ^ (state >> 29);
            match roll % 64 {
                0..=15 => bus.capture_clock(),
                16 => bus.reset(),
                17 => bus.inject_stuck(roll >> 63 == 1),
                _ => {
                    let mut out = BitVec::ones(2 + (roll >> 8) as usize % 70);
                    bus.test_clock_into(&BitVec::repeat(roll >> 7 & 1 == 1, 1), &mut out);
                    assert_eq!(out.len(), 1, "step {step}");
                    fold = (fold ^ out.to_u64()).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        fold
    }

    proptest! {
        #[test]
        fn clocks_exactly_one_bit_into_a_stale_buffer(seed in any::<u64>()) {
            fold_stale_clocks(seed);
        }
    }

    #[test]
    fn outputs_fold_to_their_recorded_value() {
        // Recorded with the allocating `test_clock` before the models
        // clocked into caller buffers.
        assert_eq!(fold_stale_clocks(3), 14_882_728_839_544_521_151);
    }

    #[test]
    fn echoes_with_one_cycle_delay() {
        let mut bus = SystemBusCore::new("sysbus");
        let stream: BitVec = "10110".parse().unwrap();
        let mut out = BitVec::new();
        for bit in stream.iter() {
            let mut v = BitVec::new();
            v.push(bit);
            out.push(bus.test_clock(&v).get(0).unwrap());
        }
        // Output is the input delayed by one stage.
        assert_eq!(out.to_string(), "01011");
    }

    #[test]
    fn stuck_defect_corrupts_echo() {
        let mut good = SystemBusCore::new("b");
        let mut bad = SystemBusCore::new("b");
        bad.inject_stuck(false);
        let mut diff = false;
        for i in 0..8 {
            let mut v = BitVec::new();
            v.push(i % 2 == 0);
            diff |= good.test_clock(&v) != bad.test_clock(&v);
        }
        assert!(diff);
    }

    #[test]
    fn reset_clears_stage() {
        let mut bus = SystemBusCore::new("b");
        let mut v = BitVec::new();
        v.push(true);
        bus.test_clock(&v);
        bus.reset();
        let out = bus.test_clock(&"0".parse().unwrap());
        assert_eq!(out.get(0), Some(false));
    }
}
