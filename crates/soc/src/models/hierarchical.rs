//! Hierarchical core model (paper Fig. 2 (d)): a core embedding further
//! cores behind an internal test bus.

use casbus_p1500::TestableCore;
use casbus_tpg::BitVec;

/// A hierarchical core: `sub_cores` chained along an internal test bus of
/// `width` wires.
///
/// The paper considers that "internal cores can be CASed, and in this
/// configuration P is equal to the width of the internal test bus". This
/// behavioural model implements the internal bus in its all-cores-selected
/// configuration: each sub-core taps the first `p_i` wires (shifting its
/// chains by one bit per clock), the remaining wires pass straight through,
/// and the transformed bundle continues to the next sub-core. The full
/// nested-CAS arrangement — internal CASes that can also bypass — is
/// exercised in the `casbus` crate's TAM tests using this same model as the
/// leaf.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::{HierarchicalCore, ScanCore};
/// use casbus_p1500::TestableCore;
///
/// let sub: Vec<Box<dyn TestableCore>> = vec![
///     Box::new(ScanCore::new("leaf0", vec![4])),
///     Box::new(ScanCore::new("leaf1", vec![6, 3])),
/// ];
/// let core = HierarchicalCore::new("subsystem", 2, sub);
/// assert_eq!(core.test_ports(), 2);
/// assert_eq!(core.scan_depth(), 4 + 6);
/// ```
pub struct HierarchicalCore {
    name: String,
    width: usize,
    sub_cores: Vec<Box<dyn TestableCore>>,
    /// Per-clock scratch: the wires a sub-core taps and what it drives
    /// back, reused by every clock.
    tapped: BitVec,
    produced: BitVec,
}

impl std::fmt::Debug for HierarchicalCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let subs: Vec<&str> = self.sub_cores.iter().map(|s| s.name()).collect();
        f.debug_struct("HierarchicalCore")
            .field("name", &self.name)
            .field("width", &self.width)
            .field("sub_cores", &subs)
            .finish()
    }
}

impl HierarchicalCore {
    /// Creates a hierarchical core.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, no sub-core is given, or a sub-core needs
    /// more ports than the internal bus has wires.
    pub fn new(name: &str, width: usize, sub_cores: Vec<Box<dyn TestableCore>>) -> Self {
        assert!(width > 0, "internal bus width must be non-zero");
        assert!(
            !sub_cores.is_empty(),
            "a hierarchical core embeds at least one sub-core"
        );
        for sub in &sub_cores {
            assert!(
                sub.test_ports() <= width,
                "sub-core {} needs {} wires, internal bus has {}",
                sub.name(),
                sub.test_ports(),
                width
            );
        }
        Self {
            name: name.to_owned(),
            width,
            sub_cores,
            tapped: BitVec::new(),
            produced: BitVec::new(),
        }
    }

    /// The embedded sub-cores.
    pub fn sub_cores(&self) -> &[Box<dyn TestableCore>] {
        &self.sub_cores
    }

    /// Mutable access to one sub-core (e.g. for fault injection).
    pub fn sub_core_mut(&mut self, idx: usize) -> &mut Box<dyn TestableCore> {
        &mut self.sub_cores[idx]
    }
}

impl TestableCore for HierarchicalCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        self.width
    }

    /// The internal bus travels in `outputs`: each sub-core replaces the
    /// wires it taps with what it drives back, and the other wires pass.
    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), self.width, "internal bus width mismatch");
        outputs.copy_from(inputs);
        for sub in &mut self.sub_cores {
            let ports = sub.test_ports();
            self.tapped.copy_from(outputs);
            self.tapped.resize(ports, false);
            sub.test_clock_into(&self.tapped, &mut self.produced);
            for wire in 0..ports {
                outputs.set(wire, self.produced.get(wire).expect("sub-core port"));
            }
        }
    }

    fn capture_clock(&mut self) {
        for sub in &mut self.sub_cores {
            sub.capture_clock();
        }
    }

    fn scan_depth(&self) -> usize {
        // The wires thread the sub-cores in series, so a bit must traverse
        // every tapped chain: depths add up.
        self.sub_cores.iter().map(|s| s.scan_depth()).sum()
    }

    fn reset(&mut self) {
        for sub in &mut self.sub_cores {
            sub.reset();
        }
    }

    /// Word-level pass: there is no cross-cycle feedback between sub-cores
    /// — each sub-core's cycle-`t` input is the cycle-`t` output of the
    /// previous one — so the whole batch threads the sub-cores once, each
    /// transforming its tapped planes with its own word-level path.
    fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        assert_eq!(inputs.len(), self.width, "internal bus width mismatch");
        assert!(
            cycles <= 64,
            "test_clock_words supports at most 64 cycles, got {cycles}"
        );
        let mut planes = inputs.to_vec();
        for sub in &mut self.sub_cores {
            let ports = sub.test_ports();
            let produced = sub.test_clock_words(&planes[..ports], cycles);
            planes[..ports].copy_from_slice(&produced);
        }
        planes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ScanCore;

    fn two_level() -> HierarchicalCore {
        let subs: Vec<Box<dyn TestableCore>> = vec![
            Box::new(ScanCore::new("leaf0", vec![3])),
            Box::new(ScanCore::new("leaf1", vec![2, 2])),
        ];
        HierarchicalCore::new("subsystem", 2, subs)
    }

    #[test]
    fn ports_equal_internal_width() {
        assert_eq!(two_level().test_ports(), 2);
    }

    #[test]
    fn scan_depth_adds_up() {
        assert_eq!(two_level().scan_depth(), 3 + 2);
    }

    #[test]
    fn bits_traverse_all_sub_chains_in_series() {
        let mut core = two_level();
        // Wire 0 threads leaf0's 3-deep chain then leaf1's first 2-deep
        // chain: a bit injected now appears after 5 clocks.
        let mut outputs = Vec::new();
        let mut one = BitVec::zeros(2);
        one.set(0, true);
        outputs.push(core.test_clock(&one).get(0).unwrap());
        for _ in 0..6 {
            outputs.push(core.test_clock(&BitVec::zeros(2)).get(0).unwrap());
        }
        assert!(outputs[5], "bit emerges after total chain depth");
        assert!(outputs[..5].iter().all(|&b| !b));
    }

    #[test]
    fn wire_beyond_subcore_ports_passes_through() {
        // leaf0 uses only wire 0; wire 1 passes leaf0 untouched but is
        // tapped by leaf1's second chain.
        let mut core = two_level();
        let mut one = BitVec::zeros(2);
        one.set(1, true);
        let mut outputs = Vec::new();
        outputs.push(core.test_clock(&one).get(1).unwrap());
        for _ in 0..3 {
            outputs.push(core.test_clock(&BitVec::zeros(2)).get(1).unwrap());
        }
        // Wire 1 only sees leaf1's 2-deep chain.
        assert_eq!(outputs, vec![false, false, true, false]);
    }

    #[test]
    fn capture_propagates_to_sub_cores() {
        let run = |capture: bool| {
            let mut core = two_level();
            for _ in 0..5 {
                core.test_clock(&"11".parse().unwrap());
            }
            if capture {
                core.capture_clock();
            }
            let mut out = Vec::new();
            for _ in 0..5 {
                out.push(core.test_clock(&BitVec::zeros(2)).to_string());
            }
            out
        };
        assert_ne!(run(true), run(false));
    }

    #[test]
    fn reset_clears_everything() {
        let mut core = two_level();
        for _ in 0..5 {
            core.test_clock(&"11".parse().unwrap());
        }
        core.reset();
        let mut all_zero = true;
        for _ in 0..5 {
            all_zero &= core.test_clock(&BitVec::zeros(2)).count_ones() == 0;
        }
        assert!(all_zero);
    }

    #[test]
    fn word_level_pass_matches_bit_serial() {
        let mut fast = two_level();
        let mut slow = two_level();
        for cycles in [1usize, 11, 64] {
            let planes: Vec<u64> = (0..2)
                .map(|j| 0xc0ff_ee00_dead_10ccu64.rotate_left(j * 21 + cycles as u32))
                .collect();
            let fast_out = fast.test_clock_words(&planes, cycles);
            let mut slow_out = vec![0u64; 2];
            for t in 0..cycles {
                let wpi: BitVec = planes.iter().map(|p| (p >> t) & 1 == 1).collect();
                let wpo = slow.test_clock(&wpi);
                for (j, out) in slow_out.iter_mut().enumerate() {
                    if wpo.get(j).unwrap() {
                        *out |= 1 << t;
                    }
                }
            }
            assert_eq!(fast_out, slow_out, "cycles {cycles}");
        }
    }

    #[test]
    #[should_panic(expected = "needs 3 wires")]
    fn too_narrow_bus_rejected() {
        let subs: Vec<Box<dyn TestableCore>> = vec![Box::new(ScanCore::new("wide", vec![1, 1, 1]))];
        let _ = HierarchicalCore::new("h", 2, subs);
    }

    #[test]
    fn three_level_nesting() {
        let leaf: Vec<Box<dyn TestableCore>> = vec![Box::new(ScanCore::new("l", vec![2]))];
        let mid = HierarchicalCore::new("mid", 1, leaf);
        let top = HierarchicalCore::new("top", 1, vec![Box::new(mid)]);
        assert_eq!(top.scan_depth(), 2);
        assert_eq!(top.test_ports(), 1);
    }
}
