//! Externally-tested core model (paper Fig. 2 (c)).

use casbus_p1500::TestableCore;
use casbus_tpg::BitVec;

use super::name_key;

/// A core tested by an external source and sink: stimuli flow in on `P`
/// wires every clock, responses flow back one clock later.
///
/// The response function is a registered XOR mix of the current inputs, the
/// previous inputs and a name-derived key — combinational-with-one-pipeline-
/// stage behaviour that exercises the full-duplex data path of the CAS
/// (stimuli towards the core and responses back on the paired wires).
///
/// # Examples
///
/// ```
/// use casbus_soc::models::ExternalCore;
/// use casbus_p1500::TestableCore;
/// use casbus_tpg::BitVec;
///
/// let mut core = ExternalCore::new("dma", 4);
/// let out = core.test_clock(&"1010".parse::<BitVec>().unwrap());
/// assert_eq!(out.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExternalCore {
    name: String,
    ports: usize,
    previous: BitVec,
    key: u64,
    stuck_output: Option<(usize, bool)>,
}

impl ExternalCore {
    /// Creates an externally-tested core with `ports` parallel wires.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(name: &str, ports: usize) -> Self {
        assert!(ports > 0, "an external-test core needs at least one port");
        Self {
            name: name.to_owned(),
            ports,
            previous: BitVec::zeros(ports),
            key: name_key(name),
            stuck_output: None,
        }
    }

    /// Forces output `port` permanently to `value` (a stuck-at defect).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn inject_stuck_output(&mut self, port: usize, value: bool) {
        assert!(port < self.ports, "port index out of range");
        self.stuck_output = Some((port, value));
    }

    /// The fault-free response to a stimulus stream, for golden computation.
    pub fn golden_responses(name: &str, ports: usize, stimuli: &[BitVec]) -> Vec<BitVec> {
        let mut clone = Self::new(name, ports);
        stimuli.iter().map(|s| clone.test_clock(s)).collect()
    }
}

impl TestableCore for ExternalCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        self.ports
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), self.ports, "stimulus width mismatch");
        outputs.clear();
        for i in 0..self.ports {
            let cur = inputs.get(i).expect("in range");
            let prev = self.previous.get((i + 1) % self.ports).expect("in range");
            let key_bit = self.key >> (i % 64) & 1 == 1;
            outputs.push(cur ^ prev ^ key_bit);
        }
        if let Some((port, value)) = self.stuck_output {
            outputs.set(port, value);
        }
        self.previous.copy_from(inputs);
    }

    fn capture_clock(&mut self) {
        // Purely pipelined: nothing extra to capture.
    }

    fn scan_depth(&self) -> usize {
        1
    }

    fn reset(&mut self) {
        self.previous = BitVec::zeros(self.ports);
    }

    /// Word-level response: the 1-clock pipeline makes the previous-input
    /// plane just the current plane shifted up one cycle with the stored
    /// `previous` bit filling cycle 0, so a whole 64-cycle batch is a
    /// handful of XORs per port. Stuck outputs keep the per-cycle path.
    fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        assert_eq!(inputs.len(), self.ports, "stimulus width mismatch");
        assert!(
            cycles <= 64,
            "test_clock_words supports at most 64 cycles, got {cycles}"
        );
        if cycles == 0 {
            return vec![0u64; self.ports];
        }
        if self.stuck_output.is_some() {
            let mut outs = vec![0u64; self.ports];
            let (mut wpi, mut wpo) = (BitVec::zeros(self.ports), BitVec::new());
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
            return outs;
        }
        let live = if cycles == 64 {
            u64::MAX
        } else {
            (1u64 << cycles) - 1
        };
        let mut outs = Vec::with_capacity(self.ports);
        for i in 0..self.ports {
            let neighbour = (i + 1) % self.ports;
            let prev_plane = (inputs[neighbour] << 1)
                | u64::from(self.previous.get(neighbour).expect("in range"));
            let key_plane = if self.key >> (i % 64) & 1 == 1 {
                live
            } else {
                0
            };
            outs.push((inputs[i] ^ prev_plane ^ key_plane) & live);
        }
        for (j, plane) in inputs.iter().enumerate() {
            self.previous.set(j, (plane >> (cycles - 1)) & 1 == 1);
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_response() {
        let stimuli: Vec<BitVec> = vec!["1010".parse().unwrap(), "0110".parse().unwrap()];
        let a = ExternalCore::golden_responses("dma", 4, &stimuli);
        let b = ExternalCore::golden_responses("dma", 4, &stimuli);
        assert_eq!(a, b);
    }

    #[test]
    fn response_depends_on_history() {
        let mut core = ExternalCore::new("dma", 2);
        let first = core.test_clock(&"11".parse().unwrap());
        let second = core.test_clock(&"11".parse().unwrap());
        // Same stimulus, different history after a 1-clock pipeline.
        let mut fresh = ExternalCore::new("dma", 2);
        assert_eq!(fresh.test_clock(&"11".parse().unwrap()), first);
        assert_ne!(first, second);
    }

    #[test]
    fn stuck_output_detected_against_golden() {
        let stimuli: Vec<BitVec> = (0..8u64).map(|v| BitVec::from_u64(v, 3)).collect();
        let golden = ExternalCore::golden_responses("io", 3, &stimuli);
        let mut faulty = ExternalCore::new("io", 3);
        faulty.inject_stuck_output(1, true);
        let observed: Vec<BitVec> = stimuli.iter().map(|s| faulty.test_clock(s)).collect();
        assert_ne!(golden, observed);
    }

    #[test]
    fn reset_clears_pipeline() {
        let mut core = ExternalCore::new("dma", 2);
        core.test_clock(&"11".parse().unwrap());
        core.reset();
        let mut fresh = ExternalCore::new("dma", 2);
        assert_eq!(
            core.test_clock(&"01".parse().unwrap()),
            fresh.test_clock(&"01".parse().unwrap())
        );
    }

    #[test]
    fn word_level_response_matches_bit_serial() {
        for fault in [false, true] {
            let mut fast = ExternalCore::new("dma", 3);
            let mut slow = fast.clone();
            if fault {
                fast.inject_stuck_output(2, true);
                slow.inject_stuck_output(2, true);
            }
            for cycles in [1usize, 19, 64] {
                let planes: Vec<u64> = (0..3)
                    .map(|j| 0xfeed_face_dead_beefu64.rotate_left(j * 9 + cycles as u32))
                    .collect();
                let fast_out = fast.test_clock_words(&planes, cycles);
                let mut slow_out = vec![0u64; 3];
                for t in 0..cycles {
                    let wpi: BitVec = planes.iter().map(|p| (p >> t) & 1 == 1).collect();
                    let wpo = slow.test_clock(&wpi);
                    for (j, out) in slow_out.iter_mut().enumerate() {
                        if wpo.get(j).unwrap() {
                            *out |= 1 << t;
                        }
                    }
                }
                assert_eq!(fast_out, slow_out, "fault {fault} cycles {cycles}");
                assert_eq!(fast.previous, slow.previous);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = ExternalCore::new("x", 0);
    }

    #[test]
    fn capture_is_noop() {
        let mut core = ExternalCore::new("dma", 2);
        core.test_clock(&"10".parse().unwrap());
        let snapshot = core.previous.clone();
        core.capture_clock();
        assert_eq!(core.previous, snapshot);
        assert_eq!(core.scan_depth(), 1);
    }
}
