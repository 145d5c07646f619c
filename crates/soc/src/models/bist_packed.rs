//! Lane-packed twin of [`BistCore`](super::BistCore): 64 devices per word.
//!
//! Like the packed scan model, this bit-slices up to 64 independent dies
//! along the lane axis of `u64` words. A BISTed core is even more packable
//! than a scan core: the LFSR pattern sequence and the circuit-under-test
//! transform are *lane-invariant* (every die runs the identical self-test),
//! so the model keeps exactly one scalar LFSR and computes each pattern's
//! healthy response once. Only two things carry a lane axis:
//!
//! * the MISR — a [`LaneMisr`] whose stage words compress each lane's
//!   (possibly corrupted) response stream independently, and
//! * the serial access register — one word per bit, shifted by
//!   [`test_clock_lanes`](PackedBistLanes::test_clock_lanes).
//!
//! A per-device defect is the scalar model's response-bit flip from pattern
//! `after` on, applied to that lane's bit of one response word — a single
//! XOR into the flipped stage. Lane `l` therefore evolves bit-identically
//! to a standalone [`BistCore`](super::BistCore) carrying lane `l`'s fault,
//! pinned by the differential tests below.

use casbus_tpg::lanes::{broadcast, LaneMisr, LANES};
use casbus_tpg::{Lfsr, Polynomial};

use super::name_key;

/// Up to 64 lane-packed BIST cores sharing one engine geometry.
///
/// Construction puts every lane in the scalar model's power-on state
/// (zeroed MISR and access register, LFSR seeded from the core name).
/// Defects are injected per lane with
/// [`inject_fault_after`](Self::inject_fault_after); lanes without a defect
/// behave as healthy cores.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::PackedBistLanes;
///
/// let mut packed = PackedBistLanes::new("ram", 8);
/// packed.inject_fault_after(3, 25); // lane 3: responses corrupt from pattern 25
/// for _ in 0..100 {
///     packed.capture_clock_lanes();
/// }
/// assert_ne!(packed.lane_signature(3), packed.lane_signature(0));
/// ```
#[derive(Debug, Clone)]
pub struct PackedBistLanes {
    width: u32,
    /// One scalar generator — the pattern sequence is identical in every
    /// lane, so no lane axis is needed before the fault is applied.
    lfsr: Lfsr,
    misr: LaneMisr,
    /// Serial access register as a ring: bit `i` is the lane word at
    /// `(head + i) % width`, reloaded from the MISR after every pattern.
    access: Vec<u64>,
    /// Ring index of the access register's bit 0.
    head: usize,
    key: u64,
    patterns_run: usize,
    /// `fault_after[l]` — lane `l`'s response corruption onset, if any.
    fault_after: [Option<usize>; LANES],
    /// Scratch response words, one per engine bit (avoids a per-capture
    /// allocation on the packed fleet hot path).
    response: Vec<u64>,
}

impl PackedBistLanes {
    /// Creates a packed BIST core whose engine is `width` bits wide, every
    /// lane healthy and in the power-on state. Each
    /// [`capture_clock_lanes`](Self::capture_clock_lanes) runs one pattern.
    ///
    /// # Panics
    ///
    /// Panics if no primitive polynomial of `width` is tabulated — the same
    /// contract (and message) as the scalar model.
    #[must_use]
    pub fn new(name: &str, width: u32) -> Self {
        let poly =
            Polynomial::primitive(width).unwrap_or_else(|e| panic!("BIST width {width}: {e}"));
        let key = name_key(name);
        let seed = (key | 1)
            & if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
        let lfsr = Lfsr::fibonacci(poly.clone(), seed.max(1)).expect("non-zero seed");
        let misr = LaneMisr::new(&poly);
        Self {
            width,
            lfsr,
            misr,
            access: vec![0; width as usize],
            head: 0,
            key,
            patterns_run: 0,
            fault_after: [None; LANES],
            response: vec![0; width as usize],
        }
    }

    /// Injects a defect in lane `lane` only: from pattern index `after` on,
    /// that lane's CUT response has one bit flipped. Re-injecting the same
    /// lane overwrites the onset (last write wins, like the scalar model's
    /// single fault slot).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    pub fn inject_fault_after(&mut self, lane: usize, after: usize) {
        assert!(lane < LANES, "lane index out of range");
        self.fault_after[lane] = Some(after);
    }

    /// Engine width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Patterns run since the last reset.
    #[must_use]
    pub fn patterns_run(&self) -> usize {
        self.patterns_run
    }

    /// Lane `lane`'s current signature as a scalar value, bit `i` holding
    /// MISR stage `i` — equal to the scalar twin's
    /// `read_signature().to_u64()`.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn lane_signature(&self, lane: usize) -> u64 {
        self.misr.lane_state(lane)
    }

    /// Lane word currently held by bit `position` of the serial access
    /// register (for white-box tests).
    #[must_use]
    pub fn access_word(&self, position: usize) -> u64 {
        self.access[(self.head + position) % self.access.len()]
    }

    /// One shift clock for all lanes: bit `l` of `inputs[0]` enters lane
    /// `l`'s access register at the seed/control end while the oldest
    /// signature bit leaves; `outs[0]` receives every lane's serial output
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != 1` or `outs.len() != 1` — BIST cores
    /// expose a single test port.
    pub fn test_clock_lanes(&mut self, inputs: &[u64], outs: &mut [u64]) {
        assert_eq!(inputs.len(), 1, "BIST cores expose a single test port");
        assert_eq!(outs.len(), 1, "BIST cores expose a single test port");
        // Bit 0 leaves; its slot becomes the last bit and takes the input.
        outs[0] = self.access[self.head];
        self.access[self.head] = inputs[0];
        self.head = (self.head + 1) % self.access.len();
    }

    /// One capture clock for all lanes: runs one BIST pattern internally
    /// (LFSR → CUT → per-lane fault flip → lane MISR) and reloads the
    /// access register from the MISR, exactly like the scalar model.
    pub fn capture_clock_lanes(&mut self) {
        let pattern = self.lfsr.step_n(self.width as usize).to_u64();
        let healthy = self.cut(pattern);
        for (bit, word) in self.response.iter_mut().enumerate() {
            *word = broadcast((healthy >> bit) & 1 == 1);
        }
        let flipped_bit = (self.patterns_run as u32 % self.width) as usize;
        let mut flips = 0u64;
        for (lane, after) in self.fault_after.iter().enumerate() {
            if after.is_some_and(|after| self.patterns_run >= after) {
                flips |= 1 << lane;
            }
        }
        self.response[flipped_bit] ^= flips;
        self.misr.absorb_lanes(&self.response);
        self.access.copy_from_slice(self.misr.state_words());
        self.head = 0;
        self.patterns_run += 1;
    }

    /// Returns every lane to the power-on state (defects stay armed) — the
    /// packed twin of the scalar model's `reset`.
    pub fn reset_lanes(&mut self) {
        let poly = Polynomial::primitive(self.width).expect("validated at construction");
        let seed = (self.key | 1)
            & if self.width == 64 {
                u64::MAX
            } else {
                (1 << self.width) - 1
            };
        self.lfsr = Lfsr::fibonacci(poly, seed.max(1)).expect("non-zero seed");
        self.misr.reset_lanes();
        self.access.fill(0);
        self.head = 0;
        self.patterns_run = 0;
    }

    /// The deterministic circuit-under-test: XOR-mix with a rotated copy
    /// and the name key — byte-for-byte the scalar model's transform.
    fn cut(&self, pattern: u64) -> u64 {
        let rot = pattern.rotate_left(3) ^ pattern.rotate_right(5);
        let mixed = pattern ^ rot ^ self.key;
        if self.width == 64 {
            mixed
        } else {
            mixed & ((1 << self.width) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::BistCore;
    use super::*;
    use casbus_p1500::TestableCore;
    use casbus_tpg::BitVec;

    /// A cheap deterministic word mixer for stimuli.
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x853c_49e6_748f_ea9b;
        x ^= x >> 29;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    /// Drives a packed core and 64 scalar twins through the same mixed
    /// capture/shift/reset sequence and asserts every lane stays
    /// bit-identical to its scalar twin, faults included.
    #[test]
    fn every_lane_matches_its_scalar_twin() {
        let (width, patterns) = (16u32, 40usize);
        let mut packed = PackedBistLanes::new("ram", width);
        let mut scalars: Vec<BistCore> = (0..64)
            .map(|_| BistCore::new("ram", width, patterns))
            .collect();

        // Distinct onsets on some lanes, including an immediate fault, a
        // never-reached onset, and a same-lane re-injection.
        let faults: [(usize, usize); 5] = [(0, 0), (7, 13), (7, 5), (31, 39), (63, 1000)];
        for &(lane, after) in &faults {
            packed.inject_fault_after(lane, after);
            scalars[lane].inject_fault_after(after);
        }

        let mut stamp = 0u64;
        for round in 0..3 {
            for pattern in 0..patterns {
                packed.capture_clock_lanes();
                scalars.iter_mut().for_each(TestableCore::capture_clock);
                for (lane, scalar) in scalars.iter().enumerate() {
                    assert_eq!(
                        packed.lane_signature(lane),
                        scalar.read_signature().to_u64(),
                        "round {round} pattern {pattern} lane {lane}"
                    );
                }
                // Interleave a few shift clocks with lane-distinct inputs.
                if pattern % 7 == 6 {
                    for _ in 0..3 {
                        stamp += 1;
                        let input = mix(stamp);
                        let mut packed_out = [0u64];
                        packed.test_clock_lanes(&[input], &mut packed_out);
                        for (lane, scalar) in scalars.iter_mut().enumerate() {
                            let wpi = BitVec::from_u64((input >> lane) & 1, 1);
                            let wpo = scalar.test_clock(&wpi);
                            assert_eq!(
                                (packed_out[0] >> lane) & 1 == 1,
                                wpo.get(0).unwrap(),
                                "round {round} pattern {pattern} lane {lane} shift out"
                            );
                        }
                    }
                }
            }
            // The round ends on a capture (39 % 7 != 6), so both models'
            // access registers hold the freshly reloaded signature.
            for (lane, scalar) in scalars.iter().enumerate() {
                for position in 0..width as usize {
                    assert_eq!(
                        (packed.access_word(position) >> lane) & 1 == 1,
                        scalar.read_signature().get(position).unwrap(),
                        "state round {round} lane {lane} access bit {position}"
                    );
                }
                assert_eq!(packed.patterns_run(), scalar.patterns_run());
            }
            packed.reset_lanes();
            scalars
                .iter_mut()
                .for_each(casbus_p1500::TestableCore::reset);
        }
    }

    #[test]
    fn healthy_lanes_share_the_scalar_golden_signature() {
        let core = BistCore::new("dsp", 12, 60);
        let golden = core.golden_signature().to_u64();
        let mut packed = PackedBistLanes::new("dsp", 12);
        packed.inject_fault_after(5, 0);
        for _ in 0..60 {
            packed.capture_clock_lanes();
        }
        for lane in [0usize, 1, 4, 6, 63] {
            assert_eq!(packed.lane_signature(lane), golden, "lane {lane}");
        }
        assert_ne!(packed.lane_signature(5), golden, "faulty lane must differ");
    }

    #[test]
    fn reinjection_overwrites_the_onset() {
        let mut packed = PackedBistLanes::new("x", 8);
        packed.inject_fault_after(2, 0);
        packed.inject_fault_after(2, 100); // overwrites: never fires in 20 patterns
        let mut scalar = BistCore::new("x", 8, 20);
        for _ in 0..20 {
            packed.capture_clock_lanes();
            scalar.capture_clock();
        }
        assert_eq!(packed.lane_signature(2), scalar.read_signature().to_u64());
    }

    #[test]
    #[should_panic(expected = "single test port")]
    fn single_port_enforced() {
        let mut packed = PackedBistLanes::new("x", 8);
        packed.test_clock_lanes(&[0, 0], &mut [0]);
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn lane_out_of_range_rejected() {
        let mut packed = PackedBistLanes::new("x", 8);
        packed.inject_fault_after(64, 0);
    }

    #[test]
    #[should_panic(expected = "BIST width 40")]
    fn unsupported_width_panics() {
        let _ = PackedBistLanes::new("x", 40);
    }
}
