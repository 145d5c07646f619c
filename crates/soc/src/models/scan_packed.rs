//! Lane-packed twin of [`ScanCore`](super::ScanCore): 64 devices per word.
//!
//! The fleet's packed device-parallel engine simulates up to 64 independent
//! dies at once. All dies run the identical compiled test program and
//! differ only by at most one stuck-at defect, so their scan cores can be
//! bit-sliced: every flip-flop of every chain is stored as one `u64` whose
//! bit `l` is lane `l`'s value, and one shift or capture clock advances all
//! lanes with word-wide operations. A per-device stuck-at defect becomes a
//! per-lane *force word* `(mask, value)` at the defective flop, re-asserted
//! after every clock — the 2-valued device-axis analogue of the 3-plane
//! PPSFP encoding in the fault simulator.
//!
//! The transform is the exact word-wise lift of the scalar model: lane `l`
//! of a [`PackedScanLanes`] evolves bit-identically to a standalone
//! [`ScanCore`](super::ScanCore) carrying lane `l`'s fault (pinned by the
//! differential tests below), which is what lets the packed fleet path
//! reproduce scalar device reports bit for bit.

use casbus_tpg::lanes::broadcast;

use super::name_key;

/// Up to 64 lane-packed scan cores sharing one set of chain geometries.
///
/// Construction clears every flop in every lane. Stuck-at defects are
/// injected per lane with [`inject_stuck_at`](Self::inject_stuck_at);
/// lanes without a defect behave as healthy cores.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::PackedScanLanes;
///
/// let mut packed = PackedScanLanes::new("cpu", &[8, 6]);
/// packed.inject_stuck_at(3, 0, 2, true); // lane 3: chain 0, flop 2 stuck-at-1
/// let mut outs = [0u64; 2];
/// packed.test_clock_lanes(&[u64::MAX, 0], &mut outs);
/// assert_eq!(outs, [0, 0], "every flop starts cleared");
/// ```
#[derive(Debug, Clone)]
pub struct PackedScanLanes {
    /// `chains[c]` — chain `c`'s flop lane words as a ring: flop `i` lives
    /// at index `(heads[c] + i) % len`, so a shift moves the head instead
    /// of every word.
    chains: Vec<Vec<u64>>,
    /// Ring index of each chain's flop 0.
    heads: Vec<usize>,
    key: u64,
    /// Merged stuck-at forces: `(chain, position, mask, value)` — lanes in
    /// `mask` are overwritten with the matching bits of `value` after every
    /// clock, like a stuck node feeding those lanes' scan flops.
    forces: Vec<(usize, usize, u64, u64)>,
}

impl PackedScanLanes {
    /// Creates a packed core with the given chain lengths, every lane's
    /// flip-flops cleared.
    ///
    /// # Panics
    ///
    /// Panics if no chain is given or any chain is empty — the same
    /// contract as the scalar model.
    #[must_use]
    pub fn new(name: &str, chain_lengths: &[usize]) -> Self {
        assert!(
            !chain_lengths.is_empty(),
            "a scan core needs at least one chain"
        );
        assert!(
            chain_lengths.iter().all(|&l| l > 0),
            "scan chains must be non-empty"
        );
        Self {
            chains: chain_lengths.iter().map(|&l| vec![0u64; l]).collect(),
            heads: vec![0; chain_lengths.len()],
            key: name_key(name),
            forces: Vec::new(),
        }
    }

    /// Injects a stuck-at defect on flip-flop `position` of `chain`, in
    /// lane `lane` only. Takes effect immediately and re-asserts after
    /// every subsequent clock.
    ///
    /// Forces accumulate per flop: re-injecting the *same* lane and flop
    /// overwrites the stuck value (last write wins, like the scalar
    /// model), while injecting the same lane at a different flop keeps
    /// both — the fleet stamps at most one defect per lane, so the
    /// difference from the scalar single-fault slot never materialises
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if the lane or flop location is out of range.
    pub fn inject_stuck_at(&mut self, lane: usize, chain: usize, position: usize, value: bool) {
        assert!(lane < 64, "lane index out of range");
        assert!(chain < self.chains.len(), "chain index out of range");
        assert!(position < self.chains[chain].len(), "position out of range");
        let bit = 1u64 << lane;
        let slot = self
            .forces
            .iter_mut()
            .find(|(c, p, _, _)| *c == chain && *p == position);
        match slot {
            Some((_, _, mask, forced)) => {
                *mask |= bit;
                if value {
                    *forced |= bit;
                } else {
                    *forced &= !bit;
                }
            }
            None => self
                .forces
                .push((chain, position, bit, if value { bit } else { 0 })),
        }
        self.apply_forces();
    }

    /// One shift clock for all lanes: bit `l` of `inputs[c]` enters lane
    /// `l` of chain `c`, and `outs[c]` receives every lane's serial output
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` or `outs.len()` differs from the chain
    /// count.
    pub fn test_clock_lanes(&mut self, inputs: &[u64], outs: &mut [u64]) {
        assert_eq!(inputs.len(), self.chains.len(), "scan-in width mismatch");
        assert_eq!(outs.len(), self.chains.len(), "one output word per chain");
        for ((chain, head), (&input, out)) in self
            .chains
            .iter_mut()
            .zip(&mut self.heads)
            .zip(inputs.iter().zip(outs))
        {
            // The last flop's slot becomes flop 0: read it out, then load
            // the scan-in word there.
            *head = head.checked_sub(1).unwrap_or(chain.len() - 1);
            *out = chain[*head];
            chain[*head] = input;
        }
        self.apply_forces();
    }

    /// One capture clock for all lanes: the word-wise lift of the scalar
    /// capture transform — every flop becomes the XOR of itself, its
    /// cyclic successor, the parallel flop of the next chain, and a
    /// broadcast key bit.
    pub fn capture_clock_lanes(&mut self) {
        for (chain, head) in self.chains.iter_mut().zip(&mut self.heads) {
            chain.rotate_left(*head);
            *head = 0;
        }
        let n_chains = self.chains.len();
        let mut next = Vec::with_capacity(n_chains);
        for (c, chain) in self.chains.iter().enumerate() {
            let len = chain.len();
            let neighbour = &self.chains[(c + 1) % n_chains];
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                let own = chain[i];
                let succ = chain[(i + 1) % len];
                let cross = neighbour[i % neighbour.len()];
                let key_bit = broadcast(self.key >> ((i + 7 * c) % 64) & 1 == 1);
                out.push(own ^ succ ^ cross ^ key_bit);
            }
            next.push(out);
        }
        self.chains = next;
        self.apply_forces();
    }

    /// Clears every lane's flip-flops (defects re-assert).
    pub fn reset_lanes(&mut self) {
        for chain in &mut self.chains {
            chain.fill(0);
        }
        self.heads.fill(0);
        self.apply_forces();
    }

    /// Lane word currently held by flop `position` of `chain` (for
    /// white-box tests).
    #[must_use]
    pub fn chain_word(&self, chain: usize, position: usize) -> u64 {
        let ring = &self.chains[chain];
        ring[(self.heads[chain] + position) % ring.len()]
    }

    fn apply_forces(&mut self) {
        for &(chain, position, mask, forced) in &self.forces {
            let ring = &mut self.chains[chain];
            let slot = (self.heads[chain] + position) % ring.len();
            ring[slot] = (ring[slot] & !mask) | forced;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScanCore;
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
    /// shift/capture/reset sequence and asserts every lane stays
    /// bit-identical to its scalar twin, faults included.
    #[test]
    fn every_lane_matches_its_scalar_twin() {
        let lengths = [5usize, 70, 64];
        let mut packed = PackedScanLanes::new("cpu", &lengths);
        let mut scalars: Vec<ScanCore> = (0..64)
            .map(|_| ScanCore::new("cpu", lengths.to_vec()))
            .collect();

        // Distinct defects on some lanes, including two on the same flop
        // with opposite polarities merged into one force word.
        let faults: [(usize, usize, usize, bool); 5] = [
            (0, 0, 2, true),
            (7, 1, 33, false),
            (7, 1, 33, true), // re-inject same lane+flop: last write wins
            (31, 2, 63, true),
            (63, 1, 33, false), // same flop as lane 7, other polarity
        ];
        for &(lane, chain, position, value) in &faults {
            packed.inject_stuck_at(lane, chain, position, value);
            scalars[lane].inject_stuck_at(chain, position, value);
        }

        let mut stamp = 0u64;
        for round in 0..3 {
            for cycle in 0..80 {
                let inputs: Vec<u64> = (0..lengths.len())
                    .map(|_| {
                        stamp += 1;
                        mix(stamp)
                    })
                    .collect();
                let mut packed_out = vec![0u64; lengths.len()];
                packed.test_clock_lanes(&inputs, &mut packed_out);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let wpi: BitVec = inputs.iter().map(|w| (w >> lane) & 1 == 1).collect();
                    let wpo = scalar.test_clock(&wpi);
                    for (c, &word) in packed_out.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 == 1,
                            wpo.get(c).unwrap(),
                            "round {round} cycle {cycle} lane {lane} chain {c}"
                        );
                    }
                }
                if cycle % 9 == 8 {
                    packed.capture_clock_lanes();
                    scalars.iter_mut().for_each(TestableCore::capture_clock);
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                for (c, &len) in lengths.iter().enumerate() {
                    for i in 0..len {
                        assert_eq!(
                            (packed.chain_word(c, i) >> lane) & 1 == 1,
                            scalar.chain(c).get(i).unwrap(),
                            "state round {round} lane {lane} chain {c} flop {i}"
                        );
                    }
                }
            }
            packed.reset_lanes();
            scalars
                .iter_mut()
                .for_each(casbus_p1500::TestableCore::reset);
        }
    }

    #[test]
    fn forces_reassert_after_every_clock() {
        let mut packed = PackedScanLanes::new("u", &[3]);
        packed.inject_stuck_at(5, 0, 1, true);
        assert_eq!(packed.chain_word(0, 1), 1 << 5, "applied at injection");
        packed.test_clock_lanes(&[0], &mut [0]);
        assert_eq!(packed.chain_word(0, 1) & (1 << 5), 1 << 5, "after shift");
        packed.capture_clock_lanes();
        assert_eq!(packed.chain_word(0, 1) & (1 << 5), 1 << 5, "after capture");
        packed.reset_lanes();
        assert_eq!(packed.chain_word(0, 1), 1 << 5, "after reset");
    }

    #[test]
    fn healthy_lanes_are_untouched_by_other_lanes_faults() {
        let mut packed = PackedScanLanes::new("u", &[4]);
        packed.inject_stuck_at(0, 0, 0, true);
        packed.reset_lanes();
        for i in 0..4 {
            assert_eq!(packed.chain_word(0, i) & !1, 0, "flop {i}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_chain_rejected() {
        let _ = PackedScanLanes::new("u", &[3, 0]);
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn lane_out_of_range_rejected() {
        let mut packed = PackedScanLanes::new("u", &[3]);
        packed.inject_stuck_at(64, 0, 0, true);
    }
}
