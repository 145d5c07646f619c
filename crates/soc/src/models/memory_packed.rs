//! Lane-packed twin of [`MemoryCore`](super::MemoryCore): 64 devices per
//! word.
//!
//! The march self test is almost entirely lane-invariant: every die writes
//! and reads the same addresses in the same order, so the phase and cursor
//! of the MATS+ engine are shared scalars. Only the cell contents, the
//! failure counts, and the 2-bit status register carry a lane axis — each
//! stored as `u64` words whose bit `l` belongs to lane `l`. A per-device
//! stuck cell becomes a per-lane force word at that cell bit, re-asserted
//! after every write (exactly when the scalar model re-applies its fault),
//! and a read compares all 64 lanes against the broadcast expectation in a
//! handful of word ops.
//!
//! Lane `l` evolves bit-identically to a standalone
//! [`MemoryCore`](super::MemoryCore) carrying lane `l`'s stuck cell, pinned
//! by the differential tests below. The one packed-specific restriction:
//! the serial control input of [`test_clock_lanes`] must be uniform across
//! lanes (all-zeros or all-ones), because a restart resets the *shared*
//! march engine — the packed fleet engine only ever broadcasts stimuli, so
//! the restriction never binds there.
//!
//! [`test_clock_lanes`]: PackedMemoryLanes::test_clock_lanes

use casbus_tpg::lanes::{broadcast, LANES};

use super::memory::MarchPhase;

/// Up to 64 lane-packed memories sharing one geometry and march engine.
///
/// Construction clears every lane's cells and parks the march engine at
/// the start. Stuck cells are injected per lane with
/// [`inject_stuck_cell`](Self::inject_stuck_cell); lanes without a defect
/// behave as healthy memories.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::PackedMemoryLanes;
///
/// let mut packed = PackedMemoryLanes::new("sram", 16, 8);
/// packed.inject_stuck_cell(3, 9, 2, true); // lane 3: word 9 bit 2 stuck-at-1
/// for _ in 0..packed.march_length() {
///     packed.capture_clock_lanes();
/// }
/// assert!(packed.self_test_done());
/// assert!(!packed.lane_passed(3));
/// assert!(packed.lane_passed(0));
/// ```
#[derive(Debug, Clone)]
pub struct PackedMemoryLanes {
    words: usize,
    data_width: usize,
    /// `cells[w][b]` — lane word of bit `b` of word `w`.
    cells: Vec<Vec<u64>>,
    phase: MarchPhase,
    cursor: usize,
    /// Per-lane mismatching-read counts.
    failures: [usize; LANES],
    /// Lanes with at least one failure (cached `failures[l] > 0` mask).
    failed: u64,
    /// Status register bit 0 (`done`) as a lane word.
    status_done: u64,
    /// Status register bit 1 (`pass`) as a lane word.
    status_pass: u64,
    /// Merged stuck-cell forces: `(word, bit, mask, value)` — lanes in
    /// `mask` are overwritten with the matching bits of `value` after
    /// every write to any word, like a stuck node under the cell.
    forces: Vec<(usize, usize, u64, u64)>,
}

impl PackedMemoryLanes {
    /// Creates a packed memory of `words` × `data_width` bits per lane, all
    /// cleared, with the shared march engine parked at the start.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `data_width` is zero — the same contract as the
    /// scalar model.
    #[must_use]
    pub fn new(_name: &str, words: usize, data_width: usize) -> Self {
        assert!(
            words > 0 && data_width > 0,
            "memory dimensions must be non-zero"
        );
        Self {
            words,
            data_width,
            cells: vec![vec![0u64; data_width]; words],
            phase: MarchPhase::WriteZeros,
            cursor: 0,
            failures: [0; LANES],
            failed: 0,
            status_done: 0,
            status_pass: 0,
            forces: Vec::new(),
        }
    }

    /// Number of march operations in a full self test (3 passes over all
    /// words — identical in every lane).
    #[must_use]
    pub fn march_length(&self) -> usize {
        3 * self.words
    }

    /// Forces bit `bit` of word `word` to `value` permanently, in lane
    /// `lane` only. Re-injecting the same lane and cell overwrites the
    /// stuck value (last write wins, like the scalar single fault slot).
    ///
    /// # Panics
    ///
    /// Panics if the lane or cell location is out of range.
    pub fn inject_stuck_cell(&mut self, lane: usize, word: usize, bit: usize, value: bool) {
        assert!(lane < LANES, "lane index out of range");
        assert!(
            word < self.words && bit < self.data_width,
            "cell out of range"
        );
        let lane_bit = 1u64 << lane;
        let slot = self
            .forces
            .iter_mut()
            .find(|(w, b, _, _)| *w == word && *b == bit);
        match slot {
            Some((_, _, mask, forced)) => {
                *mask |= lane_bit;
                if value {
                    *forced |= lane_bit;
                } else {
                    *forced &= !lane_bit;
                }
            }
            None => self
                .forces
                .push((word, bit, lane_bit, if value { lane_bit } else { 0 })),
        }
        self.apply_forces();
    }

    /// Whether the shared march engine has completed (identical in every
    /// lane).
    #[must_use]
    pub fn self_test_done(&self) -> bool {
        self.phase == MarchPhase::Done
    }

    /// Whether lane `lane`'s last completed self test passed.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn lane_passed(&self, lane: usize) -> bool {
        assert!(lane < LANES, "lane index out of range");
        self.self_test_done() && self.failures[lane] == 0
    }

    /// Failures recorded by lane `lane` in the current/last test.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn lane_failures(&self, lane: usize) -> usize {
        assert!(lane < LANES, "lane index out of range");
        self.failures[lane]
    }

    /// Lane word currently held by bit `bit` of word `word` (for white-box
    /// tests).
    #[must_use]
    pub fn cell_word(&self, word: usize, bit: usize) -> u64 {
        self.cells[word][bit]
    }

    /// One shift clock for all lanes: rotates each lane's 2-bit status
    /// register (so repeated shifting yields done, pass, done, pass, …) and
    /// writes every lane's serial output bit, as one word, to `outs[0]`. A
    /// broadcast all-ones input restarts the shared march test, like
    /// shifting a 1 into the scalar model.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` or `outs.len()` is not 1 (memory cores
    /// expose a single test port) or if the input word is not uniform
    /// across lanes — a restart resets the shared march engine, so all
    /// lanes must agree. The packed fleet engine only broadcasts stimuli,
    /// so this never binds there.
    pub fn test_clock_lanes(&mut self, inputs: &[u64], outs: &mut [u64]) {
        assert_eq!(inputs.len(), 1, "memory cores expose a single test port");
        assert_eq!(outs.len(), 1, "memory cores expose a single test port");
        let input = inputs[0];
        assert!(
            input == 0 || input == u64::MAX,
            "memory lanes take uniform (broadcast) control inputs only"
        );
        let out = self.status_done;
        let pass = self.status_pass;
        self.status_done = pass;
        self.status_pass = out;
        if input == u64::MAX {
            self.restart_test();
        }
        outs[0] = out;
    }

    /// One capture clock for all lanes: executes one march operation of the
    /// shared engine on every lane's cells, then latches the per-lane
    /// status, exactly like the scalar model.
    pub fn capture_clock_lanes(&mut self) {
        match self.phase {
            MarchPhase::WriteZeros => {
                let w = self.cursor;
                self.write(w, false);
                self.cursor += 1;
                if self.cursor == self.words {
                    self.phase = MarchPhase::ReadZeroWriteOne;
                    self.cursor = 0;
                }
            }
            MarchPhase::ReadZeroWriteOne => {
                let w = self.cursor;
                self.read_expect(w, false);
                self.write(w, true);
                self.cursor += 1;
                if self.cursor == self.words {
                    self.phase = MarchPhase::ReadOneWriteZero;
                    self.cursor = self.words;
                }
            }
            MarchPhase::ReadOneWriteZero => {
                let w = self.cursor - 1;
                self.read_expect(w, true);
                self.write(w, false);
                self.cursor -= 1;
                if self.cursor == 0 {
                    self.phase = MarchPhase::Done;
                }
            }
            MarchPhase::Done => {}
        }
        self.update_status();
    }

    /// Restarts the shared march test from scratch in every lane (contents
    /// are rewritten by the test itself).
    pub fn restart_test(&mut self) {
        self.phase = MarchPhase::WriteZeros;
        self.cursor = 0;
        self.failures = [0; LANES];
        self.failed = 0;
        self.update_status();
    }

    /// Returns every lane to the power-on state (stuck cells re-assert) —
    /// the packed twin of the scalar model's `reset`.
    pub fn reset_lanes(&mut self) {
        for word in &mut self.cells {
            word.fill(0);
        }
        self.phase = MarchPhase::WriteZeros;
        self.cursor = 0;
        self.failures = [0; LANES];
        self.failed = 0;
        self.status_done = 0;
        self.status_pass = 0;
        self.apply_forces();
    }

    fn apply_forces(&mut self) {
        for &(word, bit, mask, forced) in &self.forces {
            let cell = &mut self.cells[word][bit];
            *cell = (*cell & !mask) | forced;
        }
    }

    fn write(&mut self, word: usize, ones: bool) {
        let value = broadcast(ones);
        for cell in &mut self.cells[word] {
            *cell = value;
        }
        self.apply_forces();
    }

    fn read_expect(&mut self, word: usize, expect_ones: bool) {
        let expected = broadcast(expect_ones);
        let mut diff = 0u64;
        for &cell in &self.cells[word] {
            diff |= cell ^ expected;
        }
        self.failed |= diff;
        while diff != 0 {
            let lane = diff.trailing_zeros() as usize;
            self.failures[lane] += 1;
            diff &= diff - 1;
        }
    }

    fn update_status(&mut self) {
        let done = self.self_test_done();
        self.status_done = broadcast(done);
        self.status_pass = if done { !self.failed } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemoryCore;
    use super::*;
    use casbus_p1500::TestableCore;
    use casbus_tpg::BitVec;

    /// Drives a packed memory and 64 scalar twins through the same march /
    /// status-shift / restart / reset sequence and asserts every lane stays
    /// bit-identical to its scalar twin, stuck cells included.
    #[test]
    fn every_lane_matches_its_scalar_twin() {
        let (words, width) = (6usize, 5usize);
        let mut packed = PackedMemoryLanes::new("sram", words, width);
        let mut scalars: Vec<MemoryCore> = (0..64)
            .map(|_| MemoryCore::new("sram", words, width))
            .collect();

        // Distinct stuck cells on some lanes, including a same-lane
        // re-injection (last write wins) and an opposite-polarity force on
        // the same cell in another lane.
        let faults: [(usize, usize, usize, bool); 5] = [
            (0, 0, 0, true),
            (7, 3, 2, false),
            (7, 3, 2, true), // re-inject same lane+cell: last write wins
            (31, 5, 4, true),
            (63, 3, 2, false), // same cell as lane 7, other polarity
        ];
        for &(lane, word, bit, value) in &faults {
            packed.inject_stuck_cell(lane, word, bit, value);
            scalars[lane].inject_stuck_cell(word, bit, value);
        }

        let compare = |packed: &PackedMemoryLanes, scalars: &[MemoryCore], tag: &str| {
            for (lane, scalar) in scalars.iter().enumerate() {
                assert_eq!(
                    packed.lane_failures(lane),
                    scalar.failures(),
                    "{tag} lane {lane} failures"
                );
                assert_eq!(
                    packed.lane_passed(lane),
                    scalar.self_test_passed(),
                    "{tag} lane {lane} pass"
                );
            }
        };

        for round in 0..2 {
            // March to completion, with status shifts interleaved.
            for step in 0..packed.march_length() + 3 {
                packed.capture_clock_lanes();
                scalars.iter_mut().for_each(TestableCore::capture_clock);
                if step % 5 == 4 {
                    let mut packed_out = [0u64];
                    packed.test_clock_lanes(&[0], &mut packed_out);
                    for (lane, scalar) in scalars.iter_mut().enumerate() {
                        let out = scalar.test_clock(&BitVec::zeros(1));
                        assert_eq!(
                            (packed_out[0] >> lane) & 1 == 1,
                            out.get(0).unwrap(),
                            "round {round} step {step} lane {lane} status out"
                        );
                    }
                }
            }
            assert!(packed.self_test_done());
            compare(&packed, &scalars, &format!("round {round} done"));

            // Two clean status shifts: done then pass, per lane.
            for shift in 0..2 {
                let mut packed_out = [0u64];
                packed.test_clock_lanes(&[0], &mut packed_out);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let out = scalar.test_clock(&BitVec::zeros(1));
                    assert_eq!(
                        (packed_out[0] >> lane) & 1 == 1,
                        out.get(0).unwrap(),
                        "round {round} shift {shift} lane {lane}"
                    );
                }
            }

            // Broadcast restart (maintenance re-test, §4) mid-sequence.
            let mut packed_out = [0u64];
            packed.test_clock_lanes(&[u64::MAX], &mut packed_out);
            let mut cmd = BitVec::new();
            cmd.push(true);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let out = scalar.test_clock(&cmd);
                assert_eq!(
                    (packed_out[0] >> lane) & 1 == 1,
                    out.get(0).unwrap(),
                    "round {round} restart lane {lane}"
                );
            }
            assert!(!packed.self_test_done());
            for _ in 0..packed.march_length() {
                packed.capture_clock_lanes();
                scalars.iter_mut().for_each(TestableCore::capture_clock);
            }
            compare(&packed, &scalars, &format!("round {round} re-test"));

            // After Done the march has written everything back to zero, so
            // the only set cell bits are the effective stuck-at-1 forces:
            // lane 0 at (0,0), lane 7 at (3,2) (last write wins over the
            // earlier stuck-at-0), lane 31 at (5,4).
            for word in 0..words {
                for bit in 0..width {
                    let expected = match (word, bit) {
                        (0, 0) => 1u64,
                        (3, 2) => 1 << 7,
                        (5, 4) => 1 << 31,
                        _ => 0,
                    };
                    assert_eq!(
                        packed.cell_word(word, bit),
                        expected,
                        "round {round} cell ({word},{bit})"
                    );
                }
            }

            packed.reset_lanes();
            scalars.iter_mut().for_each(TestableCore::reset);
            compare(&packed, &scalars, &format!("round {round} reset"));
        }
    }

    #[test]
    fn healthy_lanes_pass_with_a_defective_neighbour() {
        let mut packed = PackedMemoryLanes::new("m", 8, 4);
        packed.inject_stuck_cell(5, 3, 2, true);
        for _ in 0..packed.march_length() {
            packed.capture_clock_lanes();
        }
        assert!(packed.self_test_done());
        for lane in 0..64 {
            assert_eq!(packed.lane_passed(lane), lane != 5, "lane {lane}");
        }
        assert!(packed.lane_failures(5) >= 1);
    }

    #[test]
    fn stuck_at_zero_detected_per_lane() {
        let mut packed = PackedMemoryLanes::new("m", 4, 4);
        packed.inject_stuck_cell(9, 0, 0, false);
        for _ in 0..packed.march_length() {
            packed.capture_clock_lanes();
        }
        assert!(!packed.lane_passed(9));
        assert!(packed.lane_passed(8));
    }

    #[test]
    fn forces_reassert_after_every_write() {
        let mut packed = PackedMemoryLanes::new("m", 2, 2);
        packed.inject_stuck_cell(5, 1, 1, true);
        assert_eq!(packed.cell_word(1, 1), 1 << 5, "applied at injection");
        packed.capture_clock_lanes(); // WriteZeros on word 0
        packed.capture_clock_lanes(); // WriteZeros on word 1 — overwrites, force re-asserts
        assert_eq!(packed.cell_word(1, 1) & (1 << 5), 1 << 5, "after write");
        packed.reset_lanes();
        assert_eq!(packed.cell_word(1, 1), 1 << 5, "after reset");
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn mixed_restart_inputs_rejected() {
        let mut packed = PackedMemoryLanes::new("m", 2, 2);
        packed.test_clock_lanes(&[1], &mut [0]);
    }

    #[test]
    #[should_panic(expected = "single test port")]
    fn single_port_enforced() {
        let mut packed = PackedMemoryLanes::new("m", 2, 2);
        packed.test_clock_lanes(&[0, 0], &mut [0]);
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn cell_out_of_range_rejected() {
        let mut packed = PackedMemoryLanes::new("m", 2, 2);
        packed.inject_stuck_cell(0, 2, 0, true);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = PackedMemoryLanes::new("m", 0, 4);
    }
}
