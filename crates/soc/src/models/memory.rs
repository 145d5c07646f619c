//! Embedded memory model with march-style self test (paper §4,
//! maintenance-test scenario).

use casbus_p1500::TestableCore;
use casbus_tpg::BitVec;

/// Phases of the simplified MATS+ march test the memory executes (shared
/// with the lane-packed twin, whose march progress is lane-invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum MarchPhase {
    /// ⇑ (w0): write 0 everywhere.
    WriteZeros,
    /// ⇑ (r0, w1): read-expect-0, write 1.
    ReadZeroWriteOne,
    /// ⇓ (r1, w0): read-expect-1, write 0.
    ReadOneWriteZero,
    /// Finished; result latched.
    Done,
}

/// An embedded memory with a built-in march self test.
///
/// The TAM sees one test port:
///
/// * each [`capture_clock`](TestableCore::capture_clock) executes one march
///   operation on one word,
/// * each [`test_clock`](TestableCore::test_clock) shifts the 2-bit status
///   register out — bit order: `done`, `pass` — while the input bit, when
///   set, restarts the test (so periodic maintenance testing per §4 just
///   shifts a 1 in).
///
/// Faults are injected as stuck bits in a cell ([`MemoryCore::inject_stuck_cell`]),
/// which the march test detects by construction.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::MemoryCore;
/// use casbus_p1500::TestableCore;
///
/// let mut mem = MemoryCore::new("sram", 16, 8);
/// for _ in 0..mem.march_length() { mem.capture_clock(); }
/// assert!(mem.self_test_passed());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryCore {
    name: String,
    words: usize,
    data_width: usize,
    cells: Vec<BitVec>,
    phase: MarchPhase,
    cursor: usize,
    failures: usize,
    status: BitVec,
    stuck: Option<(usize, usize, bool)>,
}

impl MemoryCore {
    /// Creates a memory of `words` × `data_width` bits, all cleared, with
    /// the march engine parked at the start.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `data_width` is zero.
    pub fn new(name: &str, words: usize, data_width: usize) -> Self {
        assert!(
            words > 0 && data_width > 0,
            "memory dimensions must be non-zero"
        );
        Self {
            name: name.to_owned(),
            words,
            data_width,
            cells: vec![BitVec::zeros(data_width); words],
            phase: MarchPhase::WriteZeros,
            cursor: 0,
            failures: 0,
            status: BitVec::zeros(2),
            stuck: None,
        }
    }

    /// Number of march operations in a full self test (3 passes over all
    /// words).
    pub fn march_length(&self) -> usize {
        3 * self.words
    }

    /// Forces bit `bit` of word `word` to `value` permanently.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn inject_stuck_cell(&mut self, word: usize, bit: usize, value: bool) {
        assert!(
            word < self.words && bit < self.data_width,
            "cell out of range"
        );
        self.stuck = Some((word, bit, value));
        self.apply_fault();
    }

    /// Whether the last completed self test passed.
    pub fn self_test_passed(&self) -> bool {
        self.phase == MarchPhase::Done && self.failures == 0
    }

    /// Whether the self test has completed.
    pub fn self_test_done(&self) -> bool {
        self.phase == MarchPhase::Done
    }

    /// Failures recorded by the current/last test.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Restarts the march test from scratch (contents are rewritten by the
    /// test itself).
    pub fn restart_test(&mut self) {
        self.phase = MarchPhase::WriteZeros;
        self.cursor = 0;
        self.failures = 0;
        self.update_status();
    }

    fn apply_fault(&mut self) {
        if let Some((word, bit, value)) = self.stuck {
            self.cells[word].set(bit, value);
        }
    }

    fn write(&mut self, word: usize, ones: bool) {
        self.cells[word].fill_range(0..self.data_width, ones);
        self.apply_fault();
    }

    fn read_expect(&mut self, word: usize, expect_ones: bool) {
        let expected = if expect_ones { self.data_width } else { 0 };
        if self.cells[word].count_ones() != expected {
            self.failures += 1;
        }
    }

    fn update_status(&mut self) {
        self.status.set(0, self.self_test_done());
        self.status
            .set(1, self.self_test_done() && self.failures == 0);
    }
}

impl TestableCore for MemoryCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        1
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), 1, "memory cores expose a single test port");
        let out = self.status.get(0).expect("status non-empty");
        // Rotate the status register so repeated shifting yields
        // done, pass, done, pass, …
        let pass = self.status.get(1).expect("two status bits");
        self.status.set(0, pass);
        self.status.set(1, out);
        if inputs.get(0) == Some(true) {
            self.restart_test();
        }
        outputs.clear();
        outputs.push(out);
    }

    fn capture_clock(&mut self) {
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

    fn scan_depth(&self) -> usize {
        2
    }

    fn reset(&mut self) {
        let stuck = self.stuck;
        *self = Self::new(&self.name, self.words, self.data_width);
        self.stuck = stuck;
        self.apply_fault();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_test_passes() {
        let mut mem = MemoryCore::new("m", 8, 4);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(mem.self_test_done());
        assert!(mem.self_test_passed());
        assert_eq!(mem.failures(), 0);
    }

    #[test]
    fn stuck_at_one_detected() {
        let mut mem = MemoryCore::new("m", 8, 4);
        mem.inject_stuck_cell(3, 2, true);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(mem.self_test_done());
        assert!(!mem.self_test_passed());
        assert!(mem.failures() >= 1);
    }

    #[test]
    fn stuck_at_zero_detected() {
        let mut mem = MemoryCore::new("m", 4, 4);
        mem.inject_stuck_cell(0, 0, false);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(!mem.self_test_passed());
    }

    #[test]
    fn status_shifts_done_then_pass() {
        let mut mem = MemoryCore::new("m", 2, 2);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        let done = mem.test_clock(&BitVec::zeros(1)).get(0).unwrap();
        let pass = mem.test_clock(&BitVec::zeros(1)).get(0).unwrap();
        assert!(done);
        assert!(pass);
    }

    #[test]
    fn shifting_one_restarts_test() {
        let mut mem = MemoryCore::new("m", 2, 2);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(mem.self_test_done());
        let mut cmd = BitVec::new();
        cmd.push(true);
        mem.test_clock(&cmd);
        assert!(!mem.self_test_done());
        // Run again to completion — periodic maintenance test (§4).
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(mem.self_test_passed());
    }

    #[test]
    fn extra_captures_after_done_are_harmless() {
        let mut mem = MemoryCore::new("m", 2, 2);
        for _ in 0..mem.march_length() + 5 {
            mem.capture_clock();
        }
        assert!(mem.self_test_passed());
    }

    #[test]
    fn reset_keeps_fault() {
        let mut mem = MemoryCore::new("m", 4, 2);
        mem.inject_stuck_cell(1, 1, true);
        mem.reset();
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        assert!(!mem.self_test_passed());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = MemoryCore::new("m", 0, 4);
    }
}
