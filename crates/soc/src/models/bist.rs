//! BISTed core model (paper Fig. 2 (b)).

use casbus_p1500::TestableCore;
use casbus_tpg::{BitVec, Lfsr, Misr, Polynomial};

use super::name_key;

/// A core with an embedded BIST engine: an LFSR pattern generator, a
/// deterministic circuit-under-test transform, and a MISR compactor.
///
/// The TAM sees a single test port (`P = 1`, as the paper states for BISTed
/// cores):
///
/// * each [`test_clock`](TestableCore::test_clock) shifts the serial access
///   register — the input bit enters the seed/control end while the oldest
///   signature bit leaves, so shifting `width` clocks reads the full
///   signature,
/// * each [`capture_clock`](TestableCore::capture_clock) runs **one** BIST
///   pattern internally (LFSR → CUT → MISR).
///
/// # Examples
///
/// ```
/// use casbus_soc::models::BistCore;
/// use casbus_p1500::TestableCore;
///
/// let mut core = BistCore::new("ram", 8, 100);
/// for _ in 0..100 { core.capture_clock(); }
/// let signature = core.read_signature();
/// assert_eq!(signature.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BistCore {
    name: String,
    width: u32,
    patterns: usize,
    lfsr: Lfsr,
    misr: Misr,
    /// Serial access register, loaded from the MISR after every pattern.
    access: BitVec,
    key: u64,
    patterns_run: usize,
    fault_after: Option<usize>,
}

impl BistCore {
    /// Creates a BIST core whose engine is `width` bits wide and runs
    /// `patterns` pseudo-random patterns for a full self-test.
    ///
    /// # Panics
    ///
    /// Panics if no primitive polynomial of `width` is tabulated
    /// (supported widths: 1..=32).
    pub fn new(name: &str, width: u32, patterns: usize) -> Self {
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
        let misr = Misr::new(poly, width).expect("width matches degree");
        Self {
            name: name.to_owned(),
            width,
            patterns,
            lfsr,
            misr,
            access: BitVec::zeros(width as usize),
            key,
            patterns_run: 0,
            fault_after: None,
        }
    }

    /// Injects a fault: from pattern index `after` on, the CUT response has
    /// one bit flipped — a simple model of a defect the BIST must catch.
    pub fn inject_fault_after(&mut self, after: usize) {
        self.fault_after = Some(after);
    }

    /// Engine width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Patterns run since the last reset.
    pub fn patterns_run(&self) -> usize {
        self.patterns_run
    }

    /// The current signature, without going through the serial port.
    pub fn read_signature(&self) -> BitVec {
        self.misr.signature()
    }

    /// The fault-free ("golden") signature after `patterns` runs, computed
    /// on a pristine clone.
    pub fn golden_signature(&self) -> BitVec {
        let mut clone = Self::new(&self.name, self.width, self.patterns);
        for _ in 0..self.patterns {
            clone.capture_clock();
        }
        clone.read_signature()
    }

    /// The deterministic circuit-under-test: XOR-mix with a rotated copy and
    /// the name key.
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

impl TestableCore for BistCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        1
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), 1, "BIST cores expose a single test port");
        // The access register shifts towards bit 0 in place: the oldest
        // signature bit leaves, the input bit enters at the far end.
        let width = self.access.len();
        let out = self.access.get(0).expect("access register non-empty");
        for i in 1..width {
            let bit = self.access.get(i).expect("in range");
            self.access.set(i - 1, bit);
        }
        self.access
            .set(width - 1, inputs.get(0).expect("one input bit"));
        outputs.clear();
        outputs.push(out);
    }

    fn capture_clock(&mut self) {
        let pattern = self.lfsr.step_word(self.width as usize);
        let mut response = self.cut(pattern);
        if let Some(after) = self.fault_after {
            if self.patterns_run >= after {
                response ^= 1 << (self.patterns_run as u32 % self.width);
            }
        }
        self.misr
            .absorb(&BitVec::from_u64(response, self.width as usize));
        self.access = self.misr.signature();
        self.patterns_run += 1;
    }

    fn scan_depth(&self) -> usize {
        self.width as usize
    }

    fn reset(&mut self) {
        let fault = self.fault_after;
        *self = Self::new(&self.name, self.width, self.patterns);
        self.fault_after = fault;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_signature_matches_fault_free_run() {
        let mut core = BistCore::new("ram", 8, 50);
        let golden = core.golden_signature();
        for _ in 0..50 {
            core.capture_clock();
        }
        assert_eq!(core.read_signature(), golden);
    }

    #[test]
    fn fault_changes_signature() {
        let mut core = BistCore::new("ram", 8, 50);
        core.inject_fault_after(25);
        for _ in 0..50 {
            core.capture_clock();
        }
        assert_ne!(core.read_signature(), core.golden_signature());
    }

    #[test]
    fn serial_port_reads_signature() {
        let mut core = BistCore::new("ram", 8, 10);
        for _ in 0..10 {
            core.capture_clock();
        }
        let expected = core.read_signature();
        let mut read = BitVec::new();
        for _ in 0..8 {
            read.push(core.test_clock(&BitVec::zeros(1)).get(0).unwrap());
        }
        assert_eq!(read, expected);
    }

    #[test]
    fn different_cores_have_different_goldens() {
        assert_ne!(
            BistCore::new("a", 12, 30).golden_signature(),
            BistCore::new("b", 12, 30).golden_signature()
        );
    }

    #[test]
    fn reset_restores_but_keeps_fault() {
        let mut core = BistCore::new("ram", 8, 5);
        core.inject_fault_after(0);
        core.capture_clock();
        core.reset();
        assert_eq!(core.patterns_run(), 0);
        for _ in 0..5 {
            core.capture_clock();
        }
        assert_ne!(core.read_signature(), core.golden_signature());
    }

    #[test]
    fn single_port_enforced() {
        let mut core = BistCore::new("ram", 8, 5);
        assert_eq!(core.test_ports(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.test_clock(&BitVec::zeros(2));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scan_depth_is_width() {
        assert_eq!(BistCore::new("x", 16, 1).scan_depth(), 16);
    }

    #[test]
    #[should_panic(expected = "BIST width 40")]
    fn unsupported_width_panics() {
        let _ = BistCore::new("x", 40, 1);
    }
}
