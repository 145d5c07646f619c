//! Static descriptions of embedded cores and their test methods.

use std::fmt;

use casbus_p1500::WrapperInstruction;

/// Identifier of a core within one SoC, in CAS order along the test bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core#{}", self.0)
    }
}

/// How a core is tested — the four cases of the paper's Figure 2, plus a
/// memory flavour used for the maintenance-test scenario of §4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestMethod {
    /// Full-scan core with the given chain lengths; `P` equals the number of
    /// chains (Fig. 2 (a)).
    Scan {
        /// Length of each internal scan chain, in flip-flops.
        chains: Vec<usize>,
        /// Number of scan patterns to apply.
        patterns: usize,
    },
    /// Core with its own BIST engine; `P = 1` (Fig. 2 (b)).
    Bist {
        /// LFSR/MISR width of the embedded engine.
        width: u32,
        /// Number of pseudo-random patterns the engine runs.
        patterns: usize,
    },
    /// Core tested from an external source and sink, e.g. an off-chip LFSR
    /// and MISR; `P` is the source/sink width (Fig. 2 (c)).
    External {
        /// Parallel width of the external source and sink.
        ports: usize,
        /// Number of test clocks driven by the external equipment.
        patterns: usize,
    },
    /// Hierarchical core embedding further cores behind an internal test bus
    /// of the given width; `P` equals that width (Fig. 2 (d)).
    Hierarchical {
        /// Width of the internal test bus.
        internal_bus_width: usize,
        /// The embedded cores, in internal CAS order.
        sub_cores: Vec<CoreDescription>,
    },
    /// Embedded memory tested with a march-style self test; `P = 1`. Used by
    /// the periodic maintenance-test scenario of §4.
    Memory {
        /// Number of words.
        words: usize,
        /// Word width in bits.
        data_width: usize,
    },
}

impl TestMethod {
    /// The number of test bus wires (`P`) this method needs at the CAS.
    ///
    /// Matches the paper §2: scan → number of chains, BIST → 1, external →
    /// source/sink width, hierarchical → internal bus width.
    pub fn required_ports(&self) -> usize {
        match self {
            Self::Scan { chains, .. } => chains.len(),
            Self::Bist { .. } => 1,
            Self::External { ports, .. } => *ports,
            Self::Hierarchical {
                internal_bus_width, ..
            } => *internal_bus_width,
            Self::Memory { .. } => 1,
        }
    }

    /// The P1500 wrapper instruction that tests a core of this method: BIST
    /// and memory cores run their own engine under `IntestBist`, every
    /// other method shifts its stimulus through the wrapper under
    /// `IntestScan`.
    pub fn wrapper_instruction(&self) -> WrapperInstruction {
        match self {
            Self::Bist { .. } | Self::Memory { .. } => WrapperInstruction::IntestBist,
            _ => WrapperInstruction::IntestScan,
        }
    }

    /// A short human-readable tag.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Scan { .. } => "scan",
            Self::Bist { .. } => "bist",
            Self::External { .. } => "external",
            Self::Hierarchical { .. } => "hierarchical",
            Self::Memory { .. } => "memory",
        }
    }

    /// Total flip-flops on the scan path (scan cores only), else 0.
    pub fn scan_flops(&self) -> usize {
        match self {
            Self::Scan { chains, .. } => chains.iter().sum(),
            _ => 0,
        }
    }

    /// Clocks a bit needs to cross the core's test path, which is also
    /// what its behavioural model's `scan_depth` reports: the deepest scan
    /// chain, the BIST signature width, the external core's one pipeline
    /// stage, the memory's two status bits, and for a hierarchical core the
    /// sum over its sub-cores, whose paths its internal bus threads in
    /// series.
    pub fn scan_depth(&self) -> usize {
        match self {
            Self::Scan { chains, .. } => chains.iter().copied().max().unwrap_or(0),
            Self::Bist { width, .. } => *width as usize,
            Self::External { .. } => 1,
            Self::Hierarchical { sub_cores, .. } => {
                sub_cores.iter().map(|c| c.method().scan_depth()).sum()
            }
            Self::Memory { .. } => 2,
        }
    }

    /// The session that tests a core of this method; its
    /// [`cycles`](SessionShape::cycles) are the core's test time.
    ///
    /// * **scan** shifts each pattern in over the deepest chain and
    ///   captures it; the next pattern's shift unloads the response;
    /// * **BIST** captures once per pattern, then unloads the signature;
    /// * **external** drives one vector per clock through the one-stage
    ///   pipeline;
    /// * **hierarchical** runs a 4-pattern scan probe over the summed
    ///   sub-core depth, not the sub-cores' own sessions;
    /// * **memory** runs the `3·words` march operations, then unloads the
    ///   two status bits.
    ///
    /// Every session ends by flushing its last response out over
    /// [`scan_depth`](Self::scan_depth) clocks of zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use casbus_soc::TestMethod;
    ///
    /// let cpu = TestMethod::Scan { chains: vec![100, 80], patterns: 10 };
    /// assert_eq!(cpu.session().cycles(), 10 * (100 + 1) + 100);
    /// ```
    pub fn session(&self) -> SessionShape {
        let depth = self.scan_depth();
        let (patterns, shift, capture) = match self {
            Self::Scan { patterns, .. } => (*patterns, depth, 1),
            Self::Bist { patterns, .. } => (*patterns, 0, 1),
            Self::External { patterns, .. } => (*patterns, 1, 0),
            Self::Hierarchical { .. } => (4, depth, 1),
            Self::Memory { words, .. } => (3 * words, 0, 1),
        };
        SessionShape {
            patterns,
            shift,
            capture,
            flush: depth,
        }
    }
}

/// The shape of a core's test session: `patterns` times (`shift` clocks
/// of LFSR stimulus, then `capture` capture clocks), then `flush` shift
/// clocks of zeros that unload the last response. The schedulers book its
/// [`cycles`](Self::cycles) and the simulator runs it, adding one drain
/// clock for the retiming register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionShape {
    /// Pattern count.
    pub patterns: usize,
    /// Stimulus shift clocks per pattern.
    pub shift: usize,
    /// Capture clocks per pattern.
    pub capture: usize,
    /// Zero shift clocks after the last pattern.
    pub flush: usize,
}

impl SessionShape {
    /// Test-clock cycles: `patterns · (shift + capture) + flush`.
    pub fn cycles(&self) -> u64 {
        (self.patterns * (self.shift + self.capture) + self.flush) as u64
    }
}

impl fmt::Display for TestMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Scan { chains, patterns } => {
                write!(f, "scan({} chains, {} patterns)", chains.len(), patterns)
            }
            Self::Bist { width, patterns } => write!(f, "bist({width}-bit, {patterns} patterns)"),
            Self::External { ports, patterns } => {
                write!(f, "external({ports} ports, {patterns} clocks)")
            }
            Self::Hierarchical {
                internal_bus_width,
                sub_cores,
            } => write!(
                f,
                "hierarchical({} internal wires, {} sub-cores)",
                internal_bus_width,
                sub_cores.len()
            ),
            Self::Memory { words, data_width } => write!(f, "memory({words}x{data_width})"),
        }
    }
}

/// Static description of one embedded core.
///
/// # Examples
///
/// ```
/// use casbus_soc::{CoreDescription, TestMethod};
///
/// let cpu = CoreDescription::new("cpu", TestMethod::Scan {
///     chains: vec![120, 118, 95],
///     patterns: 200,
/// });
/// assert_eq!(cpu.required_ports(), 3);
/// assert_eq!(cpu.name(), "cpu");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDescription {
    name: String,
    method: TestMethod,
    functional_inputs: usize,
    functional_outputs: usize,
    gate_count: usize,
    test_power: u32,
}

impl CoreDescription {
    /// Creates a description with default functional terminal counts (8/8),
    /// a gate-count estimate of 10 000 and a test-power weight of 100
    /// (arbitrary units; scan toggling typically dominates mission-mode
    /// power, which is why schedulers cap concurrent test power).
    pub fn new(name: impl Into<String>, method: TestMethod) -> Self {
        Self {
            name: name.into(),
            method,
            functional_inputs: 8,
            functional_outputs: 8,
            gate_count: 10_000,
            test_power: 100,
        }
    }

    /// Sets the functional terminal counts (used to size the wrapper
    /// boundary register).
    pub fn with_terminals(mut self, inputs: usize, outputs: usize) -> Self {
        self.functional_inputs = inputs;
        self.functional_outputs = outputs;
        self
    }

    /// Sets the gate-count estimate (used for overhead percentages).
    pub fn with_gate_count(mut self, gates: usize) -> Self {
        self.gate_count = gates;
        self
    }

    /// Sets the test-power weight (arbitrary units, used by power-aware
    /// scheduling to cap concurrent testing).
    pub fn with_test_power(mut self, power: u32) -> Self {
        self.test_power = power;
        self
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The test method.
    pub fn method(&self) -> &TestMethod {
        &self.method
    }

    /// Test bus wires (`P`) this core's CAS must switch.
    pub fn required_ports(&self) -> usize {
        self.method.required_ports()
    }

    /// Test time in test-clock cycles when the CAS grants the core its `P`
    /// wires: the cycles of its method's [`session`](TestMethod::session).
    pub fn test_time(&self) -> u64 {
        self.method.session().cycles()
    }

    /// Functional input terminal count.
    pub fn functional_inputs(&self) -> usize {
        self.functional_inputs
    }

    /// Functional output terminal count.
    pub fn functional_outputs(&self) -> usize {
        self.functional_outputs
    }

    /// Gate-count estimate of the core logic.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Test-power weight (arbitrary units) this core dissipates under test.
    pub fn test_power(&self) -> u32 {
        self.test_power
    }
}

impl fmt::Display for CoreDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_ports_per_method() {
        assert_eq!(
            TestMethod::Scan {
                chains: vec![10, 20, 30],
                patterns: 5
            }
            .required_ports(),
            3
        );
        assert_eq!(
            TestMethod::Bist {
                width: 16,
                patterns: 100
            }
            .required_ports(),
            1
        );
        assert_eq!(
            TestMethod::External {
                ports: 4,
                patterns: 50
            }
            .required_ports(),
            4
        );
        assert_eq!(
            TestMethod::Memory {
                words: 64,
                data_width: 8
            }
            .required_ports(),
            1
        );
        let sub = CoreDescription::new(
            "s",
            TestMethod::Bist {
                width: 8,
                patterns: 10,
            },
        );
        assert_eq!(
            TestMethod::Hierarchical {
                internal_bus_width: 2,
                sub_cores: vec![sub]
            }
            .required_ports(),
            2
        );
    }

    #[test]
    fn scan_flops_sums_chains() {
        let m = TestMethod::Scan {
            chains: vec![10, 20, 30],
            patterns: 5,
        };
        assert_eq!(m.scan_flops(), 60);
        assert_eq!(
            TestMethod::Bist {
                width: 8,
                patterns: 1
            }
            .scan_flops(),
            0
        );
    }

    fn scan(chains: Vec<usize>, patterns: usize) -> TestMethod {
        TestMethod::Scan { chains, patterns }
    }

    #[test]
    fn scan_session_formula() {
        // depth 9: 4·(9 + 1) + 9.
        assert_eq!(scan(vec![5, 9, 3], 4).session().cycles(), 49);
    }

    #[test]
    fn bist_session_formula() {
        let bist = TestMethod::Bist {
            width: 16,
            patterns: 100,
        };
        assert_eq!(bist.session().cycles(), 100 + 16);
    }

    #[test]
    fn external_session_formula() {
        let external = TestMethod::External {
            ports: 3,
            patterns: 64,
        };
        assert_eq!(external.session().cycles(), 64 + 1);
    }

    #[test]
    fn memory_session_formula() {
        let memory = TestMethod::Memory {
            words: 32,
            data_width: 8,
        };
        assert_eq!(memory.session().cycles(), 3 * 32 + 2);
    }

    #[test]
    fn hierarchical_session_is_a_probe_over_the_summed_depth() {
        let sub = |name: &str, method: TestMethod| CoreDescription::new(name, method);
        let inner = TestMethod::Hierarchical {
            internal_bus_width: 1,
            sub_cores: vec![sub("c", scan(vec![3], 1))],
        };
        let method = TestMethod::Hierarchical {
            internal_bus_width: 2,
            sub_cores: vec![
                sub(
                    "a",
                    TestMethod::Bist {
                        width: 8,
                        patterns: 10,
                    },
                ),
                sub("b", scan(vec![4, 2], 2)),
                sub(
                    "e",
                    TestMethod::External {
                        ports: 2,
                        patterns: 9,
                    },
                ),
                sub("h", inner),
            ],
        };
        // 8 + 4 + 1 + 3, not the sub-cores' own sessions.
        assert_eq!(method.scan_depth(), 16);
        assert_eq!(method.session().cycles(), 4 * (16 + 1) + 16);
    }

    #[test]
    fn deeper_chains_cost_more() {
        let shallow = scan(vec![10, 10], 50);
        let deep = scan(vec![19, 1], 50);
        assert!(
            deep.session().cycles() > shallow.session().cycles(),
            "same flops, worse balance"
        );
    }

    #[test]
    fn rebalanced_chains_shorten_the_session() {
        let before = scan(vec![19, 1], 50).session().cycles();
        let after = scan(vec![10, 10], 50).session().cycles();
        assert!(after < before);
    }

    #[test]
    fn builder_setters() {
        let c = CoreDescription::new(
            "dsp",
            TestMethod::Bist {
                width: 8,
                patterns: 255,
            },
        )
        .with_terminals(16, 12)
        .with_gate_count(50_000);
        assert_eq!(c.functional_inputs(), 16);
        assert_eq!(c.functional_outputs(), 12);
        assert_eq!(c.gate_count(), 50_000);
    }

    #[test]
    fn display_formats() {
        let c = CoreDescription::new(
            "cpu",
            TestMethod::Scan {
                chains: vec![4],
                patterns: 2,
            },
        );
        assert_eq!(c.to_string(), "cpu [scan(1 chains, 2 patterns)]");
        assert_eq!(CoreId(3).to_string(), "core#3");
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            TestMethod::Memory {
                words: 1,
                data_width: 1
            }
            .kind_name(),
            "memory"
        );
        assert_eq!(
            TestMethod::External {
                ports: 1,
                patterns: 1
            }
            .kind_name(),
            "external"
        );
    }
}
