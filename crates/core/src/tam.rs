//! The assembled Test Access Mechanism for a whole SoC.

use std::fmt;

use casbus_soc::SocDescription;

use crate::cas::Cas;
use crate::chain::CasChain;
use crate::error::CasError;
use crate::geometry::CasGeometry;
use crate::instruction::CasInstruction;
use crate::switch::SwitchScheme;

/// One TAM configuration: an instruction per CAS, chain order. The paper's
/// "different TAM architectures can be addressed, in sequential order,
/// within the same test program" is a sequence of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamConfiguration {
    instructions: Vec<CasInstruction>,
}

impl TamConfiguration {
    /// A configuration from explicit per-CAS instructions.
    pub fn new(instructions: Vec<CasInstruction>) -> Self {
        Self { instructions }
    }

    /// The all-BYPASS configuration for `cas_count` CASes.
    pub fn all_bypass(cas_count: usize) -> Self {
        Self {
            instructions: vec![CasInstruction::Bypass; cas_count],
        }
    }

    /// The per-CAS instructions.
    pub fn instructions(&self) -> &[CasInstruction] {
        &self.instructions
    }

    /// Replaces the instruction of one CAS.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::UnknownCas`] for an out-of-range index.
    pub fn set(&mut self, cas_index: usize, instruction: CasInstruction) -> Result<(), CasError> {
        let slot = self
            .instructions
            .get_mut(cas_index)
            .ok_or(CasError::UnknownCas(cas_index))?;
        *slot = instruction;
        Ok(())
    }

    /// CASes with an active TEST instruction.
    pub fn cores_under_test(&self) -> Vec<usize> {
        self.instructions
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_test())
            .map(|(idx, _)| idx)
            .collect()
    }
}

impl fmt::Display for TamConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instructions.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "CAS{i}:{instr}")?;
        }
        Ok(())
    }
}

/// The complete CAS-BUS TAM for one SoC: a [`CasChain`] with one CAS per
/// wrapped core (plus one for the wrapped system bus, paper Fig. 1), each
/// sized `N/P_i` from the SoC description.
///
/// # Examples
///
/// ```
/// use casbus::{Tam, TamConfiguration, CasInstruction};
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let mut tam = Tam::new(&soc, 4)?;
/// assert_eq!(tam.cas_count(), 7); // 6 cores + wrapped system bus
///
/// // Put core 0 under test on wires 0..4, everyone else in bypass.
/// let mut config = TamConfiguration::all_bypass(tam.cas_count());
/// config.set(0, tam.contiguous_test(0, 0)?)?;
/// tam.configure(&config)?;
/// # Ok::<(), casbus::CasError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tam {
    chain: CasChain,
    labels: Vec<String>,
    soc_name: String,
}

impl Tam {
    /// Builds the TAM for `soc` over an `n`-wire test bus.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::BusTooNarrow`] when any core needs more wires
    /// than `n`, [`CasError::BadGeometry`] for `n = 0`, or
    /// [`CasError::TooManySchemes`] when an `(n, P)` pair is beyond the
    /// enumeration budget.
    pub fn new(soc: &SocDescription, n: usize) -> Result<Self, CasError> {
        let (labels, geometries): (Vec<String>, Vec<CasGeometry>) =
            Self::geometries(soc, n)?.into_iter().unzip();
        let cases = geometries
            .into_iter()
            .map(Cas::for_geometry)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            chain: CasChain::new(cases)?,
            labels,
            soc_name: soc.name().to_owned(),
        })
    }

    /// The [`configuration_clocks`](Tam::configuration_clocks) of the TAM
    /// [`Tam::new`] builds for `soc` over `n` wires, from its CAS
    /// geometries alone: it enumerates no scheme, so it holds past the
    /// enumeration budget that bounds [`Tam::new`].
    ///
    /// # Errors
    ///
    /// [`CasError::BusTooNarrow`] or [`CasError::BadGeometry`], as
    /// [`Tam::new`].
    pub fn configuration_clocks_of(soc: &SocDescription, n: usize) -> Result<usize, CasError> {
        let geometries = Self::geometries(soc, n)?;
        Ok(geometries
            .iter()
            .map(|(_, g)| g.instruction_width() as usize)
            .sum())
    }

    /// The labelled geometry of each CAS of `soc`'s TAM over `n` wires:
    /// one per core, then a one-wire CAS for a wrapped system bus, which
    /// is EXTEST-ed serially through its wrapper.
    fn geometries(soc: &SocDescription, n: usize) -> Result<Vec<(String, CasGeometry)>, CasError> {
        let mut geometries = Vec::new();
        for core in soc.cores() {
            let p = core.required_ports();
            if p > n {
                return Err(CasError::BusTooNarrow {
                    core: core.name().to_owned(),
                    needed: p,
                    n,
                });
            }
            geometries.push((core.name().to_owned(), CasGeometry::new(n, p)?));
        }
        if soc.system_bus().is_some_and(|b| b.wrapped) {
            geometries.push(("system_bus".to_owned(), CasGeometry::new(n, 1)?));
        }
        Ok(geometries)
    }

    /// The SoC this TAM serves.
    pub fn soc_name(&self) -> &str {
        &self.soc_name
    }

    /// Test bus width `N`.
    pub fn bus_width(&self) -> usize {
        self.chain.bus_width()
    }

    /// Number of CASes (cores + wrapped system bus).
    pub fn cas_count(&self) -> usize {
        self.chain.len()
    }

    /// The underlying chain.
    pub fn chain(&self) -> &CasChain {
        &self.chain
    }

    /// Mutable access to the underlying chain.
    pub fn chain_mut(&mut self) -> &mut CasChain {
        &mut self.chain
    }

    /// Label (core name or `"system_bus"`) of a CAS.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::UnknownCas`] for an out-of-range index.
    pub fn label(&self, cas_index: usize) -> Result<&str, CasError> {
        self.labels
            .get(cas_index)
            .map(String::as_str)
            .ok_or(CasError::UnknownCas(cas_index))
    }

    /// CAS index serving the named core.
    pub fn cas_for_core(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// Builds the TEST instruction placing CAS `cas_index`'s ports on the
    /// contiguous wires `start .. start + P`.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::UnknownCas`] or [`CasError::InvalidScheme`] when
    /// the window does not fit.
    pub fn contiguous_test(
        &self,
        cas_index: usize,
        start: usize,
    ) -> Result<CasInstruction, CasError> {
        let cas = self
            .chain
            .cases()
            .get(cas_index)
            .ok_or(CasError::UnknownCas(cas_index))?;
        let scheme = SwitchScheme::contiguous(cas.geometry(), start)?;
        CasInstruction::test_scheme(cas.schemes(), &scheme)
    }

    /// Builds a TEST instruction from an explicit port→wire assignment.
    ///
    /// # Errors
    ///
    /// Same as [`Tam::contiguous_test`], plus scheme validation errors.
    pub fn explicit_test(
        &self,
        cas_index: usize,
        wires: Vec<usize>,
    ) -> Result<CasInstruction, CasError> {
        let cas = self
            .chain
            .cases()
            .get(cas_index)
            .ok_or(CasError::UnknownCas(cas_index))?;
        let scheme = SwitchScheme::new(cas.geometry(), wires)?;
        CasInstruction::test_scheme(cas.schemes(), &scheme)
    }

    /// Applies a configuration through the serial protocol (the paper's
    /// CONFIGURATION phase), costing
    /// [`configuration_clocks`](Tam::configuration_clocks)` + 1` clocks.
    ///
    /// # Errors
    ///
    /// Propagates [`CasChain::configure`] errors.
    pub fn configure(&mut self, config: &TamConfiguration) -> Result<(), CasError> {
        self.chain.configure(config.instructions())
    }

    /// Clocks needed to serially load one full configuration (the sum of
    /// all instruction register widths). The paper notes this cost "does not
    /// affect the test time, since the SoC test architecture configuration
    /// will only occur once at the beginning of a SoC testing session".
    pub fn configuration_clocks(&self) -> usize {
        self.chain.config_chain_bits()
    }

    /// Resets every CAS to BYPASS.
    pub fn reset(&mut self) {
        self.chain.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::catalog;

    #[test]
    fn configuration_clocks_need_no_scheme_enumeration() {
        for soc in [catalog::figure1_soc(), catalog::itc02_like_soc()] {
            let m = soc.max_ports();
            for n in [m, m + 1, 2 * m + 2] {
                let tam = Tam::new(&soc, n).unwrap();
                assert_eq!(
                    Tam::configuration_clocks_of(&soc, n),
                    Ok(tam.configuration_clocks())
                );
            }
        }
        // A 4-port CAS on a 64-wire bus has 64 x 63 x 62 x 61 schemes, past
        // the enumeration budget, but an instruction width all the same.
        let soc = catalog::figure2c_external_soc();
        assert!(matches!(
            Tam::new(&soc, 64),
            Err(CasError::TooManySchemes { .. })
        ));
        let widths = [1, 4].map(|p| CasGeometry::new(64, p).unwrap().instruction_width());
        assert_eq!(
            Tam::configuration_clocks_of(&soc, 64),
            Ok(widths.iter().sum::<u32>() as usize)
        );
    }

    #[test]
    fn figure1_tam_shape() {
        let soc = catalog::figure1_soc();
        let tam = Tam::new(&soc, 4).unwrap();
        assert_eq!(tam.cas_count(), 7);
        assert_eq!(tam.bus_width(), 4);
        assert_eq!(tam.label(6).unwrap(), "system_bus");
        assert_eq!(tam.cas_for_core("core3_sram"), Some(2));
        assert!(tam.label(7).is_err());
    }

    #[test]
    fn too_narrow_bus_rejected() {
        let soc = catalog::figure1_soc(); // max P = 4
        let err = Tam::new(&soc, 3).unwrap_err();
        assert!(matches!(
            err,
            CasError::BusTooNarrow {
                needed: 4,
                n: 3,
                ..
            }
        ));
    }

    #[test]
    fn configure_and_query() {
        let soc = catalog::figure2a_scan_soc();
        let mut tam = Tam::new(&soc, 4).unwrap();
        let mut config = TamConfiguration::all_bypass(tam.cas_count());
        config.set(0, tam.contiguous_test(0, 0).unwrap()).unwrap();
        config.set(1, tam.contiguous_test(1, 2).unwrap()).unwrap();
        assert_eq!(config.cores_under_test(), vec![0, 1]);
        tam.configure(&config).unwrap();
        assert!(tam.chain().cases()[0].instruction().is_test());
        assert!(tam.chain().cases()[1].instruction().is_test());
    }

    #[test]
    fn contiguous_window_out_of_range() {
        let soc = catalog::figure2a_scan_soc();
        let tam = Tam::new(&soc, 4).unwrap();
        // Core 0 has P=3; start=2 ends at wire 4 which does not exist.
        assert!(tam.contiguous_test(0, 2).is_err());
        assert!(tam.contiguous_test(9, 0).is_err());
    }

    #[test]
    fn explicit_test_builds_scheme() {
        let soc = catalog::figure2a_scan_soc();
        let tam = Tam::new(&soc, 4).unwrap();
        let instr = tam.explicit_test(1, vec![3, 0]).unwrap();
        assert!(instr.is_test());
        assert!(tam.explicit_test(1, vec![3, 3]).is_err());
    }

    #[test]
    fn configuration_clock_budget() {
        let soc = catalog::figure2b_bist_soc();
        let tam = Tam::new(&soc, 3).unwrap();
        // Two (3,1) CASes: m = 5, k = 3 each.
        assert_eq!(tam.configuration_clocks(), 6);
    }

    #[test]
    fn unwrapped_bus_gets_no_cas() {
        use casbus_soc::{CoreDescription, SocBuilder, SystemBusDescription, TestMethod};
        let soc = SocBuilder::new("x")
            .core(CoreDescription::new(
                "c",
                TestMethod::Bist {
                    width: 8,
                    patterns: 1,
                },
            ))
            .system_bus(SystemBusDescription::unwrapped(16))
            .build()
            .unwrap();
        let tam = Tam::new(&soc, 2).unwrap();
        assert_eq!(tam.cas_count(), 1);
    }

    #[test]
    fn reconfiguration_is_cheap_and_repeatable() {
        let soc = catalog::maintenance_soc();
        let mut tam = Tam::new(&soc, 3).unwrap();
        for session in 0..5 {
            let mut config = TamConfiguration::all_bypass(tam.cas_count());
            let target = session % tam.cas_count();
            config
                .set(target, tam.contiguous_test(target, 0).unwrap())
                .unwrap();
            tam.configure(&config).unwrap();
            assert!(tam.chain().cases()[target].instruction().is_test());
        }
    }

    #[test]
    fn display_configuration() {
        let config = TamConfiguration::new(vec![CasInstruction::Bypass, CasInstruction::Test(2)]);
        assert_eq!(config.to_string(), "CAS0:BYPASS | CAS1:TEST[2]");
    }
}
