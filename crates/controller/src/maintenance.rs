//! Maintenance (online) test planning — paper §4.
//!
//! *"In case of maintenance test, it is possible to test some embedded cores
//! while others are in normal functioning mode. This is very useful when,
//! e.g., an embedded memory test is periodically required."*

use std::fmt;

use casbus::{CasError, Tam, TamConfiguration};
use casbus_p1500::WrapperInstruction;
use casbus_soc::SocDescription;

/// A maintenance plan: a subset of cores under test, everyone else in
/// mission (NORMAL) mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenancePlan {
    /// Names of the cores under test.
    under_test: Vec<String>,
    /// The TAM configuration realising the plan.
    configuration: TamConfiguration,
    /// Per-CAS wrapper instructions: INTEST flavours for tested cores,
    /// NORMAL (transparent) for everything else.
    wrapper_instructions: Vec<WrapperInstruction>,
    /// TEST-phase duration.
    duration: u64,
}

/// Errors building a maintenance plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceError {
    /// The named core is not in the SoC.
    UnknownCore(String),
    /// The named core was requested more than once.
    DuplicateCore(String),
    /// The requested cores need more wires than the bus provides
    /// simultaneously.
    DoesNotFit {
        /// Wires needed.
        needed: usize,
        /// Bus width.
        n: usize,
    },
    /// A TAM-level error.
    Tam(CasError),
}

impl fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownCore(name) => write!(f, "unknown core {name:?}"),
            Self::DuplicateCore(name) => write!(f, "core {name:?} requested twice"),
            Self::DoesNotFit { needed, n } => {
                write!(f, "maintenance set needs {needed} wires, bus has {n}")
            }
            Self::Tam(e) => write!(f, "TAM error: {e}"),
        }
    }
}

impl std::error::Error for MaintenanceError {}

impl From<CasError> for MaintenanceError {
    fn from(e: CasError) -> Self {
        Self::Tam(e)
    }
}

impl MaintenancePlan {
    /// Plans a maintenance session testing `cores` (by name) concurrently,
    /// packing them onto adjacent wire windows from wire 0 up; all other
    /// cores stay in NORMAL mode (their CASes bypass, their wrappers are
    /// transparent).
    ///
    /// # Errors
    ///
    /// Returns [`MaintenanceError::UnknownCore`] for a bad name,
    /// [`MaintenanceError::DuplicateCore`] for a name given twice and
    /// [`MaintenanceError::DoesNotFit`] when the combined widths exceed the
    /// bus.
    pub fn plan(tam: &Tam, soc: &SocDescription, cores: &[&str]) -> Result<Self, MaintenanceError> {
        let mut configuration = TamConfiguration::all_bypass(tam.cas_count());
        let mut wrappers = vec![WrapperInstruction::Normal; tam.cas_count()];
        let mut next_wire = 0usize;
        let mut duration = 0u64;
        let mut under_test = Vec::new();
        for &name in cores {
            if under_test.iter().any(|t| t == name) {
                return Err(MaintenanceError::DuplicateCore(name.to_owned()));
            }
            let (_, desc) = soc
                .core_by_name(name)
                .ok_or_else(|| MaintenanceError::UnknownCore(name.to_owned()))?;
            let cas_index = tam
                .cas_for_core(name)
                .ok_or_else(|| MaintenanceError::UnknownCore(name.to_owned()))?;
            let p = desc.required_ports();
            if next_wire + p > tam.bus_width() {
                return Err(MaintenanceError::DoesNotFit {
                    needed: next_wire + p,
                    n: tam.bus_width(),
                });
            }
            configuration.set(cas_index, tam.contiguous_test(cas_index, next_wire)?)?;
            wrappers[cas_index] = desc.method().wrapper_instruction();
            next_wire += p;
            duration = duration.max(desc.test_time());
            under_test.push(name.to_owned());
        }
        Ok(Self {
            under_test,
            configuration,
            wrapper_instructions: wrappers,
            duration,
        })
    }

    /// Names of the cores under test.
    pub fn under_test(&self) -> &[String] {
        &self.under_test
    }

    /// The TAM configuration.
    pub fn configuration(&self) -> &TamConfiguration {
        &self.configuration
    }

    /// Per-CAS wrapper instructions.
    pub fn wrapper_instructions(&self) -> &[WrapperInstruction] {
        &self.wrapper_instructions
    }

    /// TEST-phase duration in cycles.
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Whether a core keeps running in mission mode under this plan.
    pub fn is_operational(&self, core_name: &str) -> bool {
        !self.under_test.iter().any(|n| n == core_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::catalog;

    fn setup() -> (Tam, SocDescription) {
        let soc = catalog::maintenance_soc();
        let tam = Tam::new(&soc, 3).unwrap();
        (tam, soc)
    }

    #[test]
    fn memory_test_leaves_others_operational() {
        let (tam, soc) = setup();
        let plan = MaintenancePlan::plan(&tam, &soc, &["dram"]).unwrap();
        assert_eq!(plan.under_test(), &["dram".to_owned()]);
        assert!(plan.is_operational("app_cpu"));
        assert!(plan.is_operational("codec"));
        assert!(!plan.is_operational("dram"));
        // CPU and codec wrappers transparent, dram in BIST intest.
        let dram_cas = tam.cas_for_core("dram").unwrap();
        assert_eq!(
            plan.wrapper_instructions()[dram_cas],
            WrapperInstruction::IntestBist
        );
        let cpu_cas = tam.cas_for_core("app_cpu").unwrap();
        assert_eq!(
            plan.wrapper_instructions()[cpu_cas],
            WrapperInstruction::Normal
        );
        assert_eq!(plan.configuration().cores_under_test(), vec![dram_cas]);
        assert!(plan.duration() > 0);
    }

    #[test]
    fn concurrent_maintenance_packs_wires() {
        let (tam, soc) = setup();
        // dram (P=1) + codec (P=1) fit a 3-wire bus side by side.
        let plan = MaintenancePlan::plan(&tam, &soc, &["dram", "codec"]).unwrap();
        assert_eq!(plan.configuration().cores_under_test().len(), 2);
    }

    #[test]
    fn overflow_rejected() {
        let (tam, soc) = setup();
        // app_cpu needs 2 wires, dram and codec 1 each: 4 > 3.
        let err = MaintenancePlan::plan(&tam, &soc, &["app_cpu", "dram", "codec"]).unwrap_err();
        assert_eq!(err, MaintenanceError::DoesNotFit { needed: 4, n: 3 });
    }

    #[test]
    fn unknown_core_rejected() {
        let (tam, soc) = setup();
        assert_eq!(
            MaintenancePlan::plan(&tam, &soc, &["ghost"]),
            Err(MaintenanceError::UnknownCore("ghost".into()))
        );
    }

    #[test]
    fn duplicate_core_rejected() {
        let soc = catalog::maintenance_soc();
        // app_cpu (P = 2) alone fits both buses; named twice it must be
        // rejected as such, not packed onto a second window or reported as
        // an overflow.
        for n in [2, 4] {
            let tam = Tam::new(&soc, n).unwrap();
            assert!(MaintenancePlan::plan(&tam, &soc, &["app_cpu"]).is_ok());
            assert_eq!(
                MaintenancePlan::plan(&tam, &soc, &["app_cpu", "app_cpu"]),
                Err(MaintenanceError::DuplicateCore("app_cpu".into())),
                "n = {n}"
            );
        }
    }

    #[test]
    fn error_display() {
        let e = MaintenanceError::DoesNotFit { needed: 4, n: 3 };
        assert!(e.to_string().contains("4 wires"));
    }
}
