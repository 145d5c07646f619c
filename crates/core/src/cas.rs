//! The behavioural Core Access Switch (paper §3, Fig. 3 and Fig. 4).

use std::fmt;

use casbus_tpg::BitVec;

use crate::error::CasError;
use crate::geometry::CasGeometry;
use crate::instruction::CasInstruction;
use crate::switch::{SchemeSet, SwitchScheme};

/// The functional mode a CAS is currently in (paper §3.1, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CasMode {
    /// Fig. 4 (a): the instruction register sits in the e0→s0 serial path.
    Configuration,
    /// Fig. 4 (b): all bus wires pass straight through.
    Bypass,
    /// Fig. 4 (c): `P` wires are switched to the core, `N − P` bypass.
    Test,
}

impl fmt::Display for CasMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Configuration => "CONFIGURATION",
            Self::Bypass => "BYPASS",
            Self::Test => "TEST",
        })
    }
}

/// Per-clock CAS control signals, driven by the central SoC test controller
/// ("All test control signals … are connected to a central SoC test
/// controller", paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasControl {
    /// Assert the global `config` line: wire 0 shifts through the
    /// instruction register this clock.
    pub config: bool,
    /// Fire the update stage: the shifted instruction becomes active.
    pub update: bool,
}

impl CasControl {
    /// Control word for one configuration shift clock.
    pub fn shift_config() -> Self {
        Self {
            config: true,
            update: false,
        }
    }

    /// Control word for the update pulse ending the configuration phase.
    pub fn update() -> Self {
        Self {
            config: false,
            update: true,
        }
    }

    /// Control word for a plain data-transport clock.
    pub fn run() -> Self {
        Self::default()
    }
}

/// The result of one CAS clock: the `N` bus outputs (`s0 … sN−1`) and, when
/// the CAS is in TEST mode, the `P` bits presented to the core test inputs
/// (`o0 … oP−1`). Outside TEST mode the `o` outputs are tri-stated
/// (paper §3: "In configuration phase, the tri-stated switcher outputs and
/// inputs are switched to high impedance"), represented as `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CasOutput {
    /// Bus outputs `s0 … sN−1`.
    pub bus_out: BitVec,
    /// Core-side outputs `o0 … oP−1`, or `None` when tri-stated.
    pub core_in: Option<BitVec>,
}

/// A behavioural Core Access Switch.
///
/// Structure (paper Fig. 3): a `k`-bit instruction register with an update
/// (shadow) stage, and an `N/P` configurable switcher. The instruction
/// register shifts on bus wire 0 while the controller asserts `config`; the
/// update pulse makes the shifted instruction active.
///
/// # Examples
///
/// ```
/// use casbus::{Cas, CasControl, CasGeometry, CasInstruction, SchemeSet};
/// use casbus_tpg::BitVec;
///
/// let set = SchemeSet::enumerate(CasGeometry::new(4, 2)?)?;
/// let mut cas = Cas::new(set);
///
/// // TEST scheme 0 routes ports (o0,o1) onto wires (0,1).
/// cas.load_instruction(&CasInstruction::Test(0));
/// let out = cas.clock(
///     &"1010".parse::<BitVec>().unwrap(),
///     &"11".parse::<BitVec>().unwrap(),
///     CasControl::run(),
/// )?;
/// assert_eq!(out.core_in.unwrap().to_string(), "10"); // e0,e1 to the core
/// assert_eq!(out.bus_out.to_string(), "1110");        // i0,i1 onto s0,s1
/// # Ok::<(), casbus::CasError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cas {
    schemes: SchemeSet,
    ir_shift: BitVec,
    active: CasInstruction,
    config_line: bool,
}

impl Cas {
    /// Builds a CAS over an enumerated scheme set. Power-on state is BYPASS
    /// with a cleared instruction register.
    pub fn new(schemes: SchemeSet) -> Self {
        let k = schemes.geometry().instruction_width() as usize;
        Self {
            schemes,
            ir_shift: BitVec::zeros(k),
            active: CasInstruction::Bypass,
            config_line: false,
        }
    }

    /// Convenience constructor enumerating the schemes for a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::TooManySchemes`] for impractically large
    /// geometries.
    pub fn for_geometry(geometry: CasGeometry) -> Result<Self, CasError> {
        Ok(Self::new(SchemeSet::enumerate(geometry)?))
    }

    /// The geometry.
    pub fn geometry(&self) -> CasGeometry {
        self.schemes.geometry()
    }

    /// The enumerated scheme set.
    pub fn schemes(&self) -> &SchemeSet {
        &self.schemes
    }

    /// Instruction register width `k`.
    pub fn instruction_width(&self) -> u32 {
        self.geometry().instruction_width()
    }

    /// The active instruction.
    pub fn instruction(&self) -> &CasInstruction {
        &self.active
    }

    /// The active functional mode (paper Fig. 4). The `config` control line
    /// overrides the decoded instruction, as in the paper's Fig. 3 where the
    /// `config` signal steers the e0/s0 multiplexers directly.
    pub fn mode(&self) -> CasMode {
        if self.config_line {
            CasMode::Configuration
        } else {
            match self.active {
                CasInstruction::Bypass | CasInstruction::Configuration => CasMode::Bypass,
                CasInstruction::Test(_) => CasMode::Test,
            }
        }
    }

    /// The active switch scheme, when in TEST mode.
    pub fn active_scheme(&self) -> Option<&SwitchScheme> {
        match self.active {
            CasInstruction::Test(index) => self.schemes.scheme(index).ok(),
            _ => None,
        }
    }

    /// The active switch scheme while the CAS routes in TEST mode: `None`
    /// in BYPASS and while the `config` line is latched.
    pub(crate) fn test_scheme(&self) -> Option<&SwitchScheme> {
        match self.mode() {
            CasMode::Test => self.active_scheme(),
            _ => None,
        }
    }

    /// Loads an instruction directly into the active stage (a shortcut for
    /// tests and tools; hardware goes through the serial protocol).
    pub fn load_instruction(&mut self, instruction: &CasInstruction) {
        self.active = instruction.clone();
    }

    /// Shift-stage contents (for inspection).
    pub fn ir_shift_stage(&self) -> &BitVec {
        &self.ir_shift
    }

    /// One clock of the CAS.
    ///
    /// * `bus_in` — the `N` bus inputs `e0 … eN−1`,
    /// * `core_out` — the `P` core test outputs `i0 … iP−1` (captured only
    ///   in TEST mode),
    /// * `ctrl` — the controller's `config`/`update` lines.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::BadGeometry`] if `bus_in` is not `N` bits or
    /// `core_out` is not `P` bits.
    pub fn clock(
        &mut self,
        bus_in: &BitVec,
        core_out: &BitVec,
        ctrl: CasControl,
    ) -> Result<CasOutput, CasError> {
        let mut bus = bus_in.clone();
        let mut core_in = BitVec::zeros(self.geometry().switched_wires());
        let tested = self.clock_in_place(&mut bus, core_out, &mut core_in, ctrl)?;
        Ok(CasOutput {
            bus_out: bus,
            core_in: tested.then_some(core_in),
        })
    }

    /// One clock of the CAS over caller-owned buffers: `bus` is transformed
    /// in place and, in TEST mode, the tapped port bits are written into
    /// `core_in` (`P` bits). Returns whether the CAS was in TEST mode; when
    /// it was not, the core side is tri-stated and `core_in` is left as it
    /// was. [`Cas::clock`] is the allocating form of this one routing
    /// implementation, and [`CasChain::clock_in_place`](crate::CasChain::clock_in_place)
    /// threads one bus through a whole chain with it. In-place is safe
    /// because each TEST port taps and drives the *same* wire (the scheme
    /// is injective), and the tap is read before the drive is written.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::BadGeometry`] if `bus` is not `N` bits or
    /// `core_out` or `core_in` is not `P` bits.
    pub fn clock_in_place(
        &mut self,
        bus: &mut BitVec,
        core_out: &BitVec,
        core_in: &mut BitVec,
        ctrl: CasControl,
    ) -> Result<bool, CasError> {
        let n = self.geometry().bus_width();
        let p = self.geometry().switched_wires();
        if bus.len() != n || core_out.len() != p || core_in.len() != p {
            let p_got = if core_out.len() != p {
                core_out.len()
            } else {
                core_in.len()
            };
            return Err(CasError::BadGeometry {
                n: bus.len(),
                p: p_got,
            });
        }
        self.config_line = ctrl.config;
        if ctrl.config {
            // CONFIGURATION (Fig. 4 (a)): wire 0 threads the instruction
            // register; the remaining wires bypass so downstream CASes keep
            // their own configuration chains intact.
            let shifted_out = self.shift_ir(bus.get(0).expect("n >= 1"));
            bus.set(0, shifted_out);
            if ctrl.update {
                self.update_ir();
            }
            return Ok(false);
        }
        if ctrl.update {
            self.update_ir();
        }
        match self.mode() {
            CasMode::Bypass | CasMode::Configuration => Ok(false),
            CasMode::Test => {
                let scheme = self.active_scheme().expect("TEST mode has a scheme");
                for port in 0..p {
                    let wire = scheme.wire_for_port(port);
                    // Paper heuristic: e_wire -> o_port and i_port -> s_wire.
                    core_in.set(port, bus.get(wire).expect("wire < n"));
                    bus.set(wire, core_out.get(port).expect("port < p"));
                }
                Ok(true)
            }
        }
    }

    /// Shifts one bit through the instruction register (LSB first),
    /// returning the displaced bit — the configuration daisy-chain primitive.
    /// The register shifts in place.
    pub fn shift_ir(&mut self, bit: bool) -> bool {
        let k = self.ir_shift.len();
        let out = self.ir_shift.get(0).expect("k >= 1");
        for i in 1..k {
            let next = self.ir_shift.get(i).expect("in range");
            self.ir_shift.set(i - 1, next);
        }
        self.ir_shift.set(k - 1, bit);
        out
    }

    /// Transfers the shift stage into the active instruction (the paper's
    /// update mechanism). Unassigned opcodes fall back to BYPASS.
    pub fn update_ir(&mut self) {
        self.active = CasInstruction::decode(&self.ir_shift, self.schemes.len());
    }

    /// Resets to power-on state (BYPASS, cleared register).
    pub fn reset(&mut self) {
        let k = self.ir_shift.len();
        self.ir_shift.fill_range(0..k, false);
        self.active = CasInstruction::Bypass;
        self.config_line = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cas(n: usize, p: usize) -> Cas {
        Cas::for_geometry(CasGeometry::new(n, p).unwrap()).unwrap()
    }

    #[test]
    fn powers_on_in_bypass() {
        let c = cas(4, 2);
        assert_eq!(c.mode(), CasMode::Bypass);
        assert_eq!(*c.instruction(), CasInstruction::Bypass);
    }

    #[test]
    fn bypass_passes_all_wires() {
        let mut c = cas(5, 2);
        let bus: BitVec = "10110".parse().unwrap();
        let out = c.clock(&bus, &BitVec::zeros(2), CasControl::run()).unwrap();
        assert_eq!(out.bus_out, bus);
        assert_eq!(out.core_in, None, "core side tri-stated in bypass");
    }

    #[test]
    fn test_mode_routes_selected_wires() {
        let mut c = cas(4, 2);
        // Scheme with wires [2, 0]: e2->o0, e0->o1; i0->s2, i1->s0.
        let idx = c.schemes().index_of(&[2, 0]).unwrap();
        c.load_instruction(&CasInstruction::Test(idx));
        let out = c
            .clock(
                &"1010".parse().unwrap(),
                &"11".parse().unwrap(),
                CasControl::run(),
            )
            .unwrap();
        let core_in = out.core_in.unwrap();
        assert_eq!(core_in.get(0), Some(true), "o0 = e2 = 1");
        assert_eq!(core_in.get(1), Some(true), "o1 = e0 = 1");
        // s0 = i1 = 1, s2 = i0 = 1; wires 1 and 3 bypass (e1=0, e3=0).
        assert_eq!(out.bus_out.to_string(), "1010");
    }

    #[test]
    fn unselected_wires_bypass_in_test_mode() {
        let mut c = cas(6, 2);
        let idx = c.schemes().index_of(&[4, 5]).unwrap();
        c.load_instruction(&CasInstruction::Test(idx));
        let bus: BitVec = "111100".parse().unwrap();
        let out = c
            .clock(&bus, &"00".parse().unwrap(), CasControl::run())
            .unwrap();
        // Wires 0–3 bypass unchanged; wires 4, 5 carry the core outputs (0).
        assert_eq!(out.bus_out.to_string(), "111100");
    }

    #[test]
    fn serial_configuration_protocol() {
        let mut c = cas(4, 2);
        let k = c.instruction_width();
        let target = CasInstruction::Test(5);
        let bits = target.encode(c.schemes().len(), k);
        // Shift k bits over wire 0 with config asserted.
        for bit in bits.iter() {
            let mut bus = BitVec::zeros(4);
            bus.set(0, bit);
            let out = c
                .clock(&bus, &BitVec::zeros(2), CasControl::shift_config())
                .unwrap();
            assert_eq!(out.core_in, None, "tri-stated during configuration");
        }
        assert_eq!(
            *c.instruction(),
            CasInstruction::Bypass,
            "not active before update"
        );
        c.clock(&BitVec::zeros(4), &BitVec::zeros(2), CasControl::update())
            .unwrap();
        assert_eq!(*c.instruction(), target);
        assert_eq!(c.mode(), CasMode::Test);
    }

    #[test]
    fn config_mode_threads_wire0_and_bypasses_rest() {
        let mut c = cas(4, 1);
        // Preload the IR with ones so the shifted-out bits are visible.
        for _ in 0..c.instruction_width() {
            c.shift_ir(true);
        }
        let mut bus = BitVec::zeros(4);
        bus.set(1, true);
        bus.set(3, true);
        let out = c
            .clock(&bus, &BitVec::zeros(1), CasControl::shift_config())
            .unwrap();
        assert_eq!(out.bus_out.get(0), Some(true), "IR bit shifted out on s0");
        assert_eq!(out.bus_out.get(1), Some(true), "other wires bypass");
        assert_eq!(out.bus_out.get(3), Some(true));
        assert_eq!(c.mode(), CasMode::Configuration);
    }

    #[test]
    fn all_zero_register_is_bypass() {
        let mut c = cas(4, 2);
        c.load_instruction(&CasInstruction::Test(3));
        for _ in 0..c.instruction_width() {
            c.shift_ir(false);
        }
        c.update_ir();
        assert_eq!(*c.instruction(), CasInstruction::Bypass);
    }

    #[test]
    fn every_scheme_routes_injectively() {
        let mut c = cas(4, 3);
        for idx in 0..c.schemes().len() {
            c.load_instruction(&CasInstruction::Test(idx));
            // Drive distinct bus bits; each core input must equal its wire.
            let bus: BitVec = "1011".parse().unwrap();
            let out = c.clock(&bus, &BitVec::zeros(3), CasControl::run()).unwrap();
            let scheme = c.schemes().scheme(idx).unwrap();
            let core_in = out.core_in.unwrap();
            for port in 0..3 {
                assert_eq!(
                    core_in.get(port),
                    bus.get(scheme.wire_for_port(port)),
                    "scheme {idx} port {port}"
                );
            }
        }
    }

    #[test]
    fn no_wire_lost_in_test_mode() {
        // Permutation property: with core looping its inputs back next
        // cycle, every driven bit is observable somewhere. Here we check a
        // single cycle: the multiset {bus_out wires} = {bypassed e} ∪ {i}.
        let mut c = cas(5, 2);
        let idx = c.schemes().index_of(&[1, 3]).unwrap();
        c.load_instruction(&CasInstruction::Test(idx));
        let bus: BitVec = "10101".parse().unwrap();
        let core: BitVec = "11".parse().unwrap();
        let out = c.clock(&bus, &core, CasControl::run()).unwrap();
        assert_eq!(out.bus_out.get(0), bus.get(0));
        assert_eq!(out.bus_out.get(1), core.get(0));
        assert_eq!(out.bus_out.get(2), bus.get(2));
        assert_eq!(out.bus_out.get(3), core.get(1));
        assert_eq!(out.bus_out.get(4), bus.get(4));
    }

    #[test]
    fn wrong_widths_rejected() {
        let mut c = cas(4, 2);
        assert!(c
            .clock(&BitVec::zeros(3), &BitVec::zeros(2), CasControl::run())
            .is_err());
        assert!(c
            .clock(&BitVec::zeros(4), &BitVec::zeros(1), CasControl::run())
            .is_err());
        // The caller's core-side buffer must be P bits too.
        let err = c
            .clock_in_place(
                &mut BitVec::zeros(4),
                &BitVec::zeros(2),
                &mut BitVec::zeros(3),
                CasControl::run(),
            )
            .unwrap_err();
        assert_eq!(err, CasError::BadGeometry { n: 4, p: 3 });
    }

    #[test]
    fn reset_restores_power_on() {
        let mut c = cas(4, 2);
        c.load_instruction(&CasInstruction::Test(1));
        c.shift_ir(true);
        c.reset();
        assert_eq!(c.mode(), CasMode::Bypass);
        assert_eq!(c.ir_shift_stage().count_ones(), 0);
    }

    #[test]
    fn reconfiguration_mid_session() {
        // The paper's dynamic aspect: switch schemes between sessions
        // without touching anything else.
        let mut c = cas(4, 2);
        c.load_instruction(&CasInstruction::Test(0));
        assert_eq!(c.active_scheme().unwrap().wires(), &[0, 1]);
        let idx = c.schemes().index_of(&[3, 2]).unwrap();
        c.load_instruction(&CasInstruction::Test(idx));
        assert_eq!(c.active_scheme().unwrap().wires(), &[3, 2]);
    }
}
