//! The assembled SoC simulator: TAM + wrappers + behavioural cores.

use std::fmt;
use std::sync::Arc;

use casbus::{CasControl, CasError, CasMode, ConfigStream, Tam, TamConfiguration};
use casbus_obs::{MetricsRegistry, Probe, SignalId, TraceEvent, TraceSink, Wire4};
use casbus_p1500::{TestableCore, Wrapper, WrapperControl, WrapperInstruction};
use casbus_soc::{models, SocDescription};
use casbus_tpg::BitVec;

use crate::bus_core::SystemBusCore;
use crate::session::ClockKind;

/// Errors from the end-to-end simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A TAM-level error.
    Tam(CasError),
    /// A named core does not exist.
    UnknownCore(String),
    /// Per-CAS clock kinds had the wrong length.
    KindsLengthMismatch {
        /// Kinds supplied.
        got: usize,
        /// CASes present.
        expected: usize,
    },
    /// Wrapper-instruction vector had the wrong length.
    WrapperLengthMismatch {
        /// Instructions supplied.
        got: usize,
        /// Wrappers present.
        expected: usize,
    },
    /// Schedule construction or search failed.
    Schedule(casbus_controller::ScheduleError),
    /// A searched schedule's compiled-engine report did not reproduce the
    /// bit-serial reference — the bit-exact gate of
    /// [`run_program_searched`](crate::run_program_searched) refused to
    /// return it.
    SearchDiverged,
    /// Testing a device panicked. The pool worker survives and the run
    /// stops; a packed job's panic names the job's first die (a lane pass
    /// holds up to 64 dies of one defective core from anywhere in the lot).
    WorkerPanicked {
        /// The first die of the job that panicked.
        device_id: u64,
    },
    /// A session still had plan cycles to run when its step ended, and the
    /// program ended there or the next step loads its CAS with another
    /// scheme or its wrapper with another instruction: its observation
    /// window would be cut short.
    SessionCut {
        /// The core whose session was cut.
        core: String,
        /// The step it was running in.
        step: usize,
    },
    /// A tick of a test floor run panicked (a snapshot, a monitor or an
    /// admission decision). The run's queued jobs were dropped, so it ends
    /// instead of waiting on a lane a tick left paused.
    ObserverPanicked,
    /// A lot ended without exactly one report per requested device.
    LotIncomplete {
        /// The lot's name.
        lot: String,
        /// Devices the lot requested.
        requested: u64,
        /// Reports it collected.
        reported: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tam(e) => write!(f, "TAM error: {e}"),
            Self::UnknownCore(name) => write!(f, "unknown core {name:?}"),
            Self::KindsLengthMismatch { got, expected } => {
                write!(f, "{got} clock kinds for {expected} CASes")
            }
            Self::WrapperLengthMismatch { got, expected } => {
                write!(f, "{got} wrapper instructions for {expected} wrappers")
            }
            Self::Schedule(e) => write!(f, "schedule error: {e}"),
            Self::SearchDiverged => write!(
                f,
                "searched schedule's compiled report diverged from the bit-serial reference"
            ),
            Self::WorkerPanicked { device_id } => {
                write!(f, "worker panicked while testing device {device_id}")
            }
            Self::SessionCut { core, step } => write!(
                f,
                "{core:?}'s session outlasts step {step}, and no step carries it on the same \
                 scheme and wrapper instruction"
            ),
            Self::ObserverPanicked => write!(f, "the test floor's observer panicked"),
            Self::LotIncomplete {
                lot,
                requested,
                reported,
            } => write!(
                f,
                "lot {lot:?} collected {reported} reports for {requested} devices"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CasError> for SimError {
    fn from(e: CasError) -> Self {
        Self::Tam(e)
    }
}

impl From<casbus_controller::ScheduleError> for SimError {
    fn from(e: casbus_controller::ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// Per-core clock-kind cycle counts, maintained by
/// [`SocSimulator::data_clock`] at plain-field-increment cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCycleStats {
    /// Shift clocks seen by this wrapper.
    pub shift: u64,
    /// Capture clocks.
    pub capture: u64,
    /// Update clocks.
    pub update: u64,
    /// Idle/hold clocks.
    pub idle: u64,
}

impl CoreCycleStats {
    /// All data clocks this core's wrapper observed.
    pub fn total(&self) -> u64 {
        self.shift + self.capture + self.update + self.idle
    }
}

/// VCD signal handles declared by [`SocSimulator::attach_probe`].
struct ProbeSignals {
    /// Controller-visible phase: 00 CONFIGURATION, 01 UPDATE, 10 TEST.
    phase: SignalId,
    /// One scalar per test bus wire.
    bus: Vec<SignalId>,
    /// Per-CAS functional mode (2 bits).
    cas_mode: Vec<SignalId>,
    /// Per-CAS active scheme index (8 bits; X when not in TEST).
    cas_scheme: Vec<SignalId>,
    /// Per-wrapper WIR opcode (3 bits).
    wir: Vec<SignalId>,
    /// Per-wrapper data-clock kind (2 bits).
    wrapper_ctrl: Vec<SignalId>,
}

/// Phase codes on the `controller.phase` VCD wire.
const PHASE_CONFIGURATION: u64 = 0b00;
const PHASE_UPDATE: u64 = 0b01;
const PHASE_TEST: u64 = 0b10;

fn clock_kind_code(kind: ClockKind) -> u64 {
    match kind {
        ClockKind::Shift => 0,
        ClockKind::Capture => 1,
        ClockKind::Update => 2,
        ClockKind::Idle => 3,
    }
}

fn cas_mode_code(mode: CasMode) -> u64 {
    match mode {
        CasMode::Configuration => 0,
        CasMode::Bypass => 1,
        CasMode::Test => 2,
    }
}

/// Replaces characters VCD identifiers dislike.
pub(crate) fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The fully-assembled SoC under test: one wrapper + behavioural core per
/// CAS (the wrapped system bus, when present, is the last entry), threaded
/// on the CAS-BUS.
pub struct SocSimulator {
    soc: Arc<SocDescription>,
    tam: Tam,
    wrappers: Vec<Wrapper<Box<dyn TestableCore>>>,
    /// Retiming register between each wrapper's parallel output and its
    /// CAS core-side input; each data clock the wrapper writes its output
    /// straight into it.
    pending: Vec<BitVec>,
    /// The interpreter's per-cycle state, owned so a data clock allocates
    /// nothing of its own: the test bus as it leaves the chain (what
    /// [`SocSimulator::data_clock`] lends out), the bits each CAS presented
    /// to its core, whether each CAS was in TEST mode, and each wrapper's
    /// parallel input where it differs from what its CAS presented.
    bus: BitVec,
    core_in: Vec<BitVec>,
    tested: Vec<bool>,
    wpi: Vec<BitVec>,
    cycles: u64,
    /// Cycles spent in CONFIGURATION/UPDATE phases.
    config_cycles: u64,
    /// Cycles spent on data clocks (TEST phase, including idles).
    test_cycles: u64,
    /// Per-core clock-kind counts, indexed like `wrappers`.
    core_stats: Vec<CoreCycleStats>,
    /// Busy data-clock count per bus wire.
    wire_busy: Vec<u64>,
    /// Bus wires currently routed to each CAS (empty unless in TEST mode);
    /// recomputed after every configuration.
    routed: Vec<Vec<usize>>,
    probe: Option<Box<dyn Probe>>,
    signals: Option<ProbeSignals>,
    trace: Arc<dyn TraceSink>,
}

impl SocSimulator {
    /// Builds the simulator for `soc` over an `n`-wire test bus.
    ///
    /// # Errors
    ///
    /// Propagates TAM construction errors (bus too narrow, etc.).
    pub fn new(soc: &SocDescription, n: usize) -> Result<Self, SimError> {
        Self::new_shared(Arc::new(soc.clone()), n)
    }

    /// [`new`](Self::new) over an already-shared description: the simulator
    /// keeps the `Arc` instead of cloning the SoC, so fleet workers building
    /// thousands of devices from one description pay zero per-device copies.
    ///
    /// # Errors
    ///
    /// Propagates TAM construction errors (bus too narrow, etc.).
    pub fn new_shared(soc: Arc<SocDescription>, n: usize) -> Result<Self, SimError> {
        let tam = Tam::new(&soc, n)?;
        let mut wrappers: Vec<Wrapper<Box<dyn TestableCore>>> = Vec::new();
        for core in soc.cores() {
            wrappers.push(Wrapper::new(
                models::instantiate(core),
                core.functional_inputs(),
                core.functional_outputs(),
            ));
        }
        if soc.system_bus().is_some_and(|b| b.wrapped) {
            let width = soc.system_bus().map_or(8, |b| b.width);
            wrappers.push(Wrapper::new(
                Box::new(SystemBusCore::new("system_bus")) as Box<dyn TestableCore>,
                width,
                width,
            ));
        }
        let pending: Vec<BitVec> = tam
            .chain()
            .cases()
            .iter()
            .map(|c| BitVec::zeros(c.geometry().switched_wires()))
            .collect();
        let cas_count = wrappers.len();
        let wire_busy = vec![0; tam.bus_width()];
        let wpi = wrappers
            .iter()
            .map(|w| BitVec::zeros(w.parallel_width()))
            .collect();
        Ok(Self {
            soc,
            bus: BitVec::zeros(tam.bus_width()),
            core_in: pending.clone(),
            tested: vec![false; cas_count],
            wpi,
            tam,
            wrappers,
            pending,
            cycles: 0,
            config_cycles: 0,
            test_cycles: 0,
            core_stats: vec![CoreCycleStats::default(); cas_count],
            wire_busy,
            routed: vec![Vec::new(); cas_count],
            probe: None,
            signals: None,
            trace: casbus_obs::trace::null_sink(),
        })
    }

    /// The SoC description.
    pub fn soc(&self) -> &SocDescription {
        &self.soc
    }

    /// The TAM.
    pub fn tam(&self) -> &Tam {
        &self.tam
    }

    /// Test bus width.
    pub fn bus_width(&self) -> usize {
        self.tam.bus_width()
    }

    /// Total clocks driven so far (configuration + data).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Clocks spent in CONFIGURATION/UPDATE phases.
    pub fn config_cycles(&self) -> u64 {
        self.config_cycles
    }

    /// Clocks spent on data (TEST-phase) clocks, idles included.
    pub fn test_cycles(&self) -> u64 {
        self.test_cycles
    }

    /// Per-core clock-kind cycle counts, indexed by CAS position.
    pub fn core_stats(&self) -> &[CoreCycleStats] {
        &self.core_stats
    }

    /// Busy data-clock count per bus wire (a wire is busy when it is routed
    /// to a CAS in TEST mode whose wrapper performed a non-idle operation).
    pub fn wire_busy(&self) -> &[u64] {
        &self.wire_busy
    }

    /// Installs a trace sink. The default [`casbus_obs::NullSink`] is
    /// disabled, so instrumentation costs one branch per emission site.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = sink;
    }

    /// The active trace sink (shared with helpers like
    /// [`crate::session::run_core_session`]).
    pub fn trace(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.trace)
    }

    /// Attaches a waveform probe and declares the full signal hierarchy:
    ///
    /// ```text
    /// <soc>/controller/phase
    /// <soc>/bus/wire0..wireN-1
    /// <soc>/cas<i>_<core>/{mode, scheme}
    /// <soc>/wrapper<i>_<core>/{wir, ctrl}
    /// ```
    ///
    /// Subsequent [`SocSimulator::configure`] /
    /// [`SocSimulator::data_clock`] calls stream value changes into it.
    /// Pass an `Rc<RefCell<VcdWriter>>` clone (it implements [`Probe`]) to
    /// keep a handle for rendering the dump afterwards.
    pub fn attach_probe(&mut self, mut probe: Box<dyn Probe>) {
        probe.push_scope(&sanitize(self.soc.name()));
        probe.push_scope("controller");
        let phase = probe.add_wire("phase", 2);
        probe.pop_scope();
        probe.push_scope("bus");
        let bus = (0..self.tam.bus_width())
            .map(|w| probe.add_wire(&format!("wire{w}"), 1))
            .collect();
        probe.pop_scope();
        let mut cas_mode = Vec::new();
        let mut cas_scheme = Vec::new();
        let mut wir = Vec::new();
        let mut wrapper_ctrl = Vec::new();
        for idx in 0..self.wrappers.len() {
            let label = sanitize(self.tam.label(idx).unwrap_or("core"));
            probe.push_scope(&format!("cas{idx}_{label}"));
            cas_mode.push(probe.add_wire("mode", 2));
            cas_scheme.push(probe.add_wire("scheme", 8));
            probe.pop_scope();
            probe.push_scope(&format!("wrapper{idx}_{label}"));
            wir.push(probe.add_wire("wir", 3));
            wrapper_ctrl.push(probe.add_wire("ctrl", 2));
            probe.pop_scope();
        }
        probe.pop_scope();
        self.probe = Some(probe);
        self.signals = Some(ProbeSignals {
            phase,
            bus,
            cas_mode,
            cas_scheme,
            wir,
            wrapper_ctrl,
        });
    }

    /// Emits the post-configuration steady state (CAS modes/schemes, WIR
    /// opcodes) into the probe at the current time.
    fn probe_configuration_state(&mut self) {
        let Some(probe) = self.probe.as_mut() else {
            return;
        };
        let signals = self.signals.as_ref().expect("signals follow probe");
        for (idx, cas) in self.tam.chain().cases().iter().enumerate() {
            probe.change_u64(signals.cas_mode[idx], cas_mode_code(cas.mode()), 2);
            match cas.instruction() {
                casbus::CasInstruction::Test(i) => {
                    probe.change_u64(signals.cas_scheme[idx], *i as u64, 8);
                }
                _ => probe.change(signals.cas_scheme[idx], &[Wire4::X; 8]),
            }
        }
        for (idx, wrapper) in self.wrappers.iter().enumerate() {
            probe.change_u64(
                signals.wir[idx],
                u64::from(wrapper.instruction().opcode()),
                3,
            );
        }
    }

    /// Streams the serial configuration bits over the wire-0 waveform: one
    /// bit per clock with the phase wire at CONFIGURATION, then the update
    /// pulse.
    fn probe_config_stream(&mut self, stream: &BitVec, start: u64) {
        let Some(probe) = self.probe.as_mut() else {
            return;
        };
        let signals = self.signals.as_ref().expect("signals follow probe");
        for (i, bit) in stream.iter().enumerate() {
            probe.set_time(start + i as u64);
            probe.change_u64(signals.phase, PHASE_CONFIGURATION, 2);
            probe.change_bit(signals.bus[0], bit);
            for wire in &signals.bus[1..] {
                probe.change(*wire, &[Wire4::Z]);
            }
        }
        probe.set_time(start + stream.len() as u64);
        probe.change_u64(signals.phase, PHASE_UPDATE, 2);
        probe.change(signals.bus[0], &[Wire4::Z]);
    }

    /// Recomputes the per-CAS routed-wire sets after a configuration.
    fn refresh_routing(&mut self) {
        for (slot, cas) in self.routed.iter_mut().zip(self.tam.chain().cases()) {
            slot.clear();
            if let Some(scheme) = cas.active_scheme() {
                slot.extend_from_slice(scheme.wires());
            }
        }
    }

    /// Zeroes the CAS boundary retiming registers in place, except those of
    /// the CASes `kept` accepts.
    fn clear_pending(&mut self, kept: impl Fn(usize) -> bool) {
        let cases = self.tam.chain().cases();
        for (idx, (pending, cas)) in self.pending.iter_mut().zip(cases).enumerate() {
            if !kept(idx) {
                pending.clear();
                pending.resize(cas.geometry().switched_wires(), false);
            }
        }
    }

    /// Publishes the cycle aggregates into a metrics registry. Counter
    /// names: `sim.cycles.{total,config,test}`, `core.<name>.{shift,capture,
    /// update,idle}_cycles`, `bus.wire<i>.busy_cycles`. The invariant
    /// `sim.cycles.total == sim.cycles.config + sim.cycles.test` always
    /// holds, and `sim.cycles.total` equals [`SocSimulator::cycles`].
    pub fn export_metrics(&self, metrics: &MetricsRegistry) {
        metrics.set("sim.cycles.total", self.cycles);
        metrics.set("sim.cycles.config", self.config_cycles);
        metrics.set("sim.cycles.test", self.test_cycles);
        for (idx, stats) in self.core_stats.iter().enumerate() {
            let name = sanitize(self.tam.label(idx).unwrap_or("core"));
            metrics.set(&format!("core.{name}.shift_cycles"), stats.shift);
            metrics.set(&format!("core.{name}.capture_cycles"), stats.capture);
            metrics.set(&format!("core.{name}.update_cycles"), stats.update);
            metrics.set(&format!("core.{name}.idle_cycles"), stats.idle);
        }
        for (wire, busy) in self.wire_busy.iter().enumerate() {
            metrics.set(&format!("bus.wire{wire}.busy_cycles"), *busy);
        }
    }

    /// CAS index of a named core.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for bad names.
    pub fn cas_index(&self, core_name: &str) -> Result<usize, SimError> {
        self.tam
            .cas_for_core(core_name)
            .ok_or_else(|| SimError::UnknownCore(core_name.to_owned()))
    }

    /// Mutable access to one wrapper (e.g. for fault injection on the
    /// wrapped core).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for bad names.
    pub fn wrapper_mut(
        &mut self,
        core_name: &str,
    ) -> Result<&mut Wrapper<Box<dyn TestableCore>>, SimError> {
        let idx = self.cas_index(core_name)?;
        Ok(&mut self.wrappers[idx])
    }

    /// Restores power-on *device* state so a fleet worker can reuse one
    /// simulator across devices instead of rebuilding it: every wrapper is
    /// reset (WIR to Normal, boundary register rebuilt, core state
    /// cleared — injected faults on a swapped-in faulty core re-assert)
    /// and every CAS boundary retiming register is zeroed.
    ///
    /// Cycle counters, per-core statistics and wire-busy counts restart at
    /// zero, so a reused simulator reports and traces (span timestamps are
    /// its cycle counter) exactly what a fresh one would, whichever device
    /// it ran before. CAS instruction registers are left as-is: every
    /// program step begins with a full `configure`, which reloads them all
    /// before the first data clock.
    pub fn reset_device(&mut self) {
        for wrapper in &mut self.wrappers {
            wrapper.reset();
        }
        self.clear_pending(|_| false);
        (self.cycles, self.config_cycles, self.test_cycles) = (0, 0, 0);
        self.core_stats.fill(CoreCycleStats::default());
        self.wire_busy.fill(0);
    }

    /// Applies a TAM configuration through the serial protocol and sets each
    /// wrapper's instruction; counts the configuration cycles. Every CAS
    /// boundary retiming register starts the new configuration cleared.
    ///
    /// # Errors
    ///
    /// Propagates TAM errors; rejects mismatched wrapper vectors.
    pub fn configure(
        &mut self,
        config: &TamConfiguration,
        wrapper_instructions: &[WrapperInstruction],
    ) -> Result<(), SimError> {
        self.reconfigure(config, wrapper_instructions, |_| false)
    }

    /// [`configure`](Self::configure), keeping the retiming registers of the
    /// CASes `carried` accepts: their sessions resume after the shift, and a
    /// configuration shift clocks no data, so the register still holds the
    /// response of each session's last cycle.
    pub(crate) fn reconfigure(
        &mut self,
        config: &TamConfiguration,
        wrapper_instructions: &[WrapperInstruction],
        carried: impl Fn(usize) -> bool,
    ) -> Result<(), SimError> {
        self.check_wrapper_count(wrapper_instructions)?;
        // Reconstruct the serial stream up front when a probe wants the
        // wire-0 waveform; `Tam::configure` performs the shifts internally.
        let stream = if self.probe.is_some() {
            Some(ConfigStream::build(
                self.tam.chain().cases(),
                config.instructions(),
            )?)
        } else {
            None
        };
        let start = self.cycles;
        self.tam.configure(config)?;
        let clocks = self.tam.configuration_clocks() as u64 + 1;
        self.cycles += clocks;
        self.config_cycles += clocks;
        for (wrapper, instr) in self.wrappers.iter_mut().zip(wrapper_instructions) {
            wrapper.apply_instruction(*instr);
            // Loading a WIR costs its opcode width + update, synchronized
            // with (and hidden under) the CAS configuration phase when the
            // tri-state chaining mechanism of §3.1 is used.
        }
        // Clear the boundary retiming registers of the sessions that start.
        self.clear_pending(carried);
        self.refresh_routing();
        if let Some(stream) = stream {
            self.probe_config_stream(stream.bits(), start);
            self.probe_configuration_state();
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::span(
                "sim",
                "configure",
                start,
                clocks,
                vec![("bits", (clocks - 1).into()), ("chained", false.into())],
            ));
        }
        Ok(())
    }

    /// Loads a step's CAS instructions straight into the chain
    /// ([`Cas::load_instruction`](casbus::Cas::load_instruction)): no shift,
    /// cycle, span or probe event, and every wrapper keeps its instruction.
    /// The compiled engine judges a program's steps this way before its
    /// first configuration, which overwrites what was loaded.
    ///
    /// # Errors
    ///
    /// What [`configure`](Self::configure) refuses (a wrong instruction
    /// count, a scheme index out of range); nothing is loaded then.
    pub(crate) fn load_configuration(
        &mut self,
        config: &TamConfiguration,
        wrapper_instructions: &[WrapperInstruction],
    ) -> Result<(), SimError> {
        self.check_wrapper_count(wrapper_instructions)?;
        let (cases, instructions) = (self.tam.chain_mut().cases_mut(), config.instructions());
        if instructions.len() != cases.len() {
            let (got, expected) = (instructions.len(), cases.len());
            return Err(CasError::ConfigurationLengthMismatch { got, expected }.into());
        }
        for (cas, instruction) in cases.iter().zip(instructions) {
            if let casbus::CasInstruction::Test(index) = instruction {
                cas.schemes().scheme(*index)?;
            }
        }
        for (cas, instruction) in cases.iter_mut().zip(instructions) {
            cas.load_instruction(instruction);
        }
        Ok(())
    }

    /// Refuses a wrapper-instruction vector that does not hold one
    /// instruction per wrapper.
    fn check_wrapper_count(&self, instructions: &[WrapperInstruction]) -> Result<(), SimError> {
        let (got, expected) = (instructions.len(), self.wrappers.len());
        let mismatch = SimError::WrapperLengthMismatch { got, expected };
        (got == expected).then_some(()).ok_or(mismatch)
    }

    /// Applies a configuration through the paper's §3.1 **tri-state
    /// mechanism**: the CAS instruction registers *and* the wrapper
    /// instruction registers form one serial chain
    /// (`wire 0 → IR₀ → WIR₀ → IR₁ → WIR₁ → …`), so CAS schemes and wrapper
    /// modes load in a single CONFIGURATION phase. "When integrated, it
    /// simplifies the overall SoC test architecture configuration."
    ///
    /// Functionally equivalent to [`SocSimulator::configure`]; the cycle
    /// cost differs (one longer phase instead of a CAS phase plus hidden
    /// WIR loads).
    ///
    /// # Errors
    ///
    /// Propagates TAM errors; rejects mismatched wrapper vectors.
    pub fn configure_chained(
        &mut self,
        config: &TamConfiguration,
        wrapper_instructions: &[WrapperInstruction],
    ) -> Result<(), SimError> {
        self.check_wrapper_count(wrapper_instructions)?;
        if config.instructions().len() != self.wrappers.len() {
            return Err(SimError::Tam(
                casbus::CasError::ConfigurationLengthMismatch {
                    got: config.instructions().len(),
                    expected: self.wrappers.len(),
                },
            ));
        }
        // Build the combined stream: the earliest bits travel furthest, so
        // segments go in reverse chain order; within one CAS+wrapper unit
        // the WIR sits after the IR, hence its bits come first.
        let mut stream = BitVec::new();
        for (idx, (cas, instr)) in self
            .tam
            .chain()
            .cases()
            .iter()
            .zip(config.instructions())
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            stream.extend_from(&wrapper_instructions[idx].opcode_bits());
            if let casbus::CasInstruction::Test(i) = instr {
                cas.schemes().scheme(*i)?;
            }
            stream.extend_from(&instr.encode(cas.schemes().len(), cas.instruction_width()));
        }
        // Shift the chain one bit per clock, then one global update pulse.
        let start = self.cycles;
        for bit in stream.iter() {
            let mut carry = bit;
            for (cas, wrapper) in self
                .tam
                .chain_mut()
                .cases_mut()
                .iter_mut()
                .zip(self.wrappers.iter_mut())
            {
                carry = cas.shift_ir(carry);
                carry = wrapper.clock_serial(carry, &casbus_p1500::WrapperControl::shift_wir());
            }
            self.cycles += 1;
        }
        for (cas, wrapper) in self
            .tam
            .chain_mut()
            .cases_mut()
            .iter_mut()
            .zip(self.wrappers.iter_mut())
        {
            cas.update_ir();
            wrapper.clock_serial(false, &casbus_p1500::WrapperControl::update_wir());
        }
        self.cycles += 1;
        self.config_cycles += self.cycles - start;
        self.clear_pending(|_| false);
        self.refresh_routing();
        if self.probe.is_some() {
            self.probe_config_stream(&stream, start);
            self.probe_configuration_state();
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::span(
                "sim",
                "configure",
                start,
                self.cycles - start,
                vec![("bits", stream.len().into()), ("chained", true.into())],
            ));
        }
        Ok(())
    }

    /// Drives one data clock.
    ///
    /// `bus_in` enters the chain; `kinds[i]` says what CAS `i`'s wrapper
    /// does this clock (shift, capture, or hold). Returns the bus output at
    /// the chain's far end, lent from the simulator's own bus buffer. Each
    /// wrapper clocks its core into that wrapper's retiming register
    /// ([`Wrapper::clock_parallel_into`]), so the clock allocates nothing
    /// once the buffers have their widths; the borrow ends before the next
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches.
    pub fn data_clock(
        &mut self,
        bus_in: &BitVec,
        kinds: &[ClockKind],
    ) -> Result<&BitVec, SimError> {
        if kinds.len() != self.wrappers.len() {
            return Err(SimError::KindsLengthMismatch {
                got: kinds.len(),
                expected: self.wrappers.len(),
            });
        }
        let t = self.cycles;
        self.bus.copy_from(bus_in);
        self.tam.chain_mut().clock_in_place(
            &mut self.bus,
            &self.pending,
            &mut self.core_in,
            &mut self.tested,
            CasControl::run(),
        )?;
        for (idx, kind) in kinds.iter().enumerate() {
            let stats = &mut self.core_stats[idx];
            match kind {
                ClockKind::Shift => stats.shift += 1,
                ClockKind::Capture => stats.capture += 1,
                ClockKind::Update => stats.update += 1,
                ClockKind::Idle => stats.idle += 1,
            }
            if !matches!(kind, ClockKind::Idle) {
                for wire in &self.routed[idx] {
                    self.wire_busy[*wire] += 1;
                }
            }
        }
        for (idx, wrapper) in self.wrappers.iter_mut().enumerate() {
            let pending = &mut self.pending[idx];
            let cas_p = pending.len();
            // The wrapper only sees the TAM when its CAS routes wires to it;
            // outside a test mode its parallel output is all zeros.
            if !wrapper.instruction().is_test_mode() {
                pending.fill_range(0..cas_p, false);
                continue;
            }
            let ctrl = match kinds[idx] {
                ClockKind::Shift => WrapperControl::shift_data(),
                ClockKind::Capture => WrapperControl::capture_data(),
                ClockKind::Update => WrapperControl::update_data(),
                ClockKind::Idle => WrapperControl::default(),
            };
            // The wrapper reads what its CAS presented, truncated or
            // zero-padded to its parallel width (all zeros when the CAS is
            // not in TEST mode).
            let width = wrapper.parallel_width();
            let core_in = &self.core_in[idx];
            let wpi = if self.tested[idx] && core_in.len() == width {
                core_in
            } else {
                let wpi = &mut self.wpi[idx];
                if self.tested[idx] {
                    wpi.copy_from(core_in);
                } else {
                    wpi.clear();
                }
                wpi.resize(width, false);
                wpi
            };
            // The retiming register is the wrapper's output buffer: the
            // wrapper writes its parallel width, the CAS sees its own P.
            wrapper.clock_parallel_into(wpi, &ctrl, pending);
            pending.resize(cas_p, false);
        }
        self.cycles += 1;
        self.test_cycles += 1;
        if let Some(probe) = self.probe.as_mut() {
            let signals = self.signals.as_ref().expect("signals follow probe");
            probe.set_time(t);
            probe.change_u64(signals.phase, PHASE_TEST, 2);
            for (wire, id) in signals.bus.iter().enumerate() {
                probe.change_bit(*id, self.bus.get(wire).unwrap_or(false));
            }
            for (idx, kind) in kinds.iter().enumerate() {
                probe.change_u64(signals.wrapper_ctrl[idx], clock_kind_code(*kind), 2);
            }
        }
        Ok(&self.bus)
    }

    /// Whether a waveform probe is attached (the compiled engine falls back
    /// to the cycle-by-cycle path so every bus value change is emitted).
    pub(crate) fn has_probe(&self) -> bool {
        self.probe.is_some()
    }

    /// One wrapper by CAS index (for engine eligibility checks).
    pub(crate) fn wrapper_at(&self, idx: usize) -> &Wrapper<Box<dyn TestableCore>> {
        &self.wrappers[idx]
    }

    /// One CAS's wrapper and its boundary retiming register, mutably: the
    /// compiled engine reads a resumed lane's first observation slot from
    /// the register and leaves its last response there.
    pub(crate) fn lane_mut(
        &mut self,
        idx: usize,
    ) -> (&mut Wrapper<Box<dyn TestableCore>>, &mut BitVec) {
        (&mut self.wrappers[idx], &mut self.pending[idx])
    }

    /// Advances the data-clock counters by `n` cycles without simulating
    /// them (the compiled engine accounts for batched cycles arithmetically).
    pub(crate) fn advance_data_cycles(&mut self, n: u64) {
        self.cycles += n;
        self.test_cycles += n;
    }

    /// Per-core stats, mutably (engine arithmetic accounting).
    pub(crate) fn core_stats_mut(&mut self) -> &mut [CoreCycleStats] {
        &mut self.core_stats
    }

    /// Per-wire busy counters, mutably (engine arithmetic accounting).
    pub(crate) fn wire_busy_mut(&mut self) -> &mut [u64] {
        &mut self.wire_busy
    }
}

impl fmt::Debug for SocSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocSimulator")
            .field("soc", &self.soc.name())
            .field("bus_width", &self.bus_width())
            .field("cas_count", &self.tam.cas_count())
            .field("cycles", &self.cycles)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::catalog;

    #[test]
    fn builds_figure1() {
        let soc = catalog::figure1_soc();
        let sim = SocSimulator::new(&soc, 4).unwrap();
        assert_eq!(sim.tam().cas_count(), 7);
        assert_eq!(sim.cycles(), 0);
        assert!(format!("{sim:?}").contains("figure1"));
    }

    #[test]
    fn bypass_transport_is_transparent() {
        let soc = catalog::figure2b_bist_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let kinds = vec![ClockKind::Idle; 2];
        let out = sim.data_clock(&"101".parse().unwrap(), &kinds).unwrap();
        assert_eq!(out.to_string(), "101");
        assert_eq!(sim.cycles(), 1);
    }

    #[test]
    fn configure_counts_cycles() {
        let soc = catalog::figure2b_bist_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let config = TamConfiguration::all_bypass(2);
        sim.configure(&config, &[WrapperInstruction::Bypass; 2])
            .unwrap();
        assert_eq!(sim.cycles(), sim.tam().configuration_clocks() as u64 + 1);
    }

    #[test]
    fn wrapper_vector_validated() {
        let soc = catalog::figure2b_bist_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let config = TamConfiguration::all_bypass(2);
        let err = sim
            .configure(&config, &[WrapperInstruction::Bypass])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::WrapperLengthMismatch {
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn kinds_vector_validated() {
        let soc = catalog::figure2b_bist_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let err = sim
            .data_clock(&BitVec::zeros(3), &[ClockKind::Idle])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::KindsLengthMismatch {
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn unknown_core_rejected() {
        let soc = catalog::figure2b_bist_soc();
        let sim = SocSimulator::new(&soc, 3).unwrap();
        assert_eq!(
            sim.cas_index("ghost"),
            Err(SimError::UnknownCore("ghost".into()))
        );
    }

    #[test]
    fn chained_configuration_matches_direct_configuration() {
        let soc = catalog::figure2a_scan_soc();
        let build_config = |sim: &SocSimulator| {
            let mut config = TamConfiguration::all_bypass(sim.tam().cas_count());
            config
                .set(0, sim.tam().contiguous_test(0, 1).unwrap())
                .unwrap();
            let mut wrappers = vec![WrapperInstruction::Bypass; sim.tam().cas_count()];
            wrappers[0] = WrapperInstruction::IntestScan;
            (config, wrappers)
        };
        let mut direct = SocSimulator::new(&soc, 4).unwrap();
        let (config, wrappers) = build_config(&direct);
        direct.configure(&config, &wrappers).unwrap();

        let mut chained = SocSimulator::new(&soc, 4).unwrap();
        chained.configure_chained(&config, &wrappers).unwrap();

        // Both paths must leave identical CAS instructions and wrapper modes.
        for idx in 0..direct.tam().cas_count() {
            assert_eq!(
                direct.tam().chain().cases()[idx].instruction(),
                chained.tam().chain().cases()[idx].instruction(),
                "CAS {idx}"
            );
            assert_eq!(
                direct.wrappers[idx].instruction(),
                chained.wrappers[idx].instruction(),
                "wrapper {idx}"
            );
        }
        // Chained configuration costs sum(k_i + WIR bits) + 1 cycles.
        let k_total = direct.tam().configuration_clocks() as u64;
        let wir_total = 3 * direct.tam().cas_count() as u64;
        assert_eq!(chained.cycles(), k_total + wir_total + 1);
    }

    #[test]
    fn chained_configuration_sessions_still_pass() {
        let soc = catalog::figure2b_bist_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let mut config = TamConfiguration::all_bypass(2);
        config
            .set(1, sim.tam().contiguous_test(1, 0).unwrap())
            .unwrap();
        let wrappers = vec![WrapperInstruction::Bypass, WrapperInstruction::IntestBist];
        sim.configure_chained(&config, &wrappers).unwrap();
        assert!(sim.tam().chain().cases()[1].instruction().is_test());
        assert_eq!(
            sim.wrappers[1].instruction(),
            WrapperInstruction::IntestBist
        );
    }

    #[test]
    fn data_reaches_a_configured_core_and_returns() {
        // Configure the scan core of figure2a on wires 0..3, stream a bit in
        // and observe it coming back after chain-depth cycles (+1 retiming).
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 3).unwrap();
        let idx = sim.cas_index("scan3").unwrap();
        let mut config = TamConfiguration::all_bypass(sim.tam().cas_count());
        config
            .set(idx, sim.tam().contiguous_test(idx, 0).unwrap())
            .unwrap();
        let mut wrappers = vec![WrapperInstruction::Bypass; 2];
        wrappers[idx] = WrapperInstruction::IntestScan;
        sim.configure(&config, &wrappers).unwrap();

        // Chain 0 of scan3 is 30 deep; drive a single 1 then zeros.
        let kinds: Vec<ClockKind> = vec![ClockKind::Shift, ClockKind::Idle];
        let mut first_seen = None;
        for t in 0..40 {
            let mut bus = BitVec::zeros(3);
            if t == 0 {
                bus.set(0, true);
            }
            let out = sim.data_clock(&bus, &kinds).unwrap();
            if out.get(0) == Some(true) && first_seen.is_none() {
                first_seen = Some(t);
            }
        }
        // Enters at t=0, leaves the 30-deep chain during t=30, crosses the
        // retiming register, and appears on the bus at t=31.
        assert_eq!(first_seen, Some(31));
    }
}
