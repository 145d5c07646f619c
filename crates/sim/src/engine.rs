//! The compiled word-level execution engine.
//!
//! [`run_program`](crate::run_program) semantics, 3–11× faster than the
//! bit-serial interpreter single-threaded (`BENCH_soc_sim.json`: 11.0× on
//! Figure 1, 8.9× on the ITC'02-like SoC, 2.7× on the 240-cycle
//! hierarchical SoC). Instead of interpreting the CAS chain bit by bit
//! every data clock, the engine takes each tested core's wires from its
//! CAS's active scheme and streams the core's scan traffic through the
//! word-level wrapper/model paths, 64 cycles per call. That is exact only
//! while every such *lane* owns its wires: no other TEST CAS injects on
//! them upstream or overwrites them downstream. The step's [`RouteTable`]
//! answers that once per configuration wave. A lane's stimulus planes and
//! golden response words come from its core's compiled session, built on
//! the engine's first run and reused by its later runs and by its clones.
//! A step's lanes run one after another on the caller's thread: a serving
//! path gets its parallelism across devices (one engine per worker), not
//! within one device's step. Each lane observes its own plan's `len`
//! slots, whatever else runs in the step; the step's longest plan sets
//! only the cycle counters and which lane's last shifted word stays in
//! its retiming register. Cycle counters, per-core stats, wire-busy
//! counts, verdicts, and session signatures are reproduced exactly — the
//! differential suite in `tests/` pins the engine against the bit-serial
//! reference.
//!
//! An enabled trace sink keeps the fast path: the engine emits the same
//! per-lane `session` spans the interpreter does (the simulator emits the
//! `configure` spans either way), so a traced run's canonical JSONL matches
//! the reference's byte for byte.
//!
//! Exactness is preserved by falling back to the cycle-by-cycle
//! interpreter whenever the fast path cannot be bit-faithful:
//!
//! * a waveform probe is attached (every bus value change must be
//!   emitted),
//! * a step's routing shares wires serially between TEST CASes (cores
//!   concatenate through each other),
//! * a lane's wrapper is not in an INTEST mode, or its port/wire widths
//!   disagree (the interpreter's resize semantics would apply).

use std::sync::Arc;

use casbus::{CasChain, RouteTable, RouteTableCache, TamConfiguration};
use casbus_controller::TestProgram;
use casbus_p1500::{TestableCore, Wrapper, WrapperControl, WrapperInstruction};
use casbus_tpg::bits::low_mask;
use casbus_tpg::BitVec;

use crate::report::{
    collect_lanes, drive_lanes_reference, finish_report, record_session_spans, Lane, LaneResult,
    ReportBaseline, SocTestReport,
};
use crate::session::{
    lane_signature, push_zeros, verdict, window_stream, CompiledSession, ReferenceSession, Segment,
    SessionCache,
};
use crate::simulator::{SimError, SocSimulator};

/// A step's lane with its core's compiled session.
pub(crate) type SessionLane = Lane<Arc<CompiledSession>>;

/// The compiled word-level TAM/session engine. Drop-in for the reference
/// interpreter: identical [`SocTestReport`]s, cycle counters, and metrics.
///
/// # Examples
///
/// ```
/// use casbus::Tam;
/// use casbus_controller::{schedule, TestProgram};
/// use casbus_sim::{CompiledEngine, SocSimulator};
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let tam = Tam::new(&soc, 8).unwrap();
/// let sched = schedule::packed_schedule(&soc, 8).unwrap();
/// let program = TestProgram::from_schedule(&tam, &soc, &sched).unwrap();
/// let mut sim = SocSimulator::new(&soc, 8).unwrap();
/// let report = CompiledEngine::new().run(&mut sim, &program).unwrap();
/// assert!(report.all_pass());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompiledEngine {
    cache: Option<Arc<RouteTableCache>>,
    /// Compiled sessions, built on first use and shared with every clone.
    sessions: Arc<SessionCache>,
}

impl CompiledEngine {
    /// A compiled engine with no route-table cache (the engine
    /// [`run_program`](crate::run_program) uses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a shared [`RouteTableCache`]: per-step route compilation
    /// becomes a hash lookup whenever the wave shape repeats, and every
    /// engine (or validation worker) holding a clone of the same `Arc`
    /// shares one compiled copy per shape. Routing results are unchanged —
    /// the cache is keyed on exactly the compilation inputs.
    pub fn with_cache(mut self, cache: Arc<RouteTableCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Shares `sessions` with this engine: a core whose session another
    /// holder of the `Arc` already compiled is not compiled again.
    pub(crate) fn with_sessions(mut self, sessions: Arc<SessionCache>) -> Self {
        self.sessions = sessions;
        self
    }

    /// The configured step's lanes with their compiled sessions.
    pub(crate) fn session_lanes(
        &self,
        sim: &SocSimulator,
        config: &TamConfiguration,
    ) -> Result<Vec<SessionLane>, SimError> {
        collect_lanes(sim, config, |desc| self.sessions.get_or_compile(desc))
    }

    /// The step's compiled routes: through the attached cache when present,
    /// a fresh compile otherwise.
    fn routes_for(&self, chain: &CasChain) -> Arc<RouteTable> {
        match &self.cache {
            Some(cache) => cache.get_or_compile(chain),
            None => Arc::new(RouteTable::compile(chain)),
        }
    }

    /// Executes a test program; see [`run_program`](crate::run_program) for
    /// the step semantics. The run's counters stay on the simulator:
    /// [`SocSimulator::export_metrics`] publishes them afterwards.
    ///
    /// # Errors
    ///
    /// Propagates configuration and width errors.
    pub fn run(
        &self,
        sim: &mut SocSimulator,
        program: &TestProgram,
    ) -> Result<SocTestReport, SimError> {
        let baseline = ReportBaseline::capture(sim);
        // A probe wants every per-cycle bus value: stay bit-serial.
        let exact_only = sim.has_probe();
        let mut results = Vec::new();
        for (step_index, step) in program.steps().iter().enumerate() {
            let step_start = sim.cycles();
            sim.configure(&step.configuration, &step.wrapper_instructions)?;
            let routes = self.routes_for(sim.tam().chain());
            let compiled = if exact_only {
                None
            } else {
                let lanes = self.session_lanes(sim, &step.configuration)?;
                step_compile_blocker(sim, &lanes, &routes)
                    .is_none()
                    .then_some(lanes)
            };
            let step_results = match compiled {
                Some(lanes) => drive_lanes_compiled(sim, &lanes),
                None => {
                    let mut lanes = collect_lanes(sim, &step.configuration, ReferenceSession::new)?;
                    drive_lanes_reference(sim, &mut lanes)?
                }
            };
            record_session_spans(sim, &step_results, step_index, step_start);
            results.extend(step_results);
        }
        finish_report(sim, &baseline, results, program.steps().len())
    }
}

/// Runs one compilable step's lanes word-at-a-time, one after another,
/// and accounts arithmetically for every counter the interpreter's
/// per-cycle loop would have bumped over the step's `horizon` data clocks.
/// Returns one result per lane, in lane order.
fn drive_lanes_compiled(sim: &mut SocSimulator, lanes: &[SessionLane]) -> Vec<LaneResult> {
    let horizon = lanes.iter().map(|l| l.session.len()).max().unwrap_or(0);
    sim.advance_data_cycles(horizon as u64);
    // Every wrapper idles through the step except while its lane's plan
    // runs.
    for stat in sim.core_stats_mut() {
        stat.idle += horizon as u64;
    }
    let mut step_results = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let outcome = run_lane(&mut sim.wrappers_mut_slice()[lane.cas_index], lane, horizon);
        sim.set_pending(lane.cas_index, outcome.pending);
        let len = lane.session.len() as u64;
        let shifts = lane.session.shift_cycles() as u64;
        let stat = &mut sim.core_stats_mut()[lane.cas_index];
        stat.shift += shifts;
        stat.capture += len - shifts;
        stat.idle -= len;
        // Every plan cycle is Shift or Capture, so the lane's wires are
        // busy for exactly `len` clocks.
        let busy = sim.wire_busy_mut();
        for &wire in &lane.wires {
            busy[wire] += len;
        }
        step_results.push(LaneResult {
            name: lane.name.clone(),
            cas_index: lane.cas_index,
            data_cycles: lane.session.len(),
            verdict: verdict(outcome.mismatches),
            signature: outcome.signature,
        });
    }
    step_results
}

/// Why a configured step cannot run on the word-level fast path. Each
/// variant names the [`step_compile_blocker`] clause that failed — the
/// packed fleet path exports these as `fleet.packed.fallback.reason.*`
/// counters so coverage gaps are observable instead of inferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompileBlocker {
    /// A lane's routes share wires serially with another CAS.
    DependentRoutes,
    /// A tested wrapper is not in a transparent INTEST mode.
    NonIntestWrapper,
    /// Scheme width, plan width, and wrapper width disagree.
    WidthMismatch,
    /// A test-mode wrapper outside the lanes would still be clocked.
    ArmedBystander,
}

impl CompileBlocker {
    /// Stable metric-suffix name for this blocker.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            Self::DependentRoutes => "step.dependent_routes",
            Self::NonIntestWrapper => "step.non_intest_wrapper",
            Self::WidthMismatch => "step.width_mismatch",
            Self::ArmedBystander => "step.armed_bystander",
        }
    }
}

/// The first reason the configured step cannot run on the word-level fast
/// path while staying bit-identical to the interpreter, or `None` when it
/// can. `routes` must be compiled from the chain's current
/// (post-`configure`) state. Also the gate the packed device-parallel fleet
/// path uses: its lane-containment argument (a defect on one core perturbs
/// only that core's verdict and signature) holds exactly when every step
/// passes.
pub(crate) fn step_compile_blocker(
    sim: &SocSimulator,
    lanes: &[SessionLane],
    routes: &RouteTable,
) -> Option<CompileBlocker> {
    let mut is_lane = vec![false; sim.tam().cas_count()];
    for lane in lanes {
        is_lane[lane.cas_index] = true;
        // Exclusive straight-through wires: no serial concatenation.
        if !routes.is_independent(lane.cas_index) {
            return Some(CompileBlocker::DependentRoutes);
        }
        let wrapper = sim.wrapper_at(lane.cas_index);
        // INTEST modes are transparent shift pipes (wrapper output =
        // model output); EXTEST threads the boundary register per cycle.
        if !matches!(
            wrapper.instruction(),
            WrapperInstruction::IntestScan | WrapperInstruction::IntestBist
        ) {
            return Some(CompileBlocker::NonIntestWrapper);
        }
        let ports = lane.session.ports();
        // Identity resize: scheme width == plan width == wrapper width.
        if lane.wires.len() != ports || wrapper.parallel_width() != ports {
            return Some(CompileBlocker::WidthMismatch);
        }
    }
    // A test-mode wrapper outside the lanes (e.g. a wrapped system bus left
    // armed) would still be clocked by the interpreter: stay exact.
    if (0..sim.tam().cas_count())
        .all(|idx| is_lane[idx] || !sim.wrapper_at(idx).instruction().is_test_mode())
    {
        None
    } else {
        Some(CompileBlocker::ArmedBystander)
    }
}

/// What one lane's batched session produced.
struct LaneOutcome {
    /// Bit mismatches against the golden model (the interpreter's
    /// `compare`, including its observation-window skip rule).
    mismatches: usize,
    /// [`lane_signature`] over the port-major observed streams.
    signature: u64,
    /// End-of-step value of the CAS boundary retiming register.
    pending: BitVec,
}

/// Streams one lane's compiled session through the word-level wrapper path,
/// 64 cycles per call, comparing every produced word with the session's
/// golden response.
///
/// Equivalence to the interpreter, per data clock `t` of the step: the bus
/// slice the interpreter records at `t` is the retimed wrapper output of
/// cycle `t - 1` (zeros at `t = 0`, because `configure` clears the retiming
/// register), and it records slices only while `t < plan.len()`, whatever
/// the step's `horizon`. So cycle `t`'s output is compared and recorded iff
/// `t + 1 < plan.len()`: each segment's `observed` prefix, which leaves out
/// only the plan's final drain shift.
fn run_lane(
    wrapper: &mut Wrapper<Box<dyn TestableCore>>,
    lane: &SessionLane,
    horizon: usize,
) -> LaneOutcome {
    let session = &lane.session;
    let ports = session.ports();
    let len = session.len();
    let mut mismatches = 0usize;
    let mut streams: Vec<BitVec> = (0..ports).map(|_| window_stream(len)).collect();
    let mut last_bits = BitVec::zeros(ports);
    let capture_inputs = BitVec::zeros(ports);
    for segment in session.segments() {
        match *segment {
            Segment::Shift {
                cycles,
                observed,
                planes,
            } => {
                let produced = wrapper.clock_parallel_words(session.stimulus(planes), cycles);
                let expected = session.golden(planes);
                let mask = low_mask(observed);
                for (j, stream) in streams.iter_mut().enumerate() {
                    mismatches += ((produced[j] ^ expected[j]) & mask).count_ones() as usize;
                    stream.push_word(produced[j], observed);
                    last_bits.set(j, (produced[j] >> (cycles - 1)) & 1 == 1);
                }
            }
            Segment::Capture { count, observed } => {
                // Fire the functional clock. The wrapper returns zeros on
                // non-shift clocks, so every observed capture slot is
                // all-zero.
                for _ in 0..count {
                    wrapper.clock_parallel(&capture_inputs, &WrapperControl::capture_data());
                }
                for stream in &mut streams {
                    push_zeros(stream, observed);
                }
                last_bits.fill_range(0..ports, false);
            }
        }
    }
    // Idle clocks past the plan leave the wrapper untouched and drive zeros
    // into the retiming register; only the step's longest lane keeps its
    // final shifted word pending.
    let pending = if horizon > len {
        BitVec::zeros(ports)
    } else {
        last_bits
    };
    LaneOutcome {
        mismatches,
        signature: lane_signature(&streams),
        pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus::Tam;
    use casbus_controller::{schedule, TestProgram};
    use casbus_obs::MetricsRegistry;
    use casbus_soc::catalog;

    use crate::report::{run_program, run_program_reference};

    fn program_for(soc: &casbus_soc::SocDescription, n: usize, packed: bool) -> TestProgram {
        let tam = Tam::new(soc, n).unwrap();
        let sched = if packed {
            schedule::packed_schedule(soc, n).unwrap()
        } else {
            schedule::serial_schedule(soc, n).unwrap()
        };
        TestProgram::from_schedule(&tam, soc, &sched).unwrap()
    }

    fn assert_engines_agree(soc: &casbus_soc::SocDescription, n: usize, packed: bool) {
        assert_program_agrees(soc, n, &program_for(soc, n, packed));
    }

    /// Runs a program on the reference interpreter and on the compiled
    /// engine; everything must be bit-identical.
    fn assert_program_agrees(soc: &casbus_soc::SocDescription, n: usize, program: &TestProgram) {
        assert_prepared_program_agrees(soc, n, program, |_| {});
    }

    /// [`assert_program_agrees`] on simulators that `prepare` modified
    /// first (a swapped-in core model, say).
    fn assert_prepared_program_agrees(
        soc: &casbus_soc::SocDescription,
        n: usize,
        program: &TestProgram,
        prepare: impl Fn(&mut SocSimulator),
    ) {
        let mut ref_sim = SocSimulator::new(soc, n).unwrap();
        prepare(&mut ref_sim);
        let reference = run_program_reference(&mut ref_sim, program).unwrap();
        let ref_metrics = MetricsRegistry::new();
        ref_sim.export_metrics(&ref_metrics);
        let mut sim = SocSimulator::new(soc, n).unwrap();
        prepare(&mut sim);
        let compiled = CompiledEngine::new().run(&mut sim, program).unwrap();
        let metrics = MetricsRegistry::new();
        sim.export_metrics(&metrics);
        assert_eq!(compiled, reference, "report diverged");
        assert_eq!(sim.cycles(), ref_sim.cycles());
        assert_eq!(sim.config_cycles(), ref_sim.config_cycles());
        assert_eq!(sim.test_cycles(), ref_sim.test_cycles());
        assert_eq!(sim.core_stats(), ref_sim.core_stats());
        assert_eq!(sim.wire_busy(), ref_sim.wire_busy());
        assert_eq!(metrics.to_json(), ref_metrics.to_json());
    }

    #[test]
    fn figure1_packed_matches_reference() {
        assert_engines_agree(&catalog::figure1_soc(), 8, true);
    }

    #[test]
    fn figure1_serial_matches_reference() {
        assert_engines_agree(&catalog::figure1_soc(), 8, false);
    }

    #[test]
    fn scan_soc_narrow_bus_matches_reference() {
        assert_engines_agree(&catalog::figure2a_scan_soc(), 4, false);
    }

    #[test]
    fn bist_soc_matches_reference() {
        assert_engines_agree(&catalog::figure2b_bist_soc(), 3, true);
    }

    #[test]
    fn external_soc_matches_reference() {
        assert_engines_agree(&catalog::figure2c_external_soc(), 4, true);
    }

    #[test]
    fn hierarchical_soc_matches_reference() {
        assert_engines_agree(&catalog::figure2d_hierarchical_soc(), 4, false);
    }

    #[test]
    fn itc02_like_soc_matches_reference() {
        assert_engines_agree(&catalog::itc02_like_soc(), 16, true);
    }

    #[test]
    fn compiled_engine_detects_injected_fault() {
        let soc = catalog::figure2a_scan_soc();
        let program = program_for(&soc, 4, false);
        let break_core = |sim: &mut SocSimulator| {
            let wrapper = sim.wrapper_mut("scan3").unwrap();
            let mut faulty = casbus_soc::models::ScanCore::new("scan3", vec![30, 28, 32]);
            faulty.inject_stuck_at(1, 14, true);
            *wrapper = casbus_p1500::Wrapper::new(Box::new(faulty) as Box<dyn TestableCore>, 8, 8);
        };
        let mut ref_sim = SocSimulator::new(&soc, 4).unwrap();
        break_core(&mut ref_sim);
        let reference = run_program_reference(&mut ref_sim, &program).unwrap();
        assert!(!reference.all_pass());

        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        break_core(&mut sim);
        let compiled = CompiledEngine::new().run(&mut sim, &program).unwrap();
        assert_eq!(compiled, reference, "identical failure report");
        assert_eq!(
            compiled.verdict("scan3"),
            reference.verdict("scan3"),
            "same mismatch count"
        );
    }

    /// A one-step program, built by hand: the schedule compiler never
    /// emits the steps the fallback tests need.
    fn one_step(
        configuration: TamConfiguration,
        wrapper_instructions: Vec<WrapperInstruction>,
        duration: u64,
    ) -> TestProgram {
        let mut program = TestProgram::new();
        program.push(casbus_controller::TestStep {
            configuration,
            wrapper_instructions,
            duration,
            description: "hand-built".into(),
        });
        program
    }

    /// Why `program`'s first step stays off the fast path on a fresh
    /// simulator that `prepare` modified first.
    fn first_step_blocker(
        soc: &casbus_soc::SocDescription,
        n: usize,
        program: &TestProgram,
        prepare: impl Fn(&mut SocSimulator),
    ) -> Option<CompileBlocker> {
        let step = &program.steps()[0];
        let mut sim = SocSimulator::new(soc, n).unwrap();
        prepare(&mut sim);
        sim.configure(&step.configuration, &step.wrapper_instructions)
            .unwrap();
        let lanes = CompiledEngine::new()
            .session_lanes(&sim, &step.configuration)
            .unwrap();
        step_compile_blocker(&sim, &lanes, &RouteTable::compile(sim.tam().chain()))
    }

    /// Two single-chain scan cores, `front` (5 flops) then `back` (7).
    fn front_and_back() -> casbus_soc::SocDescription {
        let scan = |name: &str, depth: usize| {
            let method = casbus_soc::TestMethod::Scan {
                chains: vec![depth],
                patterns: 4,
            };
            casbus_soc::CoreDescription::new(name, method)
        };
        casbus_soc::SocBuilder::new("daisy")
            .core(scan("front", 5))
            .core(scan("back", 7))
            .build()
            .unwrap()
    }

    #[test]
    fn dependent_routes_fall_back_to_the_reference_and_stay_exact() {
        // Two scan cores in series on wire 0 (`tests/daisy_chain.rs`).
        // `Schedule::from_tests` rejects wire conflicts, so no
        // schedule-compiled program reaches this step: it is built by hand.
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let mut configuration = TamConfiguration::all_bypass(2);
        for cas in 0..2 {
            let on_wire0 = sim.tam().explicit_test(cas, vec![0]).unwrap();
            configuration.set(cas, on_wire0).unwrap();
        }
        let instructions = vec![WrapperInstruction::IntestScan; 2];
        let program = one_step(configuration, instructions, 4 * (7 + 1) + 7);
        assert_eq!(
            first_step_blocker(&soc, 2, &program, |_| {}),
            Some(CompileBlocker::DependentRoutes)
        );
        assert_program_agrees(&soc, 2, &program);
    }

    #[test]
    fn a_non_intest_wrapper_falls_back_to_the_reference_and_stays_exact() {
        // A TEST CAS whose wrapper is loaded with EXTEST: the plan's scan
        // stimulus threads the boundary register instead of the chain.
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let mut configuration = TamConfiguration::all_bypass(2);
        configuration
            .set(0, sim.tam().contiguous_test(0, 0).unwrap())
            .unwrap();
        let instructions = vec![WrapperInstruction::Extest, WrapperInstruction::Bypass];
        let program = one_step(configuration, instructions, 4 * (5 + 1) + 5);
        assert_eq!(
            first_step_blocker(&soc, 2, &program, |_| {}),
            Some(CompileBlocker::NonIntestWrapper)
        );
        assert_program_agrees(&soc, 2, &program);
    }

    #[test]
    fn an_armed_bystander_falls_back_to_the_reference_and_stays_exact() {
        // `back` is tested on wire 0; `front` sits behind a BYPASS CAS with
        // its wrapper still in INTEST, so the interpreter keeps clocking it.
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let mut configuration = TamConfiguration::all_bypass(2);
        configuration
            .set(1, sim.tam().contiguous_test(1, 0).unwrap())
            .unwrap();
        let instructions = vec![WrapperInstruction::IntestScan; 2];
        let program = one_step(configuration, instructions, 4 * (7 + 1) + 7);
        assert_eq!(
            first_step_blocker(&soc, 2, &program, |_| {}),
            Some(CompileBlocker::ArmedBystander)
        );
        assert_program_agrees(&soc, 2, &program);
    }

    #[test]
    fn a_width_mismatch_falls_back_to_the_reference_and_stays_exact() {
        // A scheme always has its CAS's `P` wires, and the plan is `P`
        // wide, so only the wrapper can disagree: `SocSimulator::wrapper_mut`
        // swaps in a two-chain model behind the three-port CAS of `scan3`.
        let soc = catalog::figure2a_scan_soc();
        let narrow = |sim: &mut SocSimulator| {
            let core = casbus_soc::models::ScanCore::new("scan3", vec![30, 28]);
            let wrapper = sim.wrapper_mut("scan3").unwrap();
            *wrapper = casbus_p1500::Wrapper::new(Box::new(core) as Box<dyn TestableCore>, 8, 8);
        };
        let sim = SocSimulator::new(&soc, 4).unwrap();
        let mut configuration = TamConfiguration::all_bypass(2);
        configuration
            .set(0, sim.tam().contiguous_test(0, 0).unwrap())
            .unwrap();
        let instructions = vec![WrapperInstruction::IntestScan, WrapperInstruction::Bypass];
        let program = one_step(configuration, instructions, 40 * (32 + 1) + 32);
        assert_eq!(
            first_step_blocker(&soc, 4, &program, narrow),
            Some(CompileBlocker::WidthMismatch)
        );
        assert_prepared_program_agrees(&soc, 4, &program, narrow);
    }

    #[test]
    fn attached_probe_forces_reference_path_and_stays_exact() {
        use casbus_obs::VcdWriter;
        use std::cell::RefCell;
        use std::rc::Rc;

        let soc = catalog::figure2a_scan_soc();
        let program = program_for(&soc, 4, false);
        let mut plain = SocSimulator::new(&soc, 4).unwrap();
        let baseline = run_program(&mut plain, &program).unwrap();

        let mut probed = SocSimulator::new(&soc, 4).unwrap();
        let vcd = Rc::new(RefCell::new(VcdWriter::new("probe")));
        probed.attach_probe(Box::new(Rc::clone(&vcd)));
        let report = run_program(&mut probed, &program).unwrap();
        assert_eq!(report, baseline);
        let dump = vcd.borrow_mut().render();
        assert!(dump.contains("$var"), "probe observed the run");
    }

    #[test]
    fn reused_simulator_reports_only_its_own_program() {
        // Dynamic reconfiguration across programs: run twice on one
        // simulator; the second report's cycle fields cover only itself.
        let soc = catalog::figure2a_scan_soc();
        let program = program_for(&soc, 4, false);
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        let first = CompiledEngine::new().run(&mut sim, &program).unwrap();
        let second = CompiledEngine::new().run(&mut sim, &program).unwrap();
        assert_eq!(first, second, "re-running is deterministic");

        let mut ref_sim = SocSimulator::new(&soc, 4).unwrap();
        let ref_first = run_program_reference(&mut ref_sim, &program).unwrap();
        let ref_second = run_program_reference(&mut ref_sim, &program).unwrap();
        assert_eq!(first, ref_first);
        assert_eq!(second, ref_second);
    }

    #[test]
    fn cached_engine_is_bit_identical_and_reuses_tables() {
        use casbus::RouteTableCache;
        use std::sync::Arc;

        let soc = catalog::figure1_soc();
        let program = program_for(&soc, 8, true);
        let mut plain_sim = SocSimulator::new(&soc, 8).unwrap();
        let plain = CompiledEngine::new().run(&mut plain_sim, &program).unwrap();

        let cache = Arc::new(RouteTableCache::new());
        let engine = CompiledEngine::new().with_cache(Arc::clone(&cache));

        let mut sim = SocSimulator::new(&soc, 8).unwrap();
        let first = engine.run(&mut sim, &program).unwrap();
        assert_eq!(first, plain, "cache never changes routing results");
        let misses_after_first = cache.misses();
        assert!(misses_after_first > 0, "first run compiles every shape");

        // Re-running the same program repeats every wave shape: pure hits.
        let mut sim2 = SocSimulator::new(&soc, 8).unwrap();
        let second = engine.run(&mut sim2, &program).unwrap();
        assert_eq!(second, plain);
        assert_eq!(cache.misses(), misses_after_first, "no new compiles");
        assert!(cache.hits() >= program.steps().len() as u64);
    }

    #[test]
    fn trace_sink_keeps_fast_path_and_matches_reference_spans() {
        use casbus_obs::MemorySink;

        for (soc, n, packed) in [
            (catalog::figure1_soc(), 8, true),
            (catalog::figure2a_scan_soc(), 4, false),
        ] {
            let program = program_for(&soc, n, packed);
            let mut plain_sim = SocSimulator::new(&soc, n).unwrap();
            let plain = CompiledEngine::new().run(&mut plain_sim, &program).unwrap();

            let traced = MemorySink::new();
            let mut sim = SocSimulator::new(&soc, n).unwrap();
            sim.set_trace(traced.clone());
            // Only the compiled path looks up compiled sessions, so a filled
            // cache proves the trace did not force the interpreter.
            let sessions = Arc::new(SessionCache::default());
            let engine = CompiledEngine::new().with_sessions(Arc::clone(&sessions));
            assert_eq!(engine.run(&mut sim, &program).unwrap(), plain);
            assert!(!format!("{sessions:?}").contains("sessions: 0"));

            let reference = MemorySink::new();
            let mut ref_sim = SocSimulator::new(&soc, n).unwrap();
            ref_sim.set_trace(reference.clone());
            run_program_reference(&mut ref_sim, &program).unwrap();
            assert_eq!(traced.jsonl(), reference.jsonl(), "{}", soc.name());
            assert!(traced.events().iter().any(|e| e.cat == "session"));
        }
    }
}
