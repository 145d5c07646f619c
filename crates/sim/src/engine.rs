//! The compiled word-level execution engine.
//!
//! [`run_program`](crate::run_program) semantics, 3–11× faster than the
//! bit-serial interpreter single-threaded (`BENCH_soc_sim.json`, last
//! regenerated: 9.1× on Figure 1, 6.6× on the ITC'02-like SoC, 3.3× on the
//! 240-cycle hierarchical SoC). Instead of interpreting the CAS chain bit by bit
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
//! within one device's step.
//!
//! Each step runs exactly the `duration + 1` data clocks its
//! [`TestStep`](casbus_controller::TestStep) books. A lane runs its plan's
//! next cycles within them and observes one slot per plan cycle, whatever
//! else runs in the step. A session the next step carries stops mid-plan,
//! its last response waiting in its CAS's retiming register (which the
//! configuration shift keeps), and resumes from the same lane state, so it
//! observes exactly the slots of an uninterrupted run. Cycle counters,
//! per-core stats, wire-busy counts, verdicts, and session signatures are
//! reproduced exactly — the differential suite in `tests/` pins the engine
//! against the bit-serial reference.
//!
//! An enabled trace sink keeps the fast path: the engine emits the same
//! per-session `session` spans the interpreter does (the simulator emits
//! the `configure` spans either way), so a traced run's canonical JSONL
//! matches the reference's byte for byte.
//!
//! The engine has one slow path: [`run_program_reference`], which runs a
//! program whole and compiles nothing. A run with a waveform probe attached
//! (every bus value change must be emitted) takes it. So does a program
//! with a step the fast path cannot run bit-faithfully, which the engine
//! judges before the first configuration:
//!
//! * a step's routing shares wires serially between TEST CASes (cores
//!   concatenate through each other),
//! * a lane's wrapper is not in an INTEST mode, or its port/wire widths
//!   disagree (the interpreter's resize semantics would apply),
//! * a wrapper outside the lanes is left in a test mode (the interpreter
//!   would keep clocking it).
//!
//! Schedulers never build such a step: only hand-built programs (the
//! paper's §4 daisy chain, a wrapper left armed) take the slow path.

use std::sync::Arc;

use casbus::{CasChain, RouteTable, RouteTableCache};
use casbus_controller::TestProgram;
use casbus_p1500::{TestableCore, Wrapper, WrapperControl, WrapperInstruction};
use casbus_tpg::bits::low_mask;
use casbus_tpg::{BitVec, Verdict};

use crate::report::{run_program_reference, Lane, LaneSession, Sessions, SocTestReport};
use crate::session::{lane_signature, push_zeros, verdict, CompiledSession, Segment, SessionCache};
use crate::simulator::{SimError, SocSimulator};

/// The compiled word-level TAM/session engine. Drop-in for the reference
/// interpreter: identical [`SocTestReport`]s, cycle counters, and metrics.
/// A probed run, and a program with a step the word-level path cannot run
/// exactly, run whole on [`run_program_reference`].
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
    /// As [`run_program`](crate::run_program).
    pub fn run(
        &self,
        sim: &mut SocSimulator,
        program: &TestProgram,
    ) -> Result<SocTestReport, SimError> {
        self.run_judged(sim, program).map(|(report, _)| report)
    }

    /// [`run`](Self::run), also returning the first reason one of the
    /// program's steps cannot run word-level, or `None` when every step
    /// can. A probed run goes whole to the interpreter and judges no step;
    /// so does a blocked program, after its judgement.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub(crate) fn run_judged(
        &self,
        sim: &mut SocSimulator,
        program: &TestProgram,
    ) -> Result<(SocTestReport, Option<CompileBlocker>), SimError> {
        // A probe wants every per-cycle bus value: stay bit-serial.
        if sim.has_probe() {
            return Ok((run_program_reference(sim, program)?, None));
        }
        match self.judge(sim, program) {
            Ok(None) => {}
            // A blocked program runs whole on the interpreter, and a
            // malformed step fails there with the reference's error.
            judged => return Ok((run_program_reference(sim, program)?, judged.ok().flatten())),
        }
        let lane = |desc: &_| CompiledLane::new(self.sessions.get_or_compile(desc));
        let mut sessions = Sessions::new(sim);
        for (k, step) in program.steps().iter().enumerate() {
            let lanes = sessions.begin(sim, program, k, lane)?;
            drive_lanes_compiled(sim, lanes, step.duration as usize + 1);
            sessions.end(sim);
        }
        Ok((sessions.finish(sim, program.len())?, None))
    }

    /// The first reason a step of `program` cannot run word-level, or
    /// `None` when every step can, judged before the first configuration:
    /// each step's CAS instructions are loaded straight into the chain
    /// ([`SocSimulator::load_configuration`]) and its routes looked up
    /// once, as the run would, and the wrapper rules read the step's own
    /// wrapper instructions. No cycle is counted, no span recorded and no
    /// session compiled. Fails on a malformed step, which the run refuses.
    fn judge(
        &self,
        sim: &mut SocSimulator,
        program: &TestProgram,
    ) -> Result<Option<CompileBlocker>, SimError> {
        for step in program.steps() {
            sim.load_configuration(&step.configuration, &step.wrapper_instructions)?;
            let routes = self.routes_for(sim.tam().chain());
            let blocker = step_compile_blocker(sim, &step.wrapper_instructions, &routes);
            if blocker.is_some() {
                return Ok(blocker);
            }
        }
        Ok(None)
    }
}

/// Runs `clocks` data clocks of one step, each lane word-at-a-time and one
/// after another, and accounts arithmetically for every counter the
/// interpreter's per-cycle loop would have bumped.
fn drive_lanes_compiled(sim: &mut SocSimulator, lanes: &mut [Lane<CompiledLane>], clocks: usize) {
    sim.advance_data_cycles(clocks as u64);
    // Every wrapper idles through the step except while its lane's plan
    // runs.
    for stat in sim.core_stats_mut() {
        stat.idle += clocks as u64;
    }
    for lane in lanes {
        let (wrapper, pending) = sim.lane_mut(lane.cas_index);
        let (cycles, shifts) = lane.session.run_words(wrapper, pending, clocks);
        let (cycles, shifts) = (cycles as u64, shifts as u64);
        let stat = &mut sim.core_stats_mut()[lane.cas_index];
        stat.shift += shifts;
        stat.capture += cycles - shifts;
        stat.idle -= cycles;
        // Every plan cycle is Shift or Capture, so the lane's wires are
        // busy for exactly the cycles it ran.
        let busy = sim.wire_busy_mut();
        for &wire in &lane.wires {
            busy[wire] += cycles;
        }
    }
}

/// Why a step cannot run on the word-level fast path. Each variant names
/// the [`step_compile_blocker`] clause that failed — the packed fleet path
/// exports these as `fleet.packed.fallback.reason.*` counters so coverage
/// gaps are observable instead of inferred.
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

/// The first reason a step cannot run on the word-level fast path while
/// staying bit-identical to the interpreter, or `None` when it can. The
/// chain holds the step's CAS instructions and `routes` is compiled from
/// them; `wrapper_instructions` are the step's, one per wrapper. Also the
/// gate the packed device-parallel fleet path uses: its lane-containment
/// argument (a defect on one core perturbs only that core's verdict and
/// signature) holds exactly when every step passes.
fn step_compile_blocker(
    sim: &SocSimulator,
    wrapper_instructions: &[WrapperInstruction],
    routes: &RouteTable,
) -> Option<CompileBlocker> {
    use WrapperInstruction::{IntestBist, IntestScan};
    let tam = sim.tam();
    let mut is_lane = vec![false; tam.cas_count()];
    for (cas_index, cas) in tam.chain().cases().iter().enumerate() {
        let Some(scheme) = cas.active_scheme() else {
            continue;
        };
        // The wrapped system bus runs no session (`run_bus_extest` tests
        // it), so it is no lane.
        let label = tam.label(cas_index).ok();
        let Some((_, desc)) = label.and_then(|name| sim.soc().core_by_name(name)) else {
            continue;
        };
        is_lane[cas_index] = true;
        // Exclusive straight-through wires: no serial concatenation.
        if !routes.is_independent(cas_index) {
            return Some(CompileBlocker::DependentRoutes);
        }
        // INTEST modes are transparent shift pipes (wrapper output =
        // model output); EXTEST threads the boundary register per cycle.
        if !matches!(wrapper_instructions[cas_index], IntestScan | IntestBist) {
            return Some(CompileBlocker::NonIntestWrapper);
        }
        // Identity resize: scheme width == plan width == wrapper width. An
        // INTEST wrapper is as wide as its core's test ports (the wrapper
        // itself still holds the instruction the last run left).
        let ports = desc.required_ports();
        let intest_width = sim.wrapper_at(cas_index).core().test_ports();
        if scheme.wires().len() != ports || intest_width != ports {
            return Some(CompileBlocker::WidthMismatch);
        }
    }
    // A test-mode wrapper outside the lanes (e.g. a wrapped system bus left
    // armed) would still be clocked by the interpreter: stay exact.
    if (0..tam.cas_count()).all(|idx| is_lane[idx] || !wrapper_instructions[idx].is_test_mode()) {
        None
    } else {
        Some(CompileBlocker::ArmedBystander)
    }
}

/// A lane's compiled session in flight: where its plan stands and what it
/// observed so far. A session carried into the next step resumes from
/// this state.
///
/// A lane observes one slot per plan cycle: on cycle `t`, the retimed
/// response of cycle `t - 1`, which is what its CAS's retiming register
/// holds before the clock (zeros for a fresh session, which the
/// configuration cleared; the response of the last cycle before the
/// configuration shift for a carried one). So the final drain's response
/// is never observed, and a carried session's slots are those of an
/// uninterrupted run.
struct CompiledLane {
    session: Arc<CompiledSession>,
    /// The next plan cycle: its segment, its offset in that segment, and
    /// its index in the plan.
    segment: usize,
    offset: usize,
    done: usize,
    /// Where the golden response of the cycle before the next lives (its
    /// shift planes and offset), when that cycle shifted: the next
    /// observation slot must read it.
    expected: Option<(usize, usize)>,
    mismatches: usize,
    streams: Vec<BitVec>,
}

impl CompiledLane {
    fn new(session: Arc<CompiledSession>) -> Self {
        let streams = (0..session.ports())
            .map(|_| BitVec::with_capacity(session.len()))
            .collect();
        Self {
            session,
            segment: 0,
            offset: 0,
            done: 0,
            expected: None,
            mismatches: 0,
            streams,
        }
    }

    /// Runs the lane's next plan cycles, up to `clocks` of them,
    /// word-at-a-time through `wrapper`, comparing every response word with
    /// the session's golden one, and leaves `pending` (its CAS's retiming
    /// register) as `clocks` interpreted data clocks would: holding the
    /// last cycle's response when the plan ran to the last clock, zeros
    /// when idle clocks followed it. Returns the plan cycles run and how
    /// many of them shifted.
    fn run_words(
        &mut self,
        wrapper: &mut Wrapper<Box<dyn TestableCore>>,
        pending: &mut BitVec,
        clocks: usize,
    ) -> (usize, usize) {
        let session = Arc::clone(&self.session);
        let end = (self.done + clocks).min(session.len());
        let ran = end - self.done;
        if ran > 0 {
            // The first slot is the response the register holds.
            let golden = self
                .expected
                .map(|(planes, offset)| (session.golden(planes), offset));
            for (j, stream) in self.streams.iter_mut().enumerate() {
                let bit = pending.get(j) == Some(true);
                stream.push(bit);
                if let Some((golden, offset)) = golden {
                    self.mismatches += usize::from((golden[j] >> offset) & 1 != u64::from(bit));
                }
            }
        }
        let capture_inputs = BitVec::zeros(session.ports());
        let mut shifts = 0;
        while self.done < end {
            let segment = session.segments()[self.segment];
            let run = (segment.cycles() - self.offset).min(end - self.done);
            // The window's last response stays in the register: it is the
            // next window's first slot, if the plan has one.
            let last = self.done + run == end;
            let recorded = run - usize::from(last);
            match segment {
                Segment::Shift { planes, .. } => {
                    let stimulus = session.stimulus(planes);
                    let produced = if self.offset == 0 {
                        wrapper.clock_parallel_words(stimulus, run)
                    } else {
                        let later: Vec<u64> = stimulus.iter().map(|p| p >> self.offset).collect();
                        wrapper.clock_parallel_words(&later, run)
                    };
                    let mask = low_mask(recorded);
                    let golden = session.golden(planes);
                    for (j, stream) in self.streams.iter_mut().enumerate() {
                        let expected = golden[j] >> self.offset;
                        self.mismatches += ((produced[j] ^ expected) & mask).count_ones() as usize;
                        stream.push_word(produced[j], recorded);
                        if last {
                            pending.set(j, (produced[j] >> (run - 1)) & 1 == 1);
                        }
                    }
                    if last {
                        self.expected = Some((planes, self.offset + run - 1));
                    }
                    shifts += run;
                }
                Segment::Capture { .. } => {
                    // Fire the functional clock. The wrapper returns zeros
                    // on non-shift clocks, so every capture slot is
                    // all-zero and none is compared.
                    for _ in 0..run {
                        wrapper.clock_parallel(&capture_inputs, &WrapperControl::capture_data());
                    }
                    for stream in &mut self.streams {
                        push_zeros(stream, recorded);
                    }
                    if last {
                        pending.fill_range(0..pending.len(), false);
                        self.expected = None;
                    }
                }
            }
            self.done += run;
            self.offset += run;
            if self.offset == segment.cycles() {
                self.segment += 1;
                self.offset = 0;
            }
        }
        // Idle clocks past the plan leave the wrapper untouched and drive
        // zeros into the retiming register.
        if ran < clocks {
            pending.fill_range(0..pending.len(), false);
        }
        (ran, shifts)
    }
}

impl LaneSession for CompiledLane {
    fn len(&self) -> usize {
        self.session.len()
    }

    fn remaining(&self) -> usize {
        self.session.len() - self.done
    }

    fn verdict(&self) -> Verdict {
        verdict(self.mismatches)
    }

    fn signature(&self) -> u64 {
        lane_signature(&self.streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus::{CasInstruction, Tam, TamConfiguration};
    use casbus_controller::{schedule, TestProgram};
    use casbus_obs::MetricsRegistry;
    use casbus_soc::catalog;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Why `program`'s first blocked step stays off the fast path on a
    /// fresh simulator that `prepare` modified first, judged as the engine
    /// judges a program before running it.
    fn first_step_blocker(
        soc: &casbus_soc::SocDescription,
        n: usize,
        program: &TestProgram,
        prepare: impl Fn(&mut SocSimulator),
    ) -> Option<CompileBlocker> {
        let mut sim = SocSimulator::new(soc, n).unwrap();
        prepare(&mut sim);
        CompiledEngine::new().judge(&mut sim, program).unwrap()
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

    /// A step of `front_and_back` on two wires: `back` tested on wire
    /// `wire`, `front`'s CAS in BYPASS with its wrapper loaded with
    /// `front_wrapper`.
    fn back_step(
        sim: &SocSimulator,
        wire: usize,
        back_wrapper: WrapperInstruction,
        front_wrapper: WrapperInstruction,
        duration: u64,
    ) -> casbus_controller::TestStep {
        let mut configuration = TamConfiguration::all_bypass(2);
        configuration
            .set(1, sim.tam().contiguous_test(1, wire).unwrap())
            .unwrap();
        casbus_controller::TestStep {
            configuration,
            wrapper_instructions: vec![front_wrapper, back_wrapper],
            duration,
            description: "hand-built".into(),
        }
    }

    fn program_of(steps: Vec<casbus_controller::TestStep>) -> TestProgram {
        let mut program = TestProgram::new();
        for step in steps {
            program.push(step);
        }
        program
    }

    #[test]
    fn a_session_carries_across_word_level_steps() {
        // `back`'s 40-cycle plan runs three clocks per step (its last
        // one), every step word-level; most breaks fall inside a shift
        // segment.
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let (scan, bypass) = (WrapperInstruction::IntestScan, WrapperInstruction::Bypass);
        let steps = |front: &dyn Fn(usize) -> WrapperInstruction| {
            let step = |k| back_step(&sim, 0, scan, front(k), if k == 13 { 0 } else { 2 });
            program_of((0..14).map(step).collect())
        };
        let carried = steps(&|_| bypass);
        assert_eq!(first_step_blocker(&soc, 2, &carried, |_| {}), None);
        assert_program_agrees(&soc, 2, &carried);

        // Carrying changes no observation: the session's verdict and
        // signature are those of one uninterrupted step.
        let alone = program_of(vec![back_step(&sim, 0, scan, bypass, 39)]);
        let run = |program: &TestProgram| {
            let mut sim = SocSimulator::new(&soc, 2).unwrap();
            CompiledEngine::new().run(&mut sim, program).unwrap()
        };
        let (carried, alone) = (run(&carried), run(&alone));
        assert!(carried.all_pass(), "{carried}");
        assert_eq!(carried.verdicts, alone.verdicts);
        assert_eq!(carried.signatures, alone.signatures);
        let shifts = 13 * (sim.tam().configuration_clocks() as u64 + 1);
        assert_eq!(carried.total_cycles, alone.total_cycles + shifts);

        // With `front`'s wrapper left armed behind its BYPASS CAS in every
        // other step, the program is blocked and runs whole on the
        // interpreter.
        let armed = steps(&|k| if k % 2 == 0 { bypass } else { scan });
        assert_eq!(
            first_step_blocker(&soc, 2, &armed, |_| {}),
            Some(CompileBlocker::ArmedBystander)
        );
        assert_program_agrees(&soc, 2, &armed);
    }

    #[test]
    fn a_malformed_step_fails_with_the_references_error() {
        // The judge refuses a malformed step without panicking, and the
        // run fails with the interpreter's error, wherever the step is.
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let (scan, bypass) = (WrapperInstruction::IntestScan, WrapperInstruction::Bypass);
        let good = back_step(&sim, 0, scan, bypass, 39);
        let mut short = good.clone();
        short.wrapper_instructions.pop();
        let mut unknown = good.clone();
        unknown.configuration = TamConfiguration::new(vec![CasInstruction::Test(999); 2]);
        let mut long = good.clone();
        long.configuration = TamConfiguration::all_bypass(3);
        for bad in [short, unknown, long] {
            for program in [vec![bad.clone()], vec![good.clone(), bad]] {
                let program = program_of(program);
                let mut sim = SocSimulator::new(&soc, 2).unwrap();
                let judged = CompiledEngine::new().judge(&mut sim, &program);
                let mut sim = SocSimulator::new(&soc, 2).unwrap();
                let expected = run_program_reference(&mut sim, &program).unwrap_err();
                assert!(judged.is_err(), "{expected}");
                assert_both_engines_refuse(&soc, &program, expected);
            }
        }
    }

    /// The programs `soc`'s schedulers build at width `n`, by name: the
    /// serial, packed and smoke-searched plans and, with `every`, the
    /// wave-optimal and power-aware (budget 200) ones too.
    fn scheduled_programs(
        soc: &casbus_soc::SocDescription,
        n: usize,
        every: bool,
    ) -> Vec<(&'static str, TestProgram)> {
        use casbus_controller::search::{search_schedule, SearchBudget};
        let mut schedules = vec![
            ("serial", schedule::serial_schedule(soc, n)),
            ("packed", schedule::packed_schedule(soc, n)),
            ("searched", search_schedule(soc, n, SearchBudget::smoke())),
        ];
        if every {
            schedules.push(("wave-optimal", schedule::wave_optimal_schedule(soc, n)));
            schedules.push(("power-aware", schedule::power_aware_schedule(soc, n, 200)));
        }
        let tam = Tam::new(soc, n).unwrap();
        let program = |(name, sched): (_, Result<_, _>)| {
            let sched = sched.unwrap_or_else(|e| panic!("{name} at N = {n}: {e}"));
            (name, TestProgram::from_schedule(&tam, soc, &sched).unwrap())
        };
        schedules.into_iter().map(program).collect()
    }

    /// The judge's verdict on `program` over a fresh `n`-wire simulator,
    /// which the judge must leave unrun: no cycle counted, no span
    /// recorded, no session compiled.
    fn judged(
        soc: &casbus_soc::SocDescription,
        n: usize,
        program: &TestProgram,
    ) -> Option<CompileBlocker> {
        use casbus_obs::MemorySink;

        let mut sim = SocSimulator::new(soc, n).unwrap();
        let trace = MemorySink::new();
        sim.set_trace(trace.clone());
        let sessions = Arc::new(SessionCache::default());
        let engine = CompiledEngine::new().with_sessions(Arc::clone(&sessions));
        let blocker = engine.judge(&mut sim, program).unwrap();
        assert_eq!(sim.cycles(), 0);
        assert!(trace.is_empty());
        assert!(format!("{sessions:?}").contains("sessions: 0"));
        blocker
    }

    #[test]
    fn catalog_schedules_never_take_the_slow_path() {
        for soc in [
            catalog::figure1_soc(),
            catalog::figure2a_scan_soc(),
            catalog::figure2b_bist_soc(),
            catalog::figure2c_external_soc(),
            catalog::figure2d_hierarchical_soc(),
            catalog::maintenance_soc(),
            catalog::itc02_like_soc(),
        ] {
            let m = soc.max_ports();
            for n in [m, m + 1, 2 * m + 2] {
                for (name, program) in scheduled_programs(&soc, n, true) {
                    let at = format!("{} at N = {n}, {name}", soc.name());
                    assert_eq!(judged(&soc, n, &program), None, "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random SoCs drawn as `tests/differential.rs` draws them, at
        /// their drawn width and at 2m + 2.
        #[test]
        fn scheduled_random_socs_never_take_the_slow_path(
            seed in any::<u64>(),
            n_cores in 2usize..=6,
            max_ports in 1usize..=4,
            slack in 0usize..=3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let soc = catalog::random_soc(&mut rng, n_cores, max_ports);
            let m = soc.max_ports();
            for n in [m + slack, 2 * m + 2] {
                for (name, program) in scheduled_programs(&soc, n, false) {
                    assert_eq!(judged(&soc, n, &program), None, "N = {n}, {name}");
                }
            }
        }
    }

    /// Runs `program` on a fresh simulator through both engines; both must
    /// refuse it with `expected`.
    fn assert_both_engines_refuse(
        soc: &casbus_soc::SocDescription,
        program: &TestProgram,
        expected: SimError,
    ) {
        let mut sim = SocSimulator::new(soc, 2).unwrap();
        let compiled = CompiledEngine::new().run(&mut sim, program);
        assert_eq!(compiled, Err(expected.clone()), "compiled");
        let mut sim = SocSimulator::new(soc, 2).unwrap();
        assert_eq!(run_program_reference(&mut sim, program), Err(expected));
    }

    #[test]
    fn a_running_session_reloaded_with_another_scheme_or_instruction_is_refused() {
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let (scan, bist, bypass) = (
            WrapperInstruction::IntestScan,
            WrapperInstruction::IntestBist,
            WrapperInstruction::Bypass,
        );
        // `back`'s plan is 40 cycles: 10 clocks leave it running.
        let first = back_step(&sim, 0, scan, bypass, 9);
        let cut = SimError::SessionCut {
            core: "back".into(),
            step: 0,
        };
        // Another wire window for the running session.
        let moved = program_of(vec![first.clone(), back_step(&sim, 1, scan, bypass, 29)]);
        assert_both_engines_refuse(&soc, &moved, cut.clone());
        // Another wrapper instruction for it.
        let reloaded = program_of(vec![first.clone(), back_step(&sim, 0, bist, bypass, 29)]);
        assert_both_engines_refuse(&soc, &reloaded, cut.clone());
        // Its CAS in BYPASS.
        let mut bypassed = back_step(&sim, 0, scan, bypass, 29);
        bypassed.configuration = TamConfiguration::all_bypass(2);
        let dropped = program_of(vec![first, bypassed]);
        assert_both_engines_refuse(&soc, &dropped, cut);
    }

    #[test]
    fn a_session_that_outlasts_the_last_step_is_refused() {
        let soc = front_and_back();
        let sim = SocSimulator::new(&soc, 2).unwrap();
        let (scan, bypass) = (WrapperInstruction::IntestScan, WrapperInstruction::Bypass);
        let cut = |step: usize| SimError::SessionCut {
            core: "back".into(),
            step,
        };
        // `back`'s plan is 40 cycles: 39 clocks leave its last one unrun.
        let short = program_of(vec![back_step(&sim, 0, scan, bypass, 38)]);
        assert_both_engines_refuse(&soc, &short, cut(0));
        // Carried once, then cut by the end of the program.
        let last = program_of(vec![
            back_step(&sim, 0, scan, bypass, 9),
            back_step(&sim, 0, scan, bypass, 9),
        ]);
        assert_both_engines_refuse(&soc, &last, cut(1));
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
        let sessions = Arc::new(SessionCache::default());
        let engine = CompiledEngine::new().with_sessions(Arc::clone(&sessions));
        let report = engine.run(&mut probed, &program).unwrap();
        assert_eq!(report, baseline);
        // The interpreter ran the whole program: nothing was compiled.
        assert!(format!("{sessions:?}").contains("sessions: 0"));
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
            // A run the engine hands to the interpreter compiles no
            // session, so a filled cache proves the trace did not; and no
            // step of these programs is blocked, so every step ran
            // word-level.
            let sessions = Arc::new(SessionCache::default());
            let engine = CompiledEngine::new().with_sessions(Arc::clone(&sessions));
            assert_eq!(engine.run(&mut sim, &program).unwrap(), plain);
            assert!(!format!("{sessions:?}").contains("sessions: 0"));
            for step in program.steps() {
                let alone = program_of(vec![step.clone()]);
                assert_eq!(first_step_blocker(&soc, n, &alone, |_| {}), None);
            }

            let reference = MemorySink::new();
            let mut ref_sim = SocSimulator::new(&soc, n).unwrap();
            ref_sim.set_trace(reference.clone());
            run_program_reference(&mut ref_sim, &program).unwrap();
            assert_eq!(traced.jsonl(), reference.jsonl(), "{}", soc.name());
            assert!(traced.events().iter().any(|e| e.cat == "session"));
        }
    }
}
