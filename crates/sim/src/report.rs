//! Whole-program execution: run a scheduled test program end to end.

use std::fmt;

use casbus_controller::TestProgram;
use casbus_obs::TraceEvent;
use casbus_soc::CoreDescription;
use casbus_tpg::{BitVec, Verdict};

use crate::session::{ClockKind, ReferenceSession};
use crate::simulator::{SimError, SocSimulator};

/// The outcome of executing a whole test program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocTestReport {
    /// Per-core verdicts, in first-tested order.
    pub verdicts: Vec<(String, Verdict)>,
    /// Total cycles driven (configuration + data, all steps).
    pub total_cycles: u64,
    /// Steps executed.
    pub steps: usize,
    /// Data clocks each core's wrapper observed during this program, in CAS
    /// order (aggregated through the metrics registry).
    pub per_core_cycles: Vec<(String, u64)>,
    /// Busy wire-cycles across the whole test bus (each wire routed to an
    /// active TEST-mode CAS counts one per non-idle data clock).
    pub bus_cycles: u64,
    /// Per-session signature of everything the TAM returned for each tested
    /// core (a 64-bit fold over the port-major observed streams), in verdict
    /// order. Every execution engine must reproduce these bit for bit.
    pub signatures: Vec<(String, u64)>,
}

impl SocTestReport {
    /// Whether every core passed.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| v.is_pass())
    }

    /// Verdict of one core.
    pub fn verdict(&self, core_name: &str) -> Option<&Verdict> {
        self.verdicts
            .iter()
            .find(|(name, _)| name == core_name)
            .map(|(_, v)| v)
    }
}

impl fmt::Display for SocTestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SoC test: {} steps, {} cycles, {}",
            self.steps,
            self.total_cycles,
            if self.all_pass() {
                "ALL PASS"
            } else {
                "FAILURES"
            }
        )?;
        for (name, verdict) in &self.verdicts {
            writeln!(f, "  {name}: {verdict}")?;
        }
        if !self.per_core_cycles.is_empty() {
            writeln!(f, "  bus busy wire-cycles: {}", self.bus_cycles)?;
            for (name, cycles) in &self.per_core_cycles {
                writeln!(f, "  {name}: {cycles} wrapper data clocks")?;
            }
        }
        Ok(())
    }
}

/// One concurrently-tested core of a step: its session and its scheduled
/// wire window (from the now-active scheme).
pub(crate) struct Lane<S> {
    pub(crate) cas_index: usize,
    pub(crate) name: String,
    pub(crate) session: S,
    pub(crate) wires: Vec<usize>,
}

/// What [`Sessions`] reads of a lane's session, whichever engine keeps
/// it: the interpreter's [`ReferenceSession`] or the compiled engine's
/// lane state.
pub(crate) trait LaneSession {
    /// Plan cycles.
    fn len(&self) -> usize;
    /// Plan cycles not yet run.
    fn remaining(&self) -> usize;
    /// The verdict over every slot observed so far.
    fn verdict(&self) -> Verdict;
    /// [`lane_signature`](crate::session::lane_signature) over the slots
    /// observed so far.
    fn signature(&self) -> u64;
}

/// What one finished session produced: its verdict and signature, and
/// what its `session` span names.
pub(crate) struct LaneResult {
    pub(crate) name: String,
    pub(crate) verdict: Verdict,
    pub(crate) signature: u64,
}

/// Collects the lanes of the TEST CASes `cas_indices` of a configured
/// step, in the order given, building each tested core's session with
/// `build`. Call after [`SocSimulator::configure`] so the active schemes
/// are loaded.
pub(crate) fn collect_lanes<S>(
    sim: &SocSimulator,
    cas_indices: impl IntoIterator<Item = usize>,
    mut build: impl FnMut(&CoreDescription) -> S,
) -> Result<Vec<Lane<S>>, SimError> {
    let mut lanes = Vec::new();
    for cas_index in cas_indices {
        let name = sim.tam().label(cas_index)?.to_owned();
        let Some((_, desc)) = sim.soc().core_by_name(&name) else {
            // The wrapped system bus: exercised via run_bus_extest.
            continue;
        };
        let session = build(desc);
        let wires = sim.tam().chain().cases()[cas_index]
            .active_scheme()
            .expect("configured TEST scheme")
            .wires()
            .to_vec();
        lanes.push(Lane {
            cas_index,
            name,
            session,
            wires,
        });
    }
    Ok(lanes)
}

/// Runs `clocks` data clocks of one configured step's lanes through the
/// cycle-by-cycle interpreter.
///
/// One bus and one clock-kind buffer serve the whole step. Every data
/// clock, each lane with plan cycles left draws its stimulus, and after
/// the clock it records its observation slot, so a lane observes one slot
/// per plan cycle whatever else runs in its step: every response but its
/// final drain's.
pub(crate) fn drive_lanes_serial(
    sim: &mut SocSimulator,
    lanes: &mut [Lane<ReferenceSession>],
    clocks: usize,
) -> Result<(), SimError> {
    let n = sim.bus_width();
    let mut bus = BitVec::zeros(n);
    let mut kinds = vec![ClockKind::Idle; sim.tam().cas_count()];
    for _ in 0..clocks {
        bus.fill_range(0..n, false);
        kinds.fill(ClockKind::Idle);
        for lane in lanes.iter_mut() {
            if let Some(kind) = lane.session.advance() {
                kinds[lane.cas_index] = kind;
                for (j, &wire) in lane.wires.iter().enumerate() {
                    bus.set(wire, lane.session.stimulus().get(j).expect("stim P wide"));
                }
            }
        }
        let out = sim.data_clock(&bus, &kinds)?;
        for lane in lanes.iter_mut() {
            lane.session.observe(out, &lane.wires);
        }
    }
    Ok(())
}

/// Where a running session started: the step, the cycle that step began
/// at (its `session` span starts there), and its slot in the report.
#[derive(Debug, Clone, Copy, Default)]
struct Origin {
    step: usize,
    start: u64,
    slot: usize,
}

/// The sessions of one program run, carried from step to step. A session
/// still running when its step ends resumes in the next step; its result
/// takes the slot it was given when it started, so the report lists
/// sessions in start order. Both scalar engines run their steps through
/// it, so they check carries and record `session` spans alike.
pub(crate) struct Sessions<S> {
    baseline: ReportBaseline,
    /// Running lanes, in CAS order.
    running: Vec<Lane<S>>,
    /// Where the session on each CAS started, indexed by CAS.
    origins: Vec<Origin>,
    results: Vec<Option<LaneResult>>,
}

impl<S: LaneSession> Sessions<S> {
    /// No session yet; the report will count cycles from `sim`'s counters
    /// as they stand.
    pub(crate) fn new(sim: &SocSimulator) -> Self {
        Self {
            baseline: ReportBaseline::capture(sim),
            running: Vec::new(),
            origins: vec![Origin::default(); sim.tam().cas_count()],
            results: Vec::new(),
        }
    }

    /// Configures step `k` of `program` and returns its lanes in CAS order:
    /// every session still running, resumed where it paused, and a session
    /// built by `build` on every other TEST CAS.
    ///
    /// # Errors
    ///
    /// [`SimError::SessionCut`] when step `k` loads a running session's CAS
    /// with another scheme or its wrapper with another instruction, and
    /// configuration errors.
    pub(crate) fn begin(
        &mut self,
        sim: &mut SocSimulator,
        program: &TestProgram,
        k: usize,
        build: impl FnMut(&CoreDescription) -> S,
    ) -> Result<&mut [Lane<S>], SimError> {
        let step = &program.steps()[k];
        // A running session means a step ran before this one.
        for lane in &self.running {
            let before = &program.steps()[k - 1];
            let cas_index = lane.cas_index;
            let schemes = [before, step].map(|s| s.configuration.instructions().get(cas_index));
            let wrappers = [before, step].map(|s| s.wrapper_instructions.get(cas_index));
            if schemes[0] != schemes[1] || wrappers[0] != wrappers[1] {
                let core = lane.name.clone();
                return Err(SimError::SessionCut { core, step: k - 1 });
            }
        }
        let start = sim.cycles();
        let running = &self.running;
        let carried = |cas_index: usize| running.iter().any(|lane| lane.cas_index == cas_index);
        sim.reconfigure(&step.configuration, &step.wrapper_instructions, carried)?;
        let starting = step.configuration.cores_under_test().into_iter();
        let starting = starting.filter(|&cas_index| !carried(cas_index));
        for lane in collect_lanes(sim, starting, build)? {
            let slot = self.results.len();
            self.origins[lane.cas_index] = Origin {
                step: k,
                start,
                slot,
            };
            self.results.push(None);
            self.running.push(lane);
        }
        self.running.sort_unstable_by_key(|lane| lane.cas_index);
        Ok(&mut self.running)
    }

    /// Ends the step that ran last: every session that finished in it
    /// records its `session` span, from the start of its first step to
    /// now, and its result.
    pub(crate) fn end(&mut self, sim: &SocSimulator) {
        let trace = sim.trace();
        let (origins, results) = (&self.origins, &mut self.results);
        self.running.retain(|lane| {
            if lane.session.remaining() > 0 {
                return true;
            }
            let origin = origins[lane.cas_index];
            let verdict = lane.session.verdict();
            if trace.enabled() {
                trace.record(TraceEvent::span(
                    "session",
                    lane.name.clone(),
                    origin.start,
                    sim.cycles() - origin.start,
                    vec![
                        ("step", origin.step.into()),
                        ("cas", lane.cas_index.into()),
                        ("data_cycles", lane.session.len().into()),
                        ("pass", verdict.is_pass().into()),
                    ],
                ));
            }
            results[origin.slot] = Some(LaneResult {
                name: lane.name.clone(),
                verdict,
                signature: lane.session.signature(),
            });
            false
        });
    }

    /// The program's report, once all of its `steps` have ended.
    ///
    /// # Errors
    ///
    /// [`SimError::SessionCut`] when a session outlasts the last step.
    pub(crate) fn finish(
        self,
        sim: &SocSimulator,
        steps: usize,
    ) -> Result<SocTestReport, SimError> {
        if let Some(lane) = self.running.first() {
            let core = lane.name.clone();
            return Err(SimError::SessionCut {
                core,
                step: steps - 1,
            });
        }
        finish_report(sim, &self.baseline, self.results, steps)
    }
}

/// Cycle/stat baselines captured before a program, so a reused simulator
/// reports only that program's cycles.
struct ReportBaseline {
    start_cycles: u64,
    core: Vec<u64>,
    busy: u64,
}

impl ReportBaseline {
    fn capture(sim: &SocSimulator) -> Self {
        Self {
            start_cycles: sim.cycles(),
            core: sim.core_stats().iter().map(|s| s.total()).collect(),
            busy: sim.wire_busy().iter().sum(),
        }
    }
}

/// Assembles the final report from the per-session results. The report's
/// cycle fields read the simulator's own counters — the very values
/// [`SocSimulator::export_metrics`] publishes after the run.
fn finish_report(
    sim: &SocSimulator,
    baseline: &ReportBaseline,
    results: Vec<Option<LaneResult>>,
    steps: usize,
) -> Result<SocTestReport, SimError> {
    let stats = sim.core_stats();
    let mut per_core_cycles = Vec::new();
    for (idx, core_baseline) in baseline.core.iter().enumerate() {
        let name = sim.tam().label(idx)?.to_owned();
        per_core_cycles.push((name, stats[idx].total() - core_baseline));
    }
    let bus_cycles = sim.wire_busy().iter().sum::<u64>() - baseline.busy;
    let mut verdicts = Vec::with_capacity(results.len());
    let mut signatures = Vec::with_capacity(results.len());
    for lane in results.into_iter().flatten() {
        signatures.push((lane.name.clone(), lane.signature));
        verdicts.push((lane.name, lane.verdict));
    }
    Ok(SocTestReport {
        verdicts,
        total_cycles: sim.cycles() - baseline.start_cycles,
        steps,
        per_core_cycles,
        bus_cycles,
        signatures,
    })
}

/// Executes a test program end to end: for every step, the CONFIGURATION
/// phase loads the step's CAS and wrapper instructions, then `duration + 1`
/// data clocks run the cores' session plans on their scheduled wire
/// windows, and every bit returned over the TAM is compared against that
/// core's golden model. A session the next step carries pauses while the
/// configuration shifts and resumes where it stopped; every other TEST CAS
/// starts a session.
///
/// Runs on the compiled word-level engine ([`crate::CompiledEngine`]),
/// which batches shifting through route tables. A probed run, and a
/// program with a step it cannot run exactly (serial wire sharing, a
/// non-INTEST or mis-sized lane wrapper, an armed wrapper outside the
/// lanes), run whole on the cycle-by-cycle interpreter instead.
/// [`run_program_reference`] forces the interpreter; both produce
/// identical reports and leave identical counters, which
/// [`SocSimulator::export_metrics`] publishes after the run.
///
/// # Errors
///
/// Propagates configuration and width errors; returns
/// [`SimError::SessionCut`] for a session that outlasts its step when the
/// next step reloads its CAS or wrapper differently, or when it is the
/// last.
pub fn run_program(
    sim: &mut SocSimulator,
    program: &TestProgram,
) -> Result<SocTestReport, SimError> {
    crate::engine::CompiledEngine::new().run(sim, program)
}

/// [`run_program`] on the bit-serial cycle-by-cycle interpreter, the
/// reference semantics every optimized engine is differentially tested
/// against.
///
/// # Errors
///
/// As [`run_program`].
pub fn run_program_reference(
    sim: &mut SocSimulator,
    program: &TestProgram,
) -> Result<SocTestReport, SimError> {
    let mut sessions = Sessions::new(sim);
    for (k, step) in program.steps().iter().enumerate() {
        let lanes = sessions.begin(sim, program, k, ReferenceSession::new)?;
        drive_lanes_serial(sim, lanes, step.duration as usize + 1)?;
        sessions.end(sim);
    }
    sessions.finish(sim, program.len())
}

/// Tests the wrapped system bus through its wrapper's EXTEST path: a bit
/// stream shifted through the wrapper boundary register must come back
/// intact after `WBR length + 1` cycles.
///
/// # Errors
///
/// Returns [`SimError::UnknownCore`] when the SoC has no wrapped bus.
pub fn run_bus_extest(sim: &mut SocSimulator) -> Result<Verdict, SimError> {
    use casbus::TamConfiguration;
    use casbus_p1500::WrapperInstruction;

    let cas_index = sim
        .tam()
        .cas_for_core("system_bus")
        .ok_or_else(|| SimError::UnknownCore("system_bus".to_owned()))?;
    let mut config = TamConfiguration::all_bypass(sim.tam().cas_count());
    config.set(cas_index, sim.tam().contiguous_test(cas_index, 0)?)?;
    let mut wrappers = vec![WrapperInstruction::Bypass; sim.tam().cas_count()];
    wrappers[cas_index] = WrapperInstruction::Extest;
    sim.configure(&config, &wrappers)?;

    // The EXTEST path depth: the wrapper boundary register.
    let depth = {
        let wrapper = sim.wrapper_mut("system_bus")?;
        wrapper.boundary().len()
    };
    let stream: BitVec = (0..32).map(|i| i % 3 == 0).collect();
    let total = stream.len() + depth + 1;
    let mut observed = BitVec::new();
    let mut bus = BitVec::zeros(sim.bus_width());
    let mut kinds = vec![ClockKind::Idle; sim.tam().cas_count()];
    kinds[cas_index] = ClockKind::Shift;
    for t in 0..total {
        bus.set(0, stream.get(t).unwrap_or(false));
        let out = sim.data_clock(&bus, &kinds)?;
        observed.push(out.get(0).expect("wire 0"));
    }
    // The stream re-emerges delayed by depth + 1 (retiming register).
    let mut mismatches = 0;
    for (i, bit) in stream.iter().enumerate() {
        if observed.get(i + depth + 1) != Some(bit) {
            mismatches += 1;
        }
    }
    Ok(if mismatches == 0 {
        Verdict::Pass
    } else {
        Verdict::Fail { mismatches }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus::Tam;
    use casbus_controller::{schedule, TestProgram};
    use casbus_soc::catalog;

    fn program_for(soc: &casbus_soc::SocDescription, n: usize, packed: bool) -> TestProgram {
        let tam = Tam::new(soc, n).unwrap();
        let sched = if packed {
            schedule::packed_schedule(soc, n).unwrap()
        } else {
            schedule::serial_schedule(soc, n).unwrap()
        };
        TestProgram::from_schedule(&tam, soc, &sched).unwrap()
    }

    #[test]
    fn serial_program_all_cores_pass() {
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        let program = program_for(&soc, 4, false);
        let report = run_program(&mut sim, &program).unwrap();
        assert!(report.all_pass(), "{report}");
        assert_eq!(report.verdicts.len(), 2);
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn packed_program_concurrent_cores_pass() {
        // Wide bus: both scan cores run simultaneously on disjoint windows.
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 6).unwrap();
        let program = program_for(&soc, 6, true);
        let report = run_program(&mut sim, &program).unwrap();
        assert!(report.all_pass(), "{report}");
        assert!(report.steps <= 2);
    }

    #[test]
    fn figure1_full_program_passes() {
        let soc = catalog::figure1_soc();
        let mut sim = SocSimulator::new(&soc, 8).unwrap();
        let program = program_for(&soc, 8, true);
        let report = run_program(&mut sim, &program).unwrap();
        assert!(report.all_pass(), "{report}");
        assert_eq!(report.verdicts.len(), 6);
        assert!(report.verdict("core1_cpu").unwrap().is_pass());
    }

    #[test]
    fn bus_extest_passes() {
        let soc = catalog::figure1_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        assert!(run_bus_extest(&mut sim).unwrap().is_pass());
    }

    #[test]
    fn bus_extest_requires_wrapped_bus() {
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        assert!(run_bus_extest(&mut sim).is_err());
    }

    #[test]
    fn report_display_and_lookup() {
        let report = SocTestReport {
            verdicts: vec![("a".into(), Verdict::Pass)],
            total_cycles: 100,
            steps: 1,
            per_core_cycles: vec![("a".into(), 80)],
            bus_cycles: 160,
            signatures: vec![("a".into(), 0xdead_beef)],
        };
        let text = report.to_string();
        assert!(text.contains("ALL PASS"));
        assert!(text.contains("bus busy wire-cycles: 160"));
        assert!(text.contains("a: 80 wrapper data clocks"));
        assert!(report.verdict("a").is_some());
        assert!(report.verdict("zz").is_none());
    }

    #[test]
    fn program_report_cycle_fields_match_registry() {
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        let program = program_for(&soc, 4, false);
        let report = run_program(&mut sim, &program).unwrap();
        let metrics = casbus_obs::MetricsRegistry::new();
        sim.export_metrics(&metrics);
        assert!(report.all_pass(), "{report}");
        // Fresh simulator: registry totals are exactly this program's.
        assert_eq!(metrics.counter("sim.cycles.total"), sim.cycles());
        assert_eq!(report.per_core_cycles.len(), 2);
        let wrapper_total: u64 = report.per_core_cycles.iter().map(|(_, c)| c).sum();
        // Every data clock touches every wrapper (idle counts included).
        assert_eq!(
            wrapper_total,
            metrics.counter("sim.cycles.test") * 2,
            "{report}"
        );
        assert_eq!(report.bus_cycles, metrics.counter_sum("bus.wire"));
        assert!(report.bus_cycles > 0);
    }
}
