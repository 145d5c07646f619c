//! Executable test programs: sequences of TAM configurations.
//!
//! Paper §5: *"Different TAM architectures can be addressed, in sequential
//! order, within the same test program, in order to optimize test
//! performances."* A [`TestProgram`] is exactly that sequence; each
//! [`TestStep`] carries the CAS configuration, the matching wrapper
//! instructions, and the step's duration.

use std::fmt;

use casbus::{CasError, Tam, TamConfiguration};
use casbus_p1500::WrapperInstruction;
use casbus_soc::SocDescription;

use crate::schedule::Schedule;

/// One step of a test program: configure, then run `duration + 1` data
/// clocks.
///
/// A session whose plan is not done when its step ends carries into the
/// next step, which must load its CAS scheme and wrapper instruction again
/// unchanged; it resumes where it paused. Every other TEST CAS starts a
/// session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestStep {
    /// Per-CAS instructions for this step.
    pub configuration: TamConfiguration,
    /// Per-CAS wrapper instructions (aligned with the TAM's CAS order; the
    /// wrapped system bus, when present, is the last entry).
    pub wrapper_instructions: Vec<WrapperInstruction>,
    /// TEST-phase duration in cycles. The step runs `duration + 1` data
    /// clocks after the configuration shift and its update pulse.
    pub duration: u64,
    /// Human-readable description (which cores run).
    pub description: String,
}

/// A complete test program for one TAM.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestProgram {
    steps: Vec<TestStep>,
}

impl TestProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: TestStep) {
        self.steps.push(step);
    }

    /// The steps, execution order.
    pub fn steps(&self) -> &[TestStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The cycles the program books on `tam`: every step's configuration
    /// shift and update pulse, then its `duration + 1` data clocks. The
    /// simulator runs exactly these.
    pub fn booked_cycles(&self, tam: &Tam) -> u64 {
        let configure = tam.configuration_clocks() as u64 + 1;
        self.data_clocks() + self.len() as u64 * configure
    }

    /// The data clocks the steps book, `duration + 1` each.
    fn data_clocks(&self) -> u64 {
        self.steps.iter().map(|s| s.duration + 1).sum()
    }

    /// Compiles a [`Schedule`] into a program: one step per distinct start
    /// time, in start order, each as long as [`step_durations`] books it.
    /// Each scheduled test is granted the contiguous wire window the
    /// scheduler chose; cores not under test sit in CAS BYPASS with their
    /// wrappers bypassed.
    ///
    /// A session still running when its step ends carries into the next
    /// step: its CAS scheme and wrapper instruction are loaded again
    /// unchanged, so the rectangle-packing schedules run as packed instead
    /// of waiting for the longest test of each step.
    ///
    /// # Errors
    ///
    /// [`CasError::TestWidthMismatch`] when a test declares a wire count
    /// other than its CAS's `P` (the CAS's scheme takes `P` wires from
    /// `wire_start`, so a narrower declaration would hide a wire shared
    /// with another test), and any [`CasError`] when a wire window cannot
    /// be expressed as a scheme (never, for windows produced by the
    /// scheduler).
    pub fn from_schedule(
        tam: &Tam,
        soc: &SocDescription,
        schedule: &Schedule,
    ) -> Result<Self, CasError> {
        let sessions: Vec<(u64, u64)> = schedule
            .tests()
            .iter()
            .map(|t| (t.start, t.duration))
            .collect();
        let mut program = TestProgram::new();
        // Sessions still running: CAS index, plan cycles left, core name.
        let mut running: Vec<(usize, u64, String)> = Vec::new();
        for (wave, duration) in schedule.waves().iter().zip(step_durations(&sessions)) {
            let mut configuration = TamConfiguration::all_bypass(tam.cas_count());
            let mut wrappers = vec![WrapperInstruction::Bypass; tam.cas_count()];
            if let Some(before) = program.steps.last() {
                for &(cas_index, _, _) in &running {
                    let instruction = before.configuration.instructions()[cas_index].clone();
                    configuration.set(cas_index, instruction)?;
                    wrappers[cas_index] = before.wrapper_instructions[cas_index];
                }
            }
            for test in wave {
                let cas_index = tam
                    .cas_for_core(&test.core_name)
                    .ok_or(CasError::UnknownCas(test.core.0))?;
                let p = tam.chain().cases()[cas_index].geometry().switched_wires();
                if test.wires != p {
                    return Err(CasError::TestWidthMismatch {
                        cas: cas_index,
                        p,
                        wires: test.wires,
                    });
                }
                configuration.set(cas_index, tam.contiguous_test(cas_index, test.wire_start)?)?;
                // The wrapped system bus has no core entry: interconnect test.
                wrappers[cas_index] = soc
                    .core_by_name(&test.core_name)
                    .map_or(WrapperInstruction::Extest, |(_, c)| {
                        c.method().wrapper_instruction()
                    });
                running.push((cas_index, test.duration + 1, test.core_name.clone()));
            }
            running.sort_unstable_by_key(|&(cas_index, _, _)| cas_index);
            let names: Vec<&str> = running.iter().map(|(_, _, name)| name.as_str()).collect();
            program.push(TestStep {
                configuration,
                wrapper_instructions: wrappers,
                duration,
                description: names.join(" + "),
            });
            for (_, left, _) in &mut running {
                *left = left.saturating_sub(duration + 1);
            }
            running.retain(|&(_, left, _)| left > 0);
        }
        Ok(program)
    }
}

/// The step rule: the duration of each step of the program that runs
/// sessions given as `(start, duration)` pairs in start order, in step
/// order. [`TestProgram::from_schedule`] compiles every schedule by it, and
/// the schedule search scores every candidate by it.
///
/// There is one step per distinct start time. A session's plan is its
/// duration plus one drain cycle, and a step runs its own duration plus
/// one data clocks. A step runs until the next start time, or until its
/// longest session ends if that comes first: with `s_k` the step's start
/// and `left` the longest plan it still has to run, it books
/// `min(s_{k+1} - s_k, left - 1)`, and the last step books `left - 1`.
/// A plan still running when its step ends carries into the next step with
/// that step's data clocks done.
///
/// # Examples
///
/// ```
/// use casbus_controller::program::step_durations;
///
/// // A 10-cycle session from 0, a 2-cycle one from 4: the first step runs
/// // until the second start, the second until the first session ends.
/// let steps: Vec<u64> = step_durations(&[(0, 10), (4, 2)]).collect();
/// assert_eq!(steps, [4, 5]);
/// ```
pub fn step_durations(sessions: &[(u64, u64)]) -> impl Iterator<Item = u64> + '_ {
    // Data clocks booked before the step, and the data clock at which the
    // longest plan started so far ends.
    let (mut clocks, mut ends, mut rest) = (0u64, 0u64, sessions);
    std::iter::from_fn(move || {
        let &(start, _) = rest.first()?;
        let starting = rest.iter().take_while(|&&(s, _)| s == start).count();
        for &(_, duration) in &rest[..starting] {
            ends = ends.max(clocks + duration + 1);
        }
        rest = &rest[starting..];
        let left = ends - clocks;
        let duration = rest
            .first()
            .map_or(left - 1, |&(next, _)| (next - start).min(left - 1));
        clocks += duration + 1;
        Some(duration)
    })
}

/// The cycles a program running `sessions` (as in [`step_durations`])
/// books with `configuration_clocks`-clock configuration shifts:
/// [`TestProgram::booked_cycles`] of the program
/// [`TestProgram::from_schedule`] compiles, without building it.
pub(crate) fn booked_cycles_of(sessions: &[(u64, u64)], configuration_clocks: u64) -> u64 {
    step_durations(sessions).fold(0, |booked, duration| {
        booked + configuration_clocks + 1 + duration + 1
    })
}

/// A schedule compiled once, ready to be executed many times: the TAM
/// geometry, the winning [`Schedule`], and its [`TestProgram`], bundled so
/// the compilation cost is paid exactly once per design.
///
/// Manufacturing test applies one test program to every die on the line;
/// recompiling the TAM and program per device would make compile cost scale
/// with fleet size. Execution layers (e.g. a fleet runner in `casbus-sim`)
/// hold a `CompiledProgram` behind an `Arc` and hand every device the same
/// immutable plan.
///
/// # Examples
///
/// ```
/// use casbus_controller::{schedule, CompiledProgram};
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let plan = CompiledProgram::compile(&soc, 8, schedule::packed_schedule(&soc, 8)?)?;
/// assert_eq!(plan.bus_width(), 8);
/// assert_eq!(plan.program().len(), plan.schedule().configuration_waves());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    tam: Tam,
    schedule: Schedule,
    program: TestProgram,
}

impl CompiledProgram {
    /// Builds the TAM for `soc` on an `n`-wire bus and compiles `schedule`
    /// into its executable program, all in one shot.
    ///
    /// # Errors
    ///
    /// Propagates [`CasError`] when the bus cannot host the SoC or a wire
    /// window cannot be expressed as a scheme.
    pub fn compile(soc: &SocDescription, n: usize, schedule: Schedule) -> Result<Self, CasError> {
        let tam = Tam::new(soc, n)?;
        let program = TestProgram::from_schedule(&tam, soc, &schedule)?;
        Ok(Self {
            tam,
            schedule,
            program,
        })
    }

    /// The TAM the program was compiled against.
    pub fn tam(&self) -> &Tam {
        &self.tam
    }

    /// The schedule this program realises.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The executable step sequence.
    pub fn program(&self) -> &TestProgram {
        &self.program
    }

    /// Test bus width the plan was compiled for.
    pub fn bus_width(&self) -> usize {
        self.schedule.bus_width()
    }
}

impl fmt::Display for TestProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "test program: {} steps, {} data clocks",
            self.len(),
            self.data_clocks()
        )?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  step {i}: {} ({} data clocks)",
                step.description,
                step.duration + 1
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{packed_schedule, serial_schedule};
    use casbus_soc::{catalog, TestMethod};

    #[test]
    fn serial_schedule_gives_one_step_per_core() {
        let soc = catalog::figure1_soc();
        let tam = Tam::new(&soc, 4).unwrap();
        let schedule = serial_schedule(&soc, 4).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        assert_eq!(program.len(), soc.cores().len());
        // Each step runs its test's time, one drain cycle, and one
        // configuration shift and update pulse.
        let per_step = tam.configuration_clocks() as u64 + 2;
        assert_eq!(
            program.booked_cycles(&tam),
            schedule.makespan() + program.len() as u64 * per_step
        );
    }

    #[test]
    fn packed_schedule_merges_waves() {
        let soc = catalog::figure1_soc();
        let tam = Tam::new(&soc, 8).unwrap();
        let schedule = packed_schedule(&soc, 8).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        assert!(program.len() <= soc.cores().len());
        assert_eq!(program.len(), schedule.configuration_waves());
        // Every step has at least one TEST instruction.
        for step in program.steps() {
            assert!(!step.configuration.cores_under_test().is_empty());
        }
    }

    #[test]
    fn staggered_starts_carry_running_sessions() {
        // Figure 1 at N = 8: `core1_cpu` (CAS 0) and `core2_dsp` (CAS 1)
        // start at 0 and outlast the starts at 516 and 773, so both steps
        // after the first carry them on the same scheme and wrapper
        // instruction, and each step runs only until the next start.
        let soc = catalog::figure1_soc();
        let tam = Tam::new(&soc, 8).unwrap();
        let schedule = packed_schedule(&soc, 8).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        let steps = program.steps();
        let durations: Vec<u64> = steps.iter().map(|s| s.duration).collect();
        assert_eq!(durations, [516, 257, 11_687]);
        for cas in [0, 1] {
            // Its plan (test time + 1 drain cycle) outlasts two steps.
            let test_time = soc.cores()[cas].test_time();
            assert!(test_time + 1 > durations[0] + 1 + durations[1] + 1);
            let scheme = |s: &TestStep| s.configuration.instructions()[cas].clone();
            for step in &steps[1..] {
                assert!(step.configuration.cores_under_test().contains(&cas));
                assert_eq!(scheme(step), scheme(&steps[0]));
                assert_eq!(
                    step.wrapper_instructions[cas],
                    steps[0].wrapper_instructions[cas]
                );
            }
        }
        // The data clocks run the makespan and the last session's drain.
        let clocks: u64 = durations.iter().map(|d| d + 1).sum();
        assert_eq!(clocks, schedule.makespan() + 1);
    }

    #[test]
    fn a_test_narrower_than_its_cas_is_refused() {
        // Figure 1 at N = 8: `core1_cpu` (CAS 0, P = 4) declared on wire 0
        // alone beside `core2_dsp` on wires 1..=3. The schedule's windows
        // do not overlap, but CAS 0's scheme takes wires 0..=3, so the
        // step would share wires 1..=3 and a healthy die would fail both
        // cores.
        use crate::schedule::{Schedule, ScheduledTest};
        let soc = catalog::figure1_soc();
        let test = |cas: usize, wire_start: usize, wires: usize| ScheduledTest {
            core: casbus_soc::CoreId(cas),
            core_name: soc.cores()[cas].name().to_owned(),
            wire_start,
            wires,
            start: 0,
            duration: soc.cores()[cas].test_time(),
        };
        assert_eq!(soc.cores()[0].name(), "core1_cpu");
        assert_eq!(soc.cores()[0].required_ports(), 4);
        let dsp = soc.cores()[1].required_ports();
        let schedule = Schedule::from_tests(8, vec![test(0, 0, 1), test(1, 1, dsp)])
            .expect("the declared windows do not overlap");
        let tam = Tam::new(&soc, 8).unwrap();
        let refused = CasError::TestWidthMismatch {
            cas: 0,
            p: 4,
            wires: 1,
        };
        assert_eq!(
            TestProgram::from_schedule(&tam, &soc, &schedule),
            Err(refused.clone())
        );
        assert_eq!(
            CompiledProgram::compile(&soc, 8, schedule).unwrap_err(),
            refused
        );
    }

    #[test]
    fn compiled_program_bundles_tam_schedule_and_program() {
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        let plan = CompiledProgram::compile(&soc, 8, schedule.clone()).unwrap();
        assert_eq!(plan.bus_width(), 8);
        assert_eq!(plan.schedule(), &schedule);
        let tam = Tam::new(&soc, 8).unwrap();
        let expected = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        assert_eq!(plan.program(), &expected);
        assert_eq!(plan.tam().bus_width(), 8);
    }

    #[test]
    fn compiled_program_rejects_impossible_buses() {
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        // A 2-wire TAM cannot host figure 1's 4-port cores.
        assert!(CompiledProgram::compile(&soc, 2, schedule).is_err());
    }

    #[test]
    fn wrapper_instructions_match_methods() {
        let soc = catalog::figure1_soc();
        let tam = Tam::new(&soc, 8).unwrap();
        let schedule = serial_schedule(&soc, 8).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        for step in program.steps() {
            for idx in step.configuration.cores_under_test() {
                let label = tam.label(idx).unwrap();
                let expected = match soc.core_by_name(label).map(|(_, c)| c.method()) {
                    Some(TestMethod::Bist { .. } | TestMethod::Memory { .. }) => {
                        WrapperInstruction::IntestBist
                    }
                    _ => WrapperInstruction::IntestScan,
                };
                assert_eq!(step.wrapper_instructions[idx], expected, "core {label}");
            }
        }
    }

    #[test]
    fn display_lists_steps() {
        let soc = catalog::figure2a_scan_soc();
        let tam = Tam::new(&soc, 3).unwrap();
        let schedule = serial_schedule(&soc, 3).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        assert!(program.to_string().contains("step 0"));
    }

    #[test]
    fn the_step_rule_books_what_the_compiled_program_books() {
        use crate::schedule::{packed_schedule, wave_optimal_schedule};
        let socs = [
            catalog::figure1_soc(),
            catalog::figure2a_scan_soc(),
            catalog::itc02_like_soc(),
            catalog::maintenance_soc(),
        ];
        for soc in &socs {
            let m = soc.max_ports();
            for n in [m, m + 1, 2 * m + 2] {
                let tam = Tam::new(soc, n).unwrap();
                let clocks = tam.configuration_clocks() as u64;
                for schedule in [
                    serial_schedule(soc, n),
                    packed_schedule(soc, n),
                    wave_optimal_schedule(soc, n),
                ]
                .into_iter()
                .flatten()
                {
                    let program = TestProgram::from_schedule(&tam, soc, &schedule).unwrap();
                    let sessions: Vec<(u64, u64)> = schedule
                        .tests()
                        .iter()
                        .map(|t| (t.start, t.duration))
                        .collect();
                    let durations: Vec<u64> = program.steps().iter().map(|s| s.duration).collect();
                    assert_eq!(
                        step_durations(&sessions).collect::<Vec<_>>(),
                        durations,
                        "{} n={n}",
                        soc.name()
                    );
                    assert_eq!(
                        booked_cycles_of(&sessions, clocks),
                        program.booked_cycles(&tam),
                        "{} n={n}",
                        soc.name()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_program() {
        let p = TestProgram::new();
        assert!(p.is_empty());
        let tam = Tam::new(&catalog::figure1_soc(), 8).unwrap();
        assert_eq!(p.booked_cycles(&tam), 0);
    }
}
