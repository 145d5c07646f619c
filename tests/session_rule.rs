//! One session rule. A core's test method defines the session that tests it
//! (`TestMethod::session`); the schedulers book that session's cycles and
//! the simulator runs exactly them, adding one drain cycle per session and
//! the configuration shift and update of every step. And every lane
//! observes only its own plan, so a healthy core's verdict and signature
//! are the same under every plan of its SoC.
//!
//! One step rule. A program compiled from a schedule has one step per
//! start time, and a session still running when its step ends carries into
//! the next one, so the program runs the schedule's makespan plus at most
//! one configuration and one cycle per step.

use std::collections::BTreeMap;

use casbus_suite::casbus::Tam;
use casbus_suite::casbus_controller::{
    schedule, search_schedule, MaintenancePlan, Schedule, SearchBudget, TestProgram, TestStep,
};
use casbus_suite::casbus_sim::session::SessionPlan;
use casbus_suite::casbus_sim::{
    run_core_session, run_program, run_program_reference, SocSimulator, SocTestReport,
};
use casbus_suite::casbus_soc::{catalog, CoreDescription, SocDescription, TestMethod};
use casbus_suite::casbus_tpg::Verdict;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn catalog_socs() -> Vec<SocDescription> {
    vec![
        catalog::figure1_soc(),
        catalog::figure2a_scan_soc(),
        catalog::figure2b_bist_soc(),
        catalog::figure2c_external_soc(),
        catalog::figure2d_hierarchical_soc(),
        catalog::maintenance_soc(),
        catalog::itc02_like_soc(),
    ]
}

/// Three distinct bus widths from the narrowest that fits.
fn widths(soc: &SocDescription) -> [usize; 3] {
    let m = soc.max_ports();
    [m, m + 1, 2 * m + 2]
}

/// Every schedule the controller builds for `soc` on `n` wires: serial,
/// greedy packing, power-aware packing at two cores' power, the smoke
/// search and, where it runs, the wave-optimal DP.
fn schedules(soc: &SocDescription, n: usize) -> Vec<(&'static str, Schedule)> {
    let mut plans = vec![
        ("serial", schedule::serial_schedule(soc, n)),
        ("packed", schedule::packed_schedule(soc, n)),
        ("power", schedule::power_aware_schedule(soc, n, 200)),
        ("search", search_schedule(soc, n, SearchBudget::smoke())),
    ];
    if soc.cores().len() <= schedule::WAVE_OPTIMAL_CORE_LIMIT {
        plans.push(("wave", schedule::wave_optimal_schedule(soc, n)));
    }
    plans
        .into_iter()
        .map(|(name, schedule)| (name, schedule.expect(name)))
        .collect()
}

/// Maintenance plans on `n` wires, each a one-step program: every core on
/// its own, then as many cores together as fit, in SoC order.
fn maintenance_programs(tam: &Tam, soc: &SocDescription) -> Vec<TestProgram> {
    let names: Vec<&str> = soc.cores().iter().map(CoreDescription::name).collect();
    let mut sets: Vec<Vec<&str>> = names.iter().map(|&name| vec![name]).collect();
    let mut together = Vec::new();
    for &name in &names {
        together.push(name);
        if MaintenancePlan::plan(tam, soc, &together).is_err() {
            together.pop();
        }
    }
    sets.push(together);
    sets.iter()
        .map(|cores| {
            let plan = MaintenancePlan::plan(tam, soc, cores).expect("fits");
            let mut program = TestProgram::new();
            program.push(TestStep {
                configuration: plan.configuration().clone(),
                wrapper_instructions: plan.wrapper_instructions().to_vec(),
                duration: plan.duration(),
                description: cores.join(" + "),
            });
            program
        })
        .collect()
}

/// What `schedule`'s program would book if each step ran until its longest
/// test ended, as programs did before sessions carried across steps.
fn step_after_step_cycles(tam: &Tam, schedule: &Schedule) -> u64 {
    let configure = tam.configuration_clocks() as u64 + 1;
    let waves = schedule.waves();
    let longest = waves
        .iter()
        .map(|wave| wave.iter().map(|t| t.duration).max());
    longest
        .map(|duration| duration.unwrap_or(0) + 1 + configure)
        .sum()
}

/// The step rule's bounds on `program`, compiled from `schedule`: it books
/// at most the makespan plus one configuration and one cycle per step, and
/// never more than step-after-step execution would.
fn check_step_rule(tam: &Tam, schedule: &Schedule, program: &TestProgram, what: &str) {
    let booked = program.booked_cycles(tam);
    let steps = program.len() as u64;
    let per_step = tam.configuration_clocks() as u64 + 2;
    assert_eq!(steps as usize, schedule.configuration_waves(), "{what}");
    assert!(
        booked <= schedule.makespan() + steps * per_step,
        "{what}: {booked} booked for makespan {}",
        schedule.makespan()
    );
    assert!(booked <= step_after_step_cycles(tam, schedule), "{what}");
}

/// Runs `program` on the compiled engine and on the reference
/// interpreter, each on a fresh simulator: both run exactly the cycles the
/// program books and return the same report.
fn run_as_booked(
    soc: &SocDescription,
    n: usize,
    program: &TestProgram,
    what: &str,
) -> SocTestReport {
    let tam = Tam::new(soc, n).expect("fits");
    let booked = program.booked_cycles(&tam);
    let fresh = || SocSimulator::new(soc, n).expect("fits");
    let compiled = run_program(&mut fresh(), program).expect("compiled run");
    let reference = run_program_reference(&mut fresh(), program).expect("reference run");
    assert_eq!(compiled.total_cycles, booked, "{what}: compiled");
    assert_eq!(reference.total_cycles, booked, "{what}: reference");
    assert_eq!(compiled, reference, "{what}");
    compiled
}

/// Each core's verdict and signature, and the first plan that produced
/// them.
struct Signatures(BTreeMap<String, (Verdict, u64, String)>);

impl Signatures {
    /// A healthy die's sessions under the serial plan on the narrowest bus,
    /// where each session runs alone in its step.
    fn alone(soc: &SocDescription) -> Self {
        let m = soc.max_ports();
        let serial = schedule::serial_schedule(soc, m).expect("fits");
        let program = TestProgram::from_schedule(&Tam::new(soc, m).expect("fits"), soc, &serial);
        let mut sim = SocSimulator::new(soc, m).expect("fits");
        let report = run_program(&mut sim, &program.expect("program")).expect("runs");
        assert!(report.all_pass(), "{report}");
        let mut signatures = Self(BTreeMap::new());
        signatures.record(&format!("{} serial N={m}", soc.name()), &report);
        signatures
    }

    /// Records `report`'s sessions, each of which must match what every
    /// earlier plan gave the same core.
    fn record(&mut self, plan: &str, report: &SocTestReport) {
        let verdicts = report.verdicts.iter().map(|(_, verdict)| verdict);
        for ((core, signature), verdict) in report.signatures.iter().zip(verdicts) {
            let (first_verdict, first_signature, first_plan) = self
                .0
                .entry(core.clone())
                .or_insert_with(|| (verdict.clone(), *signature, plan.to_owned()));
            assert_eq!(
                (verdict, *signature),
                (&*first_verdict, *first_signature),
                "{core}: {plan} against {first_plan}"
            );
        }
    }
}

/// Both rules over every schedule of `soc` on `n` wires: each program runs
/// what it books, every core passes, and every signature is the one in
/// `signatures`.
fn check_schedules(soc: &SocDescription, n: usize, signatures: &mut Signatures) {
    let tam = Tam::new(soc, n).expect("fits");
    for (name, schedule) in schedules(soc, n) {
        let program = TestProgram::from_schedule(&tam, soc, &schedule).expect("program");
        let what = format!("{} {name} N={n}", soc.name());
        check_step_rule(&tam, &schedule, &program, &what);
        if matches!(name, "serial" | "wave") {
            // Their steps never overlap: they run exactly as before.
            let booked = program.booked_cycles(&tam);
            assert_eq!(booked, step_after_step_cycles(&tam, &schedule), "{what}");
        }
        let report = run_as_booked(soc, n, &program, &what);
        assert!(report.all_pass(), "{what}: {report}");
        assert_eq!(report.verdicts.len(), soc.cores().len(), "{what}");
        signatures.record(&what, &report);
    }
}

/// Both rules over the maintenance plans of `soc` on `n` wires.
fn check_maintenance(soc: &SocDescription, n: usize, signatures: &mut Signatures) {
    for program in maintenance_programs(&Tam::new(soc, n).expect("fits"), soc) {
        let step = &program.steps()[0].description;
        let what = format!("{} maintenance of {step} N={n}", soc.name());
        signatures.record(&what, &run_as_booked(soc, n, &program, &what));
    }
}

/// Both rules over every schedule of `soc` at each of `widths` and over
/// its maintenance plans at the first width.
fn check_soc(soc: &SocDescription, widths: &[usize]) {
    let mut signatures = Signatures::alone(soc);
    for &n in widths {
        check_schedules(soc, n, &mut signatures);
    }
    check_maintenance(soc, widths[0], &mut signatures);
}

#[test]
fn sessions_are_their_method_shape_plus_one_drain_cycle() {
    let scan = |name: &str, chains: Vec<usize>| {
        CoreDescription::new(
            name,
            TestMethod::Scan {
                chains,
                patterns: 12,
            },
        )
    };
    let external = CoreDescription::new(
        "e",
        TestMethod::External {
            ports: 3,
            patterns: 40,
        },
    );
    let nested = CoreDescription::new(
        "n",
        TestMethod::Hierarchical {
            internal_bus_width: 2,
            sub_cores: vec![scan("n_scan", vec![5, 3])],
        },
    );
    let cores = [
        scan("s", vec![17, 9]),
        CoreDescription::new(
            "b",
            TestMethod::Bist {
                width: 12,
                patterns: 77,
            },
        ),
        external.clone(),
        CoreDescription::new(
            "m",
            TestMethod::Memory {
                words: 33,
                data_width: 5,
            },
        ),
        CoreDescription::new(
            "h",
            TestMethod::Hierarchical {
                internal_bus_width: 3,
                sub_cores: vec![scan("h_scan", vec![6, 4]), external, nested],
            },
        ),
    ];
    for core in &cores {
        let shape = core.method().session();
        let plan = SessionPlan::for_core(core);
        assert_eq!(plan.len() as u64, core.test_time() + 1, "{}", core.name());
        assert_eq!(
            plan.shift_cycles(),
            shape.patterns * shape.shift + shape.flush + 1,
            "{}",
            core.name()
        );
    }
}

#[test]
fn core_sessions_run_their_booked_time() {
    for soc in catalog_socs() {
        let mut sim = SocSimulator::new(&soc, soc.max_ports()).expect("fits");
        for core in soc.cores() {
            let report = run_core_session(&mut sim, core.name()).expect("runs");
            assert!(report.verdict.is_pass(), "{report}");
            assert_eq!(report.data_cycles, core.test_time() + 1, "{report}");
        }
    }
}

#[test]
fn schedule_makespan_is_the_sum_of_models_when_serial() {
    let soc = catalog::figure2a_scan_soc();
    let serial = schedule::serial_schedule(&soc, 4).expect("fits");
    let model_sum: u64 = soc.cores().iter().map(CoreDescription::test_time).sum();
    assert_eq!(serial.makespan(), model_sum);
}

#[test]
fn figure1_plans_run_what_they_book_and_agree_on_signatures() {
    let soc = catalog::figure1_soc();
    check_soc(&soc, &widths(&soc));
}

#[test]
fn figure2_plans_run_what_they_book_and_agree_on_signatures() {
    for soc in [
        catalog::figure2a_scan_soc(),
        catalog::figure2b_bist_soc(),
        catalog::figure2c_external_soc(),
        catalog::figure2d_hierarchical_soc(),
    ] {
        check_soc(&soc, &widths(&soc));
    }
}

#[test]
fn maintenance_soc_plans_run_what_they_book_and_agree_on_signatures() {
    let soc = catalog::maintenance_soc();
    check_soc(&soc, &widths(&soc));
}

/// The ITC'02-like SoC's schedules at one of its three widths; one test
/// per width, so the harness runs them side by side.
fn check_itc02_like_schedules(width: usize) {
    let soc = catalog::itc02_like_soc();
    let n = widths(&soc)[width];
    check_schedules(&soc, n, &mut Signatures::alone(&soc));
}

#[test]
fn itc02_like_plans_on_the_narrowest_bus_run_what_they_book() {
    check_itc02_like_schedules(0);
}

#[test]
fn itc02_like_plans_on_one_more_wire_run_what_they_book() {
    check_itc02_like_schedules(1);
}

#[test]
fn itc02_like_plans_on_a_wide_bus_run_what_they_book() {
    check_itc02_like_schedules(2);
}

#[test]
fn itc02_like_maintenance_plans_run_what_they_book() {
    let soc = catalog::itc02_like_soc();
    check_maintenance(&soc, soc.max_ports(), &mut Signatures::alone(&soc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SoCs (scan, BIST, external and memory cores) at two widths.
    #[test]
    fn random_soc_plans_run_what_they_book_and_agree_on_signatures(
        seed in any::<u64>(),
        n_cores in 2usize..=6,
        max_ports in 1usize..=4,
        slack in 0usize..=2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, n_cores, max_ports);
        let n = soc.max_ports() + slack;
        check_soc(&soc, &[n, n + 2]);
    }
}
