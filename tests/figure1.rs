//! End-to-end integration: the paper's Figure-1 SoC tested over multiple
//! bus widths, with serial and packed schedules, including the wrapped
//! system bus.

use casbus_suite::casbus::Tam;
use casbus_suite::casbus_controller::{schedule, TestProgram};
use casbus_suite::casbus_sim::{report, run_core_session, SocSimulator};
use casbus_suite::casbus_soc::catalog;

#[test]
fn every_core_passes_on_every_feasible_width() {
    let soc = catalog::figure1_soc();
    for n in [4usize, 5, 8] {
        let mut sim = SocSimulator::new(&soc, n).expect("fits");
        for core in soc.cores() {
            let rep = run_core_session(&mut sim, core.name()).expect("session runs");
            assert!(rep.verdict.is_pass(), "N={n}: {rep}");
        }
    }
}

#[test]
fn serial_and_packed_programs_agree_on_verdicts() {
    let soc = catalog::figure1_soc();
    let n = 8;
    let tam = Tam::new(&soc, n).expect("fits");

    let serial = TestProgram::from_schedule(
        &tam,
        &soc,
        &schedule::serial_schedule(&soc, n).expect("fits"),
    )
    .expect("compiles");
    let packed = TestProgram::from_schedule(
        &tam,
        &soc,
        &schedule::packed_schedule(&soc, n).expect("fits"),
    )
    .expect("compiles");

    let mut sim_a = SocSimulator::new(&soc, n).expect("fits");
    let rep_a = report::run_program(&mut sim_a, &serial).expect("runs");
    let mut sim_b = SocSimulator::new(&soc, n).expect("fits");
    let rep_b = report::run_program(&mut sim_b, &packed).expect("runs");

    assert!(rep_a.all_pass(), "{rep_a}");
    assert!(rep_b.all_pass(), "{rep_b}");
    assert_eq!(rep_a.verdicts.len(), rep_b.verdicts.len());
    // Packing shortens wall-clock test time.
    assert!(rep_b.total_cycles <= rep_a.total_cycles);
}

#[test]
fn system_bus_extest_passes_and_detects_defects() {
    let soc = catalog::figure1_soc();
    let mut sim = SocSimulator::new(&soc, 4).expect("fits");
    assert!(report::run_bus_extest(&mut sim)
        .expect("bus present")
        .is_pass());
}

#[test]
fn narrow_bus_is_rejected_cleanly() {
    let soc = catalog::figure1_soc();
    assert!(SocSimulator::new(&soc, 3).is_err(), "max P is 4");
}

#[test]
fn configuration_overhead_is_once_per_step_not_per_pattern() {
    // Paper §3.3: the instruction register width "does not affect the test
    // time, since the SoC test architecture configuration will only occur
    // once at the beginning of a SoC testing session".
    let soc = catalog::figure1_soc();
    let n = 8;
    let tam = Tam::new(&soc, n).expect("fits");
    let sched = schedule::packed_schedule(&soc, n).expect("fits");
    let program = TestProgram::from_schedule(&tam, &soc, &sched).expect("compiles");
    let booked = program.booked_cycles(&tam);
    let config_total = program.len() as u64 * (tam.configuration_clocks() as u64 + 1);
    assert!(
        config_total < booked / 10,
        "configuration ({config_total}) must be negligible next to the {booked} \
         cycles the program books"
    );
    // The same holds on the simulator's own counters, on the serving engine
    // and on the bit-serial reference: each run takes the cycles the
    // program books, and each step costs one CONFIGURATION phase (the
    // serial shift plus its update pulse), however many patterns its TEST
    // phase streams.
    for reference in [false, true] {
        let mut sim = SocSimulator::new(&soc, n).expect("fits");
        let rep = if reference {
            report::run_program_reference(&mut sim, &program)
        } else {
            report::run_program(&mut sim, &program)
        }
        .expect("runs");
        assert!(rep.all_pass(), "reference {reference}: {rep}");
        assert_eq!(sim.cycles(), booked, "reference {reference}");
        assert_eq!(sim.config_cycles(), config_total, "reference {reference}");
        assert!(
            sim.config_cycles() < sim.test_cycles() / 10,
            "reference {reference}: configuration ({}) must be negligible next \
             to test ({}) cycles",
            sim.config_cycles(),
            sim.test_cycles()
        );
    }
}
