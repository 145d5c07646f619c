//! Experiment X4 (extension) — power-constrained test scheduling: the
//! constraint the SoC test-scheduling literature layered directly onto
//! CAS-BUS-class TAMs (scan toggling exceeds mission-mode power, so
//! concurrency must be capped even when bus wires are free).
//!
//! Sweeps the power budget over the ITC'02-like SoC and reports the
//! test-time cost of each cap, as makespan and as the tester cycles the
//! program executes.

use casbus_bench::executed_cycles;
use casbus_controller::schedule::{
    packed_schedule, peak_power, power_aware_schedule, serial_schedule,
};
use casbus_soc::catalog;

fn main() {
    let soc = catalog::itc02_like_soc();
    let n = 8;
    let serial = serial_schedule(&soc, n).expect("fits");
    let unconstrained = packed_schedule(&soc, n).expect("fits");
    let unconstrained_executed = executed_cycles(&soc, &unconstrained);
    println!(
        "Power-aware scheduling on {:?} ({} cores, N = {n})",
        soc.name(),
        soc.cores().len()
    );
    println!(
        "serial baseline: {} cycles ({} executed); unconstrained packing: {} cycles ({} executed)",
        serial.makespan(),
        executed_cycles(&soc, &serial),
        unconstrained.makespan(),
        unconstrained_executed
    );
    println!();
    println!(
        "{:>8} | {:>10} | {:>10} | {:>10} | {:>12}",
        "budget", "makespan", "executed", "peak power", "vs unconstr."
    );
    println!("{:-<9}+{:-<12}+{:-<12}+{:-<12}+{:-<13}", "", "", "", "", "");
    for budget in [100u32, 150, 200, 300, 400, 600, 1000] {
        match power_aware_schedule(&soc, n, budget) {
            Ok(sched) => {
                let peak = peak_power(&soc, &sched);
                assert!(peak <= budget, "scheduler exceeded its own budget");
                let executed = executed_cycles(&soc, &sched);
                println!(
                    "{:>8} | {:>10} | {:>10} | {:>10} | {:>11.2}x",
                    budget,
                    sched.makespan(),
                    executed,
                    peak,
                    executed as f64 / unconstrained_executed as f64
                );
            }
            Err(e) => println!("{budget:>8} | infeasible: {e}"),
        }
    }
    println!();
    println!("Reading: with one core's worth of power the schedule degrades to");
    println!("serial; each added allowance buys concurrency until the bus wires —");
    println!("not power — become the binding constraint, where the curve meets");
    println!("the unconstrained packing.");
}
