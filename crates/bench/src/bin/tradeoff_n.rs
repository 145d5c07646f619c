//! Experiment C1 — the paper's central trade-off (§3.2, §4): *"the larger
//! is the width of the test bus (N), the shorter is the overall test time"*,
//! against the growing CAS-BUS area overhead.
//!
//! Sweeps N over the Figure-1 SoC (and a larger random SoC), reporting the
//! scheduled SoC test time, the configuration overhead, the tester cycles
//! the program executes, and the total CAS-BUS area under the synthesized
//! and pass-transistor models.

use casbus::{CasGeometry, SchemeSet, Tam};
use casbus_bench::executed_cycles;
use casbus_controller::schedule;
use casbus_netlist::{area, synth, AreaModel};
use casbus_soc::SocDescription;
use rand::SeedableRng;

fn cas_bus_area(soc: &SocDescription, n: usize) -> (f64, f64) {
    // One CAS per core (plus wrapped bus); area depends on each CAS's (N, P).
    let mut geometries: Vec<CasGeometry> = soc
        .cores()
        .iter()
        .map(|c| CasGeometry::new(n, c.required_ports()).expect("P <= N checked by caller"))
        .collect();
    if soc.system_bus().is_some_and(|b| b.wrapped) {
        geometries.push(CasGeometry::new(n, 1).expect("1 <= N"));
    }
    let mut synthesized = 0.0;
    let mut pass_transistor = 0.0;
    for g in geometries {
        let set = SchemeSet::enumerate(g).expect("swept widths stay in budget");
        let netlist = synth::synthesize_cas(&set);
        synthesized += area::gate_equivalents(&netlist);
        pass_transistor += AreaModel::PassTransistor.estimate(g);
    }
    (synthesized, pass_transistor)
}

fn sweep(soc: &SocDescription, widths: impl IntoIterator<Item = usize>) {
    println!(
        "{:>3} | {:>10} {:>6} | {:>9} {:>9} | {:>12} {:>12}",
        "N", "test", "waves", "config", "executed", "area synth", "area pass-tr"
    );
    println!("{:-<4}+{:-<19}+{:-<20}+{:-<26}", "", "", "", "");
    let mut last: Option<(u64, u64)> = None;
    for n in widths {
        let Ok(sched) = schedule::packed_schedule(soc, n) else {
            continue;
        };
        let tam = Tam::new(soc, n).expect("fits if the schedule fits");
        let config_cycles =
            sched.configuration_waves() as u64 * (tam.configuration_clocks() as u64 + 1);
        let executed = executed_cycles(soc, &sched);
        let (synth_area, pt_area) = cas_bus_area(soc, n);
        println!(
            "{:>3} | {:>10} {:>6} | {:>9} {:>9} | {:>12.0} {:>12.0}",
            n,
            sched.makespan(),
            sched.configuration_waves(),
            config_cycles,
            executed,
            synth_area,
            pt_area
        );
        if let Some((makespan, executed_before)) = last {
            if sched.makespan() > makespan {
                // Greedy packing can show small anomalies; flag them.
                println!(
                    "    ^ note: greedy packing anomaly (+{} cycles)",
                    sched.makespan() - makespan
                );
            } else if executed > executed_before {
                println!(
                    "    ^ note: executed cycles rise (+{}): the configuration shifts grow",
                    executed - executed_before
                );
            }
        }
        last = Some((sched.makespan(), executed));
    }
}

fn main() {
    let figure1 = casbus_soc::catalog::figure1_soc();
    println!(
        "Trade-off: test time vs test bus width N — SoC {:?} ({} cores)",
        figure1.name(),
        figure1.cores().len()
    );
    sweep(&figure1, figure1.max_ports()..=10);

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCA5B);
    let random = casbus_soc::catalog::random_soc(&mut rng, 20, 4);
    println!(
        "\nSame sweep on a random 20-core SoC (seeded, max P = {}):",
        random.max_ports()
    );
    sweep(&random, random.max_ports()..=10);

    let itc = casbus_soc::catalog::itc02_like_soc();
    println!(
        "\nSame sweep on the ITC'02-like benchmark SoC ({} cores, {:.1}M gates):",
        itc.cores().len(),
        itc.total_gates() as f64 / 1e6
    );
    sweep(&itc, itc.max_ports()..=12);
    // The paper's §3.3 overhead argument: the CAS-BUS is negligible next to
    // the cores ("too small compared to the SoC total area ... to influence
    // the overall SoC test overhead") until N gets large.
    for n in [4usize, 8, 12] {
        let (synth_area, pt_area) = cas_bus_area(&itc, n);
        println!(
            "overhead at N={n}: synthesized {:.2}% of SoC gates, pass-transistor {:.3}%",
            synth_area / itc.total_gates() as f64 * 100.0,
            pt_area / itc.total_gates() as f64 * 100.0
        );
    }

    println!("\nReading: test time falls as N grows (the paper's claim) in");
    println!("makespan; the executed cycles add one configuration shift per start");
    println!("time, which a wider bus makes longer, so they can rise by a few");
    println!("dozen cycles where the makespan stays flat. The CAS-BUS area rises");
    println!("steeply for the synthesized fabric and only gently for the");
    println!("pass-transistor variant the paper proposes in §3.3. The knee of the");
    println!("curve is where the test designer should put N.");
}
