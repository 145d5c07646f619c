//! Experiment C1b — scheduler quality: how close does the greedy strip
//! packer get to the provably-optimal wave schedule (the best schedule in
//! which no test starts while another runs), and how much more does the
//! annealed search recover on top?
//!
//! The paper leaves scheduling policy to the "good collaboration between the
//! test designer and the test programmer" (§4); this bench quantifies what
//! that collaboration is worth. Each schedule is given as its makespan and
//! as the tester cycles its program executes (`run_program`'s
//! `total_cycles`: one configuration per distinct start time, and sessions
//! still running carried across it). Two sections:
//!
//! 1. the original width sweep on the Figure-1 SoC and a random 10-core
//!    SoC (serial vs packed vs wave-optimal),
//! 2. every Table-1 `(N, P)` row on the packing-heavy SoCs shared with the
//!    `schedule_search` experiment, adding the annealed search
//!    ([`search_schedule`]) and bus utilisation to the comparison. The
//!    searched plan must execute no more cycles than any heuristic's,
//!    the wave optimum's included where the wave DP runs.

use casbus_bench::{executed_cycles, table1_schedule_cases};
use casbus_controller::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule,
};
use casbus_controller::search::{search_schedule, SearchBudget};
use casbus_soc::{catalog, SocDescription};
use rand::SeedableRng;

/// Busy wire-cycles over offered wire-cycles: `Σ(Pᵢ·Tᵢ) / (N·makespan)`.
fn utilisation(sched: &Schedule) -> f64 {
    let area: u64 = sched
        .tests()
        .iter()
        .map(|t| t.wires as u64 * t.duration)
        .sum();
    let offered = sched.bus_width() as u64 * sched.makespan();
    if offered == 0 {
        0.0
    } else {
        area as f64 / offered as f64
    }
}

/// A schedule's makespan and executed cycles, as one table cell.
fn cell(soc: &SocDescription, schedule: &Schedule) -> String {
    format!("{}/{}", schedule.makespan(), executed_cycles(soc, schedule))
}

fn width_sweep() {
    println!("Scheduler quality: serial vs greedy-packed vs wave-optimal");
    println!("(cycles: makespan/executed)");
    println!();
    let figure1 = catalog::figure1_soc();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDA7E);
    let random10 = catalog::random_soc(&mut rng, 10, 3);
    let cases = [
        ("figure1 (6 cores)", figure1),
        ("random (10 cores)", random10),
    ];
    for (label, soc) in &cases {
        println!("{label}:");
        println!(
            "{:>4} | {:>13} {:>13} {:>13} | {:>9} {:>9}",
            "N", "serial", "packed", "wave-optimal", "pack/opt", "ser/opt"
        );
        let widths = soc.max_ports()..=(soc.max_ports() + 5);
        for n in widths {
            let serial = serial_schedule(soc, n).expect("fits");
            let packed = packed_schedule(soc, n).expect("fits");
            let optimal = wave_optimal_schedule(soc, n).expect("small enough");
            let executed = |s: &Schedule| executed_cycles(soc, s) as f64;
            println!(
                "{:>4} | {:>13} {:>13} {:>13} | {:>8.3}x {:>8.3}x",
                n,
                cell(soc, &serial),
                cell(soc, &packed),
                cell(soc, &optimal),
                executed(&packed) / executed(&optimal),
                executed(&serial) / executed(&optimal),
            );
        }
        println!();
    }
    println!("(pack/opt and ser/opt compare executed cycles)");
    println!();
}

fn table1_rows(budget: SearchBudget) {
    println!("All Table-1 (N, P) rows, packing-heavy SoCs, heuristics vs search");
    println!("(cycles: makespan/executed):");
    println!(
        "{:>2} {:>2} {:>5} | {:>13} {:>13} {:>13} {:>13} | {:>6} {:>5}",
        "N", "P", "cores", "serial", "packed", "wave-opt", "searched", "gain", "util"
    );
    let mut strict_wins = 0usize;
    let mut rows = 0usize;
    for case in table1_schedule_cases() {
        let soc = &case.soc;
        let serial = serial_schedule(soc, case.n).expect("fits");
        let packed = packed_schedule(soc, case.n).expect("fits");
        let wave = wave_optimal_schedule(soc, case.n).ok();
        let searched = search_schedule(soc, case.n, budget).expect("fits");
        assert!(searched.is_conflict_free(), "N={} P={}", case.n, case.p);
        assert_eq!(
            searched.tests().len(),
            soc.cores().len(),
            "every core scheduled (N={} P={})",
            case.n,
            case.p
        );

        let best_heuristic = [Some(&serial), Some(&packed), wave.as_ref()]
            .into_iter()
            .flatten()
            .map(|s| executed_cycles(soc, s))
            .min()
            .expect("serial always runs");
        let executed = executed_cycles(soc, &searched);
        assert!(
            executed <= best_heuristic,
            "searched plan executes {executed} cycles, the best heuristic's {best_heuristic} (N={} P={})",
            case.n,
            case.p
        );
        if executed < best_heuristic {
            strict_wins += 1;
        }
        rows += 1;
        println!(
            "{:>2} {:>2} {:>5} | {:>13} {:>13} {:>13} {:>13} | {:>5.1}% {:>4.0}%",
            case.n,
            case.p,
            soc.cores().len(),
            cell(soc, &serial),
            cell(soc, &packed),
            wave.as_ref()
                .map_or_else(|| "-".to_owned(), |s| cell(soc, s)),
            cell(soc, &searched),
            100.0 * (best_heuristic - executed) as f64 / best_heuristic as f64,
            100.0 * utilisation(&searched),
        );
    }
    println!();
    println!(
        "search strictly beat the best heuristic's executed cycles on {strict_wins}/{rows} rows"
    );
    println!("(gain compares executed cycles)");
}

fn main() {
    let smoke = casbus_bench::env_flag("CASBUS_BENCH_SMOKE");
    let budget = if smoke {
        SearchBudget::smoke()
    } else {
        SearchBudget::default()
    };
    width_sweep();
    table1_rows(budget);
    println!();
    println!("Reading: greedy packing stays close to the exact wave partition");
    println!("and often beats it, since staggered starts run as packed: a session");
    println!("still running carries across the next configuration. Pure serial");
    println!("testing leaves 30-50% on the table at realistic bus widths. The");
    println!("annealed search, ranking plans by the cycles their program books,");
    println!("then recovers a further few percent over the best heuristic on most");
    println!("packing-heavy rows; see the schedule_search experiment for the gated");
    println!("end-to-end run.");
}
