//! Experiment C1b — scheduler quality: how close does the greedy strip
//! packer get to the provably-optimal wave schedule (the execution model of
//! an actual test program, one CONFIGURATION phase per wave), and how much
//! more does the annealed search recover on top?
//!
//! The paper leaves scheduling policy to the "good collaboration between the
//! test designer and the test programmer" (§4); this bench quantifies what
//! that collaboration is worth. Two sections:
//!
//! 1. the original width sweep on the Figure-1 SoC and a random 10-core
//!    SoC (serial vs packed vs wave-optimal),
//! 2. every Table-1 `(N, P)` row on the packing-heavy SoCs shared with the
//!    `schedule_search` experiment, adding the analytic annealed search
//!    ([`search_schedule`]) and bus utilisation to the comparison.

use casbus_bench::table1_schedule_cases;
use casbus_controller::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule,
};
use casbus_controller::search::{search_schedule, SearchBudget};
use casbus_soc::catalog;
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

fn width_sweep() {
    println!("Scheduler quality: serial vs greedy-packed vs wave-optimal (cycles)");
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
            "{:>4} | {:>10} {:>10} {:>12} | {:>9} {:>9}",
            "N", "serial", "packed", "wave-optimal", "pack/opt", "ser/opt"
        );
        let widths = soc.max_ports()..=(soc.max_ports() + 5);
        for n in widths {
            let serial = serial_schedule(soc, n).expect("fits").makespan();
            let packed = packed_schedule(soc, n).expect("fits").makespan();
            let optimal = wave_optimal_schedule(soc, n)
                .expect("small enough")
                .makespan();
            println!(
                "{:>4} | {:>10} {:>10} {:>12} | {:>8.3}x {:>8.3}x",
                n,
                serial,
                packed,
                optimal,
                packed as f64 / optimal as f64,
                serial as f64 / optimal as f64,
            );
        }
        println!();
    }
}

fn table1_rows(budget: SearchBudget) {
    println!("All Table-1 (N, P) rows, packing-heavy SoCs, heuristics vs search:");
    println!(
        "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>5}",
        "N", "P", "cores", "serial", "packed", "wave-opt", "searched", "gain", "util"
    );
    let mut strict_wins = 0usize;
    let mut rows = 0usize;
    for case in table1_schedule_cases() {
        let serial = serial_schedule(&case.soc, case.n).expect("fits");
        let packed = packed_schedule(&case.soc, case.n).expect("fits");
        let wave = wave_optimal_schedule(&case.soc, case.n).ok();
        let searched = search_schedule(&case.soc, case.n, budget).expect("fits");
        assert!(searched.is_conflict_free(), "N={} P={}", case.n, case.p);
        assert_eq!(
            searched.tests().len(),
            case.soc.cores().len(),
            "every core scheduled (N={} P={})",
            case.n,
            case.p
        );

        let best_heuristic = serial
            .makespan()
            .min(packed.makespan())
            .min(wave.as_ref().map_or(u64::MAX, Schedule::makespan));
        assert!(
            searched.makespan() <= best_heuristic,
            "search lost to a heuristic on N={} P={}",
            case.n,
            case.p
        );
        if searched.makespan() < best_heuristic {
            strict_wins += 1;
        }
        rows += 1;
        println!(
            "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>5.1}% {:>4.0}%",
            case.n,
            case.p,
            case.soc.cores().len(),
            serial.makespan(),
            packed.makespan(),
            wave.as_ref()
                .map_or_else(|| "-".to_owned(), |s| s.makespan().to_string()),
            searched.makespan(),
            100.0 * (best_heuristic - searched.makespan()) as f64 / best_heuristic as f64,
            100.0 * utilisation(&searched),
        );
    }
    println!();
    println!("search strictly beat the best heuristic on {strict_wins}/{rows} rows");
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
    println!("Reading: greedy packing stays within a few percent of the exact");
    println!("wave partition (and may even beat it, since staggered starts are");
    println!("allowed), while pure serial testing leaves 30-50% on the table at");
    println!("realistic bus widths. The annealed search then recovers a further");
    println!("few percent over the best heuristic on most packing-heavy rows;");
    println!("see the schedule_search experiment for the execution-validated run.");
}
