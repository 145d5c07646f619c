//! Experiment P5 — schedule search: what does an annealed search that
//! ranks plans by the cycles their program books buy over the one-shot
//! heuristics, and what does it cost?
//!
//! One deterministic pseudo-random SoC per Table-1 `(N, P)` row (shared
//! with `schedule_quality` via [`casbus_bench::table1_schedule_cases`]).
//! For every row the search runs end to end through
//! [`casbus_sim::run_program_searched`]: heuristic seeding, annealed local
//! moves scored by the cycles each candidate's program books, and a final
//! bit-exact gate of the winner against the bit-serial reference
//! interpreter. Only the winner is simulated. Per row we record the
//! heuristics' and the searched plan's executed cycles (configuration
//! included), the searched makespan, and the search wall time. The
//! searched plan must execute no more cycles than the best heuristic's on
//! every row, and fewer on at least 4 of the 12.
//!
//! Results go to stdout and `BENCH_schedule_search.json` at the workspace
//! root. Set `CASBUS_BENCH_SMOKE=1` for the CI configuration (the small
//! fixed-seed [`SearchBudget::smoke`] budget).

use std::time::Instant;

use casbus_bench::{executed_cycles, table1_schedule_cases};
use casbus_controller::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule,
};
use casbus_controller::search::SearchBudget;
use casbus_obs::MetricsRegistry;
use casbus_sim::run_program_searched;

/// One Table-1 row; every cycle count is executed cycles.
struct Row {
    n: usize,
    p: usize,
    cores: usize,
    serial: u64,
    packed: u64,
    wave_optimal: Option<u64>,
    searched: u64,
    searched_makespan: u64,
    utilisation: f64,
    search_ms: f64,
}

impl Row {
    fn best_heuristic(&self) -> u64 {
        self.serial
            .min(self.packed)
            .min(self.wave_optimal.unwrap_or(u64::MAX))
    }

    fn improvement_pct(&self) -> f64 {
        let best = self.best_heuristic();
        if best == 0 {
            0.0
        } else {
            100.0 * (best as f64 - self.searched as f64) / best as f64
        }
    }
}

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

fn main() {
    let smoke = casbus_bench::env_flag("CASBUS_BENCH_SMOKE");
    let budget = if smoke {
        SearchBudget::smoke()
    } else {
        SearchBudget::default()
    };
    println!(
        "Schedule search vs heuristics on Table-1-row SoCs ({} rounds x {} moves{})",
        budget.rounds,
        budget.moves_per_round,
        if smoke { ", smoke" } else { "" }
    );
    println!("(executed cycles, configuration included)");
    println!();
    println!(
        "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>8} {:>5} | {:>9}",
        "N",
        "P",
        "cores",
        "serial",
        "packed",
        "wave-opt",
        "searched",
        "gain",
        "makespan",
        "util",
        "search"
    );
    println!("{:-<13}+{:-<41}+{:-<23}+{:-<10}", "", "", "", "");

    let mut rows = Vec::new();
    for case in table1_schedule_cases() {
        let executed = |schedule: Schedule| executed_cycles(&case.soc, &schedule);
        let serial = executed(serial_schedule(&case.soc, case.n).expect("fits"));
        let packed = executed(packed_schedule(&case.soc, case.n).expect("fits"));
        let wave_optimal = wave_optimal_schedule(&case.soc, case.n).ok().map(executed);

        let metrics = MetricsRegistry::new();
        let t0 = Instant::now();
        let (schedule, report) = run_program_searched(&case.soc, case.n, budget, &metrics)
            .expect("searchable and bit-exact");
        let search_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(schedule.is_conflict_free(), "N={} P={}", case.n, case.p);
        assert!(report.all_pass(), "N={} P={}", case.n, case.p);

        let row = Row {
            n: case.n,
            p: case.p,
            cores: case.soc.cores().len(),
            serial,
            packed,
            wave_optimal,
            searched: report.total_cycles,
            searched_makespan: schedule.makespan(),
            utilisation: utilisation(&schedule),
            search_ms,
        };
        assert!(
            row.searched <= row.best_heuristic(),
            "search lost to a heuristic on N={} P={}: {} vs {} executed cycles",
            case.n,
            case.p,
            row.searched,
            row.best_heuristic()
        );
        println!(
            "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>5.1}% {:>8} {:>4.0}% | {:>7.1}ms",
            row.n,
            row.p,
            row.cores,
            row.serial,
            row.packed,
            row.wave_optimal
                .map_or_else(|| "-".to_owned(), |m| m.to_string()),
            row.searched,
            row.improvement_pct(),
            row.searched_makespan,
            100.0 * row.utilisation,
            row.search_ms,
        );
        rows.push(row);
    }

    let strict_wins = rows
        .iter()
        .filter(|r| r.searched < r.best_heuristic())
        .count();
    println!();
    println!(
        "search strictly beat the best heuristic's executed cycles on {strict_wins}/{} rows",
        rows.len()
    );
    assert!(
        strict_wins >= 4,
        "expected strict improvements on at least 4 of {} rows, got {strict_wins}",
        rows.len()
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"p\": {}, \"cores\": {}, \"serial\": {}, \"packed\": {}, \
                 \"wave_optimal\": {}, \"best_heuristic\": {}, \"searched\": {}, \
                 \"searched_makespan\": {}, \"improvement_pct\": {:.2}, \"utilisation\": {:.4}, \
                 \"search_ms\": {:.3}}}",
                r.n,
                r.p,
                r.cores,
                r.serial,
                r.packed,
                r.wave_optimal
                    .map_or_else(|| "null".to_owned(), |m| m.to_string()),
                r.best_heuristic(),
                r.searched,
                r.searched_makespan,
                r.improvement_pct(),
                r.utilisation,
                r.search_ms,
            )
        })
        .collect();
    let json = format!(
        "{}  \"budget\": {{\"rounds\": {}, \"moves_per_round\": {}, \"seed\": {}}},\n  \
         \"cycles\": \"executed\",\n  \"strict_wins\": {strict_wins},\n  \"rows\": [\n{}\n  ]\n}}\n",
        casbus_bench::json_header("schedule_search", smoke, 1),
        budget.rounds,
        budget.moves_per_round,
        budget.seed,
        json_rows.join(",\n")
    );
    let path = "BENCH_schedule_search.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
